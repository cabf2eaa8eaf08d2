"""Acceptance gate: one test per release criterion.

Each test computes its criterion from scratch at the stated tolerance,
asserts it, and prints one ACCEPTANCE nn PASS line (visible with -s;
the assertion message carries the FAIL detail).  Criteria with runtime
caps time the measured computation only.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from uav_isac import ekf, optimize, sensing, simulate
from uav_isac.params import SystemParams, process_noise_cov
from uav_isac.simulate import ScenarioConfig

import oracles

DEFS = SystemParams()
ATAN_SQRT2_DEG = math.degrees(math.atan(math.sqrt(2.0)))


def _default_run(seed=0):
    return simulate.run_scenario(ScenarioConfig(seed=seed), DEFS)


def _steady(records):
    return [r for r in records if r.slot > 60]


# ---------------------------------------------------------------------------

def test_ac01_alpha0_angle_is_arctan_sqrt2():
    """alpha=0 geometry optimum sits at arctan(sqrt 2) for every altitude."""
    t0 = time.perf_counter()
    worst = 0.0
    for _, h, _, phi_deg, _ in optimize.sweep_angle(DEFS, [0.0], range(10, 101, 10)):
        err = abs(phi_deg - ATAN_SQRT2_DEG)
        worst = max(worst, err)
        assert err <= 1e-3, f"H={h}: angle off by {err:.3e} deg"
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s, cap 1s"
    print(f"ACCEPTANCE 01 PASS: alpha=0 angle within {worst:.2e} deg of "
          f"{ATAN_SQRT2_DEG:.4f} for H=10..100 ({elapsed:.2f}s)")


def test_ac02_angle_sweep_locates_knee():
    """alpha=1 optimal-angle sweep peaks at the altitude knee (~40.25 m)."""
    t0 = time.perf_counter()
    h_grid = [10.0 + 0.25 * i for i in range(361)]
    rows = optimize.sweep_angle(DEFS, [1.0], h_grid)
    elapsed = time.perf_counter() - t0
    phis = np.array([r[3] for r in rows])
    assert np.all(np.isfinite(phis)), "sweep produced non-finite angles"
    peak = phis.max()
    h_loc = max(h for h, phi in zip(h_grid, phis) if phi >= peak - 1e-9)
    assert abs(h_loc - 40.25) <= 0.05 * 40.25, \
        f"knee located at H={h_loc}, expected 40.25 +/- 5%"
    assert elapsed < 10.0, f"took {elapsed:.2f}s, cap 10s"
    print(f"ACCEPTANCE 02 PASS: sweep knee at H={h_loc:.2f} m "
          f"(target 40.25 +/- 5%, {elapsed:.2f}s)")


def test_ac03_angle_profile_unimodal():
    """phi*(H) has exactly one local maximum for interior weights."""
    for alpha in (0.3, 0.5, 0.7):
        phis = [row[3] for row in optimize.sweep_angle(DEFS, [alpha], range(10, 101))]
        assert all(map(math.isfinite, phis)), f"alpha={alpha}: sweep produced non-finite angles"
        # merge equal-valued runs, then count interior strict maxima
        comp = [phis[0]]
        for v in phis[1:]:
            if abs(v - comp[-1]) > 1e-12:
                comp.append(v)
        n_max = 0
        for i, v in enumerate(comp):
            left_ok = i == 0 or comp[i - 1] < v
            right_ok = i == len(comp) - 1 or comp[i + 1] < v
            if left_ok and right_ok:
                n_max += 1
        assert n_max == 1, f"alpha={alpha}: {n_max} local maxima"
    print("ACCEPTANCE 03 PASS: phi*(H) unimodal on [10,100] m for "
          "alpha in {0.3, 0.5, 0.7}")


def test_ac04_closed_form_bound_matches_generic_inverse():
    """Rational posterior bound equals the generic matrix inverse."""
    rng = np.random.default_rng(404)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        p = replace(DEFS,
                    h_alt=float(rng.uniform(10.0, 100.0)),
                    alpha=float(rng.uniform(0.05, 0.95)))
        x = float(rng.uniform(1.0, 150.0)) * (1 if rng.random() < 0.5 else -1)
        v = float(rng.uniform(-30.0, 30.0))
        m11 = float(rng.uniform(0.05, 5.0))
        m22 = float(rng.uniform(0.01, 1.0))
        rho = float(rng.uniform(-0.9, 0.9))
        m12 = rho * math.sqrt(m11 * m22)
        pcrb_x, pcrb_v, _ = ekf.predicted_pcrb(
            x, v, ekf.prior_information((m11, m12, m22)), p)
        ox, ov = oracles.pcrb_pair(x, v, [[m11, m12], [m12, m22]],
                                   oracles.params_dict(p))
        rel = max(abs(pcrb_x - ox) / ox, abs(pcrb_v - ov) / ov)
        worst = max(worst, rel)
        assert rel <= 1e-10, f"bound mismatch rel={rel:.2e} at x={x}, v={v}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s, cap 1s"
    print(f"ACCEPTANCE 04 PASS: closed-form bound within {worst:.1e} rel of "
          f"generic inverse on 1000 instances ({elapsed:.2f}s)")


def _ac05_slot_problems():
    """AC05's 100 random slot problems at default parameters."""
    rng = np.random.default_rng(505)
    for _ in range(100):
        eta = float(rng.uniform(-78.0, 78.0))
        x_hat = eta + float(rng.uniform(-2.0, 2.0))
        m11 = float(rng.uniform(0.2, 2.0))
        m22 = float(rng.uniform(0.05, 0.5))
        rho = float(rng.uniform(-0.8, 0.8))
        m12 = rho * math.sqrt(m11 * m22)
        yield optimize.P1Instance(eta, x_hat, (m11, m12, m22), DEFS)


def test_ac05_solvers_match_brute_force():
    """Geometry and slot solvers agree with dense-grid oracles."""
    t0 = time.perf_counter()
    d = oracles.params_dict(DEFS)

    # geometry problem against a 1e6-point grid plus refinement
    worst_sp1 = 0.0
    for alpha in (0.3, 0.5, 0.7):
        p = replace(DEFS, alpha=alpha)
        res = optimize.solve_sp1(p)
        x_ref = oracles.grid_refine_min(
            lambda xs: oracles.g0(xs, alpha, d), 1e-6, 3.0 * p.h_alt,
            1_000_000)
        err = abs(res.x_star - x_ref)
        worst_sp1 = max(worst_sp1, err)
        assert err <= 1e-4, f"alpha={alpha}: |x*-grid| = {err:.2e} m"

    # slot problem against per-instance grid oracles
    worst_sca = 0.0
    for inst in _ac05_slot_problems():
        eta, x_hat, (m11, m12, m22) = inst.eta_prev, inst.x_hat_prev, inst.mse_pred
        res = optimize.solve_p1_sca(inst)
        m_np = [[m11, m12], [m12, m22]]
        x_ref = oracles.grid_refine_min(
            lambda xs: oracles.p1_objective(xs, eta, x_hat, m_np,
                                            DEFS.alpha, d),
            inst.lo, inst.hi, 20_001)
        err = abs(res.x_breve_opt - x_ref)
        worst_sca = max(worst_sca, err)
        assert err <= 1e-3, \
            f"eta={eta:.2f}: |x_sca-grid| = {err:.2e} m"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f}s, cap 60s"
    print(f"ACCEPTANCE 05 PASS: geometry solver within {worst_sp1:.1e} m, "
          f"slot solver within {worst_sca:.1e} m of grid oracles "
          f"({elapsed:.1f}s)")


def test_slot_solve_equals_scalar_steps_on_ac05_problems():
    # the one-row batched solve gives every ScaResult field of the scalar
    # reference solve: optimum, velocity, objective, Newton steps, trace
    for inst in _ac05_slot_problems():
        assert repr(optimize.solve_p1_sca(inst)) == repr(oracles.p1_by_scalar_steps(inst))


def test_ac06_derivatives_match_finite_differences():
    """Propagated first/second derivatives track central differences."""
    inst = optimize.P1Instance(20.0, 19.5, (1.0, 0.1, 0.25), DEFS)
    slot = inst.x_hat_prev, inst._prior_info, inst.params
    xs = np.linspace(inst.lo + 0.01, inst.hi - 0.01, 500)

    def f0(x):
        return optimize.objective_f(float(x), *slot)[0]

    d1 = np.empty(500)
    d2 = np.empty(500)
    fd1 = np.empty(500)
    fd2 = np.empty(500)
    for i, x in enumerate(xs):
        _, d1[i], d2[i] = optimize.objective_f(float(x), *slot)
        fd1[i] = oracles.central_fd1(f0, x, 1e-4)
        fd2[i] = oracles.central_fd2(f0, x, 3e-3)
    rel1 = np.max(np.abs(d1 - fd1)) / np.max(np.abs(fd1))
    rel2 = np.max(np.abs(d2 - fd2)) / np.max(np.abs(fd2))
    assert rel1 <= 1e-5, f"first derivative off by {rel1:.2e} relative"
    assert rel2 <= 1e-3, f"second derivative off by {rel2:.2e} relative"
    print(f"ACCEPTANCE 06 PASS: f' within {rel1:.1e}, f'' within {rel2:.1e} "
          "of central differences on a 500-point grid")


def test_ac07_bound_traces_in_expected_ranges():
    """Default run keeps prior/measurement MSE traces in their bands."""
    t0 = time.perf_counter()
    steady = _steady(_default_run())
    elapsed = time.perf_counter() - t0
    tr_mp = np.array([r.tr_mp for r in steady])
    tr_mm = np.array([r.tr_mm for r in steady])
    ratio = float(np.mean(tr_mp / tr_mm))
    assert ratio >= 100.0, f"steady trace ratio {ratio:.1f} < 100"
    assert tr_mp.min() >= 0.1 and tr_mp.max() <= 10.0, \
        f"Tr(prior MSE) range [{tr_mp.min():.3g}, {tr_mp.max():.3g}]"
    assert tr_mm.min() >= 1e-5 and tr_mm.max() <= 1e-2, \
        f"Tr(measurement bound) range [{tr_mm.min():.3g}, {tr_mm.max():.3g}]"
    assert elapsed < 5.0, f"took {elapsed:.2f}s, cap 5s"
    print(f"ACCEPTANCE 07 PASS: steady Tr ratio {ratio:.0f} >= 100, "
          f"Tr(M_p)~{tr_mp.mean():.3f}, Tr(bound)~{tr_mm.mean():.2e} "
          f"({elapsed:.2f}s)")


def test_ac08_tracks_to_geometry_optimum():
    """Converged relative position stays within 2 m of the geometry optimum."""
    x_star = optimize.solve_sp1(DEFS).x_star
    steady = _steady(_default_run())
    errs = [abs(r.x_true - x_star) for r in steady]
    assert max(errs) <= 2.0, \
        f"max |x_n - x*| = {max(errs):.3f} m over slots > 60"
    print(f"ACCEPTANCE 08 PASS: |x_n - {x_star:.3f}| <= {max(errs):.3f} m "
          "<= 2 m for all slots > 60")


def test_ac09_beats_overhead_benchmark_on_average():
    """Mean steady weighted bound: proposed <= right-above over 50 trials."""
    t0 = time.perf_counter()
    stats = simulate.run_monte_carlo(ScenarioConfig(), DEFS, 50)
    elapsed = time.perf_counter() - t0
    prop = float(np.mean(stats.proposed.weighted_actual_mean[60:]))
    above = float(np.mean(stats.right_above.weighted_actual_mean[60:]))
    assert prop <= above, \
        f"proposed {prop:.3e} > right-above {above:.3e}"
    assert elapsed < 120.0, f"took {elapsed:.1f}s, cap 120s"
    print(f"ACCEPTANCE 09 PASS: steady weighted bound {prop:.3e} (proposed) "
          f"<= {above:.3e} (right-above) over 50 trials ({elapsed:.1f}s)")


def test_ac10_tradeoff_endpoints():
    """Low-ranging-gain frontier: zero sensing at the rate optimum, and
    the sensing-optimal offset matches the geometry solver."""
    p = replace(DEFS, a1=0.15, alpha=0.5)
    rows = optimize.tradeoff_frontier(p, 2001)
    alphas, xg, rates, perfs = (np.array(c) for c in zip(*rows))
    assert xg[0] == 0.0 and perfs[0] == 0.0, \
        "rate-max endpoint should have zero sensing performance"
    assert rates[0] == rates.max(), "rate should peak at x = 0"
    x_star = optimize.solve_sp1(p).x_star
    resolution = optimize.qos_radius(p) / 2000.0
    gap = abs(xg[-1] - x_star)
    assert gap <= resolution, \
        f"sensing-optimal offset {xg[-1]:.4f} vs x*={x_star:.4f}, " \
        f"gap {gap:.4f} > grid resolution {resolution:.4f}"
    print(f"ACCEPTANCE 10 PASS: a1=0.15 frontier has perf=0 at rate-max "
          f"x=0 and best-sensing x within {gap:.3f} m (<= {resolution:.3f}) "
          "of the geometry optimum")


def test_ac11_rate_floor_holds():
    """QoS radius inverts the rate exactly; served slots meet the target."""
    r_edge = sensing.achievable_rate(optimize.qos_radius(DEFS), DEFS)
    rel = abs(r_edge - DEFS.gamma_c) / DEFS.gamma_c
    assert rel <= 1e-9, f"rate at QoS radius off by {rel:.2e} relative"
    records = _default_run()
    unflagged = [r for r in records if not r.flagged]
    assert unflagged, "default run produced no unflagged slots"
    min_rate = min(r.rate_bpshz for r in unflagged)
    assert min_rate >= DEFS.gamma_c, \
        f"unflagged slot rate {min_rate:.4f} < target {DEFS.gamma_c}"
    print(f"ACCEPTANCE 11 PASS: rate(QoS radius) within {rel:.1e} of "
          f"{DEFS.gamma_c}; min unflagged rate {min_rate:.3f} >= "
          f"{DEFS.gamma_c}")


def test_ac12_sampled_statistics_match_models():
    """1e5 measurement draws and process steps reproduce the noise models."""
    rng = np.random.default_rng(1212)
    x, v = 50.0, 10.0
    cov = sensing.measured_variances(sensing.noise_weights(x, DEFS))
    n = 100_000
    # n measurements, then n process steps, each one batch of its draws in stream order
    draws = np.array(sensing.sample_measurement(x, v, cov, rng.standard_normal((n, 3)).T, 1.0,
                                                DEFS, np)).T
    sample_var = draws.var(axis=0)
    for got, want, name in zip(sample_var, cov, ("bearing", "delay", "doppler")):
        rel = abs(got - want) / want
        assert rel <= 0.05, f"{name} variance off by {rel:.3f} relative"

    pos, vel = 80.0, 5.0
    z = rng.standard_normal((n, 2)).T
    pos1, vel1 = simulate.step_ground_truth(pos, vel, *z, DEFS.dt,
                                            simulate.process_noise_factor(DEFS))
    incr = np.stack([pos1 - (pos + vel * DEFS.dt), vel1 - vel], axis=1)
    q11, q12, q22 = process_noise_cov(DEFS.dt, DEFS.q_tilde)
    emp = np.cov(incr.T, ddof=0)
    for got, want, name in (
            (emp[0, 0], q11, "position"),
            (emp[1, 1], q22, "velocity"),
            (emp[0, 1], q12, "cross")):
        rel = abs(got - want) / abs(want)
        assert rel <= 0.05, f"process-noise {name} term off by {rel:.3f}"
    meas_worst = float(np.max(np.abs(
        sample_var / np.array(cov) - 1.0)))
    proc_worst = max(abs(emp[0, 0] / q11 - 1.0),
                     abs(emp[1, 1] / q22 - 1.0),
                     abs(emp[0, 1] / q12 - 1.0))
    print(f"ACCEPTANCE 12 PASS: 1e5-sample measurement variances within "
          f"{meas_worst:.1%}, process-noise covariance within "
          f"{proc_worst:.1%} of the models (5% allowed)")
