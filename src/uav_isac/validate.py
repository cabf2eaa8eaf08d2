"""Self-contained runtime validation suite.

Each check re-derives a contract independently (finite differences,
generic dense linear algebra, Monte-Carlo sampling, closed-form
identities) and compares it against the package implementation.  The
CLI's validate subcommand prints one line per check and exits nonzero
on any failure.

Checks deliberately resolve collaborators through their modules
(sensing.jacobian, linalg2.process_noise_cov, ...) at call time, so a
deliberately injected fault is observed by the suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import ekf, linalg2, optimize, sensing, simulate
from .linalg2 import DiagMat3, Sym2
from .params import SystemParams
from .sensing import Measurement, RelativeState


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _rel_err(got: float, want: float, floor: float = 1e-300) -> float:
    return abs(got - want) / max(abs(got), abs(want), floor)


def _check_jacobian_fd(p: SystemParams, rng) -> tuple[bool, str]:
    """Measurement Jacobian entries vs central finite differences."""
    states = [RelativeState(30.0, 5.0), RelativeState(80.0, -3.0),
              RelativeState(10.0, 0.0), RelativeState(0.5, 2.0),
              RelativeState(-25.0, 4.0)]
    worst = 0.0
    for s in states:
        jac = sensing.jacobian(s, p)
        analytic = [(jac.iota, 0.0), (jac.kappa, 0.0), (jac.zeta, jac.nu)]
        hx = 1e-4 * max(1.0, abs(s.x))
        hv = 1e-4 * max(1.0, abs(s.v))
        for comp in range(3):
            up = sensing.measure_mean(RelativeState(s.x + hx, s.v), p)[comp]
            dn = sensing.measure_mean(RelativeState(s.x - hx, s.v), p)[comp]
            fd_x = (up - dn) / (2.0 * hx)
            up = sensing.measure_mean(RelativeState(s.x, s.v + hv), p)[comp]
            dn = sensing.measure_mean(RelativeState(s.x, s.v - hv), p)[comp]
            fd_v = (up - dn) / (2.0 * hv)
            ax, av = analytic[comp]
            worst = max(worst,
                        abs(fd_x - ax) / max(abs(ax), abs(fd_x), 1e-12),
                        abs(fd_v - av) / max(abs(av), abs(fd_v), 1e-12))
    return worst < 1e-5, f"max rel err {worst:.3g}"


def _check_noise_model(p: SystemParams, rng) -> tuple[bool, str]:
    """Noise variances vs an independent longhand evaluation through
    the radar gain."""
    worst = 0.0
    for _ in range(50):
        x = float(rng.uniform(-120.0, 120.0))
        v = float(rng.uniform(-20.0, 20.0))
        d2 = x * x + p.h_alt * p.h_alt
        g_r = sensing.radar_gain(x, p)
        denom = p.p_a_w * p.n_sym * p.n_t * p.n_r * g_r
        s1_long = p.a1 * p.a1 * p.sigma2_w * d2 / (denom * p.h_alt * p.h_alt)
        s2_long = p.a2 * p.a2 * p.sigma2_w / denom
        s3_long = p.a3 * p.a3 * p.sigma2_w / denom
        act = sensing.noise_cov_actual(RelativeState(x, v), p)
        for got, want in zip(act.diagonal(), (s1_long, s2_long, s3_long)):
            worst = max(worst, _rel_err(got, want))
    return worst < 1e-11, f"max rel err {worst:.3g}"


def _check_process_noise_psd(p: SystemParams, rng) -> tuple[bool, str]:
    """Q_s PSD and equal to the closed form, across dt/q."""
    for dt, q in ((0.2, 5.0), (0.1, 0.0), (1.0, 2.5), (0.05, 100.0)):
        m = linalg2.process_noise_cov(dt, q)
        if linalg2.min_eigenvalue_symmetric(m) < -1e-15 * max(m.trace, 1e-30):
            return False, f"negative eigenvalue at dt={dt}, q={q}"
        want = (q * dt ** 3 / 3.0, q * dt * dt / 2.0, q * dt)
        got = (m.m11, m.m12, m.m22)
        if any(_rel_err(a, b) > 1e-14 and abs(a - b) > 1e-300
               for a, b in zip(got, want)):
            return False, f"entries off at dt={dt}, q={q}"
    return True, "PSD, closed form matches"


def _check_crb_identity(p: SystemParams, rng) -> tuple[bool, str]:
    """Closed-form measurement-only bounds vs generic Fisher inversion."""
    worst = 0.0
    for _ in range(200):
        x = float(rng.uniform(0.5, 150.0)) * (1 if rng.uniform() < 0.5 else -1)
        v = float(rng.uniform(-20.0, 20.0))
        s = RelativeState(x, v)
        jac = sensing.jacobian(s, p).as_array()
        variances = np.array(sensing.noise_cov_actual(s, p).diagonal())
        fisher = jac.T @ np.diag(1.0 / variances) @ jac
        cov = np.linalg.inv(fisher)
        crb_x, crb_v = ekf.crb_measurement(x, v, p)
        worst = max(worst, _rel_err(crb_x, cov[0, 0]), _rel_err(crb_v, cov[1, 1]))
    return worst < 1e-10, f"max rel err {worst:.3g}"


def _check_pcrb_vs_generic(p: SystemParams, rng) -> tuple[bool, str]:
    """Closed-form anticipated bounds vs dense prior+information inversion."""
    worst = 0.0
    for _ in range(100):
        a = rng.uniform(-1.0, 1.0, size=(2, 2))
        m_arr = a @ a.T + 0.05 * np.eye(2)
        x = float(rng.uniform(-120.0, 120.0))
        v = float(rng.uniform(-20.0, 20.0))
        s = RelativeState(x, v)
        jac = sensing.jacobian(s, p).as_array()
        variances = np.array(sensing.noise_cov_actual(s, p).diagonal())
        info = np.linalg.inv(m_arr) + jac.T @ np.diag(1.0 / variances) @ jac
        cov = np.linalg.inv(info)
        pair = ekf.predicted_pcrb(x, v, Sym2.from_array(m_arr), p)
        worst = max(worst, _rel_err(pair.pcrb_x, cov[0, 0]),
                    _rel_err(pair.pcrb_v, cov[1, 1]))
    return worst < 1e-9, f"max rel err {worst:.3g}"


def _check_objective_derivatives(p: SystemParams, rng) -> tuple[bool, str]:
    """Dual-number f', f'' vs central finite differences."""
    inst = optimize.P1Instance(40.0, 38.0, Sym2.diag(1.0, 0.25), p)
    lo, hi = inst.feasible_interval()
    span = hi - lo
    worst1 = worst2 = 0.0
    for i in range(21):
        x = lo + span * (0.05 + 0.9 * i / 20.0)
        f, f1, f2 = optimize.objective_f(x, inst)
        h = 1e-4 * max(1.0, abs(x))
        fp = optimize.objective_f(x + h, inst)[0]
        fm = optimize.objective_f(x - h, inst)[0]
        fd1 = (fp - fm) / (2.0 * h)
        fd2 = (fp - 2.0 * f + fm) / (h * h)
        worst1 = max(worst1, abs(f1 - fd1) / max(abs(f1), abs(fd1), 1e-12))
        worst2 = max(worst2, abs(f2 - fd2) / max(abs(f2), abs(fd2), 1e-12))
    return (worst1 < 1e-5 and worst2 < 1e-3,
            f"f' rel {worst1:.3g}, f'' rel {worst2:.3g}")


def _check_sp1_stationarity(p: SystemParams, rng) -> tuple[bool, str]:
    """Interior geometry solution: |g'| < 1e-6*g per meter and g'' >= 0."""
    res = optimize.solve_sp1(p)
    g, g1, g2 = optimize.g0_derivatives(res.x_star, p)
    ok = abs(g1) < 1e-6 * g and g2 >= 0.0
    return ok, f"branch {res.branch}, |g'|={abs(g1):.3g}, g''={g2:.3g}"


def _check_sp1_alpha0(p: SystemParams, rng) -> tuple[bool, str]:
    """alpha=0 minimizer is exactly H/sqrt(2) for H in 10..100."""
    for h in range(10, 101, 10):
        res = optimize.solve_sp1(replace(p, alpha=0.0, h_alt=float(h)))
        if res.x_star != h / math.sqrt(2.0):
            return False, f"H={h}: got {res.x_star!r}"
    return True, "exact at all ten altitudes"


def _check_sp1_alpha_continuity(p: SystemParams, rng) -> tuple[bool, str]:
    """x*(alpha) moves < 0.5 m under 1e-3 weight perturbations."""
    base = optimize.solve_sp1(p).x_star
    worst = 0.0
    for da in (-1e-3, 1e-3):
        other = optimize.solve_sp1(replace(p, alpha=p.alpha + da)).x_star
        worst = max(worst, abs(other - base))
    return worst < 0.5, f"max shift {worst:.3g} m"


def _check_g_convexity(p: SystemParams, rng) -> tuple[bool, str]:
    """Numerical convexity of g(x,0) on the certified bracket."""
    x_l = optimize.convexity_lower_bound(p)
    x_u = optimize.upper_anchor(p)
    xs = np.linspace(x_l, x_u, 1000)
    g = np.array([ekf.weighted_g(float(x), 0.0, p) for x in xs])
    h = xs[1] - xs[0]
    fd2 = (g[:-2] - 2.0 * g[1:-1] + g[2:]) / (h * h)
    min_margin = float(np.min(fd2 + 1e-9 * g[1:-1]))
    return min_margin >= 0.0, f"min(fd2 + 1e-9 g) = {min_margin:.3g}"


def _check_certificate(p: SystemParams, rng) -> tuple[bool, str]:
    """Curvature certificate sign vs finite differences in chi, plus the
    positivity regime when the discriminant is nonpositive."""
    h_alt = p.h_alt
    chi_bar = 4.0 * p.a1 * h_alt / math.sqrt(optimize.xi_of_h(p))
    for _ in range(50):
        chi = float(rng.uniform(1e-3, chi_bar))
        cert = optimize.crbx_second_derivative_certificate(chi, p)
        hstep = 1e-5 * chi
        vals = [ekf.crb_measurement(h_alt / math.sqrt(c), 0.0, p)[0]
                for c in (chi - hstep, chi, chi + hstep)]
        fd2 = (vals[0] - 2.0 * vals[1] + vals[2]) / (hstep * hstep)
        if not (cert > 0.0 and fd2 > 0.0):
            return False, f"chi={chi:.4g}: cert={cert:.3g}, fd2={fd2:.3g}"
    if not optimize.crbx_second_derivative_certificate(chi_bar, p) > 0.0:
        return False, "certificate not positive at chi_bar"
    if not optimize.crbx_second_derivative_certificate(1e6, p) < 0.0:
        return False, "certificate not negative for large chi"
    flat = replace(p, a1=0.15)
    if not optimize.xi_of_h(flat) < 0.0:
        return False, "expected negative discriminant at a1=0.15"
    for _ in range(50):
        chi = float(rng.uniform(1e-3, 100.0))
        if not optimize.crbx_second_derivative_certificate(chi, flat) > 0.0:
            return False, f"nonpositive certificate at chi={chi:.4g}, a1=0.15"
    return True, "signs match finite differences in both regimes"


def _check_qos_inverse(p: SystemParams, rng) -> tuple[bool, str]:
    """Rate at the QoS radius reproduces the target, and the radius
    shrinks as the target grows."""
    x_c = optimize.qos_radius(p)
    err = _rel_err(sensing.achievable_rate(x_c, p), p.gamma_c)
    shrink = optimize.qos_radius(replace(p, gamma_c=p.gamma_c + 1.0)) < x_c
    return err < 1e-9 and shrink, f"rate rel err {err:.3g}"


def _check_sca_properties(p: SystemParams, rng) -> tuple[bool, str]:
    """Random slot problems: nonincreasing trace, feasibility, and
    first-order stationarity (interior or boundary-outward)."""
    # keep the reachable window inside the rate disc for any altitude
    span = optimize.qos_radius(p) - p.v_a_max * p.dt - 1.0
    for _ in range(10):
        eta = float(rng.uniform(-span, span))
        x_hat = eta + float(rng.uniform(-1.0, 1.0))
        d1, d2 = float(rng.uniform(0.3, 2.0)), float(rng.uniform(0.1, 1.0))
        inst = optimize.P1Instance(eta, x_hat, Sym2.diag(d1, d2), p)
        lo, hi = inst.feasible_interval()
        res = optimize.solve_p1_sca(inst, min(max(eta, lo), hi))
        fs = [f for _, f in res.trace]
        if any(b > a for a, b in zip(fs, fs[1:])):
            return False, f"increasing trace at eta={eta:.3g}"
        if not (lo - 1e-9 <= res.x_breve_opt <= hi + 1e-9):
            return False, f"infeasible result at eta={eta:.3g}"
        f, f1, _ = optimize.objective_f(res.x_breve_opt, inst)
        tol = 1e-3 * (1.0 + abs(f))
        at_lo = res.x_breve_opt <= lo + 1e-9
        at_hi = res.x_breve_opt >= hi - 1e-9
        interior_ok = abs(f1) < tol
        boundary_ok = (at_lo and f1 >= -tol) or (at_hi and f1 <= tol)
        if not (interior_ok or boundary_ok):
            return False, f"not stationary at eta={eta:.3g}: f'={f1:.3g}"
    return True, "feasible, monotone, stationary on 10 random instances"


def _check_trajectory(p: SystemParams, rng) -> tuple[bool, str]:
    """Waypoint algebra: velocity bound respected and the relative
    prediction recomputed from absolute positions matches the target."""
    reach = p.v_a_max * p.dt
    worst = 0.0
    for _ in range(50):
        eta = float(rng.uniform(-100.0, 100.0))
        x_breve = eta + float(rng.uniform(-reach, reach))
        x_prev = float(rng.uniform(-200.0, 200.0))
        v_prev = float(rng.uniform(-p.v_a_max, p.v_a_max))
        x_a, v_a = optimize.design_trajectory(x_breve, eta, (x_prev, v_prev), p)
        if abs(v_a) > p.v_a_max + 1e-9:
            return False, f"speed {v_a:.6g} exceeds limit"
        recomputed = (x_prev + eta) - x_a
        worst = max(worst, abs(recomputed - x_breve))
    return worst < 1e-9, f"max reconstruction gap {worst:.3g} m"


def _check_ground_truth_noise(p: SystemParams, rng) -> tuple[bool, str]:
    """Sampled process-noise increments reproduce Q_s within 5%, and the
    noiseless model advances exactly."""
    w0 = simulate.WorldState(0.0, 0.0, 0.0, 0.0, 0)
    n = 20000
    inc = np.empty((n, 2))
    for i in range(n):
        w = simulate.step_ground_truth(w0, p, rng)
        inc[i] = (w.obj_pos, w.obj_vel)
    emp = np.cov(inc.T, bias=True)
    q_s = linalg2.process_noise_cov(p.dt, p.q_tilde).as_array()
    scale = np.sqrt(np.outer(np.diag(q_s), np.diag(q_s)))
    worst = float(np.max(np.abs(emp - q_s) / scale))
    quiet = replace(p, q_tilde=0.0)
    w1 = simulate.step_ground_truth(simulate.WorldState(3.0, 2.0, 0.0, 0.0, 0),
                                    quiet, rng)
    exact = (w1.obj_pos == 3.0 + 2.0 * quiet.dt) and (w1.obj_vel == 2.0)
    return worst < 0.05 and exact, f"max cov dev {worst:.3g} of scale"


def _check_tracking_sanity(p: SystemParams, rng) -> tuple[bool, str]:
    """Near-noiseless run: the estimate locks onto the truth."""
    cfg = simulate.ScenarioConfig(n_slots=10, seed=1, noise_scale=1e-6)
    recs = simulate.run_scenario(cfg, p)
    worst = max(abs(r.x_hat - r.x_true) for r in recs if r.slot > 5)
    return worst < 5e-2, f"max |x_hat - x_true| after slot 5: {worst:.3g} m"


def _check_rate_qos_slots(p: SystemParams, rng) -> tuple[bool, str]:
    """Unflagged optimizing-scheme slots meet the rate target."""
    cfg = simulate.ScenarioConfig(n_slots=30, seed=2)
    recs = simulate.run_scenario(cfg, p)
    bad = [r.slot for r in recs if not r.flagged and r.rate_bpshz < p.gamma_c]
    return not bad, f"{len(bad)} violating slots"


def _check_geometry_conservation(p: SystemParams, rng) -> tuple[bool, str]:
    """Recorded relative position re-derives the noiseless object track
    bit-for-bit when combined with the platform track."""
    quiet = replace(p, q_tilde=0.0)
    cfg = simulate.ScenarioConfig(n_slots=20, seed=3, noise_scale=0.0)
    recs = simulate.run_scenario(cfg, quiet)
    pos, vel = cfg.init_obj_pos, cfg.init_obj_vel
    for r in recs:
        pos = pos + vel * quiet.dt
        if r.x_true + r.x_uav != pos or r.v_true + r.v_uav != vel:
            return False, f"mismatch at slot {r.slot}"
    return True, "object track reconstructed exactly over 20 slots"


def _check_gain_limits(p: SystemParams, rng) -> tuple[bool, str]:
    """Uninformative measurements leave the prediction untouched."""
    fstate = ekf.FilterState(RelativeState(30.0, 5.0), Sym2.diag(1.0, 0.25))
    pred = ekf.predict(fstate, p)
    phi, tau, mu = sensing.measure_mean(pred.pred, p)
    y = Measurement(phi + 0.1, tau, mu - 5.0, DiagMat3(1e30, 1e30, 1e30))
    post = ekf.update(pred, y, p)
    shift = max(abs(post.est.x - pred.pred.x), abs(post.est.v - pred.pred.v))
    mse_gap = max(_rel_err(post.mse.m11, pred.mse_pred.m11),
                  _rel_err(post.mse.m22, pred.mse_pred.m22))
    return shift < 1e-9 and mse_gap < 1e-9, (
        f"state shift {shift:.3g}, mse rel gap {mse_gap:.3g}")


def _check_measure_domain(p: SystemParams, rng) -> tuple[bool, str]:
    """Mean measurement ranges: elevation in (0, pi), delay at least the
    vertical round trip, Doppler sign opposite to x*v."""
    floor = 2.0 * p.h_alt / p.c
    for _ in range(100):
        x = float(rng.uniform(-150.0, 150.0))
        v = float(rng.uniform(-30.0, 30.0))
        phi, tau, mu = sensing.measure_mean(RelativeState(x, v), p)
        if not 0.0 < phi < math.pi:
            return False, f"phi out of range at x={x:.3g}"
        if tau < floor * (1.0 - 1e-12):
            return False, f"tau below vertical round trip at x={x:.3g}"
        if x * v != 0.0 and math.copysign(1.0, mu) == math.copysign(1.0, x * v):
            return False, f"Doppler sign wrong at x={x:.3g}, v={v:.3g}"
    return True, "ranges hold on 100 random states"


CHECKS: tuple[tuple[str, object], ...] = (
    ("jacobian_vs_finite_difference", _check_jacobian_fd),
    ("noise_model_longhand", _check_noise_model),
    ("process_noise_psd", _check_process_noise_psd),
    ("crb_closed_form_vs_generic", _check_crb_identity),
    ("pcrb_closed_form_vs_generic", _check_pcrb_vs_generic),
    ("objective_derivatives_vs_fd", _check_objective_derivatives),
    ("sp1_stationarity", _check_sp1_stationarity),
    ("sp1_alpha0_exact", _check_sp1_alpha0),
    ("sp1_alpha_continuity", _check_sp1_alpha_continuity),
    ("g_convexity_on_bracket", _check_g_convexity),
    ("curvature_certificate", _check_certificate),
    ("qos_radius_inverse", _check_qos_inverse),
    ("sca_descent_and_stationarity", _check_sca_properties),
    ("trajectory_algebra", _check_trajectory),
    ("process_noise_sampling", _check_ground_truth_noise),
    ("tracking_sanity", _check_tracking_sanity),
    ("rate_qos_slots", _check_rate_qos_slots),
    ("geometry_conservation", _check_geometry_conservation),
    ("kalman_gain_limits", _check_gain_limits),
    ("measurement_domains", _check_measure_domain),
)


def run_all(params: SystemParams | None = None,
            rng_seed: int = 123) -> list[CheckResult]:
    """Run every check against the given (or default) parameter set.

    A shared generator seeded by rng_seed feeds the randomized checks in
    order, so the whole suite is deterministic for a given seed.  A
    check that raises is reported as failed, never fatal.
    """
    p = params if params is not None else SystemParams()
    rng = np.random.default_rng(rng_seed)
    results = []
    for name, fn in CHECKS:
        try:
            passed, detail = fn(p, rng)
        except Exception as exc:
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name, bool(passed), detail))
    return results
