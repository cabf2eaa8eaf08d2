"""Self-contained runtime validation suite.

Each check re-derives a contract independently (finite differences,
generic dense linear algebra, Monte-Carlo sampling, closed-form
identities) and compares it against the package implementation.  The
CLI's validate subcommand prints one line per check and exits nonzero
on any failure.

The checks read the parameter set they are given and the functions
the slot loop and the solves run (sensing.measure_mean,
sensing.linearize, sensing.noise_weights, ekf.update,
optimize.solve_p1_each, optimize.objective_f, optimize.g0_derivatives,
optimize.convexity_lower_bound, ...) and build what they compare
against themselves: the dense Jacobian, the echo gain beta_r/d^4,
central differences and numpy's eigenvalues.  They resolve these
collaborators through their modules at call time, so a deliberately
injected fault is observed by the suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import ekf, optimize, params, sensing, simulate
from .params import SystemParams


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _rel_err(got: float, want: float, floor: float = 1e-300) -> float:
    return abs(got - want) / max(abs(got), abs(want), floor)


def _central(fn, x: float, h: float):
    """Central differences of fn at x with step h: (f', f'')."""
    fp, f, fm = fn(x + h), fn(x), fn(x - h)
    return (fp - fm) / (2.0 * h), (fp - 2.0 * f + fm) / (h * h)


def _dense(m) -> np.ndarray:
    """The symmetric 2x2 matrix of entry triple m as an array."""
    m11, m12, m22 = m
    return np.array([[m11, m12], [m12, m22]])


def _dense_jacobian(x: float, v: float, p: SystemParams) -> np.ndarray:
    """The Jacobian of sensing.linearize at (x, v) as the 3x2 matrix: rows
    angle, delay, Doppler; columns position, velocity."""
    iota, kappa, zeta, nu = sensing.linearize(x, v, p)[3:]
    return np.array([[iota, 0.0], [kappa, 0.0], [zeta, nu]])


def _dense_fisher(x: float, v: float, p: SystemParams) -> np.ndarray:
    """J^T R^-1 J with J the dense Jacobian and R the sampled noise
    covariance at (x, v)."""
    jac = _dense_jacobian(x, v, p)
    variances = np.array(sensing._variances(sensing.noise_weights(x, p)))
    return jac.T @ np.diag(1.0 / variances) @ jac


def _check_jacobian_fd(p: SystemParams, rng) -> tuple[bool, str]:
    """Measurement Jacobian entries vs central finite differences."""
    worst = 0.0
    for x, v in ((30.0, 5.0), (80.0, -3.0), (10.0, 0.0), (0.5, 2.0), (-25.0, 4.0)):
        analytic = _dense_jacobian(x, v, p)
        hx = 1e-4 * max(1.0, abs(x))
        hv = 1e-4 * max(1.0, abs(v))
        fd_xs = _central(lambda s: np.array(sensing.measure_mean(s, v, p)), x, hx)[0]
        fd_vs = _central(lambda s: np.array(sensing.measure_mean(x, s, p)), v, hv)[0]
        for (ax, av), fd_x, fd_v in zip(analytic, fd_xs, fd_vs):
            worst = max(worst,
                        abs(fd_x - ax) / max(abs(ax), abs(fd_x), 1e-12),
                        abs(fd_v - av) / max(abs(av), abs(fd_v), 1e-12))
    return worst < 1e-5, f"max rel err {worst:.3g}"


def _check_noise_model(p: SystemParams, rng) -> tuple[bool, str]:
    """Noise variances vs an independent longhand evaluation through
    the echo gain beta_r/d^4."""
    worst = 0.0
    for _ in range(50):
        x = float(rng.uniform(-120.0, 120.0))
        v = float(rng.uniform(-20.0, 20.0))
        d2 = x * x + p.h_alt * p.h_alt
        g_r = p.beta_r / (d2 * d2)
        denom = p.p_a_w * p.n_sym * p.n_t * p.n_r * g_r
        s1_long = p.a1 * p.a1 * p.sigma2_w * d2 / (denom * p.h_alt * p.h_alt)
        s2_long = p.a2 * p.a2 * p.sigma2_w / denom
        s3_long = p.a3 * p.a3 * p.sigma2_w / denom
        act = sensing._variances(sensing.noise_weights(x, p))
        for got, want in zip(act, (s1_long, s2_long, s3_long)):
            worst = max(worst, _rel_err(got, want))
    return worst < 1e-11, f"max rel err {worst:.3g}"


def _check_process_noise_psd(p: SystemParams, rng) -> tuple[bool, str]:
    """Q_s at p's dt and q_tilde: PSD and equal to the closed form."""
    dt, q = p.dt, p.q_tilde
    m = params.process_noise_cov(dt, q)
    if np.linalg.eigvalsh(_dense(m))[0] < -1e-15 * max(m[0] + m[2], 1e-30):
        return False, f"negative eigenvalue at dt={dt}, q={q}"
    want = (q * dt ** 3 / 3.0, q * dt * dt / 2.0, q * dt)
    if any(_rel_err(a, b) > 1e-14 and abs(a - b) > 1e-300 for a, b in zip(m, want)):
        return False, f"entries off at dt={dt}, q={q}"
    return True, "PSD, closed form matches"


def _check_crb_identity(p: SystemParams, rng) -> tuple[bool, str]:
    """Closed-form measurement-only bounds vs generic Fisher inversion."""
    worst = 0.0
    for _ in range(200):
        x = float(rng.uniform(0.5, 150.0)) * (1 if rng.uniform() < 0.5 else -1)
        v = float(rng.uniform(-20.0, 20.0))
        cov = np.linalg.inv(_dense_fisher(x, v, p))
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
        cov = np.linalg.inv(np.linalg.inv(m_arr) + _dense_fisher(x, v, p))
        pcrb_x, pcrb_v, _ = ekf.predicted_pcrb(
            x, v, ekf.prior_information(m_arr[[0, 0, 1], [0, 1, 1]].tolist()), p)
        worst = max(worst, _rel_err(pcrb_x, cov[0, 0]), _rel_err(pcrb_v, cov[1, 1]))
    return worst < 1e-9, f"max rel err {worst:.3g}"


def _derivatives_vs_fd(jet, value, lo: float, hi: float) -> tuple[bool, str]:
    """The jet's f', f'' at 21 points of [lo, hi] vs central finite
    differences of value, the solvers' float formula."""
    worst1 = worst2 = 0.0
    for i in range(21):
        x = lo + (hi - lo) * (0.05 + 0.9 * i / 20.0)
        _, f1, f2 = jet(x)
        fd1, fd2 = _central(value, x, 1e-4 * max(1.0, abs(x)))
        worst1 = max(worst1, abs(f1 - fd1) / max(abs(f1), abs(fd1), 1e-12))
        worst2 = max(worst2, abs(f2 - fd2) / max(abs(f2), abs(fd2), 1e-12))
    return (worst1 < 1e-5 and worst2 < 1e-3,
            f"f' rel {worst1:.3g}, f'' rel {worst2:.3g}")


def _check_objective_derivatives(p: SystemParams, rng) -> tuple[bool, str]:
    """Slot-objective f', f'' vs finite differences of the float objective
    on [34, 46] m, x_hat_prev = 38 m and prediction MSE diag(1, 0.25)."""
    prior = ekf.prior_information((1.0, 0.0, 0.25))
    return _derivatives_vs_fd(lambda x: optimize.objective_f(x, 38.0, prior, p),
                              lambda x: optimize._objective(x, 38.0, prior, p), 34.0, 46.0)


def _check_g0_derivatives(p: SystemParams, rng) -> tuple[bool, str]:
    """g(x, 0)'s g', g'' vs finite differences of the float g on [H/2, H]."""
    q = p if 0.0 < p.alpha < 1.0 else replace(p, alpha=0.5)  # an interior weight
    return _derivatives_vs_fd(lambda x: optimize.g0_derivatives(x, q),
                              lambda x: optimize._g0(x, q), 0.5 * p.h_alt, p.h_alt)


def _check_sp1_stationarity(p: SystemParams, rng) -> tuple[bool, str]:
    """Interior geometry solution: |g'| < 1e-6*g per meter and g'' >= 0."""
    res = optimize.solve_sp1(p)
    g, g1, g2 = optimize.g0_derivatives(res.x_star, p)
    ok = abs(g1) < 1e-6 * g and g2 >= 0.0
    return ok, f"branch {res.branch}, |g'|={abs(g1):.3g}, g''={g2:.3g}"


def _check_sp1_alpha0(p: SystemParams, rng) -> tuple[bool, str]:
    """alpha=0 minimizer is exactly H/sqrt(2) for H in 10..100."""
    heights = range(10, 101, 10)
    for h, (_, _, x_star, _, _) in zip(heights, optimize.sweep_angle(p, [0.0], heights)):
        if x_star != h / math.sqrt(2.0):
            return False, f"H={h}: got {x_star!r}"
    return True, "exact at all ten altitudes"


def _check_sp1_alpha_continuity(p: SystemParams, rng) -> tuple[bool, str]:
    """x*(alpha) moves < 0.5 m under 1e-3 weight perturbations within
    [0, 1] (one-sided at its edges)."""
    base = optimize.solve_sp1(p).x_star
    worst = 0.0
    for a in (p.alpha - 1e-3, p.alpha + 1e-3):
        if 0.0 <= a <= 1.0:
            worst = max(worst, abs(optimize.solve_sp1(replace(p, alpha=a)).x_star - base))
    return worst < 0.5, f"max shift {worst:.3g} m"


def _check_g_convexity(p: SystemParams, rng) -> tuple[bool, str]:
    """Numerical convexity of g(x,0) on the bracket [x_l, x_u], if not one point."""
    x_l = optimize.convexity_lower_bound(p)
    x_u = optimize.upper_anchor(p)
    if x_l >= x_u:
        return True, f"one-point bracket [{x_l:.6g}, {x_u:.6g}] m"
    xs = np.linspace(x_l, x_u, 1000)
    with np.errstate(divide="ignore"):  # g is inf overhead, at x_l = 0, where vv = 0
        g = optimize._g0(xs, p)
    h = xs[1] - xs[0]
    fd2 = (g[:-2] - 2.0 * g[1:-1] + g[2:]) / (h * h)
    min_margin = float(np.min(fd2 + 1e-9 * g[1:-1]))
    return min_margin >= 0.0, f"min(fd2 + 1e-9 g) = {min_margin:.3g}"


def _check_certificate(p: SystemParams, rng) -> tuple[bool, str]:
    """crb_x is convex in chi = (H/x)^2 on the bracket's chi range
    (0, (H/x_l)^2], x_l = convexity_lower_bound(p), or (0, 100] where
    x_l = 0: a positive central second difference at 100 random chi."""
    x_l = optimize.convexity_lower_bound(p)
    chi_max = (p.h_alt / x_l) ** 2 if x_l > 0.0 else 100.0
    for chi in chi_max * (1.0 - rng.uniform(size=100)):
        _, fd2 = _central(lambda c: ekf.crb_measurement(p.h_alt / math.sqrt(c), 0.0, p)[0],
                          chi, 1e-5 * chi)
        if not fd2 > 0.0:
            return False, f"chi={chi:.4g}: fd2={fd2:.3g}"
    return True, f"convex at 100 random chi in (0, {chi_max:.4g}]"


def _check_qos_inverse(p: SystemParams, rng) -> tuple[bool, str]:
    """Rate at the QoS radius reproduces the target, and the rate inside
    the radius, at half of it, exceeds the target."""
    x_c = optimize.qos_radius(p)
    err = _rel_err(sensing.achievable_rate(x_c, p), p.gamma_c)
    inside = sensing.achievable_rate(0.5 * x_c, p) > p.gamma_c
    return err < 1e-9 and inside, f"rate rel err {err:.3g}"


def _check_sca_properties(p: SystemParams, rng) -> tuple[bool, str]:
    """Random slot problems, solved as one batch: no worse than the grid
    point, feasible, and first-order stationary (interior or
    boundary-outward)."""
    x_c = optimize.qos_radius(p)
    # keep the reachable window inside the rate disc for any altitude
    span = x_c - p.reach - 1.0
    draws = rng.uniform([-span, -1.0, 0.3, 0.1], [span, 1.0, 2.0, 1.0], size=(10, 4))
    eta, x_hat = draws[:, 0], draws[:, 0] + draws[:, 1]
    prior = ekf.prior_information((draws[:, 2], 0.0, draws[:, 3]))
    lo, hi = np.maximum(-x_c, eta - p.reach), np.minimum(x_c, eta + p.reach)
    x, _, _, f_grid = optimize.solve_p1_each(lo, hi, x_hat, prior, p, hi > lo)
    f, f1, _ = optimize.objective_f(x, x_hat, prior, p)
    tol = 1e-3 * (1.0 + np.abs(f))
    stationary = ((np.abs(f1) < tol) | ((x <= lo + 1e-9) & (f1 >= -tol))
                  | ((x >= hi - 1e-9) & (f1 <= tol)))
    for bad, what in ((f > f_grid, "worse than its grid point"),
                      (~((lo - 1e-9 <= x) & (x <= hi + 1e-9)), "infeasible"),
                      (~stationary, "not stationary")):
        if np.count_nonzero(bad):
            i = np.flatnonzero(bad)[0]
            return False, f"{what} at eta={eta[i]:.3g}: f'={f1[i]:.3g}"
    return True, "feasible, monotone, stationary on 10 random instances"


def _check_trajectory(p: SystemParams, rng) -> tuple[bool, str]:
    """Waypoint algebra: velocity bound respected and the relative
    prediction recomputed from absolute positions matches the target."""
    reach = p.reach
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
    z = rng.standard_normal((20000, 2)).T  # the draws of 20000 steps, in stream order
    inc = simulate.step_ground_truth(0.0, 0.0, *z, p.dt, simulate.process_noise_factor(p))
    emp = np.cov(inc, bias=True)
    q_s = _dense(params.process_noise_cov(p.dt, p.q_tilde))
    scale = np.sqrt(np.outer(np.diag(q_s), np.diag(q_s)))
    worst = float(np.max(np.abs(emp - q_s) / scale))
    quiet = replace(p, q_tilde=0.0)
    pos, vel = simulate.step_ground_truth(3.0, 2.0, *rng.standard_normal(2).tolist(), quiet.dt,
                                          simulate.process_noise_factor(quiet))
    exact = (pos == 3.0 + 2.0 * quiet.dt) and (vel == 2.0)
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
    x, v = 30.0 + 5.0 * p.dt, 5.0
    mse_pred = ekf.predict((1.0, 0.0, 0.25), p)
    phi, tau, mu = sensing.measure_mean(x, v, p)
    x_hat, v_hat, mse = ekf.update(x, v, ekf.prior_information(mse_pred), (1e-30,) * 3,
                                   (phi + 0.1, tau, mu - 5.0), p)
    shift = max(abs(x_hat - x), abs(v_hat - v))
    mse_gap = max(_rel_err(mse[0], mse_pred[0]), _rel_err(mse[2], mse_pred[2]))
    return shift < 1e-9 and mse_gap < 1e-9, (
        f"state shift {shift:.3g}, mse rel gap {mse_gap:.3g}")


def _check_measure_domain(p: SystemParams, rng) -> tuple[bool, str]:
    """Mean measurement ranges: elevation in (0, pi), delay at least the
    vertical round trip, Doppler sign opposite to x*v."""
    floor = 2.0 * p.h_alt / p.c
    for _ in range(100):
        x = float(rng.uniform(-150.0, 150.0))
        v = float(rng.uniform(-30.0, 30.0))
        phi, tau, mu = sensing.measure_mean(x, v, p)
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
    ("g0_derivatives_vs_fd", _check_g0_derivatives),
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


def run_all(params: SystemParams | None = None) -> list[CheckResult]:
    """Run every check against the given (or default) parameter set.

    A shared generator seeded with 123 feeds the randomized checks in
    order, so the whole suite is deterministic.  A check that raises is
    reported as failed, never fatal.
    """
    p = params if params is not None else SystemParams()
    rng = np.random.default_rng(123)
    results = []
    for name, fn in CHECKS:
        try:
            passed, detail = fn(p, rng)
        except Exception as exc:
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name, bool(passed), detail))
    return results
