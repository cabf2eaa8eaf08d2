"""Independent reference values and reference implementations.

Everything here except the *_by_scalar_steps, *_by_public_steps and
*_by_midpoint_newton functions is derived from the model equations
directly with numpy — no imports from the package under test — so
agreement between the two is evidence, not tautology.  FROZEN holds
point values computed once at 40-digit precision and pasted in
verbatim.  The others are the other kind of reference:
scenario_by_public_steps is the tracking loop composed from the
package's public one-step functions, which define the loop's
arithmetic, and p1_by_scalar_steps, sp1_by_scalar_steps,
sweep_by_scalar_steps and frontier_by_scalar_steps are the slot solve,
the geometry solve, the angle sweep and the trade-off frontier one cell
and one grid point at a time, on plain floats, with the scalar
safeguarded Newton routine _newton_bracketed, which the batched forms
must reproduce bit for bit.  sp1_by_midpoint_newton is the geometry
solve the grid-cell polish replaced, which the sweep must stay within a
few ulp of.

Dual2, the second-order forward-mode scalar, is the derivative oracle:
pushed through the package's plain-float bound formulas it gives the
f' and f'' that the closed-form jets must reproduce, and TermSize
pushed through the same formulas gives the size of the terms each of
those derivatives sums, the scale of their rounding error.
"""

from __future__ import annotations

import math
import sys

import numpy as np

C_LIGHT = 2.9979e8

# Default system constants (linear units).
DEFAULTS = dict(
    p_w=10.0,              # 40 dBm
    n_sym=1e4,
    dt=0.2,
    lam=0.01,
    f_c=3e10,
    sigma2=1e-11,          # -80 dBm
    sigma_c2=1e-11,
    gamma_c=11.0,
    q_tilde=5.0,
    eps=100.0,
    n_t=32,
    n_r=32,
    a1=1.0,
    a2=1.2e-7,
    a3=600.0,
    h=50.0,
)

FROZEN = {
    "beta_r": 5.0393022551874202e-06,
    "sens_gain": 51602455093119.183,
    "g_r_50": 2.0157209020749681e-13,
    "g_c_50": 1.2665147955292221e-10,
    "rate_50": 11.98507604742903,
    "x_c": 86.020233496657741,
    "sigma1sq_50": 9.6894614625936938e-07,
    "sigma2sq_50": 6.9764122530674595e-21,
    "sigma3sq_50": 0.17441030632668649,
    "iota_50": -0.01,
    "kappa_50": 4.7173473510560561e-09,
    "zeta_50_10": -14.152042053168168,
    "nu_50": -141.52042053168168,
    "phi_50": 0.78539816339744831,
    "tau_50": 4.7173473510560561e-07,
    "mu_50_10": -1415.2042053168168,
    "crb_x_50_10": 3.0367392587575851e-04,
    "crb_v_50_10": 1.1745050126701546e-05,
    "crb_v_50_0": 8.7083108679439614e-06,
    "tr_qs": 1.0133333333333333,
    "atan_sqrt2_deg": 54.735610317245346,
    "xi_50": 3529.0688248,
    "chi_bar_50": 3.3666652133063741,
    "x_l_50": 27.250221613569227,
    "x_u_50": 35.355339059327376,
    "chi1_50": 3.2045753029879952,
    "h_knee": 40.221049138479717,
    "x_star_a03": 28.903585568562031,
    "x_star_a05": 28.392490839339573,
    "x_star_a07": 28.138649917908087,
    "x_star_a10": 27.930889307005473,
    "g_star_a03": 7.4033171316843926e-05,
    "g_star_a05": 1.1820864627488236e-04,
    "g_star_a07": 1.6236155961046899e-04,
    "g_star_a10": 2.2857557693456962e-04,
}


def params_dict(p):
    """Linear-unit constant dict from a package SystemParams, read via
    plain attribute access so the oracle math stays independent."""
    return dict(
        p_w=10.0 ** (p.p_a_dbm / 10.0) / 1000.0,
        n_sym=p.n_sym, dt=p.dt, lam=p.wavelength, f_c=p.f_c,
        sigma2=10.0 ** (p.sigma2_dbm / 10.0) / 1000.0,
        sigma_c2=10.0 ** (p.sigma_c2_dbm / 10.0) / 1000.0,
        gamma_c=p.gamma_c, q_tilde=p.q_tilde, eps=p.epsilon,
        n_t=p.n_t, n_r=p.n_r, a1=p.a1, a2=p.a2, a3=p.a3, h=p.h_alt,
    )


def noise_variances(x, v, d):
    """(sigma1^2, sigma2^2, sigma3^2) the long way: radar gain at the
    actual range, then each constant over the post-processing SNR."""
    d2 = np.asarray(x, dtype=float) ** 2 + d["h"] ** 2
    beta_r = d["lam"] ** 2 * d["eps"] / (64.0 * math.pi ** 3)
    g_r = beta_r / d2 ** 2
    snr = d["p_w"] * d["n_sym"] * d["n_t"] * d["n_r"] * g_r / d["sigma2"]
    sin2 = d["h"] ** 2 / d2
    return d["a1"] ** 2 / (snr * sin2), d["a2"] ** 2 / snr, d["a3"] ** 2 / snr


def jacobian_entries(x, v, d):
    """Partial derivatives of (phi, tau, mu) w.r.t. (x, v)."""
    x = np.asarray(x, dtype=float)
    d2 = x ** 2 + d["h"] ** 2
    dist = np.sqrt(d2)
    iota = -d["h"] / d2
    kappa = 2.0 * x / (C_LIGHT * dist)
    zeta = -2.0 * d["f_c"] * v * d["h"] ** 2 / (C_LIGHT * dist ** 3)
    nu = -2.0 * d["f_c"] * x / (C_LIGHT * dist)
    return iota, kappa, zeta, nu


def fisher_2x2(x, v, d):
    """Measurement Fisher information J^T R^-1 J (three 2x2 entries)."""
    s1, s2, s3 = noise_variances(x, v, d)
    iota, kappa, zeta, nu = jacobian_entries(x, v, d)
    f11 = iota ** 2 / s1 + kappa ** 2 / s2 + zeta ** 2 / s3
    f12 = zeta * nu / s3
    f22 = nu ** 2 / s3
    return f11, f12, f22


def crb_xy(x, v, d):
    """Diagonal of the inverse measurement Fisher matrix."""
    f11, f12, f22 = fisher_2x2(x, v, d)
    det = f11 * f22 - f12 ** 2
    return f22 / det, f11 / det


def weighted_crb(x, v, alpha, d):
    cx, cv = crb_xy(x, v, d)
    return alpha * cx + (1.0 - alpha) * cv


def sym_matrix(m):
    """The symmetric 2x2 array [[m11, m12], [m12, m22]] of the package's
    entry triple m = (m11, m12, m22)."""
    m11, m12, m22 = m
    return np.array([[m11, m12], [m12, m22]])


def sym_entries(a):
    """The entry triple (a11, a12, a22) of a symmetric 2x2 array, as
    floats; the upper triangle is read."""
    return float(a[0][0]), float(a[0][1]), float(a[1][1])


def pcrb_pair(x, v, mse_pred, d):
    """Posterior bound: invert prior-inverse plus measurement Fisher."""
    f11, f12, f22 = fisher_2x2(x, v, d)
    m = np.asarray(mse_pred, dtype=float)
    total = np.linalg.inv(m) + np.array([[f11, f12], [f12, f22]])
    inv = np.linalg.inv(total)
    return inv[0, 0], inv[1, 1]


def g0(x, alpha, d):
    """Measurement-only weighted bound at zero relative speed,
    vectorized over x.  alpha=0 keeps only the speed bound."""
    x = np.asarray(x, dtype=float)
    cx, cv = crb_xy(x, 0.0, d)
    return alpha * cx + (1.0 - alpha) * cv


def p1_objective(x_breve, eta_prev, x_hat_prev, mse_pred, alpha, d):
    """Weighted posterior bound as a function of the planned offset,
    with the implied relative speed, vectorized over x_breve."""
    x = np.asarray(x_breve, dtype=float)
    v = (x - x_hat_prev) / d["dt"]
    f11, f12, f22 = fisher_2x2(x, v, d)
    m = np.asarray(mse_pred, dtype=float)
    minv = np.linalg.inv(m)
    t11 = minv[0, 0] + f11
    t12 = minv[0, 1] + f12
    t22 = minv[1, 1] + f22
    det = t11 * t22 - t12 ** 2
    return (alpha * t22 + (1.0 - alpha) * t11) / det


def rate(x, d):
    d2 = np.asarray(x, dtype=float) ** 2 + d["h"] ** 2
    g_c = d["lam"] ** 2 / (16.0 * math.pi ** 2 * d2)
    return np.log2(1.0 + d["p_w"] * d["n_t"] * g_c / d["sigma_c2"])


def golden_min(fn, lo, hi, iters=200):
    """Golden-section minimum of a unimodal scalar function."""
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c1 = b - inv * (b - a)
    c2 = a + inv * (b - a)
    f1, f2 = fn(c1), fn(c2)
    for _ in range(iters):
        if f1 <= f2:
            b, c2, f2 = c2, c1, f1
            c1 = b - inv * (b - a)
            f1 = fn(c1)
        else:
            a, c1, f1 = c1, c2, f2
            c2 = a + inv * (b - a)
            f2 = fn(c2)
    return 0.5 * (a + b)


def grid_refine_min(fn, lo, hi, n_grid):
    """Argmin over a dense grid, then golden-section refinement within
    the two neighboring cells."""
    xs = np.linspace(lo, hi, n_grid)
    vals = fn(xs)
    i = int(np.argmin(vals))
    a = xs[max(i - 1, 0)]
    b = xs[min(i + 1, n_grid - 1)]
    if a == b:
        return float(xs[i])
    return golden_min(lambda t: float(fn(t)), a, b)


def central_fd1(fn, x, h):
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


def central_fd2(fn, x, h):
    return (fn(x + h) - 2.0 * fn(x) + fn(x - h)) / (h * h)


class Dual2:
    """A value with its first and second derivatives with respect to one
    seed variable.  Pushing it through ordinary arithmetic yields exact
    derivatives of any rational expression.  Only the operations the
    bound expressions use are implemented: +, - and * (mixed float/Dual2
    in both orders for + and *), reciprocal, and float / Dual2.  The
    three parts may be numpy arrays, one derivative per entry, as long
    as no numpy array stands on the left of an operator."""

    __slots__ = ("val", "d1", "d2")

    def __init__(self, val, d1=0.0, d2=0.0):
        self.val = val
        self.d1 = d1
        self.d2 = d2

    @classmethod
    def variable(cls, x):
        """Seed the differentiation variable: value x, dx/dx = 1."""
        return cls(x, 1.0, 0.0)

    def __repr__(self):
        return f"{type(self).__name__}({self.val!r}, d1={self.d1!r}, d2={self.d2!r})"

    def __add__(self, other):
        if isinstance(other, Dual2):
            return Dual2(self.val + other.val, self.d1 + other.d1, self.d2 + other.d2)
        return Dual2(self.val + other, self.d1, self.d2)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual2):
            return Dual2(self.val - other.val, self.d1 - other.d1, self.d2 - other.d2)
        return Dual2(self.val - other, self.d1, self.d2)

    def __mul__(self, other):
        if isinstance(other, Dual2):
            return Dual2(
                self.val * other.val,
                self.val * other.d1 + self.d1 * other.val,
                self.val * other.d2 + 2.0 * self.d1 * other.d1 + self.d2 * other.val,
            )
        return Dual2(self.val * other, self.d1 * other, self.d2 * other)

    __rmul__ = __mul__

    def reciprocal(self):
        w = 1.0 / self.val
        w2 = w * w
        return Dual2(w, -self.d1 * w2, (2.0 * self.d1 * self.d1 * w - self.d2) * w2)

    def __rtruediv__(self, other):
        # 1.0 / d, the only division the bound expressions make, needs no product
        r = self.reciprocal()
        return r if isinstance(other, float) and other == 1.0 else r * other


# the smallest positive normal float, 2^-1022
NORMAL_MIN = sys.float_info.min


class TermSize:
    """Dual2's arithmetic with every derivative part summing the absolute
    values of its terms: val is the value, d1 and d2 the sizes of the
    terms that Dual2's d1 and d2 add up, the scale of their rounding
    error.  Scalars only, float or TermSize.

    The error model is that of gradual underflow: a rounding errs by at
    most u*max(|r|, NORMAL_MIN) for an exact result r, the relative error
    u = 2^-53 in the normal range and the absolute error
    u*NORMAL_MIN = 2^-1075 below it (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., eq. (2.8)).  So every derivative part
    formed counts at least NORMAL_MIN in size, and the factors it is
    multiplied by afterwards scale that floor as they scale its terms."""

    __slots__ = ("val", "d1", "d2")

    def __init__(self, val, d1=0.0, d2=0.0):
        self.val = val
        self.d1 = max(d1, NORMAL_MIN)
        self.d2 = max(d2, NORMAL_MIN)

    @classmethod
    def variable(cls, x):
        return cls(x, 1.0, 0.0)

    def __add__(self, other):
        if isinstance(other, TermSize):
            return TermSize(self.val + other.val, self.d1 + other.d1, self.d2 + other.d2)
        return TermSize(self.val + other, self.d1, self.d2)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, TermSize):
            return TermSize(self.val - other.val, self.d1 + other.d1, self.d2 + other.d2)
        return TermSize(self.val - other, self.d1, self.d2)

    def __mul__(self, other):
        if isinstance(other, TermSize):
            a, b = abs(self.val), abs(other.val)
            return TermSize(self.val * other.val, a * other.d1 + self.d1 * b,
                            a * other.d2 + 2.0 * self.d1 * other.d1 + self.d2 * b)
        return TermSize(self.val * other, self.d1 * abs(other), self.d2 * abs(other))

    __rmul__ = __mul__

    def __rtruediv__(self, other):
        w = 1.0 / self.val
        w2 = w * w
        return TermSize(w, self.d1 * w2, (2.0 * self.d1 * self.d1 * abs(w) + self.d2) * w2) * other


@np.errstate(over="ignore", invalid="ignore")
def scenario_by_public_steps(cfg, p):
    """The slot loop of simulate.run_scenario written with the package's
    public names only, on plain floats, every 2x2 matrix an entry triple,
    drawing from one generator as it goes.  Each slot is planned from the
    posterior before its measurement, as in the loop: predict, then the
    target at eta = x_hat + v_hat*dt + v_A*dt (right-above: the predicted
    object, saturating at the reach; proposed: solve_p1_sca on the slot's
    P1Instance, and where its window has no length the touching point of
    a degenerate window or else the right-above target), then
    design_trajectory.  Then, per slot: step_ground_truth (two draws)
    with process_noise_factor, the weights and measured_variances,
    prior_information, sample_measurement (three draws) and update, then
    predicted_pcrb at the plan and at the true state, crb_measurement at
    the plan and the rate there.  A proposed slot is flagged where its
    target lies outside the rate disc.  Overflow and NaN pass silently,
    as in the loop.  Returns the SlotRecord list."""
    import uav_isac as u
    from uav_isac import sensing

    def chase(eta):
        return 0.0 if abs(eta) <= p.reach else eta - math.copysign(p.reach, eta)

    def target(eta, x_hat, mse_pred):
        if cfg.scheme == "right_above":
            return chase(eta)
        try:
            return u.solve_p1_sca(u.P1Instance(eta, x_hat, mse_pred, p)).x_breve_opt
        except u.InfeasibleIntervalError:
            x_c = u.qos_radius(p)
            lo, hi = max(-x_c, eta - p.reach), min(x_c, eta + p.reach)
            return lo if hi == lo else chase(eta)

    factor = u.process_noise_factor(p)
    rng = np.random.default_rng(cfg.seed)
    obj_pos, obj_vel = cfg.init_obj_pos, cfg.init_obj_vel
    uav_pos, uav_vel = cfg.init_uav_pos, cfg.init_uav_vel
    z0, z1 = rng.standard_normal(2).tolist()
    x_hat = (obj_pos - uav_pos) + cfg.init_est_std[0] * z0
    v_hat = (obj_vel - uav_vel) + cfg.init_est_std[1] * z1
    mse = (cfg.init_mse[0], 0.0, cfg.init_mse[1])
    records = []
    for n in range(1, cfg.n_slots + 1):
        mse_pred = u.predict(mse, p)
        eta = x_hat + v_hat * p.dt + uav_vel * p.dt
        x_breve = target(eta, x_hat, mse_pred)
        x_a, v_a = u.design_trajectory(x_breve, eta, (uav_pos, uav_vel), p)
        v_breve = (x_breve - x_hat) / p.dt
        obj_pos, obj_vel = u.step_ground_truth(obj_pos, obj_vel,
                                               *rng.standard_normal(2).tolist(), p.dt, factor)
        uav_pos, uav_vel = x_a, v_a
        x, v = obj_pos - uav_pos, obj_vel - uav_vel
        w = sensing.noise_weights(x, p)
        s = u.measured_variances(w)
        prior = u.prior_information(mse_pred)
        y = u.sample_measurement(x, v, s, rng.standard_normal(3).tolist(), cfg.noise_scale, p)
        x_hat, v_hat, mse = u.update(x_breve, v_breve, prior, w, y, p)
        pcrb_x_pred, pcrb_v_pred, _ = u.predicted_pcrb(x_breve, v_breve, prior, p)
        pcrb_x_act, pcrb_v_act, weighted_act = u.predicted_pcrb(x, v, prior, p)
        crb_x, crb_v = u.crb_measurement(x_breve, v_breve, p)
        records.append(u.SlotRecord(
            slot=n, t_s=n * p.dt, x_true=x, v_true=v, x_hat=x_hat, v_hat=v_hat,
            x_breve=x_breve, v_breve=v_breve, x_uav=uav_pos, v_uav=uav_vel,
            pcrb_x_pred=pcrb_x_pred, pcrb_v_pred=pcrb_v_pred,
            pcrb_x_actual=pcrb_x_act, pcrb_v_actual=pcrb_v_act,
            weighted_actual=weighted_act, rate_bpshz=u.achievable_rate(x_breve, p),
            tr_mp=mse_pred[0] + mse_pred[2], tr_mm=crb_x + crb_v,
            flagged=cfg.scheme == "proposed" and abs(x_breve) > u.qos_radius(p)))
    return records


def _require_sign_change(lo, hi, f_lo, f_hi):
    from uav_isac import optimize

    if not (f_lo < 0.0 < f_hi):
        raise optimize._bracket_error(lo, hi, f_lo, f_hi)


def _newton_bracketed(deriv_fn, lo, hi, tol, x0=None, max_iter=200):
    """optimize._newton_bracketed_each's step rule on one float root of
    F on [lo, hi], deriv_fn(x) -> (F(x), F'(x)), from x0 when it lies
    strictly inside, else the midpoint.  Returns (root, steps taken);
    raises the BracketError of F(lo) < 0 < F(hi) first."""
    _require_sign_change(lo, hi, deriv_fn(lo)[0], deriv_fn(hi)[0])
    x = x0 if x0 is not None and lo < x0 < hi else 0.5 * (lo + hi)
    for step in range(1, max_iter + 1):
        f, df = deriv_fn(x)
        if f == 0.0:
            return x, step
        if f < 0.0:
            lo = x
        else:
            hi = x
        cand = x - f / df if df > 0.0 else math.nan
        # a converged step may round onto the end of the shrunken bracket
        if abs(cand - x) < tol and lo <= cand <= hi:
            return cand, step
        if not lo < cand < hi:
            cand = 0.5 * (lo + hi)
        if abs(cand - x) < tol:
            return cand, step
        x = cand
    return x, max_iter


def _cell_newton(slope, x3, d1, d2, tol):
    """_newton_bracketed on the grid cell of the points x3 that the sign
    of f' = d1 at the middle one picks, from optimize._newton_start."""
    from uav_isac import optimize

    i = 1 if d1[1] < 0.0 else 0
    # numpy points, as _newton_start needs: a repeated point divides by zero
    _, _, start = optimize._newton_start(tuple(np.array(x3)), d1, d2, i == 1)
    return _newton_bracketed(slope, float(x3[i]), float(x3[i + 1]), tol=tol, x0=float(start))


def _toward_lower_f(jet, x3, d1, d2):
    """optimize._toward_lower_f on one window, one point at a time: where
    f' keeps its sign over the grid cell that its sign at the grid
    minimum picks, the first point of np.linspace from the grid minimum
    to the cell's far end at which f' has the other sign, t, and the
    point before it, s, as the points (t, s, t); else x3, d1, d2."""
    from uav_isac import optimize

    right = d1[1] < 0.0
    i = 1 if right else 0
    if d1[i] < 0.0 < d1[i + 1]:
        return x3, d1, d2
    ts = np.linspace(x3[1], x3[2] if right else x3[0], optimize.P1_GRID_POINTS).tolist()
    s = x3[1], d1[1], d2[1]
    for t in ts[1:]:
        _, g, h = jet(t)
        if (g > 0.0) if right else (g < 0.0):
            return (t, s[0], t), (g, s[1], g), (h, s[2], h)
        s = t, g, h
    return x3, d1, d2


def p1_by_scalar_steps(inst):
    """optimize.solve_p1_sca's steps on plain floats, one point at a
    time: the objective on np.linspace over the window, optimize.objective_f
    at the grid minimum and its neighbours, _toward_lower_f where f' keeps
    its sign over the grid cell, and _cell_newton, whose point is kept
    unless the grid point is better.  Returns the ScaResult; raises the
    BracketError of _cell_newton's sign check on its cell."""
    from uav_isac import optimize

    slot = inst.x_hat_prev, inst._prior_info, inst.params
    jet = lambda t: optimize.objective_f(t, *slot)
    last = optimize.P1_GRID_POINTS - 1
    xs = np.linspace(inst.lo, inst.hi, optimize.P1_GRID_POINTS)
    fs = optimize._objective(xs, *slot)
    k = int(np.argmin(fs))
    x_grid, f_grid = float(xs[k]), float(fs[k])
    x3 = xs[[max(k - 1, 0), k, min(k + 1, last)]]
    _, d1, d2 = zip(*(jet(float(x)) for x in x3))
    at_end = (k == 0 and d1[1] >= 0.0) or (k == last and d1[1] <= 0.0)
    x, f, steps = x_grid, f_grid, 0
    if not (at_end or d1[1] == 0.0):
        x3, d1, d2 = _toward_lower_f(jet, x3, d1, d2)
        x, steps = _cell_newton(lambda t: jet(t)[1:], x3, d1, d2, 1e-9 * inst.params.h_alt)
        f = optimize._objective(x, *slot)
        if f > f_grid:
            x, f = x_grid, f_grid
    return optimize.ScaResult(x, (x - inst.x_hat_prev) / inst.params.dt, f, steps,
                              ((x_grid, f_grid), (x, f)))


def _sp1_endpoints(p):
    """(x_l, x_u, chi_bar, xi) of the geometry problem, the long way."""
    h = p.h_alt
    xi = 4.0 * p.a1 * p.a1 * h * h - 5.0 * p.c * p.c * p.a2 * p.a2
    chi_bar = 4.0 * p.a1 * h / math.sqrt(xi) if xi > 0.0 else math.nan
    x_l = h / math.sqrt(chi_bar) if xi > 0.0 else 0.0
    return x_l, h / math.sqrt(2.0), chi_bar, xi


def _sp1_result(params, interior_solve):
    """optimize.solve_sp1 for one altitude on plain floats: the closed
    forms at the weight endpoints, and for an interior weight
    interior_solve(params, lo, x_u) -> (x_star, Newton steps) on the
    bracket [lo, x_u], lo = max(x_l, 1e-9 H), or x_u where g' does not
    change sign over a bracket narrower than 1e-9 H.  Returns
    (Sp1Result, steps)."""
    from uav_isac import ekf, optimize

    p = params
    h = p.h_alt
    x_l, x_u, chi_bar, xi = _sp1_endpoints(p)
    steps = 0
    if p.alpha == 0.0:
        branch, x_star = "alpha0", x_u
    elif p.alpha == 1.0:
        if xi <= 0.0:
            branch, x_star = "alpha1_xi_nonpos", 0.0
        else:
            branch = "alpha1_xi_pos"
            chi1 = chi_bar * math.cos(
                math.atan(math.sqrt(5.0) * p.c * p.a2 / math.sqrt(xi)) / 3.0)
            x_star = h / math.sqrt(chi1)
    else:
        lo = max(x_l, 1e-9 * h)
        d_lo, d_hi = (optimize.g0_derivatives(x, p)[1] for x in (lo, x_u))
        if not d_lo < 0.0 < d_hi and abs(x_u - lo) < 1e-9 * h:
            branch, x_star = "point_bracket", x_u  # narrower than a Newton step
        else:
            branch = "interior_newton"
            x_star, steps = interior_solve(p, lo, x_u)
    res = optimize.Sp1Result(x_star, 0.0, math.atan2(h, x_star),
                             ekf.weighted_g(x_star, 0.0, p), x_l, x_u, branch)
    return res, steps


def _grid_cell_newton(p, lo, hi):
    from uav_isac import ekf, optimize

    slope = lambda x: optimize.g0_derivatives(x, p)[1:]
    xs = np.linspace(lo, hi, optimize.P1_GRID_POINTS).tolist()
    gs = [ekf.weighted_g(x, 0.0, p) for x in xs]
    k = gs.index(min(gs))
    x3 = [xs[max(k - 1, 0)], xs[k], xs[min(k + 1, len(xs) - 1)]]
    d1, d2 = zip(*(slope(x) for x in x3 + [lo, hi]))
    _require_sign_change(lo, hi, d1[3], d1[4])
    i = 1 if d1[1] < 0.0 else 0
    if not d1[i] < 0.0 < d1[i + 1]:   # the cell is the whole bracket
        x3, d1, d2 = [lo, lo, hi], (d1[3], d1[3], d1[4]), (d2[3], d2[3], d2[4])
    return _cell_newton(slope, x3, d1[:3], d2[:3], 1e-9 * p.h_alt)


def _midpoint_newton(p, lo, hi):
    from uav_isac import optimize

    return _newton_bracketed(lambda x: optimize.g0_derivatives(x, p)[1:], lo, hi,
                             tol=1e-9 * p.h_alt)


def sp1_by_scalar_steps(params):
    """optimize.solve_sp1 for one altitude on plain floats, for an
    interior weight in its steps one point at a time: g from
    ekf.weighted_g on optimize.P1_GRID_POINTS evenly spaced points of
    [max(x_l, 1e-9 H), x_u]; g' and g'' from optimize.g0_derivatives at
    the grid minimum, its two neighbours (indices clamped) and both
    bracket ends; the bracket check at the ends; the grid cell that the
    sign of g' at the grid minimum picks (the whole bracket when g' does
    not change sign over it); optimize._newton_start on the three
    points and the scalar safeguarded Newton solve _newton_bracketed on
    the cell from there.  Returns
    (Sp1Result, Newton steps taken); raises the BracketError of the
    bracket check."""
    return _sp1_result(params, _grid_cell_newton)


def sp1_by_midpoint_newton(params):
    """The geometry solve that the grid-cell polish replaced: for an
    interior weight the scalar safeguarded Newton solve
    _newton_bracketed of g' = 0 from the midpoint of
    [max(x_l, 1e-9 H), x_u].  Returns (Sp1Result, Newton steps taken);
    raises the BracketError of the bracket check."""
    return _sp1_result(params, _midpoint_newton)


def sweep_by_scalar_steps(params, alphas, h_values, solve=sp1_by_scalar_steps):
    """optimize.sweep_angle one cell at a time through solve (by default
    sp1_by_scalar_steps), each cell validated as its own SystemParams."""
    from dataclasses import replace

    from uav_isac.errors import UavIsacError

    rows = []
    for a in alphas:
        for h in h_values:
            try:
                res, _ = solve(replace(params, alpha=float(a), h_alt=float(h)))
            except UavIsacError as exc:
                rows.append((float(a), float(h), math.nan, math.nan,
                             f"error:{type(exc).__name__}"))
                continue
            rows.append((float(a), float(h), res.x_star, math.degrees(res.phi_star), res.branch))
    return rows


def frontier_by_scalar_steps(params, n_grid):
    """optimize.tradeoff_frontier one grid point at a time: g from
    ekf.weighted_g, 0 sensing where g is inf, and a running maximum."""
    from uav_isac import ekf, optimize, sensing

    x_c = optimize.qos_radius(params)
    rows = []
    best = -math.inf
    for i in range(n_grid):
        x = x_c * i / (n_grid - 1)
        g = ekf.weighted_g(x, 0.0, params)
        perf = 0.0 if math.isinf(g) else 1.0 / g
        if i == 0 or perf > best:
            best = perf
            rows.append((params.alpha, x, sensing.achievable_rate(x, params), perf))
    return rows
