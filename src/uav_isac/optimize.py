"""Per-slot trajectory optimization.

Two solvers live here.  The slot problem picks the next predicted
relative position inside the reachable window (platform velocity limit
intersected with the rate-QoS disc) to minimize the anticipated
weighted estimation bound: a plain-float pass over a fixed grid picks
the basin, and a safeguarded Newton solve of f' = 0 on the two grid
cells around the grid minimum polishes the point (window-end optima are
recognized by the sign of f' at the end).  The geometry problem drops
the prior term and minimizes the measurement-only bound g(x, 0); it has
closed-form branches at the weight endpoints and the same safeguarded
Newton solve on a certified-convex bracket in between.

All derivatives are propagated as second-order dual numbers through
the exact same rational expressions used for plain evaluation, so the
solvers see machine-accurate f', f'' rather than finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import ekf
from .dual import Dual2
from .errors import (
    BracketError,
    InfeasibleIntervalError,
    InfeasibleQosError,
    UavIsacError,
    VelocityBoundError,
)
from .linalg2 import Sym2, require_positive_definite
from .params import SystemParams
from .sensing import achievable_rate, noise_weights


def qos_radius(params: SystemParams) -> float:
    """Largest |relative position| at which the rate target is met.

    Solves achievable_rate(x) = gamma_c for x >= 0.  Raises
    InfeasibleQosError when even the overhead position (link distance
    H) cannot meet the target.
    """
    p = params
    d2_max = (p.p_a_w * p.wavelength * p.wavelength * p.n_t
              / (16.0 * math.pi * math.pi * p.sigma_c2_w * (2.0 ** p.gamma_c - 1.0)))
    radicand = d2_max - p.h_alt * p.h_alt
    if radicand < 0.0:
        raise InfeasibleQosError(
            f"rate target {p.gamma_c} b/s/Hz is unreachable: max link distance^2 "
            f"{d2_max:.6g} m^2 is below H^2 = {p.h_alt * p.h_alt:.6g} m^2")
    return math.sqrt(radicand)


@dataclass
class P1Instance:
    """One slot's trajectory subproblem.

    eta_prev is the relative position predicted for the incoming slot
    if the platform were to stop; the reachable window for the
    predicted position x_breve is eta_prev +/- v_a_max*dt intersected
    with the QoS disc |x_breve| <= x_c.  x_hat_prev couples candidate
    positions to predicted velocities via
    v_breve = (x_breve - x_hat_prev)/dt, and mse_pred supplies the
    prior information for the anticipated bound.
    """

    eta_prev: float
    x_hat_prev: float
    mse_pred: Sym2
    params: SystemParams
    x_c: float = field(init=False, repr=False)
    lo: float = field(init=False)
    hi: float = field(init=False)
    _prior_info: Sym2 = field(init=False, repr=False)

    def __post_init__(self):
        require_positive_definite(self.mse_pred, "mse_pred")
        self._prior_info = self.mse_pred.inverse()
        self.x_c = qos_radius(self.params)
        reach = self.params.v_a_max * self.params.dt
        self.lo = max(-self.x_c, self.eta_prev - reach)
        self.hi = min(self.x_c, self.eta_prev + reach)
        if not self.hi - self.lo > 0.0:
            raise InfeasibleIntervalError(
                f"reachable window [{self.lo:.6g}, {self.hi:.6g}] m has no length; "
                "the velocity envelope does not intersect the QoS disc")

    def feasible_interval(self) -> tuple[float, float]:
        return self.lo, self.hi


@dataclass(frozen=True)
class ScaResult:
    """Slot-problem solution.  trace holds two (x, f) pairs: the best
    point of the plain-float grid, then the returned point; iterations
    counts the Newton steps taken (0 for a window-end optimum).
    objective is the plain-float f at x_breve_opt, and v_breve_opt is
    exactly (x_breve_opt - x_hat_prev)/dt."""

    x_breve_opt: float
    v_breve_opt: float
    objective: float
    iterations: int
    trace: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class Sp1Result:
    """Geometry-problem solution.  v_star is always 0; phi_star is the
    elevation angle atan2(H, x_star) in radians; [x_l, x_u] is the
    bracket handed to the interior solver."""

    x_star: float
    v_star: float
    phi_star: float
    g_star: float
    x_l: float
    x_u: float
    branch: str


# Points of the plain-float grid that picks the slot problem's basin.
P1_GRID_POINTS = 65


def _objective(x_breve, inst: P1Instance):
    """Weighted anticipated bound at x_breve, generic over floats, numpy
    arrays and dual numbers.  The candidate velocity is tied to the
    candidate position, v_breve = (x_breve - x_hat_prev)/dt, so f is a
    function of one variable."""
    p = inst.params
    v_breve = (x_breve - inst.x_hat_prev) * (1.0 / p.dt)
    return ekf._anticipated_bounds(x_breve, v_breve, inst._prior_info, p)[2]


def objective_f(x_breve: float, inst: P1Instance) -> tuple[float, float, float]:
    """Weighted anticipated bound f(x_breve) and its first two
    derivatives in x_breve, by dual-number propagation through the same
    rational path as the float evaluation."""
    f = _objective(Dual2.variable(x_breve), inst)
    return f.val, f.d1, f.d2


def solve_p1_sca(inst: P1Instance, x0: float) -> ScaResult:
    """Minimize the slot objective over the feasible window.

    The window may straddle x = 0, where the objective typically has a
    local maximum separating two basins, so the basin is chosen by the
    plain-float objective on P1_GRID_POINTS evenly spaced points.  A
    grid minimum at a window end whose f' points out of the window is
    returned exactly; otherwise f' = 0 is solved by safeguarded Newton
    on the grid cells either side of the grid minimum, starting from x0
    when it lies strictly inside them, to |dx| < 1e-9*H.  The returned
    point is never worse than the best grid point.
    """
    lo, hi = inst.lo, inst.hi
    xs = np.linspace(lo, hi, P1_GRID_POINTS)
    fs = _objective(xs, inst)
    k = int(np.argmin(fs))
    last = P1_GRID_POINTS - 1
    x_grid, f_grid = float(xs[k]), float(fs[k])

    def slope(x):
        return objective_f(x, inst)[1:]

    if (k == 0 and slope(lo)[0] >= 0.0) or (k == last and slope(hi)[0] <= 0.0):
        x, f, iterations = x_grid, f_grid, 0
    else:
        x, iterations = _newton_bracketed(
            slope, float(xs[max(k - 1, 0)]), float(xs[min(k + 1, last)]),
            tol=1e-9 * inst.params.h_alt, x0=x0)
        f = _objective(x, inst)
        if f > f_grid:
            x, f = x_grid, f_grid
    return ScaResult(x, (x - inst.x_hat_prev) / inst.params.dt, f, iterations,
                     ((x_grid, f_grid), (x, f)))


def xi_of_h(params: SystemParams) -> float:
    """Curvature discriminant xi = 4 a1^2 H^2 - 5 c^2 a2^2.

    Its sign decides whether the position-bound curvature certificate
    admits a positive lower bracket end (xi > 0) or the bracket
    collapses to zero (xi <= 0, position bound monotone for x > 0).
    """
    p = params
    return 4.0 * p.a1 * p.a1 * p.h_alt * p.h_alt - 5.0 * p.c * p.c * p.a2 * p.a2


def _chi_bar(params: SystemParams) -> float:
    # Viete amplitude of xi*chi^3 - 12 a1^2 H^2 chi - 8 a1^2 H^2 = 0;
    # equals 2*sqrt(1 + 5 c^2 a2^2 / xi) = 4 a1 H / sqrt(xi).  xi > 0 required.
    p = params
    return 4.0 * p.a1 * p.h_alt / math.sqrt(xi_of_h(params))


def convexity_lower_bound(params: SystemParams) -> float:
    """Left end x_l of the interval on which the position bound is
    certified convex: 0 when xi <= 0, else H/sqrt(chi_bar)."""
    if xi_of_h(params) <= 0.0:
        return 0.0
    return params.h_alt / math.sqrt(_chi_bar(params))


def upper_anchor(params: SystemParams) -> float:
    """Right end x_u = H/sqrt(2), the exact minimizer of the
    zero-velocity velocity-bound term."""
    return params.h_alt / math.sqrt(2.0)


def g0_derivatives(x: float, params: SystemParams) -> tuple[float, float, float]:
    """(g, g', g'') of the zero-velocity measurement-only objective
    g(x, 0) at x > 0, via dual-number propagation through the Fisher
    terms of the bound core.  At v = 0 the Doppler block is diagonal,
    so crb_x = 1/i_pos and crb_v = 1/fi_vv."""
    xd = Dual2.variable(x)
    i_pos, _, _, vv = ekf._fisher_terms(xd, 0.0, *noise_weights(xd, params), params)
    total = ekf._weighted(1.0 / i_pos, 1.0 / vv, params.alpha)
    return total.val, total.d1, total.d2


def _newton_bracketed(deriv_fn, lo: float, hi: float, tol: float,
                      x0: float | None = None, max_iter: int = 200) -> tuple[float, int]:
    """Root of F on [lo, hi] where deriv_fn(x) -> (F(x), F'(x)), and the
    number of Newton/bisection steps taken.

    Newton steps are kept inside a shrinking sign-change bracket, with
    bisection whenever the step leaves it or the slope is unusable; the
    first iterate is x0 when it lies strictly inside [lo, hi], else the
    midpoint.  Stops when a step is shorter than tol.  Requires
    F(lo) < 0 < F(hi); raises BracketError carrying both endpoint
    values otherwise.
    """
    f_lo = deriv_fn(lo)[0]
    f_hi = deriv_fn(hi)[0]
    if not (f_lo < 0.0 < f_hi):
        raise BracketError(
            f"objective derivative does not change sign over [{lo:.6g}, {hi:.6g}] m",
            f_lo, f_hi)
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


def solve_sp1(params: SystemParams) -> Sp1Result:
    """Minimize g(x, 0) = alpha*crb_x + (1-alpha)*crb_v over x >= 0.

    Weight endpoints have closed forms: alpha=0 gives x_u = H/sqrt(2)
    exactly, alpha=1 gives x = 0 when xi <= 0 and otherwise H/sqrt(chi1)
    with chi1 the largest root of the stationarity cubic (trigonometric
    form).  Interior weights run a safeguarded Newton solve of
    g'(x, 0) = 0 on [x_l, x_u] with |dx| < 1e-9*H tolerance; the lower
    end is floored at 1e-9*H because g' diverges at x = 0 when the
    velocity term carries weight.
    """
    p = params
    h = p.h_alt
    xi = xi_of_h(p)
    x_l = convexity_lower_bound(p)
    x_u = upper_anchor(p)
    if p.alpha == 0.0:
        branch = "alpha0"
        x_star = x_u
    elif p.alpha == 1.0:
        if xi <= 0.0:
            branch = "alpha1_xi_nonpos"
            x_star = 0.0
        else:
            branch = "alpha1_xi_pos"
            chi1 = _chi_bar(p) * math.cos(
                math.atan(math.sqrt(5.0) * p.c * p.a2 / math.sqrt(xi)) / 3.0)
            x_star = h / math.sqrt(chi1)
    else:
        branch = "interior_newton"
        lo = max(x_l, 1e-9 * h)
        x_star, _ = _newton_bracketed(
            lambda x: g0_derivatives(x, p)[1:], lo, x_u, tol=1e-9 * h)
    phi_star = math.atan2(h, x_star)
    g_star = ekf.weighted_g(x_star, 0.0, p)
    return Sp1Result(x_star, 0.0, phi_star, g_star, x_l, x_u, branch)


def crbx_second_derivative_certificate(chi: float, params: SystemParams) -> float:
    """Closed-form second derivative of the measurement-only position
    bound with respect to chi = (H/x)^2.

    Factored as B (chi+1)^3 P(chi) / (chi^4 D(chi)^3) with
    D = a2^2 c^2 chi^3 + 4 a1^2 H^2 (chi+1)^2 and P a degree-7
    polynomial whose leading coefficient is -a2^2 c^2 xi; for xi <= 0
    every coefficient of P is nonnegative, so the bound is convex in
    chi everywhere, while xi > 0 flips the sign for large chi (small x).
    """
    if not chi > 0.0:
        raise ValueError(f"chi must be positive, got {chi}")
    p = params
    h2 = p.h_alt * p.h_alt
    a1sq = p.a1 * p.a1
    a2c2 = p.a2 * p.a2 * p.c * p.c
    rho0 = a1sq * a1sq * h2 * h2
    rho5 = 24.0 * a1sq * h2 * a2c2
    rho7 = -a2c2 * xi_of_h(p)
    coeffs = (
        48.0 * rho0,
        192.0 * rho0,
        288.0 * rho0,
        192.0 * rho0 + 1.5 * rho5,
        48.0 * rho0 + (17.0 / 6.0) * rho5,
        rho5,
        3.0 * rho7,
        rho7,
    )
    poly = 0.0
    for c_j in reversed(coeffs):
        poly = poly * chi + c_j
    scale = 2.0 * a1sq * a2c2 * h2 * h2 * h2 / p.sens_gain
    denom_core = a2c2 * chi ** 3 + 4.0 * a1sq * h2 * (chi + 1.0) ** 2
    return scale * (chi + 1.0) ** 3 * poly / (chi ** 4 * denom_core ** 3)


def design_trajectory(x_breve_opt: float, eta_prev: float,
                      uav_prev: tuple[float, float],
                      params: SystemParams) -> tuple[float, float]:
    """Absolute platform waypoint realizing a chosen predicted relative
    position: x_A,n = eta + x_A,n-1 - x_breve, with the implied constant
    slot velocity v_A,n = (x_A,n - x_A,n-1)/dt.  Targets outside the
    per-slot velocity envelope (1e-9 m slack) are rejected.
    """
    if abs(x_breve_opt - eta_prev) > params.v_a_max * params.dt + 1e-9:
        raise VelocityBoundError(
            f"|x_breve - eta| = {abs(x_breve_opt - eta_prev):.6g} m exceeds the "
            f"per-slot reach v_a_max*dt = {params.v_a_max * params.dt:.6g} m")
    x_a_prev, _ = uav_prev
    x_a_n = eta_prev + x_a_prev - x_breve_opt
    v_a_n = (x_a_n - x_a_prev) / params.dt
    return x_a_n, v_a_n


def sweep_angle(params: SystemParams, alphas, h_values):
    """Solve the geometry problem across an (alpha, H) grid.

    Returns one row per cell: (alpha, h, x_star, phi_star_deg, branch).
    A cell whose solve raises a package error records NaNs and
    'error:<ExceptionName>' in the branch column and the sweep
    continues; any other exception, such as the ValueError of an alpha
    outside [0, 1], propagates.
    """
    rows = []
    for a in alphas:
        for h in h_values:
            try:
                cell = replace(params, alpha=float(a), h_alt=float(h))
                res = solve_sp1(cell)
            except UavIsacError as exc:
                rows.append((float(a), float(h), math.nan, math.nan,
                             f"error:{type(exc).__name__}"))
                continue
            rows.append((float(a), float(h), res.x_star,
                         math.degrees(res.phi_star), res.branch))
    return rows


def tradeoff_frontier(params: SystemParams, n_grid: int = 2001):
    """Rate-vs-sensing Pareto frontier over predicted positions in
    [0, x_c].

    sensing_perf = 1/g(x, 0), the inverse weighted measurement-only
    bound; it is 0 directly overhead whenever the velocity bound
    carries weight (the Doppler is blind there).  The rate decreases
    with |x|, so the frontier is the strictly-rising skyline of
    sensing_perf scanned outward from x = 0.  Returns rows
    (alpha, x, rate, sensing_perf), rate-max endpoint first.
    """
    if n_grid < 2:
        raise ValueError("n_grid must be at least 2")
    x_c = qos_radius(params)
    rows = []
    best = -math.inf
    for i in range(n_grid):
        x = x_c * i / (n_grid - 1)
        g = ekf.weighted_g(x, 0.0, params)
        perf = 0.0 if math.isinf(g) else 1.0 / g
        if i == 0 or perf > best:
            best = perf
            rows.append((params.alpha, x, achievable_rate(x, params), perf))
    return rows
