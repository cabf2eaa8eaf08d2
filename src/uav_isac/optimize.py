"""Per-slot trajectory optimization.

Two solvers live here, on one core.  The slot problem picks the next
predicted relative position inside the reachable window (platform
velocity limit intersected with the rate-QoS disc) to minimize the
anticipated weighted estimation bound.  The geometry problem drops the
prior term and minimizes the measurement-only bound g(x, 0): in closed
form at the weight endpoints, on the bracket [x_l, x_u] in between.
Both solve a batch at once, an entry per Monte Carlo trial or per
altitude, and every array puts points first: the (65, n) grid, the
(3, n) or (5, n) evaluation points and the (n,) Newton iterates all
take the (n,) operands as they are.  A plain-float grid pass picks the
basin, and one derivative evaluation at the grid minimum and its two
neighbours supplies the rest: the sign of f' at a window end
(window-end optima are returned exactly), the one grid cell that holds
the root of f', the sign check over that cell, and _newton_start's
start for _newton_bracketed_each's safeguarded Newton solve of f' = 0
there, the root of the quintic Hermite interpolant of f' through the
three points, close enough that the first step usually meets the
tolerance.  A slot problem's cell over which f' keeps its sign also
holds a local maximum of f; there the slot solve brackets from the grid
minimum toward lower f instead (_toward_lower_f).  solve_p1_sca and the tracking loop's proposed rule call
solve_p1_each on one entry; the geometry pass also evaluates both
bracket ends for its bracket check.

Values are the bound core's float expressions (_objective, _g0); every
f' and f'' a solver reads is their closed-form jet (objective_f,
g0_derivatives), exact to rounding rather than a finite difference.
The solves look these names up on the module at call time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import ekf
from .errors import (
    BracketError,
    InfeasibleIntervalError,
    InfeasibleQosError,
    SingularMatrixError,
    VelocityBoundError,
    raise_at_first,
)
from .params import SystemParams, _check_alpha, _is_integer
# achievable_rate is re-exported: code outside the package refers to optimize.achievable_rate
from .sensing import achievable_rate, comm_snr  # noqa: F401


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
    v_breve = (x_breve - x_hat_prev)/dt, and mse_pred, an entry triple,
    supplies the prior information for the anticipated bound.
    """

    eta_prev: float
    x_hat_prev: float
    mse_pred: tuple[float, float, float]
    params: SystemParams
    x_c: float = field(init=False, repr=False)
    lo: float = field(init=False)
    hi: float = field(init=False)
    _prior_info: tuple[float, float, float] = field(init=False, repr=False)

    def __post_init__(self):
        self._prior_info = ekf.prior_information(self.mse_pred)
        self.x_c = qos_radius(self.params)
        reach = self.params.reach
        self.lo = max(-self.x_c, self.eta_prev - reach)
        self.hi = min(self.x_c, self.eta_prev + reach)
        if not self.hi - self.lo > 0.0:
            raise InfeasibleIntervalError(
                f"reachable window [{self.lo:.6g}, {self.hi:.6g}] m has no length; "
                "the velocity envelope does not intersect the QoS disc")


@dataclass(frozen=True)
class ScaResult:
    """Slot-problem solution.  trace holds two (x, f) pairs: the best
    point of the plain-float grid, then the returned point; iterations
    counts the Newton rounds taken (0 when none runs: a window-end
    optimum, or f' exactly 0 at the grid minimum).
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
_NEIGHBOURS = np.array([[-1], [0], [1]])
# the rows (lo, lo, hi) of the geometry solve's (5, n) points: its whole bracket as a grid cell
_WHOLE_BRACKET = np.array([3, 3, 4])


def _objective(x_breve, x_hat_prev, prior_info, params: SystemParams):
    """Weighted anticipated bound at x_breve, generic over floats and
    numpy arrays.  The candidate velocity is tied to the candidate
    position, v_breve = (x_breve - x_hat_prev)/dt, so f is a function of
    one variable."""
    v_breve = (x_breve - x_hat_prev) * (1.0 / params.dt)
    return ekf.predicted_pcrb(x_breve, v_breve, prior_info, params)[2]


def objective_f(x_breve, x_hat_prev, prior_info, params: SystemParams):
    """(f, f', f'') of the weighted anticipated bound _objective at
    x_breve, in closed form; floats or arrays.  dv_breve/dx_breve = 1/dt."""
    r = 1.0 / params.dt
    jets = ekf._fisher_jets(x_breve, (x_breve - x_hat_prev) * r, params, r)
    return ekf._weighted_jet(prior_info, jets, params.alpha)


def _cell(v, right):
    """The ends of the grid cell that holds the root of f', taken from v,
    a value at the grid minimum's left neighbour, itself and its right
    neighbour: v[1] and v[2] where right is set, else v[0] and v[1]."""
    return np.where(right, v[1], v[0]), np.where(right, v[2], v[1])


def _newton_start(x3, g3, h3, right):
    """(a, b, x0): the grid cell [a, b] = _cell(x3, right), over which f'
    rises from negative to positive, and Newton's first iterate x0 on it;
    x3 holds the grid minimum's left neighbour, itself and its right
    neighbour, and g3, h3 hold f' and f'' there.

    It is the root of the quintic Hermite interpolant of f' through the
    three points, found by one Newton step on the quintic from the cubic
    root below; else, when that root is not strictly inside the cell (at
    a window-end grid minimum two of the points coincide and the quintic
    is undefined), the root of the cubic Hermite interpolant of f' on
    the cell alone, found by two Newton steps on the cubic from the
    secant root; else the midpoint.  No objective is evaluated.  x3 holds
    numpy values, so a zero denominator (all but ga - gb < 0 involve x3)
    gives a non-finite root, failing the inside test.
    """
    (a, b), (ga, gb), (ha, hb) = (_cell(v, right) for v in (x3, g3, h3))
    w = b - a
    # the cubic in t = (x - a)/w is ga + c1*t + c2*t^2 + c3*t^3
    c1 = w * ha
    c2 = 3.0 * (gb - ga) - w * (2.0 * ha + hb)
    c3 = 2.0 * (ga - gb) + w * (ha + hb)
    p0, p1, p2 = x3
    g0, g1, g2 = g3
    h0, h1, h2 = h3
    with np.errstate(all="ignore"):
        c2x2, c3x3 = 2.0 * c2, 3.0 * c3  # the cubic's derivative, over t
        t = ga / (ga - gb)
        for _ in range(2):
            t = t - (((c3 * t + c2) * t + c1) * t + ga) / ((c3x3 * t + c2x2) * t + c1)
        cubic = a + t * w
        # the quintic in Newton form over the nodes p0, p0, p1, p1, p2, p2,
        # g0 + u*(h0 + u*(q2 + v*(q3 + v*(q4 + (x - p2)*q5)))) with u = x - p0,
        # v = x - p1 and q2..q5 its confluent divided differences
        w01, w12, w02 = p1 - p0, p2 - p1, p2 - p0
        s01, s12 = (g1 - g0) / w01, (g2 - g1) / w12
        q2, d011 = (s01 - h0) / w01, (h1 - s01) / w01
        d112, d122 = (s12 - h1) / w12, (h2 - s12) / w12
        q3, d0112, d1122 = (d011 - q2) / w01, (d112 - d011) / w02, (d122 - d112) / w12
        q4, d01122 = (d0112 - q3) / w02, (d1122 - d0112) / w02
        q5 = (d01122 - q4) / w02
        u, v = cubic - p0, cubic - p1
        r4 = q4 + (cubic - p2) * q5
        r3, dr3 = q3 + v * r4, r4 + v * q5
        r2, dr2 = q2 + v * r3, r3 + v * dr3
        r1, dr1 = h0 + u * r2, r2 + u * dr2
        x = cubic - (g0 + u * r1) / (r1 + u * dr1)
    return a, b, np.where((a < x) & (x < b), x,
                          np.where((a < cubic) & (cubic < b), cubic, 0.5 * (a + b)))


def _require_bracket(i: int, x3, d1) -> None:
    """The sign check of the polish on entry i: over the grid cell that it
    solves on, _cell(x3, d1[1] < 0), f' = d1 must go from negative to positive."""
    (lo, hi), (f_lo, f_hi) = (map(float, _cell(v[:, i], d1[1, i] < 0.0)) for v in (x3, d1))
    if not f_lo < 0.0 < f_hi:
        raise _bracket_error(lo, hi, f_lo, f_hi)


def _toward_lower_f(jet, x3, d1, d2, right, rows):
    """The rows, a boolean array, where f' = d1 keeps its sign over the
    grid cell _cell(x3, right), which then also holds a local maximum of
    f, bracketed from the grid minimum x3[1] toward lower f, the cell's
    far end: jet's f' at P1_GRID_POINTS points t from the one to the
    other, and the first pair (t[j - 1], t[j]) over which it changes
    sign.  Returns x3, d1 and d2 with those rows replaced by the points
    (t[j], t[j - 1], t[j]) and f', f'' there, so that _cell(x3, right) is
    the new bracket (_newton_start's quintic is then undefined, and its
    cubic serves); a row where f' changes sign at no point is kept."""
    t = np.linspace(x3[1], np.where(right, x3[2], x3[0]), P1_GRID_POINTS)
    _, g, h = jet(t)
    crossed = np.where(right, g > 0.0, g < 0.0)
    j = crossed.argmax(axis=0)
    window = np.arange(j.size)
    rows = rows & crossed[j, window]
    return (np.where(rows, v[np.stack((j, j - 1, j)), window], v3)
            for v, v3 in ((t, x3), (g, d1), (h, d2)))


def _grid_basin_each(fn, jet, lo, hi, ends=False):
    """The basin step of the batched solves over the n windows
    [lo[i], hi[i]]: fn on the grid np.linspace(lo, hi, P1_GRID_POINTS),
    shape (65, n); per window the grid minimum's index k, point and
    value, each (n,), and x3, shape (3, n): the grid minimum and its two
    neighbours (indices clamped to the grid, so at a window end the end
    repeats); then one evaluation of fn's jet, (fn, fn', fn''), at x3,
    or at x3 followed by lo and hi, shape (5, n), when ends is set.
    Returns (k, x_grid, f_grid, those points, the jet there)."""
    xs = np.linspace(lo, hi, P1_GRID_POINTS)
    fs = fn(xs)
    k = fs.argmin(axis=0)
    window = np.arange(k.size)
    x3 = xs[np.minimum(np.maximum(k + _NEIGHBOURS, 0), P1_GRID_POINTS - 1), window]
    points = np.vstack((x3, lo, hi)) if ends else x3
    return k, x3[1], fs[k, window], points, jet(points)


def solve_p1_each(lo, hi, x_hat_prev, prior_info, params: SystemParams, solve):
    """Minimize the slot objective over the feasible windows of a batch
    of slot problems, in lockstep, in the steps the module docstring
    names.

    Entry i is the window [lo[i], hi[i]] with x_hat_prev[i] and prior
    information entry i of prior_info, a triple of arrays; the arguments
    are arrays of one shape (n,).  Only entries where the boolean array solve is set are solved,
    and they must have windows of positive length; the others return
    their grid point.  A grid minimum at a window end whose f' points
    out of the window, or one where f' is exactly 0, is returned
    exactly; otherwise f' must change sign over the grid cell that f' at
    the grid minimum picks.  Where it does not, _toward_lower_f brackets
    from the grid minimum toward lower f instead, and where that finds
    no sign change either, the BracketError of the lowest failing entry
    is raised.  Newton solves f' = 0 on the bracket to |dx| < 1e-9*H on
    the whole batch, each entry taking its own result by np.where masks
    and never a point worse than its grid point.

    Returns the optima, the Newton rounds taken (a Python int, 0 when no
    entry is polished), and each entry's grid point and its objective.
    """
    def jet(x):
        return objective_f(x, x_hat_prev, prior_info, params)
    k, x_grid, f_grid, x3, (_, d1, d2) = _grid_basin_each(
        lambda x: _objective(x, x_hat_prev, prior_info, params), jet, lo, hi)
    right = d1[1] < 0.0
    # the index of the window end that f' at the grid minimum points out of; -1 at f' 0 or NaN
    end = np.where(right, P1_GRID_POINTS - 1, np.where(d1[1] > 0.0, 0, -1))
    interior = solve & (k != end) & (d1[1] != 0.0)
    f_a, f_b = _cell(d1, right)
    unsigned = interior & ~((f_a < 0.0) & (0.0 < f_b))
    if np.count_nonzero(unsigned):
        x3, d1, d2 = _toward_lower_f(jet, x3, d1, d2, right, unsigned)
        f_a, f_b = _cell(d1, right)
        raise_at_first(interior & ~((f_a < 0.0) & (0.0 < f_b)), _require_bracket, x3, d1)
    if not np.count_nonzero(interior):
        return x_grid, 0, x_grid, f_grid
    a, b, x0 = _newton_start(x3, d1, d2, right)
    x, rounds = _newton_bracketed_each(lambda x: jet(x)[1:], a, b, 1e-9 * params.h_alt, x0,
                                       interior)
    f = _objective(x, x_hat_prev, prior_info, params)
    return np.where(interior & ~(f > f_grid), x, x_grid), rounds, x_grid, f_grid


def solve_p1_sca(inst: P1Instance) -> ScaResult:
    """Minimize the slot objective over the feasible window: solve_p1_each
    on one row."""
    lo, hi, x_hat_prev, *prior_row = np.array([[inst.lo], [inst.hi], [inst.x_hat_prev],
                                               *([m] for m in inst._prior_info)])
    x, rounds, x_grid, f_grid = solve_p1_each(lo, hi, x_hat_prev, prior_row, inst.params,
                                              np.ones(1, bool))
    x, x_grid, f_grid = (float(v[0]) for v in (x, x_grid, f_grid))
    f = _objective(x, inst.x_hat_prev, inst._prior_info, inst.params)
    return ScaResult(x, (x - inst.x_hat_prev) / inst.params.dt, f, rounds,
                     ((x_grid, f_grid), (x, f)))


def xi_of_h(params: SystemParams, h_alt=None):
    """Curvature discriminant xi = 4 a1^2 H^2 - 5 c^2 a2^2.

    Its sign decides whether the geometry bracket has a positive lower
    end (xi > 0) or the bracket reaches down to zero (xi <= 0, position
    bound monotone for x > 0).
    H is h_alt (a float or an array) when given, else params.h_alt.
    """
    p = params
    h = p.h_alt if h_alt is None else h_alt
    return 4.0 * p.a1 * p.a1 * h * h - 5.0 * p.c * p.c * p.a2 * p.a2


def _chi_bar(params: SystemParams, h, xi):
    # Viete amplitude of xi*chi^3 - 12 a1^2 H^2 chi - 8 a1^2 H^2 = 0;
    # equals 2*sqrt(1 + 5 c^2 a2^2 / xi) = 4 a1 H / sqrt(xi).  xi > 0 required.
    return 4.0 * params.a1 * h / np.sqrt(xi)


def convexity_lower_bound(params: SystemParams, h_alt=None, xi=None):
    """Left end x_l of the geometry bracket: 0 when xi <= 0, else
    H/sqrt(chi_bar), chi_bar = 4 a1 H/sqrt(xi) the Viete amplitude of the
    alpha = 1 stationarity cubic (_chi_bar); validate checks the position
    bound convex in chi = (H/x)^2 up to (H/x_l)^2.  A caller that already
    holds xi_of_h at H passes it."""
    h = params.h_alt if h_alt is None else h_alt
    xi = xi_of_h(params, h) if xi is None else xi
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(xi > 0.0, h / np.sqrt(_chi_bar(params, h, xi)), 0.0)[()]


def upper_anchor(params: SystemParams, h_alt=None):
    """Right end x_u = H/sqrt(2), the exact minimizer of the
    zero-velocity velocity-bound term."""
    return (params.h_alt if h_alt is None else h_alt) / math.sqrt(2.0)


def _g0(x, params: SystemParams, h_alt=None, alpha=None):
    """g(x, 0) at altitude h_alt and weight alpha (defaults: params'),
    generic over floats and arrays.  At v = 0 the Doppler block is
    diagonal, so crb_x = 1/i_pos and crb_v = 1/fi_vv (inf overhead).  An
    edge weight forms only the reciprocal it selects, as g0_derivatives does."""
    i_pos, _, _, vv = ekf._fisher_terms(x, None, params, h_alt=h_alt)
    alpha = params.alpha if alpha is None else alpha
    if alpha in (0.0, 1.0):  # only the selected one: overhead 1/vv divides by 0
        return 1.0 / (i_pos if alpha == 1.0 else vv)
    return ekf._weighted(1.0 / i_pos, 1.0 / vv, alpha)


def g0_derivatives(x, params: SystemParams, h_alt=None, alpha=None):
    """(g, g', g'') of the zero-velocity measurement-only objective
    g(x, 0) = _g0 at x > 0, altitude h_alt and weight alpha (defaults:
    params'), in closed form; floats or arrays."""
    return ekf._weighted_jet(None, ekf._fisher_jets(x, None, params, h_alt=h_alt),
                             params.alpha if alpha is None else alpha)


def _bracket_error(lo: float, hi: float, f_lo: float, f_hi: float, h=None) -> BracketError:
    return BracketError(  # lo is not finite where x_l overflows, as H*H does past 6.7e153
        f"objective derivative does not change sign over [{lo:.6g}, {hi:.6g}] m" if lo < math.inf
        else f"objective derivative cannot be bracketed: H = {h:.6g} m is beyond float range",
        f_lo, f_hi)


def _newton_bracketed_each(deriv_fn, lo, hi, tol: float, x0, active):
    """Safeguarded Newton roots of F on the brackets [lo, hi] of a batch,
    in lockstep, where the boolean array active is set, and the rounds
    taken (a Python int, at most 200, one deriv_fn call each; deriv_fn
    maps iterates to (F, F') arrays).  Each entry starts from x0,
    strictly inside [lo, hi] or its midpoint (as _newton_start's starts
    are); a round shrinks its sign-change bracket to the iterate and
    takes the Newton step, bisecting where the step leaves the bracket or
    F' <= 0.  An entry stops where F is exactly 0 or a step is shorter
    than tol (a converged step may round onto the shrunken bracket's
    end); all return when every moving entry converges.  The callers
    check the sign change F(lo) < 0 < F(hi) on values they have."""
    x = x0
    for rounds in range(1, 201):
        f, df = deriv_fn(x)
        below = f < 0.0
        lo = np.where(below, x, lo)
        hi = np.where(below, hi, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            cand = np.where(df > 0.0, x - f / df, np.nan)
        converged = (np.abs(cand - x) < tol) & (lo <= cand) & (cand <= hi)
        moving = active & (f != 0.0)
        if not np.count_nonzero(moving & ~converged):
            return np.where(moving, cand, x), rounds
        cand = np.where(converged | ((lo < cand) & (cand < hi)), cand, 0.5 * (lo + hi))
        done = (f == 0.0) | converged | (np.abs(cand - x) < tol)
        x = np.where(moving, cand, x)
        active = active & ~done
        if not np.count_nonzero(active):
            break
    return x, rounds


# overflow, NaN and division by zero pass; a row they spoil is refused
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _solve_sp1_each(params: SystemParams, h, alpha: float):
    """solve_sp1 for the weight alpha in [0, 1] at every altitude of the
    float array h, shape (n,) (finite, positive; params.alpha and
    params.h_alt are not read).  Returns (n,) arrays x_star, x_l, x_u,
    the branch names and, per altitude, the package error its solve
    raises or None (x_star NaN, branch 'error:<Name>'; at alpha = 1, an
    optimum that is not finite, and at alpha = 0 and 1 an objective
    g(x_star, 0) or a bracket end x_l that is not finite).  An interior
    weight takes _grid_basin_each's grid pass with both bracket ends,
    checks the signs of g' at the ends (where they do not change, a
    bracket narrower than the Newton tolerance returns x_u if g is
    finite there), and polishes every signed altitude in one Newton
    solve on the grid cell that g' at the grid minimum picks, or on the
    whole bracket, the points (lo, lo, x_u), where g' does not change
    sign over that cell."""
    n = len(h)
    xi = xi_of_h(params, h)
    x_l = convexity_lower_bound(params, h, xi)
    x_u = upper_anchor(params, h)
    error = [None] * n
    if alpha == 0.0:
        x_star, branch = x_u, ["alpha0"] * n
    elif alpha == 1.0:
        x_star = np.zeros(n)
        for i in np.flatnonzero(~(xi <= 0.0)):
            chi1 = _chi_bar(params, h[i], xi[i]) * math.cos(
                math.atan(math.sqrt(5.0) * params.c * params.a2 / math.sqrt(xi[i])) / 3.0)
            x_star[i] = h[i] / math.sqrt(chi1)
            if not math.isfinite(x_star[i]):
                error[i] = _not_finite(h[i], x_star=x_star[i])
                x_star[i] = math.nan
        branch = ["alpha1_xi_nonpos" if v <= 0.0 else "alpha1_xi_pos" for v in xi]
    if alpha in (0.0, 1.0):  # an endpoint optimum of an objective or a bracket not finite
        g = _g0(x_star, params, h, alpha)
        finite = np.isfinite(g) & np.isfinite(x_l)  # x_u = H/sqrt(2) is finite
        for i in np.flatnonzero(~finite & np.isfinite(x_star)):
            error[i] = _not_finite(h[i], x_star=x_star[i], g_star=g[i], x_l=x_l[i], x_u=x_u[i])
        x_star = np.where(finite, x_star, math.nan)
    else:
        def jet(x):
            return g0_derivatives(x, params, h, alpha)
        lo = np.maximum(x_l, 1e-9 * h)
        _, _, _, points, (g, d1, d2) = _grid_basin_each(
            lambda x: _g0(x, params, h, alpha), jet, lo, x_u, ends=True)
        g_u, g_lo, g_hi = g[4], d1[3], d1[4]
        signed = (g_lo < 0.0) & (0.0 < g_hi)
        ga, gb = _cell(d1, d1[1] < 0.0)
        inside = (ga < 0.0) & (0.0 < gb)
        # the grid cell that g' at the grid minimum picks, else the whole bracket
        x3, d1, d2 = (np.where(inside, v[:3], v[_WHOLE_BRACKET]) for v in (points, d1, d2))
        a, b, x0 = _newton_start(x3, d1, d2, d1[1] < 0.0)
        x_star, _ = _newton_bracketed_each(lambda x: jet(x)[1:], a, b, 1e-9 * h, x0, signed)
        x_star = np.where(signed, x_star, math.nan)
        branch = ["interior_newton"] * n
        for i in np.flatnonzero(~signed):  # narrower than a Newton step, x_u is the solution
            if abs(x_u[i] - lo[i]) < 1e-9 * h[i] and math.isfinite(g_u[i]):
                x_star[i], branch[i] = x_u[i], "point_bracket"
            else:
                error[i] = _bracket_error(lo[i], x_u[i], float(g_lo[i]), float(g_hi[i]), h[i])
    branch = [b if e is None else f"error:{type(e).__name__}" for b, e in zip(branch, error)]
    return x_star, x_l, x_u, branch, error


def _not_finite(h: float, **values) -> SingularMatrixError:
    """The refusal of a geometry solution at altitude h with values (floats
    or numpy scalars) not all finite."""
    named = ", ".join(f"{name} = {float(v)!r}" for name, v in values.items())
    return SingularMatrixError(f"the geometry solution at H = {h:.6g} m is not finite: {named}")


def solve_sp1(params: SystemParams) -> Sp1Result:
    """Minimize g(x, 0) = alpha*crb_x + (1-alpha)*crb_v over x >= 0.

    Weight endpoints have closed forms: alpha=0 gives x_u = H/sqrt(2)
    exactly, alpha=1 gives x = 0 when xi <= 0 and otherwise H/sqrt(chi1)
    with chi1 the largest root of the stationarity cubic (trigonometric
    form).  Interior weights solve g'(x, 0) = 0 on the bracket
    [x_l, x_u], its lower end floored at 1e-9*H because g' diverges at
    x = 0 when the velocity term carries weight: g' must go from
    negative to positive over it (BracketError if not, unless the
    bracket is narrower than 1e-9*H, as from a1 = 3e7 at the other
    defaults: x_u is then the solution, branch 'point_bracket'), g on
    P1_GRID_POINTS evenly spaced points picks the grid cell that holds
    the root by the sign of g' at the grid minimum (the whole bracket
    when g' does not change sign over that cell), and a safeguarded
    Newton solve to |dx| < 1e-9*H runs there from the root of the
    quintic Hermite interpolant of g' through the grid minimum and its
    neighbours.  The one-altitude case of sweep_angle's batched solve;
    it refuses a non-finite x_star, g_star or bracket end.
    """
    x_star, x_l, x_u, branch, error = _solve_sp1_each(
        params, np.array([params.h_alt], float), params.alpha)
    if error[0] is not None:
        raise error[0]
    with np.errstate(all="ignore"):  # the information may underflow to 0
        g = _g0(x_star, params)
    x, g, x_l, x_u = float(x_star[0]), float(g[0]), float(x_l[0]), float(x_u[0])
    if not all(map(math.isfinite, (x, g, x_l, x_u))):
        raise _not_finite(params.h_alt, x_star=x, g_star=g, x_l=x_l, x_u=x_u)
    return Sp1Result(x, 0.0, math.atan2(params.h_alt, x), g, x_l, x_u, branch[0])


def design_trajectory(x_breve_opt, eta_prev, uav_prev, params: SystemParams):
    """Absolute platform waypoint realizing a chosen predicted relative
    position: x_A,n = eta + x_A,n-1 - x_breve, with the implied constant
    slot velocity v_A,n = (x_A,n - x_A,n-1)/dt, on floats or 1-D arrays
    (rows).  Targets outside the per-slot velocity envelope are
    rejected, on rows for the lowest such row.  The slack, 1e-9 m plus
    two ulp of eta (np.spacing(|eta|) = math.ulp(eta)), covers
    eta -/+ reach rounding away from eta at any |eta|.
    """
    x_a_prev, _ = uav_prev
    ulp = np.spacing(abs(eta_prev)) if isinstance(eta_prev, np.ndarray) else math.ulp(eta_prev)
    dx = abs(x_breve_opt - eta_prev)
    if (bad := dx > params.reach + 1e-9 + 2.0 * ulp) is not False:
        raise_at_first(bad, _beyond_reach, dx, params)
    x_a_n = eta_prev + x_a_prev - x_breve_opt
    return x_a_n, (x_a_n - x_a_prev) / params.dt


def _beyond_reach(i: int, dx, params: SystemParams):
    raise VelocityBoundError(f"|x_breve - eta| = {np.ravel(dx)[i]:.6g} m exceeds the "
                             f"per-slot reach v_a_max*dt = {params.reach:.6g} m")


def sweep_angle(params: SystemParams, alphas, h_values):
    """Solve the geometry problem across an (alpha, H) grid.

    Returns one row per cell: (alpha, h, x_star, phi_star_deg, branch),
    with the heights of one alpha solved as one batch of solve_sp1, the
    weight its argument (no parameter set is built per alpha).  A cell
    whose solve raises a package error records NaNs and
    'error:<ExceptionName>' in the branch column and the sweep
    continues.  The ValueError SystemParams gives the first height that
    is not finite and positive, or an alpha outside [0, 1], propagates.
    """
    hs = [float(v) for v in h_values]
    h = np.array(hs, float)
    raise_at_first(~(np.isfinite(h) & (h > 0.0)), lambda i: replace(params, h_alt=hs[i]))
    rows = []
    for a in alphas:
        a = _check_alpha(float(a))
        x_star, _, _, branch, _ = _solve_sp1_each(params, h, a)
        rows += [(a, hi, x, math.degrees(math.atan2(hi, x)), b)
                 for hi, x, b in zip(hs, x_star.tolist(), branch)]
    return rows


def tradeoff_frontier(params: SystemParams, n_grid: int = 2001):
    """Rate-vs-sensing Pareto frontier over predicted positions in
    [0, x_c].

    sensing_perf = 1/g(x, 0), the inverse weighted measurement-only
    bound; it is 0 directly overhead whenever the velocity bound
    carries weight (the Doppler is blind there).  The rate decreases
    with |x|, so the frontier is the strictly-rising skyline of
    sensing_perf over the grid, evaluated as one array, scanned outward
    from x = 0.  Returns rows (alpha, x, rate, sensing_perf), rate-max
    endpoint first.
    """
    if not (_is_integer(n_grid) and n_grid >= 2):
        raise ValueError(f"n_grid must be an integer >= 2, got {n_grid!r}")
    xs = qos_radius(params) * np.arange(n_grid) / (n_grid - 1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # checked per kept row
        perf = 1.0 / _g0(xs, params)
        keep = np.concatenate(([True], perf[1:] > np.maximum.accumulate(perf)[:-1]))
        xs, snr, perf = xs[keep], comm_snr(xs[keep], params), perf[keep]
    bad = ~np.isfinite(snr + perf)
    if bad.any():
        i = int(np.argmax(bad))
        raise SingularMatrixError(f"the frontier row at x = {xs[i]:.6g} m is not finite: "
                                  f"SNR = {snr[i]:.6g}, sensing_perf = {perf[i]:.6g}")
    # achievable_rate with the SNR as one array; math.log2 per row keeps its digits
    return [(params.alpha, x, math.log2(1.0 + s), pf)
            for x, s, pf in zip(xs.tolist(), snr.tolist(), perf.tolist())]
