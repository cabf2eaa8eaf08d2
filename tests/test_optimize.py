import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from uav_isac import ekf, optimize
from uav_isac.errors import (
    BracketError,
    InfeasibleIntervalError,
    InfeasibleQosError,
    SingularMatrixError,
    UavIsacError,
    VelocityBoundError,
)
from uav_isac.params import SystemParams
from uav_isac.sensing import achievable_rate

import numpy_calls
import oracles

P = SystemParams()


def _instance(eta, x_hat_prev, m11=1.0, m22=0.25, m12=0.0, params=P):
    return optimize.P1Instance(eta, x_hat_prev, (m11, m12, m22), params)


def _slot(inst):
    """objective_f's arguments after x_breve for the slot problem inst."""
    return inst.x_hat_prev, inst._prior_info, inst.params


# ---------------------------------------------------------------- QoS radius

def test_qos_radius_frozen_and_inverse():
    xc = optimize.qos_radius(P)
    assert xc == pytest.approx(oracles.FROZEN["x_c"], rel=1e-13)
    assert achievable_rate(xc, P) == pytest.approx(P.gamma_c, rel=1e-12)


def test_qos_radius_monotone_in_threshold():
    radii = [optimize.qos_radius(replace(P, gamma_c=g)) for g in (9.0, 10.0, 11.0, 12.0)]
    assert all(a > b for a, b in zip(radii, radii[1:]))


def test_qos_radius_infeasible_threshold():
    with pytest.raises(InfeasibleQosError):
        optimize.qos_radius(replace(P, gamma_c=30.0))


# ---------------------------------------------------------------- P1Instance

def test_instance_window_clamps_to_qos_disk():
    reach = P.v_a_max * P.dt
    inst = _instance(40.0, 39.0)
    assert (inst.lo, inst.hi) == (40.0 - reach, 40.0 + reach)
    xc = optimize.qos_radius(P)
    near_edge = _instance(xc - 1.0, xc - 2.0)
    lo, hi = near_edge.lo, near_edge.hi
    assert hi == xc and lo == pytest.approx(xc - 1.0 - reach)


def test_instance_rejects_empty_window():
    xc = optimize.qos_radius(P)
    with pytest.raises(InfeasibleIntervalError):
        _instance(xc + 2.0 * P.v_a_max * P.dt, xc)


def test_instance_rejects_bad_prior():
    with pytest.raises(Exception):
        _instance(40.0, 39.0, m11=1.0, m22=1.0, m12=2.0)


# ------------------------------------------------------------- objectiveageo

def test_objective_matches_numpy_oracle():
    d = oracles.params_dict(P)
    inst = _instance(40.0, 38.5, m11=0.8, m22=0.3, m12=0.1)
    for x in np.linspace(inst.lo, inst.hi, 17):
        val, _, _ = optimize.objective_f(float(x), *_slot(inst))
        want = oracles.p1_objective(float(x), 40.0, 38.5,
                                    [[0.8, 0.1], [0.1, 0.3]], P.alpha, d)
        assert val == pytest.approx(float(want), rel=1e-11)


def test_objective_derivatives_match_finite_differences():
    inst = _instance(-35.0, -34.0, m11=1.2, m22=0.4, m12=-0.15)
    lo, hi = inst.lo, inst.hi
    fn = lambda t: optimize.objective_f(t, *_slot(inst))[0]
    for x in np.linspace(lo + 0.3, hi - 0.3, 15):
        val, d1, d2 = optimize.objective_f(float(x), *_slot(inst))
        # second differences need a larger step to stay above roundoff
        assert d1 == pytest.approx(oracles.central_fd1(fn, float(x), 1e-4), rel=2e-6, abs=1e-12)
        assert d2 == pytest.approx(oracles.central_fd2(fn, float(x), 3e-3), rel=2e-4, abs=1e-12)


# ---------------------------------------------------------------------- SCA

def test_sca_trace_is_monotone_and_feasible():
    rng = np.random.default_rng(31)
    for _ in range(20):
        eta = float(rng.uniform(-80, 80))
        inst = _instance(eta, eta + float(rng.uniform(-1.5, 1.5)),
                         m11=float(rng.uniform(0.3, 2.0)),
                         m22=float(rng.uniform(0.1, 0.5)))
        lo, hi = inst.lo, inst.hi
        res = optimize.solve_p1_sca(inst)
        assert lo <= res.x_breve_opt <= hi
        vals = [f for _, f in res.trace]
        assert all(a >= b - 1e-18 for a, b in zip(vals, vals[1:]))
        assert res.objective == pytest.approx(vals[-1])
        assert res.v_breve_opt == pytest.approx(
            (res.x_breve_opt - inst.x_hat_prev) / P.dt, rel=1e-13, abs=1e-13)


def test_sca_matches_grid_oracle_on_random_instances():
    rng = np.random.default_rng(32)
    d = oracles.params_dict(P)
    for _ in range(25):
        eta = float(rng.uniform(-78, 78))
        x_hat = eta + float(rng.uniform(-2, 2))
        m11 = float(rng.uniform(0.2, 2.0))
        m22 = float(rng.uniform(0.05, 0.5))
        rho = float(rng.uniform(-0.8, 0.8))
        m12 = rho * math.sqrt(m11 * m22)
        inst = _instance(eta, x_hat, m11=m11, m22=m22, m12=m12)
        lo, hi = inst.lo, inst.hi
        res = optimize.solve_p1_sca(inst)
        want = oracles.grid_refine_min(
            lambda t: oracles.p1_objective(t, eta, x_hat,
                                           [[m11, m12], [m12, m22]], P.alpha, d),
            lo, hi, 4001)
        assert abs(res.x_breve_opt - want) < 1e-3


def test_sca_respects_boundary_optimum():
    # window far from the sweet spot: optimum pinned at the near edge,
    # returned exactly, on either side of the platform
    inst = _instance(80.0, 79.5)
    res = optimize.solve_p1_sca(inst)
    assert res.x_breve_opt == inst.lo
    assert res.iterations == 0
    mirror = _instance(-80.0, -79.5)
    assert optimize.solve_p1_sca(mirror).x_breve_opt == mirror.hi


def _root_cell(inst):
    """The grid cell next to the grid minimum where f' changes sign, and
    f' and f'' as a function of x."""
    xs = np.linspace(inst.lo, inst.hi, optimize.P1_GRID_POINTS)
    k = int(np.argmin(optimize._objective(xs, inst.x_hat_prev, inst._prior_info, P)))
    slope = lambda x: optimize.objective_f(x, *_slot(inst))[1:]
    cell = (xs[k], xs[k + 1]) if slope(float(xs[k]))[0] < 0.0 else (xs[k - 1], xs[k])
    return float(cell[0]), float(cell[1]), slope


def test_sca_optimum_independent_of_start():
    rng = np.random.default_rng(33)
    for _ in range(20):
        eta = float(rng.uniform(-78, 78))
        inst = _instance(eta, eta + float(rng.uniform(-2, 2)),
                         m11=float(rng.uniform(0.2, 2.0)),
                         m22=float(rng.uniform(0.05, 0.5)))
        res = optimize.solve_p1_sca(inst)
        if res.iterations == 0:
            continue  # a window-end optimum has no Newton start
        # Newton paths from other starts in the cell agree to roundoff
        a, b, slope = _root_cell(inst)
        for t in (0.1, 0.5, 0.9):
            want, _ = oracles._newton_bracketed(slope, a, b, 1e-9 * P.h_alt, x0=a + t * (b - a))
            assert res.x_breve_opt == pytest.approx(want, abs=1e-12)


def test_sca_never_worse_than_grid():
    rng = np.random.default_rng(34)
    d = oracles.params_dict(P)
    for _ in range(40):
        eta = float(rng.uniform(-20, 20))
        x_hat = eta + float(rng.uniform(-2, 2))
        m11, m22 = float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.05, 0.5))
        inst = _instance(eta, x_hat, m11=m11, m22=m22)
        lo, hi = inst.lo, inst.hi
        res = optimize.solve_p1_sca(inst)
        grid = np.linspace(lo, hi, optimize.P1_GRID_POINTS)
        # the solver's own float path: exact; the numpy oracle: roundoff
        assert res.objective <= res.trace[0][1]
        assert res.trace[0][0] in grid
        want = oracles.p1_objective(grid, eta, x_hat, [[m11, 0.0], [0.0, m22]], P.alpha, d)
        assert res.objective <= float(np.min(want)) * (1.0 + 1e-12)


@pytest.mark.parametrize("eta,x_hat", [
    (1.0, -1.0),      # global basin left of 0
    (-2.0, 1.0),      # global basin right of 0
])
def test_sca_two_basin_window_picks_global_basin(eta, x_hat):
    inst = _instance(eta, x_hat)
    lo, hi = inst.lo, inst.hi
    assert lo < 0.0 < hi
    d = oracles.params_dict(P)
    fn = lambda xs: oracles.p1_objective(xs, eta, x_hat, [[1.0, 0.0], [0.0, 0.25]], P.alpha, d)
    want = oracles.grid_refine_min(fn, lo, hi, 20_001)
    # the other side of 0 holds a worse local optimum or a worse window end
    other = (lo, -1e-6) if want > 0.0 else (1e-6, hi)
    assert fn(oracles.grid_refine_min(fn, *other, 20_001)) > fn(want)
    assert abs(optimize.solve_p1_sca(inst).x_breve_opt - want) < 1e-3


@settings(max_examples=60, deadline=None, derandomize=True)
@given(eta=st.floats(-78.0, 78.0), dx_hat=st.floats(-2.0, 2.0),
       log_m11=st.floats(math.log(0.02), math.log(20.0)),
       log_m22=st.floats(math.log(0.01), math.log(10.0)),
       rho=st.floats(-0.9, 0.9))
def test_sca_matches_grid_oracle_property(eta, dx_hat, log_m11, log_m22, rho):
    m11, m22 = math.exp(log_m11), math.exp(log_m22)
    m12 = rho * math.sqrt(m11 * m22)
    x_hat = eta + dx_hat
    inst = _instance(eta, x_hat, m11=m11, m22=m22, m12=m12)
    lo, hi = inst.lo, inst.hi
    res = optimize.solve_p1_sca(inst)
    d = oracles.params_dict(P)
    want = oracles.grid_refine_min(
        lambda xs: oracles.p1_objective(xs, eta, x_hat, [[m11, m12], [m12, m22]], P.alpha, d),
        lo, hi, 20_001)
    assert lo <= res.x_breve_opt <= hi
    assert abs(res.x_breve_opt - want) < 1e-3   # AC05's gate


def _batch_of(insts):
    def col(name):
        return np.array([getattr(i, name) for i in insts])
    prior = tuple(np.array([i._prior_info for i in insts]).T)
    return col("lo"), col("hi"), col("eta_prev"), col("x_hat_prev"), prior


def test_batched_slot_solve_bracket_error_names_entry(monkeypatch):
    # grid minimum at x_hat_prev, but f' = -1 everywhere
    monkeypatch.setattr(optimize, "_objective", lambda x, x_hat_prev, *_: (x - x_hat_prev) ** 2)
    monkeypatch.setattr(optimize, "objective_f",
                        lambda x, *_: (x * 0.0, np.full(np.shape(x), -1.0), x * 0.0))
    # entry 0 has its minimum at the right window end, where f' <= 0 is an
    # optimum; entries 1 and 2 have interior minima that cannot be bracketed
    insts = [_instance(80.0, 95.0), _instance(10.0, 9.0), _instance(20.0, 19.0)]
    lo, hi, _, x_hat, prior = _batch_of(insts)
    with pytest.raises(BracketError, match="does not change sign over") as exc_info:
        optimize.solve_p1_each(lo, hi, x_hat, prior, P, np.ones(3, bool))
    assert exc_info.value.batch_index == 1
    assert exc_info.value.dg_lo == exc_info.value.dg_hi == -1.0


def _mixed_windows(seed):
    # random windows, window-end optima and two-basin windows
    rng = np.random.default_rng(seed)
    insts = [_instance(80.0, 79.5), _instance(-80.0, -79.5),
             _instance(1.0, -1.0), _instance(-2.0, 1.0)]
    for _ in range(60):
        eta = float(rng.uniform(-78, 78))
        m11, m22 = float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.05, 0.5))
        m12 = float(rng.uniform(-0.8, 0.8)) * math.sqrt(m11 * m22)
        insts.append(_instance(eta, eta + float(rng.uniform(-2, 2)), m11=m11, m22=m22, m12=m12))
    return insts


def test_batched_slot_solve_without_start_equals_scalar_solve():
    insts = _mixed_windows(35)
    lo, hi, _, x_hat, prior = _batch_of(insts)
    got, *_ = optimize.solve_p1_each(lo, hi, x_hat, prior, P, np.ones(len(insts), bool))
    assert got.tolist() == [oracles.p1_by_scalar_steps(inst).x_breve_opt for inst in insts]


def test_hermite_start_reaches_the_midpoint_start_optimum():
    rng = np.random.default_rng(36)
    solved = 0
    while solved < 20:
        eta = float(rng.uniform(-78, 78))
        m11, m22 = float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.05, 0.5))
        m12 = float(rng.uniform(-0.8, 0.8)) * math.sqrt(m11 * m22)
        inst = _instance(eta, eta + float(rng.uniform(-2, 2)), m11=m11, m22=m22, m12=m12)
        res = optimize.solve_p1_sca(inst)
        if res.iterations == 0:
            continue  # a window-end optimum has no Newton start
        solved += 1
        # the root's grid cell solved from its midpoint
        a, b, slope = _root_cell(inst)
        want, _ = oracles._newton_bracketed(slope, a, b, 1e-9 * P.h_alt)
        assert abs(res.x_breve_opt - want) <= 1e-12


def _cubic_hermite(a, b, ga, gb, ha, hb):
    """The cubic through f' = ga, gb and f'' = ha, hb at a and b, as a
    function of x, from a dense 4x4 solve."""
    w = b - a
    c = np.linalg.solve([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
                         [1.0, w, w * w, w ** 3], [0.0, 1.0, 2.0 * w, 3.0 * w * w]],
                        [ga, ha, gb, hb])
    return lambda x: np.polyval(c[::-1], x - a)


@pytest.mark.parametrize("end", ["lo", "hi"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_window_end_cell_starts_at_the_cubic_root(end, seed):
    # a window whose end lies just short of the optimum: the grid minimum
    # is the end point itself, the root lies in the end cell, and the
    # clamped neighbours repeat the end, so no quintic exists
    rng = np.random.default_rng(seed)
    x_hat = float(rng.uniform(25.0, 32.0))
    m11, m22 = float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.05, 0.5))
    m12 = float(rng.uniform(-0.8, 0.8)) * math.sqrt(m11 * m22)
    x_opt = optimize.solve_p1_sca(_instance(x_hat, x_hat, m11=m11, m22=m22, m12=m12)).x_breve_opt
    reach, gap = P.v_a_max * P.dt, float(rng.uniform(0.02, 0.05))
    eta = x_opt - gap + reach if end == "lo" else x_opt + gap - reach
    inst = _instance(eta, x_hat, m11=m11, m22=m22, m12=m12)
    last = optimize.P1_GRID_POINTS - 1
    xs = np.linspace(inst.lo, inst.hi, optimize.P1_GRID_POINTS)
    k = int(np.argmin(optimize._objective(xs, x_hat, inst._prior_info, P)))
    assert k == (0 if end == "lo" else last)
    x3 = xs[[max(k - 1, 0), k, min(k + 1, last)]]
    _, d1, d2 = map(np.array, zip(*(optimize.objective_f(float(x), *_slot(inst)) for x in x3)))
    right = bool(d1[1] < 0.0)
    assert right == (end == "lo")
    (a, b), (ga, gb), (ha, hb) = (optimize._cell(v, right) for v in (x3, d1, d2))
    *cell, start = optimize._newton_start(x3, d1, d2, right)
    assert cell == [a, b]
    start = float(start)
    assert a < start < b and start != 0.5 * (a + b)
    assert abs(_cubic_hermite(a, b, ga, gb, ha, hb)(start)) <= 1e-12 * max(-ga, gb)
    slope = lambda x: optimize.objective_f(x, *_slot(inst))[1:]
    want, _ = oracles._newton_bracketed(slope, float(a), float(b), 1e-9 * P.h_alt)
    res = optimize.solve_p1_sca(inst)
    assert res.iterations >= 1 and abs(res.x_breve_opt - want) <= 1e-12


@pytest.mark.parametrize("extra", [
    [],
    [(3.0, 3.0)],                     # zero width: numpy's step-0 branch
    [(0.0, 2.0 ** -1070)],            # subnormal width whose step rounds to 0
    [(0.0, 2.0 ** -1060)],            # subnormal width, subnormal step
    [(-2.0, -0.0), (-86.0, 86.0)],
], ids=["random", "zero_width", "subnormal_zero_step", "subnormal_step", "signed_zero"])
def test_basin_grid_equals_linspace_bit_for_bit(extra):
    # _grid_basin_each's grid for a batch of windows is np.linspace's, and
    # so is each window's grid solved alone, as run_scenario solves: 64
    # steps make numpy's step-0 branch agree with its step branch
    rng = np.random.default_rng(14)
    lo = rng.uniform(-90.0, 60.0, 40)
    hi = lo + rng.uniform(0.0, 12.0, 40) * 10.0 ** rng.integers(-12, 1, 40)
    lo, hi = (np.concatenate((v, [w[j] for w in extra])) for j, v in enumerate((lo, hi)))
    grids = []
    optimize._grid_basin_each(lambda x: grids.append(x) or x, lambda x: (x, x, x), lo, hi)
    want = np.linspace(lo, hi, optimize.P1_GRID_POINTS)
    assert grids[0].shape == want.shape and grids[0].tobytes() == want.tobytes()
    for i in range(len(lo)):
        optimize._grid_basin_each(lambda x: grids.append(x) or x, lambda x: (x, x, x),
                                  lo[i:i + 1], hi[i:i + 1])
    rows = np.concatenate(grids[1:], axis=1)
    assert rows.shape == want.shape and rows.tobytes() == want.tobytes()


@pytest.mark.parametrize("n_grid", [2.5, 2.0, True, "3"])
def test_tradeoff_frontier_refuses_non_integer_grid(n_grid):
    with pytest.raises(ValueError, match="n_grid must be an integer"):
        optimize.tradeoff_frontier(P, n_grid)


def test_tradeoff_frontier_takes_numpy_integer_grid():
    assert optimize.tradeoff_frontier(P, np.int64(7)) == optimize.tradeoff_frontier(P, 7)


def test_tradeoff_frontier_refuses_a_row_that_is_not_finite():
    # H^2 rounds to 0: overhead the SNR is inf and the bound nan, a row
    # (0.5, 0.0, inf, nan) before
    with pytest.raises(SingularMatrixError, match=r"^the frontier row at x = 0 m is not finite: "
                                                  r"SNR = inf, sensing_perf = nan$"):
        optimize.tradeoff_frontier(SystemParams(h_alt=1e-300), 2001)


# ------------------------------------------------------------ SP1 geometry

def test_xi_and_brackets_frozen():
    assert optimize.xi_of_h(P) == pytest.approx(oracles.FROZEN["xi_50"], rel=1e-10)
    assert optimize.convexity_lower_bound(P) == pytest.approx(
        oracles.FROZEN["x_l_50"], rel=1e-12)
    assert optimize.upper_anchor(P) == pytest.approx(
        oracles.FROZEN["x_u_50"], rel=1e-15)


def test_xi_sign_change_near_knee():
    h_knee = oracles.FROZEN["h_knee"]
    assert optimize.xi_of_h(replace(P, h_alt=h_knee * 0.999)) < 0
    assert optimize.xi_of_h(replace(P, h_alt=h_knee * 1.001)) > 0


def test_sp1_alpha0_exact_anchor():
    for h in range(10, 101, 10):
        res = optimize.solve_sp1(replace(P, alpha=0.0, h_alt=float(h)))
        assert res.branch == "alpha0"
        assert res.x_star == h / math.sqrt(2.0)
        assert res.v_star == 0.0
        assert math.degrees(res.phi_star) == pytest.approx(
            oracles.FROZEN["atan_sqrt2_deg"], abs=1e-9)


def test_sp1_alpha1_overhead_below_knee():
    res = optimize.solve_sp1(replace(P, alpha=1.0, h_alt=30.0))
    assert res.branch == "alpha1_xi_nonpos"
    assert res.x_star == 0.0
    assert res.phi_star == pytest.approx(math.pi / 2.0)


def test_sp1_alpha1_cubic_branch_frozen():
    res = optimize.solve_sp1(replace(P, alpha=1.0))
    assert res.branch == "alpha1_xi_pos"
    assert res.x_star == pytest.approx(oracles.FROZEN["x_star_a10"], rel=1e-10)
    assert res.g_star == pytest.approx(oracles.FROZEN["g_star_a10"], rel=1e-10)


@pytest.mark.parametrize("alpha,key_x,key_g", [
    (0.3, "x_star_a03", "g_star_a03"),
    (0.5, "x_star_a05", "g_star_a05"),
    (0.7, "x_star_a07", "g_star_a07"),
])
def test_sp1_interior_frozen(alpha, key_x, key_g):
    res = optimize.solve_sp1(replace(P, alpha=alpha))
    assert res.branch == "interior_newton"
    assert res.x_star == pytest.approx(oracles.FROZEN[key_x], abs=5e-7)
    assert res.g_star == pytest.approx(oracles.FROZEN[key_g], rel=1e-12)
    assert res.x_l == pytest.approx(oracles.FROZEN["x_l_50"], rel=1e-12)
    assert res.x_u == pytest.approx(oracles.FROZEN["x_u_50"], rel=1e-12)
    assert res.phi_star == math.atan2(P.h_alt, res.x_star)


def test_sp1_stationarity_and_bracket():
    res = optimize.solve_sp1(P)
    _, d1, d2 = optimize.g0_derivatives(res.x_star, P)
    assert abs(d1) < 1e-6 * res.g_star
    assert d2 > 0.0
    assert res.x_l < res.x_star < res.x_u


def test_sp1_interior_matches_dense_grid_oracle():
    d = oracles.params_dict(P)
    want = oracles.grid_refine_min(
        lambda t: oracles.g0(t, P.alpha, d), 1e-6, 3.0 * P.h_alt, 1_000_000)
    res = optimize.solve_sp1(P)
    assert abs(res.x_star - want) < 1e-4


def test_g0_derivatives_match_finite_differences():
    fn = lambda t: float(oracles.g0(t, P.alpha, oracles.params_dict(P)))
    for x in np.linspace(20.0, 45.0, 11):
        val, d1, d2 = optimize.g0_derivatives(float(x), P)
        assert val == pytest.approx(fn(float(x)), rel=1e-11)
        assert d1 == pytest.approx(oracles.central_fd1(fn, float(x), 1e-4), rel=1e-5, abs=1e-16)
        assert d2 == pytest.approx(oracles.central_fd2(fn, float(x), 1e-3), rel=1e-3, abs=1e-16)


def test_g0_jet_overhead_at_an_edge_weight_forms_only_its_term():
    # directly overhead the velocity information vv is 0: at alpha = 1 its
    # reciprocal carries no weight and is not formed, on floats as on arrays
    p = SystemParams(h_alt=10.0, alpha=1.0)
    assert all(map(math.isfinite, optimize.g0_derivatives(0.0, p)))
    assert optimize.g0_derivatives(0.0, p) == tuple(
        float(v[0]) for v in optimize.g0_derivatives(np.zeros(1), p))


def test_g0_overhead_at_an_edge_weight_forms_only_its_term():
    # the value the geometry grid evaluates, as its jet: at alpha = 1 the
    # overhead 1/vv is not formed, so floats do not divide by zero and
    # arrays do not warn
    p = SystemParams(h_alt=10.0, alpha=1.0)
    g = optimize._g0(0.0, p)
    assert math.isfinite(g) and g == optimize.g0_derivatives(0.0, p)[0]
    with np.errstate(all="raise"):
        assert optimize._g0(np.zeros(1), p).tolist() == [g]
    # the other edge selects 1/vv alone, which is infinite overhead
    with np.errstate(divide="ignore"):
        assert optimize._g0(np.zeros(1), replace(p, alpha=0.0)).tolist() == [math.inf]


# The jets regroup the sums that the Dual2 oracle forms, so their
# derivatives may differ from it by a few roundings of the largest term
# summed: at most JET_RTOL (about 45 ulp) times the size of the terms,
# measured by oracles.TermSize (measured maximum 6.1e-16 over 20000
# random points of each objective).  Below the normal range a rounding's
# error is absolute, 2^-1075, not relative, so TermSize counts every
# derivative part at least the smallest normal float in size (its
# docstring states the model): a derivative whose partial products
# underflow, as at x = 0 with a predicted velocity near 1e-307, is held
# to the absolute error of subnormal arithmetic.  Values must be equal:
# both are the float formula's own arithmetic.
JET_RTOL = 1e-14


def _assert_jet_matches_oracle(jet, formula, x, *args):
    dual = formula(oracles.Dual2.variable(x), *args)
    size = formula(oracles.TermSize.variable(x), *args)
    assert jet[0] == dual.val
    assert abs(jet[1] - dual.d1) <= JET_RTOL * size.d1, (jet, dual, size)
    assert abs(jet[2] - dual.d2) <= JET_RTOL * size.d2, (jet, dual, size)


_ALPHAS = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.01, 0.99))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(x=st.one_of(st.just(0.0), st.floats(-120.0, 120.0)), dx_hat=st.floats(-20.0, 20.0),
       log_m11=st.floats(math.log(0.01), math.log(20.0)),
       log_m22=st.floats(math.log(0.01), math.log(20.0)),
       rho=st.floats(-0.95, 0.95), alpha=_ALPHAS, h=st.floats(10.0, 100.0))
# the Doppler terms' partial products underflow here: the dual's f' is
# 1.6e-317 and the jet's 0.0, the exact value at x = 0 and alpha = 0
@example(x=0.0, dx_hat=5.628241439884092e-308, log_m11=0.0, log_m22=0.0, rho=0.0, alpha=0.0,
         h=10.0)
def test_objective_jet_matches_dual_oracle(x, dx_hat, log_m11, log_m22, rho, alpha, h):
    m11, m22 = math.exp(log_m11), math.exp(log_m22)
    prior = ekf.inverse(m11, rho * math.sqrt(m11 * m22), m22)
    p = replace(P, alpha=alpha, h_alt=h)
    x_hat = x + dx_hat
    _assert_jet_matches_oracle(optimize.objective_f(x, x_hat, prior, p), optimize._objective,
                               x, x_hat, prior, p)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(x=st.floats(0.1, 120.0), alpha=_ALPHAS, h=st.floats(10.0, 100.0))
def test_g0_jet_matches_dual_oracle(x, alpha, h):
    p = replace(P, alpha=alpha, h_alt=h)
    _assert_jet_matches_oracle(optimize.g0_derivatives(x, p), optimize._g0, x, p)


@pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0])
def test_jets_on_arrays_equal_jets_on_floats(alpha):
    rng = np.random.default_rng(41)
    p = replace(P, alpha=alpha)
    x = np.concatenate(([0.0, -0.0, 120.0], rng.uniform(-120.0, 120.0, 61)))
    x_hat = x + rng.uniform(-20.0, 20.0, x.size)
    m11, m22 = rng.uniform(0.05, 5.0, x.size), rng.uniform(0.05, 5.0, x.size)
    prior = (m11, rng.uniform(-0.9, 0.9, x.size) * np.sqrt(m11 * m22), m22)
    got = optimize.objective_f(x, x_hat, prior, p)
    want = [optimize.objective_f(float(a), float(b), tuple(float(c[i]) for c in prior), p)
            for i, (a, b) in enumerate(zip(x, x_hat))]
    assert [tuple(part.tolist()) for part in got] == list(zip(*want))
    h = rng.uniform(10.0, 100.0, x.size)
    gx = np.abs(x) + 0.1
    got = optimize.g0_derivatives(gx, p, h)
    want = [optimize.g0_derivatives(float(a), replace(p, h_alt=float(b))) for a, b in zip(gx, h)]
    assert [tuple(part.tolist()) for part in got] == list(zip(*want))
    assert all(type(v) is float for v in want[0])


def _count_derivative_evaluations(monkeypatch):
    """A list that collects the arguments of the Fisher-term jets: one
    entry per derivative evaluation, of one point or a batch."""
    calls = []
    real = ekf._fisher_jets

    def counting(x, *args, **kwargs):
        calls.append(x)
        return real(x, *args, **kwargs)
    monkeypatch.setattr(ekf, "_fisher_jets", counting)
    return calls


def test_newton_returns_converged_step_on_bracket_end(monkeypatch):
    # the solve at this cell must stay within its evaluation budget and
    # end at a stationary point of g (the step rule's accepting branch,
    # a step rounding onto the bracket's end, is reached by the next test)
    calls = _count_derivative_evaluations(monkeypatch)
    cell = replace(P, alpha=0.1, h_alt=17.0)
    res = optimize.solve_sp1(cell)
    assert res.branch == "interior_newton"
    assert 1 <= len(calls) <= 10
    _, d1, d2 = optimize.g0_derivatives(res.x_star, cell)
    assert abs(d1) < 1e-6 * res.g_star and d2 > 0.0


@pytest.mark.parametrize("batched", [False, True], ids=["scalar", "batch"])
def test_newton_takes_converged_step_that_rounds_onto_bracket_end(batched):
    # F(1) = -1e-300 moves lo to 1, and the Newton step 1 + 1e-300 rounds
    # back onto 1, the shrunken bracket's end; taken, it ends the solve
    # there, while bisecting away from it would take 30 steps
    iterates = []

    def deriv_fn(x):
        iterates.append(x)
        return (x - 1.0) - 1e-300, 1.0
    if batched:
        x, rounds = optimize._newton_bracketed_each(deriv_fn, np.array([0.0]), np.array([2.0]),
                                                    1e-9, np.array([1.0]), np.array([True]))
        assert x.tolist() == [1.0] and rounds == len(iterates) == 1
    else:
        assert oracles._newton_bracketed(deriv_fn, 0.0, 2.0, 1e-9, x0=1.0) == (1.0, 1)


def test_newton_ends_when_every_bisection_step_is_shorter_than_tol():
    # F' = 0 everywhere, so no Newton step is taken and every round bisects:
    # the solve ends when each active entry's step is below tol, after 9
    # rounds from the midpoint of [0, 1] at tol 1e-3; an inactive entry
    # keeps its start
    roots, iterates = np.array([0.3, 0.7, 0.9]), []

    def deriv_fn(x):
        iterates.append(x)
        return x - roots, np.zeros_like(x)
    x, rounds = optimize._newton_bracketed_each(deriv_fn, np.zeros(3), np.ones(3), 1e-3,
                                                np.full(3, 0.5), np.array([True, True, False]))
    assert rounds == len(iterates) == 9
    assert x.tolist() == [0.2998046875, 0.7001953125, 0.5]
    assert np.all((0.0 <= x) & (x <= 1.0)) and np.all(np.abs(x - roots)[:2] < 2e-3)


def test_newton_stops_at_the_round_cap():
    # at tol 0 no step is short enough and x^2 - 2 is never exactly 0 on
    # floats, so bisection runs into the 200-round cap and returns an
    # iterate of the bracket next to sqrt(2)
    iterates = []

    def deriv_fn(x):
        iterates.append(x)
        return x * x - 2.0, np.zeros_like(x)
    x, rounds = optimize._newton_bracketed_each(deriv_fn, np.ones(2), np.full(2, 2.0), 0.0,
                                                np.full(2, 1.5), np.ones(2, bool))
    assert rounds == len(iterates) == 200
    assert np.all((1.0 <= x) & (x <= 2.0)) and np.all(np.abs(x - math.sqrt(2.0)) <= 4e-16)


def test_newton_bracket_guard():
    # the scalar reference's guard: derivative positive at both ends, no
    # interior root to find (the batched solves check it on values they have)
    with pytest.raises(BracketError) as exc_info:
        oracles._newton_bracketed(lambda t: (1.0, 1.0), 1.0, 2.0, 1e-9)
    assert exc_info.value.dg_lo == 1.0 and exc_info.value.dg_hi == 1.0


# ----------------------------------------------------------- trajectory map

def _design_on_rows(x_breve, eta, uav_prev, params):
    """design_trajectory on rows: float arguments as one-row arrays,
    the waypoint back as floats."""
    x_a, v_a = optimize.design_trajectory(
        np.array([x_breve]), np.array([eta]), tuple(np.array([v]) for v in uav_prev), params)
    return float(x_a[0]), float(v_a[0])


def test_design_trajectory_algebra():
    x_a, v_a = optimize.design_trajectory(28.0, 30.0, (100.0, 12.0), P)
    assert x_a == pytest.approx(30.0 + 100.0 - 28.0)
    assert v_a == pytest.approx((x_a - 100.0) / P.dt)
    assert abs(v_a) <= P.v_a_max + 1e-9
    # on rows, every row's waypoint is its float one bit for bit
    plans = [(28.0, 30.0, 100.0, 12.0), (-3.7, -1.1, 7.3, -4.0), (0.0, -0.0, -20.1, 0.0),
             (85.9, 80.3, 1e3 / 3.0, 29.0)]
    x_breve, eta, x_prev, v_prev = np.array(plans).T
    rows = optimize.design_trajectory(x_breve, eta, (x_prev, v_prev), P)
    floats = [optimize.design_trajectory(x, e, (xp, vp), P) for x, e, xp, vp in plans]
    assert list(zip(*(v.tolist() for v in rows))) == floats


def test_design_trajectory_rejects_unreachable_target():
    with pytest.raises(VelocityBoundError) as on_floats:
        optimize.design_trajectory(20.0, 30.0, (100.0, 12.0), P)
    # on rows the lowest refused row is refused as on floats
    with pytest.raises(VelocityBoundError) as on_rows:
        optimize.design_trajectory(np.array([28.0, 20.0, 40.0]), np.full(3, 30.0),
                                   (np.full(3, 100.0), np.full(3, 12.0)), P)
    assert on_rows.value.batch_index == 1
    assert str(on_rows.value) == str(on_floats.value)


def test_design_trajectory_accepts_a_full_reach_that_rounds():
    # at |eta| = 5e16 m the spacing of floats is 8 m, so eta - reach
    # (6 m) rounds to 8 m from eta; a move two ulp beyond that is
    # refused, on floats and on rows
    eta, reach = 5e16, P.v_a_max * P.dt
    assert reach == 6.0 and abs((eta - reach) - eta) == 8.0
    for design in (optimize.design_trajectory, _design_on_rows):
        design(eta - reach, eta, (0.0, 0.0), P)
        design(-eta + reach, -eta, (0.0, 0.0), P)
        with pytest.raises(VelocityBoundError):
            design(eta - 32.0, eta, (0.0, 0.0), P)


# ------------------------------------------------------------------- sweeps

def test_sweep_angle_rows_and_branches():
    rows = optimize.sweep_angle(P, [0.0, 1.0], [30.0, 50.0])
    assert len(rows) == 4
    by_key = {(a, h): (x, phi, br) for a, h, x, phi, br in rows}
    x, phi, br = by_key[(0.0, 50.0)]
    assert br == "alpha0" and phi == pytest.approx(oracles.FROZEN["atan_sqrt2_deg"])
    x, phi, br = by_key[(1.0, 30.0)]
    assert br == "alpha1_xi_nonpos" and phi == pytest.approx(90.0) and x == 0.0


def test_sweep_angle_survives_per_cell_failure():
    # at H = 1e200, H*H overflows and with it the bracket's lower end
    rows = optimize.sweep_angle(P, [0.01], [50.0, 1e200, 70.0])
    assert len(rows) == 3
    a, h, x, phi, branch = rows[1]
    assert (a, h, branch) == (0.01, 1e200, "error:BracketError")
    assert math.isnan(x) and math.isnan(phi)
    assert [(r[1], r[4]) for r in rows[::2]] == [(50.0, "interior_newton"),
                                                  (70.0, "interior_newton")]
    assert all(math.isfinite(r[2]) for r in rows[::2])


BENCHMARK_ALPHAS = [i / 20 for i in range(21)]
BENCHMARK_HEIGHTS = [10.0 + i for i in range(91)]
AC02_HEIGHTS = [10.0 + 0.25 * i for i in range(361)]
ODD_ALPHAS = (0.0, 0.01, 0.1, 0.3, 0.5, 0.85, 0.99, 1.0)
ODD_HEIGHTS = (0.5, 3.0, 17.0, oracles.FROZEN["h_knee"], 500.0, 1e4)


@pytest.mark.parametrize("params, alphas, heights", [
    (P, BENCHMARK_ALPHAS, BENCHMARK_HEIGHTS),   # the benchmark's grid
    (P, [1.0], AC02_HEIGHTS),                   # AC02's grid
    (P, ODD_ALPHAS, ODD_HEIGHTS),
    # with a 100x finer delay channel the bracket at H = 100 km is 3e-10 m
    # wide, g' has its roundoff's sign at both ends, and x_u is the solution
    (replace(P, a2=1.2e-9), [0.01, 0.5], [50.0, 1e5, 70.0]),
    # g ties to roundoff over these grids, so g' does not change sign over the
    # cell the grid minimum picks, and the cell is the whole bracket
    (P, [0.5, 0.85], [7e4, 2e5, 1e6]),
    # 26 of these 31 cells take a second Newton step: the polish runs one full
    # round, then returns early from the second
    (P, [0.95], [10.0 + i for i in range(31)]),
], ids=["benchmark", "ac02", "odd", "point_bracket", "far", "second_round"])
def test_sweep_angle_equals_scalar_oracle(params, alphas, heights):
    # repr tells every float bit, NaN and the sign of zero apart
    assert repr(optimize.sweep_angle(params, alphas, heights)) == \
        repr(oracles.sweep_by_scalar_steps(params, alphas, heights))


@pytest.mark.parametrize("base", [P, replace(P, a2=1.2e-9)], ids=["default", "fine_delay"])
def test_solve_sp1_equals_scalar_oracle(base):
    for alpha in ODD_ALPHAS:
        for h in ODD_HEIGHTS + (1e5,):
            cell = replace(base, alpha=alpha, h_alt=h)
            try:
                want, _ = oracles.sp1_by_scalar_steps(cell)
            except BracketError as exc:
                with pytest.raises(BracketError) as got:
                    optimize.solve_sp1(cell)
                assert (str(got.value), got.value.dg_lo, got.value.dg_hi) == \
                    (str(exc), exc.dg_lo, exc.dg_hi)
                continue
            assert repr(optimize.solve_sp1(cell)) == repr(want)


def test_sweep_angle_validates_once_and_batches_the_newton_solve(monkeypatch):
    alphas = [0.3, 0.5, 0.95]
    built = []
    post_init = SystemParams.__post_init__
    monkeypatch.setattr(SystemParams, "__post_init__",
                        lambda self: built.append(self) or post_init(self))
    evaluations = _count_derivative_evaluations(monkeypatch)
    rows = optimize.sweep_angle(P, alphas, BENCHMARK_HEIGHTS)
    # the weight is an argument of the batched solve, not a rebuilt parameter set
    assert len(rows) == 3 * 91 and built == []
    monkeypatch.undo()
    # per alpha, one evaluation at the grid minima, their neighbours and the
    # bracket ends, then one per Newton round
    assert len(evaluations) <= sum(
        1 + max(oracles.sp1_by_scalar_steps(replace(P, alpha=a, h_alt=h))[1]
                for h in BENCHMARK_HEIGHTS) for a in alphas)


@pytest.mark.parametrize("alpha", [1.5, -0.25, math.nan])
def test_sweep_angle_refuses_an_alpha_as_system_params_does(alpha):
    with pytest.raises(ValueError) as want:
        replace(P, alpha=alpha)
    with pytest.raises(ValueError) as got:
        optimize.sweep_angle(P, [alpha], [50.0])
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("alpha, budget", [(0.3, 333), (0.7, 441)])
def test_sweep_numpy_call_budget(alpha, budget):
    # one interior weight over the benchmark's heights: the grid pass, the
    # (5, n) jet, the quintic start and the Newton rounds (one at alpha 0.3,
    # two at 0.7)
    h = np.array(BENCHMARK_HEIGHTS).view(numpy_calls.Counted)
    (x_star, *_), calls = numpy_calls.count_calls(optimize._solve_sp1_each, P, h, alpha)
    assert calls <= budget
    assert x_star.view(np.ndarray).tolist() == \
        [r[2] for r in optimize.sweep_angle(P, [alpha], BENCHMARK_HEIGHTS)]


def _ulps(a: float, b: float) -> int:
    return abs(int(np.float64(a).view(np.int64)) - int(np.float64(b).view(np.int64)))


@pytest.mark.parametrize("alphas, heights, max_ulps", [
    (BENCHMARK_ALPHAS, BENCHMARK_HEIGHTS, 32),     # measured maximum 19
    # AC02's heights at every interior alpha; near the knee (H = 40.5 m at
    # alpha = 0.9) g' at both roots is about 1e-21, roundoff: measured maximum 33
    (BENCHMARK_ALPHAS[1:-1], AC02_HEIGHTS, 64),
], ids=["benchmark", "ac02_heights"])
def test_sweep_angle_stays_at_the_midpoint_solve(alphas, heights, max_ulps):
    # the grid-cell polish converges to the root the midpoint solve found,
    # within a few ulp; every branch and error is the same
    got = optimize.sweep_angle(P, alphas, heights)
    want = oracles.sweep_by_scalar_steps(P, alphas, heights, oracles.sp1_by_midpoint_newton)
    assert [r[:2] + r[4:] for r in got] == [r[:2] + r[4:] for r in want]
    assert max(_ulps(g[2], w[2]) for g, w in zip(got, want)) <= max_ulps


def test_sweep_angle_round_budget(monkeypatch):
    # per interior alpha of the benchmark grid: the grid-cell evaluation and
    # at most two Newton rounds over all 91 heights, including alpha = 0.85,
    # where H = 35 m took 24 steps from the bracket midpoint
    assert oracles.sp1_by_midpoint_newton(replace(P, alpha=0.85, h_alt=35.0))[1] == 24
    evaluations = _count_derivative_evaluations(monkeypatch)
    for alpha in BENCHMARK_ALPHAS[1:-1]:
        evaluations.clear()
        optimize.sweep_angle(P, [alpha], BENCHMARK_HEIGHTS)
        assert 2 <= len(evaluations) <= 3, alpha


@pytest.mark.parametrize("n_grid", [2, 3, 2001])
@pytest.mark.parametrize("a1", [0.15, 1.0, 3.0])
def test_tradeoff_frontier_equals_scalar_oracle(n_grid, a1):
    for alpha in (0.0, 0.1, 0.25, 0.5, 0.75, 1.0):
        p = replace(P, a1=a1, alpha=alpha)
        assert repr(optimize.tradeoff_frontier(p, n_grid)) == \
            repr(oracles.frontier_by_scalar_steps(p, n_grid))


# every half decade of altitude that SystemParams accepts, 1 m to 1e308 m
FLOAT_RANGE_HEIGHTS = [10.0 ** (k / 2) for k in range(617)]
TENTH_ALPHAS = [k / 10 for k in range(11)]


def test_geometry_refuses_or_returns_finite_values_across_float_range():
    # interior weights used to end in a bare FloatingPointError from about
    # H = 1e56, alpha = 0 and 1 in a bare ZeroDivisionError at 1e82, and
    # alpha = 1 in g_star = nan or a NaN bracket end further out; at
    # a1 = a2 = 1e160, solve_sp1 formed g_star as (1 + 0*inf)/vv = nan and
    # refused the alpha0 cell that the sweep solves; at a1 = 1e150 (and
    # H = 1e10), 4 a1^2 H^2 overflows, so x_l = inf, which solve_sp1 refused
    # and the sweep's alpha0 cell kept
    for base, alphas, heights in ((P, TENTH_ALPHAS, FLOAT_RANGE_HEIGHTS),
                                  (SystemParams(a1=1e160, a2=1e160), [0.0], [50.0]),
                                  (SystemParams(a1=1e150), [0.0, 0.5, 1.0], [1.0, 1e10])):
        refused, solved = {}, {}
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for alpha in alphas:
                for h in heights:
                    try:
                        res = optimize.solve_sp1(replace(base, alpha=alpha, h_alt=h))
                    except UavIsacError as exc:
                        refused[(alpha, h)] = f"error:{type(exc).__name__}"
                        continue
                    assert all(map(math.isfinite, (res.x_star, res.phi_star, res.g_star,
                                                   res.x_l, res.x_u))), res
                    solved[(alpha, h)] = res.x_star
            rows = optimize.sweep_angle(base, alphas, heights)
        assert [r[:2] for r in rows] == [(a, h) for a in alphas for h in heights]
        for row in rows:
            assert row[4].startswith("error:") or all(map(math.isfinite, row[:4])), row
        # the sweep refuses a cell exactly where solve_sp1 refuses it, with
        # its error, and solves every other cell to solve_sp1's x_star
        assert {r[:2]: r[4] for r in rows if r[4].startswith("error:")} == refused
        assert {r[:2]: r[2] for r in rows if not r[4].startswith("error:")} == solved


@pytest.mark.parametrize("a1", [3e7, 1e20])
def test_a_one_point_bracket_is_its_solution(a1):
    # the angle channel carries almost no information: x_l = x_u = H/sqrt(2)
    # exactly, where both bounds of g take their minimum; it was a BracketError
    p = replace(P, a1=a1)
    x_u = optimize.upper_anchor(p)
    assert optimize.convexity_lower_bound(p) == x_u
    res = optimize.solve_sp1(p)
    assert (res.x_star, res.branch, res.x_l, res.x_u) == (x_u, "point_bracket", x_u, x_u)
    assert res.x_star == 35.35533905932737 and res.g_star == ekf.weighted_g(x_u, 0.0, p)
    _, g1, _ = optimize.g0_derivatives(res.x_star, p)
    assert abs(g1) < 1e-6 * res.g_star
    alphas, heights = (0.3, 0.5, 0.9), (30.0, 50.0, 70.0, 100.0)
    assert optimize.sweep_angle(p, alphas, heights) == [
        (a, h, h / math.sqrt(2.0), math.degrees(math.atan2(h, h / math.sqrt(2.0))),
         "point_bracket") for a in alphas for h in heights]


def test_geometry_refusals_at_altitudes_beyond_the_model():
    cells = {(a, h): (x, b) for a, h, x, _, b in optimize.sweep_angle(P, [0.5, 1.0], [1e60, 1e308])}
    assert cells[(0.5, 1e60)][1] == "error:BracketError"
    x, branch = cells[(1.0, 1e308)]
    assert branch == "error:SingularMatrixError" and math.isnan(x)
    with pytest.raises(SingularMatrixError, match=r"^the geometry solution at H = 1e\+82 m is "
                       r"not finite: x_star = .*, g_star = inf"):
        optimize.solve_sp1(replace(P, alpha=0.0, h_alt=1e82))
    with pytest.raises(SingularMatrixError, match=r"x_star = nan$"):
        optimize.solve_sp1(replace(P, alpha=1.0, h_alt=1e308))
    with pytest.raises(BracketError):
        optimize.solve_sp1(replace(P, h_alt=1e60))


def test_sweep_angle_propagates_non_package_errors():
    with pytest.raises(ValueError, match="alpha"):
        optimize.sweep_angle(P, [0.5, 1.5], [50.0])


def test_tradeoff_frontier_shape():
    p = replace(P, a1=0.15)
    rows = optimize.tradeoff_frontier(p, 2001)
    assert rows[0][1] == 0.0 and rows[0][3] == 0.0          # overhead anchor
    rates = [r[2] for r in rows]
    perfs = [r[3] for r in rows]
    assert rates[0] == max(rates)
    assert all(a > b for a, b in zip(rates, rates[1:]))      # rate falls
    assert all(a < b for a, b in zip(perfs, perfs[1:]))      # sensing rises
    xc = optimize.qos_radius(p)
    res = optimize.solve_sp1(p)
    assert abs(rows[-1][1] - res.x_star) <= xc / 2000.0
