import math
from dataclasses import fields, replace

import numpy as np
import pytest

from uav_isac import simulate
from uav_isac.errors import BracketError, ConfigError, NotPositiveDefiniteError
from uav_isac.linalg2 import process_noise_cov
from uav_isac.params import SystemParams
from uav_isac.simulate import (
    MonteCarloStats,
    ScenarioConfig,
    WorldState,
    run_monte_carlo,
    run_scenario,
    step_ground_truth,
)

P = SystemParams()


# ------------------------------------------------------------ ground truth

def test_step_ground_truth_noiseless_is_constant_velocity():
    w = WorldState(80.0, 5.0, 10.0, 2.0, 0)
    rng = np.random.default_rng(41)
    nxt = step_ground_truth(w, replace(P, q_tilde=0.0), rng)
    assert nxt.obj_pos == 80.0 + 5.0 * P.dt
    assert nxt.obj_vel == 5.0
    assert nxt.uav_pos == 10.0 and nxt.uav_vel == 2.0
    assert nxt.slot == 1


def test_step_ground_truth_draws_two_even_when_noiseless():
    w = WorldState(80.0, 5.0, 0.0, 0.0, 0)
    rng_a = np.random.default_rng(42)
    rng_b = np.random.default_rng(42)
    step_ground_truth(w, replace(P, q_tilde=0.0), rng_a)
    rng_b.standard_normal(2)
    assert rng_a.standard_normal() == rng_b.standard_normal()


def test_step_ground_truth_increment_covariance():
    w = WorldState(0.0, 0.0, 0.0, 0.0, 0)
    rng = np.random.default_rng(43)
    n = 20000
    incs = np.empty((n, 2))
    for i in range(n):
        nxt = step_ground_truth(w, P, rng)
        incs[i] = (nxt.obj_pos - w.obj_pos, nxt.obj_vel - w.obj_vel)
    cov = np.cov(incs.T, ddof=0)
    qs = process_noise_cov(P.dt, P.q_tilde).as_array()
    scale = np.sqrt(np.outer(np.diag(qs), np.diag(qs)))
    assert np.all(np.abs(cov - qs) < 0.05 * scale)


def test_relative_state_view():
    w = WorldState(80.0, 5.0, 30.0, 12.0, 3)
    rel = w.relative()
    assert rel.x == 50.0 and rel.v == -7.0


# ------------------------------------------------------------------ config

@pytest.mark.parametrize("kwargs", [
    dict(n_slots=1),
    dict(scheme="hover"),
    dict(init_est_std=(1.0,)),
    dict(init_mse=(1.0, -0.25)),
    dict(v_a_max=-3.0),
    dict(noise_scale=-0.1),
    dict(seed=-1),
    dict(seed=1.5),
    dict(init_obj_pos=math.inf),
    dict(init_obj_vel=math.nan),
    dict(init_uav_pos=-math.inf),
    dict(init_uav_vel=math.nan),
    dict(init_est_std=(math.inf, 0.5)),
    dict(init_mse=(1.0, math.nan)),
    dict(noise_scale=math.inf),
    dict(v_a_max=math.inf),
    dict(n_slots=5.5),
])
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ConfigError, match=next(iter(kwargs))):
        ScenarioConfig(**kwargs)


# ---------------------------------------------------------------- scenario

def test_run_scenario_emits_one_record_per_slot():
    recs = run_scenario(ScenarioConfig(n_slots=17), P)
    assert [r.slot for r in recs] == list(range(1, 18))
    assert all(r.t_s == pytest.approx(r.slot * P.dt) for r in recs)


def test_run_scenario_reproducible_and_seed_sensitive():
    cfg = ScenarioConfig(n_slots=12, seed=9)
    a = run_scenario(cfg, P)
    b = run_scenario(cfg, P)
    assert a == b
    c = run_scenario(replace(cfg, seed=10), P)
    assert a != c


def test_run_scenario_schemes_share_world_randomness():
    """Same seed, different controller: the object's own track (position
    plus platform offset) must coincide while the platform tracks differ."""
    a = run_scenario(ScenarioConfig(n_slots=10, scheme="proposed"), P)
    b = run_scenario(ScenarioConfig(n_slots=10, scheme="right_above"), P)
    for ra, rb in zip(a, b):
        assert ra.x_true + ra.x_uav == pytest.approx(rb.x_true + rb.x_uav, abs=1e-9)
    assert any(abs(ra.x_uav - rb.x_uav) > 1.0 for ra, rb in zip(a, b))


def test_proposed_tracks_toward_optimal_offset():
    recs = run_scenario(ScenarioConfig(), P)
    from uav_isac.optimize import solve_sp1
    x_star = solve_sp1(P).x_star
    tail = [r for r in recs if r.slot > 60]
    assert max(abs(r.x_true - x_star) for r in tail) < 5.0
    assert all(not r.flagged for r in recs)


def test_right_above_hovers_over_object():
    """The benchmark catches up and pins its design target to zero.

    The window stops at slot 45: parked overhead the Doppler carries no
    velocity information, so with enough slots the naive chase loop can
    lose the object again (that fragility is the scheme's documented
    weakness, not an accident of this run).
    """
    recs = run_scenario(ScenarioConfig(scheme="right_above", n_slots=45), P)
    caught = [r for r in recs if r.slot >= 20]
    assert all(r.x_breve == 0.0 for r in caught)
    assert all(abs(r.x_true) < 10.0 for r in caught)
    assert all(not r.flagged for r in recs)
    assert all(math.isinf(r.tr_mm) for r in caught)


def test_platform_respects_speed_limit():
    for scheme in ("proposed", "right_above"):
        recs = run_scenario(ScenarioConfig(scheme=scheme), P)
        assert all(abs(r.v_uav) <= P.v_a_max + 1e-9 for r in recs)
        prev_pos = ScenarioConfig().init_uav_pos
        for r in recs:
            assert abs(r.x_uav - prev_pos) <= P.v_a_max * P.dt + 1e-9
            prev_pos = r.x_uav


def test_speed_limit_override_slows_catchup():
    fast = run_scenario(ScenarioConfig(n_slots=10), P)
    slow = run_scenario(ScenarioConfig(n_slots=10, v_a_max=5.0), P)
    assert all(abs(r.v_uav) <= 5.0 + 1e-9 for r in slow)
    assert slow[-1].x_true > fast[-1].x_true  # caught up less


def test_flagged_fallback_moves_by_full_reach():
    # far outside the rate disc (x_c about 86 m, reach 6 m per slot)
    recs = run_scenario(ScenarioConfig(init_obj_pos=200.0), P)
    flagged = [r for r in recs if r.flagged]
    assert len(flagged) == 25
    reach = P.v_a_max * P.dt
    prev_pos = ScenarioConfig().init_uav_pos
    for r in recs:
        if r.flagged:
            assert abs(r.x_uav - prev_pos) == pytest.approx(reach, abs=1e-9)
            assert abs(r.v_uav) == pytest.approx(P.v_a_max, abs=1e-9)
        else:
            assert r.rate_bpshz >= P.gamma_c - 1e-9
        prev_pos = r.x_uav


def test_degenerate_window_holds_still_unflagged():
    recs = run_scenario(ScenarioConfig(n_slots=5, v_a_max=0.0), P)
    assert all(not r.flagged and r.x_uav == 0.0 for r in recs)


@pytest.mark.parametrize("cfg", [
    ScenarioConfig(n_slots=12),
    ScenarioConfig(n_slots=12, scheme="right_above"),
    ScenarioConfig(n_slots=12, init_obj_pos=200.0),
])
def test_records_hold_plain_floats(cfg):
    recs = run_scenario(cfg, P)
    names = [f.name for f in fields(simulate.SlotRecord) if f.name not in ("slot", "flagged")]
    for r in recs:
        for name in names:
            assert type(getattr(r, name)) is float, (r.slot, name)
    assert cfg.init_obj_pos != 200.0 or any(r.flagged for r in recs)


@pytest.mark.parametrize("scheme", ["proposed", "right_above"])
def test_one_prediction_per_slot(scheme, monkeypatch):
    calls = []
    predict = simulate.ekf.predict

    def counting(*args):
        calls.append(args)
        return predict(*args)
    monkeypatch.setattr(simulate.ekf, "predict", counting)
    recs = run_scenario(ScenarioConfig(n_slots=10, scheme=scheme), P)
    assert len(calls) == 11  # slot 0 plans slot 1; slots 1..10 each plan the next
    # the recorded predicted pair is the state the filter updated
    assert all(r.v_breve == (r.x_breve - prev.x_hat) / P.dt
               for prev, r in zip(recs, recs[1:]))


def test_unflagged_slots_meet_rate_target():
    recs = run_scenario(ScenarioConfig(), P)
    assert all(r.rate_bpshz >= P.gamma_c - 1e-9 for r in recs if not r.flagged)


def test_bound_columns_are_consistent():
    recs = run_scenario(ScenarioConfig(n_slots=30), P)
    for r in recs:
        assert 0.0 < r.pcrb_x_pred and 0.0 < r.pcrb_v_pred
        assert 0.0 < r.pcrb_x_actual and 0.0 < r.pcrb_v_actual
        assert r.weighted_actual == pytest.approx(
            P.alpha * r.pcrb_x_actual + (1 - P.alpha) * r.pcrb_v_actual, rel=1e-12)
        assert r.tr_mp > r.pcrb_x_pred  # prior trace dominates one component
        assert math.isfinite(r.tr_mm) and r.tr_mm > 0.0


def test_estimator_converges_in_quiet_conditions():
    cfg = ScenarioConfig(n_slots=12, seed=1, noise_scale=1e-6)
    recs = run_scenario(cfg, P)
    assert all(abs(r.x_hat - r.x_true) < 1e-2 for r in recs if r.slot > 5)
    assert all(abs(r.v_hat - r.v_true) < 1e-2 for r in recs if r.slot > 5)


def test_failure_context_names_slot():
    # an impossible rate target becomes infeasible at the first replan
    bad = replace(P, gamma_c=30.0)
    with pytest.raises(Exception) as exc_info:
        run_scenario(ScenarioConfig(), bad)
    assert "slot" in str(exc_info.value)


def test_zero_prediction_mse_is_refused_with_slot():
    # no process noise and a zero initial MSE leave nothing to invert
    cfg = ScenarioConfig(scheme="right_above", init_mse=(0.0, 0.0))
    with pytest.raises(NotPositiveDefiniteError, match=r"^slot 1: mse_pred"):
        run_scenario(cfg, SystemParams(q_tilde=0.0))


def test_slot_solver_bracket_error_propagates_with_slot(monkeypatch):
    def no_bracket(deriv_fn, lo, hi, tol, x0=None):
        raise BracketError("no sign change", -1.0, -1.0)
    monkeypatch.setattr(simulate.optimize, "_newton_bracketed", no_bracket)
    # early slots are window-end optima; the first interior one raises
    with pytest.raises(BracketError, match=r"^slot \d+: no sign change") as exc_info:
        run_scenario(ScenarioConfig(), P)
    assert exc_info.value.dg_lo == -1.0


# ------------------------------------------------------------- Monte Carlo

def test_monte_carlo_shapes_and_reduction():
    cfg = ScenarioConfig(n_slots=15)
    mc = run_monte_carlo(cfg, P, n_trials=3)
    assert isinstance(mc, MonteCarloStats)
    assert mc.n_trials == 3 and mc.n_slots == 15
    for stats in (mc.proposed, mc.right_above):
        for arr in (stats.weighted_actual_mean, stats.weighted_actual_std,
                    stats.rate_mean, stats.rate_std):
            assert arr.shape == (15,)
            assert np.all(np.isfinite(arr))

    # the reduction is exactly the per-trial mean with seeds seed+i
    manual = np.array([
        [r.weighted_actual for r in run_scenario(replace(cfg, seed=cfg.seed + i), P)]
        for i in range(3)
    ])
    assert np.array_equal(mc.proposed.weighted_actual_mean, manual.mean(axis=0))
    assert np.array_equal(mc.proposed.weighted_actual_std, manual.std(axis=0, ddof=0))


def test_monte_carlo_rejects_nonpositive_trials():
    with pytest.raises(ConfigError):
        run_monte_carlo(ScenarioConfig(), P, n_trials=0)
