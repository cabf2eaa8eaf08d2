import importlib
import math
import pkgutil
import re
import sys
from collections import Counter
from dataclasses import astuple, fields, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import numpy_calls
import oracles
import uav_isac
from uav_isac import ekf, optimize, sensing, simulate
from uav_isac.errors import (
    BracketError,
    ConfigError,
    NotPositiveDefiniteError,
    SingularMatrixError,
    UavIsacError,
    VelocityBoundError,
)
from uav_isac.params import SystemParams, process_noise_cov
from uav_isac.simulate import (
    MonteCarloStats,
    ScenarioConfig,
    process_noise_factor,
    run_monte_carlo,
    run_scenario,
    step_ground_truth,
)

P = SystemParams()


# ------------------------------------------------------------ ground truth

def test_step_ground_truth_noiseless_is_constant_velocity():
    quiet = replace(P, q_tilde=0.0)
    z0, z1 = np.random.default_rng(41).standard_normal(2).tolist()
    assert step_ground_truth(80.0, 5.0, z0, z1, P.dt, process_noise_factor(quiet)) == (
        80.0 + 5.0 * P.dt, 5.0)


def test_step_ground_truth_draws_two_even_when_noiseless():
    # the loop takes five draws a slot at any q_tilde: the records at
    # q_tilde = 0 are those of the public steps drawing two, then three
    cfg, quiet = ScenarioConfig(n_slots=20, scheme="right_above"), replace(P, q_tilde=0.0)
    _same_records(run_scenario(cfg, quiet), oracles.scenario_by_public_steps(cfg, quiet))


def test_step_ground_truth_increment_covariance():
    n = 20000
    z = np.random.default_rng(43).standard_normal((n, 2)).T  # n steps' draws, in stream order
    incs = np.array(step_ground_truth(0.0, 0.0, *z, P.dt, process_noise_factor(P)))
    cov = np.cov(incs, ddof=0)
    qs = oracles.sym_matrix(process_noise_cov(P.dt, P.q_tilde))
    scale = np.sqrt(np.outer(np.diag(qs), np.diag(qs)))
    assert np.all(np.abs(cov - qs) < 0.05 * scale)


# ------------------------------------------------------------------ config

@pytest.mark.parametrize("kwargs", [
    dict(n_slots=1),
    dict(scheme="hover"),
    dict(init_est_std=(1.0,)),
    dict(init_mse=(1.0, -0.25)),
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
    slow = run_scenario(ScenarioConfig(n_slots=10), replace(P, v_a_max=5.0))
    assert all(abs(r.v_uav) <= 5.0 + 1e-9 for r in slow)
    assert slow[-1].x_true > fast[-1].x_true  # caught up less


def test_flagged_fallback_moves_by_full_reach():
    # far outside the rate disc (x_c about 86 m, reach 6 m per slot)
    cfg = ScenarioConfig(init_obj_pos=200.0)
    recs = run_scenario(cfg, P)
    flagged = [r for r in recs if r.flagged]
    assert len(flagged) == 25
    x_c = simulate.optimize.qos_radius(P)
    assert all(r.flagged == (abs(r.x_breve) > x_c) for r in recs)
    reach = P.v_a_max * P.dt
    prev_pos = cfg.init_uav_pos
    for r in recs:
        if r.flagged:
            assert abs(r.x_uav - prev_pos) == pytest.approx(reach, abs=1e-9)
            assert abs(r.v_uav) == pytest.approx(P.v_a_max, abs=1e-9)
        else:
            assert r.rate_bpshz >= P.gamma_c - 1e-9
        prev_pos = r.x_uav
    # the benchmark targets outside the disc too, but is never flagged
    chase = run_scenario(replace(cfg, scheme="right_above"), P)
    assert any(abs(r.x_breve) > x_c for r in chase)
    assert not any(r.flagged for r in chase)


def test_degenerate_window_holds_still_unflagged():
    recs = run_scenario(ScenarioConfig(n_slots=5), replace(P, v_a_max=0.0))
    assert all(not r.flagged and r.x_uav == 0.0 for r in recs)


@pytest.mark.parametrize("scheme", ["proposed", "right_above"])
@pytest.mark.parametrize("params", [P, replace(P, v_a_max=0.0), replace(P, gamma_c=12.0)],
                         ids=["default", "touching_point", "flagged_fallback"])
def test_target_rule_gives_the_same_target_on_floats_as_on_a_row(scheme, params):
    # one rule per scheme takes one trial's floats and a block of rows; the
    # edge etas sit on and next to the reach (a subnormal where it is 0)
    rule = simulate._TARGET_RULES[scheme]
    r = params.reach
    edges = [0.0, -0.0, math.inf, -math.inf, math.nan]
    for e in (r, math.nextafter(r, math.inf), math.nextafter(r, -math.inf)):
        edges += [e, -e]
    rng = np.random.default_rng(33)
    for eta in edges + rng.uniform(-120.0, 120.0, 40).tolist():
        x_hat = eta + float(rng.normal())
        m11, m22 = rng.uniform(0.1, 5.0, 2).tolist()
        m12 = float(rng.uniform(-0.9, 0.9)) * math.sqrt(m11 * m22)
        row = [np.array([v]) for v in (eta, x_hat, m11, m12, m22)]
        with np.errstate(over="ignore", invalid="ignore"):  # as in the slot loop
            got = rule(eta, x_hat, (m11, m12, m22), params)
            (want,) = rule(row[0], row[1], row[2:], params).tolist()
        assert type(got) is float and repr(got) == repr(want), eta
        if scheme == "right_above":  # the chase, saturating at the reach
            assert repr(got) == repr(0.0 if abs(eta) <= r else eta - math.copysign(r, eta))


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
    assert len(calls) == 10  # slot 0 plans slot 1; slots 1..9 each plan the next
    # the recorded predicted pair is the state the filter updated
    assert all(r.v_breve == (r.x_breve - prev.x_hat) / P.dt
               for prev, r in zip(recs, recs[1:]))


def test_slot_loop_operation_counts(monkeypatch):
    """One draw call per run; per slot, one inversion of the prediction
    MSE, one of the posterior information and one Fisher pass (the
    update's); then one column pass per run, whose two Fisher passes (at
    the true states and at the plans) each take every slot at once."""
    counts = Counter()

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            first = args[0]["x_true"] if isinstance(args[0], dict) else args[0]
            counts[name + (" batched" if isinstance(first, np.ndarray) else "")] += 1
            return fn(*args, **kwargs)
        return wrapped

    class CountingGenerator:
        def __init__(self, rng):
            self.rng = rng

        def standard_normal(self, *args):
            counts["standard_normal"] += 1
            return self.rng.standard_normal(*args)

    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed: CountingGenerator(default_rng(seed)))
    monkeypatch.setattr(simulate.ekf, "inverse", counting("inverse", simulate.ekf.inverse))
    monkeypatch.setattr(simulate.ekf, "_fisher_terms",
                        counting("_fisher_terms", simulate.ekf._fisher_terms))
    monkeypatch.setattr(simulate, "_record_columns",
                        counting("_record_columns", simulate._record_columns))
    run_scenario(ScenarioConfig(n_slots=10, scheme="right_above"), P)
    assert counts == {"inverse": 20, "_fisher_terms": 10, "_fisher_terms batched": 2,
                      "_record_columns batched": 1, "standard_normal": 1}


def test_slot_loop_value_object_budget(monkeypatch):
    """The loop carries plain values from step to step, every 2x2 matrix
    an entry triple: a right-above or proposed float slot builds no
    instance of any package class but its SlotRecord."""
    counts = Counter()

    def counting(cls):
        init = cls.__init__

        def wrapped(self, *args, **kwargs):
            counts[cls.__name__] += 1
            init(self, *args, **kwargs)
        return wrapped

    P.process_noise  # cached before counting
    cfgs = [ScenarioConfig(n_slots=10, scheme=scheme) for scheme in ("right_above", "proposed")]
    modules = [importlib.import_module(f"uav_isac.{m.name}")
               for m in pkgutil.iter_modules(uav_isac.__path__)]
    classes = {cls for mod in modules for cls in vars(mod).values()
               if isinstance(cls, type) and cls.__module__.startswith("uav_isac.")}
    assert {"P1Instance", "SlotRecord", "SystemParams"} <= {cls.__name__ for cls in classes}
    for cls in classes:
        monkeypatch.setattr(cls, "__init__", counting(cls))
    for cfg in cfgs:
        run_scenario(cfg, P)
        assert counts == {"SlotRecord": 10}, cfg.scheme
        counts.clear()


@pytest.mark.parametrize("scheme, calls", [("right_above", 1), ("proposed", 21)])
def test_passing_float_checks_make_no_call(scheme, calls, monkeypatch):
    """A float check that passes costs an identity test and no call of
    raise_at_first: a 10-slot right-above run calls it once, in the column
    pass on arrays, and a proposed run 20 more times, in its one-row slot
    solve (51 and 71 when every check made one call)."""
    seen = []

    def counting(raise_at_first):
        def wrapped(bad, *args):
            seen.append(bad)
            raise_at_first(bad, *args)
        return wrapped

    for mod in (ekf, sensing, optimize, simulate):
        monkeypatch.setattr(mod, "raise_at_first", counting(mod.raise_at_first))
    run_scenario(ScenarioConfig(n_slots=10, scheme=scheme), P)
    assert len(seen) == calls
    assert all(isinstance(bad, np.ndarray) for bad in seen)


def _package_calls(n_slots):
    """The package functions a right-above run of n_slots slots calls, by
    name, with their call counts (sys.setprofile's call events)."""
    calls, package = Counter(), uav_isac.__path__[0]

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(package):
            calls[frame.f_code.co_name] += 1
    sys.setprofile(profile)
    try:
        run_scenario(ScenarioConfig(n_slots=n_slots, scheme="right_above"), P)
    finally:
        sys.setprofile(None)
    return calls


def test_float_slot_package_calls():
    # one float slot's calls, from the difference of a 20-slot and a
    # 10-slot run; the update reads its mean and Jacobian from one linearize
    few, many = _package_calls(10), _package_calls(20)
    per_slot = {name: (many[name] - few[name]) / 10 for name in many if many[name] != few[name]}
    assert per_slot == {
        "_plan": 1, "predict": 1, "_target_right_above": 1, "design_trajectory": 1,
        "step_ground_truth": 1, "noise_weights": 1, "measured_variances": 1,
        "prior_information": 1, "inverse": 2, "sample_measurement": 1, "measure_mean": 1,
        "update": 1, "linearize": 1, "_fisher_terms": 1, "_add_information": 1}
    assert sum(per_slot.values()) == 16


@pytest.mark.parametrize("scheme", ["proposed", "right_above"])
def test_each_loop_makes_one_column_pass_per_run(scheme, monkeypatch):
    shapes = []
    columns = simulate._record_columns

    def counting(*args):
        shapes.append(args[0].shape)
        return columns(*args)
    monkeypatch.setattr(simulate, "_record_columns", counting)
    run_scenario(ScenarioConfig(n_slots=10, scheme=scheme), P)
    _lockstep_columns(ScenarioConfig(n_slots=10), P, scheme, 3)
    run_monte_carlo(ScenarioConfig(n_slots=10), P, 3)
    kept = len(simulate.KEPT)
    assert shapes == [(10, kept), (10, kept, 3), (10, kept, 6)]


def _with_zero_information_at(entries):
    """simulate._record_columns with the weights and the prior
    information zeroed at the given (slot index, row) entries, so that
    the actual bound's information there is singular."""
    columns = simulate._record_columns

    def zeroed(kept, params):
        mask = np.zeros(kept.shape[:1] + kept.shape[2:], dtype=bool)
        for entry in entries:
            mask[entry[:mask.ndim]] = True
        kept = kept.copy()
        for name in ("w1", "w2", "w3", "prior_m11", "prior_m12", "prior_m22"):
            kept[:, simulate.KEPT.index(name)][mask] = 0.0
        return columns(kept, params)
    return zeroed


def test_column_pass_refuses_a_zero_divisor_at_the_earliest_slot(monkeypatch):
    monkeypatch.setattr(simulate, "_record_columns", _with_zero_information_at([(6,), (3,)]))
    with pytest.raises(SingularMatrixError, match=r"^slot 4: a record bound at x = ") as exc_info:
        run_scenario(ScenarioConfig(n_slots=10, scheme="right_above"), P)
    assert not hasattr(exc_info.value, "batch_index")


def test_lockstep_column_pass_names_the_trial_of_a_zero_divisor(monkeypatch):
    # slot 4 fails on right-above trials 2 and 1 (rows 5 and 4 of the
    # 3 + 3); slot 7 fails on a lower row, but later
    monkeypatch.setattr(simulate, "_record_columns",
                        _with_zero_information_at([(6, 0), (3, 5), (3, 4)]))
    with pytest.raises(SingularMatrixError, match=r"^trial 1 \(seed 6\), slot 4: a record bound"
                       ) as exc_info:
        run_monte_carlo(ScenarioConfig(n_slots=10, seed=5), P, n_trials=3)
    assert exc_info.value.batch_index == 1


@pytest.mark.parametrize("scheme", ["proposed", "right_above"])
def test_plan_without_position_information_is_refused(scheme):
    # an estimate 1e100 m off plans x_breve where the modelled weights
    # underflow, so the measurement-only position bound divides by zero
    cfg = ScenarioConfig(n_slots=5, scheme=scheme, init_est_std=(1e100, 0.0))
    with pytest.raises(SingularMatrixError, match=r"^slot 1: a record bound at .* divides by zero"):
        run_scenario(cfg, P)


def test_proposed_slot_inverts_the_prediction_mse_twice(monkeypatch):
    """Every inversion, counted by path: the proposed rule inverts the
    one-row prediction MSE of each slot it plans (10 plans for 10 slots),
    and the slot loop inverts that prediction MSE again, on floats, then
    the posterior information: 2 float inversions per slot.  The rule's
    prior information is not reused."""
    inverses = []
    inverse = simulate.ekf.inverse

    def recording(m11, m12, m22, det=None):
        inverses.append((m11, m12, m22))
        return inverse(m11, m12, m22, det)
    monkeypatch.setattr(simulate.ekf, "inverse", recording)
    recs = run_scenario(ScenarioConfig(n_slots=10, scheme="proposed"), P)
    assert not any(r.flagged for r in recs)
    rows = [m for m in inverses if isinstance(m[0], np.ndarray)]
    floats = [m for m in inverses if not isinstance(m[0], np.ndarray)]
    assert len(rows) == 10 and all(m[0].shape == (1,) for m in rows)
    assert len(floats) == 20
    # per slot: the plan's one-row inversion, then the loop's two
    assert [isinstance(m[0], np.ndarray) for m in inverses] == [True, False, False] * 10
    for row, prior, rec in zip(rows, floats[::2], recs):
        assert [mij.tolist() for mij in row] == [[mij] for mij in prior]
        assert prior[0] + prior[2] == rec.tr_mp


@pytest.mark.parametrize("scheme", ["proposed", "right_above"])
@pytest.mark.parametrize("mse_pred, w, error", [
    ((-1.0, 0.0, -1.0), (1.0, 1.0, 1.0), NotPositiveDefiniteError),
    ((1.0, 0.0, 0.25), (math.inf, 1e20, 5.0), SingularMatrixError),
], ids=["negative_prior", "infinite_weight"])
def test_public_steps_refuse_what_the_loop_refuses(mse_pred, w, error, scheme, monkeypatch):
    # ekf.update checks nothing; the public checks before it refuse each
    # input with the type and message the slot loop gives it
    y = sensing.measure_mean(31.0, 5.0, P)
    ekf.update(31.0, 5.0, mse_pred, w, y, P)
    with pytest.raises(error) as steps:
        sensing.measured_variances(w)
        ekf.update(31.0, 5.0, ekf.prior_information(mse_pred), w, y, P)
    monkeypatch.setattr(simulate.ekf, "predict", lambda m, params: mse_pred)
    monkeypatch.setattr(simulate.sensing, "noise_weights", lambda x, params: w)
    with pytest.raises(error) as loop:
        run_scenario(ScenarioConfig(n_slots=5, scheme=scheme), P)
    assert type(loop.value) is type(steps.value)
    assert re.fullmatch(rf"slot \d+: {re.escape(str(steps.value))}", str(loop.value)), \
        (loop.value, steps.value)


def _same_records(a, b):
    """Records equal field by field, NaN cells matching NaN cells."""
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        for fa, fb in zip(astuple(ra), astuple(rb)):
            assert type(fa) is type(fb) and (fa == fb or (fa != fa and fb != fb)), (ra, rb)


@pytest.mark.parametrize("scheme", ["proposed", "right_above"])
@pytest.mark.parametrize("cfg, params", [
    *((ScenarioConfig(seed=seed), P) for seed in range(10)),
    (ScenarioConfig(init_obj_pos=200.0), P),             # flagged fallback
    (ScenarioConfig(n_slots=5), replace(P, v_a_max=0.0)),  # degenerate window
    (ScenarioConfig(noise_scale=0.0), P),
    (ScenarioConfig(), replace(P, alpha=0.0)),
    (ScenarioConfig(), replace(P, alpha=1.0)),
], ids=[*(f"seed{seed}" for seed in range(10)),
        "flagged", "degenerate", "noiseless", "alpha0", "alpha1"])
def test_run_scenario_matches_public_step_oracle(cfg, params, scheme):
    cfg = replace(cfg, scheme=scheme)
    _same_records(run_scenario(cfg, params), oracles.scenario_by_public_steps(cfg, params))


@pytest.mark.parametrize("cfg, params", [
    (ScenarioConfig(init_obj_pos=1e200), P),           # the weights underflow to 0
    (ScenarioConfig(init_obj_pos=-1e160, scheme="right_above"), P),
    (ScenarioConfig(init_est_std=(1e200, 0.0), scheme="right_above"), P),  # NaN geometry
    (ScenarioConfig(init_est_std=(1e200, 0.0)), P),    # NaN prediction MSE
    (ScenarioConfig(init_mse=(0.0, 0.0), scheme="right_above"), SystemParams(q_tilde=0.0)),
    # the angle weight is NaN (inf * 0) and the delay and Doppler weights 0
    (ScenarioConfig(), SystemParams(h_alt=1e150)),
    (ScenarioConfig(scheme="right_above"), SystemParams(h_alt=1e150)),
], ids=["far", "far_behind", "nan_geometry", "nan_mse", "zero_mse", "h_alt_1e150-proposed",
        "h_alt_1e150-right_above"])
def test_run_scenario_refuses_as_public_step_oracle(cfg, params):
    with pytest.raises(UavIsacError) as loop:
        run_scenario(cfg, params)
    with pytest.raises(type(loop.value)) as steps:
        oracles.scenario_by_public_steps(cfg, params)
    assert type(steps.value) is type(loop.value)
    assert re.fullmatch(rf"slot \d+: {re.escape(str(steps.value))}", str(loop.value)), \
        (loop.value, steps.value)
    assert not hasattr(loop.value, "batch_index")  # one trial has no rows


def test_one_solve_per_slot(monkeypatch):
    # run_scenario's slot solve is the batched one, on one row
    calls = []
    solve = simulate.optimize.solve_p1_each

    def counting(lo, *args):
        calls.append(lo.shape)
        return solve(lo, *args)
    monkeypatch.setattr(simulate.optimize, "solve_p1_each", counting)
    recs = run_scenario(ScenarioConfig(n_slots=12), P)
    assert not any(r.flagged for r in recs)
    assert calls == [(1,)] * 12  # no plan after the last slot


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


@pytest.mark.parametrize("cfg, slot", [
    (ScenarioConfig(init_obj_pos=1e200), 1),           # the weights underflow to 0
    (ScenarioConfig(init_obj_pos=-1e160, scheme="right_above"), 1),
    (ScenarioConfig(init_est_std=(1e200, 0.0), scheme="right_above"), 2),  # NaN geometry
])
def test_unmeasurable_geometry_is_refused_as_in_lockstep(cfg, slot):
    with pytest.raises(SingularMatrixError, match=rf"^slot {slot}: noise variances") as scalar:
        run_scenario(cfg, P)
    # the arrays overflow on the way there, which numpy reports as a warning
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(SingularMatrixError) as batched:
        _lockstep_columns(cfg, P, cfg.scheme, 1)
    assert str(batched.value).endswith(str(scalar.value)), (scalar.value, batched.value)


@pytest.mark.parametrize("cfg, scheme, params", [
    (ScenarioConfig(init_obj_pos=1e200), "proposed", P),
    (ScenarioConfig(init_obj_pos=-1e160), "right_above", P),
    (ScenarioConfig(init_est_std=(1e200, 0.0)), "right_above", P),
    (ScenarioConfig(init_est_std=(1e200, 0.0)), "proposed", P),   # NaN prediction MSE
    # a zero prediction MSE and an unreachable rate target: the MSE is refused first
    (ScenarioConfig(init_mse=(0.0, 0.0)), "proposed", SystemParams(q_tilde=0.0, gamma_c=30.0)),
    # right-above refuses a zero prediction MSE at the update of slot 1
    (ScenarioConfig(init_mse=(0.0, 0.0)), "right_above", SystemParams(q_tilde=0.0)),
    # a plan 1e79 m out overflows tr_mm; 1e99 m out has no position information
    (ScenarioConfig(init_est_std=(1e80, 0.0)), "proposed", P),
    (ScenarioConfig(init_est_std=(1e80, 0.0)), "right_above", P),
    (ScenarioConfig(n_slots=5, init_est_std=(1e100, 0.0)), "proposed", P),
    (ScenarioConfig(n_slots=5, init_est_std=(1e100, 0.0)), "right_above", P),
    # a plan 1e59 m out overflows tr_mm at slot 1; later chases a full
    # reach from eta ~ 1e17 m, which rounds to more than one reach
    (ScenarioConfig(init_est_std=(1e60, 0.0)), "proposed", P),
    (ScenarioConfig(init_est_std=(1e60, 0.0)), "right_above", P),
], ids=["cfg0-proposed", "cfg1-right_above", "cfg2-right_above", "cfg3-proposed",
        "zero_mse_and_qos-proposed", "zero_mse-right_above", "overflow-proposed",
        "overflow-right_above", "no_position_information-proposed",
        "no_position_information-right_above", "reach_rounding-proposed",
        "reach_rounding-right_above"])
def test_lockstep_refuses_far_geometry_as_run_scenario(cfg, scheme, params):
    # the arrays overflow on the way, which must not surface as a
    # RuntimeWarning (an error under this suite's warning filter)
    with pytest.raises(UavIsacError) as scalar:
        run_scenario(replace(cfg, scheme=scheme), params)
    with pytest.raises(type(scalar.value)) as batched:
        _lockstep_columns(cfg, params, scheme, 1)
    assert str(batched.value) == f"trial 0 (seed 0), {scalar.value}"


def test_monte_carlo_refuses_far_geometry_as_run_scenario():
    with pytest.raises(SingularMatrixError, match=re.escape(
            "trial 0 (seed 0), slot 1: noise variances (inf, inf, inf) need finite positive "
            "reciprocals")):
        run_monte_carlo(ScenarioConfig(init_obj_pos=1e200), P, 1)


@pytest.mark.parametrize("scheme", ["proposed", "right_above"])
def test_reach_rounding_does_not_hide_the_first_refusal(scheme):
    # the estimate 1e60 m off overflows slot 1's tr_mm; at slot 79 the
    # chase asks for a full reach from |eta| ~ 7e16 m, where floats are
    # 8 m apart, which the reach check must accept, so slot 1 is named
    # (the lockstep agrees: test_lockstep_refuses_far_geometry_as_run_scenario)
    cfg = ScenarioConfig(scheme=scheme, init_est_std=(1e60, 0.0))
    with pytest.raises(SingularMatrixError, match=r"^slot 1: a record bound at .* overflows"):
        run_scenario(cfg, P)


def test_monte_carlo_reach_rounding_does_not_hide_the_first_refusal():
    # trial 1 asks for a full reach that rounds at slot 45; slot 1 comes first
    with pytest.raises(SingularMatrixError, match=r"^trial 0 \(seed 0\), slot 1: a record bound"
                       ) as exc_info:
        run_monte_carlo(ScenarioConfig(init_est_std=(1e60, 0.0)), P, 3)
    assert exc_info.value.batch_index == 0


def test_monte_carlo_refuses_a_plan_without_position_information():
    # the lockstep computes the planned bound too, whose divisor is zero here
    with pytest.raises(SingularMatrixError,
                       match=r"^trial 0 \(seed 0\), slot 1: a record bound at .* divides by zero"):
        run_monte_carlo(ScenarioConfig(n_slots=5, init_est_std=(1e100, 0.0)), P, 2)


def test_slot_solver_bracket_error_propagates_with_slot(monkeypatch):
    def no_bracket(deriv_fn, lo, hi, tol, x0, active):
        raise BracketError("no sign change", -1.0, -1.0)
    monkeypatch.setattr(simulate.optimize, "_newton_bracketed_each", no_bracket)
    # early slots are window-end optima; the first interior one raises
    with pytest.raises(BracketError, match=r"^slot \d+: no sign change") as exc_info:
        run_scenario(ScenarioConfig(), P)
    assert exc_info.value.dg_lo == -1.0


def test_slot_solve_needs_a_sign_change_on_its_cell_only(monkeypatch):
    # at alpha = 1 with the object starting beneath the platform, the plan
    # made at slot 2 has its minimizer (about -0.131 m) in the grid cell
    # left of the grid minimum, while a local maximum (about 0.071 m)
    # makes f' negative at the grid minimum's right neighbour too
    params = SystemParams(alpha=1.0)
    solves = []
    solve = simulate.optimize.solve_p1_each

    def recording(*args):
        result = solve(*args)
        solves.append((args, float(result[0][0])))
        return result
    monkeypatch.setattr(simulate.optimize, "solve_p1_each", recording)
    run_scenario(ScenarioConfig(seed=1, init_obj_pos=0.0, init_obj_vel=0.0), params)
    (lo, hi, x_hat_prev, prior, _, _), x = solves[2]

    def slope(t):
        return simulate.optimize.objective_f(t, float(x_hat_prev[0]),
                                             tuple(float(mij[0]) for mij in prior), params)[1]
    xs = np.linspace(lo[0], hi[0], simulate.optimize.P1_GRID_POINTS)
    i = int(np.searchsorted(xs, x))
    a, b = float(xs[i - 1]), float(xs[i])
    assert slope(a) < 0.0 < slope(b)
    for _ in range(100):  # bisection of f' on the cell that holds x
        mid = 0.5 * (a + b)
        a, b = (mid, b) if slope(mid) < 0.0 else (a, mid)
    assert abs(x - a) < 1e-6 and -0.14 < x < -0.12


def test_slot_solve_brackets_toward_lower_f_where_its_cell_holds_a_maximum(monkeypatch):
    # at alpha = 1 from 5 m, the plan made at slot 1 has a grid cell left of
    # the grid minimum (about 0.087 m) that holds a local maximum of f
    # (about -0.099 m) as well as the minimizer (about 0.085 m), so f' is
    # positive at both its ends; the solve brackets from the grid minimum
    # toward lower f instead of refusing the cell
    params = SystemParams(alpha=1.0)
    plans = []
    rule = simulate._TARGET_RULES["proposed"]

    def recording(*args):
        plans.append(args)
        return rule(*args)
    monkeypatch.setitem(simulate._TARGET_RULES, "proposed", recording)
    recs = run_scenario(ScenarioConfig(seed=21, init_obj_pos=5.0), params)
    inst = simulate.optimize.P1Instance(*plans[1])
    res = simulate.optimize.solve_p1_sca(inst)
    assert repr(res) == repr(oracles.p1_by_scalar_steps(inst))
    x, (x_grid, _) = res.x_breve_opt, res.trace[0]
    assert recs[1].x_breve == x

    def slope(t):
        return simulate.optimize.objective_f(t, inst.x_hat_prev, inst._prior_info, inst.params)[1]
    xs = np.linspace(inst.lo, inst.hi, simulate.optimize.P1_GRID_POINTS)
    k = int(np.searchsorted(xs, x_grid))
    assert xs[k] == x_grid and slope(float(xs[k - 1])) > 0.0 < slope(x_grid)
    a, b = x - 1e-4, x_grid
    assert slope(a) < 0.0 < slope(b)
    for _ in range(100):  # bisection of f' on a bracket of x
        mid = 0.5 * (a + b)
        a, b = (mid, b) if slope(mid) < 0.0 else (a, mid)
    assert abs(x - a) < 1e-6 and 0.084 < x < 0.086


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
    # lockstep arrays and scalar runs differ by numpy/math transcendental ulps
    np.testing.assert_allclose(mc.proposed.weighted_actual_mean, manual.mean(axis=0), rtol=1e-12)
    np.testing.assert_allclose(mc.proposed.weighted_actual_std, manual.std(axis=0, ddof=0),
                               rtol=1e-12)


def test_monte_carlo_rejects_nonpositive_trials():
    with pytest.raises(ConfigError):
        run_monte_carlo(ScenarioConfig(), P, n_trials=0)


@pytest.mark.parametrize("n_trials", [-3, 2.5, "3", None])
def test_monte_carlo_rejects_bad_trial_counts(n_trials):
    with pytest.raises(ConfigError, match="n_trials"):
        run_monte_carlo(ScenarioConfig(), P, n_trials=n_trials)


@pytest.mark.parametrize("kwargs", [dict(seed=True), dict(seed=False), dict(n_slots=True)])
def test_config_refuses_bool_counts(kwargs):
    with pytest.raises(ConfigError, match=next(iter(kwargs))):
        ScenarioConfig(**kwargs)


def test_config_and_monte_carlo_take_numpy_integers():
    cfg = ScenarioConfig(n_slots=np.int64(5), seed=np.uint8(4))
    assert run_monte_carlo(cfg, P, np.int32(2)).n_trials == 2


def test_monte_carlo_refuses_bool_trial_count():
    with pytest.raises(ConfigError, match="n_trials must be an integer >= 1, got True"):
        run_monte_carlo(ScenarioConfig(n_slots=5), P, True)


def test_batched_slot_solve_evaluation_budget(monkeypatch):
    # one (n, 3) bracket evaluation plus one Newton round from the quintic
    # start; the sign checks and the window-end test cost nothing extra
    counts = {"jet": 0, "solves": 0}
    jet, solve = simulate.optimize.objective_f, simulate.optimize.solve_p1_each

    def counting_jet(*args):
        counts["jet"] += 1
        return jet(*args)

    def counting_solve(*args):
        counts["solves"] += 1
        return solve(*args)
    monkeypatch.setattr(simulate.optimize, "objective_f", counting_jet)
    monkeypatch.setattr(simulate.optimize, "solve_p1_each", counting_solve)
    run_monte_carlo(ScenarioConfig(), P, 10)
    assert counts["solves"] == 100
    assert counts["solves"] <= counts["jet"] <= 2 * counts["solves"]


def test_ac09_slot_solves_take_one_newton_round(monkeypatch):
    # the quintic start lands within the step tolerance of every trial's
    # root, so no batched solve waits on a straggler
    rounds = []
    newton = simulate.optimize._newton_bracketed_each

    def counting(*args):
        x, n = newton(*args)
        rounds.append(n)
        return x, n
    monkeypatch.setattr(simulate.optimize, "_newton_bracketed_each", counting)
    run_monte_carlo(ScenarioConfig(), P, 50)
    assert len(rounds) > 90 and set(rounds) == {1}


def test_lockstep_numpy_call_budget():
    # a short two-scheme lockstep: per slot the weight check, the prior
    # information, the slot solve, the update and the plan
    cfg = ScenarioConfig(n_slots=10)
    draws = np.stack([np.random.default_rng(i).standard_normal(2 + 5 * cfg.n_slots)
                      for i in range(2)])
    cols, calls = numpy_calls.count_calls(simulate._run_lockstep, cfg, P,
                                          ("proposed", "right_above"),
                                          draws.view(numpy_calls.Counted))
    assert calls <= 5290
    want = simulate._run_lockstep(cfg, P, ("proposed", "right_above"), draws)
    assert all(cols[name].view(np.ndarray).tolist() == want[name].tolist() for name in want)


def test_column_pass_numpy_call_budget(monkeypatch):
    # one trial's column pass: the two Fisher passes, the bounds and the
    # rate, and one finiteness check of the kept record columns in the
    # array that holds them
    kept = []
    columns = simulate._record_columns

    def keeping(*args):
        kept.append(args[0])
        return columns(*args)
    monkeypatch.setattr(simulate, "_record_columns", keeping)
    run_scenario(ScenarioConfig(n_slots=10, scheme="right_above"), P)
    cols, calls = numpy_calls.count_calls(columns, kept[0].view(numpy_calls.Counted), P)
    assert calls <= 100
    want = columns(kept[0], P)
    assert all(cols[name].view(np.ndarray).tolist() == want[name].tolist() for name in want)


def _lockstep_columns(cfg, params, scheme, n_trials):
    draws = np.stack([np.random.default_rng(cfg.seed + i).standard_normal(2 + 5 * cfg.n_slots)
                      for i in range(n_trials)])
    return simulate._run_lockstep(cfg, params, (scheme,), draws)


@pytest.mark.parametrize("scheme", ["proposed", "right_above"])
@pytest.mark.parametrize("cfg, params", [
    (ScenarioConfig(), P),
    (ScenarioConfig(init_obj_pos=200.0), P),             # flagged fallback
    (ScenarioConfig(n_slots=5), replace(P, v_a_max=0.0)),  # degenerate window
    (ScenarioConfig(noise_scale=0.0), P),
    (ScenarioConfig(), replace(P, alpha=0.0)),
    (ScenarioConfig(), replace(P, alpha=1.0)),
    # trial 0's plan at slot 1 has a grid cell that holds a maximum of f
    (ScenarioConfig(seed=21, init_obj_pos=5.0), replace(P, alpha=1.0)),
], ids=["default", "flagged", "degenerate", "noiseless", "alpha0", "alpha1", "seed21_alpha1"])
def test_lockstep_matches_run_scenario(cfg, params, scheme):
    n_trials = 20
    cols = _lockstep_columns(cfg, params, scheme, n_trials)
    assert tuple(cols) == simulate.RECORD_COLUMNS
    assert all(col.shape == (n_trials, cfg.n_slots) for col in cols.values())
    for i in range(n_trials):
        recs = run_scenario(replace(cfg, seed=cfg.seed + i, scheme=scheme), params)
        for name, col in cols.items():
            np.testing.assert_allclose(col[i], [getattr(r, name) for r in recs], rtol=1e-9,
                                       err_msg=name)
    if cfg.init_obj_pos == 200.0 and scheme == "proposed":
        assert any(r.flagged for r in run_scenario(cfg, params))


@pytest.mark.parametrize("cfg, params", [
    (ScenarioConfig(), P),
    (ScenarioConfig(init_obj_pos=200.0), P),             # flagged fallback
    (ScenarioConfig(n_slots=5), replace(P, v_a_max=0.0)),  # degenerate window
], ids=["default", "flagged", "degenerate"])
def test_monte_carlo_batch_equals_single_scheme_runs(cfg, params):
    """Both schemes advance as one batch, and each scheme's rows are its
    single-scheme lockstep run bit for bit."""
    n_trials = 20
    draws = np.stack([np.random.default_rng(cfg.seed + i).standard_normal(2 + 5 * cfg.n_slots)
                      for i in range(n_trials)])
    both = simulate._run_lockstep(cfg, params, ("proposed", "right_above"), draws)
    mc = run_monte_carlo(cfg, params, n_trials)
    for j, (scheme, stats) in enumerate((("proposed", mc.proposed),
                                         ("right_above", mc.right_above))):
        rows = slice(j * n_trials, (j + 1) * n_trials)
        cols = simulate._run_lockstep(cfg, params, (scheme,), draws)
        assert all(np.array_equal(both[name][rows], col) for name, col in cols.items())
        w, r = cols["weighted_actual"], cols["rate_bpshz"]
        assert np.array_equal(stats.weighted_actual_mean, w.mean(axis=0))
        assert np.array_equal(stats.weighted_actual_std, w.std(axis=0))
        assert np.array_equal(stats.rate_mean, r.mean(axis=0))
        assert np.array_equal(stats.rate_std, r.std(axis=0))


def _failing_at(rule, slot, trial):
    """rule with trial asking for more than one slot's reach when it
    plans at slot (the call that plans slot + 1)."""
    calls = []

    def failing(eta, x_hat, prior_info, params):
        x_breve = rule(eta, x_hat, prior_info, params)
        if len(calls) == slot:
            x_breve[trial] += 100.0
        calls.append(slot)
        return x_breve
    return failing


@pytest.mark.parametrize("proposed, right_above, want", [
    ((3, 1), (1, 2), ("right_above", 1, 2)),   # the earliest slot first
    ((1, 3), (3, 0), ("proposed", 1, 3)),
    ((2, 3), (2, 0), ("proposed", 2, 3)),      # one slot: the lowest row first
])
def test_monte_carlo_error_order_across_schemes(monkeypatch, proposed, right_above, want):
    cfg = ScenarioConfig(n_slots=6, seed=10)
    failures = {"proposed": proposed, "right_above": right_above}
    rules = dict(simulate._TARGET_RULES)

    def patch_rules():
        for scheme, (slot, trial) in failures.items():
            monkeypatch.setitem(simulate._TARGET_RULES, scheme,
                                _failing_at(rules[scheme], slot, trial))
    patch_rules()
    scheme, slot, trial = want
    with pytest.raises(VelocityBoundError, match=rf"^trial {trial} \(seed {10 + trial}\), "
                       rf"slot {slot}: \|x_breve - eta\|") as exc_info:
        run_monte_carlo(cfg, P, n_trials=4)
    assert exc_info.value.batch_index == trial
    # the error is the one the scheme's own lockstep run raises
    patch_rules()
    draws = np.stack([np.random.default_rng(10 + i).standard_normal(2 + 5 * cfg.n_slots)
                      for i in range(4)])
    with pytest.raises(VelocityBoundError) as single:
        simulate._run_lockstep(cfg, P, (scheme,), draws)
    assert str(single.value) == str(exc_info.value)


@pytest.mark.parametrize("seed", [0, 7, 123])
def test_predrawn_stream_equals_sequential_draws(seed):
    """The lockstep loop's pre-drawn row is run_scenario's draw sequence:
    2 initial, then 2 process and 3 measurement draws per slot."""
    n_slots = 40
    rng = np.random.default_rng(seed)
    sequential = [rng.standard_normal(2)]
    for _ in range(n_slots):
        sequential += [rng.standard_normal(2), rng.standard_normal(3)]
    predrawn = np.random.default_rng(seed).standard_normal(2 + 5 * n_slots)
    assert np.array_equal(predrawn, np.concatenate(sequential))


def test_monte_carlo_error_names_trial_seed_and_slot():
    # the proposed scheme refuses the zero prediction MSE when it plans
    # slot 1, a slot before the right-above scheme's update would
    cfg = ScenarioConfig(init_mse=(0.0, 0.0), seed=4)
    with pytest.raises(NotPositiveDefiniteError,
                       match=r"^trial 0 \(seed 4\), slot 0: mse_pred is not positive definite"):
        run_monte_carlo(cfg, SystemParams(q_tilde=0.0), n_trials=3)


def test_monte_carlo_error_names_lowest_failing_trial(monkeypatch):
    chase = simulate._TARGET_RULES["right_above"]

    def beyond_reach(eta, x_hat, mse_pred, params):
        x_breve = chase(eta, x_hat, mse_pred, params)
        x_breve[2:] += 100.0  # trials 2 and 3 ask for more than one slot's reach
        return x_breve
    monkeypatch.setitem(simulate._TARGET_RULES, "right_above", beyond_reach)
    with pytest.raises(VelocityBoundError,
                       match=r"^trial 2 \(seed 7\), slot 0: \|x_breve - eta\|") as exc_info:
        run_monte_carlo(ScenarioConfig(n_slots=4, seed=5), P, n_trials=4)
    assert exc_info.value.batch_index == 2


def test_monte_carlo_bracket_error_keeps_attributes(monkeypatch):
    def no_bracket(deriv_fn, lo, hi, tol, x0, active):
        raise BracketError("no sign change", -1.0, -2.0)
    monkeypatch.setattr(simulate.optimize, "_newton_bracketed_each", no_bracket)
    with pytest.raises(BracketError, match=r"^trial 0 \(seed 0\), slot \d+: no sign change") \
            as exc_info:
        run_monte_carlo(ScenarioConfig(n_slots=20), P, n_trials=2)
    assert (exc_info.value.dg_lo, exc_info.value.dg_hi) == (-1.0, -2.0)


# ------------------------------------------------- accepted inputs, property

@st.composite
def _accepted_inputs(draw):
    """An accepted (SystemParams, ScenarioConfig) pair: power, altitude,
    q_tilde (0 included), dt, alpha (both ends included), v_a_max (0
    included), gamma_c, a1-a3 and the initial state varied, the initial
    position spread also far out (1e20, 1e60 or 1e80 m)."""
    try:
        params = SystemParams(
            p_a_dbm=draw(st.floats(20.0, 60.0)), h_alt=draw(st.floats(5.0, 200.0)),
            q_tilde=draw(st.one_of(st.just(0.0), st.floats(1e-3, 50.0))),
            dt=draw(st.floats(0.02, 1.0)),
            alpha=draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))),
            v_a_max=draw(st.one_of(st.just(0.0), st.floats(0.0, 60.0))),
            gamma_c=draw(st.floats(1.0, 16.0)), a1=draw(st.floats(0.01, 10.0)),
            a2=draw(st.floats(1e-8, 1e-6)), a3=draw(st.floats(10.0, 1e4)))
    except ValueError:
        assume(False)
    cfg = ScenarioConfig(
        n_slots=draw(st.integers(2, 30)), seed=draw(st.integers(0, 1000)),
        init_obj_pos=draw(st.floats(-300.0, 300.0)), init_obj_vel=draw(st.floats(-20.0, 20.0)),
        init_uav_pos=draw(st.floats(-50.0, 50.0)), init_uav_vel=draw(st.floats(-20.0, 20.0)),
        init_est_std=(draw(st.one_of(st.floats(0.0, 10.0), st.sampled_from([1e20, 1e60, 1e80]))),
                      draw(st.floats(0.0, 5.0))),
        init_mse=(draw(st.floats(0.0, 10.0)), draw(st.floats(0.0, 5.0))))
    return params, cfg


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_accepted_inputs())
def test_accepted_inputs_give_finite_records_or_name_the_slot(inputs):
    """Through both loops, both schemes and 3 Monte Carlo trials, an
    accepted input either gives finite records (every lockstep column
    too) or raises a UavIsacError naming the slot.  The one non-finite
    value is documented: tr_mm is +inf where the plan sits right above
    the object (x_breve == 0), whose Doppler return carries no velocity
    information."""
    params, cfg = inputs
    for scheme in ("proposed", "right_above"):
        try:
            recs = run_scenario(replace(cfg, scheme=scheme), params)
        except UavIsacError as exc:
            assert re.match(r"slot \d+: ", str(exc)), exc
            continue
        for r in recs:
            for name, value in zip((f.name for f in fields(r)), astuple(r)):
                if name == "tr_mm" and r.x_breve == 0.0:
                    assert value == math.inf
                else:
                    assert math.isfinite(value), (r.slot, name, value)
    draws = np.stack([np.random.default_rng(cfg.seed + i).standard_normal(2 + 5 * cfg.n_slots)
                      for i in range(3)])
    try:
        cols = simulate._run_lockstep(cfg, params, ("proposed", "right_above"), draws)
        mc = run_monte_carlo(cfg, params, 3)
    except UavIsacError as exc:
        assert re.match(r"trial \d \(seed \d+\), slot \d+: ", str(exc)), exc
        return
    for name, col in cols.items():
        finite = np.isfinite(col)
        if name == "tr_mm":
            finite = np.where(cols["x_breve"] == 0.0, col == math.inf, finite)
        assert finite.all(), (name, np.argwhere(~finite)[0])
    for stats in (mc.proposed, mc.right_above):
        assert all(np.isfinite(getattr(stats, f.name)).all() for f in fields(stats))
