"""Slot-by-slot tracking simulation and Monte-Carlo aggregation.

Each slot has one prediction.  Planning a slot predicts the posterior
once, lets the scheme's target rule pick the predicted relative
position x_breve inside the reachable window (the optimizing scheme
minimizes the anticipated bound; the benchmark chases the predicted
object), and turns it into the platform waypoint.  That planned state,
with v_breve = (x_breve - x_hat)/dt, is the filter's prediction for the
slot.  The slot then runs in this order: the object follows a
constant-velocity model with process noise, the platform executes the
planned waypoint, a measurement is sampled at the true relative state,
the filter updates the planned prediction, the slot's values are kept,
and, unless it was the last slot, the next slot is planned.

Only the plan and the filter feed the next slot, as plain values: _plan
returns (x_a, v_a, x_breve, v_breve, mse_pred) and ekf.update (x_hat,
v_hat, mse), every 2x2 matrix an entry triple (ekf), so a float
slot builds no value object but its SlotRecord.  The slot's steps are
the public one-step value functions, step_ground_truth,
sensing.measured_variances, ekf.prior_information,
sensing.sample_measurement, ekf.update and ekf.predict (in _plan).  One
loop, _track, runs the slots, on Python floats for one trial or on
numpy arrays with one row per scheme and trial, each
step the same call with xp=math or xp=numpy (numpy transcendentals may
differ from math's by an ulp).  It keeps the values of every slot named
by KEPT; one _record_columns pass after the slot loop gives every
record column by name, computing those that evaluate a run (bound
pairs, weighted_actual, rate, tr_mm) as predicted_pcrb and
crb_measurement do per entry, flat over the helpers they share.
run_scenario, the reference, runs one trial on floats.
run_monte_carlo runs every trial of both schemes in lockstep as rows.
Both read one rule per scheme from _TARGET_RULES, which takes floats or
rows; floats and rows differ only in that the lockstep runs each
scheme's rule on its block of rows and that the proposed rule packs a
float trial as one row for the slot solve, optimize.solve_p1_each.
Every check raises, on rows, for the lowest failing row, and makes no
call where it passes on floats.  A lockstep trial matches run_scenario
at the same seed to about 1e-9 relative or better.  An error names the
earliest slot at which a row fails and, among the rows failing at one
step of it, the lowest.

Determinism contract: one generator per trial, seeded with the trial's
seed, consumed in a fixed order (2 draws for the initial estimate
perturbation, then per slot 2 process-noise draws followed by 3
measurement-noise draws), so a seed pins the entire record sequence
bit-for-bit.  Each trial's stream is drawn at once,
standard_normal(2 + 5*n_slots) from default_rng(seed), which numpy's
generator yields identically to the draws taken one step at a time (a
test pins this).  run_scenario converts its draws to Python floats, so
every recorded quantity is a plain float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import chain

import numpy as np

from . import ekf, optimize, sensing
from .errors import ConfigError, SingularMatrixError, entry, raise_at_first
from .params import SystemParams, _is_integer


@dataclass(slots=True)
class SlotRecord:
    """Everything recorded about one slot: true relative state, filter
    predicted and posterior states, executed platform state, predicted
    and actual bound pairs, the rate at the predicted position, and the
    two MSE traces (prior prediction vs measurement-only).  Slotted, not
    frozen: run_scenario builds one per slot, and __init__ of these 19
    fields takes 0.36 us slotted against 0.39 us plain and 3.3 us frozen
    (CPython 3.11); an instance carries no __dict__."""

    slot: int
    t_s: float
    x_true: float
    v_true: float
    x_hat: float
    v_hat: float
    x_breve: float
    v_breve: float
    x_uav: float
    v_uav: float
    pcrb_x_pred: float
    pcrb_v_pred: float
    pcrb_x_actual: float
    pcrb_v_actual: float
    weighted_actual: float
    rate_bpshz: float
    tr_mp: float
    tr_mm: float
    flagged: bool


@dataclass(frozen=True)
class ScenarioConfig:
    """One tracking run's knobs; the platform's speed limit is
    SystemParams.v_a_max.  noise_scale multiplies the measurement
    noise standard deviations of the draws (1 = nominal, 0 = noiseless);
    the filter keeps the nominal covariance model either way.
    """

    n_slots: int = 100
    seed: int = 0
    scheme: str = "proposed"
    init_obj_pos: float = 80.0
    init_obj_vel: float = 5.0
    init_uav_pos: float = 0.0
    init_uav_vel: float = 0.0
    init_est_std: tuple[float, float] = (1.0, 0.5)
    init_mse: tuple[float, float] = (1.0, 0.25)
    noise_scale: float = 1.0

    def __post_init__(self):
        if not (_is_integer(self.n_slots) and self.n_slots >= 2):
            raise ConfigError(f"n_slots must be an integer >= 2, got {self.n_slots!r}")
        if not (_is_integer(self.seed) and self.seed >= 0):
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        if self.scheme not in ("proposed", "right_above"):
            raise ConfigError(
                f"scheme must be 'proposed' or 'right_above', got {self.scheme!r}")
        for name in ("init_obj_pos", "init_obj_vel", "init_uav_pos", "init_uav_vel"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)!r}")
        for name in ("init_est_std", "init_mse"):
            entries = tuple(float(e) for e in getattr(self, name))
            if len(entries) != 2:
                raise ConfigError(f"{name} needs exactly 2 entries, got {entries}")
            if not all(math.isfinite(e) and e >= 0.0 for e in entries):
                raise ConfigError(f"{name} entries must be finite and >= 0, got {entries}")
            object.__setattr__(self, name, entries)
        if not (math.isfinite(self.noise_scale) and self.noise_scale >= 0.0):
            raise ConfigError(f"noise_scale must be finite and >= 0, got {self.noise_scale}")


def process_noise_factor(params: SystemParams) -> tuple[float, float, float]:
    """Lower Cholesky factor (l11, l21, l22) of the process-noise
    covariance Q_s; all zero when q_tilde = 0."""
    q11, q12, q22 = params.process_noise
    if not q11 > 0.0:
        return 0.0, 0.0, 0.0
    l11 = math.sqrt(q11)
    l21 = q12 / l11
    return l11, l21, math.sqrt(max(q22 - l21 * l21, 0.0))


def step_ground_truth(pos, vel, z0, z1, dt: float, factor):
    """Advance the object one slot from (pos, vel): constant-velocity
    motion plus the process noise of covariance Q_s
    (params.process_noise_cov) for two standard-normal draws (z0, z1),
    applied jointly to position and velocity through its lower Cholesky
    factor (l11, l21, l22) (process_noise_factor); generic over floats
    and arrays.  The tracking loop takes two draws per slot even when
    q_tilde = 0, so that stream alignment does not depend on q_tilde.
    """
    l11, l21, l22 = factor
    return pos + vel * dt + l11 * z0, vel + (l21 * z0 + l22 * z1)


def _target_proposed(eta, x_hat, mse_pred, params: SystemParams):
    """The proposed targets x_breve, of one trial on floats (packed as one
    row) or of a batch of trials on rows: the prior information (checked
    first, as in P1Instance), the P1 window and its solve where it has
    length, the touching point of a degenerate window, and otherwise,
    where the velocity envelope cannot reach the rate disc, the
    right-above target, the reachable point nearest overhead (a flagged
    slot)."""
    if not isinstance(eta, np.ndarray):
        rows = np.array([[eta], [x_hat], *([m] for m in mse_pred)])
        (x_breve,) = _target_proposed(rows[0], rows[1], rows[2:], params).tolist()
        return x_breve
    prior_info = ekf.prior_information(mse_pred)
    x_c = optimize.qos_radius(params)
    reach = params.reach
    lo = np.maximum(-x_c, eta - reach)
    hi = np.minimum(x_c, eta + reach)
    has_length = hi - lo > 0.0
    x_opt = optimize.solve_p1_each(lo, hi, x_hat, prior_info, params, has_length)[0]
    if np.count_nonzero(has_length) == has_length.size:
        return x_opt
    fallback = np.where(hi == lo, lo, _target_right_above(eta, x_hat, mse_pred, params))
    return np.where(has_length, x_opt, fallback)


def _target_right_above(eta, x_hat, mse_pred, params: SystemParams):
    """Benchmark target, on floats or rows: chase the predicted object
    position, saturating at the speed limit, eta minus eta clamped to
    +/-reach; the rate constraint is ignored by design.  The MSE is not
    read."""
    reach = params.reach
    if isinstance(eta, np.ndarray):
        return eta - np.clip(eta, -reach, reach)
    return eta - (-reach if eta < -reach else reach if eta > reach else eta)


# each scheme's target rule, for run_scenario's floats and the lockstep's rows
_TARGET_RULES = {
    "proposed": _target_proposed,
    "right_above": _target_right_above,
}


def _plan(x_hat, v_hat, mse, uav_pos, uav_vel, params: SystemParams, targets):
    """Decide the next slot from the posterior (x_hat, v_hat) and its MSE,
    on floats or on rows (every value an array, one entry per row), and
    return (x_a, v_a, x_breve, v_breve, mse_pred): the platform waypoint,
    the slot velocity and the filter's prediction for the slot.

    The posterior MSE is predicted once, by ekf.predict, and the
    predicted state is the plan's: eta = x_hat + v_hat*dt +
    v_A*dt, where the object would sit relative to a platform that
    stopped, centers the reachable window.  targets(eta, x_hat, mse_pred,
    params), a target rule (on rows, each block's rule on its rows),
    picks x_breve there; optimize.design_trajectory, the one reach check,
    realizes it, and v_breve = (x_breve - x_hat)/dt.
    """
    dt = params.dt
    mse_pred = ekf.predict(mse, params)
    eta = x_hat + v_hat * dt + uav_vel * dt
    x_breve = targets(eta, x_hat, mse_pred, params)
    x_a, v_a = optimize.design_trajectory(x_breve, eta, (uav_pos, uav_vel), params)
    return x_a, v_a, x_breve, (x_breve - x_hat) / dt, mse_pred


def _add_context(exc: Exception, prefix: str) -> None:
    """Prefix a component error's message with where it was raised; its
    type and attributes are kept."""
    if exc.args and isinstance(exc.args[0], str):
        exc.args = (prefix + exc.args[0],) + exc.args[1:]


def _refuse_record(i: int, x, x_breve):
    raise SingularMatrixError(f"a record bound at x = {entry(x, i)!r}, "
                              f"x_breve = {entry(x_breve, i)!r} divides by zero or overflows")


# what the slot loop keeps of a slot, in order: record fields, weights, prior information
KEPT = ("x_true", "v_true", "x_hat", "v_hat", "x_breve", "v_breve", "x_uav", "v_uav", "tr_mp",
        "w1", "w2", "w3", "prior_m11", "prior_m12", "prior_m22")
RECORD_COLUMNS = tuple(f.name for f in fields(SlotRecord))[2:-1]  # not slot, t_s, flagged


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _record_columns(kept: np.ndarray, params: SystemParams) -> dict:
    """The KEPT values and every RECORD_COLUMNS column by name, each
    (n_slots,) or (n_slots, rows), from the slot loop's array of KEPT
    values, (n_slots, len(KEPT)) or (n_slots, len(KEPT), rows).  A
    column value that is not finite raises SingularMatrixError for the
    earliest slot, then row (batch_index: the flat index), except tr_mm =
    +inf where x_breve = 0 and 1/i_pos is finite, as in crb_measurement."""
    cols = dict(zip(KEPT, kept.swapaxes(0, 1)))
    x, v, x_breve = cols["x_true"], cols["v_true"], cols["x_breve"]
    prior = cols["prior_m11"], cols["prior_m12"], cols["prior_m22"]
    cols["rate_bpshz"] = sensing.achievable_rate(x_breve, params, np)
    w = cols["w1"], cols["w2"], cols["w3"]
    cols["pcrb_x_actual"], cols["pcrb_v_actual"], cols["weighted_actual"] = ekf._bounds(
        *ekf._add_information(prior, *ekf._fisher_terms(x, v, params, w)), params.alpha)
    i_pos, zz, zv, vv = ekf._fisher_terms(x_breve, cols["v_breve"], params)
    cols["pcrb_x_pred"], cols["pcrb_v_pred"], _ = ekf._bounds(
        *ekf._add_information(prior, i_pos, zz, zv, vv), params.alpha)
    crb_x = 1.0 / i_pos
    cols["tr_mm"] = tr_mm = crb_x + (1.0 + zz * crb_x) / vv
    finite = np.isfinite(np.where((x_breve == 0.0) & (tr_mm == math.inf), crb_x, tr_mm))
    finite &= np.isfinite(kept[:, :9]).all(axis=1)  # the kept record columns, KEPT[:9]
    for name in RECORD_COLUMNS[8:14]:  # the bound pairs, weighted_actual and the rate
        finite &= np.isfinite(cols[name])
    raise_at_first(~finite, _refuse_record, x, x_breve)
    return cols


@np.errstate(over="ignore", invalid="ignore")
def _track(cfg: ScenarioConfig, p: SystemParams, z, targets, rows=None):
    """The slot loop: one trial on Python floats (rows None; z the
    trial's draws as a list) or rows trials in lockstep (every state an
    array of rows entries; z the draws as a (2 + 5*n_slots, rows) array),
    the draws taken in stream order from one iterator.
    targets goes to _plan.  Slot 0 places the world, perturbs the initial
    estimate by init_est_std and plans slot 1; each slot then runs as the
    module docstring says, the same calls on floats and on rows.  Returns
    every KEPT and RECORD_COLUMNS column by name, each (n_slots,) or
    (n_slots, rows), from one _record_columns pass.  An error's message
    is prefixed with its slot; a batch error's batch_index is its row,
    and one trial's error has none.  Overflow and NaN pass silently
    through the loop, as on Python floats; the column pass refuses a
    record value they spoil.
    """
    xp = math if rows is None else np
    dt, k = p.dt, cfg.noise_scale
    factor = process_noise_factor(p)
    zero = 0.0 if rows is None else np.zeros(rows)
    obj_pos, obj_vel = cfg.init_obj_pos + zero, cfg.init_obj_vel + zero
    uav_pos, uav_vel = cfg.init_uav_pos + zero, cfg.init_uav_vel + zero
    draws = iter(z)
    x_hat = (cfg.init_obj_pos - cfg.init_uav_pos) + cfg.init_est_std[0] * next(draws)
    v_hat = (cfg.init_obj_vel - cfg.init_uav_vel) + cfg.init_est_std[1] * next(draws)
    mse = cfg.init_mse[0] + zero, zero, cfg.init_mse[1] + zero

    # per slot: the KEPT values, a tuple of floats (a list and one np.fromiter beat a
    # per-slot array store) or rows preallocated (a list of row tuples doubles the memory)
    kept = [None] * cfg.n_slots if rows is None else np.empty((cfg.n_slots, len(KEPT), rows))
    n = 0
    try:
        x_a, v_a, x_breve, v_breve, mse_pred = _plan(x_hat, v_hat, mse, uav_pos, uav_vel, p,
                                                     targets)
        # each slot's five draws: two for step_ground_truth, three for sample_measurement
        for n, (z0, z1, e1, e2, e3) in enumerate(zip(*[draws] * 5), 1):
            obj_pos, obj_vel = step_ground_truth(obj_pos, obj_vel, z0, z1, dt, factor)
            uav_pos, uav_vel = x_a, v_a
            x, v = obj_pos - uav_pos, obj_vel - uav_vel
            w = sensing.noise_weights(x, p)
            # the weights are checked first, then the prediction MSE: a geometry
            # too far to measure is refused as such whatever the MSE
            s = sensing.measured_variances(w)
            prior = ekf.prior_information(mse_pred)
            y = sensing.sample_measurement(x, v, s, (e1, e2, e3), k, p, xp)
            x_hat, v_hat, mse = ekf.update(x_breve, v_breve, prior, w, y, p, xp)
            kept[n - 1] = (x, v, x_hat, v_hat, x_breve, v_breve, uav_pos, uav_vel,
                           mse_pred[0] + mse_pred[2], *w, *prior)
            if n < cfg.n_slots:
                x_a, v_a, x_breve, v_breve, mse_pred = _plan(x_hat, v_hat, mse, uav_pos,
                                                             uav_vel, p, targets)
        n = None
        if rows is None:
            kept = np.fromiter(chain.from_iterable(kept), float,
                               cfg.n_slots * len(KEPT)).reshape(cfg.n_slots, -1)
        return _record_columns(kept, p)
    except Exception as exc:
        index = exc.__dict__.pop("batch_index", None)
        if n is None:  # the column pass's batch_index runs over slots, then rows
            n, index = divmod(index or 0, rows or 1)
            n += 1
        # one trial's error has no row, though its slot solve runs on one
        if rows is not None and index is not None:
            exc.batch_index = index
        _add_context(exc, f"slot {n}: ")
        raise


def run_scenario(cfg: ScenarioConfig, params: SystemParams) -> list[SlotRecord]:
    """Run one tracking scenario and return its n_slots records: _track on
    Python floats, with the trial's draws taken in one call.  The
    "actual" bound pair is the anticipated bound re-evaluated at the
    true relative state with the same prediction MSE.  A slot is flagged
    where the proposed rule's fallback targets a point outside the rate
    disc."""
    z = np.random.default_rng(cfg.seed).standard_normal(2 + 5 * cfg.n_slots).tolist()
    cols = _track(cfg, params, z, _TARGET_RULES[cfg.scheme])
    x_c = optimize.qos_radius(params) if cfg.scheme == "proposed" else math.inf
    flags = (np.abs(cols["x_breve"]) > x_c).tolist()
    slots = range(1, cfg.n_slots + 1)
    return list(map(SlotRecord, slots, [n * params.dt for n in slots],
                    *(cols[name].tolist() for name in RECORD_COLUMNS), flags))


def _run_lockstep(cfg: ScenarioConfig, params: SystemParams, schemes: tuple[str, ...],
                  draws: np.ndarray) -> dict:
    """The trials of every scheme in schemes in lockstep: _track on
    len(schemes) * n_trials rows.  Row j*n_trials + i is trial i of
    schemes[j]; it takes its draws from row i of draws, shape (n_trials,
    2 + 5*n_slots), and matches run_scenario at their seed.  The rows of
    schemes[j] are block j, whose target rule (the one _TARGET_RULES
    entry run_scenario reads) runs on its rows only, so a row's columns
    do not depend on the other rows.  Returns every RECORD_COLUMNS
    column by name, each (rows, n_slots).

    An error is raised at the earliest slot at which a row fails, as
    run_scenario raises it, and among the rows failing at one step of
    that slot for the lowest.  Its batch_index becomes the trial index
    within its scheme, and its message is prefixed with the trial, its
    seed and the slot; an error shared by all trials names trial 0.
    """
    n_trials = draws.shape[0]
    blocks = [(_TARGET_RULES[scheme], slice(j * n_trials, (j + 1) * n_trials))
              for j, scheme in enumerate(schemes)]

    def targets(eta, x_hat, m, params):
        return np.concatenate([rule(eta[r], x_hat[r], [mij[r] for mij in m], params)
                               for rule, r in blocks])
    try:
        cols = _track(cfg, params, np.tile(draws.T, len(schemes)), targets,
                      len(schemes) * n_trials)
    except Exception as exc:
        i = getattr(exc, "batch_index", 0) % n_trials
        if hasattr(exc, "batch_index"):
            exc.batch_index = i
        _add_context(exc, f"trial {i} (seed {cfg.seed + i}), ")
        raise
    return {name: cols[name].T for name in RECORD_COLUMNS}


@dataclass(frozen=True, eq=False)
class SchemeStats:
    """Per-slot moments across trials for one scheme; arrays of length
    n_slots, standard deviations with ddof=0."""

    weighted_actual_mean: np.ndarray
    weighted_actual_std: np.ndarray
    rate_mean: np.ndarray
    rate_std: np.ndarray


@dataclass(frozen=True, eq=False)
class MonteCarloStats:
    proposed: SchemeStats
    right_above: SchemeStats
    n_trials: int
    n_slots: int


def run_monte_carlo(cfg: ScenarioConfig, params: SystemParams,
                    n_trials: int) -> MonteCarloStats:
    """Common-random-number comparison of the two schemes.

    Trial i runs both schemes from seed cfg.seed + i, so trial 0
    reproduces run_scenario for either scheme (to rounding) and the two
    schemes see identical noise within a trial; cfg.scheme is ignored.
    Both schemes' trials advance in lockstep as one batch of 2*n_trials
    rows, the proposed scheme's first, and each scheme's columns are
    those of its own lockstep run bit for bit; the slot solve runs on the
    proposed rows only.  The weighted_actual and rate_bpshz columns are
    reduced in fixed trial-index order, independent of execution order.
    An error names the earliest slot at which a trial fails, as
    run_scenario names it, and among the rows failing at one step of
    that slot the lowest (a proposed trial before a right-above one),
    with its trial index within its scheme (batch_index) and its seed.
    """
    if not (_is_integer(n_trials) and n_trials >= 1):
        raise ConfigError(f"n_trials must be an integer >= 1, got {n_trials!r}")
    draws = np.stack([np.random.default_rng(cfg.seed + i).standard_normal(2 + 5 * cfg.n_slots)
                      for i in range(n_trials)])
    cols = _run_lockstep(cfg, params, ("proposed", "right_above"), draws)
    proposed, right_above = (
        SchemeStats(w.mean(axis=0), w.std(axis=0), r.mean(axis=0), r.std(axis=0))
        for w, r in zip(np.split(cols["weighted_actual"], 2), np.split(cols["rate_bpshz"], 2)))
    return MonteCarloStats(proposed, right_above, n_trials, cfg.n_slots)
