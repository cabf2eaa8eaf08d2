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
the filter updates the planned prediction, the slot is recorded, and
the next slot is planned.

Determinism contract: one generator drives a run, consumed in a fixed
order (2 draws for the initial estimate perturbation, then per slot 2
process-noise draws followed by 3 measurement-noise draws), so a seed
pins the entire record sequence bit-for-bit.  Draws are converted to
Python floats, so every recorded quantity is a plain float.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from . import ekf, optimize, sensing
from .errors import ConfigError, InfeasibleIntervalError
from .linalg2 import Sym2, process_noise_cov
from .params import SystemParams
from .sensing import RelativeState


@dataclass(frozen=True)
class WorldState:
    """Absolute ground truth at one slot boundary.

    The platform fields are whatever the plan commanded; both target
    rules keep |uav_vel| within the configured speed limit.
    """

    obj_pos: float
    obj_vel: float
    uav_pos: float
    uav_vel: float
    slot: int

    def relative(self) -> RelativeState:
        return RelativeState(self.obj_pos - self.uav_pos,
                             self.obj_vel - self.uav_vel)


@dataclass(frozen=True)
class SlotRecord:
    """Everything recorded about one slot: true relative state, filter
    predicted and posterior states, executed platform state, predicted
    and actual bound pairs, the rate at the predicted position, and the
    two MSE traces (prior prediction vs measurement-only)."""

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
    """One tracking run's knobs.

    v_a_max of None inherits the speed limit from SystemParams; a number
    overrides it for this run.  noise_scale multiplies the measurement
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
    v_a_max: float | None = None
    noise_scale: float = 1.0

    def __post_init__(self):
        if not (isinstance(self.n_slots, numbers.Integral) and self.n_slots >= 2):
            raise ConfigError(f"n_slots must be an integer >= 2, got {self.n_slots!r}")
        if not (isinstance(self.seed, numbers.Integral) and self.seed >= 0):
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
        if self.v_a_max is not None and not (math.isfinite(self.v_a_max) and self.v_a_max >= 0.0):
            raise ConfigError(f"v_a_max override must be finite and >= 0, got {self.v_a_max}")
        if not (math.isfinite(self.noise_scale) and self.noise_scale >= 0.0):
            raise ConfigError(f"noise_scale must be finite and >= 0, got {self.noise_scale}")


def step_ground_truth(w: WorldState, params: SystemParams, rng) -> WorldState:
    """Advance the object one slot: constant-velocity motion plus a
    process-noise draw with covariance Q_s (linalg2.process_noise_cov),
    applied jointly to position and velocity through its lower Cholesky
    factor.

    The platform fields pass through untouched; the tracking loop
    overwrites them from the planned command.  Two standard-normal
    draws are consumed even when q_tilde = 0 so that stream alignment
    does not depend on q_tilde.
    """
    dt = params.dt
    z0, z1 = rng.standard_normal(2).tolist()
    q = process_noise_cov(dt, params.q_tilde)
    if q.m11 > 0.0:
        l11 = math.sqrt(q.m11)
        l21 = q.m12 / l11
        dp = l11 * z0
        dv = l21 * z0 + math.sqrt(max(q.m22 - l21 * l21, 0.0)) * z1
    else:
        dp = dv = 0.0
    return WorldState(
        obj_pos=w.obj_pos + w.obj_vel * dt + dp,
        obj_vel=w.obj_vel + dv,
        uav_pos=w.uav_pos,
        uav_vel=w.uav_vel,
        slot=w.slot + 1,
    )


def _target_proposed(eta: float, x_hat: float, mse_pred: Sym2,
                     params: SystemParams) -> tuple[float, bool]:
    """Pick the next predicted relative position by minimizing the
    anticipated weighted bound over the reachable window.

    If the velocity envelope cannot reach the rate disc at all, the
    target falls back to the reachable point closest to the disc and
    the slot is flagged; a window that degenerates to a single touching
    point is used as-is, unflagged.
    """
    try:
        inst = optimize.P1Instance(eta, x_hat, mse_pred, params)
    except InfeasibleIntervalError:
        reach = params.v_a_max * params.dt
        x_c = optimize.qos_radius(params)
        lo = max(-x_c, eta - reach)
        if min(x_c, eta + reach) == lo:
            return lo, False
        return (eta - reach if eta > 0.0 else eta + reach), True
    return optimize.solve_p1_sca(inst, min(max(eta, inst.lo), inst.hi)).x_breve_opt, False


def _target_right_above(eta: float, x_hat: float, mse_pred: Sym2,
                        params: SystemParams) -> tuple[float, bool]:
    """Benchmark target: chase the predicted object position, saturating
    at the speed limit; the rate constraint is ignored by design, and
    the slot is never flagged."""
    reach = params.v_a_max * params.dt
    if abs(eta) <= reach:
        return 0.0, False
    return eta - math.copysign(reach, eta), False


_TARGET_RULES = {
    "proposed": _target_proposed,
    "right_above": _target_right_above,
}


def _plan(fstate: ekf.FilterState, w: WorldState, params: SystemParams,
          target_rule) -> tuple[float, float, bool, ekf.Prediction]:
    """Decide the next slot: the platform waypoint x_a and slot velocity
    v_a, whether the slot is flagged (the rate disc was unreachable and
    the fallback applied), and the filter's prediction for the slot.
    The command and the prediction are one decision.

    The posterior is predicted once; eta = x_pred + v_A*dt is where the
    object would sit relative to a platform that stopped, the center of
    the reachable window.  The target rule picks x_breve in that window,
    the waypoint realizes it, and the predicted relative velocity is
    v_breve = (x_breve - x_hat)/dt.  The prediction MSE does not depend
    on the command.
    """
    pred = ekf.predict(fstate, params)
    eta = pred.pred.x + w.uav_vel * params.dt
    x_hat = fstate.est.x
    x_breve, flagged = target_rule(eta, x_hat, pred.mse_pred, params)
    x_a, v_a = optimize.design_trajectory(x_breve, eta, (w.uav_pos, w.uav_vel), params)
    state = RelativeState(x_breve, (x_breve - x_hat) / params.dt)
    return x_a, v_a, flagged, ekf.Prediction(state, pred.mse_pred)


def run_scenario(cfg: ScenarioConfig, params: SystemParams) -> list[SlotRecord]:
    """Run one tracking scenario and return its n_slots records.

    Slot 0 only initializes: the world is placed, the initial estimate
    is the true relative state plus a Gaussian perturbation of
    init_est_std, and the first slot is planned.  Each subsequent slot
    advances the object, executes the planned command, measures at the
    true relative state, updates the planned prediction, records, and
    plans the next slot.  The "actual" bound pair is the anticipated
    bound re-evaluated at the true relative state with the same
    prediction MSE.  Component errors propagate with the slot index
    attached.
    """
    p = params if cfg.v_a_max is None else replace(params, v_a_max=cfg.v_a_max)
    target_rule = _TARGET_RULES[cfg.scheme]
    rng = np.random.default_rng(cfg.seed)

    world = WorldState(cfg.init_obj_pos, cfg.init_obj_vel,
                       cfg.init_uav_pos, cfg.init_uav_vel, 0)
    rel0 = world.relative()
    z = rng.standard_normal(2).tolist()
    est0 = RelativeState(rel0.x + cfg.init_est_std[0] * z[0],
                         rel0.v + cfg.init_est_std[1] * z[1])
    fstate = ekf.FilterState(est0, Sym2.diag(cfg.init_mse[0], cfg.init_mse[1]))

    records: list[SlotRecord] = []
    n = 0
    try:
        x_a, v_a, flagged, pred = _plan(fstate, world, p, target_rule)
        for n in range(1, cfg.n_slots + 1):
            world = replace(step_ground_truth(world, p, rng), uav_pos=x_a, uav_vel=v_a)
            true_rel = world.relative()
            meas = sensing.sample_measurement(true_rel, p, rng, cfg.noise_scale)
            fstate = ekf.update(pred, meas, p)
            x_breve, v_breve = pred.pred.x, pred.pred.v
            pcrb_pred = ekf.predicted_pcrb(x_breve, v_breve, pred.mse_pred, p)
            pcrb_act = ekf.predicted_pcrb(true_rel.x, true_rel.v, pred.mse_pred, p)
            crb_x, crb_v = ekf.crb_measurement(x_breve, v_breve, p)
            records.append(SlotRecord(
                slot=n,
                t_s=n * p.dt,
                x_true=true_rel.x,
                v_true=true_rel.v,
                x_hat=fstate.est.x,
                v_hat=fstate.est.v,
                x_breve=x_breve,
                v_breve=v_breve,
                x_uav=world.uav_pos,
                v_uav=world.uav_vel,
                pcrb_x_pred=pcrb_pred.pcrb_x,
                pcrb_v_pred=pcrb_pred.pcrb_v,
                pcrb_x_actual=pcrb_act.pcrb_x,
                pcrb_v_actual=pcrb_act.pcrb_v,
                weighted_actual=pcrb_act.weighted,
                rate_bpshz=sensing.achievable_rate(x_breve, p),
                tr_mp=pred.mse_pred.trace,
                tr_mm=crb_x + crb_v,
                flagged=flagged,
            ))
            x_a, v_a, flagged, pred = _plan(fstate, world, p, target_rule)
    except Exception as exc:
        if exc.args and isinstance(exc.args[0], str):
            exc.args = (f"slot {n}: {exc.args[0]}",) + exc.args[1:]
        raise
    return records


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
    reproduces run_scenario for either scheme and the two schemes see
    identical noise within a trial; cfg.scheme is ignored.  Trials are
    reduced in fixed trial-index order, so the aggregate is independent
    of execution order.
    """
    if n_trials < 1:
        raise ConfigError(f"n_trials must be >= 1, got {n_trials}")
    stats = {}
    for scheme in ("proposed", "right_above"):
        weighted = np.empty((n_trials, cfg.n_slots))
        rate = np.empty((n_trials, cfg.n_slots))
        for i in range(n_trials):
            trial_cfg = replace(cfg, seed=cfg.seed + i, scheme=scheme)
            recs = run_scenario(trial_cfg, params)
            weighted[i] = [r.weighted_actual for r in recs]
            rate[i] = [r.rate_bpshz for r in recs]
        stats[scheme] = SchemeStats(
            weighted.mean(axis=0), weighted.std(axis=0),
            rate.mean(axis=0), rate.std(axis=0))
    return MonteCarloStats(stats["proposed"], stats["right_above"],
                           n_trials, cfg.n_slots)
