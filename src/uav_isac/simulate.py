"""Slot-by-slot tracking simulation and Monte-Carlo aggregation.

The world advances on slot boundaries: the object follows a
constant-velocity model with process noise, the platform executes the
controller command decided during the previous slot, then the filter
predicts, a measurement is sampled at the true relative state, and the
filter updates.  Two controllers are provided: the optimizing scheme
(per-slot bound minimization) and a benchmark that simply chases the
predicted object position.

Determinism contract: one generator drives a run, consumed in a fixed
order (2 draws for the initial estimate perturbation, then per slot 2
process-noise draws followed by 3 measurement-noise draws), so a seed
pins the entire record sequence bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import ekf, optimize, sensing
from .errors import ConfigError, InfeasibleIntervalError
from .linalg2 import Sym2
from .params import SystemParams
from .sensing import RelativeState


@dataclass(frozen=True)
class WorldState:
    """Absolute ground truth at one slot boundary.

    The platform fields are whatever the controller commanded; the
    controllers keep |uav_vel| within the configured speed limit.
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
class UavCommand:
    """Next-slot platform waypoint and slot velocity, plus the predicted
    relative position the waypoint was designed for.  flagged marks
    slots where the rate disc was unreachable and the fallback rule
    applied."""

    x_a: float
    v_a: float
    x_breve_target: float
    flagged: bool


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
        if self.n_slots < 2:
            raise ConfigError(f"n_slots must be >= 2, got {self.n_slots}")
        if self.scheme not in ("proposed", "right_above"):
            raise ConfigError(
                f"scheme must be 'proposed' or 'right_above', got {self.scheme!r}")
        est_std = tuple(float(s) for s in self.init_est_std)
        mse = tuple(float(m) for m in self.init_mse)
        if len(est_std) != 2 or len(mse) != 2:
            raise ConfigError("init_est_std and init_mse need exactly 2 entries")
        if any(s < 0.0 for s in est_std) or any(m < 0.0 for m in mse):
            raise ConfigError("init_est_std and init_mse entries must be >= 0")
        object.__setattr__(self, "init_est_std", est_std)
        object.__setattr__(self, "init_mse", mse)
        if self.v_a_max is not None and not self.v_a_max >= 0.0:
            raise ConfigError(f"v_a_max override must be >= 0, got {self.v_a_max}")
        if not self.noise_scale >= 0.0:
            raise ConfigError(f"noise_scale must be >= 0, got {self.noise_scale}")


def step_ground_truth(w: WorldState, params: SystemParams, rng) -> WorldState:
    """Advance the object one slot: constant-velocity motion plus a
    process-noise draw with covariance Q_s, applied jointly to position
    and velocity through the (analytic) lower Cholesky factor.

    The platform fields pass through untouched; the tracking loop
    overwrites them from the controller command.  Two standard-normal
    draws are consumed even when q_tilde = 0 so that stream alignment
    does not depend on q_tilde.
    """
    dt = params.dt
    z = rng.standard_normal(2)
    q = params.q_tilde
    if q > 0.0:
        l11 = math.sqrt(q * dt ** 3 / 3.0)
        l21 = (q * dt * dt / 2.0) / l11
        l22 = math.sqrt(max(q * dt - l21 * l21, 0.0))
        dp = l11 * z[0]
        dv = l21 * z[0] + l22 * z[1]
    else:
        dp = dv = 0.0
    return WorldState(
        obj_pos=w.obj_pos + w.obj_vel * dt + dp,
        obj_vel=w.obj_vel + dv,
        uav_pos=w.uav_pos,
        uav_vel=w.uav_vel,
        slot=w.slot + 1,
    )


def _predict_for_control(filter_state: ekf.FilterState, w: WorldState,
                         params: SystemParams) -> tuple[float, Sym2]:
    # eta: relative position predicted for the next slot if the platform
    # stopped; also the center of the reachable window.  The prediction
    # MSE does not depend on the command, so a zero command serves.
    pred0 = ekf.predict(filter_state, (0.0, 0.0), params)
    return pred0.pred.x + w.uav_vel * params.dt, pred0.mse_pred


def controller_proposed(filter_state: ekf.FilterState, w: WorldState,
                        params: SystemParams) -> UavCommand:
    """Pick the next predicted relative position by minimizing the
    anticipated weighted bound over the reachable window, then convert
    it to an absolute waypoint.

    If the velocity envelope cannot reach the rate disc at all, the
    command falls back to the reachable point closest to the disc and
    the slot is flagged; a window that degenerates to a single touching
    point is used as-is, unflagged.
    """
    eta, mse_pred = _predict_for_control(filter_state, w, params)
    reach = params.v_a_max * params.dt
    try:
        inst = optimize.P1Instance(eta, filter_state.est.x, mse_pred, params)
    except InfeasibleIntervalError:
        x_c = optimize.qos_radius(params)
        lo = max(-x_c, eta - reach)
        hi = min(x_c, eta + reach)
        if hi == lo:
            x_breve, flagged = lo, False
        else:
            x_breve = eta - reach if eta > 0.0 else eta + reach
            flagged = True
        x_a, v_a = optimize.design_trajectory(
            x_breve, eta, (w.uav_pos, w.uav_vel), params)
        return UavCommand(x_a, v_a, x_breve, flagged)
    x0 = min(max(eta, inst.lo), inst.hi)
    res = optimize.solve_p1_sca(inst, x0)
    x_a, v_a = optimize.design_trajectory(
        res.x_breve_opt, eta, (w.uav_pos, w.uav_vel), params)
    return UavCommand(x_a, v_a, res.x_breve_opt, False)


def controller_right_above(filter_state: ekf.FilterState, w: WorldState,
                           params: SystemParams) -> UavCommand:
    """Benchmark controller: chase the predicted object position,
    saturating at the speed limit; the rate constraint is ignored by
    design, and the slot is never flagged."""
    eta, _ = _predict_for_control(filter_state, w, params)
    reach = params.v_a_max * params.dt
    if abs(eta) <= reach:
        x_breve = 0.0
    else:
        x_breve = eta - math.copysign(reach, eta)
    x_a, v_a = optimize.design_trajectory(
        x_breve, eta, (w.uav_pos, w.uav_vel), params)
    return UavCommand(x_a, v_a, x_breve, False)


_CONTROLLERS = {
    "proposed": controller_proposed,
    "right_above": controller_right_above,
}


def run_scenario(cfg: ScenarioConfig, params: SystemParams) -> list[SlotRecord]:
    """Run one tracking scenario and return its n_slots records.

    Slot 0 only initializes: the world is placed, the initial estimate
    is the true relative state plus a Gaussian perturbation of
    init_est_std, and the first command is computed.  Each subsequent
    slot advances the object, executes the pending command, predicts,
    measures at the true relative state, updates, records, and decides
    the next command.  The "actual" bound pair is the anticipated bound
    re-evaluated at the true relative state with the same prediction
    MSE.  Component errors propagate with the slot index attached.
    """
    p = params if cfg.v_a_max is None else replace(params, v_a_max=cfg.v_a_max)
    controller = _CONTROLLERS[cfg.scheme]
    rng = np.random.default_rng(cfg.seed)

    world = WorldState(cfg.init_obj_pos, cfg.init_obj_vel,
                       cfg.init_uav_pos, cfg.init_uav_vel, 0)
    rel0 = world.relative()
    z = rng.standard_normal(2)
    est0 = RelativeState(rel0.x + cfg.init_est_std[0] * z[0],
                         rel0.v + cfg.init_est_std[1] * z[1])
    fstate = ekf.FilterState(est0, Sym2.diag(cfg.init_mse[0], cfg.init_mse[1]))
    try:
        cmd = controller(fstate, world, p)
    except Exception as exc:
        if exc.args and isinstance(exc.args[0], str):
            exc.args = (f"slot 0: {exc.args[0]}",) + exc.args[1:]
        raise

    records: list[SlotRecord] = []
    for n in range(1, cfg.n_slots + 1):
        try:
            stepped = step_ground_truth(world, p, rng)
            world = replace(stepped, uav_pos=cmd.x_a, uav_vel=cmd.v_a)
            dv = cmd.v_a - stepped.uav_vel
            x_hat_prev = fstate.est.x
            pred = ekf.predict(fstate, (dv * p.dt, dv), p)
            true_rel = world.relative()
            meas = sensing.sample_measurement(true_rel, p, rng, cfg.noise_scale)
            fstate = ekf.update(pred, meas, p)
            # the recorded predicted pair is the commanded design target,
            # exact where the controller chose an exact point (overhead)
            x_breve = cmd.x_breve_target
            v_breve = (x_breve - x_hat_prev) / p.dt
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
                flagged=cmd.flagged,
            ))
            cmd = controller(fstate, world, p)
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
