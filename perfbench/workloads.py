"""The benchmark's workloads: the inputs each one draws from its seed,
the public uav_isac calls it makes, and what is checked on each result.

Every input comes from a fixed pool, so every result has a stored
reference value (reference.json, written by make_reference.py).  The
seed picks the order in which a run visits the pool, and with it which
part of the pool a short run covers.  README.md says why each workload
exists.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from tracing import layer_name
from uav_isac import ScenarioConfig, SystemParams, ekf, optimize, sensing, simulate

# Steady-state window: slots after this one (record index >= 60).
STEADY_AFTER_SLOT = 60
# A final estimate farther than this from the truth, on the other side
# of x = 0, is a lost track.
LOST_MIN_ERROR_M = 1.0
# Relative tolerance of a rate checked against the floor gamma_c.
RATE_RTOL = 1e-9


def steady_mean(per_slot) -> float:
    """Mean of a per-slot series over slots > STEADY_AFTER_SLOT."""
    return float(np.mean(per_slot[STEADY_AFTER_SLOT:]))


def lost_track(final) -> bool:
    """The final estimate sits on the mirror side of the truth: x_hat and
    x_true have opposite signs, and the error exceeds both 1 m and
    |x_true|, so x_hat is nearer -x_true than x_true."""
    err = abs(final.x_hat - final.x_true)
    return final.x_hat * final.x_true < 0.0 and err > max(LOST_MIN_ERROR_M, abs(final.x_true))


def rate_floor_misses(records, params: SystemParams) -> tuple[int, int]:
    """(misses, unflagged): unflagged slots whose rate at the designed
    position is below gamma_c, and the number of unflagged slots."""
    floor = params.gamma_c * (1.0 - RATE_RTOL)
    unflagged = [r for r in records if not r.flagged]
    return sum(r.rate_bpshz < floor for r in unflagged), len(unflagged)


class Workload:
    """A pool of inputs, the call each input makes, and how a result is
    reduced to the values stored in reference.json."""

    name = ""
    primary = ""
    solves_per_call = 1  # latency is reported per solve of the primary call

    def pool_ops(self):
        """Every (kind, key) the workload can issue."""
        return [(self.primary, k) for k in range(self.POOL)]

    @staticmethod
    def reference_key(kind, key) -> str:
        return f"{kind}:{key}"

    def quality(self, kind, key, summary):
        """The result's contribution to steady_bound, or None."""
        return summary[0]


class MonteCarloCrn(Workload):
    """run_monte_carlo in the call shape of acceptance test AC09: default
    parameters and scenario, both schemes under common random numbers,
    100 slots per trial, N_TRIALS trials per call.  Pool entry k is the
    base seed k * N_TRIALS, so no two entries share a trial."""

    name = "mc_crn"
    primary = "monte_carlo"
    N_TRIALS = 50
    POOL = 16
    quality_samples = 1          # steady_bound: the first call's 50 trials
    traced_rounds = 1

    def __init__(self):
        self.params = SystemParams()
        self.slots_per_call = 2 * self.N_TRIALS * ScenarioConfig().n_slots

    def rounds(self, rng):
        while True:
            for j in rng.permutation(self.POOL):
                yield [(self.primary, int(j))], self.slots_per_call

    def call(self, kind, key):
        cfg = ScenarioConfig(seed=key * self.N_TRIALS)
        return simulate.run_monte_carlo(cfg, self.params, self.N_TRIALS)

    def summary(self, kind, key, out):
        return [steady_mean(out.proposed.weighted_actual_mean),
                steady_mean(out.right_above.weighted_actual_mean),
                float(np.mean(out.proposed.rate_mean)),
                float(np.mean(out.right_above.rate_mean)),
                float(np.mean(out.proposed.weighted_actual_std))]


class TrackRightAbove(Workload):
    """Independent single-trial run_scenario calls for the right-above
    scheme, one pool seed each; the per-slot solver is never called."""

    name = "track_right_above"
    primary = "scenario"
    POOL = 512
    quality_samples = 384        # steady_bound averages the first 384 scenarios
    traced_rounds = 150

    def __init__(self):
        self.params = SystemParams()
        self.n_slots = ScenarioConfig().n_slots

    def rounds(self, rng):
        while True:
            for seed in rng.permutation(self.POOL):
                yield [(self.primary, int(seed))], self.n_slots

    def call(self, kind, key):
        cfg = ScenarioConfig(seed=key, scheme="right_above")
        return simulate.run_scenario(cfg, self.params)

    def summary(self, kind, key, out):
        final = out[-1]
        return [steady_mean([r.weighted_actual for r in out]),
                final.x_hat,
                final.x_true,
                float(np.mean([r.rate_bpshz for r in out])),
                len(out)]


class Geometry(Workload):
    """solve_sp1 over a dense (alpha, H) grid through sweep_angle, one
    call per alpha over all heights, plus tradeoff_frontier at the CLI
    defaults (a1 = 0.15, 2001-point grid) for the CLI default alphas.
    One round makes every one of these calls once, in a seeded order."""

    name = "geometry"
    primary = "sweep"
    ALPHAS = tuple(i / 20 for i in range(21))
    HEIGHTS = tuple(10.0 + i for i in range(91))
    FRONTIER_ALPHAS = (0.0, 0.25, 0.5, 0.75, 1.0)
    FRONTIER_A1 = 0.15
    FRONTIER_GRID = 2001
    solves_per_call = len(HEIGHTS)
    quality_samples = len(ALPHAS)  # steady_bound: mean g* over the whole grid
    traced_rounds = 4

    def __init__(self):
        self.params = SystemParams()

    def pool_ops(self):
        return ([(self.primary, i) for i in range(len(self.ALPHAS))]
                + [("frontier", i) for i in range(len(self.FRONTIER_ALPHAS))])

    def rounds(self, rng):
        while True:
            ops = [(self.primary, int(i)) for i in rng.permutation(len(self.ALPHAS))]
            ops += [("frontier", int(i)) for i in rng.permutation(len(self.FRONTIER_ALPHAS))]
            yield ops, 1

    def call(self, kind, key):
        if kind == self.primary:
            return optimize.sweep_angle(self.params, [self.ALPHAS[key]], self.HEIGHTS)
        p = replace(self.params, a1=self.FRONTIER_A1, alpha=self.FRONTIER_ALPHAS[key])
        return optimize.tradeoff_frontier(p, self.FRONTIER_GRID)

    def summary(self, kind, key, out):
        if kind == self.primary:
            if [row[1] for row in out] != list(self.HEIGHTS):
                raise ValueError("sweep rows do not follow the requested heights")
            return [row[2] for row in out] + [row[4] for row in out]
        return [len(out), math.fsum(r[1] for r in out), math.fsum(r[2] for r in out),
                math.fsum(r[3] for r in out)]

    def quality(self, kind, key, summary):
        if kind != self.primary:
            return None
        cell = replace(self.params, alpha=self.ALPHAS[key])
        return math.fsum(ekf.weighted_g(x_star, 0.0, replace(cell, h_alt=h))
                         for x_star, h in zip(summary, self.HEIGHTS)) / len(self.HEIGHTS)


WORKLOADS = {w.name: w for w in (MonteCarloCrn, TrackRightAbove, Geometry)}


def warm_up() -> None:
    """First calls of every path the workloads use, untimed: cached
    parameter properties, first numpy calls, first solver calls."""
    p = SystemParams()
    optimize.qos_radius(p)
    for scheme in ("proposed", "right_above"):
        simulate.run_scenario(ScenarioConfig(n_slots=3, scheme=scheme), p)
    optimize.sweep_angle(p, [0.0, 0.5, 1.0], [50.0])
    optimize.tradeoff_frontier(p, 3)


# -- traced run --

# Public functions wrapped at the module boundaries, as (module,
# attribute, layer name).  optimize imports achievable_rate directly, so
# that binding is wrapped too, under the sensing name.
TRACED = (
    (simulate, "run_monte_carlo", None),
    (simulate, "run_scenario", None),
    (simulate, "step_ground_truth", None),
    (optimize, "P1Instance", None),
    (optimize, "solve_p1_sca", None),
    (optimize, "objective_f", None),
    (optimize, "design_trajectory", None),
    (optimize, "qos_radius", None),
    (optimize, "sweep_angle", None),
    (optimize, "solve_sp1", None),
    (optimize, "g0_derivatives", None),
    (optimize, "tradeoff_frontier", None),
    (ekf, "predict", None),
    (ekf, "update", None),
    (ekf, "predicted_pcrb", None),
    (ekf, "crb_measurement", None),
    (ekf, "weighted_g", None),
    (sensing, "sample_measurement", None),
    (sensing, "achievable_rate", None),
    (optimize, "achievable_rate", "sensing.achievable_rate"),
)
LAYER_NAMES = tuple(dict.fromkeys(name or layer_name(mod, attr) for mod, attr, name in TRACED))
# Entry points the benchmark calls directly, wrapped so their calls are
# counted.  Their own code (the trial loop and aggregation, the loop over
# heights) is no measured layer, so its self time counts against
# trace.coverage; so does any code they run outside the wrapped layers.
ENTRY_ONLY = ("simulate.run_monte_carlo", "optimize.sweep_angle")


class Outcomes:
    """What the traced run learns from the records and slot problems
    passing through the wrappers: lost tracks and rate-floor misses per
    scheme, and a sample of slot problems for the solver-gap oracle."""

    GAP_EVERY = 61
    GAP_SAMPLES = 48

    def __init__(self):
        self.trials = {"proposed": 0, "right_above": 0}
        self.lost = {"proposed": 0, "right_above": 0}
        self.steady_right_above: list[float] = []
        self.floor_misses = 0
        self.floor_slots = 0
        self.solves = 0
        self.gap_sample = []

    def install(self, tracer) -> None:
        for mod, attr, name in TRACED:
            hook = {"run_scenario": self.on_scenario, "solve_p1_sca": self.on_slot_solve}.get(attr)
            tracer.wrap(mod, attr, name, hook)

    def on_scenario(self, args, kwargs, records) -> None:
        cfg = args[0] if args else kwargs["cfg"]
        params = args[1] if len(args) > 1 else kwargs["params"]
        self.trials[cfg.scheme] += 1
        self.lost[cfg.scheme] += lost_track(records[-1])
        if cfg.scheme == "right_above":
            self.steady_right_above.append(steady_mean([r.weighted_actual for r in records]))
        else:
            misses, slots = rate_floor_misses(records, params)
            self.floor_misses += misses
            self.floor_slots += slots

    def on_slot_solve(self, args, kwargs, result) -> None:
        if self.solves % self.GAP_EVERY == 0 and len(self.gap_sample) < self.GAP_SAMPLES:
            inst = args[0] if args else kwargs["inst"]
            self.gap_sample.append((inst, result.x_breve_opt))
        self.solves += 1

    def sca_gap_m(self) -> float:
        """Largest distance between a recorded slot optimum and the
        minimizer of ekf.predicted_pcrb found by a dense grid over the
        same window; call only after the tracer is removed."""
        return max((abs(x_opt - grid_minimizer(inst)) for inst, x_opt in self.gap_sample),
                   default=0.0)

    def metrics(self) -> dict[str, float]:
        def share(num, den):
            return num / den if den else 0.0
        return {
            "outcome.lost_track_share.proposed": share(self.lost["proposed"], self.trials["proposed"]),
            "outcome.lost_track_share.right_above":
                share(self.lost["right_above"], self.trials["right_above"]),
            "outcome.rate_floor_miss_share": share(self.floor_misses, self.floor_slots),
            "outcome.steady_bound_right_above":
                float(np.mean(self.steady_right_above)) if self.steady_right_above else 0.0,
        }


def grid_minimizer(inst, points: int = 401, passes: int = 4) -> float:
    """Minimizer of the slot objective over [inst.lo, inst.hi] by four
    nested 401-point grids, each spanning two cells of the previous one,
    evaluated with the public ekf.predicted_pcrb (about 4e-9 m
    resolution on a 12 m window)."""
    p = inst.params
    lo, hi = inst.lo, inst.hi
    best = lo
    for _ in range(passes):
        xs = np.linspace(lo, hi, points)
        vals = [ekf.predicted_pcrb(float(x), (float(x) - inst.x_hat_prev) / p.dt,
                                   inst.mse_pred, p).weighted for x in xs]
        k = int(np.argmin(vals))
        best = float(xs[k])
        lo, hi = float(xs[max(k - 1, 0)]), float(xs[min(k + 1, points - 1)])
    return best
