"""Print one sha256 digest of the tracking records, the Monte Carlo
statistics and the refusals of a set of edge configurations.

    python tests/record_digest.py [SRC]

SRC is the source tree to import uav_isac from (default: the src
directory next to this file's parent), so one copy of this script can
digest two checkouts, e.g. a change and its base:

    python tests/record_digest.py src
    python tests/record_digest.py ../base/src

Two trees print the same digest when every record of run_scenario
(seeds 0-19, both schemes, seven parameter sets), every 20-trial
run_monte_carlo statistic on the same sets, and every refusal (type,
message, batch_index) of the edge configurations below are bit for bit
the same.  Only the public API is called, so the script runs at older
commits too.  It is not a test: pytest does not collect it, and a change
may alter behaviour on purpose.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import astuple
from pathlib import Path

SEEDS = range(20)
SCHEMES = ("proposed", "right_above")
MC_TRIALS = 20
EDGE_MC_TRIALS = 3


# SystemParams fields of the record sets
PARAMETER_SETS = {
    "default": {},
    "alpha=0": {"alpha": 0.0},
    "alpha=1": {"alpha": 1.0},
    "q_tilde=0.05": {"q_tilde": 0.05},
    "v_a_max=0": {"v_a_max": 0.0},
    "gamma_c=12": {"gamma_c": 12.0},
    "gamma_c=12.5": {"gamma_c": 12.5},
}
# ScenarioConfig and SystemParams fields of the edge configurations
EDGE_CONFIGURATIONS = {
    "far": ({"init_obj_pos": 1e200}, {}),
    "far_behind": ({"init_obj_pos": -1e160}, {}),
    "nan_geometry": ({"init_est_std": (1e200, 0.0)}, {}),
    "zero_mse": ({"init_mse": (0.0, 0.0)}, {"q_tilde": 0.0}),
    "zero_mse_and_qos": ({"init_mse": (0.0, 0.0)}, {"q_tilde": 0.0, "gamma_c": 30.0}),
    "tr_mm_overflow": ({"init_est_std": (1e80, 0.0)}, {}),
    "no_position_information": ({"n_slots": 5, "init_est_std": (1e100, 0.0)}, {}),
    "reach_rounding": ({"init_est_std": (1e60, 0.0)}, {}),
    "flagged": ({"init_obj_pos": 200.0}, {}),
    "gamma_c=30": ({}, {"gamma_c": 30.0}),
    "1e20_m": ({"init_obj_pos": 1e20}, {}),
    "h_alt=1e150": ({}, {"h_alt": 1e150}),
}


def _outcome(call) -> str:
    """repr of what call() returns, or of the error it raises."""
    try:
        return repr(call())
    except Exception as exc:  # a refusal is part of the behaviour
        return repr(("error", type(exc).__name__, str(exc), getattr(exc, "batch_index", None)))


def _stats(mc) -> tuple:
    return tuple((name, tuple(col.tolist() for col in astuple(s)))
                 for name, s in (("proposed", mc.proposed), ("right_above", mc.right_above)))


def digest(uav_isac) -> tuple[str, int]:
    """(sha256 hex digest, number of digested items).  Building the
    configuration is part of each item, so a refused one is digested as
    its error."""
    ScenarioConfig, SystemParams = uav_isac.ScenarioConfig, uav_isac.SystemParams
    h = hashlib.sha256()
    items = 0

    def add(label: str, call) -> None:
        nonlocal items
        h.update(f"{label}\n{_outcome(call)}\n".encode())
        items += 1

    def records(cfg: dict, params: dict):
        return uav_isac.run_scenario(ScenarioConfig(**cfg), SystemParams(**params))

    def stats(cfg: dict, params: dict, n_trials: int):
        return _stats(uav_isac.run_monte_carlo(ScenarioConfig(**cfg), SystemParams(**params),
                                               n_trials))

    for name, params in PARAMETER_SETS.items():
        for scheme in SCHEMES:
            for seed in SEEDS:
                add(f"records {name} {scheme} {seed}",
                    lambda: records({"seed": seed, "scheme": scheme}, params))
        add(f"monte_carlo {name}", lambda: stats({}, params, MC_TRIALS))
    for name, (cfg, params) in EDGE_CONFIGURATIONS.items():
        for scheme in SCHEMES:
            add(f"edge {name} {scheme}", lambda: records({**cfg, "scheme": scheme}, params))
        add(f"edge {name} monte_carlo", lambda: stats(cfg, params, EDGE_MC_TRIALS))
    return h.hexdigest(), items


def main(argv: list[str]) -> None:
    src = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src.resolve()))
    import uav_isac

    value, items = digest(uav_isac)
    print(f"{value}  {items} items  {Path(uav_isac.__file__).parent}")


if __name__ == "__main__":
    main(sys.argv)
