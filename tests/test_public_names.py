"""Every public name resolves: each name in uav_isac.__all__, and each
(module, attribute) the benchmark's traced run wraps (perfbench/workloads.py
TRACED), so a deletion that would break the traced benchmark fails here.
The solvers look their public names up on the module at call time, so a
wrapper set on the module sees their calls."""

import sys
from pathlib import Path

import uav_isac
from uav_isac import ekf, optimize
from uav_isac.params import SystemParams
from uav_isac.simulate import ScenarioConfig, run_monte_carlo

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_exported_name_resolves():
    assert [name for name in uav_isac.__all__ if not hasattr(uav_isac, name)] == []


def test_every_traced_benchmark_name_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # perfbench/ is only read
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        import workloads
        missing = [f"{mod.__name__}.{attr}" for mod, attr, _ in workloads.TRACED
                   if not hasattr(mod, attr)]
    finally:
        for name in ("workloads", "tracing"):
            sys.modules.pop(name, None)
    assert missing == []


def test_solvers_call_their_public_names_through_the_module(monkeypatch):
    # wrapped as the benchmark's tracer wraps them: setattr on the module
    layers = ((optimize, "objective_f"), (ekf, "predicted_pcrb"), (optimize, "g0_derivatives"))
    counts = dict.fromkeys((attr for _, attr in layers), 0)
    for mod, attr in layers:
        def counting(*args, _fn=getattr(mod, attr), _attr=attr):
            counts[_attr] += 1
            return _fn(*args)
        monkeypatch.setattr(mod, attr, counting)
    p = SystemParams()
    run_monte_carlo(ScenarioConfig(n_slots=3), p, 2)
    optimize.sweep_angle(p, [0.5], [30.0, 50.0])
    assert [attr for attr, n in counts.items() if n == 0] == []
