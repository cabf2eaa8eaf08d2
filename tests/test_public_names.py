"""Every public name resolves: each name in uav_isac.__all__, and each
(module, attribute) the benchmark's traced run wraps (perfbench/workloads.py
TRACED), so a deletion that would break the traced benchmark fails here."""

import sys
from pathlib import Path

import uav_isac

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
