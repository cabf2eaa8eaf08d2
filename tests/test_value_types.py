"""The one value type that the tracking loop builds every slot,
SlotRecord, is a slotted dataclass, not a frozen one, because a frozen
__init__ costs several times a plain one and a slotted one is cheaper
still; every 2x2 matrix the loop passes is an entry triple, a tuple.
These tests keep the slots, and what frozen=True guaranteed: no package
code assigns to its fields.  Configs, parameter sets and results stay
frozen."""

import ast
import dataclasses
from pathlib import Path

import pytest

import uav_isac
from uav_isac import optimize, params, simulate, validate

PER_SLOT = (simulate.SlotRecord,)
FROZEN = (params.SystemParams, simulate.ScenarioConfig, optimize.ScaResult, optimize.Sp1Result,
          simulate.SchemeStats, simulate.MonteCarloStats, validate.CheckResult)
FIELD_NAMES = {f.name for cls in PER_SLOT for f in dataclasses.fields(cls)}
MODULES = sorted(Path(uav_isac.__file__).parent.glob("*.py"))


def _field_stores(source: str) -> list[tuple[int, str]]:
    """(line, field) of every attribute store or delete that names a field
    of the per-slot types, and of every setattr/__setattr__ call that
    names one as a string literal."""
    stores = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del)):
            name = node.attr
        elif (isinstance(node, ast.Call) and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant)
              and (isinstance(node.func, ast.Name) and node.func.id == "setattr"
                   or isinstance(node.func, ast.Attribute) and node.func.attr == "__setattr__")):
            name = node.args[1].value
        else:
            continue
        if name in FIELD_NAMES:
            stores.append((node.lineno, name))
    return sorted(stores)


def test_per_slot_types_are_plain_dataclasses_with_distinct_fields():
    assert not any(cls.__dataclass_params__.frozen for cls in PER_SLOT)
    assert sum(len(dataclasses.fields(cls)) for cls in PER_SLOT) == len(FIELD_NAMES) == 19


@pytest.mark.parametrize("cls", PER_SLOT, ids=lambda cls: cls.__name__)
def test_per_slot_types_are_slotted(cls):
    names = tuple(f.name for f in dataclasses.fields(cls))
    instance = cls(*(0.0 for _ in names))
    assert cls.__slots__ == names
    assert not hasattr(instance, "__dict__")


@pytest.mark.parametrize("cls", FROZEN, ids=lambda cls: cls.__name__)
def test_configs_and_results_stay_frozen(cls):
    assert cls.__dataclass_params__.frozen


def test_field_store_finder_sees_every_store_form():
    source = ("s.x_breve = 1.0\nr.x_true += 2.0\nm.v_breve: float = 0.0\na.x_hat, b.v_hat = 1, 2\n"
              "del f.tr_mm\nsetattr(p, 'tr_mp', q)\nobject.__setattr__(r, 'v_true', 0.0)\n"
              "s.other = 1.0\nsetattr(p, name, q)\n")
    assert _field_stores(source) == [(1, "x_breve"), (2, "x_true"), (3, "v_breve"), (4, "v_hat"),
                                     (4, "x_hat"), (5, "tr_mm"), (6, "tr_mp"), (7, "v_true")]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_package_never_assigns_a_per_slot_field(path):
    assert _field_stores(path.read_text()) == []
