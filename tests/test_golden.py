"""The default closed-loop runs and geometry outputs reproduce the pinned
golden CSVs."""

import math
from pathlib import Path

import pytest

from uav_isac import cli
from uav_isac.params import SystemParams
from uav_isac.simulate import ScenarioConfig, run_monte_carlo

GOLDEN = Path(__file__).parent / "golden"
RTOL = 1e-9
# absolute floor per column, for cells whose value passes near zero
ABS_FLOOR = {
    "n": 0.0, "t_s": 0.0,
    "x_true_m": 1e-9, "x_hat_m": 1e-9, "x_breve_m": 1e-9, "x_uav_m": 1e-9,
    "v_true_mps": 1e-8, "v_hat_mps": 1e-8, "v_breve_mps": 1e-8, "v_uav_mps": 1e-8,
    "pcrb_x_pred": 1e-15, "pcrb_v_pred": 1e-15, "pcrb_x_actual": 1e-15,
    "pcrb_v_actual": 1e-15, "weighted_actual": 1e-15,
    "rate_bpshz": 1e-12, "tr_mp": 1e-15, "tr_mm": 1e-15,
}
MC_STATS = ("weighted_actual_mean", "weighted_actual_std", "rate_mean", "rate_std")
# absolute floor per statistic of the Monte Carlo golden, by the same rule
MC_ABS_FLOOR = {"weighted_actual_mean": 1e-15, "weighted_actual_std": 1e-15,
                "rate_mean": 1e-12, "rate_std": 1e-12}


def _read(path):
    header, *rows = path.read_text().splitlines()
    return header.split(","), [[float(v) for v in row.split(",")] for row in rows]


@pytest.mark.parametrize("scheme", ["proposed", "right-above"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_track_matches_golden(tmp_path, scheme, seed):
    name = f"track_{scheme.replace('-', '_')}_seed{seed}.csv"
    out = tmp_path / name
    assert cli.main(["track", "--slots", "100", "--seed", str(seed),
                     "--scheme", scheme, "--out", str(out)]) == 0
    cols, got = _read(out)
    want_cols, want = _read(GOLDEN / name)
    assert cols == want_cols and set(cols) == set(ABS_FLOOR)
    assert len(got) == len(want) == 100
    for got_row, want_row in zip(got, want):
        for col, g, w in zip(cols, got_row, want_row):
            if not math.isfinite(w):
                assert g == w, f"slot {want_row[0]:g} {col}: {g!r} != {w!r}"
            else:
                tol = max(RTOL * abs(w), ABS_FLOOR[col])
                assert abs(g - w) <= tol, f"slot {want_row[0]:g} {col}: {g!r} vs {w!r}"


def test_monte_carlo_matches_golden():
    """The 50-trial scheme comparison at the defaults (seed 0)."""
    mc = run_monte_carlo(ScenarioConfig(), SystemParams(), 50)
    cols, want = _read(GOLDEN / "monte_carlo_seed0.csv")
    stats = [(scheme, name) for scheme in ("proposed", "right_above") for name in MC_STATS]
    assert cols == ["n"] + [f"{scheme}_{name}" for scheme, name in stats]
    assert len(want) == mc.n_slots == 100
    for j, (scheme, name) in enumerate(stats, 1):
        got = getattr(getattr(mc, scheme), name).tolist()
        for want_row, g in zip(want, got):
            w = want_row[j]
            tol = max(RTOL * abs(w), MC_ABS_FLOOR[name])
            assert abs(g - w) <= tol, f"slot {want_row[0]:g} {cols[j]}: {g!r} vs {w!r}"


@pytest.mark.parametrize("command, name", [
    ("sweep-angle", "sweep_angle_default.csv"),
    ("tradeoff", "tradeoff_default.csv"),
])
def test_geometry_matches_golden_bytes(tmp_path, command, name):
    out = tmp_path / name
    assert cli.main([command, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()
