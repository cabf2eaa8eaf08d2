import json
import hashlib
import math
import platform
import subprocess
import sys

import numpy as np
import pytest

from uav_isac import cli
from uav_isac.params import PARAM_FIELD_NAMES, SystemParams
from uav_isac.validate import CheckResult

import oracles

TRACK_HEADER = ("n,t_s,x_true_m,v_true_mps,x_hat_m,v_hat_mps,x_breve_m,"
                "v_breve_mps,x_uav_m,v_uav_mps,pcrb_x_pred,pcrb_v_pred,"
                "pcrb_x_actual,pcrb_v_actual,weighted_actual,rate_bpshz,"
                "tr_mp,tr_mm")


def _run(args):
    return cli.main(list(args))


# -------------------------------------------------------------------- track

def test_track_writes_csv_and_manifest(tmp_path):
    out = tmp_path / "run.csv"
    assert _run(["track", "--slots", "10", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == TRACK_HEADER
    assert len(lines) == 11
    first = lines[1].split(",")
    assert len(first) == 18 and first[0] == "1"

    manifest = json.loads((tmp_path / "run.csv.manifest.json").read_text())
    assert manifest["subcommand"] == "track"
    assert manifest["seed"] == 0
    assert manifest["params"]["h_alt"] == 50.0
    assert manifest["output"]["sha256"] == hashlib.sha256(out.read_bytes()).hexdigest()
    assert manifest["python"] == platform.python_version()
    assert manifest["numpy"] == np.__version__


def test_track_is_bit_reproducible(tmp_path):
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    _run(["track", "--slots", "25", "--seed", "3", "--out", str(out_a)])
    _run(["track", "--slots", "25", "--seed", "3", "--out", str(out_b)])
    assert out_a.read_bytes() == out_b.read_bytes()


def test_track_seed_changes_output(tmp_path):
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    _run(["track", "--slots", "10", "--seed", "1", "--out", str(out_a)])
    _run(["track", "--slots", "10", "--seed", "2", "--out", str(out_b)])
    assert out_a.read_bytes() != out_b.read_bytes()


def test_track_roundtrips_17_digits(tmp_path):
    import uav_isac
    out = tmp_path / "run.csv"
    _run(["track", "--slots", "5", "--out", str(out)])
    recs = uav_isac.run_scenario(uav_isac.ScenarioConfig(n_slots=5), SystemParams())
    row = out.read_text().splitlines()[1].split(",")
    assert float(row[2]) == recs[0].x_true
    assert float(row[14]) == recs[0].weighted_actual


def test_track_env_seed_overrides_flag(tmp_path, monkeypatch):
    out_flag, out_env = tmp_path / "a.csv", tmp_path / "b.csv"
    _run(["track", "--slots", "8", "--seed", "5", "--out", str(out_flag)])
    monkeypatch.setenv("ISAC_SEED", "5")
    _run(["track", "--slots", "8", "--seed", "999", "--out", str(out_env)])
    assert out_flag.read_bytes() == out_env.read_bytes()
    manifest = json.loads((tmp_path / "b.csv.manifest.json").read_text())
    assert manifest["seed"] == 5


def test_track_bad_env_seed_is_config_error(tmp_path, monkeypatch):
    monkeypatch.setenv("ISAC_SEED", "not-a-number")
    assert _run(["track", "--out", str(tmp_path / "x.csv")]) == 2


def test_track_negative_seed_exits_2(tmp_path, monkeypatch, capsys):
    out = tmp_path / "x.csv"
    assert _run(["track", "--seed", "-1", "--out", str(out)]) == 2
    assert _run(["track", "--every", "0", "--out", str(out)]) == 2
    monkeypatch.setenv("ISAC_SEED", "-4")
    assert _run(["track", "--out", str(out)]) == 2
    assert "seed" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_track_every_prints_decimated_rows(tmp_path, capsys):
    out = tmp_path / "run.csv"
    _run(["track", "--slots", "10", "--every", "5", "--out", str(out)])
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == TRACK_HEADER
    assert [row.split(",")[0] for row in printed[1:]] == ["5", "10"]
    # the file itself is complete
    assert len(out.read_text().splitlines()) == 11


def test_track_no_every_prints_nothing(tmp_path, capsys):
    _run(["track", "--slots", "5", "--out", str(tmp_path / "run.csv")])
    assert capsys.readouterr().out == ""


def test_track_config_file_applies(tmp_path):
    cfgfile = tmp_path / "params.cfg"
    cfgfile.write_text("# altitude override\nh_alt = 60.0\ngamma_c = 10.5\n")
    out = tmp_path / "run.csv"
    assert _run(["track", str(cfgfile), "--slots", "5", "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "run.csv.manifest.json").read_text())
    assert manifest["params"]["h_alt"] == 60.0
    assert manifest["params"]["gamma_c"] == 10.5


@pytest.mark.parametrize("content", [
    "no_such_key = 1.0",
    "h_alt = fifty",
    "h_alt 50",
    "h_alt = -5",
    "n_t = 3.5",
    "gamma_c = 2000",   # qos_radius's 2**gamma_c - 1 overflows
    "gamma_c = 1e-20",  # and rounds to 0
    "sigma_c2_dbm = 4000",   # watts that overflow
    "sigma_c2_dbm = -4000",  # and round to 0
])
def test_track_bad_config_exits_2(tmp_path, content, capsys):
    cfgfile = tmp_path / "params.cfg"
    cfgfile.write_text(content + "\n")
    assert _run(["track", str(cfgfile), "--out", str(tmp_path / "x.csv")]) == 2
    assert "config error" in capsys.readouterr().err


def test_track_missing_config_exits_2(tmp_path):
    assert _run(["track", str(tmp_path / "absent.cfg"),
                 "--out", str(tmp_path / "x.csv")]) == 2


def test_track_infeasible_rate_target_exits_3(tmp_path, capsys):
    cfgfile = tmp_path / "params.cfg"
    cfgfile.write_text("gamma_c = 30\n")
    assert _run(["track", str(cfgfile), "--out", str(tmp_path / "x.csv")]) == 3
    assert "infeasible" in capsys.readouterr().err


def test_track_refused_by_the_package_exits_4(tmp_path, capsys):
    cfgfile = tmp_path / "params.cfg"
    cfgfile.write_text("h_alt = 1e150\n")
    out = tmp_path / "x.csv"
    assert _run(["track", str(cfgfile), "--scheme", "right-above", "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.splitlines() == [err.rstrip("\n")]
    assert err.startswith("refused: SingularMatrixError: slot 1: noise variances")
    assert list(tmp_path.iterdir()) == [cfgfile]  # no CSV, no manifest


def test_track_right_above_scheme(tmp_path):
    out = tmp_path / "ra.csv"
    assert _run(["track", "--scheme", "right-above", "--slots", "30",
                 "--out", str(out)]) == 0
    rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
    assert any(r[6] == "0" for r in rows)          # overhead target reached
    assert any(r[17] == "inf" for r in rows)       # crb_v barrier printed as inf


# -------------------------------------------------------------- sweep-angle

def test_sweep_angle_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    assert _run(["sweep-angle", "--alphas", "0,1", "--h-min", "30",
                 "--h-max", "50", "--h-step", "10", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "alpha,H_m,x_star_m,phi_star_deg,branch"
    assert len(lines) == 7
    cells = lines[1].split(",")
    assert cells[0] == "0" and cells[1] == "30"
    assert float(cells[3]) == pytest.approx(oracles.FROZEN["atan_sqrt2_deg"])
    assert cells[4] == "alpha0"


def test_sweep_angle_bad_grid_exits_2(tmp_path):
    assert _run(["sweep-angle", "--h-min", "50", "--h-max", "40",
                 "--out", str(tmp_path / "s.csv")]) == 2
    assert _run(["sweep-angle", "--h-step", "0", "--out", str(tmp_path / "s.csv")]) == 2
    assert _run(["sweep-angle", "--alphas", ",", "--out", str(tmp_path / "s.csv")]) == 2
    assert _run(["sweep-angle", "--alphas", "0,x", "--out", str(tmp_path / "s.csv")]) == 2


@pytest.mark.parametrize("flag, value", [
    ("--h-step", "nan"), ("--h-min", "nan"), ("--h-max", "nan"), ("--h-max", "inf")])
def test_sweep_angle_non_finite_heights_exit_2(tmp_path, flag, value):
    out = tmp_path / "s.csv"
    assert _run(["sweep-angle", flag, value, "--out", str(out)]) == 2
    assert list(tmp_path.iterdir()) == []


def test_sweep_angle_out_of_range_alpha_exits_2(tmp_path):
    out = tmp_path / "s.csv"
    assert _run(["sweep-angle", "--alphas", "0.5,1.5", "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["--h-step", "1e-300"],                              # about 9e301 heights
    ["--h-step", "5e-324"],                              # a span over step that overflows
    ["--alphas", "0,0.5,1", "--h-step", "0.0025"],       # 36001 heights, 108003 rows
])
def test_sweep_angle_refuses_a_grid_over_the_row_cap(tmp_path, monkeypatch, capsys, args):
    # the count is checked before any height or row is built
    monkeypatch.setattr(cli, "sweep_angle", lambda *a: pytest.fail("sweep_angle was called"))
    assert _run(["sweep-angle", *args, "--out", str(tmp_path / "s.csv")]) == 2
    assert f"more than {cli.MAX_GRID_ROWS} rows" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_sweep_angle_accepts_a_grid_at_the_row_cap(tmp_path, monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "sweep_angle", lambda p, alphas, hs: seen.append(len(hs)) or [])
    assert _run(["sweep-angle", "--alphas", "0.5", "--h-min", "1", "--h-max",
                 str(cli.MAX_GRID_ROWS), "--h-step", "1", "--out", str(tmp_path / "s.csv")]) == 0
    assert seen == [cli.MAX_GRID_ROWS]


# ----------------------------------------------------------------- tradeoff

def test_tradeoff_csv(tmp_path):
    out = tmp_path / "trade.csv"
    assert _run(["tradeoff", "--alphas", "0.5", "--x-grid", "501",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "alpha,x_m,rate_bpshz,sensing_perf"
    rows = [ln.split(",") for ln in lines[1:]]
    assert all(r[0] == "0.5" for r in rows)
    assert float(rows[0][1]) == 0.0 and float(rows[0][3]) == 0.0
    perfs = [float(r[3]) for r in rows]
    assert perfs == sorted(perfs)
    manifest = json.loads((tmp_path / "trade.csv.manifest.json").read_text())
    assert manifest["params"]["a1"] == 0.15  # documented default override


def test_tradeoff_row_cap(tmp_path, monkeypatch, capsys):
    grids = []
    monkeypatch.setattr(cli, "tradeoff_frontier", lambda p, n: grids.append(n) or [])
    out = str(tmp_path / "t.csv")
    assert _run(["tradeoff", "--alphas", "0,1", "--x-grid", str(10 ** 12), "--out", out]) == 2
    assert _run(["tradeoff", "--alphas", "0,1", "--x-grid", str(cli.MAX_GRID_ROWS // 2 + 1),
                 "--out", out]) == 2
    assert f"more than {cli.MAX_GRID_ROWS} rows" in capsys.readouterr().err and grids == []
    assert _run(["tradeoff", "--alphas", "0,1", "--x-grid", str(cli.MAX_GRID_ROWS // 2),
                 "--out", out]) == 0
    assert grids == [cli.MAX_GRID_ROWS // 2] * 2


def test_tradeoff_bad_grid_exits_2(tmp_path):
    assert _run(["tradeoff", "--x-grid", "1", "--out", str(tmp_path / "t.csv")]) == 2
    assert _run(["tradeoff", "--alphas", "2.0", "--out", str(tmp_path / "t.csv")]) == 2


# ---------------------------------------------------------------- solve-sp1

def test_solve_sp1_prints_solution(capsys):
    assert _run(["solve-sp1", "--alpha", "1"]) == 0
    out = capsys.readouterr().out
    fields = dict(
        line.split(" = ") for line in out.splitlines() if " = " in line)
    assert float(fields["x_star_m"]) == pytest.approx(
        oracles.FROZEN["x_star_a10"], rel=1e-9)
    assert float(fields["v_star_mps"]) == 0.0
    assert "branch = alpha1_xi_pos" in out
    assert "bracket_m = [" in out


def test_solve_sp1_set_overrides(capsys):
    assert _run(["solve-sp1", "--alpha", "0", "--set", "h_alt=80"]) == 0
    out = capsys.readouterr().out
    fields = dict(
        line.split(" = ") for line in out.splitlines() if " = " in line)
    assert float(fields["x_star_m"]) == pytest.approx(80.0 / math.sqrt(2.0))


def test_solve_sp1_bad_set_exits_2(capsys):
    assert _run(["solve-sp1", "--set", "nope=1"]) == 2
    assert _run(["solve-sp1", "--set", "h_alt"]) == 2
    assert _run(["solve-sp1", "--alpha", "1.5"]) == 2


def test_solve_sp1_refused_by_the_package_exits_4(capsys):
    assert _run(["solve-sp1", "--H", "1e200"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [captured.err.rstrip("\n")]
    assert captured.err.startswith("refused: BracketError: objective derivative")


@pytest.mark.parametrize("h", ["1e200", "1.7e308"])
def test_solve_sp1_names_an_altitude_beyond_float_range(h, capsys):
    # H*H overflows past 6.7e153, and with it the bracket's lower end x_l
    assert _run(["solve-sp1", "--H", h]) == 4
    assert capsys.readouterr().err == (f"refused: BracketError: objective derivative cannot be "
                                       f"bracketed: H = {float(h):.6g} m is beyond float range\n")


@pytest.mark.parametrize("args, refusal", [
    (["--H", "1e60"], "BracketError: objective derivative does not change sign"),
    (["--H", "1e308", "--set", "alpha=1"],
     "SingularMatrixError: the geometry solution at H = 1e+308 m is not finite"),
], ids=["interior", "alpha1"])
def test_solve_sp1_refuses_a_non_finite_solution(args, refusal, capsys):
    # a bare FloatingPointError and a printed g_star = nan before
    assert _run(["solve-sp1", *args]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [captured.err.rstrip("\n")]
    assert captured.err.startswith(f"refused: {refusal}")


def test_sweep_angle_records_an_error_cell_beyond_the_model(tmp_path):
    out = tmp_path / "sweep.csv"
    assert _run(["sweep-angle", "--alphas", "0.5,1", "--h-min", "1e60", "--h-max", "1e60",
                 "--h-step", "1", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [(r[0], r[2], r[4]) for r in rows] == [("0.5", "nan", "error:BracketError"),
                                                  ("1", rows[1][2], "alpha1_xi_pos")]
    assert math.isfinite(float(rows[1][2]))


# ----------------------------------------------------------------- validate

def test_validate_subcommand_passes(capsys):
    assert _run(["validate"]) == 0
    out = capsys.readouterr().out
    assert "checks passed" in out
    assert "FAIL" not in out


# --------------------------------------------------------------- parameters

COMMANDS = ("track", "sweep-angle", "tradeoff", "solve-sp1", "validate")
# the smallest run of each file-writing command
SMALL_RUN = {"track": ["--slots", "2"],
             "sweep-angle": ["--alphas", "0.5", "--h-min", "50", "--h-max", "50"],
             "tradeoff": ["--alphas", "0.5", "--x-grid", "2"]}


@pytest.fixture
def ran_with(tmp_path, monkeypatch):
    """ran_with(command, *args): the parameter fields command ran with: the
    manifest's of a file-writing command, else the set that solve-sp1 or
    validate passed on (validate's suite itself does not run)."""
    seen = []
    solve = cli.solve_sp1
    monkeypatch.setattr(cli, "solve_sp1", lambda p: seen.append(p) or solve(p))
    monkeypatch.setattr(cli, "run_all", lambda p: seen.append(p) or [CheckResult("-", True, "")])

    def ran(command, *args):
        seen.clear()
        out = tmp_path / "o.csv"
        if command in SMALL_RUN:
            args = (*args, *SMALL_RUN[command], "--out", str(out))
        assert _run([command, *args]) == 0
        if command in SMALL_RUN:
            return json.loads((tmp_path / "o.csv.manifest.json").read_text())["params"]
        return {name: getattr(seen[0], name) for name in PARAM_FIELD_NAMES}
    return ran


@pytest.mark.parametrize("command", COMMANDS)
def test_parameters_resolve_defaults_then_file_then_set_in_order(command, tmp_path, ran_with):
    cfg = tmp_path / "p.cfg"
    cfg.write_text("# overrides\nh_alt = 60\na1 = 0.5\n\ngamma_c = 10  # a floor\n")
    a1 = 0.15 if command == "tradeoff" else 1.0  # tradeoff's own default
    got = ran_with(command)
    assert (got["h_alt"], got["a1"], got["gamma_c"]) == (50.0, a1, 11.0)
    got = ran_with(command, str(cfg))
    assert (got["h_alt"], got["a1"], got["gamma_c"]) == (60.0, 0.5, 10.0)
    # --set comes after the file wherever the file stands on the line
    got = ran_with(command, "--set", "h_alt=70", str(cfg))
    assert (got["h_alt"], got["a1"], got["gamma_c"]) == (70.0, 0.5, 10.0)
    got = ran_with(command, str(cfg), "--set", "h_alt=70", "--set", "n_t=16", "--set", "h_alt=80")
    assert (got["h_alt"], got["a1"], got["n_t"]) == (80.0, 0.5, 16)
    assert type(got["n_t"]) is int


@pytest.mark.parametrize("command, flag, field", [
    ("tradeoff", "--a1", "a1"), ("solve-sp1", "--alpha", "alpha"), ("solve-sp1", "--H", "h_alt")])
def test_flag_spellings_of_set_apply_in_command_line_order(command, flag, field, tmp_path,
                                                          ran_with):
    cfg = tmp_path / "p.cfg"
    cfg.write_text(f"{field} = 0.25\n")
    assert ran_with(command, str(cfg))[field] == 0.25
    assert ran_with(command, str(cfg), flag, "0.5")[field] == 0.5
    assert ran_with(command, flag, "0.5", "--set", f"{field}=0.75")[field] == 0.75
    assert ran_with(command, "--set", f"{field}=0.75", flag, "0.5")[field] == 0.5


def _exit(command, args, tmp_path, capsys):
    """command's exit code and stderr with args, after checking that a
    refusal printed one stderr line and wrote no file."""
    out = tmp_path / f"{command}.csv"
    code = _run([command, *args, *(["--out", str(out)] if command in SMALL_RUN else [])])
    err = capsys.readouterr().err
    if code in (2, 3, 4):
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists() and not (tmp_path / f"{command}.csv.manifest.json").exists()
    else:
        assert err == ""
    return code, err


@pytest.mark.parametrize("command", COMMANDS)
def test_every_command_refuses_a_bad_set_with_exit_2(command, tmp_path, capsys):
    for item in ("nope=1", "h_alt", "n_t=3.5", "h_alt=-5"):
        code, err = _exit(command, ["--set", item], tmp_path, capsys)
        assert code == 2 and err.startswith("config error: ")


def test_every_command_at_an_unreachable_rate_target(tmp_path, capsys):
    # at 200 m and 20 dBm no offset meets the 11 b/s/Hz floor; the geometry
    # commands do not read the floor, and validate's rate checks fail
    args = ["--set", "h_alt=200", "--set", "p_a_dbm=20"]
    codes = {command: _exit(command, args, tmp_path, capsys)[0] for command in COMMANDS}
    assert codes == {"track": 3, "sweep-angle": 0, "tradeoff": 3, "solve-sp1": 0, "validate": 1}


@pytest.mark.parametrize("setting, codes", [
    ("c=1e-300", (2, 2, 2, 2, 2)),              # 4/c^2 divides by c*c = 0
    ("wavelength=1e300", (2, 2, 2, 2, 2)),      # wavelength**2 overflows
    ("h_alt=1e-300", (4, 0, 4, 4, 1)),          # H^2 = 0: a frontier row of inf and nan
    ("h_alt=1e150", (3, 0, 3, 4, 1)),
    ("a1=1e150", (0, 0, 0, 0, 0)),              # the geometry bracket is one point
])
def test_every_command_at_an_edge_setting_exits_with_a_documented_code(setting, codes, tmp_path,
                                                                       capsys):
    # sweep-angle's heights replace h_alt, so its grid runs at any h_alt
    got = tuple(_exit(command, ["--set", setting], tmp_path, capsys)[0] for command in COMMANDS)
    assert got == codes


# ------------------------------------------------------------ console entry

def test_console_script_runs():
    proc = subprocess.run([sys.executable, "-m", "uav_isac.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "track" in proc.stdout and "sweep-angle" in proc.stdout
