"""Tests for the configuration front end."""

import csv
import math
from pathlib import Path

import pytest

from layeropt import Lognormal, QuadraticCurve, cli, regime_map
from layeropt.cli import ConfigError, main, parse_config, run

BASELINE_CONFIG = """
[model]
family = exponential
mean = 1.0

[kernel]
family = quadratic
c = 0.5
gamma_r = 0.1

[market]
gamma = 0.1
epsilon = 0.05
risk_measure = var

[run]
command = check
"""


# The CLI's output on demos/baseline.ini, as is and with risk_measure = cvar,
# one file per command.  Regenerate a file only for an intended output change:
#   layeropt --config <ini> --command <command> --out tests/golden/baseline_<measure>_<command>.csv
GOLDEN = Path(__file__).resolve().parent / "golden"
BASELINE_INI = Path(__file__).resolve().parent.parent / "demos" / "baseline.ini"

PARETO_CVAR_SWEEP = """
[model]
family = pareto
shape = 2.0
mean = 1.0

[kernel]
family = quadratic
c = 0.5
gamma_r = 0.1

[market]
gamma = 0.1
epsilon = 0.05
risk_measure = cvar

[run]
command = sweep

[sweep]
gamma = 0.05, 0.1, 0.15, 0.2
gamma_r = 0.1, 0.2, 0.3, 0.4
epsilon = 0.02, 0.05, 0.1
"""


def _with(command: str, extra: str = "") -> str:
    return BASELINE_CONFIG.replace("command = check", f"command = {command}") + extra


class TestParseConfig:
    def test_baseline(self):
        config = parse_config(BASELINE_CONFIG)
        assert config.market.gamma == 0.1
        assert config.market.epsilon == 0.05
        assert config.model.family == "exponential"
        assert config.kernel.gamma_r == 0.1
        assert config.command == "check"

    def test_epsilon_out_of_range(self):
        bad = BASELINE_CONFIG.replace("epsilon = 0.05", "epsilon = 0.7")
        with pytest.raises(ConfigError, match=r"epsilon must lie in \(0, 0.5\)"):
            parse_config(bad)

    def test_kernel_slope_out_of_range(self):
        bad = BASELINE_CONFIG.replace("c = 0.5", "c = 1.2")
        with pytest.raises(ConfigError, match=r"c must lie in \(0, 1\]"):
            parse_config(bad)

    def test_unknown_key_rejected(self):
        bad = BASELINE_CONFIG.replace("mean = 1.0", "mean = 1.0\nmood = sunny")
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_config(bad)

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown sections"):
            parse_config(BASELINE_CONFIG + "\n[extras]\nx = 1\n")

    def test_missing_section_rejected(self):
        bad = BASELINE_CONFIG.replace("[market]", "[marketing]")
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_contract_layers_parse(self):
        config = parse_config(_with("evaluate", "\n[contract]\nlayers = [[1.0, 3.0], [5.0, inf]]\n"))
        layers = config.contract.layers()
        assert layers[0].attachment == 1.0
        assert math.isinf(layers[1].detachment)

    def test_power_kernel(self):
        text = BASELINE_CONFIG.replace("family = quadratic\nc = 0.5", "family = power\nr = 0.5")
        config = parse_config(text)
        assert config.kernel.k0_prime_at_zero == pytest.approx(0.5)


class TestRun:
    def test_check_writes_expected_row(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        config = parse_config(BASELINE_CONFIG)
        config = type(config)(**{**config.__dict__, "out_path": str(out)})
        assert run(config) == 0
        text = out.read_text()
        header, row = text.strip().splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["predicted_shape"] == "single-layer"
        assert float(cells["tail_lhs"]) == pytest.approx(0.025, abs=1e-9)
        assert float(cells["tail_rhs"]) == pytest.approx(0.225625, abs=1e-9)

    def test_check_deterministic_bytes(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            config = parse_config(BASELINE_CONFIG)
            config = type(config)(**{**config.__dict__, "out_path": str(out)})
            run(config)
        assert out1.read_bytes() == out2.read_bytes()

    def test_optimize_row(self, tmp_path):
        out = tmp_path / "opt.csv"
        config = parse_config(_with("optimize"))
        config = type(config)(**{**config.__dict__, "out_path": str(out)})
        assert run(config) == 0
        header, row = out.read_text().strip().splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["classification"] == "single-layer"
        assert float(cells["ratio"]) == pytest.approx(0.033410, abs=5e-5)
        attach = float(cells["layers"].split(":")[0])
        assert attach == pytest.approx(2.9215, abs=0.005)

    def test_sweep_rows(self, tmp_path):
        extra = "\n[sweep]\ngamma = 0.05, 0.1\ngamma_r = 0.1, 0.2\nepsilon = 0.05\noptimize = true\n"
        out = tmp_path / "sweep.csv"
        config = parse_config(_with("sweep", extra))
        config = type(config)(**{**config.__dict__, "out_path": str(out)})
        assert run(config) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 5  # header + 4 cells
        header = lines[0].split(",")
        shape_col = header.index("predicted_shape")
        realized_col = header.index("realized_layer_count")
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[shape_col] == "single-layer"
            assert cells[realized_col] in {"0", "1"}

    def test_evaluate(self, tmp_path):
        out = tmp_path / "eval.csv"
        config = parse_config(_with("evaluate", "\n[contract]\nlayers = [[1.0, 2.995732273553991]]\n"))
        config = type(config)(**{**config.__dict__, "out_path": str(out)})
        assert run(config) == 0
        header, row = out.read_text().strip().splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert float(cells["risk"]) == pytest.approx(1.0, abs=1e-6)

    def test_asymptotics(self, tmp_path):
        extra = "\n[asymptotics]\nn = 100, 1000\nunit_mean = 1.0\nunit_sd = 1.0\n"
        out = tmp_path / "asym.csv"
        config = parse_config(_with("asymptotics", extra))
        config = type(config)(**{**config.__dict__, "out_path": str(out)})
        assert run(config) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 3


class TestMain:
    def test_exit_zero_on_success(self, tmp_path, capsys):
        path = tmp_path / "cfg.ini"
        path.write_text(BASELINE_CONFIG)
        out = tmp_path / "out.csv"
        assert main(["--config", str(path), "--out", str(out)]) == 0
        assert out.exists()

    def test_exit_two_on_config_error(self, tmp_path, capsys):
        path = tmp_path / "cfg.ini"
        path.write_text(BASELINE_CONFIG.replace("epsilon = 0.05", "epsilon = 0.9"))
        assert main(["--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_exit_two_on_missing_file(self, tmp_path, capsys):
        assert main(["--config", str(tmp_path / "nope.ini")]) == 2

    def test_exit_three_on_solver_error(self, tmp_path, capsys):
        # flat kernel at equal loadings puts the optimizer in the trivial regime
        text = BASELINE_CONFIG.replace("family = quadratic\nc = 0.5", "family = power\nr = 1.0")
        text = text.replace("command = check", "command = optimize")
        path = tmp_path / "cfg.ini"
        path.write_text(text)
        assert main(["--config", str(path)]) == 3
        assert "solver error" in capsys.readouterr().err

    def test_command_override(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text(BASELINE_CONFIG + "\n[contract]\nlayers = [[1.0, 2.0]]\n")
        out = tmp_path / "out.csv"
        assert main(["--config", str(path), "--command", "evaluate", "--out", str(out)]) == 0
        assert "surplus" in out.read_text().splitlines()[0]

    def test_empirical_table_model(self, tmp_path):
        table = tmp_path / "table.csv"
        table.write_text("0.0,0.0\n1.0,0.6\n2.0,0.9\n")
        text = BASELINE_CONFIG.replace(
            "family = exponential\nmean = 1.0", f"family = empirical-table\npath = {table}"
        )
        path = tmp_path / "cfg.ini"
        path.write_text(text)
        out = tmp_path / "out.csv"
        assert main(["--config", str(path), "--out", str(out)]) == 0


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("flag", ["--tol-quad", "--tol-root"])
def test_exit_two_on_tolerance_override_that_is_not_positive_and_finite(tmp_path, capsys, flag, value):
    path = tmp_path / "cfg.ini"
    path.write_text(_with("optimize"))
    out = tmp_path / "out.csv"
    assert main(["--config", str(path), "--out", str(out), f"{flag}={value}"]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_exit_two_on_beta_that_is_not_finite_and_nonnegative(tmp_path, capsys, value):
    path = tmp_path / "cfg.ini"
    path.write_text(BASELINE_INI.read_text().replace("beta = 0.0", f"beta = {value}"))
    out = tmp_path / "out.csv"
    assert main(["--config", str(path), "--command", "evaluate", "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("row", ["1.0,nan", "nan,0.9", "inf,0.9"])
def test_exit_two_on_table_entry_that_is_not_finite(tmp_path, capsys, row):
    table = tmp_path / "table.csv"
    table.write_text(f"0.0,0.0\n0.5,0.4\n{row}\n")
    path = tmp_path / "cfg.ini"
    text = BASELINE_CONFIG.replace("family = exponential\nmean = 1.0", f"family = empirical-table\npath = {table}")
    path.write_text(text)
    out = tmp_path / "out.csv"
    assert main(["--config", str(path), "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "line, value, command, out_name",
    [
        ("gamma = 0.05, 0.1", "gamma = abc", "check", "out.csv"),
        ("optimize = true", "optimize = maybe", "sweep", "out.csv"),
        ("n = 100, 1000, 10000", "n = x", "asymptotics", "out.csv"),
        ("n = 100, 1000, 10000", "n = 1e400", "check", "out.csv"),
        ("n = 100, 1000, 10000", "n = 100.7", "asymptotics", "out.csv"),
        ("layers = [[1.0, 2.995732273553991]]", "layers = [[1.0, 3.0], [2.0, 4.0]]", "evaluate", "out.csv"),
        ("epsilon = 0.05\noptimize", "epsilon = 0.7\noptimize", "sweep", "out.csv"),
        ("gamma_r = 0.1, 0.2", "gamma_r = -0.2", "sweep", "out.csv"),
        ("gamma = 0.05, 0.1", "gamma = 0", "sweep", "out.csv"),
        ("gamma = 0.05, 0.1", "gamma = nan", "sweep", "out.csv"),
        ("unit_sd = 1.0", "unit_sd = 1%", "check", "out.csv"),
        ("family = exponential", "family = exponential%", "check", "out.csv"),
        ("command = check", "command = check", "check", "missing/out.csv"),
        ("n = 100, 1000, 10000", "n = 5", "asymptotics", "out.csv"),
        ("n = 100, 1000, 10000", "n = 100, 5", "check", "out.csv"),
        ("unit_mean = 1.0", "unit_mean = -1", "asymptotics", "out.csv"),
        ("unit_sd = 1.0", "unit_sd = 0", "check", "out.csv"),
        ("# Running example for the command-line front end.", "text before any section", "check", "out.csv"),
        ("optimize = true", "optimize", "sweep", "out.csv"),
        # two keys that both set the loss scale, next to the kept "mean = 1.0"
        ("family = exponential", "family = lognormal\nmu = 3.0\nsigma = 0.5", "check", "out.csv"),
        ("family = exponential", "family = pareto\nshape = 2.0\nscale = 3.0", "check", "out.csv"),
        ("family = exponential", "family = gamma\nshape = 2.0\nscale = 3.0", "check", "out.csv"),
    ],
)
def test_exit_two_on_bad_config_value(tmp_path, capsys, line, value, command, out_name):
    # demos/baseline.ini with one line changed, or an output path in a missing directory
    text = BASELINE_INI.read_text()
    assert line in text
    path = tmp_path / "cfg.ini"
    path.write_text(text.replace(line, value))
    out = tmp_path / out_name
    assert main(["--config", str(path), "--command", command, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("value", ["0", "-1e-10", "nan", "inf", "tight"])
@pytest.mark.parametrize("key", ["tol_quad", "tol_root"])
def test_tolerance_in_config_must_be_positive_and_finite(key, value):
    with pytest.raises(ConfigError, match=key):
        parse_config(BASELINE_CONFIG + f"{key} = {value}\n")


def test_tolerance_overrides_reach_the_run(tmp_path, monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "run", lambda config: seen.append(config) or 0)
    path = tmp_path / "cfg.ini"
    path.write_text(BASELINE_CONFIG + "tol_quad = 1e-8\ntol_root = 1e-7\n")
    assert main(["--config", str(path)]) == 0
    assert main(["--config", str(path), "--tol-quad", "1e-12", "--tol-root", "1e-11"]) == 0
    assert [(c.tol_quad, c.tol_root) for c in seen] == [(1e-8, 1e-7), (1e-12, 1e-11)]


@pytest.mark.parametrize(
    "edits",
    [
        # the file's own command, evaluate, cannot run: the file has no [contract]
        [("command = check", "command = evaluate"), ("[contract]\nlayers = [[1.0, 2.995732273553991]]\n", "")],
        # the file names no command
        [("command = check\n", "")],
    ],
    ids=["evaluate-without-contract", "no-command"],
)
def test_command_flag_replaces_the_file_command_before_it_is_checked(tmp_path, edits):
    text = BASELINE_INI.read_text()
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    path = tmp_path / "cfg.ini"
    path.write_text(text)
    out = tmp_path / "out.csv"
    assert main(["--config", str(path), "--command", "check", "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "baseline_var_check.csv").read_bytes()


@pytest.mark.parametrize("flag, value", [("--tol-quad", "abc"), ("--tol-root", "abc"), ("--command", "bogus")])
def test_exit_two_on_bad_flag_with_one_line(tmp_path, capsys, flag, value):
    out = tmp_path / "out.csv"
    assert main(["--config", str(BASELINE_INI), flag, value, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert not out.exists()


def test_out_flag_with_percent_sign_writes_that_file(tmp_path):
    # configparser reads "%" as interpolation, so the flag's value is escaped
    out = tmp_path / "a%b.csv"
    assert main(["--config", str(BASELINE_INI), "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "baseline_var_check.csv").read_bytes()


@pytest.mark.parametrize("measure", ["var", "cvar"])
@pytest.mark.parametrize("command", ["check", "evaluate", "optimize", "sweep", "asymptotics"])
def test_baseline_csv_matches_golden_bytes(tmp_path, capsys, measure, command):
    text = BASELINE_INI.read_text().replace("risk_measure = var", f"risk_measure = {measure}")
    path = tmp_path / "cfg.ini"
    path.write_text(text)
    out = tmp_path / "out.csv"
    assert main(["--config", str(path), "--command", command, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"baseline_{measure}_{command}.csv").read_bytes()


# tests/golden/power.ini: Gamma(0.8) under the power kernel r = 0.7, whose layer edges at a positive
# level are solved by Newton; its sweep and optimize files, as is and with risk_measure = cvar,
# hold multi-layer cells under both measures
POWER_INI = GOLDEN / "power.ini"


@pytest.mark.parametrize("measure", ["var", "cvar"])
@pytest.mark.parametrize("command", ["sweep", "optimize"])
def test_power_kernel_csv_matches_golden_bytes(tmp_path, capsys, measure, command):
    text = POWER_INI.read_text()
    assert "risk_measure = var" in text
    path = tmp_path / "power.ini"
    path.write_text(text.replace("risk_measure = var", f"risk_measure = {measure}"))
    out = tmp_path / "out.csv"
    assert main(["--config", str(path), "--command", command, "--out", str(out)]) == 0
    golden = (GOLDEN / f"power_{measure}_{command}.csv").read_bytes()
    assert out.read_bytes() == golden
    # a solved multi-layer row: the optimize file's first field, the sweep file's realized classification
    assert b"\nmulti-layer," in golden or b",multi-layer\n" in golden


def test_sweep_marks_failed_cells_and_writes_every_row(tmp_path, capsys, monkeypatch):
    """Cells whose solve raises (here a failure injected into the solver on
    the cells with gamma_r >= 0.3) are marked, the other cells are still
    solved, and the exit status still reports the failure."""
    solve = cli.dinkelbach_optimize

    def failing_on_high_loadings(model, kernel, market, **kwargs):
        if kernel.gamma_r >= 0.3:
            raise ValueError("injected solver failure")
        return solve(model, kernel, market, **kwargs)

    monkeypatch.setattr(cli, "dinkelbach_optimize", failing_on_high_loadings)
    path = tmp_path / "cfg.ini"
    path.write_text(PARETO_CVAR_SWEEP)
    out = tmp_path / "sweep.csv"
    assert main(["--config", str(path), "--out", str(out)]) == 3
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 48
    failed = [r for r in rows if r["realized_classification"] == "aborted-solver-error"]
    assert failed
    assert all(float(r["gamma_r"]) >= 0.3 for r in failed)
    for row in failed:
        assert row["realized_layer_count"] == ""
        assert row["predicted_shape"] != ""
    solved = [r for r in rows if r not in failed]
    assert all(r["realized_classification"] in {"no-cession", "single-layer", "multi-layer"} for r in solved)
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"solver error in {len(failed)} of 48 sweep cells; first: ")


def test_pareto2_cvar_sweep_solves_every_cell(tmp_path):
    # every cell prices unbounded CVaR layers on a Pareto(2) tail
    path = tmp_path / "cfg.ini"
    path.write_text(PARETO_CVAR_SWEEP)
    out = tmp_path / "sweep.csv"
    assert main(["--config", str(path), "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 48
    assert all(r["realized_classification"] in {"no-cession", "single-layer", "multi-layer"} for r in rows)


def test_evaluate_unbounded_layer_on_pareto_tail(tmp_path):
    # Pareto(2) with mean 1 has S(x) = (1/2x)^2 above x = 1/2; the loaded
    # quadratic kernel is K(1 - s) = 0.65 s - 0.55 s^2, so [1, inf) costs
    # 0.65/4 - 0.55/48, and the VaR level 0.5/sqrt(0.05) leaves retained VaR 1
    text = PARETO_CVAR_SWEEP.replace("risk_measure = cvar", "risk_measure = var")
    text = text.replace("command = sweep", "command = evaluate") + "\n[contract]\nlayers = [[1.0, inf]]\n"
    path = tmp_path / "cfg.ini"
    path.write_text(text)
    out = tmp_path / "out.csv"
    assert main(["--config", str(path), "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        (row,) = list(csv.DictReader(fh))
    cost = 0.65 / 4.0 - 0.55 / 48.0
    assert float(row["surplus"]) == pytest.approx(cost, rel=1e-12)
    assert float(row["risk"]) == pytest.approx(1.0, rel=1e-12)
    assert float(row["ratio"]) == pytest.approx(0.1 - cost, rel=1e-12)


def test_evaluate_unpurchasable_unbounded_layer_exits_three(tmp_path, capsys):
    # Pareto(1.2) with the power kernel s**0.8: 1.2 * 0.8 <= 1, infinite price
    text = PARETO_CVAR_SWEEP.replace("shape = 2.0", "shape = 1.2")
    text = text.replace("family = quadratic\nc = 0.5", "family = power\nr = 0.8")
    text = text.replace("command = sweep", "command = evaluate") + "\n[contract]\nlayers = [[1.0, inf]]\n"
    path = tmp_path / "cfg.ini"
    path.write_text(text)
    assert main(["--config", str(path)]) == 3
    assert "not purchasable" in capsys.readouterr().err


# a lognormal VaR sweep whose grid crosses the loading and the solvency lines
LOGNORMAL_VAR_SWEEP = """
[model]
family = lognormal
mean = 1.0
sigma = 1.5

[kernel]
family = quadratic
c = 0.5
gamma_r = 0.1

[market]
gamma = 0.1
epsilon = 0.05
risk_measure = var

[run]
command = sweep

[sweep]
gamma = 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45
gamma_r = 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4
epsilon = 0.05, 0.2
optimize = false
"""


def test_sweep_prices_one_finite_quadrature_per_epsilon(tmp_path, finite_quadratures):
    path = tmp_path / "cfg.ini"
    path.write_text(LOGNORMAL_VAR_SWEEP)
    out = tmp_path / "sweep.csv"
    assert main(["--config", str(path), "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        assert len(list(csv.DictReader(fh))) == 9 * 8 * 2
    assert len(finite_quadratures) == 2


def test_regime_map_lines_agree_with_every_var_sweep_cell(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text(LOGNORMAL_VAR_SWEEP)
    out = tmp_path / "sweep.csv"
    assert main(["--config", str(path), "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    model = Lognormal.from_mean(1.0, 1.5)
    regimes = {eps: regime_map(model, QuadraticCurve(0.5), eps) for eps in (0.05, 0.2)}
    sides = set()
    for row in rows:
        gamma, gamma_r, regime = float(row["gamma"]), float(row["gamma_r"]), regimes[float(row["epsilon"])]
        assert row["tail_ok"] == ("true" if regime.tail_ok else "false")
        for name, line in (("loading_ok", regime.loading_line(gamma_r)), ("solvency_ok", regime.solvency_line(gamma_r))):
            if abs(gamma - line) <= 1e-12 * line:
                continue  # within rounding of a line either verdict is right
            assert row[name] == ("true" if gamma <= line else "false"), (name, row)
            sides.add((name, gamma <= line))
    assert len(sides) == 4  # the grid has cells on both sides of both lines
