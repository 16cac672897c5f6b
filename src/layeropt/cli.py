"""Batch front end: INI config in, CSV plus a plain-text summary out.

Commands: evaluate, optimize, check, sweep, asymptotics.  Parsing is strict;
unknown sections or keys abort with exit status 2 so sweep campaigns cannot
silently drift.  Solver failures exit with status 3; a sweep still writes
every row and marks the cells whose solve failed.  CSV output is written
in deterministic order with a mandatory header row.
"""

from __future__ import annotations

import argparse
import ast
import configparser
import csv
import io
import math
import sys
from dataclasses import dataclass, replace

from .conditions import asymptotic_profit_gaps, check_conditions
from .contracts import IndemnitySchedule, Layer, schedule_from_layers
from .kernels import CappedLinearDistortion, PowerDistortion, PricingKernel, QuadraticCurve, from_distortion
from .losses import EmpiricalTable, Exponential, Gamma, Lognormal, Pareto, _check_positive
from .optimizer import dinkelbach_optimize
from .valuation import MarketSpec, NonpositiveRiskError, criterion

COMMANDS = ("evaluate", "optimize", "check", "sweep", "asymptotics")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    model: object
    kernel: PricingKernel
    market: MarketSpec
    command: str
    out_path: str | None
    contract: IndemnitySchedule | None
    sweep_gammas: tuple[float, ...]
    sweep_gamma_rs: tuple[float, ...]
    sweep_epsilons: tuple[float, ...]
    sweep_optimize: bool
    asym_n: tuple[int, ...]
    asym_unit_mean: float
    asym_unit_sd: float
    tol_quad: float
    tol_root: float


def _tolerance(raw, name: str) -> float:
    """A tolerance from the config or the command line: a positive finite number."""
    try:
        value = float(raw)
        _check_positive(value, name)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc
    return value


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(float(v) for v in raw.replace(";", ",").split(",") if v.strip())


_MODEL_KEYS = {
    "exponential": {"mean"},
    "pareto": {"shape", "scale", "mean"},
    "lognormal": {"mu", "sigma", "mean"},
    "gamma": {"shape", "scale", "mean"},
    "empirical-table": {"path"},
}


def _build_model(section):
    family = section.get("family")
    if family not in _MODEL_KEYS:
        raise ConfigError(f"unknown model family {family!r}; expected one of {sorted(_MODEL_KEYS)}")
    extra = set(section) - _MODEL_KEYS[family] - {"family"}
    if extra:
        raise ConfigError(f"unknown keys in [model]: {sorted(extra)}")
    try:
        if family == "exponential":
            return Exponential(float(section.get("mean", 1.0)))
        if family == "pareto":
            shape = float(section["shape"])
            if "mean" in section:
                return Pareto.with_mean(shape, float(section["mean"]))
            return Pareto(shape, float(section.get("scale", 1.0)))
        if family == "lognormal":
            sigma = float(section["sigma"])
            if "mu" in section:
                return Lognormal(float(section["mu"]), sigma)
            return Lognormal.from_mean(float(section.get("mean", 1.0)), sigma)
        if family == "gamma":
            shape = float(section["shape"])
            if "mean" in section:
                return Gamma.from_mean(float(section["mean"]), shape)
            return Gamma(shape, float(section.get("scale", 1.0)))
        return EmpiricalTable.from_csv(section["path"])
    except KeyError as exc:
        raise ConfigError(f"[model] missing mandatory key {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"[model] invalid: {exc}") from exc


def _build_kernel(section) -> PricingKernel:
    family = section.get("family")
    try:
        gamma_r = float(section["gamma_r"])
    except KeyError as exc:
        raise ConfigError(f"[kernel] missing mandatory key {exc}") from exc
    keys = set(section) - {"family", "gamma_r"}
    try:
        if family == "quadratic":
            if keys - {"c"}:
                raise ConfigError(f"unknown keys in [kernel]: {sorted(keys - {'c'})}")
            return PricingKernel(QuadraticCurve(float(section["c"])), gamma_r)
        if family == "power":
            if keys - {"r"}:
                raise ConfigError(f"unknown keys in [kernel]: {sorted(keys - {'r'})}")
            return from_distortion(PowerDistortion(float(section["r"])), gamma_r)
        if family == "capped-linear":
            if keys - {"slope"}:
                raise ConfigError(f"unknown keys in [kernel]: {sorted(keys - {'slope'})}")
            return from_distortion(CappedLinearDistortion(float(section["slope"])), gamma_r)
    except KeyError as exc:
        raise ConfigError(f"[kernel] missing mandatory key {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"[kernel] invalid: {exc}") from exc
    raise ConfigError(f"unknown kernel family {family!r}; expected quadratic, power or capped-linear")


def _build_market(section) -> MarketSpec:
    extra = set(section) - {"gamma", "epsilon", "risk_measure", "beta"}
    if extra:
        raise ConfigError(f"unknown keys in [market]: {sorted(extra)}")
    try:
        return MarketSpec(
            gamma=float(section["gamma"]),
            epsilon=float(section["epsilon"]),
            risk_measure=section.get("risk_measure", "var"),
            beta=float(section.get("beta", 0.0)),
        )
    except KeyError as exc:
        raise ConfigError(f"[market] missing mandatory key {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"[market] invalid: {exc}") from exc


def _build_contract(section) -> IndemnitySchedule:
    raw = section.get("layers")
    if raw is None:
        raise ConfigError("[contract] needs a 'layers' key like [[1.0, 3.0], [5.0, inf]]")
    extra = set(section) - {"layers"}
    if extra:
        raise ConfigError(f"unknown keys in [contract]: {sorted(extra)}")
    try:
        parsed = ast.literal_eval(raw.replace("inf", "'inf'"))
        layers = [Layer(float(a), math.inf if b == "inf" else float(b)) for a, b in parsed]
    except (ValueError, SyntaxError, TypeError) as exc:
        raise ConfigError(f"[contract] layers malformed: {exc}") from exc
    return schedule_from_layers(layers)


def parse_config(text: str) -> RunConfig:
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax: {exc}") from exc

    known = {"model", "kernel", "market", "run", "contract", "sweep", "asymptotics"}
    unknown = set(parser.sections()) - known
    if unknown:
        raise ConfigError(f"unknown sections: {sorted(unknown)}")
    for name in ("model", "kernel", "market", "run"):
        if name not in parser:
            raise ConfigError(f"missing mandatory section [{name}]")

    run = parser["run"]
    extra = set(run) - {"command", "out", "tol_quad", "tol_root"}
    if extra:
        raise ConfigError(f"unknown keys in [run]: {sorted(extra)}")
    command = run.get("command")
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}; expected one of {COMMANDS}")

    sweep_g = sweep_gr = sweep_e = ()
    sweep_opt = True
    if "sweep" in parser:
        sec = parser["sweep"]
        extra = set(sec) - {"gamma", "gamma_r", "epsilon", "optimize"}
        if extra:
            raise ConfigError(f"unknown keys in [sweep]: {sorted(extra)}")
        sweep_g = _floats(sec.get("gamma", ""))
        sweep_gr = _floats(sec.get("gamma_r", ""))
        sweep_e = _floats(sec.get("epsilon", ""))
        sweep_opt = sec.getboolean("optimize", fallback=True)
    elif command == "sweep":
        raise ConfigError("command 'sweep' needs a [sweep] section")

    asym_n: tuple[int, ...] = ()
    asym_um = asym_us = 1.0
    if "asymptotics" in parser:
        sec = parser["asymptotics"]
        extra = set(sec) - {"n", "unit_mean", "unit_sd"}
        if extra:
            raise ConfigError(f"unknown keys in [asymptotics]: {sorted(extra)}")
        asym_n = tuple(int(v) for v in _floats(sec.get("n", "")))
        asym_um = float(sec.get("unit_mean", 1.0))
        asym_us = float(sec.get("unit_sd", 1.0))
    elif command == "asymptotics":
        raise ConfigError("command 'asymptotics' needs an [asymptotics] section")

    contract = _build_contract(parser["contract"]) if "contract" in parser else None

    return RunConfig(
        model=_build_model(parser["model"]),
        kernel=_build_kernel(parser["kernel"]),
        market=_build_market(parser["market"]),
        command=command,
        out_path=run.get("out"),
        contract=contract,
        sweep_gammas=sweep_g,
        sweep_gamma_rs=sweep_gr,
        sweep_epsilons=sweep_e,
        sweep_optimize=sweep_opt,
        asym_n=asym_n,
        asym_unit_mean=asym_um,
        asym_unit_sd=asym_us,
        tol_quad=_tolerance(run.get("tol_quad", 1e-10), "[run] tol_quad"),
        tol_root=_tolerance(run.get("tol_root", 1e-9), "[run] tol_root"),
    )


def _validate_command(config: RunConfig) -> None:
    if config.command == "evaluate" and config.contract is None:
        raise ConfigError("command 'evaluate' needs a [contract] section")
    if config.command == "sweep" and not (config.sweep_gammas and config.sweep_gamma_rs and config.sweep_epsilons):
        raise ConfigError("command 'sweep' needs gamma, gamma_r and epsilon grids in [sweep]")
    if config.command == "asymptotics" and not config.asym_n:
        raise ConfigError("command 'asymptotics' needs portfolio sizes in [asymptotics]")


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _layers_text(schedule: IndemnitySchedule) -> str:
    return ";".join(f"{l.attachment:.12g}:{_fmt(l.detachment)}" for l in schedule.layers())


def _write_csv(out_path, header, rows, echo):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    text = buf.getvalue()
    if out_path:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)
    if echo:
        sys.stdout.write(text)


def _condition_row(report):
    return [
        report.loading_ok, report.loading_margin, report.quantile_ok, report.quantile_margin,
        report.solvency_ok, report.solvency_value, report.tail_ok, report.tail_lhs,
        report.tail_rhs, report.gamma_upper, report.gamma_lower, report.predicted_shape,
    ]


_CONDITION_HEADER = [
    "loading_ok", "loading_margin", "quantile_ok", "quantile_margin", "solvency_ok",
    "solvency_value", "tail_ok", "tail_lhs", "tail_rhs", "gamma_upper", "gamma_lower",
    "predicted_shape",
]


def run(config: RunConfig) -> int:
    model, kernel, market = config.model, config.kernel, config.market
    echo = config.out_path is None
    if config.command == "check":
        report = check_conditions(model, kernel, market, tol=config.tol_quad)
        _write_csv(config.out_path, _CONDITION_HEADER, [_condition_row(report)], echo)
        print(f"predicted shape: {report.predicted_shape}")
    elif config.command == "evaluate":
        value = criterion(model, kernel, config.contract, market, tol=config.tol_quad)
        _write_csv(
            config.out_path,
            ["surplus", "profit", "risk", "ratio"],
            [[value.surplus, value.profit, value.risk, value.ratio]],
            echo,
        )
        print(f"ratio: {value.ratio:.6f} (profit {value.profit:.6f} / {market.risk_measure} {value.risk:.6f})")
    elif config.command == "optimize":
        result = dinkelbach_optimize(model, kernel, market, tol=config.tol_root)
        _write_csv(
            config.out_path,
            ["classification", "layer_count", "layers", "surplus", "profit", "risk", "ratio", "mu_trace"],
            [[
                result.classification, result.layer_count, _layers_text(result.schedule),
                result.valuation.surplus, result.valuation.profit, result.valuation.risk,
                result.valuation.ratio, ";".join(f"{m:.12g}" for m in result.mu_trace),
            ]],
            echo,
        )
        print(f"optimum: {result.classification} [{_layers_text(result.schedule)}] ratio {result.valuation.ratio:.6f}")
    elif config.command == "sweep":
        rows = []
        errors = []
        for gamma in config.sweep_gammas:
            for gamma_r in config.sweep_gamma_rs:
                for eps in config.sweep_epsilons:
                    cell_market = replace(market, gamma=gamma, epsilon=eps)
                    cell_kernel = kernel.with_loading(gamma_r)
                    conditions = [""] * len(_CONDITION_HEADER)
                    realized = ["", ""]
                    # one failing cell is reported in its row, not by aborting the sweep
                    try:
                        report = check_conditions(model, cell_kernel, cell_market, tol=config.tol_quad)
                        conditions = _condition_row(report)
                        if config.sweep_optimize:
                            result = dinkelbach_optimize(model, cell_kernel, cell_market, tol=config.tol_root)
                            realized = [result.layer_count, result.classification]
                    except NonpositiveRiskError:
                        realized = ["", "aborted-nonpositive-risk"]
                    except (ValueError, ArithmeticError) as exc:
                        errors.append(exc)
                        realized = ["", "aborted-solver-error"]
                    rows.append([gamma, gamma_r, eps] + conditions + realized)
        header = ["gamma", "gamma_r", "epsilon"] + _CONDITION_HEADER + ["realized_layer_count", "realized_classification"]
        _write_csv(config.out_path, header, rows, echo)
        print(f"sweep: {len(rows)} cells")
        if errors:
            print(f"solver error in {len(errors)} of {len(rows)} sweep cells; first: {errors[0]}", file=sys.stderr)
            return 3
    else:  # asymptotics
        table = asymptotic_profit_gaps(config.asym_n, config.asym_unit_mean, config.asym_unit_sd, kernel, market)
        _write_csv(
            config.out_path,
            ["n", "mean", "profit_ratio", "gap", "gap_times_sqrt_n"],
            [[r.n, r.mean, r.profit_ratio, r.gap, r.gap_times_sqrt_n] for r in table],
            echo,
        )
        print(f"asymptotics: {len(table)} portfolio sizes")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="layeropt", description="Reinsurance layer pricing and optimization")
    parser.add_argument("--config", required=True, help="path to an INI configuration file")
    parser.add_argument("--out", help="CSV output path (overrides the config)")
    parser.add_argument("--command", choices=COMMANDS, help="command (overrides the config)")
    parser.add_argument("--tol-quad", type=float, help="quadrature tolerance override")
    parser.add_argument("--tol-root", type=float, help="root-finding tolerance override")
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            config = parse_config(fh.read())
        if args.command:
            config = replace(config, command=args.command)
        if args.out:
            config = replace(config, out_path=args.out)
        if args.tol_quad is not None:
            config = replace(config, tol_quad=_tolerance(args.tol_quad, "--tol-quad"))
        if args.tol_root is not None:
            config = replace(config, tol_root=_tolerance(args.tol_root, "--tol-root"))
        _validate_command(config)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        return run(config)
    except (NonpositiveRiskError, ValueError, ArithmeticError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
