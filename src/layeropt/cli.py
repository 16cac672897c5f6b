"""Batch front end: INI config in, CSV plus a plain-text summary out.

Commands: evaluate, optimize, check, sweep, asymptotics.  Each decision has
one owner.  ``_SCHEMA`` lists the keys each section accepts ([model] and
[kernel] by ``family``), and unknown sections or keys abort so sweep
campaigns cannot silently drift.  ``_read`` is the one conversion: every
missing or invalid value, sweep grids, portfolio sizes and command-line flags
(``[run]`` values) included, becomes a ``ConfigError``.  ``_validate_command``
checks what the command needs.  Every config fault exits with status 2,
solver failures with status 3; a sweep still writes every row and marks
the cells whose solve failed.  ``run`` is the one writer: each command
names its columns once and its rows read them from its results, in
deterministic order under a mandatory header row.
"""

from __future__ import annotations

import argparse
import ast
import configparser
import csv
import io
import math
import os
import sys
from dataclasses import dataclass, replace

from .conditions import _portfolios, asymptotic_profit_gaps, check_conditions, regime_map
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
    sweep_gammas: tuple[float, ...]
    sweep_gamma_rs: tuple[float, ...]
    sweep_epsilons: tuple[float, ...]
    sweep_optimize: bool
    asym_n: tuple[int, ...]
    asym_unit_mean: float
    asym_unit_sd: float
    tol_quad: float
    tol_root: float
    contract: IndemnitySchedule | None = None


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(float(v) for v in raw.replace(";", ",").split(",") if v.strip())


def _whole(value: float) -> int:
    if value != int(value):
        raise ValueError(f"portfolio size {value!r} is not a whole number")
    return int(value)


def _tolerance(raw, name: str) -> float:
    """A tolerance: a positive finite number, refused under ``name``."""
    try:
        value = float(raw)
    except ValueError:
        value = math.nan  # refused below under its name
    _check_positive(value, name)
    return value


def _contract(raw: str) -> IndemnitySchedule:
    pairs = ast.literal_eval(raw.replace("inf", "'inf'"))
    return schedule_from_layers([Layer(float(a), math.inf if b == "inf" else float(b)) for a, b in pairs])


def _given(s, key: str, rival: str) -> bool:
    """Whether the section gives ``key``; giving ``rival`` too is refused, since both set the loss scale."""
    if key in s and rival in s:
        raise ValueError(f"{key!r} and {rival!r} both set the loss scale; give one of them")
    return key in s


# [model] family: (its keys besides family, its model from the section)
_MODELS = {
    "exponential": ({"mean"}, lambda s: Exponential(s.getfloat("mean", 1.0))),
    "pareto": ({"shape", "scale", "mean"}, lambda s: Pareto.with_mean(float(s["shape"]), float(s["mean"]))
               if _given(s, "mean", "scale") else Pareto(float(s["shape"]), s.getfloat("scale", 1.0))),
    "lognormal": ({"mu", "sigma", "mean"}, lambda s: Lognormal(float(s["mu"]), float(s["sigma"]))
                  if _given(s, "mu", "mean") else Lognormal.from_mean(s.getfloat("mean", 1.0), float(s["sigma"]))),
    "gamma": ({"shape", "scale", "mean"}, lambda s: Gamma.from_mean(float(s["mean"]), float(s["shape"]))
              if _given(s, "mean", "scale") else Gamma(float(s["shape"]), s.getfloat("scale", 1.0))),
    "empirical-table": ({"path"}, lambda s: EmpiricalTable.from_csv(s["path"])),
}


# [kernel] family: (its parameter's key, its kernel from that value and gamma_r)
_KERNELS = {
    "quadratic": ("c", lambda c, gamma_r: PricingKernel(QuadraticCurve(c), gamma_r)),
    "power": ("r", lambda r, gamma_r: from_distortion(PowerDistortion(r), gamma_r)),
    "capped-linear": ("slope", lambda slope, gamma_r: from_distortion(CappedLinearDistortion(slope), gamma_r)),
}


def _kernel(s) -> PricingKernel:
    key, build = _KERNELS[s["family"]]
    return build(float(s[key]), float(s["gamma_r"]))


# section: (the keys it accepts, or a table of them by family; its RunConfig fields)
_SCHEMA = {
    "model": (
        {family: {"family", *keys} for family, (keys, _) in _MODELS.items()},
        lambda s: {"model": _MODELS[s["family"]][1](s)},
    ),
    "kernel": (
        {family: {"family", "gamma_r", key} for family, (key, _) in _KERNELS.items()},
        lambda s: {"kernel": _kernel(s)},
    ),
    "market": ({"gamma", "epsilon", "risk_measure", "beta"}, lambda s: {"market": MarketSpec(
        float(s["gamma"]), float(s["epsilon"]), s.get("risk_measure", "var"), s.getfloat("beta", 0.0))}),
    "run": ({"command", "out", "tol_quad", "tol_root"}, lambda s: {
        "command": s.get("command"), "out_path": s.get("out"),
        "tol_quad": _tolerance(s.get("tol_quad", 1e-10), "tol_quad"),
        "tol_root": _tolerance(s.get("tol_root", 1e-9), "tol_root"),
    }),
    "contract": ({"layers"}, lambda s: {"contract": _contract(s["layers"])}),
    "sweep": ({"gamma", "gamma_r", "epsilon", "optimize"}, lambda s: {
        "sweep_gammas": _floats(s.get("gamma", "")), "sweep_gamma_rs": _floats(s.get("gamma_r", "")),
        "sweep_epsilons": _floats(s.get("epsilon", "")), "sweep_optimize": s.getboolean("optimize", True),
    }),
    "asymptotics": ({"n", "unit_mean", "unit_sd"}, lambda s: {
        "asym_n": tuple(_whole(v) for v in _floats(s.get("n", ""))),
        "asym_unit_mean": s.getfloat("unit_mean", 1.0), "asym_unit_sd": s.getfloat("unit_sd", 1.0),
    }),
}


def _read(where: str, build, *args):
    """``build(*args)``, with any missing or invalid value a ConfigError that says where."""
    try:
        return build(*args)
    except KeyError as exc:
        raise ConfigError(f"{where} missing mandatory key {exc}") from exc
    except (ValueError, TypeError, SyntaxError, ArithmeticError, configparser.Error) as exc:
        raise ConfigError(f"{where} invalid: {exc}") from exc


def _section(parser, name: str) -> dict:
    """The RunConfig fields of section [name], once its keys match the schema."""
    section = parser[name]
    keys, fields = _SCHEMA[name]
    if isinstance(keys, dict):
        family = _read(f"[{name}]", section.get, "family")
        if family not in keys:
            raise ConfigError(f"unknown {name} family {family!r}; expected one of {sorted(keys)}")
        keys = keys[family]
    extra = set(section) - keys
    if extra:
        raise ConfigError(f"unknown keys in [{name}]: {sorted(extra)}")
    return _read(f"[{name}]", fields, section)


def _cells(config: RunConfig) -> list:
    """Every sweep cell as (gamma, gamma_r, epsilon, market, kernel), in row order."""
    return [
        (gamma, gamma_r, eps, replace(config.market, gamma=gamma, epsilon=eps), config.kernel.with_loading(gamma_r))
        for gamma in config.sweep_gammas for gamma_r in config.sweep_gamma_rs for eps in config.sweep_epsilons
    ]


def parse_config(text: str, flags: dict | None = None) -> RunConfig:
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax: {' '.join(str(exc).split())}") from exc
    unknown = set(parser.sections()) - set(_SCHEMA)
    if unknown:
        raise ConfigError(f"unknown sections: {sorted(unknown)}")
    for name in ("model", "kernel", "market", "run"):
        if name not in parser:
            raise ConfigError(f"missing mandatory section [{name}]")
    # absent optional sections read as empty, so each reader owns its defaults; command-line
    # flags set their [run] keys, "%" escaped, since configparser reads it as interpolation
    escaped = {key: value.replace("%", "%%") for key, value in (flags or {}).items()}
    parser.read_dict({"sweep": {}, "asymptotics": {}, "run": escaped})
    fields = {}
    for name in _SCHEMA:
        if name in parser:
            fields.update(_section(parser, name))
    config = RunConfig(**fields)
    # the market and the kernel own the ranges of the grid values, the portfolio model those of its sizes
    _read("[sweep]", _cells, config)
    _read("[asymptotics]", _portfolios, config.asym_n, config.asym_unit_mean, config.asym_unit_sd)
    _validate_command(config)
    return config


def _validate_command(config: RunConfig) -> None:
    if config.command not in COMMANDS:
        raise ConfigError(f"unknown command {config.command!r}; expected one of {COMMANDS}")
    if config.command == "evaluate" and config.contract is None:
        raise ConfigError("command 'evaluate' needs a [contract] section")
    if config.command == "sweep" and not (config.sweep_gammas and config.sweep_gamma_rs and config.sweep_epsilons):
        raise ConfigError("command 'sweep' needs gamma, gamma_r and epsilon grids in [sweep]")
    if config.command == "asymptotics" and not config.asym_n:
        raise ConfigError("command 'asymptotics' needs portfolio sizes in [asymptotics]")
    if config.out_path and not os.path.isdir(os.path.dirname(os.path.abspath(config.out_path))):
        raise ConfigError(f"no directory to write {config.out_path!r} in")


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _layers_text(schedule: IndemnitySchedule) -> str:
    return ";".join(f"{l.attachment:.12g}:{_fmt(l.detachment)}" for l in schedule.layers())


def _values(columns, *records, **named) -> list:
    """Each column's value: from ``named``, else the first record with that attribute."""
    return [named[c] if c in named else next(getattr(r, c) for r in records if hasattr(r, c)) for c in columns]


_CONDITIONS = (
    "loading_ok", "loading_margin", "quantile_ok", "quantile_margin", "solvency_ok",
    "solvency_value", "tail_ok", "tail_lhs", "tail_rhs", "gamma_upper", "gamma_lower",
    "predicted_shape",
)
_VALUATION = ("surplus", "profit", "risk", "ratio")
_OPTIMUM = ("classification", "layer_count", "layers", *_VALUATION, "mu_trace")
_SWEEP = ("gamma", "gamma_r", "epsilon", *_CONDITIONS, "realized_layer_count", "realized_classification")
_ASYMPTOTICS = ("n", "mean", "profit_ratio", "gap", "gap_times_sqrt_n")


def _sweep_row(config: RunConfig, cell, regimes: dict, errors: list) -> list:
    gamma, gamma_r, eps, market, kernel = cell
    row = dict.fromkeys(_SWEEP, "") | {"gamma": gamma, "gamma_r": gamma_r, "epsilon": eps}
    # one failing cell is reported in its row, not by aborting the sweep
    try:
        # the regime map depends on epsilon alone: one quadrature serves its gamma x gamma_r cells
        if eps not in regimes:
            regimes[eps] = regime_map(config.model, kernel.base, eps, market.risk_measure, tol=config.tol_quad)
        report = regimes[eps].report(kernel, market)
        row.update(zip(_CONDITIONS, _values(_CONDITIONS, report)))
        if config.sweep_optimize:
            result = dinkelbach_optimize(config.model, kernel, market, tol=config.tol_root)
            row.update(realized_layer_count=result.layer_count, realized_classification=result.classification)
    except NonpositiveRiskError:
        row["realized_classification"] = "aborted-nonpositive-risk"
    except (ValueError, ArithmeticError) as exc:
        errors.append(exc)
        row["realized_classification"] = "aborted-solver-error"
    return list(row.values())


def run(config: RunConfig) -> int:
    model, kernel, market = config.model, config.kernel, config.market
    errors = []
    if config.command == "check":
        report = check_conditions(model, kernel, market, tol=config.tol_quad)
        columns, rows, summary = _CONDITIONS, [_values(_CONDITIONS, report)], f"predicted shape: {report.predicted_shape}"
    elif config.command == "evaluate":
        value = criterion(model, kernel, config.contract, market, tol=config.tol_quad)
        columns, rows = _VALUATION, [_values(_VALUATION, value)]
        summary = f"ratio: {value.ratio:.6f} (profit {value.profit:.6f} / {market.risk_measure} {value.risk:.6f})"
    elif config.command == "optimize":
        result = dinkelbach_optimize(model, kernel, market, tol=config.tol_root)
        layers = _layers_text(result.schedule)
        mu_trace = ";".join(f"{m:.12g}" for m in result.mu_trace)
        columns, rows = _OPTIMUM, [_values(_OPTIMUM, result, result.valuation, layers=layers, mu_trace=mu_trace)]
        summary = f"optimum: {result.classification} [{layers}] ratio {result.valuation.ratio:.6f}"
    elif config.command == "sweep":
        regimes = {}
        rows = [_sweep_row(config, cell, regimes, errors) for cell in _cells(config)]
        columns, summary = _SWEEP, f"sweep: {len(rows)} cells"
    else:  # asymptotics
        table = asymptotic_profit_gaps(config.asym_n, config.asym_unit_mean, config.asym_unit_sd, kernel, market)
        columns, rows = _ASYMPTOTICS, [_values(_ASYMPTOTICS, r) for r in table]
        summary = f"asymptotics: {len(table)} portfolio sizes"

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([_fmt(v) for v in row] for row in rows)
    if config.out_path:
        with open(config.out_path, "w", newline="") as fh:
            fh.write(buf.getvalue())
    else:
        sys.stdout.write(buf.getvalue())
    print(summary)
    if errors:
        print(f"solver error in {len(errors)} of {len(rows)} sweep cells; first: {errors[0]}", file=sys.stderr)
        return 3
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="layeropt", description="Reinsurance layer pricing and optimization")
    parser.add_argument("--config", required=True, help="path to an INI configuration file")
    parser.add_argument("--out", help="CSV output path ([run] out)")
    parser.add_argument("--command", help=f"one of {', '.join(COMMANDS)} ([run] command)")
    parser.add_argument("--tol-quad", help="quadrature tolerance ([run] tol_quad)")
    parser.add_argument("--tol-root", help="root-finding tolerance ([run] tol_root)")
    args = vars(parser.parse_args(argv))

    try:
        with open(args.pop("config")) as fh:
            config = parse_config(fh.read(), {key: value for key, value in args.items() if value is not None})
        return run(config)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
