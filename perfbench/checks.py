"""Output checks of the three workloads, against references computed apart
from the program (``references``) and the properties the method must have.

Each ``check_*`` looks at the outcomes of one pass and returns one verdict
per operation: ``OK``, ``FAULT`` (a known program fault, counted as a failed
operation) or a text saying what is wrong.
"""

from __future__ import annotations

import csv
import io
import math
import subprocess
import sys

import references as ref
from workloads import (
    BASELINE_C, BASELINE_EPS, BASELINE_GAMMA, BASELINE_GAMMA_R, BASELINE_INI, CLI_TIMEOUT_S, FAULT, OK, OUT, ROOT,
    CliOutcome, Failure, child_env, cli_argv,
)


def _optim_checks(r: ref.RefModel, kernel, market, result, report, what: str):
    """Checks every optimizer result must pass; returns a list of problems."""
    problems = []
    want = ref.ratio(r, kernel, ref.layers_of(result.schedule), market.gamma, market.epsilon, market.risk_measure)
    if not ref.close(result.valuation.ratio, want):
        problems.append(f"{what} ratio {result.valuation.ratio:.10g} != reference {want:.10g}")
    floor = ref.ratio(r, kernel, [], market.gamma, market.epsilon, market.risk_measure)
    if not ref.at_least(result.valuation.ratio, floor):
        problems.append(f"{what} ratio {result.valuation.ratio:.10g} below no cession {floor:.10g}")
    if report.all_ok and not ref.at_least(kernel.gamma_r, result.valuation.ratio):
        problems.append(f"{what} ratio {result.valuation.ratio:.10g} above gamma_r {kernel.gamma_r:.10g}")
    if report.predicted_shape == "single-layer" and result.layer_count > 1:
        problems.append(f"{what} has {result.layer_count} layers where one was predicted")
    return problems


def _first_order_checks(r, kernel, market, result):
    equal, bounds = ref.first_order_gaps(r, kernel, ref.layers_of(result.schedule), result.valuation.ratio,
                                         market.epsilon)
    problems = [f"optimality condition {got:.10g} != {want:.10g}" for got, want in equal
                if not ref.close(got, want, ref.FIRST_ORDER_RTOL)]
    problems += [f"no cession although the kernel drops to {got:.10g} below the ratio {bound:.10g}"
                 for got, bound in bounds if not ref.at_least(got, bound)]
    return problems


def _mu_nondecreasing(trace) -> bool:
    return all(ref.at_least(b, a) for a, b in zip(trace, trace[1:]))


def check_stop_loss(lo, ops, outcomes):
    verdicts = []
    for op, out in zip(ops, outcomes):
        model, kernel, market = op.spec
        report = lo.check_conditions(model, kernel, market)
        if isinstance(out, Failure):
            if out.kind == "NonpositiveRiskError" and report.predicted_shape == "trivial-infinite-ratio":
                verdicts.append(OK)
            else:
                verdicts.append(f"raised {out.kind}: {out.message}")
            continue
        tsl, dink = out
        r = ref.RefModel(model)
        problems = _optim_checks(r, kernel, market, tsl, report, "stop loss")
        problems += _optim_checks(r, kernel, market, dink, report, "dinkelbach")
        problems += _first_order_checks(r, kernel, market, dink)
        if tsl.layer_count > 1:
            problems.append("stop loss has more than one layer")
        if not ref.at_least(dink.valuation.ratio, tsl.valuation.ratio):
            problems.append(f"dinkelbach {dink.valuation.ratio:.10g} below stop loss {tsl.valuation.ratio:.10g}")
        if not _mu_nondecreasing(dink.mu_trace):
            problems.append("dinkelbach multiplier trace decreases")
        if problems:
            verdicts.append("; ".join(problems))
        elif dink.layer_count == 1 and not ref.at_least(tsl.valuation.ratio, dink.valuation.ratio):
            # the best single layer exists (Dinkelbach found it) but the
            # stop-loss search reported a worse one
            verdicts.append(FAULT)
        else:
            verdicts.append(OK)
    return verdicts


def check_regime_sweep(lo, ops, outcomes):
    verdicts = []
    refs = {}
    for op, out in zip(ops, outcomes):
        model, kernel, market = op.spec
        if isinstance(out, Failure):
            verdicts.append(f"raised {out.kind}: {out.message}")
            continue
        report, result = out
        r = refs.setdefault(id(model), ref.RefModel(model))
        problems = []
        lhs, rhs, solvency = ref.condition_values(r, kernel, market.gamma, market.epsilon)
        for name, got, want in (("tail_lhs", report.tail_lhs, lhs), ("tail_rhs", report.tail_rhs, rhs),
                                ("solvency_value", report.solvency_value, solvency)):
            if not ref.close(got, want):
                problems.append(f"{name} {got:.10g} != reference {want:.10g}")
        if isinstance(result, Failure):
            if report.predicted_shape != "trivial-infinite-ratio":
                problems.append(f"NonpositiveRiskError where {report.predicted_shape} was predicted")
        else:
            problems += _optim_checks(r, kernel, market, result, report, "dinkelbach")
            problems += _first_order_checks(r, kernel, market, result)
            if not _mu_nondecreasing(result.mu_trace):
                problems.append("dinkelbach multiplier trace decreases")
        verdicts.append("; ".join(problems) if problems else OK)
    return verdicts


def csv_rows(stdout: bytes):
    """CSV rows echoed before the one-line summary, as dicts."""
    lines = stdout.decode().splitlines()
    return list(csv.DictReader(io.StringIO("\n".join(lines[:-1]))))


def _baseline(lo):
    """Kernel and reference model of demos/baseline.ini."""
    return lo.quadratic_kernel(BASELINE_C, BASELINE_GAMMA_R), ref.RefModel(lo.Exponential(1.0))


def _layers_text(text: str):
    layers = []
    for part in filter(None, text.split(";")):
        a, b = part.split(":")
        layers.append((float(a), math.inf if b == "inf" else float(b)))
    return layers


def _check_conditions_row(r, kernel, gamma, eps, row, problems):
    lhs, rhs, solvency = ref.condition_values(r, kernel, gamma, eps)
    for name, want in (("tail_lhs", lhs), ("tail_rhs", rhs), ("solvency_value", solvency)):
        if not ref.close(float(row[name]), want):
            problems.append(f"{name} {row[name]} != reference {want:.10g}")
    if (row["tail_ok"] == "true") != (lhs <= rhs):
        problems.append("tail_ok disagrees with the reference")


def check_cli_outcome(lo, command_label, out: CliOutcome):
    """Verdict for one command's outcome."""
    kernel, r = _baseline(lo)
    problems = []
    if command_label == "pareto2-evaluate":
        if out.returncode == 3 and b"probability must lie strictly inside" in out.stderr:
            return FAULT  # tail octaves call quantile(1 - s/2) with an argument that rounds to 1
        pareto = ref.RefModel(lo.Pareto.with_mean(2.0, 1.0))
        if out.returncode != 0:
            return f"exit {out.returncode}: {out.stderr.decode().strip()[-200:]}"
        want = ref.ratio(pareto, kernel, [(1.0, math.inf)], BASELINE_GAMMA, BASELINE_EPS, "var")
        got = float(csv_rows(out.stdout)[0]["ratio"])
        return OK if ref.close(got, want) else f"ratio {got!r} != reference {want:.10g}"
    if out.returncode != 0:
        return f"exit {out.returncode}: {out.stderr.decode().strip()[-200:]}"
    rows = csv_rows(out.stdout)
    if command_label == "check":
        _check_conditions_row(r, kernel, BASELINE_GAMMA, BASELINE_EPS, rows[0], problems)
        if rows[0]["predicted_shape"] != "single-layer":
            problems.append(f"predicted {rows[0]['predicted_shape']}")
    elif command_label == "optimize":
        row = rows[0]
        layers = _layers_text(row["layers"])
        want = ref.ratio(r, kernel, layers, BASELINE_GAMMA, BASELINE_EPS, "var")
        if not ref.close(float(row["ratio"]), want):
            problems.append(f"ratio {row['ratio']} != reference {want:.10g}")
        if len(layers) != 1 or row["classification"] != "single-layer":
            problems.append(f"{row['classification']} with {len(layers)} layers where one was predicted")
        if float(row["ratio"]) > BASELINE_GAMMA_R:
            problems.append("ratio above gamma_r although all conditions hold")
        if not _mu_nondecreasing([float(v) for v in row["mu_trace"].split(";")]):
            problems.append("multiplier trace decreases")
    elif command_label == "evaluate":
        # demos/baseline.ini: [[1.0, 2.995732273553991]]
        want = ref.ratio(r, kernel, [(1.0, 2.995732273553991)], BASELINE_GAMMA, BASELINE_EPS, "var")
        if not ref.close(float(rows[0]["ratio"]), want):
            problems.append(f"ratio {rows[0]['ratio']} != closed form {want:.10g}")
    elif command_label == "sweep":
        cells = [(g, gr) for g in (0.05, 0.1) for gr in (0.1, 0.2)]
        if len(rows) != len(cells):
            problems.append(f"{len(rows)} sweep rows, expected {len(cells)}")
        for (g, gr), row in zip(cells, rows):
            if (float(row["gamma"]), float(row["gamma_r"])) != (g, gr):
                problems.append(f"unexpected cell {row['gamma']}, {row['gamma_r']}")
                continue
            _check_conditions_row(r, kernel.with_loading(gr), g, BASELINE_EPS, row, problems)
            shape, realized = row["predicted_shape"], row["realized_classification"]
            if realized == "aborted-nonpositive-risk" and shape != "trivial-infinite-ratio":
                problems.append(f"aborted cell where {shape} was predicted")
            if shape == "single-layer" and realized not in ("single-layer", "no-cession"):
                problems.append(f"{realized} where a single layer was predicted")
    elif command_label == "asymptotics":
        for row in rows:
            n = int(row["n"])
            port = ref.RefModel(lo.portfolio_normal_model(n, 1.0, 1.0))
            x_eps = port.var_level(BASELINE_EPS)
            cost = ref.curve_cost(port, ref.kernel_terms(kernel), 0, x_eps)
            want = float((BASELINE_GAMMA * port.mean - cost) / port.mean)
            if not ref.close(float(row["profit_ratio"]), want):
                problems.append(f"n={n}: profit ratio {row['profit_ratio']} != reference {want:.10g}")
        if [int(row["n"]) for row in rows] != [100, 1000, 10000]:
            problems.append("unexpected portfolio sizes")
    return "; ".join(problems) if problems else OK


def check_cli(lo, ops, outcomes):
    verdicts = []
    for op, out in zip(ops, outcomes):
        if isinstance(out, Failure):
            verdicts.append(f"raised {out.kind}: {out.message}")
        else:
            verdicts.append(check_cli_outcome(lo, op.label, out))
    return verdicts


def check_config_error_exit() -> str:
    """A config with an unknown section must exit 2 (checked once per run)."""
    OUT.mkdir(exist_ok=True)
    bad = OUT / "unknown-section.ini"
    bad.write_text(BASELINE_INI.read_text() + "\n[no_such_section]\nkey = 1\n")
    proc = subprocess.run([sys.executable, "-m", "layeropt.cli"] + cli_argv(bad, "check"),
                          cwd=ROOT, env=child_env(), capture_output=True, timeout=CLI_TIMEOUT_S)
    if proc.returncode == 2 and b"unknown sections" in proc.stderr:
        return OK
    return f"config error exited {proc.returncode}, expected 2"
