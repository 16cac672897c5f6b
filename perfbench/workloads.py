"""The benchmark's three workloads: the inputs built from a seed and the
operation each repeats.

Every workload is a closed loop with one caller.  A workload is a fixed list
of operations; a run repeats whole passes over the list.  The outputs are
judged in ``checks``; the ``*_key`` functions here reduce an outcome to what
must repeat exactly from one pass to the next.
"""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
OK = "ok"
FAULT = "fault"

# baseline market of the paper's running example (demos/baseline.ini)
BASELINE_C, BASELINE_GAMMA_R, BASELINE_GAMMA, BASELINE_EPS = 0.5, 0.1, 0.1, 0.05


@dataclass(frozen=True)
class Op:
    label: str
    run: object  # callable with no arguments returning the outcome
    spec: tuple = ()  # (model, kernel, market) of an in-process operation


@dataclass(frozen=True)
class Failure:
    """An exception raised by an operation, kept as its outcome."""

    kind: str
    message: str


def attempt(op: Op):
    try:
        return op.run()
    except Exception as exc:  # the outcome is judged by the workload's check
        return Failure(type(exc).__name__, str(exc))


def rng_for(seed: int):
    """The generator of a run's inputs; any integer seed is accepted."""
    return np.random.default_rng(seed % 2**64)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


# ---------------------------------------------------------------------------
# stop-loss: best_truncated_stop_loss, then dinkelbach_optimize
# ---------------------------------------------------------------------------

# The first instances of the acceptance suite's criterion-2 draw, the same in
# every run: best_truncated_stop_loss costs about 30 ms or 1-2 s per instance,
# so drawing instances per seed would move pass_s by itself.  Six instances
# keep a pass near 7 s.
CRITERION2_SEED = 20240901
CRITERION2_INSTANCES = 6
HEAVY_TAIL = [("pareto", 1.5), ("pareto", 2.0), ("pareto", 3.0), ("lognormal", 1.5)]


def criterion2_instances(lo, count: int, seed: int = CRITERION2_SEED):
    """Rejection-sampled (model, kernel, market) triples passing all four
    hypotheses, drawn with the recipe of the acceptance suite's criterion 2."""
    rng = np.random.default_rng(seed)
    out = []
    attempts = 0
    while len(out) < count and attempts < 1000:
        attempts += 1
        fam = len(out) % 3
        if fam == 0:
            model = lo.Exponential(1.0)
        elif fam == 1:
            model = lo.Lognormal.from_mean(1.0, float(rng.uniform(0.4, 1.0)))
        else:
            model = lo.Gamma.from_mean(1.0, float(rng.uniform(0.6, 3.0)))
        if len(out) % 2 == 0:
            base = lo.QuadraticCurve(float(rng.uniform(0.15, 1.0)))
        else:
            base = lo.DistortionCurve(lo.PowerDistortion(float(rng.uniform(0.45, 0.95))))
        gamma_r = float(rng.uniform(0.06, 0.45))
        gamma = gamma_r * float(rng.uniform(0.3, 1.0))
        eps = float(rng.uniform(0.02, 0.2))
        kernel = lo.PricingKernel(base, gamma_r)
        market = lo.MarketSpec(gamma=gamma, epsilon=eps)
        if lo.check_conditions(model, kernel, market).all_ok:
            out.append((model, kernel, market))
    if len(out) != count:
        raise RuntimeError("rejection sampling did not fill the instance list")
    return out


def _stop_loss_op(lo, label, model, kernel, market):
    def run():
        tsl = lo.best_truncated_stop_loss(model, kernel, market)
        return tsl, lo.dinkelbach_optimize(model, kernel, market)

    return Op(label, run, (model, kernel, market))


def stop_loss_ops(lo, seed: int):
    """The heavy-tail block plus the first criterion-2 instances under both
    measures, in an order drawn from ``seed``; the first op is the warm-up."""
    kernel = lo.quadratic_kernel(BASELINE_C, BASELINE_GAMMA_R)
    ops = []
    for family, param in HEAVY_TAIL:
        model = lo.Pareto.with_mean(param, 1.0) if family == "pareto" else lo.Lognormal.from_mean(1.0, param)
        for measure in ("var", "cvar"):
            market = lo.MarketSpec(gamma=BASELINE_GAMMA, epsilon=BASELINE_EPS, risk_measure=measure)
            ops.append(_stop_loss_op(lo, f"{family}({param:g})/{measure}", model, kernel, market))
    for i, (model, kernel, market) in enumerate(criterion2_instances(lo, CRITERION2_INSTANCES)):
        for measure in ("var", "cvar"):
            m = replace(market, risk_measure=measure)
            ops.append(_stop_loss_op(lo, f"criterion2[{i}]/{measure}", model, kernel, m))
    order = rng_for(seed).permutation(len(ops))
    warm = next(op for op in ops if op.label == "pareto(3)/var")
    return [warm] + [ops[i] for i in order if ops[i] is not warm]


def stop_loss_key(out):
    if isinstance(out, Failure):
        return out
    return tuple((r.schedule, r.valuation, r.mu_trace, r.classification) for r in out)


# ---------------------------------------------------------------------------
# regime-sweep: one cell of `layeropt --command sweep`
# ---------------------------------------------------------------------------

SWEEP_FAMILIES = ("exponential", "lognormal", "gamma")
SWEEP_KERNELS = ("quadratic", "power")
SWEEP_BLOCKS = 4  # blocks per (family, base curve) pair
SWEEP_GRID = (3, 2, 2)  # gamma, gamma_r and epsilon values per block
# criterion-2 ranges: lognormal sigma, gamma shape, quadratic c, power exponent
SHAPE_RANGES = {"lognormal": (0.4, 1.0), "gamma": (0.6, 3.0)}
CURVE_RANGES = {"quadratic": (0.15, 1.0), "power": (0.45, 0.95)}


def _strata(rng, lo: float, hi: float, n: int):
    """One uniform draw in each of n equal strata of [lo, hi], in random order."""
    return rng.permutation(lo + (hi - lo) * (np.arange(n) + rng.uniform(size=n)) / n)


def _sweep_cell(lo, label, model, kernel, market):
    def run():
        report = lo.check_conditions(model, kernel, market)
        try:
            result = lo.dinkelbach_optimize(model, kernel, market)
        except lo.NonpositiveRiskError as exc:
            result = Failure("NonpositiveRiskError", str(exc))
        return report, result

    return Op(label, run, (model, kernel, market))


def regime_sweep_ops(lo, seed: int):
    """Blocks sharing one model and base curve, each crossing a gamma x
    gamma_r x epsilon grid; VaR only, as the CLI sweep.

    Block parameters and grid values are stratified draws from ``seed``
    (ranges of the criterion-2 recipe), so every pass covers the parameter
    ranges evenly and its cost does not hinge on a few draws.
    """
    rng = rng_for(seed)
    n_g, n_gr, n_e = SWEEP_GRID
    ops = []
    for family in SWEEP_FAMILIES:
        for kfam in SWEEP_KERNELS:
            if family in SHAPE_RANGES:
                shapes = _strata(rng, *SHAPE_RANGES[family], SWEEP_BLOCKS)
            else:
                shapes = np.ones(SWEEP_BLOCKS)
            curves = _strata(rng, *CURVE_RANGES[kfam], SWEEP_BLOCKS)
            for b, (shape, curve) in enumerate(zip(shapes, curves)):
                if family == "exponential":
                    model = lo.Exponential(1.0)
                elif family == "lognormal":
                    model = lo.Lognormal.from_mean(1.0, float(shape))
                else:
                    model = lo.Gamma.from_mean(1.0, float(shape))
                if kfam == "quadratic":
                    base = lo.QuadraticCurve(float(curve))
                else:
                    base = lo.DistortionCurve(lo.PowerDistortion(float(curve)))
                gammas = np.sort(_strata(rng, 0.03, 0.4, n_g))
                gamma_rs = np.sort(_strata(rng, 0.06, 0.45, n_gr))
                epsilons = np.sort(_strata(rng, 0.02, 0.2, n_e))
                block = f"{family}/{kfam}[{b}]"
                for gamma in gammas:
                    for gamma_r in gamma_rs:
                        kernel = lo.PricingKernel(base, float(gamma_r))
                        for eps in epsilons:
                            market = lo.MarketSpec(gamma=float(gamma), epsilon=float(eps))
                            label = f"{block} g={gamma:.4f} gr={gamma_r:.4f} e={eps:.4f}"
                            ops.append(_sweep_cell(lo, label, model, kernel, market))
    return ops


def regime_sweep_key(out):
    if isinstance(out, Failure):
        return out
    report, result = out
    if isinstance(result, Failure):
        return report, result
    return report, result.schedule, result.valuation, result.mu_trace


# ---------------------------------------------------------------------------
# cli: one fresh `python -m layeropt.cli` per command
# ---------------------------------------------------------------------------

BASELINE_INI = ROOT / "demos" / "baseline.ini"
PARETO_INI = HERE / "pareto2.ini"
CLI_COMMANDS = [
    ("check", BASELINE_INI, "check"),
    ("optimize", BASELINE_INI, "optimize"),
    ("evaluate", BASELINE_INI, "evaluate"),
    ("sweep", BASELINE_INI, "sweep"),
    ("asymptotics", BASELINE_INI, "asymptotics"),
    ("pareto2-evaluate", PARETO_INI, "evaluate"),
]
CLI_TIMEOUT_S = 120


@dataclass(frozen=True)
class CliOutcome:
    returncode: int
    stdout: bytes
    stderr: bytes


def cli_argv(config: Path, command: str):
    return ["--config", os.path.relpath(config, ROOT), "--command", command]


def _cli_op(label, config, command, trace_dir=None):
    args = cli_argv(config, command)
    counter = [0]

    def run():
        if trace_dir is None:
            argv = [sys.executable, "-m", "layeropt.cli"] + args
        else:
            counter[0] += 1
            out = trace_dir / f"{label}-{counter[0]}.npz"
            argv = [sys.executable, "-X", "importtime", str(HERE / "cli_child.py"), str(out)] + args
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, timeout=CLI_TIMEOUT_S)
        return CliOutcome(proc.returncode, proc.stdout, proc.stderr)

    return Op(label, run)


def cli_ops(seed: int, trace_dir=None):
    order = rng_for(seed).permutation(len(CLI_COMMANDS))
    return [_cli_op(*CLI_COMMANDS[i], trace_dir=trace_dir) for i in order]


def csv_bytes(stdout: bytes) -> int:
    """Bytes of the CSV a command echoed: its output without the summary line."""
    text = stdout.decode()
    return len(text.rsplit("\n", 2)[0].encode()) + 1 if text else 0


def cli_key(out):
    if isinstance(out, Failure):
        return out
    return out.returncode, out.stdout
