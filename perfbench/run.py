#!/usr/bin/env python3
"""layeropt benchmark: stop-loss, regime-sweep and cold-CLI workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload stop-loss --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each run sets up several fresh interpreters to time set-up, warms up with
one operation, repeats whole passes over the workload's operation list for
about ``--seconds`` seconds, checks the outputs against references computed
apart from the program, and prints every metric by name with its unit.  The
last line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer
metrics with ``--trace 1``).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

# one thread: the benchmark and every process it starts
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("stop-loss", "regime-sweep", "cli")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
E2E_UNITS = {"setup_s": "s", "pass_s": "s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}


def load_program():
    """Import layeropt from this checkout's src/, or exit 2."""
    if not (SRC / "layeropt" / "__init__.py").is_file():
        print(f"perfbench: no layeropt sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import layeropt

    if Path(layeropt.__file__).resolve().parent != (SRC / "layeropt").resolve():
        print(f"perfbench: imported layeropt from {layeropt.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)
    return layeropt


def build_ops(lo, workload: str, seed: int, trace_dir=None):
    import workloads as wl

    if workload == "stop-loss":
        return wl.stop_loss_ops(lo, seed)
    if workload == "regime-sweep":
        return wl.regime_sweep_ops(lo, seed)
    return wl.cli_ops(seed, trace_dir)


def probe_argv(workload: str, seed: int, importtime: bool):
    flags = ["-X", "importtime"] if importtime else []
    if workload == "cli":
        return [sys.executable] + flags + ["-c", "import layeropt; print('ready', flush=True)"]
    return [sys.executable] + flags + [str(HERE / "run.py"), "--setup-probe",
                                       "--workload", workload, "--seed", str(seed)]


def time_setups(workload: str, seed: int, importtime: bool):
    """Wall time from starting a fresh interpreter to its first timed operation.

    A probe's standard error (long under ``-X importtime``) goes to a file,
    so a full pipe can never stall the probe before its "ready" line.
    """
    import workloads as wl

    wl.OUT.mkdir(exist_ok=True)
    times, stderrs = [], []
    for _ in range(SETUP_PROBES):
        with open(wl.OUT / "setup-probe.stderr", "w+") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(probe_argv(workload, seed, importtime), cwd=ROOT, env=wl.child_env(),
                                    stdout=subprocess.PIPE, stderr=err, text=True)
            timer = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - start
                proc.stdout.read()
                proc.wait()
            finally:
                timer.cancel()
                proc.stdout.close()
            err.seek(0)
            text = err.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode}): {text.strip()[-400:]}")
        times.append(elapsed)
        stderrs.append(text)
    return times, stderrs


def timed_passes(ops, seconds: float, attempt):
    """Whole passes over ``ops`` until another pass would overrun ``seconds``."""
    pass_times, latencies, outcomes = [], [], []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        results = []
        for op in ops:
            t0 = time.perf_counter()
            results.append(attempt(op))
            latencies.append(time.perf_counter() - t0)
        pass_times.append(time.perf_counter() - pass_start)
        outcomes.append(results)
        if time.perf_counter() - start + statistics.median(pass_times) > seconds:
            return pass_times, latencies, outcomes


def op_median(latencies, n_ops: int) -> float:
    """Median latency of one operation: each operation's median over the
    passes (robust to a stall hitting one pass), then the lower median over
    the operations, which is one operation's latency and never the midpoint
    of the gap between the fast and the slow operations of a mix."""
    per_op = [statistics.median(latencies[i::n_ops]) for i in range(n_ops)]
    return statistics.median_low(per_op)


def judge(lo, workload: str, ops, outcomes):
    """Verdicts on the first pass; later passes must reproduce it exactly."""
    import checks
    import workloads as wl

    check, key = {
        "stop-loss": (checks.check_stop_loss, wl.stop_loss_key),
        "regime-sweep": (checks.check_regime_sweep, wl.regime_sweep_key),
        "cli": (checks.check_cli, wl.cli_key),
    }[workload]
    verdicts = check(lo, ops, outcomes[0])
    problems = [f"{op.label}: {v}" for op, v in zip(ops, verdicts) if v not in (wl.OK, wl.FAULT)]
    first = [key(o) for o in outcomes[0]]
    for n, later in enumerate(outcomes[1:], start=2):
        for op, want, got in zip(ops, first, later):
            if key(got) != want:
                problems.append(f"{op.label}: pass {n} differs from pass 1")
    if workload == "cli":
        verdict = checks.check_config_error_exit()
        if verdict != wl.OK:
            problems.append(verdict)
    faults = [op.label for op, v in zip(ops, verdicts) if v == wl.FAULT]
    return problems, faults


def layer_metrics(workload, log, outcomes, probe_stderrs, trace_dir, trace_path, n_passes):
    """Per-layer metrics per pass; writes the run's spans to ``trace_path``."""
    import numpy as np

    import tracing
    import workloads as wl

    span_sets = [log.arrays()]
    import_times = [tracing.import_times_ms(err) for err in probe_stderrs]
    csv_total = 0
    if workload == "cli":
        for path in sorted(trace_dir.glob("*.npz")):
            with np.load(path) as data:
                span_sets.append({k: data[k] for k in data.files})
        for results in outcomes:
            for out in results:
                if isinstance(out, wl.CliOutcome):
                    import_times.append(tracing.import_times_ms(out.stderr.decode()))
                    csv_total += wl.csv_bytes(out.stdout)
    spans = tracing.merge(span_sets)
    totals = tracing.layer_totals(spans)
    metrics = {name: totals.get(name, 0.0) / n_passes for name, _ in tracing.LAYER_METRICS}
    for name in ("cli.import_ms", "cli.import_scipy_integrate_ms"):
        metrics[name] = statistics.median(t[name] for t in import_times)
    metrics["cli.csv_bytes"] = csv_total / n_passes
    trace_path.parent.mkdir(exist_ok=True)
    np.savez_compressed(trace_path, **spans)
    return metrics, len(spans["start"])


def run_workload(args) -> int:
    lo = load_program()
    import tracing
    import workloads as wl

    workload, seed = args.workload, args.seed
    setups, probe_stderrs = time_setups(workload, seed, importtime=bool(args.trace))

    trace_dir = None
    if args.trace and workload == "cli":
        trace_dir = wl.OUT / f"cli-spans-{seed}-{os.getpid()}"
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir(parents=True)
    ops = build_ops(lo, workload, seed, trace_dir)
    log = tracing.SpanLog()
    if args.trace:
        tracing.install(log, lo)
    wl.attempt(ops[0])  # warm-up, untimed and untraced
    if trace_dir is not None:
        for path in trace_dir.glob("*.npz"):
            path.unlink()

    log.active = bool(args.trace)
    pass_times, latencies, outcomes = timed_passes(ops, args.seconds, wl.attempt)
    log.active = False
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

    n_passes = len(pass_times)
    e2e = {
        "setup_s": statistics.median(setups),
        "pass_s": statistics.median(pass_times),
        "op_p50_ms": op_median(latencies, len(ops)) * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
    if args.trace:
        trace_path = wl.OUT / f"trace-{workload}-seed{seed}.npz"
        metrics, n_spans = layer_metrics(workload, log, outcomes, probe_stderrs, trace_dir, trace_path, n_passes)
        if trace_dir is not None:
            shutil.rmtree(trace_dir, ignore_errors=True)
        units = dict(tracing.LAYER_METRICS)
    else:
        metrics, units = e2e, E2E_UNITS

    problems, faults = judge(lo, workload, ops, outcomes)
    attempted = n_passes * len(ops)
    failed = n_passes * len(faults)

    print(f"workload {workload}  seed {seed}  trace {args.trace}  passes {n_passes}  operations/pass {len(ops)}")
    print(f"  set-up times (s): {', '.join(f'{t:.3f}' for t in setups)}")
    print(f"  pass times (s): {', '.join(f'{t:.3f}' for t in pass_times)}")
    if args.trace:
        print(f"  traced pass_s {e2e['pass_s']:.4f} s (compare with an untraced run for the tracing overhead)")
        print(f"  spans: {n_spans} written to {os.path.relpath(trace_path, ROOT)}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.4f} {units[name]}")
    print(f"  attempted {attempted}  failed {failed}")
    for label in faults:
        print(f"  failed every pass (known fault): {label}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    if not problems:
        print("  checks: every output not failed matches its references and properties")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_setup_probe(args) -> int:
    lo = load_program()
    import workloads as wl

    ops = build_ops(lo, args.workload, args.seed)
    wl.attempt(ops[0])
    print("ready", flush=True)
    return 0


def run_all(args) -> int:
    """Each workload in turn, each in a fresh process so peak RSS is its own."""
    load_program()
    combined = {}
    for workload in WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {workload} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        combined[workload] = json.loads(lines[-1])
    print(json.dumps({"workloads": combined}), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="layeropt benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        return run_setup_probe(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
