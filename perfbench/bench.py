"""The measuring loop: inputs, operation processes, checks, metrics.

A run writes the workload's inputs from the seed, then starts one fresh
operation process after another (a closed loop with one client) until the
requested seconds have passed, and checks every operation's output files.
Each operation pays interpreter start, import and parse, as a user's
command does.

With trace 0 the run reports the end-to-end metrics, medians over its
operations. With trace 1 operations alternate between traced and untraced:
the traced ones give the per-layer metrics (medians), and the median
difference in wall time between each traced operation and the untraced one
after it is the tracing overhead.

The metrics, their units and directions are those BENCHMARK.json lists.
Every metric is printed by name with its unit, then the output-check
verdict; the full record, with the environment, goes to
``.perfbench/results/``; the last line of standard output is the JSON
result.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_OPERATIONS = 3
# Operations are killed if they would push the run past this.
RUN_LIMIT_S = 170.0

with open(ROOT / "BENCHMARK.json", encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WHY = {w["name"]: w["why"] for w in SPEC["workloads"]}


def metric_units(trace) -> dict:
    """Name -> unit of the metrics BENCHMARK.json lists for this run."""
    listed = SPEC["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    if trace and set(units) != set(layers.MOVES):
        raise SystemExit(f"perfbench: BENCHMARK.json per_layer and "
                         f"layers.MOVES differ in "
                         f"{sorted(set(units) ^ set(layers.MOVES))}")
    return units


def environment(pinned) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    return {"pinned": {k: os.environ.get(k) for k in pinned},
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def tail_percentile(samples):
    """(label, value) of the highest percentile with at least ten samples
    beyond it, or None when there are too few samples for any."""
    n = len(samples)
    for q in (99.9, 99, 90, 75, 50):
        if n * (1 - q / 100) >= 10:
            cuts = statistics.quantiles(samples, n=1000, method="inclusive")
            return f"p{q:g}", cuts[int(round(q * 10)) - 1]
    return None


def run_operation(workload, case_path, op_dir, traced, started) -> dict:
    """Run one operation process; returns its timings or an error."""
    op_dir.mkdir(parents=True)
    result_path = op_dir / "result.json"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    if traced:
        (op_dir / "trace").mkdir()
        env.update(PYTHONPATH=os.pathsep.join([str(HERE / "tracehook"),
                                               str(SRC)]),
                   **{tracer.TRACE_DIR_ENV: str(op_dir / "trace"),
                      tracer.RUN_ID_ENV: op_dir.name})
    timeout = max(10.0, RUN_LIMIT_S - (time.monotonic() - started))
    launch = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "op.py"), workload.name,
             str(case_path), str(op_dir / "out"), str(result_path)],
            env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"operation timed out after {timeout:.0f} s"}
    if proc.returncode != 0:
        return {"error": f"exit {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}"}
    with open(result_path, encoding="utf-8") as fh:
        record = json.load(fh)
    record["setup_s"] = record.pop("ready") - launch
    return record


def measure(workload, case, case_path, work, seconds, trace, started):
    """Closed loop of operations for `seconds`; returns the run record."""
    units = metric_units(trace)
    operations = []
    durations = []
    attempted = failed = 0
    loop_start = time.monotonic()
    # Start another operation only while it should end within `seconds`.
    while (len(operations) < MIN_OPERATIONS
           or time.monotonic() - loop_start + statistics.median(durations)
           <= seconds):
        traced = bool(trace) and len(operations) % 2 == 0
        op_dir = work / "ops" / f"op{len(operations)}"
        op_start = time.monotonic()
        op = run_operation(workload, case_path, op_dir, traced, started)
        durations.append(time.monotonic() - op_start)
        op["traced"] = traced
        if "error" in op:
            units = workload.units(case)
            verdict = workloads.Verdict(attempted=units, failed=units,
                                        problems=[op["error"]])
        else:
            verdict = workload.check(case, str(op_dir / "out"))
            if traced:
                spans = tracer.load_spans(str(op_dir / "trace"))
                for problem in layers.missing_spans(
                        spans, workload.expected_calls(case)):
                    verdict.fail(f"trace: {problem}")
                op["layers"] = layers.op_metrics(spans, op["wall_s"],
                                                 workload.workers)
        op.update(attempted=verdict.attempted, failed=verdict.failed,
                  problems=verdict.problems, quality=verdict.quality)
        attempted += verdict.attempted
        failed += verdict.failed
        operations.append(op)
        shutil.rmtree(op_dir, ignore_errors=True)

    done = [op for op in operations if "error" not in op]
    if trace:
        samples = {name: [op["layers"][name] for op in done
                          if op["traced"] and name in op["layers"]]
                   for name in units}
        # Operations alternate traced, untraced: pair each traced operation
        # with the untraced one after it, so slow drifts in machine speed
        # cancel.
        samples["trace.overhead_s"] = [
            on["wall_s"] - off["wall_s"]
            for on, off in zip(operations[0::2], operations[1::2])
            if "error" not in on and "error" not in off]
    else:
        samples = {name: [op[name] for op in done] for name in units}
    metrics = {name: {"value": statistics.median(values),
                      "unit": units[name]}
               for name, values in samples.items() if values}
    correct = (failed == 0 and len(done) == len(operations)
               and len(metrics) == len(samples))
    return {"operations": operations, "samples": samples,
            "result": {"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": metrics}}


def print_report(workload, args, record, record_path):
    result = record["result"]
    ops = record["operations"]
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace}: "
          f"{len(ops)} operations in {args.seconds:g} s; chosen for: "
          f"{WHY[workload.name]}")
    print("environment: " + json.dumps(record["environment"], sort_keys=True))
    for name, metric in result["metrics"].items():
        values = record["samples"][name]
        if args.trace:
            print(f"  {name:30s} {metric['value']:14.6g} "
                  f"{metric['unit']:17s} {layers.MOVES[name]}")
            continue
        tail = tail_percentile(values)
        tail_text = (f"{tail[0]} {tail[1]:.6g}" if tail else
                     f"max {max(values):.6g} (too few samples for a "
                     f"percentile with 10 beyond it)")
        print(f"  {name:12s} median {metric['value']:.6g} {metric['unit']}"
              f", {tail_text}, n={len(values)}")
    quality = {}
    for op in ops:
        for key, value in op["quality"].items():
            quality.setdefault(key, []).append(value)
    for key, values in quality.items():
        print(f"  quality {key} = {statistics.median(values):.6g} "
              f"(deterministic per seed; reported, not bounded)")
    rate = result["failed"] / result["attempted"]
    print(f"  output checks: {'PASS' if result['correct'] else 'FAIL'}, "
          f"error_rate {rate:.4g} ({result['failed']} of "
          f"{result['attempted']} operations failed)")
    for problem in sorted({p for op in ops for p in op["problems"]}):
        print(f"    {problem}")
    print(f"  record: {record_path.relative_to(ROOT)}")


def run(args, pinned) -> int:
    started = time.monotonic()
    if args.workload not in WHY:
        print(f"perfbench: unknown workload {args.workload!r}; have "
              f"{sorted(WHY)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    work = ROOT / ".perfbench" / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        (work / "inputs").mkdir(parents=True)
        case = workload.make_inputs(args.seed, str(work / "inputs"))
        case_path = work / "case.json"
        case_path.write_text(json.dumps(case), encoding="utf-8")
        record = measure(workload, case, case_path, work, args.seconds,
                         args.trace, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record.update(workload=workload.name, why=WHY[workload.name],
                  seed=args.seed, seconds=args.seconds, trace=args.trace,
                  environment=environment(pinned))
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    record_path = results / (f"{workload.name}-seed{args.seed}-trace"
                             f"{args.trace}-{os.getpid()}.json")
    record_path.write_text(json.dumps(record, indent=1) + "\n",
                           encoding="utf-8")
    print_report(workload, args, record, record_path)
    print(json.dumps(record["result"]))
    return 0
