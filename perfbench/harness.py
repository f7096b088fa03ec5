"""Measurement core of the benchmark: set-up timing, the timed operation
loop, output checks, the end-to-end metrics and the printed report.

The caller has made BLAS single-threaded and put the program's source on
the path before importing this module (see run.py).
"""

import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext

import numpy as np
import scipy

import tracer as tracing

SETUP_REPS = 51

# (name, unit) of every end-to-end metric, in report order
END_TO_END = [
    ("setup_s", "s"),
    ("op_s_p50", "s"),
    ("ops_per_min", "1/min"),
    ("pass_share", "ratio"),
    ("peak_rss_mb", "MB"),
    ("terminal_digits", "digits"),
    ("midpoint_digits", "digits"),
]


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setup(wl, seed):
    """Build the set-up and draw the first input SETUP_REPS times; median seconds."""
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        case = wl.setup(seed)
        first = wl.draw(case)
        times.append(time.perf_counter() - t0)
    return case, first, statistics.median(times)


def run_workload(wl, seed, seconds, tracer=None):
    """Time operations for about `seconds` (at least one); returns the run record."""
    case, inputs, setup_s = timed_setup(wl, seed)
    op_s, failures, terminal, defect = [], {}, [], []
    extras = {}
    out = None
    start = time.perf_counter()
    while True:
        if inputs is None:
            inputs = wl.draw(case)
        with tracer.operation() if tracer is not None else nullcontext():
            t0 = time.perf_counter()
            try:
                out = wl.run(case, inputs)
                error = None
            except Exception as exc:  # an operation that raises is a failure, not the end
                error = exc
            op_s.append(time.perf_counter() - t0)
        if error is not None:
            kind = type(error).__name__
            traceback.print_exception(error, file=sys.stderr, limit=-3)
        else:
            res = wl.outcome(case, inputs, out)
            kind = res.failed_checks[0] if res.failed_checks else None
            terminal.append(res.terminal_error)
            defect.append(res.midpoint_defect)
            for k, v in res.extras.items():
                extras.setdefault(k, []).append(v)
        if kind is not None:
            failures[kind] = failures.get(kind, 0) + 1
        inputs = None
        # start another operation only if it is expected to end in time
        if time.perf_counter() - start + statistics.median(op_s) > seconds:
            break
    return {
        "case": case, "last_output": out, "setup_s": setup_s, "op_s": op_s,
        "failures": failures, "terminal": terminal, "defect": defect, "extras": extras,
    }


def _median(xs):
    xs = [x for x in xs if x == x]
    return statistics.median(xs) if xs else float("nan")


def end_to_end(record):
    ops = len(record["op_s"])
    failed = sum(record["failures"].values())
    passed = ops - failed
    values = {
        "setup_s": record["setup_s"],
        "op_s_p50": statistics.median(record["op_s"]),
        "ops_per_min": passed / (sum(record["op_s"]) / 60.0),
        "pass_share": passed / ops,
        "peak_rss_mb": peak_rss_mb(),
        "terminal_digits": -np.log10(_median(record["terminal"])),
        "midpoint_digits": -np.log10(_median(record["defect"])),
    }
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in END_TO_END}


def report(name, record, metrics, env, trace_info=None):
    ops = len(record["op_s"])
    failed = sum(record["failures"].values())
    print(f"workload {name}: {ops} operations, {failed} failed "
          f"(fail_share {failed / ops:.4g}) {record['failures'] or ''}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items() if k != "threads"))
    samples = {"op_s_p50": ops, "ops_per_min": ops, "pass_share": ops,
               "terminal_digits": len(record["terminal"]),
               "midpoint_digits": len(record["defect"]), "setup_s": SETUP_REPS}
    for key, m in metrics.items():
        n = f"  (n={samples[key]})" if key in samples else ""
        print(f"  {key:32s} {m['value']:.6g} {m['unit']}{n}")
    if trace_info:
        print(f"  self time by span ({trace_info['spans']} spans, tracing overhead "
              f"{metrics['trace.overhead_share']['value']:.1%} of traced op time, estimated):")
        total = sum(record["op_s"])
        rows = [(span, *v) for span, v in trace_info["self"].items() if v[0]]
        for span, calls, incl, own in sorted(rows, key=lambda row: -row[3]):
            print(f"    {span:30s} calls {calls:8d}  incl {incl:9.3f} s  "
                  f"self {own:9.3f} s  ({own / total:6.1%})")


def traced_run(wl, seed, seconds):
    """run_workload under the tracer; returns (record, per-layer metrics, tracer)."""
    tr = tracing.Tracer()
    cost = tracing.span_cost()
    with tr.installed():
        record = run_workload(wl, seed, seconds, tracer=tr)
    out = record["last_output"]
    duality = wl.duality_defect(record["case"], out) if out is not None else float("nan")
    return record, tr.metrics(record["op_s"], duality, record["extras"], cost), tr


def result(record, metrics):
    """The benchmark's result line: correct, attempted, failed and metrics."""
    ops = len(record["op_s"])
    failed = sum(record["failures"].values())
    finite = all(np.isfinite(m["value"]) for m in metrics.values())
    # a metric no operation could measure (all failed) is null, not NaN
    metrics = {k: {**m, "value": m["value"] if np.isfinite(m["value"]) else None}
               for k, m in metrics.items()}
    return {"correct": bool(failed == 0 and finite), "attempted": ops, "failed": failed,
            "metrics": metrics}
