#!/usr/bin/env python3
"""torusctrl benchmark: three workloads, end-to-end metrics untraced and
per-layer metrics from a separate traced run.

    python3 perfbench/run.py --workload picard-n16 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout: the program is imported from
``src/`` next to this directory, and the run fails without printing a
result when it is missing.  Each workload runs in its own single-threaded
process (``--workload all`` starts one after the other).  The run builds the
set-up several times and reports the median as ``setup_s``; then it draws a
fresh input per operation and times operations while the next one is
expected to end within ``--seconds``, at least one.  Output checks and accuracy figures are computed
outside the timed region.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; a record of
the run (environment, per-operation times, failures and, traced, the spans)
is written under ``perfbench/out/``.
"""

import os

# single-threaded BLAS and OpenMP; must be set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"


def import_program():
    """Put the checkout's src/ first on the path; exit without a result if it is absent."""
    if not (SRC / "torusctrl" / "picard.py").is_file():
        sys.exit(f"benchmark: no program source at {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))


def main_one(args):
    import_program()
    import harness
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"benchmark: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)} or all")
    wl = workloads.make(args.workload)
    env = harness.environment()
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        record, metrics, tr = harness.traced_run(wl, args.seed, args.seconds)
        tr.write(f"{stem}-spans.npz")
        harness.report(args.workload, record, metrics, env,
                       {"spans": len(tr.spans), "self": tr.self_times()})
    else:
        record = harness.run_workload(wl, args.seed, args.seconds)
        metrics = harness.end_to_end(record)
        harness.report(args.workload, record, metrics, env)
    res = harness.result(record, metrics)
    with open(f"{stem}.json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "env": env, "op_s": record["op_s"], "failures": record["failures"],
                   "terminal_error": record["terminal"], "midpoint_defect": record["defect"],
                   "result": res}, fh, indent=1)
    print(json.dumps(res))


def main_all(args):
    """Run every workload in its own process, one after the other."""
    import_program()
    import workloads
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"benchmark: workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        res = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for key, m in res["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = m
    print(json.dumps(merged))


def parse(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help="a workload name, or all")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


if __name__ == "__main__":
    arguments = parse()
    if arguments.workload == "all":
        main_all(arguments)
    else:
        main_one(arguments)
