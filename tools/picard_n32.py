#!/usr/bin/env python3
"""One Picard null control at N=32 with 48 steps: its time, peak memory and counts.

    python3 tools/picard_n32.py [--seed 1]

The problem is the benchmark's picard-n16 workload (perfbench/workloads.py:
the two-strip control region, g1 = g2 = (1,), a seed-drawn datum of
amplitude 1e-2, cg_tol 1e-9, tol_terminal 1e-4, Picard tol 1e-5, at most 10
rounds) on a 32 x 32 grid with 48 steps, T = 1, so dt (N/2)^2 = 5.3.  It
runs single-threaded from the checkout's src/ and prints one JSON line:
the wall seconds of the null control, the process's peak RSS in MB, the
Picard rounds, the GMRES iterations of each round, the frozen terminal norm
of the last round and the nonlinear replay's terminal ratio.
"""

import os

# single-threaded BLAS and OpenMP; must be set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    wl = workloads.PicardN16(n=32, steps=48)
    case = wl.setup(args.seed)
    u_in = wl.draw(case)
    t0 = time.perf_counter()
    res = wl.run(case, u_in)
    seconds = time.perf_counter() - t0
    records = res.ledger.records
    print(json.dumps({
        "n": wl.n, "steps": wl.steps, "seed": args.seed,
        "nyquist_phase_step": case.setup.nyquist_phase_step,
        "seconds": round(seconds, 3),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        "rounds": len(records),
        "gmres_iterations": [r.cg_iterations for r in records],
        "picard_ratios": res.ledger.ratios,
        "frozen_terminal": records[-1].terminal_norm,
        "replay_terminal_ratio": res.terminal_ratio,
    }))


if __name__ == "__main__":
    main()
