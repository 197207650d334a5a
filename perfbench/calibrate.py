"""Print the figures the workload constants in workloads.py were chosen from.

    python3 perfbench/calibrate.py --workload completion-wide --seeds 8

For each seed: every line-search run's unregularized cost, as a multiple of
the reference SVD-init cost, at each iteration up to the workload's cap, and
every SGD run's final cost ratio at its iteration budget. Targets and
reference ratios were read off this output once, on the seed code; they
are never recomputed from the code under test.
"""

from __future__ import annotations

import argparse

import run  # noqa: I001 - first: pins BLAS threads before numpy loads

import numpy as np
from spans import NullRecorder
from workloads import WORKLOADS


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", type=int, default=8)
    args = parser.parse_args()
    wlra = run.import_wlra()
    run.OUT_DIR.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload]
    rec = NullRecorder()
    for seed in range(args.seeds):
        bench = run.Bench(wlra, wl, seed)
        setup = bench.setup(rec)
        print(f"seed {seed} reference init cost {bench.ref_cost!r}")
        for label in wl.targets:
            s = bench.solve(label, setup, wl.als_cap, rec)
            ratios = s.trace.costs / bench.ref_cost
            best = int(np.argmin(ratios))
            print(f"  {label:<22} min {ratios[best]:.5f} at {best}; by iteration:")
            print("   " + " ".join(f"{r:.5f}" for r in ratios[: best + 1]))
        for label, iters in wl.sgd_iters.items():
            s = bench.solve(label, setup, iters, rec)
            print(f"  {label:<22} final ratio {bench.cost(s.final) / bench.ref_cost:.6f}")


if __name__ == "__main__":
    main()
