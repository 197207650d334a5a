"""Run the benchmark once per seed and report each metric's run-to-run spread.

    python3 perfbench/spread.py --workload completion-tall --seeds 0-9 --seconds 25

Spread is the distance between the first and third quartiles of the runs'
values (``statistics.quantiles(values, n=4)``) as a share of their median;
it is compared with each end-to-end metric's bound in BENCHMARK.json.
Runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-9"))
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(args.trace)]
        cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
        for name, mv in result["metrics"].items():
            values.setdefault(name, []).append(mv["value"])

    worst = 0.0
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound:
            worst = max(worst, spread / bound)
            flag = f"bound {bound:.2f}  spread/bound {spread / bound:.2f}"
        print(f"{name:<44} median {med:12.6g}  spread {spread:6.3f}  {flag}")
    print(f"largest spread/bound: {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
