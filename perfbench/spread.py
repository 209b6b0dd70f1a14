"""Run the benchmark on several seeds and report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/spread.py --workload qa-anneal --seeds 1 2 3 4 5 --seconds 20

For every end-to-end metric it prints the median and the inter-quartile
distance as a share of the median (``statistics.quantiles(values, n=4)``),
next to the metric's bound in BENCHMARK.json; a steady benchmark keeps
every spread but ``setup_s``'s below a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.stats import quartile_spread  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bounds = {metric["name"]: metric["bound"] for metric in json.load(handle)["end_to_end"]}
    values = {}
    for seed in args.seeds:
        command = [
            sys.executable, os.path.join("perfbench", "run.py"), "--workload", args.workload,
            "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0",
        ]
        output = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True).stdout
        record, result = (json.loads(text) for text in output.strip().splitlines()[-2:])
        line = {name: metric["value"] for name, metric in result["metrics"].items()}
        details = record["details"]
        steal = details["cpu_steal_share"]
        print(f"seed {seed} (steal {steal:.3f}): " + "  ".join(f"{k}={v:.4f}" for k, v in line.items()), flush=True)
        for name, value in line.items():
            values.setdefault(name, []).append(value)
    if len(args.seeds) < 2:
        return 0
    for name, series in values.items():
        spread = quartile_spread(series)
        bound = bounds.get(name)
        flag = "" if bound is None or spread < bound / 3 else "  <-- above bound/3"
        print(f"{name:<20} median {statistics.median(series):>12.4f}  spread {spread:.4f}  bound {bound}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
