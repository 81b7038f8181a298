"""Steadiness tool: repeat a workload over several seeds and report, for
every metric, the median, the quartiles and the spread (interquartile
distance over the median) next to the bound ``BENCHMARK.json`` fixes.

    python3 e2ebench/steady.py --workload serve-narrow --runs 10 --seconds 10

Each run is a separate ``run.py`` process with its own seed (``--first-
seed``, ``--first-seed + 1``, ...).  The share of failed operations must
be the same in every run.  Exit status is non-zero when a run fails, a
share differs, or the spread of any end-to-end metric exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _run(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True,
                          text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def summarize(results: list[dict], declared: list[dict]) -> tuple[list, bool]:
    """Rows of (name, unit, median, q1, q3, spread, bound, ok)."""
    rows = []
    ok = True
    for spec in declared:
        values = [r["metrics"][spec["name"]]["value"] for r in results]
        median = statistics.median(values)
        if len(values) >= 2:
            q1, _q2, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = median
        spread = (q3 - q1) / median if median else 0.0
        bound = spec["bound"]
        good = spread <= bound
        ok = ok and good
        rows.append((spec["name"], spec["unit"], median, q1, q3, spread,
                     bound, good))
    return rows, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    args = parser.parse_args(argv)

    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    declared = bench["end_to_end"]
    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        result = _run(args.workload, seed, seconds)
        results.append(result)
        print(f"seed {seed}: attempted {result['attempted']} failed "
              f"{result['failed']} correct {result['correct']}", flush=True)

    rows, ok = summarize(results, declared)
    print(f"\n{args.workload}: {len(results)} runs of {seconds:g} s")
    print(f"{'metric':<34}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'spread':>9}{'bound':>8}")
    for name, unit, median, q1, q3, spread, bound, good in rows:
        print(f"{name:<34}{median:>12.5g}{q1:>12.5g}{q3:>12.5g}"
              f"{spread:>9.3f}{bound:8.2f}"
              f"  {unit}{'' if good else '  SPREAD OVER BOUND'}")
    shares = {r["failed"] / r["attempted"] for r in results}
    if len(shares) > 1:
        print(f"failed share differs between runs: {sorted(shares)}")
        ok = False
    if not all(r["correct"] for r in results):
        print("a run reported incorrect output")
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
