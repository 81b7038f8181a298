"""The end-to-end benchmark command.

    python3 e2ebench/run.py --workload serve-narrow --seed 1 --seconds 10 --trace 0

runs one workload (or ``all``) against the program in ``src/`` of this
checkout and prints every metric by name and unit, the attempted and
failed operations of each kind, and — as the last line — one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1``
runs an untraced window and then a traced one and reports the
per-layer metrics.  ``--smoke`` shrinks every input so a run takes
seconds.  A correctness failure exits 1 after the result line; a stall
is ended by the watchdog (exit 3, no result line).
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

WORKLOADS = ("serve-narrow", "serve-wide", "ingest-live", "advise")
#: A single workload must finish well inside the 180 s a run may take.
WATCHDOG_SECONDS = 170.0


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs: a seconds-long functional check")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _run_one(name: str, args, work):
    from e2ebench import advise_workload, ingest_workload, serve_workload

    if name.startswith("serve-"):
        return serve_workload.run(name, args.seed, args.seconds, args.smoke,
                                  bool(args.trace), work)
    module = ingest_workload if name == "ingest-live" else advise_workload
    return module.run(args.seed, args.seconds, args.smoke, bool(args.trace),
                      work)


def _select_metrics(outcome, declared: list[dict]) -> dict:
    """The declared metrics, in declaration order.  A layer a workload
    never reaches reads 0; a missing end-to-end metric is a bug."""
    selected = {}
    for spec in declared:
        name = spec["name"]
        if name in outcome.metrics:
            value, unit = outcome.metrics[name]
            if unit != spec["unit"]:
                raise RuntimeError(f"metric {name}: unit {unit!r}, "
                                   f"declared {spec['unit']!r}")
        elif "bound" in spec:
            raise RuntimeError(f"end-to-end metric {name} not measured")
        else:
            value = 0.0
        selected[name] = {"value": float(value), "unit": spec["unit"]}
    return selected


def _report(name: str, args, outcome, metrics: dict) -> None:
    print(f"== {name}  seed={args.seed}  seconds={args.seconds:g}  "
          f"trace={args.trace}{'  smoke' if args.smoke else ''}")
    for kind, (attempted, failed) in sorted(outcome.ops.items()):
        print(f"  ops {kind:<10} attempted {attempted:>7}  failed {failed}")
    for metric, entry in metrics.items():
        print(f"  {metric:<34} {entry['value']:>14.6g} {entry['unit']}")
    for metric, (value, unit) in sorted(outcome.metrics.items()):
        if metric not in metrics:
            print(f"  {metric:<34} {value:>14.6g} {unit}  (not gated here)")
    for note in outcome.notes[:20]:
        print(f"  note: {note}")
    print(f"  correct: {outcome.correct}")


def main(argv=None) -> int:
    args = _parse(argv)
    # A terminated run still stops its workers on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from e2ebench import common

    common.prepare_imports()
    with open(common.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    with common.work_dir("run") as work:
        dog = common.Watchdog(WATCHDOG_SECONDS * len(names),
                              cleanup=work).start()
        try:
            for name in names:
                (work / name).mkdir()
                outcome = _run_one(name, args, work / name)
                metrics = _select_metrics(outcome, declared)
                _report(name, args, outcome, metrics)
                results[name] = (outcome, metrics)
        finally:
            common.stop_processes()
            dog.cancel()
    correct = all(o.correct for o, _ in results.values())
    if len(names) == 1:
        outcome, metrics = results[names[0]]
    else:
        metrics = {f"{name}.{metric}": entry
                   for name, (_o, ms) in results.items()
                   for metric, entry in ms.items()}
    line = {
        "correct": correct,
        "attempted": sum(o.attempted for o, _ in results.values()),
        "failed": sum(o.failed for o, _ in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(line), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
