"""Seconds-long smoke runs of every workload, plus the benchmark's own
oracle and watchdog.  Breakage shows here without a full run."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from e2ebench import common
from e2ebench.oracle import RangeOracle, brute_force_cost

WORKLOADS = ("serve-narrow", "serve-wide", "ingest-live", "advise")


def _bench() -> dict:
    return json.loads((common.ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=common.ROOT, timeout=170):
    return subprocess.run([sys.executable, str(cwd / "e2ebench" / "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(workload):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in _bench()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_serve_ledger_closes_on_wall_time():
    proc = _run("--workload", "serve-narrow", "--seed", "4", "--seconds", "1",
                "--smoke", "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert set(metrics) == {m["name"] for m in _bench()["per_layer"]}
    assert metrics["ledger.ops"]["value"] > 0
    assert abs(metrics["ledger.closure"]["value"] - 1.0) <= 0.05
    assert metrics["engine.partitions_decoded"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(common.ROOT / "e2ebench", tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "serve-narrow", "--seed", "1", "--seconds", "1",
                cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_watchdog_stops_workers_of_a_stalled_run(tmp_path):
    pid_file = tmp_path / "child.pid"
    script = textwrap.dedent(f"""
        import multiprocessing, sys, time
        sys.path.insert(0, {str(common.ROOT)!r})
        from e2ebench import common

        if __name__ == "__main__":
            child = multiprocessing.get_context("spawn").Process(
                target=time.sleep, args=(600,))
            child.start()
            open({str(pid_file)!r}, "w").write(str(child.pid))
            common.Watchdog(1.0).start()
            time.sleep(600)
    """)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == common.WATCHDOG_EXIT
    assert "watchdog" in proc.stderr
    pid = int(pid_file.read_text())
    try:
        state = (Path(f"/proc/{pid}/stat").read_text()
                 .rsplit(")", 1)[1].split()[0])
    except FileNotFoundError:
        state = "gone"
    assert state in ("gone", "Z", "X")


def _columns(n, seed):
    rng = np.random.default_rng(seed)
    return {
        "x": rng.uniform(0, 1, n), "y": rng.uniform(0, 1, n),
        "t": rng.uniform(0, 1, n),
        "oid": rng.integers(0, 5, n).astype(np.int32),
        "speed": rng.uniform(0, 9, n).astype(np.float32),
    }


class _Box:
    x_min = y_min = t_min = 0.2
    x_max = y_max = t_max = 0.7


def test_oracle_is_a_bit_exact_multiset_check():
    cols = _columns(2000, 1)
    oracle = RangeOracle(cols)
    box = _Box()
    mask = ((cols["x"] >= 0.2) & (cols["x"] <= 0.7) & (cols["y"] >= 0.2)
            & (cols["y"] <= 0.7) & (cols["t"] >= 0.2) & (cols["t"] <= 0.7))
    answer = {k: v[mask][::-1].copy() for k, v in cols.items()}
    assert oracle.matches(answer, box)
    flipped = {k: v.copy() for k, v in answer.items()}
    flipped["speed"][0] = np.nextafter(flipped["speed"][0], np.float32(10))
    assert not oracle.matches(flipped, box)
    dropped = {k: v[1:] for k, v in answer.items()}
    assert not oracle.matches(dropped, box)
    doubled = {k: np.concatenate([v, v[:1]]) for k, v in answer.items()}
    assert not oracle.matches(doubled, box)
    first = int(np.flatnonzero(mask)[0])
    assert not oracle.matches(answer, box, visible=first)


def test_brute_force_cost_enumerates_within_budget():
    costs = np.array([[1.0, 5.0, 2.0], [6.0, 1.0, 2.0]])
    weights = np.array([0.5, 0.5])
    storage = np.array([1.0, 1.0, 1.5])
    assert brute_force_cost(costs, weights, storage, 2.0) == 1.0
    assert brute_force_cost(costs, weights, storage, 1.5) == 2.0
