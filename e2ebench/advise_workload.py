"""``advise``: the replica advisor from a sample to a recommendation.

Set-up: generate the sample and calibrate the simulated environment's
Eq. 6 cost model.  One operation builds a cold ``ReplicaAdvisor`` over
the paper's 25 partitionings x 7 encodings, prices the paper's grouped
workload for a 65M-record target (Eq. 8-12), takes the 3-copy budget
and selects greedy and exact replica sets.  Operations repeat until the
run's seconds are used, always in whole operations.

Checks (off the clock): both selections fit the budget; ideal <= exact
<= greedy cost; branch and bound equals brute-force enumeration on a
12-candidate restriction of the priced instance; and sampled cost
entries agree with a Monte-Carlo count of intersected partition boxes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from e2ebench import common
from e2ebench.oracle import brute_force_cost, monte_carlo_np
from e2ebench.probes import Tracer, install_build_probes, root_ledger

TARGET_RECORDS = 65e6
BUDGET_COPIES = 3
ENVIRONMENT = "amazon-s3-emr"
#: candidates kept for the brute-force cross-check (2^12 subsets)
BRUTE_FORCE_CANDIDATES = 12
#: sampled (query, candidate) cost entries and Monte-Carlo trials each
MC_ENTRIES = 3
MC_TRIALS = 2000
#: Monte-Carlo partitionings are drawn among those at most this large
MC_MAX_PARTITIONS = 20_000


@dataclass(frozen=True)
class Size:
    #: records of the (fixed) dataset the sample is drawn from
    population: int
    sample: int
    paper_grid: bool
    #: set-ups timed before the first advise and after each one
    setups_per_slot: int


FULL = Size(population=60_000, sample=10_000, paper_grid=True,
            setups_per_slot=3)
SMOKE = Size(population=4_000, sample=1_500, paper_grid=False,
             setups_per_slot=1)


def _setup(seed: int, size: Size):
    from repro.cluster import cost_model_for, make_cluster
    from repro.data import synthetic_shanghai_taxis
    from repro.encoding import paper_encoding_schemes

    population = synthetic_shanghai_taxis(size.population,
                                          seed=common.DATA_SEED)
    sample = population.sample(size.sample, np.random.default_rng([seed, 404]))
    encodings = paper_encoding_schemes()
    model = cost_model_for(make_cluster(ENVIRONMENT, seed=common.DATA_SEED),
                           [e.name for e in encodings])
    return sample, encodings, model


def _schemes(size: Size):
    from repro.partition import paper_partitioning_schemes, small_partitioning_schemes

    if size.paper_grid:
        return paper_partitioning_schemes()
    return small_partitioning_schemes((4, 16), (4, 8))


def advise(sample, encodings, model, size: Size):
    """One operation: sample -> greedy and exact recommendations."""
    from repro.core import AdvisorConfig, ReplicaAdvisor
    from repro.workload import paper_workload

    advisor = ReplicaAdvisor(sample, _schemes(size), encodings, model,
                             AdvisorConfig(n_records=TARGET_RECORDS))
    workload = paper_workload(advisor.universe)
    budget = advisor.single_replica_budget(workload, copies=BUDGET_COPIES)
    greedy = advisor.recommend(workload, budget, method="greedy")
    exact = advisor.recommend(workload, budget, method="exact")
    return advisor, workload, greedy, exact


def _check(advisor, workload, greedy, exact, model, seed, out) -> None:
    from repro.core import branch_and_bound_select

    tol = 1e-9
    for label, report in (("greedy", greedy), ("exact", exact)):
        if report.storage_used > report.budget * (1 + tol):
            out.fail(f"{label} set uses {report.storage_used:.4g} B over "
                     f"the {report.budget:.4g} B budget")
    if not (greedy.ideal_cost <= exact.cost * (1 + tol)
            and exact.cost <= greedy.cost * (1 + tol)):
        out.fail(f"cost order broken: ideal {greedy.ideal_cost:.6g}, exact "
                 f"{exact.cost:.6g}, greedy {greedy.cost:.6g}")

    instance = greedy.instance
    single_j, _ = instance.best_single()
    by_cost = np.argsort(instance.weights @ instance.costs, kind="stable")
    keep = [single_j] + [int(j) for j in by_cost if j != single_j]
    keep = sorted(keep[:BRUTE_FORCE_CANDIDATES])
    small = instance.restricted_to(keep)
    selection = branch_and_bound_select(small)
    got = small.workload_cost(selection.selected) if selection.selected \
        else np.inf
    want = brute_force_cost(small.costs, small.weights, small.storage,
                            small.budget)
    if not np.isclose(got, want, rtol=1e-9, atol=0.0):
        out.fail(f"exact solver cost {got:.9g} != brute force {want:.9g} "
                 f"on {len(keep)} candidates")

    rng = np.random.default_rng([seed, 303])
    queries = workload.queries()
    candidates = advisor.candidates
    small_enough = [j for j, p in enumerate(candidates)
                    if p.n_partitions <= MC_MAX_PARTITIONS]
    for _ in range(MC_ENTRIES):
        j = int(rng.choice(small_enough))
        i = int(rng.integers(len(queries)))
        profile = candidates[j]
        params = model.params_for(profile.encoding_name)
        per_partition = (profile.n_records / profile.n_partitions
                         / params.scan_rate + params.extra_time)
        np_model = instance.costs[i, j] / per_partition
        np_mc, se = monte_carlo_np(profile.box_array, profile.universe,
                                   queries[i].size, rng, MC_TRIALS)
        allowed = 4 * se + 0.02 * np_model + 0.05
        if abs(np_model - np_mc) > allowed:
            out.fail(f"Eq. 8-12 Np {np_model:.4f} vs Monte-Carlo "
                     f"{np_mc:.4f} +- {se:.4f} ({profile.name}, q{i + 1})")


def _timed_setups(seed, size, setups) -> None:
    for _ in range(size.setups_per_slot):
        setups.append(common.granted_seconds(lambda: _setup(seed, size))[1])


def _operations(seed, size, seconds, out, tracer=None, setups=None) -> dict:
    """Whole advise operations until ``seconds`` of them have run.  With
    ``setups``, set-ups are timed into it before the first operation and
    after each one (off the operations' clock), so that the set-up
    figure samples the whole run rather than one moment of it."""
    sample, encodings, model = _setup(seed, size)

    def operation():
        if tracer is None:
            return advise(sample, encodings, model, size)
        with tracer.root("advise"):
            return advise(sample, encodings, model, size)

    times, cpu = [], []
    last = None
    spent = 0.0
    while spent < seconds:
        if setups is not None:
            _timed_setups(seed, size, setups)
        t0 = time.perf_counter()
        cpu0 = time.process_time()
        try:
            last, granted = common.granted_seconds(operation)
        except Exception as exc:  # noqa: BLE001 - counted as failed
            out.count("advise", failed=True)
            out.notes.append(f"advise failed: {exc!r}")
            spent += time.perf_counter() - t0
            continue
        spent += time.perf_counter() - t0
        out.count("advise")
        times.append(granted)
        cpu.append(time.process_time() - cpu0)
        _advisor, _workload, greedy, exact = last
        for label, report in (("greedy", greedy), ("exact", exact)):
            if report.storage_used > report.budget * (1 + 1e-9):
                out.fail(f"{label} set over budget")
    if setups is not None:
        _timed_setups(seed, size, setups)
    if last is not None:
        _check(*last, model, seed, out)
    return {"times": times, "cpu": cpu, "last": last, "spent": spent,
            "rss": common.peak_rss_mb()}


def run(seed: int, seconds: float, smoke: bool, traced: bool,
        work) -> common.Outcome:
    size = SMOKE if smoke else FULL
    out = common.Outcome()
    if not traced:
        setups = []
        agg = _operations(seed, size, seconds, out, setups=setups)
        times = agg["times"]
        m = out.metrics
        _advisor, workload, greedy, _exact = agg["last"]
        n_queries = len(workload.queries())
        m["setup_s"] = (float(np.median(setups)), "s")
        m["throughput_qps"] = (n_queries * len(times) / sum(times),
                               "queries/s")
        common.latency_metrics(m, times, 0.0, out.notes,
                               "advise latency (granted)")
        m["cpu.ms_per_op"] = (float(np.median(agg["cpu"])) * 1e3, "ms")
        m["peak_rss_mb"] = (agg["rss"], "MB")
        m["stored_bytes_per_record"] = (greedy.storage_used / TARGET_RECORDS,
                                        "B")
        m["plan_cost_s"] = (greedy.cost, "s")
        out.notes.append(
            f"advise_s {np.median(times):.3f} s over {len(times)} op(s); "
            f"greedy {greedy.replica_names} cost {greedy.cost:.4g} s")
        out.latencies = times
        return out

    base = _operations(seed, size, seconds, out)
    tracer = Tracer()
    install_build_probes(tracer)
    _install_advise_probes(tracer)
    try:
        agg = _operations(seed, size, seconds, out, tracer)
        data = tracer.export()
    finally:
        tracer.uninstall()
    out.latencies = agg["times"]
    out.metrics["cpu.ms_per_op"] = (float(np.median(base["cpu"])) * 1e3, "ms")
    common.traced_run_metrics(out, base["times"])
    _advise_layers(data, len(agg["times"]), agg["spent"], out.metrics)
    return out


def _install_advise_probes(tracer: Tracer) -> None:
    import repro.core.advisor as advisor_mod
    import repro.costmodel.storage_size as storage_size_mod
    from repro.encoding.base import EncodingScheme

    tracer.patch(advisor_mod, "expected_partitions", "costmodel.np")
    tracer.patch(storage_size_mod, "measure_encoding_ratios", "encoding.ratio")
    tracer.patch(EncodingScheme, "encode", "encoding.encode")
    tracer.patch(advisor_mod, "prune_dominated", "core.prune",
                 on_result=lambda r: tracer.count("core.candidates_kept",
                                                  len(r.kept)))
    tracer.patch(advisor_mod, "greedy_select", "core.greedy")
    tracer.patch(advisor_mod, "branch_and_bound_select", "core.exact",
                 on_result=lambda r: tracer.count("core.exact_nodes",
                                                  r.nodes_explored))


def _advise_layers(data: dict, ops: int, run_s: float, m: dict) -> None:
    n = max(ops, 1)
    outer, calls, counters = data["outer_s"], data["calls"], data["counters"]

    def per_call_ms(layer):
        return outer.get(layer, 0.0) / max(calls.get(layer, 0), 1) * 1e3

    m["costmodel.np_s"] = (outer.get("costmodel.np", 0.0) / n, "s")
    m["costmodel.np_calls"] = (calls.get("costmodel.np", 0) / n, "count")
    m["partition.build_s"] = (outer.get("partition.build", 0.0) / n, "s")
    m["encoding.ratio_s"] = (outer.get("encoding.ratio", 0.0) / n, "s")
    m["encoding.encode_s"] = (data["self_s"].get("encoding.encode", 0.0) / n,
                              "s")
    m["core.prune_ms"] = (per_call_ms("core.prune"), "ms")
    m["core.candidates_kept"] = (
        counters.get("core.candidates_kept", 0.0)
        / max(calls.get("core.prune", 0), 1), "count")
    m["core.greedy_ms"] = (per_call_ms("core.greedy"), "ms")
    m["core.exact_ms"] = (per_call_ms("core.exact"), "ms")
    m["core.exact_nodes"] = (
        counters.get("core.exact_nodes", 0.0)
        / max(calls.get("core.exact", 0), 1), "count")
    root_ledger(m, [r for r in data["roots"] if r[0] == "advise"], run_s)
