"""Cross-validation of the selection solvers: greedy, branch-and-bound,
brute force, and both MIP forms/backends."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    SelectionInstance,
    branch_and_bound_select,
    brute_force_select,
    build_mip,
    greedy_select,
    solve_mip,
)
from repro.core.greedy import GreedyStep


def random_instance(rng, n=6, m=8, budget_frac=0.4, with_inf=False):
    costs = rng.uniform(1, 100, size=(n, m))
    if with_inf:
        mask = rng.random((n, m)) < 0.2
        # Keep at least one finite cost per row.
        for i in range(n):
            if mask[i].all():
                mask[i, rng.integers(m)] = False
        costs = np.where(mask, np.inf, costs)
    storage = rng.uniform(1, 10, size=m)
    budget = float(storage.sum() * budget_frac)
    weights = rng.uniform(0.1, 2.0, size=n)
    return SelectionInstance(costs, weights, storage, budget)


class TestGreedy:
    def test_empty_budget_selects_nothing(self):
        rng = np.random.default_rng(0)
        inst = random_instance(rng, budget_frac=0.0)
        sel = greedy_select(inst)
        assert sel.selected == ()

    def test_feasible(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            inst = random_instance(rng)
            sel = greedy_select(inst)
            assert inst.is_feasible(sel.selected)

    def test_cost_matches_instance(self):
        rng = np.random.default_rng(2)
        inst = random_instance(rng)
        sel = greedy_select(inst)
        assert sel.cost == pytest.approx(inst.workload_cost(sel.selected))

    def test_trace_records_steps(self):
        rng = np.random.default_rng(3)
        inst = random_instance(rng, budget_frac=0.8)
        trace: list[GreedyStep] = []
        sel = greedy_select(inst, trace=trace)
        assert len(trace) == len(sel.selected)
        # Storage accumulates; cost decreases monotonically.
        costs = [s.cost_after for s in trace]
        assert all(a >= b for a, b in zip(costs, costs[1:]))

    def test_greedy_never_worse_than_best_single(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            inst = random_instance(rng, budget_frac=0.5)
            sel = greedy_select(inst)
            try:
                _, single = inst.best_single()
            except ValueError:
                continue
            assert sel.cost <= single + 1e-9

    def test_stops_when_no_gain(self):
        # All candidates equal the empty-set baseline: no positive gain,
        # so Algorithm 1 terminates without selecting anything (the
        # advisor layer is responsible for guaranteeing >= 1 replica).
        costs = np.array([[1.0, 1.0], [1.0, 1.0]])
        inst = SelectionInstance(costs, np.ones(2), np.ones(2), 10.0)
        sel = greedy_select(inst)
        assert sel.selected == ()

    def test_selects_only_improving_replicas(self):
        # Second replica is strictly better on one query: both picked.
        costs = np.array([[4.0, 1.0], [4.0, 4.0]])
        inst = SelectionInstance(costs, np.ones(2), np.ones(2), 10.0)
        sel = greedy_select(inst)
        assert sel.selected == (1,)  # replica 0 never improves on baseline


class TestBranchAndBound:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, n=5, m=8,
                               budget_frac=rng.uniform(0.2, 0.8))
        exact = branch_and_bound_select(inst)
        reference = brute_force_select(inst)
        assert exact.optimal
        assert exact.cost == pytest.approx(reference.cost)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force_with_inf(self, seed):
        rng = np.random.default_rng(100 + seed)
        inst = random_instance(rng, n=5, m=7, budget_frac=0.6, with_inf=True)
        exact = branch_and_bound_select(inst)
        reference = brute_force_select(inst)
        assert exact.cost == pytest.approx(reference.cost)

    def test_never_worse_than_greedy(self):
        rng = np.random.default_rng(7)
        for _ in range(15):
            inst = random_instance(rng, n=8, m=12,
                                   budget_frac=rng.uniform(0.1, 0.9))
            assert branch_and_bound_select(inst).cost <= \
                greedy_select(inst).cost + 1e-9

    def test_node_limit_returns_incumbent(self):
        # Tight budget keeps the greedy incumbent away from the ideal
        # bound, so the root is not pruned and the 2-node limit triggers.
        rng = np.random.default_rng(0)
        inst = random_instance(rng, n=12, m=18, budget_frac=0.25)
        sel = branch_and_bound_select(inst, max_nodes=2)
        assert not sel.optimal
        assert inst.is_feasible(sel.selected)

    def test_root_prune_proves_greedy_optimal(self):
        # When greedy already attains the all-replicas ideal, the root
        # bound certifies optimality in a single node.
        rng = np.random.default_rng(8)
        inst = random_instance(rng, n=10, m=16, budget_frac=1.0)
        sel = branch_and_bound_select(inst, max_nodes=2)
        assert sel.optimal
        assert sel.nodes_explored <= 2

    def test_invalid_on_limit(self):
        rng = np.random.default_rng(9)
        inst = random_instance(rng)
        with pytest.raises(ValueError):
            branch_and_bound_select(inst, on_limit="explode")

    def test_empty_instance(self):
        inst = SelectionInstance(np.empty((0, 0)), np.empty(0), np.empty(0), 1.0)
        sel = branch_and_bound_select(inst)
        assert sel.optimal and sel.selected == ()

    def test_larger_instance_reasonable(self):
        rng = np.random.default_rng(10)
        inst = random_instance(rng, n=30, m=40, budget_frac=0.3)
        sel = branch_and_bound_select(inst)
        assert sel.optimal
        assert sel.cost <= greedy_select(inst).cost + 1e-9

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), budget_frac=st.floats(0.05, 0.95))
    def test_property_optimality(self, seed, budget_frac):
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, n=4, m=6, budget_frac=budget_frac)
        assert branch_and_bound_select(inst).cost == pytest.approx(
            brute_force_select(inst).cost)


class TestBruteForce:
    def test_rejects_large(self):
        rng = np.random.default_rng(0)
        inst = random_instance(rng, n=2, m=25)
        with pytest.raises(ValueError):
            brute_force_select(inst)

    def test_optimal_flag(self):
        rng = np.random.default_rng(0)
        sel = brute_force_select(random_instance(rng))
        assert sel.optimal


class TestMip:
    def test_build_shapes_aggregated(self):
        rng = np.random.default_rng(1)
        inst = random_instance(rng, n=4, m=5)
        f = build_mip(inst, "aggregated")
        assert f.n_variables == 5 + 4 * 5
        # 1 storage row + m linking rows.
        assert f.a_ub.shape == (1 + 5, f.n_variables)
        assert f.a_eq.shape == (4, f.n_variables)

    def test_build_shapes_per_query(self):
        rng = np.random.default_rng(1)
        inst = random_instance(rng, n=4, m=5)
        f = build_mip(inst, "per-query")
        assert f.a_ub.shape == (1 + 4 * 5, f.n_variables)

    def test_build_unknown_form(self):
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError):
            build_mip(random_instance(rng), "diagonal")

    @pytest.mark.parametrize("form", ["aggregated", "per-query"])
    @pytest.mark.parametrize("seed", range(5))
    def test_scipy_backend_matches_brute_force(self, form, seed):
        rng = np.random.default_rng(200 + seed)
        inst = random_instance(rng, n=4, m=6, budget_frac=0.5)
        sel = solve_mip(inst, backend="scipy", constraint_form=form)
        ref = brute_force_select(inst)
        assert sel.cost == pytest.approx(ref.cost)
        assert inst.is_feasible(sel.selected)

    def test_scipy_backend_with_inf_costs(self):
        rng = np.random.default_rng(300)
        inst = random_instance(rng, n=4, m=6, budget_frac=0.7, with_inf=True)
        sel = solve_mip(inst, backend="scipy")
        ref = brute_force_select(inst)
        assert sel.cost == pytest.approx(ref.cost)

    def test_bnb_backend(self):
        rng = np.random.default_rng(301)
        inst = random_instance(rng, n=4, m=6)
        sel = solve_mip(inst, backend="bnb")
        assert sel.solver.startswith("mip-bnb")
        assert sel.cost == pytest.approx(brute_force_select(inst).cost)

    def test_unknown_backend(self):
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError):
            solve_mip(random_instance(rng), backend="gurobi")

    @pytest.mark.parametrize("module", ["repro.serve.worker", "repro"])
    def test_scipy_not_imported_until_a_mip_is_built(self, module):
        # Serving processes import the package but never solve a MIP;
        # scipy would cost each of them ~20 MB of resident memory.
        src_root = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src_root))
        probe = (f"import sys, {module}; "
                 "print(any(m == 'scipy' or m.startswith('scipy.') "
                 "for m in sys.modules))")
        out = subprocess.run([sys.executable, "-c", probe], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"


class TestSolverTelemetry:
    def test_node_limit_raises_when_asked(self):
        # Regression: on_limit="raise" used to be accepted but ignored.
        from repro.core import BranchAndBoundLimit

        rng = np.random.default_rng(0)
        inst = random_instance(rng, n=12, m=18, budget_frac=0.25)
        with pytest.raises(BranchAndBoundLimit):
            branch_and_bound_select(inst, max_nodes=2, on_limit="raise")

    def test_greedy_publishes_metrics(self):
        from repro.obs import MetricsRegistry

        reg = MetricsRegistry()
        rng = np.random.default_rng(1)
        inst = random_instance(rng, budget_frac=0.8)
        sel = greedy_select(inst, metrics=reg)
        assert reg.counter_value(
            "repro_solver_runs_total", labels={"solver": "greedy"}) == 1
        assert reg.counter_value(
            "repro_solver_replicas_selected_total",
            labels={"solver": "greedy"}) == len(sel.selected)

    def test_bnb_publishes_metrics(self):
        from repro.obs import MetricsRegistry

        reg = MetricsRegistry()
        rng = np.random.default_rng(2)
        inst = random_instance(rng)
        sel = branch_and_bound_select(inst, metrics=reg)
        labels = {"solver": "bnb"}
        assert reg.counter_value("repro_solver_runs_total", labels=labels) == 1
        assert reg.counter_value(
            "repro_solver_nodes_explored_total",
            labels=labels) == sel.nodes_explored
        assert reg.counter_value(
            "repro_solver_replicas_selected_total",
            labels=labels) == len(sel.selected)
