"""Differential tests: fused branch-and-bound search vs. legacy
enumerate-then-score.

The fused search (:mod:`repro.dpipe.search`) must be *byte-identical*
to materializing topological orders and DP-scheduling each from
scratch -- same winning order, same float end times, same busy totals
-- including under the ``max_orders`` cap (pruned branches still count
toward the budget) and with a zero-latency virtual ROOT.  These
property tests drive both implementations over seeded random DAGs and
latency tables and compare every field.
"""

import random

import pytest

from repro.arch.pe import PEArrayKind
from repro.dpipe.latency import LatencyTable
from repro.dpipe.pipeline import ROOT, best_window_schedule, build_window
from repro.dpipe.scheduler import dp_schedule
from repro.dpipe.search import InternedProblem, fused_best_order
from repro.graph.dag import ComputationDAG
from repro.graph.partition import enumerate_bipartitions
from repro.graph.toposort import (
    all_topological_orders,
    critical_path_order,
)
from tests.oracles.dpipe_legacy import legacy_window_schedule

TWO_D = PEArrayKind.ARRAY_2D
ONE_D = PEArrayKind.ARRAY_1D


def random_dag(rng: random.Random, n_nodes: int,
               edge_prob: float) -> ComputationDAG:
    """A random DAG over ``op0..opN`` with forward edges only."""
    names = [f"op{i}" for i in range(n_nodes)]
    edges = set()
    for j in range(n_nodes):
        for i in range(j):
            if rng.random() < edge_prob:
                edges.add((names[i], names[j]))
    return ComputationDAG(nodes=tuple(names), edges=frozenset(edges))


def random_layered_dag(rng: random.Random) -> ComputationDAG:
    """A random layered DAG (every layer fully feeds the next) with a
    single source and sink, so each prefix of layers is weakly
    connected and a valid bipartition always exists."""
    n_inner = rng.randint(1, 2)
    widths = [1] + [rng.randint(1, 2) for _ in range(n_inner)] + [1]
    layers = []
    total = 0
    for width in widths:
        layers.append([f"op{total + i}" for i in range(width)])
        total += width
    edges = set()
    for upper, lower in zip(layers, layers[1:]):
        for u in upper:
            for v in lower:
                edges.add((u, v))
    names = tuple(n for layer in layers for n in layer)
    return ComputationDAG(nodes=names, edges=frozenset(edges))


def random_table(rng: random.Random,
                 dag: ComputationDAG) -> LatencyTable:
    """Random latencies drawn from a small set so makespan ties are
    common (ties exercise the first-found-winner rule)."""
    choices = (1.0, 1.0, 2.0, 3.0, 5.0, 0.25)
    seconds = {}
    loads = {}
    for name in dag.nodes:
        seconds[(name, TWO_D)] = rng.choice(choices)
        seconds[(name, ONE_D)] = rng.choice(choices)
        loads[name] = rng.choice((1.0, 4.0))
    return LatencyTable(seconds=seconds, loads=loads)


def legacy_best(dag, table, limit, zero_latency=frozenset(),
                extra_orders=()):
    """The reference search: materialize orders, DP each from
    scratch, keep the first strict minimum."""
    preds = dag.pred_map()
    candidates = list(all_topological_orders(dag, limit=limit))
    candidates.extend(extra_orders)
    best = None
    best_order = None
    for order in candidates:
        result = dp_schedule(order, preds, table,
                             zero_latency=set(zero_latency))
        if best is None or result.makespan < best.makespan:
            best = result
            best_order = tuple(order)
    return best_order, best


def assert_identical(fused, reference):
    """Every observable field, including dict iteration order (the
    planner accumulates floats in that order)."""
    f_order, f_res, _ = fused
    l_order, l_res = reference
    assert f_order == l_order
    assert f_res.makespan == l_res.makespan
    assert f_res.assignment == l_res.assignment
    assert f_res.end_times == l_res.end_times
    assert f_res.busy_seconds == l_res.busy_seconds
    assert list(f_res.end_times) == list(l_res.end_times)
    assert list(f_res.assignment) == list(l_res.assignment)


class TestFusedEqualsLegacy:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_dags_unlimited(self, seed):
        rng = random.Random(seed)
        dag = random_dag(rng, rng.randint(1, 7),
                         rng.choice((0.15, 0.4, 0.7)))
        table = random_table(rng, dag)
        limit = 10_000  # effectively uncapped at this size
        assert_identical(
            fused_best_order(dag, table, limit),
            legacy_best(dag, table, limit),
        )

    @pytest.mark.parametrize("seed", range(40))
    def test_random_dags_capped(self, seed):
        """The cap must bite exactly as in the legacy search: pruned
        branches still consume budget, so both paths stop after the
        same enumerated prefix."""
        rng = random.Random(1000 + seed)
        dag = random_dag(rng, rng.randint(3, 7),
                         rng.choice((0.1, 0.3)))
        table = random_table(rng, dag)
        for limit in (1, 2, 3, 7, 20):
            assert_identical(
                fused_best_order(dag, table, limit),
                legacy_best(dag, table, limit),
            )

    @pytest.mark.parametrize("seed", range(25))
    def test_windows_with_zero_latency_root(self, seed):
        """ROOT-joined epoch windows: zero-latency node plus epoch
        prefixes stripped during interning."""
        rng = random.Random(2000 + seed)
        dag = random_layered_dag(rng)
        table = random_table(rng, dag)
        bipartitions = enumerate_bipartitions(dag, limit=3)
        assert bipartitions, "layered DAGs always bipartition"
        for bipartition in bipartitions:
            window = build_window(dag, bipartition)
            for limit in (2, 48):
                assert_identical(
                    fused_best_order(window, table, limit,
                                     zero_latency={ROOT}),
                    legacy_best(window, table, limit,
                                zero_latency={ROOT}),
                )

    @pytest.mark.parametrize("seed", range(25))
    def test_extra_orders_match_legacy_append(self, seed):
        """The critical-path candidate is appended after enumeration
        and can only win with a strictly smaller makespan."""
        rng = random.Random(3000 + seed)
        dag = random_dag(rng, rng.randint(2, 6), 0.3)
        table = random_table(rng, dag)
        weights = {
            node: min(table.latency(node, TWO_D),
                      table.latency(node, ONE_D))
            for node in dag.nodes
        }
        extra = (critical_path_order(dag, weights),)
        for limit in (1, 5, 100):
            assert_identical(
                fused_best_order(dag, table, limit,
                                 extra_orders=extra),
                legacy_best(dag, table, limit, extra_orders=extra),
            )

    @pytest.mark.parametrize("seed", range(15))
    def test_window_schedule_wrapper(self, seed):
        """End-to-end: best_window_schedule (fused) equals
        legacy_window_schedule on random DAGs."""
        rng = random.Random(4000 + seed)
        dag = random_layered_dag(rng)
        table = random_table(rng, dag)
        for bipartition in enumerate_bipartitions(dag, limit=4):
            fused, _ = best_window_schedule(
                dag, bipartition, table, 48
            )
            legacy = legacy_window_schedule(dag, bipartition, table,
                                            48)
            assert fused.order == legacy.order
            assert fused.schedule == legacy.schedule


class TestSearchEdgeCases:
    def test_invalid_limit_rejected(self):
        dag = random_dag(random.Random(0), 3, 0.5)
        table = random_table(random.Random(0), dag)
        with pytest.raises(ValueError, match="positive"):
            fused_best_order(dag, table, 0)

    def test_single_node(self):
        dag = ComputationDAG(nodes=("a",), edges=frozenset())
        table = LatencyTable(
            seconds={("a", TWO_D): 2.0, ("a", ONE_D): 3.0},
            loads={"a": 1.0},
        )
        order, result, _ = fused_best_order(dag, table, 48)
        assert order == ("a",)
        assert result.makespan == 2.0
        assert result.assignment["a"] is TWO_D

    def test_chain_has_one_order(self):
        dag = ComputationDAG(
            nodes=("a", "b", "c"),
            edges=frozenset({("a", "b"), ("b", "c")}),
        )
        table = LatencyTable(
            seconds={(n, k): 1.0 for n in "abc"
                     for k in (TWO_D, ONE_D)},
            loads={n: 1.0 for n in "abc"},
        )
        order, result, _ = fused_best_order(dag, table, 48)
        assert order == ("a", "b", "c")
        assert result.makespan == 3.0

    def test_antichain_prunes_but_finds_optimum(self):
        """Wide antichain: thousands of orders share the optimum; the
        fused search must return the first-enumerated winner."""
        names = tuple(f"op{i}" for i in range(6))
        dag = ComputationDAG(nodes=names, edges=frozenset())
        table = LatencyTable(
            seconds={(n, k): 1.0 for n in names
                     for k in (TWO_D, ONE_D)},
            loads={n: 1.0 for n in names},
        )
        assert_identical(
            fused_best_order(dag, table, 720),
            legacy_best(dag, table, 720),
        )

    def test_tail_bound_is_admissible(self):
        """The pruning bound never exceeds the true best makespan of
        any completion (checked indirectly: capped and uncapped
        searches agree with legacy on a tie-heavy DAG)."""
        rng = random.Random(99)
        for _ in range(10):
            dag = random_dag(rng, 6, 0.2)
            table = random_table(rng, dag)
            problem = InternedProblem(dag, table)
            # tail_min is a min-over-arrays critical path: for every
            # topological order, makespan >= max over nodes of
            # tail_min at that node's scheduling time.
            for order in all_topological_orders(dag, limit=50):
                result = dp_schedule(order, dag.pred_map(), table)
                index = {n: i for i, n in enumerate(problem.names)}
                root_tail = max(
                    problem.tail_min[index[n]] for n in dag.nodes
                ) if dag.nodes else 0.0
                assert result.makespan >= root_tail - 1e-12
