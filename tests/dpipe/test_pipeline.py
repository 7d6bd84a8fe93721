"""Tests for epoch-interleaved pipeline windows."""

import pytest

from repro.arch.spec import cloud_architecture
from repro.dpipe.latency import build_latency_table
from repro.dpipe.pipeline import (
    CURRENT,
    NEXT,
    ROOT,
    best_window_schedule,
    build_window,
    subgraph_makespan,
)
from repro.einsum.builders import attention_cascade
from repro.graph.dag import ComputationDAG
from repro.graph.partition import Bipartition, enumerate_bipartitions


@pytest.fixture
def mha_dag():
    return ComputationDAG.from_cascade(attention_cascade())


@pytest.fixture
def mha_table(cloud):
    cascade = attention_cascade()
    tile = {"h": 4, "e": 16, "f": 16, "p": 64, "m0": 64, "m1": 1}
    return build_latency_table(cascade, "mha", tile, cloud)


class TestBuildWindow:
    def test_window_contains_both_epoch_halves(self, mha_dag):
        parts = enumerate_bipartitions(mha_dag)
        window = build_window(mha_dag, parts[0])
        cur_nodes = {
            n for n in window.nodes if n.startswith(CURRENT)
        }
        nxt_nodes = {n for n in window.nodes if n.startswith(NEXT)}
        assert len(cur_nodes) == len(parts[0].second)
        assert len(nxt_nodes) == len(parts[0].first)
        assert ROOT in window.nodes

    def test_root_precedes_all_sources(self, mha_dag):
        parts = enumerate_bipartitions(mha_dag)
        window = build_window(mha_dag, parts[0])
        assert window.sources() == {ROOT}

    def test_no_cross_epoch_data_edges(self, mha_dag):
        parts = enumerate_bipartitions(mha_dag)
        window = build_window(mha_dag, parts[0])
        for u, v in window.edges:
            if u == ROOT:
                continue
            assert u.split(".")[0] == v.split(".")[0], (
                "current-epoch G2 and next-epoch G1 are independent"
            )


class TestWindowSchedule:
    def test_period_bounded_by_sequential_halves(
        self, mha_dag, mha_table
    ):
        parts = enumerate_bipartitions(mha_dag)
        for part in parts[:5]:
            window, _ = best_window_schedule(
                mha_dag, part, mha_table, max_orders=8
            )
            fill = subgraph_makespan(mha_dag, part.first, mha_table)
            drain = subgraph_makespan(
                mha_dag, part.second, mha_table
            )
            # Overlap can only help; it can never beat the slower half
            # and never exceed the serialized sum (resource limits may
            # push it near the sum, not beyond).
            assert window.period_seconds <= fill + drain + 1e-12
            assert window.period_seconds >= max(fill, drain) * 0.5

    def test_more_orders_never_hurts(self, mha_dag, mha_table):
        part = enumerate_bipartitions(mha_dag)[0]
        few, _ = best_window_schedule(
            mha_dag, part, mha_table, max_orders=1
        )
        many, _ = best_window_schedule(
            mha_dag, part, mha_table, max_orders=32
        )
        assert many.period_seconds <= few.period_seconds + 1e-12


class TestSubgraphMakespan:
    def test_whole_graph_makespan_positive(self, mha_dag, mha_table):
        span = subgraph_makespan(
            mha_dag, frozenset(mha_dag.nodes), mha_table
        )
        assert span > 0
