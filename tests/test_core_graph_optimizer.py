"""Tests for the chain DP and the chain-independent plan in ``repro.plan``.

``optimize_chain`` segments one linear chain; ``optimize_graph`` runs it
over every maximal chain of a graph.  The brute-force exactness property
of the chain DP lives in ``test_plan.py``.
"""

import pytest

from repro.core import InfeasibleError
from repro.ir import OperatorGraph, matmul, rowwise_softmax
from repro.plan import optimize_graph, plan_dag
from repro.plan.partition import optimize_chain


def ffn_like_graph(m=128, h=64, f=256):
    graph = OperatorGraph("ffn")
    fc1 = graph.add(matmul("fc1", m, h, f))
    graph.add(matmul("fc2", m, f, h, a=fc1.output))
    return graph


def attention_like_graph(s=64, d=16, count=4):
    graph = OperatorGraph("attn")
    qk = graph.add(matmul("qk", s, d, s, count=count))
    sm = graph.add(rowwise_softmax("sm", qk.output, count=count))
    graph.add(matmul("av", s, s, d, a=sm.output, count=count))
    return graph


class TestOptimizeChain:
    def test_empty_chain(self):
        assert optimize_chain([], 1000) == ()

    def test_single_op_chain(self):
        op = matmul("mm", 32, 16, 24)
        segments = optimize_chain([op], 1000)
        assert len(segments) == 1
        assert not segments[0].fused

    def test_fusable_pair_fused(self):
        graph = ffn_like_graph()
        (chain,) = graph.chains()
        segments = optimize_chain(chain, 50000)
        assert len(segments) == 1
        assert segments[0].fused

    def test_fusion_disabled(self):
        graph = ffn_like_graph()
        (chain,) = graph.chains()
        segments = optimize_chain(chain, 50000, enable_fusion=False)
        assert len(segments) == 2
        assert not any(segment.fused for segment in segments)

    def test_plan_cost_not_worse_than_unfused(self):
        graph = ffn_like_graph()
        (chain,) = graph.chains()
        fused_cost = sum(s.memory_access for s in optimize_chain(chain, 50000))
        unfused_cost = sum(
            s.memory_access
            for s in optimize_chain(chain, 50000, enable_fusion=False)
        )
        assert fused_cost <= unfused_cost

    def test_infeasible_chain_raises(self):
        op = matmul("mm", 32, 16, 24)
        with pytest.raises(InfeasibleError, match="no feasible plan"):
            optimize_chain([op], 1)


class TestOptimizeGraph:
    def test_attention_chain_fully_fused(self):
        graph = attention_like_graph()
        plan = optimize_graph(graph, 10000)
        assert len(plan.fused_segments) == 1
        fused_ops = [op.name for op in plan.fused_segments[0].ops]
        assert fused_ops == ["qk", "sm", "av"]

    def test_plan_covers_all_operators(self):
        graph = attention_like_graph()
        plan = optimize_graph(graph, 10000)
        planned = sorted(op.name for s in plan.segments for op in s.ops)
        assert planned == sorted(op.name for op in graph)

    def test_fusion_improves_total(self):
        graph = attention_like_graph()
        fused = optimize_graph(graph, 10000).memory_access
        unfused = optimize_graph(graph, 10000, enable_fusion=False).memory_access
        assert fused < unfused

    def test_total_at_least_graph_ideal(self):
        graph = attention_like_graph()
        plan = optimize_graph(graph, 10000)
        assert plan.memory_access >= graph.ideal_memory_access()

    def test_describe_lists_segments(self):
        graph = attention_like_graph()
        text = optimize_graph(graph, 10000).describe()
        assert "total MA=" in text

    def test_max_group_limits_segments(self):
        graph = attention_like_graph()
        plan = optimize_graph(graph, 10000, max_group=2)
        assert all(len(segment.ops) <= 2 for segment in plan.segments)


def graph_lower_bound(graph, buffer_elems, enable_fusion=True):
    """A graph's communication bound: the total of its plan."""
    return plan_dag(
        graph, buffer_elems, enable_fusion=enable_fusion,
        enable_retention=False,
    ).memory_access


class TestGraphLowerBound:
    def test_bounded_by_ideal(self):
        graph = attention_like_graph()
        bound = graph_lower_bound(graph, 10000)
        assert bound >= graph.ideal_memory_access()

    def test_monotone_in_buffer(self):
        graph = ffn_like_graph()
        previous = None
        for budget in (1000, 4000, 16000, 64000):
            bound = graph_lower_bound(graph, budget)
            if previous is not None:
                assert bound <= previous
            previous = bound

    def test_fusion_flag(self):
        graph = ffn_like_graph()
        assert graph_lower_bound(graph, 50000, enable_fusion=True) <= (
            graph_lower_bound(graph, 50000, enable_fusion=False)
        )
