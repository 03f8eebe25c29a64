"""Unit + property tests for repro.plan (partitioner, enumerative, scenarios).

Includes the issue's two headline properties:

* chain DP (``optimize_chain``) is *exactly* optimal against brute-force
  enumeration of every cut placement for chains of length <= 5;
* a DAG plan's total MA is never worse than the chain-independent plan
  on the same graph.
"""

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.core.graph_optimizer import optimize_chain, optimize_graph, segment_cost
from repro.ir import OperatorGraph, matmul, rowwise_softmax
from repro.plan import (
    SCENARIO_BUFFERS,
    SCENARIOS,
    DagPlan,
    clean_links,
    cost_partition,
    enumerate_plans,
    list_scenarios,
    plan_dag,
    retention_candidates,
    scenario_graph,
)
from repro.plan.enumerative import _compositions


# ----------------------------------------------------------------------
# Graph builders shared across tests
# ----------------------------------------------------------------------
def join_graph(dim=64):
    """a, b -> join: two producers feed one consumer."""
    graph = OperatorGraph("joined")
    a = graph.add(matmul("a", dim, dim, dim))
    b = graph.add(matmul("b", dim, dim, dim))
    j = graph.add(matmul("join", dim, dim, dim, a=a.output, b=b.output))
    return graph, (a, b, j)


def fanout_graph(dim=32):
    """x -> {c1, c2}: one output with two consumers."""
    graph = OperatorGraph("fanout")
    x = graph.add(matmul("x", dim, dim, dim))
    c1 = graph.add(matmul("c1", dim, dim, dim, a=x.output))
    c2 = graph.add(matmul("c2", dim, dim, dim, a=x.output))
    return graph, (x, c1, c2)


def diamond_graph(m=16, l=16, q=16):
    """x -> {c1, c2} -> j: fan-out then join."""
    graph = OperatorGraph("diamond")
    x = graph.add(matmul("x", m, l, l))
    c1 = graph.add(matmul("c1", m, l, m, a=x.output))
    c2 = graph.add(matmul("c2", m, l, q, a=x.output))
    j = graph.add(matmul("j", m, m, q, a=c1.output, b=c2.output))
    return graph, (x, c1, c2, j)


DAG_SHAPES = {
    "join": lambda dim: join_graph(dim)[0],
    "fanout": lambda dim: fanout_graph(dim)[0],
    "diamond": lambda dim: diamond_graph(dim, dim, dim)[0],
}

# (shape, dim, buffer) cells whose enumeration must exhaust; each is also
# an explicit example of the DAG-optimality property.
PINNED_EXHAUSTED = (
    ("join", 64, 4096),
    ("join", 64, 32768),
    ("fanout", 32, 4096),
    ("fanout", 32, 32768),
    ("diamond", 16, 4096),
    ("diamond", 16, 32768),
)


def with_pinned_examples(test):
    for cell in PINNED_EXHAUSTED:
        test = example(*cell)(test)
    return test


def build_chain(dims):
    """mm -> sm -> mm -> ... alternating so 3-op windows stay fusable."""
    ops = []
    prev = None
    for index, (m, k, l) in enumerate(dims):
        if prev is None:
            op = matmul(f"mm{index}", m, k, l)
        elif index % 2 == 1:
            op = rowwise_softmax(f"sm{index}", prev.output)
        else:
            pm, pl = prev.output.shape
            op = matmul(f"mm{index}", pm, pl, l, a=prev.output)
        ops.append(op)
        prev = op
    return tuple(ops)


# ----------------------------------------------------------------------
# clean_links / partitions
# ----------------------------------------------------------------------
class TestCleanLinks:
    def test_join_keeps_all_in_links(self):
        graph, _ = join_graph()
        assert clean_links(graph) == {"a": "join", "b": "join"}

    def test_fanout_has_no_links(self):
        graph, _ = fanout_graph()
        assert clean_links(graph) == {}

    def test_count_mismatch_is_not_clean(self):
        graph = OperatorGraph("counts")
        a = graph.add(matmul("a", 8, 8, 8, count=2))
        graph.add(matmul("b", 8, 8, 8, a=a.output, count=3))
        assert clean_links(graph) == {}

    def test_chain_links_match_chains(self):
        ops = build_chain([(8, 8, 8)] * 3)
        graph = OperatorGraph("chain")
        graph.extend(ops)
        assert clean_links(graph) == {ops[0].name: ops[1].name,
                                      ops[1].name: ops[2].name}


class TestCostPartition:
    def test_rejects_incomplete_cover(self):
        graph, (x, c1, _) = fanout_graph()
        assert cost_partition(graph, [(x,), (c1,)], (), 4096) is None

    def test_rejects_duplicate_ops(self):
        graph, (x, c1, c2) = fanout_graph()
        assert (
            cost_partition(graph, [(x,), (c1,), (c2,), (x,)], (), 4096) is None
        )

    def test_rejects_non_clean_segment(self):
        # x's output has two consumers, so (x, c1) is not a legal fused set.
        graph, (x, c1, c2) = fanout_graph()
        assert cost_partition(graph, [(x, c1), (c2,)], (), 4096) is None

    def test_rejects_retention_of_external_tensor(self):
        graph, (x, c1, c2) = fanout_graph()
        segments = [(x,), (c1,), (c2,)]
        assert cost_partition(graph, segments, ("x.A",), 4096) is None

    def test_rejects_retention_without_later_consumer(self):
        graph, (x, c1, c2) = fanout_graph()
        segments = [(x,), (c1,), (c2,)]
        # c1's output has no consumers at all.
        assert cost_partition(graph, segments, ("c1.C",), 4096) is None

    def test_costs_equal_chain_plan_without_retention(self):
        graph, ops = fanout_graph()
        segments = [(op,) for op in ops]
        plan = cost_partition(graph, segments, (), 4096)
        assert plan is not None
        assert plan.memory_access == optimize_graph(graph, 4096).memory_access

    def test_retention_elides_consumer_traffic(self):
        graph, ops = fanout_graph()
        segments = [(op,) for op in ops]
        base = cost_partition(graph, segments, (), 4096)
        retained = cost_partition(graph, segments, ("x.C",), 4096)
        assert retained is not None and base is not None
        assert retained.memory_access < base.memory_access
        assert retained.retained == ("x.C",)
        assert all(seg.reserved_elems == ops[0].output.size
                   for seg in retained.segments)

    def test_retention_shrinks_budget(self):
        graph, ops = fanout_graph()
        segments = [(op,) for op in ops]
        # Reserve so much that segments cannot fit: buffer == tensor size.
        assert (
            cost_partition(graph, segments, ("x.C",), ops[0].output.size)
            is None
        )


class TestRetentionCandidates:
    def test_fanout_tensor_is_candidate(self):
        graph, ops = fanout_graph()
        assert retention_candidates(graph, [(op,) for op in ops]) == ("x.C",)

    def test_mid_segment_output_is_not_candidate(self):
        graph, (x, c1, c2, j) = diamond_graph()
        # x fused with c1: x is no longer a segment's last op.
        segments = [(x, c1), (c2,), (j,)]
        assert "x.C" not in retention_candidates(graph, segments)

    def test_same_segment_consumer_is_not_candidate(self):
        ops = build_chain([(8, 8, 8)] * 2)
        graph = OperatorGraph("chain")
        graph.extend(ops)
        assert retention_candidates(graph, [ops]) == ()


# ----------------------------------------------------------------------
# plan_dag
# ----------------------------------------------------------------------
class TestPlanDag:
    def test_join_choice_beats_chain_plan(self):
        graph, _ = join_graph()
        plan = plan_dag(graph, 8192)
        chain = optimize_graph(graph, 8192)
        assert plan.memory_access < chain.memory_access
        fused = [tuple(op.name for op in s.ops) for s in plan.segments if s.fused]
        assert fused  # the join actually got merged with one producer

    def test_retention_beats_chain_plan(self):
        graph, _ = fanout_graph()
        plan = plan_dag(graph, 4096)
        assert plan.retained == ("x.C",)
        assert plan.memory_access < optimize_graph(graph, 4096).memory_access

    def test_retention_disabled(self):
        graph, _ = fanout_graph()
        plan = plan_dag(graph, 4096, enable_retention=False)
        assert plan.retained == ()

    def test_plan_is_deterministic(self):
        graph, _ = diamond_graph()
        first = plan_dag(graph, 4096)
        second = plan_dag(graph, 4096)
        assert first.signature() == second.signature()
        assert first.memory_access == second.memory_access

    def test_infeasible_buffer_raises(self):
        graph, _ = fanout_graph()
        with pytest.raises(ValueError):
            plan_dag(graph, 1)

    def test_plan_covers_graph(self):
        graph, _ = diamond_graph()
        plan = plan_dag(graph, 8192)
        names = sorted(op.name for s in plan.segments for op in s.ops)
        assert names == sorted(op.name for op in graph)


# ----------------------------------------------------------------------
# Enumerative baseline
# ----------------------------------------------------------------------
class TestEnumerative:
    def test_exhausts_small_graph(self):
        graph, _ = join_graph()
        outcome = enumerate_plans(graph, 8192)
        assert outcome.stats.exhausted
        assert outcome.plan is not None

    def test_budget_truncates(self):
        graph, _ = join_graph()
        outcome = enumerate_plans(graph, 8192, budget=1)
        assert not outcome.stats.exhausted
        assert outcome.stats.plans_evaluated == 1

    def test_budget_must_be_positive(self):
        graph, _ = join_graph()
        with pytest.raises(ValueError, match="budget"):
            enumerate_plans(graph, 8192, budget=0)

    def test_deterministic(self):
        graph, _ = diamond_graph()
        first = enumerate_plans(graph, 8192)
        second = enumerate_plans(graph, 8192)
        assert first.plan.signature() == second.plan.signature()
        assert first.stats == second.stats

    @given(
        st.sampled_from(sorted(DAG_SHAPES)),
        st.integers(4, 64),
        st.integers(64, 32768),
    )
    @with_pinned_examples
    @settings(max_examples=30, deadline=None)
    def test_exhausted_baseline_not_beaten_by_principle(
        self, shape, dim, buffer_elems
    ):
        graph = DAG_SHAPES[shape](dim)
        outcome = enumerate_plans(graph, buffer_elems)
        if (shape, dim, buffer_elems) in PINNED_EXHAUSTED:
            assert outcome.stats.exhausted
        assume(outcome.stats.exhausted and outcome.plan is not None)
        # An exhausted enumeration covers the principle planner's space,
        # so equality is the best the principle can do.
        plan = plan_dag(graph, buffer_elems)
        assert plan.memory_access == outcome.plan.memory_access

    def test_compositions_cover_and_cap(self):
        parts = list(_compositions(4, 2))
        assert all(sum(p) == 4 for p in parts)
        assert all(max(p) <= 2 for p in parts)
        assert len(parts) == len(set(parts)) == 5  # fibonacci(5)


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------
class TestScenarios:
    def test_catalog(self):
        assert list_scenarios() == (
            "attention", "decode", "moe", "training-backward",
        )
        for name in list_scenarios():
            assert SCENARIOS[name].description

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError, match="unknown plan scenario"):
            scenario_graph("nope")

    def test_unknown_model_raises(self):
        with pytest.raises(KeyError, match="unknown model"):
            scenario_graph("attention", "nope")

    def test_model_rescales(self):
        small = scenario_graph("attention")
        big = scenario_graph("attention", "bert")
        assert small.macs < big.macs

    def test_acceptance_matrix(self):
        """All four scenarios x both pinned buffers: principle <= baseline."""
        for name in list_scenarios():
            graph = scenario_graph(name)
            for buffer_elems in SCENARIO_BUFFERS:
                plan = plan_dag(graph, buffer_elems)
                outcome = enumerate_plans(graph, buffer_elems)
                assert outcome.plan is not None, (name, buffer_elems)
                assert plan.memory_access <= outcome.plan.memory_access, (
                    name, buffer_elems,
                )
                chain = optimize_graph(graph, buffer_elems)
                assert plan.memory_access <= chain.memory_access


# ----------------------------------------------------------------------
# Properties (the issue's satellite 3)
# ----------------------------------------------------------------------
def brute_force_chain_total(ops, buffer_elems):
    """Minimum chain cost over ALL cut placements, or None if infeasible."""
    best = None
    for parts in _compositions(len(ops), len(ops)):
        total = 0
        start = 0
        for part in parts:
            result = segment_cost(ops[start:start + part], buffer_elems)
            if result is None:
                break
            total += result.memory_access
            start += part
        else:
            if best is None or total < best:
                best = total
    return best


class TestChainDPOptimality:
    @given(
        st.lists(
            st.tuples(
                st.integers(2, 12), st.integers(2, 12), st.integers(2, 12)
            ),
            min_size=1,
            max_size=5,
        ),
        st.integers(16, 4096),
    )
    @settings(max_examples=60, deadline=None)
    def test_dp_matches_brute_force(self, dims, buffer_elems):
        """optimize_chain is exactly optimal over every cut placement."""
        ops = build_chain(dims)
        expected = brute_force_chain_total(ops, buffer_elems)
        if expected is None:
            with pytest.raises(ValueError, match="no feasible plan"):
                optimize_chain(ops, buffer_elems, max_group=len(ops))
            return
        segments = optimize_chain(ops, buffer_elems, max_group=len(ops))
        total = sum(segment.memory_access for segment in segments)
        assert total == expected

    @given(
        st.lists(
            st.tuples(
                st.integers(2, 10), st.integers(2, 10), st.integers(2, 10)
            ),
            min_size=2,
            max_size=4,
        ),
        st.integers(64, 4096),
    )
    @settings(max_examples=30, deadline=None)
    def test_dp_no_worse_than_unfused(self, dims, buffer_elems):
        ops = build_chain(dims)
        solo = 0
        for op in ops:
            result = segment_cost((op,), buffer_elems)
            if result is None:
                return  # some op does not fit at all
            solo += result.memory_access
        segments = optimize_chain(ops, buffer_elems, max_group=len(ops))
        assert sum(s.memory_access for s in segments) <= solo


class TestDagPlanProperty:
    @given(
        st.sampled_from([join_graph, fanout_graph, diamond_graph]),
        st.integers(4, 48),
        st.integers(256, 1 << 15),
    )
    @settings(max_examples=40, deadline=None)
    def test_dag_plan_never_worse_than_chain_plan(
        self, builder, dim, buffer_elems
    ):
        """The issue's second property, on branch/join/diamond graphs."""
        graph, _ = builder(dim)
        try:
            chain_total = optimize_graph(graph, buffer_elems).memory_access
        except ValueError:
            return  # chain-infeasible: nothing to compare against
        plan = plan_dag(graph, buffer_elems)
        assert plan.memory_access <= chain_total

    @given(st.integers(256, 1 << 15))
    @settings(max_examples=20, deadline=None)
    def test_dag_plan_on_scenarios(self, buffer_elems):
        for name in ("attention", "training-backward"):
            graph = scenario_graph(name)
            try:
                chain_total = optimize_graph(graph, buffer_elems).memory_access
            except ValueError:
                continue
            plan = plan_dag(graph, buffer_elems)
            assert plan.memory_access <= chain_total
            assert plan.memory_access >= graph.ideal_memory_access()

    def test_plan_total_is_sum_of_segments(self):
        graph, _ = fanout_graph()
        plan = plan_dag(graph, 4096)
        assert isinstance(plan, DagPlan)
        assert plan.memory_access == sum(
            s.memory_access for s in plan.segments
        )
        for segment in plan.segments:
            assert segment.memory_access == (
                segment.raw_memory_access - segment.elided_access
            )
            assert segment.memory_access >= 0
