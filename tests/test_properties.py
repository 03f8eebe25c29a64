"""Cross-module property tests (hypothesis-heavy invariants).

These tie the library's pieces together with randomized checks that would
each falsify a paper claim if they ever failed:

* the principle optimum is a true lower bound over the modeled space
  (never beaten by any random feasible dataflow);
* fusing never increases the infinite-buffer floor, and fused MA is
  bounded below by the fused ideal;
* regimes, curves, and inverse queries are mutually consistent;
* the functional array agrees with numpy on random fused chains.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import mm_ops
from repro.arch import FuseCUArray, FuseCUConfig
from repro.core import (
    InfeasibleError,
    classify_buffer,
    decide_fusion,
    intra_lower_bound,
    minimal_buffer_for_ideal,
    optimize_fused,
    optimize_intra,
)
from repro.dataflow import (
    Dataflow,
    FusedChain,
    Schedule,
    Tiling,
    fits_buffer,
    memory_access,
)
from repro.ir import matmul


class TestLowerBoundProperty:
    @given(mm_ops(min_dim=3, max_dim=48), st.integers(16, 8000), st.data())
    @settings(max_examples=60, deadline=None)
    def test_no_random_dataflow_beats_principles(self, op, budget, data):
        """Any feasible random (tiling, order) point is >= the principle MA."""
        tiles = {
            dim: data.draw(st.integers(1, extent), label=dim)
            for dim, extent in op.dims.items()
        }
        order = tuple(data.draw(st.permutations(list(op.dims)), label="order"))
        dataflow = Dataflow(Tiling(tiles), Schedule(order))
        if not fits_buffer(op, dataflow, budget):
            return
        random_ma = memory_access(op, dataflow).total
        principled = optimize_intra(op, budget).memory_access
        assert principled <= random_ma

    @given(mm_ops(min_dim=3, max_dim=48), st.integers(16, 8000))
    @settings(max_examples=60, deadline=None)
    def test_bounds_sandwich(self, op, budget):
        """ideal <= principle MA <= the trivial all-ones dataflow MA."""
        try:
            principled = optimize_intra(op, budget).memory_access
        except InfeasibleError:
            return
        assert principled >= op.ideal_memory_access()
        trivial = memory_access(
            op,
            Dataflow(
                Tiling({d: 1 for d in op.dims}), Schedule(tuple(op.dims))
            ),
        ).total
        assert principled <= trivial


class TestRegimeCurveConsistency:
    @given(mm_ops(min_dim=4, max_dim=48))
    @settings(max_examples=30, deadline=None)
    def test_ideal_reached_exactly_from_threshold(self, op):
        minimal = minimal_buffer_for_ideal(op)
        assert intra_lower_bound(op, minimal) == op.ideal_memory_access()
        if minimal > 1:
            assert intra_lower_bound(op, minimal - 1) > op.ideal_memory_access()

    @given(mm_ops(min_dim=4, max_dim=48))
    @settings(max_examples=30, deadline=None)
    def test_large_regime_buffer_achieves_ideal_with_margin(self, op):
        """Comfortably inside the large regime the bound is the ideal."""
        buffer_elems = 2 * sum(t.size for t in op.tensors)
        assert classify_buffer(op, buffer_elems).regime.value == "large"
        assert intra_lower_bound(op, buffer_elems) == op.ideal_memory_access()


class TestFusionProperties:
    @given(
        st.integers(4, 32),
        st.integers(4, 32),
        st.integers(4, 32),
        st.integers(4, 32),
        st.integers(100, 20000),
    )
    @settings(max_examples=40, deadline=None)
    def test_fused_ma_at_least_fused_ideal(self, m, k, l, n, budget):
        op1 = matmul("mm1", m, k, l)
        op2 = matmul("mm2", m, l, n, a=op1.output)
        chain = FusedChain.from_ops([op1, op2])
        result = optimize_fused([op1, op2], budget)
        if result is None:
            return
        assert result.memory_access >= chain.ideal_memory_access()

    @given(
        st.integers(4, 32),
        st.integers(4, 32),
        st.integers(4, 32),
        st.integers(4, 32),
    )
    @settings(max_examples=30, deadline=None)
    def test_fusion_decision_consistent(self, m, k, l, n):
        """The decision's profitable flag matches its own numbers."""
        op1 = matmul("mm1", m, k, l)
        op2 = matmul("mm2", m, l, n, a=op1.output)
        decision = decide_fusion([op1, op2], 5000)
        if decision.fused is None:
            assert not decision.profitable
        else:
            assert decision.profitable == (
                decision.fused.memory_access < decision.unfused_memory_access
            )

    @given(st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None)
    def test_functional_fused_chain_random(self, seed):
        rng = np.random.default_rng(seed)
        m, k, l, n = rng.integers(2, 14, size=4)
        a = rng.normal(size=(m, k))
        b = rng.normal(size=(k, l))
        d = rng.normal(size=(l, n))
        fusecu = FuseCUArray(FuseCUConfig(n=16))
        for runner in (fusecu.tile_fusion, fusecu.column_fusion):
            run = runner(a, b, d)
            assert np.allclose(run.result, (a @ b) @ d)
            assert run.intermediate_traffic == 0


class TestRandomGraphs:
    """Fuzz the graph planner with randomized chain topologies."""

    @given(st.data())
    @settings(max_examples=20, deadline=None)
    def test_random_chain_plans_are_sound(self, data):
        from repro.plan import optimize_graph
        from repro.ir import OperatorGraph

        length = data.draw(st.integers(1, 4), label="length")
        dims = [data.draw(st.integers(4, 24), label=f"d{i}") for i in range(length + 2)]
        graph = OperatorGraph("fuzz")
        previous = None
        for index in range(length):
            m, k, l = dims[0], dims[index], dims[index + 1]
            if previous is None:
                op = matmul(f"op{index}", m, k, l)
            else:
                op = matmul(f"op{index}", m, k, l, a=previous.output)
            graph.add(op)
            previous = op
        budget = data.draw(st.integers(64, 8000), label="budget")
        plan = optimize_graph(graph, budget)
        planned = sorted(op.name for s in plan.segments for op in s.ops)
        assert planned == sorted(op.name for op in graph)
        assert plan.memory_access >= graph.ideal_memory_access()
        unfused = optimize_graph(graph, budget, enable_fusion=False)
        assert plan.memory_access <= unfused.memory_access
