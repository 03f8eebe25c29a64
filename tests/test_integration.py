"""End-to-end integration tests tying the subsystems together."""

import numpy as np
import pytest

from repro.arch import (
    ALL_PLATFORMS,
    FuseCUArray,
    FuseCUConfig,
    MemorySpec,
    evaluate_graph,
    fusecu,
    tpuv4i,
    unfcu,
)
from repro.core import decide_fusion, intra_lower_bound, optimize_intra
from repro.ir import OperatorGraph, matmul, rowwise_softmax
from repro.plan import optimize_graph, plan_dag
from repro.search import exhaustive_search, genetic_search, GASettings
from repro.workloads import BERT, build_layer_graph


class TestPaperWorkedExample:
    """The full Sec. III-A4 example, end to end."""

    def test_bert_512kb(self):
        op = matmul("bert", 1024, 768, 768)
        result = optimize_intra(op, 512 * 1024)
        # Two-NRA, K untiled, B accessed exactly 2KL, A and C once each.
        assert result.report.per_tensor["bert.B"].accesses == 2 * 768 * 768
        assert result.report.per_tensor["bert.A"].accesses == 1024 * 768
        assert result.report.per_tensor["bert.C"].accesses == 1024 * 768
        # "matches the best dataflow searched using DSE" (paper): search
        # cannot do better.
        searched = exhaustive_search(op, 512 * 1024)
        assert result.memory_access <= searched.memory_access


class TestOneShotVsSearchTiming:
    def test_principles_are_orders_of_magnitude_cheaper(self):
        """The paper's motivation: search costs thousands of evaluations,
        principles a constant handful."""
        op = matmul("mm", 256, 192, 320)
        ga = genetic_search(
            op, 50000, GASettings(population=32, generations=20)
        )
        assert ga.evaluations > 500
        # The principle engine evaluates at most a few dozen candidates
        # (12 configurations x integer refinements).


class TestAttentionEndToEnd:
    def test_fused_plan_beats_unfused_and_respects_bound(self):
        graph = build_layer_graph(BERT)
        buffer_elems = 512 * 1024
        fused = optimize_graph(graph, buffer_elems)
        unfused = optimize_graph(graph, buffer_elems, enable_fusion=False)
        assert fused.memory_access < unfused.memory_access
        assert fused.memory_access >= graph.ideal_memory_access()
        assert fused.memory_access == plan_dag(
            graph, buffer_elems, enable_retention=False
        ).memory_access

    def test_fused_groups_are_attention_and_ffn(self):
        graph = build_layer_graph(BERT)
        plan = optimize_graph(graph, 512 * 1024)
        fused_names = {
            tuple(op.name for op in segment.ops)
            for segment in plan.fused_segments
        }
        assert ("Bert.qk", "Bert.softmax", "Bert.av") in fused_names
        assert ("Bert.ffn1", "Bert.ffn2") in fused_names


class TestPlatformComparison:
    @pytest.fixture(scope="class")
    def perfs(self):
        graph = build_layer_graph(BERT)
        return {
            factory().name: evaluate_graph(graph, factory())
            for factory in ALL_PLATFORMS
        }

    def test_fusecu_lowest_ma(self, perfs):
        fusecu_ma = perfs["FuseCU"].total_memory_access
        assert all(
            fusecu_ma <= perf.total_memory_access
            for name, perf in perfs.items()
            if name != "FuseCU"
        )

    def test_fusecu_fastest(self, perfs):
        fusecu_cycles = perfs["FuseCU"].total_cycles
        assert all(
            fusecu_cycles <= perf.total_cycles
            for name, perf in perfs.items()
            if name != "FuseCU"
        )

    def test_unfcu_captures_intra_share(self, perfs):
        """UnfCU sits between TPUv4i and FuseCU (paper Fig. 10)."""
        assert (
            perfs["FuseCU"].total_memory_access
            < perfs["UnfCU"].total_memory_access
            < perfs["TPUv4i"].total_memory_access
        )

    def test_headline_direction(self, perfs):
        saving = 1 - perfs["FuseCU"].total_memory_access / perfs[
            "TPUv4i"
        ].total_memory_access
        assert 0.3 < saving < 0.95  # paper: 63.6% for the 7-model average
        speedup = perfs["FuseCU"].speedup_over(perfs["TPUv4i"])
        assert 1.0 < speedup < 2.0  # paper: 1.33x average


class TestAnalyticalVsFunctional:
    def test_fusion_decision_realized_on_fusecu_array(self):
        """The analytical planner says fuse; the functional FuseCU array
        executes the fused chain exactly with zero intermediate traffic."""
        op1 = matmul("mm1", 12, 8, 12)
        op2 = matmul("mm2", 12, 12, 8, a=op1.output)
        decision = decide_fusion([op1, op2], 3000)
        assert decision.profitable
        rng = np.random.default_rng(0)
        a = rng.normal(size=(12, 8))
        b = rng.normal(size=(8, 12))
        d = rng.normal(size=(12, 8))
        run = FuseCUArray(FuseCUConfig(n=16)).tile_fusion(a, b, d)
        assert np.allclose(run.result, (a @ b) @ d)
        assert run.intermediate_traffic == 0

    def test_intermediate_saving_matches_intermediate_size(self):
        """Fusion's headline saving is exactly the intermediate round trip
        when both operators run at their unfused optima inside the nest."""
        op1 = matmul("mm1", 32, 16, 32)
        op2 = matmul("mm2", 32, 32, 16, a=op1.output)
        decision = decide_fusion([op1, op2], 10**6)  # everything fits
        c_size = op1.output.size
        saved = decision.unfused_memory_access - decision.fused_memory_access
        assert saved == 2 * c_size  # producer write + consumer read


class TestBufferSweepConsistency:
    def test_lower_bound_convergence(self):
        """MA(BS) converges to the ideal as BS grows, for all workload
        shapes in a BERT layer."""
        from repro.workloads import representative_matmuls

        for op in representative_matmuls(BERT):
            bound = intra_lower_bound(op, 10**9)
            assert bound == op.ideal_memory_access()
