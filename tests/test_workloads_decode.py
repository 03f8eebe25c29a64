"""Tests for the decode-phase workload extension."""

import pytest

from repro.arch import evaluate_graph, fusecu, tpuv4i
from repro.plan import optimize_graph
from repro.workloads import BERT, LLAMA2, build_decode_graph


class TestDecodeGraph:
    def test_structure(self):
        graph = build_decode_graph(LLAMA2, context=2048)
        assert len(graph) == 9
        chain_sets = {tuple(op.name for op in c) for c in graph.chains()}
        assert ("LLaMA2.qk", "LLaMA2.softmax", "LLaMA2.av") in chain_sets

    def test_single_token_attention_shapes(self):
        graph = build_decode_graph(LLAMA2, context=2048)
        qk = graph.operator("LLaMA2.qk")
        assert qk.dims == {"M": 1, "K": 128, "L": 2048}
        av = graph.operator("LLaMA2.av")
        assert av.dims == {"M": 1, "K": 2048, "L": 128}

    def test_invalid_context(self):
        with pytest.raises(ValueError):
            build_decode_graph(LLAMA2, context=0)

    def test_macs_scale_with_context(self):
        short = build_decode_graph(LLAMA2, context=512)
        long = build_decode_graph(LLAMA2, context=8192)
        assert long.macs > short.macs

    def test_projection_macs_context_invariant(self):
        short = build_decode_graph(LLAMA2, context=512)
        long = build_decode_graph(LLAMA2, context=8192)
        assert (
            short.operator("LLaMA2.ffn1").macs
            == long.operator("LLaMA2.ffn1").macs
        )


class TestDecodeOptimization:
    def test_plan_feasible(self):
        graph = build_decode_graph(BERT, context=1024)
        plan = optimize_graph(graph, 512 * 1024)
        assert plan.memory_access >= graph.ideal_memory_access()

    def test_decode_is_memory_bound(self):
        """GEMV-shaped decode work saturates bandwidth, not compute."""
        graph = build_decode_graph(LLAMA2, context=4096)
        perf = evaluate_graph(graph, tpuv4i())
        memory_bound = sum(1 for s in perf.segments if s.memory_bound)
        assert memory_bound >= len(perf.segments) / 2

    def test_fusecu_still_wins_at_decode(self):
        graph = build_decode_graph(LLAMA2, context=4096)
        fused = evaluate_graph(graph, fusecu())
        base = evaluate_graph(graph, tpuv4i())
        assert fused.total_memory_access <= base.total_memory_access

    def test_fusion_saving_smaller_than_prefill(self):
        """Decode intermediates are 1 x context vectors, not S x S
        matrices, so fusion saves relatively less than at prefill."""
        prefill = build_decode_graph(LLAMA2, context=4096)
        fused = optimize_graph(prefill, 512 * 1024).memory_access
        unfused = optimize_graph(
            prefill, 512 * 1024, enable_fusion=False
        ).memory_access
        decode_saving = 1 - fused / unfused

        from repro.workloads import build_layer_graph

        layer = build_layer_graph(LLAMA2)
        fused_p = optimize_graph(layer, 512 * 1024).memory_access
        unfused_p = optimize_graph(
            layer, 512 * 1024, enable_fusion=False
        ).memory_access
        prefill_saving = 1 - fused_p / unfused_p
        assert decode_saving < prefill_saving
