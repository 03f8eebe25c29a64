"""Tests for whole-model totals and the MoE extension workload."""

import pytest

from repro.arch import evaluate_model, fusecu, tpuv4i
from repro.plan import optimize_graph
from repro.workloads import (
    BERT,
    LLAMA2,
    MODEL_LAYERS,
    PAPER_MODELS,
    build_layer_graph,
    build_moe_ffn_graph,
    layer_count,
)


class TestFullModel:
    def test_layer_counts_known_for_paper_models(self):
        for model in PAPER_MODELS:
            assert model.name in MODEL_LAYERS
            assert layer_count(model) >= 1

    def test_totals_scale_by_layers(self):
        totals = evaluate_model(BERT, fusecu())
        assert totals.layers == 12
        assert (
            totals.total_memory_access
            == 12 * totals.layer_perf.total_memory_access
        )
        assert totals.total_cycles == 12 * totals.layer_perf.total_cycles

    def test_layer_override(self):
        totals = evaluate_model(BERT, fusecu(), layers=3)
        assert totals.layers == 3

    def test_latency_unit(self):
        totals = evaluate_model(BERT, fusecu())
        assert totals.latency_ms == pytest.approx(totals.total_cycles / 1e6)

    def test_energy_scales(self):
        totals = evaluate_model(BERT, fusecu())
        per_layer = totals.energy().total_pj / totals.layers
        single = evaluate_model(BERT, fusecu(), layers=1).energy().total_pj
        assert per_layer == pytest.approx(single)

    def test_speedup_preserved_end_to_end(self):
        """Layer scaling cancels in ratios: end-to-end speedup equals the
        per-layer speedup."""
        fast = evaluate_model(LLAMA2, fusecu())
        slow = evaluate_model(LLAMA2, tpuv4i())
        assert fast.total_cycles / slow.total_cycles == pytest.approx(
            fast.layer_perf.total_cycles / slow.layer_perf.total_cycles
        )


class TestMoE:
    def test_structure(self):
        graph = build_moe_ffn_graph(BERT, num_experts=8, top_k=2)
        assert len(graph) == 3
        chains = {tuple(op.name for op in c) for c in graph.chains()}
        assert ("Bert.expert_ffn1", "Bert.expert_ffn2") in chains

    def test_expert_count_multiplier(self):
        graph = build_moe_ffn_graph(BERT, num_experts=8, top_k=2)
        ffn1 = graph.operator("Bert.expert_ffn1")
        assert ffn1.count == 8
        # Balanced routing: each expert sees tokens * top_k / experts.
        assert ffn1.dims["M"] == BERT.batch * BERT.seq_len * 2 // 8

    def test_macs_scale_with_top_k(self):
        dense_tokens = BERT.batch * BERT.seq_len
        graph = build_moe_ffn_graph(BERT, num_experts=8, top_k=2)
        expert_macs = (
            graph.operator("Bert.expert_ffn1").macs
            + graph.operator("Bert.expert_ffn2").macs
        )
        dense_macs = 2 * dense_tokens * BERT.hidden * BERT.ffn_hidden
        assert expert_macs == pytest.approx(2 * dense_macs / 8 * 8, rel=0.01)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            build_moe_ffn_graph(BERT, num_experts=4, top_k=5)
        with pytest.raises(ValueError):
            build_moe_ffn_graph(BERT, num_experts=0)

    def test_expert_chains_fuse(self):
        graph = build_moe_ffn_graph(BERT, num_experts=8, top_k=2)
        plan = optimize_graph(graph, 512 * 1024)
        fused = {tuple(op.name for op in s.ops) for s in plan.fused_segments}
        assert ("Bert.expert_ffn1", "Bert.expert_ffn2") in fused

    def test_moe_macs_are_top_k_times_dense(self):
        """Each token runs top_k full-width expert FFNs, so the block's
        MACs are exactly top_k x the dense FFN's (the MoE saving is per
        unit of *capacity*, 8x parameters here, not per token)."""
        moe = build_moe_ffn_graph(BERT, num_experts=8, top_k=2)
        dense = build_layer_graph(BERT)
        dense_ffn_macs = (
            dense.operator("Bert.ffn1").macs + dense.operator("Bert.ffn2").macs
        )
        moe_ffn_macs = (
            moe.operator("Bert.expert_ffn1").macs
            + moe.operator("Bert.expert_ffn2").macs
        )
        assert moe_ffn_macs == 2 * dense_ffn_macs
