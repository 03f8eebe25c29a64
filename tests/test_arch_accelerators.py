"""Tests for the five platform models and their dataflow spaces."""

import pytest

from repro.arch import (
    ALL_PLATFORMS,
    MemorySpec,
    TilingFlex,
    constrained_intra,
    evaluate_graph,
    fusecu,
    gemmini,
    planaria,
    single_nra_square,
    tpuv4i,
    unfcu,
    weight_tensor,
)
from repro.arch import accelerators
from repro.core import optimize_intra
from repro.core.nra import is_streaming
from repro.dataflow import memory_access
from repro.ir import OperatorGraph, matmul, rowwise_softmax
from repro.workloads import BERT, BLENDERBOT, build_layer_graph


class TestSpecs:
    def test_table3_attributes(self):
        specs = {factory().name: factory() for factory in ALL_PLATFORMS}
        assert not specs["TPUv4i"].stationary_flexible
        assert specs["Gemmini"].stationary_flexible
        assert not specs["Planaria"].stationary_flexible
        assert specs["TPUv4i"].tiling is TilingFlex.LOW
        assert specs["Planaria"].tiling is TilingFlex.HIGH
        assert specs["FuseCU"].tiling is TilingFlex.MIDDLE
        assert specs["FuseCU"].fusion
        assert not specs["UnfCU"].fusion

    def test_same_pe_budget(self):
        """All platforms share the 128x128x4 envelope (fair comparison)."""
        for factory in ALL_PLATFORMS:
            assert factory().total_pes == 128 * 128 * 4

    def test_with_memory(self):
        spec = tpuv4i().with_memory(MemorySpec(buffer_bytes=1024))
        assert spec.memory.buffer_bytes == 1024
        assert spec.name == "TPUv4i"

    def test_weight_tensor_is_second_input(self):
        op = matmul("mm", 4, 5, 6)
        assert weight_tensor(op).name == "mm.B"


class TestSquareSingleNRA:
    def test_square_tiles(self):
        op = matmul("mm", 512, 256, 256)
        dataflow = single_nra_square(op, "mm.B", 10000)
        tiling = dataflow.tiling.for_operator(op)
        assert tiling["K"] == tiling["L"]
        assert tiling["M"] == 1

    def test_edge_capped_at_smaller_dim(self):
        """Low flexibility: the square edge cannot outgrow the skinny dim."""
        op = matmul("mm", 512, 16, 1024)
        dataflow = single_nra_square(op, "mm.B", 10**6)
        tiling = dataflow.tiling.for_operator(op)
        assert tiling["K"] == 16
        assert tiling["L"] == 16

    def test_fits_buffer(self):
        op = matmul("mm", 512, 256, 256)
        for budget in (10, 100, 10000):
            dataflow = single_nra_square(op, "mm.B", budget)
            if dataflow is not None:
                assert dataflow.buffer_footprint(op) <= budget


class TestConstrainedIntra:
    def test_never_beats_principles(self):
        """Every platform space is a subset of the full principle space."""
        op = matmul("mm", 1024, 768, 768)
        optimum = optimize_intra(op, 512 * 1024).memory_access
        for factory in ALL_PLATFORMS:
            _df, report, _label = constrained_intra(op, factory())
            assert report.total >= optimum

    def test_unfcu_matches_principles(self):
        op = matmul("mm", 1024, 768, 768)
        optimum = optimize_intra(op, 512 * 1024).memory_access
        _df, report, _label = constrained_intra(op, unfcu())
        assert report.total == optimum

    def test_tpu_weight_always_non_redundant(self):
        op = matmul("mm", 1024, 768, 768)
        dataflow, report, _ = constrained_intra(op, tpuv4i())
        assert report.per_tensor["mm.B"].multiplier == 1

    def test_planaria_weight_always_non_redundant(self):
        for dims in ((1024, 768, 768), (256, 64, 256), (128, 512, 64)):
            op = matmul("mm", *dims)
            _df, report, _ = constrained_intra(op, planaria())
            assert report.per_tensor["mm.B"].multiplier == 1

    def test_gemmini_at_most_tpu(self):
        """Stationary flexibility only widens the space."""
        for dims in ((1024, 768, 768), (1024, 64, 1024), (512, 2048, 512)):
            op = matmul("mm", *dims)
            _d, tpu_report, _ = constrained_intra(op, tpuv4i())
            _d, gem_report, _ = constrained_intra(op, gemmini())
            assert gem_report.total <= tpu_report.total

    def test_streaming_op_supported_everywhere(self):
        from repro.ir import Tensor

        op = rowwise_softmax("sm", Tensor("x", (64, 64)))
        for factory in ALL_PLATFORMS:
            _df, report, label = constrained_intra(op, factory())
            assert label == "streaming"
            assert report.total == op.ideal_memory_access()

    def test_each_candidate_counted_once(self, monkeypatch):
        """Planaria's weight check reuses the report that ranks a candidate."""
        graph = build_layer_graph(BERT)
        all_candidates = accelerators.all_candidates
        counted, candidates = [], []

        def spy_memory_access(*args, **kwargs):
            counted.append(args[0].name)
            return memory_access(*args, **kwargs)

        def spy_all_candidates(*args):
            found = all_candidates(*args)
            candidates.extend(found)
            return found

        monkeypatch.setattr(accelerators, "memory_access", spy_memory_access)
        monkeypatch.setattr(accelerators, "all_candidates", spy_all_candidates)
        perf = evaluate_graph(graph, planaria(MemorySpec(buffer_bytes=512 * 1024)))
        streaming = sum(is_streaming(op) for op in graph.operators)
        assert len(counted) == len(candidates) + streaming == 77
        # The total the platform served before the recount was dropped.
        assert perf.total_memory_access == 1240203264


class TestEvaluateGraph:
    def small_graph(self):
        graph = OperatorGraph("g")
        qk = graph.add(matmul("qk", 256, 64, 256, count=4))
        sm = graph.add(rowwise_softmax("sm", qk.output, count=4))
        graph.add(matmul("av", 256, 256, 64, a=sm.output, count=4))
        return graph

    def test_platform_ma_ordering(self):
        """The paper's Fig. 10 ordering: FuseCU <= UnfCU <= Planaria and
        Gemmini <= TPUv4i."""
        graph = self.small_graph()
        ma = {
            factory().name: evaluate_graph(graph, factory()).total_memory_access
            for factory in ALL_PLATFORMS
        }
        assert ma["FuseCU"] <= ma["UnfCU"]
        assert ma["UnfCU"] <= ma["Planaria"]
        assert ma["Gemmini"] <= ma["TPUv4i"]

    def test_fusecu_fuses_attention(self):
        graph = self.small_graph()
        perf = evaluate_graph(graph, fusecu())
        names = [segment.name for segment in perf.segments]
        assert any("+" in name for name in names)

    def test_unfused_platforms_keep_ops_separate(self):
        graph = self.small_graph()
        for factory in (tpuv4i, gemmini, planaria, unfcu):
            perf = evaluate_graph(graph, factory())
            assert len(perf.segments) == 3

    def test_macs_identical_across_platforms(self):
        graph = self.small_graph()
        macs = {
            evaluate_graph(graph, factory()).total_macs
            for factory in ALL_PLATFORMS
        }
        assert len(macs) == 1

    def test_full_model_runs(self):
        graph = build_layer_graph(BLENDERBOT)
        perf = evaluate_graph(graph, fusecu())
        assert perf.total_cycles > 0
        assert 0 < perf.utilization <= 1.0


class TestConstrainedIntraProperties:
    """Randomized consistency of the platform-constrained optimizers."""

    def test_space_inclusion_chain(self):
        """TPUv4i space within Gemmini's; Planaria within UnfCU's (all are
        subsets of the full principle space)."""
        import itertools

        shapes = [(1024, 768, 768), (1024, 64, 1024), (256, 2048, 256),
                  (4096, 128, 4096), (96, 96, 96)]
        from repro.core import optimize_intra

        for dims in shapes:
            op = matmul("mm", *dims)
            full = optimize_intra(op, 512 * 1024).memory_access
            tpu = constrained_intra(op, tpuv4i())[1].total
            gem = constrained_intra(op, gemmini())[1].total
            pla = constrained_intra(op, planaria())[1].total
            unf = constrained_intra(op, unfcu())[1].total
            assert gem <= tpu
            assert unf <= pla
            assert full <= min(tpu, gem, pla, unf)
            assert unf == full  # UnfCU is the full intra space

    def test_results_fit_platform_buffer(self):
        for factory in ALL_PLATFORMS:
            spec = factory()
            for dims in ((512, 256, 384), (64, 2048, 64)):
                op = matmul("mm", *dims)
                dataflow, _report, _label = constrained_intra(op, spec)
                assert (
                    dataflow.buffer_footprint(op) <= spec.memory.buffer_elems
                )

    def test_buffer_shrink_never_helps(self):
        """Constrained MA is monotone non-increasing in buffer size."""
        op = matmul("mm", 1024, 768, 768)
        for factory in ALL_PLATFORMS:
            previous = None
            for kb in (32, 128, 512, 2048):
                spec = factory(MemorySpec(buffer_bytes=kb * 1024))
                total = constrained_intra(op, spec)[1].total
                if previous is not None:
                    assert total <= previous
                previous = total
