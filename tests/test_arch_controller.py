"""Tests for the FuseCU configuration compiler (Fig. 7 mappings)."""

import pytest

from repro.arch import (
    FuseCUConfig,
    compile_fused_mapping,
    compile_intra_mapping,
)
from repro.arch.controller import MappingError
from repro.arch.pe import PEMode
from repro.core import optimize_fused, optimize_intra, profitable_patterns, solve_pattern
from repro.core.fusion import FusedResult
from repro.dataflow import FusedChain, FusedMappingKind, fused_memory_access
from repro.ir import matmul


def fused_result_for_pattern(label, m=128, k=32, l=128, n=32, buffer_elems=30000):
    op1 = matmul("mm1", m, k, l)
    op2 = matmul("mm2", m, l, n, a=op1.output)
    chain = FusedChain.from_ops([op1, op2])
    pattern = next(p for p in profitable_patterns(chain) if p.label == label)
    dataflow = solve_pattern(chain, pattern, buffer_elems)
    assert dataflow is not None, label
    report = fused_memory_access(chain, dataflow)
    return FusedResult(
        chain=chain,
        pattern=pattern,
        dataflow=dataflow,
        report=report,
    )


class TestIntraCompilation:
    def test_output_stationary_maps_to_os(self):
        op = matmul("mm", 256, 256, 256)
        result = optimize_intra(op, 1000)  # tiny regime: single-NRA
        program = compile_intra_mapping(result)
        modes = {setting.mode for setting in program.cu_settings}
        assert len(modes) == 1
        assert not program.fused

    def test_all_cus_configured(self):
        op = matmul("mm", 256, 256, 256)
        program = compile_intra_mapping(optimize_intra(op, 1000))
        assert len(program.cu_settings) == FuseCUConfig().cus

    def test_shape_selected_for_utilization(self):
        """A 64-wide stationary tensor picks a shape covering its aspect."""
        op = matmul("mm", 1024, 64, 1024)
        result = optimize_intra(op, 512 * 1024)
        program = compile_intra_mapping(result, FuseCUConfig(n=128))
        assert program.utilization > 0


class TestFusedCompilation:
    def test_tile_like_pattern_compiles_to_tile_fusion(self):
        result = fused_result_for_pattern("single-osis")
        program = compile_fused_mapping(result, FuseCUConfig(n=128))
        assert program.kind is FusedMappingKind.TILE_FUSION
        assert all(s.mode is PEMode.OS for s in program.cu_settings)

    def test_column_like_pattern_compiles_to_column_fusion(self):
        result = fused_result_for_pattern("two-osis[M]")
        program = compile_fused_mapping(result, FuseCUConfig(n=128))
        assert program.kind is FusedMappingKind.COLUMN_FUSION
        producer = [s for s in program.cu_settings if s.mode is PEMode.IS]
        consumer = [s for s in program.cu_settings if s.mode is PEMode.OS]
        assert producer and consumer
        assert all(s.forward_result for s in producer)
        assert program.connections

    def test_two_untile_is_tile_fusion(self):
        """Fig. 4(c): untiled-L with maximized M is tile-like."""
        result = fused_result_for_pattern("two-untile[L]")
        program = compile_fused_mapping(result, FuseCUConfig(n=128))
        assert program.kind is FusedMappingKind.TILE_FUSION

    def test_three_untile_is_column_fusion(self):
        """Fig. 4(d): untiled-L with minimized M is column-like."""
        result = fused_result_for_pattern(
            "three-untile[L]", buffer_elems=50000
        )
        program = compile_fused_mapping(result, FuseCUConfig(n=128))
        assert program.kind is FusedMappingKind.COLUMN_FUSION

    def test_2n_bound_enforced(self):
        """An untiled spatial dim beyond 2N is rejected (Sec. IV-B)."""
        result = fused_result_for_pattern(
            "three-resident", m=96, l=96, buffer_elems=50000
        )
        compile_fused_mapping(result, FuseCUConfig(n=64))  # 96 <= 128: fine
        with pytest.raises(MappingError, match="2N"):
            compile_fused_mapping(result, FuseCUConfig(n=32))  # 96 > 64

    def test_end_to_end_with_optimizer(self):
        op1 = matmul("mm1", 256, 64, 256)
        op2 = matmul("mm2", 256, 256, 64, a=op1.output)
        result = optimize_fused([op1, op2], 512 * 1024)
        program = compile_fused_mapping(result, FuseCUConfig(n=128))
        assert program.fused
        assert program.description
