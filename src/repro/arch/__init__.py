"""Architecture substrate: functional simulators and analytical models.

* :mod:`repro.arch.pe` / :mod:`repro.arch.systolic` / :mod:`repro.arch.fusecu`
  -- register-accurate functional models of the XS PE, systolic arrays and
  the FuseCU fusion mappings (the RTL stand-in).
* :mod:`repro.arch.memory` / :mod:`repro.arch.perf` -- the memory system and
  first-order cycle/utilization model.
* :mod:`repro.arch.accelerators` -- the five evaluated platforms and their
  dataflow spaces (paper Table III), a layer graph's timing on each
  (:func:`evaluate_graph`), and whole-model totals (:func:`evaluate_model`).
* :mod:`repro.arch.area` -- the gate-level area model (paper Fig. 12).
"""

from .memory import KIB, MIB, MemorySpec, PAPER_BUFFER_SWEEP_BYTES, PAPER_DEFAULT_MEMORY
from .pe import PEMode, PEOutputs, XSPE
from .systolic import RunStats, SystolicArray
from .fusecu import FuseCUArray, FuseCUConfig, FusedRunResult
from .perf import (
    PlatformPerf,
    SegmentPerf,
    fill_efficiency,
    matmul_segment_perf,
    spatial_efficiency,
    streaming_segment_perf,
)
from .accelerators import (
    ALL_PLATFORMS,
    AcceleratorSpec,
    ModelTotals,
    TilingFlex,
    constrained_intra,
    evaluate_graph,
    evaluate_model,
    fusecu,
    gemmini,
    planaria,
    single_nra_square,
    tpuv4i,
    unfcu,
    weight_tensor,
)
from .controller import CUSetting, FuseCUProgram, compile_fused_mapping, compile_intra_mapping
from .execution import ExecutionResult, TrafficCounter, execute_matmul_dataflow, validate_against_analytical
from .fused_execution import (
    FusedExecutionResult,
    execute_fused_pair,
    validate_fused_against_analytical,
)
from .attention_execution import (
    AttentionExecutionResult,
    execute_fused_attention,
    fused_attention_traffic_model,
    reference_attention,
)
from .energy import EnergyModel, EnergyReport, energy_of
from .area import (
    AreaBreakdown,
    AreaComponent,
    fusecu_area,
    gemmini_area,
    planaria_area,
    tpuv4i_area,
    unfcu_area,
)

__all__ = [
    "AttentionExecutionResult",
    "execute_fused_attention",
    "fused_attention_traffic_model",
    "reference_attention",
    "FusedExecutionResult",
    "execute_fused_pair",
    "validate_fused_against_analytical",
    "CUSetting",
    "FuseCUProgram",
    "compile_fused_mapping",
    "compile_intra_mapping",
    "ExecutionResult",
    "TrafficCounter",
    "execute_matmul_dataflow",
    "validate_against_analytical",
    "EnergyModel",
    "EnergyReport",
    "energy_of",
    "KIB",
    "MIB",
    "MemorySpec",
    "PAPER_BUFFER_SWEEP_BYTES",
    "PAPER_DEFAULT_MEMORY",
    "PEMode",
    "PEOutputs",
    "XSPE",
    "RunStats",
    "SystolicArray",
    "FuseCUArray",
    "FuseCUConfig",
    "FusedRunResult",
    "PlatformPerf",
    "SegmentPerf",
    "fill_efficiency",
    "matmul_segment_perf",
    "spatial_efficiency",
    "streaming_segment_perf",
    "ALL_PLATFORMS",
    "AcceleratorSpec",
    "ModelTotals",
    "TilingFlex",
    "constrained_intra",
    "evaluate_graph",
    "evaluate_model",
    "fusecu",
    "gemmini",
    "planaria",
    "single_nra_square",
    "tpuv4i",
    "unfcu",
    "weight_tensor",
    "AreaBreakdown",
    "AreaComponent",
    "fusecu_area",
    "gemmini_area",
    "planaria_area",
    "tpuv4i_area",
    "unfcu_area",
]
