"""Analytical models of the five evaluated platforms (paper Table III).

========  ================ =========== ============
platform  stationary flex.  tiling flex. tensor fusion
========  ================ =========== ============
TPUv4i    no (WS only)      low          no
Gemmini   yes               low          no
Planaria  no (WS only)      high         no
UnfCU     yes               middle       no
FuseCU    yes               middle       yes
========  ================ =========== ============

All platforms share the paper's compute envelope (128 x 128 x 4 PEs,
1 TB/s on-chip bandwidth) and "undergo our optimization process to select
the best dataflow within their supported spaces" (Sec. V-A).  The supported
spaces are modeled as:

* **stationary flexibility** -- inflexible platforms must keep the weight
  operand (the second input) non-redundant/PE-resident; flexible platforms
  may pick any operand.
* **tiling flexibility** -- ``low`` restricts buffer tiles to squares (the
  classic fixed systolic tiling, no untiled dimensions, Single-NRA only);
  ``middle``/``high`` open the full tiling space of the principles.  At the
  mapping level, ``low`` offers only the native 128x128 array; ``middle``
  adds FuseCU/UnfCU's CU recombinations (square/narrow/wide up to 2N);
  ``high`` is Planaria's pod fission (many aspect ratios).
* **fusion** -- FuseCU alone runs the graph-level fusion planner.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Tuple

# ``plan.plan_dag`` resolves through the package at call time, so a tracer
# that patches ``repro.plan.plan_dag`` sees FuseCU/UnfCU's plans too.
from .. import plan
from ..ir.graph import OperatorGraph
from ..ir.operator import TensorOperator
from ..dataflow.cost import (
    MemoryAccessReport,
    PartialSumConvention,
    memory_access,
)
from ..dataflow.mapping import ArrayShape
from ..dataflow.scheduling import stationary_schedule
from ..dataflow.spec import Dataflow
from ..dataflow.tiling import Tiling
from ..core.fusion import FusedResult, FusionMedium
from ..core.nra import (
    NRACandidate,
    TileConstraint,
    all_candidates,
    is_mm_like,
    is_streaming,
    streaming_dataflow,
)
from ..workloads import ModelConfig, build_layer_graph, layer_count
from .energy import EnergyModel, EnergyReport, energy_of
from .memory import MemorySpec, PAPER_DEFAULT_MEMORY
from .perf import (
    PlatformPerf,
    SegmentPerf,
    matmul_segment_perf,
    spatial_efficiency,
    streaming_segment_perf,
)


class TilingFlex(Enum):
    """Tiling-flexibility classes of paper Table III."""

    LOW = "low"
    MIDDLE = "middle"
    HIGH = "high"


@dataclass(frozen=True)
class AcceleratorSpec:
    """A platform's dataflow space and physical geometry."""

    name: str
    stationary_flexible: bool
    tiling: TilingFlex
    fusion: bool
    shapes: Tuple[ArrayShape, ...]
    total_pes: int = 128 * 128 * 4
    memory: MemorySpec = PAPER_DEFAULT_MEMORY

    def with_memory(self, memory: MemorySpec) -> "AcceleratorSpec":
        return AcceleratorSpec(
            name=self.name,
            stationary_flexible=self.stationary_flexible,
            tiling=self.tiling,
            fusion=self.fusion,
            shapes=self.shapes,
            total_pes=self.total_pes,
            memory=memory,
        )

    def attributes(self) -> Dict[str, str]:
        """Table III row for this platform."""
        return {
            "Platform": self.name,
            "Stationary Flex.": "yes" if self.stationary_flexible else "no",
            "Tiling Flex.": self.tiling.value,
            "Tensor Fusion": "yes" if self.fusion else "no",
        }


def _fixed_shapes() -> Tuple[ArrayShape, ...]:
    return (ArrayShape(128, 128),)


def _fusecu_shapes() -> Tuple[ArrayShape, ...]:
    return (
        ArrayShape(128, 128),
        ArrayShape(256, 128),
        ArrayShape(128, 256),
        ArrayShape(256, 256),
    )


def _planaria_shapes() -> Tuple[ArrayShape, ...]:
    rows = (16, 32, 64, 128, 256, 512, 1024)
    return tuple(ArrayShape(r, 16384 // r) for r in rows)


def tpuv4i(memory: MemorySpec = PAPER_DEFAULT_MEMORY) -> AcceleratorSpec:
    """TPUv4i [5]: fixed weight-stationary 128x128 MXUs."""
    return AcceleratorSpec(
        name="TPUv4i",
        stationary_flexible=False,
        tiling=TilingFlex.LOW,
        fusion=False,
        shapes=_fixed_shapes(),
        memory=memory,
    )


def gemmini(memory: MemorySpec = PAPER_DEFAULT_MEMORY) -> AcceleratorSpec:
    """Gemmini [16]: per-PE stationary flexibility, fixed square tiling."""
    return AcceleratorSpec(
        name="Gemmini",
        stationary_flexible=True,
        tiling=TilingFlex.LOW,
        fusion=False,
        shapes=_fixed_shapes(),
        memory=memory,
    )


def planaria(memory: MemorySpec = PAPER_DEFAULT_MEMORY) -> AcceleratorSpec:
    """Planaria [17]: weight-stationary pods with fission (flexible shapes)."""
    return AcceleratorSpec(
        name="Planaria",
        stationary_flexible=False,
        tiling=TilingFlex.HIGH,
        fusion=False,
        shapes=_planaria_shapes(),
        memory=memory,
    )


def unfcu(memory: MemorySpec = PAPER_DEFAULT_MEMORY) -> AcceleratorSpec:
    """UnfCU: FuseCU's flexibility without tensor fusion (paper ablation)."""
    return AcceleratorSpec(
        name="UnfCU",
        stationary_flexible=True,
        tiling=TilingFlex.MIDDLE,
        fusion=False,
        shapes=_fusecu_shapes(),
        memory=memory,
    )


def fusecu(memory: MemorySpec = PAPER_DEFAULT_MEMORY) -> AcceleratorSpec:
    """FuseCU: XS PEs + CU recombination + tensor operator fusion."""
    return AcceleratorSpec(
        name="FuseCU",
        stationary_flexible=True,
        tiling=TilingFlex.MIDDLE,
        fusion=True,
        shapes=_fusecu_shapes(),
        memory=memory,
    )


ALL_PLATFORMS = (tpuv4i, gemmini, planaria, unfcu, fusecu)


# ----------------------------------------------------------------------
# Constrained dataflow selection
# ----------------------------------------------------------------------
def weight_tensor(operator: TensorOperator) -> TensorOperator:
    """The operand treated as "weights" by stationary-inflexible designs.

    By convention the second input: the parameter matrix of projections and
    FFNs, and the loaded-side operand of activation-activation products.
    """

    if len(operator.inputs) < 2:
        raise ValueError(f"operator {operator.name!r} has no weight operand")
    return operator.inputs[1]


def single_nra_square(
    operator: TensorOperator, stationary: str, buffer_elems: int
) -> Optional[Dataflow]:
    """Single-NRA with a *square* stationary tile (low tiling flexibility)."""
    dim_x, dim_y = operator.dims_of(stationary)
    remaining = [d for d in operator.dim_names if d not in (dim_x, dim_y)]
    if len(remaining) != 1:
        return None
    dim_z = remaining[0]
    # Square constraint: both stationary tile dims share one edge length,
    # clamped to each dim's extent but never grown asymmetrically past the
    # square edge -- that asymmetric growth is exactly what low-flexibility
    # designs lack.
    upper = min(operator.dims[dim_x], operator.dims[dim_y])
    constraint = TileConstraint.from_footprint(
        [operator.dims_of(tensor.name) for tensor in operator.tensors],
        {dim_z: 1},
        dim_x,
        dim_y,
        buffer_elems,
    )
    edge = constraint.max_balanced(upper, upper)
    if edge is None:
        return None
    tiling = Tiling({dim_x: edge, dim_y: edge, dim_z: 1})
    return Dataflow(tiling, stationary_schedule(operator, stationary))


def constrained_intra(
    operator: TensorOperator,
    spec: AcceleratorSpec,
    convention: PartialSumConvention = PartialSumConvention.SINGLE,
):
    """Best intra-operator dataflow within a platform's supported space.

    Returns ``(dataflow, report, label)``.
    """

    buffer_elems = spec.memory.buffer_elems
    if is_streaming(operator):
        dataflow = streaming_dataflow(operator)
        return dataflow, memory_access(operator, dataflow, convention), "streaming"
    if not is_mm_like(operator):
        raise ValueError(f"operator {operator.name!r} unsupported")
    weight_name = weight_tensor(operator).name
    # Each option is counted once; the weight check reuses that report.
    options: List[Tuple[Dataflow, MemoryAccessReport, str]] = []
    if spec.tiling is TilingFlex.LOW:
        stationaries = (
            [tensor.name for tensor in operator.tensors]
            if spec.stationary_flexible
            else [weight_name]
        )
        for stationary in stationaries:
            dataflow = single_nra_square(operator, stationary, buffer_elems)
            if dataflow is not None:
                label = f"single-square[{stationary}]"
                report = memory_access(operator, dataflow, convention)
                options.append((dataflow, report, label))
    else:
        for candidate in all_candidates(operator, buffer_elems):
            report = memory_access(operator, candidate.dataflow, convention)
            if (
                spec.stationary_flexible
                or report.per_tensor[weight_name].multiplier == 1
            ):
                options.append((candidate.dataflow, report, candidate.label))
    if not options:
        raise ValueError(
            f"{spec.name} has no feasible dataflow for {operator.name!r} "
            f"(buffer {buffer_elems} elements)"
        )
    # min() keeps the first of equal totals.
    return min(options, key=lambda option: option[1].total)


# ----------------------------------------------------------------------
# Graph evaluation
# ----------------------------------------------------------------------
def _mm_mapping_dims(
    operator: TensorOperator, spec: AcceleratorSpec
) -> Tuple[Tuple[int, int], int]:
    """(stationary-dims extents, streaming extent) for mapping an MM.

    Inflexible platforms park the weight operand in the PEs; flexible ones
    pick the operand whose dims best cover the available shapes.
    """

    def dims_of(tensor_name: str) -> Tuple[int, int]:
        dims = operator.dims_of(tensor_name)
        return (operator.dims[dims[0]], operator.dims[dims[1]])

    if not spec.stationary_flexible:
        resident = weight_tensor(operator).name
    else:
        resident = max(
            (tensor.name for tensor in operator.tensors),
            key=lambda name: spatial_efficiency(dims_of(name), spec.shapes)[1],
        )
    resident_dims = set(operator.dims_of(resident))
    stream_dim = next(d for d in operator.dim_names if d not in resident_dims)
    return dims_of(resident), operator.dims[stream_dim]


def _operator_perf(
    operator: TensorOperator, ma_elems: int, spec: AcceleratorSpec
) -> SegmentPerf:
    """Timing of one operator run alone with ``ma_elems`` accesses."""
    if is_streaming(operator):
        return streaming_segment_perf(
            name=operator.name,
            points=operator.macs,
            ma_elems=ma_elems,
            total_pes=spec.total_pes,
            memory=spec.memory,
        )
    stationary_dims, stream_len = _mm_mapping_dims(operator, spec)
    return matmul_segment_perf(
        name=operator.name,
        macs=operator.macs,
        ma_elems=ma_elems,
        stationary_dims=stationary_dims,
        stream_len=stream_len,
        shapes=spec.shapes,
        total_pes=spec.total_pes,
        memory=spec.memory,
    )


def _segment_perf(
    segment: plan.PlanSegment, spec: AcceleratorSpec
) -> SegmentPerf:
    ops = segment.ops
    if len(ops) == 1:
        return _operator_perf(ops[0], segment.memory_access, spec)
    # Fused group: the intermediate tensor tile is the PE-resident tile
    # (tile fusion) or the moving tile between halves (column fusion); both
    # map the intermediate's dims across the group, and the private dims
    # stream through the pipelined passes.
    result = segment.result
    assert isinstance(result, FusedResult)
    chain = result.chain
    intermediate = chain.intermediates()[0]
    stationary_dims = (intermediate.shape[0], intermediate.shape[1])
    common = set(chain.common_dims)
    private_extents = [
        extent
        for dim, extent in chain.global_dims.items()
        if dim not in common
    ]
    stream_len = max(private_extents) if private_extents else 1
    return matmul_segment_perf(
        name="+".join(op.name for op in ops),
        macs=sum(op.macs for op in ops),
        ma_elems=segment.memory_access,
        stationary_dims=stationary_dims,
        stream_len=stream_len,
        shapes=spec.shapes,
        total_pes=spec.total_pes,
        memory=spec.memory,
    )


def evaluate_graph(
    graph: OperatorGraph,
    spec: AcceleratorSpec,
    convention: PartialSumConvention = PartialSumConvention.SINGLE,
) -> PlatformPerf:
    """Run a workload graph through a platform's dataflow space.

    FuseCU and UnfCU use the graph planner directly (with and without
    fusion, no retention); constrained platforms optimize each operator
    within their restricted candidate sets.
    """

    buffer_elems = spec.memory.buffer_elems
    segments: List[SegmentPerf] = []
    if spec.tiling is TilingFlex.MIDDLE and spec.stationary_flexible:
        graph_plan = plan.plan_dag(
            graph,
            buffer_elems,
            enable_fusion=spec.fusion,
            convention=convention,
            # FuseCU fuses on the compute unit (paper Table I): the
            # intermediate tile may live in the PE accumulators instead of
            # the buffer; BEST takes the better medium per pattern.
            medium=FusionMedium.BEST,
            register_elems=spec.total_pes,
            enable_retention=False,
        )
        for segment in graph_plan.segments:
            segments.append(_segment_perf(segment, spec))
    else:
        for operator in graph.topological_order():
            _dataflow, report, _label = constrained_intra(
                operator, spec, convention
            )
            segments.append(_operator_perf(operator, report.total, spec))
    return PlatformPerf(
        platform=spec.name,
        workload=graph.name,
        segments=tuple(segments),
        total_pes=spec.total_pes,
    )


# ----------------------------------------------------------------------
# Whole-model totals
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ModelTotals:
    """End-to-end (all-layer) totals for one model on one platform."""

    model: str
    platform: str
    layers: int
    layer_perf: PlatformPerf

    @property
    def total_memory_access(self) -> int:
        return self.layer_perf.total_memory_access * self.layers

    @property
    def total_cycles(self) -> float:
        return self.layer_perf.total_cycles * self.layers

    @property
    def total_macs(self) -> int:
        return self.layer_perf.total_macs * self.layers

    @property
    def latency_ms(self) -> float:
        """End-to-end latency at 1 GHz (the evaluation clock)."""
        return self.total_cycles / 1e6

    def energy(self, model: EnergyModel = EnergyModel()) -> EnergyReport:
        """All-layer energy decomposition."""
        layer_energy = energy_of(self.layer_perf, model)
        return EnergyReport(
            platform=self.platform,
            workload=f"{self.model} x{self.layers}",
            dram_pj=layer_energy.dram_pj * self.layers,
            buffer_pj=layer_energy.buffer_pj * self.layers,
            compute_pj=layer_energy.compute_pj * self.layers,
        )


def evaluate_model(
    model: ModelConfig,
    spec: AcceleratorSpec,
    layers: int = 0,
) -> ModelTotals:
    """End-to-end totals: one optimized layer scaled by the model's depth.

    The depth defaults to :func:`repro.workloads.layer_count`.
    """
    return ModelTotals(
        model=model.name,
        platform=spec.name,
        layers=layers or layer_count(model),
        layer_perf=evaluate_graph(build_layer_graph(model), spec),
    )
