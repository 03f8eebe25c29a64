"""Fused multi-operator loop nests (paper Sec. III-B, Fig. 4).

Operator fusion executes a chain of operators under *shared* outer loops so
the intermediate tensors never travel to memory.  This module provides:

* :class:`FusedChain` -- a linear producer/consumer chain with its loop
  dimensions unified into a global namespace (the consumer's dims that index
  an intermediate tensor are identified with the producer's dims for the
  same tensor, e.g. MM2's reduction dim *is* MM1's ``L``).
* :class:`FusedDataflow` -- shared outer loop order + per-operator private
  inner loops + a global tiling.
* :func:`fused_memory_access` -- the same reuse-rule access counter as
  :func:`repro.dataflow.cost.memory_access`, applied per operator over
  (shared loops restricted to its dims) + (its private loops), with
  intermediate-tensor traffic elided.

Fusability (paper Sec. III-B1): a fused dataflow is only valid when every
intermediate tensor is accessed *non-redundantly* (multiplier 1) in both its
producer's and consumer's nest -- redundant access would require the
intermediate to round-trip through memory, which fusion forbids.  The three
mechanisms the paper lists (make it stationary / untile one of its dims /
keep it entirely in buffer) are exactly the three ways a tensor's multiplier
becomes 1 under the reuse rule, so the check below covers all of Fig. 4.

Shared loops are restricted to dimensions common to **every** operator in
the chain.  For a pair of matrix multiplications those are precisely the
intermediate tensor's dimensions (M and L for ``A x B = C``, ``C x D = E``),
which spans all the paper's fusion patterns; the restriction also rules out
recomputation (an operator re-executing under a loop over a dimension it
does not have), keeping MAC counts identical to the unfused graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..ir.loopnest import LoopNest, TiledLoop
from ..ir.operator import TensorOperator
from ..ir.tensor import Tensor
from .cost import PartialSumConvention, TensorAccess, reuse_multiplier
from .spec import NRAClass
from .tiling import Tiling


class FusionError(ValueError):
    """Raised for malformed fused chains or fused dataflows."""


@dataclass(frozen=True)
class FusedChain:
    """A linear chain of operators with unified loop dimensions.

    Build with :meth:`from_ops`.  ``dim_maps[i]`` maps operator ``i``'s local
    dim names to global names; ``global_dims`` maps global names to extents.
    """

    ops: Tuple[TensorOperator, ...]
    dim_maps: Tuple[Mapping[str, str], ...]
    global_dims: Mapping[str, int]

    # ------------------------------------------------------------------
    @classmethod
    def from_ops(cls, ops: Sequence[TensorOperator]) -> "FusedChain":
        ops = tuple(ops)
        if not ops:
            raise FusionError("fused chain needs at least one operator")
        counts = {op.count for op in ops}
        if len(counts) != 1:
            raise FusionError(
                "fused operators must share the same repetition count; got "
                f"{sorted(counts)}"
            )
        names = [op.name for op in ops]
        if len(set(names)) != len(names):
            raise FusionError(f"duplicate operator names in chain: {names}")
        for producer, consumer in zip(ops, ops[1:]):
            consumed = {tensor.name for tensor in consumer.inputs}
            if producer.output.name not in consumed:
                raise FusionError(
                    f"{consumer.name!r} does not consume {producer.name!r}'s "
                    f"output {producer.output.name!r}; not a chain"
                )

        tensor_axes: Dict[str, Tuple[str, ...]] = {}
        global_dims: Dict[str, int] = {}
        dim_maps: List[Dict[str, str]] = []
        for index, op in enumerate(ops):
            mapping: Dict[str, str] = {}
            for tensor in op.tensors:
                if tensor.name not in tensor_axes:
                    continue
                for local, global_name in zip(
                    op.dims_of(tensor.name), tensor_axes[tensor.name]
                ):
                    bound = mapping.get(local)
                    if bound is not None and bound != global_name:
                        raise FusionError(
                            f"operator {op.name!r}: dim {local!r} binds to both "
                            f"{bound!r} and {global_name!r}"
                        )
                    mapping[local] = global_name
            for local, extent in op.dims.items():
                if local not in mapping:
                    candidate = local
                    if candidate in global_dims:
                        candidate = f"{local}{index}"
                    while candidate in global_dims:
                        candidate += "_"
                    mapping[local] = candidate
                global_name = mapping[local]
                existing = global_dims.get(global_name)
                if existing is not None and existing != extent:
                    raise FusionError(
                        f"dim {global_name!r} has conflicting extents "
                        f"{existing} and {extent}"
                    )
                global_dims[global_name] = extent
            for tensor in op.tensors:
                axes = tuple(mapping[local] for local in op.dims_of(tensor.name))
                known = tensor_axes.get(tensor.name)
                if known is not None and known != axes:
                    raise FusionError(
                        f"tensor {tensor.name!r} bound to axes {known} and {axes}"
                    )
                tensor_axes[tensor.name] = axes
            dim_maps.append(mapping)
        return cls(ops=ops, dim_maps=tuple(dim_maps), global_dims=global_dims)

    def __post_init__(self) -> None:
        object.__setattr__(self, "global_dims", dict(self.global_dims))
        object.__setattr__(
            self, "dim_maps", tuple(dict(mapping) for mapping in self.dim_maps)
        )

    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        return self.ops[0].count

    @property
    def common_dims(self) -> Tuple[str, ...]:
        """Global dims present in every operator (legal shared-loop dims)."""
        common: Optional[Set[str]] = None
        for mapping in self.dim_maps:
            dims = set(mapping.values())
            common = dims if common is None else common & dims
        assert common is not None
        return tuple(dim for dim in self.global_dims if dim in common)

    def op_global_dims(self, index: int) -> Tuple[str, ...]:
        """Global dims of operator ``index`` in its canonical local order."""
        op = self.ops[index]
        mapping = self.dim_maps[index]
        return tuple(mapping[local] for local in op.dim_names)

    def global_dims_of_tensor(self, index: int, tensor_name: str) -> Tuple[str, ...]:
        op = self.ops[index]
        mapping = self.dim_maps[index]
        return tuple(mapping[local] for local in op.dims_of(tensor_name))

    def tensor_axes(self, tensor_name: str) -> Tuple[str, ...]:
        """Global dims indexing ``tensor_name`` (first operator using it)."""
        for index, op in enumerate(self.ops):
            for tensor in op.tensors:
                if tensor.name == tensor_name:
                    return self.global_dims_of_tensor(index, tensor_name)
        raise FusionError(f"chain has no tensor {tensor_name!r}")

    def buffered_axes(self, exclude: Tuple[str, ...] = ()) -> List[Tuple[str, ...]]:
        """Global dims of every distinct tensor not in ``exclude``, once each.

        The index sets whose tile products sum to a fused buffer footprint.
        """

        seen: Set[str] = set(exclude)
        axes: List[Tuple[str, ...]] = []
        for index, op in enumerate(self.ops):
            for tensor in op.tensors:
                if tensor.name not in seen:
                    seen.add(tensor.name)
                    axes.append(self.global_dims_of_tensor(index, tensor.name))
        return axes

    def intermediates(self) -> Tuple[Tensor, ...]:
        """Tensors produced and consumed inside the chain."""
        consumed = {
            tensor.name for op in self.ops for tensor in op.inputs
        }
        return tuple(
            op.output for op in self.ops[:-1] if op.output.name in consumed
        )

    def external_tensors(self) -> Tuple[Tensor, ...]:
        intermediates = {tensor.name for tensor in self.intermediates()}
        seen: Dict[str, Tensor] = {}
        for op in self.ops:
            for tensor in op.tensors:
                if tensor.name not in intermediates:
                    seen.setdefault(tensor.name, tensor)
        return tuple(seen.values())

    @property
    def macs(self) -> int:
        return sum(op.macs for op in self.ops)

    def ideal_memory_access(self) -> int:
        """Fused infinite-buffer ideal: external tensors once each."""
        return self.count * sum(tensor.size for tensor in self.external_tensors())


@dataclass(frozen=True)
class FusedDataflow:
    """Shared outer loops + per-operator private loops + global tiling.

    ``shared_order`` lists global dims (outermost first) iterated jointly by
    all operators; ``private_orders`` maps each operator name to the order of
    its remaining global dims (iterated in its own inner nest); ``tiling``
    assigns every global dim a tile size (:data:`repro.dataflow.tiling.UNTILED`
    allowed).
    """

    shared_order: Tuple[str, ...]
    private_orders: Mapping[str, Tuple[str, ...]]
    tiling: Tiling

    def __post_init__(self) -> None:
        object.__setattr__(self, "shared_order", tuple(self.shared_order))
        object.__setattr__(
            self,
            "private_orders",
            {name: tuple(order) for name, order in self.private_orders.items()},
        )

    # ------------------------------------------------------------------
    def validate(self, chain: FusedChain) -> None:
        common = set(chain.common_dims)
        illegal = [dim for dim in self.shared_order if dim not in common]
        if illegal:
            raise FusionError(
                f"shared loops {illegal} are not common to every operator "
                f"(common dims: {sorted(common)})"
            )
        if len(set(self.shared_order)) != len(self.shared_order):
            raise FusionError(f"shared order repeats a dim: {self.shared_order}")
        # Every intermediate tensor's dims must be shared loops: the
        # intermediate's buffered unit is then exactly its tile, so the
        # tile-product footprint is its true liveness and the non-redundancy
        # (fusability) check is meaningful.  All Fig. 4 patterns satisfy
        # this; a nest that materializes an intermediate across a private
        # loop would need the full extent of that dim buffered, which this
        # model deliberately excludes.
        shared = set(self.shared_order)
        for index, op in enumerate(chain.ops[:-1]):
            consumed = {
                tensor.name for later in chain.ops[index + 1 :] for tensor in later.inputs
            }
            if op.output.name not in consumed:
                continue
            axes = chain.global_dims_of_tensor(index, op.output.name)
            unshared = [dim for dim in axes if dim not in shared]
            if unshared:
                raise FusionError(
                    f"intermediate {op.output.name!r} has non-shared dims "
                    f"{unshared}; all intermediate dims must be shared loops"
                )
        shared = set(self.shared_order)
        for index, op in enumerate(chain.ops):
            private = self.private_orders.get(op.name)
            if private is None:
                raise FusionError(f"missing private order for {op.name!r}")
            expected = set(chain.op_global_dims(index)) - shared
            if set(private) != expected or len(set(private)) != len(private):
                raise FusionError(
                    f"private order {private} for {op.name!r} must cover "
                    f"{sorted(expected)} exactly once"
                )
        self.resolved_tiling(chain)

    def resolved_tiling(self, chain: FusedChain) -> Tiling:
        return self.tiling.resolve(chain.global_dims)

    def op_nest(self, chain: FusedChain, index: int) -> LoopNest:
        """The loop nest operator ``index`` experiences, outermost first."""
        op = chain.ops[index]
        op_dims = set(chain.op_global_dims(index))
        tiling = self.resolved_tiling(chain)
        loops = []
        for dim in self.shared_order:
            if dim in op_dims:
                loops.append(
                    TiledLoop(dim=dim, extent=chain.global_dims[dim], tile=tiling[dim])
                )
        for dim in self.private_orders[op.name]:
            loops.append(
                TiledLoop(dim=dim, extent=chain.global_dims[dim], tile=tiling[dim])
            )
        return LoopNest(tuple(loops))

    def buffer_footprint(
        self, chain: FusedChain, exclude: Tuple[str, ...] = ()
    ) -> int:
        """Total buffered elements: every distinct tensor's tile, once.

        ``exclude`` names tensors held elsewhere (compute-unit fusion keeps
        the intermediate tile in the PE accumulators, paper Table I's
        "fusion medium: compute unit"); their tiles do not consume buffer.
        """

        tiling = self.resolved_tiling(chain)
        return sum(
            math.prod(tiling[dim] for dim in axes)
            for axes in chain.buffered_axes(exclude)
        )

    def tile_elements(self, chain: FusedChain, tensor_name: str) -> int:
        """Elements of one tensor's tile under this dataflow's tiling."""
        tiling = self.resolved_tiling(chain)
        return math.prod(tiling[dim] for dim in chain.tensor_axes(tensor_name))

    def describe(self, chain: FusedChain) -> str:
        tiling = self.resolved_tiling(chain)
        tiles = ", ".join(f"T_{dim}={tile}" for dim, tile in tiling.items())
        privates = "; ".join(
            f"{name}:({', '.join(order)})" for name, order in self.private_orders.items()
        )
        return f"shared=({', '.join(self.shared_order)}); {privates}; {tiles}"


def _op_with_global_dims(chain: FusedChain, index: int) -> TensorOperator:
    """Rebuild operator ``index`` with global dim names (for the counter)."""
    op = chain.ops[index]
    mapping = chain.dim_maps[index]
    dims = {mapping[local]: extent for local, extent in op.dims.items()}
    indexing = {
        tensor.name: tuple(mapping[local] for local in op.dims_of(tensor.name))
        for tensor in op.tensors
    }
    return TensorOperator(
        name=op.name,
        dims=dims,
        inputs=op.inputs,
        output=op.output,
        indexing=indexing,
        reduction_dims=frozenset(mapping[d] for d in op.reduction_dims),
        count=op.count,
        flops_per_point=op.flops_per_point,
    )


@dataclass(frozen=True)
class FusedAccessReport:
    """Memory-access breakdown for a fused chain."""

    chain_name: str
    per_tensor: Mapping[str, TensorAccess]
    intermediate_multipliers: Mapping[str, int]
    count: int

    @property
    def fusable(self) -> bool:
        """True when every intermediate is non-redundant (paper Sec. III-B1)."""
        return all(m == 1 for m in self.intermediate_multipliers.values())

    @property
    def per_instance_total(self) -> int:
        return sum(entry.accesses for entry in self.per_tensor.values())

    @property
    def total(self) -> int:
        return self.per_instance_total * self.count


def fused_memory_access(
    chain: FusedChain,
    dataflow: FusedDataflow,
    convention: PartialSumConvention = PartialSumConvention.SINGLE,
) -> FusedAccessReport:
    """Count memory accesses for a fused chain under a fused dataflow.

    Intermediate tensors contribute zero traffic; their worst-case redundancy
    multiplier across producer and consumer nests is recorded so that
    :attr:`FusedAccessReport.fusable` can enforce the paper's
    non-redundant-access requirement.
    """

    dataflow.validate(chain)
    intermediates = {tensor.name for tensor in chain.intermediates()}
    per_tensor: Dict[str, TensorAccess] = {}
    inter_mult: Dict[str, int] = {name: 1 for name in intermediates}
    for index in range(len(chain.ops)):
        op = _op_with_global_dims(chain, index)
        loops = [(loop.dim, loop.trip) for loop in dataflow.op_nest(chain, index)]
        for tensor in op.tensors:
            multiplier = reuse_multiplier(loops, op.dims_of(tensor.name))
            if tensor.name in intermediates:
                inter_mult[tensor.name] = max(inter_mult[tensor.name], multiplier)
                continue
            if (
                tensor.name == op.output.name
                and convention is PartialSumConvention.READ_WRITE
            ):
                accesses = tensor.size * (2 * multiplier - 1)
            else:
                accesses = tensor.size * multiplier
            previous = per_tensor.get(tensor.name)
            if previous is not None:
                # A tensor consumed by several chain ops (rare) is charged
                # its worst multiplier once -- it is buffered across the
                # shared nest just like an intermediate.
                if accesses <= previous.accesses:
                    continue
            per_tensor[tensor.name] = TensorAccess(
                tensor_name=tensor.name,
                size=tensor.size,
                multiplier=multiplier,
                accesses=accesses,
            )
    for name in intermediates:
        per_tensor[name] = TensorAccess(
            tensor_name=name,
            size=next(
                t.size for t in chain.intermediates() if t.name == name
            ),
            multiplier=inter_mult[name],
            accesses=0,
        )
    return FusedAccessReport(
        chain_name="+".join(op.name for op in chain.ops),
        per_tensor=per_tensor,
        intermediate_multipliers=inter_mult,
        count=chain.count,
    )
