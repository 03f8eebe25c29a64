"""Fused multi-operator loop nests (paper Sec. III-B, Fig. 4).

Operator fusion executes a chain of operators under *shared* outer loops so
the intermediate tensors never travel to memory.  This module provides:

* :class:`FusedChain` -- a linear producer/consumer chain with its loop
  dimensions unified into a global namespace (the consumer's dims that index
  an intermediate tensor are identified with the producer's dims for the
  same tensor, e.g. MM2's reduction dim *is* MM1's ``L``).  It derives each
  operator's tensors once, with their global index dims, sizes and
  intermediate flags (:attr:`FusedChain.op_tensors`), and its private
  loops (:attr:`FusedChain.private_orders`); the footprint, the counter and
  the fused searches all read those derivations.
* :class:`FusedDataflow` -- shared outer loop order + per-operator private
  inner loops + a global tiling.
* :func:`fused_memory_access` -- validate the dataflow's structure and
  resolve its tiling, then :func:`charge_fused`: one pass over the
  operators, each one's nest the shared loops then its private loops,
  charged through the helper :func:`repro.dataflow.cost.memory_access`
  uses (:func:`repro.dataflow.cost.charge_tensors`), with
  intermediate-tensor traffic elided and each operator's NRA class on the
  report.  A search over trip counts validates a structure once and calls
  :func:`charge_fused` per point.

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
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..ir.operator import TensorOperator
from ..ir.tensor import Tensor
from .cost import NestTensor, PartialSumConvention, TensorAccess, charge_tensors
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
    #: Each operator's tensors as :func:`repro.dataflow.cost.charge_tensors`
    #: and :func:`repro.dataflow.cost.trip_scorer` read them: name, global
    #: index dims, size and whether it is an intermediate (kept on chip).
    #: Derived from ``ops`` and ``dim_maps``; every per-tensor query of
    #: the chain reads it.
    op_tensors: Tuple[Tuple[NestTensor, ...], ...] = field(
        init=False, repr=False, compare=False
    )
    #: Each operator's private loops, by operator name: its global dims
    #: minus :attr:`common_dims`, in its canonical local order.  Derived
    #: once, like ``op_tensors``; every default fused structure reads it.
    private_orders: Mapping[str, Tuple[str, ...]] = field(
        init=False, repr=False, compare=False
    )

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
        intermediates = {tensor.name for tensor in self.intermediates()}
        object.__setattr__(
            self,
            "op_tensors",
            tuple(
                tuple(
                    (
                        tensor.name,
                        tuple(mapping[local] for local in op.dims_of(tensor.name)),
                        tensor.size,
                        tensor.name in intermediates,
                    )
                    for tensor in op.tensors
                )
                for op, mapping in zip(self.ops, self.dim_maps)
            ),
        )
        common = set(self.common_dims)
        object.__setattr__(
            self,
            "private_orders",
            {
                op.name: tuple(
                    dim for dim in self.op_global_dims(index) if dim not in common
                )
                for index, op in enumerate(self.ops)
            },
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
        """Global dims indexing ``tensor_name`` in operator ``index``."""
        for name, dims, _, _ in self.op_tensors[index]:
            if name == tensor_name:
                return dims
        raise FusionError(
            f"operator {self.ops[index].name!r} has no tensor {tensor_name!r}"
        )

    def tensor_axes(self, tensor_name: str) -> Tuple[str, ...]:
        """Global dims indexing ``tensor_name`` (first operator using it)."""
        for tensors in self.op_tensors:
            for name, dims, _, _ in tensors:
                if name == tensor_name:
                    return dims
        raise FusionError(f"chain has no tensor {tensor_name!r}")

    def buffered_axes(self, exclude: Tuple[str, ...] = ()) -> List[Tuple[str, ...]]:
        """Global dims of every distinct tensor not in ``exclude``, once each.

        The index sets whose tile products sum to a fused buffer footprint.
        """

        seen: Set[str] = set(exclude)
        axes: List[Tuple[str, ...]] = []
        for tensors in self.op_tensors:
            for name, dims, _, _ in tensors:
                if name not in seen:
                    seen.add(name)
                    axes.append(dims)
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
    def validate(self, chain: FusedChain) -> Tiling:
        """Check the dataflow's structure against ``chain``; return its
        tiling resolved against the chain's dims."""
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
        for tensors in chain.op_tensors:
            for name, dims, _, intermediate in tensors:
                if intermediate and not shared.issuperset(dims):
                    unshared = [dim for dim in dims if dim not in shared]
                    raise FusionError(
                        f"intermediate {name!r} has non-shared dims "
                        f"{unshared}; all intermediate dims must be shared loops"
                    )
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
        return self.resolved_tiling(chain)

    def resolved_tiling(self, chain: FusedChain) -> Tiling:
        return self.tiling.resolve(chain.global_dims)

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


@dataclass(frozen=True)
class FusedAccessReport:
    """Memory-access breakdown for a fused chain."""

    chain_name: str
    per_tensor: Mapping[str, TensorAccess]
    intermediate_multipliers: Mapping[str, int]
    count: int
    #: NRA class each operator experiences inside the fused nest.
    per_op_nra: Tuple[NRAClass, ...]

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

    Two steps: :meth:`FusedDataflow.validate` checks the structure and
    resolves the tiling, and :func:`charge_fused` charges the nests at the
    tiling's trip counts.
    """

    tiling = dataflow.validate(chain)
    trips = {
        dim: -(-extent // tiling[dim]) for dim, extent in chain.global_dims.items()
    }
    return charge_fused(
        chain, dataflow.shared_order, dataflow.private_orders, trips, convention
    )


def charge_fused(
    chain: FusedChain,
    shared_order: Sequence[str],
    private_orders: Mapping[str, Sequence[str]],
    trips: Mapping[str, int],
    convention: PartialSumConvention = PartialSumConvention.SINGLE,
) -> FusedAccessReport:
    """Charge a validated fused structure at given trip counts.

    One pass over the operators: each one's nest is the shared loops, then
    its private loops, and its tensors are charged and classified by
    :func:`repro.dataflow.cost.charge_tensors`.  Intermediate tensors
    contribute zero traffic; their worst-case redundancy multiplier across
    producer and consumer nests is recorded so that
    :attr:`FusedAccessReport.fusable` can enforce the paper's
    non-redundant-access requirement.  The structure is not checked here:
    a search that varies only the trips validates it once and calls this
    per point.
    """

    shared = [(dim, trips[dim]) for dim in shared_order]
    per_tensor: Dict[str, TensorAccess] = {}
    held: Dict[str, TensorAccess] = {}
    classes = []
    for op, tensors in zip(chain.ops, chain.op_tensors):
        loops = shared + [(dim, trips[dim]) for dim in private_orders[op.name]]
        entries, nra = charge_tensors(loops, tensors, op.output.name, convention)
        classes.append(nra)
        for (name, _, _, resident), entry in zip(tensors, entries):
            # A tensor several chain ops touch (every intermediate, rarely
            # an input) is charged once, at its worst multiplier: it is
            # buffered across the shared nest.
            kept = held if resident else per_tensor
            previous = kept.get(name)
            if previous is None or entry.multiplier > previous.multiplier:
                kept[name] = entry
    per_tensor.update(held)
    return FusedAccessReport(
        chain_name="+".join(op.name for op in chain.ops),
        per_tensor=per_tensor,
        intermediate_multipliers={
            name: entry.multiplier for name, entry in held.items()
        },
        count=chain.count,
        per_op_nra=tuple(classes),
    )
