"""Analytical memory-access model for tiled loop nests.

This module is the single source of truth for memory<->buffer traffic in the
library.  The principle engine (:mod:`repro.core`), the searching-based
baseline (:mod:`repro.search`) and the architecture models (:mod:`repro.arch`)
all evaluate candidate dataflows through the same counter, so comparisons
between them are apples-to-apples (as in the paper, where both the
principles and DAT target the same MAESTRO-style cost).  The reuse rule
itself is one integer function over ``(dim, trip)`` loops,
:func:`reuse_multiplier`.  One helper, :func:`charge_tensors`, turns it
into a nest's charges and NRA class: :func:`memory_access` calls it on one
operator's loop nest, and
:func:`repro.dataflow.fusion_nest.fused_memory_access` on each operator's
nest in a fused chain.  :func:`trip_scorer`, the rule's one compiled
form, applies it straight to the free dims' trip counts of one operator's
nest or a fused chain's nests.  The closed-form constructors in
:mod:`repro.core` rank their candidate tile pairs with it and build a
dataflow only for the winner.

Reuse rule
----------
For a perfect tiled loop nest (outermost first) with *effective* loops
(trip count > 1; untiled loops are degenerate and ignored), a tensor ``t``
is re-fetched once per iteration of every effective loop that

* sits **outside** the innermost effective loop indexing ``t``, and
* does **not** index ``t``.

Loops indexing ``t`` merely enumerate its tiles (covering it exactly once
per sweep); loops **inside** the innermost ``t``-indexing loop reuse the
buffered tile (``t`` is stationary across them).  Hence::

    MA(t) = |t| * prod{ trip(l) : l outside innermost t-loop, dim(l) not in dims(t) }

This is the standard "stationarity" model (MAESTRO [2], Timeloop [6]) and
reproduces every formula in the paper:

* OS Single-NRA (order M,L,K):  ``MA = MKL (1/T_L + 1/T_M) + ML``  (Eq. 1)
* Two-NRA with K untiled:       ``MA = MKL / T_M + MK + ML``        (Eq. 3)
* Three-NRA with K, L untiled:  ``MA = MK + KL + ML``               (ideal)

Partial-sum convention
----------------------
When a reduction loop sits outside the innermost output-indexing loop, the
output's partial sums are spilled and re-loaded each pass.  The paper counts
one access per element per pass (its Eq. 1 charges ``C`` exactly ``ML``);
:data:`PartialSumConvention.SINGLE` reproduces that.
:data:`PartialSumConvention.READ_WRITE` charges ``2 * passes - 1`` accesses
per element (every spilled pass is a read-modify-write except the first
write), which is the convention some simulators use; it is exposed for the
ablation study in ``benchmarks/test_ablation_conventions.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import (
    Callable,
    Container,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..ir.operator import TensorOperator
from .spec import Dataflow, NRAClass


class PartialSumConvention(Enum):
    """How spilled output partial sums are charged."""

    #: One access per element per pass (the paper's convention).
    SINGLE = "single"
    #: Read+write per spilled pass: ``2 * passes - 1`` accesses per element.
    READ_WRITE = "read_write"


@dataclass(frozen=True)
class TensorAccess:
    """Per-tensor access statistics for one operator instance."""

    tensor_name: str
    size: int
    multiplier: int
    accesses: int

    @property
    def non_redundant(self) -> bool:
        """True when the tensor is touched exactly once (multiplier 1)."""
        return self.multiplier == 1


@dataclass(frozen=True)
class MemoryAccessReport:
    """Memory-access breakdown for an operator under a dataflow.

    ``accesses`` already includes the operator's ``count`` multiplier; the
    per-tensor entries are per *instance* so they can be compared against the
    paper's closed-form expressions directly.
    """

    operator_name: str
    per_tensor: Mapping[str, TensorAccess]
    count: int
    #: Non-redundant-access class implied by the access pattern.
    nra_class: NRAClass

    @property
    def per_instance_total(self) -> int:
        return sum(entry.accesses for entry in self.per_tensor.values())

    @property
    def total(self) -> int:
        return self.per_instance_total * self.count

    def redundancy(self, ideal: int) -> float:
        """Ratio of total accesses to the infinite-buffer ideal."""
        if ideal <= 0:
            raise ValueError("ideal access count must be positive")
        return self.total / ideal


def reuse_multiplier(
    loops: Iterable[Tuple[str, int]], tensor_dims: Container[str]
) -> int:
    """The reuse rule: re-fetches of a tensor indexed by ``tensor_dims``.

    ``loops`` are ``(dim, trip)`` pairs, outermost first.  The result is the
    product of the trips of the effective (trip > 1) loops that do not index
    the tensor and sit outside its innermost effective indexing loop.
    """

    multiplier = 1
    pending = 1  # non-indexing trips since the last indexing loop
    for dim, trip in loops:
        if trip <= 1:
            continue
        if dim in tensor_dims:
            multiplier *= pending
            pending = 1
        else:
            pending *= trip
    return multiplier


#: A tensor of a nest, as :func:`trip_scorer` reads it: its name, index
#: dims, size, and whether it must stay resident (never be re-fetched).
NestTensor = Tuple[str, Container[str], int, bool]
#: One operator's nest: its loop order, outermost first, and its tensors.
Nest = Tuple[Sequence[str], Sequence[NestTensor]]


def trip_scorer(
    nests: Sequence[Nest],
    extents: Mapping[str, int],
    fixed: Mapping[str, int],
    dim_x: Optional[str] = None,
    dim_y: Optional[str] = None,
) -> Callable[[int, int], Optional[int]]:
    """The reuse rule compiled for nests whose free dims' trips vary.

    Every dim of the nests but the free ``dim_x``/``dim_y`` (``None`` when
    there are fewer) takes its tile from ``fixed``.  ``score(trip_x,
    trip_y)`` is the per-instance access count at those free trips: each
    tensor is charged its size times :func:`reuse_multiplier`, and a
    tensor read by several nests its worst charge, as :func:`memory_access`
    counts one nest and :func:`repro.dataflow.fusion_nest.fused_memory_access`
    a fused chain under :data:`PartialSumConvention.SINGLE`.  ``None``
    means a resident tensor would be re-fetched.

    A free loop of one trip drops out of the rule, and counts a factor of 1
    wherever the rule counts it, so a tensor's multiplier depends on the
    free trips only through which of its indexing loops is the innermost
    effective one.  Each tensor's indexing loops are listed once, each with
    the free loop it needs effective (0: none) and the multiplier it gives,
    ``coef * trip_x**pow_x * trip_y**pow_y``.  Each of the four shapes --
    whether each free trip exceeds 1 -- picks the last effective one on
    first use, compiling the score into integer arithmetic on the two trips.
    """

    tensors = []
    for order, nest_tensors in nests:
        loops = []
        for dim in order:
            free = 1 if dim == dim_x else 2 if dim == dim_y else 0
            trip = 1 if free else -(-extents[dim] // fixed[dim])
            if free or trip > 1:
                loops.append((dim, trip, free))
        for name, dims, size, resident in nest_tensors:
            candidates = []
            coef, pow_x, pow_y = 1, 0, 0
            for dim, trip, free in loops:
                if dim in dims:
                    candidates.append((free, (coef, pow_x, pow_y)))
                else:
                    coef *= trip
                    pow_x |= free == 1
                    pow_y |= free == 2
            tensors.append((name, size, resident, candidates))

    def compile_shape(live: Tuple[bool, bool, bool]) -> tuple:
        """``(k, k_x, k_y, k_xy, rest)``, or ``()`` if a resident tensor
        is re-fetched, with ``live[free]`` whether such loops are effective."""
        worst: Dict[str, set] = {}
        for name, size, resident, candidates in tensors:
            coef, pow_x, pow_y = 1, 0, 0
            for free, term in candidates:
                if live[free]:
                    coef, pow_x, pow_y = term
            if resident:
                if coef > 1 or pow_x and live[1] or pow_y and live[2]:
                    return ()
            else:
                worst.setdefault(name, set()).add((size * coef, pow_x, pow_y))
        # Coefficients of 1, trip_x, trip_y and trip_x*trip_y; a tensor its
        # nests charge differently keeps its max, in ``rest``.
        linear = [0, 0, 0, 0]
        rest = []
        for terms in worst.values():
            if len(terms) == 1:
                ((weight, pow_x, pow_y),) = terms
                linear[pow_x + 2 * pow_y] += weight
            else:
                rest.append(tuple(terms))
        return (*linear, tuple(rest))

    shapes: list = [None] * 4  # by (trip_x > 1) + 2 * (trip_y > 1)

    def score(trip_x: int, trip_y: int) -> Optional[int]:
        index = (trip_x > 1) + 2 * (trip_y > 1)
        shape = shapes[index]
        if shape is None:
            shape = shapes[index] = compile_shape((True, trip_x > 1, trip_y > 1))
        if not shape:
            return None
        k, k_x, k_y, k_xy, rest = shape
        total = k + (k_x + k_xy * trip_y) * trip_x + k_y * trip_y
        for terms in rest:
            total += max(
                weight * (trip_x if pow_x else 1) * (trip_y if pow_y else 1)
                for weight, pow_x, pow_y in terms
            )
        return total

    return score


def charge_tensors(
    loops: Sequence[Tuple[str, int]],
    tensors: Iterable[NestTensor],
    output: str,
    convention: PartialSumConvention,
) -> Tuple[List[TensorAccess], NRAClass]:
    """Charge every tensor of one nest by the reuse rule, and classify it.

    ``loops`` are the nest's ``(dim, trip)`` pairs, outermost first.  A
    tensor is charged its size times its :func:`reuse_multiplier`; under
    :data:`PartialSumConvention.READ_WRITE` the ``output`` tensor is charged
    ``2 * multiplier - 1`` passes instead.  A resident tensor (a fused
    chain's intermediate) is charged nothing, but its multiplier is still
    reported.  The NRA class counts the tensors of multiplier 1, clamped
    to One..Three.  :func:`memory_access` counts one operator with it and
    :func:`repro.dataflow.fusion_nest.fused_memory_access` each operator of
    a fused chain.
    """

    entries = []
    non_redundant = 0
    for name, dims, size, resident in tensors:
        multiplier = reuse_multiplier(loops, dims)
        non_redundant += multiplier == 1
        if resident:
            accesses = 0
        elif name == output and convention is PartialSumConvention.READ_WRITE:
            accesses = size * (2 * multiplier - 1)
        else:
            accesses = size * multiplier
        entries.append(TensorAccess(name, size, multiplier, accesses))
    return entries, NRAClass(max(1, min(3, non_redundant)))


def memory_access(
    operator: TensorOperator,
    dataflow: Dataflow,
    convention: PartialSumConvention = PartialSumConvention.SINGLE,
) -> MemoryAccessReport:
    """Count memory<->buffer accesses for ``operator`` under ``dataflow``."""

    loops = [(loop.dim, loop.trip) for loop in dataflow.loop_nest(operator)]
    entries, nra = charge_tensors(
        loops,
        (
            (tensor.name, operator.dims_of(tensor.name), tensor.size, False)
            for tensor in operator.tensors
        ),
        operator.output.name,
        convention,
    )
    return MemoryAccessReport(
        operator_name=operator.name,
        per_tensor={entry.tensor_name: entry for entry in entries},
        count=operator.count,
        nra_class=nra,
    )


def fits_buffer(
    operator: TensorOperator, dataflow: Dataflow, buffer_elems: int
) -> bool:
    """True when the dataflow's working set fits the buffer (Eq. 2 / Eq. 4)."""
    return dataflow.buffer_footprint(operator) <= buffer_elems
