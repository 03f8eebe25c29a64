"""Analytical memory-access model for tiled loop nests.

This module is the single source of truth for memory<->buffer traffic in the
library.  The principle engine (:mod:`repro.core`), the searching-based
baseline (:mod:`repro.search`) and the architecture models (:mod:`repro.arch`)
all evaluate candidate dataflows through the same counter, so comparisons
between them are apples-to-apples (as in the paper, where both the
principles and DAT target the same MAESTRO-style cost).  The reuse rule
itself is one integer function over ``(dim, trip)`` loops,
:func:`reuse_multiplier`: :func:`memory_access` applies it to a
materialized loop nest, and the closed-form constructors in
:mod:`repro.core` apply it straight to tile trip counts to rank their
candidate tile pairs, building a dataflow only for the winner.

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
from typing import Container, Dict, Iterable, Mapping, Tuple

from ..ir.loopnest import LoopNest
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

    @property
    def per_instance_total(self) -> int:
        return sum(entry.accesses for entry in self.per_tensor.values())

    @property
    def total(self) -> int:
        return self.per_instance_total * self.count

    @property
    def nra_class(self) -> NRAClass:
        """Non-redundant-access class implied by the access pattern."""
        non_redundant = sum(
            1 for entry in self.per_tensor.values() if entry.non_redundant
        )
        non_redundant = max(1, min(3, non_redundant))
        return NRAClass(non_redundant)

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


def tensor_multiplier(
    operator: TensorOperator,
    nest: LoopNest,
    tensor_name: str,
) -> int:
    """Redundancy multiplier of ``tensor_name`` under the tiled nest.

    A multiplier of 1 means non-redundant access (the tensor travels from
    memory exactly once).
    """

    return reuse_multiplier(
        ((loop.dim, loop.trip) for loop in nest), operator.dims_of(tensor_name)
    )


def memory_access(
    operator: TensorOperator,
    dataflow: Dataflow,
    convention: PartialSumConvention = PartialSumConvention.SINGLE,
    skip_tensors: Tuple[str, ...] = (),
) -> MemoryAccessReport:
    """Count memory<->buffer accesses for ``operator`` under ``dataflow``.

    ``skip_tensors`` names operands whose traffic is elided (used by the
    fusion model for on-chip intermediate tensors); they still appear in the
    report with zero accesses so non-redundancy can be asserted.
    """

    loops = [(loop.dim, loop.trip) for loop in dataflow.loop_nest(operator)]
    per_tensor: Dict[str, TensorAccess] = {}
    for tensor in operator.tensors:
        multiplier = reuse_multiplier(loops, operator.dims_of(tensor.name))
        if tensor.name in skip_tensors:
            accesses = 0
        elif (
            tensor.name == operator.output.name
            and convention is PartialSumConvention.READ_WRITE
        ):
            accesses = tensor.size * (2 * multiplier - 1)
        else:
            accesses = tensor.size * multiplier
        per_tensor[tensor.name] = TensorAccess(
            tensor_name=tensor.name,
            size=tensor.size,
            multiplier=multiplier,
            accesses=accesses,
        )
    return MemoryAccessReport(
        operator_name=operator.name,
        per_tensor=per_tensor,
        count=operator.count,
    )


def nra_class(operator: TensorOperator, dataflow: Dataflow) -> NRAClass:
    """NRA class of a dataflow: how many operands are accessed once."""
    return memory_access(operator, dataflow).nra_class


def fits_buffer(
    operator: TensorOperator, dataflow: Dataflow, buffer_elems: int
) -> bool:
    """True when the dataflow's working set fits the buffer (Eq. 2 / Eq. 4)."""
    return dataflow.buffer_footprint(operator) <= buffer_elems
