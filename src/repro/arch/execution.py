"""Execute analytical dataflows on the functional array (a dataflow VM).

This module closes the loop between the two halves of the library: the
*analytical* side (a :class:`~repro.dataflow.spec.Dataflow` and its
predicted memory-access counts) and the *functional* side (the
register-accurate systolic array).  :func:`execute_matmul_dataflow` walks
the tiled loop nest exactly as scheduled -- fetching operand tiles from a
simulated memory into a one-tile-per-tensor buffer, running each innermost
tile computation on a :class:`~repro.arch.systolic.SystolicArray`, and
spilling/merging output tiles -- while counting every element that crosses
the memory<->buffer boundary.

Two guarantees are then testable end to end:

* **numerics**: the result equals ``A @ B`` bit-for-bit (float64);
* **traffic**: the counted fetch/spill elements equal the analytical
  per-tensor access counts from :func:`repro.dataflow.cost.memory_access`
  (the same reuse rule, now realized operationally with real data).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from ..ir.operator import TensorOperator
from ..dataflow.cost import memory_access
from ..dataflow.spec import Dataflow
from .systolic import SystolicArray


@dataclass
class TrafficCounter:
    """Element counts crossing the memory<->buffer boundary, per tensor."""

    reads: Dict[str, int] = field(default_factory=dict)
    writes: Dict[str, int] = field(default_factory=dict)

    def read(self, tensor: str, elements: int) -> None:
        self.reads[tensor] = self.reads.get(tensor, 0) + elements

    def write(self, tensor: str, elements: int) -> None:
        self.writes[tensor] = self.writes.get(tensor, 0) + elements

    def accesses(self, tensor: str) -> int:
        return self.reads.get(tensor, 0) + self.writes.get(tensor, 0)


@dataclass
class ExecutionResult:
    """Outcome of executing a dataflow with real data."""

    output: np.ndarray
    traffic: TrafficCounter
    tile_computations: int
    array_cycles: int


class _BufferSlot:
    """One buffered tile with its identity (tile indices per dim)."""

    __slots__ = ("tile_id", "data")

    def __init__(self) -> None:
        self.tile_id: Optional[Tuple[int, ...]] = None
        self.data: Optional[np.ndarray] = None


def _tile_slice(start: int, tile: int, extent: int) -> slice:
    return slice(start, min(start + tile, extent))


def execute_matmul_dataflow(
    operator: TensorOperator,
    dataflow: Dataflow,
    a: np.ndarray,
    b: np.ndarray,
    array: Optional[SystolicArray] = None,
) -> ExecutionResult:
    """Run an MM dataflow tile by tile with real operands.

    The buffer holds exactly one tile per tensor (the analytical model's
    working set).  The output tile accumulates in the buffer while inner
    reduction loops run; when the schedule revisits an output tile after
    eviction, the partial sums round-trip through memory -- counted as a
    write then a read, realizing the redundancy the multiplier rule
    predicts.  The paper's SINGLE convention counts one access per element
    per pass; :meth:`TrafficCounter` tracks reads and writes separately so
    both conventions can be checked.
    """

    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    dims = dict(operator.dims)
    m_dim, k_dim = operator.dims_of(operator.inputs[0].name)
    l_dim = operator.dims_of(operator.inputs[1].name)[1]
    if a.shape != (dims[m_dim], dims[k_dim]):
        raise ValueError(f"A shape {a.shape} mismatches operator dims")
    if b.shape != (dims[k_dim], dims[l_dim]):
        raise ValueError(f"B shape {b.shape} mismatches operator dims")

    tiling = dataflow.tiling.for_operator(operator)
    order = dataflow.schedule.order
    trip_counts = [-(-dims[dim] // tiling[dim]) for dim in order]
    a_name = operator.inputs[0].name
    b_name = operator.inputs[1].name
    c_name = operator.output.name

    memory_c = np.zeros((dims[m_dim], dims[l_dim]))
    # Track which C tiles have ever been spilled (per (m,l) tile index).
    spilled: Dict[Tuple[int, int], bool] = {}

    slots = {a_name: _BufferSlot(), b_name: _BufferSlot(), c_name: _BufferSlot()}
    traffic = TrafficCounter()
    if array is None:
        array = SystolicArray(max(1, tiling[m_dim]), max(1, tiling[l_dim]))
    tile_computations = 0
    array_cycles = 0

    def loops(level: int, indices: Dict[str, int]) -> None:
        nonlocal tile_computations, array_cycles
        if level == len(order):
            _compute_tile(indices)
            return
        dim = order[level]
        for index in range(trip_counts[level]):
            indices[dim] = index
            loops(level + 1, indices)
        del indices[dim]

    def _fetch(
        name: str,
        tile_id: Tuple[int, ...],
        loader,
    ) -> np.ndarray:
        slot = slots[name]
        if slot.tile_id != tile_id:
            if name == c_name and slot.tile_id is not None:
                _spill_c(slot)
            slot.data = loader()
            slot.tile_id = tile_id
            if name != c_name:
                traffic.read(name, slot.data.size)
        assert slot.data is not None
        return slot.data

    def _spill_c(slot: _BufferSlot) -> None:
        assert slot.tile_id is not None and slot.data is not None
        m_idx, l_idx = slot.tile_id
        row = _tile_slice(m_idx * tiling[m_dim], tiling[m_dim], dims[m_dim])
        col = _tile_slice(l_idx * tiling[l_dim], tiling[l_dim], dims[l_dim])
        memory_c[row, col] = slot.data
        traffic.write(c_name, slot.data.size)
        spilled[(m_idx, l_idx)] = True

    def _load_c(m_idx: int, l_idx: int) -> np.ndarray:
        row = _tile_slice(m_idx * tiling[m_dim], tiling[m_dim], dims[m_dim])
        col = _tile_slice(l_idx * tiling[l_dim], tiling[l_dim], dims[l_dim])
        if spilled.get((m_idx, l_idx)):
            # Re-loading previously spilled partial sums: a memory read.
            traffic.read(c_name, memory_c[row, col].size)
            return memory_c[row, col].copy()
        return np.zeros((row.stop - row.start, col.stop - col.start))

    def _compute_tile(indices: Dict[str, int]) -> None:
        nonlocal tile_computations, array_cycles
        m_idx = indices[m_dim]
        k_idx = indices[k_dim]
        l_idx = indices[l_dim]
        row = _tile_slice(m_idx * tiling[m_dim], tiling[m_dim], dims[m_dim])
        red = _tile_slice(k_idx * tiling[k_dim], tiling[k_dim], dims[k_dim])
        col = _tile_slice(l_idx * tiling[l_dim], tiling[l_dim], dims[l_dim])
        a_tile = _fetch(a_name, (m_idx, k_idx), lambda: a[row, red].copy())
        b_tile = _fetch(b_name, (k_idx, l_idx), lambda: b[red, col].copy())
        c_tile = _fetch(c_name, (m_idx, l_idx), lambda: _load_c(m_idx, l_idx))
        partial, stats = array.matmul(a_tile, b_tile, mode="os")
        c_tile += partial
        tile_computations += 1
        array_cycles += stats.cycles

    loops(0, {})
    final_slot = slots[c_name]
    if final_slot.tile_id is not None:
        _spill_c(final_slot)
    return ExecutionResult(
        output=memory_c,
        traffic=traffic,
        tile_computations=tile_computations,
        array_cycles=array_cycles,
    )


def validate_against_analytical(
    operator: TensorOperator,
    dataflow: Dataflow,
    a: np.ndarray,
    b: np.ndarray,
) -> Tuple[bool, Dict[str, Tuple[int, int]]]:
    """Execute and compare measured vs. analytical per-tensor accesses.

    Returns ``(traffic_matches, {tensor: (measured, predicted)})`` under
    the paper's SINGLE convention (one access per element per pass: the
    output's re-loads are the redundant passes; its first-write is the
    single non-redundant access).
    """

    result = execute_matmul_dataflow(operator, dataflow, a, b)
    predicted = memory_access(operator, dataflow)
    comparison: Dict[str, Tuple[int, int]] = {}
    matches = True
    for tensor in operator.tensors:
        name = tensor.name
        if name == operator.output.name:
            # SINGLE convention: passes = spills; final state counts once.
            measured = result.traffic.writes.get(name, 0)
        else:
            measured = result.traffic.reads.get(name, 0)
        expected = predicted.per_tensor[name].accesses
        comparison[name] = (measured, expected)
        if measured != expected:
            matches = False
    return matches, comparison
