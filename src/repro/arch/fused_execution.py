"""Execute fused dataflows with real data (the fused half of the VM).

Counterpart of :mod:`repro.arch.execution` for two-matmul chains: walks a
:class:`~repro.dataflow.fusion_nest.FusedDataflow`'s shared loops, runs the
producer's private nest to complete each intermediate tile *on the compute
unit* (zero memory traffic, the FuseCU claim), then the consumer's private
nest -- counting every element crossing the memory<->buffer boundary and
verifying numerics against ``(a @ b) @ d``.

Together with :func:`repro.dataflow.fusion_nest.fused_memory_access` this
makes the paper's Sec. III-B analytics operationally testable: for every
Fig. 4 pattern, measured traffic equals the analytical prediction and the
intermediate truly never moves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..ir.operator import TensorOperator
from ..dataflow.fusion_nest import FusedChain, FusedDataflow, fused_memory_access
from .execution import TrafficCounter


@dataclass
class FusedExecutionResult:
    """Outcome of executing a fused pair with real operands."""

    output: np.ndarray
    traffic: TrafficCounter
    intermediate_traffic: int
    tile_computations: int


def _tile_slice(index: int, tile: int, extent: int) -> slice:
    start = index * tile
    return slice(start, min(start + tile, extent))


def execute_fused_pair(
    op1: TensorOperator,
    op2: TensorOperator,
    dataflow: FusedDataflow,
    a: np.ndarray,
    b: np.ndarray,
    d: np.ndarray,
) -> FusedExecutionResult:
    """Run a fused ``(a @ b) @ d`` chain under a fused dataflow.

    The chain must be ``op1: A x B = C`` and ``op2: C x D = E`` with
    ``op2.inputs[0] is op1.output``.  The intermediate tile accumulates in
    compute-unit storage and contributes zero memory traffic; the final
    output tile is buffered with spill/merge semantics identical to the
    single-operator engine, realizing the redundancy the multiplier rule
    predicts.
    """

    chain = FusedChain.from_ops([op1, op2])
    dataflow.validate(chain)
    tiling = dataflow.resolved_tiling(chain)
    dims = dict(chain.global_dims)

    # Global dim names: producer (M, K, L); consumer reduction is L, output
    # dim is its remaining global dim.
    m_dim, k_dim = chain.global_dims_of_tensor(0, op1.inputs[0].name)
    l_dim = chain.global_dims_of_tensor(0, op1.inputs[1].name)[1]
    n_dim = chain.global_dims_of_tensor(1, op2.output.name)[1]

    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    if a.shape != (dims[m_dim], dims[k_dim]):
        raise ValueError(f"A shape {a.shape} mismatches chain dims")
    if b.shape != (dims[k_dim], dims[l_dim]):
        raise ValueError(f"B shape {b.shape} mismatches chain dims")
    if d.shape != (dims[l_dim], dims[n_dim]):
        raise ValueError(f"D shape {d.shape} mismatches chain dims")

    a_name, b_name = op1.inputs[0].name, op1.inputs[1].name
    d_name, e_name = op2.inputs[1].name, op2.output.name

    traffic = TrafficCounter()
    memory_e = np.zeros((dims[m_dim], dims[n_dim]))
    spilled_e: Dict[Tuple[int, int], bool] = {}
    buffered: Dict[str, Tuple[Optional[tuple], Optional[np.ndarray]]] = {
        a_name: (None, None),
        b_name: (None, None),
        d_name: (None, None),
        e_name: (None, None),
    }
    tile_computations = 0

    def fetch(name: str, tile_id: tuple, loader) -> np.ndarray:
        current_id, data = buffered[name]
        if current_id != tile_id:
            if name == e_name and current_id is not None:
                spill_e(current_id, data)
            data = loader()
            buffered[name] = (tile_id, data)
            if name != e_name:
                traffic.read(name, data.size)
        assert data is not None
        return data

    def spill_e(tile_id: tuple, data: Optional[np.ndarray]) -> None:
        assert data is not None
        m_idx, n_idx = tile_id
        row = _tile_slice(m_idx, tiling[m_dim], dims[m_dim])
        col = _tile_slice(n_idx, tiling[n_dim], dims[n_dim])
        memory_e[row, col] = data
        traffic.write(e_name, data.size)
        spilled_e[tile_id] = True

    def load_e(m_idx: int, n_idx: int) -> np.ndarray:
        row = _tile_slice(m_idx, tiling[m_dim], dims[m_dim])
        col = _tile_slice(n_idx, tiling[n_dim], dims[n_dim])
        if spilled_e.get((m_idx, n_idx)):
            traffic.read(e_name, memory_e[row, col].size)
            return memory_e[row, col].copy()
        return np.zeros((row.stop - row.start, col.stop - col.start))

    def trip(dim: str) -> int:
        return -(-dims[dim] // tiling[dim])

    # Shared loops cover the intermediate's dims (M and L, validated).
    shared = dataflow.shared_order
    producer_private = dataflow.private_orders[op1.name]
    consumer_private = dataflow.private_orders[op2.name]

    def shared_loop(level: int, indices: Dict[str, int]) -> None:
        nonlocal tile_computations
        if level == len(shared):
            body(indices)
            return
        dim = shared[level]
        for index in range(trip(dim)):
            indices[dim] = index
            shared_loop(level + 1, indices)
        del indices[dim]

    def body(indices: Dict[str, int]) -> None:
        nonlocal tile_computations
        m_idx = indices[m_dim]
        l_idx = indices[l_dim]
        row = _tile_slice(m_idx, tiling[m_dim], dims[m_dim])
        mid = _tile_slice(l_idx, tiling[l_dim], dims[l_dim])
        # Producer phase: complete the C tile in compute-unit storage.
        c_tile = np.zeros((row.stop - row.start, mid.stop - mid.start))
        for k_idx in range(trip(k_dim)):
            red = _tile_slice(k_idx, tiling[k_dim], dims[k_dim])
            a_tile = fetch(a_name, (m_idx, k_idx), lambda: a[row, red].copy())
            b_tile = fetch(b_name, (k_idx, l_idx), lambda: b[red, mid].copy())
            c_tile += a_tile @ b_tile
            tile_computations += 1
        # Consumer phase: stream D, accumulate E.
        for n_idx in range(trip(n_dim)):
            col = _tile_slice(n_idx, tiling[n_dim], dims[n_dim])
            d_tile = fetch(d_name, (l_idx, n_idx), lambda: d[mid, col].copy())
            e_tile = fetch(e_name, (m_idx, n_idx), lambda: load_e(m_idx, n_idx))
            e_tile += c_tile @ d_tile
            tile_computations += 1

    shared_loop(0, {})
    last_id, last_data = buffered[e_name]
    if last_id is not None:
        spill_e(last_id, last_data)
    return FusedExecutionResult(
        output=memory_e,
        traffic=traffic,
        intermediate_traffic=traffic.accesses(op1.output.name),
        tile_computations=tile_computations,
    )


def validate_fused_against_analytical(
    op1: TensorOperator,
    op2: TensorOperator,
    dataflow: FusedDataflow,
    a: np.ndarray,
    b: np.ndarray,
    d: np.ndarray,
) -> Tuple[bool, Dict[str, Tuple[int, int]]]:
    """Execute a fused pair and compare traffic with the analytical counts.

    Same convention as the single-operator validator: inputs compare reads,
    the output compares writes (one access per element per pass), and the
    intermediate must measure zero.
    """

    chain = FusedChain.from_ops([op1, op2])
    result = execute_fused_pair(op1, op2, dataflow, a, b, d)
    predicted = fused_memory_access(chain, dataflow)
    comparison: Dict[str, Tuple[int, int]] = {}
    matches = True
    for name, entry in predicted.per_tensor.items():
        if name == op2.output.name:
            measured = result.traffic.writes.get(name, 0)
        else:
            measured = result.traffic.reads.get(name, 0)
        comparison[name] = (measured, entry.accesses)
        if measured != entry.accesses:
            matches = False
    return matches, comparison
