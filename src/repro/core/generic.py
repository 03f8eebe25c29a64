"""Generalized principle-based optimization for arbitrary loop-nest operators.

Paper Sec. III-B closes with: "Principle 1-4 can be extended to other
tensor operators, as all tensor operators can be represented as for-loops,
varying only on the number of loop levels while sharing consistent
derivation."  This module is that extension: for any operator whose
tensors are each indexed by a subset of the loop dimensions (einsum-like --
batched matmuls, im2col-lowered convolutions, tensor contractions), it
constructs the same three candidate families the MM analysis produces:

* **stationary[t]** (Principle 1): maximize the tiles of tensor ``t``'s
  dims jointly (balanced growth under the footprint constraint), minimize
  every other dim; schedule ``t``'s dims outermost so ``t`` is reused
  across the inner loops.
* **untile[d, x]** (Principle 2): leave dim ``d`` whole, maximize the tile
  of one other dim ``x``, minimize the rest.
* **resident[t]** (Principle 3): keep tensor ``t`` entirely on-chip (all
  its dims untiled), minimize the rest.
* **stream[d]** (full Three-NRA analogue): every dim but ``d`` whole.

The untile, resident and stream families are role maps tiled by the
builder the MM candidates and fused patterns use,
:func:`repro.core.nra.role_tiles`: their one grown tile is a closed-form
division, not a search.  Only the stationary family, which grows more
than two dims in lock step, keeps its own balanced growth.

The candidate count is ``2*T + D*(D-1)`` for ``T`` tensors and ``D`` dims --
still a constant independent of tensor sizes, preserving the one-shot
property.  For 3-dim MM-like operators the specialized constructors in
:mod:`repro.core.nra` (with their exact pair refinement) are preferred;
:func:`optimize_generic` exists for everything else.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from ..ir.operator import TensorOperator
from ..dataflow.cost import MemoryAccessReport, PartialSumConvention, memory_access
from ..dataflow.scheduling import Schedule
from ..dataflow.spec import Dataflow
from ..dataflow.tiling import Tiling
from .intra import InfeasibleError, IntraResult, optimize_intra
from .nra import (
    Role,
    is_mm_like,
    is_streaming,
    max_feasible,
    role_tiles,
    streaming_dataflow,
)


@dataclass(frozen=True)
class GenericCandidate:
    """One generalized principle candidate."""

    label: str
    dataflow: Dataflow


def _balanced_scale_tilings(
    operator: TensorOperator,
    grown_dims: Tuple[str, ...],
    buffer_elems: int,
) -> List[Tiling]:
    """Candidate tilings growing the named dims under the footprint budget.

    All other dims get tile 1.  Returns the lock-step balanced solution
    plus greedy growth in every order (slack from clamped dims flows to the
    others) and trip-count-snapped variants -- the multi-dim analogue of
    the MM pair refinement.  Empty when even all-ones overflows.
    """

    def tiling_for(scale: int) -> Dict[str, int]:
        tiles = {dim: 1 for dim in operator.dim_names}
        for dim in grown_dims:
            tiles[dim] = min(scale, operator.dims[dim])
        return tiles

    def footprint(tiles: Dict[str, int]) -> int:
        return Tiling(tiles).buffer_footprint(operator)

    upper = max((operator.dims[dim] for dim in grown_dims), default=1)
    scale = max_feasible(
        lambda s: footprint(tiling_for(s)), upper, buffer_elems
    )
    if scale is None:
        return []
    base = tiling_for(scale)
    variants: Dict[Tuple[int, ...], Dict[str, int]] = {}

    def register(tiles: Dict[str, int]) -> None:
        if footprint(tiles) <= buffer_elems:
            key = tuple(tiles[dim] for dim in operator.dim_names)
            variants.setdefault(key, dict(tiles))

    register(base)
    orders = list(itertools.permutations(grown_dims))
    if len(orders) > 6:
        orders = orders[:6]
    for order in orders:
        tiles = dict(base)
        for dim in order:
            if tiles[dim] >= operator.dims[dim]:
                continue

            def grow(tile: int, target=dim, state=tiles) -> int:
                trial = dict(state)
                trial[target] = tile
                return footprint(trial)

            grown = max_feasible(grow, operator.dims[dim], buffer_elems)
            if grown is not None:
                tiles[dim] = grown
        register(tiles)
        # Snap each grown dim to the smallest tile with the same trip
        # count, then regrow the remaining dims with the freed footprint.
        snapped = dict(tiles)
        for dim in grown_dims:
            extent = operator.dims[dim]
            snapped[dim] = -(-extent // -(-extent // tiles[dim]))
        for dim in order:
            if snapped[dim] >= operator.dims[dim]:
                continue

            def regrow(tile: int, target=dim, state=snapped) -> int:
                trial = dict(state)
                trial[target] = tile
                return footprint(trial)

            grown = max_feasible(regrow, operator.dims[dim], buffer_elems)
            if grown is not None:
                snapped[dim] = grown
        register(snapped)
    return [Tiling(tiles) for tiles in variants.values()]


def _schedule_with_outer(
    operator: TensorOperator, outer_dims: Tuple[str, ...]
) -> Schedule:
    """Schedule with ``outer_dims`` first, remaining dims innermost."""
    inner = [dim for dim in operator.dim_names if dim not in outer_dims]
    return Schedule(tuple(outer_dims) + tuple(inner))


def generic_candidates(
    operator: TensorOperator, buffer_elems: int
) -> List[GenericCandidate]:
    """All generalized principle candidates that fit the buffer."""
    candidates: List[GenericCandidate] = []
    all_dims = tuple(operator.dim_names)

    # Principle 1 analogue: stationary candidates per tensor (one per
    # integer-refined tiling variant).
    for tensor in operator.tensors:
        dims = tuple(operator.dims_of(tensor.name))
        if set(dims) == set(all_dims):
            continue  # indexed by everything: cannot be stationary
        schedule = _schedule_with_outer(operator, dims)
        for tiling in _balanced_scale_tilings(operator, dims, buffer_elems):
            candidates.append(
                GenericCandidate(
                    label=f"stationary[{tensor.name}]",
                    dataflow=Dataflow(tiling, schedule),
                )
            )

    index_sets = [operator.dims_of(tensor.name) for tensor in operator.tensors]

    def add(label: str, roles: Mapping[str, Role], order: Tuple[str, ...]) -> None:
        """The candidate of ``roles`` (at most one MAXIMIZE dim), if it fits."""
        tiles = role_tiles(operator.dims, roles, [(index_sets, buffer_elems)])
        if tiles.candidates:
            resolved = tiles.tiles(tiles.candidates[0][0])
            tiling = Tiling({dim: resolved[dim] for dim in all_dims})
            candidates.append(
                GenericCandidate(label, Dataflow(tiling, Schedule(order)))
            )

    # Principle 2 analogue: (untiled dim, maximized dim) pairs.
    for untiled, maximized in itertools.permutations(all_dims, 2):
        roles = {dim: Role.MINIMIZE for dim in all_dims}
        roles[untiled] = Role.UNTILE
        roles[maximized] = Role.MAXIMIZE
        order = (maximized,) + tuple(
            dim for dim in all_dims if dim not in (maximized, untiled)
        ) + (untiled,)
        add(f"untile[{untiled}, max {maximized}]", roles, order)

    # Principle 3 analogue: one resident candidate per tensor.
    for tensor in operator.tensors:
        dims = set(operator.dims_of(tensor.name))
        roles = {
            dim: Role.UNTILE if dim in dims else Role.MINIMIZE for dim in all_dims
        }
        order = tuple(dim for dim in all_dims if dim not in dims) + tuple(
            dim for dim in all_dims if dim in dims
        )
        add(f"resident[{tensor.name}]", roles, order)

    # Full Three-NRA analogue: stream one dim, keep every other dim whole.
    # Everything becomes non-redundant (the only effective loop indexes --
    # or is invisible to -- every tensor), reaching the ideal MA whenever
    # the residual footprint fits; for MM these are exactly the Three-NRA
    # candidates.
    for streamed in all_dims:
        roles = {dim: Role.UNTILE for dim in all_dims}
        roles[streamed] = Role.MINIMIZE
        order = (streamed,) + tuple(d for d in all_dims if d != streamed)
        add(f"stream[{streamed}]", roles, order)
    return candidates


def optimize_generic(
    operator: TensorOperator,
    buffer_elems: int,
    convention: PartialSumConvention = PartialSumConvention.SINGLE,
) -> IntraResult:
    """Principle-based optimization for arbitrary einsum-like operators.

    Dispatches to the exact MM path / streaming path when applicable, so it
    is safe to use as the universal entry point.
    """

    if buffer_elems <= 0:
        raise ValueError("buffer size must be positive")
    if is_mm_like(operator):
        return optimize_intra(operator, buffer_elems, convention)
    if is_streaming(operator):
        dataflow = streaming_dataflow(operator)
        return IntraResult(
            operator=operator,
            dataflow=dataflow,
            report=memory_access(operator, dataflow, convention),
            regime=None,
            label="streaming",
        )
    best: Optional[Tuple[GenericCandidate, MemoryAccessReport]] = None
    for candidate in generic_candidates(operator, buffer_elems):
        report = memory_access(operator, candidate.dataflow, convention)
        if best is None or report.total < best[1].total:
            best = (candidate, report)
    if best is None:
        raise InfeasibleError(
            f"no generic dataflow for {operator.name!r} fits a buffer of "
            f"{buffer_elems} elements"
        )
    candidate, report = best
    return IntraResult(
        operator=operator,
        dataflow=candidate.dataflow,
        report=report,
        regime=None,
        label=candidate.label,
    )
