"""Closed-form NRA dataflow constructors (paper Sec. III-A).

For an MM-like operator (three loop dims, three rank-2 operands, each
indexed by a distinct dim pair) there are exactly twelve candidate optimal
dataflows:

* 3 Single-NRA -- one per stationary-tensor choice (Principle 1),
* 6 Two-NRA   -- one per (untiled dim, maximized dim) pair (Principle 2),
* 3 Three-NRA -- one per fully-resident tensor choice (Principle 3).

Each constructor solves its tile sizes directly from the buffer constraint.
The footprint (Eq. 2 / Eq. 4) is compiled once into the integer
coefficients of ``a*x*y + b*x + c*y + d`` over the free tiles
(:class:`TileConstraint`), so the largest feasible tile for a given partner
is one integer division -- no search of any kind.
Candidate tile pairs come one per trip pair, the first in sorted order: a
pair's score depends only on its trip counts, and every caller keeps the
first minimum in sorted order.  Single-NRA ranks them by the shared reuse
rule (:func:`repro.dataflow.cost.reuse_multiplier`), compiled once per call
into integer arithmetic on their trip counts, and builds a
:class:`Dataflow` only for the winner.  The intra-operator optimizer then
counts the feasible candidates through the shared access counter and
keeps the minimum; this *is* the paper's principle-based one-shot
optimization, since the candidate count is a small constant independent of
tensor sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..ir.operator import TensorOperator
from ..dataflow.scheduling import Schedule, stationary_schedule
from ..dataflow.spec import Dataflow, NRAClass
from ..dataflow.tiling import Tiling
from . import memo


class UnsupportedOperatorError(ValueError):
    """Raised when closed-form analysis does not cover an operator shape."""


def is_mm_like(operator: TensorOperator) -> bool:
    """True for operators with the matmul structure the closed forms cover."""
    if len(operator.dims) != 3 or len(operator.tensors) != 3:
        return False
    pairs = set()
    for tensor in operator.tensors:
        dims = operator.dims_of(tensor.name)
        if len(dims) != 2 or len(set(dims)) != 2:
            return False
        pairs.add(frozenset(dims))
    return len(pairs) == 3


def is_streaming(operator: TensorOperator) -> bool:
    """True for operators every tensor of which is indexed by every dim.

    Such operators (elementwise, softmax) have no reuse to exploit: any
    streaming tiling touches each tensor exactly once.
    """

    all_dims = set(operator.dims)
    return all(
        set(operator.dims_of(tensor.name)) == all_dims
        for tensor in operator.tensors
    ) and not operator.reduction_dims


def _require_mm_like(operator: TensorOperator) -> None:
    if not is_mm_like(operator):
        raise UnsupportedOperatorError(
            f"operator {operator.name!r} is not MM-like; use repro.search for "
            "general shapes"
        )


def _other_dim(operator: TensorOperator, dims: Tuple[str, ...]) -> str:
    remaining = [d for d in operator.dim_names if d not in dims]
    if len(remaining) != 1:
        raise UnsupportedOperatorError(
            f"dims {dims} do not leave a unique remaining dim in "
            f"{operator.dim_names}"
        )
    return remaining[0]


# ----------------------------------------------------------------------
# Integer tile solvers
# ----------------------------------------------------------------------
def max_feasible(
    footprint: Callable[[int], int], upper: int, budget: int
) -> Optional[int]:
    """Largest ``t`` in [1, upper] with ``footprint(t) <= budget``.

    Generic bisection over a monotone callable, for footprints that are not
    a fixed bilinear form (:mod:`repro.core.generic`'s lock-step tiles).
    MM-like tiles are solved in closed form through :class:`TileConstraint`.
    """
    if upper < 1 or footprint(1) > budget:
        return None
    low, high = 1, upper
    while low < high:
        mid = (low + high + 1) // 2
        if footprint(mid) <= budget:
            low = mid
        else:
            high = mid - 1
    return low


def _ceil_div(numerator: int, denominator: int) -> int:
    return -(-numerator // denominator)


@dataclass(frozen=True)
class TileConstraint:
    """Capacity constraint ``a*x*y + b*x + c*y + d <= bound`` on two tiles.

    A buffer footprint is a sum of tile products, one per tensor (Eq. 2 /
    Eq. 4).  With every dim but the free tiles ``x`` and ``y`` fixed, each
    tensor adds the product of its fixed tiles to exactly one coefficient,
    chosen by which free dims index it.  The coefficients are non-negative
    integers, so the constraint is monotone in both tiles and the largest
    feasible tile for a given partner is one integer division.
    """

    a: int
    b: int
    c: int
    d: int
    bound: int

    @classmethod
    def from_footprint(
        cls,
        index_sets: Iterable[Sequence[str]],
        fixed: Mapping[str, int],
        dim_x: Optional[str],
        dim_y: Optional[str],
        bound: int,
    ) -> "TileConstraint":
        """Compile ``sum_t prod_{d in index_sets[t]} T_d`` into coefficients.

        Dims other than ``dim_x``/``dim_y`` take their tile from ``fixed``;
        ``dim_y=None`` (or both ``None``) leaves fewer free tiles, and the
        missing ones drop out of the form.
        """

        coefficients = [0, 0, 0, 0]  # x*y, x, y, constant
        for dims in index_sets:
            free = [dim for dim in dims if dim in (dim_x, dim_y)]
            if len(set(free)) != len(free):
                raise UnsupportedOperatorError(
                    f"index set {tuple(dims)} repeats a free dim; its "
                    "footprint is not bilinear"
                )
            weight = math.prod(fixed[dim] for dim in dims if dim not in free)
            coefficients[3 - 2 * (dim_x in free) - (dim_y in free)] += weight
        return cls(*coefficients, bound)

    def fits(self, x: int, y: int) -> bool:
        return self.a * x * y + self.b * x + self.c * y + self.d <= self.bound

    def max_x(self, y: int, upper: int) -> Optional[int]:
        """Largest ``x`` in [1, upper] fitting with ``y`` (``None``: none)."""
        slope = self.a * y + self.b
        room = self.bound - self.c * y - self.d
        if room < slope:
            return None
        return upper if slope == 0 else min(upper, room // slope)

    def max_y(self, x: int, upper: int) -> Optional[int]:
        """Largest ``y`` in [1, upper] fitting with ``x`` (``None``: none)."""
        slope = self.a * x + self.c
        room = self.bound - self.b * x - self.d
        if room < slope:
            return None
        return upper if slope == 0 else min(upper, room // slope)

    def max_balanced(self, upper_x: int, upper_y: int) -> Optional[int]:
        """Largest ``t`` with ``(min(t, upper_x), min(t, upper_y))`` fitting.

        ``t`` ranges over [1, max(upper_x, upper_y)].  Past the smaller
        extent one tile is pinned and the other grows (affine); below it
        both grow together, solving ``a*t^2 + (b+c)*t + d <= bound``.
        """

        edge = min(upper_x, upper_y)
        if self.fits(edge, edge):
            if upper_x < upper_y:
                return self.max_y(upper_x, upper_y)
            if upper_y < upper_x:
                return self.max_x(upper_y, upper_x)
            return edge
        if not self.fits(1, 1):
            return None
        linear = self.b + self.c
        room = self.bound - self.d
        if self.a == 0:
            return room // linear
        # Integer t fits iff 2*a*t + linear <= sqrt(disc), i.e. <= its isqrt.
        disc = linear * linear + 4 * self.a * room
        return (math.isqrt(disc) - linear) // (2 * self.a)


def _max_x(
    constraints: Sequence[TileConstraint], y: int, upper: int
) -> Optional[int]:
    for constraint in constraints:
        upper = constraint.max_x(y, upper)
        if upper is None:
            return None
    return upper


def _max_y(
    constraints: Sequence[TileConstraint], x: int, upper: int
) -> Optional[int]:
    for constraint in constraints:
        upper = constraint.max_y(x, upper)
        if upper is None:
            return None
    return upper


def max_tile(constraints: Sequence[TileConstraint], upper: int) -> Optional[int]:
    """Largest single free tile (``dim_y=None`` constraints) in [1, upper]."""
    return _max_x(constraints, 1, upper)


def pair_candidates(
    constraints: Sequence[TileConstraint],
    upper_x: int,
    upper_y: int,
) -> List[Tuple[int, int]]:
    """Integer-refined candidate tile pairs under capacity constraints.

    A pair is feasible when it fits every constraint (the buffer footprint,
    plus any per-tile register limits).  The continuous optimum of the
    Single-NRA objective (Eq. 1, minimize ``1/tx + 1/ty``) is a balanced
    pair, but memory access depends on the *ceiled* trip counts
    ``ceil(D/t)``; a slightly smaller tile with the same trip count frees
    footprint that can lower the partner's trip count.  This helper returns
    the balanced/grown solutions plus trip-count-snapped perturbations of
    each, every "largest feasible tile" solved in closed form from the
    constraint coefficients; callers rank all of them by the reuse rule on
    their trip counts, keep the best and build a dataflow only for it (still
    a constant amount of work -- no design-space search).

    The list is sorted and holds one pair per trip pair ``(ceil(upper_x /
    t_x), ceil(upper_y / t_y))``: the first in sorted order.  A pair's score
    depends only on its trip pair and callers keep the first minimum in
    sorted order, so no other pair of a trip pair can win.
    """

    balanced = [c.max_balanced(upper_x, upper_y) for c in constraints]
    if None in balanced:
        return []
    base = min(balanced)
    seeds: List[Tuple[int, int]] = []
    tx = min(base, upper_x)
    grown_y = _max_y(constraints, tx, upper_y)
    if grown_y is not None:
        seeds.append((tx, grown_y))
    ty = min(base, upper_y)
    grown_x = _max_x(constraints, ty, upper_x)
    if grown_x is not None:
        seeds.append((grown_x, ty))
    if not seeds:
        return []

    # The first pair in sorted order of each trip pair; no other can win.
    by_trips: dict = {}
    max_trip_delta = 4  # trip-count perturbations tried around each seed

    def snap(extent: int, tile: int) -> int:
        """Smallest tile with the same trip count (minimal footprint)."""
        return _ceil_div(extent, _ceil_div(extent, tile))

    def add(tile_x: int, tile_y: int) -> None:
        # Every probe lies in [1, upper] and fits every constraint: each
        # partner tile is grown by _max_x / _max_y, or snapped below it.
        trips = (_ceil_div(upper_x, tile_x), _ceil_div(upper_y, tile_y))
        kept = by_trips.get(trips)
        if kept is None or (tile_x, tile_y) < kept:
            by_trips[trips] = (tile_x, tile_y)

    for seed_x, seed_y in seeds:
        add(seed_x, seed_y)
        trips_x = _ceil_div(upper_x, seed_x)
        trips_y = _ceil_div(upper_y, seed_y)
        for delta in range(max_trip_delta + 1):
            # Coarsen x's trips, regrow and snap y.
            tile_x = _ceil_div(upper_x, trips_x + delta)
            regrown = _max_y(constraints, tile_x, upper_y)
            if regrown is not None:
                add(tile_x, snap(upper_y, regrown))
            # Coarsen y's trips, regrow and snap x.
            tile_y = _ceil_div(upper_y, trips_y + delta)
            regrown_x = _max_x(constraints, tile_y, upper_x)
            if regrown_x is not None:
                add(snap(upper_x, regrown_x), tile_y)

    # Exactness sweep for small problems: any optimal pair has its smaller
    # tile bounded by the balanced edge (+1), and for a fixed tile on one
    # dim the other is best grown to its feasible maximum; the distinct
    # ceil-tile values of a dimension number only ~2*sqrt(D), so when that
    # is small we can cover the whole reduced space exactly.  This closes
    # the tiny-buffer corner where the delta window misses joint
    # coarsen-one / grow-the-other moves (found by hypothesis against the
    # exact branch-and-bound certifier).
    def distinct_tiles(extent: int, cap: int):
        """All distinct values of ``ceil(extent / n)``, largest first."""
        values = []
        trips = 1
        while len(values) < cap:
            tile = _ceil_div(extent, trips)
            values.append(tile)
            if tile == 1:
                break
            # Smallest trip count yielding a strictly smaller tile.
            trips = _ceil_div(extent, tile - 1)
        return values

    sweep_cap = 96
    if 2 * math.isqrt(upper_x) + 2 <= sweep_cap:
        for tile_x in distinct_tiles(upper_x, sweep_cap):
            grown = _max_y(constraints, tile_x, upper_y)
            if grown is not None:
                add(tile_x, snap(upper_y, grown))
    if 2 * math.isqrt(upper_y) + 2 <= sweep_cap:
        for tile_y in distinct_tiles(upper_y, sweep_cap):
            grown_x = _max_x(constraints, tile_y, upper_x)
            if grown_x is not None:
                add(snap(upper_x, grown_x), tile_y)
    return sorted(by_trips.values())


# ----------------------------------------------------------------------
# Candidate constructors
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class NRACandidate:
    """One closed-form candidate dataflow."""

    label: str
    nra: NRAClass
    dataflow: Dataflow

    def describe(self, operator: TensorOperator) -> str:
        return f"{self.label}: {self.dataflow.describe(operator)}"


#: Labels of the candidates that name a tensor (Two-NRA labels name dims).
_SINGLE_LABEL = "single[{}]"
_THREE_LABEL = "three[resident {}]"


def rename_label(label: str, renames: Mapping[str, str]) -> str:
    """``label`` with the tensor it names mapped through ``renames``."""
    for template in (_SINGLE_LABEL, _THREE_LABEL):
        for old, new in renames.items():
            if label == template.format(old):
                return template.format(new)
    return label


def _index_sets(operator: TensorOperator) -> List[Tuple[str, ...]]:
    return [operator.dims_of(tensor.name) for tensor in operator.tensors]


def single_nra_scorer(
    operator: TensorOperator, stationary: str
) -> Callable[[int, int], int]:
    """Per-instance access count of a Single-NRA tile pair ``(t_x, t_y)``.

    ``x``/``y`` are the stationary tensor's dims and the third dim's tile
    is 1, so the trips are ``ceil(D_x/t_x)``, ``ceil(D_y/t_y)`` and
    ``D_z``.  Each tensor is charged its size times the reuse rule
    (:func:`repro.dataflow.cost.reuse_multiplier`) over the stationary
    schedule's order -- the count :func:`repro.dataflow.cost.memory_access`
    gives, with no dataflow built.

    The order is compiled once into slot indices.  Each MM-like tensor
    misses exactly one dim, a different one per tensor, so the rule reduces
    to: the tensor missing the loop in slot ``p`` is re-fetched once per
    trip of that loop when a loop inside it has more than one trip, and
    fetched once otherwise.
    """

    dim_x, dim_y = operator.dims_of(stationary)
    dim_z = _other_dim(operator, (dim_x, dim_y))
    extent_x, extent_y, extent_z = (
        operator.dims[dim] for dim in (dim_x, dim_y, dim_z)
    )
    order = stationary_schedule(operator, stationary).order
    slot_x, slot_y, slot_z = (order.index(dim) for dim in (dim_x, dim_y, dim_z))
    sizes = [0, 0, 0]  # by the slot of the dim the tensor misses
    for tensor in operator.tensors:
        missing = _other_dim(operator, operator.dims_of(tensor.name))
        sizes[order.index(missing)] = tensor.size
    size_0, size_1, size_2 = sizes

    def score(tile_x: int, tile_y: int) -> int:
        trips = [0, 0, 0]
        trips[slot_x] = _ceil_div(extent_x, tile_x)
        trips[slot_y] = _ceil_div(extent_y, tile_y)
        trips[slot_z] = extent_z
        trip_0, trip_1, trip_2 = trips
        return (
            size_0 * (trip_0 if trip_1 * trip_2 > 1 else 1)
            + size_1 * (trip_1 if trip_2 > 1 else 1)
            + size_2
        )

    return score


def _single_nra_impl(
    operator: TensorOperator, stationary: str, buffer_elems: int
) -> Optional[NRACandidate]:
    _require_mm_like(operator)
    dim_x, dim_y = operator.dims_of(stationary)
    dim_z = _other_dim(operator, (dim_x, dim_y))

    constraint = TileConstraint.from_footprint(
        _index_sets(operator), {dim_z: 1}, dim_x, dim_y, buffer_elems
    )
    pairs = pair_candidates(
        (constraint,), operator.dims[dim_x], operator.dims[dim_y]
    )
    if not pairs:
        return None
    score = single_nra_scorer(operator, stationary)
    # min() keeps the first of equal scores, in pair_candidates' order.
    tile_x, tile_y = min(pairs, key=lambda pair: score(*pair))
    return NRACandidate(
        label=_SINGLE_LABEL.format(stationary),
        nra=NRAClass.SINGLE,
        dataflow=Dataflow(
            Tiling({dim_x: tile_x, dim_y: tile_y, dim_z: 1}),
            stationary_schedule(operator, stationary),
        ),
    )


def _two_nra_impl(
    operator: TensorOperator,
    untiled_dim: str,
    maximized_dim: str,
    buffer_elems: int,
) -> Optional[NRACandidate]:
    _require_mm_like(operator)
    dim_y = _other_dim(operator, (untiled_dim, maximized_dim))

    constraint = TileConstraint.from_footprint(
        _index_sets(operator),
        {untiled_dim: operator.dims[untiled_dim], dim_y: 1},
        maximized_dim,
        None,
        buffer_elems,
    )
    tile_x = max_tile((constraint,), operator.dims[maximized_dim])
    if tile_x is None:
        return None
    tiling = Tiling(
        {
            untiled_dim: operator.dims[untiled_dim],
            maximized_dim: tile_x,
            dim_y: 1,
        }
    )
    schedule = Schedule((maximized_dim, dim_y, untiled_dim))
    return NRACandidate(
        label=f"two[untile {untiled_dim}, max {maximized_dim}]",
        nra=NRAClass.TWO,
        dataflow=Dataflow(tiling, schedule),
    )


def _three_nra_impl(
    operator: TensorOperator, resident: str, buffer_elems: int
) -> Optional[NRACandidate]:
    _require_mm_like(operator)
    dim_x, dim_y = operator.dims_of(resident)
    dim_z = _other_dim(operator, (dim_x, dim_y))
    tiling = Tiling(
        {
            dim_x: operator.dims[dim_x],
            dim_y: operator.dims[dim_y],
            dim_z: 1,
        }
    )
    if tiling.buffer_footprint(operator) > buffer_elems:
        return None
    schedule = Schedule((dim_z, dim_x, dim_y))
    return NRACandidate(
        label=_THREE_LABEL.format(resident),
        nra=NRAClass.THREE,
        dataflow=Dataflow(tiling, schedule),
    )


# ----------------------------------------------------------------------
# Memoized public lookups
# ----------------------------------------------------------------------
# Candidates only reference dim names, tensor names, and tile sizes -- all
# part of :func:`repro.core.memo.nra_key` -- so one memoized
# :class:`NRACandidate` is valid for every operator with the same structure
# (sweeps ask for the same shapes at the same buffer sizes thousands of
# times).  A miss computes with the caller's own operator.
def nra_cache_info() -> memo.CacheStats:
    """Counters of the memo's closed-form ``nra`` table."""
    return memo.memo_stats()["nra"]


def single_nra(
    operator: TensorOperator, stationary: str, buffer_elems: int
) -> Optional[NRACandidate]:
    """Principle 1 dataflow with ``stationary`` (tensor name) resident.

    Maximizes the stationary tensor's tile dims jointly, minimizes the
    remaining dim's tile (Eq. 1 / Eq. 2).  Returns ``None`` when even the
    minimal working set overflows the buffer.
    """

    _require_mm_like(operator)
    return memo.memoized(
        "nra",
        memo.nra_key(operator, "single", stationary, buffer_elems),
        lambda: _single_nra_impl(operator, stationary, buffer_elems),
    )


def two_nra(
    operator: TensorOperator,
    untiled_dim: str,
    maximized_dim: str,
    buffer_elems: int,
) -> Optional[NRACandidate]:
    """Principle 2 dataflow: ``untiled_dim`` whole, ``maximized_dim`` grown.

    The redundant tensor is the one containing ``untiled_dim`` but not
    ``maximized_dim``; the other two are accessed exactly once (Eq. 3 /
    Eq. 4).
    """

    _require_mm_like(operator)
    if untiled_dim == maximized_dim:
        raise ValueError("untiled and maximized dims must differ")
    return memo.memoized(
        "nra",
        memo.nra_key(operator, "two", untiled_dim, maximized_dim, buffer_elems),
        lambda: _two_nra_impl(operator, untiled_dim, maximized_dim, buffer_elems),
    )


def three_nra(
    operator: TensorOperator, resident: str, buffer_elems: int
) -> Optional[NRACandidate]:
    """Principle 3 dataflow with tensor ``resident`` held entirely on-chip.

    Both of the resident tensor's dims are untiled; the remaining dim's tile
    does not affect memory access (Principle 3: "Tiling: do not care"), so
    the minimal footprint (tile 1) is used.
    """

    _require_mm_like(operator)
    return memo.memoized(
        "nra",
        memo.nra_key(operator, "three", resident, buffer_elems),
        lambda: _three_nra_impl(operator, resident, buffer_elems),
    )


def all_candidates(
    operator: TensorOperator, buffer_elems: int
) -> List[NRACandidate]:
    """All feasible closed-form candidates (at most twelve)."""
    _require_mm_like(operator)
    candidates: List[NRACandidate] = []
    for tensor in operator.tensors:
        candidate = single_nra(operator, tensor.name, buffer_elems)
        if candidate is not None:
            candidates.append(candidate)
    for untiled in operator.dim_names:
        for maximized in operator.dim_names:
            if maximized == untiled:
                continue
            candidate = two_nra(operator, untiled, maximized, buffer_elems)
            if candidate is not None:
                candidates.append(candidate)
    for tensor in operator.tensors:
        candidate = three_nra(operator, tensor.name, buffer_elems)
        if candidate is not None:
            candidates.append(candidate)
    return candidates


def streaming_dataflow(operator: TensorOperator) -> Dataflow:
    """Trivial non-redundant dataflow for streaming (elementwise) operators."""
    if not is_streaming(operator):
        raise UnsupportedOperatorError(
            f"operator {operator.name!r} is not a streaming operator"
        )
    tiling = Tiling({dim: 1 for dim in operator.dim_names})
    return Dataflow(tiling, Schedule(tuple(operator.dim_names)))
