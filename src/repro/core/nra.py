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
Candidate tile pairs (:func:`pair_candidates`) probe each tile once: the
two balanced seeds, every distinct tile ``ceil(D/n)`` of a dim with extent
at most 2303, and the trip counts +0..4 around the seeds on a larger dim.
They come one per trip pair, the first in sorted order, each with the
trip counts the search computed: a pair's score depends only on its trip
counts, and every caller keeps the first minimum in sorted order
(:func:`first_minimum`).  Single-NRA ranks them by the compiled reuse rule
over the operator's one nest (:func:`repro.dataflow.cost.trip_scorer`,
which also ranks the fused patterns) and builds a :class:`Dataflow` only
for the winner.  The intra-operator optimizer then counts the candidates
through the shared access counter and keeps the minimum; this *is* the
paper's principle-based one-shot optimization, since the candidate count
is a small constant independent of tensor sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..ir.operator import TensorOperator
from ..dataflow.cost import trip_scorer
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


def _largest_free(
    coefficients: Sequence[Tuple[int, int, int, int, int]],
    fixed: int,
    upper: int,
) -> Optional[int]:
    """Largest free tile in [1, upper] fitting with the other at ``fixed``.

    ``coefficients`` are each constraint's ``(a, fixed weight, free
    weight, d, bound)``: ``(a, b, c, d, bound)`` to grow ``y``, ``(a, c, b,
    d, bound)`` to grow ``x`` -- one integer division per constraint.
    """

    for a, fixed_weight, free_weight, d, bound in coefficients:
        slope = a * fixed + free_weight
        room = bound - fixed_weight * fixed - d
        if room < slope:
            return None
        if slope and room // slope < upper:
            upper = room // slope
    return upper


def max_tile(constraints: Sequence[TileConstraint], upper: int) -> Optional[int]:
    """Largest single free tile (``dim_y=None`` constraints) in [1, upper]."""
    grow_x = [(c.a, c.c, c.b, c.d, c.bound) for c in constraints]
    return _largest_free(grow_x, 1, upper)


#: Trip counts +0..4 around each seed are tried on a dim not swept.
_MAX_TRIP_DELTA = 4
#: Largest extent the exactness sweep walks: its distinct tiles number at
#: most ``2*isqrt(D) + 1`` (95 here).
_SWEEP_MAX_EXTENT = 2303


def _distinct_tiles(extent: int) -> Iterator[Tuple[int, int]]:
    """Every distinct ``ceil(extent / n)``, largest first, with its ``n``.

    ``n`` is the smallest trip count giving that tile, so it is the tile's
    own trip count ``ceil(extent / tile)``.
    """

    trips = 1
    while True:
        tile = -(-extent // trips)
        yield tile, trips
        if tile == 1:
            return
        # Smallest trip count yielding a strictly smaller tile.
        trips = -(-extent // (tile - 1))


#: A candidate tile pair ``(t_x, t_y)`` with its trip counts.
PairTrips = Tuple[Tuple[int, int], Tuple[int, int]]


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
    footprint that can lower the partner's trip count.  Each probe fixes
    one tile, grows its partner to the largest feasible tile (one integer
    division per constraint) and snaps it to the smallest tile with the
    same trip count.  The probes are:

    * the two seeds: the balanced tile with its partner grown;
    * on a dim of extent at most 2303, every distinct tile ``ceil(D/n)``
      (about ``2*sqrt(D)`` of them), which makes the list exact over the
      reduced space -- any optimal pair has one tile fixed and the other
      grown to its feasible maximum;
    * on a larger dim, the tiles of the seeds' trip counts plus 0..4.

    The sweep covers every tile the window would try on its dim, so a
    swept dim skips the window and every tile is probed once.  Callers
    rank the list by the reuse rule on its trip counts and build a
    dataflow only for the winner (still a constant amount of work -- no
    design-space search).

    The list is sorted and holds one pair per trip pair ``(ceil(upper_x /
    t_x), ceil(upper_y / t_y))``: the first in sorted order.  A pair's score
    depends only on its trip pair and callers keep the first minimum in
    sorted order, so no other pair of a trip pair can win.
    """

    return [pair for pair, _ in _pair_trips(constraints, upper_x, upper_y)]


def _pair_trips(
    constraints: Sequence[TileConstraint],
    upper_x: int,
    upper_y: int,
) -> List[PairTrips]:
    """:func:`pair_candidates`' list, each pair with its trip counts."""

    balanced = [c.max_balanced(upper_x, upper_y) for c in constraints]
    if None in balanced:
        return []
    base = min(balanced)
    # The coefficients, bound once: x fixed and y grown, and the reverse.
    grow_y = [(c.a, c.b, c.c, c.d, c.bound) for c in constraints]
    grow_x = [(c.a, c.c, c.b, c.d, c.bound) for c in constraints]
    seeds: List[Tuple[int, int]] = []
    tx = min(base, upper_x)
    grown_y = _largest_free(grow_y, tx, upper_y)
    if grown_y is not None:
        seeds.append((tx, grown_y))
    ty = min(base, upper_y)
    grown_x = _largest_free(grow_x, ty, upper_x)
    if grown_x is not None:
        seeds.append((grown_x, ty))
    if not seeds:
        return []

    # The first pair in sorted order of each trip pair; no other can win.
    # Every probe lies in [1, upper] and fits every constraint: each
    # partner tile is grown, or snapped below its grown size.  A probe's
    # tiles are both ``ceil(D/n)`` of their trip counts, the least tiles
    # with those trips, so its pair is the first of its trip pair and
    # replaces whatever is kept; only a seed needs comparing.
    by_trips: Dict[Tuple[int, int], Tuple[int, int]] = {}

    def probe_x(tile_x: int, trips_x: int) -> None:
        """Fix ``tile_x`` (``trips_x`` trips), grow and snap y."""
        grown = _largest_free(grow_y, tile_x, upper_y)
        if grown is not None:
            trips_y = -(-upper_y // grown)
            by_trips[trips_x, trips_y] = (tile_x, -(-upper_y // trips_y))

    def probe_y(tile_y: int, trips_y: int) -> None:
        """Fix ``tile_y`` (``trips_y`` trips), grow and snap x."""
        grown = _largest_free(grow_x, tile_y, upper_x)
        if grown is not None:
            trips_x = -(-upper_x // grown)
            by_trips[trips_x, trips_y] = (-(-upper_x // trips_x), tile_y)

    sweep_x = upper_x <= _SWEEP_MAX_EXTENT
    sweep_y = upper_y <= _SWEEP_MAX_EXTENT
    for seed_x, seed_y in seeds:
        trips_x = -(-upper_x // seed_x)
        trips_y = -(-upper_y // seed_y)
        kept = by_trips.get((trips_x, trips_y))
        if kept is None or (seed_x, seed_y) < kept:
            by_trips[trips_x, trips_y] = (seed_x, seed_y)
        for delta in range(_MAX_TRIP_DELTA + 1):
            if not sweep_x:
                # Coarsen x's trips, regrow and snap y.
                tile_x = -(-upper_x // (trips_x + delta))
                probe_x(tile_x, -(-upper_x // tile_x))
            if not sweep_y:
                # Coarsen y's trips, regrow and snap x.
                tile_y = -(-upper_y // (trips_y + delta))
                probe_y(tile_y, -(-upper_y // tile_y))
    if sweep_x:
        for tile_x, trips_x in _distinct_tiles(upper_x):
            probe_x(tile_x, trips_x)
    if sweep_y:
        for tile_y, trips_y in _distinct_tiles(upper_y):
            probe_y(tile_y, trips_y)
    return sorted(zip(by_trips.values(), by_trips.keys()), key=itemgetter(0))


def first_minimum(
    candidates: Iterable[PairTrips],
    score: Callable[[int, int], Optional[int]],
) -> Optional[Tuple[int, Tuple[int, int]]]:
    """``(score, pair)`` of the first candidate scoring least.

    ``score`` takes a candidate's trip counts; a ``None`` score (a fused
    intermediate re-fetched) never wins.  ``None`` when nothing scores.
    """

    best: Optional[Tuple[int, Tuple[int, int]]] = None
    for pair, (trip_x, trip_y) in candidates:
        total = score(trip_x, trip_y)
        if total is not None and (best is None or total < best[0]):
            best = (total, pair)
    return best


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


# The ``_*_impl`` constructors take an MM-like operator: the public lookups
# below check it, and :func:`all_candidates` checks it once for all twelve.
def _single_nra_impl(
    operator: TensorOperator, stationary: str, buffer_elems: int
) -> Optional[NRACandidate]:
    dim_x, dim_y = operator.dims_of(stationary)
    dim_z = _other_dim(operator, (dim_x, dim_y))

    fixed = {dim_z: 1}
    index_sets = _index_sets(operator)
    constraint = TileConstraint.from_footprint(
        index_sets, fixed, dim_x, dim_y, buffer_elems
    )
    candidates = _pair_trips(
        (constraint,), operator.dims[dim_x], operator.dims[dim_y]
    )
    if not candidates:
        return None
    schedule = stationary_schedule(operator, stationary)
    tensors = [
        (tensor.name, dims, tensor.size, False)
        for tensor, dims in zip(operator.tensors, index_sets)
    ]
    score = trip_scorer(
        ((schedule.order, tensors),), operator.dims, fixed, dim_x, dim_y
    )
    _, (tile_x, tile_y) = first_minimum(candidates, score)
    return NRACandidate(
        label=_SINGLE_LABEL.format(stationary),
        nra=NRAClass.SINGLE,
        dataflow=Dataflow(
            Tiling({dim_x: tile_x, dim_y: tile_y, dim_z: 1}), schedule
        ),
    )


def _two_nra_impl(
    operator: TensorOperator,
    untiled_dim: str,
    maximized_dim: str,
    buffer_elems: int,
) -> Optional[NRACandidate]:
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
    """All feasible closed-form candidates (at most twelve).

    The operator is checked and its key prefix built once; each candidate
    is then looked up in the ``nra`` table under the key, and in the order,
    the public constructors use.
    """

    _require_mm_like(operator)
    prefix = memo.nra_key(operator)
    candidates: List[NRACandidate] = []

    def add(kind: str, impl: Callable[..., Optional[NRACandidate]], *args: str):
        candidate = memo.memoized(
            "nra",
            prefix + (kind, *args, buffer_elems),
            lambda: impl(operator, *args, buffer_elems),
        )
        if candidate is not None:
            candidates.append(candidate)

    for tensor in operator.tensors:
        add("single", _single_nra_impl, tensor.name)
    for untiled in operator.dim_names:
        for maximized in operator.dim_names:
            if maximized != untiled:
                add("two", _two_nra_impl, untiled, maximized)
    for tensor in operator.tensors:
        add("three", _three_nra_impl, tensor.name)
    return candidates


def streaming_dataflow(operator: TensorOperator) -> Dataflow:
    """Trivial non-redundant dataflow for streaming (elementwise) operators."""
    if not is_streaming(operator):
        raise UnsupportedOperatorError(
            f"operator {operator.name!r} is not a streaming operator"
        )
    tiling = Tiling({dim: 1 for dim in operator.dim_names})
    return Dataflow(tiling, Schedule(tuple(operator.dim_names)))
