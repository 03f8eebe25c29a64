"""Closed-form NRA dataflow constructors (paper Sec. III-A).

For an MM-like operator (three loop dims, three rank-2 operands, each
indexed by a distinct dim pair) there are exactly twelve candidate optimal
dataflows:

* 3 Single-NRA -- one per stationary-tensor choice (Principle 1),
* 6 Two-NRA   -- one per (untiled dim, maximized dim) pair (Principle 2),
* 3 Three-NRA -- one per fully-resident tensor choice (Principle 3).

Each candidate is a role map over the operator's dims (:class:`Role`):
Single[t] maximizes t's dims, Two[u, x] leaves u whole and maximizes x,
Three[t] leaves t's dims whole, and every other dim is minimized.  One
builder, :func:`role_tiles`, turns a role map into tiles under capacity
constraints; the fused patterns of :mod:`repro.core.fusion` and the
untile / resident / stream families of :mod:`repro.core.generic` are
tiled by it too.  The footprint (Eq. 2 / Eq. 4) is compiled once into the
integer coefficients of ``a*x*y + b*x + c*y + d`` over the free tiles
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
from enum import Enum
from operator import itemgetter
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
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
    remaining = operator.dims.keys() - dims
    if len(remaining) != 1:
        raise UnsupportedOperatorError(
            f"dims {dims} do not leave a unique remaining dim in "
            f"{operator.dim_names}"
        )
    return remaining.pop()


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


class TileConstraint(NamedTuple):
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
            weight, in_x, in_y = 1, 0, 0
            for dim in dims:
                if dim == dim_x:
                    in_x += 1
                elif dim == dim_y:
                    in_y += 1
                else:
                    weight *= fixed[dim]
            if in_x > 1 or in_y > 1:
                raise UnsupportedOperatorError(
                    f"index set {tuple(dims)} repeats a free dim; its "
                    "footprint is not bilinear"
                )
            coefficients[3 - 2 * in_x - in_y] += weight
        return cls(*coefficients, bound)

    def fits(self, x: int, y: int) -> bool:
        return self.a * x * y + self.b * x + self.c * y + self.d <= self.bound

    def max_balanced(self, upper_x: int, upper_y: int) -> Optional[int]:
        """Largest ``t`` with ``(min(t, upper_x), min(t, upper_y))`` fitting.

        ``t`` ranges over [1, max(upper_x, upper_y)].  Past the smaller
        extent one tile is pinned and the other grows (affine); below it
        both grow together, solving ``a*t^2 + (b+c)*t + d <= bound``.
        """

        edge = min(upper_x, upper_y)
        if self.fits(edge, edge):
            if upper_x < upper_y:
                grow_y = (self.a, self.b, self.c, self.d, self.bound)
                return _largest_free((grow_y,), upper_x, upper_y)
            if upper_y < upper_x:
                grow_x = (self.a, self.c, self.b, self.d, self.bound)
                return _largest_free((grow_x,), upper_y, upper_x)
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

    best_total: Optional[int] = None
    best_pair = (0, 0)
    for pair, (trip_x, trip_y) in candidates:
        total = score(trip_x, trip_y)
        if total is not None and (best_total is None or total < best_total):
            best_total, best_pair = total, pair
    return None if best_total is None else (best_total, best_pair)


# ----------------------------------------------------------------------
# Role-map tile builder
# ----------------------------------------------------------------------
class Role(Enum):
    """Tiling role of a loop dim: the principles' per-dim recipe."""

    MAXIMIZE = "max"
    MINIMIZE = "min"
    UNTILE = "untile"


class RoleTiles(NamedTuple):
    """A role map's fixed tiles, free dims and capacity-feasible free tiles.

    ``candidates`` holds ``((t_x, t_y), (trip_x, trip_y))`` for the free
    dims ``dim_x``/``dim_y`` (a missing free dim's tile and trip are 1),
    sorted by tile pair; it is empty when even the minimal tiles overflow.
    """

    fixed: Dict[str, int]
    dim_x: Optional[str]
    dim_y: Optional[str]
    candidates: List[PairTrips]

    def tiles(self, pair: Tuple[int, int]) -> Dict[str, int]:
        """Every dim's tile: the fixed tiles, then ``pair``'s free tiles."""
        tiles = dict(self.fixed)
        if self.dim_x is not None:
            tiles[self.dim_x] = pair[0]
        if self.dim_y is not None:
            tiles[self.dim_y] = pair[1]
        return tiles


def role_tiles(
    extents: Mapping[str, int],
    roles: Mapping[str, Role],
    capacity: Iterable[Tuple[Iterable[Sequence[str]], int]],
) -> RoleTiles:
    """The tiles of a role map under capacity constraints.

    UNTILE dims take their extent and MINIMIZE dims tile 1; the MAXIMIZE
    dims (at most two, ``dim_x`` then ``dim_y`` in ``roles`` order) grow
    under every ``(index sets, bound)`` of ``capacity``: the sum over the
    index sets of their tiles' products is at most ``bound``.  Two free
    dims get every pair :func:`_pair_trips` yields, one gets its largest
    feasible tile, none gets the fixed tiles if they fit.
    """

    if roles.keys() != extents.keys():
        raise UnsupportedOperatorError(
            f"roles for {sorted(roles)} do not cover the dims {sorted(extents)}"
        )
    fixed: Dict[str, int] = {}
    free: List[str] = []
    maximize, untile = Role.MAXIMIZE, Role.UNTILE  # one enum lookup each
    for dim, role in roles.items():
        if role is maximize:
            free.append(dim)
        else:
            fixed[dim] = extents[dim] if role is untile else 1
    if len(free) > 2:
        raise UnsupportedOperatorError(
            f"roles maximize {len(free)} dims; at most 2 supported"
        )
    dim_x, dim_y = (free + [None, None])[:2]
    constraints = [
        TileConstraint.from_footprint(index_sets, fixed, dim_x, dim_y, bound)
        for index_sets, bound in capacity
    ]
    if dim_y is not None:
        candidates = _pair_trips(constraints, extents[dim_x], extents[dim_y])
    else:
        # With no free dim every tile is fixed, and they fit iff "tile 1" does.
        upper = 1 if dim_x is None else extents[dim_x]
        tile = max_tile(constraints, upper)
        candidates = [] if tile is None else [((tile, 1), (-(-upper // tile), 1))]
    return RoleTiles(fixed, dim_x, dim_y, candidates)


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


#: Each candidate kind's roles for its two named dims, then the remaining
#: dim (Principles 1-3).  Single[t] and Three[t] name t's dims; Two[u, x]
#: names the untiled dim u, then the maximized dim x.
_KIND_ROLES = {
    "single": (Role.MAXIMIZE, Role.MAXIMIZE, Role.MINIMIZE),
    "two": (Role.UNTILE, Role.MAXIMIZE, Role.MINIMIZE),
    "three": (Role.UNTILE, Role.UNTILE, Role.MINIMIZE),
}


def _solve(
    operator: TensorOperator,
    kind: str,
    args: Tuple[str, ...],
    buffer_elems: int,
) -> Optional[NRACandidate]:
    """One candidate of an MM-like operator, built from its role map.

    ``kind`` and ``args`` are the question :func:`memo.nra_key` keys:
    ``("single", t)``, ``("two", u, x)`` or ``("three", t)``.  The roles
    come from :data:`_KIND_ROLES`; the schedules are t's stationary one,
    ``(x, other, u)`` and ``(other, t's dims)``.  Only Single grows two
    dims; its pairs are ranked by the reuse rule on its one nest and the
    first minimum kept.  The caller checks that the operator is MM-like.
    """

    first, second = args if kind == "two" else operator.dims_of(args[0])
    other = _other_dim(operator, (first, second))
    if kind == "single":
        schedule = stationary_schedule(operator, args[0])
        label, nra = _SINGLE_LABEL.format(args[0]), NRAClass.SINGLE
    elif kind == "two":
        schedule = Schedule((second, other, first))
        label, nra = f"two[untile {first}, max {second}]", NRAClass.TWO
    else:
        schedule = Schedule((other, first, second))
        label, nra = _THREE_LABEL.format(args[0]), NRAClass.THREE
    dims = (first, second, other)
    index_sets = _index_sets(operator)
    tiles = role_tiles(
        operator.dims,
        dict(zip(dims, _KIND_ROLES[kind])),
        ((index_sets, buffer_elems),),
    )
    if not tiles.candidates:
        return None
    pair = tiles.candidates[0][0]
    if tiles.dim_y is not None:
        tensors = [
            (tensor.name, index, tensor.size, False)
            for tensor, index in zip(operator.tensors, index_sets)
        ]
        score = trip_scorer(
            ((schedule.order, tensors),), operator.dims,
            tiles.fixed, tiles.dim_x, tiles.dim_y,
        )
        _, pair = first_minimum(tiles.candidates, score)
    resolved = tiles.tiles(pair)
    tiling = Tiling({dim: resolved[dim] for dim in dims})
    return NRACandidate(label=label, nra=nra, dataflow=Dataflow(tiling, schedule))


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


def _lookup(
    operator: TensorOperator,
    kind: str,
    args: Tuple[str, ...],
    buffer_elems: int,
) -> Optional[NRACandidate]:
    return memo.memoized(
        "nra",
        memo.nra_key(operator, kind, *args, buffer_elems),
        lambda: _solve(operator, kind, args, buffer_elems),
    )


def single_nra(
    operator: TensorOperator, stationary: str, buffer_elems: int
) -> Optional[NRACandidate]:
    """Principle 1 dataflow with ``stationary`` (tensor name) resident.

    Maximizes the stationary tensor's tile dims jointly, minimizes the
    remaining dim's tile (Eq. 1 / Eq. 2).  Returns ``None`` when even the
    minimal working set overflows the buffer.
    """

    _require_mm_like(operator)
    return _lookup(operator, "single", (stationary,), buffer_elems)


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
    return _lookup(operator, "two", (untiled_dim, maximized_dim), buffer_elems)


def three_nra(
    operator: TensorOperator, resident: str, buffer_elems: int
) -> Optional[NRACandidate]:
    """Principle 3 dataflow with tensor ``resident`` held entirely on-chip.

    Both of the resident tensor's dims are untiled; the remaining dim's tile
    does not affect memory access (Principle 3: "Tiling: do not care"), so
    the minimal footprint (tile 1) is used.
    """

    _require_mm_like(operator)
    return _lookup(operator, "three", (resident,), buffer_elems)


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

    def add(kind: str, *args: str) -> None:
        candidate = memo.memoized(
            "nra",
            prefix + (kind, *args, buffer_elems),
            lambda: _solve(operator, kind, args, buffer_elems),
        )
        if candidate is not None:
            candidates.append(candidate)

    for tensor in operator.tensors:
        add("single", tensor.name)
    for untiled in operator.dim_names:
        for maximized in operator.dim_names:
            if maximized != untiled:
                add("two", untiled, maximized)
    for tensor in operator.tensors:
        add("three", tensor.name)
    return candidates


def streaming_dataflow(operator: TensorOperator) -> Dataflow:
    """Trivial non-redundant dataflow for streaming (elementwise) operators."""
    if not is_streaming(operator):
        raise UnsupportedOperatorError(
            f"operator {operator.name!r} is not a streaming operator"
        )
    tiling = Tiling({dim: 1 for dim in operator.dim_names})
    return Dataflow(tiling, Schedule(tuple(operator.dim_names)))
