"""Principle-based inter-operator (fusion) optimization (paper Sec. III-B).

Fused dataflows are generated from a small set of *patterns*, one per arrow
of paper Fig. 4, expressed as a role assignment over the fused chain's
global dimensions:

====================== ======================================= ==========
pattern                roles                                    Fig. 4
====================== ======================================= ==========
single-osis            common MAX/MAX, privates MIN             (a)
two-osis[x]            common x MAX, other MIN, privates UNTILE (b)
two-untile[u]          common u UNTILE, other MAX, privates MIN (c)
three-untile[u]        common u UNTILE, other MIN, priv. UNTILE (d)
three-resident         common UNTILE/UNTILE, privates MIN       (e)
cross-*                mixed per-operator classes               red arrows
====================== ======================================= ==========

(`common` dims are the intermediate tensor's dimensions; `private` dims
belong to a single operator, e.g. MM1's reduction K and MM2's output N.)

Tile sizes for MAXIMIZE roles are solved in closed form by the builder
that tiles the intra candidates, :func:`repro.core.nra.role_tiles`, from
the integer coefficients of the fused buffer footprint (and, for
compute-unit fusion, of each intermediate's register footprint) -- no
search.  The chain's structure
is derived once per search.  Each pattern's tile list is built once per
medium, with the trip counts the pair search computed, and scored under
every shared-loop order by the reuse rule Single-NRA ranks with too
(:func:`repro.dataflow.cost.trip_scorer`, compiled once per pattern and
order), skipping any tiling that breaks the fusability requirement
(non-redundant intermediates).
:func:`optimize_fused` scores every candidate and builds one winner: only
it becomes a :class:`FusedDataflow`, counted and classified per operator
in one pass by :func:`repro.dataflow.fusion_nest.fused_memory_access`.

:func:`decide_fusion` compares the best fused dataflow against the sum of
the operators' unfused optima, solved once per operator, and reports both
the measured profitability and the Principle 4 prediction (same NRA class).
:func:`cached_optimize_fused` answers :func:`optimize_fused`'s question
through the memo's ``fused`` table (:mod:`repro.core.memo`).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from ..ir.operator import TensorOperator, validate_buffer_elems
from ..dataflow.cost import (
    Nest,
    PartialSumConvention,
    trip_scorer,
)
from ..dataflow.fusion_nest import (
    FusedAccessReport,
    FusedChain,
    FusedDataflow,
    FusionError,
    fused_memory_access,
)
from ..dataflow.spec import NRAClass
from ..dataflow.tiling import Tiling
from . import memo
from .intra import IntraResult, optimize_intra
from .nra import Role, RoleTiles, first_minimum, role_tiles
from .principles import principle4_predicts


class FusionMedium(Enum):
    """Where the intermediate tensor's tile lives during fused execution.

    Paper Table I's differentiator: prior fusion frameworks (Chimera, SET,
    FLAT, DAT) keep the intermediate in the on-chip *memory* buffer; FuseCU
    holds it in the *compute unit* (PE accumulators/registers), which frees
    the buffer capacity the tile would have consumed -- letting the other
    tensors take larger tiles -- at the cost of the tile having to fit the
    register file.
    """

    MEMORY = "memory"
    COMPUTE_UNIT = "compute_unit"
    #: Try both media per pattern and keep the better dataflow -- FuseCU
    #: hardware supports register-resident intermediates *in addition to*
    #: ordinary buffered ones, so its space is the union.
    BEST = "best"


@dataclass(frozen=True)
class FusedPattern:
    """A named role assignment over a chain's global dimensions."""

    label: str
    roles: Mapping[str, Role]
    cross_nra: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "roles", dict(self.roles))


@dataclass(frozen=True)
class FusedResult:
    """Best fused dataflow found for a chain."""

    chain: FusedChain
    pattern: FusedPattern
    dataflow: FusedDataflow
    report: FusedAccessReport
    #: Where the intermediate tiles lived when this dataflow was solved
    #: (never :attr:`FusionMedium.BEST`; that is resolved per candidate).
    medium: FusionMedium = FusionMedium.MEMORY
    #: Attached by :func:`repro.verify.certify_fused`; typed loosely
    #: because :mod:`repro.verify` sits above :mod:`repro.core`.
    certificate: Optional[Any] = field(default=None, compare=False)

    @property
    def memory_access(self) -> int:
        return self.report.total

    @property
    def per_op_nra(self) -> Tuple[NRAClass, ...]:
        """NRA class each operator experiences inside the fused nest."""
        return self.report.per_op_nra

    def describe(self) -> str:
        ops = "+".join(op.name for op in self.chain.ops)
        return (
            f"fused[{ops}] pattern={self.pattern.label} "
            f"MA={self.memory_access} [{self.dataflow.describe(self.chain)}]"
        )


# ----------------------------------------------------------------------
# Pattern generation
# ----------------------------------------------------------------------
def profitable_patterns(chain: FusedChain) -> List[FusedPattern]:
    """The five same-NRA patterns of Fig. 4 (green arrows), both orientations."""
    common = chain.common_dims
    if len(common) != 2:
        raise FusionError(
            f"fused patterns require exactly two common dims; chain has "
            f"{common}"
        )
    privates = [dim for dims in chain.private_orders.values() for dim in dims]
    first, second = common
    patterns: List[FusedPattern] = []

    def make(label: str, common_roles: Dict[str, Role], private_role: Role) -> None:
        roles = dict(common_roles)
        roles.update({dim: private_role for dim in privates})
        patterns.append(FusedPattern(label=label, roles=roles))

    make(
        "single-osis",
        {first: Role.MAXIMIZE, second: Role.MAXIMIZE},
        Role.MINIMIZE,
    )
    for maximized, minimized in ((first, second), (second, first)):
        make(
            f"two-osis[{maximized}]",
            {maximized: Role.MAXIMIZE, minimized: Role.MINIMIZE},
            Role.UNTILE,
        )
    for untiled, maximized in ((first, second), (second, first)):
        make(
            f"two-untile[{untiled}]",
            {untiled: Role.UNTILE, maximized: Role.MAXIMIZE},
            Role.MINIMIZE,
        )
    for untiled, minimized in ((first, second), (second, first)):
        make(
            f"three-untile[{untiled}]",
            {untiled: Role.UNTILE, minimized: Role.MINIMIZE},
            Role.UNTILE,
        )
    make(
        "three-resident",
        {first: Role.UNTILE, second: Role.UNTILE},
        Role.MINIMIZE,
    )
    return patterns


def cross_patterns(chain: FusedChain) -> List[FusedPattern]:
    """Cross-NRA fusable patterns (Fig. 4 red arrows), for pairs only.

    These are feasible but predicted non-profitable by Principle 4; they are
    generated so the profitability claim can be *demonstrated* rather than
    assumed (see ``benchmarks/test_ablation_fusion.py``).
    """

    if len(chain.ops) != 2:
        return []
    common = chain.common_dims
    if len(common) != 2:
        return []
    first, second = common
    producer_privates, consumer_privates = chain.private_orders.values()
    patterns: List[FusedPattern] = []

    def make(label: str, roles: Dict[str, Role]) -> None:
        patterns.append(FusedPattern(label=label, roles=roles, cross_nra=True))

    # Producer Single-NRA (private dim tiled) + consumer Two-NRA (private
    # dim untiled), and the mirror image.
    base = {first: Role.MAXIMIZE, second: Role.MAXIMIZE}
    make(
        "cross-single+two",
        {
            **base,
            **{dim: Role.MINIMIZE for dim in producer_privates},
            **{dim: Role.UNTILE for dim in consumer_privates},
        },
    )
    make(
        "cross-two+single",
        {
            **base,
            **{dim: Role.UNTILE for dim in producer_privates},
            **{dim: Role.MINIMIZE for dim in consumer_privates},
        },
    )
    # Producer Two-NRA untiling a common dim + consumer Three-NRA (its
    # private dim untiled as well), and the mirror image.
    for untiled, maximized in ((first, second), (second, first)):
        make(
            f"cross-two+three[{untiled}]",
            {
                untiled: Role.UNTILE,
                maximized: Role.MAXIMIZE,
                **{dim: Role.MINIMIZE for dim in producer_privates},
                **{dim: Role.UNTILE for dim in consumer_privates},
            },
        )
        make(
            f"cross-three+two[{untiled}]",
            {
                untiled: Role.UNTILE,
                maximized: Role.MAXIMIZE,
                **{dim: Role.UNTILE for dim in producer_privates},
                **{dim: Role.MINIMIZE for dim in consumer_privates},
            },
        )
    return patterns


# ----------------------------------------------------------------------
# Tile solving and evaluation
# ----------------------------------------------------------------------
def _shared_order(chain: FusedChain, roles: Mapping[str, Role]) -> Tuple[str, ...]:
    """Default shared-loop order: role priority (MAXIMIZE outermost).

    This is a sensible default for solving a single pattern, but it is not
    always the cheapest order -- a tensor indexed by only one common dim is
    re-swept by common loops ordered before that dim, so
    :func:`optimize_fused` enumerates every permutation of the (two) common
    dims rather than trusting this heuristic (the ROADMAP counterexample
    m=43,k=2,l=19,n=23 @ 173 needs the non-priority order to reach the
    branch-and-bound optimum).
    """

    priority = {Role.MAXIMIZE: 0, Role.MINIMIZE: 1, Role.UNTILE: 2}
    return tuple(
        sorted(chain.common_dims, key=lambda dim: priority[roles[dim]])
    )


class _ChainStructure(NamedTuple):
    """What the fused search reads of a chain, derived once per search:
    each operator's private loop order (the chain's own), and per concrete
    medium the index sets of the buffer footprint and of each register-held
    tile."""

    chain: FusedChain
    private_orders: Mapping[str, Tuple[str, ...]]
    capacity_axes: Dict[FusionMedium, Tuple[List[Tuple[str, ...]], ...]]

    def nests(self, shared_order: Sequence[str]) -> Tuple[Nest, ...]:
        """Each operator's nest as :func:`repro.dataflow.cost.trip_scorer`
        reads it: the (common) shared loops, then its own, over the chain's
        tensors (intermediates resident)."""
        return tuple(
            (tuple(shared_order) + self.private_orders[op.name], tensors)
            for op, tensors in zip(self.chain.ops, self.chain.op_tensors)
        )

    def dataflow(
        self,
        tiles: RoleTiles,
        pair: Tuple[int, int],
        shared_order: Tuple[str, ...],
    ) -> FusedDataflow:
        """The fused dataflow of ``tiles`` with free tiles ``pair``."""
        return FusedDataflow(
            shared_order=shared_order,
            private_orders=self.private_orders,
            tiling=Tiling(tiles.tiles(pair)),
        )


def _chain_structure(chain: FusedChain) -> _ChainStructure:
    intermediates = tuple(tensor.name for tensor in chain.intermediates())
    return _ChainStructure(
        chain=chain,
        private_orders=chain.private_orders,
        capacity_axes={
            FusionMedium.MEMORY: (chain.buffered_axes(), []),
            FusionMedium.COMPUTE_UNIT: (
                chain.buffered_axes(intermediates),
                [chain.tensor_axes(name) for name in intermediates],
            ),
        },
    )


def _pattern_tiles(
    structure: _ChainStructure,
    pattern: FusedPattern,
    buffer_elems: int,
    medium: FusionMedium,
    register_elems: Optional[int],
) -> RoleTiles:
    """A pattern's tiles under the capacity of ``medium``: the buffer
    footprint, and under COMPUTE_UNIT each intermediate's tile against the
    registers instead.  None of it depends on the shared-loop order."""

    if medium is FusionMedium.BEST:
        raise FusionError(
            "solve_pattern takes a concrete medium; BEST is resolved by "
            "optimize_fused"
        )
    if medium is FusionMedium.COMPUTE_UNIT and register_elems is None:
        raise FusionError("compute-unit fusion needs register_elems")
    buffer_axes, register_axes = structure.capacity_axes[medium]
    capacity = [(buffer_axes, buffer_elems)]
    capacity += [([axes], register_elems) for axes in register_axes]
    return role_tiles(structure.chain.global_dims, pattern.roles, capacity)


def solve_pattern(
    chain: FusedChain,
    pattern: FusedPattern,
    buffer_elems: int,
    medium: FusionMedium = FusionMedium.MEMORY,
    register_elems: Optional[int] = None,
    shared_order: Optional[Tuple[str, ...]] = None,
) -> Optional[FusedDataflow]:
    """Resolve a pattern's MAXIMIZE tiles against the capacity constraints.

    With :attr:`FusionMedium.MEMORY` every tile (intermediates included)
    consumes buffer.  With :attr:`FusionMedium.COMPUTE_UNIT` the
    intermediate tiles live in the PE accumulators instead: they are
    excluded from the buffer footprint but must each fit ``register_elems``
    (the group's accumulator count).  Returns the fusable candidate of
    least access count (the first in sorted tile order on a tie), or
    ``None`` when even the minimal tiles overflow or no candidate fuses.

    ``shared_order`` fixes the order of the shared (common-dim) loops;
    ``None`` uses the role-priority default (:func:`_shared_order`).  The
    order never changes feasibility (the footprint is order-invariant) but
    does change cost when a tensor is indexed by only one common dim, so
    callers chasing the exact optimum must try every permutation.
    """

    structure = _chain_structure(chain)
    tiles = _pattern_tiles(structure, pattern, buffer_elems, medium, register_elems)
    if not tiles.candidates:
        return None
    if shared_order is None:
        shared_order = _shared_order(chain, pattern.roles)
    # Every candidate shares the dataflow's structure: check it once.
    structure.dataflow(tiles, tiles.candidates[0][0], shared_order).validate(chain)
    score = trip_scorer(
        structure.nests(shared_order), chain.global_dims,
        tiles.fixed, tiles.dim_x, tiles.dim_y,
    )
    best = first_minimum(tiles.candidates, score)
    if best is None:
        return None
    return structure.dataflow(tiles, best[1], shared_order)


def optimize_fused(
    ops: Sequence[TensorOperator],
    buffer_elems: int,
    include_cross: bool = False,
    convention: PartialSumConvention = PartialSumConvention.SINGLE,
    medium: FusionMedium = FusionMedium.MEMORY,
    register_elems: Optional[int] = None,
) -> Optional[FusedResult]:
    """Best fused dataflow for a chain, or ``None`` if none fits/fuses.

    Every pattern is solved under *both* shared-loop orders: the order does
    not affect feasibility but does affect cost whenever a tensor is indexed
    by only one common dim, and the cheaper order is not always the
    role-priority one (the ROADMAP counterexample needed the reduction-dim-
    outermost order to match branch and bound).

    Every candidate is scored and one winner is built: the first strict
    minimum in pattern -> medium -> order order is the only dataflow built,
    recounted and classified.  Under :attr:`PartialSumConvention.SINGLE`
    the score is the fused total per instance; under other conventions
    each order's winner is recounted to rank it.  :func:`repro.verify.certify_fused`
    checks the answer independently.
    """

    buffer_elems = validate_buffer_elems(buffer_elems)
    chain = FusedChain.from_ops(ops)
    if len(chain.common_dims) != 2:
        return None
    patterns = profitable_patterns(chain)
    if include_cross:
        patterns = patterns + cross_patterns(chain)
    if medium is FusionMedium.BEST:
        media = (FusionMedium.MEMORY, FusionMedium.COMPUTE_UNIT)
    else:
        media = (medium,)
    structure = _chain_structure(chain)
    shared_orders = tuple(itertools.permutations(chain.common_dims))
    nests = {order: structure.nests(order) for order in shared_orders}
    # (total, pattern, medium, dataflow builder) of the first strict
    # minimum, in pattern -> medium -> order order.
    best: Optional[Tuple[int, FusedPattern, FusionMedium, Callable]] = None
    validated = False
    for pattern in patterns:
        scorers: Dict[Tuple[str, ...], Callable[[int, int], Optional[int]]] = {}
        for active_medium in media:
            tiles = _pattern_tiles(
                structure, pattern, buffer_elems, active_medium, register_elems
            )
            if not tiles.candidates:
                continue
            if not validated:
                # Every candidate shares the dataflow's structure: check it once.
                structure.dataflow(
                    tiles, tiles.candidates[0][0], shared_orders[0]
                ).validate(chain)
                validated = True
            for shared_order in shared_orders:
                if shared_order not in scorers:
                    scorers[shared_order] = trip_scorer(
                        nests[shared_order], chain.global_dims,
                        tiles.fixed, tiles.dim_x, tiles.dim_y,
                    )
                found = first_minimum(tiles.candidates, scorers[shared_order])
                if found is None:
                    continue
                total, pair = found
                build = functools.partial(
                    structure.dataflow, tiles, pair, shared_order
                )
                if convention is not PartialSumConvention.SINGLE:
                    # The score ranks fused totals under SINGLE only.
                    total = fused_memory_access(chain, build(), convention).total
                if best is None or total < best[0]:
                    best = (total, pattern, active_medium, build)
    if best is None:
        return None
    _, pattern, active_medium, build = best
    dataflow = build()
    return FusedResult(
        chain=chain,
        pattern=pattern,
        dataflow=dataflow,
        report=fused_memory_access(chain, dataflow, convention),
        medium=active_medium,
    )


def cached_optimize_fused(
    ops: Sequence[TensorOperator],
    buffer_elems: int,
    convention: PartialSumConvention = PartialSumConvention.SINGLE,
    medium: FusionMedium = FusionMedium.MEMORY,
    register_elems: Optional[int] = None,
) -> Optional[FusedResult]:
    """:func:`optimize_fused` backed by the memo's ``fused`` table.

    Infeasible outcomes (``None``) are cached too -- the enumerative DAG
    mapper asks about the same impossible segment across many candidate
    partitions, and re-deriving "does not fit" each time is as expensive
    as re-deriving a feasible dataflow.
    """

    key = (
        tuple((op.name, memo.operator_signature(op)) for op in ops),
        buffer_elems,
        convention.value,
        medium.value,
        register_elems,
    )
    return memo.memoized(
        "fused",
        key,
        lambda: optimize_fused(
            list(ops),
            buffer_elems,
            convention=convention,
            medium=medium,
            register_elems=register_elems,
        ),
    )


# ----------------------------------------------------------------------
# Profitability
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FusionDecision:
    """Measured and predicted profitability of fusing a chain."""

    ops: Tuple[TensorOperator, ...]
    fused: Optional[FusedResult]
    unfused: Tuple[IntraResult, ...]
    predicted_profitable: bool

    @property
    def unfused_memory_access(self) -> int:
        return sum(result.memory_access for result in self.unfused)

    @property
    def fused_memory_access(self) -> Optional[int]:
        return self.fused.memory_access if self.fused else None

    @property
    def profitable(self) -> bool:
        """Measured: does the best fused dataflow beat the unfused optima?"""
        return (
            self.fused is not None
            and self.fused.memory_access < self.unfused_memory_access
        )

    @property
    def saving(self) -> float:
        """Fractional MA saving of fusion (0 when not profitable)."""
        if not self.profitable:
            return 0.0
        assert self.fused is not None
        return 1.0 - self.fused.memory_access / self.unfused_memory_access

    def describe(self) -> str:
        ops = "+".join(op.name for op in self.ops)
        fused_ma = self.fused_memory_access
        return (
            f"fusion[{ops}]: unfused MA={self.unfused_memory_access}, "
            f"fused MA={fused_ma}, profitable={self.profitable} "
            f"(Principle 4 predicts {self.predicted_profitable})"
        )


def decide_fusion(
    ops: Sequence[TensorOperator],
    buffer_elems: int,
    include_cross: bool = False,
    convention: PartialSumConvention = PartialSumConvention.SINGLE,
    medium: FusionMedium = FusionMedium.MEMORY,
    register_elems: Optional[int] = None,
) -> FusionDecision:
    """Evaluate fusing a chain: best fused vs. per-operator optima.

    Each operator's optimum is solved once and serves both ``unfused`` and
    the Principle 4 prediction.
    """

    ops = tuple(ops)
    buffer_elems = validate_buffer_elems(buffer_elems)
    if len(ops) < 2:
        raise FusionError("fusion decision needs at least two operators")
    unfused = tuple(optimize_intra(op, buffer_elems, convention) for op in ops)
    fused = optimize_fused(
        ops, buffer_elems, include_cross, convention,
        medium=medium, register_elems=register_elems,
    )
    return FusionDecision(
        ops=ops,
        fused=fused,
        unfused=unfused,
        predicted_profitable=principle4_predicts(unfused),
    )
