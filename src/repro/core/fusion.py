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

Tile sizes for MAXIMIZE roles are solved in closed form from the integer
coefficients of the fused buffer footprint (and, for compute-unit fusion,
of each intermediate's register footprint) -- the same one-shot
construction as the intra candidates, no search.  The candidate tile pairs
are ranked by the shared reuse rule applied straight to their trip counts
(:func:`fused_scorer`), skipping any pair that breaks the fusability
requirement (non-redundant intermediates); only the winner is built as a
:class:`FusedDataflow` and counted exactly through
:func:`repro.dataflow.fusion_nest.fused_memory_access`.

:func:`decide_fusion` compares the best fused dataflow against the sum of
the operators' unfused optima and reports both the measured profitability
and the Principle 4 prediction (same NRA class).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..ir.operator import TensorOperator, validate_buffer_elems
from ..dataflow.cost import (
    PartialSumConvention,
    reuse_multiplier,
    tensor_multiplier,
)
from ..dataflow.fusion_nest import (
    FusedAccessReport,
    FusedChain,
    FusedDataflow,
    FusionError,
    fused_memory_access,
    _op_with_global_dims,
)
from ..dataflow.spec import NRAClass
from ..dataflow.tiling import Tiling
from .intra import IntraResult, optimize_intra
from .nra import TileConstraint, _ceil_div, max_tile, pair_candidates
from .principles import principle4_same_nra


class Role(Enum):
    """Tiling role of a global dimension inside a fused pattern."""

    MAXIMIZE = "max"
    MINIMIZE = "min"
    UNTILE = "untile"


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
    per_op_nra: Tuple[NRAClass, ...]
    #: Where the intermediate tiles lived when this dataflow was solved
    #: (never :attr:`FusionMedium.BEST`; that is resolved per candidate).
    medium: FusionMedium = FusionMedium.MEMORY
    #: Attached by the certification layer (:mod:`repro.verify`); typed
    #: loosely to keep :mod:`repro.core` import-cycle-free.
    certificate: Optional[Any] = field(default=None, compare=False)

    @property
    def memory_access(self) -> int:
        return self.report.total

    def describe(self) -> str:
        ops = "+".join(op.name for op in self.chain.ops)
        return (
            f"fused[{ops}] pattern={self.pattern.label} "
            f"MA={self.memory_access} [{self.dataflow.describe(self.chain)}]"
        )


# ----------------------------------------------------------------------
# Pattern generation
# ----------------------------------------------------------------------
def _chain_private_dims(chain: FusedChain) -> Tuple[str, ...]:
    common = set(chain.common_dims)
    privates: List[str] = []
    for index in range(len(chain.ops)):
        for dim in chain.op_global_dims(index):
            if dim not in common and dim not in privates:
                privates.append(dim)
    return tuple(privates)


def profitable_patterns(chain: FusedChain) -> List[FusedPattern]:
    """The five same-NRA patterns of Fig. 4 (green arrows), both orientations."""
    common = chain.common_dims
    if len(common) != 2:
        raise FusionError(
            f"fused patterns require exactly two common dims; chain has "
            f"{common}"
        )
    privates = _chain_private_dims(chain)
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
    producer_privates = tuple(
        dim for dim in chain.op_global_dims(0) if dim not in common
    )
    consumer_privates = tuple(
        dim for dim in chain.op_global_dims(1) if dim not in common
    )
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


def _private_orders(chain: FusedChain) -> Dict[str, Tuple[str, ...]]:
    common = set(chain.common_dims)
    return {
        op.name: tuple(
            dim
            for dim in chain.op_global_dims(index)
            if dim not in common
        )
        for index, op in enumerate(chain.ops)
    }


def fused_scorer(
    chain: FusedChain,
    shared_order: Tuple[str, ...],
    private_orders: Mapping[str, Tuple[str, ...]],
) -> Callable[[Mapping[str, int]], Optional[int]]:
    """Fused access count of a global tiling, from its trip counts.

    Each operator's loop order (the shared loops over its dims, then its
    private order) is compiled once.  A tiling (every global dim's tile)
    then charges each external tensor its worst reuse-rule access over the
    operators, as :func:`fused_memory_access` does under the paper's
    partial-sum convention.  ``None`` means an intermediate would be
    re-fetched (multiplier above 1): the tiling is not fusable.
    """

    intermediates = {tensor.name for tensor in chain.intermediates()}
    nests = []
    for index, op in enumerate(chain.ops):
        op_dims = set(chain.op_global_dims(index))
        order = tuple(dim for dim in shared_order if dim in op_dims)
        tensors = tuple(
            (tensor.name, chain.global_dims_of_tensor(index, tensor.name), tensor.size)
            for tensor in op.tensors
        )
        nests.append((order + tuple(private_orders[op.name]), tensors))
    extents = chain.global_dims

    def score(tiles: Mapping[str, int]) -> Optional[int]:
        trips = {dim: _ceil_div(extents[dim], tile) for dim, tile in tiles.items()}
        worst: Dict[str, int] = {}
        for order, tensors in nests:
            loops = [(dim, trips[dim]) for dim in order]
            for name, dims, size in tensors:
                multiplier = reuse_multiplier(loops, dims)
                if name not in intermediates:
                    worst[name] = max(worst.get(name, 0), size * multiplier)
                elif multiplier > 1:
                    return None
        return chain.count * sum(worst.values())

    return score


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
    (the group's accumulator count).  Returns ``None`` when even the
    minimal tiles overflow.

    ``shared_order`` fixes the order of the shared (common-dim) loops;
    ``None`` uses the role-priority default (:func:`_shared_order`).  The
    order never changes feasibility (the footprint is order-invariant) but
    does change cost when a tensor is indexed by only one common dim, so
    callers chasing the exact optimum must try every permutation.
    """

    if medium is FusionMedium.BEST:
        raise FusionError(
            "solve_pattern takes a concrete medium; BEST is resolved by "
            "optimize_fused"
        )
    if medium is FusionMedium.COMPUTE_UNIT and register_elems is None:
        raise FusionError("compute-unit fusion needs register_elems")
    roles = pattern.roles
    missing = set(chain.global_dims) - set(roles)
    if missing:
        raise FusionError(f"pattern {pattern.label!r} missing roles for {missing}")
    fixed: Dict[str, int] = {}
    free: List[str] = []
    for dim, role in roles.items():
        if role is Role.UNTILE:
            fixed[dim] = chain.global_dims[dim]
        elif role is Role.MINIMIZE:
            fixed[dim] = 1
        else:
            free.append(dim)
    if len(free) > 2:
        raise FusionError(
            f"pattern {pattern.label!r} has {len(free)} free dims; at most 2 "
            "supported"
        )
    if shared_order is None:
        shared_order = _shared_order(chain, roles)
    private_orders = _private_orders(chain)

    def build(tiles: Mapping[str, int]) -> FusedDataflow:
        return FusedDataflow(
            shared_order=shared_order,
            private_orders=private_orders,
            tiling=Tiling({**fixed, **tiles}),
        )

    dim_x, dim_y = (free + [None, None])[:2]
    constraints = _capacity_constraints(
        chain, fixed, dim_x, dim_y, buffer_elems, medium, register_elems
    )
    if dim_x is None:
        return build({}) if all(c.fits(1, 1) for c in constraints) else None
    if dim_y is None:
        tile = max_tile(constraints, chain.global_dims[dim_x])
        return None if tile is None else build({dim_x: tile})
    pairs = pair_candidates(
        constraints, chain.global_dims[dim_x], chain.global_dims[dim_y]
    )
    if not pairs:
        return None
    # Every pair shares the dataflow's structure: check it once.
    build({dim_x: pairs[0][0], dim_y: pairs[0][1]}).validate(chain)
    score = fused_scorer(chain, shared_order, private_orders)
    best: Optional[Tuple[int, Dict[str, int]]] = None
    for tile_x, tile_y in pairs:
        tiles = {dim_x: tile_x, dim_y: tile_y}
        total = score({**fixed, **tiles})
        if total is not None and (best is None or total < best[0]):
            best = (total, tiles)
    return None if best is None else build(best[1])


def _capacity_constraints(
    chain: FusedChain,
    fixed: Mapping[str, int],
    dim_x: Optional[str],
    dim_y: Optional[str],
    buffer_elems: int,
    medium: FusionMedium,
    register_elems: Optional[int],
) -> Tuple[TileConstraint, ...]:
    """Every capacity limit on the free tiles, as bilinear constraints.

    Under :attr:`FusionMedium.MEMORY` that is the fused buffer footprint
    alone.  Under :attr:`FusionMedium.COMPUTE_UNIT` the intermediates leave
    the buffer footprint and each of their tiles must fit
    ``register_elems`` instead.
    """

    if medium is FusionMedium.MEMORY:
        excluded: Tuple[str, ...] = ()
    else:
        excluded = tuple(t.name for t in chain.intermediates())
    constraints = [
        TileConstraint.from_footprint(
            chain.buffered_axes(excluded), fixed, dim_x, dim_y, buffer_elems
        )
    ]
    for name in excluded:
        constraints.append(
            TileConstraint.from_footprint(
                [chain.tensor_axes(name)], fixed, dim_x, dim_y, register_elems
            )
        )
    return tuple(constraints)


def per_op_nra_classes(
    chain: FusedChain, dataflow: FusedDataflow
) -> Tuple[NRAClass, ...]:
    """NRA class each operator experiences inside the fused nest."""
    classes: List[NRAClass] = []
    for index in range(len(chain.ops)):
        op = _op_with_global_dims(chain, index)
        nest = dataflow.op_nest(chain, index)
        non_redundant = sum(
            1
            for tensor in op.tensors
            if tensor_multiplier(op, nest, tensor.name) == 1
        )
        classes.append(NRAClass(max(1, min(3, non_redundant))))
    return tuple(classes)


def optimize_fused(
    ops: Sequence[TensorOperator],
    buffer_elems: int,
    include_cross: bool = False,
    convention: PartialSumConvention = PartialSumConvention.SINGLE,
    medium: FusionMedium = FusionMedium.MEMORY,
    register_elems: Optional[int] = None,
    certify: bool = False,
    paranoid: bool = False,
) -> Optional[FusedResult]:
    """Best fused dataflow for a chain, or ``None`` if none fits/fuses.

    Every pattern is solved under *both* shared-loop orders: the order does
    not affect feasibility but does affect cost whenever a tensor is indexed
    by only one common dim, and the cheaper order is not always the
    role-priority one (the ROADMAP counterexample needed the reduction-dim-
    outermost order to match branch and bound).

    ``certify``/``paranoid`` route the winner through :mod:`repro.verify`:
    certification failures raise
    :class:`repro.verify.CertificationError`, and in paranoid mode a
    budgeted branch-and-bound probe that certifies a better dataflow
    replaces the analytical answer (self-healing fallback).
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
    shared_orders = tuple(itertools.permutations(chain.common_dims))
    best: Optional[FusedResult] = None
    for pattern in patterns:
      for active_medium in media:
       for shared_order in shared_orders:
        dataflow = solve_pattern(
            chain, pattern, buffer_elems, medium=active_medium,
            register_elems=register_elems, shared_order=shared_order,
        )
        if dataflow is None:
            continue
        report = fused_memory_access(chain, dataflow, convention)
        if not report.fusable:
            continue
        if best is None or report.total < best.report.total:
            best = FusedResult(
                chain=chain,
                pattern=pattern,
                dataflow=dataflow,
                report=report,
                per_op_nra=per_op_nra_classes(chain, dataflow),
                medium=active_medium,
            )
    return _maybe_certify_fused(
        best, ops, buffer_elems, include_cross, convention,
        register_elems, certify, paranoid,
    )


def _maybe_certify_fused(
    result: Optional[FusedResult],
    ops: Sequence[TensorOperator],
    buffer_elems: int,
    include_cross: bool,
    convention: PartialSumConvention,
    register_elems: Optional[int],
    certify: bool,
    paranoid: bool,
) -> Optional[FusedResult]:
    if result is None or not (certify or paranoid):
        return result
    # Lazy import: repro.verify depends on repro.core (cycle otherwise).
    from ..verify import CertificationError, certify_fused

    certified = certify_fused(
        ops,
        buffer_elems,
        result=result,
        include_cross=include_cross,
        convention=convention,
        register_elems=register_elems,
        paranoid=paranoid,
    )
    if not certified.certificate.ok:
        raise CertificationError(
            "certification failed for fused chain "
            + "+".join(op.name for op in ops)
            + ": "
            + "; ".join(certified.certificate.failure_summaries()),
            certificate=certified.certificate,
        )
    return certified.result


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
    certify: bool = False,
    paranoid: bool = False,
) -> FusionDecision:
    """Evaluate fusing a chain: best fused vs. per-operator optima.

    ``certify``/``paranoid`` apply to both sides of the comparison: the
    per-operator optima and the fused winner are all independently
    validated (and, in paranoid mode, probed) through :mod:`repro.verify`.
    """

    ops = tuple(ops)
    buffer_elems = validate_buffer_elems(buffer_elems)
    if len(ops) < 2:
        raise FusionError("fusion decision needs at least two operators")
    unfused = tuple(
        optimize_intra(
            op, buffer_elems, convention, certify=certify, paranoid=paranoid
        )
        for op in ops
    )
    fused = optimize_fused(
        ops, buffer_elems, include_cross, convention,
        medium=medium, register_elems=register_elems,
        certify=certify, paranoid=paranoid,
    )
    predicted = all(
        principle4_same_nra(a, b, buffer_elems, convention)
        for a, b in zip(ops, ops[1:])
    )
    return FusionDecision(
        ops=ops,
        fused=fused,
        unfused=unfused,
        predicted_profitable=predicted,
    )
