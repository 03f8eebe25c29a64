"""The compiled reuse rule equals the exact access counters it replaces.

Single-NRA and the fused patterns rank their candidate tile pairs by one
scorer, :func:`repro.dataflow.cost.trip_scorer`, on the trip counts the
pair search hands over, and build a dataflow only for the winner.  These
properties pin, pair by pair, that the scores are the numbers the
materialized-nest counters give:

* over a Single-NRA candidate list, on its one nest, the score equals
  ``memory_access(...).per_instance_total``;
* on any MM-like operator's nest -- any of its six loop orders, 0, 1 or 2
  free dims, the rest at random fixed tiles (so the Two- and Three-NRA
  shapes too) -- the score equals ``memory_access(...).per_instance_total``;
* on the fused nests, the score equals ``fused_memory_access(...)``'s
  ``per_instance_total`` and is ``None`` exactly when that report is not
  ``fusable`` -- on the tiles every pattern yields (0, 1 or 2 free dims),
  and on random tilings, free dims and loop orders of a chain whose
  consumer also reads the producer's input (so a shared loop can sit
  outside the intermediate and break fusability, and one tensor's
  operators can charge it differently);
* ``first_minimum`` keeps the first candidate of least score, skips
  ``None`` scores, and scores trip counts, not tiles;
* ``reuse_multiplier`` equals the rule written out positionally, on random
  loop nests.
"""

import itertools

from hypothesis import given, settings, strategies as st

from conftest import DTYPES, buffer_sizes, mm_like_ops
from repro.core.fusion import (
    FusionMedium,
    _chain_structure,
    _pattern_tiles,
    cross_patterns,
    profitable_patterns,
)
from repro.core.nra import (
    TileConstraint,
    _index_sets,
    _other_dim,
    _pair_trips,
    first_minimum,
)
from repro.dataflow.cost import (
    memory_access,
    reuse_multiplier,
    trip_scorer,
)
from repro.dataflow.fusion_nest import FusedChain, FusedDataflow, fused_memory_access
from repro.dataflow.scheduling import Schedule, stationary_schedule
from repro.dataflow.spec import Dataflow
from repro.dataflow.tiling import Tiling
from repro.ir import Tensor, TensorOperator, matmul
from repro.ir.loopnest import LoopNest, TiledLoop


def single_nest(operator, order):
    """``operator``'s one nest under ``order``, as the scorer reads it."""
    tensors = [
        (tensor.name, operator.dims_of(tensor.name), tensor.size, False)
        for tensor in operator.tensors
    ]
    return ((order, tensors),)


def trips_of(extents, tiles, dims):
    """The trip counts of ``dims`` (1 for a missing dim)."""
    return tuple(
        1 if dim is None else -(-extents[dim] // tiles[dim]) for dim in dims
    )


@st.composite
def two_mm_chains(draw):
    """Producer/consumer matmul pairs with extents 1-512."""
    m, k, l, n = draw(st.lists(st.integers(1, 512), min_size=4, max_size=4))
    op1 = matmul("mm1", m, k, l, dtype_bytes=draw(DTYPES))
    if draw(st.booleans()):
        op2 = matmul("mm2", m, l, n, a=op1.output, dtype_bytes=draw(DTYPES))
    else:
        op2 = matmul("mm2", n, m, l, b=op1.output, dtype_bytes=draw(DTYPES))
    return op1, op2


@settings(max_examples=100, deadline=None)
@given(mm_like_ops(), buffer_sizes())
def test_single_nra_score_equals_memory_access(operator, buffer_elems):
    checked = 0
    for tensor in operator.tensors:
        dim_x, dim_y = operator.dims_of(tensor.name)
        dim_z = _other_dim(operator, (dim_x, dim_y))
        constraint = TileConstraint.from_footprint(
            _index_sets(operator), {dim_z: 1}, dim_x, dim_y, buffer_elems
        )
        schedule = stationary_schedule(operator, tensor.name)
        score = trip_scorer(
            single_nest(operator, schedule.order),
            operator.dims,
            {dim_z: 1},
            dim_x,
            dim_y,
        )
        for (tile_x, tile_y), trips in _pair_trips(
            (constraint,), operator.dims[dim_x], operator.dims[dim_y]
        ):
            tiles = {dim_x: tile_x, dim_y: tile_y, dim_z: 1}
            assert trips == trips_of(operator.dims, tiles, (dim_x, dim_y))
            dataflow = Dataflow(Tiling(tiles), schedule)
            assert score(*trips) == (
                memory_access(operator, dataflow).per_instance_total
            )
            checked += 1
    assert checked


@st.composite
def single_op_nests(draw):
    """An MM-like operator, one of its six loop orders, random tiles and
    0, 1 or 2 of its dims left free."""
    operator = draw(mm_like_ops())
    order = tuple(draw(st.permutations(operator.dim_names)))
    tiles = {
        dim: draw(st.integers(1, extent)) for dim, extent in operator.dims.items()
    }
    free = draw(st.permutations(operator.dim_names))[: draw(st.integers(0, 2))]
    return operator, order, tiles, tuple(free)


@settings(max_examples=300, deadline=None)
@given(single_op_nests())
def test_score_equals_memory_access_on_any_single_op_nest(case):
    operator, order, tiles, free = case
    dim_x, dim_y = (free + (None, None))[:2]
    fixed = {dim: tile for dim, tile in tiles.items() if dim not in free}
    score = trip_scorer(
        single_nest(operator, order), operator.dims, fixed, dim_x, dim_y
    )
    dataflow = Dataflow(Tiling(tiles), Schedule(order))
    assert score(*trips_of(operator.dims, tiles, (dim_x, dim_y))) == (
        memory_access(operator, dataflow).per_instance_total
    )


@settings(max_examples=100, deadline=None)
@given(two_mm_chains(), buffer_sizes(max_size=1 << 18), st.integers(1, 1 << 14))
def test_fused_score_equals_fused_memory_access(ops, buffer_elems, register_elems):
    chain = FusedChain.from_ops(ops)
    structure = _chain_structure(chain)
    for pattern in profitable_patterns(chain) + cross_patterns(chain):
        for medium in (FusionMedium.MEMORY, FusionMedium.COMPUTE_UNIT):
            tiles = _pattern_tiles(
                structure, pattern, buffer_elems, medium, register_elems
            )
            for order in itertools.permutations(chain.common_dims):
                score = trip_scorer(
                    structure.nests(order), chain.global_dims,
                    tiles.fixed, tiles.dim_x, tiles.dim_y,
                )
                for pair, trips in tiles.candidates:
                    dataflow = structure.dataflow(tiles, pair, order)
                    assert trips == trips_of(
                        chain.global_dims,
                        dataflow.tiling,
                        (tiles.dim_x, tiles.dim_y),
                    )
                    report = fused_memory_access(chain, dataflow)
                    expected = report.per_instance_total if report.fusable else None
                    assert score(*trips) == expected, (pattern.label, order, pair)


@st.composite
def shared_input_cases(draw):
    """``C[M,L] = sum_{K,P} A[M,K] * B[K,P,L]`` then
    ``E[M,K] = sum_L C[M,L] * A[M,K]``, plus a random legal fused dataflow:
    M, L and maybe K shared in any order, private loops in any order."""
    m, k, l, p = draw(st.lists(st.integers(1, 24), min_size=4, max_size=4))
    a = Tensor("A", (m, k), draw(DTYPES))
    c = Tensor("C", (m, l))
    op1 = TensorOperator(
        name="op1",
        dims={"M": m, "K": k, "L": l, "P": p},
        inputs=(a, Tensor("B", (k, p, l))),
        output=c,
        indexing={"A": ("M", "K"), "B": ("K", "P", "L"), "C": ("M", "L")},
        reduction_dims=frozenset({"K", "P"}),
    )
    op2 = TensorOperator(
        name="op2",
        dims={"M": m, "L": l, "K": k},
        inputs=(c, a),
        output=Tensor("E", (m, k)),
        indexing={"C": ("M", "L"), "A": ("M", "K"), "E": ("M", "K")},
        reduction_dims=frozenset({"L"}),
    )
    chain = FusedChain.from_ops((op1, op2))
    shared = draw(st.permutations(["M", "L"] + (["K"] if draw(st.booleans()) else [])))
    private_orders = {
        op.name: tuple(draw(st.permutations(
            [dim for dim in chain.op_global_dims(index) if dim not in shared]
        )))
        for index, op in enumerate(chain.ops)
    }
    tiles = {
        dim: draw(st.integers(1, extent)) for dim, extent in chain.global_dims.items()
    }
    free = draw(st.permutations(sorted(chain.global_dims)))[: draw(st.integers(0, 2))]
    return chain, tuple(shared), private_orders, tiles, free


@settings(max_examples=300, deadline=None)
@given(shared_input_cases())
def test_fused_score_equals_fused_memory_access_on_any_tiling(case):
    chain, shared_order, private_orders, tiles, free = case
    report = fused_memory_access(
        chain, FusedDataflow(shared_order, private_orders, Tiling(tiles))
    )
    expected = report.per_instance_total if report.fusable else None
    dim_x, dim_y = (list(free) + [None, None])[:2]
    fixed = {dim: tile for dim, tile in tiles.items() if dim not in free}
    structure = _chain_structure(chain)._replace(private_orders=private_orders)
    score = trip_scorer(
        structure.nests(shared_order), chain.global_dims, fixed, dim_x, dim_y
    )
    trips = trips_of(chain.global_dims, tiles, (dim_x, dim_y))
    assert score(*trips) == expected


def test_first_minimum_keeps_the_first_least_score_of_the_trips():
    # Three trip pairs tie at the least score and one scores None.  Tiles
    # and trips differ, so scoring the tiles would pick (3, 3) and would
    # score the last pair.
    candidates = [
        ((1, 1), (9, 9)),
        ((2, 5), (4, 2)),
        ((3, 3), (3, 3)),
        ((4, 2), (2, 4)),
        ((5, 5), (1, 1)),
    ]

    def score(trip_x, trip_y):
        return None if trip_x == trip_y == 1 else trip_x + trip_y

    assert first_minimum(candidates, score) == (6, (2, 5))
    assert first_minimum(candidates[4:], score) is None
    assert first_minimum([], score) is None


@st.composite
def loop_nests(draw):
    """An operator over 1-5 dims plus a random tiled nest over them."""
    names = draw(st.permutations("MKLNP"))[: draw(st.integers(1, 5))]
    dims = {name: draw(st.integers(1, 64)) for name in names}
    indexing = {}
    for index in range(draw(st.integers(1, 4))):
        rank = draw(st.integers(1, len(names)))
        indexing[f"T{index}"] = tuple(draw(st.permutations(names))[:rank])
    tensors = [
        Tensor(name, tuple(dims[dim] for dim in axes))
        for name, axes in indexing.items()
    ]
    operator = TensorOperator(
        name="op",
        dims=dims,
        inputs=tensors[:-1],
        output=tensors[-1],
        indexing=indexing,
    )
    nest = LoopNest(
        tuple(
            TiledLoop(dim, dims[dim], draw(st.integers(1, dims[dim])))
            for dim in draw(st.permutations(names))
        )
    )
    return operator, nest


def positional_multiplier(nest, tensor_dims):
    """The rule as stated: trips of effective non-indexing loops outside
    the innermost effective indexing loop."""
    effective = [loop for loop in nest if loop.trip > 1]
    positions = [i for i, loop in enumerate(effective) if loop.dim in tensor_dims]
    innermost = positions[-1] if positions else -1
    multiplier = 1
    for loop in effective[: max(innermost, 0)]:
        if loop.dim not in tensor_dims:
            multiplier *= loop.trip
    return multiplier


@settings(max_examples=300, deadline=None)
@given(loop_nests())
def test_reuse_multiplier_equals_positional_multiplier(case):
    operator, nest = case
    loops = [(loop.dim, loop.trip) for loop in nest]
    for tensor in operator.tensors:
        dims = operator.dims_of(tensor.name)
        assert reuse_multiplier(loops, dims) == positional_multiplier(nest, dims)
