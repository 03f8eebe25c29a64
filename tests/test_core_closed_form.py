"""The closed-form tile solvers equal the callback-based bisection oracle.

:class:`repro.core.nra.TileConstraint` solves every "largest feasible
tile" probe from integer footprint coefficients.  These properties pin
that it returns exactly what the previous solver (kept in
``callback_oracle.py``) returned: the same ``pair_candidates`` lists, cut
to the first pair of each trip pair, the same Single-/Two-/Three-NRA
candidates and the same fused-pattern dataflows, under both fusion media.  Any score that does
not decrease in either trip count has the same first minimum over the cut
list as over the full one.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

import callback_oracle as oracle
from conftest import DTYPES, mm_like_ops
from repro.core.fusion import (
    FusionMedium,
    cross_patterns,
    profitable_patterns,
    solve_pattern,
)
from repro.core.nra import (
    TileConstraint,
    _index_sets,
    _other_dim,
    _solve,
    pair_candidates,
)
from repro.dataflow.fusion_nest import FusedChain
from repro.ir import matmul

@st.composite
def two_op_chains(draw):
    """Producer/consumer matmul pairs; the intermediate feeds A or B."""
    m, k, l, n = draw(st.lists(st.integers(1, 160), min_size=4, max_size=4))
    op1 = matmul("mm1", m, k, l, dtype_bytes=draw(DTYPES))
    if draw(st.booleans()):
        op2 = matmul("mm2", m, l, n, a=op1.output, dtype_bytes=draw(DTYPES))
    else:
        op2 = matmul("mm2", n, m, l, b=op1.output, dtype_bytes=draw(DTYPES))
    return op1, op2


CONSTRAINT_SETS = st.lists(
    st.tuples(
        st.integers(0, 40),
        st.integers(0, 40),
        st.integers(0, 40),
        st.integers(0, 200),
        st.integers(0, 1 << 20),
    ).map(lambda coefficients: TileConstraint(*coefficients)),
    min_size=1,
    max_size=3,
)


def oracle_pairs(constraints, upper_x, upper_y):
    """The bisection oracle's full candidate list."""

    def footprint(x, y):
        return 0 if all(c.fits(x, y) for c in constraints) else 1

    return oracle.pair_candidates(footprint, upper_x, upper_y, 0)


class TestCoefficientSolver:
    @settings(max_examples=300, deadline=None)
    @given(CONSTRAINT_SETS, st.integers(1, 4096), st.integers(1, 4096))
    def test_pair_candidates_match_bisection(self, constraints, upper_x, upper_y):
        assert pair_candidates(constraints, upper_x, upper_y) == (
            oracle.first_per_trip_pair(
                oracle_pairs(constraints, upper_x, upper_y), upper_x, upper_y
            )
        )

    @settings(max_examples=300, deadline=None)
    @given(
        CONSTRAINT_SETS,
        st.integers(1, 4096),
        st.integers(1, 4096),
        st.tuples(st.integers(0, 50), st.integers(0, 50), st.integers(0, 3)),
        st.integers(1, 5000),
    )
    def test_first_minimum_equals_oracle(
        self, constraints, upper_x, upper_y, weights, divisor
    ):
        """Fast equals slow: any score that does not decrease in either trip
        count has the same first minimum over both lists."""

        def score(pair):
            trips_x = -(-upper_x // pair[0])
            trips_y = -(-upper_y // pair[1])
            weight_x, weight_y, weight_xy = weights
            # Floor division makes ties, so the tie-break is exercised.
            total = weight_x * trips_x + weight_y * trips_y
            return (total + weight_xy * trips_x * trips_y) // divisor

        pairs = pair_candidates(constraints, upper_x, upper_y)
        slow = oracle_pairs(constraints, upper_x, upper_y)
        assert bool(pairs) == bool(slow)
        if pairs:
            assert min(pairs, key=score) == min(slow, key=score)
        trip_pairs = {
            (-(-upper_x // tile_x), -(-upper_y // tile_y))
            for tile_x, tile_y in pairs
        }
        assert len(trip_pairs) == len(pairs)
        for tile_x, tile_y in pairs:
            assert 1 <= tile_x <= upper_x and 1 <= tile_y <= upper_y
            assert all(c.fits(tile_x, tile_y) for c in constraints)


#: Extents on each side of the exactness sweep's reach: a dim of extent 2303
#: is swept and skips the trip window; at 2304 the window comes back.
SWEEP_EDGE = (2303, 2304)

EDGE_CONSTRAINT_SETS = {
    # Single-NRA footprints x*y + b*x + c*y (reduction tile 1).
    "single-5000": (TileConstraint(1, 1, 1, 0, 5000),),
    "single-700": (TileConstraint(1, 3, 2, 0, 700),),
    # A buffer plus a register limit on each tile.
    "buffer+registers": (
        TileConstraint(1, 1, 1, 0, 90000),
        TileConstraint(0, 1, 0, 0, 1500),
        TileConstraint(0, 0, 1, 0, 40),
    ),
}


class TestSweepEdge:
    """Equal lists where a dim's tiles switch from the sweep to the window."""

    @pytest.mark.parametrize("axis", ("x", "y"))
    @pytest.mark.parametrize("partner", (97, 2303, 2304, 4096))
    @pytest.mark.parametrize("edge", SWEEP_EDGE)
    @pytest.mark.parametrize("name", sorted(EDGE_CONSTRAINT_SETS))
    def test_pair_candidates_match_bisection(self, name, edge, partner, axis):
        constraints = EDGE_CONSTRAINT_SETS[name]
        upper_x, upper_y = (edge, partner) if axis == "x" else (partner, edge)
        assert pair_candidates(constraints, upper_x, upper_y) == (
            oracle.first_per_trip_pair(
                oracle_pairs(constraints, upper_x, upper_y), upper_x, upper_y
            )
        )

    @settings(max_examples=150, deadline=None)
    @given(
        CONSTRAINT_SETS,
        st.sampled_from(SWEEP_EDGE),
        st.integers(1, 4096),
        st.booleans(),
    )
    def test_random_constraints_match_bisection(
        self, constraints, edge, partner, edge_on_x
    ):
        upper_x, upper_y = (edge, partner) if edge_on_x else (partner, edge)
        assert pair_candidates(constraints, upper_x, upper_y) == (
            oracle.first_per_trip_pair(
                oracle_pairs(constraints, upper_x, upper_y), upper_x, upper_y
            )
        )


def in_order(result):
    """``result`` with its tiling's key order, which equality ignores."""
    if result is None:
        return None
    dataflow = getattr(result, "dataflow", result)
    return result, tuple(dataflow.tiling.items())


class TestNRATiles:
    @settings(max_examples=120, deadline=None)
    @given(mm_like_ops(), st.integers(1, 1 << 21))
    def test_single_and_two_nra_match_oracle(self, operator, buffer_elems):
        """Single-, Two- and Three-NRA, each from its role map; Three also
        at the resident footprint and one element below it."""
        for tensor in operator.tensors:
            dim_x, dim_y = operator.dims_of(tensor.name)
            dim_z = _other_dim(operator, (dim_x, dim_y))
            constraint = TileConstraint.from_footprint(
                _index_sets(operator), {dim_z: 1}, dim_x, dim_y, buffer_elems
            )
            upper_x, upper_y = operator.dims[dim_x], operator.dims[dim_y]
            assert pair_candidates(
                (constraint,), upper_x, upper_y
            ) == oracle.first_per_trip_pair(
                oracle.single_nra_pairs(operator, tensor.name, buffer_elems),
                upper_x,
                upper_y,
            )
            assert in_order(
                _solve(operator, "single", (tensor.name,), buffer_elems)
            ) == in_order(oracle.single_nra(operator, tensor.name, buffer_elems))
            # t whole, each other tensor one line along one of t's dims.
            resident = (upper_x + 1) * (upper_y + 1) - 1
            for buffer in (buffer_elems, resident, resident - 1):
                assert in_order(
                    _solve(operator, "three", (tensor.name,), buffer)
                ) == in_order(oracle.three_nra(operator, tensor.name, buffer))
        for untiled, maximized in itertools.permutations(operator.dim_names, 2):
            assert in_order(
                _solve(operator, "two", (untiled, maximized), buffer_elems)
            ) == in_order(
                oracle.two_nra(operator, untiled, maximized, buffer_elems)
            )


class TestFusedPatterns:
    @settings(max_examples=150, deadline=None)
    @given(
        two_op_chains(),
        st.integers(0, 13),
        st.integers(1, 1 << 18),
        st.integers(1, 1 << 14),
    )
    def test_solve_pattern_matches_oracle(
        self, ops, pattern_index, buffer_elems, register_elems
    ):
        chain = FusedChain.from_ops(ops)
        patterns = profitable_patterns(chain) + cross_patterns(chain)
        pattern = patterns[pattern_index % len(patterns)]
        for medium in (FusionMedium.MEMORY, FusionMedium.COMPUTE_UNIT):
            for order in itertools.permutations(chain.common_dims):
                kwargs = dict(
                    medium=medium,
                    register_elems=register_elems,
                    shared_order=order,
                )
                assert in_order(
                    solve_pattern(chain, pattern, buffer_elems, **kwargs)
                ) == in_order(
                    oracle.solve_pattern(chain, pattern, buffer_elems, **kwargs)
                )
