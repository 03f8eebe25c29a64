"""Unit tests for the closed-form NRA candidate constructors."""

import pytest
from hypothesis import given, settings, strategies as st

from conftest import mm_like_ops, mm_ops
from repro.core import (
    UnsupportedOperatorError,
    all_candidates,
    is_mm_like,
    is_streaming,
    single_nra,
    streaming_dataflow,
    three_nra,
    two_nra,
)
from repro.core.nra import (
    TileConstraint,
    _largest_free,
    max_feasible,
    pair_candidates,
)
from repro.dataflow import NRAClass, memory_access
from repro.ir import Tensor, elementwise, matmul, rowwise_softmax


class TestShapePredicates:
    def test_matmul_is_mm_like(self):
        assert is_mm_like(matmul("mm", 4, 5, 6))

    def test_elementwise_is_streaming(self):
        op = elementwise("ew", Tensor("x", (4, 5)))
        assert is_streaming(op)
        assert not is_mm_like(op)

    def test_softmax_is_streaming(self):
        assert is_streaming(rowwise_softmax("sm", Tensor("x", (4, 5))))

    def test_matmul_not_streaming(self):
        assert not is_streaming(matmul("mm", 4, 5, 6))


class TestSolvers:
    def test_max_feasible_finds_boundary(self):
        assert max_feasible(lambda t: t * t, 100, 50) == 7
        assert max_feasible(lambda t: t, 10, 100) == 10

    def test_max_feasible_infeasible(self):
        assert max_feasible(lambda t: t + 100, 10, 50) is None

    def test_pair_candidates_respect_budget(self):
        # x*y + x + y <= 500
        constraint = TileConstraint(1, 1, 1, 0, 500)
        for x, y in pair_candidates((constraint,), 64, 64):
            assert x * y + x + y <= 500
            assert 1 <= x <= 64 and 1 <= y <= 64

    def test_pair_candidates_respect_every_constraint(self):
        footprint = TileConstraint(1, 1, 1, 0, 1000)
        register = TileConstraint(1, 0, 0, 0, 64)  # x*y <= 64
        pairs = pair_candidates((footprint, register), 1000, 1000)
        assert pairs
        for x, y in pairs:
            assert x * y + x + y <= 1000 and x * y <= 64

    def test_pair_infeasible(self):
        assert pair_candidates((TileConstraint(1, 0, 0, 100, 50),), 10, 10) == []

    def test_coefficients_from_footprint(self):
        # C[M,L] stationary with K minimized: A[M,K] + B[K,L] + C[M,L]
        # = x*y + x + y over (x, y) = (T_M, T_L).
        constraint = TileConstraint.from_footprint(
            [("M", "K"), ("K", "L"), ("M", "L")], {"K": 1}, "M", "L", 99
        )
        assert constraint == TileConstraint(1, 1, 1, 0, 99)
        # K untiled (48), M grown, L minimized: 48*x + 48 + x.
        constraint = TileConstraint.from_footprint(
            [("M", "K"), ("K", "L"), ("M", "L")],
            {"K": 48, "L": 1},
            "M",
            None,
            99,
        )
        assert constraint == TileConstraint(0, 49, 0, 48, 99)

    def test_closed_form_probes(self):
        a, b, c, d, bound = 1, 1, 1, 0, 500
        constraint = TileConstraint(a, b, c, d, bound)
        grow_y = [(a, b, c, d, bound)]  # x fixed, y grown
        grow_x = [(a, c, b, d, bound)]  # y fixed, x grown
        assert _largest_free(grow_y, 10, 1000) == 44  # 10y + 10 + y <= 500
        assert _largest_free(grow_x, 10, 30) == 30  # clamped to the extent
        assert _largest_free(grow_y, 499, 1000) is None  # y = 1 overflows
        assert constraint.max_balanced(1000, 1000) == 21  # t^2 + 2t <= 500
        assert constraint.max_balanced(4, 1000) == 99  # 4y + 4 + y <= 500


class TestSingleNRA:
    def test_stationary_non_redundant(self):
        op = matmul("mm", 64, 32, 48)
        candidate = single_nra(op, "mm.C", 200)
        assert candidate is not None
        report = memory_access(op, candidate.dataflow)
        assert report.per_tensor["mm.C"].multiplier == 1
        assert report.nra_class is NRAClass.SINGLE

    def test_non_stationary_dim_minimized(self):
        op = matmul("mm", 64, 32, 48)
        candidate = single_nra(op, "mm.C", 200)
        tiling = candidate.dataflow.tiling.for_operator(op)
        assert tiling["K"] == 1

    def test_fits_buffer(self):
        op = matmul("mm", 64, 32, 48)
        for budget in (10, 50, 500, 5000):
            candidate = single_nra(op, "mm.C", budget)
            assert candidate is not None
            assert candidate.dataflow.buffer_footprint(op) <= budget

    def test_infeasible_returns_none(self):
        op = matmul("mm", 64, 32, 48)
        assert single_nra(op, "mm.C", 2) is None

    def test_rejects_non_mm(self):
        op = elementwise("ew", Tensor("x", (4, 5)))
        with pytest.raises(UnsupportedOperatorError):
            single_nra(op, "x", 100)


class TestTwoNRA:
    def test_two_tensors_non_redundant(self):
        op = matmul("mm", 64, 32, 48)
        candidate = two_nra(op, "K", "M", 500)
        assert candidate is not None
        report = memory_access(op, candidate.dataflow)
        non_redundant = [
            name for name, e in report.per_tensor.items() if e.multiplier == 1
        ]
        assert sorted(non_redundant) == ["mm.A", "mm.C"]

    def test_untiled_dim_full(self):
        op = matmul("mm", 64, 32, 48)
        candidate = two_nra(op, "K", "M", 500)
        tiling = candidate.dataflow.tiling.for_operator(op)
        assert tiling["K"] == 32
        assert tiling["L"] == 1

    def test_infeasible_when_untiled_dim_too_big(self):
        op = matmul("mm", 64, 32, 48)
        assert two_nra(op, "K", "M", 40) is None

    def test_same_dim_rejected(self):
        op = matmul("mm", 64, 32, 48)
        with pytest.raises(ValueError):
            two_nra(op, "K", "K", 500)

    def test_fits_buffer(self):
        op = matmul("mm", 64, 32, 48)
        for budget in (70, 200, 2000):
            candidate = two_nra(op, "K", "M", budget)
            if candidate is not None:
                assert candidate.dataflow.buffer_footprint(op) <= budget


class TestThreeNRA:
    def test_reaches_ideal(self):
        op = matmul("mm", 64, 32, 48)
        candidate = three_nra(op, "mm.B", 5000)
        assert candidate is not None
        assert memory_access(op, candidate.dataflow).total == op.ideal_memory_access()

    def test_infeasible_below_tensor_size(self):
        op = matmul("mm", 64, 32, 48)
        assert three_nra(op, "mm.B", 32 * 48 - 1) is None

    def test_resident_fully_untiled(self):
        op = matmul("mm", 64, 32, 48)
        candidate = three_nra(op, "mm.B", 5000)
        tiling = candidate.dataflow.tiling.for_operator(op)
        assert tiling["K"] == 32 and tiling["L"] == 48


class TestAllCandidates:
    def test_at_most_twelve(self):
        op = matmul("mm", 64, 32, 48)
        assert len(all_candidates(op, 10**6)) <= 12

    def test_all_feasible(self):
        op = matmul("mm", 64, 32, 48)
        for budget in (10, 100, 1000, 10000):
            for candidate in all_candidates(op, budget):
                assert candidate.dataflow.buffer_footprint(op) <= budget

    @given(
        st.one_of(
            mm_like_ops(),
            st.lists(
                st.one_of(st.integers(1, 4096), st.integers(2290, 2320)),
                min_size=3,
                max_size=3,
            ).map(lambda dims: matmul("mm", *dims)),
        ),
        st.integers(1, 1 << 21),
    )
    @settings(max_examples=200, deadline=None)
    def test_every_candidate_fits_the_buffer(self, op, budget):
        """The intra optimizer counts candidates without a buffer check:
        each one fits by construction (dims around the pair search's
        sweep edge of 2303 included)."""
        for candidate in all_candidates(op, budget):
            assert candidate.dataflow.buffer_footprint(op) <= budget

    @given(mm_ops(max_dim=48), st.integers(4, 4096))
    @settings(max_examples=50, deadline=None)
    def test_candidate_classes_match_labels(self, op, budget):
        for candidate in all_candidates(op, budget):
            report = memory_access(op, candidate.dataflow)
            # The realized class can exceed the constructed class when a
            # maximized tile reaches the full dimension (e.g. a Single-NRA
            # collapses into Two/Three-NRA at large buffers) -- never below.
            assert report.nra_class.value >= candidate.nra.value


class TestStreamingDataflow:
    def test_streaming_reaches_ideal(self):
        op = rowwise_softmax("sm", Tensor("x", (32, 48)))
        dataflow = streaming_dataflow(op)
        assert memory_access(op, dataflow).total == op.ideal_memory_access()

    def test_rejects_mm(self):
        with pytest.raises(UnsupportedOperatorError):
            streaming_dataflow(matmul("mm", 4, 5, 6))
