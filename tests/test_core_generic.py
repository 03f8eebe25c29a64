"""Tests for the generalized principle optimizer (arbitrary loop nests)."""

import pytest
from hypothesis import given, settings, strategies as st

import callback_oracle as oracle
from repro.core import (
    InfeasibleError,
    generic_candidates,
    optimize_generic,
    optimize_intra,
)
from repro.dataflow import memory_access
from repro.ir import (
    Tensor,
    TensorOperator,
    einsum_operator,
    matmul,
    rowwise_softmax,
)


def batched_mm(b=4, m=16, k=12, l=20):
    """A true 4-dim batched matmul with the weight shared across batch."""
    a = Tensor("a", (b, m, k))
    w = Tensor("w", (k, l))
    c = Tensor("c", (b, m, l))
    return TensorOperator(
        name="bmm",
        dims={"B": b, "M": m, "K": k, "L": l},
        inputs=(a, w),
        output=c,
        indexing={"a": ("B", "M", "K"), "w": ("K", "L"), "c": ("B", "M", "L")},
        reduction_dims=frozenset({"K"}),
    )


def contraction_3in():
    """A 5-dim einsum-like contraction: D[i,l] = sum_jk A[i,j] B[j,k] C[k,l]
    modeled as one fused loop nest with two reductions (stress shape)."""
    a = Tensor("a", (16, 12))
    b = Tensor("b", (12, 10))
    c = Tensor("c", (10, 14))
    d = Tensor("d", (16, 14))
    return TensorOperator(
        name="chain3",
        dims={"I": 16, "J": 12, "Kd": 10, "L": 14},
        inputs=(a, b, c),
        output=d,
        indexing={
            "a": ("I", "J"),
            "b": ("J", "Kd"),
            "c": ("Kd", "L"),
            "d": ("I", "L"),
        },
        reduction_dims=frozenset({"J", "Kd"}),
    )


class TestGenericCandidates:
    def test_candidates_fit_buffer(self):
        op = batched_mm()
        for budget in (10, 100, 1000, 10000):
            for candidate in generic_candidates(op, budget):
                assert candidate.dataflow.buffer_footprint(op) <= budget, (
                    candidate.label,
                    budget,
                )

    def test_candidate_count_bounded(self):
        """Constant-size candidate set (one-shot property): per tensor a
        dozen-ish refined stationary tilings + resident, per dim pair an
        untile candidate, per dim a stream candidate."""
        op = batched_mm()
        assert len(generic_candidates(op, 10**6)) <= 80

    def test_stationary_candidate_is_non_redundant(self):
        op = batched_mm()
        for candidate in generic_candidates(op, 500):
            if candidate.label == "stationary[w]":
                report = memory_access(op, candidate.dataflow)
                assert report.per_tensor["w"].multiplier == 1

    def test_resident_candidate_reaches_ideal_for_all(self):
        op = batched_mm()
        candidates = {
            c.label: c for c in generic_candidates(op, 10**7)
        }
        report = memory_access(op, candidates["resident[a]"].dataflow)
        assert report.total == op.ideal_memory_access()


@st.composite
def einsum_like_ops(draw):
    """Einsum-like operators over 3-5 dims: two or three inputs, each
    indexed by a shuffled non-empty subset of the dims, every dim used."""
    letters = "abcde"[: draw(st.integers(3, 5))]
    subsets = st.lists(
        st.sampled_from(letters), min_size=1, max_size=len(letters), unique=True
    )
    inputs = draw(st.lists(subsets, min_size=2, max_size=3))
    used = [letter for letter in letters if any(letter in t for t in inputs)]
    output = draw(st.permutations(used))[: draw(st.integers(1, len(used)))]
    spec = ",".join("".join(t) for t in inputs) + "->" + "".join(output)
    sizes = {letter: draw(st.integers(1, 64)) for letter in used}
    return einsum_operator("op", spec, sizes)


ROLE_FAMILIES = ("untile[", "resident[", "stream[")


class TestRoleFamilies:
    @settings(max_examples=150, deadline=None)
    @given(einsum_like_ops(), st.integers(1, 1 << 14))
    def test_untile_resident_stream_match_bisection(self, operator, buffer_elems):
        def keyed(candidates):
            return [
                (
                    c.label,
                    c.dataflow.schedule.order,
                    tuple(c.dataflow.tiling.items()),
                )
                for c in candidates
                if c.label.startswith(ROLE_FAMILIES)
            ]

        assert keyed(generic_candidates(operator, buffer_elems)) == keyed(
            oracle.generic_role_candidates(operator, buffer_elems)
        )

    @pytest.mark.parametrize(
        "indexing",
        [
            # The diagonal tensor is indexed by every dim, so no stationary
            # candidate is built for it; the untile family meets it.
            {"a": ("i", "i", "j"), "b": ("j",), "c": ("i",)},
            {"a": ("i", "i"), "b": ("j", "k"), "c": ("i", "k")},
        ],
    )
    def test_repeated_index_dim_is_rejected(self, indexing):
        """A tensor indexing one dim twice (a diagonal, which
        ``einsum_operator`` refuses) has a footprint that is not bilinear
        in that dim's tile."""
        extents = {"i": 4, "j": 5, "k": 3}
        dims = sorted({dim for index in indexing.values() for dim in index})
        a, b, c = (
            Tensor(name, tuple(extents[dim] for dim in indexing[name]))
            for name in "abc"
        )
        op = TensorOperator(
            name="diag",
            dims={dim: extents[dim] for dim in dims},
            inputs=(a, b),
            output=c,
            indexing=indexing,
            reduction_dims=frozenset(dims) - set(indexing["c"]),
        )
        with pytest.raises(ValueError, match="repeat"):
            generic_candidates(op, 100)


class TestOptimizeGeneric:
    def test_batched_mm_converges_to_ideal(self):
        op = batched_mm()
        assert (
            optimize_generic(op, 10**7).memory_access == op.ideal_memory_access()
        )

    def test_monotone_in_buffer(self):
        op = batched_mm()
        previous = None
        for budget in (16, 64, 256, 1024, 4096, 16384):
            total = optimize_generic(op, budget).memory_access
            if previous is not None:
                assert total <= previous
            previous = total

    def test_batched_matches_folded_at_large_buffers(self):
        """Folding B into M is exact for batch-shared weights; both models
        agree once the buffer is unconstrained."""
        b, m, k, l = 4, 16, 12, 20
        native = optimize_generic(batched_mm(b, m, k, l), 10**7).memory_access
        folded = optimize_intra(matmul("fold", b * m, k, l), 10**7).memory_access
        assert native == folded

    def test_batched_never_worse_than_folded(self):
        """The native 4-dim space contains the folded dataflows."""
        b, m, k, l = 4, 32, 24, 40
        for budget in (100, 400, 1600, 6400):
            native = optimize_generic(batched_mm(b, m, k, l), budget).memory_access
            folded = optimize_intra(
                matmul("fold", b * m, k, l), budget
            ).memory_access
            assert native <= folded * 1.01  # allow integer-rounding jitter

    def test_three_input_contraction(self):
        op = contraction_3in()
        result = optimize_generic(op, 10**6)
        assert result.memory_access == op.ideal_memory_access()
        tighter = optimize_generic(op, 150)
        assert tighter.memory_access >= result.memory_access

    def test_mm_dispatches_to_exact_path(self):
        op = matmul("mm", 96, 64, 80)
        assert (
            optimize_generic(op, 2000).memory_access
            == optimize_intra(op, 2000).memory_access
        )

    def test_streaming_dispatch(self):
        op = rowwise_softmax("sm", Tensor("x", (16, 16)))
        assert optimize_generic(op, 64).label == "streaming"

    def test_infeasible(self):
        with pytest.raises(InfeasibleError):
            optimize_generic(batched_mm(), 1)

    def test_invalid_buffer(self):
        with pytest.raises(ValueError):
            optimize_generic(batched_mm(), 0)

    @given(
        st.integers(2, 6),
        st.integers(2, 24),
        st.integers(2, 24),
        st.integers(2, 24),
        st.integers(16, 4096),
    )
    @settings(max_examples=40, deadline=None)
    def test_result_at_least_ideal(self, b, m, k, l, budget):
        op = batched_mm(b, m, k, l)
        try:
            result = optimize_generic(op, budget)
        except InfeasibleError:
            return
        assert result.memory_access >= op.ideal_memory_access()
        assert result.dataflow.buffer_footprint(op) <= budget
