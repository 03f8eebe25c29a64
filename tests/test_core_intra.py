"""Tests for the intra-operator principle optimizer (paper Sec. III-A).

The central claims verified here:

* the principle-based optimum never loses to exhaustive search over the
  same space (the "lower bound" claim, Fig. 9);
* the paper's worked BERT example reproduces exactly;
* the one-shot regime procedure agrees with the full candidate minimum for
  balanced operators (and the documented deviation for extreme aspect
  ratios stays bounded).
"""

import pytest
from hypothesis import given, settings, strategies as st

from conftest import mm_ops
from repro.core import (
    BufferRegime,
    InfeasibleError,
    UnsupportedOperatorError,
    classify_buffer,
    one_shot_dataflow,
    optimize_intra,
)
from repro.dataflow import NRAClass, memory_access
from repro.ir import Tensor, matmul, rowwise_softmax
from repro.search import exhaustive_search


class TestPaperExample:
    """Sec. III-A4: A(1024,768) x B(768,768), BS = 512 KB."""

    def setup_method(self):
        self.op = matmul("bert", 1024, 768, 768)
        self.result = optimize_intra(self.op, 512 * 1024)

    def test_regime_is_medium(self):
        assert self.result.regime.regime is BufferRegime.MEDIUM

    def test_two_nra_chosen(self):
        assert self.result.nra_class is NRAClass.TWO

    def test_k_untiled(self):
        tiling = self.result.dataflow.tiling.for_operator(self.op)
        assert tiling["K"] == 768

    def test_l_minimized(self):
        tiling = self.result.dataflow.tiling.for_operator(self.op)
        assert tiling["L"] == 1

    def test_b_access_is_2kl(self):
        """The paper: "minimizing memory access for tensor B to 2KL"."""
        assert self.result.report.per_tensor["bert.B"].accesses == 2 * 768 * 768

    def test_a_and_c_non_redundant(self):
        assert self.result.report.per_tensor["bert.A"].multiplier == 1
        assert self.result.report.per_tensor["bert.C"].multiplier == 1


class TestOptimizeIntraBasics:
    def test_result_fits_buffer(self):
        op = matmul("mm", 64, 32, 48)
        for budget in (10, 100, 1000, 10000):
            result = optimize_intra(op, budget)
            assert result.dataflow.buffer_footprint(op) <= budget

    def test_monotone_in_buffer(self):
        op = matmul("mm", 96, 64, 80)
        previous = None
        for budget in (16, 64, 256, 1024, 4096, 16384):
            total = optimize_intra(op, budget).memory_access
            if previous is not None:
                assert total <= previous
            previous = total

    def test_dims_above_float_precision(self):
        """``m = k = 2**53 + 1``, ``l = 4`` at 3 elements: all tiles 1, order
        (K, L, M), so A is re-read per L trip (4), B once and C per K trip
        (``d``).  A float trip count served ``d - 1`` for C."""
        d = 2**53 + 1
        result = optimize_intra(matmul("mm", d, d, 4), 3)
        assert result.label == "single[mm.B]"
        multipliers = {
            name: entry.multiplier
            for name, entry in result.report.per_tensor.items()
        }
        assert multipliers == {"mm.A": 4, "mm.B": 1, "mm.C": d}
        assert result.memory_access == 4 * d * d + 4 * d + 4 * d * d
        assert result.memory_access == 649037107316853633710297135972364

    def test_large_buffer_reaches_ideal(self):
        op = matmul("mm", 64, 32, 48)
        result = optimize_intra(op, 10**6)
        assert result.memory_access == op.ideal_memory_access()

    def test_infeasible_raises(self):
        op = matmul("mm", 64, 32, 48)
        with pytest.raises(InfeasibleError):
            optimize_intra(op, 2)

    def test_invalid_buffer(self):
        with pytest.raises(ValueError):
            optimize_intra(matmul("mm", 4, 4, 4), 0)

    def test_streaming_operator(self):
        op = rowwise_softmax("sm", Tensor("x", (32, 48)))
        result = optimize_intra(op, 100)
        assert result.memory_access == op.ideal_memory_access()
        assert result.label == "streaming"

    def test_unsupported_operator(self):
        weird = Tensor("w", (4, 5, 6))
        from repro.ir import TensorOperator

        op = TensorOperator(
            name="odd",
            dims={"A": 4, "B": 5, "C": 6, "D": 7},
            inputs=(weird,),
            output=Tensor("o", (4, 7)),
            indexing={"w": ("A", "B", "C"), "o": ("A", "D")},
        )
        with pytest.raises(UnsupportedOperatorError):
            optimize_intra(op, 100)

    def test_count_scales_result(self):
        op1 = matmul("mm", 64, 32, 48)
        op4 = matmul("mm", 64, 32, 48, count=4)
        assert (
            optimize_intra(op4, 500).memory_access
            == 4 * optimize_intra(op1, 500).memory_access
        )

    def test_redundancy_at_least_one(self):
        op = matmul("mm", 64, 32, 48)
        assert optimize_intra(op, 100).redundancy >= 1.0


class TestPrincipleOptimality:
    """The Fig. 9 claim: principles never lose to search."""

    @given(mm_ops(min_dim=3, max_dim=40), st.integers(8, 5000))
    @settings(max_examples=30, deadline=None)
    def test_never_loses_to_exhaustive(self, op, budget):
        searched = exhaustive_search(op, budget)
        try:
            principled = optimize_intra(op, budget)
        except InfeasibleError:
            assert searched is None
            return
        if searched is not None:
            assert principled.memory_access <= searched.memory_access

    def test_beats_search_on_paper_example(self):
        op = matmul("bert", 1024, 768, 768)
        budget = 512 * 1024
        searched = exhaustive_search(op, budget)
        principled = optimize_intra(op, budget)
        assert principled.memory_access <= searched.memory_access


class TestOneShot:
    def test_matches_full_optimum_on_balanced_ops(self):
        """For comparable dims the literal regime table is (near-)exact.

        In the medium/large regimes the table's pick is exactly optimal; in
        the tiny/small regimes the "smallest tensor stationary" heuristic
        can be ~1% off due to integer tile-rounding (e.g. the second
        smallest tensor dividing more evenly).  The paper's continuous
        analysis ignores rounding, so exactness there and a tight bound
        here is the faithful statement.
        """
        for dims in ((64, 64, 64), (96, 64, 80), (128, 96, 112), (48, 64, 56)):
            op = matmul("mm", *dims)
            for budget in (64, 256, 1024, 4096, 16384):
                full = optimize_intra(op, budget)
                one_shot = one_shot_dataflow(op, budget)
                regime = classify_buffer(op, budget).regime
                if regime in (BufferRegime.MEDIUM, BufferRegime.LARGE):
                    assert one_shot.memory_access == full.memory_access, (
                        dims,
                        budget,
                    )
                else:
                    assert (
                        one_shot.memory_access <= 1.05 * full.memory_access
                    ), (dims, budget)

    def test_regime_recorded(self):
        op = matmul("mm", 96, 64, 80)
        result = one_shot_dataflow(op, 500)
        assert result.regime is not None

    @given(mm_ops(min_dim=4, max_dim=64), st.integers(16, 20000))
    @settings(max_examples=40, deadline=None)
    def test_one_shot_within_factor_of_optimum(self, op, budget):
        """Even at extreme aspect ratios the regime table stays close.

        The paper's table assumes the non-dominant MA terms are minor; with
        extreme aspect ratios (huge M, small K/L) the one-shot pick can be
        mildly suboptimal -- documented in EXPERIMENTS.md.  Bound the gap.
        """
        try:
            full = optimize_intra(op, budget).memory_access
        except InfeasibleError:
            return
        one_shot = one_shot_dataflow(op, budget).memory_access
        assert full <= one_shot <= 2 * full

    def test_streaming_passthrough(self):
        op = rowwise_softmax("sm", Tensor("x", (32, 48)))
        assert one_shot_dataflow(op, 100).memory_access == op.ideal_memory_access()
