"""Tests for the exact branch-and-bound optimizer -- and the certification
of the one-shot principles against it.

Branch and bound is provably globally optimal over the modeled space (loop
orders x trip counts; every tiling is dominated by its trip-count-snapped
form).  The headline test below is therefore the strongest optimality
statement in the suite: the principles' constant-work construction equals
the exact optimum on randomized operators and buffers.
"""

from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

import callback_oracle as oracle
from conftest import mm_ops
from repro.core import InfeasibleError, optimize_intra
from repro.dataflow import (
    FusedChain,
    FusedDataflow,
    PartialSumConvention,
    Tiling,
    fused_memory_access,
)
from repro.dataflow.fusion_nest import charge_fused
from repro.ir import matmul
from repro.search import (
    branch_bound,
    branch_and_bound_fused_search,
    branch_and_bound_search,
    exhaustive_search,
)


class TestBranchAndBound:
    def test_matches_exhaustive_on_small_ops(self):
        """On spaces small enough to brute-force densely, B&B agrees."""
        import itertools

        from repro.dataflow import Dataflow, Schedule, Tiling, memory_access
        from repro.dataflow import all_schedules

        op = matmul("mm", 8, 6, 10)
        for budget in (12, 30, 80, 200):
            bb = branch_and_bound_search(op, budget)
            best = None
            for tiles in itertools.product(
                range(1, 9), range(1, 7), range(1, 11)
            ):
                tiling = Tiling(dict(zip(("M", "K", "L"), tiles)))
                if tiling.buffer_footprint(op) > budget:
                    continue
                for schedule in all_schedules(op):
                    total = memory_access(op, Dataflow(tiling, schedule)).total
                    best = total if best is None else min(best, total)
            if best is None:
                assert bb is None
            else:
                assert bb is not None
                assert bb.memory_access == best, budget

    def test_infeasible(self):
        assert branch_and_bound_search(matmul("mm", 16, 16, 16), 2) is None

    def test_result_fits_buffer(self):
        op = matmul("mm", 64, 48, 56)
        for budget in (20, 200, 2000):
            result = branch_and_bound_search(op, budget)
            assert result.dataflow.buffer_footprint(op) <= budget

    def test_budget_cut_mid_order_counts_every_node(self):
        """A budget that runs out inside a loop order, before that order
        finds a fitting corner, still counts the nodes it expanded."""
        result = branch_and_bound_search(matmul("mm", 24, 9, 249), 2637, max_nodes=4)
        assert result is not None
        assert result.evaluations == 4

    def test_beats_or_ties_grid_search(self):
        op = matmul("mm", 96, 64, 80)
        for budget in (100, 1000, 10000):
            bb = branch_and_bound_search(op, budget)
            grid = exhaustive_search(op, budget)
            assert bb.memory_access <= grid.memory_access


class TestPrinciplesCertifiedOptimal:
    """The strongest reproduction claim: one-shot == exact global optimum."""

    @given(mm_ops(min_dim=2, max_dim=160), st.integers(8, 30000))
    @settings(max_examples=60, deadline=None)
    def test_principles_equal_branch_and_bound(self, op, budget):
        bb = branch_and_bound_search(op, budget)
        try:
            principled = optimize_intra(op, budget)
        except InfeasibleError:
            assert bb is None
            return
        assert bb is not None
        assert principled.memory_access == bb.memory_access, (
            dict(op.dims),
            budget,
            principled.memory_access,
            bb.memory_access,
        )

    def test_paper_example_certified(self):
        op = matmul("bert", 1024, 768, 768)
        bb = branch_and_bound_search(op, 512 * 1024)
        principled = optimize_intra(op, 512 * 1024)
        assert principled.memory_access == bb.memory_access == 2752512


class TestFusedPatternsCertifiedOptimal:
    """The Fig. 4 pattern set covers the global fused optimum exactly."""

    @given(
        st.integers(2, 100),
        st.integers(2, 100),
        st.integers(2, 100),
        st.integers(2, 100),
        st.integers(16, 20000),
    )
    @settings(max_examples=30, deadline=None)
    def test_full_arrow_set_equals_fused_branch_and_bound(self, m, k, l, n, budget):
        """The complete Fig. 4 arrow set (green same-NRA + red cross-NRA
        patterns) hits the exact fused global optimum."""
        from repro.core import optimize_fused
        from repro.search import branch_and_bound_fused_search

        op1 = matmul("mm1", m, k, l)
        op2 = matmul("mm2", m, l, n, a=op1.output)
        bb = branch_and_bound_fused_search([op1, op2], budget)
        patterned = optimize_fused([op1, op2], budget, include_cross=True)
        if bb is None:
            assert patterned is None
            return
        assert patterned is not None
        assert patterned.memory_access == bb.memory_access, (
            (m, k, l, n),
            budget,
        )

    def test_roadmap_counterexample_m43_k2_l19_n23(self):
        """Pinned counterexample once tracked in the ROADMAP: hypothesis
        found (m=43, k=2, l=19, n=23, budget=173) where the full arrow set
        sat ~0.7% above the exact fused optimum (3964 vs 3936).  The gap
        was not an inexpressible uneven tiling -- the tiles were fine -- but
        the role-priority shared-loop order: with K untiled, A's multiplier
        depends on whether M or L is outermost, and the optimum needs the
        non-priority (L, M) order.  ``optimize_fused`` now enumerates every
        permutation of the shared dims, so this asserts exact equality."""
        from repro.core import optimize_fused
        from repro.search import branch_and_bound_fused_search

        op1 = matmul("mm1", 43, 2, 19)
        op2 = matmul("mm2", 43, 19, 23, a=op1.output)
        bb = branch_and_bound_fused_search([op1, op2], 173)
        patterned = optimize_fused([op1, op2], 173, include_cross=True)
        assert bb is not None and patterned is not None
        assert patterned.memory_access == bb.memory_access, (
            patterned.memory_access,
            bb.memory_access,
        )

    @given(
        st.integers(2, 100),
        st.integers(2, 100),
        st.integers(2, 100),
        st.integers(2, 100),
        st.integers(16, 20000),
    )
    @settings(max_examples=30, deadline=None)
    def test_green_arrows_near_optimal(self, m, k, l, n, budget):
        """Principle 4's same-NRA-only restriction stays within a small
        factor of the exact fused optimum (deviation D2: cross patterns win
        only whisker margins on asymmetric shapes)."""
        from repro.core import optimize_fused
        from repro.search import branch_and_bound_fused_search

        op1 = matmul("mm1", m, k, l)
        op2 = matmul("mm2", m, l, n, a=op1.output)
        bb = branch_and_bound_fused_search([op1, op2], budget)
        patterned = optimize_fused([op1, op2], budget, include_cross=False)
        if bb is None or patterned is None:
            return
        assert patterned.memory_access <= 1.10 * bb.memory_access, (
            (m, k, l, n),
            budget,
        )

    def test_fused_bb_returns_valid_dataflow(self):
        from repro.dataflow import FusedChain, fused_memory_access
        from repro.search import branch_and_bound_fused_search

        op1 = matmul("mm1", 64, 32, 48)
        op2 = matmul("mm2", 64, 48, 40, a=op1.output)
        result = branch_and_bound_fused_search([op1, op2], 2000)
        chain = FusedChain.from_ops([op1, op2])
        report = fused_memory_access(chain, result.dataflow)
        assert report.fusable
        assert report.total == result.memory_access
        assert result.dataflow.buffer_footprint(chain) <= 2000


CONVENTIONS = st.sampled_from(list(PartialSumConvention))
BUDGETS = st.one_of(st.none(), st.integers(1, 3000))


class TestProbesEqualPerNodeReference:
    """The box-search probes equal the per-node-dataflow reference probes
    kept in ``callback_oracle``: same dataflow, MA and node count, except
    that a budget cut inside a loop order now counts that order's nodes."""

    @given(
        mm_ops(min_dim=1, max_dim=40), st.integers(1, 5000), CONVENTIONS, BUDGETS
    )
    @settings(max_examples=150, deadline=None)
    def test_intra_probe_equals_reference(
        self, op, buffer_elems, convention, max_nodes
    ):
        probe = branch_and_bound_search(op, buffer_elems, convention, max_nodes)
        reference = oracle.branch_and_bound_search(
            op, buffer_elems, convention, max_nodes
        )
        if reference is None:
            assert probe is None
            return
        assert probe.dataflow == reference.dataflow
        assert probe.memory_access == reference.memory_access
        unbudgeted = oracle.branch_and_bound_search(op, buffer_elems, convention)
        if max_nodes is not None and max_nodes < unbudgeted.evaluations:
            # The budget ran out: every node it allowed was expanded.
            assert probe.evaluations == max_nodes >= reference.evaluations
        else:
            assert probe.evaluations == reference.evaluations

    @given(
        st.tuples(*[st.integers(1, 16)] * 4),
        st.booleans(),
        st.integers(1, 1500),
        CONVENTIONS,
        BUDGETS,
    )
    @settings(max_examples=80, deadline=None)
    def test_fused_probe_equals_reference(
        self, dims, consumer_reads_a, buffer_elems, convention, max_nodes
    ):
        m, k, l, n = dims
        op1 = matmul("mm1", m, k, l)
        if consumer_reads_a:
            op2 = matmul("mm2", m, l, n, a=op1.output)
        else:
            op2 = matmul("mm2", n, m, l, b=op1.output)
        chain = FusedChain.from_ops([op1, op2])
        charged = []

        def checked_charge(chain_, shared_order, private_orders, trips, convention_):
            report = charge_fused(
                chain_, shared_order, private_orders, trips, convention_
            )
            tiles = {d: -(-e // trips[d]) for d, e in chain.global_dims.items()}
            dataflow = FusedDataflow(shared_order, private_orders, Tiling(tiles))
            assert report == fused_memory_access(chain, dataflow, convention_)
            charged.append(report)
            return report

        with patch.object(branch_bound, "charge_fused", checked_charge):
            probe = branch_and_bound_fused_search(
                [op1, op2], buffer_elems, convention, max_nodes
            )
        reference = oracle.branch_and_bound_fused_search(
            [op1, op2], buffer_elems, convention, max_nodes
        )
        if reference is None:
            assert probe is None
            return
        assert charged
        assert probe.dataflow == reference.dataflow
        assert probe.memory_access == reference.memory_access
        assert probe.evaluations == reference.evaluations
