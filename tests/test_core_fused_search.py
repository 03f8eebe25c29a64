"""The fused search scores every candidate and builds one winner.

``optimize_fused`` ranks each (pattern, medium, shared order) by its
trip-count score and builds, recounts and classifies only the winner;
``decide_fusion`` solves each operator's intra optimum once.  These tests
pin both against the slow paths they replace:

* ``optimize_fused`` equals ``callback_oracle.optimize_fused``, the loop
  that builds and recounts every solved candidate -- pattern label,
  medium, dataflow, report and per-operator NRA classes, ``None`` for
  ``None`` -- over random chains, buffers, conventions and media;
* ``decide_fusion``'s prediction equals Principle 4 pair by pair, and it
  calls ``optimize_intra`` once per operator; a certified or paranoid
  ``fusion`` request certifies exactly those optima, solving nothing
  twice.
"""

import pytest
from hypothesis import given, settings, strategies as st

import callback_oracle as oracle
from conftest import DTYPES
from repro.core import fusion, principles
from repro.core.fusion import (
    FusionError,
    FusionMedium,
    decide_fusion,
    optimize_fused,
    profitable_patterns,
    solve_pattern,
)
from repro.core.intra import optimize_intra
from repro.core.principles import principle4_same_nra
from repro.dataflow.cost import PartialSumConvention
from repro.dataflow.fusion_nest import FusedChain
from repro.ir import Tensor, TensorOperator, matmul, rowwise_softmax
from repro.service import workers
from repro.verify import certify_intra, drain_discrepancies

CONVENTIONS = st.sampled_from(tuple(PartialSumConvention))
MEDIA = st.sampled_from(tuple(FusionMedium))


@st.composite
def mm_chains(draw, max_dim=4096, softmax=True):
    """Two matmuls (the intermediate feeds A or B), optionally with a
    row-wise softmax between them."""
    m, k, l, n = draw(st.lists(st.integers(1, max_dim), min_size=4, max_size=4))
    op1 = matmul("mm1", m, k, l, dtype_bytes=draw(DTYPES))
    middle = []
    source = op1.output
    if softmax and draw(st.booleans()):
        middle = [rowwise_softmax("sm", op1.output)]
        source = middle[0].output
    if draw(st.booleans()):
        op2 = matmul("mm2", m, l, n, a=source, dtype_bytes=draw(DTYPES))
    else:
        op2 = matmul("mm2", n, m, l, b=source, dtype_bytes=draw(DTYPES))
    return (op1, *middle, op2)


@st.composite
def rowsum_chains(draw):
    """``S[M] = sum_L A[M,L]`` then ``Y[M,L] = S[M] * A[M,L]``: the
    intermediate misses a shared dim, so some orders and tiles re-fetch it
    (not fusable), and both operators read ``A``."""
    m, l = draw(st.lists(st.integers(1, 4096), min_size=2, max_size=2))
    a = Tensor("A", (m, l), draw(DTYPES))
    s = Tensor("S", (m,))
    rowsum = TensorOperator(
        name="rowsum",
        dims={"M": m, "L": l},
        inputs=(a,),
        output=s,
        indexing={"A": ("M", "L"), "S": ("M",)},
        reduction_dims=frozenset({"L"}),
    )
    scale = TensorOperator(
        name="scale",
        dims={"M": m, "L": l},
        inputs=(s, a),
        output=Tensor("Y", (m, l)),
        indexing={"S": ("M",), "A": ("M", "L"), "Y": ("M", "L")},
    )
    return rowsum, scale


def fused_kwargs():
    return st.fixed_dictionaries(
        {
            "include_cross": st.booleans(),
            "convention": CONVENTIONS,
            "medium": MEDIA,
            "register_elems": st.integers(1, 1 << 14),
        }
    )


def assert_same_winner(result, expected):
    if expected is None:
        assert result is None
        return
    assert result is not None
    assert result.pattern.label == expected.pattern.label
    assert result.medium is expected.medium
    assert result.dataflow == expected.dataflow
    assert result.report == expected.report
    assert result.per_op_nra == expected.per_op_nra
    assert result == expected


class TestOneWinner:
    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(mm_chains(), rowsum_chains()),
        st.integers(1, 1 << 20),
        fused_kwargs(),
    )
    def test_optimize_fused_equals_all_recount_loop(
        self, ops, buffer_elems, kwargs
    ):
        # The loop's per-candidate solver is the library's: its equality
        # with the callback solver is pinned in test_core_closed_form.
        assert_same_winner(
            optimize_fused(ops, buffer_elems, **kwargs),
            oracle.optimize_fused(ops, buffer_elems, solve=solve_pattern, **kwargs),
        )

    @settings(max_examples=20, deadline=None)
    @given(mm_chains(), st.integers(1, 1 << 20), fused_kwargs())
    def test_optimize_fused_equals_callback_oracle(
        self, ops, buffer_elems, kwargs
    ):
        assert_same_winner(
            optimize_fused(ops, buffer_elems, **kwargs),
            oracle.optimize_fused(ops, buffer_elems, **kwargs),
        )

    def test_pinned_order_counterexample(self):
        # Needs the non-priority shared order to reach the optimum.
        op1 = matmul("mm1", 43, 2, 19)
        op2 = matmul("mm2", 43, 19, 23, a=op1.output)
        for include_cross in (False, True):
            result = optimize_fused([op1, op2], 173, include_cross=include_cross)
            assert_same_winner(
                result,
                oracle.optimize_fused([op1, op2], 173, include_cross=include_cross),
            )
        assert result.memory_access == 3936

    def test_read_write_ranks_by_its_own_recount(self):
        # Under READ_WRITE the trip-count score (the SINGLE total) ranks
        # this chain's candidates wrongly: each order's winner is recounted.
        op1 = matmul("mm1", 352, 59, 435)
        op2 = matmul("mm2", 352, 435, 2581, a=op1.output)
        kwargs = dict(convention=PartialSumConvention.READ_WRITE)
        result = optimize_fused([op1, op2], 62286, **kwargs)
        assert_same_winner(
            result, oracle.optimize_fused([op1, op2], 62286, **kwargs)
        )
        assert result.memory_access == 4374480

    def test_error_paths_raise_as_before(self):
        ops = [matmul("mm1", 64, 32, 48)]
        ops.append(matmul("mm2", 64, 48, 40, a=ops[0].output))
        chain = FusedChain.from_ops(ops)
        pattern = profitable_patterns(chain)[0]
        with pytest.raises(FusionError, match="concrete medium"):
            solve_pattern(chain, pattern, 1000, medium=FusionMedium.BEST)
        for medium in (FusionMedium.COMPUTE_UNIT, FusionMedium.BEST):
            with pytest.raises(FusionError, match="needs register_elems"):
                optimize_fused(ops, 1000, medium=medium)
            with pytest.raises(FusionError, match="needs register_elems"):
                decide_fusion(ops, 1000, medium=medium)
        with pytest.raises(FusionError, match="at least two operators"):
            decide_fusion(ops[:1], 1000)


def fusion_payload(dims, buffer_elems, **flags):
    m, k, l, n = dims
    return {"kind": "fusion", "m": m, "k": k, "l": l, "n": n,
            "buffer_elems": buffer_elems, **flags}


class TestDecideFusionSinglePass:
    @settings(max_examples=60, deadline=None)
    @given(mm_chains(), st.integers(8, 1 << 20), CONVENTIONS)
    def test_prediction_is_principle4_pair_by_pair(
        self, ops, buffer_elems, convention
    ):
        decision = decide_fusion(ops, buffer_elems, convention=convention)
        assert decision.predicted_profitable == all(
            principle4_same_nra(a, b, buffer_elems, convention)
            for a, b in zip(ops, ops[1:])
        )
        assert decision.unfused == tuple(
            optimize_intra(op, buffer_elems, convention) for op in ops
        )

    @pytest.mark.parametrize("paranoid", [False, True])
    @settings(max_examples=6, deadline=None)
    @given(
        st.lists(st.integers(1, 24), min_size=4, max_size=4),
        st.integers(8, 1 << 12),
        CONVENTIONS,
        st.booleans(),
    )
    def test_certified_unfused_equals_optimize_intra(
        self, paranoid, dims, buffer_elems, convention, include_cross
    ):
        m, k, l, n = dims
        record = workers.run_payload(
            fusion_payload(
                dims, buffer_elems, convention=convention.value,
                include_cross=include_cross, certify=True, paranoid=paranoid,
            )
        )
        drain_discrepancies()
        op1 = matmul("mm1", m, k, l)
        op2 = matmul("mm2", m, l, n, a=op1.output)
        expected = [
            certify_intra(
                op, buffer_elems,
                result=optimize_intra(op, buffer_elems, convention),
                convention=convention, paranoid=paranoid,
            )
            for op in (op1, op2)
        ]
        drain_discrepancies()
        result = record["result"]
        for op, certified in zip((op1, op2), expected):
            assert result["certification"][op.name] == (
                certified.certificate.as_dict()
            )
        assert result["unfused_memory_access"] == sum(
            certified.result.memory_access for certified in expected
        )

    def test_one_intra_solve_per_operator(self, monkeypatch):
        calls = []

        def spy(operator, *args, **kwargs):
            calls.append(operator.name)
            return optimize_intra(operator, *args, **kwargs)

        for module in (fusion, principles, workers):
            monkeypatch.setattr(module, "optimize_intra", spy)
        op1 = matmul("mm1", 96, 64, 80)
        sm = rowwise_softmax("sm", op1.output)
        op2 = matmul("mm2", 96, 80, 72, a=sm.output)
        decide_fusion([op1, sm, op2], 16384)
        assert calls == ["mm1", "sm", "mm2"]
        calls.clear()
        # The worker certifies the decision's own optima.
        record = workers.run_payload(
            fusion_payload((96, 64, 80, 72), 16384, certify=True)
        )
        assert record["ok"] and "mm1" in record["result"]["certification"]
        assert calls == ["mm1", "mm2"]
