"""The analysis memo (``repro.core.memo``) answers exactly what direct calls do.

Renamed twins -- the same structure under other op/tensor names -- share
entries wherever the table's key allows it (op names never reach the
``nra`` and ``intra`` keys; tensor names never reach the ``intra`` key), so
the properties interleave twins and check every memoized answer against a
direct uncached call on the caller's own operator.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from conftest import TENSOR_NAMES, mm_like_ops
from repro.core import InfeasibleError, cached_optimize_intra, optimize_intra
from repro.core import memo
from repro.core.memo import clear_memo, memo_stats
from repro.core.nra import (
    _solve,
    all_candidates,
    nra_cache_info,
    single_nra,
    three_nra,
    two_nra,
)
from repro.ir import Tensor, TensorOperator, matmul


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_memo()
    yield
    clear_memo()


def renamed(operator, name, tensor_names):
    """``operator`` under op name ``name`` with its tensors renamed in order."""
    mapping = dict(zip((t.name for t in operator.tensors), tensor_names))
    tensors = [
        Tensor(mapping[t.name], t.shape, t.dtype_bytes) for t in operator.tensors
    ]
    return TensorOperator(
        name=name,
        dims=operator.dims,
        inputs=tuple(tensors[:-1]),
        output=tensors[-1],
        indexing={mapping[n]: dims for n, dims in operator.indexing.items()},
        reduction_dims=operator.reduction_dims,
        count=operator.count,
        flops_per_point=operator.flops_per_point,
    )


@st.composite
def twin_queries(draw):
    """Interleaved (operator, buffer) queries over a few shared structures."""
    bases = draw(st.lists(mm_like_ops(), min_size=1, max_size=3))
    buffers = draw(st.lists(st.integers(1, 1 << 16), min_size=1, max_size=2))
    queries = []
    for _ in range(draw(st.integers(2, 6))):
        base = draw(st.sampled_from(bases))
        keep_names = draw(st.booleans())
        names = (
            [t.name for t in base.tensors]
            if keep_names
            else draw(st.permutations(TENSOR_NAMES))[:3]
        )
        twin = renamed(base, draw(st.sampled_from(("op", "twin"))), names)
        queries.append((twin, draw(st.sampled_from(buffers))))
    return queries


class TestMemoEqualsDirect:
    @settings(max_examples=100, deadline=None)
    @given(twin_queries())
    def test_memoized_answers_equal_direct_calls(self, queries):
        clear_memo()
        for operator, buffer_elems in queries:
            for tensor in operator.tensors:
                assert single_nra(operator, tensor.name, buffer_elems) == (
                    _solve(operator, "single", (tensor.name,), buffer_elems)
                )
                assert three_nra(operator, tensor.name, buffer_elems) == (
                    _solve(operator, "three", (tensor.name,), buffer_elems)
                )
            for untiled, maximized in itertools.permutations(operator.dim_names, 2):
                assert two_nra(operator, untiled, maximized, buffer_elems) == (
                    _solve(operator, "two", (untiled, maximized), buffer_elems)
                )
            try:
                direct = optimize_intra(operator, buffer_elems)
            except InfeasibleError:
                with pytest.raises(InfeasibleError):
                    cached_optimize_intra(operator, buffer_elems)
                continue
            assert cached_optimize_intra(operator, buffer_elems) == direct


def public_candidates(operator, buffer_elems):
    """The twelve public constructors called one by one, feasible kept."""
    names = [tensor.name for tensor in operator.tensors]
    candidates = [single_nra(operator, name, buffer_elems) for name in names]
    candidates += [
        two_nra(operator, untiled, maximized, buffer_elems)
        for untiled, maximized in itertools.permutations(operator.dim_names, 2)
    ]
    candidates += [three_nra(operator, name, buffer_elems) for name in names]
    return [candidate for candidate in candidates if candidate is not None]


class TestAllCandidates:
    @settings(max_examples=100, deadline=None)
    @given(twin_queries())
    def test_equals_public_constructors_one_by_one(self, queries):
        """Same candidates, ``nra`` keys in LRU order and hit/miss counters."""
        runs = []
        for solve in (all_candidates, public_candidates):
            clear_memo()
            answers = [solve(operator, buffer) for operator, buffer in queries]
            runs.append((answers, memo._TABLES["nra"].keys(), nra_cache_info()))
        assert runs[0] == runs[1]


class TestMemoTables:
    def test_renamed_tensor_is_rescored(self):
        """A same-named operator with a renamed tensor is not served as-is."""
        first = matmul("mm", 64, 32, 48)
        second = matmul("mm", 64, 32, 48, a=Tensor("other_in", (64, 32)))
        cached_optimize_intra(first, 4096)
        result = cached_optimize_intra(second, 4096)
        assert memo_stats()["intra"].hits == 1
        assert result.operator == second
        assert "other_in" in result.report.per_tensor
        assert "mm.A" not in result.report.per_tensor
        assert result == optimize_intra(second, 4096)

    def test_nra_entries_shared_across_op_names(self):
        first = matmul("first", 96, 64, 80)
        cached_optimize_intra(first, 4096)
        misses = nra_cache_info().misses
        assert misses > 0
        optimize_intra(renamed(first, "second", [t.name for t in first.tensors]), 4096)
        info = nra_cache_info()
        assert info.misses == misses
        assert info.hits == misses
        assert info.currsize == misses

    def test_nra_infeasible_answers_are_memoized(self):
        op = matmul("mm", 64, 32, 48)
        assert three_nra(op, "mm.A", 16) is None
        assert three_nra(op, "mm.A", 16) is None
        info = nra_cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)

    def test_stats_surface_and_clear(self):
        cached_optimize_intra(matmul("mm", 32, 16, 24), 1024)
        stats = memo_stats()
        assert set(stats) == {"nra", "intra", "fused"}
        assert stats["intra"].misses == 1 and stats["nra"].size > 0
        clear_memo()
        assert all(
            (s.hits, s.misses, s.size) == (0, 0, 0) for s in memo_stats().values()
        )
