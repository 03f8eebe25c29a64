"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from repro.ir import Tensor, TensorOperator, matmul

# ----------------------------------------------------------------------
# Hypothesis profiles: deterministic by default
# ----------------------------------------------------------------------
# Tier-1 must not flake.  The "ci" profile derandomizes example
# generation (examples derive from each test's structure, not a fresh
# RNG seed per run), so a hypothesis-heavy suite either always passes or
# always fails -- known gaps get pinned as explicit xfail regression
# tests instead of ambushing unrelated PRs.  Opt back into randomized
# exploration locally with HYPOTHESIS_PROFILE=explore to hunt new
# counterexamples.
settings.register_profile("ci", derandomize=True)
settings.register_profile("explore", derandomize=False)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))


@pytest.fixture
def bert_op():
    """The paper's worked example: A(1024,768) x B(768,768) (Sec. III-A4)."""
    return matmul("bert", 1024, 768, 768)


@pytest.fixture
def small_op():
    """A small MM convenient for exhaustive ground truth."""
    return matmul("small", 24, 16, 20)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


# ----------------------------------------------------------------------
# Hypothesis strategies
# ----------------------------------------------------------------------
def mm_dims(min_dim: int = 2, max_dim: int = 96):
    """Random (M, K, L) triples."""
    dim = st.integers(min_value=min_dim, max_value=max_dim)
    return st.tuples(dim, dim, dim)


def mm_ops(min_dim: int = 2, max_dim: int = 96):
    """Random matmul operators."""
    return mm_dims(min_dim, max_dim).map(
        lambda dims: matmul("op", dims[0], dims[1], dims[2])
    )


DIM_NAMES = ("M", "K", "L", "N", "P", "Q")
TENSOR_NAMES = ("A", "B", "C", "X", "W", "Y")
DTYPES = st.sampled_from((1, 2, 4))


@st.composite
def mm_like_ops(draw):
    """MM-like operators with shuffled dim/tensor names and mixed dtypes."""
    names = draw(st.permutations(DIM_NAMES))[:3]
    extents = draw(st.lists(st.integers(1, 4096), min_size=3, max_size=3))
    dims = dict(zip(names, extents))
    pairs = [tuple(names[i] for i in pair) for pair in ((0, 1), (1, 2), (0, 2))]
    pairs = [pair[::-1] if draw(st.booleans()) else pair for pair in pairs]
    pairs = draw(st.permutations(pairs))
    tensor_names = draw(st.permutations(TENSOR_NAMES))[:3]
    tensors = [
        Tensor(name, tuple(dims[d] for d in pair), draw(DTYPES))
        for name, pair in zip(tensor_names, pairs)
    ]
    output = tensors[2]
    return TensorOperator(
        name="op",
        dims=dims,
        inputs=tuple(tensors[:2]),
        output=output,
        indexing={t.name: pair for t, pair in zip(tensors, pairs)},
        reduction_dims=frozenset(set(names) - set(pairs[2])),
    )


def buffer_sizes(min_size: int = 8, max_size: int = 1 << 16):
    return st.integers(min_value=min_size, max_value=max_size)
