"""Tests for the analytical memory-access model (repro.dataflow.cost).

Includes a brute-force *tile-walk* reference: execute the tiled loop nest
tile by tile, keep one buffered tile per tensor, and count every fetch.
The analytical multiplier formula must agree exactly -- this validates the
core of the whole library against an operational semantics.
"""

import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from conftest import mm_ops
from repro.dataflow import (
    Dataflow,
    NRAClass,
    PartialSumConvention,
    Schedule,
    Tiling,
    UNTILED,
    fits_buffer,
    memory_access,
)
from repro.ir import matmul


# ----------------------------------------------------------------------
# Operational reference: walk the tiled nest, count tile fetches.
# ----------------------------------------------------------------------
def tile_walk_accesses(op, dataflow):
    """Reference access counts via literal execution of the tiled nest."""
    resolved = dataflow.tiling.for_operator(op)
    order = dataflow.schedule.order
    trip_ranges = [
        range(math.ceil(op.dims[dim] / resolved[dim])) for dim in order
    ]
    buffered = {t.name: None for t in op.tensors}
    counts = {t.name: 0 for t in op.tensors}
    for point in itertools.product(*trip_ranges):
        indices = dict(zip(order, point))
        for tensor in op.tensors:
            dims = op.dims_of(tensor.name)
            tile_id = tuple(indices[d] for d in dims)
            if buffered[tensor.name] != tile_id:
                # Edge tiles are clipped to the tensor boundary.
                tile_elems = 1
                for d, idx in zip(dims, tile_id):
                    start = idx * resolved[d]
                    tile_elems *= min(resolved[d], op.dims[d] - start)
                counts[tensor.name] += tile_elems
                buffered[tensor.name] = tile_id
    return counts


class TestPaperEquations:
    """The closed forms of paper Sec. III-A, reproduced exactly."""

    def test_eq1_output_stationary(self):
        """Eq. 1: MA = MKL(1/T_L + 1/T_M) + ML."""
        m, k, l, t = 128, 64, 256, 16
        op = matmul("mm", m, k, l)
        df = Dataflow(Tiling({"M": t, "L": t, "K": 1}), Schedule(("M", "L", "K")))
        report = memory_access(op, df)
        assert report.total == m * k * l * 2 // t + m * l

    def test_eq3_two_nra(self):
        """Eq. 3: MA = MKL/T_M + MK + ML with K untiled."""
        m, k, l, t_m = 128, 64, 256, 32
        op = matmul("mm", m, k, l)
        df = Dataflow(
            Tiling({"M": t_m, "L": 1, "K": UNTILED}), Schedule(("M", "L", "K"))
        )
        report = memory_access(op, df)
        assert report.total == m * k * l // t_m + m * k + m * l

    def test_three_nra_ideal(self):
        """Three-NRA reaches the ideal MK + KL + ML."""
        m, k, l = 128, 64, 256
        op = matmul("mm", m, k, l)
        df = Dataflow(
            Tiling({"M": 1, "L": UNTILED, "K": UNTILED}), Schedule(("M", "L", "K"))
        )
        assert memory_access(op, df).total == op.ideal_memory_access()

    def test_eq1_per_tensor_breakdown(self):
        m, k, l, t = 128, 64, 256, 16
        op = matmul("mm", m, k, l)
        df = Dataflow(Tiling({"M": t, "L": t, "K": 1}), Schedule(("M", "L", "K")))
        report = memory_access(op, df)
        assert report.per_tensor["mm.A"].accesses == m * k * (l // t)
        assert report.per_tensor["mm.B"].accesses == k * l * (m // t)
        assert report.per_tensor["mm.C"].accesses == m * l

    def test_input_stationary_symmetry(self):
        """A-stationary: MA = MKL(1/T_M + 1/T_K) + MK."""
        m, k, l, t = 128, 64, 256, 16
        op = matmul("mm", m, k, l)
        df = Dataflow(Tiling({"M": t, "K": t, "L": 1}), Schedule(("M", "K", "L")))
        report = memory_access(op, df)
        assert report.total == m * k * l // t * 2 + m * k


class TestNRAClassification:
    def test_single(self):
        op = matmul("mm", 64, 64, 64)
        df = Dataflow(Tiling({"M": 8, "L": 8, "K": 1}), Schedule(("M", "L", "K")))
        assert memory_access(op, df).nra_class is NRAClass.SINGLE

    def test_two(self):
        op = matmul("mm", 64, 64, 64)
        df = Dataflow(
            Tiling({"M": 8, "L": 1, "K": UNTILED}), Schedule(("M", "L", "K"))
        )
        assert memory_access(op, df).nra_class is NRAClass.TWO

    def test_three(self):
        op = matmul("mm", 64, 64, 64)
        df = Dataflow(
            Tiling({"M": 1, "L": UNTILED, "K": UNTILED}), Schedule(("M", "L", "K"))
        )
        assert memory_access(op, df).nra_class is NRAClass.THREE


class TestConventions:
    def test_read_write_convention_charges_spills(self):
        """A-stationary spills C partial sums K/T_K times."""
        m, k, l, t = 32, 16, 24, 4
        op = matmul("mm", m, k, l)
        df = Dataflow(Tiling({"M": t, "K": t, "L": 1}), Schedule(("M", "K", "L")))
        single = memory_access(op, df, PartialSumConvention.SINGLE)
        rw = memory_access(op, df, PartialSumConvention.READ_WRITE)
        passes = k // t
        assert single.per_tensor["mm.C"].accesses == m * l * passes
        assert rw.per_tensor["mm.C"].accesses == m * l * (2 * passes - 1)

    def test_conventions_agree_without_spills(self):
        op = matmul("mm", 32, 16, 24)
        df = Dataflow(Tiling({"M": 4, "L": 4, "K": 1}), Schedule(("M", "L", "K")))
        assert (
            memory_access(op, df, PartialSumConvention.SINGLE).total
            == memory_access(op, df, PartialSumConvention.READ_WRITE).total
        )


class TestMultiplierProperties:
    def test_untiled_loops_are_transparent(self):
        """A loop with trip 1 never contributes a multiplier."""
        op = matmul("mm", 32, 16, 24)
        base = Dataflow(
            Tiling({"M": 4, "L": 4, "K": UNTILED}), Schedule(("M", "L", "K"))
        )
        moved = Dataflow(
            Tiling({"M": 4, "L": 4, "K": UNTILED}), Schedule(("K", "M", "L"))
        )
        assert memory_access(op, base).total == memory_access(op, moved).total

    def test_count_scales_total(self):
        op1 = matmul("mm", 32, 16, 24)
        op3 = matmul("mm", 32, 16, 24, count=3)
        df = Dataflow(Tiling({"M": 4, "L": 4, "K": 1}), Schedule(("M", "L", "K")))
        assert memory_access(op3, df).total == 3 * memory_access(op1, df).total

    @given(mm_ops(max_dim=24), st.data())
    @settings(max_examples=60, deadline=None)
    def test_ma_at_least_ideal(self, op, data):
        tiles = {
            dim: data.draw(st.integers(1, extent), label=dim)
            for dim, extent in op.dims.items()
        }
        order = data.draw(st.permutations(list(op.dims)), label="order")
        df = Dataflow(Tiling(tiles), Schedule(tuple(order)))
        assert memory_access(op, df).total >= op.ideal_memory_access()

    @given(mm_ops(max_dim=12), st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_tile_walk_reference(self, op, data):
        """Analytical counter == operational tile-walk, per tensor."""
        tiles = {
            dim: data.draw(st.integers(1, extent), label=dim)
            for dim, extent in op.dims.items()
        }
        order = data.draw(st.permutations(list(op.dims)), label="order")
        df = Dataflow(Tiling(tiles), Schedule(tuple(order)))
        reference = tile_walk_accesses(op, df)
        report = memory_access(op, df)
        for name, expected in reference.items():
            assert report.per_tensor[name].accesses == expected, (
                f"{name}: analytical {report.per_tensor[name].accesses} != "
                f"walk {expected} (tiles={tiles}, order={order})"
            )


class TestFitsBuffer:
    def test_fits(self):
        op = matmul("mm", 32, 16, 24)
        df = Dataflow(Tiling({"M": 4, "L": 4, "K": 1}), Schedule(("M", "L", "K")))
        footprint = 4 * 1 + 1 * 4 + 4 * 4
        assert fits_buffer(op, df, footprint)
        assert not fits_buffer(op, df, footprint - 1)
