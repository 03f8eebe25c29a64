"""Tests for fused multi-operator loop nests (repro.dataflow.fusion_nest)."""

import pytest

from repro.dataflow import (
    FusedChain,
    FusedDataflow,
    FusionError,
    Tiling,
    UNTILED,
    fused_memory_access,
)
from repro.ir import matmul, rowwise_softmax


def mm_pair(m=64, k=32, l=48, n=40):
    op1 = matmul("mm1", m, k, l)
    op2 = matmul("mm2", m, l, n, a=op1.output)
    return op1, op2


class TestChainConstruction:
    def test_global_dims_unified(self):
        op1, op2 = mm_pair()
        chain = FusedChain.from_ops([op1, op2])
        # op2's reduction dim is op1's L; op2's output dim gets a fresh name.
        assert chain.global_dims == {"M": 64, "K": 32, "L": 48, "L1": 40}

    def test_common_dims_are_intermediate_dims(self):
        op1, op2 = mm_pair()
        chain = FusedChain.from_ops([op1, op2])
        assert set(chain.common_dims) == {"M", "L"}

    def test_intermediates(self):
        op1, op2 = mm_pair()
        chain = FusedChain.from_ops([op1, op2])
        assert [t.name for t in chain.intermediates()] == ["mm1.C"]

    def test_external_tensors(self):
        op1, op2 = mm_pair()
        chain = FusedChain.from_ops([op1, op2])
        names = {t.name for t in chain.external_tensors()}
        assert names == {"mm1.A", "mm1.B", "mm2.B", "mm2.C"}

    def test_non_chain_rejected(self):
        op1 = matmul("mm1", 4, 5, 6)
        op2 = matmul("mm2", 4, 6, 7)  # does not consume op1's output
        with pytest.raises(FusionError, match="chain"):
            FusedChain.from_ops([op1, op2])

    def test_count_mismatch_rejected(self):
        op1 = matmul("mm1", 4, 5, 6, count=2)
        op2 = matmul("mm2", 4, 6, 7, a=op1.output, count=3)
        with pytest.raises(FusionError, match="count"):
            FusedChain.from_ops([op1, op2])

    def test_softmax_chain(self):
        op1 = matmul("mm1", 8, 4, 6)
        sm = rowwise_softmax("sm", op1.output)
        op2 = matmul("mm2", 8, 6, 5, a=sm.output)
        chain = FusedChain.from_ops([op1, sm, op2])
        assert set(chain.common_dims) == {"M", "L"}
        assert len(chain.intermediates()) == 2

    def test_ideal_memory_access_excludes_intermediates(self):
        op1, op2 = mm_pair(8, 4, 6, 5)
        chain = FusedChain.from_ops([op1, op2])
        assert chain.ideal_memory_access() == 8 * 4 + 4 * 6 + 6 * 5 + 8 * 5

    def test_macs_preserved(self):
        op1, op2 = mm_pair()
        chain = FusedChain.from_ops([op1, op2])
        assert chain.macs == op1.macs + op2.macs

    def test_private_orders(self):
        chain = FusedChain.from_ops(list(mm_pair()))
        assert chain.common_dims == ("M", "L")
        assert chain.private_orders == {"mm1": ("K",), "mm2": ("L1",)}


class TestFusedDataflowValidation:
    def make(self, **tiles):
        op1, op2 = mm_pair()
        chain = FusedChain.from_ops([op1, op2])
        dataflow = FusedDataflow(
            shared_order=("M", "L"),
            private_orders={"mm1": ("K",), "mm2": ("L1",)},
            tiling=Tiling(tiles),
        )
        return chain, dataflow

    def test_valid(self):
        chain, dataflow = self.make(M=8, L=8, K=1, L1=1)
        dataflow.validate(chain)

    def test_shared_must_be_common(self):
        op1, op2 = mm_pair()
        chain = FusedChain.from_ops([op1, op2])
        dataflow = FusedDataflow(
            shared_order=("M", "K"),
            private_orders={"mm1": ("L",), "mm2": ("L", "L1")},
            tiling=Tiling({"M": 8, "L": 8, "K": 1, "L1": 1}),
        )
        with pytest.raises(FusionError, match="common"):
            dataflow.validate(chain)

    def test_private_orders_must_cover(self):
        op1, op2 = mm_pair()
        chain = FusedChain.from_ops([op1, op2])
        dataflow = FusedDataflow(
            shared_order=("M", "L"),
            private_orders={"mm1": (), "mm2": ("L1",)},
            tiling=Tiling({"M": 8, "L": 8, "K": 1, "L1": 1}),
        )
        with pytest.raises(FusionError, match="cover"):
            dataflow.validate(chain)

    def test_buffer_footprint_counts_each_tensor_once(self):
        chain, dataflow = self.make(M=8, L=8, K=1, L1=1)
        # C(8x8) + A(8x1) + B(1x8) + D(8x1) + E(8x1)
        assert dataflow.buffer_footprint(chain) == 64 + 8 + 8 + 8 + 8


class TestFusedAccessCounting:
    def test_single_osis_formula(self):
        """Fig. 4(a): MA = (MKL + MLN)(1/T_M + 1/T_L), C free."""
        m, k, l, n, t = 64, 32, 48, 40, 8
        op1, op2 = mm_pair(m, k, l, n)
        chain = FusedChain.from_ops([op1, op2])
        dataflow = FusedDataflow(
            shared_order=("M", "L"),
            private_orders={"mm1": ("K",), "mm2": ("L1",)},
            tiling=Tiling({"M": t, "L": t, "K": 1, "L1": 1}),
        )
        report = fused_memory_access(chain, dataflow)
        assert report.fusable
        expected = (m * k * l + m * l * n) * 2 // t
        assert report.total == expected
        assert report.per_tensor["mm1.C"].accesses == 0

    def test_three_resident_reaches_fused_ideal(self):
        m, k, l, n = 64, 32, 48, 40
        op1, op2 = mm_pair(m, k, l, n)
        chain = FusedChain.from_ops([op1, op2])
        dataflow = FusedDataflow(
            shared_order=("M", "L"),
            private_orders={"mm1": ("K",), "mm2": ("L1",)},
            tiling=Tiling({"M": UNTILED, "L": UNTILED, "K": 1, "L1": 1}),
        )
        report = fused_memory_access(chain, dataflow)
        assert report.fusable
        assert report.total == chain.ideal_memory_access()

    def test_intermediate_dims_must_be_shared(self):
        """A nest materializing C across a private loop is rejected: its
        true liveness would exceed the tile footprint (paper's fused
        dataflows always iterate the intermediate's dims jointly)."""
        m, k, l, n = 64, 32, 48, 40
        op1, op2 = mm_pair(m, k, l, n)
        chain = FusedChain.from_ops([op1, op2])
        dataflow = FusedDataflow(
            shared_order=("M",),
            private_orders={"mm1": ("L", "K"), "mm2": ("L", "L1")},
            tiling=Tiling({"M": 8, "L": 8, "K": 1, "L1": 1}),
        )
        with pytest.raises(FusionError, match="intermediate"):
            fused_memory_access(chain, dataflow)

    def test_intermediate_elides_traffic(self):
        """The intermediate is charged nothing but keeps its multiplier,
        so its non-redundancy can be asserted."""
        op1, op2 = mm_pair(32, 16, 24, 20)
        chain = FusedChain.from_ops([op1, op2])
        dataflow = FusedDataflow(
            shared_order=("M", "L"),
            private_orders={"mm1": ("K",), "mm2": ("L1",)},
            tiling=Tiling({"M": 4, "L": 4, "K": 1, "L1": 1}),
        )
        report = fused_memory_access(chain, dataflow)
        assert report.per_tensor["mm1.C"].accesses == 0
        assert report.per_tensor["mm1.C"].multiplier == 1
        assert report.intermediate_multipliers == {"mm1.C": 1}

    def test_count_scales_fused_total(self):
        op1 = matmul("mm1", 16, 8, 12, count=4)
        op2 = matmul("mm2", 16, 12, 10, a=op1.output, count=4)
        chain = FusedChain.from_ops([op1, op2])
        dataflow = FusedDataflow(
            shared_order=("M", "L"),
            private_orders={"mm1": ("K",), "mm2": ("L1",)},
            tiling=Tiling({"M": 4, "L": 4, "K": 1, "L1": 1}),
        )
        report = fused_memory_access(chain, dataflow)
        assert report.total == 4 * report.per_instance_total
