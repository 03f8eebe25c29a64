"""Anchor test: the analytical platform comparison, re-run on the VM.

A miniature Fig. 10: each platform's *chosen dataflows* for a small
workload are executed with real data through the dataflow VMs, and the
measured memory traffic must (a) equal the analytical prediction per
operator and (b) reproduce the platform ordering the analytical comparison
reports.  This ties the headline figure to the operational substrate.
"""

import numpy as np
import pytest

from repro.arch import (
    ALL_PLATFORMS,
    MemorySpec,
    constrained_intra,
    execute_fused_pair,
    execute_matmul_dataflow,
    fusecu,
    validate_against_analytical,
)
from repro.core import optimize_fused
from repro.ir import matmul

#: Small enough to execute, big enough to differentiate platforms.
SHAPES = {
    "proj": (48, 16, 24),
    "qk": (32, 8, 32),
    "av": (32, 32, 8),
}
MEMORY = MemorySpec(buffer_bytes=600)  # a few hundred elements


@pytest.fixture(scope="module")
def operands():
    rng = np.random.default_rng(42)
    data = {}
    for name, (m, k, l) in SHAPES.items():
        data[name] = (
            rng.normal(size=(m, k)),
            rng.normal(size=(k, l)),
        )
    return data


class TestPerOperatorAnchors:
    def test_every_platform_dataflow_realized(self, operands):
        """Each platform's chosen dataflow executes with exactly the
        predicted traffic on every operator."""
        for factory in ALL_PLATFORMS:
            spec = factory(MEMORY)
            for name, (m, k, l) in SHAPES.items():
                op = matmul(name, m, k, l)
                dataflow, report, _label = constrained_intra(op, spec)
                a, b = operands[name]
                matches, comparison = validate_against_analytical(
                    op, dataflow, a, b
                )
                assert matches, (spec.name, name, comparison)

    def test_platform_ordering_reproduced_on_vm(self, operands):
        """Measured total traffic orders the platforms the same way the
        analytical model does."""
        analytical = {}
        measured = {}
        for factory in ALL_PLATFORMS:
            spec = factory(MEMORY)
            total_pred = 0
            total_meas = 0
            for name, (m, k, l) in SHAPES.items():
                op = matmul(name, m, k, l)
                dataflow, report, _ = constrained_intra(op, spec)
                a, b = operands[name]
                execution = execute_matmul_dataflow(op, dataflow, a, b)
                total_pred += report.total
                total_meas += sum(execution.traffic.reads.values()) + sum(
                    execution.traffic.writes.values()
                )
            analytical[spec.name] = total_pred
            measured[spec.name] = total_meas
        order_analytical = sorted(analytical, key=analytical.get)
        order_measured = sorted(measured, key=measured.get)
        assert order_analytical == order_measured


class TestFusedAnchor:
    def test_fusecu_fused_chain_realized(self):
        """FuseCU's fused plan for a chain executes with the predicted
        traffic and beats the measured unfused execution."""
        rng = np.random.default_rng(7)
        m, k, l, n = 32, 8, 32, 8
        op1 = matmul("mm1", m, k, l)
        op2 = matmul("mm2", m, l, n, a=op1.output)
        a = rng.normal(size=(m, k))
        b = rng.normal(size=(k, l))
        d = rng.normal(size=(l, n))
        budget = MEMORY.buffer_elems
        fused = optimize_fused([op1, op2], budget)
        assert fused is not None
        execution = execute_fused_pair(op1, op2, fused.dataflow, a, b, d)
        assert np.allclose(execution.output, (a @ b) @ d)
        fused_measured = sum(execution.traffic.reads.values()) + sum(
            execution.traffic.writes.values()
        )
        assert fused_measured == fused.report.per_instance_total
        # Unfused: two separate optimal executions + the C round trip.
        from repro.core import optimize_intra

        r1 = optimize_intra(op1, budget)
        r2 = optimize_intra(op2, budget)
        e1 = execute_matmul_dataflow(op1, r1.dataflow, a, b)
        c = e1.output
        e2 = execute_matmul_dataflow(op2, r2.dataflow, c, d)
        unfused_measured = sum(
            sum(e.traffic.reads.values()) + sum(e.traffic.writes.values())
            for e in (e1, e2)
        )
        assert fused_measured < unfused_measured
