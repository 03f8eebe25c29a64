"""Certification layer tests: independent audits, healing, paranoid mode.

The verify package re-derives every claim the analytical optimizer makes
-- footprint, memory-access count, lower bound, regime -- from the raw
loop nest, without importing :mod:`repro.dataflow.cost`.  These tests
check three things:

* **agreement**: the independent auditors reproduce the analytical
  numbers on random workloads across all four buffer regimes, and a
  literal tile-by-tile simulation agrees with both;
* **detection**: a corrupted memory-access claim is caught by the cost
  auditor (seeded fault injection, no hardware required);
* **healing**: in paranoid mode a budgeted branch-and-bound probe
  replaces a beaten analytical answer with the certified-better dataflow
  and records a structured discrepancy report.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mm_ops
from repro.cli import main
from repro.core import (
    InvalidWorkloadError,
    classify_buffer,
    optimize_fused,
    optimize_intra,
    validate_buffer_elems,
)
from repro.dataflow import memory_access
from repro.dataflow.cost import PartialSumConvention
from repro.ir import matmul
from repro.service import (
    PERMANENT,
    BatchEngine,
    EngineConfig,
    apply_paranoid,
    classify_exception,
    fusion_request,
    intra_request,
    request_key,
)
from repro.verify import (
    CertificationError,
    audit_fused_memory_access,
    audit_footprint,
    audit_memory_access,
    certify_fused,
    certify_intra,
    drain_discrepancies,
    simulate_memory_access,
)

#: The pinned ROADMAP counterexample: green-only fusion picks the wrong
#: shared loop order unless cross patterns (or the B&B fallback) run.
COUNTER = dict(m=43, k=2, l=19, n=23, budget=173)


def counter_ops():
    mm1 = matmul("mm1", COUNTER["m"], COUNTER["k"], COUNTER["l"])
    mm2 = matmul("mm2", COUNTER["m"], COUNTER["l"], COUNTER["n"], a=mm1.output)
    return [mm1, mm2]


@pytest.fixture(autouse=True)
def _clean_registry():
    """Each test starts and ends with an empty discrepancy registry."""
    drain_discrepancies()
    yield
    drain_discrepancies()


# ----------------------------------------------------------------------
# Independent auditors agree with the analytical layer
# ----------------------------------------------------------------------
class TestAuditors:
    @given(mm_ops(min_dim=2, max_dim=64), st.integers(8, 60_000))
    @settings(max_examples=60, deadline=None)
    def test_audit_matches_analytical(self, op, budget):
        """The re-derived counters reproduce cost.py on random optima."""
        result = optimize_intra(op, budget)
        dataflow = result.dataflow
        assert audit_footprint(op, dataflow) <= budget
        recounted = audit_memory_access(op, dataflow)
        assert recounted == result.memory_access
        assert recounted == memory_access(op, dataflow).total

    @given(mm_ops(min_dim=2, max_dim=14), st.integers(8, 400))
    @settings(max_examples=40, deadline=None)
    def test_simulation_matches_audit(self, op, budget):
        """Literally iterating the tile grid charges the audited count."""
        result = optimize_intra(op, budget)
        simulated = simulate_memory_access(op, result.dataflow)
        assert simulated is not None
        assert simulated == audit_memory_access(op, result.dataflow)

    @given(mm_ops(min_dim=2, max_dim=12), st.integers(8, 300))
    @settings(max_examples=20, deadline=None)
    def test_simulation_read_write_convention(self, op, budget):
        convention = PartialSumConvention.READ_WRITE
        result = optimize_intra(op, budget, convention=convention)
        simulated = simulate_memory_access(
            op, result.dataflow, convention=convention
        )
        assert simulated == audit_memory_access(
            op, result.dataflow, convention=convention
        )
        assert simulated == result.memory_access

    def test_simulation_budget_returns_none(self, bert_op):
        result = optimize_intra(bert_op, 4096)
        assert simulate_memory_access(bert_op, result.dataflow, limit=10) is None


# ----------------------------------------------------------------------
# Intra certification across all four regimes
# ----------------------------------------------------------------------
class TestCertifyIntra:
    @given(mm_ops(min_dim=2, max_dim=64), st.integers(8, 200_000))
    @settings(max_examples=60, deadline=None)
    def test_certificates_hold_across_regimes(self, op, budget):
        certified = certify_intra(op, budget)
        assert certified.certificate.ok, certified.certificate.failure_summaries()
        assert not certified.certificate.healed
        assert certified.result.certificate is certified.certificate
        # The regime named in the certificate is the classifier's answer.
        regime = certified.certificate.check("regime")
        assert regime is not None and regime.passed
        assert classify_buffer(op, budget).regime == certified.result.regime.regime

    @given(mm_ops(min_dim=2, max_dim=24), st.integers(8, 2_000))
    @settings(max_examples=25, deadline=None)
    def test_paranoid_probe_never_beats_principles(self, op, budget):
        """B&B cross-check: the analytical intra optimum survives."""
        certified = certify_intra(op, budget, paranoid=True, probe_nodes=50_000)
        assert certified.certificate.ok
        probe = certified.certificate.check("optimality_probe")
        if probe is not None:  # exhausted probes are skipped, never failed
            assert probe.passed

    def test_certificate_serializes(self, small_op):
        certified = certify_intra(small_op, 512, paranoid=True)
        blob = json.dumps(certified.certificate.as_dict(), sort_keys=True)
        assert "cost_audit" in blob
        assert "optimality_probe" in blob


# ----------------------------------------------------------------------
# Fused certification
# ----------------------------------------------------------------------
class TestCertifyFused:
    @given(
        mm_ops(min_dim=2, max_dim=32),
        st.integers(2, 32),
        st.integers(64, 40_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_fused_certificates_hold(self, producer, n, budget):
        p = matmul("p", *(producer.dims[d] for d in ("M", "K", "L")))
        ops = [p, matmul("c", p.dims["M"], p.dims["L"], n, a=p.output)]
        result = optimize_fused(ops, budget, include_cross=True)
        if result is None:  # infeasible at this budget: nothing to certify
            return
        certified = certify_fused(
            ops, budget, result=result, include_cross=True
        )
        assert certified.certificate.ok, certified.certificate.failure_summaries()

    def test_counterexample_not_healed_with_cross(self):
        """After the shared-order fix, full cross search matches B&B."""
        ops = counter_ops()
        certified = certify_fused(
            ops, COUNTER["budget"], include_cross=True, paranoid=True
        )
        assert certified.certificate.ok
        assert not certified.certificate.healed
        assert drain_discrepancies() == ()


# ----------------------------------------------------------------------
# Fault injection: corruption is caught; paranoid mode heals
# ----------------------------------------------------------------------
class TestCorruptionAndHealing:
    def test_corrupted_claim_caught_by_auditor(self, small_op):
        true_ma = optimize_intra(small_op, 512).memory_access
        certified = certify_intra(
            small_op, 512, claimed_memory_access=true_ma - 7
        )
        certificate = certified.certificate
        assert not certificate.ok
        failed = {check.name for check in certificate.failures()}
        assert "cost_audit" in failed
        assert "bound" in failed  # 7 below the optimum undercuts the bound

    def test_paranoid_heals_corrupted_claim(self, small_op):
        true_ma = optimize_intra(small_op, 512).memory_access
        certified = certify_intra(
            small_op, 512, claimed_memory_access=true_ma - 7, paranoid=True
        )
        certificate = certified.certificate
        assert certificate.ok and certificate.healed
        assert certified.result.memory_access == true_ma
        assert certificate.discrepancy is not None
        assert certificate.discrepancy.reason == "failed_audit"
        reports = drain_discrepancies()
        assert len(reports) == 1 and reports[0].healed

    def test_paranoid_heals_single_nra_gap(self):
        """A real Single-NRA loss: the probe beats the principle answer
        (8,098,031,454) and the healed result must pass every check --
        the bound is the infinite-buffer ideal, not the engine's answer."""
        op = matmul("mm", 3079, 3517, 3537)
        certified = certify_intra(op, 116, paranoid=True)
        certificate = certified.certificate
        assert certificate.ok and certificate.healed
        assert certified.result.memory_access == 7_994_656_273
        assert certificate.discrepancy is not None
        assert certificate.discrepancy.reason == "probe_beat_analytical"
        assert certificate.discrepancy.claimed_memory_access == 8_098_031_454

    def test_paranoid_heals_green_only_counterexample(self):
        """The seeded search-layer fault: green-only picks MA=4050; the
        B&B fallback returns the certified 3936 dataflow."""
        ops = counter_ops()
        green_only = optimize_fused(ops, COUNTER["budget"], include_cross=False)
        assert green_only is not None
        certified = certify_fused(
            ops,
            COUNTER["budget"],
            result=green_only,
            include_cross=False,
            paranoid=True,
        )
        certificate = certified.certificate
        assert certificate.ok and certificate.healed
        assert certified.result.memory_access < green_only.memory_access
        discrepancy = certificate.discrepancy
        assert discrepancy is not None
        assert discrepancy.claimed_memory_access == green_only.memory_access
        assert (
            discrepancy.certified_memory_access
            == certified.result.memory_access
        )
        assert discrepancy.improvement > 0
        # The healed answer is exactly the full cross-pattern optimum.
        full = optimize_fused(ops, COUNTER["budget"], include_cross=True)
        assert certified.result.memory_access == full.memory_access

    def test_certification_error_is_permanent(self):
        assert classify_exception(CertificationError("bad")) == PERMANENT


# ----------------------------------------------------------------------
# Input validation at the ir/core boundary
# ----------------------------------------------------------------------
class TestInvalidWorkload:
    @pytest.mark.parametrize("bad", [0, -5, 2.5, float("nan"), True])
    def test_bad_buffer_rejected(self, bad):
        with pytest.raises(InvalidWorkloadError):
            validate_buffer_elems(bad)

    def test_optimize_intra_validates_buffer(self, small_op):
        with pytest.raises(InvalidWorkloadError):
            optimize_intra(small_op, 0)

    def test_integral_float_budget_accepted(self):
        assert validate_buffer_elems(512.0) == 512

    def test_invalid_workload_is_permanent(self):
        assert classify_exception(InvalidWorkloadError("bad")) == PERMANENT


# ----------------------------------------------------------------------
# Service integration: certify/paranoid knobs, report surfacing
# ----------------------------------------------------------------------
class TestServiceCertification:
    def test_paranoid_batch_surfaces_discrepancy(self):
        engine = BatchEngine(EngineConfig(jobs=1, paranoid=True))
        report = engine.run_batch(
            [
                intra_request(64, 32, 48, buffer_elems=1024),
                fusion_request(
                    COUNTER["m"],
                    COUNTER["k"],
                    COUNTER["l"],
                    COUNTER["n"],
                    buffer_elems=COUNTER["budget"],
                ),
            ]
        )
        assert report.errors == 0
        assert report.certified == 2
        discrepancies = report.discrepancies()
        assert len(discrepancies) == 1
        assert discrepancies[0]["healed"] is True
        summary = report.summary_dict()
        assert summary["certified"] == 2
        assert summary["discrepancies"] == 1
        assert "certification : certified=2 discrepancies=1" in (
            report.render_text()
        )
        json.dumps(summary)  # the whole summary stays serializable

    def test_certify_flag_attaches_certificate(self):
        engine = BatchEngine(EngineConfig(jobs=1))
        report = engine.run_batch(
            [intra_request(64, 32, 48, buffer_elems=1024, certify=True)]
        )
        (entry,) = report.entries
        certification = entry.record["result"]["certification"]
        assert certification["ok"] is True
        assert {c["name"] for c in certification["checks"]} >= {
            "feasibility",
            "cost_audit",
            "bound",
        }

    @pytest.mark.parametrize(
        "payload, checks, subject",
        [
            ({"kind": "intra", "m": 64, "k": 32, "l": 48,
              "buffer_elems": 1024, "certify": True},
             "_intra_checks", "'mm'"),
            ({"kind": "fusion", "m": 96, "k": 64, "l": 80, "n": 72,
              "buffer_elems": 16384, "paranoid": True},
             "_fused_checks", "fused chain mm1+mm2"),
        ],
        ids=["intra", "fused"],
    )
    def test_failed_check_is_a_permanent_certification_error(
        self, monkeypatch, payload, checks, subject
    ):
        from repro.service.workers import run_payload
        from repro.verify import certify as certify_module
        from repro.verify.certificate import CheckResult

        real = getattr(certify_module, checks)

        def failing(*args, **kwargs):
            return real(*args, **kwargs) + [
                CheckResult("bound", False, claimed=1, recomputed=2,
                            detail="injected")
            ]

        monkeypatch.setattr(certify_module, checks, failing)
        record = run_payload(payload)
        drain_discrepancies()
        assert record["ok"] is False
        assert record["error"] == {
            "type": "CertificationError",
            "message": f"certification failed for {subject}: "
            "bound: FAIL  claimed=1 recomputed=2  injected",
            "category": PERMANENT,
        }

    def test_apply_paranoid_rewrites_key(self):
        plain = intra_request(64, 32, 48, buffer_elems=1024)
        paranoid = apply_paranoid(plain)
        assert paranoid.param_dict["paranoid"] is True
        assert request_key(paranoid) != request_key(plain)
        # Idempotent: already-paranoid requests pass through untouched.
        assert apply_paranoid(paranoid) == paranoid

    def test_invalid_buffer_classified_permanent(self):
        engine = BatchEngine(EngineConfig(jobs=1))
        report = engine.run_batch(
            [intra_request(64, 32, 48, buffer_elems=-5)]
        )
        (entry,) = report.entries
        assert not entry.ok
        error = entry.record["error"]
        assert error["type"] == "InvalidWorkloadError"
        assert error["category"] == PERMANENT


# ----------------------------------------------------------------------
# CLI: repro certify
# ----------------------------------------------------------------------
class TestCertifyCli:
    def test_certify_known_good(self, capsys):
        rc = main(
            ["certify", "64", "32", "48", "--buffer-elems", "4096", "--paranoid"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "optimality_probe" in out

    def test_certify_catches_corruption(self, capsys):
        rc = main(
            [
                "certify", "64", "32", "48",
                "--buffer-elems", "4096", "--corrupt-ma", "7",
            ]
        )
        assert rc == 0  # rc 0 *because* the corruption was caught
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_certify_fused_heals_counterexample(self, capsys):
        rc = main(
            [
                "certify", "43", "2", "19", "--consumer-n", "23",
                "--buffer-elems", "173", "--no-cross", "--paranoid", "--json",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["healed"] is True
        assert payload["discrepancy"]["certified_memory_access"] == 3936
