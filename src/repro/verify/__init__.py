"""Self-verification layer: certificates, audits, and healing fallbacks.

Independently validates optimization results from :mod:`repro.core`
against first-principles recounts (:mod:`repro.verify.audit`), the
infinite-buffer ideal, and -- in paranoid mode -- a budgeted
branch-and-bound probe with a self-healing fallback
(:mod:`repro.verify.certify`).

Import direction: this package imports :mod:`repro.core`,
:mod:`repro.search` and :mod:`repro.plan`, and none of them imports it.
A caller that wants a certified answer solves first and certifies after;
:func:`certified_result` turns a failed certificate into
:class:`CertificationError`.
"""

from .audit import (
    audit_footprint,
    audit_fused_footprint,
    audit_fused_memory_access,
    audit_memory_access,
    simulate_memory_access,
)
from .certificate import (
    Certificate,
    CertificationError,
    CheckResult,
    DiscrepancyReport,
)
from .certify import (
    DEFAULT_PROBE_NODES,
    DEFAULT_SIMULATE_LIMIT,
    CertifiedFused,
    CertifiedIntra,
    certified_result,
    certify_fused,
    certify_intra,
    drain_discrepancies,
    list_discrepancies,
    record_discrepancy,
)
from .plan_audit import CertifiedPlan, certify_plan

__all__ = [
    "Certificate",
    "CertificationError",
    "CertifiedFused",
    "CertifiedIntra",
    "CertifiedPlan",
    "CheckResult",
    "DEFAULT_PROBE_NODES",
    "DEFAULT_SIMULATE_LIMIT",
    "DiscrepancyReport",
    "audit_footprint",
    "audit_fused_footprint",
    "audit_fused_memory_access",
    "audit_memory_access",
    "certified_result",
    "certify_fused",
    "certify_intra",
    "certify_plan",
    "drain_discrepancies",
    "list_discrepancies",
    "record_discrepancy",
    "simulate_memory_access",
]
