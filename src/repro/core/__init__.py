"""The paper's primary contribution: principle-based dataflow optimization.

Public surface:

* :func:`~repro.core.intra.optimize_intra` / :func:`~repro.core.intra.one_shot_dataflow`
  -- intra-operator optimum (Principles 1-3).
* :func:`~repro.core.fusion.decide_fusion` / :func:`~repro.core.fusion.optimize_fused`
  -- inter-operator fusion profitability (Principle 4, Fig. 4 patterns).
* :func:`~repro.core.lower_bound.intra_lower_bound` -- the per-operator
  communication bound.
* :func:`~repro.core.regimes.classify_buffer` -- the four buffer regimes.
* :func:`~repro.core.intra.cached_optimize_intra` /
  :func:`~repro.core.fusion.cached_optimize_fused` -- the same answers
  through the process-wide analysis memo, whose counters are
  :func:`~repro.core.memo.memo_stats` / :func:`~repro.core.memo.clear_memo`.

Certification sits above this package: :mod:`repro.verify` checks these
answers, and nothing here imports it.
"""

from ..ir.operator import InvalidWorkloadError, validate_buffer_elems
from .memo import clear_memo, memo_stats
from .regimes import BufferRegime, RegimeReport, classify_buffer
from .nra import (
    NRACandidate,
    Role,
    UnsupportedOperatorError,
    all_candidates,
    is_mm_like,
    is_streaming,
    single_nra,
    streaming_dataflow,
    three_nra,
    two_nra,
)
from .intra import (
    InfeasibleError,
    IntraResult,
    cached_optimize_intra,
    one_shot_dataflow,
    optimize_intra,
)
from .principles import (
    ALL_PRINCIPLES,
    Principle,
    optimal_nra_class,
    principle1,
    principle2,
    principle3,
    principle4,
    principle4_same_nra,
    regime_summary,
)
from .fusion import (
    FusionMedium,
    FusedPattern,
    FusedResult,
    FusionDecision,
    cached_optimize_fused,
    cross_patterns,
    decide_fusion,
    optimize_fused,
    profitable_patterns,
    solve_pattern,
)
from .generic import GenericCandidate, generic_candidates, optimize_generic
from .multilevel import (
    TwoLevelResult,
    max_useful_untiled_dim,
    optimize_two_level,
    untiling_is_optimal_at_registers,
)
from .explain import explain_fusion, explain_intra
from .inverse import ParetoPoint, minimal_buffer_for, minimal_buffer_for_ideal, pareto_curve
from .lower_bound import (
    CurvePoint,
    closed_form_curve,
    intra_lower_bound,
    shift_point_band,
    three_nra_threshold,
)

__all__ = [
    "cached_optimize_fused",
    "cached_optimize_intra",
    "clear_memo",
    "memo_stats",
    "explain_fusion",
    "explain_intra",
    "FusionMedium",
    "ParetoPoint",
    "minimal_buffer_for",
    "minimal_buffer_for_ideal",
    "pareto_curve",
    "GenericCandidate",
    "generic_candidates",
    "optimize_generic",
    "TwoLevelResult",
    "max_useful_untiled_dim",
    "optimize_two_level",
    "untiling_is_optimal_at_registers",
    "BufferRegime",
    "RegimeReport",
    "classify_buffer",
    "NRACandidate",
    "UnsupportedOperatorError",
    "all_candidates",
    "is_mm_like",
    "is_streaming",
    "single_nra",
    "streaming_dataflow",
    "three_nra",
    "two_nra",
    "InfeasibleError",
    "InvalidWorkloadError",
    "IntraResult",
    "validate_buffer_elems",
    "one_shot_dataflow",
    "optimize_intra",
    "ALL_PRINCIPLES",
    "Principle",
    "optimal_nra_class",
    "principle1",
    "principle2",
    "principle3",
    "principle4",
    "principle4_same_nra",
    "regime_summary",
    "FusedPattern",
    "FusedResult",
    "FusionDecision",
    "Role",
    "cross_patterns",
    "decide_fusion",
    "optimize_fused",
    "profitable_patterns",
    "solve_pattern",
    "CurvePoint",
    "closed_form_curve",
    "intra_lower_bound",
    "shift_point_band",
    "three_nra_threshold",
]
