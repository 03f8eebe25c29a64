"""Ablation: fusion on/off and Principle 4's pattern claim.

* FuseCU vs UnfCU isolates the fusion contribution per model (the paper's
  UnfCU ablation).
* Cross-NRA fused patterns (Fig. 4 red arrows) never win the fused-space
  optimization -- the operative content of Principle 4.
"""

from repro.core import optimize_fused
from repro.experiments import format_table
from repro.ir import matmul
from repro.plan import optimize_graph
from repro.workloads import PAPER_MODELS, build_layer_graph

BUFFER = 512 * 1024


def test_fusion_contribution_per_model(benchmark):
    def run():
        rows = []
        for model in PAPER_MODELS:
            graph = build_layer_graph(model)
            fused = optimize_graph(graph, BUFFER).memory_access
            unfused = optimize_graph(
                graph, BUFFER, enable_fusion=False
            ).memory_access
            rows.append(
                [model.name, unfused, fused, f"{1 - fused / unfused:.1%}"]
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print(
        "\n"
        + format_table(
            ["model", "unfused MA", "fused MA", "fusion saving"],
            rows,
            title="Ablation: graph-level fusion contribution (512 KB buffer)",
        )
    )
    for row in rows:
        assert row[2] < row[1], row  # fusion strictly reduces MA everywhere


def test_cross_nra_patterns_never_win(benchmark):
    """Principle 4 on transformer-class chains: the optimal fused dataflow
    always uses same-NRA modes.

    The shapes below are the paper's workload shapes (attention and FFN
    chains, where producer and consumer have comparable dimensions).  For
    *extremely* asymmetric chains the principle has whisker-margin
    exceptions -- quantified by ``test_cross_nra_exception_margin`` below
    and recorded in EXPERIMENTS.md.
    """

    shapes = [
        (256, 64, 256, 64),     # Blenderbot attention
        (1024, 64, 1024, 64),   # BERT attention
        (512, 512, 512, 512),   # square GEMM chain
        (128, 512, 128, 512),   # FFN-like
        (4096, 128, 4096, 128), # LLaMA2 attention
    ]
    budgets = (32 * 1024, 128 * 1024, 512 * 1024, 2 * 1024 * 1024)

    def run():
        winners = []
        for m, k, l, n in shapes:
            op1 = matmul("mm1", m, k, l)
            op2 = matmul("mm2", m, l, n, a=op1.output)
            for budget in budgets:
                result = optimize_fused([op1, op2], budget, include_cross=True)
                if result is not None:
                    winners.append(((m, k, l, n), budget, result.pattern))
        return winners

    winners = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [str(shape), budget // 1024, pattern.label, pattern.cross_nra]
        for shape, budget, pattern in winners
    ]
    print(
        "\n"
        + format_table(
            ["chain (M,K,L,N)", "buffer (KB)", "winning pattern", "cross-NRA?"],
            rows,
            title="Ablation: winning fused patterns (Principle 4 check)",
        )
    )
    assert winners
    assert not any(pattern.cross_nra for _s, _b, pattern in winners)


def test_cross_nra_exception_margin(benchmark):
    """Reproduction finding: on an extremely asymmetric chain (tiny N) a
    cross-NRA pattern can edge out the best same-NRA one -- but only by a
    sub-percent margin.  Principle 4 therefore costs at most ~1% even where
    it is not exactly optimal."""

    op1 = matmul("mm1", 1024, 1024, 1024)
    op2 = matmul("mm2", 1024, 1024, 16, a=op1.output)

    def run():
        margins = []
        for budget in (128 * 1024, 512 * 1024):
            with_cross = optimize_fused([op1, op2], budget, include_cross=True)
            same_only = optimize_fused([op1, op2], budget, include_cross=False)
            margins.append(
                (budget, with_cross.memory_access, same_only.memory_access)
            )
        return margins

    margins = benchmark.pedantic(run, rounds=1, iterations=1)
    for budget, best, same_nra in margins:
        gap = same_nra / best - 1.0
        print(
            f"\nBS={budget // 1024}KB: best={best} (cross allowed), "
            f"same-NRA only={same_nra} (+{gap:.2%})"
        )
        assert gap < 0.02  # Principle 4's worst-case cost stays tiny
