"""Fusion analysis of a full BERT encoder layer (paper Sec. III-B).

Builds the layer's operator graph (projections, per-head attention, FFN),
runs the graph-level fusion planner, and reports:

* which chains fuse and under which Fig. 4 pattern,
* the memory-access saving of each fusion,
* the Principle 4 prediction next to the measured decision.

Run:  python examples/bert_fusion_analysis.py [buffer_kb]
"""

import sys

from repro.core import decide_fusion
from repro.experiments import format_table
from repro.plan import optimize_graph
from repro.workloads import BERT, build_layer_graph


def main() -> None:
    buffer_kb = int(sys.argv[1]) if len(sys.argv) > 1 else 512
    buffer_elems = buffer_kb * 1024
    graph = build_layer_graph(BERT)

    print(f"BERT encoder layer: {len(graph)} operators, "
          f"{graph.macs / 1e9:.1f} GMACs, buffer {buffer_kb} KB")
    print()

    # ------------------------------------------------------------------
    # Per-chain fusion decisions.
    # ------------------------------------------------------------------
    rows = []
    for chain in graph.chains():
        if len(chain) < 2:
            continue
        decision = decide_fusion(chain, buffer_elems)
        pattern = decision.fused.pattern.label if decision.fused else "-"
        rows.append(
            [
                " -> ".join(op.name.split(".")[-1] for op in chain),
                decision.unfused_memory_access,
                decision.fused_memory_access or "-",
                pattern,
                "yes" if decision.predicted_profitable else "no",
                "yes" if decision.profitable else "no",
                f"{decision.saving:.1%}",
            ]
        )
    print(
        format_table(
            [
                "chain",
                "unfused MA",
                "fused MA",
                "pattern",
                "P4 predicts",
                "profitable",
                "saving",
            ],
            rows,
            title="Per-chain fusion decisions (Fig. 4 patterns)",
        )
    )
    print()

    # ------------------------------------------------------------------
    # Whole-graph plan.
    # ------------------------------------------------------------------
    fused_plan = optimize_graph(graph, buffer_elems)
    unfused_plan = optimize_graph(graph, buffer_elems, enable_fusion=False)
    print(fused_plan.describe())
    print()
    saving = 1 - fused_plan.memory_access / unfused_plan.memory_access
    print(
        f"Graph totals: unfused MA={unfused_plan.memory_access}, "
        f"fused MA={fused_plan.memory_access} (fusion saves {saving:.1%})"
    )
    print(
        f"Infinite-buffer floor (externals only): "
        f"{graph.ideal_memory_access()}"
    )


if __name__ == "__main__":
    main()
