"""Extension experiment: fusion in the training step.

Training triples the GEMMs and adds a *backward* fusion chain (the
input-gradient GEMMs); this bench shows the planner fuses both directions
and measures the training-step traffic per platform.
"""

from repro.experiments import format_table
from repro.plan import optimize_graph
from repro.workloads import BERT, XLM, build_ffn_training_graph

BUFFER = 512 * 1024


def test_training_step_fusion(benchmark):
    def run():
        rows = []
        for model in (BERT, XLM):
            graph = build_ffn_training_graph(model)
            fused = optimize_graph(graph, BUFFER)
            unfused = optimize_graph(graph, BUFFER, enable_fusion=False)
            chains = sorted(
                tuple(op.name.split(".")[-1] for op in segment.ops)
                for segment in fused.fused_segments
            )
            rows.append(
                [
                    model.name,
                    graph.macs,
                    unfused.memory_access,
                    fused.memory_access,
                    f"{1 - fused.memory_access / unfused.memory_access:.1%}",
                    "; ".join("+".join(chain) for chain in chains),
                ]
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print(
        "\n"
        + format_table(
            [
                "model",
                "MACs",
                "unfused MA",
                "fused MA",
                "saving",
                "fused chains",
            ],
            rows,
            title="Extension: FFN training step (fwd + dgrad + wgrad)",
        )
    )
    for row in rows:
        assert row[3] < row[2]  # fusion helps training too
        # Both the forward and the input-gradient chains fuse.
        assert "fwd1+fwd2" in row[5]
        assert "dgrad2+dgrad1" in row[5]
