"""Extension experiment: mixture-of-experts FFN blocks.

MoE replaces one big fusable FFN chain with many small ones (per expert).
The principles handle both ends: per-expert chains still fuse (their
intermediate is ``T_e x 4H``), and the regime classification shifts because
each expert sees fewer tokens.  Compared against the dense FFN at equal
token throughput.
"""

from repro.experiments import format_table
from repro.ir import OperatorGraph, matmul
from repro.plan import optimize_graph
from repro.workloads import BERT, build_moe_ffn_graph

BUFFER = 512 * 1024


def dense_ffn_graph():
    tokens = BERT.batch * BERT.seq_len
    graph = OperatorGraph("dense-ffn")
    ffn1 = graph.add(matmul("ffn1", tokens, BERT.hidden, BERT.ffn_hidden))
    graph.add(matmul("ffn2", tokens, BERT.ffn_hidden, BERT.hidden, a=ffn1.output))
    return graph


def test_moe_vs_dense(benchmark):
    def run():
        rows = []
        dense = dense_ffn_graph()
        dense_plan = optimize_graph(dense, BUFFER)
        rows.append(
            [
                "dense FFN",
                dense.macs,
                dense_plan.memory_access,
                len(dense_plan.fused_segments),
            ]
        )
        for experts, top_k in ((4, 1), (8, 2), (16, 2), (64, 2)):
            graph = build_moe_ffn_graph(BERT, num_experts=experts, top_k=top_k)
            plan = optimize_graph(graph, BUFFER)
            rows.append(
                [
                    f"MoE {experts}x top{top_k}",
                    graph.macs,
                    plan.memory_access,
                    len(plan.fused_segments),
                ]
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print(
        "\n"
        + format_table(
            ["block", "MACs", "optimized MA", "fused segments"],
            rows,
            title="Extension: MoE FFN blocks vs dense (512 KB buffer)",
        )
    )
    # Expert chains always fuse.
    assert all(row[3] >= 1 for row in rows)
    # Arithmetic intensity drops with expert count at fixed top_k: MA per
    # MAC grows monotonically across the 8/16/64-expert top-2 configs.
    top2 = [row for row in rows if "top2" in row[0]]
    intensity = [row[2] / row[1] for row in top2]
    assert intensity == sorted(intensity)
