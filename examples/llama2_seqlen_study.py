"""LLaMA2 sequence-length sensitivity study (paper Fig. 11).

Sweeps the LLaMA2 layer from 256 to 16K tokens and shows how FuseCU's
advantage grows with sequence length: attention's S x S intermediates grow
quadratically, and only the fused dataflow keeps them on-chip.

Run:  python examples/llama2_seqlen_study.py
"""

from repro.experiments import render_fig11, run_fig11
from repro.plan import optimize_graph
from repro.workloads import LLAMA2, LLAMA2_SEQ_SWEEP, build_layer_graph


def main() -> None:
    result = run_fig11()
    print(render_fig11(result))
    print()

    # Why the saving grows: decompose one short and one long sequence.
    for seq_len in (256, 16384):
        graph = build_layer_graph(LLAMA2.with_seq_len(seq_len))
        plan = optimize_graph(graph, 512 * 1024)
        attention = next(
            segment
            for segment in plan.fused_segments
            if "qk" in segment.ops[0].name
        )
        intermediates = sum(
            tensor.size * segment_count
            for tensor, segment_count in (
                (op.output, op.count)
                for op in attention.ops[:-1]
            )
        )
        ratio = intermediates / plan.memory_access
        print(
            f"S={seq_len}: attention intermediates (kept on-chip by fusion) "
            f"total {intermediates:.3e} elements = {ratio:.2f}x the plan's "
            f"entire remaining memory traffic"
        )
    print()
    print(
        "Takeaway: the S^2 score/probability matrices dominate long-sequence "
        "traffic; fusing QK^T -> softmax -> AV removes them entirely, which "
        "is why Fig. 11 shows greater reduction at longer sequences."
    )


if __name__ == "__main__":
    main()
