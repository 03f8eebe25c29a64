"""Ablation: partial-sum accounting convention (DESIGN.md call-out).

The paper counts one access per element per pass for spilled output partial
sums (its Eq. 1 charges ``C`` exactly ``ML``); some simulators charge
read+write per spilled pass.  This bench quantifies how the choice shifts
absolute MA and confirms it does not change the optimizer's *decisions*
(chosen NRA class per operator, profitable fusions).
"""

from repro.core import optimize_intra
from repro.dataflow import PartialSumConvention
from repro.experiments import format_table
from repro.ir import matmul
from repro.plan import optimize_graph
from repro.workloads import BERT, build_layer_graph, representative_matmuls

BUFFER = 512 * 1024


def test_convention_shift(benchmark):
    def run():
        rows = []
        for op in representative_matmuls(BERT):
            single = optimize_intra(op, BUFFER, PartialSumConvention.SINGLE)
            rw = optimize_intra(op, BUFFER, PartialSumConvention.READ_WRITE)
            rows.append(
                [
                    op.name,
                    single.memory_access,
                    rw.memory_access,
                    str(single.nra_class),
                    str(rw.nra_class),
                ]
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print(
        "\n"
        + format_table(
            ["operator", "MA (single)", "MA (read+write)", "class (single)",
             "class (rw)"],
            rows,
            title="Ablation: partial-sum convention",
        )
    )
    for row in rows:
        assert row[2] >= row[1]  # read+write never cheaper
        assert row[3] == row[4]  # chosen NRA class unchanged


def test_convention_graph_level(benchmark):
    graph = build_layer_graph(BERT)

    def run():
        single = optimize_graph(
            graph, BUFFER, convention=PartialSumConvention.SINGLE
        )
        rw = optimize_graph(
            graph, BUFFER, convention=PartialSumConvention.READ_WRITE
        )
        return single, rw

    single, rw = benchmark.pedantic(run, rounds=1, iterations=1)
    print(
        f"\ngraph MA: single={single.memory_access}, "
        f"read+write={rw.memory_access} "
        f"(+{rw.memory_access / single.memory_access - 1:.1%})"
    )
    assert rw.memory_access >= single.memory_access
    # The attention chain fuses under either convention; the FFN chain is a
    # borderline fusion that the read+write convention can flip (its fused
    # nest spills the second output's partial sums) -- see EXPERIMENTS.md.
    fused_single = {tuple(op.name for op in s.ops) for s in single.fused_segments}
    fused_rw = {tuple(op.name for op in s.ops) for s in rw.fused_segments}
    attention = ("Bert.qk", "Bert.softmax", "Bert.av")
    assert attention in fused_single
    assert attention in fused_rw
