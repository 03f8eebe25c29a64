"""Experiment harnesses: one module per paper table/figure.

* :mod:`repro.experiments.tables` -- Tables I, II, III.
* :mod:`repro.experiments.fig9`  -- principle-vs-search validation sweep.
* :mod:`repro.experiments.fig10` -- 7 models x 5 platforms MA/utilization.
* :mod:`repro.experiments.fig11` -- LLaMA2 sequence-length sensitivity.
* :mod:`repro.experiments.fig12` -- area breakdown and overheads.
"""

from .runner import (
    arithmetic_mean,
    format_dict_table,
    format_table,
    geometric_mean,
    run_grid,
)
from .ascii_plots import bar_chart, grouped_bar_chart, line_chart
from .tables import TABLE1_ROWS, table1, table2, table2_rows, table3, table3_rows
from .fig9 import Fig9Point, default_operators, render_fig9, run_fig9
from .fig10 import (
    Fig10Cell,
    Fig10Result,
    PAPER_FUSECU_MA_SAVING,
    PAPER_FUSECU_SPEEDUP,
    PAPER_UNFCU_MA_SAVING,
    PLATFORM_ORDER,
    render_fig10,
    run_fig10,
)
from .fig11 import Fig11Point, Fig11Result, render_fig11, run_fig11
from .fig12 import Fig12Result, render_fig12, run_fig12
from .sweep import (
    SweepCurve,
    SweepGridPoint,
    render_sweep,
    run_sweep,
    run_sweep_grid,
    sweep_grid_requests,
)
from .report import ReportOptions, generate_report

__all__ = [
    "ReportOptions",
    "generate_report",
    "SweepCurve",
    "SweepGridPoint",
    "render_sweep",
    "run_sweep",
    "run_sweep_grid",
    "run_grid",
    "sweep_grid_requests",
    "bar_chart",
    "grouped_bar_chart",
    "line_chart",
    "arithmetic_mean",
    "format_dict_table",
    "format_table",
    "geometric_mean",
    "TABLE1_ROWS",
    "table1",
    "table2",
    "table2_rows",
    "table3",
    "table3_rows",
    "Fig9Point",
    "default_operators",
    "render_fig9",
    "run_fig9",
    "Fig10Cell",
    "Fig10Result",
    "PAPER_FUSECU_MA_SAVING",
    "PAPER_FUSECU_SPEEDUP",
    "PAPER_UNFCU_MA_SAVING",
    "PLATFORM_ORDER",
    "render_fig10",
    "run_fig10",
    "Fig11Point",
    "Fig11Result",
    "render_fig11",
    "run_fig11",
    "Fig12Result",
    "render_fig12",
    "run_fig12",
]
