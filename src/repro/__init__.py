"""repro: principle-based dataflow optimization for tensor accelerators.

A from-scratch Python reproduction of "Principle-based Dataflow
Optimization for Communication Lower Bound in Operator-Fused Tensor
Accelerator" (DAC 2025): the four optimization principles, the
communication lower bounds they imply, the FuseCU architecture (functional
simulators for the XS PE, systolic arrays and the fusion mappings),
searching-based DSE baselines, the paper's transformer workloads, and
harnesses regenerating every table and figure of the evaluation.

Quick start::

    from repro.ir import matmul
    from repro.core import optimize_intra

    op = matmul("bert_proj", 1024, 768, 768)
    result = optimize_intra(op, buffer_elems=512 * 1024)
    print(result.describe())

Subpackages
-----------
``repro.ir``          tensors, operators, operator graphs
``repro.dataflow``    tiling / scheduling / mapping + cost models
``repro.core``        Principles 1-4, fusion planning, lower bounds
``repro.search``      exhaustive + genetic DSE baselines (DAT stand-in)
``repro.arch``        XS PE, systolic/FuseCU simulators, platform models
``repro.workloads``   the seven Table II transformer models
``repro.experiments`` per-table/figure reproduction harnesses
``repro.service``     batch analysis engine (parallel + cached + metered)
``repro.server``      HTTP serving daemon + client over the batch engine
"""

# Subpackages load on first attribute access (PEP 562), so importing one of
# them does not pull in the rest -- ``import repro.core`` leaves the serving
# layers, the experiment harnesses and numpy unloaded.
import importlib

__version__ = "1.1.0"

_SUBPACKAGES = (
    "arch",
    "core",
    "dataflow",
    "experiments",
    "ir",
    "search",
    "server",
    "service",
    "workloads",
)

__all__ = [*_SUBPACKAGES, "__version__"]


def __getattr__(name):
    if name in _SUBPACKAGES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
