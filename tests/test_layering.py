"""The analysis layers form an acyclic graph below the serving layers.

``repro.core`` and the packages beside it (dataflow, ir, search, plan,
verify, arch, workloads) are pure analysis; ``repro.service``,
``repro.server``, ``repro.shard`` and ``repro.chaos`` serve it.  Every
import statement is checked, module level or inside a function, so a lazy
import cannot hide an upward dependency.  ``repro.experiments`` is exempt:
it drives the batch engine.

Among themselves the analysis modules import each other without a cycle,
and only at module level: no function-level or ``TYPE_CHECKING`` import
holds a cycle together, so each package imports alone, in any order.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).parent
ANALYSIS = ("core", "dataflow", "ir", "search", "plan", "verify", "arch", "workloads")
SERVING = ("service", "server", "shard", "chaos")


def imported_modules(source: str, package: str):
    """``(line, absolute module)`` for every import in ``source``.

    ``package`` is the dotted package the module lives in, against which
    relative imports resolve.  ``from X import name`` also yields
    ``X.name``, which catches ``from .. import service``.
    """

    parts = package.split(".")
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            base = parts[: len(parts) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            yield node.lineno, module
            for alias in node.names:
                yield node.lineno, f"{module}.{alias.name}"


def serving_imports(source: str, package: str):
    return [
        (line, name)
        for line, name in imported_modules(source, package)
        if any(name == f"repro.{layer}" or name.startswith(f"repro.{layer}.")
               for layer in SERVING)
    ]


@pytest.mark.parametrize("layer", ANALYSIS)
def test_analysis_layer_never_imports_serving(layer):
    offenders = []
    for path in sorted((SRC / layer).rglob("*.py")):
        package = ".".join(["repro", *path.parent.relative_to(SRC).parts])
        offenders += [
            f"{path.relative_to(SRC)}:{line} imports {name}"
            for line, name in serving_imports(path.read_text(encoding="utf-8"), package)
        ]
    assert offenders == []


def test_checker_sees_lazy_and_relative_imports():
    source = (
        "import repro.core\n"
        "def f():\n"
        "    from ..service.intra_cache import intra_cache_stats\n"
        "    from ... import server\n"
        "    import repro.shard.router\n"
        "    from .memo import memo_stats\n"
    )
    assert serving_imports(source, "repro.core") == [
        (3, "repro.service.intra_cache"),
        (3, "repro.service.intra_cache.intra_cache_stats"),
        (5, "repro.shard.router"),
    ]
    assert serving_imports("from .. import chaos\n", "repro.core") == [
        (1, "repro.chaos"),
    ]


def analysis_sources():
    """``{module: source}`` for every module of the analysis packages."""
    sources = {}
    for layer in ANALYSIS:
        for path in sorted((SRC / layer).rglob("*.py")):
            parts = ["repro", *path.relative_to(SRC).with_suffix("").parts]
            if parts[-1] == "__init__":
                parts.pop()
            sources[".".join(parts)] = path.read_text(encoding="utf-8")
    return sources


def import_edges(sources):
    """``(importer, line, imported, top_level)`` for every import between
    the modules of ``sources``.

    ``from X import name`` is an edge to ``X.name`` when that is one of the
    modules, else to ``X``.  ``top_level`` is false for an import nested in
    a function, class, ``if`` (``TYPE_CHECKING`` included) or ``try``.
    """

    edges = []
    for module, source in sources.items():
        is_package = f"{module}.__init__" in sources or any(
            other.startswith(f"{module}.") for other in sources
        )
        package = module if is_package else module.rpartition(".")[0]
        tree = ast.parse(source)
        top = {id(node) for node in tree.body}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                parts = package.split(".")
                base = parts[: len(parts) - node.level + 1] if node.level else []
                target = ".".join(base + ([node.module] if node.module else []))
                names = [
                    f"{target}.{alias.name}"
                    if f"{target}.{alias.name}" in sources else target
                    for alias in node.names
                ]
            else:
                continue
            for name in dict.fromkeys(names):
                if name in sources:
                    edges.append((module, node.lineno, name, id(node) in top))
    return edges


def import_cycles(sources):
    """Each strongly connected set of modules (more than one, or a self-import)."""
    graph = {module: set() for module in sources}
    for importer, _, imported, _ in import_edges(sources):
        graph[importer].add(imported)

    def reachable(start):
        seen, stack = set(), [start]
        while stack:
            for nxt in graph[stack.pop()] - seen:
                seen.add(nxt)
                stack.append(nxt)
        return seen

    reach = {module: reachable(module) for module in graph}
    cycles = []
    for module in sorted(graph):
        if module in reach[module] and not any(module in c for c in cycles):
            cycles.append(sorted(m for m in reach[module] if module in reach[m]))
    return cycles


def nested_imports(sources):
    return [
        f"{importer}:{line} imports {imported}"
        for importer, line, imported, top_level in import_edges(sources)
        if not top_level
    ]


def test_analysis_import_graph_is_acyclic():
    assert import_cycles(analysis_sources()) == []


def test_analysis_imports_only_at_module_level():
    assert nested_imports(analysis_sources()) == []


def test_checker_sees_a_lazy_cycle():
    sources = {
        "repro.core": "from .a import f\n",
        "repro.core.a": "from . import b\ndef f():\n    pass\n",
        "repro.core.b": (
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    from ..plan import P\n"
            "def g():\n"
            "    from .a import f\n"
        ),
        "repro.plan": "import repro.core.b\n",
    }
    assert import_cycles(sources) == [
        ["repro.core.a", "repro.core.b", "repro.plan"],
    ]
    assert nested_imports(sources) == [
        "repro.core.b:3 imports repro.plan",
        "repro.core.b:5 imports repro.core.a",
    ]
    # Without the nested imports the graph is a DAG.
    sources["repro.core.b"] = "X = 1\n"
    assert import_cycles(sources) == []


def _fresh_python(code: str):
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True,
        capture_output=True, text=True,
    ).stdout
    return json.loads(out)


def test_importing_core_leaves_other_layers_unloaded():
    loaded = _fresh_python(
        "import json, sys, repro.core\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    unloaded = ("repro.server", "repro.service", "repro.experiments",
                "repro.search", "numpy")
    assert [name for name in unloaded if name in loaded] == []


def test_root_package_still_binds_every_subpackage():
    bound = _fresh_python(
        "import json, types, repro\n"
        "names = [n for n in repro.__all__ if n != '__version__']\n"
        "attrs = [n for n in names\n"
        "         if isinstance(getattr(repro, n), types.ModuleType)]\n"
        "star = {}\n"
        "exec('from repro import *', star)\n"
        "print(json.dumps([names, attrs, sorted(set(names) & set(star)),\n"
        "                  'arch' in dir(repro)]))\n"
    )
    names, attrs, star, listed = bound
    assert len(names) == 9
    assert attrs == names
    assert star == sorted(names)
    assert listed
