"""The analysis layers never import the serving layers.

``repro.core`` and the packages beside it (dataflow, ir, search, plan,
verify, arch, workloads) are pure analysis; ``repro.service``,
``repro.server``, ``repro.shard`` and ``repro.chaos`` serve it.  Every
import statement is checked, module level or inside a function, so a lazy
import cannot hide an upward dependency.  ``repro.experiments`` is exempt:
it drives the batch engine.
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
