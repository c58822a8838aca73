"""The layer graph: which parts of ``repro`` may import which.

``docs/architecture.md`` draws the layers and states the rule: a subpackage
imports only subpackages below it.  These tests pin that rule three ways:

* statically, from the module-level imports of every file (imports under
  ``if TYPE_CHECKING:`` and inside functions are not edges);
* in a fresh interpreter, from what importing a layer actually loads;
* for each package ``__init__``, whose re-exports must match its ``__all__``.

A fourth test keeps the package to what its users reach: every definition
that nothing else in ``src/repro`` names must be on a committed keep-list
that names the benchmark, ledger leg, example, framework or test using it.
"""

from __future__ import annotations

import ast
import importlib
import io
import os
import re
import subprocess
import sys
import tokenize
from collections import Counter
from http.server import BaseHTTPRequestHandler
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

import pytest

import repro

PACKAGE_DIR = Path(repro.__file__).resolve().parent

#: The subpackages and top-level modules of ``repro``, lowest layer first.
#: Each may import only the ones listed before it, so the graph is acyclic.
LAYER_ORDER = (
    "platform",
    "model",
    "obs",
    "codegen",
    "core",
    "integration",
    "_reference",
    "analysis",
    "baselines",
    "scenarios",
    "gpca",
    "systems",
    "campaign",
    "faults",
    "store",
    "cli",
    "__main__",
)

#: Layers that import no other part of ``repro``.
SELF_CONTAINED = ("model", "platform")


def _modules() -> Dict[str, Tuple[Path, bool]]:
    """Dotted module name -> (file, is package) for every module of ``repro``."""
    modules = {}
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        parts = ["repro", *path.relative_to(PACKAGE_DIR).with_suffix("").parts]
        is_package = parts[-1] == "__init__"
        if is_package:
            parts.pop()
        modules[".".join(parts)] = (path, is_package)
    return modules


MODULES = _modules()


def _module_level(body: List[ast.stmt]) -> Iterator[ast.stmt]:
    """Statements that run at import time, skipping ``if TYPE_CHECKING:`` blocks."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(node.test):
            yield from _module_level(node.orelse)
            continue
        yield node
        for field in ("body", "orelse", "finalbody", "handlers"):
            yield from _module_level(getattr(node, field, []))


def _with_ancestors(dotted: str) -> Set[str]:
    """Importing ``a.b.c`` runs ``a`` and ``a.b`` first."""
    parts = dotted.split(".")
    return {".".join(parts[:end]) for end in range(1, len(parts) + 1)}


def _imports(name: str, path: Path, is_package: bool) -> Set[str]:
    """Every ``repro`` module that importing ``name`` imports directly."""
    package = name.split(".") if is_package else name.split(".")[:-1]
    imported: Set[str] = set()
    for node in _module_level(ast.parse(path.read_text(encoding="utf-8")).body):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            # ``from a import b`` imports the module ``a.b`` when there is one.
            targets = [module, *(f"{module}.{alias.name}" for alias in node.names)]
        else:
            continue
        for target in targets:
            imported |= {candidate for candidate in _with_ancestors(target) if candidate in MODULES}
    return imported


def _layer(module: str) -> str:
    """``repro.core.oracle`` -> ``core``; the root package has no layer."""
    return module.split(".")[1] if "." in module else ""


def layer_graph() -> Dict[str, Set[str]]:
    """Layer -> the other layers its modules import at module level."""
    graph: Dict[str, Set[str]] = {}
    for name, (path, is_package) in MODULES.items():
        source = _layer(name)
        if not source:
            continue
        targets = {_layer(module) for module in _imports(name, path, is_package)}
        graph.setdefault(source, set()).update(targets - {source, ""})
    return graph


@pytest.fixture(scope="module")
def graph() -> Dict[str, Set[str]]:
    return layer_graph()


class TestStaticGraph:
    def test_every_layer_is_ordered(self, graph):
        assert sorted(graph) == sorted(LAYER_ORDER)

    def test_imports_point_only_down_the_layer_order(self, graph):
        rank = {layer: index for index, layer in enumerate(LAYER_ORDER)}
        upward = sorted(
            f"{source} -> {target}"
            for source, targets in graph.items()
            for target in targets
            if rank[target] >= rank[source]
        )
        assert upward == [], "imports of a layer at or above the importer"

    @pytest.mark.parametrize("layer", SELF_CONTAINED)
    def test_self_contained_layers_import_no_other_layer(self, graph, layer):
        assert graph[layer] == set()


def _loaded_by(modules: List[str]) -> List[str]:
    """The ``repro`` modules a fresh interpreter holds after importing ``modules``."""
    code = "; ".join(f"import {module}" for module in ["sys", *modules]) + (
        "; print('\\n'.join(sorted(m for m in sys.modules if m.split('.')[0] == 'repro')))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE_DIR.parent), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


class TestFreshInterpreter:
    def test_import_repro_loads_no_subpackage(self):
        assert _loaded_by(["repro"]) == ["repro"]

    @pytest.mark.parametrize("layer", SELF_CONTAINED)
    def test_a_self_contained_layer_loads_only_itself(self, layer):
        prefix = f"repro.{layer}"
        own = [name for name in MODULES if name == prefix or name.startswith(prefix + ".")]
        foreign = [
            name
            for name in _loaded_by(own)
            if name != "repro" and name != prefix and not name.startswith(prefix + ".")
        ]
        assert foreign == []


PACKAGES = sorted(name for name, (_, is_package) in MODULES.items() if is_package)


@pytest.mark.parametrize("package", PACKAGES)
class TestReexports:
    def test_every_name_in_all_resolves(self, package):
        module = importlib.import_module(package)
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert missing == []

    def test_every_imported_name_is_in_all(self, package):
        path, _ = MODULES[package]
        module = importlib.import_module(package)
        bound = [
            alias.asname or alias.name.split(".")[0]
            for node in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
            for alias in node.names
        ]
        unlisted = [name for name in bound if name not in getattr(module, "__all__", ())]
        assert unlisted == []


#: Every ``src/repro`` function, class and non-dunder method whose name no
#: other ``src/repro`` token uses, with its user: a file outside ``src/``
#: that names it (a benchmark, a ledger leg, an example, or a test that
#: observes other code through it), or the framework that calls it.  A new
#: such definition is either added here with its user or deleted.
KEEP_UNREFERENCED = {
    "bolus_scenario": "benchmarks/bench_baselines.py",
    "commanded_value": "tests/platform/test_devices.py",
    "compactions": "tests/test_runtime_engine.py",
    "complete_segments": "tests/systems/test_packs_end_to_end.py",
    "counter_value": "tests/obs/test_metrics.py",
    # Stages the store an interrupted campaign leaves (a run missing), for
    # the resume, missing-run and state-token tests.
    "delete_run": "tests/store/test_resume.py",
    "diagnostic_information": "benchmarks/bench_baselines.py",
    "do_GET": "BaseHTTPRequestHandler",
    "generation_count": "ledger/traced.py",
    "get_task": "tests/faults/test_models.py",
    "input_devices": "tests/platform/test_environment.py",
    "local_variable": "tests/model/test_executor.py",
    "log_message": "BaseHTTPRequestHandler",
    "mean_transition_delay_us": "benchmarks/bench_table1.py",
    "output_devices": "tests/platform/test_environment.py",
    "pending_count": "tests/platform/test_devices.py",
    "segments_consistent": "benchmarks/bench_table1.py",
    "stimuli_per_cycle": "examples/scenario_explore.py",
    "stimulus_times": "tests/core/test_requirements_and_generation.py",
    "task_statistics": "tests/integration/test_schemes.py",
    "within_deadline": "benchmarks/bench_fig3_segments.py",
}

REPO_ROOT = Path(__file__).resolve().parent.parent
_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
#: Literal text of an f-string is its own token type from Python 3.12 on.
_TEXT_TOKENS = {tokenize.STRING, getattr(tokenize, "FSTRING_MIDDLE", tokenize.STRING)}


def _token_words(source: str) -> Counter:
    """Names and the words inside string literals, comments excluded."""
    words: Counter = Counter()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.NAME:
            words[token.string] += 1
        elif token.type in _TEXT_TOKENS:
            words.update(_WORD.findall(token.string))
    return words


def unreferenced_definitions() -> Set[str]:
    """Definitions whose name occurs once among the tokens of ``src/repro``."""
    words: Counter = Counter()
    defined: List[str] = []
    for path, _ in MODULES.values():
        source = path.read_text(encoding="utf-8")
        words.update(_token_words(source))
        defined.extend(
            node.name
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))
        )
    return {name for name in defined if words[name] == 1}


class TestUnreferencedDefinitions:
    def test_every_unreferenced_definition_is_kept_for_a_user(self):
        assert unreferenced_definitions() == set(KEEP_UNREFERENCED)

    @pytest.mark.parametrize("name", sorted(KEEP_UNREFERENCED))
    def test_the_named_user_uses_it(self, name):
        user = KEEP_UNREFERENCED[name]
        if user == "BaseHTTPRequestHandler":
            # ``do_<METHOD>`` handlers are looked up by name per request.
            assert name.startswith("do_") or hasattr(BaseHTTPRequestHandler, name)
        else:
            assert _token_words((REPO_ROOT / user).read_text(encoding="utf-8"))[name] > 0
