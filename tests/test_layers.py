"""The layer graph: which parts of ``repro`` may import which.

``docs/architecture.md`` draws the layers and states the rule: a subpackage
imports only subpackages below it.  These tests pin that rule three ways:

* statically, from the module-level imports of every file (imports under
  ``if TYPE_CHECKING:`` and inside functions are not edges);
* in a fresh interpreter, from what importing a layer actually loads, and
  from what ``python -m repro`` loads for the commands whose start-up
  matters (``--version``, ``faults --list``, a warm ``faults --resume``);
* for each package ``__init__``, whose re-exports must match its ``__all__``
  and load no other layer.

Two more tests keep the package to what its users reach: every definition
that nothing else in ``src/repro`` names, and every attribute that
``src/repro`` stores but never reads, must be on a committed keep-list that
names the benchmark, ledger leg, example, framework or test using it.
"""

from __future__ import annotations

import ast
import importlib
import os
import re
import sqlite3
import subprocess
import sys
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


#: Runs ``python -m repro`` (``runpy`` is what ``-m`` runs) and writes every
#: module the interpreter holds at exit to the file named first in argv.
#: ``-X importtime`` would miss modules loaded through ``importlib``, as the
#: pack registry loads packs.
_RUN_REPRO = """
import runpy, sys
out, sys.argv = sys.argv[1], ["repro", *sys.argv[2:]]
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
finally:
    with open(out, "w") as sink:
        sink.write("\\n".join(sorted(sys.modules)))
"""


def _run_command(argv: List[str], cwd: Path) -> Tuple[subprocess.CompletedProcess, Set[str]]:
    """Run ``python -m repro *argv`` in a fresh interpreter; (result, modules it loaded)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE_DIR.parent), env.get("PYTHONPATH")])
    )
    loaded = cwd / "modules.txt"
    result = subprocess.run(
        [sys.executable, "-c", _RUN_REPRO, str(loaded), *argv],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=120,
    )
    return result, set(loaded.read_text().split())


def _loaded(modules: Set[str], *prefixes: str) -> List[str]:
    """The modules among ``modules`` that are one of ``prefixes`` or inside one."""
    return sorted(
        name for name in modules
        if any(name == prefix or name.startswith(prefix + ".") for prefix in prefixes)
    )


def _repro_count(modules: Set[str]) -> int:
    return len(_loaded(modules, "repro"))


#: What ``faults --list`` must not load: the simulation stack, the runner's
#: execution side, the store, the other commands' layers and the heavy stdlib
#: packages behind them.
LIST_MUST_NOT_LOAD = (
    "repro.integration",
    "repro.platform.rtos",
    "repro.platform.devices",
    "repro.codegen.generator",
    "repro.campaign.runner",
    "repro.campaign.worker",
    "repro.campaign.results",
    "repro.campaign.profiler",
    "repro.store",
    "repro.faults.hunt",
    "repro.analysis",
    "repro._reference",
    "multiprocessing",
    "concurrent.futures",
    "sqlite3",
    "http.server",
    "importlib.metadata",
)

#: What a warm ``faults --resume`` (nothing left to run) must not load.
RESUME_MUST_NOT_LOAD = (
    "repro.integration",
    "repro.platform.rtos",
    "repro.platform.devices",
    "repro.codegen.generator",
    "repro.campaign.worker",
    "repro.store.server",
    "multiprocessing",
    "concurrent.futures",
    "http.server",
)


@pytest.fixture(scope="module")
def complete_store(tmp_path_factory) -> Path:
    """A store holding every run of the GPCA kill matrix at one sample."""
    from repro.cli import main

    store = tmp_path_factory.mktemp("warm") / "runs.db"
    assert main(["faults", "--samples", "1", "--store", str(store)]) == 0
    return store


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

    def test_version_loads_no_layer(self, tmp_path):
        result, modules = _run_command(["--version"], tmp_path)
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith("repro ")
        assert _loaded(
            modules,
            "repro.campaign", "repro.faults", "repro.store", "repro.core",
            "repro.platform", "repro.integration", "repro.codegen",
        ) == []

    def test_faults_list_loads_no_simulation_stack(self, tmp_path):
        result, modules = _run_command(["faults", "--list", "--system", "gpca"], tmp_path)
        assert result.returncode == 0, result.stderr
        assert "fault suite of system 'gpca'" in result.stdout
        assert _loaded(modules, *LIST_MUST_NOT_LOAD) == []
        assert _repro_count(modules) <= 40

    def test_faults_list_loads_only_the_named_pack(self, tmp_path):
        result, modules = _run_command(["faults", "--list", "--system", "pacemaker"], tmp_path)
        assert result.returncode == 0, result.stderr
        assert "fault suite of system 'pacemaker'" in result.stdout
        assert _loaded(
            modules, *LIST_MUST_NOT_LOAD, "repro.systems.gpca", "repro.systems.cruise"
        ) == []

    def test_warm_resume_loads_no_simulation_stack(self, complete_store, tmp_path):
        argv = ["faults", "--samples", "1", "--store", str(complete_store), "--resume"]
        result, modules = _run_command(argv, tmp_path)
        assert result.returncode == 0, result.stderr
        assert "store: 0 run(s) executed" in result.stdout
        assert _loaded(modules, *RESUME_MUST_NOT_LOAD) == []
        assert _repro_count(modules) <= 55

    def test_an_unknown_system_lists_every_pack(self, tmp_path):
        result, _ = _run_command(["faults", "--system", "nope", "--list"], tmp_path)
        assert result.returncode == 2
        assert "unknown system 'nope' (known: cruise, gpca, pacemaker)" in result.stderr

    def test_an_unknown_model_lists_the_pack_models(self, tmp_path):
        result, _ = _run_command(["faults", "--system", "pacemaker", "--model", "fig2", "--list"], tmp_path)
        assert result.returncode == 2
        assert (
            "unknown model 'fig2' for system 'pacemaker' (known: pacemaker)" in result.stderr
        )

    def test_help_names_every_pack(self, tmp_path):
        result, _ = _run_command(["faults", "--help"], tmp_path)
        assert result.returncode == 0
        assert "known: gpca, pacemaker, cruise" in " ".join(result.stdout.split())

    def test_models_resolve_without_a_pack_import(self):
        code = (
            "import sys; "
            "from repro.systems import model_system; "
            "from repro.campaign.spec import KNOWN_MODELS; "
            "from repro.campaign.cache import model_fingerprint; "
            "print([model_system(m) for m in ('fig2', 'extended', 'pacemaker', 'cruise')]); "
            "print(KNOWN_MODELS); print(len(model_fingerprint('fig2')))"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(PACKAGE_DIR.parent), env.get("PYTHONPATH")])
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split("\n")[:3] == [
            "['gpca', 'gpca', 'pacemaker', 'cruise']",
            "('cruise', 'extended', 'fig2', 'pacemaker')",
            "64",
        ]


PACKAGES = sorted(name for name, (_, is_package) in MODULES.items() if is_package)

#: Names ``ledger/`` imports through a package, which keep that import path
#: although their modules load other layers (``StoreServer`` is resolved on
#: first access, see ``repro.store.__getattr__``).
BENCHMARK_REEXPORTS = {
    "repro._reference": ("SEED_ENGINE",),
    "repro.faults": ("default_matrix_spec",),
    "repro.store": ("RunStore",),
}


def _closure(module: str) -> Set[str]:
    """Every ``repro`` module that importing ``module`` loads, statically."""
    seen, pending = set(), [module]
    while pending:
        name = pending.pop()
        if name not in seen and name in MODULES:
            seen.add(name)
            pending.extend(_imports(name, *MODULES[name]))
    return seen


@pytest.mark.parametrize("package", PACKAGES)
class TestReexports:
    def test_every_name_in_all_resolves(self, package):
        module = importlib.import_module(package)
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert missing == []

    def test_reexports_load_no_other_layer(self, package):
        """A package ``__init__`` re-exports only from modules whose import
        stays inside its own layer, so importing one module of a layer never
        loads another through the package; the names the benchmark imports
        through a package are the exceptions (``BENCHMARK_REEXPORTS``)."""
        path, is_package = MODULES[package]
        layer = _layer(package)
        exempt = BENCHMARK_REEXPORTS.get(package, ())
        crossing = []
        for node in _module_level(ast.parse(path.read_text(encoding="utf-8")).body):
            if not isinstance(node, ast.ImportFrom) or node.module == "__future__":
                continue
            if all(alias.name in exempt for alias in node.names):
                continue
            source = ".".join(package.split(".")[: len(package.split(".")) - node.level + 1] + [node.module])
            for module in (_imports(package, path, is_package) & _with_ancestors(source)) - _with_ancestors(package):
                foreign = {_layer(name) for name in _closure(module)} - {layer, ""}
                if foreign:
                    crossing.append(f"{module} loads {sorted(foreign)}")
        assert crossing == []

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
    "BlackBoxOnlineTester": "benchmarks/bench_baselines.py",
    "FunctionalConformanceChecker": "benchmarks/bench_baselines.py",
    "assess_sufficiency": "examples/alarm_requirements.py",
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
    # Counts the runs this process executed, for the tests that a resume
    # reuses stored runs instead of executing them.
    "execution_count": "tests/store/test_resume.py",
    "fig3_views": "benchmarks/bench_fig3_segments.py",
    "generation_count": "ledger/traced.py",
    "get_task": "tests/faults/test_models.py",
    "input_devices": "tests/platform/test_environment.py",
    "local_variable": "tests/model/test_executor.py",
    "log_message": "BaseHTTPRequestHandler",
    "mean_transition_delay_us": "benchmarks/bench_table1.py",
    "output_devices": "tests/platform/test_environment.py",
    "pending_count": "tests/platform/test_devices.py",
    "render_layered_summary": "examples/quickstart.py",
    "run_kill_matrix": "examples/fault_kill_matrix.py",
    "segments_consistent": "benchmarks/bench_table1.py",
    "stimuli_per_cycle": "examples/scenario_explore.py",
    "stimulus_times": "tests/core/test_requirements_and_generation.py",
    "task_statistics": "tests/integration/test_schemes.py",
    "within_deadline": "benchmarks/bench_fig3_segments.py",
}

REPO_ROOT = Path(__file__).resolve().parent.parent
_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def _is_slots(node: ast.AST) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__slots__" for target in node.targets
    )


def _scan(source: str) -> Tuple[Counter, Counter, Counter, Counter]:
    """The words one module's syntax tree uses: ``(words, stores, loads, defined)``.

    ``words`` counts names, attribute names, keyword-argument names, defined
    names and string constants that are one whole identifier (how
    ``getattr``, ``hasattr`` and ``__all__`` spell a name); prose in
    docstrings and messages never counts.  ``stores`` counts the attribute
    names assigned (plainly or augmented) and ``loads`` the other uses of an
    attribute name or identifier string, except inside ``__repr__`` bodies
    and ``__slots__`` tuples, which only display or declare a field.
    ``defined`` counts the non-dunder functions, classes and methods.
    """
    words: Counter = Counter()
    stores: Counter = Counter()
    loads: Counter = Counter()
    defined: Counter = Counter()

    def visit(node: ast.AST, reads: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            words[node.name] += 1
            if not (node.name.startswith("__") and node.name.endswith("__")):
                defined[node.name] += 1
            reads = reads and node.name != "__repr__"
        elif _is_slots(node):
            reads = False
        elif isinstance(node, ast.Name):
            words[node.id] += 1
        elif isinstance(node, ast.Attribute):
            words[node.attr] += 1
            if isinstance(node.ctx, ast.Store):
                stores[node.attr] += 1
            elif reads:
                loads[node.attr] += 1
        elif isinstance(node, ast.keyword) and node.arg:
            words[node.arg] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and _IDENTIFIER.match(node.value):
            words[node.value] += 1
            if reads:
                loads[node.value] += 1
        for child in ast.iter_child_nodes(node):
            visit(child, reads)

    visit(ast.parse(source), True)
    return words, stores, loads, defined


def _scan_package() -> Tuple[Counter, Counter, Counter, Counter]:
    """``_scan`` summed over ``src/repro``."""
    totals: Tuple[Counter, ...] = (Counter(), Counter(), Counter(), Counter())
    for path, _ in MODULES.values():
        for total, counts in zip(totals, _scan(path.read_text(encoding="utf-8"))):
            total.update(counts)
    return totals


def unreferenced_definitions() -> Set[str]:
    """Definitions whose name ``src/repro`` uses once: where it is defined."""
    words, _, _, defined = _scan_package()
    return {name for name in defined if words[name] == 1}


def write_only_attributes() -> Set[str]:
    """Attribute names ``src/repro`` stores but never loads."""
    _, stores, loads, _ = _scan_package()
    return {name for name in stores if not loads[name]}


def _scan_file(relative: str) -> Tuple[Counter, Counter, Counter, Counter]:
    return _scan((REPO_ROOT / relative).read_text(encoding="utf-8"))


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
            assert _scan_file(user)[0][name] > 0


#: Every attribute name ``src/repro`` stores and never loads, with its
#: reader: a file outside ``src/`` that reads it, or the framework that does.
#: A name-based count cannot see a write-only field whose name another class
#: reads (a task's ``state`` beside a release run's), so this list holds what
#: the count can see; a new such attribute is added here with its reader or
#: deleted.
KEEP_WRITE_ONLY = {
    "cpu_time_us": "tests/platform/test_scheduler.py",
    "missed_events": "tests/platform/test_devices.py",
    "reservoir": "tests/platform/test_environment.py",
    # Makes every fetched row a ``sqlite3.Row``, read by column name.
    "row_factory": "sqlite3",
    "writes": "tests/platform/test_devices.py",
}


class TestWriteOnlyAttributes:
    def test_every_write_only_attribute_is_kept_for_a_reader(self):
        assert write_only_attributes() == set(KEEP_WRITE_ONLY)

    @pytest.mark.parametrize("name", sorted(KEEP_WRITE_ONLY))
    def test_the_named_reader_reads_it(self, name):
        user = KEEP_WRITE_ONLY[name]
        if user == "sqlite3":
            assert hasattr(sqlite3.Connection, name)
        else:
            assert _scan_file(user)[2][name] > 0
