"""What the benchmark under ``ledger/`` needs from the program.

The ledger drives ``repro`` through the CLI, but it also imports names from
the package and, in its traced run, replaces entry points with timing
wrappers (``ledger/traced.py::patched``).  A re-export dropped from a
package, or a function-local import that binds a name the patch no longer
reaches, would fail the benchmark (a ``run_failed`` verdict) or silently
empty its spans.  These tests read ``ledger/*.py`` with :mod:`ast` and check
both contracts without running the benchmark.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path
from typing import Iterator, List, Tuple

import pytest

LEDGER_DIR = Path(__file__).resolve().parent.parent / "ledger"


def _repro_imports() -> Iterator[Tuple[str, int, str, str]]:
    """(file, line, module, name) of every ``from repro... import name``, at any depth."""
    for path in sorted(LEDGER_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and not node.level and (node.module or "").startswith("repro"):
                for alias in node.names:
                    yield path.name, node.lineno, node.module, alias.name
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("repro"):
                        yield path.name, node.lineno, alias.name, ""


IMPORTS = sorted(set(_repro_imports()))


def test_the_ledger_imports_from_repro():
    assert len(IMPORTS) > 20


@pytest.mark.parametrize("where, line, module, name", IMPORTS, ids=lambda value: str(value))
def test_every_ledger_import_resolves(where, line, module, name):
    imported = importlib.import_module(module)
    if name:
        assert hasattr(imported, name) or importlib.import_module(f"{module}.{name}"), (
            f"{where}:{line}: from {module} import {name}"
        )


def _patched_function() -> ast.FunctionDef:
    tree = ast.parse((LEDGER_DIR / "traced.py").read_text(encoding="utf-8"))
    [function] = [
        node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == "patched"
    ]
    return function


def _replacements() -> List[Tuple[str, str]]:
    """(owner, attribute) of every entry of ``patched``'s ``replacements`` list."""
    function = _patched_function()
    [assignment] = [
        node
        for node in ast.walk(function)
        if isinstance(node, ast.Assign)
        and any(isinstance(target, ast.Name) and target.id == "replacements" for target in node.targets)
    ]
    return [
        (ast.unparse(entry.elts[0]), ast.literal_eval(entry.elts[1]))
        for entry in assignment.value.elts
    ]


def _owners():
    """The objects ``patched`` binds its owner names to, by its own imports."""
    owners = {}
    for node in ast.walk(_patched_function()):
        if isinstance(node, ast.ImportFrom):
            module = importlib.import_module(node.module)
            for alias in node.names:
                bound = getattr(module, alias.name, None)
                if bound is None:
                    bound = importlib.import_module(f"{node.module}.{alias.name}")
                owners[alias.asname or alias.name] = bound
    return owners


#: What the traced run replaces, by the names ``patched`` gives the owners.
PATCHED = [
    ("worker", "get_pack"),
    ("worker", "process_cache"),
    ("worker", "execute_r_test"),
    ("worker", "r_report_to_dict"),
    ("worker", "m_report_to_dict"),
    ("r_testing", "evaluate_r_trace"),
    ("MTestAnalyzer", "analyze"),
    ("MTestAnalyzer", "analyze_violations"),
    ("ImplementedSystem", "run"),
]


def test_the_patched_entry_points_are_the_known_ones():
    assert _replacements() == PATCHED


@pytest.mark.parametrize("owner, name", PATCHED, ids=lambda value: str(value))
def test_every_patched_entry_point_exists(owner, name):
    assert hasattr(_owners()[owner], name)


def test_the_patch_owners_are_the_program_modules():
    from repro.campaign import worker
    from repro.core import r_testing

    owners = _owners()
    assert owners["worker"] is worker
    assert owners["r_testing"] is r_testing


class TestWorkerGlobalsAreReadAtCallTime:
    """A run looks up each patched worker global when it runs, not when imported."""

    @pytest.fixture
    def spec(self):
        from repro.campaign.spec import preset_spec

        # Table I runs M-test every sample, so both serializers run.
        return preset_spec("table1", samples=1).expand()[0]

    def test_a_run_reaches_a_patched_get_pack(self, spec, monkeypatch):
        from repro.campaign import worker

        class Reached(Exception):
            pass

        def sentinel(system):
            raise Reached(system)

        monkeypatch.setattr(worker, "get_pack", sentinel)
        with pytest.raises(Reached):
            worker.execute_run_counted(spec)

    def test_a_run_calls_every_patched_worker_global(self, spec, monkeypatch):
        from repro.campaign import worker

        calls = []
        for name in ("get_pack", "process_cache", "execute_r_test", "r_report_to_dict", "m_report_to_dict"):
            original = getattr(worker, name)

            def recorder(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(worker, name, recorder)
        worker.execute_run_counted(spec)
        assert sorted(set(calls)) == [
            "execute_r_test",
            "get_pack",
            "m_report_to_dict",
            "process_cache",
            "r_report_to_dict",
        ]
