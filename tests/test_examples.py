"""Every script in ``examples/`` runs to completion and prints its report.

The examples exercise the public API end to end and import only the
standard library and ``repro``.  Each runs in a fresh interpreter, as a
reader would run it (``python examples/<name>.py``), from a temporary
working directory so nothing it might leave behind lands in the checkout.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

PACKAGE_PARENT = Path(repro.__file__).resolve().parent.parent
EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
SCRIPTS = sorted(EXAMPLES_DIR.glob("*.py"))


def test_the_examples_are_found():
    assert len(SCRIPTS) == 9


@pytest.mark.parametrize("script", SCRIPTS, ids=[script.stem for script in SCRIPTS])
def test_example_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE_PARENT), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
