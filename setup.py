"""Setuptools entry point.

Metadata lives here (rather than a ``[project]`` table in pyproject.toml) so
that editable installs work on minimal offline environments that lack the
``wheel`` package: pip falls back to the legacy ``setup.py develop`` path,
which needs the complete package description below.  CI installs the package
with ``pip install -e ".[test]"`` and runs the test suite against the
installed distribution — no ``PYTHONPATH`` required.
"""

from setuptools import find_packages, setup

setup(
    name="repro-layered-timing",
    version="1.15.0",
    description=(
        "Reproduction of 'A Layered Approach for Testing Timing in the "
        "Model-Based Implementation' (DATE 2014): R-/M-testing, three "
        "implementation schemes, a parallel test-campaign engine and a "
        "persistent result store with incremental campaigns"
    ),
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages("src"),
    entry_points={
        "console_scripts": [
            "repro = repro.cli:main",
        ],
    },
    extras_require={
        "test": [
            "pytest>=7",
            "pytest-benchmark>=4",
            "hypothesis>=6",
        ],
        "lint": [
            "ruff>=0.4",
        ],
    },
)
