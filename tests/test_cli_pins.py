"""Byte pins of CLI outputs, run in-process through ``repro.cli.main``.

* ``repro rtest --scheme S --m-test --json ... --csv ...`` at the defaults
  (10 samples, seed 7) for every scheme, plus ``--m-json`` on scheme 3 (the
  one that fails REQ1): the SHA-256 of stdout (without its "written to"
  lines, which name the temporary paths) and of every written file.
* ``repro faults --samples 1 --seed 0 --store DB``: the content-addressed
  snapshot id it prints, which hashes every run of the GPCA kill matrix,
  and the same with ``--system pacemaker`` and ``--system cruise``.
* ``repro codegen``, ``repro verify`` (each with and without ``--extended``)
  and two seeded ``repro explore`` runs: the SHA-256 of stdout.
* every option of every subcommand and ``store`` action as
  :func:`repro.cli.build_parser` builds it: flags, choices, default, help
  string, ``type=int`` and ``required``.  ``--help`` bytes are not pinned:
  argparse lays them out differently from one Python version to the next.

Any change to how a system is built, how its schedule is written or how a
run is judged moves one of these digests.
"""

from __future__ import annotations

import argparse
import hashlib

import pytest

from repro.cli import build_parser, main


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


#: scheme -> (exit code, stdout digest, {file: digest}).
RTEST_PINS = {
    1: (
        0,
        "32b1401bc4c05b5c1ae0a7eeecb88859bd9c8f8dd533105e457924b210775b59",
        {
            "json": "d242b51dc657cb4da5f17df174229f74300b09b0b5c718608c7861f2b0b8cf6b",
            "csv": "cbc5715ed22b7b29160132df5503559df24ecc2347bd9eaeb4f8bd01635f3a83",
        },
    ),
    2: (
        0,
        "1bcbec032aa51b63d9f3bf2c04d7c504a1d934e19d449a070eb04b1fc1ed12e9",
        {
            "json": "6b7b6507561c2664d464f97540441bb7999c09b67a5515536e4480c4df6693e5",
            "csv": "4b5ade303b93edf8d8040d236b849733b437ce9ae4707d7ed7e862cc63f8dcf1",
        },
    ),
    3: (
        1,
        "01ae2dc77964d6aad2a6fd2f0915e2bdc27a9b238192a1430c032b3ad9cd0e58",
        {
            "json": "2755b0c836bddd7020482a65fa66877d661ef4e298e3919b4758abaa13b3f8a5",
            "csv": "c476a26b52172e29c4c0529a33700aca7d291147f7e32b963ed8f1b3e4a60d95",
            "m-json": "9f47b28c05f0771d4cf09813d52231ccac11660b4ea906e9afcf626f44b5e57c",
        },
    ),
}

FAULTS_SNAPSHOT = "b580f57d7b98df6ace174137"

#: system -> snapshot id of its kill matrix (``repro faults --system``).
PACK_SNAPSHOTS = {
    "pacemaker": "8790e5fc463fad348d7d19fb",
    "cruise": "213ec6e796e037c1be9e53d6",
}


#: argv -> SHA-256 of the command's stdout (every one exits 0).
STDOUT_PINS = {
    ("codegen",): "c700740ea1f30575e88ec1c5faa744d5dbd661f6539bb85e34bad796e9185b6e",
    ("codegen", "--extended"): "b5a3dbf039d37390deffff0aae4be96da85f20b6e3907000164c9aa51374bee2",
    ("verify",): "25d8b02540bd59daa30219d02e29a0c523835e47db47f718f82d60fda96b9c76",
    ("verify", "--extended"): "ef9cc2854ab9059d14fca334149ce296b899bc4efd7447570dd4f7afb062ee5c",
    ("explore", "--seed", "0", "--episodes", "4"): (
        "bb808dd7b0ea2c43d24350434df7c43d3694ef629afc3e1ab3e424e055624189"
    ),
    ("explore", "--system", "cruise", "--seed", "0", "--episodes", "2"): (
        "2f2e88ec07f0faefa72ebcee4ec9f3eebdef2e68f24d0b3f947d81450f38ed92"
    ),
}


@pytest.mark.parametrize("argv", sorted(STDOUT_PINS), ids=" ".join)
def test_stdout_is_pinned(argv, capsys):
    assert main(list(argv)) == 0
    assert _sha256(capsys.readouterr().out.encode("utf-8")) == STDOUT_PINS[argv]


@pytest.mark.parametrize("scheme", sorted(RTEST_PINS))
def test_rtest_output_is_pinned(scheme, tmp_path, capsys):
    exit_code, stdout_digest, file_digests = RTEST_PINS[scheme]
    argv = ["rtest", "--scheme", str(scheme), "--m-test"]
    for flag in file_digests:
        argv += [f"--{flag}", str(tmp_path / flag)]
    assert main(argv) == exit_code
    stdout = capsys.readouterr().out
    kept = "".join(
        line for line in stdout.splitlines(keepends=True) if "written to" not in line
    )
    assert _sha256(kept.encode("utf-8")) == stdout_digest
    for flag, digest in file_digests.items():
        assert _sha256((tmp_path / flag).read_bytes()) == digest, flag


def test_faults_snapshot_id_is_pinned(tmp_path, capsys):
    store = tmp_path / "runs.db"
    assert main(["faults", "--samples", "1", "--seed", "0", "--store", str(store)]) == 0
    assert f"snapshot {FAULTS_SNAPSHOT} saved to {store}" in capsys.readouterr().out


@pytest.mark.parametrize("system", sorted(PACK_SNAPSHOTS))
def test_pack_faults_snapshot_id_is_pinned(system, tmp_path, capsys):
    store = tmp_path / "runs.db"
    argv = ["faults", "--system", system, "--samples", "1", "--seed", "0", "--store", str(store)]
    assert main(argv) == 0
    assert f"snapshot {PACK_SNAPSHOTS[system]} saved to {store}" in capsys.readouterr().out


# ----------------------------------------------------------------------
# The parser
# ----------------------------------------------------------------------
#: (subcommand[, store action]) -> every option, in declaration order, as
#: (flags or positional name, choices, default, help).  ``()`` is the
#: top-level parser.
PARSER_PINS = {
    (): (
        (('--version',), None, '==SUPPRESS==', 'print the installed package version and exit'),
    ),
    ('verify',): (
        (('--extended',), None, False, 'use the extended GPCA chart'),
    ),
    ('codegen',): (
        (('--extended',), None, False, 'use the extended GPCA chart'),
        (('--output',), None, None, 'write the C source to this file'),
    ),
    ('rtest',): (
        (('--scheme',), (1, 2, 3), None, None),
        (('--samples',), None, 10, None),
        (('--seed',), None, 7, None),
        (('--m-test',), None, False, 'run M-testing on violating samples'),
        (('--json',), None, None, 'write the R-test report as JSON'),
        (('--csv',), None, None, 'write the per-sample table as CSV'),
        (('--m-json',), None, None, 'write the M-test report as JSON (needs --m-test)'),
    ),
    ('table1',): (
        (('--samples',), None, 10, None),
        (('--seed',), None, 7, None),
        (('--output',), None, None, 'write the rendered table to this file'),
    ),
    ('profile',): (
        (
            ('--grid',),
            ('table1', 'periods', 'interference', 'full', 'scenarios'),
            'table1',
            'which stock grid the coordinate comes from (default: table1)',
        ),
        (('--index',), None, 0, 'grid coordinate to profile (default: 0; see --list)'),
        (('--samples',), None, None, 'samples per test case (default: grid-specific)'),
        (('--seed',), None, None, 'campaign seed (default: grid-specific)'),
        (
            ('--timeline',),
            None,
            'timeline.json',
            'write the Chrome-trace timeline here (default: timeline.json)',
        ),
        (
            ('--list',),
            None,
            False,
            "list the grid's coordinates (index, scheme, case) without running",
        ),
    ),
    ('campaign',): (
        (
            ('--grid',),
            ('table1', 'periods', 'interference', 'full', 'scenarios'),
            'table1',
            'which stock grid to run (default: table1)',
        ),
        (
            ('--workers',),
            None,
            1,
            (
                'worker processes to shard the grid across (default: 1, serial; 0 = one '
                'per schedulable CPU)'
            ),
        ),
        (('--samples',), None, None, 'samples per test case (default: grid-specific)'),
        (('--seed',), None, None, 'campaign seed (default: grid-specific)'),
        (('--json',), None, None, 'write the full campaign aggregate as JSON'),
        (('--csv',), None, None, 'write the per-run summary as CSV'),
        (
            ('--store',),
            None,
            None,
            'persist every run and a campaign snapshot into this SQLite run store',
        ),
        (
            ('--resume',),
            None,
            False,
            'with --store: execute only grid points the store has never seen',
        ),
    ),
    ('systems',): (
        (
            ('--list',),
            None,
            False,
            'print the pack inventory (the default behaviour, for symmetry)',
        ),
        (('--json',), None, None, 'write the pack inventory as JSON'),
    ),
    ('explore',): (
        (
            ('--scheme',),
            (1, 2, 3),
            1,
            'implementation scheme to explore (default: 1, single-threaded)',
        ),
        (
            ('--system',),
            None,
            'gpca',
            'registered system pack to explore (default: gpca; known: gpca, pacemaker, cruise)',
        ),
        (
            ('--model',),
            None,
            None,
            (
                'model whose generated transitions are the coverage target (default: '
                "the system's default model)"
            ),
        ),
        (('--episodes',), None, 24, 'exploration episodes to run (default: 24)'),
        (('--seed',), None, 0, 'exploration seed (default: 0)'),
        (('--sut-seed',), None, 11, 'seed of the systems under test (default: 11)'),
        (('--json',), None, None, 'write the exploration report as JSON'),
    ),
    ('faults',): (
        (('--samples',), None, 3, 'samples per scenario run (default: 3)'),
        (
            ('--workers',),
            None,
            1,
            (
                'worker processes to shard the matrix across (default: 1, serial; 0 = '
                'one per schedulable CPU)'
            ),
        ),
        (('--seed',), None, 0, 'matrix seed (default: 0)'),
        (
            ('--system',),
            None,
            'gpca',
            (
                'registered system pack the matrix runs against (default: gpca; known: '
                'gpca, pacemaker, cruise)'
            ),
        ),
        (
            ('--model',),
            None,
            None,
            "model the mutants are generated from (default: the system's default model)",
        ),
        (
            ('--hunt',),
            None,
            0,
            (
                'run up to N survivor-hunter episodes on mutants the fixed scenarios '
                'miss (default: 0, off)'
            ),
        ),
        (('--list',), None, False, 'list the fault suite and generated mutants without running'),
        (('--json',), None, None, 'write the kill-matrix (and hunt) report as JSON'),
        (('--csv',), None, None, 'write the per-run summary as CSV'),
        (
            ('--store',),
            None,
            None,
            'persist every matrix run and a snapshot into this SQLite run store',
        ),
        (
            ('--resume',),
            None,
            False,
            'with --store: execute only matrix points the store has never seen',
        ),
    ),
    ('store', 'list'): (
        (('--db',), None, None, 'run-store file'),
        (('--name',), None, None, 'only snapshots of this campaign name'),
    ),
    ('store', 'runs'): (
        (('--db',), None, None, 'run-store file'),
        (('--scheme',), None, None, 'only runs of this scheme'),
        (('--case',), None, None, 'only runs of this scenario'),
        (('--system',), None, None, 'only runs of this system pack'),
        (('--limit',), None, None, 'at most this many rows'),
        (('--offset',), None, 0, 'skip this many rows first (default: 0)'),
        (
            ('--slowest',),
            None,
            False,
            'order by stored wall-clock, slowest first (default: newest first)',
        ),
    ),
    ('store', 'diff'): (
        (('--db',), None, None, 'run-store file'),
        (('old',), None, None, "old snapshot id, or 'latest' / 'prev'"),
        (('new',), None, None, "new snapshot id, or 'latest' / 'prev'"),
        (('--name',), None, None, 'resolve latest/prev within this campaign name'),
        (('--json',), None, None, 'write the diff report as JSON'),
        (
            ('--fail-on-regression',),
            None,
            False,
            'exit 1 when the diff contains regressions (for CI gates)',
        ),
    ),
    ('store', 'export'): (
        (('--db',), None, None, 'run-store file'),
        (('--campaign',), None, 'latest', "snapshot id, or 'latest' / 'prev' (default: latest)"),
        (('--name',), None, None, 'resolve latest/prev within this campaign name'),
        (('--case',), None, 'bolus-request', 'Table I scenario'),
        (('--json',), None, None, 'write the full campaign aggregate as JSON'),
        (('--csv',), None, None, 'write the per-run summary as CSV'),
        (('--table1',), None, None, 'write Table I (Markdown for .md files, plain text otherwise)'),
        (('--table1-csv',), None, None, 'write the structured Table I rows as CSV'),
    ),
    ('serve',): (
        (('--store',), None, None, 'run-store file to serve'),
        (('--host',), None, '127.0.0.1', 'bind address (default: 127.0.0.1)'),
        (('--port',), None, 8035, 'TCP port (default: 8035; 0 = ephemeral)'),
        (('--quiet',), None, False, 'suppress the per-request structured log lines on stderr'),
    ),
}

#: Each subcommand's and ``store`` action's help line.
COMMAND_HELP = {
    ('verify',): 'verify the GPCA requirements on the model',
    ('codegen',): 'generate CODE(M) and emit its C source',
    ('rtest',): 'R-test one implementation scheme against REQ1',
    ('table1',): 'regenerate Table I across all schemes',
    ('profile',): 'profile one grid coordinate: Chrome-trace timeline + self-time table',
    ('campaign',): 'run an R-/M-testing campaign grid (optionally in parallel)',
    ('systems',): 'list the registered system packs (repro.systems)',
    ('explore',): 'coverage-guided scenario generation against one implementation scheme',
    ('faults',): 'fault-injection / mutation-analysis kill matrix (repro.faults)',
    ('store',): 'inspect a persistent run store (snapshots, runs, diffs, exports)',
    ('serve',): 'serve a run store as a JSON HTTP API (ETag-cached)',
    ('store', 'list'): 'list stored campaign snapshots',
    ('store', 'runs'): 'list stored runs',
    ('store', 'diff'): 'regression diff between two stored snapshots',
    ('store', 'export'): 'export a stored snapshot (JSON / CSV / Table I)',
}

#: Options declared ``required=True``.
REQUIRED_OPTIONS = {
    ("rtest", "--scheme"),
    ("store", "list", "--db"),
    ("store", "runs", "--db"),
    ("store", "diff", "--db"),
    ("store", "export", "--db"),
    ("serve", "--store"),
}

#: Options parsed with ``type=int``.
INT_OPTIONS = {
    ("rtest", "--scheme"), ("rtest", "--samples"), ("rtest", "--seed"),
    ("table1", "--samples"), ("table1", "--seed"),
    ("profile", "--index"), ("profile", "--samples"), ("profile", "--seed"),
    ("campaign", "--workers"), ("campaign", "--samples"), ("campaign", "--seed"),
    ("explore", "--scheme"), ("explore", "--episodes"), ("explore", "--seed"), ("explore", "--sut-seed"),
    ("faults", "--samples"), ("faults", "--workers"), ("faults", "--seed"), ("faults", "--hunt"),
    ("store", "runs", "--scheme"), ("store", "runs", "--limit"), ("store", "runs", "--offset"),
    ("serve", "--port"),
}


def _split(parser):
    """(option actions, subparsers action or None) of one parser."""
    options, subparsers = [], None
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            subparsers = action
        elif not isinstance(action, argparse._HelpAction):
            options.append(action)
    return options, subparsers


def _parsers():
    """(key, parser) for the top-level parser, each subcommand and each ``store`` action."""
    root = build_parser()
    found = [((), root)]
    for name, parser in _split(root)[1].choices.items():
        nested = _split(parser)[1]
        if nested is None:
            found.append(((name,), parser))
        else:
            found.extend(((name, action), sub) for action, sub in nested.choices.items())
    return found


def _help_lines():
    root_subparsers = _split(build_parser())[1]
    lines = {(choice.dest,): choice.help for choice in root_subparsers._choices_actions}
    for name, parser in root_subparsers.choices.items():
        nested = _split(parser)[1]
        if nested is not None:
            lines.update({(name, choice.dest): choice.help for choice in nested._choices_actions})
    return lines


def _flag(action):
    return (action.option_strings or [action.dest])[0]


def test_every_parser_is_pinned():
    assert [key for key, _ in _parsers()] == list(PARSER_PINS)


@pytest.mark.parametrize("key", sorted(PARSER_PINS), ids=lambda key: " ".join(key) or "repro")
def test_parser_options_are_pinned(key):
    parser = dict(_parsers())[key]
    built = tuple(
        (
            tuple(action.option_strings) or (action.dest,),
            None if action.choices is None else tuple(action.choices),
            action.default,
            action.help,
        )
        for action in _split(parser)[0]
    )
    assert built == PARSER_PINS[key]


def test_required_and_integer_options_are_pinned():
    required, integers = set(), set()
    for key, parser in _parsers():
        for action in _split(parser)[0]:
            if action.required and action.option_strings:
                required.add((*key, _flag(action)))
            if action.type is int:
                integers.add((*key, _flag(action)))
    assert required == REQUIRED_OPTIONS
    assert integers == INT_OPTIONS


def test_command_help_lines_are_pinned():
    assert _help_lines() == COMMAND_HELP
