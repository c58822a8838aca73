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

Any change to how a system is built, how its schedule is written or how a
run is judged moves one of these digests.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.cli import main


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
