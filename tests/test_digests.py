"""The benchmark's report digests at seed 401: the CSV report of
``inmem_analyze``, in one process and on the fork pool, and the CSV report
of ``ddmtest analyze`` on ``ud_mixed``, against ``perfbench/digests.json``;
and the JSON report of ``ddmtest analyze`` on ``dirty_conllx``, in one
process and on the fork pool, and in two spawned processes with different
hash seeds; and the standard error of both commands, against literals.
The two collections come from the session
fixtures in ``conftest.py``. ``perfbench/digests.json`` and
``perfbench/corpus.py`` are read, never written.

The ``dirty_conllx`` digest is pinned here as a literal: the one recorded
in ``digests.json`` predates the fix that drops a byte order mark at the
start of a file, so it no longer matches the report (ROADMAP, "Benchmark
follow-ups", "Stale digests")."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ddmtest import _pool, cli, pipeline, trees

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = PERFBENCH.parent / "src"
sys.path.insert(0, str(PERFBENCH))
import corpus  # noqa: E402

SEED = 401
RECORDED = json.loads((PERFBENCH / "digests.json").read_text(encoding="utf-8"))
# the JSON report of the benchmark's dirty_conllx command at SEED
DIRTY_CONLLX = \
    "2469568e51551a785720edf371c09668c24f622068183a068bb98172f5acfe43"
# the standard error of each command at SEED, the collection's directory
# written as COLLECTION: 47 lines for ud_mixed, 252 for dirty_conllx
STDERR = {
    "ud_mixed":
        "cee6e8ae1d435dbb29d4d443ef017799bb31741df0aef77c1b4f8200dfd23f9f",
    "dirty_conllx":
        "bf40d97535cc30154262b12f6fc670466498a56eb836a35ea39808d80c955a34",
}


def digest(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def dirty_conllx_argv(data: Path) -> list[str]:
    """The benchmark's ``dirty_conllx`` command: CoNLL-X in the Prague
    scheme, a per-family JSON report without the undersampled languages."""
    return ["analyze", "--input", str(data / "hamledt"),
            "--format", "conllx", "--scheme", "prague", "--report", "json",
            "--per-family", "--exclude-undersampled",
            "--families", str(data / "families.tsv")]


def stderr_digest(err: bytes, collection: Path) -> str:
    """The digest of ``err`` with the directory ``collection``, which
    changes from session to session, written as COLLECTION."""
    return digest(err.replace(str(collection).encode(), b"COLLECTION"))


@pytest.fixture(scope="module")
def inmem():
    """The ``inmem_analyze`` trees and families of the seed."""
    collection, families, _ = corpus.inmem_trees(SEED, trees.LinearizedTree)
    return collection, families


@pytest.mark.parametrize("cpus", [1, 2], ids=["in-process", "pooled"])
def test_inmem_analyze(inmem, cpus, monkeypatch):
    collection, families = inmem
    monkeypatch.setattr(_pool, "_usable_cpus", lambda: cpus)
    report = pipeline.analyze_collection(collection, families=families,
                                         collection="inmem")
    assert digest(pipeline.emit_report(report, "csv")) == \
        RECORDED["inmem_analyze"][str(SEED)]


def test_ud_mixed(ud_mixed, capsysbinary):
    cli.main(["analyze", "--input", str(ud_mixed[0])])
    captured = capsysbinary.readouterr()
    assert digest(captured.out) == RECORDED["ud_mixed"][str(SEED)]
    assert stderr_digest(captured.err, ud_mixed[0]) == STDERR["ud_mixed"]


@pytest.mark.parametrize("cpus", [1, 2], ids=["in-process", "pooled"])
def test_dirty_conllx(dirty_conllx, cpus, monkeypatch, capsysbinary):
    data = dirty_conllx[0]
    monkeypatch.setattr(_pool, "_usable_cpus", lambda: cpus)
    cli.main(dirty_conllx_argv(data))
    captured = capsysbinary.readouterr()
    assert digest(captured.out) == DIRTY_CONLLX
    assert stderr_digest(captured.err, data) == STDERR["dirty_conllx"]


def test_dirty_conllx_bytes_do_not_depend_on_the_hash_seed(dirty_conllx):
    """A process has one hash seed, so the in-process tests see only one
    order of every set and dict of strings; two spawned commands see two."""
    data = dirty_conllx[0]
    path = os.environ.get("PYTHONPATH")
    runs = [subprocess.run(
        [sys.executable, "-m", "ddmtest.cli", *dirty_conllx_argv(data)],
        capture_output=True, check=True,
        env={**os.environ, "PYTHONHASHSEED": seed,
             "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC), path)))})
        for seed in ("0", "1")]
    assert [digest(run.stdout) for run in runs] == [DIRTY_CONLLX] * 2
    assert runs[0].stderr == runs[1].stderr
