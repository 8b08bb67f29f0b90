"""The benchmark's recorded report digests at seed 401: the CSV report of
``inmem_analyze``, in one process and on the fork pool, and the CSV report
of ``ddmtest analyze`` on ``ud_mixed``. ``perfbench/digests.json`` and
``perfbench/corpus.py`` are read, never written.

``dirty_conllx`` is left out: its recorded digests predate the fix that
drops a byte order mark at the start of a file, so they no longer match the
report (ROADMAP, "Benchmark follow-ups", "Stale digests")."""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from ddmtest import _pool, cli, pipeline, trees

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import corpus  # noqa: E402

SEED = 401
RECORDED = json.loads((PERFBENCH / "digests.json").read_text(encoding="utf-8"))


def digest(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


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


def test_ud_mixed(tmp_path, capsysbinary):
    corpus.ud_mixed(SEED, tmp_path / "data")
    cli.main(["analyze", "--input", str(tmp_path / "data")])
    assert digest(capsysbinary.readouterr().out) == \
        RECORDED["ud_mixed"][str(SEED)]
