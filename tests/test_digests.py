"""The benchmark's report digests at seed 401: the CSV report of
``inmem_analyze``, in one process and on the fork pool, and the CSV report
of ``ddmtest analyze`` on ``ud_mixed``, against ``perfbench/digests.json``;
and the JSON report of ``ddmtest analyze`` on ``dirty_conllx``, in one
process and on the fork pool. ``perfbench/digests.json`` and
``perfbench/corpus.py`` are read, never written.

The ``dirty_conllx`` digest is pinned here as a literal: the one recorded
in ``digests.json`` predates the fix that drops a byte order mark at the
start of a file, so it no longer matches the report (ROADMAP, "Benchmark
follow-ups", "Stale digests")."""

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
# the JSON report of the benchmark's dirty_conllx command at SEED
DIRTY_CONLLX = \
    "2469568e51551a785720edf371c09668c24f622068183a068bb98172f5acfe43"


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


@pytest.mark.parametrize("cpus", [1, 2], ids=["in-process", "pooled"])
def test_dirty_conllx(tmp_path, cpus, monkeypatch, capsysbinary):
    """The benchmark's ``dirty_conllx`` command: CoNLL-X in the Prague
    scheme, a per-family JSON report without the undersampled languages."""
    corpus.dirty_conllx(SEED, tmp_path)
    monkeypatch.setattr(_pool, "_usable_cpus", lambda: cpus)
    cli.main(["analyze", "--input", str(tmp_path / "hamledt"),
              "--format", "conllx", "--scheme", "prague", "--report", "json",
              "--per-family", "--exclude-undersampled",
              "--families", str(tmp_path / "families.tsv")])
    assert digest(capsysbinary.readouterr().out) == DIRTY_CONLLX
