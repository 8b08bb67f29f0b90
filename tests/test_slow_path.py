"""How many pieces of the benchmark's collections at seed 401 the column
reader leaves to the line reader, which reads them more slowly: a change
to the column reader that sends it more blocks fails here, not only as a
slower benchmark. ``perfbench/corpus.py`` is read, never written."""

import sys
from pathlib import Path

import pytest

from ddmtest import treebank
from ddmtest.treebank import PreprocessConfig, Scheme

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import corpus  # noqa: E402

SEED = 401


@pytest.mark.parametrize("workload, fmt, scheme, skip_long, pieces", [
    # the CSV run of ud_mixed leaves long blocks unchecked
    ("ud_mixed", "conllu", Scheme.UD, True, 64),
    ("dirty_conllx", "conllx", Scheme.PRAGUE, False, 4056),
])
def test_pieces_read_by_line(workload, fmt, scheme, skip_long, pieces,
                             tmp_path, monkeypatch):
    getattr(corpus, workload)(SEED, tmp_path)
    starts = []
    real = treebank._parse_lines

    def spy(lines, treebank_id, errors, first_line=1):
        starts.append(first_line)
        return real(lines, treebank_id, errors, first_line)

    monkeypatch.setattr(treebank, "_parse_lines", spy)
    cfg = PreprocessConfig(scheme=scheme)
    for path in treebank.gather_files([tmp_path]):
        with open(path, "rb") as fh:
            for _ in treebank.clean_treebank(fh, fmt, cfg, str(path), [],
                                             skip_long=skip_long):
                pass
    assert len(starts) == pieces
