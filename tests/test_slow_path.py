"""How many pieces of the benchmark's collections at seed 401 the column
reader leaves to the line reader, which reads them more slowly: a change
to the column reader that sends it more blocks fails here, not only as a
slower benchmark. The same walk checks that ``clean_treebank`` gives one
item per block the generator wrote. The collections come from the
session fixtures in ``conftest.py``; ``perfbench/corpus.py`` is read,
never written."""

import pytest

from ddmtest import treebank
from ddmtest.treebank import ParseError, PreprocessConfig, Scheme


@pytest.mark.parametrize("workload, scheme, skip_long, pieces, errors", [
    # the CSV run of ud_mixed leaves long blocks unchecked
    ("ud_mixed", Scheme.UD, True, 64, 47),
    ("dirty_conllx", Scheme.PRAGUE, False, 4056, 4056),
])
def test_pieces_read_by_line(workload, scheme, skip_long, pieces, errors,
                             request, monkeypatch):
    path, collection = request.getfixturevalue(workload)
    starts = []
    real = treebank._parse_lines

    def spy(lines, treebank_id, first_line=1):
        starts.append(first_line)
        return real(lines, treebank_id, first_line)

    monkeypatch.setattr(treebank, "_parse_lines", spy)
    cfg = PreprocessConfig(scheme=scheme)
    items = []
    for file in treebank.gather_files([path]):
        with open(file, "rb") as fh:
            items += map(type, treebank.clean_treebank(fh, cfg, str(file),
                                                       skip_long=skip_long))
    assert len(starts) == pieces
    assert len(items) == collection.blocks
    assert items.count(ParseError) == errors
