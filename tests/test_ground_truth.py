"""The benchmark's ground truth, on small collections: every block of a
generated collection must land where ``perfbench/corpus.py`` says, through
the whole command, from bytes to report."""

import sys
from pathlib import Path

import pytest

from ddmtest import _pool, cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import check  # noqa: E402
import corpus  # noqa: E402

SEEDS = [31, 32]
WORKLOADS = {
    "ud_mixed": (lambda seed, out: corpus.ud_mixed(seed, out, sentences=1500),
                 lambda data: ["--input", str(data)]),
    "dirty_conllx": (
        lambda seed, out: corpus.dirty_conllx(seed, out, blocks=2500),
        lambda data: ["--input", str(data / "hamledt"), "--format", "conllx",
                      "--scheme", "prague", "--per-family",
                      "--exclude-undersampled", "--families",
                      str(data / "families.tsv")]),
}


@pytest.fixture(scope="module", params=[
    (workload, seed) for workload in WORKLOADS for seed in SEEDS],
    ids=lambda param: f"{param[0]}-{param[1]}")
def collection(request, tmp_path_factory):
    """A generated collection, its truth, and its flags as written and in a
    copy where every line ends in CRLF, whose truth is the same."""
    workload, seed = request.param
    generate, flags = WORKLOADS[workload]
    data = tmp_path_factory.mktemp(f"{workload}-{seed}")
    coll = generate(seed, data / "lf")
    for path in (data / "lf").rglob("*"):
        if path.is_file():
            copy = data / "crlf" / path.relative_to(data / "lf")
            copy.parent.mkdir(parents=True, exist_ok=True)
            copy.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    return coll, {eol: flags(data / eol) for eol in ("lf", "crlf")}


@pytest.mark.parametrize("cpus", [1, 2], ids=["in-process", "pooled"])
@pytest.mark.parametrize("report", ["csv", "json"])
@pytest.mark.parametrize("eol", ["lf", "crlf"])
def test_every_block_lands_where_the_truth_says(collection, eol, report,
                                                cpus, monkeypatch,
                                                capsysbinary):
    coll, flags = collection
    monkeypatch.setattr(_pool, "_usable_cpus", lambda: cpus)
    code = cli.main(["analyze", *flags[eol], "--report", report])
    verdict = check.judge(capsysbinary.readouterr().out, report, coll, code)
    assert verdict.failed_blocks == 0
