import concurrent.futures
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ddmtest
from ddmtest import cli
from ddmtest.cli import infer_language, main
from ddmtest.treebank import ParseError

STAR_AT_END = """\
1	V	v	VERB	_	_	0	root	_	_
2	a	a	NOUN	_	_	1	dep	_	_
3	b	b	NOUN	_	_	1	dep	_	_
4	c	c	NOUN	_	_	1	dep	_	_
"""

STAR_CENTRAL = """\
1	a	a	NOUN	_	_	2	dep	_	_
2	V	v	VERB	_	_	0	root	_	_
3	b	b	NOUN	_	_	2	dep	_	_
4	c	c	NOUN	_	_	2	dep	_	_
"""

CHAIN = """\
1	V	v	VERB	_	_	0	root	_	_
2	a	a	NOUN	_	_	1	dep	_	_
3	b	b	NOUN	_	_	2	dep	_	_
4	c	c	NOUN	_	_	3	dep	_	_
"""

PUNCT_ONLY = """\
1	!	!	PUNCT	_	_	0	root	_	_
"""

CYCLE = """\
1	a	a	NOUN	_	_	2	dep	_	_
2	b	b	NOUN	_	_	3	dep	_	_
3	c	c	VERB	_	_	1	root	_	_
"""

THREE = """\
1	a	a	NOUN	_	_	2	dep	_	_
2	V	v	VERB	_	_	0	root	_	_
3	b	b	NOUN	_	_	2	dep	_	_
"""

BROKEN = "broken line\n"


def write_corpus(tmp_path, languages, sentence=STAR_AT_END, copies=30):
    paths = []
    for lang in languages:
        p = tmp_path / f"{lang}.conllu"
        p.write_text((sentence + "\n") * copies, encoding="utf-8")
        paths.append(p)
    return paths


class TestInferLanguage:
    def test_ud_directory_convention(self):
        p = Path("/data/UD_Japanese-GSD/ja_gsd-ud-train.conllu")
        assert infer_language(p) == "Japanese"

    def test_ud_directory_with_underscore(self):
        p = Path("UD_Old_French-SRCMF/fro_srcmf-ud-test.conllu")
        assert infer_language(p) == "Old French"

    def test_plain_stem(self):
        assert infer_language(Path("Tagalog.conllu")) == "Tagalog"
        assert infer_language(Path("Tagalog-train.conllu")) == "Tagalog"


class TestAnalyzeCommand:
    def test_end_to_end_csv(self, tmp_path, capsysbinary):
        write_corpus(tmp_path, ["Alpha", "Beta"])
        code = main(["analyze", "--input", str(tmp_path),
                     "--collection", "toy",
                     "--levels", "n4_star", "--direction", "above"])
        assert code == 0
        out = capsysbinary.readouterr().out.decode()
        lines = out.splitlines()
        assert lines[0].startswith("collection,level,direction")
        assert any(line.startswith("toy,n4_star,above,Alpha,") for line in lines)
        assert lines[-1].endswith("2,2,2,2")  # l0, l, f, f_H

    def test_out_file_and_determinism(self, tmp_path):
        write_corpus(tmp_path, ["Alpha"])
        out1 = tmp_path / "r1.csv"
        out2 = tmp_path / "r2.csv"
        for out in (out1, out2):
            assert main(["analyze", "--input", str(tmp_path),
                         "--out", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_report_with_families(self, tmp_path, capsysbinary):
        write_corpus(tmp_path, ["Alpha", "Beta"])
        fam = tmp_path / "families.tsv"
        fam.write_text("Alpha\tGreekish\n# note\nBeta\tGreekish\n",
                       encoding="utf-8")
        code = main(["analyze", "--input", str(tmp_path),
                     "--families", str(fam), "--report", "json"])
        assert code == 0
        doc = json.loads(capsysbinary.readouterr().out)
        assert {r["family"] for r in doc["results"]} == {"Greekish"}

    def test_empty_collection_exit_2(self, tmp_path, capsysbinary):
        p = tmp_path / "Empty.conllu"
        p.write_text(PUNCT_ONLY + "\n", encoding="utf-8")
        code = main(["analyze", "--input", str(p)])
        assert code == 2
        out = capsysbinary.readouterr().out.decode()
        assert out.splitlines()[0].startswith("collection,")

    def test_missing_input_exit_1(self, tmp_path):
        assert main(["analyze", "--input", str(tmp_path / "nope.conllu")]) == 1

    def test_bad_flag_value_exit_1(self, tmp_path):
        write_corpus(tmp_path, ["Alpha"])
        assert main(["analyze", "--input", str(tmp_path),
                     "--report", "xml"]) == 1
        assert main(["analyze", "--input", str(tmp_path),
                     "--levels", "n9_bogus"]) == 1
        assert main(["analyze", "--input", str(tmp_path),
                     "--alpha", "2.0"]) == 1

    def test_missing_required_args_exit_1(self):
        assert main(["analyze"]) == 1

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    def test_stdin_input(self, tmp_path, capsysbinary, monkeypatch):
        data = (STAR_AT_END + "\n") * 10
        monkeypatch.setattr("sys.stdin",
                            type("S", (), {"buffer": io.BytesIO(
                                data.encode("utf-8"))})())
        code = main(["analyze", "--input", "-", "--language", "Pidgin",
                     "--levels", "n4_star", "--direction", "above"])
        assert code == 0
        out = capsysbinary.readouterr().out.decode()
        assert ",Pidgin," in out

    def test_direction_below_detects_central_hubs(self, tmp_path, capsysbinary):
        write_corpus(tmp_path, ["Alpha"], sentence=STAR_CENTRAL)
        code = main(["analyze", "--input", str(tmp_path),
                     "--levels", "n4_star", "--direction", "below"])
        assert code == 0
        lines = capsysbinary.readouterr().out.decode().splitlines()
        assert lines[-1].endswith("1,1,1,1")

    def test_exclusions_reported(self, tmp_path, capsysbinary):
        content = STAR_AT_END + "\n" + PUNCT_ONLY + "\n"
        (tmp_path / "Alpha.conllu").write_text(content, encoding="utf-8")
        code = main(["analyze", "--input", str(tmp_path), "--report", "json"])
        assert code == 0
        doc = json.loads(capsysbinary.readouterr().out)
        assert doc["exclusions"] == {"empty_after_preprocessing": 1}

    def test_parse_errors_counted_and_reported(self, tmp_path, capsysbinary):
        content = STAR_AT_END + "\nbroken line\n\n"
        (tmp_path / "Alpha.conllu").write_text(content, encoding="utf-8")
        code = main(["analyze", "--input", str(tmp_path), "--report", "json"])
        assert code == 0
        captured = capsysbinary.readouterr()
        doc = json.loads(captured.out)
        assert doc["exclusions"]["parse_error"] == 1
        path = tmp_path / "Alpha.conllu"
        assert captured.err.decode().splitlines() == [
            f"ddmtest: skipped sentence ({path}: line 6: "
            "expected 10 columns, got 1)"]

    def test_parse_errors_capped_per_file(self, tmp_path, capsysbinary):
        path = tmp_path / "Alpha.conllu"
        path.write_text(STAR_AT_END + "\n" + (BROKEN + "\n") * 23,
                        encoding="utf-8")
        code = main(["analyze", "--input", str(path), "--report", "json"])
        assert code == 0
        captured = capsysbinary.readouterr()
        assert json.loads(captured.out)["exclusions"] == {"parse_error": 23}
        assert captured.err.decode().splitlines() == [
            f"ddmtest: skipped sentence ({path}: line {line}: "
            "expected 10 columns, got 1)"
            for line in range(6, 46, 2)] + [
            f"ddmtest: {path}: 3 more skipped sentences not shown"]

    def test_error_log_keeps_only_the_errors_shown(self):
        log = cli._ErrorLog()
        errors = [ParseError(line, "bad") for line in range(1, 31)]
        for error in errors:
            log.append(error)
        assert log.count == 30
        assert log.shown == errors[:cli.MAX_ERRORS_SHOWN]

    def test_sent_id_comment_without_value(self, tmp_path, capsysbinary):
        path = tmp_path / "Alpha.conllu"
        path.write_text("# sent_id\n" + STAR_AT_END + "\n# sent_id\n"
                        + STAR_AT_END, encoding="utf-8")
        code = main(["analyze", "--input", str(path), "--report", "json",
                     "--levels", "n4_star", "--direction", "above"])
        assert code == 0
        captured = capsysbinary.readouterr()
        assert captured.err == b""
        (result,) = json.loads(captured.out)["results"]
        assert result["m"] == 2

    def test_undecodable_block_skipped_rest_counted(self, tmp_path,
                                                    capsysbinary):
        path = tmp_path / "Alpha.conllu"
        path.write_bytes(b"1\t\xff\t_\tX\t_\t_\t0\troot\t_\t_\n\n"
                         + STAR_AT_END.encode())
        code = main(["analyze", "--input", str(path), "--report", "json",
                     "--levels", "n4_star", "--direction", "above"])
        assert code == 0
        captured = capsysbinary.readouterr()
        doc = json.loads(captured.out)
        assert doc["exclusions"] == {"parse_error": 1}
        (result,) = doc["results"]
        assert result["m"] == 1
        assert captured.err.decode() == (
            f"ddmtest: skipped sentence ({path}: line 1: invalid UTF-8)\n")

    def test_bom_prefixed_file_counts_first_block(self, tmp_path,
                                                  capsysbinary):
        (tmp_path / "Alpha.conllu").write_text("\ufeff" + STAR_AT_END,
                                               encoding="utf-8")
        code = main(["analyze", "--input", str(tmp_path), "--report", "json",
                     "--levels", "n4_star", "--direction", "above"])
        assert code == 0
        captured = capsysbinary.readouterr()
        assert captured.err == b""
        (result,) = json.loads(captured.out)["results"]
        assert result["m"] == 1

    def test_only_longer_sentences_is_not_empty(self, tmp_path, capsysbinary):
        five = "".join(f"{i}\tw\tw\tNOUN\t_\t_\t{i - 1}\tdep\t_\t_\n"
                       for i in range(1, 6))
        (tmp_path / "Alpha.conllu").write_text((five + "\n") * 3,
                                               encoding="utf-8")
        code = main(["analyze", "--input", str(tmp_path)])
        assert code == 0
        lines = capsysbinary.readouterr().out.decode().splitlines()
        summaries = lines[1:]
        assert len(summaries) == 12        # six levels, two directions
        assert all(row.endswith(",0,0,0,0") for row in summaries)

    def test_noncrossing_diagnostic_changes_p(self, tmp_path, capsysbinary):
        write_corpus(tmp_path, ["Alpha"], sentence=CHAIN)
        main(["analyze", "--input", str(tmp_path), "--levels", "n4_linear",
              "--direction", "above", "--noncrossing-diagnostic"])
        out = capsysbinary.readouterr().out.decode()
        assert ",5/8," in out

    def test_language_grouping_merges_files(self, tmp_path, capsysbinary):
        d = tmp_path / "UD_Alpha-One"
        d.mkdir()
        (d / "alpha-ud-train.conllu").write_text((STAR_AT_END + "\n") * 5,
                                                 encoding="utf-8")
        (d / "alpha-ud-test.conllu").write_text((STAR_AT_END + "\n") * 5,
                                                encoding="utf-8")
        main(["analyze", "--input", str(d), "--levels", "n4_star",
              "--direction", "above", "--report", "json"])
        doc = json.loads(capsysbinary.readouterr().out)
        (result,) = doc["results"]
        assert result["language"] == "Alpha"
        assert result["m"] == 10


def _write_mixed_collection(tmp_path):
    """Three files, two languages, parse errors and exclusions in each."""
    blocks = {
        "Alpha-test.conllu": [STAR_CENTRAL] * 4 + [THREE, PUNCT_ONLY]
        + [BROKEN] * 21,
        "Alpha-train.conllu": [STAR_AT_END] * 12 + [CHAIN] * 9
        + [PUNCT_ONLY, BROKEN, CYCLE, BROKEN],
        "Beta.conllu": [CHAIN] * 6 + [CYCLE, STAR_AT_END, BROKEN, THREE]
        + [PUNCT_ONLY] * 2,
    }
    data = tmp_path / "data"
    data.mkdir()
    for name, parts in blocks.items():
        (data / name).write_text("\n".join(parts) + "\n", encoding="utf-8")
    return data, [data / name for name in sorted(blocks)]


class TestWorkers:
    @pytest.fixture
    def pools(self, monkeypatch):
        """Worker counts of the pools the CLI opens."""
        opened = []
        real = concurrent.futures.ProcessPoolExecutor

        class SpyPool(real):
            def __init__(self, workers, **kwargs):
                opened.append(workers)
                super().__init__(workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            SpyPool)
        return opened

    @staticmethod
    def run(monkeypatch, capsysbinary, argv, cpus, stdin=b""):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(stdin)))
        code = main(argv)
        captured = capsysbinary.readouterr()
        return code, captured.out, captured.err

    def test_worker_count_does_not_change_output(self, tmp_path, monkeypatch,
                                                 capsysbinary, pools):
        data, files = _write_mixed_collection(tmp_path)
        stdin = "\n".join([STAR_AT_END, BROKEN, CHAIN, PUNCT_ONLY]).encode()
        inputs = [["--input", str(data)],
                  ["--input", str(data), "--language", "Omni"],
                  ["--input", *map(str, files), "-"]]
        runs = 0
        for flags in inputs:
            for report in ("csv", "json", "markdown"):
                argv = ["analyze", *flags, "--report", report]
                alone = self.run(monkeypatch, capsysbinary, argv, 1, stdin)
                pooled = self.run(monkeypatch, capsysbinary, argv, 3, stdin)
                runs += 1
                assert alone[0] == 0
                assert pooled == alone
                assert b"more skipped sentences not shown" in alone[2]
        assert pools == [3] * runs
        doc = json.loads(self.run(monkeypatch, capsysbinary,
                                  ["analyze", "--input", str(data),
                                   "--report", "json"], 3)[1])
        assert doc["exclusions"] == {"empty_after_preprocessing": 4,
                                     "parse_error": 24, "cycle": 2}
        assert {r["language"] for r in doc["results"]} == {"Alpha", "Beta"}

    def test_worker_failure_reports_in_process_error(self, tmp_path,
                                                     monkeypatch,
                                                     capsysbinary, pools):
        _, files = _write_mixed_collection(tmp_path)
        missing = tmp_path / "Gone.conllu"
        monkeypatch.setattr(cli.treebank, "gather_files",
                            lambda paths: [files[1], missing, files[2]])
        argv = ["analyze", "--input", str(tmp_path)]
        alone = self.run(monkeypatch, capsysbinary, argv, 1)
        pooled = self.run(monkeypatch, capsysbinary, argv, 3)
        assert pools == [3]
        assert pooled == alone
        code, out, err = pooled
        assert code == 1 and out == b""
        lines = err.decode().splitlines()
        assert lines[0].startswith(f"ddmtest: skipped sentence ({files[1]}: ")
        assert lines[-1] == ("ddmtest: error: [Errno 2] No such file or "
                             f"directory: '{missing}'")


def test_cli_import_leaves_heavy_modules_out():
    src = Path(ddmtest.__file__).resolve().parents[1]
    code = ("import sys, ddmtest.cli as c; c.build_parser(); "
            "print(sorted(m for m in ('numpy', 'multiprocessing', "
            "'concurrent.futures') if m in sys.modules))")
    result = subprocess.run([sys.executable, "-c", code], check=True,
                            capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=str(src)))
    assert result.stdout == "[]\n"
