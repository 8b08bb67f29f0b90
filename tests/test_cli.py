import argparse
import gc
import io
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ddmtest
from ddmtest import _pool, cli, pipeline
from ddmtest.cli import infer_language, main
from ddmtest.treebank import ParseError, PreprocessConfig

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

    def test_stem_starting_with_a_dash_is_used_whole(self):
        assert infer_language(Path("-train.conllu")) == "-train"
        assert infer_language(Path("data/-a-b.conllu")) == "-a-b"


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

    def test_unwritable_out_is_an_error(self, tmp_path, capsysbinary):
        write_corpus(tmp_path, ["Alpha"])
        out = tmp_path / "no-such-dir" / "report.csv"
        code = main(["analyze", "--input", str(tmp_path), "--out", str(out)])
        assert code == 1
        captured = capsysbinary.readouterr()
        assert captured.out == b""
        assert captured.err.decode() == (
            f"ddmtest: error: [Errno 2] No such file or directory: "
            f"{str(out)!r}\n")
        assert not out.parent.exists()

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

    def test_repeated_level_reported_once(self, tmp_path, capsysbinary):
        write_corpus(tmp_path, ["Alpha", "Beta"], sentence=THREE)
        runs = []
        for levels in ("n3_all", "n3_all,n3_all"):
            code = main(["analyze", "--input", str(tmp_path),
                         "--levels", levels, "--report", "markdown"])
            runs.append((code, capsysbinary.readouterr()))
        assert runs[1] == runs[0]
        assert runs[0][1].out.count(b"| Alpha |") == 2   # above and below

    def test_file_reached_twice_folded_once(self, tmp_path, capsysbinary):
        d = tmp_path / "c"
        d.mkdir()
        write_corpus(d, ["Alpha"], copies=5)
        (d / "Beta.conllu").write_text((THREE + "\n") * 5 + BROKEN,
                                       encoding="utf-8")
        runs = []
        for inputs in ([d], [d, d], [d, d / "Beta.conllu"]):
            code = main(["analyze", "--input", *map(str, inputs)])
            runs.append((code, capsysbinary.readouterr()))
        assert runs[1] == runs[0] and runs[2] == runs[0]
        assert runs[0][1].err.count(b"skipped sentence") == 1

    def test_repeated_input_adds_paths(self, tmp_path, capsysbinary):
        alpha, beta = write_corpus(tmp_path, ["Alpha", "Beta"])
        runs = []
        for argv in (["--input", str(alpha), "--input", str(beta)],
                     ["--input", str(alpha), str(beta)]):
            code = main(["analyze", *argv, "--report", "json"])
            runs.append((code, capsysbinary.readouterr()))
        assert runs[0] == runs[1]
        assert {r["language"] for r in json.loads(runs[0][1].out)[
            "results"]} == {"Alpha", "Beta"}

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

    @pytest.mark.parametrize("flags, message", [
        (["--alpha", "2.0"], "--alpha must be in (0, 1)"),
        (["--levels", "n4_star,n9_bogus"],
         "unknown level 'n9_bogus'; valid: all, n3_all, n4_all_real, "
         "n4_unlabelled, n4_labelled, n4_star, n4_linear"),
        (["--families", "{tmp}/none.tsv"],
         "[Errno 2] No such file or directory: '{tmp}/none.tsv'"),
        (["--families", "{tmp}/fam.tsv"],
         "{tmp}/fam.tsv: line 2: expected 'language<TAB>family'"),
        (["--families", "{tmp}/latin1.tsv"],
         "{tmp}/latin1.tsv: line 3: invalid UTF-8"),
        (["--input", "{tmp}/none.conllu"],
         "no such file or directory: {tmp}/none.conllu"),
        # the checks run in this order, and the first error is the only one
        (["--alpha", "0", "--families", "{tmp}/none.tsv"],
         "--alpha must be in (0, 1)"),
        # a language mapped to a second family
        (["--families", "{tmp}/remap.tsv"],
         "{tmp}/remap.tsv: line 3: 'Alpha' is already in family 'X' "
         "(line 1)"),
        # no language name may be empty
        (["--language", ""], "--language must not be empty"),
    ])
    def test_argument_and_input_errors(self, tmp_path, capsysbinary, flags,
                                       message):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        write_corpus(corpus, ["Alpha"])
        (tmp_path / "fam.tsv").write_text("Alpha\tX\nBeta\n")
        (tmp_path / "latin1.tsv").write_bytes(
            b"Alpha\tX\r\nBeta\tY\rCatal\xe0\tRomance\n")
        (tmp_path / "remap.tsv").write_text("Alpha\tX\nBeta\tY\nAlpha\tZ\n")
        argv = ["analyze", "--input", str(corpus)]
        argv += [f.format(tmp=tmp_path) for f in flags]
        assert main(argv) == 1
        captured = capsysbinary.readouterr()
        assert captured.out == b""
        assert captured.err.decode() == (
            f"ddmtest: error: {message.format(tmp=tmp_path)}\n")

    def test_analysis_runs_through_analyze_collection(self, tmp_path,
                                                      capsysbinary,
                                                      monkeypatch):
        write_corpus(tmp_path, ["Alpha", "Beta"])
        real = pipeline.analyze_collection
        calls = []

        def spy(treebanks, **options):
            calls.append(dict(treebanks))
            return real(treebanks, **options)

        monkeypatch.setattr(pipeline, "analyze_collection", spy)
        assert main(["analyze", "--input", str(tmp_path)]) == 0
        assert capsysbinary.readouterr().out.startswith(b"collection,")
        (treebanks,) = calls
        assert sorted(treebanks) == ["Alpha", "Beta"]
        assert all(type(value) is pipeline.LanguageTally
                   for value in treebanks.values())

    def test_missing_required_args_exit_1(self):
        assert main(["analyze"]) == 1

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    def test_every_analyze_option_has_help(self):
        (commands,) = [a for a in cli.build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction)]
        actions = [a for a in commands.choices["analyze"]._actions
                   if not isinstance(a, argparse._HelpAction)]
        assert len(actions) == 14
        for action in actions:
            assert action.help and action.help.strip(), action.dest

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

    def test_ordering_error_names_first_out_of_order_token(self, tmp_path,
                                                          capsysbinary):
        line = "{}\tw\tw\tX\t_\t_\t{}\tdep\t_\t_".format
        path = tmp_path / "Alpha.conllu"
        # ids 1, 3, 2, 4 on lines 2-5; ids 1, 1, 2, 2 on lines 9-12, last
        path.write_text("\n".join([
            "# sent_id = a", line(1, 0), line(3, 1), line(2, 1), line(4, 1),
            "", line(1, 0), "",
            line(1, 0), line(1, 0), line(2, 1), line(2, 1)]),
            encoding="utf-8")
        code = main(["analyze", "--input", str(path), "--report", "json"])
        assert code == 0
        captured = capsysbinary.readouterr()
        assert json.loads(captured.out)["exclusions"] == {"parse_error": 2}
        assert captured.err.decode().splitlines() == [
            f"ddmtest: skipped sentence ({path}: line {line_no}: "
            "token ids not strictly increasing)" for line_no in (4, 10)]

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
        """30 bad blocks give 20 stderr lines and one count line, and no
        ``ParseError`` is kept past the fold."""
        data = ((BROKEN + "\n") * 30 + STAR_AT_END).encode()
        before = sum(type(o) is ParseError for o in gc.get_objects())
        tally, exclusions, shown = cli._fold_stream(
            data, PreprocessConfig(), "t")
        assert sum(type(o) is ParseError for o in gc.get_objects()) == before
        assert exclusions == {"parse_error": 30} and tally.trees == 1
        assert shown == [
            f"ddmtest: skipped sentence (t: line {line}: expected 10 "
            "columns, got 1)" for line in range(1, 41, 2)] + [
            "ddmtest: t: 10 more skipped sentences not shown"]

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


    def test_line_ends_in_names_keep_markdown_rows(self, tmp_path,
                                                   capsysbinary):
        """A line end in ``--language`` or ``--collection`` is escaped in
        the markdown report, so the language keeps one row per direction
        and the heading one line; CSV and JSON keep the names as they
        are."""
        write_corpus(tmp_path, ["Alpha"], sentence=THREE)
        argv = ["analyze", "--input", str(tmp_path), "--levels", "n3_all",
                "--language", "x\ny", "--collection", "c\r\nd"]
        main(argv + ["--report", "markdown"])
        lines = capsysbinary.readouterr().out.decode().split("\n")
        assert lines[0] == r"# Report: c\r\nd"
        rows = lines[lines.index("## Per-language tests") + 2:]
        rows = rows[:rows.index("")]
        assert [row[:26] for row in rows[2:]] == [
            r"| n3_all | above | x\ny | ", r"| n3_all | below | x\ny | "]
        assert all(row.count(" | ") == 11 for row in rows[2:])
        main(argv + ["--report", "csv"])
        assert ',"x\ny",Unknown,30,' in capsysbinary.readouterr().out.decode()
        main(argv + ["--report", "json"])
        doc = json.loads(capsysbinary.readouterr().out)
        assert doc["collection"] == "c\r\nd"
        assert {r["language"] for r in doc["results"]} == {"x\ny"}


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
    def forks(self, monkeypatch):
        """The pids of the children the CLI forks."""
        pids = []
        real = os.fork

        def spy():
            pid = real()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", spy)
        return pids

    @staticmethod
    def run(monkeypatch, capsysbinary, argv, cpus, stdin=b""):
        monkeypatch.setattr(_pool, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(stdin)))
        code = main(argv)
        captured = capsysbinary.readouterr()
        return code, captured.out, captured.err

    @staticmethod
    def assert_reaped(pids):
        for pid in pids:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)

    def test_worker_count_does_not_change_output(self, tmp_path, monkeypatch,
                                                 capsysbinary, forks):
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
        # three workers: this process and two forked children a run
        assert len(forks) == 2 * runs
        self.assert_reaped(forks)
        doc = json.loads(self.run(monkeypatch, capsysbinary,
                                  ["analyze", "--input", str(data),
                                   "--report", "json"], 3)[1])
        assert doc["exclusions"] == {"empty_after_preprocessing": 4,
                                     "parse_error": 24, "cycle": 2}
        assert {r["language"] for r in doc["results"]} == {"Alpha", "Beta"}

    def test_worker_failure_reports_in_process_error(self, tmp_path,
                                                     monkeypatch,
                                                     capsysbinary, forks):
        _, files = _write_mixed_collection(tmp_path)
        missing = tmp_path / "Gone.conllu"
        monkeypatch.setattr(cli.treebank, "gather_files",
                            lambda paths: [files[1], missing, files[2]])
        argv = ["analyze", "--input", str(tmp_path)]
        alone = self.run(monkeypatch, capsysbinary, argv, 1)
        pooled = self.run(monkeypatch, capsysbinary, argv, 3)
        assert len(forks) == 2
        self.assert_reaped(forks)
        assert pooled == alone
        code, out, err = pooled
        assert code == 1 and out == b""
        lines = err.decode().splitlines()
        assert lines[0].startswith(f"ddmtest: skipped sentence ({files[1]}: ")
        assert lines[-1] == ("ddmtest: error: [Errno 2] No such file or "
                             f"directory: '{missing}'")

    @pytest.mark.parametrize("death, how", [
        ("os.kill(os.getpid(), signal.SIGKILL)",
         f"killed by signal {int(signal.SIGKILL)}"),
        ("os._exit(3)", "exit status 3")])
    def test_worker_that_dies_is_an_error(self, tmp_path, monkeypatch,
                                          capsysbinary, death, how):
        """A child that dies before sending its results ends the run with
        an error after the files before its own, and leaves no child."""
        data, files = _write_mixed_collection(tmp_path)
        # not the largest file, which the parent folds, nor the first
        victim = min(files[1:], key=lambda path: path.stat().st_size)
        before = files[:files.index(victim)]
        script = f"""if True:
            import os, signal, sys
            from ddmtest import _pool, cli
            _pool._usable_cpus = lambda: 3
            parent, fold = os.getpid(), cli._fold_file
            def dying(path, *how):
                if os.getpid() != parent and path.name == {victim.name!r}:
                    {death}
                return fold(path, *how)
            cli._fold_file = dying
            code = cli.main(["analyze", "--input", {str(data)!r}])
            try:
                os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                print("no child left", file=sys.stderr)
            sys.exit(code)
            """
        env = dict(os.environ, PYTHONPATH=str(
            Path(ddmtest.__file__).resolve().parents[1]))
        result = subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, timeout=120)
        assert result.returncode == 1 and result.stdout == b""
        # the files before it, as they report in-process
        assert self.run(monkeypatch, capsysbinary, [
            "analyze", "--input", *map(str, before)], 1)[2] \
            + (f"ddmtest: error: the worker folding {victim} died before "
               f"sending its results ({how})\nno child left\n"
               ).encode() == result.stderr

    def test_interrupt_leaves_no_child(self, tmp_path, monkeypatch, forks):
        """An interrupt in the parent kills and reaps its children at
        once."""
        data, _ = _write_mixed_collection(tmp_path)
        parent, fold = os.getpid(), cli._fold_file

        def fold_or_stop(path, *how):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)      # a child is killed long before
            return fold(path, *how)

        monkeypatch.setattr(cli, "_fold_file", fold_or_stop)
        monkeypatch.setattr(_pool, "_usable_cpus", lambda: 3)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            main(["analyze", "--input", str(data)])
        assert time.monotonic() - start < 30
        assert len(forks) == 2
        self.assert_reaped(forks)

def _long_block(heads):
    return "".join(f"{i}\tw\tw\tNOUN\t_\t_\t{h}\tdep\t_\t_\n"
                   for i, h in enumerate(heads, start=1))


LONG_CYCLE = _long_block([5, 1, 2, 3, 4])      # no root: 1 > 5 > 4 > ... > 1
LONG_TWO_ROOTS = _long_block([0, 1, 0, 3, 4])
LONG_PATH = _long_block([0, 1, 2, 3, 4])


class TestLongBlocks:
    """A CSV run leaves the blocks of more than four words unchecked once
    an input has given a tree; it still exits 2 when no block is a tree."""

    @staticmethod
    def write(tmp_path, files):
        data = tmp_path / "data"
        data.mkdir()
        for name, blocks in files.items():
            (data / name).write_text("\n".join(blocks) + "\n",
                                     encoding="utf-8")
        return data

    @staticmethod
    def run(monkeypatch, capsysbinary, data, how, report):
        """``ddmtest analyze`` of ``data``'s files pooled or in-process, or
        of all of them on stdin."""
        if how == "stdin":
            stdin = b"\n".join(p.read_bytes() for p in sorted(data.iterdir()))
            argv = ["analyze", "--input", "-", "--report", report]
        else:
            stdin = b""
            argv = ["analyze", "--input", str(data), "--report", report]
        cpus = 2 if how == "pooled" else 1
        return TestWorkers.run(monkeypatch, capsysbinary, argv, cpus, stdin)

    @pytest.mark.parametrize("how", ["pooled", "in-process", "stdin"])
    @pytest.mark.parametrize("report", ["csv", "json"])
    def test_only_long_broken_blocks_exit_2(self, tmp_path, monkeypatch,
                                            capsysbinary, how, report):
        data = self.write(tmp_path, {
            "Alpha.conllu": [LONG_CYCLE, LONG_TWO_ROOTS] * 3,
            "Beta.conllu": [LONG_TWO_ROOTS, LONG_CYCLE]})
        code, out, err = self.run(monkeypatch, capsysbinary, data, how,
                                  report)
        assert code == 2
        assert err == (b"ddmtest: empty collection: no sentence survived "
                       b"preprocessing\n")
        if report == "json":
            assert json.loads(out)["exclusions"] == {"cycle": 4,
                                                     "multiple_roots": 4}

    @pytest.mark.parametrize("how", ["pooled", "in-process", "stdin"])
    @pytest.mark.parametrize("report", ["csv", "json"])
    def test_long_tree_after_long_broken_blocks_exits_0(
            self, tmp_path, monkeypatch, capsysbinary, how, report):
        data = self.write(tmp_path, {
            "Alpha.conllu": [LONG_CYCLE, LONG_TWO_ROOTS] * 3 + [LONG_PATH],
            "Beta.conllu": [LONG_TWO_ROOTS, LONG_CYCLE]})
        code, out, err = self.run(monkeypatch, capsysbinary, data, how,
                                  report)
        assert (code, err) == (0, b"")
        if report == "json":
            assert json.loads(out)["exclusions"] == {"cycle": 4,
                                                     "multiple_roots": 4}

    @pytest.mark.parametrize("how", ["pooled", "in-process"])
    def test_only_csv_leaves_long_blocks_unchecked(self, tmp_path,
                                                   monkeypatch, capsysbinary,
                                                   how):
        data = self.write(tmp_path, {
            name: [LONG_PATH] + [LONG_CYCLE] * 3 + [LONG_TWO_ROOTS] * 2
            + [STAR_AT_END] for name in ("Alpha.conllu", "Beta.conllu")})
        modes = []
        real = cli.treebank.clean_treebank

        def spy(*args, skip_long=False):
            modes.append(skip_long)
            return real(*args, skip_long=skip_long)

        monkeypatch.setattr(cli.treebank, "clean_treebank", spy)
        runs = {report: self.run(monkeypatch, capsysbinary, data, how, report)
                for report in ("csv", "json", "markdown")}
        # this process folds both files, or the first share of one file
        files = 2 if how == "in-process" else 1
        assert modes == [True] * files + [False] * 2 * files
        assert all(run[0] == 0 and run[2] == b"" for run in runs.values())
        assert json.loads(runs["json"][1])["exclusions"] == {
            "cycle": 6, "multiple_roots": 4}
        assert runs["markdown"][1].decode().endswith(
            "| cycle | 6 |\n| multiple_roots | 4 |\n")


def test_cli_import_leaves_heavy_modules_out(tmp_path):
    """Neither importing the package or the CLI nor a pooled CSV run
    imports numpy or the standard library's process pools, nor any of
    dataclasses, inspect, logging and json that the interpreter did not
    load before (whatever ``site`` preloads). A one-worker run forks
    nothing and, by the same rule, does not import pickle either."""
    data, _ = _write_mixed_collection(tmp_path)
    src = Path(ddmtest.__file__).resolve().parents[1]
    code = ("import os, sys; before = set(sys.modules); "
            "heavy = ('numpy', 'multiprocessing', 'concurrent.futures'); "
            "slow = ('dataclasses', 'inspect', 'logging', 'json'); "
            "added = lambda *more: sorted(m for m in heavy if m in "
            "sys.modules) + sorted(m for m in slow + more "
            "if m in set(sys.modules) - before); "
            "import ddmtest; print(added()); "
            "import ddmtest.cli as c; c.build_parser(); print(added()); "
            "forks, fork = [], os.fork; "
            "os.fork = lambda: forks.append(1) or fork(); "
            "from ddmtest import _pool; _pool._usable_cpus = lambda: 1; "
            f"c.main(['analyze', '--input', {str(data)!r}, "
            "'--out', os.devnull]); "
            "print(len(forks), added('pickle')); "
            "_pool._usable_cpus = lambda: 3; "
            f"c.main(['analyze', '--input', {str(data)!r}, "
            "'--out', os.devnull]); "
            "print(len(forks), added())")
    result = subprocess.run([sys.executable, "-c", code], check=True,
                            capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=str(src)))
    assert result.stdout == "[]\n[]\n0 []\n2 []\n"


def test_runtime_dependency_list_is_empty():
    """``ddmtest analyze`` needs only the standard library; numpy comes
    with the "sim" extra."""
    tomllib = pytest.importorskip("tomllib")     # Python 3.11 and later
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml",
              "rb") as fh:
        assert tomllib.load(fh)["project"]["dependencies"] == []


def test_import_builds_no_null_table():
    """Importing the package and its command line enumerates no
    arrangement and imports no numpy: the null table is built on first
    use, one (shape, mode) at a time."""
    env = dict(os.environ, PYTHONPATH=str(
        Path(ddmtest.__file__).resolve().parents[1]))
    code = ("import sys, ddmtest, ddmtest.cli\n"
            "from ddmtest import nullmodels as nm, pipeline\n"
            "sizes = lambda: [f.cache_info().currsize for f in (\n"
            "    nm.null_distribution, nm._tail, pipeline._split)]\n"
            "print(sizes(), 'numpy' in sys.modules)\n"
            "pipeline.LanguageTally().level_counts(\n"
            "    pipeline.LevelSpec.N4_LINEAR, '', True)\n"
            "print(sizes(), 'numpy' in sys.modules)\n")
    result = subprocess.run([sys.executable, "-c", code], check=True,
                            capture_output=True, text=True, env=env)
    assert result.stdout == "[0, 0, 0] False\n[1, 0, 1] False\n"


def test_analyze_runs_without_numpy(tmp_path):
    """numpy comes with the "sim" extra: with it blocked, ``python -m
    ddmtest.cli analyze`` writes the same report, enumeration still
    works, and sampling says what to install."""
    data, _ = _write_mixed_collection(tmp_path)
    env = dict(os.environ, PYTHONPATH=str(
        Path(ddmtest.__file__).resolve().parents[1]))
    no_numpy = "import sys; sys.modules['numpy'] = None; "
    analyze = ("import runpy, sys; sys.argv[1:] = ['analyze', '--input', "
               f"{str(data)!r}]; runpy.run_module('ddmtest.cli', "
               "run_name='__main__', alter_sys=True)")
    normal, without = (subprocess.run([sys.executable, "-c", block + analyze],
                                      capture_output=True, env=env)
                       for block in ("", no_numpy))
    assert normal.returncode == without.returncode == 0
    assert without.stdout == normal.stdout != b""
    assert without.stderr == normal.stderr
    tree = "from ddmtest import *; tree = LinearizedTree(2, [(1, 2)])\n"
    code = (no_numpy + tree + "for noncrossing in (False, True):\n"
            "    print(enumerate_arrangements(tree, noncrossing).counts)")
    result = subprocess.run([sys.executable, "-c", code], check=True,
                            capture_output=True, text=True, env=env)
    assert result.stdout == "{1: 2}\n{1: 2}\n"
    for call in ("sample_random_arrangement(tree, 1)",
                 "sample_distance_sums(tree, 5, 1)"):
        code = (no_numpy + tree + f"try:\n    {call}\n"
                "except ImportError as exc:\n    print(exc)")
        result = subprocess.run([sys.executable, "-c", code], check=True,
                                capture_output=True, text=True, env=env)
        assert "pip install 'ddmtest[sim]'" in result.stdout, call
