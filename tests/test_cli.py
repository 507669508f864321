"""CLI behavior: exit codes, artifacts, determinism, config precedence."""

import argparse
import errno
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from conftest import CORPUS_PATH, NAME_BREAKERS, TOY_LAYOUT_PATH, read_text

import bnkeypad
from bnkeypad import bn_text, cli
from bnkeypad.bn_text import CorpusStats
from bnkeypad.cli import main
from bnkeypad.ergonomics import default_model, format_model_tsv, load_model, parse_model_tsv
from bnkeypad.errors import CorpusDecodeError, LayoutSyntaxError, ModelSyntaxError
from bnkeypad.layout import Role, load_layout, parse
from bnkeypad.transcribe import EvaluationReport, evaluate

MINI = ("কখক কা। "
        "অনেক দিন?")


@pytest.fixture
def mini_corpus(tmp_path):
    path = tmp_path / "mini.txt"
    path.write_text(MINI, encoding="utf-8")
    return path


def test_analyze_writes_ranked_tsv(tmp_path, mini_corpus, capsys):
    out = tmp_path / "freq.tsv"
    assert main(["analyze", "--corpus", str(mini_corpus), "-o", str(out)]) == 0
    expected = bn_text.format_frequency_tsv(
        bn_text.count_frequencies(read_text(mini_corpus)))
    assert out.read_text(encoding="utf-8") == expected
    assert "analyzed" in capsys.readouterr().err


def test_analyze_stdout_default(mini_corpus, capsys):
    assert main(["analyze", "--corpus", str(mini_corpus)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("codepoints\tcategory\tcount\tfrequency\n")


def test_analyze_reads_stdin(monkeypatch, capsys):
    import io
    import sys

    monkeypatch.setattr(sys, "stdin",
                        io.TextIOWrapper(io.BytesIO(MINI.encode("utf-8"))))
    assert main(["analyze", "--corpus", "-"]) == 0
    assert main(["analyze", "--corpus", "-", "-"]) == 2  # stdin at most once
    out = capsys.readouterr().out
    assert out.startswith("codepoints\tcategory\tcount\tfrequency\n")
    assert bn_text.format_frequency_tsv(bn_text.count_frequencies(MINI)) in out


def test_analyze_merges_multiple_files(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("কখ", encoding="utf-8")
    b.write_text("ক", encoding="utf-8")
    out = tmp_path / "freq.tsv"
    assert main(["analyze", "--corpus", str(a), str(b), "-o", str(out)]) == 0
    assert "U+0995\tconsonant\t2" in out.read_text(encoding="utf-8")


def test_missing_corpus_is_usage_error(tmp_path, capsys):
    code = main(["analyze", "--corpus", str(tmp_path / "nope.txt")])
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()[-1]
    assert err.startswith("E_USAGE\t")


def test_unknown_flag_is_usage_error(capsys):
    assert main(["analyze", "--bogus"]) == 2
    assert capsys.readouterr().err.startswith("E_USAGE\t")


def test_bad_utf8_corpus_is_domain_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe")
    assert main(["analyze", "--corpus", str(bad)]) == 1
    assert capsys.readouterr().err.startswith("E_DECODE\t")


def test_build_layout_and_evaluate_flow(tmp_path, capsys):
    layout_path = tmp_path / "layout.tsv"
    assert main(["build-layout", "--corpus", str(CORPUS_PATH),
                 "--strategy", "serpentine", "-o", str(layout_path)]) == 0
    layout = load_layout(layout_path)
    assert layout.roles[Role.SPACE] == "0"

    report_path = tmp_path / "report.tsv"
    assert main(["evaluate", "--layout", str(layout_path),
                 "--corpus", str(CORPUS_PATH), "-o", str(report_path)]) == 0
    text = report_path.read_text(encoding="utf-8")
    assert text.startswith("metric\tvalue\nkspc\t")
    assert "load[0]\t" in text

    units, _ = bn_text.scan_units(read_text(CORPUS_PATH))
    expected = evaluate(CorpusStats.from_units(units), layout, default_model())
    assert f"kspc\t{expected.kspc:.9f}\n" in text
    assert f"jam_rate\t{expected.jam_rate:.9f}\n" in text


def test_evaluate_json_format(tmp_path, capsys):
    layout_path = tmp_path / "layout.tsv"
    main(["build-layout", "--corpus", str(CORPUS_PATH), "-o", str(layout_path)])
    assert main(["evaluate", "--layout", str(layout_path),
                 "--corpus", str(CORPUS_PATH), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    units, _ = bn_text.scan_units(read_text(CORPUS_PATH))
    expected = evaluate(CorpusStats.from_units(units), load_layout(layout_path), default_model())
    assert payload["kspc"] == expected.kspc
    assert payload["unit_count"] == expected.unit_count
    assert set(payload["per_key_load"]) == set("123456789*0#")


def test_build_layout_missing_consonants(mini_corpus, capsys):
    assert main(["build-layout", "--corpus", str(mini_corpus)]) == 1
    assert capsys.readouterr().err.startswith("E_INCOMPLETE_ALPHABET\t")


def test_compare_equals_two_evaluates(tmp_path, capsys):
    serp = tmp_path / "serp.tsv"
    seq = tmp_path / "seq.tsv"
    main(["build-layout", "--corpus", str(CORPUS_PATH), "--strategy", "serpentine",
          "-o", str(serp)])
    main(["build-layout", "--corpus", str(CORPUS_PATH), "--strategy", "sequential",
          "-o", str(seq)])
    out = tmp_path / "cmp.tsv"
    assert main(["compare", "--layouts", str(serp), str(seq),
                 "--corpus", str(CORPUS_PATH), "-o", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "layout\tkspc\texpected_cost\tjam_rate"
    assert len(lines) == 3
    units, _ = bn_text.scan_units(read_text(CORPUS_PATH))
    model = default_model()
    for line, path in zip(lines[1:], (serp, seq)):
        layout = load_layout(path)
        expected = evaluate(CorpusStats.from_units(units), layout, model)
        name, kspc, cost, jam = line.split("\t")
        assert name == layout.name
        assert kspc == f"{expected.kspc:.9f}"
        assert cost == f"{expected.expected_cost:.9f}"
        assert jam == f"{expected.jam_rate:.9f}"


def test_compare_keeps_the_order_and_repeats_of_its_layouts(tmp_path, capsys):
    serp = tmp_path / "serp.tsv"
    main(["build-layout", "--corpus", str(CORPUS_PATH), "-o", str(serp)])
    rows = {}
    for layouts in ([serp], [serp, TOY_LAYOUT_PATH, serp], [TOY_LAYOUT_PATH, serp, serp]):
        assert main(["compare", "--layouts", *map(str, layouts), "--corpus", str(CORPUS_PATH),
                     "--skip-untypable"]) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        assert len(lines) == len(layouts)
        for path, line in zip(layouts, lines):
            assert rows.setdefault(path, line) == line
    assert rows[serp] != rows[TOY_LAYOUT_PATH]


# compare loads every layout file before it evaluates any, so a later
# file's error comes before an earlier layout's untypable unit and before an
# empty corpus; with one fault, each line is the one it always was
@pytest.mark.parametrize("layouts, corpus, line", [
    (["toy", "bad"], "fixture", "E_LAYOUT_SYNTAX\tline 1: expected header 'keypad-layout v1'"),
    (["serp", "bad"], "empty", "E_LAYOUT_SYNTAX\tline 1: expected header 'keypad-layout v1'"),
    (["toy"], "fixture",
     "E_UNTYPABLE\tunit BENGALI LETTER AA at text position 0 is not in the layout"),
    (["serp", "toy"], "fixture",
     "E_UNTYPABLE\tunit BENGALI LETTER AA at text position 0 is not in the layout"),
    (["bad", "toy"], "fixture", "E_LAYOUT_SYNTAX\tline 1: expected header 'keypad-layout v1'"),
    (["serp", "serp"], "empty",
     "E_EMPTY_CORPUS\tthe corpus has no typable unit to evaluate (0 scalars skipped)"),
], ids=["bad-after-untypable", "bad-after-good-on-empty", "untypable", "untypable-second",
        "bad-first", "empty"])
def test_compare_reports_a_layout_file_error_before_evaluating(tmp_path, capsys, layouts,
                                                               corpus, line):
    paths = {"toy": TOY_LAYOUT_PATH, "bad": tmp_path / "bad.tsv", "serp": tmp_path / "serp.tsv",
             "fixture": CORPUS_PATH, "empty": tmp_path / "empty.txt"}
    paths["bad"].write_text("not a layout\n", encoding="utf-8")
    paths["empty"].write_text("", encoding="utf-8")
    assert main(["build-layout", "--corpus", str(CORPUS_PATH), "-o", str(paths["serp"])]) == 0
    out = tmp_path / "compare.tsv"
    assert main(["compare", "--layouts", *(str(paths[name]) for name in layouts),
                 "--corpus", str(paths[corpus]), "-o", str(out)]) == 1
    assert capsys.readouterr().err == line + "\n"
    assert not out.exists()


@pytest.mark.parametrize("separator", NAME_BREAKERS)
def test_build_layout_rejects_a_name_the_file_cannot_hold(tmp_path, capsys, separator):
    out = tmp_path / "named.tsv"
    assert main(["build-layout", "--corpus", str(CORPUS_PATH),
                 "--name", f"a{separator}b", "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("E_USAGE\t")
    assert not out.exists()


@pytest.mark.parametrize("to_file", [True, False])
def test_build_layout_rejects_a_name_utf8_cannot_encode(tmp_path, capsys, to_file):
    out = tmp_path / "named.tsv"
    # an undecodable command-line byte reaches argv as a lone surrogate
    assert main(["build-layout", "--corpus", str(CORPUS_PATH), "--name", "a\udcffb",
                 *(["-o", str(out)] if to_file else [])]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("E_USAGE\t")
    assert not out.exists()


@pytest.mark.parametrize("to_file", [True, False])
def test_build_layout_rejects_an_empty_name(tmp_path, capsys, to_file):
    out = tmp_path / "named.tsv"
    assert main(["build-layout", "--corpus", str(CORPUS_PATH), "--name", "",
                 *(["-o", str(out)] if to_file else [])]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("E_USAGE\t")
    assert not out.exists()


def test_write_text_atomic_writes_the_utf8_bytes_untranslated(tmp_path):
    out = tmp_path / "out.tsv"
    text = "keypad-layout v1\r\nname\tনাম\r\n2\tU+0995\n\r"
    cli.write_artifacts([(out, text)])
    assert out.read_bytes() == text.encode("utf-8")
    umask = os.umask(0)
    os.umask(umask)
    assert out.stat().st_mode & 0o777 == 0o666 & ~umask  # what open(out, "w") gives
    assert list(tmp_path.iterdir()) == [out]


@pytest.mark.parametrize("mode", [0o600, 0o640, 0o664, 0o666])
def test_write_text_atomic_keeps_the_mode_of_the_file_it_replaces(tmp_path, mode):
    out = tmp_path / "out.tsv"
    out.write_text("old\n")
    out.chmod(mode)
    umask = os.umask(0o022)
    try:
        cli.write_artifacts([(out, "নাম\n")])
        assert os.umask(0o022) == 0o022  # left as it was
    finally:
        os.umask(umask)
    assert out.read_bytes() == "নাম\n".encode("utf-8")
    assert out.stat().st_mode & 0o777 == mode
    assert list(tmp_path.iterdir()) == [out]


def test_write_text_atomic_creates_missing_parent_directories(tmp_path):
    out = tmp_path / "a" / "b" / "c" / "out.tsv"
    cli.write_artifacts([(out, "নাম\n")])
    assert out.read_bytes() == "নাম\n".encode("utf-8")
    assert list(out.parent.iterdir()) == [out]


def test_output_under_a_file_is_an_io_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_bytes(b"keep\n")
    assert main(["build-layout", "--corpus", str(CORPUS_PATH),
                 "-o", str(blocker / "sub" / "layout.tsv")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("E_IO\t")
    assert blocker.read_bytes() == b"keep\n"
    assert list(tmp_path.iterdir()) == [blocker]


def test_failed_rename_leaves_no_temp_file_and_keeps_the_target(tmp_path, monkeypatch):
    out = tmp_path / "out.tsv"
    out.write_bytes(b"old\n")

    def fail(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="rename refused"):
        cli.write_artifacts([(out, "new\n")])
    monkeypatch.undo()
    assert list(tmp_path.iterdir()) == [out]
    assert out.read_bytes() == b"old\n"


def test_write_text_atomic_resumes_short_writes(tmp_path, monkeypatch):
    out = tmp_path / "out.tsv"
    text = "name\tনাম\n" * 7
    real_write = os.write
    sizes = []

    def write_three(fd, data):
        sizes.append(real_write(fd, bytes(data[:3])))
        return sizes[-1]

    monkeypatch.setattr(os, "write", write_three)
    cli.write_artifacts([(out, text)])
    monkeypatch.undo()
    data = text.encode("utf-8")
    assert out.read_bytes() == data
    assert sum(sizes) == len(data) and len(sizes) == -(-len(data) // 3)


def test_output_through_a_symlink_replaces_the_link_target(tmp_path, capsys):
    real = tmp_path / "real.tsv"
    real.write_bytes(b"old\n")
    real.chmod(0o640)
    link = tmp_path / "link.tsv"
    link.symlink_to("real.tsv")
    assert main(["analyze", "--corpus", str(CORPUS_PATH), "-o", str(link)]) == 0
    capsys.readouterr()
    assert link.is_symlink() and os.readlink(link) == "real.tsv"
    table = bn_text.count_frequencies(read_text(CORPUS_PATH))
    assert real.read_text(encoding="utf-8") == bn_text.format_frequency_tsv(table)
    assert real.stat().st_mode & 0o777 == 0o640
    assert sorted(tmp_path.iterdir()) == [link, real]


def test_write_text_atomic_through_a_dangling_symlink_creates_its_target(tmp_path):
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    target = elsewhere / "new.tsv"
    link = tmp_path / "link.tsv"
    link.symlink_to(target)
    cli.write_artifacts([(link, "নাম\n")])
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == "নাম\n".encode("utf-8")
    assert list(elsewhere.iterdir()) == [target]  # the temp file went there, and is gone
    assert sorted(tmp_path.iterdir()) == [elsewhere, link]


# one-, two-, three- and four-byte scalars, a BOM and a CRLF the read keeps
SIZED_TEXT = "\ufeffকখ\r\nxé😀 ।\n"


class _CountedReads(io.BytesIO):
    reads = 0

    def read(self, *args):
        self.reads += 1
        return super().read(*args)


def test_cli_corpus_size_is_the_bytes_read(tmp_path, monkeypatch):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_bytes(SIZED_TEXT.encode("utf-8"))
    b.write_bytes("গ\n".encode("utf-8"))
    one = CorpusStats.read([a])
    assert one.source_bytes == len(SIZED_TEXT.encode("utf-8"))
    assert one == CorpusStats.from_text(SIZED_TEXT)
    assert one.skipped == 7  # the BOM, the CRLF, x, é, 😀 and the last LF: nothing is dropped
    three = CorpusStats.read([a, b, a])  # a file given twice counts twice
    assert three.source_bytes == len((SIZED_TEXT + "গ\n" + SIZED_TEXT).encode("utf-8"))
    assert three == CorpusStats.from_text(SIZED_TEXT + "গ\n" + SIZED_TEXT)
    stdin = _CountedReads(SIZED_TEXT.encode("utf-8"))
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(stdin))
    assert CorpusStats.read([b, Path("-")]) == CorpusStats.from_text("গ\n" + SIZED_TEXT)
    assert stdin.reads == 1
    # an invalid byte is named by its source and the offset within it
    bad = tmp_path / "bad.txt"
    bad.write_bytes("ক".encode("utf-8") + b"\xff")
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(bad.read_bytes())))
    for source, name in ((bad, str(bad)), (Path("-"), "<stdin>")):
        with pytest.raises(CorpusDecodeError) as exc_info:
            CorpusStats.read([a, source])
        assert str(exc_info.value) == f"{name}: invalid UTF-8 at byte offset 3 (invalid start byte)"


def test_transcribe_trace_tsv(tmp_path):
    text_path = tmp_path / "text.txt"
    text_path.write_text("কখ ক\n", encoding="utf-8")
    out = tmp_path / "trace.tsv"
    assert main(["transcribe", "--layout", str(TOY_LAYOUT_PATH),
                 "--in", str(text_path), "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == (
        "press_index\tkey\ttext_position\n"
        "0\t2\t0\n"
        "1\t2\t1\n"
        "2\t2\t1\n"
        "3\t0\t2\n"
        "4\t2\t3\n"
    )


def test_transcribe_untypable_unit(tmp_path, capsys):
    text_path = tmp_path / "text.txt"
    text_path.write_text("কহ", encoding="utf-8")  # ha not in toy layout
    out = tmp_path / "trace.tsv"
    assert main(["transcribe", "--layout", str(TOY_LAYOUT_PATH),
                 "--in", str(text_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("E_UNTYPABLE\tunit BENGALI LETTER HA at text position 1 "
                                       "is not in the layout\n")
    assert not out.exists()  # atomic: nothing partial left behind
    assert not list(out.parent.glob(".trace.tsv.*"))

    assert main(["transcribe", "--layout", str(TOY_LAYOUT_PATH),
                 "--in", str(text_path), "--out", str(out), "--skip-untypable"]) == 0
    assert out.exists()


# The fixture's trace and evaluation artifacts, under build-layout's default
# (serpentine) layout of the fixture and under the toy layout, which lacks
# most units
@pytest.mark.parametrize("layout_name, args, digest, err", [
    ("serpentine", ["transcribe", "--in", str(CORPUS_PATH), "--out"],
     "338671469318b25949509fabf4dc30f78e2c26d07cf74ddafb18b0e5491a0e6b",
     "skipped 1439 non-typable scalars, 0 units not in the layout\n"),
    ("toy", ["transcribe", "--in", str(CORPUS_PATH), "--skip-untypable", "--out"],
     "3fac938920cab8ef7f2b53610023381230e44ff46c6e604b84d089eb2d7e0fa5",
     "skipped 1439 non-typable scalars, 43050 units not in the layout\n"),
    ("serpentine", ["evaluate", "--corpus", str(CORPUS_PATH), "-o"],
     "1bd28b215247409f0cbeb0f5e09ed9f15b6011082799cc158e7d9527616a3c07", ""),
    ("serpentine", ["evaluate", "--corpus", str(CORPUS_PATH), "--format", "json", "-o"],
     "6e8cf49b2427963811b578e7201e41b1ed09291763ce4dbd9734a238eefad31e", ""),
    ("toy", ["evaluate", "--corpus", str(CORPUS_PATH), "--skip-untypable", "-o"],
     "abb37c4008d99390a0a9db5e1d6b5b39f7930db94000eff7026a7eb5cd056572", ""),
    ("toy", ["evaluate", "--corpus", str(CORPUS_PATH), "--skip-untypable",
             "--format", "json", "-o"],
     "736c10c937b420ff76132164e97d25aac68025794bd1c459a5d8577604df59f5", ""),
])
def test_fixture_trace_and_evaluation_are_pinned(tmp_path, capsys, layout_name, args, digest,
                                                 err):
    layout = TOY_LAYOUT_PATH
    if layout_name == "serpentine":
        layout = tmp_path / "serpentine.tsv"
        assert main(["build-layout", "--corpus", str(CORPUS_PATH), "-o", str(layout)]) == 0
        capsys.readouterr()
    out = tmp_path / "out"
    assert main([args[0], "--layout", str(layout), *args[1:], str(out)]) == 0
    assert capsys.readouterr().err == err
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("token", ["U+0_995", "U+ 995", "U+\uff10\uff19\uff19\uff15"])
def test_layout_token_that_is_not_ascii_hex_is_a_syntax_error(tmp_path, capsys, token):
    bad = tmp_path / "bad_layout.tsv"
    bad.write_text(f"keypad-layout v1\n2\t{token}\n", encoding="utf-8")
    assert main(["evaluate", "--layout", str(bad), "--corpus", str(CORPUS_PATH)]) == 1
    assert capsys.readouterr().err == f"E_LAYOUT_SYNTAX\tline 2: malformed unit token {token!r}\n"


def test_layout_syntax_error_code(tmp_path, capsys):
    bad = tmp_path / "bad_layout.tsv"
    bad.write_text("keypad-layout v1\nzz\tU+0995\n", encoding="utf-8")
    assert main(["evaluate", "--layout", str(bad), "--corpus", str(CORPUS_PATH)]) == 1
    assert capsys.readouterr().err.startswith("E_LAYOUT_SYNTAX\t")


@pytest.mark.parametrize("command", ["evaluate", "compare", "transcribe"])
@pytest.mark.parametrize("document, line_no", [
    (b"keypad-layout v1\nname\t\xff\n", 2),
    (b"keypad-layout v1\r\nname\tx\r\n\r\n2\tU+0995,\xe0\xa6\n", 4),
    (b"keypad-layout v1\rname\t\xc0\x80\r", 2),
], ids=["lf", "crlf-truncated", "cr-overlong"])
def test_layout_that_is_not_utf8_is_a_syntax_error(tmp_path, capsys, command, document,
                                                   line_no):
    bad = tmp_path / "bad_layout.tsv"
    bad.write_bytes(document)
    text_path = tmp_path / "text.txt"
    text_path.write_text("কখ\n", encoding="utf-8")
    argv = {"evaluate": ["--layout", str(bad), "--corpus", str(CORPUS_PATH)],
            "compare": ["--layouts", str(bad), str(TOY_LAYOUT_PATH), "--corpus", str(CORPUS_PATH)],
            "transcribe": ["--layout", str(bad), "--in", str(text_path),
                           "--out", str(tmp_path / "trace.tsv")]}[command]
    assert main([command, *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"E_LAYOUT_SYNTAX\tline {line_no}: invalid UTF-8 at byte offset ")
    assert err.count("\n") == 1


def test_model_that_is_not_utf8_is_a_syntax_error(tmp_path, capsys):
    bad = tmp_path / "model.tsv"
    lines = format_model_tsv(default_model()).encode("utf-8").splitlines(keepends=True)
    lines[3] = b"\xff" + lines[3]
    bad.write_bytes(b"".join(lines))
    assert main(["evaluate", "--layout", str(TOY_LAYOUT_PATH), "--corpus", str(CORPUS_PATH),
                 "--ergonomics", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("E_MODEL_SYNTAX\tline 4: invalid UTF-8 at byte offset ")
    assert err.count("\n") == 1


# (line number, the row put there) -> the whole error line; line 2 holds key 1,
# line 14 is one past the last of the 12 key rows
@pytest.mark.parametrize("line_no, row, message", [
    (2, "q\t120\tforward\tflexion", "unknown key 'q'"),
    (3, "2\t0\tforward\tflexion", "ij_angle must be in (0, 180], got 0.0"),
    (3, "2\t181\tforward\tflexion", "ij_angle must be in (0, 180], got 181.0"),
    (4, "3\t80\tlateral\tflexion", "lateral MJ movement and extension must coincide"),
    (3, "2\t110\tforward\textension", "lateral MJ movement and extension must coincide"),
    (14, "1\t120\tforward\tflexion", "duplicate key '1'"),
    (2, "q\t0\tforward\tflexion", "unknown key 'q'"),
], ids=["unknown-key", "angle-0", "angle-181", "lateral-flexion", "forward-extension",
        "duplicate-key", "unknown-key-and-bad-angle"])
def test_model_file_errors_name_the_line(tmp_path, capsys, line_no, row, message):
    lines = format_model_tsv(default_model()).splitlines()
    lines[line_no - 1:line_no] = [row]
    model = tmp_path / "model.tsv"
    model.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "report.tsv"
    assert main(["evaluate", "--layout", str(TOY_LAYOUT_PATH), "--corpus", str(CORPUS_PATH),
                 "--ergonomics", str(model), "-o", str(out)]) == 1
    assert capsys.readouterr().err == f"E_MODEL_SYNTAX\tline {line_no}: {message}\n"
    assert not out.exists()


def test_crlf_layout_and_model_files_parse_the_same(tmp_path):
    layout_text = TOY_LAYOUT_PATH.read_text(encoding="utf-8")
    model_text = format_model_tsv(default_model())
    crlf_layout = tmp_path / "layout.tsv"
    crlf_layout.write_bytes(layout_text.replace("\n", "\r\n").encode("utf-8"))
    crlf_model = tmp_path / "model.tsv"
    crlf_model.write_bytes(model_text.replace("\n", "\r\n").encode("utf-8"))
    assert load_layout(crlf_layout) == parse(layout_text)
    assert load_model(crlf_model) == parse_model_tsv(model_text)


# Each document format: its loader, its error, its header, a row it refuses
# and a hash key row it refuses
DOCUMENT_FORMATS = {
    "layout": (load_layout, LayoutSyntaxError, b"keypad-layout v1", b"q\tU+0995", b"#\tU+zz"),
    "model": (load_model, ModelSyntaxError, b"key\tij_angle_deg\tmj_direction\tmovement",
              b"q\t100\tforward\tflexion", b"#\tx\tlateral\textension"),
}


# (the document from its header, bad row and bad hash key row; the line of the error)
@pytest.mark.parametrize("document, line_no", [
    (lambda header, bad, hash_row: b"", 1),
    (lambda header, bad, hash_row: bad + b"\n", 1),
    (lambda header, bad, hash_row: header + b" v0\n" + bad + b"\n", 1),
    (lambda header, bad, hash_row: header + b"\r\n\r\n" + bad + b"\r\n", 3),
    (lambda header, bad, hash_row: header + b"\n\n \t\n" + bad + b"\n", 4),
    (lambda header, bad, hash_row: header + b"\n# a comment\n#\n" + bad + b"\n", 4),
    (lambda header, bad, hash_row: header + b"\n" + hash_row + b"\n" + bad + b"\n", 2),
    (lambda header, bad, hash_row: header + "\n#\u2028".encode() + bad + b"\n", 3),
    (lambda header, bad, hash_row: header + b"\n# \xe0\xa6\n" + bad + b"\n", 2),
    (lambda header, bad, hash_row: header + "\n#\u2028".encode() + b"\xff\n", 3),
    (lambda header, bad, hash_row: b"\xef\xbb\xbf" + header + b"\n" + bad + b"\n", 2),
], ids=["empty", "no-header", "wrong-header", "crlf", "blank-lines", "comment",
        "hash-key-row", "unicode-line-break", "invalid-utf8", "invalid-utf8-after-break",
        "byte-order-mark"])
@pytest.mark.parametrize("fmt", DOCUMENT_FORMATS)
def test_layout_and_model_files_share_one_document_syntax(tmp_path, fmt, document, line_no):
    load, error, header, bad, hash_row = DOCUMENT_FORMATS[fmt]
    path = tmp_path / "document.tsv"
    path.write_bytes(document(header, bad, hash_row))
    with pytest.raises(error) as e:
        load(path)
    assert e.value.line_no == line_no
    assert str(e.value).startswith(f"line {line_no}: ")


@pytest.mark.parametrize("bom_file", ["layout", "model"])
def test_a_byte_order_mark_before_a_layout_or_model_file_is_ignored(tmp_path, capsys, bom_file):
    files = {"layout": tmp_path / "layout.tsv", "model": tmp_path / "model.tsv"}
    assert main(["build-layout", "--corpus", str(CORPUS_PATH), "-o", str(files["layout"])]) == 0
    files["model"].write_text(format_model_tsv(default_model()), encoding="utf-8")
    evaluate_args = ["evaluate", "--layout", str(files["layout"]), "--corpus", str(CORPUS_PATH),
                     "--ergonomics", str(files["model"])]
    assert main(evaluate_args) == 0
    expected = capsys.readouterr()
    files[bom_file].write_bytes(b"\xef\xbb\xbf" + files[bom_file].read_bytes())
    assert main(evaluate_args) == 0
    assert capsys.readouterr() == expected


def test_json_reports_are_the_evaluation_report_record(tmp_path, capsys):
    fields = set(EvaluationReport._fields)
    layout = tmp_path / "layout.tsv"
    assert main(["build-layout", "--corpus", str(CORPUS_PATH), "-o", str(layout)]) == 0
    corpus = ["--corpus", str(CORPUS_PATH), "--format", "json", "--skip-untypable"]
    assert main(["evaluate", "--layout", str(layout), *corpus]) == 0
    assert set(json.loads(capsys.readouterr().out)) == fields
    assert main(["compare", "--layouts", str(layout), str(TOY_LAYOUT_PATH), *corpus]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [set(row) for row in rows] == [fields | {"layout"}] * 2


def test_determinism_byte_identical_outputs(tmp_path):
    out1 = tmp_path / "freq1.tsv"
    out2 = tmp_path / "freq2.tsv"
    main(["analyze", "--corpus", str(CORPUS_PATH), "-o", str(out1)])
    main(["analyze", "--corpus", str(CORPUS_PATH), "-o", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def _src_env(**extra) -> dict:
    """The environment of a fresh interpreter that imports this checkout's package."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, **extra,
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_artifacts_do_not_depend_on_the_hash_seed(tmp_path):
    # a unit hashes by its identity, which differs between processes, and a
    # str by the hash seed: no artifact and no report may follow either
    runs = []
    for seed in ("0", "1"):
        out = tmp_path / f"seed{seed}"
        corpus = ["--corpus", str(CORPUS_PATH)]
        optimize = ["optimize", *corpus, "--jam-weight", "0.5"]
        reports = []
        for args in (["analyze", *corpus, "-o", str(out / "freq.tsv")],
                     ["build-layout", *corpus, "-o", str(out / "layout.tsv")],
                     ["reproduce-paper", *corpus, "--out-dir", str(out)],
                     [*optimize, "--method", "local", "-o", str(out / "opt.tsv")],
                     [*optimize, "--method", "exhaustive", "--max-units", "6",
                      "-o", str(out / "exhaustive.tsv")]):
            done = subprocess.run([sys.executable, "-m", "bnkeypad.cli", *args],
                                  env=_src_env(PYTHONHASHSEED=seed), check=True,
                                  capture_output=True)
            reports.append(done.stderr)
        runs.append(({p.name: p.read_bytes() for p in sorted(out.iterdir())}, reports))
    assert sorted(runs[0][0]) == ["baseline_layout.tsv", "exhaustive.tsv", "freq.tsv",
                                  "layout.tsv", "opt.tsv", "proposed_layout.tsv",
                                  "report.tsv"]
    assert runs[0][1][0].startswith(b"analyzed ") and runs[0][1][3].startswith(b"method=local")
    assert runs[0] == runs[1]


def test_commands_that_do_not_optimize_never_load_the_optimizer(tmp_path):
    code = textwrap.dedent(f"""
        import sys
        import bnkeypad.cli
        corpus = ["--corpus", {str(CORPUS_PATH)!r}]
        layout = {str(tmp_path / "layout.tsv")!r}
        for args in (["analyze", *corpus, "-o", {str(tmp_path / "f.tsv")!r}],
                     ["build-layout", *corpus, "-o", layout],
                     ["evaluate", "--layout", layout, *corpus, "-o", {str(tmp_path / "e.tsv")!r}],
                     ["compare", "--layouts", layout, layout, *corpus,
                      "-o", {str(tmp_path / "c.tsv")!r}],
                     ["transcribe", "--layout", layout, "--in", {str(CORPUS_PATH)!r},
                      "--out", {str(tmp_path / "t.tsv")!r}],
                     ["reproduce-paper", *corpus, "--out-dir", {str(tmp_path / "paper")!r}]):
            assert bnkeypad.cli.main(args) == 0, args
        assert "bnkeypad.optimize" not in sys.modules
        from bnkeypad import problem_from_stats, solve_exhaustive
        import bnkeypad.optimize
        assert solve_exhaustive is bnkeypad.optimize.solve_exhaustive
        assert problem_from_stats is bnkeypad.optimize.problem_from_stats
        assert bnkeypad.Objective is bnkeypad.optimize.Objective
    """)
    subprocess.run([sys.executable, "-c", code], env=_src_env(), check=True)


def test_no_command_loads_dataclasses_or_inspect(tmp_path):
    # they cost every command's start-up about 14 ms, and the records need neither
    code = textwrap.dedent(f"""
        import sys
        import bnkeypad.cli
        corpus = ["--corpus", {str(CORPUS_PATH)!r}]
        layout = {str(tmp_path / "layout.tsv")!r}
        out = {str(tmp_path)!r} + "/"
        for args in (["analyze", *corpus, "-o", out + "f.tsv"],
                     ["build-layout", *corpus, "-o", layout],
                     ["evaluate", "--layout", layout, *corpus, "-o", out + "e.tsv"],
                     ["compare", "--layouts", layout, layout, *corpus, "-o", out + "c.tsv"],
                     ["transcribe", "--layout", layout, "--in", {str(CORPUS_PATH)!r},
                      "--out", out + "t.tsv"],
                     ["reproduce-paper", *corpus, "--out-dir", out + "paper"],
                     ["optimize", *corpus, "-o", out + "g.tsv"],
                     ["optimize", *corpus, "--method", "local", "--jam-weight", "0.5",
                      "-o", out + "l.tsv"],
                     ["optimize", *corpus, "--method", "exhaustive", "--max-units", "6",
                      "-o", out + "x.tsv"]):
            assert bnkeypad.cli.main(args) == 0, args
        import bnkeypad.optimize
        loaded = {{"dataclasses", "inspect"}} & set(sys.modules)
        assert not loaded, loaded
    """)
    subprocess.run([sys.executable, "-c", code], env=_src_env(), check=True)


def test_a_star_import_binds_every_public_name_and_a_plain_import_no_optimizer():
    code = textwrap.dedent("""
        import sys
        import bnkeypad
        assert "bnkeypad.optimize" not in sys.modules
        names = {}
        exec("from bnkeypad import *", names)
        import bnkeypad.optimize
        assert names["solve_exhaustive"] is bnkeypad.optimize.solve_exhaustive
        assert names["problem_from_stats"] is bnkeypad.optimize.problem_from_stats
        assert "problem_from_stats" in bnkeypad.__all__
        assert names["CorpusStats"] is bnkeypad.CorpusStats
        public = {n for n, v in vars(bnkeypad).items()
                  if not n.startswith("_") and type(v) is not type(sys)}
        assert set(names) - {"__builtins__"} == public | bnkeypad._OPTIMIZE_NAMES
        assert len(bnkeypad.__all__) == len(set(bnkeypad.__all__))
    """)
    subprocess.run([sys.executable, "-c", code], env=_src_env(), check=True)


def test_the_readme_library_list_is_the_public_surface():
    # each entry gives the command or the open ROADMAP item that keeps the name,
    # so the surface grows only with a reason written down
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    library = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    assert re.findall(r"^- `(\w+)`: \S", library, flags=re.MULTILINE) == bnkeypad.__all__


def test_stdout_artifacts_are_the_utf8_of_the_file_whatever_the_stream_encoding(tmp_path):
    env = _src_env(PYTHONIOENCODING="ascii")
    layout = tmp_path / "named.tsv"
    for args, out in ((["build-layout", "--corpus", str(CORPUS_PATH), "--name", "নাম"], layout),
                      (["compare", "--layouts", str(layout), str(TOY_LAYOUT_PATH),
                        "--corpus", str(CORPUS_PATH), "--skip-untypable"],
                       tmp_path / "compare.tsv")):
        done = [subprocess.run([sys.executable, "-m", "bnkeypad.cli", *args, *to_file],
                               env=env, capture_output=True)
                for to_file in (["-o", str(out)], [])]
        assert [(d.returncode, d.stderr) for d in done] == [(0, b""), (0, b"")]
        assert done[1].stdout == out.read_bytes()
    assert "নাম\t" in out.read_text(encoding="utf-8")


@pytest.mark.parametrize("text, flags", [
    ("", []),
    ("১২৩\n৪৫\n\n", []),
    ("১২৩\n৪৫\n\n", ["--skip-untypable"]),
    ("খগ", ["--skip-untypable"]),  # every unit is off the ka-only layout
])
@pytest.mark.parametrize("command", ["evaluate", "compare"])
def test_nothing_to_evaluate_is_one_error_line_and_no_artifact(tmp_path, capsys, command,
                                                               text, flags):
    only_ka = tmp_path / "ka.tsv"
    only_ka.write_text("keypad-layout v1\n2\tU+0995\n", encoding="utf-8")
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(text, encoding="utf-8")
    out = tmp_path / "report.tsv"
    layouts = (["--layout", str(only_ka)] if command == "evaluate"
               else ["--layouts", str(TOY_LAYOUT_PATH), str(only_ka)])
    assert main([command, *layouts, "--corpus", str(corpus), *flags, "-o", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("E_EMPTY_CORPUS\t")
    assert not out.exists()


@pytest.mark.parametrize("command, text, flags", [
    ("analyze", "", []),
    ("analyze", "১২\n", []),
    ("transcribe", "", []),
    ("transcribe", "১২\n", []),
    ("transcribe", "১২\n", ["--skip-untypable"]),
    ("transcribe", "গ", ["--skip-untypable"]),  # ga is off the toy layout
])
def test_nothing_to_analyze_or_transcribe_is_one_error_line_and_no_artifact(
        tmp_path, capsys, command, text, flags):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(text, encoding="utf-8")
    out = tmp_path / "artifact.tsv"
    args = {"analyze": ["--corpus", str(corpus), "-o", str(out)],
            "transcribe": ["--layout", str(TOY_LAYOUT_PATH), "--in", str(corpus),
                           "--out", str(out)]}[command]
    assert main([command, *args, *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("E_EMPTY_CORPUS\t")
    assert not out.exists()


def test_config_file_defaults_and_flag_precedence(tmp_path, capsys):
    layout_path = tmp_path / "layout.tsv"
    main(["build-layout", "--corpus", str(CORPUS_PATH), "-o", str(layout_path)])

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"extension_penalty": 0.0}), encoding="utf-8")

    def run(args):
        assert main(args) == 0
        return capsys.readouterr().out

    flagged = run(["evaluate", "--layout", str(layout_path), "--corpus",
                   str(CORPUS_PATH), "--extension-penalty", "0"])
    configured = run(["evaluate", "--layout", str(layout_path), "--corpus",
                      str(CORPUS_PATH), "--config", str(cfg)])
    default = run(["evaluate", "--layout", str(layout_path), "--corpus",
                   str(CORPUS_PATH)])
    overridden = run(["evaluate", "--layout", str(layout_path), "--corpus",
                      str(CORPUS_PATH), "--config", str(cfg),
                      "--extension-penalty", "1"])
    assert configured == flagged
    assert configured != default
    assert overridden == default


def test_config_unknown_key_rejected(tmp_path, mini_corpus, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"extension_penalti": 1}), encoding="utf-8")
    assert main(["analyze", "--corpus", str(mini_corpus), "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("E_USAGE\t")


def test_custom_ergonomics_file_changes_costs(tmp_path, capsys):
    layout_path = tmp_path / "layout.tsv"
    main(["build-layout", "--corpus", str(CORPUS_PATH), "-o", str(layout_path)])
    model_path = tmp_path / "model.tsv"
    model_path.write_text(format_model_tsv(default_model()), encoding="utf-8")

    def cost_line(args):
        assert main(args) == 0
        out = capsys.readouterr().out
        return [l for l in out.splitlines() if l.startswith("expected_cost")][0]

    base = cost_line(["evaluate", "--layout", str(layout_path),
                      "--corpus", str(CORPUS_PATH)])
    same = cost_line(["evaluate", "--layout", str(layout_path),
                      "--corpus", str(CORPUS_PATH), "--ergonomics", str(model_path)])
    assert base == same
    heavier = cost_line(["evaluate", "--layout", str(layout_path),
                         "--corpus", str(CORPUS_PATH), "--extension-penalty", "2"])
    assert heavier != base


def test_optimize_methods(tmp_path, capsys):
    out = tmp_path / "opt.tsv"
    assert main(["optimize", "--corpus", str(CORPUS_PATH), "--max-units", "6",
                 "--method", "greedy", "-o", str(out)]) == 0
    err = capsys.readouterr().err
    assert "objective value=" in err
    solved = load_layout(out)
    assert len(solved.units()) == 6

    assert main(["optimize", "--corpus", str(CORPUS_PATH), "--max-units", "6",
                 "--method", "exhaustive", "-o", str(out)]) == 0
    capsys.readouterr()
    assert main(["optimize", "--corpus", str(CORPUS_PATH), "--max-units", "6",
                 "--method", "local", "--jam-weight", "0.5", "-o", str(out)]) == 0
    err = capsys.readouterr().err
    assert "greedy start value=" in err


@pytest.mark.parametrize("method", ["greedy", "local", "exhaustive"])
def test_optimize_places_units_on_a_key_that_costs_nothing(tmp_path, capsys, method):
    # key 2 at 180 degrees costs 0: its slots are priced at 0, not refused
    lines = format_model_tsv(default_model()).splitlines()
    lines[2] = "2\t180\tforward\tflexion"
    model = tmp_path / "model.tsv"
    model.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "opt.tsv"
    assert main(["optimize", "--corpus", str(CORPUS_PATH), "--max-units", "6",
                 "--method", method, "--ergonomics", str(model), "-o", str(out)]) == 0
    assert capsys.readouterr().err.endswith("\n")
    assert load_layout(out).slots["2"]


def test_optimize_guard(tmp_path, capsys):
    out = tmp_path / "opt.tsv"
    assert main(["optimize", "--corpus", str(CORPUS_PATH), "--max-units", "20",
                 "--method", "exhaustive", "-o", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("E_TOO_LARGE\t")
    assert not out.exists()


OVERFLOW_LINE = ("E_USAGE\tcost parameters too large: key 1 costs inf, so a corpus "
                 "typed at 72 taps a unit could cost more than the largest float")


# A command writes its report lines only after its artifact, so a run that
# fails while solving or writing prints the error line alone
@pytest.mark.parametrize("argv, code", [
    (["optimize", "--corpus", str(CORPUS_PATH), "--slots-per-key", "2", "-o", "{out}"],
     "E_CAPACITY"),
    (["optimize", "--corpus", str(CORPUS_PATH), "-o", "{afile}/out.tsv"],
     "E_IO\t[Errno 20] Not a directory: '{afile}/out.tsv'"),
    (["analyze", "--corpus", str(CORPUS_PATH), "-o", "{afile}/out.tsv"],
     "E_IO\t[Errno 20] Not a directory: '{afile}/out.tsv'"),
    (["transcribe", "--layout", str(TOY_LAYOUT_PATH), "--in", str(CORPUS_PATH),
      "--skip-untypable", "--out", "{afile}/out.tsv"],
     "E_IO\t[Errno 20] Not a directory: '{afile}/out.tsv'"),
    (["reproduce-paper", "--corpus", str(CORPUS_PATH), "--out-dir", "{afile}"],
     "E_IO\t[Errno 20] Not a directory: '{afile}/proposed_layout.tsv'"),
    (["analyze", "--corpus", str(CORPUS_PATH), "-o", "{adir}"],
     "E_IO\t[Errno 21] Is a directory: '{adir}'"),
    # the third artifact fails, so the first two are never put in place
    (["reproduce-paper", "--corpus", str(CORPUS_PATH), "--out-dir", "{adir}"],
     "E_IO\t[Errno 21] Is a directory: '{adir}/report.tsv'"),
    # the overflow rule holds on commands that build no model
    (["analyze", "--corpus", str(CORPUS_PATH), "--config", "{big}", "-o", "{out}"],
     OVERFLOW_LINE),
    (["transcribe", "--layout", str(TOY_LAYOUT_PATH), "--in", str(CORPUS_PATH),
      "--skip-untypable", "--config", "{big}", "--out", "{out}"],
     OVERFLOW_LINE),
], ids=["optimize-capacity", "optimize-io", "analyze-io", "transcribe-io", "reproduce-paper-io",
        "analyze-dir-io", "reproduce-paper-report-dir-io", "analyze-overflow",
        "transcribe-overflow"])
def test_failed_run_prints_one_error_line(tmp_path, capsys, argv, code):
    afile = tmp_path / "afile"
    afile.write_text("a regular file\n", encoding="utf-8")
    adir = tmp_path / "adir"
    (adir / "report.tsv").mkdir(parents=True)
    big = tmp_path / "big.json"
    big.write_text('{"angle_weight": 1e308}', encoding="utf-8")
    paths = {"out": tmp_path / "out.tsv", "afile": afile, "adir": adir, "big": big}
    status = 2 if code.startswith("E_USAGE") else 1
    errs = []
    for _ in range(2):
        assert main([arg.format(**paths) for arg in argv]) == status
        errs.append(capsys.readouterr().err)
    # the line names no temp file, so it reads the same on every run
    assert errs[0] == errs[1]
    err = errs[0].splitlines()
    assert len(err) == 1 and re.match(r"E_[A-Z_]+\t", err[0])
    if "\t" in code:
        assert err[0] == code.format(**paths)
    else:
        assert err[0].startswith(code + "\t")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["adir", "afile", "big.json"]
    assert [p.name for p in adir.iterdir()] == ["report.tsv"]
    assert afile.read_text(encoding="utf-8") == "a regular file\n"


@pytest.mark.parametrize("failure", ["report-dir", "disk-full"])
def test_failed_run_keeps_the_previous_artifacts(tmp_path, monkeypatch, capsys, failure):
    part = tmp_path / "part.txt"
    part.write_text("".join(read_text(CORPUS_PATH).splitlines(keepends=True)[:700]),
                    encoding="utf-8")
    out = tmp_path / "paper"
    assert main(["reproduce-paper", "--corpus", str(part), "--out-dir", str(out)]) == 0
    if failure == "report-dir":
        (out / "report.tsv").unlink()
        (out / "report.tsv").mkdir()
        (out / "report.tsv" / "kept.txt").write_bytes(b"kept\n")
        line = f"E_IO\t[Errno 21] Is a directory: '{out}/report.tsv'"
    else:
        real_open = os.open

        def disk_full(path, *args):  # the third artifact's temp file
            if os.path.basename(path).startswith(".report.tsv."):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return real_open(path, *args)

        monkeypatch.setattr(os, "open", disk_full)
        line = f"E_IO\t[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
    before = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
    listing = sorted(p.name for p in out.iterdir())
    capsys.readouterr()
    # the full corpus would write other layouts and another report
    assert main(["reproduce-paper", "--corpus", str(CORPUS_PATH), "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == line + "\n"
    assert sorted(p.name for p in out.iterdir()) == listing
    assert {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()} == before
    assert len(before) == {"report-dir": 2, "disk-full": 3}[failure]


@pytest.mark.parametrize("argv", [
    ["analyze", "--corpus", str(CORPUS_PATH)],
    ["build-layout", "--corpus", str(CORPUS_PATH), "--name", "নাম"],
    ["evaluate", "--layout", str(TOY_LAYOUT_PATH), "--corpus", str(CORPUS_PATH),
     "--skip-untypable", "--format", "json"],
    ["compare", "--layouts", str(TOY_LAYOUT_PATH), str(TOY_LAYOUT_PATH),
     "--corpus", str(CORPUS_PATH), "--skip-untypable"],
    ["optimize", "--corpus", str(CORPUS_PATH), "--max-units", "6"],
    ["transcribe", "--layout", str(TOY_LAYOUT_PATH), "--in", str(CORPUS_PATH),
     "--skip-untypable"],
], ids=lambda argv: argv[0])
def test_dash_output_writes_the_file_bytes_to_stdout(tmp_path, monkeypatch, capsysbinary, argv):
    monkeypatch.chdir(tmp_path)
    flag = "--out" if argv[0] == "transcribe" else "-o"
    assert main([*argv, flag, "out.tsv"]) == 0
    to_file = capsysbinary.readouterr()
    assert main([*argv, flag, "-"]) == 0
    to_stdout = capsysbinary.readouterr()
    assert to_stdout.out == (tmp_path / "out.tsv").read_bytes() and to_file.out == b""
    assert to_stdout.err == to_file.err
    assert list(tmp_path.iterdir()) == [tmp_path / "out.tsv"]  # no file named '-'


def test_out_dir_dash_is_a_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["reproduce-paper", "--corpus", str(CORPUS_PATH), "--out-dir", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("E_USAGE\t--out-dir must name a directory, "
                            "not standard output ('-')\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("method", ["greedy", "local", "exhaustive"])
def test_optimize_rejects_corpus_without_consonants(tmp_path, capsys, method):
    corpus = tmp_path / "latin.txt"
    corpus.write_text("abc\n", encoding="utf-8")
    out = tmp_path / "opt.tsv"
    assert main(["optimize", "--corpus", str(corpus), "--method", method,
                 "-o", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("E_INCOMPLETE_ALPHABET\t")
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--jam-weight", "nan"], ["--jam-weight", "inf"], ["--jam-weight", "-1"],
    ["--extension-penalty", "nan"], ["--angle-weight", "nan"], ["--angle-weight", "0"],
    ["--max-units", "0"], ["--max-units", "-1"],
    ["--max-iters", "-1", "--method", "local"],
    ["--slots-per-key", "0"], ["--slots-per-key", "-2"],
    # a key holds at most the 72 typable units; more slots only cost time
    ["--slots-per-key", "73"], ["--slots-per-key", "9" * 401],
])
def test_optimize_rejects_bad_parameters(tmp_path, capsys, flags):
    out = tmp_path / "opt.tsv"
    assert main(["optimize", "--corpus", str(CORPUS_PATH), *flags, "-o", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("E_USAGE\t")
    assert not out.exists()


def test_slots_per_key_at_the_unit_inventory_still_runs(tmp_path, capsys):
    out = tmp_path / "opt.tsv"
    assert main(["optimize", "--corpus", str(CORPUS_PATH), "--slots-per-key", "72",
                 "-o", str(out)]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "method=greedy units=35 slots=504 jam_weight=0",
        "objective value=1.2015238095238094"]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "c46b953c20bc729b68e1a1f03c350ede5dfad9cc0bfb2d8951a22b4283fefe45")


@pytest.mark.parametrize("config", [
    {"max_units": 0}, {"max_units": "x"}, {"max_units": 2.5}, {"slots_per_key": 0},
    {"jam_weight": "abc"}, {"jam_weight": True}, {"max_iters": None}, {"max_iters": -1},
    {"strategy": "zigzag"}, {"method": "bogus"}, {"report_format": "xml"},
    {"override_guard": "yes"}, {"ergonomics": 3}, {"slots_per_key": 73},
])
def test_config_limits_are_checked_like_flags(tmp_path, capsys, config):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "opt.tsv"
    assert main(["optimize", "--corpus", str(CORPUS_PATH), "--config", str(path),
                 "-o", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("E_USAGE\t")
    assert not out.exists()


def _command_args(out: Path) -> dict:
    """Valid inputs for every command, writing to ``out``."""
    corpus = ["--corpus", str(CORPUS_PATH)]
    return {"analyze": [*corpus, "-o", str(out)],
            "build-layout": [*corpus, "-o", str(out)],
            "evaluate": ["--layout", str(TOY_LAYOUT_PATH), *corpus, "-o", str(out)],
            "compare": ["--layouts", str(TOY_LAYOUT_PATH), *corpus, "-o", str(out)],
            "transcribe": ["--layout", str(TOY_LAYOUT_PATH), "--in", str(CORPUS_PATH),
                           "--out", str(out)],
            "optimize": [*corpus, "-o", str(out)],
            "reproduce-paper": [*corpus, "--out-dir", str(out)]}


# every number --config takes, with JSON values it must refuse: NaN, the
# infinities, a negative, 0 where 0 is refused, and a switch's true
BAD_NUMBERS = [(name, value) for name, zero in [
    ("extension_penalty", False), ("angle_weight", True), ("jam_weight", False),
    ("max_units", True), ("slots_per_key", True), ("max_iters", False),
] for value in ["NaN", "Infinity", "-Infinity", "-1", "true"] + ["0"] * zero]


@pytest.mark.parametrize("name, value", BAD_NUMBERS)
def test_a_bad_config_number_is_the_same_usage_line_on_every_command(tmp_path, capsys,
                                                                     name, value):
    config = tmp_path / "c.json"
    config.write_text(f'{{"{name}": {value}}}', encoding="utf-8")
    commands = _command_args(tmp_path / "out")
    assert set(commands) == set(cli._COMMANDS)
    lines = set()
    for command, args in commands.items():
        assert main([command, *args, "--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines(keepends=True)
        assert len(err) == 1 and err[0].startswith("E_USAGE\t")
        lines.add(err[0])
    assert len(lines) == 1
    assert list(tmp_path.iterdir()) == [config]


# the lines optimize and evaluate print for these values, now on every command
@pytest.mark.parametrize("command, config, line", [
    ("analyze", '{"jam_weight": NaN}', "jam_weight must be finite and >= 0, got nan"),
    ("transcribe", '{"angle_weight": 0, "jam_weight": Infinity}',
     "angle_weight must be finite and > 0, got 0.0"),
    ("build-layout", '{"extension_penalty": -1, "slots_per_key": 73}',
     "--slots-per-key must be <= 72, got 73"),
    ("optimize", '{"extension_penalty": -Infinity}',
     "extension_penalty must be finite and >= 0, got -inf"),
])
def test_config_numbers_are_checked_on_commands_that_do_not_read_them(tmp_path, capsys,
                                                                      command, config, line):
    path = tmp_path / "c.json"
    path.write_text(config, encoding="utf-8")
    assert main([command, *_command_args(tmp_path / "out")[command], "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"E_USAGE\t{line}\n"


def test_config_integer_too_long_to_convert_is_a_usage_error(tmp_path, capsys):
    # json.loads refuses more than 4,300 digits with a plain ValueError; the
    # sign keeps the value a usage error where no such limit applies
    path = tmp_path / "c.json"
    path.write_text('{"max_units": -' + "9" * 4301 + "}", encoding="utf-8")
    out = tmp_path / "opt.tsv"
    assert main(["optimize", "--corpus", str(CORPUS_PATH), "--config", str(path),
                 "-o", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("E_USAGE\t")
    assert not out.exists()


def test_config_help_names_every_key_the_file_accepts():
    helps = {a.help for a in _subcommand_flags() if a.dest == "config"}
    assert helps == {"JSON object with defaults for the keys " + ", ".join(cli._OPTIONS)}
    assert len(cli._OPTIONS) == 12


@pytest.mark.parametrize("command, flag", [
    ("evaluate", "--layout"), ("compare", "--layouts"), ("transcribe", "--in"),
    ("transcribe", "--out"), ("analyze", "-o"), ("reproduce-paper", "--out-dir"),
    ("analyze", "--config"),
])
def test_empty_path_is_a_usage_error(tmp_path, monkeypatch, capsys, command, flag):
    monkeypatch.chdir(tmp_path)
    paths = {"--layout": str(TOY_LAYOUT_PATH), "--layouts": str(TOY_LAYOUT_PATH),
             "--corpus": str(CORPUS_PATH), "--in": str(CORPUS_PATH),
             "--out": "trace.tsv", "--out-dir": "paper"}
    wanted = {"evaluate": ["--layout", "--corpus"], "compare": ["--layouts", "--corpus"],
              "transcribe": ["--layout", "--in", "--out"], "analyze": ["--corpus"],
              "reproduce-paper": ["--corpus", "--out-dir"]}[command]
    args = [command]
    for name in wanted:
        args += [name, "" if name == flag else paths[name]]
    if flag not in wanted:
        args += [flag, ""]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("E_USAGE\t")
    assert list(tmp_path.iterdir()) == []


def test_config_values_convert_like_flag_text(tmp_path, capsys):
    cases = [  # (command and inputs, --config values, the same values as flags)
        (["optimize", "--corpus", str(CORPUS_PATH)],
         {"max_units": "6", "jam_weight": 1, "method": "local", "max_iters": 2},
         ["--max-units", "6", "--jam-weight", "1", "--method", "local", "--max-iters", "2"]),
        (["evaluate", "--layout", str(TOY_LAYOUT_PATH), "--corpus", str(CORPUS_PATH)],
         {"skip_untypable": True}, ["--skip-untypable"]),
        (["build-layout", "--corpus", str(CORPUS_PATH)],
         {"strategy": "sequential"}, ["--strategy", "sequential"]),
    ]
    for i, (args, values, flags) in enumerate(cases):
        path = tmp_path / f"c{i}.json"
        path.write_text(json.dumps(values), encoding="utf-8")
        configured = tmp_path / f"configured{i}.tsv"
        flagged = tmp_path / f"flagged{i}.tsv"
        assert main([*args, "--config", str(path), "-o", str(configured)]) == 0
        assert main([*args, *flags, "-o", str(flagged)]) == 0
        assert configured.read_bytes() == flagged.read_bytes()


def _subcommand_flags():
    """The argparse actions of every subcommand's flags, --help left out."""
    parser = cli._build_parser()
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return [a for p in sub.choices.values() for a in p._actions if a.dest != "help"]


def test_option_table_matches_run_config_and_flags():
    options = set(cli._OPTIONS)
    assert options <= set(cli.RunConfig._fields)
    actions = _subcommand_flags()
    # everything else a flag sets is an input, output or --name path, or --config
    paths = {"corpus", "layout", "layouts", "text_in", "output", "out_dir", "layout_name",
             "config"}
    assert {a.dest for a in actions} - paths == options
    for action in actions:
        check = cli._OPTIONS.get(action.dest)
        if isinstance(check, tuple):
            assert action.choices == check
        elif check in (float, int):
            assert action.type is check
        elif check is bool:
            assert action.default is None and action.nargs == 0
    for name in options:
        default = getattr(cli.RunConfig, name)
        if default is not None:
            assert cli._config_value("c.json", name, default) == default


def test_optimize_local_search_on_fixture_is_pinned(tmp_path, capsys):
    out = tmp_path / "opt.tsv"
    assert main(["optimize", "--corpus", str(CORPUS_PATH), "--method", "local",
                 "--jam-weight", "0.5", "-o", str(out)]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err[1:] == ["greedy start value=1.4447104247104248",
                       "objective value=1.3973680823680823"]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "fed72509461a282ca21a0a3a8b7f2b0be57e506d150b70de1e1016562fd3c38c")


@pytest.mark.parametrize("jam_weight, start, value, digest", [
    ("2", "1.6474131274131274", "1.4385302445302446",
     "030feefc5eed8f7917d022f663b7a67132fe2eaa5620ad16732ffb838cdbd818"),
    ("7", "2.3230888030888033", "1.4854834834834834",
     "9228c244df394d11eac9e2454c92e7f0d7e8bb3dbff5bacbcff3cd4e168bdeef"),
])
def test_optimize_local_search_on_fixture_is_pinned_at_higher_jam_weights(
        tmp_path, capsys, jam_weight, start, value, digest):
    out = tmp_path / "opt.tsv"
    assert main(["optimize", "--corpus", str(CORPUS_PATH), "--method", "local",
                 "--jam-weight", jam_weight, "-o", str(out)]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err[1:] == [f"greedy start value={start}", f"objective value={value}"]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_evaluate_rejects_non_finite_model_parameters(capsys):
    assert main(["evaluate", "--layout", str(TOY_LAYOUT_PATH), "--corpus", str(CORPUS_PATH),
                 "--extension-penalty", "nan"]) == 2
    assert capsys.readouterr().err.startswith("E_USAGE\t")


@pytest.mark.parametrize("angle_weight", ["1e305", "1e308"])
@pytest.mark.parametrize("command", ["build-layout", "evaluate", "compare", "optimize",
                                     "reproduce-paper"])
def test_model_whose_costs_can_overflow_is_a_usage_error(tmp_path, capsys, command,
                                                         angle_weight):
    # 1e308 makes a key cost inf; 1e305 keeps key costs finite, but the
    # fixture's count * taps * cost sum overflowed in evaluate
    corpus = ["--corpus", str(CORPUS_PATH)]
    layout = [str(TOY_LAYOUT_PATH), *corpus, "--skip-untypable"]
    args = {"build-layout": corpus,
            "evaluate": ["--layout", *layout],
            "compare": ["--layouts", *layout],
            "optimize": [*corpus, "--method", "local", "--jam-weight", "0.5"],
            "reproduce-paper": [*corpus, "--out-dir", str(tmp_path / "out")]}[command]
    assert main([command, *args, "--angle-weight", angle_weight]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("E_USAGE\tcost parameters too large: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["analyze", "transcribe"])
def test_commands_that_use_no_model_still_check_the_model_file(tmp_path, capsys, command):
    model = tmp_path / "model.tsv"
    model.write_text("not a model\n", encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"ergonomics": str(model)}), encoding="utf-8")
    out = tmp_path / "out.tsv"
    args = {"analyze": ["--corpus", str(CORPUS_PATH), "-o", str(out)],
            "transcribe": ["--layout", str(TOY_LAYOUT_PATH), "--in", str(CORPUS_PATH),
                           "--skip-untypable", "--out", str(out)]}[command]
    assert main([command, *args, "--config", str(config)]) == 1
    assert capsys.readouterr().err == ("E_MODEL_SYNTAX\tline 1: expected header "
                                       "'key\\tij_angle_deg\\tmj_direction\\tmovement'\n")
    assert not out.exists()


def test_large_cost_parameters_with_finite_sums_still_run(capsys):
    assert main(["evaluate", "--layout", str(TOY_LAYOUT_PATH), "--corpus", str(CORPUS_PATH),
                 "--skip-untypable", "--format", "json", "--angle-weight", "1e280"]) == 0
    assert json.loads(capsys.readouterr().out)["expected_cost"] > 1e279


def test_reproduce_paper_artifacts(tmp_path, capsys):
    out_dir = tmp_path / "run1"
    assert main(["reproduce-paper", "--corpus", str(CORPUS_PATH),
                 "--out-dir", str(out_dir)]) == 0
    report = (out_dir / "report.tsv").read_text(encoding="utf-8")
    assert "flexibility_ranking\t1>2>4>5>7>3>6>8>9" in report
    assert "symbol_key\t1" in report
    assert "vowel_key\t9" in report
    assert "space_key\t0" in report
    assert "link_key\t*" in report
    reduction = [l for l in report.splitlines() if l.startswith("jam_reduction_pct")][0]
    assert float(reduction.split("\t")[1]) > 0
    proposed = load_layout(out_dir / "proposed_layout.tsv")
    baseline = load_layout(out_dir / "baseline_layout.tsv")
    assert proposed.name == "serpentine"
    assert baseline.name == "sequential"


def test_reproduce_paper_reruns_byte_identical(tmp_path):
    dirs = [tmp_path / "r1", tmp_path / "r2"]
    for d in dirs:
        assert main(["reproduce-paper", "--corpus", str(CORPUS_PATH),
                     "--out-dir", str(d)]) == 0
    for name in ("report.tsv", "proposed_layout.tsv", "baseline_layout.tsv"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


# Calls made in one process, in this order. Each starts from a clean parse:
# a flag, a --config file or an error of one call must not leak into the next.
REUSE_CALLS = [
    ["build-layout", "--corpus", "corpus.txt", "--name", "first", "-o", "built.tsv"],
    ["evaluate", "--layout", "toy.tsv", "--corpus", "corpus.txt", "--config", "skip.json",
     "-o", "configured.json"],
    ["evaluate", "--layout", "toy.tsv", "--corpus", "corpus.txt", "-o", "plain.tsv"],
    ["transcribe", "--layout", "toy.tsv", "--in", "corpus.txt", "--out", "skipped.tsv",
     "--skip-untypable"],
    ["transcribe", "--layout", "toy.tsv", "--in", "corpus.txt", "--out", "strict.tsv"],
    ["analyze", "--corpus", "corpus.txt", "--bogus", "-o", "bogus.tsv"],
    ["evaluate", "--layout", "built.tsv", "--corpus", "corpus.txt", "--format", "json"],
    ["optimize", "--corpus", "corpus.txt", "--slots-per-key", "0", "-o", "zero.tsv"],
    ["optimize", "--corpus", "corpus.txt", "--max-units", "6", "-o", "optimized.tsv"],
    ["evaluate", "--layout", "built.tsv", "--corpus", "corpus.txt"],
    ["build-layout", "--corpus", "corpus.txt", "--strategy", "sequential", "-o", "default.tsv"],
    ["reproduce-paper", "--corpus", "corpus.txt", "--out-dir", "paper"],
]


def _run_reuse_calls(work: Path, monkeypatch, capsys):
    """Run REUSE_CALLS in ``work``; (status, stdout, stderr) per call and the artifacts."""
    work.mkdir()
    (work / "corpus.txt").write_bytes(CORPUS_PATH.read_bytes())
    (work / "toy.tsv").write_bytes(TOY_LAYOUT_PATH.read_bytes())
    (work / "skip.json").write_text(json.dumps({"skip_untypable": True,
                                                "report_format": "json"}), encoding="utf-8")
    monkeypatch.chdir(work)
    outcomes = []
    for argv in REUSE_CALLS:
        status = main(argv)
        outcomes.append((status, *capsys.readouterr()))
    artifacts = {str(p.relative_to(work)): p.read_bytes()
                 for p in sorted(work.rglob("*")) if p.is_file()}
    return outcomes, artifacts


def test_reused_parser_gives_the_same_results_as_a_new_one(tmp_path, monkeypatch, capsys):
    reused = _run_reuse_calls(tmp_path / "reused", monkeypatch, capsys)
    # the undecorated builder makes a new parser on every main() call
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    fresh = _run_reuse_calls(tmp_path / "fresh", monkeypatch, capsys)
    assert reused == fresh
    statuses = [status for status, _out, _err in reused[0]]
    assert statuses == [0, 0, 1, 0, 1, 2, 0, 2, 0, 0, 0, 0]
    assert reused[0][5][2] == "E_USAGE\tunrecognized arguments: --bogus\n"
    assert reused[0][7][2] == "E_USAGE\t--slots-per-key must be >= 1, got 0\n"
    assert json.loads(reused[1]["configured.json"])["skipped_units"] > 0
    assert reused[0][9][1].startswith("metric\tvalue\n")  # --format json did not stick
    assert load_layout(tmp_path / "reused" / "default.tsv").name == "sequential"


def test_parser_is_built_on_the_first_main_call_only(tmp_path):
    script = textwrap.dedent("""
        import argparse, json, sys
        built = []
        init = argparse.ArgumentParser.__init__
        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)
        argparse.ArgumentParser.__init__ = counting_init
        import bnkeypad.cli as cli
        after_import = list(built)
        statuses = [cli.main(sys.argv[1:]) for _ in range(5)]
        print(json.dumps({"after_import": after_import, "built": built,
                          "statuses": statuses}))
    """)
    done = subprocess.run([sys.executable, "-c", script, "analyze", "--corpus",
                           str(CORPUS_PATH), "-o", str(tmp_path / "freq.tsv")],
                          env=_src_env(), check=True, capture_output=True, text=True)
    result = json.loads(done.stdout)
    assert result["after_import"] == []
    assert result["statuses"] == [0] * 5
    assert result["built"].count("bnkeypad") == 1
    assert len(result["built"]) == 1 + len(cli._COMMANDS)  # one parser per subcommand
