"""CLI behavior: exit codes, artifacts, determinism, config precedence."""

import argparse
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from conftest import CORPUS_PATH, NAME_BREAKERS, TOY_LAYOUT_PATH

from bnkeypad import bn_text, cli
from bnkeypad.cli import main
from bnkeypad.ergonomics import default_model, format_model_tsv, load_model, parse_model_tsv
from bnkeypad.layout import Role, load_layout, parse
from bnkeypad.transcribe import evaluate

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
        bn_text.count_frequencies(bn_text.read_corpus(mini_corpus)))
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

    units, _ = bn_text.scan_units(bn_text.read_corpus(CORPUS_PATH))
    expected = evaluate(units, layout, default_model())
    assert f"kspc\t{expected.kspc:.9f}\n" in text
    assert f"jam_rate\t{expected.jam_rate:.9f}\n" in text


def test_evaluate_json_format(tmp_path, capsys):
    layout_path = tmp_path / "layout.tsv"
    main(["build-layout", "--corpus", str(CORPUS_PATH), "-o", str(layout_path)])
    assert main(["evaluate", "--layout", str(layout_path),
                 "--corpus", str(CORPUS_PATH), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    units, _ = bn_text.scan_units(bn_text.read_corpus(CORPUS_PATH))
    expected = evaluate(units, load_layout(layout_path), default_model())
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
    units, _ = bn_text.scan_units(bn_text.read_corpus(CORPUS_PATH))
    model = default_model()
    for line, path in zip(lines[1:], (serp, seq)):
        layout = load_layout(path)
        expected = evaluate(units, layout, model)
        name, kspc, cost, jam = line.split("\t")
        assert name == layout.name
        assert kspc == f"{expected.kspc:.9f}"
        assert cost == f"{expected.expected_cost:.9f}"
        assert jam == f"{expected.jam_rate:.9f}"


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
    assert capsys.readouterr().err.startswith("E_UNTYPABLE\t")
    assert not out.exists()  # atomic: nothing partial left behind
    assert not list(out.parent.glob(".trace.tsv.*"))

    assert main(["transcribe", "--layout", str(TOY_LAYOUT_PATH),
                 "--in", str(text_path), "--out", str(out), "--skip-untypable"]) == 0
    assert out.exists()


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


def test_crlf_layout_and_model_files_parse_the_same(tmp_path):
    layout_text = TOY_LAYOUT_PATH.read_text(encoding="utf-8")
    model_text = format_model_tsv(default_model())
    crlf_layout = tmp_path / "layout.tsv"
    crlf_layout.write_bytes(layout_text.replace("\n", "\r\n").encode("utf-8"))
    crlf_model = tmp_path / "model.tsv"
    crlf_model.write_bytes(model_text.replace("\n", "\r\n").encode("utf-8"))
    assert load_layout(crlf_layout) == parse(layout_text)
    assert load_model(crlf_model) == parse_model_tsv(model_text)


def test_determinism_byte_identical_outputs(tmp_path):
    out1 = tmp_path / "freq1.tsv"
    out2 = tmp_path / "freq2.tsv"
    main(["analyze", "--corpus", str(CORPUS_PATH), "-o", str(out1)])
    main(["analyze", "--corpus", str(CORPUS_PATH), "-o", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_artifacts_do_not_depend_on_the_hash_seed(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    runs = []
    for seed in ("0", "1"):
        out = tmp_path / f"seed{seed}"
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        for args in (["analyze", "--corpus", str(CORPUS_PATH), "-o", str(out / "freq.tsv")],
                     ["reproduce-paper", "--corpus", str(CORPUS_PATH), "--out-dir", str(out)],
                     ["optimize", "--corpus", str(CORPUS_PATH), "--method", "local",
                      "--jam-weight", "0.5", "-o", str(out / "opt.tsv")]):
            subprocess.run([sys.executable, "-m", "bnkeypad.cli", *args], env=env, check=True,
                           capture_output=True)
        runs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert sorted(runs[0]) == ["baseline_layout.tsv", "freq.tsv", "opt.tsv",
                               "proposed_layout.tsv", "report.tsv"]
    assert runs[0] == runs[1]


def test_stdout_artifacts_are_the_utf8_of_the_file_whatever_the_stream_encoding(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONIOENCODING="ascii",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
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


def test_optimize_guard(tmp_path, capsys):
    out = tmp_path / "opt.tsv"
    assert main(["optimize", "--corpus", str(CORPUS_PATH), "--max-units", "20",
                 "--method", "exhaustive", "-o", str(out)]) == 1
    assert capsys.readouterr().err.splitlines()[-1].startswith("E_TOO_LARGE\t")


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
    assert options <= {f.name for f in dataclasses.fields(cli.RunConfig)}
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
    for field in dataclasses.fields(cli.RunConfig):
        if field.name in options and field.default is not None:
            assert cli._config_value("c.json", field.name, field.default) == field.default


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
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script, "analyze", "--corpus",
                           str(CORPUS_PATH), "-o", str(tmp_path / "freq.tsv")],
                          env=env, check=True, capture_output=True, text=True)
    result = json.loads(done.stdout)
    assert result["after_import"] == []
    assert result["statuses"] == [0] * 5
    assert result["built"].count("bnkeypad") == 1
    assert len(result["built"]) == 1 + len(cli._COMMANDS)  # one parser per subcommand
