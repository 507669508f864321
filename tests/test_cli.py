"""CLI behavior: exit codes, artifacts, determinism, config precedence."""

import hashlib
import json

import pytest

from conftest import CORPUS_PATH, TOY_LAYOUT_PATH

from bnkeypad import bn_text
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
    expected = bn_text.format_frequency_tsv(bn_text.count_file(mini_corpus))
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
])
def test_optimize_rejects_bad_parameters(tmp_path, capsys, flags):
    out = tmp_path / "opt.tsv"
    assert main(["optimize", "--corpus", str(CORPUS_PATH), *flags, "-o", str(out)]) == 2
    assert capsys.readouterr().err.startswith("E_USAGE\t")
    assert not out.exists()


@pytest.mark.parametrize("config", [
    {"max_units": 0}, {"max_units": "x"}, {"max_units": 2.5}, {"slots_per_key": 0},
    {"jam_weight": "abc"}, {"jam_weight": True}, {"max_iters": None}, {"max_iters": -1},
    {"strategy": "zigzag"}, {"method": "bogus"}, {"report_format": "xml"},
    {"override_guard": "yes"}, {"ergonomics": 3},
])
def test_config_limits_are_checked_like_flags(tmp_path, capsys, config):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "opt.tsv"
    assert main(["optimize", "--corpus", str(CORPUS_PATH), "--config", str(path),
                 "-o", str(out)]) == 2
    assert capsys.readouterr().err.startswith("E_USAGE\t")
    assert not out.exists()


def test_config_values_convert_like_flag_text(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"max_units": "6", "jam_weight": 1, "method": "local",
                                "max_iters": 2}), encoding="utf-8")
    configured = tmp_path / "configured.tsv"
    flagged = tmp_path / "flagged.tsv"
    assert main(["optimize", "--corpus", str(CORPUS_PATH), "--config", str(path),
                 "-o", str(configured)]) == 0
    assert main(["optimize", "--corpus", str(CORPUS_PATH), "--max-units", "6",
                 "--jam-weight", "1", "--method", "local", "--max-iters", "2",
                 "-o", str(flagged)]) == 0
    assert configured.read_bytes() == flagged.read_bytes()


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
