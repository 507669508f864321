"""Corpus statistics and the count-based evaluator against a trace-based reference."""

import hashlib
import json
import random
from collections import Counter
from dataclasses import replace
from math import fsum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CORPUS_PATH, TOY_LAYOUT_PATH, random_full_layout

from bnkeypad import bn_text
from bnkeypad.bn_text import (
    ALL_UNITS,
    CorpusStats,
    FrequencyTable,
    count_frequencies,
    count_unit_bigrams,
    merge_stats,
    scan_units,
    unit_for,
)
from bnkeypad.cli import main, reproduce_paper
from bnkeypad.ergonomics import KEYPAD_KEYS, default_model, key_cost
from bnkeypad.errors import UntypableUnitError
from bnkeypad.layout import Layout, PlacementPolicy, Strategy, build_layout, load_layout
from bnkeypad.optimize import restrict_bigrams
from bnkeypad.transcribe import EvaluationReport, evaluate, transcribe

KA, KHA, GA = (unit_for(c) for c in "কখগ")
MODEL = default_model()


# ---------------------------------------------------------------------------
# reference: the press-by-press evaluation the count-based one replaced
# ---------------------------------------------------------------------------

def trace_evaluate(units, layout, model, skip_untypable=False) -> EvaluationReport:
    trace = transcribe(units, layout, skip_untypable=skip_untypable)
    unit_count = len(trace.boundaries)
    press_count = len(trace.presses)
    cost_terms = [(end - start) * key_cost(model, trace.presses[start])
                  for _pos, (start, end) in trace.boundaries]
    press_by_key = Counter(trace.presses)
    return EvaluationReport(
        kspc=press_count / unit_count if unit_count else 1.0,
        expected_cost=fsum(cost_terms) / unit_count if unit_count else 0.0,
        jam_rate=len(trace.jam_positions) / max(1, unit_count - 1),
        per_key_load={key: (press_by_key.get(key, 0) / press_count if press_count else 0.0)
                      for key in KEYPAD_KEYS},
        unit_count=unit_count,
        press_count=press_count,
        skipped_units=len(trace.skipped_positions),
    )


def assert_same_outcome(units, layout, skip_untypable):
    """The stats evaluator equals the reference, errors included, field for field."""
    try:
        want = trace_evaluate(units, layout, MODEL, skip_untypable)
    except UntypableUnitError as exc:
        with pytest.raises(UntypableUnitError) as got:
            evaluate(units, layout, MODEL, skip_untypable)
        assert (got.value.unit, got.value.position) == (exc.unit, exc.position)
        return
    assert evaluate(units, layout, MODEL, skip_untypable) == want


def partial_layout(rng: random.Random) -> Layout:
    """A random layout missing a random part of the inventory."""
    full = random_full_layout(rng)
    dropped = set(rng.sample(ALL_UNITS, rng.randint(0, len(ALL_UNITS))))
    slots = {key: tuple(u for u in units if u not in dropped)
             for key, units in full.slots.items()}
    return Layout(slots=slots, roles={}, name="partial")


unit_lists = st.lists(st.sampled_from(ALL_UNITS), max_size=120)


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), unit_lists)
def test_stats_evaluator_equals_trace_on_full_layouts(rng, units):
    assert_same_outcome(units, random_full_layout(rng), skip_untypable=False)


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), unit_lists, st.booleans())
def test_stats_evaluator_equals_trace_on_partial_layouts(rng, units, skip_untypable):
    assert_same_outcome(units, partial_layout(rng), skip_untypable)


def test_empty_and_single_unit_match_trace():
    layout = random_full_layout(random.Random(3))
    for units in ([], [KA], [KA, KA]):
        assert_same_outcome(units, layout, skip_untypable=False)
    report = evaluate([], layout, MODEL)
    assert (report.kspc, report.expected_cost, report.jam_rate) == (1.0, 0.0, 0.0)
    assert set(report.per_key_load.values()) == {0.0}


def test_skip_untypable_collapses_adjacency():
    layout = Layout(slots={"4": (KHA, GA)}, roles={}, name="toy")
    # KA is missing: deleting it makes KHA and GA adjacent on key 4
    units = [KHA, KA, KA, GA]
    report = evaluate(units, layout, MODEL, skip_untypable=True)
    assert report == trace_evaluate(units, layout, MODEL, skip_untypable=True)
    assert report.jam_rate == 1.0
    assert report.unit_count == 2
    assert report.skipped_units == 2


def test_untypable_position_is_the_first_missing_unit():
    layout = Layout(slots={"2": (KA,)}, roles={}, name="toy")
    with pytest.raises(UntypableUnitError) as exc_info:
        evaluate([KA, KA, GA, KHA, GA], layout, MODEL)
    assert exc_info.value.unit == GA
    assert exc_info.value.position == 2


def test_fixture_reports_equal_trace(corpus_units, corpus_table):
    stats = CorpusStats.from_text(bn_text.read_corpus(CORPUS_PATH))
    for strategy in (Strategy.SERPENTINE, Strategy.SEQUENTIAL):
        layout = build_layout(corpus_table, MODEL, PlacementPolicy(strategy))
        want = trace_evaluate(corpus_units, layout, MODEL)
        got = evaluate(stats, layout, MODEL)
        assert got.skipped_scalars == stats.table.skipped > 0
        assert got == replace(want, skipped_scalars=got.skipped_scalars)


# ---------------------------------------------------------------------------
# reference: the jam count as a sum over the pair table, which evaluate
# replaced with a byte-wise comparison of the typable key sequence
# ---------------------------------------------------------------------------

def reference_jam_rate(units, layout):
    """Jams over adjacent pairs of the units the layout has, from ``bigrams``."""
    stats = CorpusStats.from_units([u for u in units if layout.position(u) is not None])
    key = {u: layout.position(u)[0] for u in stats.table.counts}
    jams = sum(n for (a, b), n in stats.bigrams.items() if key[a] == key[b])
    return jams / max(1, stats.table.total - 1)


def spread_layout(rng: random.Random) -> Layout:
    """A random layout of the whole inventory with every key, '#' included, in use."""
    units = list(ALL_UNITS)
    rng.shuffle(units)
    cuts = [0, *sorted(rng.sample(range(1, len(units)), len(KEYPAD_KEYS) - 1)), len(units)]
    slots = {key: tuple(units[lo:hi]) for key, lo, hi in zip(KEYPAD_KEYS, cuts, cuts[1:])}
    return Layout(slots=slots, roles={}, name="spread")


# a sequence is a few runs, each of units drawn from one key of the full layout
key_runs = st.lists(st.tuples(st.integers(0, len(KEYPAD_KEYS) - 1), st.integers(1, 250)),
                    max_size=12)


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), key_runs, st.booleans())
def test_jam_count_equals_the_pair_table_sum(rng, runs, partial):
    full = spread_layout(rng)
    units = [rng.choice(full.slots[KEYPAD_KEYS[k]]) for k, n in runs for _ in range(n)]
    layout = full
    if partial:
        # deleting the dropped units joins their neighbours, often on one key
        dropped = set(rng.sample(ALL_UNITS, rng.randint(1, len(ALL_UNITS) - 1)))
        layout = Layout(slots={key: tuple(u for u in slot if u not in dropped)
                               for key, slot in full.slots.items()},
                        roles={}, name="partial")
    report = evaluate(units, layout, MODEL, skip_untypable=True)
    assert report.jam_rate == reference_jam_rate(units, layout)


GHA, NGA, CA = (unit_for(c) for c in "ঘঙচ")


@pytest.mark.parametrize("units, jams", [
    ([], 0),
    ([GA], 0),
    ([GA, GHA], 1),
    ([GA, KA], 0),
    ([GA] * 5 + [KA, NGA], 4),          # a run at the very start, on '#'
    ([KA, NGA] + [GHA, GA] * 3, 5),     # a run at the very end, on '#'
    ([KA, KHA, NGA, KA, KHA, KA], 3),
    ([GA, CA, GHA], 1),                 # the deletion joins two '#' units
    ([CA, GA, CA, CA, GHA, CA], 1),     # ... also at both ends
    ([KA, CA, GA, CA], 0),
    ([CA, CA], 0),
])
def test_jam_count_on_runs_at_the_ends_and_deletions(units, jams):
    # ক and খ on key 2, গ and ঘ on '#' (index 11), ঙ on 3; চ is missing
    layout = Layout(slots={"2": (KA, KHA), "3": (NGA,), "#": (GA, GHA)},
                    roles={}, name="toy")
    report = evaluate(units, layout, MODEL, skip_untypable=True)
    assert report.jam_rate == reference_jam_rate(units, layout)
    assert report.jam_rate == jams / max(1, report.unit_count - 1)


# ---------------------------------------------------------------------------
# evaluation reads ``typable``; only the optimizer's jam term counts pairs
# ---------------------------------------------------------------------------

@pytest.fixture
def built_stats(monkeypatch):
    """Every CorpusStats the code under test builds, in order."""
    built = []
    counted = bn_text._counted

    def record(*args):
        built.append(counted(*args))
        return built[-1]

    monkeypatch.setattr(bn_text, "_counted", record)
    return built


def test_evaluation_never_builds_the_pair_table(tmp_path, capsys, built_stats):
    stats = CorpusStats.from_text(bn_text.read_corpus(CORPUS_PATH))
    toy = load_layout(TOY_LAYOUT_PATH)
    for strategy in (Strategy.SERPENTINE, Strategy.SEQUENTIAL):
        evaluate(stats, build_layout(stats.table, MODEL, PlacementPolicy(strategy)), MODEL)
    evaluate(stats, toy, MODEL, skip_untypable=True)
    reproduce_paper([CORPUS_PATH], MODEL)
    out = tmp_path / "paper"
    corpus = ["--corpus", str(CORPUS_PATH)]
    layouts = [str(TOY_LAYOUT_PATH), str(out / "proposed_layout.tsv"),
               str(out / "baseline_layout.tsv")]
    runs = [["reproduce-paper", *corpus, "--out-dir", str(out)]]
    for fmt in ("tsv", "json"):
        runs += [["evaluate", "--layout", layouts[1], *corpus, "--format", fmt],
                 ["evaluate", "--layout", layouts[0], *corpus, "--skip-untypable",
                  "--format", fmt],
                 ["compare", "--layouts", *layouts, *corpus, "--skip-untypable",
                  "--format", fmt]]
    for args in runs:
        assert main(args) == 0
    capsys.readouterr()
    # each run's corpus, and each skip's without() of it
    assert len(built_stats) > 10
    assert [s for s in built_stats if "bigrams" in vars(s)] == []


def test_optimize_jam_term_still_counts_pairs(tmp_path, capsys, built_stats):
    out = tmp_path / "opt.tsv"
    assert main(["optimize", "--corpus", str(CORPUS_PATH), "--jam-weight", "0.5",
                 "-o", str(out)]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "method=greedy units=35 slots=35 jam_weight=0.5",
        "objective value=1.4447104247104248"]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "96264c3ff5731f2c674fb7b37314d9bbadedabee45240d8b0174b0dd2213d3d1")
    [stats] = built_stats
    assert "bigrams" not in vars(stats)  # only the instance's pairs are counted


# ---------------------------------------------------------------------------
# CorpusStats
# ---------------------------------------------------------------------------

texts = st.text(alphabet=st.sampled_from("কখগা ি্।x9\n\u200c"), max_size=60)


@settings(max_examples=150, deadline=None)
@given(texts)
def test_stats_agree_with_table_and_bigram_counts(text):
    stats = CorpusStats.from_text(text)
    units, skipped = scan_units(text)
    assert stats.table == count_frequencies(text)
    assert stats.table.skipped == skipped
    assert stats.bigrams == count_unit_bigrams(units)
    from_units = CorpusStats.from_units(units)
    assert from_units.table.counts == stats.table.counts
    assert (from_units.bigrams, from_units.typable) == (stats.bigrams, stats.typable)


@settings(max_examples=150, deadline=None)
@given(texts, texts, texts)
def test_merge_is_associative_and_equals_one_pass(a, b, c):
    sa, sb, sc = (CorpusStats.from_text(t) for t in (a, b, c))
    left = merge_stats(merge_stats(sa, sb), sc)
    assert left == merge_stats(sa, merge_stats(sb, sc))
    assert left == CorpusStats.from_text(a + b + c)
    empty = CorpusStats.from_text("")
    assert merge_stats(empty, sa) == sa == merge_stats(sa, empty)


# ---------------------------------------------------------------------------
# reference: the set/translate/Counter(zip) statistics the two-pass
# classifier and the 16-bit pair windows replaced
# ---------------------------------------------------------------------------

_REFERENCE_CODE_BY_CP = {u.codepoints[0]: chr(i) for i, u in enumerate(ALL_UNITS)}


def reference_from_text(text):
    """(table, typable, bigrams) of a text, one scalar at a time."""
    codes = dict(_REFERENCE_CODE_BY_CP)
    codes.update(dict.fromkeys(cp for cp in map(ord, set(text))
                               if cp not in _REFERENCE_CODE_BY_CP))
    typable = text.translate(codes)
    counts = {ALL_UNITS[ord(c)]: n for c, n in Counter(typable).items()}
    bigrams = {(ALL_UNITS[ord(a)], ALL_UNITS[ord(b)]): n
               for (a, b), n in Counter(zip(typable, typable[1:])).items()}
    table = FrequencyTable(counts, len(typable), len(text.encode("utf-8")),
                           len(text) - len(typable))
    return table, typable, bigrams


def reference_scan_units(text):
    units = [unit_for(ch) for ch in text]
    return [u for u in units if u is not None], units.count(None)


# Untypable scalars chosen to break a classifier that looks at low bytes:
# Devanagari shares the Bengali block's low bytes (U+0965 is untypable, its
# neighbour danda U+0964 typable), Latin-1 and Bengali digits sit next to
# typable scalars, and astral scalars are surrogate pairs in UTF-16.
adversarial_chars = st.one_of(
    st.sampled_from([u.text for u in ALL_UNITS]),
    st.characters(min_codepoint=0x0900, max_codepoint=0x097F),
    st.characters(min_codepoint=0x0080, max_codepoint=0x00FF),
    st.sampled_from("\u200c\u200d\r\n০১২৩৪৫৬৭৮৯\u0965\u0964"),
    st.characters(min_codepoint=0x10000),
)
adversarial_texts = st.integers(0, 41).flatmap(
    lambda n: st.text(adversarial_chars, min_size=n, max_size=n))


@settings(max_examples=300, deadline=None)
@given(adversarial_texts)
def test_two_pass_statistics_equal_the_scalar_reference(text):
    table, typable, bigrams = reference_from_text(text)
    stats = CorpusStats.from_text(text)
    assert (stats.table, stats.typable, stats.bigrams) == (table, typable, bigrams)
    assert count_frequencies(text) == table
    assert scan_units(text) == reference_scan_units(text)


@settings(max_examples=150, deadline=None)
@given(adversarial_texts, st.lists(st.integers(0, 41), max_size=4))
def test_merge_over_random_splits_equals_the_reference(text, cuts):
    bounds = [0, *sorted(c % (len(text) + 1) for c in cuts), len(text)]
    merged = CorpusStats.from_text("")
    for lo, hi in zip(bounds, bounds[1:]):
        merged = merge_stats(merged, CorpusStats.from_text(text[lo:hi]))
    assert (merged.table, merged.typable, merged.bigrams) == reference_from_text(text)


# the empty subset, every unit, units the text may lack, repeated units, and
# the units of ``texts``, so that runs of one unit make self pairs
TEXT_UNITS = [u for u in map(unit_for, "কখগা ি্।") if u is not None]
unit_subsets = st.one_of(
    st.just(()),
    st.just(ALL_UNITS),
    st.lists(st.sampled_from(ALL_UNITS), max_size=100),
    st.lists(st.sampled_from(TEXT_UNITS), max_size=12),
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(texts, adversarial_texts), unit_subsets)
def test_pairs_among_equals_the_restricted_reference_pairs(text, units):
    _table, _typable, bigrams = reference_from_text(text)
    assert CorpusStats.from_text(text).pairs_among(units) == restrict_bigrams(bigrams, units)


def test_pairs_among_counts_self_pairs_at_both_offsets():
    stats = CorpusStats.from_units([KA, KA, KA, KHA, KA, KA, GA, GA])
    assert stats.pairs_among([KA]) == {(KA, KA): 3}
    assert stats.pairs_among([GA, KA, GA]) == {(KA, KA): 3, (KA, GA): 1, (GA, GA): 1}
    assert stats.pairs_among([KHA]) == {}
    assert stats.pairs_among(ALL_UNITS) == stats.bigrams == {
        (KA, KA): 3, (KA, KHA): 1, (KHA, KA): 1, (KA, GA): 1, (GA, GA): 1}


def test_from_units_rejects_units_outside_the_inventory():
    stranger = bn_text.GraphemeUnit((0x0041,), bn_text.Category.SYMBOL, "A")
    with pytest.raises(ValueError):
        CorpusStats.from_units([KA, stranger])


def test_pairs_among_rejects_units_outside_the_inventory():
    stranger = bn_text.GraphemeUnit((0x0041,), bn_text.Category.SYMBOL, "A")
    with pytest.raises(ValueError, match="not a typable unit"):
        CorpusStats.from_units([KA, KA]).pairs_among([KA, stranger])


def test_without_deletes_and_rejoins():
    stats = CorpusStats.from_units([KHA, KA, GA, KA])
    kept = stats.without([KA])
    assert kept == CorpusStats.from_units([KHA, GA])
    assert kept.bigrams == {(KHA, GA): 1}
    assert stats.first_position(GA) == 2
    assert stats.first_position(unit_for("ঘ")) == -1


def test_stats_table_counts_skipped_scalars_and_bytes():
    stats = CorpusStats.from_text("কx খ\n")
    assert stats.table == FrequencyTable.from_counts(
        {KA: 1, KHA: 1, bn_text.SPACE_UNIT: 1}, source_bytes=9, skipped=2)


# ---------------------------------------------------------------------------
# CLI: pairs across sources, skipped counts in JSON
# ---------------------------------------------------------------------------

def test_bigrams_cross_corpus_files_like_their_concatenation(tmp_path, capsys):
    layout_path = tmp_path / "layout.tsv"
    layout_path.write_text("keypad-layout v1\n2\tU+0995,U+0996\n4\tU+0997\n0\tU+0020\n",
                           encoding="utf-8")
    # "ক" ends one file and "খ", on the same key, starts the next: a jam
    parts = [tmp_path / "a.txt", tmp_path / "b.txt"]
    parts[0].write_text("গক", encoding="utf-8")
    parts[1].write_text("খ গ", encoding="utf-8")
    whole = tmp_path / "ab.txt"
    whole.write_text("গকখ গ", encoding="utf-8")
    outputs = []
    for corpus in (parts, [whole]):
        assert main(["evaluate", "--layout", str(layout_path), "--format", "json",
                     "--corpus", *map(str, corpus)]) == 0
        outputs.append(json.loads(capsys.readouterr().out))
    assert outputs[0] == outputs[1]
    stats = merge_stats(*(CorpusStats.from_text(p.read_text(encoding="utf-8"))
                          for p in parts))
    assert stats.bigrams[(KA, KHA)] == 1
    assert stats == CorpusStats.from_text(whole.read_text(encoding="utf-8"))


def test_evaluate_json_reports_skipped_input(tmp_path, capsys):
    layout_path = tmp_path / "toy.tsv"
    layout_path.write_text("keypad-layout v1\n2\tU+0995\n4\tU+0996\n", encoding="utf-8")
    corpus = tmp_path / "c.txt"
    corpus.write_text("কxগখ9গ", encoding="utf-8")
    assert main(["evaluate", "--layout", str(layout_path), "--corpus", str(corpus),
                 "--format", "json", "--skip-untypable"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["skipped_scalars"], payload["skipped_units"]) == (2, 2)
    assert payload["unit_count"] == 2
    assert main(["compare", "--layouts", str(layout_path), "--corpus", str(corpus),
                 "--format", "json", "--skip-untypable"]) == 0
    [row] = json.loads(capsys.readouterr().out)
    assert (row["skipped_scalars"], row["skipped_units"]) == (2, 2)
    assert main(["evaluate", "--layout", str(layout_path), "--corpus", str(corpus)]) == 1
    assert capsys.readouterr().err.startswith("E_UNTYPABLE\t")
