"""Corpus statistics and the count-based evaluator against a trace-based reference."""

import cProfile
import hashlib
import itertools
import json
import pstats
import random
from collections import Counter
from dataclasses import fields, replace
from math import fsum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    CORPUS_PATH,
    TOY_LAYOUT_PATH,
    adversarial_chars,
    adversarial_texts,
    random_full_layout,
    read_text,
)

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
            evaluate(CorpusStats.from_units(units), layout, MODEL, skip_untypable)
        assert (got.value.unit, got.value.position) == (exc.unit, exc.position)
        return
    assert evaluate(CorpusStats.from_units(units), layout, MODEL, skip_untypable) == want


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
    report = evaluate(CorpusStats.from_units([]), layout, MODEL)
    assert (report.kspc, report.expected_cost, report.jam_rate) == (1.0, 0.0, 0.0)
    assert set(report.per_key_load.values()) == {0.0}


def test_skip_untypable_collapses_adjacency():
    layout = Layout(slots={"4": (KHA, GA)}, roles={}, name="toy")
    # KA is missing: deleting it makes KHA and GA adjacent on key 4
    units = [KHA, KA, KA, GA]
    report = evaluate(CorpusStats.from_units(units), layout, MODEL, skip_untypable=True)
    assert report == trace_evaluate(units, layout, MODEL, skip_untypable=True)
    assert report.jam_rate == 1.0
    assert report.unit_count == 2
    assert report.skipped_units == 2


def test_untypable_position_is_the_first_missing_unit():
    layout = Layout(slots={"2": (KA,)}, roles={}, name="toy")
    with pytest.raises(UntypableUnitError) as exc_info:
        evaluate(CorpusStats.from_units([KA, KA, GA, KHA, GA]), layout, MODEL)
    assert exc_info.value.unit == GA
    assert exc_info.value.position == 2


def test_fixture_reports_equal_trace(corpus_units, corpus_table):
    stats = CorpusStats.from_text(read_text(CORPUS_PATH))
    for strategy in (Strategy.SERPENTINE, Strategy.SEQUENTIAL):
        layout = build_layout(corpus_table, MODEL, PlacementPolicy(strategy))
        want = trace_evaluate(corpus_units, layout, MODEL)
        got = evaluate(stats, layout, MODEL)
        assert got.skipped_scalars == stats.skipped > 0
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
    report = evaluate(CorpusStats.from_units(units), layout, MODEL, skip_untypable=True)
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
    report = evaluate(CorpusStats.from_units(units), layout, MODEL, skip_untypable=True)
    assert report.jam_rate == reference_jam_rate(units, layout)
    assert report.jam_rate == jams / max(1, report.unit_count - 1)


SIGN = unit_for("।")


@pytest.mark.parametrize("units", [
    [],
    [SIGN],
    [KA],
    [SIGN, SIGN],                       # one jam on key index 0, the zero byte
    [KA, SIGN],                         # no jam, though the last key byte is 0
    [SIGN, KA],
    [KA, KHA],
    [SIGN, KA, NGA, GA, SIGN, SIGN],    # the only jam is the last pair
    [KA, NGA, GA, GHA],
])
def test_jam_count_from_one_integer_at_the_edges(units):
    # । on key 1 (index 0), so its key byte is 0 and the shifted integer
    # brings in a 0 above the last unit
    layout = Layout(slots={"1": (SIGN,), "2": (KA, KHA), "3": (NGA,), "#": (GA, GHA)},
                    roles={}, name="edges")
    report = evaluate(CorpusStats.from_units(units), layout, MODEL)
    assert report.jam_rate == reference_jam_rate(units, layout)


# ---------------------------------------------------------------------------
# evaluation reads ``typable``; only the optimizer's jam term counts pairs
# ---------------------------------------------------------------------------

@pytest.fixture
def built_stats(monkeypatch):
    """Every CorpusStats the code under test builds, in order."""
    built = []
    init = CorpusStats.__init__

    def record(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    # each corpus's statistics, and each skip's without() of them
    monkeypatch.setattr(CorpusStats, "__init__", record)
    return built


@pytest.fixture
def counter_sizes(monkeypatch):
    """The sizes of the inputs of the Counters that bn_text builds, in order."""
    sizes = []

    class Recording(Counter):
        def __init__(self, iterable):
            sizes.append(len(iterable))
            super().__init__(iterable)

    monkeypatch.setattr(bn_text, "Counter", Recording)
    return sizes


@pytest.fixture
def counted_codes(monkeypatch):
    """The codes each peel counting was asked for, call by call."""
    counted = []
    count = bn_text._peeled_counts

    def record(data, codes):
        counted.append(list(codes))
        return count(data, codes)

    monkeypatch.setattr(bn_text, "_peeled_counts", record)
    return counted


def test_evaluation_never_builds_the_pair_table(tmp_path, capsys, built_stats):
    stats = CorpusStats.from_text(read_text(CORPUS_PATH))
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


def test_optimize_counts_only_the_consonant_codes(tmp_path, capsys, built_stats,
                                                  counted_codes):
    assert main(["optimize", "--corpus", str(CORPUS_PATH), "--method", "local",
                 "--jam-weight", "0.5", "-o", str(tmp_path / "opt.tsv")]) == 0
    capsys.readouterr()
    [stats] = built_stats
    assert "table" not in vars(stats)
    # the 35 consonants are codes 0-34, asked for once
    assert [bn_text._code(u) for u in bn_text.CONSONANTS] == list(range(35))
    assert counted_codes == [list(range(35))]


def test_optimize_calls_no_python_hash_of_a_unit(tmp_path, capsys):
    profiler = cProfile.Profile()
    status = profiler.runcall(main, ["optimize", "--corpus", str(CORPUS_PATH), "--method",
                                     "local", "--jam-weight", "0.5",
                                     "-o", str(tmp_path / "opt.tsv")])
    capsys.readouterr()
    assert status == 0
    calls = pstats.Stats(profiler).stats
    assert [fn for fn in calls if fn[0].endswith("bn_text.py") and fn[2] == "__hash__"] == []
    assert bn_text.GraphemeUnit.__hash__ is object.__hash__


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
    assert stats.skipped == skipped
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

_REFERENCE_CODE_BY_CP = {u.codepoints[0]: i for i, u in enumerate(ALL_UNITS)}


def reference_from_text(text):
    """(table, typable, bigrams, source_bytes, skipped) of a text, one scalar at a time."""
    typable = bytes(_REFERENCE_CODE_BY_CP[cp] for cp in map(ord, text)
                    if cp in _REFERENCE_CODE_BY_CP)
    counts = {ALL_UNITS[c]: n for c, n in Counter(typable).items()}
    bigrams = {(ALL_UNITS[a], ALL_UNITS[b]): n
               for (a, b), n in Counter(zip(typable, typable[1:])).items()}
    # a lone surrogate is one skipped scalar of three bytes
    return (FrequencyTable(counts, len(typable)), typable, bigrams,
            len(text.encode("utf-8", "surrogatepass")), len(text) - len(typable))


def facts(stats):
    """The statistics in the shape of :func:`reference_from_text`."""
    return stats.table, stats.typable, stats.bigrams, stats.source_bytes, stats.skipped


def reference_scan_units(text):
    units = [unit_for(ch) for ch in text]
    return [u for u in units if u is not None], units.count(None)


@settings(max_examples=300, deadline=None)
@given(adversarial_texts)
def test_two_pass_statistics_equal_the_scalar_reference(text):
    want = reference_from_text(text)
    assert facts(CorpusStats.from_text(text)) == want
    assert count_frequencies(text) == want[0]
    assert scan_units(text) == reference_scan_units(text)


# reference: the 72-pass deletion counting that grouped counting replaced
_REFERENCE_CODE_BYTES = tuple(bytes((code,)) for code in range(len(ALL_UNITS)))


def reference_deletion_counts(data):
    n = len(data)
    counts = {}
    for unit, code in zip(ALL_UNITS, _REFERENCE_CODE_BYTES):
        count = n - len(data.replace(code, b""))
        if count:
            counts[unit] = count
    return counts


def assert_counts_equal_deletion_counts(stats):
    want = reference_deletion_counts(stats.typable)
    assert stats.table.counts == want
    assert list(stats.table.counts) == list(want)  # ALL_UNITS order, as before
    assert stats.table.total == len(stats.typable)


@settings(max_examples=300, deadline=None)
@given(st.one_of(adversarial_texts, st.text(adversarial_chars, max_size=400)))
def test_counts_equal_the_deletion_counts(text):
    assert_counts_equal_deletion_counts(CorpusStats.from_text(text))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from(ALL_UNITS), max_size=300))
def test_counts_of_unit_sequences_equal_the_deletion_counts(units):
    assert_counts_equal_deletion_counts(CorpusStats.from_units(units))


SPACE = bn_text.SPACE_UNIT
SAMPLE = bn_text._SAMPLE_SIZE
# a sequence of LONG units is three samples long, so the first sample reads
# every STEP-th unit from the first on
LONG = 3 * SAMPLE
STEP = LONG // SAMPLE + 1


def spaces_with(unit, positions):
    units = [SPACE] * LONG
    for i in positions:
        units[i] = unit
    return units


@pytest.mark.parametrize("units", [
    [],
    list(ALL_UNITS),
    list(ALL_UNITS) * 2 + [KA] * 7,
    pytest.param([KA] * LONG, id="one-code-only"),
    pytest.param(list(ALL_UNITS) * (LONG // len(ALL_UNITS) + 1), id="all-codes-equally-often"),
    pytest.param(random.Random(7).sample(list(ALL_UNITS) * 50, 50 * len(ALL_UNITS)),
                 id="all-codes-equally-often-shuffled"),
    pytest.param([SPACE] * LONG + list(ALL_UNITS) * 3, id="most-frequent-code-last"),
    pytest.param(random.Random(8).sample([SPACE] * LONG + list(ALL_UNITS) * 3, LONG + 216),
                 id="most-frequent-code-last-shuffled"),
    pytest.param(spaces_with(KA, range(1, LONG, 97 * STEP)), id="only-where-the-sample-skips"),
    pytest.param(spaces_with(KA, range(0, LONG, STEP)), id="only-where-the-sample-reads"),
    pytest.param(spaces_with(GA, [LONG - 1]), id="once-at-the-end"),
    *([u] * 5 for u in ALL_UNITS),                      # one code repeated
], ids=repr)
def test_peeled_counts_at_the_edges(units, counter_sizes):
    stats = CorpusStats.from_units(units)
    assert_counts_equal_deletion_counts(stats)
    assert stats.table.counts == dict(Counter(units))
    # a round per Counter but the last, each deleting at least one code
    assert len(counter_sizes) <= len({*units}) + 1
    assert max(counter_sizes) <= SAMPLE


# the first sample reads every (length // SAMPLE + 1)-th unit: every second
# from SAMPLE units on, every third from 2 * SAMPLE, and so on
@pytest.mark.parametrize("length", [SAMPLE, 2 * SAMPLE - 1, 2 * SAMPLE, LONG, 5 * SAMPLE + 3])
@pytest.mark.parametrize("rare, common", [(KA, SPACE), (SPACE, KA)], ids=["ka", "space"])
def test_a_code_the_first_sample_misses_is_still_counted(length, rare, common):
    step = length // SAMPLE + 1
    positions = range(1, length, 97 * step)
    units = [common] * length
    for i in positions:
        units[i] = rare
    assert rare not in units[::step]
    want = {rare: len(positions), common: length - len(positions)}
    stats = CorpusStats.from_units(units)
    assert stats.counts_among([rare, rare, common]) == want
    assert stats.counts_among([]) == {}
    assert stats.table.counts == want


def takes_masked_branch(text):
    """Whether some code unit's high byte differs from the one its low byte expects."""
    data = text.encode("utf-16-le", "surrogatepass")
    return data[0::2].translate(bn_text._EXPECTED_HIGH_BYTE) != data[1::2]


def test_fixture_text_classifies_without_the_mask():
    text = read_text(CORPUS_PATH)
    assert not takes_masked_branch(text)
    assert facts(CorpusStats.from_text(text)) == reference_from_text(text)


@pytest.mark.parametrize("stranger", ["\u200c", "\u0a95", "\ud800", "\U0001f600"])
def test_mismatched_high_bytes_classify_through_the_mask(stranger):
    # Gujarati ka U+0A95 has Bengali ka's low byte, so only the mask tells
    # them apart; the others are untypable whatever the mask does
    text = read_text(CORPUS_PATH)[:500].replace(" ", stranger + " ")
    assert takes_masked_branch(text)
    assert facts(CorpusStats.from_text(text)) == reference_from_text(text)
    assert scan_units(text) == reference_scan_units(text)


def test_lone_surrogate_is_one_skipped_scalar():
    want = FrequencyTable.from_counts({KA: 1})
    stats = CorpusStats.from_text("\ud800ক")
    assert (stats.table, stats.source_bytes, stats.skipped) == (want, 6, 1)
    assert count_frequencies("\ud800ক") == want
    assert scan_units("\ud800ক") == ([KA], 1)


@settings(max_examples=150, deadline=None)
@given(adversarial_texts, st.lists(st.integers(0, 41), max_size=4))
def test_merge_over_random_splits_equals_the_reference(text, cuts):
    bounds = [0, *sorted(c % (len(text) + 1) for c in cuts), len(text)]
    merged = CorpusStats.from_text("")
    for lo, hi in zip(bounds, bounds[1:]):
        merged = merge_stats(merged, CorpusStats.from_text(text[lo:hi]))
    assert facts(merged) == reference_from_text(text)


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
    bigrams = reference_from_text(text)[2]
    assert CorpusStats.from_text(text).pairs_among(units) == restrict_bigrams(bigrams, units)


def test_pairs_among_counts_self_pairs_at_both_offsets():
    stats = CorpusStats.from_units([KA, KA, KA, KHA, KA, KA, GA, GA])
    assert stats.pairs_among([KA]) == {(KA, KA): 3}
    assert stats.pairs_among([GA, KA, GA]) == {(KA, KA): 3, (KA, GA): 1, (GA, GA): 1}
    assert stats.pairs_among([KHA]) == {}
    assert stats.pairs_among(ALL_UNITS) == stats.bigrams == {
        (KA, KA): 3, (KA, KHA): 1, (KHA, KA): 1, (KA, GA): 1, (GA, GA): 1}


def reference_pairs_among(units, chosen):
    keep = set(chosen)
    return dict(Counter(p for p in zip(units, units[1:]) if p[0] in keep and p[1] in keep))


def test_pairs_among_on_every_short_sequence():
    # lengths 0-3 take both paddings (one or two separator bytes) and hold
    # no pair, one pair or two, one at each offset
    for length in range(4):
        for units in itertools.product([KA, KHA, GA], repeat=length):
            stats = CorpusStats.from_units(units)
            for chosen in ([], [KA], [KA, GA], [KHA, GA, KA], ALL_UNITS):
                assert stats.pairs_among(chosen) == reference_pairs_among(units, chosen)


# KA is code 0, so a sequence that ends in it ends its bytes in a zero,
# which reads as no byte at the high end of an integer
@pytest.mark.parametrize("units, chosen", [
    pytest.param([GA, KA], [KA, GA], id="ends-in-ka-even"),
    pytest.param([KHA, GA, KA], [KA, GA], id="ends-in-ka-odd"),
    pytest.param([KA] * 6, [KA], id="ka-run-even"),
    pytest.param([KA] * 7, [KA], id="ka-run-odd"),
    pytest.param([KHA, KA, KA], [KA], id="ka-pair-at-the-end"),
    pytest.param([KA, KHA] * 5, [KA, GA], id="chosen-and-unchosen-alternate"),
    pytest.param([KHA, KA] * 5 + [KHA], [KA], id="unchosen-at-both-ends"),
    pytest.param([KA, GA, KHA, GA, KA, KA], [KA, GA, KA, GA, GA], id="repeated-chosen-units"),
    pytest.param(list(ALL_UNITS) + [KA, KA] + list(reversed(ALL_UNITS)), ALL_UNITS,
                 id="all-72-units"),
])
def test_pairs_among_at_the_edges(units, chosen):
    stats = CorpusStats.from_units(units)
    assert stats.pairs_among(chosen) == reference_pairs_among(units, chosen)
    if chosen is ALL_UNITS:
        assert stats.bigrams == reference_pairs_among(units, chosen)


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


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from(ALL_UNITS), max_size=200), unit_subsets, unit_subsets)
def test_without_equals_the_statistics_of_the_kept_units(units, counted, dropped):
    stats = CorpusStats.from_units(units)
    stats.counts_among(counted)  # counting first leaves no trace on what without() returns
    kept = stats.without(dropped)
    want = CorpusStats.from_units([u for u in units if u not in set(dropped)])
    assert kept == want
    assert kept.table == want.table


def test_each_count_call_peels_the_codes_it_names(counted_codes):
    stats = CorpusStats.from_units([KHA, KA, GA, KA, SPACE])
    assert stats.counts_among([GA, KA]) == {KA: 2, GA: 1}
    kept = stats.without([KA, SPACE])
    assert kept.counts_among([KA, KHA, GA]) == {KHA: 1, GA: 1}
    assert kept.table == FrequencyTable.from_counts({KHA: 1, GA: 1})
    assert counted_codes == [[0, 2], [0, 1, 2], list(range(72))]


def test_corpus_stats_holds_its_fields_and_cached_views_alone():
    assert [f.name for f in fields(CorpusStats)] == ["typable", "source_bytes", "skipped"]
    stats = CorpusStats.from_units([KHA, KA, GA, KA, SPACE])
    stats.counts_among([KA, GA])
    stats.table
    stats.bigrams
    stats.without([KA]).table
    assert set(vars(stats)) == {"typable", "source_bytes", "skipped", "table", "bigrams"}
    assert not hasattr(stats, "first_position")


STRANGER = bn_text.GraphemeUnit((0x0041,), bn_text.Category.SYMBOL, "A")


def test_without_rejects_units_outside_the_inventory():
    with pytest.raises(ValueError, match="not a typable unit"):
        CorpusStats.from_units([KA]).without([KA, STRANGER])


def test_counts_among_rejects_units_outside_the_inventory():
    with pytest.raises(ValueError, match="not a typable unit"):
        CorpusStats.from_units([KA]).counts_among([KA, STRANGER])


# reference: the eager counting, of all eight groups of nine codes as the
# statistics were built, that counting on demand replaced
_EAGER_GROUPS = tuple(
    (tuple(bytes((code,)) for code in range(lo + 1, hi)),
     bytes(b for b in range(256) if not lo <= b < hi))
    for lo in range(0, len(ALL_UNITS), 9)
    for hi in (min(lo + 9, len(ALL_UNITS)),))


def eager_table(data):
    counts = []
    for others, outside in _EAGER_GROUPS:
        part = data.translate(None, outside)
        rest = list(map(part.count, others))
        counts.append(len(part) - sum(rest))
        counts += rest
    return FrequencyTable({u: c for u, c in zip(ALL_UNITS, counts) if c}, len(data))


@settings(max_examples=300, deadline=None)
@given(st.one_of(adversarial_texts, st.text(adversarial_chars, max_size=400)),
       unit_subsets, unit_subsets)
def test_counts_on_demand_equal_the_eager_counts(text, units, more):
    stats = CorpusStats.from_text(text)
    want = eager_table(stats.typable)
    for chosen in (units, more):  # the second call reuses the groups the first counted
        got = stats.counts_among(chosen)
        assert got == {u: c for u, c in want.counts.items() if u in set(chosen)}
        assert list(got) == [u for u in want.counts if u in set(chosen)]
    assert stats.table == want
    assert list(stats.table.counts) == list(want.counts)
    assert CorpusStats.from_text(text).table == want  # nothing counted before
    assert (stats.source_bytes, stats.skipped) == (
        len(text.encode("utf-8", "surrogatepass")), len(text) - len(stats.typable))


@st.composite
def long_unit_lists(draw):
    """Up to three samples of units, a few common and many rare, as in a corpus."""
    rng = draw(st.randoms(use_true_random=False))
    length = draw(st.integers(0, LONG))
    alphabet = rng.sample(ALL_UNITS, rng.randint(1, len(ALL_UNITS)))
    weights = [rng.paretovariate(0.7) for _ in alphabet]
    return rng.choices(alphabet, weights, k=length)


@settings(max_examples=150, deadline=None)
@given(long_unit_lists(), unit_subsets, unit_subsets)
def test_peeled_counts_of_long_sequences_equal_the_eager_counts(units, chosen, more):
    stats = CorpusStats.from_units(units)
    want = eager_table(stats.typable)
    for subset in (chosen, more):  # the second call reuses the codes the first counted
        got = stats.counts_among(subset)
        assert got == {u: c for u, c in want.counts.items() if u in set(subset)}
        assert list(got) == [u for u in want.counts if u in set(subset)]
    assert stats.table == want
    assert (stats.source_bytes, stats.skipped) == (0, 0)


def test_stats_table_counts_skipped_scalars_and_bytes():
    stats = CorpusStats.from_text("কx খ\n")
    assert stats.table == FrequencyTable.from_counts({KA: 1, KHA: 1, bn_text.SPACE_UNIT: 1})
    assert (stats.source_bytes, stats.skipped) == (9, 2)


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
