"""Keystroke traces, decoding, and typing metrics."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import adversarial_texts, random_full_layout, random_text

from bnkeypad.bn_text import (
    ALL_UNITS,
    CONJUNCT_JOINER,
    SPACE_UNIT,
    Category,
    CorpusStats,
    GraphemeUnit,
    scan_units,
    unit_for,
)
from bnkeypad.ergonomics import KEYPAD_KEYS, key_cost
from bnkeypad.errors import CorruptTraceError, UntypableUnitError
from bnkeypad.layout import DEFAULT_ROLES, Layout, PlacementPolicy, Strategy, build_layout
from bnkeypad.transcribe import KeystrokeTrace, decode, evaluate, evaluate_many, transcribe

KA, KHA, GA, GHA, CA = (unit_for(c) for c in "কখগঘচ")


def toy_layout():
    return Layout(
        slots={
            "2": (KA,),
            "4": (KHA, GA),
            "5": (GHA, CA, unit_for("ছ")),
            "7": (unit_for("জ"), unit_for("ঝ")),
            "0": (SPACE_UNIT,),
            "*": (CONJUNCT_JOINER,),
        },
        roles=dict(DEFAULT_ROLES),
        name="toy",
    )


# ---------------------------------------------------------------------------
# independent metric oracle: plain loops, no shared code with the library
# ---------------------------------------------------------------------------

def oracle_metrics(units, layout, model):
    positions = {}
    for key, slot_list in layout.slots.items():
        for i, unit in enumerate(slot_list):
            positions[unit] = (key, i + 1)
    presses = []
    jams = 0
    cost = 0.0
    prev_key = None
    for unit in units:
        key, taps = positions[unit]
        presses.extend([key] * taps)
        cost += taps * key_cost(model, key)
        if prev_key == key:
            jams += 1
        prev_key = key
    n = len(units)
    loads = Counter(presses)
    return {
        "kspc": len(presses) / n,
        "expected_cost": cost / n,
        "jam_rate": jams / max(1, n - 1),
        "press_count": len(presses),
        "per_key_load": {k: loads.get(k, 0) / len(presses) for k in KEYPAD_KEYS},
    }


# ---------------------------------------------------------------------------
# transcribe
# ---------------------------------------------------------------------------

def test_multitap_press_counts():
    layout = toy_layout()
    trace = transcribe([unit_for("ছ")], layout)  # slot 3 of key 5
    assert trace.presses == ("5", "5", "5")
    assert trace.boundaries == ((0, (0, 3)),)
    assert trace.jam_positions == ()


def test_conjunct_goes_through_link_key():
    layout = toy_layout()
    trace = transcribe([KA, CONJUNCT_JOINER, GA], layout)
    assert trace.presses == ("2", "*", "4", "4")
    assert trace.jam_positions == ()


def test_adjacent_units_on_same_key_jam():
    layout = toy_layout()
    trace = transcribe([KHA, GA], layout)  # both on key 4
    assert trace.presses == ("4", "4", "4")
    assert trace.jam_positions == (0,)
    trace = transcribe([GHA, CA, KA], layout)
    assert trace.jam_positions == (0,)


def test_untypable_unit_reports_position():
    layout = toy_layout()
    missing = unit_for("হ")
    with pytest.raises(UntypableUnitError) as e:
        transcribe([KA, missing], layout)
    assert e.value.position == 1
    trace = transcribe([KA, missing, GA], layout, skip_untypable=True)
    assert trace.skipped_positions == (1,)
    assert [pos for pos, _ in trace.boundaries] == [0, 2]


def test_skipping_collapses_adjacency():
    layout = toy_layout()
    missing = unit_for("হ")
    trace = transcribe([KHA, missing, GA], layout, skip_untypable=True)
    assert trace.jam_positions == (0,)  # kha and ga are now adjacent, same key


# ---------------------------------------------------------------------------
# decode
# ---------------------------------------------------------------------------

def test_decode_inverse_examples():
    layout = toy_layout()
    trace = KeystrokeTrace(presses=("5", "5", "5"), boundaries=((0, (0, 3)),),
                           jam_positions=())
    assert decode(trace, layout) == [unit_for("ছ")]
    empty = KeystrokeTrace(presses=(), boundaries=(), jam_positions=())
    assert decode(empty, layout) == []


def test_decode_rejects_corrupt_traces():
    layout = toy_layout()
    with pytest.raises(CorruptTraceError):
        decode(KeystrokeTrace(("2", "2"), ((0, (0, 2)),), ()), layout)  # no slot 2 on key 2
    with pytest.raises(CorruptTraceError):
        decode(KeystrokeTrace(("2", "4"), ((0, (0, 2)),), ()), layout)  # mixed keys
    with pytest.raises(CorruptTraceError):
        decode(KeystrokeTrace(("2",), ((0, (0, 2)),), ()), layout)  # out of bounds
    with pytest.raises(CorruptTraceError):
        decode(KeystrokeTrace(("2",), ((0, (1, 1)),), ()), layout)  # empty range


def test_decode_rejects_a_run_whose_last_press_is_on_another_key():
    layout = toy_layout()
    with pytest.raises(CorruptTraceError, match="press range 0..3 mixes keys"):
        decode(KeystrokeTrace(("5", "5", "4"), ((0, (0, 3)),), ()), layout)
    # the same presses split into their true runs decode
    assert decode(KeystrokeTrace(("5", "5", "4"), ((0, (0, 2)), (1, (2, 3))), ()),
                  layout) == [CA, KHA]


def test_roundtrip_random_texts_and_layouts():
    rng = random.Random(777)
    for _ in range(50):
        layout = random_full_layout(rng)
        text = random_text(rng, layout, rng.randint(0, 120))
        assert decode(transcribe(text, layout), layout) == text


# ---------------------------------------------------------------------------
# references: transcribe and decode unit by unit, as they were before the
# trace was read from unit codes
# ---------------------------------------------------------------------------

def reference_transcribe(units, layout, skip_untypable=False):
    positions = {}
    for key in KEYPAD_KEYS:
        for taps, unit in enumerate(layout.slots[key], start=1):
            positions[unit] = (key, taps)
    presses, boundaries, jams, skipped = [], [], [], []
    prev_key = None
    for pos, unit in enumerate(units):
        spot = positions.get(unit)
        if spot is None:
            if skip_untypable:
                skipped.append(pos)
                continue
            raise UntypableUnitError(unit, pos)
        key, taps = spot
        start = len(presses)
        presses.extend([key] * taps)
        if prev_key == key:
            jams.append(len(boundaries) - 1)
        boundaries.append((pos, (start, start + taps)))
        prev_key = key
    return KeystrokeTrace(tuple(presses), tuple(boundaries), tuple(jams), tuple(skipped))


def reference_decode(trace, layout):
    out = []
    for _pos, (start, end) in trace.boundaries:
        run = trace.presses[start:end]
        if not run or run.count(run[0]) != len(run) or len(run) > len(layout.slots[run[0]]):
            raise CorruptTraceError(f"press range {start}..{end}")
        out.append(layout.slots[run[0]][len(run) - 1])
    return out


FOREIGN = GraphemeUnit((0x41,), Category.SYMBOL, "A")  # outside the typable inventory


def test_a_unit_outside_the_inventory_is_untypable_in_a_trace_and_not_a_corpus_unit():
    # evaluate takes CorpusStats, which cannot hold such a unit
    with pytest.raises(ValueError, match="GraphemeUnit\\('A'\\) is not a typable unit"):
        CorpusStats.from_units([KA, FOREIGN])
    layout = toy_layout()
    with pytest.raises(UntypableUnitError) as exc_info:
        transcribe([KA, FOREIGN], layout)
    assert (exc_info.value.unit, exc_info.value.position) == (FOREIGN, 1)
    trace = transcribe([KA, FOREIGN], layout, skip_untypable=True)
    assert trace.skipped_positions == (1,)
    assert [pos for pos, _presses in trace.boundaries] == [0]


def thinned(layout, rng):
    """The layout without a random share of its units, and without roles."""
    share = rng.choice([0.0, 0.1, 0.5, 1.0])
    return Layout(slots={key: tuple(u for u in units if rng.random() >= share)
                         for key, units in layout.slots.items()}, name=layout.name)


@settings(max_examples=300, deadline=None)
@given(adversarial_texts, st.randoms(use_true_random=False), st.booleans(), st.booleans())
def test_transcribe_and_decode_equal_the_unit_references(text, rng, skip_untypable,
                                                          as_generator):
    layout = thinned(random_full_layout(rng), rng)
    units, _skipped = scan_units(text)
    if rng.random() < 0.3:
        units.insert(rng.randint(0, len(units)), FOREIGN)
    given_units = iter(units) if as_generator else units
    try:
        want = reference_transcribe(units, layout, skip_untypable)
    except UntypableUnitError as exc:
        with pytest.raises(UntypableUnitError) as got:
            transcribe(given_units, layout, skip_untypable)
        assert (got.value.unit, got.value.position) == (exc.unit, exc.position)
        return
    trace = transcribe(given_units, layout, skip_untypable)
    assert trace == want
    assert decode(trace, layout) == reference_decode(want, layout)


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def test_kspc_lower_bound_attained(model):
    layout = toy_layout()
    report = evaluate(CorpusStats.from_units([KA, KHA, GHA]), layout, model)  # all at slot 1
    assert report.kspc == 1.0
    assert report.press_count == report.unit_count == 3


def test_single_unit_has_no_jam(model):
    report = evaluate(CorpusStats.from_units([KA]), toy_layout(), model)
    assert report.jam_rate == 0.0


def test_empty_text(model):
    report = evaluate(CorpusStats.from_units([]), toy_layout(), model)
    assert report.kspc == 1.0
    assert report.expected_cost == 0.0
    assert report.unit_count == report.press_count == 0


def test_metrics_match_oracle_on_random_inputs(model):
    rng = random.Random(1234)
    for _ in range(20):
        layout = random_full_layout(rng)
        text = random_text(rng, layout, rng.randint(1, 300))
        report = evaluate(CorpusStats.from_units(text), layout, model)
        expected = oracle_metrics(text, layout, model)
        assert report.kspc == expected["kspc"]
        assert report.jam_rate == expected["jam_rate"]
        assert report.press_count == expected["press_count"]
        assert report.expected_cost == pytest.approx(expected["expected_cost"], rel=1e-12)
        for key in KEYPAD_KEYS:
            assert report.per_key_load[key] == expected["per_key_load"][key]
        assert sum(report.per_key_load.values()) == pytest.approx(1.0, abs=1e-12)
        assert report.kspc >= 1.0
        assert 0.0 <= report.jam_rate <= 1.0


def test_moving_unit_to_earlier_slot_never_hurts(model):
    # same key, unit moved from slot 3 to slot 1; texts avoid the swapped partner
    before = toy_layout()
    chha = unit_for("ছ")
    slots = dict(before.slots)
    slots["5"] = (chha, CA, GHA)  # chha promoted, gha demoted
    after = Layout(slots=slots, roles=before.roles, name="after")
    rng = random.Random(5)
    pool = [KA, KHA, GA, CA, chha, SPACE_UNIT]
    for _ in range(20):
        text = [rng.choice(pool) for _ in range(rng.randint(1, 60))]
        rb = evaluate(CorpusStats.from_units(text), before, model)
        ra = evaluate(CorpusStats.from_units(text), after, model)
        assert ra.kspc <= rb.kspc
        assert ra.expected_cost <= rb.expected_cost + 1e-12


def test_jam_rate_invariant_under_slot_relabeling(model):
    rng = random.Random(42)
    for _ in range(10):
        layout = random_full_layout(rng)
        shuffled_slots = {}
        for key, slot_list in layout.slots.items():
            reordered = list(slot_list)
            rng.shuffle(reordered)
            shuffled_slots[key] = tuple(reordered)
        # roles dropped: shuffling may move space/joiner inside their keys
        shuffled = Layout(slots=shuffled_slots, roles={}, name="shuffled")
        text = random_text(rng, layout, 200)
        assert (evaluate(CorpusStats.from_units(text), layout, model).jam_rate
                == evaluate(CorpusStats.from_units(text), shuffled, model).jam_rate)


# ---------------------------------------------------------------------------
# frozen fixture metrics (computed once, cross-checked against the oracle)
# ---------------------------------------------------------------------------

GOLDEN_1000 = {
    "serpentine": dict(kspc=2.156, expected_cost=1.5316555555555555,
                       jam_rate=0.03803803803803804, press_count=2156),
    "sequential": dict(kspc=2.499, expected_cost=1.4518499999999999,
                       jam_rate=0.04804804804804805, press_count=2499),
}


def test_fixture_slice_metrics_frozen(corpus_units, corpus_table, model):
    text = corpus_units[:1000]
    for strategy, expected in GOLDEN_1000.items():
        layout = build_layout(corpus_table, model, PlacementPolicy(Strategy(strategy)))
        report = evaluate(CorpusStats.from_units(text), layout, model)
        oracle = oracle_metrics(text, layout, model)
        assert report.kspc == expected["kspc"] == oracle["kspc"]
        assert report.jam_rate == expected["jam_rate"] == oracle["jam_rate"]
        assert report.press_count == expected["press_count"] == oracle["press_count"]
        assert report.expected_cost == expected["expected_cost"]
        assert report.expected_cost == pytest.approx(oracle["expected_cost"], rel=1e-12)
    serp = GOLDEN_1000["serpentine"]
    seq = GOLDEN_1000["sequential"]
    assert serp["jam_rate"] < seq["jam_rate"]


# ---------------------------------------------------------------------------
# evaluate_many: two layouts per pass over the corpus
# ---------------------------------------------------------------------------

def with_keys_swapped(layout, a, b):
    """The layout with the slots of keys a and b exchanged, and no roles."""
    slots = dict(layout.slots)
    slots[a], slots[b] = layout.slots[b], layout.slots[a]
    return Layout(slots=slots, name=layout.name)


def oracle_report(units, layout, model):
    """``oracle_metrics`` of the units the layout places, with the unit and skip counts."""
    placed = [u for u in units if layout.position(u) is not None]
    if not placed:
        return dict(kspc=1.0, expected_cost=0.0, jam_rate=0.0, press_count=0,
                    per_key_load=dict.fromkeys(KEYPAD_KEYS, 0.0), unit_count=0,
                    skipped_units=len(units))
    return dict(oracle_metrics(placed, layout, model), unit_count=len(placed),
                skipped_units=len(units) - len(placed))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5), st.randoms(use_true_random=False), st.booleans())
def test_evaluate_many_equals_the_oracle_and_evaluate(model, n_layouts, rng, skip_untypable):
    layouts = []
    for _ in range(n_layouts):
        if layouts and rng.random() < 0.25:  # the same layout twice
            layouts.append(rng.choice(layouts))
            continue
        layout = random_full_layout(rng)
        if rng.random() < 0.5:  # units on key 1 (index 0) and key # (index 11)
            layout = with_keys_swapped(layout, "1", rng.choice("#2"))
        if rng.random() < 0.3:  # a layout that lacks units
            layout = thinned(layout, rng)
        layouts.append(layout)
    # a few units, so that keys repeat and jam
    pool = rng.sample(ALL_UNITS, rng.randint(1, 8))
    units = [rng.choice(pool) for _ in range(rng.randint(0, 150))]
    stats = CorpusStats.from_units(units)

    untypable = [layout for layout in layouts
                 if any(layout.position(u) is None for u in units)]
    if untypable and not skip_untypable:
        first = next(pos for pos, u in enumerate(units) if untypable[0].position(u) is None)
        with pytest.raises(UntypableUnitError) as exc_info:
            evaluate_many(stats, layouts, model)
        assert (exc_info.value.unit, exc_info.value.position) == (units[first], first)
        return
    reports = evaluate_many(stats, layouts, model, skip_untypable)
    assert len(reports) == len(layouts)
    for layout, report in zip(layouts, reports):
        assert report == evaluate(stats, layout, model, skip_untypable)
        expected = oracle_report(units, layout, model)
        assert report.expected_cost == pytest.approx(expected.pop("expected_cost"), rel=1e-12)
        assert {name: getattr(report, name) for name in expected} == expected
        assert report.skipped_scalars == 0


def test_evaluate_many_on_the_fixture(corpus_path, corpus_units, corpus_table, model):
    stats = CorpusStats.read([corpus_path])
    serpentine, sequential = (build_layout(corpus_table, model, PlacementPolicy(strategy))
                              for strategy in (Strategy.SERPENTINE, Strategy.SEQUENTIAL))
    known = [serpentine, sequential, toy_layout()]
    fields = ("kspc", "jam_rate", "press_count", "unit_count", "skipped_units")
    expected = []
    for layout in known:
        oracle = oracle_report(corpus_units, layout, model)
        expected.append({name: oracle[name] for name in fields})
    for picks in ([0], [0, 1], [0, 2, 1], [1, 1], [2, 2, 0, 2]):
        layouts = [known[i] for i in picks]
        reports = evaluate_many(stats, layouts, model, skip_untypable=True)
        assert reports == [evaluate(stats, layout, model, True) for layout in layouts]
        for i, report in zip(picks, reports):
            assert {name: getattr(report, name) for name in fields} == expected[i]
