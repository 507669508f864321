"""Classification, counting, reading, ranking."""

import copy
import dataclasses
import pickle
import random
import re
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnkeypad import bn_text
from bnkeypad.bn_text import (
    ALL_UNITS,
    CONJUNCT_JOINER,
    CONSONANTS,
    INDEPENDENT_VOWELS,
    SPACE_UNIT,
    SYMBOLS,
    VOWEL_SIGNS,
    Category,
    CorpusStats,
    FrequencyTable,
    GraphemeUnit,
    classify_char,
    count_frequencies,
    count_unit_bigrams,
    format_frequency_tsv,
    parse_unit_token,
    rank_by_frequency,
    scan_units,
    unit_for,
    unit_token,
)
from bnkeypad.errors import CorpusDecodeError
from bnkeypad.layout import Layout

# ---------------------------------------------------------------------------
# independent re-statement of the classification table, used as the oracle
# ---------------------------------------------------------------------------

ORACLE_CONSONANTS = (
    set(range(0x0995, 0x09A9)) | set(range(0x09AA, 0x09B1)) | {0x09B2}
    | set(range(0x09B6, 0x09BA)) | {0x09DC, 0x09DD, 0x09DF}
)
ORACLE_VOWELS = {0x0985, 0x0986, 0x0987, 0x0988, 0x0989, 0x098A,
                 0x098B, 0x098F, 0x0990, 0x0993, 0x0994}
ORACLE_SIGNS = {0x09BE, 0x09BF, 0x09C0, 0x09C1, 0x09C2,
                0x09C3, 0x09C7, 0x09C8, 0x09CB, 0x09CC}
ORACLE_SYMBOLS = {ord(c) for c in "!\"$%,-.?^"} | {0x0964, 0x0981, 0x0982, 0x0983, 0x09CE}


def oracle_category(cp: int):
    if cp in ORACLE_CONSONANTS:
        return Category.CONSONANT
    if cp in ORACLE_VOWELS:
        return Category.INDEPENDENT_VOWEL
    if cp in ORACLE_SIGNS:
        return Category.VOWEL_SIGN
    if cp in ORACLE_SYMBOLS:
        return Category.SYMBOL
    if cp == 0x09CD:
        return Category.CONJUNCT_JOINER
    if cp == 0x0020:
        return Category.SPACE
    return None


def oracle_recount(text: str):
    """Brute-force second pass: per-codepoint counts plus skip tally."""
    counts: dict[int, int] = {}
    skipped = 0
    for ch in text:
        cp = ord(ch)
        if oracle_category(cp) is None:
            skipped += 1
        else:
            counts[cp] = counts.get(cp, 0) + 1
    return counts, skipped


def random_stream(rng: random.Random, n: int) -> str:
    typable = [chr(u.codepoints[0]) for u in ALL_UNITS]
    untypable = list("abcXYZ019\n\t‌‍০৳")
    pool = typable * 3 + untypable
    return "".join(rng.choices(pool, k=n))


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_examples():
    assert classify_char("ক") is Category.CONSONANT       # ka
    assert classify_char("অ") is Category.INDEPENDENT_VOWEL  # a
    assert classify_char("্") is Category.CONJUNCT_JOINER  # virama
    assert classify_char("A") is None
    assert classify_char(" ") is Category.SPACE
    assert classify_char("।") is Category.SYMBOL           # danda


def test_classification_is_total_and_matches_oracle():
    scalars = list(range(0x0000, 0x0100)) + list(range(0x0950, 0x0A10)) + [0x200C, 0x200D]
    for cp in scalars:
        ch = chr(cp)
        got = classify_char(ch)
        assert got == oracle_category(cp)
        assert classify_char(ch) == got  # deterministic


def test_inventory_sizes():
    assert len(CONSONANTS) == 35
    assert len(INDEPENDENT_VOWELS) == 11
    assert len(VOWEL_SIGNS) == 10
    assert len(SYMBOLS) == 14
    assert CONJUNCT_JOINER.codepoints == (0x09CD,)
    assert SPACE_UNIT.codepoints == (0x0020,)
    # every unit resolves back to itself
    for unit in ALL_UNITS:
        assert unit_for(unit.text) == unit


def test_digits_and_joiners_not_typable():
    for ch in "০৯‌‍":
        assert classify_char(ch) is None


def test_classify_rejects_multichar():
    with pytest.raises(ValueError):
        classify_char("ab")


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

def test_count_empty():
    table = count_frequencies("")
    assert table.total == 0
    assert table.counts == {}
    assert CorpusStats.from_text("").skipped == 0


def test_count_simple():
    table = count_frequencies("কককখ")  # ka ka ka kha
    ka, kha = unit_for("ক"), unit_for("খ")
    assert table.counts == {ka: 3, kha: 1}
    assert table.total == 4
    assert table.frequency(ka) == 0.75


def test_count_tracks_skipped_and_bytes():
    text = "কx\nখ"
    assert count_frequencies(text).total == 2
    stats = CorpusStats.from_text(text)
    assert stats.skipped == 2
    assert stats.source_bytes == len(text.encode("utf-8"))


def test_count_matches_bruteforce_recount():
    rng = random.Random(4711)
    text = random_stream(rng, 100_000)
    table = count_frequencies(text)
    expected_counts, expected_skipped = oracle_recount(text)
    assert {u.codepoints[0]: c for u, c in table.counts.items()} == expected_counts
    assert CorpusStats.from_text(text).skipped == expected_skipped
    assert table.total == sum(expected_counts.values())


def test_read_corpus_roundtrip(tmp_path):
    text = "কাখ ।"
    path = tmp_path / "c.txt"
    path.write_text(text, encoding="utf-8")
    stats = CorpusStats.read([path])
    assert stats == CorpusStats.from_text(text)
    assert stats.source_bytes == len(text.encode("utf-8"))


def test_read_corpus_bad_utf8_reports_offset(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes("ক".encode("utf-8") + b"\xff\x80")
    with pytest.raises(CorpusDecodeError) as exc_info:
        CorpusStats.read([path])
    assert exc_info.value.byte_offset == 3
    assert exc_info.value.code == "E_DECODE"


def test_table_invariant_checked():
    # the total is the sum of the counts, not a stored copy to keep in step
    ka = unit_for("ক")
    assert [f.name for f in dataclasses.fields(FrequencyTable)] == ["counts"]
    assert FrequencyTable({ka: 2, unit_for("খ"): 3}).total == 5
    with pytest.raises(TypeError):
        FrequencyTable({ka: 2}, total=5)


def test_table_refuses_a_unit_outside_the_inventory():
    # format_frequency_tsv would write a row for it
    foreign = GraphemeUnit((0x41,), Category.SYMBOL, "A")
    with pytest.raises(ValueError, match=r"^GraphemeUnit\('A'\) is not a typable unit$"):
        FrequencyTable.from_counts({unit_for("ক"): 1, foreign: 3})


@pytest.mark.parametrize("count", [1.5, float("inf"), float("nan"), True], ids=repr)
def test_table_refuses_a_count_that_is_not_an_int(count):
    # the error must name the unit
    ka = unit_for("ক")
    with pytest.raises(ValueError, match=re.escape(repr(ka))):
        FrequencyTable.from_counts({ka: count})


def test_restricted_subtable():
    table = count_frequencies("ককঅা ্")
    consonants = table.restricted([Category.CONSONANT])
    assert consonants.counts == {unit_for("ক"): 2}
    assert consonants.total == 2
    both = table.restricted([Category.CONSONANT, Category.SPACE])
    assert both.total == 3


# ---------------------------------------------------------------------------
# ranking
# ---------------------------------------------------------------------------

def test_rank_simple():
    table = count_frequencies("কককখ")
    assert rank_by_frequency(table) == [unit_for("ক"), unit_for("খ")]


def test_rank_tie_breaks_by_codepoint():
    table = count_frequencies("ককখখ")
    assert rank_by_frequency(table) == [unit_for("ক"), unit_for("খ")]


def test_rank_category_filter():
    table = count_frequencies("কঅা। ্")
    consonants_only = rank_by_frequency(table.restricted([Category.CONSONANT]))
    assert consonants_only == [unit_for("ক")]
    ranked = rank_by_frequency(table)
    assert sorted(u.codepoints for u in ranked) == sorted(u.codepoints for u in table.counts)


def test_rank_is_permutation_of_filtered_keys():
    rng = random.Random(7)
    table = count_frequencies(random_stream(rng, 5_000))
    ranked = rank_by_frequency(table)
    assert len(ranked) == len(table.counts)
    assert set(ranked) == set(table.counts)
    pairs = [(table.counts[u], u.codepoints) for u in ranked]
    for (c1, cp1), (c2, cp2) in zip(pairs, pairs[1:]):
        assert c1 > c2 or (c1 == c2 and cp1 < cp2)


def test_rank_of_given_units_puts_missing_units_last_in_codepoint_order():
    ka, kha, ga, gha = (unit_for(c) for c in "কখগঘ")
    table = FrequencyTable.from_counts({gha: 2, kha: 0, SPACE_UNIT: 5})
    # a missing unit ranks as a count of 0; a table unit not asked for is left out
    assert rank_by_frequency(table, [ga, kha, gha, ka]) == [gha, ka, kha, ga]
    assert rank_by_frequency(table, ()) == []


# ---------------------------------------------------------------------------
# tokens, bigrams, export
# ---------------------------------------------------------------------------

def test_unit_token_roundtrip():
    for unit in ALL_UNITS:
        assert parse_unit_token(unit_token(unit)) == unit
    assert unit_token(unit_for("ক")) == "U+0995"


@pytest.mark.parametrize("bad", ["", "0995", "U+ZZZZ", "U+0041", "U+0995+U+0996", "ka",
                                 "U+0x995", "U+09_95", "U+0_995", "U+ 995",
                                 "U+\uff10\uff19\uff19\uff15"])
def test_parse_unit_token_rejects(bad):
    with pytest.raises(ValueError):
        parse_unit_token(bad)


def reference_parse_unit_token(token: str):
    """The token parser as it was before the canonical-token table, reading
    each codepoint as ASCII hex digits alone."""
    unit_by_cps = {u.codepoints: u for u in ALL_UNITS}
    parts = token.split("+")
    if len(parts) < 2 or any(parts[i] != "U" for i in range(0, len(parts), 2)):
        raise ValueError(f"malformed unit token {token!r}")
    if not all(re.fullmatch("[0-9A-Fa-f]+", parts[i]) for i in range(1, len(parts), 2)):
        raise ValueError(f"malformed unit token {token!r}")
    cps = tuple(int(parts[i], 16) for i in range(1, len(parts), 2))
    unit = unit_by_cps.get(cps)
    if unit is None:
        raise ValueError(f"unknown unit {token!r}")
    return unit


@pytest.mark.parametrize("token, char", [
    ("U+995", "ক"), ("U+09be", "া"), ("U+00995", "ক"),
])
def test_parse_unit_token_accepts_non_canonical_spellings(token, char):
    assert parse_unit_token(token) == unit_for(char) == reference_parse_unit_token(token)


@st.composite
def spelled_tokens(draw):
    """``U+`` and one codepoint in any hex spelling ``int(..., 16)`` reads."""
    cp = draw(st.one_of(st.sampled_from([u.codepoints[0] for u in ALL_UNITS]),
                        st.integers(0, 0x10FFFF)))
    digits = draw(st.sampled_from([f"{cp:x}", f"{cp:X}", f"{cp:04X}"]))
    cut = draw(st.integers(0, len(digits)))
    if 0 < cut < len(digits) and draw(st.booleans()):
        digits = digits[:cut] + "_" + digits[cut:]
    prefix = draw(st.sampled_from(["", "0", "00", "0x", "0X", " "]))
    return "U+" + prefix + digits


TOKENS = st.one_of(
    st.sampled_from(ALL_UNITS).map(unit_token),
    spelled_tokens(),
    st.lists(st.one_of(st.sampled_from(ALL_UNITS).map(unit_token), spelled_tokens()),
             min_size=2, max_size=3).map("+".join),
    st.text(alphabet="U+0123456789abcdefABCDEFxX_ ,কা\uff10\uff19", max_size=14),
    st.text(max_size=8),
)


def _outcome(parse, token):
    try:
        return parse(token)
    except ValueError as exc:
        return ("ValueError", str(exc))


@settings(max_examples=500, deadline=None)
@given(TOKENS)
def test_parse_unit_token_matches_the_reference_parser(token):
    assert _outcome(parse_unit_token, token) == _outcome(reference_parse_unit_token, token)


def test_count_unit_bigrams():
    units, _ = scan_units("কখক")
    pairs = count_unit_bigrams(units)
    ka, kha = unit_for("ক"), unit_for("খ")
    assert pairs == {(ka, kha): 1, (kha, ka): 1}
    assert count_unit_bigrams([]) == {}


def test_frequency_tsv_golden():
    table = count_frequencies("কখক কঅ।")
    expected = (
        "codepoints\tcategory\tcount\tfrequency\n"
        "U+0995\tconsonant\t3\t0.428571429\n"
        "U+0020\tspace\t1\t0.142857143\n"
        "U+0964\tsymbol\t1\t0.142857143\n"
        "U+0985\tindependent_vowel\t1\t0.142857143\n"
        "U+0996\tconsonant\t1\t0.142857143\n"
    )
    assert format_frequency_tsv(table) == expected


def test_scan_units_positions():
    units, skipped = scan_units("কxখ")
    assert [u.text for u in units] == ["ক", "খ"]
    assert skipped == 1


# ---------------------------------------------------------------------------
# units are interned: one built by hand from an inventory unit's fields is
# that unit, so it keeps value semantics while hashing by identity
# ---------------------------------------------------------------------------

def hand_built(unit):
    """A unit built from fresh copies of the fields of ``unit``."""
    return GraphemeUnit(tuple(list(unit.codepoints)), Category(unit.category.value),
                        "".join(list(unit.display)))


SAMPLE_UNITS = [CONSONANTS[0], CONSONANTS[-1], INDEPENDENT_VOWELS[3], VOWEL_SIGNS[0],
                SYMBOLS[0], SYMBOLS[-1], CONJUNCT_JOINER, SPACE_UNIT]


@pytest.mark.parametrize("unit", SAMPLE_UNITS, ids=repr)
def test_a_hand_built_unit_equals_the_inventory_unit(unit):
    twin = hand_built(unit)
    assert twin == unit and hash(twin) == hash(unit)
    assert twin is unit
    assert twin != hand_built(ALL_UNITS[ALL_UNITS.index(unit) - 1])
    assert GraphemeUnit(unit.codepoints, unit.category, unit.display + "x") != unit


@pytest.mark.parametrize("unit", SAMPLE_UNITS, ids=repr)
def test_a_hand_built_unit_finds_the_same_entries(unit):
    twin = hand_built(unit)
    other = CONSONANTS[1] if unit is not CONSONANTS[1] else CONSONANTS[2]
    stats = CorpusStats.from_units([twin, other, twin, twin])
    assert stats == CorpusStats.from_units([unit, other, unit, unit])
    assert stats.counts_among([twin]) == {unit: 3}
    assert stats.pairs_among([twin]) == {(unit, unit): 1}
    assert stats.pairs_among([twin, other]) == {(unit, other): 1, (other, unit): 1,
                                                (unit, unit): 1}
    layout = Layout(slots={"2": (other, unit)}, roles={}, name="pair")
    assert layout.position(twin) == ("2", 2)
    table = FrequencyTable.from_counts({unit: 3, other: 1})
    assert table.counts[twin] == 3
    assert table.frequency(twin) == 0.75
    assert FrequencyTable.from_counts({twin: 3, other: 1}) == table


@pytest.mark.parametrize("unit", SAMPLE_UNITS + [GraphemeUnit((0x41,), Category.SYMBOL, "A")],
                         ids=repr)
def test_a_unit_survives_copy_deepcopy_and_pickle(unit):
    twin = hand_built(unit)
    copies = [copy.copy(twin), copy.deepcopy(twin), copy.deepcopy([twin])[0]]
    copies += [pickle.loads(pickle.dumps(twin, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for got in copies:
        assert got == unit and hash(got) == hash(unit)
        assert (got.codepoints, got.category, got.display) == (
            unit.codepoints, unit.category, unit.display)


def test_a_hand_built_unit_is_frozen():
    twin = hand_built(CONSONANTS[0])
    with pytest.raises(dataclasses.FrozenInstanceError):
        twin.display = "x"
    with pytest.raises(dataclasses.FrozenInstanceError):
        del twin.category
    assert CONSONANTS[0].display == "BENGALI LETTER KA"


def test_units_outside_the_inventory_compare_by_their_fields():
    a = GraphemeUnit((0x41,), Category.SYMBOL, "A")
    assert a == GraphemeUnit([0x41], Category.SYMBOL, "A")
    assert hash(a) == hash(GraphemeUnit((0x41,), Category.SYMBOL, "A"))
    assert a != GraphemeUnit((0x41,), Category.SPACE, "A")
    with pytest.raises(ValueError):
        GraphemeUnit((), Category.SYMBOL, "none")


def test_threads_that_build_one_unit_at_once_get_one_object():
    fields = ((0x10FFFF,), Category.SYMBOL, "threads")
    built = []

    def build():
        built.extend(GraphemeUnit(*fields) for _ in range(300))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(built) == 8 * 300
    assert len({id(unit) for unit in built}) == 1
