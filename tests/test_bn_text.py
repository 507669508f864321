"""Classification, counting, merging, ranking."""

import random

import pytest

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
    FrequencyTable,
    classify_char,
    count_frequencies,
    count_unit_bigrams,
    format_frequency_tsv,
    merge,
    parse_unit_token,
    rank_by_frequency,
    scan_units,
    unit_for,
    unit_token,
)
from bnkeypad.errors import CorpusDecodeError

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
    assert table.skipped == 0


def test_count_simple():
    table = count_frequencies("কককখ")  # ka ka ka kha
    ka, kha = unit_for("ক"), unit_for("খ")
    assert table.counts == {ka: 3, kha: 1}
    assert table.total == 4
    assert table.frequency(ka) == 0.75


def test_count_tracks_skipped_and_bytes():
    text = "কx\nখ"
    table = count_frequencies(text)
    assert table.total == 2
    assert table.skipped == 2
    assert table.source_bytes == len(text.encode("utf-8"))


def test_count_matches_bruteforce_recount():
    rng = random.Random(4711)
    text = random_stream(rng, 100_000)
    table = count_frequencies(text)
    expected_counts, expected_skipped = oracle_recount(text)
    assert {u.codepoints[0]: c for u, c in table.counts.items()} == expected_counts
    assert table.skipped == expected_skipped
    assert table.total == sum(expected_counts.values())


def test_read_corpus_roundtrip(tmp_path):
    text = "কাখ ।"
    path = tmp_path / "c.txt"
    path.write_text(text, encoding="utf-8")
    assert bn_text.read_corpus(path) == text


def test_read_corpus_bad_utf8_reports_offset(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes("ক".encode("utf-8") + b"\xff\x80")
    with pytest.raises(CorpusDecodeError) as exc_info:
        bn_text.read_corpus(path)
    assert exc_info.value.byte_offset == 3
    assert exc_info.value.code == "E_DECODE"


# ---------------------------------------------------------------------------
# merge
# ---------------------------------------------------------------------------

def test_merge_identity_and_commutativity():
    table = count_frequencies("কখক অ")
    empty = FrequencyTable.empty()
    assert merge(table, empty) == table
    assert merge(empty, table) == table
    other = count_frequencies("খ্গ")
    assert merge(table, other) == merge(other, table)


def test_merge_associativity():
    a = count_frequencies("কক")
    b = count_frequencies("খ ")
    c = count_frequencies("অা।")
    assert merge(merge(a, b), c) == merge(a, merge(b, c))


def test_merge_over_shards_equals_single_pass():
    rng = random.Random(99)
    text = random_stream(rng, 20_000)
    whole = count_frequencies(text)
    step = len(text) // 10
    shards = [text[i:i + step] for i in range(0, len(text), step)]
    merged = FrequencyTable.empty()
    for shard in shards:
        merged = merge(merged, count_frequencies(shard))
    assert merged == whole


def test_table_invariant_checked():
    ka = unit_for("ক")
    with pytest.raises(ValueError):
        FrequencyTable({ka: 2}, total=5)


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
    consonants_only = rank_by_frequency(table, [Category.CONSONANT])
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


# ---------------------------------------------------------------------------
# tokens, bigrams, export
# ---------------------------------------------------------------------------

def test_unit_token_roundtrip():
    for unit in ALL_UNITS:
        assert parse_unit_token(unit_token(unit)) == unit
    assert unit_token(unit_for("ক")) == "U+0995"


@pytest.mark.parametrize("bad", ["", "0995", "U+ZZZZ", "U+0041", "U+0995+U+0996", "ka"])
def test_parse_unit_token_rejects(bad):
    with pytest.raises(ValueError):
        parse_unit_token(bad)


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
