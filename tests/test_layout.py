"""Layout construction, invariants, and serialization."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import NAME_BREAKERS, TOY_LAYOUT_PATH, UNIT, random_full_layout

from bnkeypad.bn_text import (
    CONJUNCT_JOINER,
    CONSONANTS,
    INDEPENDENT_VOWELS,
    SPACE_UNIT,
    SYMBOLS,
    VOWEL_SIGNS,
    Category,
    FrequencyTable,
    GraphemeUnit,
    rank_by_frequency,
)
from bnkeypad.ergonomics import DEFAULT_CONSONANT_KEYS, default_model, rank_keys
from bnkeypad.errors import (
    IncompleteAlphabetError,
    LayoutInvariantError,
    LayoutSyntaxError,
)
from bnkeypad.layout import (
    DEFAULT_ROLES,
    Layout,
    PlacementPolicy,
    Role,
    Strategy,
    build_layout,
    deal_serpentine,
    deal_sequential,
    load_layout,
    parse,
    serialize,
)

CONSONANT_KEYS = ("2", "4", "5", "7", "3", "6", "8")


def descending_table(extra=0):
    """All units present; consonant ranked i gets count 1000 - i."""
    counts = {u: 1000 - i for i, u in enumerate(CONSONANTS)}
    for i, u in enumerate(VOWEL_SIGNS + SYMBOLS + INDEPENDENT_VOWELS):
        counts[u] = 500 - i
    counts[SPACE_UNIT] = 2000
    counts[CONJUNCT_JOINER] = 300 + extra
    return FrequencyTable.from_counts(counts)


def rank_positions(layout, ranked_consonants):
    """Map each key to the 1-based frequency ranks it carries."""
    ranks = {u: i + 1 for i, u in enumerate(ranked_consonants)}
    return {key: [ranks[u] for u in layout.slots[key]] for key in CONSONANT_KEYS}


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_serpentine_hand_enumerated_rank_sets(model):
    table = descending_table()
    layout = build_layout(table, model, PlacementPolicy(Strategy.SERPENTINE))
    by_key = rank_positions(layout, list(CONSONANTS))
    assert by_key["2"] == [1, 14, 15, 28, 29]
    assert by_key["8"] == [7, 8, 21, 22, 35]
    assert by_key["4"] == [2, 13, 16, 27, 30]
    assert by_key["6"] == [6, 9, 20, 23, 34]


def test_sequential_fills_keys_completely(model):
    table = descending_table()
    layout = build_layout(table, model, PlacementPolicy(Strategy.SEQUENTIAL))
    by_key = rank_positions(layout, list(CONSONANTS))
    assert by_key["2"] == [1, 2, 3, 4, 5]
    assert by_key["4"] == [6, 7, 8, 9, 10]
    assert by_key["8"] == [31, 32, 33, 34, 35]


def test_reserved_roles(model):
    layout = build_layout(descending_table(), model)
    assert layout.roles == DEFAULT_ROLES
    assert layout.slots["0"] == (SPACE_UNIT,)
    assert layout.slots["*"] == (CONJUNCT_JOINER,)
    assert layout.slots["#"] == ()
    assert set(layout.slots["1"]) == set(VOWEL_SIGNS + SYMBOLS)
    assert layout.slots["9"] == INDEPENDENT_VOWELS


def test_vowel_key_in_dictionary_order(model):
    layout = build_layout(descending_table(), model)
    vowel_cps = [u.codepoints[0] for u in layout.slots["9"]]
    assert vowel_cps == sorted(vowel_cps)
    assert len(vowel_cps) == 11


def test_symbol_key_frequency_ordered(model):
    table = descending_table()
    layout = build_layout(table, model)
    counts = [table.counts[u] for u in layout.slots["1"]]
    assert counts == sorted(counts, reverse=True)


def test_missing_consonant_rejected(model):
    table = descending_table()
    counts = dict(table.counts)
    nga = UNIT["ঙ"]
    del counts[nga]
    with pytest.raises(IncompleteAlphabetError) as e:
        build_layout(FrequencyTable.from_counts(counts), model)
    assert e.value.missing == (nga,)


def test_custom_strategy_uses_given_slots(model):
    table = descending_table()
    base = build_layout(table, model, PlacementPolicy(Strategy.SERPENTINE))
    custom = {key: base.slots[key] for key in CONSONANT_KEYS}
    rebuilt = build_layout(table, model,
                           PlacementPolicy(Strategy.CUSTOM, custom_slots=custom))
    assert all(rebuilt.slots[key] == base.slots[key] for key in CONSONANT_KEYS)
    incomplete = {key: slots[:-1] for key, slots in custom.items()}
    with pytest.raises(LayoutInvariantError):
        build_layout(table, model, PlacementPolicy(Strategy.CUSTOM, custom_slots=incomplete))


# ---------------------------------------------------------------------------
# dealing helpers
# ---------------------------------------------------------------------------

def test_single_round_deals_one_per_key():
    seven = list(CONSONANTS[:7])
    dealt = deal_serpentine(seven, CONSONANT_KEYS)
    assert all(len(dealt[key]) == 1 for key in CONSONANT_KEYS)
    assert dealt["2"] == (seven[0],)  # most frequent on most flexible key


@pytest.mark.parametrize("n,keys", [(35, 7), (10, 7), (1, 3), (12, 5), (8, 2), (9, 1)])
def test_serpentine_sizes_and_reconstruction(n, keys):
    units = list(CONSONANTS[:n])
    key_names = [str(i) for i in range(1, keys + 1)]
    dealt = deal_serpentine(units, key_names)
    sizes = [len(dealt[k]) for k in key_names]
    assert all(size in (n // keys, -(-n // keys)) for size in sizes)
    # concatenating the rounds reproduces the sorted input exactly
    rebuilt = []
    round_no = 0
    while True:
        order = key_names if round_no % 2 == 0 else list(reversed(key_names))
        row = [dealt[k][round_no] for k in order if round_no < len(dealt[k])]
        if not row:
            break
        rebuilt.extend(row)
        round_no += 1
    assert rebuilt == units


def test_sequential_chunks():
    units = list(CONSONANTS[:10])
    dealt = deal_sequential(units, ["a", "b", "c"][:3])
    assert dealt["a"] == tuple(units[0:4])
    assert dealt["b"] == tuple(units[4:8])
    assert dealt["c"] == tuple(units[8:10])


def test_random_frequencies_keep_invariants(model):
    rng = random.Random(2024)
    for _ in range(25):
        counts = {u: rng.randint(0, 1000) for u in CONSONANTS}
        counts.update({u: rng.randint(0, 500)
                       for u in VOWEL_SIGNS + SYMBOLS + INDEPENDENT_VOWELS})
        counts[SPACE_UNIT] = rng.randint(0, 5000)
        counts[CONJUNCT_JOINER] = rng.randint(0, 500)
        table = FrequencyTable.from_counts(counts)
        for strategy in (Strategy.SERPENTINE, Strategy.SEQUENTIAL):
            layout = build_layout(table, model, PlacementPolicy(strategy))
            placed = layout.units()
            assert len(placed) == len(set(placed))
            assert set(placed) >= set(CONSONANTS)
            # most frequent consonant sits at slot 1 of the most flexible key
            top = min(CONSONANTS, key=lambda u: (-counts[u], u.codepoints))
            assert layout.position(top) == ("2", 1)


# ---------------------------------------------------------------------------
# layout invariants
# ---------------------------------------------------------------------------

def test_duplicate_unit_rejected():
    ka = UNIT["ক"]
    with pytest.raises(LayoutInvariantError):
        Layout(slots={"2": (ka,), "3": (ka,)})


def test_duplicate_within_key_rejected():
    ka = UNIT["ক"]
    with pytest.raises(LayoutInvariantError):
        Layout(slots={"2": (ka, ka)})


def test_unit_outside_the_typable_inventory_rejected():
    foreign = GraphemeUnit((0x41,), Category.SYMBOL, "A")
    with pytest.raises(LayoutInvariantError, match="not in the typable inventory"):
        Layout(slots={"2": (foreign, UNIT["ক"])})


def test_space_and_link_slots_enforced():
    ka = UNIT["ক"]
    with pytest.raises(LayoutInvariantError):
        Layout(slots={"0": (SPACE_UNIT, ka)}, roles={Role.SPACE: "0"})
    with pytest.raises(LayoutInvariantError):
        Layout(slots={"*": (ka,)}, roles={Role.LINK: "*"})
    Layout(slots={"0": (SPACE_UNIT,), "*": (CONJUNCT_JOINER,)},
           roles={Role.SPACE: "0", Role.LINK: "*"})


def test_unknown_key_and_shared_role_rejected():
    with pytest.raises(LayoutInvariantError):
        Layout(slots={"q": ()})
    with pytest.raises(LayoutInvariantError):
        Layout(slots={}, roles={Role.SPACE: "0", Role.LINK: "0"})


def test_missing_keys_normalized_to_empty():
    layout = Layout(slots={"5": (UNIT["ক"],)})
    assert layout.slots["#"] == ()
    assert len(layout.slots) == 12


# ---------------------------------------------------------------------------
# position
# ---------------------------------------------------------------------------

def test_position_examples(model):
    layout = build_layout(descending_table(), model)
    first_on_5 = layout.slots["5"][0]
    assert layout.position(first_on_5) == ("5", 1)
    assert layout.position(SPACE_UNIT) == ("0", 1)
    orphan = Layout(slots={"5": (UNIT["ক"],)})
    assert orphan.position(UNIT["খ"]) is None


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_roundtrip_built_layout(model):
    layout = build_layout(descending_table(), model, name="proposed")
    assert parse(serialize(layout)) == layout


def test_serialization_is_canonical(model):
    layout = build_layout(descending_table(), model)
    doc = serialize(layout)
    assert serialize(parse(doc)) == doc


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False))
def test_roundtrip_random_layouts(rng):
    layout = random_full_layout(rng)
    assert parse(serialize(layout)) == layout


def test_parse_toy_fixture():
    layout = load_layout(TOY_LAYOUT_PATH)
    assert layout.name == "toy"
    assert layout.slots["2"] == (UNIT["ক"], UNIT["খ"])
    assert layout.slots["0"] == (SPACE_UNIT,)
    assert layout.slots["*"] == (CONJUNCT_JOINER,)
    assert layout.roles == {Role.LINK: "*", Role.SPACE: "0"}


def test_parse_duplicate_unit_is_invariant_error():
    doc = ("keypad-layout v1\n"
           "name\tdup\n"
           "roles\t\n"
           "2\tU+0995\n"
           "3\tU+0995\n")
    with pytest.raises(LayoutInvariantError):
        parse(doc)


@pytest.mark.parametrize("doc,line", [
    ("not-a-layout\n", 1),
    ("keypad-layout v1\n2\n", 2),
    ("keypad-layout v1\nq\tU+0995\n", 2),
    ("keypad-layout v1\n2\tU+0041\n", 2),
    ("keypad-layout v1\n2\tka\n", 2),
    ("keypad-layout v1\nroles\tspace=0,space=1\n", 2),
    ("keypad-layout v1\nroles\tboss=1\n", 2),
    ("keypad-layout v1\n2\tU+0995\n2\tU+0996\n", 3),
    ("keypad-layout v1\nname\ta\tb\n", 2),
    # int() reads these as hex, the layout format does not
    ("keypad-layout v1\n\n2\tU+0996,U+0_995\n", 3),
    ("keypad-layout v1\n2\tU+ 995\n", 2),
    ("keypad-layout v1\n2\tU+\uff10\uff19\uff19\uff15\n", 2),
])
def test_parse_syntax_errors_carry_line_numbers(doc, line):
    with pytest.raises(LayoutSyntaxError) as e:
        parse(doc)
    assert e.value.line_no == line


def test_parse_ignores_comments_and_blank_lines():
    doc = ("keypad-layout v1\n"
           "# comment line\n"
           "\n"
           "name\tcommented\n"
           "roles\t\n"
           "2\tU+0995\n")
    layout = parse(doc)
    assert layout.slots["2"] == (UNIT["ক"],)


@pytest.mark.parametrize("separator", NAME_BREAKERS)
def test_name_that_breaks_the_name_row_is_rejected(separator):
    with pytest.raises(ValueError, match="tabs or line breaks"):
        Layout(slots={}, name=f"a{separator}b")


@pytest.mark.parametrize("name", ["", "a b", "ক-1", "a\x1fb", "a\u00a0b"])
def test_other_names_round_trip(name):
    layout = Layout(slots={"2": (UNIT["ক"],)}, name=name)
    assert parse(serialize(layout)) == layout


def test_hash_key_row_is_not_a_comment():
    ka = UNIT["ক"]
    layout = Layout(slots={"#": (ka,)}, name="hash")
    again = parse(serialize(layout))
    assert again.slots["#"] == (ka,)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=len(CONSONANTS), max_size=len(CONSONANTS)),
       st.lists(st.none() | st.integers(0, 3), min_size=len(VOWEL_SIGNS + SYMBOLS),
                max_size=len(VOWEL_SIGNS + SYMBOLS)))
def test_build_layout_follows_the_frequency_order(consonant_counts, symbol_counts):
    # four count values tie many units; None leaves a symbol out of the table
    symbol_units = VOWEL_SIGNS + SYMBOLS
    counts = dict(zip(CONSONANTS, consonant_counts))
    counts.update((u, c) for u, c in zip(symbol_units, symbol_counts) if c is not None)
    table = FrequencyTable(counts)
    model = default_model()
    keys = rank_keys(model, DEFAULT_CONSONANT_KEYS)
    ranked = rank_by_frequency(table, CONSONANTS)
    sequential = build_layout(table, model, PlacementPolicy(Strategy.SEQUENTIAL))
    assert [u for key in keys for u in sequential.slots[key]] == ranked
    serpentine = build_layout(table, model)
    assert {key: serpentine.slots[key] for key in keys} == deal_serpentine(ranked, keys)
    symbol_key = DEFAULT_ROLES[Role.SYMBOL]
    assert (serpentine.slots[symbol_key] == sequential.slots[symbol_key]
            == tuple(rank_by_frequency(table, symbol_units)))
