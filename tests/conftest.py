from __future__ import annotations

import random
from pathlib import Path

import pytest
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
)
from bnkeypad.ergonomics import default_model
from bnkeypad.layout import DEFAULT_ROLES, Layout

FIXTURES = Path(__file__).parent / "fixtures"
CORPUS_PATH = FIXTURES / "corpus_bn.txt"
TOY_LAYOUT_PATH = FIXTURES / "toy_layout.tsv"

# A TAB, and every separator str.splitlines splits on: none may sit in a
# layout name, which the file keeps as one TAB-separated row.
NAME_BREAKERS = ["\t", "\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                 "\u2028", "\u2029"]

# Untypable scalars chosen to break a classifier that looks at low bytes:
# Devanagari shares the Bengali block's low bytes (U+0965 is untypable, its
# neighbour danda U+0964 typable), Latin-1 and Bengali digits sit next to
# typable scalars, astral scalars are surrogate pairs in UTF-16, lone
# surrogates are single code units, and Gujarati and General Punctuation
# share typable low bytes under other high bytes.
adversarial_chars = st.one_of(
    st.sampled_from([u.text for u in ALL_UNITS]),
    st.characters(min_codepoint=0x0900, max_codepoint=0x097F),
    st.characters(min_codepoint=0x0080, max_codepoint=0x00FF),
    st.sampled_from("\u200c\u200d\r\n০১২৩৪৫৬৭৮৯\u0965\u0964"),
    st.characters(min_codepoint=0x10000),
    st.characters(categories=["Cs"]),
    st.characters(min_codepoint=0x0A81, max_codepoint=0x0ADF),
    st.characters(min_codepoint=0x2020, max_codepoint=0x205E),
)
adversarial_texts = st.integers(0, 41).flatmap(
    lambda n: st.text(adversarial_chars, min_size=n, max_size=n))


@pytest.fixture(scope="session")
def model():
    return default_model()


@pytest.fixture(scope="session")
def corpus_path():
    return CORPUS_PATH


@pytest.fixture(scope="session")
def corpus_text():
    return bn_text.read_corpus(CORPUS_PATH)


@pytest.fixture(scope="session")
def corpus_units(corpus_text):
    units, _skipped = bn_text.scan_units(corpus_text)
    return units


@pytest.fixture(scope="session")
def corpus_table(corpus_text):
    return bn_text.count_frequencies(corpus_text)


def random_full_layout(rng: random.Random) -> Layout:
    """A random layout that places the whole typable inventory."""
    consonants = list(CONSONANTS)
    rng.shuffle(consonants)
    keys = ["2", "3", "4", "5", "6", "7", "8"]
    cuts = sorted(rng.sample(range(len(consonants) + 1), len(keys) - 1))
    chunks = []
    prev = 0
    for cut in cuts + [len(consonants)]:
        chunks.append(tuple(consonants[prev:cut]))
        prev = cut

    symbols = list(VOWEL_SIGNS + SYMBOLS)
    rng.shuffle(symbols)
    vowels = list(INDEPENDENT_VOWELS)
    rng.shuffle(vowels)

    slots = {key: chunk for key, chunk in zip(keys, chunks)}
    slots["9"] = tuple(vowels)
    slots["0"] = (SPACE_UNIT,)
    slots["*"] = (CONJUNCT_JOINER,)
    if rng.random() < 0.3 and len(symbols) > 4:
        tail = rng.randint(1, 4)
        slots["#"] = tuple(symbols[-tail:])
        slots["1"] = tuple(symbols[:-tail])
    else:
        slots["1"] = tuple(symbols)
    return Layout(slots=slots, roles=dict(DEFAULT_ROLES), name="random")


def random_text(rng: random.Random, layout: Layout, length: int):
    """A random typable unit sequence drawn from a layout's inventory."""
    pool = layout.units()
    return [rng.choice(pool) for _ in range(length)]
