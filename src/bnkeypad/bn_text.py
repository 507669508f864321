"""Bengali text classification and corpus letter-frequency analysis.

The typable inventory covers exactly what a 12-key phone keypad has to
carry: 35 consonants, 11 independent vowels, 10 vowel signs (kars), the
conjunct joiner (hasant, U+09CD), a 14-item symbol set, and the space.
Everything else -- Bengali digits, ZWJ/ZWNJ, foreign scripts, newlines --
is not typable; counting skips such scalars but tallies how many were
skipped.

Counting is per Unicode scalar, not per extended grapheme cluster: a
conjunct contributes its member consonants plus one joiner, which is how
the cluster is actually typed on the keypad (consonant, link key,
consonant).

Classification takes two C-level passes over a text. A negated character
class over the typable scalars deletes every untypable run. What is left
lies in the Basic Multilingual Plane, two bytes a scalar in UTF-16, and
the typable scalars have pairwise distinct low bytes (asserted at import),
so the low bytes alone name the units: one ``bytes.translate`` turns them
into unit codes.

Counting does only what its callers need. Each unit's count is the
number of bytes that deleting its code removes from the code bytes, one
memchr-speed pass a code. Adjacent pairs are counted only among a chosen
set of units (:meth:`CorpusStats.pairs_among`): every other unit becomes
a separator, and a pair that touches a separator is dropped before the
one ``Counter`` pass, so that pass sees the real pairs alone. The full
pair table ``CorpusStats.bigrams`` is the same routine over every unit.
"""

from __future__ import annotations

import re
import unicodedata
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence

from .errors import CorpusDecodeError


class Category(Enum):
    """Classes of typable units."""

    CONSONANT = "consonant"
    INDEPENDENT_VOWEL = "independent_vowel"
    VOWEL_SIGN = "vowel_sign"
    SYMBOL = "symbol"
    CONJUNCT_JOINER = "conjunct_joiner"
    SPACE = "space"


@dataclass(frozen=True)
class GraphemeUnit:
    """One typable unit: an ordered codepoint sequence plus its class."""

    codepoints: tuple[int, ...]
    category: Category
    display: str

    def __post_init__(self):
        if not self.codepoints:
            raise ValueError("GraphemeUnit needs at least one codepoint")

    @property
    def text(self) -> str:
        return "".join(chr(cp) for cp in self.codepoints)

    def __hash__(self):
        # the generated hash would also hash the Enum category, in Python code
        return hash(self.codepoints)

    def __repr__(self):
        # the glyph reads better than the codepoint tuple in test output
        return f"GraphemeUnit({self.text!r})"


def _name(cp: int) -> str:
    try:
        return unicodedata.name(chr(cp))
    except ValueError:
        return f"U+{cp:04X}"


def _make(cp: int, category: Category) -> GraphemeUnit:
    return GraphemeUnit((cp,), category, _name(cp))


# Unassigned codepoints inside the Bengali consonant range (09A9, 09B1,
# 09B3-09B5) are excluded; the three nukta consonants come after the range.
_CONSONANT_CPS = (
    *range(0x0995, 0x09A9),  # ka .. na
    *range(0x09AA, 0x09B1),  # pa .. ra
    0x09B2,                  # la
    *range(0x09B6, 0x09BA),  # sha, ssa, sa, ha
    0x09DC, 0x09DD, 0x09DF,  # rra, rha, yya
)

# The 11 vowels of the standard inventory; archaic vocalic L (098C) stays out.
_VOWEL_CPS = (
    0x0985, 0x0986, 0x0987, 0x0988, 0x0989, 0x098A,
    0x098B, 0x098F, 0x0990, 0x0993, 0x0994,
)

# One kar per vowel except inherent-vowel A, so 10 of them.
_VOWEL_SIGN_CPS = (
    0x09BE, 0x09BF, 0x09C0, 0x09C1, 0x09C2,
    0x09C3, 0x09C7, 0x09C8, 0x09CB, 0x09CC,
)

# Danda, comma, khanda-ta, anusvara, visarga, candrabindu, and the ASCII
# punctuation the symbol key carries.
_SYMBOL_CPS = (
    0x0021, 0x0022, 0x0024, 0x0025, 0x002C, 0x002D, 0x002E,
    0x003F, 0x005E, 0x0964, 0x0981, 0x0982, 0x0983, 0x09CE,
)

JOINER_CP = 0x09CD
SPACE_CP = 0x0020

CONSONANTS: tuple[GraphemeUnit, ...] = tuple(
    _make(cp, Category.CONSONANT) for cp in _CONSONANT_CPS
)
INDEPENDENT_VOWELS: tuple[GraphemeUnit, ...] = tuple(
    _make(cp, Category.INDEPENDENT_VOWEL) for cp in _VOWEL_CPS
)
VOWEL_SIGNS: tuple[GraphemeUnit, ...] = tuple(
    _make(cp, Category.VOWEL_SIGN) for cp in _VOWEL_SIGN_CPS
)
SYMBOLS: tuple[GraphemeUnit, ...] = tuple(
    _make(cp, Category.SYMBOL) for cp in _SYMBOL_CPS
)
CONJUNCT_JOINER: GraphemeUnit = _make(JOINER_CP, Category.CONJUNCT_JOINER)
SPACE_UNIT: GraphemeUnit = _make(SPACE_CP, Category.SPACE)

ALL_UNITS: tuple[GraphemeUnit, ...] = (
    CONSONANTS + INDEPENDENT_VOWELS + VOWEL_SIGNS + SYMBOLS
    + (CONJUNCT_JOINER, SPACE_UNIT)
)

_UNIT_BY_CP: dict[int, GraphemeUnit] = {u.codepoints[0]: u for u in ALL_UNITS}
_UNIT_BY_CPS: dict[tuple[int, ...], GraphemeUnit] = {u.codepoints: u for u in ALL_UNITS}


def classify_char(ch: str) -> Category | None:
    """Classify a single scalar; ``None`` means not typable.

    Total and deterministic: every scalar maps to exactly one category
    or to ``None``.
    """
    if len(ch) != 1:
        raise ValueError(f"expected a single character, got {ch!r}")
    unit = _UNIT_BY_CP.get(ord(ch))
    return unit.category if unit is not None else None


def unit_for(ch: str) -> GraphemeUnit | None:
    """Canonical unit for a scalar, or ``None`` if not typable."""
    if len(ch) != 1:
        raise ValueError(f"expected a single character, got {ch!r}")
    return _UNIT_BY_CP.get(ord(ch))


def unit_token(unit: GraphemeUnit) -> str:
    """Stable text token for a unit, e.g. ``U+0995`` (``+``-joined if several)."""
    return "+".join(f"U+{cp:04X}" for cp in unit.codepoints)


def parse_unit_token(token: str) -> GraphemeUnit:
    """Inverse of :func:`unit_token`; raises ``ValueError`` for unknown units."""
    parts = token.split("+")
    # "U+0995" splits into ["U", "0995"]; multi-codepoint tokens alternate.
    if len(parts) < 2 or any(parts[i] != "U" for i in range(0, len(parts), 2)):
        raise ValueError(f"malformed unit token {token!r}")
    try:
        cps = tuple(int(parts[i], 16) for i in range(1, len(parts), 2))
    except ValueError:
        raise ValueError(f"malformed unit token {token!r}") from None
    unit = _UNIT_BY_CPS.get(cps)
    if unit is None:
        raise ValueError(f"unknown unit {token!r}")
    return unit


@dataclass(frozen=True)
class FrequencyTable:
    """Per-unit occurrence counts over a corpus.

    ``total`` is the number of typable scalars consumed, ``skipped`` the
    number of non-typable ones, and ``source_bytes`` the UTF-8 size of
    the corpus. Treat instances as immutable; ``merge`` builds new ones.
    """

    counts: Mapping[GraphemeUnit, int]
    total: int
    source_bytes: int = 0
    skipped: int = 0

    def __post_init__(self):
        if any(c < 0 for c in self.counts.values()):
            raise ValueError("counts must be non-negative")
        if self.total != sum(self.counts.values()):
            raise ValueError("total must equal the sum of counts")

    @classmethod
    def from_counts(cls, counts: Mapping[GraphemeUnit, int], source_bytes: int = 0,
                    skipped: int = 0) -> "FrequencyTable":
        counts = dict(counts)
        return cls(counts, sum(counts.values()), source_bytes, skipped)

    @classmethod
    def empty(cls) -> "FrequencyTable":
        return cls({}, 0, 0, 0)

    def frequency(self, unit: GraphemeUnit) -> float:
        """Normalized frequency count/total, 0.0 for an empty table."""
        if self.total == 0:
            return 0.0
        return self.counts.get(unit, 0) / self.total

    def restricted(self, categories: Iterable[Category]) -> "FrequencyTable":
        """Sub-table keeping only units of the given categories."""
        wanted = set(categories)
        counts = {u: c for u, c in self.counts.items() if u.category in wanted}
        return FrequencyTable.from_counts(counts, self.source_bytes, self.skipped)


# A unit's code is its index in ALL_UNITS. Typable sequences are kept as
# one code per unit: Latin-1 scalars, which Python iterates, hashes and
# counts much faster than Bengali ones.
_CODE_BY_UNIT: dict[GraphemeUnit, str] = {u: chr(i) for i, u in enumerate(ALL_UNITS)}

_UNTYPABLE = re.compile("[^%s]+" % "".join(re.escape(u.text) for u in ALL_UNITS))
_LOW_BYTES = bytes(u.codepoints[0] & 0xFF for u in ALL_UNITS)
assert len(set(_LOW_BYTES)) == len(ALL_UNITS), "typable scalars must differ in their low byte"
_CODE_BY_LOW_BYTE = bytes.maketrans(_LOW_BYTES, bytes(range(len(ALL_UNITS))))
_CODE_BYTES = tuple(bytes((code,)) for code in range(len(ALL_UNITS)))

# pairs_among's separator; codes stay below it, so only a pair of two
# separators reads as U+FFFF in UTF-16-LE
_SEPARATOR = 0xFF
assert len(ALL_UNITS) < _SEPARATOR
_SEPARATOR_MASK = bytes(_SEPARATOR if b == _SEPARATOR else 0 for b in range(256))


def _codes(text: str) -> tuple[bytes, int]:
    """The codes of the typable scalars of ``text``, and how many others it has."""
    kept = _UNTYPABLE.sub("", text)
    return kept.encode("utf-16-le")[::2].translate(_CODE_BY_LOW_BYTE), len(text) - len(kept)


def scan_units(text: str) -> tuple[list[GraphemeUnit], int]:
    """Convert text to its typable unit sequence.

    Non-typable scalars are dropped; the second return value is how many
    were dropped.
    """
    codes, skipped = _codes(text)
    units = ALL_UNITS
    return [units[c] for c in codes], skipped


def count_frequencies(text: str) -> FrequencyTable:
    """Count every typable unit in ``text``."""
    return CorpusStats.from_text(text).table


def decode_corpus(raw: bytes, source: str) -> str:
    """UTF-8 text of corpus bytes; invalid bytes raise :class:`CorpusDecodeError`."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorpusDecodeError(source, exc.start, exc.reason) from None


def decode_document(raw: bytes, syntax_error: Callable[[int, str], Exception]) -> str:
    """UTF-8 text of a layout or model file's bytes.

    An invalid byte raises ``syntax_error(line_no, message)`` with the
    1-based line of the byte, counting lines as ``str.splitlines`` does.
    """
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = raw[:exc.start].decode("utf-8")
        # the bad byte starts a new line when the text before it ends in a break
        line_no = len((before + "?").splitlines())
        raise syntax_error(line_no, f"invalid UTF-8 at byte offset {exc.start} "
                                    f"({exc.reason})") from None


def read_corpus(path) -> str:
    """Read a UTF-8 file; invalid bytes raise :class:`CorpusDecodeError`."""
    with open(path, "rb") as fh:
        return decode_corpus(fh.read(), str(path))


def merge(a: FrequencyTable, b: FrequencyTable) -> FrequencyTable:
    """Pointwise sum of two tables (associative, commutative, empty identity)."""
    counts = dict(a.counts)
    for unit, c in b.counts.items():
        counts[unit] = counts.get(unit, 0) + c
    return FrequencyTable(counts, a.total + b.total,
                          a.source_bytes + b.source_bytes,
                          a.skipped + b.skipped)


def rank_by_frequency(table: FrequencyTable,
                      categories: Iterable[Category] | None = None) -> list[GraphemeUnit]:
    """Units of the table sorted by count descending, codepoint ascending."""
    if categories is not None:
        wanted = set(categories)
        units = [u for u in table.counts if u.category in wanted]
    else:
        units = list(table.counts)
    units.sort(key=lambda u: (-table.counts[u], u.codepoints))
    return units


def count_unit_bigrams(units: Sequence[GraphemeUnit]) -> dict[tuple[GraphemeUnit, GraphemeUnit], int]:
    """Counts of adjacent unit pairs in a sequence of units from :data:`ALL_UNITS`."""
    return CorpusStats.from_units(units).bigrams


@dataclass(frozen=True)
class CorpusStats:
    """Unit counts and the typable sequence, from which every typing metric follows.

    ``table`` holds the unit counts, skipped scalars and source bytes.
    ``typable`` is the typable sequence of the whole corpus, one code
    scalar per unit; evaluation reads its jams from it, and it locates a
    unit a layout lacks and lets evaluation recount without it.
    :meth:`pairs_among` counts its adjacent pairs of chosen units, so a
    pair that spans two sources counts like any other; the optimizer's jam
    term asks for the pairs of its instance's units alone. ``bigrams`` is
    ``pairs_among(ALL_UNITS)``, computed on first use, and no command
    builds it. Build instances with :meth:`from_text` or
    :meth:`from_units`, and combine shards with :func:`merge_stats`.

    :meth:`from_text` classifies in two C-level passes (see the module
    docstring). Each unit's count is how many bytes deleting its code
    removes from the code bytes, so no ``Counter`` looks at each code.
    """

    table: FrequencyTable
    typable: str

    @classmethod
    def from_text(cls, text: str) -> "CorpusStats":
        """Statistics of a text; non-typable scalars are skipped and tallied."""
        codes, skipped = _codes(text)
        return _counted(codes.decode("latin-1"), len(text.encode("utf-8")), skipped)

    @classmethod
    def from_units(cls, units: Iterable[GraphemeUnit]) -> "CorpusStats":
        """Statistics of a sequence of units from :data:`ALL_UNITS`."""
        try:
            typable = "".join([_CODE_BY_UNIT[u] for u in units])
        except KeyError as exc:
            raise ValueError(f"{exc.args[0]!r} is not a typable unit") from None
        return _counted(typable, 0, 0)

    def first_position(self, unit: GraphemeUnit) -> int:
        """Index of the first ``unit`` in the typable sequence, -1 if absent."""
        return self.typable.find(_CODE_BY_UNIT[unit])

    def without(self, units: Iterable[GraphemeUnit]) -> "CorpusStats":
        """The statistics after deleting every occurrence of ``units``.

        Deletion joins each deleted run's neighbours into a new pair.
        """
        typable = self.typable.translate({ord(_CODE_BY_UNIT[u]): None for u in units})
        return _counted(typable, self.table.source_bytes, self.table.skipped)

    def pairs_among(self, units: Iterable[GraphemeUnit]
                    ) -> dict[tuple[GraphemeUnit, GraphemeUnit], int]:
        """Counts of the adjacent pairs of ``typable`` whose two units are in ``units``.

        ``units`` may repeat a unit; one outside :data:`ALL_UNITS` raises
        ``ValueError``. Codes are below 256, so the two codes of a pair
        make one 16-bit window of the code bytes, read as UTF-16-LE (the
        host's byte order plays no part). The windows at even offsets hold
        the pairs that start at even positions, those at odd offsets the
        rest. Each unit not chosen becomes the separator byte, and a
        window holding one gets the separator in both bytes: U+FFFF, which
        is deleted before counting.
        """
        index = bytearray((_SEPARATOR,)) * 256
        for unit in units:
            try:
                code = ord(_CODE_BY_UNIT[unit])
            except KeyError:
                raise ValueError(f"{unit!r} is not a typable unit") from None
            index[code] = code
        data = self.typable.encode("latin-1").translate(index)
        separators = data.translate(_SEPARATOR_MASK)
        pairs: Counter[str] = Counter()
        for start in (0, 1):
            n = max(len(data) - start, 0) // 2
            firsts, seconds = slice(start, start + 2 * n, 2), slice(start + 1, start + 2 * n, 2)
            mask = (int.from_bytes(separators[firsts], "little")
                    | int.from_bytes(separators[seconds], "little"))
            windows = bytearray(2 * n)
            windows[0::2] = (int.from_bytes(data[firsts], "little") | mask).to_bytes(n, "little")
            windows[1::2] = (int.from_bytes(data[seconds], "little") | mask).to_bytes(n, "little")
            pairs.update(windows.decode("utf-16-le").replace("\uffff", ""))
        all_units = ALL_UNITS
        return {(all_units[ord(p) & 0xFF], all_units[ord(p) >> 8]): c for p, c in pairs.items()}

    @cached_property
    def bigrams(self) -> dict[tuple[GraphemeUnit, GraphemeUnit], int]:
        """Counts of all adjacent unit pairs of ``typable``."""
        return self.pairs_among(ALL_UNITS)


def _counted(typable: str, source_bytes: int, skipped: int) -> CorpusStats:
    data = typable.encode("latin-1")
    n = len(data)
    counts = {}
    for unit, code in zip(ALL_UNITS, _CODE_BYTES):
        count = n - len(data.replace(code, b""))
        if count:
            counts[unit] = count
    return CorpusStats(FrequencyTable(counts, n, source_bytes, skipped), typable)


def merge_stats(a: CorpusStats, b: CorpusStats) -> CorpusStats:
    """Statistics of ``a``'s corpus followed by ``b``'s.

    Associative, with ``CorpusStats.from_text("")`` as identity. The
    typable sequences are joined, so the pair across the seam counts and
    shards merge to the single-pass result.
    """
    return CorpusStats(merge(a.table, b.table), a.typable + b.typable)


def format_frequency_tsv(table: FrequencyTable) -> str:
    """Canonical TSV export: codepoints, category, count, frequency (9 dp)."""
    lines = ["codepoints\tcategory\tcount\tfrequency"]
    for unit in rank_by_frequency(table):
        lines.append(f"{unit_token(unit)}\t{unit.category.value}\t{table.counts[unit]}"
                     f"\t{table.frequency(unit):.9f}")
    return "\n".join(lines) + "\n"
