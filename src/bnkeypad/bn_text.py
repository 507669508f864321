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
"""

from __future__ import annotations

import unicodedata
from collections import Counter
from dataclasses import dataclass
from enum import Enum
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


def scan_units(text: str) -> tuple[list[GraphemeUnit], int]:
    """Convert text to its typable unit sequence.

    Non-typable scalars are dropped; the second return value is how many
    were dropped.
    """
    units: list[GraphemeUnit] = []
    skipped = 0
    lookup = _UNIT_BY_CP
    for ch in text:
        unit = lookup.get(ord(ch))
        if unit is None:
            skipped += 1
        else:
            units.append(unit)
    return units, skipped


def count_frequencies(text: str) -> FrequencyTable:
    """Count every typable unit in ``text`` in one pass."""
    # Counter over the raw text is a single pass; classification then
    # happens once per distinct character.
    counts: dict[GraphemeUnit, int] = {}
    skipped = 0
    for ch, n in Counter(text).items():
        unit = _UNIT_BY_CP.get(ord(ch))
        if unit is None:
            skipped += n
        else:
            counts[unit] = n
    return FrequencyTable(counts, sum(counts.values()), len(text.encode("utf-8")), skipped)


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


def count_file(path) -> FrequencyTable:
    """Count one UTF-8 corpus file."""
    return count_frequencies(read_corpus(path))


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
    """Counts of adjacent unit pairs in a typable unit sequence."""
    pairs = Counter(zip(units, units[1:]))
    return dict(pairs)


# CorpusStats keeps its typable sequence as one code scalar per unit, the
# unit's index in ALL_UNITS: a text of Latin-1 scalars, which Python
# iterates, hashes and counts much faster than Bengali ones.
_CODE_BY_UNIT: dict[GraphemeUnit, str] = {u: chr(i) for i, u in enumerate(ALL_UNITS)}
_CODE_BY_CP: dict[int, str] = {u.codepoints[0]: chr(i) for i, u in enumerate(ALL_UNITS)}


@dataclass(frozen=True)
class CorpusStats:
    """Unit and adjacent-pair counts: enough for every typing metric.

    ``table`` holds the unit counts, skipped scalars and source bytes.
    ``bigrams`` counts adjacent units of the typable sequence of the whole
    corpus, so a pair that spans two sources counts like any other.
    ``typable`` is that sequence, one code scalar per unit; it locates a
    unit a layout lacks and lets evaluation recount without it. Build
    instances with :meth:`from_text` or :meth:`from_units`, and combine
    shards with :func:`merge_stats`.
    """

    table: FrequencyTable
    bigrams: Mapping[tuple[GraphemeUnit, GraphemeUnit], int]
    typable: str

    @classmethod
    def from_text(cls, text: str) -> "CorpusStats":
        """Statistics of a text; non-typable scalars are skipped and tallied."""
        codes = dict(_CODE_BY_CP)
        codes.update(dict.fromkeys(cp for cp in map(ord, set(text)) if cp not in _CODE_BY_CP))
        typable = text.translate(codes)
        return _counted(typable, len(text.encode("utf-8")), len(text) - len(typable))

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


def _counted(typable: str, source_bytes: int, skipped: int) -> CorpusStats:
    units = ALL_UNITS
    counts = {units[ord(c)]: n for c, n in Counter(typable).items()}
    bigrams = {(units[ord(a)], units[ord(b)]): n
               for (a, b), n in Counter(zip(typable, typable[1:])).items()}
    return CorpusStats(FrequencyTable(counts, len(typable), source_bytes, skipped),
                       bigrams, typable)


def merge_stats(a: CorpusStats, b: CorpusStats) -> CorpusStats:
    """Statistics of ``a``'s corpus followed by ``b``'s.

    Associative, with ``CorpusStats.from_text("")`` as identity; the pair
    across the seam is added, so shards merge to the single-pass result.
    """
    bigrams = dict(a.bigrams)
    for pair, n in b.bigrams.items():
        bigrams[pair] = bigrams.get(pair, 0) + n
    if a.typable and b.typable:
        seam = (ALL_UNITS[ord(a.typable[-1])], ALL_UNITS[ord(b.typable[0])])
        bigrams[seam] = bigrams.get(seam, 0) + 1
    return CorpusStats(merge(a.table, b.table), bigrams, a.typable + b.typable)


def format_frequency_tsv(table: FrequencyTable) -> str:
    """Canonical TSV export: codepoints, category, count, frequency (9 dp)."""
    lines = ["codepoints\tcategory\tcount\tfrequency"]
    for unit in rank_by_frequency(table):
        count = table.counts[unit]
        freq = count / table.total if table.total else 0.0
        lines.append(f"{unit_token(unit)}\t{unit.category.value}\t{count}\t{freq:.9f}")
    return "\n".join(lines) + "\n"
