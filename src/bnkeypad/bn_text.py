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

Classification reads the text's UTF-16 code units as two byte planes,
low bytes and high bytes. The typable scalars lie in the Basic
Multilingual Plane and have pairwise distinct low bytes (asserted at
import), so each low byte names at most one unit and fixes the high byte
that unit has. One ``bytes.translate`` turns the low plane into the high
plane it should have; when that equals the real high plane, one more
``translate`` maps the low bytes to unit codes and deletes the untypable
ones. Otherwise the two planes are XOR-ed as integers, each code unit
whose high byte differs (another block's scalar, a surrogate) gets the
untypable low byte 0xFF, and the same ``translate`` deletes it too.

Counting does only what its callers need, when they ask for it, and it
peels: one ``translate`` deletes every code not asked for, and then each
code asked for is deleted from what is left, one pass each, most frequent
first; its count is how much shorter that leaves the bytes. The order
comes from an evenly spaced sample of about a thousand codes of what is
left, drawn again until less than a sample is left, which one ``Counter``
counts (a short text is counted by it alone). So each code is deleted at
most once: at most 72 deleting passes, each over what is left. A deleting
pass branches on each byte it deletes, so on varied text with a skewed
unit distribution, as real corpora have, peeling pays about one
mispredicted branch per unit, and its passes shrink as the frequent codes
go. It gains less, or loses, on text spread evenly over the codes, whose
passes shrink slowly, and on text that repeats a few lines, whose
branches are predicted well. Each :meth:`CorpusStats.counts_among` call
counts exactly the codes it names.
Adjacent pairs are counted only among a chosen set of units
(:meth:`CorpusStats.pairs_among`): every other unit becomes a separator
byte. The code bytes, read as one integer, are cut into 16-bit windows at
even and at odd offsets, and a mask fills each window that touches a
separator with separator bytes. One ``translate`` deletes those bytes,
which drops such windows whole, and one ``Counter`` pass over both
offsets sees the real pairs alone. The full pair table
``CorpusStats.bigrams`` is the same routine over every unit.
"""

from __future__ import annotations

import sys
import unicodedata
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from math import isfinite
from threading import Lock
from typing import Callable, Iterable, Iterator, Mapping, Sequence
from weakref import WeakValueDictionary

from .errors import CorpusDecodeError


class Category(Enum):
    """Classes of typable units."""

    CONSONANT = "consonant"
    INDEPENDENT_VOWEL = "independent_vowel"
    VOWEL_SIGN = "vowel_sign"
    SYMBOL = "symbol"
    CONJUNCT_JOINER = "conjunct_joiner"
    SPACE = "space"


# every unit alive, by its fields; see GraphemeUnit
_UNITS: WeakValueDictionary = WeakValueDictionary()
_UNITS_LOCK = Lock()


@dataclass(frozen=True, eq=False, init=False)
class GraphemeUnit:
    """One typable unit: an ordered codepoint sequence plus its class.

    Units are interned: building a unit from the fields of an existing one
    returns that unit, and a copy, a deep copy or an unpickled unit is that
    unit too. So equal units are the same object, and equality and hashing
    are by identity, which runs no Python code on a dict lookup.
    """

    codepoints: tuple[int, ...]
    category: Category
    display: str

    def __new__(cls, codepoints, category, display):
        fields = (tuple(codepoints), category, display)
        # two threads that build one unit at once must get one object
        with _UNITS_LOCK:
            unit = _UNITS.get(fields)
            if unit is None:
                if not fields[0]:
                    raise ValueError("GraphemeUnit needs at least one codepoint")
                unit = _UNITS[fields] = super().__new__(cls)
                for name, value in zip(("codepoints", "category", "display"), fields):
                    object.__setattr__(unit, name, value)
        return unit

    def __reduce__(self):
        return GraphemeUnit, (self.codepoints, self.category, self.display)

    @property
    def text(self) -> str:
        return "".join(chr(cp) for cp in self.codepoints)

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


# The canonical token of every unit; other spellings of a unit (lower-case
# or unpadded hex, say) go through the parser in parse_unit_token
_UNIT_BY_TOKEN: dict[str, GraphemeUnit] = {unit_token(u): u for u in ALL_UNITS}
_HEX_DIGITS = "0123456789abcdefABCDEF"


def parse_unit_token(token: str) -> GraphemeUnit:
    """Inverse of :func:`unit_token`; raises ``ValueError`` for unknown units."""
    unit = _UNIT_BY_TOKEN.get(token)
    if unit is not None:
        return unit
    parts = token.split("+")
    # "U+0995" splits into ["U", "0995"]; multi-codepoint tokens alternate.
    # Each codepoint is ASCII hex digits alone: int() would also read a
    # "0x", "_", spaces and non-ASCII digits.
    if (len(parts) < 2 or any(parts[i] != "U" for i in range(0, len(parts), 2))
            or not all(part and not part.strip(_HEX_DIGITS) for part in parts[1::2])):
        raise ValueError(f"malformed unit token {token!r}")
    cps = tuple(int(part, 16) for part in parts[1::2])
    unit = _UNIT_BY_CPS.get(cps)
    if unit is None:
        raise ValueError(f"unknown unit {token!r}")
    return unit


def _check_int(name: str, value, low: int, high: int | None = None, of=None) -> None:
    """Refuse a ``value`` that is not an ``int`` in ``low..high``; ``bool`` is not one.

    The message calls the value ``name``, or ``name of {of!r}`` when ``of``
    is given; ``of`` is formatted only when the check fails, so checking a
    table of counts formats no unit.
    """
    if type(value) is int and value >= low and (high is None or value <= high):
        return
    if of is not None:
        name = f"{name} of {of!r}"
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {value!r}")
    bound = f">= {low}" if value < low else f"<= {high}"
    raise ValueError(f"{name} must be {bound}, got {value}")


def _check_float(name: str, value: float, positive: bool = False) -> None:
    """Refuse a ``value`` that is not finite or is below 0, or at 0 if ``positive``."""
    if not (isfinite(value) and (value > 0 if positive else value >= 0)):
        raise ValueError(f"{name} must be finite and {'>' if positive else '>='} 0, got {value}")


@dataclass(frozen=True)
class FrequencyTable:
    """Per-unit occurrence counts; ``total`` is their sum.

    Each unit is one of :data:`ALL_UNITS` and each count a non-negative
    ``int``; a corpus's untypable scalars and size are
    ``CorpusStats.skipped`` and ``CorpusStats.source_bytes``. Treat
    instances as immutable.
    """

    counts: Mapping[GraphemeUnit, int]

    def __post_init__(self):
        for unit, count in self.counts.items():
            _code(unit)
            _check_int("count", count, 0, of=unit)

    @cached_property
    def total(self) -> int:
        return sum(self.counts.values())

    @classmethod
    def from_counts(cls, counts: Mapping[GraphemeUnit, int]) -> "FrequencyTable":
        return cls(dict(counts))

    def frequency(self, unit: GraphemeUnit) -> float:
        """Normalized frequency count/total, 0.0 for an empty table."""
        if self.total == 0:
            return 0.0
        return self.counts.get(unit, 0) / self.total

    def restricted(self, categories: Iterable[Category]) -> "FrequencyTable":
        """Sub-table keeping only units of the given categories."""
        wanted = set(categories)
        counts = {u: c for u, c in self.counts.items() if u.category in wanted}
        return FrequencyTable.from_counts(counts)


# A unit's code is its index in ALL_UNITS. Typable sequences are kept as
# one code byte per unit, which bytes methods scan, count and translate in C.
_CODE_BY_UNIT: dict[GraphemeUnit, int] = {u: i for i, u in enumerate(ALL_UNITS)}
_FOREIGN_CODE = 0xFF  # the code of a unit outside ALL_UNITS, which no layout places

# each typable scalar's high byte in UTF-16, keyed by its low byte in
# ALL_UNITS order
_HIGH_BY_LOW = {u.codepoints[0] & 0xFF: u.codepoints[0] >> 8 for u in ALL_UNITS}
assert len(_HIGH_BY_LOW) == len(ALL_UNITS), "typable scalars must differ in their low byte"
assert max(_HIGH_BY_LOW.values()) <= 0xFF, "typable scalars must lie in the BMP"
_CODE_BY_LOW_BYTE = bytes.maketrans(bytes(_HIGH_BY_LOW), bytes(range(len(ALL_UNITS))))
_UNTYPABLE_LOW_BYTES = bytes(b for b in range(256) if b not in _HIGH_BY_LOW)
# An untypable low byte is deleted whatever its high byte, so it may expect
# any; expecting the ASCII block below 0x80 and the Bengali block above
# keeps newlines and Bengali digits on the branch without the mask.
_EXPECTED_HIGH_BYTE = bytes(_HIGH_BY_LOW.get(b, 0x09 if b >= 0x80 else 0x00)
                            for b in range(256))
# a code unit with an unexpected high byte gets the low byte 0xFF, which
# no typable scalar has
assert 0xFF not in _HIGH_BY_LOW
_MISMATCH_MARK = b"\x00" + b"\xff" * 255

# _peeled_counts reads at most this many codes of what is left at a time; a
# larger sample's Counter costs more than it saves
_SAMPLE_SIZE = 1024
_BYTE_VALUES = frozenset(range(256))

# pairs_among's separator byte; codes stay below it, so a window of two
# codes holds no separator byte
_SEPARATOR = 0xFF
assert len(ALL_UNITS) < _SEPARATOR
_SEPARATOR_BYTE = bytes((_SEPARATOR,))
_SEPARATOR_MASK = bytes(_SEPARATOR if b == _SEPARATOR else 0 for b in range(256))


def _codes(text: str) -> tuple[bytes, int]:
    """The codes of the typable scalars of ``text``, and how many others it has."""
    data = text.encode("utf-16-le", "surrogatepass")
    low, high = data[0::2], data[1::2]
    expected = low.translate(_EXPECTED_HIGH_BYTE)
    if high != expected:
        n = len(low)
        marks = (int.from_bytes(high, "little") ^ int.from_bytes(expected, "little")
                 ).to_bytes(n, "little").translate(_MISMATCH_MARK)
        low = (int.from_bytes(low, "little") | int.from_bytes(marks, "little")
               ).to_bytes(n, "little")
    codes = low.translate(_CODE_BY_LOW_BYTE, _UNTYPABLE_LOW_BYTES)
    # an astral scalar is two code units, both deleted, but one scalar of text
    return codes, len(text) - len(codes)


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


def document_rows(text: str, header: str,
                  syntax_error: Callable[[int, str], Exception]) -> Iterator[tuple[int, str]]:
    """The numbered rows after the header line of a layout or model document.

    A leading byte order mark is dropped. The first line, stripped, must
    be ``header``, else ``syntax_error(1, message)`` is raised. Lines are
    numbered from 1 as ``str.splitlines`` counts them. Blank lines are
    skipped, and so are comments: lines that start with ``#``, unless a
    TAB follows it, which is the hash key's own row.
    """
    lines = text.removeprefix("\ufeff").splitlines()
    if not lines or lines[0].strip() != header:
        raise syntax_error(1, f"expected header {header!r}")
    for line_no, line in enumerate(lines[1:], start=2):
        if line.strip() and not (line.startswith("#") and not line.startswith("#\t")):
            yield line_no, line


def rank_by_frequency(table: FrequencyTable,
                      units: Iterable[GraphemeUnit] | None = None) -> list[GraphemeUnit]:
    """``units``, by default the table's, by count descending, codepoint ascending.

    A unit missing from the table counts 0.
    """
    counts = table.counts
    return sorted(counts if units is None else units,
                  key=lambda u: (-counts.get(u, 0), u.codepoints))


def count_unit_bigrams(units: Sequence[GraphemeUnit]) -> dict[tuple[GraphemeUnit, GraphemeUnit], int]:
    """Counts of adjacent unit pairs in a sequence of units from :data:`ALL_UNITS`."""
    return CorpusStats.from_units(units).bigrams


def _code(unit: GraphemeUnit) -> int:
    """The code of a unit; a unit outside :data:`ALL_UNITS` raises ``ValueError``."""
    try:
        return _CODE_BY_UNIT[unit]
    except KeyError:
        raise ValueError(f"{unit!r} is not a typable unit") from None


def _peeled_counts(data: bytes, codes: Iterable[int]) -> dict[int, int]:
    """The counts of ``codes`` in the code bytes ``data``, by code, from peeling.

    Each sample of what is left is deleted code by code, most frequent
    first; the codes it missed are in what is left, which is sampled again
    until it is smaller than a sample and one ``Counter`` counts it.
    """
    counts = dict.fromkeys(codes, 0)
    # data holds codes alone, so with every code asked for nothing is deleted
    rest = data if len(counts) == len(ALL_UNITS) else data.translate(
        None, bytes(_BYTE_VALUES.difference(counts)))
    while len(rest) >= _SAMPLE_SIZE:
        for code, _ in Counter(rest[::len(rest) // _SAMPLE_SIZE + 1]).most_common():
            size = len(rest)
            rest = rest.translate(None, bytes((code,)))
            counts[code] = size - len(rest)
    counts.update(Counter(rest))
    return counts


@dataclass(frozen=True)
class CorpusStats:
    """The typable sequence of a corpus, from which every typing metric follows.

    ``typable`` is the typable sequence of the whole corpus, one code
    byte per unit; ``source_bytes`` and ``skipped`` are the corpus size
    and its untypable scalars, which no :class:`FrequencyTable` copies.
    Counting is on demand: each :meth:`counts_among` call counts the units
    it names, and ``table`` (every unit's count) counts them all on first
    use. The fields and the cached ``table`` and ``bigrams`` are the whole
    state. Evaluation reads its jams from ``typable``, and :meth:`without`
    lets it recount without the units a layout lacks. :meth:`pairs_among`
    counts its adjacent pairs of chosen units, so a pair that spans two
    sources counts like any other; the optimizer's jam term asks for the
    pairs of its instance's units alone. ``bigrams`` is
    ``pairs_among(ALL_UNITS)``, computed on first use, and no command builds
    it. Build instances with :meth:`read`, :meth:`from_text` or
    :meth:`from_units`, and combine shards with :func:`merge_stats`.

    :meth:`from_text` classifies from the text's UTF-16 byte planes (see
    the module docstring); a lone surrogate is skipped like any untypable
    scalar and counts three bytes in ``source_bytes``. Counts come from
    peeling (see the module docstring): one deleting pass per code over
    what is left, and a ``Counter`` over what is left once it is short.
    """

    typable: bytes
    source_bytes: int = 0
    skipped: int = 0

    @classmethod
    def read(cls, paths: Iterable) -> "CorpusStats":
        """Statistics of the corpus sources ``paths`` in order, ``-`` being standard input.

        Each source is read once as bytes and decoded as strict UTF-8; an
        invalid byte raises :class:`CorpusDecodeError` with the path, or
        ``<stdin>``, and the offset within that source. The texts are
        joined and classified once, and ``source_bytes`` is the number of
        bytes read, so no text is encoded again to measure it.
        """
        texts, size = [], 0
        for path in paths:
            if str(path) == "-":
                source, raw = "<stdin>", sys.stdin.buffer.read()
            else:
                with open(path, "rb") as fh:
                    source, raw = str(path), fh.read()
            size += len(raw)
            try:
                texts.append(raw.decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise CorpusDecodeError(source, exc.start, exc.reason) from None
        raw = None  # the last source's bytes are not kept while the text is classified
        codes, skipped = _codes("".join(texts))
        return cls(codes, size, skipped)

    @classmethod
    def from_text(cls, text: str) -> "CorpusStats":
        """Statistics of a text; non-typable scalars are skipped and tallied.

        ``source_bytes`` is the size of the text encoded to UTF-8.
        """
        codes, skipped = _codes(text)
        return cls(codes, len(text.encode("utf-8", "surrogatepass")), skipped)

    @classmethod
    def from_units(cls, units: Iterable[GraphemeUnit]) -> "CorpusStats":
        """Statistics of a sequence of units from :data:`ALL_UNITS`."""
        return cls(bytes(map(_code, units)))

    @cached_property
    def table(self) -> FrequencyTable:
        """Every unit's count, in :data:`ALL_UNITS` order."""
        return FrequencyTable(self.counts_among(ALL_UNITS))

    def counts_among(self, units: Iterable[GraphemeUnit]) -> dict[GraphemeUnit, int]:
        """The counts of ``units`` in ``typable``, in :data:`ALL_UNITS` order.

        Units that do not occur are left out. ``units`` may repeat a unit;
        one outside :data:`ALL_UNITS` raises ``ValueError``. Each call
        counts the codes of ``units`` alone, by peeling them from what is
        left once every other code is deleted.
        """
        counts = _peeled_counts(self.typable, sorted(set(map(_code, units))))
        return {ALL_UNITS[code]: count for code, count in counts.items() if count}

    def without(self, units: Iterable[GraphemeUnit]) -> "CorpusStats":
        """The statistics after deleting every occurrence of ``units``.

        Deletion joins each deleted run's neighbours into a new pair; the
        counts of what is kept come from the kept sequence when asked. A
        unit outside :data:`ALL_UNITS` raises ``ValueError``.
        """
        deleted = bytes(set(map(_code, units)))
        return CorpusStats(self.typable.translate(None, deleted), self.source_bytes, self.skipped)

    def pairs_among(self, units: Iterable[GraphemeUnit]
                    ) -> dict[tuple[GraphemeUnit, GraphemeUnit], int]:
        """Counts of the adjacent pairs of ``typable`` whose two units are in ``units``.

        ``units`` may repeat a unit; one outside :data:`ALL_UNITS` raises
        ``ValueError``. Codes are below 256, so the two codes of a pair
        make one 16-bit window of the code bytes, read as UTF-16-LE (the
        host's byte order plays no part). The windows at even offsets hold
        the pairs that start at even positions, those at odd offsets the
        rest. Each unit not chosen becomes the separator byte 0xFF. The
        code bytes, padded with one or two separators to an even length,
        are read as one integer x, and s has 0xFF at each separator byte.
        With ``lanes`` holding 0xFF in the low byte of each 16-bit lane,
        ``x | ((s | s >> 8) & lanes) * 0x101`` fills every window that holds
        a separator with 0xFF in both bytes; shifting x and s right by 8
        gives the odd offsets. The real pairs hold no 0xFF byte, so one
        ``translate`` deleting 0xFF drops the separator windows of both
        offsets whole, and one ``Counter`` pass counts what is left.
        """
        index = bytearray((_SEPARATOR,)) * 256
        for code in map(_code, units):
            index[code] = code
        data = self.typable.translate(index)
        # the padding ends the bytes in a separator, so the odd offset's last
        # lane, which holds one code byte and a zero, is dropped too
        data += _SEPARATOR_BYTE * (2 - len(data) % 2)
        size = len(data)
        x = int.from_bytes(data, "little")
        s = int.from_bytes(data.translate(_SEPARATOR_MASK), "little")
        s |= s >> 8
        lanes = int.from_bytes(b"\xff\x00" * (size // 2), "little")
        windows = ((x | (s & lanes) * 0x101).to_bytes(size, "little")
                   + (x >> 8 | (s >> 8 & lanes) * 0x101).to_bytes(size, "little"))
        pairs = Counter(windows.translate(None, _SEPARATOR_BYTE).decode("utf-16-le"))
        all_units = ALL_UNITS
        return {(all_units[ord(p) & 0xFF], all_units[ord(p) >> 8]): c for p, c in pairs.items()}

    @cached_property
    def bigrams(self) -> dict[tuple[GraphemeUnit, GraphemeUnit], int]:
        """Counts of all adjacent unit pairs of ``typable``."""
        return self.pairs_among(ALL_UNITS)


def merge_stats(a: CorpusStats, b: CorpusStats) -> CorpusStats:
    """Statistics of ``a``'s corpus followed by ``b``'s.

    Associative, with ``CorpusStats.from_text("")`` as identity. The
    typable sequences are joined, so the pair across the seam counts and
    shards merge to the single-pass result.
    """
    return CorpusStats(a.typable + b.typable, a.source_bytes + b.source_bytes,
                       a.skipped + b.skipped)


def format_frequency_tsv(table: FrequencyTable) -> str:
    """Canonical TSV export: codepoints, category, count, frequency (9 dp)."""
    lines = ["codepoints\tcategory\tcount\tfrequency"]
    for unit in rank_by_frequency(table):
        lines.append(f"{unit_token(unit)}\t{unit.category.value}\t{table.counts[unit]}"
                     f"\t{table.frequency(unit):.9f}")
    return "\n".join(lines) + "\n"
