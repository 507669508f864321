"""Multi-tap keystroke traces and typing-cost metrics.

A unit sitting at slot n of a key takes n presses of that key. Two
consecutive units on the same key jam: the second press run cannot begin
until a timeout (or cursor move) separates it from the first, so the jam
count is the direct measure of that friction. KSPC (keystrokes per
character) and the flexibility-weighted expected cost per unit quantify
raw typing effort.

:func:`evaluate_many` is the one evaluator, and :func:`evaluate` is its
report for one layout. It reads the unit counts and the typable code
sequence of a :class:`~bnkeypad.bn_text.CorpusStats` in a few C-level
passes and never builds a trace. The jams of two layouts come from one
pass: a table packs each code's key index in the first layout into the
low nibble of a byte and in the second into the high nibble, and after
one ``translate`` of the sequence and one ``x ^ (x >> 8)`` of it as an
integer, a zero nibble marks each jam of its layout. An odd layout out
is paired with itself, and so is a layout scored on its own sequence,
without the units it lacks. So the paper's proposed layout and its
baseline share one pass over the corpus.

:func:`transcribe` and :func:`decode` exist for trace output. Evaluation
and tracing read keys and tap counts from the layout's table by unit
code; the CLI traces the text's codes without building units.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .bn_text import _CODE_BY_UNIT, _FOREIGN_CODE, ALL_UNITS, CorpusStats, GraphemeUnit, _Record
from .ergonomics import KEYPAD_KEYS, ErgonomicModel, key_cost, over_common_denominator
from .errors import CorruptTraceError, UntypableUnitError
from .layout import Layout


class KeystrokeTrace(_Record):
    """Press sequence with unit alignments.

    ``boundaries`` aligns each typed unit (by its position in the input
    sequence) with the half-open press range that produced it.
    ``jam_positions`` holds indices b such that boundaries b and b+1 used
    the same key. ``skipped_positions`` lists input positions dropped by
    skip_untypable.
    """

    presses: tuple[str, ...]
    boundaries: tuple[tuple[int, tuple[int, int]], ...]
    jam_positions: tuple[int, ...]
    skipped_positions: tuple[int, ...] = ()


class EvaluationReport(_Record):
    """Typing metrics for one (text, layout, model) combination.

    ``skipped_scalars`` counts the corpus scalars outside the typable
    inventory; ``skipped_units`` the typable units the layout lacks,
    dropped under ``skip_untypable``. Neither enters the metrics.
    """

    kspc: float
    expected_cost: float
    jam_rate: float
    per_key_load: Mapping[str, float]
    unit_count: int
    press_count: int
    skipped_scalars: int = 0
    skipped_units: int = 0


def transcribe(units: Sequence[GraphemeUnit], layout: Layout,
               skip_untypable: bool = False) -> KeystrokeTrace:
    """Multi-tap keystroke trace for a unit sequence under a layout.

    Raises :class:`UntypableUnitError` for units absent from the layout
    unless ``skip_untypable`` downgrades them to a skip record.
    """
    units = list(units)
    return _trace(bytes([_CODE_BY_UNIT.get(u, _FOREIGN_CODE) for u in units]), layout,
                  skip_untypable, units)


def _trace(codes: bytes, layout: Layout, skip_untypable: bool = False,
           units: Sequence[GraphemeUnit] | None = None) -> KeystrokeTrace:
    """:func:`transcribe` of unit codes; an error names ``units[pos]``, or else the code's unit."""
    spots = layout._spot_by_code
    presses: list[str] = []
    boundaries: list[tuple[int, tuple[int, int]]] = []
    jams: list[int] = []
    skipped: list[int] = []
    prev_key: str | None = None
    for pos, code in enumerate(codes):
        spot = spots[code]
        if spot is None:
            if skip_untypable:
                skipped.append(pos)
                continue
            raise UntypableUnitError(ALL_UNITS[code] if units is None else units[pos], pos)
        key, taps = spot
        start = len(presses)
        presses.extend([key] * taps)
        if prev_key == key:
            jams.append(len(boundaries) - 1)
        boundaries.append((pos, (start, start + taps)))
        prev_key = key
    return KeystrokeTrace(tuple(presses), tuple(boundaries), tuple(jams), tuple(skipped))


def decode(trace: KeystrokeTrace, layout: Layout) -> list[GraphemeUnit]:
    """Recover the typed unit sequence from a trace (inverse of transcribe)."""
    out: list[GraphemeUnit] = []
    presses = trace.presses
    for pos, (start, end) in trace.boundaries:
        if not 0 <= start < end <= len(presses):
            raise CorruptTraceError(f"press range {start}..{end} out of bounds")
        run = presses[start:end]
        key = run[0]
        taps = end - start
        if run.count(key) != taps:
            raise CorruptTraceError(f"press range {start}..{end} mixes keys")
        slot_list = layout.slots.get(key, ())
        if taps > len(slot_list):
            raise CorruptTraceError(f"key {key} has no slot {taps}")
        out.append(slot_list[taps - 1])
    return out


def evaluate(stats: CorpusStats, layout: Layout, model: ErgonomicModel,
             skip_untypable: bool = False) -> EvaluationReport:
    """KSPC, expected per-unit cost, jam rate, and per-key load of one layout.

    The report of ``evaluate_many(stats, [layout], model, skip_untypable)``.
    A unit sequence is evaluated as ``CorpusStats.from_units(units)``.
    """
    return evaluate_many(stats, [layout], model, skip_untypable)[0]


# deleting the bytes of each set keeps those whose low nibble, high nibble,
# or either one is zero
_LOW_SET = bytes(b for b in range(256) if b & 0x0F)
_HIGH_SET = bytes(b for b in range(256) if b & 0xF0)
_BOTH_SET = bytes(b for b in range(256) if b & 0x0F and b & 0xF0)


def evaluate_many(stats: CorpusStats, layouts: Sequence[Layout], model: ErgonomicModel,
                  skip_untypable: bool = False) -> list[EvaluationReport]:
    """One :class:`EvaluationReport` per layout, in order, each as :func:`evaluate` gives it.

    The costs come from the unit counts of ``stats``; the jams come from a
    few C-level passes over ``typable``, shared by two layouts at a time
    (:func:`_jam_counts`), so the pair table ``bigrams`` is never built. A
    layout that lacks a unit of ``stats`` raises :class:`UntypableUnitError`
    at the unit's first position, the first such layout in order and before
    any pass, unless ``skip_untypable`` deletes the unit's occurrences,
    which makes their neighbours adjacent; that layout is then scored alone
    on its own sequence.
    """
    # (layout, the statistics it is scored on, units deleted from them)
    runs = []
    for layout in layouts:
        missing = [u for u in stats.table.counts if layout.position(u) is None]
        if not missing:
            runs.append((layout, stats, 0))
        elif skip_untypable:
            kept = stats.without(missing)
            runs.append((layout, kept, stats.table.total - kept.table.total))
        else:
            position = min(stats.typable.find(_CODE_BY_UNIT[u]) for u in missing)
            raise UntypableUnitError(ALL_UNITS[stats.typable[position]], position)

    # layouts on the whole sequence go in pairs, the odd one out with
    # itself; a layout on its own sequence goes with itself
    shared = [i for i, run in enumerate(runs) if run[1] is stats]
    pairs = list(zip(shared[::2], shared[1::2]))
    if len(shared) % 2:
        pairs.append((shared[-1], shared[-1]))
    pairs += [(i, i) for i, run in enumerate(runs) if run[1] is not stats]
    jams = [0] * len(runs)
    for i, j in pairs:
        jams[i], jams[j] = _jam_counts(runs[i][1].typable, runs[i][0], runs[j][0])

    cost = {key: key_cost(model, key) for key in KEYPAD_KEYS}
    return [_report(run_stats, layout, cost, skipped_units, jam_count)
            for (layout, run_stats, skipped_units), jam_count in zip(runs, jams)]


def _jam_counts(typable: bytes, a: Layout, b: Layout) -> tuple[int, int]:
    """The jams of layouts ``a`` and ``b`` on a code sequence that both place.

    One table maps each unit code to its key's index in ``a`` in the low
    nibble and in ``b`` in the high nibble (12 keys fit in 4 bits; the
    tables are shifted and OR-ed as integers). Read as one little-endian
    integer x, the translated codes give x ^ (x >> 8), whose byte i has a
    zero nibble exactly where units i and i + 1 share a key in that
    layout; the explicit length keeps the zero bytes of jams at the end,
    and the last byte, the last unit against nothing, is dropped. One
    deleting pass keeps the bytes with a zero nibble, the jams of either
    layout, and one more pass over those for each layout keeps its own.
    """
    table = (int.from_bytes(a._key_index_by_code, "little")
             | int.from_bytes(b._key_index_by_code, "little") << 4).to_bytes(256, "little")
    keys = typable.translate(table)
    x = int.from_bytes(keys, "little")
    jams = (x ^ (x >> 8)).to_bytes(len(keys), "little")[:-1].translate(None, _BOTH_SET)
    return len(jams.translate(None, _LOW_SET)), len(jams.translate(None, _HIGH_SET))


def _report(stats: CorpusStats, layout: Layout, cost: Mapping[str, float],
            skipped_units: int, jams: int) -> EvaluationReport:
    """The report of a layout that places every unit of ``stats``, given its jams."""
    presses = dict.fromkeys(KEYPAD_KEYS, 0)
    # expected cost: the exact sum of count * fl(taps * cost) as
    # numerator / scale, rounded once
    counts = stats.table.counts
    spots = list(map(layout.position, counts))
    (nums,), scale = over_common_denominator([[taps * cost[key] for key, taps in spots]])
    numerator = 0
    for (key, taps), count, num in zip(spots, counts.values(), nums):
        presses[key] += count * taps
        numerator += count * num

    unit_count = stats.table.total
    press_count = sum(presses.values())
    kspc = press_count / unit_count if unit_count else 1.0
    expected_cost = numerator / scale / unit_count if unit_count else 0.0
    jam_rate = jams / max(1, unit_count - 1)
    per_key_load = {key: (presses[key] / press_count if press_count else 0.0)
                    for key in KEYPAD_KEYS}
    return EvaluationReport(kspc, expected_cost, jam_rate, per_key_load,
                            unit_count, press_count, stats.skipped, skipped_units)
