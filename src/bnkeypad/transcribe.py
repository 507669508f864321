"""Multi-tap keystroke traces and typing-cost metrics.

A unit sitting at slot n of a key takes n presses of that key. Two
consecutive units on the same key jam: the second press run cannot begin
until a timeout (or cursor move) separates it from the first, so the jam
count is the direct measure of that friction. KSPC (keystrokes per
character) and the flexibility-weighted expected cost per unit quantify
raw typing effort.

:func:`evaluate` reads the unit counts and the typable code sequence of a
:class:`~bnkeypad.bn_text.CorpusStats` in a few C-level passes and never
builds a trace; :func:`transcribe` and :func:`decode` exist for trace
output. Evaluation and tracing read keys and tap counts from the layout's
table by unit code; the CLI traces the text's codes without building units.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .bn_text import _CODE_BY_UNIT, _FOREIGN_CODE, ALL_UNITS, CorpusStats, GraphemeUnit
from .ergonomics import KEYPAD_KEYS, ErgonomicModel, key_cost, over_common_denominator
from .errors import CorruptTraceError, UntypableUnitError
from .layout import Layout


@dataclass(frozen=True)
class KeystrokeTrace:
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


@dataclass(frozen=True)
class EvaluationReport:
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
    """KSPC, expected per-unit cost, jam rate, and per-key load.

    The costs come from the unit counts of ``stats``; the jams come from a
    few C-level passes over ``typable``, so the pair table ``bigrams`` is
    never built. A unit sequence is evaluated as
    ``CorpusStats.from_units(units)``. A unit absent from the layout raises
    :class:`UntypableUnitError` at its first position, unless
    ``skip_untypable`` deletes its occurrences, which makes their
    neighbours adjacent.
    """
    position = layout.position
    missing = [u for u in stats.table.counts if position(u) is None]
    skipped_units = 0
    if missing:
        if not skip_untypable:
            position = min(stats.typable.find(_CODE_BY_UNIT[u]) for u in missing)
            raise UntypableUnitError(ALL_UNITS[stats.typable[position]], position)
        kept = stats.without(missing)
        skipped_units = stats.table.total - kept.table.total
        stats = kept

    cost = {key: key_cost(model, key) for key in KEYPAD_KEYS}
    presses = dict.fromkeys(KEYPAD_KEYS, 0)
    # expected cost: the exact sum of count * fl(taps * cost) as
    # numerator / scale, rounded once
    counts = stats.table.counts
    spots = list(map(position, counts))
    (nums,), scale = over_common_denominator([[taps * cost[key] for key, taps in spots]])
    numerator = 0
    for (key, taps), count, num in zip(spots, counts.values(), nums):
        presses[key] += count * taps
        numerator += count * num
    # map each unit code to its key's index (units the layout lacks are
    # gone from stats by now); read as one little-endian integer x, byte i
    # of x ^ (x >> 8) is 0 exactly when units i and i + 1 share a key, the
    # explicit length keeps the zero bytes of jams at the end, and the last
    # byte, the last unit against nothing, is dropped
    keys = stats.typable.translate(layout._key_index_by_code)
    x = int.from_bytes(keys, "little")
    jams = (x ^ (x >> 8)).to_bytes(len(keys), "little")[:-1].count(0)

    unit_count = stats.table.total
    press_count = sum(presses.values())
    kspc = press_count / unit_count if unit_count else 1.0
    expected_cost = numerator / scale / unit_count if unit_count else 0.0
    jam_rate = jams / max(1, unit_count - 1)
    per_key_load = {key: (presses[key] / press_count if press_count else 0.0)
                    for key in KEYPAD_KEYS}
    return EvaluationReport(kspc, expected_cost, jam_rate, per_key_load,
                            unit_count, press_count, stats.skipped, skipped_units)
