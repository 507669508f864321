"""Output oracles that do not share code with the paths being timed.

Expected values are either pinned from the seed commit of the reproduction
(the paper's frozen numbers and the byte hashes of the fixture artifacts)
or computed here by small independent parsers and formulas. Every check
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from math import fsum, isclose

# The typable inventory, written out from the paper rather than imported,
# so an inventory regression in the program cannot also move the oracle.
CONSONANT_CPS = frozenset(
    [*range(0x0995, 0x09A9), *range(0x09AA, 0x09B1), 0x09B2,
     *range(0x09B6, 0x09BA), 0x09DC, 0x09DD, 0x09DF])
TYPABLE_CPS = CONSONANT_CPS | frozenset(
    [0x0985, 0x0986, 0x0987, 0x0988, 0x0989, 0x098A, 0x098B, 0x098F, 0x0990,
     0x0993, 0x0994,
     0x09BE, 0x09BF, 0x09C0, 0x09C1, 0x09C2, 0x09C3, 0x09C7, 0x09C8, 0x09CB,
     0x09CC,
     0x0021, 0x0022, 0x0024, 0x0025, 0x002C, 0x002D, 0x002E, 0x003F, 0x005E,
     0x0964, 0x0981, 0x0982, 0x0983, 0x09CE,
     0x09CD, 0x0020])

# Per-key press cost of the default ergonomic model, pinned at the seed.
KEY_COST = {
    "1": 0.3333333333333333, "2": 0.3888888888888889, "3": 1.5555555555555556,
    "4": 0.4444444444444444, "5": 0.4722222222222222, "6": 1.6111111111111112,
    "7": 0.5555555555555556, "8": 1.6111111111111112, "9": 1.6388888888888888,
    "0": 0.6555555555555556, "*": 1.6777777777777778, "#": 1.6944444444444444,
}

# The bundled fixture and the artifacts the seed commit makes from it.
# A line shuffle keeps every one of them, because every non-blank line
# ends in a key-1 symbol and starts on another key.
FIXTURE_SHA256 = "4809cdcf6f3d9707a61ec9ecc46a095fa01fb3fbd1e5c9e10f9628a1efc5515c"
FIXTURE_UNITS = 55920
FIXTURE_SKIPPED = 1439
X1_SHA256 = {
    "freq.tsv": "c3a5ffde161837660e0cf81dcb1f4f8a035d4e382caf1a6660a69ba368e59218",
    "report.tsv": "d2b1df2133b03fe674ae7ce734de3bdc33dc09818f0a6a31448d7edd55b7ba17",
    "proposed_layout.tsv": "2e5a07cd00b1934cfaae5c800c58d7fdf50a47f925d6a4d9729cf3bbc4772831",
    "baseline_layout.tsv": "b7602074e9dd8ad75b7dad078556033b72e22af35e507cbee925c4f4ff7a4278",
}
RANKING = "1>2>4>5>7>3>6>8>9"
JAM_REDUCTION_PCT = 12.790697674418606
JAMS = {"serpentine": 2250, "sequential": 2580}

# optimize --method local --jam-weight 0.5 on the fixture (35 consonants).
OPT_GREEDY_VALUE = 1.4447104247104248
OPT_LOCAL_VALUE = 1.3973680823680823
OPT_LAYOUT_SHA256 = "fed72509461a282ca21a0a3a8b7f2b0be57e506d150b70de1e1016562fd3c38c"
# The 6-consonant instance on keys 2-6 x 2 slots, jam weight 0.5.
SMALL_GREEDY_VALUE = 0.7142565359477124
SMALL_LOCAL_VALUE = 0.6322556800497977
SMALL_EXHAUSTIVE_VALUE = 0.6322556800497977


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def typable(text: str) -> list[int]:
    """Typable codepoints of a text, in order."""
    return [cp for cp in map(ord, text) if cp in TYPABLE_CPS]


def parse_layout(text: str) -> dict[str, list[int]]:
    """Key rows of a ``keypad-layout v1`` document as codepoint lists."""
    lines = text.splitlines()
    if not lines or lines[0] != "keypad-layout v1":
        raise ValueError("missing layout header")
    rows = {}
    for line in lines[1:]:
        head, _, rest = line.partition("\t")
        if head in ("name", "roles"):
            continue
        rows[head] = [int(tok[2:], 16) for tok in rest.split(",") if tok]
    return rows


def decode_trace(trace_tsv: str, rows: dict[str, list[int]]) -> list[int]:
    """Units typed by a ``press_index key text_position`` trace."""
    lines = trace_tsv.splitlines()
    if not lines or lines[0] != "press_index\tkey\ttext_position":
        raise ValueError("missing trace header")
    runs: list[list] = []  # [text_position, key, taps]
    for expected_index, line in enumerate(lines[1:]):
        index, key, pos = line.split("\t")
        if int(index) != expected_index:
            raise ValueError(f"press {index} out of order")
        if runs and runs[-1][0] == pos:
            if runs[-1][1] != key:
                raise ValueError(f"unit at {pos} mixes keys")
            runs[-1][2] += 1
        else:
            runs.append([pos, key, 1])
    return [rows[key][taps - 1] for _pos, key, taps in runs]


def multitap_metrics(cps: list[int], rows: dict[str, list[int]]) -> dict:
    """Evaluation metrics of a unit sequence, from their definitions."""
    where = {cp: (key, slot + 1) for key, units in rows.items()
             for slot, cp in enumerate(units)}
    spots = [where[cp] for cp in cps]
    presses = sum(taps for _key, taps in spots)
    jams = sum(1 for a, b in zip(spots, spots[1:]) if a[0] == b[0])
    load = Counter()
    for key, taps in spots:
        load[key] += taps
    n = len(spots)
    return {
        "unit_count": n,
        "press_count": presses,
        "kspc": presses / n,
        "expected_cost": fsum(taps * KEY_COST[key] for key, taps in spots) / n,
        "jam_rate": jams / max(1, n - 1),
        "per_key_load": {key: load[key] / presses for key in KEY_COST},
    }


def check_evaluation_json(text: str, expected: dict) -> list[str]:
    try:
        got = json.loads(text)
    except ValueError as exc:
        return [f"evaluate output is not JSON: {exc}"]
    problems = []
    for name in ("unit_count", "press_count"):
        if got.get(name) != expected[name]:
            problems.append(f"{name} {got.get(name)!r} != {expected[name]!r}")
    for name in ("kspc", "expected_cost", "jam_rate"):
        if not close(got.get(name), expected[name]):
            problems.append(f"{name} {got.get(name)!r} != {expected[name]!r}")
    loads = got.get("per_key_load") or {}
    for key, value in expected["per_key_load"].items():
        if not close(loads.get(key), value):
            problems.append(f"load[{key}] {loads.get(key)!r} != {value!r}")
    return problems


def close(got, want: float) -> bool:
    """A program's float equals an oracle's value up to summation rounding."""
    return isinstance(got, float) and isclose(got, want, rel_tol=1e-12, abs_tol=1e-15)


def scaled_frequency_tsv(x1_tsv: str, copies: int) -> str:
    """The analyze table of ``copies`` concatenated shuffles of a corpus."""
    lines = x1_tsv.splitlines()
    out = [lines[0]]
    for line in lines[1:]:
        token, category, count, freq = line.split("\t")
        out.append(f"{token}\t{category}\t{int(count) * copies}\t{freq}")
    return "\n".join(out) + "\n"


def scaled_report(x1_report: str, copies: int) -> str:
    """The reproduce-paper report of ``copies`` concatenated shuffles.

    KSPC and expected cost are ratios of counts that all scale by
    ``copies``; the unit and press counts scale; jams scale too because
    no line boundary ever jams, but the rate's denominator is n - 1.
    """
    out, rates = [], {}
    for line in x1_report.splitlines():
        fields = line.split("\t")
        if fields[0] in JAMS:
            name, kspc, cost, _rate, units, presses = fields
            n = int(units) * copies
            rates[name] = JAMS[name] * copies / max(1, n - 1)
            line = "\t".join([name, kspc, cost, f"{rates[name]:.9f}", str(n),
                              str(int(presses) * copies)])
        elif fields[0] == "jam_reduction_pct":
            base, prop = rates["sequential"], rates["serpentine"]
            line = f"jam_reduction_pct\t{100.0 * (base - prop) / base:.9f}"
        out.append(line)
    return "\n".join(out) + "\n"


def consonant_objective(rows: dict[str, list[int]], counts: Counter,
                        bigrams: Counter, jam_weight: float) -> float:
    """Placement objective: frequency-weighted tap cost plus jam term."""
    total = sum(counts.values())
    where = {cp: (key, slot + 1) for key, units in rows.items()
             for slot, cp in enumerate(units)}
    value = fsum((c / total) * (where[cp][1] * KEY_COST[where[cp][0]])
                 for cp, c in counts.items())
    btotal = sum(bigrams.values())
    if jam_weight > 0 and btotal:
        value += jam_weight * fsum(c / btotal for (a, b), c in bigrams.items()
                                   if where[a][0] == where[b][0])
    return value


def consonant_statistics(cps: list[int], keep=CONSONANT_CPS) -> tuple[Counter, Counter]:
    """Unit counts and adjacent-pair counts restricted to ``keep``."""
    counts = Counter(cp for cp in cps if cp in keep)
    bigrams = Counter((a, b) for a, b in zip(cps, cps[1:]) if a in keep and b in keep)
    return counts, bigrams
