"""Thumb-movement ergonomics for the 12 physical keypad keys.

Each key press bends the thumb's interphalangeal joint (IJ) to some angle
and moves the metacarpophalangeal joint (MJ) either forward (flexion) or
laterally (extension). A key's entry stores the angle and the direction
alone; extension is the lateral direction. Flexion keys are easier than
extension keys, and within each group a wider IJ angle is easier. With
the default parameters the scalar cost reproduces that ordering:

    cost = angle_weight * (180 - ij_angle) / 180 + extension_penalty * [extension]

The nine digit keys carry measured values; the bottom row (*, 0, #) is
extrapolated from the per-row angle trend and can be overridden from a
model file, whose ``movement`` column must agree with ``mj_direction``.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Mapping

from .bn_text import _Record, _check_float, _is_real, decode_document, document_rows
from .errors import MissingKeyError, ModelSyntaxError

KEYPAD_KEYS: tuple[str, ...] = ("1", "2", "3", "4", "5", "6", "7", "8", "9", "*", "0", "#")

# Keys 1 and 9 are reserved for symbols and vowels; these seven hold consonants.
DEFAULT_CONSONANT_KEYS: tuple[str, ...] = ("2", "3", "4", "5", "6", "7", "8")

_KEY_INDEX = {key: i for i, key in enumerate(KEYPAD_KEYS)}


class Direction(Enum):
    FORWARD = "forward"
    LATERAL = "lateral"


class KeyErgonomics(_Record):
    """Joint measurements for one key press; the key is the model's dict key."""

    ij_angle: float  # degrees, 0 < angle <= 180
    mj_direction: Direction

    def __post_init__(self):
        if not (_is_real(self.ij_angle) and 0 < self.ij_angle <= 180):
            raise ValueError(f"ij_angle must be in (0, 180], got {self.ij_angle!r}")

    @property
    def extension(self) -> bool:
        """Whether the press extends the thumb: its MJ moves laterally."""
        return self.mj_direction is Direction.LATERAL


def _check_key(key: str) -> None:
    if key not in _KEY_INDEX:
        raise ValueError(f"unknown key {key!r}")


class ErgonomicModel(_Record):
    """Per-key ergonomics, keyed by the 12 keys alone, plus the two cost parameters."""

    entries: Mapping[str, KeyErgonomics]
    extension_penalty: float = 1.0
    angle_weight: float = 1.0

    def __post_init__(self):
        for key in self.entries:
            _check_key(key)
        missing = [k for k in KEYPAD_KEYS if k not in self.entries]
        if missing:
            raise ValueError(f"model must cover all 12 keys; missing {missing}")
        _check_float("extension_penalty", self.extension_penalty)
        _check_float("angle_weight", self.angle_weight, positive=True)


# Measured IJ angles and MJ directions for the digit keys; the bottom row
# extrapolates each column's angle trend downward. The entries are frozen,
# so every default model shares them; each gets its own dict.
_MEASUREMENTS: dict[str, KeyErgonomics] = {
    "1": KeyErgonomics(120.0, Direction.FORWARD),
    "2": KeyErgonomics(110.0, Direction.FORWARD),
    "3": KeyErgonomics(80.0, Direction.LATERAL),
    "4": KeyErgonomics(100.0, Direction.FORWARD),
    "5": KeyErgonomics(95.0, Direction.FORWARD),
    "6": KeyErgonomics(70.0, Direction.LATERAL),
    "7": KeyErgonomics(80.0, Direction.FORWARD),
    "8": KeyErgonomics(70.0, Direction.LATERAL),
    "9": KeyErgonomics(65.0, Direction.LATERAL),
    "*": KeyErgonomics(58.0, Direction.LATERAL),
    "0": KeyErgonomics(62.0, Direction.FORWARD),
    "#": KeyErgonomics(55.0, Direction.LATERAL),
}


def default_model(extension_penalty: float = 1.0, angle_weight: float = 1.0) -> ErgonomicModel:
    """The built-in measurement table with the given cost parameters."""
    return ErgonomicModel(dict(_MEASUREMENTS), extension_penalty, angle_weight)


def rank_keys(model: ErgonomicModel, keys: Iterable[str]) -> list[str]:
    """Keys ordered from most to least flexible, i.e. by ascending ``key_cost``.

    Exact cost ties fall back to keypad order of the key identifiers. With
    the default parameters every flexion key precedes every extension key.
    """
    return sorted(keys, key=lambda k: (key_cost(model, k), _KEY_INDEX[k]))


def key_cost(model: ErgonomicModel, key: str) -> float:
    """Scalar press cost for one key; ``rank_keys`` orders keys by it.

    Every extension key costs more than every flexion key whenever
    ``extension_penalty >= angle_weight``; below that, a wide-angle
    extension key can cost less than a narrow-angle flexion key.
    """
    entry = model.entries.get(key)
    if entry is None:
        raise MissingKeyError(f"key {key!r} is not in the ergonomic model")
    cost = model.angle_weight * (180.0 - entry.ij_angle) / 180.0
    if entry.extension:
        cost += model.extension_penalty
    return cost


def over_common_denominator(rows: list[list[float]]) -> tuple[list[list[int]], int]:
    """Numerators of rows of finite floats over their largest denominator, and it.

    Every float denominator is a power of two, so the largest is a multiple
    of each, and a numerator scales to it by a left shift of the difference
    of the two bit lengths; the numerators are exact. A sum of them divided
    by the denominator is the exact sum of the floats, rounded once. Only
    the numerators are kept, which holds down the memory of a units x slots
    table.
    """
    ratios = [list(map(float.as_integer_ratio, row)) for row in rows]
    den = max([d for row in ratios for _, d in row], default=1)
    top = den.bit_length()
    return [[num << (top - d.bit_length()) for num, d in row] for row in ratios], den


_TSV_HEADER = "key\tij_angle_deg\tmj_direction\tmovement"


def format_model_tsv(model: ErgonomicModel) -> str:
    """Canonical TSV of the per-key table (parameters travel as CLI flags)."""
    lines = [_TSV_HEADER]
    for key in KEYPAD_KEYS:
        e = model.entries[key]
        movement = "extension" if e.extension else "flexion"
        lines.append(f"{key}\t{e.ij_angle:g}\t{e.mj_direction.value}\t{movement}")
    return "\n".join(lines) + "\n"


def parse_model_tsv(text: str, extension_penalty: float = 1.0,
                    angle_weight: float = 1.0) -> ErgonomicModel:
    """Parse a model TSV; all 12 keys must be present.

    The header, comments and blank lines are read by
    :func:`~bnkeypad.bn_text.document_rows`.
    """
    entries: dict[str, KeyErgonomics] = {}
    for i, line in document_rows(text, _TSV_HEADER, ModelSyntaxError):
        parts = line.split("\t")
        if len(parts) != 4:
            raise ModelSyntaxError(i, "expected 4 TAB-separated fields")
        key, angle_txt, direction_txt, movement_txt = parts
        if key in entries:
            raise ModelSyntaxError(i, f"duplicate key {key!r}")
        try:
            angle = float(angle_txt)
            direction = Direction(direction_txt)
        except ValueError as exc:
            raise ModelSyntaxError(i, str(exc)) from None
        if movement_txt not in ("flexion", "extension"):
            raise ModelSyntaxError(i, f"movement must be flexion or extension, got {movement_txt!r}")
        try:
            _check_key(key)
            entries[key] = entry = KeyErgonomics(angle, direction)
        except ValueError as exc:
            raise ModelSyntaxError(i, str(exc)) from None
        if entry.extension != (movement_txt == "extension"):
            raise ModelSyntaxError(i, "lateral MJ movement and extension must coincide")
    missing = [k for k in KEYPAD_KEYS if k not in entries]
    if missing:
        raise MissingKeyError(f"model file is missing key(s): {', '.join(missing)}")
    return ErgonomicModel(entries, extension_penalty, angle_weight)


def load_model(path, extension_penalty: float = 1.0,
               angle_weight: float = 1.0) -> ErgonomicModel:
    """Read and parse a model file; bytes that are not UTF-8 are a syntax error."""
    with open(path, "rb") as fh:
        return parse_model_tsv(decode_document(fh.read(), ModelSyntaxError),
                               extension_penalty, angle_weight)
