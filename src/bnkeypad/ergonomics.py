"""Thumb-movement ergonomics for the 12 physical keypad keys.

Each key press bends the thumb's interphalangeal joint (IJ) to some angle
and moves the metacarpophalangeal joint (MJ) either forward (flexion) or
laterally (extension). Flexion keys are easier than extension keys, and
within each group a wider IJ angle is easier. The scalar cost reproduces
that ordering:

    cost = angle_weight * (180 - ij_angle) / 180 + extension_penalty * [extension]

The nine digit keys carry measured values; the bottom row (*, 0, #) is
extrapolated from the per-row angle trend and can be overridden from a
model file.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import isfinite
from typing import Iterable, Mapping

from .errors import MissingKeyError, ModelSyntaxError

KEYPAD_KEYS: tuple[str, ...] = ("1", "2", "3", "4", "5", "6", "7", "8", "9", "*", "0", "#")

# Keys 1 and 9 are reserved for symbols and vowels; these seven hold consonants.
DEFAULT_CONSONANT_KEYS: tuple[str, ...] = ("2", "3", "4", "5", "6", "7", "8")

_KEY_INDEX = {key: i for i, key in enumerate(KEYPAD_KEYS)}


class Direction(Enum):
    FORWARD = "forward"
    LATERAL = "lateral"


@dataclass(frozen=True)
class KeyErgonomics:
    """Joint measurements for one key press."""

    key: str
    ij_angle: float  # degrees, 0 < angle <= 180
    mj_direction: Direction
    flexion: bool
    extension: bool

    def __post_init__(self):
        if self.key not in _KEY_INDEX:
            raise ValueError(f"unknown key {self.key!r}")
        if not 0 < self.ij_angle <= 180:
            raise ValueError(f"ij_angle must be in (0, 180], got {self.ij_angle}")
        if self.flexion == self.extension:
            raise ValueError("exactly one of flexion/extension must hold")
        if (self.mj_direction is Direction.LATERAL) != self.extension:
            raise ValueError("lateral MJ movement and extension must coincide")


@dataclass(frozen=True)
class ErgonomicModel:
    """Per-key ergonomics plus the two cost parameters."""

    entries: Mapping[str, KeyErgonomics]
    extension_penalty: float = 1.0
    angle_weight: float = 1.0

    def __post_init__(self):
        missing = [k for k in KEYPAD_KEYS if k not in self.entries]
        if missing:
            raise ValueError(f"model must cover all 12 keys; missing {missing}")
        if not (isfinite(self.extension_penalty) and self.extension_penalty >= 0):
            raise ValueError(f"extension_penalty must be finite and >= 0, "
                             f"got {self.extension_penalty}")
        if not (isfinite(self.angle_weight) and self.angle_weight > 0):
            raise ValueError(f"angle_weight must be finite and > 0, got {self.angle_weight}")


# Measured IJ angles and MJ directions for the digit keys; the bottom row
# extrapolates each column's angle trend downward.
_MEASUREMENTS: dict[str, tuple[float, Direction]] = {
    "1": (120.0, Direction.FORWARD),
    "2": (110.0, Direction.FORWARD),
    "3": (80.0, Direction.LATERAL),
    "4": (100.0, Direction.FORWARD),
    "5": (95.0, Direction.FORWARD),
    "6": (70.0, Direction.LATERAL),
    "7": (80.0, Direction.FORWARD),
    "8": (70.0, Direction.LATERAL),
    "9": (65.0, Direction.LATERAL),
    "*": (58.0, Direction.LATERAL),
    "0": (62.0, Direction.FORWARD),
    "#": (55.0, Direction.LATERAL),
}


def _entry(key: str, angle: float, direction: Direction) -> KeyErgonomics:
    lateral = direction is Direction.LATERAL
    return KeyErgonomics(key, angle, direction, flexion=not lateral, extension=lateral)


def default_model(extension_penalty: float = 1.0, angle_weight: float = 1.0) -> ErgonomicModel:
    """The built-in measurement table with the given cost parameters."""
    entries = {k: _entry(k, a, d) for k, (a, d) in _MEASUREMENTS.items()}
    return ErgonomicModel(entries, extension_penalty, angle_weight)


def rank_keys(model: ErgonomicModel, keys: Iterable[str]) -> list[str]:
    """Keys ordered from most to least flexible.

    Flexion keys precede extension keys; within each group wider IJ angle
    first; exact ties fall back to keypad order of the key identifiers.
    """
    keys = list(keys)
    for key in keys:
        if key not in model.entries:
            raise MissingKeyError(f"key {key!r} is not in the ergonomic model")
    return sorted(keys, key=lambda k: (model.entries[k].extension,
                                       -model.entries[k].ij_angle,
                                       _KEY_INDEX[k]))


def key_cost(model: ErgonomicModel, key: str) -> float:
    """Scalar press cost for one key; monotone with the flexibility ranking."""
    entry = model.entries.get(key)
    if entry is None:
        raise MissingKeyError(f"key {key!r} is not in the ergonomic model")
    cost = model.angle_weight * (180.0 - entry.ij_angle) / 180.0
    if entry.extension:
        cost += model.extension_penalty
    return cost


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
    """Parse a model TSV; all 12 keys must be present."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != _TSV_HEADER:
        raise ModelSyntaxError(1, f"expected header {_TSV_HEADER!r}")
    entries: dict[str, KeyErgonomics] = {}
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        # '#' immediately followed by TAB is the hash key's own row
        if line.startswith("#") and not line.startswith("#\t"):
            continue
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
        flexion = movement_txt == "flexion"
        try:
            entries[key] = KeyErgonomics(key, angle, direction,
                                         flexion=flexion, extension=not flexion)
        except ValueError as exc:
            raise ModelSyntaxError(i, str(exc)) from None
    missing = [k for k in KEYPAD_KEYS if k not in entries]
    if missing:
        raise MissingKeyError(f"model file is missing key(s): {', '.join(missing)}")
    return ErgonomicModel(entries, extension_penalty, angle_weight)


def load_model(path, extension_penalty: float = 1.0,
               angle_weight: float = 1.0) -> ErgonomicModel:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_model_tsv(fh.read(), extension_penalty, angle_weight)
