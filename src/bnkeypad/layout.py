"""Keypad layouts: construction, serialization, and slot lookup.

A layout maps each of the 12 physical keys to an ordered slot list; under
multi-tap the n-th slot of a key costs n presses. Four keys have reserved
roles: the symbol key (vowel signs + punctuation), the vowel key, the
space key, and the link key that joins consonants into conjuncts.

The proposed construction deals the frequency-sorted consonants across
the consonant keys in boustrophedon rounds (forward, reversed, forward,
...), which keeps consecutive high-frequency consonants off the same key.
The sequential strategy -- fill the most flexible key completely, then
the next -- is the jamming baseline to compare against.
"""

from __future__ import annotations

from enum import Enum
from math import ceil
from typing import Mapping

from .bn_text import (
    CONJUNCT_JOINER,
    CONSONANTS,
    INDEPENDENT_VOWELS,
    SPACE_UNIT,
    SYMBOLS,
    VOWEL_SIGNS,
    _CODE_BY_UNIT,
    _FOREIGN_CODE,
    FrequencyTable,
    GraphemeUnit,
    _Record,
    decode_document,
    document_rows,
    parse_unit_token,
    rank_by_frequency,
    unit_token,
)
from .ergonomics import DEFAULT_CONSONANT_KEYS, KEYPAD_KEYS, ErgonomicModel, rank_keys
from .errors import IncompleteAlphabetError, LayoutInvariantError, LayoutSyntaxError


class Role(Enum):
    SYMBOL = "symbol"
    VOWEL = "vowel"
    SPACE = "space"
    LINK = "link"


DEFAULT_ROLES: dict[Role, str] = {
    Role.SYMBOL: "1",
    Role.VOWEL: "9",
    Role.SPACE: "0",
    Role.LINK: "*",
}


class Strategy(Enum):
    SERPENTINE = "serpentine"
    SEQUENTIAL = "sequential"
    CUSTOM = "custom"


class PlacementPolicy(_Record):
    """How consonants are dealt onto the consonant keys.

    ``custom_slots`` supplies an explicit per-key consonant placement and
    is only consulted by the CUSTOM strategy.
    """

    strategy: Strategy = Strategy.SERPENTINE
    custom_slots: Mapping[str, tuple[GraphemeUnit, ...]] | None = None


class Layout(_Record):
    """Immutable key -> slot-list mapping with reserved-key roles.

    Construction validates the invariants: every unit is in the typable
    inventory (:data:`~bnkeypad.bn_text.ALL_UNITS`), no unit occupies two
    slots, the space key holds exactly the space, the link key exactly the
    conjunct joiner. Missing keys are normalized to empty slot lists.
    """

    slots: Mapping[str, tuple[GraphemeUnit, ...]]
    roles: Mapping[Role, str] = ()  # no roles; __post_init__ gives each layout its own dict
    name: str = ""

    def __post_init__(self):
        # the name is one TAB-separated row of the file: no TAB and nothing
        # that str.splitlines, which parse() reads rows with, would split on
        if "\t" in self.name or "".join(self.name.splitlines()) != self.name:
            raise ValueError(f"layout name must not contain tabs or line breaks: "
                             f"{self.name!r}")
        # the file is UTF-8, which has no form for a lone surrogate (an
        # undecodable command-line byte arrives as one)
        try:
            self.name.encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError(f"layout name must be valid Unicode text: {self.name!r}") from None
        for key in self.slots:
            if key not in KEYPAD_KEYS:
                raise LayoutInvariantError(f"unknown key {key!r}")
        complete = {k: tuple(self.slots.get(k, ())) for k in KEYPAD_KEYS}
        object.__setattr__(self, "slots", complete)
        roles = dict(self.roles)
        object.__setattr__(self, "roles", roles)

        # each code's (key, taps), None where lacking, and its key's index in
        # KEYPAD_KEYS (0 where lacking), which evaluation packs into a nibble
        spots: list[tuple[str, int] | None] = [None] * 256
        key_indices = bytearray(256)
        for index, key in enumerate(KEYPAD_KEYS):
            for taps, unit in enumerate(complete[key], start=1):
                code = _CODE_BY_UNIT.get(unit)
                if code is None:
                    raise LayoutInvariantError(f"unit {unit!r} is not in the typable inventory")
                if spots[code] is not None:
                    raise LayoutInvariantError(
                        f"unit {unit.display} assigned to both key {spots[code][0]} and key {key}"
                    )
                spots[code] = (key, taps)
                key_indices[code] = index
        object.__setattr__(self, "_spot_by_code", tuple(spots))
        object.__setattr__(self, "_key_index_by_code", bytes(key_indices))

        role_keys = list(roles.values())
        if len(set(role_keys)) != len(role_keys):
            raise LayoutInvariantError("two roles share one key")
        for role, key in roles.items():
            if key not in KEYPAD_KEYS:
                raise LayoutInvariantError(f"role {role.value} names unknown key {key!r}")
        space_key = roles.get(Role.SPACE)
        if space_key is not None and complete[space_key] != (SPACE_UNIT,):
            raise LayoutInvariantError(f"space key {space_key} must hold exactly the space")
        link_key = roles.get(Role.LINK)
        if link_key is not None and complete[link_key] != (CONJUNCT_JOINER,):
            raise LayoutInvariantError(f"link key {link_key} must hold exactly the conjunct joiner")

    def position(self, unit: GraphemeUnit) -> tuple[str, int] | None:
        """(key, 1-based slot) of a unit, i.e. its key and tap count."""
        return self._spot_by_code[_CODE_BY_UNIT.get(unit, _FOREIGN_CODE)]

    def units(self) -> list[GraphemeUnit]:
        return [u for key in KEYPAD_KEYS for u in self.slots[key]]


def deal_serpentine(units, keys) -> dict[str, tuple[GraphemeUnit, ...]]:
    """Deal an ordered unit list boustrophedon: forward, reversed, forward, ...

    Each key receives floor or ceil of len(units)/len(keys) slots, and
    rank-adjacent units share a key only at the direction turns.
    """
    out: dict[str, list[GraphemeUnit]] = {key: [] for key in keys}
    k = len(keys)
    for round_no, start in enumerate(range(0, len(units), k)):
        chunk = units[start:start + k]
        order = tuple(keys) if round_no % 2 == 0 else tuple(reversed(keys))
        for key, unit in zip(order, chunk):
            out[key].append(unit)
    return {key: tuple(slots) for key, slots in out.items()}


def deal_sequential(units, keys) -> dict[str, tuple[GraphemeUnit, ...]]:
    """Fill each key to capacity before moving to the next (jamming baseline)."""
    capacity = ceil(len(units) / len(keys))
    out = {}
    for i, key in enumerate(keys):
        out[key] = tuple(units[i * capacity:(i + 1) * capacity])
    return out


def build_layout(freq: FrequencyTable, model: ErgonomicModel,
                 policy: PlacementPolicy | None = None,
                 name: str | None = None) -> Layout:
    """Construct the frequency-based layout for the given corpus statistics.

    The reserved keys are fixed (:data:`DEFAULT_ROLES`): the symbol key 1
    takes vowel signs and symbols ordered by descending corpus frequency,
    the vowel key 9 takes the 11 independent vowels in dictionary order,
    and 0 and * hold the space and the conjunct joiner. Consonants are
    dealt per the policy strategy onto the fixed consonant keys 2-8, taken
    in the model's flexibility order. The table must contain all 35
    consonants.
    """
    policy = policy or PlacementPolicy()
    roles = DEFAULT_ROLES

    missing = [u for u in CONSONANTS if u not in freq.counts]
    if missing:
        raise IncompleteAlphabetError(missing)

    consonant_keys = rank_keys(model, DEFAULT_CONSONANT_KEYS)
    consonants = rank_by_frequency(freq, CONSONANTS)
    if policy.strategy is Strategy.SERPENTINE:
        dealt = deal_serpentine(consonants, consonant_keys)
    elif policy.strategy is Strategy.SEQUENTIAL:
        dealt = deal_sequential(consonants, consonant_keys)
    else:
        if policy.custom_slots is None:
            raise ValueError("CUSTOM strategy requires policy.custom_slots")
        dealt = {key: tuple(units) for key, units in policy.custom_slots.items()}
        placed = sorted((u for units in dealt.values() for u in units),
                        key=lambda u: u.codepoints)
        if placed != sorted(CONSONANTS, key=lambda u: u.codepoints):
            raise LayoutInvariantError("custom slots must place each consonant exactly once")
        if set(dealt) & set(roles.values()):
            raise LayoutInvariantError("custom slots overlap reserved role keys")

    slots: dict[str, tuple[GraphemeUnit, ...]] = {
        roles[Role.SYMBOL]: tuple(rank_by_frequency(freq, VOWEL_SIGNS + SYMBOLS)),
        roles[Role.VOWEL]: INDEPENDENT_VOWELS,  # already in dictionary order
        roles[Role.SPACE]: (SPACE_UNIT,),
        roles[Role.LINK]: (CONJUNCT_JOINER,),
    }
    slots.update(dealt)
    if name is None:
        name = policy.strategy.value
    return Layout(slots=slots, roles=roles, name=name)


HEADER = "keypad-layout v1"


def serialize(layout: Layout) -> str:
    """Canonical text form: header, name, roles, then one row per key."""
    lines = [HEADER, f"name\t{layout.name}"]
    roles_txt = ",".join(f"{role.value}={key}"
                         for role, key in sorted(layout.roles.items(),
                                                 key=lambda kv: kv[0].value))
    lines.append(f"roles\t{roles_txt}")
    for key in KEYPAD_KEYS:
        units_txt = ",".join(unit_token(u) for u in layout.slots[key])
        lines.append(f"{key}\t{units_txt}")
    return "\n".join(lines) + "\n"


def parse(document: str) -> Layout:
    """Parse a layout document; inverse of :func:`serialize`.

    The header, comments and blank lines are read by
    :func:`~bnkeypad.bn_text.document_rows`.
    """
    name = ""
    roles: dict[Role, str] = {}
    slots: dict[str, tuple[GraphemeUnit, ...]] = {}
    for i, line in document_rows(document, HEADER, LayoutSyntaxError):
        head, sep, rest = line.partition("\t")
        if not sep:
            raise LayoutSyntaxError(i, "expected a TAB-separated row")
        if head == "name":
            if "\t" in rest:
                raise LayoutSyntaxError(i, "layout name must not contain tabs")
            name = rest
        elif head == "roles":
            for item in filter(None, rest.split(",")):
                role_txt, eq, key = item.partition("=")
                try:
                    role = Role(role_txt)
                except ValueError:
                    raise LayoutSyntaxError(i, f"unknown role {role_txt!r}") from None
                if not eq or not key:
                    raise LayoutSyntaxError(i, f"malformed role assignment {item!r}")
                if role in roles:
                    raise LayoutSyntaxError(i, f"duplicate role {role_txt!r}")
                roles[role] = key
        elif head in KEYPAD_KEYS:
            if head in slots:
                raise LayoutSyntaxError(i, f"duplicate row for key {head!r}")
            units = []
            for token in filter(None, (t.strip() for t in rest.split(","))):
                try:
                    units.append(parse_unit_token(token))
                except ValueError as exc:
                    raise LayoutSyntaxError(i, str(exc)) from None
            slots[head] = tuple(units)
        else:
            raise LayoutSyntaxError(i, f"unrecognized row {head!r}")
    return Layout(slots=slots, roles=roles, name=name)


def load_layout(path) -> Layout:
    """Read and parse a layout file; bytes that are not UTF-8 are a syntax error."""
    with open(path, "rb") as fh:
        return parse(decode_document(fh.read(), LayoutSyntaxError))
