"""Layout construction as expected-cost minimization.

The objective combines two terms: the frequency-weighted tap cost of
every placed unit, and (optionally) the probability that two adjacent
units land on the same key, weighted by ``jam_weight``:

    value = sum_u p(u) * taps(u) * key_cost(key(u))
          + jam_weight * sum_(a,b) p(a,b) * [key(a) == key(b)]

With ``jam_weight = 0`` the greedy assignment (most frequent unit on the
cheapest slot) is provably optimal, so the exhaustive solver mainly
serves as an oracle for testing and for probing the cost/jamming
trade-off on small instances. All objective sums use ``math.fsum`` so
that mathematically equal values compare equal regardless of summation
order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from math import ceil, fsum, isfinite
from typing import Mapping, NamedTuple

from .bn_text import Category, FrequencyTable, GraphemeUnit, rank_by_frequency
from .ergonomics import (
    DEFAULT_CONSONANT_KEYS,
    KEYPAD_KEYS,
    ErgonomicModel,
    key_cost,
    rank_keys,
)
from .errors import CapacityError, IncompleteLayoutError, InstanceTooLargeError
from .layout import Layout

GUARD_MAX_UNITS = 10
GUARD_MAX_SLOTS = 12


@dataclass(frozen=True)
class Objective:
    """Cost model for a placement: frequency table, ergonomics, jam term."""

    freq: FrequencyTable
    model: ErgonomicModel
    jam_weight: float = 0.0
    bigram_counts: Mapping[tuple[GraphemeUnit, GraphemeUnit], int] | None = None

    def __post_init__(self):
        if not (isfinite(self.jam_weight) and self.jam_weight >= 0):
            raise ValueError(f"jam_weight must be finite and >= 0, got {self.jam_weight}")
        if self.jam_weight > 0 and self.bigram_counts is None:
            raise ValueError("jam_weight > 0 requires bigram_counts")
        if self.bigram_counts is not None:
            units = set(self.freq.counts)
            for (a, b), count in self.bigram_counts.items():
                if count < 0:
                    raise ValueError("bigram counts must be non-negative")
                if a not in units or b not in units:
                    raise ValueError(
                        f"bigram ({a.display}, {b.display}) references a unit "
                        "outside the objective's frequency table"
                    )


class KeySlot(NamedTuple):
    """One placement position: key, 1-based slot index, and its tap cost."""

    key: str
    slot_index: int
    cost: float


@dataclass(frozen=True)
class AssignmentInstance:
    """A set of weighted units and the slot positions open to them."""

    units: tuple[tuple[GraphemeUnit, int], ...]
    key_slots: tuple[KeySlot, ...]

    def __post_init__(self):
        if len(set(u for u, _ in self.units)) != len(self.units):
            raise ValueError("instance units must be unique")
        if any(c < 0 for _, c in self.units):
            raise ValueError("unit frequencies must be non-negative")
        by_key: dict[str, list[KeySlot]] = {}
        for slot in self.key_slots:
            if slot.cost <= 0:
                raise ValueError("slot costs must be strictly positive")
            by_key.setdefault(slot.key, []).append(slot)
        for key, slots in by_key.items():
            indices = sorted(s.slot_index for s in slots)
            if indices != list(range(1, len(indices) + 1)):
                raise ValueError(f"slot indices on key {key} must form 1..{len(indices)}")
            costs = [s.cost for s in sorted(slots, key=lambda s: s.slot_index)]
            if any(a > b for a, b in zip(costs, costs[1:])):
                raise ValueError(f"slot costs on key {key} must be nondecreasing")


def consonant_instance(freq: FrequencyTable, model: ErgonomicModel,
                       max_units: int | None = None,
                       keys: tuple[str, ...] | None = None,
                       slots_per_key: int | None = None) -> AssignmentInstance:
    """Instance over the top consonants of a table and the consonant keys."""
    ranked = rank_by_frequency(freq, [Category.CONSONANT])
    if max_units is not None:
        ranked = ranked[:max_units]
    if keys is None:
        keys = tuple(rank_keys(model, DEFAULT_CONSONANT_KEYS))
    if slots_per_key is None:
        slots_per_key = ceil(len(ranked) / len(keys)) if ranked else 1
    key_slots = tuple(KeySlot(key, s, s * key_cost(model, key))
                      for key in keys for s in range(1, slots_per_key + 1))
    units = tuple((u, freq.counts[u]) for u in ranked)
    return AssignmentInstance(units, key_slots)


def restrict_bigrams(bigram_counts: Mapping[tuple[GraphemeUnit, GraphemeUnit], int],
                     units) -> dict[tuple[GraphemeUnit, GraphemeUnit], int]:
    """Keep only pairs whose both members are in ``units``."""
    keep = set(units)
    return {pair: c for pair, c in bigram_counts.items()
            if pair[0] in keep and pair[1] in keep}


def objective_value(layout: Layout, objective: Objective) -> float:
    """Objective of a layout; every unit of the table must be placed."""
    total = objective.freq.total
    terms = []
    keys_by_unit: dict[GraphemeUnit, str] = {}
    for unit, count in objective.freq.counts.items():
        spot = layout.position(unit)
        if spot is None:
            raise IncompleteLayoutError(f"unit {unit.display} is not placed in the layout")
        key, taps = spot
        keys_by_unit[unit] = key
        if total:
            terms.append((count / total) * (taps * key_cost(objective.model, key)))
    value = fsum(terms)
    if objective.jam_weight > 0 and objective.bigram_counts:
        btotal = sum(objective.bigram_counts.values())
        if btotal:
            jam_terms = [count / btotal
                         for (a, b), count in objective.bigram_counts.items()
                         if keys_by_unit[a] == keys_by_unit[b]]
            value += objective.jam_weight * fsum(jam_terms)
    return value


def _check_instance_matches(instance: AssignmentInstance, objective: Objective) -> None:
    # keeps the fast per-assignment valuation and objective_value consistent
    counts = objective.freq.counts
    if len(instance.units) != len(counts) or any(
            counts.get(u) != c for u, c in instance.units):
        raise ValueError("instance frequencies must match the objective's frequency table")


def _prepared(instance: AssignmentInstance, objective: Objective):
    total = sum(c for _, c in instance.units)
    p = [c / total if total else 0.0 for _, c in instance.units]
    slot_costs = [s.cost for s in instance.key_slots]
    slot_keys = [s.key for s in instance.key_slots]
    pair_terms = []
    if objective.jam_weight > 0 and objective.bigram_counts:
        btotal = sum(objective.bigram_counts.values())
        index = {u: i for i, (u, _) in enumerate(instance.units)}
        if btotal:
            pair_terms = [(index[a], index[b], c / btotal)
                          for (a, b), c in objective.bigram_counts.items()]
    return p, slot_costs, slot_keys, pair_terms


def _assignment_value(p, slot_costs, slot_keys, pair_terms, jam_weight, assign) -> float:
    value = fsum(p[i] * slot_costs[assign[i]] for i in range(len(p)))
    if pair_terms:
        value += jam_weight * fsum(
            pab for ia, ib, pab in pair_terms
            if slot_keys[assign[ia]] == slot_keys[assign[ib]])
    return value


def _assignment_layout(instance: AssignmentInstance, assign, name: str) -> Layout:
    # unused lower slots are compacted away; at an optimum this never
    # changes the value because slot costs are nondecreasing per key
    chosen: dict[str, list[tuple[int, GraphemeUnit]]] = {}
    for i, (unit, _) in enumerate(instance.units):
        slot = instance.key_slots[assign[i]]
        chosen.setdefault(slot.key, []).append((slot.slot_index, unit))
    slots = {key: tuple(u for _, u in sorted(placed, key=lambda t: t[0]))
             for key, placed in chosen.items()}
    return Layout(slots=slots, roles={}, name=name)


def _compacted_assignment(instance: AssignmentInstance, layout: Layout):
    slot_index = {(s.key, s.slot_index): i for i, s in enumerate(instance.key_slots)}
    assign = []
    for unit, _ in instance.units:
        key, taps = layout.position(unit)
        assign.append(slot_index[(key, taps)])
    return tuple(assign)


def solve_exhaustive(instance: AssignmentInstance, objective: Objective,
                     override_guard: bool = False) -> tuple[Layout, float]:
    """Global minimum over all injective unit-to-slot assignments.

    Refuses instances beyond 10 units / 12 slots unless ``override_guard``
    is set. Ties break toward the lexicographically smallest assignment
    vector (units in instance order, slots in instance order).
    """
    n_units = len(instance.units)
    n_slots = len(instance.key_slots)
    if n_units > n_slots:
        raise CapacityError(f"{n_units} units but only {n_slots} slots")
    if not override_guard and (n_units > GUARD_MAX_UNITS or n_slots > GUARD_MAX_SLOTS):
        raise InstanceTooLargeError(
            f"instance has {n_units} units and {n_slots} slots; the exhaustive "
            f"guard allows {GUARD_MAX_UNITS} units and {GUARD_MAX_SLOTS} slots"
        )
    _check_instance_matches(instance, objective)
    p, slot_costs, slot_keys, pair_terms = _prepared(instance, objective)

    best_assign = None
    best_value = None
    for assign in permutations(range(n_slots), n_units):
        value = _assignment_value(p, slot_costs, slot_keys, pair_terms,
                                  objective.jam_weight, assign)
        if best_value is None or value < best_value:
            best_value = value
            best_assign = assign
    if best_assign is None:  # zero units: the empty layout
        return Layout(slots={}, roles={}, name="exhaustive"), 0.0
    layout = _assignment_layout(instance, best_assign, "exhaustive")
    value = _assignment_value(p, slot_costs, slot_keys, pair_terms,
                              objective.jam_weight,
                              _compacted_assignment(instance, layout))
    return layout, value


def solve_greedy(instance: AssignmentInstance, objective: Objective) -> tuple[Layout, float]:
    """Most frequent unit onto the cheapest slot, pairwise down both lists.

    Frequency ties break by ascending codepoint; cost ties by keypad key
    order, then slot index. Optimal whenever ``jam_weight`` is zero.
    """
    if len(instance.units) > len(instance.key_slots):
        raise CapacityError(
            f"{len(instance.units)} units but only {len(instance.key_slots)} slots")
    _check_instance_matches(instance, objective)
    p, slot_costs, slot_keys, pair_terms = _prepared(instance, objective)

    unit_order = sorted(range(len(instance.units)),
                        key=lambda i: (-instance.units[i][1],
                                       instance.units[i][0].codepoints))
    slot_order = sorted(range(len(instance.key_slots)),
                        key=lambda j: (instance.key_slots[j].cost,
                                       KEYPAD_KEYS.index(instance.key_slots[j].key),
                                       instance.key_slots[j].slot_index))
    assign = [0] * len(instance.units)
    for i, j in zip(unit_order, slot_order):
        assign[i] = j
    layout = _assignment_layout(instance, tuple(assign), "greedy")
    value = _assignment_value(p, slot_costs, slot_keys, pair_terms,
                              objective.jam_weight,
                              _compacted_assignment(instance, layout))
    return layout, value


def _swap(layout: Layout, pos_a: tuple[str, int], pos_b: tuple[str, int]) -> Layout:
    slots = {key: list(units) for key, units in layout.slots.items()}
    (ka, ia), (kb, ib) = pos_a, pos_b
    slots[ka][ia], slots[kb][ib] = slots[kb][ib], slots[ka][ia]
    return Layout(slots={k: tuple(v) for k, v in slots.items()},
                  roles=layout.roles, name=layout.name)


def improve_local(start: Layout, objective: Objective,
                  max_iters: int = 100) -> tuple[Layout, float]:
    """Best-improvement hill climbing over pairwise swaps of objective units.

    Only units in the objective's frequency table move; reserved-key
    content stays put. Deterministic: the largest strict improvement is
    applied each round, ties resolved by the first swap in scan order.
    """
    movable = set(objective.freq.counts)
    current = start
    value = objective_value(current, objective)
    for _ in range(max_iters):
        positions = [(key, i)
                     for key in KEYPAD_KEYS
                     for i in range(len(current.slots[key]))
                     if current.slots[key][i] in movable]
        best_candidate = None
        best_value = value
        for a in range(len(positions)):
            for b in range(a + 1, len(positions)):
                candidate = _swap(current, positions[a], positions[b])
                candidate_value = objective_value(candidate, objective)
                if candidate_value < best_value:
                    best_value = candidate_value
                    best_candidate = candidate
        if best_candidate is None:
            break
        current, value = best_candidate, best_value
    return current, value
