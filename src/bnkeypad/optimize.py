"""Layout construction as expected-cost minimization.

The objective combines two terms: the frequency-weighted tap cost of
every placed unit, and (optionally) the probability that two adjacent
units land on the same key, weighted by ``jam_weight``:

    value = sum_u p(u) * taps(u) * key_cost(key(u))
          + jam_weight * sum_(a,b) p(a,b) * [key(a) == key(b)]

With ``jam_weight = 0`` the greedy assignment (most frequent unit on the
cheapest slot) is provably optimal. Exhaustive search finds the global
minimum of instances up to the guard's 10 units on 12 slots, which checks
greedy and local search and probes the cost/jamming trade-off. It is a
depth-first branch-and-bound that meets assignment vectors in
lexicographic order and skips a subtree when a lower bound on its scores
cannot beat the best score so far (``_branch_and_bound`` gives the two
bounds), so it returns the minimum that full enumeration returns.

The three solvers and ``objective_value`` share one evaluator: a scorer
built once from the objective and a list of slots (a cost and a key
each), which scores an integer vector giving each unit's slot. Its sums
use ``math.fsum``, so mathematically equal values compare equal whatever
the summation order. Ties break toward the lexicographically smallest
assignment vector in exhaustive search and toward the first swap in scan
order in local search.

Both searches also use the scorer's terms in exact form (``_exact``):
every product and pair weight as an integer over a power-of-two
denominator. A sum of those integers, divided the way ``score`` divides,
is the float ``score`` returns, because ``fsum`` and integer division both
round correctly. Exhaustive search bounds subtrees with them; local search
keeps the cost and jam sums of the current vector as integers, scores each
swap from their change in O(1), and builds one ``Layout`` at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, fsum, inf, isfinite
from operator import mul
from sys import float_info
from typing import Callable, Mapping, NamedTuple, Sequence

from .bn_text import CONSONANTS, Category, FrequencyTable, GraphemeUnit, rank_by_frequency
from .ergonomics import (
    DEFAULT_CONSONANT_KEYS,
    KEYPAD_KEYS,
    ErgonomicModel,
    key_cost,
    rank_keys,
)
from .errors import (
    CapacityError,
    IncompleteAlphabetError,
    IncompleteLayoutError,
    InstanceTooLargeError,
)
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
            if not (isfinite(slot.cost) and slot.cost > 0):
                raise ValueError("slot costs must be finite and strictly positive")
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
    """Instance over the top consonants of a table and the consonant keys.

    A table with no consonant raises ``IncompleteAlphabetError``: an empty
    instance has nothing to place.
    """
    ranked = rank_by_frequency(freq, [Category.CONSONANT])
    if not ranked:
        raise IncompleteAlphabetError(CONSONANTS)
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


class _Scorer(NamedTuple):
    """The objective over index arrays, and the terms it is made of."""

    score: Callable[[Sequence[int]], float]
    p: list[float]  # probability of unit i
    costs: list[float]  # cost of slot j
    keys: list[str]  # key of slot j
    pairs: list[tuple[int, int, float]]  # (unit a, unit b, weight) per bigram
    jam_weight: float


def _scorer(objective: Objective, units, slots) -> _Scorer:
    """The one evaluator of the objective, over index arrays.

    ``units`` lists (unit, count) in assignment order and must match the
    objective's frequency table; ``slots`` are ``KeySlot``s, of which only
    the cost and the key count. ``score`` takes a vector in which
    ``assign[i]`` is the slot of unit i.
    """
    counts = objective.freq.counts
    if len(units) != len(counts) or any(counts.get(u) != c for u, c in units):
        raise ValueError("instance frequencies must match the objective's frequency table")
    total = objective.freq.total
    p = [c / total if total else 0.0 for _, c in units]
    costs = [s.cost for s in slots]
    keys = [s.key for s in slots]
    pairs = []
    jam_weight = objective.jam_weight
    if jam_weight > 0 and objective.bigram_counts:
        btotal = sum(objective.bigram_counts.values())
        index = {u: i for i, (u, _) in enumerate(units)}
        if btotal:
            pairs = [(index[a], index[b], c / btotal)
                     for (a, b), c in objective.bigram_counts.items()]
    cost_of = costs.__getitem__

    def score(assign) -> float:
        # map keeps the hot loop of exhaustive search out of bytecode
        value = fsum(map(mul, p, map(cost_of, assign)))
        if pairs:
            value += jam_weight * fsum(
                pab for ia, ib, pab in pairs if keys[assign[ia]] == keys[assign[ib]])
        return value

    return _Scorer(score, p, costs, keys, pairs, jam_weight)


def _exact(scorer: _Scorer):
    """The scorer's terms as integers over power-of-two denominators.

    Returns ``(cost, den, pairs, jden)``: ``cost[i][j] / den`` is exactly the
    product ``p[i] * costs[j]`` that ``score`` sums, and ``num / jden``
    exactly the weight of the pair ``(a, b, num)``. Let C and J be integer
    sums of these numerators. Both ``fsum`` and integer true division round
    correctly, so ``C / den`` equals ``fsum`` of the products and
    ``J / jden`` equals ``fsum`` of the weights.
    """
    p, costs, pairs = scorer.p, scorer.costs, scorer.pairs
    if not all(map(isfinite, costs)):
        raise ValueError("slot costs must be finite")
    cost, den = _over_common_denominator([[pi * c for c in costs] for pi in p])  # score's floats
    (weights,), jden = _over_common_denominator([[w for _, _, w in pairs]])
    return cost, den, [(a, b, w) for (a, b, _), w in zip(pairs, weights)], jden


def _over_common_denominator(rows: list[list[float]]) -> tuple[list[list[int]], int]:
    """Numerators of rows of finite floats over their largest denominator, and it.

    Every float denominator is a power of two, so the largest is a multiple
    of each and the numerators are exact. Only the numerators are kept, which
    holds down the memory of local search's units x slots table.
    """
    den = max((x.as_integer_ratio()[1] for row in rows for x in row), default=1)
    return [[num * (den // d) for num, d in map(float.as_integer_ratio, row)]
            for row in rows], den


def _layout_scorer(layout: Layout, objective: Objective):
    """Scorer over the positions that a layout gives the objective's units.

    Units are listed in scan order (keypad key, then tap count) and unit i
    starts on slot i. Returns the scorer and (unit, slot) per unit.
    """
    counts = objective.freq.counts
    for unit in counts:
        if layout.position(unit) is None:
            raise IncompleteLayoutError(f"unit {unit.display} is not placed in the layout")
    model = objective.model
    placed = [(unit, KeySlot(key, taps, taps * key_cost(model, key))) for key in KEYPAD_KEYS
              for taps, unit in enumerate(layout.slots[key], start=1) if unit in counts]
    scorer = _scorer(objective, [(u, counts[u]) for u, _ in placed], [s for _, s in placed])
    return scorer, placed


def objective_value(layout: Layout, objective: Objective) -> float:
    """Objective of a layout; every unit of the table must be placed."""
    scorer, placed = _layout_scorer(layout, objective)
    return scorer.score(range(len(placed)))


def _assignment_layout(instance: AssignmentInstance, assign, name: str):
    """Layout of an assignment vector, and the vector with the layout's slots.

    Unused lower slots are compacted away; at an optimum this never
    changes the value because slot costs are nondecreasing per key.
    """
    chosen: dict[str, list[tuple[int, int]]] = {}
    for i, j in enumerate(assign):
        slot = instance.key_slots[j]
        chosen.setdefault(slot.key, []).append((slot.slot_index, i))
    slot_of = {(s.key, s.slot_index): j for j, s in enumerate(instance.key_slots)}
    slots = {}
    compacted = [0] * len(assign)
    for key, placed in chosen.items():
        placed.sort()
        slots[key] = tuple(instance.units[i][0] for _, i in placed)
        for taps, (_, i) in enumerate(placed, start=1):
            compacted[i] = slot_of[(key, taps)]
    return Layout(slots=slots, roles={}, name=name), compacted


def solve_exhaustive(instance: AssignmentInstance, objective: Objective,
                     override_guard: bool = False) -> tuple[Layout, float]:
    """Global minimum over all injective unit-to-slot assignments.

    Refuses instances beyond 10 units / 12 slots unless ``override_guard``
    is set. Ties break toward the lexicographically smallest assignment
    vector (units in instance order, slots in instance order).

    The search is a branch-and-bound in lexicographic order that returns
    the layout and value of scoring all nPk vectors. At jam weight 0.5 on
    a shared 2-vCPU host, the fixture's 6 top consonants on keys 2-6 x 2
    slots take about 4 ms (0.37 s to score all 151,200 vectors), and its
    10 top consonants on keys 2-7 x 2 slots about 25 ms (about 20 minutes
    for all 239.5 M).
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
    scorer = _scorer(objective, instance.units, instance.key_slots)
    layout, compacted = _assignment_layout(instance, _branch_and_bound(scorer), "exhaustive")
    return layout, scorer.score(compacted)


# Relative slack of the rearrangement bound. Let R be the real rearrangement
# minimum. A rounding moves a value by at most a relative u = 2**-53 while it
# stays in the normal float range. So the cost sum that ``score`` rounds is
# at least (1 - u)**2 * R (products, then ``fsum``), and the bound before the
# slack is at most (1 + u)**3 * R (products or the division, ``fsum``, the
# addition); the scaling adds one more factor 1 + u. A slack of 2**-40 covers
# the ratio of about 1 + 6u many times over. Below the normal range a
# rounding is no longer relative, so the bound is switched off when a nonzero
# product is subnormal.
_REARRANGEMENT_SLACK = 2.0 ** -40


def _branch_and_bound(scorer: _Scorer) -> list[int]:
    """Lexicographically smallest assignment vector of minimum score.

    Depth-first over units 0, 1, ... with slots tried in increasing index,
    so assignments come in the order of ``permutations(range(n_slots),
    n_units)``; only ``score`` ranks them, and an incumbent is replaced by a
    strictly smaller score alone. A subtree is skipped when a lower bound on
    the score of each of its assignments cannot beat the incumbent:

    - exact bound: the placed units' cost, each remaining unit on the
      cheapest free slot, and the jam of the placed pairs that share a key
      and of each pair of a unit with itself, summed as integers over one
      power-of-two denominator and divided with the float operations of
      ``score``. As ``fsum`` and integer division are both correctly
      rounded and every later step is monotone, it is at most the score of
      every assignment in the subtree. Skip when it is ``>=`` the
      incumbent: a tie met later is lexicographically larger and loses
      anyway.
    - rearrangement bound: the remaining probabilities in descending order
      against the free slot costs in ascending order, which is the least
      cost of any injective placement (rearrangement inequality), scaled
      down by ``_REARRANGEMENT_SLACK``. Skip when it is ``>`` the incumbent.
    """
    score, p, costs, keys, _, jam_weight = scorer
    n_units, n_slots = len(p), len(costs)
    exact, den, pairs, jden = _exact(scorer)
    # rest[k][j]: units k, k+1, ... all on slot j
    rest = [[0] * n_slots]
    for row in reversed(exact):
        rest.insert(0, [a + b for a, b in zip(row, rest[0])])
    # links[k]: (other unit, jam numerator) of the pairs unit k closes; a
    # unit paired with itself jams wherever it goes, so it counts from the root
    links = [[] for _ in range(n_units)]
    always = 0
    for a, b, w in pairs:
        if a == b:
            always += w
        else:
            links[max(a, b)].append((min(a, b), w))
    by_cost = sorted(range(n_slots), key=costs.__getitem__)
    p_desc = [sorted(p[k:], reverse=True) for k in range(n_units)]
    normal = all(x == 0 or x >= float_info.min for pi in p for x in map(pi.__mul__, costs))
    shrink = 1.0 - _REARRANGEMENT_SLACK if normal else 0.0
    cost_of = costs.__getitem__

    assign = [0] * n_units
    key_of = [""] * n_units
    used = [False] * n_slots
    best_value = inf
    best_assign = None

    def visit(k, cost, jam):
        nonlocal best_value, best_assign
        if k == n_units:
            value = score(assign)
            if value < best_value:
                best_value = value
                best_assign = assign[:]
            return
        free = [j for j in by_cost if not used[j]]
        jam_value = jam_weight * (jam / jden)
        if (cost + rest[k][free[0]]) / den + jam_value >= best_value:
            return
        least = fsum(map(mul, p_desc[k], map(cost_of, free)))
        if (cost / den + least) * shrink + jam_value > best_value:
            return
        for j in range(n_slots):
            if used[j]:
                continue
            used[j] = True
            assign[k] = j
            key = key_of[k] = keys[j]
            closed = sum(w for other, w in links[k] if key_of[other] == key)
            visit(k + 1, cost + exact[k][j], jam + closed)
            used[j] = False

    visit(0, 0, always)
    return best_assign


def solve_greedy(instance: AssignmentInstance, objective: Objective) -> tuple[Layout, float]:
    """Most frequent unit onto the cheapest slot, pairwise down both lists.

    Frequency ties break by ascending codepoint; cost ties by keypad key
    order, then slot index. Optimal whenever ``jam_weight`` is zero.
    """
    if len(instance.units) > len(instance.key_slots):
        raise CapacityError(
            f"{len(instance.units)} units but only {len(instance.key_slots)} slots")
    score = _scorer(objective, instance.units, instance.key_slots).score
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
    layout, compacted = _assignment_layout(instance, assign, "greedy")
    return layout, score(compacted)


def improve_local(start: Layout, objective: Objective,
                  max_iters: int = 100) -> tuple[Layout, float]:
    """Best-improvement hill climbing over pairwise swaps of objective units.

    Only units in the objective's frequency table move; reserved-key
    content stays put. Deterministic: the largest strict improvement is
    applied each round, ties resolved by the first swap in scan order.

    Each swap is scored in O(1) from a running state: the cost sum and the
    jam sum as integer numerators (``_exact``) and, per unit and key, the
    jam numerator of the unit's pairs with the units on that key. A
    candidate's value is divided out with the float operations of the
    shared scorer's ``score``, so it equals ``score`` of the swapped vector
    bit for bit. Slot costs must be finite (``ValueError``).
    """
    scorer, placed = _layout_scorer(start, objective)
    exact, den, pairs, jden = _exact(scorer)
    jam_weight = scorer.jam_weight
    n = len(placed)
    key_ids: dict[str, int] = {}
    key_of = [key_ids.setdefault(k, len(key_ids)) for k in scorer.keys]  # key of slot a
    # pair[u][v]: jam numerator of the pairs (u, v) and (v, u), u != v;
    # near[u][k]: sum of pair[u][v] over the units v on key k
    pair = [[0] * n for _ in range(n)]
    near = [[0] * len(key_ids) for _ in range(n)]
    jam = 0
    for a, b, w in pairs:
        if key_of[a] == key_of[b]:
            jam += w
        if a != b:
            pair[a][b] += w
            pair[b][a] += w
            near[a][key_of[b]] += w
            near[b][key_of[a]] += w
    cost = sum(exact[i][i] for i in range(n))
    held = list(range(n))  # unit on slot a; unit i starts on slot i
    value = cost / den + jam_weight * (jam / jden)  # score(range(n)); no pairs add 0.0
    for _ in range(max_iters):
        best_swap = None
        best_value, best_cost, best_jam = value, cost, jam
        for a in range(n):
            ua, ka = held[a], key_of[a]
            row_a, near_a, pair_a = exact[ua], near[ua], pair[ua]
            cost_a = cost - row_a[a]
            for b in range(a + 1, n):
                ub, kb = held[b], key_of[b]
                row_b = exact[ub]
                c = cost_a + row_a[b] + row_b[a] - row_b[b]
                j = jam
                if ka != kb:
                    near_b = near[ub]
                    j += near_a[kb] - near_a[ka] + near_b[ka] - near_b[kb] - 2 * pair_a[ub]
                # the value is nondecreasing in c and in j, so a swap with
                # both at least the best's cannot score strictly below it
                if c >= best_cost and j >= best_jam:
                    continue
                candidate_value = c / den + jam_weight * (j / jden)
                if candidate_value < best_value:
                    best_value, best_cost, best_jam = candidate_value, c, j
                    best_swap = (a, b)
        if best_swap is None:
            break
        a, b = best_swap
        ua, ub = held[a], held[b]
        ka, kb = key_of[a], key_of[b]
        for v in range(n):
            moved = pair[ua][v] - pair[ub][v]
            near[v][ka] -= moved
            near[v][kb] += moved
        held[a], held[b] = ub, ua
        value, cost, jam = best_value, best_cost, best_jam
    slots = {key: list(placed) for key, placed in start.slots.items()}
    for (_, slot), i in zip(placed, held):
        slots[slot.key][slot.slot_index - 1] = placed[i][0]
    return Layout(slots={k: tuple(v) for k, v in slots.items()},
                  roles=start.roles, name=start.name), value
