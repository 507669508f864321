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

The three solvers and ``objective_value`` share one evaluator, built once
from the objective and a list of slots (a cost and a key each). It holds
every product of a unit probability and a slot cost, and every pair
weight, as an integer over a power-of-two denominator, so the cost and jam
sums of an assignment are exact integers and its value rounds each of them
once. Mathematically equal values therefore compare equal whatever the
summation order. Ties break toward the lexicographically smallest
assignment vector in exhaustive search and toward the first swap in scan
order in local search. Exhaustive search carries the integer sums down
its tree and bounds subtrees with them; local search keeps the sums of
the current vector, scores each swap from their change in O(1), skips
the swaps that lower neither sum, and builds one ``Layout`` at the end.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import groupby
from math import ceil, fsum, inf, isfinite, nextafter
from operator import itemgetter, mul
from sys import float_info
from typing import Mapping, NamedTuple

from .bn_text import (
    ALL_UNITS,
    CONSONANTS,
    Category,
    FrequencyTable,
    GraphemeUnit,
    _Record,
    _check_float,
    _check_int,
    rank_by_frequency,
)
from .ergonomics import (
    DEFAULT_CONSONANT_KEYS,
    KEYPAD_KEYS,
    _KEY_INDEX,
    ErgonomicModel,
    key_cost,
    over_common_denominator,
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


class Objective(_Record):
    """Cost model for a placement: frequency table, ergonomics, jam term."""

    freq: FrequencyTable
    model: ErgonomicModel
    jam_weight: float = 0.0
    bigram_counts: Mapping[tuple[GraphemeUnit, GraphemeUnit], int] | None = None

    def __post_init__(self):
        _check_float("jam_weight", self.jam_weight)
        if self.jam_weight > 0 and self.bigram_counts is None:
            raise ValueError("jam_weight > 0 requires bigram_counts")
        if self.bigram_counts is not None:
            units = set(self.freq.counts)
            for (a, b), count in self.bigram_counts.items():
                _check_int("count", count, 0, of=(a, b))
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


class AssignmentInstance(_Record):
    """A set of units with ``int`` counts, and the keypad slot positions open to them.

    Construction raises ``CapacityError`` when there are more units than slots.
    """

    units: tuple[tuple[GraphemeUnit, int], ...]
    key_slots: tuple[KeySlot, ...]

    def __post_init__(self):
        if len(set(u for u, _ in self.units)) != len(self.units):
            raise ValueError("instance units must be unique")
        for unit, count in self.units:
            _check_int("count", count, 0, of=unit)
        by_key: dict[str, list[KeySlot]] = {}
        for slot in self.key_slots:
            if slot.key not in KEYPAD_KEYS:
                raise ValueError(f"slot on unknown key {slot.key!r}")
            _check_float("slot cost", slot.cost, positive=True)
            by_key.setdefault(slot.key, []).append(slot)
        for key, slots in by_key.items():
            indices = sorted(s.slot_index for s in slots)
            if indices != list(range(1, len(indices) + 1)):
                raise ValueError(f"slot indices on key {key} must form 1..{len(indices)}")
            costs = [s.cost for s in sorted(slots, key=lambda s: s.slot_index)]
            if any(a > b for a, b in zip(costs, costs[1:])):
                raise ValueError(f"slot costs on key {key} must be nondecreasing")
        if len(self.units) > len(self.key_slots):
            raise CapacityError(f"{len(self.units)} units but only {len(self.key_slots)} slots")


def consonant_instance(freq: FrequencyTable, model: ErgonomicModel,
                       max_units: int | None = None,
                       keys: tuple[str, ...] | None = None,
                       slots_per_key: int | None = None) -> AssignmentInstance:
    """Instance over the top consonants of a table and the consonant keys.

    A table with no consonant raises ``IncompleteAlphabetError``: an empty
    instance has nothing to place. ``max_units`` below 1 raises
    ``ValueError`` for the same reason. ``slots_per_key`` outside
    ``1..len(ALL_UNITS)`` raises ``ValueError``: a key never needs more
    slots than there are units to place on it. Either one that is not an
    ``int`` (``bool`` included) raises ``ValueError``. An empty ``keys``
    raises ``ValueError``: it leaves no slot. So does a key named twice,
    whose slots would repeat.
    """
    if max_units is not None:
        _check_int("max_units", max_units, 1)
    if keys is not None and not keys:
        raise ValueError("keys must name at least one key")
    if keys is not None and (repeated := [k for i, k in enumerate(keys) if k in keys[:i]]):
        raise ValueError(f"keys must not repeat: {repeated[0]!r}")
    if slots_per_key is not None:
        _check_int("slots_per_key", slots_per_key, 1, len(ALL_UNITS))
    ranked = rank_by_frequency(freq.restricted([Category.CONSONANT]))
    if not ranked:
        raise IncompleteAlphabetError(CONSONANTS)
    if max_units is not None:
        ranked = ranked[:max_units]
    if keys is None:
        keys = tuple(rank_keys(model, DEFAULT_CONSONANT_KEYS))
    if slots_per_key is None:
        slots_per_key = ceil(len(ranked) / len(keys))
    key_slots = tuple(KeySlot(key, s, s * cost)
                      for key in keys for cost in (key_cost(model, key),)
                      for s in range(1, slots_per_key + 1))
    units = tuple((u, freq.counts[u]) for u in ranked)
    return AssignmentInstance(units, key_slots)


def restrict_bigrams(bigram_counts: Mapping[tuple[GraphemeUnit, GraphemeUnit], int],
                     units) -> dict[tuple[GraphemeUnit, GraphemeUnit], int]:
    """Keep only pairs whose both members are in ``units``."""
    keep = set(units)
    return {pair: c for pair, c in bigram_counts.items()
            if pair[0] in keep and pair[1] in keep}


class _Terms:
    """The objective over index arrays, as integer numerators.

    ``units`` lists (unit, count) in assignment order and must match the
    objective's frequency table; ``slots`` are ``KeySlot``s, of which only
    the cost and the key count, and the costs must be finite. A vector
    ``assign`` puts unit i on slot ``assign[i]``. Its cost sum is C / den,
    where C sums the numerators of the float products ``p[i] * costs[j]``
    over a power-of-two den, and its jam sum is J / ``jden``, where J sums
    the numerators ``w`` of the pairs (a, b, w) whose units share a key.
    Both are exact, so ``value`` rounds the objective once per term.
    ``keys[j]`` numbers the key of slot j from 0, in order of first
    appearance, and ``n_keys`` counts the keys.
    """

    def __init__(self, objective: Objective, units, slots):
        counts = objective.freq.counts
        if len(units) != len(counts) or any(counts.get(u) != c for u, c in units):
            raise ValueError("instance frequencies must match the objective's frequency table")
        self.costs = [s.cost for s in slots]
        if not all(map(isfinite, self.costs)):
            raise ValueError("slot costs must be finite")
        total = objective.freq.total
        self.p = [c / total if total else 0.0 for _, c in units]
        key_ids: dict[str, int] = {}
        self.keys = [key_ids.setdefault(s.key, len(key_ids)) for s in slots]
        self.n_keys = len(key_ids)
        self.jam_weight = jam_weight = objective.jam_weight
        self.pairs, self.jden = [], 1
        bigrams = objective.bigram_counts
        if jam_weight > 0 and bigrams and (btotal := sum(bigrams.values())):
            index = {u: i for i, (u, _) in enumerate(units)}
            (weights,), self.jden = over_common_denominator(
                [[c / btotal for c in bigrams.values()]])
            self.pairs = [(index[a], index[b], w) for (a, b), w in zip(bigrams, weights)]

    def value(self, c: int, den: int, j: int) -> float:
        """The objective of cost sum ``c / den`` and jam sum ``j / jden``."""
        return c / den + self.jam_weight * (j / self.jden)

    def table(self) -> tuple[list[list[int]], int]:
        """``(cost, den)``: ``cost[i][j] / den`` is ``p[i] * costs[j]`` exactly."""
        return over_common_denominator([[pi * c for c in self.costs] for pi in self.p])

    def score(self, assign) -> float:
        """Objective of an assignment vector, from the n products it uses."""
        (nums,), den = over_common_denominator(
            [list(map(mul, self.p, map(self.costs.__getitem__, assign)))])
        keys = self.keys
        jam = sum(w for a, b, w in self.pairs if keys[assign[a]] == keys[assign[b]])
        return self.value(sum(nums), den, jam)


def _layout_terms(layout: Layout, objective: Objective):
    """Terms over the positions that a layout gives the objective's units.

    Units are listed in scan order (keypad key, then tap count) and unit i
    starts on slot i. Returns the terms and (unit, slot) per unit.
    """
    counts = objective.freq.counts
    for unit in counts:
        if layout.position(unit) is None:
            raise IncompleteLayoutError(f"unit {unit.display} is not placed in the layout")
    model = objective.model
    placed = [(unit, KeySlot(key, taps, taps * cost)) for key in KEYPAD_KEYS
              if not counts.keys().isdisjoint(layout.slots[key])
              for cost in (key_cost(model, key),)
              for taps, unit in enumerate(layout.slots[key], start=1) if unit in counts]
    terms = _Terms(objective, [(u, counts[u]) for u, _ in placed], [s for _, s in placed])
    return terms, placed


def objective_value(layout: Layout, objective: Objective) -> float:
    """Objective of a layout; every unit of the table must be placed."""
    terms, placed = _layout_terms(layout, objective)
    return terms.score(range(len(placed)))


def _compacted(instance: AssignmentInstance, assign) -> list[tuple[int, int]]:
    """(unit i, slot j) per unit of an assignment vector, in scan order.

    Scan order is keypad key, then slot index. Unused lower slots are
    compacted away: the units on a key keep their order and take its slots
    1, 2, ...; at an optimum this never changes the value because slot
    costs are nondecreasing per key.
    """
    slots = instance.key_slots
    slot_of = {(s.key, s.slot_index): j for j, s in enumerate(slots)}
    spots = sorted((_KEY_INDEX[slots[j].key], slots[j].slot_index, i)
                   for i, j in enumerate(assign))
    return [(i, slot_of[KEYPAD_KEYS[k], taps]) for k, on_key in groupby(spots, itemgetter(0))
            for taps, (_, _, i) in enumerate(on_key, start=1)]


def _assignment_layout(instance: AssignmentInstance, assign, name: str):
    """Layout of an assignment vector, and the vector with the layout's slots.

    The units are compacted as :func:`_compacted` places them.
    """
    slots: dict[str, list[GraphemeUnit]] = {}
    compacted = [0] * len(assign)
    for i, j in _compacted(instance, assign):
        slots.setdefault(instance.key_slots[j].key, []).append(instance.units[i][0])
        compacted[i] = j
    return Layout(slots=slots, roles={}, name=name), compacted


def solve_exhaustive(instance: AssignmentInstance, objective: Objective,
                     override_guard: bool = False) -> tuple[Layout, float]:
    """Global minimum over all injective unit-to-slot assignments.

    Refuses instances beyond 10 units / 12 slots unless ``override_guard``
    is set. Ties break toward the lexicographically smallest assignment
    vector (units in instance order, slots in instance order).

    The search is a branch-and-bound in lexicographic order that returns
    the layout and value of scoring all nPk vectors. Its first incumbent
    value is just above the greedy vector's, so it prunes from the root.
    The README gives its running times.
    """
    n_units = len(instance.units)
    n_slots = len(instance.key_slots)
    if not override_guard and (n_units > GUARD_MAX_UNITS or n_slots > GUARD_MAX_SLOTS):
        raise InstanceTooLargeError(
            f"instance has {n_units} units and {n_slots} slots; the exhaustive "
            f"guard allows {GUARD_MAX_UNITS} units and {GUARD_MAX_SLOTS} slots"
        )
    terms = _Terms(objective, instance.units, instance.key_slots)
    # the greedy vector is one of the assignments, so the minimum is at most its value
    bound = nextafter(terms.score(_greedy_assignment(instance, objective)), inf)
    layout, compacted = _assignment_layout(instance, _branch_and_bound(terms, bound),
                                           "exhaustive")
    return layout, terms.score(compacted)


# Relative slack of the rearrangement bound. Let R be the real rearrangement
# minimum. A rounding moves a value by at most a relative u = 2**-53 while it
# stays in the normal float range. So the cost sum that ``value`` returns is
# at least (1 - u)**2 * R (products, then a correctly rounded sum), and the
# bound before the slack is at most (1 + u)**3 * R (products or the division,
# ``fsum``, the addition); the scaling adds one more factor 1 + u. A slack of
# 2**-40 covers the ratio of about 1 + 6u many times over. Below the normal
# range a rounding is no longer relative, so the bound is switched off when a
# nonzero product is subnormal.
_REARRANGEMENT_SLACK = 2.0 ** -40


def _branch_and_bound(terms: _Terms, bound: float) -> list[int]:
    """Lexicographically smallest assignment vector of minimum value.

    ``bound`` must be above the minimum. It is the first incumbent value,
    which only a leaf of smaller value replaces, so each leaf of minimum
    value still can. Depth-first over units 0, 1, ... with slots tried in
    increasing index, so assignments come in the order of
    ``permutations(range(n_slots), n_units)``. Each node carries the
    integer cost and jam sums of its placed units, and a leaf's value is
    ``terms.value`` of them, so only the objective ranks assignments, and
    an incumbent is replaced by a strictly smaller value alone. A subtree
    is skipped when a lower bound on the value of each of its assignments
    cannot beat the incumbent:

    - exact bound: ``terms.value`` of the placed units' cost plus each
      remaining unit on the cheapest free slot, and of the jam of the placed
      pairs that share a key and of each pair of a unit with itself. Its
      integer sums are at most those of every assignment in the subtree and
      ``value`` is monotone in them. Skip when it is ``>=`` the incumbent: a
      tie met later is lexicographically larger and loses anyway.
    - rearrangement bound: the remaining probabilities in descending order
      against the free slot costs in ascending order, which is the least
      cost of any injective placement (rearrangement inequality), scaled
      down by ``_REARRANGEMENT_SLACK``. Skip when it is ``>`` the incumbent.
    """
    p, costs, keys, jam_weight, jden = (terms.p, terms.costs, terms.keys,
                                        terms.jam_weight, terms.jden)
    value_of = terms.value
    n_units, n_slots = len(p), len(costs)
    exact, den = terms.table()
    # rest[k][j]: units k, k+1, ... all on slot j
    rest = [[0] * n_slots]
    for row in reversed(exact):
        rest.insert(0, [a + b for a, b in zip(row, rest[0])])
    # links[k]: (other unit, jam numerator) of the pairs unit k closes; a
    # unit paired with itself jams wherever it goes, so it counts from the root
    links = [[] for _ in range(n_units)]
    always = 0
    for a, b, w in terms.pairs:
        if a == b:
            always += w
        else:
            links[max(a, b)].append((min(a, b), w))
    by_cost = sorted(range(n_slots), key=costs.__getitem__)
    p_desc = [sorted(p[k:], reverse=True) for k in range(n_units)]
    normal = all(x == 0 or x >= float_info.min for pi in p for x in map(pi.__mul__, costs))
    shrink = 1.0 - _REARRANGEMENT_SLACK if normal else 0.0
    cost_of = costs.__getitem__
    slot_keys = list(enumerate(keys))
    no_jam = [0] * terms.n_keys

    assign = [0] * n_units
    key_of = [0] * n_units  # key of the slot of each placed unit
    used = [False] * n_slots
    best_value = bound
    best_assign = None

    def visit(k, cost, jam):
        nonlocal best_value, best_assign
        if k == n_units:
            value = value_of(cost, den, jam)
            if value < best_value:
                best_value = value
                best_assign = assign[:]
            return
        free = [j for j in by_cost if not used[j]]
        if value_of(cost + rest[k][free[0]], den, jam) >= best_value:
            return
        least = fsum(map(mul, p_desc[k], map(cost_of, free)))
        if (cost / den + least) * shrink + jam_weight * (jam / jden) > best_value:
            return
        # closes[key]: the jam numerator of the pairs unit k closes on that key
        closes = no_jam
        if links[k]:
            closes = no_jam[:]
            for other, w in links[k]:
                closes[key_of[other]] += w
        row = exact[k]
        for j, key in slot_keys:
            if used[j]:
                continue
            used[j] = True
            assign[k] = j
            key_of[k] = key
            visit(k + 1, cost + row[j], jam + closes[key])
            used[j] = False

    visit(0, 0, always)
    return best_assign


def solve_greedy(instance: AssignmentInstance, objective: Objective) -> tuple[Layout, float]:
    """Most frequent unit onto the cheapest slot, pairwise down both lists.

    Units go in :func:`~bnkeypad.bn_text.rank_by_frequency` order; cost
    ties break by keypad key order, as in ``rank_keys``, then slot index.
    Optimal whenever ``jam_weight`` is zero.
    """
    score = _Terms(objective, instance.units, instance.key_slots).score
    layout, compacted = _assignment_layout(instance, _greedy_assignment(instance, objective),
                                           "greedy")
    return layout, score(compacted)


def _greedy_assignment(instance: AssignmentInstance, objective: Objective) -> list[int]:
    """The vector of :func:`solve_greedy`, before its layout is built.

    The objective's table must hold the instance's units and counts, as
    ``_Terms`` checks.
    """
    index = {unit: i for i, (unit, _) in enumerate(instance.units)}
    slot_order = sorted(range(len(instance.key_slots)),
                        key=lambda j: (instance.key_slots[j].cost,
                                       _KEY_INDEX[instance.key_slots[j].key],
                                       instance.key_slots[j].slot_index))
    assign = [0] * len(instance.units)
    for unit, j in zip(rank_by_frequency(objective.freq), slot_order):
        assign[index[unit]] = j
    return assign


def improve_local(start: Layout, objective: Objective,
                  max_iters: int = 100) -> tuple[Layout, float]:
    """Best-improvement hill climbing over pairwise swaps of objective units.

    Only units in the objective's frequency table move; reserved-key
    content stays put. Deterministic: the largest strict improvement is
    applied each round, ties resolved by the first swap in scan order.
    Slot costs must be finite (``ValueError``), and ``max_iters`` must be
    an ``int`` (not a ``bool``) ``>= 0`` (``ValueError``); at 0 the start
    is scored and returned. :func:`_descend` gives the search.
    """
    _check_int("max_iters", max_iters, 0)
    terms, placed = _layout_terms(start, objective)
    held, _, value = _descend(terms, max_iters)
    slots = {key: list(placed) for key, placed in start.slots.items()}
    for (_, slot), i in zip(placed, held):
        slots[slot.key][slot.slot_index - 1] = placed[i][0]
    return Layout(slots={k: tuple(v) for k, v in slots.items()},
                  roles=start.roles, name=start.name), value


def _local_from_greedy(instance: AssignmentInstance, objective: Objective,
                       max_iters: int) -> tuple[Layout, float, float]:
    """The layout and value of ``improve_local`` from ``solve_greedy``, and its start value.

    One search state is built, from the greedy vector. Slot costs must be
    ``slot_index * key_cost`` as in :func:`consonant_instance`, the table
    must hold the instance's units, and ``max_iters`` an ``int >= 0``.
    """
    placed = _compacted(instance, _greedy_assignment(instance, objective))
    units = [instance.units[i] for i, _ in placed]
    slots = [instance.key_slots[j] for _, j in placed]
    held, start_value, value = _descend(_Terms(objective, units, slots), max_iters)
    by_key: dict[str, list[GraphemeUnit]] = {}
    for slot, i in zip(slots, held):
        by_key.setdefault(slot.key, []).append(units[i][0])
    return Layout(slots=by_key, roles={}, name="greedy"), start_value, value


def _descend(terms: _Terms, max_iters: int) -> tuple[list[int], float, float]:
    """Local search from unit i on slot i of ``terms``, for ``max_iters`` rounds at most.

    Returns the unit on each slot at the end, the start value and the value.

    Each swap is scored in O(1) from a running state: the cost sum and the
    jam sum as the integer numerators of the objective's terms and, per unit
    and key, the jam numerator of the unit's pairs with the units on that
    key. A candidate's value is the terms' ``value`` of its two sums, so it
    is the objective of the swapped vector.

    A swap can lower the value only if it lowers the cost sum or the jam
    sum. Swapping the units of slots a and b lowers the jam sum by at most
    S_a + S_b, where S_x is the jam of slot x's unit with its key-mates. So
    the scan of a slot a with S_a = 0 scores only the partners b with
    S_b > 0 or with a negative cost change. A slot-pair table holds the
    pairs with a negative cost change: it is built in the first round that
    has such a slot (at jam weight 0, the first round), and an applied swap
    refreshes the pairs of its two slots, O(n).
    """
    exact, den = terms.table()
    value_of = terms.value
    n = len(terms.p)
    key_of = terms.keys  # key of slot a
    # pair[u][v]: jam numerator of the pairs (u, v) and (v, u), u != v;
    # near[u][k]: sum of pair[u][v] over the units v on key k
    pair = [[0] * n for _ in range(n)]
    near = [[0] * terms.n_keys for _ in range(n)]
    jam = 0
    for a, b, w in terms.pairs:
        if key_of[a] == key_of[b]:
            jam += w
        if a != b:
            pair[a][b] += w
            pair[b][a] += w
            near[a][key_of[b]] += w
            near[b][key_of[a]] += w
    held = list(range(n))  # unit on slot a; unit i starts on slot i
    rows = exact[:]  # rows[a]: the cost row of the unit on slot a
    stay = [rows[a][a] for a in range(n)]  # its cost numerator there
    cost = sum(stay)
    value = start_value = value_of(cost, den, jam)
    # lower[a]: the slots b > a whose swap with slot a lowers the cost sum
    lower = None
    for _ in range(max_iters):
        jams = [near[held[a]][key_of[a]] for a in range(n)]  # S_a
        jamming = [a for a in range(n) if jams[a]]
        if lower is None and len(jamming) < n:
            lower = [{b for b in range(a + 1, n) if row[b] + rows[b][a] < stay[a] + stay[b]}
                     for a, row in enumerate(rows)]
        best_swap = None
        best_value, best_cost, best_jam = value, cost, jam
        for a in range(n):
            ua, ka = held[a], key_of[a]
            row_a, near_a, pair_a = rows[a], near[ua], pair[ua]
            cost_a = cost - stay[a]
            jam_a = jam - jams[a]
            if jams[a]:
                partners = range(a + 1, n)
            else:
                partners = jamming[bisect_right(jamming, a):]
                if lower[a]:
                    partners = sorted(lower[a].union(partners))
            for b in partners:
                c = cost_a + row_a[b] + rows[b][a] - stay[b]
                kb = key_of[b]
                if ka == kb:
                    j = jam
                else:
                    ub = held[b]
                    j = jam_a - jams[b] + near_a[kb] + near[ub][ka] - 2 * pair_a[ub]
                # the value is nondecreasing in c and in j, so a swap with
                # both at least the best's cannot score strictly below it
                if c >= best_cost and j >= best_jam:
                    continue
                candidate_value = value_of(c, den, j)
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
        rows[a], rows[b] = rows[b], rows[a]
        stay[a], stay[b] = rows[a][a], rows[b][b]
        if lower is not None:
            for x in (a, b):
                row_x = rows[x]
                for y in range(n):
                    if y != x:
                        low, high = (x, y) if x < y else (y, x)
                        if row_x[y] + rows[y][x] < stay[x] + stay[y]:
                            lower[low].add(high)
                        else:
                            lower[low].discard(high)
        value, cost, jam = best_value, best_cost, best_jam
    return held, start_value, value
