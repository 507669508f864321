"""Layout construction as expected-cost minimization.

``AssignmentInstance`` holds the whole problem: units, slots, pairs and
jam weight. A placement's value combines the frequency-weighted cost of
every unit's slot and (optionally) the probability that two adjacent
units land on the same key, weighted by ``jam_weight``:

    value = sum_u p(u) * cost(slot(u))
          + jam_weight * sum_(a,b) p(a,b) * [key(a) == key(b)]

With ``jam_weight = 0`` the greedy assignment (most frequent unit on the
cheapest slot) is provably optimal. Exhaustive search, a branch-and-bound,
finds the global minimum of instances up to the guard's 10 units on 12
slots, which checks greedy and local search and probes the cost/jamming
trade-off. Local search is best-improvement hill climbing over swaps.

The solvers and ``objective_value`` price a layout only through the
record's table of (key, taps) slots, with one evaluator (``_Terms``) whose
cost and jam sums are exact integers, so equal values compare equal
whatever the summation order.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cached_property
from itertools import groupby
from math import ceil, fsum, inf, nextafter
from operator import itemgetter, mul
from sys import float_info
from typing import Mapping, NamedTuple

from .bn_text import (
    ALL_UNITS,
    CONSONANTS,
    Category,
    CorpusStats,
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
    """Frequency table, ergonomics and jam term: an adapter that makes the record."""

    freq: FrequencyTable
    model: ErgonomicModel
    jam_weight: float = 0.0
    bigram_counts: Mapping[tuple[GraphemeUnit, GraphemeUnit], int] | None = None

    def __post_init__(self):
        _check_float("jam_weight", self.jam_weight)
        if self.jam_weight > 0 and self.bigram_counts is None:
            raise ValueError("jam_weight > 0 requires bigram_counts")
        for pair, count in (self.bigram_counts or {}).items():
            _check_int("count", count, 0, of=pair)

    def _record(self, units, key_slots) -> AssignmentInstance:
        """The record of ``units``, which must hold this table's counts, on ``key_slots``."""
        if dict(units) != self.freq.counts:
            raise ValueError("instance frequencies must match the objective's frequency table")
        return AssignmentInstance(tuple(units), tuple(key_slots),
                                  tuple((self.bigram_counts or {}).items()), self.jam_weight)


class KeySlot(NamedTuple):
    """One placement position: key, 1-based slot index, and its tap cost."""

    key: str
    slot_index: int
    cost: float


class AssignmentInstance(_Record):
    """The problem: units with ``int`` counts, the keypad slots open to them, the
    ((a, b), count) pairs among the units and the jam weight. Construction
    raises ``CapacityError`` when there are more units than slots."""

    units: tuple[tuple[GraphemeUnit, int], ...]
    key_slots: tuple[KeySlot, ...]
    pairs: tuple[tuple[tuple[GraphemeUnit, GraphemeUnit], int], ...] = ()
    jam_weight: float = 0.0

    def __post_init__(self):
        units = {u for u, _ in self.units}
        if len(units) != len(self.units):
            raise ValueError("instance units must be unique")
        for unit, count in self.units:
            _check_int("count", count, 0, of=unit)
        by_key: dict[str, list[KeySlot]] = {}
        for slot in self.key_slots:
            if slot.key not in KEYPAD_KEYS:
                raise ValueError(f"slot on unknown key {slot.key!r}")
            _check_float("slot cost", slot.cost)
            by_key.setdefault(slot.key, []).append(slot)
        for key, slots in by_key.items():
            slots.sort(key=itemgetter(1))
            if [s.slot_index for s in slots] != list(range(1, len(slots) + 1)):
                raise ValueError(f"slot indices on key {key} must form 1..{len(slots)}")
            if any(a.cost > b.cost for a, b in zip(slots, slots[1:])):
                raise ValueError(f"slot costs on key {key} must be nondecreasing")
        if len(self.units) > len(self.key_slots):
            raise CapacityError(f"{len(self.units)} units but only {len(self.key_slots)} slots")
        _check_float("jam_weight", self.jam_weight)
        for (a, b), count in self.pairs:
            _check_int("count", count, 0, of=(a, b))
            if a not in units or b not in units:
                raise ValueError(f"pair ({a.display}, {b.display}) references a unit "
                                 "outside the instance")

    @cached_property
    def _jam(self) -> tuple[list[tuple[int, int, int]], int]:
        """(unit a, unit b, w) per pair by unit index, and ``den``: ``w / den`` is p(a, b)."""
        if not (self.jam_weight > 0 and (total := sum(c for _, c in self.pairs))):
            return [], 1
        index = {u: i for i, (u, _) in enumerate(self.units)}
        (weights,), den = over_common_denominator([[c / total for _, c in self.pairs]])
        return [(index[a], index[b], w) for ((a, b), _), w in zip(self.pairs, weights)], den

    @cached_property
    def _slot_of(self) -> dict[tuple[str, int], int]:
        """The price table: slot (key, taps) -> its index in ``key_slots``."""
        return {(s.key, s.slot_index): j for j, s in enumerate(self.key_slots)}


def _key_slots(model: ErgonomicModel, key: str, n: int) -> list[KeySlot]:
    """Slots 1..n of a key; slot s costs ``s * key_cost``, one press cost per tap."""
    return [KeySlot(key, s, s * cost) for cost in (key_cost(model, key),) for s in range(1, n + 1)]


def consonant_instance(freq: FrequencyTable, model: ErgonomicModel, max_units: int | None = None,
                       keys: tuple[str, ...] | None = None,
                       slots_per_key: int | None = None) -> AssignmentInstance:
    """Instance over the top consonants of a table and the consonant keys, with no pairs.

    A table with no consonant raises ``IncompleteAlphabetError``. These
    raise ``ValueError``: ``max_units`` below 1, ``slots_per_key`` outside
    ``1..len(ALL_UNITS)`` (a key never needs more slots than there are
    units), either one not an ``int`` (``bool`` included), an empty
    ``keys`` and a key named twice.
    """
    return _consonants(freq, model, max_units, keys, slots_per_key)


def problem_from_stats(stats: CorpusStats, model: ErgonomicModel, jam_weight: float = 0.0,
                       max_units=None, slots_per_key=None) -> AssignmentInstance:
    """:func:`consonant_instance` of a corpus's consonant counts, with ``jam_weight``
    and, if it is not 0, the pairs among the chosen consonants."""
    return _consonants(FrequencyTable(stats.counts_among(CONSONANTS)), model, max_units, None,
                       slots_per_key, jam_weight, stats)


def _consonants(freq, model, max_units, keys, slots_per_key, jam_weight=0.0, stats=None):
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
    key_slots = tuple(s for key in keys for s in _key_slots(model, key, slots_per_key))
    pairs = stats.pairs_among(ranked) if jam_weight else {}
    return AssignmentInstance(tuple((u, freq.counts[u]) for u in ranked), key_slots,
                              tuple(pairs.items()), jam_weight)


def restrict_bigrams(bigram_counts: Mapping[tuple[GraphemeUnit, GraphemeUnit], int],
                     units) -> dict[tuple[GraphemeUnit, GraphemeUnit], int]:
    """Keep only pairs whose both members are in ``units``."""
    keep = set(units)
    return {pair: c for pair, c in bigram_counts.items()
            if pair[0] in keep and pair[1] in keep}


class _Terms:
    """An instance's objective over index arrays, as integer numerators.

    ``units`` and ``slots`` list instance indices, by default all in
    instance order; ``assign`` puts unit ``units[i]`` on slot
    ``slots[assign[i]]``. Its cost sum is C / den, where C sums the
    numerators of the float products ``p[i] * costs[j]`` over a power-of-two
    den, and its jam sum is J / ``jden``, where J sums the numerators ``w``
    of the pairs (a, b, w) whose units share a key. Both are exact, so
    ``value`` rounds the objective once per term. ``keys[j]`` numbers the
    key of slot j from 0, in order of first appearance, and ``n_keys``
    counts the keys.
    """

    def __init__(self, instance: AssignmentInstance, units=None, slots=None):
        if units is None:
            units, slots = range(len(instance.units)), range(len(instance.key_slots))
        total = sum(c for _, c in instance.units)
        self.p = [instance.units[i][1] / total if total else 0.0 for i in units]
        slots = [instance.key_slots[j] for j in slots]
        self.costs = [s.cost for s in slots]
        key_ids: dict[str, int] = {}
        self.keys = [key_ids.setdefault(s.key, len(key_ids)) for s in slots]
        self.n_keys = len(key_ids)
        self.jam_weight = instance.jam_weight
        pairs, self.jden = instance._jam
        at = {i: k for k, i in enumerate(units)}
        self.pairs = [(at[a], at[b], w) for a, b, w in pairs]

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


def _layout_assignment(layout: Layout, problem: AssignmentInstance | Objective):
    """The record of a problem, and the vector of the slots a layout gives its units.

    A unit that the layout leaves out, or puts outside the problem's slots,
    raises ``IncompleteLayoutError``. An ``Objective`` becomes the record with a
    :func:`_key_slots` slot per unit on each key that holds one of its units.
    """
    units = list(problem.freq.counts if isinstance(problem, Objective) else dict(problem.units))
    spots = list(map(layout.position, units))
    if None in spots:
        missing = units[spots.index(None)]
        raise IncompleteLayoutError(f"unit {missing.display} is not placed in the layout")
    if isinstance(problem, Objective):
        keys = {key for key, _ in spots}
        problem = problem._record(problem.freq.counts.items(), [
            s for key in KEYPAD_KEYS if key in keys
            for s in _key_slots(problem.model, key, len(layout.slots[key]))])
    slot_of = problem._slot_of
    for unit, (key, taps) in zip(units, spots):
        if (key, taps) not in slot_of:
            raise IncompleteLayoutError(f"unit {unit.display} is on key {key} at tap {taps}, "
                                        "outside the instance's slots")
    return problem, [slot_of[spot] for spot in spots]


def objective_value(layout: Layout, problem: AssignmentInstance | Objective) -> float:
    """Objective of a layout; every unit of the problem must be on one of its slots."""
    problem, assign = _layout_assignment(layout, problem)
    return _Terms(problem).score(assign)


def _assignment_layout(instance: AssignmentInstance, assign, name: str):
    """Layout of an assignment vector, and the vector with the layout's slots.

    Unused lower slots are compacted away: the units on a key keep their
    order and take its slots 1, 2, ...; at an optimum this never changes the
    value because slot costs are nondecreasing per key.
    """
    slots, slot_of, units = instance.key_slots, instance._slot_of, instance.units
    spots = sorted((_KEY_INDEX[slots[j].key], slots[j].slot_index, i)
                   for i, j in enumerate(assign))
    by_key: dict[str, list[GraphemeUnit]] = {}
    compacted = [0] * len(assign)
    for k, on_key in groupby(spots, itemgetter(0)):
        held = by_key[KEYPAD_KEYS[k]] = []
        for taps, (_, _, i) in enumerate(on_key, start=1):
            held.append(units[i][0])
            compacted[i] = slot_of[KEYPAD_KEYS[k], taps]
    return Layout(slots=by_key, roles={}, name=name), compacted


def solve_exhaustive(instance: AssignmentInstance, objective: Objective | None = None,
                     override_guard: bool = False) -> tuple[Layout, float]:
    """Global minimum over all injective unit-to-slot assignments.

    Refuses instances beyond 10 units / 12 slots unless ``override_guard``
    is set. Ties break toward the lexicographically smallest assignment
    vector (units in instance order, slots in instance order).

    It returns the layout and value of scoring all nPk vectors, and
    :func:`_branch_and_bound` gives the search.
    """
    if objective is not None:
        instance = objective._record(instance.units, instance.key_slots)
    n_units, n_slots = len(instance.units), len(instance.key_slots)
    if not override_guard and (n_units > GUARD_MAX_UNITS or n_slots > GUARD_MAX_SLOTS):
        raise InstanceTooLargeError(
            f"instance has {n_units} units and {n_slots} slots; the exhaustive "
            f"guard allows {GUARD_MAX_UNITS} units and {GUARD_MAX_SLOTS} slots"
        )
    terms = _Terms(instance)
    # the greedy vector is one of the assignments, so the minimum is at most its value
    bound = nextafter(terms.score(_greedy_assignment(instance)), inf)
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


def solve_greedy(instance: AssignmentInstance,
                 objective: Objective | None = None) -> tuple[Layout, float]:
    """Most frequent unit onto the cheapest slot, pairwise down both lists.

    Units go in :func:`~bnkeypad.bn_text.rank_by_frequency` order; cost
    ties break by keypad key order, as in ``rank_keys``, then slot index.
    Optimal whenever ``jam_weight`` is zero.
    """
    if objective is not None:
        instance = objective._record(instance.units, instance.key_slots)
    layout, compacted = _assignment_layout(instance, _greedy_assignment(instance), "greedy")
    return layout, _Terms(instance).score(compacted)


def _greedy_assignment(instance: AssignmentInstance) -> list[int]:
    """The vector of :func:`solve_greedy`, before its layout is built."""
    counts = dict(instance.units)
    index = {unit: i for i, unit in enumerate(counts)}
    slots = instance.key_slots
    slot_order = sorted(range(len(slots)),
                        key=lambda j: (slots[j].cost, _KEY_INDEX[slots[j].key],
                                       slots[j].slot_index))
    assign = [0] * len(counts)
    for unit, j in zip(rank_by_frequency(FrequencyTable(counts)), slot_order):
        assign[index[unit]] = j
    return assign


def improve_local(start: Layout, problem: AssignmentInstance | Objective,
                  max_iters: int = 100) -> tuple[Layout, float]:
    """Best-improvement hill climbing over pairwise swaps of the problem's units.

    Only the problem's units move; other content stays put. Deterministic:
    the largest strict improvement is applied each round, ties resolved by
    the first swap in scan order. ``max_iters`` must be an ``int`` (not a
    ``bool``) ``>= 0`` (``ValueError``); at 0 the start is scored and
    returned. :func:`_descend` gives the search.
    """
    _check_int("max_iters", max_iters, 0)
    problem, assign = _layout_assignment(start, problem)
    final, _, value = _descend(problem, assign, max_iters)
    slots = {key: list(units) for key, units in start.slots.items()}
    for (unit, _), j in zip(problem.units, final):
        key, taps, _ = problem.key_slots[j]
        slots[key][taps - 1] = unit
    return Layout(slots=slots, roles=start.roles, name=start.name), value


def _local_from_greedy(problem: AssignmentInstance,
                       max_iters: int) -> tuple[Layout, float, float]:
    """Layout, greedy value and value of ``improve_local(solve_greedy(problem)[0],
    problem, max_iters)``, searched from the greedy vector with no layout read back."""
    final, start_value, value = _descend(problem, _greedy_assignment(problem), max_iters)
    return _assignment_layout(problem, final, "greedy")[0], start_value, value


def _descend(problem: AssignmentInstance, assign,
             max_iters: int) -> tuple[list[int], float, float]:
    """Local search from an assignment vector, for ``max_iters`` rounds at most.

    Returns the vector at the end, the start value and the end value. The
    search runs on the vector's slots in scan order (keypad key, then taps),
    slot a starting with the a-th unit in that order. Each swap is scored in
    O(1) from a running state: the cost sum and the jam sum as the integer
    numerators of the objective's terms and, per unit and key, the jam
    numerator of the unit's pairs with the units on that key. A candidate's
    value is the terms' ``value`` of its two sums, so it is the objective of
    the swapped vector.

    A swap can lower the value only if it lowers the cost sum or the jam
    sum. Swapping the units of slots a and b lowers the jam sum by at most
    S_a + S_b, where S_x is the jam of slot x's unit with its key-mates. So
    the scan of a slot a with S_a = 0 scores only the partners b with
    S_b > 0 or with a negative cost change. A slot-pair table holds the
    pairs with a negative cost change: it is built in the first round that
    has such a slot (at jam weight 0, the first round), and an applied swap
    refreshes the pairs of its two slots, O(n).
    """
    slots = problem.key_slots
    order = sorted(range(len(assign)),
                   key=lambda i: (_KEY_INDEX[slots[assign[i]].key], slots[assign[i]].slot_index))
    terms = _Terms(problem, order, [assign[i] for i in order])
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
    final = assign[:]
    for a, k in enumerate(held):
        final[order[k]] = assign[order[a]]
    return final, start_value, value
