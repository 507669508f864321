"""Objective, exhaustive oracle, greedy assignment, local search."""

import itertools
import random
import re
from dataclasses import replace
from math import fsum, perm
from operator import mul
from typing import Callable, NamedTuple, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnkeypad.bn_text import (
    CONSONANTS,
    INDEPENDENT_VOWELS,
    Category,
    CorpusStats,
    FrequencyTable,
    count_unit_bigrams,
    rank_by_frequency,
    unit_for,
)
from bnkeypad.ergonomics import (
    KEYPAD_KEYS,
    Direction,
    ErgonomicModel,
    KeyErgonomics,
    default_model,
    key_cost,
)
from bnkeypad.errors import (
    CapacityError,
    IncompleteAlphabetError,
    IncompleteLayoutError,
    InstanceTooLargeError,
)
from bnkeypad.layout import Layout
from bnkeypad.optimize import (
    AssignmentInstance,
    KeySlot,
    Objective,
    _assignment_layout,
    consonant_instance,
    improve_local,
    objective_value,
    restrict_bigrams,
    solve_exhaustive,
    solve_greedy,
)
from bnkeypad.transcribe import evaluate

KA, KHA, GA, GHA, NGA, CA, CHA, JA = (unit_for(c) for c in "কখগঘঙচছজ")


def flat_model(angle: float = 90.0) -> ErgonomicModel:
    """All keys identical: forward flexion at the given angle."""
    entries = {k: KeyErgonomics(angle, Direction.FORWARD) for k in KEYPAD_KEYS}
    return ErgonomicModel(entries)


def make_instance(units_counts, key_slots):
    freq = FrequencyTable.from_counts(dict(units_counts))
    instance = AssignmentInstance(tuple(units_counts), tuple(key_slots))
    return instance, freq


def random_instance(rng, model, jam_weight=0.0):
    """Model-consistent instance: slot cost is slot_index * key_cost."""
    n_keys = rng.randint(2, 4)
    keys = rng.sample(list(KEYPAD_KEYS), n_keys)
    slots_per_key = rng.randint(1, 8 // n_keys)
    key_slots = []
    for key in keys:
        base = key_cost(model, key)
        for s in range(1, slots_per_key + 1):
            key_slots.append(KeySlot(key, s, s * base))
    n_units = rng.randint(2, min(6, len(key_slots)))
    chosen = rng.sample(list(CONSONANTS), n_units)
    units_counts = [(u, rng.randint(0, 50)) for u in chosen]
    instance, freq = make_instance(units_counts, key_slots)
    bigrams = None
    if jam_weight > 0:
        bigrams = {}
        for a, b in itertools.permutations(chosen, 2):
            if rng.random() < 0.4:
                bigrams[(a, b)] = rng.randint(1, 10)
    objective = Objective(freq, model, jam_weight, bigrams)
    return instance, objective


# ---------------------------------------------------------------------------
# independent brute-force valuation (plain sums, no shared code)
# ---------------------------------------------------------------------------

def oracle_value(instance, objective, assign):
    total = sum(c for _, c in instance.units)
    value = 0.0
    keys = {}
    for (unit, count), j in zip(instance.units, assign):
        slot = instance.key_slots[j]
        keys[unit] = slot.key
        if total:
            value += (count / total) * slot.cost
    if objective.jam_weight > 0 and objective.bigram_counts:
        btotal = sum(objective.bigram_counts.values())
        jam = 0.0
        for (a, b), count in objective.bigram_counts.items():
            if keys[a] == keys[b]:
                jam += count / btotal
        value += objective.jam_weight * jam
    return value


def oracle_minimum(instance, objective):
    best = None
    for assign in itertools.permutations(range(len(instance.key_slots)),
                                         len(instance.units)):
        value = oracle_value(instance, objective, assign)
        if best is None or value < best:
            best = value
    return best


# ---------------------------------------------------------------------------
# the fsum scorer that the solvers used before the exact evaluator; the
# reference searches score with it, so they share no code with the solvers
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# objective_value
# ---------------------------------------------------------------------------

def test_objective_single_unit_direct_substitution():
    model = flat_model(90.0)  # every key costs (180-90)/180 = 0.5
    freq = FrequencyTable.from_counts({KA: 7})
    layout = Layout(slots={"5": (KA,)})
    assert objective_value(layout, Objective(freq, model)) == 0.5


def test_objective_counts_taps():
    model = flat_model(90.0)
    freq = FrequencyTable.from_counts({KA: 1, KHA: 1})
    layout = Layout(slots={"5": (KA, KHA)})
    # p=1/2 each; ka 1 tap, kha 2 taps, each tap 0.5
    assert objective_value(layout, Objective(freq, model)) == 0.5 * 0.5 + 0.5 * 1.0


def test_objective_unplaced_unit_rejected(model):
    freq = FrequencyTable.from_counts({KA: 1, KHA: 1})
    layout = Layout(slots={"5": (KA,)})
    with pytest.raises(IncompleteLayoutError):
        objective_value(layout, Objective(freq, model))


def test_objective_invariant_under_count_rescaling(model):
    counts = {u: 3 * i + 1 for i, u in enumerate(CONSONANTS[:8])}
    doubled = {u: 2 * c for u, c in counts.items()}
    layout = Layout(slots={"2": tuple(CONSONANTS[:4]), "7": tuple(CONSONANTS[4:8])})
    a = objective_value(layout, Objective(FrequencyTable.from_counts(counts), model))
    b = objective_value(layout, Objective(FrequencyTable.from_counts(doubled), model))
    assert a == b


def test_objective_jam_term():
    model = flat_model(90.0)
    freq = FrequencyTable.from_counts({KA: 1, KHA: 1, GA: 2})
    bigrams = {(KA, KHA): 3, (KHA, GA): 1}
    together = Layout(slots={"5": (KA, KHA), "6": (GA,)})
    apart = Layout(slots={"5": (KA,), "6": (GA,), "7": (KHA,)})
    o = Objective(freq, model, jam_weight=2.0, bigram_counts=bigrams)
    base_together = objective_value(together, Objective(freq, model))
    # only (ka, kha) shares a key: jam adds 2.0 * 3/4
    assert objective_value(together, o) == base_together + 2.0 * 0.75
    base_apart = objective_value(apart, Objective(freq, model))
    assert objective_value(apart, o) == base_apart


def test_objective_validation(model):
    freq = FrequencyTable.from_counts({KA: 1})
    with pytest.raises(ValueError):
        Objective(freq, model, jam_weight=1.0)  # no bigrams
    with pytest.raises(ValueError):
        Objective(freq, model, jam_weight=-1.0)
    with pytest.raises(ValueError):
        Objective(freq, model, jam_weight=1.0, bigram_counts={(KA, KHA): 1})


@pytest.mark.parametrize("jam_weight", [float("nan"), float("inf")])
def test_objective_rejects_non_finite_jam_weight(model, jam_weight):
    freq = FrequencyTable.from_counts({KA: 1})
    with pytest.raises(ValueError):
        Objective(freq, model, jam_weight, bigram_counts={(KA, KA): 1})


def test_objective_agrees_with_evaluate_on_matching_corpus(model, corpus_table):
    consonant_table = corpus_table.restricted([Category.CONSONANT])
    instance = consonant_instance(consonant_table, model)
    objective = Objective(consonant_table, model)
    layout, value = solve_greedy(instance, objective)
    text = [u for u, c in consonant_table.counts.items() for _ in range(c % 97)]
    small = FrequencyTable.from_counts({u: c % 97 for u, c in consonant_table.counts.items()
                                        if c % 97})
    report = evaluate(CorpusStats.from_units(text), layout, model)
    assert report.expected_cost == pytest.approx(
        objective_value(layout, Objective(small, model)), rel=1e-9)


# ---------------------------------------------------------------------------
# instance validation
# ---------------------------------------------------------------------------

def test_instance_validation():
    with pytest.raises(ValueError):
        AssignmentInstance(((KA, 1), (KA, 2)), (KeySlot("2", 1, 1.0),))
    with pytest.raises(ValueError):
        AssignmentInstance(((KA, 1),), (KeySlot("2", 2, 1.0),))  # no slot 1
    with pytest.raises(ValueError):
        AssignmentInstance(((KA, 1),), (KeySlot("2", 1, 0.0),))  # zero cost
    for cost in (float("inf"), float("nan")):
        with pytest.raises(ValueError):
            AssignmentInstance(((KA, 1),), (KeySlot("2", 1, cost),))
    with pytest.raises(ValueError):
        AssignmentInstance(((KA, 1),),
                           (KeySlot("2", 1, 2.0), KeySlot("2", 2, 1.0)))  # decreasing


@pytest.mark.parametrize("count", [1.5, float("inf"), float("nan"), True], ids=repr)
def test_instance_and_objective_refuse_a_count_that_is_not_an_int(model, count):
    with pytest.raises(ValueError, match=re.escape(repr(KA))):
        AssignmentInstance(((KA, count),), (KeySlot("2", 1, 1.0),))
    with pytest.raises(ValueError, match=re.escape(repr((KA, KHA)))):
        Objective(FrequencyTable.from_counts({KA: 1, KHA: 1}), model, 1.0,
                  bigram_counts={(KA, KHA): count})


@pytest.mark.parametrize("solve", [solve_greedy, solve_exhaustive])
def test_solvers_refuse_a_slot_on_an_unknown_key(model, solve):
    objective = Objective(FrequencyTable.from_counts({KA: 1}), model)
    with pytest.raises(ValueError, match="unknown key 'X'"):
        solve(AssignmentInstance(((KA, 1),), (KeySlot("X", 1, 1.0),)), objective)


def test_solver_rejects_mismatched_objective(model):
    instance, _ = make_instance([(KA, 5)], [KeySlot("2", 1, 1.0)])
    other = Objective(FrequencyTable.from_counts({KA: 7}), model)
    with pytest.raises(ValueError):
        solve_greedy(instance, other)


# ---------------------------------------------------------------------------
# exhaustive + greedy
# ---------------------------------------------------------------------------

def test_two_unit_rearrangement(model):
    instance, freq = make_instance(
        [(KA, 9), (KHA, 1)],
        [KeySlot("2", 1, 1.0), KeySlot("2", 2, 2.0)],
    )
    objective = Objective(freq, model)
    layout, value = solve_exhaustive(instance, objective)
    assert layout.position(KA) == ("2", 1)
    assert layout.position(KHA) == ("2", 2)
    assert value == pytest.approx(0.9 * 1.0 + 0.1 * 2.0)
    greedy_layout, greedy_value = solve_greedy(instance, objective)
    assert greedy_value == value
    assert greedy_layout.slots == layout.slots


def test_symmetric_instance_value_independent_of_assignment():
    model = flat_model()
    units = list(CONSONANTS[:4])
    counts = {u: 5 for u in units}
    keys = ("2", "4", "5", "7")
    instance = AssignmentInstance(
        tuple((u, 5) for u in units),
        tuple(KeySlot(k, 1, key_cost(model, k)) for k in keys),
    )
    objective = Objective(FrequencyTable.from_counts(counts), model)
    _, best = solve_exhaustive(instance, objective)
    rng = random.Random(3)
    for _ in range(5):
        order = list(units)
        rng.shuffle(order)
        layout = Layout(slots={k: (u,) for k, u in zip(keys, order)})
        assert objective_value(layout, objective) == pytest.approx(best, rel=1e-12)


def test_six_units_three_keys_matches_bruteforce(model):
    rng = random.Random(60)
    units = rng.sample(list(CONSONANTS), 6)
    units_counts = [(u, rng.randint(1, 40)) for u in units]
    key_slots = []
    for key in ("2", "5", "9"):
        base = key_cost(model, key)
        key_slots.extend([KeySlot(key, 1, base), KeySlot(key, 2, 2 * base)])
    instance, freq = make_instance(units_counts, key_slots)
    objective = Objective(freq, model)
    expected = oracle_minimum(instance, objective)
    _, exhaustive_value = solve_exhaustive(instance, objective)
    _, greedy_value = solve_greedy(instance, objective)
    assert exhaustive_value == pytest.approx(expected, rel=1e-12)
    assert greedy_value == exhaustive_value


def test_greedy_matches_exhaustive_on_random_instances(model):
    rng = random.Random(2718)
    for _ in range(40):
        instance, objective = random_instance(rng, model)
        _, exhaustive_value = solve_exhaustive(instance, objective)
        _, greedy_value = solve_greedy(instance, objective)
        assert greedy_value == exhaustive_value


def test_exhaustive_respects_jam_term(model):
    rng = random.Random(11)
    for _ in range(10):
        instance, objective = random_instance(rng, model, jam_weight=1.5)
        _, value = solve_exhaustive(instance, objective)
        assert value == pytest.approx(oracle_minimum(instance, objective), rel=1e-12)
        _, greedy_value = solve_greedy(instance, objective)
        assert value <= greedy_value + 1e-12


def test_greedy_tie_breaks(model):
    # equal frequencies: codepoint order fills cost order
    units = sorted(random.Random(8).sample(list(CONSONANTS), 3),
                   key=lambda u: u.codepoints)
    instance, freq = make_instance(
        [(u, 7) for u in units],
        [KeySlot("4", 1, 0.5), KeySlot("4", 2, 1.0), KeySlot("6", 1, 0.5)],
    )
    layout, _ = solve_greedy(instance, Objective(freq, default_model()))
    # cost ties (0.5 on keys 4 and 6) break by keypad order: key 4 first
    assert layout.position(units[0]) == ("4", 1)
    assert layout.position(units[1]) == ("6", 1)
    assert layout.position(units[2]) == ("4", 2)


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 12))
def test_greedy_places_units_in_the_frequency_order(rng, n):
    # the instance lists its units in a random order, four count values tie
    # many of them, and keys of cost 1 and 2 tie slots across keys
    units = rng.sample(list(CONSONANTS), n)
    counts = {u: rng.randint(0, 3) for u in units}
    keys = rng.sample(KEYPAD_KEYS, rng.randint(1, 4))
    per_key = -(-n // len(keys)) + rng.randint(0, 1)
    costs = rng.choices([1.0, 2.0], k=len(keys))
    key_slots = [KeySlot(key, s, s * cost) for key, cost in zip(keys, costs)
                 for s in range(1, per_key + 1)]
    instance = AssignmentInstance(tuple((u, counts[u]) for u in units), tuple(key_slots))
    table = FrequencyTable.from_counts(counts)
    layout, _ = solve_greedy(instance, Objective(table, default_model()))
    cheapest = sorted(key_slots, key=lambda s: (s.cost, KEYPAD_KEYS.index(s.key), s.slot_index))
    assert ([layout.position(u) for u in rank_by_frequency(table)]
            == [(s.key, s.slot_index) for s in cheapest[:n]])


def test_single_unit_lands_on_cheapest_slot(model):
    instance, freq = make_instance(
        [(KA, 3)],
        [KeySlot("7", 1, 0.9), KeySlot("3", 1, 0.4), KeySlot("3", 2, 0.8)],
    )
    layout, value = solve_greedy(instance, Objective(freq, model))
    assert layout.position(KA) == ("3", 1)
    assert value == pytest.approx(0.4)


def test_capacity_and_guard_errors(model):
    # an instance with more units than slots is never built, so no solver sees one
    with pytest.raises(CapacityError, match="^3 units but only 2 slots$"):
        make_instance([(u, 1) for u in CONSONANTS[:3]],
                      [KeySlot("2", 1, 1.0), KeySlot("2", 2, 2.0)])

    units = [(u, 1) for u in CONSONANTS[:3]]
    wide = [KeySlot(k, 1, key_cost(model, k)) for k in KEYPAD_KEYS] + [
        KeySlot("1", 2, 2 * key_cost(model, "1"))]
    big_instance, big_freq = make_instance(units, wide)
    big_objective = Objective(big_freq, model)
    with pytest.raises(InstanceTooLargeError):
        solve_exhaustive(big_instance, big_objective)
    _, value = solve_exhaustive(big_instance, big_objective, override_guard=True)
    _, greedy_value = solve_greedy(big_instance, big_objective)
    assert value == greedy_value


# ---------------------------------------------------------------------------
# exhaustive search against full enumeration
# ---------------------------------------------------------------------------

def reference_solve_exhaustive(instance, objective):
    """Score every injective assignment in lexicographic order; keep the first minimum."""
    score = _scorer(objective, instance.units, instance.key_slots).score
    best_assign = None
    best_value = None
    for assign in itertools.permutations(range(len(instance.key_slots)),
                                         len(instance.units)):
        value = score(assign)
        if best_value is None or value < best_value:
            best_value = value
            best_assign = assign
    layout, compacted = _assignment_layout(instance, best_assign, "exhaustive")
    return layout, score(compacted)


def random_exhaustive_case(rng, jam_weight):
    """An instance of up to 7 units / 10 slots, rich in ties.

    Key costs tie under ``flat_model``; slot costs can also be made equal
    across keys; counts can be all equal or all zero; bigrams are sparse or
    dense. Instances stay within 8P7 = 40,320 assignments so the reference
    enumeration is quick.
    """
    model = rng.choice([flat_model(), default_model(),
                        default_model(extension_penalty=0.0, angle_weight=0.5)])
    keys = rng.sample(list(KEYPAD_KEYS), rng.randint(1, 5))
    per_key = rng.randint(1, 10 // len(keys))
    even = rng.random() < 0.3
    key_slots = [KeySlot(key, s, s * (0.5 if even else key_cost(model, key)))
                 for key in keys for s in range(1, per_key + 1)]
    n_units = rng.randint(0, min(7, len(key_slots)))
    while perm(len(key_slots), n_units) > 40_320:
        n_units -= 1
    units = rng.sample(list(CONSONANTS), n_units)
    counts = rng.choice(["random", "equal", "zero"])
    units_counts = [(u, {"random": rng.randint(0, 30), "equal": 7, "zero": 0}[counts])
                    for u in units]
    instance, freq = make_instance(units_counts, key_slots)
    bigrams = None
    if jam_weight > 0 or rng.random() < 0.5:
        density = rng.choice([0.1, 0.5, 1.0])
        bigrams = {(a, b): rng.randint(0, 9)
                   for a, b in itertools.product(units, repeat=2) if rng.random() < density}
    return instance, Objective(freq, model, jam_weight, bigrams)


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False), st.floats(0.0, 3.0))
def test_exhaustive_equals_full_enumeration(rng, jam_weight):
    instance, objective = random_exhaustive_case(rng, jam_weight)
    layout, value = solve_exhaustive(instance, objective)
    ref_layout, ref_value = reference_solve_exhaustive(instance, objective)
    assert layout == ref_layout
    assert value == ref_value


def test_exhaustive_with_subnormal_slot_costs(model):
    # products p * cost below the normal float range round by more than a
    # relative 2**-53, which the rearrangement bound's slack does not cover
    costs = {"2": (3.5e-323, 7e-323), "3": (1e-323, 1.5e-323), "4": (1.5e-323, 5e-323)}
    key_slots = [KeySlot(k, s, c) for k, pair in costs.items()
                 for s, c in enumerate(pair, start=1)]
    counts = [845, 941, 186, 562, 368]
    instance, freq = make_instance(list(zip(CONSONANTS, counts)), key_slots)
    objective = Objective(freq, model)
    assert solve_exhaustive(instance, objective) == reference_solve_exhaustive(instance, objective)


@pytest.mark.parametrize("jam_weight", [0.2, 2.0])
def test_exhaustive_when_one_unit_closes_pairs_on_two_keys(jam_weight):
    # GHA, placed last, closes its pairs with KA and KHA on one key and with
    # GA on the other whenever KA and KHA share a key that GA is not on; at
    # jam weight 0.2 a search that kept one pair per key picks another layout
    model = default_model()
    key_slots = [KeySlot(k, s, s * key_cost(model, k)) for k in ("2", "5") for s in (1, 2, 3)]
    instance, freq = make_instance([(KA, 7), (KHA, 2), (GA, 9), (GHA, 4)], key_slots)
    objective = Objective(freq, model, jam_weight, {(GHA, KA): 5, (KHA, GHA): 1, (GHA, GA): 3})
    layout, value = solve_exhaustive(instance, objective)
    assert (layout, value) == reference_solve_exhaustive(instance, objective)
    assert value == objective_value(layout, objective)


def test_exhaustive_counts_a_self_pair_in_every_value(model):
    # the self pair's jam of 1.0 swamps the costs, so every assignment has
    # value 1.0 and the lexicographically first one wins; a search that
    # left the pair out would rank by cost and put KA on the cheaper key
    key_slots = [KeySlot("2", 1, 2e-20), KeySlot("3", 1, 1e-20)]
    instance, freq = make_instance([(KA, 2), (KHA, 1)], key_slots)
    objective = Objective(freq, model, 1.0, {(KA, KA): 1})
    layout, value = solve_exhaustive(instance, objective)
    assert (layout, value) == reference_solve_exhaustive(instance, objective)
    assert (layout.slots["2"], layout.slots["3"], value) == ((KA,), (KHA,), 1.0)


def test_exhaustive_prefers_a_smaller_vector_that_ties_the_greedy_one(model):
    # greedy puts KA, first by codepoint among equal counts, on the cheaper
    # slot 0, so its vector is [1, 0]; [0, 1] has the same value and is
    # lexicographically smaller, and a search seeded with the greedy value
    # must still return it
    instance, freq = make_instance([(KHA, 1), (KA, 1)],
                                   [KeySlot("3", 1, 0.5), KeySlot("2", 1, 1.0)])
    objective = Objective(freq, model)
    greedy, greedy_value = solve_greedy(instance, objective)
    layout, value = solve_exhaustive(instance, objective)
    assert (layout, value) == reference_solve_exhaustive(instance, objective)
    assert value == greedy_value == oracle_minimum(instance, objective)
    assert greedy.position(KA) == ("3", 1)
    assert layout.position(KHA) == ("3", 1) and layout.position(KA) == ("2", 1)


# Instances at the guard's limit. Each has up to 239.5 M assignments, and
# the bounds let exhaustive search finish in a fraction of a second; a
# bound that stops pruning makes these tests run for minutes.

def fixture_instance(corpus_table, corpus_units, model, n_units, keys, jam_weight=0.5):
    instance = consonant_instance(corpus_table.restricted([Category.CONSONANT]), model,
                                  max_units=n_units, keys=keys, slots_per_key=2)
    chosen = [u for u, _ in instance.units]
    pairs = restrict_bigrams(count_unit_bigrams(corpus_units), chosen)
    objective = Objective(FrequencyTable.from_counts(dict(instance.units)), model,
                          jam_weight, pairs)
    return instance, objective


# A unit paired with itself jams on any key, so with one slot per key every
# placement still ties.
@pytest.mark.parametrize("self_pairs", [False, True])
def test_exhaustive_all_ties_at_guard_limit(self_pairs):
    model = flat_model()
    units = list(CONSONANTS[:10])
    instance, freq = make_instance([(u, 3) for u in units],
                                   [KeySlot(k, 1, key_cost(model, k)) for k in KEYPAD_KEYS])
    if self_pairs:
        objective = Objective(freq, model, 1.0, {(u, u): 2 for u in units})
    else:
        objective = Objective(freq, model)
    layout, value = solve_exhaustive(instance, objective)
    assert value == objective_value(layout, objective)
    placement = Layout(slots={k: (u,) for k, u in zip(reversed(KEYPAD_KEYS), units)})
    assert value == objective_value(placement, objective)


def test_exhaustive_eight_units_ten_slots_is_pinned(corpus_table, corpus_units, model):
    instance, objective = fixture_instance(corpus_table, corpus_units, model, 8,
                                           ("2", "3", "4", "5", "6"))
    _, value = solve_exhaustive(instance, objective)
    # full enumeration of the 1,814,400 assignments gives the same value
    assert value == 0.7860688270003268


# jam weight 3 checks the jam part of the bounds: without it, this case
# runs about 300 times longer. At jam weight 0.5, full enumeration of the
# 239.5 M assignments gives the pinned value.
@pytest.mark.parametrize("jam_weight, enumerated", [(0.5, 0.7554352186121139), (3.0, None)])
def test_exhaustive_ten_units_twelve_slots(corpus_table, corpus_units, model,
                                           jam_weight, enumerated):
    instance, objective = fixture_instance(corpus_table, corpus_units, model, 10,
                                           ("2", "3", "4", "5", "6", "7"), jam_weight)
    layout, value = solve_exhaustive(instance, objective)
    greedy, greedy_value = solve_greedy(instance, objective)
    _, local_value = improve_local(greedy, objective)
    assert value <= greedy_value
    assert value <= local_value
    assert value == objective_value(layout, objective)
    if enumerated is not None:
        assert value == enumerated


def test_consonant_instance_needs_a_consonant(model):
    with pytest.raises(IncompleteAlphabetError):
        consonant_instance(FrequencyTable.from_counts({INDEPENDENT_VOWELS[0]: 4}), model)


# ---------------------------------------------------------------------------
# local search
# ---------------------------------------------------------------------------

def test_local_leaves_optimum_unchanged(model):
    rng = random.Random(21)
    instance, objective = random_instance(rng, model)
    optimal_layout, optimal_value = solve_exhaustive(instance, objective)
    improved_layout, improved_value = improve_local(optimal_layout, objective)
    assert improved_layout == optimal_layout
    assert improved_value == optimal_value


def test_local_keeps_greedy_when_jam_free(model):
    rng = random.Random(22)
    for _ in range(10):
        instance, objective = random_instance(rng, model)
        greedy_layout, greedy_value = solve_greedy(instance, objective)
        improved_layout, improved_value = improve_local(greedy_layout, objective)
        assert improved_value == pytest.approx(greedy_value, rel=1e-12)
        assert improved_layout == greedy_layout


def test_local_brackets_between_start_and_optimum(model):
    rng = random.Random(23)
    for jam_weight in (0.0, 1.0):
        for _ in range(8):
            instance, objective = random_instance(rng, model, jam_weight=jam_weight)
            _, optimum = solve_exhaustive(instance, objective)
            # random dense start: shuffle units onto the cheapest slots per key
            order = [u for u, _ in instance.units]
            rng.shuffle(order)
            capacities = {}
            for slot in instance.key_slots:
                capacities[slot.key] = max(capacities.get(slot.key, 0), slot.slot_index)
            slots: dict[str, list] = {k: [] for k in capacities}
            for unit in order:
                open_keys = [k for k in capacities if len(slots[k]) < capacities[k]]
                slots[rng.choice(open_keys)].append(unit)
            start = Layout(slots={k: tuple(v) for k, v in slots.items()})
            start_value = objective_value(start, objective)
            improved_layout, improved_value = improve_local(start, objective)
            assert improved_value <= start_value + 1e-12
            assert improved_value >= optimum - 1e-12
            assert improved_value == objective_value(improved_layout, objective)


def test_local_only_moves_objective_units(model, corpus_table):
    consonant_table = corpus_table.restricted([Category.CONSONANT])
    from bnkeypad.layout import PlacementPolicy, Strategy, build_layout

    start = build_layout(corpus_table, model, PlacementPolicy(Strategy.SERPENTINE))
    objective = Objective(consonant_table, model)
    improved, value = improve_local(start, objective, max_iters=3)
    assert improved.slots["9"] == start.slots["9"]  # vowels untouched
    assert improved.slots["1"] == start.slots["1"]  # symbols untouched
    assert improved.slots["0"] == start.slots["0"]
    assert value <= objective_value(start, objective)


# ---------------------------------------------------------------------------
# local search against a Layout-per-swap reference
# ---------------------------------------------------------------------------

def reference_objective_value(layout, objective):
    """Objective by walking the layout, one term per unit of the table."""
    total = objective.freq.total
    terms = []
    keys_by_unit = {}
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


def reference_swap(layout, pos_a, pos_b):
    slots = {key: list(units) for key, units in layout.slots.items()}
    (ka, ia), (kb, ib) = pos_a, pos_b
    slots[ka][ia], slots[kb][ib] = slots[kb][ib], slots[ka][ia]
    return Layout(slots={k: tuple(v) for k, v in slots.items()},
                  roles=layout.roles, name=layout.name)


def reference_improve_local(start, objective, max_iters=100):
    """Best-improvement hill climbing that builds and rescores a Layout per swap."""
    movable = set(objective.freq.counts)
    current = start
    value = reference_objective_value(current, objective)
    for _ in range(max_iters):
        positions = [(key, i)
                     for key in KEYPAD_KEYS
                     for i in range(len(current.slots[key]))
                     if current.slots[key][i] in movable]
        best_candidate = None
        best_value = value
        for a in range(len(positions)):
            for b in range(a + 1, len(positions)):
                candidate = reference_swap(current, positions[a], positions[b])
                candidate_value = reference_objective_value(candidate, objective)
                if candidate_value < best_value:
                    best_value = candidate_value
                    best_candidate = candidate
        if best_candidate is None:
            break
        current, value = best_candidate, best_value
    return current, value


def random_local_case(rng, jam_weight):
    """A layout whose keys mix objective units with units the objective ignores."""
    model = default_model(extension_penalty=rng.choice([0.0, 0.5, 1.0]),
                          angle_weight=rng.choice([0.5, 1.0]))
    keys = rng.sample(list(KEYPAD_KEYS), rng.randint(1, 4))
    units = rng.sample(list(CONSONANTS) + list(INDEPENDENT_VOWELS), rng.randint(2, 10))
    movable = units[:rng.randint(1, len(units))]
    slots: dict[str, list] = {}
    for unit in units:
        slots.setdefault(rng.choice(keys), []).append(unit)
    start = Layout(slots={k: tuple(v) for k, v in slots.items()}, name="start")
    freq = FrequencyTable.from_counts({u: rng.randint(0, 50) for u in movable})
    bigrams = None
    if jam_weight > 0 or rng.random() < 0.5:
        bigrams = {(rng.choice(movable), rng.choice(movable)): rng.randint(0, 10)
                   for _ in range(rng.randint(0, 12))}
    return start, Objective(freq, model, jam_weight, bigrams)


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([0.0, 0.3, 1.0, 2.5]),
       st.integers(0, 5))
def test_local_equals_layout_per_swap_reference(rng, jam_weight, max_iters):
    start, objective = random_local_case(rng, jam_weight)
    layout, value = improve_local(start, objective, max_iters=max_iters)
    ref_layout, ref_value = reference_improve_local(start, objective, max_iters=max_iters)
    assert layout == ref_layout
    assert value == ref_value
    assert objective_value(layout, objective) == reference_objective_value(layout, objective)


# ---------------------------------------------------------------------------
# local search against the search that rescored every swap
# ---------------------------------------------------------------------------

def reference_improve_local_rescoring(start, objective, max_iters=100):
    """Best-improvement hill climbing that rescores the whole vector per swap."""
    scorer, placed = _layout_scorer(start, objective)
    score = scorer.score
    n = len(placed)
    assign = list(range(n))  # slot of unit i
    held = list(range(n))  # unit on slot a
    value = score(assign)
    for _ in range(max_iters):
        best_swap = None
        best_value = value
        for a in range(n):
            for b in range(a + 1, n):
                ua, ub = held[a], held[b]
                assign[ua], assign[ub] = b, a
                candidate_value = score(assign)
                assign[ua], assign[ub] = a, b
                if candidate_value < best_value:
                    best_value = candidate_value
                    best_swap = (a, b)
        if best_swap is None:
            break
        a, b = best_swap
        ua, ub = held[a], held[b]
        assign[ua], assign[ub] = b, a
        held[a], held[b] = ub, ua
        value = best_value
    slots = {key: list(placed) for key, placed in start.slots.items()}
    for (_, slot), i in zip(placed, held):
        slots[slot.key][slot.slot_index - 1] = placed[i][0]
    return Layout(slots={k: tuple(v) for k, v in slots.items()},
                  roles=start.roles, name=start.name), value


def random_full_local_case(rng, jam_weight, angle_weight, paired_share=1.0, counts=None):
    """Up to 35 objective units crowded on a few keys, with self and one-way pairs.

    Some counts (or all of them) are zero, and so are some pair counts.
    Pairs are drawn among the first ``paired_share`` of the objective units
    (at least one), and unit counts from ``counts`` when it is given.
    """
    model = default_model(extension_penalty=rng.choice([0.0, 1.0]), angle_weight=angle_weight)
    keys = rng.sample(list(KEYPAD_KEYS), rng.randint(1, 12))
    movable = rng.sample(list(CONSONANTS), rng.randint(1, 35))
    units = movable + rng.sample(list(INDEPENDENT_VOWELS), rng.randint(0, 4))
    rng.shuffle(units)
    slots: dict[str, list] = {}
    for unit in units:
        slots.setdefault(rng.choice(keys), []).append(unit)
    start = Layout(slots={k: tuple(v) for k, v in slots.items()}, name="start")
    zero_share = rng.choice([0.0, 0.0, 0.3, 1.0])

    def count(high):
        return 0 if rng.random() < zero_share else rng.randint(1, high)

    if counts is None:
        freq = FrequencyTable.from_counts({u: count(500) for u in movable})
    else:
        freq = FrequencyTable.from_counts({u: rng.choice(counts) for u in movable})
    paired = movable[:max(1, round(paired_share * len(movable)))]
    bigrams = None
    if jam_weight > 0 or rng.random() < 0.5:
        # drawn with replacement: (a, a) pairs and (a, b) without (b, a) occur
        bigrams = {(rng.choice(paired), rng.choice(paired)): count(100)
                   for _ in range(rng.randint(0, 4 * len(movable)))}
    return start, Objective(freq, model, jam_weight, bigrams)


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False), st.floats(0.0, 7.0),
       st.sampled_from([0, 1, 2, 3, 4, 5, 100]), st.sampled_from([1e-310, 0.5, 1.0, 1e300]))
def test_local_equals_rescoring_reference(rng, jam_weight, max_iters, angle_weight):
    start, objective = random_full_local_case(rng, jam_weight, angle_weight)
    layout, value = improve_local(start, objective, max_iters=max_iters)
    ref_layout, ref_value = reference_improve_local_rescoring(start, objective,
                                                              max_iters=max_iters)
    assert layout == ref_layout
    assert value == ref_value


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False), st.floats(0.0, 7.0),
       st.sampled_from([1, 2, 100]), st.sampled_from([1e-310, 0.5, 1e300]))
def test_local_equals_rescoring_reference_with_unpaired_units_and_tied_counts(
        rng, jam_weight, max_iters, angle_weight):
    # units outside every pair never jam, so the scans of their slots score
    # only the partners that jam or lower the cost; tied counts tie swaps
    start, objective = random_full_local_case(rng, jam_weight, angle_weight,
                                              paired_share=rng.random(), counts=(3, 5))
    assert (improve_local(start, objective, max_iters=max_iters)
            == reference_improve_local_rescoring(start, objective, max_iters=max_iters))


def improving_swaps(start, objective):
    """The pairs of objective units whose swap lowers the value of ``start``."""
    movable = set(objective.freq.counts)
    spots = [(key, i) for key in KEYPAD_KEYS
             for i, unit in enumerate(start.slots[key]) if unit in movable]
    value = objective_value(start, objective)
    return [(start.slots[ka][ia], start.slots[kb][ib])
            for (ka, ia), (kb, ib) in itertools.combinations(spots, 2)
            if objective_value(reference_swap(start, (ka, ia), (kb, ib)), objective) < value]


def assert_local_equals_rescoring(start, objective):
    for max_iters in (1, 100):
        assert (improve_local(start, objective, max_iters=max_iters)
                == reference_improve_local_rescoring(start, objective, max_iters=max_iters))


def test_local_from_a_non_greedy_start_without_jams(model):
    # no unit jams, so each slot's scan scores only the swaps that lower the cost
    units = [KA, KHA, GA, GHA, NGA, CA]
    start = Layout(slots={"2": (KA, KHA), "3": (GA, GHA), "4": (NGA, CA)})
    objective = Objective(FrequencyTable.from_counts(dict(zip(units, [1, 2, 3, 5, 8, 13]))),
                          model)
    assert len(improving_swaps(start, objective)) > 1
    assert_local_equals_rescoring(start, objective)
    layout, value = improve_local(start, objective)
    assert value < objective_value(start, objective)
    assert improve_local(layout, objective) == (layout, value)


def test_local_finds_a_swap_of_two_units_that_do_not_jam(model):
    # CA and GA jam on key 3; the one improving swap moves NGA and KA, of
    # which neither jams, and lowers the cost while it adds the jam (CA, KA)
    start = Layout(slots={"3": (NGA, CA, GA), "4": (KA,)})
    objective = Objective(FrequencyTable.from_counts({KA: 4, NGA: 6, CA: 2, GA: 1}), model,
                          0.3, {(GA, CA): 4, (CA, KA): 4})
    assert improving_swaps(start, objective) == [(NGA, KA)]
    assert_local_equals_rescoring(start, objective)


def test_local_finds_a_swap_that_raises_the_cost_to_lower_the_jam(model):
    # NGA and JA jam on key 6; the one improving swap puts CHA, which does
    # not jam and comes first in scan order, in NGA's place at a higher cost
    start = Layout(slots={"3": (CHA,), "6": (NGA, JA)})
    objective = Objective(FrequencyTable.from_counts({NGA: 4, JA: 1, CHA: 7}), model,
                          0.1, {(NGA, CHA): 3, (NGA, JA): 4})
    assert improving_swaps(start, objective) == [(CHA, NGA)]
    swapped = Layout(slots={"3": (NGA,), "6": (CHA, JA)})
    cost_only = replace(objective, jam_weight=0.0)
    assert objective_value(swapped, cost_only) > objective_value(start, cost_only)
    assert objective_value(swapped, objective) < objective_value(start, objective)
    assert_local_equals_rescoring(start, objective)


@pytest.mark.parametrize("max_iters", [-1, -3])
def test_local_rejects_a_negative_round_limit(model, max_iters):
    objective = Objective(FrequencyTable.from_counts({KA: 1, KHA: 5}), model)
    with pytest.raises(ValueError, match="max_iters must be >= 0"):
        improve_local(Layout(slots={"5": (KA, KHA)}), objective, max_iters=max_iters)


@pytest.mark.parametrize("max_iters", [True, False, 1.5, 2.0])
def test_local_rejects_a_round_limit_that_is_not_an_int(model, max_iters):
    objective = Objective(FrequencyTable.from_counts({KA: 1, KHA: 5}), model)
    with pytest.raises(ValueError, match=rf"max_iters must be an int, got {max_iters!r}$"):
        improve_local(Layout(slots={"5": (KA, KHA)}), objective, max_iters=max_iters)


def test_local_scores_the_start_at_zero_rounds(model):
    start = Layout(slots={"5": (KA, KHA)}, name="start")
    objective = Objective(FrequencyTable.from_counts({KA: 1, KHA: 5}), model)
    assert improve_local(start, objective, max_iters=0) == (
        start, objective_value(start, objective))
    assert improve_local(start, objective)[1] < objective_value(start, objective)


@pytest.mark.parametrize("evaluate_layout", [improve_local, objective_value],
                         ids=["improve_local", "objective_value"])
def test_local_rejects_non_finite_slot_costs(evaluate_layout):
    model = default_model(angle_weight=1e308)  # finite, but key costs overflow
    objective = Objective(FrequencyTable.from_counts({KA: 1, KHA: 1}), model)
    with pytest.raises(ValueError, match="slot costs must be finite"):
        evaluate_layout(Layout(slots={"5": (KA, KHA)}), objective)


def test_local_rejects_incomplete_start(model):
    objective = Objective(FrequencyTable.from_counts({KA: 1, KHA: 1}), model)
    with pytest.raises(IncompleteLayoutError):
        improve_local(Layout(slots={"5": (KA,)}), objective)


def test_consonant_instance_shapes(model, corpus_table):
    consonant_table = corpus_table.restricted([Category.CONSONANT])
    instance = consonant_instance(consonant_table, model)
    assert len(instance.units) == 35
    assert len(instance.key_slots) == 35  # 7 keys x 5 slots
    top = consonant_instance(consonant_table, model, max_units=6)
    assert len(top.units) == 6
    assert len(top.key_slots) == 7  # one round over the seven consonant keys


@pytest.mark.parametrize("slots_per_key", [0, -1, 73, 100000])
def test_consonant_instance_rejects_slots_per_key_out_of_range(model, corpus_table,
                                                               slots_per_key):
    bound = ">= 1" if slots_per_key < 1 else "<= 72"
    with pytest.raises(ValueError, match=f"slots_per_key must be {bound}, got {slots_per_key}$"):
        consonant_instance(corpus_table, model, slots_per_key=slots_per_key)


@pytest.mark.parametrize("max_units", [0, -1, -3])
def test_consonant_instance_rejects_max_units_below_one(model, corpus_table, max_units):
    with pytest.raises(ValueError, match="max_units must be >= 1"):
        consonant_instance(corpus_table, model, max_units=max_units)


@pytest.mark.parametrize("name, value", [
    ("max_units", True), ("max_units", 2.5), ("max_units", 5.0),
    ("slots_per_key", True), ("slots_per_key", 1.5), ("slots_per_key", 5.0),
])
def test_consonant_instance_rejects_sizes_that_are_not_ints(model, corpus_table, name, value):
    with pytest.raises(ValueError, match=rf"{name} must be an int, got {value!r}$"):
        consonant_instance(corpus_table, model, **{name: value})


@pytest.mark.parametrize("slots_per_key", [None, 2])
def test_consonant_instance_rejects_empty_keys(model, corpus_table, slots_per_key):
    with pytest.raises(ValueError, match="keys must name at least one key"):
        consonant_instance(corpus_table, model, keys=(), slots_per_key=slots_per_key)


def test_consonant_instance_takes_slots_per_key_up_to_the_unit_inventory(model, corpus_table):
    # one slot a key holds 7 units, and an instance never has more units than slots
    assert len(consonant_instance(corpus_table, model, max_units=7,
                                  slots_per_key=1).key_slots) == 7
    assert len(consonant_instance(corpus_table, model, slots_per_key=72).key_slots) == 504


def test_restrict_bigrams():
    bigrams = {(KA, KHA): 2, (KA, GA): 1, (GA, GA): 4}
    assert restrict_bigrams(bigrams, [KA, KHA]) == {(KA, KHA): 2}
