"""Objective, exhaustive oracle, greedy assignment, local search."""

import itertools
import random

import pytest

from bnkeypad.bn_text import CONSONANTS, Category, FrequencyTable, unit_for
from bnkeypad.ergonomics import (
    KEYPAD_KEYS,
    Direction,
    ErgonomicModel,
    KeyErgonomics,
    default_model,
    key_cost,
)
from bnkeypad.errors import CapacityError, IncompleteLayoutError, InstanceTooLargeError
from bnkeypad.layout import Layout
from bnkeypad.optimize import (
    AssignmentInstance,
    KeySlot,
    Objective,
    consonant_instance,
    improve_local,
    objective_value,
    restrict_bigrams,
    solve_exhaustive,
    solve_greedy,
)
from bnkeypad.transcribe import evaluate

KA, KHA, GA = (unit_for(c) for c in "কখগ")


def flat_model(angle: float = 90.0) -> ErgonomicModel:
    """All keys identical: forward flexion at the given angle."""
    entries = {k: KeyErgonomics(k, angle, Direction.FORWARD, True, False)
               for k in KEYPAD_KEYS}
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
    report = evaluate(text, layout, model)
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
    with pytest.raises(ValueError):
        AssignmentInstance(((KA, 1),),
                           (KeySlot("2", 1, 2.0), KeySlot("2", 2, 1.0)))  # decreasing


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


def test_single_unit_lands_on_cheapest_slot(model):
    instance, freq = make_instance(
        [(KA, 3)],
        [KeySlot("7", 1, 0.9), KeySlot("3", 1, 0.4), KeySlot("3", 2, 0.8)],
    )
    layout, value = solve_greedy(instance, Objective(freq, model))
    assert layout.position(KA) == ("3", 1)
    assert value == pytest.approx(0.4)


def test_capacity_and_guard_errors(model):
    instance, freq = make_instance(
        [(u, 1) for u in CONSONANTS[:3]],
        [KeySlot("2", 1, 1.0), KeySlot("2", 2, 2.0)],
    )
    objective = Objective(freq, model)
    with pytest.raises(CapacityError):
        solve_greedy(instance, objective)
    with pytest.raises(CapacityError):
        solve_exhaustive(instance, objective)

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


def test_consonant_instance_shapes(model, corpus_table):
    consonant_table = corpus_table.restricted([Category.CONSONANT])
    instance = consonant_instance(consonant_table, model)
    assert len(instance.units) == 35
    assert len(instance.key_slots) == 35  # 7 keys x 5 slots
    top = consonant_instance(consonant_table, model, max_units=6)
    assert len(top.units) == 6
    assert len(top.key_slots) == 7  # one round over the seven consonant keys


def test_restrict_bigrams():
    bigrams = {(KA, KHA): 2, (KA, GA): 1, (GA, GA): 4}
    assert restrict_bigrams(bigrams, [KA, KHA]) == {(KA, KHA): 2}
