"""Acceptance suite: one test per criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line
per criterion.
"""

import random
import time

from conftest import CORPUS_PATH, random_full_layout, random_text

from test_bn_text import oracle_recount, random_stream
from test_optimize import random_instance

from bnkeypad.bn_text import SYMBOLS, VOWEL_SIGNS, Category, CorpusStats, count_frequencies
from bnkeypad.cli import main, reproduce_paper
from bnkeypad.ergonomics import default_model, rank_keys
from bnkeypad.layout import PlacementPolicy, Role, Strategy, build_layout, parse, serialize
from bnkeypad.optimize import solve_exhaustive, solve_greedy
from bnkeypad.transcribe import decode, evaluate, transcribe

# Golden values measured once on the bundled fixture corpus and frozen.
FIXTURE_UNIT_COUNT = 55920
SERPENTINE_JAM_RATE = 0.040236771043831256
SEQUENTIAL_JAM_RATE = 0.04613816413025984
JAM_REDUCTION_PCT = 12.790697674418606


def _announce(number: int, message: str) -> None:
    print(f"criterion {number} PASS: {message}")


def test_criterion_1_ranking_reproduction():
    start = time.perf_counter()
    model = default_model()
    ranking = rank_keys(model, [str(d) for d in range(1, 10)])
    elapsed = time.perf_counter() - start
    assert ranking == ["1", "2", "4", "5", "7", "3", "6", "8", "9"]
    assert elapsed < 1.0
    _announce(1, f"flexibility ranking {'>'.join(ranking)} in {elapsed:.3f}s")


def test_criterion_2_reserved_key_reproduction():
    model = default_model()
    proposed, _baseline, _report = reproduce_paper([CORPUS_PATH], model)
    assert proposed.roles == {Role.SYMBOL: "1", Role.VOWEL: "9",
                              Role.SPACE: "0", Role.LINK: "*"}
    vowels = proposed.slots["9"]
    assert len(vowels) == 11
    assert [u.codepoints[0] for u in vowels] == sorted(u.codepoints[0] for u in vowels)
    assert all(u.category is Category.INDEPENDENT_VOWEL for u in vowels)
    assert set(proposed.slots["1"]) == set(VOWEL_SIGNS + SYMBOLS)
    assert proposed.slots["0"][0].category is Category.SPACE
    assert proposed.slots["*"][0].category is Category.CONJUNCT_JOINER
    _announce(2, "symbols on 1, 11 vowels in dictionary order on 9, space on 0, joiner on *")


def test_criterion_3_frequency_oracle_equivalence():
    rng = random.Random(20250810)
    start = time.perf_counter()
    for _ in range(20):
        text = random_stream(rng, 100_000)
        table = count_frequencies(text)
        expected_counts, expected_skipped = oracle_recount(text)
        assert {u.codepoints[0]: c for u, c in table.counts.items()} == expected_counts
        assert table.skipped == expected_skipped
        assert table.total == sum(expected_counts.values())
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _announce(3, f"20 corpora x 100k scalars recounted exactly in {elapsed:.2f}s")


def test_criterion_4_greedy_optimality():
    model = default_model()
    rng = random.Random(424242)
    start = time.perf_counter()
    for _ in range(100):
        instance, objective = random_instance(rng, model)
        _, exhaustive_value = solve_exhaustive(instance, objective)
        _, greedy_value = solve_greedy(instance, objective)
        assert greedy_value == exhaustive_value
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _announce(4, f"greedy == exhaustive on 100 instances in {elapsed:.2f}s")


def test_criterion_5_jamming_reduction_at_desk_scale(corpus_units, corpus_table, model):
    assert len(corpus_units) == FIXTURE_UNIT_COUNT
    assert FIXTURE_UNIT_COUNT >= 50_000
    serp = build_layout(corpus_table, model, PlacementPolicy(Strategy.SERPENTINE))
    seq = build_layout(corpus_table, model, PlacementPolicy(Strategy.SEQUENTIAL))
    serp_report = evaluate(CorpusStats.from_units(corpus_units), serp, model)
    seq_report = evaluate(CorpusStats.from_units(corpus_units), seq, model)
    assert serp_report.jam_rate < seq_report.jam_rate  # strict reduction
    assert serp_report.jam_rate == SERPENTINE_JAM_RATE
    assert seq_report.jam_rate == SEQUENTIAL_JAM_RATE
    measured = 100.0 * (seq_report.jam_rate - serp_report.jam_rate) / seq_report.jam_rate
    assert measured == JAM_REDUCTION_PCT
    _announce(5, f"serpentine reduces key jamming by {measured:.2f}% "
                 f"({serp_report.jam_rate:.6f} vs {seq_report.jam_rate:.6f})")


def test_criterion_6_round_trips():
    rng = random.Random(606060)
    layouts = [random_full_layout(rng) for _ in range(100)]
    pairs = 0
    for layout in layouts:
        assert parse(serialize(layout)) == layout
        for _ in range(10):
            text = random_text(rng, layout, rng.randint(0, 60))
            assert decode(transcribe(text, layout), layout) == text
            pairs += 1
    assert pairs >= 1000
    _announce(6, f"{pairs} transcribe/decode round-trips and "
                 f"{len(layouts)} parse/serialize round-trips, all exact")


def test_criterion_7_metric_sanity(corpus_units, corpus_table, model):
    reports = []
    for strategy in (Strategy.SERPENTINE, Strategy.SEQUENTIAL):
        layout = build_layout(corpus_table, model, PlacementPolicy(strategy))
        reports.append(evaluate(CorpusStats.from_units(corpus_units), layout, model))
    rng = random.Random(7777)
    for _ in range(20):
        layout = random_full_layout(rng)
        text = random_text(rng, layout, rng.randint(1, 400))
        reports.append(evaluate(CorpusStats.from_units(text), layout, model))
    for report in reports:
        assert report.kspc >= 1.0
        assert 0.0 <= report.jam_rate <= 1.0
        load_sum = sum(report.per_key_load.values())
        assert abs(load_sum - 1.0) <= 1e-12
    _announce(7, f"kspc >= 1, jam_rate in [0,1], loads sum to 1 on {len(reports)} runs")


def test_criterion_8_reproduce_paper_determinism(tmp_path):
    dirs = [tmp_path / "run1", tmp_path / "run2"]
    for d in dirs:
        assert main(["reproduce-paper", "--corpus", str(CORPUS_PATH),
                     "--out-dir", str(d)]) == 0
    for name in ("report.tsv", "proposed_layout.tsv", "baseline_layout.tsv"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
    report = (dirs[0] / "report.tsv").read_text(encoding="utf-8")
    assert f"jam_reduction_pct\t{JAM_REDUCTION_PCT:.9f}" in report
    _announce(8, "two reproduce-paper runs produced byte-identical artifacts")
