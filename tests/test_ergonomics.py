"""Thumb-movement model: ranking, costs, model files."""

import pytest

from bnkeypad.ergonomics import (
    DEFAULT_CONSONANT_KEYS,
    KEYPAD_KEYS,
    Direction,
    ErgonomicModel,
    KeyErgonomics,
    default_model,
    format_model_tsv,
    key_cost,
    load_model,
    parse_model_tsv,
    rank_keys,
)
from bnkeypad.errors import MissingKeyError, ModelSyntaxError

DIGIT_KEYS = [str(d) for d in range(1, 10)]

# the nine measured rows: ij angle, direction
MEASURED = {
    "1": (120.0, Direction.FORWARD),
    "2": (110.0, Direction.FORWARD),
    "3": (80.0, Direction.LATERAL),
    "4": (100.0, Direction.FORWARD),
    "5": (95.0, Direction.FORWARD),
    "6": (70.0, Direction.LATERAL),
    "7": (80.0, Direction.FORWARD),
    "8": (70.0, Direction.LATERAL),
    "9": (65.0, Direction.LATERAL),
}


def test_default_model_measured_rows():
    model = default_model()
    for key, (angle, direction) in MEASURED.items():
        entry = model.entries[key]
        assert entry.ij_angle == angle
        assert entry.mj_direction is direction
        assert entry.flexion is (direction is Direction.FORWARD)
        assert entry.extension is (direction is Direction.LATERAL)


def test_default_model_extrapolated_bottom_row():
    model = default_model()
    assert model.entries["*"].ij_angle == 58.0
    assert model.entries["*"].extension
    assert model.entries["0"].ij_angle == 62.0
    assert model.entries["0"].flexion
    assert model.entries["#"].ij_angle == 55.0
    assert model.entries["#"].extension


def test_rank_keys_reproduces_published_ordering(model):
    assert rank_keys(model, DIGIT_KEYS) == ["1", "2", "4", "5", "7", "3", "6", "8", "9"]


def test_rank_keys_consonant_subset(model):
    assert rank_keys(model, DEFAULT_CONSONANT_KEYS) == ["2", "4", "5", "7", "3", "6", "8"]


def test_rank_keys_singleton(model):
    assert rank_keys(model, ["5"]) == ["5"]


def test_rank_keys_unknown_key(model):
    with pytest.raises(MissingKeyError):
        rank_keys(model, ["5", "x"])


def test_key_cost_by_hand(model):
    assert key_cost(model, "1") == (180.0 - 120.0) / 180.0
    assert key_cost(model, "9") == (180.0 - 65.0) / 180.0 + 1.0
    with pytest.raises(MissingKeyError):
        key_cost(model, "x")


def test_key_cost_without_extension_penalty():
    model = default_model(extension_penalty=0.0)
    # cost now follows the angle term alone
    assert key_cost(model, "1") < key_cost(model, "2") < key_cost(model, "4")
    assert key_cost(model, "3") == key_cost(model, "7")  # same 80-degree angle


def test_key_cost_monotone_along_ranking(model):
    ranking = rank_keys(model, DIGIT_KEYS)
    costs = [key_cost(model, k) for k in ranking]
    for (ka, ca), (kb, cb) in zip(zip(ranking, costs), zip(ranking[1:], costs[1:])):
        if {ka, kb} == {"6", "8"}:  # documented exact tie: both 70 degrees lateral
            assert ca == cb
        else:
            assert ca < cb


def test_key_cost_positive_everywhere(model):
    for key in KEYPAD_KEYS:
        assert key_cost(model, key) > 0.0
    zero_penalty = default_model(extension_penalty=0.0)
    for key in KEYPAD_KEYS:
        assert key_cost(zero_penalty, key) >= 0.0


def test_angle_weight_scales_angle_term():
    doubled = default_model(angle_weight=2.0)
    base = default_model()
    assert key_cost(doubled, "1") == 2 * key_cost(base, "1")
    assert key_cost(doubled, "9") == 2 * (key_cost(base, "9") - 1.0) + 1.0


def test_entry_invariants_enforced():
    with pytest.raises(ValueError):
        KeyErgonomics("1", 120.0, Direction.FORWARD, flexion=True, extension=True)
    with pytest.raises(ValueError):
        KeyErgonomics("1", 120.0, Direction.LATERAL, flexion=True, extension=False)
    with pytest.raises(ValueError):
        KeyErgonomics("1", 0.0, Direction.FORWARD, flexion=True, extension=False)
    with pytest.raises(ValueError):
        KeyErgonomics("q", 90.0, Direction.FORWARD, flexion=True, extension=False)


def test_model_must_cover_all_keys(model):
    entries = {k: v for k, v in model.entries.items() if k != "#"}
    with pytest.raises(ValueError):
        ErgonomicModel(entries)


@pytest.mark.parametrize("params", [
    dict(extension_penalty=float("nan")), dict(extension_penalty=float("inf")),
    dict(extension_penalty=-1.0), dict(angle_weight=float("nan")),
    dict(angle_weight=float("inf")), dict(angle_weight=0.0),
])
def test_model_rejects_non_finite_and_out_of_range_parameters(params):
    with pytest.raises(ValueError):
        default_model(**params)


def test_model_tsv_roundtrip(model, tmp_path):
    text = format_model_tsv(model)
    parsed = parse_model_tsv(text)
    assert parsed == model
    path = tmp_path / "model.tsv"
    path.write_text(text, encoding="utf-8")
    assert load_model(path) == model


def test_model_tsv_carries_parameters(model):
    text = format_model_tsv(model)
    parsed = parse_model_tsv(text, extension_penalty=0.5, angle_weight=2.0)
    assert parsed.extension_penalty == 0.5
    assert parsed.angle_weight == 2.0
    assert parsed.entries == model.entries


def test_model_tsv_errors(model):
    good = format_model_tsv(model)
    with pytest.raises(ModelSyntaxError) as e:
        parse_model_tsv("nonsense\n")
    assert e.value.line_no == 1
    lines = good.splitlines()
    with pytest.raises(ModelSyntaxError):
        parse_model_tsv("\n".join([lines[0], "1\tabc\tforward\tflexion"]))
    with pytest.raises(ModelSyntaxError):
        parse_model_tsv("\n".join([lines[0], "1\t120\tforward\tsideways"]))
    with pytest.raises(ModelSyntaxError):
        parse_model_tsv("\n".join([lines[0], lines[1], lines[1]]))  # duplicate key
    with pytest.raises(ModelSyntaxError):
        # lateral direction must pair with extension
        parse_model_tsv("\n".join([lines[0], "1\t120\tlateral\tflexion"]))
    with pytest.raises(MissingKeyError):
        parse_model_tsv("\n".join(lines[:-1]))  # one key short
