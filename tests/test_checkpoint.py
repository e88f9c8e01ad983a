import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings

from fairexperts.checkpoint import load_checkpoint, save_checkpoint
from fairexperts.data import DataError
from fairexperts.training import Model, train_decoupled, train_erm, train_experts

from helpers import mutated_bytes, tiny_dataset, tiny_hp


@pytest.fixture(scope="module")
def trained():
    ds = tiny_dataset()
    hp = tiny_hp()
    erm = train_erm(ds, hp)
    return ds, hp, erm, train_decoupled(erm, ds, hp), train_experts(ds, hp)


def test_erm_checkpoint_round_trip(trained, tmp_path):
    ds, _, erm, _, _ = trained
    path = str(tmp_path / "erm.json")
    save_checkpoint(erm, path)
    loaded = load_checkpoint(path)
    x = ds.features[:7]
    assert np.array_equal(erm.predict_proba(x), loaded.predict_proba(x))


def test_decoupled_checkpoint_round_trip(trained, tmp_path):
    ds, _, _, decoupled, _ = trained
    path = str(tmp_path / "decoupled.json")
    save_checkpoint(decoupled, path)
    loaded = load_checkpoint(path)
    x, _, groups = ds.split_arrays("val")
    assert np.array_equal(
        decoupled.predict_proba(x, groups), loaded.predict_proba(x, groups)
    )


def test_experts_checkpoint_round_trip_preserves_all_components(trained, tmp_path):
    ds, _, _, _, experts = trained
    path = str(tmp_path / "experts.json")
    save_checkpoint(experts, path)
    loaded = load_checkpoint(path)
    assert np.array_equal(loaded.centers.vectors, experts.centers.vectors)
    for a, b in zip(loaded.discriminator.params(), experts.discriminator.params()):
        assert np.array_equal(a, b)
    x, _, groups = ds.split_arrays("test")
    assert np.array_equal(
        experts.predict_proba(x, groups), loaded.predict_proba(x, groups)
    )
    assert loaded.seed == experts.seed


def test_checkpoint_rejects_wrong_version(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format_version": 99, "kind": "erm"}))
    with pytest.raises(DataError, match="format version"):
        load_checkpoint(str(path))


def test_checkpoint_rejects_unknown_kind(trained, tmp_path):
    _, _, erm, _, _ = trained
    path = tmp_path / "erm.json"
    save_checkpoint(erm, str(path))
    payload = json.loads(path.read_text())
    payload["kind"] = "mystery"
    path.write_text(json.dumps(payload))
    with pytest.raises(DataError, match="unknown kind"):
        load_checkpoint(str(path))


def test_checkpoint_rejects_truncated_payload(trained, tmp_path):
    _, _, erm, _, _ = trained
    path = tmp_path / "erm.json"
    save_checkpoint(erm, str(path))
    payload = json.loads(path.read_text())
    del payload["head"]
    path.write_text(json.dumps(payload))
    with pytest.raises(DataError, match="malformed"):
        load_checkpoint(str(path))


def test_checkpoint_missing_file_and_invalid_json(tmp_path):
    with pytest.raises(DataError, match="does not exist"):
        load_checkpoint(str(tmp_path / "nope.json"))
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    with pytest.raises(DataError, match="not valid JSON"):
        load_checkpoint(str(garbled))


GOLDEN_EXPERTS = Path(__file__).resolve().parent / "golden" / "checkpoint_experts.json"


@settings(max_examples=100, deadline=None, derandomize=True, phases=[Phase.generate])
@given(data=mutated_bytes(GOLDEN_EXPERTS.read_bytes(), b'{}[]",:.-e019 \n'))
def test_load_checkpoint_on_mutated_bytes_loads_or_raises_data_error(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_bytes(data)
    try:
        model = load_checkpoint(str(path))
    except DataError:
        pass
    else:
        assert isinstance(model, Model)


@pytest.mark.parametrize("value", ["1e999", "NaN"])
def test_checkpoint_rejects_non_finite_parameters(tmp_path, value):
    # json reads 1e999 as inf and NaN as nan; a model with either predicts
    # nan probabilities, which evaluate would score as if they were a class
    first_bias = '"bias": [\n          0.125,'
    text = GOLDEN_EXPERTS.read_text(encoding="utf-8")
    assert first_bias in text
    path = tmp_path / "non_finite.json"
    path.write_text(text.replace(first_bias, first_bias.replace("0.125", value)))
    with pytest.raises(DataError, match=f"^checkpoint '{path}' is malformed: layer parameters must be finite$"):
        load_checkpoint(str(path))


def _linear(outputs, inputs):
    return {"layers": [{"weight": [[0.5] * inputs] * outputs, "bias": [0.0] * outputs,
                        "activation": "identity"}]}


NETS = r"has \(inputs, outputs\)"
LINEAR = r"has layer activations"


@pytest.mark.parametrize(
    "key, part, message",
    [
        # the golden experts model: backbone 2 -> 3 -> 2, two groups, two classes
        pytest.param("heads", _linear(3, 2), rf"head 1 {NETS} \(2, 3\), expected \(2, 2\)",
                     id="head-outputs"),
        pytest.param("heads", _linear(2, 7), rf"head 1 {NETS} \(7, 2\), expected \(2, 2\)",
                     id="head-input"),
        pytest.param("heads", {"layers": _linear(2, 2)["layers"] * 2},
                     rf"head 1 {LINEAR} \('identity', 'identity'\), expected \('identity',\)",
                     id="head-of-two-layers"),
        pytest.param("heads", {"layers": [{**_linear(2, 2)["layers"][0], "activation": "relu"}]},
                     rf"head 1 {LINEAR} \('relu',\), expected \('identity',\)", id="relu-head"),
        pytest.param("discriminator", _linear(3, 2),
                     rf"discriminator {NETS} \(2, 3\), expected \(2, 2\)", id="discriminator-outputs"),
        pytest.param("discriminator", _linear(2, 7),
                     rf"discriminator {NETS} \(7, 2\), expected \(2, 2\)", id="discriminator-input"),
        pytest.param("centers", None, r"centers have shape \(1, 2, 2\), expected \(2, 2, 2\)",
                     id="centers-of-one-group"),
    ],
)
def test_checkpoint_rejects_parts_that_do_not_fit_together(tmp_path, key, part, message):
    payload = json.loads(GOLDEN_EXPERTS.read_text(encoding="utf-8"))
    if key == "heads":
        payload["heads"][1] = part
    elif key == "centers":
        payload["centers"] = payload["centers"][:1]
    else:
        payload[key] = part
    path = tmp_path / "unfit.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(DataError, match=f"^checkpoint '{path}' is malformed: {message}$"):
        load_checkpoint(str(path))
