"""The one config boundary: ``model.check_field_types`` and ``model.from_dict``
for ``ModelConfig``, ``RunConfig`` and ``SyntheticTaskSpec``."""

import json
from dataclasses import MISSING, asdict, fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgssm.model import ModelConfig, from_dict
from dgssm.synth import SyntheticTaskSpec
from dgssm.train import RunConfig

# The fields each class needs beyond its defaults.
REQUIRED = {
    ModelConfig: {"in_dim": 3, "task": "node-regress"},
    RunConfig: {"model": ModelConfig(in_dim=3, task="node-regress")},
    SyntheticTaskSpec: {"task": "depth-regress"},
}
FIELDS = [(cls, f) for cls in REQUIRED for f in fields(cls)]


@pytest.mark.parametrize("cls, field", FIELDS, ids=[f"{c.__name__}.{f.name}" for c, f in FIELDS])
def test_every_field_annotation_is_checked(cls, field):
    # A field whose annotation the check cannot read fails here, not in a run.
    value = REQUIRED[cls][field.name] if field.default is MISSING else field.default
    assert getattr(cls(**{**REQUIRED[cls], field.name: value}), field.name) == value
    with pytest.raises(ValueError, match=f"^{field.name} must be "):
        cls(**{**REQUIRED[cls], field.name: object()})


@pytest.mark.parametrize("cls", list(REQUIRED), ids=lambda c: c.__name__)
def test_from_dict_round_trips_asdict(cls):
    x = cls(**REQUIRED[cls])
    assert from_dict(cls, asdict(x)) == x
    assert from_dict(cls, json.loads(json.dumps(asdict(x)))) == x  # tuples written as lists


@pytest.mark.parametrize(
    "cls, data, error",
    [
        (RunConfig, [1], r"^RunConfig must be a JSON object, got \[1\]$"),
        (RunConfig, {}, "^RunConfig key 'model' is missing$"),
        (RunConfig, {"model": {"in_dim": 3}}, "^ModelConfig key 'task' is missing$"),
        (RunConfig, {"model": [1]}, r"^model must be ModelConfig, got \[1\]$"),
        (RunConfig, {"model": {"in_dim": 3, "task": "node-regress"}, "betas": 5},
         r"^betas must be tuple\[float, float\], got 5$"),
        (ModelConfig, {"in_dim": 3, "task": "node-regress", "width": 8}, "^unknown ModelConfig key 'width'"),
        (SyntheticTaskSpec, {"task": "depth-regress", "splits": [0.5, 0.5]},
         r"^splits must be tuple\[float, float, float\], got \(0.5, 0.5\)$"),
    ],
    ids=["not-an-object", "missing", "nested-missing", "nested-not-an-object", "betas-int",
         "unknown", "short-splits"],
)
def test_from_dict_names_the_key(cls, data, error):
    # The first five used to raise a bare TypeError or KeyError.
    with pytest.raises(ValueError, match=error):
        from_dict(cls, data)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.integers() | st.just(10**400)
    | st.floats(allow_nan=True, allow_infinity=True) | st.floats(0.0, 1.0) | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=8,
)


def _mutated(data, draw, names):
    """``data`` with one key replaced by, dropped for, or joined by a JSON value."""
    data = dict(data)
    kind = draw(st.sampled_from(["replace", "replace", "drop", "add"]))
    if kind == "add":
        data[draw(st.sampled_from(names) | st.text(max_size=8))] = draw(JSON_VALUES)
    elif data:
        key = draw(st.sampled_from(sorted(data)))
        if kind == "drop":
            del data[key]
        else:
            data[key] = draw(JSON_VALUES)
    return data


@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=st.data())
def test_from_dict_on_mutated_json_returns_a_config_or_raises_value_error(data):
    cls = data.draw(st.sampled_from(list(REQUIRED)))
    record = json.loads(json.dumps(asdict(cls(**REQUIRED[cls]))))
    names = [f.name for f in fields(cls)]
    for _ in range(data.draw(st.integers(1, 3))):
        record = _mutated(record, data.draw, names)
    if cls is RunConfig and isinstance(record.get("model"), dict) and data.draw(st.booleans()):
        record["model"] = _mutated(record["model"], data.draw, [f.name for f in fields(ModelConfig)])
    try:
        got = from_dict(cls, record)
    except ValueError:
        return
    assert isinstance(got, cls)
    assert from_dict(cls, asdict(got)) == got
