"""The record codec: every file and checkpoint boundary decodes through
``Record.from_dict`` and rejects malformed values naming the record and key."""

import json

import numpy as np
import pytest

from _helpers import make_random_graph
from coldgraph import records
from coldgraph.experiment import ExperimentConfig, ModelConfig, score_model
from coldgraph.models import EdgeGnnConfig, ExpandedRgcnConfig
from coldgraph.simulate import GeneratorConfig, ScenarioSpec, load_scenario

_DROP = object()

BASES = {  # one valid instance per record class
    "experiment": ExperimentConfig,
    "generator": GeneratorConfig,
    "model": ModelConfig,
    "scenario": lambda: ScenarioSpec(
        "new_seller", seed=0, base_offers=(3,), new_sellers=(1,), eval_offers=(3, 4)
    ),
    "edge_gnn": lambda: EdgeGnnConfig(d_s=5, d_p=4, d_o=6),
    "rgcn_expanded": lambda: ExpandedRgcnConfig(d_s=5, d_p=4, d_o=6),
}

FILE_LOADERS = {
    "experiment": ExperimentConfig.from_json_file,
    "generator": GeneratorConfig.from_json_file,
    "model": ModelConfig.from_json_file,
    "scenario": load_scenario,
}


def _patched(blob, path: str, value):
    """``blob`` with the value at dotted ``path`` replaced (or dropped);
    an empty path replaces the whole blob."""
    if not path:
        return value
    node = blob
    *parents, key = path.split(".")
    for p in parents:
        node = node[p]
    if value is _DROP:
        del node[key]
    else:
        node[key] = value
    return blob


MALFORMED = [
    # record, dotted path, bad value, fragments the message must hold
    ("experiment", "", [1], ["ExperimentConfig: expected an object, got [1]"]),
    ("experiment", "extra", 1, ["ExperimentConfig: unknown key 'extra'"]),
    ("experiment", "seed", "7", ['ExperimentConfig.seed: expected an integer, got "7"']),
    ("experiment", "seed", -1, ["ExperimentConfig:", "seed must be >= 0"]),
    ("experiment", "generator", 5, ["ExperimentConfig.generator: expected an object"]),
    ("experiment", "model.epochs", "8", ["ExperimentConfig.model.epochs: expected an integer"]),
    ("experiment", "model.learning_rate", 0.1, ["ExperimentConfig.model: unknown key 'learning_rate'"]),
    ("experiment", "models", ["edge_gnn", 3], ["ExperimentConfig.models[1]: expected a string"]),
    ("experiment", "scenarios", "full", ["ExperimentConfig.scenarios: expected an array"]),
    ("generator", "n_sellers", True, ["GeneratorConfig.n_sellers: expected an integer, got true"]),
    ("generator", "n_sellers", 10.0, ["GeneratorConfig.n_sellers: expected an integer, got 10.0"]),
    ("generator", "noise", "0.6", ["GeneratorConfig.noise: expected a number"]),
    ("generator", "p_intra", [0.1, "x"], ["GeneratorConfig.p_intra[1]: expected a number"]),
    ("generator", "class_probs", [[0.1], 2], ["GeneratorConfig.class_probs[1]: expected an array"]),
    ("generator", "seed", -3, ["GeneratorConfig:", "seed must be >= 0"]),
    ("generator", "n_selllers", 10, ["GeneratorConfig: unknown key 'n_selllers'"]),
    ("model", "hidden", 0, ["ModelConfig:", "hidden must be >= 1"]),
    ("model", "edge_hidden", 0, ["ModelConfig:", "edge_hidden must be >= 1"]),
    ("model", "mlp_hidden", 0, ["ModelConfig:", "mlp_hidden must be >= 1"]),
    ("model", "gnn_layers", 0, ["ModelConfig:", "gnn_layers must be >= 1"]),
    ("model", "sign_hops", -1, ["ModelConfig:", "sign_hops must be >= 0"]),
    ("model", "dropout", 1.5, ["ModelConfig:", "dropout must be in [0, 1)"]),
    ("model", "lr", None, ["ModelConfig.lr: expected a number, got null"]),
    ("scenario", "", [1], ["ScenarioSpec: expected an object, got [1]"]),
    ("scenario", "new_sellers", 5, ["ScenarioSpec.new_sellers: expected an array, got 5"]),
    ("scenario", "new_sellers", [1, "a"], ["ScenarioSpec.new_sellers[1]: expected an integer"]),
    ("scenario", "seed", True, ["ScenarioSpec.seed: expected an integer, got true"]),
    ("scenario", "surprise", 1, ["ScenarioSpec: unknown key 'surprise'"]),
    ("scenario", "scenario", _DROP, ["ScenarioSpec: missing key 'scenario'"]),
    ("scenario", "format_version", 99, ["ScenarioSpec:", "format version 99"]),
    ("edge_gnn", "hidden", "8", ["EdgeGnnConfig.hidden: expected an integer"]),
    ("edge_gnn", "cls_hidden", 0, ["EdgeGnnConfig:", "cls_hidden must be >= 1"]),
    ("edge_gnn", "fanout_cap", 3, ["EdgeGnnConfig: unknown key 'fanout_cap'"]),
    ("rgcn_expanded", "layers", [6], ["ExpandedRgcnConfig.layers: expected an integer"]),
]


@pytest.fixture(scope="module")
def arch_graph():
    return make_random_graph(seed=0)  # d_s=5, d_p=4, d_o=6, as in BASES


@pytest.mark.parametrize(
    "record, path, value, fragments", MALFORMED,
    ids=[f"{r}:{p or '<root>'}" for r, p, _, _ in MALFORMED],
)
def test_malformed_record_names_record_and_key(tmp_path, arch_graph, record, path, value,
                                               fragments):
    blob = _patched(BASES[record]().to_dict(), path, value)
    with pytest.raises(ValueError) as info:
        if record in FILE_LOADERS:
            file = tmp_path / f"{record}.json"
            file.write_text(json.dumps(blob))
            FILE_LOADERS[record](file)
        else:  # a checkpoint architecture, decoded where scoring reads it
            score_model(record, blob, [{}], arch_graph, np.zeros(0, dtype=np.int64))
    for fragment in fragments:
        assert fragment in str(info.value)


@pytest.mark.parametrize("record", sorted(BASES))
def test_valid_records_round_trip(record):
    rec = BASES[record]()
    assert type(rec).from_dict(json.loads(json.dumps(rec.to_dict()))) == rec


def test_int_is_a_valid_float_and_null_fills_optional():
    cfg = GeneratorConfig.from_dict({"noise": 1, "p_intra": [0] * 8, "class_probs": None})
    assert cfg.noise == 1 and cfg.p_intra == (0,) * 8 and cfg.class_probs is None


def test_schema_resolved_once_per_class(monkeypatch):
    calls = []
    real = records.typing.get_type_hints
    monkeypatch.setattr(records.typing, "get_type_hints",
                        lambda cls: calls.append(cls) or real(cls))
    records._schema.cache_clear()
    try:
        blob = ExperimentConfig().to_dict()
        for _ in range(3):
            ExperimentConfig.from_dict(blob)
    finally:
        records._schema.cache_clear()
    assert sorted(c.__name__ for c in calls) == [
        "ExperimentConfig", "GeneratorConfig", "ModelConfig"
    ]
