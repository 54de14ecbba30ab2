import dataclasses
import json
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from _helpers import fail_nth_replace, tiny_config
from coldgraph.experiment import (
    MODEL_KINDS,
    ExperimentConfig,
    ModelConfig,
    check_checkpoint_params,
    read_scores_csv,
    run_repro,
    score_model,
    train_model,
    write_scores_csv,
)
from coldgraph.graph import build_expanded_graph
from coldgraph.models import (
    EdgeGnnConfig,
    EdgeGnnModel,
    ExpandedRgcnConfig,
    load_checkpoint,
    score_expanded_rgcn,
    train_mlp_heads,
)
from coldgraph.simulate import (
    GeneratorConfig,
    ScenarioSpec,
    apply_scenario,
    generate_synthetic_graph,
    load_scenario,
    make_scenario,
    save_scenario,
)
from coldgraph.storage import GraphFormatError, load_graph

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture(scope="module")
def tiny_graph():
    return generate_synthetic_graph(tiny_config().generator)


# ---------------------------------------------------------------------------
# config plumbing


def test_config_round_trip():
    cfg = tiny_config()
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg
    # the shipped default config spells out every field
    path = CONFIGS / "default.json"
    assert ExperimentConfig.from_json_file(path).to_dict() == json.loads(path.read_text())


def test_defaults_are_complete():
    cfg = ExperimentConfig()
    assert cfg.models == MODEL_KINDS
    assert len(cfg.scenarios) == 4


def test_unknown_keys_rejected_at_every_level():
    base = tiny_config().to_dict()
    with pytest.raises(ValueError, match="'extra'"):
        ExperimentConfig.from_dict({**base, "extra": 1})
    with pytest.raises(ValueError, match="'n_comunities'"):
        ExperimentConfig.from_dict(
            {**base, "generator": {**base["generator"], "n_comunities": 4}}
        )
    with pytest.raises(ValueError, match="'learning_rate'"):
        ExperimentConfig.from_dict(
            {**base, "model": {**base["model"], "learning_rate": 0.1}}
        )


def test_config_version_and_enums_validated():
    with pytest.raises(ValueError, match="version"):
        ExperimentConfig(version=2)
    with pytest.raises(ValueError, match="model kind"):
        ExperimentConfig(models=("lightgbm",))
    with pytest.raises(ValueError, match="scenario"):
        ExperimentConfig(scenarios=("warm",))


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.json")))
def test_shipped_configs_decode(name):
    assert isinstance(ExperimentConfig.from_json_file(CONFIGS / name), ExperimentConfig)


def test_config_from_json_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(tiny_config().to_dict()))
    assert ExperimentConfig.from_json_file(path) == tiny_config()
    with pytest.raises(ValueError, match="cannot read"):
        ExperimentConfig.from_json_file(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ValueError, match="valid JSON"):
        ExperimentConfig.from_json_file(bad)


# ---------------------------------------------------------------------------
# model registry


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_train_and_score_each_kind(tiny_graph, kind):
    g = tiny_graph
    cfg = tiny_config()
    model = train_model(g, kind, cfg.seed, cfg.model)
    assert model.kind == kind
    spec = make_scenario(g, "new_seller", seed=1)
    masked, eval_offers = apply_scenario(g, spec)
    scores = score_model(kind, model.arch, model.param_groups, masked, eval_offers, spec)
    assert scores.shape == (len(eval_offers), 9)
    assert scores.dtype == np.float64
    assert (scores > 0).all() and (scores < 1).all()
    # a scenario with no eval offers scores to an empty matrix for every kind
    empty = ScenarioSpec(scenario="new_seller", seed=1)
    masked, none = apply_scenario(g, empty)
    scores = score_model(kind, model.arch, model.param_groups, masked, none, empty)
    assert scores.shape == (0, 9) and scores.dtype == np.float64


@pytest.mark.parametrize("kind, mode", [(k, "multi_task") for k in MODEL_KINDS]
                         + [("edge_gnn", "nine_binary")])
def test_trained_params_match_their_architecture(tiny_graph, kind, mode):
    mc = dataclasses.replace(tiny_config().model, mode=mode, epochs=0, mlp_epochs=0,
                             expanded_epochs=0)
    model = train_model(tiny_graph, kind, 0, mc)
    check_checkpoint_params(kind, model.arch, model.param_groups)
    with pytest.raises(ValueError, match=f"^{kind} checkpoint holds 0 parameter groups"):
        check_checkpoint_params(kind, model.arch, [])


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_score_rejects_out_of_range_offer_id(tiny_graph, kind):
    mc = dataclasses.replace(tiny_config().model, epochs=0, mlp_epochs=0, expanded_epochs=0)
    model = train_model(tiny_graph, kind, 0, mc)
    n = tiny_graph.n_offers
    for bad in (-1, n):
        with pytest.raises(ValueError, match=rf"^offer id {bad} out of range \[0, {n}\)$"):
            score_model(kind, model.arch, model.param_groups, tiny_graph, np.array([0, bad]))


def _offer_scorer(entry: str, g):
    """A one-argument scorer of offer ids through one scoring entry point,
    with untrained parameters."""
    mc = dataclasses.replace(tiny_config().model, epochs=0, mlp_epochs=0, expanded_epochs=0)
    if entry == "EdgeGnnModel.score":
        model = train_model(g, "edge_gnn", 0, mc)
        cfg = EdgeGnnConfig.from_dict(model.arch)
        edge_gnn = EdgeGnnModel(cfg=cfg, param_groups=model.param_groups)
        return lambda offers: edge_gnn.score(g, offers)
    if entry == "score_model":
        model = train_model(g, "tabular", 0, mc)
        return lambda offers: score_model("tabular", model.arch, model.param_groups, g, offers)
    model = train_model(g, "rgcn_expanded", 0, mc)
    cfg = ExpandedRgcnConfig.from_dict(model.arch)
    eg = build_expanded_graph(g)
    return lambda offers: score_expanded_rgcn(eg, model.param_groups[0], cfg, offers)


@pytest.mark.parametrize("entry", ["EdgeGnnModel.score", "score_model", "score_expanded_rgcn"])
def test_scoring_rejects_offer_ids_without_an_integer_dtype(tiny_graph, entry):
    """A cast to int64 would read offer 0.5 as offer 0; no offers still
    score to an empty matrix, whatever the empty list's dtype."""
    score = _offer_scorer(entry, tiny_graph)
    for offers, dtype in (([0.5], "float64"), (np.array([0, 1], dtype=np.float32), "float32"),
                          (np.array([True]), "bool")):
        with pytest.raises(ValueError, match=f"^offer ids must have an integer dtype, got {dtype}$"):
            score(offers)
    assert score([]).shape == (0, 9)
    np.testing.assert_array_equal(score(np.array([1, 0], dtype=np.uint8)),
                                  score(np.array([1, 0])))


def test_unknown_kind_rejected(tiny_graph):
    cfg = tiny_config()
    with pytest.raises(ValueError, match="kind"):
        train_model(tiny_graph, "lgbm", cfg.seed, cfg.model)


def test_score_checks_graph_dims(tiny_graph):
    cfg = tiny_config()
    model = train_model(tiny_graph, "tabular", cfg.seed, cfg.model)
    other = generate_synthetic_graph(
        GeneratorConfig(
            n_sellers=30, n_products=40, n_communities=2, n_categories=2,
            d_s=7, d_p=4, d_o=4, seed=0,
        )
    )
    spec = make_scenario(other, "full", seed=0)
    masked, eval_offers = apply_scenario(other, spec)
    with pytest.raises(ValueError, match="d_s=5"):
        score_model("tabular", model.arch, model.param_groups, masked, eval_offers)


def test_naive_equals_tabular_without_new_sellers(tiny_graph):
    g = tiny_graph
    cfg = tiny_config()
    tab = train_model(g, "tabular", cfg.seed, cfg.model)
    nai = train_model(g, "naive", cfg.seed, cfg.model)
    spec = make_scenario(g, "new_offer", seed=2)
    masked, eval_offers = apply_scenario(g, spec)
    s_tab = score_model("tabular", tab.arch, tab.param_groups, masked, eval_offers, spec)
    s_nai = score_model("naive", nai.arch, nai.param_groups, masked, eval_offers, spec)
    # same training, and nothing to fill: identical scores
    np.testing.assert_array_equal(s_tab, s_nai)


def test_naive_fill_changes_new_seller_scores(tiny_graph):
    g = tiny_graph
    cfg = tiny_config()
    tab = train_model(g, "tabular", cfg.seed, cfg.model)
    spec = make_scenario(g, "new_seller", seed=2)
    masked, eval_offers = apply_scenario(g, spec)
    s_tab = score_model("tabular", tab.arch, tab.param_groups, masked, eval_offers, spec)
    s_nai = score_model("naive", tab.arch, tab.param_groups, masked, eval_offers, spec)
    assert not np.array_equal(s_tab, s_nai)


def test_epochs_zero_scores_sit_near_half(tiny_graph):
    g = tiny_graph
    mc = ModelConfig(
        hidden=8, gnn_layers=2, edge_hidden=8, cls_hidden=8, epochs=0, batch_size=64
    )
    model = train_model(g, "edge_gnn", 0, mc)
    spec = make_scenario(g, "full", seed=0)
    masked, eval_offers = apply_scenario(g, spec)
    scores = score_model("edge_gnn", model.arch, model.param_groups, masked, eval_offers)
    assert np.median(np.abs(scores - 0.5)) < 0.2


# ---------------------------------------------------------------------------
# score files


def test_scores_csv_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    ids = np.array([3, 7, 11], dtype=np.int64)
    scores = rng.random((3, 9))
    path = tmp_path / "scores.csv"
    write_scores_csv(path, ids, scores)
    back_ids, back = read_scores_csv(path)
    np.testing.assert_array_equal(back_ids, ids)
    np.testing.assert_allclose(back, scores, atol=1e-10)


def test_scores_csv_rejects_malformed(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text("offer_idx,wrong\n1,0.5\n")
    with pytest.raises(ValueError, match="header"):
        read_scores_csv(path)
    from coldgraph.graph import CLASS_NAMES

    path.write_text("offer_idx," + ",".join(CLASS_NAMES) + "\n1,0.5\n")
    with pytest.raises(ValueError, match="fields"):
        read_scores_csv(path)


@pytest.mark.parametrize("bad_line, message", [
    ("-1," + ",".join(["0.5"] * 9), "negative offer id -1"),
    ("4," + ",".join(["0.5"] * 9), "duplicate offer id 4"),
    ("5," + ",".join(["0.5"] * 8 + ["nan"]), r"probability nan is not a finite value in \[0, 1\]"),
    ("5," + ",".join(["inf"] + ["0.5"] * 8), "probability inf is not"),
    ("5," + ",".join(["0.5"] * 4 + ["-0.25"] + ["0.5"] * 4), "probability -0.25 is not"),
    ("5," + ",".join(["1.5"] + ["0.5"] * 8), "probability 1.5 is not"),
    ("x5," + ",".join(["0.5"] * 9), "invalid literal"),
], ids=["negative_id", "duplicate_id", "nan", "inf", "below_zero", "above_one", "bad_id"])
def test_scores_csv_rejects_bad_ids_and_probabilities(tmp_path, bad_line, message):
    from coldgraph.graph import CLASS_NAMES

    path = tmp_path / "scores.csv"
    good = "4," + ",".join(["0.0"] * 4 + ["1.0"] * 5)
    path.write_text("offer_idx," + ",".join(CLASS_NAMES) + f"\n{good}\n{bad_line}\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:3: {message}"):
        read_scores_csv(path)


# ---------------------------------------------------------------------------
# full pipeline


def test_run_repro_writes_all_artifacts(tmp_path):
    cfg = tiny_config(out_dir=str(tmp_path / "run"))
    manifest = run_repro(cfg)
    out = manifest["out_dir"]
    g = load_graph(out / "graph")
    assert g.n_sellers == 60
    for name in cfg.scenarios:
        path = out / f"scenario_{name}.json"
        save_scenario(tmp_path / "again.json", load_scenario(path))
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()
    for kind in cfg.models:
        assert (out / f"{kind}.ckpt").exists()
        for name in cfg.scenarios:
            assert (out / f"scores_{kind}_{name}.csv").exists()
            assert (out / f"report_{kind}_{name}.csv").exists()
            assert (out / f"report_{kind}_{name}.json").exists()
    long_lines = (out / "summary_long.csv").read_text().strip().split("\n")
    assert len(long_lines) == 1 + len(cfg.scenarios) * len(cfg.models) * 9
    geo_lines = (out / "summary_geo.csv").read_text().strip().split("\n")
    assert len(geo_lines) == 1 + len(cfg.models)
    assert geo_lines[0] == "model," + ",".join(cfg.scenarios)
    assert set(manifest["reports"]) == {
        (s, m) for s in cfg.scenarios for m in cfg.models
    }


@pytest.mark.parametrize("models", [("tabular", "naive"), ("naive", "tabular")])
def test_run_repro_trains_shared_heads_once(tmp_path, monkeypatch, models):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return train_mlp_heads(*args, **kwargs)

    monkeypatch.setattr("coldgraph.experiment.train_mlp_heads", counting)
    events = []
    cfg = tiny_config(out_dir=str(tmp_path / "run"), models=models, scenarios=("new_seller",))
    out = run_repro(cfg, log=events.append)["out_dir"]
    assert len(calls) == 1
    assert [e["model"] for e in events if e["event"] == "trained"] == list(models)
    (_, arch_t, tabular), (_, arch_n, naive) = (
        load_checkpoint(out / f"{kind}.ckpt") for kind in ("tabular", "naive")
    )
    assert arch_t == arch_n and len(tabular) == len(naive) == 9
    for pt, pn in zip(tabular, naive):
        assert pt.keys() == pn.keys()
        for name in pt:
            assert pt[name].data.tobytes() == pn[name].data.tobytes()


def test_run_repro_is_deterministic(tmp_path):
    cfg_a = tiny_config(out_dir=str(tmp_path / "a"))
    cfg_b = tiny_config(out_dir=str(tmp_path / "b"))
    out_a = run_repro(cfg_a)["out_dir"]
    out_b = run_repro(cfg_b)["out_dir"]
    for rel in (
        "scores_edge_gnn_new_seller.csv",
        "scores_tabular_full.csv",
        "summary_long.csv",
        "summary_geo.csv",
        "edge_gnn.ckpt",
    ):
        assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), rel


def _files(out: Path) -> dict:
    return {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}


def test_failed_repro_leaves_every_artifact_old_or_whole(tmp_path, monkeypatch):
    """A rerun that dies at its first, middle or last write leaves each file
    as the previous run wrote it or as a clean rerun writes it, a graph
    bundle that is wholly one of the two or is rejected, and no temporary
    file."""
    old_cfg = tiny_config(out_dir=str(tmp_path / "old"), models=("tabular", "sign"))
    old = _files(run_repro(old_cfg)["out_dir"])
    new_cfg = dataclasses.replace(old_cfg, seed=4, out_dir=str(tmp_path / "new"),
                                  generator=dataclasses.replace(old_cfg.generator, seed=4))
    with monkeypatch.context() as m:
        calls = fail_nth_replace(m, 0)
        new = _files(run_repro(new_cfg)["out_dir"])
    assert len(calls) == len(new) == len(old)
    for n in (1, len(calls) // 2, len(calls)):
        out = tmp_path / f"rerun{n}"
        shutil.copytree(tmp_path / "old", out)
        with monkeypatch.context() as m:
            fail_nth_replace(m, n)
            with pytest.raises(OSError, match="injected"):
                run_repro(dataclasses.replace(new_cfg, out_dir=str(out)))
        left = _files(out)
        assert set(left) == set(old)  # so no temporary file either
        for rel, data in left.items():
            assert data in (old[rel], new[rel]), (n, rel)
        graph = [rel for rel in left if rel.parts[0] == "graph"]
        try:
            load_graph(out / "graph")
        except GraphFormatError:
            continue
        # a bundle that loads is wholly the old one or wholly the new one
        assert any(all(left[rel] == run[rel] for rel in graph) for run in (old, new)), n
