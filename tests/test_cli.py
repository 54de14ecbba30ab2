"""Drives the command-line entry point in-process.

Every test calls main() directly so exit codes, stdout JSON, and the
line-delimited stderr log can be asserted without spawning subprocesses.
The heavyweight steps (generate, train) run once per module in a shared
workspace; cheap commands rerun per test where stdout matters.
"""

import json
import shutil
import zlib

import numpy as np
import pytest

from coldgraph.cli import main
from coldgraph.experiment import ExperimentConfig, ModelConfig, read_scores_csv, write_scores_csv
from coldgraph.models import load_checkpoint, save_checkpoint
from coldgraph.simulate import SCENARIOS, GeneratorConfig, load_scenario
from coldgraph.storage import load_graph


def write_tiny_config(path, out_dir, **kw):
    gen = GeneratorConfig(
        n_sellers=60, n_products=80, n_communities=4, n_categories=3,
        d_s=5, d_p=4, d_o=4, offers_per_seller=2.5, seed=3,
    )
    model = ModelConfig(
        hidden=8, gnn_layers=2, edge_hidden=8, cls_hidden=8,
        epochs=2, batch_size=64, mlp_hidden=8, mlp_epochs=4,
        sign_hops=2, expanded_hidden=8, expanded_layers=2, expanded_epochs=3,
    )
    cfg = ExperimentConfig(seed=3, out_dir=str(out_dir), generator=gen, model=model, **kw)
    path.write_text(json.dumps(cfg.to_dict(), indent=2))
    return cfg


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Shared workspace: config file, generated bundle, scenario JSONs."""
    root = tmp_path_factory.mktemp("cli")
    cfg = write_tiny_config(root / "config.json", root / "runs")
    rc = main([
        "generate", "--config", str(root / "config.json"),
        "--out", str(root / "graph"), "--scenarios", str(root / "scen"),
    ])
    assert rc == 0
    return {"root": root, "config": root / "config.json", "cfg": cfg,
            "graph": root / "graph", "scen": root / "scen"}


@pytest.fixture(scope="module")
def tabular_ckpt(ws):
    out = ws["root"] / "tabular.ckpt"
    rc = main([
        "train", "--config", str(ws["config"]),
        "--graph", str(ws["graph"]), "--model", "tabular", "--out", str(out),
    ])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def ns_scores(ws, tabular_ckpt):
    out = ws["root"] / "scores_ns.csv"
    rc = main([
        "score", "--checkpoint", str(tabular_ckpt), "--graph", str(ws["graph"]),
        "--scenario", str(ws["scen"] / "scenario_new_seller.json"),
        "--out", str(out),
    ])
    assert rc == 0
    return out


def test_generate_stdout_json_and_bundle(tmp_path, capsys):
    write_tiny_config(tmp_path / "cfg.json", tmp_path / "runs")
    rc = main([
        "generate", "--config", str(tmp_path / "cfg.json"),
        "--out", str(tmp_path / "g"), "--scenarios", str(tmp_path / "s"),
    ])
    cap = capsys.readouterr()
    assert rc == 0
    assert json.loads(cap.out) == {"graph_dir": str(tmp_path / "g")}
    for line in cap.err.strip().split("\n"):
        assert "event" in json.loads(line)
    g = load_graph(tmp_path / "g")
    assert g.n_sellers == 60
    for name in SCENARIOS:
        spec = load_scenario(tmp_path / "s" / f"scenario_{name}.json")
        assert spec.scenario == name


def test_train_writes_loadable_checkpoint(tabular_ckpt):
    kind, arch, groups = load_checkpoint(tabular_ckpt)
    assert kind == "tabular"
    assert arch["d_s"] == 5 and len(groups) == 9


def test_train_rejects_nonpositive_lr(ws, tmp_path, capsys):
    out = tmp_path / "bad.ckpt"
    rc = main([
        "train", "--config", str(ws["config"]), "--graph", str(ws["graph"]),
        "--model", "tabular", "--lr", "-1", "--out", str(out),
    ])
    cap = capsys.readouterr()
    assert rc == 2
    assert "error: lr must be finite and > 0" in cap.err
    assert not out.exists()


def test_score_rows_match_scenario_eval_set(ws, ns_scores):
    spec = load_scenario(ws["scen"] / "scenario_new_seller.json")
    ids, scores = read_scores_csv(ns_scores)
    assert np.array_equal(ids, np.asarray(spec.eval_offers))
    assert scores.shape == (len(ids), 9)
    assert np.all((scores > 0.0) & (scores < 1.0))


def test_score_full_scenario_covers_every_offer(ws, tabular_ckpt, tmp_path):
    out = tmp_path / "scores_full.csv"
    rc = main([
        "score", "--checkpoint", str(tabular_ckpt), "--graph", str(ws["graph"]),
        "--scenario", str(ws["scen"] / "scenario_full.json"), "--out", str(out),
    ])
    assert rc == 0
    ids, _ = read_scores_csv(out)
    g = load_graph(ws["graph"])
    assert np.array_equal(ids, np.arange(g.n_offers))


def test_eval_writes_reports_and_stdout(ws, ns_scores, tmp_path, capsys):
    prefix = tmp_path / "report_ns"
    rc = main([
        "eval", "--scores", str(ns_scores), "--graph", str(ws["graph"]),
        "--scenario", "new_seller", "--out-prefix", str(prefix),
    ])
    cap = capsys.readouterr()
    assert rc == 0
    assert prefix.with_suffix(".csv").exists()
    assert prefix.with_suffix(".json").exists()
    report = json.loads(cap.out)
    assert report["scenario"] == "new_seller"
    assert len(report["auc"]) == 9
    ids, _ = read_scores_csv(ns_scores)
    assert report["n_listings"] == len(ids)
    on_disk = json.loads(prefix.with_suffix(".json").read_text())
    assert on_disk == report


def test_eval_against_self_gives_zero_deltas(ws, ns_scores, tmp_path, capsys):
    rc = main([
        "eval", "--scores", str(ns_scores), "--graph", str(ws["graph"]),
        "--baseline", str(ns_scores), "--out-prefix", str(tmp_path / "r"),
    ])
    cap = capsys.readouterr()
    assert rc == 0
    report = json.loads(cap.out)
    for auc, delta in zip(report["auc"], report["delta_pcp"]):
        if auc is None:
            assert delta is None
        else:
            assert delta == 0.0


def test_eval_rejects_out_of_range_offer_ids(ws, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    write_scores_csv(bad, np.array([10 ** 6]), np.full((1, 9), 0.5))
    rc = main([
        "eval", "--scores", str(bad), "--graph", str(ws["graph"]),
        "--out-prefix", str(tmp_path / "r"),
    ])
    cap = capsys.readouterr()
    assert rc == 2
    assert "unknown offers" in cap.err


@pytest.mark.parametrize("bad", [-1, 10 ** 6])
def test_score_rejects_out_of_range_new_seller(ws, tabular_ckpt, tmp_path, capsys, bad):
    spec = json.loads((ws["scen"] / "scenario_new_seller.json").read_text())
    spec["new_sellers"] = [bad]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "s.csv"
    rc = main([
        "score", "--checkpoint", str(tabular_ckpt), "--graph", str(ws["graph"]),
        "--scenario", str(path), "--out", str(out),
    ])
    cap = capsys.readouterr()
    assert rc == 2
    assert f"scenario new_sellers index {bad} out of range" in cap.err
    assert not out.exists()


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sed": 7}))
    rc = main(["generate", "--config", str(cfg), "--out", str(tmp_path / "g")])
    cap = capsys.readouterr()
    assert rc == 2
    assert "'sed'" in cap.err


def _assert_named_error(capsys, rc, fragment):
    cap = capsys.readouterr()
    assert rc == 2
    assert "error: " in cap.err and fragment in cap.err
    assert "Traceback" not in cap.err


@pytest.mark.parametrize("patch, env, flags, fragment", [
    ({"model": {"epochs": "8"}}, None, (), "ExperimentConfig.model.epochs"),
    ({"generator": 5}, None, (), "ExperimentConfig.generator"),
    ({"seed": "7"}, None, (), "ExperimentConfig.seed"),
    ({"seed": -1}, None, (), "seed must be >= 0"),
    ({"model": {"hidden": 0}}, None, (), "hidden must be >= 1"),
    ({"model": {"sign_hops": -1}}, None, (), "sign_hops must be >= 0"),
    ({"model": {"gnn_layers": 0}}, None, (), "gnn_layers must be >= 1"),
    ({"model": {"dropout": 1.5}}, None, (), "dropout must be in [0, 1)"),
    ({}, "-1", (), "seed must be >= 0"),
    ({}, None, ("--seed", "-3"), "seed must be >= 0"),
])
def test_malformed_config_value_exits_2(tmp_path, monkeypatch, capsys, patch, env, flags,
                                        fragment):
    blob = write_tiny_config(tmp_path / "cfg.json", tmp_path / "runs").to_dict()
    for key, value in patch.items():
        blob[key] = {**blob[key], **value} if isinstance(value, dict) else value
    (tmp_path / "cfg.json").write_text(json.dumps(blob))
    if env is None:
        monkeypatch.delenv("CG_SEED", raising=False)
    else:
        monkeypatch.setenv("CG_SEED", env)
    rc = main(["generate", "--config", str(tmp_path / "cfg.json"),
               "--out", str(tmp_path / "g"), *flags])
    _assert_named_error(capsys, rc, fragment)
    assert not (tmp_path / "g").exists()


@pytest.mark.parametrize("scenario, fragment", [
    ([1], "ScenarioSpec: expected an object"),
    ({"scenario": "new_seller", "seed": 0, "new_sellers": 5}, "ScenarioSpec.new_sellers"),
    ("{nope", "not valid JSON"),
])
def test_malformed_scenario_file_exits_2(ws, tabular_ckpt, tmp_path, capsys, scenario,
                                         fragment):
    path = tmp_path / "scenario.json"
    path.write_text(scenario if isinstance(scenario, str) else json.dumps(scenario))
    out = tmp_path / "s.csv"
    rc = main(["score", "--checkpoint", str(tabular_ckpt), "--graph", str(ws["graph"]),
               "--scenario", str(path), "--out", str(out)])
    _assert_named_error(capsys, rc, fragment)
    assert not out.exists()


def test_malformed_checkpoint_arch_exits_2(ws, tmp_path, capsys):
    g = load_graph(ws["graph"])
    arch = {"d_s": g.d_s, "d_p": g.d_p, "d_o": g.d_o, "hidden": 0}
    ckpt = tmp_path / "bad_arch.ckpt"
    save_checkpoint(ckpt, "edge_gnn", arch, [])
    rc = main(["score", "--checkpoint", str(ckpt), "--graph", str(ws["graph"]),
               "--scenario", str(ws["scen"] / "scenario_full.json"),
               "--out", str(tmp_path / "s.csv")])
    _assert_named_error(capsys, rc, "EdgeGnnConfig: hidden must be >= 1")


def test_missing_graph_path_exits_2(tmp_path, capsys):
    write_tiny_config(tmp_path / "cfg.json", tmp_path / "runs")
    rc = main([
        "train", "--config", str(tmp_path / "cfg.json"),
        "--graph", str(tmp_path / "nope"), "--model", "tabular",
    ])
    cap = capsys.readouterr()
    assert rc == 2
    assert "nope" in cap.err


def test_unknown_checkpoint_kind_exits_2(ws, tmp_path, capsys):
    bogus = tmp_path / "bogus.ckpt"
    save_checkpoint(bogus, "lightgbm", {"d_in": 3}, [])
    rc = main([
        "score", "--checkpoint", str(bogus), "--graph", str(ws["graph"]),
        "--scenario", str(ws["scen"] / "scenario_full.json"),
        "--out", str(tmp_path / "s.csv"),
    ])
    cap = capsys.readouterr()
    assert rc == 2
    assert "model kind" in cap.err


def test_seed_precedence_flag_beats_env_beats_config(tmp_path, monkeypatch):
    write_tiny_config(tmp_path / "cfg.json", tmp_path / "runs")

    def gen(out, env, extra=()):
        if env is None:
            monkeypatch.delenv("CG_SEED", raising=False)
        else:
            monkeypatch.setenv("CG_SEED", env)
        rc = main(["generate", "--config", str(tmp_path / "cfg.json"),
                   "--out", str(out)] + list(extra))
        assert rc == 0
        return load_graph(out)

    g_env = gen(tmp_path / "a", "11")
    g_flag = gen(tmp_path / "b", "11", ("--seed", "3"))
    g_cfg = gen(tmp_path / "c", None)
    # the explicit flag restores the config seed even with the env var set
    assert np.array_equal(g_flag.seller_features, g_cfg.seller_features)
    assert not np.array_equal(g_env.seller_features, g_cfg.seller_features)


def test_cg_seed_must_be_integer(tmp_path, monkeypatch, capsys):
    write_tiny_config(tmp_path / "cfg.json", tmp_path / "runs")
    monkeypatch.setenv("CG_SEED", "lucky")
    rc = main(["generate", "--config", str(tmp_path / "cfg.json"),
               "--out", str(tmp_path / "g")])
    cap = capsys.readouterr()
    assert rc == 2
    assert "CG_SEED" in cap.err


def test_epochs_flag_reaches_training(ws, tmp_path):
    ckpt = tmp_path / "untrained.ckpt"
    rc = main([
        "train", "--config", str(ws["config"]), "--graph", str(ws["graph"]),
        "--model", "edge_gnn", "--out", str(ckpt), "--epochs", "0",
    ])
    assert rc == 0
    out = tmp_path / "scores.csv"
    rc = main([
        "score", "--checkpoint", str(ckpt), "--graph", str(ws["graph"]),
        "--scenario", str(ws["scen"] / "scenario_full.json"), "--out", str(out),
    ])
    assert rc == 0
    _, scores = read_scores_csv(out)
    # glorot-initialised logits stay small, so probabilities hug 0.5
    assert np.median(np.abs(scores - 0.5)) < 0.2


def test_repro_end_to_end(tmp_path, capsys):
    write_tiny_config(tmp_path / "cfg.json", tmp_path / "runs")
    rc = main(["repro", "--config", str(tmp_path / "cfg.json"),
               "--out", str(tmp_path / "out")])
    cap = capsys.readouterr()
    assert rc == 0
    paths = json.loads(cap.out)
    long_rows = (tmp_path / "out" / "summary_long.csv").read_text().strip().split("\n")
    geo_rows = (tmp_path / "out" / "summary_geo.csv").read_text().strip().split("\n")
    assert paths["summary_long"] == str(tmp_path / "out" / "summary_long.csv")
    assert len(long_rows) == 1 + 4 * 5 * 9
    assert len(geo_rows) == 1 + 5
    assert geo_rows[0] == "model," + ",".join(SCENARIOS)


def test_bench_small_sizes(tmp_path, capsys):
    write_tiny_config(tmp_path / "cfg.json", tmp_path / "out")
    rc = main(["bench", "--config", str(tmp_path / "cfg.json"),
               "--out", str(tmp_path / "out"),
               "--sizes", "400", "800", "1600", "3200"])
    cap = capsys.readouterr()
    assert rc == 0
    summary = json.loads(cap.out)
    for task in ("train_epoch", "inference"):
        assert (tmp_path / "out" / f"bench_{task}.csv").exists()
        assert summary[task]["slope"] > 0
    assert (tmp_path / "out" / "bench_summary.json").exists()


def test_eval_rejects_malformed_label_cell(ws, ns_scores, tmp_path, capsys):
    bundle = tmp_path / "graph"
    shutil.copytree(ws["graph"], bundle)
    labels = bundle / "labels.csv"
    lines = labels.read_text().split("\n")
    cells = lines[1].split(",")
    cells[1] = "-1"
    lines[1] = ",".join(cells)
    labels.write_text("\n".join(lines))
    meta = json.loads((bundle / "meta.json").read_text())
    meta["checksums"]["labels.csv"] = zlib.crc32(labels.read_bytes()) & 0xFFFFFFFF
    (bundle / "meta.json").write_text(json.dumps(meta))
    rc = main([
        "eval", "--scores", str(ns_scores), "--graph", str(bundle),
        "--out-prefix", str(tmp_path / "r"),
    ])
    cap = capsys.readouterr()
    assert rc == 2
    assert "labels.csv line 2" in cap.err
