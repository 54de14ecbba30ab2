import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import reference_sample_offers, reference_sample_ss_edges
from coldgraph.experiment import ExperimentConfig
from coldgraph.graph import N_CLASSES, NORMAL_CLASS, HeteroGraph
from coldgraph.simulate import (
    SCENARIOS,
    GeneratorConfig,
    ScenarioSpec,
    _community_of,
    _sample_offers,
    _sample_ss_edges,
    apply_scenario,
    default_class_probs,
    generate_synthetic_graph,
    load_scenario,
    make_scenario,
    sample_cold_entities,
    save_scenario,
)
from test_graph_properties import graph_arrays

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def small_config(**kw):
    base = dict(
        n_sellers=240,
        n_products=300,
        n_communities=6,
        n_categories=4,
        d_s=6,
        d_p=4,
        d_o=5,
        offers_per_seller=3.0,
        seed=5,
    )
    base.update(kw)
    return GeneratorConfig(**base)


@pytest.fixture(scope="module")
def small_graph():
    return generate_synthetic_graph(small_config())


# ---------------------------------------------------------------------------
# config plumbing


def test_config_round_trip():
    cfg = small_config(class_probs=default_class_probs(6))
    back = GeneratorConfig.from_dict(cfg.to_dict())
    assert back == cfg


def test_config_rejects_unknown_key():
    with pytest.raises(ValueError, match="n_selllers"):
        GeneratorConfig.from_dict({"n_selllers": 10})


def test_config_validation():
    with pytest.raises(ValueError, match="community"):
        small_config(n_communities=500)
    with pytest.raises(ValueError, match="per-relation"):
        small_config(p_intra=(0.1, 0.1))
    bad_rows = tuple((0.3,) * 9 for _ in range(6))  # sums to 2.7
    with pytest.raises(ValueError, match="sums"):
        small_config(class_probs=bad_rows)
    with pytest.raises(ValueError, match=">= 2"):
        small_config(d_o=1)


def test_default_class_probs_shape():
    rows = default_class_probs(25)
    assert len(rows) == 25
    assert all(len(r) == 9 for r in rows)
    assert all(0 <= sum(r) <= 1 + 1e-12 for r in rows)
    # risky communities carry far more defect mass than safe ones
    assert sum(rows[0][:8]) > 5 * sum(rows[1][:8])


# ---------------------------------------------------------------------------
# generator


def test_exact_node_counts():
    g = generate_synthetic_graph(small_config(n_sellers=100, n_products=200, seed=42))
    assert g.n_sellers == 100
    assert g.n_products == 200


def test_generated_graph_validates(small_graph):
    # from_arrays checked every generated array; each offer has one class
    assert small_graph.labels is not None
    np.testing.assert_array_equal(small_graph.labels.sum(axis=1), 1)


def test_determinism():
    a = generate_synthetic_graph(small_config())
    b = generate_synthetic_graph(small_config())
    c = generate_synthetic_graph(small_config(seed=6))
    assert a.offer_features.tobytes() == b.offer_features.tobytes()
    assert a.labels.tobytes() == b.labels.tobytes()
    assert a.ss_edges(0).shape == b.ss_edges(0).shape
    assert a.offer_features.tobytes() != c.offer_features.tobytes()


# configs whose offer loop runs each branch: empty own lists (more
# communities than products), never or always in-community, and a
# 50-attempts-per-offer cap that binds (2 of 12 products in each
# community, and only 1% of draws reach the other 10)
STREAM_CONFIGS = {
    "uneven": dict(n_sellers=103, n_communities=7),
    "fewer_products": dict(n_products=3),
    "pref_0": dict(in_community_product_pref=0.0),
    "pref_1": dict(in_community_product_pref=1.0),
    "cap_binds": dict(n_sellers=60, n_products=12, offers_per_seller=11.0,
                      in_community_product_pref=0.99),
}


def stream_config(name):
    if name in ("small", "default"):
        return ExperimentConfig.from_json_file(CONFIGS / f"{name}.json").generator
    return small_config(**STREAM_CONFIGS[name])


@pytest.mark.parametrize("name", ["small", "default", *STREAM_CONFIGS])
def test_samplers_keep_the_reference_random_stream(name):
    """Each sampler returns its reference's arrays and leaves the generator
    in the reference's state, so every later draw of a graph matches too."""
    cfg = stream_config(name)
    seller_comm = _community_of(cfg.n_sellers, cfg.n_communities)
    product_comm = _community_of(cfg.n_products, cfg.n_communities)
    rng, ref = np.random.default_rng(cfg.seed), np.random.default_rng(cfg.seed)
    got = _sample_ss_edges(cfg, seller_comm, rng)
    want = reference_sample_ss_edges(cfg, seller_comm, ref)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert rng.bit_generator.state == ref.bit_generator.state
    got = _sample_offers(cfg, seller_comm, product_comm, rng)
    want = reference_sample_offers(cfg, seller_comm, product_comm, ref)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert rng.bit_generator.state == ref.bit_generator.state
    if name == "cap_binds":  # fewer offers than the Poisson counts asked for
        counts = 1 + np.random.default_rng(0).poisson(cfg.offers_per_seller - 1, cfg.n_sellers)
        rng = np.random.default_rng(0)
        offer_seller, _ = _sample_offers(cfg, seller_comm, product_comm, rng)
        assert offer_seller.size < np.minimum(counts, cfg.n_products).sum()


def test_degenerate_class_rows_make_homogeneous_communities():
    rows = [[0.0] * 9 for _ in range(2)]
    rows[0][2] = 1.0  # community 0 always defect type 3
    rows[1][8] = 1.0  # community 1 always normal
    cfg = small_config(
        n_sellers=40, n_products=60, n_communities=2, noise=0.0,
        class_probs=tuple(tuple(r) for r in rows),
    )
    g = generate_synthetic_graph(cfg)
    comm = (np.arange(40) * 2) // 40
    cls = g.labels.argmax(axis=1)
    offer_comm = comm[g.offer_seller]
    assert (cls[offer_comm == 0] == 2).all()
    assert (cls[offer_comm == 1] == 8).all()


def test_intra_edge_rate_matches_config():
    cfg = small_config(
        n_sellers=600,
        n_products=100,
        n_communities=6,
        p_intra=(0.05, 0.04) + (0.0,) * 6,
        p_inter=(0.0,) * 8,
        seed=11,
    )
    g = generate_synthetic_graph(cfg)
    pairs = 6 * (100 * 99 // 2)
    for r, p in ((0, 0.05), (1, 0.04)):
        measured = g.ss_edges(r).shape[0] / pairs
        assert abs(measured - p) < 0.1 * p
    assert g.ss_edges(5).shape[0] == 0


def test_risk_clusters_by_community(small_graph):
    g = small_graph
    comm = (np.arange(g.n_sellers) * 6) // g.n_sellers
    offer_comm = comm[g.offer_seller]
    defect = 1 - g.labels[:, NORMAL_CLASS]
    risky = defect[offer_comm == 0].mean()  # risky community under defaults
    safe = defect[offer_comm == 1].mean()
    assert risky > 3 * safe


def test_price_discount_signal(small_graph):
    g = small_graph
    defect = g.labels[:, NORMAL_CLASS] == 0
    assert g.offer_features[defect, 0].mean() < g.offer_features[~defect, 0].mean()


def test_offer_volume_near_expectation(small_graph):
    g = small_graph
    expected = 240 * 3.0
    assert 0.75 * expected < g.n_offers < 1.25 * expected


# ---------------------------------------------------------------------------
# cold-entity sampling


def hand_labeled_graph():
    """108 offers: 8 of minority class 1, 100 normal."""
    n_s, n_p = 4, 27
    sf = np.zeros((n_s, 2), dtype=np.float32)
    pf = np.zeros((n_p, 2), dtype=np.float32)
    pairs = [(s, p) for s in range(n_s) for p in range(n_p)]
    of = np.zeros((len(pairs), 3), dtype=np.float32)
    of[:, 0] = 10.0
    labels = np.zeros((len(pairs), 9), dtype=np.uint8)
    labels[:8, 1] = 1
    labels[8:, 8] = 1
    return HeteroGraph.from_arrays(
        sf, pf,
        np.array([s for s, _ in pairs]),
        np.array([p for _, p in pairs]),
        of,
        [np.empty((0, 2), dtype=np.int64)] * 8,
        labels=labels,
    )


def test_sample_rates_use_ceil():
    g = hand_labeled_graph()
    picked = sample_cold_entities(g, np.random.default_rng(0))
    cls = g.labels.argmax(axis=1)
    # ceil(8 * 0.25) = 2 minority picks, ceil(100 * 0.01) = 1 normal pick
    assert (cls[picked] == 1).sum() == 2
    assert (cls[picked] == 8).sum() == 1
    assert len(picked) == 3
    assert (np.sort(picked) == picked).all()


def test_sample_skips_empty_classes():
    g = hand_labeled_graph()
    picked = sample_cold_entities(g, np.random.default_rng(1))
    cls = g.labels.argmax(axis=1)
    assert set(np.unique(cls[picked])) <= {1, 8}


def test_sample_requires_labels():
    g = hand_labeled_graph()
    unlabeled = HeteroGraph.from_arrays(
        g.seller_features, g.product_features,
        g.offer_seller, g.offer_product, g.offer_features,
        [np.empty((0, 2), dtype=np.int64)] * 8,
    )
    with pytest.raises(ValueError, match="labels"):
        sample_cold_entities(unlabeled, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# scenarios


def test_scenario_nesting(small_graph):
    g = small_graph
    specs = {
        name: make_scenario(g, name, seed=3)
        for name in ("new_offer", "new_seller", "new_seller_new_product")
    }
    e_no = set(specs["new_offer"].eval_offers)
    e_ns = set(specs["new_seller"].eval_offers)
    e_nsnp = set(specs["new_seller_new_product"].eval_offers)
    assert e_no and e_no <= e_ns <= e_nsnp
    assert e_ns != e_nsnp or specs["new_seller_new_product"].new_products == ()
    full = make_scenario(g, "full", seed=3)
    assert full.eval_offers == tuple(range(g.n_offers))
    # same seed -> same base sample across scenario kinds
    assert specs["new_offer"].base_offers == specs["new_seller"].base_offers


def test_seller_expansion_pulls_in_sibling_offers(small_graph):
    g = small_graph
    spec = make_scenario(g, "new_seller", seed=3)
    eval_set = set(spec.eval_offers)
    for s in spec.new_sellers:
        owned = np.flatnonzero(g.offer_seller == s)
        assert set(owned.tolist()) <= eval_set


def test_full_scenario_changes_nothing(small_graph):
    g = small_graph
    masked, eval_offers = apply_scenario(g, make_scenario(g, "full", seed=0))
    assert masked.offer_features.tobytes() == g.offer_features.tobytes()
    assert masked.seller_features.tobytes() == g.seller_features.tobytes()
    assert len(eval_offers) == g.n_offers


def test_new_offer_masking_is_exact(small_graph):
    g = small_graph
    spec = make_scenario(g, "new_offer", seed=9)
    masked, eval_offers = apply_scenario(g, spec)
    rows = np.asarray(eval_offers)
    others = np.setdiff1d(np.arange(g.n_offers), rows)
    # price column survives bitwise, everything else is exactly zero
    np.testing.assert_array_equal(
        masked.offer_features[rows, 0], g.offer_features[rows, 0]
    )
    assert (masked.offer_features[rows, 1:] == 0).all()
    assert masked.offer_features[others].tobytes() == g.offer_features[others].tobytes()
    # sellers and products untouched in this scenario
    assert masked.seller_features.tobytes() == g.seller_features.tobytes()
    assert masked.product_features.tobytes() == g.product_features.tobytes()
    # topology and labels untouched
    assert masked.n_edges == g.n_edges
    assert masked.labels.tobytes() == g.labels.tobytes()


def test_new_seller_masking(small_graph):
    g = small_graph
    spec = make_scenario(g, "new_seller", seed=9)
    masked, _ = apply_scenario(g, spec)
    new_s = np.asarray(spec.new_sellers)
    assert (masked.seller_features[new_s] == 0).all()
    old_s = np.setdiff1d(np.arange(g.n_sellers), new_s)
    assert masked.seller_features[old_s].tobytes() == g.seller_features[old_s].tobytes()
    assert masked.product_features.tobytes() == g.product_features.tobytes()


def test_new_product_masking_keeps_category(small_graph):
    g = small_graph
    spec = make_scenario(g, "new_seller_new_product", seed=9)
    masked, _ = apply_scenario(g, spec)
    new_p = np.asarray(spec.new_products)
    np.testing.assert_array_equal(
        masked.product_features[new_p, 0], g.product_features[new_p, 0]
    )
    assert (masked.product_features[new_p, 1:] == 0).all()


def test_masking_is_idempotent(small_graph):
    g = small_graph
    spec = make_scenario(g, "new_seller_new_product", seed=2)
    once, _ = apply_scenario(g, spec)
    twice, _ = apply_scenario(once, spec)
    assert once.offer_features.tobytes() == twice.offer_features.tobytes()
    assert once.seller_features.tobytes() == twice.seller_features.tobytes()
    assert once.product_features.tobytes() == twice.product_features.tobytes()


def test_unknown_retained_column_rejected(small_graph):
    g = small_graph
    spec = make_scenario(g, "new_offer", seed=0)
    broken = ScenarioSpec.from_dict(
        {**spec.to_dict(), "retained_offer_columns": ["no_such_column"]}
    )
    with pytest.raises(ValueError, match="no_such_column"):
        apply_scenario(g, broken)


def test_scenario_json_round_trip(small_graph, tmp_path):
    spec = make_scenario(small_graph, "new_seller", seed=4)
    path = tmp_path / "scenario.json"
    save_scenario(path, spec)
    assert load_scenario(path) == spec


def test_scenario_dict_rejects_unknown_key(small_graph):
    spec = make_scenario(small_graph, "new_offer", seed=0)
    with pytest.raises(ValueError, match="surprise"):
        ScenarioSpec.from_dict({**spec.to_dict(), "surprise": 1})
    with pytest.raises(ValueError, match="version"):
        ScenarioSpec.from_dict({**spec.to_dict(), "format_version": 99})
    with pytest.raises(ValueError, match="scenario"):
        ScenarioSpec(scenario="warm_start", seed=0)


@pytest.mark.parametrize("field, count", [("new_sellers", "n_sellers"), ("new_products", "n_products")])
def test_scenario_entity_ids_are_range_checked(small_graph, field, count):
    g = small_graph
    n = getattr(g, count)
    spec = make_scenario(g, "new_seller_new_product", seed=0)
    for bad in (-1, n, n + 7):
        broken = ScenarioSpec.from_dict({**spec.to_dict(), field: [0, bad]})
        want = re.escape(f"scenario {field} id {bad} out of range [0, {n})")
        with pytest.raises(ValueError, match=f"^{want}$"):
            apply_scenario(g, broken)


@pytest.mark.parametrize("field", ["eval_offers", "new_sellers", "new_products"])
def test_apply_scenario_rejects_repeated_ids(small_graph, field):
    spec = make_scenario(small_graph, "new_seller_new_product", seed=0)
    ids = list(getattr(spec, field))
    broken = ScenarioSpec.from_dict({**spec.to_dict(), field: ids + [ids[0]]})
    with pytest.raises(ValueError, match=f"^scenario {field} id {ids[0]} repeats$"):
        apply_scenario(small_graph, broken)


# ---------------------------------------------------------------------------
# masking properties over random graphs and specs

PROPS = settings(max_examples=60, deadline=None)


@st.composite
def labeled_graphs(draw):
    """Random graphs of ``graph_arrays`` with at least one offer, labeled so
    that ``make_scenario`` can sample them."""
    kw = draw(graph_arrays(min_offers=1))
    if kw["labels"] is None:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        kw["labels"] = rng.integers(0, 2, size=(kw["offer_seller"].size, N_CLASSES)).astype(np.uint8)
    return HeteroGraph.from_arrays(**kw)


@st.composite
def graphs_and_specs(draw):
    """A graph and a spec of any kind: sampled by ``make_scenario``, or with
    drawn new sellers, new products and evaluation offers."""
    g = draw(labeled_graphs())
    kind = draw(st.sampled_from(SCENARIOS))
    if draw(st.booleans()):
        return g, make_scenario(g, kind, seed=draw(st.integers(0, 2**16)))

    def ids(n):
        return tuple(draw(st.lists(st.integers(0, n - 1), unique=True)))

    return g, ScenarioSpec(scenario=kind, seed=0, new_sellers=ids(g.n_sellers),
                           new_products=ids(g.n_products), eval_offers=ids(g.n_offers))


def features(g):
    return g.offer_features, g.seller_features, g.product_features


def reference_masking(g, spec):
    """The masked feature matrices cell by cell: an evaluation offer keeps
    its list price (column 0), a new seller nothing, a new product its
    category (column 0); the full scenario masks nothing."""
    of, sf, pf = (x.copy() for x in features(g))
    if spec.scenario != "full":
        for k in spec.eval_offers:
            of[k, 1:] = 0.0
        for s in spec.new_sellers:
            sf[s] = 0.0
        for p in spec.new_products:
            pf[p, 1:] = 0.0
    return of, sf, pf


@PROPS
@given(graphs_and_specs())
def test_masking_is_exact(g_spec):
    """Every masked cell is zero, every other cell keeps its bits, and the
    topology, labels and evaluation offers are the spec's and the graph's."""
    g, spec = g_spec
    masked, eval_offers = apply_scenario(g, spec)
    for got, want in zip(features(masked), reference_masking(g, spec)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert np.array_equal(eval_offers, spec.eval_offers)
    assert masked.labels.tobytes() == g.labels.tobytes()
    assert masked.normalized_stack() is g.normalized_stack()
    for name in ("offer_seller", "offer_product"):
        assert np.array_equal(getattr(masked, name), getattr(g, name))


@PROPS
@given(graphs_and_specs())
def test_masking_twice_equals_masking_once(g_spec):
    g, spec = g_spec
    once, first = apply_scenario(g, spec)
    twice, second = apply_scenario(once, spec)
    assert np.array_equal(first, second)
    for a, b in zip(features(once), features(twice)):
        assert a.tobytes() == b.tobytes()


@PROPS
@given(labeled_graphs(), st.integers(0, 2**16))
def test_scenarios_of_one_seed_nest(g, seed):
    """From ``full`` to ``new_seller_new_product``, each scenario of one seed
    masks a superset of the previous one's cells to the same zeros; from
    ``new_offer`` on, each evaluates a superset of the previous one's
    offers (``full`` evaluates every offer).  The three cold scenarios
    share one base sample, new_offer evaluates it, and the seller scenarios
    agree on the new sellers, whose offers they evaluate, as the last one
    evaluates its new products' offers too."""
    specs = [make_scenario(g, kind, seed) for kind in SCENARIOS]
    full, new_offer, new_seller, both = specs
    assert full.eval_offers == tuple(range(g.n_offers))
    assert new_offer.base_offers == new_seller.base_offers == both.base_offers
    assert new_offer.eval_offers == new_offer.base_offers
    assert new_seller.new_sellers == both.new_sellers
    assert set(np.flatnonzero(np.isin(g.offer_seller, new_seller.new_sellers))) \
        == set(new_seller.eval_offers)
    assert set(np.flatnonzero(np.isin(g.offer_seller, both.new_sellers)
                              | np.isin(g.offer_product, both.new_products))) \
        == set(both.eval_offers)
    masked = [features(apply_scenario(g, spec)[0]) for spec in specs]
    assert set(new_offer.eval_offers) <= set(new_seller.eval_offers) <= set(both.eval_offers)
    for before, after in zip(masked, masked[1:]):
        for x, a, b in zip(features(g), before, after):
            changed = a != x
            assert (b != x)[changed].all() and (b[changed] == 0).all()
