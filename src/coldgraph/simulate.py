"""Synthetic seller-product graphs with planted community risk structure,
plus the cold-start masking protocols used for evaluation.

The generator plants seller communities.  Each community has a class
probability row; offers inherit their seller's community distribution, so
risk clusters in the graph.  Features carry the community and class signal
with Gaussian noise on top:

- seller column 0 is the community's total defect rate, remaining columns
  are a per-community prototype
- product column 0 is the unit-scaled category code ("product_category"),
  remaining columns are a per-category prototype
- offer column 0 is the centered log price ("list_price", discounted when
  defective), remaining columns are a per-class prototype

Cold-start scenarios never remove edges or labels: they zero feature rows
of the "new" entities, keeping only the columns known at listing time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .graph import N_CLASSES, NORMAL_CLASS, HeteroGraph, N_RELATIONS, NodeType
from .records import Record
from .storage import default_column_names

__all__ = [
    "MINORITY_CLASSES",
    "SCENARIOS",
    "GeneratorConfig",
    "ScenarioSpec",
    "default_class_probs",
    "generate_synthetic_graph",
    "sample_cold_entities",
    "make_scenario",
    "apply_scenario",
    "save_scenario",
    "load_scenario",
]

# the four low-prevalence defect classes used by the cold-start sampler
MINORITY_CLASSES = (1, 5, 6, 7)

SCENARIOS = ("full", "new_offer", "new_seller", "new_seller_new_product")

SCENARIO_FORMAT_VERSION = 1

_N_SS = N_RELATIONS - 1  # seller-seller relation count


def default_class_probs(n_communities: int = 25) -> tuple:
    """Deterministic per-community class-probability rows.

    Every third community is risky: elevated defect rates plus one boosted
    "signature" common class and one boosted minority class, rotating so
    different communities concentrate different defect types.  Rows sum to
    <= 1; the remainder is the normal-class mass.
    """
    common = tuple(k for k in range(N_CLASSES - 1) if k not in MINORITY_CLASSES)
    rows = []
    risky_seen = 0
    for c in range(n_communities):
        row = [0.0] * N_CLASSES
        if c % 3 == 0:
            for k in common:
                row[k] = 0.08
            for k in MINORITY_CLASSES:
                row[k] = 0.02
            row[common[risky_seen % len(common)]] += 0.20
            row[MINORITY_CLASSES[risky_seen % len(MINORITY_CLASSES)]] += 0.10
            risky_seen += 1
        else:
            for k in common:
                row[k] = 0.01
            for k in MINORITY_CLASSES:
                row[k] = 0.002
        rows.append(tuple(row))
    return tuple(rows)


_DEFAULT_P_INTRA = (0.015, 0.012, 0.010, 0.009, 0.008, 0.006, 0.005, 0.004)
_DEFAULT_P_INTER = (2e-5, 1.5e-5, 1e-5, 1e-5, 8e-6, 5e-6, 5e-6, 5e-6)


@dataclass(frozen=True)
class GeneratorConfig(Record):
    n_sellers: int = 5000
    n_products: int = 8000
    n_communities: int = 25
    n_categories: int = 12
    d_s: int = 16
    d_p: int = 12
    d_o: int = 10
    offers_per_seller: float = 4.0  # mean of 1 + Poisson(mean - 1)
    in_community_product_pref: float = 0.85
    p_intra: tuple[float, ...] = _DEFAULT_P_INTRA  # per seller-seller relation
    p_inter: tuple[float, ...] = _DEFAULT_P_INTER
    class_probs: Optional[tuple[tuple[float, ...], ...]] = None  # None -> default rows
    noise: float = 0.6
    price_mean_log: float = 3.0
    seed: int = 7

    def __post_init__(self):
        if self.n_sellers < 1 or self.n_products < 1:
            raise ValueError("need at least one seller and one product")
        if not 1 <= self.n_communities <= self.n_sellers:
            raise ValueError("community count must be in [1, n_sellers]")
        if self.n_categories < 1:
            raise ValueError("need at least one category")
        if min(self.d_s, self.d_p, self.d_o) < 2:
            raise ValueError("feature dims must be >= 2")
        if self.offers_per_seller < 1:
            raise ValueError("offers_per_seller must be >= 1")
        if not 0 <= self.in_community_product_pref <= 1:
            raise ValueError("in_community_product_pref must be a probability")
        for name in ("p_intra", "p_inter"):
            probs = getattr(self, name)
            if len(probs) != _N_SS:
                raise ValueError(f"{name} must list {_N_SS} per-relation probabilities")
            if any(not 0 <= p <= 1 for p in probs):
                raise ValueError(f"{name} entries must be probabilities")
        if self.noise < 0:
            raise ValueError("noise must be >= 0")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.class_probs is not None and len(self.class_probs) != self.n_communities:
            raise ValueError("class_probs must have one row per community")
        for row in self.class_probs or ():  # default_class_probs rows are valid
            if len(row) != N_CLASSES:
                raise ValueError(f"class_probs rows must have {N_CLASSES} entries")
            if any(p < 0 for p in row):
                raise ValueError("class probabilities must be >= 0")
            if sum(row) > 1 + 1e-9:
                raise ValueError("class_probs row sums must be <= 1")


# ---------------------------------------------------------------------------
# generation


def _community_of(n: int, n_communities: int) -> np.ndarray:
    """Balanced contiguous blocks: element i belongs to block i*k//n."""
    return (np.arange(n, dtype=np.int64) * n_communities) // n


def _sample_ss_edges(cfg: GeneratorConfig, comm: np.ndarray, rng) -> list:
    """Per-relation edge lists; dense Bernoulli within blocks, count-based
    sampling across blocks (the cross-pair space is too large to enumerate)."""
    n = cfg.n_sellers
    members = [np.flatnonzero(comm == c) for c in range(cfg.n_communities)]
    n_intra_pairs = sum(len(m) * (len(m) - 1) // 2 for m in members)
    n_inter_pairs = n * (n - 1) // 2 - n_intra_pairs
    relations = []
    for r in range(_N_SS):
        edges = []
        for m in members:
            k = len(m)
            if k < 2:
                continue
            iu, ju = np.triu_indices(k, 1)
            hit = rng.random(iu.shape[0]) < cfg.p_intra[r]
            edges.append(np.stack([m[iu[hit]], m[ju[hit]]], axis=1))
        intra = np.concatenate(edges) if edges else np.empty((0, 2), dtype=np.int64)
        want = rng.binomial(n_inter_pairs, cfg.p_inter[r]) if n_inter_pairs else 0
        seen = set()
        inter = []
        while len(inter) < want:
            a, b = rng.integers(0, n, size=2)
            if a == b or comm[a] == comm[b]:
                continue
            pair = (min(a, b), max(a, b))
            if pair in seen:
                continue
            seen.add(pair)
            inter.append(pair)
        inter_arr = np.array(inter, dtype=np.int64).reshape(-1, 2)
        relations.append(np.concatenate([intra, inter_arr]))
    return relations


def _sample_offers(cfg: GeneratorConfig, seller_comm, product_comm, rng):
    """(offer_seller, offer_product): 1 + Poisson(mean-1) offers per seller,
    products drawn mostly from the seller's own community, no repeats per
    seller."""
    by_comm = [np.flatnonzero(product_comm == c) for c in range(cfg.n_communities)]
    counts = 1 + rng.poisson(cfg.offers_per_seller - 1, size=cfg.n_sellers)
    counts = np.minimum(counts, cfg.n_products)
    offer_seller, offer_product = [], []
    for s in range(cfg.n_sellers):
        own = by_comm[seller_comm[s]]
        chosen: set = set()
        attempts = 0
        while len(chosen) < counts[s] and attempts < 50 * counts[s]:
            attempts += 1
            if len(own) and rng.random() < cfg.in_community_product_pref:
                p = int(own[rng.integers(len(own))])
            else:
                p = int(rng.integers(cfg.n_products))
            chosen.add(p)
        for p in sorted(chosen):
            offer_seller.append(s)
            offer_product.append(p)
    return (
        np.array(offer_seller, dtype=np.int64),
        np.array(offer_product, dtype=np.int64),
    )


def generate_synthetic_graph(cfg: GeneratorConfig) -> HeteroGraph:
    """Build a labeled graph from the planted-community model.

    Deterministic per ``cfg.seed``: exactly ``n_sellers``/``n_products``
    nodes; the offer count varies with the seed around
    ``n_sellers * offers_per_seller``.
    """
    rng = np.random.default_rng(cfg.seed)
    seller_comm = _community_of(cfg.n_sellers, cfg.n_communities)
    product_comm = _community_of(cfg.n_products, cfg.n_communities)
    rows = default_class_probs(cfg.n_communities) if cfg.class_probs is None else cfg.class_probs
    class_rows = np.array(rows, dtype=np.float64)
    normal_mass = class_rows[:, NORMAL_CLASS] + (1.0 - class_rows.sum(axis=1))
    eff_rows = class_rows.copy()
    eff_rows[:, NORMAL_CLASS] = normal_mass
    eff_rows /= eff_rows.sum(axis=1, keepdims=True)  # exact simplex for choice()

    ss_edges = _sample_ss_edges(cfg, seller_comm, rng)
    offer_seller, offer_product = _sample_offers(cfg, seller_comm, product_comm, rng)
    m = offer_seller.shape[0]

    # labels: one class per offer, drawn from the seller community's row
    cls = np.empty(m, dtype=np.int64)
    offer_comm = seller_comm[offer_seller]
    for c in range(cfg.n_communities):
        idx = np.flatnonzero(offer_comm == c)
        if idx.size:
            cls[idx] = rng.choice(N_CLASSES, size=idx.size, p=eff_rows[c])
    labels = np.zeros((m, N_CLASSES), dtype=np.uint8)
    labels[np.arange(m), cls] = 1

    # seller features: community defect mass, then a community prototype
    risk = 1.0 - normal_mass
    proto_s = rng.normal(size=(cfg.n_communities, cfg.d_s - 1))
    sf = np.empty((cfg.n_sellers, cfg.d_s), dtype=np.float64)
    sf[:, 0] = risk[seller_comm] + 0.05 * rng.normal(size=cfg.n_sellers)
    sf[:, 1:] = proto_s[seller_comm] + cfg.noise * rng.normal(
        size=(cfg.n_sellers, cfg.d_s - 1)
    )

    # product features: category code, then a category prototype
    category = (product_comm * cfg.n_categories) // cfg.n_communities
    jitter = rng.random(cfg.n_products) < 0.2
    category = (category + jitter * rng.integers(1, cfg.n_categories + 1, size=cfg.n_products)) % cfg.n_categories
    proto_p = rng.normal(size=(cfg.n_categories, cfg.d_p - 1))
    pf = np.empty((cfg.n_products, cfg.d_p), dtype=np.float64)
    pf[:, 0] = category / cfg.n_categories  # unit-scaled code, injective per category
    pf[:, 1:] = proto_p[category] + cfg.noise * rng.normal(
        size=(cfg.n_products, cfg.d_p - 1)
    )

    # offer features: centered log price (defect-discounted), then a class
    # prototype; log keeps the column near unit scale
    defective = cls != NORMAL_CLASS
    base_price = np.exp(rng.normal(cfg.price_mean_log, 0.4, size=m))
    discount = np.where(
        defective, rng.uniform(0.65, 0.90, size=m), rng.uniform(0.95, 1.05, size=m)
    )
    proto_o = rng.normal(size=(N_CLASSES, cfg.d_o - 1))
    of = np.empty((m, cfg.d_o), dtype=np.float64)
    of[:, 0] = np.log(base_price * discount) - cfg.price_mean_log
    of[:, 1:] = proto_o[cls] + cfg.noise * rng.normal(size=(m, cfg.d_o - 1))

    return HeteroGraph.from_arrays(
        sf.astype(np.float32),
        pf.astype(np.float32),
        offer_seller,
        offer_product,
        of.astype(np.float32),
        ss_edges,
        labels=labels,
    )


# ---------------------------------------------------------------------------
# cold-start scenarios


def sample_cold_entities(g: HeteroGraph, rng: np.random.Generator) -> np.ndarray:
    """New-offer index set: ceil(rate * class size) per class, unioned.

    Minority classes are sampled at rate 0.25, every other class (normal
    included) at 0.01.  Empty classes contribute nothing.
    """
    if g.labels is None:
        raise ValueError("graph has no labels")
    picked: set = set()
    for k in range(g.labels.shape[1]):
        members = np.flatnonzero(g.labels[:, k] == 1)
        if members.size == 0:
            continue
        rate = 0.25 if k in MINORITY_CLASSES else 0.01
        take = math.ceil(rate * members.size)
        picked.update(rng.choice(members, size=take, replace=False).tolist())
    return np.array(sorted(picked), dtype=np.int64)


@dataclass(frozen=True)
class ScenarioSpec(Record):
    """Frozen description of one cold-start evaluation scenario.

    Index sets are stored explicitly so a spec reproduces exactly from its
    JSON form; the seed is informational.
    """

    scenario: str
    seed: int
    base_offers: tuple[int, ...] = ()
    new_sellers: tuple[int, ...] = ()
    new_products: tuple[int, ...] = ()
    eval_offers: tuple[int, ...] = ()
    retained_offer_columns: tuple[str, ...] = ("list_price",)
    retained_product_columns: tuple[str, ...] = ("product_category",)
    format_version: int = SCENARIO_FORMAT_VERSION

    def __post_init__(self):
        if self.format_version != SCENARIO_FORMAT_VERSION:
            raise ValueError(f"unsupported scenario format version {self.format_version}")
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}")


def make_scenario(g: HeteroGraph, scenario: str, seed: int) -> ScenarioSpec:
    """Sample a scenario's entity sets from the graph.

    The same seed yields the same base offer sample for every scenario
    kind, which is what makes the evaluation sets nest: new_offer evaluates
    the base sample itself, new_seller evaluates every offer of the base
    sellers, and new_seller_new_product adds every offer of the base
    products.
    """
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}")
    if g.labels is None:
        raise ValueError("graph has no labels")
    if scenario == "full":
        return ScenarioSpec(
            scenario=scenario,
            seed=seed,
            eval_offers=tuple(range(g.n_offers)),
        )
    rng = np.random.default_rng(seed)
    base = sample_cold_entities(g, rng)
    new_sellers: tuple = ()
    new_products: tuple = ()
    eval_offers = base
    if scenario != "new_offer":
        sellers = np.unique(g.offer_seller[base])
        found = [g.offers_of(NodeType.SELLER)[sellers].indices]
        new_sellers = tuple(sellers.tolist())
        if scenario == "new_seller_new_product":
            products = np.unique(g.offer_product[base])
            found.append(g.offers_of(NodeType.PRODUCT)[products].indices)
            new_products = tuple(products.tolist())
        eval_offers = np.unique(np.concatenate(found))
    return ScenarioSpec(
        scenario=scenario,
        seed=seed,
        base_offers=tuple(base.tolist()),
        new_sellers=new_sellers,
        new_products=new_products,
        eval_offers=tuple(eval_offers.tolist()),
    )


def _resolve_columns(names, available, kind: str) -> list:
    idx = []
    for name in names:
        if name not in available:
            raise ValueError(f"unknown retained {kind} column {name!r}")
        idx.append(available.index(name))
    return idx


def _checked_ids(ids, count: int, what: str) -> np.ndarray:
    ids = np.asarray(ids, dtype=np.int64)
    bad = ids[(ids < 0) | (ids >= count)]
    if bad.size:
        raise ValueError(f"scenario {what} index {int(bad[0])} out of range [0, {count})")
    return ids


def _mask_rows(features: np.ndarray, rows: np.ndarray, keep: list) -> np.ndarray:
    out = features.copy()
    if rows.size == 0:
        return out
    saved = out[np.ix_(rows, keep)] if keep else None
    out[rows] = 0.0
    if keep:
        out[np.ix_(rows, keep)] = saved
    return out


def apply_scenario(g: HeteroGraph, spec: ScenarioSpec):
    """Masked copy of ``g`` plus the evaluation offer index array.

    Every evaluation offer is treated as newly listed: its feature row is
    zeroed except the retained columns.  New sellers lose all feature
    columns; new products keep only their retained columns.  Edges and
    labels are untouched, so cold entities stay connected.
    """
    column_names = default_column_names(g.d_s, g.d_p, g.d_o)
    eval_offers = _checked_ids(spec.eval_offers, g.n_offers, "eval_offers")
    new_sellers = _checked_ids(spec.new_sellers, g.n_sellers, "new_sellers")
    new_products = _checked_ids(spec.new_products, g.n_products, "new_products")
    if spec.scenario == "full":
        return g.copy_with_features(
            g.seller_features, g.product_features, g.offer_features
        ), eval_offers

    keep_o = _resolve_columns(
        spec.retained_offer_columns, list(column_names["offer"]), "offer"
    )
    of = _mask_rows(g.offer_features, eval_offers, keep_o)
    sf = _mask_rows(g.seller_features, new_sellers, [])
    if new_products.size:
        keep_p = _resolve_columns(
            spec.retained_product_columns, list(column_names["product"]), "product"
        )
        pf = _mask_rows(g.product_features, new_products, keep_p)
    else:
        pf = g.product_features.copy()
    return g.copy_with_features(sf, pf, of), eval_offers


def save_scenario(path, spec: ScenarioSpec) -> None:
    Path(path).write_text(json.dumps(spec.to_dict(), indent=2, sort_keys=True) + "\n")


def load_scenario(path) -> ScenarioSpec:
    return ScenarioSpec.from_json_file(path)
