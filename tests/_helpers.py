"""Shared test helpers: the tiny experiment config, criterion 2's
brute-force AUC oracle, small random graphs, graph equality,
isolated-node padding of adjacency matrices, two reference
breadth-first searches, a reference message-flow plan with its
comparison, reference sibling-offer summaries that sum each call's
owners afresh, a reference per-class MLP trainer that fits one head
after another, the generator's seller-seller edge and offer samplers as
they were before their loops moved onto Python ints, a bundle
feature-cell edit that keeps the checksum valid, an ``os.replace`` that
fails on demand, the tracemalloc peak of one call, and four tape ops
that only tests use (``matmul``, ``mul``, ``sum_all``, ``stack_rows``)
to build losses and programs."""

import json
import os
import struct
import tracemalloc
import zlib
from pathlib import Path
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from coldgraph.autodiff import Tensor, bce_loss, record
from coldgraph.evaluate import UndefinedAucError, _check_binary_inputs
from coldgraph.experiment import ExperimentConfig, ModelConfig
from coldgraph.graph import N_CLASSES, HeteroGraph, NodeType, Relation
from coldgraph.models.train import (
    TrainingDiverged,
    _epoch_batches,
    fit,
    init_mlp_head,
    mlp_head_forward,
)
from coldgraph.sampling import _row_entries
from coldgraph.simulate import _N_SS, GeneratorConfig


def tiny_config(out_dir="runs/tiny", **kw):
    """The tiny experiment config that the pipeline, CLI and acceptance
    tests run: 60 sellers, 80 products, two GNN layers, a few epochs."""
    gen = GeneratorConfig(
        n_sellers=60, n_products=80, n_communities=4, n_categories=3,
        d_s=5, d_p=4, d_o=4, offers_per_seller=2.5, seed=3,
    )
    model = ModelConfig(
        hidden=8, gnn_layers=2, edge_hidden=8, cls_hidden=8,
        epochs=2, batch_size=64, mlp_hidden=8, mlp_epochs=4,
        sign_hops=2, expanded_hidden=8, expanded_layers=2, expanded_epochs=3,
    )
    return ExperimentConfig(**{"seed": 3, "out_dir": out_dir, "generator": gen, "model": model,
                               **kw})


def roc_auc_pairwise(scores, labels) -> float:
    """Brute-force positive-negative pair count; the testing oracle."""
    scores, pos = _check_binary_inputs(scores, labels)
    p = scores[pos]
    n = scores[~pos]
    if p.size == 0 or n.size == 0:
        raise UndefinedAucError("AUC undefined: labels contain a single class")
    diff = p[:, None] - n[None, :]
    wins = (diff > 0).sum() + 0.5 * (diff == 0).sum()
    return float(wins) / (float(p.size) * float(n.size))


def make_random_graph(
    seed=0,
    n_sellers=30,
    n_products=20,
    max_offers_per_seller=3,
    d_s=5,
    d_p=4,
    d_o=6,
    ss_p=0.08,
    labeled=True,
):
    rng = np.random.default_rng(seed)
    sellers = rng.normal(size=(n_sellers, d_s)).astype(np.float32)
    products = rng.normal(size=(n_products, d_p)).astype(np.float32)

    offer_seller, offer_product = [], []
    for s in range(n_sellers):
        k = int(rng.integers(1, max_offers_per_seller + 1))
        k = min(k, n_products)
        for p in rng.choice(n_products, size=k, replace=False):
            offer_seller.append(s)
            offer_product.append(int(p))
    m = len(offer_seller)
    offers = rng.normal(size=(m, d_o)).astype(np.float32)

    ss_edges = []
    iu = np.triu_indices(n_sellers, k=1)
    for _ in range(8):
        mask = rng.random(iu[0].shape[0]) < ss_p
        ss_edges.append(np.stack([iu[0][mask], iu[1][mask]], axis=1))

    labels = None
    if labeled:
        cls = rng.integers(0, N_CLASSES, size=m)
        labels = np.zeros((m, N_CLASSES), dtype=np.uint8)
        labels[np.arange(m), cls] = 1

    return HeteroGraph.from_arrays(
        sellers,
        products,
        np.asarray(offer_seller, dtype=np.int64),
        np.asarray(offer_product, dtype=np.int64),
        offers,
        ss_edges,
        labels=labels,
    )


def _bfs(adj, seeds, hops):
    """node -> breadth-first distance from ``seeds`` over ``adj`` (node ->
    neighbour set), for the nodes within ``hops``."""
    frontier = {int(v) for v in seeds}
    dist = dict.fromkeys(frontier, 0)
    for depth in range(1, hops + 1):
        frontier = {u for v in frontier for u in adj.get(v, ()) if u not in dist}
        dist.update(dict.fromkeys(frontier, depth))
    return dist


def bfs_oracle(g, offer_ids, hops):
    """Reference BFS over edge lists read from the graph's arrays; nodes are
    unified ids (sellers, then products) and batch endpoints sit at hop 0."""
    n_s = g.n_sellers
    adj = {}
    pairs = list(zip(g.offer_seller.tolist(), (g.offer_product + n_s).tolist()))
    for r in Relation.seller_seller():
        pairs += [tuple(e) for e in g.ss_edges(r).tolist()]
    for a, b in pairs:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    seeds = [v for k in offer_ids for v in (g.offer_seller[k], g.offer_product[k] + n_s)]
    return _bfs(adj, seeds, hops)


def pad_isolated(mats, k):
    """Each square adjacency matrix with ``k`` isolated nodes appended:
    empty rows and columns with the ids after the last node's."""
    return [sp.csr_matrix((m.data, m.indices,
                           np.append(m.indptr, np.full(k, m.nnz, dtype=m.indptr.dtype))),
                          shape=(m.shape[0] + k, m.shape[1] + k)) for m in mats]


def relation_bfs_oracle(mats, seeds, hops):
    """Reference BFS over the entries of a list of adjacency matrices, with
    the ``seeds`` at hop 0."""
    adj = {}
    for m in mats:
        coo = m.tocoo()
        for a, b in zip(coo.row.tolist(), coo.col.tolist()):
            adj.setdefault(a, set()).add(b)
    return _bfs(adj, seeds, hops)


class ReferenceBlock(NamedTuple):
    """One relation's messages into one layer: ``adj @ h[cols]``, added at ``rows``."""

    relation: int
    rows: np.ndarray  # ascending layer outputs with at least one message of the relation
    cols: np.ndarray  # ascending rows of the layer input that the relation reads
    adj: sp.csr_matrix  # (len(rows), len(cols)): normalized rows, columns renumbered


class ReferenceLayer(NamedTuple):
    keep: np.ndarray
    n_in: int
    blocks: tuple


def reference_message_flow_plan(mats, nodes, hop, layers):
    """The message-flow plan built one relation at a time from a list of
    per-relation matrices, with scipy's row indexing for the gather and
    each relation's columns renumbered to the layer-input rows it reads:
    the blocks that the parts of ``sampling.ego_network``'s plan must hold."""
    local = np.full(mats[0].shape[0], -1, dtype=np.int64)
    local[nodes] = np.arange(nodes.shape[0])
    inside = hop <= layers
    plan = []
    for k in range(layers):
        out = hop <= layers - 1 - k
        rank = np.cumsum(inside) - 1
        n_in = int(np.count_nonzero(inside))
        rows = nodes[out]
        blocks = []
        for r, m in enumerate(mats):
            sub = m[rows]
            if sub.nnz == 0:
                continue
            col = rank[local[sub.indices]]
            used = np.zeros(n_in, dtype=bool)
            used[col] = True
            cols = np.flatnonzero(used)
            renum = np.cumsum(used) - 1
            wrote = np.flatnonzero(np.diff(sub.indptr))
            adj = sp.csr_matrix((sub.data, renum[col], np.append(sub.indptr[wrote], sub.nnz)),
                                shape=(wrote.shape[0], cols.shape[0]))
            blocks.append(ReferenceBlock(r, wrote, cols, adj))
        plan.append(ReferenceLayer(rank[out], n_in, tuple(blocks)))
        inside = out
    return tuple(plan)


def as_csr_matrix(adj) -> sp.csr_matrix:
    """A plan part's matrix (a ``sampling.Csr`` of plain arrays) as a scipy
    CSR matrix over the same arrays, to slice and compare with."""
    return sp.csr_matrix((adj.data, adj.indices, adj.indptr), shape=adj.shape)


def assert_plan_holds_reference(plan, reference):
    """``plan`` (an ``EgoNetwork.plan``) holds the reference's
    blocks in the same order: each block's ``rows`` are the reference's,
    and rows ``lo:hi`` of its part, restricted to the reference's columns,
    are the reference's matrix array for array, with no entry in any other
    column.  Each part has at most ``n_in`` rows, tiled by its blocks."""
    assert len(plan) == len(reference)
    for layer, ref in zip(plan, reference):
        np.testing.assert_array_equal(layer.keep, ref.keep)
        got = [(part, b) for part in layer.parts for b in part.blocks]
        assert [b.relation for _, b in got] == [b.relation for b in ref.blocks]
        assert sum(part.adj.nnz for part in layer.parts) == sum(b.adj.nnz for b in ref.blocks)
        for part in layer.parts:
            assert part.adj.shape[0] <= ref.n_in and part.adj.shape[1] == ref.n_in
            ends = [0] + [b.hi for b in part.blocks]
            assert [b.lo for b in part.blocks] == ends[:-1]
            assert ends[-1] == part.adj.shape[0]
            assert all(b.hi - b.lo == b.rows.shape[0] for b in part.blocks)
        for (part, b), want in zip(got, ref.blocks):
            np.testing.assert_array_equal(b.rows, want.rows)
            sub = as_csr_matrix(part.adj)[b.lo:b.hi]
            assert np.array_equal(sub.indptr, want.adj.indptr)
            assert np.array_equal(sub.data, want.adj.data)
            assert np.array_equal(sub.indices, want.cols[want.adj.indices])


def _owner_sums(inc: sp.csr_matrix, owners: np.ndarray, feats: np.ndarray) -> np.ndarray:
    """``inc[owners] @ feats`` in float64, reading only the feature rows
    that the owners' entries touch.

    The owners' rows of the incidence are gathered into one CSR whose
    column j is the j-th touched entry, next to those entries' feature
    rows cast to float64; every sum adds the same terms in the same order
    as the indexed product over the whole float64 table."""
    indptr, take = _row_entries(inc, owners)
    rows = sp.csr_matrix((inc.data[take], np.arange(take.shape[0]), indptr),
                         shape=(owners.shape[0], take.shape[0]))
    return rows @ feats[inc.indices[take]].astype(np.float64)


def reference_sibling_offer_summaries(g: HeteroGraph, offer_ids: np.ndarray) -> tuple:
    """Mean feature rows of same-seller and same-product sibling offers, as
    ``models.sibling_offer_summaries`` computed them before it read the
    graph's cached per-owner sums: each call sums its distinct owners'
    offers afresh (:func:`_owner_sums`), so it sees no cache at all.

    The target offer is excluded from both means; an offer with no sibling
    on one side gets a zero vector there.  Raises ValueError for an offer
    id outside ``[0, n_offers)``.
    """
    feats = g.offer_features
    offer_ids = np.asarray(offer_ids, dtype=np.int64)
    if offer_ids.size and (offer_ids.min() < 0 or offer_ids.max() >= g.n_offers):
        raise ValueError(f"offer ids must lie in [0, {g.n_offers})")

    out = []
    for node_type, owner in zip(NodeType, (g.offer_seller, g.offer_product)):
        inc = g.offers_of(node_type)
        own = owner[offer_ids]
        k = inc.indptr[own + 1] - inc.indptr[own]
        mean = np.zeros((offer_ids.shape[0], feats.shape[1]), dtype=np.float64)
        has = k > 1
        owners, which = np.unique(own[has], return_inverse=True)
        sums = _owner_sums(inc, owners, feats)[which]
        mean[has] = (sums - feats[offer_ids[has]].astype(np.float64)) / (k[has] - 1)[:, None]
        out.append(mean.astype(feats.dtype, copy=False))
    return out[0], out[1]


def reference_train_mlp_heads(table, labels, tc, hidden=64):
    """``models.train_mlp_heads`` as it trained before heads were stacked:
    head ``k`` alone, one ``fit`` over scalar losses per head, drawing its
    parameters and then one permutation per epoch from
    ``default_rng([tc.seed, k])``.  A non-finite loss names its head."""
    if labels.ndim != 2 or labels.shape[0] != table.shape[0]:
        raise ValueError("labels must align with table rows")
    m = table.shape[0]
    labels = labels.astype(np.float32)
    heads, history = [], []
    for k in range(labels.shape[1]):
        rng = np.random.default_rng([tc.seed, k])
        params = init_mlp_head(rng, table.shape[1], hidden)

        def loss_fn(idx):
            return bce_loss(mlp_head_forward(Tensor(table[idx]), params), labels[idx, k:k + 1])

        try:
            history.append(fit(params, lambda: _epoch_batches(m, tc.batch_size, rng), loss_fn, tc))
        except TrainingDiverged as exc:
            raise TrainingDiverged(exc.loss, exc.epoch, exc.batch, k) from None
        heads.append(params)
    return heads, history


def reference_sample_ss_edges(cfg: GeneratorConfig, comm: np.ndarray, rng) -> list:
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


def reference_sample_offers(cfg: GeneratorConfig, seller_comm, product_comm, rng):
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


def assert_same_graph(g, h):
    for name in ("seller_features", "product_features", "offer_features",
                 "offer_seller", "offer_product"):
        a, b = getattr(g, name), getattr(h, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes() and a.shape == b.shape, name
    for r in Relation.seller_seller():
        np.testing.assert_array_equal(g.ss_edges(r), h.ss_edges(r))
    if g.labels is None:
        assert h.labels is None
    else:
        np.testing.assert_array_equal(g.labels, h.labels)
    for r in Relation:
        a, b = g.unified_csr(r), h.unified_csr(r)
        for part in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(a, part), getattr(b, part))


def set_fbin_cell(bundle, name, row, col, value):
    """Write ``value`` at ``(row, col)`` of the bundle's feature file
    ``name`` and update its checksum in ``meta.json``, so only the value
    itself is wrong."""
    path, meta_path = Path(bundle) / name, Path(bundle) / "meta.json"
    raw = bytearray(path.read_bytes())
    (cols,) = struct.unpack_from("<I", raw, 8)  # header: magic, rows, cols, pad
    struct.pack_into("<f", raw, 16 + 4 * (row * cols + col), value)
    path.write_bytes(raw)
    meta = json.loads(meta_path.read_text())
    meta["checksums"][name] = zlib.crc32(raw)
    meta_path.write_text(json.dumps(meta))


def fail_nth_replace(monkeypatch, n):
    """Make the ``n``-th ``os.replace`` call from now on raise ``OSError``
    (``n = 0``: none does); returns the destinations the calls asked for."""
    calls, real = [], os.replace

    def replace(src, dst):
        calls.append(dst)
        if len(calls) == n:
            raise OSError(f"injected failure replacing {dst}")
        real(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    return calls


def traced_peak(fn) -> int:
    """The tracemalloc peak of one call of ``fn``, in bytes above the memory
    traced when the call starts."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def matmul(x, w):
    """Taped ``x @ w`` of two matrices."""
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ValueError(f"matmul shape mismatch: {x.shape} @ {w.shape}")
    return record(Tensor(x.data @ w.data), (x, w), lambda g, needs: (
        g @ w.data.T if needs[0] else None, x.data.T @ g if needs[1] else None))


def mul(a, b):
    """Taped elementwise product of two same-shape tensors."""
    if a.shape != b.shape:
        raise ValueError(f"mul shape mismatch: {a.shape} vs {b.shape}")
    return record(Tensor(a.data * b.data), (a, b), lambda g, needs: (
        g * b.data if needs[0] else None, g * a.data if needs[1] else None))


def sum_all(x):
    """Taped scalar sum of every element."""
    return record(Tensor(np.asarray(x.data.sum(), dtype=x.dtype)), (x,), lambda g, needs: (
        np.full(x.shape, g.item(), dtype=g.dtype) if needs[0] else None,))


def stack_rows(parts):
    """Taped row-wise concatenation of matrices with equal column counts."""
    if not parts or any(p.ndim != 2 for p in parts) or len({p.shape[1] for p in parts}) != 1:
        raise ValueError(f"stack_rows needs rank-2 parts of one width, got "
                         f"{[p.shape for p in parts]}")
    ends = np.cumsum([0] + [p.shape[0] for p in parts])
    return record(Tensor(np.concatenate([p.data for p in parts], axis=0)), tuple(parts),
                  lambda g, needs: tuple(g[lo:hi] if need else None
                                         for lo, hi, need in zip(ends[:-1], ends[1:], needs)))
