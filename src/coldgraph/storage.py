"""On-disk graph bundle format.

A bundle is a directory:

- ``meta.json``: counts, dims, relation/class/column names, format
  version, and a CRC32 per data file
- ``sellers.fbin`` / ``products.fbin`` / ``offers.fbin``: feature
  matrices; 16-byte header (magic ``CGFM``, u32 row count, u32 column
  count, 4 zero pad bytes) followed by row-major little-endian float32
- ``edges.csv``: one row per edge, ``relation_id,src_type,src_idx,dst_type,dst_idx``;
  offer rows appear in offer-index order so they align with ``offers.fbin``
- ``labels.csv``: present iff the graph is labeled; ``offer_idx`` plus one
  binary column per class

Loading verifies the magic, version, checksums and cross-file consistency
and never returns a partially constructed graph.
"""

from __future__ import annotations

import csv
import json
import struct
import zlib
from pathlib import Path
from typing import Optional

import numpy as np

from .graph import CLASS_NAMES, N_CLASSES, N_RELATIONS, HeteroGraph, Relation

__all__ = [
    "GraphFormatError",
    "save_graph",
    "load_graph",
    "GRAPH_FORMAT_VERSION",
    "default_column_names",
]

GRAPH_FORMAT_VERSION = 1
_FBIN_MAGIC = b"CGFM"
_FBIN_HEADER = struct.Struct("<4sII4x")

_NODE_TYPE_TOKENS = {"seller": 0, "product": 1}


class GraphFormatError(ValueError):
    """Raised for any malformed, truncated, or inconsistent bundle."""


def default_column_names(d_s: int, d_p: int, d_o: int) -> dict:
    """Column naming used when a graph has no real schema.

    Offer column 0 is the list price and product column 0 the product
    category; those are the columns cold-start masking retains.
    """
    return {
        "seller": [f"seller_f{i}" for i in range(d_s)],
        "product": ["product_category"] + [f"product_f{i}" for i in range(1, d_p)],
        "offer": ["list_price"] + [f"offer_f{i}" for i in range(1, d_o)],
    }


def _write_fbin(path: Path, matrix: np.ndarray) -> None:
    matrix = np.ascontiguousarray(matrix, dtype="<f4")
    rows, cols = matrix.shape
    with open(path, "wb") as fh:
        fh.write(_FBIN_HEADER.pack(_FBIN_MAGIC, rows, cols))
        fh.write(matrix.tobytes())


def _read_fbin(path: Path) -> np.ndarray:
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise GraphFormatError(f"cannot read {path}: {exc}") from exc
    if len(raw) < _FBIN_HEADER.size:
        raise GraphFormatError(f"{path.name}: truncated header")
    magic, rows, cols = _FBIN_HEADER.unpack_from(raw)
    if magic != _FBIN_MAGIC:
        raise GraphFormatError(f"{path.name}: bad magic {magic!r}")
    want = _FBIN_HEADER.size + 4 * rows * cols
    if len(raw) != want:
        raise GraphFormatError(
            f"{path.name}: expected {want} bytes for {rows}x{cols}, found {len(raw)}"
        )
    flat = np.frombuffer(raw, dtype="<f4", offset=_FBIN_HEADER.size)
    return flat.reshape(rows, cols).astype(np.float32, copy=True)


def _crc32(path: Path) -> int:
    return zlib.crc32(path.read_bytes()) & 0xFFFFFFFF


def save_graph(g: HeteroGraph, path) -> None:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)

    _write_fbin(out / "sellers.fbin", g.seller_features)
    _write_fbin(out / "products.fbin", g.product_features)
    _write_fbin(out / "offers.fbin", g.offer_features)

    with open(out / "edges.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["relation_id", "src_type", "src_idx", "dst_type", "dst_idx"])
        for r in Relation.seller_seller():
            for a, b in g.ss_edges(r).tolist():
                w.writerow([int(r), "seller", a, "seller", b])
        for s, p in zip(g.offer_seller.tolist(), g.offer_product.tolist()):
            w.writerow([int(Relation.OFFER), "seller", s, "product", p])

    if g.labels is not None:
        with open(out / "labels.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["offer_idx"] + list(CLASS_NAMES))
            for k in range(g.n_offers):
                w.writerow([k] + [int(v) for v in g.labels[k]])

    files = ["sellers.fbin", "products.fbin", "offers.fbin", "edges.csv"]
    if g.labels is not None:
        files.append("labels.csv")
    meta = {
        "format_version": GRAPH_FORMAT_VERSION,
        "n_sellers": g.n_sellers,
        "n_products": g.n_products,
        "n_offers": g.n_offers,
        "dims": {"seller": g.d_s, "product": g.d_p, "offer": g.d_o},
        "relation_names": [r.name.lower() for r in Relation],
        "class_names": list(CLASS_NAMES),
        "column_names": default_column_names(g.d_s, g.d_p, g.d_o),
        "labeled": g.labels is not None,
        "checksums": {name: _crc32(out / name) for name in files},
    }
    with open(out / "meta.json", "w") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_graph(path) -> HeteroGraph:
    src = Path(path)
    meta_path = src / "meta.json"
    if not meta_path.is_file():
        raise GraphFormatError(f"{src}: missing meta.json")
    try:
        meta = json.loads(meta_path.read_text())
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"{meta_path}: invalid JSON: {exc}") from exc

    version = meta.get("format_version")
    if version != GRAPH_FORMAT_VERSION:
        raise GraphFormatError(
            f"unsupported format_version {version!r}, expected {GRAPH_FORMAT_VERSION}"
        )
    for name, crc in meta.get("checksums", {}).items():
        fp = src / name
        if not fp.is_file():
            raise GraphFormatError(f"{src}: missing data file {name}")
        actual = _crc32(fp)
        if actual != crc:
            raise GraphFormatError(
                f"{name}: checksum mismatch (meta {crc}, file {actual})"
            )

    sellers = _read_fbin(src / "sellers.fbin")
    products = _read_fbin(src / "products.fbin")
    offers = _read_fbin(src / "offers.fbin")
    for matrix, key, want in (
        (sellers, "n_sellers", meta.get("n_sellers")),
        (products, "n_products", meta.get("n_products")),
        (offers, "n_offers", meta.get("n_offers")),
    ):
        if matrix.shape[0] != want:
            raise GraphFormatError(
                f"meta {key}={want} but feature file holds {matrix.shape[0]} rows"
            )

    ss_edges: list = [[] for _ in range(N_RELATIONS - 1)]
    offer_seller: list = []
    offer_product: list = []
    edges_path = src / "edges.csv"
    if not edges_path.is_file():
        raise GraphFormatError(f"{src}: missing edges.csv")
    with open(edges_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["relation_id", "src_type", "src_idx", "dst_type", "dst_idx"]:
            raise GraphFormatError(f"edges.csv: unexpected header {header}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 5:
                raise GraphFormatError(f"edges.csv line {lineno}: expected 5 fields")
            try:
                rel = int(row[0])
                src_idx = int(row[2])
                dst_idx = int(row[4])
            except ValueError as exc:
                raise GraphFormatError(f"edges.csv line {lineno}: {exc}") from exc
            if row[1] not in _NODE_TYPE_TOKENS or row[3] not in _NODE_TYPE_TOKENS:
                raise GraphFormatError(f"edges.csv line {lineno}: unknown node type")
            if not 0 <= rel < N_RELATIONS:
                raise GraphFormatError(f"edges.csv line {lineno}: unknown relation {rel}")
            if rel == int(Relation.OFFER):
                if row[1] != "seller" or row[3] != "product":
                    raise GraphFormatError(
                        f"edges.csv line {lineno}: offer edges run seller to product"
                    )
                offer_seller.append(src_idx)
                offer_product.append(dst_idx)
            else:
                if row[1] != "seller" or row[3] != "seller":
                    raise GraphFormatError(
                        f"edges.csv line {lineno}: relation {rel} connects sellers"
                    )
                ss_edges[rel].append((src_idx, dst_idx))
    if len(offer_seller) != offers.shape[0]:
        raise GraphFormatError(
            f"edges.csv lists {len(offer_seller)} offers but offers.fbin holds {offers.shape[0]} rows"
        )

    labels: Optional[np.ndarray] = None
    labels_path = src / "labels.csv"
    if meta.get("labeled"):
        if not labels_path.is_file():
            raise GraphFormatError(f"{src}: meta says labeled but labels.csv is missing")
        labels = np.zeros((offers.shape[0], N_CLASSES), dtype=np.uint8)
        seen = np.zeros(offers.shape[0], dtype=bool)
        with open(labels_path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != ["offer_idx"] + list(CLASS_NAMES):
                raise GraphFormatError(f"labels.csv: unexpected header {header}")
            for lineno, row in enumerate(reader, start=2):
                if len(row) != 1 + N_CLASSES:
                    raise GraphFormatError(f"labels.csv line {lineno}: wrong field count")
                try:
                    k = int(row[0])
                    values = [int(v) for v in row[1:]]
                except ValueError as exc:
                    raise GraphFormatError(f"labels.csv line {lineno}: {exc}") from exc
                if not 0 <= k < offers.shape[0]:
                    raise GraphFormatError(f"labels.csv line {lineno}: unknown offer {k}")
                if seen[k]:
                    raise GraphFormatError(f"labels.csv line {lineno}: duplicate offer {k}")
                if not set(values) <= {0, 1}:
                    raise GraphFormatError(
                        f"labels.csv line {lineno}: labels must be 0 or 1, got {row[1:]}"
                    )
                seen[k] = True
                labels[k] = values
        if not seen.all():
            raise GraphFormatError("labels.csv: some offers have no label row")

    try:
        g = HeteroGraph.from_arrays(
            sellers,
            products,
            np.asarray(offer_seller, dtype=np.int64),
            np.asarray(offer_product, dtype=np.int64),
            offers,
            [np.asarray(e, dtype=np.int64).reshape(-1, 2) for e in ss_edges],
            labels=labels,
        )
    except ValueError as exc:
        raise GraphFormatError(f"inconsistent bundle: {exc}") from exc
    return g
