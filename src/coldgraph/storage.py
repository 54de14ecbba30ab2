"""On-disk graph bundle format, and the one way artifacts are written and read.

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

Every artifact the package writes (bundle files, checkpoints, scenarios,
score files, reports and summaries) goes through :func:`write_artifact`,
so each file is replaced whole or not at all: the bytes go to a temporary
file beside the target, are flushed to disk, and ``os.replace`` moves them
into place.  A save that fails leaves every file it had not yet replaced
as it was and removes its temporary file; only a process killed mid-write
can leave a ``.<name>.<pid>.tmp`` file behind.  ``meta.json`` is replaced
last, so a bundle whose save stopped part way has no ``meta.json`` or the
old one, whose checksums reject the new data files beside it.  Saving an
unlabeled graph removes a ``labels.csv`` left by an earlier save, before
``meta.json``.

Loading verifies the magic, version, checksums, cross-file consistency and
finite feature values (through ``HeteroGraph.from_arrays``) and never
returns a partially constructed graph.  The CSV files, and the
score files, are parsed by :func:`read_table` one whole column at a time.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from pathlib import Path
from typing import Callable

import numpy as np

from .graph import CLASS_NAMES, N_CLASSES, N_RELATIONS, HeteroGraph, Relation

__all__ = [
    "GraphFormatError",
    "save_graph",
    "load_graph",
    "default_column_names",
]

GRAPH_FORMAT_VERSION = 1
_FBIN_MAGIC = b"CGFM"
_FBIN_HEADER = struct.Struct("<4sII4x")

_EDGES_HEADER = "relation_id,src_type,src_idx,dst_type,dst_idx"
OFFER_CLASS_HEADER = ",".join(["offer_idx", *CLASS_NAMES])  # labels.csv and score files
_MAX_CELL = 64  # bytes; a wider cell is rejected rather than parsed


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


def write_artifact(path, data) -> None:
    """Replace ``path`` (its directory made if missing) with ``data``, bytes or
    a str written as UTF-8, whole or not at all; a failure removes the temporary file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data.encode() if isinstance(data, str) else data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def format_rows(line: str, rows) -> str:
    """``line % row`` for every row of a 2-D table, in one format call."""
    return (line * len(rows)) % tuple(np.asarray(rows).ravel().tolist())


def seen_before(ids: np.ndarray) -> np.ndarray:
    """True where a value already appeared at an earlier position."""
    return ~np.isin(np.arange(len(ids)), np.unique(ids, return_index=True)[1])


def _integers(chars: np.ndarray, width: np.ndarray) -> tuple:
    """Cells ``-?[0-9]{1,18}`` as int64, and which cells match."""
    neg = chars[:, 0] == ord("-")
    values, ok = np.zeros(len(chars), dtype=np.int64), (width > neg) & (width - neg <= 18)
    for t in range(chars.shape[1]):
        digit, inside = chars[:, t] - np.uint8(ord("0")), (neg <= t) & (t < width)
        ok &= ~inside | (digit <= 9)
        values = np.where(inside, values * 10 + digit, values)
    return np.where(neg, -values, values), ok


def _floats(cells: np.ndarray) -> tuple:
    """Cells as float64 by Python's ``float`` rules, and which parse (bisecting to find out)."""
    try:
        return cells.astype(np.float64), np.ones(len(cells), dtype=bool)
    except ValueError:
        if len(cells) == 1:
            return np.zeros(1), np.zeros(1, dtype=bool)
        halves = _floats(cells[:len(cells) // 2]), _floats(cells[len(cells) // 2:])
        return tuple(np.concatenate(parts) for parts in zip(*halves))


def read_table(data: bytes, header: str, kinds: str, checks: Callable, where: str,
               error=ValueError) -> list:
    """The columns of the CSV table ``data``, whose first line must be ``header``.

    ``kinds`` has a letter per field: ``i`` parses int64 cells, ``f`` float64
    cells, ``s`` keeps bytes.  ``checks(*columns)`` returns ``(bad, message)``
    pairs: a boolean per row and ``message(row)``.  Lines are checked in order,
    each for its field count, its numeric cells from left to right, then each
    pair; the first failure raises ``error(f"{where}{line}: {message}")``.
    """
    text = data if data.endswith(b"\n") else data + b"\n"
    start = text.find(b"\n") + 1
    got = text[:start - 1].rstrip(b"\r").decode(errors="replace").split(",")
    if got != header.split(","):
        raise error(f"{where}1: unexpected header {got}")
    k, buf = len(kinds), np.frombuffer(text + bytes(_MAX_CELL), dtype=np.uint8)
    cuts = start + np.flatnonzero((buf[start:] == ord(",")) | (buf[start:] == ord("\n")))
    right = np.diff(np.flatnonzero(buf[cuts] == ord("\n")), prepend=-1) == k
    n = len(right) if right.all() else int(np.argmin(right))
    ends = cuts[:n * k].reshape(n, k)  # the comma or newline after each cell
    bounds = [np.concatenate(([start - 1], ends[:, -1]))[:n], *ends.T[:-1],
              ends[:, -1] - (buf[ends[:, -1] - 1] == ord("\r"))]
    columns, problems = [], []
    for j, kind in enumerate(kinds):
        lo, width = bounds[j] + 1, bounds[j + 1] - bounds[j] - 1
        w = int(min(width.max(initial=1), _MAX_CELL)) or 1
        chars = np.lib.stride_tricks.sliding_window_view(buf, w)[lo]
        chars[np.arange(w) >= width[:, None]] = 0
        cells = chars.view(f"S{w}")[:, 0]
        if kind != "s":
            cells, ok = (_integers(chars, width) if kind == "i"
                         else _floats(np.where(width <= w, cells, b"-")))
            problems.append((~ok, lambda i, j=j: (
                "invalid literal for int() with base 10: " if kinds[j] == "i"
                else "could not convert string to float: ")
                + repr(text[bounds[j][i] + 1:bounds[j + 1][i]].decode(errors="replace"))))
        columns.append(cells)
    problems += checks(*columns)
    first = min((int(np.argmax(bad)) for bad, _ in problems if bad.any()), default=n)
    if first < len(right):
        raise error(f"{where}{first + 2}: " + next(
            (m(first) for b, m in problems if first < n and b[first]), f"expected {k} fields"))
    return columns


def _fbin(matrix: np.ndarray) -> bytes:
    matrix = np.ascontiguousarray(matrix, dtype="<f4")
    return _FBIN_HEADER.pack(_FBIN_MAGIC, *matrix.shape) + matrix.tobytes()


def _read_fbin(name: str, raw: bytes) -> np.ndarray:
    if len(raw) < _FBIN_HEADER.size:
        raise GraphFormatError(f"{name}: truncated header")
    magic, rows, cols = _FBIN_HEADER.unpack_from(raw)
    if magic != _FBIN_MAGIC:
        raise GraphFormatError(f"{name}: bad magic {magic!r}")
    want = _FBIN_HEADER.size + 4 * rows * cols
    if len(raw) != want:
        raise GraphFormatError(
            f"{name}: expected {want} bytes for {rows}x{cols}, found {len(raw)}"
        )
    flat = np.frombuffer(raw, dtype="<f4", offset=_FBIN_HEADER.size)
    return flat.reshape(rows, cols).astype(np.float32, copy=True)


def save_graph(g: HeteroGraph, path) -> None:
    out = Path(path)
    edges = [_EDGES_HEADER + "\r\n"]
    for r in Relation.seller_seller():
        edges.append(format_rows(f"{int(r)},seller,%d,seller,%d\r\n", g.ss_edges(r)))
    edges.append(format_rows(f"{int(Relation.OFFER)},seller,%d,product,%d\r\n",
                             np.column_stack([g.offer_seller, g.offer_product])))
    data = {"sellers.fbin": _fbin(g.seller_features),
            "products.fbin": _fbin(g.product_features),
            "offers.fbin": _fbin(g.offer_features),
            "edges.csv": "".join(edges).encode()}
    if g.labels is not None:
        table = np.column_stack([np.arange(g.n_offers), g.labels])
        data["labels.csv"] = (OFFER_CLASS_HEADER + "\r\n" + format_rows(
            "%d" + ",%d" * N_CLASSES + "\r\n", table)).encode()
    for name, raw in data.items():
        write_artifact(out / name, raw)
    if g.labels is None:
        # before meta.json, so no stop leaves a meta.json that passes beside
        # the wrong files: the old one now lacks its labels.csv
        (out / "labels.csv").unlink(missing_ok=True)
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
        "checksums": {name: zlib.crc32(raw) for name, raw in data.items()},
    }
    write_artifact(out / "meta.json", json.dumps(meta, indent=1, sort_keys=True) + "\n")


def _edge_checks(rel, src_type, src_idx, dst_type, dst_idx) -> list:
    offer = rel == int(Relation.OFFER)
    return [
        (~np.isin([src_type, dst_type], [b"seller", b"product"]).all(axis=0),
         lambda i: "unknown node type"),
        ((rel < 0) | (rel >= N_RELATIONS), lambda i: f"unknown relation {rel[i]}"),
        ((src_type != b"seller") | (dst_type != np.where(offer, b"product", b"seller")),
         lambda i: "offer edges run seller to product" if offer[i]
         else f"relation {rel[i]} connects sellers"),
    ]


def load_graph(path) -> HeteroGraph:
    src = Path(path)
    meta_path = src / "meta.json"
    if not meta_path.is_file():
        raise GraphFormatError(f"{src}: missing meta.json")
    try:
        meta = json.loads(meta_path.read_bytes())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise GraphFormatError(f"{meta_path}: invalid JSON: {exc}") from exc
    if type(meta) is not dict:
        raise GraphFormatError(f"meta.json: expected an object, got {type(meta).__name__}")
    version = meta.get("format_version")
    if version != GRAPH_FORMAT_VERSION:
        raise GraphFormatError(
            f"unsupported format_version {version!r}, expected {GRAPH_FORMAT_VERSION}"
        )
    want = ["sellers.fbin", "products.fbin", "offers.fbin", "edges.csv"] + (
        ["labels.csv"] if meta.get("labeled") else [])
    checksums = meta.get("checksums")
    if type(checksums) is not dict:
        raise GraphFormatError("meta.json: checksums must be an object")
    for name in sorted(set(want) ^ set(checksums)):
        how = "omits" if name in want else "names a file the bundle does not have:"
        raise GraphFormatError(f"meta.json: checksums {how} {name}")
    raw = {}
    for name in want:
        if type(crc := checksums[name]) is not int:
            raise GraphFormatError(f"meta.json: checksums[{name!r}] must be an integer")
        if not (src / name).is_file():
            raise GraphFormatError(f"{src}: missing data file {name}")
        raw[name] = (src / name).read_bytes()
        if zlib.crc32(raw[name]) != crc:
            raise GraphFormatError(
                f"{name}: checksum mismatch (meta {crc}, file {zlib.crc32(raw[name])})")

    sellers, products, offers = features = [_read_fbin(name, raw.pop(name)) for name in (
        "sellers.fbin", "products.fbin", "offers.fbin")]
    for matrix, key in zip(features, ("n_sellers", "n_products", "n_offers")):
        if matrix.shape[0] != meta.get(key):
            raise GraphFormatError(
                f"meta {key}={meta.get(key)} but feature file holds {matrix.shape[0]} rows"
            )
    n = offers.shape[0]

    rel, _, src_idx, _, dst_idx = read_table(
        raw.pop("edges.csv"), _EDGES_HEADER, "isisi", _edge_checks, "edges.csv line ",
        GraphFormatError)
    offer = rel == int(Relation.OFFER)
    if offer.sum() != n:
        raise GraphFormatError(
            f"edges.csv lists {offer.sum()} offers but offers.fbin holds {n} rows")

    labels = None
    if "labels.csv" in raw:
        ids, *values = read_table(
            raw.pop("labels.csv"), OFFER_CLASS_HEADER, "i" * (1 + N_CLASSES),
            lambda ids, *values: [
                ((ids < 0) | (ids >= n), lambda i: f"unknown offer {ids[i]}"),
                (seen_before(ids), lambda i: f"duplicate offer {ids[i]}"),
                (np.logical_or.reduce([(v < 0) | (v > 1) for v in values]),
                 lambda i: f"labels must be 0 or 1, got {[int(v[i]) for v in values]}"),
            ],
            "labels.csv line ", GraphFormatError)
        if len(ids) != n:
            raise GraphFormatError("labels.csv: some offers have no label row")
        labels = np.zeros((n, N_CLASSES), dtype=np.uint8)
        labels[ids] = np.column_stack(values)

    try:
        return HeteroGraph.from_arrays(
            sellers, products, src_idx[offer], dst_idx[offer], offers,
            [np.column_stack([src_idx[rel == r], dst_idx[rel == r]])
             for r in Relation.seller_seller()],
            labels=labels,
        )
    except ValueError as exc:
        raise GraphFormatError(f"inconsistent bundle: {exc}") from exc
