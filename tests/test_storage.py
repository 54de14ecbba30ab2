import json
import struct
import zlib

import numpy as np
import pytest

from _helpers import make_random_graph
from coldgraph.graph import validate
from coldgraph.storage import (
    GRAPH_FORMAT_VERSION,
    GraphFormatError,
    load_graph,
    save_graph,
)


def test_round_trip_bit_identical(tmp_path):
    g = make_random_graph(seed=1)
    save_graph(g, tmp_path / "bundle")
    g2 = load_graph(tmp_path / "bundle")
    assert validate(g2) is None
    assert g2.seller_features.tobytes() == g.seller_features.tobytes()
    assert g2.product_features.tobytes() == g.product_features.tobytes()
    assert g2.offer_features.tobytes() == g.offer_features.tobytes()
    np.testing.assert_array_equal(g2.offer_seller, g.offer_seller)
    np.testing.assert_array_equal(g2.offer_product, g.offer_product)
    np.testing.assert_array_equal(g2.labels, g.labels)
    for r in range(8):
        np.testing.assert_array_equal(g2.ss_edges(r), g.ss_edges(r))


def test_round_trip_unlabeled(tmp_path):
    g = make_random_graph(seed=2, labeled=False)
    save_graph(g, tmp_path / "b")
    g2 = load_graph(tmp_path / "b")
    assert g2.labels is None
    assert not (tmp_path / "b" / "labels.csv").exists()


def test_meta_contents(tmp_path):
    g = make_random_graph(seed=3)
    save_graph(g, tmp_path / "b")
    meta = json.loads((tmp_path / "b" / "meta.json").read_text())
    assert meta["format_version"] == GRAPH_FORMAT_VERSION
    assert meta["n_offers"] == g.n_offers
    assert len(meta["relation_names"]) == 9
    assert meta["column_names"]["offer"][0] == "list_price"
    assert meta["column_names"]["product"][0] == "product_category"
    assert set(meta["checksums"]) == {
        "sellers.fbin", "products.fbin", "offers.fbin", "edges.csv", "labels.csv"
    }


def test_fbin_header_layout(tmp_path):
    g = make_random_graph(seed=4)
    save_graph(g, tmp_path / "b")
    raw = (tmp_path / "b" / "offers.fbin").read_bytes()
    magic, rows, cols = struct.unpack_from("<4sII", raw)
    assert magic == b"CGFM"
    assert (rows, cols) == (g.n_offers, g.d_o)
    assert raw[12:16] == b"\x00" * 4
    assert len(raw) == 16 + 4 * rows * cols
    payload = np.frombuffer(raw, dtype="<f4", offset=16).reshape(rows, cols)
    np.testing.assert_array_equal(payload, g.offer_features)


def test_truncated_file_rejected(tmp_path):
    g = make_random_graph(seed=5)
    save_graph(g, tmp_path / "b")
    fb = tmp_path / "b" / "sellers.fbin"
    fb.write_bytes(fb.read_bytes()[:-8])
    with pytest.raises(GraphFormatError):
        load_graph(tmp_path / "b")


def test_checksum_mismatch_rejected(tmp_path):
    g = make_random_graph(seed=6)
    save_graph(g, tmp_path / "b")
    fb = tmp_path / "b" / "offers.fbin"
    raw = bytearray(fb.read_bytes())
    raw[-1] ^= 0xFF
    fb.write_bytes(bytes(raw))
    with pytest.raises(GraphFormatError, match="checksum"):
        load_graph(tmp_path / "b")


def test_bad_magic_rejected(tmp_path):
    g = make_random_graph(seed=7)
    save_graph(g, tmp_path / "b")
    fb = tmp_path / "b" / "products.fbin"
    raw = bytearray(fb.read_bytes())
    raw[:4] = b"XXXX"
    fb.write_bytes(bytes(raw))
    meta_path = tmp_path / "b" / "meta.json"
    meta = json.loads(meta_path.read_text())
    import zlib

    meta["checksums"]["products.fbin"] = zlib.crc32(bytes(raw)) & 0xFFFFFFFF
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(GraphFormatError, match="magic"):
        load_graph(tmp_path / "b")


def test_wrong_version_rejected(tmp_path):
    g = make_random_graph(seed=8)
    save_graph(g, tmp_path / "b")
    meta_path = tmp_path / "b" / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta["format_version"] = 99
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(GraphFormatError, match="format_version"):
        load_graph(tmp_path / "b")


def test_count_mismatch_rejected(tmp_path):
    g = make_random_graph(seed=9)
    save_graph(g, tmp_path / "b")
    meta_path = tmp_path / "b" / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta["n_sellers"] += 1
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(GraphFormatError, match="n_sellers"):
        load_graph(tmp_path / "b")


def test_missing_bundle_dir(tmp_path):
    with pytest.raises(GraphFormatError, match="meta.json"):
        load_graph(tmp_path / "nope")


def _rewrite_label_cell(bundle, line: int, column: int, value: str) -> None:
    """Replace one labels.csv cell and re-record its CRC, so only the cell is bad."""
    path = bundle / "labels.csv"
    lines = path.read_text().split("\n")
    cells = lines[line - 1].split(",")
    cells[column] = value
    lines[line - 1] = ",".join(cells)
    path.write_text("\n".join(lines))
    meta_path = bundle / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta["checksums"]["labels.csv"] = zlib.crc32(path.read_bytes()) & 0xFFFFFFFF
    meta_path.write_text(json.dumps(meta))


@pytest.mark.parametrize(
    "line, column, value, message",
    [
        (3, 2, "-1", r"labels\.csv line 3: labels must be 0 or 1"),
        (2, 9, "2", r"labels\.csv line 2: labels must be 0 or 1"),
        (4, 5, "yes", r"labels\.csv line 4: invalid literal"),
        (2, 0, "first", r"labels\.csv line 2: invalid literal"),
    ],
    ids=["negative_label", "label_two", "unparsable_label", "unparsable_offer_id"],
)
def test_malformed_label_cell_rejected(tmp_path, line, column, value, message):
    g = make_random_graph(seed=10)
    save_graph(g, tmp_path / "b")
    _rewrite_label_cell(tmp_path / "b", line, column, value)
    with pytest.raises(GraphFormatError, match=message):
        load_graph(tmp_path / "b")
