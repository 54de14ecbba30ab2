import json
import os
import re
import stat
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import assert_same_graph, fail_nth_replace, make_random_graph, set_fbin_cell
from coldgraph.experiment import read_scores_csv, write_scores_csv
from coldgraph.graph import CLASS_NAMES
from coldgraph.storage import (
    GRAPH_FORMAT_VERSION,
    GraphFormatError,
    load_graph,
    read_table,
    save_graph,
    write_artifact,
)


def test_round_trip_bit_identical(tmp_path):
    g = make_random_graph(seed=1)
    save_graph(g, tmp_path / "bundle")
    g2 = load_graph(tmp_path / "bundle")
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


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_nonfinite_feature_rejected(tmp_path, value):
    save_graph(make_random_graph(seed=10), tmp_path / "b")
    set_fbin_cell(tmp_path / "b", "offers.fbin", 4, 2, value)
    want = "non-finite value in offer features at row 4, column 2"
    with pytest.raises(GraphFormatError, match=want):
        load_graph(tmp_path / "b")


def test_missing_bundle_dir(tmp_path):
    with pytest.raises(GraphFormatError, match="meta.json"):
        load_graph(tmp_path / "nope")


def _rewrite_line(bundle, name: str, line: int, edit) -> None:
    """Replace line ``line`` of a bundle file by the lines ``edit(cells)``
    returns and re-record the file's CRC, so only that line is bad."""
    path = bundle / name
    lines = path.read_bytes().decode().split("\r\n")
    lines[line - 1:line] = edit(lines[line - 1].split(","))
    path.write_bytes("\r\n".join(lines).encode())
    meta_path = bundle / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta["checksums"][name] = zlib.crc32(path.read_bytes()) & 0xFFFFFFFF
    meta_path.write_text(json.dumps(meta))


def _cell(column: int, value: str):
    def edit(cells):
        cells[column] = value
        return [",".join(cells)]
    return edit


def _swap_offer_direction(cells):
    assert cells[:2] == ["8", "seller"]
    return [",".join(["8", "product", cells[4], "seller", cells[2]])]


# make_random_graph(seed=10): edges.csv holds relation 0 on lines 2-41,
# relation 3 from line 124 and its 53 offers on lines 275-327
@pytest.mark.parametrize(
    "name, line, edit, message",
    [
        ("labels.csv", 3, _cell(2, "-1"), r"labels\.csv line 3: labels must be 0 or 1"),
        ("labels.csv", 2, _cell(9, "2"), r"labels\.csv line 2: labels must be 0 or 1"),
        ("labels.csv", 4, _cell(5, "yes"), r"labels\.csv line 4: invalid literal"),
        ("labels.csv", 2, _cell(0, "first"), r"labels\.csv line 2: invalid literal"),
        ("edges.csv", 5, lambda c: [",".join(c[:4])], r"edges\.csv line 5: expected 5 fields$"),
        ("edges.csv", 6, _cell(2, "x7"),
         r"edges\.csv line 6: invalid literal for int\(\) with base 10: 'x7'$"),
        ("edges.csv", 7, _cell(3, "buyer"), r"edges\.csv line 7: unknown node type$"),
        ("edges.csv", 8, _cell(0, "9"), r"edges\.csv line 8: unknown relation 9$"),
        ("edges.csv", 276, _swap_offer_direction,
         r"edges\.csv line 276: offer edges run seller to product$"),
        ("edges.csv", 124, _cell(3, "product"),
         r"edges\.csv line 124: relation 3 connects sellers$"),
        ("edges.csv", 100, lambda c: ["", ",".join(c)], r"edges\.csv line 100: expected 5 fields$"),
        ("edges.csv", 9, _cell(4, "#3"),
         r"edges\.csv line 9: invalid literal for int\(\) with base 10: '#3'$"),
        ("edges.csv", 327, lambda c: [],
         r"^edges\.csv lists 52 offers but offers\.fbin holds 53 rows$"),
    ],
    ids=["negative_label", "label_two", "unparsable_label", "unparsable_offer_id",
         "edge_four_fields", "edge_non_integer_index", "edge_unknown_node_type",
         "edge_relation_nine", "edge_offer_product_to_seller", "edge_relation_3_to_product",
         "edge_blank_line", "edge_hash_in_cell", "edge_missing_offer_row"],
)
def test_malformed_label_cell_rejected(tmp_path, name, line, edit, message):
    g = make_random_graph(seed=10)
    save_graph(g, tmp_path / "b")
    _rewrite_line(tmp_path / "b", name, line, edit)
    with pytest.raises(GraphFormatError, match=message):
        load_graph(tmp_path / "b")


def _drop(key):
    return lambda meta: {**meta, "checksums": {
        k: v for k, v in meta["checksums"].items() if k != key}}


@pytest.mark.parametrize("patch, message", [
    (lambda meta: [], r"^meta\.json: expected an object, got list$"),
    (lambda meta: {**meta, "checksums": [1]}, r"^meta\.json: checksums must be an object$"),
    (lambda meta: {**meta, "checksums": {**meta["checksums"], "edges.csv": "1"}},
     r"^meta\.json: checksums\['edges\.csv'\] must be an integer$"),
    (_drop("edges.csv"), r"^meta\.json: checksums omits edges\.csv$"),
    (_drop("labels.csv"), r"^meta\.json: checksums omits labels\.csv$"),
    (lambda meta: {**meta, "checksums": {**meta["checksums"], "notes.txt": 0}},
     r"^meta\.json: checksums names a file the bundle does not have: notes\.txt$"),
], ids=["not_an_object", "checksums_not_an_object", "crc_not_an_int", "omits_edges",
        "omits_labels", "names_unknown_file"])
def test_malformed_meta_rejected(tmp_path, patch, message):
    save_graph(make_random_graph(seed=13), tmp_path / "b")
    meta_path = tmp_path / "b" / "meta.json"
    meta_path.write_text(json.dumps(patch(json.loads(meta_path.read_text()))))
    with pytest.raises(GraphFormatError, match=message):
        load_graph(tmp_path / "b")


# ---------------------------------------------------------------------------
# the table reader: the first bad line is the one named


@pytest.fixture(scope="module")
def tables(tmp_path_factory):
    """A saved bundle's files and a score file, as bytes, plus a scratch directory."""
    out = tmp_path_factory.mktemp("tables")
    save_graph(make_random_graph(seed=10), out / "b")
    rng = np.random.default_rng(0)
    write_scores_csv(out / "s.csv", rng.permutation(40)[:30], rng.random((30, 9)))
    files = {p.name: p.read_bytes() for p in (out / "b").iterdir()}
    files["scores.csv"] = (out / "s.csv").read_bytes()
    return files, out / "work"


def _not_a_value(text: str) -> bool:
    """True for a cell that no column of any table accepts."""
    for parse in (int, float):
        try:
            parse(text)
            return False
        except ValueError:
            pass
    return text not in ("seller", "product")


GARBAGE = st.text(alphabet="01x#-+ .e\"", max_size=4).filter(_not_a_value)


def _load(files, name, data, work):
    """Load ``data`` as file ``name`` of the bundle (CRC re-recorded) or as a score file."""
    work.mkdir(exist_ok=True)
    if name == "scores.csv":
        (work / name).write_bytes(data)
        return read_scores_csv(work / name)
    meta = json.loads(files["meta.json"])
    meta["checksums"][name] = zlib.crc32(data) & 0xFFFFFFFF
    for other, raw in files.items():
        (work / other).write_bytes(raw)
    (work / name).write_bytes(data)
    (work / "meta.json").write_text(json.dumps(meta))
    return load_graph(work)


CELLS = {
    "i": st.integers(-10**18 + 1, 10**18 - 1).map(str)
    | st.integers(0, 999).map(lambda v: f"{v:05d}"),
    "f": st.floats(allow_nan=False, width=64).map(repr) | st.sampled_from(["nan", "-inf", "1e-3"]),
    "s": st.sampled_from(["seller", "product", "x"]),
}


@settings(max_examples=100, deadline=None)
@given(kinds=st.text(alphabet="ifs", min_size=1, max_size=4), data=st.data())
def test_read_table_parses_like_python(kinds, data):
    """Valid tables parse to what a line-by-line split with ``int`` and
    ``float`` gives, whatever the line ends and the last line's newline."""
    rows = data.draw(st.lists(st.tuples(*[CELLS[k] for k in kinds]), max_size=20), label="rows")
    newline = data.draw(st.sampled_from(["\n", "\r\n"]), label="newline")
    header = ",".join(f"c{j}" for j in range(len(kinds)))
    text = newline.join([header] + [",".join(r) for r in rows])
    text += data.draw(st.sampled_from(["", newline]), label="last newline") if rows else newline
    columns = read_table(text.encode(), header, kinds, lambda *c: [], "t:")
    for j, kind in enumerate(kinds):
        want = [r[j] for r in rows]
        if kind == "i":
            assert columns[j].dtype == np.int64 and columns[j].tolist() == [int(v) for v in want]
        elif kind == "f":
            np.testing.assert_array_equal(columns[j], np.array([float(v) for v in want]))
        else:
            assert columns[j].tolist() == [v.encode() for v in want]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_first_corrupted_line_is_named(tables, data):
    """Garbage in one to three cells on distinct lines of ``edges.csv``,
    ``labels.csv`` or a score file: the error names the first of those lines."""
    files, work = tables
    name = data.draw(st.sampled_from(["edges.csv", "labels.csv", "scores.csv"]), label="file")
    newline = "\n" if name == "scores.csv" else "\r\n"
    lines = files[name].decode().split(newline)
    n_lines = len(lines) - 1  # the file ends with a newline
    picks = data.draw(st.lists(st.integers(2, n_lines), min_size=1, max_size=3, unique=True),
                      label="lines")
    for line in picks:
        cells = lines[line - 1].split(",")
        cells[data.draw(st.integers(0, len(cells) - 1), label="column")] = data.draw(
            GARBAGE, label="cell")
        lines[line - 1] = ",".join(cells)
    where = (rf"^{re.escape(str(work / name))}:{min(picks)}: " if name == "scores.csv"
             else rf"^{re.escape(name)} line {min(picks)}: ")
    with pytest.raises(ValueError, match=where):
        _load(files, name, newline.join(lines).encode(), work)


@pytest.mark.parametrize("name, first, second, message", [
    ("edges.csv", (124, 3, "product"), (126, 2, "x"), "relation 3 connects sellers"),
    ("edges.csv", (7, 3, "buyer"), (8, 0, "x"), "unknown node type"),
    ("labels.csv", (3, 4, "2"), (5, 0, "x"), "labels must be 0 or 1"),
    ("labels.csv", (12, 0, "2"), (14, 0, "x"), "duplicate offer 2"),
    ("scores.csv", (2, 9, "1.5"), (4, 0, "x"), "probability 1.5 is not"),
], ids=["edge_direction", "edge_node_type", "label_value", "label_duplicate", "probability"])
def test_a_later_check_on_an_earlier_line_wins(tables, name, first, second, message):
    """Each line runs every check before the next line runs any, so an early
    line failing a late check is named before a later line that fails to parse."""
    files, work = tables
    newline = "\n" if name == "scores.csv" else "\r\n"
    lines = files[name].decode().split(newline)
    for line, column, value in (first, second):
        cells = lines[line - 1].split(",")
        cells[column] = value
        lines[line - 1] = ",".join(cells)
    with pytest.raises(ValueError, match=rf"(line |:){first[0]}: {message}"):
        _load(files, name, newline.join(lines).encode(), work)


# ---------------------------------------------------------------------------
# writes are whole or absent


def _no_temp_files(directory) -> bool:
    return not [f for f in os.listdir(directory) if f.endswith(".tmp")]


def test_write_artifact_replaces_whole_or_not_at_all(tmp_path, monkeypatch):
    path = tmp_path / "a.txt"
    write_artifact(path, "old\n")
    with monkeypatch.context() as m:
        fail_nth_replace(m, 1)
        with pytest.raises(OSError, match="injected"):
            write_artifact(path, b"new, longer content\n")
    assert path.read_bytes() == b"old\n"
    assert os.listdir(tmp_path) == ["a.txt"]
    write_artifact(path, b"new")
    assert path.read_bytes() == b"new"
    umask = os.umask(0)
    os.umask(umask)
    assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask


def test_failed_save_keeps_the_old_bundle_or_is_rejected(tmp_path, monkeypatch):
    old, new = make_random_graph(seed=11), make_random_graph(seed=12, n_sellers=25)
    with monkeypatch.context() as m:
        calls = fail_nth_replace(m, 0)
        save_graph(new, tmp_path / "count")
    # the five data files, then meta.json
    assert [p.name for p in calls] == [
        "sellers.fbin", "products.fbin", "offers.fbin", "edges.csv", "labels.csv", "meta.json"]
    for n in range(1, len(calls) + 1):
        bundle = tmp_path / f"b{n}"
        save_graph(old, bundle)
        with monkeypatch.context() as m:
            fail_nth_replace(m, n)
            with pytest.raises(OSError, match="injected"):
                save_graph(new, bundle)
        assert _no_temp_files(bundle)
        try:
            back = load_graph(bundle)
        except GraphFormatError:
            continue
        assert_same_graph(old, back)
        assert n == 1  # only a save that replaced nothing leaves a loadable bundle


def test_unlabeled_save_removes_the_old_labels(tmp_path, monkeypatch):
    labeled, unlabeled = make_random_graph(seed=1), make_random_graph(seed=2, labeled=False)
    save_graph(labeled, tmp_path / "b")
    save_graph(unlabeled, tmp_path / "b")
    assert sorted(os.listdir(tmp_path / "b")) == [
        "edges.csv", "meta.json", "offers.fbin", "products.fbin", "sellers.fbin"]
    assert_same_graph(unlabeled, load_graph(tmp_path / "b"))
    # the labels go before meta.json: a save stopped there leaves the old
    # meta.json, rejected, and a finished one no stale labels to pass beside
    save_graph(labeled, tmp_path / "c")
    with monkeypatch.context() as m:
        fail_nth_replace(m, 5)
        with pytest.raises(OSError, match="injected"):
            save_graph(unlabeled, tmp_path / "c")
    assert not (tmp_path / "c" / "labels.csv").exists()
    with pytest.raises(GraphFormatError):
        load_graph(tmp_path / "c")


def test_failed_score_write_keeps_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "scores.csv"
    write_scores_csv(path, np.arange(3), np.full((3, len(CLASS_NAMES)), 0.25))
    with monkeypatch.context() as m:
        fail_nth_replace(m, 1)
        with pytest.raises(OSError, match="injected"):
            write_scores_csv(path, np.arange(5), np.full((5, len(CLASS_NAMES)), 0.5))
    ids, scores = read_scores_csv(path)
    np.testing.assert_array_equal(ids, np.arange(3))
    assert (scores == 0.25).all() and scores.shape == (3, len(CLASS_NAMES))
    assert _no_temp_files(tmp_path)
