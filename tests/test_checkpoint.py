import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import make_random_graph
from coldgraph.models import (
    CheckpointError,
    EdgeGnnConfig,
    EdgeGnnModel,
    TrainConfig,
    load_checkpoint,
    save_checkpoint,
    train_edge_gnn,
)


@pytest.fixture(scope="module")
def trained():
    g = make_random_graph(seed=40, n_sellers=12, n_products=6)
    cfg = EdgeGnnConfig(
        d_s=g.d_s, d_p=g.d_p, d_o=g.d_o,
        hidden=8, gnn_layers=2, edge_hidden=6, cls_hidden=7,
    )
    model = train_edge_gnn(g, cfg, TrainConfig(epochs=1, batch_size=8, seed=0))
    return g, cfg, model


def save(tmp_path, cfg, model, name="m.ckpt"):
    path = tmp_path / name
    save_checkpoint(path, "edge_gnn", cfg.to_dict(), model.param_groups)
    return path


def test_round_trip_is_bitwise(tmp_path, trained):
    g, cfg, model = trained
    path = save(tmp_path, cfg, model)
    kind, config, groups = load_checkpoint(path)
    assert kind == "edge_gnn"
    assert config == cfg.to_dict()
    assert len(groups) == len(model.param_groups)
    for orig, back in zip(model.param_groups, groups):
        assert list(orig) == list(back)  # iteration order preserved
        for name in orig:
            assert orig[name].data.dtype == np.float32
            assert orig[name].data.tobytes() == back[name].data.tobytes()


def test_scores_identical_after_reload(tmp_path, trained):
    g, cfg, model = trained
    path = save(tmp_path, cfg, model)
    _, config, groups = load_checkpoint(path)
    reloaded = EdgeGnnModel(cfg=EdgeGnnConfig(**config), param_groups=groups)
    batch = np.arange(min(6, g.n_offers))
    a = model.score(g, batch)
    b = reloaded.score(g, batch)
    assert a.tobytes() == b.tobytes()


def test_save_is_deterministic(tmp_path, trained):
    _, cfg, model = trained
    p1 = save(tmp_path, cfg, model, "a.ckpt")
    p2 = save(tmp_path, cfg, model, "b.ckpt")
    assert p1.read_bytes() == p2.read_bytes()


def test_corrupted_payload_rejected(tmp_path, trained):
    _, cfg, model = trained
    path = save(tmp_path, cfg, model)
    raw = bytearray(path.read_bytes())
    raw[-20] ^= 0xFF  # flip a byte inside the payload
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="checksum"):
        load_checkpoint(path)


@pytest.fixture(scope="module")
def saved(trained, tmp_path_factory):
    """A saved checkpoint's bytes and a scratch directory for altered copies."""
    _, cfg, model = trained
    out = tmp_path_factory.mktemp("flip")
    return save(out, cfg, model).read_bytes(), out


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_any_flipped_byte_is_rejected(saved, data):
    raw, out = saved
    at = data.draw(st.integers(0, len(raw) - 1), label="offset")
    mask = data.draw(st.integers(1, 255), label="xor mask")
    flipped = bytearray(raw)
    flipped[at] ^= mask
    path = out / "flipped.ckpt"
    path.write_bytes(bytes(flipped))
    # every field is covered by the magic, version or CRC32 check, and a
    # CRC32 catches every error confined to one byte
    with pytest.raises(CheckpointError, match=r"\w"):
        load_checkpoint(path)


def test_truncation_rejected(tmp_path, trained):
    _, cfg, model = trained
    path = save(tmp_path, cfg, model)
    raw = path.read_bytes()
    for cut in (0, 3, 10, 50, len(raw) - 5):
        path.write_bytes(raw[:cut])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


def test_bad_magic_rejected(tmp_path, trained):
    _, cfg, model = trained
    path = save(tmp_path, cfg, model)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_unsupported_version_rejected(tmp_path, trained):
    _, cfg, model = trained
    path = save(tmp_path, cfg, model)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<I", raw, 4, 999)
    # keep the CRC consistent so the version check is what fires
    import zlib

    struct.pack_into("<I", raw, len(raw) - 4, zlib.crc32(bytes(raw[:-4])) & 0xFFFFFFFF)
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_architecture_mismatch_detected(tmp_path, trained):
    """Loading weights saved under one architecture into another must fail.

    The descriptor hash is the guard: the caller compares the loaded config
    against what it expects, and tampering with the stored descriptor breaks
    the hash.
    """
    _, cfg, model = trained
    path = save(tmp_path, cfg, model)
    raw = bytearray(path.read_bytes())
    # rewrite "hidden":8 inside the manifest to claim a different width
    idx = bytes(raw).find(b'"hidden":8')
    assert idx > 0
    raw[idx:idx + len(b'"hidden":8')] = b'"hidden":9'
    import zlib

    struct.pack_into("<I", raw, len(raw) - 4, zlib.crc32(bytes(raw[:-4])) & 0xFFFFFFFF)
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="hash"):
        load_checkpoint(path)


def test_missing_file(tmp_path):
    with pytest.raises(CheckpointError, match="cannot read"):
        load_checkpoint(tmp_path / "absent.ckpt")
