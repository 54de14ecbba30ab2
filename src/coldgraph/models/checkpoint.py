"""Binary checkpoint format for trained parameters.

Layout, all integers little-endian:

- magic ``CGCK``
- u32 format version
- 32-byte SHA-256 of the canonical descriptor JSON (kind + architecture
  config); guards against loading weights into a different architecture
- u32 manifest byte length, then the manifest JSON: the descriptor plus a
  tensor list (group index, name, shape) in payload order
- the payload: every tensor as row-major little-endian float32
- u32 CRC32 over all preceding bytes

Loading verifies magic, version, CRC, hash, group count and payload size,
and refuses anything inconsistent.  A round trip is bitwise lossless because
parameters are stored as float32 in memory as well.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from ..autodiff import Tensor
from ..records import Record
from ..storage import write_artifact

__all__ = ["CheckpointError", "save_checkpoint", "load_checkpoint"]

CHECKPOINT_VERSION = 1
_MAGIC = b"CGCK"


class CheckpointError(ValueError):
    pass


@dataclass(frozen=True)
class Descriptor(Record):
    kind: str
    config: Any  # the architecture; each model kind decodes its own
    n_groups: int


@dataclass(frozen=True)
class TensorEntry(Record):
    group: int
    name: str
    shape: tuple[int, ...]

    def __post_init__(self):
        if any(d < 0 for d in self.shape):
            raise ValueError(f"negative dimension in shape {list(self.shape)}")


@dataclass(frozen=True)
class Manifest(Record):
    """The manifest JSON: the descriptor, then each tensor in payload order."""
    descriptor: Descriptor
    tensors: tuple[TensorEntry, ...]


def _descriptor_bytes(descriptor: dict) -> bytes:
    return json.dumps(descriptor, sort_keys=True, separators=(",", ":")).encode()


def config_hash(descriptor: dict) -> bytes:
    return hashlib.sha256(_descriptor_bytes(descriptor)).digest()


def save_checkpoint(path, kind: str, config: dict, param_groups: list) -> None:
    """Write parameter groups (list of name->Tensor dicts) to ``path``."""
    descriptor = {"kind": kind, "config": config, "n_groups": len(param_groups)}
    tensors = []
    payload = bytearray()
    for gi, group in enumerate(param_groups):
        for name, p in group.items():
            data = p.data if isinstance(p, Tensor) else np.asarray(p)
            arr = np.ascontiguousarray(data, dtype="<f4")
            tensors.append({"group": gi, "name": name, "shape": list(arr.shape)})
            payload += arr.tobytes()
    manifest = _descriptor_bytes({"descriptor": descriptor, "tensors": tensors})

    blob = bytearray()
    blob += _MAGIC
    blob += struct.pack("<I", CHECKPOINT_VERSION)
    blob += config_hash(descriptor)
    blob += struct.pack("<I", len(manifest))
    blob += manifest
    blob += payload
    blob += struct.pack("<I", zlib.crc32(bytes(blob)) & 0xFFFFFFFF)
    write_artifact(path, blob)


def load_checkpoint(path) -> tuple:
    """Read a checkpoint; returns (kind, config, param_groups).

    Parameter groups come back as dicts of trainable :class:`Tensor`.
    """
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read {path}: {exc}") from exc
    head = 4 + 4 + 32 + 4
    if len(raw) < head + 4:
        raise CheckpointError("checkpoint truncated")
    if raw[:4] != _MAGIC:
        raise CheckpointError(f"bad magic {raw[:4]!r}")
    (version,) = struct.unpack_from("<I", raw, 4)
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    (crc_stored,) = struct.unpack_from("<I", raw, len(raw) - 4)
    crc_actual = zlib.crc32(raw[:-4]) & 0xFFFFFFFF
    if crc_stored != crc_actual:
        raise CheckpointError("checksum mismatch, checkpoint is corrupted")

    stored_hash = raw[8:40]
    (manifest_len,) = struct.unpack_from("<I", raw, 40)
    manifest_end = head + manifest_len
    if manifest_end > len(raw) - 4:
        raise CheckpointError("manifest extends past end of file")
    try:
        blob = json.loads(raw[head:manifest_end].decode())
        manifest = Manifest.from_dict(blob)
    except ValueError as exc:  # also invalid JSON or UTF-8
        raise CheckpointError(f"malformed manifest: {exc}") from exc
    if config_hash(blob["descriptor"]) != stored_hash:
        raise CheckpointError("descriptor does not match its stored hash")

    descriptor = manifest.descriptor
    if not 0 <= descriptor.n_groups <= len(manifest.tensors):
        raise CheckpointError(f"manifest n_groups {descriptor.n_groups} is outside "
                              f"[0, {len(manifest.tensors)}], the tensor count")
    groups: list = [dict() for _ in range(descriptor.n_groups)]
    offset = manifest_end
    for spec in manifest.tensors:
        nbytes = 4 * math.prod(spec.shape)
        if offset + nbytes > len(raw) - 4:
            raise CheckpointError(f"payload truncated at tensor {spec.name!r}")
        arr = np.frombuffer(raw, dtype="<f4", count=nbytes // 4, offset=offset)
        if not 0 <= spec.group < len(groups):
            raise CheckpointError(f"tensor {spec.name!r} references unknown group {spec.group}")
        groups[spec.group][spec.name] = Tensor(
            arr.reshape(spec.shape).astype(np.float32, copy=True), requires_grad=True)
        offset += nbytes
    if offset != len(raw) - 4:
        raise CheckpointError("payload has trailing bytes")
    return descriptor.kind, descriptor.config, groups
