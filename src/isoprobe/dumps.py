"""Columnar store for contextual embedding records plus its binary format.

Every record is one (layer, token_id, context_id, vector) tuple: the
activation row a model produced for one token occurrence in one context.
The on-disk form is a packed little-endian stream so reloaded vectors are
bit-exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import InvalidArgumentError

MAGIC = b"ISOEMB1"
VERSION = 1
HEADER_SIZE = len(MAGIC) + 20


def _record_dtype(dim):
    return np.dtype(
        [
            ("layer", "<u4"),
            ("token_id", "<u4"),
            ("context_id", "<u8"),
            ("vector", "<f8", (dim,)),
        ]
    )


@dataclass
class EmbeddingDump:
    """All embedding instances from one model pass, grouped on demand."""

    dim: int
    layers: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.uint32))
    token_ids: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.uint32))
    context_ids: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.uint64))
    vectors: np.ndarray = None

    def __post_init__(self):
        if self.vectors is None:
            self.vectors = np.empty((0, self.dim))
        self.layers = np.asarray(self.layers, dtype=np.uint32)
        self.token_ids = np.asarray(self.token_ids, dtype=np.uint32)
        self.context_ids = np.asarray(self.context_ids, dtype=np.uint64)
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        n = self.layers.size
        if not (self.token_ids.size == self.context_ids.size == len(self.vectors) == n):
            raise InvalidArgumentError("embedding dump columns disagree in length")
        if self.vectors.shape != (n, self.dim):
            raise InvalidArgumentError(
                f"vectors must be ({n}, {self.dim}), got {self.vectors.shape}"
            )

    @property
    def record_count(self):
        return self.layers.size

    def layer_ids(self):
        return sorted(int(v) for v in np.unique(self.layers))

    def layer_matrix(self, layer):
        """Vectors of one layer, in record order."""
        return self.vectors[self.layers == layer]

    def layer_token_ids(self, layer):
        return self.token_ids[self.layers == layer].astype(np.int64)

    def write(self, path):
        path = Path(path)
        n = self.record_count
        recs = np.empty(n, dtype=_record_dtype(self.dim))
        recs["layer"] = self.layers
        recs["token_id"] = self.token_ids
        recs["context_id"] = self.context_ids
        recs["vector"] = self.vectors
        header = (
            MAGIC
            + np.uint32(VERSION).tobytes()
            + np.uint32(len(self.layer_ids())).tobytes()
            + np.uint32(self.dim).tobytes()
            + np.uint64(n).tobytes()
        )
        path.write_bytes(header + recs.tobytes())
        return path

    @classmethod
    def read(cls, path):
        raw = Path(path).read_bytes()
        if raw[: len(MAGIC)] != MAGIC:
            raise InvalidArgumentError(f"{path} is not an embedding dump (bad magic)")
        if len(raw) < HEADER_SIZE:
            raise InvalidArgumentError(
                f"{path}: truncated, {len(raw)} bytes is shorter than the header"
            )
        off = len(MAGIC)
        version = int(np.frombuffer(raw, "<u4", count=1, offset=off)[0])
        if version != VERSION:
            raise InvalidArgumentError(f"{path}: unsupported dump version {version}")
        layer_count = int(np.frombuffer(raw, "<u4", count=1, offset=off + 4)[0])
        dim = int(np.frombuffer(raw, "<u4", count=1, offset=off + 8)[0])
        n = int(np.frombuffer(raw, "<u8", count=1, offset=off + 12)[0])
        if dim < 1:
            raise InvalidArgumentError(f"{path}: header declares dim {dim}; it must be positive")
        body = raw[HEADER_SIZE:]
        try:
            dtype = _record_dtype(dim)
        except ValueError:
            # numpy caps a record at a C int of bytes
            raise InvalidArgumentError(f"{path}: dim {dim} is too large for a record") from None
        if len(body) != n * dtype.itemsize:
            raise InvalidArgumentError(
                f"{path}: payload is {len(body)} bytes, expected {n * dtype.itemsize}"
            )
        recs = np.frombuffer(body, dtype=dtype)
        if not np.all(np.isfinite(recs["vector"])):
            rec, coord = (int(i) for i in np.argwhere(~np.isfinite(recs["vector"]))[0])
            raise InvalidArgumentError(
                f"{path}: layer {recs['layer'][rec]} record {rec} holds "
                f"{recs['vector'][rec, coord]} at coordinate {coord}"
            )
        dump = cls(
            dim=dim,
            layers=recs["layer"].copy(),
            token_ids=recs["token_id"].copy(),
            context_ids=recs["context_id"].copy(),
            vectors=recs["vector"].copy(),
        )
        if len(dump.layer_ids()) != layer_count:
            raise InvalidArgumentError(
                f"{path}: header declares {layer_count} layers, "
                f"payload has {len(dump.layer_ids())}"
            )
        return dump

