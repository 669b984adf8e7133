"""Binary embedding file shared by extracted features and external vectors.

Layout (all integers little-endian):
    bytes 0..6    magic "SYNEMB1"
    u32           dim
    u32           count
    count times   u32 id length, then that many UTF-8 bytes
    count * dim   float32 row-major matrix

External producers (e.g. foundation-model activations pooled elsewhere) can
emit this format and probe against a generated manifest without touching the
rest of the pipeline.
"""

from __future__ import annotations

import struct
from collections import Counter
from pathlib import Path

import numpy as np

from .datasets import write_atomic

MAGIC = b"SYNEMB1"
CHECK_BLOCK_BYTES = 1 << 18  # the non-finite row check's mask, one block of rows at a time


class EmbeddingFormatError(ValueError):
    pass


def _header(ids: list[str], matrix: np.ndarray) -> tuple[bytes, np.ndarray]:
    """The SYNEMB1 bytes before the payload (magic, dim, count, id table), and
    the payload: `matrix` as contiguous little-endian float32, not copied when
    it already is."""
    matrix = np.ascontiguousarray(matrix, dtype="<f4")
    if matrix.ndim != 2 or matrix.shape[0] != len(ids):
        raise ValueError(f"matrix shape {matrix.shape} does not match {len(ids)} ids")
    if matrix.shape[1] == 0:
        raise ValueError("matrix has no columns; SYNEMB1 needs dim >= 1")
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate sample ids")
    parts = [MAGIC, struct.pack("<II", matrix.shape[1], matrix.shape[0])]
    for sid in ids:
        encoded = sid.encode("utf-8")
        parts.append(struct.pack("<I", len(encoded)))
        parts.append(encoded)
    return b"".join(parts), matrix


def write_embeddings(ids: list[str], matrix: np.ndarray) -> bytes:
    return b"".join(_header(ids, matrix))


def read_embeddings(data: bytes) -> tuple[list[str], np.ndarray]:
    if data[: len(MAGIC)] != MAGIC:
        raise EmbeddingFormatError(f"bad magic at offset 0: {data[:7]!r}")
    pos = len(MAGIC)
    if len(data) < pos + 8:
        raise EmbeddingFormatError(f"truncated header at offset {len(data)}")
    dim, count = struct.unpack_from("<II", data, pos)
    if dim == 0:
        raise EmbeddingFormatError(f"dim 0 at offset {pos}")
    pos += 8
    ids = []
    for _ in range(count):
        if len(data) < pos + 4:
            raise EmbeddingFormatError(f"truncated id table at offset {pos}")
        (id_len,) = struct.unpack_from("<I", data, pos)
        pos += 4
        if len(data) < pos + id_len:
            raise EmbeddingFormatError(f"truncated id at offset {pos}")
        try:
            ids.append(data[pos : pos + id_len].decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise EmbeddingFormatError(f"id at offset {pos} is not UTF-8: {exc.reason}") from None
        pos += id_len
    if len(set(ids)) != len(ids):
        dupes = sorted(i for i, n in Counter(ids).items() if n > 1)[:10]
        raise EmbeddingFormatError(f"duplicate ids: {dupes}")
    payload = count * dim * 4
    if len(data) < pos + payload:
        raise EmbeddingFormatError(
            f"truncated payload at offset {pos}: need {payload} bytes, have {len(data) - pos}"
        )
    if len(data) > pos + payload:
        raise EmbeddingFormatError(
            f"{len(data) - pos - payload} trailing bytes at offset {pos + payload}"
        )
    matrix = np.frombuffer(data, dtype="<f4", count=count * dim, offset=pos).reshape(count, dim)
    return ids, matrix


def write_embeddings_file(path, ids, matrix):
    """The bytes of `write_embeddings`, with the matrix's own buffer written
    straight after the header: no copy of the payload."""
    write_atomic(path, *_header(ids, matrix))


def read_embeddings_file(path) -> tuple[list[str], np.ndarray]:
    return read_embeddings(Path(path).read_bytes())


def ingest_embeddings(ids: list[str], matrix: np.ndarray, records: list[dict]) -> np.ndarray:
    """Rows reordered to manifest order after a strict 1:1 id join; rejects non-finite rows."""
    row_of = {sid: i for i, sid in enumerate(ids)}
    manifest_ids = [r["id"] for r in records]
    missing = [i for i in manifest_ids if i not in row_of]
    known = set(manifest_ids)
    extra = [i for i in ids if i not in known]
    if missing or extra:
        raise EmbeddingFormatError(
            f"embedding ids do not join the manifest 1:1; "
            f"missing {len(missing)} (first {missing[:10]}), extra {len(extra)} (first {extra[:10]})"
        )
    x = matrix[[row_of[i] for i in manifest_ids]]
    # checked in blocks of rows, so the mask stays one block, not one matrix
    block = max(1, CHECK_BLOCK_BYTES // x.shape[1])
    bad = [
        start + i
        for start in range(0, len(x), block)
        for i in np.flatnonzero(~np.isfinite(x[start : start + block]).all(axis=1))
    ]
    if bad:
        raise EmbeddingFormatError(
            f"non-finite values in {len(bad)} rows (first {[manifest_ids[i] for i in bad[:10]]})"
        )
    return x
