"""Hashing bag-of-words encoder with a hand-written backward pass.

A sentence is lowercased, split on whitespace/punctuation, and each
token is FNV-1a-hashed into an embedding-table row. Rows are
mean-pooled, passed through a square projection, and L2-normalized
with a 1e-12 smoothed norm. Parameters and optimizer moments are
stored as float32 (the checkpoint dtype). Forward and backward
passes run in float64 so finite-difference checks hold; the Adam
update itself runs vectorized in float32, which keeps checkpoint round
trips bitwise exact.

A batch touches a small share of the table, so the table gradient is
sparse: the sorted unique rows of the batch and one gradient row each.
Adam updates only the rows that have ever had a gradient. Every other
row has zero moments and a zero gradient, which leaves it bitwise
unchanged under the full-table update, so skipping it changes no byte.

Checkpoint layout (little-endian, version 1):
    magic b"MPCL" | u32 version | u32 hash_bits | u32 dim | u32 adam_step
    | f32 embedding_table | f32 projection
    | f32 m_table | f32 m_projection | f32 v_table | f32 v_projection
    | u32 crc32 of all preceding bytes

beta1/beta2/eps are format constants (0.9, 0.999, 1e-8) and are not
serialized.
"""

from __future__ import annotations

import itertools
import os
import re
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1
_TOKEN_RE = re.compile(r"\w+", re.UNICODE)

CHECKPOINT_MAGIC = b"MPCL"
CHECKPOINT_VERSION = 1

# Row-block size, in values, for gathered temporaries: small enough to
# stay in cache and to keep peak memory flat as batches grow.
_CHUNK_VALUES = 1 << 15


class NonFiniteGradientError(FloatingPointError):
    """A NaN or infinity reached the optimizer."""


class CheckpointError(Exception):
    """Base class for unreadable checkpoint files."""


class CheckpointMagicError(CheckpointError):
    pass


class CheckpointVersionError(CheckpointError):
    pass


class CheckpointChecksumError(CheckpointError):
    pass


def fnv1a_64(data: bytes) -> int:
    h = FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * FNV_PRIME) & _MASK64
    return h


def tokenize(text: str, max_len: int = 64, hash_bits: int = 16) -> list[int]:
    """Map text to at most max_len hashed token ids.

    Ids land in [1, 2**hash_bits); id 0 is reserved for empty text so an
    all-punctuation or empty sentence still encodes to something.
    """
    if max_len < 1:
        raise ValueError(f"max_len must be at least 1, got {max_len}")
    if hash_bits < 1:
        raise ValueError(f"hash_bits must be at least 1, got {hash_bits}")
    words = _TOKEN_RE.findall(text.lower())
    if not words:
        return [0]
    space = (1 << hash_bits) - 1
    return [1 + fnv1a_64(w.encode("utf-8")) % space for w in words[:max_len]]


@dataclass
class ModelParams:
    embedding_table: np.ndarray
    projection: np.ndarray
    hash_bits: int
    dim: int

    def __post_init__(self) -> None:
        rows = 1 << self.hash_bits
        if self.embedding_table.shape != (rows, self.dim):
            raise ValueError(
                f"embedding_table shape {self.embedding_table.shape}, expected {(rows, self.dim)}"
            )
        if self.projection.shape != (self.dim, self.dim):
            raise ValueError(
                f"projection shape {self.projection.shape}, expected {(self.dim, self.dim)}"
            )
        self.embedding_table = np.ascontiguousarray(self.embedding_table, dtype=np.float32)
        self.projection = np.ascontiguousarray(self.projection, dtype=np.float32)


@dataclass
class EncodeCache:
    """Everything needed to replay the forward pass exactly."""

    token_ids: list[list[int]]
    pooled: np.ndarray
    projected: np.ndarray
    raw_norms: np.ndarray
    smooth_norms: np.ndarray


@dataclass
class ParamGrads:
    """Parameter gradients with the table part stored by row.

    rows holds sorted unique table row indices and embedding_table their
    gradients, one row each; every other table row has a zero gradient.
    """

    rows: np.ndarray
    embedding_table: np.ndarray
    projection: np.ndarray


def encode(params: ModelParams, token_id_lists: list[list[int]]) -> tuple[np.ndarray, EncodeCache]:
    """Encode token-id lists to unit-norm rows, returning a replay cache."""
    if len(token_id_lists) == 0:
        raise ValueError("cannot encode an empty batch")
    d = params.dim
    rows = params.embedding_table.shape[0]
    pooled = np.empty((len(token_id_lists), d), dtype=np.float64)
    for b, ids in enumerate(token_id_lists):
        if len(ids) == 0:
            raise ValueError(f"sequence {b} is empty; tokenize maps empty text to [0]")
        idx = np.asarray(ids, dtype=np.intp)
        if idx.min() < 0 or idx.max() >= rows:
            raise ValueError(f"sequence {b} has token ids outside [0, {rows})")
        pooled[b] = params.embedding_table[idx].mean(axis=0, dtype=np.float64)
    projected = pooled @ params.projection.astype(np.float64)
    raw = np.linalg.norm(projected, axis=1)
    smooth = raw + 1e-12
    out = projected / smooth[:, None]
    cache = EncodeCache([list(ids) for ids in token_id_lists], pooled, projected, raw, smooth)
    return out, cache


def encode_backward(params: ModelParams, cache: EncodeCache, grad_output: np.ndarray) -> ParamGrads:
    """Exact parameter gradients for a cached encode call.

    Backpropagates through the smoothed normalization (the same 1e-12
    norm used forward), the projection, the mean pool, and finally
    scatter-adds into the rows the batch touched so repeated tokens
    accumulate. Each row sums its contributions in batch order.
    """
    g = np.asarray(grad_output, dtype=np.float64)
    if g.shape != cache.projected.shape:
        raise ValueError(f"grad_output shape {g.shape}, expected {cache.projected.shape}")
    v = cache.projected
    n = cache.smooth_norms
    raw = cache.raw_norms

    grad_v = g / n[:, None]
    nz = raw > 0.0
    if nz.any():
        coef = (v[nz] * g[nz]).sum(axis=1) / (n[nz] * n[nz] * raw[nz])
        grad_v[nz] -= v[nz] * coef[:, None]

    proj64 = params.projection.astype(np.float64)
    grad_pooled = grad_v @ proj64.T
    grad_proj = cache.pooled.T @ grad_v

    lengths = np.array([len(ids) for ids in cache.token_ids], dtype=np.intp)
    flat_ids = np.fromiter(
        itertools.chain.from_iterable(cache.token_ids), dtype=np.intp, count=int(lengths.sum())
    )
    rows, slot = np.unique(flat_ids, return_inverse=True)
    grad_rows = np.zeros((len(rows), params.dim), dtype=np.float64)
    grad_pooled /= lengths[:, None]  # each token's share of its sequence's gradient
    seq_of_token = np.repeat(np.arange(len(lengths)), lengths)
    # token blocks bound the per-token temporary; in order, so each row
    # still sums its contributions in batch order
    chunk = max(1, _CHUNK_VALUES // params.dim)
    for lo in range(0, len(flat_ids), chunk):
        np.add.at(grad_rows, slot[lo : lo + chunk], grad_pooled[seq_of_token[lo : lo + chunk]])
    return ParamGrads(rows, grad_rows, grad_proj)


@dataclass
class OptimizerState:
    m_table: np.ndarray
    m_projection: np.ndarray
    v_table: np.ndarray
    v_projection: np.ndarray
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    # Per table row: may the moments be nonzero? Not serialized; None
    # means "derive it from m and v".
    touched: np.ndarray | None = field(default=None, repr=False, compare=False)

    @classmethod
    def fresh(cls, params: ModelParams) -> "OptimizerState":
        return cls(
            m_table=np.zeros_like(params.embedding_table),
            m_projection=np.zeros_like(params.projection),
            v_table=np.zeros_like(params.embedding_table),
            v_projection=np.zeros_like(params.projection),
            touched=np.zeros(params.embedding_table.shape[0], dtype=bool),
        )

    def touched_rows(self) -> np.ndarray:
        """The touched-row mask, rebuilt from the moments when unknown.

        Any set bit marks a row, -0.0 included: a step with a zero
        gradient turns a -0.0 moment into +0.0.
        """
        if self.touched is None:
            self.touched = _any_bit_set(self.m_table) | _any_bit_set(self.v_table)
        return self.touched


def _any_bit_set(table: np.ndarray) -> np.ndarray:
    return table.view(np.uint32).any(axis=1)


def _adam_update(p, m, v, g, b1, b2, c2, step_size, eps) -> None:
    """In-place float32 Adam on matching arrays; g is overwritten."""
    # python-float scalars keep the float32 dtype of the arrays
    buf = np.multiply(g, 1.0 - b1)
    m *= b1
    m += buf
    np.square(g, out=g)
    g *= 1.0 - b2
    v *= b2
    v += g
    np.divide(v, c2, out=buf)
    np.sqrt(buf, out=buf)
    buf += eps
    buf /= step_size  # fold the scalar so p -= m / denom
    np.divide(m, buf, out=buf)
    p -= buf


def adam_step(
    params: ModelParams, state: OptimizerState, grads: ParamGrads, lr: float
) -> tuple[ModelParams, OptimizerState]:
    """One in-place Adam update with bias correction.

    Moments and parameters are float32. Only table rows that have ever
    had a gradient are updated: a row with zero moments and a zero
    gradient is left bitwise unchanged by the update, and every op is
    elementwise, so the result equals a full-table update byte for byte.
    """
    if lr <= 0.0:
        raise ValueError(f"learning rate must be positive, got {lr}")
    for name, g in (("embedding_table", grads.embedding_table), ("projection", grads.projection)):
        bad = ~np.isfinite(g)
        if bad.any():
            raise NonFiniteGradientError(
                f"{int(bad.sum())} non-finite entries in the {name} gradient"
            )
    state.step += 1
    t = state.step
    b1, b2, eps = state.beta1, state.beta2, state.eps
    step_size = lr / (1.0 - b1**t)
    c2 = 1.0 - b2**t

    touched = state.touched_rows()
    touched[grads.rows] = True
    rows = np.flatnonzero(touched)
    g = np.zeros((len(rows), params.dim), dtype=np.float32)
    g[np.searchsorted(rows, grads.rows)] = grads.embedding_table
    tables = (params.embedding_table, state.m_table, state.v_table)
    # gathered blocks small enough to stay in cache between the ops
    chunk = max(1, _CHUNK_VALUES // params.dim)
    for lo in range(0, len(rows), chunk):
        block = rows[lo : lo + chunk]
        p, m, v = (np.take(a, block, axis=0) for a in tables)
        _adam_update(p, m, v, g[lo : lo + chunk], b1, b2, c2, step_size, eps)
        for a, part in zip(tables, (p, m, v)):
            a[block] = part

    g = np.array(grads.projection, dtype=np.float32)
    _adam_update(
        params.projection, state.m_projection, state.v_projection, g, b1, b2, c2, step_size, eps
    )
    return params, state


def save_checkpoint(params: ModelParams, state: OptimizerState, path: str) -> None:
    header = CHECKPOINT_MAGIC + struct.pack(
        "<IIII",
        CHECKPOINT_VERSION,
        params.hash_bits,
        params.dim,
        state.step,
    )
    crc = zlib.crc32(header)
    with open(path, "wb") as fh:
        fh.write(header)
        # stream each array; the CRC runs over the same bytes as they go out
        for a in (
            params.embedding_table,
            params.projection,
            state.m_table,
            state.m_projection,
            state.v_table,
            state.v_projection,
        ):
            data = memoryview(np.ascontiguousarray(a, dtype="<f4")).cast("B")
            crc = zlib.crc32(data, crc)
            fh.write(data)
        fh.write(struct.pack("<I", crc & 0xFFFFFFFF))


def load_checkpoint(path: str) -> tuple[ModelParams, OptimizerState]:
    header_size = 4 + struct.calcsize("<IIII")
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointMagicError(f"{path}: bad magic, not a checkpoint file")
        size = os.fstat(fh.fileno()).st_size
        if size < header_size + 4:
            raise CheckpointChecksumError(f"{path}: truncated checkpoint")
        fields = fh.read(header_size - 4)
        version, hash_bits, dim, step = struct.unpack("<IIII", fields)
        if version != CHECKPOINT_VERSION:
            raise CheckpointVersionError(
                f"{path}: format version {version}, expected {CHECKPOINT_VERSION}"
            )
        # A corrupt header can declare any shape: check the size it implies
        # before allocating anything.
        if hash_bits >= 64:
            raise CheckpointChecksumError(f"{path}: declared hash_bits {hash_bits} is out of range")
        table_shape = (1 << hash_bits, dim)
        proj_shape = (dim, dim)
        expected = header_size + 4 * 3 * (table_shape[0] * dim + dim * dim) + 4
        if size != expected:
            raise CheckpointChecksumError(
                f"{path}: size {size} does not match the declared shapes ({expected})"
            )

        # read each array in place; the CRC runs over the same bytes as they come in
        crc = zlib.crc32(magic + fields)
        arrays = []
        for shape in (table_shape, proj_shape) * 3:
            a = np.empty(shape, dtype="<f4")
            data = memoryview(a).cast("B")
            if fh.readinto(data) != len(data):
                raise CheckpointChecksumError(f"{path}: truncated checkpoint")
            crc = zlib.crc32(data, crc)
            arrays.append(a)
        (stored_crc,) = struct.unpack("<I", fh.read(4))
    if crc & 0xFFFFFFFF != stored_crc:
        raise CheckpointChecksumError(f"{path}: checksum mismatch")

    table, proj, m_table, m_proj, v_table, v_proj = arrays
    params = ModelParams(table, proj, hash_bits=hash_bits, dim=dim)
    state = OptimizerState(m_table, m_proj, v_table, v_proj, step=step)
    return params, state
