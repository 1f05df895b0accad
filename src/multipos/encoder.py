"""Hashing bag-of-words encoder with a hand-written backward pass.

A sentence is lowercased, split on whitespace/punctuation, and each
token is FNV-1a-hashed into an embedding-table row. Rows are
mean-pooled, passed through a square projection, and L2-normalized
with a 1e-12 smoothed norm. Parameters and optimizer moments are
stored as float32 (the checkpoint dtype). Forward and backward
passes run in float64 so finite-difference checks hold; the Adam
update itself runs vectorized in float32, which keeps checkpoint round
trips bitwise exact.

A batch is flattened once into flat token ids plus per-sequence
lengths, and both float64 sums in the hot loop are one ordered
segment sum, _segment_sums: the pool sums each sequence's table rows,
and the table gradient sums each touched row's per-token gradients.
Every segment starts at +0.0 and adds its terms in order, the bytes of
a per-sequence mean(axis=0, dtype=float64) and of np.add.at into
zeros. The sums run as passes that add the j-th term of every segment
that has one, and a few long segments finish with a running sum.
np.add.reduceat is not used: on float64 it sums in another order and
changes the last bits.

A batch touches a small share of the table, so the table gradient is
sparse: the sorted unique rows of the batch and one gradient row each.
Adam updates one prefix of table rows in place, up to the last row
that has a gradient or a moment bit set. A row with zero moments and a
zero gradient is left bitwise unchanged by the update, so the prefix
gives the bytes of a full-table update in any row order; training
stores rows in the order batches first touch them, which keeps the
prefix as short as the rows ever touched.

Checkpoint layout (little-endian, version 1):
    magic b"MPCL" | u32 version | u32 hash_bits | u32 dim | u32 adam_step
    | f32 embedding_table | f32 projection
    | f32 m_table | f32 m_projection | f32 v_table | f32 v_projection
    | u32 crc32 of all preceding bytes
A checkpoint is written to path + ".tmp" and renamed into place.

The Adam constants ADAM_BETA1, ADAM_BETA2 and ADAM_EPS (0.9, 0.999,
1e-8) are part of the format and are not serialized.
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
# the largest table a config or a checkpoint may declare: 2**24 rows
MAX_HASH_BITS = 24

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

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
    """Everything needed to replay the forward pass exactly.

    flat_ids holds every sequence's ids end to end and lengths the id
    count of each sequence.
    """

    flat_ids: np.ndarray
    lengths: np.ndarray
    pooled: np.ndarray
    projected: np.ndarray
    raw_norms: np.ndarray
    smooth_norms: np.ndarray

    @property
    def token_ids(self) -> list[list[int]]:
        """The batch's id lists, rebuilt from flat_ids and lengths."""
        flat = self.flat_ids.tolist()
        lengths = self.lengths.tolist()
        return [flat[e - n : e] for e, n in zip(itertools.accumulate(lengths), lengths)]


@dataclass
class ParamGrads:
    """Parameter gradients with the table part stored by row.

    rows holds sorted unique table row indices and embedding_table their
    gradients, one row each; every other table row has a zero gradient.
    """

    rows: np.ndarray
    embedding_table: np.ndarray
    projection: np.ndarray


def _flatten(token_id_lists: list[list[int]], rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Checked flat ids and per-sequence lengths of a batch."""
    if len(token_id_lists) == 0:
        raise ValueError("cannot encode an empty batch")
    lengths = np.fromiter(map(len, token_id_lists), dtype=np.intp, count=len(token_id_lists))
    empty = np.flatnonzero(lengths == 0)
    if len(empty):
        raise ValueError(f"sequence {empty[0]} is empty; tokenize maps empty text to [0]")
    flat = np.fromiter(
        itertools.chain.from_iterable(token_id_lists), dtype=np.intp, count=int(lengths.sum())
    )
    bad = (flat < 0) | (flat >= rows)
    if bad.any():
        seq = np.searchsorted(np.cumsum(lengths), np.argmax(bad), side="right")
        raise ValueError(f"sequence {seq} has token ids outside [0, {rows})")
    return flat, lengths


def _longest_first(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A stable longest-first order of counts, and live[k - 1] = #counts > k.

    In that order the entries with a k-th item (0-based) are the first
    live[k - 1], so pass k works on a prefix.
    """
    order = np.argsort(-counts, kind="stable")
    ordered = counts[order]
    live = np.searchsorted(-ordered, -np.arange(1, ordered[0]), side="left")
    return order, live


def _segment_sums(src: np.ndarray, idx: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Row s: the float64 sum of src[idx[starts[s] + j]] for j < counts[s].

    Each sum starts at +0.0 and adds its terms in j order. Pass j adds
    the j-th term of every segment that has one; a segment with many
    terms would take a pass per term, so the passes stop where passes
    run plus segments left is least, and each segment left finishes
    with a running sum, which adds in the same order.
    """
    out = np.empty((len(counts), src.shape[1]), dtype=np.float64)
    chunk = max(1, _CHUNK_VALUES // src.shape[1])
    for lo in range(0, len(counts), chunk):
        order, live = _longest_first(counts[lo : lo + chunk])
        first = starts[lo + order]
        ends = first + counts[lo + order]
        acc = np.zeros((len(order), src.shape[1]), dtype=np.float64)
        acc += src[idx[first]]  # from +0.0: 0.0 + -0.0 is +0.0
        left = np.append(live, 0)
        stop = int(np.argmin(np.arange(len(left)) + left))
        for j, m in enumerate(live[:stop], start=1):
            acc[:m] += src[idx[first[:m] + j]]
        for r in range(left[stop]):
            tail = src[idx[first[r] + stop + 1 : ends[r]]].astype(np.float64, copy=False)
            tail[0] += acc[r]
            acc[r] = np.add.accumulate(tail, axis=0, out=tail)[-1]
        out[lo + order] = acc
    return out


def encode(params: ModelParams, token_id_lists: list[list[int]]) -> tuple[np.ndarray, EncodeCache]:
    """Encode token-id lists to unit-norm rows, returning a replay cache."""
    flat, lengths = _flatten(token_id_lists, params.embedding_table.shape[0])
    pooled = _segment_sums(params.embedding_table, flat, np.cumsum(lengths) - lengths, lengths)
    pooled /= lengths[:, None]
    projected = pooled @ params.projection.astype(np.float64)
    raw = np.linalg.norm(projected, axis=1)
    smooth = raw + 1e-12
    out = projected / smooth[:, None]
    return out, EncodeCache(flat, lengths, pooled, projected, raw, smooth)


def encode_backward(params: ModelParams, cache: EncodeCache, grad_output: np.ndarray) -> ParamGrads:
    """Exact parameter gradients for a cached encode call.

    Backpropagates through the smoothed normalization (the same 1e-12
    norm used forward), the projection and the mean pool, then sums each
    touched row's token contributions in batch order, starting from +0.0
    (the sums np.add.at into zeros makes).
    """
    g = np.asarray(grad_output, dtype=np.float64)
    if g.shape != cache.projected.shape:
        raise ValueError(f"grad_output shape {g.shape}, expected {cache.projected.shape}")
    v = cache.projected
    n = cache.smooth_norms
    raw = cache.raw_norms

    grad_v = g / n[:, None]
    nz = raw > 0.0
    # a zero projection takes no normalisation term; when no norm is zero
    # (every real batch) a slice selects the rows without copying them
    nz = slice(None) if nz.all() else nz
    coef = (v[nz] * g[nz]).sum(axis=1) / (n[nz] * n[nz] * raw[nz])
    grad_v[nz] -= v[nz] * coef[:, None]

    proj64 = params.projection.astype(np.float64)
    grad_pooled = grad_v @ proj64.T
    grad_proj = cache.pooled.T @ grad_v
    grad_pooled /= cache.lengths[:, None]  # each token's share of its sequence's gradient

    # tokens grouped by row, in batch order within a row
    by_row = np.argsort(cache.flat_ids, kind="stable")
    ids = cache.flat_ids[by_row]
    row_starts = np.flatnonzero(np.concatenate(([True], ids[1:] != ids[:-1])))
    counts = np.diff(row_starts, append=len(ids))
    seq_by_row = np.repeat(np.arange(len(cache.lengths)), cache.lengths)[by_row]
    grad_rows = _segment_sums(grad_pooled, seq_by_row, row_starts, counts)
    return ParamGrads(ids[row_starts], grad_rows, grad_proj)


@dataclass
class OptimizerState:
    m_table: np.ndarray
    m_projection: np.ndarray
    v_table: np.ndarray
    v_projection: np.ndarray
    step: int = 0
    # Table rows from live on have all-zero moment bits. Not serialized;
    # None means "derive it from m and v" at the next step.
    live: int | None = field(default=None, repr=False, compare=False)

    @classmethod
    def fresh(cls, params: ModelParams) -> "OptimizerState":
        return cls(
            m_table=np.zeros_like(params.embedding_table),
            m_projection=np.zeros_like(params.projection),
            v_table=np.zeros_like(params.embedding_table),
            v_projection=np.zeros_like(params.projection),
            live=0,
        )


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

    Moments and parameters are float32. The table is updated in place
    on rows [0, state.live), extended to the last row with a gradient.
    Every row past it has zero moments and a zero gradient, which the
    update leaves bitwise unchanged, and every op is elementwise, so the
    result equals a full-table update byte for byte in any row order.
    The cost grows with the highest such row, not with the rows touched,
    so a caller that wants it small keeps touched rows first, as
    train() does; a table kept in hashed order pays for most of it.
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
    b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    step_size = lr / (1.0 - b1**t)
    c2 = 1.0 - b2**t

    if state.live is None:
        # any set bit counts, -0.0 included: a step turns a -0.0 moment into +0.0
        set_rows = np.flatnonzero(
            state.m_table.view(np.uint32).any(axis=1) | state.v_table.view(np.uint32).any(axis=1)
        )
        state.live = int(set_rows[-1]) + 1 if len(set_rows) else 0
    if len(grads.rows):
        state.live = max(state.live, int(grads.rows[-1]) + 1)
    rows = grads.rows
    # blocks small enough to stay in cache between the ops
    chunk = max(1, _CHUNK_VALUES // params.dim)
    # a float32 overflow fails here, not a step later in the loss; decaying
    # moments underflow in normal runs, so underflow stays quiet
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            for lo in range(0, state.live, chunk):
                hi = min(lo + chunk, state.live)
                a, b = np.searchsorted(rows, (lo, hi))
                g = np.zeros((hi - lo, params.dim), dtype=np.float32)
                g[rows[a:b] - lo] = grads.embedding_table[a:b]
                _adam_update(
                    params.embedding_table[lo:hi], state.m_table[lo:hi], state.v_table[lo:hi],
                    g, b1, b2, c2, step_size, eps,
                )

            g = np.array(grads.projection, dtype=np.float32)
            _adam_update(
                params.projection, state.m_projection, state.v_projection,
                g, b1, b2, c2, step_size, eps,
            )
    except FloatingPointError as exc:
        raise FloatingPointError(f"Adam step {t} with lr {lr:g} failed in float32: {exc}") from exc
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
    # write beside the target, then rename: a failed write leaves any
    # earlier file at path as it was
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
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
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


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
        # A corrupt header can declare any shape: check the shape and the
        # size it implies before allocating anything.
        if not 1 <= hash_bits <= MAX_HASH_BITS or dim < 1:
            raise CheckpointError(f"{path}: declared hash_bits {hash_bits}, dim {dim} out of range")
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
