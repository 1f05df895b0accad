"""Correctness checks for the benchmark's workloads.

Each check recomputes a result apart from the program, or tests a
property the method must have, and raises CheckFailed on a mismatch.
Nothing here compares against a stored copy of earlier output.
"""

from __future__ import annotations

import math
import struct
import zlib

import numpy as np


class CheckFailed(Exception):
    """A program output disagrees with the benchmark's own computation."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# --- checkpoints ----------------------------------------------------------

_HEADER = struct.Struct("<4sIIII")


def read_checkpoint(path: str) -> dict:
    """Parse a checkpoint by its documented layout, verifying size and CRC32.

    Returns hash_bits, dim, the Adam step and the float32 embedding table
    and projection.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    require(len(blob) >= _HEADER.size + 4, f"{path}: {len(blob)} bytes is shorter than a header")
    magic, version, hash_bits, dim, step = _HEADER.unpack_from(blob)
    require(magic == b"MPCL", f"{path}: bad magic {magic!r}")
    require(version == 1, f"{path}: format version {version}")
    table_n = (1 << hash_bits) * dim
    proj_n = dim * dim
    expected = _HEADER.size + 4 * 3 * (table_n + proj_n) + 4
    require(len(blob) == expected, f"{path}: {len(blob)} bytes, the header implies {expected}")
    (crc,) = struct.unpack("<I", blob[-4:])
    require(zlib.crc32(blob[:-4]) & 0xFFFFFFFF == crc, f"{path}: CRC32 mismatch")
    body = np.frombuffer(blob, dtype="<f4", count=table_n + proj_n, offset=_HEADER.size)
    return {
        "hash_bits": hash_bits,
        "dim": dim,
        "step": step,
        "table": body[:table_n].reshape(1 << hash_bits, dim),
        "projection": body[table_n:].reshape(dim, dim),
    }


# --- the min-max multi-positive loss, in plain Python --------------------


def encode_rows(table: np.ndarray, projection: np.ndarray, id_lists) -> list[list[float]]:
    """Mean-pool table rows, project and L2-normalise (1e-12 smoothed norm)."""
    proj = projection.astype(np.float64)
    rows = []
    for ids in id_lists:
        out = table[ids].astype(np.float64).mean(axis=0) @ proj
        rows.append((out / (np.sqrt(out @ out) + 1e-12)).tolist())
    return rows


def _dot(a: list[float], b: list[float]) -> float:
    return sum(x * y for x, y in zip(a, b))


def minmax_multi_positive_loss(anchors, positives, hard_negatives, tau: float) -> float:
    """Batch mean of -log(sum_pos exp(s'/tau) / sum_all exp(s'/tau)).

    s' is the candidate cosine affinely mapped per anchor onto [-1, 1]
    (all zeros when max == min). Candidates of anchor i are its
    positives, the other anchors, then its hard negative if given.
    """
    n = len(anchors)
    total = 0.0
    for i in range(n):
        cands = list(positives[i]) + [anchors[j] for j in range(n) if j != i]
        if hard_negatives is not None:
            cands.append(hard_negatives[i])
        s = [_dot(anchors[i], c) for c in cands]
        lo, hi = min(s), max(s)
        z = [0.0] * len(s) if hi == lo else [2.0 * (x - lo) / (hi - lo) - 1.0 for x in s]
        e = [math.exp(x / tau) for x in z]
        total += -math.log(sum(e[: len(positives[i])]) / sum(e))
    return total / n


def check_close(name: str, got: float, want: float, rtol: float) -> None:
    require(
        math.isfinite(got) and abs(got - want) <= rtol * abs(want),
        f"{name}: program {got!r}, benchmark {want!r} (relative tolerance {rtol})",
    )


# --- evaluation metrics ---------------------------------------------------


def top1_accuracy(src: np.ndarray, tgt: np.ndarray) -> float:
    """Share of sources whose best-scoring target is the aligned row."""
    best = (src @ tgt.T).argmax(axis=1)
    return int((best == np.arange(len(best))).sum()) / len(best)


def mining_sweep(src: np.ndarray, tgt: np.ndarray, gold: set[tuple[int, int]]) -> dict:
    """Best-F1 threshold over each source's top nomination, by one sort.

    Nominations sorted by descending score give the true positives of
    every threshold as a running sum; equal scores form one threshold,
    and among equal F1 the higher threshold wins.
    """
    sims = src @ tgt.T
    best = sims.argmax(axis=1)
    scores = sims[np.arange(len(best)), best]
    order = np.argsort(-scores, kind="stable")
    hit = np.array([(int(i), int(best[i])) in gold for i in order])
    tps = np.cumsum(hit)
    out = None
    for rank in range(len(order)):
        if rank + 1 < len(order) and scores[order[rank + 1]] == scores[order[rank]]:
            continue
        tp = int(tps[rank])
        precision = tp / (rank + 1)
        recall = tp / len(gold)
        f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        if out is None or f1 > out["f1"]:
            out = {"f1": f1, "precision": precision, "recall": recall,
                   "threshold": float(scores[order[rank]])}
    return out


def rank_correlation(x, y) -> float:
    """Pearson correlation of average ranks (Spearman's rho with ties)."""

    def ranks(v: np.ndarray) -> np.ndarray:
        order = np.argsort(v, kind="stable")
        sorted_v = v[order]
        r = np.empty(len(v))
        start = 0
        for end in range(1, len(v) + 1):
            if end == len(v) or sorted_v[end] != sorted_v[start]:
                r[order[start:end]] = (start + end + 1) / 2.0
                start = end
        return r

    rx = ranks(np.asarray(x, dtype=np.float64))
    ry = ranks(np.asarray(y, dtype=np.float64))
    rx -= rx.mean()
    ry -= ry.mean()
    return float(rx @ ry / math.sqrt(float(rx @ rx) * float(ry @ ry)))


def check_equal(name: str, got, want) -> None:
    require(got == want, f"{name}: program {got!r}, benchmark {want!r}")


def check_above_chance(name: str, got: float, chance: float, factor: float) -> None:
    require(
        got >= factor * chance,
        f"{name}: {got!r} is below {factor:g} times the chance rate {chance:.4g}",
    )
