"""Shared oracles and generators for the test suite.

The oracles are deliberately naive (double loops, per-anchor loops,
direct formulas, exhaustive enumeration, dense full-table updates) so
they cannot share bugs with the vectorized and sparse implementations
they check.
"""

from __future__ import annotations

import math

import numpy as np

from multipos.encoder import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    EncodeCache,
    ModelParams,
    OptimizerState,
    ParamGrads,
)
from multipos.losses import LossConfig


def rel_err(a, b, floor: float = 1e-12) -> float:
    """Worst-entry absolute difference relative to the larger magnitude."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = max(float(np.abs(a).max()), float(np.abs(b).max()), floor)
    return float(np.abs(a - b).max()) / scale


def unit_rows(rng, n: int, d: int) -> np.ndarray:
    x = rng.normal(size=(n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def candidate_score_rows(A, P, H=None) -> list[np.ndarray]:
    """Raw per-anchor candidate scores: K positives, then the other
    anchors by ascending index, then the optional hard negative."""
    n, k, _ = P.shape
    rows = []
    for i in range(n):
        s = [float(A[i] @ P[i, j]) for j in range(k)]
        s += [float(A[i] @ A[j]) for j in range(n) if j != i]
        if H is not None:
            s.append(float(A[i] @ H[i]))
        rows.append(np.asarray(s))
    return rows


def loss_oracle(anchors, positives, hard_negatives=None, cfg: LossConfig | None = None) -> float:
    """Reference loss by naive per-candidate summation.

    Dispatches on the positives rank: (N,d) means the single-positive
    objective, (N,K,d) the multi-positive one. No vectorized shortcuts
    and no max subtraction; fine for small instances only.
    """
    cfg = cfg if cfg is not None else LossConfig()
    A = np.asarray(anchors, dtype=np.float64)
    P = np.asarray(positives, dtype=np.float64)
    if P.ndim == 2:
        if hard_negatives is not None:
            raise ValueError("the single-positive objective takes no hard negatives")
        P = P[:, None, :]
        multi = False
    elif P.ndim == 3:
        multi = True
    else:
        raise ValueError(f"positives must be rank 2 or 3, got shape {P.shape}")
    H = None if hard_negatives is None else np.asarray(hard_negatives, dtype=np.float64)

    k = P.shape[1]
    total = 0.0
    rows = candidate_score_rows(A, P, H)
    for row in rows:
        scores = [float(x) for x in row]
        if multi and cfg.normalization == "min_max":
            lo = min(scores)
            hi = max(scores)
            if hi == lo:
                scaled = [0.0 for _ in scores]
            else:
                scaled = [((x - lo) / (hi - lo) * 2.0 - 1.0) / cfg.tau for x in scores]
        else:
            scaled = scores
        num = 0.0
        den = 0.0
        for c, x in enumerate(scaled):
            term = math.exp(x / cfg.tau)
            den += term
            if c < k:
                num += term
        total += math.log(den) - math.log(num)
    return total / len(rows)


def loop_loss(A, P, H, tau: float, normalization: str):
    """Reference value and gradients, one anchor at a time.

    The per-anchor loop the vectorized kernel replaced: gather anchor
    i's candidates, score them with one matrix-vector product, and
    scatter its gradient back row by row. Returns (value, grad_anchor,
    grad_positives, grad_hard_negatives or None).
    """
    A = np.asarray(A, dtype=np.float64)
    P = np.asarray(P, dtype=np.float64)
    H = None if H is None else np.asarray(H, dtype=np.float64)
    N = A.shape[0]
    K = P.shape[1]
    grad_a = np.zeros_like(A)
    grad_p = np.zeros_like(P)
    grad_h = np.zeros_like(H) if H is not None else None
    total = 0.0
    for i in range(N):
        others = np.concatenate([np.arange(i), np.arange(i + 1, N)])
        cand = np.concatenate([P[i], A[others]], axis=0)
        if H is not None:
            cand = np.concatenate([cand, H[i : i + 1]], axis=0)
        s = cand @ A[i]
        lo = s.min()
        hi = s.max()
        if normalization == "min_max":
            z = np.zeros_like(s) if hi == lo else ((s - lo) / (hi - lo) * 2.0 - 1.0) / tau / tau
        else:
            z = s / tau

        zmax = z.max()
        zpmax = z[:K].max()
        e = np.exp(z - zmax)
        ep = np.exp(z[:K] - zpmax)
        den = e.sum()
        num = ep.sum()
        li = (zmax + math.log(den)) - (zpmax + math.log(num))
        total += li if li > 0.0 else 0.0

        g = e / den
        g[:K] -= ep / num
        if normalization == "min_max":
            if hi == lo:
                continue
            u = (s - lo) / (hi - lo)
            base = 2.0 / (tau * tau * (hi - lo))
            w = base * g
            gsum = g.sum()
            usum = float(g @ u)
            w[int(np.argmin(s))] -= base * (gsum - usum)
            w[int(np.argmax(s))] -= base * usum
        else:
            w = g / tau

        grad_a[i] += cand.T @ w
        grad_p[i] += np.outer(w[:K], A[i])
        grad_a[others] += np.outer(w[K : K + N - 1], A[i])
        if H is not None:
            grad_h[i] += w[-1] * A[i]

    grad_a /= N
    grad_p /= N
    if grad_h is not None:
        grad_h /= N
    return total / N, grad_a, grad_p, grad_h


def margined_instance(rng, n, k, d, *, with_hard=False, margin=0.005, tries=5000):
    """Random unit-row loss instance with stable, informative extrema.

    Two rejection rules make the instance fit for finite differences:
    every anchor's top-2 and bottom-2 candidate scores are separated by
    at least `margin`, so an h=1e-4 perturbation cannot move an
    argmin/argmax across the min-max kink; and at least one anchor
    scores a negative candidate highest, since otherwise at small tau
    with min-max scaling every softmax saturates on a positive and all
    gradients underflow to zero, leaving nothing measurable.
    """
    for _ in range(tries):
        A = unit_rows(rng, n, d)
        P = unit_rows(rng, n * k, d).reshape(n, k, d)
        H = unit_rows(rng, n, d) if with_hard else None
        rows = candidate_score_rows(A, P, H)
        ok = True
        for r in rows:
            s = np.sort(r)
            if s[1] - s[0] < margin or s[-1] - s[-2] < margin:
                ok = False
                break
        if ok and any(int(np.argmax(r)) >= k for r in rows):
            return A, P, H
    raise RuntimeError(f"no margined instance found for n={n} k={k} d={d}")


def central_diff(f, arrays, h: float = 1e-4) -> list[np.ndarray]:
    """Central finite differences of the scalar f() wrt each array.

    Perturbs entries in place and restores them; f must read the arrays
    by reference.
    """
    out = []
    for a in arrays:
        g = np.zeros_like(a, dtype=np.float64)
        flat = a.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = f()
            flat[i] = orig - h
            fm = f()
            flat[i] = orig
            gflat[i] = (fp - fm) / (2.0 * h)
        out.append(g)
    return out


def grad_rel_err(analytic: list[np.ndarray], numeric: list[np.ndarray]) -> float:
    """rel_err over the concatenation of all gradient blocks."""
    a = np.concatenate([np.asarray(x, dtype=np.float64).reshape(-1) for x in analytic])
    b = np.concatenate([np.asarray(x, dtype=np.float64).reshape(-1) for x in numeric])
    return rel_err(a, b)


def rank_oracle(x) -> np.ndarray:
    """Average ranks by O(n^2) counting (rank 1 = smallest)."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty(len(x))
    for i in range(len(x)):
        less = sum(1 for j in range(len(x)) if x[j] < x[i])
        equal = sum(1 for j in range(len(x)) if x[j] == x[i])
        out[i] = less + (equal + 1) / 2.0
    return out


def spearman_oracle(pred, gold) -> float:
    rp = rank_oracle(pred)
    rg = rank_oracle(gold)
    rp = rp - rp.mean()
    rg = rg - rg.mean()
    return float((rp @ rg) / math.sqrt(float(rp @ rp) * float(rg @ rg)))


def retrieval_oracle(src, tgt) -> float:
    """Double-loop nearest-target accuracy; ties keep the lowest index."""
    src = np.asarray(src, dtype=np.float64)
    tgt = np.asarray(tgt, dtype=np.float64)
    correct = 0
    for i in range(src.shape[0]):
        best_j = 0
        best_s = -math.inf
        for j in range(tgt.shape[0]):
            s = float(np.dot(src[i], tgt[j]))
            if s > best_s:
                best_j, best_s = j, s
        correct += best_j == i
    return correct / src.shape[0]


def mining_oracle(src, tgt, gold):
    """Exhaustive threshold enumeration over best-target nominations.

    Returns (f1, precision, recall, threshold); ties between equal-F1
    thresholds keep the highest threshold.
    """
    src = np.asarray(src, dtype=np.float64)
    tgt = np.asarray(tgt, dtype=np.float64)
    gold = {(int(i), int(j)) for i, j in gold}
    noms = []
    for i in range(src.shape[0]):
        best_j = 0
        best_s = -math.inf
        for j in range(tgt.shape[0]):
            s = float(np.dot(src[i], tgt[j]))
            if s > best_s:
                best_j, best_s = j, s
        noms.append((i, best_j, best_s))
    best = None
    for th in sorted({s for _, _, s in noms}, reverse=True):
        pred = {(i, j) for i, j, s in noms if s >= th}
        tp = len(pred & gold)
        p = tp / len(pred) if pred else 0.0
        r = tp / len(gold)
        f1 = 2 * p * r / (p + r) if p + r > 0 else 0.0
        if best is None or f1 > best[0]:
            best = (f1, p, r, th)
    return best


def full_grads(table_grad, projection_grad) -> ParamGrads:
    """ParamGrads that list every table row, built from a dense table gradient."""
    table_grad = np.asarray(table_grad)
    return ParamGrads(np.arange(table_grad.shape[0]), table_grad, projection_grad)


def densify(grads: ParamGrads, rows_total: int) -> np.ndarray:
    """The dense table gradient: zeros outside grads.rows."""
    table = np.zeros((rows_total, grads.embedding_table.shape[1]), dtype=grads.embedding_table.dtype)
    table[grads.rows] = grads.embedding_table
    return table


def loop_encode(params: ModelParams, token_id_lists) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reference forward pass, one sequence at a time: (output, pooled, projected)."""
    pooled = np.empty((len(token_id_lists), params.dim), dtype=np.float64)
    for b, ids in enumerate(token_id_lists):
        pooled[b] = params.embedding_table[np.asarray(ids, dtype=np.intp)].mean(axis=0, dtype=np.float64)
    projected = pooled @ params.projection.astype(np.float64)
    out = projected / (np.linalg.norm(projected, axis=1) + 1e-12)[:, None]
    return out, pooled, projected


def dense_encode_backward(params: ModelParams, cache: EncodeCache, grad_output) -> ParamGrads:
    """Reference backward pass: scatter into a dense table, one sequence at a time."""
    g = np.asarray(grad_output, dtype=np.float64)
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
    grad_table = np.zeros(params.embedding_table.shape, dtype=np.float64)
    for b, ids in enumerate(cache.token_ids):
        np.add.at(grad_table, np.asarray(ids, dtype=np.intp), grad_pooled[b] / len(ids))
    return full_grads(grad_table, grad_proj)


def dense_adam_step(params: ModelParams, state: OptimizerState, grads: ParamGrads, lr: float):
    """Reference Adam: every table row, touched or not, takes the float32 update."""
    state.step += 1
    t = state.step
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    step_size = lr / (1.0 - b1**t)
    c2 = 1.0 - b2**t
    updates = (
        (params.embedding_table, state.m_table, state.v_table,
         densify(grads, params.embedding_table.shape[0])),
        (params.projection, state.m_projection, state.v_projection, grads.projection),
    )
    for p, m, v, g in updates:
        g32 = np.array(g, dtype=np.float32)
        m *= b1
        m += (1.0 - b1) * g32
        np.square(g32, out=g32)
        v *= b2
        v += (1.0 - b2) * g32
        denom = np.sqrt(v / c2)
        denom += ADAM_EPS
        denom /= step_size
        p -= m / denom
    return params, state
