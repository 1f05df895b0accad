"""Shared oracles and generators for the test suite.

The oracles are deliberately naive (double loops, direct formulas,
exhaustive enumeration, dense full-table updates) so they cannot share
bugs with the vectorized and sparse implementations they check.
"""

from __future__ import annotations

import math

import numpy as np

from multipos.encoder import EncodeCache, ModelParams, OptimizerState, ParamGrads


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
    b1, b2 = state.beta1, state.beta2
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
        denom += state.eps
        denom /= step_size
        p -= m / denom
    return params, state
