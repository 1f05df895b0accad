"""Shared oracles and generators for the test suite.

The oracles are deliberately naive (double loops, per-anchor loops,
direct formulas, exhaustive enumeration, dense full-table updates) so
they cannot share bugs with the vectorized and sparse implementations
they check.
"""

from __future__ import annotations

import importlib
import math
import os

import numpy as np

from multipos.data import SentenceGroup, make_batches
from multipos.encoder import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    EncodeCache,
    ModelParams,
    OptimizerState,
    ParamGrads,
    adam_step,
    encode,
    encode_backward,
    save_checkpoint,
)
from multipos.losses import multi_positive_loss, single_positive_loss
from multipos.train import TrainConfig, init_params, schedule

# the module, not the train() function the package exports under that name
train_module = importlib.import_module("multipos.train")


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


def loss_oracle(
    anchors, positives, hard_negatives=None, *, tau: float, normalization: str | None = None
) -> float:
    """Reference loss by naive per-candidate summation.

    Dispatches on the positives rank: (N,d) means the single-positive
    objective, (N,K,d) the multi-positive one; normalization applies to
    the multi-positive one only. No vectorized shortcuts and no max
    subtraction; fine for small instances only.
    """
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
        if multi and normalization == "min_max":
            lo = min(scores)
            hi = max(scores)
            if hi == lo:
                scaled = [0.0 for _ in scores]
            else:
                scaled = [((x - lo) / (hi - lo) * 2.0 - 1.0) / tau for x in scores]
        else:
            scaled = scores
        num = 0.0
        den = 0.0
        for c, x in enumerate(scaled):
            term = math.exp(x / tau)
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


def loop_average_ranks(x) -> np.ndarray:
    """Average ranks by walking each run of equal values in a stable sort."""
    x = np.asarray(x, dtype=np.float64)
    order = np.argsort(x, kind="stable")
    ranks = np.empty(len(x), dtype=np.float64)
    i = 0
    while i < len(x):
        j = i
        while j + 1 < len(x) and x[order[j + 1]] == x[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


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


def flat_batch(token_id_lists) -> tuple[np.ndarray, np.ndarray]:
    """(lengths, ids) of a batch of id lists: the arguments encode takes after params."""
    lengths = np.array([len(ids) for ids in token_id_lists], dtype=np.intp)
    return lengths, np.array([i for ids in token_id_lists for i in ids], dtype=np.intp)


def loop_encode(params: ModelParams, token_id_lists) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reference forward pass, one sequence at a time: (output, pooled, projected)."""
    pooled = np.empty((len(token_id_lists), params.dim), dtype=np.float64)
    for b, ids in enumerate(token_id_lists):
        pooled[b] = params.embedding_table[np.asarray(ids, dtype=np.intp)].mean(axis=0, dtype=np.float64)
    projected = pooled @ params.projection.astype(np.float64)
    out = projected / (np.linalg.norm(projected, axis=1) + 1e-12)[:, None]
    return out, pooled, projected


def dense_encode_backward(params: ModelParams, token_id_lists, cache: EncodeCache, grad_output) -> ParamGrads:
    """Reference backward pass: scatter into a dense table, one sequence at a time.

    token_id_lists is the batch given to encode; the cache supplies the
    forward values only, so the flat ids under test play no part.
    """
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
    for b, ids in enumerate(token_id_lists):
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


def one_shot_init_table(cfg: TrainConfig, seed) -> np.ndarray:
    """Reference init_params table: the whole float64 draw, then cast and clip."""
    rng = np.random.default_rng(seed)
    table = rng.uniform(-0.05, 0.05, size=(1 << cfg.hash_bits, cfg.dim)).astype(np.float32)
    edge = np.nextafter(np.float32(0.05), np.float32(0.0))
    return np.clip(table, -edge, edge)


def clip_grads(grads: ParamGrads, max_norm: float) -> None:
    """Reference clip: scale both gradients by max_norm / their norm when the norm exceeds max_norm.

    The norm sums grads.embedding_table in the order its rows are given.
    """
    # rows outside grads.rows have a zero gradient and add nothing to the norm
    total = math.sqrt(
        float((grads.embedding_table**2).sum()) + float((grads.projection**2).sum())
    )
    if total > max_norm:
        scale = max_norm / total
        grads.embedding_table *= scale
        grads.projection *= scale


def hashed_train(cfg: TrainConfig, epoch_groups, out_dir: str):
    """Reference training loop: the table and moments stay in hashed row order.

    The loop train() ran before it stored rows in first-touch order:
    hashed ids, joined from the batch's nested id lists in encode order,
    go straight to encode, and Adam, the clip norm and the checkpoints
    all see hashed order; the clip is this module's clip_grads, looked
    up at each call. epoch_groups(epoch) gives each
    epoch's groups. Saves epoch_NNNN.ckpt per epoch and final.ckpt
    under out_dir; returns (params, optimizer state, losses).
    """
    params = init_params(cfg, cfg.seed)
    opt = OptimizerState.fresh(params)
    losses = []
    step = 0
    for epoch in range(cfg.epochs):
        for batch in make_batches(
            epoch_groups(epoch), cfg.batch_size, cfg.k_positives, [cfg.seed, 1 + epoch],
            max_len=cfg.max_len, hash_bits=cfg.hash_bits, use_hard_negatives=cfg.use_hard_negatives,
        ):
            _, objective, lr = schedule(step, cfg)
            n = batch.size
            k = len(batch.positives[0])
            seqs = list(batch.anchors) + [ids for row in batch.positives for ids in row]
            seqs += batch.hard_negatives or []
            embs, cache = encode(params, *flat_batch(seqs))
            anchors = embs[:n]
            positives = embs[n : n + n * k].reshape(n, k, cfg.dim)
            grad_rows = np.zeros_like(embs)
            if objective == "single":
                picked = np.random.default_rng([cfg.seed, 2, step]).integers(k, size=n)
                out = single_positive_loss(anchors, positives[np.arange(n), picked], tau=cfg.tau)
                grad_rows[:n] = out.grad_anchor
                grad_rows[n + np.arange(n) * k + picked] = out.grad_positives
            else:
                hard = embs[n + n * k :] if batch.hard_negatives else None
                out = multi_positive_loss(
                    anchors, positives, hard, tau=cfg.tau, normalization=cfg.normalization
                )
                grad_rows[:n] = out.grad_anchor
                grad_rows[n : n + n * k] = out.grad_positives.reshape(n * k, cfg.dim)
                if hard is not None:
                    grad_rows[n + n * k :] = out.grad_hard_negatives
            grads = encode_backward(params, cache, grad_rows)
            if cfg.max_grad_norm is not None:
                clip_grads(grads, cfg.max_grad_norm)
            adam_step(params, opt, grads, lr)
            losses.append(float(out.value))
            step += 1
        save_checkpoint(params, opt, os.path.join(out_dir, f"epoch_{epoch + 1:04d}.ckpt"))
    save_checkpoint(params, opt, os.path.join(out_dir, "final.ckpt"))
    return params, opt, losses


def cipher_corpus_oracle(
    n_concepts, sentence_len, n_langs, n_heldout_langs, vocab_size, seed, *, heldout_fresh_rate=0.5
):
    """gen_cipher_corpus computed one symbol at a time, for valid arguments.

    The same draws in the same order; then each word is looked up and
    formatted per symbol, a held-out word through its own rename where
    fresh and its source language's otherwise. It shares no block,
    gather or object array with the library.
    """
    rng = np.random.default_rng(seed)
    alphabet = rng.permutation(vocab_size)
    concepts = [alphabet[g * sentence_len : (g + 1) * sentence_len] for g in range(n_concepts)]

    train_langs = [f"l{i}" for i in range(n_langs)]
    renames = {lang: rng.permutation(vocab_size) for lang in train_langs}

    def surface(lang, symbol):
        return f"{lang}w{renames[lang][symbol]}"

    heldout_langs = [f"h{i}" for i in range(n_heldout_langs)]
    heldout_renames = {lang: rng.permutation(vocab_size) for lang in heldout_langs}
    heldout_source = {lang: rng.integers(n_langs, size=vocab_size) for lang in heldout_langs}
    heldout_fresh = {lang: rng.random(vocab_size) < heldout_fresh_rate for lang in heldout_langs}

    def heldout_surface(lang, symbol):
        if heldout_fresh[lang][symbol]:
            return f"{lang}w{heldout_renames[lang][symbol]}"
        return surface(train_langs[int(heldout_source[lang][symbol])], symbol)

    train_groups = []
    eval_groups = []
    for g, seq in enumerate(concepts):
        gid = f"c{g:06d}"
        texts = {lang: " ".join(surface(lang, int(c)) for c in seq) for lang in train_langs}
        train_groups.append(SentenceGroup(id=gid, texts=dict(texts)))
        if heldout_langs:
            held = {lang: " ".join(heldout_surface(lang, int(c)) for c in seq) for lang in heldout_langs}
            eval_groups.append(SentenceGroup(id=gid, texts={**texts, **held}))
    return train_groups, eval_groups


def reference_batches(groups, batch_size: int, k: int, rng_seed, use_hard_negatives: bool = False):
    """make_batches' draws made group by group, as numpy's own calls make them.

    Yields each batch's anchor languages and its texts in encode order.
    Per group, in the shuffled order: `integers` for the anchor, `choice`
    without replacement for the K positives among the other languages,
    and `integers` for the hard negative.
    """
    rng = np.random.default_rng(rng_seed)
    order = rng.permutation(len(groups))
    for start in range(0, len(order), batch_size):
        chunk = order[start : start + batch_size]
        if len(chunk) < 2:
            break
        a_langs, anchors, positives, hard = [], [], [], []
        for gi in chunk:
            g = groups[gi]
            langs = sorted(g.texts)
            anchor = langs[int(rng.integers(len(langs)))]
            rest = [lang for lang in langs if lang != anchor]
            positives += [g.texts[rest[i]] for i in rng.choice(len(rest), size=k, replace=False)]
            if use_hard_negatives:
                hn_langs = sorted(g.hard_negatives)
                hard.append(g.hard_negatives[hn_langs[int(rng.integers(len(hn_langs)))]])
            a_langs.append(anchor)
            anchors.append(g.texts[anchor])
        yield a_langs, anchors + positives + hard
