"""Retrieval, mining, correlation and probe metrics over embeddings.

All similarity-based metrics take unit-norm rows and use dot products;
the encode_texts helper produces such rows from raw sentences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .data import TokenCache
from .encoder import ModelParams, encode

# linear_probe's full-batch gradient descent: step count, rate, weight decay
PROBE_ITERATIONS = 500
PROBE_LR = 0.1
PROBE_L2 = 1e-4

# _top1 scores source rows in blocks of at most this many similarities
# (4 MB of float64); a product no larger runs whole, as one BLAS call.
_BLOCK_VALUES = 1 << 19


@dataclass
class EvalReport:
    task: str
    overall: float
    metadata: dict = field(default_factory=dict)


@dataclass
class MiningResult:
    f1: float
    precision: float
    recall: float
    threshold: float


def encode_texts(
    params: ModelParams, texts: Sequence[str], max_len: int = 64, tokens: TokenCache | None = None
) -> np.ndarray:
    """Unit-norm embeddings of texts, tokenized through `tokens` (a fresh TokenCache by default).

    The texts `tokens` lacks are filled in first, in one `TokenCache.fill`;
    one `TokenCache.lookup` then reads them all.
    """
    if len(texts) == 0:
        raise ValueError("no texts to encode")
    if tokens is None:
        tokens = TokenCache()
    tokens.fill(texts, max_len, params.hash_bits)
    return encode(params, *tokens.lookup(texts, max_len, params.hash_bits))[0]


def _check_rows(name: str, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError(f"{name} must be a non-empty 2-d array, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError(f"non-finite values in {name}")
    return x


def _check_aligned(a_name: str, a: np.ndarray, b_name: str, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a, b = _check_rows(a_name, a), _check_rows(b_name, b)
    if a.shape != b.shape:
        raise ValueError(f"aligned sets must share a shape, got {a.shape} and {b.shape}")
    return a, b


def _top1(src: np.ndarray, tgt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each source row's best target by dot product, and that score.

    Equal scores go to the lowest target index. Blocks split source rows,
    never a row's candidates, so each row's argmax sees all of them.
    """
    rows = max(1, _BLOCK_VALUES // tgt.shape[0])
    best = np.empty(src.shape[0], dtype=np.intp)
    scores = np.empty(src.shape[0], dtype=np.float64)
    for lo in range(0, src.shape[0], rows):
        sims = src[lo : lo + rows] @ tgt.T
        b = sims.argmax(axis=1)
        best[lo : lo + rows] = b
        scores[lo : lo + rows] = sims[np.arange(len(b)), b]
        del sims  # free this block before the next one is made
    return best, scores


def retrieval_accuracy(src_embs, tgt_embs) -> float:
    """Fraction of sources whose nearest target is the aligned one.

    Row i of the targets is the gold match of source i; cosine ties
    resolve to the lowest index.
    """
    src, tgt = _check_aligned("src_embs", src_embs, "tgt_embs", tgt_embs)
    pred = _top1(src, tgt)[0]
    return float((pred == np.arange(src.shape[0])).mean())


def mine_pairs_f1(src_embs, tgt_embs, gold_pairs, threshold: float | None = None) -> MiningResult:
    """Threshold-based pair mining scored against a gold pair set.

    Each source nominates its best-scoring target; nominations at or
    above the threshold become predictions. With no threshold given,
    every distinct nomination score is tried and the best F1 wins
    (ties prefer the higher threshold).
    """
    src = _check_rows("src_embs", src_embs)
    tgt = _check_rows("tgt_embs", tgt_embs)
    if src.shape[1] != tgt.shape[1]:
        raise ValueError("source and target dimensions differ")
    gold = {(int(i), int(j)) for i, j in gold_pairs}
    if not gold:
        raise ValueError("gold_pairs must be non-empty")
    for i, j in gold:
        if not (0 <= i < src.shape[0] and 0 <= j < tgt.shape[0]):
            raise ValueError(f"gold pair {(i, j)} outside the candidate matrices")

    best, scores = _top1(src, tgt)
    n_tgt = tgt.shape[0]
    hit = np.isin(np.arange(src.shape[0]) * n_tgt + best, [i * n_tgt + j for i, j in gold])

    if threshold is not None:
        kept = scores >= threshold
        f1, p, r = _f1_scores(hit[kept].sum(), kept.sum(), len(gold))
        return MiningResult(float(f1), float(p), float(r), float(threshold))
    # Nominations by descending score: the true positives of every
    # threshold are a running sum, and the last rank of each run of equal
    # scores closes one threshold.
    order = np.argsort(-scores, kind="stable")
    ranked = scores[order]
    ends = np.flatnonzero(np.append(ranked[1:] != ranked[:-1], True))
    f1, p, r = _f1_scores(np.cumsum(hit[order])[ends], ends + 1, len(gold))
    top = int(np.argmax(f1))  # the first maximum: equal F1 keeps the higher threshold
    return MiningResult(float(f1[top]), float(p[top]), float(r[top]), float(ranked[ends[top]]))


def _f1_scores(tp, predicted, n_gold: int):
    """F1, precision and recall per threshold; 0 where undefined."""
    tp = np.asarray(tp, dtype=np.float64)
    precision = np.divide(tp, predicted, out=np.zeros_like(tp), where=np.asarray(predicted) > 0)
    recall = tp / n_gold
    total = precision + recall
    f1 = np.divide(2 * precision * recall, total, out=np.zeros_like(tp), where=total > 0)
    return f1, precision, recall


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks; a run of equal values at sorted positions i..j all rank (i + j) / 2 + 1."""
    order = np.argsort(x, kind="stable")
    ranked = x[order]
    ends = np.flatnonzero(np.append(ranked[1:] != ranked[:-1], True))
    starts = np.append(0, ends[:-1] + 1)
    ranks = np.empty(len(x), dtype=np.float64)
    ranks[order] = np.repeat((starts + ends) / 2.0 + 1.0, ends - starts + 1)
    return ranks


def spearman(pred, gold) -> float:
    """Spearman rank correlation with average ranks for ties."""
    p = np.asarray(pred, dtype=np.float64)
    g = np.asarray(gold, dtype=np.float64)
    if p.ndim != 1 or p.shape != g.shape:
        raise ValueError(f"expected equal-length 1-d vectors, got {p.shape} and {g.shape}")
    if p.size < 2:
        raise ValueError("need at least 2 observations")
    if not (np.isfinite(p).all() and np.isfinite(g).all()):
        raise ValueError("non-finite inputs")
    if (p == p[0]).all() or (g == g[0]).all():
        raise ValueError("rank correlation undefined for a constant vector")
    rp = _average_ranks(p)
    rg = _average_ranks(g)
    rp = rp - rp.mean()
    rg = rg - rg.mean()
    return float((rp @ rg) / math.sqrt(float(rp @ rp) * float(rg @ rg)))


class ConstantSimilarityError(ValueError):
    """The model gives every STS pair the same similarity, so no rank correlation exists."""


def sts_eval(embs_a, embs_b, gold) -> float:
    """Spearman between the cosines of aligned unit-norm rows and gold similarity scores.

    Raises ConstantSimilarityError when every predicted cosine is equal.
    """
    a, b = _check_aligned("embs_a", embs_a, "embs_b", embs_b)
    preds = (a * b).sum(axis=1)
    if (preds == preds[0]).all():
        raise ConstantSimilarityError(
            f"every predicted similarity is {float(preds[0])!r}: "
            "rank correlation undefined for a constant vector"
        )
    return spearman(preds, gold)


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def linear_probe(train_embs, train_labels, test_embs, test_labels, seed: int = 0) -> float:
    """Accuracy of a multinomial logistic probe on frozen embeddings.

    Full-batch gradient descent for PROBE_ITERATIONS steps from weights
    drawn with seed; L2 applies to the weights, not the bias. Test
    labels must come from the training label set.
    """
    X = _check_rows("train_embs", train_embs)
    Xt = _check_rows("test_embs", test_embs)
    if X.shape[1] != Xt.shape[1]:
        raise ValueError("train and test dimensions differ")
    labels = list(train_labels)
    labels_t = list(test_labels)
    if len(labels) != X.shape[0] or len(labels_t) != Xt.shape[0]:
        raise ValueError("label counts do not match embedding counts")
    classes = sorted(set(labels))
    if len(classes) < 2:
        raise ValueError("need at least 2 classes")
    unseen = sorted(set(labels_t) - set(classes))
    if unseen:
        raise ValueError(f"test labels never seen in training: {unseen}")
    index = {c: i for i, c in enumerate(classes)}
    y = np.array([index[c] for c in labels])
    onehot = np.zeros((X.shape[0], len(classes)))
    onehot[np.arange(X.shape[0]), y] = 1.0

    rng = np.random.default_rng(seed)
    W = rng.normal(0.0, 0.01, size=(X.shape[1], len(classes)))
    b = np.zeros(len(classes))
    n = X.shape[0]
    for _ in range(PROBE_ITERATIONS):
        probs = _softmax_rows(X @ W + b)
        diff = (probs - onehot) / n
        W -= PROBE_LR * (X.T @ diff + PROBE_L2 * W)
        b -= PROBE_LR * diff.sum(axis=0)
    pred = (Xt @ W + b).argmax(axis=1)
    truth = np.array([index[c] for c in labels_t])
    return float((pred == truth).mean())
