"""Contrastive objectives with exact input-space gradients.

Similarities are plain dot products, so callers are expected to pass
unit-norm rows (dot equals cosine on the unit sphere; the encoder
guarantees this). All arithmetic runs in float64 and softmax terms are
evaluated in the log domain with max subtraction.

Both objectives build one N x C score matrix, one row per anchor, and
do the rest row-wise with array ops: normalization, log-sum-exp, and
the gradient, which flows back to the inputs through matrix products.
Candidate layout for anchor i, in column order: the K positives of
group i, then the other N-1 anchors by ascending index, then the
optional hard negative of group i, so C = K + N-1 (+1). The
denominator always includes the numerator terms, so every per-anchor
loss is non-negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

NORMALIZATIONS = ("min_max", "identity")


@dataclass
class LossOutput:
    """Loss value in nats plus gradients matching the input shapes."""

    value: float
    grad_anchor: np.ndarray
    grad_positives: np.ndarray
    grad_hard_negatives: np.ndarray | None = None


def _minmax(s: np.ndarray, tau: float):
    """Each row's (last axis) map onto [-1/tau, 1/tau], and for its backward the unit
    scores (s - min) / span, the span (1 where max == min), the mask where max > min,
    and the positions of the min and max (first index on ties), one scan each."""
    imin = s.argmin(axis=-1, keepdims=True)
    imax = s.argmax(axis=-1, keepdims=True)
    lo = np.take_along_axis(s, imin, axis=-1)
    span = np.take_along_axis(s, imax, axis=-1) - lo
    live = span > 0.0
    span = np.where(live, span, 1.0)
    u = (s - lo) / span
    return np.where(live, (u * 2.0 - 1.0) / tau, 0.0), u, span, live, imin, imax


def minmax_normalize(scores, tau: float) -> np.ndarray:
    """Affine-map each row (last axis) to [-1/tau, 1/tau].

    A row whose max equals its min maps to all zeros.
    """
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim == 0 or s.size == 0:
        raise ValueError("scores must be a non-empty sequence of rows")
    if not np.isfinite(s).all():
        raise ValueError("non-finite scores")
    if not (tau > 0.0 and math.isfinite(tau)):
        raise ValueError(f"tau must be positive and finite, got {tau}")
    return _minmax(s, tau)[0]


def _validate_rows(name: str, x: np.ndarray) -> None:
    if not np.isfinite(x).all():
        raise ValueError(f"non-finite values in {name}")


def single_positive_loss(anchors, positives, *, tau: float) -> LossOutput:
    """Mean InfoNCE over anchors with one positive each.

    Candidates for anchor i are its positive followed by the other
    anchors, and scores stay raw (no normalization). tau is the
    softmax temperature. grad_positives comes back with shape (N, d).
    """
    P = np.asarray(positives, dtype=np.float64)
    if P.ndim != 2:
        raise ValueError(f"expected positives of shape (N,d), got {P.shape}")
    out = multi_positive_loss(anchors, P[:, None, :], tau=tau, normalization="identity")
    return LossOutput(out.value, out.grad_anchor, out.grad_positives[:, 0, :], None)


def multi_positive_loss(
    anchors, positives, hard_negatives=None, *, tau: float, normalization: str
) -> LossOutput:
    """Mean multi-positive loss: -log of the positives' softmax mass.

    Per anchor the candidate scores (K positives, other anchors, then
    the optional hard negative) pass through the normalization (one of
    NORMALIZATIONS), and the loss is
    -log(sum_pos exp(S/tau) / sum_all exp(S/tau)). Gradients are exact,
    including the min/max subgradient terms of the normalizer
    (first-index tie-break, zero in the degenerate max == min case),
    taken at the positions the forward pass found. single_positive_loss
    runs through here with K=1 and identity normalization.
    """
    if not (tau > 0.0 and math.isfinite(tau)):
        raise ValueError(f"tau must be positive and finite, got {tau}")
    if normalization not in NORMALIZATIONS:
        raise ValueError(f"normalization must be one of {NORMALIZATIONS}, got {normalization!r}")
    A = np.ascontiguousarray(anchors, dtype=np.float64)
    P = np.ascontiguousarray(positives, dtype=np.float64)
    if A.ndim != 2 or P.ndim != 3:
        raise ValueError(f"expected anchors (N,d) and positives (N,K,d), got {A.shape} and {P.shape}")
    N, d = A.shape
    if N < 2:
        raise ValueError(f"need at least 2 anchors so in-batch negatives exist, got N={N}")
    if P.shape[0] != N or P.shape[2] != d:
        raise ValueError(f"positives shape {P.shape} does not match anchors {A.shape}")
    K = P.shape[1]
    if K < 1:
        raise ValueError("need at least one positive per anchor")
    _validate_rows("anchors", A)
    _validate_rows("positives", P)
    H = None
    if hard_negatives is not None:
        H = np.ascontiguousarray(hard_negatives, dtype=np.float64)
        if H.shape != (N, d):
            raise ValueError(f"hard_negatives shape {H.shape}, expected {(N, d)}")
        _validate_rows("hard_negatives", H)

    off_diag = ~np.eye(N, dtype=bool)
    s = np.empty((N, K + N - 1 + (H is not None)))
    s[:, :K] = np.einsum("nkd,nd->nk", P, A)
    # row-major order of the off-diagonal entries is ascending j != i
    s[:, K : K + N - 1] = (A @ A.T)[off_diag].reshape(N, N - 1)
    if H is not None:
        s[:, -1] = np.einsum("nd,nd->n", H, A)

    if normalization == "min_max":
        z, u, span, live, imin, imax = _minmax(s, tau)
        # a second division by tau; ROADMAP's min-max temperature item decides it
        z = z / tau
    else:
        z = s / tau

    # Rebase the numerator on its own max so it never underflows to
    # log(0); when a positive holds the global max both rebases
    # coincide and den >= num holds exactly in floating point.
    zmax = z.max(axis=1, keepdims=True)
    zpmax = z[:, :K].max(axis=1, keepdims=True)
    e = np.exp(z - zmax)
    ep = np.exp(z[:, :K] - zpmax)
    den = e.sum(axis=1, keepdims=True)
    num = ep.sum(axis=1, keepdims=True)
    li = (zmax + np.log(den)) - (zpmax + np.log(num))
    # the two sums round independently, so a -1e-16 residue can appear
    # when the positives hold all the mass; the true value is >= 0
    value = float(np.maximum(li, 0.0).sum()) / N

    g = e / den
    g[:, :K] -= ep / num

    if normalization == "min_max":
        # Degenerate rows normalize to the constant zero map, so no
        # gradient flows through them.
        base = np.where(live, 2.0 / (tau * tau * span), 0.0)
        w = base * g
        gsum = g.sum(axis=1, keepdims=True)
        usum = (g * u).sum(axis=1, keepdims=True)
        # min/max subgradients; ties take the first index
        rows = np.arange(N)
        w[rows, imin[:, 0]] -= (base * (gsum - usum))[:, 0]
        w[rows, imax[:, 0]] -= (base * usum)[:, 0]
    else:
        w = g / tau

    # ds_ij/dA_i is candidate j and ds_ij/dcandidate_j is A_i, so the
    # in-batch block W reaches the anchors both as W @ A and W.T @ A
    w_pos = w[:, :K]
    W = np.zeros((N, N))
    W[off_diag] = w[:, K : K + N - 1].reshape(-1)
    grad_a = np.einsum("nk,nkd->nd", w_pos, P) + (W + W.T) @ A
    grad_h = None
    if H is not None:
        grad_a += w[:, -1:] * H
        grad_h = w[:, -1:] * A / N
    grad_a /= N
    grad_p = w_pos[:, :, None] * A[:, None, :] / N
    return LossOutput(value, grad_a, grad_p, grad_h)
