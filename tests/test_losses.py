import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multipos.losses import (
    minmax_normalize,
    multi_positive_loss,
    single_positive_loss,
)

from helpers import (
    candidate_score_rows,
    central_diff,
    grad_rel_err,
    loop_loss,
    loss_oracle,
    margined_instance,
    rel_err,
    unit_rows,
)


def test_loss_settings_validation():
    e = np.eye(6)
    A, P = e[:2], np.stack([e[2:4], e[4:6]])
    for tau in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="tau must be positive and finite"):
            multi_positive_loss(A, P, tau=tau, normalization="min_max")
        with pytest.raises(ValueError, match="tau must be positive and finite"):
            single_positive_loss(A, P[:, 0], tau=tau)
    # an unknown normalization is an error, not a silent identity
    with pytest.raises(ValueError, match="normalization must be one of"):
        multi_positive_loss(A, P, tau=1.0, normalization="softmax")


def test_minmax_documented_values():
    out = minmax_normalize([0.2, 0.5, 0.8], tau=0.05)
    assert out[0] == -20.0 and out[2] == 20.0
    assert abs(out[1]) <= 1e-12
    assert np.array_equal(minmax_normalize([0.3, 0.3, 0.3], tau=0.05), [0.0, 0.0, 0.0])
    # independent direct evaluation of the affine map
    x = np.array([-0.1, 0.9, 0.4, 0.15])
    expected = ((x - (-0.1)) / (0.9 - (-0.1)) * 2.0 - 1.0) / 1.0
    assert np.abs(minmax_normalize(x, tau=1.0) - expected).max() <= 1e-12
    # 2-d input: each row on its own, a flat row still all zeros
    rows = minmax_normalize([[0.2, 0.5, 0.8], [0.3, 0.3, 0.3], [-0.1, 0.9, 0.4]], tau=1.0)
    assert np.array_equal(rows[0], minmax_normalize([0.2, 0.5, 0.8], tau=1.0))
    assert np.array_equal(rows[1], [0.0, 0.0, 0.0])
    assert np.array_equal(rows[2], minmax_normalize([-0.1, 0.9, 0.4], tau=1.0))
    with pytest.raises(ValueError):
        minmax_normalize([], tau=0.05)
    with pytest.raises(ValueError):
        minmax_normalize(0.5, tau=0.05)
    with pytest.raises(ValueError):
        minmax_normalize([0.1, 0.2], tau=0.0)
    with pytest.raises(ValueError):
        minmax_normalize([0.1, float("inf")], tau=1.0)


@given(
    st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=2, max_size=64),
    st.floats(0.05, 10.0, allow_nan=False),
)
def test_minmax_range_and_order(xs, tau):
    x = np.asarray(xs)
    z = minmax_normalize(x, tau)
    if x.max() == x.min():
        assert np.array_equal(z, np.zeros_like(x))
        return
    assert z[int(np.argmax(x))] == 1.0 / tau
    assert z[int(np.argmin(x))] == -1.0 / tau
    assert z.min() >= -1.0 / tau and z.max() <= 1.0 / tau
    order = np.argsort(x, kind="stable")
    assert (np.diff(z[order]) >= 0).all()


@given(
    st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=2, max_size=32),
    st.floats(0.5, 10.0, allow_nan=False),
    st.floats(0.5, 2.0, allow_nan=False),
    st.floats(-1.0, 1.0, allow_nan=False),
)
def test_minmax_affine_invariance(xs, tau, a, b):
    x = np.asarray(xs)
    if x.max() - x.min() < 0.1:
        return
    z = minmax_normalize(x, tau)
    zt = minmax_normalize(a * x + b, tau)
    assert np.abs(z - zt).max() <= 1e-12


@given(st.integers(0, 10_000))
def test_multi_loss_nonnegative(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    k = int(rng.integers(1, 5))
    d = int(rng.integers(3, 9))
    A = unit_rows(rng, n, d)
    P = unit_rows(rng, n * k, d).reshape(n, k, d)
    tau = float(rng.uniform(0.05, 2.0))
    norm = "min_max" if seed % 2 == 0 else "identity"
    out = multi_positive_loss(A, P, tau=tau, normalization=norm)
    assert out.value >= 0.0
    assert math.isfinite(out.value)


def _orthonormal(d, rows):
    eye = np.eye(d)
    return [eye[i] for i in rows]


def test_closed_form_uniform_single():
    # orthonormal anchors and positives: every candidate score is 0
    e = np.eye(8)
    anchors = e[:4]
    positives = e[4:8]
    out = single_positive_loss(anchors, positives, tau=0.05)
    assert abs(out.value - math.log(4.0)) <= 1e-9
    assert abs(loss_oracle(anchors, positives, tau=0.05) - math.log(4.0)) <= 1e-12


def test_closed_form_uniform_multi():
    e = np.eye(6)
    anchors = e[:2]
    positives = np.stack([e[2:4], e[4:6]])
    out = multi_positive_loss(anchors, positives, tau=1.0, normalization="identity")
    assert abs(out.value - (-math.log(2.0 / 3.0))) <= 1e-9


def test_closed_form_two_term():
    # sim(anchor0, pos0) = 1, sim(anchor0, anchor1) = -1
    a = np.array([[1.0, 0.0], [-1.0, 0.0]])
    p = np.array([[1.0, 0.0], [-1.0, 0.0]])
    out = single_positive_loss(a, p, tau=1.0)
    assert abs(out.value - math.log(1.0 + math.exp(-2.0))) <= 1e-9


def test_degenerate_row_zero_gradient():
    # all candidate scores equal -> min-max maps to zeros; uniform
    # softmax gives log(3/2) per anchor and no gradient anywhere
    e = np.eye(6)
    anchors = e[:2]
    positives = np.stack([e[2:4], e[4:6]])
    out = multi_positive_loss(anchors, positives, tau=0.05, normalization="min_max")
    assert abs(out.value - math.log(3.0 / 2.0)) <= 1e-12
    assert np.array_equal(out.grad_anchor, np.zeros_like(out.grad_anchor))
    assert np.array_equal(out.grad_positives, np.zeros_like(out.grad_positives))


def test_minmax_tie_takes_first_index():
    # row 0 has its two positives tied at the max; the subgradient mass
    # of the max must land on candidate 0, not candidate 1
    r = math.sqrt(0.75)
    a0 = np.array([1.0, 0, 0, 0, 0, 0])
    a1 = np.array([0, 1.0, 0, 0, 0, 0])
    p00 = np.array([0.5, 0, r, 0, 0, 0])
    p01 = np.array([0.5, 0, 0, r, 0, 0])
    p10 = np.array([0, 0.3, 0, 0, math.sqrt(1 - 0.09), 0])
    p11 = np.array([0, 0.6, 0, 0, 0, 0.8])
    A = np.stack([a0, a1])
    P = np.stack([[p00, p01], [p10, p11]])
    out = multi_positive_loss(A, P, tau=1.0, normalization="min_max")

    # hand evaluation of row 0: scores [0.5, 0.5, 0.0] -> z = [1, 1, -1]
    pall2 = 1.0 / (2.0 * math.e**2 + 1.0)
    g0 = (math.e**2) / (2.0 * math.e**2 + 1.0) - 0.5
    w0 = 4.0 * g0 + 4.0 * pall2  # argmax tie resolved to index 0
    w1 = 4.0 * g0
    loss0 = math.log1p(0.5 * math.exp(-2.0))
    # row 1: scores [0.3, 0.6, 0.0] -> z = [0, 1, -1], no ties
    z1 = np.array([0.0, 1.0, -1.0])
    pall = np.exp(z1) / np.exp(z1).sum()
    ppos = np.exp(z1[:2]) / np.exp(z1[:2]).sum()
    g1 = pall - np.array([ppos[0], ppos[1], 0.0])
    base1 = 2.0 / 0.6
    u1 = np.array([0.5, 1.0, 0.0])
    U1 = float(g1 @ u1)
    w_row1 = base1 * g1
    w_row1[2] += base1 * U1  # argmin subgradient (G = 0)
    w_row1[1] -= base1 * U1  # argmax subgradient
    loss1 = -math.log((np.exp(z1[0]) + np.exp(z1[1])) / np.exp(z1).sum())

    assert abs(out.value - (loss0 + loss1) / 2.0) <= 1e-12
    assert np.abs(out.grad_positives[0, 0] - w0 * a0 / 2.0).max() <= 1e-12
    assert np.abs(out.grad_positives[0, 1] - w1 * a0 / 2.0).max() <= 1e-12
    # the tie adjustment must make the two positive gradients differ
    assert np.abs(out.grad_positives[0, 0] - out.grad_positives[0, 1]).max() > 1e-3
    expected_gp1 = np.stack([w_row1[0] * a1 / 2.0, w_row1[1] * a1 / 2.0])
    assert np.abs(out.grad_positives[1] - expected_gp1).max() <= 1e-12


def test_k1_identity_reduction():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(2, 8))
        d = int(rng.integers(3, 12))
        A = unit_rows(rng, n, d)
        P = unit_rows(rng, n, d)
        tau = float(rng.uniform(0.05, 2.0))
        multi = multi_positive_loss(A, P[:, None, :], tau=tau, normalization="identity")
        single = single_positive_loss(A, P, tau=tau)
        assert abs(multi.value - single.value) <= 1e-12
        assert np.abs(multi.grad_anchor - single.grad_anchor).max() <= 1e-12
        assert np.abs(multi.grad_positives[:, 0, :] - single.grad_positives).max() <= 1e-12


def test_positive_permutation_invariance():
    rng = np.random.default_rng(12)
    for trial in range(20):
        n, k, d = 4, 4, 8
        A = unit_rows(rng, n, d)
        P = unit_rows(rng, n * k, d).reshape(n, k, d)
        cfg = dict(
            tau=float(rng.uniform(0.1, 1.0)),
            normalization="min_max" if trial % 2 == 0 else "identity",
        )
        perms = [rng.permutation(k) for _ in range(n)]
        P2 = np.stack([P[i, perms[i]] for i in range(n)])
        out = multi_positive_loss(A, P, **cfg)
        out2 = multi_positive_loss(A, P2, **cfg)
        assert abs(out.value - out2.value) <= 1e-12
        for i in range(n):
            assert np.abs(out.grad_positives[i, perms[i]] - out2.grad_positives[i]).max() <= 1e-12
        assert np.abs(out.grad_anchor - out2.grad_anchor).max() <= 1e-12


def test_matches_oracle_smoke():
    rng = np.random.default_rng(13)
    taus = (0.05, 0.2, 1.0)
    for trial in range(60):
        n = int(rng.integers(2, 8))
        k = int(rng.integers(1, 6))
        d = int(rng.integers(4, 16))
        A = unit_rows(rng, n, d)
        P = unit_rows(rng, n * k, d).reshape(n, k, d)
        H = unit_rows(rng, n, d) if trial % 4 == 0 else None
        cfg = dict(
            tau=taus[trial % 3],
            normalization="min_max" if trial % 2 == 0 else "identity",
        )
        out = multi_positive_loss(A, P, H, **cfg)
        ref = loss_oracle(A, P, H, **cfg)
        assert rel_err(out.value, ref) <= 1e-10

        A2 = unit_rows(rng, n, d)
        P2 = unit_rows(rng, n, d)
        out_s = single_positive_loss(A2, P2, tau=cfg["tau"])
        assert rel_err(out_s.value, loss_oracle(A2, P2, tau=cfg["tau"])) <= 1e-10


def test_gradients_match_finite_differences_smoke():
    rng = np.random.default_rng(14)
    taus = (0.05, 0.2, 1.0)
    for trial in range(10):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, 5))
        d = int(rng.integers(4, 12))
        with_hard = trial % 5 == 0
        A, P, H = margined_instance(rng, n, k, d, with_hard=with_hard)
        cfg = dict(
            tau=taus[trial % 3],
            normalization="min_max" if trial % 2 == 0 else "identity",
        )
        out = multi_positive_loss(A, P, H, **cfg)
        arrays = [A, P] + ([H] if H is not None else [])
        fd = central_diff(lambda: multi_positive_loss(A, P, H, **cfg).value, arrays)
        analytic = [out.grad_anchor, out.grad_positives]
        if H is not None:
            analytic.append(out.grad_hard_negatives)
        assert grad_rel_err(analytic, fd) < 1e-4


def test_single_loss_finite_differences():
    rng = np.random.default_rng(15)
    A = unit_rows(rng, 6, 8)
    P = unit_rows(rng, 6, 8)
    out = single_positive_loss(A, P, tau=0.05)
    assert rel_err(out.value, loss_oracle(A, P, tau=0.05)) <= 1e-10
    fd = central_diff(lambda: single_positive_loss(A, P, tau=0.05).value, [A, P])
    assert grad_rel_err([out.grad_anchor, out.grad_positives], fd) < 1e-4


@given(st.integers(0, 10_000))
@settings(max_examples=40)
def test_gradient_flows_to_some_positive(seed):
    # with min-max scaling active at moderate temperature, gradient must
    # reach at least one positive unless every positive sits at its
    # row's extremum (with two candidates the normalized scores are the
    # constant pair [+1/tau, -1/tau], a locally constant map)
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    k = int(rng.integers(1, 5))
    d = int(rng.integers(3, 10))
    A = unit_rows(rng, n, d)
    P = unit_rows(rng, n * k, d).reshape(n, k, d)
    rows = candidate_score_rows(A, P)
    interior = any(
        r.min() < r[j] < r.max() for r in rows for j in range(k)
    )
    if not interior:
        return
    tau = float(rng.uniform(0.3, 2.0))
    out = multi_positive_loss(A, P, tau=tau, normalization="min_max")
    assert np.abs(out.grad_positives).max() > 0.0


def _assert_matches_loop(out, A, P, H, tau, normalization):
    value, grad_a, grad_p, grad_h = loop_loss(A, P, H, tau, normalization)
    assert rel_err(out.value, value) <= 1e-11
    assert rel_err(out.grad_anchor, grad_a) <= 1e-11
    assert rel_err(out.grad_positives.reshape(grad_p.shape), grad_p) <= 1e-11
    if H is None:
        assert out.grad_hard_negatives is None
    else:
        assert rel_err(out.grad_hard_negatives, grad_h) <= 1e-11


def test_hard_negative_slot():
    rng = np.random.default_rng(16)
    A = unit_rows(rng, 3, 6)
    P = unit_rows(rng, 6, 6).reshape(3, 2, 6)
    H = unit_rows(rng, 3, 6)
    cfg = dict(tau=0.2, normalization="min_max")
    assert [len(r) for r in candidate_score_rows(A, P, H)] == [2 + 2 + 1] * 3
    out = multi_positive_loss(A, P, H, **cfg)
    assert rel_err(out.value, loss_oracle(A, P, H, **cfg)) <= 1e-10
    assert out.grad_hard_negatives.shape == (3, 6)
    _assert_matches_loop(out, A, P, H, **cfg)
    # without hard negatives the slot stays empty and the column is gone
    out2 = multi_positive_loss(A, P, **cfg)
    assert out2.grad_hard_negatives is None
    assert rel_err(out2.value, loss_oracle(A, P, **cfg)) <= 1e-10
    assert abs(out2.value - out.value) > 1e-3


def test_similarity_row_layout():
    e = np.eye(8)
    A = np.stack([e[0], e[1]])
    # known scores: positives of anchor 0 score 0.6 and 0.0, the other
    # anchor scores 0.0, the hard negative -0.8
    p00 = 0.6 * e[0] + 0.8 * e[2]
    p01 = e[3]
    p10 = 0.5 * e[1] + math.sqrt(0.75) * e[4]
    p11 = e[5]
    H = np.stack([-0.8 * e[0] + 0.6 * e[6], e[7]])
    P = np.stack([[p00, p01], [p10, p11]])
    rows = candidate_score_rows(A, P, H)
    assert [round(float(x), 12) for x in rows[0]] == [0.6, 0.0, 0.0, -0.8]
    assert [round(float(x), 12) for x in rows[1]] == [0.5, 0.0, 0.0, 0.0]
    # hand evaluation at tau = 1: row 0 min-max scales to [1, 1/7, 1/7, -1],
    # row 1 to [1, -1, -1, -1]; the first two columns are the positives
    t = 1.0 / 7.0
    loss0 = math.log(math.e + 2 * math.exp(t) + 1 / math.e) - math.log(math.e + math.exp(t))
    loss1 = math.log(math.e + 3 / math.e) - math.log(math.e + 1 / math.e)
    cfg = dict(tau=1.0, normalization="min_max")
    out = multi_positive_loss(A, P, H, **cfg)
    assert abs(out.value - (loss0 + loss1) / 2.0) <= 1e-12
    assert abs(loss_oracle(A, P, H, **cfg) - (loss0 + loss1) / 2.0) <= 1e-12
    _assert_matches_loop(out, A, P, H, **cfg)


def test_kernel_matches_loop_oracle():
    # the margined instances of the finite-difference acceptance sweep,
    # with and without hard negatives, both normalizations; each also
    # runs with its first positive alone (K = 1) and single-positive
    for trial in range(40):
        rng = np.random.default_rng([20260814, trial])
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, 6))
        d = int(rng.integers(4, 17))
        norm = "min_max" if trial % 2 == 0 else "identity"
        tau = (0.05, 0.2, 1.0)[trial % 3]
        A, P, H = margined_instance(rng, n, k, d, with_hard=trial % 5 == 0)
        for hard in (H, None):
            out = multi_positive_loss(A, P, hard, tau=tau, normalization=norm)
            _assert_matches_loop(out, A, P, hard, tau, norm)
            P1 = P[:, :1]
            out = multi_positive_loss(A, P1, hard, tau=tau, normalization=norm)
            _assert_matches_loop(out, A, P1, hard, tau, norm)
        _assert_matches_loop(single_positive_loss(A, P[:, 0], tau=tau), A, P[:, :1], None, tau, "identity")

    # exactly degenerate rows: every candidate score is 0
    e = np.eye(8)
    A = e[:2]
    P = np.stack([e[2:4], e[4:6]])
    H = e[6:8]
    for hard in (None, H):
        out = multi_positive_loss(A, P, hard, tau=0.05, normalization="min_max")
        _assert_matches_loop(out, A, P, hard, 0.05, "min_max")
        grads = [out.grad_anchor, out.grad_positives] + ([] if hard is None else [out.grad_hard_negatives])
        for g in grads:
            assert np.array_equal(g, np.zeros_like(g))

    # exact first-index ties next to a degenerate row: row 0 scores all 0;
    # row 1 ties its max between its positive and anchor 2; row 2 ties
    # its min between its positive and anchor 0
    r = math.sqrt(0.5)
    A = np.stack([e[0], e[1], r * (e[1] + e[2])])
    P = np.stack([[e[3]], [r * (e[1] + e[4])], [e[5]]])
    rows = candidate_score_rows(A, P)
    assert rows[0].max() == rows[0].min()
    assert rows[1][0] == rows[1][2] == rows[1].max()
    assert rows[2][0] == rows[2][1] == rows[2].min()
    for tau in (0.05, 1.0):
        out = multi_positive_loss(A, P, tau=tau, normalization="min_max")
        _assert_matches_loop(out, A, P, None, tau, "min_max")
        assert np.array_equal(out.grad_positives[0], np.zeros((1, 8)))


def test_input_validation():
    rng = np.random.default_rng(17)
    A = unit_rows(rng, 2, 4)
    P = unit_rows(rng, 4, 4).reshape(2, 2, 4)
    cfg = dict(tau=1.0, normalization="min_max")
    with pytest.raises(ValueError):
        multi_positive_loss(A[:1], P[:1], **cfg)  # N < 2
    with pytest.raises(ValueError):
        multi_positive_loss(A, np.zeros((2, 0, 4)), **cfg)  # K = 0
    bad = A.copy()
    bad[0, 0] = float("nan")
    with pytest.raises(ValueError):
        multi_positive_loss(bad, P, **cfg)
    with pytest.raises(ValueError):
        multi_positive_loss(A, P, unit_rows(rng, 3, 4), **cfg)  # hard shape
    with pytest.raises(ValueError):
        multi_positive_loss(A, P[:, :, :3], **cfg)  # dim mismatch
    with pytest.raises(ValueError, match=r"expected anchors \(N,d\) and positives \(N,K,d\)"):
        multi_positive_loss(A, P[:, 0, :], **cfg)  # rank-2 positives
    with pytest.raises(ValueError):
        single_positive_loss(A, P, tau=1.0)  # rank-3 positives
    with pytest.raises(ValueError):
        loss_oracle(A, unit_rows(rng, 2, 4), hard_negatives=A, tau=1.0)
    with pytest.raises(ValueError):
        loss_oracle(A, P[None], **cfg)  # rank 4
