import tracemalloc
from collections import Counter

import numpy as np
import pytest

from multipos.encoder import ModelParams
from multipos import evaluation as evaluation_mod
from multipos.evaluation import (
    ConstantSimilarityError,
    _average_ranks,
    encode_texts,
    linear_probe,
    mine_pairs_f1,
    retrieval_accuracy,
    spearman,
    sts_eval,
)

from helpers import (
    loop_average_ranks,
    mining_isin_oracle,
    mining_oracle,
    probe_oracle,
    retrieval_oracle,
    spearman_oracle,
    unit_rows,
)


def _rand_params(rng, hash_bits=6, dim=8):
    table = rng.normal(0.0, 0.5, size=(1 << hash_bits, dim)).astype(np.float32)
    proj = rng.normal(0.0, 0.4, size=(dim, dim)).astype(np.float32)
    return ModelParams(table, proj, hash_bits, dim)


def test_retrieval_perfect_and_zero():
    eye = np.eye(4)
    assert retrieval_accuracy(eye, eye) == 1.0
    assert retrieval_accuracy(eye, eye[::-1].copy()) == 0.0


def test_retrieval_tie_goes_to_lowest_index():
    v = np.array([1.0, 0.0])
    w = np.array([0.0, 1.0])
    src = np.stack([v, w, v])
    tgt = np.stack([v, w, v])
    # source 2 ties between targets 0 and 2; argmax keeps 0, a miss
    assert retrieval_accuracy(src, tgt) == pytest.approx(2 / 3)


def test_retrieval_matches_oracle():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(2, 20))
        d = int(rng.integers(2, 10))
        src = unit_rows(rng, n, d)
        tgt = unit_rows(rng, n, d)
        assert retrieval_accuracy(src, tgt) == retrieval_oracle(src, tgt)


def test_retrieval_permutation_invariance():
    rng = np.random.default_rng(1)
    src = unit_rows(rng, 12, 6)
    tgt = unit_rows(rng, 12, 6)
    perm = rng.permutation(12)
    assert retrieval_accuracy(src, tgt) == retrieval_accuracy(src[perm], tgt[perm])


def test_retrieval_validation():
    with pytest.raises(ValueError):
        retrieval_accuracy(np.eye(3), np.eye(4))
    with pytest.raises(ValueError):
        retrieval_accuracy(np.zeros((0, 3)), np.zeros((0, 3)))
    with pytest.raises(ValueError):
        retrieval_accuracy(np.ones(3), np.ones(3))
    bad = np.eye(3)
    bad[0, 0] = float("nan")
    with pytest.raises(ValueError):
        retrieval_accuracy(bad, np.eye(3))


def test_mining_hand_cases():
    e0 = np.array([1.0, 0.0])
    e1 = np.array([0.0, 1.0])
    src = np.stack([e0, e1])
    tgt = np.stack([e0, e1])

    res = mine_pairs_f1(src, tgt, [(0, 0), (1, 1)])
    assert (res.f1, res.precision, res.recall, res.threshold) == (1.0, 1.0, 1.0, 1.0)

    # second nomination scores lower and is not gold: keep the high threshold
    mix = np.array([0.8, 0.6])
    res = mine_pairs_f1(np.stack([e0, mix]), tgt, [(0, 0), (1, 1)])
    assert res.threshold == 1.0
    assert res.precision == 1.0 and res.recall == 0.5
    assert res.f1 == 2 / 3

    res = mine_pairs_f1(src, tgt, [(0, 0)], threshold=1.5)
    assert (res.f1, res.precision, res.recall) == (0.0, 0.0, 0.0)
    assert res.threshold == 1.5

    res = mine_pairs_f1(src, tgt, [(0, 0)], threshold=-1.0)
    assert res.precision == 0.5 and res.recall == 1.0


def test_mining_matches_oracle():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(3, 12))
        m = int(rng.integers(3, 12))
        src = unit_rows(rng, n, 5)
        tgt = unit_rows(rng, m, 5)
        k = int(rng.integers(1, n + 1))
        gold = {(int(i), int(rng.integers(m))) for i in rng.choice(n, size=k, replace=False)}
        res = mine_pairs_f1(src, tgt, gold)
        f1, p, r, th = mining_oracle(src, tgt, gold)
        assert (res.f1, res.precision, res.recall) == (f1, p, r)
        assert res.threshold == pytest.approx(th, abs=1e-12)

    # small-integer embeddings: many nominations share a score, and
    # each shared score is one threshold
    rng = np.random.default_rng(4)
    for _ in range(40):
        n = int(rng.integers(3, 16))
        m = int(rng.integers(2, 6))
        src = rng.integers(-1, 2, size=(n, 3)).astype(np.float64)
        tgt = rng.integers(-1, 2, size=(m, 3)).astype(np.float64)
        gold = {(int(i), int(rng.integers(m))) for i in range(n) if rng.random() < 0.6} or {(0, 0)}
        res = mine_pairs_f1(src, tgt, gold)
        assert (res.f1, res.precision, res.recall, res.threshold) == mining_oracle(src, tgt, gold)


def test_mining_sweep_beats_fixed_thresholds():
    rng = np.random.default_rng(3)
    src = unit_rows(rng, 10, 4)
    tgt = unit_rows(rng, 10, 4)
    gold = [(i, i) for i in range(10)]
    swept = mine_pairs_f1(src, tgt, gold)
    for th in (-1.0, -0.5, 0.0, 0.3, 0.7, 0.95):
        assert swept.f1 >= mine_pairs_f1(src, tgt, gold, threshold=th).f1


def test_mining_validation():
    src = np.eye(3)
    with pytest.raises(ValueError):
        mine_pairs_f1(src, src, [])
    with pytest.raises(ValueError):
        mine_pairs_f1(src, src, [(0, 3)])
    with pytest.raises(ValueError):
        mine_pairs_f1(src, src, [(-1, 0)])
    with pytest.raises(ValueError):
        mine_pairs_f1(src, np.eye(4), [(0, 0)])


def test_mining_matches_an_isin_oracle_when_sources_have_several_gold_targets():
    rng = np.random.default_rng(12)
    for _ in range(30):
        n, m = int(rng.integers(3, 12)), int(rng.integers(3, 8))
        src, tgt = unit_rows(rng, n, 4), unit_rows(rng, m, 4)
        best = (src @ tgt.T).argmax(axis=1)
        # up to three gold targets a source; half the sources list their nomination among them
        gold = {(i, int(j)) for i in range(n) for j in rng.choice(m, size=int(rng.integers(4)), replace=False)}
        gold |= {(i, int(best[i])) for i in range(n) if rng.random() < 0.5}
        gold = gold or {(0, int(best[0]))}
        assert max(Counter(i for i, _ in gold).values()) >= 2
        res = mine_pairs_f1(src, tgt, gold)
        assert (res.f1, res.precision, res.recall, res.threshold) == mining_isin_oracle(src, tgt, gold)
        for th in (res.threshold, -1.0, 0.0, 0.5):
            fixed = mine_pairs_f1(src, tgt, gold, threshold=th)
            assert (fixed.f1, fixed.precision, fixed.recall, fixed.threshold) == mining_isin_oracle(
                src, tgt, gold, threshold=th
            )


@pytest.mark.parametrize("block_rows", [1, 7])
def test_blocked_top1_matches_the_full_product(monkeypatch, block_rows):
    # 23 source rows: 23 blocks of 1 row, or 7-row blocks and a last one of 2
    monkeypatch.setattr(evaluation_mod, "_BLOCK_VALUES", block_rows * 23)
    rng = np.random.default_rng(block_rows)
    for _ in range(20):
        # eighths of small integers: every dot product is exact in float64,
        # so a block's products equal the full product's on any BLAS
        src = rng.integers(-3, 4, size=(23, 4)) / 8.0
        tgt = rng.integers(-3, 4, size=(23, 4)) / 8.0
        # source 4 scores best against target 3 and its duplicates 5, 11 and
        # 19: the tie goes to the lowest index
        tgt[[3, 5, 11, 19]] = 3 / 8
        src[4] = 1 / 8
        sims = src @ tgt.T
        best, scores = evaluation_mod._top1(src, tgt)
        assert best.tolist() == sims.argmax(axis=1).tolist()
        assert best[4] == 3
        assert scores.tolist() == sims.max(axis=1).tolist()
        assert retrieval_accuracy(src, tgt) == retrieval_oracle(src, tgt)
        # nominations share scores: each shared score is one threshold
        assert len(set(scores.tolist())) < len(scores)
        gold = {(i, int(rng.integers(23))) for i in range(23) if rng.random() < 0.6} | {(4, 3)}
        res = mine_pairs_f1(src, tgt, gold)
        assert (res.f1, res.precision, res.recall, res.threshold) == mining_oracle(src, tgt, gold)


def test_retrieval_and_mining_hold_one_block_of_similarities():
    # 3,000 x 3,000 float64 similarities take 72 MB; one block takes 4 MB
    rng = np.random.default_rng(5)
    src, tgt = unit_rows(rng, 3000, 64), unit_rows(rng, 3000, 64)
    gold = [(i, i) for i in range(3000)]
    for score in (lambda: retrieval_accuracy(src, tgt), lambda: mine_pairs_f1(src, tgt, gold)):
        tracemalloc.start()
        try:
            score()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


def test_spearman_exact_values():
    assert spearman([1.0, 2.0, 3.0], [10.0, 20.0, 30.0]) == 1.0
    assert spearman([1.0, 2.0, 3.0], [5.0, 0.0, -5.0]) == -1.0
    got = spearman([1.0, 2.0, 2.0, 4.0], [1.0, 3.0, 2.0, 4.0])
    want = spearman_oracle([1.0, 2.0, 2.0, 4.0], [1.0, 3.0, 2.0, 4.0])
    assert abs(got - want) <= 1e-12


def test_spearman_matches_oracle_with_ties():
    rng = np.random.default_rng(4)
    for _ in range(100):
        n = int(rng.integers(2, 30))
        if rng.random() < 0.5:
            a = rng.integers(0, 5, size=n).astype(float)
            b = rng.integers(0, 5, size=n).astype(float)
        else:
            a = rng.normal(size=n)
            b = rng.normal(size=n)
        if (a == a[0]).all() or (b == b[0]).all():
            continue
        assert abs(spearman(a, b) - spearman_oracle(a, b)) <= 1e-12


def test_average_ranks_equal_loop_exactly():
    rng = np.random.default_rng(12)
    for _ in range(100):
        n = int(rng.integers(1, 40))
        x = rng.integers(0, 6, size=n).astype(float) if rng.random() < 0.7 else rng.normal(size=n)
        assert _average_ranks(x).tolist() == loop_average_ranks(x).tolist()
    # signed zeros tie; one run at the start, one at the end
    x = np.array([0.0, 3.0, -0.0, 1.0, 3.0, 0.0])
    assert _average_ranks(x).tolist() == loop_average_ranks(x).tolist() == [2.0, 5.5, 2.0, 4.0, 5.5, 2.0]


def test_spearman_monotone_transform_invariance():
    rng = np.random.default_rng(5)
    a = rng.normal(size=40)
    b = rng.normal(size=40)
    base = spearman(a, b)
    assert abs(spearman(np.exp(a), b) - base) <= 1e-12
    assert abs(spearman(a**3, b) - base) <= 1e-12


def test_spearman_validation():
    with pytest.raises(ValueError):
        spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        spearman([1.0], [2.0])
    with pytest.raises(ValueError):
        spearman([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        spearman([1.0, float("nan")], [1.0, 2.0])


def test_sts_self_consistency():
    rng = np.random.default_rng(6)
    params = _rand_params(rng)
    texts = [f"alpha{i} beta{i} gamma{i}" for i in range(10)]
    other = [f"delta{i} epsilon{i}" for i in range(10)]
    embs_a = encode_texts(params, texts)
    embs_b = encode_texts(params, other)
    gold = (embs_a * embs_b).sum(axis=1)
    rho = sts_eval(embs_a, embs_b, gold)
    assert type(rho) is float
    assert rho == 1.0
    assert sts_eval(embs_a, embs_b, gold) == rho
    assert sts_eval(embs_a, embs_b, -gold) == -1.0


def test_sts_errors():
    rows = unit_rows(np.random.default_rng(7), 5, 4)
    with pytest.raises(ConstantSimilarityError, match="every predicted similarity is"):
        sts_eval(rows[:1], rows[1:2], [1.0])  # one row is a constant prediction
    with pytest.raises(ValueError, match="share a shape"):
        sts_eval(rows, rows[:4], [0.0, 1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError, match="non-finite"):
        sts_eval(np.where(np.eye(5, 4) > 0, np.nan, rows), rows, [0.0, 1.0, 2.0, 3.0, 4.0])
    # one row paired with itself five times gives constant predictions
    same = np.repeat(rows[:1], 5, axis=0)
    with pytest.raises(ConstantSimilarityError, match="every predicted similarity is .*: rank correlation"):
        sts_eval(same, same, [float(i) for i in range(5)])


def _clusters(rng, centers, per_class, noise=0.05):
    X, y = [], []
    for ci, c in enumerate(centers):
        X.append(c + rng.normal(0.0, noise, size=(per_class, len(c))))
        y.extend([f"class{ci}"] * per_class)
    return np.vstack(X), y


def test_probe_separable_data():
    rng = np.random.default_rng(8)
    centers = np.eye(3) * 2.0
    Xtr, ytr = _clusters(rng, centers, 30)
    Xte, yte = _clusters(rng, centers, 10)
    assert linear_probe(Xtr, ytr, Xte, yte) == 1.0
    assert linear_probe(Xtr, ytr, Xtr, ytr) == 1.0  # memorizes its own input


def test_probe_chance_level_on_random_embeddings(monkeypatch):
    monkeypatch.setattr(evaluation_mod, "PROBE_ITERATIONS", 200)
    accs = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        Xtr = rng.normal(size=(200, 16))
        Xte = rng.normal(size=(100, 16))
        ytr = [f"c{i % 4}" for i in range(200)]
        yte = [f"c{i % 4}" for i in range(100)]
        accs.append(linear_probe(Xtr, ytr, Xte, yte, seed=seed))
    mean = float(np.mean(accs))
    assert 0.15 <= mean <= 0.35


def test_probe_determinism_and_validation():
    rng = np.random.default_rng(9)
    Xtr, ytr = _clusters(rng, np.eye(2), 20)
    Xte, yte = _clusters(rng, np.eye(2), 5)
    a = linear_probe(Xtr, ytr, Xte, yte, seed=1)
    b = linear_probe(Xtr, ytr, Xte, yte, seed=1)
    assert a == b

    with pytest.raises(ValueError, match="2 classes"):
        linear_probe(Xtr, ["same"] * len(ytr), Xte, ["same"] * len(yte))
    with pytest.raises(ValueError, match="never seen"):
        linear_probe(Xtr, ytr, Xte, ["mystery"] * len(yte))
    with pytest.raises(ValueError, match="label counts"):
        linear_probe(Xtr, ytr[:-1], Xte, yte)
    with pytest.raises(ValueError):
        linear_probe(Xtr, ytr, np.zeros((4, 3)), yte[:4])


@pytest.mark.parametrize("n,d,classes", [(7, 3, 2), (40, 8, 3), (60, 16, 5), (250, 64, 50)])
def test_probe_fit_matches_the_expression_oracle_bit_for_bit(n, d, classes):
    rng = np.random.default_rng(n)
    y = rng.integers(classes, size=n)
    spread = rng.normal(size=(n, d))
    # all-zero rows score every class b, the same for all of them at the first
    # step; rows near zero score them within a few ulps of each other
    tied = spread.copy()
    tied[::3] = 0.0
    tied[1::3] *= 1e-12
    for X in (spread, tied):
        W, b = evaluation_mod._fit_probe(X, y, classes, 5)
        W_want, b_want = probe_oracle(X, y, classes, 5)
        assert W.tobytes() == W_want.tobytes()
        assert b.tobytes() == b_want.tobytes()


def test_encode_texts():
    rng = np.random.default_rng(10)
    params = _rand_params(rng)
    with pytest.raises(ValueError):
        encode_texts(params, [])
    long_text = " ".join(f"word{i}" for i in range(30))
    full = encode_texts(params, [long_text])
    clipped = encode_texts(params, [long_text], max_len=2)
    assert not np.allclose(full, clipped)
    assert np.allclose(np.linalg.norm(clipped, axis=1), 1.0)
