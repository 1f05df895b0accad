"""End-to-end acceptance gate.

One test per release criterion; each prints a [ACCEPTANCE n] PASS/FAIL
line with the measured numbers before asserting, so a full run reads
as a checklist even inside a larger pytest session.
"""

import json
import math
import re
import time
from collections import Counter

import numpy as np
import scipy.stats

from multipos import cli
from multipos.data import SentenceGroup, gen_cipher_corpus, groups_to_pairs, make_batches
from multipos.encoder import ModelParams, encode, encode_backward, load_checkpoint, save_checkpoint
from multipos.losses import minmax_normalize, multi_positive_loss, single_positive_loss
from multipos.evaluation import mine_pairs_f1, retrieval_accuracy, spearman
from multipos.train import TrainConfig, train

from helpers import (
    candidate_score_rows,
    central_diff,
    densify,
    flat_batch,
    grad_rel_err,
    loss_oracle,
    margined_instance,
    mining_oracle,
    rel_err,
    retrieval_oracle,
    spearman_oracle,
    unit_rows,
)

MASTER_SEED = 20260814


def _announce(capsys, criterion: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[ACCEPTANCE {criterion}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _loss_fd_worst(n_instances: int) -> float:
    worst = 0.0
    for trial in range(n_instances):
        rng = np.random.default_rng([MASTER_SEED, trial])
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, 6))
        d = int(rng.integers(4, 17))
        norm = "min_max" if trial % 2 == 0 else "identity"
        tau = (0.05, 0.2, 1.0)[trial % 3]
        with_hard = trial % 5 == 0
        A, P, H = margined_instance(rng, n, k, d, with_hard=with_hard)
        out = multi_positive_loss(A, P, H, tau=tau, normalization=norm)
        arrays = [A, P] + ([H] if with_hard else [])
        fd = central_diff(lambda: multi_positive_loss(A, P, H, tau=tau, normalization=norm).value, arrays)
        analytic = [out.grad_anchor, out.grad_positives]
        if with_hard:
            analytic.append(out.grad_hard_negatives)
        worst = max(worst, grad_rel_err(analytic, fd))
    return worst


def _e2e_fd_worst(seeds) -> float:
    cfg = dict(tau=0.05, normalization="min_max")
    worst = 0.0
    for seed in seeds:
        rng = np.random.default_rng([987, seed])
        params = ModelParams(
            rng.normal(0.0, 0.5, size=(64, 8)).astype(np.float32),
            rng.normal(0.0, 0.4, size=(8, 8)).astype(np.float32),
            hash_bits=6,
            dim=8,
        )
        batch = [
            [int(x) for x in rng.integers(1, 64, size=int(rng.integers(2, 5)))]
            for _ in range(12)
        ]

        def forward() -> float:
            embs, _ = encode(params, *flat_batch(batch))
            return multi_positive_loss(embs[:3], embs[3:12].reshape(3, 3, 8), **cfg).value

        embs, cache = encode(params, *flat_batch(batch))
        out = multi_positive_loss(embs[:3], embs[3:12].reshape(3, 3, 8), **cfg)
        grad_rows = np.concatenate([out.grad_anchor, out.grad_positives.reshape(9, 8)])
        grads = encode_backward(params, cache, grad_rows)
        table_grad = densify(grads, 64)
        assert max(
            float(np.abs(table_grad).max()), float(np.abs(grads.projection).max())
        ) > 1e-8, f"seed {seed} produced a saturated, uninformative instance"

        touched = sorted({t for seq in batch for t in seq})
        h = 1e-4
        analytic_parts, fd_parts = [], []
        for name, ana, coords in (
            ("embedding_table", table_grad, [(r, c) for r in touched for c in range(8)]),
            ("projection", grads.projection, [(r, c) for r in range(8) for c in range(8)]),
        ):
            arr = getattr(params, name)
            a_sel = np.array([ana[r, c] for r, c in coords])
            f_sel = np.zeros(len(coords))
            for idx, (r, c) in enumerate(coords):
                orig = arr[r, c]
                # the parameters are float32: step to representable values and
                # divide by the spacing actually realized
                hi = np.float32(float(orig) + h)
                lo = np.float32(float(orig) - h)
                arr[r, c] = hi
                fp = forward()
                arr[r, c] = lo
                fm = forward()
                arr[r, c] = orig
                f_sel[idx] = (fp - fm) / (float(hi) - float(lo))
            analytic_parts.append(a_sel)
            fd_parts.append(f_sel)
        worst = max(worst, grad_rel_err(analytic_parts, fd_parts))
    return worst


def test_gradients_match_finite_differences(capsys):
    t0 = time.perf_counter()
    loss_worst = _loss_fd_worst(100)
    e2e_worst = _e2e_fd_worst([0, 1, 2, 3, 4, 6, 8, 10])
    elapsed = time.perf_counter() - t0
    ok = loss_worst < 1e-4 and e2e_worst < 1e-3 and elapsed < 30.0
    _announce(
        capsys,
        1,
        ok,
        f"loss grads worst rel {loss_worst:.2e} (<1e-4), end-to-end worst rel "
        f"{e2e_worst:.2e} (<1e-3), {elapsed:.1f}s (<30s)",
    )


def _informative(A, P, H, k: int) -> bool:
    # at least one anchor must score a negative highest, which bounds the
    # loss away from zero; otherwise a saturated instance at small tau
    # compares two values below the naive reference's own rounding noise
    return any(int(np.argmax(r)) >= k for r in candidate_score_rows(A, P, H))


def test_losses_match_naive_reference(capsys):
    t0 = time.perf_counter()
    worst_oracle = 0.0
    for trial in range(1000):
        rng = np.random.default_rng([555, trial])
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, 6))
        d = int(rng.integers(4, 17))
        tau = (0.05, 0.2, 1.0)[trial % 3]
        norm = "min_max" if trial % 2 == 0 else "identity"
        if trial % 3 == 2:
            while True:
                A = unit_rows(rng, n, d)
                p = unit_rows(rng, n, d)
                if _informative(A, p[:, None, :], None, 1):
                    break
            got = single_positive_loss(A, p, tau=tau).value
            want = loss_oracle(A, p, tau=tau)
        else:
            with_hard = trial % 4 == 0
            while True:
                A = unit_rows(rng, n, d)
                P = unit_rows(rng, n * k, d).reshape(n, k, d)
                H = unit_rows(rng, n, d) if with_hard else None
                if _informative(A, P, H, k):
                    break
            got = multi_positive_loss(A, P, H, tau=tau, normalization=norm).value
            want = loss_oracle(A, P, H, tau=tau, normalization=norm)
        worst_oracle = max(worst_oracle, abs(got - want) / max(abs(got), abs(want), 1e-12))

    worst_reduction = 0.0
    for trial in range(1000):
        rng = np.random.default_rng([556, trial])
        n = int(rng.integers(2, 9))
        d = int(rng.integers(4, 17))
        tau = float(rng.uniform(0.05, 2.0))
        A = unit_rows(rng, n, d)
        P = unit_rows(rng, n, d).reshape(n, 1, d)
        multi = multi_positive_loss(A, P, tau=tau, normalization="identity")
        single = single_positive_loss(A, P[:, 0, :], tau=tau)
        worst_reduction = max(
            worst_reduction,
            rel_err(np.array([multi.value]), np.array([single.value])),
            grad_rel_err(
                [multi.grad_anchor, multi.grad_positives[:, 0, :]],
                [single.grad_anchor, single.grad_positives],
            ),
        )
    elapsed = time.perf_counter() - t0
    ok = worst_oracle <= 1e-10 and worst_reduction <= 1e-12 and elapsed < 30.0
    _announce(
        capsys,
        2,
        ok,
        f"naive-reference worst rel {worst_oracle:.2e} (<=1e-10) on 1000 instances, "
        f"K=1 reduction worst rel {worst_reduction:.2e} (<=1e-12), {elapsed:.1f}s (<30s)",
    )


def test_closed_form_loss_values(capsys):
    eye = np.eye(8)
    single = single_positive_loss(eye[:4], eye[4:8], tau=1.0).value
    err_single = abs(single - math.log(4.0))

    multi = multi_positive_loss(
        eye[:2], np.stack([eye[2:4], eye[2:4]]), tau=1.0, normalization="identity"
    ).value
    err_multi = abs(multi - (-math.log(2.0 / 3.0)))
    ok = err_single <= 1e-9 and err_multi <= 1e-9
    _announce(
        capsys,
        3,
        ok,
        f"uniform-similarity values: single |err| {err_single:.2e} vs log 4, "
        f"multi |err| {err_multi:.2e} vs -log(2/3) (<=1e-9)",
    )


def test_minmax_normalization_properties(capsys):
    rng = np.random.default_rng(444)
    worst_affine = 0.0
    checked = 0
    for trial in range(10000):
        n = int(rng.integers(2, 65))
        tau = float(rng.uniform(0.05, 2.0))
        if trial % 100 == 0:
            x = np.full(n, float(rng.uniform(-1.0, 1.0)))
            assert np.array_equal(minmax_normalize(x, tau), np.zeros(n))
            continue
        x = rng.uniform(-1.0, 1.0, size=n)
        while x.max() - x.min() < 0.1:
            x = rng.uniform(-1.0, 1.0, size=n)
        out = minmax_normalize(x, tau)
        lim = 1.0 / tau
        assert out[int(np.argmax(x))] == lim and out[int(np.argmin(x))] == -lim
        assert out.max() <= lim and out.min() >= -lim
        idx = np.argsort(x, kind="stable")
        dx = np.diff(x[idx])
        dout = np.diff(out[idx])
        assert (dout >= 0).all()
        assert (dout[dx == 0] == 0).all()

        if trial % 2 == 0:
            a = float(2.0 ** rng.integers(-3, 4))
            assert np.array_equal(minmax_normalize(a * x, tau), out)
        else:
            a = float(rng.uniform(0.5, 2.0))
            b = float(rng.uniform(-0.5, 0.5))
            diff = float(np.abs(minmax_normalize(a * x + b, tau) - out).max())
            worst_affine = max(worst_affine, diff)
            assert diff <= 1e-12, (trial, a, b, tau, diff)
        checked += 1
    _announce(
        capsys,
        4,
        checked == 9900,
        f"range/order/affine/degenerate hold on 10000 vectors; "
        f"worst affine drift {worst_affine:.2e} (<=1e-12)",
    )


def test_multiple_positives_transfer_to_unseen_language(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    assert cli.run(["synth", "--seed", "7", "--out", str(corpus)]).exit_code == 0
    report_path = tmp_path / "report.json"
    outcome = cli.run(
        [
            "compare",
            "--data", str(corpus / "groups.jsonl"),
            "--heldout", str(corpus / "heldout.jsonl"),
            "--seeds", "5",
            "--seed", "0",
            "--out", str(report_path),
        ]
    )
    err = capsys.readouterr().err
    assert outcome.exit_code == 0
    report = json.loads(report_path.read_text(encoding="utf-8"))
    walls = {m.group(1): float(m.group(2)) for m in re.finditer(r"arm (\w+): ([0-9.]+)s", err)}

    multi = report["arms"]["multiple"]
    single = report["arms"]["single"]
    seen_m = multi["mean"]["seen_retrieval"]
    seen_s = single["mean"]["seen_retrieval"]
    held_m = multi["mean"]["heldout_retrieval"]
    held_s = single["mean"]["heldout_retrieval"]
    ok = (
        len(multi["runs"]) == 5
        and len(single["runs"]) == 5
        and seen_m >= 0.90
        and seen_s >= 0.90
        and held_m >= held_s
        and walls["multiple"] < 300.0
        and walls["single"] < 300.0
    )
    _announce(
        capsys,
        5,
        ok,
        f"5 seeds/arm; seen retrieval multiple {seen_m:.4f}, single {seen_s:.4f} (>=0.90); "
        f"unseen-language retrieval multiple {held_m:.4f} >= single {held_s:.4f}; "
        f"wall multiple {walls['multiple']:.0f}s, single {walls['single']:.0f}s (<300s)",
    )


def test_metrics_match_quadratic_oracles(capsys):
    worst_rho = 0.0
    compared = 0
    for trial in range(1000):
        rng = np.random.default_rng([666, trial])
        n = int(rng.integers(2, 31))
        if trial % 2 == 0:
            a = rng.integers(0, 5, size=n).astype(float)
            b = rng.integers(0, 5, size=n).astype(float)
        else:
            a = rng.normal(size=n)
            b = rng.normal(size=n)
        if (a == a[0]).all() or (b == b[0]).all():
            continue
        worst_rho = max(worst_rho, abs(spearman(a, b) - spearman_oracle(a, b)))
        compared += 1

    mining_exact = True
    worst_th = 0.0
    for trial in range(100):
        rng = np.random.default_rng([667, trial])
        n = int(rng.integers(3, 13))
        m = int(rng.integers(3, 13))
        src = unit_rows(rng, n, 5)
        tgt = unit_rows(rng, m, 5)
        gold = {
            (int(i), int(rng.integers(m)))
            for i in rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        }
        res = mine_pairs_f1(src, tgt, gold)
        f1, p, r, th = mining_oracle(src, tgt, gold)
        mining_exact &= (res.f1, res.precision, res.recall) == (f1, p, r)
        worst_th = max(worst_th, abs(res.threshold - th))

    retrieval_exact = True
    for trial in range(100):
        rng = np.random.default_rng([668, trial])
        n = int(rng.integers(2, 21))
        d = int(rng.integers(2, 11))
        src = unit_rows(rng, n, d)
        tgt = unit_rows(rng, n, d)
        retrieval_exact &= retrieval_accuracy(src, tgt) == retrieval_oracle(src, tgt)

    ok = (
        compared >= 900
        and worst_rho <= 1e-12
        and mining_exact
        and worst_th <= 1e-9
        and retrieval_exact
    )
    _announce(
        capsys,
        6,
        ok,
        f"rank correlation worst |diff| {worst_rho:.2e} on {compared} vectors (<=1e-12); "
        f"mining sweep exact on 100 instances (threshold drift {worst_th:.2e}); "
        f"retrieval exact on 100 instances",
    )


def test_training_reproducibility_and_checkpoint_round_trip(tmp_path, capsys):
    groups, _ = gen_cipher_corpus(24, 4, 3, 0, 96, seed=5)
    cfg = TrainConfig(
        batch_size=8,
        k_positives=2,
        epochs=2,
        tau=1.0,
        lr_main=6e-3,
        warmup_enabled=False,
        hash_bits=10,
        dim=16,
    )
    train(cfg, groups, out_dir=str(tmp_path / "r1"))
    train(cfg, groups, out_dir=str(tmp_path / "r2"))
    final1 = (tmp_path / "r1" / "final.ckpt").read_bytes()
    final2 = (tmp_path / "r2" / "final.ckpt").read_bytes()
    identical = final1 == final2 and all(
        (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()
        for name in ("epoch_0001.ckpt", "epoch_0002.ckpt")
    )

    params, state = load_checkpoint(str(tmp_path / "r1" / "final.ckpt"), moments=True)
    save_checkpoint(params, state, str(tmp_path / "resaved.ckpt"))
    round_trip = (tmp_path / "resaved.ckpt").read_bytes() == final1
    ok = identical and round_trip
    _announce(
        capsys,
        7,
        ok,
        f"identical-seed runs byte-identical ({len(final1)} byte checkpoints); "
        f"load/save round trip bitwise",
    )


def test_pair_conservation_and_anchor_uniformity(capsys):
    rng = np.random.default_rng(888)
    groups = []
    for i in range(10000):
        n = int(rng.integers(2, 7))
        groups.append(
            SentenceGroup(id=f"g{i}", texts={f"l{j}": f"l{j} t{i}" for j in range(n)})
        )
    conv = groups_to_pairs(groups, rng_seed=888)
    got = Counter()
    for p in conv.pairs:
        got[(p.src_lang, p.src_text)] += 1
        got[(p.tgt_lang, p.tgt_text)] += 1
    total = sum(len(g.texts) for g in groups)
    odd = sum(1 for g in groups if len(g.texts) % 2 == 1)
    conserved = (
        all(c == 1 for c in got.values())
        and sum(got.values()) == total - conv.dropped_sentences
        and conv.dropped_sentences == odd
        and set(got) <= {(l, g.texts[l]) for g in groups for l in g.texts}
    )

    six = [
        SentenceGroup(id=f"s{i}", texts={f"l{j}": f"l{j} u{i}" for j in range(6)})
        for i in range(10000)
    ]
    (batch,) = make_batches(six, batch_size=10000, k_positives=1, rng_seed=999)
    counts = Counter(batch.anchor_langs)
    observed = [counts[f"l{j}"] for j in range(6)]
    pvalue = float(scipy.stats.chisquare(observed).pvalue)
    ok = conserved and pvalue >= 0.01
    _announce(
        capsys,
        8,
        ok,
        f"sentence multiset preserved over 10000 groups ({conv.dropped_sentences} odd drops "
        f"reported); anchor-language chi-square p={pvalue:.3f} (>=0.01)",
    )
