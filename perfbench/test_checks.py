"""Each benchmark check accepts the program's answer and rejects a wrong one.

    python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import layers  # noqa: E402
from checks import CheckFailed  # noqa: E402
from multipos.encoder import OptimizerState, save_checkpoint  # noqa: E402
from multipos.evaluation import mine_pairs_f1, retrieval_accuracy, spearman  # noqa: E402
from tracer import Tracer, instrument_program  # noqa: E402

mdata = importlib.import_module("multipos.data")
mtrain = importlib.import_module("multipos.train")


def _unit_rows(rng, n, d=8):
    x = rng.normal(size=(n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _small_training():
    groups, _ = mdata.gen_cipher_corpus(40, 8, 6, 0, 320, seed=0)
    records = [(lang, g.id, g.texts[lang][::-1]) for g in groups for lang in g.texts]
    mdata.attach_hard_negatives(groups, records)
    cfg = mtrain.TrainConfig(batch_size=16, k_positives=5, epochs=1, tau=1.0, lr_main=6e-3,
                             warmup_enabled=False, hash_bits=10, dim=16, use_hard_negatives=True)
    return groups, cfg


def test_step0_loss_reference_accepts_program_and_rejects_perturbed_loss():
    groups, cfg = _small_training()
    logged = mtrain.train(cfg, groups).records[0].loss
    params = mtrain.init_params(cfg, cfg.seed)
    batch = next(mdata.make_batches(groups, cfg.batch_size, cfg.k_positives, [cfg.seed, 1],
                                    hash_bits=cfg.hash_bits, use_hard_negatives=True))

    def enc(ids):
        return checks.encode_rows(params.embedding_table, params.projection, ids)

    k = cfg.k_positives
    pos = enc([ids for row in batch.positives for ids in row])
    want = checks.minmax_multi_positive_loss(
        enc(batch.anchors), [pos[i * k : (i + 1) * k] for i in range(batch.size)],
        enc(batch.hard_negatives), cfg.tau,
    )
    checks.check_close("loss", logged, want, 1e-9)
    with pytest.raises(CheckFailed):
        checks.check_close("loss", logged * (1 + 1e-7), want, 1e-9)


def test_mining_sweep_accepts_program_and_rejects_f1_off_by_one_pair():
    rng = np.random.default_rng(0)
    src = _unit_rows(rng, 60)
    tgt = _unit_rows(rng, 50)
    tgt[:40] = src[:40] + 0.3 * _unit_rows(rng, 40)
    tgt /= np.linalg.norm(tgt, axis=1, keepdims=True)
    gold = {(i, i) for i in range(40)}
    res = mine_pairs_f1(src, tgt, gold)
    want = checks.mining_sweep(src, tgt, gold)
    got = {"f1": res.f1, "precision": res.precision, "recall": res.recall, "threshold": res.threshold}
    checks.check_equal("mining", got, want)

    tp = round(want["recall"] * len(gold))
    predicted = round(tp / want["precision"])
    p, r = (tp - 1) / predicted, (tp - 1) / len(gold)
    with pytest.raises(CheckFailed):
        checks.check_equal("mining", {**got, "f1": 2 * p * r / (p + r)}, want)


def test_retrieval_check_rejects_a_swapped_target():
    rng = np.random.default_rng(1)
    src = _unit_rows(rng, 30)
    tgt = src + 0.1 * _unit_rows(rng, 30)
    checks.check_equal("retrieval", retrieval_accuracy(src, tgt), checks.top1_accuracy(src, tgt))
    swapped = tgt.copy()
    swapped[[3, 7]] = swapped[[7, 3]]
    with pytest.raises(CheckFailed):
        checks.check_equal("retrieval", retrieval_accuracy(src, swapped), checks.top1_accuracy(src, tgt))


def test_rank_correlation_accepts_program_and_rejects_swapped_gold():
    rng = np.random.default_rng(2)
    pred = np.round(rng.normal(size=200), 1)  # ties on purpose
    gold = pred + rng.normal(size=200)
    checks.check_close("rho", spearman(pred, gold), checks.rank_correlation(pred, gold), 1e-12)
    wrong = gold.copy()
    wrong[[int(np.argmin(gold)), int(np.argmax(gold))]] = wrong[[int(np.argmax(gold)), int(np.argmin(gold))]]
    with pytest.raises(CheckFailed):
        checks.check_close("rho", spearman(pred, wrong), checks.rank_correlation(pred, gold), 1e-12)


def test_read_checkpoint_rejects_truncated_and_corrupt_files(tmp_path):
    cfg = mtrain.TrainConfig(hash_bits=6, dim=4)
    params = mtrain.init_params(cfg, 0)
    state = OptimizerState.fresh(params)
    state.step = 7
    path = tmp_path / "a.ckpt"
    save_checkpoint(params, state, str(path))
    ckpt = checks.read_checkpoint(str(path))
    assert ckpt["step"] == 7 and ckpt["hash_bits"] == 6
    np.testing.assert_array_equal(ckpt["table"], params.embedding_table)

    blob = path.read_bytes()
    path.write_bytes(blob[:-100])
    with pytest.raises(CheckFailed):
        checks.read_checkpoint(str(path))
    flipped = bytearray(blob)
    flipped[40] ^= 1
    path.write_bytes(bytes(flipped))
    with pytest.raises(CheckFailed):
        checks.read_checkpoint(str(path))


def test_traced_training_has_one_step_span_per_logged_step():
    groups, cfg = _small_training()
    tracer = Tracer()
    instrument_program(tracer)
    try:
        result = mtrain.train(cfg, groups)
    finally:
        tracer.restore()
    assert mtrain.make_batches is mdata.make_batches
    trace = {"spans": tracer.spans, "counts": dict(tracer.counts)}
    m = layers.round_metrics([trace])
    assert m["train.steps"] == len(result.records)
    assert m["data.tokenize.calls"] == 40 * (1 + cfg.k_positives + 1)
    assert all(s["t1"] is not None for s in tracer.spans)
    assert 0 < m["train.self_ms.p50"] < m["train.step_ms.p50"]


def test_self_time_subtracts_direct_children_only():
    spans = [
        {"id": 0, "parent": None, "name": "cli.run", "t0": 0.0, "t1": 0.020, "attrs": {}},
        {"id": 1, "parent": 0, "name": "train.step", "t0": 0.001, "t1": 0.011, "attrs": {}},
        {"id": 2, "parent": 1, "name": "encoder.adam_step", "t0": 0.002, "t1": 0.005, "attrs": {}},
        {"id": 3, "parent": 1, "name": "encoder.encode", "t0": 0.005, "t1": 0.009, "attrs": {"rows": 5}},
    ]
    m = layers.round_metrics([{"spans": spans, "counts": {}}])
    assert m["cli.self_ms"] == pytest.approx(10.0)
    assert m["train.self_ms.p50"] == pytest.approx(3.0)
    assert m["encoder.encode.rows"] == 5


def test_benchmark_json_names_the_metrics_and_workloads_the_code_reports():
    import run
    from workloads import WORKLOADS

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
