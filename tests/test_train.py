import dataclasses
import json
import math
import os
import sys
import time

import numpy as np
import pytest

from multipos.data import DatasetMismatchError, SentenceGroup, gen_cipher_corpus
from multipos.encoder import load_checkpoint
from multipos.train import (
    NonFiniteLossError,
    TrainConfig,
    _clip_grads,
    init_params,
    load_config,
    schedule,
    train,
    write_log_jsonl,
)

from helpers import dense_adam_step, dense_encode_backward, densify, full_grads, hashed_train


def _groups(n, langs=("a", "b", "c")):
    return [
        SentenceGroup(id=f"g{i}", texts={l: f"{l} token{i} filler{i}" for l in langs})
        for i in range(n)
    ]


def _small_cfg(**kw):
    base = dict(
        batch_size=4,
        k_positives=1,
        epochs=1,
        warmup_enabled=False,
        hash_bits=8,
        dim=8,
        tau=1.0,
        lr_main=1e-2,
    )
    base.update(kw)
    return TrainConfig(**base)


def test_config_defaults():
    cfg = TrainConfig()
    assert cfg.batch_size == 128
    assert cfg.tau == 0.05
    assert cfg.warmup_steps == 2000
    assert cfg.lr_warmup == 2e-5
    assert cfg.lr_main == 1e-5
    assert cfg.k_positives == 5
    assert cfg.objective == "multi"
    assert cfg.warmup_enabled is True
    assert cfg.normalization == "min_max"
    assert cfg.max_grad_norm is None


@pytest.mark.parametrize(
    "kw",
    [
        {"batch_size": 1},
        {"max_len": 0},
        {"tau": 0.0},
        {"tau": -1.0},
        {"warmup_steps": -1},
        {"lr_warmup": 0.0},
        {"lr_main": -1e-3},
        {"k_positives": 0},
        {"epochs": -1},
        {"objective": "triplet"},
        {"normalization": "zscore"},
        {"max_grad_norm": 0.0},
        {"hash_bits": 0},
        {"hash_bits": 25},
        {"dim": 0},
        {"tau": float("inf")},
        {"lr_warmup": float("inf")},
        {"lr_main": float("inf")},
    ],
)
def test_config_validation(kw):
    with pytest.raises(ValueError):
        TrainConfig(**kw)


def test_load_config(tmp_path):
    assert load_config({"batch_size": 16}).batch_size == 16
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"tau": 0.2, "epochs": 3}), encoding="utf-8")
    cfg = load_config(str(path))
    assert cfg.tau == 0.2 and cfg.epochs == 3 and cfg.batch_size == 128
    with pytest.raises(ValueError, match="unknown config keys"):
        load_config({"batch_sizes": 16})
    path.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ValueError):
        load_config(str(path))


def test_schedule():
    cfg = TrainConfig()
    assert schedule(0, cfg) == ("warmup", "single", 2e-5)
    assert schedule(1999, cfg) == ("warmup", "single", 2e-5)
    assert schedule(2000, cfg) == ("main", "multi", 1e-5)
    off = TrainConfig(warmup_enabled=False)
    assert schedule(0, off) == ("main", "multi", 1e-5)
    single_main = TrainConfig(objective="single", warmup_steps=1)
    assert schedule(5, single_main) == ("main", "single", 1e-5)
    with pytest.raises(ValueError):
        schedule(-1, cfg)


def test_init_params():
    cfg = _small_cfg()
    p1 = init_params(cfg, 3)
    p2 = init_params(cfg, 3)
    assert p1.embedding_table.tobytes() == p2.embedding_table.tobytes()
    assert p1.embedding_table.dtype == np.float32
    assert np.array_equal(p1.projection, np.eye(8, dtype=np.float32))
    assert np.abs(p1.embedding_table).max() < 0.05  # strictly inside the interval
    assert p1.embedding_table.shape == (256, 8)
    p3 = init_params(cfg, 4)
    assert p1.embedding_table.tobytes() != p3.embedding_table.tobytes()


def test_zero_epochs_is_identity(tmp_path):
    cfg = _small_cfg(epochs=0)
    res = train(cfg, _groups(6), out_dir=str(tmp_path))
    assert res.records == []
    assert res.dropped_tail_groups == 0
    assert res.checkpoint_paths == [str(tmp_path / "final.ckpt")]
    loaded, state = load_checkpoint(res.checkpoint_paths[0])
    assert np.array_equal(loaded.embedding_table, init_params(cfg, cfg.seed).embedding_table)
    assert state.step == 0


def test_training_is_deterministic(tmp_path):
    cfg = _small_cfg(epochs=2)
    groups = _groups(12)
    res1 = train(cfg, groups, out_dir=str(tmp_path / "r1"))
    res2 = train(cfg, groups, out_dir=str(tmp_path / "r2"))
    b1 = (tmp_path / "r1" / "final.ckpt").read_bytes()
    b2 = (tmp_path / "r2" / "final.ckpt").read_bytes()
    assert b1 == b2
    assert [r.loss for r in res1.records] == [r.loss for r in res2.records]

    other = train(dataclasses.replace(cfg, seed=9), groups)
    assert [r.loss for r in other.records] != [r.loss for r in res1.records]


def test_checkpoint_files_per_epoch(tmp_path):
    cfg = _small_cfg(epochs=2)
    res = train(cfg, _groups(8), out_dir=str(tmp_path))
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["epoch_0001.ckpt", "epoch_0002.ckpt", "final.ckpt"]
    assert res.checkpoint_paths[-1].endswith("final.ckpt")
    # nothing runs between the last epoch checkpoint and the final one
    assert (tmp_path / "epoch_0002.ckpt").read_bytes() == (tmp_path / "final.ckpt").read_bytes()


def test_phase_tags_and_steps():
    cfg = _small_cfg(warmup_enabled=True, warmup_steps=4, epochs=3)
    res = train(cfg, _groups(8))  # 2 steps per epoch
    assert [r.step for r in res.records] == list(range(6))
    for r in res.records:
        assert r.phase == ("warmup" if r.step < 4 else "main")
        assert r.objective == ("single" if r.step < 4 else "multi")
        assert r.lr == (cfg.lr_warmup if r.step < 4 else cfg.lr_main)
        assert math.isfinite(r.loss) and r.loss >= 0.0
        assert r.wall_ms >= 0.0


def test_step_counts_and_tail_accounting():
    res = train(_small_cfg(batch_size=8), _groups(20))
    assert len(res.records) == 3  # 8 + 8 + 4
    assert res.dropped_tail_groups == 0

    res = train(_small_cfg(batch_size=10, epochs=2), _groups(21))
    assert len(res.records) == 4  # tails of 1 cannot form a batch
    assert res.dropped_tail_groups == 2


def test_dataset_mismatch_fails_before_any_step(tmp_path):
    cfg = _small_cfg(k_positives=2)
    with pytest.raises(ValueError, match="g0"):
        train(cfg, _groups(4, langs=("a", "b")), out_dir=str(tmp_path))
    assert list(tmp_path.iterdir()) == []

    with pytest.raises(ValueError, match="empty"):
        train(_small_cfg(), [])

    with pytest.raises(ValueError, match="lacks hard negatives"):
        train(_small_cfg(use_hard_negatives=True), _groups(4))


def test_dataset_mismatch_is_the_same_at_every_epoch():
    # the same misfit at epoch 0 and at epoch 1 gives the same error
    good = _groups(4)
    for g in good:
        g.hard_negatives = {"a": f"hn {g.id}"}
    cases = [
        (_small_cfg(k_positives=2, epochs=2), _groups(4, langs=("a", "b"))),
        (_small_cfg(use_hard_negatives=True, epochs=2), _groups(4)),
        (_small_cfg(epochs=2), []),
    ]
    for cfg, bad in cases:
        messages = []
        for bad_epoch in (0, 1):
            with pytest.raises(DatasetMismatchError) as info:
                train(cfg, [], dataset_fn=lambda epoch: bad if epoch == bad_epoch else good)
            messages.append(str(info.value))
        assert messages[0] == messages[1]


def test_non_finite_loss_raises(monkeypatch):
    import sys

    train_mod = sys.modules["multipos.train"]
    real = train_mod.multi_positive_loss

    def poisoned(*args, **kwargs):
        out = real(*args, **kwargs)
        return dataclasses.replace(out, value=float("nan"))

    monkeypatch.setattr(train_mod, "multi_positive_loss", poisoned)
    with pytest.raises(NonFiniteLossError, match="step 0"):
        train(_small_cfg(), _groups(4))


def test_dataset_fn_supplies_each_epoch():
    calls = []

    def per_epoch(epoch):
        calls.append(epoch)
        return _groups(4)

    res = train(_small_cfg(epochs=3), [], dataset_fn=per_epoch)
    assert calls == [0, 1, 2]
    assert len(res.records) == 3


def test_step_clock_includes_batch_building(monkeypatch):
    train_mod = sys.modules["multipos.train"]
    real = train_mod.make_batches

    def slow_batches(*args, **kwargs):
        for batch in real(*args, **kwargs):
            time.sleep(0.02)
            yield batch

    monkeypatch.setattr(train_mod, "make_batches", slow_batches)
    res = train(_small_cfg(epochs=2), _groups(8))
    assert len(res.records) == 4
    assert all(r.wall_ms >= 20.0 for r in res.records), [r.wall_ms for r in res.records]


def _oracle_groups(epoch):
    """Eight groups per epoch: a word repeated in every sentence, a word seen
    in this epoch only, hard negatives, and one empty text (token id 0)."""
    groups = []
    for i in range(8):
        texts = {lang: f"{lang} w{i} w{i} once{epoch}x{i}" for lang in ("a", "b", "c")}
        if i == 0:
            texts["b"] = "?!"
        negs = {lang: f"{lang} neg{i} once{epoch}n{i}" for lang in ("a", "b", "c")}
        groups.append(SentenceGroup(id=f"g{i}", texts=texts, hard_negatives=negs))
    return groups


def _spy_prefix(monkeypatch) -> list[tuple[int, int, bool]]:
    """Per Adam step in train(): the state's live rows, the distinct ids
    encoded so far, and whether encode got other ids than the batch's."""
    train_mod = sys.modules["multipos.train"]
    make_batches, encode, adam_step = train_mod.make_batches, train_mod.encode, train_mod.adam_step
    batch, seen, relabelled, trace = [], set(), [], []

    def spy_make_batches(*args, **kwargs):
        for b in make_batches(*args, **kwargs):
            batch[:] = [b]
            yield b

    def spy_encode(params, seqs):
        seen.update(i for ids in seqs for i in ids)
        relabelled[:] = [seqs[: batch[0].size] != batch[0].anchors]
        return encode(params, seqs)

    def spy_adam_step(params, state, grads, lr):
        out = adam_step(params, state, grads, lr)
        trace.append((state.live, len(seen), relabelled[0]))
        return out

    monkeypatch.setattr(train_mod, "make_batches", spy_make_batches)
    monkeypatch.setattr(train_mod, "encode", spy_encode)
    monkeypatch.setattr(train_mod, "adam_step", spy_adam_step)
    return trace


@pytest.mark.parametrize("objective", ["multi", "single"])
def test_training_matches_dense_oracle(monkeypatch, objective):
    # the first three steps run the single objective at the warm-up rate
    cfg = _small_cfg(
        epochs=3, k_positives=2, use_hard_negatives=True, warmup_enabled=True, warmup_steps=3,
        objective=objective, hash_bits=10,
    )
    trace = _spy_prefix(monkeypatch)
    sparse = train(cfg, [], dataset_fn=_oracle_groups)
    # every step relabelled, and Adam ran on exactly the rows touched so
    # far, a prefix of the table
    assert all(relabelled and live == seen for live, seen, relabelled in trace)
    assert trace[-1][0] < 1 << cfg.hash_bits

    train_mod = sys.modules["multipos.train"]
    encode, encoded = train_mod.encode, []

    def spy_encode(params, seqs):
        encoded[:] = [seqs]
        return encode(params, seqs)

    monkeypatch.setattr(train_mod, "encode", spy_encode)
    monkeypatch.setattr(
        train_mod, "encode_backward", lambda p, cache, g: dense_encode_backward(p, encoded[0], cache, g)
    )
    monkeypatch.setattr(train_mod, "adam_step", dense_adam_step)
    dense = train(cfg, [], dataset_fn=_oracle_groups)

    assert [r.loss for r in sparse.records] == [r.loss for r in dense.records]
    assert sparse.opt_state.step == dense.opt_state.step == 6
    for name in ("embedding_table", "projection"):
        assert getattr(sparse.params, name).tobytes() == getattr(dense.params, name).tobytes()
    for name in ("m_table", "m_projection", "v_table", "v_projection"):
        assert getattr(sparse.opt_state, name).tobytes() == getattr(dense.opt_state, name).tobytes()


@pytest.mark.parametrize("max_grad_norm", [None, 1e-3])
@pytest.mark.parametrize("hash_bits", [4, 10])
@pytest.mark.parametrize("objective", ["multi", "single"])
def test_training_matches_hashed_order_oracle(tmp_path, monkeypatch, objective, hash_bits, max_grad_norm):
    # warm-up crosses into the main phase; hard negatives and an empty text
    cfg = _small_cfg(
        epochs=3, k_positives=2, use_hard_negatives=True, warmup_enabled=True, warmup_steps=3,
        objective=objective, hash_bits=hash_bits, max_grad_norm=max_grad_norm,
    )
    train_mod = sys.modules["multipos.train"]
    clip = train_mod._clip_grads
    norms, clipped = [], []

    def spy_clip(grads, max_norm):
        norms.append(math.hypot(np.linalg.norm(grads.embedding_table), np.linalg.norm(grads.projection)))
        clip(grads, max_norm)
        clipped.append(grads.projection.tobytes())  # scaled by max_norm / the norm summed

    monkeypatch.setattr(train_mod, "_clip_grads", spy_clip)
    trace = _spy_prefix(monkeypatch)
    got = train(cfg, [], out_dir=str(tmp_path / "got"), dataset_fn=_oracle_groups)
    (tmp_path / "want").mkdir()
    params, opt, losses = hashed_train(cfg, _oracle_groups, str(tmp_path / "want"))

    assert [r.loss for r in got.records] == losses
    for name in ("embedding_table", "projection"):
        assert getattr(got.params, name).tobytes() == getattr(params, name).tobytes()
    for name in ("m_table", "m_projection", "v_table", "v_projection"):
        assert getattr(got.opt_state, name).tobytes() == getattr(opt, name).tobytes()
    names = [f"epoch_{e:04d}.ckpt" for e in (1, 2, 3)] + ["final.ckpt"]
    assert [os.path.basename(p) for p in got.checkpoint_paths] == names
    for name in names:
        assert (tmp_path / "got" / name).read_bytes() == (tmp_path / "want" / name).read_bytes()
    if max_grad_norm is not None:
        # the clip fired at every step of both runs, and the norms it summed
        # were equal to the last bit
        assert len(norms) == 12 and min(norms) > max_grad_norm
        assert clipped[:6] == clipped[6:]

    # every step encoded stored positions and Adam ran on exactly the rows
    # touched so far; a 16-row table is full from the second step on
    assert all(relabelled and live == seen for live, seen, relabelled in trace)
    assert (trace[1][0] == 1 << hash_bits) == (hash_bits == 4)
    live = got.opt_state.live  # in hashed order again: every row from it on has all-zero moment bits
    assert not opt.m_table[live:].view(np.uint32).any() and not opt.v_table[live:].view(np.uint32).any()


def test_clip_grads():
    g = full_grads(np.full((2, 2), 3.0), np.full((2, 2), 4.0))
    _clip_grads(g, 5.0)  # total norm is 10, so everything halves
    assert np.array_equal(densify(g, 2), np.full((2, 2), 1.5))
    assert np.array_equal(g.projection, np.full((2, 2), 2.0))
    before = densify(g, 2)
    _clip_grads(g, 100.0)
    assert np.array_equal(densify(g, 2), before)


def test_training_with_clipping_runs():
    res = train(_small_cfg(max_grad_norm=0.5), _groups(6))
    assert all(math.isfinite(r.loss) for r in res.records)


def test_write_log_jsonl(tmp_path):
    res = train(_small_cfg(), _groups(4))
    path = tmp_path / "log.jsonl"
    write_log_jsonl(res.records, str(path))
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == len(res.records)
    rec = json.loads(lines[0])
    assert set(rec) == {"step", "phase", "objective", "lr", "loss", "wall_ms"}
    assert rec["step"] == 0 and rec["objective"] == "multi"


def test_loss_decreases_over_epochs():
    groups, _ = gen_cipher_corpus(60, 6, 4, 0, 360, seed=0)
    cfg = TrainConfig(
        batch_size=16,
        k_positives=3,
        epochs=5,
        tau=1.0,
        lr_main=6e-3,
        warmup_enabled=False,
        hash_bits=12,
        dim=32,
    )
    res = train(cfg, groups)
    steps_per_epoch = len(res.records) // cfg.epochs
    means = [
        float(np.mean([r.loss for r in res.records[e * steps_per_epoch : (e + 1) * steps_per_epoch]]))
        for e in range(cfg.epochs)
    ]
    assert means[-1] < means[0]
    regressions = sum(1 for a, b in zip(means, means[1:]) if b >= a)
    assert regressions <= 1, means
