"""Two-phase contrastive training with deterministic scheduling.

Steps below warmup_steps run the single-positive objective at the
warm-up rate with one positive drawn per group per step; afterwards
the configured objective runs at the main rate. Given the same config
and seed, two runs produce bit-identical checkpoints.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import asdict, dataclass, field, fields
from typing import Callable, Sequence

import numpy as np

from .data import SentenceGroup, make_batches
from .encoder import (
    ModelParams,
    OptimizerState,
    ParamGrads,
    adam_step,
    encode,
    encode_backward,
    save_checkpoint,
)
from .losses import NORMALIZATIONS, LossConfig, multi_positive_loss, single_positive_loss

OBJECTIVES = ("single", "multi")


class NonFiniteLossError(FloatingPointError):
    """Training hit a NaN or infinite loss."""


class DatasetMismatchError(ValueError):
    """The dataset does not fit the config; raised before any step runs."""


@dataclass
class TrainConfig:
    batch_size: int = 128
    max_len: int = 64
    tau: float = 0.05
    warmup_steps: int = 2000
    lr_warmup: float = 2e-5
    lr_main: float = 1e-5
    k_positives: int = 5
    epochs: int = 1
    seed: int = 0
    objective: str = "multi"
    warmup_enabled: bool = True
    use_hard_negatives: bool = False
    normalization: str = "min_max"
    max_grad_norm: float | None = None
    hash_bits: int = 16
    dim: int = 64

    def __post_init__(self) -> None:
        if self.batch_size < 2:
            raise ValueError(f"batch_size must be at least 2, got {self.batch_size}")
        if self.max_len < 1:
            raise ValueError(f"max_len must be at least 1, got {self.max_len}")
        if not self.tau > 0.0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.warmup_steps < 0:
            raise ValueError(f"warmup_steps must be >= 0, got {self.warmup_steps}")
        if not (self.lr_warmup > 0.0 and self.lr_main > 0.0):
            raise ValueError("learning rates must be positive")
        if self.k_positives < 1:
            raise ValueError(f"k_positives must be at least 1, got {self.k_positives}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}, got {self.objective!r}")
        if self.normalization not in NORMALIZATIONS:
            raise ValueError(f"unknown normalization {self.normalization!r}")
        if self.max_grad_norm is not None and not self.max_grad_norm > 0.0:
            raise ValueError(f"max_grad_norm must be positive when set, got {self.max_grad_norm}")
        if not (1 <= self.hash_bits <= 24):
            raise ValueError(f"hash_bits must be in [1, 24], got {self.hash_bits}")
        if self.dim < 1:
            raise ValueError(f"dim must be at least 1, got {self.dim}")


def load_config(source) -> TrainConfig:
    """Build a TrainConfig from a JSON file path or a dict.

    Missing keys take defaults; unknown keys are an error so typos
    cannot silently change a run.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, encoding="utf-8") as fh:
            obj = json.load(fh)
    else:
        obj = dict(source)
    if not isinstance(obj, dict):
        raise ValueError("config must be a JSON object")
    known = {f.name for f in fields(TrainConfig)}
    unknown = sorted(set(obj) - known)
    if unknown:
        raise ValueError(f"unknown config keys: {unknown}")
    return TrainConfig(**obj)


def _clip_grads(grads: ParamGrads, max_norm: float) -> None:
    # rows outside grads.rows have a zero gradient and add nothing to the norm
    total = math.sqrt(
        float((grads.embedding_table**2).sum()) + float((grads.projection**2).sum())
    )
    if total > max_norm:
        scale = max_norm / total
        grads.embedding_table *= scale
        grads.projection *= scale


def schedule(step: int, cfg: TrainConfig) -> tuple[str, str, float]:
    """Phase, objective and learning rate for a global step index."""
    if step < 0:
        raise ValueError(f"step must be >= 0, got {step}")
    if cfg.warmup_enabled and step < cfg.warmup_steps:
        return ("warmup", "single", cfg.lr_warmup)
    return ("main", cfg.objective, cfg.lr_main)


def init_params(cfg: TrainConfig, seed) -> ModelParams:
    """Fresh parameters: uniform(-0.05, 0.05) table, identity projection."""
    rng = np.random.default_rng(seed)
    rows = 1 << cfg.hash_bits
    table = rng.uniform(-0.05, 0.05, size=(rows, cfg.dim)).astype(np.float32)
    # float32 rounding can land exactly on the interval edge; keep it open.
    edge = np.nextafter(np.float32(0.05), np.float32(0.0))
    np.clip(table, -edge, edge, out=table)
    return ModelParams(table, np.eye(cfg.dim, dtype=np.float32), cfg.hash_bits, cfg.dim)


@dataclass
class TrainLogRecord:
    step: int
    phase: str
    objective: str
    lr: float
    loss: float
    wall_ms: float


@dataclass
class TrainResult:
    params: ModelParams
    opt_state: OptimizerState
    records: list[TrainLogRecord]
    checkpoint_paths: list[str] = field(default_factory=list)
    dropped_tail_groups: int = 0


def train(
    cfg: TrainConfig,
    groups: Sequence[SentenceGroup],
    out_dir: str | None = None,
    dataset_fn: Callable[[int], Sequence[SentenceGroup]] | None = None,
) -> TrainResult:
    """Run the full schedule over the dataset from fresh parameters.

    Saves a checkpoint per epoch end plus a final one when out_dir is
    given. dataset_fn, when set, supplies the groups for each epoch
    (the single arm's pairings); otherwise the static dataset is
    reused every epoch.
    """
    if dataset_fn is None and len(groups) == 0:
        raise DatasetMismatchError("empty dataset")

    def epoch_groups(epoch: int) -> Sequence[SentenceGroup]:
        return dataset_fn(epoch) if dataset_fn is not None else groups

    # Fail on dataset/config mismatches before any step runs.
    probe = epoch_groups(0)
    for g in probe:
        if len(g.texts) < cfg.k_positives + 1:
            raise DatasetMismatchError(
                f"group {g.id!r} has {len(g.texts)} languages, need {cfg.k_positives + 1} "
                f"(k_positives={cfg.k_positives} plus the anchor)"
            )
        if cfg.use_hard_negatives and not g.hard_negatives:
            raise DatasetMismatchError(f"group {g.id!r} lacks hard negatives")

    params = init_params(cfg, cfg.seed)
    opt = OptimizerState.fresh(params)
    loss_cfg = LossConfig(tau=cfg.tau, normalization=cfg.normalization)
    records: list[TrainLogRecord] = []
    paths: list[str] = []
    dropped_tail = 0
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)

    step = 0
    for epoch in range(cfg.epochs):
        data = probe if epoch == 0 else epoch_groups(epoch)
        seen = 0
        # A step's clock starts where the previous step's stopped, so it
        # covers building its batch and the per-step times add up.
        t0 = time.perf_counter()
        for batch in make_batches(
            data,
            cfg.batch_size,
            cfg.k_positives,
            [cfg.seed, 1 + epoch],
            max_len=cfg.max_len,
            hash_bits=cfg.hash_bits,
            use_hard_negatives=cfg.use_hard_negatives,
        ):
            phase, objective, lr = schedule(step, cfg)
            n = batch.size
            k = len(batch.positives[0])
            flat = list(batch.anchors)
            for row in batch.positives:
                flat.extend(row)
            if batch.hard_negatives:
                flat.extend(batch.hard_negatives)
            embs, cache = encode(params, flat)
            anchors = embs[:n]
            positives = embs[n : n + n * k].reshape(n, k, cfg.dim)
            hard = embs[n + n * k :] if batch.hard_negatives else None

            grad_rows = np.zeros_like(embs)
            if objective == "single":
                pick_rng = np.random.default_rng([cfg.seed, 2, step])
                picked = pick_rng.integers(k, size=n)
                out = single_positive_loss(anchors, positives[np.arange(n), picked], loss_cfg)
                grad_rows[:n] = out.grad_anchor
                pos_grads = np.zeros_like(positives)
                pos_grads[np.arange(n), picked] = out.grad_positives
                grad_rows[n : n + n * k] = pos_grads.reshape(n * k, cfg.dim)
            else:
                out = multi_positive_loss(anchors, positives, hard, loss_cfg)
                grad_rows[:n] = out.grad_anchor
                grad_rows[n : n + n * k] = out.grad_positives.reshape(n * k, cfg.dim)
                if hard is not None:
                    grad_rows[n + n * k :] = out.grad_hard_negatives

            if not math.isfinite(out.value):
                raise NonFiniteLossError(
                    f"loss {out.value} at step {step} (epoch {epoch}, phase {phase}, lr {lr}, "
                    f"anchor langs {sorted(set(batch.anchor_langs))})"
                )
            grads = encode_backward(params, cache, grad_rows)
            if cfg.max_grad_norm is not None:
                _clip_grads(grads, cfg.max_grad_norm)
            adam_step(params, opt, grads, lr)

            t1 = time.perf_counter()
            rec = TrainLogRecord(step, phase, objective, lr, float(out.value), (t1 - t0) * 1e3)
            t0 = t1
            records.append(rec)
            seen += n
            step += 1
        dropped_tail += len(data) - seen
        if out_dir:
            path = os.path.join(out_dir, f"epoch_{epoch + 1:04d}.ckpt")
            save_checkpoint(params, opt, path)
            paths.append(path)
    if out_dir:
        path = os.path.join(out_dir, "final.ckpt")
        save_checkpoint(params, opt, path)
        paths.append(path)
    return TrainResult(params, opt, records, paths, dropped_tail)


def write_log_jsonl(records: Sequence[TrainLogRecord], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(asdict(rec)) + "\n")
