"""Two-phase contrastive training with deterministic scheduling.

Steps below warmup_steps run the single-positive objective at the
warm-up rate with one positive drawn per group per step; afterwards
the configured objective runs at the main rate. Given the same config
and seed, two runs produce bit-identical checkpoints.
"""

from __future__ import annotations

import glob
import json
import math
import numbers
import os
import time
from dataclasses import asdict, dataclass, field, fields
from typing import Callable, Sequence

import numpy as np

from .data import SentenceGroup, TokenCache, check_fit, make_batches
from .encoder import (
    _CHUNK_VALUES,
    MAX_HASH_BITS,
    ModelParams,
    OptimizerState,
    ParamGrads,
    adam_step,
    encode,
    encode_backward,
    save_checkpoint,
)
from .losses import NORMALIZATIONS, multi_positive_loss, single_positive_loss

OBJECTIVES = ("single", "multi")


# The values a TrainConfig field of each annotation takes. A bool is an
# int to Python, so only a bool field takes one.
_FIELD_TYPES = {
    "int": numbers.Integral,
    "float": numbers.Real,
    "float | None": (numbers.Real, type(None)),
    "bool": bool,
    "str": str,
}


class NonFiniteLossError(FloatingPointError):
    """Training hit a NaN or infinite loss."""


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
        for f in fields(self):
            value = getattr(self, f.name)
            is_bool = isinstance(value, bool)
            if not isinstance(value, _FIELD_TYPES[f.type]) or is_bool != (f.type == "bool"):
                raise ValueError(f"{f.name} must be {f.type}, got {value!r}")
        if self.batch_size < 2:
            raise ValueError(f"batch_size must be at least 2, got {self.batch_size}")
        if self.max_len < 1:
            raise ValueError(f"max_len must be at least 1, got {self.max_len}")
        if not (self.tau > 0.0 and math.isfinite(self.tau)):
            raise ValueError(f"tau must be positive and finite, got {self.tau}")
        if self.warmup_steps < 0:
            raise ValueError(f"warmup_steps must be >= 0, got {self.warmup_steps}")
        for lr in (self.lr_warmup, self.lr_main):
            if not (lr > 0.0 and math.isfinite(lr)):
                raise ValueError(f"learning rates must be positive and finite, got {lr}")
        if self.k_positives < 1:
            raise ValueError(f"k_positives must be at least 1, got {self.k_positives}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}, got {self.objective!r}")
        if self.normalization not in NORMALIZATIONS:
            raise ValueError(f"unknown normalization {self.normalization!r}")
        if self.max_grad_norm is not None and not self.max_grad_norm > 0.0:
            raise ValueError(f"max_grad_norm must be positive when set, got {self.max_grad_norm}")
        if not (1 <= self.hash_bits <= MAX_HASH_BITS):
            raise ValueError(f"hash_bits must be in [1, {MAX_HASH_BITS}], got {self.hash_bits}")
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
    table = np.empty((1 << cfg.hash_bits, cfg.dim), dtype=np.float32)
    # float32 rounding can land exactly on the interval edge; keep it open.
    edge = np.nextafter(np.float32(0.05), np.float32(0.0))
    # a block at a time: uniform draws one double per value, in order
    chunk = max(1, _CHUNK_VALUES // cfg.dim)
    for lo in range(0, len(table), chunk):
        block = table[lo : lo + chunk]
        block[...] = rng.uniform(-0.05, 0.05, size=block.shape)
        np.clip(block, -edge, edge, out=block)
    return ModelParams(table, np.eye(cfg.dim, dtype=np.float32), cfg.hash_bits, cfg.dim)


class _FirstTouchOrder:
    """The table and both moments stored in the order batches first touch rows.

    Stored position p holds hashed row ids[p], and hashed row h sits at
    pos[h]. Positions [0, opt.live) hold every row a batch has touched,
    so the moments are zero from there on and Adam's update runs on that
    prefix. Before a batch is encoded, its unseen rows swap places with
    the untouched rows just past the prefix, and opt.live grows to cover
    them: both sides have zero moments, so only table rows move.
    Checkpoints gather hashed order through save_checkpoint's rows=pos.
    Each batch's swaps are disjoint and are kept, so undoing them in
    reverse restores the table in place.
    """

    def __init__(self, params: ModelParams, opt: OptimizerState) -> None:
        self.params, self.opt = params, opt
        self.pos = np.arange(len(params.embedding_table))
        self.ids = np.arange(len(params.embedding_table))
        self.swaps: list[np.ndarray] = []  # per batch: a (2, n) array of positions

    def relabel(self, hashed: np.ndarray) -> np.ndarray:
        """Admit the unseen rows of a batch's hashed ids; those ids as stored positions."""
        at = self.pos[hashed]
        live = self.opt.live
        # sorted unique by hand: np.unique imports numpy.ma, 1.6 MB of RSS
        new = np.sort(at[at >= live])
        first = np.ones(len(new), dtype=bool)
        first[1:] = new[1:] != new[:-1]
        new = new[first]
        end = live + len(new)
        inside = new < end
        free = np.ones(len(new), dtype=bool)
        free[new[inside] - live] = False
        pairs = np.stack((new[~inside], live + np.flatnonzero(free)))
        if pairs.size:
            for a in (self.params.embedding_table, self.ids):
                a[pairs] = a[pairs[::-1]]
            self.pos[self.ids[pairs]] = pairs
            self.swaps.append(pairs)
        self.opt.live = end
        return self.pos[hashed]

    def clip(self, grads: ParamGrads, max_norm: float) -> None:
        """Scale grads in place to a norm of at most max_norm, summed over the rows in hashed order.

        Rows outside grads.rows have a zero gradient and add nothing;
        scaling is elementwise, so it runs on the rows as stored."""
        hashed = grads.embedding_table[np.argsort(self.ids[grads.rows])]
        total = math.sqrt(float((hashed**2).sum()) + float((grads.projection**2).sum()))
        if total > max_norm:
            scale = max_norm / total
            grads.embedding_table *= scale
            grads.projection *= scale

    def restore_table(self) -> None:
        """Undo the swaps in reverse: the table in hashed order, the moments as stored."""
        for pairs in reversed(self.swaps):
            self.params.embedding_table[pairs] = self.params.embedding_table[pairs[::-1]]


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
    records: list[TrainLogRecord]
    checkpoint_paths: list[str] = field(default_factory=list)
    dropped_tail_groups: int = 0


def epoch_checkpoints(directory: str) -> list[str]:
    """The epoch checkpoints train() wrote under `directory`, oldest first."""
    return sorted(glob.glob(os.path.join(glob.escape(directory), "epoch_*.ckpt")))


def final_checkpoint(directory: str) -> str:
    """Where train() saves the last parameters under `directory`."""
    return os.path.join(directory, "final.ckpt")


def train(
    cfg: TrainConfig,
    groups: Sequence[SentenceGroup] | Callable[[int], Sequence[SentenceGroup]],
    out_dir: str | None = None,
    tokens: TokenCache | None = None,
) -> TrainResult:
    """Run the full schedule over the dataset from fresh parameters.

    `groups` is the dataset every epoch reuses, or a function from the
    epoch to that epoch's groups (the single arm's pairings), called
    once per epoch. With out_dir, each epoch appends its records to
    log.jsonl before it saves epoch_NNNN.ckpt, and final.ckpt ends the
    run. Every epoch tokenizes through `tokens`, a fresh TokenCache for
    the run when none is given, so each distinct text is tokenized once.

    While training, the table and both moments are stored in the order
    batches first touch their rows (_FirstTouchOrder), so Adam runs on a
    prefix as long as the rows touched so far. Checkpoints and the
    result's table are in hashed row order, and every op is unchanged by
    the order or made to run in hashed order (the clip norm), so the
    bytes equal those of training in hashed order. The Adam moments
    leave a run only in its checkpoints.
    """
    epoch_groups = groups if callable(groups) else lambda epoch: groups

    # Fail on dataset/config mismatches before any step runs or any file
    # is made; make_batches checks every later epoch's groups the same way.
    probe = epoch_groups(0)
    check_fit(probe, cfg.k_positives, cfg.use_hard_negatives)

    if tokens is None:
        tokens = TokenCache()
    params = init_params(cfg, cfg.seed)
    opt = OptimizerState.fresh(params)
    order = _FirstTouchOrder(params, opt)
    records: list[TrainLogRecord] = []
    paths: list[str] = []
    dropped_tail = 0
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        log_path = os.path.join(out_dir, "log.jsonl")
        open(log_path, "w", encoding="utf-8").close()

    def log(recs: list[TrainLogRecord]) -> None:
        if out_dir:
            with open(log_path, "a", encoding="utf-8") as fh:
                fh.write("".join(json.dumps(asdict(rec)) + "\n" for rec in recs))

    step = 0
    for epoch in range(cfg.epochs):
        data = probe if epoch == 0 else epoch_groups(epoch)
        seen = 0
        first = step
        # A step's clock starts where the previous step's stopped, so it
        # covers building its batch and the per-step times add up.
        t0 = time.perf_counter()
        try:
            for batch in make_batches(
                data,
                cfg.batch_size,
                cfg.k_positives,
                [cfg.seed, 1 + epoch],
                max_len=cfg.max_len,
                hash_bits=cfg.hash_bits,
                use_hard_negatives=cfg.use_hard_negatives,
                tokens=tokens,
            ):
                phase, objective, lr = schedule(step, cfg)
                n, k = batch.size, batch.k
                embs, cache = encode(params, batch.lengths, order.relabel(batch.ids))
                anchors = embs[:n]
                positives = embs[n : n + n * k].reshape(n, k, cfg.dim)
                hard = embs[n + n * k :] if batch.has_hard_negatives else None

                grad_rows = np.zeros_like(embs)
                if objective == "single":
                    pick_rng = np.random.default_rng([cfg.seed, 2, step])
                    picked = pick_rng.integers(k, size=n)
                    out = single_positive_loss(anchors, positives[np.arange(n), picked], tau=cfg.tau)
                    grad_rows[n + np.arange(n) * k + picked] = out.grad_positives
                else:
                    out = multi_positive_loss(
                        anchors, positives, hard, tau=cfg.tau, normalization=cfg.normalization
                    )
                    grad_rows[n : n + n * k] = out.grad_positives.reshape(n * k, cfg.dim)
                    if hard is not None:
                        grad_rows[n + n * k :] = out.grad_hard_negatives
                grad_rows[:n] = out.grad_anchor

                if not math.isfinite(out.value):
                    raise NonFiniteLossError(
                        f"loss {out.value} at step {step} (epoch {epoch}, phase {phase}, lr {lr}, "
                        f"anchor langs {sorted(set(batch.anchor_langs))})"
                    )
                grads = encode_backward(params, cache, grad_rows)
                if cfg.max_grad_norm is not None:
                    order.clip(grads, cfg.max_grad_norm)
                adam_step(params, opt, grads, lr)

                t1 = time.perf_counter()
                records.append(TrainLogRecord(step, phase, objective, lr, float(out.value), (t1 - t0) * 1e3))
                t0 = t1
                seen += n
                step += 1
        except Exception:
            # a failed step leaves the steps before it in the log
            log(records[first:])
            raise
        dropped_tail += len(data) - seen
        log(records[first:])
        if out_dir:
            path = os.path.join(out_dir, f"epoch_{epoch + 1:04d}.ckpt")
            save_checkpoint(params, opt, path, rows=order.pos)
            paths.append(path)
    if out_dir:
        path = final_checkpoint(out_dir)
        save_checkpoint(params, opt, path, rows=order.pos)
        paths.append(path)
    order.restore_table()
    return TrainResult(params, records, paths, dropped_tail)
