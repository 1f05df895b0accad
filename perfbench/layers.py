"""Per-layer metrics from the spans of one traced set-up and traced rounds.

Names ending in .p50/.p90 are percentiles over the calls of all traced
rounds pooled; other `.ms` and count metrics are totals per round,
averaged over the traced rounds (set-up metrics: over one set-up). A
layer that does not run on a workload reads 0. MB means 2**20 bytes.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

MB = float(1 << 20)

PER_LAYER = [
    ("data.make_batches.batch_ms.p50", "ms"),
    ("data.tokenize.calls", "count"),
    ("data.groups_to_pairs.ms", "ms"),
    ("data.read_groups_jsonl.ms", "ms"),
    ("data.gen_cipher_corpus.ms", "ms"),
    ("encoder.encode.ms.p50", "ms"),
    ("encoder.encode.rows", "count"),
    ("encoder.encode_backward.ms.p50", "ms"),
    ("encoder.adam_step.ms.p50", "ms"),
    ("encoder.grad_table_mb", "MB"),
    ("encoder.rows_touched.p50", "count"),
    ("encoder.table_rows", "count"),
    ("encoder.save_checkpoint.ms", "ms"),
    ("encoder.load_checkpoint.ms", "ms"),
    ("encoder.checkpoint_mb", "MB"),
    ("losses.multi_positive_loss.ms.p50", "ms"),
    ("losses.single_positive_loss.ms.p50", "ms"),
    ("train.steps", "count"),
    ("train.step_ms.p50", "ms"),
    ("train.step_ms.p90", "ms"),
    ("train.self_ms.p50", "ms"),
    ("evaluation.encode_texts.ms", "ms"),
    ("evaluation.retrieval_accuracy.ms", "ms"),
    ("evaluation.mine_pairs_f1.ms", "ms"),
    ("evaluation.sts_eval.ms", "ms"),
    ("evaluation.linear_probe.ms", "ms"),
    ("cli.self_ms", "ms"),
    ("trace.overhead_s", "s"),
]

# Ratios are printed as value / base.
RATIO_BASES = {
    "encoder.rows_touched.p50": "encoder.table_rows",
    "train.self_ms.p50": "train.step_ms.p50",
    "data.make_batches.batch_ms.p50": "train.step_ms.p50",
    "encoder.adam_step.ms.p50": "train.step_ms.p50",
    "encoder.encode_backward.ms.p50": "train.step_ms.p50",
}


class _Spans:
    """The spans of one or more trace files, indexed by name."""

    def __init__(self, traces: list[dict]) -> None:
        self.by_name: dict[str, list[dict]] = defaultdict(list)
        self.counts: dict[str, int] = defaultdict(int)
        self.child_ms: dict[int, float] = {}
        for trace in traces:
            children: dict[int, float] = defaultdict(float)
            for span in trace["spans"]:
                if span["parent"] is not None:
                    children[span["parent"]] += _ms(span)
            for span in trace["spans"]:
                self.by_name[span["name"]].append(span)
                self.child_ms[id(span)] = children[span["id"]]
            for name, n in trace["counts"].items():
                self.counts[name] += n

    def ms(self, name: str) -> list[float]:
        return [_ms(s) for s in self.by_name[name]]

    def attr(self, name: str, key: str) -> list[float]:
        return [s["attrs"][key] for s in self.by_name[name]]

    def self_ms(self, name: str) -> list[float]:
        return [_ms(s) - self.child_ms[id(s)] for s in self.by_name[name]]


def _ms(span: dict) -> float:
    return (span["t1"] - span["t0"]) * 1e3


def _pct(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def round_metrics(traces: list[dict], rounds: int = 1) -> dict[str, float]:
    """Metrics of traced rounds, given the trace of each command they ran."""
    s = _Spans(traces)

    def total(name: str) -> float:
        return sum(s.ms(name)) / rounds

    ckpt_bytes = s.attr("encoder.save_checkpoint", "bytes") + s.attr("encoder.load_checkpoint", "bytes")
    out = {
        "data.make_batches.batch_ms.p50": _pct(s.ms("data.make_batches"), 50),
        "data.tokenize.calls": s.counts["data.tokenize"] / rounds,
        "data.groups_to_pairs.ms": total("data.groups_to_pairs"),
        "data.read_groups_jsonl.ms": total("data.read_groups_jsonl"),
        "encoder.encode.ms.p50": _pct(s.ms("encoder.encode"), 50),
        "encoder.encode.rows": sum(s.attr("encoder.encode", "rows")) / rounds,
        "encoder.encode_backward.ms.p50": _pct(s.ms("encoder.encode_backward"), 50),
        "encoder.adam_step.ms.p50": _pct(s.ms("encoder.adam_step"), 50),
        "encoder.grad_table_mb": _pct(s.attr("encoder.encode_backward", "grad_table_bytes"), 50) / MB,
        "encoder.rows_touched.p50": _pct(s.attr("encoder.encode_backward", "rows_touched"), 50),
        "encoder.table_rows": max(s.attr("encoder.encode_backward", "table_rows"), default=0),
        "encoder.save_checkpoint.ms": total("encoder.save_checkpoint"),
        "encoder.load_checkpoint.ms": total("encoder.load_checkpoint"),
        "encoder.checkpoint_mb": ckpt_bytes[0] / MB if ckpt_bytes else 0.0,
        "losses.multi_positive_loss.ms.p50": _pct(s.ms("losses.multi_positive_loss"), 50),
        "losses.single_positive_loss.ms.p50": _pct(s.ms("losses.single_positive_loss"), 50),
        "train.steps": len(s.by_name["train.step"]) / rounds,
        "train.step_ms.p50": _pct(s.ms("train.step"), 50),
        "train.step_ms.p90": _pct(s.ms("train.step"), 90),
        "train.self_ms.p50": _pct(s.self_ms("train.step"), 50),
        "cli.self_ms": sum(s.self_ms("cli.run")) / rounds,
    }
    for fn in ("encode_texts", "retrieval_accuracy", "mine_pairs_f1", "sts_eval", "linear_probe"):
        out[f"evaluation.{fn}.ms"] = total(f"evaluation.{fn}")
    return out


def layer_metrics(setup_trace: dict, rounds: list[list[dict]], overhead_s: float) -> dict[str, float]:
    """Round metrics over all traced rounds, plus set-up totals.

    data.read_groups_jsonl.ms counts the set-up's reads and one round's.
    """
    out = round_metrics([t for traces in rounds for t in traces], max(len(rounds), 1))
    setup = _Spans([setup_trace])
    out["data.gen_cipher_corpus.ms"] = sum(setup.ms("data.gen_cipher_corpus"))
    out["data.read_groups_jsonl.ms"] += sum(setup.ms("data.read_groups_jsonl"))
    out["trace.overhead_s"] = overhead_s
    return {name: out[name] for name, _ in PER_LAYER}
