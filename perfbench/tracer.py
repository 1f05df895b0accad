"""Spans around the public calls of each multipos module, from outside it.

A function is wrapped at the name where its caller looks it up
(`multipos.train.adam_step`, `multipos.cli.encode_texts`, ...), so the
program itself is unchanged. Spans (name, start, end, parent, attrs)
stay in memory and are written as JSON when the traced process ends.

Run as a script, this file is the traced stand-in for the `multipos`
command: `tracer.py TRACE.json -- <multipos arguments>`.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from collections import Counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._stack: list[dict] = []
        self._patched: list[tuple[object, str, object]] = []

    def open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
            "t0": time.perf_counter(),
            "t1": None,
            "attrs": {},
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["t1"] = time.perf_counter()
        if self._stack and self._stack[-1] is span:
            self._stack.pop()

    def discard(self, span: dict) -> None:
        """Drop the latest span when it covered no work (the request past the last batch)."""
        if self.spans[-1] is not span:
            raise RuntimeError(f"span {span['name']} is not the latest one")
        self.spans.pop()
        self._stack.remove(span)

    def _patch(self, module_name: str, attr: str, replacement) -> None:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, replacement(original))

    def wrap(self, module_name: str, attr: str, name: str, attrs_fn=None, ends_step=False) -> None:
        """Time every call; attrs_fn(args, result) adds attributes after the clock stops.

        ends_step marks the call that finishes a training step, which
        closes the open `train.step` span.
        """

        def make(fn):
            def traced(*args, **kwargs):
                span = self.open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.close(span)
                if attrs_fn is not None:
                    span["attrs"].update(attrs_fn(args, result))
                if ends_step and self._stack and self._stack[-1]["name"] == "train.step":
                    self.close(self._stack[-1])
                return result

            return traced

        self._patch(module_name, attr, make)

    def wrap_batches(self, module_name: str, attr: str) -> None:
        """Wrap the batch generator: each step opens as its batch is requested.

        The `train.step` span starts when the trainer asks for the next
        batch and ends when that step's adam_step returns, so batch
        building and tokenisation count towards the step.
        """

        def make(fn):
            def traced(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    step = self.open("train.step")
                    batch = self.open("data.make_batches")
                    try:
                        item = next(gen)
                    except StopIteration:
                        self.discard(batch)
                        self.discard(step)
                        return
                    self.close(batch)
                    yield item

            return traced

        self._patch(module_name, attr, make)

    def count(self, module_name: str, attr: str, name: str) -> None:
        """Count calls without a span, for functions called thousands of times a step."""

        def make(fn):
            def counted(*args, **kwargs):
                self.counts[name] += 1
                return fn(*args, **kwargs)

            return counted

        self._patch(module_name, attr, make)

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def _rows_touched(args, grads) -> dict:
    params, cache = args[0], args[1]
    return {
        "rows_touched": len({i for ids in cache.token_ids for i in ids}),
        "table_rows": int(params.embedding_table.shape[0]),
        "grad_table_bytes": int(grads.embedding_table.nbytes),
    }


def _encoded_rows(args, result) -> dict:
    return {"rows": len(args[1])}


def _file_bytes(args, result) -> dict:
    return {"bytes": os.path.getsize(args[-1])}


def instrument_program(tracer: Tracer) -> None:
    """Wrap the calls a `multipos` command makes into the other modules."""
    tracer.wrap_batches("multipos.train", "make_batches")
    tracer.count("multipos.data", "tokenize", "data.tokenize")
    tracer.wrap("multipos.train", "encode", "encoder.encode", _encoded_rows)
    tracer.wrap("multipos.evaluation", "encode", "encoder.encode", _encoded_rows)
    tracer.wrap("multipos.train", "encode_backward", "encoder.encode_backward", _rows_touched)
    tracer.wrap("multipos.train", "adam_step", "encoder.adam_step", ends_step=True)
    tracer.wrap("multipos.train", "save_checkpoint", "encoder.save_checkpoint", _file_bytes)
    tracer.wrap("multipos.cli", "load_checkpoint", "encoder.load_checkpoint", _file_bytes)
    tracer.wrap("multipos.train", "multi_positive_loss", "losses.multi_positive_loss")
    tracer.wrap("multipos.train", "single_positive_loss", "losses.single_positive_loss")
    tracer.wrap("multipos.cli", "train", "train.train")
    tracer.wrap("multipos.cli", "read_groups_jsonl", "data.read_groups_jsonl")
    tracer.wrap("multipos.cli", "groups_to_pairs", "data.groups_to_pairs")
    tracer.wrap("multipos.cli", "pairs_to_groups", "data.pairs_to_groups")
    for module in ("multipos.cli", "multipos.evaluation"):
        tracer.wrap(module, "encode_texts", "evaluation.encode_texts")
    for fn in ("retrieval_accuracy", "mine_pairs_f1", "sts_eval", "linear_probe"):
        tracer.wrap("multipos.cli", fn, f"evaluation.{fn}")


def instrument_setup(tracer: Tracer) -> None:
    """Wrap the program calls the benchmark makes while it sets up inputs."""
    tracer.wrap("multipos.data", "gen_cipher_corpus", "data.gen_cipher_corpus")
    tracer.wrap("multipos.data", "read_groups_jsonl", "data.read_groups_jsonl")
    tracer.wrap("multipos.data", "write_groups_jsonl", "data.write_groups_jsonl")
    tracer.wrap("multipos.train", "init_params", "train.init_params")


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py TRACE.json -- <multipos arguments>", file=sys.stderr)
        return 1
    tracer = Tracer()
    instrument_program(tracer)
    import multipos.cli

    span = tracer.open("cli.run")
    span["attrs"]["command"] = argv[2] if len(argv) > 2 else ""
    try:
        outcome = multipos.cli.run(argv[2:])
    finally:
        tracer.close(span)
        tracer.dump(argv[0])
    return outcome.exit_code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
