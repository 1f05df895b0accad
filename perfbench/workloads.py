"""The benchmark's workloads: inputs from a seed, one round of commands, checks.

A round is the sequence of `multipos` commands a user would run for
the task; each command is one operation and runs in its own process.
Inputs are generated with the program's own corpus generator and
writers, so the program only ever sees files.
"""

from __future__ import annotations

import glob
import importlib
import json
import os
from pathlib import Path

import numpy as np

from checks import (
    CheckFailed,
    check_above_chance,
    check_close,
    check_equal,
    encode_rows,
    minmax_multi_positive_loss,
    mining_sweep,
    rank_correlation,
    read_checkpoint,
    require,
    top1_accuracy,
)
from multipos.encoder import ModelParams
from multipos.evaluation import encode_texts

# Module objects, looked up at call time so the traced set-up can wrap them
# (`multipos.train` the attribute is the train() function, not the module).
mdata = importlib.import_module("multipos.data")
mtrain = importlib.import_module("multipos.train")

SENTENCE_LEN = 8
SEEN_LANGS = 6


def _trained_rows(n_groups: int, batch_size: int, rows_per_group: int) -> int:
    """Sentences one epoch encodes; a last batch of one group is dropped."""
    used = n_groups - 1 if n_groups % batch_size == 1 else n_groups
    return used * rows_per_group


def _write_and_reread(groups, path: Path) -> None:
    mdata.write_groups_jsonl(groups, str(path))
    if mdata.read_groups_jsonl(str(path)) != groups:
        raise CheckFailed(f"{path}: groups read back differ from the groups written")


def _write_lines(path: Path, lines) -> str:
    path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    return str(path)


def _load_report(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class Compare:
    """`multipos compare`: both arms, one seed, the shipped desk recipe."""

    name = "compare"
    setups = 9
    concepts = 500
    epochs = 1
    batch_size = 32
    k = 5
    # Retrieval must beat the 1/concepts chance rate by these factors.
    seen_factor = 25.0
    heldout_factor = 10.0

    def setup(self, d: Path, seed: int, run) -> dict:
        groups, heldout = mdata.gen_cipher_corpus(
            self.concepts, SENTENCE_LEN, SEEN_LANGS, 1, self.concepts * SENTENCE_LEN, [seed, 1]
        )
        _write_and_reread(groups, d / "groups.jsonl")
        _write_and_reread(heldout, d / "heldout.jsonl")
        return {"seed": seed, "groups": str(d / "groups.jsonl"), "heldout": str(d / "heldout.jsonl")}

    def round(self, inputs: dict, out: Path, run) -> list[Path]:
        report = out / "report.json"
        run(
            "compare", "--data", inputs["groups"], "--heldout", inputs["heldout"],
            "--seeds", "1", "--seed", str(inputs["seed"]), "--epochs", str(self.epochs),
            "--out", str(report),
        )
        return [report]

    def sentences(self, inputs: dict) -> int:
        pairs = self.concepts * (SEEN_LANGS // 2)
        train_rows = _trained_rows(self.concepts, self.batch_size, 1 + self.k) + _trained_rows(
            pairs, self.batch_size, 2
        )
        # each arm then encodes every seen language once, plus the held-out language and its pivot
        eval_rows = self.concepts * (SEEN_LANGS + 2)
        return self.epochs * train_rows + 2 * eval_rows

    def check(self, inputs: dict, out: Path) -> list[str]:
        report = _load_report(out / "report.json")
        chance = 1.0 / self.concepts
        cfg = report["config"]
        check_equal("recipe", (cfg["batch_size"], cfg["k_positives"], cfg["hash_bits"], cfg["tau"], cfg["epochs"]),
                    (self.batch_size, self.k, 15, 1.0, self.epochs))
        for arm in ("multiple", "single"):
            runs = report["arms"][arm]["runs"]
            check_equal(f"{arm} runs", len(runs), 1)
            check_above_chance(f"{arm} seen_retrieval", runs[0]["seen_retrieval"], chance, self.seen_factor)
            check_above_chance(f"{arm} heldout_retrieval", runs[0]["heldout_retrieval"], chance,
                               self.heldout_factor)
        return [
            f"both arms: seen-language retrieval >= {self.seen_factor:g}x chance",
            f"both arms: held-out retrieval >= {self.heldout_factor:g}x chance",
        ]


class WideBatch:
    """`multipos train` at batch 128 with hard negatives on a small table."""

    name = "wide_batch"
    setups = 7
    concepts = 1536
    epochs = 2
    config = {
        "batch_size": 128, "k_positives": 5, "use_hard_negatives": True, "hash_bits": 11,
        "tau": 1.0, "lr_main": 6e-3, "warmup_enabled": False,
    }

    def setup(self, d: Path, seed: int, run) -> dict:
        groups, _ = mdata.gen_cipher_corpus(
            self.concepts, SENTENCE_LEN, SEEN_LANGS, 0, self.concepts * SENTENCE_LEN, [seed, 2]
        )
        # A group's hard negative shares the first half of its sentence and
        # takes the second half from the next concept, per language.
        half = SENTENCE_LEN // 2
        records = [
            (lang, g.id, " ".join(g.texts[lang].split()[:half] + nxt.texts[lang].split()[half:]))
            for g, nxt in zip(groups, groups[1:] + groups[:1])
            for lang in sorted(g.texts)
        ]
        mdata.attach_hard_negatives(groups, records)
        _write_and_reread(groups, d / "groups.jsonl")
        cfg = {**self.config, "epochs": self.epochs, "seed": seed}
        (d / "config.json").write_text(json.dumps(cfg), encoding="utf-8")
        tcfg = mtrain.load_config(cfg)
        params = mtrain.init_params(tcfg, tcfg.seed)
        first = next(mdata.make_batches(
            groups, tcfg.batch_size, tcfg.k_positives, [tcfg.seed, 1], max_len=tcfg.max_len,
            hash_bits=tcfg.hash_bits, use_hard_negatives=True,
        ))
        return {"groups": str(d / "groups.jsonl"), "config": str(d / "config.json"), "tcfg": tcfg,
                "params": params, "first_batch": first}

    def round(self, inputs: dict, out: Path, run) -> list[Path]:
        run("train", "--config", inputs["config"], "--data", inputs["groups"], "--out", str(out / "model"))
        return sorted((out / "model").glob("*.ckpt"))

    def steps_per_epoch(self) -> int:
        bs = self.config["batch_size"]
        return self.concepts // bs + (1 if self.concepts % bs >= 2 else 0)

    def sentences(self, inputs: dict) -> int:
        rows = 1 + self.config["k_positives"] + 1
        return self.epochs * _trained_rows(self.concepts, self.config["batch_size"], rows)

    def check(self, inputs: dict, out: Path) -> list[str]:
        model = out / "model"
        with open(model / "log.jsonl", encoding="utf-8") as fh:
            log = [json.loads(line) for line in fh]
        spe = self.steps_per_epoch()
        check_equal("logged steps", len(log), self.epochs * spe)

        params, batch = inputs["params"], inputs["first_batch"]
        k = len(batch.positives[0])

        def enc(id_lists):
            return encode_rows(params.embedding_table, params.projection, id_lists)

        positives = enc([ids for row in batch.positives for ids in row])
        want = minmax_multi_positive_loss(
            enc(batch.anchors),
            [positives[i * k : (i + 1) * k] for i in range(batch.size)],
            enc(batch.hard_negatives),
            inputs["tcfg"].tau,
        )
        check_close("step-0 loss", log[0]["loss"], want, 1e-9)

        first = np.mean([r["loss"] for r in log[:spe]])
        last = np.mean([r["loss"] for r in log[-spe:]])
        require(last < first, f"last epoch mean loss {last} is not below the first epoch's {first}")

        for e in range(1, self.epochs + 1):
            ckpt = read_checkpoint(str(model / f"epoch_{e:04d}.ckpt"))
            check_equal(f"epoch {e} checkpoint Adam step", ckpt["step"], e * spe)
            check_equal(f"epoch {e} checkpoint hash_bits", ckpt["hash_bits"], self.config["hash_bits"])
        final = read_checkpoint(str(model / "final.ckpt"))
        check_equal("final.ckpt Adam step", final["step"], len(log))
        return [
            "step-0 loss equals the plain-Python min-max multi-positive loss (rtol 1e-9)",
            f"last epoch mean loss {last:.4f} < first epoch mean loss {first:.4f}",
            f"{self.epochs + 1} checkpoints parse with a valid CRC32; Adam steps match the log",
        ]


class Eval:
    """`multipos eval`: checkpoint selection, retrieval, mining, STS and a probe."""

    name = "eval"
    setups = 3
    dev = 400
    test = 1600
    mined_gold = 1200
    sts_pairs = 1000
    probe_classes = 50
    probe_factor = 10.0
    train_config = {
        "batch_size": 128, "k_positives": 5, "hash_bits": 15, "tau": 1.0, "lr_main": 6e-3,
        "warmup_enabled": False, "epochs": 2,
    }

    def setup(self, d: Path, seed: int, run) -> dict:
        n = self.dev + self.test
        groups, heldout = mdata.gen_cipher_corpus(n, SENTENCE_LEN, SEEN_LANGS, 1, n * SENTENCE_LEN, [seed, 3])
        _write_and_reread(groups, d / "groups.jsonl")
        (d / "config.json").write_text(json.dumps({**self.train_config, "seed": seed}), encoding="utf-8")
        rng = np.random.default_rng([seed, 4])
        h0 = [g.texts["h0"] for g in heldout]
        l0 = [g.texts["l0"] for g in heldout]
        dev, test = range(self.dev), range(self.dev, n)
        inp = {
            "model": str(d / "model"),
            "dev_src": _write_lines(d / "dev_src.txt", (h0[i] for i in dev)),
            "dev_tgt": _write_lines(d / "dev_tgt.txt", (l0[i] for i in dev)),
            "test_src": _write_lines(d / "test_src.txt", (h0[i] for i in test)),
            "test_tgt": _write_lines(d / "test_tgt.txt", (l0[i] for i in test)),
        }
        # Mining: every test source against targets of which mined_gold share
        # a concept with some source and the rest are dev concepts.
        src_c = [int(c) for c in rng.permutation(test)]
        tgt_c = [int(c) for c in rng.permutation(list(rng.permutation(test)[: self.mined_gold]) + list(dev))]
        where = {c: i for i, c in enumerate(src_c)}
        gold = sorted((where[c], j) for j, c in enumerate(tgt_c) if c in where)
        inp["mine_src"] = _write_lines(d / "mine_src.txt", (h0[c] for c in src_c))
        inp["mine_tgt"] = _write_lines(d / "mine_tgt.txt", (l0[c] for c in tgt_c))
        inp["mine_gold"] = _write_lines(d / "mine_gold.tsv", (f"{i}\t{j}" for i, j in gold))
        # STS: a held-out sentence against a pivot sentence whose first m of
        # its words come from the same concept; gold similarity is m / len.
        rows = []
        for _ in range(self.sts_pairs):
            c, other = (int(x) for x in rng.choice(test, size=2, replace=False))
            m = int(rng.integers(SENTENCE_LEN + 1))
            mixed = l0[c].split()[:m] + l0[other].split()[m:]
            rows.append(f"{h0[c]}\t{' '.join(mixed)}\t{m / SENTENCE_LEN!r}")
        inp["sts"] = _write_lines(d / "sts.tsv", rows)
        # Probe: concept labels, trained on five seen languages, tested on h0.
        classes = [int(c) for c in rng.choice(test, size=self.probe_classes, replace=False)]
        inp["cls_train"] = _write_lines(
            d / "cls_train.tsv",
            (f"c{c}\t{heldout[c].texts[lang]}" for c in classes for lang in ("l1", "l2", "l3", "l4", "l5")),
        )
        inp["cls_test"] = _write_lines(d / "cls_test.tsv", (f"c{c}\t{h0[c]}" for c in classes))
        if run("train", "--config", str(d / "config.json"), "--data", str(d / "groups.jsonl"),
               "--out", inp["model"]) != 0:
            raise CheckFailed("set-up training exited non-zero")
        return inp

    def round(self, inputs: dict, out: Path, run) -> list[Path]:
        reports = [out / f"{task}.json" for task in ("retrieval", "mine", "sts", "classify")]
        code = run(
            "eval", "--task", "retrieval", "--checkpoint-dir", inputs["model"],
            "--dev-src", inputs["dev_src"], "--dev-tgt", inputs["dev_tgt"],
            "--src", inputs["test_src"], "--tgt", inputs["test_tgt"], "--both-directions",
            "--out", str(reports[0]),
        )
        chosen = _load_report(reports[0])["metadata"]["checkpoint"] if code == 0 else "missing.ckpt"
        run("eval", "--task", "mine", "--checkpoint", chosen, "--src", inputs["mine_src"],
            "--tgt", inputs["mine_tgt"], "--gold", inputs["mine_gold"], "--out", str(reports[1]))
        run("eval", "--task", "sts", "--checkpoint", chosen, "--pairs", inputs["sts"], "--out", str(reports[2]))
        run("eval", "--task", "classify", "--checkpoint", chosen, "--train-file", inputs["cls_train"],
            "--test-file", inputs["cls_test"], "--out", str(reports[3]))
        return reports

    def _checkpoints(self, inputs: dict) -> list[str]:
        return sorted(glob.glob(os.path.join(inputs["model"], "epoch_*.ckpt")))

    def sentences(self, inputs: dict) -> int:
        dev = len(self._checkpoints(inputs)) * 2 * self.dev
        retrieval = 4 * self.test
        mine = 2 * self.test
        return dev + retrieval + mine + 2 * self.sts_pairs + 6 * self.probe_classes

    def check(self, inputs: dict, out: Path) -> list[str]:
        def lines(key):
            with open(inputs[key], encoding="utf-8") as fh:
                return [line.rstrip("\n") for line in fh]

        def model(path):
            c = read_checkpoint(path)
            return ModelParams(c["table"].copy(), c["projection"].copy(), c["hash_bits"], c["dim"])

        retrieval = _load_report(out / "retrieval.json")
        dev_src, dev_tgt = lines("dev_src"), lines("dev_tgt")
        dev_scores = {}
        for path in self._checkpoints(inputs):
            p = model(path)
            dev_scores[os.path.basename(path)] = top1_accuracy(encode_texts(p, dev_src), encode_texts(p, dev_tgt))
        check_equal("dev scores", retrieval["metadata"]["dev_scores"], dev_scores)
        best = max(dev_scores, key=dev_scores.get)  # first of equal maxima, as the CLI picks
        chosen = retrieval["metadata"]["checkpoint"]
        check_equal("chosen checkpoint", os.path.basename(chosen), best)

        params = model(chosen)
        src, tgt = encode_texts(params, lines("test_src")), encode_texts(params, lines("test_tgt"))
        check_equal("retrieval src->tgt", retrieval["overall"], top1_accuracy(src, tgt))
        check_equal("retrieval tgt->src", retrieval["metadata"]["backward"], top1_accuracy(tgt, src))

        mine = _load_report(out / "mine.json")
        gold = {tuple(int(x) for x in line.split("\t")) for line in lines("mine_gold")}
        want = mining_sweep(encode_texts(params, lines("mine_src")), encode_texts(params, lines("mine_tgt")), gold)
        got = {"f1": mine["overall"], **{k: mine["metadata"][k] for k in ("precision", "recall", "threshold")}}
        check_equal("mining sweep", got, want)

        sts = _load_report(out / "sts.json")
        pairs = [line.split("\t") for line in lines("sts")]
        a = encode_texts(params, [p[0] for p in pairs])
        b = encode_texts(params, [p[1] for p in pairs])
        rho = rank_correlation((a * b).sum(axis=1), [float(p[2]) for p in pairs])
        check_close("sts spearman", sts["overall"], rho, 1e-12)

        probe = _load_report(out / "classify.json")
        check_above_chance("probe accuracy", probe["overall"], 1.0 / self.probe_classes, self.probe_factor)
        return [
            f"dev scores and checkpoint choice ({best}) equal the benchmark's top-1 counts",
            "retrieval both ways equals the benchmark's top-1 count",
            "mining F1, precision, recall and threshold equal the sort-based sweep",
            "STS score equals the benchmark's rank correlation (within 1e-12)",
            f"probe accuracy {probe['overall']:.3f} >= {self.probe_factor:g}x chance",
        ]


WORKLOADS = {w.name: w for w in (Compare(), WideBatch(), Eval())}
