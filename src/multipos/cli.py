"""Command-line front end.

Subcommands: build-data, to-pairs, synth, train, eval, compare.
Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
Reports are JSON documents written to --out (stdout when omitted);
diagnostics go to stderr. Runs with the same flags and seed leave
byte-identical artifacts; wall-clock times appear only in train logs.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .data import (
    DataFormatError,
    DatasetMismatchError,
    SentenceGroup,
    assemble_groups,
    attach_hard_negatives,
    check_fit,
    gen_cipher_corpus,
    groups_to_pairs,
    pairs_to_groups,
    read_aligned_corpus,
    read_groups_jsonl,
    write_groups_jsonl,
    write_pairs_tsv,
)
from .encoder import CheckpointError, load_checkpoint
from .evaluation import (
    EvalReport,
    encode_texts,
    linear_probe,
    mine_pairs_f1,
    retrieval_accuracy,
    sts_eval,
)
from .train import TrainConfig, load_config, train, write_log_jsonl


class UsageError(Exception):
    pass


@dataclass
class CommandOutcome:
    exit_code: int
    artifacts: list[str] = field(default_factory=list)


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; the contract wants 1.
    def error(self, message: str):
        raise UsageError(message)


def _write_report(report: dict, out: str | None) -> list[str]:
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        return [out]
    sys.stdout.write(text)
    return []


def _read_lines(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh]
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise DataFormatError(f"{path}: empty file")
    return lines


def _read_tsv(path: str, layout: str, parse=lambda *cols: cols) -> list:
    """Rows of a tab-separated file laid out as `layout`, each through `parse`.

    `parse` takes a row's columns and raises ValueError on a bad value.
    """
    width = layout.count("<TAB>") + 1
    rows = []
    for lineno, line in enumerate(_read_lines(path), start=1):
        cols = line.split("\t")
        if len(cols) != width:
            raise DataFormatError(f"{path}:{lineno}: expected {layout}")
        try:
            rows.append(parse(*cols))
        except ValueError as exc:
            raise DataFormatError(f"{path}:{lineno}: {exc}") from exc
    return rows


def _parse_lang_file(values: list[str]) -> dict[str, str]:
    out = {}
    for v in values:
        if "=" not in v:
            raise UsageError(f"expected LANG=PATH, got {v!r}")
        lang, path = v.split("=", 1)
        if lang in out:
            raise UsageError(f"language {lang!r} given twice")
        out[lang] = path
    return out


def _cmd_build_data(args) -> CommandOutcome:
    lang_paths = _parse_lang_file(args.lang)
    if len(lang_paths) < 2:
        raise UsageError("need at least two --lang LANG=PATH inputs")
    records = read_aligned_corpus(lang_paths)
    result = assemble_groups(records, sorted(lang_paths))
    if args.hard_neg:
        hn_paths = _parse_lang_file(args.hard_neg)
        attach_hard_negatives(result.groups, read_aligned_corpus(hn_paths))
    write_groups_jsonl(result.groups, args.out)
    print(
        f"wrote {len(result.groups)} groups to {args.out}; "
        f"dropped {len(result.dropped_keys)} incomplete keys",
        file=sys.stderr,
    )
    return CommandOutcome(0, [args.out])


def _cmd_to_pairs(args) -> CommandOutcome:
    groups = read_groups_jsonl(args.data)
    conv = groups_to_pairs(groups, args.seed)
    write_pairs_tsv(conv.pairs, args.out)
    print(
        f"wrote {len(conv.pairs)} pairs to {args.out}; "
        f"dropped {conv.dropped_sentences} odd leftover sentences",
        file=sys.stderr,
    )
    return CommandOutcome(0, [args.out])


def _cmd_synth(args) -> CommandOutcome:
    vocab = args.vocab if args.vocab else args.concepts * args.sentence_len
    try:
        train_groups, eval_groups = gen_cipher_corpus(
            args.concepts, args.sentence_len, args.langs, args.heldout, vocab, args.seed,
            heldout_fresh_rate=args.fresh_rate,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    os.makedirs(args.out, exist_ok=True)
    train_path = os.path.join(args.out, "groups.jsonl")
    write_groups_jsonl(train_groups, train_path)
    artifacts = [train_path]
    if eval_groups:
        heldout_path = os.path.join(args.out, "heldout.jsonl")
        write_groups_jsonl(eval_groups, heldout_path)
        artifacts.append(heldout_path)
    print(f"wrote {len(train_groups)} groups under {args.out}", file=sys.stderr)
    return CommandOutcome(0, artifacts)


def _train_config(args, default: TrainConfig, **flags) -> TrainConfig:
    """The --config file (or `default`), then each of `flags` that was given."""
    try:
        cfg = load_config(args.config) if args.config else default
        return replace(cfg, **{k: v for k, v in flags.items() if v is not None})
    except (ValueError, TypeError) as exc:
        raise UsageError(f"bad config: {exc}") from exc


def _cmd_train(args) -> CommandOutcome:
    cfg = _train_config(args, TrainConfig(), seed=args.seed)
    result = train(cfg, read_groups_jsonl(args.data), out_dir=args.out)
    log_path = os.path.join(args.out, "log.jsonl")
    write_log_jsonl(result.records, log_path)
    if result.dropped_tail_groups:
        print(f"dropped {result.dropped_tail_groups} tail groups (batch below 2)", file=sys.stderr)
    print(
        f"trained {len(result.records)} steps; checkpoints: {', '.join(result.checkpoint_paths)}",
        file=sys.stderr,
    )
    return CommandOutcome(0, result.checkpoint_paths + [log_path])


# Per eval task: the file flags its report reads, then the flags that stand
# in for them when --checkpoint-dir scores each epoch on dev data.
_EVAL_FLAGS = {
    "retrieval": (("src", "tgt"), ("dev_src", "dev_tgt")),
    "mine": (("src", "tgt", "gold"), ("dev_src", "dev_tgt", "dev_gold")),
    "sts": (("pairs",), ("dev_pairs",)),
    "classify": (("train_file", "test_file"), ("train_file", "dev_test")),
}


def _scorer(args, flags: tuple[str, ...], final: bool):
    """Check `flags`, read their files, and return params -> EvalReport.

    `final` scores the report: it applies --threshold and
    --both-directions, which dev selection leaves out.
    """
    missing = ["--" + f.replace("_", "-") for f in flags if not getattr(args, f)]
    if missing:
        via = "" if final else " with --checkpoint-dir"
        raise UsageError(f"task {args.task}{via} needs {', '.join(missing)}")
    paths = [getattr(args, f) for f in flags]

    def enc(params, texts):
        return encode_texts(params, texts, args.max_len)

    if args.task in ("retrieval", "mine"):
        src, tgt = _read_lines(paths[0]), _read_lines(paths[1])

    if args.task == "retrieval":
        if len(src) != len(tgt):
            raise DataFormatError(f"{paths[0]} and {paths[1]} must align line by line")
        both = final and args.both_directions

        def score(params):
            acc = retrieval_accuracy(enc(params, src), enc(params, tgt))
            meta = {"items": len(src)}
            if both:
                meta["backward"] = retrieval_accuracy(enc(params, tgt), enc(params, src))
            return EvalReport("retrieval", acc, metadata=meta)

        return score

    if args.task == "mine":

        def index_pair(i, j):
            i, j = int(i), int(j)
            if not (0 <= i < len(src) and 0 <= j < len(tgt)):
                raise ValueError(f"pair ({i}, {j}) outside the {len(src)} x {len(tgt)} candidates")
            return i, j

        gold = _read_tsv(paths[2], "i<TAB>j", index_pair)
        threshold = args.threshold if final else None

        def score(params):
            res = mine_pairs_f1(enc(params, src), enc(params, tgt), gold, threshold=threshold)
            meta = {"precision": res.precision, "recall": res.recall, "threshold": res.threshold}
            return EvalReport("mine", res.f1, metadata=meta)

        return score

    if args.task == "sts":

        def scored_pair(a, b, gold):
            score = float(gold)
            if not np.isfinite(score):
                raise ValueError(f"gold score {gold!r} is not finite")
            return a, b, score

        pairs = _read_tsv(paths[0], "text_a<TAB>text_b<TAB>gold", scored_pair)
        if len({gold for _, _, gold in pairs}) < 2:
            raise DataFormatError(f"{paths[0]}: need at least 2 distinct gold scores")
        return lambda params: sts_eval(params, pairs, max_len=args.max_len)

    (train_labels, train_texts), (test_labels, test_texts) = (
        zip(*_read_tsv(p, "label<TAB>text")) for p in paths
    )
    if len(set(train_labels)) < 2:
        raise DataFormatError(f"{paths[0]}: need at least 2 labels, got {sorted(set(train_labels))}")
    unseen = sorted(set(test_labels) - set(train_labels))
    if unseen:
        raise DataFormatError(f"{paths[1]}: labels missing from {paths[0]}: {unseen[:3]}")

    def score(params):
        acc = linear_probe(
            enc(params, train_texts), train_labels, enc(params, test_texts), test_labels,
            args.probe_seed,
        )
        return EvalReport("classify", acc, metadata={"test_items": len(test_labels)})

    return score


def _select(directory: str, score):
    """The first epoch checkpoint with the best dev score, its params, and every score."""
    paths = sorted(glob.glob(os.path.join(directory, "epoch_*.ckpt")))
    if not paths:
        raise DataFormatError(f"no epoch_*.ckpt files under {directory}")
    scores = {}
    best_path, best_params, best_score = None, None, -np.inf
    for path in paths:
        params = load_checkpoint(path)[0]
        scores[os.path.basename(path)] = s = score(params).overall
        if s > best_score:
            best_path, best_params, best_score = path, params, s
        del params  # hold at most the best table while the next one loads
    return best_path, best_params, scores


def _cmd_eval(args) -> CommandOutcome:
    if bool(args.checkpoint) == bool(args.checkpoint_dir):
        raise UsageError("give exactly one of --checkpoint or --checkpoint-dir")
    if args.max_len < 1:
        raise UsageError(f"--max-len must be at least 1, got {args.max_len}")
    if args.threshold is not None and not np.isfinite(args.threshold):
        raise UsageError(f"--threshold must be finite, got {args.threshold}")
    report_flags, dev_flags = _EVAL_FLAGS[args.task]
    score = _scorer(args, report_flags, final=True)
    meta = {}
    if args.checkpoint:
        chosen, params = args.checkpoint, load_checkpoint(args.checkpoint)[0]
    else:
        chosen, params, meta["dev_scores"] = _select(
            args.checkpoint_dir, _scorer(args, dev_flags, final=False)
        )
    report = score(params)
    report.metadata.update(meta, checkpoint=chosen)
    return CommandOutcome(0, _write_report(asdict(report), args.out))


def _group_texts(groups: list[SentenceGroup], lang: str) -> list[str]:
    missing = [g.id for g in groups if lang not in g.texts]
    if missing:
        raise DataFormatError(f"language {lang!r} missing from groups {missing[:3]}...")
    return [g.texts[lang] for g in groups]


def _check_pair_conservation(groups, pair_groups, dropped: int) -> None:
    """Pair conversion must preserve the sentence multiset (minus reported drops)."""
    before = Counter(t for g in groups for t in g.texts.values())
    after = Counter(t for g in pair_groups for t in g.texts.values())
    missing = sum((before - after).values())
    if missing != dropped or sum((after - before).values()) != 0:
        raise DataFormatError(
            f"pair conversion lost {missing} sentences but reported {dropped} drops"
        )


def _cmd_compare(args) -> CommandOutcome:
    # Desk-scale recipe: tau=1.0 keeps both objectives in their informative
    # regime (min-max output and raw cosine then share the range [-1, 1]),
    # so the arms differ only in grouping and normalization, not temperature.
    default = TrainConfig(
        batch_size=32, epochs=30, k_positives=5, tau=1.0, lr_main=6e-3, warmup_enabled=False, hash_bits=15
    )
    base = _train_config(
        args, default, epochs=args.epochs, batch_size=args.batch_size, k_positives=args.k, lr_main=args.lr
    )
    if args.seeds < 1:
        raise UsageError("--seeds must be at least 1")

    groups = read_groups_jsonl(args.data)
    heldout = read_groups_jsonl(args.heldout)
    check_fit(groups, base.k_positives, base.use_hard_negatives)  # the multiple arm's fit
    train_langs = sorted(groups[0].texts)
    heldout_langs = sorted(set(heldout[0].texts) - set(train_langs)) if heldout else []
    pivot = args.pivot or train_langs[0]

    seen_texts = {lang: _group_texts(groups, lang) for lang in train_langs}
    held_texts = {lang: _group_texts(heldout, lang) for lang in heldout_langs}
    pivot_texts = _group_texts(heldout, pivot) if heldout_langs else []

    def evaluate(params) -> dict:
        embs = {lang: encode_texts(params, seen_texts[lang], base.max_len) for lang in train_langs}
        accs = [
            retrieval_accuracy(embs[src], embs[tgt])
            for src in train_langs
            for tgt in train_langs
            if src != tgt
        ]
        out = {
            "seen_retrieval": float(np.mean(accs)),
            "seen_retrieval_min": float(np.min(accs)),
        }
        if heldout_langs:
            pivot_embs = encode_texts(params, pivot_texts, base.max_len)
            held = {
                f"heldout_retrieval_{lang}": retrieval_accuracy(
                    encode_texts(params, held_texts[lang], base.max_len), pivot_embs
                )
                for lang in heldout_langs
            }
            out.update(held, heldout_retrieval=float(np.mean(list(held.values()))))
        return out

    seeds = [args.seed + i for i in range(args.seeds)]
    conv = groups_to_pairs(groups, [args.seed, 3, 0])
    pair_groups = pairs_to_groups(conv.pairs)
    _check_pair_conservation(groups, pair_groups, conv.dropped_sentences)
    # The single arm's fit, checked before any arm trains: every epoch's
    # pairing has two languages per group and no hard negatives, so epoch 0's
    # stands for all of them.
    check_fit(pair_groups, 1, base.use_hard_negatives)
    del conv, pair_groups  # not needed while the arms train

    def pairing(seed: int):
        # a fresh random matching per epoch, or epoch 0's throughout under
        # --fixed-pairs; each sentence still appears once
        def pairs(epoch: int):
            return pairs_to_groups(groups_to_pairs(groups, [seed, 3, epoch]).pairs)

        if args.fixed_pairs:
            fixed = pairs(0)
            return lambda epoch: fixed
        return pairs

    arms: dict[str, dict] = {"multiple": {"runs": []}, "single": {"runs": []}}
    wall = {"multiple": 0.0, "single": 0.0}
    for seed in seeds:
        for name, cfg, dataset_fn in (
            ("multiple", replace(base, seed=seed, objective="multi"), None),
            ("single", replace(base, seed=seed, objective="single", k_positives=1), pairing(seed)),
        ):
            t0 = time.perf_counter()
            params = train(cfg, groups, dataset_fn=dataset_fn).params
            wall[name] += time.perf_counter() - t0
            arms[name]["runs"].append({"seed": seed, **evaluate(params)})
            del params  # the next arm trains with no other model alive

    for name, arm in arms.items():
        keys = sorted({k for run in arm["runs"] for k in run if k != "seed"})
        arm["mean"] = {k: float(np.mean([run[k] for run in arm["runs"]])) for k in keys}
        # stderr, not the report: artifacts must be byte-identical across runs
        print(f"arm {name}: {wall[name]:.1f}s over {len(seeds)} seeds", file=sys.stderr)
    report = {
        "task": "compare",
        "seeds": seeds,
        "seen_languages": train_langs,
        "heldout_languages": heldout_langs,
        "pivot": pivot,
        "pairing": "fixed" if args.fixed_pairs else "per_epoch",
        "config": {k: v for k, v in asdict(base).items()},
        "arms": arms,
    }
    return CommandOutcome(0, _write_report(report, args.out))


def build_parser() -> _Parser:
    parser = _Parser(prog="multipos", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-data", parents=[], help="assemble aligned files into a grouped dataset")
    p.add_argument("--lang", action="append", default=[], metavar="LANG=PATH")
    p.add_argument("--hard-neg", action="append", default=[], metavar="LANG=PATH")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_build_data)

    p = sub.add_parser("to-pairs", help="flatten a grouped dataset to a pair TSV")
    p.add_argument("--data", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_to_pairs)

    p = sub.add_parser("synth", help="generate a cipher-language corpus")
    p.add_argument("--concepts", type=int, default=500)
    p.add_argument("--sentence-len", type=int, default=8)
    p.add_argument("--langs", type=int, default=6)
    p.add_argument("--heldout", type=int, default=1)
    p.add_argument("--vocab", type=int, default=0, help="0 means concepts * sentence-len")
    p.add_argument(
        "--fresh-rate",
        type=float,
        default=0.5,
        help="fraction of each held-out language's vocabulary never seen in training",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="train on a grouped dataset")
    p.add_argument("--config", default=None)
    p.add_argument("--data", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--task", required=True, choices=("retrieval", "mine", "sts", "classify"))
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--checkpoint-dir", default=None)
    p.add_argument("--max-len", type=int, default=64)
    p.add_argument("--src", default=None)
    p.add_argument("--tgt", default=None)
    p.add_argument("--both-directions", action="store_true")
    p.add_argument("--gold", default=None)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--pairs", default=None)
    p.add_argument("--train-file", default=None)
    p.add_argument("--test-file", default=None)
    p.add_argument("--probe-seed", type=int, default=0)
    p.add_argument("--dev-src", default=None)
    p.add_argument("--dev-tgt", default=None)
    p.add_argument("--dev-gold", default=None)
    p.add_argument("--dev-pairs", default=None)
    p.add_argument("--dev-test", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("compare", help="matched single- vs multi-positive arms")
    p.add_argument("--data", required=True)
    p.add_argument("--heldout", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--seeds", type=int, default=5, help="number of seeds per arm")
    p.add_argument("--seed", type=int, default=0, help="first seed")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--pivot", default=None, help="seen target language for held-out retrieval")
    p.add_argument(
        "--fixed-pairs",
        action="store_true",
        help="freeze the single-arm pairing instead of redrawing it per epoch",
    )
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_compare)
    return parser


def run(argv: list[str]) -> CommandOutcome:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return CommandOutcome(1)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return CommandOutcome(1)
    except DatasetMismatchError as exc:
        print(f"usage error: config does not fit the dataset: {exc}", file=sys.stderr)
        return CommandOutcome(1)
    except (DataFormatError, CheckpointError, OSError, UnicodeDecodeError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return CommandOutcome(2)
    except (FloatingPointError, ValueError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return CommandOutcome(3)


def main() -> None:
    sys.exit(run(sys.argv[1:]).exit_code)


if __name__ == "__main__":
    main()
