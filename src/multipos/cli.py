"""Command-line front end.

Subcommands: build-data, to-pairs, synth, train, eval, compare.
Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure,
130 interrupted.
Reports are JSON documents written to --out (stdout when omitted);
diagnostics go to stderr. Runs with the same flags and seed leave
byte-identical artifacts; wall-clock times appear only in train logs.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from .data import (
    DataFormatError,
    DatasetMismatchError,
    SentenceGroup,
    TokenCache,
    assemble_groups,
    attach_hard_negatives,
    batch_texts,
    check_fit,
    gen_cipher_corpus,
    groups_to_pairs,
    pairs_to_groups,
    read_aligned_corpus,
    read_groups_jsonl,
    read_lines,
    read_tsv,
    write_groups_jsonl,
    write_pairs_tsv,
)
from .encoder import CheckpointError, load_checkpoint
from .evaluation import (
    ConstantSimilarityError,
    EvalReport,
    encode_texts,
    linear_probe,
    mine_pairs_f1,
    retrieval_accuracy,
    sts_eval,
)
from .train import TrainConfig, epoch_checkpoints, final_checkpoint, load_config, train


class UsageError(Exception):
    pass


@dataclass
class CommandOutcome:
    exit_code: int


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; the contract wants 1.
    def error(self, message: str):
        raise UsageError(message)


def _seed(text: str) -> int:
    """The type of every seed flag: a non-negative integer."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _check_out(out: str | None) -> None:
    """Refuse a report path that cannot be written, before the command does any work."""
    if not out:
        return
    if os.path.isdir(out):
        raise IsADirectoryError(f"--out {out} is a directory")
    parent = os.path.dirname(out) or "."
    if not os.path.isdir(parent):
        raise FileNotFoundError(f"--out {out}: no directory {parent}")


def _write_report(report: dict, out: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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


def _cmd_build_data(args) -> None:
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


def _cmd_to_pairs(args) -> None:
    groups = read_groups_jsonl(args.data)
    conv = groups_to_pairs(groups, args.seed)
    write_pairs_tsv(conv.pairs, args.out)
    print(
        f"wrote {len(conv.pairs)} pairs to {args.out}; "
        f"dropped {conv.dropped_sentences} odd leftover sentences",
        file=sys.stderr,
    )


def _cmd_synth(args) -> None:
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
    heldout_path = os.path.join(args.out, "heldout.jsonl")
    if eval_groups:
        write_groups_jsonl(eval_groups, heldout_path)
    elif os.path.exists(heldout_path):
        # an earlier corpus's held-out file would pass for this one's
        os.remove(heldout_path)
        print(f"removed {heldout_path}: this corpus has no held-out languages", file=sys.stderr)
    print(f"wrote {len(train_groups)} groups under {args.out}", file=sys.stderr)


def _train_config(args, default: TrainConfig, **flags) -> TrainConfig:
    """The --config file (or `default`), then each of `flags` that was given."""
    try:
        cfg = load_config(args.config) if args.config else default
        return replace(cfg, **{k: v for k, v in flags.items() if v is not None})
    except (ValueError, TypeError, OverflowError, RecursionError) as exc:
        raise UsageError(f"bad config: {exc}") from exc


def _cmd_train(args) -> None:
    if not args.out:
        raise UsageError("--out must name a directory, got an empty path")
    # A new run beside an old one's checkpoints would leave epochs of both,
    # and eval --checkpoint-dir would choose among them.
    stale = epoch_checkpoints(args.out) + [p for p in [final_checkpoint(args.out)] if os.path.exists(p)]
    if stale:
        raise UsageError(f"--out {args.out} already holds checkpoints ({stale[0]}); give a new directory")
    cfg = _train_config(args, TrainConfig(), seed=args.seed)
    groups = read_groups_jsonl(args.data)
    check_fit(groups, cfg.k_positives, cfg.use_hard_negatives)  # before any text is tokenized
    tokens = TokenCache()
    tokens.fill(batch_texts(groups, cfg.use_hard_negatives), cfg.max_len, cfg.hash_bits)
    result = train(cfg, groups, out_dir=args.out, tokens=tokens)
    if result.dropped_tail_groups:
        print(f"dropped {result.dropped_tail_groups} tail groups (batch below 2)", file=sys.stderr)
    print(
        f"trained {len(result.records)} steps; checkpoints: {', '.join(result.checkpoint_paths)}",
        file=sys.stderr,
    )


# Per eval task: the file flags its report reads, then the flags that stand
# in for them when --checkpoint-dir scores each epoch on dev data.
_EVAL_FLAGS = {
    "retrieval": (("src", "tgt"), ("dev_src", "dev_tgt")),
    "mine": (("src", "tgt", "gold"), ("dev_src", "dev_tgt", "dev_gold")),
    "sts": (("pairs",), ("dev_pairs",)),
    "classify": (("train_file", "test_file"), ("train_file", "dev_test")),
}


def _scorer(args, flags: tuple[str, ...], final: bool, tokens: TokenCache):
    """Check `flags`, read their files, and return params -> EvalReport.

    `final` scores the report: it applies --threshold and
    --both-directions, which dev selection leaves out. Texts are
    tokenized through `tokens`.
    """
    missing = ["--" + f.replace("_", "-") for f in flags if not getattr(args, f)]
    if missing:
        via = "" if final else " with --checkpoint-dir"
        raise UsageError(f"task {args.task}{via} needs {', '.join(missing)}")
    paths = [getattr(args, f) for f in flags]

    def enc(params, texts):
        return encode_texts(params, texts, args.max_len, tokens)

    if args.task in ("retrieval", "mine"):
        src, tgt = read_lines(paths[0]), read_lines(paths[1])

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

        gold = read_tsv(paths[2], "i<TAB>j", index_pair)
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

        texts_a, texts_b, gold = zip(*read_tsv(paths[0], "text_a<TAB>text_b<TAB>gold", scored_pair))
        if len(set(gold)) < 2:
            raise DataFormatError(f"{paths[0]}: need at least 2 distinct gold scores")

        def score(params):
            rho = sts_eval(enc(params, texts_a), enc(params, texts_b), gold)
            return EvalReport("sts", rho, metadata={"pairs": len(gold)})

        return score

    (train_labels, train_texts), (test_labels, test_texts) = (
        zip(*read_tsv(p, "label<TAB>text")) for p in paths
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


def _score(score, params, path: str) -> EvalReport:
    """score(params), naming the checkpoint at `path` when its model scores every STS pair alike."""
    try:
        return score(params)
    except ConstantSimilarityError as exc:
        raise ConstantSimilarityError(
            f"checkpoint {path}: the model gives every pair the same similarity ({exc})"
        ) from exc


def _select(directory: str, score):
    """The first epoch checkpoint with the best dev score, its params, and every score."""
    paths = epoch_checkpoints(directory)
    if not paths:
        raise DataFormatError(f"no epoch_*.ckpt files under {directory}")
    scores = {}
    best_path, best_params, best_score = None, None, -np.inf
    for path in paths:
        params = load_checkpoint(path)[0]
        scores[os.path.basename(path)] = s = _score(score, params, path).overall
        if s > best_score:
            best_path, best_params, best_score = path, params, s
        del params  # hold at most the best table while the next one loads
    return best_path, best_params, scores


def _cmd_eval(args) -> None:
    if bool(args.checkpoint) == bool(args.checkpoint_dir):
        raise UsageError("give exactly one of --checkpoint or --checkpoint-dir")
    if args.max_len < 1:
        raise UsageError(f"--max-len must be at least 1, got {args.max_len}")
    if args.threshold is not None and not np.isfinite(args.threshold):
        raise UsageError(f"--threshold must be finite, got {args.threshold}")
    _check_out(args.out)
    report_flags, dev_flags = _EVAL_FLAGS[args.task]
    # one cache for every checkpoint, both directions and the report
    tokens = TokenCache()
    score = _scorer(args, report_flags, final=True, tokens=tokens)
    meta = {}
    if args.checkpoint:
        chosen, params = args.checkpoint, load_checkpoint(args.checkpoint)[0]
    else:
        chosen, params, meta["dev_scores"] = _select(
            args.checkpoint_dir, _scorer(args, dev_flags, final=False, tokens=tokens)
        )
    report = _score(score, params, chosen)
    report.metadata.update(meta, checkpoint=chosen)
    _write_report(asdict(report), args.out)


def _group_texts(groups: list[SentenceGroup], lang: str) -> list[str]:
    missing = [g.id for g in groups if lang not in g.texts]
    if missing:
        raise DataFormatError(f"language {lang!r} missing from groups {missing[:3]}...")
    return [g.texts[lang] for g in groups]


def _cmd_compare(args) -> None:
    # Desk-scale recipe. At tau=1.0 min-max output and raw cosine share the range
    # [-1, 1], so the arms differ in grouping and normalization, not temperature.
    # min_max divides by tau twice and collapses at tau 0.3 and 0.05; at 1.0 it beats
    # identity on held-out retrieval after 30 epochs, not after 10 (ROADMAP's table).
    default = TrainConfig(
        batch_size=32, epochs=30, k_positives=5, tau=1.0, lr_main=6e-3, warmup_enabled=False, hash_bits=15
    )
    base = _train_config(args, default, epochs=args.epochs)
    if args.seeds < 1:
        raise UsageError("--seeds must be at least 1")
    _check_out(args.out)

    groups = read_groups_jsonl(args.data)
    heldout = read_groups_jsonl(args.heldout)

    def arms_for(seed: int):
        # each arm's name, config and groups per epoch; the single arm trains
        # on a fresh random matching per epoch, or epoch 0's under --fixed-pairs.
        # The last matching built is kept, so asking twice builds it once.
        @functools.lru_cache(maxsize=1)
        def pairs(epoch: int):
            return pairs_to_groups(groups_to_pairs(groups, [seed, 3, epoch]).pairs)

        return (
            ("multiple", replace(base, seed=seed, objective="multi"), lambda epoch: groups),
            ("single", replace(base, seed=seed, objective="single", k_positives=1),
             (lambda epoch: pairs(0)) if args.fixed_pairs else pairs),
        )

    # Both arms must fit before either trains, the multiple arm first. Every
    # epoch's pairing has two languages per group and no hard negatives, so
    # epoch 0's stands for all of them; the first seed trains on these arms.
    first_arms = arms_for(args.seed)
    for _, cfg, groups_at in first_arms:
        check_fit(groups_at(0), cfg.k_positives, cfg.use_hard_negatives)
    train_langs = sorted(groups[0].texts)
    heldout_langs = sorted(set(heldout[0].texts) - set(train_langs)) if heldout else []
    pivot = args.pivot or train_langs[0]
    if pivot not in train_langs:
        raise UsageError(
            f"--pivot must be a seen language of --data ({', '.join(train_langs)}), got {pivot!r}"
        )

    seen_texts = {lang: _group_texts(groups, lang) for lang in train_langs}
    held_texts = {lang: _group_texts(heldout, lang) for lang in heldout_langs}
    pivot_texts = _group_texts(heldout, pivot) if heldout_langs else []
    # one cache for both arms and their evaluations; encode_texts fills what training lacks
    tokens = TokenCache()
    tokens.fill(batch_texts(groups, base.use_hard_negatives), base.max_len, base.hash_bits)

    def enc(params, texts):
        return encode_texts(params, texts, base.max_len, tokens)

    def evaluate(params) -> dict:
        embs = {lang: enc(params, seen_texts[lang]) for lang in train_langs}
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
            pivot_embs = enc(params, pivot_texts)
            held = {
                f"heldout_retrieval_{lang}": retrieval_accuracy(
                    enc(params, held_texts[lang]), pivot_embs
                )
                for lang in heldout_langs
            }
            out.update(held, heldout_retrieval=float(np.mean(list(held.values()))))
        return out

    seeds = [args.seed + i for i in range(args.seeds)]
    arms: dict[str, dict] = {"multiple": {"runs": []}, "single": {"runs": []}}
    wall = {"multiple": 0.0, "single": 0.0}
    for seed in seeds:
        for name, cfg, groups_at in first_arms if seed == args.seed else arms_for(seed):
            t0 = time.perf_counter()
            params = train(cfg, groups_at, tokens=tokens).params
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
        "config": asdict(base),
        "arms": arms,
    }
    _write_report(report, args.out)


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
    p.add_argument("--seed", type=_seed, default=0)
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
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="train on a grouped dataset")
    p.add_argument("--config", default=None)
    p.add_argument("--data", required=True)
    p.add_argument("--seed", type=_seed, default=None, help="override the config seed")
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
    p.add_argument("--probe-seed", type=_seed, default=0)
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
    p.add_argument("--seed", type=_seed, default=0, help="first seed")
    p.add_argument("--epochs", type=int, default=None)
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
    args = None
    try:
        args = build_parser().parse_args(argv)
        args.func(args)
        return CommandOutcome(0)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return CommandOutcome(1)
    except DatasetMismatchError as exc:
        print(f"usage error: config does not fit the dataset: {exc}", file=sys.stderr)
        return CommandOutcome(1)
    except (DataFormatError, CheckpointError, ConstantSimilarityError, OSError, UnicodeDecodeError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return CommandOutcome(2)
    except FloatingPointError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return CommandOutcome(3)
    except KeyboardInterrupt:
        note = ""
        if args is not None and args.command == "train":
            # each checkpoint is saved atomically, so the newest one listed is whole
            newest = epoch_checkpoints(args.out)
            note = f": newest checkpoint is {newest[-1]}" if newest else ": no epoch checkpoint was written"
        print(f"interrupted{note}", file=sys.stderr)
        return CommandOutcome(130)


def main() -> None:
    sys.exit(run(sys.argv[1:]).exit_code)


if __name__ == "__main__":
    main()
