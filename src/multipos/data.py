"""Grouped multilingual data: assembly, pairing, batching, synthesis.

A sentence group holds one sentence per language for the same meaning,
plus optional per-language hard negatives. Groups can be flattened to
directional pairs (for the single-positive baseline) or batched with a
sampled anchor language and K positive languages (for the
multi-positive objective). A deterministic cipher-language generator
provides desk-scale corpora with controllable seen/held-out languages.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .encoder import tokenize


class DataFormatError(ValueError):
    """Malformed input data (bad file, conflicting records, ...)."""


class DatasetMismatchError(ValueError):
    """The groups do not fit the training settings.

    Too few languages for K positives, missing hard negatives, or no
    groups at all.
    """


@dataclass
class SentenceGroup:
    id: str
    texts: dict[str, str]
    hard_negatives: dict[str, str] | None = None

    def __post_init__(self) -> None:
        if len(self.texts) < 2:
            raise ValueError(f"group {self.id!r} needs at least 2 languages, got {len(self.texts)}")


@dataclass
class PairRecord:
    src_lang: str
    tgt_lang: str
    src_text: str
    tgt_text: str

    def __post_init__(self) -> None:
        if self.src_lang == self.tgt_lang:
            raise ValueError(f"pair languages must differ, got {self.src_lang!r} twice")


@dataclass
class TrainingBatch:
    """Tokenized batch: N anchors, N x K positives, optional hard negatives.

    Row i of each field comes from the same group; anchor_langs names
    each anchor's language for error messages.
    """

    anchors: list[list[int]]
    positives: list[list[list[int]]]
    anchor_langs: list[str]
    hard_negatives: list[list[int]] | None = None

    @property
    def size(self) -> int:
        return len(self.anchors)


@dataclass
class AssembleResult:
    groups: list[SentenceGroup]
    dropped_keys: list[str] = field(default_factory=list)


@dataclass
class PairConversion:
    pairs: list[PairRecord]
    dropped_sentences: int = 0


def _premise_part(sentence: str) -> str:
    # Premise/hypothesis sources arrive tab-joined; keep the premise role.
    return sentence.split("\t", 1)[0]


def assemble_groups(records: Iterable[tuple[str, str, str]], languages: Sequence[str]) -> AssembleResult:
    """Group (lang, key, sentence) records into complete SentenceGroups.

    Keys missing any requested language are dropped and reported.
    Conflicting duplicate (key, lang) records raise; exact duplicates
    are tolerated. Group order follows first appearance of the key.
    """
    wanted = list(dict.fromkeys(languages))
    if len(wanted) < 2:
        raise ValueError(f"need at least 2 requested languages, got {wanted}")
    by_key: dict[str, dict[str, str]] = {}
    for lang, key, sentence in records:
        if lang not in wanted:
            continue
        text = _premise_part(sentence)
        slot = by_key.setdefault(key, {})
        if lang in slot and slot[lang] != text:
            raise DataFormatError(f"conflicting sentences for key {key!r}, language {lang!r}")
        slot[lang] = text
    groups = []
    dropped = []
    for key, texts in by_key.items():
        if all(lang in texts for lang in wanted):
            groups.append(SentenceGroup(id=key, texts={lang: texts[lang] for lang in wanted}))
        else:
            dropped.append(key)
    return AssembleResult(groups, dropped)


def attach_hard_negatives(groups: list[SentenceGroup], records: Iterable[tuple[str, str, str]]) -> None:
    """Attach (lang, key, sentence) hard negatives to matching groups in place."""
    by_key: dict[str, dict[str, str]] = {}
    for lang, key, sentence in records:
        slot = by_key.setdefault(key, {})
        if lang in slot and slot[lang] != sentence:
            raise DataFormatError(f"conflicting hard negatives for key {key!r}, language {lang!r}")
        slot[lang] = sentence
    for g in groups:
        if g.id in by_key:
            g.hard_negatives = dict(sorted(by_key[g.id].items()))


def groups_to_pairs(groups: Sequence[SentenceGroup], rng_seed) -> PairConversion:
    """Flatten groups to pairs via a uniform random perfect matching.

    Each group's languages are matched into disjoint pairs so every
    sentence lands in exactly one pair; with an odd language count one
    uniformly chosen sentence is dropped and counted.
    """
    rng = np.random.default_rng(rng_seed)
    pairs: list[PairRecord] = []
    dropped = 0
    for g in groups:
        langs = sorted(g.texts)
        order = [langs[i] for i in rng.permutation(len(langs))]
        if len(order) % 2 == 1:
            order = order[:-1]
            dropped += 1
        for t in range(0, len(order), 2):
            a, b = order[t], order[t + 1]
            pairs.append(PairRecord(a, b, g.texts[a], g.texts[b]))
    return PairConversion(pairs, dropped)


def pairs_to_groups(pairs: Sequence[PairRecord]) -> list[SentenceGroup]:
    """Wrap each pair as a 2-language group for the single-positive arm."""
    return [
        SentenceGroup(id=f"p{i:07d}", texts={p.src_lang: p.src_text, p.tgt_lang: p.tgt_text})
        for i, p in enumerate(pairs)
    ]


def check_fit(groups: Sequence[SentenceGroup], k_positives: int, use_hard_negatives: bool) -> None:
    """Raise DatasetMismatchError unless every group can be batched.

    There must be at least one group. A group needs an anchor plus
    k_positives other languages, and hard negatives when
    use_hard_negatives is set.
    """
    if len(groups) == 0:
        raise DatasetMismatchError("empty dataset: no groups to batch")
    for g in groups:
        if len(g.texts) < k_positives + 1:
            raise DatasetMismatchError(
                f"group {g.id!r} has {len(g.texts)} languages, need {k_positives + 1} "
                f"(k_positives={k_positives} plus the anchor)"
            )
        if use_hard_negatives and not g.hard_negatives:
            raise DatasetMismatchError(f"group {g.id!r} lacks hard negatives")


def make_batches(
    groups: Sequence[SentenceGroup],
    batch_size: int,
    k_positives: int,
    rng_seed,
    *,
    max_len: int = 64,
    hash_bits: int = 16,
    use_hard_negatives: bool = False,
) -> Iterator[TrainingBatch]:
    """One epoch of tokenized batches in a seeded shuffled group order.

    Per group the anchor language is uniform and the K positive
    languages are sampled uniformly without replacement from the rest.
    A final batch smaller than 2 is dropped (no in-batch negatives).
    Groups that fail check_fit raise DatasetMismatchError.
    """
    if batch_size < 2:
        raise ValueError(f"batch_size must be at least 2, got {batch_size}")
    if k_positives < 1:
        raise ValueError(f"k_positives must be at least 1, got {k_positives}")
    check_fit(groups, k_positives, use_hard_negatives)

    rng = np.random.default_rng(rng_seed)
    order = rng.permutation(len(groups))

    def tok(text: str) -> list[int]:
        return tokenize(text, max_len=max_len, hash_bits=hash_bits)

    def flush(chunk: list[int]) -> TrainingBatch:
        anchors, positives, a_langs, hns = [], [], [], []
        for gi in chunk:
            g = groups[gi]
            langs = sorted(g.texts)
            anchor = langs[int(rng.integers(len(langs)))]
            rest = [l for l in langs if l != anchor]
            picked = [rest[i] for i in rng.choice(len(rest), size=k_positives, replace=False)]
            anchors.append(tok(g.texts[anchor]))
            a_langs.append(anchor)
            positives.append([tok(g.texts[l]) for l in picked])
            if use_hard_negatives:
                hn_options = sorted(g.hard_negatives)
                hn = hn_options[int(rng.integers(len(hn_options)))]
                hns.append(tok(g.hard_negatives[hn]))
        return TrainingBatch(anchors, positives, a_langs, hns if use_hard_negatives else None)

    for start in range(0, len(order), batch_size):
        chunk = [int(i) for i in order[start : start + batch_size]]
        if len(chunk) < 2:
            break
        yield flush(chunk)


def gen_cipher_corpus(
    n_concepts: int,
    sentence_len: int,
    n_langs: int,
    n_heldout_langs: int,
    vocab_size: int,
    seed,
    *,
    heldout_fresh_rate: float = 0.5,
) -> tuple[list[SentenceGroup], list[SentenceGroup]]:
    """Deterministic cipher-language corpus with held-out languages.

    Concepts are disjoint slices of a shuffled concept alphabet, so
    distinct concepts share no surface token in any language. Each
    training language renames the alphabet injectively into its own
    disjoint surface vocabulary. Each held-out language is a renaming
    never used in training: per concept symbol it either borrows the
    surface form of one uniformly chosen training language or (with
    probability heldout_fresh_rate) uses a token of its own that never
    occurs in training. That mirrors an unseen language sharing part
    of its subword inventory with seen ones while the rest is unknown;
    the unknown fraction controls how hard zero-shot retrieval is.

    Returns (training groups over the n_langs training languages,
    evaluation groups carrying the held-out languages plus the training
    languages for the same concepts).
    """
    if min(n_concepts, sentence_len, n_langs, vocab_size) < 1:
        raise ValueError("n_concepts, sentence_len, n_langs and vocab_size must all be >= 1")
    if n_heldout_langs < 0:
        raise ValueError(f"n_heldout_langs must be >= 0, got {n_heldout_langs}")
    if not 0.0 <= heldout_fresh_rate <= 1.0:
        raise ValueError(f"heldout_fresh_rate must be in [0, 1], got {heldout_fresh_rate}")
    needed = n_concepts * sentence_len
    if vocab_size < needed:
        raise ValueError(
            f"vocab_size {vocab_size} cannot host {n_concepts} disjoint concepts of "
            f"{sentence_len} tokens (need at least {needed})"
        )
    rng = np.random.default_rng(seed)
    alphabet = rng.permutation(vocab_size)
    concepts = [alphabet[g * sentence_len : (g + 1) * sentence_len] for g in range(n_concepts)]

    train_langs = [f"l{i}" for i in range(n_langs)]
    renames = {lang: rng.permutation(vocab_size) for lang in train_langs}

    def surface(lang: str, symbol: int) -> str:
        return f"{lang}w{renames[lang][symbol]}"

    heldout_langs = [f"h{i}" for i in range(n_heldout_langs)]
    heldout_renames = {lang: rng.permutation(vocab_size) for lang in heldout_langs}
    heldout_source = {
        lang: rng.integers(n_langs, size=vocab_size) for lang in heldout_langs
    }
    heldout_fresh = {
        lang: rng.random(vocab_size) < heldout_fresh_rate for lang in heldout_langs
    }

    def heldout_surface(lang: str, symbol: int) -> str:
        if heldout_fresh[lang][symbol]:
            return f"{lang}w{heldout_renames[lang][symbol]}"
        return surface(train_langs[int(heldout_source[lang][symbol])], symbol)

    train_groups = []
    eval_groups = []
    for g, seq in enumerate(concepts):
        gid = f"c{g:06d}"
        texts = {lang: " ".join(surface(lang, int(c)) for c in seq) for lang in train_langs}
        train_groups.append(SentenceGroup(id=gid, texts=dict(texts)))
        if heldout_langs:
            held = {
                lang: " ".join(heldout_surface(lang, int(c)) for c in seq)
                for lang in heldout_langs
            }
            eval_groups.append(SentenceGroup(id=gid, texts={**texts, **held}))
    return train_groups, eval_groups


def read_aligned_corpus(lang_paths: dict[str, str]) -> list[tuple[str, str, str]]:
    """Read one aligned file per language into (lang, key, sentence) records.

    The group key is the line index. Line counts must agree across
    languages; blank lines mean the language is missing for that key.
    """
    contents = {}
    counts = {}
    for lang, path in sorted(lang_paths.items()):
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
        if lines and lines[-1] == "":
            lines = lines[:-1]
        contents[lang] = lines
        counts[lang] = len(lines)
    if len(set(counts.values())) > 1:
        raise DataFormatError(f"aligned files disagree on line counts: {counts}")
    records = []
    for lang, lines in contents.items():
        for i, line in enumerate(lines):
            if line.strip():
                records.append((lang, f"{i}", line))
    return records


def write_groups_jsonl(groups: Sequence[SentenceGroup], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for g in groups:
            obj = {"id": g.id, "texts": g.texts}
            if g.hard_negatives:
                obj["hard_negatives"] = g.hard_negatives
            fh.write(json.dumps(obj, ensure_ascii=False) + "\n")


def read_groups_jsonl(path: str) -> list[SentenceGroup]:
    groups = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataFormatError(f"{path}:{lineno}: invalid JSON ({exc.msg})") from exc
            try:
                groups.append(
                    SentenceGroup(
                        id=str(obj["id"]),
                        texts={str(k): str(v) for k, v in obj["texts"].items()},
                        hard_negatives=(
                            {str(k): str(v) for k, v in obj["hard_negatives"].items()}
                            if obj.get("hard_negatives")
                            else None
                        ),
                    )
                )
            except (KeyError, TypeError, AttributeError, ValueError) as exc:
                raise DataFormatError(f"{path}:{lineno}: bad group record ({exc})") from exc
    return groups


def write_pairs_tsv(pairs: Sequence[PairRecord], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for p in pairs:
            fields = (p.src_lang, p.tgt_lang, p.src_text, p.tgt_text)
            for f in fields:
                if "\t" in f or "\n" in f:
                    raise DataFormatError("pair fields must not contain tabs or newlines")
            fh.write("\t".join(fields) + "\n")


def read_pairs_tsv(path: str) -> list[PairRecord]:
    pairs = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            cols = line.split("\t")
            if len(cols) != 4:
                raise DataFormatError(f"{path}:{lineno}: expected 4 tab-separated columns, got {len(cols)}")
            try:
                pairs.append(PairRecord(*cols))
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: {exc}") from exc
    return pairs
