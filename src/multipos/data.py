"""Grouped multilingual data: assembly, pairing, batching, synthesis.

A sentence group holds one sentence per language for the same meaning,
plus optional per-language hard negatives. Groups can be flattened to
directional pairs (for the single-positive baseline) or batched with a
sampled anchor language and K positive languages (for the
multi-positive objective). A deterministic cipher-language generator
provides desk-scale corpora with controllable seen/held-out languages.
"""

from __future__ import annotations

import itertools
import json
from array import array
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .encoder import _id_lists, tokenize, tokenize_many


class DataFormatError(ValueError):
    """Malformed input data (bad file, conflicting records, ...)."""


class DatasetMismatchError(ValueError):
    """The groups do not fit the training settings.

    Too few languages for K positives, missing hard negatives, or no
    groups at all.
    """


# texts TokenCache.fill reads, and at most tokenizes, at a time: one block's
# words are temporaries, and filling all texts at once raises the peak memory
_FILL_BLOCK = 1024


class TokenCache:
    """`tokenize` that tokenizes each distinct text once per (max_len, hash_bits).

    One cache serves one command: its epochs, its arms and its
    evaluations. Per (max_len, hash_bits) it keeps one int32 array that
    holds each text's id count followed by its ids, and a dict from
    text to where that count sits: a fraction of the memory of a list
    of Python ints, or of a bytes object, per text. Both tokenizers take
    hash_bits up to MAX_HASH_BITS, so every id fits in int32. `fill`
    stores many texts through this module's `tokenize_many`; `lookup`
    stores the texts it lacks through this module's `tokenize`, then
    reads every text's ids at once.
    """

    def __init__(self) -> None:
        self._stores: dict[tuple[int, int], tuple[dict[str, int], array]] = {}

    def _store(self, max_len: int, hash_bits: int) -> tuple[dict[str, int], array]:
        store = self._stores.get((max_len, hash_bits))
        if store is None:
            store = self._stores[max_len, hash_bits] = ({}, array("i"))
        return store

    def fill(self, texts: Iterable[str], max_len: int = 64, hash_bits: int = 16) -> None:
        """Store each of `texts` the cache lacks, tokenized by `tokenize_many` _FILL_BLOCK texts at a time."""
        where, packed = self._store(max_len, hash_bits)
        texts = iter(texts)
        while chunk := list(itertools.islice(texts, _FILL_BLOCK)):
            block = [t for t in dict.fromkeys(chunk) if t not in where]
            if block:
                counts, ids = tokenize_many(block, max_len, hash_bits)
                starts = np.cumsum(counts) - counts
                where.update(zip(block, (len(packed) + starts + np.arange(len(block))).tolist()))
                packed.frombytes(np.insert(ids, starts, counts).astype(np.intc).tobytes())

    def lookup(
        self, texts: Sequence[str], max_len: int = 64, hash_bits: int = 16
    ) -> tuple[np.ndarray, np.ndarray]:
        """`tokenize_many(texts, max_len, hash_bits)` read from the cache: int64 id counts and ids.

        A text the cache lacks is first stored through `tokenize`, once
        per distinct text; then one gather reads every text's ids.
        """
        where, packed = self._store(max_len, hash_bits)
        for text in texts:
            if text not in where:  # a repeat of a text is stored by now
                ids = tokenize(text, max_len=max_len, hash_bits=hash_bits)
                where[text] = len(packed)
                packed.append(len(ids))
                packed.extend(ids)
        at = np.fromiter(map(where.__getitem__, texts), dtype=np.int64, count=len(texts))
        # a view of the store: the gathers copy out of it, and it is gone
        # before the store can grow (an array with a view alive cannot resize)
        store = np.frombuffer(packed, dtype=np.intc)
        counts = store[at].astype(np.int64)
        # id j of text i sits at at[i] + 1 + j
        first = np.repeat(at + 1 - (np.cumsum(counts) - counts), counts)
        ids = store[first + np.arange(len(first))].astype(np.int64)
        del store
        return counts, ids


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
    """Tokenized batch of N groups, in the form `encode` takes.

    lengths holds one id count per sequence and ids their ids end to
    end, in encode order: N anchors, then N x K positives row by row,
    then N hard negatives when has_hard_negatives. Row i of each part
    comes from group i; anchor_langs names each anchor's language for
    error messages. The nested id lists are rebuilt on request.
    """

    lengths: np.ndarray
    ids: np.ndarray
    k: int
    anchor_langs: list[str]
    has_hard_negatives: bool

    @property
    def size(self) -> int:
        return len(self.anchor_langs)

    @property
    def anchors(self) -> list[list[int]]:
        return _id_lists(self.lengths, self.ids)[: self.size]

    @property
    def positives(self) -> list[list[list[int]]]:
        n, k = self.size, self.k
        seqs = _id_lists(self.lengths, self.ids)[n : n + n * k]
        return [seqs[i * k : (i + 1) * k] for i in range(n)]

    @property
    def hard_negatives(self) -> list[list[int]] | None:
        if not self.has_hard_negatives:
            return None
        return _id_lists(self.lengths, self.ids)[self.size * (1 + self.k) :]


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


# the most languages a group can have: make_batches replays the draws of
# `rng.choice(L - 1, size=K, replace=False)`, which numpy makes by Floyd's
# algorithm only while its population L - 1 is at most 10,000
MAX_GROUP_LANGUAGES = 10_001


def check_fit(groups: Sequence[SentenceGroup], k_positives: int, use_hard_negatives: bool) -> None:
    """Raise DatasetMismatchError unless every group can be batched.

    There must be at least one group. A group needs an anchor plus
    k_positives other languages, at most MAX_GROUP_LANGUAGES languages
    in all, and hard negatives when use_hard_negatives is set.
    """
    if len(groups) == 0:
        raise DatasetMismatchError("empty dataset: no groups to batch")
    for g in groups:
        if len(g.texts) < k_positives + 1:
            raise DatasetMismatchError(
                f"group {g.id!r} has {len(g.texts)} languages, need {k_positives + 1} "
                f"(k_positives={k_positives} plus the anchor)"
            )
        if len(g.texts) > MAX_GROUP_LANGUAGES:
            raise DatasetMismatchError(
                f"group {g.id!r} has {len(g.texts)} languages, at most {MAX_GROUP_LANGUAGES} can be batched"
            )
        if use_hard_negatives and not g.hard_negatives:
            raise DatasetMismatchError(f"group {g.id!r} lacks hard negatives")


def batch_texts(groups: Iterable[SentenceGroup], use_hard_negatives: bool) -> Iterator[str]:
    """Every text make_batches can draw: each group text, and each hard negative under use_hard_negatives."""
    for g in groups:
        yield from g.texts.values()
        if use_hard_negatives and g.hard_negatives:
            yield from g.hard_negatives.values()


def make_batches(
    groups: Sequence[SentenceGroup],
    batch_size: int,
    k_positives: int,
    rng_seed,
    *,
    max_len: int = 64,
    hash_bits: int = 16,
    use_hard_negatives: bool = False,
    tokens: TokenCache | None = None,
) -> Iterator[TrainingBatch]:
    """One epoch of tokenized batches in a seeded shuffled group order.

    Per group the anchor language is uniform and the K positive
    languages are sampled uniformly without replacement from the rest.
    A final batch smaller than 2 is dropped (no in-batch negatives).
    Groups that fail check_fit raise DatasetMismatchError. Each batch
    reads its texts in one `lookup` of `tokens`, a fresh TokenCache
    when none is given.

    The draws are those of three calls per group, in group order:
    `rng.integers(L)` for the anchor among the group's L languages,
    `rng.choice(L - 1, size=K, replace=False)` for the positives among
    the rest, and `rng.integers(H)` for one of its H hard negatives.
    Each of those is a run of bounded draws whose bounds depend only on
    L, K and H: the anchor's, Floyd's picks, then the swaps of the
    shuffle `choice` ends with. So a batch makes all of its groups'
    draws in one `rng.integers` over a matrix of those bounds, row by
    row, and replays Floyd's algorithm and the shuffle on the result:
    the generator's stream and state are the per-group calls' exactly.
    """
    if batch_size < 2:
        raise ValueError(f"batch_size must be at least 2, got {batch_size}")
    if k_positives < 1:
        raise ValueError(f"k_positives must be at least 1, got {k_positives}")
    check_fit(groups, k_positives, use_hard_negatives)

    rng = np.random.default_rng(rng_seed)
    order = rng.permutation(len(groups))
    if tokens is None:
        tokens = TokenCache()
    k = k_positives
    # columns of a batch's draws: the anchor, Floyd's picks, the shuffle's swaps, the hard negative
    floyd, swaps = 1 + np.arange(k), 1 + k + np.arange(k - 1)

    def flush(chunk: list[int]) -> TrainingBatch:
        texts = [sorted(groups[gi].texts.items()) for gi in chunk]
        n_langs = np.array([len(t) for t in texts])
        # inclusive bounds, in the per-group calls' order; a zero bound takes no draw
        bounds = np.empty((len(chunk), 2 * k + use_hard_negatives), dtype=np.int64)
        bounds[:, 0] = n_langs - 1
        bounds[:, floyd] = (n_langs - 1 - k)[:, None] + np.arange(k)
        bounds[:, swaps] = np.arange(k - 1, 0, -1)
        if use_hard_negatives:
            negatives = [sorted(groups[gi].hard_negatives.items()) for gi in chunk]
            bounds[:, -1] = [len(h) - 1 for h in negatives]
        draws = rng.integers(0, bounds, endpoint=True)
        # Floyd: pick t takes its draw, or its bound when the row holds that draw already
        picks = draws[:, floyd]
        for t in range(1, k):
            taken = (picks[:, :t] == picks[:, t, None]).any(axis=1)
            picks[taken, t] = bounds[taken, 1 + t]
        rows = np.arange(len(chunk))
        for i, j in zip(range(k - 1, 0, -1), draws[:, swaps].T):
            picks[rows, i], picks[rows, j] = picks[rows, j], picks[rows, i]
        anchors = draws[:, 0]
        picks += picks >= anchors[:, None]  # from an index into the other languages to one into all
        a_langs, seqs = [], []
        for t, a in zip(texts, anchors.tolist()):
            a_langs.append(t[a][0])
            seqs.append(t[a][1])
        seqs += [t[p][1] for t, row in zip(texts, picks.tolist()) for p in row]
        if use_hard_negatives:
            seqs += [h[i][1] for h, i in zip(negatives, draws[:, -1].tolist())]
        lengths, ids = tokens.lookup(seqs, max_len, hash_bits)
        return TrainingBatch(lengths, ids, k, a_langs, use_hard_negatives)

    for start in range(0, len(order), batch_size):
        chunk = order[start : start + batch_size].tolist()
        if len(chunk) < 2:
            break
        yield flush(chunk)


# concepts gen_cipher_corpus formats at a time: a block's words are
# temporaries, and larger blocks raise the peak memory without running faster
_SYNTH_BLOCK = 64


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
    if min(n_concepts, sentence_len, vocab_size) < 1:
        raise ValueError("n_concepts, sentence_len and vocab_size must all be >= 1")
    if n_langs < 2:
        raise ValueError(f"n_langs must be at least 2, since a group pairs its sentences; got {n_langs}")
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
    train_langs = [f"l{i}" for i in range(n_langs)]
    renames = [rng.permutation(vocab_size) for _ in train_langs]
    heldout_langs = [f"h{i}" for i in range(n_heldout_langs)]
    heldout_renames = [rng.permutation(vocab_size) for _ in heldout_langs]
    heldout_source = [rng.integers(n_langs, size=vocab_size) for _ in heldout_langs]
    heldout_fresh = [rng.random(vocab_size) < heldout_fresh_rate for _ in heldout_langs]

    train_groups = []
    eval_groups = []
    # Each word is formatted once; a held-out word that is not fresh is
    # its source language's word.
    for first in range(0, n_concepts, _SYNTH_BLOCK):
        n = min(_SYNTH_BLOCK, n_concepts - first)
        symbols = alphabet[first * sentence_len : (first + n) * sentence_len]
        forms = np.array(
            [[f"{lang}w{s}" for s in rename[symbols].tolist()] for lang, rename in zip(train_langs, renames)],
            dtype=object,
        )
        held_words = []
        for lang, rename, source, fresh in zip(heldout_langs, heldout_renames, heldout_source, heldout_fresh):
            words = forms[source[symbols], np.arange(len(symbols))]  # each symbol's borrowed form
            is_fresh = fresh[symbols]
            words[is_fresh] = [f"{lang}w{s}" for s in rename[symbols[is_fresh]].tolist()]
            held_words.append(words.tolist())
        train_words = forms.tolist()
        for g in range(n):
            gid = f"c{first + g:06d}"
            lo, hi = g * sentence_len, (g + 1) * sentence_len
            texts = {lang: " ".join(w[lo:hi]) for lang, w in zip(train_langs, train_words)}
            train_groups.append(SentenceGroup(id=gid, texts=texts))
            if heldout_langs:
                held = {lang: " ".join(w[lo:hi]) for lang, w in zip(heldout_langs, held_words)}
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
    # every field is checked before the file opens: a refused write leaves path as it was
    for lineno, g in enumerate(groups, start=1):
        _check_unicode(_group_fields(g), f"{path}:{lineno}", "group")
    # json.dumps(obj, ensure_ascii=False) builds an encoder per call; build one
    encode = json.JSONEncoder(ensure_ascii=False).encode
    with open(path, "w", encoding="utf-8") as fh:
        for g in groups:
            obj = {"id": g.id, "texts": g.texts}
            if g.hard_negatives:
                obj["hard_negatives"] = g.hard_negatives
            fh.write(encode(obj) + "\n")


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
            except (ValueError, RecursionError) as exc:  # a number too long, nesting too deep
                raise DataFormatError(f"{path}:{lineno}: invalid JSON ({exc})") from exc
            try:
                group = SentenceGroup(
                    id=str(obj["id"]),
                    texts={str(k): str(v) for k, v in obj["texts"].items()},
                    hard_negatives=(
                        {str(k): str(v) for k, v in obj["hard_negatives"].items()}
                        if obj.get("hard_negatives")
                        else None
                    ),
                )
            except (KeyError, TypeError, AttributeError, ValueError) as exc:
                raise DataFormatError(f"{path}:{lineno}: bad group record ({exc})") from exc
            # only a \u escape spells a lone surrogate, which no UTF-8 file can hold;
            # testing for any backslash costs a fraction of testing for "\u"
            if "\\" in line:
                _check_unicode(_group_fields(group), f"{path}:{lineno}", "group")
            groups.append(group)
    return groups


def _group_fields(group: SentenceGroup) -> tuple[str, ...]:
    """The id, languages and texts of group, hard negatives included."""
    negatives = group.hard_negatives or {}
    return (group.id, *group.texts, *group.texts.values(), *negatives, *negatives.values())


def _check_unicode(fields: Iterable[str], where: str, record: str) -> None:
    """Raise DataFormatError naming `where` and the `record` kind if one of fields holds a lone surrogate."""
    # one encode of the fields joined costs less than one per field
    joined = "".join(fields)
    try:
        joined.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise DataFormatError(
            f"{where}: bad {record} record (lone surrogate {joined[exc.start]!r} is not valid Unicode)"
        ) from None


def write_pairs_tsv(pairs: Sequence[PairRecord], path: str) -> None:
    # every field is checked before the file opens: a refused write leaves path as it was
    rows = [(p.src_lang, p.tgt_lang, p.src_text, p.tgt_text) for p in pairs]
    # read_tsv reads lines with universal newlines, so "\r" ends a line too
    if any("\t" in f or "\n" in f or "\r" in f for row in rows for f in row):
        raise DataFormatError("pair fields must not contain tabs or newlines (\\n or \\r)")
    for lineno, row in enumerate(rows, start=1):
        _check_unicode(row, f"{path}:{lineno}", "pair")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines("\t".join(row) + "\n" for row in rows)


def read_lines(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh]
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise DataFormatError(f"{path}: empty file")
    return lines


def read_tsv(path: str, layout: str, parse=lambda *cols: cols) -> list:
    """Rows of a tab-separated file laid out as `layout`, each through `parse`.

    `parse` takes a row's columns and raises ValueError on a bad value.
    """
    width = layout.count("<TAB>") + 1
    rows = []
    for lineno, line in enumerate(read_lines(path), start=1):
        cols = line.split("\t")
        if len(cols) != width:
            raise DataFormatError(f"{path}:{lineno}: expected {layout}")
        try:
            rows.append(parse(*cols))
        except ValueError as exc:
            raise DataFormatError(f"{path}:{lineno}: {exc}") from exc
    return rows
