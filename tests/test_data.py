import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import cipher_corpus_oracle, flat_batch, reference_batches
from multipos import data as data_mod
from multipos.data import (
    MAX_GROUP_LANGUAGES,
    DataFormatError,
    DatasetMismatchError,
    PairRecord,
    SentenceGroup,
    TokenCache,
    assemble_groups,
    attach_hard_negatives,
    check_fit,
    gen_cipher_corpus,
    groups_to_pairs,
    make_batches,
    pairs_to_groups,
    read_aligned_corpus,
    read_groups_jsonl,
    read_tsv,
    write_groups_jsonl,
    write_pairs_tsv,
)
from multipos.encoder import tokenize, tokenize_many


def test_group_and_pair_validation():
    with pytest.raises(ValueError):
        SentenceGroup(id="g", texts={"en": "x"})
    with pytest.raises(ValueError):
        PairRecord("en", "en", "a", "b")
    SentenceGroup(id="g", texts={"en": "x", "de": "y"})


def test_assemble_groups_drops_incomplete_keys():
    records = [
        ("en", "k1", "hello"),
        ("de", "k1", "hallo"),
        ("en", "k2", "world"),
        ("de", "k3", "welt"),
        ("en", "k3", "earth"),
        ("fr", "k1", "ignored language"),
    ]
    res = assemble_groups(records, ["en", "de"])
    assert [g.id for g in res.groups] == ["k1", "k3"]  # first-appearance order
    assert res.groups[0].texts == {"en": "hello", "de": "hallo"}
    assert res.dropped_keys == ["k2"]


def test_assemble_groups_duplicates_and_premise_rule():
    exact_dup = [("en", "k", "same"), ("en", "k", "same"), ("de", "k", "gleich")]
    res = assemble_groups(exact_dup, ["en", "de"])
    assert res.groups[0].texts["en"] == "same"

    with pytest.raises(DataFormatError, match="k9"):
        assemble_groups([("en", "k9", "one"), ("en", "k9", "two")], ["en", "de"])

    # tab-joined premise/hypothesis lines keep only the premise
    res = assemble_groups(
        [("en", "k", "premise\thypothesis"), ("de", "k", "praemisse")], ["en", "de"]
    )
    assert res.groups[0].texts["en"] == "premise"

    with pytest.raises(ValueError):
        assemble_groups([], ["en"])
    assert assemble_groups([], ["en", "de"]).groups == []


def test_attach_hard_negatives():
    groups = assemble_groups(
        [("en", "k1", "a"), ("de", "k1", "b"), ("en", "k2", "c"), ("de", "k2", "d")],
        ["en", "de"],
    ).groups
    attach_hard_negatives(groups, [("en", "k1", "not a"), ("de", "k1", "nicht b")])
    assert groups[0].hard_negatives == {"de": "nicht b", "en": "not a"}
    assert groups[1].hard_negatives is None
    with pytest.raises(DataFormatError, match="k1"):
        attach_hard_negatives(groups, [("en", "k1", "x"), ("en", "k1", "y")])


def _group(i: int, langs) -> SentenceGroup:
    return SentenceGroup(id=f"g{i}", texts={l: f"{l} text {i}" for l in langs})


def _token_sources(groups) -> dict[tuple[int, ...], tuple[str, str]]:
    """Each text's token ids mapped back to its (group id, language)."""
    return {tuple(tokenize(t)): (g.id, lang) for g in groups for lang, t in g.texts.items()}


def test_groups_to_pairs_covers_each_language_once():
    g = _group(0, ["l0", "l1", "l2", "l3", "l4", "l5"])
    conv = groups_to_pairs([g], rng_seed=0)
    assert len(conv.pairs) == 3
    assert conv.dropped_sentences == 0
    used = [lang for p in conv.pairs for lang in (p.src_lang, p.tgt_lang)]
    assert sorted(used) == ["l0", "l1", "l2", "l3", "l4", "l5"]
    for p in conv.pairs:
        assert p.src_text == g.texts[p.src_lang]
        assert p.tgt_text == g.texts[p.tgt_lang]


def test_groups_to_pairs_odd_language_count_drops_one():
    conv = groups_to_pairs([_group(0, ["a", "b", "c"])], rng_seed=1)
    assert len(conv.pairs) == 1
    assert conv.dropped_sentences == 1

    two = groups_to_pairs([_group(0, ["a", "b"])], rng_seed=2)
    assert len(two.pairs) == 1 and two.dropped_sentences == 0

    same = groups_to_pairs([_group(0, ["a", "b", "c"])], rng_seed=1)
    assert same.pairs == conv.pairs  # seeded determinism


def test_groups_to_pairs_matching_is_uniform():
    # with 4 languages the partner of "a" identifies the perfect matching
    groups = [_group(i, ["a", "b", "c", "d"]) for i in range(3000)]
    conv = groups_to_pairs(groups, rng_seed=123)
    assert len(conv.pairs) == 6000
    partners = Counter()
    for i in range(3000):
        for p in conv.pairs[2 * i : 2 * i + 2]:
            if "a" in (p.src_lang, p.tgt_lang):
                partners[p.tgt_lang if p.src_lang == "a" else p.src_lang] += 1
    assert sum(partners.values()) == 3000
    for lang in ("b", "c", "d"):
        assert abs(partners[lang] / 3000 - 1 / 3) < 0.05


@given(
    st.lists(st.integers(min_value=2, max_value=6), min_size=1, max_size=8),
    st.integers(min_value=0, max_value=2**31),
)
def test_groups_to_pairs_conserves_sentences(lang_counts, seed):
    groups = [_group(i, [f"l{j}" for j in range(n)]) for i, n in enumerate(lang_counts)]
    conv = groups_to_pairs(groups, rng_seed=seed)
    got = Counter()
    for p in conv.pairs:
        got[(p.src_lang, p.src_text)] += 1
        got[(p.tgt_lang, p.tgt_text)] += 1
    assert all(c == 1 for c in got.values())
    total = sum(lang_counts)
    assert sum(got.values()) == total - conv.dropped_sentences
    assert conv.dropped_sentences == sum(1 for n in lang_counts if n % 2 == 1)
    allowed = {(l, g.texts[l]) for g in groups for l in g.texts}
    assert set(got) <= allowed
    # as groups for the single-positive arm: two languages each, the same sentences
    pair_groups = pairs_to_groups(conv.pairs)
    assert len({g.id for g in pair_groups}) == len(conv.pairs)
    assert all(len(g.texts) == 2 and not g.hard_negatives for g in pair_groups)
    assert Counter((l, t) for g in pair_groups for l, t in g.texts.items()) == got


def test_pairs_to_groups_round_trip():
    pairs = [PairRecord("en", "de", "hello", "hallo"), PairRecord("fr", "en", "salut", "hi")]
    groups = pairs_to_groups(pairs)
    assert [g.id for g in groups] == ["p0000000", "p0000001"]
    assert groups[0].texts == {"en": "hello", "de": "hallo"}
    assert groups[1].texts == {"fr": "salut", "en": "hi"}


def test_make_batches_shapes_and_exactly_once():
    langs = ["l0", "l1", "l2", "l3"]
    groups = [_group(i, langs) for i in range(10)]
    batches = list(make_batches(groups, batch_size=4, k_positives=2, rng_seed=0))
    assert [b.size for b in batches] == [4, 4, 2]

    source = _token_sources(groups)
    seen = [source[tuple(a)][0] for b in batches for a in b.anchors]
    assert sorted(seen) == sorted(g.id for g in groups)

    for b in batches:
        for i in range(b.size):
            gid, anchor_lang = source[tuple(b.anchors[i])]
            assert anchor_lang == b.anchor_langs[i]
            positives = [source[tuple(p)] for p in b.positives[i]]
            assert len(positives) == 2
            assert all(g == gid for g, _ in positives)
            pos_langs = [lang for _, lang in positives]
            assert anchor_lang not in pos_langs
            assert len(set(pos_langs)) == 2


def test_make_batches_forced_selection_and_tail_drop():
    groups = [_group(i, ["x", "y", "z"]) for i in range(9)]
    batches = list(make_batches(groups, batch_size=4, k_positives=2, rng_seed=5))
    assert [b.size for b in batches] == [4, 4]  # final single-group tail dropped
    source = _token_sources(groups)
    for b in batches:
        for i in range(b.size):
            rows = [source[tuple(ids)] for ids in [b.anchors[i], *b.positives[i]]]
            assert len({gid for gid, _ in rows}) == 1
            assert sorted(lang for _, lang in rows) == ["x", "y", "z"]


def test_make_batches_determinism():
    groups = [_group(i, ["a", "b", "c"]) for i in range(8)]

    def snapshot(seed):
        return [
            (b.anchors, b.positives, b.anchor_langs)
            for b in make_batches(groups, 4, 1, seed)
        ]

    assert snapshot(7) == snapshot(7)
    assert snapshot(7) != snapshot(8)


def _assert_lookup(cache, texts, max_len, hash_bits):
    """cache.lookup(texts) equals per-text tokenize, laid out as encode takes it; returns it."""
    lengths, ids = cache.lookup(texts, max_len, hash_bits)
    want = flat_batch([tokenize(t, max_len, hash_bits) for t in texts])
    assert lengths.dtype == ids.dtype == np.int64
    assert (lengths.tolist(), ids.tolist()) == (want[0].tolist(), want[1].tolist())
    return lengths, ids


@given(
    texts=st.lists(st.one_of(st.text(max_size=40), st.sampled_from(["", " ", "...", "?!", "A a, a"])),
                   min_size=1, max_size=10),
    repeats=st.lists(st.integers(0, 99), max_size=6),
    filled=st.lists(st.integers(0, 99), max_size=6),
    max_len=st.integers(1, 80),
    hash_bits=st.integers(1, 24),
    other_bits=st.integers(1, 24),
)
def test_token_cache_returns_tokenize_ids(texts, repeats, filled, max_len, hash_bits, other_bits):
    cache = TokenCache()
    # some texts filled first, the rest missed; some asked for twice in one call
    cache.fill([texts[i % len(texts)] for i in filled], max_len, hash_bits)
    query = texts + [texts[i % len(texts)] for i in repeats]
    lengths, ids = _assert_lookup(cache, query, max_len, hash_bits)
    counts, many = tokenize_many(query, max_len, hash_bits)
    assert np.array_equal(lengths, counts) and np.array_equal(ids, many)
    ids[:] = -1  # a caller's edit must not reach the next lookup
    _assert_lookup(cache, query, max_len, hash_bits)
    # one text under two hash widths keeps each width's own ids
    _assert_lookup(cache, query, max_len, other_bits)
    _assert_lookup(cache, query[::-1], max_len, hash_bits)


def test_token_cache_lookup_tokenizes_each_missing_text_once(tokenized, monkeypatch):
    cache = TokenCache()
    cache.fill(["a b", "c"])
    tokenized.clear()
    monkeypatch.setattr(data_mod, "tokenize_many", None)  # a miss goes through tokenize alone
    _assert_lookup(cache, ["c", "d e", "a b", "d e", "", "f", "", "c"], 64, 16)
    assert tokenized == ["d e", "", "f"]
    _assert_lookup(cache, ["f", "d e", "a b"], 64, 16)
    assert tokenized == ["d e", "", "f"]


def test_token_cache_store_grows_after_lookup():
    cache = TokenCache()
    kept = _assert_lookup(cache, ["a b", "c"], 64, 12)
    packed = cache._stores[64, 12][1]
    size = len(packed)
    # with the returned arrays alive, a miss and a fill still grow the store:
    # no view of it is left to make the array refuse to resize
    _assert_lookup(cache, ["d", "a b"], 64, 12)
    cache.fill([f"w{i}" for i in range(3000)], 64, 12)
    assert len(packed) == size + 2 + 3000 * 2
    assert [a.tolist() for a in kept] == [[2, 1], tokenize("a b", 64, 12) + tokenize("c", 64, 12)]
    _assert_lookup(cache, ["w2999", "c", "w0"], 64, 12)


def test_token_cache_fill_blocks_and_refill(monkeypatch):
    blocks = []
    real = data_mod.tokenize_many

    def spy(texts, *args):
        blocks.append(len(texts))
        return real(texts, *args)

    monkeypatch.setattr(data_mod, "tokenize_many", spy)
    texts = [f"w{i} Shared, x{i % 7}" for i in range(2500)] + ["", "..."]
    cache = TokenCache()
    cache.fill(texts + texts[::-1], 64, 12)  # each text twice, tokenized once
    assert blocks == [1024, 1024, 454]
    packed = cache._stores[64, 12][1]
    size = len(packed)
    _assert_lookup(cache, texts, 64, 12)
    assert len(packed) == size  # every text was stored: the lookup tokenized none
    cache.fill(iter(texts[100:900]), 64, 12)
    assert blocks == [1024, 1024, 454] and len(packed) == size
    # another max_len is another store, filled on its own
    cache.fill(texts[:3], 2, 12)
    assert blocks[-1] == 3 and len(packed) == size
    _assert_lookup(cache, texts[:3], 2, 12)
    # the tokenizers' bound is the cache's, on a fill and on a miss
    with pytest.raises(ValueError, match=r"hash_bits must be in \[1, 24\], got 32"):
        cache.fill(["x"], 64, 32)
    with pytest.raises(ValueError, match=r"hash_bits must be in \[1, 24\], got 32"):
        TokenCache().lookup(["x"], 64, 32)


def test_make_batches_lays_out_the_drawn_texts_in_encode_order():
    langs = ["a", "b", "c", "d"]
    groups = [SentenceGroup(f"g{i}", {l: f"{l} text {i} more{i % 3}" for l in langs}) for i in range(11)]
    groups[3].texts["b"] = "?!"  # tokenizes to [0]
    for g in groups:
        g.hard_negatives = {l: f"hn {l} {g.id}" for l in ("a", "c")}
    k, max_len, hash_bits = 2, 3, 9
    batches = list(make_batches(
        groups, 4, k, [5, 1], max_len=max_len, hash_bits=hash_bits, use_hard_negatives=True
    ))
    assert [b.size for b in batches] == [4, 4, 3]
    reference = reference_batches(groups, 4, k, [5, 1], use_hard_negatives=True)
    for b, (a_langs, texts) in zip(batches, reference, strict=True):
        want = [tokenize(t, max_len, hash_bits) for t in texts]
        lengths, ids = flat_batch(want)
        assert b.lengths.tolist() == lengths.tolist() and b.ids.tolist() == ids.tolist()
        assert b.anchor_langs == a_langs and b.k == k and b.has_hard_negatives
        n = b.size
        assert b.anchors == want[:n]
        assert b.positives == [want[n + i * k : n + (i + 1) * k] for i in range(n)]
        assert b.hard_negatives == want[n * (1 + k) :]

    # without hard negatives a batch holds N(K+1) sequences
    (b, *_) = make_batches(groups, 4, k, [5, 1], max_len=max_len, hash_bits=hash_bits)
    assert len(b.lengths) == 4 * (1 + k) and not b.has_hard_negatives and b.hard_negatives is None
    seqs = [a.tolist() for a in np.split(b.ids, np.cumsum(b.lengths)[:-1])]
    assert b.anchors + [p for row in b.positives for p in row] == seqs


class _RecordingCache(TokenCache):
    """A TokenCache that keeps the texts of each lookup, in order."""

    def __init__(self) -> None:
        super().__init__()
        self.looked_up = []

    def lookup(self, texts, *args, **kwargs):
        self.looked_up.append(list(texts))
        return super().lookup(texts, *args, **kwargs)


_LANG_POOL = [f"x{i}" for i in range(9)]


@st.composite
def _epochs(draw):
    """(groups, batch size, K, seed, use_hard_negatives) for one epoch of make_batches.

    Each group has from K + 1 to K + 3 languages, so K = L - 1 and
    K < L - 1 mix within a batch, and 1 to 3 hard negatives. Languages
    come in any order; make_batches draws over them sorted.
    """
    k = draw(st.integers(1, 5))
    groups = []
    for i in range(draw(st.integers(2, 24))):
        langs = draw(st.lists(st.sampled_from(_LANG_POOL), min_size=k + 1, max_size=k + 3, unique=True))
        hard = draw(st.lists(st.sampled_from(_LANG_POOL), min_size=1, max_size=3, unique=True))
        groups.append(SentenceGroup(
            f"g{i}", {lang: f"{lang} t{i}" for lang in langs}, {lang: f"{lang} h{i}" for lang in hard}
        ))
    return groups, draw(st.integers(2, 8)), k, draw(st.integers(0, 2**32 - 1)), draw(st.booleans())


def _mixed_groups(n: int) -> list[SentenceGroup]:
    """Group i has 3 + i % 3 languages and 1 + i % 3 hard negatives."""
    return [
        SentenceGroup(
            f"g{i}",
            {lang: f"{lang} t{i}" for lang in _LANG_POOL[: 3 + i % 3]},
            {lang: f"{lang} h{i}" for lang in _LANG_POOL[: 1 + i % 3]},
        )
        for i in range(n)
    ]


@given(_epochs())
# K = 2 on 3 to 5 languages, hard negatives, and a tail batch of 2 after two of 4
@example((_mixed_groups(10), 4, 2, 29, True))
def test_make_batches_replays_the_per_group_draws(case):
    groups, batch_size, k, seed, hard = case
    cache = _RecordingCache()
    batches = list(make_batches(groups, batch_size, k, seed, use_hard_negatives=hard, tokens=cache))
    want = list(reference_batches(groups, batch_size, k, seed, hard))
    assert [b.anchor_langs for b in batches] == [a_langs for a_langs, _ in want]
    assert cache.looked_up == [texts for _, texts in want]


def test_make_batches_draws_each_batch_in_one_call(monkeypatch):
    """An epoch calls its generator once to shuffle and once per batch."""
    calls = []
    real = np.random.default_rng

    class Counting:
        def __init__(self, rng):
            self._rng = rng

        def __getattr__(self, name):
            method = getattr(self._rng, name)

            def call(*args, **kwargs):
                calls.append(name)
                return method(*args, **kwargs)

            return call

    monkeypatch.setattr(data_mod.np.random, "default_rng", lambda seed: Counting(real(seed)))
    for k, hard in ((1, False), (2, True)):
        calls.clear()
        assert len(list(make_batches(_mixed_groups(11), 4, k, 3, use_hard_negatives=hard))) == 3
        assert calls == ["permutation"] + ["integers"] * 3


def test_check_fit_refuses_groups_whose_draws_make_batches_cannot_replay():
    # at MAX_GROUP_LANGUAGES, choice's population is 10,000 and it runs
    # Floyd's algorithm even for K = 250; one language more and, with K
    # above a fiftieth of the population, it shuffles a tail instead
    texts = {f"l{j:05d}": f"t{j}" for j in range(MAX_GROUP_LANGUAGES)}
    groups = [SentenceGroup("g0", texts), SentenceGroup("g1", dict(texts))]
    cache = _RecordingCache()
    (batch,) = make_batches(groups, 2, 250, 4, tokens=cache)
    ((a_langs, want),) = reference_batches(groups, 2, 250, 4)
    assert batch.anchor_langs == a_langs and cache.looked_up == [want]
    groups[1].texts["zz"] = "one too many"
    with pytest.raises(DatasetMismatchError, match=f"'g1' has {MAX_GROUP_LANGUAGES + 1} languages"):
        check_fit(groups, 1, False)


def test_make_batches_validation_names_group():
    groups = [_group(0, ["a", "b"]), _group(1, ["a", "b"])]
    with pytest.raises(ValueError, match="g1"):
        list(make_batches([_group(0, ["a", "b", "c"]), _group(1, ["a", "b"])], 2, 2, 0))
    with pytest.raises(ValueError):
        list(make_batches(groups, 1, 1, 0))
    with pytest.raises(ValueError):
        list(make_batches(groups, 2, 0, 0))
    with pytest.raises(ValueError, match="g0"):
        list(make_batches(groups, 2, 1, 0, use_hard_negatives=True))


def test_make_batches_hard_negatives():
    groups = [_group(i, ["a", "b"]) for i in range(4)]
    for g in groups:
        g.hard_negatives = {"a": f"hn a {g.id}", "b": f"hn b {g.id}"}
    by_anchor = {tuple(tokenize(t)): g for g in groups for t in g.texts.values()}
    (batch,) = make_batches(groups, 4, 1, rng_seed=3, use_hard_negatives=True)
    assert batch.hard_negatives is not None and len(batch.hard_negatives) == 4
    for anchor, hn in zip(batch.anchors, batch.hard_negatives):
        g = by_anchor[tuple(anchor)]
        # one of its own group's hard negatives, so in one of the group's languages
        assert hn in [tokenize(t) for t in g.hard_negatives.values()]


def test_make_batches_anchor_choice_spread():
    groups = [_group(i, ["a", "b"]) for i in range(600)]
    counts = Counter()
    for b in make_batches(groups, 600, 1, rng_seed=11):
        counts.update(b.anchor_langs)
    assert counts["a"] + counts["b"] == 600
    assert 0.40 < counts["a"] / 600 < 0.60


def test_cipher_corpus_structure():
    train, evald = gen_cipher_corpus(20, 5, 3, 2, 100, seed=42)
    assert len(train) == len(evald) == 20
    assert sorted(train[0].texts) == ["l0", "l1", "l2"]
    assert sorted(evald[0].texts) == ["h0", "h1", "l0", "l1", "l2"]
    assert train[0].id == evald[0].id == "c000000"
    for g in train + evald:
        for text in g.texts.values():
            assert len(text.split()) == 5


def test_cipher_corpus_concepts_disjoint_per_language():
    train, evald = gen_cipher_corpus(30, 4, 2, 1, 120, seed=7)
    for lang in ("l0", "l1", "h0"):
        source = train if lang.startswith("l") else evald
        sets = [set(g.texts[lang].split()) for g in source]
        assert all(len(s) == 4 for s in sets)
        union = set().union(*sets)
        assert len(union) == 30 * 4


def test_cipher_corpus_fresh_rate_extremes():
    train, evald = gen_cipher_corpus(15, 4, 3, 1, 60, seed=1, heldout_fresh_rate=1.0)
    train_tokens = {t for g in train for txt in g.texts.values() for t in txt.split()}
    for g in evald:
        for tok in g.texts["h0"].split():
            assert tok.startswith("h0w")
            assert tok not in train_tokens

    train, evald = gen_cipher_corpus(15, 4, 3, 1, 60, seed=1, heldout_fresh_rate=0.0)
    for tg, eg in zip(train, evald):
        concept_tokens = {t for txt in tg.texts.values() for t in txt.split()}
        for i, tok in enumerate(eg.texts["h0"].split()):
            assert tok in concept_tokens
            # borrowed token sits at the same position in some training language
            assert any(tg.texts[l].split()[i] == tok for l in tg.texts)


def test_cipher_corpus_mixed_rate_and_determinism():
    _, evald = gen_cipher_corpus(40, 6, 4, 1, 240, seed=3, heldout_fresh_rate=0.5)
    toks = [t for g in evald for t in g.texts["h0"].split()]
    fresh = sum(t.startswith("h0w") for t in toks)
    assert 0 < fresh < len(toks)

    again = gen_cipher_corpus(40, 6, 4, 1, 240, seed=3, heldout_fresh_rate=0.5)
    assert [g.texts for g in again[1]] == [g.texts for g in evald]
    other = gen_cipher_corpus(40, 6, 4, 1, 240, seed=4, heldout_fresh_rate=0.5)
    assert [g.texts for g in other[0]] != [g.texts for g in gen_cipher_corpus(40, 6, 4, 1, 240, seed=3)[0]]


def test_cipher_corpus_zero_heldout_and_default_vocab():
    train, evald = gen_cipher_corpus(5, 3, 2, 0, 15, seed=0)
    assert evald == []
    assert len(train) == 5


def test_cipher_corpus_validation():
    with pytest.raises(ValueError):
        gen_cipher_corpus(10, 4, 2, 1, 39, seed=0)  # vocab below concepts * len
    with pytest.raises(ValueError):
        gen_cipher_corpus(10, 4, 2, 1, 40, seed=0, heldout_fresh_rate=2.0)
    with pytest.raises(ValueError):
        gen_cipher_corpus(10, 4, 2, -1, 40, seed=0)
    with pytest.raises(ValueError):
        gen_cipher_corpus(0, 4, 2, 1, 40, seed=0)
    for n_langs in (1, 0):
        with pytest.raises(ValueError, match=f"n_langs must be at least 2, .*got {n_langs}"):
            gen_cipher_corpus(10, 4, n_langs, 1, 40, seed=0)


def _as_written(groups):
    """Each group as its file line sees it: id, then texts in dict order."""
    return [(g.id, list(g.texts.items())) for g in groups]


@given(
    n_concepts=st.integers(1, 40),
    sentence_len=st.integers(1, 6),
    n_langs=st.integers(2, 7),
    n_heldout=st.integers(0, 3),
    spare=st.floats(0.0, 1.0),
    fresh_rate=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_cipher_corpus_matches_the_per_symbol_oracle(n_concepts, sentence_len, n_langs, n_heldout, spare,
                                                     fresh_rate, seed):
    # vocab_size from exactly the symbols the concepts need up to twice that
    needed = n_concepts * sentence_len
    args = (n_concepts, sentence_len, n_langs, n_heldout, needed + int(spare * needed), seed)
    got = gen_cipher_corpus(*args, heldout_fresh_rate=fresh_rate)
    want = cipher_corpus_oracle(*args, heldout_fresh_rate=fresh_rate)
    assert [_as_written(groups) for groups in got] == [_as_written(groups) for groups in want]


@pytest.mark.parametrize("sentence_len", [1, 2])
@pytest.mark.parametrize(
    "blocks, extra", [(1, -1), (1, 0), (1, 1), (2, 1)],
    ids=["block-minus-1", "block", "block-plus-1", "2-blocks-plus-1"],
)
def test_cipher_corpus_across_block_boundaries(blocks, extra, sentence_len):
    n_concepts = blocks * data_mod._SYNTH_BLOCK + extra
    args = (n_concepts, sentence_len, 3, 2, n_concepts * sentence_len + 7, 11)
    got = gen_cipher_corpus(*args, heldout_fresh_rate=0.4)
    want = cipher_corpus_oracle(*args, heldout_fresh_rate=0.4)
    assert len(got[0]) == len(got[1]) == n_concepts
    assert [_as_written(groups) for groups in got] == [_as_written(groups) for groups in want]


def test_groups_jsonl_round_trip(tmp_path):
    groups = [
        SentenceGroup("a", {"en": "naïve text", "ja": "日本語 テスト"}),
        SentenceGroup("b", {"en": "x", "de": "y"}, hard_negatives={"en": "not x"}),
        SentenceGroup('q"b\\', {"en": 'say "hi"', "de": "line\u2028sep\ttab"}, hard_negatives={"en": "\u00e9\n"}),
    ]
    path = tmp_path / "groups.jsonl"
    write_groups_jsonl(groups, str(path))
    # each line is what json.dumps(obj, ensure_ascii=False) writes
    want = [json.dumps(obj, ensure_ascii=False) for obj in (
        {"id": "a", "texts": groups[0].texts},
        {"id": "b", "texts": groups[1].texts, "hard_negatives": groups[1].hard_negatives},
        {"id": groups[2].id, "texts": groups[2].texts, "hard_negatives": groups[2].hard_negatives},
    )]
    assert path.read_text(encoding="utf-8").split("\n") == [*want, ""]
    back = read_groups_jsonl(str(path))
    assert back == groups


def test_groups_jsonl_errors(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "a", "texts": {"en": "x", "de": "y"}}\nnot json\n', encoding="utf-8")
    with pytest.raises(DataFormatError, match=":2:"):
        read_groups_jsonl(str(path))
    path.write_text('{"id": "a"}\n', encoding="utf-8")
    with pytest.raises(DataFormatError, match=":1:"):
        read_groups_jsonl(str(path))
    path.write_text('\n{"id": "a", "texts": {"en": "x", "de": "y"}}\n', encoding="utf-8")
    assert len(read_groups_jsonl(str(path))) == 1  # blank lines skipped


def test_read_groups_jsonl_rejects_lone_surrogates(tmp_path):
    # an escaped surrogate pair is one code point; one escape alone is a lone
    # surrogate, which no UTF-8 output can hold
    ok = '{"id": "g\\u00e9", "texts": {"a": "\\ud83d\\ude00", "b": "y"}}'
    path = tmp_path / "groups.jsonl"
    path.write_text(ok + "\n", encoding="utf-8")
    assert read_groups_jsonl(str(path)) == [SentenceGroup("g\u00e9", {"a": "\U0001f600", "b": "y"})]
    for record in (
        f'{{"id": "x\\ud800", {TWO}}}',
        '{"id": "g", "texts": {"a": "x\\ud800y", "b": "y"}}',
        '{"id": "g", "texts": {"a\\ud800": "x", "b": "y"}}',
        f'{{"id": "g", {TWO}, "hard_negatives": {{"a": "\\ud800"}}}}',
        f'{{"id": "g", {TWO}, "hard_negatives": {{"\\ud800": "z"}}}}',
    ):
        path.write_text(f"{ok}\n{record}\n", encoding="utf-8")
        with pytest.raises(DataFormatError) as err:
            read_groups_jsonl(str(path))
        assert str(err.value) == f"{path}:2: bad group record (lone surrogate '\\ud800' is not valid Unicode)"


def _bad_record(operation) -> str:
    """The reader's message for a record on which Python's `operation` fails."""
    try:
        operation()
    except (KeyError, TypeError, AttributeError) as exc:
        return f"bad group record ({exc})"
    raise AssertionError("the operation did not fail")


TWO = '"texts": {"a": "x", "b": "y"}'


@pytest.mark.parametrize("record, message", [
    ("not json", "invalid JSON (Expecting value)"),
    (f'{{"id": "g", {TWO}', "invalid JSON (Expecting ',' delimiter)"),
    # a record that is no JSON object fails on its "id"
    ("[1, 2]", _bad_record(lambda: json.loads("[1, 2]")["id"])),
    ('"abc"', _bad_record(lambda: json.loads('"abc"')["id"])),
    ("5", _bad_record(lambda: json.loads("5")["id"])),
    (f"{{{TWO}}}", "bad group record ('id')"),
    ('{"id": "g"}', "bad group record ('texts')"),
    ('{"id": "g", "texts": ["x", "y"]}', _bad_record(lambda: ["x", "y"].items())),
    ('{"id": "g", "texts": "xy"}', _bad_record(lambda: "xy".items())),
    ('{"id": "g", "texts": {"a": "x"}}', "bad group record (group 'g' needs at least 2 languages, got 1)"),
    (f'{{"id": "g", {TWO}, "hard_negatives": ["x"]}}', _bad_record(lambda: ["x"].items())),
    (f'{{"id": "g", {TWO}, "hard_negatives": "x"}}', _bad_record(lambda: "x".items())),
])
def test_read_groups_jsonl_names_each_bad_line(tmp_path, record, message):
    path = tmp_path / "bad.jsonl"
    path.write_text(f'{{"id": "ok", {TWO}}}\n{record}\n', encoding="utf-8")
    with pytest.raises(DataFormatError) as err:
        read_groups_jsonl(str(path))
    assert str(err.value) == f"{path}:2: {message}"


def test_read_groups_jsonl_coerces_values_and_drops_empty_hard_negatives(tmp_path):
    path = tmp_path / "groups.jsonl"
    path.write_text(
        f'{{"id": "g", {TWO}, "hard_negatives": {{}}}}\n'
        '{"id": 7, "texts": {"a": 1, "b": 2.5, "c": null, "d": true}, "hard_negatives": {"a": 3}}\n',
        encoding="utf-8",
    )
    assert read_groups_jsonl(str(path)) == [
        SentenceGroup("g", {"a": "x", "b": "y"}),
        SentenceGroup("7", {"a": "1", "b": "2.5", "c": "None", "d": "True"}, hard_negatives={"a": "3"}),
    ]


def _read_pairs(path):
    """A to-pairs TSV, read as the program reads every TSV."""
    return read_tsv(path, "src_lang<TAB>tgt_lang<TAB>src_text<TAB>tgt_text", PairRecord)


def test_pairs_tsv_round_trip_and_errors(tmp_path):
    pairs = [PairRecord("en", "de", "hello there", "hallo du")]
    path = str(tmp_path / "pairs.tsv")
    write_pairs_tsv(pairs, path)
    assert _read_pairs(path) == pairs

    for bad in ("has\ttab", "has\nnewline", "has\rreturn"):
        with pytest.raises(DataFormatError):
            write_pairs_tsv([PairRecord("en", "de", bad, "y")], path)
    assert _read_pairs(path) == pairs

    bad = tmp_path / "bad.tsv"
    bad.write_text("en\tde\tonly three\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match=":1:"):
        _read_pairs(str(bad))
    bad.write_text("en\ten\tsame\tlang\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match=":1:"):
        _read_pairs(str(bad))


def test_writers_refuse_lone_surrogates_and_keep_the_old_file(tmp_path):
    ok = SentenceGroup("g0", {"a": "x", "b": "y"}, {"a": "z"})
    bad_groups = [
        SentenceGroup("g\ud800", {"a": "x", "b": "y"}),
        SentenceGroup("g", {"a\ud800": "x", "b": "y"}),
        SentenceGroup("g", {"a": "x\ud800y", "b": "y"}),
        SentenceGroup("g", {"a": "x", "b": "y"}, {"\ud800": "z"}),
        SentenceGroup("g", {"a": "x", "b": "y"}, {"a": "\ud800"}),
    ]
    ok_pair = PairRecord("a", "b", "x", "y")
    bad_pairs = [PairRecord("a\ud800", "b", "x", "y"), PairRecord("a", "b", "x", "y\ud800z")]
    before = b"an older file\n"
    cases = [(write_groups_jsonl, "group", [ok, bad]) for bad in bad_groups]
    cases += [(write_pairs_tsv, "pair", [ok_pair, bad]) for bad in bad_pairs]
    for write, record, records in cases:
        path = tmp_path / f"out.{record}"
        path.write_bytes(before)
        with pytest.raises(DataFormatError) as err:
            write(records, str(path))
        assert str(err.value) == f"{path}:2: bad {record} record (lone surrogate '\\ud800' is not valid Unicode)"
        assert path.read_bytes() == before


def test_read_aligned_corpus(tmp_path):
    (tmp_path / "en.txt").write_text("one\n\nthree\n", encoding="utf-8")
    (tmp_path / "de.txt").write_text("eins\nzwei\ndrei\n", encoding="utf-8")
    records = read_aligned_corpus({"en": str(tmp_path / "en.txt"), "de": str(tmp_path / "de.txt")})
    res = assemble_groups(records, ["en", "de"])
    assert [g.id for g in res.groups] == ["0", "2"]
    assert res.dropped_keys == ["1"]

    (tmp_path / "fr.txt").write_text("un\n", encoding="utf-8")
    with pytest.raises(DataFormatError):
        read_aligned_corpus({"en": str(tmp_path / "en.txt"), "fr": str(tmp_path / "fr.txt")})
