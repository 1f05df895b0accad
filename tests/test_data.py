from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from multipos.data import (
    DataFormatError,
    PairRecord,
    SentenceGroup,
    assemble_groups,
    attach_hard_negatives,
    gen_cipher_corpus,
    groups_to_pairs,
    make_batches,
    pairs_to_groups,
    read_aligned_corpus,
    read_groups_jsonl,
    read_pairs_tsv,
    write_groups_jsonl,
    write_pairs_tsv,
)
from multipos.encoder import tokenize


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


def test_groups_jsonl_round_trip(tmp_path):
    groups = [
        SentenceGroup("a", {"en": "naïve text", "ja": "日本語 テスト"}),
        SentenceGroup("b", {"en": "x", "de": "y"}, hard_negatives={"en": "not x"}),
    ]
    path = str(tmp_path / "groups.jsonl")
    write_groups_jsonl(groups, path)
    back = read_groups_jsonl(path)
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


def test_pairs_tsv_round_trip_and_errors(tmp_path):
    pairs = [PairRecord("en", "de", "hello there", "hallo du")]
    path = str(tmp_path / "pairs.tsv")
    write_pairs_tsv(pairs, path)
    assert read_pairs_tsv(path) == pairs

    with pytest.raises(DataFormatError):
        write_pairs_tsv([PairRecord("en", "de", "has\ttab", "y")], path)

    bad = tmp_path / "bad.tsv"
    bad.write_text("en\tde\tonly three\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match=":1:"):
        read_pairs_tsv(str(bad))
    bad.write_text("en\ten\tsame\tlang\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match=":1:"):
        read_pairs_tsv(str(bad))


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
