"""The byte gate: artifacts of the compare recipe keep their exact bytes.

They are the synth corpus and the off-recipe data files, compare
reports, train checkpoints, and eval reports scored from the 2-epoch
multi run. Two more train checkpoints come from an off-recipe config
(OFF_RECIPE) that runs the paths the recipe never does: tau below 1,
hard negatives, gradient clipping and warm-up. One more (MIXED) trains
on groups that differ in their language and hard-negative counts.

A change that alters these bytes on purpose records the new digests in
DIGESTS and says so. The checkpoints and reports pass through BLAS
products, so they may also differ under another numpy or BLAS build, or
on a CPU whose kernels OpenBLAS picks differently; BUILD names the build
they were recorded with.
"""

import hashlib
import json
import os

import numpy as np
import pytest

from helpers import train_module
from multipos import cli
from multipos.data import attach_hard_negatives, read_groups_jsonl, write_groups_jsonl

BUILD = "numpy 2.4.6, scipy-openblas 0.3.31.188.0"

# SHA-256 of each artifact built from `synth --concepts 500 --langs 6
# --heldout 1 --seed 7`
DIGESTS = {
    # the corpus itself, and the off-recipe data (see _with_hard_negatives):
    # text written by the generator and the group writer, so no BLAS build
    # changes these three
    "synth groups.jsonl": "951b5cfe8b2305280bfd837a574597434539d977e706966698c4f0fa732c5418",
    "synth heldout.jsonl": "1402f7039585ba5be3e20f70919c7377dab5cf4ee38d5a689caa5dd51586582f",
    "off-recipe data hard.jsonl": "0e3fee782e9be7a595d9bcd9143b1ddd3867aee6c9237b5b9a740e13a28336b5",
    "compare --seeds 1 --epochs 2": "d086112f86266f642525ad3538370f033a4ca18e8d704f873be8ddd38f3cfcba",
    "compare --seeds 2 --epochs 1": "c2fcde0b894fae3d0a0fdc85e8f551cff7e4529427aae51fa2478cad3069d095",
    "compare --seeds 2 --epochs 1 --fixed-pairs": "960a843e8d765a86c5d6e3020499448ac5ab3e2e0055a3cd35a383552c0f32f8",
    "train multi, final.ckpt": "e0e8d7ac4c3b4f591f55bac60f83bc3f1fc4d05afc09372b952e907a546389c0",
    # a mid-run checkpoint: saved while training stores rows in first-touch order
    "train multi, epoch_0001.ckpt": "0b05b574c2edaff41cd3837cd9169924e181665cf1d2505369d6e629cdffd315",
    "train single, final.ckpt": "1ddd8ef2ef9feccabc75bcc7668807f251cb36e1c350a588ef0109a468a1686f",
    # OFF_RECIPE on the corpus with hard negatives; see _with_hard_negatives
    "train off-recipe min_max, final.ckpt": "c805aec0086690f95ba4b514fca33639943a8fe3de84cfec3a361273b65ba808",
    "train off-recipe identity, final.ckpt": "86c7bed1f4fe74d7fc7ccb25b8ebf252a88a16cb4a13f1bfe19913f64972b6b2",
    "train off-recipe min_max, epoch_0001.ckpt": "3a21eb611d1283615ac384c7d66d4e8e6896bdf3b38cd84786a71858174f2ffe",
    # MIXED on groups of 3 to 6 languages with 1 to 3 hard negatives; see _mixed_languages
    "mixed data mixed.jsonl": "7fcc61b5b1f01dc58c1abed1dca6c197fa01ec927ed4984b009b8470796af528",
    "train mixed, final.ckpt": "e23fc25318b849776ce0ba57c14cc57d3213fe6e95394685715cc041cbb044f5",
    # eval reports on the multi run; see _eval_reports
    "eval retrieval --checkpoint-dir --both-directions": "07aeae356257f334e7217bcd50854cbf6279eac5e8f166268e99157ec56fc3ea",
    "eval mine": "982be658207da6e742b31d72c87a69828314d62d3697ea90d5b3acda9dbb5ca4",
    "eval sts": "7feac27a672577f13df4ed0ed7ced3b89f32bf785516d5f6b21f80164f665c83",
    "eval classify": "cd0e30996ede964e3f88c7f20d9a05b2eae227a626c3837d44bd587976418bbb",
}

# SHA-256 of run/final.ckpt and run/epoch_0015.ckpt after README's Quick
# start: 30 epochs of the recipe below. It writes 746 MB of checkpoints,
# so CI's Quick start step checks them rather than a test. Epoch 15 is
# saved mid-run, with every table row touched and a long swap log.
QUICKSTART_FINAL = "a6a4fd3c6ff8f621d2c47f737a1d099920e9d9e502a22c3ce56ba55de6990140"
QUICKSTART_EPOCH_15 = "bea2ec2ab5ad203f387e372205c2f9bb9f4924a9235d875d3b867b173966aebf"

# The configs name every TrainConfig key they rely on, so a change of
# TrainConfig's defaults leaves what the digests cover as it is. The
# recipe's warmup_steps and lr_warmup go unread with warm-up off.

# compare's built-in recipe, as a train config
RECIPE = dict(
    batch_size=32, k_positives=5, tau=1.0, lr_main=6e-3, hash_bits=15, warmup_enabled=False, epochs=2,
    max_len=64, dim=64, seed=0, objective="multi", normalization="min_max", max_grad_norm=None,
    use_hard_negatives=False,
)

# a train config the recipe does not cover: tau != 1 takes the loss's
# min-max path, the tight max_grad_norm clips steps, and warm-up runs
OFF_RECIPE = dict(
    batch_size=32, k_positives=5, lr_main=6e-3, hash_bits=15, epochs=2, tau=0.05, use_hard_negatives=True,
    max_grad_norm=0.05, warmup_steps=5, lr_warmup=1e-3, warmup_enabled=True,
    max_len=64, dim=64, seed=0, objective="multi", normalization="min_max",
)

# a train config for groups that differ in their language and hard-negative
# counts: a batch draws anchors, positives and hard negatives from groups of
# unlike sizes, and K = 2 leaves most groups more languages than it picks
MIXED = dict(RECIPE, k_positives=2, use_hard_negatives=True)


def _this_build() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"numpy {np.__version__}, {blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy before 1.26 has no mode="dicts"
        return f"numpy {np.__version__}, BLAS unknown"


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """Path of each artifact in DIGESTS, built through the CLI."""
    d = tmp_path_factory.mktemp("bytes")
    corpus = d / "corpus"
    assert cli.run(["synth", "--concepts", "500", "--langs", "6", "--heldout", "1", "--seed", "7",
                    "--out", str(corpus)]).exit_code == 0
    data = ["--data", str(corpus / "groups.jsonl")]
    paths = {f"synth {name}": corpus / name for name in ("groups.jsonl", "heldout.jsonl")}
    for i, name in enumerate(n for n in DIGESTS if n.startswith("compare")):
        paths[name] = d / f"report{i}.json"
        argv = [*name.split(), *data, "--heldout", str(corpus / "heldout.jsonl"), "--out", str(paths[name])]
        assert cli.run(argv).exit_code == 0, name
    for objective in ("multi", "single"):
        cfg = d / f"{objective}.json"
        cfg.write_text(json.dumps(dict(RECIPE, objective=objective)), encoding="utf-8")
        argv = ["train", "--config", str(cfg), *data, "--out", str(d / objective)]
        assert cli.run(argv).exit_code == 0, objective
        for ckpt in ("epoch_0001.ckpt", "final.ckpt"):
            paths[f"train {objective}, {ckpt}"] = d / objective / ckpt
    paths["off-recipe data hard.jsonl"] = _with_hard_negatives(corpus / "groups.jsonl", d / "hard.jsonl")
    for normalization in ("min_max", "identity"):
        cfg = d / f"off_{normalization}.json"
        cfg.write_text(json.dumps(dict(OFF_RECIPE, normalization=normalization)), encoding="utf-8")
        argv = ["train", "--config", str(cfg), "--data", str(paths["off-recipe data hard.jsonl"]),
                "--out", str(d / f"off_{normalization}")]
        assert cli.run(argv).exit_code == 0, normalization
        for ckpt in ("epoch_0001.ckpt", "final.ckpt"):
            paths[f"train off-recipe {normalization}, {ckpt}"] = d / f"off_{normalization}" / ckpt
    paths["mixed data mixed.jsonl"] = _mixed_languages(corpus / "groups.jsonl", d / "mixed.jsonl")
    cfg = d / "mixed.json"
    cfg.write_text(json.dumps(MIXED), encoding="utf-8")
    argv = ["train", "--config", str(cfg), "--data", str(paths["mixed data mixed.jsonl"]), "--out", str(d / "mixed")]
    assert cli.run(argv).exit_code == 0, "mixed"
    paths["train mixed, final.ckpt"] = d / "mixed" / "final.ckpt"
    with pytest.MonkeyPatch.context() as mp:
        # relative paths: each report names its checkpoint the same way on every run
        mp.chdir(d)
        reports = _eval_reports(read_groups_jsonl("corpus/heldout.jsonl"), "multi")
    paths.update((name, d / path) for name, path in reports.items())
    return paths


def _with_hard_negatives(src, dst):
    """`src`'s groups with hard negatives, written to `dst`.

    Per language, a group's hard negative is the first 4 words of its
    sentence and the last 4 of the next group's (cyclically).
    """
    groups = read_groups_jsonl(str(src))
    attach_hard_negatives(groups, [
        (lang, g.id, " ".join(g.texts[lang].split()[:4] + nxt.texts[lang].split()[4:]))
        for g, nxt in zip(groups, groups[1:] + groups[:1])
        for lang in sorted(g.texts)
    ])
    write_groups_jsonl(groups, str(dst))
    return dst


def _mixed_languages(src, dst):
    """`src`'s groups cut to 3 to 6 languages, with 1 to 3 hard negatives, written to `dst`.

    Group i keeps 3 + i % 4 of its 6 languages, a window that starts at
    language i % 6 and wraps. Its hard negatives are built as
    _with_hard_negatives builds them, for the first 1 + i % 3 languages
    it keeps.
    """
    groups = read_groups_jsonl(str(src))
    kept = []
    for i, (g, nxt) in enumerate(zip(groups, groups[1:] + groups[:1])):
        langs = sorted(g.texts)
        kept.append([langs[(i + j) % len(langs)] for j in range(3 + i % 4)])
        g.hard_negatives = {
            lang: " ".join(g.texts[lang].split()[:4] + nxt.texts[lang].split()[4:])
            for lang in sorted(kept[i][: 1 + i % 3])
        }
    for g, langs in zip(groups, kept):
        g.texts = {lang: g.texts[lang] for lang in sorted(langs)}
    write_groups_jsonl(groups, str(dst))
    return dst


def _write_lines(path: str, lines) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{line}\n" for line in lines)
    return path


def _eval_reports(heldout, run: str) -> dict:
    """Run each eval task on the 2-epoch run `run`; the report path of each DIGESTS entry.

    Mining scores the 500 h0 lines against all 3,000 seen-language
    lines: 1.5M similarities, more than one block of evaluation._top1.
    """
    h0 = [g.texts["h0"] for g in heldout]
    l0 = [g.texts["l0"] for g in heldout]
    seen = sorted(lang for lang in heldout[0].texts if lang != "h0")
    classes = range(0, len(heldout), 20)
    # STS: a held-out sentence against a pivot sentence whose first m words
    # are its own concept's and the rest the next concept's; gold m / 8
    sts = []
    for i, text in enumerate(h0):
        m = i % 9
        mixed = l0[i].split()[:m] + l0[(i + 1) % len(l0)].split()[m:]
        sts.append(f"{text}\t{' '.join(mixed)}\t{m / 8!r}")
    argvs = {
        "eval retrieval --checkpoint-dir --both-directions": [
            "retrieval", "--checkpoint-dir", run, "--both-directions",
            "--dev-src", _write_lines("dev_src.txt", h0[:100]),
            "--dev-tgt", _write_lines("dev_tgt.txt", l0[:100]),
            "--src", _write_lines("src.txt", h0[100:]),
            "--tgt", _write_lines("tgt.txt", l0[100:]),
        ],
        "eval mine": [
            "mine", "--checkpoint", os.path.join(run, "final.ckpt"),
            "--src", _write_lines("mine_src.txt", h0),
            "--tgt", _write_lines("mine_tgt.txt", (g.texts[lang] for lang in seen for g in heldout)),
            "--gold", _write_lines("mine_gold.tsv", (f"{i}\t{i}" for i in range(len(h0)))),
        ],
        "eval sts": [
            "sts", "--checkpoint", os.path.join(run, "final.ckpt"),
            "--pairs", _write_lines("sts.tsv", sts),
        ],
        "eval classify": [
            "classify", "--checkpoint", os.path.join(run, "final.ckpt"),
            "--train-file", _write_lines(
                "cls_train.tsv", (f"c{c}\t{heldout[c].texts[lang]}" for c in classes for lang in seen)
            ),
            "--test-file", _write_lines("cls_test.tsv", (f"c{c}\t{h0[c]}" for c in classes)),
        ],
    }
    reports = {}
    for name, argv in argvs.items():
        reports[name] = f"eval_{argv[0]}.json"
        assert cli.run(["eval", "--task", *argv, "--out", reports[name]]).exit_code == 0, name
    return reports


@pytest.mark.parametrize("name", list(DIGESTS))
def test_compare_recipe_artifacts_keep_their_bytes(artifacts, name):
    got = hashlib.sha256(artifacts[name].read_bytes()).hexdigest()
    assert got == DIGESTS[name], (
        f"{name}: sha256 {got[:8]}..., recorded {DIGESTS[name][:8]}... under {BUILD}; "
        f"this build is {_this_build()}"
    )


def test_off_recipe_training_warms_up_and_clips(artifacts, monkeypatch):
    """The off-recipe digests gate warm-up and the clip: both run in that training."""
    fired = []
    real = train_module._FirstTouchOrder.clip

    def spy(order, grads, max_norm):
        before = grads.embedding_table.copy()
        real(order, grads, max_norm)
        fired.append(not np.array_equal(grads.embedding_table, before))

    monkeypatch.setattr(train_module._FirstTouchOrder, "clip", spy)
    cfg = train_module.load_config(OFF_RECIPE)
    res = train_module.train(cfg, read_groups_jsonl(str(artifacts["off-recipe data hard.jsonl"])))
    assert [r.phase for r in res.records[:6]] == ["warmup"] * 5 + ["main"]
    assert [r.objective for r in res.records[:6]] == ["single"] * 5 + ["multi"]
    assert len(fired) == len(res.records) and any(fired)
