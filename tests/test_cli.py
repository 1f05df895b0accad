import argparse
import gc
import inspect
import json
import os
import re
import signal
import struct
import subprocess
import sys
import time
import tracemalloc
import weakref
import zlib
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from multipos import cli
from multipos import evaluation as evaluation_mod
from multipos.data import (
    PairRecord,
    SentenceGroup,
    attach_hard_negatives,
    gen_cipher_corpus,
    read_groups_jsonl,
    read_tsv,
    write_groups_jsonl,
)
from multipos.encoder import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    ModelParams,
    OptimizerState,
    load_checkpoint,
    save_checkpoint,
)
from multipos.evaluation import (
    encode_texts,
    linear_probe,
    mine_pairs_f1,
    retrieval_accuracy,
    sts_eval,
)
from multipos.train import TrainConfig, init_params, load_config, train


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def _groups_file(tmp_path, n=8, langs=("a", "b", "c"), name="groups.jsonl"):
    groups = [
        SentenceGroup(id=f"g{i}", texts={l: f"{l} tok{i} fill{i}" for l in langs})
        for i in range(n)
    ]
    path = tmp_path / name
    write_groups_jsonl(groups, str(path))
    return str(path), groups


def _tiny_train_config(tmp_path, **kw):
    cfg = dict(
        batch_size=4,
        k_positives=1,
        epochs=1,
        warmup_enabled=False,
        hash_bits=8,
        dim=8,
        tau=1.0,
        lr_main=1e-2,
    )
    cfg.update(kw)
    return _write(tmp_path / "config.json", json.dumps(cfg))


def test_usage_errors_exit_1(tmp_path, capsys, tokenized):
    assert cli.run(["frobnicate"]).exit_code == 1
    assert cli.run(["train", "--data", "x.jsonl"]).exit_code == 1  # --out missing
    capsys.readouterr()
    # an empty --out is refused before --data is read (a missing file would exit 2)
    assert cli.run(["train", "--data", str(tmp_path / "missing.jsonl"), "--out", ""]).exit_code == 1
    assert "usage error: --out must name a directory" in capsys.readouterr().err
    assert cli.run(["build-data", "--lang", "en=only.txt", "--out", "o"]).exit_code == 1
    assert cli.run(["build-data", "--lang", "noequals", "--out", "o"]).exit_code == 1
    capsys.readouterr()
    assert cli.run(["build-data", "--lang", "l0=a", "--lang", "l0=b", "--out", "o"]).exit_code == 1
    assert "usage error: language 'l0' given twice" in capsys.readouterr().err

    data, _ = _groups_file(tmp_path)
    cfg = _tiny_train_config(tmp_path, batch_size=1)
    out = cli.run(["train", "--config", cfg, "--data", data, "--out", str(tmp_path / "run")])
    assert out.exit_code == 1
    assert "usage error" in capsys.readouterr().err

    cfg = _write(tmp_path / "unknown.json", '{"batch_sizes": 4}')
    assert cli.run(["train", "--config", cfg, "--data", data, "--out", str(tmp_path / "r")]).exit_code == 1

    # 1e999 parses as inf: a non-finite setting is a bad config, not a numeric failure;
    # so is an integer too large for a float
    capsys.readouterr()
    for key in ("tau", "lr_main"):
        for value in ("1e999", "1" + "0" * 400):
            cfg = _write(tmp_path / "inf.json", f'{{"{key}": {value}}}')
            out = cli.run(["train", "--config", cfg, "--data", data, "--out", str(tmp_path / "inf")])
            assert out.exit_code == 1
            assert "usage error: bad config" in capsys.readouterr().err

    # JSON nested past the recursion limit is a bad config, not a crash
    cfg = _write(tmp_path / "deep.json", "[" * 200_000)
    assert cli.run(["train", "--config", cfg, "--data", data, "--out", str(tmp_path / "deep")]).exit_code == 1
    assert "usage error: bad config" in capsys.readouterr().err

    # the dataset-fit check runs before step 0 and before any text is tokenized:
    # 3 languages cannot give an anchor and 3 positives
    cfg = _tiny_train_config(tmp_path, k_positives=3)
    assert cli.run(["train", "--config", cfg, "--data", data, "--out", str(tmp_path / "fit")]).exit_code == 1
    assert "usage error: config does not fit the dataset" in capsys.readouterr().err
    assert tokenized == []

    # a file with no groups fits no config, in train and in compare
    empty = _write(tmp_path / "empty.jsonl", "")
    for argv in (
        ["train", "--data", empty, "--out", str(tmp_path / "empty_run")],
        ["compare", "--data", empty, "--heldout", data],
    ):
        assert cli.run(argv).exit_code == 1
        assert "usage error: config does not fit the dataset: empty dataset" in capsys.readouterr().err

    # a config value of the wrong type, or a negative seed, is a bad config before any step
    for key, value in (("batch_size", 4.5), ("epochs", 1.0), ("hash_bits", 8.0), ("max_len", 2.5),
                       ("seed", 1.5), ("k_positives", True), ("warmup_enabled", "no"), ("seed", -1)):
        cfg = _tiny_train_config(tmp_path, **{key: value})
        out = cli.run(["train", "--config", cfg, "--data", data, "--out", str(tmp_path / "typed")])
        assert out.exit_code == 1, key
        assert "usage error: bad config" in capsys.readouterr().err
    assert not (tmp_path / "typed").exists()

    # every seed flag takes a non-negative integer, checked before any file is read
    missing = str(tmp_path / "missing")
    for argv in (
        ["synth", "--seed", "-1", "--out", missing],
        ["to-pairs", "--data", missing, "--seed", "-1", "--out", missing],
        ["train", "--data", missing, "--seed", "-1", "--out", missing],
        ["compare", "--data", missing, "--heldout", missing, "--seed", "-1"],
        ["eval", "--task", "sts", "--checkpoint", missing, "--pairs", missing, "--probe-seed", "-2"],
    ):
        assert cli.run(argv).exit_code == 1, argv
        assert "expected a non-negative integer, got '-" in capsys.readouterr().err
    assert not os.path.exists(missing)


def test_data_errors_exit_2(tmp_path, capsys):
    missing = str(tmp_path / "nope.jsonl")
    assert cli.run(["to-pairs", "--data", missing, "--out", str(tmp_path / "p.tsv")]).exit_code == 2

    bad = _write(tmp_path / "bad.jsonl", '{"id": "a", "texts": {"x": "1", "y": "2"}}\nnot json\n')
    out = cli.run(["to-pairs", "--data", bad, "--out", str(tmp_path / "p.tsv")])
    assert out.exit_code == 2
    assert ":2:" in capsys.readouterr().err

    # nesting past the recursion limit, and an integer too long to convert, are bad JSON too
    good = '{"id": "a", "texts": {"x": "1", "y": "2"}}\n'
    for line in ("[" * 200_000, '{"id": 1' + "0" * 5000 + ', "texts": {}}'):
        bad = _write(tmp_path / "bad.jsonl", good + line + "\n")
        assert cli.run(["to-pairs", "--data", bad, "--out", str(tmp_path / "p.tsv")]).exit_code == 2
        assert f"data error: {bad}:2: invalid JSON" in capsys.readouterr().err

    # a lone surrogate escape: no command reads the file, so to-pairs writes no
    # output it cannot encode, and train does not train on it
    bad = _write(tmp_path / "bad.jsonl", good + '{"id": "b", "texts": {"x": "1\\ud800", "y": "2"}}\n')
    out_path = tmp_path / "surrogate.tsv"
    assert cli.run(["to-pairs", "--data", bad, "--out", str(out_path)]).exit_code == 2
    assert f"data error: {bad}:2: bad group record (lone surrogate" in capsys.readouterr().err
    assert not out_path.exists()
    cfg = _tiny_train_config(tmp_path)
    assert cli.run(["train", "--config", cfg, "--data", bad, "--out", str(tmp_path / "run")]).exit_code == 2
    assert f"data error: {bad}:2: bad group record (lone surrogate" in capsys.readouterr().err

    # a tab, or a carriage return that read_tsv would take for a line end, in the
    # second group's pair: no pair reaches --out, and an older file keeps its bytes
    older = "en\tde\tan older\tfile\n"
    for bad in ("\t", "\r"):
        groups = [SentenceGroup(id="g0", texts={"a": "p", "b": "q"}),
                  SentenceGroup(id="g1", texts={"a": f"x{bad}y", "b": "z"})]
        refused = str(tmp_path / "refused.jsonl")
        write_groups_jsonl(groups, refused)
        for out_path, before in ((tmp_path / "fresh.tsv", None), (tmp_path / "older.tsv", older)):
            if before is not None:
                out_path.write_text(before, encoding="utf-8")
            assert cli.run(["to-pairs", "--data", refused, "--out", str(out_path)]).exit_code == 2
            assert "tabs or newlines" in capsys.readouterr().err
            assert (out_path.read_text(encoding="utf-8") if out_path.exists() else None) == before


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_numeric_errors_exit_3(tmp_path, capsys):
    # a huge learning rate fits the dataset but blows the model up within the first steps
    corpus = tmp_path / "corpus"
    assert cli.run(["synth", "--concepts", "64", "--langs", "6", "--seed", "7",
                    "--out", str(corpus)]).exit_code == 0
    cfg = _tiny_train_config(tmp_path, batch_size=32, k_positives=5, lr_main=1e38, hash_bits=12, dim=16)
    out = cli.run(["train", "--config", cfg, "--data", str(corpus / "groups.jsonl"),
                   "--out", str(tmp_path / "diverged")])
    assert out.exit_code == 3
    err = capsys.readouterr().err
    assert "numeric failure" in err and "usage error" not in err
    assert "Adam step 1 with lr 1e+38" in err  # the optimizer, not the loss a step later


def test_synth_artifacts_and_determinism(tmp_path, capsys):
    out1 = cli.run(["synth", "--concepts", "30", "--langs", "4", "--seed", "3",
                    "--out", str(tmp_path / "d1")])
    assert out1.exit_code == 0
    assert sorted(p.name for p in (tmp_path / "d1").iterdir()) == ["groups.jsonl", "heldout.jsonl"]
    assert "wrote 30 groups" in capsys.readouterr().err

    groups = read_groups_jsonl(str(tmp_path / "d1" / "groups.jsonl"))
    assert len(groups) == 30
    assert sorted(groups[0].texts) == ["l0", "l1", "l2", "l3"]
    heldout = read_groups_jsonl(str(tmp_path / "d1" / "heldout.jsonl"))
    assert sorted(heldout[0].texts) == ["h0", "l0", "l1", "l2", "l3"]
    # default sentence length is 8 tokens
    assert len(groups[0].texts["l0"].split()) == 8

    cli.run(["synth", "--concepts", "30", "--langs", "4", "--seed", "3", "--out", str(tmp_path / "d2")])
    for name in ("groups.jsonl", "heldout.jsonl"):
        assert (tmp_path / "d1" / name).read_bytes() == (tmp_path / "d2" / name).read_bytes()

    assert cli.run(["synth", "--concepts", "5", "--heldout", "0", "--out", str(tmp_path / "d3")]).exit_code == 0
    assert [p.name for p in (tmp_path / "d3").iterdir()] == ["groups.jsonl"]

    capsys.readouterr()
    for flags in (["--fresh-rate", "2.0"], ["--concepts", "0"], ["--langs", "0"], ["--heldout", "-1"],
                  ["--vocab", "5"]):
        assert cli.run(["synth", *flags, "--out", str(tmp_path / "d4")]).exit_code == 1, flags
        err = capsys.readouterr().err
        assert "usage error" in err and "numeric failure" not in err, flags
    assert not (tmp_path / "d4").exists()


def test_synth_without_heldout_languages_removes_a_stale_heldout_file(tmp_path, capsys):
    out = tmp_path / "d"
    assert cli.run(["synth", "--concepts", "20", "--heldout", "1", "--seed", "1", "--out", str(out)]).exit_code == 0
    assert (out / "heldout.jsonl").exists()
    capsys.readouterr()
    assert cli.run(["synth", "--concepts", "30", "--heldout", "0", "--seed", "2", "--out", str(out)]).exit_code == 0
    assert [p.name for p in out.iterdir()] == ["groups.jsonl"]
    assert f"removed {out / 'heldout.jsonl'}: this corpus has no held-out languages" in capsys.readouterr().err
    # compare finds no held-out file rather than the seed-1 corpus's
    argv = ["compare", "--data", str(out / "groups.jsonl"), "--heldout", str(out / "heldout.jsonl"),
            "--seeds", "1", "--epochs", "1"]
    assert cli.run(argv).exit_code == 2
    assert "data error" in capsys.readouterr().err


def test_synth_needs_two_languages(tmp_path, capsys):
    out = tmp_path / "d"
    assert cli.run(["synth", "--concepts", "20", "--langs", "1", "--out", str(out)]).exit_code == 1
    assert "usage error: n_langs must be at least 2" in capsys.readouterr().err
    assert not out.exists()


def test_build_data_and_hard_negatives(tmp_path, capsys):
    en = _write(tmp_path / "en.txt", "one\ntwo\n\nfour\n")
    de = _write(tmp_path / "de.txt", "eins\nzwei\ndrei\nvier\n")
    hn = _write(tmp_path / "hn_en.txt", "not one\nnot two\n\nnot four\n")
    out_path = str(tmp_path / "groups.jsonl")
    out = cli.run(["build-data", "--lang", f"en={en}", "--lang", f"de={de}",
                   "--hard-neg", f"en={hn}", "--out", out_path])
    assert out.exit_code == 0
    err = capsys.readouterr().err
    assert "wrote 3 groups" in err and "dropped 1 incomplete" in err
    groups = read_groups_jsonl(out_path)
    assert [g.id for g in groups] == ["0", "1", "3"]
    assert groups[0].texts == {"de": "eins", "en": "one"}
    assert groups[0].hard_negatives == {"en": "not one"}


def test_to_pairs_conserves_sentences(tmp_path):
    data, groups = _groups_file(tmp_path, n=10, langs=("a", "b", "c"))
    out_path = str(tmp_path / "pairs.tsv")
    assert cli.run(["to-pairs", "--data", data, "--seed", "4", "--out", out_path]).exit_code == 0
    pairs = read_tsv(out_path, "src_lang<TAB>tgt_lang<TAB>src_text<TAB>tgt_text", PairRecord)
    assert len(pairs) == 10  # one pair per group, one sentence dropped each
    used = {(p.src_lang, p.src_text) for p in pairs} | {(p.tgt_lang, p.tgt_text) for p in pairs}
    allowed = {(l, g.texts[l]) for g in groups for l in g.texts}
    assert used <= allowed
    assert len(used) == 20


def test_train_artifacts(tmp_path, capsys):
    data, _ = _groups_file(tmp_path)
    cfg = _tiny_train_config(tmp_path, epochs=2)
    run_dir = tmp_path / "run"
    out = cli.run(["train", "--config", cfg, "--data", data, "--out", str(run_dir)])
    assert out.exit_code == 0
    assert "dropped" not in capsys.readouterr().err
    names = sorted(p.name for p in run_dir.iterdir())
    assert names == ["epoch_0001.ckpt", "epoch_0002.ckpt", "final.ckpt", "log.jsonl"]
    log = [json.loads(l) for l in (run_dir / "log.jsonl").read_text().splitlines()]
    assert len(log) == 4  # 8 groups, batch 4, 2 epochs
    assert [r["step"] for r in log] == [0, 1, 2, 3]

    other = tmp_path / "run_seeded"
    cli.run(["train", "--config", cfg, "--data", data, "--seed", "7", "--out", str(other)])
    assert (other / "final.ckpt").read_bytes() != (run_dir / "final.ckpt").read_bytes()

    # 9 groups in batches of 4: the last batch would hold one group, no in-batch negative
    nine, _ = _groups_file(tmp_path, n=9, name="nine.jsonl")
    capsys.readouterr()
    out = cli.run(["train", "--config", _tiny_train_config(tmp_path), "--data", nine, "--out", str(tmp_path / "nine")])
    assert out.exit_code == 0
    assert "dropped 1 tail groups (batch below 2)" in capsys.readouterr().err


def test_train_refuses_an_out_that_holds_checkpoints(tmp_path, capsys):
    data, _ = _groups_file(tmp_path)
    run_dir = tmp_path / "run"
    cfg = _tiny_train_config(tmp_path, epochs=4)
    assert cli.run(["train", "--config", cfg, "--data", data, "--out", str(run_dir)]).exit_code == 0
    before = {p.name: p.read_bytes() for p in run_dir.iterdir()}
    cfg = _tiny_train_config(tmp_path, epochs=1)
    capsys.readouterr()

    def retrain(data_path):
        argv = ["train", "--config", cfg, "--data", data_path, "--seed", "5", "--out", str(run_dir)]
        return cli.run(argv).exit_code, capsys.readouterr().err

    # a shorter run would leave epochs 2-4 of this one beside its own files;
    # the check runs before --data is read, so a missing file still exits 1
    for data_path in (data, str(tmp_path / "missing.jsonl")):
        code, err = retrain(data_path)
        assert code == 1
        assert f"already holds checkpoints ({run_dir / 'epoch_0001.ckpt'})" in err
    assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before
    for name in ("epoch_0001.ckpt", "epoch_0002.ckpt", "epoch_0003.ckpt", "epoch_0004.ckpt"):
        (run_dir / name).unlink()
    code, err = retrain(data)
    assert code == 1
    assert f"already holds checkpoints ({run_dir / 'final.ckpt'})" in err
    # a directory without checkpoints is fine
    (run_dir / "final.ckpt").unlink()
    assert retrain(data)[0] == 0
    assert sorted(p.name for p in run_dir.iterdir()) == ["epoch_0001.ckpt", "final.ckpt", "log.jsonl"]


def test_eval_checkpoint_dir_whose_name_holds_glob_characters(tmp_path):
    data, groups = _groups_file(tmp_path)
    cfg = _tiny_train_config(tmp_path, epochs=2)
    run_dir = tmp_path / "run[1]"
    assert cli.run(["train", "--config", cfg, "--data", data, "--out", str(run_dir)]).exit_code == 0
    src = _write(tmp_path / "src.txt", "\n".join(g.texts["a"] for g in groups) + "\n")
    tgt = _write(tmp_path / "tgt.txt", "\n".join(g.texts["b"] for g in groups) + "\n")
    report = tmp_path / "report.json"
    out = cli.run(["eval", "--task", "retrieval", "--checkpoint-dir", str(run_dir), "--src", src, "--tgt", tgt,
                   "--dev-src", src, "--dev-tgt", tgt, "--out", str(report)])
    assert out.exit_code == 0
    meta = json.loads(report.read_text())["metadata"]
    assert sorted(meta["dev_scores"]) == ["epoch_0001.ckpt", "epoch_0002.ckpt"]
    assert os.path.dirname(meta["checkpoint"]) == str(run_dir)


@pytest.fixture()
def trained(tmp_path):
    data, groups = _groups_file(tmp_path, n=8, langs=("a", "b", "c"))
    cfg = _tiny_train_config(tmp_path, epochs=2)
    run_dir = tmp_path / "run"
    assert cli.run(["train", "--config", cfg, "--data", data, "--out", str(run_dir)]).exit_code == 0
    src = _write(tmp_path / "src.txt", "\n".join(g.texts["a"] for g in groups) + "\n")
    tgt = _write(tmp_path / "tgt.txt", "\n".join(g.texts["b"] for g in groups) + "\n")
    return tmp_path, run_dir, src, tgt


def test_eval_retrieval_report(trained):
    tmp_path, run_dir, src, tgt = trained
    report_path = tmp_path / "report.json"
    out = cli.run(["eval", "--task", "retrieval", "--checkpoint", str(run_dir / "final.ckpt"),
                   "--src", src, "--tgt", tgt, "--both-directions", "--out", str(report_path)])
    assert out.exit_code == 0
    assert report_path.is_file()
    report = json.loads(report_path.read_text())
    assert report["task"] == "retrieval"
    assert 0.0 <= report["overall"] <= 1.0
    assert report["metadata"]["items"] == 8
    assert 0.0 <= report["metadata"]["backward"] <= 1.0

    assert cli.run(["eval", "--task", "retrieval",
                    "--checkpoint", str(run_dir / "final.ckpt")]).exit_code == 1
    assert cli.run(["eval", "--task", "retrieval", "--src", src, "--tgt", tgt]).exit_code == 1
    assert cli.run(["eval", "--task", "retrieval", "--checkpoint", str(run_dir / "final.ckpt"),
                    "--checkpoint-dir", str(run_dir), "--src", src, "--tgt", tgt]).exit_code == 1


def test_eval_mine_and_classify_and_sts(trained):
    tmp_path, run_dir, src, tgt = trained
    ckpt = str(run_dir / "final.ckpt")

    gold = _write(tmp_path / "gold.tsv", "\n".join(f"{i}\t{i}" for i in range(8)) + "\n")
    out_path = tmp_path / "mine.json"
    out = cli.run(["eval", "--task", "mine", "--checkpoint", ckpt,
                   "--src", src, "--tgt", tgt, "--gold", gold, "--out", str(out_path)])
    assert out.exit_code == 0
    report = json.loads(out_path.read_text())
    md = report["metadata"]
    assert {"precision", "recall", "threshold"} <= set(md)
    assert 0.0 <= report["overall"] <= 1.0

    fixed = cli.run(["eval", "--task", "mine", "--checkpoint", ckpt, "--src", src,
                     "--tgt", tgt, "--gold", gold, "--threshold", "2.0", "--out", str(out_path)])
    assert fixed.exit_code == 0
    assert json.loads(out_path.read_text())["overall"] == 0.0

    bad_gold = _write(tmp_path / "bad_gold.tsv", "1\t2\t3\n")
    assert cli.run(["eval", "--task", "mine", "--checkpoint", ckpt, "--src", src,
                    "--tgt", tgt, "--gold", bad_gold]).exit_code == 2

    sts = _write(tmp_path / "sts.tsv", "aa bb\tcc dd\t1.0\nee ff\tgg hh\t2.0\nii jj\tkk ll\t3.0\n")
    out = cli.run(["eval", "--task", "sts", "--checkpoint", ckpt, "--pairs", sts,
                   "--out", str(out_path)])
    assert out.exit_code == 0
    report = json.loads(out_path.read_text())
    assert report["task"] == "sts"
    assert report["metadata"]["pairs"] == 3
    assert -1.0 <= report["overall"] <= 1.0

    train_file = _write(tmp_path / "probe_train.tsv",
                        "\n".join(f"c{i % 2}\tword{i} tok{i % 2}" for i in range(12)) + "\n")
    test_file = _write(tmp_path / "probe_test.tsv",
                       "\n".join(f"c{i % 2}\tword{i} tok{i % 2}" for i in range(6)) + "\n")
    out = cli.run(["eval", "--task", "classify", "--checkpoint", ckpt,
                   "--train-file", train_file, "--test-file", test_file, "--out", str(out_path)])
    assert out.exit_code == 0
    assert 0.0 <= json.loads(out_path.read_text())["overall"] <= 1.0


# Per eval task: the file flags its report needs, then the dev flags that
# --checkpoint-dir needs on top of them.
_TASK_FLAGS = {
    "retrieval": (["src", "tgt"], ["dev_src", "dev_tgt"]),
    "mine": (["src", "tgt", "gold"], ["dev_src", "dev_tgt", "dev_gold"]),
    "sts": (["pairs"], ["dev_pairs"]),
    "classify": (["train_file", "test_file"], ["train_file", "dev_test"]),
}


def _flag_args(files, flags):
    return [arg for f in dict.fromkeys(flags) for arg in ("--" + f.replace("_", "-"), files[f])]


def _lines(path):
    return Path(path).read_text(encoding="utf-8").splitlines()


@pytest.fixture(scope="module")
def epochs_run(tmp_path_factory):
    """Epoch checkpoints of a small model, and a valid file for every eval file flag."""
    d = tmp_path_factory.mktemp("epochs")
    groups, heldout = gen_cipher_corpus(40, 5, 4, 1, 200, 2)
    write_groups_jsonl(groups, str(d / "groups.jsonl"))
    cfg = _tiny_train_config(d, epochs=3, batch_size=8, k_positives=3, hash_bits=10, dim=16)
    assert cli.run(["train", "--config", cfg, "--data", str(d / "groups.jsonl"),
                    "--out", str(d / "run")]).exit_code == 0
    # a copy of the last epoch ties it on every score, so selection must keep the first maximum
    (d / "run" / "epoch_0004.ckpt").write_bytes((d / "run" / "epoch_0003.ckpt").read_bytes())
    text = {lang: [g.texts[lang] for g in heldout] for lang in ("h0", "l0", "l1", "l2")}

    def write(name, rows):
        return _write(d / name, "\n".join(rows) + "\n")

    def sts_rows(concepts):
        # gold is the share of the second sentence's words taken from the first's concept
        rows = []
        for c in concepts:
            m = c % 6
            mixed = text["l0"][c].split()[:m] + text["l0"][(c + 7) % 40].split()[m:]
            rows.append(f"{text['h0'][c]}\t{' '.join(mixed)}\t{m / 5!r}")
        return rows

    files = {
        "src": write("src.txt", text["h0"][20:]),
        "tgt": write("tgt.txt", text["l0"][20:]),
        "dev_src": write("dev_src.txt", text["h0"][:20]),
        "dev_tgt": write("dev_tgt.txt", text["l0"][:20]),
        "gold": write("gold.tsv", [f"{i}\t{i}" for i in range(0, 20, 2)]),
        "dev_gold": write("dev_gold.tsv", [f"{i}\t{i}" for i in range(0, 20, 3)]),
        "pairs": write("sts.tsv", sts_rows(range(20, 40))),
        "dev_pairs": write("dev_sts.tsv", sts_rows(range(20))),
        "train_file": write("cls_train.tsv",
                            [f"c{c}\t{text[lang][c]}" for c in range(6) for lang in ("l1", "l2")]),
        "test_file": write("cls_test.tsv", [f"c{c}\t{text['h0'][c]}" for c in range(6)]),
        "dev_test": write("cls_dev.tsv", [f"c{c}\t{text['l0'][c]}" for c in range(6)]),
    }
    return d / "run", files


def _dev_score(task, params, files):
    """What --checkpoint-dir should score one checkpoint, computed through the library."""
    def enc(flag):
        return encode_texts(params, _lines(files[flag]))

    if task == "retrieval":
        return retrieval_accuracy(enc("dev_src"), enc("dev_tgt"))
    if task == "mine":
        gold = [tuple(int(x) for x in line.split("\t")) for line in _lines(files["dev_gold"])]
        return mine_pairs_f1(enc("dev_src"), enc("dev_tgt"), gold).f1
    if task == "sts":
        a, b, gold = zip(*(line.split("\t") for line in _lines(files["dev_pairs"])))
        return sts_eval(encode_texts(params, a), encode_texts(params, b), [float(s) for s in gold])
    train = [line.split("\t") for line in _lines(files["train_file"])]
    dev = [line.split("\t") for line in _lines(files["dev_test"])]
    return linear_probe(
        encode_texts(params, [t for _, t in train]), [l for l, _ in train],
        encode_texts(params, [t for _, t in dev]), [l for l, _ in dev],
    )


@pytest.fixture()
def load_calls(monkeypatch):
    """Paths passed to the CLI's load_checkpoint, in call order."""
    calls = []

    def counted(path):
        calls.append(path)
        return load_checkpoint(path)

    monkeypatch.setattr(cli, "load_checkpoint", counted)
    return calls


@pytest.mark.parametrize("task", sorted(_TASK_FLAGS))
def test_eval_checkpoint_dir_scores_each_epoch_once(epochs_run, load_calls, tmp_path, task):
    run_dir, files = epochs_run
    report_flags, dev_flags = _TASK_FLAGS[task]
    # report-only options, which selection must not apply
    extra = {"retrieval": ["--both-directions"], "mine": ["--threshold", "0.5"]}.get(task, [])
    selected = tmp_path / "selected.json"
    argv = ["eval", "--task", task, "--checkpoint-dir", str(run_dir), "--out", str(selected),
            *extra, *_flag_args(files, report_flags + dev_flags)]
    assert cli.run(argv).exit_code == 0
    epochs = sorted(str(p) for p in run_dir.glob("epoch_*.ckpt"))
    assert len(epochs) == 4
    assert load_calls == epochs  # each candidate once; the winner is not read again

    report = json.loads(selected.read_text())
    scores = report["metadata"].pop("dev_scores")
    assert scores == {Path(p).name: _dev_score(task, load_checkpoint(p)[0], files) for p in epochs}
    first_best = max(sorted(scores), key=lambda name: scores[name])
    assert report["metadata"]["checkpoint"] == str(run_dir / first_best)

    direct = tmp_path / "direct.json"
    argv = ["eval", "--task", task, "--checkpoint", report["metadata"]["checkpoint"],
            "--out", str(direct), *extra, *_flag_args(files, report_flags)]
    assert cli.run(argv).exit_code == 0
    assert report == json.loads(direct.read_text())


_MISSING_FLAG_CASES = [
    (task, mode, flag)
    for task, (report_flags, dev_flags) in sorted(_TASK_FLAGS.items())
    for mode in ("--checkpoint", "--checkpoint-dir")
    for flag in dict.fromkeys(report_flags + (dev_flags if mode == "--checkpoint-dir" else []))
]


@pytest.mark.parametrize("task,mode,flag", _MISSING_FLAG_CASES)
def test_eval_missing_flag_reads_no_checkpoint(epochs_run, load_calls, capsys, task, mode, flag):
    run_dir, files = epochs_run
    report_flags, dev_flags = _TASK_FLAGS[task]
    needed = report_flags + (dev_flags if mode == "--checkpoint-dir" else [])
    target = str(run_dir / "final.ckpt") if mode == "--checkpoint" else str(run_dir)
    argv = ["eval", "--task", task, mode, target, *_flag_args(files, [f for f in needed if f != flag])]
    assert cli.run(argv).exit_code == 1
    err = capsys.readouterr().err
    assert "usage error" in err and "--" + flag.replace("_", "-") in err
    assert "Traceback" not in err
    assert load_calls == []


@pytest.mark.parametrize("damage", ["truncated", "bad_magic", "flipped_crc", "nan", "inf"])
@pytest.mark.parametrize("mode", ["--checkpoint", "--checkpoint-dir"])
def test_eval_corrupt_checkpoint_is_data_error(epochs_run, tmp_path, capsys, mode, damage):
    run_dir, files = epochs_run
    data = bytearray((run_dir / "epoch_0002.ckpt").read_bytes())
    if damage == "truncated":
        data = data[: len(data) // 2]
    elif damage == "bad_magic":
        data[:4] = b"XXXX"
    elif damage == "flipped_crc":
        data[-1] ^= 0x01  # the last byte belongs to the stored CRC32
    ckpt_dir = tmp_path / "ckpts"
    ckpt_dir.mkdir()
    (ckpt_dir / "epoch_0001.ckpt").write_bytes((run_dir / "epoch_0001.ckpt").read_bytes())
    (ckpt_dir / "epoch_0002.ckpt").write_bytes(bytes(data))
    if damage in ("nan", "inf"):  # a valid CRC over a table of NaN or inf
        params, state = load_checkpoint(str(ckpt_dir / "epoch_0002.ckpt"), moments=True)
        params.embedding_table[:] = float(damage)
        save_checkpoint(params, state, str(ckpt_dir / "epoch_0002.ckpt"))
    if mode == "--checkpoint":
        argv = ["--checkpoint", str(ckpt_dir / "epoch_0002.ckpt"), "--pairs", files["pairs"]]
    else:
        argv = ["--checkpoint-dir", str(ckpt_dir), "--pairs", files["pairs"],
                "--dev-pairs", files["dev_pairs"]]
    assert cli.run(["eval", "--task", "sts", *argv]).exit_code == 2
    err = capsys.readouterr().err
    assert "data error" in err and "epoch_0002.ckpt" in err


def test_eval_input_errors_exit_codes(epochs_run, tmp_path, capsys):
    run_dir, files = epochs_run
    ckpt = ["eval", "--checkpoint", str(run_dir / "final.ckpt")]
    n_src = len(_lines(files["src"]))
    mine = ["--task", "mine", "--src", files["src"], "--tgt", files["tgt"], "--gold"]
    for gold in (f"{n_src}\t1\n", "0\t-1\n"):
        path = _write(tmp_path / "gold.tsv", gold)
        assert cli.run([*ckpt, *mine, path]).exit_code == 2
        assert f"data error: {path}:1:" in capsys.readouterr().err

    unseen = _write(tmp_path / "unseen.tsv", "c0\tx y\nnew\tz w\n")
    one_label = _write(tmp_path / "one_label.tsv", "c0\tx y\nc0\tz w\n")
    one_pair = _write(tmp_path / "one_pair.tsv", "a b\tc d\t1.0\n")
    for argv in (
        ["--task", "classify", "--train-file", files["train_file"], "--test-file", unseen],
        ["--task", "classify", "--train-file", one_label, "--test-file", one_label],
        ["--task", "sts", "--pairs", one_pair],
    ):
        assert cli.run([*ckpt, *argv]).exit_code == 2
        assert "data error" in capsys.readouterr().err

    # one distinct gold score leaves the rank correlation undefined: the file
    # cannot be scored, in the report and in dev selection
    constant = _write(tmp_path / "constant.tsv", "a b\tc d\t3.0\ne f\tg h\t3.0\nx y\tz w\t3.0\n")
    for argv in (
        [*ckpt, "--task", "sts", "--pairs", constant],
        ["eval", "--checkpoint-dir", str(run_dir), "--task", "sts", "--pairs", files["pairs"],
         "--dev-pairs", constant],
    ):
        assert cli.run(argv).exit_code == 2
        assert f"data error: {constant}: need at least 2 distinct gold scores" in capsys.readouterr().err

    # a directory with no epoch checkpoint, final.ckpt aside, has nothing to select from
    no_epochs, report = tmp_path / "no_epochs", tmp_path / "report.json"
    no_epochs.mkdir()
    (no_epochs / "final.ckpt").write_bytes((run_dir / "final.ckpt").read_bytes())
    argv = ["eval", "--checkpoint-dir", str(no_epochs), "--task", "sts", "--pairs", files["pairs"],
            "--dev-pairs", files["dev_pairs"], "--out", str(report)]
    assert cli.run(argv).exit_code == 2
    assert f"data error: no epoch_*.ckpt files under {no_epochs}" in capsys.readouterr().err
    assert not report.exists()

    assert cli.run([*ckpt, "--task", "sts", "--pairs", files["pairs"], "--max-len", "0"]).exit_code == 1
    assert "usage error" in capsys.readouterr().err

    # a non-finite threshold would write a report that is not JSON
    for threshold in ("nan", "inf", "-inf"):
        out = cli.run([*ckpt, *mine, files["gold"], f"--threshold={threshold}"])
        assert out.exit_code == 1
        assert "usage error: --threshold must be finite" in capsys.readouterr().err


def test_eval_max_len_defaults_to_the_training_default():
    # a checkpoint does not record max_len, so eval must tokenize as training did
    args = cli.build_parser().parse_args(["eval", "--task", "sts"])
    assert args.max_len == TrainConfig().max_len
    assert inspect.signature(encode_texts).parameters["max_len"].default == TrainConfig().max_len


def _crafted_checkpoint(hash_bits: int, dim: int, step: int, fill: float = 0.0) -> bytes:
    """A header declaring any shape, with a valid CRC; the declared body, every
    value `fill`, comes along only when it is small."""
    header = CHECKPOINT_MAGIC + struct.pack("<IIII", CHECKPOINT_VERSION, hash_bits, dim, step)
    body = b""
    if hash_bits < 32 and 12 * ((1 << hash_bits) * dim + dim * dim) <= 1 << 16:
        body = np.full(3 * ((1 << hash_bits) * dim + dim * dim), fill, dtype="<f4").tobytes()
    return header + body + struct.pack("<I", zlib.crc32(header + body))


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """A small valid checkpoint's bytes and a retrieval file to score with it."""
    d = tmp_path_factory.mktemp("fuzz")
    params = ModelParams(np.full((4, 2), 0.5, dtype=np.float32), np.eye(2, dtype=np.float32), 2, 2)
    save_checkpoint(params, OptimizerState.fresh(params), str(d / "valid.ckpt"))
    return d, (d / "valid.ckpt").read_bytes(), _write(d / "text.txt", "a b\nc d\ne\n")


_U32 = st.one_of(st.integers(0, 40), st.integers(0, 2**32 - 1))


@given(
    case=st.one_of(
        st.tuples(st.just("truncated"), st.integers(0, 1 << 20)),
        st.tuples(st.just("flipped"), st.integers(0, 1 << 20)),
        st.tuples(st.just("crafted"), _U32, _U32, _U32, st.floats(width=32)),
    )
)
@example(case=("crafted", 4, 0, 0))
@example(case=("crafted", 0, 4, 0))
@example(case=("crafted", 2, 2, 0, float("nan")))
@example(case=("crafted", 2, 2, 0, float("inf")))
@example(case=("crafted", 2, 2, 0, float("-inf")))
@example(case=("crafted", 2, 2, 0, 3.4e38))
def test_eval_survives_damaged_checkpoints(fuzz_inputs, case):
    # any file is scored (exit 0) or refused as a data error (exit 2): never
    # a numeric failure, a usage error or an exception out of cli.run
    d, valid, text = fuzz_inputs
    kind, *values = case
    if kind == "truncated":
        blob = valid[: values[0] % len(valid)]
    elif kind == "flipped":
        bit = values[0] % (8 * len(valid))
        blob = bytearray(valid)
        blob[bit // 8] ^= 1 << (bit % 8)
    else:
        blob = _crafted_checkpoint(*values)
    path = d / "damaged.ckpt"
    path.write_bytes(bytes(blob))
    argv = ["eval", "--task", "retrieval", "--checkpoint", str(path), "--src", text, "--tgt", text,
            "--out", str(d / "report.json")]
    assert cli.run(argv).exit_code in (0, 2)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
_GROUP_LINE = st.one_of(
    st.text(),
    _JSON.map(json.dumps),
    st.fixed_dictionaries({"id": _JSON, "texts": _JSON}, optional={"hard_negatives": _JSON}).map(json.dumps),
    st.fixed_dictionaries(
        {"id": st.text(max_size=4), "texts": st.dictionaries(st.text(max_size=4), st.text(max_size=8), max_size=4)}
    ).map(json.dumps),
)


@given(lines=st.lists(_GROUP_LINE, max_size=4))
@example(lines=["[" * 200_000])
@example(lines=['{"id": "g", "texts": {"a": ' + "[" * 5_000 + "]" * 5_000 + "}}"])
@example(lines=['{"id": "g", "texts": {"a": 1' + "0" * 5_000 + "}}"])
def test_to_pairs_survives_any_groups_file(fuzz_inputs, lines):
    # any groups file is converted (exit 0) or refused as a data error (exit 2):
    # never a usage error, a numeric failure or an exception out of cli.run
    d = fuzz_inputs[0]
    path = _write(d / "groups.jsonl", "\n".join(lines) + "\n")
    assert cli.run(["to-pairs", "--data", path, "--out", str(d / "pairs.tsv")]).exit_code in (0, 2)


def _text_file(row):
    """Arbitrary text, or lines some of which are laid out as `row` draws them."""
    return st.one_of(st.text(), st.lists(st.one_of(st.text(max_size=12), row), max_size=5).map("\n".join))


_EVAL_TEXTS = st.fixed_dictionaries({
    "src": _text_file(st.text(max_size=12)),
    "tgt": _text_file(st.text(max_size=12)),
    "gold": _text_file(st.tuples(st.integers(-1, 5), st.integers(-1, 5)).map(lambda r: f"{r[0]}\t{r[1]}")),
    "pairs": _text_file(
        st.tuples(st.text(max_size=8), st.text(max_size=8), st.floats()).map(lambda r: f"{r[0]}\t{r[1]}\t{r[2]!r}")
    ),
    "train_file": _text_file(st.tuples(st.sampled_from("xyz"), st.text(max_size=8)).map("\t".join)),
    "test_file": _text_file(st.tuples(st.sampled_from("xyz"), st.text(max_size=8)).map("\t".join)),
})


@given(texts=_EVAL_TEXTS)
@example(texts={"src": "a b\nc d\n", "tgt": "c d\na b\n", "gold": "0\t1\n", "pairs": "a\tb\t1.0\nc\td\t2.0\n",
                "train_file": "x\ta\ny\tb\n", "test_file": "y\tc\n"})
@example(texts={"src": "a\n\n", "tgt": "\r\n", "gold": "1" + "0" * 5_000 + "\t0", "pairs": "a\tb\t1e999\nc\td\tnan",
                "train_file": "x\t\ny\t", "test_file": "z\ta"})
def test_eval_survives_any_text_inputs(fuzz_inputs, texts):
    # every eval task scores its text files (exit 0) or refuses them as a data
    # error (exit 2): never a usage error, a numeric failure or an exception
    d = fuzz_inputs[0]
    files = {flag: _write(d / f"{flag}.txt", text) for flag, text in texts.items()}
    for task, (flags, _) in _TASK_FLAGS.items():
        argv = ["eval", "--task", task, "--checkpoint", str(d / "valid.ckpt"), *_flag_args(files, flags),
                "--out", str(d / "report.json")]
        assert cli.run(argv).exit_code in (0, 2), task


def test_a_value_error_is_not_a_numeric_failure(fuzz_inputs, monkeypatch):
    # exit 3 means a FloatingPointError; a program bug that raises ValueError escapes cli.run
    d, _, text = fuzz_inputs

    def broken(src_embs, tgt_embs):
        raise ValueError("shapes (3,2) and (2,3) not aligned")

    monkeypatch.setattr(cli, "retrieval_accuracy", broken)
    with pytest.raises(ValueError, match="not aligned"):
        cli.run(["eval", "--task", "retrieval", "--checkpoint", str(d / "valid.ckpt"), "--src", text, "--tgt", text])


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_eval_sts_non_finite_gold_is_data_error(epochs_run, tmp_path, capsys, bad):
    run_dir, _ = epochs_run
    pairs = _write(tmp_path / "sts.tsv", f"a b\tc d\t1.0\ne f\tg h\t{bad}\nx y\tz w\t0.5\n")
    out = cli.run(["eval", "--task", "sts", "--checkpoint", str(run_dir / "final.ckpt"), "--pairs", pairs])
    assert out.exit_code == 2
    assert f"data error: {pairs}:2: gold score '{bad}' is not finite" in capsys.readouterr().err


def test_eval_tokenizes_each_input_line_once(epochs_run, tokenized, tmp_path):
    # four epoch checkpoints, both directions and the report share one cache
    run_dir, files = epochs_run
    flags = ("src", "tgt", "dev_src", "dev_tgt")
    out = cli.run(["eval", "--task", "retrieval", "--checkpoint-dir", str(run_dir), "--both-directions",
                   *_flag_args(files, flags), "--out", str(tmp_path / "report.json")])
    assert out.exit_code == 0
    lines = [line for flag in flags for line in _lines(files[flag])]
    assert len(set(lines)) == len(lines)
    assert sorted(tokenized) == sorted(lines)


def test_train_with_hard_negatives_tokenizes_each_text_once(tmp_path, tokenized):
    # every group text and hard negative once, drawn by a batch or not, and
    # the checkpoints of train() with no filled cache
    groups = [SentenceGroup(id=f"g{i}", texts={l: f"{l} tok{i} fill{i}" for l in "abc"},
                            hard_negatives={l: f"{l} neg{i}" for l in "ab"}) for i in range(10)]
    data = str(tmp_path / "groups.jsonl")
    write_groups_jsonl(groups, data)
    cfg = _tiny_train_config(tmp_path, epochs=2, use_hard_negatives=True)
    assert cli.run(["train", "--config", cfg, "--data", data, "--out", str(tmp_path / "cli")]).exit_code == 0
    texts = [t for g in groups for t in (*g.texts.values(), *g.hard_negatives.values())]
    assert sorted(tokenized) == sorted(texts)
    train(load_config(cfg), groups, out_dir=str(tmp_path / "lib"))
    for name in ("epoch_0001.ckpt", "epoch_0002.ckpt", "final.ckpt"):
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "lib" / name).read_bytes()


@pytest.fixture(scope="module")
def wide_eval(tmp_path_factory):
    """3,000 aligned lines and a run of two epoch checkpoints at hash_bits 15."""
    d = tmp_path_factory.mktemp("wide_eval")
    rng = np.random.default_rng(8)
    files = {}
    for name in ("src", "tgt"):
        words = rng.integers(5000, size=(3000, 8))
        files[name] = _write(d / f"{name}.txt", "".join(" ".join(f"w{w}" for w in row) + "\n" for row in words))
    files["gold"] = _write(d / "gold.tsv", "".join(f"{i}\t{i}\n" for i in range(3000)))
    (d / "run").mkdir()
    cfg = TrainConfig(hash_bits=15)
    for epoch in (1, 2):
        params = init_params(cfg, epoch)
        save_checkpoint(params, OptimizerState.fresh(params), str(d / "run" / f"epoch_{epoch:04d}.ckpt"))
    return d / "run", files


@pytest.mark.parametrize("task", ["mine", "retrieval"])
def test_eval_holds_two_tables_and_a_few_blocks(wide_eval, tmp_path, task):
    # a 3,000 x 3,000 float64 similarity matrix takes 72 MB and a checkpoint's
    # table, m and v 24 MB; eval keeps the table and 4 MB blocks of similarities
    run_dir, files = wide_eval
    table = 4 * (1 << 15) * TrainConfig().dim
    block = 8 * evaluation_mod._BLOCK_VALUES
    if task == "mine":
        argv = ["--checkpoint", str(run_dir / "epoch_0001.ckpt"), *_flag_args(files, ["src", "tgt", "gold"])]
    else:  # selection holds the best table while the next one loads
        argv = ["--checkpoint-dir", str(run_dir), *_flag_args(files, ["src", "tgt"]),
                "--dev-src", files["src"], "--dev-tgt", files["tgt"]]
    tracemalloc.start()
    try:
        assert cli.run(["eval", "--task", task, *argv, "--out", str(tmp_path / "report.json")]).exit_code == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * table + 4 * block


@pytest.mark.parametrize("mode", ["checkpoint", "checkpoint-dir"])
def test_eval_sts_of_a_constant_model_is_data_error(epochs_run, tmp_path, capsys, mode):
    # an all-zero table and projection encode every sentence to the same row
    run_dir, files = epochs_run
    zero = tmp_path / "epoch_0002.ckpt"
    zero.write_bytes(_crafted_checkpoint(4, 2, 0))
    if mode == "checkpoint":
        source = ["--checkpoint", str(zero)]
    else:  # a valid first epoch, then the constant one
        (tmp_path / "epoch_0001.ckpt").write_bytes((run_dir / "epoch_0001.ckpt").read_bytes())
        source = ["--checkpoint-dir", str(tmp_path), "--dev-pairs", files["dev_pairs"]]
    out = cli.run(["eval", "--task", "sts", *source, "--pairs", files["pairs"]])
    assert out.exit_code == 2
    err = capsys.readouterr().err
    assert f"data error: checkpoint {zero}: the model gives every pair the same similarity" in err
    assert "numeric failure" not in err


def _synth_corpus(tmp_path):
    out_dir = tmp_path / "corpus"
    assert cli.run(["synth", "--concepts", "30", "--langs", "4", "--sentence-len", "5",
                    "--seed", "1", "--out", str(out_dir)]).exit_code == 0
    return str(out_dir / "groups.jsonl"), str(out_dir / "heldout.jsonl")


def _compare_config(tmp_path, **kw):
    return _write(tmp_path / "cmp.json", json.dumps(dict(dict(
        batch_size=8,
        k_positives=3,
        epochs=2,
        tau=1.0,
        lr_main=6e-3,
        warmup_enabled=False,
        hash_bits=10,
        dim=16,
    ), **kw)))


def test_compare_report_structure(tmp_path, capsys):
    data, heldout = _synth_corpus(tmp_path)
    cfg = _compare_config(tmp_path)
    report_path = tmp_path / "cmp.json.out"
    out = cli.run(["compare", "--data", data, "--heldout", heldout, "--config", cfg,
                   "--seeds", "1", "--out", str(report_path)])
    assert out.exit_code == 0
    err = capsys.readouterr().err
    assert "arm multiple:" in err and "arm single:" in err

    report = json.loads(report_path.read_text())
    assert report["task"] == "compare"
    assert report["seeds"] == [0]
    assert report["seen_languages"] == ["l0", "l1", "l2", "l3"]
    assert report["heldout_languages"] == ["h0"]
    assert report["pivot"] == "l0"
    assert report["pairing"] == "per_epoch"
    assert report["config"]["k_positives"] == 3
    for arm in ("multiple", "single"):
        runs = report["arms"][arm]["runs"]
        assert len(runs) == 1 and runs[0]["seed"] == 0
        for key in ("seen_retrieval", "seen_retrieval_min", "heldout_retrieval_h0", "heldout_retrieval"):
            assert 0.0 <= runs[0][key] <= 1.0
        assert report["arms"][arm]["mean"]["seen_retrieval"] == runs[0]["seen_retrieval"]

    assert cli.run(["compare", "--data", data, "--heldout", heldout,
                    "--seeds", "0"]).exit_code == 1
    # k=9 needs 10 languages per group; the corpus has 4
    assert cli.run(["compare", "--data", data, "--heldout", heldout,
                    "--config", _compare_config(tmp_path, k_positives=9), "--seeds", "1"]).exit_code == 1
    assert "config does not fit the dataset" in capsys.readouterr().err


def test_compare_checks_the_single_arm_fit_before_training(tmp_path, monkeypatch, capsys):
    # every group has hard negatives, so the multi arm fits; the single
    # arm's pairs carry none, and that must fail before any arm trains
    train_groups, eval_groups = gen_cipher_corpus(30, 5, 4, 1, 150, 1)
    attach_hard_negatives(
        train_groups, [(lang, g.id, f"hn {lang} {g.id}") for g in train_groups for lang in g.texts]
    )
    data, heldout = str(tmp_path / "groups.jsonl"), str(tmp_path / "heldout.jsonl")
    write_groups_jsonl(train_groups, data)
    write_groups_jsonl(eval_groups, heldout)
    cfg = _compare_config(tmp_path, use_hard_negatives=True)
    real = cli.train
    calls = []

    def counted(train_cfg, *args, **kwargs):
        calls.append(train_cfg.objective)
        return real(train_cfg, *args, **kwargs)

    monkeypatch.setattr(cli, "train", counted)
    out = cli.run(["compare", "--data", data, "--heldout", heldout, "--config", cfg, "--seeds", "1"])
    assert out.exit_code == 1
    assert "config does not fit the dataset: group 'p0000000' lacks hard negatives" in capsys.readouterr().err
    assert calls == []


def _unusable_outs(tmp_path):
    """Report paths no run could write, with what the refusal says of each."""
    (tmp_path / "a_dir").mkdir()
    missing = tmp_path / "missing" / "report.json"
    return [(missing, f"--out {missing}: no directory {missing.parent}"),
            (tmp_path / "a_dir", f"--out {tmp_path / 'a_dir'} is a directory")]


def test_compare_refuses_an_unusable_out_before_training(tmp_path, monkeypatch, capsys):
    data, heldout = _synth_corpus(tmp_path)
    argv = ["compare", "--data", data, "--heldout", heldout, "--config", _compare_config(tmp_path), "--seeds", "1"]
    outs = _unusable_outs(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    calls = []
    for name in ("train", "read_groups_jsonl"):
        real = getattr(cli, name)
        monkeypatch.setattr(
            cli, name, lambda *args, name=name, real=real, **kwargs: calls.append(name) or real(*args, **kwargs)
        )
    capsys.readouterr()
    for out, says in outs:
        assert cli.run([*argv, "--out", str(out)]).exit_code == 2
        assert f"data error: {says}" in capsys.readouterr().err
    assert calls == []
    assert sorted(tmp_path.rglob("*")) == before


def test_eval_refuses_an_unusable_out_before_reading_a_checkpoint(trained, load_calls, monkeypatch, capsys):
    tmp_path, run_dir, src, tgt = trained
    outs = _unusable_outs(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    read, real = [], cli.read_lines
    monkeypatch.setattr(cli, "read_lines", lambda path: read.append(path) or real(path))
    for out, says in outs:
        argv = ["eval", "--task", "retrieval", "--checkpoint-dir", str(run_dir), "--src", src, "--tgt", tgt,
                "--dev-src", src, "--dev-tgt", tgt, "--out", str(out)]
        assert cli.run(argv).exit_code == 2
        assert f"data error: {says}" in capsys.readouterr().err
    assert load_calls == [] and read == []
    assert sorted(tmp_path.rglob("*")) == before


def test_compare_pivot_must_be_a_seen_language(tmp_path, monkeypatch, capsys):
    data, heldout = _synth_corpus(tmp_path)
    cfg = _compare_config(tmp_path)
    calls = []
    real = cli.train
    monkeypatch.setattr(cli, "train", lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs))
    # the held-out language would be retrieved against itself
    for pivot in ("h0", "zz"):
        out = cli.run(["compare", "--data", data, "--heldout", heldout, "--config", cfg, "--pivot", pivot])
        assert out.exit_code == 1
        err = capsys.readouterr().err
        assert f"usage error: --pivot must be a seen language of --data (l0, l1, l2, l3), got {pivot!r}" in err
    # a seen pivot the held-out file lacks is a data error
    lacking = [
        SentenceGroup(id=g.id, texts={lang: g.texts[lang] for lang in ("h0", "l0")})
        for g in read_groups_jsonl(heldout)
    ]
    write_groups_jsonl(lacking, str(tmp_path / "lacking.jsonl"))
    out = cli.run(["compare", "--data", data, "--heldout", str(tmp_path / "lacking.jsonl"), "--config", cfg,
                   "--pivot", "l1"])
    assert out.exit_code == 2
    assert "data error: language 'l1' missing from groups" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("fixed", [False, True])
def test_compare_single_arm_trains_on_each_sentence_at_most_once(tmp_path, monkeypatch, fixed):
    # 5 languages: every group's matching leaves one sentence out
    corpus = tmp_path / "corpus"
    assert cli.run(["synth", "--concepts", "24", "--langs", "5", "--sentence-len", "5", "--seed", "2",
                    "--out", str(corpus)]).exit_code == 0
    groups = read_groups_jsonl(str(corpus / "groups.jsonl"))
    owner = {(lang, text): g.id for g in groups for lang, text in g.texts.items()}
    assert len(owner) == 5 * len(groups)  # a language and a text name one sentence
    real = cli.train
    used = []  # (epoch, the single arm's groups), as training asked for them

    def captured(cfg, groups_at, **kwargs):
        if cfg.objective == "single":
            def recorded(epoch):
                used.append((epoch, groups_at(epoch)))
                return used[-1][1]

            return real(cfg, recorded, **kwargs)
        return real(cfg, groups_at, **kwargs)

    monkeypatch.setattr(cli, "train", captured)
    argv = ["compare", "--data", str(corpus / "groups.jsonl"), "--heldout", str(corpus / "heldout.jsonl"),
            "--config", _compare_config(tmp_path, k_positives=2), "--epochs", "3", "--seeds", "1",
            "--out", str(tmp_path / "report.json")]
    assert cli.run(argv + ["--fixed-pairs"] * fixed).exit_code == 0
    assert [epoch for epoch, _ in used] == [0, 1, 2]
    for epoch, pair_groups in used:
        kept = Counter((lang, text) for g in pair_groups for lang, text in g.texts.items())
        assert all(len(g.texts) == 2 for g in pair_groups)
        assert set(kept) <= set(owner), epoch  # no foreign text
        assert max(kept.values()) == 1, epoch  # each sentence at most once
        dropped = Counter(owner[s] for s in set(owner) - set(kept))
        assert dropped == {g.id: 1 for g in groups}, epoch  # one sentence per group
    matchings = [sorted(tuple(sorted(g.texts)) for g in pair_groups) for _, pair_groups in used]
    assert (matchings[1] == matchings[0]) == fixed


@pytest.mark.parametrize("fixed", [False, True])
def test_compare_builds_each_pairing_once(tmp_path, monkeypatch, fixed):
    data, heldout = _synth_corpus(tmp_path)
    real_pairs, real_groups = cli.groups_to_pairs, cli.pairs_to_groups
    calls = []

    def pairs(groups, rng_seed):
        calls.append(("groups_to_pairs", list(rng_seed)))
        return real_pairs(groups, rng_seed)

    def regroup(pair_records):
        calls.append(("pairs_to_groups", None))
        return real_groups(pair_records)

    monkeypatch.setattr(cli, "groups_to_pairs", pairs)
    monkeypatch.setattr(cli, "pairs_to_groups", regroup)
    argv = ["compare", "--data", data, "--heldout", heldout, "--config", _compare_config(tmp_path),
            "--seeds", "2", "--epochs", "2"]
    assert cli.run(argv + ["--fixed-pairs"] * fixed).exit_code == 0
    epochs = [0] if fixed else [0, 1]
    assert [seed for name, seed in calls if name == "groups_to_pairs"] == [
        [seed, 3, epoch] for seed in (0, 1) for epoch in epochs
    ]
    assert [name for name, _ in calls] == ["groups_to_pairs", "pairs_to_groups"] * 2 * len(epochs)


def test_compare_encodes_the_pivot_once_per_evaluation(tmp_path, monkeypatch):
    train_groups, eval_groups = gen_cipher_corpus(30, 5, 4, 2, 150, 1)
    data, heldout = str(tmp_path / "groups.jsonl"), str(tmp_path / "heldout.jsonl")
    write_groups_jsonl(train_groups, data)
    write_groups_jsonl(eval_groups, heldout)
    real = cli.encode_texts
    calls = []

    def counted(params, texts, *args, **kwargs):
        calls.append(texts[0])
        return real(params, texts, *args, **kwargs)

    monkeypatch.setattr(cli, "encode_texts", counted)
    report_path = tmp_path / "report.json"
    out = cli.run(["compare", "--data", data, "--heldout", heldout, "--config", _compare_config(tmp_path),
                   "--seeds", "1", "--out", str(report_path)])
    assert out.exit_code == 0
    report = json.loads(report_path.read_text())
    assert report["heldout_languages"] == ["h0", "h1"]
    # per arm: 4 seen languages, the pivot once, 2 held-out languages
    assert len(calls) == 2 * (4 + 1 + 2)
    pivot_first = eval_groups[0].texts["l0"]
    assert sum(c == pivot_first for c in calls) == 2 * (1 + 1)  # seen l0 and the pivot, per arm
    for arm in report["arms"].values():
        run = arm["runs"][0]
        assert run["heldout_retrieval"] == (run["heldout_retrieval_h0"] + run["heldout_retrieval_h1"]) / 2


def test_compare_tokenizes_each_sentence_once(tmp_path, tokenized):
    # both arms train and are evaluated on one cache
    data, heldout = _synth_corpus(tmp_path)
    out = cli.run(["compare", "--data", data, "--heldout", heldout, "--config", _compare_config(tmp_path),
                   "--seeds", "1", "--epochs", "1", "--out", str(tmp_path / "report.json")])
    assert out.exit_code == 0
    texts = {t for path in (data, heldout) for g in read_groups_jsonl(path) for t in g.texts.values()}
    assert sorted(tokenized) == sorted(texts)


def test_compare_fixed_pairs_and_byte_identical_reports(tmp_path):
    data, heldout = _synth_corpus(tmp_path)
    cfg = _compare_config(tmp_path)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        out = cli.run(["compare", "--data", data, "--heldout", heldout, "--config", cfg,
                       "--seeds", "1", "--fixed-pairs", "--out", str(path)])
        assert out.exit_code == 0
    assert a.read_bytes() == b.read_bytes()
    assert json.loads(a.read_text())["pairing"] == "fixed"


def test_compare_keeps_one_arm_model_alive(tmp_path, monkeypatch):
    data, heldout = _synth_corpus(tmp_path)
    cfg = _compare_config(tmp_path)
    real = cli.train
    returned, alive_at_start = [], []

    def tracked(*args, **kwargs):
        gc.collect()
        alive_at_start.append(sum(ref() is not None for ref in returned))
        result = real(*args, **kwargs)
        returned.append(weakref.ref(result.params))
        return result

    monkeypatch.setattr(cli, "train", tracked)
    out = cli.run(["compare", "--data", data, "--heldout", heldout, "--config", cfg,
                   "--seeds", "2", "--out", str(tmp_path / "report.json")])
    assert out.exit_code == 0
    # two seeds, two arms each; no earlier arm's model outlives its evaluation
    assert alive_at_start == [0, 0, 0, 0]


def test_every_option_is_named_in_readme():
    # an option README never names is one nobody can find, or one nobody uses
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    named = set(re.findall(r"--[a-z][a-z0-9-]*\*?", readme))
    prefixes = tuple(name[:-1] for name in named if name.endswith("*"))
    commands = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    unnamed = [
        f"{command} {option}"
        for command, parser in commands.choices.items()
        for action in parser._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help" and option not in named
        and not option.startswith(prefixes)
    ]
    assert not unnamed, f"options README never names: {unnamed}"


def _child_env(drop=()) -> dict:
    """This environment without the names in `drop`, with the package's source first on PYTHONPATH."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in drop}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return env


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc/self/task")
def test_importing_multipos_first_runs_blas_on_one_thread():
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = _child_env(drop=names)
    # each case prints its thread count and the three variables
    report = (f"import json, os\nprint(json.dumps([len(os.listdir('/proc/self/task')), "
              f"{{v: os.environ.get(v) for v in {names!r}}}]))")

    def run(code, **preset):
        res = subprocess.run([sys.executable, "-c", code + report], capture_output=True, text=True,
                             env={**env, **preset}, timeout=120)
        assert res.returncode == 0, res.stderr
        return json.loads(res.stdout)

    # OpenBLAS starts its workers when numpy loads; a product this size uses them
    threads, values = run("import multipos\nimport numpy as np\nx = np.ones((600, 600))\nx @ x\n")
    assert threads == 1
    assert values == dict.fromkeys(names, "1")
    assert run("import multipos\n", OPENBLAS_NUM_THREADS="2")[1]["OPENBLAS_NUM_THREADS"] == "2"
    assert run("import numpy\nimport multipos\n")[1] == dict.fromkeys(names)


def test_train_leaves_numpy_ma_unimported(tmp_path):
    # np.unique and a non-unique np.setdiff1d import numpy.ma, 1.6 MB of
    # RSS that a training run has no use for
    data, _ = _groups_file(tmp_path)
    cfg = _tiny_train_config(tmp_path, epochs=2)
    argv = ["train", "--config", cfg, "--data", data, "--out", str(tmp_path / "run")]
    code = f"import sys\nfrom multipos import cli\ncli.run({argv!r})\nprint('numpy.ma' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_child_env(), timeout=120)
    assert res.returncode == 0, res.stderr
    assert (tmp_path / "run" / "final.ckpt").exists()
    assert res.stdout.strip() == "False"


@pytest.mark.parametrize("task,select,extra", [
    ("retrieval", "--checkpoint-dir", ["--both-directions"]),
    ("mine", "--checkpoint", []),
    ("mine", "--checkpoint-dir", ["--threshold", "0.5"]),
    ("sts", "--checkpoint-dir", []),
    ("classify", "--checkpoint-dir", []),
], ids=["retrieval-dir-both-directions", "mine", "mine-dir-threshold", "sts-dir", "classify-dir"])
def test_eval_leaves_numpy_ma_unimported(epochs_run, tmp_path, task, select, extra):
    # numpy.ma costs about 1.3 MB of peak RSS and 10-20 ms to import, and no eval task needs it
    run_dir, files = epochs_run
    if task == "mine":
        # 30 gold pairs spread over the 20 x 20 candidates, the sources with an even
        # index having two: np.isin would sort them through np.unique, which imports numpy.ma
        gold = [(i, i) for i in range(20)] + [(i, i + 1) for i in range(0, 20, 2)]
        path = _write(tmp_path / "gold.tsv", "".join(f"{i}\t{j}\n" for i, j in gold))
        files = dict(files, gold=path, dev_gold=path)
    report_flags, dev_flags = _TASK_FLAGS[task]
    if select == "--checkpoint":
        chosen, flags = str(run_dir / "final.ckpt"), report_flags
    else:
        chosen, flags = str(run_dir), report_flags + dev_flags
    out = tmp_path / "report.json"
    argv = ["eval", "--task", task, select, chosen, *_flag_args(files, flags), *extra, "--out", str(out)]
    code = f"import sys\nfrom multipos import cli\ncli.run({argv!r})\nprint('numpy.ma' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_child_env(), timeout=120)
    assert res.returncode == 0, res.stderr
    assert json.loads(out.read_text())["task"] == task
    assert res.stdout.strip() == "False"


# main() with both standard streams block-buffered, as a caller that replaced them may leave them
_BUFFERED_MAIN = (
    "import io, sys\n"
    "sys.stdout, sys.stderr = (io.TextIOWrapper(open(fd, 'wb', closefd=False), 'utf-8') for fd in (1, 2))\n"
    "from multipos.cli import main\n"
    "main()\n"
)


def test_main_flushes_what_it_wrote_before_it_exits(epochs_run, tmp_path, capsys):
    # main() leaves through os._exit, which skips the interpreter's teardown
    # and the flush of the standard streams that comes with it
    run_dir, files = epochs_run
    sts = ["eval", "--task", "sts", "--checkpoint", str(run_dir / "final.ckpt"), "--pairs", files["pairs"]]
    report = tmp_path / "report.json"
    assert cli.run([*sts, "--out", str(report)]).exit_code == 0
    missing = ["eval", "--task", "sts", "--checkpoint", str(tmp_path / "missing.ckpt"), "--pairs", files["pairs"]]
    env = _child_env(drop=("PYTHONUNBUFFERED",))
    for argv, code, err in ((sts, 0, ""), (["eval", "--task", "sts"], 1, "usage error: "), (missing, 2, "data error: ")):
        assert cli.run(argv).exit_code == code
        want = capsys.readouterr()
        assert want.err.startswith(err) and want.err.count("\n") == (code != 0)
        for entry in (["-m", "multipos.cli"], ["-c", _BUFFERED_MAIN]):
            res = subprocess.run([sys.executable, *entry, *argv], capture_output=True, env=env, timeout=120)
            assert (res.returncode, res.stdout.decode(), res.stderr.decode()) == (code, want.out, want.err)
            if code == 0:
                assert res.stdout == report.read_bytes()

    # a reader that left before the report came: the interpreter's own
    # status for a failed flush at exit, and no traceback
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        res = subprocess.run([sys.executable, "-m", "multipos.cli", *sts], stdout=write_end,
                             stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert (res.returncode, res.stderr) == (120, b"")


def _reads_vm_hwm() -> bool:
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            return any(line.startswith("VmHWM:") for line in fh)
    except OSError:
        return False


@pytest.mark.skipif(not _reads_vm_hwm(), reason="reads the peak RSS, VmHWM, from /proc/self/status")
def test_train_memory_follows_the_rows_it_touches(tmp_path):
    # a 64 MiB table at hash_bits 18 that a 40-concept corpus barely
    # touches: the run holds the table once, Adam moments for the touched
    # rows, and checkpoint blocks, so it peaks less than 1.5 tables above
    # a process that only imported the package. VmHWM, not ru_maxrss: a
    # child's ru_maxrss starts from the spawning process's peak.
    corpus = tmp_path / "corpus"
    assert cli.run(["synth", "--concepts", "40", "--langs", "6", "--heldout", "0", "--seed", "7",
                    "--out", str(corpus)]).exit_code == 0
    cfg = _write(tmp_path / "cfg.json", json.dumps(dict(
        batch_size=8, k_positives=5, tau=1.0, lr_main=6e-3, hash_bits=18, dim=64, warmup_enabled=False, epochs=2,
    )))
    argv = ["train", "--config", cfg, "--data", str(corpus / "groups.jsonl"), "--out", str(tmp_path / "run")]
    env = _child_env()
    peak = "\nprint(next(line.split()[1] for line in open('/proc/self/status') if line.startswith('VmHWM:')))"

    def peak_kib(code):
        res = subprocess.run([sys.executable, "-c", code + peak], capture_output=True, text=True, env=env,
                             timeout=300)
        assert res.returncode == 0, res.stderr
        return int(res.stdout.split()[-1])

    baseline = peak_kib("import numpy.random\nfrom multipos import cli")
    trained = peak_kib(f"from multipos import cli\nassert cli.run({argv!r}).exit_code == 0")
    assert sorted(os.listdir(tmp_path / "run")) == ["epoch_0001.ckpt", "epoch_0002.ckpt", "final.ckpt", "log.jsonl"]
    table_kib = (1 << 18) * 64 * 4 // 1024
    assert trained - baseline < 1.5 * table_kib, (trained, baseline)


@pytest.mark.skipif(
    not hasattr(signal, "SIGINT") or os.name == "nt" or signal.getsignal(signal.SIGINT) is signal.SIG_IGN,
    reason="SIGINT does not reach the child as KeyboardInterrupt here",
)
def test_train_interrupted_by_sigint_names_its_newest_checkpoint(tmp_path):
    corpus = tmp_path / "corpus"
    assert cli.run(["synth", "--concepts", "500", "--langs", "6", "--heldout", "1", "--seed", "7",
                    "--out", str(corpus)]).exit_code == 0
    data = str(corpus / "groups.jsonl")
    recipe = dict(batch_size=32, k_positives=5, tau=1.0, lr_main=6e-3, hash_bits=15, warmup_enabled=False)
    cfg = _write(tmp_path / "cfg.json", json.dumps(dict(recipe, epochs=30)))
    run_dir = tmp_path / "run"
    env = _child_env()
    proc = subprocess.Popen(
        [sys.executable, "-m", "multipos.cli", "train", "--config", cfg, "--data", data, "--out", str(run_dir)],
        stderr=subprocess.PIPE, text=True, env=env,
    )
    try:
        deadline = time.monotonic() + 120
        while not (run_dir / "epoch_0002.ckpt").exists():
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=120)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 130, err
    assert "Traceback" not in err
    [line] = err.splitlines()
    prefix = "interrupted: newest checkpoint is "
    assert line.startswith(prefix)
    newest = Path(line[len(prefix):])
    assert newest.parent == run_dir and newest.exists()
    epoch = int(newest.stem.removeprefix("epoch_"))
    assert epoch >= 2

    # the log covers every step of that checkpoint, in whole epochs, and
    # starts as an uninterrupted 2-epoch run does
    want = train(load_config(dict(recipe, epochs=2)), read_groups_jsonl(data)).records
    per_epoch = len(want) // 2
    log = [json.loads(line) for line in (run_dir / "log.jsonl").read_text(encoding="utf-8").splitlines()]
    assert len(log) % per_epoch == 0 and len(log) >= epoch * per_epoch
    assert [(r["step"], r["loss"]) for r in log[: len(want)]] == [(r.step, r.loss) for r in want]
