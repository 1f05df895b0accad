import gc
import json
import os
import struct
import subprocess
import sys
import weakref
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from multipos import cli
from multipos.data import (
    DataFormatError,
    SentenceGroup,
    attach_hard_negatives,
    gen_cipher_corpus,
    read_groups_jsonl,
    read_pairs_tsv,
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


def test_usage_errors_exit_1(tmp_path, capsys):
    assert cli.run(["frobnicate"]).exit_code == 1
    assert cli.run(["train", "--data", "x.jsonl"]).exit_code == 1  # --out missing
    assert cli.run(["build-data", "--lang", "en=only.txt", "--out", "o"]).exit_code == 1
    assert cli.run(["build-data", "--lang", "noequals", "--out", "o"]).exit_code == 1

    data, _ = _groups_file(tmp_path)
    cfg = _tiny_train_config(tmp_path, batch_size=1)
    out = cli.run(["train", "--config", cfg, "--data", data, "--out", str(tmp_path / "run")])
    assert out.exit_code == 1
    assert "usage error" in capsys.readouterr().err

    cfg = _write(tmp_path / "unknown.json", '{"batch_sizes": 4}')
    assert cli.run(["train", "--config", cfg, "--data", data, "--out", str(tmp_path / "r")]).exit_code == 1

    # 1e999 parses as inf: a non-finite setting is a bad config, not a numeric failure
    capsys.readouterr()
    for key in ("tau", "lr_main"):
        cfg = _write(tmp_path / "inf.json", f'{{"{key}": 1e999}}')
        out = cli.run(["train", "--config", cfg, "--data", data, "--out", str(tmp_path / "inf")])
        assert out.exit_code == 1
        assert "usage error: bad config" in capsys.readouterr().err

    # the dataset-fit check runs before step 0: 3 languages cannot give an anchor and 3 positives
    cfg = _tiny_train_config(tmp_path, k_positives=3)
    assert cli.run(["train", "--config", cfg, "--data", data, "--out", str(tmp_path / "fit")]).exit_code == 1
    assert "usage error: config does not fit the dataset" in capsys.readouterr().err

    # a file with no groups fits no config, in train and in compare
    empty = _write(tmp_path / "empty.jsonl", "")
    for argv in (
        ["train", "--data", empty, "--out", str(tmp_path / "empty_run")],
        ["compare", "--data", empty, "--heldout", data],
    ):
        assert cli.run(argv).exit_code == 1
        assert "usage error: config does not fit the dataset: empty dataset" in capsys.readouterr().err


def test_data_errors_exit_2(tmp_path, capsys):
    missing = str(tmp_path / "nope.jsonl")
    assert cli.run(["to-pairs", "--data", missing, "--out", str(tmp_path / "p.tsv")]).exit_code == 2

    bad = _write(tmp_path / "bad.jsonl", '{"id": "a", "texts": {"x": "1", "y": "2"}}\nnot json\n')
    out = cli.run(["to-pairs", "--data", bad, "--out", str(tmp_path / "p.tsv")])
    assert out.exit_code == 2
    assert ":2:" in capsys.readouterr().err


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
    assert [p.rsplit("/", 1)[-1] for p in out1.artifacts] == ["groups.jsonl", "heldout.jsonl"]
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

    out = cli.run(["synth", "--concepts", "5", "--heldout", "0", "--out", str(tmp_path / "d3")])
    assert [p.rsplit("/", 1)[-1] for p in out.artifacts] == ["groups.jsonl"]

    capsys.readouterr()
    for flags in (["--fresh-rate", "2.0"], ["--concepts", "0"], ["--langs", "0"], ["--heldout", "-1"],
                  ["--vocab", "5"]):
        assert cli.run(["synth", *flags, "--out", str(tmp_path / "d4")]).exit_code == 1, flags
        err = capsys.readouterr().err
        assert "usage error" in err and "numeric failure" not in err, flags
    assert not (tmp_path / "d4").exists()


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
    pairs = read_pairs_tsv(out_path)
    assert len(pairs) == 10  # one pair per group, one sentence dropped each
    used = {(p.src_lang, p.src_text) for p in pairs} | {(p.tgt_lang, p.tgt_text) for p in pairs}
    allowed = {(l, g.texts[l]) for g in groups for l in g.texts}
    assert used <= allowed
    assert len(used) == 20


def test_train_artifacts(tmp_path):
    data, _ = _groups_file(tmp_path)
    cfg = _tiny_train_config(tmp_path, epochs=2)
    run_dir = tmp_path / "run"
    out = cli.run(["train", "--config", cfg, "--data", data, "--out", str(run_dir)])
    assert out.exit_code == 0
    names = sorted(p.name for p in run_dir.iterdir())
    assert names == ["epoch_0001.ckpt", "epoch_0002.ckpt", "final.ckpt", "log.jsonl"]
    log = [json.loads(l) for l in (run_dir / "log.jsonl").read_text().splitlines()]
    assert len(log) == 4  # 8 groups, batch 4, 2 epochs
    assert [r["step"] for r in log] == [0, 1, 2, 3]

    other = tmp_path / "run_seeded"
    cli.run(["train", "--config", cfg, "--data", data, "--seed", "7", "--out", str(other)])
    assert (other / "final.ckpt").read_bytes() != (run_dir / "final.ckpt").read_bytes()


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
    assert out.artifacts == [str(report_path)]
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
    assert -1.0 <= json.loads(out_path.read_text())["overall"] <= 1.0

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
        rows = [line.split("\t") for line in _lines(files["dev_pairs"])]
        return sts_eval(params, [(a, b, float(s)) for a, b, s in rows]).overall
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


@pytest.mark.parametrize("damage", ["truncated", "bad_magic", "flipped_crc"])
@pytest.mark.parametrize("mode", ["--checkpoint", "--checkpoint-dir"])
def test_eval_corrupt_checkpoint_is_data_error(epochs_run, tmp_path, capsys, mode, damage):
    run_dir, files = epochs_run
    data = bytearray((run_dir / "epoch_0002.ckpt").read_bytes())
    if damage == "truncated":
        data = data[: len(data) // 2]
    elif damage == "bad_magic":
        data[:4] = b"XXXX"
    else:
        data[-1] ^= 0x01  # the last byte belongs to the stored CRC32
    ckpt_dir = tmp_path / "ckpts"
    ckpt_dir.mkdir()
    (ckpt_dir / "epoch_0001.ckpt").write_bytes((run_dir / "epoch_0001.ckpt").read_bytes())
    (ckpt_dir / "epoch_0002.ckpt").write_bytes(bytes(data))
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

    assert cli.run([*ckpt, "--task", "sts", "--pairs", files["pairs"], "--max-len", "0"]).exit_code == 1
    assert "usage error" in capsys.readouterr().err

    # a non-finite threshold would write a report that is not JSON
    for threshold in ("nan", "inf", "-inf"):
        out = cli.run([*ckpt, *mine, files["gold"], f"--threshold={threshold}"])
        assert out.exit_code == 1
        assert "usage error: --threshold must be finite" in capsys.readouterr().err


def _crafted_checkpoint(hash_bits: int, dim: int, step: int) -> bytes:
    """A header declaring any shape, with a valid CRC; the declared zero-filled
    body comes along only when it is small."""
    header = CHECKPOINT_MAGIC + struct.pack("<IIII", CHECKPOINT_VERSION, hash_bits, dim, step)
    body = b""
    if hash_bits < 32 and 12 * ((1 << hash_bits) * dim + dim * dim) <= 1 << 16:
        body = bytes(12 * ((1 << hash_bits) * dim + dim * dim))
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
        st.tuples(st.just("crafted"), _U32, _U32, _U32),
    )
)
@example(case=("crafted", 4, 0, 0))
@example(case=("crafted", 0, 4, 0))
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


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_eval_sts_non_finite_gold_is_data_error(epochs_run, tmp_path, capsys, bad):
    run_dir, _ = epochs_run
    pairs = _write(tmp_path / "sts.tsv", f"a b\tc d\t1.0\ne f\tg h\t{bad}\nx y\tz w\t0.5\n")
    out = cli.run(["eval", "--task", "sts", "--checkpoint", str(run_dir / "final.ckpt"), "--pairs", pairs])
    assert out.exit_code == 2
    assert f"data error: {pairs}:2: gold score '{bad}' is not finite" in capsys.readouterr().err


def _synth_corpus(tmp_path):
    out_dir = tmp_path / "corpus"
    assert cli.run(["synth", "--concepts", "30", "--langs", "4", "--sentence-len", "5",
                    "--seed", "1", "--out", str(out_dir)]).exit_code == 0
    return str(out_dir / "groups.jsonl"), str(out_dir / "heldout.jsonl")


def _compare_config(tmp_path, **kw):
    return _write(tmp_path / "cmp.json", json.dumps(dict(
        batch_size=8,
        k_positives=3,
        epochs=2,
        tau=1.0,
        lr_main=6e-3,
        warmup_enabled=False,
        hash_bits=10,
        dim=16,
        **kw,
    )))


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
    assert cli.run(["compare", "--data", data, "--heldout", heldout, "--config", cfg,
                    "--seeds", "1", "--k", "9"]).exit_code == 1
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


def test_pair_conservation_guard():
    groups = [SentenceGroup(id="g", texts={"a": "x", "b": "y"})]
    ok = [SentenceGroup(id="p", texts={"a": "x", "b": "y"})]
    cli._check_pair_conservation(groups, ok, 0)
    broken = [SentenceGroup(id="p", texts={"a": "x", "b": "DIFFERENT"})]
    with pytest.raises(DataFormatError):
        cli._check_pair_conservation(groups, broken, 0)


def test_train_leaves_numpy_ma_unimported(tmp_path):
    # np.unique and a non-unique np.setdiff1d import numpy.ma, 1.6 MB of
    # RSS that a training run has no use for
    data, _ = _groups_file(tmp_path)
    cfg = _tiny_train_config(tmp_path, epochs=2)
    argv = ["train", "--config", cfg, "--data", data, "--out", str(tmp_path / "run")]
    code = f"import sys\nfrom multipos import cli\ncli.run({argv!r})\nprint('numpy.ma' in sys.modules)"
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert res.returncode == 0, res.stderr
    assert (tmp_path / "run" / "final.ckpt").exists()
    assert res.stdout.strip() == "False"
