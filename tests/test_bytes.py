"""The byte gate: artifacts of the compare recipe keep their exact bytes.

A change that alters these bytes on purpose records the new digests in
DIGESTS and says so. The bytes pass through BLAS products, so they may
also differ under another numpy or BLAS build, or on a CPU whose kernels
OpenBLAS picks differently; BUILD names the build they were recorded with.
"""

import hashlib
import json

import numpy as np
import pytest

from multipos import cli

BUILD = "numpy 2.4.6, scipy-openblas 0.3.31.188.0"

# SHA-256 of each artifact built from `synth --concepts 500 --langs 6
# --heldout 1 --seed 7`
DIGESTS = {
    "compare --seeds 1 --epochs 2": "d086112f86266f642525ad3538370f033a4ca18e8d704f873be8ddd38f3cfcba",
    "compare --seeds 2 --epochs 1": "c2fcde0b894fae3d0a0fdc85e8f551cff7e4529427aae51fa2478cad3069d095",
    "compare --seeds 2 --epochs 1 --fixed-pairs": "960a843e8d765a86c5d6e3020499448ac5ab3e2e0055a3cd35a383552c0f32f8",
    "train multi, final.ckpt": "e0e8d7ac4c3b4f591f55bac60f83bc3f1fc4d05afc09372b952e907a546389c0",
    "train single, final.ckpt": "1ddd8ef2ef9feccabc75bcc7668807f251cb36e1c350a588ef0109a468a1686f",
}

# SHA-256 of run/final.ckpt after README's Quick start: 30 epochs of the
# recipe below. It writes 746 MB of checkpoints, so CI's Quick start step
# checks it rather than a test.
QUICKSTART_FINAL = "a6a4fd3c6ff8f621d2c47f737a1d099920e9d9e502a22c3ce56ba55de6990140"

# compare's built-in recipe, as a train config
RECIPE = dict(batch_size=32, k_positives=5, tau=1.0, lr_main=6e-3, hash_bits=15, warmup_enabled=False, epochs=2)


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
    paths = {}
    for i, name in enumerate(n for n in DIGESTS if n.startswith("compare")):
        paths[name] = d / f"report{i}.json"
        argv = [*name.split(), *data, "--heldout", str(corpus / "heldout.jsonl"), "--out", str(paths[name])]
        assert cli.run(argv).exit_code == 0, name
    for objective in ("multi", "single"):
        cfg = d / f"{objective}.json"
        cfg.write_text(json.dumps(dict(RECIPE, objective=objective)), encoding="utf-8")
        argv = ["train", "--config", str(cfg), *data, "--out", str(d / objective)]
        assert cli.run(argv).exit_code == 0, objective
        paths[f"train {objective}, final.ckpt"] = d / objective / "final.ckpt"
    return paths


@pytest.mark.parametrize("name", list(DIGESTS))
def test_compare_recipe_artifacts_keep_their_bytes(artifacts, name):
    got = hashlib.sha256(artifacts[name].read_bytes()).hexdigest()
    assert got == DIGESTS[name], (
        f"{name}: sha256 {got[:8]}..., recorded {DIGESTS[name][:8]}... under {BUILD}; "
        f"this build is {_this_build()}"
    )
