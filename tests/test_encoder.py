import math
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from multipos import encoder as encoder_mod
from multipos.encoder import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    CheckpointChecksumError,
    CheckpointError,
    CheckpointMagicError,
    CheckpointVersionError,
    ModelParams,
    NonFiniteGradientError,
    OptimizerState,
    ParamGrads,
    adam_step,
    encode,
    encode_backward,
    fnv1a_64,
    load_checkpoint,
    save_checkpoint,
    tokenize,
)
from multipos.losses import multi_positive_loss

from helpers import (
    dense_adam_step,
    dense_encode_backward,
    densify,
    full_grads,
    grad_rel_err,
    loop_encode,
)


def test_fnv1a_reference_vectors():
    # published FNV-1a 64-bit test vectors
    assert fnv1a_64(b"") == 0xCBF29CE484222325
    assert fnv1a_64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a_64(b"foobar") == 0x85944171F73967E8


def test_tokenize_basic():
    ids = tokenize("Hello, world")
    assert len(ids) == 2
    assert ids == tokenize("Hello, world")
    assert tokenize("hello world") == ids  # lowercasing
    assert tokenize("hello,world") == ids  # punctuation boundary
    assert tokenize("") == [0]
    assert tokenize(" ,.;! ") == [0]
    a, b, c = tokenize("a a a")
    assert a == b == c
    assert tokenize("x y z", max_len=2) == tokenize("x y")


def test_tokenize_id_range():
    for bits in (1, 4, 16):
        ids = tokenize("the quick brown fox jumps", hash_bits=bits)
        assert all(1 <= i < (1 << bits) for i in ids)
    with pytest.raises(ValueError):
        tokenize("x", max_len=0)
    with pytest.raises(ValueError):
        tokenize("x", hash_bits=0)


def _params(rng, hash_bits=4, dim=6, scale=0.5, identity_proj=False):
    rows = 1 << hash_bits
    table = rng.normal(0.0, scale, size=(rows, dim)).astype(np.float32)
    proj = np.eye(dim, dtype=np.float32) if identity_proj else rng.normal(
        0.0, 0.4, size=(dim, dim)
    ).astype(np.float32)
    return ModelParams(table, proj, hash_bits=hash_bits, dim=dim)


def test_model_params_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        ModelParams(np.zeros((15, 6), dtype=np.float32), np.eye(6, dtype=np.float32), 4, 6)
    with pytest.raises(ValueError):
        ModelParams(np.zeros((16, 6), dtype=np.float32), np.eye(5, dtype=np.float32), 4, 6)
    p = _params(rng)
    assert p.embedding_table.dtype == np.float32
    assert p.projection.dtype == np.float32


def test_encode_unit_norms_and_determinism():
    rng = np.random.default_rng(1)
    params = _params(rng, hash_bits=6, dim=8, scale=3.0)
    batch = [list(rng.integers(0, 64, size=rng.integers(1, 12))) for _ in range(200)]
    embs, _ = encode(params, batch)
    norms = np.linalg.norm(embs, axis=1)
    assert np.abs(norms - 1.0).max() <= 1e-9
    embs2, _ = encode(params, batch)
    assert embs.tobytes() == embs2.tobytes()


def test_encode_identical_sentences_identical_rows():
    rng = np.random.default_rng(2)
    params = _params(rng)
    embs, _ = encode(params, [[1, 2, 3], [1, 2, 3], [4]])
    assert np.array_equal(embs[0], embs[1])
    assert not np.array_equal(embs[0], embs[2])


def test_encode_single_token_identity_projection():
    rng = np.random.default_rng(3)
    params = _params(rng, identity_proj=True)
    embs, _ = encode(params, [[5]])
    row = params.embedding_table[5].astype(np.float64)
    expected = row / (np.linalg.norm(row) + 1e-12)
    assert np.abs(embs[0] - expected).max() <= 1e-12


def test_encode_errors():
    rng = np.random.default_rng(4)
    params = _params(rng)
    with pytest.raises(ValueError, match="empty batch"):
        encode(params, [])
    with pytest.raises(ValueError, match="sequence 1 is empty"):
        encode(params, [[1], []])
    with pytest.raises(ValueError, match="sequence 2 is empty"):
        encode(params, [[1], [2, 3], [], []])
    with pytest.raises(ValueError, match=r"sequence 0 has token ids outside \[0, 16\)"):
        encode(params, [[16]])  # out of range for hash_bits=4
    with pytest.raises(ValueError, match="sequence 2 has token ids outside"):
        encode(params, [[1, 2], [3], [4, -1, 5], [99]])


def _assert_encode_matches_loop(params, seqs, chunk_values=None):
    with pytest.MonkeyPatch.context() as mp:
        if chunk_values is not None:
            mp.setattr(encoder_mod, "_CHUNK_VALUES", chunk_values)
        out, cache = encode(params, seqs)
    ref_out, ref_pooled, ref_projected = loop_encode(params, seqs)
    assert cache.pooled.tobytes() == ref_pooled.tobytes()
    assert cache.projected.tobytes() == ref_projected.tobytes()
    assert out.tobytes() == ref_out.tobytes()


def _scaled_params(rng, dim):
    # rows of very different scales make every summation order show
    table = rng.normal(size=(16, dim)) * 10.0 ** rng.integers(-3, 4, size=(16, 1))
    proj = rng.normal(0.0, 0.4, size=(dim, dim))
    return ModelParams(table.astype(np.float32), proj.astype(np.float32), hash_bits=4, dim=dim)


@given(
    dim=st.integers(1, 65),
    lengths=st.lists(st.integers(1, 70), min_size=1, max_size=40),
    chunk_values=st.integers(1, 200),
    seed=st.integers(0, 2**16),
)
def test_encode_matches_loop_oracle_bitwise(dim, lengths, chunk_values, seed):
    # 16 ids repeat within and across sequences and include the empty-text
    # id 0; small chunk values split the sequence blocks mid-batch
    rng = np.random.default_rng(seed)
    seqs = [[int(i) for i in rng.integers(0, 16, size=n)] for n in lengths]
    _assert_encode_matches_loop(_scaled_params(rng, dim), seqs, chunk_values)


@pytest.mark.parametrize("case", ["negative_zero_row", "long_among_short"])
def test_encode_matches_loop_oracle_on_edge_batches(case):
    rng = np.random.default_rng(11)
    params = _scaled_params(rng, 5)
    if case == "negative_zero_row":
        # a row of -0.0 alone and twice: every sum starts at +0.0, as the
        # mean does, so the pooled rows are +0.0
        params.embedding_table[9] = -0.0
        seqs = [[9], [9, 9], [3, 9]]
    else:
        # one 64-token sequence among 30 one-token ones: the passes stop
        # after the first term and the long one finishes with a running sum
        seqs = [[int(i) for i in rng.integers(0, 16, size=64)]]
        seqs += [[int(i)] for i in rng.integers(0, 16, size=30)]
    _assert_encode_matches_loop(params, seqs)


def test_cache_reproduces_forward():
    rng = np.random.default_rng(5)
    params = _params(rng, hash_bits=5, dim=4)
    batch = [[1, 2], [3], [2, 2, 7]]
    embs, cache = encode(params, batch)
    assert cache.token_ids == batch
    assert cache.flat_ids.tolist() == [1, 2, 3, 2, 2, 7]
    assert cache.lengths.tolist() == [2, 1, 3]
    proj64 = params.projection.astype(np.float64)
    assert np.array_equal(cache.projected, cache.pooled @ proj64)
    assert np.array_equal(cache.raw_norms, np.linalg.norm(cache.projected, axis=1))
    assert np.array_equal(embs, cache.projected / cache.smooth_norms[:, None])


def test_backward_zero_upstream():
    rng = np.random.default_rng(6)
    params = _params(rng)
    _, cache = encode(params, [[1, 2], [3]])
    grads = encode_backward(params, cache, np.zeros((2, 6)))
    assert not grads.embedding_table.any()
    assert not grads.projection.any()
    with pytest.raises(ValueError):
        encode_backward(params, cache, np.zeros((3, 6)))


def test_backward_shared_token_additivity():
    rng = np.random.default_rng(7)
    params = _params(rng, hash_bits=4, dim=5)
    g = rng.normal(size=(2, 5))
    _, cache = encode(params, [[9, 3], [9]])
    both = encode_backward(params, cache, g)
    _, ca = encode(params, [[9, 3]])
    _, cb = encode(params, [[9]])
    only_a = encode_backward(params, ca, g[:1])
    only_b = encode_backward(params, cb, g[1:])
    assert np.allclose(
        densify(both, 16)[9],
        densify(only_a, 16)[9] + densify(only_b, 16)[9],
        rtol=1e-12,
        atol=0,
    )


@pytest.mark.parametrize("chunk_values", [None, 7, 64])
def test_sparse_backward_matches_dense_oracle(monkeypatch, chunk_values):
    if chunk_values is not None:  # row blocks of 1 and of 12 rows
        monkeypatch.setattr(encoder_mod, "_CHUNK_VALUES", chunk_values)
    rng = np.random.default_rng(13)
    params = _params(rng, hash_bits=6, dim=5)
    # the empty-text id 0, tokens repeated within and across sequences
    batch = [[0], [3, 3, 7], [7, 0, 63, 3]] + [
        [int(x) for x in rng.integers(0, 60, size=int(rng.integers(1, 12)))] for _ in range(60)
    ]
    # id 1 occurs 1,000 times, ids 2 and 4 hundreds of times
    batch += [[1] * 40 + [2] * 8 + [4] * 2 for _ in range(25)]
    # ids 60-62 occur only in 66-token sequences with an upstream gradient
    # of a few denormal units: divided by 66, every contribution is a
    # signed zero, and a row whose contributions are all -0.0 must still
    # sum to +0.0, as np.add.at into zeros gives
    tiny = [[60, 61, 62] * 22] * 4
    batch += tiny
    g = rng.normal(size=(len(batch) + 1, 5))
    g[len(batch) - len(tiny) : len(batch)] = [-5e-324, 5e-324, -1e-323, -5e-324, 1e-323]
    # rows 5 and 6 cancel: the last sequence pools and projects to exactly
    # zero, and its normalisation backward takes the masked path
    params.embedding_table[6] = -params.embedding_table[5]
    for seqs in (batch, batch + [[5, 6]]):
        _, cache = encode(params, seqs)
        sparse = encode_backward(params, cache, g[: len(seqs)])
        dense = dense_encode_backward(params, seqs, cache, g[: len(seqs)])
        assert np.array_equal(sparse.rows, np.unique(np.concatenate(seqs)))
        assert densify(sparse, 64).tobytes() == dense.embedding_table.tobytes()
        assert sparse.projection.tobytes() == dense.projection.tobytes()
        assert (dense.embedding_table[60:63] == 0.0).all()
    assert cache.raw_norms[-1] == 0.0 and (cache.raw_norms[:-1] > 0.0).all()


def test_end_to_end_gradient_matches_finite_differences():
    # two groups through the full pipeline: encode -> loss -> scalar
    rng = np.random.default_rng(8)
    params = _params(rng, hash_bits=3, dim=4, scale=0.8)
    batch = [[1, 2], [3], [2, 4], [5]]  # anchors then positives; token 2 shared

    def forward() -> float:
        embs, _ = encode(params, batch)
        return multi_positive_loss(embs[:2], embs[2:4, None, :], tau=0.2, normalization="identity").value

    embs, cache = encode(params, batch)
    out = multi_positive_loss(embs[:2], embs[2:4, None, :], tau=0.2, normalization="identity")
    grad_rows = np.concatenate([out.grad_anchor, out.grad_positives[:, 0, :]])
    grads = encode_backward(params, cache, grad_rows)

    h = 1e-4
    for name, analytic in (("embedding_table", densify(grads, 8)), ("projection", grads.projection)):
        arr = getattr(params, name)
        fd = np.zeros(arr.shape, dtype=np.float64)
        flat = arr.reshape(-1)
        fd_flat = fd.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            hi = np.float32(float(orig) + h)
            lo = np.float32(float(orig) - h)
            flat[i] = hi
            fp = forward()
            flat[i] = lo
            fm = forward()
            flat[i] = orig
            fd_flat[i] = (fp - fm) / (float(hi) - float(lo))
        assert grad_rel_err([analytic], [fd]) < 1e-4


def test_adam_first_step_magnitude():
    table = np.zeros((2, 1), dtype=np.float32)
    params = ModelParams(table, np.eye(1, dtype=np.float32), 1, 1)
    state = OptimizerState.fresh(params)
    g = full_grads(np.array([[0.3], [0.0]]), np.zeros((1, 1)))
    adam_step(params, state, g, lr=1e-2)
    assert state.step == 1
    # bias-corrected first step is lr * g / (|g| + eps), sign opposite g
    assert abs(float(params.embedding_table[0, 0]) + 1e-2) <= 1e-5
    assert params.embedding_table[1, 0] == 0.0


def test_adam_zero_gradient_zero_state_is_noop():
    rng = np.random.default_rng(9)
    params = _params(rng)
    before = params.embedding_table.copy()
    state = OptimizerState.fresh(params)
    adam_step(params, state, full_grads(np.zeros((16, 6)), np.zeros((6, 6))), lr=0.1)
    assert np.array_equal(params.embedding_table, before)
    assert state.step == 1


def test_adam_matches_float64_reference():
    rng = np.random.default_rng(10)
    params = _params(rng, hash_bits=2, dim=3, scale=0.3)
    state = OptimizerState.fresh(params)
    p_ref = params.embedding_table.astype(np.float64)
    m = np.zeros_like(p_ref)
    v = np.zeros_like(p_ref)
    lr = 3e-3
    for t in range(1, 6):
        g = rng.normal(size=p_ref.shape)
        adam_step(params, state, full_grads(g.copy(), np.zeros((3, 3))), lr)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        mhat = m / (1.0 - 0.9**t)
        vhat = v / (1.0 - 0.999**t)
        p_ref -= lr * mhat / (np.sqrt(vhat) + 1e-8)
    assert np.abs(params.embedding_table - p_ref).max() <= 1e-5


def test_adam_determinism_and_errors():
    rng = np.random.default_rng(11)
    g = full_grads(rng.normal(size=(16, 6)), rng.normal(size=(6, 6)))

    finals = []
    for _ in range(2):
        params = _params(np.random.default_rng(11))
        state = OptimizerState.fresh(params)
        for _ in range(3):
            adam_step(params, state, g, lr=1e-2)
        finals.append(params.embedding_table.tobytes() + params.projection.tobytes())
    assert finals[0] == finals[1]

    params = _params(rng)
    state = OptimizerState.fresh(params)
    with pytest.raises(ValueError):
        adam_step(params, state, g, lr=0.0)
    bad = full_grads(np.zeros((16, 6)), np.zeros((6, 6)))
    bad.projection[0, 0] = float("nan")
    with pytest.raises(NonFiniteGradientError, match="projection"):
        adam_step(params, state, bad, lr=1e-2)
    bad2 = full_grads(np.zeros((16, 6)), np.zeros((6, 6)))
    bad2.embedding_table[3, 1] = float("inf")
    with pytest.raises(NonFiniteGradientError, match="embedding_table"):
        adam_step(params, state, bad2, lr=1e-2)


def _state_bytes(params, state) -> bytes:
    arrays = (params.embedding_table, params.projection, state.m_table, state.m_projection,
              state.v_table, state.v_projection)
    return b"".join(a.tobytes() for a in arrays) + state.step.to_bytes(4, "little")


@pytest.mark.parametrize("chunk_values", [None, 4])
def test_adam_matches_dense_oracle_after_resume(tmp_path, monkeypatch, chunk_values):
    if chunk_values is not None:  # one row per block
        monkeypatch.setattr(encoder_mod, "_CHUNK_VALUES", chunk_values)
    rng = np.random.default_rng(14)
    params = _params(rng, hash_bits=5, dim=4)
    state = OptimizerState.fresh(params)
    # rows 1-3 get gradients in the first two steps and never again
    for _ in range(2):
        rows = np.array([1, 2, 3])
        adam_step(params, state, ParamGrads(rows, rng.normal(size=(3, 4)), rng.normal(size=(4, 4))), 1e-2)
    # -0.0 moments in otherwise untouched rows: a zero-gradient step makes them +0.0
    state.m_table[9, 2] = -0.0
    state.v_table[10, 0] = -0.0
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(params, state, path)
    assert state.live == 4  # rows 0-3: the last row with a gradient is 3

    resumed = load_checkpoint(path)
    oracle = load_checkpoint(path)
    assert resumed[1].live is None  # derived from the moments at the next step
    # a step without table gradient updates rows 0-10: the -0.0 in row 10 is a set bit
    grads = ParamGrads(np.zeros(0, dtype=np.intp), np.zeros((0, 4)), rng.normal(size=(4, 4)))
    adam_step(*resumed, grads, 1e-2)
    dense_adam_step(*oracle, grads, 1e-2)
    assert resumed[1].live == 11
    assert not np.signbit(oracle[1].m_table[9, 2])  # the oracle did rewrite the -0.0
    assert _state_bytes(*resumed) == _state_bytes(*oracle)
    live = 11
    for _ in range(4):
        rows = np.unique(rng.integers(12, 32, size=5))
        grads = ParamGrads(rows, rng.normal(size=(len(rows), 4)), rng.normal(size=(4, 4)))
        adam_step(*resumed, grads, 1e-2)
        dense_adam_step(*oracle, grads, 1e-2)
        assert _state_bytes(*resumed) == _state_bytes(*oracle)
        live = max(live, rows[-1] + 1)  # extended to the last row with a gradient
        assert resumed[1].live == live


def _trained_pair(seed=12):
    rng = np.random.default_rng(seed)
    params = _params(rng, hash_bits=4, dim=6)
    state = OptimizerState.fresh(params)
    for _ in range(3):
        g = full_grads(rng.normal(size=(16, 6)), rng.normal(size=(6, 6)))
        adam_step(params, state, g, lr=1e-2)
    return params, state


def test_checkpoint_round_trip(tmp_path):
    params, state = _trained_pair()
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(params, state, path)
    params2, state2 = load_checkpoint(path)
    assert params2.hash_bits == params.hash_bits and params2.dim == params.dim
    assert np.array_equal(params2.embedding_table, params.embedding_table)
    assert np.array_equal(params2.projection, params.projection)
    assert np.array_equal(state2.m_table, state.m_table)
    assert np.array_equal(state2.m_projection, state.m_projection)
    assert np.array_equal(state2.v_table, state.v_table)
    assert np.array_equal(state2.v_projection, state.v_projection)
    assert state2.step == state.step == 3
    assert (ADAM_BETA1, ADAM_BETA2, ADAM_EPS) == (0.9, 0.999, 1e-8)

    # re-saving the loaded pair reproduces the file byte for byte
    path2 = str(tmp_path / "model2.ckpt")
    save_checkpoint(params2, state2, path2)
    assert (tmp_path / "model.ckpt").read_bytes() == (tmp_path / "model2.ckpt").read_bytes()


class _FailingArray:
    """Stands in for an array whose conversion fails mid-save, like a full disk."""

    def __array__(self, dtype=None, copy=None):
        raise OSError("No space left on device")


def test_checkpoint_save_is_atomic(tmp_path):
    params, state = _trained_pair()
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, state, str(path))
    arrays = (params.embedding_table, params.projection, state.m_table, state.m_projection,
              state.v_table, state.v_projection)
    body = b"MPCL" + struct.pack("<IIII", 1, 4, 6, 3) + b"".join(a.astype("<f4").tobytes() for a in arrays)
    assert path.read_bytes() == body + struct.pack("<I", zlib.crc32(body))
    before = path.read_bytes()

    # a later save that fails after the table is written leaves the old file whole
    params2, state2 = _trained_pair(seed=13)
    params2.projection = _FailingArray()
    with pytest.raises(OSError, match="No space left"):
        save_checkpoint(params2, state2, str(path))
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]


def test_checkpoint_error_cases(tmp_path):
    params, state = _trained_pair()
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, state, str(path))
    blob = path.read_bytes()

    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(CheckpointMagicError):
        load_checkpoint(str(bad))

    bad.write_bytes(b"XX")
    with pytest.raises(CheckpointMagicError):
        load_checkpoint(str(bad))

    bad.write_bytes(blob[:4] + struct.pack("<I", 99) + blob[8:])
    with pytest.raises(CheckpointVersionError):
        load_checkpoint(str(bad))

    flipped = bytearray(blob)
    flipped[40] ^= 0xFF
    bad.write_bytes(bytes(flipped))
    with pytest.raises(CheckpointChecksumError):
        load_checkpoint(str(bad))

    bad.write_bytes(blob[:-9])
    with pytest.raises(CheckpointChecksumError):
        load_checkpoint(str(bad))

    bad.write_bytes(blob[:10])
    with pytest.raises(CheckpointError):
        load_checkpoint(str(bad))

    bad.write_bytes(blob + b"\x00")
    with pytest.raises(CheckpointChecksumError):
        load_checkpoint(str(bad))

    flipped = bytearray(blob)
    flipped[-2] ^= 0x01  # inside the stored CRC
    bad.write_bytes(bytes(flipped))
    with pytest.raises(CheckpointChecksumError):
        load_checkpoint(str(bad))

    # a header declaring a shape outside hash_bits [1, 24] and dim >= 1 is
    # refused before allocation, as a bad header rather than a bad checksum:
    # a 2^40-row table, an empty table and a zero dim, each with a valid CRC
    for hash_bits, dim in ((40, 64), (0, 4), (4, 0)):
        header = blob[:4] + struct.pack("<IIII", 1, hash_bits, dim, 0)
        bad.write_bytes(header + struct.pack("<I", zlib.crc32(header)))
        with pytest.raises(CheckpointError, match=f"hash_bits {hash_bits}, dim {dim} out") as info:
            load_checkpoint(str(bad))
        assert type(info.value) is CheckpointError

    with pytest.raises(OSError):
        load_checkpoint(str(tmp_path / "does-not-exist.ckpt"))
