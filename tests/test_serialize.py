import json
import struct

import numpy as np
import pytest

from moeforge.harness import ToyModel, init_toy_model
from moeforge.moe import MoeConfig, dispatch_batch, expand_supernet
from moeforge.serialize import (
    FormatError,
    load_ffn,
    load_toy_model,
    read_trace_jsonl,
    save_ffn,
    save_toy_model,
    write_trace_jsonl,
)

from conftest import random_ffn, random_layer


def _assert_ffn_equal(a, b):
    assert a.activation == b.activation
    for x, y in ((a.w1, b.w1), (a.b1, b.b1), (a.w2, b.w2), (a.b2, b.b2)):
        assert x.dtype == y.dtype
        assert np.array_equal(x, y)


def test_ffn_binary_roundtrip(tmp_path, rng):
    p = random_ffn(rng, 5, 12, "gelu")
    path = tmp_path / "ffn.bin"
    save_ffn(path, p)
    _assert_ffn_equal(load_ffn(path), p)


def test_ffn_binary_roundtrip_f32(tmp_path, rng):
    p = random_ffn(rng, 3, 4).astype(np.float32)
    path = tmp_path / "ffn32.bin"
    save_ffn(path, p)
    loaded = load_ffn(path)
    assert loaded.w1.dtype == np.float32
    _assert_ffn_equal(loaded, p)


def test_bad_magic_rejected(tmp_path, rng):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(FormatError):
        load_ffn(path)


def test_unsupported_version_rejected(tmp_path, rng):
    p = random_ffn(rng, 2, 2)
    path = tmp_path / "ffn.bin"
    save_ffn(path, p)
    raw = bytearray(path.read_bytes())
    raw[4] = 99  # version field
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        load_ffn(path)


def test_truncated_payload_rejected(tmp_path, rng):
    p = random_ffn(rng, 4, 8)
    path = tmp_path / "ffn.bin"
    save_ffn(path, p)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 16])
    with pytest.raises(FormatError):
        load_ffn(path)


def test_ffn_trailing_bytes_rejected(tmp_path, rng):
    path = tmp_path / "ffn.bin"
    save_ffn(path, random_ffn(rng, 4, 8))
    path.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(FormatError, match="trailing"):
        load_ffn(path)


def test_moe_layer_roundtrip(tmp_path, rng):
    layer, _, cfg = random_layer(rng, n_replicas=3, granularity=2, perturb=0.4)
    dense = init_toy_model(cfg.token_dim, cfg.hidden_dim, seed=4)
    path = tmp_path / "layer.ckpt"
    save_toy_model(path, ToyModel(dense.input_w, dense.input_b, layer, dense.head_w, dense.head_b))
    loaded = load_toy_model(path).block
    assert loaded.config == cfg
    for a, b in zip(loaded.experts, layer.experts):
        _assert_ffn_equal(a, b)
    assert np.array_equal(loaded.router.w_r, layer.router.w_r)
    assert np.array_equal(loaded.router.b_r, layer.router.b_r)


def test_toy_model_roundtrip_dense(tmp_path):
    model = init_toy_model(6, 12, seed=4)
    path = tmp_path / "toy.ckpt"
    save_toy_model(path, model)
    loaded = load_toy_model(path)
    assert loaded.kind == "dense"
    assert np.array_equal(loaded.input_w, model.input_w)
    assert np.array_equal(loaded.head_w, model.head_w)
    _assert_ffn_equal(loaded.block, model.block)


def test_toy_model_roundtrip_moe(tmp_path):
    dense = init_toy_model(6, 12, seed=4)
    layer = expand_supernet(dense.block, MoeConfig(token_dim=6, hidden_dim=12,
                                                   n_replicas=2, granularity=2, seed=9))
    model = ToyModel(dense.input_w, dense.input_b, layer, dense.head_w, dense.head_b)
    path = tmp_path / "toy.ckpt"
    save_toy_model(path, model)
    loaded = load_toy_model(path)
    assert loaded.kind == "moe"
    assert loaded.block.config == layer.config
    for a, b in zip(loaded.block.experts, layer.experts):
        _assert_ffn_equal(a, b)


def _toy_bytes(tmp_path, model) -> bytes:
    path = tmp_path / "src.ckpt"
    save_toy_model(path, model)
    return path.read_bytes()


# magic, four u32s, f64 input/head weights and biases of a 6-dim toy model
_TOY_HEADER = 4 + 4 * 4 + 8 * (2 * 6 * 6 + 2 * 6)


def test_toy_model_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "toy.ckpt"
    path.write_bytes(_toy_bytes(tmp_path, init_toy_model(6, 12, seed=4)) + b"junk")
    with pytest.raises(FormatError, match="trailing"):
        load_toy_model(path)


def test_toy_model_unread_nested_bytes_rejected(tmp_path):
    # the blob length claims four more bytes than the nested FFN container holds
    raw = _toy_bytes(tmp_path, init_toy_model(6, 12, seed=4))
    header = _TOY_HEADER
    (blob_len,) = struct.unpack("<Q", raw[header:header + 8])
    path = tmp_path / "toy.ckpt"
    path.write_bytes(raw[:header] + struct.pack("<Q", blob_len + 4) + raw[header + 8:] + b"junk")
    with pytest.raises(FormatError, match="unread"):
        load_toy_model(path)


@pytest.mark.parametrize("kind", ["dense", "moe"])
def test_toy_model_nested_dim_mismatch_rejected(tmp_path, rng, kind):
    # a 6-dim toy model holding a 4-dim block
    outer = init_toy_model(6, 12, seed=4)
    if kind == "dense":
        block = random_ffn(rng, 4, 8)
    else:
        block = random_layer(rng, token_dim=4, hidden_dim=8, n_replicas=2, granularity=2)[0]
    path = tmp_path / "toy.ckpt"
    save_toy_model(path, ToyModel(outer.input_w, outer.input_b, block, outer.head_w, outer.head_b))
    with pytest.raises(FormatError, match="token_dim"):
        load_toy_model(path)


def test_trace_jsonl_roundtrip(tmp_path, rng):
    layer, _, cfg = random_layer(rng, perturb=0.4)
    _, trace = dispatch_batch(layer, rng.normal(size=(25, cfg.token_dim)))
    path = tmp_path / "trace.jsonl"
    write_trace_jsonl(path, trace)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 25
    first = json.loads(lines[0])
    assert set(first) == {"token_id", "selected", "scores"}
    assert first["token_id"] == 0
    loaded = read_trace_jsonl(path)
    assert loaded.top_k == trace.top_k
    assert np.array_equal(loaded.selected, trace.selected)
    assert np.array_equal(loaded.scores, trace.scores)  # repr round-trips doubles exactly


def test_empty_trace_file_rejected(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(FormatError):
        read_trace_jsonl(path)


@pytest.mark.parametrize("kind", ["dense", "moe"])
def test_toy_model_nested_dtype_mismatch_rejected(tmp_path, rng, kind):
    # an f64 toy model holding an f32 block would run in mixed precision
    outer = init_toy_model(6, 12, seed=4)
    if kind == "dense":
        block = random_ffn(rng, 6, 12).astype(np.float32)
    else:
        block = expand_supernet(random_ffn(rng, 6, 12).astype(np.float32),
                                MoeConfig(token_dim=6, hidden_dim=12, n_replicas=2, granularity=2))
    path = tmp_path / "toy.ckpt"
    save_toy_model(path, ToyModel(outer.input_w, outer.input_b, block, outer.head_w, outer.head_b))
    with pytest.raises(FormatError, match="dtype"):
        load_toy_model(path)


def test_nested_moe_invalid_config_rejected(tmp_path):
    dense = init_toy_model(6, 12, seed=4)
    layer = expand_supernet(dense.block, MoeConfig(token_dim=6, hidden_dim=12, n_replicas=2, granularity=2))
    raw = bytearray(_toy_bytes(tmp_path, ToyModel(dense.input_w, dense.input_b, layer,
                                                  dense.head_w, dense.head_b)))
    # the nested MMOE header: magic, then u32 version, dtype, activation,
    # token_dim, hidden_dim, n_replicas, granularity
    granularity_at = _TOY_HEADER + 8 + 4 + 6 * 4
    assert struct.unpack("<I", raw[granularity_at:granularity_at + 4]) == (2,)
    raw[granularity_at:granularity_at + 4] = struct.pack("<I", 0)
    path = tmp_path / "toy.ckpt"
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="granularity"):
        load_toy_model(path)
