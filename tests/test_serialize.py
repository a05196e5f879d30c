import io
import json
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moeforge import serialize
from moeforge.cli import main
from moeforge.harness import ToyModel, init_toy_model
from moeforge.moe import MoeConfig, dispatch_batch, expand_supernet
from moeforge.moe import RoutingTrace
from moeforge.serialize import (
    FormatError,
    load_toy_model,
    read_labels_csv,
    read_trace_jsonl,
    save_toy_model,
    write_labels_csv,
    write_trace_jsonl,
)

from conftest import random_ffn, random_layer


def _assert_ffn_equal(a, b):
    assert a.activation == b.activation
    for x, y in ((a.w1, b.w1), (a.b1, b.b1), (a.w2, b.w2), (a.b2, b.b2)):
        assert x.dtype == y.dtype
        assert np.array_equal(x, y)


def _toy_bytes(tmp_path, model) -> bytes:
    path = tmp_path / "src.ckpt"
    save_toy_model(path, model)
    return path.read_bytes()


def _around(block):
    """A dense toy model holding block, in the block's token_dim and dtype."""
    outer = init_toy_model(block.token_dim, 4, seed=4, dtype=block.w1.dtype)
    return ToyModel(outer.input_w, outer.input_b, block, outer.head_w, outer.head_b)


# magic, four u32s, f64 input/head weights and biases of a 6-dim toy model
_TOY_HEADER = 4 + 4 * 4 + 8 * (2 * 6 * 6 + 2 * 6)
# the nested container starts after the header and the u64 blob length
_NESTED = _TOY_HEADER + 8


def _tune(tmp_path, base) -> int:
    """Exit code of a short ``tune`` run on base, a 6-dim relu toy model with hidden width 12."""
    config = tmp_path / "tune.json"
    config.write_text(json.dumps({"task": {"token_dim": 6}, "model": {"hidden_dim": 12},
                                  "moe": {"n_replicas": 2, "granularity": 2},
                                  "train": {"steps": 2, "batch": 8, "eval_tokens": 64, "probe_tokens": 16}}))
    return main(["tune", "--config", str(config), "--base", str(base), "--out", str(tmp_path / "tuned")])


def test_ffn_binary_roundtrip(tmp_path, rng):
    p = random_ffn(rng, 5, 12, "gelu")
    path = tmp_path / "toy.ckpt"
    save_toy_model(path, _around(p))
    _assert_ffn_equal(load_toy_model(path).block, p)


def test_ffn_binary_roundtrip_f32(tmp_path, rng):
    p = random_ffn(rng, 3, 4, dtype=np.float32)
    path = tmp_path / "toy32.ckpt"
    save_toy_model(path, _around(p))
    loaded = load_toy_model(path).block
    assert loaded.w1.dtype == np.float32
    _assert_ffn_equal(loaded, p)


def test_bad_magic_rejected(tmp_path, rng):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(FormatError, match="magic"):
        load_toy_model(path)
    # the same defect in the nested FFN container
    raw = bytearray(_toy_bytes(tmp_path, init_toy_model(6, 12, seed=4)))
    assert raw[_NESTED:_NESTED + 4] == b"MFFN"
    raw[_NESTED:_NESTED + 4] = b"NOPE"
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="magic"):
        load_toy_model(path)


def test_unsupported_version_rejected(tmp_path, rng):
    raw = bytearray(_toy_bytes(tmp_path, init_toy_model(6, 12, seed=4)))
    raw[_NESTED + 4] = 99  # the nested container's version field
    path = tmp_path / "toy.ckpt"
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="version"):
        load_toy_model(path)


def test_truncated_payload_rejected(tmp_path, rng):
    # cut 16 bytes off the nested FFN payload and shrink the blob length to match
    raw = _toy_bytes(tmp_path, init_toy_model(6, 12, seed=4))
    (blob_len,) = struct.unpack("<Q", raw[_TOY_HEADER:_NESTED])
    path = tmp_path / "toy.ckpt"
    path.write_bytes(raw[:_TOY_HEADER] + struct.pack("<Q", blob_len - 16) + raw[_NESTED:-16])
    with pytest.raises(FormatError, match="truncated container payload"):
        load_toy_model(path)


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
        block = random_ffn(rng, 6, 12, dtype=np.float32)
    else:
        block = expand_supernet(random_ffn(rng, 6, 12, dtype=np.float32),
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
    granularity_at = _NESTED + 4 + 6 * 4
    assert struct.unpack("<I", raw[granularity_at:granularity_at + 4]) == (2,)
    raw[granularity_at:granularity_at + 4] = struct.pack("<I", 0)
    path = tmp_path / "toy.ckpt"
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="granularity"):
        load_toy_model(path)


def test_nested_moe_top_k_zero_rejected(tmp_path):
    # the writer stores the resolved top_k, and MoeConfig takes no top_k of 0
    dense = init_toy_model(6, 12, seed=4)
    layer = expand_supernet(dense.block, MoeConfig(token_dim=6, hidden_dim=12, n_replicas=2, granularity=2))
    raw = bytearray(_toy_bytes(tmp_path, ToyModel(dense.input_w, dense.input_b, layer,
                                                  dense.head_w, dense.head_b)))
    # past the magic: u32 version, dtype, activation, token_dim, hidden_dim, n_replicas, granularity
    top_k_at = _NESTED + 4 + 7 * 4
    assert struct.unpack("<I", raw[top_k_at:top_k_at + 4]) == (2,)
    raw[top_k_at:top_k_at + 4] = struct.pack("<I", 0)
    path = tmp_path / "toy.ckpt"
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match=r"invalid MMOE header: MoeConfig: top_k 0 out of range \[1, 4\]"):
        load_toy_model(path)


def test_nested_moe_nan_weight_rejected(tmp_path, capsys):
    dense = init_toy_model(6, 12, seed=4)
    layer = expand_supernet(dense.block, MoeConfig(token_dim=6, hidden_dim=12, n_replicas=2, granularity=2))
    raw = _toy_bytes(tmp_path, ToyModel(dense.input_w, dense.input_b, layer, dense.head_w, dense.head_b))
    # the file ends with the nested block's router bias: make its last f64 a NaN
    path = tmp_path / "toy.ckpt"
    path.write_bytes(raw[:-8] + struct.pack("<d", float("nan")))
    with pytest.raises(FormatError, match="invalid MMOE block: RouterParams: non-finite"):
        load_toy_model(path)
    assert main(["split-inspect", "--ckpt", str(path), "--granularity", "2"]) == 2
    assert capsys.readouterr().err.startswith("input error: invalid MMOE block")


@pytest.mark.parametrize("field, at, defect", [
    (struct.pack("<I", 65536), 12, "truncated container payload"),  # token_dim: a 32 GiB input_w
    (struct.pack("<I", 2**32 - 1), 12, "truncated container payload"),  # its size wraps a 64-bit product
    (struct.pack("<Q", 2**62), _TOY_HEADER, "truncated nested block"),  # the blob length
], ids=["token_dim-65536", "token_dim-2^32-1", "blob-2^62"])
def test_length_past_the_file_rejected(tmp_path, capsys, field, at, defect):
    raw = bytearray(_toy_bytes(tmp_path, init_toy_model(6, 12, seed=4)))
    raw[at:at + len(field)] = field
    path = tmp_path / "toy.ckpt"
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match=defect):
        load_toy_model(path)
    assert _tune(tmp_path, path) == 2
    assert capsys.readouterr().err.startswith(f"input error: {defect}")


def test_non_finite_outer_weight_rejected(tmp_path, capsys):
    raw = bytearray(_toy_bytes(tmp_path, init_toy_model(6, 12, seed=4)))
    raw[20:28] = struct.pack("<d", float("nan"))  # input_w[0, 0], right after the MTOY header
    path = tmp_path / "toy.ckpt"
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="invalid MTOY weights: non-finite"):
        load_toy_model(path)
    assert main(["split-inspect", "--ckpt", str(path), "--granularity", "2"]) == 2
    assert _tune(tmp_path, path) == 2
    assert capsys.readouterr().err.count("input error: invalid MTOY weights: non-finite") == 2


def test_non_finite_base_evaluation_is_an_identity_violation(tmp_path, capsys):
    # finite weights whose outputs overflow: the base and step-0 mse are both inf
    model = init_toy_model(6, 12, seed=4)
    model.head_w *= 1e200
    path = tmp_path / "toy.ckpt"
    save_toy_model(path, model)
    with np.errstate(over="ignore", invalid="ignore"):
        assert _tune(tmp_path, path) == 4
    assert capsys.readouterr().err.startswith("identity violation: step-0 eval mse inf")


def _checkpoint_model(kind, dtype, rng=None) -> ToyModel:
    """A 5-dim toy model around a dense block or around its 3x2 supernet, perturbed by rng."""
    dense = init_toy_model(5, 8, seed=3, dtype=dtype)
    block = dense.block
    if kind == "moe":
        block = expand_supernet(block, MoeConfig(token_dim=5, hidden_dim=8, n_replicas=3, granularity=2, seed=7))
        if rng is not None:
            block.experts.w1 += rng.normal(size=block.experts.w1.shape).astype(dtype)
    return ToyModel(dense.input_w, dense.input_b, block, dense.head_w, dense.head_b)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_checkpoint_layout(tmp_path, rng, dtype):
    # the whole file: MTOY header, input and head weights, blob length, then the
    # nested MFFN (header, w1|b1|w2|b2) or MMOE (header, each expert's w1|b1|w2|b2
    # in index order, the router)
    code, le = (0, "<f8") if dtype == np.float64 else (1, "<f4")
    for kind in ("dense", "moe"):
        model = _checkpoint_model(kind, dtype, rng)
        if kind == "dense":
            arrays = [model.block]
            nested = struct.pack("<4s5I", b"MFFN", 1, code, 0, 5, 8)
        else:
            arrays = list(model.block.experts)
            nested = struct.pack("<4s8IQ", b"MMOE", 1, code, 0, 5, 8, 3, 2, 2, 7)
        nested += b"".join(a.astype(le).tobytes() for e in arrays for a in (e.w1, e.b1, e.w2, e.b2))
        if kind == "moe":
            nested += model.block.router.w_r.astype(le).tobytes() + model.block.router.b_r.astype(le).tobytes()
        outer = b"".join(a.astype(le).tobytes() for a in (model.input_w, model.input_b, model.head_w, model.head_b))
        expected = (struct.pack("<4s4I", b"MTOY", 1, code, 5, int(kind == "moe")) + outer
                    + struct.pack("<Q", len(nested)) + nested)
        assert _toy_bytes(tmp_path, model) == expected


_MUTATION = st.one_of(
    # one to four byte flips, half of them in the first 120 bytes, where the headers are
    st.tuples(st.just("flip"), st.lists(st.tuples(st.integers(0, 119) | st.integers(0, 2**20),
                                                  st.integers(0, 255)), min_size=1, max_size=4)),
    st.tuples(st.just("truncate"), st.integers(0, 2**20)),
    st.tuples(st.just("append"), st.binary(min_size=1, max_size=64)),
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["dense", "moe"]), st.sampled_from([np.float64, np.float32]), _MUTATION)
def test_any_mutated_checkpoint_gives_model_or_format_error(tmp_path_factory, kind, dtype, mutation):
    path = tmp_path_factory.getbasetemp() / "mutated.ckpt"
    save_toy_model(path, _checkpoint_model(kind, dtype))
    raw = bytearray(path.read_bytes())
    op, arg = mutation
    if op == "flip":
        for at, value in arg:
            raw[at % len(raw)] = value
    elif op == "truncate":
        raw = raw[:arg % len(raw)]
    else:
        raw += arg
    path.write_bytes(bytes(raw))
    try:
        model = load_toy_model(path)
    except FormatError:
        return
    assert isinstance(model, ToyModel)


_GOOD_RECORD = {"token_id": 0, "selected": [1, 3], "scores": [0.25, 0.25, 0.25, 0.25]}


def _second(**changes):
    record = {**_GOOD_RECORD, "token_id": 1, **changes}
    return json.dumps({k: v for k, v in record.items() if v is not None})


@pytest.mark.parametrize("line, defect", [
    ('{"token_id": 1, "selected": [1, 3],', "invalid JSON"),
    ("[1, 3]", "not a JSON object"),
    (_second(selected=None), "missing key 'selected'"),
    (_second(scores=None), "missing key 'scores'"),
    (_second(selected=[0, 1, 3]), "ragged row"),
    (_second(scores=[0.2] * 5), "ragged row"),
    (_second(token_id=5), "token_id 5, expected 1"),
    (_second(token_id="1"), "token_id '1', expected 1"),
    (_second(selected=[3, 3]), "does not ascend strictly"),
    (_second(selected=[3, 1]), "does not ascend strictly"),
    (_second(selected=[1, 4]), "out of range"),
    (_second(selected=[-1, 1]), "out of range"),
    (_second(selected=[1.0, 3.0]), "not a list of integers"),
    (_second(scores=["0.25"] * 4), "not a list of numbers"),
    (_second(scores=[float("nan"), 0.25, 0.25, 0.25]), "finite"),
    (_second(scores=[float("inf"), 0.25, 0.25, 0.25]), "finite"),
    (_second(scores=[-0.25, 0.75, 0.25, 0.25]), "non-negative"),
    (_second(scores=[0.25, 0.25, 0.25, 0.2501]), "not 1 within 1e-6"),
])
def test_trace_defect_names_file_and_line(tmp_path, line, defect):
    path = tmp_path / "trace.jsonl"
    path.write_text(json.dumps(_GOOD_RECORD) + "\n\n" + line + "\n")
    with pytest.raises(FormatError, match=rf"^{re.escape(str(path))}:3: .*{re.escape(defect)}"):
        read_trace_jsonl(path)


def test_trace_first_row_defects(tmp_path):
    path = tmp_path / "trace.jsonl"
    for record, defect in (({"token_id": 1, "selected": [0], "scores": [1.0]}, "token_id 1, expected 0"),
                           ({"token_id": 0, "selected": [], "scores": [1.0]}, "0 selected of 1")):
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(FormatError, match=rf":1: {defect}"):
            read_trace_jsonl(path)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=10)
# records that are often valid, and records with any subset of the keys holding anything
_RECORD = st.fixed_dictionaries({
    "token_id": st.integers(0, 1),
    "selected": st.sampled_from([[0, 2], [1, 3], [2, 2], [3], [0, 4]]),
    "scores": st.sampled_from([[0.25] * 4, [0.5, 0.0, 0.5, 0.0], [1.0, 0.0], [0.5, -0.5, 1.0, 0.0]]),
}) | st.fixed_dictionaries({}, optional={
    "token_id": st.integers(-1, 2) | _JSON,
    "selected": st.lists(st.integers(-1, 4), max_size=4) | _JSON,
    "scores": st.lists(st.floats(), max_size=5) | _JSON,
})
_LINE = st.one_of(_RECORD.map(json.dumps), _JSON.map(json.dumps), st.text(max_size=20),
                  st.binary(max_size=20))


@settings(max_examples=300, deadline=None)
@given(st.lists(_LINE, max_size=4))
def test_any_jsonl_gives_trace_or_format_error(tmp_path_factory, lines):
    path = tmp_path_factory.getbasetemp() / "any.jsonl"
    path.write_bytes(b"\n".join(x if isinstance(x, bytes) else x.encode("utf-8", "surrogatepass")
                                for x in lines))
    try:
        trace = read_trace_jsonl(path)
    except FormatError:
        return
    assert isinstance(trace, RoutingTrace) and trace.n_tokens >= 1


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_trace_write_read_roundtrip(tmp_path_factory, data):
    n_experts = data.draw(st.integers(1, 6))
    top_k = data.draw(st.integers(1, n_experts))
    n_tokens = data.draw(st.integers(1, 5))
    raw = np.array(data.draw(st.lists(st.floats(0.01, 1.0), min_size=n_tokens * n_experts,
                                      max_size=n_tokens * n_experts))).reshape(n_tokens, n_experts)
    rows = [sorted(data.draw(st.lists(st.integers(0, n_experts - 1), min_size=top_k, max_size=top_k,
                                      unique=True))) for _ in range(n_tokens)]
    trace = RoutingTrace(raw / raw.sum(axis=1, keepdims=True), np.array(rows))
    path = tmp_path_factory.getbasetemp() / "roundtrip.jsonl"
    write_trace_jsonl(path, trace)
    written = path.read_bytes()
    loaded = read_trace_jsonl(path)
    assert np.array_equal(loaded.scores, trace.scores) and np.array_equal(loaded.selected, trace.selected)
    write_trace_jsonl(path, loaded)
    assert path.read_bytes() == written


def _json_dumps_trace(trace) -> str:
    """The trace text as one json.dumps per token."""
    return "".join(json.dumps({"token_id": t, "selected": [int(i) for i in trace.selected[t]],
                               "scores": [float(s) for s in trace.scores[t]]}) + "\n"
                   for t in range(trace.n_tokens))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_trace_writer_matches_json_dumps(tmp_path_factory, data):
    # any float, NaN, +-inf, -0.0, subnormals and huge values included, float32 too
    n_experts = data.draw(st.integers(1, 6))
    top_k = data.draw(st.one_of(st.just(n_experts), st.integers(1, n_experts)))
    n_tokens = data.draw(st.integers(0, 5))
    dtype = data.draw(st.sampled_from([np.float64, np.float32]))
    floats = st.floats(width=64 if dtype == np.float64 else 32)
    scores = np.array(data.draw(st.lists(floats, min_size=n_tokens * n_experts, max_size=n_tokens * n_experts)),
                      dtype=dtype).reshape(n_tokens, n_experts)
    rows = [sorted(data.draw(st.lists(st.integers(0, n_experts - 1), min_size=top_k, max_size=top_k,
                                      unique=True))) for _ in range(n_tokens)]
    trace = RoutingTrace(scores, np.array(rows, dtype=np.int64).reshape(n_tokens, top_k))
    path = tmp_path_factory.getbasetemp() / "dumps.jsonl"
    write_trace_jsonl(path, trace)
    assert path.read_text() == _json_dumps_trace(trace)


def test_trace_writer_slices_match_json_dumps(tmp_path, monkeypatch, rng):
    # rows are listed a slice at a time; non-finite rows fall in several slices
    monkeypatch.setattr(serialize, "_TRACE_SLICE", 3)
    layer, _, cfg = random_layer(rng, perturb=0.4)
    _, trace = dispatch_batch(layer, rng.normal(size=(10, cfg.token_dim)))
    trace.scores[[1, 4, 9], [0, 1, 2]] = [np.nan, np.inf, -np.inf]
    path = tmp_path / "trace.jsonl"
    write_trace_jsonl(path, trace)
    text = path.read_text()
    assert text == _json_dumps_trace(trace)
    assert "NaN" in text and "-Infinity" in text


def test_labels_csv_roundtrip(tmp_path):
    path = tmp_path / "labels.csv"
    write_labels_csv(path, np.array([2, 0, 1]))
    assert path.read_text() == "token_id,label\n0,2\n1,0\n2,1\n"
    assert read_labels_csv(path, 3).tolist() == [2, 0, 1]


@pytest.mark.parametrize("text, defect", [
    ("token,label\n0,1\n1,0\n", ":1: expected header"),
    ("token_id,label\n7,1\n3,0\n", ":2: token_id 7, expected 0"),
    ("token_id,label\n0,1\n0,0\n", ":3: token_id 0, expected 1"),
    ("token_id,label\n0,1\n1,x\n", ":3: expected two integers"),
    ("token_id,label\n0,1\n1,0,4\n", ":3: expected two integers"),
    ("token_id,label\n0,1\n", ": 1 labels for a trace of 2 tokens"),
    ("token_id,label\n0,1\n1,0\n2,0\n", ": 3 labels for a trace of 2 tokens"),
])
def test_labels_defect_rejected(tmp_path, text, defect):
    path = tmp_path / "labels.csv"
    path.write_text(text)
    with pytest.raises(FormatError, match=rf"^{re.escape(str(path) + defect)}"):
        read_labels_csv(path, 2)
