"""Versioned weight containers and trace export.

One file format holds weights: the toy model container ``MTOY``, with its
block nested inside as an ``MFFN`` or ``MMOE`` container. Binary layout (all
integers little-endian, payloads row-major in the declared dtype):

FFN container, magic ``MFFN`` version 1::

    magic[4] | u32 version | u32 dtype (0=f64, 1=f32) | u32 activation
    | u32 token_dim | u32 hidden_dim
    | w1 (hidden*dim) | b1 (hidden) | w2 (dim*hidden) | b2 (dim)

MoE layer container, magic ``MMOE`` version 1::

    magic[4] | u32 version | u32 dtype | u32 activation
    | u32 token_dim | u32 hidden_dim | u32 n_replicas | u32 granularity
    | u32 top_k | u64 seed
    | experts in index order, each (w1 | b1 | w2 | b2) at width hidden/granularity,
      i.e. one (n_experts, 2*width*dim + width + dim) block
    | w_r (n_experts*dim) | b_r (n_experts)

Toy model container, magic ``MTOY`` version 1::

    magic[4] | u32 version | u32 dtype | u32 token_dim | u32 block kind (0=dense, 1=moe)
    | input_w (dim*dim) | input_b (dim) | head_w (dim*dim) | head_b (dim)
    | u64 blob length | nested FFN or MoE container bytes

The nested container fills its blob exactly, shares the outer token_dim and
dtype, and ends the file. No container may be followed by stray bytes.

Routing traces export as JSON lines, one record per token:
``{"token_id": t, "selected": [...], "scores": [...]}``. Token labels export
as a ``token_id,label`` CSV. The readers of both reject any defect with a
``FormatError`` naming the file and line.
"""

from __future__ import annotations

import io
import json
import math
import struct

import numpy as np

from .ffn import FfnParams
from .moe import MoeConfig, MoeLayer, RouterParams, RoutingTrace
from .numkernel import ShapeError

MAGIC_FFN = b"MFFN"
MAGIC_MOE = b"MMOE"
MAGIC_TOY = b"MTOY"
FORMAT_VERSION = 1

_DTYPE_CODES = {0: np.dtype("<f8"), 1: np.dtype("<f4")}
_ACTIVATION_CODES = {0: "relu", 1: "gelu"}


class FormatError(ValueError):
    """Raised when a container's magic, version, or structure is wrong."""


def _dtype_code(dtype) -> int:
    dt = np.dtype(dtype)
    for code, candidate in _DTYPE_CODES.items():
        if candidate == dt.newbyteorder("<"):
            return code
    raise FormatError(f"unsupported dtype {dt}")


def _activation_code(name: str) -> int:
    for code, candidate in _ACTIVATION_CODES.items():
        if candidate == name:
            return code
    raise FormatError(f"unsupported activation {name!r}")


def _write_u32(f, *values: int) -> None:
    f.write(struct.pack("<" + "I" * len(values), *values))


def _read_u32(f, count: int) -> tuple[int, ...]:
    data = f.read(4 * count)
    if len(data) != 4 * count:
        raise FormatError("truncated container header")
    return struct.unpack("<" + "I" * count, data)


def _write_array(f, a: np.ndarray, dtype) -> None:
    f.write(np.ascontiguousarray(a, dtype=dtype).tobytes())


def _read_array(f, shape: tuple[int, ...], dtype) -> np.ndarray:
    count = int(np.prod(shape)) if shape else 1
    data = f.read(count * dtype.itemsize)
    if len(data) != count * dtype.itemsize:
        raise FormatError("truncated container payload")
    return np.frombuffer(data, dtype=dtype).reshape(shape).copy()


def _expect_magic(f, magic: bytes) -> None:
    got = f.read(4)
    if got != magic:
        raise FormatError(f"bad magic {got!r}, expected {magic!r}")
    (version,) = _read_u32(f, 1)
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported container version {version}")


def _dump_ffn(f, p: FfnParams) -> None:
    if p.w1.ndim != 2:
        raise ShapeError("_dump_ffn", p.w1.shape)
    dtype = np.dtype(p.w1.dtype).newbyteorder("<")
    f.write(MAGIC_FFN)
    _write_u32(f, FORMAT_VERSION, _dtype_code(dtype), _activation_code(p.activation),
               p.token_dim, p.hidden_dim)
    for a in (p.w1, p.b1, p.w2, p.b2):
        _write_array(f, a, dtype)


def _parse_ffn(f) -> FfnParams:
    _expect_magic(f, MAGIC_FFN)
    dtype_code, act_code, dim, hidden = _read_u32(f, 4)
    if dtype_code not in _DTYPE_CODES or act_code not in _ACTIVATION_CODES:
        raise FormatError(f"unknown dtype/activation codes ({dtype_code}, {act_code})")
    dtype = _DTYPE_CODES[dtype_code]
    w1 = _read_array(f, (hidden, dim), dtype)
    b1 = _read_array(f, (hidden,), dtype)
    w2 = _read_array(f, (dim, hidden), dtype)
    b2 = _read_array(f, (dim,), dtype)
    try:
        return FfnParams(w1, b1, w2, b2, _ACTIVATION_CODES[act_code])
    except ValueError as e:  # a zero dimension or a non-finite weight
        raise FormatError(f"invalid MFFN block: {e}") from None


def _dump_moe(f, layer: MoeLayer) -> None:
    cfg, ex = layer.config, layer.experts
    dtype = np.dtype(ex.w1.dtype).newbyteorder("<")
    f.write(MAGIC_MOE)
    _write_u32(f, FORMAT_VERSION, _dtype_code(dtype), _activation_code(ex.activation),
               cfg.token_dim, cfg.hidden_dim, cfg.n_replicas, cfg.granularity, cfg.top_k)
    f.write(struct.pack("<Q", cfg.seed))
    n = cfg.n_experts
    _write_array(f, np.concatenate([ex.w1.reshape(n, -1), ex.b1, ex.w2.reshape(n, -1), ex.b2], axis=1), dtype)
    _write_array(f, layer.router.w_r, dtype)
    _write_array(f, layer.router.b_r, dtype)


def _parse_moe(f) -> MoeLayer:
    _expect_magic(f, MAGIC_MOE)
    dtype_code, act_code, dim, hidden, n_replicas, granularity, top_k = _read_u32(f, 7)
    seed_raw = f.read(8)
    if len(seed_raw) != 8:
        raise FormatError("truncated container header")
    (seed,) = struct.unpack("<Q", seed_raw)
    if dtype_code not in _DTYPE_CODES or act_code not in _ACTIVATION_CODES:
        raise FormatError(f"unknown dtype/activation codes ({dtype_code}, {act_code})")
    dtype = _DTYPE_CODES[dtype_code]
    activation = _ACTIVATION_CODES[act_code]
    try:
        cfg = MoeConfig(token_dim=dim, hidden_dim=hidden, n_replicas=n_replicas,
                        granularity=granularity, top_k=top_k, seed=seed)
    except ValueError as e:
        raise FormatError(f"invalid MMOE header: {e}") from None
    n, width = cfg.n_experts, cfg.expert_hidden_dim
    rows = _read_array(f, (n, 2 * width * dim + width + dim), dtype)
    w1, b1, w2, b2 = (a.copy() for a in np.split(rows, np.cumsum([width * dim, width, dim * width]), axis=1))
    w_r = _read_array(f, (cfg.n_experts, dim), dtype)
    b_r = _read_array(f, (cfg.n_experts,), dtype)
    try:
        experts = FfnParams(w1.reshape(n, width, dim), b1, w2.reshape(n, dim, width), b2, activation)
        return MoeLayer(cfg, experts, RouterParams(w_r, b_r))
    except ValueError as e:  # a non-finite expert or router weight
        raise FormatError(f"invalid MMOE block: {e}") from None


def save_toy_model(path, model) -> None:
    """Write a harness ToyModel; the block nests as its own container."""
    dtype = np.dtype(model.input_w.dtype).newbyteorder("<")
    blob = io.BytesIO()
    if isinstance(model.block, MoeLayer):
        kind = 1
        _dump_moe(blob, model.block)
    else:
        kind = 0
        _dump_ffn(blob, model.block)
    payload = blob.getvalue()
    with open(path, "wb") as f:
        f.write(MAGIC_TOY)
        _write_u32(f, FORMAT_VERSION, _dtype_code(dtype), model.input_w.shape[0], kind)
        for a in (model.input_w, model.input_b, model.head_w, model.head_b):
            _write_array(f, a, dtype)
        f.write(struct.pack("<Q", len(payload)))
        f.write(payload)


def load_toy_model(path):
    from .harness import ToyModel  # local import; harness depends on this module

    with open(path, "rb") as f:
        _expect_magic(f, MAGIC_TOY)
        dtype_code, dim, kind = _read_u32(f, 3)
        if dtype_code not in _DTYPE_CODES:
            raise FormatError(f"unknown dtype code {dtype_code}")
        dtype = _DTYPE_CODES[dtype_code]
        input_w = _read_array(f, (dim, dim), dtype)
        input_b = _read_array(f, (dim,), dtype)
        head_w = _read_array(f, (dim, dim), dtype)
        head_b = _read_array(f, (dim,), dtype)
        size_raw = f.read(8)
        if len(size_raw) != 8:
            raise FormatError("truncated container header")
        (blob_len,) = struct.unpack("<Q", size_raw)
        blob = f.read(blob_len)
        if len(blob) != blob_len:
            raise FormatError("truncated nested block")
        if f.read(1):
            raise FormatError("trailing bytes after the nested block")
    inner = io.BytesIO(blob)
    if kind == 0:
        block = _parse_ffn(inner)
        block_dim, block_dtype = block.token_dim, block.w1.dtype
    elif kind == 1:
        block = _parse_moe(inner)
        block_dim, block_dtype = block.config.token_dim, block.experts.w1.dtype
    else:
        raise FormatError(f"unknown block kind {kind}")
    if inner.tell() != blob_len:
        raise FormatError(f"{blob_len - inner.tell()} unread bytes inside the nested block")
    if block_dim != dim:
        raise FormatError(f"nested block token_dim {block_dim} differs from the model's {dim}")
    if block_dtype != dtype:
        raise FormatError(f"nested block dtype {block_dtype} differs from the model's {dtype}")
    return ToyModel(input_w, input_b, block, head_w, head_b)


def write_trace_jsonl(path, trace: RoutingTrace) -> None:
    with open(path, "w") as f:
        for t in range(trace.n_tokens):
            record = {
                "token_id": t,
                "selected": [int(i) for i in trace.selected[t]],
                "scores": [float(s) for s in trace.scores[t]],
            }
            f.write(json.dumps(record))
            f.write("\n")


def _trace_record(line: bytes, token_id: int, n_experts: int | None, top_k: int | None):
    """(selected, scores) of one trace line; a defect raises FormatError naming it."""
    try:
        record = json.loads(line)
    except (ValueError, RecursionError) as e:
        raise FormatError(f"invalid JSON: {e}") from None
    if not isinstance(record, dict):
        raise FormatError("record is not a JSON object")
    for key in ("token_id", "selected", "scores"):
        if key not in record:
            raise FormatError(f"missing key {key!r}")
    selected, scores = record["selected"], record["scores"]
    if type(record["token_id"]) is not int or record["token_id"] != token_id:
        raise FormatError(f"token_id {record['token_id']!r}, expected {token_id}")
    if not isinstance(selected, list) or not all(type(i) is int for i in selected):
        raise FormatError("selected is not a list of integers")
    if not isinstance(scores, list) or not all(type(v) in (int, float) for v in scores):
        raise FormatError("scores is not a list of numbers")
    if n_experts is not None and (len(selected), len(scores)) != (top_k, n_experts):
        raise FormatError(f"ragged row: {len(selected)} selected and {len(scores)} scores, "
                          f"expected {top_k} and {n_experts}")
    if not 1 <= len(selected) <= len(scores):
        raise FormatError(f"{len(selected)} selected of {len(scores)} scores")
    if any(b <= a for a, b in zip(selected, selected[1:])):
        raise FormatError(f"selected {selected} does not ascend strictly")
    if selected[0] < 0 or selected[-1] >= len(scores):
        raise FormatError(f"selected {selected} out of range [0, {len(scores)})")
    try:
        row = np.array(scores, dtype=np.float64)
    except OverflowError:
        raise FormatError("scores out of float range") from None
    if not (np.all(np.isfinite(row)) and np.all(row >= 0)):
        raise FormatError("scores must be finite and non-negative")
    if abs(math.fsum(row) - 1.0) > 1e-6:
        raise FormatError(f"scores sum to {math.fsum(row)!r}, not 1 within 1e-6")
    return selected, row


def read_trace_jsonl(path) -> RoutingTrace:
    """Read a trace written by :func:`write_trace_jsonl`.

    Every record needs ``token_id`` (0, 1, ... in file order), ``selected``
    (top_k strictly ascending expert indices) and ``scores`` (n_experts
    finite, non-negative values summing to 1 within 1e-6), with the same
    top_k and n_experts on every row. Blank lines are skipped. Any defect
    raises ``FormatError("<path>:<line>: ...")``.
    """
    selected = []
    scores = []
    with open(path, "rb") as f:
        for lineno, line in enumerate(f, 1):
            if not line.strip():
                continue
            shape = (len(scores[0]), len(selected[0])) if scores else (None, None)
            try:
                sel, row = _trace_record(line, len(scores), *shape)
            except FormatError as e:
                raise FormatError(f"{path}:{lineno}: {e}") from None
            selected.append(sel)
            scores.append(row)
    if not scores:
        raise FormatError(f"{path}: empty trace file")
    return RoutingTrace(len(selected[0]), np.array(scores), np.array(selected, dtype=np.int64))


def write_labels_csv(path, labels) -> None:
    """``token_id,label`` CSV: one row per token, token ids 0, 1, ... in order."""
    with open(path, "w") as f:
        f.write("token_id,label\n")
        for t, lab in enumerate(labels):
            f.write(f"{t},{int(lab)}\n")


def read_labels_csv(path, n_tokens: int) -> np.ndarray:
    """Labels of a trace's ``n_tokens`` tokens, from :func:`write_labels_csv`'s format.

    The header, token ids 0..n_tokens-1 in order and exactly n_tokens rows
    are required; blank lines are skipped. Any defect raises
    ``FormatError("<path>:<line>: ...")``.
    """
    labels = []
    with open(path, "rb") as f:
        if f.readline().strip() != b"token_id,label":
            raise FormatError(f"{path}:1: expected header 'token_id,label'")
        for lineno, line in enumerate(f, 2):
            if not line.strip():
                continue
            try:
                token_id, label = map(int, line.split(b","))
            except ValueError:
                raise FormatError(f"{path}:{lineno}: expected two integers 'token_id,label'") from None
            if token_id != len(labels):
                raise FormatError(f"{path}:{lineno}: token_id {token_id}, expected {len(labels)}")
            labels.append(label)
    if len(labels) != n_tokens:
        raise FormatError(f"{path}: {len(labels)} labels for a trace of {n_tokens} tokens")
    return np.array(labels)
