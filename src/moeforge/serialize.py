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
dtype, and ends the file. No container may be followed by stray bytes. The
reader returns a valid model or raises ``FormatError`` naming the defect, a
non-finite weight or a length past the end of the file included; every length
is checked against the bytes left before anything is allocated.

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
from dataclasses import astuple

import numpy as np

from .ffn import FfnParams
from .harness import ToyModel
from .moe import MoeConfig, MoeLayer, RouterParams, RoutingTrace
from .numkernel import ShapeError

MAGIC_FFN = b"MFFN"
MAGIC_MOE = b"MMOE"
MAGIC_TOY = b"MTOY"
FORMAT_VERSION = 1

# Each container's header after its magic, shared by its writer and its
# reader: u32 version, u32 dtype code, then the fields the layouts above list.
# MMOE's fields after the activation are MoeConfig's, in field order.
_FFN_HEADER = "<5I"
_MOE_HEADER = "<8IQ"
_TOY_HEADER = "<4I"

_DTYPE_CODES = (np.dtype("<f8"), np.dtype("<f4"))
_ACTIVATION_CODES = ("relu", "gelu")


class FormatError(ValueError):
    """Raised when a container's magic, version, or structure is wrong."""


def _encode(table: tuple, value, what: str) -> int:
    if value not in table:
        raise FormatError(f"unsupported {what} {value}")
    return table.index(value)


def _decode(table: tuple, code: int, what: str):
    if code >= len(table):
        raise FormatError(f"unknown {what} code {code}")
    return table[code]


def _write_header(f, magic: bytes, fmt: str, dtype, *fields: int) -> np.dtype:
    """Write magic and header, dtype code included; return the payload dtype."""
    dtype = np.dtype(dtype).newbyteorder("<")
    f.write(magic + struct.pack(fmt, FORMAT_VERSION, _encode(_DTYPE_CODES, dtype, "dtype"), *fields))
    return dtype


def _unpack(f, fmt: str) -> tuple:
    size = struct.calcsize(fmt)
    data = f.read(size)
    if len(data) != size:
        raise FormatError("truncated container header")
    return struct.unpack(fmt, data)


def _read_header(f, magic: bytes, fmt: str) -> tuple:
    """(payload dtype, *fields) of the header :func:`_write_header` wrote."""
    got = f.read(4)
    if got != magic:
        raise FormatError(f"bad magic {got!r}, expected {magic!r}")
    version, dtype_code, *fields = _unpack(f, fmt)
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported container version {version}")
    return (_decode(_DTYPE_CODES, dtype_code, "dtype"), *fields)


def _left(f: io.BytesIO) -> int:
    return f.getbuffer().nbytes - f.tell()


def _write_array(f, a: np.ndarray, dtype) -> None:
    f.write(np.ascontiguousarray(a, dtype=dtype).tobytes())


def _read_array(f: io.BytesIO, shape: tuple[int, ...], dtype) -> np.ndarray:
    # Python ints, so a forged shape cannot wrap around to a small or negative size
    size = math.prod(shape) * dtype.itemsize
    if size > _left(f):
        raise FormatError("truncated container payload")
    return np.frombuffer(f.read(size), dtype=dtype).reshape(shape).copy()


def _dump_ffn(f, p: FfnParams) -> None:
    if p.w1.ndim != 2:
        raise ShapeError("_dump_ffn", p.w1.shape)
    dtype = _write_header(f, MAGIC_FFN, _FFN_HEADER, p.w1.dtype,
                          _encode(_ACTIVATION_CODES, p.activation, "activation"), p.token_dim, p.hidden_dim)
    for a in (p.w1, p.b1, p.w2, p.b2):
        _write_array(f, a, dtype)


def _parse_ffn(f: io.BytesIO) -> FfnParams:
    dtype, act_code, dim, hidden = _read_header(f, MAGIC_FFN, _FFN_HEADER)
    activation = _decode(_ACTIVATION_CODES, act_code, "activation")
    shapes = ((hidden, dim), (hidden,), (dim, hidden), (dim,))
    w1, b1, w2, b2 = (_read_array(f, shape, dtype) for shape in shapes)
    try:
        return FfnParams(w1, b1, w2, b2, activation)
    except ValueError as e:  # a zero dimension or a non-finite weight
        raise FormatError(f"invalid MFFN block: {e}") from None


def _dump_moe(f, layer: MoeLayer) -> None:
    cfg, ex = layer.config, layer.experts
    dtype = _write_header(f, MAGIC_MOE, _MOE_HEADER, ex.w1.dtype,
                          _encode(_ACTIVATION_CODES, ex.activation, "activation"), *astuple(cfg))
    n = cfg.n_experts
    _write_array(f, np.concatenate([ex.w1.reshape(n, -1), ex.b1, ex.w2.reshape(n, -1), ex.b2], axis=1), dtype)
    _write_array(f, layer.router.w_r, dtype)
    _write_array(f, layer.router.b_r, dtype)


def _parse_moe(f: io.BytesIO) -> MoeLayer:
    dtype, act_code, *fields = _read_header(f, MAGIC_MOE, _MOE_HEADER)
    activation = _decode(_ACTIVATION_CODES, act_code, "activation")
    # the writer stores the resolved top_k; MoeConfig would read a 0 as "track granularity"
    if fields[4] == 0:
        raise FormatError("invalid MMOE header: top_k 0 out of range [1, n_experts]")
    try:
        cfg = MoeConfig(*fields)
    except ValueError as e:
        raise FormatError(f"invalid MMOE header: {e}") from None
    n, width, dim = cfg.n_experts, cfg.expert_hidden_dim, cfg.token_dim
    rows = _read_array(f, (n, 2 * width * dim + width + dim), dtype)
    w1, b1, w2, b2 = (a.copy() for a in np.split(rows, np.cumsum([width * dim, width, dim * width]), axis=1))
    w_r = _read_array(f, (n, dim), dtype)
    b_r = _read_array(f, (n,), dtype)
    try:
        experts = FfnParams(w1.reshape(n, width, dim), b1, w2.reshape(n, dim, width), b2, activation)
        return MoeLayer(cfg, experts, RouterParams(w_r, b_r))
    except ValueError as e:  # a non-finite expert or router weight
        raise FormatError(f"invalid MMOE block: {e}") from None


def save_toy_model(path, model: ToyModel) -> None:
    """Write a harness ToyModel; the block nests as its own container."""
    kind = int(isinstance(model.block, MoeLayer))
    blob = io.BytesIO()
    (_dump_moe if kind else _dump_ffn)(blob, model.block)
    payload = blob.getvalue()
    with open(path, "wb") as f:
        dtype = _write_header(f, MAGIC_TOY, _TOY_HEADER, model.input_w.dtype, model.input_w.shape[0], kind)
        for a in (model.input_w, model.input_b, model.head_w, model.head_b):
            _write_array(f, a, dtype)
        f.write(struct.pack("<Q", len(payload)) + payload)


def load_toy_model(path) -> ToyModel:
    """Read a :func:`save_toy_model` file; any defect raises FormatError."""
    with open(path, "rb") as raw:
        f = io.BytesIO(raw.read())
    dtype, dim, kind = _read_header(f, MAGIC_TOY, _TOY_HEADER)
    shapes = ((dim, dim), (dim,), (dim, dim), (dim,))
    input_w, input_b, head_w, head_b = (_read_array(f, shape, dtype) for shape in shapes)
    if not all(np.isfinite(a).all() for a in (input_w, input_b, head_w, head_b)):
        raise FormatError("invalid MTOY weights: non-finite values encountered")
    (blob_len,) = _unpack(f, "<Q")
    if blob_len > _left(f):
        raise FormatError("truncated nested block")
    if blob_len < _left(f):
        raise FormatError("trailing bytes after the nested block")
    if kind not in (0, 1):
        raise FormatError(f"unknown block kind {kind}")
    block = (_parse_moe if kind else _parse_ffn)(f)
    ffn = block.experts if kind else block
    if _left(f):
        raise FormatError(f"{_left(f)} unread bytes inside the nested block")
    if ffn.token_dim != dim:
        raise FormatError(f"nested block token_dim {ffn.token_dim} differs from the model's {dim}")
    if ffn.w1.dtype != dtype:
        raise FormatError(f"nested block dtype {ffn.w1.dtype} differs from the model's {dtype}")
    return ToyModel(input_w, input_b, block, head_w, head_b)


# Rows write_trace_jsonl turns into Python lists and text at a time, so its
# memory does not grow with the trace. At 16 experts a slice of 256 rows
# peaks at 0.4 MB (tracemalloc) and one of 4096 rows at 6 MB, which showed
# in a default tune's peak RSS; from 256 rows up, the time per row is flat.
_TRACE_SLICE = 256


def write_trace_jsonl(path, trace: RoutingTrace) -> None:
    """One ``{"token_id": t, "selected": [...], "scores": [...]}`` line per token.

    The text is ``json.dumps``'s: a finite row is formatted from the repr of
    its Python lists, the same text json writes for ints and floats, and a
    row holding NaN or inf goes through json.dumps, which spells those
    ``NaN``/``Infinity``. float32 scores are written as the float64 values
    they widen to.
    """
    with open(path, "w") as f:
        for lo in range(0, trace.n_tokens, _TRACE_SLICE):
            hi = lo + _TRACE_SLICE
            scores = trace.scores[lo:hi].astype(np.float64, copy=False)
            rows = zip(range(lo, hi), trace.selected[lo:hi].tolist(), scores.tolist(),
                       np.isfinite(scores).all(axis=1).tolist())
            f.write("".join(
                f'{{"token_id": {t}, "selected": {sel!r}, "scores": {sc!r}}}\n' if ok
                else json.dumps({"token_id": t, "selected": sel, "scores": sc}) + "\n"
                for t, sel, sc, ok in rows))


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
    return RoutingTrace(np.array(scores), np.array(selected, dtype=np.int64))


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
