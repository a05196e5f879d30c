"""Dense numeric kernel: matrix products, row softmax, activations, RNG.

Values are plain numpy ``ndarray``s: matrices are 2-D float arrays with
row-major semantics. float64 is the default precision; float32 is an
opt-in mode and callers using it must relax tolerances.

Reproducibility contract
------------------------
Every matrix product in this package funnels through :func:`mm` or its
grouped form :func:`mm_grouped`, which canonicalize operand layout and
evaluate through one kernel chosen at import (:data:`KERNEL`). This buys
two properties everything downstream leans on:

* row stability: ``mm(a, b)[i]`` is bitwise identical to
  ``mm(a[i:i+1], b)[0]``, no matter how many rows are evaluated together
  or whether the operands are views or copies;
* thread independence: results do not depend on process thread settings.

The default kernel is a fixed-block BLAS product: the rows of ``a`` are
zero-padded to a multiple of :data:`ROW_BLOCK` and multiplied as a stack of
``(ROW_BLOCK, n) @ (n, p)`` gemm calls. BLAS picks its code path, tiling and
reduction order from the call shape, and every call a product makes has the
same shape whatever ``m`` is; within a call, each output element is a dot
product over ``n`` whose order does not depend on the element's row. So a
row's bits depend on ``a[i]`` and ``b`` alone. OpenBLAS splits a call across
threads by rows and columns of the output, never along ``n``, so the thread
count does not change the bits either. These are properties of a BLAS build,
not promises of the BLAS interface. An import-time probe therefore checks
row stability at every block position, for float64 and float32, on small
shapes (where OpenBLAS may take its small-matrix kernel) and on one large
enough for its blocked, threaded path. If it fails, :func:`mm` uses a
single ``np.einsum`` reduction instead, which keeps both properties on any
platform at ~10x the cost.

:func:`mm_grouped` makes the same gemm calls for many experts at once: one
``np.matmul`` over a ``(G, ROW_BLOCK, n)`` stack of row blocks against a
``(G, n, p)`` stack of each block's own weight, so block g is bitwise
``mm`` of that block and weight. Dispatch routes its expert products
through it wherever the weights are small enough to gather, and so does the
training backward for ``dz1`` and ``dx``. Every other product goes through
:func:`mm`: the router, the input map and head, the per-expert weight
gradients (which reduce over an expert's token count, so padding would
change them), the expert products of large-weight experts (one call per
expert) and those of the per-token loop. The import probe
checks the grouped call block by block against :func:`mm`'s kernel, under
either kernel (under the einsum fallback the grouped call is an
``np.einsum`` too). If it fails, the grouped call makes one kernel call per
block instead; :func:`mm` keeps its kernel either way.

Thread independence is checked by ``tests/test_numkernel.py``, which
compares the bytes of the expert products, plain and grouped, under one and
two BLAS threads; at import it would cost a subprocess. Because bits do not
depend on it, a caller running products on its own thread pool may hold
BLAS at one thread (:func:`single_blas_thread`).

:func:`softmax_rows` keeps the same row-stability property. Together these
make "batched path equals per-token loop, bitwise" a provable invariant
rather than a numerical accident.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import math
import os
from contextlib import contextmanager

import numpy as np


# Stream ids for make_rng; unique across the package so one user seed never
# feeds the same underlying sequence to two consumers.
STREAM_ROUTER = 1
STREAM_TASK = 2
STREAM_EVAL = 3
STREAM_TRAIN = 4
STREAM_PROBE = 5
STREAM_MODEL = 6
STREAM_SHUFFLE = 7
STREAM_BENCH = 8
STREAM_GRADCHECK = 9


class ShapeError(ValueError):
    """Operand shapes do not line up; message names every shape involved."""

    def __init__(self, op: str, *shapes):
        self.op = op
        self.shapes = tuple(tuple(int(n) for n in s) for s in shapes)
        joined = " vs ".join(str(s) for s in self.shapes)
        super().__init__(f"{op}: incompatible shapes {joined}")


# Rows per gemm call of the blocked kernel, the same for every (n, p) and
# dtype. Larger blocks run the expert products faster, but a lone row pays
# for a whole block, which the per-token loop oracle feels. Measured on 2
# vCPUs (Xeon, OpenBLAS 0.3.31): dispatch at the bench-dispatch default shape
# took 0.34 / 0.27 / 0.26 s at 16 / 32 / 64 rows, a lone 1x256x512 row
# 0.11 / 0.18 / 0.25 ms (einsum: 0.04 ms); 128 rows doubled the lone-row
# cost again for a dispatch gain inside the noise.
ROW_BLOCK = 64


def _mm_blocked(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    m, n = a.shape
    blocks = -(-m // ROW_BLOCK)
    if m % ROW_BLOCK:
        padded = np.zeros((blocks * ROW_BLOCK, n), dtype=a.dtype)
        padded[:m] = a
        a = padded
    out = np.matmul(a.reshape(blocks, ROW_BLOCK, n), b)
    return out.reshape(blocks * ROW_BLOCK, b.shape[1])[:m]


def _mm_einsum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("mn,np->mp", a, b)


# Grouped forms of the two kernels: (G, ROW_BLOCK, n) @ (G, n, p), block g
# against its own weight. Each gemm call keeps the blocked kernel's shape.
def _grouped_blocked(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    return np.matmul(a, w)


def _grouped_einsum(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    return np.einsum("gmn,gnp->gmp", a, w)


# The grouped form of last resort: one call of the chosen kernel per block.
def _grouped_per_block(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    out = np.empty(a.shape[:2] + w.shape[2:], dtype=np.result_type(a, w))
    for g in range(len(a)):
        out[g] = _kernel(a[g], w[g])
    return out


# (n, p) probe shapes. A (ROW_BLOCK, n) @ (n, p) call under 100**3
# multiply-adds may take OpenBLAS's small-matrix kernel (the first two); the
# last is above it and above OpenBLAS's threading cut-off, so it takes the
# blocked, threaded path.
_PROBE_SHAPES = ((8, 32), (33, 7), (256, 96))


def _rows_stable(kernel) -> bool:
    """Whether every row of a product through ``kernel`` equals the row alone.

    Rows span a whole block plus one, so every block position and the
    zero-padded tail are covered.
    """
    rng = np.random.default_rng(0)
    for dtype in (np.float64, np.float32):
        for n, p in _PROBE_SHAPES:
            a = rng.standard_normal((ROW_BLOCK + 1, n)).astype(dtype)
            b = rng.standard_normal((n, p)).astype(dtype)
            full = kernel(a, b)
            if not all(np.array_equal(full[i], kernel(a[i:i + 1], b)[0]) for i in range(len(a))):
                return False
    return True


def _groups_match(kernel, grouped) -> bool:
    """Whether every block of a ``grouped`` product equals ``kernel`` on that block.

    Three blocks take the weights of a two-expert stack out of order.
    """
    rng = np.random.default_rng(1)
    for dtype in (np.float64, np.float32):
        for n, p in _PROBE_SHAPES:
            blocks = rng.standard_normal((3, ROW_BLOCK, n)).astype(dtype)
            w = rng.standard_normal((2, n, p)).astype(dtype)[[1, 0, 1]]
            out = grouped(blocks, w)
            if not all(np.array_equal(out[g], kernel(blocks[g], w[g])) for g in range(3)):
                return False
    return True


if _rows_stable(_mm_blocked):
    _kernel, _grouped, KERNEL = _mm_blocked, _grouped_blocked, f"blas-rowblock-{ROW_BLOCK}"
else:
    _kernel, _grouped, KERNEL = _mm_einsum, _grouped_einsum, "einsum"
# A grouped form that rounds any block differently from its kernel gives way
# to one kernel call per block: slower, but mm keeps its kernel and bits.
if not _groups_match(_kernel, _grouped):
    _grouped = _grouped_per_block


def mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-stable matrix product ``a @ b``; see the module docstring.

    Operands are brought to C-contiguous layout first, so the kernel (and
    therefore the exact rounding) depends only on the shapes, never on how
    the caller sliced or transposed its arrays.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError("mm", a.shape, b.shape)
    return _kernel(np.ascontiguousarray(a), np.ascontiguousarray(b))


def mm_grouped(a: np.ndarray, w: np.ndarray, block_expert: np.ndarray) -> np.ndarray:
    """Row-block grouped product: block g of ``a`` times ``w[block_expert[g]]``.

    ``a`` is (G * ROW_BLOCK, n), G whole blocks of rows; ``w`` is an (E, n, p)
    stack; ``block_expert`` holds G indices into it. The result is
    (G * ROW_BLOCK, p), and block g is bitwise ``mm`` of that block and its
    weight: one kernel call makes every gemm call, each of the
    ``(ROW_BLOCK, n) @ (n, p)`` shape that ``mm`` uses. As in ``mm``, the
    stack is brought to C-contiguous layout before the blocks' weights are
    gathered from it, so the rounding does not depend on how the caller
    transposed it (a gathered transposed view would hand BLAS transposed
    operands and change bits).
    """
    a = np.asarray(a)
    w = np.asarray(w)
    block_expert = np.asarray(block_expert)
    if (a.ndim != 2 or w.ndim != 3 or block_expert.ndim != 1
            or a.shape != (len(block_expert) * ROW_BLOCK, w.shape[1])):
        raise ShapeError("mm_grouped", a.shape, w.shape, block_expert.shape)
    blocks, (n, p) = len(block_expert), w.shape[1:]
    weights = np.ascontiguousarray(w)[block_expert]
    out = _grouped(np.ascontiguousarray(a).reshape(blocks, ROW_BLOCK, n), weights)
    return out.reshape(blocks * ROW_BLOCK, p)


@functools.cache
def _openblas_thread_calls():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None.

    The library is already loaded by numpy; opening it again by path returns
    the same handle, so the calls act on the BLAS that :func:`mm` uses.
    Looked up on first use rather than at import.
    """
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas*")
    for path in sorted(glob.glob(libs)):
        try:
            lib = ctypes.CDLL(path)
            get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return None


@contextmanager
def single_blas_thread():
    """Hold BLAS at one thread inside the block, then restore the old count.

    For callers that run products on their own thread pool, where BLAS
    threads on top would oversubscribe the cores. The count is
    process-wide, so it is set and restored, on error too. Bits do not
    depend on it (see the module docstring). Does nothing when the OpenBLAS
    thread calls are not found. Not for concurrent callers: each restores
    the count it found.
    """
    calls = _openblas_thread_calls()
    if calls is None:
        yield
        return
    get, put = calls
    previous = get()
    put(1)
    try:
        yield
    finally:
        put(previous)


# Rows at most this wide take their softmax max down the columns of a
# transposed copy: one reduction over whole columns instead of one per short
# row. Measured on 2 vCPUs (numpy 2.4.6), max time row-wise / transposed:
# 16 columns 1.6x-3.5x faster from 1 to 8192 rows, 1.2x at 16384; 32
# columns 0.4x at 16384 rows, 128 columns 0.14x (the copy costs more than
# the reduction saves).
_NARROW_ROWS = 16


def softmax_rows(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax, max-stabilized; bitwise row-stable."""
    z = np.asarray(z)
    if z.ndim != 2 or z.shape[1] == 0:
        raise ShapeError("softmax_rows", z.shape)
    # A max is exact, so the two ways of taking it give the same bits. The
    # one value they may pick differently is the sign of a zero maximum,
    # which changes no output: z - (+0) and z - (-0) are both z for z != 0,
    # and a zero z gives a zero, of either sign, whose exp is 1.
    if z.shape[1] <= _NARROW_ROWS:
        m = np.ascontiguousarray(z.T).max(axis=0)[:, None]
    else:
        m = np.max(z, axis=-1, keepdims=True)
    # One buffer for the shifted logits, their exponentials and the result;
    # the same operations as exp(z - m) / sum, so the same bits. Integer
    # logits shift in float64, the dtype np.exp would give them.
    e = np.subtract(z, m, dtype=np.result_type(z, 0.0))
    np.exp(e, out=e)
    e /= np.sum(e, axis=-1, keepdims=True)
    return e


def relu(v: np.ndarray) -> np.ndarray:
    return np.maximum(np.asarray(v), 0.0)


def relu_grad(v: np.ndarray) -> np.ndarray:
    # Subgradient convention: exactly 0 at the kink.
    v = np.asarray(v)
    return (v > 0).astype(v.dtype)


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def gelu(v: np.ndarray) -> np.ndarray:
    """tanh-form gelu (self-consistent with :func:`gelu_grad`)."""
    v = np.asarray(v)
    inner = _GELU_C * (v + _GELU_A * v**3)
    return 0.5 * v * (1.0 + np.tanh(inner))


def gelu_grad(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v)
    inner = _GELU_C * (v + _GELU_A * v**3)
    t = np.tanh(inner)
    d_inner = _GELU_C * (1.0 + 3.0 * _GELU_A * v**2)
    return 0.5 * (1.0 + t) + 0.5 * v * (1.0 - t**2) * d_inner


ACTIVATIONS = {
    "relu": (relu, relu_grad),
    "gelu": (gelu, gelu_grad),
}


def activation_pair(name: str):
    try:
        return ACTIVATIONS[name]
    except KeyError:
        raise ValueError(f"unknown activation {name!r}; expected one of {sorted(ACTIVATIONS)}") from None


def check_seed(label: str, seed: int) -> None:
    """Raise ValueError, naming ``label``, unless make_rng takes seed: an unsigned 64-bit integer."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"{label} must be an unsigned 64-bit integer, got {seed}")


def check_size(label: str, value: int) -> int:
    """``value``; a ValueError naming ``label`` if it is below 1, the least size of an array axis or a count."""
    if value < 1:
        raise ValueError(f"{label} must be >= 1, got {value}")
    return value


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Seeded PCG64 generator.

    The (seed, stream) pair fully determines the draw sequence on every
    platform. Distinct stream ids the package uses are listed at module top.
    """
    seed = int(seed)
    check_seed("seed", seed)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(int(stream),))))


def ensure_finite(label: str, *arrays: np.ndarray) -> None:
    for a in arrays:
        if not np.all(np.isfinite(a)):
            raise ValueError(f"{label}: non-finite values encountered")
