import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import moeforge
from moeforge import numkernel
from moeforge.ffn import FfnParams, ffn_forward_batch, init_ffn
from moeforge.moe import RouterParams, route_batch
from moeforge.numkernel import (
    ROW_BLOCK,
    ShapeError,
    gelu,
    gelu_grad,
    make_rng,
    mm,
    mm_grouped,
    relu,
    relu_grad,
    softmax_rows,
)


def _row_product(m, v):
    return mm(v[None, :], m.T)[0]


def _row_softmax(v):
    return softmax_rows(v[None, :])[0]


class TestMatvec:
    """Matrix-vector products, made as one-row mm calls like every per-token path."""

    def test_identity(self):
        assert np.array_equal(_row_product(np.eye(3), np.array([1.0, 2.0, 3.0])),
                              np.array([1.0, 2.0, 3.0]))

    def test_zero_matrix(self):
        assert np.array_equal(_row_product(np.zeros((2, 2)), np.array([3.0, -4.0])),
                              np.zeros(2))

    def test_hand_oracle(self):
        # [[1,2],[3,4]] . (1,1) = (3,7)
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(_row_product(m, np.ones(2)), np.array([3.0, 7.0]))

    def test_identity_property(self):
        rng = make_rng(1)
        for _ in range(30):
            n = int(rng.integers(1, 12))
            v = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4)
            assert np.array_equal(_row_product(np.eye(n), v), v)

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError) as exc:
            _row_product(np.zeros((2, 3)), np.zeros(4))
        assert "(1, 4)" in str(exc.value) and "(3, 2)" in str(exc.value)


def assert_rows_stable():
    # a batched product row must equal the same row computed alone, bitwise;
    # row counts straddle the kernel's block boundaries
    rng = make_rng(2)
    for dtype in (np.float64, np.float32):
        for n in (1, 2, 7, 16, 33, 255):
            for rows in (17, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 1):
                a = (rng.normal(size=(rows, n)) * 10.0 ** rng.integers(-2, 3)).astype(dtype)
                b = rng.normal(size=(n, 9)).astype(dtype)
                full = mm(a, b)
                assert full.dtype == dtype
                for t in range(rows):
                    assert np.array_equal(full[t], mm(a[t:t + 1], b)[0])


@pytest.fixture
def einsum_fallback(monkeypatch):
    monkeypatch.setattr(numkernel, "_kernel", numkernel._mm_einsum)
    monkeypatch.setattr(numkernel, "_grouped", numkernel._grouped_einsum)


def assert_groups_match_mm():
    # every block of a grouped product equals mm on that block and its
    # expert's weight, bitwise, for every (n, p) up to 24; the weights come
    # as a transposed view, which the grouped call must canonicalize the way
    # mm does (gathering blocks from the view changes bits at some shapes)
    rng = make_rng(12)
    block_expert = np.array([2, 0, 0, 1, 2])
    for dtype in (np.float64, np.float32):
        for n in range(1, 25):
            for p in range(1, 25):
                a = rng.normal(size=(len(block_expert) * ROW_BLOCK, n)).astype(dtype)
                w = rng.normal(size=(3, p, n)).astype(dtype).transpose(0, 2, 1)
                out = mm_grouped(a, w, block_expert)
                assert out.shape == (len(a), p) and out.dtype == dtype
                for g, e in enumerate(block_expert):
                    rows = slice(g * ROW_BLOCK, (g + 1) * ROW_BLOCK)
                    assert np.array_equal(out[rows], mm(a[rows], w[e])), (dtype, n, p, g)


class TestMm:
    def test_row_stability(self):
        assert_rows_stable()

    def test_row_stability_einsum_fallback(self, einsum_fallback):
        assert_rows_stable()

    def test_grouped_blocks_equal_mm(self):
        assert_groups_match_mm()

    def test_grouped_blocks_equal_mm_einsum_fallback(self, einsum_fallback):
        assert_groups_match_mm()

    @pytest.mark.parametrize("kernel", ["_mm_blocked", "_mm_einsum"])
    def test_grouped_per_block_fallback_equals_mm(self, monkeypatch, kernel):
        monkeypatch.setattr(numkernel, "_kernel", getattr(numkernel, kernel))
        monkeypatch.setattr(numkernel, "_grouped", numkernel._grouped_per_block)
        assert_groups_match_mm()
        none = mm_grouped(np.zeros((0, 3)), np.ones((2, 3, 4)), np.zeros(0, dtype=np.intp))
        assert none.shape == (0, 4)

    def test_grouped_probe_accepts_both_kernels_and_rejects_a_skew(self):
        def skewed(a, w):
            out = numkernel._grouped_einsum(a, w)
            out[1] = np.nextafter(out[1], np.inf)
            return out

        assert numkernel._groups_match(numkernel._mm_blocked, numkernel._grouped_blocked)
        assert numkernel._groups_match(numkernel._mm_einsum, numkernel._grouped_einsum)
        assert numkernel._groups_match(numkernel._kernel, numkernel._grouped_per_block)
        assert not numkernel._groups_match(numkernel._mm_einsum, skewed)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_grouped_empty_and_shape_errors(self, dtype):
        w = np.ones((2, 3, 4), dtype)
        none = mm_grouped(np.zeros((0, 3), dtype), w, np.zeros(0, dtype=np.intp))
        assert none.shape == (0, 4) and none.dtype == dtype
        for a, be in ((np.zeros((ROW_BLOCK - 1, 3)), [0]), (np.zeros((ROW_BLOCK, 2)), [0]),
                      (np.zeros((2 * ROW_BLOCK, 3)), [0]), (np.zeros((ROW_BLOCK, 3)), [[0]])):
            with pytest.raises(ShapeError):
                mm_grouped(a, w, np.array(be))

    def test_probe_accepts_einsum_and_rejects_position_dependence(self):
        def skewed(a, b):
            out = numkernel._mm_einsum(a, b)
            out[1::2] = np.nextafter(out[1::2], np.inf)
            return out

        assert numkernel._rows_stable(numkernel._mm_einsum)
        assert not numkernel._rows_stable(skewed)

    def test_layout_independence(self):
        rng = make_rng(3)
        w = rng.normal(size=(12, 7))
        a = rng.normal(size=(5, 7))
        assert np.array_equal(mm(a, w.T), mm(a, np.ascontiguousarray(w.T)))
        assert np.array_equal(mm(a, np.asfortranarray(w.T)), mm(a, np.ascontiguousarray(w.T)))
        view = rng.normal(size=(10, 7))[::2]
        assert np.array_equal(mm(view, w.T), mm(view.copy(), w.T))
        # a weight held as the .T view of a C-contiguous copy of its .T, as
        # dispatch_loop lays it out, at the (n, p) of both dispatch shapes
        for dtype in (np.float64, np.float32):
            for n, p in ((256, 512), (512, 256), (64, 32), (32, 64)):
                w = rng.normal(size=(p, n)).astype(dtype)
                v = np.ascontiguousarray(w.T).T
                assert v.flags.f_contiguous and not v.flags.c_contiguous
                for rows in (1, ROW_BLOCK + 1):
                    a = rng.normal(size=(rows, n)).astype(dtype)
                    assert np.array_equal(mm(a, v.T), mm(a, w.T))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_forward_and_route_on_transposed_copies(self, dtype):
        # the operands dispatch_loop hands ffn_forward_batch and route_batch
        rng = make_rng(5)
        p = init_ffn(16, 24, rng, activation="gelu", dtype=dtype)
        p.b1 += rng.normal(size=p.b1.shape).astype(dtype)
        p.b2 += rng.normal(size=p.b2.shape).astype(dtype)
        laid = FfnParams(np.ascontiguousarray(p.w1.T).T, p.b1, np.ascontiguousarray(p.w2.T).T, p.b2,
                         p.activation)
        assert laid.w1.T.flags.c_contiguous and laid.w2.T.flags.c_contiguous
        r = RouterParams(rng.normal(size=(6, 16)).astype(dtype), rng.normal(size=6).astype(dtype))
        laid_r = RouterParams(np.ascontiguousarray(r.w_r.T).T, r.b_r)
        for rows in (1, ROW_BLOCK + 1):
            x = rng.normal(size=(rows, 16)).astype(dtype)
            assert np.array_equal(ffn_forward_batch(laid, x), ffn_forward_batch(p, x))
            assert np.array_equal(route_batch(laid_r, x), route_batch(r, x))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_empty_dimensions(self, dtype):
        no_rows = mm(np.zeros((0, 3), dtype), np.ones((3, 4), dtype))
        assert no_rows.shape == (0, 4) and no_rows.dtype == dtype
        no_inner = mm(np.ones((ROW_BLOCK + 3, 0), dtype), np.ones((0, 4), dtype))
        assert no_inner.dtype == dtype
        assert np.array_equal(no_inner, np.zeros((ROW_BLOCK + 3, 4), dtype))

    def test_matches_blas_reference(self):
        rng = make_rng(4)
        a = rng.normal(size=(11, 6))
        b = rng.normal(size=(6, 13))
        assert np.allclose(mm(a, b), a @ b, rtol=1e-13, atol=1e-13)

    def test_dtype_preserved(self):
        a = np.ones((2, 3), dtype=np.float32)
        b = np.ones((3, 2), dtype=np.float32)
        assert mm(a, b).dtype == np.float32

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            mm(np.zeros((2, 3)), np.zeros((4, 2)))


_THREAD_PROBE = """
import hashlib
import numpy as np
from moeforge.numkernel import make_rng, mm, mm_grouped
rng = make_rng(11)
a = rng.normal(size=(1000, 256))
w1 = rng.normal(size=(256, 512))
w2 = rng.normal(size=(512, 256))
stack = rng.normal(size=(3, 256, 512))
block_expert = np.arange(15) % 3
digest = hashlib.sha256()
for dtype in (np.float64, np.float32):
    hidden = mm(a.astype(dtype), w1.astype(dtype))
    digest.update(hidden.tobytes())
    digest.update(mm(hidden, w2.astype(dtype)).tobytes())
    digest.update(mm_grouped(a[:960].astype(dtype), stack.astype(dtype), block_expert).tobytes())
print(digest.hexdigest())
"""


def test_blas_thread_count_independence():
    # the dispatch-dense expert products (1000 rows of 256 -> 512 -> 256) and
    # a grouped product over 15 blocks of a 3-expert stack, computed under
    # one and two BLAS threads, must agree to the byte
    src = str(Path(moeforge.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", _THREAD_PROBE], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]


class TestSoftmax:
    def test_uniform_on_equal_inputs(self):
        assert np.array_equal(_row_softmax(np.zeros(4)), np.full(4, 0.25))

    @pytest.mark.parametrize("c", [-1000.0, -1.0, 0.0, 3.5, 1000.0])
    def test_closed_form_log3(self, c):
        out = _row_softmax(np.array([c, c + math.log(3.0)]))
        assert abs(out[0] - 0.25) < 1e-12 and abs(out[1] - 0.75) < 1e-12

    def test_stabilized_no_overflow(self):
        out = _row_softmax(np.array([1000.0, 0.0]))
        assert np.all(np.isfinite(out))
        assert out[0] >= 1.0 - 1e-12 and out[1] <= 1e-300

    def test_sums_to_one_across_magnitudes(self):
        rng = make_rng(5)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            v = rng.normal(size=n) * 10.0 ** rng.uniform(-6, 3)
            assert abs(_row_softmax(v).sum() - 1.0) <= 1e-12

    def test_empty_input_error(self):
        with pytest.raises(ShapeError):
            _row_softmax(np.array([]))

    def test_row_stability(self):
        rng = make_rng(6)
        z = rng.normal(size=(50, 11)) * 3
        s = softmax_rows(z)
        for t in range(50):
            assert np.array_equal(s[t], _row_softmax(z[t]))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bits_of_the_textbook_form_and_input_kept(self, dtype):
        # 9 columns take the narrow-row max, 18 (two copies side by side) the
        # row-wise one
        rng = make_rng(8)
        z = rng.normal(size=(40, 9)) * 10.0 ** rng.integers(-3, 3, size=(40, 1))
        z[0] = 700.0                       # all tied, large
        z[1, :4] = z[1].max() + 1e3        # tied maxima
        z[2] = [-1e4, 1e4, 0, 1e4, 3, -3, 1e4, 0, 5]
        z[3] = [0.0, -0.0, -1, 0.0, -0.0, -2, -0.0, 0.0, -3]    # zero maxima of both signs
        z[4] = [-0.0, -0.0, -1, -0.0, 0.0, -5, -0.0, -0.0, -0.0]
        z[5] = [-0.0] * 9
        z[6] = [1.0, np.inf, 0, -np.inf, 2, 3, 4, 5, 6]
        z[7] = [-np.inf] * 9
        z[8] = [1.0, -np.inf, 0, -np.inf, 2, 3, 4, 5, 6]
        z[9] = [1.0, np.nan, 0, 7, 2, 3, 4, 5, 6]
        z[10] = [np.inf, np.nan, -np.inf, 0, 2, 3, 4, 5, 6]
        for z in (z.astype(dtype), np.hstack([z, z[:, ::-1]]).astype(dtype)):
            before = z.copy()
            with np.errstate(invalid="ignore"):
                m = np.max(z, axis=-1, keepdims=True)
                expected = np.exp(z - m) / np.sum(np.exp(z - m), axis=-1, keepdims=True)
                out = softmax_rows(z)
            assert out.dtype == dtype
            assert out.tobytes() == expected.tobytes()
            assert np.array_equal(z, before, equal_nan=True)


class TestActivations:
    def test_relu_examples(self):
        assert np.array_equal(relu(np.array([1.0, -1.0])), np.array([1.0, 0.0]))
        assert np.array_equal(relu(np.array([-5.0, 2.0, 0.5])), np.array([0.0, 2.0, 0.5]))

    def test_relu_at_zero_convention(self):
        assert relu(np.array([0.0]))[0] == 0.0
        assert relu_grad(np.array([0.0]))[0] == 0.0

    @pytest.mark.parametrize("fn,grad", [(relu, relu_grad), (gelu, gelu_grad)])
    def test_grad_matches_finite_difference(self, fn, grad):
        rng = make_rng(7)
        v = rng.normal(size=500) * 2
        v = v[np.abs(v) > 1e-3]  # keep clear of the relu kink
        h = 1e-6
        fd = (fn(v + h) - fn(v - h)) / (2 * h)
        assert np.max(np.abs(grad(v) - fd)) < 1e-6


class TestRng:
    def test_same_seed_same_sequence(self):
        a = make_rng(123).normal(size=10)
        b = make_rng(123).normal(size=10)
        assert np.array_equal(a, b)

    def test_streams_are_independent(self):
        a = make_rng(123, 1).normal(size=10)
        b = make_rng(123, 2).normal(size=10)
        assert not np.array_equal(a, b)

    def test_known_algorithm(self):
        assert isinstance(make_rng(0).bit_generator, np.random.PCG64)

    @pytest.mark.parametrize("bad", [-1, 2**64])
    def test_seed_range(self, bad):
        with pytest.raises(ValueError):
            make_rng(bad)
