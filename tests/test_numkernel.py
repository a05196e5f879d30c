import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import moeforge
from moeforge import numkernel
from moeforge.numkernel import (
    ROW_BLOCK,
    ShapeError,
    gelu,
    gelu_grad,
    make_rng,
    mm,
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


class TestMm:
    def test_row_stability(self):
        assert_rows_stable()

    def test_row_stability_einsum_fallback(self, einsum_fallback):
        assert_rows_stable()

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
from moeforge.numkernel import make_rng, mm
rng = make_rng(11)
a = rng.normal(size=(1000, 256))
w1 = rng.normal(size=(256, 512))
w2 = rng.normal(size=(512, 256))
digest = hashlib.sha256()
for dtype in (np.float64, np.float32):
    hidden = mm(a.astype(dtype), w1.astype(dtype))
    digest.update(hidden.tobytes())
    digest.update(mm(hidden, w2.astype(dtype)).tobytes())
print(digest.hexdigest())
"""


def test_blas_thread_count_independence():
    # the dispatch-dense expert products (1000 rows of 256 -> 512 -> 256),
    # computed under one and two BLAS threads, must agree to the byte
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
