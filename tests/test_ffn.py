import numpy as np
import pytest

from moeforge.ffn import (
    FfnParams,
    ffn_backward_batch,
    ffn_forward_batch,
    init_ffn,
)
from moeforge.numkernel import ShapeError, make_rng, relu

from conftest import random_ffn


def test_forward_identity_weights():
    p = FfnParams(np.eye(2), np.zeros(2), np.eye(2), np.zeros(2), "relu")
    assert np.array_equal(ffn_forward_batch(p, np.array([[1.0, -1.0]]))[0], np.array([1.0, 0.0]))


def test_forward_zero_input_closed_form(rng):
    # x = 0 collapses to w2 @ act(b1) + b2 for any parameters
    for _ in range(10):
        p = random_ffn(rng, 4, 7)
        expected = p.w2 @ relu(p.b1) + p.b2
        assert np.allclose(ffn_forward_batch(p, np.zeros((1, 4)))[0], expected, atol=1e-14)


def test_forward_hand_oracle():
    # D=1, H=2: 1*2 + 1*3 + 4 = 9
    p = FfnParams(np.array([[2.0], [3.0]]), np.zeros(2),
                  np.array([[1.0, 1.0]]), np.array([4.0]), "relu")
    assert ffn_forward_batch(p, np.array([[1.0]]))[0, 0] == 9.0


def test_batched_equals_looped_bitwise(rng):
    for _ in range(5):
        p = random_ffn(rng, 6, 10)
        x = rng.normal(size=(23, 6))
        batched = ffn_forward_batch(p, x)
        for t in range(23):
            assert np.array_equal(batched[t], ffn_forward_batch(p, x[t:t + 1])[0])


def test_positive_homogeneity_in_w2(rng):
    # doubling w2 with b2 = 0 doubles the output exactly (power-of-two scaling)
    p = random_ffn(rng, 5, 8)
    p = FfnParams(p.w1, p.b1, p.w2, np.zeros(5), "relu")
    doubled = FfnParams(p.w1, p.b1, 2.0 * p.w2, np.zeros(5), "relu")
    for _ in range(20):
        x = rng.normal(size=(1, 5))
        assert np.array_equal(ffn_forward_batch(doubled, x), 2.0 * ffn_forward_batch(p, x))


def _backward_row(p, x, upstream):
    """Gradients for one token, as a one-row batch; returns (FfnGrads, dx vector)."""
    grads, dx = ffn_backward_batch(p, x[None, :], upstream[None, :])
    return grads, dx[0]


def test_backward_zero_upstream(rng):
    p = random_ffn(rng, 3, 5)
    grads, dx = _backward_row(p, rng.normal(size=3), np.zeros(3))
    for g in (grads.w1, grads.b1, grads.w2, grads.b2, dx):
        assert np.array_equal(g, np.zeros_like(g))


def test_backward_linear_regime_passthrough():
    # identity weights, zero bias, strictly positive preactivations: dx = upstream
    p = FfnParams(np.eye(3), np.zeros(3), np.eye(3), np.zeros(3), "relu")
    x = np.array([0.5, 1.0, 2.0])
    upstream = np.array([0.3, -0.7, 0.1])
    _, dx = _backward_row(p, x, upstream)
    assert np.array_equal(dx, upstream)


def _fd_check(p, x, upstream, h=1e-6, rtol=1e-5):
    """Central finite differences of upstream . ffn(x) against analytic grads."""
    grads, dx = _backward_row(p, x, upstream)
    arrays = [(p.w1, grads.w1), (p.b1, grads.b1), (p.w2, grads.w2), (p.b2, grads.b2)]
    for param, grad in arrays:
        for idx in np.ndindex(param.shape):
            orig = param[idx]
            param[idx] = orig + h
            up = float(upstream @ ffn_forward_batch(p, x[None])[0])
            param[idx] = orig - h
            down = float(upstream @ ffn_forward_batch(p, x[None])[0])
            param[idx] = orig
            fd = (up - down) / (2 * h)
            assert abs(grad[idx] - fd) <= rtol * max(abs(grad[idx]), abs(fd), 1e-4)
    for i in range(x.shape[0]):
        orig = x[i]
        x[i] = orig + h
        up = float(upstream @ ffn_forward_batch(p, x[None])[0])
        x[i] = orig - h
        down = float(upstream @ ffn_forward_batch(p, x[None])[0])
        x[i] = orig
        fd = (up - down) / (2 * h)
        assert abs(dx[i] - fd) <= rtol * max(abs(dx[i]), abs(fd), 1e-4)


@pytest.mark.parametrize("activation", ["relu", "gelu"])
def test_backward_matches_finite_difference(activation):
    # 100 instances, preactivations kept 1e-3 clear of the relu kink
    rng = make_rng(99)
    checked = 0
    while checked < 100:
        p = random_ffn(rng, 3, 5, activation)
        x = rng.normal(size=3)
        if activation == "relu" and np.min(np.abs(p.w1 @ x + p.b1)) < 1e-3:
            continue
        upstream = rng.normal(size=3)
        _fd_check(p, x, upstream)
        checked += 1


def test_backward_batch_accumulates(rng):
    p = random_ffn(rng, 4, 6)
    x = rng.normal(size=(5, 4))
    upstream = rng.normal(size=(5, 4))
    batch_grads, batch_dx = ffn_backward_batch(p, x, upstream)
    acc = None
    for t in range(5):
        g, dxt = _backward_row(p, x[t], upstream[t])
        assert np.allclose(batch_dx[t], dxt, atol=1e-14)
        if acc is None:
            acc = g
        else:
            acc.w1 += g.w1
            acc.b1 += g.b1
            acc.w2 += g.w2
            acc.b2 += g.b2
    assert np.allclose(batch_grads.w1, acc.w1, atol=1e-12)
    assert np.allclose(batch_grads.b2, acc.b2, atol=1e-12)
    # without the input gradient: the same parameter gradients, and no dx
    grads, dx = ffn_backward_batch(p, x, upstream, input_grad=False)
    assert dx is None
    assert all(np.array_equal(getattr(grads, f), getattr(batch_grads, f)) for f in ("w1", "b1", "w2", "b2"))


def test_param_validation():
    with pytest.raises(ShapeError):
        FfnParams(np.zeros((3, 2)), np.zeros(4), np.zeros((2, 3)), np.zeros(2))
    with pytest.raises(ValueError):
        FfnParams(np.zeros((3, 2)), np.zeros(3), np.zeros((2, 3)), np.zeros(2), "sigmoid")
    with pytest.raises(ValueError):
        FfnParams(np.full((3, 2), np.nan), np.zeros(3), np.zeros((2, 3)), np.zeros(2))


def test_forward_shape_errors(rng):
    p = random_ffn(rng, 4, 6)
    with pytest.raises(ShapeError):
        ffn_forward_batch(p, np.zeros((3, 5)))
    with pytest.raises(ShapeError):
        ffn_backward_batch(p, np.zeros((1, 4)), np.zeros((1, 3)))


def test_init_ffn_shapes(rng):
    p = init_ffn(5, 12, rng, "gelu", np.float32)
    assert p.token_dim == 5 and p.hidden_dim == 12
    assert p.w1.dtype == np.float32 and p.activation == "gelu"


def test_stack_validation(rng):
    w1, b1, w2, b2 = np.zeros((3, 6, 4)), np.zeros((3, 6)), np.zeros((3, 4, 6)), np.zeros((3, 4))
    assert len(FfnParams(w1, b1, w2, b2)) == 3
    with pytest.raises(ShapeError):  # leading dims disagree
        FfnParams(w1, np.zeros((2, 6)), w2, b2)
    with pytest.raises(ShapeError):
        FfnParams(w1, b1, w2, np.zeros((2, 4)))
    with pytest.raises(ShapeError):  # a stack of stacks
        FfnParams(np.zeros((2, 3, 6, 4)), np.zeros((2, 3, 6)), np.zeros((2, 3, 4, 6)), np.zeros((2, 3, 4)))
    with pytest.raises(ShapeError):  # an empty stack
        FfnParams(np.zeros((0, 6, 4)), np.zeros((0, 6)), np.zeros((0, 4, 6)), np.zeros((0, 4)))
    single = random_ffn(rng, 4, 6)
    with pytest.raises(ShapeError):
        len(single)
    with pytest.raises(ShapeError):
        single[0]


def test_stack_views_write_through(rng):
    from moeforge.moe import MoeConfig, expand_supernet

    layer = expand_supernet(random_ffn(rng, 4, 6), MoeConfig(token_dim=4, hidden_dim=6,
                                                             n_replicas=2, granularity=3))
    stack = layer.experts
    for e, view in enumerate(stack):
        for a, rows in ((view.w1, stack.w1), (view.b1, stack.b1), (view.w2, stack.w2), (view.b2, stack.b2)):
            assert np.shares_memory(a, rows[e]) and a.shape == rows.shape[1:]
    layer.experts[4].w1[1, 2] = 7.0
    layer.experts[4].b2 += 1.0
    assert stack.w1[4, 1, 2] == 7.0 and np.array_equal(stack.b2[4], layer.experts[4].b2)
    assert layer.experts[-1].activation == stack.activation


def test_stack_rejected_where_one_ffn_expected(rng):
    import io

    from moeforge.moe import MoeConfig, expand_supernet, split_ffn
    from moeforge.serialize import _dump_ffn

    stack = split_ffn(random_ffn(rng, 4, 6), 2)
    x = rng.normal(size=(5, 4))
    calls = [
        lambda: ffn_forward_batch(stack, x),
        lambda: ffn_backward_batch(stack, x, x),
        lambda: _dump_ffn(io.BytesIO(), stack),
        lambda: split_ffn(stack, 1),
        lambda: expand_supernet(stack, MoeConfig(token_dim=4, hidden_dim=3, n_replicas=1, granularity=1)),
    ]
    for call in calls:
        with pytest.raises(ShapeError):
            call()
