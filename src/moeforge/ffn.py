"""Two-layer feed-forward network: parameters, forward pass, manual backward.

The network computes ``w2 @ act(w1 @ x + b1) + b2`` over a (tokens, dim)
batch; a single token is the one-row case of :func:`ffn_forward_batch`, so
looping tokens one at a time and pushing them through in a batch give
bitwise identical rows.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .numkernel import ShapeError, activation_pair, check_size, ensure_finite, mm


@dataclass
class FfnParams:
    """Weights of one FFN, or of a stack of equally shaped FFNs.

    One FFN holds w1 (hidden, dim), b1 (hidden,), w2 (dim, hidden) and
    b2 (dim,). A stack of E FFNs puts one leading axis on all four: w1
    (E, hidden, dim), b1 (E, hidden), w2 (E, dim, hidden), b2 (E, dim), with
    one activation. ``stack[e]`` is FFN e as a view that shares the stack's
    memory, so writing to it writes to the stack; it is not validated again,
    because the stack was validated when it was built. The functions that
    evaluate, differentiate, split or serialize an FFN take one FFN and
    reject a stack with ``ShapeError`` (evaluation through :func:`mm`, which
    takes 2-D operands only).
    """

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    activation: str = "relu"

    def __post_init__(self):
        self.w1 = np.asarray(self.w1)
        self.b1 = np.asarray(self.b1)
        self.w2 = np.asarray(self.w2)
        self.b2 = np.asarray(self.b2)
        shapes = (self.w1.shape, self.b1.shape, self.w2.shape, self.b2.shape)
        if self.w1.ndim not in (2, 3) or 0 in self.w1.shape:
            raise ShapeError("FfnParams", *shapes)
        *lead, hidden, dim = self.w1.shape
        if shapes[1:] != ((*lead, hidden), (*lead, dim, hidden), (*lead, dim)):
            raise ShapeError("FfnParams", *shapes)
        activation_pair(self.activation)
        ensure_finite("FfnParams", self.w1, self.b1, self.w2, self.b2)

    @property
    def token_dim(self) -> int:
        return self.w1.shape[-1]

    @property
    def hidden_dim(self) -> int:
        return self.w1.shape[-2]

    def __len__(self) -> int:
        """Number of FFNs in a stack."""
        if self.w1.ndim != 3:
            raise ShapeError("len(FfnParams)", self.w1.shape)
        return self.w1.shape[0]

    def __getitem__(self, e) -> "FfnParams":
        """FFN e of a stack, or a sub-stack for a slice; a view either way."""
        if self.w1.ndim != 3:
            raise ShapeError("FfnParams[e]", self.w1.shape)
        if not isinstance(e, slice):
            e = operator.index(e)
        view = object.__new__(FfnParams)
        view.w1, view.b1, view.w2, view.b2 = self.w1[e], self.b1[e], self.w2[e], self.b2[e]
        view.activation = self.activation
        return view

    def __iter__(self):
        return (self[e] for e in range(len(self)))

    def copy(self) -> "FfnParams":
        return FfnParams(self.w1.copy(), self.b1.copy(), self.w2.copy(), self.b2.copy(), self.activation)


@dataclass
class FfnGrads:
    """Parameter gradients, same shapes as the FfnParams they differentiate (a stack's are a stack)."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray


def init_ffn(token_dim: int, hidden_dim: int, rng: np.random.Generator,
             activation: str = "relu", dtype=np.float64) -> FfnParams:
    """Fan-in scaled normal weights, zero biases."""
    check_size("init_ffn: token_dim", token_dim)
    check_size("init_ffn: hidden_dim", hidden_dim)
    w1 = (rng.normal(size=(hidden_dim, token_dim)) / np.sqrt(token_dim)).astype(dtype)
    w2 = (rng.normal(size=(token_dim, hidden_dim)) / np.sqrt(hidden_dim)).astype(dtype)
    b1 = np.zeros(hidden_dim, dtype=dtype)
    b2 = np.zeros(token_dim, dtype=dtype)
    return FfnParams(w1, b1, w2, b2, activation)


def ffn_forward_batch(p: FfnParams, x: np.ndarray) -> np.ndarray:
    """Forward over a (tokens, dim) matrix; returns (tokens, dim)."""
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[1] != p.token_dim:
        raise ShapeError("ffn_forward_batch", x.shape, p.w1.shape)
    act, _ = activation_pair(p.activation)
    hidden = act(mm(x, p.w1.T) + p.b1)
    return mm(hidden, p.w2.T) + p.b2


def ffn_backward_batch(p: FfnParams, x: np.ndarray, upstream: np.ndarray, input_grad: bool = True):
    """Chain-rule gradients for a batch.

    Returns (FfnGrads summed over the batch, input gradient of shape
    (tokens, dim), or None without ``input_grad``, which skips its product).
    """
    x = np.asarray(x)
    upstream = np.asarray(upstream)
    if x.ndim != 2 or x.shape[1] != p.token_dim:
        raise ShapeError("ffn_backward_batch", x.shape, p.w1.shape)
    if upstream.shape != x.shape:
        raise ShapeError("ffn_backward_batch", upstream.shape, x.shape)
    act, act_grad = activation_pair(p.activation)
    z1 = mm(x, p.w1.T) + p.b1
    a = act(z1)
    g_w2 = mm(upstream.T, a)
    g_b2 = upstream.sum(axis=0)
    dz1 = mm(upstream, p.w2) * act_grad(z1)
    g_w1 = mm(dz1.T, x)
    g_b1 = dz1.sum(axis=0)
    return FfnGrads(g_w1, g_b1, g_w2, g_b2), mm(dz1, p.w1) if input_grad else None

