"""Sparse mixture-of-experts layer built by decomposing a pretrained FFN.

The pieces, in the order a layer comes to life:

* :func:`split_ffn` slices one FFN's hidden dimension into ``granularity``
  smaller experts whose outputs sum back to the parent's output exactly
  (in real arithmetic; to ~1e-12 in float64).
* :func:`expand_supernet` deep-copies the base FFN ``n_replicas`` times,
  splits every copy, and lays experts out replica-major
  (expert index = replica * granularity + slice).
* :func:`init_router` draws one centroid row per replica and repeats it
  ``granularity`` times, so at step 0 the top-k selection lands on the k
  slices of a single replica and the layer reproduces the base FFN.
* :func:`moe_forward` / :func:`dispatch_batch` run tokens through the layer.
  ``dispatch_batch`` sorts the (token, slot) assignments by expert once
  (:func:`group_by_expert`), evaluates one batch per expert, and adds each
  expert's rows straight into a zeroed output, experts in ascending order.
  Its output is bitwise identical to looping ``moe_forward`` over tokens
  (:func:`dispatch_loop`): selections ascend strictly along a row, so both
  add the selected experts' outputs in ascending expert order on top of a
  zero buffer, and all matrix products share the kernel's row-stable
  reduction order. The training backward in :mod:`moeforge.harness` groups
  and adds the same way.
* :func:`load_balance_loss` is the utilization penalty
  ``n_experts * sum_i F_i * P_i`` with F the per-expert share of
  assignments and P the mean routing score.

Gradient contract (documented prominently because MoE variants differ
here): gate values are hard 0/1 constants and expert outputs are not
score-weighted, so the task loss sends gradients only to the selected
experts, and the router trains only through the score-mean side of the
balance loss with the assignment fractions held constant.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .ffn import FfnParams, ffn_forward, ffn_forward_batch
from .numkernel import (
    STREAM_ROUTER,
    ShapeError,
    ensure_finite,
    make_rng,
    mm,
    single_blas_thread,
    softmax_rows,
)


@dataclass
class MoeConfig:
    """Shape and seed of a supernet: n_replicas FFN copies, each split granularity ways."""

    token_dim: int
    hidden_dim: int
    n_replicas: int = 8
    granularity: int = 2
    top_k: int = 0  # 0 means "track granularity", the usual deployment
    seed: int = 0

    def __post_init__(self):
        if self.top_k == 0:
            self.top_k = self.granularity
        for name in ("token_dim", "hidden_dim", "n_replicas", "granularity"):
            if getattr(self, name) < 1:
                raise ValueError(f"MoeConfig: {name} must be >= 1, got {getattr(self, name)}")
        if self.hidden_dim % self.granularity != 0:
            raise ValueError(
                f"MoeConfig: hidden_dim {self.hidden_dim} not divisible by granularity {self.granularity}"
            )
        if not 1 <= self.top_k <= self.n_experts:
            raise ValueError(f"MoeConfig: top_k {self.top_k} out of range [1, {self.n_experts}]")

    @property
    def n_experts(self) -> int:
        return self.n_replicas * self.granularity

    @property
    def expert_hidden_dim(self) -> int:
        return self.hidden_dim // self.granularity


@dataclass
class RouterParams:
    """Linear router: w_r (n_experts, token_dim), b_r (n_experts,)."""

    w_r: np.ndarray
    b_r: np.ndarray

    def __post_init__(self):
        self.w_r = np.asarray(self.w_r)
        self.b_r = np.asarray(self.b_r)
        if self.w_r.ndim != 2 or self.b_r.ndim != 1 or self.w_r.shape[0] != self.b_r.shape[0]:
            raise ShapeError("RouterParams", self.w_r.shape, self.b_r.shape)
        ensure_finite("RouterParams", self.w_r, self.b_r)

    def copy(self) -> "RouterParams":
        return RouterParams(self.w_r.copy(), self.b_r.copy())


@dataclass(frozen=True)
class Gate:
    """One token's routing outcome: ascending selected indices + full score vector."""

    selected: tuple[int, ...]
    scores: np.ndarray


@dataclass
class RoutingTrace:
    """Per-token gates for one batch, stored columnarly.

    scores is (tokens, n_experts) softmax scores; selected is
    (tokens, top_k) ascending expert indices. An empty batch is legal and
    keeps n_experts in the scores shape.
    """

    top_k: int
    scores: np.ndarray
    selected: np.ndarray

    def __post_init__(self):
        self.scores = np.asarray(self.scores)
        self.selected = np.asarray(self.selected, dtype=np.int64)
        if self.scores.ndim != 2 or self.selected.ndim != 2:
            raise ShapeError("RoutingTrace", self.scores.shape, self.selected.shape)
        if self.selected.shape != (self.scores.shape[0], self.top_k):
            raise ShapeError("RoutingTrace", self.scores.shape, self.selected.shape)
        if self.selected.size and (self.selected.min() < 0 or self.selected.max() >= self.n_experts):
            raise ValueError("RoutingTrace: expert index out of range")

    @property
    def n_tokens(self) -> int:
        return self.scores.shape[0]

    @property
    def n_experts(self) -> int:
        return self.scores.shape[1]

    def __len__(self) -> int:
        return self.n_tokens



@dataclass
class MoeLayer:
    """The supernet: config, replica-major expert list, router.

    A fine-grained expert is structurally an FFN with hidden width H/k.
    """

    config: MoeConfig
    experts: list[FfnParams]
    router: RouterParams

    def __post_init__(self):
        cfg = self.config
        if len(self.experts) != cfg.n_experts:
            raise ValueError(f"MoeLayer: expected {cfg.n_experts} experts, got {len(self.experts)}")
        for e in self.experts:
            if e.token_dim != cfg.token_dim or e.hidden_dim != cfg.expert_hidden_dim:
                raise ShapeError("MoeLayer", e.w1.shape, (cfg.expert_hidden_dim, cfg.token_dim))
            if e.activation != self.experts[0].activation:
                raise ValueError("MoeLayer: experts must share one activation")
        if self.router.w_r.shape != (cfg.n_experts, cfg.token_dim):
            raise ShapeError("MoeLayer", self.router.w_r.shape, (cfg.n_experts, cfg.token_dim))

    def copy(self) -> "MoeLayer":
        return MoeLayer(self.config, [e.copy() for e in self.experts], self.router.copy())


def split_ffn(p: FfnParams, granularity: int) -> list[FfnParams]:
    """Slice one FFN into `granularity` experts whose outputs sum to p's output.

    Expert j takes rows [j*H/k, (j+1)*H/k) of w1/b1, the matching columns of
    w2, and b2 / k.
    """
    if granularity < 1:
        raise ValueError(f"split_ffn: granularity must be >= 1, got {granularity}")
    if p.hidden_dim % granularity != 0:
        raise ValueError(
            f"split_ffn: hidden_dim {p.hidden_dim} not divisible by granularity {granularity}"
        )
    width = p.hidden_dim // granularity
    experts = []
    for j in range(granularity):
        rows = slice(j * width, (j + 1) * width)
        experts.append(FfnParams(
            p.w1[rows].copy(),
            p.b1[rows].copy(),
            p.w2[:, rows].copy(),
            p.b2 / granularity,
            p.activation,
        ))
    return experts


def init_router(cfg: MoeConfig, rng: np.random.Generator, dtype=np.float64) -> RouterParams:
    """Centroid-replicated router init.

    One centroid row per replica, drawn N(0, 1/sqrt(token_dim)) to keep the
    initial score entropy high, then each row repeated `granularity` times
    contiguously. Bias starts at zero and is replicated by the same rule.
    """
    centroids = (rng.normal(size=(cfg.n_replicas, cfg.token_dim)) / np.sqrt(cfg.token_dim)).astype(dtype)
    w_r = np.repeat(centroids, cfg.granularity, axis=0)
    b_r = np.zeros(cfg.n_experts, dtype=dtype)
    return RouterParams(w_r, b_r)


def expand_supernet(base: FfnParams, cfg: MoeConfig) -> MoeLayer:
    """Replicate the base FFN n_replicas times, split each copy, attach a grouped router."""
    if base.token_dim != cfg.token_dim or base.hidden_dim != cfg.hidden_dim:
        raise ShapeError("expand_supernet", base.w1.shape, (cfg.hidden_dim, cfg.token_dim))
    experts: list[FfnParams] = []
    for _ in range(cfg.n_replicas):
        experts.extend(split_ffn(base, cfg.granularity))
    router = init_router(cfg, make_rng(cfg.seed, STREAM_ROUTER), dtype=base.w1.dtype)
    return MoeLayer(cfg, experts, router)


def route_batch(r: RouterParams, tokens: np.ndarray) -> np.ndarray:
    """Softmax router scores for a (tokens, dim) matrix; rows sum to 1."""
    tokens = np.asarray(tokens)
    if tokens.ndim != 2 or tokens.shape[1] != r.w_r.shape[1]:
        raise ShapeError("route_batch", tokens.shape, r.w_r.shape)
    # The bias is added in place, at the dtype ``mm(...) + b_r`` would have.
    z = mm(tokens, r.w_r.T).astype(np.result_type(tokens, r.w_r, r.b_r), copy=False)
    z += r.b_r
    return softmax_rows(z)


def route(r: RouterParams, x: np.ndarray) -> np.ndarray:
    """Score vector for a single token; the one-row case of route_batch."""
    x = np.asarray(x)
    if x.ndim != 1 or x.shape[0] != r.w_r.shape[1]:
        raise ShapeError("route", x.shape, r.w_r.shape)
    return route_batch(r, x[None, :])[0]


def top_k_select_rows(scores: np.ndarray, top_k: int) -> np.ndarray:
    """Ascending indices of the top_k largest entries per row.

    Defined as the first top_k columns of a stable argsort on negated
    scores: larger first, ties toward the lowest index, -inf after every
    other value and NaN last. Rows of finite floats take top_k ``argmax``
    passes instead, each masking its pick with -inf; ``argmax`` returns the
    first maximum, the same tie-break. Rows holding inf or NaN (where a
    mask would tie with a score or lose to a NaN) use the definition.
    """
    scores = np.asarray(scores)
    n = scores.shape[-1]
    if not 1 <= top_k <= n:
        raise ValueError(f"top_k {top_k} out of range [1, {n}]")
    flat = scores.reshape(-1, n)
    if flat.dtype.kind != "f":
        return _top_k_by_argsort(scores, top_k)
    work = flat.copy()
    rows = np.arange(len(work))
    picks = np.empty((len(work), top_k), dtype=np.intp)
    for j in range(top_k):
        picks[:, j] = np.argmax(work, axis=1)
        work[rows, picks[:, j]] = -np.inf
    odd = ~np.isfinite(flat).all(axis=1)
    if odd.any():
        picks[odd] = _top_k_by_argsort(flat[odd], top_k)
    picks.sort(axis=1)
    return picks.reshape(scores.shape[:-1] + (top_k,))


def _top_k_by_argsort(scores: np.ndarray, top_k: int) -> np.ndarray:
    order = np.argsort(-scores, axis=-1, kind="stable")
    return np.sort(order[..., :top_k], axis=-1)


def top_k_gate(scores: np.ndarray, top_k: int) -> Gate:
    """Hard top-k gate over one score vector."""
    scores = np.asarray(scores)
    if scores.ndim != 1:
        raise ShapeError("top_k_gate", scores.shape)
    sel = top_k_select_rows(scores[None, :], top_k)[0]
    return Gate(tuple(int(i) for i in sel), scores)


def moe_forward(layer: MoeLayer, x: np.ndarray):
    """Route one token and sum the selected experts' outputs.

    Accumulation starts from a zero buffer and adds experts in ascending
    index order, the exact fold dispatch_batch reproduces.
    """
    x = np.asarray(x)
    cfg = layer.config
    if x.ndim != 1 or x.shape[0] != cfg.token_dim:
        raise ShapeError("moe_forward", x.shape, (cfg.token_dim,))
    scores = route(layer.router, x)
    gate = top_k_gate(scores, cfg.top_k)
    out = np.zeros(cfg.token_dim, dtype=np.result_type(x, layer.experts[0].w1))
    for i in gate.selected:
        out += ffn_forward(layer.experts[i], x)
    return out, gate


def dispatch_loop(layer: MoeLayer, tokens: np.ndarray):
    """Sequential reference path: one moe_forward call per token.

    This is the plain loop the batched engine is checked against (and the
    baseline the bench command times). Each token's output, scores and
    selection fill one row of arrays shaped and typed as dispatch_batch's,
    an empty batch included.
    """
    tokens = np.asarray(tokens)
    cfg = layer.config
    if tokens.ndim != 2 or tokens.shape[1] != cfg.token_dim:
        raise ShapeError("dispatch_loop", tokens.shape, (cfg.token_dim,))
    n = tokens.shape[0]
    out = np.empty((n, cfg.token_dim), dtype=np.result_type(tokens, layer.experts[0].w1))
    scores = np.empty((n, cfg.n_experts), dtype=np.result_type(tokens, layer.router.w_r, layer.router.b_r))
    selected = np.empty((n, cfg.top_k), dtype=np.int64)
    for t in range(n):
        out[t], gate = moe_forward(layer, tokens[t])
        scores[t] = gate.scores
        selected[t] = gate.selected
    return out, RoutingTrace(cfg.top_k, scores, selected)


class ExpertGroups(NamedTuple):
    """Assignments of a (tokens, top_k) selection, sorted once by expert.

    token_ids lists the token of every (token, slot) assignment, grouped by
    expert and ascending within each group; expert e owns
    ``token_ids[offsets[e]:offsets[e + 1]]``. A token appears at most once
    per group, because selections ascend strictly along a row.
    """

    token_ids: np.ndarray
    offsets: np.ndarray

    def tokens_of(self, e: int) -> np.ndarray:
        return self.token_ids[self.offsets[e]:self.offsets[e + 1]]

    def nonempty(self) -> list[tuple[int, np.ndarray]]:
        """(expert, token ids) of every expert that received tokens, ascending by expert."""
        bounds = self.offsets.tolist()
        return [(e, self.token_ids[lo:hi]) for e, (lo, hi) in enumerate(zip(bounds, bounds[1:])) if hi > lo]


def add_rows(out: np.ndarray, idx: np.ndarray, rows: np.ndarray) -> None:
    """``out[idx] += rows`` in place, for unique ``idx``; ``rows`` is overwritten.

    Taking the rows, adding in ``rows``' buffer and storing them back costs
    less per call than a fancy-indexed ``+=``, which at toy shapes is paid
    once per expert.
    """
    np.add(out.take(idx, axis=0), rows, out=rows)
    out[idx] = rows


def group_by_expert(selected: np.ndarray, n_experts: int) -> ExpertGroups:
    """Group a selection by expert with one stable sort of its T*k entries.

    The flattened selection is token-major, so a stable sort keeps tokens
    in ascending order within each expert. The sort key is the smallest
    unsigned type that holds ``n_experts - 1``: for 8- and 16-bit keys
    numpy's stable sort is a radix sort, and a stable order is unique, so
    the key width does not change the result. Rows must ascend strictly
    (each expert at most once per token), or :func:`add_rows` would drop an
    add; any other row raises ``ValueError``.
    """
    selected = np.asarray(selected)
    if selected.ndim != 2:
        raise ShapeError("group_by_expert", selected.shape)
    flat = selected.ravel()
    if flat.size and (flat.min() < 0 or flat.max() >= n_experts):
        raise ValueError(f"group_by_expert: expert index out of range [0, {n_experts})")
    if not np.all(np.diff(selected, axis=1) > 0):
        raise ValueError("group_by_expert: selected experts must ascend strictly along every row")
    order = np.argsort(flat.astype(np.min_scalar_type(n_experts - 1)), kind="stable")
    offsets = np.zeros(n_experts + 1, dtype=np.intp)
    np.cumsum(np.bincount(flat, minlength=n_experts), out=offsets[1:])
    return ExpertGroups(order // selected.shape[1], offsets)


def dispatch_batch(layer: MoeLayer, tokens: np.ndarray, threads: int = 1):
    """Route a whole batch, then run one batched FFN evaluation per expert.

    :func:`group_by_expert` sorts the assignments by expert once. Each
    expert that received tokens evaluates them in one call (optionally
    across a thread pool, with BLAS held at one thread meanwhile), and its
    rows are added straight into a zeroed (tokens, dim) output, experts in
    ascending order; with a pool, the calling thread adds each expert's
    result as the pool yields it, in that same order. Selected indices
    ascend strictly along a row, so every token gets zero plus its experts
    in ascending order, the fold of :func:`moe_forward`; with the kernel's
    row-stable products the result is bitwise identical to
    :func:`dispatch_loop`.
    """
    tokens = np.asarray(tokens)
    cfg = layer.config
    if tokens.ndim != 2 or tokens.shape[1] != cfg.token_dim:
        raise ShapeError("dispatch_batch", tokens.shape, (cfg.token_dim,))
    scores = route_batch(layer.router, tokens)
    selected = top_k_select_rows(scores, cfg.top_k)
    trace = RoutingTrace(cfg.top_k, scores, selected)

    groups = group_by_expert(selected, cfg.n_experts)
    out = np.zeros((tokens.shape[0], cfg.token_dim), dtype=np.result_type(tokens, layer.experts[0].w1))

    def eval_expert(item: tuple[int, np.ndarray]) -> np.ndarray:
        e, idx = item
        return ffn_forward_batch(layer.experts[e], tokens[idx])

    work = groups.nonempty()
    if threads > 1:
        with single_blas_thread(), ThreadPoolExecutor(max_workers=threads) as pool:
            for (_, idx), rows in zip(work, pool.map(eval_expert, work)):
                add_rows(out, idx, rows)
    else:
        for (_, idx), rows in zip(work, map(eval_expert, work)):
            add_rows(out, idx, rows)
    return out, trace


def assignment_counts(trace: RoutingTrace) -> np.ndarray:
    """Number of token assignments each expert received."""
    return np.bincount(trace.selected.ravel(), minlength=trace.n_experts).astype(np.int64)


def assignment_fractions(trace: RoutingTrace) -> np.ndarray:
    """Per-expert share of assignments; sums to 1 (counts / (tokens * top_k)).

    This is the single definition of the balance loss's F term; analytics
    reuses it so the two can never drift apart.
    """
    if trace.n_tokens < 1:
        raise ValueError("assignment_fractions: empty trace")
    return assignment_counts(trace) / float(trace.n_tokens * trace.top_k)


def mean_scores(trace: RoutingTrace) -> np.ndarray:
    """Mean routing score per expert across the trace's tokens."""
    if trace.n_tokens < 1:
        raise ValueError("mean_scores: empty trace")
    return trace.scores.mean(axis=0)


def load_balance_loss(trace: RoutingTrace) -> float:
    """Utilization penalty n_experts * sum_i F_i * P_i.

    Equals 1.0 exactly under uniform routing with uniform scores and grows
    as assignment mass concentrates.
    """
    f = assignment_fractions(trace)
    p = mean_scores(trace)
    return float(trace.n_experts * np.sum(f * p))


def total_loss(task: float, aux: float, alpha: float = 0.01) -> float:
    """Training objective: task loss plus alpha-weighted balance loss."""
    total = float(task) + float(alpha) * float(aux)
    if not np.isfinite(total):
        raise ValueError(f"total_loss: non-finite result from ({task}, {aux}, {alpha})")
    return total


def balance_loss_backward(trace: RoutingTrace, tokens: np.ndarray, aux_weight: float):
    """Exact router gradient of aux_weight * load_balance_loss(trace).

    Assignment fractions are held constant; only the score means
    differentiate. Returns (d w_r, d b_r).
    """
    tokens = np.asarray(tokens)
    if trace.n_tokens < 1:
        raise ValueError("balance_loss_backward: empty trace")
    if tokens.shape[0] != trace.n_tokens:
        raise ShapeError("balance_loss_backward", tokens.shape, trace.scores.shape)
    f = assignment_fractions(trace)
    w = (aux_weight * trace.n_experts / trace.n_tokens) * f
    s = trace.scores
    inner = np.sum(s * w, axis=1, keepdims=True)
    c = s * (w[None, :] - inner)
    d_wr = mm(c.T, tokens)
    d_br = c.sum(axis=0)
    return d_wr, d_br
