"""Sparse mixture-of-experts layer built by decomposing a pretrained FFN.

The pieces, in the order a layer comes to life:

* :func:`split_ffn` slices one FFN's hidden dimension into ``granularity``
  smaller experts whose outputs sum back to the parent's output exactly
  (in real arithmetic; to ~1e-12 in float64). The experts come back as one
  stacked :class:`~moeforge.ffn.FfnParams`: the slicing is a reshape.
* :func:`expand_supernet` lays ``n_replicas`` copies of that split into one
  stack, replica-major (expert index = replica * granularity + slice).
* :func:`init_router` draws one centroid row per replica and repeats it
  ``granularity`` times, so at step 0 the top-k selection lands on the k
  slices of a single replica and the layer reproduces the base FFN.
* :func:`moe_forward` / :func:`dispatch_batch` run tokens through the layer.
  ``dispatch_batch`` sorts the (token, slot) assignments by expert once
  (:func:`group_by_expert`). The batch's shape and thread count then pick
  the path. A one-thread batch whose workspace bound is at most
  :data:`GROUPED_WORKSPACE` elements is laid out once as expert-contiguous
  row blocks (:func:`row_blocks`); each FFN layer is one grouped product
  over all experts (:func:`grouped_forward`), and each token's rows are
  added into a zeroed output slot by slot. A larger batch, or one given a
  thread pool, evaluates one batch per expert and adds each expert's rows
  straight into a zeroed output, experts in ascending order. Either way the
  output is bitwise identical to looping ``moe_forward`` over tokens
  (:func:`dispatch_loop`): selections ascend strictly along a row, so all
  three add the selected experts' outputs in ascending expert order on top
  of a zero buffer, and all matrix products share the kernel's row-stable
  reduction order. The training backward in :mod:`moeforge.harness` follows
  the forward's path: on the grouped one it reuses the forward's layout,
  padded input and pre-activation (:func:`grouped_backward`). Either path
  fills one gradient stack, with a zero row for each expert left empty.
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

from .ffn import FfnGrads, FfnParams, ffn_forward, ffn_forward_batch
from .numkernel import (
    ROW_BLOCK,
    STREAM_ROUTER,
    ShapeError,
    activation_pair,
    ensure_finite,
    make_rng,
    mm,
    mm_grouped,
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
    """The supernet: config, replica-major expert stack, router.

    ``experts`` is one stacked FfnParams of n_experts FFNs with hidden width
    H/k; ``experts[e]`` is expert e, a view into the stack.
    """

    config: MoeConfig
    experts: FfnParams
    router: RouterParams

    def __post_init__(self):
        cfg = self.config
        want = (cfg.n_experts, cfg.expert_hidden_dim, cfg.token_dim)
        if self.experts.w1.shape != want:
            raise ShapeError("MoeLayer", self.experts.w1.shape, want)
        if self.router.w_r.shape != (cfg.n_experts, cfg.token_dim):
            raise ShapeError("MoeLayer", self.router.w_r.shape, (cfg.n_experts, cfg.token_dim))

    def copy(self) -> "MoeLayer":
        return MoeLayer(self.config, self.experts.copy(), self.router.copy())


def _split_stack(p: FfnParams, granularity: int, replicas: int) -> FfnParams:
    """``replicas`` copies of p's ``granularity``-way split, as one stack.

    Each array is one fresh allocation, filled from reshaped views of p.
    """
    if p.w1.ndim != 2:
        raise ShapeError("split_ffn", p.w1.shape)
    if granularity < 1:
        raise ValueError(f"split_ffn: granularity must be >= 1, got {granularity}")
    if p.hidden_dim % granularity != 0:
        raise ValueError(f"split_ffn: hidden_dim {p.hidden_dim} not divisible by granularity {granularity}")
    width, dim = p.hidden_dim // granularity, p.token_dim
    parts = (p.w1.reshape(granularity, width, dim),
             p.b1.reshape(granularity, width),
             p.w2.reshape(dim, granularity, width).transpose(1, 0, 2),
             np.broadcast_to(p.b2 / granularity, (granularity, dim)))
    n = replicas * granularity
    stacks = (np.array(np.broadcast_to(a, (replicas,) + a.shape), order="C") for a in parts)
    return FfnParams(*(a.reshape((n,) + a.shape[2:]) for a in stacks), p.activation)


def split_ffn(p: FfnParams, granularity: int) -> FfnParams:
    """Slice one FFN into a stack of `granularity` experts whose outputs sum to p's output.

    Expert j takes rows [j*H/k, (j+1)*H/k) of w1/b1, the matching columns of
    w2, and b2 / k. The stack holds copies: training it leaves p unchanged.
    """
    return _split_stack(p, granularity, 1)


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
    """Stack n_replicas copies of the base FFN's split, attach a grouped router."""
    if base.w1.shape != (cfg.hidden_dim, cfg.token_dim):
        raise ShapeError("expand_supernet", base.w1.shape, (cfg.hidden_dim, cfg.token_dim))
    experts = _split_stack(base, cfg.granularity, cfg.n_replicas)
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
    if not np.isfinite(flat).all():
        odd = ~np.isfinite(flat).all(axis=1)
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
    out = np.zeros(cfg.token_dim, dtype=np.result_type(x, layer.experts.w1))
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
    out = np.empty((n, cfg.token_dim), dtype=np.result_type(tokens, layer.experts.w1))
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
    per group, because selections ascend strictly along a row. order is the
    sort itself: the flat index ``token * top_k + slot`` of each assignment,
    in the same grouped order.
    """

    token_ids: np.ndarray
    offsets: np.ndarray
    order: np.ndarray

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
    return ExpertGroups(order // selected.shape[1], offsets, order)


# Largest workspace, in array elements, of a batch whose expert products are
# grouped (see _grouped_workspace). Small batches gain because a grouped
# product replaces one Python-level call per expert; large ones lose,
# because scattering the (tokens * top_k, dim) rows and gathering a weight
# copy per block cost more than that saves, and the slot-sized buffers are
# the memory the per-expert path avoids. Median dispatch_batch call, grouped
# against per-expert (2 vCPUs, numpy 2.4.6, OpenBLAS 0.3.31): at the default
# tune shape (D=8, 16 experts of width 16, top-2), 64 / 512 / 1024 tokens
# (workspace 41k / 74k / 111k) ran at 2.4x / 2.6x / 1.5x the per-expert
# speed, 1536 / 2048 / 10000 tokens (147k / 184k / 756k) at 0.96x / 0.86x /
# 0.77x; the bench-dispatch default shape at 64 tokens (5.9M) at 0.65x;
# dispatch-fine's shape at 16384 tokens (31M) at 0.49x. The bound is a
# proxy: dispatch-fine's shape at 512 tokens (2.8M) still ran at 1.29x.
GROUPED_WORKSPACE = 2**17


def _grouped_workspace(n_tokens: int, cfg: MoeConfig) -> int:
    """Upper bound on the grouped path's workspace for a batch, in elements.

    Padded rows times (2 * dim + hidden) for the padded input, pre-activation
    and output, plus blocks times 2 * dim * hidden for the gathered weights.
    No expert needs more than one partly filled block, so a batch needs at
    most ``assignments // ROW_BLOCK + min(n_experts, assignments)`` blocks,
    whatever the routing.
    """
    assignments = n_tokens * cfg.top_k
    blocks = assignments // ROW_BLOCK + min(cfg.n_experts, assignments)
    dim, hidden = cfg.token_dim, cfg.expert_hidden_dim
    return blocks * (ROW_BLOCK * (2 * dim + hidden) + 2 * dim * hidden)


class RowBlocks(NamedTuple):
    """A batch's (token, slot) assignments laid out in expert-contiguous row blocks.

    Expert e's assignments fill the padded rows ``starts[e]`` to
    ``starts[e] + counts[e]``, tokens ascending, and zero rows pad them to a
    whole number of ROW_BLOCK-row blocks. block_expert holds the expert of
    every block; ``pos[t, j]`` is the padded row of token t's slot j.
    """

    pos: np.ndarray
    block_expert: np.ndarray
    starts: np.ndarray
    counts: np.ndarray

    @property
    def rows(self) -> int:
        return len(self.block_expert) * ROW_BLOCK

    def scatter(self, per_token: np.ndarray) -> np.ndarray:
        """Padded copy of a (tokens, dim) array: row t at every ``pos[t]``, zeros elsewhere."""
        padded = np.zeros((self.rows, per_token.shape[1]), dtype=per_token.dtype)
        padded[self.pos] = per_token[:, None, :]
        return padded

    def fold(self, padded: np.ndarray, out: np.ndarray) -> None:
        """Add each token's padded rows into ``out`` in place, slot by slot.

        Slots ascend with the expert index, so every row of ``out`` gets its
        experts in ascending order, the order of :func:`add_rows` per expert.
        """
        for j in range(self.pos.shape[1]):
            out += padded.take(self.pos[:, j], axis=0)


def row_blocks(groups: ExpertGroups, top_k: int) -> RowBlocks:
    """The block layout of a grouping, from its sort alone."""
    counts = np.diff(groups.offsets)
    blocks = -(-counts // ROW_BLOCK)
    starts = (np.cumsum(blocks) - blocks) * ROW_BLOCK
    pos = np.empty(len(groups.order), dtype=np.intp)
    pos[groups.order] = np.arange(len(groups.order)) + np.repeat(starts - groups.offsets[:-1], counts)
    return RowBlocks(pos.reshape(-1, top_k), np.repeat(np.arange(len(counts)), blocks), starts, counts)


class GroupedForward(NamedTuple):
    """What the grouped expert forward keeps for the backward.

    The layout, the padded input x and the padded pre-activation z1, all in
    the layout's rows.
    """

    blocks: RowBlocks
    x: np.ndarray
    z1: np.ndarray


def grouped_forward(experts: FfnParams, tokens: np.ndarray, blocks: RowBlocks):
    """Every expert output of a batch in one grouped product per layer.

    Returns (padded outputs, GroupedForward). Row ``pos[t, j]`` of the
    outputs is bitwise ``ffn_forward_batch`` of expert ``selected[t, j]`` on
    token t: each block's gemm call has the shape of an ``mm`` call, and the
    bias and activation act element by element.
    """
    act, _ = activation_pair(experts.activation)
    be = blocks.block_expert
    x = blocks.scatter(tokens)
    # each row gets its own expert's bias, the add of ``mm(...) + b``
    z1 = mm_grouped(x, experts.w1.transpose(0, 2, 1), be) + np.repeat(experts.b1[be], ROW_BLOCK, axis=0)
    y = mm_grouped(act(z1), experts.w2.transpose(0, 2, 1), be) + np.repeat(experts.b2[be], ROW_BLOCK, axis=0)
    return y, GroupedForward(blocks, x, z1)


def grouped_backward(experts: FfnParams, saved: GroupedForward, upstream: np.ndarray):
    """The backward of :func:`grouped_forward`, on the forward's own layout.

    Returns (the experts' stacked FfnGrads, the (tokens, dim) input
    gradient). Row e bitwise equals ``ffn_backward_batch`` of expert e, or
    is zero if e got no tokens, and input gradients add per expert in
    ascending order: the row-wise products ``dz1`` and ``dx`` are grouped,
    while the weight-gradient products, which reduce over an expert's token
    count, run per expert on row slices of the padded buffers: padding would
    change the length of their reduction, which a BLAS may round differently.
    """
    blocks, x, z1 = saved
    act, act_grad = activation_pair(experts.activation)
    be = blocks.block_expert
    dy = blocks.scatter(upstream)
    a = act(z1)
    dz1 = mm_grouped(dy, experts.w2, be) * act_grad(z1)
    dx = mm_grouped(dz1, experts.w1, be)
    grads = FfnGrads.zeros(experts)
    for e in np.flatnonzero(blocks.counts).tolist():
        r = slice(blocks.starts[e], blocks.starts[e] + blocks.counts[e])
        grads[e] = FfnGrads(mm(dz1[r].T, x[r]), dz1[r].sum(axis=0), mm(dy[r].T, a[r]), dy[r].sum(axis=0))
    du = np.zeros_like(upstream)
    blocks.fold(dx, du)
    return grads, du


class Dispatch(tuple):
    """``(out, trace)``, as :func:`dispatch_batch` returns them.

    It unpacks to that pair. Like ``os.stat_result``, it carries one more
    value by name only: ``grouped``, the :class:`GroupedForward` of the
    grouped path, which the training backward reuses; None on the
    per-expert path.
    """

    def __new__(cls, out: np.ndarray, trace: RoutingTrace, grouped: GroupedForward | None = None):
        result = super().__new__(cls, (out, trace))
        result.grouped = grouped
        return result


def dispatch_batch(layer: MoeLayer, tokens: np.ndarray, threads: int = 1) -> Dispatch:
    """Route a whole batch, then evaluate its experts batched.

    :func:`group_by_expert` sorts the assignments by expert once. The batch's
    shape and ``threads`` then pick one of two paths with the same bits:

    * grouped, when ``threads`` is 1 and the workspace bound of
      :func:`_grouped_workspace` is at most ``GROUPED_WORKSPACE`` elements
      (small batches, such as a tune's training batch and probe): the
      assignments are laid out once as expert-contiguous row blocks
      (:func:`row_blocks`), each FFN layer is one
      :func:`~moeforge.numkernel.mm_grouped` call over all experts on the
      calling thread, and each token's rows are added into a zeroed
      (tokens, dim) output slot by slot;
    * per expert, otherwise: each expert that received tokens evaluates
      them in one call (across a pool of ``threads`` threads when it is
      above 1, with BLAS held at one thread meanwhile), and its rows are
      added straight into the zeroed output, experts in ascending order;
      with a pool, the calling thread adds each expert's result as the
      pool yields it, in that same order. A pool is honoured whatever the
      batch size, because the grouped product has no per-expert work to
      hand out to it.

    Selected indices ascend strictly along a row, so either way every token
    gets zero plus its experts in ascending order, the fold of
    :func:`moe_forward`; with the kernel's row-stable products the result
    is bitwise identical to :func:`dispatch_loop`.
    """
    tokens = np.asarray(tokens)
    cfg = layer.config
    if tokens.ndim != 2 or tokens.shape[1] != cfg.token_dim:
        raise ShapeError("dispatch_batch", tokens.shape, (cfg.token_dim,))
    scores = route_batch(layer.router, tokens)
    selected = top_k_select_rows(scores, cfg.top_k)
    trace = RoutingTrace(cfg.top_k, scores, selected)

    groups = group_by_expert(selected, cfg.n_experts)
    out = np.zeros((tokens.shape[0], cfg.token_dim), dtype=np.result_type(tokens, layer.experts.w1))
    if threads == 1 and _grouped_workspace(tokens.shape[0], cfg) <= GROUPED_WORKSPACE:
        blocks = row_blocks(groups, cfg.top_k)
        rows, saved = grouped_forward(layer.experts, tokens, blocks)
        blocks.fold(rows, out)
        return Dispatch(out, trace, saved)

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
    return Dispatch(out, trace)


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
    """Exact gradient of aux_weight * load_balance_loss(trace) through the router.

    Assignment fractions are held constant; only the score means
    differentiate. Returns (d w_r, d b_r, d logits); ``mm(d_logits, w_r)``
    is the loss's gradient with respect to the tokens.
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
    return d_wr, d_br, c
