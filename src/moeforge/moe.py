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
* :func:`dispatch_loop` / :func:`dispatch_batch` run tokens through the layer.
  ``dispatch_loop`` is the per-token reference: each token is a one-row
  batch through :func:`route_batch`, :func:`top_k_select_rows` and
  :func:`~moeforge.ffn.ffn_forward_batch`. Both return a
  :class:`RoutingTrace`, which checks the (tokens, top_k) selection.
  ``dispatch_batch`` sorts its trace's assignments by expert once and lays
  them out as expert-contiguous row blocks (:func:`row_blocks`), walked in
  chunks of consecutive experts under a fixed workspace cap
  (:data:`CHUNK_ELEMENTS`), at every batch size and thread count. Each FFN
  layer of a chunk is one grouped product over its experts, or one product
  per expert where the weights are too large to gather, and each token's
  rows are added into a zeroed output slot by slot, chunk after chunk. The
  output is bitwise identical to ``dispatch_loop``'s: chunks ascend by
  expert and selections ascend strictly along a row, so both add the
  selected experts' outputs in ascending expert order on top of a zero
  buffer, and all matrix products share the kernel's row-stable reduction
  order. Training lays out a step's whole forward as one chunk
  (:func:`dispatch_whole`): its batch, with the probe of the step before
  after it. The backward reuses that layout, padded input and
  pre-activation for the batch's rows alone, which lead each expert's rows
  (:func:`grouped_backward`), filling one gradient stack with a zero row
  for each expert the batch left empty.
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

import contextvars
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .ffn import FfnGrads, FfnParams, ffn_forward_batch
from .numkernel import (
    ROW_BLOCK,
    STREAM_ROUTER,
    ShapeError,
    activation_pair,
    check_seed,
    check_size,
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
    top_k: Optional[int] = None  # None tracks granularity, the usual deployment
    seed: int = 0

    def __post_init__(self):
        if self.top_k is None:
            self.top_k = self.granularity
        for name in ("token_dim", "hidden_dim", "n_replicas", "granularity"):
            check_size(f"MoeConfig: {name}", getattr(self, name))
        if self.hidden_dim % self.granularity != 0:
            raise ValueError(
                f"MoeConfig: hidden_dim {self.hidden_dim} not divisible by granularity {self.granularity}"
            )
        if not 1 <= self.top_k <= self.n_experts:
            raise ValueError(f"MoeConfig: top_k {self.top_k} out of range [1, {self.n_experts}]")
        check_seed("MoeConfig: seed", self.seed)

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


@dataclass
class RoutingTrace:
    """Per-token gates for one batch, stored columnarly.

    scores is (tokens, n_experts) softmax scores; selected is (tokens,
    top_k) expert indices of an integer dtype (a cast would truncate a
    float one), in [0, n_experts) and strictly ascending along every row,
    else ``ValueError``: a token's experts are distinct, so the co-selection
    diagonal is zero and :meth:`RowBlocks.fold` adds each once, in
    dispatch_loop's order. Scores are unchecked: a diverging run routes
    NaN scores before its divergence check. An empty batch is legal and
    keeps n_experts in the scores shape.
    """

    scores: np.ndarray
    selected: np.ndarray

    def __post_init__(self):
        self.scores = np.asarray(self.scores)
        self.selected = np.asarray(self.selected)
        if not np.issubdtype(self.selected.dtype, np.integer):
            raise ValueError(f"RoutingTrace: selected must hold integers, got dtype {self.selected.dtype}")
        self.selected = self.selected.astype(np.int64, copy=False)
        if self.scores.ndim != 2 or self.selected.ndim != 2 or len(self.selected) != len(self.scores):
            raise ShapeError("RoutingTrace", self.scores.shape, self.selected.shape)
        if self.selected.size and (self.selected.min() < 0 or self.selected.max() >= self.n_experts):
            raise ValueError(f"RoutingTrace: expert index out of range [0, {self.n_experts})")
        if not np.all(np.diff(self.selected, axis=1) > 0):
            raise ValueError("RoutingTrace: selected experts must ascend strictly along every row")

    @property
    def n_tokens(self) -> int:
        return self.scores.shape[0]

    @property
    def n_experts(self) -> int:
        return self.scores.shape[1]

    @property
    def top_k(self) -> int:
        return self.selected.shape[1]


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
    check_size("split_ffn: granularity", granularity)
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


def dispatch_loop(layer: MoeLayer, tokens: np.ndarray):
    """Sequential reference path: each token routed, gated and evaluated as a one-row batch.

    This is the plain loop the batched engine is checked against (and the
    baseline the bench command times). A token's selected experts are added
    on top of a zero row in ascending index order, the exact fold
    dispatch_batch reproduces. Output, scores and selection are shaped and
    typed as dispatch_batch's, an empty batch included.

    The expert stack is laid out once per call, not once per product: the
    call takes one view of the stack whose w1 and w2 are transposed views of
    C-contiguous copies, so each ``experts[e].w.T`` that :func:`mm` receives
    is already in the C-contiguous layout mm brings every operand to, and
    the kernel sees the same operands and returns the same bits. The router,
    a single (n_experts, dim) weight, is read as stored. Nothing is kept
    between calls, so weights updated in place are read afresh.
    """
    tokens = np.asarray(tokens)
    cfg = layer.config
    if tokens.ndim != 2 or tokens.shape[1] != cfg.token_dim:
        raise ShapeError("dispatch_loop", tokens.shape, (cfg.token_dim,))
    n = tokens.shape[0]
    out = np.zeros((n, cfg.token_dim), dtype=np.result_type(tokens, layer.experts.w1))
    scores = np.empty((n, cfg.n_experts), dtype=np.result_type(tokens, layer.router.w_r, layer.router.b_r))
    selected = np.empty((n, cfg.top_k), dtype=np.int64)
    experts = layer.experts[:]
    experts.w1, experts.w2 = (np.ascontiguousarray(w.swapaxes(-1, -2)).swapaxes(-1, -2)
                              for w in (experts.w1, experts.w2))
    for t in range(n):
        x = tokens[t:t + 1]
        scores[t] = route_batch(layer.router, x)[0]
        selected[t] = top_k_select_rows(scores[t:t + 1], cfg.top_k)[0]
        for e in selected[t].tolist():
            out[t] += ffn_forward_batch(experts[e], x)[0]
    return out, RoutingTrace(scores, selected)


# Array elements of workspace in one chunk of dispatch_batch: a padded row
# holds its input, pre-activation, activation and output, 2 * (dim + hidden),
# and its share of a gathered weight, dim * hidden / ROW_BLOCK. The cap
# bounds memory, not the bits. Small chunks run faster, as an array above
# ~128 KB comes from fresh, page-faulting pages: median dispatch_batch call
# at a cap of 2^15 / 2^16 / 2^17 / 2^18 / 2^19 (2 vCPUs, numpy 2.4.6,
# OpenBLAS 0.3.31), dispatch-fine's shape (D=64, 128 experts of width 32,
# top-8) at 16384 tokens 153 / 152 / 157 / 164 / 176 ms and at 512 tokens
# 10.1 / 8.0 / 7.2 / 13.4 / 14.4 ms, the tune shape at 10000 tokens 9.3 /
# 8.7 / 9.3 / 9.8 / 12.2 ms; a tune's 512-token probe is one chunk from 2^17.
CHUNK_ELEMENTS = 2**17


class RowBlocks(NamedTuple):
    """Assignments to a run of consecutive experts, laid out in expert-contiguous row blocks.

    The run is experts ``first`` to ``first + len(counts) - 1``, indexed
    here from ``first``. Expert e's assignments fill the padded rows
    ``starts[e]`` to ``starts[e] + counts[e]``, tokens ascending, and
    padding rows fill its last block; block_expert holds the expert of every
    block and row_token the token of every row. A padding row repeats token
    0: products are row-stable, so it changes no other row, and it is never
    read back. slots[j] is (tokens, rows) of the run's slot-j assignments:
    token ids, or a slice for every token, and their rows.
    """

    first: int
    block_expert: np.ndarray
    starts: np.ndarray
    counts: np.ndarray
    row_token: np.ndarray
    slots: list[tuple[np.ndarray | slice, np.ndarray]]

    def scatter(self, per_token: np.ndarray) -> np.ndarray:
        """The layout's copy of a (tokens, dim) array: row i is ``per_token[row_token[i]]``."""
        return per_token.take(self.row_token, axis=0)

    def fold(self, padded: np.ndarray, out: np.ndarray) -> None:
        """Add each assignment's padded row into its token's row of ``out``; ``padded`` is consumed.

        Slot by slot, or expert by expert where the run holds fewer live
        experts than slots: there that makes fewer gathers and stores, each
        adding into an expert's slice of ``padded`` where a slot takes a copy
        of its rows. Either way each row of ``out`` gets the run's experts in
        ascending order: slots ascend with the expert index, and an expert's
        rows hold distinct tokens. Take (or a slice), add and store back
        costs less than a fancy-indexed ``+=``. Fold alone, 40 alternating
        calls on 2 vCPUs, expert by expert against slot by slot: 1.19x
        faster (38 of 40) over dispatch-dense's 16 one-expert runs (2
        slots), 1.09x (39 of 40) over dispatch-fine's 128 (8 slots), and 8x
        slower over a tune step's one run of 16 experts in 2 slots.
        """
        live = np.flatnonzero(self.counts).tolist()
        if len(live) < len(self.slots):
            for e in live:
                r = slice(self.starts[e], self.starts[e] + self.counts[e])
                add, tokens = padded[r], self.row_token[r]
                add += out[tokens]
                out[tokens] = add
            return
        for tokens, rows in self.slots:
            add = padded.take(rows, axis=0)
            add += out[tokens]
            out[tokens] = add


def row_blocks(trace: RoutingTrace, max_rows: int | None = None) -> list[RowBlocks]:
    """The block layout of a trace's selection, cut into runs of consecutive experts, ascending.

    The assignments are sorted by expert with one stable sort of the
    token-major flattened selection, so tokens ascend within each expert.
    The sort key is the smallest unsigned type that holds ``n_experts - 1``:
    for 8- and 16-bit keys numpy's stable sort is a radix sort, and a stable
    order is unique, so the key width does not change the result. The
    trace's rows ascend strictly, so each token's slots hold distinct
    experts in ascending order, the order :meth:`RowBlocks.fold` adds them.

    A run holds the experts whose first padded row falls in one window of
    ``max_rows`` rows, so it spans at most ``max_rows`` rows plus its last
    expert's; without max_rows every expert is in one run. Several runs
    take their slots from one stable sort of the assignments by (run, slot).
    """
    n_experts, top_k = trace.n_experts, trace.top_k
    flat = trace.selected.ravel()
    order = np.argsort(flat.astype(np.min_scalar_type(n_experts - 1)), kind="stable")
    counts = assignment_counts(trace)
    blocks = -(-counts // ROW_BLOCK)
    ends = np.cumsum(blocks) * ROW_BLOCK
    starts = ends - blocks * ROW_BLOCK
    rows = np.arange(flat.size) + np.repeat(starts - (np.cumsum(counts) - counts), counts)
    token_ids = order // top_k
    row_token = np.zeros(ends[-1], dtype=np.intp)
    row_token[rows] = token_ids
    block_expert = np.repeat(np.arange(n_experts), blocks)
    # One run, such as a training batch or a tune's probe, takes each slot's
    # rows from the token-major order: a default tune step with its probe
    # ran 1.02-1.35x (median 1.2x) faster this way than through the sort (2 vCPUs).
    if max_rows is None or starts[-1] < max_rows:
        pos = np.empty(len(rows), dtype=np.intp)
        pos[order] = rows
        pos = pos.reshape(-1, top_k)
        return [RowBlocks(0, block_expert, starts, counts, row_token, [(slice(None), c) for c in pos.T])]
    run = np.cumsum(np.diff(starts // max_rows, prepend=0) > 0)
    edges = [0, *(np.flatnonzero(np.diff(run)) + 1).tolist(), n_experts]
    keys = (len(edges) - 1) * top_k
    key = (np.repeat(run * top_k, counts) + order % top_k).astype(np.min_scalar_type(keys - 1))
    by_key = np.argsort(key, kind="stable")
    bounds = [0, *np.cumsum(np.bincount(key, minlength=keys)).tolist()]
    token_ids, rows = token_ids[by_key], rows[by_key]
    runs = []
    for r, (e0, e1) in enumerate(zip(edges, edges[1:])):
        r0, r1 = int(starts[e0]), int(ends[e1 - 1])
        b = bounds[r * top_k:(r + 1) * top_k + 1]
        slots = [(token_ids[lo:hi], rows[lo:hi] - r0) for lo, hi in zip(b, b[1:])]
        runs.append(RowBlocks(e0, block_expert[r0 // ROW_BLOCK:r1 // ROW_BLOCK] - e0, starts[e0:e1] - r0,
                              counts[e0:e1], row_token[r0:r1], slots))
    return runs


class GroupedForward(NamedTuple):
    """What :func:`dispatch_whole` keeps for the backward: the layout, its padded input and pre-activation."""

    blocks: RowBlocks
    x: np.ndarray
    z1: np.ndarray


def _expert_products(a: np.ndarray, w: np.ndarray, b: np.ndarray, blocks: RowBlocks) -> np.ndarray:
    """Each block of ``a``'s rows times its expert's ``w.T``, plus its ``b``.

    Row for row the bits of ``mm(rows, w[e].T) + b[e]``: every gemm call
    has mm's (ROW_BLOCK, n) @ (n, p) shape, and the bias adds element-wise.
    """
    p, n = w.shape[1:]
    be = blocks.block_expert
    # One grouped product gathers a weight copy for every block, n * p
    # elements against the block's ROW_BLOCK * (n + p); dearer copies make
    # each expert multiply its own blocks by its own weight. Median
    # dispatch_batch call, own weights against gathered (2 vCPUs): 1.07-1.09x
    # the time at D=8 width 16, D=64 width 32 and D=64 width 128; 0.95x at
    # D=128 width 128, on the boundary; 0.58x at D=256 width 512.
    if n * p <= ROW_BLOCK * (n + p):
        # the bias is added in place, at the dtype ``mm(...) + b`` would have
        out = mm_grouped(a, w.transpose(0, 2, 1), be).astype(np.result_type(a, w, b), copy=False)
        out.reshape(-1, ROW_BLOCK, p)[...] += b[be][:, None, :]
        return out
    live = np.flatnonzero(blocks.counts).tolist()
    if len(live) == 1:  # its blocks are all of a's rows (a dispatch-dense chunk): mm's output is the result
        out = mm(a, w[live[0]].T).astype(np.result_type(a, w, b), copy=False)
        out += b[live[0]]
        return out
    out = np.empty((len(a), p), dtype=np.result_type(a, w, b))
    for e in live:
        r = slice(blocks.starts[e], blocks.starts[e] + -(-blocks.counts[e] // ROW_BLOCK) * ROW_BLOCK)
        np.add(mm(a[r], w[e].T), b[e], out=out[r])
    return out


def grouped_backward(experts: FfnParams, saved: GroupedForward, upstream: np.ndarray, input_grad: bool = True):
    """The backward of :func:`dispatch_whole`'s expert forward for its first ``len(upstream)`` tokens.

    Returns (the experts' stacked FfnGrads, the (tokens, dim) input
    gradient, or None without ``input_grad``, which skips the ``dx``
    product and its fold). The forward may have carried more tokens after
    these, as a training batch carries the probe: the layout's sort is
    stable, so each expert's rows hold these tokens first, and each weight
    gradient reduces over exactly those rows. The backward keeps only the
    blocks that hold these tokens' rows, each expert's first ones, in a
    layout of their own; a later token's row left in them, and padding, gets
    a zero upstream and is never read. Row e of each gradient bitwise equals
    ``ffn_backward_batch`` of expert e over these tokens, or is zero if e
    got none of them, and input gradients add per expert in ascending order:
    the row-wise products ``dz1`` and ``dx`` are grouped, while the
    weight-gradient products, which reduce over an expert's token count, run
    per expert on row slices of the padded buffers: padding would change the
    length of their reduction, which a BLAS may round differently. Over a
    default 200-step tune (64 tokens, a 512-token probe) the kept blocks
    averaged 8.5 of the joint layout's 24.4.
    """
    blocks, x, z1 = saved
    act, act_grad = activation_pair(experts.activation)
    rows = [r[:len(upstream)] for _, r in blocks.slots]  # one run: each slot's rows, by token
    # the blocks holding these tokens' rows, each expert's first ones, laid out again without the rest
    counts = np.bincount(blocks.block_expert[np.concatenate(rows) // ROW_BLOCK], minlength=len(blocks.counts))
    held = -(-counts // ROW_BLOCK)
    starts = (np.cumsum(held) - held) * ROW_BLOCK
    keep = np.repeat((blocks.starts - starts) // ROW_BLOCK, held) + np.arange(held.sum())
    rows = [r + (starts - blocks.starts)[blocks.block_expert[r // ROW_BLOCK]] for r in rows]
    be = blocks.block_expert[keep]
    x, z1 = (buf.reshape(-1, ROW_BLOCK, buf.shape[1])[keep].reshape(-1, buf.shape[1]) for buf in (x, z1))
    dy = np.zeros((len(x), upstream.shape[1]), dtype=upstream.dtype)
    for r in rows:
        dy[r] = upstream
    a = act(z1)
    dz1 = mm_grouped(dy, experts.w2, be) * act_grad(z1)
    g_w1, g_b1, g_w2, g_b2 = (np.zeros_like(w) for w in (experts.w1, experts.b1, experts.w2, experts.b2))
    for e in np.flatnonzero(counts).tolist():
        r = slice(starts[e], starts[e] + counts[e])
        g_w1[e], g_b1[e] = mm(dz1[r].T, x[r]), dz1[r].sum(axis=0)
        g_w2[e], g_b2[e] = mm(dy[r].T, a[r]), dy[r].sum(axis=0)
    grads = FfnGrads(g_w1, g_b1, g_w2, g_b2)
    if not input_grad:
        return grads, None
    dx = mm_grouped(dz1, experts.w1, be)
    du = np.zeros_like(upstream)
    for r in rows:
        add = dx.take(r, axis=0)
        add += du
        du[...] = add
    return grads, du


def _route_and_lay_out(layer: MoeLayer, tokens: np.ndarray, op: str, max_rows: int | None):
    """(tokens, zeroed output, trace, ``row_blocks`` runs) of a batch: what every dispatch starts from."""
    tokens = np.asarray(tokens)
    cfg = layer.config
    if tokens.ndim != 2 or tokens.shape[1] != cfg.token_dim:
        raise ShapeError(op, tokens.shape, (cfg.token_dim,))
    scores = route_batch(layer.router, tokens)
    trace = RoutingTrace(scores, top_k_select_rows(scores, cfg.top_k))
    out = np.zeros((tokens.shape[0], cfg.token_dim), dtype=np.result_type(tokens, layer.experts.w1))
    return tokens, out, trace, row_blocks(trace, max_rows)


def dispatch_batch(layer: MoeLayer, tokens: np.ndarray, threads: int = 1):
    """Route a whole batch, then evaluate its experts chunk by chunk; returns (out, trace).

    The assignments are sorted by expert once and laid out in row blocks
    cut into chunks of consecutive experts under a workspace cap
    (:func:`row_blocks`, CHUNK_ELEMENTS). Each chunk's expert
    outputs (:func:`_expert_products`) are added into a zeroed output slot by
    slot. With ``threads`` above 1, a pool computes the chunks while the
    calling thread adds them in chunk order, BLAS held at one thread: at the
    bench-dispatch default shape on 2 vCPUs, 0.23 s a call against 0.33 s
    with BLAS threads on top. Each chunk runs in a copy of the caller's
    context, so the caller's ``np.errstate`` holds in the pool too. Chunks
    ascend by expert and selections ascend strictly along a row, so every
    token gets zero plus its experts in ascending order, as in
    :func:`dispatch_loop`: with the kernel's row-stable products the result
    is bitwise dispatch_loop's at any batch size and thread count.
    """
    hidden, dim = layer.experts.w1.shape[1:]
    max_rows = max(CHUNK_ELEMENTS // (2 * (dim + hidden) + dim * hidden // ROW_BLOCK), 1)
    tokens, out, trace, chunks = _route_and_lay_out(layer, tokens, "dispatch_batch", max_rows)
    act, _ = activation_pair(layer.experts.activation)

    def expert_rows(blocks: RowBlocks) -> np.ndarray:
        # dispatch_whole's forward, freeing input and pre-activation once used (dispatch-dense: 248 MB, not 264)
        experts = layer.experts[blocks.first:blocks.first + len(blocks.counts)]
        z1 = _expert_products(blocks.scatter(tokens), experts.w1, experts.b1, blocks)
        return _expert_products(act(z1, out=z1), experts.w2, experts.b2, blocks)

    if threads > 1 and len(chunks) > 1:
        with single_blas_thread(), ThreadPoolExecutor(max_workers=threads) as pool:
            contexts = [contextvars.copy_context() for _ in chunks]  # one each: a Context admits one thread
            for blocks, rows in zip(chunks, pool.map(lambda c, b: c.run(expert_rows, b), contexts, chunks)):
                blocks.fold(rows, out)
    else:
        for blocks in chunks:
            blocks.fold(expert_rows(blocks), out)
    return out, trace


def dispatch_whole(layer: MoeLayer, tokens: np.ndarray):
    """:func:`dispatch_batch` with the whole batch as one chunk, keeping its forward.

    Returns (out, trace, GroupedForward), out and trace bitwise those of
    dispatch_batch. For training: the backward needs the padded input and
    pre-activation, which dispatch_batch's chunks free as soon as they are
    used, and :func:`grouped_backward` indexes the whole expert stack from
    expert 0, so every expert must be in one run.
    """
    tokens, out, trace, [blocks] = _route_and_lay_out(layer, tokens, "dispatch_whole", None)
    experts = layer.experts
    act, _ = activation_pair(experts.activation)
    x = blocks.scatter(tokens)
    z1 = _expert_products(x, experts.w1, experts.b1, blocks)
    blocks.fold(_expert_products(act(z1), experts.w2, experts.b2, blocks), out)
    return out, trace, GroupedForward(blocks, x, z1)


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
    """Training objective: task loss plus alpha-weighted balance loss; inf or NaN if it overflows."""
    return float(task) + float(alpha) * float(aux)


def balance_loss_backward(trace: RoutingTrace, tokens: np.ndarray, aux_weight: float):
    """Exact gradient of aux_weight * load_balance_loss(trace) through the router.

    Assignment fractions are held constant, at the scores' dtype; only the
    score means differentiate. Returns (d w_r, d b_r, d logits);
    ``mm(d_logits, w_r)`` is the loss's gradient with respect to the tokens.
    """
    tokens = np.asarray(tokens)
    if trace.n_tokens < 1:
        raise ValueError("balance_loss_backward: empty trace")
    if tokens.shape[0] != trace.n_tokens:
        raise ShapeError("balance_loss_backward", tokens.shape, trace.scores.shape)
    f = assignment_fractions(trace).astype(trace.scores.dtype, copy=False)
    w = (aux_weight * trace.n_experts / trace.n_tokens) * f
    s = trace.scores
    inner = np.sum(s * w, axis=1, keepdims=True)
    c = s * (w[None, :] - inner)
    d_wr = mm(c.T, tokens)
    d_br = c.sum(axis=0)
    return d_wr, d_br, c
