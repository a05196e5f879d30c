"""Desk-scale two-stage experiment harness.

Stage A pretrains a dense toy model (frozen input rotation, one FFN block,
trainable linear head) on a synthetic clustered-regression task: tokens are
noisy samples around pattern centers, targets apply a per-pattern linear map.
Stage B expands the trained FFN into a mixture-of-experts supernet and
fine-tunes it; because expansion preserves the base function exactly, the
first evaluation must match the base model's and training can only move down
from there.

The task stands in for a detection objective: it is built so that a single
FFN at the configured width underfits the pattern-conditional maps while a
routed mixture can dedicate experts per pattern.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .analytics import CoSelectionMatrix, co_selection, mean_partner_count, pattern_specialization
from .ffn import FfnGrads, FfnParams, ffn_backward_batch, ffn_forward_batch, init_ffn
from .moe import (
    MoeConfig,
    MoeLayer,
    RoutingTrace,
    add_rows,
    assignment_fractions,
    balance_loss_backward,
    dispatch_batch,
    expand_supernet,
    group_by_expert,
    load_balance_loss,
    total_loss,
)
from .numkernel import (
    STREAM_EVAL,
    STREAM_GRADCHECK,
    STREAM_MODEL,
    STREAM_PROBE,
    STREAM_SHUFFLE,
    STREAM_TASK,
    STREAM_TRAIN,
    ShapeError,
    make_rng,
    mm,
)

STAGE_PRETRAIN = "pretrain"
STAGE_MOE_TUNE = "moe-tune"


class DivergenceError(RuntimeError):
    """Training loss exploded or went non-finite; the run is aborted."""


class IdentityViolation(RuntimeError):
    """A freshly expanded model failed to reproduce its base model's evaluation."""


@dataclass
class SyntheticTask:
    """Clustered linear-map regression.

    Tokens sample N(center_label, noise_std^2); the target applies the
    label's linear map to the token. Centers stay at least 4 * noise_std
    apart and every map is well-conditioned, so the patterns are separable
    and each is exactly solvable by a dedicated linear model.
    """

    n_patterns: int
    token_dim: int
    centers: np.ndarray
    maps: np.ndarray
    noise_std: float
    seed: int

    def __post_init__(self):
        self.centers = np.asarray(self.centers)
        self.maps = np.asarray(self.maps)
        m, d = self.n_patterns, self.token_dim
        if self.centers.shape != (m, d) or self.maps.shape != (m, d, d):
            raise ShapeError("SyntheticTask", self.centers.shape, self.maps.shape)
        if self.noise_std < 0:
            raise ValueError(f"SyntheticTask: noise_std must be >= 0, got {self.noise_std}")
        for i in range(m):
            for j in range(i + 1, m):
                dist = float(np.linalg.norm(self.centers[i] - self.centers[j]))
                if dist < 4.0 * self.noise_std:
                    raise ValueError(
                        f"SyntheticTask: centers {i},{j} are {dist:.4g} apart, "
                        f"need >= {4.0 * self.noise_std:.4g}"
                    )
        conds = [float(np.linalg.cond(self.maps[i])) for i in range(m)]
        if max(conds) > 100.0:
            raise ValueError(f"SyntheticTask: map condition number {max(conds):.4g} exceeds 100")


def _rotation(rng: np.random.Generator, dim: int, dtype=np.float64) -> np.ndarray:
    """Product of two Householder reflections: an orthogonal, well-conditioned map."""
    q = np.eye(dim)
    for _ in range(2):
        v = rng.normal(size=dim)
        v = v / np.linalg.norm(v)
        q = q - 2.0 * np.outer(v, mm(v[None, :], q)[0])
    return q.astype(dtype)


def make_task(n_patterns: int, token_dim: int, noise_std: float = 0.1,
              seed: int = 0, center_scale: float = 3.0, dtype=np.float64) -> SyntheticTask:
    """Draw a SyntheticTask whose invariants hold by construction.

    Centers are redrawn (deterministically) until the pairwise-distance
    floor is met; maps are scaled rotations with singular values in
    [0.7, 1.5], keeping the condition number around 2.
    """
    rng = make_rng(seed, STREAM_TASK)
    min_dist = 4.0 * noise_std
    for _ in range(128):
        centers = rng.normal(size=(n_patterns, token_dim))
        norms = np.linalg.norm(centers, axis=1, keepdims=True)
        centers = centers / norms * center_scale
        dists = [
            np.linalg.norm(centers[i] - centers[j])
            for i in range(n_patterns) for j in range(i + 1, n_patterns)
        ]
        if not dists or min(dists) >= min_dist:
            break
    else:
        raise ValueError("make_task: could not place centers far enough apart; "
                         "lower noise_std or raise center_scale")
    maps = np.stack([
        _rotation(rng, token_dim) * rng.uniform(0.7, 1.5, size=token_dim)
        for _ in range(n_patterns)
    ])
    return SyntheticTask(n_patterns, token_dim, centers.astype(dtype), maps.astype(dtype),
                         noise_std, seed)


def generate_batch(task: SyntheticTask, rng: np.random.Generator, size: int):
    """Sample (tokens, targets, labels): label uniform, token = center + noise, target = map(token)."""
    if size < 1:
        raise ValueError(f"generate_batch: size must be >= 1, got {size}")
    labels = rng.integers(0, task.n_patterns, size=size)
    noise = rng.normal(size=(size, task.token_dim)) * task.noise_std
    dtype = task.centers.dtype
    tokens = (task.centers[labels] + noise).astype(dtype, copy=False)
    targets = np.einsum("tij,tj->ti", task.maps[labels], tokens).astype(dtype, copy=False)
    return tokens, targets, labels


@dataclass
class ToyModel:
    """Frozen input rotation -> FFN or MoE block -> trainable linear head."""

    input_w: np.ndarray
    input_b: np.ndarray
    block: FfnParams | MoeLayer
    head_w: np.ndarray
    head_b: np.ndarray

    @property
    def kind(self) -> str:
        return "moe" if isinstance(self.block, MoeLayer) else "dense"

    @property
    def token_dim(self) -> int:
        return self.input_w.shape[1]

    def copy(self) -> "ToyModel":
        return ToyModel(self.input_w.copy(), self.input_b.copy(), self.block.copy(),
                        self.head_w.copy(), self.head_b.copy())


def init_toy_model(token_dim: int, hidden_dim: int, seed: int,
                   activation: str = "relu", dtype=np.float64) -> ToyModel:
    rng = make_rng(seed, STREAM_MODEL)
    input_w = _rotation(rng, token_dim, dtype)
    input_b = np.zeros(token_dim, dtype=dtype)
    block = init_ffn(token_dim, hidden_dim, rng, activation, dtype)
    head_w = (rng.normal(size=(token_dim, token_dim)) / np.sqrt(token_dim)).astype(dtype)
    head_b = np.zeros(token_dim, dtype=dtype)
    return ToyModel(input_w, input_b, block, head_w, head_b)


@dataclass
class TrainConfig:
    lr: float = 0.05
    steps: int = 1500
    batch: int = 64
    alpha: float = 0.01
    stage: str = STAGE_PRETRAIN
    lr_head: Optional[float] = None    # None tracks lr
    lr_router: Optional[float] = None  # None tracks lr
    optimizer: str = "sgd"
    trainable_moe: bool = True
    trainable_head: bool = True
    trainable_map: bool = False
    eval_tokens: int = 10000
    probe_tokens: int = 512
    threads: int = 1
    seed: int = 0
    divergence_limit: float = 1e6
    identity_tol: float = 1e-9

    def __post_init__(self):
        if self.lr < 0:
            raise ValueError(f"TrainConfig: lr must be >= 0, got {self.lr}")
        if self.steps < 0:
            raise ValueError(f"TrainConfig: steps must be >= 0, got {self.steps}")
        if self.batch < 1:
            raise ValueError(f"TrainConfig: batch must be >= 1, got {self.batch}")
        if self.stage not in (STAGE_PRETRAIN, STAGE_MOE_TUNE):
            raise ValueError(f"TrainConfig: unknown stage {self.stage!r}")
        if self.optimizer not in ("sgd", "adamw"):
            raise ValueError(f"TrainConfig: unknown optimizer {self.optimizer!r}")


@dataclass
class ModelGrads:
    """One backward pass over a batch: whichever block the model has, plus head and map."""

    block: Optional[FfnGrads]
    experts: Optional[list[Optional[FfnGrads]]]
    router_w: Optional[np.ndarray]
    router_b: Optional[np.ndarray]
    head_w: np.ndarray
    head_b: np.ndarray
    map_w: np.ndarray
    map_b: np.ndarray


@dataclass
class EvalResult:
    mse: float
    aux_loss: Optional[float]
    trace: Optional[RoutingTrace]
    labels: np.ndarray


@dataclass
class TrainResult:
    model: ToyModel
    curves: list[dict]
    final_eval: EvalResult


@dataclass
class TuneResult:
    model: ToyModel
    metrics: dict
    curves: list[dict]
    final_eval: EvalResult
    coselection: CoSelectionMatrix


def _model_forward(model: ToyModel, tokens: np.ndarray, threads: int = 1):
    u = mm(tokens, model.input_w.T) + model.input_b
    if model.kind == "dense":
        v, trace = ffn_forward_batch(model.block, u), None
    else:
        v, trace = dispatch_batch(model.block, u, threads)
    y = mm(v, model.head_w.T) + model.head_b
    return u, v, y, trace


def model_predict(model: ToyModel, tokens: np.ndarray, threads: int = 1) -> np.ndarray:
    return _model_forward(model, tokens, threads)[2]


def _collect_grads(model: ToyModel, tokens: np.ndarray, targets: np.ndarray,
                   alpha: float, threads: int = 1):
    """Forward + backward over one batch.

    Returns (ModelGrads, task mse, balance loss, trace). Router gradients
    follow the hard-gate contract: balance loss only, assignment fractions
    frozen at their batch values.
    """
    u, v, y, trace = _model_forward(model, tokens, threads)
    diff = y - targets
    mse = float(np.mean(diff * diff))
    dy = (2.0 / diff.size) * diff
    g_head_w = mm(dy.T, v)
    g_head_b = dy.sum(axis=0)
    dv = mm(dy, model.head_w)

    if model.kind == "dense":
        block_grads, du = ffn_backward_batch(model.block, u, dv)
        experts = router_w = router_b = None
        aux = 0.0
    else:
        layer = model.block
        block_grads = None
        experts = [None] * layer.config.n_experts
        # Same grouping and ascending-expert adds as dispatch_batch's forward.
        du = np.zeros_like(u)
        for e, idx in group_by_expert(trace.selected, layer.config.n_experts).nonempty():
            experts[e], du_e = ffn_backward_batch(layer.experts[e], u[idx], dv[idx])
            add_rows(du, idx, du_e)
        aux = load_balance_loss(trace)
        router_w, router_b = balance_loss_backward(trace, u, alpha)

    g_map_w = mm(du.T, tokens)
    g_map_b = du.sum(axis=0)
    grads = ModelGrads(block_grads, experts, router_w, router_b,
                       g_head_w, g_head_b, g_map_w, g_map_b)
    return grads, mse, aux, trace


class _Sgd:
    def step(self, name, param, grad, lr):
        param -= lr * grad


class _AdamW:
    """Decoupled weight decay variant; state keyed by parameter name."""

    def __init__(self, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.0):
        self.beta1, self.beta2, self.eps, self.weight_decay = beta1, beta2, eps, weight_decay
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t: dict[str, int] = {}

    def step(self, name, param, grad, lr):
        m = self.m.setdefault(name, np.zeros_like(param))
        v = self.v.setdefault(name, np.zeros_like(param))
        t = self.t.get(name, 0) + 1
        self.t[name] = t
        m *= self.beta1
        m += (1 - self.beta1) * grad
        v *= self.beta2
        v += (1 - self.beta2) * grad * grad
        m_hat = m / (1 - self.beta1**t)
        v_hat = v / (1 - self.beta2**t)
        param -= lr * (m_hat / (np.sqrt(v_hat) + self.eps) + self.weight_decay * param)


def _make_optimizer(cfg: TrainConfig):
    return _AdamW() if cfg.optimizer == "adamw" else _Sgd()


def _apply_updates(model: ToyModel, grads: ModelGrads, cfg: TrainConfig, opt) -> None:
    lr_head = cfg.lr if cfg.lr_head is None else cfg.lr_head
    lr_router = cfg.lr if cfg.lr_router is None else cfg.lr_router
    if cfg.trainable_moe:
        if model.kind == "dense":
            b = model.block
            g = grads.block
            opt.step("block.w1", b.w1, g.w1, cfg.lr)
            opt.step("block.b1", b.b1, g.b1, cfg.lr)
            opt.step("block.w2", b.w2, g.w2, cfg.lr)
            opt.step("block.b2", b.b2, g.b2, cfg.lr)
        else:
            for e, g in enumerate(grads.experts):
                if g is None:
                    continue
                p = model.block.experts[e]
                opt.step(f"expert{e}.w1", p.w1, g.w1, cfg.lr)
                opt.step(f"expert{e}.b1", p.b1, g.b1, cfg.lr)
                opt.step(f"expert{e}.w2", p.w2, g.w2, cfg.lr)
                opt.step(f"expert{e}.b2", p.b2, g.b2, cfg.lr)
            opt.step("router.w_r", model.block.router.w_r, grads.router_w, lr_router)
            opt.step("router.b_r", model.block.router.b_r, grads.router_b, lr_router)
    if cfg.trainable_head:
        opt.step("head_w", model.head_w, grads.head_w, lr_head)
        opt.step("head_b", model.head_b, grads.head_b, lr_head)
    if cfg.trainable_map:
        opt.step("input_w", model.input_w, grads.map_w, cfg.lr)
        opt.step("input_b", model.input_b, grads.map_b, cfg.lr)


def _check_curve_value(label: str, value: float, step: int, cfg: TrainConfig) -> None:
    if not math.isfinite(value):
        raise DivergenceError(f"{label} became non-finite at step {step}")
    if value > cfg.divergence_limit:
        raise DivergenceError(f"{label} {value:.4g} exceeded {cfg.divergence_limit:.4g} at step {step}")


def evaluate(model: ToyModel, task: SyntheticTask, n_tokens: int = 10000,
             threads: int = 1) -> EvalResult:
    """Loss on the task's fixed held-out set (drawn from the eval stream of task.seed)."""
    tokens, targets, labels = generate_batch(task, make_rng(task.seed, STREAM_EVAL), n_tokens)
    _, _, y, trace = _model_forward(model, tokens, threads)
    mse = float(np.mean((y - targets) ** 2))
    aux = load_balance_loss(trace) if trace is not None else None
    return EvalResult(mse, aux, trace, labels)


def _probe_loss(model: ToyModel, tokens: np.ndarray, targets: np.ndarray, threads: int) -> float:
    y = model_predict(model, tokens, threads)
    return float(np.mean((y - targets) ** 2))


def _train_loop(task, model, cfg: TrainConfig, with_aux: bool):
    rng_train = make_rng(cfg.seed, STREAM_TRAIN)
    probe_tokens, probe_targets, _ = generate_batch(
        task, make_rng(task.seed, STREAM_PROBE), cfg.probe_tokens)
    opt = _make_optimizer(cfg)
    curves: list[dict] = []
    best = math.inf
    for step in range(cfg.steps):
        tokens, targets, _ = generate_batch(task, rng_train, cfg.batch)
        grads, mse, aux, _ = _collect_grads(model, tokens, targets, cfg.alpha, cfg.threads)
        _check_curve_value("batch loss", total_loss(mse, aux, cfg.alpha) if with_aux else mse,
                           step, cfg)
        _apply_updates(model, grads, cfg, opt)
        probe = _probe_loss(model, probe_tokens, probe_targets, cfg.threads)
        _check_curve_value("probe loss", probe, step, cfg)
        best = min(best, probe)
        row = {"step": step, "batch_mse": mse, "probe_mse": probe, "probe_mse_smoothed": best}
        if with_aux:
            row["batch_aux"] = aux
        curves.append(row)
    return curves


def pretrain(task: SyntheticTask, model: ToyModel, cfg: TrainConfig) -> TrainResult:
    """Stage A: gradient descent on task MSE for a dense model."""
    if cfg.stage != STAGE_PRETRAIN:
        raise ValueError(f"pretrain: config stage is {cfg.stage!r}, expected {STAGE_PRETRAIN!r}")
    if model.kind != "dense":
        raise ValueError("pretrain: expected a dense model")
    model = model.copy()
    curves = _train_loop(task, model, cfg, with_aux=False)
    return TrainResult(model, curves, evaluate(model, task, cfg.eval_tokens, cfg.threads))


def moe_tune(task: SyntheticTask, base_model: ToyModel, moe_cfg: MoeConfig,
             cfg: TrainConfig) -> TuneResult:
    """Stage B: expand the base FFN into a supernet, verify the step-0 identity, fine-tune.

    A step-0 evaluation that differs from the base model's by more than
    identity_tol is a hard failure: it means the expansion or router
    initialization is broken, so training anything from it would be
    meaningless.
    """
    if cfg.stage != STAGE_MOE_TUNE:
        raise ValueError(f"moe_tune: config stage is {cfg.stage!r}, expected {STAGE_MOE_TUNE!r}")
    if base_model.kind != "dense":
        raise ValueError("moe_tune: base model must be dense")
    base_eval = evaluate(base_model, task, cfg.eval_tokens, cfg.threads)
    layer = expand_supernet(base_model.block, moe_cfg)
    model = ToyModel(base_model.input_w.copy(), base_model.input_b.copy(), layer,
                     base_model.head_w.copy(), base_model.head_b.copy())
    eval0 = evaluate(model, task, cfg.eval_tokens, cfg.threads)
    if abs(eval0.mse - base_eval.mse) > cfg.identity_tol:
        raise IdentityViolation(
            f"step-0 eval mse {eval0.mse!r} differs from base {base_eval.mse!r} "
            f"by {abs(eval0.mse - base_eval.mse):.3e} (tolerance {cfg.identity_tol:.1e})"
        )
    curves = _train_loop(task, model, cfg, with_aux=True)
    final_eval = evaluate(model, task, cfg.eval_tokens, cfg.threads)
    matrix = co_selection(final_eval.trace) if moe_cfg.top_k >= 2 else CoSelectionMatrix(
        np.zeros((moe_cfg.n_experts, moe_cfg.n_experts)))
    nmi = pattern_specialization(final_eval.trace, final_eval.labels)
    shuffled = make_rng(cfg.seed, STREAM_SHUFFLE).permutation(final_eval.labels)
    loading = assignment_fractions(final_eval.trace)
    metrics = {
        "base_mse": base_eval.mse,
        "step0_mse": eval0.mse,
        "mse": final_eval.mse,
        "aux_loss": final_eval.aux_loss,
        "nmi": nmi,
        "nmi_shuffled": pattern_specialization(final_eval.trace, shuffled),
        "loading": [float(x) for x in loading],
        "max_loading": float(loading.max()),
        "mean_partners": mean_partner_count(matrix),
    }
    return TuneResult(model, metrics, curves, final_eval, matrix)


DEFAULT_ABLATION_COMBOS = (("moe",), ("moe", "head"), ("moe", "map"), ("moe", "head", "map"))


def ablate_tuning_subsets(task: SyntheticTask, base_model: ToyModel, moe_cfg: MoeConfig,
                          cfg: TrainConfig, combos=DEFAULT_ABLATION_COMBOS) -> list[dict]:
    """Run moe_tune once per trainable-subset combo; one result row per combo."""
    rows = []
    for combo in combos:
        unknown = set(combo) - {"moe", "head", "map"}
        if unknown:
            raise ValueError(f"ablate_tuning_subsets: unknown parts {sorted(unknown)}")
        sub_cfg = replace(cfg,
                          trainable_moe="moe" in combo,
                          trainable_head="head" in combo,
                          trainable_map="map" in combo)
        result = moe_tune(task, base_model, moe_cfg, sub_cfg)
        rows.append({
            "combo": "+".join(combo) if combo else "none",
            "mse": result.metrics["mse"],
            "base_mse": result.metrics["base_mse"],
            "aux_loss": result.metrics["aux_loss"],
            "nmi": result.metrics["nmi"],
        })
    return rows


# ---------------------------------------------------------------------------
# Gradient checking


def _named_arrays(model: ToyModel, grads: Optional[ModelGrads] = None):
    """Yield (group, name, param array, matching grad array or None)."""
    layer = model.block
    for e, p in enumerate(layer.experts):
        g = grads.experts[e] if grads is not None else None
        yield "experts", f"expert{e}.w1", p.w1, None if g is None else g.w1
        yield "experts", f"expert{e}.b1", p.b1, None if g is None else g.b1
        yield "experts", f"expert{e}.w2", p.w2, None if g is None else g.w2
        yield "experts", f"expert{e}.b2", p.b2, None if g is None else g.b2
    yield "router", "router.w_r", layer.router.w_r, None if grads is None else grads.router_w
    yield "router", "router.b_r", layer.router.b_r, None if grads is None else grads.router_b
    yield "head", "head_w", model.head_w, None if grads is None else grads.head_w
    yield "head", "head_b", model.head_b, None if grads is None else grads.head_b


def _gradcheck_instance(rng: np.random.Generator, dims: tuple[int, int, int, int],
                        batch: int, max_tries: int = 64):
    """Build a random moe toy model + batch with safe margins.

    Rejects draws whose routing margin (k-th vs (k+1)-th score) falls under
    1e-4 or whose selected-expert preactivations sit within 1e-3 of the relu
    kink, both of which would make finite differences unreliable.
    """
    token_dim, hidden_dim, n_replicas, granularity = dims
    for _ in range(max_tries):
        seed = int(rng.integers(0, 2**63))
        sub = make_rng(seed, STREAM_GRADCHECK)
        model = init_toy_model(token_dim, hidden_dim, seed)
        moe_cfg = MoeConfig(token_dim=token_dim, hidden_dim=hidden_dim,
                            n_replicas=n_replicas, granularity=granularity, seed=seed)
        layer = expand_supernet(model.block, moe_cfg)
        # leave the identity-preserving start: perturb everything mildly
        for p in layer.experts:
            p.w1 += 0.3 * sub.normal(size=p.w1.shape)
            p.b1 += 0.3 * sub.normal(size=p.b1.shape)
            p.w2 += 0.3 * sub.normal(size=p.w2.shape)
            p.b2 += 0.3 * sub.normal(size=p.b2.shape)
        layer.router.w_r += 0.5 * sub.normal(size=layer.router.w_r.shape)
        layer.router.b_r += 0.5 * sub.normal(size=layer.router.b_r.shape)
        model = ToyModel(model.input_w, model.input_b, layer, model.head_w, model.head_b)
        tokens = sub.normal(size=(batch, token_dim))
        targets = sub.normal(size=(batch, token_dim))

        u, _, _, trace = _model_forward(model, tokens)
        ranked = np.sort(trace.scores, axis=1)[:, ::-1]
        margin = float(np.min(ranked[:, moe_cfg.top_k - 1] - ranked[:, moe_cfg.top_k]))
        if margin < 1e-4:
            continue
        kink = math.inf
        for e, idx in group_by_expert(trace.selected, moe_cfg.n_experts).nonempty():
            z1 = mm(u[idx], layer.experts[e].w1.T) + layer.experts[e].b1
            kink = min(kink, float(np.min(np.abs(z1))))
        if kink < 1e-3:
            continue
        return model, tokens, targets
    raise RuntimeError(f"gradcheck: could not build a well-margined instance for dims {dims}")


def run_gradcheck(seed: int = 0, n_instances: int = 50, alpha: float = 0.01,
                  fd_step: float = 1e-6, tol: float = 1e-4, batch: int = 3,
                  dims: Optional[list[tuple[int, int, int, int]]] = None,
                  grad_fn=None) -> dict:
    """Compare analytic gradients of mse + alpha * balance loss against central differences.

    Instances are (token_dim, hidden_dim, n_replicas, granularity) tuples,
    random small shapes by default. Per parameter group the reported number
    is ``max|analytic - fd| / max(max|analytic|, max|fd|, 1e-6)``. A second
    pass with alpha = 0 confirms the router gradient vanishes identically.
    """
    if grad_fn is None:
        grad_fn = _collect_grads
    rng = make_rng(seed, STREAM_TRAIN)
    if dims is not None:
        dims_pool = list(dims)
    else:
        dims_pool = [(16, 32, 4, 2), (16, 32, 2, 4)]
        while len(dims_pool) < n_instances:
            token_dim = int(rng.integers(3, 9))
            granularity = int(rng.choice([2, 3]))
            width = int(rng.integers(2, 5))
            n_replicas = int(rng.integers(2, 5))
            dims_pool.append((token_dim, width * granularity, n_replicas, granularity))
        dims_pool = dims_pool[:n_instances]

    group_err = {"experts": 0.0, "router": 0.0, "head": 0.0}
    worst: dict = {}
    alpha0_router_max = 0.0

    for inst, dims in enumerate(dims_pool):
        model, tokens, targets = _gradcheck_instance(rng, dims, batch)

        def loss(a):
            _, _, y, trace = _model_forward(model, tokens)
            mse = float(np.mean((y - targets) ** 2))
            return total_loss(mse, load_balance_loss(trace), a)

        grads, _, _, _ = grad_fn(model, tokens, targets, alpha)
        analytic_by_group: dict[str, list[float]] = {g: [] for g in group_err}
        fd_by_group: dict[str, list[float]] = {g: [] for g in group_err}
        for group, name, param, grad in _named_arrays(model, grads):
            grad = np.zeros_like(param) if grad is None else grad
            for idx in np.ndindex(param.shape):
                orig = param[idx]
                param[idx] = orig + fd_step
                up = loss(alpha)
                param[idx] = orig - fd_step
                down = loss(alpha)
                param[idx] = orig
                fd = (up - down) / (2.0 * fd_step)
                a = float(grad[idx])
                analytic_by_group[group].append(a)
                fd_by_group[group].append(fd)
                diff = abs(a - fd)
                if diff > worst.get("absdiff", -1.0):
                    worst = {"absdiff": diff, "group": group, "name": name,
                             "index": tuple(int(i) for i in idx), "analytic": a, "fd": fd,
                             "instance": inst}
        for group in group_err:
            a = np.array(analytic_by_group[group])
            f = np.array(fd_by_group[group])
            scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(f))), 1e-6)
            rel = float(np.max(np.abs(a - f))) / scale
            group_err[group] = max(group_err[group], rel)

        grads0, _, _, _ = grad_fn(model, tokens, targets, 0.0)
        alpha0_router_max = max(alpha0_router_max,
                                float(np.max(np.abs(grads0.router_w))),
                                float(np.max(np.abs(grads0.router_b))))

    worst["rel"] = worst.pop("absdiff", 0.0) / max(abs(worst.get("analytic", 0.0)),
                                                   abs(worst.get("fd", 0.0)), 1e-6)
    passed = all(err <= tol for err in group_err.values())
    return {
        "groups": group_err,
        "alpha_zero_router_max": alpha0_router_max,
        "worst": worst,
        "tol": tol,
        "fd_step": fd_step,
        "n_instances": len(dims_pool),
        "passed": passed and alpha0_router_max == 0.0,
    }
