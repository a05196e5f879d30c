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
from dataclasses import dataclass, field, replace
from itertools import combinations
from typing import Optional

import numpy as np

from .analytics import CoSelectionMatrix, co_selection, mean_partner_count, pattern_specialization
from .ffn import FfnGrads, FfnParams, ffn_backward_batch, ffn_forward_batch, init_ffn
from .moe import (
    MoeConfig,
    MoeLayer,
    RoutingTrace,
    assignment_counts,
    assignment_fractions,
    balance_loss_backward,
    dispatch_batch,
    dispatch_whole,
    expand_supernet,
    grouped_backward,
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
    check_seed,
    check_size,
    ensure_finite,
    make_rng,
    mm,
)

# A batch, probe or final eval loss above this aborts training as diverged.
DIVERGENCE_LIMIT = 1e6


class DivergenceError(RuntimeError):
    """Training loss exploded or went non-finite; the run is aborted."""


class IdentityViolation(RuntimeError):
    """A freshly expanded model failed to reproduce its base model's evaluation."""


@dataclass
class SyntheticTask:
    """Clustered linear-map regression.

    Tokens sample N(center_label, noise_std^2); the target applies the
    label's linear map to the token. Centers and maps are finite, centers
    stay at least 4 * noise_std apart (at distances their dtype can hold) and
    every map is well-conditioned, so the patterns are separable and each
    is exactly solvable by a dedicated linear model.
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
        if not self.noise_std >= 0:  # a NaN floor judges no pair
            raise ValueError(f"SyntheticTask: noise_std must be >= 0, got {self.noise_std}")
        ensure_finite("SyntheticTask", self.centers, self.maps)
        dist, (i, j), far = _closest_pair(self.centers)
        if far:
            raise ValueError(f"SyntheticTask: the distance of centers {far[0]},{far[1]} overflows {self.centers.dtype}")
        if dist < 4.0 * self.noise_std:
            raise ValueError(f"SyntheticTask: centers {i},{j} are {dist:.4g} apart, need >= {4.0 * self.noise_std:.4g}")
        conds = [float(np.linalg.cond(self.maps[i])) for i in range(m)]
        if max(conds) > 100.0:
            raise ValueError(f"SyntheticTask: map condition number {max(conds):.4g} exceeds 100")


@np.errstate(over="ignore", invalid="ignore")  # a distance that overflows reads inf, and the caller's check speaks
def _closest_pair(centers: np.ndarray):
    """(distance, (i, j), far) of the first closest two centers; ``far`` is the first pair whose distance overflows."""
    closest, pair, far = math.inf, (0, 0), None
    for i, j in combinations(range(len(centers)), 2):
        dist = float(np.linalg.norm(centers[i] - centers[j]))
        far = far or ((i, j) if dist == math.inf else None)
        if dist < closest:
            closest, pair = dist, (i, j)
    return closest, pair, far


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

    Centers are redrawn (deterministically) until their closest pair meets
    SyntheticTask's floor; maps are scaled rotations with singular values
    in [0.7, 1.5], keeping the condition number around 2.
    """
    check_size("make_task: n_patterns", n_patterns)
    check_size("make_task: token_dim", token_dim)
    rng = make_rng(seed, STREAM_TASK)
    floor, best = 4.0 * noise_std, -math.inf
    for _ in range(128):
        centers = rng.normal(size=(n_patterns, token_dim))
        norms = np.linalg.norm(centers, axis=1, keepdims=True)
        centers = centers / norms * center_scale
        closest = _closest_pair(centers)[0]
        if not closest < floor:  # SyntheticTask's own test; an overflow, read as inf, it refuses itself
            break
        best = max(best, closest)
    else:
        raise ValueError(f"make_task: 128 draws never placed every two centers 4 * noise_std = {floor:.4g} apart; "
                         f"the best draw's closest two were {best:.4g} apart")
    maps = np.stack([
        _rotation(rng, token_dim) * rng.uniform(0.7, 1.5, size=token_dim)
        for _ in range(n_patterns)
    ])
    return SyntheticTask(n_patterns, token_dim, centers.astype(dtype), maps.astype(dtype),
                         noise_std, seed)


def generate_batch(task: SyntheticTask, rng: np.random.Generator, size: int):
    """Sample (tokens, targets, labels): label uniform, token = center + noise, target = map(token)."""
    labels = rng.integers(0, task.n_patterns, size=check_size("generate_batch: size", size))
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
    input_w = _rotation(rng, check_size("init_toy_model: token_dim", token_dim), dtype)
    input_b = np.zeros(token_dim, dtype=dtype)
    block = init_ffn(token_dim, hidden_dim, rng, activation, dtype)
    head_w = (rng.normal(size=(token_dim, token_dim)) / np.sqrt(token_dim)).astype(dtype)
    head_b = np.zeros(token_dim, dtype=dtype)
    return ToyModel(input_w, input_b, block, head_w, head_b)


@dataclass
class TrainConfig:
    """Settings of a pretrain or moe_tune run, the function being the stage; rates and alpha are finite, >= 0."""

    lr: float = 0.05
    steps: int = 1500
    batch: int = 64
    alpha: float = 0.01
    lr_head: Optional[float] = None    # None tracks lr
    lr_router: Optional[float] = None  # None tracks lr
    optimizer: str = "sgd"
    trainable: dict = field(default_factory=lambda: {"moe": True, "head": True, "map": False})  # parts stepped
    eval_tokens: int = 10000
    probe_tokens: int = 512
    threads: int = 1
    seed: int = 0

    def __post_init__(self):
        for name in ("lr", "lr_head", "lr_router", "alpha"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"TrainConfig: {name} must be finite, got {value}")
            if value is not None and value < 0:
                raise ValueError(f"TrainConfig: {name} must be >= 0, got {value}")
        if self.steps < 0:
            raise ValueError(f"TrainConfig: steps must be >= 0, got {self.steps}")
        for name in ("batch", "eval_tokens", "probe_tokens", "threads"):
            check_size(f"TrainConfig: {name}", getattr(self, name))
        if self.optimizer not in ("sgd", "adamw"):
            raise ValueError(f"TrainConfig: unknown optimizer {self.optimizer!r}")
        if (not isinstance(self.trainable, dict) or self.trainable.keys() != {"moe", "head", "map"}
                or not all(isinstance(flag, bool) for flag in self.trainable.values())):
            raise ValueError(f"TrainConfig: trainable must map moe, head and map to booleans, got {self.trainable!r}")
        check_seed("TrainConfig: seed", self.seed)


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


def _model_forward(model: ToyModel, tokens: np.ndarray, threads: int | None = 1):
    """(u, v, y, trace, saved) of a batch through the model.

    u and v are the block's input and output, y the prediction and trace the
    routing (None for a dense model). A MoE block runs through dispatch_batch
    on ``threads`` threads or, with threads None, as training runs it, through
    dispatch_whole, whose forward for grouped_backward is saved (else None).
    """
    u = mm(tokens, model.input_w.T) + model.input_b
    if model.kind == "dense":
        v, trace, saved = ffn_forward_batch(model.block, u), None, None
    elif threads is None:
        v, trace, saved = dispatch_whole(model.block, u)
    else:
        (v, trace), saved = dispatch_batch(model.block, u, threads), None
    y = mm(v, model.head_w.T) + model.head_b
    return u, v, y, trace, saved


def model_predict(model: ToyModel, tokens: np.ndarray, threads: int = 1) -> np.ndarray:
    return _model_forward(model, tokens, threads)[2]


def _mse(y: np.ndarray, targets: np.ndarray) -> float:
    """The task loss: mean squared error of predictions y against targets."""
    return float(np.mean((y - targets) ** 2))


def _expand_model(base: ToyModel, moe_cfg: MoeConfig) -> ToyModel:
    """The supernet of a dense model: its FFN expanded, its input map and head copied."""
    return ToyModel(base.input_w.copy(), base.input_b.copy(), expand_supernet(base.block, moe_cfg),
                    base.head_w.copy(), base.head_b.copy())


def _ffn_named(prefix: str, p: FfnParams | FfnGrads) -> list[tuple[str, np.ndarray]]:
    """(name, array) for the w1/b1/w2/b2 of an FfnParams or an FfnGrads."""
    return [(f"{prefix}.w1", p.w1), (f"{prefix}.b1", p.b1), (f"{prefix}.w2", p.w2), (f"{prefix}.b2", p.b2)]


def _parameters(model: ToyModel):
    """Yield (name, part, array) for every array training can update.

    The order is fixed: the dense block (``block.*``) or the four arrays of
    the expert stack (``experts.*``, each (n_experts, ...), the model's own
    arrays), then the router, the head and the input map. ``part`` picks
    the learning rate and the trainable flag, and it is the gradcheck group.
    """
    if model.kind == "dense":
        for name, a in _ffn_named("block", model.block):
            yield name, "experts", a
    else:
        layer = model.block
        for name, a in _ffn_named("experts", layer.experts):
            yield name, "experts", a
        yield "router.w_r", "router", layer.router.w_r
        yield "router.b_r", "router", layer.router.b_r
    yield "head_w", "head", model.head_w
    yield "head_b", "head", model.head_b
    yield "input_w", "map", model.input_w
    yield "input_b", "map", model.input_b


def _collect_grads(model: ToyModel, tokens: np.ndarray, targets: np.ndarray, alpha: float):
    """Forward + backward over one batch.

    Returns (grads, task mse, balance loss, trace); grads maps every name of
    _parameters to its gradient, with a zero row for each expert that got no
    tokens. Router gradients follow the hard-gate contract: balance loss
    only, assignment fractions frozen at their batch values. The map
    gradient takes the balance loss's path through the router scores too.
    """
    u, v, y, trace, saved = _model_forward(model, tokens, None)
    diff = y - targets
    dy = (2.0 / diff.size) * diff
    grads = {"head_w": mm(dy.T, v), "head_b": dy.sum(axis=0)}
    dv = mm(dy, model.head_w)

    if model.kind == "dense":
        block_grads, du = ffn_backward_batch(model.block, u, dv)
        grads.update(_ffn_named("block", block_grads))
        aux = 0.0
    else:
        layer = model.block
        g, du = grouped_backward(layer.experts, saved, dv)
        grads.update(_ffn_named("experts", g))
        aux = load_balance_loss(trace)
        grads["router.w_r"], grads["router.b_r"], d_logits = balance_loss_backward(trace, u, alpha)
        du += mm(d_logits, layer.router.w_r)

    grads["input_w"] = mm(du.T, tokens)
    grads["input_b"] = du.sum(axis=0)
    return grads, _mse(y, targets), aux, trace


class _Sgd:
    def step(self, name, param, grad, lr, rows=None):
        param -= lr * grad  # whole stacks too: a zero gradient row changes no bit


class _AdamW:
    """Adam, which is AdamW at zero weight decay (the config's "adamw"); state keyed by parameter name.

    ``rows`` masks the live experts of a stack: only their rows step, each
    with its own step count. Any other array has one step count.
    """

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self):
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t: dict[str, np.ndarray] = {}

    def step(self, name, param, grad, lr, rows=None):
        m = self.m.setdefault(name, np.zeros_like(param))
        v = self.v.setdefault(name, np.zeros_like(param))
        live = ... if rows is None else np.flatnonzero(rows)
        t = self.t.setdefault(name, np.zeros(() if rows is None else len(param), dtype=np.int64))
        t[live] += 1
        # Python's beta**t for each count: 1 - np.power(0.999, t) rounds some t differently
        c1, c2 = (np.array([1 - b**s for s in np.ravel(t[live]).tolist()], param.dtype)
                  .reshape((-1,) + (1,) * (param.ndim - 1)) for b in (self.BETA1, self.BETA2))
        # in place, so the moments keep their dtype whatever the gradient's
        g, m_live, v_live = grad[live], m[live], v[live]
        m_live *= self.BETA1
        m_live += (1 - self.BETA1) * g
        v_live *= self.BETA2
        v_live += (1 - self.BETA2) * g * g
        m[live], v[live] = m_live, v_live
        param[live] -= lr * (m_live / c1 / (np.sqrt(v_live / c2) + self.EPS))


def _make_optimizer(cfg: TrainConfig):
    return _AdamW() if cfg.optimizer == "adamw" else _Sgd()


def _apply_updates(model: ToyModel, grads: dict, trace: Optional[RoutingTrace], cfg: TrainConfig, opt) -> None:
    lr = {"experts": cfg.lr, "router": cfg.lr if cfg.lr_router is None else cfg.lr_router,
          "head": cfg.lr if cfg.lr_head is None else cfg.lr_head, "map": cfg.lr}
    live = None if trace is None else assignment_counts(trace) > 0
    for name, part, param in _parameters(model):
        if cfg.trainable["moe" if part in ("experts", "router") else part]:
            opt.step(name, param, grads[name], lr[part], live if part == "experts" else None)


def _check_curve_value(label: str, value: float, step: int) -> None:
    if not math.isfinite(value):
        raise DivergenceError(f"{label} became non-finite at step {step}")
    if value > DIVERGENCE_LIMIT:
        raise DivergenceError(f"{label} {value:.4g} exceeded {DIVERGENCE_LIMIT:.4g} at step {step}")


@np.errstate(over="ignore", invalid="ignore")  # an overflowing loss is judged by the caller, not by numpy
def evaluate(model: ToyModel, task: SyntheticTask, n_tokens: int = 10000,
             threads: int = 1) -> EvalResult:
    """Loss on the task's fixed held-out set (drawn from the eval stream of task.seed)."""
    tokens, targets, labels = generate_batch(task, make_rng(task.seed, STREAM_EVAL), n_tokens)
    _, _, y, trace, _ = _model_forward(model, tokens, threads)
    aux = load_balance_loss(trace) if trace is not None else None
    return EvalResult(_mse(y, targets), aux, trace, labels)


@np.errstate(over="ignore", invalid="ignore")  # an overflowing loss is stopped by the checks below, not by numpy
def _train_loop(task, model, cfg: TrainConfig):
    """(curves, final EvalResult) of training model in place; a dense block's aux is 0.0: its checked loss is its MSE."""
    rng_train = make_rng(cfg.seed, STREAM_TRAIN)
    probe_tokens, probe_targets, _ = generate_batch(
        task, make_rng(task.seed, STREAM_PROBE), cfg.probe_tokens)
    opt = _make_optimizer(cfg)
    curves: list[dict] = []
    best = math.inf
    for step in range(cfg.steps):
        tokens, targets, _ = generate_batch(task, rng_train, cfg.batch)
        grads, mse, aux, trace = _collect_grads(model, tokens, targets, cfg.alpha)
        _check_curve_value("batch loss", total_loss(mse, aux, cfg.alpha), step)
        _apply_updates(model, grads, trace, cfg, opt)
        probe = _mse(model_predict(model, probe_tokens, cfg.threads), probe_targets)
        _check_curve_value("probe loss", probe, step)
        best = min(best, probe)
        curves.append({"step": step, "batch_mse": mse, "probe_mse": probe, "probe_mse_smoothed": best,
                       "batch_aux": aux})
    final_eval = evaluate(model, task, cfg.eval_tokens, cfg.threads)
    _check_curve_value("eval loss", final_eval.mse, cfg.steps)
    return curves, final_eval


def pretrain(task: SyntheticTask, model: ToyModel, cfg: TrainConfig) -> TrainResult:
    """Stage A: gradient descent on task MSE for a dense model."""
    if model.kind != "dense":
        raise ValueError("pretrain: expected a dense model")
    model = model.copy()
    return TrainResult(model, *_train_loop(task, model, cfg))


def moe_tune(task: SyntheticTask, base_model: ToyModel, moe_cfg: MoeConfig,
             cfg: TrainConfig) -> TuneResult:
    """Stage B: expand the base FFN into a supernet, verify the step-0 identity, fine-tune.

    A step-0 evaluation that differs from the base model's by more than
    rounding in the base's dtype (1e-9 in float64, 1e-4 in float32), or a
    non-finite step-0 or base evaluation, is a hard failure: it means the expansion or router initialization is
    broken, so training anything from it would be meaningless.
    """
    if base_model.kind != "dense":
        raise ValueError("moe_tune: base model must be dense")
    tol = 1e-4 if base_model.block.w1.dtype == np.float32 else 1e-9
    base_eval = evaluate(base_model, task, cfg.eval_tokens, cfg.threads)
    model = _expand_model(base_model, moe_cfg)
    eval0 = evaluate(model, task, cfg.eval_tokens, cfg.threads)
    if not abs(eval0.mse - base_eval.mse) <= tol:
        raise IdentityViolation(
            f"step-0 eval mse {eval0.mse!r} differs from base {base_eval.mse!r} "
            f"by {abs(eval0.mse - base_eval.mse):.3e} (tolerance {tol:.1e})"
        )
    curves, final_eval = _train_loop(task, model, cfg)
    matrix = co_selection(final_eval.trace)
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
        unknown = set(combo) - cfg.trainable.keys()
        if unknown:
            raise ValueError(f"ablate_tuning_subsets: unknown parts {sorted(unknown)}")
        sub_cfg = replace(cfg, trainable={part: part in combo for part in cfg.trainable})
        result = moe_tune(task, base_model, moe_cfg, sub_cfg)
        rows.append({"combo": "+".join(combo) if combo else "none",
                     **{key: result.metrics[key] for key in ("mse", "base_mse", "aux_loss", "nmi")}})
    return rows


# ---------------------------------------------------------------------------
# Gradient checking


_GRADCHECK_PERTURB = {"experts": 0.3, "router": 0.5}
# central-difference step, bound on each group's relative error, and tokens per instance
_GRADCHECK_FD_STEP, _GRADCHECK_TOL, _GRADCHECK_BATCH = 1e-6, 1e-4, 3


def _gradcheck_instance(rng: np.random.Generator, dims: tuple[int, int, int, int]):
    """Build a random moe toy model + batch with safe margins.

    Rejects draws whose routing margin (k-th vs (k+1)-th score, if some
    expert is left out) falls under 1e-4 or whose selected-expert
    preactivations sit within 1e-3 of the relu kink, both of which would
    make finite differences unreliable. Gives up after 64 draws with a
    ``ValueError``: a shape whose margins never clear (thousands of experts,
    a wide top-k) cannot be checked.
    """
    token_dim, hidden_dim, n_replicas, granularity = dims
    for _ in range(64):
        seed = int(rng.integers(0, 2**63))
        sub = make_rng(seed, STREAM_GRADCHECK)
        moe_cfg = MoeConfig(token_dim=token_dim, hidden_dim=hidden_dim,
                            n_replicas=n_replicas, granularity=granularity, seed=seed)
        model = _expand_model(init_toy_model(token_dim, hidden_dim, seed), moe_cfg)
        # leave the identity-preserving start: perturb experts and router mildly; the experts'
        # draw is one (w1 | b1 | w2 | b2) row per expert, the order of drawing expert by expert
        ex, router = model.block.experts, model.block.router
        n, h, d = ex.w1.shape
        rows = _GRADCHECK_PERTURB["experts"] * sub.normal(size=(n, 2 * h * d + h + d))
        for a, r in zip((ex.w1, ex.b1, ex.w2, ex.b2), np.split(rows, np.cumsum([h * d, h, d * h]), axis=1)):
            a += r.reshape(a.shape)
        for a in (router.w_r, router.b_r):
            a += _GRADCHECK_PERTURB["router"] * sub.normal(size=a.shape)
        tokens = sub.normal(size=(_GRADCHECK_BATCH, token_dim))
        targets = sub.normal(size=(_GRADCHECK_BATCH, token_dim))

        _, _, _, trace, saved = _model_forward(model, tokens, None)
        # with every expert selected no score can overtake another
        if moe_cfg.top_k < moe_cfg.n_experts:
            ranked = np.sort(trace.scores, axis=1)[:, ::-1]
            if np.min(ranked[:, moe_cfg.top_k - 1] - ranked[:, moe_cfg.top_k]) < 1e-4:
                continue
        if min(np.min(np.abs(saved.z1[rows]), initial=math.inf) for _, rows in saved.blocks.slots) < 1e-3:
            continue
        return model, tokens, targets
    raise ValueError(f"gradcheck: no well-margined instance of shape {'x'.join(map(str, dims))} in 64 draws")


@np.errstate(invalid="ignore")  # an inf gradient gives inf / inf: a NaN error, which fails
def run_gradcheck(seed: int = 0, n_instances: Optional[int] = None, alpha: float = 0.01,
                  dims: Optional[list[tuple[int, int, int, int]]] = None, grad_fn=None) -> dict:
    """Compare analytic gradients of mse + alpha * balance loss against central differences.

    Instances are the (token_dim, hidden_dim, n_replicas, granularity)
    tuples ``dims`` or else ``n_instances`` (default 50) random small shapes.
    Per parameter group the reported number is ``max|analytic - fd| /
    max(max|analytic|, max|fd|, 1e-6)``, NaN, hence a failure, if a gradient
    is not finite. A second pass with alpha = 0 confirms the router gradient
    vanishes identically.
    """
    if dims is not None and n_instances is not None:
        raise ValueError("run_gradcheck: give dims or n_instances, not both")
    n_instances = len(dims) if dims is not None else 50 if n_instances is None else n_instances
    check_size("run_gradcheck: n_instances", n_instances)
    if grad_fn is None:
        grad_fn = _collect_grads
    rng = make_rng(seed, STREAM_TRAIN)
    pool = list(dims) if dims is not None else [(16, 32, 4, 2), (16, 32, 2, 4)][:n_instances]
    while len(pool) < n_instances:
        token_dim = int(rng.integers(3, 9))
        granularity = int(rng.choice([2, 3]))
        width = int(rng.integers(2, 5))
        n_replicas = int(rng.integers(2, 5))
        pool.append((token_dim, width * granularity, n_replicas, granularity))

    group_err = dict.fromkeys(("experts", "router", "head", "map"), 0.0)
    worst, worst_rank = {}, -1.0
    alpha0_router_max = 0.0

    for inst, shape in enumerate(pool):
        model, tokens, targets = _gradcheck_instance(rng, shape)

        def loss(a):
            _, _, y, trace, _ = _model_forward(model, tokens)
            return total_loss(_mse(y, targets), load_balance_loss(trace), a)

        grads = grad_fn(model, tokens, targets, alpha)[0]
        peaks = {g: np.zeros(3) for g in group_err}  # max |analytic - fd|, max |analytic|, max |fd|
        for name, group, param in _parameters(model):
            fd = np.empty(param.shape)
            for idx in np.ndindex(param.shape):
                orig = param[idx]
                param[idx] = orig + _GRADCHECK_FD_STEP
                up = loss(alpha)
                param[idx] = orig - _GRADCHECK_FD_STEP
                down = loss(alpha)
                param[idx] = orig
                fd[idx] = (up - down) / (2.0 * _GRADCHECK_FD_STEP)
            analytic = np.asarray(grads[name], dtype=np.float64)
            diff = np.abs(analytic - fd)
            peaks[group] = np.maximum(peaks[group],
                                      [np.max(diff), np.max(np.abs(analytic)), np.max(np.abs(fd))])
            # a non-finite difference ranks above every finite one; the first seen wins ties
            rank = np.where(np.isfinite(diff), diff, np.inf)
            i = np.unravel_index(np.argmax(rank), param.shape)
            if rank[i] > worst_rank:
                worst_rank = rank[i]
                worst = {"group": group, "name": name, "index": tuple(int(j) for j in i),
                         "analytic": float(analytic[i]), "fd": float(fd[i]), "instance": inst,
                         "rel": float(diff[i] / np.max([abs(analytic[i]), abs(fd[i]), 1e-6]))}
        for group, (d, a, f) in peaks.items():
            group_err[group] = float(np.maximum(group_err[group], d / np.max([a, f, 1e-6])))

        grads0 = grad_fn(model, tokens, targets, 0.0)[0]
        alpha0_router_max = float(np.max([alpha0_router_max, np.max(np.abs(grads0["router.w_r"])),
                                          np.max(np.abs(grads0["router.b_r"]))]))

    return {
        "groups": group_err,
        "alpha_zero_router_max": alpha0_router_max,
        "worst": worst,
        "tol": _GRADCHECK_TOL,
        "fd_step": _GRADCHECK_FD_STEP,
        "n_instances": len(pool),
        "passed": all(err <= _GRADCHECK_TOL for err in group_err.values()) and alpha0_router_max == 0.0,
    }
