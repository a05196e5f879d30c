import dataclasses
import math
import re

import numpy as np
import pytest

from moeforge.harness import (
    DivergenceError,
    IdentityViolation,
    SyntheticTask,
    TrainConfig,
    ablate_tuning_subsets,
    evaluate,
    generate_batch,
    init_toy_model,
    make_task,
    model_predict,
    moe_tune,
    pretrain,
    run_gradcheck,
)
from moeforge.ffn import ffn_backward_batch, init_ffn
from moeforge.moe import MoeConfig, balance_loss_backward, dispatch_loop, expand_supernet
from moeforge.numkernel import ShapeError, make_rng, mm

from conftest import random_ffn, random_layer

import moeforge.moe


def small_moe_cfg(seed=0):
    return MoeConfig(token_dim=6, hidden_dim=12, n_replicas=2, granularity=2, seed=seed)


@pytest.fixture(scope="module")
def small_setup():
    task = make_task(3, 6, noise_std=0.1, seed=12)
    model = init_toy_model(6, 12, seed=12)
    cfg = TrainConfig(lr=0.05, steps=300, batch=32, seed=12,
                      eval_tokens=2000, probe_tokens=128)
    result = pretrain(task, model, cfg)
    return task, result


class TestTask:
    def test_center_separation_invariant(self):
        task = make_task(5, 8, noise_std=0.2, seed=1)
        for i in range(5):
            for j in range(i + 1, 5):
                assert np.linalg.norm(task.centers[i] - task.centers[j]) >= 0.8

    def test_map_conditioning(self):
        task = make_task(4, 8, noise_std=0.1, seed=2)
        assert max(np.linalg.cond(task.maps[i]) for i in range(4)) <= 100

    def test_construction_rejects_crowded_centers(self):
        centers = np.zeros((2, 3))
        maps = np.stack([np.eye(3)] * 2)
        with pytest.raises(ValueError):
            SyntheticTask(2, 3, centers, maps, noise_std=0.5, seed=0)

    # the floor cannot judge a non-finite center, map or noise_std
    @pytest.mark.parametrize("centers, maps, noise_std, message", [
        ([[np.nan, 0.0], [1.0, 0.0]], np.stack([np.eye(2)] * 2), 0.1, "non-finite values encountered"),
        ([[0.0, 0.0], [1.0, 0.0]], np.stack([np.eye(2), np.full((2, 2), np.inf)]), 0.1, "non-finite values encountered"),
        ([[0.0, 0.0], [1.0, 0.0]], np.stack([np.eye(2)] * 2), np.nan, "noise_std must be >= 0, got nan"),
    ], ids=["nan-center", "inf-map", "nan-noise_std"])
    def test_construction_rejects_non_finite_inputs(self, centers, maps, noise_std, message):
        with pytest.raises(ValueError, match=f"^SyntheticTask: {message}$"):
            SyntheticTask(2, 2, np.array(centers), maps, noise_std=noise_std, seed=0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_construction_rejects_an_overflowing_distance(self):
        # the closest pair is 1 apart; the pair 0,2 is 1e200 apart, past float64 once squared
        centers = np.array([[0.0, 0.0], [1.0, 0.0], [1e200, 0.0]])
        with pytest.raises(ValueError, match="^SyntheticTask: the distance of centers 0,2 overflows float64$"):
            SyntheticTask(3, 2, centers, np.stack([np.eye(2)] * 3), noise_std=0.1, seed=0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_make_task_rejects_centers_it_cannot_judge(self):
        with pytest.raises(ValueError, match="^SyntheticTask: the distance of centers 0,1 overflows float64$"):
            make_task(4, 8, center_scale=1e200)
        # the rule judges the task's own centers: float32 ones overflow far sooner
        with pytest.raises(ValueError, match="^SyntheticTask: the distance of centers 0,1 overflows float32$"):
            make_task(4, 8, center_scale=1e20, dtype=np.float32)
        with pytest.raises(ValueError, match="^SyntheticTask: non-finite values encountered$"):
            make_task(1, 2, center_scale=math.inf)

    def test_make_task_placement_failure_names_floor_and_closest_pair(self):
        # at token_dim 1 every center is +-center_scale, so of three centers two coincide whatever the scale
        with pytest.raises(ValueError) as info:
            make_task(3, 1, center_scale=1e6)
        assert str(info.value) == ("make_task: 128 draws never placed every two centers 4 * noise_std = 0.4 apart; "
                                   "the best draw's closest two were 0 apart")

    def test_make_task_accepts_a_pair_exactly_at_the_floor(self):
        # two centers at +-1 on one axis are 2 apart: noise_std 0.5 puts the floor there
        task = make_task(2, 1, noise_std=0.5, center_scale=1.0, seed=0)
        assert abs(task.centers[0, 0] - task.centers[1, 0]) == 2.0

    def test_deterministic(self):
        a = make_task(4, 8, seed=7)
        b = make_task(4, 8, seed=7)
        assert np.array_equal(a.centers, b.centers)
        assert np.array_equal(a.maps, b.maps)


class TestGenerateBatch:
    def test_zero_noise_hits_centers_exactly(self):
        task = make_task(3, 5, noise_std=0.0, seed=3)
        tokens, targets, labels = generate_batch(task, make_rng(0), 50)
        assert np.array_equal(tokens, task.centers[labels])

    def test_targets_apply_label_map(self):
        task = make_task(3, 5, noise_std=0.1, seed=3)
        tokens, targets, labels = generate_batch(task, make_rng(1), 40)
        for t in range(40):
            assert np.allclose(targets[t], task.maps[labels[t]] @ tokens[t], atol=1e-12)

    def test_label_histogram_uniform_within_3_sigma(self):
        task = make_task(4, 4, seed=4)
        _, _, labels = generate_batch(task, make_rng(2), 100_000)
        counts = np.bincount(labels, minlength=4)
        expected = 100_000 / 4
        bound = 3 * np.sqrt(100_000 * 0.25 * 0.75)
        assert np.all(np.abs(counts - expected) <= bound)

    def test_reproducible_under_fixed_seed(self):
        task = make_task(2, 4, seed=5)
        a = generate_batch(task, make_rng(9), 16)
        b = generate_batch(task, make_rng(9), 16)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_size_validation(self):
        task = make_task(2, 4, seed=5)
        with pytest.raises(ValueError):
            generate_batch(task, make_rng(0), 0)


def test_task_needs_pattern_conditional_computation():
    """Design check for the central experiment's task.

    A dedicated linear model per pattern solves the task exactly (least
    squares recovers each map), while the shared dense FFN at the
    experiment's width plateaus orders of magnitude higher, so conditional
    computation has real headroom to exploit.
    """
    task = make_task(4, 8, noise_std=0.1, seed=0)
    tokens, targets, labels = generate_batch(task, make_rng(123), 4000)
    conditional_mse = 0.0
    for pattern in range(4):
        mask = labels == pattern
        coef, *_ = np.linalg.lstsq(tokens[mask], targets[mask], rcond=None)
        residual = tokens[mask] @ coef - targets[mask]
        conditional_mse += float(np.mean(residual**2)) * mask.mean()
    assert conditional_mse < 1e-12

    model = init_toy_model(8, 32, seed=0)
    cfg = TrainConfig(lr=0.05, steps=1500, batch=64, seed=0)
    base = pretrain(task, model, cfg)
    assert base.final_eval.mse > 1e-3


class TestPretrain:
    def test_single_pattern_converges(self):
        # one pattern = one linear regime; the dense model must fit it well
        task = make_task(1, 4, noise_std=0.1, seed=0)
        model = init_toy_model(4, 16, seed=0)
        cfg = TrainConfig(lr=0.01, steps=2000, batch=32, optimizer="adamw", seed=0,
                          eval_tokens=4000)
        result = pretrain(task, model, cfg)
        assert result.final_eval.mse <= 1e-3

    def test_zero_lr_keeps_curve_constant(self):
        task = make_task(2, 4, seed=6)
        model = init_toy_model(4, 8, seed=6)
        cfg = TrainConfig(lr=0.0, steps=20, batch=16, seed=6,
                          eval_tokens=500, probe_tokens=64)
        result = pretrain(task, model, cfg)
        probes = {row["probe_mse"] for row in result.curves}
        assert len(probes) == 1
        assert np.array_equal(result.model.block.w1, model.block.w1)

    def test_seeded_runs_identical(self, small_setup):
        task, first = small_setup
        model = init_toy_model(6, 12, seed=12)
        cfg = TrainConfig(lr=0.05, steps=300, batch=32, seed=12,
                          eval_tokens=2000, probe_tokens=128)
        second = pretrain(task, model, cfg)
        assert first.curves == second.curves
        assert first.final_eval.mse == second.final_eval.mse

    def test_divergence_aborts_with_diagnostic(self):
        task = make_task(2, 4, seed=7)
        model = init_toy_model(4, 8, seed=7)
        cfg = TrainConfig(lr=50.0, steps=200, batch=16, seed=7)
        with pytest.raises(DivergenceError) as exc:
            pretrain(task, model, cfg)
        assert "step" in str(exc.value)

    def test_curve_rows_carry_a_zero_balance_loss(self):
        # one training step for both stages: a dense block's aux is 0.0, so its checked loss is its MSE
        task = make_task(2, 4, seed=6)
        cfg = TrainConfig(steps=5, batch=16, seed=6, eval_tokens=100, probe_tokens=32)
        result = pretrain(task, init_toy_model(4, 8, seed=6), cfg)
        assert [row["batch_aux"] for row in result.curves] == [0.0] * 5

    def test_input_model_not_mutated(self):
        task = make_task(2, 4, seed=9)
        model = init_toy_model(4, 8, seed=9)
        before = model.block.w1.copy()
        pretrain(task, model, TrainConfig(lr=0.1, steps=20, batch=8, seed=9,
                                          eval_tokens=200, probe_tokens=32))
        assert np.array_equal(model.block.w1, before)


class TestMoeTune:
    def test_zero_steps_is_functionally_the_base(self, small_setup):
        task, pre = small_setup
        cfg = TrainConfig(lr=0.05, steps=0, batch=32, seed=12,
                          eval_tokens=2000, probe_tokens=128)
        result = moe_tune(task, pre.model, small_moe_cfg(), cfg)
        assert abs(result.metrics["mse"] - result.metrics["base_mse"]) <= 1e-9
        tokens, _, _ = generate_batch(task, make_rng(5), 64)
        base_pred = model_predict(pre.model, tokens)
        tuned_pred = model_predict(result.model, tokens)
        assert np.max(np.abs(base_pred - tuned_pred)) <= 1e-12

    def test_step0_identity_holds(self, small_setup):
        task, pre = small_setup
        cfg = TrainConfig(lr=0.05, steps=50, batch=32, seed=12,
                          eval_tokens=2000, probe_tokens=128)
        result = moe_tune(task, pre.model, small_moe_cfg(), cfg)
        assert abs(result.metrics["step0_mse"] - result.metrics["base_mse"]) <= 1e-9

    def test_frozen_map_bit_identical_after_tuning(self, small_setup):
        task, pre = small_setup
        cfg = TrainConfig(lr=0.05, steps=100, batch=32, seed=12,
                          eval_tokens=2000, probe_tokens=128)
        result = moe_tune(task, pre.model, small_moe_cfg(), cfg)
        assert result.model.input_w.tobytes() == pre.model.input_w.tobytes()
        assert result.model.input_b.tobytes() == pre.model.input_b.tobytes()

    def test_broken_router_init_raises_identity_violation(self, small_setup, monkeypatch):
        task, pre = small_setup
        real_init = moeforge.moe.init_router

        def skewed(cfg, rng, dtype=np.float64):
            router = real_init(cfg, rng, dtype)
            router.b_r = router.b_r + np.arange(cfg.n_experts, dtype=dtype)
            return router

        monkeypatch.setattr(moeforge.moe, "init_router", skewed)
        cfg = TrainConfig(lr=0.05, steps=10, batch=32, seed=12,
                          eval_tokens=2000, probe_tokens=128)
        with pytest.raises(IdentityViolation):
            moe_tune(task, pre.model, small_moe_cfg(), cfg)

    def test_overflowing_objective_diverges_at_step_0(self, small_setup):
        # mse + alpha * aux reaches the largest float or beyond
        task, pre = small_setup
        cfg = TrainConfig(steps=5, batch=32, seed=12, alpha=1.7e308, eval_tokens=200, probe_tokens=32)
        with np.errstate(all="ignore"), pytest.raises(DivergenceError, match="batch loss .* at step 0$"):
            moe_tune(task, pre.model, small_moe_cfg(), cfg)

    def test_alpha_sweep_loading_non_increasing(self):
        task = make_task(4, 8, noise_std=0.1, seed=3)
        model = init_toy_model(8, 32, seed=3)
        pre = pretrain(task, model, TrainConfig(lr=0.05, steps=1200, batch=64, seed=3))
        moe_cfg = MoeConfig(token_dim=8, hidden_dim=32, n_replicas=4, granularity=2, seed=3)
        maxes = []
        for alpha in (0.0, 0.01, 1.0):
            cfg = TrainConfig(lr=0.05, steps=2000, batch=64, alpha=alpha, seed=3)
            maxes.append(moe_tune(task, pre.model, moe_cfg, cfg).metrics["max_loading"])
        assert maxes[0] >= maxes[1] >= maxes[2]

    def test_base_model_untouched(self, small_setup):
        task, pre = small_setup
        before = pre.model.head_w.copy()
        cfg = TrainConfig(lr=0.1, steps=40, batch=32, seed=12,
                          eval_tokens=2000, probe_tokens=128)
        moe_tune(task, pre.model, small_moe_cfg(), cfg)
        assert np.array_equal(pre.model.head_w, before)


class TestAblation:
    def test_rows_match_combos_and_all_frozen_equals_base(self, small_setup):
        task, pre = small_setup
        cfg = TrainConfig(lr=0.05, steps=30, batch=32, seed=12,
                          eval_tokens=2000, probe_tokens=128)
        combos = ((), ("moe",), ("moe", "head"))
        rows = ablate_tuning_subsets(task, pre.model, small_moe_cfg(), cfg, combos=combos)
        assert len(rows) == 3
        assert rows[0]["combo"] == "none"
        assert abs(rows[0]["mse"] - rows[0]["base_mse"]) <= 1e-9

    def test_head_helps_across_seeds(self):
        # directional finding: letting the head train should not hurt (>= 4/5 seeds)
        wins = 0
        for seed in range(5):
            task = make_task(4, 8, noise_std=0.1, seed=seed)
            model = init_toy_model(8, 32, seed=seed)
            pre = pretrain(task, model, TrainConfig(lr=0.05, steps=1200, batch=64, seed=seed))
            moe_cfg = MoeConfig(token_dim=8, hidden_dim=32, n_replicas=4, granularity=2, seed=seed)
            cfg = TrainConfig(lr=0.05, steps=1500, batch=64, seed=seed)
            rows = ablate_tuning_subsets(task, pre.model, moe_cfg, cfg,
                                         combos=(("moe",), ("moe", "head")))
            wins += rows[1]["mse"] <= rows[0]["mse"]
        assert wins >= 4

    def test_unknown_part_rejected(self, small_setup):
        task, pre = small_setup
        with pytest.raises(ValueError):
            ablate_tuning_subsets(task, pre.model, small_moe_cfg(),
                                  TrainConfig(), combos=(("decoder",),))


class TestEvaluateAndFlags:
    def test_evaluate_deterministic(self, small_setup):
        task, pre = small_setup
        a = evaluate(pre.model, task, 1000)
        b = evaluate(pre.model, task, 1000)
        assert a.mse == b.mse

    def test_frozen_moe_flag_keeps_experts(self, small_setup):
        task, pre = small_setup
        cfg = TrainConfig(lr=0.1, steps=30, batch=32, seed=12,
                          trainable={"moe": False, "head": True, "map": False},
                          eval_tokens=2000, probe_tokens=128)
        result = moe_tune(task, pre.model, small_moe_cfg(), cfg)
        base_slices = result.metrics["base_mse"]
        # experts never updated: they must still reassemble the base function
        tokens, _, _ = generate_batch(task, make_rng(8), 32)
        from moeforge.ffn import ffn_forward_batch
        u = tokens @ result.model.input_w.T + result.model.input_b
        total = np.zeros_like(u)
        for e in result.model.block.experts[:2]:
            total += ffn_forward_batch(e, u)
        assert np.max(np.abs(total - ffn_forward_batch(pre.model.block, u))) <= 1e-12


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(lr=-0.1)
        with pytest.raises(ValueError):
            TrainConfig(steps=-1)
        with pytest.raises(ValueError):
            TrainConfig(optimizer="rmsprop")

    @pytest.mark.parametrize("name", ["lr", "lr_head", "lr_router", "alpha"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rates_must_be_finite(self, name, value):
        with pytest.raises(ValueError, match=f"TrainConfig: {name} must be finite, got {value}"):
            TrainConfig(**{name: value})

    @pytest.mark.parametrize("trainable", [
        {"moe": True, "head": True},
        {"moe": True, "head": True, "map": False, "decoder": True},
        {"moe": 1, "head": True, "map": False},
    ])
    def test_trainable_is_exactly_three_switches(self, trainable):
        with pytest.raises(ValueError, match="TrainConfig: trainable must map moe, head and map to booleans"):
            TrainConfig(trainable=trainable)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_range(self, seed):
        message = f"seed must be an unsigned 64-bit integer, got {seed}"
        with pytest.raises(ValueError, match=f"TrainConfig: {message}"):
            TrainConfig(seed=seed)
        with pytest.raises(ValueError, match=f"MoeConfig: {message}"):
            MoeConfig(token_dim=4, hidden_dim=8, seed=seed)


# Each size is checked by the constructor it feeds, before any draw: a ValueError naming it, never a
# ShapeError (which the CLI reports as an internal error).
@pytest.mark.parametrize("value", [0, -1])
@pytest.mark.parametrize("make, label", [
    (lambda v: make_task(v, 4), "make_task: n_patterns"),
    (lambda v: make_task(4, v), "make_task: token_dim"),
    (lambda v: init_ffn(v, 8, make_rng(0)), "init_ffn: token_dim"),
    (lambda v: init_ffn(8, v, make_rng(0)), "init_ffn: hidden_dim"),
    (lambda v: init_toy_model(v, 8, seed=0), "init_toy_model: token_dim"),
    (lambda v: init_toy_model(4, v, seed=0), "init_ffn: hidden_dim"),
    (lambda v: TrainConfig(batch=v), "TrainConfig: batch"),
    (lambda v: TrainConfig(eval_tokens=v), "TrainConfig: eval_tokens"),
    (lambda v: TrainConfig(probe_tokens=v), "TrainConfig: probe_tokens"),
    (lambda v: TrainConfig(threads=v), "TrainConfig: threads"),
], ids=["task-patterns", "task-dim", "ffn-dim", "ffn-hidden", "model-dim", "model-hidden",
        "batch", "eval_tokens", "probe_tokens", "threads"])
def test_size_below_one_is_a_value_error_naming_it(make, label, value):
    with pytest.raises(ValueError, match=f"^{label} must be >= 1, got {value}$") as exc:
        make(value)
    assert not isinstance(exc.value, ShapeError)


def _collect_grads_reference(model, tokens, targets, alpha):
    """Expert and map gradients with one nonzero scan and one scatter per expert.

    The map gradient adds the balance loss's path through the router after
    the experts' rows.
    """
    layer = model.block
    u = mm(tokens, model.input_w.T) + model.input_b
    v, trace = dispatch_loop(layer, u)
    y = mm(v, model.head_w.T) + model.head_b
    dv = mm((2.0 / y.size) * (y - targets), model.head_w)
    experts = []
    du = np.zeros_like(u)
    for e, p in enumerate(layer.experts):
        idx = np.nonzero((trace.selected == e).any(axis=1))[0]
        g = None
        if idx.size:
            g, du_e = ffn_backward_batch(p, u[idx], dv[idx])
            du[idx] += du_e
        experts.append(g)
    du += mm(balance_loss_backward(trace, u, alpha)[2], layer.router.w_r)
    return experts, mm(du.T, tokens), du.sum(axis=0)


# (token_dim, hidden_dim, n_replicas, granularity), top_k, tokens: the default
# shape; 3 tokens on 16 experts, which leaves experts empty; top_k = n_experts;
# a large batch. Training lays a batch out as one chunk whatever the thread
# count; its forward must be dispatch_batch's at that count, bit for bit.
@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("dims,top_k,n_tokens", [((6, 12, 2, 2), 0, 45), ((8, 16, 4, 4), 2, 3),
                                                 ((5, 8, 3, 2), 6, 45), ((6, 12, 2, 2), 0, 4096)])
def test_collect_grads_bitwise_equals_per_expert_loop(dims, top_k, n_tokens, threads):
    from moeforge.harness import ToyModel, _collect_grads, _model_forward

    token_dim, hidden_dim, n_replicas, granularity = dims
    rng = make_rng(31)
    base = init_toy_model(token_dim, hidden_dim, seed=31)
    # top_k 0 stands for the default, None: top_k tracks granularity
    layer, _, cfg = random_layer(rng, token_dim, hidden_dim, n_replicas, granularity, top_k=top_k or None)
    model = ToyModel(base.input_w, base.input_b, layer, base.head_w, base.head_b)
    tokens = rng.normal(size=(n_tokens, token_dim))
    targets = rng.normal(size=(n_tokens, token_dim))
    grads, _, _, _ = _collect_grads(model, tokens, targets, 0.01)
    _, v, y, trace, _ = _model_forward(model, tokens, None)
    _, v_t, y_t, trace_t, _ = _model_forward(model, tokens, threads)
    assert v.tobytes() == v_t.tobytes() and y.tobytes() == y_t.tobytes()
    assert np.array_equal(trace.selected, trace_t.selected) and trace.scores.tobytes() == trace_t.scores.tobytes()
    experts, map_w, map_b = _collect_grads_reference(model, tokens, targets, 0.01)
    assert (None in experts) == (n_tokens * cfg.top_k < cfg.n_experts)
    for field in ("w1", "b1", "w2", "b2"):
        stack = grads[f"experts.{field}"]
        assert stack.shape == getattr(layer.experts, field).shape
        for e, want in enumerate(experts):
            # row e is the expert's own backward, bit for bit; an empty expert's row is all zero
            row = stack[e]
            if want is None:
                assert not row.any() and not np.signbit(row).any()
            else:
                assert row.tobytes() == getattr(want, field).tobytes()
    assert np.array_equal(grads["input_w"], map_w)
    assert np.array_equal(grads["input_b"], map_b)


class _PerNameAdamW:
    """AdamW with one state entry per name, as it was before stacked steps.

    It steps each live expert as its own view, named ``expert{e}.{field}``,
    and leaves an empty expert's entry alone: the reference the stacked,
    row-masked step must reproduce bit for bit.
    """

    def __init__(self, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.0):
        self.beta1, self.beta2, self.eps, self.weight_decay = beta1, beta2, eps, weight_decay
        self.m, self.v, self.t = {}, {}, {}

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


class _PerNameSgd:
    def step(self, name, param, grad, lr):
        param -= lr * grad


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("optimizer", ["sgd", "adamw"])
def test_stacked_step_bitwise_equals_per_expert_optimizer(optimizer, dtype):
    # 3 tokens over 16 experts at top-2: experts go empty and come back. In float32 the router's
    # gradient is float64, which must not widen the float32 moments.
    from moeforge.harness import ToyModel, _AdamW, _Sgd, _apply_updates, _collect_grads, _parameters

    rng = make_rng(43)
    base = init_toy_model(8, 16, seed=43, dtype=dtype)
    cfg = MoeConfig(token_dim=8, hidden_dim=16, n_replicas=4, granularity=4, top_k=2)
    layer = expand_supernet(random_ffn(rng, 8, 16, dtype=dtype), cfg)
    for name, _, a in _parameters(ToyModel(base.input_w, base.input_b, layer, base.head_w, base.head_b)):
        if name.startswith(("experts.", "router.")):
            a += (0.3 * rng.normal(size=a.shape)).astype(dtype)
    model = ToyModel(base.input_w, base.input_b, layer, base.head_w, base.head_b)
    ref = model.copy()
    train = TrainConfig(lr=0.05, lr_head=0.02, lr_router=0.1, optimizer=optimizer,
                        trainable={"moe": True, "head": True, "map": True})
    lr = {"experts": 0.05, "router": 0.1, "head": 0.02, "map": 0.05}
    opt = _AdamW() if optimizer == "adamw" else _Sgd()
    ref_opt = _PerNameAdamW() if optimizer == "adamw" else _PerNameSgd()
    history = []
    for step in range(40):
        tokens = rng.normal(size=(3, 8)).astype(dtype)
        targets = rng.normal(size=(3, 8)).astype(dtype)
        grads, _, _, trace = _collect_grads(model, tokens, targets, 0.01)
        _apply_updates(model, grads, trace, train, opt)
        ref_grads, _, _, ref_trace = _collect_grads(ref, tokens, targets, 0.01)
        live = np.flatnonzero(moeforge.moe.assignment_counts(ref_trace))
        history.append(set(live.tolist()))
        for name, part, param in _parameters(ref):
            if part != "experts":
                ref_opt.step(name, param, ref_grads[name], lr[part])
                continue
            field = name.split(".")[1]
            for e in live:
                ref_opt.step(f"expert{e}.{field}", param[e], ref_grads[name][e], lr[part])
        for (name, _, a), (_, _, b) in zip(_parameters(model), _parameters(ref)):
            assert a.tobytes() == b.tobytes(), (step, name)
    # some expert was live, then empty, then live again
    assert any(re.search("10+1", "".join(str(int(e in h)) for h in history)) for e in range(cfg.n_experts))
    if optimizer == "sgd":
        return
    for name, part, a in _parameters(model):
        if part != "experts":
            assert opt.t[name] == ref_opt.t[name] == 40
            assert opt.m[name].tobytes() == ref_opt.m[name].tobytes()
            assert opt.v[name].tobytes() == ref_opt.v[name].tobytes()
            continue
        field = name.split(".")[1]
        for e in range(cfg.n_experts):
            key, zero = f"expert{e}.{field}", np.zeros_like(a[e])
            assert opt.t[name][e] == ref_opt.t.get(key, 0) == sum(e in h for h in history)
            assert opt.m[name][e].tobytes() == ref_opt.m.get(key, zero).tobytes()
            assert opt.v[name][e].tobytes() == ref_opt.v.get(key, zero).tobytes()
    # beta2**t and np.power(beta2, t) first differ at t = 7 on common platforms
    assert opt.t["experts.w1"].max() >= 7 and opt.t["experts.w1"].min() < 40


@pytest.mark.parametrize("dims,seed", [((5, 8, 3, 2), 7), ((16, 32, 4, 2), 8), ((4, 9, 2, 3), 9)])
def test_gradcheck_instance_keeps_the_per_expert_draw_order(dims, seed):
    from moeforge.harness import ToyModel, _gradcheck_instance
    from moeforge.numkernel import STREAM_GRADCHECK

    rng, ref_rng = make_rng(seed), make_rng(seed)
    model, tokens, targets = _gradcheck_instance(rng, dims)
    # the reference takes the first draw, so the instance must have accepted it
    inst_seed = int(ref_rng.integers(0, 2**63))
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    token_dim, hidden_dim, n_replicas, granularity = dims
    sub = make_rng(inst_seed, STREAM_GRADCHECK)
    dense = init_toy_model(token_dim, hidden_dim, inst_seed)
    layer = expand_supernet(dense.block, MoeConfig(token_dim=token_dim, hidden_dim=hidden_dim,
                                                   n_replicas=n_replicas, granularity=granularity,
                                                   seed=inst_seed))
    # the old order: w1, b1, w2, b2 of each expert's view, experts ascending, then the router
    for p in layer.experts:
        for a in (p.w1, p.b1, p.w2, p.b2):
            a += 0.3 * sub.normal(size=a.shape)
    for a in (layer.router.w_r, layer.router.b_r):
        a += 0.5 * sub.normal(size=a.shape)
    ref = ToyModel(dense.input_w, dense.input_b, layer, dense.head_w, dense.head_b)
    assert [a.tobytes() for a in _arrays_held(model)] == [a.tobytes() for a in _arrays_held(ref)]
    assert tokens.tobytes() == sub.normal(size=(3, token_dim)).tobytes()
    assert targets.tobytes() == sub.normal(size=(3, token_dim)).tobytes()


class TestGradcheck:
    def test_small_run_passes(self):
        report = run_gradcheck(seed=0, n_instances=6)
        assert report["passed"]
        assert all(err <= report["tol"] for err in report["groups"].values())
        assert report["alpha_zero_router_max"] == 0.0

    @pytest.mark.parametrize("n_instances", [0, -1])
    def test_no_instances_rejected(self, n_instances):
        # zero instances would check nothing and pass; a negative count ran one
        with pytest.raises(ValueError, match="n_instances must be >= 1"):
            run_gradcheck(seed=0, n_instances=n_instances)

    def test_corrupted_gradients_fail(self):
        from moeforge.harness import _collect_grads

        def corrupted(model, tokens, targets, alpha):
            grads, mse, aux, trace = _collect_grads(model, tokens, targets, alpha)
            grads["head_w"] = grads["head_w"] * 1.5
            return grads, mse, aux, trace

        report = run_gradcheck(seed=0, n_instances=2, grad_fn=corrupted)
        assert not report["passed"]
        assert report["groups"]["head"] > report["tol"]
        assert report["worst"]["group"] == "head"

    def test_worst_offender_indexes_the_expert_stack(self):
        from moeforge.harness import _collect_grads

        def corrupted(model, tokens, targets, alpha):
            grads, mse, aux, trace = _collect_grads(model, tokens, targets, alpha)
            grads["experts.w1"] = grads["experts.w1"] + 0.05
            return grads, mse, aux, trace

        worst = run_gradcheck(seed=0, n_instances=1, grad_fn=corrupted)["worst"]
        # (expert, row, column) of the stacked array, not a per-expert name
        assert (worst["group"], worst["name"], len(worst["index"])) == ("experts", "experts.w1", 3)

    # a NaN or inf gradient element, and NaN router gradients at alpha = 0 only
    @pytest.mark.parametrize("name, index, value, at_alpha", [
        ("experts.w1", (1, 0, 2), np.nan, None),
        ("head_w", (2, 1), np.inf, None),
        ("router.w_r", ..., np.nan, 0.0),
    ], ids=["nan", "inf", "router-nan-at-alpha-0"])
    def test_non_finite_gradients_fail(self, name, index, value, at_alpha):
        from moeforge.harness import _collect_grads

        def corrupted(model, tokens, targets, alpha):
            grads, mse, aux, trace = _collect_grads(model, tokens, targets, alpha)
            if at_alpha is None or alpha == at_alpha:
                grads[name] = grads[name].copy()
                grads[name][index] = value
            return grads, mse, aux, trace

        report = run_gradcheck(seed=0, dims=[(4, 8, 2, 2), (5, 6, 2, 3)], grad_fn=corrupted)
        assert not report["passed"]
        if at_alpha is None:
            # the non-finite element outranks every finite difference, and its group reads NaN
            assert (report["worst"]["name"], report["worst"]["index"], report["worst"]["instance"]) == (name, index, 0)
            assert np.isnan(report["groups"][report["worst"]["group"]])
        else:
            assert np.isnan(report["alpha_zero_router_max"])

    def test_report_matches_the_per_element_reference(self):
        # the audit's numpy reductions against a loop over Python floats: same draws, same order
        from moeforge.harness import _collect_grads, _gradcheck_instance, _model_forward, _parameters
        from moeforge.moe import load_balance_loss, total_loss
        from moeforge.numkernel import STREAM_TRAIN

        dims, alpha, step = [(4, 8, 2, 2), (5, 6, 2, 3)], 0.01, 1e-6
        rng = make_rng(3, STREAM_TRAIN)
        groups, worst = dict.fromkeys(("experts", "router", "head", "map"), 0.0), None
        for inst, shape in enumerate(dims):
            model, tokens, targets = _gradcheck_instance(rng, shape)

            def loss():
                _, _, y, trace, _ = _model_forward(model, tokens)
                return total_loss(float(np.mean((y - targets) ** 2)), load_balance_loss(trace), alpha)

            grads = _collect_grads(model, tokens, targets, alpha)[0]
            pairs = {g: [] for g in groups}
            for name, group, param in _parameters(model):
                for idx in np.ndindex(param.shape):
                    orig = param[idx]
                    param[idx] = orig + step
                    up = loss()
                    param[idx] = orig - step
                    down = loss()
                    param[idx] = orig
                    a, fd = float(grads[name][idx]), (up - down) / (2.0 * step)
                    pairs[group].append((a, fd))
                    if worst is None or abs(a - fd) > worst[0]:
                        worst = (abs(a - fd), group, name, idx, a, fd, inst)
            for group, pair in pairs.items():
                scale = max(max(abs(a) for a, _ in pair), max(abs(fd) for _, fd in pair), 1e-6)
                groups[group] = max(groups[group], max(abs(a - fd) for a, fd in pair) / scale)

        report = run_gradcheck(seed=3, dims=dims, alpha=alpha)
        assert report["groups"] == groups
        w = report["worst"]
        assert (w["group"], w["name"], w["index"], w["analytic"], w["fd"], w["instance"]) == worst[1:]
        assert w["rel"] == worst[0] / max(abs(worst[4]), abs(worst[5]), 1e-6)

    def test_pool_is_given_one_way(self):
        with pytest.raises(ValueError, match="give dims or n_instances, not both"):
            run_gradcheck(seed=0, n_instances=7, dims=[(4, 8, 2, 2)])


def _arrays_held(obj):
    """Every ndarray reachable through the dataclass fields of obj."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if dataclasses.is_dataclass(obj):
        return [a for f in dataclasses.fields(obj) for a in _arrays_held(getattr(obj, f.name))]
    return []


class TestParameterTable:
    @pytest.mark.parametrize("kind", ["dense", "moe"])
    def test_table_covers_the_model(self, kind):
        from moeforge.harness import ToyModel, _parameters

        model = init_toy_model(6, 12, seed=3)
        if kind == "moe":
            layer = expand_supernet(model.block, small_moe_cfg())
            model = ToyModel(model.input_w, model.input_b, layer, model.head_w, model.head_b)
        held = _arrays_held(model)
        table = [a for _, _, a in _parameters(model)]
        # four FFN arrays (one FFN or one stack), two router arrays, four head and map arrays;
        # the table holds each of them, not a view
        assert len(held) == (4 + 4 if kind == "dense" else 4 + 2 + 4)
        assert len(table) == len(held)
        assert all(any(a is h for h in held) for a in table)
        # the table's arrays write through to every held element exactly once
        for a in held:
            a[...] = 0
        for a in table:
            a += 1
        assert all(np.all(a == 1) for a in held)
        names = [name for name, _, _ in _parameters(model)]
        assert len(set(names)) == len(names)

    def test_empty_experts_are_never_stepped(self):
        # 3 tokens over 16 experts at top-2: at least 10 experts get no tokens
        from moeforge.harness import ToyModel, _AdamW, _apply_updates, _collect_grads, _parameters

        rng = make_rng(41)
        base = init_toy_model(8, 16, seed=41)
        layer, _, cfg = random_layer(rng, 8, 16, n_replicas=4, granularity=4, top_k=2)
        model = ToyModel(base.input_w, base.input_b, layer, base.head_w, base.head_b)
        tokens = rng.normal(size=(3, 8))
        targets = rng.normal(size=(3, 8))
        grads, _, _, trace = _collect_grads(model, tokens, targets, 0.01)
        empty = sorted(set(range(cfg.n_experts)) - set(trace.selected.ravel().tolist()))
        assert empty
        live = sorted(set(range(cfg.n_experts)) - set(empty))
        before = {name: a.copy() for name, _, a in _parameters(model)}
        opt = _AdamW()
        cfg_all = TrainConfig(optimizer="adamw", trainable={"moe": True, "head": True, "map": True})
        _apply_updates(model, grads, trace, cfg_all, opt)
        for name, part, a in _parameters(model):
            if part == "experts":
                # empty rows: parameter bytes unchanged, zero moments, no step counted
                assert a[empty].tobytes() == before[name][empty].tobytes()
                assert not opt.m[name][empty].any() and not opt.v[name][empty].any()
                assert opt.t[name].tolist() == [int(e in live) for e in range(cfg.n_experts)]
                assert opt.m[name][live].any() and a[live].tobytes() != before[name][live].tobytes()
            else:
                assert opt.t[name] == 1
        assert sorted(k for k in opt.t if k.startswith("experts.")) == [
            "experts.b1", "experts.b2", "experts.w1", "experts.w2"]


def test_f32_gradients_and_adamw_moments_keep_the_model_dtype():
    # the router gradient scales float32 scores by the assignment fractions,
    # which must not widen it to float64
    from moeforge.harness import ToyModel, _AdamW, _apply_updates, _collect_grads

    base = init_toy_model(6, 12, seed=4, dtype=np.float32)
    layer = expand_supernet(base.block, MoeConfig(token_dim=6, hidden_dim=12, n_replicas=3, granularity=2, seed=4))
    model = ToyModel(base.input_w, base.input_b, layer, base.head_w, base.head_b)
    rng = make_rng(4)
    tokens, targets = (rng.normal(size=(40, 6)).astype(np.float32) for _ in range(2))
    grads, _, _, trace = _collect_grads(model, tokens, targets, 0.01)
    assert {name: g.dtype for name, g in grads.items()} == {name: np.dtype(np.float32) for name in grads}
    opt = _AdamW()
    cfg = TrainConfig(optimizer="adamw", trainable={"moe": True, "head": True, "map": True})
    _apply_updates(model, grads, trace, cfg, opt)
    assert len(opt.m) == len(grads) and all(a.dtype == np.float32 for a in (*opt.m.values(), *opt.v.values()))
