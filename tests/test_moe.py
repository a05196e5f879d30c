import math
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moeforge.ffn import FfnParams, ffn_forward, ffn_forward_batch
from moeforge.moe import (
    MoeConfig,
    RouterParams,
    RoutingTrace,
    assignment_fractions,
    balance_loss_backward,
    expand_supernet,
    group_by_expert,
    init_router,
    load_balance_loss,
    moe_forward,
    route,
    route_batch,
    split_ffn,
    top_k_gate,
    top_k_select_rows,
    total_loss,
)
from moeforge.numkernel import ShapeError, make_rng

from conftest import random_ffn, random_layer


class TestConfig:
    def test_default_expert_count(self):
        cfg = MoeConfig(token_dim=8, hidden_dim=32)
        assert cfg.n_replicas == 8 and cfg.granularity == 2
        assert cfg.n_experts == 16 and cfg.top_k == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            MoeConfig(token_dim=4, hidden_dim=10, granularity=3)
        with pytest.raises(ValueError):
            MoeConfig(token_dim=4, hidden_dim=8, n_replicas=2, granularity=2, top_k=5)
        with pytest.raises(ValueError):
            MoeConfig(token_dim=0, hidden_dim=8)


class TestSplitFfn:
    def test_single_slice_is_identity(self, rng):
        p = random_ffn(rng, 3, 6)
        (e,) = split_ffn(p, 1)
        for a, b in ((e.w1, p.w1), (e.b1, p.b1), (e.w2, p.w2), (e.b2, p.b2)):
            assert np.array_equal(a, b)

    def test_hand_oracle(self):
        # D=1, H=2, k=2; experts ([[2]],(0),[[1]],(2)) and ([[3]],(0),[[1]],(2))
        p = FfnParams(np.array([[2.0], [3.0]]), np.zeros(2),
                      np.array([[1.0, 1.0]]), np.array([4.0]), "relu")
        e0, e1 = split_ffn(p, 2)
        assert np.array_equal(e0.w1, [[2.0]]) and np.array_equal(e1.w1, [[3.0]])
        assert np.array_equal(e0.w2, [[1.0]]) and np.array_equal(e1.w2, [[1.0]])
        assert e0.b2[0] == 2.0 and e1.b2[0] == 2.0
        x = np.array([1.0])
        assert ffn_forward(e0, x)[0] == 4.0 and ffn_forward(e1, x)[0] == 5.0
        assert ffn_forward(e0, x)[0] + ffn_forward(e1, x)[0] == ffn_forward(p, x)[0] == 9.0

    @pytest.mark.parametrize("granularity", [2, 4, 8])
    def test_sum_identity(self, granularity):
        # slices of the hidden dimension must reassemble the parent output
        rng = make_rng(31)
        p = random_ffn(rng, 16, 64)
        x = rng.normal(size=(1000, 16))
        full = ffn_forward_batch(p, x)
        total = np.zeros_like(full)
        for e in split_ffn(p, granularity):
            total += ffn_forward_batch(e, x)
        assert np.max(np.abs(total - full)) <= 1e-12

    def test_sum_identity_f32_relaxed(self):
        # 32-bit opt-in mode: same identity at the relaxed tolerance
        rng = make_rng(32)
        p = random_ffn(rng, 16, 64).astype(np.float32)
        x = rng.normal(size=(1000, 16)).astype(np.float32)
        full = ffn_forward_batch(p, x)
        total = np.zeros_like(full)
        for e in split_ffn(p, 4):
            total += ffn_forward_batch(e, x)
        assert total.dtype == np.float32
        assert np.max(np.abs(total - full)) <= 1e-5

    def test_indivisible_hidden_error(self, rng):
        with pytest.raises(ValueError):
            split_ffn(random_ffn(rng, 4, 10), 4)

    def test_slices_are_copies(self, rng):
        p = random_ffn(rng, 3, 4)
        e0 = split_ffn(p, 2)[0]
        e0.w1[0, 0] += 1.0
        assert p.w1[0, 0] != e0.w1[0, 0]


class TestExpandSupernet:
    def test_degenerate_single_expert(self, rng):
        base = random_ffn(rng, 4, 6)
        layer = expand_supernet(base, MoeConfig(token_dim=4, hidden_dim=6,
                                                n_replicas=1, granularity=1, seed=3))
        assert len(layer.experts) == 1
        assert np.array_equal(layer.experts[0].w1, base.w1)

    def test_replica_groups_sum_to_base(self, rng):
        base = random_ffn(rng, 5, 8)
        layer = expand_supernet(base, MoeConfig(token_dim=5, hidden_dim=8,
                                                n_replicas=2, granularity=2, seed=3))
        assert len(layer.experts) == 4
        x = rng.normal(size=(100, 5))
        full = ffn_forward_batch(base, x)
        for replica in (layer.experts[0:2], layer.experts[2:4]):
            total = np.zeros_like(full)
            for e in replica:
                total += ffn_forward_batch(e, x)
            assert np.max(np.abs(total - full)) <= 1e-12

    def test_default_sixteen_experts(self, rng):
        base = random_ffn(rng, 8, 32)
        layer = expand_supernet(base, MoeConfig(token_dim=8, hidden_dim=32, seed=1))
        assert len(layer.experts) == 16

    def test_shape_mismatch(self, rng):
        with pytest.raises(ShapeError):
            expand_supernet(random_ffn(rng, 4, 8), MoeConfig(token_dim=4, hidden_dim=16))


class TestInitRouter:
    def test_rows_replicated_contiguously(self):
        cfg = MoeConfig(token_dim=3, hidden_dim=4, n_replicas=2, granularity=2, seed=11)
        r = init_router(cfg, make_rng(11))
        assert r.w_r.shape == (4, 3)
        assert np.array_equal(r.w_r[0], r.w_r[1])
        assert np.array_equal(r.w_r[2], r.w_r[3])
        assert not np.array_equal(r.w_r[0], r.w_r[2])
        assert np.array_equal(r.b_r, np.zeros(4))

    def test_grouped_rows_invariant(self):
        cfg = MoeConfig(token_dim=6, hidden_dim=12, n_replicas=5, granularity=3, seed=0)
        r = init_router(cfg, make_rng(0))
        for rep in range(5):
            for j in range(1, 3):
                assert np.array_equal(r.w_r[3 * rep], r.w_r[3 * rep + j])

    def test_initial_selection_stays_within_one_replica(self, rng):
        base = random_ffn(rng, 6, 12)
        cfg = MoeConfig(token_dim=6, hidden_dim=12, n_replicas=4, granularity=3, seed=5)
        layer = expand_supernet(base, cfg)
        for _ in range(200):
            _, gate = moe_forward(layer, rng.normal(size=6))
            replicas = {i // cfg.granularity for i in gate.selected}
            assert len(replicas) == 1
            assert len(gate.selected) == cfg.granularity


class TestRoute:
    def test_zero_router_uniform(self):
        r = RouterParams(np.zeros((4, 3)), np.zeros(4))
        assert np.array_equal(route(r, np.array([1.0, -2.0, 0.5])), np.full(4, 0.25))

    def test_grouped_scores_at_init(self, rng):
        cfg = MoeConfig(token_dim=5, hidden_dim=10, n_replicas=3, granularity=2, seed=2)
        r = init_router(cfg, make_rng(2))
        s = route(r, rng.normal(size=5))
        for rep in range(3):
            assert s[2 * rep] == s[2 * rep + 1]

    def test_against_straight_line_reimplementation(self, rng):
        # independent oracle: plain python loops and math.exp
        r = RouterParams(rng.normal(size=(6, 4)), rng.normal(size=6))
        x = rng.normal(size=4)
        logits = [sum(r.w_r[i][j] * x[j] for j in range(4)) + r.b_r[i] for i in range(6)]
        peak = max(logits)
        exps = [math.exp(z - peak) for z in logits]
        expected = [e / sum(exps) for e in exps]
        assert np.allclose(route(r, x), expected, atol=1e-12)

    def test_sums_to_one(self, rng):
        r = RouterParams(rng.normal(size=(8, 5)), rng.normal(size=8))
        s = route_batch(r, rng.normal(size=(40, 5)))
        assert np.max(np.abs(s.sum(axis=1) - 1.0)) <= 1e-12

    def test_dimension_mismatch(self, rng):
        r = RouterParams(rng.normal(size=(4, 3)), np.zeros(4))
        with pytest.raises(ShapeError):
            route(r, np.zeros(5))


class TestTopKGate:
    def test_example(self):
        gate = top_k_gate(np.array([0.1, 0.5, 0.4]), 2)
        assert gate.selected == (1, 2)

    def test_tie_breaks_to_lowest_index(self):
        assert top_k_gate(np.array([0.5, 0.5, 0.0]), 1).selected == (0,)
        assert top_k_gate(np.array([0.25, 0.25, 0.25, 0.25]), 2).selected == (0, 1)

    def test_cardinality(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 12))
            k = int(rng.integers(1, n + 1))
            gate = top_k_gate(rng.random(n), k)
            assert len(gate.selected) == k
            assert len(set(gate.selected)) == k
            assert list(gate.selected) == sorted(gate.selected)

    def test_agrees_with_sort_oracle(self):
        rng = make_rng(17)
        for trial in range(10000):
            n = int(rng.integers(2, 10))
            s = rng.random(n)
            if trial % 3 == 0:
                s = np.round(s, 1)  # engineered ties
            k = int(rng.integers(1, n + 1))
            oracle = sorted(sorted(range(n), key=lambda i: (-s[i], i))[:k])
            assert list(top_k_gate(s, k).selected) == oracle

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            top_k_gate(np.array([0.5, 0.5]), 3)
        with pytest.raises(ValueError):
            top_k_select_rows(np.zeros((2, 3)), 0)

    def test_deterministic_across_runs(self, rng):
        s = rng.random(9)
        assert top_k_gate(s, 3).selected == top_k_gate(s.copy(), 3).selected


def _top_k_reference(scores, k):
    """The definition: the first k of a stable argsort on negated scores, ascending."""
    order = np.argsort(-scores, axis=-1, kind="stable")
    return np.sort(order[..., :k], axis=-1)


# Tenths make ties common; the specials are where plain argmax goes wrong.
_scores = st.one_of(
    st.integers(-20, 20).map(lambda i: i / 10),
    st.sampled_from([np.inf, -np.inf, np.nan, 0.0, -0.0]),
    st.floats(allow_nan=True, allow_infinity=True),
)


class TestTopKSelectRowsProperty:
    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_equals_stable_argsort_definition(self, data):
        dtype = data.draw(st.sampled_from([np.float64, np.float32]))
        n = data.draw(st.integers(1, 9))
        t = data.draw(st.integers(0, 6))
        rows = data.draw(st.lists(st.lists(_scores, min_size=n, max_size=n), min_size=t, max_size=t))
        with np.errstate(over="ignore"):
            scores = np.array(rows, dtype=dtype).reshape(t, n)
        before = scores.copy()
        for k in range(1, n + 1):
            got = top_k_select_rows(scores, k)
            assert got.shape == (t, k)
            assert np.array_equal(got, _top_k_reference(scores, k))
            for row in scores:
                assert top_k_gate(row, k).selected == tuple(int(i) for i in _top_k_reference(row, k))
        assert np.array_equal(scores, before, equal_nan=True)

    def test_router_scale_rows(self, rng):
        scores = np.round(rng.random((500, 32)), 2)
        for k in (1, 2, 8, 31, 32):
            assert np.array_equal(top_k_select_rows(scores, k), _top_k_reference(scores, k))

    def test_all_minus_inf_and_all_nan_rows(self):
        scores = np.array([[-np.inf] * 4, [np.nan] * 4, [np.nan, -np.inf, 1.0, np.nan]])
        for k in range(1, 5):
            assert np.array_equal(top_k_select_rows(scores, k), _top_k_reference(scores, k))
        assert top_k_select_rows(scores, 2).tolist() == [[0, 1], [0, 1], [1, 2]]


def _tokens_by_nonzero(selected, n_experts):
    return [np.nonzero((selected == e).any(axis=1))[0] for e in range(n_experts)]


class TestGroupByExpert:
    def _check(self, selected, n_experts):
        groups = group_by_expert(selected, n_experts)
        t, k = selected.shape
        for e, expected in enumerate(_tokens_by_nonzero(selected, n_experts)):
            assert np.array_equal(groups.tokens_of(e), expected)
        assert groups.offsets[0] == 0 and groups.offsets[-1] == t * k
        assert groups.token_ids.shape == (t * k,)
        # every assignment (t, j) appears exactly once: ordering the
        # (token, owning expert) pairs token-major gives the selection back
        owner = np.repeat(np.arange(n_experts), np.diff(groups.offsets))
        order = np.lexsort((owner, groups.token_ids))
        assert np.array_equal(groups.token_ids[order], np.repeat(np.arange(t), k))
        assert np.array_equal(owner[order].reshape(t, k), selected)
        busy = [e for e in range(n_experts) if groups.tokens_of(e).size]
        assert [e for e, _ in groups.nonempty()] == busy
        assert all(np.array_equal(idx, groups.tokens_of(e)) for e, idx in groups.nonempty())

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_nonzero_definition(self, data):
        n_experts = data.draw(st.integers(1, 10))
        k = data.draw(st.integers(1, n_experts))
        t = data.draw(st.integers(0, 12))
        # Drawing from a prefix of the experts leaves the rest empty.
        used = data.draw(st.integers(k, n_experts))
        rows = [sorted(data.draw(st.sets(st.integers(0, used - 1), min_size=k, max_size=k)))
                for _ in range(t)]
        self._check(np.array(rows, dtype=np.int64).reshape(t, k), n_experts)

    def test_empty_batch(self):
        groups = group_by_expert(np.zeros((0, 3), dtype=np.int64), 5)
        assert groups.offsets.tolist() == [0] * 6
        assert groups.token_ids.shape == (0,)
        assert groups.nonempty() == []
        assert all(groups.tokens_of(e).size == 0 for e in range(5))

    def test_every_expert_selected(self):
        self._check(np.tile(np.arange(6), (9, 1)), 6)

    def test_empty_experts(self):
        selected = np.array([[1, 4], [1, 2], [2, 4], [1, 4]])
        self._check(selected, 7)
        groups = group_by_expert(selected, 7)
        assert [groups.tokens_of(e).tolist() for e in range(7)] == [[], [0, 1, 3], [1, 2], [], [0, 2, 3], [], []]

    @pytest.mark.parametrize("n_experts", [256, 257, 300, 65536, 65537, 70_000])
    def test_sort_key_widths(self, n_experts):
        # the sort key is 8, 16 or 32 bits wide depending on n_experts - 1;
        # the grouping must not depend on which
        top = n_experts - 1
        selected = np.array([[0, top // 2, top], [1, top - 1, top], [0, 1, 2],
                             [top - 2, top - 1, top], [0, 128, top]])
        self._check(selected, n_experts)
        assert group_by_expert(selected, n_experts).tokens_of(top).tolist() == [0, 1, 3, 4]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            group_by_expert(np.array([[0, 3]]), 3)
        with pytest.raises(ShapeError):
            group_by_expert(np.array([0, 1]), 3)

    @pytest.mark.parametrize("row", [[3, 3], [2, 1]])
    def test_rows_must_ascend_strictly(self, row):
        # a repeated expert would be added once, not twice; a descending
        # row would be added out of moe_forward's order
        with pytest.raises(ValueError, match="ascend strictly"):
            group_by_expert(np.array([[0, 1], row]), 5)


class TestMoeForward:
    def test_init_identity(self, rng):
        base = random_ffn(rng, 6, 12)
        layer = expand_supernet(base, MoeConfig(token_dim=6, hidden_dim=12,
                                                n_replicas=3, granularity=2, seed=9))
        for _ in range(100):
            x = rng.normal(size=6)
            y, _ = moe_forward(layer, x)
            assert np.max(np.abs(y - ffn_forward(base, x))) <= 1e-12

    def test_full_activation_sums_all_experts(self, rng):
        layer, _, cfg = random_layer(rng, top_k=6, n_replicas=3, granularity=2)
        x = rng.normal(size=cfg.token_dim)
        y, gate = moe_forward(layer, x)
        assert gate.selected == tuple(range(6))
        manual = np.zeros(cfg.token_dim)
        for e in layer.experts:
            manual += ffn_forward(e, x)
        assert np.array_equal(y, manual)

    def test_against_naive_reference(self, rng):
        # independent route: BLAS matmuls and python sorting
        layer, _, cfg = random_layer(rng)
        for _ in range(30):
            x = rng.normal(size=cfg.token_dim)
            logits = layer.router.w_r @ x + layer.router.b_r
            e = np.exp(logits - logits.max())
            s = e / e.sum()
            chosen = sorted(sorted(range(cfg.n_experts), key=lambda i: (-s[i], i))[:cfg.top_k])
            expected = np.zeros(cfg.token_dim)
            for i in chosen:
                p = layer.experts[i]
                expected += p.w2 @ np.maximum(p.w1 @ x + p.b1, 0.0) + p.b2
            y, gate = moe_forward(layer, x)
            assert list(gate.selected) == chosen
            assert np.allclose(y, expected, rtol=1e-9, atol=1e-12)

    def test_dimension_mismatch(self, rng):
        layer, _, _ = random_layer(rng)
        with pytest.raises(ShapeError):
            moe_forward(layer, np.zeros(99))


def _uniform_trace(n_experts, top_k, repeats=3):
    """Every expert set in round-robin, with exactly uniform scores."""
    sets = [tuple(range(i, i + top_k)) for i in range(0, n_experts, top_k)]
    selected = np.array(sets * repeats, dtype=np.int64)
    scores = np.full((len(selected), n_experts), 1.0 / n_experts)
    return RoutingTrace(top_k, scores, selected)


def _hard_trace(assignments, n_experts, top_k):
    """Trace whose scores are the selection indicator / top_k (P = F)."""
    selected = np.array(assignments, dtype=np.int64)
    scores = np.zeros((len(assignments), n_experts))
    for t, row in enumerate(assignments):
        scores[t, list(row)] = 1.0 / top_k
    return RoutingTrace(top_k, scores, selected)


class TestLoadBalanceLoss:
    def test_uniform_is_exactly_one(self):
        assert load_balance_loss(_uniform_trace(4, 1)) == pytest.approx(1.0, abs=1e-12)
        assert load_balance_loss(_uniform_trace(8, 2)) == pytest.approx(1.0, abs=1e-12)

    def test_concentration_limit(self):
        # kN=4, top 1, every token on expert 0 with one-hot scores: 4 * 1 * 1
        trace = _hard_trace([(0,)] * 5, 4, 1)
        assert load_balance_loss(trace) == pytest.approx(4.0, abs=1e-12)

    def test_brute_force_minimum_is_one(self):
        # enumerate every routing for small shapes; with frequency-consistent
        # scores the loss is n * sum(F^2), minimized exactly at balance
        for n_experts in (2, 3, 4):
            for top_k in range(1, n_experts + 1):
                sets = list(combinations(range(n_experts), top_k))
                for t in (1, 2, 3):
                    losses = []
                    for assignment in product(sets, repeat=t):
                        losses.append(load_balance_loss(_hard_trace(list(assignment), n_experts, top_k)))
                    assert min(losses) >= 1.0 - 1e-9
                    balanced_reachable = (t * top_k) % n_experts == 0
                    if balanced_reachable:
                        assert min(losses) == pytest.approx(1.0, abs=1e-9)

    def test_concentration_never_helps(self):
        # moving a token's assignment toward a busier expert cannot lower the loss
        sets = list(combinations(range(4), 2))
        base_assign = [(0, 1), (2, 3), (0, 2)]
        base = load_balance_loss(_hard_trace(base_assign, 4, 2))
        concentrated = load_balance_loss(_hard_trace([(0, 1), (0, 1), (0, 2)], 4, 2))
        assert concentrated > base

    def test_random_soft_traces_stay_above_one(self):
        # pinned corpus at a shape whose selection/score coupling keeps a
        # comfortable margin (see the brute-force bound for the exact law)
        rng = make_rng(2718)
        for _ in range(500):
            z = rng.normal(size=(128, 16))
            s = np.exp(z - z.max(axis=1, keepdims=True))
            s /= s.sum(axis=1, keepdims=True)
            sel = top_k_select_rows(s, 4)
            assert load_balance_loss(RoutingTrace(4, s, sel)) >= 1.0 - 1e-9

    def test_empty_trace_error(self):
        trace = RoutingTrace(2, np.zeros((0, 4)), np.zeros((0, 2), dtype=np.int64))
        with pytest.raises(ValueError):
            load_balance_loss(trace)

    def test_matches_fraction_definition(self, rng):
        layer, _, cfg = random_layer(rng)
        from moeforge.moe import dispatch_batch, mean_scores
        _, trace = dispatch_batch(layer, rng.normal(size=(64, cfg.token_dim)))
        f = assignment_fractions(trace)
        p = mean_scores(trace)
        assert f.sum() == pytest.approx(1.0, abs=1e-12)
        assert load_balance_loss(trace) == pytest.approx(cfg.n_experts * float(np.sum(f * p)), abs=0)


class TestTotalLoss:
    def test_alpha_zero(self):
        assert total_loss(3.5, 100.0, 0.0) == 3.5

    def test_arithmetic(self):
        assert total_loss(2.0, 1.0, 0.01) == pytest.approx(2.01, abs=1e-12)

    def test_pure_aux(self):
        assert total_loss(0.0, 7.0, 0.5) == pytest.approx(3.5, abs=1e-12)

    def test_default_alpha(self):
        assert total_loss(1.0, 1.0) == pytest.approx(1.01, abs=1e-12)

    def test_non_finite(self):
        with pytest.raises(ValueError):
            total_loss(float("inf"), 0.0, 0.0)


class TestBalanceLossBackward:
    def test_matches_fd_on_batch(self):
        rng = make_rng(406)
        layer, _, cfg = random_layer(rng, token_dim=4, hidden_dim=8,
                                     n_replicas=2, granularity=2)
        tokens = rng.normal(size=(6, 4))
        from moeforge.moe import dispatch_batch
        _, trace = dispatch_batch(layer, tokens)
        alpha = 0.3
        d_wr, d_br = balance_loss_backward(trace, tokens, alpha)
        f = assignment_fractions(trace)

        def loss():
            s = route_batch(layer.router, tokens)
            return alpha * cfg.n_experts * float(np.sum(f * s.mean(axis=0)))

        h = 1e-6
        for param, grad in ((layer.router.w_r, d_wr), (layer.router.b_r, d_br)):
            for idx in np.ndindex(param.shape):
                orig = param[idx]
                param[idx] = orig + h
                up = loss()
                param[idx] = orig - h
                down = loss()
                param[idx] = orig
                fd = (up - down) / (2 * h)
                assert abs(grad[idx] - fd) <= 1e-5 * max(abs(grad[idx]), abs(fd), 1e-4)
