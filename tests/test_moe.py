import math
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moeforge.ffn import FfnParams, ffn_forward_batch
from moeforge.moe import (
    MoeConfig,
    RouterParams,
    RoutingTrace,
    assignment_fractions,
    balance_loss_backward,
    dispatch_loop,
    expand_supernet,
    init_router,
    load_balance_loss,
    route_batch,
    row_blocks,
    split_ffn,
    top_k_select_rows,
    total_loss,
)
from moeforge.numkernel import ROW_BLOCK, ShapeError, make_rng, mm

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
        x = np.array([[1.0]])
        y0, y1, y = (ffn_forward_batch(f, x)[0, 0] for f in (e0, e1, p))
        assert y0 == 4.0 and y1 == 5.0
        assert y0 + y1 == y == 9.0

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
        p = random_ffn(rng, 16, 64, dtype=np.float32)
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

    def test_stack_is_a_reshape(self, rng):
        # expert j is rows j*w..(j+1)*w of w1/b1, those columns of w2, b2 / k
        p = random_ffn(rng, 5, 12)
        stack = split_ffn(p, 3)
        assert stack.w1.shape == (3, 4, 5) and stack.w2.shape == (3, 5, 4)
        for j in range(3):
            rows = slice(4 * j, 4 * j + 4)
            assert np.array_equal(stack.w1[j], p.w1[rows]) and np.array_equal(stack.b1[j], p.b1[rows])
            assert np.array_equal(stack.w2[j], p.w2[:, rows]) and np.array_equal(stack.b2[j], p.b2 / 3)
        layer = expand_supernet(p, MoeConfig(token_dim=5, hidden_dim=12, n_replicas=2, granularity=3))
        ex = layer.experts
        for a, b in zip((stack.w1, stack.b1, stack.w2, stack.b2), (ex.w1, ex.b1, ex.w2, ex.b2)):
            assert a.flags.c_contiguous and b.flags.c_contiguous
            assert np.array_equal(b, np.concatenate([a, a]))
            assert not any(np.shares_memory(x, y) for x in (a, b) for y in (p.w1, p.b1, p.w2, p.b2))


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
        _, trace = dispatch_loop(layer, rng.normal(size=(200, 6)))
        for selected in trace.selected.tolist():
            replicas = {i // cfg.granularity for i in selected}
            assert len(replicas) == 1
            assert len(selected) == cfg.granularity


class TestRoute:
    def test_zero_router_uniform(self):
        r = RouterParams(np.zeros((4, 3)), np.zeros(4))
        assert np.array_equal(route_batch(r, np.array([[1.0, -2.0, 0.5]]))[0], np.full(4, 0.25))

    def test_grouped_scores_at_init(self, rng):
        cfg = MoeConfig(token_dim=5, hidden_dim=10, n_replicas=3, granularity=2, seed=2)
        r = init_router(cfg, make_rng(2))
        s = route_batch(r, rng.normal(size=(1, 5)))[0]
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
        assert np.allclose(route_batch(r, x[None])[0], expected, atol=1e-12)

    def test_sums_to_one(self, rng):
        r = RouterParams(rng.normal(size=(8, 5)), rng.normal(size=8))
        s = route_batch(r, rng.normal(size=(40, 5)))
        assert np.max(np.abs(s.sum(axis=1) - 1.0)) <= 1e-12

    def test_dimension_mismatch(self, rng):
        r = RouterParams(rng.normal(size=(4, 3)), np.zeros(4))
        with pytest.raises(ShapeError):
            route_batch(r, np.zeros((1, 5)))


class TestTopKGate:
    def test_example(self):
        assert top_k_select_rows(np.array([[0.1, 0.5, 0.4]]), 2)[0].tolist() == [1, 2]

    def test_tie_breaks_to_lowest_index(self):
        assert top_k_select_rows(np.array([[0.5, 0.5, 0.0]]), 1)[0].tolist() == [0]
        assert top_k_select_rows(np.array([[0.25, 0.25, 0.25, 0.25]]), 2)[0].tolist() == [0, 1]

    def test_cardinality(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 12))
            k = int(rng.integers(1, n + 1))
            selected = top_k_select_rows(rng.random((1, n)), k)[0].tolist()
            assert len(selected) == k
            assert len(set(selected)) == k
            assert selected == sorted(selected)

    def test_agrees_with_sort_oracle(self):
        rng = make_rng(17)
        for trial in range(10000):
            n = int(rng.integers(2, 10))
            s = rng.random(n)
            if trial % 3 == 0:
                s = np.round(s, 1)  # engineered ties
            k = int(rng.integers(1, n + 1))
            oracle = sorted(sorted(range(n), key=lambda i: (-s[i], i))[:k])
            assert top_k_select_rows(s[None], k)[0].tolist() == oracle

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            top_k_select_rows(np.array([[0.5, 0.5]]), 3)
        with pytest.raises(ValueError):
            top_k_select_rows(np.zeros((2, 3)), 0)

    def test_deterministic_across_runs(self, rng):
        s = rng.random(9)
        assert np.array_equal(top_k_select_rows(s[None], 3), top_k_select_rows(s[None].copy(), 3))


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
                assert np.array_equal(top_k_select_rows(row[None], k)[0], _top_k_reference(row, k))
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


def _tokens_per_expert(runs):
    """Each expert's tokens, read off its rows of the layout, experts ascending."""
    return [run.row_token[s:s + c] for run in runs for s, c in zip(run.starts, run.counts)]


def _selection_trace(selected, n_experts):
    """A trace of ``selected`` over n_experts experts; row_blocks reads no score."""
    return RoutingTrace(np.zeros((len(selected), n_experts)), selected)


class TestRoutingTrace:
    """A trace owns its selection's invariants: shape, index range and strictly ascending rows."""

    def test_out_of_range(self):
        for selected in ([[0, 3]], [[-1, 0]]):
            with pytest.raises(ValueError, match="out of range"):
                _selection_trace(np.array(selected), 3)
        with pytest.raises(ShapeError):
            RoutingTrace(np.zeros((2, 3)), np.array([0, 1]))

    def test_selection_must_hold_integers(self):
        # a cast to int64 would truncate [[0.5, 1.7]] to the valid [[0, 1]]
        with pytest.raises(ValueError, match="must hold integers, got dtype float64"):
            _selection_trace(np.array([[0.5, 1.7]]), 4)
        assert _selection_trace(np.array([[0, 1]], dtype=np.int32), 4).selected.dtype == np.int64
        assert _selection_trace(np.zeros((0, 2), dtype=np.int64), 4).n_tokens == 0

    @pytest.mark.parametrize("row", [[3, 3], [2, 1]])
    def test_rows_must_ascend_strictly(self, row):
        # a repeated expert would be added once, not twice, and count as its
        # own partner; a descending row would be added out of dispatch_loop's order
        with pytest.raises(ValueError, match="ascend strictly"):
            _selection_trace(np.array([[0, 1], row]), 5)


class TestRowBlocks:
    """``row_blocks`` groups a trace's selection by expert and lays the groups out in row blocks."""

    def _check(self, selected, n_experts, max_rows=None):
        runs = row_blocks(_selection_trace(selected, n_experts), max_rows)
        t, k = selected.shape
        # runs ascend and hold each expert exactly once
        sizes = [len(run.counts) for run in runs]
        assert [run.first for run in runs] == np.cumsum([0] + sizes[:-1]).tolist()
        assert sum(sizes) == n_experts
        for got, expected in zip(_tokens_per_expert(runs), _tokens_by_nonzero(selected, n_experts), strict=True):
            assert np.array_equal(got, expected)
        # a run's rows are exactly its experts' blocks, in expert order
        for run in runs:
            blocks = -(-run.counts // ROW_BLOCK)
            assert np.array_equal(run.block_expert, np.repeat(np.arange(len(blocks)), blocks))
            assert np.array_equal(run.starts, (np.cumsum(blocks) - blocks) * ROW_BLOCK)
            assert len(run.row_token) == len(run.block_expert) * ROW_BLOCK and len(run.slots) == k
        # every assignment (t, j) appears exactly once across the runs'
        # slot-j rows, in a row of expert selected[t, j] holding token t
        for j in range(k):
            seen = []
            for run in runs:
                tokens, rows = run.slots[j]
                tokens = np.arange(t)[tokens]
                local = run.block_expert[rows // ROW_BLOCK]
                assert np.array_equal(run.first + local, selected[tokens, j])
                assert np.all(rows < run.starts[local] + run.counts[local])
                assert np.array_equal(run.row_token[rows], tokens)
                seen.append(tokens)
            assert np.array_equal(np.sort(np.concatenate(seen)), np.arange(t))
        return runs

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_nonzero_definition(self, data):
        n_experts = data.draw(st.integers(1, 10))
        k = data.draw(st.integers(1, n_experts))
        # up to 80 tokens give an expert a second block
        t = data.draw(st.integers(0, 80))
        # Drawing from a prefix of the experts leaves the rest empty.
        used = data.draw(st.integers(k, n_experts))
        rows = [sorted(data.draw(st.sets(st.integers(0, used - 1), min_size=k, max_size=k)))
                for _ in range(t)]
        # windows of a few blocks or less cut the layout into several runs
        max_rows = data.draw(st.none() | st.integers(1, 4 * ROW_BLOCK))
        self._check(np.array(rows, dtype=np.int64).reshape(t, k), n_experts, max_rows)

    def test_empty_batch(self):
        for max_rows in (None, 1):
            [run] = row_blocks(_selection_trace(np.zeros((0, 3), dtype=np.int64), 5), max_rows)
            assert run.first == 0 and run.counts.tolist() == [0] * 5
            assert run.row_token.shape == (0,) and run.block_expert.shape == (0,)
            assert [rows.size for _, rows in run.slots] == [0, 0, 0]

    def test_every_expert_selected(self):
        for max_rows in (None, 1):
            self._check(np.tile(np.arange(6), (9, 1)), 6, max_rows)

    def test_empty_experts(self):
        selected = np.array([[1, 4], [1, 2], [2, 4], [1, 4]])
        for max_rows, n_runs in ((None, 1), (1, 4)):
            runs = self._check(selected, 7, max_rows)
            assert len(runs) == n_runs
            assert [e.tolist() for e in _tokens_per_expert(runs)] == [[], [0, 1, 3], [1, 2], [], [0, 2, 3], [], []]

    @pytest.mark.parametrize("n_experts", [256, 257, 300, 65536, 65537, 70_000])
    def test_sort_key_widths(self, n_experts):
        # the sort key is 8, 16 or 32 bits wide depending on n_experts - 1;
        # the grouping must not depend on which
        top = n_experts - 1
        selected = np.array([[0, top // 2, top], [1, top - 1, top], [0, 1, 2],
                             [top - 2, top - 1, top], [0, 128, top]])
        for max_rows in (None, 1):
            runs = self._check(selected, n_experts, max_rows)
            assert _tokens_per_expert(runs)[top].tolist() == [0, 1, 3, 4]


class TestDispatchLoop:
    def test_init_identity(self, rng):
        base = random_ffn(rng, 6, 12)
        layer = expand_supernet(base, MoeConfig(token_dim=6, hidden_dim=12,
                                                n_replicas=3, granularity=2, seed=9))
        x = rng.normal(size=(100, 6))
        y, _ = dispatch_loop(layer, x)
        assert np.max(np.abs(y - ffn_forward_batch(base, x))) <= 1e-12

    def test_full_activation_sums_all_experts(self, rng):
        layer, _, cfg = random_layer(rng, top_k=6, n_replicas=3, granularity=2)
        x = rng.normal(size=(1, cfg.token_dim))
        y, trace = dispatch_loop(layer, x)
        assert trace.selected[0].tolist() == list(range(6))
        manual = np.zeros(cfg.token_dim)
        for e in layer.experts:
            manual += ffn_forward_batch(e, x)[0]
        assert np.array_equal(y[0], manual)

    def test_against_naive_reference(self, rng):
        # independent route: BLAS matmuls and python sorting
        layer, _, cfg = random_layer(rng)
        tokens = rng.normal(size=(30, cfg.token_dim))
        y, trace = dispatch_loop(layer, tokens)
        for t, x in enumerate(tokens):
            logits = layer.router.w_r @ x + layer.router.b_r
            e = np.exp(logits - logits.max())
            s = e / e.sum()
            chosen = sorted(sorted(range(cfg.n_experts), key=lambda i: (-s[i], i))[:cfg.top_k])
            expected = np.zeros(cfg.token_dim)
            for i in chosen:
                p = layer.experts[i]
                expected += p.w2 @ np.maximum(p.w1 @ x + p.b1, 0.0) + p.b2
            assert trace.selected[t].tolist() == chosen
            assert np.allclose(y[t], expected, rtol=1e-9, atol=1e-12)

    def test_dimension_mismatch(self, rng):
        layer, _, _ = random_layer(rng)
        with pytest.raises(ShapeError):
            dispatch_loop(layer, np.zeros((1, 99)))


def _uniform_trace(n_experts, top_k, repeats=3):
    """Every expert set in round-robin, with exactly uniform scores."""
    sets = [tuple(range(i, i + top_k)) for i in range(0, n_experts, top_k)]
    selected = np.array(sets * repeats, dtype=np.int64)
    scores = np.full((len(selected), n_experts), 1.0 / n_experts)
    return RoutingTrace(scores, selected)


def _hard_trace(assignments, n_experts, top_k):
    """Trace whose scores are the selection indicator / top_k (P = F)."""
    selected = np.array(assignments, dtype=np.int64)
    scores = np.zeros((len(assignments), n_experts))
    for t, row in enumerate(assignments):
        scores[t, list(row)] = 1.0 / top_k
    return RoutingTrace(scores, selected)


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
            assert load_balance_loss(RoutingTrace(s, sel)) >= 1.0 - 1e-9

    def test_empty_trace_error(self):
        trace = RoutingTrace(np.zeros((0, 4)), np.zeros((0, 2), dtype=np.int64))
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
        # the value is returned as it is; the training loop's divergence check stops on it
        assert total_loss(float("inf"), 0.0, 0.0) == float("inf")
        assert total_loss(1.0, 2.0, 1e308) == float("inf")
        assert math.isnan(total_loss(float("nan"), 1.0, 0.01))


class TestBalanceLossBackward:
    def test_matches_fd_on_batch(self):
        rng = make_rng(406)
        layer, _, cfg = random_layer(rng, token_dim=4, hidden_dim=8,
                                     n_replicas=2, granularity=2)
        tokens = rng.normal(size=(6, 4))
        from moeforge.moe import dispatch_batch
        _, trace = dispatch_batch(layer, tokens)
        alpha = 0.3
        d_wr, d_br, d_logits = balance_loss_backward(trace, tokens, alpha)
        d_tokens = mm(d_logits, layer.router.w_r)
        f = assignment_fractions(trace)

        def loss():
            s = route_batch(layer.router, tokens)
            return alpha * cfg.n_experts * float(np.sum(f * s.mean(axis=0)))

        h = 1e-6
        for param, grad in ((layer.router.w_r, d_wr), (layer.router.b_r, d_br), (tokens, d_tokens)):
            for idx in np.ndindex(param.shape):
                orig = param[idx]
                param[idx] = orig + h
                up = loss()
                param[idx] = orig - h
                down = loss()
                param[idx] = orig
                fd = (up - down) / (2 * h)
                assert abs(grad[idx] - fd) <= 1e-5 * max(abs(grad[idx]), abs(fd), 1e-4)
