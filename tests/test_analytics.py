import csv
import json
import math
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moeforge.analytics import (
    CoSelectionMatrix,
    co_selection,
    mean_partner_count,
    pattern_specialization,
    search_space_size,
    write_loading_csv,
    write_matrix_csv,
    write_summary_json,
)
from moeforge.moe import RoutingTrace, assignment_fractions, dispatch_batch, load_balance_loss
from moeforge.numkernel import ShapeError, make_rng

from conftest import random_layer


def _trace(selected_rows, n_experts):
    sel = np.array(selected_rows, dtype=np.int64)
    scores = np.full((sel.shape[0], n_experts), 1.0 / n_experts)
    return RoutingTrace(scores, sel)


class TestCoSelection:
    def test_single_token(self):
        m = co_selection(_trace([[0, 3]], 4))
        expected = np.zeros((4, 4))
        expected[0, 3] = expected[3, 0] = 1.0
        assert np.array_equal(m.values, expected)

    def test_repeated_pair_normalizes_to_one(self):
        m = co_selection(_trace([[0, 1], [0, 1]], 4))
        assert m.values[0, 1] == 1.0 and m.values[1, 0] == 1.0

    def test_token_normalization_flag(self):
        m = co_selection(_trace([[0, 1], [0, 1], [2, 3]], 4), normalize="tokens")
        assert m.values[0, 1] == pytest.approx(2 / 3)
        assert m.values[2, 3] == pytest.approx(1 / 3)

    def test_against_brute_force_counting(self, rng):
        layer, _, cfg = random_layer(rng, n_replicas=4, granularity=2, perturb=0.5)
        _, trace = dispatch_batch(layer, rng.normal(size=(200, cfg.token_dim)))
        counts = Counter()
        for row in trace.selected:
            for a, b in combinations(sorted(int(i) for i in row), 2):
                counts[(a, b)] += 1
        peak = max(counts.values())
        m = co_selection(trace)
        for (a, b), c in counts.items():
            assert m.values[a, b] == pytest.approx(c / peak)
            assert m.values[b, a] == pytest.approx(c / peak)

    def test_symmetry_and_zero_diagonal(self, rng):
        for _ in range(5):
            layer, _, cfg = random_layer(rng, perturb=0.6)
            _, trace = dispatch_batch(layer, rng.normal(size=(50, cfg.token_dim)))
            m = co_selection(trace).values
            assert np.array_equal(m, m.T)
            assert np.array_equal(np.diag(m), np.zeros(cfg.n_experts))
            assert m.min() >= 0.0 and m.max() <= 1.0

    @pytest.mark.parametrize("rows", [[[1, 1]], [[2, 0]]])
    def test_trace_refuses_a_repeated_or_descending_row(self, rows):
        # [1, 1] would count expert 1 as its own partner, a 1.0 on the diagonal
        with pytest.raises(ValueError, match="ascend strictly"):
            _trace(rows, 3)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_every_trace_has_a_zero_diagonal(self, data):
        n_experts = data.draw(st.integers(1, 6))
        k = data.draw(st.integers(1, n_experts + 1))
        index = st.integers(0, n_experts - 1)
        # half the draws are valid selections; the rest may repeat or descend
        if data.draw(st.booleans()) and k <= n_experts:
            row = st.sets(index, min_size=k, max_size=k).map(sorted)
        else:
            row = st.lists(index, min_size=k, max_size=k)
        rows = data.draw(st.lists(row, min_size=1, max_size=8))
        if not all(a < b for r in rows for a, b in zip(r, r[1:])):
            with pytest.raises(ValueError, match="ascend strictly"):
                _trace(rows, n_experts)
            return
        for normalize in ("max", "tokens"):
            assert not np.diag(co_selection(_trace(rows, n_experts), normalize).values).any()

    def test_top1_gives_zero_matrix(self):
        # top-1 routing selects no pairs
        for normalize in ("max", "tokens"):
            m = co_selection(_trace([[0], [1], [1]], 4), normalize=normalize)
            assert m.values.dtype == np.float64 and np.array_equal(m.values, np.zeros((4, 4)))

    def test_unknown_normalization(self):
        with pytest.raises(ValueError):
            co_selection(_trace([[0, 1]], 4), normalize="z")


class TestExpertLoading:
    def test_uniform(self):
        rows = [[0, 1], [2, 3], [4, 5], [6, 7]]
        assert np.array_equal(assignment_fractions(_trace(rows, 8)), np.full(8, 1 / 8))

    def test_concentrated(self):
        assert np.array_equal(assignment_fractions(_trace([[0, 1]] * 9, 6)), np.array([0.5, 0.5, 0, 0, 0, 0]))

    def test_identical_to_balance_loss_fractions(self, rng):
        # single shared definition: the loading is exactly the balance loss's F term
        layer, _, cfg = random_layer(rng, perturb=0.4)
        _, trace = dispatch_batch(layer, rng.normal(size=(77, cfg.token_dim)))
        f = assignment_fractions(trace)
        assert load_balance_loss(trace) == float(cfg.n_experts * np.sum(f * trace.scores.mean(axis=0)))

    def test_sums_to_one(self, rng):
        layer, _, cfg = random_layer(rng)
        _, trace = dispatch_batch(layer, rng.normal(size=(33, cfg.token_dim)))
        assert abs(assignment_fractions(trace).sum() - 1.0) <= 1e-12

    def test_empty_trace(self):
        with pytest.raises(ValueError):
            assignment_fractions(RoutingTrace(np.zeros((0, 4)), np.zeros((0, 2), dtype=np.int64)))


class TestPatternSpecialization:
    def test_deterministic_bijection_scores_one(self):
        rows = [[0, 1], [2, 3], [4, 5], [6, 7]] * 25
        labels = np.array([0, 1, 2, 3] * 25)
        assert pattern_specialization(_trace(rows, 8), labels) == pytest.approx(1.0)

    def test_independent_labels_near_zero(self):
        rng = make_rng(314)
        sel = np.sort(rng.integers(0, 8, size=(10000, 2)), axis=1)
        # collapse duplicate picks deterministically
        sel[sel[:, 0] == sel[:, 1], 1] += 1
        sel = np.clip(sel, 0, 7)
        sel[sel[:, 0] == sel[:, 1], 0] -= 1
        labels = rng.integers(0, 4, size=10000)
        nmi = pattern_specialization(_trace(sel.tolist(), 8), labels)
        assert nmi < 0.05

    def test_shuffling_labels_cannot_beat_true_labels(self):
        rng = make_rng(315)
        rows = [[0, 1]] * 50 + [[2, 3]] * 50
        labels = np.array([0] * 50 + [1] * 50)
        trace = _trace(rows, 4)
        true_nmi = pattern_specialization(trace, labels)
        for _ in range(5):
            assert pattern_specialization(trace, rng.permutation(labels)) <= true_nmi

    def test_bounds(self, rng):
        layer, _, cfg = random_layer(rng, perturb=0.5)
        _, trace = dispatch_batch(layer, rng.normal(size=(100, cfg.token_dim)))
        nmi = pattern_specialization(trace, rng.integers(0, 3, size=100))
        assert 0.0 <= nmi <= 1.0

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            pattern_specialization(_trace([[0, 1]], 4), np.array([0, 1]))


class TestSearchSpace:
    def test_sixteen_choose_two(self):
        assert search_space_size(16, 2, 1) == 120

    def test_six_layer_stack(self):
        # independent big-integer oracle from factorials
        fact = math.factorial
        per_layer = fact(16) // (fact(2) * fact(14))
        assert search_space_size(16, 2, 6) == per_layer**6 == 2985984000000

    @pytest.mark.parametrize("n", [1, 2, 5, 16])
    @pytest.mark.parametrize("layers", [1, 3, 7])
    def test_full_activation_is_single_point(self, n, layers):
        assert search_space_size(n, n, layers) == 1

    def test_monotone_in_layers(self):
        sizes = [search_space_size(8, 2, l) for l in range(1, 6)]
        assert all(b > a for a, b in zip(sizes, sizes[1:]))

    def test_never_overflows(self):
        value = search_space_size(64, 8, 24)
        assert value == math.comb(64, 8) ** 24  # exact big integer

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            search_space_size(4, 5, 1)
        with pytest.raises(ValueError):
            search_space_size(4, 2, 0)


def test_mean_partner_count():
    m = CoSelectionMatrix(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.5], [0.0, 0.5, 0.0]]))
    assert mean_partner_count(m) == pytest.approx((1 + 2 + 1) / 3)


class TestExports:
    def test_matrix_csv_header_is_expert_indices(self, tmp_path, rng):
        layer, _, cfg = random_layer(rng)
        _, trace = dispatch_batch(layer, rng.normal(size=(20, cfg.token_dim)))
        m = co_selection(trace)
        path = tmp_path / "co.csv"
        write_matrix_csv(path, m)
        with open(path) as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["expert"] + [str(i) for i in range(cfg.n_experts)]
        parsed = np.array([[float(v) for v in row[1:]] for row in rows[1:]])
        assert np.array_equal(parsed, m.values)

    def test_loading_csv_roundtrip(self, tmp_path):
        loading = assignment_fractions(_trace([[0, 1], [2, 3]], 4))
        path = tmp_path / "loading.csv"
        write_loading_csv(path, loading)
        with open(path) as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["0", "1", "2", "3"]
        assert np.array_equal(np.array([float(v) for v in rows[1]]), loading)

    def test_summary_json(self, tmp_path, rng):
        layer, _, cfg = random_layer(rng)
        _, trace = dispatch_batch(layer, rng.normal(size=(16, cfg.token_dim)))
        path = tmp_path / "summary.json"
        write_summary_json(path, {
            "loss": load_balance_loss(trace),
            "nmi": None,
            "loading": [float(x) for x in assignment_fractions(trace)],
            "coselection_path": "co.csv",
        })
        loaded = json.loads(path.read_text())
        assert set(loaded) == {"loss", "nmi", "loading", "coselection_path"}
        assert loaded["loss"] == load_balance_loss(trace)
