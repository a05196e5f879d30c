"""Batched expert dispatch vs the sequential per-token reference."""

import time
import tracemalloc

import numpy as np
import pytest

from moeforge import ffn, moe, numkernel
from moeforge.ffn import FfnParams
from moeforge.moe import (MoeConfig, MoeLayer, RouterParams, RoutingTrace, dispatch_batch, dispatch_loop,
                          expand_supernet)
from moeforge.numkernel import ShapeError, make_rng

from conftest import random_ffn, random_layer


def _record_chunks(monkeypatch, cap):
    """Set dispatch's chunk cap to ``cap`` elements; return the list each call's chunks are appended to.

    Each entry is (max_rows, runs) of one row_blocks call.
    """
    monkeypatch.setattr(moe, "CHUNK_ELEMENTS", cap)
    calls = []
    real = moe.row_blocks

    def recording(trace, max_rows=None):
        runs = real(trace, max_rows)
        calls.append((max_rows, runs))
        return runs

    monkeypatch.setattr(moe, "row_blocks", recording)
    return calls


def _assert_identical(a, b):
    out_a, trace_a = a
    out_b, trace_b = b
    assert out_a.shape == out_b.shape
    assert np.array_equal(out_a, out_b)
    assert np.array_equal(trace_a.scores, trace_b.scores)
    assert np.array_equal(trace_a.selected, trace_b.selected)


def test_single_token_equals_dispatch_loop(rng):
    # a one-token batch: dispatch_loop routes, gates and sums its experts once
    layer, _, cfg = random_layer(rng)
    x = rng.normal(size=(1, cfg.token_dim))
    _assert_identical(dispatch_batch(layer, x), dispatch_loop(layer, x))


def test_empty_batch_boundary(rng):
    layer, _, cfg = random_layer(rng)
    out, trace = dispatch_batch(layer, np.zeros((0, cfg.token_dim)))
    assert out.shape == (0, cfg.token_dim)
    assert trace.n_tokens == 0
    assert trace.n_experts == cfg.n_experts
    _assert_identical((out, trace), dispatch_loop(layer, np.zeros((0, cfg.token_dim))))


def test_bitwise_equivalence_across_shapes():
    rng = make_rng(88)
    for case in range(40):
        granularity = int(rng.integers(1, 4))
        width = int(rng.integers(1, 6))
        layer, _, cfg = random_layer(
            rng,
            token_dim=int(rng.integers(1, 24)),
            hidden_dim=width * granularity,
            n_replicas=int(rng.integers(1, 5)),
            granularity=granularity,
            perturb=0.4 if case % 2 else 0.0,
        )
        t = int(rng.choice([0, 1, 2, 3, 17, 64]))
        tokens = rng.normal(size=(t, cfg.token_dim)) * 10.0 ** rng.integers(-2, 3)
        _assert_identical(dispatch_batch(layer, tokens), dispatch_loop(layer, tokens))


@pytest.mark.parametrize("threads", [1, 2, 8])
def test_thread_count_does_not_change_bits(threads, rng):
    layer, _, cfg = random_layer(rng, n_replicas=4, granularity=2)
    tokens = rng.normal(size=(97, cfg.token_dim))
    reference, ref_trace = dispatch_batch(layer, tokens, threads=1)
    out, trace = dispatch_batch(layer, tokens, threads=threads)
    _assert_identical((out, trace), (reference, ref_trace))


@pytest.mark.skipif(numkernel._openblas_thread_calls() is None, reason="OpenBLAS thread calls not found")
def test_pool_holds_blas_at_one_thread_and_restores_it(rng, monkeypatch):
    get, put = numkernel._openblas_thread_calls()
    layer, _, cfg = random_layer(rng, n_replicas=4, granularity=2)
    tokens = rng.normal(size=(200, cfg.token_dim))
    chunks = _record_chunks(monkeypatch, 2**10)
    real = moe._expert_products
    seen = []

    def spy(a, w, b, blocks):
        seen.append(get())
        return real(a, w, b, blocks)

    def failing(a, w, b, blocks):
        raise RuntimeError("expert failed")

    previous = get()
    put(2)
    try:
        outer = get()
        monkeypatch.setattr(moe, "_expert_products", spy)
        dispatch_batch(layer, tokens, threads=2)
        assert len(chunks[-1][1]) > 1 and len(seen) == 2 * len(chunks[-1][1])
        assert set(seen) == {1}
        assert get() == outer
        seen.clear()
        # one thread: the chunks run on the calling thread, with BLAS as it was
        dispatch_batch(layer, tokens, threads=1)
        assert seen and set(seen) == {outer}
        monkeypatch.setattr(moe, "_expert_products", failing)
        with pytest.raises(RuntimeError, match="expert failed"):
            dispatch_batch(layer, tokens, threads=2)
        assert get() == outer
    finally:
        put(previous)


def test_out_of_order_completion_keeps_ascending_adds(rng, monkeypatch):
    # chunks of low experts finish last; they must still be added in
    # ascending expert order, so the bits match one thread and the loop
    # (with two experts a token, any order gives the same bits; five do not)
    layer, _, cfg = random_layer(rng, n_replicas=4, granularity=2, top_k=5, perturb=0.5)
    tokens = rng.normal(size=(97, cfg.token_dim)) * 100.0
    reference = dispatch_batch(layer, tokens, threads=1)
    chunks = _record_chunks(monkeypatch, 2**10)
    real = moe._expert_products

    def late_for_low_experts(a, w, b, blocks):
        time.sleep(0.002 * (cfg.n_experts - blocks.first))
        return real(a, w, b, blocks)

    monkeypatch.setattr(moe, "_expert_products", late_for_low_experts)
    out = dispatch_batch(layer, tokens, threads=4)
    assert len(chunks[-1][1]) > 2
    _assert_identical(out, reference)
    _assert_identical(out, dispatch_loop(layer, tokens))


def _cast_layer(layer, dtype):
    e, r = layer.experts, layer.router
    return MoeLayer(layer.config, FfnParams(*(a.astype(dtype) for a in (e.w1, e.b1, e.w2, e.b2)), e.activation),
                    RouterParams(r.w_r.astype(dtype), r.b_r.astype(dtype)))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_chunked_rows_equal_rows_dispatched_alone(rng, monkeypatch, dtype):
    # a batch cut into several chunks gives its first rows the bits those
    # rows get dispatched alone, in fewer chunks, on one thread or a pool
    layer, _, cfg = random_layer(rng, n_replicas=4, granularity=2, top_k=3, perturb=0.5)
    layer = _cast_layer(layer, dtype)
    tokens = rng.normal(size=(2000, cfg.token_dim)).astype(dtype)
    chunks = _record_chunks(monkeypatch, 2**15)
    whole = dispatch_batch(layer, tokens)
    first = dispatch_batch(layer, tokens[:300])
    assert len(chunks[0][1]) > len(chunks[1][1]) > 1
    assert first[0].dtype == dtype
    head = RoutingTrace(whole[1].scores[:300], whole[1].selected[:300])
    _assert_identical(first, (whole[0][:300], head))
    _assert_identical(dispatch_batch(layer, tokens[:300], threads=2), first)


# (token_dim, hidden_dim, n_replicas, granularity, top_k): tiny experts whose
# products gather their weights, and experts too wide to gather, which take
# one product each.
@pytest.mark.parametrize("shape", [(6, 12, 4, 3, 4), (3, 10, 2, 5, 3), (160, 320, 2, 2, 2)])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_chunk_boundaries_equal_the_loop(monkeypatch, shape, dtype):
    token_dim, hidden_dim, n_replicas, granularity, top_k = shape
    rng = make_rng(sum(shape))
    layer, _, cfg = random_layer(rng, token_dim, hidden_dim, n_replicas, granularity, top_k=top_k, perturb=0.5)
    # expert 1 takes every token, and its 300 rows alone outgrow a chunk
    layer.router.b_r[1] += 50.0
    layer = _cast_layer(layer, dtype)
    tokens = rng.normal(size=(300, token_dim)).astype(dtype)
    reference = dispatch_loop(layer, tokens)
    chunks = _record_chunks(monkeypatch, 2**11)
    for threads in (1, 2, 8):
        _assert_identical(dispatch_batch(layer, tokens, threads), reference)
    max_rows, runs = chunks[0]
    assert len(runs) > 2 and max_rows < 300


def test_no_slot_sized_buffer():
    # the output is built without a (tokens * top_k, dim) intermediate:
    # numpy's buffers are visible to tracemalloc, and the traced peak of a
    # call stays below that one buffer's size
    t, d, k = 4096, 64, 8
    rng = make_rng(3)
    base = random_ffn(rng, d, 256)
    layer = expand_supernet(base, MoeConfig(token_dim=d, hidden_dim=256, n_replicas=16,
                                            granularity=8, top_k=k, seed=1))
    layer.router.w_r = layer.router.w_r + 0.5 * rng.normal(size=layer.router.w_r.shape)
    tokens = rng.normal(size=(t, d))
    tracemalloc.start()
    try:
        dispatch_batch(layer, tokens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < t * k * d * tokens.itemsize


def test_rerun_reproducibility(rng):
    layer, _, cfg = random_layer(rng)
    tokens = rng.normal(size=(31, cfg.token_dim))
    _assert_identical(dispatch_batch(layer, tokens), dispatch_batch(layer, tokens))


def test_trace_gate_invariants(rng):
    layer, _, cfg = random_layer(rng)
    _, trace = dispatch_batch(layer, rng.normal(size=(64, cfg.token_dim)))
    for selected, scores in zip(trace.selected, trace.scores):
        assert len(selected) == cfg.top_k
        assert len(set(selected.tolist())) == cfg.top_k
        assert abs(float(scores.sum()) - 1.0) <= 1e-12


def test_every_selected_expert_contributes(rng):
    # zeroing one selected expert's token slice must change exactly those tokens
    layer, _, cfg = random_layer(rng, perturb=0.5)
    tokens = rng.normal(size=(40, cfg.token_dim))
    out, trace = dispatch_batch(layer, tokens)
    target = int(trace.selected[0, 0])
    silenced = layer.copy()
    p = silenced.experts[target]
    p.w1[:] = 0.0
    p.b1[:] = 0.0
    p.w2[:] = 0.0
    p.b2[:] = 0.0
    out2, _ = dispatch_batch(silenced, tokens)
    affected = (trace.selected == target).any(axis=1)
    assert np.any(out[affected] != out2[affected])
    assert np.array_equal(out[~affected], out2[~affected])


def test_bitwise_equivalence_holds_in_f32(rng):
    base = random_ffn(rng, 8, 16, dtype=np.float32)
    cfg = MoeConfig(token_dim=8, hidden_dim=16, n_replicas=3, granularity=2, seed=6)
    layer = expand_supernet(base, cfg)
    tokens = rng.normal(size=(57, 8)).astype(np.float32)
    out_l, _ = dispatch_loop(layer, tokens)
    for threads in (1, 2, 8):
        out_b, _ = dispatch_batch(layer, tokens, threads=threads)
        assert out_b.dtype == np.float32
        assert np.array_equal(out_b, out_l)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n_tokens", [0, 5])
def test_loop_and_batch_agree_on_dtype_and_shape(rng, dtype, n_tokens):
    base = random_ffn(rng, 8, 16, dtype=dtype)
    layer = expand_supernet(base, MoeConfig(token_dim=8, hidden_dim=16, n_replicas=3, granularity=2, seed=6))
    tokens = rng.normal(size=(n_tokens, 8)).astype(dtype)
    batched, looped = dispatch_batch(layer, tokens), dispatch_loop(layer, tokens)
    for a, b in ((batched[0], looped[0]), (batched[1].scores, looped[1].scores),
                 (batched[1].selected, looped[1].selected)):
        assert a.dtype == b.dtype and a.shape == b.shape
    assert batched[0].dtype == dtype and batched[1].scores.shape == (n_tokens, layer.config.n_experts)
    _assert_identical(batched, looped)


def _layer_bytes(layer):
    experts, router = layer.experts, layer.router
    return [a.tobytes() for a in (experts.w1, experts.b1, experts.w2, experts.b2, router.w_r, router.b_r)]


def test_loop_keeps_no_state_between_calls(rng):
    # the loop lays its weights out afresh each call, so weights trained in place are read
    layer, _, cfg = random_layer(rng)
    tokens = rng.normal(size=(40, cfg.token_dim))
    before = _layer_bytes(layer)
    first = dispatch_loop(layer, tokens)
    assert _layer_bytes(layer) == before
    e = int(first[1].selected[0, 0])
    layer.experts.w1[e] += 0.5 * rng.normal(size=layer.experts.w1[e].shape)
    layer.router.w_r += 0.5 * rng.normal(size=layer.router.w_r.shape)
    updated = _layer_bytes(layer)
    second = dispatch_loop(layer, tokens)
    assert _layer_bytes(layer) == updated
    _assert_identical(second, dispatch_batch(layer, tokens))
    assert not np.array_equal(second[0], first[0])
    assert not np.array_equal(second[1].scores, first[1].scores)


def test_loop_does_not_revalidate_a_weight_made_non_finite_in_place(rng):
    # a NaN written into an expert after construction reaches its tokens' rows, as in dispatch_batch
    layer, _, cfg = random_layer(rng)
    tokens = rng.normal(size=(40, cfg.token_dim))
    e = int(dispatch_loop(layer, tokens)[1].selected[0, 0])
    layer.experts.w1[e, 0, 0] = np.nan
    out, trace = dispatch_loop(layer, tokens)
    hit = (trace.selected == e).any(axis=1)
    assert hit.any() and not hit.all()
    assert np.isnan(out[hit]).all() and np.isfinite(out[~hit]).all()
    out_b, trace_b = dispatch_batch(layer, tokens)
    assert np.array_equal(out, out_b, equal_nan=True)
    assert np.array_equal(trace.selected, trace_b.selected)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_loop_hands_mm_expert_weights_it_need_not_copy(rng, monkeypatch, dtype):
    # the loop lays the stack out once per call, so no per-token product copies an expert weight
    base = random_ffn(rng, 8, 16, activation="gelu", dtype=dtype)
    layer = expand_supernet(base, MoeConfig(token_dim=8, hidden_dim=16, n_replicas=3, granularity=2, seed=6))
    tokens = rng.normal(size=(9, 8)).astype(dtype)
    weights = []

    def spy(a, b):
        weights.append(b)
        return numkernel.mm(a, b)

    monkeypatch.setattr(ffn, "mm", spy)
    _, trace = dispatch_loop(layer, tokens)
    assert len(weights) == 2 * trace.selected.size
    assert all(w.flags.c_contiguous and w.dtype == dtype for w in weights)


def test_dimension_mismatch(rng):
    layer, _, cfg = random_layer(rng)
    with pytest.raises(ShapeError):
        dispatch_batch(layer, np.zeros((4, cfg.token_dim + 1)))
    with pytest.raises(ShapeError):
        dispatch_loop(layer, np.zeros((4, cfg.token_dim + 1)))


def test_batched_faster_than_loop_smoke(rng):
    # the full-size throughput claim lives in the acceptance suite; this is
    # a cheap sanity check that batching wins already at modest size
    base = random_ffn(rng, 64, 128)
    layer = expand_supernet(base, MoeConfig(token_dim=64, hidden_dim=128,
                                            n_replicas=4, granularity=2, seed=0))
    tokens = rng.normal(size=(2048, 64))
    t0 = time.perf_counter()
    dispatch_batch(layer, tokens)
    batched = time.perf_counter() - t0
    t0 = time.perf_counter()
    dispatch_loop(layer, tokens)
    loop = time.perf_counter() - t0
    assert batched < loop
