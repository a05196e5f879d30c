"""Span tracer that instruments moeforge's layer boundaries from outside.

Each layer of the package calls the layer below it through names it imported
into its own module namespace (``moeforge.ffn.mm``, ``moeforge.harness.
dispatch_batch``, ...). :meth:`Tracer.install` replaces those bindings with
timing wrappers and :meth:`Tracer.uninstall` puts the originals back, so the
package's source is never edited and the wrapped calls return exactly what
the originals return.

Spans live in flat typed arrays (80 bytes a span) and are written out once,
at the end of a run. A span's parent is the innermost open span of the
same thread; a span opened on a pool worker thread with nothing open there is
parented to the ``moe.dispatch_batch`` call that owns the pool.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from array import array

import numpy as np

from moeforge import cli, ffn, harness, moe

# (module, attribute rebound in it, span name). The span name is the layer
# that implements the call, so ``ffn.mm``, ``moe.mm`` and ``harness.mm`` all
# count as ``numkernel.mm``.
WRAPS = (
    (ffn, "mm", "numkernel.mm"),
    (moe, "mm", "numkernel.mm"),
    (harness, "mm", "numkernel.mm"),
    (moe, "softmax_rows", "numkernel.softmax_rows"),
    (moe, "ffn_forward_batch", "ffn.forward_batch"),
    (harness, "ffn_forward_batch", "ffn.forward_batch"),
    (harness, "ffn_backward_batch", "ffn.backward_batch"),
    (moe, "route_batch", "moe.route_batch"),
    (moe, "top_k_select_rows", "moe.top_k_select_rows"),
    (moe, "dispatch_batch", "moe.dispatch_batch"),
    (harness, "dispatch_batch", "moe.dispatch_batch"),
    (harness, "balance_loss_backward", "moe.balance_loss_backward"),
    (harness, "load_balance_loss", "moe.load_balance_loss"),
    (harness, "model_predict", "harness.model_predict"),
    (harness, "generate_batch", "harness.generate_batch"),
    (harness, "evaluate", "harness.evaluate"),
    (harness, "co_selection", "analytics.co_selection"),
    (harness, "pattern_specialization", "analytics.pattern_specialization"),
    (cli, "cmd_tune", "cli.tune"),
    (cli, "pretrain", "harness.pretrain"),
    (cli, "moe_tune", "harness.moe_tune"),
    (cli, "load_toy_model", "serialize.load_toy_model"),
    (cli, "save_toy_model", "serialize.save_toy_model"),
    (cli, "write_trace_jsonl", "serialize.write_trace_jsonl"),
)


def _mm_attrs(a, b):
    try:
        return (a.shape[0], a.shape[1], b.shape[1])
    except AttributeError:
        return (np.shape(a)[0], np.shape(a)[1], np.shape(b)[1])


def _rows(_p, x, *_args, **_kwargs):
    return (np.shape(x)[0], 0.0, 0.0)


def _dispatch_attrs(_layer, tokens, threads=1):
    return (np.shape(tokens)[0], threads, 0.0)


_NO_ATTRS = (0.0, 0.0, 0.0)

# Per-span attributes read from the call's arguments: (x0, x1, x2).
ATTRS = {
    "numkernel.mm": _mm_attrs,
    "ffn.forward_batch": _rows,
    "ffn.backward_batch": _rows,
    "moe.dispatch_batch": _dispatch_attrs,
}


class Tracer:
    """In-memory span store plus the install/uninstall of the wrappers.

    Every span takes an index from one counter when it opens, then appends
    (index, name id, parent index or -1, thread number, start, x0, x1, x2) to
    ``opens`` and, when it closes, (index, end) to ``ends``. Each of those is
    a single ``next`` or ``array.extend`` call on numbers, which the
    interpreter lock makes atomic, so pool threads record without a lock;
    :meth:`columns` puts the records back in index order.
    """

    OPEN_FIELDS = 8

    def __init__(self):
        self.names: list[str] = []
        self.opens = array("d")
        self.ends = array("d")
        # (dispatch span, max load / mean load, empty experts), one per dispatch call
        self.dispatch_loads: list[tuple[int, float, int]] = []
        self.file_bytes: list[tuple[int, int]] = []  # (trace-write span, bytes written)
        self._next_index = itertools.count().__next__
        self._next_thread = itertools.count().__next__
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.opens) // self.OPEN_FIELDS

    def _thread_state(self):
        """This thread's (open-span stack, thread number), made on its first span."""
        is_main = threading.current_thread() is threading.main_thread()
        self._local.state = (self._main_stack if is_main else [], self._next_thread())
        return self._local.state

    def _wrap(self, name: str, fn, post=None):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        attrs = ATTRS.get(name)
        local, opens, ends, next_index = self._local, self.opens, self.ends, self._next_index
        main_stack = self._main_stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            try:
                stack, tid = local.state
            except AttributeError:
                stack, tid = self._thread_state()
            x0, x1, x2 = attrs(*args, **kwargs) if attrs else _NO_ATTRS
            # A pool worker's outermost span belongs to the call the main
            # thread is blocked in: the main thread's innermost open span.
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else -1)
            idx = next_index()
            opens.extend((idx, nid, parent, tid, clock(), x0, x1, x2))
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends.extend((idx, clock()))
                stack.pop()
            if post is not None:
                post(idx, args, result)
            return result

        return traced

    def _record_load(self, idx, _args, result) -> None:
        counts = np.bincount(result[1].selected.ravel(), minlength=result[1].n_experts)
        self.dispatch_loads.append((idx, float(counts.max() / counts.mean()), int(np.sum(counts == 0))))

    def _record_bytes(self, idx, args, _result) -> None:
        self.file_bytes.append((idx, os.path.getsize(args[0])))

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        posts = {"moe.dispatch_batch": self._record_load, "serialize.write_trace_jsonl": self._record_bytes}
        for module, attr, name in WRAPS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, posts.get(name)))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def columns(self) -> dict[str, np.ndarray]:
        """Span columns in index order; ``end`` is NaN for a span still open."""
        o = np.array(self.opens, dtype=np.float64).reshape(-1, self.OPEN_FIELDS)
        o = o[np.argsort(o[:, 0], kind="stable")]
        if not np.array_equal(o[:, 0], np.arange(len(o))):
            raise RuntimeError("span records lost or duplicated")
        e = np.array(self.ends, dtype=np.float64).reshape(-1, 2)
        end = np.full(len(o), np.nan)
        end[e[:, 0].astype(np.int64)] = e[:, 1]
        ints = o[:, 1:4].astype(np.int64)
        return {"name": ints[:, 0], "parent": ints[:, 1], "thread": ints[:, 2], "start": o[:, 4],
                "end": end, "x0": o[:, 5], "x1": o[:, 6], "x2": o[:, 7]}

    def write(self, path, context: dict) -> None:
        """Write every span plus the run context to one compressed .npz file."""
        header = {"names": self.names, "context": context, "dispatch_loads": self.dispatch_loads,
                  "file_bytes": self.file_bytes,
                  "columns": "per span: name (index into names), parent (-1: none), thread, "
                             "start and end (perf_counter s), x0..x2 (mm: m, n, p; ffn: rows; "
                             "dispatch: tokens, threads)"}
        np.savez_compressed(path, header=np.array(json.dumps(header)), **self.columns())


def self_times(c: dict[str, np.ndarray], lo: int, hi: int) -> np.ndarray:
    """Self time of spans lo..hi-1: duration minus the union of child intervals.

    Children on the parent's own thread run one after another, so their
    durations add up; children on pool threads overlap each other, so those
    parents get an interval union instead.
    """
    start, end, parent, thread = (c[k][lo:hi] for k in ("start", "end", "parent", "thread"))
    dur = end - start
    own = dur.copy()
    child = np.nonzero(parent >= lo)[0]
    of = parent[child] - lo
    np.subtract.at(own, of, dur[child])
    for p in np.unique(of[thread[child] != thread[of]]):
        kids = child[of == p]
        covered, run_start, run_end = 0.0, None, None
        for s, e in sorted(zip(np.maximum(start[kids], start[p]), np.minimum(end[kids], end[p]))):
            if run_end is None or s > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = s, e
            else:
                run_end = max(run_end, e)
        own[p] = dur[p] - covered - (run_end - run_start)
    return own
