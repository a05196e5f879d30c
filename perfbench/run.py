"""moeforge benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload dispatch-dense --seed 1 --seconds 30 --trace 0

Run from the root of a moeforge checkout; the package is imported from that
checkout's ``src/`` and nowhere else. With ``--trace 0`` the last line of
stdout is a JSON object holding every end-to-end metric of BENCHMARK.json;
with ``--trace 1`` it holds every per-layer metric, measured through the
wrappers in ``tracing.py``. Exit codes: 0 ok, 1 a correctness check failed
(the result line is still printed, with ``"correct": false``), 2 the package
under test could not be imported from this checkout (no result line).

See README.md in this directory for why each workload and metric exists.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # set-up time counts from here, imports included

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPS = 3      # set-up is repeated and its median reported as setup_s (dispatch-*)
ORACLE_ROWS = 128   # rows re-run through dispatch_loop, the per-token reference
TUNE_CONFIG: dict = {}  # `moeforge tune` defaults, as users run it
TUNE_SEEDS = 5      # seeds a tune-toy run tunes, derived from --seed
STEP_QUANTILE = 0.1  # quantile of a tune-toy run's training-step times that it reports
ENV_RECORDED = ("MOEFORGE_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


@dataclass(frozen=True)
class DispatchShape:
    tokens: int
    token_dim: int
    hidden: int
    replicas: int
    granularity: int
    top_k: int
    threads: int


# dispatch-dense is the `bench-dispatch` default shape; dispatch-fine is a
# DeepSeekMoE-style fine segmentation (128 experts of width 32, top-8).
DISPATCH = {
    "dispatch-dense": DispatchShape(8192, 256, 1024, 8, 2, 2, threads=2),
    "dispatch-fine": DispatchShape(16384, 64, 256, 16, 8, 8, threads=1),
}
WORKLOADS = (*DISPATCH, "tune-toy")


class CheckFailed(Exception):
    """An output of the program under test is wrong."""


def import_package():
    """Import moeforge from this checkout's src/, refusing any other copy."""
    sys.path.insert(0, str(SRC))
    import moeforge

    where = Path(moeforge.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"moeforge imported from {where}, not from {SRC}")


# ---------------------------------------------------------------------------
# Workloads. Each has setup(rep) -> None, run setup_reps times; op() -> seconds
# (raises CheckFailed on a wrong output); op_seconds(times) -> the time of one
# operation the run reports; rewind(), after which op() repeats the inputs of
# the first operations; tokens_per_op, steps_per_op, and min_ops: the timed
# operations a run makes at least, even past --seconds.


class DispatchWorkload:
    """Closed loop of moe.dispatch_batch calls on one fixed batch."""

    steps_per_op = 1
    min_ops = 3
    setup_reps = SETUP_REPS

    def __init__(self, shape: DispatchShape, seed: int):
        self.shape = shape
        self.seed = seed
        self.tokens_per_op = shape.tokens
        self.reference = None

    def _build(self):
        from moeforge import ffn, moe, numkernel

        s = self.shape
        # Same construction as `moeforge bench-dispatch`, router nudge included.
        rng = numkernel.make_rng(self.seed, numkernel.STREAM_BENCH)
        base = ffn.init_ffn(s.token_dim, s.hidden, rng)
        cfg = moe.MoeConfig(token_dim=s.token_dim, hidden_dim=s.hidden, n_replicas=s.replicas,
                            granularity=s.granularity, top_k=s.top_k, seed=self.seed)
        layer = moe.expand_supernet(base, cfg)
        layer.router.w_r = layer.router.w_r + 0.5 * rng.normal(size=layer.router.w_r.shape) / np.sqrt(s.token_dim)
        tokens = rng.normal(size=(s.tokens, s.token_dim))
        return layer, tokens

    @staticmethod
    def _same(a, b) -> bool:
        (out_a, tr_a), (out_b, tr_b) = a, b
        return (np.array_equal(out_a, out_b) and np.array_equal(tr_a.scores, tr_b.scores)
                and np.array_equal(tr_a.selected, tr_b.selected))

    def setup(self, rep: int) -> None:
        from moeforge import moe

        layer, tokens = self._build()
        result = moe.dispatch_batch(layer, tokens, self.shape.threads)
        if self.shape.threads != 1 and not self._same(result, moe.dispatch_batch(layer, tokens, 1)):
            raise CheckFailed(f"threads={self.shape.threads} output differs from threads=1")
        rows = np.sort(np.random.default_rng(self.seed).choice(self.shape.tokens, ORACLE_ROWS, replace=False))
        out, trace = result
        loop_out, loop_trace = moe.dispatch_loop(layer, tokens[rows])
        if not (np.array_equal(out[rows], loop_out) and np.array_equal(trace.scores[rows], loop_trace.scores)
                and np.array_equal(trace.selected[rows], loop_trace.selected)):
            raise CheckFailed("dispatch_batch rows differ from dispatch_loop on the same rows")
        if self.reference is not None and not self._same(result, self.reference):
            raise CheckFailed(f"set-up {rep} output differs from set-up 0")
        self.layer, self.tokens = layer, tokens
        self.reference = result

    def op(self) -> float:
        from moeforge import moe

        t0 = time.perf_counter()
        result = moe.dispatch_batch(self.layer, self.tokens, self.shape.threads)
        elapsed = time.perf_counter() - t0
        if not self._same(result, self.reference):
            raise CheckFailed("dispatch_batch output differs from the set-up call")
        return elapsed

    @staticmethod
    def op_seconds(times: list[float]) -> float:
        """A call's time: the run's median call time."""
        return statistics.median(times)

    def quality(self) -> dict:
        return {}

    def rewind(self) -> None:
        pass

    def close(self) -> None:
        pass


class TuneWorkload:
    """In-process `moeforge tune` of TUNE_SEEDS seeds derived from the workload seed.

    One operation is one tune; operations take the seeds in turn, and the
    first seed is tuned again after the last so that its outputs are
    compared between invocations. Set-up repetition k pretrains the base
    checkpoint of seed k.

    The seed sets the task, hence the routing, hence how many per-expert
    calls a step makes: one seed's steps measured up to 1.4x another's on
    the same host at the same time, so a run spreads its tunes over several
    seeds. While a tune runs, a clock on `harness.generate_batch` (called
    once at the start of every training step, with the batch size) stamps
    each step's start, so one tune gives 1500 step-time samples.
    """

    # Outputs compared byte for byte between tunes of one seed; manifest.json
    # holds the output path and a timestamp, so it is left out.
    COMPARED = ("metrics.json", "curves.csv", "trace.jsonl", "loading.csv", "coselection.csv",
                "labels.csv", "tuned.ckpt")
    min_ops = TUNE_SEEDS + 1
    setup_reps = TUNE_SEEDS

    def __init__(self, seed: int):
        self.seeds = [seed * TUNE_SEEDS + k for k in range(TUNE_SEEDS)]
        self.work = OUT / f"work-{os.getpid()}"
        self.tunes = 0
        self.references: dict[int, dict[str, bytes]] = {}
        self.step_s: list[float] = []  # training-step times of every tune so far
        self.rest_s: list[float] = []  # per tune: wall time outside its training steps

    def _cli(self, seed: int, *argv: str) -> None:
        from moeforge import cli

        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([*argv, "--config", str(self.config), "--seed", str(seed), "--threads", "1"])
        if code != 0:
            raise CheckFailed(f"moeforge {argv[0]} --seed {seed} exited {code}")

    def _base(self, seed: int) -> Path:
        return self.work / f"base-{seed}" / "base.ckpt"

    def setup(self, rep: int) -> None:
        from moeforge import cli

        self.work.mkdir(parents=True, exist_ok=True)
        self.config = self.work / "config.json"
        self.config.write_text(json.dumps(TUNE_CONFIG))
        self.train = cli.load_config(self.config)["train"]
        self.steps_per_op = self.train["steps"]
        # Tokens a tune routes: a batch and a probe per step, plus the step-0
        # and final evaluations (the base evaluation is dense).
        self.tokens_per_op = (self.train["steps"] * (self.train["batch"] + self.train["probe_tokens"])
                              + 2 * self.train["eval_tokens"])
        seed = self.seeds[rep % len(self.seeds)]
        self._cli(seed, "pretrain", "--out", str(self._base(seed).parent))

    def op(self) -> float:
        from moeforge import harness

        seed = self.seeds[self.tunes % len(self.seeds)]
        self.tunes += 1
        out = self.work / f"tune-{seed}"
        real, stamps = harness.generate_batch, []

        def clocked(task, rng, size):
            stamps.append((time.perf_counter(), size))
            return real(task, rng, size)

        harness.generate_batch = clocked
        t0 = time.perf_counter()
        try:
            self._cli(seed, "tune", "--base", str(self._base(seed)), "--out", str(out))
        finally:
            elapsed = time.perf_counter() - t0
            harness.generate_batch = real
        produced = {name: (out / name).read_bytes() for name in self.COMPARED}
        shutil.rmtree(out)
        metrics = json.loads(produced["metrics.json"])
        if not abs(metrics["step0_mse"] - metrics["base_mse"]) <= 1e-9:
            raise CheckFailed(f"seed {seed}: step-0 mse {metrics['step0_mse']!r} != base mse {metrics['base_mse']!r}")
        reference = self.references.setdefault(seed, produced)
        differing = sorted(n for n in self.COMPARED if produced[n] != reference[n])
        if differing:
            raise CheckFailed(f"seed {seed}: tune outputs differ from its first tune's: {differing}")
        # A step runs from its batch draw to the next draw (the next step's,
        # or the final evaluation's).
        steps = [b - a for (a, size), (b, _) in zip(stamps, stamps[1:]) if size == self.train["batch"]]
        if len(steps) != self.steps_per_op:  # the clock no longer sees the steps: spread the tune evenly
            print(f"step clock saw {len(steps)} of {self.steps_per_op} steps; using the tune's mean step time")
            steps = [elapsed / self.steps_per_op] * self.steps_per_op
        self.step_s += steps
        self.rest_s.append(elapsed - sum(steps))
        return elapsed

    def op_seconds(self, times: list[float]) -> float:
        """A tune's time: its steps at the run's STEP_QUANTILE step time, plus the median rest."""
        step = float(np.quantile(self.step_s, STEP_QUANTILE))
        rest = statistics.median(self.rest_s)
        print(f"tune: {len(self.step_s)} steps; step time q{STEP_QUANTILE:g} {1e3 * step:.4f} ms, "
              f"median {1e3 * statistics.median(self.step_s):.4f} ms; "
              f"rest of a tune, median {rest:.4f} s (evaluations, expansion, writes)")
        return self.steps_per_op * step + rest

    def quality(self) -> dict:
        """Tuning quality averaged over the seeds: mse ratio and NMI."""
        metrics = [json.loads(r["metrics.json"]) for r in self.references.values()]
        if not metrics:
            return {}
        return {"mse_ratio": float(np.mean([m["mse"] / m["base_mse"] for m in metrics])),
                "nmi": float(np.mean([m["nmi"] for m in metrics]))}

    def rewind(self) -> None:
        """Start the seeds over, so that the next tunes are compared with earlier ones."""
        self.tunes = 0

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def make_workload(name: str, seed: int):
    if name in DISPATCH:
        return DispatchWorkload(DISPATCH[name], seed)
    return TuneWorkload(seed)


# ---------------------------------------------------------------------------
# Running


class Tally:
    """Attempted and failed operations; set-up repetitions count as operations."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, fn, *args):
        """Call fn; returns (True, its result), or (False, None) after counting a failure."""
        self.attempted += 1
        try:
            return True, fn(*args)
        except Exception:  # any error in the program under test is a failed operation
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return False, None


def measure(workload, tally: Tally, seconds: float, min_ops: int) -> list[float]:
    """Closed loop: start the next operation only once the previous one returned.

    Runs for `seconds` and at least `min_ops` operations; returns the times of
    the operations that succeeded.
    """
    times: list[float] = []
    started = 0
    t_end = time.perf_counter() + seconds
    while started < min_ops or time.perf_counter() < t_end:
        started += 1
        ok, elapsed = tally.run(workload.op)
        if ok:
            times.append(elapsed)
        elif tally.failed > tally.attempted // 2:
            break
    return times


def context(workload: str, seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "env": {k: os.environ.get(k) for k in ENV_RECORDED},
        "loadavg_start": list(os.getloadavg()),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def describe(label: str, workload, times: list[float]) -> float:
    """Print the timed operations' sample count, median and quartiles; return the median."""
    q1, med, q3 = statistics.quantiles(times, n=4, method="inclusive") if len(times) > 1 else times * 3
    print(f"{label}: {len(times)} ops, median {med:.4f} s, q1 {q1:.4f} s, q3 {q3:.4f} s per op; "
          f"{workload.tokens_per_op} tokens and {workload.steps_per_op} steps per op; "
          f"{1e3 * med / workload.steps_per_op:.4f} ms per step")
    return med


def end_to_end(workload, setup_s: float, times: list[float]) -> dict:
    describe("timed", workload, times)
    return {
        "dispatch_tok_s": workload.tokens_per_op / workload.op_seconds(times),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(workload, tracer, setup_end: int, ops_start: int, traced: list[float],
              untraced: list[float]) -> dict:
    """Per-operation layer metrics from the spans of the traced phase."""
    from tracing import self_times

    c = tracer.columns()
    hi = len(c["name"])
    ops = len(traced) * workload.steps_per_op
    own = self_times(c, ops_start, hi)
    start, end, names, parent, x0, x1, x2 = (
        c[k][ops_start:hi] for k in ("start", "end", "name", "parent", "x0", "x1", "x2"))
    dur = end - start
    ids = {name: i for i, name in enumerate(tracer.names)}

    def spans(name):
        return names == ids.get(name, -1)

    def per_op(values):
        return float(np.sum(values)) / ops

    m = {}
    for name in ("numkernel.mm", "numkernel.softmax_rows", "ffn.forward_batch", "ffn.backward_batch",
                 "moe.route_batch", "moe.top_k_select_rows", "moe.dispatch_batch",
                 "moe.balance_loss_backward", "moe.load_balance_loss", "harness.moe_tune",
                 "harness.generate_batch", "cli.tune"):
        m[f"{name}.self_ms"] = 1e3 * per_op(own[spans(name)])
    for name in ("moe.dispatch_batch", "harness.model_predict", "harness.evaluate", "analytics.co_selection",
                 "analytics.pattern_specialization", "serialize.write_trace_jsonl", "serialize.save_toy_model",
                 "serialize.load_toy_model"):
        m[f"{name}.ms"] = 1e3 * per_op(dur[spans(name)])
    for name in ("numkernel.mm", "ffn.forward_batch", "ffn.backward_batch"):
        m[f"{name}.calls"] = per_op(spans(name))

    mm = spans("numkernel.mm")
    mm_m, mm_n, mm_p = x0[mm], x1[mm], x2[mm]
    flops = 2.0 * mm_m * mm_n * mm_p
    m["numkernel.mm.gflop"] = per_op(flops) / 1e9
    m["numkernel.mm.mb_moved"] = per_op(8.0 * (mm_m * mm_n + mm_n * mm_p + mm_m * mm_p)) / 1e6  # float64
    m["numkernel.mm.gflop_s"] = float(flops.sum() / dur[mm].sum()) / 1e9
    m["numkernel.mm.rate_vs_blas"] = _rate_vs_blas(mm_m, mm_n, mm_p, flops, dur[mm])

    # Expert calls: ffn.forward_batch spans whose parent is a dispatch call.
    dispatch = spans("moe.dispatch_batch")
    is_dispatch = np.zeros(hi, dtype=bool)
    is_dispatch[np.nonzero(dispatch)[0] + ops_start] = True
    expert = spans("ffn.forward_batch") & is_dispatch[np.maximum(parent, 0)] & (parent >= 0)
    m["moe.rows_per_expert_call"] = float(x0[expert].mean()) if expert.any() else 0.0
    # Pool efficiency: expert busy time / (threads x first-start-to-last-end of the experts).
    owner, first = np.unique(parent[expert], return_inverse=True)
    busy = np.bincount(first, weights=dur[expert])
    lo_t = np.full(len(owner), np.inf)
    hi_t = np.full(len(owner), -np.inf)
    np.minimum.at(lo_t, first, start[expert])
    np.maximum.at(hi_t, first, end[expert])
    capacity = c["x1"][owner] * (hi_t - lo_t)
    m["moe.dispatch_batch.pool_efficiency"] = float(busy.sum() / capacity.sum()) if capacity.size else 0.0
    loads = [(ratio, empty) for idx, ratio, empty in tracer.dispatch_loads if idx >= ops_start]
    m["moe.load_max_over_mean"] = float(np.mean([r for r, _ in loads])) if loads else 0.0
    m["moe.empty_experts"] = float(np.mean([e for _, e in loads])) if loads else 0.0

    pretrain = c["name"][:setup_end] == ids.get("harness.pretrain", -1)
    m["harness.pretrain.s"] = float(np.sum(c["end"][:setup_end][pretrain] - c["start"][:setup_end][pretrain]))
    written = [size for idx, size in tracer.file_bytes if idx >= ops_start]
    m["serialize.write_trace_jsonl.mb"] = float(np.mean(written)) / 1e6 if written else 0.0
    quality = workload.quality()
    m["harness.moe_tune.mse_ratio"] = quality.get("mse_ratio", 0.0)
    m["analytics.pattern_specialization.nmi"] = quality.get("nmi", 0.0)
    m["bench.trace_overhead_share"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    return m


def _rate_vs_blas(mm_m, mm_n, mm_p, flops, seconds) -> float:
    """numkernel.mm rate over np.matmul rate, on the (n, p) pair carrying the most flops."""
    if flops.size == 0:
        return 0.0
    pairs, group = np.unique(np.stack([mm_n, mm_p], axis=1), axis=0, return_inverse=True)
    group = group.ravel()
    top = int(np.argmax(np.bincount(group, weights=flops)))
    in_top = group == top
    mm_rate = flops[in_top].sum() / seconds[in_top].sum()
    rows = int(np.median(mm_m[in_top]))
    n, p = (int(v) for v in pairs[top])
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=(rows, n)), rng.normal(size=(n, p))
    samples = []
    t_end = time.perf_counter() + 0.2
    while len(samples) < 5 or time.perf_counter() < t_end:
        t0 = time.perf_counter()
        np.matmul(a, b)
        samples.append(time.perf_counter() - t0)
    blas_rate = 2.0 * rows * n * p / statistics.median(samples)
    print(f"numkernel.mm vs np.matmul on {rows}x{n}x{p}: {mm_rate / 1e9:.3f} vs {blas_rate / 1e9:.3f} GFLOP/s")
    return float(mm_rate / blas_rate)


def declared_metrics() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return {"0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "1": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    parser.add_argument("--trace", choices=("0", "1"), default="0",
                        help="1: per-layer metrics from a traced run instead of end-to-end metrics")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_package()
    except ImportError as e:
        print(f"perfbench: cannot measure this checkout: {e}", file=sys.stderr)
        return 2
    declared = declared_metrics()[args.trace]
    ctx = context(args.workload, args.seed)
    workload = make_workload(args.workload, args.seed)
    tally = Tally()
    try:
        metrics = _run(args, workload, tally)
    finally:
        workload.close()
    ctx["loadavg_end"] = list(os.getloadavg())
    print("context " + json.dumps(ctx, sort_keys=True))
    print(f"fail_share {tally.failed}/{tally.attempted} = {tally.failed / tally.attempted:.4g}")
    if metrics is not None and set(metrics) != set(declared):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(declared))} not matched in BENCHMARK.json")
    correct = tally.failed == 0 and metrics is not None
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()}
        if metrics is not None else {},
    }))
    return 0 if correct else 1


def _run(args, workload, tally: Tally):
    imports_s = time.perf_counter() - T_START
    traced_run = args.trace == "1"
    tracer = None
    setup_times = []
    for rep in range(workload.setup_reps):
        if traced_run and rep == workload.setup_reps - 1:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        t0 = time.perf_counter()
        ok, _ = tally.run(workload.setup, rep)
        if not ok:
            if tracer is not None:
                tracer.uninstall()
            return None
        setup_times.append(time.perf_counter() - t0)
    setup_s = imports_s + statistics.median(setup_times)
    print(f"set-up: imports {imports_s:.4f} s, repetitions {', '.join(f'{t:.4f}' for t in setup_times)} s")
    if not traced_run:
        times = measure(workload, tally, args.seconds, workload.min_ops)
        return end_to_end(workload, setup_s, times) if times else None

    tracer.uninstall()
    setup_end = len(tracer)
    untraced = measure(workload, tally, args.seconds / 2, 1)
    ops_start = len(tracer)
    workload.rewind()  # the traced operations repeat the untraced ones, and are checked against them
    tracer.install()
    try:
        traced = measure(workload, tally, args.seconds / 2, 1)
    finally:
        tracer.uninstall()
    if not (untraced and traced):
        return None
    describe("untraced", workload, untraced)
    describe("traced", workload, traced)
    t0 = time.perf_counter()
    metrics = per_layer(workload, tracer, setup_end, ops_start, traced, untraced)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
    tracer.write(path, {"workload": args.workload, "seed": args.seed, "setup_spans": setup_end,
                        "ops_start": ops_start, "traced_op_s": traced, "untraced_op_s": untraced})
    print(f"spans: {len(tracer)}, analysed and written to {path} "
          f"in {time.perf_counter() - t0:.2f} s")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
