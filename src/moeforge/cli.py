"""Command-line surface.

Subcommands: pretrain, tune, ablate, analyze, gradcheck, bench-dispatch,
split-inspect. Every run writes a manifest.json holding the resolved config
(its section seeds are the ones used), --seed as given (null without it),
the thread count and dtype (analyze has neither), input hashes, and the
matrix kernel with the numpy and BLAS versions under it, so a run is
reproducible from its manifest alone; it is written last, so a run
directory without one is incomplete. tune and ablate run in their base
checkpoint's dtype; pretrain and bench-dispatch take --f32. Commands never
mutate their input files.

Exit codes are stable API: 0 ok, 2 invalid config or unreadable input,
3 divergence, 4 step-0 identity violation, 5 gradcheck failure, 6 internal
error (a ``ShapeError`` from inside the package: operands that do not line
up although every input passed its checks, a bug to report). The bench
command exits 1 if the batched and looped dispatch paths disagree.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .analytics import (
    co_selection,
    pattern_specialization,
    write_loading_csv,
    write_matrix_csv,
    write_summary_json,
)
from .ffn import ffn_forward_batch, init_ffn
from .harness import (
    DivergenceError,
    IdentityViolation,
    ToyModel,
    TrainConfig,
    ablate_tuning_subsets,
    init_toy_model,
    make_task,
    moe_tune,
    pretrain,
    run_gradcheck,
)
from .moe import (
    MoeConfig,
    assignment_fractions,
    dispatch_batch,
    dispatch_loop,
    expand_supernet,
    load_balance_loss,
    split_ffn,
)
from .numkernel import KERNEL, STREAM_BENCH, ShapeError, check_seed, check_size, make_rng
from .serialize import (
    FormatError,
    load_toy_model,
    read_labels_csv,
    read_trace_jsonl,
    save_toy_model,
    write_labels_csv,
    write_trace_jsonl,
)

class ConfigError(ValueError):
    """Invalid or malformed run configuration; message names the offending path."""


# Each section's keys are the keyword arguments of the constructor it feeds,
# which checks their ranges: make_task, init_toy_model, MoeConfig and
# TrainConfig. train.trainable's booleans are merged key by key. The moe and
# train defaults are the dataclasses' own; the section seeds, one per random
# stream, are the CLI's.
_NUMBER = (int, float)
_SCHEMA = {
    "task": {
        "n_patterns": (int, 4),
        "token_dim": (int, 8),
        "noise_std": (_NUMBER, 0.1),
        "center_scale": (_NUMBER, 3.0),
        "seed": (int, 1),
    },
    "model": {
        "hidden_dim": (int, 32),
        "activation": (str, "relu"),
        "seed": (int, 5),
    },
    "moe": {
        "n_replicas": (int, MoeConfig.n_replicas),
        "granularity": (int, MoeConfig.granularity),
        "seed": (int, 2),
    },
    "train": {
        "lr": (_NUMBER, TrainConfig.lr),
        "lr_head": (_NUMBER + (type(None),), TrainConfig.lr_head),
        "lr_router": (_NUMBER + (type(None),), TrainConfig.lr_router),
        "steps": (int, TrainConfig.steps),
        "batch": (int, TrainConfig.batch),
        "alpha": (_NUMBER, TrainConfig.alpha),
        "optimizer": (str, TrainConfig.optimizer),
        "eval_tokens": (int, TrainConfig.eval_tokens),
        "probe_tokens": (int, TrainConfig.probe_tokens),
        "seed": (int, 3),
        "trainable": (dict, TrainConfig().trainable),
    },
}


def default_config() -> dict:
    return copy.deepcopy({section: {key: entry[1] for key, entry in keys.items()}
                          for section, keys in _SCHEMA.items()})


def load_config(path) -> dict:
    """Read a JSON config, merge over defaults, reject unknown keys, bad types and non-finite numbers."""
    try:
        with open(path) as f:
            raw = json.load(f)
    except FileNotFoundError:
        raise ConfigError(f"{path}: no such config file") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON: {e}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    cfg = default_config()
    for section, content in raw.items():
        if section not in _SCHEMA:
            raise ConfigError(f"{path}: unknown section '{section}'")
        if not isinstance(content, dict):
            raise ConfigError(f"{path}: section '{section}' must be an object")
        for key, value in content.items():
            if key not in _SCHEMA[section]:
                raise ConfigError(f"{path}: unknown key '{section}.{key}'")
            expected = _SCHEMA[section][key][0]
            if expected is dict:
                if not isinstance(value, dict):
                    raise ConfigError(f"{path}: '{section}.{key}' must be an object")
                for part, flag in value.items():
                    if part not in cfg[section][key]:
                        raise ConfigError(f"{path}: unknown key '{section}.{key}.{part}'")
                    if not isinstance(flag, bool):
                        raise ConfigError(f"{path}: '{section}.{key}.{part}' must be a boolean")
                value = {**cfg[section][key], **value}
            elif not isinstance(value, expected) or isinstance(value, bool):
                raise ConfigError(f"{path}: '{section}.{key}' has wrong type {type(value).__name__}")
            # json reads NaN, Infinity and overflowing literals such as 1e400 as non-finite floats
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{path}: '{section}.{key}' must be finite, got {value}")
            cfg[section][key] = value
    return cfg


def _seed(args, absent=None):
    """--seed, checked against the seed range make_rng takes; ``absent`` without the flag."""
    if args.seed is None:
        return absent
    check_seed("--seed", args.seed)
    return args.seed


def _from_section(path, section: str, make, *args, **kwargs):
    """``make(*args, **kwargs)`` for config section ``section``; its ValueError names the file and section."""
    try:
        return make(*args, **kwargs)
    except (ConfigError, ShapeError):
        raise  # a ConfigError names its key already; a ShapeError is an internal error
    except ValueError as e:
        raise ConfigError(f"{path}: section '{section}': {e}") from None


def write_manifest(out_dir: Path, command: str, args, resolved_config=None,
                   extra_inputs: dict | None = None, threads: int | None = None, dtype=None) -> None:
    """manifest.json of a run; ``threads`` and ``dtype`` are those it ran with, None for analyze."""
    inputs = {}
    config_path = getattr(args, "config", None)
    if config_path:
        inputs["config"] = {"path": str(config_path),
                            "sha256": hashlib.sha256(Path(config_path).read_bytes()).hexdigest()}
    for name, path in (extra_inputs or {}).items():
        inputs[name] = {"path": str(path),
                        "sha256": hashlib.sha256(Path(path).read_bytes()).hexdigest()}
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    manifest = {
        "command": command,
        "package_version": __version__,
        "inputs": inputs,
        "resolved_config": resolved_config,
        "seed": getattr(args, "seed", None),
        # analyze runs float64, on no pool
        **({"threads": threads, "dtype": "f32" if dtype == np.float32 else "f64"}
           if threads is not None else {}),
        # the bytes of every output depend on the matrix kernel and the BLAS under it
        "kernel": KERNEL,
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "out_dir": str(out_dir),
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    write_summary_json(out_dir / "manifest.json", manifest)


# One row per training step; a tune's rows add the balance loss, batch_aux.
_CURVE_COLUMNS = ("step", "batch_mse", "probe_mse", "probe_mse_smoothed")


def _write_rows_csv(path, columns, rows: list[dict]) -> None:
    """A header of ``columns``, then one line per row; str writes a float in its shortest round-trip form."""
    with open(path, "w") as f:
        f.write(",".join(columns) + "\n")
        for row in rows:
            f.write(",".join(str(row[c]) for c in columns) + "\n")


def _load_base(path, cfg: dict) -> ToyModel:
    """The dense base checkpoint at path, checked against the config; its dtype is the run's."""
    base = load_toy_model(path)
    if base.kind != "dense":
        raise ConfigError(f"{path}: base checkpoint must hold a dense model")
    block = base.block
    if base.token_dim != cfg["task"]["token_dim"] or block.hidden_dim != cfg["model"]["hidden_dim"]:
        raise ConfigError(
            f"{path}: checkpoint dims ({base.token_dim}, {block.hidden_dim}) "
            f"do not match config ({cfg['task']['token_dim']}, {cfg['model']['hidden_dim']})"
        )
    if block.activation != cfg["model"]["activation"]:
        raise ConfigError(f"{path}: checkpoint activation {block.activation} "
                          f"does not match config model.activation {cfg['model']['activation']}")
    return base


def _moe_config(cfg: dict) -> MoeConfig:
    """The supernet config of a tune or ablate run, which must reproduce its base at step 0.

    The config has no top_k: MoeConfig sets it to ``granularity``. At step 0
    a token's first ``granularity`` picks are the slices of one replica,
    which sum to the base FFN only all together: with fewer picks the step-0
    identity check always fails, and with more the extra picks add another
    replica's slices.
    """
    return MoeConfig(token_dim=cfg["task"]["token_dim"], hidden_dim=cfg["model"]["hidden_dim"], **cfg["moe"])


def _set_up_training(args, base_path=None):
    """``(cfg, task, train_cfg, model, moe_cfg, out)`` of a pretrain, or of a tune or ablate from ``base_path``.

    --seed replaces every section seed. A pretrain draws a fresh model in
    --f32's dtype and has no moe_cfg; a tune or ablate trains the base
    checkpoint, in its dtype. --out is created only after every input has
    passed its checks, so a rejected run leaves no directory.
    """
    cfg = load_config(args.config)
    seed = _seed(args)
    if seed is not None:
        for section in cfg.values():
            section["seed"] = seed
    base = None if base_path is None else _load_base(base_path, cfg)
    dtype = (np.float32 if args.f32 else np.float64) if base is None else base.block.w1.dtype
    task = _from_section(args.config, "task", make_task, **cfg["task"], dtype=dtype)
    train_cfg = _from_section(args.config, "train", TrainConfig, **cfg["train"],
                              threads=check_size("--threads", args.threads))
    if base is None:
        model, moe_cfg = _from_section(args.config, "model", init_toy_model, cfg["task"]["token_dim"],
                                       **cfg["model"], dtype=dtype), None
    else:
        model, moe_cfg = base, _from_section(args.config, "moe", _moe_config, cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return cfg, task, train_cfg, model, moe_cfg, out


def cmd_pretrain(args) -> int:
    cfg, task, train_cfg, model, _, out = _set_up_training(args)
    result = pretrain(task, model, train_cfg)
    save_toy_model(out / "base.ckpt", result.model)
    _write_rows_csv(out / "curves.csv", _CURVE_COLUMNS, result.curves)
    write_summary_json(out / "metrics.json", {
        "mse": result.final_eval.mse,
        "steps": train_cfg.steps,
        "stage": "pretrain",
    })
    write_manifest(out, "pretrain", args, cfg, threads=train_cfg.threads, dtype=task.centers.dtype)
    print(f"pretrain done: eval mse {result.final_eval.mse:.6g} -> {out}")
    return 0


def cmd_tune(args) -> int:
    cfg, task, train_cfg, base, moe_cfg, out = _set_up_training(args, args.base)
    result = moe_tune(task, base, moe_cfg, train_cfg)
    save_toy_model(out / "tuned.ckpt", result.model)
    _write_rows_csv(out / "curves.csv", _CURVE_COLUMNS + ("batch_aux",), result.curves)
    write_summary_json(out / "metrics.json", result.metrics)
    write_trace_jsonl(out / "trace.jsonl", result.final_eval.trace)
    write_labels_csv(out / "labels.csv", result.final_eval.labels)
    write_matrix_csv(out / "coselection.csv", result.coselection)
    write_loading_csv(out / "loading.csv", assignment_fractions(result.final_eval.trace))
    write_manifest(out, "tune", args, cfg, extra_inputs={"base": args.base},
                   threads=train_cfg.threads, dtype=task.centers.dtype)
    print(f"tune done: base mse {result.metrics['base_mse']:.6g} -> "
          f"tuned mse {result.metrics['mse']:.6g}, nmi {result.metrics['nmi']:.3f} -> {out}")
    return 0


def cmd_ablate(args) -> int:
    cfg, task, train_cfg, base, moe_cfg, out = _set_up_training(args, args.base)
    rows = ablate_tuning_subsets(task, base, moe_cfg, train_cfg)
    _write_rows_csv(out / "ablation.csv", ("combo", "mse", "base_mse", "aux_loss", "nmi"), rows)
    write_manifest(out, "ablate", args, cfg, extra_inputs={"base": args.base},
                   threads=train_cfg.threads, dtype=task.centers.dtype)
    for row in rows:
        print(f"{row['combo']:>14}: mse {row['mse']:.6g}")
    return 0


def cmd_analyze(args) -> int:
    trace = read_trace_jsonl(args.trace)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    loading = assignment_fractions(trace)
    nmi = None
    if args.labels:
        nmi = pattern_specialization(trace, read_labels_csv(args.labels, trace.n_tokens))
    matrix = co_selection(trace, normalize=args.normalize)
    coselection_path = out / "coselection.csv"
    write_matrix_csv(coselection_path, matrix)
    write_loading_csv(out / "loading.csv", loading)
    write_summary_json(out / "summary.json", {
        "loss": load_balance_loss(trace),
        "nmi": nmi,
        "loading": [float(x) for x in loading],
        "coselection_path": coselection_path.name,
    })
    inputs = {"trace": args.trace}
    if args.labels:
        inputs["labels"] = args.labels
    write_manifest(out, "analyze", args, None, extra_inputs=inputs)
    print(f"analyze done: balance loss {load_balance_loss(trace):.6g} -> {out}")
    return 0


def _parse_sizes(sizes_arg: str):
    """The DxHxNxK shapes of --sizes, every entry checked before any instance runs."""
    dims = []
    for item in sizes_arg.split(","):
        try:
            shape = tuple(int(p) for p in item.strip().lower().split("x"))
        except ValueError:
            shape = ()
        if len(shape) != 4:
            raise ConfigError(f"--sizes entry {item!r}: expected DxHxNxK, four integers")
        if not all(1 <= size <= 64 for size in shape):
            raise ConfigError(f"--sizes entry {item!r}: every size must be in [1, 64]")
        if shape[1] % shape[3]:
            raise ConfigError(f"--sizes entry {item!r}: hidden {shape[1]} "
                              f"not divisible by granularity {shape[3]}")
        dims.append(shape)
    return dims


def cmd_gradcheck(args) -> int:
    if not np.isfinite(args.alpha):
        raise ConfigError(f"--alpha must be finite, got {args.alpha}")
    n_instances = None if args.instances is None else check_size("--instances", args.instances)
    dims = None if args.sizes is None else _parse_sizes(args.sizes)
    report = run_gradcheck(seed=_seed(args, 0), n_instances=n_instances, alpha=args.alpha, dims=dims)
    for group, err in sorted(report["groups"].items()):
        print(f"group {group:<8} max relative error {err:.3e}")
    print(f"router grads with alpha=0: max |g| = {report['alpha_zero_router_max']:.1e}")
    if report["passed"]:
        print(f"PASS (tolerance {report['tol']:.0e})")
        return 0
    worst = report["worst"]
    print(f"FAIL (tolerance {report['tol']:.0e}): worst offender {worst['group']}:"
          f"{worst['name']}{worst['index']} analytic {worst['analytic']!r} fd {worst['fd']!r}",
          file=sys.stderr)
    return 5


def cmd_bench_dispatch(args) -> int:
    threads = check_size("--threads", args.threads)
    n = check_size("--tokens", args.tokens)
    for flag, value in (("--token-dim", args.token_dim), ("--hidden", args.hidden),
                        ("--replicas", args.replicas), ("--granularity", args.granularity)):
        check_size(flag, value)
    if args.hidden % args.granularity:
        raise ConfigError(f"--hidden {args.hidden} not divisible by --granularity {args.granularity}")
    if not 0 <= args.top_k <= args.replicas * args.granularity:
        raise ConfigError(f"--top-k must be in [0, {args.replicas * args.granularity}] "
                          f"(0 tracks --granularity), got {args.top_k}")
    dtype = np.float32 if args.f32 else np.float64
    seed = _seed(args, 0)
    rng = make_rng(seed, STREAM_BENCH)
    cfg = MoeConfig(token_dim=args.token_dim, hidden_dim=args.hidden,
                    n_replicas=args.replicas, granularity=args.granularity,
                    top_k=args.top_k or None, seed=seed)
    base = init_ffn(args.token_dim, args.hidden, rng, dtype=dtype)
    layer = expand_supernet(base, cfg)
    # nudge the router off the grouped init so expert loads are realistic
    nudge = (0.5 * rng.normal(size=layer.router.w_r.shape) / np.sqrt(args.token_dim)).astype(dtype)
    layer.router.w_r = layer.router.w_r + nudge
    tokens = rng.normal(size=(n, args.token_dim)).astype(dtype)

    t0 = time.perf_counter()
    out_batched, trace_batched = dispatch_batch(layer, tokens, threads)
    batched_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    out_loop, trace_loop = dispatch_loop(layer, tokens)
    loop_s = time.perf_counter() - t0

    identical = (np.array_equal(out_batched, out_loop)
                 and np.array_equal(trace_batched.selected, trace_loop.selected)
                 and np.array_equal(trace_batched.scores, trace_loop.scores))
    print(f"equivalence: {'identical' if identical else 'MISMATCH'}")
    if not identical:
        print("batched dispatch does not match the per-token loop; timings withheld",
              file=sys.stderr)
        return 1
    print(f"naive loop      : {loop_s:.3f} s  ({n / loop_s:,.0f} tokens/s)")
    print(f"batched dispatch: {batched_s:.3f} s  ({n / batched_s:,.0f} tokens/s)")
    print(f"speedup: {loop_s / batched_s:.2f}x (threads={threads})")
    return 0


def cmd_split_inspect(args) -> int:
    seed = _seed(args, 0)
    model = load_toy_model(args.ckpt)
    if model.kind != "dense":
        raise ConfigError(f"{args.ckpt}: checkpoint already holds a mixture layer")
    base = model.block
    try:
        experts = split_ffn(base, args.granularity)
    except ValueError as e:
        raise ConfigError(f"--granularity {args.granularity}: {e}") from None
    print(f"base ffn: token_dim {base.token_dim}, hidden_dim {base.hidden_dim}, "
          f"activation {base.activation}")
    for j, e in enumerate(experts):
        print(f"expert {j}: w1 {e.w1.shape}, b1 {e.b1.shape}, w2 {e.w2.shape}, "
              f"b2 = base b2 / {args.granularity}")
    probe_rng = make_rng(seed, STREAM_BENCH)
    probe = probe_rng.normal(size=(100, base.token_dim)).astype(base.w1.dtype)
    full = ffn_forward_batch(base, probe)
    total = np.zeros_like(full)
    for e in experts:
        total += ffn_forward_batch(e, probe)
    residual = float(np.max(np.abs(total - full)))
    print(f"max |sum of experts - base| over 100 probe tokens: {residual:.3e}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="moeforge",
                                     description="Mixture-of-experts layer mechanics and toy tuning harness")
    parser.add_argument("--version", action="version", version=f"moeforge {__version__}")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=None,
                        help="override every section seed in the config")
    # only the commands that run a model take these
    run = argparse.ArgumentParser(add_help=False, parents=[seeded])
    run.add_argument("--threads", type=int, default=1, help="dispatch thread count")
    # tune and ablate run in their base checkpoint's dtype; the commands that draw their weights choose one
    drawn = argparse.ArgumentParser(add_help=False, parents=[run])
    drawn.add_argument("--f32", action="store_true", help="32-bit float mode (relaxed tolerances)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pretrain", parents=[drawn], help="stage A: train the dense base model")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("tune", parents=[run], help="stage B: expand to a supernet and fine-tune")
    p.add_argument("--config", required=True)
    p.add_argument("--base", required=True, help="base checkpoint from pretrain")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("ablate", parents=[run], help="tune once per trainable-subset combo")
    p.add_argument("--config", required=True)
    p.add_argument("--base", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("analyze", help="statistics from an exported trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--labels", default=None, help="token_id,label csv for specialization NMI")
    p.add_argument("--normalize", choices=["max", "tokens"], default="max")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("gradcheck", parents=[seeded], help="finite-difference check of the gradients")
    p.add_argument("--alpha", type=float, default=0.01)
    pool = p.add_mutually_exclusive_group()
    pool.add_argument("--instances", type=int, default=None, help="random shapes to check (default 50)")
    pool.add_argument("--sizes", default=None,
                      help="comma-separated DxHxNxK instance shapes, e.g. 8x16x2x2,16x32x4x2")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("bench-dispatch", parents=[drawn],
                       help="equivalence + throughput: batched dispatch vs per-token loop")
    p.add_argument("--tokens", type=int, default=8192)
    p.add_argument("--token-dim", type=int, default=256)
    p.add_argument("--hidden", type=int, default=1024)
    p.add_argument("--replicas", type=int, default=8)
    p.add_argument("--granularity", type=int, default=2)
    p.add_argument("--top-k", type=int, default=0)
    p.set_defaults(func=cmd_bench_dispatch)

    p = sub.add_parser("split-inspect", parents=[seeded],
                       help="show how a checkpoint's FFN slices into experts")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--granularity", type=int, required=True)
    p.set_defaults(func=cmd_split_inspect)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (OSError, FormatError) as e:  # a missing, unreadable or misplaced path, or a malformed file
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except ShapeError as e:
        # every input that could raise one is rejected where it enters, as a config or input error
        print(f"internal error: {e}", file=sys.stderr)
        return 6
    except ValueError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except DivergenceError as e:
        print(f"divergence: {e}", file=sys.stderr)
        return 3
    except IdentityViolation as e:
        print(f"identity violation: {e}", file=sys.stderr)
        return 4


def entry() -> None:
    sys.exit(main())
