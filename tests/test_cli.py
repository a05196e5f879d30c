import dataclasses
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import moeforge.cli
import moeforge.harness
import moeforge.moe
from moeforge import numkernel
from moeforge.cli import build_parser, default_config, load_config, main, ConfigError
from moeforge.harness import TrainConfig, init_toy_model
from moeforge.moe import MoeConfig
from moeforge.serialize import save_toy_model

SMALL_CONFIG = {
    "task": {"n_patterns": 3, "token_dim": 6, "noise_std": 0.1, "seed": 21},
    "model": {"hidden_dim": 12, "seed": 21},
    "moe": {"n_replicas": 2, "granularity": 2, "seed": 21},
    "train": {"lr": 0.05, "steps": 40, "batch": 16, "eval_tokens": 600,
              "probe_tokens": 64, "seed": 21},
}


def write_config(tmp_path, overrides=None, name="config.json"):
    cfg = json.loads(json.dumps(SMALL_CONFIG))
    for section, content in (overrides or {}).items():
        cfg.setdefault(section, {}).update(content)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def run_pretrain(tmp_path, out="run_pre", config=None, extra=()):
    config = config or write_config(tmp_path)
    out_dir = tmp_path / out
    code = main(["pretrain", "--config", str(config), "--out", str(out_dir), *extra])
    return code, out_dir, config


class TestConfigLoading:
    def test_defaults_fill_missing_keys(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{}")
        cfg = load_config(path)
        assert cfg == default_config()

    def test_unknown_key_names_path(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"train": {"bogus": 1}}))
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert "train.bogus" in str(exc.value)

    def test_wrong_type_names_path(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"task": {"n_patterns": "four"}}))
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert "task.n_patterns" in str(exc.value)

    def test_trainable_subkeys_checked(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"train": {"trainable": {"decoder": True}}}))
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert "train.trainable.decoder" in str(exc.value)

    def test_trainable_merges_over_the_defaults(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"train": {"trainable": {"map": True}}}))
        assert load_config(path)["train"]["trainable"] == {"moe": True, "head": True, "map": True}
        assert default_config()["train"]["trainable"] == {"moe": True, "head": True, "map": False}

    # json reads NaN, Infinity and overflowing literals as floats; the config refuses them where it enters
    @pytest.mark.parametrize("text, key", [
        ('{"train": {"lr": NaN}}', "train.lr"),
        ('{"train": {"alpha": Infinity}}', "train.alpha"),
        ('{"train": {"lr_head": -Infinity}}', "train.lr_head"),
        ('{"task": {"noise_std": 1e400}}', "task.noise_std"),
    ])
    def test_non_finite_number_names_its_key(self, tmp_path, text, key):
        path = tmp_path / "c.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match=f"'{key}' must be finite, got "):
            load_config(path)


class TestPretrainCommand:
    def test_writes_run_dir(self, tmp_path):
        code, out_dir, _ = run_pretrain(tmp_path)
        assert code == 0
        for name in ("manifest.json", "base.ckpt", "curves.csv", "metrics.json"):
            assert (out_dir / name).exists()
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["command"] == "pretrain"
        assert manifest["seed"] is None  # no --seed: the config's section seeds ran
        assert manifest["resolved_config"]["train"]["steps"] == 40
        assert "sha256" in manifest["inputs"]["config"]
        assert manifest["kernel"] == numkernel.KERNEL
        assert manifest["numpy"] == np.__version__
        assert set(manifest["blas"]) == {"name", "version"}

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["pretrain", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "bad.json" in capsys.readouterr().err

    def test_missing_config_exits_2(self, tmp_path):
        code = main(["pretrain", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")])
        assert code == 2

    def test_same_seed_twice_byte_identical_curves(self, tmp_path):
        _, first, config = run_pretrain(tmp_path, out="a")
        _, second, _ = run_pretrain(tmp_path, out="b", config=config)
        assert (first / "curves.csv").read_bytes() == (second / "curves.csv").read_bytes()
        assert (first / "metrics.json").read_bytes() == (second / "metrics.json").read_bytes()

    def test_divergent_lr_exits_3(self, tmp_path):
        config = write_config(tmp_path, {"train": {"lr": 50.0, "steps": 300}}, name="div.json")
        code = main(["pretrain", "--config", str(config), "--out", str(tmp_path / "d")])
        assert code == 3

    def test_config_file_not_mutated(self, tmp_path):
        config = write_config(tmp_path)
        before = config.read_bytes()
        run_pretrain(tmp_path, config=config)
        assert config.read_bytes() == before


class TestTuneCommand:
    @pytest.fixture()
    def pretrained(self, tmp_path):
        code, out_dir, config = run_pretrain(tmp_path)
        assert code == 0
        return out_dir / "base.ckpt", config

    def test_outputs_and_metrics(self, tmp_path, pretrained):
        ckpt, config = pretrained
        out = tmp_path / "tune"
        code = main(["tune", "--config", str(config), "--base", str(ckpt), "--out", str(out)])
        assert code == 0
        for name in ("manifest.json", "tuned.ckpt", "metrics.json", "curves.csv",
                     "trace.jsonl", "labels.csv", "coselection.csv", "loading.csv"):
            assert (out / name).exists()
        metrics = json.loads((out / "metrics.json").read_text())
        assert abs(metrics["step0_mse"] - metrics["base_mse"]) <= 1e-9

    def test_zero_steps_matches_base(self, tmp_path, pretrained):
        ckpt, _ = pretrained
        config = write_config(tmp_path, {"train": {"steps": 0}}, name="zero.json")
        out = tmp_path / "tune0"
        code = main(["tune", "--config", str(config), "--base", str(ckpt), "--out", str(out)])
        assert code == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert abs(metrics["mse"] - metrics["base_mse"]) <= 1e-9
        # a tune's curves carry batch_aux, rows or no rows
        assert (out / "curves.csv").read_text() == "step,batch_mse,probe_mse,probe_mse_smoothed,batch_aux\n"

    def test_missing_checkpoint_exits_2(self, tmp_path):
        config = write_config(tmp_path)
        code = main(["tune", "--config", str(config),
                     "--base", str(tmp_path / "missing.ckpt"), "--out", str(tmp_path / "t")])
        assert code == 2

    def test_shape_mismatch_exits_2(self, tmp_path, pretrained):
        ckpt, _ = pretrained
        config = write_config(tmp_path, {"model": {"hidden_dim": 16}}, name="mismatch.json")
        code = main(["tune", "--config", str(config), "--base", str(ckpt),
                     "--out", str(tmp_path / "t")])
        assert code == 2

    def test_identity_violation_exits_4(self, tmp_path, pretrained, monkeypatch):
        ckpt, config = pretrained
        real_init = moeforge.moe.init_router

        def skewed(cfg, rng, dtype=np.float64):
            router = real_init(cfg, rng, dtype)
            router.b_r = router.b_r + np.arange(cfg.n_experts, dtype=dtype)
            return router

        monkeypatch.setattr(moeforge.moe, "init_router", skewed)
        code = main(["tune", "--config", str(config), "--base", str(ckpt),
                     "--out", str(tmp_path / "t4")])
        assert code == 4

    @pytest.mark.parametrize("command", ["tune", "ablate"])
    def test_top_k_below_granularity_exits_2_before_any_work(self, tmp_path, pretrained, capsys, command):
        # k of a replica's g slices cannot sum to the base FFN, so the config
        # has no top_k key; nothing is evaluated or written
        ckpt, _ = pretrained
        config = write_config(tmp_path, {"moe": {"top_k": 1}}, name="k1.json")
        capsys.readouterr()
        out = tmp_path / "k1"
        assert main([command, "--config", str(config), "--base", str(ckpt), "--out", str(out)]) == 2
        assert f"config error: {config}: unknown key 'moe.top_k'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["tune", "ablate"])
    @pytest.mark.parametrize("top_k", [3, 4])
    def test_top_k_above_granularity_exits_2_before_any_work(self, tmp_path, pretrained, capsys, command, top_k):
        # past one replica's g slices, the picks add a second replica's
        # slices to the base output, so the config has no top_k key
        ckpt, _ = pretrained
        config = write_config(tmp_path, {"moe": {"top_k": top_k}}, name=f"k{top_k}.json")
        capsys.readouterr()
        out = tmp_path / f"k{top_k}"
        assert main([command, "--config", str(config), "--base", str(ckpt), "--out", str(out)]) == 2
        assert f"config error: {config}: unknown key 'moe.top_k'" in capsys.readouterr().err
        assert not out.exists()

    def test_internal_shape_error_exits_6(self, tmp_path, pretrained, capsys, monkeypatch):
        ckpt, config = pretrained

        def broken(a, w, block_expert):
            raise numkernel.ShapeError("mm_grouped", a.shape, w.shape, block_expert.shape)

        monkeypatch.setattr(moeforge.moe, "mm_grouped", broken)
        capsys.readouterr()
        code = main(["tune", "--config", str(config), "--base", str(ckpt), "--out", str(tmp_path / "t6")])
        assert code == 6
        assert capsys.readouterr().err.startswith("internal error: mm_grouped: incompatible shapes")

    @pytest.mark.parametrize("key, value", [("lr_head", -1), ("lr_router", -1), ("alpha", -5)])
    def test_negative_rate_exits_2_naming_it(self, tmp_path, pretrained, capsys, key, value):
        # a negative rate or balance weight would climb the loss it should descend
        ckpt, _ = pretrained
        config = write_config(tmp_path, {"train": {key: value}}, name="negative.json")
        capsys.readouterr()
        out = tmp_path / "neg"
        assert main(["tune", "--config", str(config), "--base", str(ckpt), "--out", str(out)]) == 2
        assert f"{key} must be >= 0, got {value}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, activation", [("tune", "gelu"), ("ablate", "tanh")])
    def test_base_activation_must_match_the_config(self, tmp_path, pretrained, capsys, command, activation):
        ckpt, _ = pretrained
        config = write_config(tmp_path, {"model": {"activation": activation}}, name="act.json")
        capsys.readouterr()
        out = tmp_path / "act"
        assert main([command, "--config", str(config), "--base", str(ckpt), "--out", str(out)]) == 2
        assert (f"checkpoint activation relu does not match config model.activation {activation}"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("command, key, literal", [
        ("pretrain", "lr", "NaN"), ("pretrain", "lr", "1e400"), ("pretrain", "alpha", "NaN"),
        ("tune", "alpha", "NaN"), ("tune", "lr_router", "Infinity"),
    ])
    def test_non_finite_rate_exits_2_before_any_work(self, tmp_path, pretrained, capsys,
                                                     command, key, literal):
        ckpt, _ = pretrained
        config = write_config(tmp_path, {"train": {key: "@"}}, name="nonfinite.json")
        config.write_text(config.read_text().replace('"@"', literal))
        out = tmp_path / "nonfinite"
        argv = [command, "--config", str(config), "--out", str(out)]
        argv += ["--base", str(ckpt)] if command == "tune" else []
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"config error: {config}: 'train.{key}' must be finite, got ")
        assert not out.exists()

    def test_overflowing_objective_exits_3(self, tmp_path):
        # under the default moe section the step-0 balance loss is about 1.45, so alpha * aux
        # overflows: a divergence, checked by the one check both stages share
        train = {"steps": 5, "eval_tokens": 500, "probe_tokens": 64}
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"train": train}))
        code, pre_dir, _ = run_pretrain(tmp_path, config=config)
        assert code == 0
        config.write_text(json.dumps({"train": {**train, "alpha": 1.5e308}}))
        # in a process of its own, so that stderr holds any numpy warning printed before the check
        proc = subprocess.run([sys.executable, "-m", "moeforge", "tune", "--config", str(config),
                               "--base", str(pre_dir / "base.ckpt"), "--out", str(tmp_path / "big")],
                              capture_output=True, text=True)
        assert proc.returncode == 3
        assert proc.stderr == "divergence: batch loss became non-finite at step 0\n"

    def test_threads_do_not_change_outputs(self, tmp_path, pretrained):
        # exit-code stability plus byte-identical metrics regardless of --threads
        ckpt, config = pretrained
        outs = []
        for threads, name in ((1, "t1"), (4, "t4")):
            out = tmp_path / name
            code = main(["tune", "--config", str(config), "--base", str(ckpt),
                         "--out", str(out), "--threads", str(threads)])
            assert code == 0
            outs.append(out)
        for name in ("metrics.json", "curves.csv", "trace.jsonl", "loading.csv",
                     "coselection.csv", "labels.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


class TestAblateCommand:
    def test_four_default_rows(self, tmp_path):
        config = write_config(tmp_path, {"train": {"steps": 10}})
        code, out_dir, _ = run_pretrain(tmp_path, config=config)
        out = tmp_path / "abl"
        code = main(["ablate", "--config", str(config), "--base",
                     str(out_dir / "base.ckpt"), "--out", str(out)])
        assert code == 0
        lines = (out / "ablation.csv").read_text().strip().splitlines()
        assert lines[0] == "combo,mse,base_mse,aux_loss,nmi"
        assert len(lines) == 5
        assert sorted(p.name for p in out.iterdir()) == ["ablation.csv", "manifest.json"]
        assert [l.split(",")[0] for l in lines[1:]] == ["moe", "moe+head", "moe+map",
                                                        "moe+head+map"]

    def test_mismatched_base_exits_2_naming_it(self, tmp_path, capsys):
        _, out_dir, _ = run_pretrain(tmp_path, config=write_config(tmp_path, {"train": {"steps": 10}}))
        ckpt = out_dir / "base.ckpt"
        config = write_config(tmp_path, {"model": {"hidden_dim": 16}}, name="mismatch.json")
        capsys.readouterr()
        code = main(["ablate", "--config", str(config), "--base", str(ckpt), "--out", str(tmp_path / "abl")])
        assert code == 2
        assert str(ckpt) in capsys.readouterr().err


class TestAnalyzeCommand:
    def test_summary_from_trace(self, tmp_path):
        config = write_config(tmp_path)
        _, pre_dir, _ = run_pretrain(tmp_path, config=config)
        tune_out = tmp_path / "tr"
        main(["tune", "--config", str(config), "--base", str(pre_dir / "base.ckpt"),
              "--out", str(tune_out)])
        out = tmp_path / "an"
        code = main(["analyze", "--trace", str(tune_out / "trace.jsonl"),
                     "--labels", str(tune_out / "labels.csv"), "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary) == {"loss", "nmi", "loading", "coselection_path"}
        assert summary["nmi"] is not None
        assert (out / "coselection.csv").exists() and (out / "loading.csv").exists()

    def test_labels_optional(self, tmp_path):
        config = write_config(tmp_path)
        _, pre_dir, _ = run_pretrain(tmp_path, config=config)
        tune_out = tmp_path / "tr"
        main(["tune", "--config", str(config), "--base", str(pre_dir / "base.ckpt"),
              "--out", str(tune_out)])
        out = tmp_path / "an2"
        code = main(["analyze", "--trace", str(tune_out / "trace.jsonl"), "--out", str(out)])
        assert code == 0
        assert json.loads((out / "summary.json").read_text())["nmi"] is None

    def test_missing_trace_exits_2(self, tmp_path):
        code = main(["analyze", "--trace", str(tmp_path / "nope.jsonl"),
                     "--out", str(tmp_path / "o")])
        assert code == 2

    @pytest.mark.parametrize("records, line", [
        ([{"token_id": 0, "selected": [3, 3], "scores": [0.25] * 4}], 1),
        ([{"token_id": 0, "selected": [1, 3], "scores": [float("nan")] + [0.25] * 3}], 1),
        ([{"token_id": 0, "selected": [1, 3], "scores": [0.25] * 4},
          {"token_id": 5, "selected": [1, 3], "scores": [0.25] * 4}], 2),
        ([{"token_id": 0, "scores": [0.25] * 4}], 1),
        (['{"token_id": 0,'], 1),
    ])
    def test_trace_defect_exits_2_naming_the_line(self, tmp_path, capsys, records, line):
        trace = tmp_path / "trace.jsonl"
        trace.write_text("".join((r if isinstance(r, str) else json.dumps(r)) + "\n" for r in records))
        assert main(["analyze", "--trace", str(trace), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(f"input error: {trace}:{line}: ")

    @pytest.mark.parametrize("labels, where", [("token_id,label\n7,1\n3,0\n", ":2: "),
                                               ("token_id,label\n0,1\n", ": ")])
    def test_misaligned_labels_exit_2(self, tmp_path, capsys, labels, where):
        trace = tmp_path / "trace.jsonl"
        trace.write_text("".join(json.dumps({"token_id": t, "selected": [t], "scores": [0.5, 0.5]}) + "\n"
                                 for t in range(2)))
        path = tmp_path / "labels.csv"
        path.write_text(labels)
        code = main(["analyze", "--trace", str(trace), "--labels", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"input error: {path}{where}")

    def test_summary_does_not_depend_on_the_output_directory(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        trace.write_text("".join(json.dumps({"token_id": t, "selected": [t % 2, 2], "scores": [0.25, 0.25, 0.5]})
                                 + "\n" for t in range(4)))
        for out in ("an_a", "an_b"):
            assert main(["analyze", "--trace", str(trace), "--out", str(tmp_path / out)]) == 0
        summary = (tmp_path / "an_a" / "summary.json").read_bytes()
        assert summary == (tmp_path / "an_b" / "summary.json").read_bytes()
        assert json.loads(summary)["coselection_path"] == "coselection.csv"

    def test_top1_tune_trace_is_analyzed(self, tmp_path):
        config = write_config(tmp_path, {"moe": {"granularity": 1}})
        _, pre_dir, _ = run_pretrain(tmp_path, config=config)
        tune_out = tmp_path / "tr"
        assert main(["tune", "--config", str(config), "--base", str(pre_dir / "base.ckpt"),
                     "--out", str(tune_out)]) == 0
        out = tmp_path / "an"
        assert main(["analyze", "--trace", str(tune_out / "trace.jsonl"),
                     "--labels", str(tune_out / "labels.csv"), "--out", str(out)]) == 0
        assert (out / "coselection.csv").read_bytes() == (tune_out / "coselection.csv").read_bytes()


class TestGradcheckCommand:
    def test_passes_and_prints_groups(self, capsys):
        code = main(["gradcheck", "--instances", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "group experts" in out and "group router" in out and "group head" in out
        assert "alpha=0: max |g| = 0.0e+00" in out
        assert "PASS" in out

    def test_explicit_sizes(self, capsys):
        code = main(["gradcheck", "--sizes", "6x8x2x2,8x12x3x3"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("sizes", ["2x2x1x2", "1x1x1x1"])
    def test_every_expert_selected(self, capsys, sizes):
        # with top_k = n_experts no routing can flip: there is no margin to check
        assert main(["gradcheck", "--sizes", sizes]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_oversized_sizes_rejected(self):
        assert main(["gradcheck", "--sizes", "128x256x4x2"]) == 2

    def test_accepted_shape_without_a_margined_instance_is_a_config_error(self, capsys):
        # 4096 experts, top-64: the 64th and 65th scores never part by the margin
        assert main(["gradcheck", "--sizes", "64x64x64x64"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: ") and "64x64x64x64" in captured.err
        assert "group" not in captured.out

    @pytest.mark.parametrize("instances", ["0", "-1"])
    def test_instances_below_one_rejected(self, capsys, instances):
        # zero instances would check nothing and pass
        assert main(["gradcheck", "--instances", instances]) == 2
        captured = capsys.readouterr()
        assert f"config error: --instances must be >= 1, got {instances}" in captured.err
        assert "PASS" not in captured.out

    def test_corrupted_backward_exits_5(self, capsys, monkeypatch):
        real = moeforge.harness._collect_grads

        def corrupted(model, tokens, targets, alpha):
            grads, mse, aux, trace = real(model, tokens, targets, alpha)
            grads["router.w_r"] = grads["router.w_r"] + 0.05
            return grads, mse, aux, trace

        monkeypatch.setattr(moeforge.harness, "_collect_grads", corrupted)
        code = main(["gradcheck", "--instances", "2"])
        assert code == 5
        assert "worst offender" in capsys.readouterr().err

    def test_nan_gradient_exits_5(self, capsys, monkeypatch):
        real = moeforge.harness._collect_grads

        def nan_backward(model, tokens, targets, alpha):
            grads, mse, aux, trace = real(model, tokens, targets, alpha)
            grads["experts.w1"] = grads["experts.w1"].copy()
            grads["experts.w1"][0, 0, 0] = np.nan
            return grads, mse, aux, trace

        monkeypatch.setattr(moeforge.harness, "_collect_grads", nan_backward)
        assert main(["gradcheck", "--sizes", "4x8x2x2"]) == 5
        captured = capsys.readouterr()
        assert "group experts  max relative error nan" in captured.out
        assert "worst offender experts:experts.w1(0, 0, 0) analytic nan" in captured.err

    def test_sizes_and_instances_exclude_each_other(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["gradcheck", "--sizes", "4x8x2x2", "--instances", "7"])
        assert exit_info.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    # every entry is checked before the first instance runs
    @pytest.mark.parametrize("sizes, entry", [("4x6x2x4", "4x6x2x4"), ("axbxcxd", "axbxcxd"),
                                              ("4x8x2x2,4x6x2x4", "4x6x2x4")])
    def test_bad_sizes_entry_named_before_any_instance(self, capsys, sizes, entry):
        assert main(["gradcheck", "--sizes", sizes]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: --sizes entry '{entry}': ")
        assert "group" not in captured.out


class TestDefaultConfig:
    def test_defaults_match_the_dataclasses(self):
        # section seeds differ on purpose: each stream gets its own
        cfg = default_config()
        moe = {f.name: f.default for f in dataclasses.fields(MoeConfig)}
        train = {f.name: f.default for f in dataclasses.fields(TrainConfig)}
        for key, value in cfg["moe"].items():
            if key != "seed":
                assert value == moe[key], key
        for key, value in cfg["train"].items():
            if key == "trainable":
                assert value == TrainConfig().trainable
            elif key != "seed":
                assert value == train[key], key

    # every _SCHEMA key set off its default, to a legal value
    EVERY_KEY_CHANGED = {
        "task": {"n_patterns": 3, "token_dim": 6, "noise_std": 0.05, "center_scale": 2.5, "seed": 11},
        "model": {"hidden_dim": 12, "activation": "gelu", "seed": 12},
        "moe": {"n_replicas": 3, "granularity": 3, "seed": 13},
        "train": {"lr": 0.01, "lr_head": 0.005, "lr_router": 0.02, "steps": 7, "batch": 9, "alpha": 0.5,
                  "optimizer": "adamw", "eval_tokens": 100, "probe_tokens": 10, "seed": 14,
                  "trainable": {"moe": False, "head": False, "map": True}},
    }

    @pytest.mark.parametrize("changed", [False, True])
    def test_every_section_feeds_its_constructor(self, tmp_path, changed):
        # a key the schema lists but its constructor lacks fails here, not in a user's run
        defaults = default_config()
        path = tmp_path / "c.json"
        path.write_text(json.dumps(self.EVERY_KEY_CHANGED if changed else {}))
        cfg = load_config(path)
        if changed:
            assert all(cfg[s][k] != v for s, keys in defaults.items() for k, v in keys.items())
            assert all(cfg["train"]["trainable"][p] != f for p, f in defaults["train"]["trainable"].items())
        args = build_parser().parse_args(["pretrain", "--config", str(path), "--out", str(tmp_path)])
        _, task, train, model, _, _ = moeforge.cli._set_up_training(args)
        moe = moeforge.cli._moe_config(cfg)
        assert (task.n_patterns, task.token_dim, task.noise_std, task.seed) == tuple(
            cfg["task"][k] for k in ("n_patterns", "token_dim", "noise_std", "seed"))
        assert (model.block.hidden_dim, model.block.activation) == (cfg["model"]["hidden_dim"],
                                                                    cfg["model"]["activation"])
        assert {k: getattr(moe, k) for k in cfg["moe"]} == cfg["moe"] and moe.top_k == moe.granularity
        assert {k: getattr(train, k) for k in cfg["train"]} == cfg["train"]
        assert train.trainable == cfg["train"]["trainable"]

    def test_default_tune_runs_end_to_end_quickly(self, tmp_path):
        # the shipped defaults (8 replicas split 2 ways, alpha 0.01) must
        # finish a pretrain + tune round trip well inside five minutes
        import time

        config = tmp_path / "default.json"
        config.write_text("{}")
        t0 = time.perf_counter()
        pre = tmp_path / "pre"
        assert main(["pretrain", "--config", str(config), "--out", str(pre)]) == 0
        out = tmp_path / "tuned"
        assert main(["tune", "--config", str(config), "--base", str(pre / "base.ckpt"),
                     "--out", str(out)]) == 0
        assert time.perf_counter() - t0 < 300
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["resolved_config"]["moe"]["n_replicas"] == 8
        assert manifest["resolved_config"]["train"]["alpha"] == 0.01

    def test_f32_mode(self, tmp_path):
        config = write_config(tmp_path, {"train": {"steps": 10, "eval_tokens": 300}})
        pre = tmp_path / "pre32"
        assert main(["pretrain", "--config", str(config), "--out", str(pre), "--f32"]) == 0
        out = tmp_path / "tune32"
        # the base's dtype is the tune's: tune takes no --f32
        assert main(["tune", "--config", str(config), "--base", str(pre / "base.ckpt"),
                     "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["dtype"] == "f32"


class TestBenchCommand:
    def test_verdict_precedes_timings(self, capsys):
        code = main(["bench-dispatch", "--tokens", "128", "--token-dim", "16",
                     "--hidden", "32", "--replicas", "2", "--granularity", "2"])
        assert code == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == "equivalence: identical"
        assert any("speedup" in l for l in lines[1:])

    def test_single_token(self, capsys):
        code = main(["bench-dispatch", "--tokens", "1", "--token-dim", "8",
                     "--hidden", "16", "--replicas", "2", "--granularity", "2"])
        assert code == 0
        assert "equivalence: identical" in capsys.readouterr().out

    def test_f32_on_two_threads(self, capsys, monkeypatch):
        # 300 tokens at this shape make several chunks, so the pool runs them
        chunks = []
        real = moeforge.moe.row_blocks

        def recording(trace, max_rows=None):
            chunks.append(real(trace, max_rows))
            return chunks[-1]

        monkeypatch.setattr(moeforge.moe, "row_blocks", recording)
        code = main(["bench-dispatch", "--f32", "--threads", "2", "--tokens", "300", "--token-dim", "64",
                     "--hidden", "256", "--replicas", "4", "--granularity", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "equivalence: identical"
        assert "(threads=2)" in out
        assert len(chunks[0]) > 1

    @pytest.mark.parametrize("tokens", ["0", "-3"])
    def test_tokens_below_one_rejected(self, capsys, tokens):
        # an empty batch has no throughput to report
        assert main(["bench-dispatch", "--tokens", tokens, "--token-dim", "8", "--hidden", "16"]) == 2
        captured = capsys.readouterr()
        assert f"config error: --tokens must be >= 1, got {tokens}" in captured.err
        assert "tokens/s" not in captured.out

    def test_mismatch_exits_nonzero_without_timings(self, capsys, monkeypatch):
        # correctness outranks speed: a disagreement must fail before timing output
        real = moeforge.moe.dispatch_batch

        def corrupted(layer, tokens, threads=1):
            out, trace = real(layer, tokens, threads)
            if out.size:
                out = out.copy()
                out[0, 0] += 1.0
            return out, trace

        monkeypatch.setattr(moeforge.cli, "dispatch_batch", corrupted)
        code = main(["bench-dispatch", "--tokens", "16", "--token-dim", "4",
                     "--hidden", "8", "--replicas", "2", "--granularity", "2"])
        assert code == 1
        captured = capsys.readouterr()
        assert "MISMATCH" in captured.out
        assert "speedup" not in captured.out


class TestSplitInspectCommand:
    def test_on_dense_toy_checkpoint(self, tmp_path, capsys):
        _, out_dir, _ = run_pretrain(tmp_path)
        code = main(["split-inspect", "--ckpt", str(out_dir / "base.ckpt"),
                     "--granularity", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "expert 0" in out and "expert 1" in out
        residual = float(out.strip().splitlines()[-1].split(":")[-1])
        assert residual <= 1e-12

    def test_raw_ffn_file_rejected(self, tmp_path, capsys, rng):
        # an FFN container exists only nested in a toy model file
        from moeforge.serialize import _dump_ffn
        from conftest import random_ffn
        path = tmp_path / "ffn.bin"
        with open(path, "wb") as f:
            _dump_ffn(f, random_ffn(rng, 4, 8))
        assert main(["split-inspect", "--ckpt", str(path), "--granularity", "4"]) == 2
        assert "bad magic b'MFFN'" in capsys.readouterr().err

    def test_indivisible_exits_2(self, tmp_path):
        path = tmp_path / "toy.ckpt"
        save_toy_model(path, init_toy_model(4, 9, seed=0))
        assert main(["split-inspect", "--ckpt", str(path), "--granularity", "2"]) == 2


def _zero_dim_checkpoint(tmp_path):
    import struct
    from moeforge.serialize import FORMAT_VERSION, MAGIC_FFN, MAGIC_TOY

    blob = MAGIC_FFN + struct.pack("<5I", FORMAT_VERSION, 0, 0, 0, 0)
    path = tmp_path / "zero.ckpt"
    path.write_bytes(MAGIC_TOY + struct.pack("<4I", FORMAT_VERSION, 0, 0, 0)
                     + struct.pack("<Q", len(blob)) + blob)
    return path


# Zero sizes are rejected where they enter, as config or input errors, and
# never reach the model as a ShapeError (exit 6, internal error).
@pytest.mark.parametrize("argv,message", [
    (lambda tmp: ["pretrain", "--config", str(write_config(tmp, {"model": {"hidden_dim": 0}})),
                  "--out", str(tmp / "o")], "config error: "),
    (lambda tmp: ["pretrain", "--config", str(write_config(tmp, {"task": {"token_dim": 0, "noise_std": 0}})),
                  "--out", str(tmp / "o")], "config error: "),
    (lambda tmp: ["gradcheck", "--sizes", "4x0x2x2"], "config error: "),
    (lambda tmp: ["bench-dispatch", "--tokens", "4", "--token-dim", "0"], "config error: "),
    (lambda tmp: ["bench-dispatch", "--tokens", "4", "--hidden", "0"], "config error: "),
    (lambda tmp: ["split-inspect", "--ckpt", str(_zero_dim_checkpoint(tmp)), "--granularity", "2"],
     "input error: invalid MFFN block"),
])
def test_zero_sizes_are_input_errors_not_internal_ones(tmp_path, capsys, argv, message):
    assert main(argv(tmp_path)) == 2
    assert capsys.readouterr().err.startswith(message)


# A directory where a file belongs, or a file where the output directory belongs, is an input
# error naming the path (exit 2), not a traceback
@pytest.mark.parametrize("slot", ["--config", "--base", "--ckpt", "--trace", "--out"])
def test_unusable_path_exits_2_naming_it(tmp_path, capsys, slot):
    config = str(write_config(tmp_path))
    directory = tmp_path / "a_directory"
    directory.mkdir()
    taken = tmp_path / "a_file"
    taken.write_text("")
    out = str(tmp_path / "o")
    argv = {
        "--config": ["pretrain", "--config", str(directory), "--out", out],
        "--base": ["tune", "--config", config, "--base", str(directory), "--out", out],
        "--ckpt": ["split-inspect", "--ckpt", str(directory), "--granularity", "2"],
        "--trace": ["analyze", "--trace", str(directory), "--out", out],
        "--out": ["pretrain", "--config", config, "--out", str(taken)],
    }[slot]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and str(taken if slot == "--out" else directory) in err


# The manifest is written last: a run that fails part-way leaves no manifest.json.
@pytest.mark.parametrize("command", ["pretrain", "tune", "ablate", "analyze"])
def test_failed_output_write_leaves_no_manifest(tmp_path, capsys, monkeypatch, command):
    code, pre_dir, config = run_pretrain(tmp_path, config=write_config(tmp_path, {"train": {"steps": 5}}))
    assert code == 0
    base, out = str(pre_dir / "base.ckpt"), str(tmp_path / "o")
    if command == "analyze":
        assert main(["tune", "--config", str(config), "--base", base, "--out", str(tmp_path / "t")]) == 0
    real = moeforge.cli.write_summary_json

    def failing(path, *content):  # every run writes a JSON or CSV output besides its manifest
        if path.name != "manifest.json":
            raise OSError(28, "No space left on device", str(path))
        real(path, *content)

    monkeypatch.setattr(moeforge.cli, "write_summary_json", failing)
    monkeypatch.setattr(moeforge.cli, "_write_rows_csv", failing)
    argv = {
        "pretrain": ["pretrain", "--config", str(config), "--out", out],
        "tune": ["tune", "--config", str(config), "--base", base, "--out", out],
        "ablate": ["ablate", "--config", str(config), "--base", base, "--out", out],
        "analyze": ["analyze", "--trace", str(tmp_path / "t" / "trace.jsonl"), "--out", out],
    }[command]
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("input error: ")
    assert not (tmp_path / "o" / "manifest.json").exists()


def test_module_entrypoint_runs():
    proc = subprocess.run([sys.executable, "-m", "moeforge", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "moeforge" in proc.stdout


# A constructor's own check names the config file and the section that fed it, before any work.
@pytest.mark.parametrize("command, section, content, message", [
    ("pretrain", "train", {"batch": 0}, "TrainConfig: batch must be >= 1, got 0"),
    ("pretrain", "train", {"eval_tokens": 0}, "TrainConfig: eval_tokens must be >= 1, got 0"),
    ("pretrain", "train", {"probe_tokens": 0}, "TrainConfig: probe_tokens must be >= 1, got 0"),
    ("pretrain", "task", {"n_patterns": 0}, "make_task: n_patterns must be >= 1, got 0"),
    ("pretrain", "task", {"token_dim": 0}, "make_task: token_dim must be >= 1, got 0"),
    ("pretrain", "model", {"hidden_dim": 0}, "init_ffn: hidden_dim must be >= 1, got 0"),
    ("pretrain", "model", {"activation": "tanh"}, "unknown activation 'tanh'"),
    ("pretrain", "task", {"noise_std": -1}, "SyntheticTask: noise_std must be >= 0, got -1"),
    # at token_dim 1 every center is +-center_scale, so two of three coincide whatever the scale
    ("pretrain", "task", {"token_dim": 1, "center_scale": 1e6},
     "make_task: 128 draws never placed every two centers 4 * noise_std = 0.4 apart; "
     "the best draw's closest two were 0 apart\n"),
    ("tune", "moe", {"granularity": 5}, "MoeConfig: hidden_dim 12 not divisible by granularity 5"),
    ("tune", "moe", {"seed": -1}, "MoeConfig: seed must be an unsigned 64-bit integer, got -1"),
    ("tune", "moe", {"n_replicas": 0}, "MoeConfig: n_replicas must be >= 1, got 0"),
    ("tune", "train", {"seed": -1}, "TrainConfig: seed must be an unsigned 64-bit integer, got -1"),
], ids=["train", "train-eval_tokens", "train-probe_tokens", "task-n_patterns", "task-token_dim",
        "model-hidden_dim", "model", "task", "task-placement", "moe", "moe-seed", "moe-n_replicas", "train-seed"])
def test_constructor_error_names_file_and_section(tmp_path, capsys, command, section, content, message):
    config = write_config(tmp_path, {section: content}, name="bad.json")
    argv = [command, "--config", str(config), "--out", str(tmp_path / "o")]
    if command == "tune":
        code, pre_dir, _ = run_pretrain(tmp_path)
        assert code == 0
        argv += ["--base", str(pre_dir / "base.ckpt")]
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"config error: {config}: section '{section}': {message}")
    assert not (tmp_path / "o").exists()


# A 0-step run takes no training step, so only its final evaluation can diverge: it gets the
# step's check (exit 3) and writes no output. Far apart, the centers of the default patterns
# have a distance that overflows float64, which the task rejects before --out exists (exit 2).
_FAR_TASK = "config error: {config}: section 'task': SyntheticTask: the distance of centers 0,1 overflows float64\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command, center_scale, code, message", [
    ("pretrain", 1e5, 3, "divergence: eval loss 2.182e+09 exceeded 1e+06 at step 0\n"),
    ("pretrain", 1e200, 2, _FAR_TASK),
    ("tune", 1e5, 3, "divergence: eval loss 5.76e+08 exceeded 1e+06 at step 0\n"),
    ("tune", 1e200, 2, _FAR_TASK),
])
def test_zero_step_run_with_a_diverged_evaluation(tmp_path, capsys, command, center_scale, code, message):
    config = write_config(tmp_path, {"task": {"center_scale": center_scale}, "train": {"steps": 0}}, name="far.json")
    argv = [command, "--config", str(config), "--out", str(tmp_path / "o")]
    if command == "tune":
        assert run_pretrain(tmp_path)[0] == 0
        argv += ["--base", str(tmp_path / "run_pre" / "base.ckpt")]
    capsys.readouterr()
    assert main(argv) == code
    assert capsys.readouterr().err == message.format(config=config)
    assert not (tmp_path / "o").exists() if code == 2 else list((tmp_path / "o").iterdir()) == []


# One pattern has no pair of centers, so at center_scale 1e200 only the loss overflows: a 0-step
# pretrain's final evaluation is non-finite (exit 3), and so is a tune's base evaluation (exit 4).
# Each run prints its verdict line alone, no numpy warning before it.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("activation", ["relu", "gelu"])
@pytest.mark.parametrize("command, code, message", [
    ("pretrain", 3, "divergence: eval loss became non-finite at step 0\n"),
    ("tune", 4, "identity violation: step-0 eval mse inf differs from base inf by nan (tolerance 1.0e-09)\n"),
])
def test_zero_step_run_of_one_far_pattern(tmp_path, capsys, command, code, message, activation):
    model = {"activation": activation}
    config = write_config(tmp_path, {"task": {"n_patterns": 1, "center_scale": 1e200}, "model": model,
                                     "train": {"steps": 0}}, name="far.json")
    argv = [command, "--config", str(config), "--out", str(tmp_path / "o")]
    if command == "tune":
        assert run_pretrain(tmp_path, config=write_config(tmp_path, {"model": model}))[0] == 0
        argv += ["--base", str(tmp_path / "run_pre" / "base.ckpt")]
    capsys.readouterr()
    assert main(argv) == code
    assert capsys.readouterr().err == message
    assert list((tmp_path / "o").iterdir()) == []


# A bad flag value is a config error naming the flag, raised before any work.
@pytest.mark.parametrize("argv, message", [
    (["bench-dispatch", "--tokens", "4", "--top-k", "99"], "--top-k must be in [0, 16] (0 tracks --granularity), got 99"),
    (["bench-dispatch", "--tokens", "4", "--hidden", "3"], "--hidden 3 not divisible by --granularity 2"),
    (["bench-dispatch", "--tokens", "4", "--seed", "-5"], "--seed must be an unsigned 64-bit integer, got -5"),
    (["gradcheck", "--seed", "-1"], "--seed must be an unsigned 64-bit integer, got -1"),
    (["gradcheck", "--seed", str(2**64)], f"--seed must be an unsigned 64-bit integer, got {2**64}"),
    (["gradcheck", "--alpha", "nan"], "--alpha must be finite, got nan"),
    (["pretrain", "--seed", "-1"], "--seed must be an unsigned 64-bit integer, got -1"),
    (["tune", "--threads", "0"], "--threads must be >= 1, got 0"),
    (["split-inspect", "--granularity", "2", "--seed", "-1"], "--seed must be an unsigned 64-bit integer, got -1"),
    (["split-inspect", "--granularity", "3"],
     "--granularity 3: split_ffn: hidden_dim 8 not divisible by granularity 3"),
], ids=["bench-top-k", "bench-hidden", "bench-seed", "gradcheck-seed", "gradcheck-seed-2^64", "gradcheck-alpha",
        "pretrain-seed", "tune-threads", "split-inspect-seed", "split-inspect-granularity"])
def test_bad_flag_value_names_the_flag(tmp_path, capsys, argv, message):
    if argv[0] in ("pretrain", "tune"):
        argv = argv + ["--config", str(write_config(tmp_path)), "--out", str(tmp_path / "o")]
    if argv[0] == "tune":
        save_toy_model(tmp_path / "base.ckpt", init_toy_model(6, 12, seed=0))
        argv = argv + ["--base", str(tmp_path / "base.ckpt")]
    if argv[0] == "split-inspect":
        save_toy_model(tmp_path / "toy.ckpt", init_toy_model(4, 8, seed=0))
        argv = argv + ["--ckpt", str(tmp_path / "toy.ckpt")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: {message}\n"
    assert captured.out == ""
    assert not (tmp_path / "o").exists()


# --seed, --threads and --f32 go only to the commands that use them; tune and ablate
# run in their base checkpoint's dtype
@pytest.mark.parametrize("argv, flag", [
    (["gradcheck"], ["--threads", "4"]),
    (["gradcheck"], ["--f32"]),
    (["split-inspect", "--ckpt", "c", "--granularity", "2"], ["--threads", "9"]),
    (["split-inspect", "--ckpt", "c", "--granularity", "2"], ["--f32"]),
    (["analyze", "--trace", "t", "--out", "o"], ["--seed", "1"]),
    (["analyze", "--trace", "t", "--out", "o"], ["--threads", "3"]),
    (["analyze", "--trace", "t", "--out", "o"], ["--f32"]),
    (["tune", "--config", "c", "--base", "b", "--out", "o"], ["--f32"]),
    (["ablate", "--config", "c", "--base", "b", "--out", "o"], ["--f32"]),
], ids=lambda v: "-".join(v) if v[0].startswith("--") else v[0])
def test_unused_flags_are_rejected(capsys, argv, flag):
    build_parser().parse_args(argv)
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args(argv + flag)
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def _reject_constant(name):
    raise ValueError(f"metrics.json holds {name}, which is not strict JSON")


# Repeated values weight the draws toward runs that train; the numbers reach the finite extremes.
_SIZE = st.integers(1, 4)
_TYPED_CONFIGS = st.fixed_dictionaries({
    "task": st.fixed_dictionaries({
        "n_patterns": _SIZE, "token_dim": _SIZE, "seed": st.integers(0, 3),
        "noise_std": st.sampled_from([0.1, 0.1, 0.1, 0.0, 0.5, -1.0]),
        "center_scale": st.sampled_from([3.0, 3.0, 3.0, -3.0, 0.0, 1e5, 1e200]),
    }),
    "model": st.fixed_dictionaries({"hidden_dim": _SIZE, "activation": st.sampled_from(["relu", "gelu"])}),
    "moe": st.fixed_dictionaries({"n_replicas": _SIZE, "granularity": _SIZE}),
    "train": st.fixed_dictionaries({
        "lr": st.sampled_from([0.05, 0.05, 0.0, 1.0, 1e300]),
        "lr_head": st.sampled_from([None, None, 0.0, 1e300]),
        "alpha": st.sampled_from([0.01, 0.01, 0.0, 1e300]),
        "optimizer": st.sampled_from(["sgd", "adamw"]),
        "steps": st.integers(0, 3), "batch": _SIZE,
        "eval_tokens": st.integers(1, 24), "probe_tokens": st.integers(1, 8),
    }),
})
_SIZE_KEYS = [("task", "n_patterns"), ("task", "token_dim"), ("model", "hidden_dim"), ("moe", "n_replicas"),
              ("moe", "granularity"), ("train", "batch"), ("train", "eval_tokens"), ("train", "probe_tokens")]


@st.composite
def _typed_configs(draw):
    """A config of the schema's types; in half the draws one size is -1 or 0."""
    cfg = draw(_TYPED_CONFIGS)
    if draw(st.booleans()):
        section, key = draw(st.sampled_from(_SIZE_KEYS))
        cfg[section][key] = draw(st.integers(-1, 0))
    return cfg


# Whatever a config of the schema's types holds, a run ends in a documented exit code (never 1,
# an uncaught error, nor 6, an internal one), and a finished run's metrics are strict JSON.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(cfg=_typed_configs())
def test_any_typed_config_exits_with_a_documented_code(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        config = tmp / "c.json"
        config.write_text(json.dumps(cfg))
        pre = main(["pretrain", "--config", str(config), "--out", str(tmp / "pre")])
        tune = main(["tune", "--config", str(config), "--base", str(tmp / "pre" / "base.ckpt"),
                     "--out", str(tmp / "tune")])
        assert pre in (0, 2, 3) and tune in (0, 2, 3, 4)
        for code, out in ((pre, "pre"), (tune, "tune")):
            if code == 0:
                json.loads((tmp / out / "metrics.json").read_text(), parse_constant=_reject_constant)
