"""The benchmark's tune-toy workload drives ``cli.main`` with argv the parser must take.

``perfbench/run.py`` pretrains a base and tunes it in process, calling
``cli.main`` with ``--config``, ``--seed N``, ``--threads 1``, ``--out`` and,
for the tune, ``--base``. A flag renamed or dropped here would make the
benchmark's set-up fail, far from the change that caused it; this test runs
the workload's own calls against the parser instead, without training.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import moeforge.cli as cli

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


class _Parsed(Exception):
    """Stops the tune operation once its argv is parsed: it would read the tune's outputs next."""


def test_tune_toy_argv_parses(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)  # its dataclasses look their module up there
    spec.loader.exec_module(run)
    monkeypatch.setattr(run, "OUT", tmp_path)
    parsed = []

    def parse_only(argv):
        parsed.append(cli.build_parser().parse_args(argv))
        if parsed[-1].command == "tune":
            raise _Parsed
        return 0

    monkeypatch.setattr(cli, "main", parse_only)
    workload = run.make_workload("tune-toy", 1)
    workload.setup(0)
    with pytest.raises(_Parsed):
        workload.op()
    pre, tune = parsed
    seed = workload.seeds[0]
    assert (pre.command, pre.func) == ("pretrain", cli.cmd_pretrain)
    assert (tune.command, tune.func) == ("tune", cli.cmd_tune)
    for args in (pre, tune):
        assert (args.config, args.seed, args.threads) == (str(workload.config), seed, 1)
    assert pre.f32 is False  # tune runs in its base's dtype
    assert Path(tune.base) == Path(pre.out) / "base.ckpt"
    assert Path(tune.out) != Path(pre.out)
