"""The benchmark's tune step clock sees one batch draw per training step.

``perfbench/run.py`` times each step of a tune by rebinding
``harness.generate_batch`` and stamping every call: a batch-sized call
starts a step, and the next call (the next step's batch or the final
evaluation's) ends it. If the training loop stopped drawing its batches
through that module global, the benchmark would silently fall back to a
tune's mean step time; this test names the change in the suite instead.
"""

import moeforge.harness as harness
from moeforge.moe import MoeConfig


def test_every_training_step_draws_one_batch_through_the_module_global(monkeypatch):
    sizes = []
    real = harness.generate_batch

    def counting(task, rng, size):
        sizes.append(size)
        return real(task, rng, size)

    monkeypatch.setattr(harness, "generate_batch", counting)
    task = harness.make_task(3, 6, seed=1)
    cfg = harness.TrainConfig(steps=5, batch=16, eval_tokens=100, probe_tokens=32)
    base = harness.pretrain(task, harness.init_toy_model(6, 12, seed=2), cfg)
    # the probe set, one batch per step, then the final evaluation
    assert sizes == [32] + [16] * 5 + [100]
    sizes.clear()
    harness.moe_tune(task, base.model, MoeConfig(token_dim=6, hidden_dim=12, n_replicas=2), cfg)
    # the base and step-0 evaluations come first
    assert sizes == [100, 100, 32] + [16] * 5 + [100]
