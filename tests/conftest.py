import numpy as np
import pytest

from moeforge import FfnParams, MoeConfig, expand_supernet, make_rng

# populated by test_acceptance.report(); echoed after the run so the
# per-criterion lines survive pytest's output capture
acceptance_lines: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


def random_ffn(rng, token_dim, hidden_dim, activation="relu", dtype=np.float64):
    """Fan-in scaled weights with jittered biases so relu regions are nontrivial.

    The draws are float64 whatever the dtype, so a float32 FFN rounds the
    float64 one drawn from the same generator state.
    """
    w1 = rng.normal(size=(hidden_dim, token_dim)) / np.sqrt(token_dim)
    b1 = 0.1 * rng.normal(size=hidden_dim)
    w2 = rng.normal(size=(token_dim, hidden_dim)) / np.sqrt(hidden_dim)
    b2 = 0.1 * rng.normal(size=token_dim)
    return FfnParams(*(a.astype(dtype) for a in (w1, b1, w2, b2)), activation)


def random_layer(rng, token_dim=8, hidden_dim=16, n_replicas=3, granularity=2,
                 top_k=None, seed=0, perturb=0.3):
    """Expanded supernet, optionally knocked off its identity-preserving start."""
    base = random_ffn(rng, token_dim, hidden_dim)
    cfg = MoeConfig(token_dim=token_dim, hidden_dim=hidden_dim, n_replicas=n_replicas,
                    granularity=granularity, top_k=top_k, seed=seed)
    layer = expand_supernet(base, cfg)
    if perturb:
        for p in layer.experts:
            p.w1 += perturb * rng.normal(size=p.w1.shape)
            p.b1 += perturb * rng.normal(size=p.b1.shape)
            p.w2 += perturb * rng.normal(size=p.w2.shape)
            p.b2 += perturb * rng.normal(size=p.b2.shape)
        layer.router.w_r = layer.router.w_r + perturb * rng.normal(size=layer.router.w_r.shape)
        layer.router.b_r = layer.router.b_r + perturb * rng.normal(size=layer.router.b_r.shape)
    return layer, base, cfg


@pytest.fixture
def rng():
    return make_rng(20240731)
