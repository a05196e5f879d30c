"""The benchmark's tracer rebinds names in moeforge's modules; each must exist.

``perfbench/tracing.py`` times layer boundaries by replacing attributes such
as ``harness.ffn_backward_batch`` with wrappers. A refactor that drops one of
those imports would make ``perfbench/run.py --trace 1`` fail at install, far
from the change that caused it; this test names it in the suite instead.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{module.__name__}.{attr}" for module, attr, _ in tracing.WRAPS if not hasattr(module, attr)]
    assert tracing.WRAPS and missing == []
