"""Routing-trace statistics: co-selection, specialization, search space.

Everything here is pure aggregation over an immutable RoutingTrace; CSV and
JSON writers live at the bottom so external plotters can pick the numbers up.
A trace's expert loading is :func:`moeforge.moe.assignment_fractions`, the
balance loss's F term, written out by :func:`write_loading_csv`.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .moe import RoutingTrace
from .numkernel import ShapeError


@dataclass
class CoSelectionMatrix:
    """Symmetric zero-diagonal matrix of normalized expert-pair co-selection."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.ndim != 2 or self.values.shape[0] != self.values.shape[1]:
            raise ShapeError("CoSelectionMatrix", self.values.shape)

    @property
    def size(self) -> int:
        return self.values.shape[0]


def co_selection(trace: RoutingTrace, normalize: str = "max") -> CoSelectionMatrix:
    """Count unordered expert pairs selected together, symmetrize, normalize.

    normalize="max" divides by the largest pair count (heat-map semantics,
    the default); normalize="tokens" divides by the token count instead.
    With top_k < 2 no pairs exist and the matrix is zero.
    """
    if normalize not in ("max", "tokens"):
        raise ValueError(f"co_selection: unknown normalization {normalize!r}")
    n = trace.n_experts
    counts = np.zeros((n, n), dtype=np.float64)
    sel = trace.selected
    for a, b in combinations(range(trace.top_k), 2):
        np.add.at(counts, (sel[:, a], sel[:, b]), 1.0)
    counts = counts + counts.T
    if normalize == "max":
        peak = counts.max() if counts.size else 0.0
        values = counts / peak if peak > 0 else counts
    else:
        values = counts / max(trace.n_tokens, 1)
    return CoSelectionMatrix(values)


def _entropy(counter: Counter, total: int) -> float:
    return -sum((c / total) * math.log(c / total) for c in counter.values())


def pattern_specialization(trace: RoutingTrace, labels) -> float:
    """Normalized mutual information between token label and selected expert set.

    Returns a value in [0, 1]: 0 when routing ignores the labels, 1 when the
    label fully determines the expert set and vice versa. Normalization is
    MI over the arithmetic mean of the two entropies; the degenerate case of
    both sides constant is defined as 1.0.
    """
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != trace.n_tokens:
        raise ShapeError("pattern_specialization", labels.shape, (trace.n_tokens,))
    if trace.n_tokens == 0:
        raise ValueError("pattern_specialization: empty trace")
    sets = [tuple(int(i) for i in row) for row in trace.selected]
    pairs = Counter(zip(labels.tolist(), sets))
    label_counts = Counter(labels.tolist())
    set_counts = Counter(sets)
    t = trace.n_tokens
    h_label = _entropy(label_counts, t)
    h_set = _entropy(set_counts, t)
    if h_label == 0.0 and h_set == 0.0:
        return 1.0
    mi = 0.0
    for (lab, s), c in pairs.items():
        p_xy = c / t
        mi += p_xy * math.log(p_xy * t * t / (label_counts[lab] * set_counts[s]))
    nmi = 2.0 * mi / (h_label + h_set)
    return float(min(max(nmi, 0.0), 1.0))


def mean_partner_count(matrix: CoSelectionMatrix) -> float:
    """Average number of distinct partners per expert: the experts it was ever selected with."""
    partners = (matrix.values > 0).sum(axis=1)
    return float(partners.mean()) if matrix.size else 0.0


def search_space_size(n: int, top_k: int, layers: int) -> int:
    """Number of distinct activation patterns: C(n, top_k) ** layers, exact."""
    if n < 1 or top_k < 1 or top_k > n:
        raise ValueError(f"search_space_size: need 1 <= top_k <= n, got top_k={top_k}, n={n}")
    if layers < 1:
        raise ValueError(f"search_space_size: layers must be >= 1, got {layers}")
    return math.comb(n, top_k) ** layers


def write_matrix_csv(path, matrix: CoSelectionMatrix) -> None:
    """CSV with expert indices as the header row, one matrix row per line."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["expert"] + [str(i) for i in range(matrix.size)])
        for i, row in enumerate(matrix.values):
            writer.writerow([str(i)] + [repr(float(v)) for v in row])


def write_loading_csv(path, fractions: np.ndarray) -> None:
    """CSV of per-expert assignment fractions: expert indices, then one row of shares."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow([str(i) for i in range(len(fractions))])
        writer.writerow([repr(float(v)) for v in fractions])


def write_summary_json(path, summary: dict) -> None:
    with open(path, "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
