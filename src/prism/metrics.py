"""Shared statistics and report rendering.

Adherence and engagement formulas live in :mod:`prism.features`; this
module adds the rank-sum significance test used for arm comparisons and
the serialization of run-level metric reports to JSON and CSV. The text
table of two arms is :meth:`prism.simulator.experiment.ComparisonTable.render_text`.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .records import Record
from .redaction import LeakReport

_EXACT_MAX_PER_SIDE = 7
_U_TOL = 1e-9


def _midranks(values: np.ndarray) -> np.ndarray:
    """Fractional ranks (ties get the mean of their rank range).

    Sorted positions ``i..j`` of one tie run all get ``(i + j) / 2 + 1``."""
    order = np.argsort(values, kind="mergesort")
    ordered = values[order]
    # First sorted position and length of each run of equal values.
    first = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))[: values.size]
    lengths = np.diff(np.append(first, values.size))
    ranks = np.empty(values.size, dtype=float)
    ranks[order] = np.repeat((2 * first + lengths - 1) / 2.0 + 1.0, lengths)
    return ranks


def _u_statistic(pooled: np.ndarray, n1: int) -> float:
    ranks = _midranks(pooled)
    r1 = float(ranks[:n1].sum())
    return r1 - n1 * (n1 + 1) / 2.0


def _exact_two_sided_p(pooled: np.ndarray, n1: int, u_obs: float) -> float:
    """Permutation-exact two-sided p over all C(n, n1) group splits.

    Handles ties because it enumerates splits of the observed values
    rather than assuming a continuous null distribution.
    """
    n = pooled.size
    n2 = n - n1
    u_min = min(u_obs, n1 * n2 - u_obs)
    n_le = n_ge = total = 0
    for idx in combinations(range(n), n1):
        mask = np.zeros(n, dtype=bool)
        mask[list(idx)] = True
        reordered = np.concatenate([pooled[mask], pooled[~mask]])
        u1 = _u_statistic(reordered, n1)
        total += 1
        if u1 <= u_min + _U_TOL:
            n_le += 1
        if u1 >= n1 * n2 - u_min - _U_TOL:
            n_ge += 1
    return min(1.0, (n_le + n_ge) / total)


def _tie_corrected_sd(pooled: np.ndarray, n1: int, n2: int) -> float:
    n = n1 + n2
    _, counts = np.unique(pooled, return_counts=True)
    tie_term = float(((counts**3) - counts).sum())
    variance = n1 * n2 / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    return math.sqrt(max(0.0, variance))


def mann_whitney_u(sample_a: Sequence[float], sample_b: Sequence[float]) -> tuple[float, float]:
    """Rank-sum U for sample_a plus a two-sided p value.

    Exact enumeration when both sides have at most 7 observations;
    otherwise the normal approximation with tie correction and a 0.5
    continuity correction.
    """
    a = np.asarray(sample_a, dtype=float)
    b = np.asarray(sample_b, dtype=float)
    if a.size == 0 or b.size == 0:
        raise ValidationError("both samples must be non-empty")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValidationError("samples must be finite")
    n1, n2 = a.size, b.size
    pooled = np.concatenate([a, b])
    u1 = _u_statistic(pooled, n1)

    if n1 <= _EXACT_MAX_PER_SIDE and n2 <= _EXACT_MAX_PER_SIDE:
        return u1, _exact_two_sided_p(pooled, n1, u1)

    sd = _tie_corrected_sd(pooled, n1, n2)
    if sd == 0.0:
        return u1, 1.0
    mu = n1 * n2 / 2.0
    z = (abs(u1 - mu) - 0.5) / sd
    p = min(1.0, math.erfc(max(0.0, z) / math.sqrt(2.0)))
    return u1, p


# ---------------------------------------------------------------------------
# Metrics report
# ---------------------------------------------------------------------------

CSV_COLUMNS = (
    "arm",
    "adh_pre",
    "adh_post",
    "eng_index",
    "reassignments",
    "violations",
    "leak_rate",
    "weight_delta",
)


@dataclass
class MetricsReport(Record):
    """Per-arm outcome summary for one simulated run."""

    arm: str
    seed: int
    scenario_name: str
    horizon_weeks: int
    w_pre: int
    w_post: int
    adherence_pre: float
    adherence_post: float
    eng_index: float
    weekly_scores_pre: list[float]
    weekly_scores_post: list[float]
    reassignments: int
    violations: int
    leak: LeakReport
    weight_delta_mean: float
    decisions: int
    governance: dict = field(default_factory=dict)
    assistant: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "MetricsReport":
        return cls.from_dict(json.loads(text))


def format_eng_index(value: float) -> str:
    """Index with the implied relative change, e.g. ``1.33 (+33%)``."""
    return f"{value:.2f} ({(value - 1.0) * 100:+.0f}%)"


def render_report(report: MetricsReport) -> dict[str, str]:
    """Render a report as JSON and a fixed-column CSV row, with 4 decimals
    for every rate and mean in the row."""
    p = 4
    csv_buf = io.StringIO()
    writer = csv.writer(csv_buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerow(
        [
            report.arm,
            f"{report.adherence_pre:.{p}f}",
            f"{report.adherence_post:.{p}f}",
            f"{report.eng_index:.{p}f}",
            report.reassignments,
            report.violations,
            f"{report.leak.leak_rate:.{p}f}",
            f"{report.weight_delta_mean:.{p}f}",
        ]
    )
    return {"json": report.to_json(), "csv": csv_buf.getvalue()}
