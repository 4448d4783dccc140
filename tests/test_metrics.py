"""Statistics and rendering tests; the exact Mann-Whitney path is checked
against an independent pair-counting enumeration oracle."""

import json
import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from prism.errors import ValidationError
from prism.metrics import (
    CSV_COLUMNS,
    _midranks,
    MetricsReport,
    format_eng_index,
    mann_whitney_u,
    render_report,
)
from prism.redaction import LeakReport


def oracle_exact_p(a, b):
    """Brute-force permutation p using direct pair counting (no ranks)."""

    def u_of(x, y):
        return sum((xi > yi) + 0.5 * (xi == yi) for xi in x for yi in y)

    pooled = list(a) + list(b)
    n1, n2 = len(a), len(b)
    u_obs = u_of(a, b)
    u_min = min(u_obs, n1 * n2 - u_obs)
    n_le = n_ge = total = 0
    for idx in combinations(range(len(pooled)), n1):
        group_a = [pooled[i] for i in idx]
        group_b = [pooled[i] for i in range(len(pooled)) if i not in idx]
        u = u_of(group_a, group_b)
        total += 1
        n_le += u <= u_min + 1e-9
        n_ge += u >= n1 * n2 - u_min - 1e-9
    return min(1.0, (n_le + n_ge) / total)


class TestMannWhitney:
    def test_disjoint_samples_exact(self):
        u, p = mann_whitney_u([1, 2, 3], [4, 5, 6])
        assert u == 0.0
        assert p == pytest.approx(0.1, abs=1e-12)

    def test_identical_samples_p_near_one(self):
        u, p = mann_whitney_u([1, 2, 3], [1, 2, 3])
        assert p == pytest.approx(1.0)

    def test_permuted_sample_gives_central_u(self):
        u, _ = mann_whitney_u([1, 2, 3], [3, 1, 2])
        assert u == pytest.approx(3 * 3 / 2)

    def test_exact_matches_oracle_over_small_sizes(self):
        rng = np.random.default_rng(17)
        for n1 in range(1, 5):
            for n2 in range(1, 5):
                for _ in range(4):
                    a = rng.integers(0, 5, size=n1).astype(float).tolist()
                    b = rng.integers(0, 5, size=n2).astype(float).tolist()
                    _, p = mann_whitney_u(a, b)
                    assert p == pytest.approx(oracle_exact_p(a, b), abs=1e-12), (a, b)

    def test_exact_matches_scipy_without_ties(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            n1, n2 = rng.integers(2, 8, size=2)
            pool = rng.permutation(100)[: n1 + n2].astype(float)
            a, b = pool[:n1].tolist(), pool[n1:].tolist()
            u, p = mann_whitney_u(a, b)
            ref = scipy_stats.mannwhitneyu(a, b, alternative="two-sided", method="exact")
            assert u == pytest.approx(float(ref.statistic))
            assert p == pytest.approx(float(ref.pvalue), abs=1e-12)

    def test_normal_approximation_matches_scipy(self):
        rng = np.random.default_rng(31)
        a = rng.normal(0.0, 1.0, size=60).tolist()
        b = rng.normal(0.4, 1.0, size=75).tolist()
        u, p = mann_whitney_u(a, b)
        ref = scipy_stats.mannwhitneyu(
            a, b, alternative="two-sided", method="asymptotic", use_continuity=True
        )
        assert u == pytest.approx(float(ref.statistic))
        assert p == pytest.approx(float(ref.pvalue), rel=1e-9)

    def test_large_separated_samples_significant(self):
        a = list(np.linspace(0, 1, 50))
        b = list(np.linspace(2, 3, 50))
        _, p = mann_whitney_u(a, b)
        assert p < 1e-10

    def test_all_equal_values_degenerate(self):
        _, p = mann_whitney_u([2.0] * 20, [2.0] * 25)
        assert p == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            mann_whitney_u([], [1.0])


def make_report(**overrides):
    base = dict(
        arm="adaptive",
        seed=3,
        scenario_name="t",
        horizon_weeks=19,
        w_pre=8,
        w_post=11,
        adherence_pre=0.4,
        adherence_post=0.6,
        eng_index=1.33,
        weekly_scores_pre=[0.1, 0.2],
        weekly_scores_post=[0.2, 0.3],
        reassignments=12,
        violations=0,
        leak=LeakReport(n_samples=100, n_hits=0, leak_rate=0.0, hit_examples_by_type={}),
        weight_delta_mean=-2.1,
        decisions=1000,
        governance={"restoration_attempts": 5, "audit_entries": 5},
        assistant={"drafts": 3},
    )
    base.update(overrides)
    return MetricsReport(**base)


class TestRendering:
    def test_eng_index_cell_format(self):
        assert format_eng_index(1.33) == "1.33 (+33%)"
        assert format_eng_index(0.90) == "0.90 (-10%)"

    def test_csv_column_order(self):
        rendered = render_report(make_report())
        header = rendered["csv"].splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)
        row = rendered["csv"].splitlines()[1].split(",")
        assert row[0] == "adaptive"
        assert row[1] == "0.4000"

    def test_json_round_trip_identity(self):
        report = make_report()
        clone = MetricsReport.from_json(report.to_json())
        assert clone == report
        assert json.loads(clone.to_json()) == json.loads(report.to_json())


def reference_midranks(values: np.ndarray) -> np.ndarray:
    """Fractional ranks from a loop over the tie runs of the sorted values."""
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(values.size, dtype=float)
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


# Few distinct values, so most arrays hold long tie runs; signed zeros and
# NaN too.
@given(values=st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.5, -3.0, math.nan]) | st.floats(), max_size=60))
def test_midranks_equal_loop_reference(values):
    array = np.array(values, dtype=float)
    assert _midranks(array).tobytes() == reference_midranks(array).tobytes()
