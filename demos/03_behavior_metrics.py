"""Behavioral metric walkthrough: min-max normalization, user-weighted
adherence, winsorized engagement scores, and the engagement index.

Run:  python demos/03_behavior_metrics.py
"""

import numpy as np

from prism.features import (
    EngagementWeights,
    NormalizationWindow,
    adherence,
    engagement_index,
    engagement_scores,
    normalize,
    weekly_slopes,
)

# ---------------------------------------------------------------------------
# Min-max normalization against a rolling cohort window.
# ---------------------------------------------------------------------------
window = NormalizationWindow(bounds={"daily_kcal": (1200.0, 2800.0)})
for kcal in (1200, 2000, 2800, 4000):
    print(f"kcal {kcal:>4} -> {normalize(kcal, window, 'daily_kcal'):.2f}")

# ---------------------------------------------------------------------------
# Adherence is user-weighted: each user's daily mean counts once, which
# matters whenever users cover different day ranges.
# ---------------------------------------------------------------------------
persistent = [1, 1, 1, 1]
dropout = [0]
print("\nuser-weighted adherence :", adherence([persistent, dropout]))
flat = persistent + dropout
print("day-weighted (for contrast):", sum(flat) / len(flat))

# ---------------------------------------------------------------------------
# Weekly engagement: winsorize counts to the pre-period [5, 95] percentile
# band per action type, rescale, and weight-sum. Scores live in [0, 1).
# ---------------------------------------------------------------------------
rng = np.random.default_rng(7)
pre_counts = rng.poisson((2.0, 3.0, 5.0, 4.0, 1.0), size=(400, 5))
weights = EngagementWeights.from_pre_period(pre_counts)
print("\npre-period p95 per action type:", [round(v, 1) for v in weights.p95])
typical, quiet, loud = engagement_scores([(2, 3, 5, 4, 1), (0, 0, 0, 0, 0), (40, 40, 40, 40, 40)], weights)
print("typical week  :", round(float(typical), 3))
print("quiet week    :", round(float(quiet), 3))
print("loud week     :", round(float(loud), 3), "(clamped)")

# ---------------------------------------------------------------------------
# The engagement index is the post/pre ratio of cohort-level mean scores.
# ---------------------------------------------------------------------------
post_counts = rng.poisson((2.6, 3.9, 6.5, 5.2, 1.3), size=(400, 5))
idx = engagement_index(
    engagement_scores(pre_counts, weights), engagement_scores(post_counts, weights)
)
print(f"\nengagement index: {idx:.2f}  ({(idx - 1) * 100:+.0f}% vs baseline)")

# Disengagement signal: least-squares slope of the trailing weekly scores.
(slope,) = weekly_slopes([[0.1, 0.2, 0.3, 0.4]])
print("slope of (0.10, 0.20, 0.30, 0.40):", float(slope), "per week")
