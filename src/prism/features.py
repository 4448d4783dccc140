"""Learning-view feature construction and behavioral metric formulas.

This module owns the numeric contracts the rest of the pipeline leans
on: min-max normalization against a rolling cohort window, user-weighted
daily adherence, winsorized weekly engagement scores, the post/pre
engagement index, and assembly of the per-user decision context. Nothing
here accepts or emits a raw-identity value; the only handle for a person
is a ``UserToken``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .errors import ValidationError
from .vault import UserToken

GOAL_CATEGORIES = ("weight_loss", "healthy_eating", "maintenance", "fitness")

ACTION_TYPES = ("post", "comment", "reaction", "chat", "session")
DEFAULT_ACTION_WEIGHTS = (0.3, 0.2, 0.1, 0.2, 0.2)

NUMERIC_FEATURE_NAMES = (
    "recent_adherence",
    "recent_engagement",
    "weekly_actions_norm",
    "tenure_norm",
    "cold_start",
)

DAYS_PER_WEEK = 7
DEFAULT_WINDOW_WEEKS = 8
TRAILING_WEEKS = 4

_WEIGHT_SUM_TOL = 1e-12
_RANGE_TOL = 1e-9


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormalizationWindow:
    """Per-feature (min, max) bounds from a rolling cohort-level window."""

    bounds: Mapping[str, tuple[float, float]]
    window_length_weeks: int = DEFAULT_WINDOW_WEEKS

    def __post_init__(self) -> None:
        for feature_id, (lo, hi) in self.bounds.items():
            if not (np.isfinite(lo) and np.isfinite(hi)) or lo > hi:
                raise ValidationError(
                    f"window bounds for {feature_id!r} must be finite with min <= max"
                )


def normalize(x: float, window: NormalizationWindow, feature_id: str) -> float:
    """Min-max scale ``x`` into [0, 1] against the window bounds.

    Out-of-window inputs clamp to the boundary; a degenerate window
    (min == max) maps everything to the uninformative midpoint 0.5.
    """
    if feature_id not in window.bounds:
        raise ValidationError(f"unknown feature id: {feature_id!r}")
    lo, hi = window.bounds[feature_id]
    if hi == lo:
        return 0.5
    scaled = (float(x) - lo) / (hi - lo)
    return min(1.0, max(0.0, scaled))


# ---------------------------------------------------------------------------
# Adherence
# ---------------------------------------------------------------------------


def adherence(series: Iterable[Sequence[int]]) -> float:
    """Mean over users of each user's daily check-in completion rate.

    User-weighted by construction: every user contributes equally no
    matter how many days their bitmap covers.
    """
    bitmaps = [np.asarray(bitmap).ravel() for bitmap in series]
    if not bitmaps:
        raise ValidationError("adherence needs at least one user")
    days = np.array([bitmap.size for bitmap in bitmaps])
    if not days.all():
        raise ValidationError("each adherence bitmap needs at least one day")
    checkins = np.concatenate(bitmaps)
    if not np.isin(checkins, (0, 1)).all():
        raise ValidationError("adherence bitmaps must contain only 0/1 entries")
    # Sums of 0/1 are exact, so each rate equals the bitmap's own mean().
    per_user = np.add.reduceat(checkins, np.cumsum(days) - days, dtype=float) / days
    return float(per_user.mean())


# ---------------------------------------------------------------------------
# Engagement
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EngagementWeights:
    """Action-type weights plus pre-period winsorization percentiles."""

    action_types: tuple[str, ...] = ACTION_TYPES
    alphas: tuple[float, ...] = DEFAULT_ACTION_WEIGHTS
    p5: tuple[float, ...] = (0.0,) * len(ACTION_TYPES)
    p95: tuple[float, ...] = (10.0,) * len(ACTION_TYPES)
    epsilon: float = 1e-6

    def __post_init__(self) -> None:
        k = len(self.action_types)
        if not (len(self.alphas) == len(self.p5) == len(self.p95) == k):
            raise ValidationError("weights and percentiles must align with action types")
        if any(a < 0 for a in self.alphas):
            raise ValidationError("weights must be non-negative")
        if abs(sum(self.alphas) - 1.0) > _WEIGHT_SUM_TOL:
            raise ValidationError("weights must sum to 1")
        if any(lo > hi for lo, hi in zip(self.p5, self.p95)):
            raise ValidationError("p5 must not exceed p95")

    @classmethod
    def from_pre_period(
        cls,
        counts: np.ndarray,
        alphas: tuple[float, ...] = DEFAULT_ACTION_WEIGHTS,
        action_types: tuple[str, ...] = ACTION_TYPES,
        epsilon: float = 1e-6,
    ) -> "EngagementWeights":
        """Estimate [5, 95] percentile clamps per action type from pre-period user-weeks."""
        arr = np.asarray(counts, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != len(action_types):
            raise ValidationError("counts must be (user_weeks, action_types)")
        p5 = tuple(float(v) for v in np.percentile(arr, 5, axis=0))
        p95 = tuple(float(v) for v in np.percentile(arr, 95, axis=0))
        return cls(action_types=action_types, alphas=tuple(alphas), p5=p5, p95=p95, epsilon=epsilon)


def engagement_score(counts: Sequence[float], weights: EngagementWeights) -> float:
    """Weekly engagement score: weighted sum of winsorized, rescaled counts.

    Each raw count clamps to the pre-period [p5, p95] band and rescales
    by (x - p5) / (p95 - p5 + eps), so the result sits in [0, 1).
    """
    arr = np.asarray(counts, dtype=float)
    if arr.shape != (len(weights.action_types),):
        raise ValidationError("counts must align with the configured action types")
    return float(engagement_scores(arr[None, :], weights)[0])


def engagement_scores(counts: np.ndarray, weights: EngagementWeights) -> np.ndarray:
    """Vectorized :func:`engagement_score` over rows of a (n, K) count matrix."""
    arr = np.asarray(counts, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != len(weights.action_types):
        raise ValidationError("counts must be (rows, action_types)")
    p5 = np.asarray(weights.p5)
    p95 = np.asarray(weights.p95)
    clamped = np.clip(arr, p5, p95)
    scaled = (clamped - p5) / (p95 - p5 + weights.epsilon)
    return scaled @ np.asarray(weights.alphas)


def engagement_index(pre_scores: Sequence[float], post_scores: Sequence[float]) -> float:
    """Ratio of cohort-level mean weekly scores, post over pre.

    Values above 1 indicate an engagement increase relative to baseline.
    """
    pre = np.asarray(pre_scores, dtype=float)
    post = np.asarray(post_scores, dtype=float)
    if pre.size == 0 or post.size == 0:
        raise ValidationError("engagement index needs non-empty pre and post scores")
    pre_mean = float(pre.mean())
    if pre_mean <= 0.0:
        raise ValidationError("pre-period mean engagement must be positive")
    return float(post.mean()) / pre_mean


# ---------------------------------------------------------------------------
# Event history and context assembly
# ---------------------------------------------------------------------------


@dataclass
class UserEvents:
    """Compact per-user event history.

    ``checkins`` is a daily 0/1 array, ``action_counts`` a (weeks, K)
    matrix aligned with :data:`ACTION_TYPES`, ``weights_kg`` one reading
    per week (NaN when absent). ``first_day`` is -1 for users with no
    events at all.
    """

    checkins: np.ndarray
    action_counts: np.ndarray
    weights_kg: np.ndarray
    first_day: int = 0

    def has_history_before(self, epoch: int) -> bool:
        return self.first_day >= 0 and self.first_day < epoch * DAYS_PER_WEEK


@dataclass(frozen=True)
class LearningContext:
    """De-identified decision context for one user at one weekly epoch.

    The constructor admits only a token plus derived numbers; numeric
    features must already be normalized into [0, 1].
    """

    user_token: UserToken
    epoch: int
    numeric_features: np.ndarray
    categorical_features: np.ndarray
    missed_checkin_streak: int
    engagement_slope: float

    def __post_init__(self) -> None:
        if not isinstance(self.user_token, UserToken):
            raise ValidationError("user_token must be a UserToken")
        numeric = np.asarray(self.numeric_features, dtype=float)
        categorical = np.asarray(self.categorical_features, dtype=float)
        if not np.all(np.isfinite(numeric)) or not np.all(np.isfinite(categorical)):
            raise ValidationError("context features must be finite")
        if numeric.size and (numeric.min() < -_RANGE_TOL or numeric.max() > 1 + _RANGE_TOL):
            raise ValidationError("numeric features must lie in [0, 1]")
        if self.missed_checkin_streak < 0:
            raise ValidationError("missed check-in streak cannot be negative")
        object.__setattr__(self, "numeric_features", numeric)
        object.__setattr__(self, "categorical_features", categorical)

    @property
    def goal_category(self) -> Optional[str]:
        onehot = self.categorical_features
        if onehot.size != len(GOAL_CATEGORIES) or onehot.max() <= 0:
            return None
        return GOAL_CATEGORIES[int(onehot.argmax())]


def goal_onehot(goal: str) -> np.ndarray:
    if goal not in GOAL_CATEGORIES:
        raise ValidationError(f"unknown goal category: {goal!r}")
    onehot = np.zeros(len(GOAL_CATEGORIES))
    onehot[GOAL_CATEGORIES.index(goal)] = 1.0
    return onehot


def missed_streak(checkins: np.ndarray, *, upto_day: int, first_day: int) -> int:
    """Consecutive missed days ending at ``upto_day`` (exclusive)."""
    start = max(0, first_day)
    streak = 0
    for day in range(upto_day - 1, start - 1, -1):
        if checkins[day]:
            break
        streak += 1
    return streak


def weekly_slope(scores: Sequence[float]) -> float:
    """Ordinary least-squares slope of weekly scores; 0 when under two points."""
    arr = np.asarray(scores, dtype=float)
    if arr.size < 2:
        return 0.0
    t = np.arange(arr.size, dtype=float)
    t_centered = t - t.mean()
    return float((t_centered @ (arr - arr.mean())) / (t_centered @ t_centered))


def build_context(
    events: UserEvents,
    *,
    user_token: UserToken,
    epoch: int,
    goal: str,
    window: NormalizationWindow,
    weights: EngagementWeights,
) -> LearningContext:
    """Assemble the decision context from one user's history up to ``epoch``.

    Cold-start users (no events yet) get zero numerics plus an explicit
    indicator feature instead of fabricated signals.
    """
    if epoch < 0:
        raise ValidationError("epoch must be non-negative")
    onehot = goal_onehot(goal)
    if not events.has_history_before(epoch) or epoch == 0:
        numeric = np.zeros(len(NUMERIC_FEATURE_NAMES))
        numeric[NUMERIC_FEATURE_NAMES.index("cold_start")] = 1.0
        return LearningContext(
            user_token=user_token,
            epoch=epoch,
            numeric_features=numeric,
            categorical_features=onehot,
            missed_checkin_streak=0,
            engagement_slope=0.0,
        )

    upto_day = epoch * DAYS_PER_WEEK
    recent_days = min(TRAILING_WEEKS * DAYS_PER_WEEK, upto_day)
    recent_adh = float(events.checkins[upto_day - recent_days : upto_day].mean())

    trailing = events.action_counts[max(0, epoch - TRAILING_WEEKS) : epoch]
    weekly = engagement_scores(trailing, weights)
    recent_eng = min(1.0, float(weekly.mean())) if weekly.size else 0.0

    last_week_actions = float(events.action_counts[epoch - 1].sum())
    numeric = np.array(
        [
            recent_adh,
            recent_eng,
            normalize(last_week_actions, window, "weekly_actions"),
            normalize(epoch - (events.first_day / DAYS_PER_WEEK), window, "tenure_weeks"),
            0.0,
        ]
    )
    return LearningContext(
        user_token=user_token,
        epoch=epoch,
        numeric_features=numeric,
        categorical_features=onehot,
        missed_checkin_streak=missed_streak(
            events.checkins, upto_day=upto_day, first_day=events.first_day
        ),
        engagement_slope=weekly_slope(weekly),
    )
