"""Learning-view feature construction and behavioral metric formulas.

This module owns the numeric contracts the rest of the pipeline leans
on: min-max normalization against a rolling cohort window, user-weighted
daily adherence, winsorized weekly engagement scores, the post/pre
engagement index, and assembly of every user's decision context for an
epoch in one pass. Nothing here accepts or emits a raw-identity value;
the only handle for a person is a ``UserToken``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

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
TRAILING_WEEKS = 4

_WEIGHT_SUM_TOL = 1e-12
# Added to each clamp band's width: a score stays below 1, and a band of
# zero width divides by it, not by zero.
_SCORE_EPSILON = 1e-6
_RANGE_TOL = 1e-9


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormalizationWindow:
    """Per-feature (min, max) bounds from a rolling cohort-level window."""

    bounds: Mapping[str, tuple[float, float]]

    def __post_init__(self) -> None:
        for feature_id, (lo, hi) in self.bounds.items():
            if not (np.isfinite(lo) and np.isfinite(hi)) or lo > hi:
                raise ValidationError(
                    f"window bounds for {feature_id!r} must be finite with min <= max"
                )


def normalize(x, window: NormalizationWindow, feature_id: str):
    """Min-max scale ``x``, a number or an array, into [0, 1] against the
    window bounds; a number gives a float, an array an array.

    Out-of-window inputs clamp to the boundary; a degenerate window
    (min == max) maps everything to the uninformative midpoint 0.5.
    """
    if feature_id not in window.bounds:
        raise ValidationError(f"unknown feature id: {feature_id!r}")
    lo, hi = window.bounds[feature_id]
    x = np.asarray(x, dtype=float)
    scaled = np.full(x.shape, 0.5) if hi == lo else np.clip((x - lo) / (hi - lo), 0.0, 1.0)
    return float(scaled) if scaled.ndim == 0 else scaled


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


def check_engagement_alphas(alphas: Sequence[float]) -> None:
    """The rule for weekly-score weights, wherever they are read: one
    finite, non-negative weight per action type, summing to 1. Raises
    ``ValidationError`` otherwise."""
    if len(alphas) != len(ACTION_TYPES):
        raise ValidationError("weights must align with action types")
    if not all(0 <= a < math.inf for a in alphas):
        raise ValidationError("weights must be finite and non-negative")
    if abs(sum(alphas) - 1.0) > _WEIGHT_SUM_TOL:
        raise ValidationError("weights must sum to 1")


@dataclass(frozen=True)
class EngagementWeights:
    """Weights plus pre-period winsorization percentiles, one of each per
    action type in ``ACTION_TYPES`` order."""

    alphas: tuple[float, ...]
    p5: tuple[float, ...]
    p95: tuple[float, ...]

    def __post_init__(self) -> None:
        check_engagement_alphas(self.alphas)
        if not len(self.p5) == len(self.p95) == len(ACTION_TYPES):
            raise ValidationError("percentiles must align with action types")
        if any(lo > hi for lo, hi in zip(self.p5, self.p95)):
            raise ValidationError("p5 must not exceed p95")

    @classmethod
    def from_pre_period(
        cls,
        counts: np.ndarray,
        alphas: tuple[float, ...] = DEFAULT_ACTION_WEIGHTS,
    ) -> "EngagementWeights":
        """Estimate [5, 95] percentile clamps per action type from pre-period user-weeks."""
        arr = np.asarray(counts, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != len(ACTION_TYPES):
            raise ValidationError("counts must be (user_weeks, action_types)")
        p5 = tuple(float(v) for v in np.percentile(arr, 5, axis=0))
        p95 = tuple(float(v) for v in np.percentile(arr, 95, axis=0))
        return cls(alphas=tuple(alphas), p5=p5, p95=p95)


def engagement_scores(counts: np.ndarray, weights: EngagementWeights) -> np.ndarray:
    """Weekly engagement score of each row of a (n, K) count matrix: a
    weighted sum of winsorized, rescaled counts.

    Each raw count clamps to the pre-period [p5, p95] band and rescales
    by (x - p5) / (p95 - p5 + eps), so a score sits in [0, 1).
    """
    arr = np.asarray(counts, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != len(ACTION_TYPES):
        raise ValidationError("counts must be (rows, action_types)")
    p5 = np.asarray(weights.p5)
    p95 = np.asarray(weights.p95)
    clamped = np.clip(arr, p5, p95)
    scaled = (clamped - p5) / (p95 - p5 + _SCORE_EPSILON)
    return scaled @ np.asarray(weights.alphas)


def engagement_index(pre_scores: Sequence[float], post_scores: Sequence[float]) -> float:
    """Ratio of cohort-level mean weekly scores, post over pre.

    Values above 1 indicate an engagement increase relative to baseline.
    """
    pre = np.asarray(pre_scores, dtype=float)
    post = np.asarray(post_scores, dtype=float)
    if pre.size == 0 or post.size == 0:
        raise ValidationError("engagement index needs non-empty pre and post scores")
    return float(post.mean()) / pre_period_mean(pre)


def pre_period_mean(pre_scores: np.ndarray) -> float:
    """Mean of the pre-period scores, the engagement index's divisor;
    ValidationError unless it is positive."""
    pre_mean = float(pre_scores.mean())
    if pre_mean <= 0.0:
        raise ValidationError("pre-period mean engagement must be positive")
    return pre_mean


# ---------------------------------------------------------------------------
# Context assembly
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ContextBatch:
    """Every user's decision context at one epoch, as row-aligned arrays.

    Row ``u`` holds user ``user_tokens[u]``: ``numeric`` (n, N) features
    in [0, 1], ``goal`` an index into :data:`GOAL_CATEGORIES`, ``streak``
    the missed check-in streak and ``slope`` the engagement slope. This
    is the Learning view: it holds tokens and derived numbers only. The
    arrays are made read-only and checked once, as a whole: the numerics
    must be finite and in [0, 1] and no streak may be negative. Both the
    decision path and the assistant read a user's context as row ``u``.
    """

    user_tokens: Sequence[UserToken]
    epoch: int
    numeric: np.ndarray
    goal: np.ndarray
    streak: np.ndarray
    slope: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.user_tokens)
        if not all(isinstance(token, UserToken) for token in self.user_tokens):
            raise ValidationError("user_token must be a UserToken")
        goal = np.array(self.goal, dtype=np.int64)
        if goal.shape != (n,) or ((goal < 0) | (goal >= len(GOAL_CATEGORIES))).any():
            raise ValidationError("each context needs a goal index into GOAL_CATEGORIES")
        arrays = {
            "numeric": np.array(self.numeric, dtype=float).reshape(n, -1),
            "goal": goal,
            "streak": np.array(self.streak, dtype=np.int64).reshape(n),
            "slope": np.array(self.slope, dtype=float).reshape(n),
        }
        numeric = arrays["numeric"]
        if not np.isfinite(numeric).all():
            raise ValidationError("context features must be finite")
        if numeric.size and (numeric.min() < -_RANGE_TOL or numeric.max() > 1 + _RANGE_TOL):
            raise ValidationError("numeric features must lie in [0, 1]")
        if (arrays["streak"] < 0).any():
            raise ValidationError("missed check-in streak cannot be negative")
        for name, array in arrays.items():
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        object.__setattr__(self, "user_tokens", tuple(self.user_tokens))

    def __len__(self) -> int:
        return len(self.user_tokens)


def _missed_streaks(checkins: np.ndarray, upto_day: int, first_day: np.ndarray) -> np.ndarray:
    """Per row, consecutive missed days ending at ``upto_day`` (exclusive),
    counting back no further than the row's first day, which lies in
    [0, upto_day)."""
    recent_first = checkins[:, upto_day - 1 :: -1] != 0
    # Days since the latest check-in, or every day when there was none.
    since = np.where(recent_first.any(axis=1), recent_first.argmax(axis=1), upto_day)
    return np.minimum(since, upto_day - first_day)


def weekly_slopes(scores: np.ndarray) -> np.ndarray:
    """Ordinary least-squares slope of each row of a (n, weeks) matrix of
    weekly scores; 0 when a row has under two points."""
    scores = np.asarray(scores, dtype=float)
    n, weeks = scores.shape
    if weeks < 2:
        return np.zeros(n)
    t = np.arange(weeks, dtype=float)
    t_centered = t - t.mean()
    centered = scores - scores.mean(axis=1, keepdims=True)
    # A stack of (1, weeks) @ (weeks,) products takes each row through the
    # 1-D dot kernel, the one a single row's ``t_centered @ row`` takes, so
    # a row's slope does not depend on the other rows.
    return np.matmul(centered[:, None, :], t_centered)[:, 0] / (t_centered @ t_centered)


def build_context(
    checkins: np.ndarray,
    action_counts: np.ndarray,
    weekly_scores: np.ndarray,
    first_day: np.ndarray,
    *,
    user_tokens: Sequence[UserToken],
    goals: np.ndarray,
    epoch: int,
    window: NormalizationWindow,
) -> ContextBatch:
    """Assemble every user's decision context at ``epoch`` in one pass.

    Row ``u`` of each array is user ``user_tokens[u]``: ``checkins`` (n,
    days) daily 0/1, ``action_counts`` (n, weeks, K), ``weekly_scores``
    (n, weeks) holding each week's engagement score (every week before
    ``epoch`` must be scored), ``first_day`` (-1 for a user with no
    events) and ``goals``, indices into :data:`GOAL_CATEGORIES`.

    Cold-start users (no events before ``epoch``, or ``epoch`` 0) get zero
    numerics plus an explicit indicator feature instead of fabricated
    signals.
    """
    if epoch < 0:
        raise ValidationError("epoch must be non-negative")
    n = len(user_tokens)
    first_day = np.asarray(first_day, dtype=np.int64)
    upto_day = epoch * DAYS_PER_WEEK
    numeric = np.zeros((n, len(NUMERIC_FEATURE_NAMES)))
    numeric[:, NUMERIC_FEATURE_NAMES.index("cold_start")] = 1.0
    streak = np.zeros(n, dtype=np.int64)
    slope = np.zeros(n)
    warm = (first_day >= 0) & (first_day < upto_day)
    if warm.any():
        recent_days = min(TRAILING_WEEKS * DAYS_PER_WEEK, upto_day)
        weekly = weekly_scores[warm, max(0, epoch - TRAILING_WEEKS) : epoch]
        numeric[warm] = np.column_stack(
            [
                checkins[warm, upto_day - recent_days : upto_day].mean(axis=1),
                np.minimum(1.0, weekly.mean(axis=1)),
                normalize(action_counts[warm, epoch - 1].sum(axis=1), window, "weekly_actions"),
                normalize(epoch - first_day[warm] / DAYS_PER_WEEK, window, "tenure_weeks"),
                np.zeros(int(warm.sum())),
            ]
        )
        streak[warm] = _missed_streaks(checkins[warm], upto_day, first_day[warm])
        slope[warm] = weekly_slopes(weekly)
    return ContextBatch(
        user_tokens=user_tokens,
        epoch=epoch,
        numeric=numeric,
        goal=goals,
        streak=streak,
        slope=slope,
    )
