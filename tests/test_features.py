"""Metric formula tests: normalization, adherence weighting, winsorized
engagement scores, the engagement index, and context assembly."""

import numpy as np
import pytest

from conftest import empty_events, goal_onehot

from prism.errors import ValidationError
from prism.features import (
    ACTION_TYPES,
    DEFAULT_ACTION_WEIGHTS,
    GOAL_CATEGORIES,
    EngagementWeights,
    LearningContext,
    NormalizationWindow,
    adherence,
    build_context,
    engagement_index,
    engagement_scores,
    normalize,
    weekly_slopes,
)
from prism.vault import UserToken

TOKEN = UserToken("ab" * 32)


def engagement_score(counts, weights) -> float:
    """The score of one week's counts."""
    return float(engagement_scores(np.asarray(counts)[None, :], weights)[0])


def context_of(events, *, epoch, goal, window, weights):
    """One user's context, from a batch of one with every week scored."""
    batch = build_context(
        events.checkins[None],
        events.action_counts[None],
        engagement_scores(events.action_counts, weights)[None],
        np.array([events.first_day]),
        user_tokens=[TOKEN],
        goals=[GOAL_CATEGORIES.index(goal)],
        epoch=epoch,
        window=window,
    )
    return batch[0]


class TestNormalize:
    WINDOW = NormalizationWindow(bounds={"kcal": (1200.0, 2800.0)})

    def test_lower_boundary(self):
        assert normalize(1200, self.WINDOW, "kcal") == 0.0

    def test_upper_boundary(self):
        assert normalize(2800, self.WINDOW, "kcal") == 1.0

    def test_midpoint(self):
        assert normalize(2000, self.WINDOW, "kcal") == pytest.approx(0.5)

    def test_clamping(self):
        assert normalize(100, self.WINDOW, "kcal") == 0.0
        assert normalize(9000, self.WINDOW, "kcal") == 1.0

    def test_degenerate_window_maps_to_midpoint(self):
        window = NormalizationWindow(bounds={"flat": (5.0, 5.0)})
        assert normalize(5.0, window, "flat") == 0.5
        assert normalize(-100.0, window, "flat") == 0.5

    def test_unknown_feature_rejected(self):
        with pytest.raises(ValidationError):
            normalize(1.0, self.WINDOW, "mystery")

    def test_inverted_bounds_rejected(self):
        with pytest.raises(ValidationError):
            NormalizationWindow(bounds={"bad": (2.0, 1.0)})


class TestAdherence:
    def test_all_ones(self):
        assert adherence([[1, 1, 1], [1, 1, 1]]) == 1.0

    def test_two_user_two_day(self):
        # (1.0 + 0.5) / 2
        assert adherence([[1, 1], [0, 1]]) == pytest.approx(0.75)

    def test_user_weighting_differs_from_day_weighting(self):
        series = [[1, 1, 1, 1], [0]]
        user_weighted = adherence(series)
        flat = [d for bitmap in series for d in bitmap]
        day_weighted = sum(flat) / len(flat)
        assert user_weighted == pytest.approx(0.5)
        assert day_weighted == pytest.approx(0.8)
        assert user_weighted != day_weighted

    def test_bounds_hold(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            series = [rng.integers(0, 2, size=rng.integers(1, 30)) for _ in range(5)]
            assert 0.0 <= adherence(series) <= 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            adherence([])
        with pytest.raises(ValidationError):
            adherence([[]])

    def test_non_binary_rejected(self):
        with pytest.raises(ValidationError):
            adherence([[0, 2]])


def _weights(alphas, p5, p95):
    """Weights over the first action types; every later type has alpha 0
    and the band [0, 1], so it adds nothing to a score."""
    pad = len(ACTION_TYPES) - len(alphas)
    return EngagementWeights(
        alphas=tuple(alphas) + (0.0,) * pad,
        p5=tuple(p5) + (0.0,) * pad,
        p95=tuple(p95) + (1.0,) * pad,
    )


class TestEngagementScore:
    def test_all_counts_at_or_below_p5_give_zero(self):
        w = _weights((0.5, 0.5), (2.0, 2.0), (10.0, 10.0))
        assert engagement_score((0, 2, 0, 0, 0), w) == 0.0

    def test_upper_bound_is_one_minus_epsilon_term(self):
        w = _weights((0.5, 0.5), (0.0, 0.0), (10.0, 10.0))
        score = engagement_score((50, 10, 0, 0, 0), w)
        assert 0.999 < score < 1.0

    def test_two_action_worked_example(self):
        w = _weights((0.5, 0.5), (0.0, 0.0), (10.0, 10.0))
        # 0.5 * 5/(10+1e-6) + 0.5 * 10/(10+1e-6)
        assert engagement_score((5, 10, 0, 0, 0), w) == pytest.approx(0.7499999, abs=1e-6)

    def test_monotone_in_every_count(self):
        rng = np.random.default_rng(5)
        w = EngagementWeights(
            alphas=DEFAULT_ACTION_WEIGHTS,
            p5=(0.0, 1.0, 0.0, 2.0, 0.0),
            p95=(8.0, 9.0, 20.0, 12.0, 4.0),
        )
        for _ in range(200):
            counts = rng.integers(0, 25, size=len(ACTION_TYPES)).astype(float)
            base = engagement_score(counts, w)
            k = rng.integers(len(ACTION_TYPES))
            bumped = counts.copy()
            bumped[k] += rng.integers(1, 5)
            assert engagement_score(bumped, w) >= base - 1e-15

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            _weights((0.5, 0.6), (0, 0), (1, 1))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValidationError):
            _weights((1.5, -0.5), (0, 0), (1, 1))

    def test_percentile_estimation(self):
        rng = np.random.default_rng(3)
        counts = rng.poisson(4.0, size=(500, len(ACTION_TYPES)))
        w = EngagementWeights.from_pre_period(counts)
        assert all(lo <= hi for lo, hi in zip(w.p5, w.p95))
        scores = engagement_scores(counts, w)
        assert (scores >= 0).all() and (scores < 1).all()

    def test_vector_matches_scalar(self):
        w = EngagementWeights(alphas=DEFAULT_ACTION_WEIGHTS, p5=(0,) * 5, p95=(7, 8, 9, 10, 11))
        counts = np.array([[1, 2, 3, 4, 5], [9, 9, 9, 9, 9]], dtype=float)
        vec = engagement_scores(counts, w)
        assert vec[0] == pytest.approx(engagement_score(counts[0], w))
        assert vec[1] == pytest.approx(engagement_score(counts[1], w))

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf"), -0.1])
    def test_alphas_must_be_finite_and_non_negative(self, alpha):
        with pytest.raises(ValidationError, match="finite and non-negative"):
            _weights((alpha, 0.5), (0.0, 0.0), (10.0, 10.0))

    def test_counts_must_align_with_action_types(self):
        w = EngagementWeights(alphas=DEFAULT_ACTION_WEIGHTS, p5=(0.0,) * 5, p95=(10.0,) * 5)
        with pytest.raises(ValidationError):
            engagement_scores(np.zeros((2, 4)), w)
        with pytest.raises(ValidationError):
            engagement_scores(np.zeros(5), w)


class TestEngagementIndex:
    def test_identical_distributions(self):
        scores = [0.2, 0.4, 0.6]
        assert engagement_index(scores, scores) == pytest.approx(1.0, abs=1e-9)

    def test_worked_ratio(self):
        assert engagement_index([0.4, 0.4], [0.5, 0.5]) == pytest.approx(1.25)

    def test_zero_pre_mean_rejected(self):
        with pytest.raises(ValidationError):
            engagement_index([0.0, 0.0], [0.5])

    def test_alpha_rescaling_leaves_index_unchanged(self):
        rng = np.random.default_rng(9)
        pre = rng.poisson(3.0, size=(60, len(ACTION_TYPES)))
        post = rng.poisson(4.0, size=(60, len(ACTION_TYPES)))
        base_alphas = np.array([0.3, 0.2, 0.1, 0.2, 0.2])
        for c in (0.5, 2.0, 7.3):
            rescaled = tuple(base_alphas * c / (base_alphas * c).sum())
            w = EngagementWeights.from_pre_period(pre, alphas=rescaled)
            w0 = EngagementWeights.from_pre_period(pre, alphas=tuple(base_alphas))
            idx = engagement_index(engagement_scores(pre, w), engagement_scores(post, w))
            idx0 = engagement_index(engagement_scores(pre, w0), engagement_scores(post, w0))
            assert idx == pytest.approx(idx0, rel=1e-12)


class TestSlopeAndStreak:
    def test_linear_scores_slope(self):
        slopes = weekly_slopes([[0.1, 0.2, 0.3, 0.4], [0.4, 0.3, 0.2, 0.1]])
        assert slopes == pytest.approx([0.1, -0.1])

    def test_single_point_slope_zero(self):
        assert weekly_slopes([[0.4], [0.7]]).tolist() == [0.0, 0.0]

    def test_streak_of_seven(self):
        events = empty_events(4)
        events.first_day = 0
        events.checkins[: 3 * 7] = 1
        events.checkins[21 - 7 : 21] = 0  # miss the last 7 days of week 3
        context = context_of(
            events, epoch=3, goal="fitness",
            window=TestBuildContext.WINDOW, weights=TestBuildContext.WEIGHTS,
        )
        assert context.missed_checkin_streak == 7


class TestBuildContext:
    WINDOW = NormalizationWindow(
        bounds={"weekly_actions": (0.0, 40.0), "tenure_weeks": (0.0, 20.0)}
    )
    WEIGHTS = EngagementWeights(alphas=DEFAULT_ACTION_WEIGHTS, p5=(0,) * 5, p95=(10.0,) * 5)

    def test_cold_start_user(self):
        context = context_of(
            empty_events(8),
            epoch=4,
            goal="fitness",
            window=self.WINDOW,
            weights=self.WEIGHTS,
        )
        numeric = context.numeric_features
        assert numeric[-1] == 1.0  # cold-start indicator
        assert (numeric[:-1] == 0).all()
        assert context.missed_checkin_streak == 0
        assert context.engagement_slope == 0.0
        assert context.categorical_features.tolist() == goal_onehot("fitness").tolist()

    def test_active_user_features(self):
        events = empty_events(8)
        events.first_day = 0
        events.checkins[:28] = 1
        events.action_counts[:4] = [[1, 1, 1, 1, 1]] * 4
        context = context_of(
            events,
            epoch=4,
            goal="weight_loss",
            window=self.WINDOW,
            weights=self.WEIGHTS,
        )
        assert context.numeric_features[0] == pytest.approx(1.0)  # perfect adherence
        assert context.numeric_features[-1] == 0.0
        assert context.missed_checkin_streak == 0

    def test_increasing_scores_positive_slope(self):
        events = empty_events(8)
        events.first_day = 0
        events.checkins[:28] = 1
        # weekly totals rise linearly; score is monotone in counts
        for week, total in enumerate((1, 2, 3, 4)):
            events.action_counts[week] = [total] * 5
        context = context_of(
            events,
            epoch=4,
            goal="fitness",
            window=self.WINDOW,
            weights=self.WEIGHTS,
        )
        assert context.engagement_slope > 0

    def test_streak_in_context(self):
        events = empty_events(8)
        events.first_day = 0
        events.checkins[:14] = 1
        events.checkins[14:28] = 0
        context = context_of(
            events,
            epoch=4,
            goal="fitness",
            window=self.WINDOW,
            weights=self.WEIGHTS,
        )
        assert context.missed_checkin_streak == 14


class TestLearningContextBoundary:
    def test_numeric_range_enforced(self):
        with pytest.raises(ValidationError):
            LearningContext(
                user_token=TOKEN,
                epoch=1,
                numeric_features=np.array([1.4]),
                categorical_features=goal_onehot("fitness"),
                missed_checkin_streak=0,
                engagement_slope=0.0,
            )

    def test_token_type_enforced(self):
        with pytest.raises(ValidationError):
            LearningContext(
                user_token="raw-string",  # type: ignore[arg-type]
                epoch=1,
                numeric_features=np.zeros(2),
                categorical_features=goal_onehot("fitness"),
                missed_checkin_streak=0,
                engagement_slope=0.0,
            )

    def test_no_identity_fields_exist(self):
        from dataclasses import fields

        names = {f.name for f in fields(LearningContext)}
        assert names == {
            "user_token", "epoch", "numeric_features", "categorical_features",
            "missed_checkin_streak", "engagement_slope",
        }
