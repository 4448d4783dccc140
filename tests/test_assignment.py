"""Constrained bandit tests: feasibility filtering, UCB scoring, the
incremental-vs-batch ridge oracle, reward arithmetic, end-to-end assign."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    decode_trace_line,
    empty_events,
    legend_of,
    make_roster,
    reference_full_for,
    reference_widths,
    score_of,
    solve_theta,
    tables_for,
    trace_dict,
)

import prism.assignment
from prism.assignment import (
    CODE_CAPACITY,
    CODE_COACH_LOAD,
    CODE_GOAL,
    FEATURE_DIM,
    N_NUMERIC,
    BanditModel,
    CoachState,
    PolicyConfig,
    Roster,
    assign,
    compute_reward,
    feasibility_report,
    feature_tables,
    score_and_select,
)
from prism.errors import ConstraintViolationError, InternalError, ValidationError
from prism.features import (
    DEFAULT_ACTION_WEIGHTS,
    GOAL_CATEGORIES,
    ContextBatch,
    EngagementWeights,
    engagement_scores,
)
from prism.simulator.experiment import _pass_lines
from prism.vault import UserToken

USER = "aa" * 32
USER_ROW = 0  # make_world puts USER first
FITNESS = GOAL_CATEGORIES.index("fitness")


def make_world(n_groups=3, capacity=5, goal="fitness", coach_limit=50, seats=(), goal_of=None):
    """A roster of groups under one coach, with USER plus every seated token.

    ``seats`` is a sequence of (token, group_id, epoch) placements;
    ``goal_of`` maps a group id to a goal other than ``goal``.
    """
    goal_of = goal_of or {}
    groups = [
        (gid, "c00", capacity, goal_of.get(gid, goal))
        for gid in (f"g{i:03d}" for i in range(n_groups))
    ]
    tokens = [USER] + [token for token, _, _ in seats if token != USER]
    roster = make_roster(groups, {"c00": coach_limit}, tokens)
    for token, gid, epoch in seats:
        roster.move(tokens.index(token), roster.group_row[gid], epoch, dwell=0)
    return roster


def feasible(report):
    return [gid for gid, reasons in report.items() if not reasons]


CONFIG = PolicyConfig()


class TestPolicyConfig:
    def test_oscillation_must_cover_dwell(self):
        with pytest.raises(ValidationError):
            PolicyConfig(dwell=6, oscillation=4)

    def test_negative_weights_rejected(self):
        with pytest.raises(ValidationError):
            PolicyConfig(w_adh=-0.1)
        with pytest.raises(ValidationError):
            PolicyConfig(lam=-1.0)

    @pytest.mark.parametrize("field, value", [
        ("dwell", "x"), ("dwell", 4.0), ("dwell", True), ("beta", "x"), ("beta", float("nan")),
        ("dwell", 10**400),
    ])
    def test_field_types_checked(self, field, value):
        with pytest.raises(ValidationError, match=field):
            PolicyConfig(**{field: value})

    def test_defaults_echoable(self):
        doc = PolicyConfig().to_dict()
        assert doc["dwell"] == 4 and doc["oscillation"] == 8
        assert PolicyConfig(**doc) == PolicyConfig()


class TestEligibility:
    def test_dwell_lock_returns_only_current_group(self):
        roster = make_world(seats=[(USER, "g001", 7)])
        report = feasibility_report(USER_ROW, FITNESS, roster, epoch=8, config=CONFIG)
        assert feasible(report) == ["g001"]

    def test_dwell_overrides_eligibility_for_current_group(self):
        # Even a goal-mismatched current group is the whole set inside dwell.
        roster = make_world(
            seats=[(USER, "g001", 7)], goal_of={"g001": "maintenance"}
        )
        report = feasibility_report(USER_ROW, FITNESS, roster, epoch=8, config=CONFIG)
        assert feasible(report) == ["g001"]

    def test_past_dwell_opens_alternatives(self):
        roster = make_world(seats=[(USER, "g001", 4)])
        report = feasibility_report(USER_ROW, FITNESS, roster, epoch=8, config=CONFIG)
        assert feasible(report) == ["g000", "g001", "g002"]

    def test_full_group_excluded_for_non_members(self):
        roster = make_world(
            capacity=2, seats=[("x1", "g000", 0), ("x2", "g000", 0), (USER, "g001", 0)]
        )
        report = feasibility_report(USER_ROW, FITNESS, roster, epoch=8, config=CONFIG)
        assert "g000" not in feasible(report)

    def test_member_keeps_own_full_group(self):
        roster = make_world(capacity=2, seats=[(USER, "g001", 0), ("x2", "g001", 0)])
        report = feasibility_report(USER_ROW, FITNESS, roster, epoch=8, config=CONFIG)
        assert "g001" in feasible(report)

    def test_eligibility_truth_table(self):
        # One group per goal: only the group serving the user's goal survives.
        roster = make_world(
            n_groups=len(GOAL_CATEGORIES),
            goal_of={f"g{g:03d}": goal for g, goal in enumerate(GOAL_CATEGORIES)},
        )
        report = feasibility_report(USER_ROW, FITNESS, roster, epoch=8, config=CONFIG)
        assert list(report.values()) == [
            [] if goal == "fitness" else ["goal_mismatch"] for goal in GOAL_CATEGORIES
        ]

    @pytest.mark.parametrize("goal", [-1, len(GOAL_CATEGORIES)])
    def test_goal_outside_the_categories_rejected(self, goal):
        # One group per goal: -1 would read the last goal's row of the
        # goal table, and 4 would index past it.
        roster = make_world(
            n_groups=len(GOAL_CATEGORIES),
            goal_of={f"g{g:03d}": name for g, name in enumerate(GOAL_CATEGORIES)},
        )
        with pytest.raises(ValidationError, match="GOAL_CATEGORIES"):
            feasibility_report(USER_ROW, goal, roster, epoch=8, config=CONFIG)

    def test_coach_load_binding(self):
        roster = make_world(
            n_groups=2, capacity=5, coach_limit=3,
            seats=[("x1", "g000", 0), ("x2", "g000", 0), ("x3", "g000", 0)],
        )
        report = feasibility_report(USER_ROW, FITNESS, roster, epoch=8, config=CONFIG)
        assert feasible(report) == []

    def test_reasons_reported(self):
        roster = make_world(goal_of={"g001": "maintenance"})
        report = feasibility_report(USER_ROW, FITNESS, roster, epoch=8, config=CONFIG)
        assert report["g001"] == ["goal_mismatch"]
        assert report["g000"] == []

    def test_group_attributes_are_frozen(self):
        # The roster's static arrays are read-only: the kept codes and
        # fill ratios are derived from them, so an edit would desynchronize them.
        roster = make_world()
        for name in ("capacity", "goal_index", "coach_of", "load_limit", "goal_code"):
            with pytest.raises(ValueError):
                getattr(roster, name)[0] = 9


def use_feature_map(monkeypatch, feature_map):
    """Score with a toy map of the candidate rows in place of joint_features."""
    monkeypatch.setattr(
        prism.assignment, "joint_features", lambda tables, user, roster, rows: feature_map(rows)
    )


class TestScoring:
    def test_cold_model_tie_breaks_to_lowest_load_then_id(self, monkeypatch):
        roster = make_world(seats=[("m1", "g000", 0), ("m2", "g000", 0), ("m3", "g002", 0)])
        model = BanditModel(dim=FEATURE_DIM, ridge=1.0)
        use_feature_map(monkeypatch, lambda r: np.ones((r.size, FEATURE_DIM)) / np.sqrt(FEATURE_DIM))
        best, scores, _ = score_and_select(
            USER_ROW, np.arange(3), model, roster, epoch=8, config=CONFIG, tables=None
        )
        # equal unit-norm features -> equal scores -> lowest load wins
        assert roster.group_ids[best] == "g001"
        assert len({round(score, 12) for score in score_of(scores, CONFIG).tolist()}) == 1

    def test_pure_exploitation_with_zero_beta(self, monkeypatch):
        model = BanditModel(dim=2, ridge=1.0)
        model.update(np.array([[1.0, 0.0]]), np.array([1.0]))
        roster = make_world(n_groups=2)
        config = PolicyConfig(beta=0.0)
        # g000 -> [1, 0], g001 -> [0, 1]
        use_feature_map(monkeypatch, lambda r: np.eye(2)[r])
        best, _, _ = score_and_select(
            USER_ROW, np.arange(2), model, roster, epoch=8, config=config, tables=None
        )
        assert roster.group_ids[best] == "g000"

    def test_one_dimensional_toy_example(self, monkeypatch):
        # Joint map with disjoint per-group basis vectors; one update on g000.
        model = BanditModel(dim=2, ridge=1.0)
        model.update(np.array([[1.0, 0.0]]), np.array([1.0]))
        roster = make_world(n_groups=2)
        use_feature_map(monkeypatch, lambda r: np.eye(2)[r])
        config = PolicyConfig(beta=1.0, lam=0.0)
        best, scores, phi_chosen = score_and_select(
            USER_ROW, np.arange(2), model, roster, epoch=8, config=config, tables=None,
        )
        score = score_of(scores, config)
        g000, g001 = 0, 1  # candidate order is group-id order
        assert scores.mu[g000] == pytest.approx(0.5)
        assert scores.sigma[g000] == pytest.approx(1 / np.sqrt(2))
        assert score[g000] == pytest.approx(1.2071067811865475)
        assert scores.mu[g001] == pytest.approx(0.0)
        assert scores.sigma[g001] == pytest.approx(1.0)
        assert score[g001] == pytest.approx(1.0)
        assert roster.group_ids[best] == "g000"
        assert phi_chosen.tolist() == [1.0, 0.0]

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_tie_break_matches_reference_order(self, data):
        # Few distinct terms force exact ties in score and in load, so many
        # draws are decided by the load or by the group id alone.
        n_groups = data.draw(st.integers(1, 6))
        terms = st.sampled_from([0.0, 0.25, 0.5])
        mu = np.array(data.draw(st.lists(terms, min_size=n_groups, max_size=n_groups)))
        sigma = np.array(data.draw(st.lists(terms, min_size=n_groups, max_size=n_groups)))
        loads = data.draw(st.lists(st.integers(0, 2), min_size=n_groups, max_size=n_groups))
        seats = [
            (f"{g:02x}{k:02x}" * 16, f"g{g:03d}", 0)
            for g, load in enumerate(loads) for k in range(load)
        ]
        user_seat = data.draw(st.none() | st.tuples(st.integers(0, n_groups - 1), st.integers(0, 8)))
        if user_seat is not None:
            seats.append((USER, f"g{user_seat[0]:03d}", user_seat[1]))
        roster = make_world(n_groups=n_groups, seats=seats)
        candidates = np.array(
            data.draw(st.permutations(range(n_groups)).flatmap(
                lambda rows: st.integers(1, n_groups).map(lambda k: rows[:k])
            )),
            dtype=np.int64,
        )
        config = PolicyConfig(beta=data.draw(st.sampled_from([0.0, 0.5, 1.0])), lam=data.draw(terms))

        class TermModel:
            """mu and sigma are a feature row's two entries."""
            dim = 2
            means = staticmethod(lambda phi: phi[:, 0])
            widths = staticmethod(lambda phi: phi[:, 1])

        with pytest.MonkeyPatch.context() as patch:
            use_feature_map(patch, lambda rows: np.column_stack([mu[rows], sigma[rows]]))
            best, scores, _ = score_and_select(
                USER_ROW, candidates, TermModel(), roster, epoch=8, config=config, tables=None
            )
        rows = candidates.tolist()
        score = score_of(scores, config)
        reference = min(
            range(len(rows)),
            key=lambda i: (-score[i], roster.count[rows[i]], roster.group_ids[rows[i]]),
        )
        assert best == reference
        for i, row in enumerate(rows):
            seat, since = user_seat if user_seat is not None else (row, 0)
            penalty = int(row != seat and 8 - since < config.oscillation)
            assert scores.penalty[i] == penalty
            assert score[i] == mu[row] + config.beta * sigma[row] - config.lam * penalty

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(2, 99),
        offset=st.integers(0, 7),
        updates=st.integers(0, 40),
    )
    def test_identical_rows_get_identical_terms(self, seed, k, offset, updates):
        # Exact ties must stay ties wherever a row sits, so the tie-break
        # decides them: a row's terms may not depend on its position, on k
        # or on the alignment of the matrix in memory.
        rng = np.random.default_rng(seed)
        model = BanditModel(dim=FEATURE_DIM, ridge=1.0)
        for _ in range(updates):
            model.update(rng.uniform(-1, 1, (1, FEATURE_DIM)), rng.normal(size=1))
        distinct = rng.uniform(-1, 1, (int(rng.integers(1, 4)), FEATURE_DIM))
        which = rng.integers(0, len(distinct), size=k)
        buffer = np.empty(k * FEATURE_DIM + offset)
        phi = buffer[offset:].reshape(k, FEATURE_DIM)
        phi[:] = distinct[which]
        roster = make_world(n_groups=k, capacity=k)
        with pytest.MonkeyPatch.context() as patch:
            use_feature_map(patch, lambda rows: phi[rows])
            _, scores, _ = score_and_select(
                USER_ROW, np.arange(k), model, roster, epoch=8, config=CONFIG, tables=None
            )
        alone = {
            d: (model.means(row[None])[0], model.widths(row[None])[0])
            for d, row in enumerate(distinct)
        }
        for d in range(len(distinct)):
            same = which == d
            for terms in (scores.mu, scores.sigma, score_of(scores, CONFIG)):
                assert np.unique(terms[same]).size <= 1
            if same.any():
                assert scores.mu[same][0] == alone[d][0]
                assert scores.sigma[same][0] == alone[d][1]

    # Fixed before measuring: float64 sums of 21 products taken in another
    # order differ by a few ulps (up to about 3e-15 relative was seen), so
    # 1e-12 leaves over two orders of magnitude to spare.
    WIDTH_RTOL = 1e-12

    @pytest.mark.parametrize("seed", range(3))
    def test_widths_match_three_operand_reference(self, seed):
        rng = np.random.default_rng(seed)
        model = BanditModel(dim=FEATURE_DIM, ridge=1.0)
        for _ in range(40):
            model.update(rng.uniform(-1, 1, (1, FEATURE_DIM)), rng.normal(size=1))
        for k in range(1, 100):
            phi = rng.uniform(-1, 1, (k, FEATURE_DIM))
            np.testing.assert_allclose(
                model.widths(phi), reference_widths(model, phi), rtol=self.WIDTH_RTOL, atol=0
            )

    def test_churn_penalty_applies_inside_oscillation_horizon(self):
        model = BanditModel(dim=FEATURE_DIM, ridge=1.0)
        roster = make_world(n_groups=2, seats=[(USER, "g000", 4)])
        _, scores, _ = score_and_select(
            USER_ROW, np.arange(2), model, roster, epoch=8, config=PolicyConfig(lam=0.5),
            tables=tables_for(roster),
        )
        g000, g001 = 0, 1
        assert scores.penalty[g000] == 0
        assert scores.penalty[g001] == 1

    def test_score_decomposition(self):
        model = BanditModel(dim=FEATURE_DIM, ridge=2.0)
        rng = np.random.default_rng(0)
        for _ in range(50):
            model.update(rng.normal(size=(1, FEATURE_DIM)) * 0.3, rng.normal(size=1))
        roster = make_world(seats=[(USER, "g000", 6)])
        config = PolicyConfig(beta=0.7, lam=0.3)
        _, scores, _ = score_and_select(
            USER_ROW, np.arange(3), model, roster, epoch=8, config=config,
            tables=tables_for(roster),
        )
        for mu, sigma, penalty, score in zip(*(a.tolist() for a in (*scores, score_of(scores, config)))):
            expected = mu + config.beta * sigma - config.lam * penalty
            assert abs(score - expected) < 1e-12

    def test_empty_candidates_rejected(self):
        model = BanditModel(dim=FEATURE_DIM)
        roster = make_world()
        with pytest.raises(ValidationError):
            score_and_select(USER_ROW, [], model, roster, 8, CONFIG, tables_for(roster))

    def test_dimension_mismatch_is_internal_error(self, monkeypatch):
        model = BanditModel(dim=3)
        roster = make_world(n_groups=1)
        use_feature_map(monkeypatch, lambda r: np.ones((r.size, 5)))
        with pytest.raises(InternalError):
            score_and_select(USER_ROW, np.arange(1), model, roster, 8, CONFIG, None)


class TestModelUpdate:
    def test_zero_update_is_identity(self):
        model = BanditModel(dim=3, ridge=1.0)
        before_a, before_b = model.A.copy(), model.b.copy()
        model.update(np.zeros((1, 3)), np.zeros(1))
        assert np.array_equal(model.A, before_a)
        assert np.array_equal(model.b, before_b)

    def test_scalar_update(self):
        model = BanditModel(dim=1, ridge=1.0)
        model.update(np.array([[1.0]]), np.array([1.0]))
        assert model.A[0, 0] == pytest.approx(2.0)
        assert model.b[0] == pytest.approx(1.0)
        assert model.means(np.eye(model.dim))[0] == pytest.approx(0.5)

    def test_non_finite_rejected(self):
        # One NaN row or one inf reward rejects the whole batch, and the
        # model is left as it was.
        rng = np.random.default_rng(3)
        model = BanditModel(dim=FEATURE_DIM, ridge=1.0)
        model.update(rng.uniform(-1, 1, (30, FEATURE_DIM)), rng.normal(size=30))
        probe = rng.uniform(-1, 1, (4, FEATURE_DIM))
        before = (model.A.copy(), model.b.copy(), model.means(np.eye(model.dim)), model.widths(probe))
        phi, rewards = rng.uniform(-1, 1, (12, FEATURE_DIM)), rng.normal(size=12)
        nan_phi, inf_rewards = phi.copy(), rewards.copy()
        nan_phi[5] = np.nan
        inf_rewards[7] = np.inf
        for batch in ((nan_phi, rewards), (phi, inf_rewards)):
            with pytest.raises(ValidationError):
                model.update(*batch)
            after = (model.A, model.b, model.means(np.eye(model.dim)), model.widths(probe))
            assert all(np.array_equal(x, y) for x, y in zip(before, after))

    @pytest.mark.filterwarnings("ignore:(invalid value|overflow) encountered:RuntimeWarning")
    def test_update_that_would_break_the_model_changes_nothing(self):
        # Finite inputs can still overflow b, or leave A singular when
        # the ridge vanishes next to the batch; either raises before any
        # state changes.
        rng = np.random.default_rng(5)
        model = BanditModel(dim=FEATURE_DIM, ridge=1.0)
        model.update(rng.uniform(-1, 1, (30, FEATURE_DIM)), rng.normal(size=30))
        probe = rng.uniform(-1, 1, (4, FEATURE_DIM))
        before = (model.A.copy(), model.b.copy(), model.means(np.eye(model.dim)), model.widths(probe))
        with pytest.raises(ValidationError, match="non-finite"):
            model.update(np.ones((2, FEATURE_DIM)), np.full(2, 1e308))
        after = (model.A, model.b, model.means(np.eye(model.dim)), model.widths(probe))
        assert all(np.array_equal(x, y) for x, y in zip(before, after))

        tiny = BanditModel(dim=2, ridge=1e-300)
        with pytest.raises(ValidationError, match="singular"):
            tiny.update(np.ones((1, 2)), np.ones(1))
        assert np.array_equal(tiny.A, 1e-300 * np.eye(2))
        assert np.array_equal(tiny.means(np.eye(2)), np.zeros(2))

    @pytest.mark.parametrize("phi_shape, rewards_shape", [
        ((FEATURE_DIM,), (1,)),        # one row, not a batch
        ((2, FEATURE_DIM - 1), (2,)),  # wrong feature dimension
        ((2, FEATURE_DIM), (3,)),      # a reward per row
        ((2, FEATURE_DIM), ()),        # a scalar reward
    ])
    def test_batch_shape_checked(self, phi_shape, rewards_shape):
        model = BanditModel(dim=FEATURE_DIM, ridge=1.0)
        with pytest.raises(InternalError):
            model.update(np.ones(phi_shape), np.ones(rewards_shape))
        assert np.array_equal(model.A, np.eye(FEATURE_DIM))
        assert np.array_equal(model.b, np.zeros(FEATURE_DIM))

    def test_incremental_matches_batch_ridge(self):
        # Oracle: theta* = (ridge I + sum phi phi^T)^-1 (sum r phi), solved
        # directly; the model takes one observation per update.
        rng = np.random.default_rng(42)
        d, ridge = 12, 1.7
        model = BanditModel(dim=d, ridge=ridge)
        phis = rng.normal(size=(1000, d))
        rewards = rng.normal(size=1000)
        for i in range(1000):
            model.update(phis[i : i + 1], rewards[i : i + 1])
        gram = ridge * np.eye(d) + phis.T @ phis
        rhs = phis.T @ rewards
        theta_star = np.linalg.solve(gram, rhs)
        assert np.max(np.abs(model.means(np.eye(model.dim)) - theta_star)) < 1e-8

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 600),
        cuts=st.lists(st.integers(0, 600), max_size=10),
        ridge=st.sampled_from([0.5, 1.0, 2.0]),
    )
    def test_any_batch_split_matches_one_shot_ridge(self, seed, n, cuts, ridge):
        # Repeated cuts make empty batches, which must change nothing.
        rng = np.random.default_rng(seed)
        phis = rng.uniform(-1, 1, (n, FEATURE_DIM))
        rewards = rng.normal(size=n)
        bounds = sorted([0, n, *(min(c, n) for c in cuts)])
        model = BanditModel(dim=FEATURE_DIM, ridge=ridge)
        for lo, hi in zip(bounds, bounds[1:]):
            model.update(phis[lo:hi], rewards[lo:hi])
        eye = np.eye(FEATURE_DIM)
        theta_star = np.linalg.solve(ridge * eye + phis.T @ phis, phis.T @ rewards)
        assert np.max(np.abs(model.means(np.eye(model.dim)) - theta_star)) <= 1e-10
        assert np.max(np.abs(model._a_inv @ model.A - eye)) <= 1e-10

    def test_theta_consistent_with_direct_solve(self):
        rng = np.random.default_rng(1)
        model = BanditModel(dim=6, ridge=0.5)
        for _ in range(300):
            model.update(rng.normal(size=(1, 6)), rng.normal(size=1))
        assert np.max(np.abs(model.means(np.eye(model.dim)) - solve_theta(model))) < 1e-9


def _events_with_adherence(pre_rate: float, post_rate: float, epoch: int, config: PolicyConfig):
    horizon = epoch + config.w_post
    events = empty_events(horizon)
    events.first_day = 0
    pre_days = np.arange((epoch - config.w_pre) * 7, epoch * 7)
    post_days = np.arange(epoch * 7, horizon * 7)
    events.checkins[pre_days[: int(round(pre_rate * pre_days.size))]] = 1
    events.checkins[post_days[: int(round(post_rate * post_days.size))]] = 1
    return events


WEIGHTS = EngagementWeights(alphas=DEFAULT_ACTION_WEIGHTS, p5=(0.0,) * 5, p95=(10.0,) * 5)


def reward_of(events, *, epoch, churn_penalty, config):
    """The one-user batch of ``events`` through ``compute_reward``, its
    weeks scored as the simulator scores them."""
    return compute_reward(
        events.checkins[None, :],
        engagement_scores(events.action_counts, WEIGHTS)[None, :],
        np.array([0]),
        epoch=epoch,
        churn_penalties=np.array([churn_penalty]),
        config=config,
    )


class TestReward:
    def test_identical_pre_post_no_churn_is_zero(self):
        config = PolicyConfig(w_adh=1.0, w_eng=0.0, lam=0.0)
        events = _events_with_adherence(0.5, 0.5, epoch=8, config=config)
        assert reward_of(events, epoch=8, churn_penalty=0, config=config)[0] == pytest.approx(0.0)

    def test_adherence_delta(self):
        config = PolicyConfig(w_adh=1.0, w_eng=0.0, lam=0.0, w_pre=5, w_post=5)
        events = _events_with_adherence(0.4, 0.6, epoch=8, config=config)
        assert reward_of(events, epoch=8, churn_penalty=0, config=config)[0] == pytest.approx(0.2)

    def test_churn_penalty_subtracts(self):
        config = PolicyConfig(w_adh=1.0, w_eng=0.0, lam=0.5, w_pre=5, w_post=5)
        events = _events_with_adherence(0.4, 0.6, epoch=8, config=config)
        reward = reward_of(events, epoch=8, churn_penalty=1, config=config)[0]
        assert reward == pytest.approx(0.2 - 0.5)

    def test_reward_recomputable_from_components(self):
        config = PolicyConfig()
        epoch = 8
        events = _events_with_adherence(0.3, 0.7, epoch=epoch, config=config)
        events.action_counts[:] = np.arange(events.action_counts.size).reshape(-1, 5) % 7
        pre = slice(epoch - config.w_pre, epoch)
        post = slice(epoch, epoch + config.w_post)
        days = events.checkins.reshape(-1, 7)
        delta_adh = days[post].mean() - days[pre].mean()
        delta_eng = (
            engagement_scores(events.action_counts[post], WEIGHTS).mean()
            - engagement_scores(events.action_counts[pre], WEIGHTS).mean()
        )
        assert delta_adh > 0.0 and delta_eng != 0.0
        expected = config.w_adh * delta_adh + config.w_eng * delta_eng - config.lam * 1
        rewards = reward_of(events, epoch=epoch, churn_penalty=1, config=config)
        assert rewards.dtype == np.float64 and rewards.shape == (1,)
        assert rewards[0] == pytest.approx(expected, abs=1e-15)

    def test_insufficient_history_defers(self):
        config = PolicyConfig()
        events = empty_events(6)  # shorter than epoch + w_post
        assert reward_of(events, epoch=8, churn_penalty=0, config=config) is None
        assert reward_of(events, epoch=2, churn_penalty=0, config=config) is None  # epoch < w_pre

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_batch_equals_per_user_reference(self, data):
        # Each reward compares a user's own check-in days and scored weeks
        # across the two windows, as one user's reward was computed alone.
        seed = data.draw(st.integers(0, 2**32 - 1))
        n_users = data.draw(st.integers(1, 12))
        w_pre, w_post = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 12))
        horizon = data.draw(st.integers(w_post, 30))
        epoch = data.draw(st.integers(0, horizon - w_post))
        weight = st.floats(0.0, 2.0, allow_nan=False)
        config = PolicyConfig(
            w_adh=data.draw(weight), w_eng=data.draw(weight), lam=data.draw(weight),
            w_pre=w_pre, w_post=w_post,
        )
        users = np.array(
            data.draw(st.lists(st.integers(0, n_users - 1), min_size=1, max_size=n_users, unique=True)),
            dtype=np.int64,
        )
        rng = np.random.default_rng(seed)
        checkins = (rng.random((n_users, horizon * 7)) < rng.random((n_users, 1))).astype(np.int8)
        scores = rng.random((n_users, horizon))
        penalties = rng.integers(0, 2, size=users.size)
        rewards = compute_reward(
            checkins, scores, users, epoch=epoch, churn_penalties=penalties, config=config
        )
        if epoch < w_pre:
            assert rewards is None
            return
        expected = []
        for user, penalty in zip(users.tolist(), penalties.tolist()):
            pre_days = checkins[user, (epoch - w_pre) * 7 : epoch * 7]
            post_days = checkins[user, epoch * 7 : (epoch + w_post) * 7]
            pre_scores = scores[user, epoch - w_pre : epoch]
            post_scores = scores[user, epoch : epoch + w_post]
            delta_adh = float(post_days.mean() - pre_days.mean())
            delta_eng = float(post_scores.mean() - pre_scores.mean())
            expected.append(config.w_adh * delta_adh + config.w_eng * delta_eng - config.lam * penalty)
        assert rewards.tolist() == expected


class TestAssign:
    def test_dwell_locked_user_stays_with_zero_mutation(self):
        roster = make_world(seats=[(USER, "g001", 7)])
        model = BanditModel(dim=FEATURE_DIM)
        before = [a.copy() for a in (roster.group_of, roster.last_change, roster.count, roster.load)]
        decision = assign(USER_ROW, roster, model, epoch=8, config=CONFIG, tables=tables_for(roster))
        assert decision.chosen.tolist() == [roster.group_row["g001"]]
        assert not decision.changed
        after = (roster.group_of, roster.last_change, roster.count, roster.load)
        assert all(np.array_equal(a, b) for a, b in zip(before, after))
        assert roster.last_change[USER_ROW] == 7

    def test_waitlist_for_unplaced_user_with_no_feasible_group(self):
        roster = make_world(goal="maintenance")
        model = BanditModel(dim=FEATURE_DIM)
        decision = assign(USER_ROW, roster, model, 8, CONFIG, tables=tables_for(roster))
        assert decision.chosen.tolist() == [-1] and not decision.changed
        assert roster.group_of[USER_ROW] == -1
        # Nothing was scored, so the one row has no pair to learn from.
        assert decision.bounds.tolist() == [0, 0]
        assert decision.users.size == decision.phi.size == decision.penalty.size == 0

    def test_placed_user_with_no_feasible_alternative_stays(self):
        roster = make_world(n_groups=1, goal="maintenance", seats=[(USER, "g000", 0)])
        model = BanditModel(dim=FEATURE_DIM)
        decision = assign(USER_ROW, roster, model, 8, CONFIG, tables=tables_for(roster))
        assert decision.chosen.tolist() == [roster.group_row["g000"]]
        assert not decision.changed
        assert decision.bounds.tolist() == [0, 0] and decision.users.size == 0

    def test_mutation_and_trace_on_change(self):
        roster = make_world(
            seats=[(USER, "g001", 0)],
            goal_of={gid: "maintenance" for gid in ("g001", "g002")},
        )
        model = BanditModel(dim=FEATURE_DIM)
        decision = assign(USER_ROW, roster, model, 8, CONFIG, tables=tables_for(roster))
        assert decision.chosen.tolist() == [roster.group_row["g000"]]
        assert decision.changed
        assert decision.start == decision.users[0] == USER_ROW
        assert roster.group_ids[roster.group_of[USER_ROW]] == "g000"
        assert roster.count.tolist() == [1, 0, 0]
        assert roster.last_change[USER_ROW] == 8
        # Read back through the trace line, as a coach's tool reads it.
        line = _pass_lines(decision, 8, roster)
        trace = decode_trace_line(line, legend_of(roster.group_ids, CONFIG))
        assert trace == trace_dict(decision, 8, roster)
        assert trace["user_token"] == USER and trace["chosen"] == "g000"
        assert set(trace) == {"epoch", "user_token", "candidates", "chosen", "changed"}
        by_group = {c["group"]: c for c in trace["candidates"]}
        assert by_group["g000"]["feasible"]
        assert by_group["g000"]["score"] is not None
        assert not by_group["g001"]["feasible"]
        assert by_group["g001"]["reasons"] == ["goal_mismatch"]
        assert by_group["g001"]["score"] is None

    def test_goal_codes_and_features_follow_the_tables(self):
        # The epoch's tables are the one source of a user's goal: the goal
        # bits of the reason codes and the goal parts of the scored row
        # both follow tables.goal[user], user by user.
        groups = [(f"g{g:03d}", "c00", 5, goal) for g, goal in enumerate(GOAL_CATEGORIES)]
        tokens = [f"{u:02x}" * 32 for u in range(len(GOAL_CATEGORIES))]
        roster = make_roster(groups, {"c00": 50}, tokens)
        goals = np.array([2, 0, 3, 1])
        n = goals.size
        tables = feature_tables(
            ContextBatch(
                user_tokens=[UserToken(token) for token in tokens], epoch=8,
                numeric=np.full((n, 5), 0.5), goal=goals, streak=np.zeros(n), slope=np.zeros(n),
            ),
            roster,
        )
        model = BanditModel(dim=FEATURE_DIM)
        for user, goal in enumerate(goals.tolist()):
            decision = assign(user, roster, model, 8, CONFIG, tables=tables)
            assert decision.start == user
            goal_bits = decision.codes[0] & CODE_GOAL != 0
            assert goal_bits.tolist() == (roster.goal_index != goal).tolist()
            assert roster.goal_index[decision.chosen].tolist() == [goal]
            onehot = np.eye(len(GOAL_CATEGORIES))[goal].tolist()
            (phi,) = decision.phi
            assert phi[N_NUMERIC : N_NUMERIC + len(GOAL_CATEGORIES)].tolist() == onehot
            assert phi[-len(GOAL_CATEGORIES) :].tolist() == onehot  # goal interaction

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_feasibility_safety_under_random_worlds(self, data):
        goals = ("weight_loss", "healthy_eating", "maintenance", "fitness")
        n_coaches = data.draw(st.integers(1, 3))
        specs = data.draw(
            st.lists(
                st.tuples(st.integers(1, 4), st.sampled_from(goals)),
                min_size=1, max_size=6,
            )
        )
        groups = [
            (f"g{i:03d}", f"c{i % n_coaches:02d}", capacity, goal)
            for i, (capacity, goal) in enumerate(specs)
        ]
        coaches = {f"c{c:02d}": data.draw(st.integers(1, 8)) for c in range(n_coaches)}
        user_goals = data.draw(st.lists(st.sampled_from(goals), min_size=1, max_size=12))
        tokens = [f"{u:02x}" * 32 for u in range(len(user_goals))]
        roster = make_roster(groups, coaches, tokens)
        dwell = data.draw(st.integers(0, 4))
        config = PolicyConfig(dwell=dwell, oscillation=dwell + data.draw(st.integers(0, 4)))
        start = data.draw(st.integers(0, 10))
        steps = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=6))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        model = BanditModel(dim=FEATURE_DIM)
        last_move = {}
        epoch = start
        for step in steps:
            epoch += step
            contexts = ContextBatch(
                user_tokens=[UserToken(token) for token in tokens],
                epoch=epoch,
                numeric=rng.random((len(tokens), 5)),
                goal=[goals.index(goal) for goal in user_goals],
                streak=rng.integers(0, 10, size=len(tokens)),
                slope=rng.normal(size=len(tokens)) * 0.1,
            )
            tables = feature_tables(contexts, roster)
            for u in data.draw(st.permutations(range(len(tokens)))):
                decision = assign(u, roster, model, epoch, config, tables=tables)
                if decision.changed:
                    if u in last_move:
                        assert epoch - last_move[u] >= dwell
                    last_move[u] = epoch
                assert decision.chosen.tolist() == [roster.group_of[u]]
                seated = roster.group_of[roster.group_of >= 0]
                count = np.bincount(seated, minlength=len(groups))
                load = np.bincount(roster.coach_of[seated], minlength=n_coaches)
                assert np.array_equal(count, roster.count)
                assert np.array_equal(load, roster.load)
                assert (roster.count <= roster.capacity).all()
                assert (roster.load <= roster.load_limit).all()


class TestRosterArrays:
    # Groups g10 and g09, coaches c1 and c0, each in the caller's order.
    ARRAYS = dict(capacity=[2, 3], goal_index=[0, 3], coach_of=[1, 0], load_limit=[5, 6])

    def make(self, group_ids=("g10", "g09"), coach_ids=("c1", "c0"), **edits):
        return Roster(list(group_ids), list(coach_ids), ["aa" * 32], **{**self.ARRAYS, **edits})

    def test_rows_follow_sorted_ids(self):
        roster = self.make()
        assert roster.group_ids == ["g09", "g10"] and roster.coach_ids == ["c0", "c1"]
        assert roster.group_row == {"g09": 0, "g10": 1}
        assert roster.capacity.tolist() == [3, 2]
        assert roster.goal_index.tolist() == [3, 0]
        # g09's coach is c1 and g10's is c0, as coach rows.
        assert roster.coach_of.tolist() == [1, 0]
        assert roster.load_limit.tolist() == [6, 5]
        assert roster.goal_code[0].tolist() == [CODE_GOAL, 0]

    def test_caller_arrays_are_copied(self):
        capacity = np.array([2, 3])
        roster = self.make(capacity=capacity)
        capacity[:] = 1
        assert roster.capacity.tolist() == [3, 2]

    @pytest.mark.parametrize("edit, match", [
        (dict(capacity=[0, 3]), "capacity must be at least 1"),
        (dict(goal_index=[0, len(GOAL_CATEGORIES)]), "unknown goal"),
        (dict(goal_index=[-1, 0]), "unknown goal"),
        (dict(coach_of=[2, 0]), "unknown coach"),
        (dict(coach_of=[0, -1]), "unknown coach"),
        (dict(capacity=[2]), "per group"),
        (dict(load_limit=[5, 6, 7]), "per coach"),
        (dict(group_ids=("g10", "g10")), "distinct"),
        (dict(coach_ids=("c0", "c0")), "distinct"),
    ])
    def test_bad_static_arrays_rejected(self, edit, match):
        with pytest.raises(ValidationError, match=match):
            self.make(**edit)


class TestRosterMove:
    def make(self, capacity=2, coach_limit=10):
        groups = [("g000", "c00", capacity, "fitness"), ("g001", "c01", capacity, "fitness")]
        return make_roster(groups, {"c00": coach_limit, "c01": coach_limit}, ["u0", "u1", "u2"])

    def assert_raises_unchanged(self, roster, *move_args):
        before = [a.copy() for a in (roster.group_of, roster.last_change, roster.count, roster.load)]
        with pytest.raises(ConstraintViolationError):
            roster.move(*move_args)
        after = (roster.group_of, roster.last_change, roster.count, roster.load)
        assert all(np.array_equal(a, b) for a, b in zip(before, after))

    def test_move_updates_every_counter(self):
        roster = self.make()
        roster.move(0, 0, 0, dwell=4)
        roster.move(0, 1, 4, dwell=4)
        assert roster.group_of.tolist() == [1, -1, -1]
        assert roster.last_change.tolist() == [4, 0, 0]
        assert roster.count.tolist() == [0, 1]
        assert roster.load.tolist() == [0, 1]

    def test_capacity_breach_raises(self):
        roster = self.make(capacity=1)
        roster.move(0, 0, 0, dwell=0)
        self.assert_raises_unchanged(roster, 1, 0, 0, 0)

    def test_coach_load_breach_raises(self):
        roster = self.make(coach_limit=1)
        roster.move(0, 0, 0, dwell=0)
        roster.move(1, 1, 0, dwell=0)
        self.assert_raises_unchanged(roster, 2, 1, 0, 0)

    def test_dwell_breach_raises_counting_from_initial_placement(self):
        roster = self.make()
        roster.move(0, 0, 0, dwell=4)
        self.assert_raises_unchanged(roster, 0, 1, 3, 4)
        roster.move(0, 1, 4, dwell=4)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_kept_fullness_matches_recount(self, data):
        # Small capacities and load limits, so groups fill and coaches hit
        # their limit; refused moves change nothing.
        n_coaches = data.draw(st.integers(1, 3))
        capacities = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=5))
        groups = [(f"g{i:03d}", f"c{i % n_coaches:02d}", c, "fitness") for i, c in enumerate(capacities)]
        coaches = {f"c{c:02d}": data.draw(st.integers(0, 5)) for c in range(n_coaches)}
        n_users = data.draw(st.integers(1, 10))
        roster = make_roster(groups, coaches, [f"{u:02x}" * 32 for u in range(n_users)])
        config = PolicyConfig(dwell=0, oscillation=0)
        moves = st.tuples(st.integers(0, n_users - 1), st.integers(0, len(groups) - 1))
        for user, group in data.draw(st.lists(moves, max_size=30)):
            try:
                roster.move(user, group, 0, dwell=0)
            except ConstraintViolationError:
                pass
            assert np.array_equal(roster.fill, roster.count / roster.capacity)
            for u in range(n_users):
                capacity_full, coach_full = reference_full_for(roster, u)
                if roster.group_of[u] < 0:
                    assert np.array_equal(roster.capacity_code != 0, capacity_full)
                    assert np.array_equal(roster.load_code[roster.coach_of] != 0, coach_full)
                codes = feasibility_report(u, FITNESS, roster, 0, config).codes
                assert np.array_equal(codes & CODE_CAPACITY != 0, capacity_full)
                assert np.array_equal(codes & CODE_COACH_LOAD != 0, coach_full)

    def test_coach_load_is_a_counter_read(self):
        roster = self.make()
        roster.move(0, 0, 0, dwell=0)
        roster.move(1, 0, 0, dwell=0)
        # The benchmark counts calls to CoachState.load, so it must still read the counter.
        assert CoachState.load(roster, 0) == 2
        assert CoachState.load(roster, 1) == 0
