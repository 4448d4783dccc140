"""Simulator tests: seeded determinism, behavioral dynamics, paired-arm
properties, output privacy, and the comparison table."""

import base64
import json
import os
import pathlib
from collections import defaultdict
from dataclasses import replace
from datetime import datetime
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from conftest import (
    ENC_KEY_HEX,
    TOKEN_KEY_HEX,
    deid_dict,
    identity_at,
    make_roster,
    reference_identity,
    reference_intake,
    reference_place_initially,
    reference_poisson,
    registered_identity_strings,
    score_of,
)
from test_cli import _small_scenarios
from test_golden import GOLDEN

from prism.assignment import (
    GOAL_CATEGORIES,
    REASONS_OF_CODE,
    CandidateScores,
    PolicyConfig,
    _decide_stretch,
    decide_epoch,
)
from prism.errors import ValidationError
from prism.metrics import MetricsReport
from prism.redaction import (
    DeidPool,
    RuleSet,
    default_rules,
    redact,
)
from prism.simulator import (
    Scenario,
    TraceLegend,
    compare_arms,
    generate_cohort,
    poisson_from_uniform,
    run_experiment,
    run_paired,
    sigmoid,
    step_week,
    group_activity_flags,
)
from prism import assignment
from prism.simulator import experiment
from prism.simulator import world as world_module
from prism.simulator.scenario import (
    MAX_GROUPS_OR_COACHES,
    MAX_USER_WEEKS,
    POISSON_RATE_MAX,
    synth_identities,
)
from prism.simulator.world import (
    _RESTORE_SPACING_SECONDS,
    _STREAM_COHORT,
    SIM_EPOCH_BASE,
    _place_initially,
    coach_load_limits,
    group_engagement_means,
    substream,
)
from prism.vault import (
    RATE_LIMIT_GRANTS,
    RATE_LIMIT_WINDOW_SECONDS,
    AuditLog,
    KeyRing,
    RestorationRequest,
    UserToken,
    Vault,
    verify_audit_chain,
)


def small_scenario(**overrides):
    base = dict(
        name="unit",
        seed=11,
        n_users=60,
        n_groups=6,
        n_coaches=2,
        capacity_min=12,
        capacity_max=16,
        horizon_weeks=15,
        w_pre=6,
        w_post=8,
    )
    base.update(overrides)
    return Scenario(**base)


def cohort_fingerprint(world) -> str:
    roster = world.roster
    doc = {
        "tokens": [token.value for token in world.tokens],
        "draws": [
            a.tolist()
            for a in (world.goal_index, world.base_logit, world.fatigue_rate, world.engagement_rates)
        ],
        "groups": [
            roster.group_ids, roster.coach_of.tolist(), roster.capacity.tolist(),
            roster.goal_index.tolist(),
        ],
        "coaches": [roster.coach_ids, roster.load_limit.tolist()],
        "placement": [roster.group_of.tolist(), roster.last_change.tolist()],
    }
    return json.dumps(doc, sort_keys=True)


def goal_matched(world) -> np.ndarray:
    """Per user: does their group's goal equal their own."""
    return world.roster.goal_index[world.roster.group_of] == world.goal_index


def iter_traces(out_dir):
    """A run's trace lines decoded to the schema-2 fields with its manifest."""
    manifest = json.loads(pathlib.Path(out_dir, "manifest.json").read_text(encoding="utf-8"))
    legend = TraceLegend.from_manifest(manifest)
    with open(os.path.join(out_dir, "traces.jsonl"), encoding="utf-8") as fh:
        for line in fh:
            yield legend.decode(line)


def read_traces(out_dir) -> list[dict]:
    return list(iter_traces(out_dir))


class TestGeneration:
    def test_same_seed_same_cohort(self, keys):
        scenario = small_scenario(seed=42)
        a = cohort_fingerprint(generate_cohort(scenario, keys))
        b = cohort_fingerprint(generate_cohort(scenario, keys))
        assert a == b

    def test_different_seed_different_cohort(self, keys):
        a = cohort_fingerprint(generate_cohort(small_scenario(seed=1), keys))
        b = cohort_fingerprint(generate_cohort(small_scenario(seed=2), keys))
        assert a != b

    def test_capacity_feasible(self, keys):
        scenario = small_scenario(n_users=100, n_groups=10, capacity_min=12, capacity_max=12)
        world = generate_cohort(scenario, keys)
        assert world.roster.count.sum() == 100
        assert (world.roster.group_of >= 0).all()

    def test_over_capacity_rejected(self, keys):
        scenario = small_scenario(n_users=200, n_groups=10, capacity_min=15, capacity_max=15)
        with pytest.raises(ValidationError, match="capacity"):
            generate_cohort(scenario, keys)

    def test_all_users_tokenized_through_vault(self, keys):
        world = generate_cohort(small_scenario(), keys)
        for user, token in enumerate(world.tokens):
            result = world.vault.restore_identity(
                RestorationRequest(f"coach-{user}", "coach", True, token, "check")
            )
            assert result.granted
            assert result.fields == world._raw_identities[user]

    def test_user_weeks_bounded_before_any_array(self):
        users = MAX_USER_WEEKS // 20
        assert Scenario(n_users=users, horizon_weeks=20).n_users == users
        with pytest.raises(ValidationError, match="n_users \\* horizon_weeks"):
            Scenario(n_users=users + 1, horizon_weeks=20)

    @pytest.mark.parametrize("field", ["n_groups", "n_coaches"])
    def test_groups_and_coaches_bounded_before_any_array(self, field):
        assert getattr(Scenario(**{field: MAX_GROUPS_OR_COACHES}), field) == MAX_GROUPS_OR_COACHES
        with pytest.raises(ValidationError, match="n_groups and n_coaches"):
            Scenario(**{field: MAX_GROUPS_OR_COACHES + 1})

    @settings(max_examples=200, deadline=None)
    @given(
        capacities=st.lists(st.integers(1, 2**62), min_size=1, max_size=40),
        n_coaches=st.integers(1, 50),
        load_factor=st.floats(0.01, 1.0),
    )
    def test_coach_load_limits_match_per_coach_sums(self, capacities, n_coaches, load_factor):
        # Capacities up to 2**62 would lose digits in a float sum.
        limits = coach_load_limits(capacities, n_coaches, load_factor)
        for coach, limit in enumerate(limits):
            cap_sum = sum(c for g, c in enumerate(capacities) if g % n_coaches == coach)
            assert limit == max(1, int(np.floor(load_factor * cap_sum)))
        assert len(limits) == n_coaches

    def test_rows_follow_sorted_ids_beyond_1000_groups(self, keys):
        # Past g999 and c99 the ids no longer sort in generation order:
        # g1000 sorts between g100 and g101, and c100 between c10 and c11.
        scenario = small_scenario(
            n_users=400, n_groups=1001, n_coaches=111, capacity_min=1, capacity_max=6,
            coach_load_factor=0.8,
        )
        roster = generate_cohort(scenario, keys).roster
        assert roster.group_ids == sorted(f"g{g:03d}" for g in range(1001))
        assert roster.coach_ids == sorted(f"c{c:02d}" for c in range(111))
        assert roster.group_ids[101] == "g1000" and roster.coach_ids[11] == "c100"
        # Group g's capacity is the g-th draw of the cohort stream, its
        # goal g % 4 and its coach c{g % n_coaches}; coach c's load limit
        # comes from the capacities of its groups.
        capacities = substream(scenario.seed, _STREAM_COHORT).integers(1, 7, 1001).tolist()
        limits = coach_load_limits(capacities, 111, 0.8)
        for row, gid in enumerate(roster.group_ids):
            g = int(gid[1:])
            assert roster.capacity[row] == capacities[g]
            assert roster.goal_index[row] == g % len(GOAL_CATEGORIES)
            assert roster.coach_ids[roster.coach_of[row]] == f"c{g % 111:02d}"
        for row, cid in enumerate(roster.coach_ids):
            assert roster.load_limit[row] == limits[int(cid[1:])]

    def test_misgroup_fraction_realized(self, keys):
        world = generate_cohort(
            small_scenario(n_users=200, n_groups=8, capacity_min=32, capacity_max=40,
                           misgroup_fraction=0.3),
            keys,
        )
        mismatched = (~goal_matched(world)).sum()
        assert 0.2 <= mismatched / 200 <= 0.4


def _generators(seed, warmup):
    """Two generators in one state, part way through a stream: ``warmup``
    draws of each kind leave a half-used 32-bit word behind at odd counts."""
    pair = []
    for _ in range(2):
        rng = np.random.default_rng(seed)
        rng.random(warmup)
        rng.integers(10, size=warmup)
        pair.append(rng)
    return pair


def _intake_scenarios():
    """Scenario documents that ``Scenario`` accepts, with small sizes."""
    def accepted(doc):
        try:
            return Scenario.from_dict(doc)
        except ValidationError:
            return None

    return _small_scenarios().map(accepted).filter(lambda scenario: scenario is not None)


class TestCohortDraws:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        warmup=st.integers(0, 3),
        n=st.integers(0, 12),
        index=st.integers(0, 10**9),
    )
    def test_identity_equals_scalar_draws(self, seed, warmup, n, index):
        rng, reference = _generators(seed, warmup)
        assert synth_identities(rng, n) == [reference_identity(reference, i) for i in range(n)]
        # A row far into a cohort, as the redaction properties draw it.
        assert identity_at(rng, index) == reference_identity(reference, index)
        assert rng.bit_generator.state == reference.bit_generator.state

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), warmup=st.integers(0, 5))
    def test_registration_draw_equals_subject_then_nonce(self, seed, warmup):
        # A registration draws its 16 subject-id bytes and 12 nonce bytes in
        # one call; both are whole 32-bit words, so the bytes and the state
        # after them are those of two calls.
        rng, reference = _generators(seed, warmup)
        for _ in range(3):
            assert rng.bytes(28) == reference.bytes(16) + reference.bytes(12)
        assert rng.bit_generator.state == reference.bit_generator.state

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(scenario=_intake_scenarios())
    @example(scenario=small_scenario(engagement_rate_means=(0.0, 0.0, 0.0, 0.0, 400.0)))
    @example(scenario=small_scenario(n_users=200, n_groups=10, capacity_min=15, capacity_max=15))
    def test_intake_equals_reference(self, keys, scenario):
        ref = reference_intake(scenario, keys)
        n = scenario.n_users
        with mock.patch.object(Vault, "register", autospec=True, side_effect=Vault.register) as register:
            try:
                world = generate_cohort(scenario, keys)
            except ValidationError as exc:
                message = str(exc)
                event(message.split(":")[0])
                limits = coach_load_limits(ref.capacities, scenario.n_coaches, scenario.coach_load_factor)
                bonus = max(1.0, 1.0 + scenario.engagement_match_bonus)
                if n > sum(ref.capacities) or n > sum(limits):
                    assert "constraint infeasible" in message
                elif ref.engagement_rates.max() * bonus > POISSON_RATE_MAX:
                    assert "Poisson draw's limit" in message
                else:
                    assert message.startswith("placement infeasible")
                    assert register.call_count == n
                    return
                # Every check on the draws raises before the first registration.
                assert register.call_count == 0
                return
        event("generated")
        assert register.call_count == n
        assert [token.value for token in world.tokens] == ref.tokens
        assert list(world.vault._records.items()) == list(ref.vault._records.items())
        assert world._raw_identities == tuple(ref.identities)
        for got, want in (
            (world.goal_index, ref.goal_index),
            (world.base_logit, ref.base_logit),
            (world.fatigue_rate, ref.fatigue_rate),
            (world.engagement_rates, ref.engagement_rates),
            (world.weights_kg[:, 0], ref.weights_start),
        ):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        roster = world.roster
        assert [roster.capacity[roster.group_ids.index(f"g{g:03d}")] for g in range(scenario.n_groups)] == ref.capacities
        for row, token in enumerate(world.tokens):
            assert world.vault._decrypt(world.vault._records[token.value]) == world._raw_identities[row]
        # One clock tick per registration: the next tick is the n-th.
        assert world.clock() == SIM_EPOCH_BASE + n * _RESTORE_SPACING_SECONDS

    def test_collision_retry_reads_past_the_block(self, keys, monkeypatch):
        # Every row's block draw is row 0's, so each later row collides
        # once and retries from the cohort stream after the block.
        scenario = small_scenario(n_users=30)

        class Repeating(world_module._IntakeEntropy):
            first = None

            def __call__(self, size):
                if self.pending is not None:
                    self.first = self.first or self.pending
                    self.pending = self.first
                return super().__call__(size)

        monkeypatch.setattr(world_module, "_IntakeEntropy", Repeating)
        a, b = generate_cohort(scenario, keys), generate_cohort(scenario, keys)
        tokens = [token.value for token in a.tokens]
        assert len(set(tokens)) == scenario.n_users
        assert cohort_fingerprint(a) == cohort_fingerprint(b)
        assert list(a.vault._records.items()) == list(b.vault._records.items())
        ref = reference_intake(scenario, keys)
        draws = [ref.block[:28]] + [ref.rng.bytes(28) for _ in range(scenario.n_users - 1)]
        assert [a.vault._records[token][:12] for token in tokens] == [d[16:] for d in draws]
        assert tokens[0] == ref.tokens[0]
        for row, token in enumerate(tokens):
            assert a.vault._decrypt(a.vault._records[token]) == a._raw_identities[row]

    def test_integer_goal_weights(self, keys):
        world = generate_cohort(small_scenario(goal_weights=(0, 1, 0, 0)), keys)
        assert (world.goal_index == 1).all()

    def test_drawn_rate_over_poisson_limit_rejected(self, keys):
        # The mean matched rate, 400 * 1.5, is within the limit; the spread
        # of 60 users' drawn rates is not.
        scenario = small_scenario(engagement_rate_means=(0.0, 0.0, 0.0, 0.0, 400.0))
        with pytest.raises(ValidationError, match="Poisson draw's limit"):
            generate_cohort(scenario, keys)


def _placement_world(
    goals, group_goals, capacities, n_coaches, load_factor, seated, seed, misgroup
):
    """A stand-in world for initial placement: ``len(goals)`` users to place,
    and after them one more row per entry of ``seated``, each seated in that
    group beforehand where its group and coach have room, so groups can
    start full and coaches at their load limit."""
    groups = [
        (f"g{g:03d}", f"c{g % n_coaches:02d}", capacity, GOAL_CATEGORIES[group_goals[g]])
        for g, capacity in enumerate(capacities)
    ]
    limits = coach_load_limits(capacities, n_coaches, load_factor)
    coaches = {f"c{c:02d}": limit for c, limit in enumerate(limits)}
    n = len(goals)
    roster = make_roster(groups, coaches, [f"{row:064x}" for row in range(n + len(seated))])
    for row, group in enumerate(seated, start=n):
        coach = roster.coach_of[group]
        has_room = roster.count[group] < roster.capacity[group]
        if has_room and roster.load[coach] < roster.load_limit[coach]:
            roster.move(row, group, 0, dwell=0)
    return SimpleNamespace(
        scenario=SimpleNamespace(seed=seed, misgroup_fraction=misgroup),
        roster=roster,
        goal_index=np.array(goals, dtype=np.int64),
        n_users=n,
    )


@st.composite
def _placement_cases(draw):
    n_groups = draw(st.integers(1, 8))
    goal = st.integers(0, len(GOAL_CATEGORIES) - 1)
    return dict(
        goals=draw(st.lists(goal, max_size=40)),
        group_goals=draw(st.lists(goal, min_size=n_groups, max_size=n_groups)),
        capacities=draw(st.lists(st.integers(1, 8), min_size=n_groups, max_size=n_groups)),
        n_coaches=draw(st.integers(1, 4)),
        load_factor=draw(st.sampled_from([0.3, 0.6, 1.0, 1.5])),
        seated=draw(st.lists(st.integers(0, n_groups - 1), max_size=30)),
        seed=draw(st.integers(0, 2**32 - 1)),
        misgroup=draw(st.sampled_from([0.0, 0.3, 1.0]) | st.floats(0.0, 1.0)),
    )


def _placed(place, case):
    world = _placement_world(**case)
    try:
        place(world)
        outcome = "placed"
    except ValidationError as exc:
        outcome = str(exc)
    roster = world.roster
    state = (roster.group_of, roster.last_change, roster.count, roster.load,
             roster.capacity_code, roster.load_code, roster.fill)
    return outcome, [a.tolist() for a in state], getattr(world, "_audited", None)


class TestInitialPlacement:
    @settings(max_examples=300, deadline=None)
    @given(case=_placement_cases())
    def test_equals_per_user_reference(self, case):
        outcome, state, audited = _placed(_place_initially, case)
        ref_outcome, ref_state, ref_audited = _placed(reference_place_initially, case)
        assert (outcome, state) == (ref_outcome, ref_state)
        if outcome == "placed":
            assert [a.tolist() for a in audited] == [a.tolist() for a in ref_audited]

    @pytest.mark.parametrize(
        "case, expect",
        [
            # Every group full before the first user: infeasible at once.
            (dict(goals=[0, 1], group_goals=[0, 1], capacities=[1, 2], n_coaches=1,
                  load_factor=1.0, seated=[0, 1, 1], seed=3, misgroup=0.3), "infeasible"),
            # The coach is at their limit while groups still have seats.
            (dict(goals=[0, 1, 2, 3, 0], group_goals=[0, 1, 2, 3], capacities=[4, 4, 4, 4],
                  n_coaches=2, load_factor=0.3, seated=[], seed=5, misgroup=0.3), "infeasible"),
            # Groups fill and reopen nothing: everyone placed, some mismatched.
            (dict(goals=[0] * 6, group_goals=[0, 1, 2], capacities=[2, 2, 2], n_coaches=3,
                  load_factor=1.0, seated=[], seed=9, misgroup=0.0), "placed"),
        ],
    )
    def test_full_groups_coach_limits_and_infeasible(self, case, expect):
        outcome, state, _ = _placed(_place_initially, case)
        assert (outcome, state) == _placed(reference_place_initially, case)[:2]
        assert (outcome == "placed") == (expect == "placed")


class TestPrimitives:
    def test_sigmoid_midpoint(self):
        assert sigmoid(np.array([0.0]))[0] == pytest.approx(0.5)

    def test_poisson_inverse_cdf_matches_distribution(self):
        rng = np.random.default_rng(5)
        u = rng.random(200_000)
        lam = np.full(200_000, 3.0)
        draws = poisson_from_uniform(u, lam)
        assert draws.mean() == pytest.approx(3.0, abs=0.02)
        assert draws.var() == pytest.approx(3.0, abs=0.1)

    def test_poisson_zero_rate(self):
        u = np.random.default_rng(0).random(100)
        assert (poisson_from_uniform(u, np.zeros(100)) == 0).all()

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.sampled_from([(0,), (1,), (7,), (40, 5), (3, 1, 4)]),
        high=st.sampled_from([1e-9, 1.0, 10.0, POISSON_RATE_MAX]),
        top=st.booleans(),
    )
    def test_poisson_matches_whole_array_reference(self, seed, shape, high, top):
        # Rates up to the Scenario limit, zeros included; uniforms from the
        # 2**-53 grid a stream gives, its two ends included. Near the top
        # end the summed pmf stops growing below u, and both draw there.
        rng = np.random.default_rng(seed)
        lam = rng.uniform(0.0, high, shape) * (rng.random(shape) < 0.9)
        u = rng.random(shape)
        u.flat[: u.size // 7] = 0.0
        if top and u.size:
            tops = 1.0 - 2.0 ** -np.arange(53, 45, -1)
            u.flat[-tops.size:] = tops[-u.size:]
        got = poisson_from_uniform(u, lam)
        assert got.dtype == np.int64 and got.shape == shape
        assert np.array_equal(got, reference_poisson(u, lam))

    @pytest.mark.parametrize("lam, stop", [(0.1, 10), (50.0, 119), (POISSON_RATE_MAX, 927)])
    def test_poisson_top_uniform_draws_where_the_sum_stops(self, lam, stop):
        # The summed pmf stops growing below 1 - 2**-53 at these rates.
        u = np.array([0.5, 1.0 - 2.0**-53])
        draws = poisson_from_uniform(u, np.full(2, lam))
        assert draws[1] == stop and draws[0] < stop

    def test_poisson_rate_past_the_float_range_raises(self):
        # exp(-rate) underflows to 0, so the sum never starts.
        with pytest.raises(ValidationError, match="poisson rate too large"):
            poisson_from_uniform(np.array([0.5]), np.array([800.0]))

    def test_poisson_elementwise_pairing(self):
        # Same uniform, same rate -> same draw regardless of neighbors.
        rng = np.random.default_rng(9)
        u = rng.random(50)
        lam_a = np.full(50, 2.0)
        lam_b = lam_a.copy()
        lam_b[10] = 9.0  # only this element may differ
        a = poisson_from_uniform(u, lam_a)
        b = poisson_from_uniform(u, lam_b)
        mask = np.ones(50, dtype=bool)
        mask[10] = False
        assert (a[mask] == b[mask]).all()


class TestBehaviorModel:
    def test_neutral_world_checkin_rate_half(self, keys):
        scenario = small_scenario(
            n_users=400,
            n_groups=8,
            capacity_min=60,
            capacity_max=70,
            base_logit_mean=0.0,
            base_logit_sd=0.0,
            match_uplift=0.0,
            activity_uplift=0.0,
            fatigue_mean=0.0,
            noise_sd=0.0,
        )
        world = generate_cohort(scenario, keys)
        for epoch in range(6):
            step_week(world, epoch, group_activity_flags(world, epoch))
        rate = world.checkins[:, : 6 * 7].mean()
        assert rate == pytest.approx(0.5, abs=0.02)

    def test_fatigue_makes_adherence_non_increasing(self, keys):
        scenario = small_scenario(
            n_users=1000,
            n_groups=10,
            capacity_min=110,
            capacity_max=130,
            horizon_weeks=12,
            w_pre=4,
            w_post=8,
            base_logit_mean=0.0,
            base_logit_sd=0.3,
            match_uplift=0.0,
            fatigue_mean=0.08,
            noise_sd=0.0,
        )
        world = generate_cohort(scenario, keys)
        weekly = []
        for epoch in range(12):
            step_week(world, epoch, group_activity_flags(world, epoch))
            weekly.append(world.checkins[:, epoch * 7 : (epoch + 1) * 7].mean())
        slope = np.polyfit(np.arange(12), weekly, 1)[0]
        assert slope < -0.005
        assert weekly[-1] < weekly[0]

    def test_goal_match_raises_adherence(self, keys):
        scenario = small_scenario(
            n_users=600,
            n_groups=6,
            capacity_min=120,
            capacity_max=140,
            misgroup_fraction=0.5,
            match_uplift=1.0,
            base_logit_sd=0.0,
            noise_sd=0.0,
            fatigue_mean=0.0,
        )
        world = generate_cohort(scenario, keys)
        for epoch in range(6):
            step_week(world, epoch, group_activity_flags(world, epoch))
        rate = world.checkins[:, : 6 * 7].mean(axis=1)
        matched = goal_matched(world)
        assert np.mean(rate[matched]) > np.mean(rate[~matched]) + 0.15


class TestGroupAggregates:
    """The row-aligned group aggregates against a per-group reference."""

    @staticmethod
    def reference(world, epoch):
        unscored = epoch == 0 or np.isnan(world.weekly_scores[:, epoch - 1]).all()
        flags, means = [], []
        for g in range(len(world.roster.group_ids)):
            members = np.flatnonzero(world.roster.group_of == g)
            scores = world.weekly_scores[members, epoch - 1]
            if members.size == 0:
                flags.append(False)
                means.append(0.5)
                continue
            mean = float(np.mean(scores))
            flags.append(unscored or mean >= world.scenario.activity_threshold)
            means.append(0.5 if epoch == 0 or np.isnan(scores).all() else float(np.nanmean(scores)))
        return flags, means

    def test_match_per_group_reference(self, keys):
        world = generate_cohort(
            small_scenario(n_users=12, n_groups=8, activity_threshold=0.5), keys
        )
        assert (world.roster.count == 0).any()
        rng = np.random.default_rng(3)
        scores = rng.random(world.weekly_scores.shape)
        scores[rng.random(scores.shape) < 0.3] = np.nan
        scores[:, 2] = np.nan
        world.weekly_scores[:] = scores
        for epoch in range(6):
            flags, means = self.reference(world, epoch)
            assert group_activity_flags(world, epoch).tolist() == flags
            assert group_engagement_means(world, epoch).tolist() == means


class TestRunExperiment:
    def test_no_pre_period_engagement_stops_at_the_freeze(self, keys):
        # Rates this small draw no action in 60 users' pre-period weeks.
        scenario = small_scenario(engagement_rate_means=(1e-9, 0.0, 0.0, 0.0, 0.0))
        with mock.patch.object(experiment, "step_week", wraps=experiment.step_week) as weeks:
            with pytest.raises(ValidationError, match="pre-period mean engagement must be positive"):
                run_experiment(scenario, keys)
        assert weeks.call_count == scenario.w_pre

    def test_static_stationary_world_eng_index_near_one(self, keys):
        scenario = small_scenario(
            policy="static", match_uplift=0.0, fatigue_mean=0.0, engagement_match_bonus=0.0
        )
        report = run_experiment(scenario, keys)
        assert report.eng_index == pytest.approx(1.0, abs=0.05)
        assert report.reassignments == 0
        assert report.decisions == 0

    def test_adaptive_beats_static_on_one_seed(self, keys):
        static, adaptive = run_paired(
            small_scenario(seed=101, n_users=150, n_groups=8, capacity_min=24, capacity_max=30),
            keys,
        )
        assert adaptive.adherence_post > static.adherence_post
        assert adaptive.eng_index > static.eng_index
        assert adaptive.reassignments > 0

    def test_zero_effects_arms_identical(self, keys):
        scenario = small_scenario(
            seed=55, match_uplift=0.0, activity_uplift=0.0, engagement_match_bonus=0.0
        )
        static, adaptive = run_paired(scenario, keys)
        assert adaptive.adherence_post == pytest.approx(static.adherence_post, abs=1e-12)
        assert adaptive.adherence_pre == static.adherence_pre

    def test_churn_penalty_reduces_reassignments(self, keys):
        scenario = small_scenario(seed=77, n_users=120, n_groups=8, capacity_min=20, capacity_max=26)
        base = PolicyConfig(lam=0.0)
        penalized = PolicyConfig(lam=0.5)
        adaptive_base = run_experiment(scenario, keys, policy=base)
        adaptive_pen = run_experiment(scenario, keys, policy=penalized)
        assert adaptive_pen.reassignments <= adaptive_base.reassignments

    def test_dwell_respected_in_traces(self, keys, tmp_path):
        # Counted from the initial placement at epoch 0, as the filter does.
        scenario = small_scenario(seed=13, policy="adaptive")
        run_experiment(scenario, keys, out_dir=str(tmp_path))
        dwell = PolicyConfig().dwell
        last_change = {token.value: 0 for token in generate_cohort(scenario, keys).tokens}
        moves = 0
        for trace in read_traces(tmp_path):
            if trace["changed"]:
                assert trace["epoch"] - last_change[trace["user_token"]] >= dwell
                last_change[trace["user_token"]] = trace["epoch"]
                moves += 1
        assert moves > 0

    def test_governance_counters(self, keys):
        report = run_experiment(small_scenario(seed=21), keys)
        gov = report.governance
        assert gov["restoration_attempts"] == gov["audit_entries"]
        assert gov["analyst_attempts"] > 0
        assert gov["analyst_denials"] == gov["analyst_attempts"]
        assert gov["audit_chain_ok"] is True

    def test_review_gate_accounting(self, keys):
        report = run_experiment(small_scenario(seed=31), keys)
        a = report.assistant
        assert a["drafts"] == a["approved"] + a["edited"] + a["discarded"] + a["pending"]
        assert a["delivered"] == a["approved"] + a["edited"]
        if a["delivered"]:
            assert a["delivered_leak_rate"] == 0.0

    def test_leak_rate_zero_on_pipeline_output(self, keys):
        report = run_experiment(small_scenario(seed=41), keys)
        assert report.leak.n_samples > 0
        assert report.leak.leak_rate == 0.0

    def test_violations_always_reported_zero(self, keys):
        report = run_experiment(small_scenario(seed=51), keys)
        assert report.violations == 0


class TestReportLeakAudit:
    """``delivered_leak_rate`` is the leak rate of the delivered drafts
    alone, whether or not ``_build_report`` scans them a second time."""

    COUNTERS = dict.fromkeys(
        ("decisions", "reassignments", "restoration_attempts", "analyst_attempts",
         "analyst_denials", "violations"),
        0,
    )
    PHONE = "call me at 613-555-0142"

    @pytest.fixture(scope="class")
    def run(self):
        """One run's report, and the world and drafts ``_build_report`` built it from."""
        built, build = [], experiment._build_report

        def recording_build(world, counters, drafts):
            built.append((world, drafts))
            return build(world, counters, drafts)

        with mock.patch.object(experiment, "_build_report", recording_build):
            report = run_experiment(small_scenario(seed=31), KeyRing.from_hex(TOKEN_KEY_HEX, ENC_KEY_HEX))
        ((world, drafts),) = built
        return SimpleNamespace(report=report, world=world, drafts=drafts)

    def report_with(self, run, monkeypatch, leaky_statuses):
        """The report of ``run`` after the first draft of each status in
        ``leaky_statuses`` was given a phone number, the number of
        ``leak_audit`` calls it made, and the delivered drafts' own rate."""
        drafts = list(run.drafts)
        for status in leaky_statuses:
            i = next(i for i, d in enumerate(drafts) if d.status == status)
            drafts[i] = replace(drafts[i], rendered_text=self.PHONE)
        calls = []
        audit = experiment.leak_audit
        monkeypatch.setattr(
            experiment, "leak_audit", lambda docs, rules: calls.append(len(docs)) or audit(docs, rules)
        )
        report = experiment._build_report(run.world, dict(self.COUNTERS), drafts)
        token_of = {token.value: token for token in run.world.tokens}
        delivered = [
            experiment._rehydrate_deid(d.rendered_text, token_of[d.user_token])
            for d in drafts if d.status in experiment.DELIVERABLE_STATUSES
        ]
        return report, calls, audit(delivered, run.world.rules).leak_rate

    def test_clean_run_audits_delivered_drafts_once(self, run, monkeypatch):
        report, calls, delivered_rate = self.report_with(run, monkeypatch, ())
        assert report.leak.n_hits == 0
        assert len(calls) == 1
        assert report.assistant["delivered_leak_rate"] == delivered_rate == 0.0
        assert (report.leak, report.assistant) == (run.report.leak, run.report.assistant)

    def test_leaky_delivered_draft_gives_a_nonzero_rate(self, run, monkeypatch):
        report, calls, delivered_rate = self.report_with(run, monkeypatch, ("approved",))
        assert report.leak.n_hits == 1
        assert len(calls) == 2
        assert report.assistant["delivered_leak_rate"] == delivered_rate
        assert delivered_rate == 1 / report.assistant["delivered"]

    def test_leak_outside_delivered_drafts_keeps_their_rate_zero(self, run, monkeypatch):
        report, calls, delivered_rate = self.report_with(
            run, monkeypatch, ("pending", "discarded")
        )
        assert report.leak.n_hits == 2
        assert len(calls) == 2
        assert report.assistant["delivered_leak_rate"] == delivered_rate == 0.0


class TestConstraintAudit:
    """The audit recounts from ``group_of`` and never trusts Roster.move().

    The roster's limits are read-only arrays, so a test that lifts one
    rebinds it to a new array."""

    def world(self, keys):
        world = generate_cohort(small_scenario(n_users=24, capacity_min=5, capacity_max=5), keys)
        assert world.audit_constraints(PolicyConfig(), 0) == 0
        return world

    @staticmethod
    def write_around_move(roster, user, group, epoch):
        old = roster.group_of[user]
        roster.count[old] -= 1
        roster.load[roster.coach_of[old]] -= 1
        roster.count[group] += 1
        roster.load[roster.coach_of[group]] += 1
        roster.group_of[user] = group
        roster.last_change[user] = epoch

    def test_clean_moves_pass(self, keys):
        world = self.world(keys)
        roster = world.roster
        target = int(np.argmin(roster.count))
        same_coach = roster.coach_of[roster.group_of] == roster.coach_of[target]
        user = int(np.flatnonzero(same_coach & (roster.group_of != target))[0])
        roster.move(user, target, 4, dwell=4)
        assert world.audit_constraints(PolicyConfig(dwell=4), 4) == 0

    def test_capacity_breach_caught(self, keys):
        world = self.world(keys)
        roster = world.roster
        roster.load_limit = np.full_like(roster.load_limit, 10**6)
        for user in np.flatnonzero(roster.group_of != 0)[: roster.capacity[0]]:
            self.write_around_move(roster, user, 0, 6)
        assert roster.count[0] > roster.capacity[0]
        assert world.audit_constraints(PolicyConfig(dwell=4), 6) > 0

    def test_coach_load_breach_caught(self, keys):
        world = self.world(keys)
        roster = world.roster
        roster.capacity = np.full_like(roster.capacity, 10**6)
        roster.load_limit = roster.load.copy()
        coach0 = np.flatnonzero(roster.coach_of == 0)[0]
        user = np.flatnonzero(roster.coach_of[roster.group_of] != 0)[0]
        self.write_around_move(roster, user, coach0, 6)
        assert world.audit_constraints(PolicyConfig(dwell=4), 6) > 0

    def test_dwell_breach_caught(self, keys):
        world = self.world(keys)
        roster = world.roster
        roster.capacity = np.full_like(roster.capacity, 10**6)
        roster.load_limit = np.full_like(roster.load_limit, 10**6)
        user = int(np.flatnonzero(roster.group_of != 0)[0])
        self.write_around_move(roster, user, 0, 3)
        assert world.audit_constraints(PolicyConfig(dwell=4), 3) == 1

    def test_counter_drift_caught(self, keys):
        world = self.world(keys)
        world.roster.count[0] -= 1
        assert world.audit_constraints(PolicyConfig(), 1) > 0

    def test_unrecorded_move_caught(self, keys):
        world = self.world(keys)
        roster = world.roster
        roster.capacity = np.full_like(roster.capacity, 10**6)
        roster.load_limit = np.full_like(roster.load_limit, 10**6)
        user = int(np.flatnonzero(roster.group_of != 0)[0])
        self.write_around_move(roster, user, 0, 0)  # last_change left at the old epoch
        assert world.audit_constraints(PolicyConfig(dwell=0), 5) == 1

    def test_rewritten_last_change_caught(self, keys):
        world = self.world(keys)
        world.roster.last_change[0] = 5  # a dwell reset with no move
        assert world.audit_constraints(PolicyConfig(), 5) == 1


class TestDeterminismAndPrivacy:
    def test_repeated_runs_byte_identical(self, keys, tmp_path):
        scenario = small_scenario(seed=3)
        d1, d2 = str(tmp_path / "r1"), str(tmp_path / "r2")
        run_experiment(scenario, keys, out_dir=d1)
        run_experiment(scenario, keys, out_dir=d2)
        for name in sorted(os.listdir(d1)):
            b1 = pathlib.Path(d1, name).read_bytes()
            b2 = pathlib.Path(d2, name).read_bytes()
            assert b1 == b2, f"{name} differs between identical runs"

    def test_outputs_contain_no_registered_identity(self, keys, tmp_path):
        out = str(tmp_path / "run")
        scenario = small_scenario(seed=7)
        run_experiment(scenario, keys, out_dir=out)
        identity_strings = registered_identity_strings(generate_cohort(scenario, keys))
        assert identity_strings  # the oracle actually has content
        for name in os.listdir(out):
            blob = pathlib.Path(out, name).read_text(encoding="utf-8")
            for value in identity_strings:
                assert value not in blob, f"{value!r} leaked into {name}"

    def test_audit_timestamps_never_decrease(self, keys, tmp_path):
        # 1100 vault calls a week overrun the week's 1008 clock ticks.
        scenario = small_scenario(
            n_users=40, policy="static", horizon_weeks=2, w_pre=1, w_post=1,
            analyst_probes_per_week=1100,
        )
        run_experiment(scenario, keys, out_dir=str(tmp_path))
        with open(tmp_path / "audit.jsonl", encoding="utf-8") as fh:
            stamps = [datetime.fromisoformat(json.loads(line)["ts"]) for line in fh]
        assert len(stamps) == 2200
        assert stamps == sorted(stamps)

    @pytest.mark.parametrize("scenario", [
        replace(GOLDEN["coach-bound-seed-1"][0], policy="adaptive"),
        small_scenario(horizon_weeks=6, w_pre=3, w_post=3, analyst_probes_per_week=50),
    ], ids=["coach-bound", "analyst-probes-50"])
    def test_deliveries_stay_under_the_rate_limit(self, keys, tmp_path, scenario):
        # One 600 s clock tick per vault call puts at most 6 calls of any
        # requester in an hour, under the limiter's 10, so a delivery is
        # never rate limited and its restoration is never denied.
        run_experiment(scenario, keys, out_dir=str(tmp_path))
        with open(tmp_path / "audit.jsonl", encoding="utf-8") as fh:
            entries = [json.loads(line) for line in fh]
        stamps = np.array([datetime.fromisoformat(e["ts"]).timestamp() for e in entries])
        assert np.diff(stamps).min() >= 600.0
        granted = defaultdict(list)
        for entry, stamp in zip(entries, stamps):
            assert entry["denial_reason"] != "rate_limited"
            if entry["decision"] == "granted":
                granted[entry["requester_id"]].append(stamp)
        assert granted, "the run should deliver drafts"
        busiest = max(
            int((np.searchsorted(times, np.add(times, RATE_LIMIT_WINDOW_SECONDS))
                 - np.arange(len(times))).max())
            for times in granted.values()
        )
        assert busiest <= RATE_LIMIT_WINDOW_SECONDS / 600.0 == 6 < RATE_LIMIT_GRANTS

    def test_traces_match_schema(self, keys, tmp_path):
        out = str(tmp_path / "run")
        scenario = small_scenario(seed=9)
        report = run_experiment(scenario, keys, out_dir=out)
        manifest = json.loads(pathlib.Path(out, "manifest.json").read_text(encoding="utf-8"))
        assert manifest["trace_schema"] == 3
        assert manifest["group_ids"] == generate_cohort(scenario, keys).roster.group_ids
        assert manifest["reasons_of_code"] == [list(reasons) for reasons in REASONS_OF_CODE]
        with open(os.path.join(out, "traces.jsonl"), encoding="utf-8") as fh:
            lines = [json.loads(line) for line in fh]
        assert len(lines) == report.decisions > 0
        n_groups = len(manifest["group_ids"])
        for line in lines:
            assert list(line) == [
                "epoch", "user_token", "chosen", "changed", "codes", "mu", "sigma", "penalty",
            ]
            assert len(line["codes"]) == n_groups
            assert set(line["codes"]) <= {chr(48 + code) for code in range(len(REASONS_OF_CODE))}
            n_scored = line["codes"].count("0")
            for k in ("mu", "sigma"):
                assert len(base64.b64decode(line[k], validate=True)) == 8 * n_scored
            assert len(line["penalty"]) == n_scored and set(line["penalty"]) <= {"0", "1"}
        for trace in read_traces(out):
            n_scored = trace["codes"].count(0)
            assert [len(trace[k]) for k in ("mu", "sigma", "penalty", "score")] == [n_scored] * 4

    def test_score_decomposition_in_traces(self, keys, tmp_path, monkeypatch):
        # The decoder derives score from mu, sigma, penalty and the
        # manifest's policy; every term must come back with the bits the
        # decision held, whether a pass or a stretch made it.
        decisions, by_stretch, stretches = [], set(), []

        def recording_stretch(*args):
            stretches.append(_decide_stretch(*args))
            return stretches[-1]

        def recording_decide_epoch(roster, *args, **kwargs):
            for decided in decide_epoch(roster, *args, **kwargs):
                by_stretch.add(bool(stretches) and stretches[-1] is decided)
                bounds = decided.bounds.tolist()
                for i, group in enumerate(decided.chosen.tolist()):
                    pairs = slice(bounds[i], bounds[i + 1])
                    decisions.append((
                        decided.codes[i].tolist(),
                        roster.group_ids[group] if group >= 0 else None,
                        bool(decided.moved[i]),
                        [a[pairs] for a in (*decided.scores, score_of(decided.scores, config))],
                    ))
                yield decided

        monkeypatch.setattr(assignment, "_decide_stretch", recording_stretch)
        monkeypatch.setattr(experiment, "decide_epoch", recording_decide_epoch)
        config = PolicyConfig(beta=0.6, lam=0.45)
        run_experiment(small_scenario(seed=17), keys, policy=config, out_dir=str(tmp_path))
        traces = read_traces(tmp_path)
        assert len(traces) == len(decisions) and by_stretch == {True, False}
        checked = 0
        for trace, (codes, chosen, changed, terms) in zip(traces, decisions):
            assert trace["codes"] == codes
            assert (trace["chosen"], trace["changed"]) == (chosen, changed)
            for name, values in zip((*CandidateScores._fields, "score"), terms):
                assert np.asarray(trace[name], dtype=float).tobytes() == values.astype(float).tobytes()
            checked += len(trace["score"])
        assert checked > 100 and any(any(trace["penalty"]) for trace in traces)


# Cohort values that compare equal but encode differently, so a head
# memo keyed on equality would write one of them in place of the other.
# Floats are finite: redact rejects NaN and infinity, which JSON lacks.
_COHORT_VALUES = st.one_of(
    st.sampled_from([True, False, 1, 0, 1.0, 0.0, -0.0, "1", "", "\u00e9t\u00e9", "\U0001f600"]),
    st.integers(-(2**63), 2**63 - 1),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=4),
)
_COHORTS = st.dictionaries(st.sampled_from(["goal", "site", "arm", "\u00fcber"]), _COHORT_VALUES, max_size=3)
# Texts with identifiers, pairs that de-identify to one text with other
# counts ("Marisol here", "[NAME] here"), and non-ASCII text.
_RAW_TEXTS = st.one_of(
    st.sampled_from([
        "call 613-555-0142", "call [PHONE]", "mail bob@x.org", "Marisol here", "[NAME] here",
        "all clear", "caf\u00e9 \u2603 \U0001f600", "quote \" and \\ and \n",
    ]),
    st.text(max_size=12),
)


class TestDeidCorpusWrite:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        texts=st.lists(_RAW_TEXTS, min_size=1, max_size=4),
        cohorts=st.lists(_COHORTS, min_size=1, max_size=4),
        picks=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2), st.booleans(), st.booleans()),
            min_size=1, max_size=40,
        ),
    )
    def test_lines_equal_json_dumps_of_each_message(self, tmp_path, texts, cohorts, picks):
        # The same rules in two orders give the same counts with their keys
        # in two orders.
        rule_orders = (default_rules(), RuleSet(reversed(default_rules())))
        with pytest.raises(ValidationError, match="RuleSet"):
            redact("call 613-555-0142", UserToken("ab" * 32), tuple(reversed(default_rules())))
        # Unpooled messages share nothing; pooled ones share equal parts.
        for pool in (None, DeidPool()):
            messages = []
            for text, cohort, user, reverse, reverse_rules in picks:
                items = list(cohorts[cohort % len(cohorts)].items())
                metadata = dict(reversed(items) if reverse else items)  # insertion order varies
                token = UserToken(f"{user:02x}" * 32)
                rules = rule_orders[reverse_rules]
                messages.append(redact(texts[text % len(texts)], token, rules, metadata, pool=pool))
            path = tmp_path / "deid_messages.jsonl"
            experiment._write_deid_messages(str(path), messages)
            expected = "".join(json.dumps(deid_dict(m), sort_keys=True) + "\n" for m in messages)
            assert path.read_text(encoding="utf-8") == expected

    def test_one_text_with_other_counts_keeps_its_counts(self, tmp_path):
        token = UserToken("ab" * 32)
        raws = ("Marisol here", "[NAME] here", "Marisol here", "[NAME] here")
        for pool in (None, DeidPool()):
            messages = [redact(raw, token, None, {"goal": "fitness"}, pool=pool) for raw in raws]
            assert {m.text for m in messages} == {"[NAME] here"}
            path = tmp_path / "deid_messages.jsonl"
            experiment._write_deid_messages(str(path), messages)
            lines = path.read_text().splitlines()
            assert lines == [json.dumps(deid_dict(m), sort_keys=True) for m in messages]
            assert ['"NAME": 1' in line for line in lines] == [True, False, True, False]

    def test_equal_values_of_other_types_keep_their_own_line(self, tmp_path):
        token = UserToken("ab" * 32)
        values = [True, 1, 1.0, 0.0, -0.0, False, 0, 1, True]
        for pool in (None, DeidPool()):
            messages = [redact("same text", token, None, {"goal": v}, pool=pool) for v in values]
            path = tmp_path / "deid_messages.jsonl"
            experiment._write_deid_messages(str(path), messages)
            cohorts = [line.split('"counts"')[0] for line in path.read_text().splitlines()]
            assert cohorts == [f'{{"cohort": {{"goal": {json.dumps(v)}}}, ' for v in values]


class TestScaleLadder:
    def test_384_groups_hold_every_invariant(self, keys, tmp_path):
        # The 1880-user, 96-group benchmark shape scaled 4x, over two
        # adaptive epochs: the largest rung of the ladder.
        scenario = Scenario(
            name="ladder-384", seed=1001, n_users=7520, n_groups=384, n_coaches=64,
            capacity_min=26, capacity_max=34, horizon_weeks=6, w_pre=4, w_post=2,
        )
        report = run_experiment(scenario, keys, out_dir=str(tmp_path))
        assert report.violations == 0
        assert report.governance["audit_chain_ok"]
        entries = AuditLog.from_jsonl(str(tmp_path / "audit.jsonl")).entries()
        assert len(entries) == report.governance["audit_entries"] > 0
        assert verify_audit_chain(entries) == (True, None)
        stamps = [datetime.fromisoformat(entry.ts) for entry in entries]
        assert stamps == sorted(stamps)
        code_lengths = [len(trace["codes"]) for trace in iter_traces(tmp_path)]
        assert len(code_lengths) == report.decisions == 7520 * 2
        assert set(code_lengths) == {384}


class TestCompareArms:
    def test_identical_arms_zero_differences(self, keys):
        scenario = small_scenario(seed=61, policy="static")
        a = run_experiment(scenario, keys)
        b = run_experiment(scenario, keys)
        table = compare_arms(a, b)
        assert table.adherence_post["diff"] == 0.0
        assert table.eng_index["diff_pp"] == 0.0
        assert table.mann_whitney["p"] == pytest.approx(1.0)

    def test_paper_style_relative_change_rendering(self):
        base = dict(
            seed=1, scenario_name="t", horizon_weeks=19, w_pre=8, w_post=11,
            adherence_pre=0.5, adherence_post=0.5,
            weekly_scores_pre=[0.2] * 10, weekly_scores_post=[0.2] * 10,
            reassignments=0, violations=0,
            leak={"n_samples": 1, "n_hits": 0, "leak_rate": 0.0, "hit_examples_by_type": {}},
            weight_delta_mean=0.0, decisions=0, governance={}, assistant={},
        )
        a = MetricsReport.from_dict({**base, "arm": "static", "eng_index": 0.90})
        b = MetricsReport.from_dict({**base, "arm": "adaptive", "eng_index": 1.33})
        table = compare_arms(a, b)
        assert table.eng_index["rel_pct_a"] == pytest.approx(-10.0)
        assert table.eng_index["rel_pct_b"] == pytest.approx(+33.0)
        assert table.eng_index["diff_pp"] == pytest.approx(43.0)
        text = table.render_text()
        assert "0.90 (-10%)" in text and "1.33 (+33%)" in text

    def test_disjoint_distributions_significant(self, keys):
        base = dict(
            seed=1, scenario_name="t", horizon_weeks=19, w_pre=8, w_post=11,
            adherence_pre=0.5, adherence_post=0.5, eng_index=1.0,
            weekly_scores_pre=[0.1] * 50,
            reassignments=0, violations=0,
            leak={"n_samples": 1, "n_hits": 0, "leak_rate": 0.0, "hit_examples_by_type": {}},
            weight_delta_mean=0.0, decisions=0, governance={}, assistant={},
        )
        rng = np.random.default_rng(8)
        a = MetricsReport.from_dict(
            {**base, "arm": "static", "weekly_scores_post": rng.uniform(0.0, 0.3, 60).tolist()}
        )
        b = MetricsReport.from_dict(
            {**base, "arm": "adaptive", "weekly_scores_post": rng.uniform(0.5, 0.9, 60).tolist()}
        )
        assert compare_arms(a, b).mann_whitney["p"] < 0.001

    def test_mismatched_windows_rejected(self, keys):
        a = run_experiment(small_scenario(seed=71, policy="static"), keys)
        b = run_experiment(
            small_scenario(seed=71, policy="static", horizon_weeks=16, w_post=9), keys
        )
        with pytest.raises(ValidationError):
            compare_arms(a, b)

    def test_weight_loss_tracks_adherence_direction(self, keys):
        static, adaptive = run_paired(
            small_scenario(seed=81, n_users=200, n_groups=8, capacity_min=32, capacity_max=40),
            keys,
        )
        # more adherence -> more drift downward
        assert adaptive.weight_delta_mean <= static.weight_delta_mean + 0.05
