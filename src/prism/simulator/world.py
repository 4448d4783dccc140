"""Synthetic cohort world: generation and week-by-week behavior stepping.

Randomness is split into tagged substreams (cohort, placement, behavior,
messages, review) keyed by the scenario seed, and all per-user draws are
index-aligned fixed-size arrays. That makes paired static/adaptive arms
share every draw: when all effect sizes are zero the two arms produce
identical event streams, and with effects on, divergence is confined to
users whose group placement actually differs.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from ..assignment import PolicyConfig, Roster
from ..errors import ValidationError
from ..features import ACTION_TYPES, DAYS_PER_WEEK, GOAL_CATEGORIES
from ..redaction import DeidPool, DeidText, RuleSet, default_rules, redact
from ..vault import REGISTRATION_BYTES, KeyRing, UserToken, Vault
from .scenario import (
    N_MESSAGE_VARIANTS,
    POISSON_RATE_MAX,
    Scenario,
    synth_identities,
    synth_message,
)

_STREAM_COHORT = 0xC0
_STREAM_PLACEMENT = 0xA1
_STREAM_BEHAVIOR = 0xB2
_STREAM_MESSAGE = 0xE3
STREAM_REVIEW = 0xD4

WEEK_SECONDS = 7 * 24 * 3600
SIM_EPOCH_BASE = datetime(2025, 1, 6, tzinfo=timezone.utc).timestamp()
# One vault call per tick puts at most 3600 / 600 = 6 calls of any requester
# in an hour, under the vault's cap of 10 grants an hour, so a routine
# delivery is never rate limited.
_RESTORE_SPACING_SECONDS = 600.0


def substream(seed: int, tag: int, *extra: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, tag) + extra)))


def sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -30.0, 30.0)))


def poisson_from_uniform(u: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Inverse-CDF Poisson draw: one uniform per element, so stream
    consumption never depends on the rate.

    Each step advances only the elements still undrawn, through the same
    elementwise arithmetic, so a draw depends on its own uniform and rate
    alone. Past the mode the float sum of the pmf stops growing a little
    below 1 (below 1 - 3.7e-15 at a rate of 700, from step 927), and a
    uniform above it is drawn at the step where its sum stops growing. A
    rate whose ``exp(-rate)`` underflows to 0 starts no sum, and raises
    unless its uniform is 0."""
    u, lam = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(lam, dtype=float))
    k = np.zeros(lam.shape, dtype=np.int64)
    pmf = np.exp(-lam)
    left = np.flatnonzero(u > pmf)
    u, lam, pmf = u.ravel()[left], lam.ravel()[left], pmf.ravel()[left]
    if not pmf.all():
        raise ValidationError("poisson rate too large for inverse-CDF draw")
    cdf = pmf
    step = 0
    while left.size:
        step += 1
        if step > 1000:
            raise ValidationError("poisson rate too large for inverse-CDF draw")
        pmf = pmf * lam / step
        grown = cdf + pmf
        more = (u > grown) & (grown > cdf)
        k.flat[left[~more]] = step
        left, u, lam, pmf, cdf = left[more], u[more], lam[more], pmf[more], grown[more]
    return k


class SimClock:
    """Deterministic, monotone clock: a fixed base date and one tick of
    ``_RESTORE_SPACING_SECONDS`` per vault interaction.

    :meth:`set_week` moves the clock forward to the start of a week, or
    leaves it where it is when the previous weeks' interactions already
    ran past that start; time never runs backwards.
    """

    _TICKS_PER_WEEK = int(WEEK_SECONDS // _RESTORE_SPACING_SECONDS)

    def __init__(self) -> None:
        self._tick = 0

    def set_week(self, week: int) -> None:
        self._tick = max(self._tick, week * self._TICKS_PER_WEEK)

    def __call__(self) -> float:
        t = SIM_EPOCH_BASE + self._tick * _RESTORE_SPACING_SECONDS
        self._tick += 1
        return t


@dataclass
class World:
    """Full mutable state of one simulated run.

    A user is a row: ``tokens[u]`` is row ``u``'s token, and every
    per-user array below is indexed by row (identity lives in the vault).
    Group and coach state lives in the roster, keyed by row; group and
    coach ids only label the rows (``roster.group_ids``, ``roster.coach_ids``).
    """

    scenario: Scenario
    vault: Vault
    clock: SimClock
    tokens: tuple[UserToken, ...]
    roster: Roster              # placement; user rows follow ``tokens``
    rules: RuleSet
    # Per-user draws, fixed at generation
    goal_index: np.ndarray      # (n,) int, into GOAL_CATEGORIES
    base_logit: np.ndarray      # (n,)
    fatigue_rate: np.ndarray    # (n,)
    engagement_rates: np.ndarray  # (n, K)
    # Behavior arrays
    checkins: np.ndarray        # (n, horizon*7) int8
    actions: np.ndarray         # (n, horizon, K) int32
    weights_kg: np.ndarray      # (n, horizon+1)
    weekly_scores: np.ndarray   # (n, horizon), NaN until scored
    # Environment-private registration payloads by user row, kept only
    # for message synthesis; never serialized into any output.
    _raw_identities: tuple[dict, ...]
    deid_messages: list[DeidText] = field(default_factory=list)
    # The run's shared cohort and count mappings: the learning view's
    # posts and the assistant's summaries are redacted through it.
    deid_pool: DeidPool = field(default_factory=DeidPool)
    # The pool's cohort mapping of each goal index, checked once: redact
    # takes it as it is, and every post and summary of a goal shares it.
    cohort_of_goal: tuple[Mapping[str, str], ...] = field(init=False)
    # (group_of, last_change) as of the last constraint audit.
    _audited: tuple[np.ndarray, np.ndarray] = field(init=False)

    def __post_init__(self) -> None:
        pool = self.deid_pool
        self.cohort_of_goal = tuple(pool.cohort({"goal": goal}) for goal in GOAL_CATEGORIES)

    @property
    def n_users(self) -> int:
        return len(self.tokens)

    def audit_constraints(self, policy: PolicyConfig, epoch: int) -> int:
        """Independent re-check of capacity, coach-load, and dwell invariants.

        Occupancy is recounted from ``group_of`` and checked against the
        limits and the roster's own counters. Moves are found by comparing
        ``group_of`` and ``last_change`` with their values at the previous
        audit, and each must lie outside dwell of the move before it.
        Returns the number of violations found (0 in a correct run).
        """
        roster = self.roster
        seated = roster.group_of[roster.group_of >= 0]
        count = np.bincount(seated, minlength=roster.count.size)
        load = np.bincount(roster.coach_of[seated], minlength=roster.load.size)
        violations = (count > roster.capacity).sum() + (load > roster.load_limit).sum()
        violations += (count != roster.count).sum() + (load != roster.load).sum()
        prev_group, prev_change = self._audited
        moved = roster.group_of != prev_group
        violations += (moved & (prev_group >= 0) & (epoch - prev_change < policy.dwell)).sum()
        violations += (moved & (roster.last_change != epoch)).sum()
        violations += (~moved & (roster.last_change != prev_change)).sum()
        self._audited = (roster.group_of.copy(), roster.last_change.copy())
        return int(violations)


class _IntakeEntropy:
    """The vault's entropy source for one cohort's intake.

    A draw set as ``pending`` is the next draw: ``generate_cohort`` sets
    each row's 28 bytes of the intake block before registering the row. Every
    other draw, a token-collision retry or a registration after intake,
    reads from the cohort stream, past the block, so a retry leaves every
    other row's draw as it was."""

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self.pending: bytes | None = None

    def __call__(self, size: int) -> bytes:
        draw, self.pending = self.pending, None
        return self._rng.bytes(size) if draw is None else draw


def generate_cohort(scenario: Scenario, keys: KeyRing) -> World:
    """Deterministically build users, groups, coaches, and vault registrations.

    Every synthetic user is registered through the vault, so nothing
    downstream of this function handles anything but tokens. The cohort
    stream draws each field once for all ``n`` users, in this order:

    1. the ``n_groups`` group capacities;
    2. the identity integers, one ``(n, 9)`` ``integers`` call
       (:func:`synth_identities`);
    3. the goals, one ``choice`` over ``GOAL_CATEGORIES`` with
       ``goal_weights``;
    4. the base logits (``normal``), the fatigue rates (``uniform`` on
       [0.5, 1.5)), the ``(n, K)`` normals of the engagement rates and the
       start weights (``normal``);
    5. one block of ``28 n`` bytes: row ``i``'s registration draw, its
       subject id then its nonce, is bytes ``[28 i, 28 i + 28)``.

    A drawn rate over the Poisson draw's limit raises before any user is
    registered. The users are then registered one ``Vault.register`` call
    each, in row order; a token-collision retry draws from the stream
    after the block.
    """
    rng = substream(scenario.seed, _STREAM_COHORT)

    # Groups, coaches, capacity feasibility.
    capacities = rng.integers(
        scenario.capacity_min, scenario.capacity_max + 1, scenario.n_groups
    ).tolist()
    total_capacity = sum(capacities)
    if scenario.n_users > total_capacity:
        raise ValidationError(
            f"capacity constraint infeasible: {scenario.n_users} users exceed "
            f"total group capacity {total_capacity}"
        )
    load_limits = coach_load_limits(capacities, scenario.n_coaches, scenario.coach_load_factor)
    total_load = sum(load_limits)
    if scenario.n_users > total_load:
        raise ValidationError(
            f"coach-load constraint infeasible: {scenario.n_users} users exceed "
            f"total coach load limit {total_load}"
        )

    # Users: one draw per field, identities kept only for the vault and
    # message synthesis.
    n = scenario.n_users
    identities = synth_identities(rng, n)
    goal_index = rng.choice(len(GOAL_CATEGORIES), size=n, p=scenario.goal_weights)
    base_logit = scenario.base_logit_mean + scenario.base_logit_sd * rng.normal(size=n)
    fatigue_rate = scenario.fatigue_mean * rng.uniform(0.5, 1.5, n)
    engagement_rates = np.asarray(scenario.engagement_rate_means) * np.exp(
        0.3 * rng.normal(size=(n, len(ACTION_TYPES)))
    )
    weights0_col = scenario.weight_start_mean + scenario.weight_start_sd * rng.normal(size=n)
    block = rng.bytes(REGISTRATION_BYTES * n)
    # A goal-matched user's weekly rates are its drawn rates times 1 + bonus.
    if engagement_rates.max() * max(1.0, 1.0 + scenario.engagement_match_bonus) > POISSON_RATE_MAX:
        raise ValidationError(
            f"a drawn engagement rate exceeds the Poisson draw's limit of {POISSON_RATE_MAX:g}; "
            "lower engagement_rate_means or engagement_match_bonus"
        )

    clock = SimClock()
    entropy = _IntakeEntropy(rng)
    vault = Vault(keys, clock=clock, entropy=entropy)
    tokens: list[UserToken] = []
    for row, identity in enumerate(identities):
        entropy.pending = block[REGISTRATION_BYTES * row : REGISTRATION_BYTES * (row + 1)]
        tokens.append(vault.register(identity))
    # Not needed past intake: dropped before the world's arrays are allocated.
    del block

    # Group g is g{g:03d}, serves goal index g % 4 (GOAL_CATEGORIES) and has
    # coach c{g % n_coaches:02d}; the roster puts the rows in id order.
    group_rows = np.arange(scenario.n_groups)
    roster = Roster(
        [f"g{g:03d}" for g in range(scenario.n_groups)],
        [f"c{c:02d}" for c in range(scenario.n_coaches)],
        [token.value for token in tokens],
        capacity=capacities,
        goal_index=group_rows % len(GOAL_CATEGORIES),
        coach_of=group_rows % scenario.n_coaches,
        load_limit=load_limits,
    )
    horizon = scenario.horizon_weeks
    world = World(
        scenario=scenario,
        vault=vault,
        clock=clock,
        tokens=tuple(tokens),
        roster=roster,
        rules=default_rules(),
        goal_index=goal_index,
        base_logit=base_logit,
        fatigue_rate=fatigue_rate,
        engagement_rates=engagement_rates,
        checkins=np.zeros((n, horizon * DAYS_PER_WEEK), dtype=np.int8),
        actions=np.zeros((n, horizon, len(ACTION_TYPES)), dtype=np.int32),
        weights_kg=np.zeros((n, horizon + 1)),
        weekly_scores=np.full((n, horizon), np.nan),
        _raw_identities=tuple(identities),
    )
    world.weights_kg[:, 0] = weights0_col

    _place_initially(world)
    return world


def coach_load_limits(capacities: list[int], n_coaches: int, load_factor: float) -> list[int]:
    """Per coach row, the load limit: ``load_factor`` of the summed capacity
    of the coach's groups, at least 1. Group ``g`` belongs to coach
    ``g % n_coaches``; the sums are exact integers, taken in one pass."""
    cap_sums = [0] * n_coaches
    for g, capacity in enumerate(capacities):
        cap_sums[g % n_coaches] += capacity
    return [max(1, int(np.floor(load_factor * cap_sum))) for cap_sum in cap_sums]


def _place_initially(world: World) -> None:
    """Seed placement; a configured fraction lands in goal-mismatched groups.

    Each user in row order draws whether they are mismatched, then a group
    uniformly from the open groups of their preferred pool (goal-matched
    unless mismatched), or of the other pool when it has none open. A
    group is open while it and its coach both have room, so the open rows
    of a (goal, pool) pair change only when a group fills or a coach
    reaches their load limit; they are kept until then.
    """
    scenario = world.scenario
    roster = world.roster
    rng = substream(scenario.seed, _STREAM_PLACEMENT)
    open_rows: dict[tuple[int, bool], np.ndarray] = {}
    for user, goal in enumerate(world.goal_index.tolist()):
        mismatched = rng.random() < scenario.misgroup_fraction
        rows = open_rows.get((goal, mismatched))
        if rows is None:
            # The user is still unplaced, so no own seat needs excluding.
            is_open = (roster.capacity_code | roster.load_code[roster.coach_of]) == 0
            right = roster.goal_code[goal] == 0
            for pool in (~right, right) if mismatched else (right, ~right):
                rows = np.flatnonzero(pool & is_open)
                if rows.size:
                    break
            else:
                raise ValidationError(
                    "placement infeasible: no group has both capacity and coach headroom"
                )
            open_rows[(goal, mismatched)] = rows
        group = rows[rng.integers(rows.size)]
        roster.move(user, group, 0, dwell=0)
        if roster.capacity_code[group] or roster.load_code[roster.coach_of[group]]:
            open_rows.clear()
    world._audited = (roster.group_of.copy(), roster.last_change.copy())


# ---------------------------------------------------------------------------
# Weekly stepping
# ---------------------------------------------------------------------------


def _member_scores(world: World, week: int) -> list[np.ndarray]:
    """Per group row, its members' scores for ``week`` in ascending user order."""
    group_of = world.roster.group_of
    order = np.argsort(group_of, kind="stable")
    bounds = np.searchsorted(group_of[order], np.arange(world.roster.count.size + 1))
    scores = world.weekly_scores[order, week]
    return [scores[lo:hi] for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist())]


def group_activity_flags(world: World, epoch: int) -> np.ndarray:
    """Per group row: active iff it has members whose last-week mean score
    clears the bar.

    Before engagement scores exist (the pre-period), occupied groups
    count as active.
    """
    if epoch == 0 or np.isnan(world.weekly_scores[:, epoch - 1]).all():
        return world.roster.count > 0
    threshold = world.scenario.activity_threshold
    return np.array(
        [s.size > 0 and float(np.mean(s)) >= threshold for s in _member_scores(world, epoch - 1)],
        dtype=bool,
    )


def group_engagement_means(world: World, epoch: int) -> np.ndarray:
    """Per group row, mean member engagement last week, as the group
    aggregate feature; 0.5 for a group with no scored member."""
    means = np.full(world.roster.count.size, 0.5)
    if epoch == 0:
        return means
    for g, scores in enumerate(_member_scores(world, epoch - 1)):
        if scores.size and not np.isnan(scores).all():
            means[g] = np.nanmean(scores)
    return means


def step_week(world: World, epoch: int, active_flags: np.ndarray) -> None:
    """Simulate one week of check-ins, engagement actions, and weight drift.

    Check-in probability is a logistic model: base propensity plus a
    goal-match uplift and an active-group uplift, minus tenure fatigue,
    plus weekly noise. Engagement actions are Poisson with a
    multiplicative goal-match bonus. Weight drifts down proportionally
    to that week's adherence.
    """
    scenario = world.scenario
    n = world.n_users
    rng = substream(scenario.seed, _STREAM_BEHAVIOR, epoch)

    # Fixed draw order and shape, independent of membership.
    noise = rng.normal(size=n) * scenario.noise_sd
    u_checkin = rng.random((n, DAYS_PER_WEEK))
    u_actions = rng.random((n, len(ACTION_TYPES)))
    weight_noise = rng.normal(size=n) * scenario.weight_noise_sd

    roster = world.roster
    seated = roster.group_of >= 0
    match = (seated & (roster.goal_index[roster.group_of] == world.goal_index)).astype(float)
    active = (seated & active_flags[roster.group_of]).astype(float)

    logits = (
        world.base_logit
        + scenario.match_uplift * match
        + scenario.activity_uplift * active
        - world.fatigue_rate * epoch
        + noise
    )
    p = sigmoid(logits)
    week_checkins = (u_checkin < p[:, None]).astype(np.int8)
    world.checkins[:, epoch * DAYS_PER_WEEK : (epoch + 1) * DAYS_PER_WEEK] = week_checkins

    lam = world.engagement_rates * (1.0 + scenario.engagement_match_bonus * match)[:, None]
    world.actions[:, epoch, :] = poisson_from_uniform(u_actions, lam)

    week_adherence = week_checkins.mean(axis=1)
    world.weights_kg[:, epoch + 1] = (
        world.weights_kg[:, epoch]
        - scenario.weight_drift_per_adherent_week * week_adherence
        + weight_noise
    )


def step_messages(world: World, epoch: int) -> None:
    """Synthesize this week's free-text posts and push them through redaction.

    Raw text (which may self-disclose registered identifiers) exists
    only inside this function; only the de-identified result is kept,
    its cohort and count mappings shared through the world's ``deid_pool``.
    """
    scenario = world.scenario
    n = world.n_users
    rng = substream(scenario.seed, _STREAM_MESSAGE, epoch)
    post_draw = rng.random(n)
    # The week's draws as Python values, converted once.
    variants = rng.integers(0, N_MESSAGE_VARIANTS, size=n).tolist()
    aux_ids = rng.integers(0, 10**8, size=n).tolist()
    lat, lon = rng.integers(0, 10000, size=(n, 2)).T.tolist()
    goal_rows = world.goal_index.tolist()
    pool, cohort_of_goal = world.deid_pool, world.cohort_of_goal
    tokens, identities, rules = world.tokens, world._raw_identities, world.rules
    keep = world.deid_messages.append
    for i in np.flatnonzero(post_draw < scenario.message_prob).tolist():
        text = synth_message(variants[i], identities[i], aux_ids[i], lat[i], lon[i])
        keep(redact(text, tokens[i], rules, cohort_of_goal[goal_rows[i]], pool=pool))
