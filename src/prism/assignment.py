"""Privacy-constrained contextual-bandit group assignment.

Candidate groups are filtered by hard feasibility first — capacity,
coach load, minimum dwell, goal/language/activity eligibility — and only
then scored. Scoring is linear-UCB over a single shared coefficient
vector on a joint user-by-group feature map, with a stability penalty
against reassignments inside the oscillation horizon. Rewards are
within-user deltas against the fixed pre-assignment baseline window and
arrive after the evaluation window, so model updates run through a
pending-observation queue owned by the caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .errors import ConstraintViolationError, InternalError, ValidationError
from .features import (
    DAYS_PER_WEEK,
    GOAL_CATEGORIES,
    EngagementWeights,
    LearningContext,
    UserEvents,
    engagement_scores,
)

_STREAK_CAP_DAYS = 14
_THETA_RESYNC_EVERY = 512


@dataclass
class GroupState:
    """Static attributes of one peer group; who sits in it lives in the Roster."""

    group_id: str
    coach_id: str
    capacity: int
    goal_category: str
    active: bool = True
    language_tags: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValidationError("group capacity must be at least 1")
        if self.goal_category not in GOAL_CATEGORIES:
            raise ValidationError(f"unknown goal category: {self.goal_category!r}")


@dataclass
class CoachState:
    coach_id: str
    load_limit: int = 0

    def load(self, roster: Roster) -> int:
        """Members across this coach's groups, read from the roster's counter."""
        return int(roster.load[roster.coach_row[self.coach_id]])


class Roster:
    """Who sits in which group: the single placement state of a run.

    Index-aligned arrays: per user, ``group_of`` (a group row, -1 while
    unplaced) and ``last_change`` (epoch of the last move, the initial
    placement included); per group, the member ``count``; per coach, the
    ``load``. Users are rows in the order of ``user_tokens``; group rows
    follow ``sorted(group_id)``, which is the lexicographic candidate
    order. :meth:`move` is the only writer of all four.
    """

    def __init__(
        self,
        groups: Mapping[str, GroupState],
        coaches: Mapping[str, CoachState],
        user_tokens: Sequence[str],
    ) -> None:
        self.group_ids = sorted(groups)
        self.group_row = {gid: g for g, gid in enumerate(self.group_ids)}
        coach_ids = sorted(coaches)
        self.coach_row = {cid: c for c, cid in enumerate(coach_ids)}
        self.row_of = {token: u for u, token in enumerate(user_tokens)}
        self.capacity = np.array([groups[gid].capacity for gid in self.group_ids], dtype=np.int64)
        self.coach_of = np.array(
            [self.coach_row[groups[gid].coach_id] for gid in self.group_ids], dtype=np.int64
        )
        self.load_limit = np.array([coaches[cid].load_limit for cid in coach_ids], dtype=np.int64)
        self.group_of = np.full(len(user_tokens), -1, dtype=np.int64)
        self.last_change = np.zeros(len(user_tokens), dtype=np.int64)
        self.count = np.zeros(len(self.group_ids), dtype=np.int64)
        self.load = np.zeros(len(coach_ids), dtype=np.int64)

    def group_id(self, user: int) -> Optional[str]:
        group = self.group_of[user]
        return self.group_ids[group] if group >= 0 else None

    def members(self, group: int) -> np.ndarray:
        """Member rows of one group, in ascending user order."""
        return np.flatnonzero(self.group_of == group)

    def fill_ratio(self, group_id: str) -> float:
        group = self.group_row[group_id]
        return self.count[group] / self.capacity[group]

    def full_for(self, user: int) -> tuple[np.ndarray, np.ndarray]:
        """Per group: is it at capacity, is its coach at the load limit.

        Both exclude the user's own seat, so a member's own full group
        stays open for staying put.
        """
        current = self.group_of[user]
        own_group = np.arange(self.count.size) == current
        own_coach = self.coach_of == (self.coach_of[current] if current >= 0 else -1)
        capacity_full = self.count - own_group >= self.capacity
        coach_full = self.load[self.coach_of] - own_coach >= self.load_limit[self.coach_of]
        return capacity_full, coach_full

    def move(self, user: int, group: int, epoch: int, dwell: int) -> None:
        """Seat ``user`` in ``group`` at ``epoch``.

        Raises ConstraintViolationError, with nothing changed, when the
        move would overfill the group, push a different coach over their
        load limit, or move a placed user while ``epoch - last_change <
        dwell``.
        """
        old = self.group_of[user]
        if old >= 0 and epoch - self.last_change[user] < dwell:
            raise ConstraintViolationError(
                f"user row {user} moved at epoch {epoch}, inside dwell {dwell} "
                f"of the change at epoch {self.last_change[user]}"
            )
        if self.count[group] >= self.capacity[group]:
            raise ConstraintViolationError(
                f"group {self.group_ids[group]} is full at capacity {self.capacity[group]}"
            )
        coach = self.coach_of[group]
        old_coach = self.coach_of[old] if old >= 0 else -1
        if coach != old_coach and self.load[coach] >= self.load_limit[coach]:
            raise ConstraintViolationError(
                f"coach of group {self.group_ids[group]} is at load limit {self.load_limit[coach]}"
            )
        if old >= 0:
            self.count[old] -= 1
            self.load[old_coach] -= 1
        self.count[group] += 1
        self.load[coach] += 1
        self.group_of[user] = group
        self.last_change[user] = epoch


@dataclass(frozen=True)
class PolicyConfig:
    """Assignment policy knobs; every default is echoed into run manifests."""

    w_adh: float = 0.6          # reward weight on adherence delta
    w_eng: float = 0.4          # reward weight on engagement delta
    lam: float = 0.2            # churn penalty weight
    dwell: int = 4              # minimum epochs between reassignments
    oscillation: int = 8        # churn-penalty horizon, >= dwell
    beta: float = 1.0           # confidence width multiplier
    ridge: float = 1.0
    w_pre: int = 4              # reward baseline window (epochs)
    w_post: int = 4             # reward evaluation window (epochs)

    def __post_init__(self) -> None:
        if self.w_adh < 0 or self.w_eng < 0 or self.lam < 0:
            raise ValidationError("reward and churn weights must be non-negative")
        if self.oscillation < self.dwell:
            raise ValidationError("oscillation horizon must be at least the dwell time")
        if self.dwell < 0 or self.w_pre < 1 or self.w_post < 1 or self.ridge <= 0:
            raise ValidationError("invalid policy window or ridge configuration")

    def to_dict(self) -> dict:
        return {
            "w_adh": self.w_adh,
            "w_eng": self.w_eng,
            "lam": self.lam,
            "dwell": self.dwell,
            "oscillation": self.oscillation,
            "beta": self.beta,
            "ridge": self.ridge,
            "w_pre": self.w_pre,
            "w_post": self.w_post,
        }


# ---------------------------------------------------------------------------
# Joint feature map
# ---------------------------------------------------------------------------

N_NUMERIC = 5
_USER_BLOCK = N_NUMERIC + len(GOAL_CATEGORIES) + 2
_GROUP_BLOCK = 2 + len(GOAL_CATEGORIES)
FEATURE_DIM = _USER_BLOCK + _GROUP_BLOCK + len(GOAL_CATEGORIES)


def joint_features(
    context: LearningContext,
    group: GroupState,
    fill_ratio: float,
    group_engagement: float = 0.5,
) -> np.ndarray:
    """Concatenate user features, group aggregates, and a goal-interaction block.

    The interaction block is the elementwise product of the user and
    group goal one-hots, so goal agreement is directly learnable.
    """
    user_goal = context.categorical_features
    group_goal = np.zeros(len(GOAL_CATEGORIES))
    group_goal[GOAL_CATEGORIES.index(group.goal_category)] = 1.0
    user_block = np.concatenate(
        [
            context.numeric_features,
            user_goal,
            [
                min(context.missed_checkin_streak, _STREAK_CAP_DAYS) / _STREAK_CAP_DAYS,
                float(np.clip(context.engagement_slope, -1.0, 1.0)),
            ],
        ]
    )
    group_block = np.concatenate(
        [[float(np.clip(group_engagement, 0.0, 1.0)), fill_ratio], group_goal]
    )
    return np.concatenate([user_block, group_block, user_goal * group_goal])


# ---------------------------------------------------------------------------
# Linear-UCB model
# ---------------------------------------------------------------------------


class BanditModel:
    """Shared linear model over the joint feature map.

    State is the ridge-initialized design accumulator ``A`` and response
    vector ``b``; coefficients are kept in sync through rank-1 inverse
    updates and periodically resynced against a direct solve.
    """

    def __init__(self, dim: int = FEATURE_DIM, ridge: float = 1.0) -> None:
        if dim < 1 or ridge <= 0:
            raise ValidationError("model needs dim >= 1 and ridge > 0")
        self.dim = dim
        self.ridge = ridge
        self.A = ridge * np.eye(dim)
        self.b = np.zeros(dim)
        self._a_inv = np.eye(dim) / ridge
        self._theta = np.zeros(dim)
        self._updates = 0

    @property
    def theta(self) -> np.ndarray:
        return self._theta.copy()

    def mean(self, phi: np.ndarray) -> float:
        return float(self._theta @ phi)

    def width(self, phi: np.ndarray) -> float:
        """Ellipsoidal confidence width sqrt(phi^T A^-1 phi)."""
        return float(np.sqrt(max(0.0, phi @ self._a_inv @ phi)))

    def update(self, phi: np.ndarray, reward: float) -> None:
        phi = np.asarray(phi, dtype=float)
        if phi.shape != (self.dim,):
            raise InternalError(f"feature dimension {phi.shape} does not match model dim {self.dim}")
        if not np.all(np.isfinite(phi)) or not np.isfinite(reward):
            raise ValidationError("update requires finite features and reward")
        self.A += np.outer(phi, phi)
        self.b += reward * phi
        # Sherman-Morrison keeps the inverse O(d^2) per update; periodic
        # resync bounds accumulated drift.
        av = self._a_inv @ phi
        self._a_inv -= np.outer(av, av) / (1.0 + phi @ av)
        self._updates += 1
        if self._updates % _THETA_RESYNC_EVERY == 0:
            self._a_inv = np.linalg.inv(self.A)
        self._theta = self._a_inv @ self.b

    def solve_theta(self) -> np.ndarray:
        """Coefficients from a direct solve of A theta = b (reference path)."""
        return np.linalg.solve(self.A, self.b)


# ---------------------------------------------------------------------------
# Feasibility filtering
# ---------------------------------------------------------------------------

REASON_DWELL = "dwell_lock"
REASON_GOAL = "goal_mismatch"
REASON_INACTIVE = "inactive"
REASON_LANGUAGE = "language_mismatch"
REASON_CAPACITY = "capacity_full"
REASON_COACH_LOAD = "coach_load_full"


def feasibility_report(
    context: LearningContext,
    roster: Roster,
    groups: Mapping[str, GroupState],
    epoch: int,
    config: PolicyConfig,
    user_tags: frozenset[str] = frozenset(),
) -> dict[str, list[str]]:
    """Per-group list of violated constraints, in group-id order; an empty
    list means feasible.

    Inside the dwell window every group except the current one is locked
    out. Capacity and coach-load checks exclude the user themself, so a
    member's own full group stays feasible for staying put.
    """
    user = roster.row_of[context.user_token.value]
    current = roster.group_id(user)
    if current is not None and (epoch - roster.last_change[user]) < config.dwell:
        # The dwell rule overrides every other filter: staying put is the
        # only admissible action, whatever the current group looks like.
        return {gid: ([] if gid == current else [REASON_DWELL]) for gid in roster.group_ids}
    capacity_full, coach_full = roster.full_for(user)
    report: dict[str, list[str]] = {}
    for group_id, at_capacity, coach_at_limit in zip(
        roster.group_ids, capacity_full.tolist(), coach_full.tolist()
    ):
        group = groups[group_id]
        reasons = []
        if group.goal_category != context.goal_category:
            reasons.append(REASON_GOAL)
        if not group.active:
            reasons.append(REASON_INACTIVE)
        if user_tags and group.language_tags and not (user_tags & group.language_tags):
            reasons.append(REASON_LANGUAGE)
        if at_capacity:
            reasons.append(REASON_CAPACITY)
        if coach_at_limit:
            reasons.append(REASON_COACH_LOAD)
        report[group_id] = reasons
    return report


# ---------------------------------------------------------------------------
# Scoring and selection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CandidateScore:
    group_id: str
    mu: float
    sigma: float
    churn_penalty: int
    score: float
    load: int


def _churn_penalty(
    group_id: str, roster: Roster, user: int, epoch: int, config: PolicyConfig
) -> int:
    current = roster.group_id(user)
    if current is None or group_id == current:
        return 0
    return 1 if (epoch - roster.last_change[user]) < config.oscillation else 0


def score_and_select(
    context: LearningContext,
    candidates: Sequence[GroupState],
    model: BanditModel,
    roster: Roster,
    epoch: int,
    config: PolicyConfig,
    feature_map: Optional[Callable[[LearningContext, GroupState], np.ndarray]] = None,
) -> tuple[str, list[CandidateScore]]:
    """UCB-score every candidate and pick the argmax.

    Score is mean estimate plus beta times the confidence width, minus
    the churn penalty for moves inside the oscillation horizon. Ties
    break to the lowest current load, then lexicographic group id.
    """
    if not candidates:
        raise ValidationError("score_and_select requires a non-empty candidate set")
    user = roster.row_of[context.user_token.value]
    fmap = feature_map or (lambda ctx, grp: joint_features(ctx, grp, roster.fill_ratio(grp.group_id)))
    rows = []
    for group in candidates:
        phi = np.asarray(fmap(context, group), dtype=float)
        if phi.shape != (model.dim,):
            raise InternalError(
                f"feature map produced dim {phi.shape}, model expects {model.dim}"
            )
        mu = model.mean(phi)
        sigma = model.width(phi)
        penalty = _churn_penalty(group.group_id, roster, user, epoch, config)
        rows.append(
            CandidateScore(
                group_id=group.group_id,
                mu=mu,
                sigma=sigma,
                churn_penalty=penalty,
                score=mu + config.beta * sigma - config.lam * penalty,
                load=int(roster.count[roster.group_row[group.group_id]]),
            )
        )
    best = min(rows, key=lambda r: (-r.score, r.load, r.group_id))
    return best.group_id, rows


# ---------------------------------------------------------------------------
# Reward observation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RewardObservation:
    """Observed short-horizon reward for one assignment decision."""

    user_token: str
    group_id: str
    delta_adh: float
    delta_eng: float
    churn_penalty: int
    reward: float
    epoch: int


def compute_reward(
    events: UserEvents,
    *,
    user_token: str,
    group_id: str,
    epoch: int,
    churn_penalty: int,
    weights: EngagementWeights,
    config: PolicyConfig,
) -> Optional[RewardObservation]:
    """Within-user deltas across the assignment boundary, or None if deferred.

    Adherence and engagement both compare the evaluation window
    [epoch, epoch + w_post) against the fixed pre-assignment baseline
    [epoch - w_pre, epoch). Insufficient history on either side defers
    the observation; no model update should happen for it.
    """
    if epoch < config.w_pre:
        return None
    end_week = epoch + config.w_post
    if events.checkins.size < end_week * DAYS_PER_WEEK:
        return None
    pre_days = events.checkins[(epoch - config.w_pre) * DAYS_PER_WEEK : epoch * DAYS_PER_WEEK]
    post_days = events.checkins[epoch * DAYS_PER_WEEK : end_week * DAYS_PER_WEEK]
    delta_adh = float(post_days.mean() - pre_days.mean())

    pre_scores = engagement_scores(events.action_counts[epoch - config.w_pre : epoch], weights)
    post_scores = engagement_scores(events.action_counts[epoch:end_week], weights)
    delta_eng = float(post_scores.mean() - pre_scores.mean())

    reward = config.w_adh * delta_adh + config.w_eng * delta_eng - config.lam * churn_penalty
    return RewardObservation(
        user_token=user_token,
        group_id=group_id,
        delta_adh=delta_adh,
        delta_eng=delta_eng,
        churn_penalty=churn_penalty,
        reward=reward,
        epoch=epoch,
    )


# ---------------------------------------------------------------------------
# End-to-end assignment
# ---------------------------------------------------------------------------


@dataclass
class AssignmentDecision:
    """Result of one assign() call plus the coach-facing rationale trace."""

    epoch: int
    user_token: str
    candidates: list[dict]
    chosen: Optional[str]
    changed: bool
    waitlisted: bool = False
    phi_chosen: Optional[np.ndarray] = None
    churn_penalty: int = 0

    def to_trace_dict(self) -> dict:
        return {
            "epoch": self.epoch,
            "user_token": self.user_token,
            "candidates": self.candidates,
            "chosen": self.chosen,
            "changed": self.changed,
        }


def assign(
    context: LearningContext,
    roster: Roster,
    groups: Mapping[str, GroupState],
    model: BanditModel,
    epoch: int,
    config: PolicyConfig,
    *,
    user_tags: frozenset[str] = frozenset(),
    group_engagement: Optional[Mapping[str, float]] = None,
) -> AssignmentDecision:
    """Filter, score, select, and apply one assignment decision.

    The roster changes only when the chosen group differs from the
    current one. A placed user with no feasible alternative stays put; an
    unplaced user with no feasible group is waitlisted for the next epoch.
    """
    report = feasibility_report(context, roster, groups, epoch, config, user_tags)
    feasible_ids = [gid for gid, reasons in report.items() if not reasons]
    engagement_by_group = group_engagement or {}
    user = roster.row_of[context.user_token.value]
    current = roster.group_id(user)

    trace = [
        {
            "group": gid,
            "mu": None,
            "sigma": None,
            "penalty": None,
            "score": None,
            "feasible": not reasons,
            "reasons": reasons,
        }
        for gid, reasons in report.items()
    ]

    if not feasible_ids:
        return AssignmentDecision(
            epoch=epoch,
            user_token=context.user_token.value,
            candidates=trace,
            chosen=current,
            changed=False,
            waitlisted=current is None,
        )

    fmap = lambda ctx, grp: joint_features(
        ctx, grp, roster.fill_ratio(grp.group_id), engagement_by_group.get(grp.group_id, 0.5)
    )
    chosen_id, scores = score_and_select(
        context, [groups[g] for g in feasible_ids], model, roster, epoch, config, feature_map=fmap
    )
    for row in scores:
        trace[roster.group_row[row.group_id]].update(
            mu=row.mu, sigma=row.sigma, penalty=row.churn_penalty, score=row.score
        )
    chosen_row = next(r for r in scores if r.group_id == chosen_id)
    # Capture the features as scored, before the move changes fill ratios.
    phi_chosen = fmap(context, groups[chosen_id])

    changed = chosen_id != current
    if changed:
        roster.move(user, roster.group_row[chosen_id], epoch, config.dwell)

    return AssignmentDecision(
        epoch=epoch,
        user_token=context.user_token.value,
        candidates=trace,
        chosen=chosen_id,
        changed=changed,
        phi_chosen=phi_chosen,
        churn_penalty=chosen_row.churn_penalty,
    )
