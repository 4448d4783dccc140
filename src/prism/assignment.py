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

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import ConstraintViolationError, InternalError, ValidationError
from .features import (
    DAYS_PER_WEEK,
    GOAL_CATEGORIES,
    ContextBatch,
    EngagementWeights,
    engagement_scores,
)
from .records import Record

_STREAK_CAP_DAYS = 14
_THETA_RESYNC_EVERY = 512


@dataclass(frozen=True)
class GroupState:
    """Static attributes of one peer group; who sits in it lives in the Roster.

    Frozen because the roster copies these attributes into arrays once.
    """

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
    ``load``. Users are rows in the order of ``user_tokens``, which the
    roster keeps, and a user's row is their only handle; group rows
    follow ``sorted(group_id)``, which is the lexicographic candidate
    order. :meth:`move` is the only writer of these four and of what it
    keeps current from them: per group, ``capacity_code``
    (``CODE_CAPACITY`` when the group is at capacity, else 0) and
    ``fill`` (count over capacity); per coach, ``load_code``
    (``CODE_COACH_LOAD`` when the coach is at the load limit, else 0).

    The groups' static attributes are arrays too: ``capacity``,
    ``coach_of``, ``goal_index`` (into ``GOAL_CATEGORIES``), ``active``,
    and ``speaks``, a group-by-language-tag mask.
    """

    def __init__(
        self,
        groups: Mapping[str, GroupState],
        coaches: Mapping[str, CoachState],
        user_tokens: Sequence[str],
    ) -> None:
        self.group_ids = sorted(groups)
        self.group_row = {gid: g for g, gid in enumerate(self.group_ids)}
        self.coach_ids = sorted(coaches)
        self.coach_row = {cid: c for c, cid in enumerate(self.coach_ids)}
        self.user_tokens = list(user_tokens)
        self.capacity = np.array([groups[gid].capacity for gid in self.group_ids], dtype=np.int64)
        self.coach_of = np.array(
            [self.coach_row[groups[gid].coach_id] for gid in self.group_ids], dtype=np.int64
        )
        self.load_limit = np.array(
            [coaches[cid].load_limit for cid in self.coach_ids], dtype=np.int64
        )
        self.goal_index = np.array(
            [GOAL_CATEGORIES.index(groups[gid].goal_category) for gid in self.group_ids],
            dtype=np.int64,
        )
        self.active = np.array([groups[gid].active for gid in self.group_ids], dtype=bool)
        tags = sorted(set().union(*(groups[gid].language_tags for gid in self.group_ids)))
        self._tag_col = {tag: t for t, tag in enumerate(tags)}
        self.speaks = np.array(
            [[tag in groups[gid].language_tags for tag in tags] for gid in self.group_ids],
            dtype=bool,
        ).reshape(len(self.group_ids), len(tags))
        self._eligibility: dict[tuple[int, frozenset[str]], np.ndarray] = {}
        self.group_of = np.full(len(user_tokens), -1, dtype=np.int64)
        self.last_change = np.zeros(len(user_tokens), dtype=np.int64)
        self.count = np.zeros(len(self.group_ids), dtype=np.int64)
        self.load = np.zeros(len(self.coach_ids), dtype=np.int64)
        self.capacity_code = (self.count >= self.capacity) * CODE_CAPACITY
        self.fill = self.count / self.capacity
        self.load_code = (self.load >= self.load_limit) * CODE_COACH_LOAD

    def group_id(self, user: int) -> Optional[str]:
        group = self.group_of[user]
        return self.group_ids[group] if group >= 0 else None

    def eligibility_codes(self, goal: int, user_tags: frozenset[str]) -> np.ndarray:
        """Per group, the goal, inactive and language reason bits for a user
        with goal index ``goal`` and language ``user_tags``.

        They depend only on static attributes, so each (goal, tags) pair
        is computed once and the read-only result is reused.
        """
        codes = self._eligibility.get((goal, user_tags))
        if codes is None:
            shared = self.speaks[:, [self._tag_col[t] for t in user_tags if t in self._tag_col]]
            language = bool(user_tags) & self.speaks.any(axis=1) & ~shared.any(axis=1)
            codes = (
                (self.goal_index != goal) * CODE_GOAL
                | ~self.active * CODE_INACTIVE
                | language * CODE_LANGUAGE
            )
            codes.flags.writeable = False
            self._eligibility[(goal, user_tags)] = codes
        return codes

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
            self._refresh(old, old_coach)
        self.count[group] += 1
        self.load[coach] += 1
        self._refresh(group, coach)
        self.group_of[user] = group
        self.last_change[user] = epoch

    def _refresh(self, group: int, coach: int) -> None:
        """Recompute the kept fullness state of one group and one coach."""
        self.capacity_code[group] = CODE_CAPACITY if self.count[group] >= self.capacity[group] else 0
        self.fill[group] = self.count[group] / self.capacity[group]
        self.load_code[coach] = CODE_COACH_LOAD if self.load[coach] >= self.load_limit[coach] else 0


@dataclass(frozen=True)
class PolicyConfig(Record):
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
        self.check_fields()
        if self.w_adh < 0 or self.w_eng < 0 or self.lam < 0:
            raise ValidationError("reward and churn weights must be non-negative")
        if self.oscillation < self.dwell:
            raise ValidationError("oscillation horizon must be at least the dwell time")
        if self.dwell < 0 or self.w_pre < 1 or self.w_post < 1 or self.ridge <= 0:
            raise ValidationError("invalid policy window or ridge configuration")


# ---------------------------------------------------------------------------
# Joint feature map
# ---------------------------------------------------------------------------

N_NUMERIC = 5
_USER_BLOCK = N_NUMERIC + len(GOAL_CATEGORIES) + 2
_GROUP_BLOCK = 2 + len(GOAL_CATEGORIES)
FEATURE_DIM = _USER_BLOCK + _GROUP_BLOCK + len(GOAL_CATEGORIES)


_FILL_RATIO = _USER_BLOCK + 1


class FeatureTables(NamedTuple):
    """The parts of the joint feature map that stay fixed through an epoch.

    ``user_block`` holds a user block per roster user row: the numeric
    features, the goal one-hot, the capped missed-check-in streak and the
    clipped engagement slope. ``goal`` is each user row's goal index.
    ``group_block[goal, group row]`` is the rest of a row for a user with
    that goal: the group aggregates (last week's member engagement,
    clipped to [0, 1], and the fill ratio, left at 0 here), the group goal
    one-hot, and the goal interaction, the elementwise product of the user
    and group goal one-hots, so goal agreement is directly learnable.
    """

    user_block: np.ndarray
    goal: np.ndarray
    group_block: np.ndarray


def feature_tables(
    contexts: ContextBatch, roster: Roster, group_engagement: Optional[np.ndarray] = None
) -> FeatureTables:
    """The epoch's feature tables for every user of ``roster``.

    ``contexts`` must hold one context per roster user, in roster row
    order. ``group_engagement`` is indexed by group row; None means 0.5
    for every group.
    """
    if [token.value for token in contexts.user_tokens] != roster.user_tokens:
        raise ValidationError(
            "feature tables need one context per roster user, in roster row order"
        )
    onehots = np.eye(len(GOAL_CATEGORIES))
    user_block = np.column_stack(
        [
            contexts.numeric,
            onehots[contexts.goal],
            np.minimum(contexts.streak, _STREAK_CAP_DAYS) / _STREAK_CAP_DAYS,
            np.clip(contexts.slope, -1.0, 1.0),
        ]
    )
    n_groups = len(roster.group_ids)
    engagement = np.full(n_groups, 0.5) if group_engagement is None else group_engagement
    group_goal = onehots[roster.goal_index]
    group_block = np.zeros((len(GOAL_CATEGORIES), n_groups, FEATURE_DIM - _USER_BLOCK))
    group_block[:, :, 0] = np.clip(engagement, 0.0, 1.0)
    group_block[:, :, 2:_GROUP_BLOCK] = group_goal
    group_block[:, :, _GROUP_BLOCK:] = onehots[:, None, :] * group_goal
    return FeatureTables(user_block, contexts.goal, group_block)


def joint_features(
    tables: FeatureTables, user: int, roster: Roster, rows: np.ndarray
) -> np.ndarray:
    """The joint feature rows of user row ``user`` and each group row in
    ``rows``, as a (k, FEATURE_DIM) matrix: the user's block, the group
    part for the user's goal, and each group's current fill ratio."""
    phi = np.empty((rows.size, FEATURE_DIM))
    phi[:, :_USER_BLOCK] = tables.user_block[user]
    phi[:, _USER_BLOCK:] = tables.group_block[tables.goal[user], rows]
    phi[:, _FILL_RATIO] = roster.fill[rows]
    return phi


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

    # Both use einsum without its optimizer, which computes every output
    # element by the same loop over the summed index: a BLAS product would
    # block the rows and give identical rows different values, breaking
    # exact ties.
    def means(self, phi: np.ndarray) -> np.ndarray:
        """Mean estimate theta^T phi of each row of ``phi``."""
        return np.einsum("ij,j->i", phi, self._theta)

    def widths(self, phi: np.ndarray) -> np.ndarray:
        """Ellipsoidal confidence width sqrt(phi^T A^-1 phi) of each row of ``phi``.

        ``phi A^-1`` first, then a row-wise dot with ``phi``: a single
        three-operand einsum does the same O(k d^2) work several times
        slower.
        """
        quad = np.einsum("ik,ik->i", np.einsum("ij,jk->ik", phi, self._a_inv), phi)
        return np.sqrt(np.maximum(0.0, quad))

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


# ---------------------------------------------------------------------------
# Feasibility filtering
# ---------------------------------------------------------------------------

REASON_DWELL = "dwell_lock"
REASON_GOAL = "goal_mismatch"
REASON_INACTIVE = "inactive"
REASON_LANGUAGE = "language_mismatch"
REASON_CAPACITY = "capacity_full"
REASON_COACH_LOAD = "coach_load_full"

# A reason code per group: one bit per reason, in report order, and 0
# for feasible. Dwell is a code of its own because it overrides every
# other filter.
_REASON_BITS = (REASON_GOAL, REASON_INACTIVE, REASON_LANGUAGE, REASON_CAPACITY, REASON_COACH_LOAD)
CODE_GOAL, CODE_INACTIVE, CODE_LANGUAGE, CODE_CAPACITY, CODE_COACH_LOAD = (
    1 << bit for bit in range(len(_REASON_BITS))
)
CODE_DWELL = 1 << len(_REASON_BITS)
N_REASON_CODES = CODE_DWELL + 1
REASONS_OF_CODE: tuple[tuple[str, ...], ...] = tuple(
    tuple(reason for bit, reason in enumerate(_REASON_BITS) if code >> bit & 1)
    for code in range(CODE_DWELL)
) + ((REASON_DWELL,),)


class FeasibilityReport(Mapping[str, list]):
    """Per-group list of violated constraints, in group-id order; an empty
    list means feasible.

    Holds one reason code per group row (``codes``) and decodes a group's
    list only when it is read.
    """

    def __init__(self, roster: Roster, codes: np.ndarray) -> None:
        self._roster = roster
        self.codes = codes

    def __getitem__(self, group_id: str) -> list[str]:
        return list(REASONS_OF_CODE[self.codes[self._roster.group_row[group_id]]])

    def __iter__(self):
        return iter(self._roster.group_ids)

    def __len__(self) -> int:
        return len(self._roster.group_ids)

    def values(self) -> list[list[str]]:
        return [list(REASONS_OF_CODE[code]) for code in self.codes.tolist()]


def feasibility_report(
    user: int,
    goal: int,
    roster: Roster,
    epoch: int,
    config: PolicyConfig,
    user_tags: frozenset[str] = frozenset(),
) -> FeasibilityReport:
    """Which constraints each group violates at ``epoch`` for user row
    ``user``, whose goal index is ``goal`` and language ``user_tags``.

    Inside the dwell window every group except the current one is locked
    out. Capacity and coach-load checks exclude the user themself, so a
    member's own full group stays feasible for staying put. Every check
    reads the roster's arrays; the capacity and coach-load bits are the
    codes :meth:`Roster.move` keeps.
    """
    current = roster.group_of[user]
    if current >= 0 and (epoch - roster.last_change[user]) < config.dwell:
        # The dwell rule overrides every other filter: staying put is the
        # only admissible action, whatever the current group looks like.
        codes = np.full(len(roster.group_ids), CODE_DWELL)
        codes[current] = 0
        return FeasibilityReport(roster, codes)
    codes = (
        roster.eligibility_codes(goal, user_tags)
        | roster.capacity_code
        | roster.load_code[roster.coach_of]
    )
    if current >= 0:
        # A placed user's own seat counts against neither limit; a move
        # never overfills, so their group and coach have room for them.
        codes[current] &= ~CODE_CAPACITY
        coach = roster.coach_of[current]
        if roster.load_code[coach]:
            codes[roster.coach_of == coach] &= ~CODE_COACH_LOAD
    return FeasibilityReport(roster, codes)


# ---------------------------------------------------------------------------
# Scoring and selection
# ---------------------------------------------------------------------------


class CandidateScores(NamedTuple):
    """The UCB terms of the scored group rows, one array each, in candidate order."""

    mu: np.ndarray
    sigma: np.ndarray
    penalty: np.ndarray
    score: np.ndarray


def ucb_score(
    mu: np.ndarray, sigma: np.ndarray, penalty: np.ndarray, beta: float, lam: float
) -> np.ndarray:
    """Mean estimate plus ``beta`` times the confidence width, minus ``lam``
    per unit of churn penalty. Trace decoding recomputes each score with
    this same function, so a trace holds no score of its own."""
    return mu + beta * sigma - lam * penalty


def score_and_select(
    user: int,
    candidates: Sequence[int],
    model: BanditModel,
    roster: Roster,
    epoch: int,
    config: PolicyConfig,
    tables: FeatureTables,
) -> tuple[int, CandidateScores, np.ndarray]:
    """UCB-score every candidate group row for user row ``user`` and pick
    the argmax.

    Score is mean estimate plus beta times the confidence width, minus
    the churn penalty for moves inside the oscillation horizon. Ties
    break to the lowest current load, then lexicographic group id.
    Returns the index of the chosen candidate, the scores in candidate
    order, and the chosen row's features as scored. ``tables`` are the
    epoch's :func:`feature_tables`.
    """
    rows = np.asarray(candidates, dtype=np.int64)
    if rows.size == 0:
        raise ValidationError("score_and_select requires a non-empty candidate set")
    phi = joint_features(tables, user, roster, rows)
    if phi.shape != (rows.size, model.dim):
        raise InternalError(f"feature map produced shape {phi.shape}, model expects dim {model.dim}")
    current = roster.group_of[user]
    may_churn = current >= 0 and (epoch - roster.last_change[user]) < config.oscillation
    # Each term is one per-row einsum pass, so identical rows get identical
    # terms and exact ties reach the tie-break below.
    mu = model.means(phi)
    sigma = model.widths(phi)
    penalty = ((rows != current) & may_churn).astype(np.int64)
    score = ucb_score(mu, sigma, penalty, config.beta, config.lam)
    # Least significant key first; group rows are in group-id order.
    best = int(np.lexsort((rows, roster.count[rows], -score))[0])
    # A copy, so a pending observation does not keep the whole matrix alive.
    return best, CandidateScores(mu, sigma, penalty, score), phi[best].copy()


# ---------------------------------------------------------------------------
# Reward observation
# ---------------------------------------------------------------------------


def compute_reward(
    checkins: np.ndarray,
    action_counts: np.ndarray,
    *,
    epoch: int,
    churn_penalty: int,
    weights: EngagementWeights,
    config: PolicyConfig,
) -> Optional[float]:
    """One user's reward for the decision at ``epoch``, or None if deferred.

    ``checkins`` is the user's daily 0/1 array and ``action_counts`` their
    (weeks, K) matrix of weekly action counts. Adherence and engagement
    both compare the evaluation window [epoch, epoch + w_post) against the
    fixed pre-assignment baseline [epoch - w_pre, epoch). Insufficient
    history on either side defers the observation; no model update should
    happen for it.
    """
    if epoch < config.w_pre:
        return None
    end_week = epoch + config.w_post
    if checkins.size < end_week * DAYS_PER_WEEK:
        return None
    pre_days = checkins[(epoch - config.w_pre) * DAYS_PER_WEEK : epoch * DAYS_PER_WEEK]
    post_days = checkins[epoch * DAYS_PER_WEEK : end_week * DAYS_PER_WEEK]
    delta_adh = float(post_days.mean() - pre_days.mean())

    pre_scores = engagement_scores(action_counts[epoch - config.w_pre : epoch], weights)
    post_scores = engagement_scores(action_counts[epoch:end_week], weights)
    delta_eng = float(post_scores.mean() - pre_scores.mean())

    return config.w_adh * delta_adh + config.w_eng * delta_eng - config.lam * churn_penalty


# ---------------------------------------------------------------------------
# End-to-end assignment
# ---------------------------------------------------------------------------


@dataclass
class AssignmentDecision:
    """Result of one assign() call plus the coach-facing rationale trace.

    The trace is held as arrays: a reason code per roster group row (0
    for feasible), and ``scores``, the UCB terms of the feasible rows in
    row order, or None when no group was feasible and nothing was scored.
    ``chosen`` is None for a waitlisted user.
    """

    epoch: int
    user_token: str
    reason_codes: np.ndarray
    scores: Optional[CandidateScores]
    chosen: Optional[str]
    changed: bool
    phi_chosen: Optional[np.ndarray] = None
    churn_penalty: int = 0


def assign(
    user: int,
    roster: Roster,
    model: BanditModel,
    epoch: int,
    config: PolicyConfig,
    *,
    tables: FeatureTables,
    user_tags: frozenset[str] = frozenset(),
) -> AssignmentDecision:
    """Filter, score, select, and apply one assignment decision for user
    row ``user``.

    The roster changes only when the chosen group differs from the
    current one. A placed user with no feasible alternative stays put; an
    unplaced user with no feasible group is waitlisted for the next epoch.
    ``tables`` are the epoch's :func:`feature_tables`; the user's goal
    is read from them, so eligibility and features agree on it.
    """
    codes = feasibility_report(user, int(tables.goal[user]), roster, epoch, config, user_tags).codes
    feasible = np.flatnonzero(codes == 0)
    current = chosen = int(roster.group_of[user])
    scores = phi_chosen = None
    penalty = 0
    if feasible.size:
        best, scores, phi_chosen = score_and_select(
            user, feasible, model, roster, epoch, config, tables
        )
        chosen, penalty = int(feasible[best]), int(scores.penalty[best])
        if chosen != current:
            roster.move(user, chosen, epoch, config.dwell)

    return AssignmentDecision(
        epoch=epoch,
        user_token=roster.user_tokens[user],
        reason_codes=codes,
        scores=scores,
        chosen=roster.group_id(user),
        changed=chosen != current,
        phi_chosen=phi_chosen,
        churn_penalty=penalty,
    )
