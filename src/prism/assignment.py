"""Privacy-constrained contextual-bandit group assignment.

Candidate groups are filtered by hard feasibility first — capacity,
coach load, minimum dwell, goal eligibility — and only
then scored. Placement is one :class:`Roster`, the Operational view of
groups and coaches: the roster takes the group and coach ids with their
static arrays, orders their rows itself, and keeps every placement
array. Scoring is linear-UCB over a single shared coefficient
vector on a joint user-by-group feature map, with a stability penalty
against reassignments inside the oscillation horizon. The model scores
through :class:`UcbTerms`, its mean and width factored once per epoch
into a part per user row, a part per (goal, group row) and terms in the
group's fill ratio, so a scored pair costs a few elementwise operations
and only a chosen pair's feature row is built. An epoch's users are
decided in row order by :func:`decide_epoch`, in passes between moves,
and where moves come close together in stretches of rows decided one at
a time. :func:`assign` is the public one-row decision and the reference
both paths must equal. It returns its decision as a one-row pass, so
every path gives one record, :class:`DecisionPass`. Rewards are
within-user deltas against the fixed pre-assignment baseline window and
arrive after the evaluation window, so the caller queues each epoch's
decisions and feeds the model one batch per epoch once they mature.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import ConstraintViolationError, InternalError, ValidationError
from .features import DAYS_PER_WEEK, GOAL_CATEGORIES, ContextBatch, engagement_scores
from .records import Record

_STREAK_CAP_DAYS = 14


class CoachState:
    """Only a name: ``perfbench/tracing.py`` counts calls to
    ``CoachState.load``, and no program code makes one. A coach's load is
    ``Roster.load`` at the coach's row. ROADMAP item 1, which moves the
    benchmark's layer timing into ``src/``, deletes this class."""

    @staticmethod
    def load(roster: Roster, coach: int) -> int:
        return int(roster.load[coach])


# perfbench/tracing.py wraps engagement_scores here too and counts
# CoachState.load; nothing in this module calls either.
_TRACED_NAMES = (engagement_scores, CoachState)


class Roster:
    """Who sits in which group: the single placement state of a run.

    Index-aligned arrays: per user, ``group_of`` (a group row, -1 while
    unplaced) and ``last_change`` (epoch of the last move, the initial
    placement included); per group, the member ``count``; per coach, the
    ``load``. Users are rows in the order of ``user_tokens``, which the
    roster keeps, and a user's row is their only handle. :meth:`move` is
    the only writer of these four and of what it keeps current from
    them: per group, ``capacity_code`` (``CODE_CAPACITY`` when the group
    is at capacity, else 0) and ``fill`` (count over capacity); per
    coach, ``load_code`` (``CODE_COACH_LOAD`` when the coach is at the
    load limit, else 0).

    The static attributes are read-only arrays: per group, ``capacity``,
    ``coach_of`` (a coach row) and ``goal_index`` (into
    ``GOAL_CATEGORIES``); per coach, ``load_limit``; and ``goal_code``,
    whose entry ``[goal, group]`` is ``CODE_GOAL`` when the group does
    not serve goal index ``goal``, else 0. The roster alone orders the
    rows: group rows follow ``sorted(group_ids)``, which is the
    lexicographic candidate order, and coach rows ``sorted(coach_ids)``.
    The constructor takes each group's ``capacity``, ``goal_index`` and
    ``coach_of`` (an index into ``coach_ids``) in the order of
    ``group_ids``, and each coach's ``load_limit`` in the order of
    ``coach_ids``. A capacity below 1 or an unknown goal raises
    ``ValidationError``.
    """

    def __init__(
        self,
        group_ids: Sequence[str],
        coach_ids: Sequence[str],
        user_tokens: Sequence[str],
        *,
        capacity: Sequence[int],
        goal_index: Sequence[int],
        coach_of: Sequence[int],
        load_limit: Sequence[int],
    ) -> None:
        n_groups, n_coaches = len(group_ids), len(coach_ids)
        group_sizes = {len(set(group_ids)), len(capacity), len(goal_index), len(coach_of)}
        if group_sizes != {n_groups} or {len(set(coach_ids)), len(load_limit)} != {n_coaches}:
            raise ValidationError(
                "group and coach ids must be distinct, with a capacity, goal and coach "
                "per group and a load limit per coach"
            )
        group_order = sorted(range(n_groups), key=group_ids.__getitem__)
        coach_order = sorted(range(n_coaches), key=coach_ids.__getitem__)
        self.group_ids = [group_ids[g] for g in group_order]
        self.coach_ids = [coach_ids[c] for c in coach_order]
        self.user_tokens = list(user_tokens)
        self.capacity = np.array(capacity, dtype=np.int64)[group_order]
        self.goal_index = np.array(goal_index, dtype=np.int64)[group_order]
        coaches = np.array(coach_of, dtype=np.int64)[group_order]
        if (self.capacity < 1).any():
            raise ValidationError("group capacity must be at least 1")
        if not ((self.goal_index >= 0) & (self.goal_index < len(GOAL_CATEGORIES))).all():
            raise ValidationError("unknown goal index: each group's goal indexes GOAL_CATEGORIES")
        if not ((coaches >= 0) & (coaches < n_coaches)).all():
            raise ValidationError("unknown coach index: each group's coach indexes coach_ids")
        coach_row = np.empty(n_coaches, dtype=np.int64)
        coach_row[coach_order] = np.arange(n_coaches)
        self.coach_of = coach_row[coaches]
        self.load_limit = np.array(load_limit, dtype=np.int64)[coach_order]
        goals = np.arange(len(GOAL_CATEGORIES))[:, None]
        self.goal_code = (self.goal_index != goals) * CODE_GOAL
        for static in (self.capacity, self.goal_index, self.coach_of, self.load_limit, self.goal_code):
            static.flags.writeable = False
        self.group_of = np.full(len(user_tokens), -1, dtype=np.int64)
        self.last_change = np.zeros(len(user_tokens), dtype=np.int64)
        self.count = np.zeros(n_groups, dtype=np.int64)
        self.load = np.zeros(n_coaches, dtype=np.int64)
        self.capacity_code = (self.count >= self.capacity) * CODE_CAPACITY
        self.fill = self.count / self.capacity
        self.load_code = (self.load >= self.load_limit) * CODE_COACH_LOAD

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
    """Assignment policy knobs; every default is echoed into run manifests.

    The real-valued knobs are bounded so that the model stays finite for
    any run a ``Scenario`` accepts. Every entry of a joint feature row
    lies in [-1, 1], so ``|phi|^2 <= d`` with ``d = FEATURE_DIM`` (21); a
    run makes at most ``N = 10**7`` decisions, the scenario's
    ``MAX_USER_WEEKS``; and a reward lies within ``R = w_adh + w_eng +
    lam`` of 0, since both deltas lie in [-1, 1] and the churn penalty is
    0 or 1. So ``A = ridge I + sum phi phi^T`` has its eigenvalues in
    ``[ridge, ridge + N d]``, ``|b| <= sqrt(d) N R``, ``|theta| <= |b| /
    ridge``, ``|mu| <= d N R / ridge`` and ``sigma <= sqrt(d / ridge)``.

    - ``ridge`` in [1e-4, 1e8]. At 1e-4 the ridge stays three orders
      above the float64 rounding of the summed ``phi phi^T`` (about
      ``2.2e-16 N d``, 5e-8), so ``A`` stays positive definite, with
      ``cond(A) <= 1 + N d / ridge``, about 2e12. Above 1e8, about half
      of ``N d``, the prior outweighs anything a run can observe.
    - ``w_adh``, ``w_eng`` and ``lam`` in [0, 1e6], so ``R <= 3e6`` and
      ``|mu| <= 6.3e18``.
    - ``beta`` in [0, 1e6], so ``beta sigma <= 1e6 sqrt(d / 1e-4)``,
      about 4.6e8.

    Every term of a score then stays finite, far from overflow, and the
    tie-break between equal scores sees no NaN.
    """

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
        for name, (low, high) in _POLICY_BOUNDS.items():
            value = getattr(self, name)
            if not low <= value <= high:
                raise ValidationError(f"policy {name} must lie in [{low:g}, {high:g}], got {value!r}")
        if self.oscillation < self.dwell:
            raise ValidationError("oscillation horizon must be at least the dwell time")
        if self.dwell < 0 or self.w_pre < 1 or self.w_post < 1:
            raise ValidationError("invalid policy window configuration")


# The bounds derived in the PolicyConfig docstring.
_POLICY_BOUNDS = {
    "w_adh": (0.0, 1e6),
    "w_eng": (0.0, 1e6),
    "lam": (0.0, 1e6),
    "beta": (0.0, 1e6),
    "ridge": (1e-4, 1e8),
}


# ---------------------------------------------------------------------------
# Joint feature map
# ---------------------------------------------------------------------------

N_NUMERIC = 5
_USER_BLOCK = N_NUMERIC + len(GOAL_CATEGORIES) + 2
_GROUP_BLOCK = 2 + len(GOAL_CATEGORIES)
FEATURE_DIM = _USER_BLOCK + _GROUP_BLOCK + len(GOAL_CATEGORIES)

# Columns of the group part, the rest of a joint row after the user block.
_ENGAGEMENT, _FILL = 0, 1
_FILL_RATIO = _USER_BLOCK + _FILL


def _goal_part() -> np.ndarray:
    """``[goal, group goal]``: the group part of a row for a user with goal
    index ``goal`` in a group with goal index ``group goal``, with its
    engagement and fill columns at 0. That leaves the group goal one-hot
    and the goal interaction, the elementwise product of the user and
    group goal one-hots, so goal agreement is directly learnable."""
    onehots = np.eye(len(GOAL_CATEGORIES))
    part = np.zeros((len(GOAL_CATEGORIES), len(GOAL_CATEGORIES), FEATURE_DIM - _USER_BLOCK))
    part[:, :, 2:_GROUP_BLOCK] = onehots
    part[:, :, _GROUP_BLOCK:] = onehots[:, None, :] * onehots
    part.flags.writeable = False
    return part


_GOAL_PART = _goal_part()


class FeatureTables(NamedTuple):
    """The parts of the joint feature map that stay fixed through an epoch.

    ``user_block`` holds a user block per roster user row: the numeric
    features, the goal one-hot, the capped missed-check-in streak and the
    clipped engagement slope. ``goal`` is each user row's goal index.
    ``group_block[goal, group row]`` is the rest of a row for a user with
    that goal, with the fill ratio at 0: last week's member engagement,
    clipped to [0, 1], in the engagement column, and the ``_GOAL_PART`` of
    the two goals. ``group_goal`` is each group row's goal index, the
    roster's ``goal_index``.
    """

    user_block: np.ndarray
    goal: np.ndarray
    group_block: np.ndarray
    group_goal: np.ndarray


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
    user_block = np.column_stack(
        [
            contexts.numeric,
            np.eye(len(GOAL_CATEGORIES))[contexts.goal],
            np.minimum(contexts.streak, _STREAK_CAP_DAYS) / _STREAK_CAP_DAYS,
            np.clip(contexts.slope, -1.0, 1.0),
        ]
    )
    n_groups = len(roster.group_ids)
    engagement = np.full(n_groups, 0.5) if group_engagement is None else group_engagement
    group_block = _GOAL_PART[:, roster.goal_index]
    group_block[:, :, _ENGAGEMENT] = np.clip(engagement, 0.0, 1.0)
    return FeatureTables(user_block, contexts.goal, group_block, roster.goal_index)


def _feature_rows(
    tables: FeatureTables, users: np.ndarray, groups: np.ndarray, fill: np.ndarray
) -> np.ndarray:
    """The joint feature rows of the pairs of user rows ``users`` (or one
    user row for every pair) and group rows ``groups``, at the fill ratio
    ``fill`` of each pair's group."""
    phi = np.empty((groups.size, FEATURE_DIM))
    phi[:, :_USER_BLOCK] = tables.user_block[users]
    phi[:, _USER_BLOCK:] = tables.group_block[tables.goal[users], groups]
    phi[:, _FILL_RATIO] = fill
    return phi


def joint_features(
    tables: FeatureTables, user: int, roster: Roster, rows: np.ndarray
) -> np.ndarray:
    """The joint feature rows of user row ``user`` and each group row in
    ``rows``, as a (k, FEATURE_DIM) matrix: the user's block, the group
    part for the user's goal, and each group's current fill ratio."""
    return _feature_rows(tables, user, rows, roster.fill[rows])


# ---------------------------------------------------------------------------
# Linear-UCB model
# ---------------------------------------------------------------------------


class BanditModel:
    """Shared linear model over the joint feature map, ``FEATURE_DIM``
    wide.

    State is the design accumulator ``A``, initialized to ``ridge`` times
    the identity, and the response vector ``b``. Each :meth:`update` adds
    a batch of observations and re-solves the coefficients through one
    exact inverse of ``A``. The
    model scores through :meth:`terms`, the factored UCB terms of an
    epoch's feature tables, which it keeps until the next update, the
    next tables or :meth:`drop_terms`.
    """

    def __init__(self, ridge: float) -> None:
        if ridge <= 0:
            raise ValidationError("model needs ridge > 0")
        self.A = ridge * np.eye(FEATURE_DIM)
        self.b = np.zeros(FEATURE_DIM)
        self._a_inv = np.eye(FEATURE_DIM) / ridge
        self._theta = np.zeros(FEATURE_DIM)
        self._terms: Optional[UcbTerms] = None

    def terms(self, tables: FeatureTables) -> UcbTerms:
        """The factored UCB terms of the current model over ``tables``."""
        if self._terms is None or self._terms.tables is not tables:
            self._terms = UcbTerms(self._theta, self._a_inv, tables)
        return self._terms

    def drop_terms(self) -> None:
        """Free the kept terms, and the tables they hold, once an epoch is decided."""
        self._terms = None

    def update(self, phi: np.ndarray, rewards: np.ndarray) -> None:
        """Add the observations of a (m, FEATURE_DIM) batch ``phi`` with
        their (m,) ``rewards``: ``A += phi^T phi`` and ``b += phi^T
        rewards``, then ``theta = A^-1 b`` from one exact inverse. Any split
        of the same observations into batches gives the same ridge
        solution. A bad batch, or one that would leave ``A`` singular or
        any state non-finite, raises before the model changes."""
        phi = np.asarray(phi, dtype=float)
        rewards = np.asarray(rewards, dtype=float)
        if phi.ndim != 2 or phi.shape[1] != FEATURE_DIM or rewards.shape != phi.shape[:1]:
            raise InternalError(
                f"update batch shapes {phi.shape}, {rewards.shape} do not fit model dim {FEATURE_DIM}"
            )
        if not (np.all(np.isfinite(phi)) and np.all(np.isfinite(rewards))):
            raise ValidationError("update requires finite features and rewards")
        A = self.A + np.einsum("ki,kj->ij", phi, phi)
        b = self.b + np.einsum("ki,k->i", phi, rewards)
        try:
            a_inv = np.linalg.inv(A)
        except np.linalg.LinAlgError as exc:
            raise ValidationError(f"update would leave the model singular: {exc}") from exc
        theta = a_inv @ b
        if not all(np.all(np.isfinite(x)) for x in (A, b, a_inv, theta)):
            raise ValidationError("update would leave the model non-finite")
        self.A, self.b, self._a_inv, self._theta = A, b, a_inv, theta
        self.drop_terms()


class UcbTerms:
    """The UCB terms of one model over one epoch's feature tables, factored
    into a part per user row, a part per (goal, group row) and terms in
    the group's fill ratio, which alone changes within an epoch.

    Split a joint row into its user block ``u`` and its group part ``s +
    f e_fill``, where ``s`` is the static group part and ``f`` the fill
    ratio, and let ``S`` be the symmetric part of ``A^-1`` (its quadratic
    form is that of ``A^-1``). Then ``mu = theta^T phi`` and ``sigma^2 =
    phi^T S phi`` are, for user row ``r`` with goal ``k`` and group row
    ``g`` with goal ``j``::

        mu      = (user_mu[r] + group_mu[k, g]) + f * theta_fill
        sigma^2 = ((user_q[r] + group_q[k, g])
                   + 2 * (user_engagement[r] * engagement[g] + user_goal[r, j]))
                  + f * ((user_fill[r] + group_fill[k, g]) + f * a_inv_fill)

    with ``user_mu = u.theta_u``, ``user_q = u^T S_uu u``, ``x = u S_ug``
    (``user_engagement`` its engagement entry, ``user_fill`` twice its fill
    entry, ``user_goal[r, j]`` its dot with the goal part of ``(k, j)``),
    ``group_mu = s.theta_g``, ``group_q = s^T S_gg s`` and ``group_fill``
    twice the fill entry of ``S_gg s``. Each is an einsum computed once per
    epoch. A pair then costs a few elementwise operations, not the
    ``O(d^2)`` of ``phi^T A^-1 phi``.

    A pass and :func:`score_and_select` take the terms of their scored
    pairs through :meth:`pairs`. A stretch of per-user decisions reads the
    bases, the three bracketed sums, from a window of user rows built at
    once against the groups of each row's goal (:func:`_stretch_window`),
    and applies each row's fill ratios itself. All compute the bases through
    :meth:`_bases` and apply the fill ratio through :meth:`_at_fill`, and
    every operation after the einsums is elementwise, so a pair gets the
    same bits on every path. The einsums compute every output element by
    the same loop over the summed index, so identical user rows get
    identical terms, as do identical group parts at equal fill ratios:
    exact ties reach the tie-break.
    """

    def __init__(self, theta: np.ndarray, a_inv: np.ndarray, tables: FeatureTables) -> None:
        self.tables = tables
        sym = (a_inv + a_inv.T) / 2
        users = tables.user_block
        u, g = slice(None, _USER_BLOCK), slice(_USER_BLOCK, None)
        # Without the einsum optimizer; see the class docstring.
        user_inv = np.einsum("ij,jk->ik", users, sym[u])
        cross = user_inv[:, g]
        self.user_mu = np.einsum("ij,j->i", users, theta[u])
        self.user_q = np.einsum("ik,ik->i", user_inv[:, u], users)
        self.user_engagement = cross[:, _ENGAGEMENT].copy()
        self.user_fill = 2 * cross[:, _FILL]
        self.user_goal = np.empty((len(users), len(GOAL_CATEGORIES)))
        for goal, part in enumerate(_GOAL_PART):
            mine = tables.goal == goal
            self.user_goal[mine] = np.einsum("ik,jk->ij", cross[mine], part)
        static = tables.group_block
        static_inv = np.einsum("kgi,ij->kgj", static, sym[g, g])
        self.group_mu = np.einsum("kgi,i->kg", static, theta[g])
        self.group_q = np.einsum("kgi,kgi->kg", static_inv, static)
        self.group_fill = 2 * static_inv[:, :, _FILL]
        self.engagement = static[0, :, _ENGAGEMENT].copy()
        self.theta_fill = theta[_FILL_RATIO]
        self.a_inv_fill = sym[_FILL_RATIO, _FILL_RATIO]

    def _bases(self, users: np.ndarray, groups: np.ndarray) -> tuple[np.ndarray, ...]:
        """The three bracketed sums of the pairs of user rows ``users`` and
        group rows ``groups``, whose shapes broadcast."""
        goal = self.tables.goal[users]
        cross = self.user_engagement[users] * self.engagement[groups]
        cross = cross + self.user_goal[users, self.tables.group_goal[groups]]
        return (
            self.user_mu[users] + self.group_mu[goal, groups],
            (self.user_q[users] + self.group_q[goal, groups]) + 2 * cross,
            self.user_fill[users] + self.group_fill[goal, groups],
        )

    def _at_fill(
        self, mu: np.ndarray, q: np.ndarray, linear: np.ndarray, fill: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``mu`` and ``sigma`` from the bases of pairs at fill ratios ``fill``."""
        sigma = np.sqrt(np.maximum(0.0, q + fill * (linear + fill * self.a_inv_fill)))
        return mu + fill * self.theta_fill, sigma

    def pairs(
        self, users: np.ndarray, groups: np.ndarray, fill: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``mu`` and ``sigma`` of the pairs of user rows ``users`` and group
        rows ``groups``, at the fill ratios ``fill`` of every group row."""
        return self._at_fill(*self._bases(users, groups), fill[groups])


# ---------------------------------------------------------------------------
# Feasibility filtering
# ---------------------------------------------------------------------------

REASON_DWELL = "dwell_lock"
REASON_GOAL = "goal_mismatch"
REASON_CAPACITY = "capacity_full"
REASON_COACH_LOAD = "coach_load_full"

# A reason code per group: one bit per reason, in report order, and 0
# for feasible. Dwell is a code of its own because it overrides every
# other filter.
_REASON_BITS = (REASON_GOAL, REASON_CAPACITY, REASON_COACH_LOAD)
CODE_GOAL, CODE_CAPACITY, CODE_COACH_LOAD = (
    1 << bit for bit in range(len(_REASON_BITS))
)
CODE_DWELL = 1 << len(_REASON_BITS)
N_REASON_CODES = CODE_DWELL + 1
REASONS_OF_CODE: tuple[tuple[str, ...], ...] = tuple(
    tuple(reason for bit, reason in enumerate(_REASON_BITS) if code >> bit & 1)
    for code in range(CODE_DWELL)
) + ((REASON_DWELL,),)


class FeasibilityReport:
    """The violated constraints of each group row: ``codes`` holds one
    reason code per row, in group-id order, and 0 means feasible.
    :meth:`values` decodes every row's list of reasons through
    ``REASONS_OF_CODE``.
    """

    def __init__(self, codes: np.ndarray) -> None:
        self.codes = codes

    def __len__(self) -> int:
        return len(self.codes)

    def values(self) -> list[list[str]]:
        return [list(REASONS_OF_CODE[code]) for code in self.codes.tolist()]


_GOAL_ROWS = range(len(GOAL_CATEGORIES))


def feasibility_report(
    user: int,
    goal: int,
    roster: Roster,
    epoch: int,
    config: PolicyConfig,
) -> FeasibilityReport:
    """Which constraints each group violates at ``epoch`` for user row
    ``user``, whose goal index is ``goal``.

    Inside the dwell window every group except the current one is locked
    out. Capacity and coach-load checks exclude the user themself, so a
    member's own full group stays feasible for staying put. Every check
    reads the roster's arrays; the capacity and coach-load bits are the
    codes :meth:`Roster.move` keeps. A ``goal`` that is not an index into
    ``GOAL_CATEGORIES`` raises ``ValidationError``.
    """
    if not isinstance(goal, (int, np.integer)) or goal not in _GOAL_ROWS:
        raise ValidationError(f"goal must be an index into GOAL_CATEGORIES, got {goal!r}")
    current = roster.group_of[user]
    if current >= 0 and (epoch - roster.last_change[user]) < config.dwell:
        # The dwell rule overrides every other filter: staying put is the
        # only admissible action, whatever the current group looks like.
        codes = np.full(len(roster.group_ids), CODE_DWELL)
        codes[current] = 0
        return FeasibilityReport(codes)
    codes = roster.goal_code[goal] | roster.capacity_code | roster.load_code[roster.coach_of]
    if current >= 0:
        # A placed user's own seat counts against neither limit; a move
        # never overfills, so their group and coach have room for them.
        codes[current] &= ~CODE_CAPACITY
        coach = roster.coach_of[current]
        if roster.load_code[coach]:
            codes[roster.coach_of == coach] &= ~CODE_COACH_LOAD
    return FeasibilityReport(codes)


# ---------------------------------------------------------------------------
# Scoring and selection
# ---------------------------------------------------------------------------


class CandidateScores(NamedTuple):
    """The UCB terms of the scored group rows, one array each, in candidate
    order. A score is not kept: :func:`ucb_score` derives it from the
    three terms and the policy's ``beta`` and ``lam``."""

    mu: np.ndarray
    sigma: np.ndarray
    penalty: np.ndarray


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
    Returns the index of the chosen candidate, the UCB terms in candidate
    order, and the chosen row's features as scored. ``tables`` are the
    epoch's :func:`feature_tables`, and the terms are the model's
    :class:`UcbTerms` over them, so only the chosen row is built.
    """
    rows = np.asarray(candidates, dtype=np.int64)
    if rows.size == 0:
        raise ValidationError("score_and_select requires a non-empty candidate set")
    mu, sigma = model.terms(tables).pairs(user, rows, roster.fill)
    current = roster.group_of[user]
    may_churn = current >= 0 and (epoch - roster.last_change[user]) < config.oscillation
    if may_churn:
        penalty = (rows != current).astype(np.int64)
    else:
        penalty = np.zeros(rows.size, dtype=np.int64)
    score = ucb_score(mu, sigma, penalty, config.beta, config.lam)
    # Least significant key first; group rows are in group-id order. A
    # dwell-locked user has one candidate and needs no sort.
    best = 0 if rows.size == 1 else int(np.lexsort((rows, roster.count[rows], -score))[0])
    phi = joint_features(tables, user, roster, rows[best : best + 1])
    return best, CandidateScores(mu, sigma, penalty), phi[0]


# ---------------------------------------------------------------------------
# Reward observation
# ---------------------------------------------------------------------------


def compute_reward(
    checkins: np.ndarray,
    weekly_scores: np.ndarray,
    users: np.ndarray,
    *,
    epoch: int,
    churn_penalties: np.ndarray,
    config: PolicyConfig,
) -> Optional[np.ndarray]:
    """The rewards of the decisions made at ``epoch`` for user rows
    ``users``, one per row, or None while the batch is deferred.

    ``checkins`` is the (users, days) 0/1 matrix and ``weekly_scores`` the
    (users, weeks) matrix of scored weeks. Adherence and engagement both
    compare the evaluation window [epoch, epoch + w_post) against the
    fixed pre-assignment baseline [epoch - w_pre, epoch), and each user's
    ``churn_penalties`` entry costs ``lam``. A batch with less history
    than either window needs is deferred; no model update should happen
    for it.
    """
    end_week = epoch + config.w_post
    if epoch < config.w_pre or weekly_scores.shape[1] < end_week:
        return None
    start_week = epoch - config.w_pre
    days = checkins[users, start_week * DAYS_PER_WEEK : end_week * DAYS_PER_WEEK]
    split = config.w_pre * DAYS_PER_WEEK
    delta_adh = days[:, split:].mean(axis=1) - days[:, :split].mean(axis=1)
    scores = weekly_scores[users, start_week:end_week]
    delta_eng = scores[:, config.w_pre :].mean(axis=1) - scores[:, : config.w_pre].mean(axis=1)
    return config.w_adh * delta_adh + config.w_eng * delta_eng - config.lam * churn_penalties


# ---------------------------------------------------------------------------
# End-to-end assignment
# ---------------------------------------------------------------------------


class DecisionPass(NamedTuple):
    """The decisions of user rows ``start`` to ``start + len(chosen)``, in
    row order: a pass of rows decided against one roster state, a stretch
    of rows decided one at a time, or the one row of an :func:`assign`
    step.

    ``codes`` holds each row's reason code per group row and ``chosen``
    the group row each user sits in after the decision (-1 while
    waitlisted). ``moved`` says per row whether its decision moved the
    user; in a pass only the last row can have moved. Row ``i``'s scored
    pairs, its code-0 groups in row order, are ``bounds[i]:bounds[i + 1]``
    of ``scores``. ``users`` are the rows with a scored pair, and ``phi``
    and ``penalty`` the feature row and churn penalty of each one's chosen
    pair.
    """

    start: int
    codes: np.ndarray
    chosen: np.ndarray
    moved: np.ndarray
    bounds: np.ndarray
    scores: CandidateScores
    users: np.ndarray
    phi: np.ndarray
    penalty: np.ndarray

    @property
    def changed(self) -> bool:
        """Whether any row moved: for the one row of an :func:`assign`
        step, whether it did."""
        return bool(self.moved.any())


# The pair fields of a row with nothing scored.
_NOTHING_SCORED = (
    np.zeros(2, dtype=np.int64),
    CandidateScores(np.empty(0), np.empty(0), np.empty(0, dtype=np.int64)),
    np.empty(0, dtype=np.int64),
    np.empty((0, FEATURE_DIM)),
    np.empty(0, dtype=np.int64),
)


def assign(
    user: int,
    roster: Roster,
    model: BanditModel,
    epoch: int,
    config: PolicyConfig,
    *,
    tables: FeatureTables,
) -> DecisionPass:
    """Filter, score, select, and apply one assignment decision for user
    row ``user``, and return it as a one-row :class:`DecisionPass`.

    The roster changes only when the chosen group differs from the
    current one. A placed user with no feasible alternative stays put; an
    unplaced user with no feasible group is waitlisted for the next epoch.
    Either way nothing was scored: the row's ``bounds`` are ``[0, 0]``
    and its ``users``, ``phi`` and ``penalty`` are empty. ``tables`` are
    the epoch's :func:`feature_tables`; the user's goal is read from
    them, so eligibility and features agree on it.

    This is the one-row decision and the reference that the passes and
    stretches of :func:`decide_epoch` must equal.
    """
    codes = feasibility_report(user, int(tables.goal[user]), roster, epoch, config).codes
    feasible = (codes == 0).nonzero()[0]
    if not feasible.size:
        return DecisionPass(
            user, codes[None], roster.group_of[user : user + 1].copy(), np.zeros(1, dtype=bool),
            *_NOTHING_SCORED,
        )
    best, scores, phi = score_and_select(user, feasible, model, roster, epoch, config, tables)
    chosen = feasible[best : best + 1]
    moved = chosen != roster.group_of[user]
    if moved[0]:
        roster.move(user, int(chosen[0]), epoch, config.dwell)
    return DecisionPass(
        start=user,
        codes=codes[None],
        chosen=chosen,
        moved=moved,
        bounds=np.array([0, feasible.size]),
        scores=scores,
        users=np.array([user]),
        phi=phi[None],
        penalty=scores.penalty[best : best + 1],
    )


# ---------------------------------------------------------------------------
# An epoch's decisions, in passes between moves and stretches of single rows
# ---------------------------------------------------------------------------

# The most user rows one pass decides. A pass holds a row of codes per
# user and group and the terms of each feasible pair, and every row after
# the pass's first move is decided again, so larger passes cost memory
# and, in epochs with many moves, wasted work.
_MAX_PASS_ROWS = 128
# A pass and its trace lines cost about 3 stretch rows (3.2 at 24
# groups, 3.1 at 96 and 2.7 at 384), plus 1/12 (24 groups) to 1/4 (384
# groups) of one per row it scores. A window sized to the mean stretch
# between moves keeps, on average, fewer rows than it scores, so a pass
# pays off only from a stretch of several rows. Whole move-dense epochs
# decided with a lower bound of 4 to 16 rows came out within their
# run-to-run spread of each other, so the bound stays at 8.
_MIN_PASS_ROWS = 8
# The user rows whose stretch window is built at once. The window serves
# every stretch of the epoch that starts inside it, so a stretch that
# hands back to passes after a few rows leaves the rest of its window to
# the next stretch.
_STRETCH_ROWS = 64


def decide_epoch(
    roster: Roster,
    model: BanditModel,
    epoch: int,
    config: PolicyConfig,
    *,
    tables: FeatureTables,
) -> Iterator[DecisionPass]:
    """Decide every roster user row in row order, as :func:`assign` one
    row at a time would, and yield the decisions as they are made.

    A decision reads the roster, the model and the epoch's ``tables``.
    The model and tables stay fixed through the epoch, and the roster
    changes only on a move. So the decisions from one move up to and
    including the next all read one roster state, and a pass decides a
    window of rows against it at once. The pass keeps the decisions up to
    and including its first move, applies that move through
    :meth:`Roster.move`, and yields a :class:`DecisionPass`; the next
    pass starts at the row after. Each pass spans the mean stretch
    between the epoch's moves so far, up to ``_MAX_PASS_ROWS`` rows. When
    that is under ``_MIN_PASS_ROWS`` rows, moves come too close together
    for a pass, and :func:`_decide_stretch` decides the rows one at a time
    until the mean stretch reaches a pass again, yielding them as one
    :class:`DecisionPass`. Once every row is decided, the model drops its
    terms of ``tables``.
    """
    n_users = len(roster.user_tokens)
    user = moves = 0
    window = None
    while user < n_users:
        # A pass spans the mean stretch between the epoch's moves so far;
        # before the first move, twice the rows decided.
        rows = min(
            _MAX_PASS_ROWS,
            user // moves if moves else max(2 * user, _MIN_PASS_ROWS),
            n_users - user,
        )
        if rows >= _MIN_PASS_ROWS:
            decided = _decide_pass(user, rows, roster, model, epoch, config, tables)
        else:
            if window is None or user >= window.last:
                last = min(user + _STRETCH_ROWS, n_users)
                window = _stretch_window(user, last, roster, model.terms(tables), epoch, config)
            decided = _decide_stretch(user, window, moves, roster, model, epoch, config, tables)
        user += decided.chosen.size
        moves += int(np.count_nonzero(decided.moved))
        yield decided
    model.drop_terms()


def _decide_pass(
    start: int,
    rows: int,
    roster: Roster,
    model: BanditModel,
    epoch: int,
    config: PolicyConfig,
    tables: FeatureTables,
) -> DecisionPass:
    """Decide user rows ``start`` to ``start + rows`` against the current
    roster, keep the decisions up to and including the first move, and
    apply that move. Every term is the one :func:`assign` computes for
    the same row and roster: the codes of :func:`feasibility_report`, the
    ``mu`` and ``sigma`` the model's :class:`UcbTerms` give, the tie-break
    of :func:`score_and_select` and the chosen rows of
    :func:`joint_features`."""
    stop = start + rows
    current = roster.group_of[start:stop]
    since_change = epoch - roster.last_change[start:stop]
    placed = current >= 0
    locked = placed & (since_change < config.dwell)
    goal = tables.goal[start:stop]

    codes = roster.goal_code[goal] | roster.capacity_code | roster.load_code[roster.coach_of]
    # A placed user's own seat counts against neither limit.
    seated = np.flatnonzero(placed)
    codes[seated, current[seated]] &= ~CODE_CAPACITY
    own_coach = roster.coach_of[current[seated]]
    at_limit = roster.load_code[own_coach] != 0
    if at_limit.any():
        seated, own_coach = seated[at_limit], own_coach[at_limit]
        codes[seated] &= ~((roster.coach_of == own_coach[:, None]) * CODE_COACH_LOAD)
    # Inside the dwell window staying put is the only admissible action.
    if locked.any():
        codes[locked] = CODE_DWELL
        codes[locked, current[locked]] = 0

    pair_row, pair_group = np.nonzero(codes == 0)
    per_row = np.bincount(pair_row, minlength=rows)
    bounds = np.zeros(rows + 1, dtype=np.int64)
    np.cumsum(per_row, out=bounds[1:])
    mu, sigma = model.terms(tables).pairs(start + pair_row, pair_group, roster.fill)
    may_churn = placed & (since_change < config.oscillation)
    penalty = ((pair_group != current[pair_row]) & may_churn[pair_row]).astype(np.int64)
    score = ucb_score(mu, sigma, penalty, config.beta, config.lam)

    # The tie-break of score_and_select, per row: the highest score, then
    # the lowest member count, then the lowest group row. Scores are
    # finite (see PolicyConfig), so equality finds the ties lexsort finds.
    scored = np.flatnonzero(per_row)
    firsts = bounds[scored]
    n_groups = roster.count.size
    top = np.repeat(np.maximum.reduceat(score, firsts), per_row[scored])
    key = np.where(score == top, roster.count[pair_group] * n_groups + pair_group, np.iinfo(np.int64).max)
    best_key = np.minimum.reduceat(key, firsts)
    best = np.flatnonzero(key == np.repeat(best_key, per_row[scored]))
    chosen = current.copy()
    chosen[scored] = best_key % n_groups

    moves = np.flatnonzero(chosen != current)
    kept = int(moves[0]) + 1 if moves.size else rows
    n_kept_scored = int(np.searchsorted(scored, kept))
    best = best[:n_kept_scored]
    users = start + scored[:n_kept_scored]
    # The chosen rows as scored, before the move changes a fill ratio.
    groups = pair_group[best]
    phi = _feature_rows(tables, users, groups, roster.fill[groups])
    moved = chosen[:kept] != current[:kept]
    if moves.size:
        roster.move(start + kept - 1, int(chosen[kept - 1]), epoch, config.dwell)
    pairs = bounds[kept]
    return DecisionPass(
        start=start,
        codes=codes[:kept],
        chosen=chosen[:kept],
        moved=moved,
        bounds=bounds[: kept + 1],
        scores=CandidateScores(mu[:pairs], sigma[:pairs], penalty[:pairs]),
        users=users,
        phi=phi,
        penalty=penalty[best],
    )


class _StretchWindow(NamedTuple):
    """What no move in the epoch changes about user rows ``first`` to
    ``last``: per row, its goal index, as they stand until the row's own
    decision its group and whether it is dwell-locked or would pay a churn
    penalty for leaving, and the three bases of its pairs with the groups
    of its goal. ``bases[row - first]`` holds a row's bases, and group
    row ``g``'s are in column ``column[g]``."""

    first: int
    last: int
    goal: list[int]
    current: list[int]
    locked: list[bool]
    may_churn: list[bool]
    bases: np.ndarray
    column: np.ndarray


def _stretch_window(
    first: int, last: int, roster: Roster, terms: UcbTerms, epoch: int, config: PolicyConfig
) -> _StretchWindow:
    """The window of user rows ``first`` to ``last`` at ``epoch``. Within
    an epoch the model and tables are fixed, and a row's group and last
    change move only at its own decision, so the window holds for every
    row not yet decided.

    Each group serves one goal, and a row that is not dwell-locked can
    only score groups of its own goal, so the window builds the bases of
    those pairs alone: ``goal_groups[goal]`` lists the goal's group rows,
    padded with row 0, and ``column[g]`` is group row ``g``'s place in its
    goal's list."""
    goal_index = roster.goal_index
    column = np.empty(goal_index.size, dtype=np.int64)
    per_goal = np.bincount(goal_index, minlength=len(GOAL_CATEGORIES))
    goal_groups = np.zeros((len(GOAL_CATEGORIES), per_goal.max()), dtype=np.int64)
    for goal in _GOAL_ROWS:
        groups = np.flatnonzero(goal_index == goal)
        column[groups] = np.arange(groups.size)
        goal_groups[goal, : groups.size] = groups
    current = roster.group_of[first:last]
    since_change = epoch - roster.last_change[first:last]
    placed = current >= 0
    goal = terms.tables.goal[first:last]
    bases = terms._bases(np.arange(first, last)[:, None], goal_groups[goal])
    return _StretchWindow(
        first=first,
        last=last,
        goal=goal.tolist(),
        current=current.tolist(),
        locked=(placed & (since_change < config.dwell)).tolist(),
        may_churn=(placed & (since_change < config.oscillation)).tolist(),
        bases=np.stack(bases, axis=1),
        column=column,
    )


def _decide_stretch(
    start: int,
    window: _StretchWindow,
    moves: int,
    roster: Roster,
    model: BanditModel,
    epoch: int,
    config: PolicyConfig,
    tables: FeatureTables,
) -> DecisionPass:
    """Decide user rows from ``start`` on one at a time, each as
    :func:`assign` would and each move applied before the next row, and
    return them as one :class:`DecisionPass`.

    The stretch runs to the end of ``window``, or stops after the first
    row that brings the epoch's mean stretch between moves, ``moves``
    made before ``start`` and those of the stretch, to ``_MIN_PASS_ROWS``
    rows with at least as many rows left, where :func:`decide_epoch`
    hands back to passes. A row reads its codes from
    :func:`feasibility_report` and its bases from the window (a
    dwell-locked row's one pair from :meth:`UcbTerms.pairs`), and does
    only the work a move can change: the fill ratios of its feasible
    groups, the penalty, :func:`ucb_score`, the tie-break of
    :func:`score_and_select` and the move. Each chosen pair's fill ratio
    is taken before its move, and the chosen feature rows are built once
    at the end."""
    terms = model.terms(tables)
    n_users, n_groups = len(roster.user_tokens), len(roster.group_ids)
    fill, count = roster.fill, roster.count
    codes, chosen, moved, widths = [], [], [], []
    mus, sigmas, penalties = [np.empty(0)], [np.empty(0)], [np.empty(0, dtype=np.int64)]
    users, groups, fills, picked = [], [], [], []
    for user in range(start, window.last):
        row = user - window.first
        current = window.current[row]
        report = feasibility_report(user, window.goal[row], roster, epoch, config)
        feasible = (report.codes == 0).nonzero()[0]
        codes.append(report.codes)
        widths.append(feasible.size)
        group = current
        if feasible.size:
            if window.locked[row]:
                # Its one feasible group, its own, may serve another goal.
                mu, sigma = terms.pairs(user, feasible, fill)
            else:
                bases = window.bases[row][:, window.column[feasible]]
                mu, sigma = terms._at_fill(*bases, fill[feasible])
            if window.may_churn[row]:
                penalty = (feasible != current).astype(np.int64)
            else:
                penalty = np.zeros(feasible.size, dtype=np.int64)
            score = ucb_score(mu, sigma, penalty, config.beta, config.lam)
            # The first highest score is the lowest group row among the
            # best; only an exact tie needs the member counts.
            best = int(score.argmax())
            tied = (score == score[best]).nonzero()[0]
            if tied.size > 1:
                tied_groups = feasible[tied]
                best = int(tied[(count[tied_groups] * n_groups + tied_groups).argmin()])
            group = int(feasible[best])
            mus.append(mu)
            sigmas.append(sigma)
            penalties.append(penalty)
            users.append(user)
            groups.append(group)
            fills.append(fill[group])
            picked.append(penalty[best])
        chosen.append(group)
        moved.append(group != current)
        if group != current:
            roster.move(user, group, epoch, config.dwell)
            moves += 1
        done = user + 1
        if done >= _MIN_PASS_ROWS * moves and n_users - done >= _MIN_PASS_ROWS:
            break
    bounds = np.zeros(len(chosen) + 1, dtype=np.int64)
    np.cumsum(widths, out=bounds[1:])
    users = np.array(users, dtype=np.int64)
    return DecisionPass(
        start=start,
        codes=np.stack(codes),
        chosen=np.array(chosen, dtype=np.int64),
        moved=np.array(moved),
        bounds=bounds,
        scores=CandidateScores(np.concatenate(mus), np.concatenate(sigmas), np.concatenate(penalties)),
        users=users,
        phi=_feature_rows(tables, users, np.array(groups, dtype=np.int64), np.array(fills)),
        penalty=np.array(picked, dtype=np.int64),
    )
