"""Constrained bandit walkthrough: feasibility filtering before scoring,
UCB scores with the stability penalty, and the per-epoch batch model update.

Run:  python demos/04_constrained_bandit.py
"""

import numpy as np

from prism.assignment import (
    REASONS_OF_CODE,
    BanditModel,
    PolicyConfig,
    Roster,
    assign,
    feasibility_report,
    feature_tables,
    ucb_score,
)
from prism.features import GOAL_CATEGORIES, ContextBatch
from prism.vault import UserToken

config = PolicyConfig()
tokens = [UserToken(byte * 32) for byte in ("cd", "ce", "cf")]

# This week's decision contexts, one row per user, in roster row order. A
# user is their row: user 0 is four weeks past their last move, currently
# mis-grouped.
week = ContextBatch(
    user_tokens=tokens,
    epoch=8,
    numeric=[[0.35, 0.2, 0.4, 0.5, 0.0], [0.8, 0.6, 0.7, 0.5, 0.0], [0.7, 0.5, 0.6, 0.5, 0.0]],
    goal=[GOAL_CATEGORIES.index("weight_loss")] * 3,
    streak=[4, 0, 1],
    slope=[-0.06, 0.02, 0.0],
)
user, goal = 0, int(week.goal[0])


def seated_roster(last_change: int) -> Roster:
    """Three groups under two coaches: g000 (weight loss, coach c00), g001
    (maintenance, c01) and g002 (weight loss, c01, two seats). The user
    sits in g001 (goal-mismatched) since ``last_change``; g002 is full."""
    roster = Roster(
        ["g000", "g001", "g002"],
        ["c00", "c01"],
        [token.value for token in tokens],
        capacity=[10, 10, 2],
        goal_index=[GOAL_CATEGORIES.index(goal) for goal in ("weight_loss", "maintenance", "weight_loss")],
        coach_of=[0, 1, 1],
        load_limit=[18, 18],
    )
    roster.move(0, roster.group_row["g001"], last_change, dwell=0)
    roster.move(1, roster.group_row["g002"], 0, dwell=0)
    roster.move(2, roster.group_row["g002"], 0, dwell=0)
    return roster


def feasible(report: dict) -> list[str]:
    return [gid for gid, reasons in report.items() if not reasons]


roster = seated_roster(last_change=0)

# ---------------------------------------------------------------------------
# Hard constraints run before any learning-based scoring.
# ---------------------------------------------------------------------------
report = feasibility_report(user, goal, roster, 8, config)
print("feasibility at epoch 8:")
for gid, reasons in report.items():
    print(f"  {gid}: {'feasible' if not reasons else ', '.join(reasons)}")
print("eligible:", feasible(report))
print("coach loads:", dict(zip(roster.coach_ids, roster.load.tolist())))

# Inside the dwell window the only admissible action is the current group.
locked = feasibility_report(user, goal, seated_roster(last_change=6), 8, config)
print("within dwell:", feasible(locked))

# ---------------------------------------------------------------------------
# Scoring: mean estimate + confidence width - churn penalty; the cold model
# explores through the width term alone. The feature tables hold what stays
# fixed through the week; each decision adds the groups' fill ratios.
# ---------------------------------------------------------------------------
model = BanditModel(ridge=config.ridge)
decision = assign(user, roster, model, 8, config, tables=feature_tables(week, roster))
print("\ndecision trace:")
# The decision is a one-row pass: the row's reason code per group, and the
# terms of the feasible groups, in group order.
scored = zip(*decision.scores)
for gid, code in zip(roster.group_ids, decision.codes[0].tolist()):
    if code:
        print(f"  {gid}: infeasible ({', '.join(REASONS_OF_CODE[code])})")
    else:
        mu, sigma, penalty = next(scored)
        score = ucb_score(mu, sigma, penalty, config.beta, config.lam)
        print(f"  {gid}: mu={mu:+.3f} sigma={sigma:.3f} penalty={penalty} score={score:+.3f}")
print("chosen:", roster.group_ids[decision.chosen[0]], "changed:", decision.changed)

# ---------------------------------------------------------------------------
# The model learns once per epoch: each epoch's matured rewards arrive as
# one batch, added to (A, b) and re-solved through one exact inverse. Any
# split of the same observations gives the one-shot ridge solution.
# ---------------------------------------------------------------------------
rng = np.random.default_rng(0)
probe = BanditModel(dim=8, ridge=1.0)
phis = rng.normal(size=(1000, 8))
rewards = phis @ np.array([0.5, -0.2, 0.1, 0.0, 0.3, 0.0, -0.1, 0.2]) + 0.05 * rng.normal(size=1000)
for epoch_rows in np.array_split(np.arange(1000), 10):
    probe.update(phis[epoch_rows], rewards[epoch_rows])
batch = np.linalg.solve(np.eye(8) + phis.T @ phis, phis.T @ rewards)
print("\nten batch updates vs one-shot ridge, max abs gap:", float(np.max(np.abs(probe.means(np.eye(8)) - batch))))
