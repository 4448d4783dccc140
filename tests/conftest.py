import json
import re
from dataclasses import dataclass

import numpy as np
import pytest

from prism.assignment import (
    _GROUP_BLOCK,
    _STREAK_CAP_DAYS,
    _USER_BLOCK,
    FEATURE_DIM,
    GOAL_CATEGORIES,
    REASONS_OF_CODE,
    PolicyConfig,
    feature_tables,
)
from prism.errors import ValidationError
from prism.features import (
    ACTION_TYPES,
    DAYS_PER_WEEK,
    NUMERIC_FEATURE_NAMES,
    TRAILING_WEEKS,
    ContextBatch,
    LearningContext,
)
from prism.redaction import (
    DEFAULT_FIRST_NAMES,
    DEFAULT_LAST_NAMES,
    EntitySpan,
    RedactionRule,
    default_rules,
)
from prism.simulator.experiment import RunManifest, TraceLegend
from prism.vault import ENC_KEY_ENV, TOKEN_KEY_ENV, KeyRing, UserToken

TOKEN_KEY_HEX = "11" * 32
ENC_KEY_HEX = "22" * 32

# One line per acceptance criterion, printed after the run summary.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def keys() -> KeyRing:
    return KeyRing.from_hex(TOKEN_KEY_HEX, ENC_KEY_HEX)


@pytest.fixture
def keys_env(monkeypatch) -> KeyRing:
    monkeypatch.setenv(TOKEN_KEY_ENV, TOKEN_KEY_HEX)
    monkeypatch.setenv(ENC_KEY_ENV, ENC_KEY_HEX)
    return KeyRing.from_hex(TOKEN_KEY_HEX, ENC_KEY_HEX)


@pytest.fixture
def any_token() -> UserToken:
    return UserToken("ab" * 32)


def seeded_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


@dataclass
class UserEvents:
    """One user's event history, the input of the per-user references.

    ``checkins`` is a daily 0/1 array, ``action_counts`` a (weeks, K)
    matrix aligned with ``ACTION_TYPES``. ``first_day`` is -1 for a user
    with no events at all.
    """

    checkins: np.ndarray
    action_counts: np.ndarray
    first_day: int = 0


def empty_events(horizon_weeks: int) -> UserEvents:
    """The event history of a user with no events over ``horizon_weeks``."""
    return UserEvents(
        checkins=np.zeros(horizon_weeks * DAYS_PER_WEEK, dtype=np.int8),
        action_counts=np.zeros((horizon_weeks, len(ACTION_TYPES)), dtype=np.int32),
        first_day=-1,
    )


def goal_onehot(goal: str) -> np.ndarray:
    """The one-hot categorical features of a user with goal ``goal``."""
    if goal not in GOAL_CATEGORIES:
        raise ValidationError(f"unknown goal category: {goal!r}")
    onehot = np.zeros(len(GOAL_CATEGORIES))
    onehot[GOAL_CATEGORIES.index(goal)] = 1.0
    return onehot


def solve_theta(model) -> np.ndarray:
    """A bandit model's coefficients from a direct solve of A theta = b."""
    return np.linalg.solve(model.A, model.b)


def registered_identity_strings(world) -> set[str]:
    """Raw and normalized identity values of a simulated cohort, for
    output-separation scans."""
    values: set[str] = set()
    for identity in world._raw_identities.values():
        for key, value in identity.items():
            values.add(value)
            if key in ("email", "full_name", "first_name", "last_name"):
                values.add(value.lower())
            if key == "phone":
                values.add("".join(ch for ch in value if ch.isdigit()))
    return values


def write_rules(rules, path) -> None:
    """Write redaction rules as the JSON array that ``load_rules`` reads."""
    docs = [
        {"entity_type": r.entity_type, "pattern": r.pattern.pattern, "placeholder": r.placeholder}
        for r in rules
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(docs, fh, indent=2)


# -- references for the redaction scan ---------------------------------------------


def reference_name_pattern(
    first_names=DEFAULT_FIRST_NAMES, last_names=DEFAULT_LAST_NAMES
) -> str:
    """The flat NAME alternation that ``name_pattern`` factors by first letter."""
    first = "|".join(re.escape(n) for n in sorted(first_names))
    last = "|".join(re.escape(n) for n in sorted(last_names))
    return rf"(?i)\b(?:{first})(?:\s+(?:{last}))?\b"


def reference_rules(first_names=DEFAULT_FIRST_NAMES, last_names=DEFAULT_LAST_NAMES):
    """``default_rules`` with the flat NAME alternation."""
    return tuple(
        RedactionRule.compile(
            r.entity_type,
            reference_name_pattern(first_names, last_names)
            if r.entity_type == "NAME"
            else r.pattern.pattern,
            r.placeholder,
        )
        for r in default_rules(first_names, last_names)
    )


def reference_detect(text, rules) -> list[EntitySpan]:
    """``detect`` without prefilters: every rule runs over the whole text."""
    spans = []
    for rule in rules:
        for m in rule.pattern.finditer(text):
            group = "entity" if "entity" in rule.pattern.groupindex else 0
            start, end = m.span(group)
            if start == end:
                continue
            spans.append(EntitySpan(start, end, rule.entity_type, m.group(group)))
    return spans


# -- references for the decision path ----------------------------------------------


def reference_full_for(roster, user) -> tuple[np.ndarray, np.ndarray]:
    """Per group: is it at capacity, is its coach at the load limit, from
    the roster's counters. Both exclude ``user``'s own seat, so a member's
    own full group stays open for staying put: the reference for the
    fullness codes ``Roster.move`` keeps."""
    current = roster.group_of[user]
    own_group = np.arange(roster.count.size) == current
    own_coach = roster.coach_of == (roster.coach_of[current] if current >= 0 else -1)
    capacity_full = roster.count - own_group >= roster.capacity
    coach_full = roster.load[roster.coach_of] - own_coach >= roster.load_limit[roster.coach_of]
    return capacity_full, coach_full


def reference_widths(model, phi) -> np.ndarray:
    """Confidence widths from the single three-operand einsum."""
    return np.sqrt(np.maximum(0.0, np.einsum("ij,jk,ik->i", phi, model._a_inv, phi)))


def trace_dict(decision, group_ids) -> dict:
    """A decision's rationale trace as a dict with one entry per group, in
    the order of the roster's ``group_ids``: the reference that each trace
    line must decode to. Its ``json.dumps(..., sort_keys=True)`` text is
    the line of trace schema 1."""
    scores = decision.scores
    scored = iter(zip(*(a.tolist() for a in scores)) if scores is not None else ())
    candidates = []
    for group_id, code in zip(group_ids, decision.reason_codes.tolist()):
        mu, sigma, penalty, score = next(scored) if code == 0 else (None,) * 4
        candidates.append({
            "group": group_id,
            "mu": mu,
            "sigma": sigma,
            "penalty": penalty,
            "score": score,
            "feasible": code == 0,
            "reasons": list(REASONS_OF_CODE[code]),
        })
    return {
        "candidates": candidates,
        "epoch": decision.epoch,
        "user_token": decision.user_token,
        "chosen": decision.chosen,
        "changed": decision.changed,
    }


def legend_of(ids, policy=PolicyConfig()) -> dict:
    """The legend as a reader gets it: a run manifest over ``ids``, through
    the JSON text that ``manifest.json`` holds."""
    manifest = RunManifest(
        scenario={}, policy=policy.to_dict(), engagement_alphas=[], redaction_rules={},
        code_version="", seed=0, key_source="", group_ids=list(ids),
    )
    return json.loads(json.dumps(manifest.to_dict(), sort_keys=True, indent=2))


def decode_trace_line(line: str, legend: dict) -> dict:
    """A trace line expanded to the ``trace_dict`` form, with the legend
    from the run's ``manifest.json``: the schema-2 fields that
    ``TraceLegend.decode`` gives, one entry per group."""
    decoder = TraceLegend.from_manifest(legend)
    doc = decoder.decode(line)
    scored = zip(doc["mu"], doc["sigma"], doc["penalty"], doc["score"])
    candidates = []
    for group_id, code in zip(decoder.group_ids, doc["codes"]):
        mu, sigma, penalty, score = next(scored) if code == 0 else (None,) * 4
        candidates.append({
            "group": group_id,
            "mu": mu,
            "sigma": sigma,
            "penalty": penalty,
            "score": score,
            "feasible": code == 0,
            "reasons": list(decoder.reasons_of_code[code]),
        })
    return {
        "candidates": candidates,
        "epoch": doc["epoch"],
        "user_token": doc["user_token"],
        "chosen": doc["chosen"],
        "changed": doc["changed"],
    }


# -- per-user references for the epoch-batched decision path ---------------------


def reference_normalize(x, window, feature_id) -> float:
    """Min-max scaling of one number, clamped to [0, 1]; 0.5 for a degenerate window."""
    lo, hi = window.bounds[feature_id]
    if hi == lo:
        return 0.5
    scaled = (float(x) - lo) / (hi - lo)
    return min(1.0, max(0.0, scaled))


def reference_missed_streak(checkins, *, upto_day: int, first_day: int) -> int:
    """Consecutive missed days ending at ``upto_day`` (exclusive)."""
    start = max(0, first_day)
    streak = 0
    for day in range(upto_day - 1, start - 1, -1):
        if checkins[day]:
            break
        streak += 1
    return streak


def reference_slope(scores) -> float:
    """Ordinary least-squares slope of weekly scores; 0 when under two points."""
    arr = np.asarray(scores, dtype=float)
    if arr.size < 2:
        return 0.0
    t = np.arange(arr.size, dtype=float)
    t_centered = t - t.mean()
    return float((t_centered @ (arr - arr.mean())) / (t_centered @ t_centered))


def reference_context(events, scored_weeks, *, user_token, epoch, goal, window) -> LearningContext:
    """One user's decision context, built from that user's history alone:
    the reference each row of a ``build_context`` batch must equal bit for
    bit. ``scored_weeks`` is the user's row of weekly engagement scores."""
    if epoch < 0:
        raise ValidationError("epoch must be non-negative")
    onehot = goal_onehot(goal)
    has_history = 0 <= events.first_day < epoch * DAYS_PER_WEEK
    if not has_history or epoch == 0:
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

    weekly = scored_weeks[max(0, epoch - TRAILING_WEEKS) : epoch]
    recent_eng = min(1.0, float(weekly.mean())) if weekly.size else 0.0

    last_week_actions = float(events.action_counts[epoch - 1].sum())
    numeric = np.array(
        [
            recent_adh,
            recent_eng,
            reference_normalize(last_week_actions, window, "weekly_actions"),
            reference_normalize(epoch - (events.first_day / DAYS_PER_WEEK), window, "tenure_weeks"),
            0.0,
        ]
    )
    return LearningContext(
        user_token=user_token,
        epoch=epoch,
        numeric_features=numeric,
        categorical_features=onehot,
        missed_checkin_streak=reference_missed_streak(
            events.checkins, upto_day=upto_day, first_day=events.first_day
        ),
        engagement_slope=reference_slope(weekly),
    )


def reference_joint_features(context, roster, rows, group_engagement=None) -> np.ndarray:
    """One decision's joint feature matrix built from scratch: the reference
    each ``joint_features`` gather from the epoch's tables must equal."""
    user_goal = context.categorical_features
    group_goal = np.zeros((rows.size, len(GOAL_CATEGORIES)))
    group_goal[np.arange(rows.size), roster.goal_index[rows]] = 1.0
    phi = np.empty((rows.size, FEATURE_DIM))
    phi[:, :_USER_BLOCK] = np.concatenate(
        [
            context.numeric_features,
            user_goal,
            [
                min(context.missed_checkin_streak, _STREAK_CAP_DAYS) / _STREAK_CAP_DAYS,
                float(np.clip(context.engagement_slope, -1.0, 1.0)),
            ],
        ]
    )
    engagement = np.full(rows.size, 0.5) if group_engagement is None else group_engagement[rows]
    phi[:, _USER_BLOCK] = np.clip(engagement, 0.0, 1.0)
    phi[:, _USER_BLOCK + 1] = roster.count[rows] / roster.capacity[rows]
    phi[:, _USER_BLOCK + 2 : _USER_BLOCK + _GROUP_BLOCK] = group_goal
    phi[:, _USER_BLOCK + _GROUP_BLOCK :] = user_goal * group_goal
    return phi


def tables_for(roster, context, group_engagement=None):
    """Feature tables for a decision on ``context``: every other roster user
    gets the same context values under their own token."""
    tokens = sorted(roster.row_of, key=roster.row_of.get)
    n = len(tokens)
    batch = ContextBatch(
        user_tokens=[UserToken(token) for token in tokens],
        epoch=context.epoch,
        numeric=np.tile(context.numeric_features, (n, 1)),
        goal=np.full(n, GOAL_CATEGORIES.index(context.goal_category)),
        streak=np.full(n, context.missed_checkin_streak),
        slope=np.full(n, context.engagement_slope),
    )
    return feature_tables(batch, roster, group_engagement)
