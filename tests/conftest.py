import hashlib
import json
import re
from dataclasses import dataclass
from datetime import datetime, timezone
from types import MappingProxyType

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
    Roster,
    feature_tables,
    ucb_score,
)
from prism.errors import ValidationError
from prism.assistant import (
    DELIVERABLE_STATUSES,
    default_templates,
    flag_risks,
    generate_draft,
    review,
    risk_mask,
)
from prism.simulator.world import (
    _STREAM_COHORT,
    _STREAM_PLACEMENT,
    SIM_EPOCH_BASE,
    STREAM_REVIEW,
    WEEK_SECONDS,
    SimClock,
    substream,
)
from prism.features import (
    ACTION_TYPES,
    DAYS_PER_WEEK,
    NUMERIC_FEATURE_NAMES,
    TRAILING_WEEKS,
    ContextBatch,
)
from prism.redaction import (
    DEFAULT_FIRST_NAMES,
    DEFAULT_LAST_NAMES,
    RedactionRule,
    RuleSet,
    _name_pattern,
    _own_deid,
    default_rules,
    redact,
)
from prism.simulator.experiment import _EDIT_TEXT, RunManifest, TraceLegend
from prism.simulator.scenario import STREET_NAMES, STREET_SUFFIXES, synth_identities
from prism.vault import (
    AUDIT_FIELDS,
    ENC_KEY_ENV,
    GENESIS_HASH,
    TOKEN_KEY_ENV,
    KeyRing,
    RestorationRequest,
    UserToken,
    Vault,
)

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


@dataclass(frozen=True)
class UserContext:
    """One user's decision context as the tests state it: the values row
    ``u`` of a ``ContextBatch`` holds, with the goal as its one-hot."""

    user_token: UserToken
    epoch: int
    numeric_features: np.ndarray
    categorical_features: np.ndarray
    missed_checkin_streak: int
    engagement_slope: float


def context_row(batch: ContextBatch, u: int) -> UserContext:
    """Row ``u`` of ``batch`` as a :class:`UserContext`."""
    return UserContext(
        user_token=batch.user_tokens[u],
        epoch=batch.epoch,
        numeric_features=batch.numeric[u],
        categorical_features=goal_onehot(GOAL_CATEGORIES[batch.goal[u]]),
        missed_checkin_streak=int(batch.streak[u]),
        engagement_slope=float(batch.slope[u]),
    )


def solve_theta(model) -> np.ndarray:
    """A bandit model's coefficients from a direct solve of A theta = b."""
    return np.linalg.solve(model.A, model.b)


def registered_identity_strings(world) -> set[str]:
    """Raw and normalized identity values of a simulated cohort, for
    output-separation scans."""
    values: set[str] = set()
    for identity in world._raw_identities:
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
    """The flat NAME alternation that ``_name_pattern`` factors by first letter."""
    first = "|".join(re.escape(n) for n in sorted(first_names))
    last = "|".join(re.escape(n) for n in sorted(last_names))
    return rf"(?i)\b(?:{first})(?:\s+(?:{last}))?\b"


def name_rules(first_names, last_names) -> RuleSet:
    """The default rules with NAME over another dictionary, as a rules file
    holding that NAME pattern loads them."""
    return RuleSet(
        RedactionRule.compile("NAME", _name_pattern(first_names, last_names, fold=False), r.placeholder)
        if r.entity_type == "NAME"
        else r
        for r in default_rules()
    )


def reference_rules(first_names=DEFAULT_FIRST_NAMES, last_names=DEFAULT_LAST_NAMES):
    """``default_rules``, or :func:`name_rules`, with the flat NAME alternation."""
    return tuple(
        RedactionRule.compile(
            r.entity_type,
            reference_name_pattern(first_names, last_names)
            if r.entity_type == "NAME"
            else r.pattern.pattern,
            r.placeholder,
        )
        for r in default_rules()
    )


def reference_detect(text, rules) -> list[tuple[int, int, str]]:
    """Every non-empty match of every rule as ``(start, end, entity_type)``,
    in rule order, without prefilters: every rule runs over the whole text."""
    spans = []
    for rule in rules:
        for m in rule.pattern.finditer(text):
            group = "entity" if "entity" in rule.pattern.groupindex else 0
            start, end = m.span(group)
            if start == end:
                continue
            spans.append((start, end, rule.entity_type))
    return spans


# The documented tie-break between equally long spans at one start.
_REFERENCE_TYPE_ORDER = ("EMAIL", "PHONE", "NAME", "ADDRESS", "DOB", "ID_NUMBER", "GEO_FINE")


def reference_resolve(spans) -> list[tuple[int, int, str]]:
    """Non-overlapping ``(start, end, entity_type)`` spans, picked one at a
    time: the longest left, then the leftmost, then the type that comes
    first in the tie-break order, dropping every span the pick overlaps;
    in text order."""
    left, chosen = list(spans), []
    while left:
        best = min(left, key=lambda s: (s[0] - s[1], s[0], _REFERENCE_TYPE_ORDER.index(s[2])))
        chosen.append(best)
        left = [s for s in left if s[1] <= best[0] or s[0] >= best[1]]
    return sorted(chosen)


def reference_redact(text, user_token, rules, cohort_metadata=None):
    """``redact`` over ``reference_detect``, resolved, with a map from each
    entity type to its last rule's placeholder built per call."""
    placeholder_by_type = {r.entity_type: r.placeholder for r in rules}
    counts = {etype: 0 for etype in placeholder_by_type}
    pieces, cursor = [], 0
    for start, end, entity_type in reference_resolve(reference_detect(text, rules)):
        pieces += [text[cursor:start], placeholder_by_type[entity_type]]
        counts[entity_type] += 1
        cursor = end
    pieces.append(text[cursor:])
    metadata = MappingProxyType(dict(cohort_metadata or {}))
    return _own_deid("".join(pieces), user_token, metadata, MappingProxyType(counts))


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


def make_roster(groups, load_limits, user_tokens) -> Roster:
    """A roster over ``groups``, each ``(group_id, coach_id, capacity,
    goal)`` with the goal by name, under the coaches of ``load_limits``
    (coach id to load limit), with ``user_tokens`` as its user rows."""
    coach_ids = list(load_limits)
    return Roster(
        [gid for gid, _, _, _ in groups],
        coach_ids,
        list(user_tokens),
        capacity=[capacity for _, _, capacity, _ in groups],
        goal_index=[GOAL_CATEGORIES.index(goal) for _, _, _, goal in groups],
        coach_of=[coach_ids.index(coach) for _, coach, _, _ in groups],
        load_limit=list(load_limits.values()),
    )


def score_of(scores, policy) -> np.ndarray:
    """Each scored pair's UCB score, derived from its terms and the
    policy's ``beta`` and ``lam`` as ``TraceLegend.decode`` derives it."""
    return ucb_score(scores.mu, scores.sigma, scores.penalty, policy.beta, policy.lam)


def reference_terms(model, phi) -> tuple[np.ndarray, np.ndarray]:
    """Each row's mean estimate ``theta^T phi`` and confidence width
    ``sqrt(phi^T A^-1 phi)``, one per-pair einsum each over the whole row:
    the unfactored reference for the model's ``UcbTerms``."""
    mu = np.einsum("ij,j->i", phi, model._theta)
    quad = np.einsum("ij,jk,ik->i", phi, model._a_inv, phi)
    return mu, np.sqrt(np.maximum(0.0, quad))


# Set from an error bound, not from measured gaps. A term is a float64
# sum of at most 441 products (sigma^2 with d = 21), which the factored
# terms and the reference each take in their own order. Each order is
# within 441 roundings of 1.1e-16 of the exact sum, relative to the sum
# of the products' magnitudes, so the two differ by at most about 1e-13
# of that sum. 1e-12 of it leaves an order of magnitude to spare and
# holds whatever the ridge, where a tolerance relative to sigma would
# not: sigma^2 may cancel to far below its products.
TERMS_TOL = 1e-12


def assert_terms_close(model, phi, mu, sigma) -> None:
    """``mu`` and ``sigma`` of the rows of ``phi`` equal :func:`reference_terms`
    within ``TERMS_TOL`` of each term's sum of product magnitudes: ``|phi|
    . |theta|`` for ``mu`` and ``|phi|^T |A^-1| |phi|`` for ``sigma^2``."""
    want_mu, want_sigma = reference_terms(model, phi)
    magnitude = np.abs(phi)
    mu_scale = magnitude @ np.abs(model._theta)
    quad_scale = np.einsum("ij,jk,ik->i", magnitude, np.abs(model._a_inv), magnitude)
    assert np.all(np.abs(mu - want_mu) <= TERMS_TOL * mu_scale)
    assert np.all(np.abs(sigma**2 - want_sigma**2) <= TERMS_TOL * quad_scale)


def trace_dict(decided, epoch, roster, policy=PolicyConfig()) -> dict:
    """A one-row pass's rationale trace as a dict with one entry per group,
    in the order of the roster's ``group_ids``: the reference that each
    trace line must decode to, its scores derived under ``policy``. Its
    ``json.dumps(..., sort_keys=True)`` text is the line of trace schema 1."""
    scores = (*decided.scores, score_of(decided.scores, policy))
    scored = zip(*(a.tolist() for a in scores))
    candidates = []
    for group_id, code in zip(roster.group_ids, decided.codes[0].tolist()):
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
    (group,) = decided.chosen.tolist()
    return {
        "candidates": candidates,
        "epoch": epoch,
        "user_token": roster.user_tokens[decided.start],
        "chosen": roster.group_ids[group] if group >= 0 else None,
        "changed": decided.changed,
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


def reference_poisson(u, lam) -> np.ndarray:
    """The inverse-CDF Poisson draw over the whole array at every step: the
    reference ``poisson_from_uniform`` must equal bit for bit. An element
    whose positive cdf stops growing is drawn at that step."""
    lam = np.asarray(lam, dtype=float)
    u = np.asarray(u, dtype=float)
    k = np.zeros(lam.shape, dtype=np.int64)
    pmf = np.exp(-lam)
    cdf = pmf.copy()
    remaining = u > cdf
    step = 0
    while remaining.any():
        step += 1
        if step > 1000:
            raise ValidationError("poisson rate too large for inverse-CDF draw")
        pmf = np.where(remaining, pmf * lam / step, pmf)
        grown = np.where(remaining, cdf + pmf, cdf)
        stalled = (grown == cdf) & (cdf > 0)
        cdf = grown
        k = np.where(remaining, step, k)
        remaining &= (u > cdf) & ~stalled
    return k


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


def reference_context(events, scored_weeks, *, user_token, epoch, goal, window) -> UserContext:
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
        return UserContext(
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
    return UserContext(
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


def tables_for(roster, goal="fitness", group_engagement=None):
    """Feature tables at epoch 8 in which every roster user has goal
    ``goal`` and the same mid-range context values."""
    n = len(roster.user_tokens)
    batch = ContextBatch(
        user_tokens=[UserToken(token) for token in roster.user_tokens],
        epoch=8,
        numeric=np.tile([0.5, 0.5, 0.5, 0.5, 0.0], (n, 1)),
        goal=np.full(n, GOAL_CATEGORIES.index(goal)),
        streak=np.zeros(n),
        slope=np.zeros(n),
    )
    return feature_tables(batch, roster, group_engagement)


def audit_dict(entry) -> dict:
    """An audit entry's fields by name."""
    return {name: getattr(entry, name) for name in AUDIT_FIELDS}


def deid_dict(deid) -> dict:
    """A de-identified text as a ``deid_messages.jsonl`` line holds it,
    with the cohort metadata's keys in their own order."""
    return {
        "text": deid.text,
        "user_token": deid.source_user_token.value,
        "cohort": dict(deid.cohort_metadata),
        "counts": dict(deid.redaction_count_by_type),
    }


def reference_payload(fields) -> bytes:
    """An audit entry's chained payload: every field but the hash, as
    ``json.dumps`` writes them with sorted keys and no spaces."""
    doc = {name: value for name, value in fields.items() if name != "chain_hash"}
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")


def reference_chain_hash(prev_hash: str, fields) -> str:
    return hashlib.sha256(prev_hash.encode("ascii") + b"\n" + reference_payload(fields)).hexdigest()


def reference_line(entry) -> str:
    """An audit entry's export line, as ``json.dumps`` writes it with sorted keys."""
    return json.dumps(audit_dict(entry), sort_keys=True) + "\n"


def reference_verify(entries) -> tuple[bool, int | None]:
    """The audit chain check over ``json.dumps`` payloads. An entry is bad
    at a sequence gap, a field ``json.dumps`` cannot write, a hash
    mismatch, or a timestamp that is unreadable or earlier than the last."""
    prev, prev_ts = GENESIS_HASH, None
    for i, entry in enumerate(entries):
        if entry.seq != i:
            return False, i
        try:
            expected = reference_chain_hash(prev, audit_dict(entry))
        except (TypeError, ValueError):
            return False, i
        if entry.chain_hash != expected:
            return False, i
        try:
            ts = datetime.fromisoformat(entry.ts)
            if prev_ts is not None and ts < prev_ts:
                return False, i
        except (TypeError, ValueError):
            return False, i
        prev, prev_ts = entry.chain_hash, ts
    return True, None


def reference_identity(rng, index) -> dict[str, str]:
    """One registration payload with its nine integers drawn one scalar
    call at a time, in field order: the reference each row of
    ``synth_identities`` must equal."""
    first = DEFAULT_FIRST_NAMES[int(rng.integers(len(DEFAULT_FIRST_NAMES)))]
    last = DEFAULT_LAST_NAMES[int(rng.integers(len(DEFAULT_LAST_NAMES)))]
    phone = f"613-555-{int(rng.integers(10000)):04d}"
    dob = (
        f"{int(rng.integers(1960, 2001))}-"
        f"{int(rng.integers(1, 13)):02d}-{int(rng.integers(1, 29)):02d}"
    )
    street_no = int(rng.integers(10, 900))
    street = STREET_NAMES[int(rng.integers(len(STREET_NAMES)))]
    suffix = STREET_SUFFIXES[int(rng.integers(len(STREET_SUFFIXES)))]
    return {
        "full_name": f"{first} {last}",
        "first_name": first,
        "last_name": last,
        "email": f"{first}.{last}{index}@example-mail.test".lower(),
        "phone": phone,
        "dob": dob,
        "address": f"{street_no} {street} {suffix}",
    }


def identity_at(rng, index) -> dict[str, str]:
    """Row ``index``'s registration payload without drawing the rows before
    it: the first row ``synth_identities`` draws, with the email carrying
    ``index``, the one field a row's index sets."""
    (identity,) = synth_identities(rng, 1)
    identity["email"] = f"{identity['first_name']}.{identity['last_name']}{index}@example-mail.test".lower()
    return identity


@dataclass
class ReferenceIntake:
    """A cohort's draws, restated from the documented order of the cohort
    stream, and what registering them gives. ``rng`` is the stream just
    past the entropy block; ``vault`` registered row ``i`` with bytes
    ``[28 i, 28 i + 28)`` of ``block``."""

    capacities: list[int]
    identities: list[dict[str, str]]
    goal_index: np.ndarray
    base_logit: np.ndarray
    fatigue_rate: np.ndarray
    engagement_rates: np.ndarray
    weights_start: np.ndarray
    block: bytes
    rng: np.random.Generator
    tokens: list[str]
    vault: Vault


def reference_intake(scenario, keys) -> ReferenceIntake:
    """The cohort stream drawn field by field in the documented order,
    without the feasibility checks: the capacities; each row's nine
    identity integers (one scalar call each); the goals; the base logits,
    the fatigue rates, the rate normals and the start weights; the
    ``28 n``-byte entropy block. The users are then registered in row
    order in a vault of their own that reads the block 28 bytes a call."""
    rng = substream(scenario.seed, _STREAM_COHORT)
    n = scenario.n_users
    capacities = rng.integers(scenario.capacity_min, scenario.capacity_max + 1, scenario.n_groups)
    identities = [reference_identity(rng, i) for i in range(n)]
    goal_index = rng.choice(len(GOAL_CATEGORIES), size=n, p=scenario.goal_weights)
    base_logit = scenario.base_logit_mean + scenario.base_logit_sd * rng.normal(size=n)
    fatigue_rate = scenario.fatigue_mean * rng.uniform(0.5, 1.5, n)
    normals = rng.normal(size=(n, len(ACTION_TYPES)))
    engagement_rates = np.asarray(scenario.engagement_rate_means) * np.exp(0.3 * normals)
    weights_start = scenario.weight_start_mean + scenario.weight_start_sd * rng.normal(size=n)
    block = rng.bytes(28 * n)
    draws = iter(block[i : i + 28] for i in range(0, len(block), 28))
    vault = Vault(keys, clock=SimClock(), entropy=lambda size: next(draws))
    tokens = [vault.register(identity).value for identity in identities]
    return ReferenceIntake(
        capacities.tolist(), identities, goal_index, base_logit, fatigue_rate,
        engagement_rates, weights_start, block, rng, tokens, vault,
    )


def reference_place_initially(world) -> None:
    """Initial placement one user at a time, recomputing every mask for each."""
    scenario = world.scenario
    roster = world.roster
    rng = substream(scenario.seed, _STREAM_PLACEMENT)
    for user in range(world.n_users):
        mismatched = rng.random() < scenario.misgroup_fraction
        right = roster.goal_index == world.goal_index[user]
        pools = (~right, right) if mismatched else (right, ~right)
        blocked = (roster.capacity_code | roster.load_code[roster.coach_of]) != 0
        for pool in pools:
            open_rows = np.flatnonzero(pool & ~blocked)
            if open_rows.size:
                break
        else:
            raise ValidationError(
                "placement infeasible: no group has both capacity and coach headroom"
            )
        roster.move(user, open_rows[rng.integers(open_rows.size)], 0, dwell=0)
    world._audited = (roster.group_of.copy(), roster.last_change.copy())


def reference_assistant_pass(world, epoch, contexts, drafts, counters, memo) -> None:
    """The assistant pass one flagged row at a time: each row's streak,
    slope, goal and coach read from the arrays in place, one scalar
    ``rng.random()`` per row for its review, and the creation stamp from
    ``datetime``. Each deliverable draft is delivered through the vault."""
    scenario, roster = world.scenario, world.roster
    templates = default_templates()
    rng = substream(scenario.seed, STREAM_REVIEW, epoch)
    created_at = datetime.fromtimestamp(
        SIM_EPOCH_BASE + epoch * WEEK_SECONDS, tz=timezone.utc
    ).isoformat(timespec="microseconds")
    for user in np.flatnonzero(risk_mask(contexts)).tolist():
        token = world.tokens[user]
        kind = flag_risks(contexts, user)[0]
        template = templates["reengage-streak" if kind == "missed_streak" else "reengage-decline"]
        summary_text = (
            f"missed {int(contexts.streak[user])} recent check-ins; "
            f"engagement slope {float(contexts.slope[user]):+.2f} per week."
        )
        cohort = world.cohort_of_goal[world.goal_index[user]]
        summary = redact(summary_text, token, world.rules, cohort, memo=memo, pool=world.deid_pool)
        draft = generate_draft(
            summary, contexts, user, template, rules=world.rules,
            draft_id=f"d-{scenario.seed}-{epoch:02d}-{user:04d}", created_at=created_at, memo=memo,
        )
        drafts.append(draft)
        coach_id = roster.coach_ids[roster.coach_of[roster.group_of[user]]]
        u = float(rng.random())
        if u < scenario.review_approve_prob:
            review(draft, coach_id, "approve", decided_at=created_at)
        elif u < scenario.review_approve_prob + scenario.review_edit_prob:
            review(
                draft, coach_id, "edit",
                new_text=_EDIT_TEXT, rules=world.rules, decided_at=created_at, memo=memo,
            )
        elif u < scenario.review_approve_prob + scenario.review_edit_prob + scenario.review_discard_prob:
            review(draft, coach_id, "discard", decided_at=created_at)
        if draft.status in DELIVERABLE_STATUSES:
            result = world.vault.restore_identity(
                RestorationRequest(
                    requester_id=coach_id, role="coach", mfa_verified=True,
                    user_token=token, purpose="deliver coaching message",
                )
            )
            counters["restoration_attempts"] += 1
            assert result.granted, result.denial_reason
