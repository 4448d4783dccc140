"""The array-at-a-time decision path against per-group and per-user references.

Feasibility reason codes, the joint feature rows gathered from the
epoch's feature tables, the epoch's batch of contexts and the trace line,
decoded with the manifest's legend, are each checked against a
reference: a test-local copy of the rule they replace, or the per-user
and per-decision builders and ``trace_dict`` from conftest.
"""

import base64
import copy
import io
import json
import struct
from collections import Counter
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from conftest import (
    UserEvents,
    context_row,
    decode_trace_line,
    legend_of,
    make_roster,
    reference_context,
    reference_joint_features,
    score_of,
    tables_for,
    trace_dict,
)

from prism import assignment

from prism.assignment import (
    CODE_CAPACITY,
    CODE_DWELL,
    CODE_GOAL,
    FEATURE_DIM,
    GOAL_CATEGORIES,
    N_REASON_CODES,
    BanditModel,
    CandidateScores,
    DecisionPass,
    PolicyConfig,
    _decide_pass,
    assign,
    feasibility_report,
    feature_tables,
    joint_features,
)
from prism.errors import ConstraintViolationError, ValidationError
from prism.features import (
    ContextBatch,
    EngagementWeights,
    NormalizationWindow,
    build_context,
    engagement_scores,
)
from prism.simulator.experiment import TraceLegend, _decide, _pass_lines
from prism.vault import UserToken


def reference_report(goal, roster, groups, coaches, user, epoch, dwell):
    """Feasibility one group at a time, from the group specs and a recount."""
    current = roster.group_ids[roster.group_of[user]] if roster.group_of[user] >= 0 else None
    if current is not None and epoch - roster.last_change[user] < dwell:
        return {gid: ([] if gid == current else ["dwell_lock"]) for gid in roster.group_ids}
    seated = roster.group_of[roster.group_of >= 0]
    count = np.bincount(seated, minlength=len(roster.group_ids))
    coach_of = {gid: groups[gid][0] for gid in roster.group_ids}
    load = {cid: 0 for cid in coaches}
    for g in seated.tolist():
        load[coach_of[roster.group_ids[g]]] += 1
    own_coach = coach_of[current] if current is not None else None
    report = {}
    for g, gid in enumerate(roster.group_ids):
        coach, capacity, goal_category = groups[gid]
        reasons = []
        if goal_category != goal:
            reasons.append("goal_mismatch")
        if count[g] - (gid == current) >= capacity:
            reasons.append("capacity_full")
        if load[coach] - (coach == own_coach) >= coaches[coach]:
            reasons.append("coach_load_full")
        report[gid] = reasons
    return report


def reference_features(context, goal_category, fill_ratio, group_engagement=0.5):
    """The joint feature map of one candidate group."""
    user_goal = context.categorical_features
    group_goal = np.zeros(len(GOAL_CATEGORIES))
    group_goal[GOAL_CATEGORIES.index(goal_category)] = 1.0
    user_block = np.concatenate(
        [
            context.numeric_features,
            user_goal,
            [
                min(context.missed_checkin_streak, 14) / 14,
                float(np.clip(context.engagement_slope, -1.0, 1.0)),
            ],
        ]
    )
    group_block = np.concatenate(
        [[float(np.clip(group_engagement, 0.0, 1.0)), fill_ratio], group_goal]
    )
    return np.concatenate([user_block, group_block, user_goal * group_goal])


@st.composite
def worlds(draw, max_users=12, max_capacity=4, min_users=1):
    """Groups (id to coach id, capacity and goal), coaches (id to load
    limit) and a roster with some users seated at random epochs."""
    n_coaches = draw(st.integers(1, 3))
    specs = draw(
        st.lists(
            st.tuples(
                st.integers(1, max_capacity),
                st.sampled_from(GOAL_CATEGORIES),
                st.integers(0, n_coaches - 1),
            ),
            min_size=1, max_size=8,
        )
    )
    groups = {
        f"g{i:03d}": (f"c{coach:02d}", capacity, goal)
        for i, (capacity, goal, coach) in enumerate(specs)
    }
    coaches = {f"c{c:02d}": draw(st.integers(1, 6)) for c in range(n_coaches)}
    n_users = draw(st.integers(min_users, max_users))
    roster = make_roster(
        [(gid, *spec) for gid, spec in groups.items()], coaches, [f"{u:064x}" for u in range(n_users)]
    )
    for u in range(n_users):
        seat = draw(st.one_of(st.none(), st.tuples(st.integers(0, len(groups) - 1), st.integers(0, 10))))
        if seat is not None:
            try:
                roster.move(u, seat[0], seat[1], dwell=0)
            except ConstraintViolationError:
                pass
    return groups, coaches, roster


@settings(max_examples=150, deadline=None)
@given(
    world=worlds(),
    queries=st.lists(
        st.tuples(
            st.integers(0, 11), st.integers(0, len(GOAL_CATEGORIES) - 1),
            st.integers(0, 15), st.integers(0, 4),
        ),
        min_size=1, max_size=6,
    ),
)
def test_feasibility_report_matches_per_group_rules(world, queries):
    groups, coaches, roster = world
    for user, goal, epoch, dwell in queries:
        user %= len(roster.user_tokens)
        config = PolicyConfig(dwell=dwell, oscillation=dwell)
        report = feasibility_report(user, goal, roster, epoch, config)
        expected = reference_report(
            GOAL_CATEGORIES[goal], roster, groups, coaches, user, epoch, dwell
        )
        assert roster.group_ids == list(expected)
        assert report.values() == list(expected.values())
        assert len(report) == len(expected)


@settings(max_examples=100, deadline=None)
@given(world=worlds())
def test_goal_code_is_the_read_only_goal_table(world):
    _, _, roster = world
    assert roster.goal_code.shape == (len(GOAL_CATEGORIES), len(roster.group_ids))
    for goal in range(len(GOAL_CATEGORIES)):
        assert roster.goal_code[goal].tolist() == ((roster.goal_index != goal) * CODE_GOAL).tolist()
    assert not roster.goal_code.flags.writeable
    with pytest.raises(ValueError):
        roster.goal_code[0, 0] = 0


@settings(max_examples=150, deadline=None)
@given(world=worlds(), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_joint_feature_rows_match_per_candidate_map(world, seed, data):
    # Tables built once per epoch, then decisions with moves in between:
    # only the fill ratios change, and each gather must equal the matrix
    # built from scratch for that decision.
    groups, _, roster = world
    rng = np.random.default_rng(seed)
    n = len(roster.user_tokens)
    contexts = ContextBatch(
        user_tokens=[UserToken(token) for token in roster.user_tokens],
        epoch=data.draw(st.integers(0, 20)),
        numeric=rng.random((n, 5)),
        goal=rng.integers(0, len(GOAL_CATEGORIES), size=n),
        streak=data.draw(st.lists(st.integers(0, 40), min_size=n, max_size=n)),
        slope=data.draw(
            st.lists(st.floats(-5, 5) | st.sampled_from([-1.0, 1.0, -0.0]), min_size=n, max_size=n)
        ),
    )
    engagement = data.draw(
        st.none()
        | st.lists(st.floats(-1, 2), min_size=len(groups), max_size=len(groups)).map(np.array)
    )
    tables = feature_tables(contexts, roster, engagement)
    for _ in range(data.draw(st.integers(1, 4))):
        user = data.draw(st.integers(0, n - 1))
        rows = np.array(
            data.draw(st.lists(st.integers(0, len(groups) - 1), min_size=1, max_size=8)),
            dtype=np.int64,
        )
        phi = joint_features(tables, user, roster, rows)
        assert phi.shape == (rows.size, FEATURE_DIM)
        context = context_row(contexts, user)
        assert phi.tobytes() == reference_joint_features(context, roster, rows, engagement).tobytes()
        for i, row in enumerate(rows.tolist()):
            expected = reference_features(
                context,
                groups[roster.group_ids[row]][2],
                roster.count[row] / roster.capacity[row],
                0.5 if engagement is None else engagement[row],
            )
            assert np.array_equal(phi[i], expected)
        mover, group = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, len(groups) - 1))
        try:
            roster.move(mover, group, 99, dwell=0)
        except ConstraintViolationError:
            pass


def test_feature_tables_need_one_context_per_roster_user():
    tokens = [UserToken(f"{u:02x}" * 32) for u in range(3)]
    roster = make_roster([("g000", "c00", 3, "fitness")], {"c00": 9}, [t.value for t in tokens])

    def batch(rows):
        return ContextBatch(
            user_tokens=[tokens[u] for u in rows], epoch=0,
            numeric=np.array([[0.1 * u] * 5 for u in rows]), goal=np.array(rows) % 4,
            streak=np.array(rows), slope=np.zeros(len(rows)),
        )

    assert feature_tables(batch([0, 1, 2]), roster).goal.tolist() == [0, 1, 2]
    # A misordered batch holds every context, but a table row must be its
    # roster user's.
    for rows in ([0, 1], [0, 1, 1], [0, 1, 2, 2], [2, 0, 1], [0, 2, 1]):
        with pytest.raises(ValidationError, match="roster row order"):
            feature_tables(batch(rows), roster)


# -- epochs decided in passes ----------------------------------------------------

ROSTER_ARRAYS = ("group_of", "last_change", "count", "load", "capacity_code", "fill", "load_code")


def reference_epoch(roster, model, epoch, config, tables):
    """The per-user loop: every row through ``assign`` in row order, with
    its reference trace line and, for a scored row, its pending entry."""
    lines, users, phi, penalties = [], [], [], []
    for user in range(len(roster.user_tokens)):
        decision = assign(user, roster, model, epoch, config, tables=tables)
        lines.append(reference_trace_line(decision, epoch, roster))
        if decision.users.size:
            users.append(user)
            phi.append(decision.phi[0])
            penalties.append(int(decision.penalty[0]))
    pending = None
    if users:
        pending = (np.array(users), np.array(phi), np.array(penalties, dtype=np.int64))
    return "".join(lines), pending


def joined(steps):
    """One-row passes of consecutive rows as the one pass that decides
    them all: what a pass over those rows must equal."""
    return DecisionPass(
        start=steps[0].start,
        codes=np.concatenate([d.codes for d in steps]),
        chosen=np.concatenate([d.chosen for d in steps]),
        changed=steps[-1].changed,
        bounds=np.concatenate([[0], np.cumsum([d.bounds[1] for d in steps])]),
        scores=CandidateScores(*(np.concatenate(terms) for terms in zip(*(d.scores for d in steps)))),
        users=np.concatenate([d.users for d in steps]),
        phi=np.concatenate([d.phi for d in steps]),
        penalty=np.concatenate([d.penalty for d in steps]),
    )


@st.composite
def epochs(draw, max_users=12, max_capacity=4, min_users=1):
    """A roster, a model, the epoch's feature tables and a policy: a cold
    model and shared contexts give exact ties, a warm model and drawn
    contexts give distinct scores."""
    groups, _, roster = draw(worlds(max_users, max_capacity, min_users))
    n = len(roster.user_tokens)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = BanditModel(draw(st.sampled_from([0.5, 1.0, 2.0])))
    if draw(st.booleans()):
        size = int(rng.integers(1, 20))
        model.update(rng.uniform(-1, 1, (size, FEATURE_DIM)), rng.uniform(-3, 3, size))
    if draw(st.booleans()):
        tables = tables_for(roster, draw(st.sampled_from(GOAL_CATEGORIES)))
    else:
        contexts = ContextBatch(
            user_tokens=[UserToken(token) for token in roster.user_tokens],
            epoch=8,
            numeric=rng.random((n, 5)),
            goal=rng.integers(0, len(GOAL_CATEGORIES), size=n),
            streak=rng.integers(0, 30, size=n),
            slope=rng.uniform(-2, 2, size=n),
        )
        engagement = None if draw(st.booleans()) else rng.uniform(-1, 2, len(groups))
        tables = feature_tables(contexts, roster, engagement)
    dwell = draw(st.integers(0, 4))
    config = PolicyConfig(
        dwell=dwell,
        oscillation=dwell + draw(st.integers(0, 4)),
        beta=draw(st.sampled_from([0.0, 0.5, 1.0, 3.0])),
        lam=draw(st.sampled_from([0.0, 0.3, 1.0])),
    )
    epoch = draw(st.integers(0, 14))
    return roster, model, epoch, config, tables


def assert_same_epoch(roster, model, epoch, config, tables):
    """``_decide``, which decides the epoch through ``decide_epoch``,
    writes the lines, leaves the roster and returns the pending batch of
    the per-user loop, byte for byte."""
    expected = copy.deepcopy(roster)
    lines, pending = reference_epoch(expected, model, epoch, config, tables)
    out, counters = io.StringIO(), Counter()
    batch = _decide(roster, model, epoch, config, tables, out, counters)
    assert out.getvalue() == lines
    for name in ROSTER_ARRAYS:
        assert getattr(roster, name).tobytes() == getattr(expected, name).tobytes(), name
    assert (batch is None) == (pending is None)
    if pending is not None:
        for got, want in zip(batch, pending):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert counters["decisions"] == len(roster.user_tokens)
    assert counters["reassignments"] == lines.count('"changed": true')


@settings(max_examples=300, deadline=None)
@given(case=epochs(max_users=40), max_rows=st.integers(1, 16), min_rows=st.integers(1, 18))
def test_epoch_in_passes_equals_per_user_loop(case, max_rows, min_rows):
    # Small pass bounds put many passes, and passes cut by a move on any
    # row, into a small epoch; a lower bound above the upper one decides
    # every row one at a time.
    with mock.patch.multiple(assignment, _MAX_PASS_ROWS=max_rows, _MIN_PASS_ROWS=min_rows):
        assert_same_epoch(*case)


@settings(max_examples=10, deadline=None)
@given(case=epochs(min_users=assignment._MAX_PASS_ROWS + 1, max_users=300, max_capacity=60))
def test_epoch_longer_than_a_pass_equals_per_user_loop(case):
    assert_same_epoch(*case)


@settings(max_examples=300, deadline=None)
@given(case=epochs(max_users=40), data=st.data())
def test_one_pass_equals_per_user_steps(case, data):
    # Any window: the pass keeps its rows up to and including the first
    # move, each as assign decides it, and applies that move.
    roster, model, epoch, config, tables = case
    n = len(roster.user_tokens)
    start = data.draw(st.integers(0, n - 1))
    # Half the windows end on the row that makes the first move.
    probe = copy.deepcopy(roster)
    first_move = next(
        (i for i, user in enumerate(range(start, n))
         if assign(user, probe, model, epoch, config, tables=tables).changed),
        None,
    )
    windows = st.integers(1, n - start)
    if first_move is not None and data.draw(st.booleans()):
        windows = st.just(first_move + 1)
    rows = data.draw(windows)
    expected = copy.deepcopy(roster)
    decided = _decide_pass(start, rows, roster, model, epoch, config, tables)
    kept = decided.chosen.size
    decisions = [
        assign(user, expected, model, epoch, config, tables=tables)
        for user in range(start, start + kept)
    ]
    assert [d.changed for d in decisions] == [False] * (kept - 1) + [decided.changed]
    assert decided.changed or kept == rows
    assert _pass_lines(decided, epoch, roster) == "".join(
        reference_trace_line(d, epoch, roster) for d in decisions
    )
    for name in ROSTER_ARRAYS:
        assert getattr(roster, name).tobytes() == getattr(expected, name).tobytes(), name
    reference = joined(decisions)
    assert (decided.start, decided.changed) == (reference.start, reference.changed)
    for name in ("codes", "chosen", "bounds", "users", "phi", "penalty"):
        got, want = getattr(decided, name), getattr(reference, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
    for got, want in zip(decided.scores, reference.scores):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    event(f"kept {'one row' if kept == 1 else 'every row' if kept == rows else 'some rows'}"
          f"{', last one moved' if decided.changed else ''}")


# -- contexts ------------------------------------------------------------------


@st.composite
def cohorts(draw):
    """Random count and check-in arrays, every week before the epoch scored
    the way the simulator scores it: one week for all users at once."""
    n = draw(st.integers(1, 6))
    weeks = draw(st.integers(1, 13))
    epoch = draw(st.integers(0, min(12, weeks)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Per-user check-in rates from 0 up, so streaks run from none to every day.
    rates = rng.random(n) ** 2
    checkins = (rng.random((n, weeks * 7)) < rates[:, None]).astype(np.int8)
    counts = rng.poisson(rng.random(5) * 8, size=(n, weeks, 5)).astype(np.int32)
    first_day = np.array(
        draw(st.lists(st.sampled_from([-1, 0]) | st.integers(1, weeks * 7 + 7), min_size=n, max_size=n))
    )
    weights = EngagementWeights.from_pre_period(counts.reshape(-1, 5))
    scores = np.full((n, weeks), np.nan)
    for week in range(epoch):
        scores[:, week] = engagement_scores(counts[:, week], weights)
    lo = draw(st.floats(0, 30))
    width = draw(st.just(0.0) | st.floats(1e-3, 60))
    tenure_hi = draw(st.sampled_from([0.0, float(weeks), 20.0]))
    window = NormalizationWindow(
        bounds={"weekly_actions": (lo, lo + width), "tenure_weeks": (0.0, tenure_hi)}
    )
    goals = rng.integers(0, len(GOAL_CATEGORIES), size=n)
    return checkins, counts, scores, first_day, goals, epoch, window


def bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


@settings(max_examples=300, deadline=None)
@given(cohort=cohorts())
def test_batch_contexts_match_per_user_reference(cohort):
    checkins, counts, scores, first_day, goals, epoch, window = cohort
    tokens = [UserToken(f"{u:02x}" * 32) for u in range(len(goals))]
    batch = build_context(
        checkins, counts, scores, first_day,
        user_tokens=tokens, goals=goals, epoch=epoch, window=window,
    )
    assert len(batch) == len(tokens)
    assert (batch.streak.dtype, batch.slope.dtype) == (np.int64, np.float64)
    for u, token in enumerate(tokens):
        events = UserEvents(checkins[u], counts[u], int(first_day[u]))
        expected = reference_context(
            events, scores[u], user_token=token, epoch=epoch,
            goal=GOAL_CATEGORIES[goals[u]], window=window,
        )
        context = context_row(batch, u)
        assert context.user_token == token and context.epoch == epoch
        assert bits(context.numeric_features) == bits(expected.numeric_features)
        assert bits(context.categorical_features) == bits(expected.categorical_features)
        assert context.missed_checkin_streak == expected.missed_checkin_streak
        assert bits(context.engagement_slope) == bits(expected.engagement_slope)


def good_batch() -> dict:
    return dict(
        user_tokens=[UserToken("ab" * 32), UserToken("cd" * 32)],
        epoch=3,
        numeric=np.full((2, 5), 0.5),
        goal=np.array([0, 3]),
        streak=np.array([0, 2]),
        slope=np.array([0.0, -0.1]),
    )


def test_batch_accepts_numerics_within_tolerance():
    ContextBatch(**good_batch())
    ContextBatch(**dict(good_batch(), numeric=np.full((2, 5), 1 + 0.5e-9)))


@pytest.mark.parametrize(
    "field, value",
    [("numeric", np.nan), ("numeric", np.inf), ("numeric", 1 + 2e-9), ("numeric", -2e-9), ("streak", -1)],
)
def test_batch_rejects_every_value_a_context_rejects(field, value):
    batch = good_batch()
    batch[field][1] = value
    with pytest.raises(ValidationError):
        ContextBatch(**batch)
    # The bad row alone, as a one-row batch.
    with pytest.raises(ValidationError):
        ContextBatch(**{name: rows if name == "epoch" else rows[1:] for name, rows in batch.items()})


@pytest.mark.parametrize(
    "field, value", [("goal", np.array([0, 4])), ("user_tokens", ["ab" * 32, "cd" * 32])]
)
def test_batch_rejects_unknown_goals_and_raw_tokens(field, value):
    with pytest.raises(ValidationError):
        ContextBatch(**dict(good_batch(), **{field: value}))


def test_an_unscored_week_fails_the_batch():
    checkins = np.ones((2, 28), dtype=np.int8)
    counts = np.ones((2, 4, 5), dtype=np.int32)
    scores = np.full((2, 4), 0.25)
    scores[1, 2] = np.nan
    window = NormalizationWindow(bounds={"weekly_actions": (0.0, 9.0), "tenure_weeks": (0.0, 9.0)})
    with pytest.raises(ValidationError):
        build_context(
            checkins, counts, scores, np.zeros(2, dtype=np.int64),
            user_tokens=[UserToken("ab" * 32), UserToken("cd" * 32)],
            goals=[0, 1], epoch=4, window=window,
        )


# -- trace lines ---------------------------------------------------------------

SPECIAL_FLOATS = [
    -0.0, 0.0, 1e-05, 1e16, 1.5e-300, 5e-324, -2.5e-310, -2.5,
    float("nan"), float("inf"), float("-inf"),
]
floats = st.sampled_from(SPECIAL_FLOATS) | st.floats()
group_ids = st.lists(
    st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=6)
    | st.sampled_from(['g"1', "g\\2", "gé", "g☃", "g\n"]),
    min_size=1, max_size=8, unique=True,
)


def decision_with(codes, draw_float, chosen, changed, legend, token="t0"):
    """A one-row pass over ``codes``, with drawn ``mu`` and ``sigma``; and
    the stand-in roster its line is
    written against, the legend's group ids and the one user ``token``.
    ``chosen`` is a group id or None, and a scored ``chosen`` has its
    pair in the pass, as ``assign`` records it."""
    ids = legend["group_ids"]
    codes = np.asarray(codes, dtype=np.int64)
    rows = np.flatnonzero(codes == 0)
    draw = lambda: np.array([draw_float() for _ in rows.tolist()], dtype=float)
    mu, sigma, penalty = draw(), draw(), rows % 2
    group = -1 if chosen is None else ids.index(chosen)
    pair = np.flatnonzero(rows == group)
    decided = DecisionPass(
        start=0,
        codes=codes[None],
        chosen=np.array([group]),
        changed=changed,
        bounds=np.array([0, rows.size]),
        scores=CandidateScores(mu=mu, sigma=sigma, penalty=penalty),
        users=np.zeros(pair.size, dtype=np.int64),
        phi=np.zeros((pair.size, FEATURE_DIM)),
        penalty=penalty[pair],
    )
    return decided, SimpleNamespace(group_ids=ids, user_tokens=[token])


def pack_floats(values) -> str:
    return base64.b64encode(struct.pack(f"<{len(values)}d", *values)).decode("ascii")


def line_fields(decided, epoch, roster) -> dict:
    """The fields every trace schema shares, for a one-row pass."""
    (group,) = decided.chosen.tolist()
    return {
        "epoch": epoch,
        "user_token": roster.user_tokens[decided.start],
        "chosen": roster.group_ids[group] if group >= 0 else None,
        "changed": decided.changed,
    }


def reference_trace_line(decided, epoch, roster) -> str:
    """A one-row pass's schema-3 line as one ``json.dumps`` of its fields,
    the floats packed by ``struct`` and encoded by ``base64``."""
    mu, sigma, penalty = (a.tolist() for a in decided.scores)
    return json.dumps({
        **line_fields(decided, epoch, roster),
        "codes": "".join(chr(48 + code) for code in decided.codes[0].tolist()),
        "mu": pack_floats(mu),
        "sigma": pack_floats(sigma),
        "penalty": "".join(str(p) for p in penalty),
    }) + "\n"


def reference_schema2_line(decided, epoch, roster, policy) -> str:
    """The line trace schema 2 wrote: one ``json.dumps`` of its fields,
    the score derived as ``score_and_select`` derives it, with the legend
    ``policy``'s ``beta`` and ``lam``."""
    mu, sigma, penalty = decided.scores
    score = (mu + policy["beta"] * sigma - policy["lam"] * penalty).tolist()
    mu, sigma, penalty = mu.tolist(), sigma.tolist(), penalty.tolist()
    return json.dumps({
        **line_fields(decided, epoch, roster),
        "codes": decided.codes[0].tolist(),
        "mu": mu,
        "sigma": sigma,
        "penalty": penalty,
        "score": score,
    }) + "\n"


def assert_decodes_to_reference(decided, epoch, roster, legend):
    line = _pass_lines(decided, epoch, roster)
    assert line == reference_trace_line(decided, epoch, roster)
    assert line.endswith("\n") and "\n" not in line[:-1]
    # Compared as text: dict equality would take -0.0 for 0.0 and fail NaN
    # against NaN. The derived score must come back bit for bit.
    decoded = TraceLegend.from_manifest(legend).decode(line)
    assert json.dumps(decoded) + "\n" == reference_schema2_line(decided, epoch, roster, legend["policy"])
    policy = PolicyConfig.from_dict(legend["policy"])
    assert bits(decoded["score"]) == bits(score_of(decided.scores, policy))
    # The schema-1 text.
    assert json.dumps(decode_trace_line(line, legend), sort_keys=True) == json.dumps(
        trace_dict(decided, epoch, roster, policy), sort_keys=True
    )


policies = st.builds(PolicyConfig, beta=st.floats(0, 10), lam=st.floats(0, 10))


def draw_codes(data, ids):
    """A decision's code row and chosen group: any codes, a dwell lock, or
    a waitlisted user with no code-0 row."""
    n = len(ids)
    kind = data.draw(st.sampled_from(["any", "dwell", "waitlisted"]))
    if kind == "dwell":
        current = data.draw(st.integers(0, n - 1))
        return [0 if g == current else CODE_DWELL for g in range(n)], ids[current]
    if kind == "waitlisted":
        return data.draw(st.lists(st.integers(1, N_REASON_CODES - 1), min_size=n, max_size=n)), None
    codes = data.draw(st.lists(st.integers(0, N_REASON_CODES - 1), min_size=n, max_size=n))
    return codes, data.draw(st.sampled_from(ids))


# A zero penalty or width times an infinite term is NaN, in score_and_select too.
@pytest.mark.filterwarnings("ignore:(invalid value|overflow) encountered:RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(
    ids=group_ids,
    policy=policies,
    data=st.data(),
    n_decisions=st.integers(1, 4),
)
def test_trace_line_decodes_to_reference(ids, policy, data, n_decisions):
    legend = legend_of(ids, policy)
    draw_float = lambda: data.draw(floats)
    codes = None
    for _ in range(n_decisions):
        # A "repeat" decision reuses the previous code row, as many
        # decisions of an epoch do.
        if codes is None or not data.draw(st.booleans()):
            codes, chosen = draw_codes(data, ids)
        decided, roster = decision_with(
            codes, draw_float, chosen, data.draw(st.booleans()), legend,
            token=data.draw(st.text(max_size=8)),
        )
        assert_decodes_to_reference(decided, data.draw(st.integers(0, 10**6)), roster, legend)


def test_trace_line_covers_every_reason_code():
    ids = [f"g{c:02d}" for c in range(N_REASON_CODES)]
    legend = legend_of(ids)
    values = iter(SPECIAL_FLOATS * 3)
    decided, roster = decision_with(range(N_REASON_CODES), lambda: next(values), "g00", True, legend)
    assert_decodes_to_reference(decided, 5, roster, legend)
    line = json.loads(_pass_lines(decided, 5, roster))
    assert line["codes"] == "".join(chr(48 + code) for code in range(N_REASON_CODES))
    assert line["codes"][-1] == "8" and line["penalty"] == "0"
    assert len(line["mu"]) == len(line["sigma"]) == 12 and "score" not in line
    reasons = [
        c["reasons"] for c in decode_trace_line(_pass_lines(decided, 5, roster), legend)["candidates"]
    ]
    assert reasons[0] == []
    assert reasons[N_REASON_CODES - 1] == ["dwell_lock"]
    assert reasons[CODE_DWELL - 1] == ["goal_mismatch", "capacity_full", "coach_load_full"]


def test_trace_lines_of_a_churned_and_a_waitlisted_assign():
    # Row 0 sits in a goal-mismatched group since epoch 2: past the dwell
    # but inside the oscillation horizon, so its one feasible move costs a
    # churn penalty of 1. That move fills the only fitness group, and
    # unplaced row 1 is waitlisted.
    groups = [("g000", "c00", 2, "maintenance"), ("g001", "c00", 1, "fitness")]
    roster = make_roster(groups, {"c00": 9}, ["aa" * 32, "bb" * 32])
    roster.move(0, 0, 2, dwell=0)
    tables = tables_for(roster, "fitness")
    config, model = PolicyConfig(), BanditModel(1.0)
    legend = legend_of(roster.group_ids, config)
    before = copy.deepcopy(roster)

    churned = assign(0, roster, model, 8, config, tables=tables)
    assert (churned.chosen.tolist(), churned.changed) == ([1], True)
    assert churned.bounds.tolist() == [0, 1] and churned.users.tolist() == [0]
    assert churned.penalty.tolist() == churned.scores.penalty.tolist() == [1]
    assert churned.phi.tobytes() == joint_features(tables, 0, before, np.array([1])).tobytes()
    assert_decodes_to_reference(churned, 8, roster, legend)
    assert json.loads(_pass_lines(churned, 8, roster))["penalty"] == "1"

    waitlisted = assign(1, roster, model, 8, config, tables=tables)
    assert (waitlisted.chosen.tolist(), waitlisted.changed) == ([-1], False)
    assert waitlisted.bounds.tolist() == [0, 0]
    assert waitlisted.users.size == waitlisted.phi.size == waitlisted.penalty.size == 0
    assert waitlisted.phi.shape == (0, FEATURE_DIM)
    assert_decodes_to_reference(waitlisted, 8, roster, legend)
    line = json.loads(_pass_lines(waitlisted, 8, roster))
    codes = chr(48 + CODE_GOAL) + chr(48 + CODE_CAPACITY)
    assert [line[k] for k in ("chosen", "codes", "mu", "sigma", "penalty")] == [None, codes, "", "", ""]


def outside(valid: str):
    """One character that is not in ``valid``."""
    return st.characters().filter(lambda ch: ch not in valid)


@st.composite
def malformed_fields(draw, doc):
    """``doc``, a decoded schema-3 line with at least one scored row, with
    one field broken: a truncated, extended or non-base64 float field, a
    float field over another number of values, or a code or penalty
    character out of range."""
    n_scored = doc["codes"].count("0")
    field = draw(st.sampled_from(["mu", "sigma", "codes", "penalty"]))
    text = doc[field]
    # Padding means the last data character has unused low bits.
    kinds = ["truncate", "insert", "resize"] + (["retail"] if text.endswith("=") else [])
    kind = draw(st.sampled_from(kinds))
    if field == "codes":
        valid = "".join(chr(48 + code) for code in range(N_REASON_CODES))
        at = draw(st.integers(0, len(text) - 1))
        text = text[:at] + draw(outside(valid)) + text[at + 1 :]
    elif field == "penalty":
        at = draw(st.integers(0, n_scored - 1))
        text = text[:at] + draw(outside("01")) + text[at + 1 :]
    elif kind == "truncate":
        text = text[: draw(st.integers(0, len(text) - 1))]
    elif kind == "insert":
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.characters()) + text[at:]
    elif kind == "resize":
        size = draw(st.integers(0, n_scored + 3).filter(lambda k: k != n_scored))
        text = pack_floats([0.5] * size)
    else:
        # The last data character with an unused bit set: the same bytes,
        # but not the text the encoder writes.
        data = text.rstrip("=")
        alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
        text = data[:-1] + alphabet[alphabet.index(data[-1]) | 1] + text[len(data) :]
    return {**doc, field: text}


@pytest.mark.filterwarnings("ignore:(invalid value|overflow) encountered:RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(ids=group_ids, data=st.data())
def test_malformed_trace_line_raises(ids, data):
    legend = legend_of(ids)
    codes, chosen = draw_codes(data, ids)
    codes[0] = 0  # at least one scored row
    decided, roster = decision_with(codes, lambda: data.draw(floats), chosen or ids[0], False, legend)
    doc = json.loads(_pass_lines(decided, 5, roster))
    broken = data.draw(malformed_fields(doc))
    with pytest.raises(ValidationError):
        TraceLegend.from_manifest(legend).decode(json.dumps(broken))
