"""The array-at-a-time decision path against per-group references.

Feasibility reason codes, the batch joint feature matrix and the trace
line formatted from the decision's arrays are each checked against a
per-group reference: a test-local copy of the rule they replace, or
``trace_dict`` from conftest for the trace line.
"""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import trace_dict

from prism.assignment import (
    CODE_DWELL,
    FEATURE_DIM,
    GOAL_CATEGORIES,
    N_REASON_CODES,
    AssignmentDecision,
    CandidateScores,
    CoachState,
    GroupState,
    PolicyConfig,
    Roster,
    feasibility_report,
    joint_features,
)
from prism.errors import ConstraintViolationError
from prism.features import LearningContext
from prism.simulator.experiment import _TraceSink
from prism.vault import UserToken

TAGS = ("en", "fr", "de")


def reference_report(goal, roster, groups, coaches, user, epoch, dwell, user_tags):
    """Feasibility one group at a time, from the group objects and a recount."""
    current = roster.group_id(user)
    if current is not None and epoch - roster.last_change[user] < dwell:
        return {gid: ([] if gid == current else ["dwell_lock"]) for gid in roster.group_ids}
    seated = roster.group_of[roster.group_of >= 0]
    count = np.bincount(seated, minlength=len(roster.group_ids))
    coach_of = {gid: groups[gid].coach_id for gid in roster.group_ids}
    load = {cid: 0 for cid in coaches}
    for g in seated.tolist():
        load[coach_of[roster.group_ids[g]]] += 1
    own_coach = coach_of[current] if current is not None else None
    report = {}
    for g, gid in enumerate(roster.group_ids):
        group = groups[gid]
        reasons = []
        if group.goal_category != goal:
            reasons.append("goal_mismatch")
        if not group.active:
            reasons.append("inactive")
        if user_tags and group.language_tags and not (user_tags & group.language_tags):
            reasons.append("language_mismatch")
        if count[g] - (gid == current) >= group.capacity:
            reasons.append("capacity_full")
        if load[group.coach_id] - (group.coach_id == own_coach) >= coaches[group.coach_id].load_limit:
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
def worlds(draw):
    """Groups, coaches and a roster with some users seated at random epochs."""
    n_coaches = draw(st.integers(1, 3))
    specs = draw(
        st.lists(
            st.tuples(
                st.integers(1, 4),
                st.sampled_from(GOAL_CATEGORIES),
                st.booleans(),
                st.frozensets(st.sampled_from(TAGS)),
                st.integers(0, n_coaches - 1),
            ),
            min_size=1, max_size=8,
        )
    )
    groups = {
        f"g{i:03d}": GroupState(
            group_id=f"g{i:03d}", coach_id=f"c{coach:02d}", capacity=capacity,
            goal_category=goal, active=active, language_tags=tags,
        )
        for i, (capacity, goal, active, tags, coach) in enumerate(specs)
    }
    coaches = {
        f"c{c:02d}": CoachState(f"c{c:02d}", load_limit=draw(st.integers(1, 6)))
        for c in range(n_coaches)
    }
    n_users = draw(st.integers(1, 12))
    roster = Roster(groups, coaches, [f"{u:02x}" * 32 for u in range(n_users)])
    for u in range(n_users):
        seat = draw(st.one_of(st.none(), st.tuples(st.integers(0, len(groups) - 1), st.integers(0, 10))))
        if seat is not None:
            try:
                roster.move(u, seat[0], seat[1], dwell=0)
            except ConstraintViolationError:
                pass
    return groups, coaches, roster


def context_for(user, goal_onehot, rng=None, streak=0, slope=0.0):
    numeric = rng.random(5) if rng is not None else np.full(5, 0.5)
    return LearningContext(
        user_token=UserToken(f"{user:02x}" * 32),
        epoch=0,
        numeric_features=numeric,
        categorical_features=goal_onehot,
        missed_checkin_streak=streak,
        engagement_slope=slope,
    )


goal_vectors = st.one_of(
    st.sampled_from([np.eye(len(GOAL_CATEGORIES))[g] for g in range(len(GOAL_CATEGORIES))]),
    st.just(np.zeros(len(GOAL_CATEGORIES))),  # no goal
)


@settings(max_examples=150, deadline=None)
@given(
    world=worlds(),
    queries=st.lists(
        st.tuples(
            st.integers(0, 11), goal_vectors, st.integers(0, 15), st.integers(0, 4),
            st.frozensets(st.sampled_from(TAGS + ("xx",))),
        ),
        min_size=1, max_size=6,
    ),
)
def test_feasibility_report_matches_per_group_rules(world, queries):
    groups, coaches, roster = world
    for user, onehot, epoch, dwell, user_tags in queries:
        user %= len(roster.row_of)
        context = context_for(user, onehot)
        config = PolicyConfig(dwell=dwell, oscillation=dwell)
        report = feasibility_report(context, roster, epoch, config, user_tags)
        expected = reference_report(
            context.goal_category, roster, groups, coaches, user, epoch, dwell, user_tags
        )
        assert list(report) == list(expected)
        assert list(report.values()) == list(expected.values())
        assert dict(report.items()) == expected
        assert len(report) == len(expected)


@settings(max_examples=150, deadline=None)
@given(
    world=worlds(),
    onehot=st.one_of(goal_vectors, st.lists(st.floats(0, 1), min_size=4, max_size=4).map(np.array)),
    streak=st.integers(0, 40),
    slope=st.floats(-5, 5) | st.sampled_from([-1.0, 1.0, -0.0]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_joint_feature_rows_match_per_candidate_map(world, onehot, streak, slope, seed, data):
    groups, _, roster = world
    context = context_for(0, onehot, np.random.default_rng(seed), streak, slope)
    rows = np.array(
        data.draw(st.lists(st.integers(0, len(groups) - 1), min_size=1, max_size=8)),
        dtype=np.int64,
    )
    engagement = data.draw(
        st.none()
        | st.lists(st.floats(-1, 2), min_size=len(groups), max_size=len(groups)).map(np.array)
    )
    phi = joint_features(context, roster, rows, engagement)
    assert phi.shape == (rows.size, FEATURE_DIM)
    for i, row in enumerate(rows.tolist()):
        expected = reference_features(
            context,
            groups[roster.group_ids[row]].goal_category,
            roster.count[row] / roster.capacity[row],
            0.5 if engagement is None else engagement[row],
        )
        assert np.array_equal(phi[i], expected)


# -- trace lines ---------------------------------------------------------------

SPECIAL_FLOATS = [-0.0, 0.0, 1e-05, 1e16, 1.5e-300, -2.5, float("nan"), float("inf")]
floats = st.sampled_from(SPECIAL_FLOATS) | st.floats()
group_ids = st.lists(
    st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=6)
    | st.sampled_from(['g"1', "g\\2", "gé", "g☃", "g\n"]),
    min_size=1, max_size=8, unique=True,
)


def decision_with(group_ids, codes, draw_score, chosen, changed, epoch=5, token="t0"):
    codes = np.asarray(codes, dtype=np.int64)
    rows = np.flatnonzero(codes == 0)
    scores = None
    if rows.size:
        draw = lambda: np.array([draw_score() for _ in rows.tolist()], dtype=float)
        scores = CandidateScores(mu=draw(), sigma=draw(), penalty=rows % 2, score=draw())
    return AssignmentDecision(
        epoch=epoch, user_token=token, group_ids=group_ids, reason_codes=codes,
        scores=scores, chosen=chosen, changed=changed, waitlisted=chosen is None,
    )


def assert_encodes_like_reference(sink, decision):
    assert sink.encode(decision) == json.dumps(trace_dict(decision), sort_keys=True)


@settings(max_examples=200, deadline=None)
@given(
    ids=group_ids,
    data=st.data(),
    n_decisions=st.integers(1, 4),
)
def test_trace_line_matches_reference_dump(ids, data, n_decisions):
    sink = _TraceSink(None, ids)
    draw_score = lambda: data.draw(floats)
    for _ in range(n_decisions):
        kind = data.draw(st.sampled_from(["any", "dwell", "waitlisted"]))
        if kind == "dwell":
            current = data.draw(st.integers(0, len(ids) - 1))
            codes = [0 if g == current else CODE_DWELL for g in range(len(ids))]
            chosen = ids[current]
        elif kind == "waitlisted":
            codes = data.draw(st.lists(st.integers(1, N_REASON_CODES - 1), min_size=len(ids), max_size=len(ids)))
            chosen = None
        else:
            codes = data.draw(st.lists(st.integers(0, N_REASON_CODES - 1), min_size=len(ids), max_size=len(ids)))
            chosen = data.draw(st.sampled_from(ids))
        decision = decision_with(
            ids, codes, draw_score, chosen, data.draw(st.booleans()),
            epoch=data.draw(st.integers(0, 10**6)), token=data.draw(st.text(max_size=8)),
        )
        assert_encodes_like_reference(sink, decision)


def test_trace_line_covers_every_reason_code():
    ids = [f"g{c:02d}" for c in range(N_REASON_CODES)]
    sink = _TraceSink(None, ids)
    values = iter(SPECIAL_FLOATS * 3)
    decision = decision_with(ids, range(N_REASON_CODES), lambda: next(values), "g00", True)
    for _ in range(2):  # the second pass finds the shared table unchanged
        assert_encodes_like_reference(sink, decision)
    line = json.loads(sink.encode(decision))
    assert [c["reasons"] for c in line["candidates"]][1:] == [
        c["reasons"] for c in trace_dict(decision)["candidates"][1:]
    ]
    assert line["candidates"][N_REASON_CODES - 1]["reasons"] == ["dwell_lock"]
    assert line["candidates"][31]["reasons"] == [
        "goal_mismatch", "inactive", "language_mismatch", "capacity_full", "coach_load_full",
    ]


def test_sink_writes_encoded_lines_and_keeps_reference_dicts(tmp_path):
    # The lines on disk are the reference dicts, encoded.
    ids = ["g000", "g001", "g002"]
    path = tmp_path / "traces.jsonl"
    sink = _TraceSink(str(path), ids)
    decisions = [
        decision_with(ids, [1, 0, 8], lambda: 0.25, "g001", True),
        decision_with(ids, [CODE_DWELL, CODE_DWELL, 0], lambda: -0.0, "g002", False),
        decision_with(ids, [1, 3, 24], lambda: 1e16, None, False),
    ]
    for decision in decisions:
        sink.write(decision)
    sink.close()
    assert path.read_text(encoding="utf-8").splitlines() == [
        json.dumps(trace_dict(d), sort_keys=True) for d in decisions
    ]
