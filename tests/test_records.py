"""Records read back what they write: ``from_dict`` inverts ``to_dict``
through JSON text, for every value a field may hold."""

import json
import math
from collections.abc import Mapping
from typing import Optional, Union, get_args, get_origin

import pytest
from hypothesis import given
from hypothesis import strategies as st

from prism.assignment import PolicyConfig
from prism.assistant import DRAFT_STATUSES, Draft
from prism.metrics import MetricsReport
from prism.records import Record, field_value
from prism.redaction import LeakReport
from prism.simulator import POLICIES, Scenario
from prism.simulator.scenario import MAX_USER_WEEKS

INT64 = st.integers(-(2**63), 2**63 - 1)
NUMBERS = st.floats(allow_nan=False, allow_infinity=False) | INT64
JSON_SCALARS = st.none() | st.booleans() | st.text(max_size=5) | NUMBERS


@st.composite
def scenarios(draw):
    # Scenario bounds n_users * horizon_weeks by MAX_USER_WEEKS.
    w_pre, w_post = (draw(st.integers(1, MAX_USER_WEEKS // 2)) for _ in range(2))
    horizon_weeks = draw(st.integers(w_pre + w_post, MAX_USER_WEEKS))
    capacity_min = draw(st.integers(1, 2**62))
    return Scenario(
        name=draw(st.text(max_size=8)),
        seed=draw(st.integers(0, 2**63 - 1)),
        policy=draw(st.sampled_from(POLICIES)),
        n_users=draw(st.integers(1, MAX_USER_WEEKS // horizon_weeks)),
        capacity_min=capacity_min,
        capacity_max=draw(st.integers(capacity_min, 2**63 - 1)),
        horizon_weeks=horizon_weeks,
        w_pre=w_pre,
        w_post=w_post,
        goal_weights=tuple(draw(st.permutations((0.1, 0.2, 0.3, 0.4)))),
        # Non-negative, one positive, and within the Poisson draw's limit
        # at the default match bonus of 0.5.
        engagement_rate_means=tuple(draw(
            st.lists(st.floats(0.0, 400.0) | st.integers(0, 400), min_size=5, max_size=5)
            .filter(lambda rates: max(rates) > 0)
        )),
        base_logit_mean=draw(NUMBERS),
        message_prob=draw(st.floats(0.0, 1.0) | st.integers(0, 1)),
    )


@st.composite
def policies(draw):
    # PolicyConfig bounds its real-valued knobs; both ends are accepted.
    dwell = draw(st.integers(0, 2**62))
    weights = st.floats(0.0, 1e6) | st.integers(0, 10**6)
    return PolicyConfig(
        w_adh=draw(weights),
        w_eng=draw(weights),
        lam=draw(weights),
        dwell=dwell,
        oscillation=draw(st.integers(dwell, 2**63 - 1)),
        beta=draw(weights),
        ridge=draw(st.floats(1e-4, 1e8) | st.integers(1, 10**8)),
    )


leak_reports = st.builds(
    LeakReport,
    n_samples=INT64,
    n_hits=INT64,
    leak_rate=NUMBERS,
    hit_examples_by_type=st.dictionaries(st.text(max_size=6), st.lists(INT64, max_size=3).map(tuple)),
)

metrics_reports = st.builds(
    MetricsReport,
    arm=st.text(max_size=8),
    seed=INT64,
    scenario_name=st.text(max_size=8),
    horizon_weeks=INT64,
    w_pre=INT64,
    w_post=INT64,
    adherence_pre=NUMBERS,
    adherence_post=NUMBERS,
    eng_index=NUMBERS,
    weekly_scores_pre=st.lists(NUMBERS, max_size=4),
    weekly_scores_post=st.lists(NUMBERS, max_size=4),
    reassignments=INT64,
    violations=INT64,
    leak=leak_reports,
    weight_delta_mean=NUMBERS,
    decisions=INT64,
    governance=st.dictionaries(st.text(max_size=6), JSON_SCALARS, max_size=3),
    assistant=st.dictionaries(st.text(max_size=6), JSON_SCALARS, max_size=3),
)

optional_text = st.none() | st.text(max_size=8)
drafts = st.builds(
    Draft,
    draft_id=st.text(max_size=8),
    user_token=st.text(max_size=8),
    template_id=st.text(max_size=8),
    rendered_text=st.text(),
    status=st.sampled_from(sorted(DRAFT_STATUSES)),
    reviewer_id=optional_text,
    created_at=optional_text,
    decided_at=optional_text,
)


@pytest.mark.parametrize(
    "records",
    [scenarios(), policies(), leak_reports, metrics_reports, drafts],
    ids=["Scenario", "PolicyConfig", "LeakReport", "MetricsReport", "Draft"],
)
@given(data=st.data())
def test_from_dict_inverts_to_dict_through_json(records, data):
    record = data.draw(records)
    doc = json.loads(json.dumps(record.to_dict()))
    assert type(record).from_dict(doc) == record


def reference_field_value(kind, value):
    """``field_value`` with every array element dispatched on its own: the
    reference for the one-loop check of number arrays."""
    origin, args = get_origin(kind), get_args(kind)
    if origin is Union:
        return None if value is None else reference_field_value(args[0], value)
    if origin in (tuple, list):
        if isinstance(value, (tuple, list)):
            return origin(reference_field_value(args[0], item) for item in value)
    elif origin is Mapping:
        if isinstance(value, dict) and all(isinstance(key, str) for key in value):
            return {key: reference_field_value(args[1], item) for key, item in value.items()}
    elif issubclass(kind, Record) and isinstance(value, dict):
        return kind.from_dict(value)
    elif kind is float:
        if _is_int64(value) or (isinstance(value, float) and math.isfinite(value)):
            return value
    elif kind is int:
        if _is_int64(value):
            return value
    elif isinstance(value, kind):
        return value
    raise ValueError(f"not a {kind}")


def _is_int64(value):
    return isinstance(value, int) and not isinstance(value, bool) and -(2**63) <= value < 2**63


def _outcome(read, kind, value):
    try:
        held = read(kind, value)
    except ValueError as exc:
        return "ValueError", str(exc)
    return type(held), json.dumps(held)


# JSON values with the elements a number array must reject: bools, ints
# past int64, NaN and the infinities.
_ELEMENTS = st.one_of(
    st.floats(), st.integers(-(2**64), 2**64), st.booleans(), st.none(), st.text(max_size=2),
    st.sampled_from([math.nan, math.inf, -math.inf, 2**63, -(2**63) - 1, True, 0, -0.0]),
)
_JSON = st.recursive(
    _ELEMENTS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=12,
)
_KINDS = [
    list[float], tuple[float, ...], list[int], tuple[int, ...], Optional[tuple[float, ...]],
    Mapping[str, tuple[int, ...]], list[str], tuple[bool, ...], list[list[float]],
]


@pytest.mark.parametrize("kind", _KINDS, ids=str)
@given(value=_JSON | st.lists(_ELEMENTS, max_size=8) | st.lists(st.floats(allow_nan=False), max_size=8))
def test_field_value_equals_per_element_reference(kind, value):
    assert _outcome(field_value, kind, value) == _outcome(reference_field_value, kind, value)
