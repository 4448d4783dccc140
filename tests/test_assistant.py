"""Assistant tests: risk flags, bounded templating, leak-gated review."""

import json
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import identity_at

from prism.assistant import (
    DECLINE_THRESHOLD,
    DRAFT_STATUSES,
    STREAK_THRESHOLD,
    Draft,
    DraftTemplate,
    default_templates,
    flag_risks,
    generate_draft,
    review,
    risk_mask,
    save_drafts,
    load_drafts,
)
from prism.errors import LeakageError, StateError, ValidationError
from prism.features import GOAL_CATEGORIES, ContextBatch
from prism.redaction import ScanMemo, _rehydrate_deid, default_rules, redact
from prism.simulator.scenario import synth_message
from prism.vault import UserToken

TOKEN = UserToken("ee" * 32)
# The draft id and creation time every generated draft takes from its caller.
STAMP = {"draft_id": "d-7-09-0001", "created_at": "2025-03-10T00:00:00.000000+00:00"}


def make_context(streak=0, slope=0.0):
    """A one-row batch: the context of one user at epoch 9."""
    return ContextBatch(
        user_tokens=[TOKEN],
        epoch=9,
        numeric=[[0.4, 0.3, 0.5, 0.2, 0.0]],
        goal=[GOAL_CATEGORIES.index("fitness")],
        streak=[streak],
        slope=[slope],
    )


class TestRiskFlags:
    def test_healthy_user_no_flags(self):
        assert flag_risks(make_context(streak=0, slope=0.1), 0) == []

    def test_missed_streak_flag(self):
        assert flag_risks(make_context(streak=7), 0) == ["missed_streak"]
        # The streak threshold is inclusive.
        assert flag_risks(make_context(streak=STREAK_THRESHOLD), 0) == ["missed_streak"]
        assert flag_risks(make_context(streak=STREAK_THRESHOLD - 1), 0) == []

    def test_engagement_decline_flag(self):
        assert flag_risks(make_context(slope=-0.1), 0) == ["engagement_decline"]
        # Both signals flag, streak first.
        both = flag_risks(make_context(streak=STREAK_THRESHOLD, slope=-DECLINE_THRESHOLD), 0)
        assert both == ["missed_streak", "engagement_decline"]

    @pytest.mark.parametrize("row", [-1, 1, True, 0.0, np.int64(0), None])
    def test_row_outside_the_batch_rejected(self, row):
        # A negative row must not wrap to the last one.
        with pytest.raises(ValidationError):
            flag_risks(make_context(streak=7), row)
        with pytest.raises(ValidationError):
            generate_draft(
                redact("great week", TOKEN), make_context(), row,
                default_templates()["reengage-streak"], **STAMP,
            )

    def test_a_context_must_be_a_batch(self):
        with pytest.raises(ValidationError):
            flag_risks({"streak": [7], "slope": [0.0]}, 0)
        with pytest.raises(ValidationError):
            generate_draft(
                redact("great week", TOKEN), None, 0, default_templates()["reengage-streak"], **STAMP
            )

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 12))
    def test_risk_mask_flags_the_rows_flag_risks_flags(self, data, n):
        edge = -DECLINE_THRESHOLD
        streaks = st.integers(0, 3 * STREAK_THRESHOLD) | st.integers(0, 2**62)
        slopes = st.floats(-1e300, 1e300) | st.sampled_from(
            [edge, np.nextafter(edge, 0.0), np.nextafter(edge, -1.0), -0.0, 0.0]
        )
        batch = ContextBatch(
            user_tokens=[TOKEN] * n,
            epoch=9,
            numeric=np.full((n, 5), 0.5),
            goal=np.zeros(n, dtype=np.int64),
            streak=data.draw(st.lists(streaks, min_size=n, max_size=n)),
            slope=data.draw(st.lists(slopes, min_size=n, max_size=n)),
        )
        mask = risk_mask(batch)
        assert mask.dtype == bool
        assert mask.tolist() == [bool(flag_risks(batch, u)) for u in range(n)]


class TestTemplateLint:
    def test_clinical_language_rejected(self):
        with pytest.raises(ValidationError):
            DraftTemplate("t", "we prescribe a stricter plan: {summary}")

    def test_identity_slot_rejected(self):
        with pytest.raises(ValidationError):
            DraftTemplate("t", "hi {name}, {summary}")

    def test_default_templates_pass_lint(self):
        templates = default_templates()
        assert sorted(templates) == ["milestone-cheer", "reengage-decline", "reengage-streak"]
        assert all(t.template_id == key for key, t in templates.items())


class TestGenerateDraft:
    def test_render_includes_streak_value(self):
        summary = redact("missed 5 recent check-ins", TOKEN)
        draft = generate_draft(
            summary, make_context(streak=5), 0, default_templates()["reengage-streak"], **STAMP
        )
        assert "missed 5 recent check-ins" in draft.rendered_text
        assert draft.status == "pending"
        assert draft.user_token == TOKEN.value
        # no unexpected bracketed placeholders beyond template punctuation
        assert "[EMAIL]" not in draft.rendered_text

    def test_raw_string_summary_rejected(self):
        with pytest.raises(ValidationError):
            generate_draft(  # type: ignore[arg-type]
                "raw text", make_context(), 0, default_templates()["reengage-streak"], **STAMP
            )

    def test_injected_identifier_fails_closed(self):
        # Bypass the constructor guard via the trusted-path hook to model an
        # upstream failure; generation must still refuse to emit.
        poisoned = _rehydrate_deid("reach me at bob@x.org", TOKEN)
        with pytest.raises(LeakageError) as err:
            generate_draft(poisoned, make_context(), 0, default_templates()["reengage-streak"], **STAMP)
        assert "bob@x.org" not in str(err.value)

    def test_missing_slot_value_rejected(self):
        template = DraftTemplate("t", "{summary} and {unknown_slot}")
        summary = redact("great week", TOKEN)
        with pytest.raises(ValidationError):
            generate_draft(summary, make_context(), 0, template, **STAMP)

    def test_deterministic_rendering(self):
        summary = redact("missed 3 recent check-ins", TOKEN)
        template = default_templates()["reengage-streak"]
        a = generate_draft(summary, make_context(streak=3), 0, template, **STAMP)
        b = generate_draft(summary, make_context(streak=3), 0, template, **STAMP)
        assert a.rendered_text == b.rendered_text
        assert (a.draft_id, a.created_at) == (STAMP["draft_id"], STAMP["created_at"])


# Raw posts that self-disclose an identifier: every message variant but the
# first two.
_LEAKY_TEXTS = st.builds(
    synth_message,
    st.integers(2, 9),
    st.builds(identity_at, st.integers(0, 2**32 - 1).map(np.random.default_rng), st.integers(0, 999)),
    st.integers(0, 10**8 - 1),
    st.integers(0, 9999),
    st.integers(0, 9999),
)


class TestLeakChecksThroughOneMemo:
    @settings(max_examples=50, deadline=None)
    @given(text=_LEAKY_TEXTS, uses=st.integers(1, 4))
    def test_every_use_of_a_leaky_draft_fails(self, text, uses):
        memo = ScanMemo(default_rules())
        clean = redact("missed 4 recent check-ins", TOKEN, memo.rules, memo=memo)
        poisoned = _rehydrate_deid(text, TOKEN)
        template = default_templates()["reengage-streak"]
        for _ in range(uses):
            with pytest.raises(LeakageError):
                generate_draft(poisoned, make_context(), 0, template, rules=memo.rules, memo=memo, **STAMP)
            assert generate_draft(clean, make_context(), 0, template, rules=memo.rules, memo=memo, **STAMP)

    @settings(max_examples=50, deadline=None)
    @given(text=_LEAKY_TEXTS, uses=st.integers(1, 4))
    def test_every_leaky_edit_fails(self, text, uses):
        memo = ScanMemo(default_rules())
        summary = redact("missed 4 recent check-ins", TOKEN, memo.rules, memo=memo)
        draft = generate_draft(
            summary, make_context(streak=4), 0, default_templates()["reengage-streak"], **STAMP
        )
        for _ in range(uses):
            with pytest.raises(LeakageError):
                review(draft, "coach-1", "edit", new_text=text, rules=memo.rules, memo=memo)
            assert draft.status == "pending" and draft.rendered_text != text
        review(draft, "coach-1", "edit", new_text="one small goal", rules=memo.rules, memo=memo)
        assert draft.status == "edited"


class TestReview:
    def _pending(self):
        summary = redact("missed 4 recent check-ins", TOKEN)
        return generate_draft(
            summary, make_context(streak=4), 0, default_templates()["reengage-streak"], **STAMP
        )

    def test_approve(self):
        draft = review(self._pending(), "coach-1", "approve")
        assert draft.status == "approved"
        assert draft.reviewer_id == "coach-1"

    def test_discard_is_terminal(self):
        draft = review(self._pending(), "coach-1", "discard")
        assert draft.status == "discarded"
        with pytest.raises(StateError):
            review(draft, "coach-2", "approve")

    def test_edit_rescans_text(self):
        draft = self._pending()
        with pytest.raises(LeakageError):
            review(draft, "coach-1", "edit", new_text="call me at 613-555-0142")
        assert draft.status == "pending"  # unchanged by the rejected edit
        review(draft, "coach-1", "edit", new_text="let's restart with one small goal")
        assert draft.status == "edited"

    def test_double_decision_first_wins(self):
        draft = self._pending()
        review(draft, "coach-1", "approve")
        with pytest.raises(StateError):
            review(draft, "coach-2", "discard")
        assert draft.status == "approved"
        assert draft.reviewer_id == "coach-1"

    def test_edit_requires_text(self):
        with pytest.raises(ValidationError):
            review(self._pending(), "coach-1", "edit")

    def test_unknown_decision_rejected(self):
        with pytest.raises(ValidationError):
            review(self._pending(), "coach-1", "postpone")

    @pytest.mark.parametrize("form", [tuple, list])
    @pytest.mark.parametrize("decision", ["approve", "edit", "discard"])
    def test_plain_rule_sequence_rejected(self, form, decision):
        draft = self._pending()
        with pytest.raises(ValidationError, match="RuleSet"):
            review(draft, "coach-1", decision, new_text="one small goal", rules=form(default_rules()))
        assert draft.status == "pending"
        summary = redact("missed 4 recent check-ins", TOKEN)
        with pytest.raises(ValidationError, match="RuleSet"):
            generate_draft(
                summary, make_context(), 0, default_templates()["reengage-streak"],
                rules=form(default_rules()), **STAMP,
            )

    def test_jsonl_round_trip(self, tmp_path):
        drafts = [self._pending(), review(self._pending(), "c", "approve")]
        path = str(tmp_path / "drafts.jsonl")
        save_drafts(drafts, path)
        loaded = load_drafts(path)
        assert [d.status for d in loaded] == ["pending", "approved"]
        assert loaded[0].rendered_text == drafts[0].rendered_text


# Text json.dumps must escape: non-ASCII, quotes, backslashes, control
# characters and lone surrogates.
_DRAFT_TEXT = (
    st.text()
    | st.text(st.characters(exclude_categories=()))
    | st.text(st.sampled_from('"\\/\x00\x1f\x7f\u2028\ud800\udfff\u00e9\U0001f600 a'))
)
# Values json.dumps writes but save_drafts leaves to it: not a str or None.
_NOT_TEXT = (
    st.integers()
    | st.floats()
    | st.booleans()
    | st.lists(st.integers(), max_size=2)
    | st.dictionaries(st.text(max_size=3), st.integers(), max_size=2)
)
_DRAFT_FIELD_NAMES = [f.name for f in fields(Draft)]


class TestSaveDrafts:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n=st.integers(0, 6))
    def test_lines_equal_json_dumps(self, tmp_path_factory, data, n):
        # Values drawn from a small pool repeat within and across drafts.
        pool = data.draw(st.lists(_DRAFT_TEXT, min_size=1, max_size=4))
        value = st.none() | st.sampled_from(pool) | _DRAFT_TEXT
        drafts = []
        for _ in range(n):
            draft = Draft(
                **{name: data.draw(value) for name in _DRAFT_FIELD_NAMES if name != "status"},
                status=data.draw(st.sampled_from(sorted(DRAFT_STATUSES))),
            )
            if data.draw(st.integers(0, 3)) == 0:
                setattr(draft, data.draw(st.sampled_from(_DRAFT_FIELD_NAMES)), data.draw(_NOT_TEXT))
            drafts.append(draft)
        path = tmp_path_factory.mktemp("drafts") / "drafts.jsonl"
        save_drafts(drafts, str(path))
        expected = "".join(json.dumps(d.to_dict(), sort_keys=True) + "\n" for d in drafts)
        assert path.read_bytes() == expected.encode("utf-8")
