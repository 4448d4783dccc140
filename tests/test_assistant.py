"""Assistant tests: risk flags, bounded templating, leak-gated review."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import goal_onehot

from prism.assistant import (
    DECLINE_THRESHOLD,
    STREAK_THRESHOLD,
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
from prism.features import ContextBatch, LearningContext
from prism.redaction import ScanMemo, _rehydrate_deid, default_rules, redact
from prism.simulator.scenario import synth_identity, synth_message
from prism.vault import UserToken

TOKEN = UserToken("ee" * 32)
# The draft id and creation time every generated draft takes from its caller.
STAMP = {"draft_id": "d-7-09-0001", "created_at": "2025-03-10T00:00:00.000000+00:00"}


def make_context(streak=0, slope=0.0):
    return LearningContext(
        user_token=TOKEN,
        epoch=9,
        numeric_features=np.array([0.4, 0.3, 0.5, 0.2, 0.0]),
        categorical_features=goal_onehot("fitness"),
        missed_checkin_streak=streak,
        engagement_slope=slope,
    )


class TestRiskFlags:
    def test_healthy_user_no_flags(self):
        assert flag_risks(make_context(streak=0, slope=0.1)) == []

    def test_missed_streak_flag(self):
        flags = flag_risks(make_context(streak=7))
        assert [(f.user_token, f.kind) for f in flags] == [(TOKEN.value, "missed_streak")]
        # The streak threshold is inclusive.
        assert [f.kind for f in flag_risks(make_context(streak=STREAK_THRESHOLD))] == ["missed_streak"]
        assert flag_risks(make_context(streak=STREAK_THRESHOLD - 1)) == []

    def test_engagement_decline_flag(self):
        flags = flag_risks(make_context(slope=-0.1))
        assert [(f.user_token, f.kind) for f in flags] == [(TOKEN.value, "engagement_decline")]
        # Both signals flag, streak first.
        both = flag_risks(make_context(streak=STREAK_THRESHOLD, slope=-DECLINE_THRESHOLD))
        assert [f.kind for f in both] == ["missed_streak", "engagement_decline"]

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
        assert mask.tolist() == [bool(flag_risks(batch[u])) for u in range(n)]


class TestTemplateLint:
    def test_clinical_language_rejected(self):
        with pytest.raises(ValidationError):
            DraftTemplate("t", "reengagement", "we prescribe a stricter plan: {summary}")

    def test_identity_slot_rejected(self):
        with pytest.raises(ValidationError):
            DraftTemplate("t", "reengagement", "hi {name}, {summary}")

    def test_unknown_category_rejected(self):
        with pytest.raises(ValidationError):
            DraftTemplate("t", "marketing", "{summary}")

    def test_default_templates_pass_lint(self):
        templates = default_templates()
        assert {t.category for t in templates.values()} <= {
            "reengagement", "milestone", "checkin_reminder"
        }


class TestGenerateDraft:
    def test_render_includes_streak_value(self):
        summary = redact("missed 5 recent check-ins", TOKEN)
        draft = generate_draft(
            summary, make_context(streak=5), default_templates()["reengage-streak"], **STAMP
        )
        assert "missed 5 recent check-ins" in draft.rendered_text
        assert draft.status == "pending"
        assert draft.user_token == TOKEN.value
        # no unexpected bracketed placeholders beyond template punctuation
        assert "[EMAIL]" not in draft.rendered_text

    def test_raw_string_summary_rejected(self):
        with pytest.raises(ValidationError):
            generate_draft(  # type: ignore[arg-type]
                "raw text", make_context(), default_templates()["reengage-streak"], **STAMP
            )

    def test_injected_identifier_fails_closed(self):
        # Bypass the constructor guard via the trusted-path hook to model an
        # upstream failure; generation must still refuse to emit.
        poisoned = _rehydrate_deid("reach me at bob@x.org", TOKEN)
        with pytest.raises(LeakageError) as err:
            generate_draft(poisoned, make_context(), default_templates()["reengage-streak"], **STAMP)
        assert "bob@x.org" not in str(err.value)

    def test_missing_slot_value_rejected(self):
        template = DraftTemplate("t", "milestone", "{summary} and {unknown_slot}")
        summary = redact("great week", TOKEN)
        with pytest.raises(ValidationError):
            generate_draft(summary, make_context(), template, **STAMP)

    def test_deterministic_rendering(self):
        summary = redact("missed 3 recent check-ins", TOKEN)
        template = default_templates()["reengage-streak"]
        a = generate_draft(summary, make_context(streak=3), template, **STAMP)
        b = generate_draft(summary, make_context(streak=3), template, **STAMP)
        assert a.rendered_text == b.rendered_text
        assert (a.draft_id, a.created_at) == (STAMP["draft_id"], STAMP["created_at"])


# Raw posts that self-disclose an identifier: every message variant but the
# first two.
_LEAKY_TEXTS = st.builds(
    synth_message,
    st.integers(2, 9),
    st.builds(synth_identity, st.integers(0, 2**32 - 1).map(np.random.default_rng), st.integers(0, 999)),
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
                generate_draft(poisoned, make_context(), template, rules=memo.rules, memo=memo, **STAMP)
            assert generate_draft(clean, make_context(), template, rules=memo.rules, memo=memo, **STAMP)

    @settings(max_examples=50, deadline=None)
    @given(text=_LEAKY_TEXTS, uses=st.integers(1, 4))
    def test_every_leaky_edit_fails(self, text, uses):
        memo = ScanMemo(default_rules())
        summary = redact("missed 4 recent check-ins", TOKEN, memo.rules, memo=memo)
        draft = generate_draft(
            summary, make_context(streak=4), default_templates()["reengage-streak"], **STAMP
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
            summary, make_context(streak=4), default_templates()["reengage-streak"], **STAMP
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
                summary, make_context(), default_templates()["reengage-streak"],
                rules=form(default_rules()), **STAMP,
            )

    def test_jsonl_round_trip(self, tmp_path):
        drafts = [self._pending(), review(self._pending(), "c", "approve")]
        path = str(tmp_path / "drafts.jsonl")
        save_drafts(drafts, path)
        loaded = load_drafts(path)
        assert [d.status for d in loaded] == ["pending", "approved"]
        assert loaded[0].rendered_text == drafts[0].rendered_text
