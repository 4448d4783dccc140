"""Template-based coaching drafts with a mandatory review gate.

Draft generation is deterministic slot substitution over de-identified
inputs only: the summary slot accepts nothing but ``DeidText`` and every
rendered or edited draft is re-scanned with the redaction rules before
it can move forward. Nothing is deliverable until a reviewer approves or
edits it; terminal decisions are immutable and the first decision wins.
"""

from __future__ import annotations

import json
import logging
import threading
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .errors import LeakageError, StateError, ValidationError
from .features import ContextBatch, LearningContext
from .records import Record, field_names
from .redaction import DeidText, RuleSet, ScanMemo, _rule_set, scan_for_identifiers

logger = logging.getLogger(__name__)

TEMPLATE_CATEGORIES = ("reengagement", "milestone", "checkin_reminder")

# Lint list: templates must never steer toward clinical instructions.
PROHIBITED_CLINICAL_TERMS = ("diagnose", "diagnosis", "prescribe", "prescription", "dosage")

# Slot names that would smuggle identity back into a rendered draft.
IDENTITY_SLOT_NAMES = frozenset(
    {"name", "first_name", "last_name", "full_name", "email", "phone", "address", "dob"}
)

DRAFT_PENDING = "pending"
DRAFT_APPROVED = "approved"
DRAFT_EDITED = "edited"
DRAFT_DISCARDED = "discarded"
TERMINAL_STATUSES = frozenset({DRAFT_APPROVED, DRAFT_EDITED, DRAFT_DISCARDED})
DELIVERABLE_STATUSES = frozenset({DRAFT_APPROVED, DRAFT_EDITED})
DRAFT_STATUSES = TERMINAL_STATUSES | {DRAFT_PENDING}


def _slot_names(body: str) -> list[str]:
    import string

    return [fname for _, fname, _, _ in string.Formatter().parse(body) if fname]


@dataclass(frozen=True)
class DraftTemplate:
    """Message template with named slots; linted at construction."""

    template_id: str
    category: str
    body: str

    def __post_init__(self) -> None:
        if self.category not in TEMPLATE_CATEGORIES:
            raise ValidationError(f"unknown template category: {self.category!r}")
        lowered = self.body.lower()
        for term in PROHIBITED_CLINICAL_TERMS:
            if term in lowered:
                raise ValidationError(
                    f"template {self.template_id} contains prohibited clinical term {term!r}"
                )
        for slot in _slot_names(self.body):
            if slot.lower() in IDENTITY_SLOT_NAMES:
                raise ValidationError(
                    f"template {self.template_id} declares identity slot {slot!r}"
                )


def default_templates() -> dict[str, DraftTemplate]:
    templates = (
        DraftTemplate(
            template_id="reengage-streak",
            category="reengagement",
            body=(
                "Quick nudge from your coach: {summary} "
                "A single check-in today gets the streak restarted. "
                "Anything blocking you this week?"
            ),
        ),
        DraftTemplate(
            template_id="reengage-decline",
            category="checkin_reminder",
            body=(
                "We noticed things slowed down recently ({summary}). "
                "Want to pick one small goal together for week {epoch}?"
            ),
        ),
        DraftTemplate(
            template_id="milestone-cheer",
            category="milestone",
            body=(
                "Great momentum: {summary} Keep the daily check-ins coming; "
                "your group is cheering for you."
            ),
        ),
    )
    return {t.template_id: t for t in templates}


@dataclass
class Draft(Record):
    """One generated message moving through the review workflow."""

    draft_id: str
    user_token: str
    template_id: str
    rendered_text: str
    status: str = DRAFT_PENDING
    reviewer_id: Optional[str] = None
    created_at: Optional[str] = None
    decided_at: Optional[str] = None

    def __post_init__(self) -> None:
        if self.status not in DRAFT_STATUSES:
            raise ValidationError(f"unknown draft status: {self.status!r}")

    def to_dict(self) -> dict:
        # Called once per draft written, and every field holds a string or
        # None, so no value needs the conversion Record.to_dict makes.
        return {name: getattr(self, name) for name in field_names(Draft)}


@dataclass(frozen=True)
class RiskFlag:
    """Disengagement signal surfaced to coaches: whose, and which kind."""

    user_token: str
    kind: str


STREAK_THRESHOLD = 3       # days
DECLINE_THRESHOLD = 0.05   # weekly-score drop per week


def flag_risks(context: LearningContext) -> list[RiskFlag]:
    """Fixed-threshold checks over the context's disengagement signals."""
    flags = []
    if context.missed_checkin_streak >= STREAK_THRESHOLD:
        flags.append(RiskFlag(user_token=context.user_token.value, kind="missed_streak"))
    if context.engagement_slope <= -DECLINE_THRESHOLD:
        flags.append(RiskFlag(user_token=context.user_token.value, kind="engagement_decline"))
    return flags


def risk_mask(contexts: ContextBatch) -> np.ndarray:
    """Which rows of ``contexts`` :func:`flag_risks` flags, as one bool
    per row, read from the batch's arrays with the same thresholds."""
    return (contexts.streak >= STREAK_THRESHOLD) | (contexts.slope <= -DECLINE_THRESHOLD)


def _leak_check(
    text: str, rules: Optional[RuleSet], where: str, memo: Optional[ScanMemo] = None
) -> None:
    spans = scan_for_identifiers(text, rules) if memo is None else memo.spans(text, rules)
    if spans:
        kinds = sorted({s.entity_type for s in spans})
        # Entity types only; never the matched text.
        raise LeakageError(f"{where} contains residual identifiers: {', '.join(kinds)}")


def generate_draft(
    summary: DeidText,
    context: LearningContext,
    template: DraftTemplate,
    *,
    draft_id: str,
    created_at: str,
    rules: Optional[RuleSet] = None,
    memo: Optional[ScanMemo] = None,
) -> Draft:
    """Render the pending draft ``draft_id``, created at ``created_at``,
    by deterministic slot substitution.

    The rendered text is re-scanned with the redaction rules (None means
    the default rules), through ``memo`` when one is given; any hit
    aborts with a leakage error instead of emitting the draft.
    """
    if not isinstance(summary, DeidText):
        raise ValidationError("summary must be a DeidText produced by the redaction pipeline")
    if not isinstance(context, LearningContext):
        raise ValidationError("context must be a LearningContext")
    slots = {
        "summary": summary.text,
        "missed_streak": context.missed_checkin_streak,
        "engagement_slope": f"{context.engagement_slope:+.2f}",
        "epoch": context.epoch,
    }
    slots.update(summary.cohort_metadata)
    try:
        rendered = template.body.format_map(slots)
    except KeyError as exc:
        raise ValidationError(f"template slot {exc} has no value") from exc
    _leak_check(rendered, rules, f"draft from template {template.template_id}", memo)
    return Draft(
        draft_id=draft_id,
        user_token=summary.source_user_token.value,
        template_id=template.template_id,
        rendered_text=rendered,
        created_at=created_at,
    )


_review_lock = threading.Lock()

REVIEW_DECISIONS = ("approve", "edit", "discard")


def review(
    draft: Draft,
    reviewer_id: str,
    decision: str,
    *,
    new_text: Optional[str] = None,
    rules: Optional[RuleSet] = None,
    decided_at: Optional[str] = None,
    memo: Optional[ScanMemo] = None,
) -> Draft:
    """Apply a terminal review decision to a pending draft.

    Edits re-pass the redaction scan (None means the default rules),
    through ``memo`` when one is given, before acceptance; on a scan hit
    the draft stays pending.
    Decisions on non-pending drafts fail, which makes the first decision
    win under concurrent review.
    """
    if decision not in REVIEW_DECISIONS:
        raise ValidationError(f"unknown review decision: {decision!r}")
    rules = _rule_set(rules)
    with _review_lock:
        if draft.status != DRAFT_PENDING:
            raise StateError(
                f"draft {draft.draft_id} already decided ({draft.status}); decisions are final"
            )
        if decision == "edit":
            if not new_text:
                raise ValidationError("edit decision requires replacement text")
            _leak_check(new_text, rules, f"edit of draft {draft.draft_id}", memo)
            draft.rendered_text = new_text
            draft.status = DRAFT_EDITED
        elif decision == "approve":
            draft.status = DRAFT_APPROVED
        else:
            draft.status = DRAFT_DISCARDED
        draft.reviewer_id = reviewer_id
        draft.decided_at = decided_at
    logger.debug(
        "review decision=%s draft=%s reviewer=%s", draft.status, draft.draft_id, reviewer_id
    )
    return draft


def save_drafts(drafts: Iterable[Draft], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for draft in drafts:
            fh.write(json.dumps(draft.to_dict(), sort_keys=True) + "\n")


def load_drafts(path: str) -> list[Draft]:
    drafts = []
    with open(path, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            if line.strip():
                try:
                    drafts.append(Draft.from_dict(json.loads(line)))
                except (ValueError, RecursionError, ValidationError) as exc:
                    raise ValidationError(f"{path} line {number} is not a draft: {exc}") from exc
    return drafts
