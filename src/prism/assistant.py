"""Template-based coaching drafts with a mandatory review gate.

Risk flags and drafts read one row of the epoch's ``ContextBatch``, the
de-identified Learning view. Draft generation is deterministic slot
substitution over de-identified inputs only: the summary slot accepts
nothing but ``DeidText`` and every rendered or edited draft is
re-scanned with the redaction rules before it can move forward. Nothing
is deliverable until a reviewer approves or edits it; terminal
decisions are immutable and the first decision wins.
"""

from __future__ import annotations

import json
import logging
import threading
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Optional

import numpy as np

from .errors import LeakageError, StateError, ValidationError
from .features import ContextBatch
from .records import Record, field_names
from .redaction import DeidText, RuleSet, ScanMemo, _rule_set, scan_for_identifiers

logger = logging.getLogger(__name__)

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
    body: str

    def __post_init__(self) -> None:
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
            body=(
                "Quick nudge from your coach: {summary} "
                "A single check-in today gets the streak restarted. "
                "Anything blocking you this week?"
            ),
        ),
        DraftTemplate(
            template_id="reengage-decline",
            body=(
                "We noticed things slowed down recently ({summary}). "
                "Want to pick one small goal together for week {epoch}?"
            ),
        ),
        DraftTemplate(
            template_id="milestone-cheer",
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


STREAK_THRESHOLD = 3       # days
DECLINE_THRESHOLD = 0.05   # weekly-score drop per week


def _check_row(contexts: ContextBatch, row: int) -> None:
    if not isinstance(contexts, ContextBatch):
        raise ValidationError("contexts must be a ContextBatch")
    # A bool is an int, but not a row; a negative row must not wrap.
    if type(row) is not int or not 0 <= row < len(contexts):
        raise ValidationError(f"row must be an int in range({len(contexts)})")


def flag_risks(contexts: ContextBatch, row: int) -> list[str]:
    """The disengagement signals of row ``row`` of ``contexts``, by kind:
    ``"missed_streak"``, then ``"engagement_decline"``, each where its
    fixed threshold is crossed."""
    _check_row(contexts, row)
    flags = []
    if contexts.streak[row] >= STREAK_THRESHOLD:
        flags.append("missed_streak")
    if contexts.slope[row] <= -DECLINE_THRESHOLD:
        flags.append("engagement_decline")
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
    contexts: ContextBatch,
    row: int,
    template: DraftTemplate,
    *,
    draft_id: str,
    created_at: str,
    rules: Optional[RuleSet] = None,
    memo: Optional[ScanMemo] = None,
) -> Draft:
    """Render the pending draft ``draft_id``, created at ``created_at``,
    by deterministic slot substitution; the ``missed_streak``,
    ``engagement_slope`` and ``epoch`` slots come from row ``row`` of
    ``contexts``.

    The rendered text is re-scanned with the redaction rules (None means
    the default rules), through ``memo`` when one is given; any hit
    aborts with a leakage error instead of emitting the draft.
    """
    if not isinstance(summary, DeidText):
        raise ValidationError("summary must be a DeidText produced by the redaction pipeline")
    _check_row(contexts, row)
    slots = {
        "summary": summary.text,
        "missed_streak": int(contexts.streak[row]),
        "engagement_slope": f"{float(contexts.slope[row]):+.2f}",
        "epoch": contexts.epoch,
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


_DRAFT_FIELDS = tuple(sorted(field_names(Draft)))
_draft_values = attrgetter(*_DRAFT_FIELDS)
_TEXT_OR_NONE = frozenset({str, type(None)})
_json_str = json.encoder.encode_basestring_ascii


def save_drafts(drafts: Iterable[Draft], path: str) -> None:
    """Write one line per draft: ``json.dumps(draft.to_dict(), sort_keys=True)``
    and a newline, the form :func:`load_drafts` reads.

    A draft whose fields are each a str or None has its line filled in
    between the sorted keys with each value's ``encode_basestring_ascii``
    text, which is what ``json.dumps`` writes for it. Every value but the
    draft id repeats across drafts (a timestamp, a reviewer, a status, a
    rendered text, a user's token), so each distinct one is encoded once
    per call. A draft holding anything else is written by ``json.dumps``.
    Lines go to the file as they are made.
    """
    encoded: dict[Optional[str], str] = {None: "null"}

    def encode(value: str) -> str:
        text = encoded[value] = _json_str(value)
        return text

    get = encoded.get
    with open(path, "w", encoding="utf-8") as fh:
        write = fh.write
        for draft in drafts:
            values = _draft_values(draft)
            if not _TEXT_OR_NONE.issuperset(map(type, values)):
                write(json.dumps(draft.to_dict(), sort_keys=True) + "\n")
                continue
            created, decided, draft_id, text, reviewer, status, template, token = values
            # The fields in _DRAFT_FIELDS order; an encoded value is never empty.
            write(
                f'{{"created_at": {get(created) or encode(created)}, '
                f'"decided_at": {get(decided) or encode(decided)}, '
                f'"draft_id": {get(draft_id) or _json_str(draft_id)}, '
                f'"rendered_text": {get(text) or encode(text)}, '
                f'"reviewer_id": {get(reviewer) or encode(reviewer)}, '
                f'"status": {get(status) or encode(status)}, '
                f'"template_id": {get(template) or encode(template)}, '
                f'"user_token": {get(token) or encode(token)}}}\n'
            )


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
