"""End-to-end experiment driver: static vs adaptive arms over pre/post windows.

Both arms share a seed and therefore a cohort and behavior stream. The
pre-period runs under the initial (static) placement; from the
intervention epoch onward the adaptive arm re-assigns weekly through the
constrained bandit, generates coach drafts for flagged users, routes
them through review, and delivers the survivors via audited vault
restorations. Constraint violations abort the run: they indicate an
implementation bug, never a tolerable outcome.

An epoch's users are decided by ``decide_epoch``, in passes between
moves: each pass decides a window of user rows against the roster as it
stands and keeps them up to and including the first move. Where moves
come close together, a stretch decides the rows one at a time, each as
``assign``, the one-row decision and the reference both paths equal,
would decide it. Passes and stretches alike arrive as a
``DecisionPass``, and ``_pass_lines`` writes every trace line.
"""

from __future__ import annotations

import json
import os
import secrets
import shutil
from binascii import Error as BinasciiError
from binascii import a2b_base64, b2a_base64
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Optional, TextIO

import numpy as np

from .._version import __version__
from ..assignment import (
    FEATURE_DIM,
    REASONS_OF_CODE,
    BanditModel,
    DecisionPass,
    FeatureTables,
    PolicyConfig,
    Roster,
    assign,
    compute_reward,
    decide_epoch,
    feature_tables,
    ucb_score,
)
from ..assistant import (
    DELIVERABLE_STATUSES,
    DRAFT_APPROVED,
    DRAFT_DISCARDED,
    DRAFT_EDITED,
    DRAFT_PENDING,
    Draft,
    default_templates,
    flag_risks,
    generate_draft,
    review,
    risk_mask,
    save_drafts,
)
from ..errors import ConstraintViolationError, InternalError, ValidationError
from ..features import (
    ACTION_TYPES,
    DAYS_PER_WEEK,
    DEFAULT_ACTION_WEIGHTS,
    ContextBatch,
    EngagementWeights,
    NormalizationWindow,
    adherence,
    build_context,
    engagement_index,
    engagement_scores,
    pre_period_mean,
)
from ..metrics import MetricsReport, format_eng_index, mann_whitney_u, render_report
from ..records import Record
from ..redaction import DeidText, LeakReport, ScanMemo, _rehydrate_deid, leak_audit, redact
from ..vault import KeyRing, RestorationRequest, UserToken, rfc3339, verify_audit_chain
from .scenario import POLICY_ADAPTIVE, Scenario
from .world import (
    SIM_EPOCH_BASE,
    WEEK_SECONDS,
    World,
    generate_cohort,
    group_activity_flags,
    group_engagement_means,
    step_messages,
    step_week,
    substream,
    STREAM_REVIEW,
)

# perfbench/tracing.py wraps assign here; no code in this module calls it.
_TRACED_NAMES = (assign,)

_WINDOW_WEEKS = 8
_EDIT_TEXT = (
    "Checking in from your coach: last week looked quieter than usual. "
    "Want to pick one small goal together for this week?"
)


TRACE_SCHEMA = 3
TRACE_FIELDS = ("epoch", "user_token", "chosen", "changed", "codes", "mu", "sigma", "penalty")
_ZERO = ord("0")
_DIGIT_OF_BYTE = bytes((_ZERO + b) % 256 for b in range(256))


def _digits(values: np.ndarray) -> str:
    """Small non-negative integers as one character each, ``chr(48 + v)``.

    Reason codes are at most ``CODE_DWELL`` (8), so every character lies
    in ``0``..``8`` and needs no JSON escape. One byte translation is
    cheaper than adding 48 in numpy."""
    return values.astype(np.uint8).tobytes().translate(_DIGIT_OF_BYTE).decode("ascii")


def _pass_lines(decided: DecisionPass, epoch: int, roster: Roster) -> str:
    """The trace lines of a pass's decisions, in row order, one line of
    trace schema 3 each. This is the one trace writer, for a pass, a
    stretch and the one row of an ``assign`` step alike.

    ``codes`` holds one reason code per group row (``0`` for scored) as
    the character ``chr(48 + code)``. ``mu`` and ``sigma`` are base64 of
    the little-endian float64 terms of the code-0 rows, in row order, and
    ``penalty`` one ``0``/``1`` character per code-0 row. ``score`` is not
    written: :meth:`TraceLegend.decode` recomputes it bit for bit from the
    other three terms and the manifest's policy, through ``ucb_score`` as
    the policy scored it. A line is the text ``json.dumps`` gives for the
    fields of ``TRACE_FIELDS`` in that order. Each row's fields are its
    slice of the pass's code digits, penalty digits and float bytes.
    """
    n_groups = len(roster.group_ids)
    codes = _digits(decided.codes)
    scores = decided.scores
    penalty = _digits(scores.penalty)
    mu = scores.mu.astype("<f8", copy=False).tobytes()
    sigma = scores.sigma.astype("<f8", copy=False).tobytes()
    bounds = decided.bounds.tolist()
    moved = decided.moved.tolist()
    lines = []
    for i, group in enumerate(decided.chosen.tolist()):
        lo, hi = bounds[i], bounds[i + 1]
        token = encode_basestring_ascii(roster.user_tokens[decided.start + i])
        chosen = encode_basestring_ascii(roster.group_ids[group]) if group >= 0 else "null"
        changed = "true" if moved[i] else "false"
        mu_text = b2a_base64(mu[8 * lo : 8 * hi], newline=False).decode("ascii")
        sigma_text = b2a_base64(sigma[8 * lo : 8 * hi], newline=False).decode("ascii")
        lines.append(
            f'{{"epoch": {epoch}, "user_token": {token}, "chosen": {chosen}, '
            f'"changed": {changed}, "codes": "{codes[i * n_groups : (i + 1) * n_groups]}", '
            f'"mu": "{mu_text}", "sigma": "{sigma_text}", "penalty": "{penalty[lo:hi]}"}}\n'
        )
    return "".join(lines)


def _trace_fields_in_order(pairs: list) -> dict:
    keys = tuple(key for key, _ in pairs)
    if keys != TRACE_FIELDS:
        raise ValidationError(f"trace line fields are {list(keys)}, expected {list(TRACE_FIELDS)}")
    return dict(pairs)


@dataclass
class TraceLegend:
    """What a run's ``manifest.json`` says about its trace lines: the group
    of each row, the reasons of each code, and the policy's ``beta`` and
    ``lam``, with which :meth:`decode` recomputes ``score``."""

    group_ids: tuple[str, ...]
    reasons_of_code: tuple[tuple[str, ...], ...]
    beta: float
    lam: float
    _group_set: frozenset = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._group_set = frozenset(self.group_ids)

    @classmethod
    def from_manifest(cls, manifest) -> "TraceLegend":
        """The legend of a parsed ``manifest.json``. Raises
        ``ValidationError`` unless it is a well-formed schema-3 manifest."""
        if not isinstance(manifest, dict):
            raise ValidationError("manifest is not a JSON object")
        schema = manifest.get("trace_schema")
        if schema != TRACE_SCHEMA or isinstance(schema, bool):
            raise ValidationError(f"manifest trace_schema is {schema!r}, expected {TRACE_SCHEMA}")
        group_ids, reasons = manifest.get("group_ids"), manifest.get("reasons_of_code")
        if not isinstance(group_ids, list) or not all(isinstance(g, str) for g in group_ids):
            raise ValidationError("manifest group_ids must be a list of strings")
        if not isinstance(reasons, list) or not all(
            isinstance(r, list) and all(isinstance(x, str) for x in r) for r in reasons
        ):
            raise ValidationError("manifest reasons_of_code must be a list of string lists")
        policy = PolicyConfig.from_dict(manifest.get("policy"))
        # A default would decode another run's scores, so every field must be given.
        if policy.to_dict() != manifest["policy"]:
            raise ValidationError("manifest policy must give every policy field")
        return cls(
            group_ids=tuple(group_ids),
            reasons_of_code=tuple(tuple(r) for r in reasons),
            beta=policy.beta,
            lam=policy.lam,
        )

    @staticmethod
    def _digit_values(text, name: str, limit: int, size: int) -> np.ndarray:
        """The inverse of :func:`_digits`, for ``size`` values below ``limit``."""
        if not isinstance(text, str) or len(text) != size:
            raise ValidationError(f"trace {name} must be a string of {size} characters")
        if not text.isascii():
            raise ValidationError(f"trace {name} holds a non-ASCII character")
        values = np.frombuffer(text.encode("ascii"), dtype=np.uint8).astype(np.int64) - _ZERO
        if np.any((values < 0) | (values >= limit)):
            raise ValidationError(f"trace {name} holds a character outside 0..{chr(_ZERO + limit - 1)}")
        return values

    @staticmethod
    def _float_values(text, name: str, size: int) -> np.ndarray:
        """The inverse of the base64 text :func:`_pass_lines` writes, for
        ``size`` little-endian float64 values. Only that text is accepted,
        so a line decodes one way or not at all."""
        if not isinstance(text, str) or not text.isascii():
            raise ValidationError(f"trace {name} must be an ASCII base64 string")
        try:
            raw = a2b_base64(text)
        except BinasciiError as exc:
            raise ValidationError(f"trace {name} is not valid base64: {exc}") from exc
        if len(raw) != 8 * size:
            raise ValidationError(
                f"trace {name} holds {len(raw)} bytes, expected {8 * size} for {size} scored rows"
            )
        if b2a_base64(raw, newline=False) != text.encode("ascii"):
            raise ValidationError(f"trace {name} is not the canonical base64 of its bytes")
        return np.frombuffer(raw, dtype="<f8")

    def decode(self, line: str) -> dict:
        """A schema-3 line as the fields of trace schema 2: ``codes`` as a
        list of ints, and ``mu``, ``sigma``, ``penalty`` and ``score`` as
        lists over the code-0 rows. ``json.dumps`` of the result is the line
        schema 2 wrote for the same decision. Raises ``ValidationError`` on
        a malformed line."""
        try:
            doc = json.loads(line, object_pairs_hook=_trace_fields_in_order)
        except (ValueError, RecursionError) as exc:
            raise ValidationError(f"trace line is not JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ValidationError("trace line is not a JSON object")
        epoch, token, chosen, changed = (doc[k] for k in TRACE_FIELDS[:4])
        if not isinstance(epoch, int) or isinstance(epoch, bool) or epoch < 0:
            raise ValidationError("trace epoch must be a non-negative integer")
        if not isinstance(token, str):
            raise ValidationError("trace user_token must be a string")
        if chosen is not None and chosen not in self._group_set:
            raise ValidationError("trace chosen must be null or a group id of the manifest")
        if not isinstance(changed, bool):
            raise ValidationError("trace changed must be true or false")
        codes = self._digit_values(doc["codes"], "codes", len(self.reasons_of_code), len(self.group_ids))
        n_scored = int(np.count_nonzero(codes == 0))
        mu = self._float_values(doc["mu"], "mu", n_scored)
        sigma = self._float_values(doc["sigma"], "sigma", n_scored)
        penalty = self._digit_values(doc["penalty"], "penalty", 2, n_scored)
        score = ucb_score(mu, sigma, penalty, self.beta, self.lam)
        return {
            "epoch": epoch,
            "user_token": token,
            "chosen": chosen,
            "changed": changed,
            "codes": codes.tolist(),
            "mu": mu.tolist(),
            "sigma": sigma.tolist(),
            "penalty": penalty.tolist(),
            "score": score.tolist(),
        }


@dataclass
class RunManifest(Record):
    """Everything needed to reproduce a run bit-exactly (keys come from the
    named source, never from the manifest itself), and the legend of its
    trace lines: the group ids in row order, the reasons of each code, and
    the policy whose ``beta`` and ``lam`` derive each ``score``."""

    scenario: dict
    policy: dict
    engagement_alphas: list[float]
    redaction_rules: dict
    code_version: str
    seed: int
    key_source: str
    group_ids: list[str]
    outputs: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            **super().to_dict(),
            "trace_schema": TRACE_SCHEMA,
            "reasons_of_code": [list(reasons) for reasons in REASONS_OF_CODE],
        }


def _normalization_window(world: World, epoch: int) -> NormalizationWindow:
    start = max(0, epoch - _WINDOW_WEEKS)
    weekly_totals = world.actions[:, start:epoch, :].sum(axis=2)
    return NormalizationWindow(
        bounds={
            "weekly_actions": (float(weekly_totals.min()), float(weekly_totals.max())),
            "tenure_weeks": (0.0, float(world.scenario.horizon_weeks)),
        }
    )


def _freeze_engagement_weights(world: World, alphas: tuple) -> EngagementWeights:
    scenario = world.scenario
    pre_counts = world.actions[:, : scenario.w_pre, :].reshape(-1, len(ACTION_TYPES))
    weights = EngagementWeights.from_pre_period(pre_counts, alphas)
    world.weekly_scores[:, : scenario.w_pre] = np.column_stack(
        [engagement_scores(world.actions[:, w, :], weights) for w in range(scenario.w_pre)]
    )
    # The report divides by this mean; a run that cannot have it stops here,
    # before any post-period week.
    pre_period_mean(world.weekly_scores[:, : scenario.w_pre].ravel())
    return weights


def _probe_restorations(world: World, epoch: int, counters: dict) -> None:
    # Learning-view consumers never restore; these probes must always be denied.
    for k in range(world.scenario.analyst_probes_per_week):
        result = world.vault.restore_identity(
            RestorationRequest(
                requester_id=f"analyst-{k}",
                role="analyst",
                mfa_verified=True,
                user_token=world.tokens[(epoch + k) % world.n_users],
                purpose="cohort analysis",
            )
        )
        counters["restoration_attempts"] += 1
        counters["analyst_attempts"] += 1
        if not result.granted:
            counters["analyst_denials"] += 1


def _deliver(world: World, token: UserToken, coach_id: str, counters: dict) -> None:
    result = world.vault.restore_identity(
        RestorationRequest(
            requester_id=coach_id,
            role="coach",
            mfa_verified=True,
            user_token=token,
            purpose="deliver coaching message",
        )
    )
    counters["restoration_attempts"] += 1
    if not result.granted:
        raise InternalError(f"delivery restoration unexpectedly denied: {result.denial_reason}")


def _assistant_pass(
    world: World,
    epoch: int,
    contexts: ContextBatch,
    drafts: list[Draft],
    counters: dict,
    memo: ScanMemo,
) -> None:
    """Draft, review and deliver a message for each flagged user row.

    Flags and drafts read the user's row of ``contexts`` in place. The
    summaries, rendered drafts and edits of a run repeat a few texts, so
    their scans go through the run's ``memo``, and each summary is
    redacted through the world's ``deid_pool`` under the pool's cohort
    mapping of the user's goal.
    """
    scenario = world.scenario
    roster = world.roster
    pool, cohort_of_goal = world.deid_pool, world.cohort_of_goal
    templates = default_templates()
    created_at = rfc3339(SIM_EPOCH_BASE + epoch * WEEK_SECONDS)
    approve = scenario.review_approve_prob
    edit = approve + scenario.review_edit_prob
    discard = edit + scenario.review_discard_prob
    # Each flagged row's inputs, read once for the epoch; the roster does
    # not change during the pass. One uniform per row, drawn in one call,
    # is the same stream as one scalar draw per row.
    users = np.flatnonzero(risk_mask(contexts))
    rows = zip(
        users.tolist(),
        contexts.streak[users].tolist(),
        contexts.slope[users].tolist(),
        world.goal_index[users].tolist(),
        roster.coach_of[roster.group_of[users]].tolist(),
        substream(scenario.seed, STREAM_REVIEW, epoch).random(users.size).tolist(),
    )
    for user, streak, slope, goal, coach, u in rows:
        token = world.tokens[user]
        kind = flag_risks(contexts, user)[0]
        template = templates["reengage-streak" if kind == "missed_streak" else "reengage-decline"]
        summary_text = f"missed {int(streak)} recent check-ins; engagement slope {slope:+.2f} per week."
        summary = redact(summary_text, token, world.rules, cohort_of_goal[goal], memo=memo, pool=pool)
        draft = generate_draft(
            summary,
            contexts,
            user,
            template,
            rules=world.rules,
            draft_id=f"d-{scenario.seed}-{epoch:02d}-{user:04d}",
            created_at=created_at,
            memo=memo,
        )
        drafts.append(draft)
        coach_id = roster.coach_ids[coach]
        if u < approve:
            review(draft, coach_id, "approve", decided_at=created_at)
        elif u < edit:
            review(
                draft, coach_id, "edit",
                new_text=_EDIT_TEXT, rules=world.rules, decided_at=created_at, memo=memo,
            )
        elif u < discard:
            review(draft, coach_id, "discard", decided_at=created_at)
        # else: stays pending in the review queue
        if draft.status in DELIVERABLE_STATUSES:
            _deliver(world, token, coach_id, counters)


def run_experiment(
    scenario: Scenario,
    keys: KeyRing,
    *,
    policy: Optional[PolicyConfig] = None,
    engagement_alphas: tuple = DEFAULT_ACTION_WEIGHTS,
    out_dir: Optional[str] = None,
    key_source: str = "explicit",
) -> MetricsReport:
    """Run one arm end-to-end and return its metrics report.

    The pre-period always runs under the initial static placement; the
    configured policy takes over at the intervention epoch. Writes the
    run directory when ``out_dir`` is given: into a new directory beside
    it, renamed to ``out_dir`` once the run has succeeded, so a run that
    fails leaves no ``out_dir`` behind. An existing ``out_dir`` must be a
    directory; it keeps any file the run does not write.
    """
    config = policy or PolicyConfig()
    if out_dir and os.path.exists(out_dir) and not os.path.isdir(out_dir):
        raise ValidationError(f"run directory {out_dir} exists and is not a directory")
    world = generate_cohort(scenario, keys)
    staging = _staging_dir(out_dir) if out_dir else None

    drafts: list[Draft] = []
    counters = {
        "decisions": 0,
        "reassignments": 0,
        "restoration_attempts": 0,
        "analyst_attempts": 0,
        "analyst_denials": 0,
        "violations": 0,
    }

    try:
        traces = open(os.path.join(staging, "traces.jsonl"), "w", encoding="utf-8") if staging else None
        try:
            eng_weights = _run_epochs(world, config, traces, drafts, counters, engagement_alphas)
        finally:
            if traces is not None:
                traces.close()

        report = _build_report(world, counters, drafts)
        if staging:
            manifest = RunManifest(
                scenario=scenario.to_dict(),
                policy=config.to_dict(),
                engagement_alphas=[float(a) for a in eng_weights.alphas],
                redaction_rules={
                    "count": len(world.rules),
                    "entity_types": sorted(r.entity_type for r in world.rules),
                },
                code_version=__version__,
                seed=scenario.seed,
                key_source=key_source,
                group_ids=list(world.roster.group_ids),
            )
            _write_run_dir(staging, world, report, manifest, drafts)
            _publish(staging, out_dir)
    except BaseException:
        if staging:
            shutil.rmtree(staging, ignore_errors=True)
        raise
    return report


def _staging_dir(out_dir: str) -> str:
    """A new, empty directory beside ``out_dir`` for a run to write into."""
    parent, name = os.path.split(os.path.abspath(out_dir))
    os.makedirs(parent, exist_ok=True)
    staging = os.path.join(parent, f".{name}.{secrets.token_hex(8)}.partial")
    os.mkdir(staging)
    return staging


def _publish(staging: str, out_dir: str) -> None:
    """Move a finished run directory from ``staging`` to ``out_dir``."""
    if not os.path.isdir(out_dir) or not os.listdir(out_dir):
        os.replace(staging, out_dir)
        return
    for name in os.listdir(staging):
        os.replace(os.path.join(staging, name), os.path.join(out_dir, name))
    os.rmdir(staging)


def _run_epochs(
    world: World,
    config: PolicyConfig,
    traces: Optional[TextIO],
    drafts: list[Draft],
    counters: dict,
    engagement_alphas: tuple,
) -> EngagementWeights:
    scenario = world.scenario
    t0 = scenario.w_pre
    adaptive = scenario.policy == POLICY_ADAPTIVE
    model = BanditModel(config.ridge)
    # Per decision epoch, the scored users' rows, chosen feature rows and
    # churn penalties, until their evaluation window has passed.
    pending: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    # The assistant pass's scans, for this run only.
    memo = ScanMemo(world.rules)

    for epoch in range(scenario.horizon_weeks):
        world.clock.set_week(epoch)
        flags = group_activity_flags(world, epoch)

        if adaptive and epoch >= t0:
            # Matured rewards first: the policy only sees fully observed
            # windows. Decisions run every epoch from t0 on, so exactly one
            # batch matures now.
            decided = epoch - config.w_post
            matured = pending.pop(decided, None)
            if matured is not None:
                users, phi, penalties = matured
                rewards = compute_reward(
                    world.checkins,
                    world.weekly_scores,
                    users,
                    epoch=decided,
                    churn_penalties=penalties,
                    config=config,
                )
                if rewards is not None:
                    model.update(phi, rewards)

            # Every simulated user has events from day 0.
            contexts = build_context(
                world.checkins,
                world.actions,
                world.weekly_scores,
                np.zeros(world.n_users, dtype=np.int64),
                user_tokens=world.tokens,
                goals=world.goal_index,
                epoch=epoch,
                window=_normalization_window(world, epoch),
            )
            tables = feature_tables(contexts, world.roster, group_engagement_means(world, epoch))
            batch = _decide(world.roster, model, epoch, config, tables, traces, counters)
            if batch is not None:
                pending[epoch] = batch
            _assistant_pass(world, epoch, contexts, drafts, counters, memo)

        _probe_restorations(world, epoch, counters)
        step_week(world, epoch, flags)
        # Each week is scored as soon as it is simulated, so every reader of
        # an earlier week finds it scored. The weights freeze on the last
        # pre-period week; a scenario always has one (w_pre < horizon_weeks).
        if epoch + 1 == t0:
            eng_weights = _freeze_engagement_weights(world, engagement_alphas)
        elif epoch >= t0:
            world.weekly_scores[:, epoch] = engagement_scores(world.actions[:, epoch, :], eng_weights)
        step_messages(world, epoch)

        epoch_violations = world.audit_constraints(config, epoch)
        if epoch_violations:
            counters["violations"] += epoch_violations
            raise ConstraintViolationError(
                f"constraint violation detected at epoch {epoch}; aborting run"
            )

    return eng_weights


def _decide(
    roster: Roster,
    model: BanditModel,
    epoch: int,
    config: PolicyConfig,
    tables: FeatureTables,
    traces: Optional[TextIO],
    counters: dict,
) -> Optional[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Decide every user row at ``epoch`` through :func:`decide_epoch`,
    write each decision's trace line, and count decisions and moves.

    Returns the scored rows, the feature rows they were placed by and
    their churn penalties, the batch the model learns from once its
    rewards mature; None when no row was scored.
    """
    n_users = len(roster.user_tokens)
    users = np.empty(n_users, dtype=np.int64)
    phi = np.empty((n_users, FEATURE_DIM))
    penalties = np.empty(n_users, dtype=np.int64)
    scored = 0
    for decided in decide_epoch(roster, model, epoch, config, tables=tables):
        counters["decisions"] += decided.chosen.size
        counters["reassignments"] += int(np.count_nonzero(decided.moved))
        if traces is not None:
            traces.write(_pass_lines(decided, epoch, roster))
        end = scored + decided.users.size
        users[scored:end] = decided.users
        phi[scored:end] = decided.phi
        penalties[scored:end] = decided.penalty
        scored = end
    return (users[:scored], phi[:scored], penalties[:scored]) if scored else None


def _build_report(world: World, counters: dict, drafts: list[Draft]) -> MetricsReport:
    scenario = world.scenario
    t0 = scenario.w_pre
    post_end = t0 + scenario.w_post

    adh_pre = adherence(world.checkins[:, : t0 * DAYS_PER_WEEK])
    adh_post = adherence(world.checkins[:, t0 * DAYS_PER_WEEK : post_end * DAYS_PER_WEEK])

    scores_pre = world.weekly_scores[:, :t0].ravel()
    scores_post = world.weekly_scores[:, t0:post_end].ravel()
    eng_idx = engagement_index(scores_pre, scores_post)

    token_of = {token.value: token for token in world.tokens}
    draft_docs = [_rehydrate_deid(d.rendered_text, token_of[d.user_token]) for d in drafts]
    corpus = list(world.deid_messages) + draft_docs
    # A static arm whose users never post has nothing to audit, and
    # nothing in it leaks.
    leak = leak_audit(corpus, world.rules) if corpus else LeakReport(0, 0, 0.0, {})

    chain_ok, _ = verify_audit_chain(world.vault.audit_log.entries())
    status_counts = {
        "approved": sum(1 for d in drafts if d.status == DRAFT_APPROVED),
        "edited": sum(1 for d in drafts if d.status == DRAFT_EDITED),
        "discarded": sum(1 for d in drafts if d.status == DRAFT_DISCARDED),
        "pending": sum(1 for d in drafts if d.status == DRAFT_PENDING),
    }
    # A draft is delivered right after its only review, so the deliverable
    # drafts are exactly the delivered ones. They are among the docs just
    # audited, so they need a scan of their own only if that audit hit.
    delivered = [doc for d, doc in zip(drafts, draft_docs) if d.status in DELIVERABLE_STATUSES]
    delivered_leak = None
    if delivered:
        delivered_leak = leak_audit(delivered, world.rules).leak_rate if leak.n_hits else 0.0

    return MetricsReport(
        arm=scenario.policy,
        seed=scenario.seed,
        scenario_name=scenario.name,
        horizon_weeks=scenario.horizon_weeks,
        w_pre=scenario.w_pre,
        w_post=scenario.w_post,
        adherence_pre=adh_pre,
        adherence_post=adh_post,
        eng_index=eng_idx,
        weekly_scores_pre=[float(v) for v in scores_pre],
        weekly_scores_post=[float(v) for v in scores_post],
        reassignments=counters["reassignments"],
        violations=counters["violations"],
        leak=leak,
        weight_delta_mean=float(
            (world.weights_kg[:, scenario.horizon_weeks] - world.weights_kg[:, 0]).mean()
        ),
        decisions=counters["decisions"],
        governance={
            "restoration_attempts": counters["restoration_attempts"],
            "audit_entries": len(world.vault.audit_log),
            "analyst_attempts": counters["analyst_attempts"],
            "analyst_denials": counters["analyst_denials"],
            "audit_chain_ok": bool(chain_ok),
        },
        assistant={
            "drafts": len(drafts),
            **status_counts,
            "delivered": len(delivered),
            "delivered_leak_rate": delivered_leak,
        },
    )


def _write_run_dir(
    out_dir: str,
    world: World,
    report: MetricsReport,
    manifest: RunManifest,
    drafts: list[Draft],
) -> None:
    rendered = render_report(report)
    with open(os.path.join(out_dir, "metrics.json"), "w", encoding="utf-8") as fh:
        fh.write(rendered["json"] + "\n")
    with open(os.path.join(out_dir, "metrics.csv"), "w", encoding="utf-8") as fh:
        fh.write(rendered["csv"])
    world.vault.audit_log.to_jsonl(os.path.join(out_dir, "audit.jsonl"))
    save_drafts(drafts, os.path.join(out_dir, "drafts.jsonl"))
    _write_deid_messages(os.path.join(out_dir, "deid_messages.jsonl"), world.deid_messages)
    manifest.outputs = sorted(
        name
        for name in os.listdir(out_dir)
        if name != "manifest.json"
    )
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest.to_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")


_encode_sorted = json.JSONEncoder(sort_keys=True).encode


def _write_deid_messages(path: str, messages: list[DeidText]) -> None:
    """One JSON object per message, with sorted keys as
    ``json.dumps(doc, sort_keys=True)`` writes them: ``cohort`` and
    ``counts`` (the message's two mappings as plain objects), ``text``
    and ``user_token`` (its source token's value). This is the form
    :func:`prism.redaction.load_deid_corpus` reads.

    Messages redacted through one :class:`DeidPool` share their cohort
    and count objects, and the pool shares an object only between
    messages whose mapping encodes alike. So a line's head, its sorted
    keys before ``user_token`` (``cohort``, ``counts``, ``text``), is
    encoded once per distinct text under each pair of those objects, and
    only the token per line. A message built without a pool shares no
    mapping, so its head is encoded for it alone. A token is 64
    lowercase hex characters, which JSON writes as they are. Lines go to
    the file as they are made.
    """
    # ``messages`` keeps every mapping alive during the write, so no id
    # in a key is reused meanwhile.
    heads: dict[tuple[str, int, int], str] = {}
    with open(path, "w", encoding="utf-8") as fh:
        write = fh.write
        for message in messages:
            text = message.text
            cohort, counts = message.cohort_metadata, message.redaction_count_by_type
            key = (text, id(cohort), id(counts))
            head = heads.get(key)
            if head is None:
                doc = {"cohort": dict(cohort), "counts": dict(counts), "text": text}
                head = heads[key] = _encode_sorted(doc)[:-1]
            write(f'{head}, "user_token": "{message.source_user_token.value}"}}\n')


# ---------------------------------------------------------------------------
# Arm comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComparisonTable(Record):
    """Side-by-side outcome table for two runs from the same seed family.

    Each outcome field maps ``a`` and ``b`` to the value of each run,
    plus the derived differences :func:`compare_arms` adds."""

    arm_a: str
    arm_b: str
    adherence_post: dict
    eng_index: dict
    weight_delta: dict
    reassignments: dict
    mann_whitney: dict

    def render_text(self) -> str:
        eng = self.eng_index
        return "\n".join(
            [
                f"{'metric':<22}{self.arm_a:>14}{self.arm_b:>14}",
                f"{'adherence (post)':<22}{self.adherence_post['a']:>14.4f}{self.adherence_post['b']:>14.4f}",
                f"{'eng index':<22}{format_eng_index(eng['a']):>14}{format_eng_index(eng['b']):>14}",
                f"{'eng diff (pp)':<22}{eng['diff_pp']:>+28.1f}",
                f"{'weight delta (kg)':<22}{self.weight_delta['a']:>14.2f}{self.weight_delta['b']:>14.2f}",
                f"{'reassignments':<22}{self.reassignments['a']:>14d}{self.reassignments['b']:>14d}",
                f"{'U-test p (weekly S)':<22}{self.mann_whitney['p']:>28.4g}",
            ]
        )


def compare_arms(report_a: MetricsReport, report_b: MetricsReport) -> ComparisonTable:
    """Comparison table plus a rank-sum test over post-window weekly scores."""
    same_family = (
        report_a.seed == report_b.seed
        and report_a.w_pre == report_b.w_pre
        and report_a.w_post == report_b.w_post
        and report_a.horizon_weeks == report_b.horizon_weeks
    )
    if not same_family:
        raise ValidationError("reports come from mismatched windows or seed families")
    u, p = mann_whitney_u(report_a.weekly_scores_post, report_b.weekly_scores_post)
    rel_a = (report_a.eng_index - 1.0) * 100.0
    rel_b = (report_b.eng_index - 1.0) * 100.0
    return ComparisonTable(
        arm_a=report_a.arm,
        arm_b=report_b.arm,
        adherence_post={
            "a": report_a.adherence_post,
            "b": report_b.adherence_post,
            "diff": report_b.adherence_post - report_a.adherence_post,
        },
        eng_index={
            "a": report_a.eng_index,
            "b": report_b.eng_index,
            "rel_pct_a": rel_a,
            "rel_pct_b": rel_b,
            "diff_pp": rel_b - rel_a,
        },
        weight_delta={"a": report_a.weight_delta_mean, "b": report_b.weight_delta_mean},
        reassignments={"a": report_a.reassignments, "b": report_b.reassignments},
        mann_whitney={"u": u, "p": p},
    )


def run_paired(scenario: Scenario, keys: KeyRing) -> tuple[MetricsReport, MetricsReport]:
    """Static and adaptive arms of the same scenario under a shared seed
    and the default policy."""
    from dataclasses import replace

    static = run_experiment(replace(scenario, policy="static"), keys)
    adaptive = run_experiment(replace(scenario, policy="adaptive"), keys)
    return static, adaptive
