"""End-to-end experiment driver: static vs adaptive arms over pre/post windows.

Both arms share a seed and therefore a cohort and behavior stream. The
pre-period runs under the initial (static) placement; from the
intervention epoch onward the adaptive arm re-assigns weekly through the
constrained bandit, generates coach drafts for flagged users, routes
them through review, and delivers the survivors via audited vault
restorations. Constraint violations abort the run: they indicate an
implementation bug, never a tolerable outcome.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Optional, TextIO

import numpy as np

from .._version import __version__
from ..assignment import (
    FEATURE_DIM,
    REASONS_OF_CODE,
    AssignmentDecision,
    BanditModel,
    PolicyConfig,
    assign,
    compute_reward,
    feature_tables,
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
    save_drafts,
)
from ..errors import ConstraintViolationError, InternalError, ValidationError
from ..features import (
    ACTION_TYPES,
    DAYS_PER_WEEK,
    ContextBatch,
    EngagementWeights,
    NormalizationWindow,
    adherence,
    build_context,
    engagement_index,
    engagement_scores,
)
from ..metrics import MetricsReport, format_eng_index, mann_whitney_u, render_report
from ..redaction import _rehydrate_deid, leak_audit, redact
from ..vault import KeyRing, RestorationRequest, rfc3339, verify_audit_chain
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

_WINDOW_WEEKS = 8
_EDIT_TEXT = (
    "Checking in from your coach: last week looked quieter than usual. "
    "Want to pick one small goal together for this week?"
)


@dataclass
class _PendingObservation:
    user_index: int
    phi: np.ndarray
    epoch: int
    churn_penalty: int


TRACE_SCHEMA = 2


def _trace_line(decision: AssignmentDecision, encoded_codes: dict[bytes, str]) -> str:
    """A decision's rationale as one line of trace schema 2.

    ``codes`` holds one reason code per group row (0 for scored), and
    ``mu``, ``sigma``, ``penalty`` and ``score`` one value per code-0 row,
    in row order. The run manifest holds the legend that decodes them.

    The line is the text ``json.dumps`` gives for those fields in this
    order. Many decisions of an epoch share a code row, so
    ``encoded_codes`` keeps the JSON text of every row written so far,
    keyed by the row's bytes; it must only see rows of one roster.
    """
    codes = decision.reason_codes
    key = codes.tobytes()
    codes_text = encoded_codes.get(key)
    if codes_text is None:
        codes_text = encoded_codes[key] = json.dumps(codes.tolist())
    scores = decision.scores
    mu, sigma, penalty, score = ([],) * 4 if scores is None else (a.tolist() for a in scores)
    chosen = "null" if decision.chosen is None else encode_basestring_ascii(decision.chosen)
    scored = json.dumps({"mu": mu, "sigma": sigma, "penalty": penalty, "score": score})
    return (
        f'{{"epoch": {decision.epoch}, "user_token": {encode_basestring_ascii(decision.user_token)}, '
        f'"chosen": {chosen}, "changed": {"true" if decision.changed else "false"}, '
        f'"codes": {codes_text}, {scored[1:]}\n'
    )


@dataclass
class RunManifest:
    """Everything needed to reproduce a run bit-exactly (keys come from the
    named source, never from the manifest itself), and the legend of its
    trace lines: the group ids in row order and the reasons of each code."""

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
            "scenario": self.scenario,
            "policy": self.policy,
            "engagement_alphas": self.engagement_alphas,
            "redaction_rules": self.redaction_rules,
            "code_version": self.code_version,
            "seed": self.seed,
            "key_source": self.key_source,
            "outputs": self.outputs,
            "trace_schema": TRACE_SCHEMA,
            "group_ids": self.group_ids,
            "reasons_of_code": [list(reasons) for reasons in REASONS_OF_CODE],
        }


@dataclass
class RunResult:
    report: MetricsReport
    manifest: RunManifest
    world: World
    drafts: list[Draft]


def _normalization_window(world: World, epoch: int) -> NormalizationWindow:
    start = max(0, epoch - _WINDOW_WEEKS)
    weekly_totals = world.actions[:, start:epoch, :].sum(axis=2)
    return NormalizationWindow(
        bounds={
            "weekly_actions": (float(weekly_totals.min()), float(weekly_totals.max())),
            "tenure_weeks": (0.0, float(world.scenario.horizon_weeks)),
        }
    )


def _freeze_engagement_weights(world: World, alphas: Optional[tuple]) -> EngagementWeights:
    scenario = world.scenario
    pre_counts = world.actions[:, : scenario.w_pre, :].reshape(-1, len(ACTION_TYPES))
    kwargs = {} if alphas is None else {"alphas": tuple(alphas)}
    weights = EngagementWeights.from_pre_period(pre_counts, **kwargs)
    world.weekly_scores[:, : scenario.w_pre] = np.column_stack(
        [engagement_scores(world.actions[:, w, :], weights) for w in range(scenario.w_pre)]
    )
    return weights


def _probe_restorations(world: World, epoch: int, counters: dict) -> None:
    # Learning-view consumers never restore; these probes must always be denied.
    for k in range(world.scenario.analyst_probes_per_week):
        target = world.users[(epoch + k) % world.n_users]
        result = world.vault.restore_identity(
            RestorationRequest(
                requester_id=f"analyst-{k}",
                role="analyst",
                mfa_verified=True,
                user_token=target.token,
                purpose="cohort analysis",
            )
        )
        counters["restoration_attempts"] += 1
        counters["analyst_attempts"] += 1
        if not result.granted:
            counters["analyst_denials"] += 1


def _deliver(world: World, draft: Draft, coach_id: str, counters: dict) -> None:
    result = world.vault.restore_identity(
        RestorationRequest(
            requester_id=coach_id,
            role="coach",
            mfa_verified=True,
            user_token=world.users[world.roster.row_of[draft.user_token]].token,
            purpose="deliver coaching message",
        )
    )
    counters["restoration_attempts"] += 1
    if not result.granted:
        raise InternalError(f"delivery restoration unexpectedly denied: {result.denial_reason}")


def _assistant_pass(
    world: World, epoch: int, contexts: ContextBatch, drafts: list[Draft], counters: dict
) -> None:
    scenario = world.scenario
    roster = world.roster
    templates = default_templates()
    rng = substream(scenario.seed, STREAM_REVIEW, epoch)
    created_at = rfc3339(SIM_EPOCH_BASE + epoch * WEEK_SECONDS)
    for user in world.users:
        context = contexts[user.index]
        flags = flag_risks(context)
        if not flags:
            continue
        flag = flags[0]
        template = templates["reengage-streak" if flag.kind == "missed_streak" else "reengage-decline"]
        summary_text = (
            f"missed {context.missed_checkin_streak} recent check-ins; "
            f"engagement slope {context.engagement_slope:+.2f} per week."
        )
        summary = redact(summary_text, user.token, world.rules, {"goal": user.goal})
        draft = generate_draft(
            summary,
            context,
            template,
            rules=world.rules,
            draft_id=f"d-{scenario.seed}-{epoch:02d}-{user.index:04d}",
            created_at=created_at,
        )
        drafts.append(draft)
        coach_id = roster.coach_ids[roster.coach_of[roster.group_of[user.index]]]
        u = float(rng.random())
        if u < scenario.review_approve_prob:
            review(draft, coach_id, "approve", decided_at=created_at)
        elif u < scenario.review_approve_prob + scenario.review_edit_prob:
            review(draft, coach_id, "edit", new_text=_EDIT_TEXT, rules=world.rules, decided_at=created_at)
        elif u < scenario.review_approve_prob + scenario.review_edit_prob + scenario.review_discard_prob:
            review(draft, coach_id, "discard", decided_at=created_at)
        # else: stays pending in the review queue
        if draft.status in DELIVERABLE_STATUSES:
            _deliver(world, draft, coach_id, counters)


def run_experiment(
    scenario: Scenario,
    keys: KeyRing,
    *,
    policy: Optional[PolicyConfig] = None,
    engagement_alphas: Optional[tuple] = None,
    out_dir: Optional[str] = None,
    key_source: str = "explicit",
) -> RunResult:
    """Run one arm end-to-end and assemble its metrics report.

    The pre-period always runs under the initial static placement; the
    configured policy takes over at the intervention epoch. Writes the
    run directory when ``out_dir`` is given.
    """
    config = policy or PolicyConfig()
    world = generate_cohort(scenario, keys)

    if out_dir:
        os.makedirs(out_dir, exist_ok=True)

    drafts: list[Draft] = []
    counters = {
        "decisions": 0,
        "reassignments": 0,
        "restoration_attempts": 0,
        "analyst_attempts": 0,
        "analyst_denials": 0,
        "violations": 0,
    }

    traces = open(os.path.join(out_dir, "traces.jsonl"), "w", encoding="utf-8") if out_dir else None
    try:
        eng_weights = _run_epochs(world, config, traces, drafts, counters, engagement_alphas)
    finally:
        if traces is not None:
            traces.close()

    report = _build_report(world, counters, drafts)
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

    if out_dir:
        _write_run_dir(out_dir, world, report, manifest, drafts)
    return RunResult(report=report, manifest=manifest, world=world, drafts=drafts)


def _run_epochs(
    world: World,
    config: PolicyConfig,
    traces: Optional[TextIO],
    drafts: list[Draft],
    counters: dict,
    engagement_alphas: Optional[tuple],
) -> EngagementWeights:
    scenario = world.scenario
    t0 = scenario.w_pre
    adaptive = scenario.policy == POLICY_ADAPTIVE
    model = BanditModel(dim=FEATURE_DIM, ridge=config.ridge)
    pending: list[_PendingObservation] = []

    for epoch in range(scenario.horizon_weeks):
        world.clock.set_week(epoch)
        flags = group_activity_flags(world, epoch)

        if adaptive and epoch >= t0:
            # Matured rewards first: the policy only sees fully observed windows.
            still_pending = []
            for obs in pending:
                if obs.epoch + config.w_post <= epoch:
                    reward = compute_reward(
                        world.checkins[obs.user_index],
                        world.actions[obs.user_index],
                        epoch=obs.epoch,
                        churn_penalty=obs.churn_penalty,
                        weights=eng_weights,
                        config=config,
                    )
                    if reward is not None:
                        model.update(obs.phi, reward)
                else:
                    still_pending.append(obs)
            pending = still_pending

            # Every simulated user has events from day 0.
            contexts = build_context(
                world.checkins,
                world.actions,
                world.weekly_scores,
                np.zeros(world.n_users, dtype=np.int64),
                user_tokens=[user.token for user in world.users],
                goals=world.goal_index,
                epoch=epoch,
                window=_normalization_window(world, epoch),
            )
            tables = feature_tables(contexts, world.roster, group_engagement_means(world, epoch))
            encoded_codes: dict[bytes, str] = {}  # this epoch's code rows, for _trace_line
            for user in world.users:
                decision = assign(
                    contexts[user.index],
                    world.roster,
                    model,
                    epoch,
                    config,
                    tables=tables,
                    user_tags=user.language_tags,
                )
                counters["decisions"] += 1
                if traces is not None:
                    traces.write(_trace_line(decision, encoded_codes))
                if decision.changed:
                    counters["reassignments"] += 1
                if decision.phi_chosen is not None:
                    pending.append(
                        _PendingObservation(
                            user_index=user.index,
                            phi=decision.phi_chosen,
                            epoch=epoch,
                            churn_penalty=decision.churn_penalty,
                        )
                    )
            _assistant_pass(world, epoch, contexts, drafts, counters)

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


def _build_report(world: World, counters: dict, drafts: list[Draft]) -> MetricsReport:
    scenario = world.scenario
    t0 = scenario.w_pre
    post_end = t0 + scenario.w_post

    adh_pre = adherence(world.checkins[:, : t0 * DAYS_PER_WEEK])
    adh_post = adherence(world.checkins[:, t0 * DAYS_PER_WEEK : post_end * DAYS_PER_WEEK])

    scores_pre = world.weekly_scores[:, :t0].ravel()
    scores_post = world.weekly_scores[:, t0:post_end].ravel()
    eng_idx = engagement_index(scores_pre, scores_post)

    draft_docs = [
        _rehydrate_deid(d.rendered_text, world.users[world.roster.row_of[d.user_token]].token)
        for d in drafts
    ]
    leak = leak_audit(list(world.deid_messages) + draft_docs, world.rules)

    chain_ok, _ = verify_audit_chain(world.vault.audit_log.entries())
    status_counts = {
        "approved": sum(1 for d in drafts if d.status == DRAFT_APPROVED),
        "edited": sum(1 for d in drafts if d.status == DRAFT_EDITED),
        "discarded": sum(1 for d in drafts if d.status == DRAFT_DISCARDED),
        "pending": sum(1 for d in drafts if d.status == DRAFT_PENDING),
    }
    # A draft is delivered right after its only review, so the deliverable
    # drafts are exactly the delivered ones.
    delivered = [doc for d, doc in zip(drafts, draft_docs) if d.status in DELIVERABLE_STATUSES]
    delivered_leak = leak_audit(delivered, world.rules).leak_rate if delivered else None

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
    with open(os.path.join(out_dir, "deid_messages.jsonl"), "w", encoding="utf-8") as fh:
        for message in world.deid_messages:
            fh.write(json.dumps(message.to_dict(), sort_keys=True) + "\n")
    manifest.outputs = sorted(
        name
        for name in os.listdir(out_dir)
        if name != "manifest.json"
    )
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest.to_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Arm comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComparisonTable:
    """Side-by-side outcome table for two runs from the same seed family."""

    arm_a: str
    arm_b: str
    adherence_post_a: float
    adherence_post_b: float
    adherence_diff: float
    eng_index_a: float
    eng_index_b: float
    eng_rel_pct_a: float
    eng_rel_pct_b: float
    eng_diff_pp: float
    weight_delta_a: float
    weight_delta_b: float
    reassignments_a: int
    reassignments_b: int
    u_statistic: float
    p_value: float

    def to_dict(self) -> dict:
        return {
            "arm_a": self.arm_a,
            "arm_b": self.arm_b,
            "adherence_post": {
                "a": self.adherence_post_a,
                "b": self.adherence_post_b,
                "diff": self.adherence_diff,
            },
            "eng_index": {
                "a": self.eng_index_a,
                "b": self.eng_index_b,
                "rel_pct_a": self.eng_rel_pct_a,
                "rel_pct_b": self.eng_rel_pct_b,
                "diff_pp": self.eng_diff_pp,
            },
            "weight_delta": {"a": self.weight_delta_a, "b": self.weight_delta_b},
            "reassignments": {"a": self.reassignments_a, "b": self.reassignments_b},
            "mann_whitney": {"u": self.u_statistic, "p": self.p_value},
        }

    def render_text(self) -> str:
        return "\n".join(
            [
                f"{'metric':<22}{self.arm_a:>14}{self.arm_b:>14}",
                f"{'adherence (post)':<22}{self.adherence_post_a:>14.4f}{self.adherence_post_b:>14.4f}",
                f"{'eng index':<22}{format_eng_index(self.eng_index_a):>14}{format_eng_index(self.eng_index_b):>14}",
                f"{'eng diff (pp)':<22}{self.eng_diff_pp:>+28.1f}",
                f"{'weight delta (kg)':<22}{self.weight_delta_a:>14.2f}{self.weight_delta_b:>14.2f}",
                f"{'reassignments':<22}{self.reassignments_a:>14d}{self.reassignments_b:>14d}",
                f"{'U-test p (weekly S)':<22}{self.p_value:>28.4g}",
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
        adherence_post_a=report_a.adherence_post,
        adherence_post_b=report_b.adherence_post,
        adherence_diff=report_b.adherence_post - report_a.adherence_post,
        eng_index_a=report_a.eng_index,
        eng_index_b=report_b.eng_index,
        eng_rel_pct_a=rel_a,
        eng_rel_pct_b=rel_b,
        eng_diff_pp=rel_b - rel_a,
        weight_delta_a=report_a.weight_delta_mean,
        weight_delta_b=report_b.weight_delta_mean,
        reassignments_a=report_a.reassignments,
        reassignments_b=report_b.reassignments,
        u_statistic=u,
        p_value=p,
    )


def run_paired(
    scenario: Scenario,
    keys: KeyRing,
    *,
    policy: Optional[PolicyConfig] = None,
) -> tuple[MetricsReport, MetricsReport]:
    """Static and adaptive arms of the same scenario under a shared seed."""
    from dataclasses import replace

    static = run_experiment(replace(scenario, policy="static"), keys, policy=policy)
    adaptive = run_experiment(replace(scenario, policy="adaptive"), keys, policy=policy)
    return static.report, adaptive.report
