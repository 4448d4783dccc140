"""Spans around the public names of each ``prism`` layer, from outside.

``Tracer.installed()`` replaces each name at the module (or class) its
callers look it up in, and restores the originals on exit. A wrapper
records a span (name, start, end, parent, arm) only while ``arm`` is
set, so the benchmark's own checks, which run between arms, are never
traced. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from collections import Counter
from pathlib import Path

import numpy as np

from prism.assignment import REASON_DWELL

PERCENTILE_MIN_CALLS = 1000

# (span name, "module[:Class]", attribute). A name listed twice has two
# call sites; both feed the same span name.
SPANS = (
    ("assignment.assign", "prism.simulator.experiment", "assign"),
    ("assignment.feasibility_report", "prism.assignment", "feasibility_report"),
    ("assignment.score_and_select", "prism.assignment", "score_and_select"),
    ("assignment.joint_features", "prism.assignment", "joint_features"),
    ("assignment.BanditModel.update", "prism.assignment:BanditModel", "update"),
    ("assignment.compute_reward", "prism.simulator.experiment", "compute_reward"),
    ("features.build_context", "prism.simulator.experiment", "build_context"),
    ("features.engagement_scores", "prism.simulator.experiment", "engagement_scores"),
    ("features.engagement_scores", "prism.features", "engagement_scores"),
    ("features.engagement_scores", "prism.assignment", "engagement_scores"),
    ("assistant.flag_risks", "prism.simulator.experiment", "flag_risks"),
    ("assistant.generate_draft", "prism.simulator.experiment", "generate_draft"),
    ("assistant.review", "prism.simulator.experiment", "review"),
    ("redaction.redact", "prism.simulator.world", "redact"),
    ("redaction.redact", "prism.simulator.experiment", "redact"),
    ("redaction.leak_audit", "prism.simulator.experiment", "leak_audit"),
    ("vault.Vault.register", "prism.vault:Vault", "register"),
    ("vault.Vault.restore_identity", "prism.vault:Vault", "restore_identity"),
    ("vault.AuditLog.append", "prism.vault:AuditLog", "append"),
    ("vault.verify_audit_chain", "prism.simulator.experiment", "verify_audit_chain"),
    ("simulator.generate_cohort", "prism.simulator.experiment", "generate_cohort"),
    ("simulator.step_week", "prism.simulator.experiment", "step_week"),
    ("simulator.step_messages", "prism.simulator.experiment", "step_messages"),
    ("simulator.group_activity_flags", "prism.simulator.experiment", "group_activity_flags"),
    ("simulator.group_engagement_means", "prism.simulator.experiment", "group_engagement_means"),
    ("simulator.World.audit_constraints", "prism.simulator.world:World", "audit_constraints"),
    ("simulator.run_experiment", "prism.cli", "run_experiment"),
    ("metrics.render_report", "prism.simulator.experiment", "render_report"),
    ("metrics.mann_whitney_u", "prism.simulator.experiment", "mann_whitney_u"),
)

# Called once per candidate group per decision: counted, not timed, and
# only when the caller is the same layer (the simulator's placement and
# constraint audit call it too).
COUNTED = (("assignment.CoachState.load", "prism.assignment:CoachState", "load"),)


def _observe_feasibility(counts: Counter, args, result) -> None:
    counts["groups_checked"] += len(result)
    counts["groups_feasible"] += sum(1 for reasons in result.values() if not reasons)
    counts["dwell_locked"] += any(REASON_DWELL in reasons for reasons in result.values())


# Outcome counters, taken where the work happens.
OBSERVERS = {
    "assignment.feasibility_report": _observe_feasibility,
    "assignment.assign": lambda c, args, r: c.update(moves=int(r.changed)),
    "assignment.compute_reward": lambda c, args, r: c.update(deferred=int(r is None)),
    "assistant.flag_risks": lambda c, args, r: c.update(flagged=int(bool(r))),
    "redaction.redact": lambda c, args, r: c.update(
        placeholders=sum(r.redaction_count_by_type.values())
    ),
    "redaction.leak_audit": lambda c, args, r: c.update(leak_docs=len(args[0])),
    "vault.Vault.restore_identity": lambda c, args, r: c.update(granted=int(r.granted)),
    "vault.verify_audit_chain": lambda c, args, r: c.update(chain_entries=len(args[0])),
}


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """In-memory span recorder for one single-threaded benchmark run."""

    def __init__(self) -> None:
        self.arm: str | None = None
        self.spans: list = []  # (name, start, end, parent index or -1, arm)
        self.counts: Counter = Counter()
        self._stack: list[tuple[int, str]] = []  # open spans: (index, name)

    def wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)

        def traced(*args, **kwargs):
            if self.arm is None:
                return fn(*args, **kwargs)
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1][0] if self._stack else -1
            self._stack.append((index, name))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.arm)
            if observe is not None:
                observe(self.counts, args, result)
            return result

        return traced

    def count(self, name: str, fn):
        """Count calls made from inside a span of the same layer."""
        layer = name.split(".", 1)[0] + "."

        def counted(*args, **kwargs):
            if self._stack and self._stack[-1][1].startswith(layer):
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def installed(self):
        originals = []
        try:
            for specs, make in ((SPANS, self.wrap), (COUNTED, self.count)):
                for name, owner, attr in specs:
                    target = _resolve(owner)
                    original = getattr(target, attr)
                    originals.append((target, attr, original))
                    setattr(target, attr, make(name, original))
            yield self
        finally:
            for target, attr, original in reversed(originals):
                setattr(target, attr, original)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, arm in self.spans:
                fh.write(json.dumps([name, start, end, parent, arm]) + "\n")

    # -- analysis -----------------------------------------------------------

    def _durations(self) -> tuple[np.ndarray, np.ndarray]:
        """Each span's duration and the time its direct children cover."""
        n = len(self.spans)
        dur = np.fromiter((s[2] - s[1] for s in self.spans), dtype=float, count=n)
        parent = np.fromiter((s[3] for s in self.spans), dtype=np.int64, count=n)
        child_time = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child_time, parent[has_parent], dur[has_parent])
        return dur, child_time

    def accounting_errors(self) -> list[str]:
        """Each run_experiment span must equal its self time plus its
        children: every child lies inside it and no two children overlap."""
        children: dict[int, list[int]] = {}
        for i, span in enumerate(self.spans):
            children.setdefault(span[3], []).append(i)
        errors = []
        for i, (name, start, end, _, arm) in enumerate(self.spans):
            if name != "simulator.run_experiment":
                continue
            cursor = start
            for k in sorted(children.get(i, []), key=lambda k: self.spans[k][1]):
                child, child_start, child_end = self.spans[k][:3]
                if child_start < cursor or child_end > end:
                    errors.append(f"{arm}: child span {child} leaves run_experiment or overlaps")
                cursor = child_end
        return errors

    def layer_stats(self, units: int) -> dict[str, float]:
        """Per-unit calls, busy and self time for every span name, plus
        percentiles over all calls and the outcome ratios."""
        dur, child_time = self._durations()
        names = np.array([s[0] for s in self.spans], dtype=object)
        stats: dict[str, float] = {}
        for name in {spec[0] for spec in SPANS} | {"cli.main"}:
            mask = names == name
            calls = int(mask.sum())
            d = dur[mask]
            enough = calls >= PERCENTILE_MIN_CALLS
            stats[f"{name}.calls"] = calls / units
            stats[f"{name}.total_s"] = float(d.sum()) / units
            stats[f"{name}.self_s"] = float((d - child_time[mask]).sum()) / units
            stats[f"{name}.p50_us"] = float(np.percentile(d, 50)) * 1e6 if enough else 0.0
            stats[f"{name}.p99_us"] = float(np.percentile(d, 99)) * 1e6 if enough else 0.0
        for name, _, _ in COUNTED:
            stats[f"{name}.calls"] = self.counts[name] / units

        c = self.counts

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        raw = lambda name: stats[f"{name}.calls"] * units
        stats["assignment.feasible_ratio"] = ratio(c["groups_feasible"], c["groups_checked"])
        stats["assignment.dwell_locked_ratio"] = ratio(c["dwell_locked"], raw("assignment.feasibility_report"))
        stats["assignment.move_ratio"] = ratio(c["moves"], raw("assignment.assign"))
        stats["assignment.compute_reward.deferred_ratio"] = ratio(c["deferred"], raw("assignment.compute_reward"))
        stats["assistant.flag_risks.flagged_ratio"] = ratio(c["flagged"], raw("assistant.flag_risks"))
        stats["redaction.redact.placeholders"] = c["placeholders"] / units
        stats["redaction.leak_audit.docs"] = c["leak_docs"] / units
        stats["redaction.leak_audit.us_per_doc"] = ratio(
            stats["redaction.leak_audit.total_s"] * 1e6, stats["redaction.leak_audit.docs"]
        )
        stats["vault.Vault.restore_identity.granted_ratio"] = ratio(c["granted"], raw("vault.Vault.restore_identity"))
        stats["vault.verify_audit_chain.entries"] = c["chain_entries"] / units
        stats["vault.verify_audit_chain.us_per_entry"] = ratio(
            stats["vault.verify_audit_chain.total_s"] * 1e6, stats["vault.verify_audit_chain.entries"]
        )
        return stats
