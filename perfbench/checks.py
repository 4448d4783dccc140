"""Output checks on one arm's run directory, and its behaviour fingerprint.

A run that exits 0 but breaks a privacy or accounting invariant counts
as failed, the same as a run that crashes.
"""

from __future__ import annotations

import hashlib
import json
from datetime import datetime
from pathlib import Path

from prism.vault import AuditLog, verify_audit_chain

_REVIEW_STATUSES = ("approved", "edited", "discarded", "pending")


def _scan(path: Path) -> tuple[str, int]:
    """sha256 and line count of a file, read in chunks."""
    digest, lines = hashlib.sha256(), 0
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
            lines += chunk.count(b"\n")
    return digest.hexdigest(), lines


def fingerprint(run_dir: Path) -> dict[str, str]:
    return {name: _scan(run_dir / name)[0] for name in ("metrics.json", "traces.jsonl")}


def check_run_dir(run_dir: Path, exit_code: int, expected_decisions: int) -> list[str]:
    """Every invariant the arm broke; empty when the arm is good."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        metrics = json.loads((run_dir / "metrics.json").read_text(encoding="utf-8"))
        gov, assistant = metrics["governance"], metrics["assistant"]
        _, trace_lines = _scan(run_dir / "traces.jsonl")
        log = AuditLog.from_jsonl(str(run_dir / "audit.jsonl"))
        entries = log.entries()
        stamps = [datetime.fromisoformat(entry.ts) for entry in entries]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable run directory: {exc!r}"]

    problems = []
    if metrics["violations"] != 0:
        problems.append(f"violations = {metrics['violations']}")
    if metrics["leak"]["leak_rate"] != 0:
        problems.append(f"leak rate = {metrics['leak']['leak_rate']}")
    if not gov["audit_chain_ok"]:
        problems.append("audit chain reported broken")
    if gov["restoration_attempts"] != gov["audit_entries"]:
        problems.append(
            f"{gov['restoration_attempts']} restoration attempts, {gov['audit_entries']} audit entries"
        )
    if assistant["drafts"] != sum(assistant[s] for s in _REVIEW_STATUSES):
        problems.append("drafts != approved + edited + discarded + pending")
    if assistant["delivered_leak_rate"] not in (None, 0):
        problems.append(f"delivered leak rate = {assistant['delivered_leak_rate']}")
    if metrics["decisions"] != expected_decisions:
        problems.append(f"{metrics['decisions']} decisions, expected {expected_decisions}")
    if trace_lines != expected_decisions:
        problems.append(f"{trace_lines} trace lines, expected {expected_decisions}")
    if len(entries) != gov["audit_entries"]:
        problems.append(f"audit.jsonl has {len(entries)} entries, metrics say {gov['audit_entries']}")
    ok, bad = verify_audit_chain(entries)
    if not ok:
        problems.append(f"audit.jsonl chain breaks at entry {bad}")
    if any(later < earlier for earlier, later in zip(stamps, stamps[1:])):
        problems.append("audit timestamps decrease")
    return problems


def check_compare_output(exit_code: int, stdout: str) -> list[str]:
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        table = json.loads(stdout.splitlines()[0])
        return [] if "mann_whitney" in table else ["comparison table has no rank-sum test"]
    except (IndexError, ValueError) as exc:
        return [f"unreadable comparison output: {exc!r}"]
