"""Single entry point: simulate / compare / inspect / leak-audit /
tokenize-demo / restore-demo / review.

Exit codes: 0 success, 1 validation or configuration error, 2 internal
error, 3 privacy-violation abort (constraint breach or leakage), so CI
can alarm on the privacy class specifically. No subcommand ever prints
key material or raw identity values.
"""

from __future__ import annotations

import argparse
import json
import os
import secrets
import shutil
import sys
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from ._version import __version__
from .assignment import PolicyConfig
from .assistant import _leak_check, load_drafts, review, save_drafts
from .errors import (
    ConstraintViolationError,
    LeakageError,
    PrismError,
    ValidationError,
)
from .features import DEFAULT_ACTION_WEIGHTS, check_engagement_alphas
from .metrics import MetricsReport
from .records import Record
from .redaction import default_rules, leak_audit, load_deid_corpus, load_rules
from .simulator import Scenario, TraceLegend, compare_arms, run_experiment
from .vault import (
    FIELD_CONTEXTS,
    KeyRing,
    RestorationRequest,
    ROLES,
    Vault,
    tokenize_field,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INTERNAL = 2
EXIT_PRIVACY = 3


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exit code 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise ValidationError(f"{self.prog}: {message}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="prism", description=__doc__)
    parser.add_argument("--version", action="version", version=f"prism {__version__}")
    sub = parser.add_subparsers(dest="command")

    p_sim = sub.add_parser("simulate", help="run one or more seeded scenario simulations")
    p_sim.add_argument("--scenario", required=True, help="scenario JSON file")
    p_sim.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_sim.add_argument("--seeds", default=None, help="inclusive seed range A..B; runs in parallel")
    p_sim.add_argument("--out", required=True, help="run directory (per-seed subdirs for --seeds)")
    p_sim.add_argument("--policy", choices=("static", "adaptive"), default=None)
    p_sim.add_argument("--config", default=None, help="JSON file with policy overrides")
    p_sim.add_argument("--keys", default=None, help="key config JSON (default: environment)")

    p_cmp = sub.add_parser("compare", help="compare two run directories")
    p_cmp.add_argument("--a", required=True, help="first run directory")
    p_cmp.add_argument("--b", required=True, help="second run directory")

    p_ins = sub.add_parser("inspect", help="print a run's trace lines as trace schema 2 fields")
    p_ins.add_argument("run", help="run directory")
    p_ins.add_argument("--epoch", type=int, default=None, help="only decisions of this epoch")
    p_ins.add_argument("--user", default=None, help="only decisions of this user token")

    p_leak = sub.add_parser("leak-audit", help="leak-audit a de-identified JSONL corpus")
    p_leak.add_argument("--in", dest="infile", required=True)
    p_leak.add_argument("--rules", default=None, help="rules JSON (default: built-in rules)")

    p_tok = sub.add_parser("tokenize-demo", help="tokenize one field value")
    p_tok.add_argument("--value", required=True)
    p_tok.add_argument("--context", required=True, choices=FIELD_CONTEXTS)
    p_tok.add_argument("--keys", default=None)

    p_res = sub.add_parser("restore-demo", help="walk one restoration attempt on a demo vault")
    p_res.add_argument("--requester", default="demo-coach")
    p_res.add_argument("--role", required=True, choices=ROLES)
    p_res.add_argument("--mfa", action=argparse.BooleanOptionalAction, default=True)
    p_res.add_argument("--purpose", default="deliver message")
    p_res.add_argument("--keys", default=None)

    p_rev = sub.add_parser("review", help="decide a pending draft inside a run directory")
    p_rev.add_argument("--run", required=True, help="run directory containing drafts.jsonl")
    p_rev.add_argument("--draft", required=True, help="draft id")
    p_rev.add_argument("--decision", required=True, choices=("approve", "edit", "discard"))
    p_rev.add_argument("--text", default=None, help="replacement text for edit decisions")
    p_rev.add_argument("--reviewer", default="cli-reviewer")
    p_rev.add_argument("--rules", default=None)

    return parser


def _load_keys(keys_path: Optional[str]) -> KeyRing:
    return KeyRing.from_config(keys_path) if keys_path else KeyRing.from_env()


@dataclass(frozen=True)
class RunConfig(Record):
    """The ``--config`` file: assignment policy overrides, weekly-score
    weights and a key file path. A section left out keeps its default, and
    an empty key path means the environment's keys."""

    policy: PolicyConfig = PolicyConfig()
    engagement_alphas: tuple[float, ...] = DEFAULT_ACTION_WEIGHTS
    keys: str = ""

    def __post_init__(self) -> None:
        # Checked where the file is read, not when the pre-period ends.
        check_engagement_alphas(self.engagement_alphas)


def _load_config(config_path: Optional[str]) -> RunConfig:
    if not config_path:
        return RunConfig()
    try:
        with open(config_path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise ValidationError(f"cannot read config file {config_path}: {exc}") from exc
    return RunConfig.from_dict(doc)


def _simulate_one(scenario: Scenario, out_dir: str, config: RunConfig, keys_path: str) -> str:
    run_experiment(
        scenario,
        _load_keys(keys_path),
        policy=config.policy,
        engagement_alphas=config.engagement_alphas,
        out_dir=out_dir,
        key_source=keys_path or "env",
    )
    return out_dir


def _cmd_simulate(args) -> int:
    scenario = Scenario.from_json_file(args.scenario)
    if args.policy:
        scenario = replace(scenario, policy=args.policy)
    config = _load_config(args.config)
    keys_path = args.keys or config.keys  # flag beats config file
    _load_keys(keys_path)  # fail fast before spawning anything

    if args.seeds:
        try:
            lo, hi = (int(part) for part in args.seeds.split("..", 1))
        except ValueError as exc:
            raise ValidationError("--seeds expects an inclusive range like 1..20") from exc
        if hi < lo:
            raise ValidationError("--seeds range must be non-decreasing")
        jobs = [(replace(scenario, seed=seed), os.path.join(args.out, f"seed-{seed}"))
                for seed in range(lo, hi + 1)]
        workers = min(len(jobs), os.cpu_count() or 1)
        # Imported in the one branch that uses it, so that no other command
        # pays for the process pool's import at start.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_simulate_one, job, out, config, keys_path) for job, out in jobs]
            for future in futures:
                print(f"wrote {future.result()}")
        return EXIT_OK

    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)
    print(f"wrote {_simulate_one(scenario, args.out, config, keys_path)}")
    return EXIT_OK


def _cmd_compare(args) -> int:
    reports = []
    for run_dir in (args.a, args.b):
        path = os.path.join(run_dir, "metrics.json")
        try:
            with open(path, "r", encoding="utf-8") as fh:
                reports.append(MetricsReport.from_json(fh.read()))
        except OSError as exc:
            raise ValidationError(f"cannot read {path}: {exc}") from exc
        except (ValueError, RecursionError, ValidationError) as exc:
            raise ValidationError(f"{path} is not a metrics report: {exc}") from exc
    table = compare_arms(reports[0], reports[1])
    print(json.dumps(table.to_dict(), sort_keys=True))
    print(table.render_text())
    return EXIT_OK


def _cmd_inspect(args) -> int:
    path = os.path.join(args.run, "manifest.json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            legend = TraceLegend.from_manifest(json.load(fh))
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"{path} is not JSON: {exc}") from exc
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    path = os.path.join(args.run, "traces.jsonl")
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    with fh:
        # Every line is decoded, so a malformed line fails the command
        # whether or not it is selected.
        for number, raw in enumerate(fh, 1):
            try:
                doc = legend.decode(raw.decode("utf-8"))
            except (ValidationError, UnicodeDecodeError) as exc:
                raise ValidationError(f"{path} line {number}: {exc}") from exc
            if args.epoch in (None, doc["epoch"]) and args.user in (None, doc["user_token"]):
                print(json.dumps(doc))
    return EXIT_OK


def _cmd_leak_audit(args) -> int:
    rules = load_rules(args.rules) if args.rules else default_rules()
    try:
        samples = load_deid_corpus(args.infile)
    except OSError as exc:
        raise ValidationError(f"cannot read {args.infile}: {exc}") from exc
    report = leak_audit(samples, rules)
    print(json.dumps(report.to_dict(), sort_keys=True))
    return EXIT_OK


def _cmd_tokenize_demo(args) -> int:
    keys = _load_keys(args.keys)
    token = tokenize_field(args.value, args.context, keys)
    # The raw value is intentionally not echoed back.
    print(json.dumps({"field_context": token.field_context, "token": token.value}))
    return EXIT_OK


def _cmd_restore_demo(args) -> int:
    keys = _load_keys(args.keys)
    vault = Vault(keys)
    token = vault.register(
        {"full_name": "Demo Subject", "email": "demo.subject@example-mail.test"}
    )
    result = vault.restore_identity(
        RestorationRequest(
            requester_id=args.requester,
            role=args.role,
            mfa_verified=args.mfa,
            user_token=token,
            purpose=args.purpose,
        )
    )
    # Field names only; restored values never reach stdout.
    print(
        json.dumps(
            {
                "decision": "granted" if result.granted else "denied",
                "denial_reason": result.denial_reason,
                "restored_fields": sorted(result.fields) if result.fields else [],
                "audit_seq": result.audit_seq,
                "audit_entries": len(vault.audit_log),
            }
        )
    )
    return EXIT_OK


def _cmd_review(args) -> int:
    path = os.path.join(args.run, "drafts.jsonl")
    try:
        drafts = load_drafts(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    target = next((d for d in drafts if d.draft_id == args.draft), None)
    if target is None:
        raise ValidationError(f"draft {args.draft} not found in {path}")
    rules = load_rules(args.rules) if args.rules else default_rules()
    if args.decision == "approve":
        # The file may have been edited since the run wrote it, so an
        # approve re-scans the text; a hit leaves the file untouched.
        _leak_check(target.rendered_text, rules, f"draft {target.draft_id}")
    review(target, args.reviewer, args.decision, new_text=args.text, rules=rules)
    _replace_drafts(drafts, path)
    print(json.dumps(target.to_dict(), sort_keys=True))
    return EXIT_OK


def _replace_drafts(drafts, path: str) -> None:
    """Rewrite the drafts file ``path`` through a new file beside it, with
    the same permissions, renamed over it once written: a write that fails
    leaves ``path`` as it was, and no new file behind."""
    parent, name = os.path.split(os.path.abspath(path))
    staging = os.path.join(parent, f".{name}.{secrets.token_hex(8)}.partial")
    try:
        save_drafts(drafts, staging)
        shutil.copymode(path, staging)
        os.replace(staging, path)
    except BaseException:
        if os.path.exists(staging):
            os.remove(staging)
        raise


_COMMANDS = {
    "simulate": _cmd_simulate,
    "compare": _cmd_compare,
    "inspect": _cmd_inspect,
    "leak-audit": _cmd_leak_audit,
    "tokenize-demo": _cmd_tokenize_demo,
    "restore-demo": _cmd_restore_demo,
    "review": _cmd_review,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            parser.print_usage(sys.stderr)
            return EXIT_VALIDATION
        return _COMMANDS[args.command](args)
    except (ConstraintViolationError, LeakageError) as exc:
        print(f"privacy violation: {exc}", file=sys.stderr)
        return EXIT_PRIVACY
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if str(exc).startswith("prism"):  # parser-level usage problem
            parser.print_usage(sys.stderr)
        return EXIT_VALIDATION
    except PrismError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except BrokenPipeError:
        # The reader of stdout left early, as in ``prism inspect RUN | head``.
        # Point stdout at devnull so the flush at exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
