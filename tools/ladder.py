"""Time the decision path, the cohort intake and the assistant pass of two
checkouts on a ladder of group counts.

Usage, from anywhere:

    python tools/ladder.py CHECKOUT_A CHECKOUT_B [--reps N] [--json PATH]

Each rung is one seed-1001 adaptive arm at 24, 96 or 384 groups, with
about 19.6 users a group, groups / 6 coaches, capacities 26-34, horizon
9, ``w_pre`` 4, ``w_post`` 5, match uplift 1 and misgroup fraction 0.3.
A worker process, which imports ``prism`` from one checkout's ``src``,
runs each rung's arm once and captures a copy of every decision epoch as
``_decide`` receives it. It then times ``_decide`` on a fresh copy of
each epoch, writing the trace lines into a buffer, with garbage
collection off inside the timed call as ``timeit`` has it. It also times
the rung's last epoch with every row decided one at a time, the lower
pass bound set above the epoch's row count: the cost of a per-user row.
It times ``generate_cohort`` once on each rung's scenario (470, 1880 and
7520 users), garbage collection off as above: the cost of intake per
user. Last, it runs each rung's arm into a run directory with every
assistant pass timed, garbage collection off inside each: the pass's
time over the arm, per flagged row (one draft each) and per grant (one
delivery restoration each), and the digests of the ``audit.jsonl`` and
``drafts.jsonl`` the arm wrote.

The workers alternate between the checkouts, A first on even
repetitions and B first on odd ones, one process at a time, ``--reps``
repetitions each (default 9). The report gives, per rung and checkout,
microseconds per decision: ``best`` sums each epoch's fastest time,
``median`` is the median over repetitions of the whole arm's time. It
also gives the per-user row's best time, and intake's microseconds per
user and the assistant pass's microseconds per flagged row and per
grant, each best and median over repetitions. It checks that both
checkouts wrote the same trace lines and made the same moves in every
epoch, and that they wrote the same ``audit.jsonl`` and ``drafts.jsonl``
bytes on every rung; it exits 1 when either differs.
"""

from __future__ import annotations

import argparse
import copy
import gc
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from unittest import mock

TOKEN_KEY_HEX, ENC_KEY_HEX = "11" * 32, "22" * 32
RUNGS = (24, 96, 384)


def rung_scenario(groups: int) -> dict:
    """The scenario fields of the rung with ``groups`` groups."""
    return dict(
        name=f"ladder-{groups}", seed=1001, policy="adaptive", n_users=groups * 470 // 24,
        n_groups=groups, n_coaches=groups // 6, capacity_min=26, capacity_max=34,
        horizon_weeks=9, w_pre=4, w_post=5, match_uplift=1.0, misgroup_fraction=0.3,
    )


def capture(groups: int) -> list[tuple]:
    """A copy of the arguments of every ``_decide`` call of the rung's arm."""
    from prism.simulator import Scenario, experiment, run_experiment
    from prism.vault import KeyRing

    captured, decide = [], experiment._decide

    def recording(roster, model, epoch, config, tables, traces, counters):
        captured.append(copy.deepcopy((roster, model, epoch, config, tables)))
        return decide(roster, model, epoch, config, tables, traces, counters)

    with mock.patch.object(experiment, "_decide", recording):
        run_experiment(Scenario(**rung_scenario(groups)), KeyRing.from_hex(TOKEN_KEY_HEX, ENC_KEY_HEX))
    return captured


def time_epoch(snapshot: tuple) -> tuple[float, str, int]:
    """Seconds ``_decide`` takes on a copy of ``snapshot``, the digest of
    the trace lines it writes, and its moves."""
    from prism.simulator import experiment

    roster, model, epoch, config, tables = copy.deepcopy(snapshot)
    model.drop_terms()
    traces, counters = io.StringIO(), Counter()
    # As timeit does, no garbage collection runs inside the timed call.
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        experiment._decide(roster, model, epoch, config, tables, traces, counters)
        seconds = time.perf_counter() - start
    finally:
        gc.enable()
    return seconds, hashlib.sha256(traces.getvalue().encode()).hexdigest(), counters["reassignments"]


def time_cohort(groups: int) -> float:
    """Microseconds per user that ``generate_cohort`` takes on the rung's scenario."""
    from prism.simulator import Scenario, generate_cohort
    from prism.vault import KeyRing

    scenario, keys = Scenario(**rung_scenario(groups)), KeyRing.from_hex(TOKEN_KEY_HEX, ENC_KEY_HEX)
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        generate_cohort(scenario, keys)
        seconds = time.perf_counter() - start
    finally:
        gc.enable()
    return 1e6 * seconds / scenario.n_users


RUN_FILES = ("audit.jsonl", "drafts.jsonl")


def time_assistant(groups: int) -> dict:
    """The rung's arm, run into a run directory with each assistant pass
    timed: microseconds per flagged row and per grant over the arm, and
    the digests of the arm's ``audit.jsonl`` and ``drafts.jsonl``."""
    from prism.simulator import Scenario, experiment, run_experiment
    from prism.vault import KeyRing

    assistant_pass, totals = experiment._assistant_pass, Counter()

    def timed(world, epoch, contexts, drafts, counters, memo):
        drafted, granted = len(drafts), counters["restoration_attempts"]
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            assistant_pass(world, epoch, contexts, drafts, counters, memo)
            totals["seconds"] += time.perf_counter() - start
        finally:
            gc.enable()
        totals["rows"] += len(drafts) - drafted
        totals["grants"] += counters["restoration_attempts"] - granted

    keys = KeyRing.from_hex(TOKEN_KEY_HEX, ENC_KEY_HEX)
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(experiment, "_assistant_pass", timed):
        out = Path(tmp) / "run"
        run_experiment(Scenario(**rung_scenario(groups)), keys, out_dir=str(out))
        files = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in RUN_FILES}
    return dict(
        assistant_rows=totals["rows"],
        assistant_grants=totals["grants"],
        assistant_us_per_row=1e6 * totals["seconds"] / max(totals["rows"], 1),
        assistant_us_per_grant=1e6 * totals["seconds"] / max(totals["grants"], 1),
        files=files,
    )


def worker() -> dict:
    """One repetition of every rung with the ``prism`` on the path."""
    from prism import assignment

    rungs = {}
    for groups in RUNGS:
        captured = capture(groups)
        epochs = {}
        for snapshot in captured:
            seconds, digest, moves = time_epoch(snapshot)
            epochs[snapshot[2]] = dict(ms=1e3 * seconds, digest=digest, moves=moves)
        n_users = len(captured[-1][0].user_tokens)
        with mock.patch.object(assignment, "_MIN_PASS_ROWS", n_users + 1):
            seconds, _, _ = time_epoch(captured[-1])
        rungs[groups] = dict(users=n_users, epochs=epochs, per_user_row_us=1e6 * seconds / n_users)
    for groups in RUNGS:
        rungs[groups]["cohort_us_per_user"] = time_cohort(groups)
    for groups in RUNGS:
        rungs[groups].update(time_assistant(groups))
    return rungs


def summary(reps: list[dict]) -> dict:
    """Per rung: microseconds per decision, best and median, the per-user
    row's best, and intake's microseconds per user, best and median, over
    the repetitions of one checkout."""
    out = {}
    for groups in RUNGS:
        runs = [rep[groups] for rep in reps]
        epochs = sorted(runs[0]["epochs"])
        decisions = runs[0]["users"] * len(epochs)
        best = sum(min(run["epochs"][e]["ms"] for run in runs) for e in epochs)
        median = statistics.median(sum(run["epochs"][e]["ms"] for e in epochs) for run in runs)
        out[f"{groups}_groups"] = dict(
            users=runs[0]["users"],
            best_epoch_ms={e: round(min(run["epochs"][e]["ms"] for run in runs), 2) for e in epochs},
            moves={e: runs[0]["epochs"][e]["moves"] for e in epochs},
            us_per_decision_best=round(1e3 * best / decisions, 2),
            us_per_decision_median=round(1e3 * median / decisions, 2),
            per_user_row_us_best=round(min(run["per_user_row_us"] for run in runs), 2),
            cohort_us_per_user_best=round(min(run["cohort_us_per_user"] for run in runs), 2),
            cohort_us_per_user_median=round(statistics.median(run["cohort_us_per_user"] for run in runs), 2),
            assistant_rows=runs[0]["assistant_rows"],
            assistant_grants=runs[0]["assistant_grants"],
        )
        for unit in ("row", "grant"):
            times = [run[f"assistant_us_per_{unit}"] for run in runs]
            out[f"{groups}_groups"][f"assistant_us_per_{unit}_best"] = round(min(times), 2)
            out[f"{groups}_groups"][f"assistant_us_per_{unit}_median"] = round(statistics.median(times), 2)
    return out


def same_decisions(a: list[dict], b: list[dict]) -> bool:
    """Whether every repetition of both checkouts wrote the same lines."""
    digests = {
        (groups, epoch, rep[groups]["epochs"][epoch]["digest"])
        for rep in a + b for groups in RUNGS for epoch in rep[groups]["epochs"]
    }
    return len(digests) == len({(groups, epoch) for groups, epoch, _ in digests})


def same_files(a: list[dict], b: list[dict]) -> bool:
    """Whether every repetition of both checkouts wrote the same run files."""
    return all(
        len({rep[groups]["files"][name] for rep in a + b}) == 1 for groups in RUNGS for name in RUN_FILES
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkouts", nargs=2, type=Path, help="two repository checkouts")
    parser.add_argument("--reps", type=int, default=9, help="repetitions per checkout")
    parser.add_argument("--json", type=Path, default=None, help="also write the summary here")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        json.dump(worker(), sys.stdout)
        return 0
    reps: list[list[dict]] = [[], []]
    for rep in range(args.reps):
        for side in (0, 1) if rep % 2 == 0 else (1, 0):
            checkout = args.checkouts[side].resolve()
            env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONDONTWRITEBYTECODE="1")
            argv = [sys.executable, str(Path(__file__).resolve()), *map(str, args.checkouts), "--worker"]
            done = subprocess.run(argv, env=env, check=True, capture_output=True, text=True)
            reps[side].append({int(g): r for g, r in json.loads(done.stdout).items()})
    result = {str(path): summary(side) for path, side in zip(args.checkouts, reps)}
    same = same_decisions(*reps)
    for rung in (f"{groups}_groups" for groups in RUNGS):
        for path in args.checkouts:
            row = result[str(path)][rung]
            print(
                f"{rung:>10} {str(path):<40} us/decision best {row['us_per_decision_best']:7.2f} "
                f"median {row['us_per_decision_median']:7.2f}  per-user row {row['per_user_row_us_best']:6.2f}  "
                f"intake us/user best {row['cohort_us_per_user_best']:6.2f} "
                f"median {row['cohort_us_per_user_median']:6.2f}  "
                f"assistant us/row best {row['assistant_us_per_row_best']:6.2f} "
                f"median {row['assistant_us_per_row_median']:6.2f}  "
                f"us/grant best {row['assistant_us_per_grant_best']:6.2f} "
                f"median {row['assistant_us_per_grant_median']:6.2f}"
            )
    files = same_files(*reps)
    print(f"same trace lines and moves in every epoch: {'yes' if same else 'no'}")
    print(f"same {' and '.join(RUN_FILES)} bytes on every rung: {'yes' if files else 'no'}")
    if args.json is not None:
        summary_doc = dict(result, same_decisions=same, same_run_files=files)
        args.json.write_text(json.dumps(summary_doc, indent=2) + "\n")
    return 0 if same and files else 1


if __name__ == "__main__":
    sys.exit(main())
