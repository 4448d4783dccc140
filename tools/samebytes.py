"""Compare the run files of two checkouts of this repository.

Usage, from anywhere:

    python tools/samebytes.py CHECKOUT_A CHECKOUT_B [--limit N]

Each checkout runs the same fixed run set, with the fixed test keys, in
one process of its own that imports ``prism`` from the checkout's
``src``. The set is 84 runs: both arms of the acceptance effect scenario
at seeds 1-20 and of the null scenario at seeds 201-220, the
adaptive-1880x96 workload's scenario at seeds 1001-1002 and the
static-msg-1880x96 workload's at the same seeds. ``--limit N`` runs only
the first N runs of that order.

The report gives, per file name, how many runs wrote different bytes,
then whether the chosen group of every trace line matches (epoch, user
and chosen group, line by line) and whether every ``metrics.json``
matches. Its last line sums these up. The exit code is 0 when every
file of every run has the same bytes in both checkouts, and 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

TOKEN_KEY_HEX, ENC_KEY_HEX = "11" * 32, "22" * 32

_EFFECT = dict(
    name="acceptance-effect", n_users=470, n_groups=24, n_coaches=4, capacity_min=26,
    capacity_max=34, horizon_weeks=19, w_pre=8, w_post=11, match_uplift=1.0,
    misgroup_fraction=0.3,
)
_NULL = dict(
    name="acceptance-null", n_users=150, n_groups=8, n_coaches=2, capacity_min=24,
    capacity_max=30, horizon_weeks=19, w_pre=8, w_post=11, match_uplift=0.0,
    activity_uplift=0.0, engagement_match_bonus=0.0, misgroup_fraction=0.3,
)
_LARGE = dict(n_users=1880, n_groups=96, n_coaches=16, capacity_min=26, capacity_max=34)
_ADAPTIVE_LARGE = dict(
    name="bench-adaptive-large", **_LARGE, horizon_weeks=9, w_pre=4, w_post=5,
    match_uplift=1.0, misgroup_fraction=0.3,
)
_STATIC_MESSAGES = dict(
    name="bench-static-messages", **_LARGE, horizon_weeks=19, w_pre=8, w_post=11,
    message_prob=1.0, analyst_probes_per_week=50,
)


def run_set() -> list[tuple[str, dict]]:
    """(run name, scenario fields) of every run, in order."""
    runs = []
    for label, base, seeds in (("effect", _EFFECT, range(1, 21)), ("null", _NULL, range(201, 221))):
        for seed in seeds:
            for policy in ("static", "adaptive"):
                runs.append((f"{label}-{seed}-{policy}", dict(base, seed=seed, policy=policy)))
    for label, base, policy in (
        ("adaptive-1880x96", _ADAPTIVE_LARGE, "adaptive"),
        ("static-msg-1880x96", _STATIC_MESSAGES, "static"),
    ):
        for seed in (1001, 1002):
            runs.append((f"{label}-{seed}", dict(base, seed=seed, policy=policy)))
    return runs


def worker(out: Path, limit: int) -> None:
    """Write every run directory under ``out``, with the ``prism`` on the path."""
    from prism.simulator import Scenario, run_experiment
    from prism.vault import KeyRing

    keys = KeyRing.from_hex(TOKEN_KEY_HEX, ENC_KEY_HEX)
    for name, fields in run_set()[:limit]:
        run_experiment(Scenario(**fields), keys, out_dir=str(out / name))


def chosen_groups(path: Path) -> list[tuple]:
    """(epoch, user, chosen group) of each line of a ``traces.jsonl``."""
    with open(path, encoding="utf-8") as fh:
        docs = [json.loads(line) for line in fh]
    return [(doc["epoch"], doc["user_token"], doc["chosen"]) for doc in docs]


def compare(a: Path, b: Path, names: list[str]) -> tuple[list[str], bool]:
    """The report lines of two run sets, and whether every file matched."""
    differing: dict[str, int] = {}
    chosen_differ, metrics_differ, n_files = [], [], 0
    for name in names:
        files = sorted({p.name for p in (a / name).iterdir()} | {p.name for p in (b / name).iterdir()})
        for file in files:
            n_files += 1
            pa, pb = a / name / file, b / name / file
            same = pa.is_file() and pb.is_file() and pa.read_bytes() == pb.read_bytes()
            differing[file] = differing.get(file, 0) + (not same)
            if file == "metrics.json" and not same:
                metrics_differ.append(name)
            if file == "traces.jsonl" and not same:
                if not (pa.is_file() and pb.is_file()) or chosen_groups(pa) != chosen_groups(pb):
                    chosen_differ.append(name)
    lines = [f"{file}: {count}/{len(names)} runs differ" for file, count in sorted(differing.items())]
    lines += [f"chosen group differs: {name}" for name in chosen_differ]
    lines += [f"metrics.json differs: {name}" for name in metrics_differ]
    changed = sum(differing.values())
    lines.append(
        f"samebytes: {len(names)} runs, {n_files} files, {changed} differ; "
        f"chosen groups same in {len(names) - len(chosen_differ)}/{len(names)} runs; "
        f"metrics.json same in {len(names) - len(metrics_differ)}/{len(names)} runs"
    )
    return lines, changed == 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkouts", nargs=2, type=Path, help="two repository checkouts")
    parser.add_argument("--limit", type=int, default=None, help="run only the first N runs")
    parser.add_argument("--worker", type=Path, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    limit = len(run_set()) if args.limit is None else args.limit
    if args.worker is not None:
        worker(args.worker, limit)
        return 0
    names = [name for name, _ in run_set()[:limit]]
    with tempfile.TemporaryDirectory(prefix="samebytes-") as work:
        procs, outs = [], []
        for i, checkout in enumerate(args.checkouts):
            out = Path(work, f"checkout-{i}")
            env = dict(os.environ, PYTHONPATH=str(checkout.resolve() / "src"), PYTHONDONTWRITEBYTECODE="1")
            argv = [sys.executable, str(Path(__file__).resolve()), *map(str, args.checkouts),
                    "--limit", str(limit), "--worker", str(out)]
            procs.append(subprocess.Popen(argv, env=env))
            outs.append(out)
        codes = [proc.wait() for proc in procs]
        if any(codes):
            print(f"samebytes: a checkout's runs failed, exit codes {codes}", file=sys.stderr)
            return 2
        lines, same = compare(*outs, names)
    print("\n".join(lines))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
