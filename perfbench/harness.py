"""Workloads and the closed-loop runner behind ``perfbench/run.py``.

A unit of work is what one user of ``prism`` would run by hand: the
arms of one seed through ``prism simulate`` (and, for paired
workloads, ``prism compare`` on the two run directories). Units run
one after another in this process, on one thread, while the next one
is expected to end within the time budget. Every run directory is checked, fingerprinted and
deleted before the next unit starts.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import prism.cli

from checks import check_compare_output, check_run_dir, fingerprint
from hostspeed import Sampler
from tracing import Tracer

# Fixed keys, as in the test suite: runs are reproducible from the seed alone.
KEYS = {"token_key": "11" * 32, "encryption_key": "22" * 32}
SETUP_REPEATS = 7
SETUP_PROBE = Path(__file__).resolve().parent / "setup_probe.py"


@dataclass(frozen=True)
class Workload:
    """One scenario and the arms each unit runs, in order."""

    scenario: dict
    arms: tuple[str, ...]
    compare: bool = False

    @property
    def user_weeks(self) -> int:
        return len(self.arms) * self.scenario["n_users"] * self.scenario["horizon_weeks"]

    def expected_decisions(self, arm: str) -> int:
        if arm != "adaptive":
            return 0
        s = self.scenario
        return s["n_users"] * (s["horizon_weeks"] - s["w_pre"])


# 1880 users in 96 groups under 16 coaches keeps the 470/24/4 ratios of
# the acceptance scenario (about 20 users per group, 6 groups per coach),
# so between the two adaptive workloads the group count is what changes
# the cost of a decision.
_LARGE = dict(n_users=1880, n_groups=96, n_coaches=16, capacity_min=26, capacity_max=34)

WORKLOADS = {
    # The acceptance effect scenario: the unit criterion 01 repeats 20 times.
    "paired-470x24": Workload(
        scenario=dict(
            name="bench-paired", n_users=470, n_groups=24, n_coaches=4,
            capacity_min=26, capacity_max=34, horizon_weeks=19, w_pre=8, w_post=11,
            match_uplift=1.0, misgroup_fraction=0.3,
        ),
        arms=("static", "adaptive"),
        compare=True,
    ),
    # Decisions start at week 4, when the initial dwell lock ends, and 9 is
    # the shortest horizon in which rewards mature (week-4 decisions
    # update the model at week 8 under the default 4-week reward window).
    "adaptive-1880x96": Workload(
        scenario=dict(
            name="bench-adaptive-large", **_LARGE, horizon_weeks=9, w_pre=4, w_post=5,
            match_uplift=1.0, misgroup_fraction=0.3,
        ),
        arms=("adaptive",),
    ),
    # No assignment, features or assistant work: every user posts every
    # week (redaction + leak audit) and 50 analyst probes a week take the
    # vault's deny path.
    "static-msg-1880x96": Workload(
        scenario=dict(
            name="bench-static-messages", **_LARGE, horizon_weeks=19, w_pre=8, w_post=11,
            message_prob=1.0, analyst_probes_per_week=50,
        ),
        arms=("static",),
    ),
}


@dataclass
class CallResult:
    """One `prism` invocation: its outcome, failed checks and fingerprint.
    ``wall_s`` leaves out the host-speed kernel's runs; ``norm_s`` is
    ``wall_s`` at the reference host speed (equal to it when traced)."""

    label: str
    exit_code: int
    wall_s: float
    norm_s: float
    decisions: int
    problems: list[str]
    sha256: dict = field(default_factory=dict)


@dataclass
class UnitResult:
    """One unit of work; ``wall_s`` and ``norm_s`` sum its `prism` calls,
    not the checks."""

    seed: int
    traced: bool
    wall_s: float
    norm_s: float
    user_weeks: int
    calls: list[CallResult]  # every prism invocation of the unit


def _call_cli(
    argv: list[str], tracer: Tracer | None, label: str
) -> tuple[int, float, float, str, str]:
    """Run ``prism <argv>`` in process; returns exit code, wall seconds,
    host-normalised seconds, stdout, stderr. Untraced calls run under a
    host-speed ``Sampler``; traced ones are not normalised."""
    out, err = io.StringIO(), io.StringIO()
    main = prism.cli.main if tracer is None else tracer.wrap("cli.main", prism.cli.main)
    sampler = Sampler() if tracer is None else None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if tracer is not None:
            tracer.arm = label
        started = time.perf_counter()
        try:
            with sampler or contextlib.nullcontext():
                code = main(argv)
        finally:
            wall = time.perf_counter() - started
            if tracer is not None:
                tracer.arm = None
    if sampler is None:
        return code, wall, wall, out.getvalue(), err.getvalue()
    return code, wall - sampler.busy_s, sampler.normalise(wall), out.getvalue(), err.getvalue()


def write_inputs(workload: Workload, workdir: Path) -> None:
    """The scenario and key files every `prism simulate` call of a run reads."""
    workdir.mkdir(parents=True, exist_ok=True)
    (workdir / "scenario.json").write_text(json.dumps(workload.scenario), encoding="utf-8")
    (workdir / "keys.json").write_text(json.dumps(KEYS), encoding="utf-8")


def run_unit(workload: Workload, workdir: Path, seed: int, tracer: Tracer | None) -> UnitResult:
    """Run, check and clean up one unit of work."""
    gc.collect()  # start every unit from the same heap, outside the timing
    tag = f"s{seed}{'-t' if tracer else ''}"
    invoked = []  # (arm, run dir or None, exit code, wall, norm, stdout, stderr)
    for arm in workload.arms:
        run_dir = workdir / f"{tag}-{arm}"
        argv = ["simulate", "--scenario", str(workdir / "scenario.json"), "--seed", str(seed),
                "--policy", arm, "--keys", str(workdir / "keys.json"), "--out", str(run_dir)]
        invoked.append((arm, run_dir, *_call_cli(argv, tracer, f"{tag}-{arm}")))
    if workload.compare:
        argv = ["compare", "--a", str(invoked[0][1]), "--b", str(invoked[1][1])]
        invoked.append(("compare", None, *_call_cli(argv, tracer, f"{tag}-compare")))

    results = []
    for arm, run_dir, code, wall, norm, stdout, stderr in invoked:
        if run_dir is None:
            problems, decisions, sha256 = check_compare_output(code, stdout), 0, {}
        else:
            decisions = workload.expected_decisions(arm)
            problems = check_run_dir(run_dir, code, decisions)
            sha256 = {} if problems else fingerprint(run_dir)
            shutil.rmtree(run_dir, ignore_errors=True)
        if code != 0:
            problems.append(stderr.strip()[-500:])
        results.append(
            CallResult(f"{tag}-{arm}", code, wall, norm, decisions if not problems else 0, problems, sha256)
        )
    return UnitResult(
        seed, tracer is not None, sum(r.wall_s for r in results), sum(r.norm_s for r in results),
        workload.user_weeks, results,
    )


def measure_setup(workdir: Path, seed: int, src: Path) -> tuple[list[float], list[float]]:
    """Process start to first cohort built, in fresh interpreters: the
    host-normalised and the wall seconds of each. The probe samples the
    host speed itself and reports its kernel time and factor."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    argv = [sys.executable, str(SETUP_PROBE), str(workdir / "scenario.json"),
            str(workdir / "keys.json"), str(seed)]
    norm, wall = [], []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - started
            proc.communicate(timeout=60)
        fields = line.split()
        if proc.returncode != 0 or len(fields) != 3 or fields[0] != "ready":
            raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
        busy_s, factor = float(fields[1]), float(fields[2])
        norm.append((elapsed - busy_s) / factor)
        wall.append(elapsed - busy_s)
    return norm, wall


def unit_seed(run_seed: int, index: int) -> int:
    """Distinct scenario seeds for every unit of every run seed."""
    return run_seed * 1000 + index


def run_workload(
    workload: Workload, seed: int, seconds: float, trace: bool, workdir: Path, src: Path
) -> dict:
    """Run units while the next one is expected to end within ``seconds``;
    at least one (traced) unit."""
    write_inputs(workload, workdir)
    setup, setup_wall = ([], []) if trace else measure_setup(workdir, unit_seed(seed, 0), src)
    units: list[UnitResult] = []
    tracer = Tracer() if trace else None
    started = time.perf_counter()
    if tracer is not None:
        # Untraced reference for the overhead figure, on the seed of the
        # first traced unit.
        units.append(run_unit(workload, workdir, unit_seed(seed, 0), None))
    with tracer.installed() if tracer else contextlib.nullcontext():
        index = 0
        while True:
            units.append(run_unit(workload, workdir, unit_seed(seed, index), tracer))
            index += 1
            elapsed = time.perf_counter() - started
            if elapsed + elapsed / len(units) > seconds:
                break
    return {
        "units": units,
        "setup_s": setup,
        "setup_wall_s": setup_wall,
        "tracer": tracer,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def end_to_end(result: dict) -> dict:
    """The untraced metrics, plus the figures only the summary line shows.
    The times in the metrics are host-normalised; the ``wall_`` figures
    and ``decisions_per_s`` are not."""
    units = [unit for unit in result["units"] if not unit.traced]
    calls = [call for unit in result["units"] for call in unit.calls]
    adaptive = [call for unit in units for call in unit.calls if call.label.endswith("-adaptive")]
    adaptive_wall = sum(call.wall_s for call in adaptive)
    user_weeks = sum(u.user_weeks for u in units)
    wall = sum(u.wall_s for u in units)
    norm = sum(u.norm_s for u in units)
    setup = result["setup_s"]
    return {
        "user_weeks_per_s": user_weeks / norm,
        "setup_s": statistics.median(setup) if setup else None,
        "peak_rss_mb": result["peak_rss_mb"],
        "wall_user_weeks_per_s": user_weeks / wall,
        "wall_setup_s": statistics.median(result["setup_wall_s"]) if setup else None,
        "host_factor": wall / norm,
        "decisions_per_s": sum(call.decisions for call in adaptive) / adaptive_wall if adaptive else None,
        "failed_frac": sum(1 for call in calls if call.problems) / len(calls),
    }
