"""prism benchmark: closed-loop `prism simulate` / `prism compare` workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload paired-470x24 --seed 1 --seconds 30 --trace 0

``--workload all`` runs every workload in turn in this one process.
With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics named in BENCHMARK.json; with ``--trace 1`` it holds
the per-layer metrics of a traced run. The lines before it give the
behaviour fingerprint of every arm and the figures that are not
metrics. A run record (machine, versions, steal ticks, every unit) is
written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def _steal_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of the whole machine, from /proc/stat."""
    with open("/proc/stat", encoding="ascii") as fh:
        values = [int(v) for v in fh.readline().split()[1:]]
    return values[7], sum(values)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text(encoding="ascii").strip()
        return head
    except OSError:
        return "unknown"


def _machine() -> dict:
    import cryptography
    import numpy

    return {
        "git_sha": _git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cryptography": cryptography.__version__,
    }


def run_one(name: str, seed: int, seconds: int, trace: bool, spec: dict) -> dict:
    """One workload run: prints fingerprints, summary and the result line."""
    import harness

    workload = harness.WORKLOADS[name]
    steal_before = _steal_ticks()
    workdir = OUT / f"work-{os.getpid()}"
    try:
        result = harness.run_workload(workload, seed, seconds, trace, workdir, SRC)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    steal_after = _steal_ticks()

    units = result["units"]
    calls = [call for unit in units for call in unit.calls]
    failed = sum(1 for call in calls if call.problems)
    for call in calls:
        status = "ok" if not call.problems else "FAILED: " + "; ".join(call.problems)
        shas = " ".join(f"{k}={v}" for k, v in sorted(call.sha256.items()))
        print(f"{name} {call.label} {call.wall_s:.3f}s (norm {call.norm_s:.3f}s) {status} {shas}".rstrip())

    correct = failed == 0
    figures = harness.end_to_end(result)
    if trace:
        tracer = result["tracer"]
        traced = [u for u in units if u.traced]
        reference = next(u for u in units if not u.traced)
        stats = tracer.layer_stats(len(traced))
        stats["trace.overhead_frac"] = traced[0].wall_s / reference.wall_s - 1.0
        errors = tracer.accounting_errors()
        for error in errors:
            print(f"{name} span accounting: {error}")
        correct = correct and not errors
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / f"spans-{name}.jsonl")
        wanted = spec["per_layer"]
    else:
        stats = figures
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": stats[m["name"]], "unit": m["unit"]} for m in wanted}

    summary = {
        "units": len(units),
        **{k: figures[k] for k in ("decisions_per_s", "failed_frac", "host_factor",
                                   "wall_user_weeks_per_s", "wall_setup_s")},
        "steal_frac": (steal_after[0] - steal_before[0]) / max(1, steal_after[1] - steal_before[1]),
    }
    print(f"{name} summary " + json.dumps(summary, sort_keys=True))
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": _machine(),
        "steal_ticks": {"before": steal_before[0], "after": steal_after[0]},
        "summary": summary,
        "metrics": metrics,
        "setup_samples_s": result["setup_s"],
        "setup_wall_samples_s": result["setup_wall_s"],
        "units": [
            {
                "seed": u.seed,
                "traced": u.traced,
                "wall_s": u.wall_s,
                "norm_s": u.norm_s,
                "calls": [vars(call) for call in u.calls],
            }
            for u in units
        ],
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return {"correct": correct, "attempted": len(calls), "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "prism" / "__init__.py").is_file():
        print(f"error: no prism sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness

    names = list(harness.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in harness.WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]}; choose from {sorted(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for name in names:
        result = run_one(name, args.seed, args.seconds, bool(args.trace), spec)
        print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
