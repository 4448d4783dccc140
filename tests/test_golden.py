"""Golden digests: the exact bytes of a few adaptive runs.

The effect and null runs are the acceptance scenarios. The coach-bound
run has a coach load factor low enough that ``coach_load_full`` appears
in its traces, alone and together with ``capacity_full`` and
``goal_mismatch``, so every reason the simulator emits is pinned.

Each run pins three digests: ``metrics.json``, ``traces.jsonl``, and
the trace lines decoded with the manifest's legend and written as
``json.dumps(trace_dict, sort_keys=True)`` lines. That last text is the
trace schema 1 file, so its digests are the ones schema 1 pinned: the
compact lines lose nothing.

A change that alters these bytes on purpose updates the digest here and
says why in CHANGES.md. Floating-point reductions are part of the bytes,
so reordering a sum is such a change.
"""

import hashlib
import json
import pathlib
from dataclasses import replace

import pytest

from conftest import decode_trace_line
from test_acceptance import KEYS, effect_scenario, null_scenario

from prism.simulator import Scenario, run_experiment

GOLDEN = {
    "effect-seed-1": (
        effect_scenario(1),
        "372e6991f1637f6e297925e97f60c3f4bc8b60c09b43e91b1913d21feec46fcf",
        "bdae3d1e0f207a10bc562845675ce4fb3e97105510caedbfadd11deaab3314cf",
        "e3768c0757241186789db50c01799e2140fc277e89645649389e88316f958108",
    ),
    "null-seed-201": (
        null_scenario(201),
        "ac77c62a374e489c395a1b53154c4e60facb96acd95b1cbb37ae1da3233b81d3",
        "e07f11bbffcc35fd66bced111bb20b18322899d04b6d121520e7385d0e0035cf",
        "af607c5ad816483eb121d3c187aa0ca0ab1a6435f56b98c1b73c1532dc2acff8",
    ),
    "coach-bound-seed-1": (
        Scenario(
            name="coach-bound", seed=1, n_users=150, n_groups=8, n_coaches=2,
            capacity_min=20, capacity_max=26, coach_load_factor=0.9,
            horizon_weeks=10, w_pre=4, w_post=5,
        ),
        "3fe09370ccdd2c7ff8517384c2ebe5315681cee467b299e0f8f3f8057660960b",
        "a042edc1ce8cb327f1853c9ffdc096cd640d584ba4f90c5f0dfcd8c09e7a5c62",
        "e1ee7155e9c9843cb4904a49017a82205d7a371cb3edcd368263ee3c073cf25f",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digests(name, tmp_path):
    scenario, metrics_sha, traces_sha, expanded_sha = GOLDEN[name]
    run_experiment(replace(scenario, policy="adaptive"), KEYS, out_dir=str(tmp_path))
    digest = lambda f: hashlib.sha256(pathlib.Path(tmp_path, f).read_bytes()).hexdigest()
    assert digest("metrics.json") == metrics_sha
    assert digest("traces.jsonl") == traces_sha
    legend = json.loads(pathlib.Path(tmp_path, "manifest.json").read_text(encoding="utf-8"))
    with open(tmp_path / "traces.jsonl", encoding="utf-8") as fh:
        expanded = "".join(
            json.dumps(decode_trace_line(line, legend), sort_keys=True) + "\n" for line in fh
        )
    assert hashlib.sha256(expanded.encode("utf-8")).hexdigest() == expanded_sha
