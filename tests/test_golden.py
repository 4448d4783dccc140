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
        "038f8c6696f4b89130d08ea29447a0b3712c35ca1a36440bbe6c021c97e0c23d",
        "3391fac91c935e4846babf95af2b65519736d4415cead17f7f9aa899df376cea",
    ),
    "null-seed-201": (
        null_scenario(201),
        "ac77c62a374e489c395a1b53154c4e60facb96acd95b1cbb37ae1da3233b81d3",
        "8ba4082e510d81c60d0f9cdcc34fd4871879d3b64dcbc161c4ef5223693d293b",
        "7c57114163a8caad5672d4f3a966e2962f44808da4ccb960f4f15855888ac38b",
    ),
    "coach-bound-seed-1": (
        Scenario(
            name="coach-bound", seed=1, n_users=150, n_groups=8, n_coaches=2,
            capacity_min=20, capacity_max=26, coach_load_factor=0.9,
            horizon_weeks=10, w_pre=4, w_post=5,
        ),
        "3fe09370ccdd2c7ff8517384c2ebe5315681cee467b299e0f8f3f8057660960b",
        "d36094aced43e0110b707d4cee84d917319887cf7e2c534f94876c570bef6a10",
        "b2b33a154c24f9914f319911e8497f0dce94abb4a619543c5de0308382563024",
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
