"""Golden digests: the exact bytes of a few adaptive runs.

The effect and null runs are the acceptance scenarios. The coach-bound
run has a coach load factor low enough that ``coach_load_full`` appears
in its traces, alone and together with ``capacity_full`` and
``goal_mismatch``, so every reason the simulator emits is pinned.

Each run pins four digests: ``metrics.json``; ``traces.jsonl`` (trace
schema 3); the trace lines decoded by ``TraceLegend.decode`` and written
as ``json.dumps`` lines, which is the schema-2 file; and the lines
expanded to the ``trace_dict`` form and written as ``json.dumps(...,
sort_keys=True)`` lines, which is the schema-1 file. Both older texts
are the files those schemas would write for the same decisions, so they
show that schema 3, which derives ``score`` instead of storing it, loses
nothing.

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

from prism.simulator import Scenario, TraceLegend, run_experiment

GOLDEN = {
    "effect-seed-1": (
        effect_scenario(1),
        "372e6991f1637f6e297925e97f60c3f4bc8b60c09b43e91b1913d21feec46fcf",
        "60d0d7eae54a3a69d0c97b497a487fbb47b86b7291e949a2ededfe8fe4ddf734",
        "462c065310fa280fc0d8caf498edefbae908ff0e36b226983b57847f58e1b4b9",
        "bf693120e884228d383a28bbe267a22789168c0ed1b3ec214cb72bf9295ae192",
    ),
    "null-seed-201": (
        null_scenario(201),
        "ac77c62a374e489c395a1b53154c4e60facb96acd95b1cbb37ae1da3233b81d3",
        "6ac536712644a4d2acb27a00e43fa4062c76d0b04fce8541001f73603a0bc3ac",
        "2103db3d4a505dfe9b941b0e1ea4641b55a030a86e4f1412ac54b7ff594613b6",
        "e7e492578523fb8396b1559a0b20e4c03321f36b0723243d8d95628a0f0e8576",
    ),
    "coach-bound-seed-1": (
        Scenario(
            name="coach-bound", seed=1, n_users=150, n_groups=8, n_coaches=2,
            capacity_min=20, capacity_max=26, coach_load_factor=0.9,
            horizon_weeks=10, w_pre=4, w_post=5,
        ),
        "3fe09370ccdd2c7ff8517384c2ebe5315681cee467b299e0f8f3f8057660960b",
        "6e278f61e256a4684e30fe77227479628870e3e69451ca9edbeec0a3a6f7c2c5",
        "6f97a674003c29f941a90ea040315a9b5a058c4e728681dd78c77784aef9b4ff",
        "c97f44471aca61745f52174bcefbfc71b069d2fbfb90634c73fdc3006308cee9",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digests(name, tmp_path):
    scenario, metrics_sha, traces_sha, schema2_sha, expanded_sha = GOLDEN[name]
    run_experiment(replace(scenario, policy="adaptive"), KEYS, out_dir=str(tmp_path))
    digest = lambda f: hashlib.sha256(pathlib.Path(tmp_path, f).read_bytes()).hexdigest()
    assert digest("metrics.json") == metrics_sha
    assert digest("traces.jsonl") == traces_sha
    manifest = json.loads(pathlib.Path(tmp_path, "manifest.json").read_text(encoding="utf-8"))
    legend = TraceLegend.from_manifest(manifest)
    with open(tmp_path / "traces.jsonl", encoding="utf-8") as fh:
        lines = fh.readlines()
    schema2 = "".join(json.dumps(legend.decode(line)) + "\n" for line in lines)
    assert hashlib.sha256(schema2.encode("utf-8")).hexdigest() == schema2_sha
    expanded = "".join(
        json.dumps(decode_trace_line(line, manifest), sort_keys=True) + "\n" for line in lines
    )
    assert hashlib.sha256(expanded.encode("utf-8")).hexdigest() == expanded_sha
