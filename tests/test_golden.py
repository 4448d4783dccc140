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

Each run also pins the vault's bytes: ``audit.jsonl``, and the cohort's
rows, one line per user of their token and the hex of their stored
ciphertext (nonce first), which fixes every subject id and nonce drawn.

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

from prism.simulator import Scenario, TraceLegend, generate_cohort, run_experiment

GOLDEN = {
    "effect-seed-1": (
        effect_scenario(1),
        "200bb1e6ca1d11328a1657c1605358a3226bfb2127a6d340d3aa5e58ecbe220b",
        "23efea944a3e94aa223cc13e657d0cbf35c174857e257e2420e900dd96c2d7d7",
        "76f496b1ddd61a0c075573deeb7d0ff02f9d0b5679df342484c5af13ed9e223a",
        "6a256e5c7a29da1dd74fb6078fd4633506a54d93b2158e1e928d832e7978c997",
    ),
    "null-seed-201": (
        null_scenario(201),
        "025c5bb6ff68a21c7150163003e2794135576cdd173e7881a9c4314e2f7cabc5",
        "83cfaee322fa9e77709cb7862cdaf1d3221954e5d627968db68883b1d7b924e3",
        "03342cef270c7f0ca2ef37074065afc1a9d80fa6a7ce3fc9a286c3753b56bd09",
        "7959ee983ca31e99b04dbc76a1bfd9582b27684e0a64da7fdd00e92958fb6549",
    ),
    "coach-bound-seed-1": (
        Scenario(
            name="coach-bound", seed=1, n_users=150, n_groups=8, n_coaches=2,
            capacity_min=20, capacity_max=26, coach_load_factor=0.9,
            horizon_weeks=10, w_pre=4, w_post=5,
        ),
        "68be1a0ef82c895040d0fba18bbb1eb099f6794e6592edd117f5bbfd67541894",
        "f247a79a739862b61b845feee7a444245edf684a2d61210efb3efe12414df772",
        "946fb8ffaceb7d59e88a3c2153b68f957a477c38d6afd9c83ed9cc47b6fd4a1c",
        "d8c97e56b4f20cbede49c2865a8c6ff9a1c7ad5b4a48845532e85e68652d2f5b",
    ),
}


# (audit.jsonl, cohort rows) per run, as above.
VAULT_GOLDEN = {
    "effect-seed-1": (
        "fe38a86c33e75f70e2fcfe706a34b19222dcd7ecc400c6f7821502a169eb790e",
        "5dc2538dd61198df6ca60212bad8f6ee74bfb1bc2ae8234262885e15934c0061",
    ),
    "null-seed-201": (
        "f159a05ea6a13720dfd73006f46e23e707074c9b6d6cd8d1a1bb870cd300fc22",
        "5cb3b6b2a4c89a501f351b8baeddaaf67d77891ee706da5b2835293f4d114c19",
    ),
    "coach-bound-seed-1": (
        "3c0c1d77221f762bc3dbffc8a0d9ab28d55997e2176def45cf23ff20094b6583",
        "38f52ae0b65b7eb93bd15f2bada69346971ab261b9489f88fb3a471cb9cbff09",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digests(name, tmp_path):
    scenario, metrics_sha, traces_sha, schema2_sha, expanded_sha = GOLDEN[name]
    run_experiment(replace(scenario, policy="adaptive"), KEYS, out_dir=str(tmp_path))
    digest = lambda f: hashlib.sha256(pathlib.Path(tmp_path, f).read_bytes()).hexdigest()
    assert digest("metrics.json") == metrics_sha
    assert digest("traces.jsonl") == traces_sha
    audit_sha, rows_sha = VAULT_GOLDEN[name]
    assert digest("audit.jsonl") == audit_sha
    world = generate_cohort(replace(scenario, policy="adaptive"), KEYS)
    rows = "".join(
        token.value + world.vault._records[token.value].hex() + "\n"
        for token in world.tokens
    )
    assert hashlib.sha256(rows.encode("ascii")).hexdigest() == rows_sha
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
