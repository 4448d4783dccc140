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
        "372e6991f1637f6e297925e97f60c3f4bc8b60c09b43e91b1913d21feec46fcf",
        "258e09be6c446c0ab80ef288ee78b7e794d9c5fc9cb0efb3402631f481b63c18",
        "8eea676572d674af75392fb93e00e288ef2db002cbf63cf900d3f8ea1bcae376",
        "c8c927f3ee5da7eebebeda172d87ac30acc3de53007c08ff316df22ccd9c7bfa",
    ),
    "null-seed-201": (
        null_scenario(201),
        "ac77c62a374e489c395a1b53154c4e60facb96acd95b1cbb37ae1da3233b81d3",
        "2f80f728be3846bd5b8a433bc397404b98d371632c8fd3a56aa68afd8d7ac9ef",
        "bc407fdff6083d76971f47cf6e63a638e8f6f7d67bee7c10748ad66d8afeda52",
        "14259860c445207d66e806efd5736497eafb567fbc677a2c79b5c7385aa96a32",
    ),
    "coach-bound-seed-1": (
        Scenario(
            name="coach-bound", seed=1, n_users=150, n_groups=8, n_coaches=2,
            capacity_min=20, capacity_max=26, coach_load_factor=0.9,
            horizon_weeks=10, w_pre=4, w_post=5,
        ),
        "3fe09370ccdd2c7ff8517384c2ebe5315681cee467b299e0f8f3f8057660960b",
        "2a2f77862bd6ed29d7f9a079e989b8f19baff8c852db6f0f277d2d012b2db4c7",
        "948cccae5ce5ef2bf9454dd96a74cbd05caf352591418faad6591cc08b675ebc",
        "23043710cb33e923f8e68dd4ad5fa6e2674ce7f869e69aea7800128e40d21007",
    ),
}


# (audit.jsonl, cohort rows) per run, as above.
VAULT_GOLDEN = {
    "effect-seed-1": (
        "efb1de81a6fb0a420ea8a7be5745ee489cf28ab03c46c098b51cc58d862c4552",
        "462ba3eadae0b49cb65fa54b5dd243148e397e5f9eab8f46a93acec6266c4db2",
    ),
    "null-seed-201": (
        "9e6da7f6a63037e99a6b577763d5e2eb4124ee1581c5ff24db301f4039fc417e",
        "067d8eede877d762b3ca4d7a38066cd31af4d0c18e44a9737ff7be1a953ff3f2",
    ),
    "coach-bound-seed-1": (
        "01418c902703d9d36a8a75911e76101d53d3affb764442b1422a78b9a6313f22",
        "cb2370be21338dd78938e323aac6974722cd4826f0d5d47add53f607644dca54",
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
