"""Golden digests: the exact bytes of one effect and one null adaptive run.

A change that alters these bytes on purpose updates the digest here and
says why in CHANGES.md. Floating-point reductions are part of the bytes,
so reordering a sum is such a change.
"""

import hashlib
import pathlib
from dataclasses import replace

import pytest

from test_acceptance import KEYS, effect_scenario, null_scenario

from prism.simulator import run_experiment

GOLDEN = {
    "effect-seed-1": (
        effect_scenario(1),
        "372e6991f1637f6e297925e97f60c3f4bc8b60c09b43e91b1913d21feec46fcf",
        "a1cc8d387c59cb11a65c1aa35e74f0adf9e7f87c69b15160e552118ace7585c2",
    ),
    "null-seed-201": (
        null_scenario(201),
        "ac77c62a374e489c395a1b53154c4e60facb96acd95b1cbb37ae1da3233b81d3",
        "4e89481264450a1ddf29a67725257816d062728b80ebe6ab608c6f343b19ee9d",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digests(name, tmp_path):
    scenario, metrics_sha, traces_sha = GOLDEN[name]
    run_experiment(replace(scenario, policy="adaptive"), KEYS, out_dir=str(tmp_path))
    digest = lambda f: hashlib.sha256(pathlib.Path(tmp_path, f).read_bytes()).hexdigest()
    assert digest("metrics.json") == metrics_sha
    assert digest("traces.jsonl") == traces_sha
