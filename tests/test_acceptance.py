"""Acceptance suite: every exit criterion at its stated tolerance.

Each test records one pass/fail line (printed after the pytest summary)
and asserts the criterion. The paired-run fixtures are deterministic:
fixed seeds, fixed keys, single-threaded runs.
"""

import json
import os
import pathlib
import string
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import ACCEPTANCE_LINES, ENC_KEY_HEX, TOKEN_KEY_HEX

from prism.assignment import BanditModel, PolicyConfig
from prism.features import EngagementWeights, adherence, engagement_index, engagement_scores
from prism.metrics import mann_whitney_u
from prism.redaction import _rehydrate_deid, default_rules, leak_audit, redact
from prism.simulator import Scenario, run_paired
from prism.simulator.scenario import N_MESSAGE_VARIANTS, synth_identity, synth_message
from prism.vault import (
    AuditLog,
    KeyRing,
    RestorationRequest,
    Vault,
    hmac_sha256,
    tokenize_field,
    verify_audit_chain,
)

KEYS = KeyRing.from_hex(TOKEN_KEY_HEX, ENC_KEY_HEX)
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

N_SEEDS = 20


def record(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    ACCEPTANCE_LINES.append(f"[criterion {criterion:02d}] {status} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def effect_scenario(seed: int) -> Scenario:
    """Acceptance world: match uplift 1.0 logit, 30% initially mis-grouped."""
    return Scenario(
        name="acceptance-effect",
        seed=seed,
        n_users=470,
        n_groups=24,
        n_coaches=4,
        capacity_min=26,
        capacity_max=34,
        horizon_weeks=19,
        w_pre=8,
        w_post=11,
        match_uplift=1.0,
        misgroup_fraction=0.3,
    )


def null_scenario(seed: int) -> Scenario:
    return Scenario(
        name="acceptance-null",
        seed=seed,
        n_users=150,
        n_groups=8,
        n_coaches=2,
        capacity_min=24,
        capacity_max=30,
        horizon_weeks=19,
        w_pre=8,
        w_post=11,
        match_uplift=0.0,
        activity_uplift=0.0,
        engagement_match_bonus=0.0,
        misgroup_fraction=0.3,
    )


@pytest.fixture(scope="module")
def paired_effect_runs():
    """20 paired seeds of the effect scenario, with wall time of the runs."""
    runs = []
    started = time.perf_counter()
    for seed in range(1, N_SEEDS + 1):
        runs.append(run_paired(effect_scenario(seed), KEYS))
    elapsed = time.perf_counter() - started
    return runs, elapsed


@pytest.fixture(scope="module")
def paired_null_runs():
    return [run_paired(null_scenario(seed), KEYS) for seed in range(201, 201 + N_SEEDS)]


# -- 1: constraint safety ----------------------------------------------------


def test_criterion_01_constraint_safety(paired_effect_runs):
    runs, elapsed = paired_effect_runs
    decisions = sum(adaptive.decisions for _, adaptive in runs)
    violations = sum(s.violations + a.violations for s, a in runs)
    ok = decisions >= 100_000 and violations == 0 and elapsed < 120.0
    record(
        1,
        ok,
        f"{decisions} decisions across {N_SEEDS} seeds, {violations} violations, "
        f"{elapsed:.1f}s (< 120s)",
    )


# -- 2: adaptive beats static ------------------------------------------------


def test_criterion_02_adaptive_beats_static(paired_effect_runs):
    runs, _ = paired_effect_runs
    adh_wins = sum(
        1 for s, a in runs if a.adherence_post - s.adherence_post >= 0.05
    )
    eng_wins = sum(1 for s, a in runs if a.eng_index > s.eng_index)
    ok = adh_wins >= 18 and eng_wins >= 18
    record(
        2,
        ok,
        f"adherence diff >= 0.05 in {adh_wins}/{N_SEEDS} seeds; "
        f"adaptive eng index higher in {eng_wins}/{N_SEEDS}",
    )


# -- 3: null-effect symmetry --------------------------------------------------


def test_criterion_03_null_effect_symmetry(paired_null_runs):
    gaps = [abs(a.adherence_post - s.adherence_post) for s, a in paired_null_runs]
    mean_gap = float(np.mean(gaps))
    ok = mean_gap < 0.02
    record(3, ok, f"mean |adherence gap| with zero effects = {mean_gap:.6f} (< 0.02)")


# -- 4: bandit-oracle equivalence ----------------------------------------------


def test_criterion_04_bandit_oracle_equivalence():
    rng = np.random.default_rng(404)
    d, ridge = 21, 1.0
    model = BanditModel(dim=d, ridge=ridge)
    phis = rng.normal(size=(1000, d))
    rewards = rng.normal(size=1000)
    for i in range(1000):
        model.update(phis[i : i + 1], rewards[i : i + 1])
    theta_star = np.linalg.solve(ridge * np.eye(d) + phis.T @ phis, phis.T @ rewards)
    err = float(np.max(np.abs(model.theta - theta_star)))
    ok = err < 1e-8
    record(4, ok, f"max |theta - batch ridge| after 1000 updates = {err:.2e} (< 1e-8)")


# -- 5: HMAC primitive ----------------------------------------------------------

RFC4231 = [
    (b"\x0b" * 20, b"Hi There",
     "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7", None),
    (b"Jefe", b"what do ya want for nothing?",
     "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843", None),
    (b"\xaa" * 20, b"\xdd" * 50,
     "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe", None),
    (bytes(range(1, 26)), b"\xcd" * 50,
     "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b", None),
    (b"\x0c" * 20, b"Test With Truncation",
     "a3b6167473100ee06e0c796c2955552b", 16),
    (b"\xaa" * 131, b"Test Using Larger Than Block-Size Key - Hash Key First",
     "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54", None),
    (b"\xaa" * 131,
     b"This is a test using a larger than block-size key and a larger than "
     b"block-size data. The key needs to be hashed before being used by the "
     b"HMAC algorithm.",
     "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2", None),
]


def test_criterion_05_hmac_vectors():
    passed = 0
    for key, msg, expected, trunc in RFC4231:
        digest = hmac_sha256(key, msg)
        if trunc:
            digest = digest[:trunc]
        passed += digest.hex() == expected
    ok = passed == 7
    record(5, ok, f"{passed}/7 RFC 4231 HMAC-SHA-256 vectors bit-exact")


# -- 6: tokenization properties --------------------------------------------------

N_TOKEN_TRIALS = 10_000


def _random_email(rng) -> str:
    letters = string.ascii_lowercase + string.digits
    local = "".join(rng.choice(list(letters), size=rng.integers(3, 12)))
    domain = "".join(rng.choice(list(string.ascii_lowercase), size=rng.integers(3, 9)))
    return f"{local}@{domain}.test"


def test_criterion_06_tokenization_properties():
    rng = np.random.default_rng(606)
    rotated = KeyRing.from_hex("33" * 32, ENC_KEY_HEX)
    deterministic = equivalent = separated = diverged = 0
    for _ in range(N_TOKEN_TRIALS):
        email = _random_email(rng)
        token = tokenize_field(email, "email", KEYS)
        deterministic += token.value == tokenize_field(email, "email", KEYS).value
        messy = ("  " if rng.random() < 0.5 else "") + email.upper() + (" " if rng.random() < 0.5 else "")
        equivalent += tokenize_field(messy, "email", KEYS).value == token.value
        separated += tokenize_field(email, "name", KEYS).value != token.value
        diverged += tokenize_field(email, "email", rotated).value != token.value
    ok = deterministic == equivalent == separated == diverged == N_TOKEN_TRIALS
    record(
        6,
        ok,
        f"determinism {deterministic}, normalization {equivalent}, context "
        f"separation {separated}, rotation divergence {diverged} "
        f"(each of {N_TOKEN_TRIALS} trials)",
    )


# -- 7: redaction completeness ----------------------------------------------------

N_MESSAGES = 10_000


def test_criterion_07_redaction_completeness(any_token):
    rng = np.random.default_rng(707)
    rules = default_rules()
    samples = []
    idempotent = True
    for i in range(N_MESSAGES):
        identity = synth_identity(rng, i)
        text = synth_message(
            int(rng.integers(N_MESSAGE_VARIANTS)),
            identity,
            int(rng.integers(10**8)),
            int(rng.integers(10**4)),
            int(rng.integers(10**4)),
        )
        out = redact(text, any_token, rules)
        samples.append(out)
        idempotent &= redact(out.text, any_token, rules).text == out.text
    report = leak_audit(samples, rules)
    worked = leak_audit(
        [redact(f"week {i} ok", any_token, rules) for i in range(1198)]
        + [_rehydrate_deid("bye - Marisol", any_token),
           _rehydrate_deid("cheers, Thaddeus", any_token)],
        rules,
    )
    arithmetic_ok = abs(worked.leak_rate - 2 / 1200) < 1e-12
    ok = report.leak_rate == 0.0 and idempotent and arithmetic_ok
    record(
        7,
        ok,
        f"leak rate {report.leak_rate} over {N_MESSAGES} generated messages, "
        f"idempotent={idempotent}, 2/1200 -> {worked.leak_rate:.6f}",
    )


# -- 8: governance ------------------------------------------------------------------


class _FailingAuditLog(AuditLog):
    def append(self, **kwargs):
        raise OSError("audit store down")


def test_criterion_08_governance(paired_effect_runs, paired_null_runs):
    runs = list(paired_effect_runs[0]) + list(paired_null_runs)
    complete = all(
        r.governance["restoration_attempts"] == r.governance["audit_entries"]
        for pair in runs
        for r in pair
    )
    analysts_denied = all(
        r.governance["analyst_denials"] == r.governance["analyst_attempts"] > 0
        for pair in runs
        for r in pair
    )
    chains_ok = all(r.governance["audit_chain_ok"] for pair in runs for r in pair)

    vault = Vault(KEYS, audit_log=_FailingAuditLog())
    token = vault.register({"email": "x@y.test"})
    fail_closed = not vault.restore_identity(
        RestorationRequest("c1", "coach", True, token, "why")
    ).granted

    vault2 = Vault(KEYS)
    token2 = vault2.register({"email": "x@y.test"})
    for _ in range(20):
        vault2.restore_identity(RestorationRequest("c1", "coach", True, token2, "why"))
    entries = list(vault2.audit_log.entries())
    tampered = [replace(entries[8], purpose="rewritten")]
    detected, index = verify_audit_chain(entries[:8] + tampered + entries[9:])
    mutation_detected = (not detected) and index == 8

    ok = complete and analysts_denied and chains_ok and fail_closed and mutation_detected
    record(
        8,
        ok,
        f"attempts==entries in {2 * len(runs)} runs={complete}, analyst denials 100%="
        f"{analysts_denied}, chains ok={chains_ok}, fail-closed={fail_closed}, "
        f"mutation detected={mutation_detected}",
    )


# -- 9: review gate ------------------------------------------------------------------


def test_criterion_09_review_gate(paired_effect_runs):
    runs, _ = paired_effect_runs
    balanced = True
    leak_free = True
    any_delivery = False
    for _, adaptive in runs:
        a = adaptive.assistant
        balanced &= a["delivered"] == a["approved"] + a["edited"]
        balanced &= a["drafts"] == a["approved"] + a["edited"] + a["discarded"] + a["pending"]
        if a["delivered"]:
            any_delivery = True
            leak_free &= a["delivered_leak_rate"] == 0.0
    ok = balanced and leak_free and any_delivery
    record(
        9,
        ok,
        f"delivered == approved+edited in all {len(runs)} adaptive runs={balanced}, "
        f"delivered leak rate 0={leak_free}",
    )


# -- 10: determinism -------------------------------------------------------------------


def test_criterion_10_determinism(tmp_path):
    # Separate interpreters with different string-hash seeds: anything that
    # iterates a set or hash order into an output shows up as a byte diff.
    scenario = {
        "name": "determinism",
        "seed": 12,
        "n_users": 80,
        "n_groups": 6,
        "n_coaches": 2,
        "capacity_min": 16,
        "capacity_max": 20,
        "horizon_weeks": 15,
        "w_pre": 6,
        "w_post": 8,
    }
    spath = tmp_path / "scenario.json"
    spath.write_text(json.dumps(scenario))
    identical = True
    dirs = [str(tmp_path / "r1"), str(tmp_path / "r2")]
    for hash_seed, out in enumerate(dirs):
        env = dict(
            os.environ,
            PYTHONHASHSEED=str(hash_seed),
            PYTHONPATH=str(SRC),
            PRISM_TOKEN_KEY=TOKEN_KEY_HEX,
            PRISM_ENC_KEY=ENC_KEY_HEX,
        )
        proc = subprocess.run(
            [sys.executable, "-m", "prism.cli", "simulate", "--scenario", str(spath), "--out", out],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
    # A trace line is read with the manifest's legend, so both are compared.
    for name in ("metrics.json", "traces.jsonl", "manifest.json"):
        identical &= (
            pathlib.Path(dirs[0], name).read_bytes()
            == pathlib.Path(dirs[1], name).read_bytes()
        )
    record(
        10,
        identical,
        "simulate under PYTHONHASHSEED=0 and =1 produced byte-identical "
        "metrics.json, traces.jsonl and manifest.json",
    )


# -- 11: metric formulas -----------------------------------------------------------------


def test_criterion_11_metric_formulas():
    user_weighted = adherence([[1, 1, 1, 1], [0]])
    day_weighted = 4 / 5
    weighting_ok = abs(user_weighted - 0.5) < 1e-12 and abs(day_weighted - 0.8) < 1e-12

    idx = engagement_index([0.3, 0.5, 0.7], [0.3, 0.5, 0.7])
    index_ok = abs(idx - 1.0) <= 1e-9

    weights = EngagementWeights(p5=(2.0,) * 5, p95=(12.0,) * 5)
    lower, upper = engagement_scores([(0, 1, 2, 2, 0), (99, 99, 99, 99, 99)], weights)
    score_ok = lower == 0.0 and 0.999 < upper < 1.0

    rng = np.random.default_rng(1111)
    mw_ok = True
    from test_metrics import oracle_exact_p

    for n1 in range(1, 8):
        for n2 in range(1, 8):
            a = rng.integers(0, 6, size=n1).astype(float).tolist()
            b = rng.integers(0, 6, size=n2).astype(float).tolist()
            _, p = mann_whitney_u(a, b)
            mw_ok &= abs(p - oracle_exact_p(a, b)) < 1e-12

    ok = weighting_ok and index_ok and score_ok and mw_ok
    record(
        11,
        ok,
        f"user-vs-day weighting 0.5/0.8={weighting_ok}, identity EngIndex={index_ok}, "
        f"score bounds={score_ok}, exact U-test agreement (sizes<=7)={mw_ok}",
    )
