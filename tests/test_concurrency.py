"""Concurrency contracts: serialized audit writers, atomic draft decisions,
and freely parallel pure operations."""

from concurrent.futures import ThreadPoolExecutor

from prism.assistant import default_templates, generate_draft, review
from prism.errors import StateError
from prism.features import ContextBatch
from prism.redaction import redact
from prism.vault import (
    RestorationRequest,
    UserToken,
    Vault,
    tokenize_field,
    verify_audit_chain,
)

N_THREADS = 8


def test_parallel_restorations_fully_audited(keys):
    vault = Vault(keys)
    token = vault.register({"email": "p@example-mail.test"})
    per_thread = 50

    def hammer(worker: int) -> int:
        granted = 0
        for i in range(per_thread):
            # One attempt per requester id, so no grant is rate limited.
            request = RestorationRequest(
                requester_id=f"w{worker}-{i}",
                role="coach" if i % 4 else "analyst",
                mfa_verified=True,
                user_token=token,
                purpose="load test",
            )
            granted += vault.restore_identity(request).granted
        return granted

    with ThreadPoolExecutor(max_workers=N_THREADS) as pool:
        results = list(pool.map(hammer, range(N_THREADS)))

    entries = vault.audit_log.entries()
    assert len(entries) == N_THREADS * per_thread   # one entry per attempt, none lost
    assert [e.seq for e in entries] == list(range(len(entries)))
    ok, bad = verify_audit_chain(entries)
    assert ok and bad is None
    granted_total = sum(results)
    assert granted_total == sum(1 for e in entries if e.decision == "granted")


def test_concurrent_review_first_decision_wins():
    token = UserToken("ee" * 32)
    contexts = ContextBatch(
        user_tokens=[token], epoch=9, numeric=[[0.0] * 5], goal=[3], streak=[5], slope=[0.0]
    )
    summary = redact("missed 5 recent check-ins", token)
    draft = generate_draft(
        summary, contexts, 0, default_templates()["reengage-streak"],
        draft_id="d-1", created_at="2025-03-10T00:00:00.000000+00:00",
    )

    outcomes = []

    def decide(worker: int):
        try:
            review(draft, f"coach-{worker}", "approve" if worker % 2 else "discard")
            outcomes.append("won")
        except StateError:
            outcomes.append("lost")

    with ThreadPoolExecutor(max_workers=N_THREADS) as pool:
        list(pool.map(decide, range(N_THREADS)))

    assert outcomes.count("won") == 1
    assert outcomes.count("lost") == N_THREADS - 1
    assert draft.status in ("approved", "discarded")


def test_parallel_tokenization_is_consistent(keys):
    values = [f"user{i}@example-mail.test" for i in range(200)]
    expected = [tokenize_field(v, "email", keys).value for v in values]

    def worker(_: int):
        return [tokenize_field(v, "email", keys).value for v in values]

    with ThreadPoolExecutor(max_workers=N_THREADS) as pool:
        for result in pool.map(worker, range(N_THREADS)):
            assert result == expected


def test_parallel_redaction_is_consistent(any_token):
    texts = [
        f"I'm Marisol, id {10_000_000 + i}, mail m{i}@x.test, call 613-555-{i % 10_000:04d}"
        for i in range(100)
    ]
    expected = [redact(t, any_token).text for t in texts]

    def worker(_: int):
        return [redact(t, any_token).text for t in texts]

    with ThreadPoolExecutor(max_workers=N_THREADS) as pool:
        for result in pool.map(worker, range(N_THREADS)):
            assert result == expected
