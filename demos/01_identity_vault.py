"""Identity vault walkthrough: tokenization, encrypted storage, controlled
restoration, and the tamper-evident audit chain.

Run:  python demos/01_identity_vault.py
"""

import os
from dataclasses import replace

os.environ.setdefault("PRISM_TOKEN_KEY", "5c" * 32)   # demo-only keys
os.environ.setdefault("PRISM_ENC_KEY", "9e" * 32)

from prism.vault import (
    KeyRing,
    RestorationRequest,
    Vault,
    tokenize_field,
    verify_audit_chain,
)

keys = KeyRing.from_env()
vault = Vault(keys)

# ---------------------------------------------------------------------------
# Deterministic, context-bound field tokenization.
# The same email under different formatting collapses to one token; the same
# value under a different field context gets a different token.
# ---------------------------------------------------------------------------
t1 = tokenize_field("Marisol.Hibbert@Example.COM", "email", keys)
t2 = tokenize_field("  marisol.hibbert@example.com ", "email", keys)
t3 = tokenize_field("marisol.hibbert@example.com", "name", keys)
print("email token        :", t1.value[:16], "...")
print("normalized variant :", t2.value[:16], "... (identical:", t1.value == t2.value, ")")
print("same value as name :", t3.value[:16], "... (different:", t1.value != t3.value, ")")

# ---------------------------------------------------------------------------
# Registration draws a random subject id and a nonce in one go and derives a
# stable user token. The raw fields are AEAD-encrypted under that nonce; only
# the token circulates downstream.
# ---------------------------------------------------------------------------
identity = {
    "full_name": "Marisol Hibbert",
    "email": "marisol.hibbert@example-mail.test",
    "phone": "613-555-0101",
}
token = vault.register(identity)
print("\nuser token:", token.value[:16], "...")

# The token derives from the random subject id, not from any field, so the
# same payload registered again is a different subject with its own token.
again = vault.register(identity)
print("same payload again:", again.value[:16], "... (different:", again != token, ")")

# ---------------------------------------------------------------------------
# Restoration is the single way back to raw identity: role-gated, MFA-gated,
# rate limited, and audited before any response.
# ---------------------------------------------------------------------------
attempts = [
    RestorationRequest("coach-7", "coach", True, token, "deliver weekly message"),
    RestorationRequest("analyst-1", "analyst", True, token, "cohort analysis"),
    RestorationRequest("coach-7", "coach", False, token, "forgot my second factor"),
]
for request in attempts:
    result = vault.restore_identity(request)
    outcome = "granted" if result.granted else f"denied ({result.denial_reason})"
    fields = sorted(result.fields) if result.fields else []
    print(f"{request.role:<8} mfa={request.mfa_verified!s:<5} -> {outcome:<24} fields={fields}")

# ---------------------------------------------------------------------------
# Every attempt above is on the hash chain; any mutation is detected at the
# exact entry where it happened.
# ---------------------------------------------------------------------------
entries = vault.audit_log.entries()
print("\naudit entries:", len(entries), "chain valid:", verify_audit_chain(entries))

tampered = list(entries)
tampered[1] = replace(tampered[1], decision="granted")
print("after tampering with entry 1:", verify_audit_chain(tampered))
