"""Vault contract tests: keyed tagging, AEAD storage, restoration governance."""

import base64
import hashlib
import itertools
import json
from dataclasses import fields, replace
from datetime import datetime

import pytest
from conftest import (
    ENC_KEY_HEX,
    TOKEN_KEY_HEX,
    audit_dict,
    reference_chain_hash,
    reference_line,
    reference_payload,
    reference_verify,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import Bundle, RuleBasedStateMachine, invariant, rule

from prism.errors import (
    ConfigurationError,
    DecryptionError,
    InternalError,
    ValidationError,
)
from prism.vault import (
    DENY_MFA,
    DENY_RATE,
    DENY_ROLE,
    GENESIS_HASH,
    RATE_LIMIT_GRANTS,
    RATE_LIMIT_WINDOW_SECONDS,
    RESTORE_ALLOWED_ROLES,
    AuditEntry,
    AuditLog,
    FieldToken,
    KeyRing,
    RestorationRequest,
    SlidingWindowRateLimiter,
    UserToken,
    Vault,
    _canonical_payload,
    _export_line,
    _is_hex,
    _payload_values,
    hmac_sha256,
    normalize_field,
    tokenize_field,
    verify_audit_chain,
)

AUDIT_FIELD_NAMES = [f.name for f in fields(AuditEntry)]

# RFC 4231 HMAC-SHA-256 test vectors; case 5 is truncated to 128 bits.
RFC4231_VECTORS = [
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


@pytest.mark.parametrize("key,msg,expected,trunc", RFC4231_VECTORS)
def test_hmac_primitive_rfc4231(key, msg, expected, trunc):
    digest = hmac_sha256(key, msg)
    if trunc:
        digest = digest[:trunc]
    assert digest.hex() == expected


class TestNormalization:
    def test_email_lowercase_and_trim(self):
        assert normalize_field(" Alice@Example.COM ", "email") == "alice@example.com"

    def test_phone_digits_only(self):
        assert normalize_field("+1 (613) 555-0142", "phone") == "16135550142"

    def test_unknown_context_rejected(self):
        with pytest.raises(ValidationError):
            normalize_field("x", "passport")


class TestTokenization:
    def test_normalized_variants_collide(self, keys):
        a = tokenize_field("Alice@Example.COM", "email", keys)
        b = tokenize_field("alice@example.com ", "email", keys)
        assert a.value == b.value

    def test_context_binding(self, keys):
        email = tokenize_field("alice@example.com", "email", keys)
        name = tokenize_field("alice@example.com", "name", keys)
        assert email.value != name.value

    def test_determinism(self, keys):
        assert (
            tokenize_field("x y z", "name", keys).value
            == tokenize_field("x y z", "name", keys).value
        )

    def test_key_rotation_diverges(self, keys):
        rotated = KeyRing.from_hex("33" * 32, "22" * 32)
        before = tokenize_field("alice@example.com", "email", keys)
        after = tokenize_field("alice@example.com", "email", rotated)
        assert before.value != after.value


class TestHexCheck:
    @settings(max_examples=500)
    @given(
        text=st.text()
        | st.text(alphabet="0123456789abcdefABCDEF\n\u0663\u0966\uff10\u00e9 ")
        | st.sampled_from(["", "\n", "ab\n", "\nab", "AB", "0" * 64, "\u0663" * 64])
    )
    def test_accepts_exactly_lowercase_ascii_hex(self, text):
        assert _is_hex(text) == all(c in "0123456789abcdef" for c in text)

    @pytest.mark.parametrize("value", [5, None, b"ab" * 32, ["ab" * 32]], ids=type)
    @pytest.mark.parametrize("build", [UserToken, lambda v: FieldToken(v, "email")],
                             ids=["UserToken", "FieldToken"])
    def test_a_non_str_token_value_is_a_validation_error(self, build, value):
        with pytest.raises(ValidationError, match="str of 64 lowercase hex"):
            build(value)


def _fixed_entropy(draw: bytes):
    """An entropy source that always returns ``draw``, recording each request."""
    requests = []

    def entropy(n: int) -> bytes:
        requests.append(n)
        return draw

    entropy.requests = requests
    return entropy


DRAW = bytes(range(1, 29))  # subject id bytes 1..16, then nonce bytes 17..28


class TestMinting:
    def test_identical_payloads_get_distinct_subjects(self, keys):
        vault = Vault(keys)
        payload = {"email": "a@b.test"}
        tok1 = vault.register(payload)
        tok2 = vault.register(payload)
        assert tok1 != tok2

    def test_same_subject_tokenizes_identically(self, keys):
        # The token is the keyed tag of the subject id's hex in the user
        # context, whatever the payload, and the id is the draw's first 16 bytes.
        tokens = [
            Vault(keys, entropy=_fixed_entropy(DRAW)).register(payload)
            for payload in ({"email": "a@b.test"}, {"full_name": "Someone Else"})
        ]
        expected = tokenize_field(DRAW[:16].hex(), "user", keys).value
        assert tokens[0] == tokens[1] == UserToken(expected)

    def test_empty_payload_rejected(self, keys):
        entropy = _fixed_entropy(DRAW)
        with pytest.raises(ValidationError):
            Vault(keys, entropy=entropy).register({})
        assert entropy.requests == []

    def test_unserializable_payload_rejected_before_any_draw(self, keys):
        entropy = _fixed_entropy(DRAW)
        with pytest.raises(ValidationError):
            Vault(keys, entropy=entropy).register({"email": object()})
        assert entropy.requests == []

    def test_one_draw_per_registration(self, keys):
        draws = iter(bytes([i]) * 28 for i in range(1, 100))
        requests = []

        def entropy(n):
            requests.append(n)
            return next(draws)

        vault = Vault(keys, entropy=entropy)
        for _ in range(5):
            vault.register(IDENTITY)
        assert requests == [28] * 5

    def test_subject_collision_retries_then_fails(self, keys):
        entropy = _fixed_entropy(DRAW)
        vault = Vault(keys, entropy=entropy)
        vault.register(IDENTITY)
        with pytest.raises(InternalError):
            vault.register(IDENTITY)
        assert entropy.requests == [28] * 4
        assert len(vault._records) == 1

    def test_short_draw_rejected(self, keys):
        with pytest.raises(InternalError):
            Vault(keys, entropy=lambda n: DRAW[: n - 1]).register(IDENTITY)


IDENTITY = {"full_name": "Pat Example", "email": "pat@example-mail.test"}


class TestIdentityStorage:
    def test_round_trip(self, keys):
        vault = Vault(keys)
        token = vault.register(IDENTITY)
        result = vault.restore_identity(
            RestorationRequest("c1", "coach", True, token, "deliver message")
        )
        assert result.granted and result.fields == IDENTITY

    def test_ciphertext_never_equals_plaintext(self, keys):
        vault = Vault(keys, entropy=_fixed_entropy(DRAW))
        token = vault.register(IDENTITY)
        sealed = vault._records[token.value]
        plaintext = json.dumps(IDENTITY, sort_keys=True, separators=(",", ":")).encode()
        assert sealed[:12] == DRAW[16:]  # the nonce is the draw's last 12 bytes
        assert sealed != plaintext
        assert plaintext not in sealed

    def test_fresh_nonces_give_distinct_ciphertexts(self, keys):
        vault = Vault(keys)
        s1, s2 = (vault._records[vault.register(IDENTITY).value] for _ in range(2))
        assert s1[:12] != s2[:12]
        assert s1 != s2

    def test_wrong_key_fails_authenticated_decryption(self, keys):
        vault = Vault(keys)
        token = vault.register(IDENTITY)
        other = Vault(KeyRing.from_hex("99" * 32, "aa" * 32))
        vault._records[token.value] = other._records[other.register(IDENTITY).value]
        with pytest.raises(DecryptionError):
            vault.restore_identity(RestorationRequest("c1", "coach", True, token, "why"))

    @pytest.mark.parametrize("position", [0, 12, -1])  # nonce, ciphertext body, tag
    def test_flipped_ciphertext_byte_fails_authenticated_decryption(self, keys, position):
        vault = Vault(keys)
        token = vault.register(IDENTITY)
        flipped = bytearray(vault._records[token.value])
        flipped[position] ^= 0x01
        vault._records[token.value] = bytes(flipped)
        with pytest.raises(DecryptionError):
            vault.restore_identity(RestorationRequest("c1", "coach", True, token, "why"))

    def test_token_stable_across_contact_changes(self, keys):
        # The token derives from the subject id alone: the same subject
        # registered with changed contact fields keeps its token.
        updated = dict(IDENTITY, email="new.address@example-mail.test")
        before = Vault(keys, entropy=_fixed_entropy(DRAW)).register(IDENTITY)
        vault = Vault(keys, entropy=_fixed_entropy(DRAW))
        token = vault.register(updated)
        assert token == before
        result = vault.restore_identity(
            RestorationRequest("c1", "coach", True, token, "support")
        )
        assert result.granted and result.fields == updated


class TestKeyLoading:
    def test_missing_env_is_startup_error(self, monkeypatch):
        monkeypatch.delenv("PRISM_TOKEN_KEY", raising=False)
        monkeypatch.delenv("PRISM_ENC_KEY", raising=False)
        with pytest.raises(ConfigurationError):
            KeyRing.from_env()

    def test_env_loading(self, keys_env):
        loaded = KeyRing.from_env()
        assert loaded == keys_env

    def test_bad_hex_rejected(self, monkeypatch):
        monkeypatch.setenv("PRISM_TOKEN_KEY", "zz" * 32)
        monkeypatch.setenv("PRISM_ENC_KEY", "22" * 32)
        with pytest.raises(ConfigurationError):
            KeyRing.from_env()

    def test_config_file(self, tmp_path, keys):
        path = tmp_path / "keys.json"
        path.write_text(json.dumps({"token_key": "11" * 32, "encryption_key": "22" * 32}))
        assert KeyRing.from_config(str(path)) == keys

    def test_repr_hides_material(self, keys):
        assert "11" * 8 not in repr(keys)


def _request(token, role="coach", mfa=True, purpose="deliver message", requester="r1"):
    return RestorationRequest(requester, role, mfa, token, purpose)


class TestRestorationPolicy:
    def test_policy_table(self, keys):
        vault = Vault(keys)
        token = vault.register(IDENTITY)
        cases = [
            (_request(token, role="coach"), True, None),
            (_request(token, role="operator"), True, None),
            (_request(token, role="admin"), True, None),
            (_request(token, role="analyst"), False, "role_forbidden"),
            (_request(token, role="coach", mfa=False), False, "mfa_required"),
            (_request(token, purpose="   "), False, "empty_purpose"),
        ]
        for request, granted, reason in cases:
            result = vault.restore_identity(request)
            assert result.granted is granted
            assert result.denial_reason == reason
        # Every attempt, granted or denied, produced exactly one entry.
        assert len(vault.audit_log) == len(cases)

    def test_unknown_token_denied(self, keys, any_token):
        vault = Vault(keys)
        result = vault.restore_identity(_request(any_token))
        assert not result.granted and result.denial_reason == "unknown_token"

    def test_rate_limit_cap(self, keys):
        now = [1000.0]
        vault = Vault(keys, clock=lambda: now[0])
        token = vault.register(IDENTITY)
        assert (RATE_LIMIT_GRANTS, RATE_LIMIT_WINDOW_SECONDS) == (10, 3600.0)
        for i in range(10):
            now[0] += 1.0
            assert vault.restore_identity(_request(token)).granted
        now[0] += 1.0
        final = vault.restore_identity(_request(token))
        assert not final.granted and final.denial_reason == "rate_limited"
        # The denial itself is audited.
        assert vault.audit_log.entries()[-1].decision == "denied"

    def test_rate_limit_window_slides(self, keys):
        now = [0.0]
        vault = Vault(keys, clock=lambda: now[0])
        token = vault.register(IDENTITY)
        for t in range(1, 11):
            now[0] = float(t)
            assert vault.restore_identity(_request(token)).granted
        now[0] = 11.0
        assert not vault.restore_identity(_request(token)).granted
        now[0] = 3601.0  # the grant at 1 s has aged out, the one at 2 s has not
        assert vault.restore_identity(_request(token)).granted
        now[0] = 3601.5
        assert not vault.restore_identity(_request(token)).granted
        now[0] = 7210.0  # every grant has aged out
        assert vault.restore_identity(_request(token)).granted

    def test_the_vault_clock_is_the_only_time(self, keys):
        # A request names who asks, in what role and MFA state, for whom
        # and why; no field of it can move the time the vault sees.
        assert [f.name for f in fields(RestorationRequest)] == [
            "requester_id", "role", "mfa_verified", "user_token", "purpose",
        ]
        vault = Vault(keys, clock=lambda: 1_700_000_000.0)
        token = vault.register(IDENTITY)
        granted = [vault.restore_identity(_request(token)).granted for _ in range(12)]
        assert granted == [True] * 10 + [False] * 2
        entries = vault.audit_log.entries()
        assert {entry.ts for entry in entries} == {"2023-11-14T22:13:20.000000+00:00"}
        assert verify_audit_chain(entries) == (True, None)

    @settings(max_examples=200, deadline=None)
    @given(
        steps=st.lists(
            st.tuples(
                st.sampled_from("aab"),
                st.sampled_from([0.0, 60.0, 360.0, 3600.0]) | st.floats(0, 7200),
            ),
            max_size=60,
        ),
    )
    def test_rate_limiter_contract_over_monotone_time(self, steps):
        # The caller's contract: time never decreases, and a request that is
        # allowed is recorded, as restore_identity does for a grant.
        max_events, window = RATE_LIMIT_GRANTS, RATE_LIMIT_WINDOW_SECONDS
        limiter = SlidingWindowRateLimiter()
        granted = {key: [] for key in "ab"}
        now = 0.0
        for key, dt in steps:
            now += dt
            room = sum(1 for t in granted[key] if t > now - window) < max_events
            allowed = limiter.would_allow(key, now)
            assert allowed == room  # allowed exactly when the window has room
            if allowed:
                limiter.record(key, now)
                granted[key].append(now)
        for times in granted.values():
            for end in times:
                assert sum(1 for t in times if end - window < t <= end) <= max_events


class TestRequestTypes:
    @pytest.mark.parametrize("change", [
        {"purpose": 5},
        {"requester_id": ["r1"]},
        {"role": ["coach"]},
        {"mfa_verified": "yes"},
        {"mfa_verified": 1},
        {"purpose": None},
        {"user_token": "cd" * 32},
    ])
    def test_malformed_request_rejected_before_the_vault(self, keys, change):
        vault = Vault(keys)
        token = vault.register(IDENTITY)
        fields_ = {"requester_id": "r1", "role": "coach", "mfa_verified": True,
                   "user_token": token, "purpose": "deliver message"}
        with pytest.raises(ValidationError):
            RestorationRequest(**{**fields_, **change})
        assert len(vault.audit_log) == 0

    @settings(max_examples=200, deadline=None)
    @given(
        requester=st.text(max_size=4) | st.integers() | st.lists(st.text(max_size=2), max_size=2),
        role=st.sampled_from(sorted(RESTORE_ALLOWED_ROLES) + ["analyst"]) | st.text(max_size=4)
        | st.none() | st.lists(st.just("coach"), max_size=1),
        mfa=st.booleans() | st.sampled_from(["yes", "", 0, 1, None, 1.0]),
        known=st.booleans() | st.none(),
        purpose=st.text(max_size=6) | st.integers() | st.none() | st.binary(max_size=2),
    )
    def test_every_accepted_request_leaves_one_audit_entry(
        self, requester, role, mfa, known, purpose
    ):
        vault = Vault(KeyRing.from_hex(TOKEN_KEY_HEX, ENC_KEY_HEX))
        registered = vault.register(IDENTITY)
        token = {True: registered, False: UserToken("ab" * 32), None: registered.value}[known]
        try:
            request = RestorationRequest(requester, role, mfa, token, purpose)
        except ValidationError:
            return
        for n in (1, 2):
            result = vault.restore_identity(request)
            assert len(vault.audit_log) == n
            assert result.audit_seq == vault.audit_log.entries()[-1].seq
            assert result.granted is (
                mfa is True and role in RESTORE_ALLOWED_ROLES and bool(purpose.strip())
                and known is True
            )


def _unavailable(**kwargs):
    raise OSError("audit store unavailable")


class TestGovernance:
    def test_audit_failure_fails_closed(self, keys, monkeypatch):
        vault = Vault(keys)
        token = vault.register(IDENTITY)
        monkeypatch.setattr(vault._audit, "append", _unavailable)
        result = vault.restore_identity(_request(token))
        assert not result.granted
        assert result.denial_reason == "audit_unavailable"
        assert len(vault.audit_log) == 0

    def test_log_is_read_only(self, keys):
        # Only a restoration writes the log: the view has no writer, the
        # vault takes no log of its own and its view cannot be replaced.
        vault = Vault(keys, clock=lambda: 1_700_000_000.0)
        token = vault.register(IDENTITY)
        vault.restore_identity(_request(token))
        view = vault.audit_log
        with pytest.raises(AttributeError):
            view.append(
                requester_id="r1", role="coach", user_token=token.value, purpose="forged",
                decision="granted", denial_reason=None, timestamp=0.0,
            )
        with pytest.raises(AttributeError):
            view._entries = []
        with pytest.raises(AttributeError):
            vault.audit_log = AuditLog()
        with pytest.raises(TypeError):
            Vault(keys, audit_log=AuditLog())
        assert len(view) == len(view.entries()) == 1
        assert verify_audit_chain(view.entries()) == (True, None)

    def test_empty_chain_is_valid(self):
        ok, bad = verify_audit_chain(())
        assert ok and bad is None

    def test_chain_over_many_restores(self, keys):
        vault = Vault(keys)
        token = vault.register(IDENTITY)
        for i in range(1000):
            vault.restore_identity(
                _request(token, role="coach" if i % 3 else "analyst", requester=f"r{i % 7}")
            )
        ok, bad = verify_audit_chain(vault.audit_log.entries())
        assert ok and bad is None
        assert len(vault.audit_log) == 1000

    @pytest.mark.parametrize(
        "mutation",
        [
            {"purpose": "something else"},
            {"decision": "denied"},
            {"requester_id": "intruder"},
            {"user_token": "ff" * 32},
            {"seq": 99},
            {"chain_hash": "0" * 64},
        ],
    )
    def test_chain_detects_single_field_mutation(self, keys, mutation):
        vault = Vault(keys)
        token = vault.register(IDENTITY)
        for _ in range(10):
            vault.restore_identity(_request(token))
        entries = list(vault.audit_log.entries())
        k = 6
        entries[k] = replace(entries[k], **mutation)
        ok, bad = verify_audit_chain(entries)
        assert not ok
        assert bad == k

    def test_gap_in_sequence_detected(self, keys):
        vault = Vault(keys)
        token = vault.register(IDENTITY)
        for _ in range(5):
            vault.restore_identity(_request(token))
        entries = list(vault.audit_log.entries())
        del entries[2]
        ok, bad = verify_audit_chain(entries)
        assert not ok and bad == 2

    def test_time_running_backwards_detected(self, keys):
        # A log re-chained after an edit has valid hashes, so only the
        # timestamp order shows the edit.
        from prism.vault import rfc3339

        ticks = iter(range(100))
        vault = Vault(keys, clock=lambda: 1_700_000_000.0 + 60 * next(ticks))
        token = vault.register(IDENTITY)
        for _ in range(6):
            vault.restore_identity(_request(token))
        entries = list(vault.audit_log.entries())
        k = 4
        earlier = replace(entries[k], ts=rfc3339(1_700_000_000.0 - 1))
        assert verify_audit_chain(rechained(entries[:k] + [earlier] + entries[k + 1 :])) == (False, k)
        # Equal stamps are in order.
        level = replace(entries[k], ts=entries[k - 1].ts)
        assert verify_audit_chain(rechained(entries[:k] + [level] + entries[k + 1 :])) == (True, None)

    def test_jsonl_round_trip_and_field_names(self, keys, tmp_path):
        vault = Vault(keys)
        token = vault.register(IDENTITY)
        vault.restore_identity(_request(token))
        path = str(tmp_path / "audit.jsonl")
        vault.audit_log.to_jsonl(path)
        doc = json.loads(open(path).read().splitlines()[0])
        assert set(doc) == {
            "seq", "requester_id", "role", "user_token", "purpose",
            "decision", "denial_reason", "ts", "chain_hash",
        }
        reloaded = AuditLog.from_jsonl(path)
        ok, _ = verify_audit_chain(reloaded.entries())
        assert ok

    def test_chain_hashes_and_file_bytes_are_pinned(self, tmp_path):
        log = AuditLog()
        log.append(
            requester_id="coach-1", role="coach", user_token="ab" * 32,
            purpose="deliver message", decision="granted", denial_reason=None,
            timestamp=1_700_000_000.0,
        )
        log.append(
            requester_id="analyst-2", role="analyst", user_token="cd" * 32,
            purpose="cohort analysis", decision="denied", denial_reason="role_forbidden",
            timestamp=1_700_000_060.5,
        )
        assert [entry.chain_hash for entry in log.entries()] == [
            "797c90ada2826f7ba6a741f4d0e5f94bd55bde91d5c067deb8fbcdc78d968488",
            "19e86c5d6ba0a7ee638dd45e3d5bb6cba208e8e37d67f503a1a49d66fba4d88f",
        ]
        path = tmp_path / "audit.jsonl"
        log.to_jsonl(str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "98363667cbd3f54ea5c59a0ffc60b69657c925f0e4b730e3c89061c9434e24f7"
        )


def rechained(entries):
    """``entries`` with every chain hash recomputed by the reference, so
    that only what the hash cannot see shows; an entry whose fields
    ``json.dumps`` cannot write keeps its hash."""
    prev, out = GENESIS_HASH, []
    for entry in entries:
        try:
            entry = replace(entry, chain_hash=reference_chain_hash(prev, audit_dict(entry)))
        except (TypeError, ValueError):
            pass
        out.append(entry)
        prev = entry.chain_hash
    return out


# Field text json.dumps must escape: non-ASCII, quotes, backslashes,
# control characters and lone surrogates.
_FIELD_TEXT = (
    st.text()
    | st.text(st.characters(exclude_categories=()))
    | st.text(st.sampled_from('"\\/\x00\x1f\x7f\u2028\ud800\udfff\u00e9\U0001f600 a'))
)
_STR_FIELDS = ("requester_id", "role", "user_token", "purpose", "decision", "ts", "chain_hash")


class TestAuditEncoding:
    @settings(max_examples=400, deadline=None)
    @given(
        texts=st.fixed_dictionaries({name: _FIELD_TEXT for name in _STR_FIELDS}),
        reason=st.none() | _FIELD_TEXT,
        seq=st.integers(0, 2**63),
    )
    def test_payload_and_line_equal_json_dumps(self, texts, reason, seq):
        entry = AuditEntry(seq=seq, denial_reason=reason, **texts)
        payload = _canonical_payload(_payload_values(entry))
        assert payload.encode("utf-8") == reference_payload(audit_dict(entry))
        assert _export_line(entry) == reference_line(entry)

    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(_FIELD_TEXT, _FIELD_TEXT, _FIELD_TEXT, st.none() | _FIELD_TEXT),
            min_size=1,
            max_size=6,
        )
    )
    def test_appended_chain_and_file_equal_json_dumps(self, rows, tmp_path_factory):
        log = AuditLog()
        for k, (requester, role, purpose, reason) in enumerate(rows):
            log.append(
                requester_id=requester, role=role, user_token="ab" * 32, purpose=purpose,
                decision="granted" if reason is None else "denied", denial_reason=reason,
                timestamp=1_700_000_000.0 + k,
            )
        entries = log.entries()
        assert rechained(entries) == list(entries)
        assert verify_audit_chain(entries) == (True, None)
        path = tmp_path_factory.mktemp("audit") / "audit.jsonl"
        log.to_jsonl(str(path))
        assert path.read_bytes() == "".join(map(reference_line, entries)).encode("utf-8")

    @settings(max_examples=400, deadline=None)
    @example(k=2, field="seq", value=True, rechain=True)
    @example(k=2, field="seq", value=2.0, rechain=True)
    @example(k=1, field="denial_reason", value=7, rechain=True)
    @example(k=3, field="ts", value=None, rechain=True)
    @example(k=0, field="purpose", value=object(), rechain=True)
    @given(
        k=st.integers(0, 4),
        field=st.sampled_from(AUDIT_FIELD_NAMES),
        value=st.none()
        | st.booleans()
        | st.integers(-3, 8)
        | st.floats()
        | _FIELD_TEXT
        | st.lists(st.integers(), max_size=2)
        | st.dictionaries(st.text(max_size=3), st.integers(), max_size=2)
        | st.builds(object),
        rechain=st.booleans(),
    )
    def test_verify_agrees_with_reference_on_tampered_entries(self, k, field, value, rechain):
        ticks = iter(range(100))
        keys = KeyRing.from_hex("11" * 32, "22" * 32)
        vault = Vault(keys, clock=lambda: 1_700_000_000.0 + 60 * next(ticks))
        token = vault.register(IDENTITY)
        for role in ("coach", "analyst", "coach", "admin", "coach"):
            vault.restore_identity(_request(token, role=role))
        entries = list(vault.audit_log.entries())
        entries[k] = replace(entries[k], **{field: value})
        if rechain:
            entries = rechained(entries)
        assert verify_audit_chain(entries) == reference_verify(entries)
        try:
            line = reference_line(entries[k])
        except (TypeError, ValueError):
            return
        assert _export_line(entries[k]) == line


class TestKeyHygiene:
    def test_serialized_surfaces_never_contain_key_material(self, keys, tmp_path):
        vault = Vault(keys)
        token = vault.register(IDENTITY)
        vault.restore_identity(_request(token))
        vault.restore_identity(_request(token, role="analyst"))
        path = str(tmp_path / "audit.jsonl")
        vault.audit_log.to_jsonl(path)
        surfaces = [open(path).read()]
        try:
            vault.restore_identity(_request(token, purpose=""))
        except Exception as exc:  # pragma: no cover - defensive
            surfaces.append(str(exc))
        for key_bytes in (keys.token_key, keys.encryption_key):
            hexed = key_bytes.hex()
            b64 = base64.b64encode(key_bytes).decode()
            for surface in surfaces:
                assert hexed not in surface
                assert b64 not in surface


class VaultMachine(RuleBasedStateMachine):
    """Registrations, restorations by every role with and without MFA,
    reads of the log view, and a clock that only moves forward, checked
    against the governance invariants after every step. A restoration
    step repeats its request up to twelve times at one instant, and most
    clock steps stay well inside the window, so runs reach the rate limit
    of ten grants an hour per requester."""

    tokens = Bundle("tokens")
    LIMIT, WINDOW = RATE_LIMIT_GRANTS, RATE_LIMIT_WINDOW_SECONDS

    def __init__(self) -> None:
        super().__init__()
        self.now = 1_700_000_000.0
        counter = itertools.count(1)
        self.vault = Vault(
            KeyRing.from_hex("11" * 32, "22" * 32),
            clock=lambda: self.now,
            # Little-endian, so draws differ in their subject-id bytes.
            entropy=lambda n: next(counter).to_bytes(n, "little"),
        )
        self.identities: dict[str, dict] = {}
        self.granted_at: dict[str, list[float]] = {"r0": [], "r1": []}
        self.attempts = 0
        self.rate_denials = 0
        self.decrypts = 0
        decrypt = self.vault._decrypt

        def counting_decrypt(record):
            self.decrypts += 1
            return decrypt(record)

        self.vault._decrypt = counting_decrypt

    @rule(target=tokens, n=st.integers(0, 10**6))
    def register(self, n):
        identity = {"email": f"user{n}@example-mail.test", "full_name": f"Member {n}"}
        token = self.vault.register(identity)
        self.identities[token.value] = identity
        return token

    @rule(
        token=tokens,
        # Mostly grantable requests, so repeats run into the limit.
        role=st.sampled_from(sorted(RESTORE_ALLOWED_ROLES) * 2 + ["analyst", "auditor"]),
        mfa=st.sampled_from([True, True, True, False]),
        requester=st.sampled_from(["r0", "r1"]),
        repeats=st.integers(1, 12) | st.just(RATE_LIMIT_GRANTS + 1),
    )
    def restore(self, token, role, mfa, requester, repeats):
        request = RestorationRequest(requester, role, mfa, token, "check-in follow-up")
        for _ in range(repeats):
            decrypts = self.decrypts
            result = self.vault.restore_identity(request)
            self.attempts += 1
            recent = [t for t in self.granted_at[requester] if t > self.now - self.WINDOW]
            if role not in RESTORE_ALLOWED_ROLES:
                assert result.denial_reason == DENY_ROLE
            elif not mfa:
                assert result.denial_reason == DENY_MFA
            elif len(recent) >= self.LIMIT:
                assert result.denial_reason == DENY_RATE
                self.rate_denials += 1
            else:
                assert result.granted
                self.granted_at[requester].append(self.now)
            if result.granted:
                assert result.fields == self.identities[token.value]
                assert self.decrypts == decrypts + 1
            else:
                assert result.fields is None
                assert self.decrypts == decrypts

    @rule(seconds=st.integers(0, 900) | st.sampled_from([3600, 7200]))
    def advance_clock(self, seconds):
        self.now += seconds

    @rule()
    def read_log(self):
        view = self.vault.audit_log
        entries = view.entries()
        assert len(view) == len(entries)
        assert [entry.seq for entry in entries] == list(range(len(entries)))

    @invariant()
    def attempts_equal_audit_entries(self):
        assert len(self.vault.audit_log) == self.attempts

    @invariant()
    def chain_verifies(self):
        assert verify_audit_chain(self.vault.audit_log.entries()) == (True, None)

    @invariant()
    def timestamps_never_decrease(self):
        stamps = [datetime.fromisoformat(e.ts) for e in self.vault.audit_log.entries()]
        assert stamps == sorted(stamps)


TestVaultMachine = VaultMachine.TestCase
TestVaultMachine.settings = settings(max_examples=40, stateful_step_count=40, deadline=None)


def test_the_vault_machine_reaches_the_rate_limit():
    # The fixed limit is reachable from the machine's own steps: eleven
    # grantable requests of one requester at one instant.
    machine = VaultMachine()
    token = machine.register(n=1)
    machine.restore(token, "coach", True, "r0", repeats=RATE_LIMIT_GRANTS + 1)
    machine.advance_clock(seconds=900)
    machine.restore(token, "admin", True, "r0", repeats=1)
    assert machine.rate_denials == 2
    machine.advance_clock(seconds=3600)
    machine.restore(token, "operator", True, "r0", repeats=1)
    assert machine.rate_denials == 2 and len(machine.granted_at["r0"]) == RATE_LIMIT_GRANTS + 1
    machine.chain_verifies()
    machine.attempts_equal_audit_entries()
