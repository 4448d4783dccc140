"""Identity vault: keyed tokenization, encrypted identity storage, and the
single controlled restoration boundary.

Raw identity fields live only here. Everything downstream sees stable
tokens: a field token binds a normalized field value to its field type
under the tokenization key, and a user token derives from a random
subject id so it survives changes to mutable contact fields. Restoration
back to raw fields is role-gated, requires a verified-MFA assertion,
is rate limited, and is audited on a tamper-evident hash chain before
any response is returned. A request carries no time of its own: the
vault's clock times the rate limit and stamps the audit entry.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import os
import re
import secrets
import struct
import threading
import time
import unicodedata
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Callable, Mapping, Optional, Sequence

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .errors import (
    ConfigurationError,
    DecryptionError,
    InternalError,
    NotFoundError,
    ValidationError,
)
from .records import field_names

TOKEN_KEY_ENV = "PRISM_TOKEN_KEY"
ENC_KEY_ENV = "PRISM_ENC_KEY"

FIELD_CONTEXTS = ("email", "phone", "name", "dob", "address", "user")

ROLES = ("coach", "operator", "admin", "analyst")
RESTORE_ALLOWED_ROLES = frozenset({"coach", "operator", "admin"})

GENESIS_HASH = "0" * 64

_GCM_NONCE_BYTES = 12
_KEY_BYTES = 32
_SID_BYTES = 16


def hmac_sha256(key: bytes, data: bytes) -> bytes:
    """HMAC-SHA-256 of ``data`` under ``key`` (the keyed-tag primitive)."""
    return hmac.new(key, data, hashlib.sha256).digest()


def normalize_field(value: str, field_context: str) -> str:
    """Canonicalize a field value prior to tokenization.

    All contexts get Unicode NFC plus whitespace trimming; emails and
    names are additionally lowercased, and phone numbers are reduced to
    their ASCII digits.
    """
    if field_context not in FIELD_CONTEXTS:
        raise ValidationError(f"unknown field context: {field_context!r}")
    if not isinstance(value, str):
        raise ValidationError("field value must be a string")
    text = unicodedata.normalize("NFC", value).strip()
    if field_context in ("email", "name"):
        return text.lower()
    if field_context == "phone":
        return "".join(ch for ch in text if ch in "0123456789")
    return text


def _keyed_tag(key: bytes, normalized: str, field_context: str) -> bytes:
    # Length-prefixed context label: "ab"+"c" and "a"+"bc" must never collide.
    ctx = field_context.encode("ascii")
    msg = normalized.encode("utf-8") + b"\x00" + struct.pack(">I", len(ctx)) + ctx
    return hmac_sha256(key, msg)


@dataclass(frozen=True)
class SubjectId:
    """Random 128-bit internal identifier minted at registration.

    Never derived from user attributes; exists only inside the vault
    mapping.
    """

    value: str

    def __post_init__(self) -> None:
        if len(self.value) != 2 * _SID_BYTES or not _is_hex(self.value):
            raise ValidationError("subject id must be 32 lowercase hex chars")


@dataclass(frozen=True)
class FieldToken:
    """Deterministic keyed tag for one field value in one field context."""

    value: str
    field_context: str

    def __post_init__(self) -> None:
        if len(self.value) != 64 or not _is_hex(self.value):
            raise ValidationError("field token must be 64 lowercase hex chars")
        if self.field_context not in FIELD_CONTEXTS:
            raise ValidationError(f"unknown field context: {self.field_context!r}")


@dataclass(frozen=True)
class UserToken:
    """Stable pseudonymous handle for one user, derived from the subject id."""

    value: str

    def __post_init__(self) -> None:
        if len(self.value) != 64 or not _is_hex(self.value):
            raise ValidationError("user token must be 64 lowercase hex chars")

    def __str__(self) -> str:
        return self.value


_LOWER_HEX = re.compile("[0-9a-f]*")


def _is_hex(s: str) -> bool:
    return _LOWER_HEX.fullmatch(s) is not None


@dataclass(frozen=True)
class KeyRing:
    """Tokenization and encryption keys, loaded at startup.

    Key material is never rendered by ``repr`` and must never reach
    logs, exports, or error messages.
    """

    token_key: bytes
    encryption_key: bytes

    def __post_init__(self) -> None:
        if len(self.token_key) != _KEY_BYTES or len(self.encryption_key) != _KEY_BYTES:
            raise ConfigurationError("keys must be exactly 32 bytes each")

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return "KeyRing(<redacted>)"

    @classmethod
    def from_hex(cls, token_hex: str, enc_hex: str) -> "KeyRing":
        try:
            return cls(bytes.fromhex(token_hex), bytes.fromhex(enc_hex))
        except (TypeError, ValueError) as exc:
            raise ConfigurationError("keys must be 64 hex characters each") from exc

    @classmethod
    def from_env(cls, environ: Mapping[str, str] | None = None) -> "KeyRing":
        env = os.environ if environ is None else environ
        token_hex = env.get(TOKEN_KEY_ENV)
        enc_hex = env.get(ENC_KEY_ENV)
        if not token_hex or not enc_hex:
            raise ConfigurationError(
                f"{TOKEN_KEY_ENV} and {ENC_KEY_ENV} must be set (64 hex chars each)"
            )
        return cls.from_hex(token_hex, enc_hex)

    @classmethod
    def from_config(cls, path: str) -> "KeyRing":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"cannot read key config {path}: {exc}") from exc
        if not isinstance(doc, dict) or "token_key" not in doc or "encryption_key" not in doc:
            raise ConfigurationError("key config must provide token_key and encryption_key")
        return cls.from_hex(doc["token_key"], doc["encryption_key"])


def tokenize_field(value: str, field_context: str, keys: KeyRing) -> FieldToken:
    """Deterministic, context-bound keyed tokenization of one field value."""
    normalized = normalize_field(value, field_context)
    tag = _keyed_tag(keys.token_key, normalized, field_context)
    return FieldToken(value=tag.hex(), field_context=field_context)


def user_token_for_subject(sid: SubjectId, keys: KeyRing) -> UserToken:
    """Stable user token: keyed tag over the subject id in the ``user`` context."""
    normalized = normalize_field(sid.value, "user")
    return UserToken(_keyed_tag(keys.token_key, normalized, "user").hex())


# ---------------------------------------------------------------------------
# Audit log
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AuditEntry:
    """Immutable who/what/when/why record for one restoration attempt."""

    seq: int
    requester_id: str
    role: str
    user_token: str
    purpose: str
    decision: str
    denial_reason: Optional[str]
    ts: str
    chain_hash: str

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in AUDIT_FIELDS}

    @classmethod
    def from_dict(cls, doc: Mapping) -> "AuditEntry":
        return cls(**{name: doc[name] for name in AUDIT_FIELDS})


AUDIT_FIELDS = field_names(AuditEntry)


def _canonical_entry_payload(entry_fields: Mapping) -> bytes:
    payload = {k: entry_fields[k] for k in AUDIT_FIELDS if k != "chain_hash"}
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _chain_hash(prev_hash: str, entry_fields: Mapping) -> str:
    h = hashlib.sha256()
    h.update(prev_hash.encode("ascii"))
    h.update(b"\n")
    h.update(_canonical_entry_payload(entry_fields))
    return h.hexdigest()


def rfc3339(ts: float) -> str:
    return datetime.fromtimestamp(ts, tz=timezone.utc).isoformat(timespec="microseconds")


class AuditLog:
    """Append-only, hash-chained audit log with serialized writers."""

    def __init__(self) -> None:
        self._entries: list[AuditEntry] = []
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def tip(self) -> str:
        return self._entries[-1].chain_hash if self._entries else GENESIS_HASH

    def entries(self) -> tuple[AuditEntry, ...]:
        return tuple(self._entries)

    def append(
        self,
        *,
        requester_id: str,
        role: str,
        user_token: str,
        purpose: str,
        decision: str,
        denial_reason: Optional[str],
        timestamp: float,
    ) -> AuditEntry:
        with self._lock:
            fields = {
                "seq": len(self._entries),
                "requester_id": requester_id,
                "role": role,
                "user_token": user_token,
                "purpose": purpose,
                "decision": decision,
                "denial_reason": denial_reason,
                "ts": rfc3339(timestamp),
            }
            fields["chain_hash"] = _chain_hash(self.tip, fields)
            entry = AuditEntry(**fields)
            self._entries.append(entry)
            return entry

    def to_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for entry in self._entries:
                fh.write(json.dumps(entry.to_dict(), sort_keys=True) + "\n")

    @classmethod
    def from_jsonl(cls, path: str) -> "AuditLog":
        log = cls()
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                if line.strip():
                    log._entries.append(AuditEntry.from_dict(json.loads(line)))
        return log


def verify_audit_chain(entries: Sequence[AuditEntry]) -> tuple[bool, Optional[int]]:
    """Recompute the hash chain; ``(True, None)`` iff intact, gapless and
    in time order.

    On any violation returns ``(False, index_of_first_bad_entry)``: a
    sequence gap, a hash mismatch, or a timestamp that is unreadable or
    earlier than the one before it. An empty log is vacuously valid.
    """
    prev = GENESIS_HASH
    prev_ts = None
    for i, entry in enumerate(entries):
        if entry.seq != i:
            return False, i
        expected = _chain_hash(prev, entry.to_dict())
        if entry.chain_hash != expected:
            return False, i
        try:
            ts = datetime.fromisoformat(entry.ts)
            if prev_ts is not None and ts < prev_ts:
                return False, i
        except (TypeError, ValueError):
            return False, i
        prev, prev_ts = entry.chain_hash, ts
    return True, None


# ---------------------------------------------------------------------------
# Rate limiting
# ---------------------------------------------------------------------------


class SlidingWindowRateLimiter:
    """Per-requester sliding window over granted restorations."""

    def __init__(self, max_events: int = 10, window_seconds: float = 3600.0) -> None:
        if max_events < 1 or window_seconds <= 0:
            raise ValidationError("rate limiter needs max_events >= 1 and a positive window")
        self.max_events = max_events
        self.window_seconds = window_seconds
        self._events: dict[str, list[float]] = {}

    def would_allow(self, key: str, now: float) -> bool:
        bucket = self._events.get(key)
        if not bucket:
            return True
        cutoff = now - self.window_seconds
        live = [t for t in bucket if t > cutoff]
        self._events[key] = live
        return len(live) < self.max_events

    def record(self, key: str, now: float) -> None:
        self._events.setdefault(key, []).append(now)


# ---------------------------------------------------------------------------
# Vault
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VaultRecord:
    """Encrypted identity payload; ciphertext is nonce || AEAD output."""

    user_token: UserToken
    ciphertext: bytes
    created_at: float


@dataclass(frozen=True)
class RestorationRequest:
    """Who asks, in what role and MFA state, for whose identity and why."""

    requester_id: str
    role: str
    mfa_verified: bool
    user_token: UserToken
    purpose: str


@dataclass(frozen=True)
class RestorationResult:
    granted: bool
    fields: Optional[Mapping[str, str]]
    denial_reason: Optional[str]
    audit_seq: Optional[int]


DENY_EMPTY_PURPOSE = "empty_purpose"
DENY_ROLE = "role_forbidden"
DENY_MFA = "mfa_required"
DENY_RATE = "rate_limited"
DENY_UNKNOWN_TOKEN = "unknown_token"
DENY_AUDIT_UNAVAILABLE = "audit_unavailable"


class Vault:
    """Identity store plus the one controlled restoration pathway.

    ``entropy`` supplies subject-id and nonce randomness and defaults to
    the OS CSPRNG; the simulator injects a seeded source so synthetic
    worlds are reproducible. ``clock`` is the only time a restoration
    sees: it stamps the audit entry and times the rate limiter.
    """

    def __init__(
        self,
        keys: KeyRing,
        *,
        audit_log: Optional[AuditLog] = None,
        rate_limiter: Optional[SlidingWindowRateLimiter] = None,
        clock: Callable[[], float] = time.time,
        entropy: Callable[[int], bytes] = secrets.token_bytes,
    ) -> None:
        self._keys = keys
        self._aead = AESGCM(keys.encryption_key)
        self._subjects: dict[str, str] = {}  # sid hex -> token hex
        self._token_to_sid: dict[str, str] = {}
        self._records: dict[str, VaultRecord] = {}
        self.audit_log = audit_log if audit_log is not None else AuditLog()
        self._limiter = rate_limiter or SlidingWindowRateLimiter()
        self._clock = clock
        self._entropy = entropy
        self._lock = threading.RLock()

    # -- identity intake ----------------------------------------------------

    def mint_subject(self, registration_payload: Mapping[str, str]) -> tuple[SubjectId, UserToken]:
        """Mint a random subject id and its stable user token.

        The sid/token mapping is persisted only inside the vault; the
        token is content-free, so identical payloads still yield
        distinct subjects.
        """
        if not registration_payload:
            raise ValidationError("registration payload must contain at least one identity field")
        with self._lock:
            for _ in range(3):
                sid = SubjectId(self._entropy(_SID_BYTES).hex())
                if sid.value not in self._subjects:
                    break
            else:
                raise InternalError("subject id collision persisted across retries; retry mint")
            token = user_token_for_subject(sid, self._keys)
            self._subjects[sid.value] = token.value
            self._token_to_sid[token.value] = sid.value
            return sid, token

    def store_identity(self, user_token: UserToken, identity_fields: Mapping[str, str]) -> VaultRecord:
        """Encrypt and index identity fields under an already-minted token."""
        with self._lock:
            if user_token.value not in self._token_to_sid:
                raise NotFoundError("user token was not minted by this vault")
            try:
                plaintext = json.dumps(
                    dict(identity_fields), sort_keys=True, separators=(",", ":")
                ).encode("utf-8")
            except (TypeError, ValueError) as exc:
                raise ValidationError(f"identity fields are not serializable: {exc}") from exc
            nonce = self._entropy(_GCM_NONCE_BYTES)
            ciphertext = nonce + self._aead.encrypt(nonce, plaintext, None)
            record = VaultRecord(
                user_token=user_token, ciphertext=ciphertext, created_at=self._clock()
            )
            self._records[user_token.value] = record
            return record

    def register(self, identity_fields: Mapping[str, str]) -> UserToken:
        """Convenience: mint a subject and store its identity in one step."""
        _, token = self.mint_subject(identity_fields)
        self.store_identity(token, identity_fields)
        return token

    def _decrypt(self, record: VaultRecord) -> dict:
        nonce, body = record.ciphertext[:_GCM_NONCE_BYTES], record.ciphertext[_GCM_NONCE_BYTES:]
        try:
            plaintext = self._aead.decrypt(nonce, body, None)
        except InvalidTag as exc:
            raise DecryptionError(
                "authenticated decryption failed for vault record"
            ) from exc
        return json.loads(plaintext.decode("utf-8"))

    # -- controlled restoration ----------------------------------------------

    def _evaluate(self, request: RestorationRequest, now: float) -> Optional[str]:
        """Return a denial reason, or None when the request may be granted."""
        if not request.purpose or not request.purpose.strip():
            return DENY_EMPTY_PURPOSE
        if request.role not in RESTORE_ALLOWED_ROLES:
            return DENY_ROLE
        if not request.mfa_verified:
            return DENY_MFA
        if not self._limiter.would_allow(request.requester_id, now):
            return DENY_RATE
        if request.user_token.value not in self._records:
            return DENY_UNKNOWN_TOKEN
        return None

    def restore_identity(self, request: RestorationRequest) -> RestorationResult:
        """Evaluate, audit, then answer a restoration request.

        Every attempt appends exactly one audit entry before the
        response is produced; if the append fails the restoration fails
        closed with a denial.
        """
        with self._lock:
            now = self._clock()
            reason = self._evaluate(request, now)
            decision = "granted" if reason is None else "denied"
            try:
                entry = self.audit_log.append(
                    requester_id=request.requester_id,
                    role=request.role,
                    user_token=request.user_token.value,
                    purpose=request.purpose,
                    decision=decision,
                    denial_reason=reason,
                    timestamp=now,
                )
            except Exception:
                # Governance-first ordering: no audit record, no restoration.
                return RestorationResult(False, None, DENY_AUDIT_UNAVAILABLE, None)
            if reason is not None:
                return RestorationResult(False, None, reason, entry.seq)
            self._limiter.record(request.requester_id, now)
            fields = self._decrypt(self._records[request.user_token.value])
            return RestorationResult(True, fields, None, entry.seq)
