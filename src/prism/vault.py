"""Identity vault: keyed tokenization, encrypted identity storage, and the
single controlled restoration boundary.

Raw identity fields live only here. Everything downstream sees stable
tokens: a field token binds a normalized field value to its field type
under the tokenization key, and a user token derives from a random
subject id so it survives changes to mutable contact fields.
:meth:`Vault.register` is the only way in: one entropy draw gives the
subject id and the AES-GCM nonce that seals the identity. Restoration
back to raw fields is role-gated, requires a verified-MFA assertion,
is rate limited, and is audited on a tamper-evident hash chain before
any response is returned. A request carries no time of its own: the
vault's clock times the rate limit and stamps the audit entry. The
vault's log is private; callers get a read-only view of it.
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
from operator import attrgetter
from typing import Callable, Mapping, Optional, Sequence

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .errors import (
    ConfigurationError,
    DecryptionError,
    InternalError,
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
# One registration draw: the subject id, then the nonce. Both are whole
# 32-bit words, so a seeded numpy source yields the same bytes as two draws.
REGISTRATION_BYTES = _SID_BYTES + _GCM_NONCE_BYTES

_IDENTITY_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_IDENTITY_DECODER = json.JSONDecoder()


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


def _context_suffix(field_context: str) -> bytes:
    # Length-prefixed context label: "ab"+"c" and "a"+"bc" must never collide.
    ctx = field_context.encode("ascii")
    return b"\x00" + struct.pack(">I", len(ctx)) + ctx


_USER_SUFFIX = _context_suffix("user")


def _keyed_tag(key: bytes, normalized: str, field_context: str) -> bytes:
    return hmac_sha256(key, normalized.encode("utf-8") + _context_suffix(field_context))


@dataclass(frozen=True)
class FieldToken:
    """Deterministic keyed tag for one field value in one field context."""

    value: str
    field_context: str

    def __post_init__(self) -> None:
        if not (isinstance(self.value, str) and len(self.value) == 64 and _is_hex(self.value)):
            raise ValidationError("field token must be a str of 64 lowercase hex chars")
        if self.field_context not in FIELD_CONTEXTS:
            raise ValidationError(f"unknown field context: {self.field_context!r}")


@dataclass(frozen=True)
class UserToken:
    """Stable pseudonymous handle for one user: the keyed tag of their
    random subject id in the ``user`` context, as :func:`tokenize_field`
    would give for the id's hex."""

    value: str

    def __post_init__(self) -> None:
        if not (isinstance(self.value, str) and len(self.value) == 64 and _is_hex(self.value)):
            raise ValidationError("user token must be a str of 64 lowercase hex chars")

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
    def from_env(cls) -> "KeyRing":
        token_hex = os.environ.get(TOKEN_KEY_ENV)
        enc_hex = os.environ.get(ENC_KEY_ENV)
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


# ---------------------------------------------------------------------------
# Audit log
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
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

    @classmethod
    def from_dict(cls, doc: Mapping) -> "AuditEntry":
        return cls(**{name: doc[name] for name in AUDIT_FIELDS})


AUDIT_FIELDS = field_names(AuditEntry)


# The chained payload of an entry is its fields but the hash, as
# ``json.dumps(..., sort_keys=True, separators=(",", ":"))`` writes them,
# and its export line is all its fields as ``json.dumps(..., sort_keys=True)``
# writes them. ``_encoded`` is the one encoder of both: when every field has
# the type ``append`` gives it (str, with an int ``seq`` and a str or None
# ``denial_reason``), it returns each field's JSON text, which is what
# ``json.dumps`` writes for it, and the two layouts below put them between
# their keys in sorted order. Anything else (a tampered entry) comes from
# ``json.dumps`` itself.
_PAYLOAD_FIELDS = tuple(sorted(name for name in AUDIT_FIELDS if name != "chain_hash"))
_LINE_FIELDS = tuple(sorted(AUDIT_FIELDS))
_payload_values = attrgetter(*_PAYLOAD_FIELDS)
_line_values = attrgetter(*_LINE_FIELDS)
_json_str = json.encoder.encode_basestring_ascii


def _encoded(values: Sequence) -> Optional[tuple[str, ...]]:
    """The JSON text of each payload field, ``values`` in ``_PAYLOAD_FIELDS``
    order, when each has the type ``append`` gives it; None otherwise."""
    decision, denial_reason, purpose, requester_id, role, seq, ts, user_token = values
    if not (
        str is type(decision) is type(purpose) is type(requester_id) is type(role)
        is type(ts) is type(user_token)
        and type(seq) is int
        and (denial_reason is None or type(denial_reason) is str)
    ):
        return None
    return (
        _json_str(decision),
        "null" if denial_reason is None else _json_str(denial_reason),
        _json_str(purpose),
        _json_str(requester_id),
        _json_str(role),
        int.__repr__(seq),
        _json_str(ts),
        _json_str(user_token),
    )


def _canonical_payload(values: Sequence) -> str:
    """The chained payload of the entry whose fields, in ``_PAYLOAD_FIELDS``
    order, are ``values``."""
    parts = _encoded(values)
    if parts is None:
        doc = dict(zip(_PAYLOAD_FIELDS, values))
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))
    decision, denial_reason, purpose, requester_id, role, seq, ts, user_token = parts
    return (
        f'{{"decision":{decision},"denial_reason":{denial_reason},"purpose":{purpose},'
        f'"requester_id":{requester_id},"role":{role},"seq":{seq},"ts":{ts},'
        f'"user_token":{user_token}}}'
    )


def _chain_hash(prev_hash: str, payload: str) -> str:
    # The payload is ASCII, as is the previous hash.
    return hashlib.sha256(f"{prev_hash}\n{payload}".encode()).hexdigest()


def _export_line(entry: AuditEntry) -> str:
    chain_hash, *values = _line_values(entry)
    parts = _encoded(values) if type(chain_hash) is str else None
    if parts is None:
        return json.dumps(dict(zip(_LINE_FIELDS, (chain_hash, *values))), sort_keys=True) + "\n"
    decision, denial_reason, purpose, requester_id, role, seq, ts, user_token = parts
    return (
        f'{{"chain_hash": {_json_str(chain_hash)}, "decision": {decision}, '
        f'"denial_reason": {denial_reason}, "purpose": {purpose}, '
        f'"requester_id": {requester_id}, "role": {role}, "seq": {seq}, "ts": {ts}, '
        f'"user_token": {user_token}}}\n'
    )


_new_object = object.__new__
_ENTRY_SETTERS = tuple(getattr(AuditEntry, name).__set__ for name in AUDIT_FIELDS)


def _new_entry(
    seq: int, requester_id: str, role: str, user_token: str, purpose: str,
    decision: str, denial_reason: Optional[str], ts: str, chain_hash: str,
) -> AuditEntry:
    """The entry of these fields, its slots set directly rather than by the
    frozen dataclass's ``__init__``, which calls ``object.__setattr__`` per
    field: for the log's own entries, whose values it has just made."""
    entry = _new_object(AuditEntry)
    s0, s1, s2, s3, s4, s5, s6, s7, s8 = _ENTRY_SETTERS
    s0(entry, seq)
    s1(entry, requester_id)
    s2(entry, role)
    s3(entry, user_token)
    s4(entry, purpose)
    s5(entry, decision)
    s6(entry, denial_reason)
    s7(entry, ts)
    s8(entry, chain_hash)
    return entry


_TWO_DIGITS = tuple(f"{i:02d}" for i in range(60))
# The day number and "YYYY-MM-DDT" prefix of the last integral stamp.
_day_prefix: tuple[Optional[int], str] = (None, "")


def rfc3339(ts: float) -> str:
    """``ts``, seconds since the Unix epoch, as
    ``datetime.fromtimestamp(ts, tz=timezone.utc).isoformat(timespec="microseconds")``
    writes it.

    An integral ``ts`` (an int, or a float with no fraction) on the same
    UTC day as the last one formatted takes that day's cached date prefix
    and only formats its time of day; the first stamp of each day, and any
    other value, is formatted by ``datetime``, which also raises for a
    value out of its range.
    """
    global _day_prefix
    if type(ts) is int or (type(ts) is float and ts.is_integer()):
        day, second = divmod(int(ts), 86400)
        cached_day, prefix = _day_prefix
        if day == cached_day:
            hour, second = divmod(second, 3600)
            minute, second = divmod(second, 60)
            return f"{prefix}{_TWO_DIGITS[hour]}:{_TWO_DIGITS[minute]}:{_TWO_DIGITS[second]}.000000+00:00"
        text = datetime.fromtimestamp(ts, tz=timezone.utc).isoformat(timespec="microseconds")
        _day_prefix = (day, text[:11])
        return text
    return datetime.fromtimestamp(ts, tz=timezone.utc).isoformat(timespec="microseconds")


class AuditLog:
    """Append-only, hash-chained audit log with serialized writers."""

    def __init__(self) -> None:
        self._entries: list[AuditEntry] = []
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

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
        """Chain one entry onto the log and return it.

        The entry is stamped ``rfc3339(timestamp)`` and numbered by the
        log's length. Its hash is SHA-256 over the previous entry's hash,
        a newline and the entry's payload, which ``_canonical_payload``
        builds straight from the field values: their JSON text between
        the sorted keys when each has the type given here, ``json.dumps``
        otherwise. The entry's slots are set directly, without the frozen
        dataclass's ``__init__``.
        """
        ts = rfc3339(timestamp)
        with self._lock:
            seq = len(self._entries)
            # The payload fields in sorted-name order, as _PAYLOAD_FIELDS lists them.
            payload = _canonical_payload(
                (decision, denial_reason, purpose, requester_id, role, seq, ts, user_token)
            )
            prev = self._entries[-1].chain_hash if seq else GENESIS_HASH
            entry = _new_entry(
                seq, requester_id, role, user_token, purpose, decision, denial_reason, ts,
                _chain_hash(prev, payload),
            )
            self._entries.append(entry)
            return entry

    def to_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(map(_export_line, self._entries))

    @classmethod
    def from_jsonl(cls, path: str) -> "AuditLog":
        log = cls()
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                if line.strip():
                    log._entries.append(AuditEntry.from_dict(json.loads(line)))
        return log


class AuditView:
    """Read-only view of a vault's audit log: its entries, length and
    JSONL export. Only the vault's own restorations append to the log."""

    __slots__ = ("_log",)

    def __init__(self, log: AuditLog) -> None:
        self._log = log

    def __len__(self) -> int:
        return len(self._log)

    def entries(self) -> tuple[AuditEntry, ...]:
        return self._log.entries()

    def to_jsonl(self, path: str) -> None:
        self._log.to_jsonl(path)


def verify_audit_chain(entries: Sequence[AuditEntry]) -> tuple[bool, Optional[int]]:
    """Recompute the hash chain; ``(True, None)`` iff intact, gapless and
    in time order.

    On any violation returns ``(False, index_of_first_bad_entry)``: a
    sequence gap, a hash mismatch, a field ``json.dumps`` cannot write, or
    a timestamp that is unreadable or earlier than the one before it. An
    empty log is vacuously valid.
    """
    prev = GENESIS_HASH
    prev_ts = None
    for i, entry in enumerate(entries):
        if entry.seq != i:
            return False, i
        try:
            expected = _chain_hash(prev, _canonical_payload(_payload_values(entry)))
            ts = datetime.fromisoformat(entry.ts)
            if entry.chain_hash != expected or (prev_ts is not None and ts < prev_ts):
                return False, i
        except (TypeError, ValueError):
            return False, i
        prev, prev_ts = entry.chain_hash, ts
    return True, None


# ---------------------------------------------------------------------------
# Rate limiting
# ---------------------------------------------------------------------------


# At most this many grants per requester in any window of this many seconds.
RATE_LIMIT_GRANTS = 10
RATE_LIMIT_WINDOW_SECONDS = 3600.0


class SlidingWindowRateLimiter:
    """Per-requester sliding window over granted restorations: at most
    ``RATE_LIMIT_GRANTS`` in the last ``RATE_LIMIT_WINDOW_SECONDS``."""

    def __init__(self) -> None:
        self._events: dict[str, list[float]] = {}

    def would_allow(self, key: str, now: float) -> bool:
        bucket = self._events.get(key)
        # Fewer grants than the cap in all can leave none to expire: the
        # bucket is pruned only when it holds the cap or more.
        if bucket is None or len(bucket) < RATE_LIMIT_GRANTS:
            return True
        cutoff = now - RATE_LIMIT_WINDOW_SECONDS
        live = [t for t in bucket if t > cutoff]
        self._events[key] = live
        return len(live) < RATE_LIMIT_GRANTS

    def record(self, key: str, now: float) -> None:
        self._events.setdefault(key, []).append(now)


# ---------------------------------------------------------------------------
# Vault
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RestorationRequest:
    """Who asks, in what role and MFA state, for whose identity and why.

    Every field has its type checked when the request is built, so the
    vault evaluates and audits only well-typed requests: a truthy
    non-bool never passes for verified MFA.
    """

    requester_id: str
    role: str
    mfa_verified: bool
    user_token: UserToken
    purpose: str

    def __post_init__(self) -> None:
        if not (
            isinstance(self.requester_id, str)
            and isinstance(self.role, str)
            and isinstance(self.purpose, str)
        ):
            raise ValidationError("requester_id, role and purpose must be strings")
        if type(self.mfa_verified) is not bool:
            raise ValidationError("mfa_verified must be a bool")
        if not isinstance(self.user_token, UserToken):
            raise ValidationError("user_token must be a UserToken")


@dataclass(frozen=True, slots=True)
class RestorationResult:
    granted: bool
    fields: Optional[Mapping[str, str]]
    denial_reason: Optional[str]
    audit_seq: Optional[int]


_RESULT_SETTERS = tuple(getattr(RestorationResult, name).__set__ for name in field_names(RestorationResult))


def _result(
    granted: bool, fields: Optional[dict], denial_reason: Optional[str], audit_seq: Optional[int]
) -> RestorationResult:
    """The result of these fields, its slots set directly as ``_new_entry`` does."""
    result = _new_object(RestorationResult)
    s0, s1, s2, s3 = _RESULT_SETTERS
    s0(result, granted)
    s1(result, fields)
    s2(result, denial_reason)
    s3(result, audit_seq)
    return result


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
    sees: it stamps the audit entry and times the fixed rate limit of
    ``RATE_LIMIT_GRANTS`` grants per requester in any
    ``RATE_LIMIT_WINDOW_SECONDS``. The audit log is the vault's own:
    ``audit_log`` is a read-only view of it, and only
    :meth:`restore_identity` appends.
    """

    def __init__(
        self,
        keys: KeyRing,
        *,
        clock: Callable[[], float] = time.time,
        entropy: Callable[[int], bytes] = secrets.token_bytes,
    ) -> None:
        self._aead = AESGCM(keys.encryption_key)
        self._user_mac = hmac.new(keys.token_key, digestmod=hashlib.sha256)
        # A user token's value -> its sealed identity, nonce || AEAD output.
        self._records: dict[str, bytes] = {}
        self._audit = AuditLog()
        self._limiter = SlidingWindowRateLimiter()
        self._clock = clock
        self._entropy = entropy
        self._lock = threading.Lock()

    @property
    def audit_log(self) -> AuditView:
        return AuditView(self._audit)

    # -- identity intake ----------------------------------------------------

    def register(self, identity_fields: Mapping[str, str]) -> UserToken:
        """Register one subject: the only way an identity enters the vault.

        One ``entropy`` draw gives a random 16-byte subject id and the
        12-byte AES-GCM nonce. The user token is the keyed tag of the
        id's hex in the ``user`` context, so it is content-free (identical
        payloads get distinct tokens) and stable; the id itself is not
        kept. The identity is stored as ``nonce || AEAD(fields)``.
        """
        if not identity_fields:
            raise ValidationError("registration payload must contain at least one identity field")
        try:
            plaintext = _IDENTITY_ENCODER.encode(dict(identity_fields)).encode("utf-8")
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"identity fields are not serializable: {exc}") from exc
        with self._lock:
            for _ in range(3):
                draw = self._entropy(REGISTRATION_BYTES)
                if len(draw) != REGISTRATION_BYTES:
                    raise InternalError("entropy source returned the wrong number of bytes")
                mac = self._user_mac.copy()
                mac.update(draw[:_SID_BYTES].hex().encode("ascii") + _USER_SUFFIX)
                token = mac.hexdigest()
                if token not in self._records:
                    break
            else:
                raise InternalError(
                    "subject id collision persisted across retries; retry registration"
                )
            nonce = draw[_SID_BYTES:]
            user_token = UserToken(token)
            self._records[token] = nonce + self._aead.encrypt(nonce, plaintext, None)
            self._clock()  # one tick per registration: later audit timestamps count on it
            return user_token

    def _decrypt(self, sealed: bytes) -> dict:
        nonce, body = sealed[:_GCM_NONCE_BYTES], sealed[_GCM_NONCE_BYTES:]
        try:
            plaintext = self._aead.decrypt(nonce, body, None)
        except InvalidTag as exc:
            raise DecryptionError(
                "authenticated decryption failed for vault record"
            ) from exc
        # The plaintext is _IDENTITY_ENCODER's output, authenticated by the
        # AEAD tag: one JSON object with nothing around it.
        return _IDENTITY_DECODER.raw_decode(plaintext.decode("utf-8"))[0]

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
            token = request.user_token.value
            try:
                entry = self._audit.append(
                    requester_id=request.requester_id,
                    role=request.role,
                    user_token=token,
                    purpose=request.purpose,
                    decision="granted" if reason is None else "denied",
                    denial_reason=reason,
                    timestamp=now,
                )
            except Exception:
                # Governance-first ordering: no audit record, no restoration.
                return _result(False, None, DENY_AUDIT_UNAVAILABLE, None)
            if reason is not None:
                return _result(False, None, reason, entry.seq)
            self._limiter.record(request.requester_id, now)
            return _result(True, self._decrypt(self._records[token]), None, entry.seq)
