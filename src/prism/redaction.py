"""Rule-based free-text de-identification and residual-leak auditing.

Detection is deterministic: regular expressions plus a built-in name
dictionary, or the patterns of a rules file read by ``load_rules``.
Overlapping matches resolve longest-first, then leftmost, then by a
fixed entity-type priority, so output never depends on rule ordering.
Matches are replaced by typed placeholders; rare identifiers (long
digit runs) and sub-city geolocation are generalized rather than
deleted so sentence structure survives.

Three rewrites keep scans cheap without changing a span. The NAME
dictionary is factored by first letter behind a lookahead on those
letters. Each other built-in pattern runs only on text that passes its
prefilters, necessary conditions that every match satisfies: EMAIL
needs an ``@``; each digit pattern needs a ``\\d``, one test shared by all
five, and then a longer piece of its own, such as six digits in a row
for ID_NUMBER. DOB also needs one of its birth-context words, searched
under the pattern's own case folding, so a digit-rich post without one
(a phone number, a member id) skips the date scan. Each condition runs
at most once per text. And an ASCII text, every synthetic post among
them, is case-folded once: the built-in ``(?i)`` patterns (NAME over the
default dictionary, ADDRESS, DOB) run as case-sensitive twins on its
lowered copy, and each prefilter condition is answered by substring
tests on the lowered copy or on one skeleton of the text, in which each
digit is ``0`` and each ``\\s`` character a space. Any other text keeps
the regex path, each condition a regex search and each pattern run as
written. Prefilters and twins are keyed by the exact built-in pattern
text, so a rule loaded with any other pattern always runs as written. A
rule looks up its prefilters, its twin and its replacement group once,
when it is built, and one internal scan serves every caller. A span is a
:class:`SpanAt`, its position and entity type; no public function hands
out the text a span matched.

``default_rules`` returns the built-in rules and ``load_rules`` custom
ones, a NAME pattern over another dictionary among them. Each returns a
:class:`RuleSet`, an immutable tuple of rules that works out once what
every text scanned under it shares: the distinct prefilter conditions
with their regex and ASCII tests, the pattern each rule runs on either
path and the conditions it needs, the zero count of each entity type
and the placeholder of each type. Every function that takes ``rules``
takes a rule set, or None for the default rules, and rejects anything
else. The default rule set is built on first use and shared, so passing
no rules costs no compiling.

A :class:`ScanMemo` scans each distinct text once under one rule set and
keeps its resolved spans, for callers whose texts repeat, such as the
coaching assistant's summaries and drafts. ``leak_audit`` keeps a memo
of its own per call.

A :class:`DeidPool` keeps one read-only mapping per distinct cohort
and per distinct count of a run's de-identified output, so every post
redacted through it shares its cohort and count mappings with the equal
posts before it. Every :class:`DeidText` holds read-only mappings.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from operator import itemgetter
from types import MappingProxyType
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Optional, Sequence

from .errors import ConfigurationError, ValidationError
from .records import Record, _is_int
from .vault import UserToken

ENTITY_TYPES = ("EMAIL", "PHONE", "NAME", "ADDRESS", "DOB", "ID_NUMBER", "GEO_FINE")

# Tie-break order for equal-length overlapping spans; independent of the
# order rules are supplied in.
_TYPE_PRIORITY = {t: i for i, t in enumerate(ENTITY_TYPES)}

PLACEHOLDERS = {
    "EMAIL": "[EMAIL]",
    "PHONE": "[PHONE]",
    "NAME": "[NAME]",
    "ADDRESS": "[ADDRESS]",
    "DOB": "[DOB]",
    "ID_NUMBER": "[ID]",
    "GEO_FINE": "[LOCATION]",
}

# Name dictionary used by the default NAME rule. Names deliberately avoid
# the hex alphabet (a-f only) and placeholder words so they can never
# collide with tokens or already-redacted text.
DEFAULT_FIRST_NAMES = (
    "Marisol", "Thaddeus", "Yolanda", "Desmond", "Priya", "Santiago",
    "Ingrid", "Kwame", "Noor", "Matteo", "Zofia", "Ravi", "Celeste",
    "Omar", "Freya", "Dmitri", "Anika", "Leandro", "Saoirse", "Tobias",
    "Imani", "Henrik", "Lucia", "Farid", "Bronwyn", "Emeka", "Sigrid",
    "Alejandro", "Keiko", "Rasmus", "Amara", "Vikram",
)
DEFAULT_LAST_NAMES = (
    "Hibbert", "Okafor", "Lindqvist", "Marchetti", "Novak", "Oyelaran",
    "Petrov", "Whitlock", "Nakamura", "Fontaine", "Abernathy", "Delacroix",
    "Vasquez", "Thornbury", "Ogawa", "Sorensen", "Castellano", "Mbeki",
    "Halvorsen", "Quintero", "Rahimi", "Beaumont", "Kowalski", "Ashworth",
    "Duarte", "Ferreira", "Grimaldi", "Holloway", "Iyer", "Jankowski",
    "Katsaros", "Lombardi",
)

_EMAIL_PATTERN = r"\b[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}\b"
_PHONE_PATTERN = (
    r"(?<!\d)(?:\+?1[-.\s])?(?:\(\d{3}\)[\s.-]?|\d{3}[\s.-])\d{3}[\s.-]\d{4}(?!\d)"
)
# Date forms only when anchored to a birth-context word; the date part is
# the named group that gets replaced, so the context word survives.
_DOB_PATTERN = (
    r"(?i)\b(?:born(?:\s+on)?|birthday|birth\s*date|date\s+of\s+birth|dob|b\.?day)\b\W{0,8}"
    r"(?P<entity>\d{4}-\d{2}-\d{2}"
    r"|\d{1,2}/\d{1,2}/\d{2,4}"
    r"|(?:jan|feb|mar|apr|may|jun|jul|aug|sep|oct|nov|dec)[a-z]*\.?\s+\d{1,2},?\s+\d{4})"
)
_ADDRESS_PATTERN = (
    r"(?i)\b\d{1,5}\s+(?:[a-z]+\s+){0,2}"
    r"(?:street|st|avenue|ave|road|rd|boulevard|blvd|lane|ln|drive|dr|court|ct"
    r"|way|place|pl|terrace|ter|crescent|cres)\b\.?"
)
_GEO_PATTERN = r"[-+]?\d{1,3}\.\d{3,}\s*,\s*[-+]?\d{1,3}\.\d{3,}"
# Standalone digit runs of 6 or more: member numbers, order ids, etc.
# Lookarounds keep decimals and word-embedded digits out.
_ID_PATTERN = r"(?<![\w.\-])\d{6,}(?![\w.\-])"

# Necessary conditions of the built-in patterns, keyed by pattern text: a
# text in which one of a pattern's conditions finds nothing cannot match
# the pattern. They are tried in order, so the cheap shared digit test
# rejects most digit-free text before any longer one runs. ``\d`` and
# ``\s`` are the same Unicode classes the patterns use.
_HAS_AT = re.compile("@")
_HAS_DIGIT = re.compile(r"\d")
_PHONE_TAIL = re.compile(r"\d{3}[\s.-]\d{4}")  # the last two parts
_HOUSE_NUMBER = re.compile(r"\d\s")  # house number, then space
_DATE_DIGITS = re.compile(r"\d(?:/|\d{3})")  # d/m/y, or a 4-digit year
# Every context word, folded as the pattern folds it: born, birth*, b.day, dob.
_BIRTH_WORD = re.compile(r"(?i)b(?:orn|irth|\.?day)|dob")
_SIX_DIGITS = re.compile(r"\d{6}")
_COORDINATE = re.compile(r"\d\.\d{3}")  # the first coordinate
_PREFILTERS = {
    _EMAIL_PATTERN: (_HAS_AT,),
    _PHONE_PATTERN: (_HAS_DIGIT, _PHONE_TAIL),
    _ADDRESS_PATTERN: (_HAS_DIGIT, _HOUSE_NUMBER),
    _DOB_PATTERN: (_HAS_DIGIT, _DATE_DIGITS, _BIRTH_WORD),
    _ID_PATTERN: (_HAS_DIGIT, _SIX_DIGITS),
    _GEO_PATTERN: (_HAS_DIGIT, _COORDINATE),
}

# The skeleton of an ASCII text, as bytes: each digit becomes ``0`` and
# each character ``\s`` matches becomes a space, so a run of classes is
# one substring. Encoding and a byte table cost a fraction of
# ``str.translate`` with a mapping.
_SKELETON = bytes.maketrans(b"0123456789\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f", b"0" * 10 + b" " * 9)

# The ASCII test of each condition, on the lowered text and the skeleton
# of an ASCII text: true exactly when the condition finds a match in the
# text. ASCII ``(?i)`` folds only letter case, so the lowered text holds
# every case spelling of a context word.
_ASCII_TESTS = {
    _HAS_AT: lambda low, skel: "@" in low,
    _HAS_DIGIT: lambda low, skel: b"0" in skel,
    _PHONE_TAIL: lambda low, skel: (
        b"000 0000" in skel or b"000.0000" in skel or b"000-0000" in skel
    ),
    _HOUSE_NUMBER: lambda low, skel: b"0 " in skel,
    _DATE_DIGITS: lambda low, skel: b"0/" in skel or b"0000" in skel,
    _BIRTH_WORD: lambda low, skel: (
        "born" in low or "birth" in low or "bday" in low or "b.day" in low or "dob" in low
    ),
    _SIX_DIGITS: lambda low, skel: b"000000" in skel,
    _COORDINATE: lambda low, skel: b"0.000" in skel,
}


def _name_pattern(first_names: Sequence[str], last_names: Sequence[str], fold: bool) -> str:
    """Dictionary matcher: a known first name, optionally followed by a
    known last name, or with ``fold`` its case-sensitive twin for lowered
    text: every name lowered, in the same order. The twin is exact only
    when every name is ASCII.

    Names are tried in sorted order, grouped by first character; a
    lookahead on the first characters rejects most positions before any
    name is tried.
    """
    spell = str.lower if fold else str
    first = _first_letter_alternation(first_names, spell)
    last = _first_letter_alternation(last_names, spell)
    heads = sorted(set(spell(n[:1]) for n in first_names))
    # An empty first name matches without a first character, so it
    # (like an empty list) leaves no lookahead.
    lookahead = f"(?=[{''.join(map(re.escape, heads))}])" if heads and heads[0] else ""
    flags = "" if fold else "(?i)"
    return rf"{flags}\b{lookahead}(?:{first})(?:\s+(?:{last}))?\b"


def _first_letter_alternation(names: Sequence[str], spell: Callable[[str], str]) -> str:
    """``sorted(names)`` as one alternation, factored by first character,
    each piece spelled by ``spell``.

    Names that share a first character are contiguous in sorted order,
    so the alternatives are tried in the same order as the flat
    ``a|b|c`` form, which makes the two match identically. An empty
    name stays an empty alternative.
    """
    tails: dict[str, list[str]] = {}
    for name in sorted(names):
        tails.setdefault(name[:1], []).append(re.escape(spell(name[1:])))
    return "|".join(f"{re.escape(spell(head))}(?:{'|'.join(t)})" for head, t in tails.items())


_NAME_PATTERN = _name_pattern(DEFAULT_FIRST_NAMES, DEFAULT_LAST_NAMES, fold=False)

# Case-sensitive twins of the built-in ``(?i)`` patterns, keyed by pattern
# text, for the lowered copy of an ASCII text. Every literal in a twin is
# lower case, and ASCII ``lower()`` keeps each position and each
# ``\b``/``\w``/``\s``/``\d`` class, so on the lowered copy a twin finds
# exactly the spans its pattern finds on the text.
_FOLDED = {
    _ADDRESS_PATTERN: _ADDRESS_PATTERN.removeprefix("(?i)"),
    _DOB_PATTERN: _DOB_PATTERN.removeprefix("(?i)"),
    _NAME_PATTERN: _name_pattern(DEFAULT_FIRST_NAMES, DEFAULT_LAST_NAMES, fold=True),
}


@dataclass(frozen=True)
class RedactionRule:
    """One detection rule: entity type, compiled pattern, typed placeholder.

    A rule also carries its scan plan, which its pattern fixes and which
    is looked up once, when the rule is built: the prefilter conditions
    to pass before the pattern runs (none for a pattern that is not
    built in), the case-sensitive twin that stands in for a built-in
    ``(?i)`` pattern on the lowered copy of an ASCII text (None for
    every other pattern) and the group whose span is replaced
    (``entity`` where the pattern names one, else the whole match).
    """

    entity_type: str
    pattern: "re.Pattern[str]"
    placeholder: str
    prefilters: tuple["re.Pattern[str]", ...] = field(init=False, repr=False, compare=False)
    folded: Optional["re.Pattern[str]"] = field(init=False, repr=False, compare=False)
    group: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        text = self.pattern.pattern
        object.__setattr__(self, "prefilters", _PREFILTERS.get(text, ()))
        twin = _FOLDED.get(text)
        # The twin keeps every flag but the case folding it replaces.
        folded = None if twin is None else re.compile(twin, self.pattern.flags & ~re.IGNORECASE)
        object.__setattr__(self, "folded", folded)
        object.__setattr__(self, "group", self.pattern.groupindex.get("entity", 0))

    @classmethod
    def compile(cls, entity_type: str, pattern: str, placeholder: str) -> "RedactionRule":
        if entity_type not in ENTITY_TYPES:
            raise ConfigurationError(f"unknown entity type: {entity_type!r}")
        try:
            compiled = re.compile(pattern)
        except re.error as exc:
            raise ConfigurationError(
                f"rule pattern for {entity_type} does not compile: {exc}"
            ) from exc
        return cls(entity_type=entity_type, pattern=compiled, placeholder=placeholder)


class RuleSet(tuple):
    """An immutable tuple of :class:`RedactionRule` (any other item is a
    ``ValidationError``) with the plan that
    every text scanned or redacted under it shares, worked out once:

    - ``conditions``: the distinct prefilter conditions, in first use;
    - ``regex_plan`` and ``ascii_plan``: ``(tests, steps)`` for any text
      and for ASCII text. ``tests[i]`` answers ``conditions[i]``: its
      ``search`` on the text, or its ASCII test on the lowered text and
      the skeleton. ``steps`` holds, per rule in rule order, ``(needs,
      pattern, view, group, entity_type)``, where ``needs`` indexes
      ``conditions`` and ``view`` is 1 when ``pattern`` is the rule's
      folded twin, to run on the lowered text, else 0;
    - ``zero_counts``: each entity type mapped to 0, in rule order, the
      template of ``redact``'s counts;
    - ``placeholders``: each entity type's placeholder, taken from the
      type's last rule.
    """

    def __new__(cls, rules: Iterable[RedactionRule]) -> "RuleSet":
        self = super().__new__(cls, rules)
        if not all(isinstance(rule, RedactionRule) for rule in self):
            raise ValidationError("a RuleSet holds RedactionRule items only")
        index: dict["re.Pattern[str]", int] = {}
        regex_steps, ascii_steps = [], []
        for rule in self:
            needs = tuple(index.setdefault(c, len(index)) for c in rule.prefilters)
            regex_steps.append((needs, rule.pattern, 0, rule.group, rule.entity_type))
            pattern, view = (rule.pattern, 0) if rule.folded is None else (rule.folded, 1)
            ascii_steps.append((needs, pattern, view, rule.group, rule.entity_type))
        conditions = tuple(index)
        object.__setattr__(self, "conditions", conditions)
        searches = tuple(c.search for c in conditions)
        object.__setattr__(self, "regex_plan", (searches, tuple(regex_steps)))
        ascii_tests = tuple(_ASCII_TESTS[c] for c in conditions)
        object.__setattr__(self, "ascii_plan", (ascii_tests, tuple(ascii_steps)))
        # Read-only views: the default rule set is shared by every caller.
        zero_counts = {rule.entity_type: 0 for rule in self}
        object.__setattr__(self, "zero_counts", MappingProxyType(zero_counts))
        placeholders = {rule.entity_type: rule.placeholder for rule in self}
        object.__setattr__(self, "placeholders", MappingProxyType(placeholders))
        return self

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("RuleSet is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("RuleSet is immutable")


def _rule_set(rules: Optional[RuleSet]) -> RuleSet:
    """``rules``, or the default rules when it is None; anything but a
    rule set raises, so every caller gets a plan built once."""
    if rules is None:
        return default_rules()
    if not isinstance(rules, RuleSet):
        raise ValidationError("rules must be a RuleSet from default_rules() or load_rules()")
    return rules


_default_rule_set: Optional[RuleSet] = None


def default_rules() -> RuleSet:
    """The built-in rules, over the default name dictionary. Rule sets are
    immutable, so every caller shares one, compiled on the first call."""
    global _default_rule_set
    if _default_rule_set is None:
        specs = (
            ("EMAIL", _EMAIL_PATTERN),
            ("PHONE", _PHONE_PATTERN),
            ("NAME", _NAME_PATTERN),
            ("ADDRESS", _ADDRESS_PATTERN),
            ("DOB", _DOB_PATTERN),
            ("ID_NUMBER", _ID_PATTERN),
            ("GEO_FINE", _GEO_PATTERN),
        )
        _default_rule_set = RuleSet(
            RedactionRule.compile(etype, pattern, PLACEHOLDERS[etype]) for etype, pattern in specs
        )
    return _default_rule_set


def load_rules(path: str) -> RuleSet:
    """Load rules from a JSON file of ``{entity_type, pattern, placeholder}`` objects."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            docs = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"cannot read rules file {path}: {exc}") from exc
    if not isinstance(docs, list) or not docs:
        raise ConfigurationError("rules file must be a non-empty JSON array")
    rules = []
    for doc in docs:
        if not isinstance(doc, dict):
            raise ConfigurationError(f"rule must be a JSON object, got {type(doc).__name__}")
        try:
            fields = [doc[key] for key in ("entity_type", "pattern", "placeholder")]
        except KeyError as exc:
            raise ConfigurationError(f"rule object missing key {exc}") from exc
        if not all(isinstance(value, str) for value in fields):
            raise ConfigurationError("rule entity_type, pattern and placeholder must be strings")
        rules.append(RedactionRule.compile(*fields))
    return RuleSet(rules)


def _candidates(text: str, rules: RuleSet) -> list[tuple[int, int, str]]:
    """Every non-empty match of every rule as ``(start, end, entity_type)``,
    in rule order; each prefilter condition runs at most once.

    An ASCII text is lowered once for the folded twins and the ASCII
    tests, and mapped once to its skeleton; any other text takes the
    regex plan."""
    if text.isascii():
        lowered = text.lower()
        views = (text, lowered)
        probe = (lowered, text.encode().translate(_SKELETON))
        tests, steps = rules.ascii_plan
    else:
        views = probe = (text,)
        tests, steps = rules.regex_plan
    spans = []
    found: list[Any] = [None] * len(tests)
    for needs, pattern, view, group, entity_type in steps:
        for i in needs:
            hit = found[i]
            if hit is None:
                # A search gives a match or None, an ASCII test a bool.
                hit = found[i] = tests[i](*probe) or False
            if not hit:
                break
        else:
            for m in pattern.finditer(views[view]):
                start, end = m.span(group)
                if start != end:
                    spans.append((start, end, entity_type))
    return spans


def _resolve(spans: list) -> list:
    """Non-overlapping subset of spans whose first three items are start,
    end and entity type: longest first, then leftmost, then type
    priority; in text order."""
    if len(spans) < 2:
        return spans
    ordered = sorted(spans, key=lambda s: (s[0] - s[1], s[0], _TYPE_PRIORITY[s[2]]))
    chosen: list = []
    for span in ordered:
        start, end = span[0], span[1]
        if all(end <= c[0] or start >= c[1] for c in chosen):
            chosen.append(span)
    # Non-overlapping, non-empty spans have distinct starts.
    chosen.sort(key=itemgetter(0))
    return chosen


def _scan(text: str, rules: RuleSet) -> list[tuple[int, int, str]]:
    """Resolved identifier spans of ``text`` as ``(start, end, entity_type)``."""
    return _resolve(_candidates(text, rules))


class SpanAt(NamedTuple):
    """Where a resolved span lies and what it is; never what it matched."""

    start: int
    end: int
    entity_type: str


def scan_for_identifiers(text: str, rules: Optional[RuleSet] = None) -> tuple[SpanAt, ...]:
    """Resolved identifier spans in ``text``, in text order; empty means clean."""
    return tuple(SpanAt._make(span) for span in _scan(text, _rule_set(rules)))


class ScanMemo:
    """Resolved identifier spans per distinct text, under one rule set.

    ``spans(text, rules)`` equals ``scan_for_identifiers(text, rules)``
    and scans a text only the first time it is asked for. The memo
    answers only for the rules it was built with, and keeps the rule set
    it is given as it is, so a caller that passes the same rule set back
    skips the comparison. It keeps every text it was asked about, so it
    belongs to one owner with a bounded set of texts and dies with it,
    and is never handed raw posts. A simulated run keeps one for its
    assistant pass, whose summaries and drafts repeat a few texts; the
    redacted summaries share their mappings through the run's
    :class:`DeidPool`, which holds de-identified output only.
    """

    __slots__ = ("rules", "_spans")

    def __init__(self, rules: Optional[RuleSet] = None) -> None:
        self.rules = _rule_set(rules)
        self._spans: dict[str, tuple[SpanAt, ...]] = {}

    def spans(self, text: str, rules: Optional[RuleSet]) -> tuple[SpanAt, ...]:
        if rules is not self.rules and _rule_set(rules) != self.rules:
            raise ValidationError("scan memo was built for other redaction rules")
        spans = self._spans.get(text)
        if spans is None:
            spans = tuple(SpanAt._make(span) for span in _scan(text, self.rules))
            self._spans[text] = spans
        return spans


_MAX_METADATA_ENTRIES = 16


class DeidText:
    """De-identified text bound to its source token and cohort metadata.

    Instances are built only by :func:`redact` (or trusted rehydration
    of previously redacted corpora), never by calling the class; the
    coaching assistant accepts nothing else, which is what keeps raw
    text out of templates. ``cohort_metadata`` and
    ``redaction_count_by_type`` are read-only mappings
    (``MappingProxyType``) over dicts no caller holds, so neither the
    caller's metadata nor anyone holding the instance can change them.
    Texts redacted through one :class:`DeidPool` share their equal
    mappings: one cohort mapping and one count mapping each.
    :meth:`to_dict` returns plain dicts.
    """

    __slots__ = ("text", "source_user_token", "cohort_metadata", "redaction_count_by_type")

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        raise ValidationError("DeidText cannot be built from raw text; use redact()")

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("DeidText is immutable")

    def to_dict(self) -> dict:
        return {
            "text": self.text,
            "user_token": self.source_user_token.value,
            "cohort": dict(self.cohort_metadata),
            "counts": dict(self.redaction_count_by_type),
        }


_SLOT_SETTERS = tuple(getattr(DeidText, name).__set__ for name in DeidText.__slots__)


def _own_deid(
    text: str, user_token: UserToken, metadata: Mapping[str, Any], counts: Mapping[str, int]
) -> DeidText:
    """The trusted path: a :class:`DeidText` holding the two read-only
    mappings as they are given."""
    deid = object.__new__(DeidText)
    set_text, set_token, set_metadata, set_counts = _SLOT_SETTERS
    set_text(deid, text)
    set_token(deid, user_token)
    set_metadata(deid, metadata)
    set_counts(deid, counts)
    return deid


def _validate_metadata(metadata: Mapping[str, Any]) -> None:
    """Few entries, string keys, scalar values; a float must be finite,
    since JSON has no NaN or infinity, and an int must fit in int64, as
    in every other record."""
    if len(metadata) > _MAX_METADATA_ENTRIES:
        raise ValidationError("cohort metadata is limited to a small key-value map")
    for key, value in metadata.items():
        if not isinstance(key, str) or not isinstance(value, (str, int, float, bool)):
            raise ValidationError("cohort metadata must map strings to scalars")
        if isinstance(value, float):
            if not math.isfinite(value):
                raise ValidationError(f"cohort metadata value of {key!r} is not a finite number")
        elif not isinstance(value, (str, bool)) and not _is_int(value):
            raise ValidationError(f"cohort metadata value of {key!r} does not fit in int64")


class DeidPool:
    """One shared read-only mapping per distinct cohort and count of a
    run's de-identified texts.

    Through ``redact(..., pool=pool)`` equal cohort mappings and equal
    count mappings are one object each, so a post costs its
    :class:`DeidText` and its text. The texts are not pooled: a real
    corpus's posts are mostly distinct, and an intern table would cost
    each of them a slot. Mappings are read-only views over dicts only
    the pool holds. Two mappings share a view only when they encode
    alike: metadata is keyed by its items in insertion order with each
    value's type, and a float value by its ``repr``, so ``True``, ``1``
    and ``1.0``, or ``0.0`` and ``-0.0``, never share one; counts are
    keyed by their items in key order, so a rule set in two orders gives
    two count mappings.

    :meth:`cohort` checks metadata as ``redact`` does and returns the
    pool's view of it; ``redact`` takes a view the pool issued as it is,
    with no copy and no second check, and copies and checks any other
    mapping. A pool keeps everything it was given, so it belongs to one
    run and dies with it. It only ever sees de-identified output, never
    raw posts.
    """

    __slots__ = ("_cohorts", "_issued", "_counts")

    def __init__(self) -> None:
        self._cohorts: dict[tuple, Mapping[str, Any]] = {}
        # The ids of the cohort views handed out. The pool holds each
        # view as long as it lives, so no other object can take its id.
        self._issued: set[int] = set()
        self._counts: dict[tuple, Mapping[str, int]] = {}

    def cohort(self, metadata: Optional[Mapping[str, Any]]) -> Mapping[str, Any]:
        """The pool's read-only view of ``metadata``, which must pass
        ``redact``'s checks."""
        if id(metadata) in self._issued:
            return metadata  # type: ignore[return-value]
        copy = dict(metadata or {})
        _validate_metadata(copy)
        key = tuple(
            (name, type(value), repr(value) if isinstance(value, float) else value)
            for name, value in copy.items()
        )
        view = self._cohorts.get(key)
        if view is None:
            view = self._cohorts[key] = MappingProxyType(copy)
            self._issued.add(id(view))
        return view

    def _count_view(self, counts: dict[str, int]) -> Mapping[str, int]:
        # The entity types in key order, then their int counts: one flat
        # tuple is cheaper to build and hash than a tuple of item pairs.
        key = (*counts, *counts.values())
        view = self._counts.get(key)
        if view is None:
            view = self._counts[key] = MappingProxyType(counts)
        return view


def redact(
    text: str,
    user_token: UserToken,
    rules: Optional[RuleSet] = None,
    cohort_metadata: Optional[Mapping[str, Any]] = None,
    *,
    memo: Optional[ScanMemo] = None,
    pool: Optional[DeidPool] = None,
) -> DeidText:
    """Replace every detected identifier with its typed placeholder.

    The result carries only the user token plus a read-only copy of the
    supplied cohort metadata and of its counts; matched text is not
    retained. With a ``memo`` built for the same rules, the spans come
    from it. With a ``pool``, the result's mappings are the pool's shared
    objects, and a cohort mapping the pool issued is taken without a
    copy; without one, the call uses a pool of its own and shares
    nothing. Where rules repeat an entity type, its spans take the last
    such rule's placeholder.
    """
    if not isinstance(text, str):
        raise ValidationError("text must be a str")
    # ASCII text always encodes; only other text can hold a lone surrogate.
    if not text.isascii():
        try:
            text.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ValidationError(f"text is not valid Unicode: {exc.reason}") from exc
    if not isinstance(user_token, UserToken):
        raise ValidationError("user_token must be a UserToken")
    if pool is None:
        pool = DeidPool()
    metadata = pool.cohort(cohort_metadata)
    rule_set = _rule_set(rules)

    spans = _scan(text, rule_set) if memo is None else memo.spans(text, rule_set)
    counts = rule_set.zero_counts.copy()
    placeholders = rule_set.placeholders
    pieces = []
    cursor = 0
    for start, end, entity_type in spans:
        pieces.append(text[cursor:start])
        pieces.append(placeholders[entity_type])
        counts[entity_type] += 1
        cursor = end
    pieces.append(text[cursor:])
    return _own_deid("".join(pieces), user_token, metadata, pool._count_view(counts))


def _rehydrate_deid(text: str, user_token: UserToken) -> DeidText:
    """Trusted-path constructor for text this pipeline already produced,
    with no cohort metadata and no counts."""
    return _own_deid(text, user_token, MappingProxyType({}), MappingProxyType({}))


def load_deid_corpus(path: str) -> list[DeidText]:
    """Rehydrate a JSON-lines corpus previously written by this pipeline.

    The file is read a line at a time. The samples share their equal
    cohort and count mappings through a :class:`DeidPool` of the call's
    own, and one :class:`UserToken` per token. A file that is not UTF-8
    is reported as such even when a line before the bad byte is
    malformed; otherwise the first malformed line is.
    """
    samples = []
    pool, tokens = DeidPool(), {}
    malformed: Optional[ValidationError] = None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for number, line in enumerate(fh, 1):
                if malformed is None and line.strip():
                    try:
                        samples.append(_load_sample(path, number, line, pool, tokens))
                    except ValidationError as exc:
                        malformed = exc  # raised once the rest of the file has decoded
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path} is not UTF-8: {exc}") from exc
    if malformed is not None:
        raise malformed
    return samples


def _load_sample(
    path: str, number: int, line: str, pool: DeidPool, tokens: dict[str, UserToken]
) -> DeidText:
    """Line ``number`` of the corpus at ``path``, with the pool's mappings
    and the token of ``tokens``, which it adds to."""
    try:
        doc = json.loads(line)
        text, token = doc["text"], doc["user_token"]
    except (ValueError, KeyError, TypeError) as exc:
        raise ValidationError(f"{path} line {number} is not a record: {exc!r}") from exc
    if not (isinstance(text, str) and isinstance(token, str)):
        raise ValidationError(f"{path} line {number}: text and user_token must be strings")
    cohort, counts = doc.get("cohort", {}), doc.get("counts", {})
    if not (isinstance(cohort, dict) and isinstance(counts, dict)):
        raise ValidationError(f"{path} line {number}: cohort and counts must be objects")
    try:
        metadata = pool.cohort(cohort)
    except ValidationError as exc:
        raise ValidationError(f"{path} line {number}: {exc}") from exc
    if not all(type(n) is int for n in counts.values()):
        raise ValidationError(f"{path} line {number}: counts must be integers")
    user_token = tokens.get(token)
    if user_token is None:
        user_token = tokens[token] = UserToken(token)
    return _own_deid(text, user_token, metadata, pool._count_view(counts))


@dataclass(frozen=True)
class LeakReport(Record):
    """Residual-identifier audit over a de-identified corpus."""

    n_samples: int
    n_hits: int
    leak_rate: float
    hit_examples_by_type: Mapping[str, tuple[int, ...]]


_MAX_HIT_EXAMPLES = 5


def leak_audit(
    samples: Sequence[DeidText], rules: Optional[RuleSet] = None
) -> LeakReport:
    """Fraction of samples with at least one residual match under the same rules.

    Hit examples are recorded as sample indices per entity type, never
    as the matched text itself. Each distinct text is scanned once per
    call: placeholders make a de-identified corpus repeat itself, so its
    cost follows the number of distinct texts, not of samples.
    """
    if len(samples) == 0:
        raise ValidationError("leak audit needs at least one sample")
    rule_set = _rule_set(rules)
    n_hits = 0
    examples: dict[str, list[int]] = {}
    # Entity type of each resolved span, in span order, per distinct text;
    # the memo holds no matched text and dies with the call, so the audit
    # shares no scan with the pipeline that produced the samples.
    types_of_text: dict[str, tuple[str, ...]] = {}
    for i, sample in enumerate(samples):
        if not isinstance(sample, DeidText):
            raise ValidationError("leak audit samples must be DeidText")
        text = sample.text
        types = types_of_text.get(text)
        if types is None:
            types = types_of_text[text] = tuple(span[2] for span in _scan(text, rule_set))
        if types:
            n_hits += 1
            for entity_type in types:
                bucket = examples.setdefault(entity_type, [])
                if len(bucket) < _MAX_HIT_EXAMPLES:
                    bucket.append(i)
    return LeakReport(
        n_samples=len(samples),
        n_hits=n_hits,
        leak_rate=n_hits / len(samples),
        hit_examples_by_type={k: tuple(v) for k, v in examples.items()},
    )
