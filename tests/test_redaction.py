"""Redaction pipeline tests: detection, resolution, the DeidText boundary,
and leak-rate arithmetic."""

import json
import math
import os
import random
import re
import tempfile
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    name_rules,
    reference_detect,
    reference_redact,
    reference_resolve,
    reference_rules,
    write_rules,
)

from prism.errors import ConfigurationError, ValidationError
from prism.redaction import (
    _ASCII_TESTS,
    _PREFILTERS,
    _SKELETON,
    DEFAULT_FIRST_NAMES,
    DEFAULT_LAST_NAMES,
    ENTITY_TYPES,
    PLACEHOLDERS,
    DeidPool,
    DeidText,
    LeakReport,
    RedactionRule,
    RuleSet,
    ScanMemo,
    SpanAt,
    _candidates,
    _name_pattern,
    _rehydrate_deid,
    _scan,
    default_rules,
    leak_audit,
    load_deid_corpus,
    load_rules,
    redact,
    scan_for_identifiers,
)
from prism.simulator.scenario import N_MESSAGE_VARIANTS, synth_identity, synth_message
from prism.vault import UserToken

TOKEN = UserToken("cd" * 32)


class TestBasicRedaction:
    def test_email_and_phone(self):
        out = redact("email me at bob@x.org or 613-555-0142", TOKEN)
        assert out.text == "email me at [EMAIL] or [PHONE]"
        assert out.redaction_count_by_type["EMAIL"] == 1
        assert out.redaction_count_by_type["PHONE"] == 1

    def test_no_matches_identity_case(self):
        text = "went for a run, logged two meals, feeling strong"
        out = redact(text, TOKEN)
        assert out.text == text
        assert all(v == 0 for v in out.redaction_count_by_type.values())

    def test_name_dictionary_full_and_bare(self):
        out = redact("thanks Marisol Hibbert, and hi marisol", TOKEN)
        assert out.text == "thanks [NAME], and hi [NAME]"

    def test_digit_run_generalized(self):
        out = redact("my member id is 84721933", TOKEN)
        assert out.text == "my member id is [ID]"

    def test_short_digit_runs_survive(self):
        out = redact("did 12345 steps in 45 minutes", TOKEN)
        assert out.text == "did 12345 steps in 45 minutes"

    def test_decimals_are_not_ids(self):
        out = redact("weighed 81.123456 this morning", TOKEN)
        assert out.text == "weighed 81.123456 this morning"

    def test_latlong_generalized_to_location(self):
        out = redact("meet at 45.4215, -75.6972 by the gate", TOKEN)
        assert out.text == "meet at [LOCATION] by the gate"

    def test_street_address(self):
        out = redact("pickup at 128 Birchwood Avenue tomorrow", TOKEN)
        assert out.text == "pickup at [ADDRESS] tomorrow"

    def test_dob_requires_birth_context(self):
        with_context = redact("born 1985-03-12 in ottawa", TOKEN)
        assert with_context.text == "born [DOB] in ottawa"
        without = redact("the race is on 1985-03-12", TOKEN)
        assert "[DOB]" not in without.text

    def test_city_mention_survives(self):
        out = redact("moved to Ottawa last spring", TOKEN)
        assert out.text == "moved to Ottawa last spring"


class TestResolution:
    def test_longest_match_wins_on_overlap(self):
        # "12 Marisol Street" is both an address and contains a dictionary name.
        out = redact("meet me at 12 Marisol Street", TOKEN)
        assert out.text == "meet me at [ADDRESS]"

    def test_rule_order_independence(self):
        rules = list(default_rules())
        text = (
            "I'm Marisol Hibbert, born 1985-03-12, at 12 Maple Street, "
            "reach bob@x.org or 613-555-0142, id 99887766"
        )
        baseline = redact(text, TOKEN, RuleSet(rules)).text
        rng = random.Random(7)
        for _ in range(20):
            rng.shuffle(rules)
            assert redact(text, TOKEN, RuleSet(rules)).text == baseline
            for plain in (tuple(rules), rules):
                with pytest.raises(ValidationError, match="RuleSet"):
                    redact(text, TOKEN, plain)

    def test_resolved_spans_never_overlap(self):
        text = "Marisol at 12 Maple Street, dob 01/02/1990, 45.1234,-75.5678"
        spans = scan_for_identifiers(text, default_rules())
        ordered = sorted(spans, key=lambda s: s.start)
        for left, right in zip(ordered, ordered[1:]):
            assert left.end <= right.start


class TestIdempotence:
    def test_placeholders_match_no_rule(self):
        for placeholder in PLACEHOLDERS.values():
            assert scan_for_identifiers(placeholder, default_rules()) == ()

    def test_double_redaction_is_identity(self):
        texts = [
            "I'm Marisol, ping marisol.hibbert2@example-mail.test or 613-555-0142",
            "born 1985-03-12, live at 44 Cedar Lane, id 12345678",
            "45.4215, -75.6972 meetup",
        ]
        for text in texts:
            once = redact(text, TOKEN)
            twice = redact(once.text, TOKEN)
            assert twice.text == once.text
            assert all(v == 0 for v in twice.redaction_count_by_type.values())


class TestDeidBoundary:
    def test_public_construction_rejected(self):
        with pytest.raises(ValidationError):
            DeidText("raw text", TOKEN, {}, {})

    def test_metadata_restricted_to_scalars(self):
        with pytest.raises(ValidationError):
            redact("hello", TOKEN, cohort_metadata={"nested": {"a": 1}})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_metadata_rejected(self, value):
        # JSON has no NaN or infinity, so the run files could not hold it.
        with pytest.raises(ValidationError, match="not a finite number"):
            redact("hello", TOKEN, cohort_metadata={"goal": "fitness", "x": value})

    @pytest.mark.parametrize("value", [2**63, -(2**63) - 1, 2**70], ids=["2**63", "-2**63-1", "2**70"])
    def test_metadata_ints_outside_int64_rejected(self, value):
        # Every other record holds int64 ints; numpy could not take this one.
        with pytest.raises(ValidationError, match="int64"):
            redact("hi", TOKEN, None, {"x": value})
        for edge in (2**63 - 1, -(2**63)):
            assert redact("hi", TOKEN, None, {"x": edge}).cohort_metadata == {"x": edge}

    def test_metadata_size_capped(self):
        metadata = {f"k{i}": i for i in range(40)}
        with pytest.raises(ValidationError):
            redact("hello", TOKEN, cohort_metadata=metadata)

    def test_matched_text_not_retained(self):
        out = redact("contact bob@x.org", TOKEN, cohort_metadata={"goal": "fitness"})
        serialized = json.dumps(out.to_dict())
        assert "bob@x.org" not in serialized

    def test_invalid_text_type_rejected(self):
        with pytest.raises(ValidationError):
            redact(b"bytes", TOKEN)  # type: ignore[arg-type]

    def test_immutable(self):
        out = redact("hello", TOKEN)
        with pytest.raises(AttributeError):
            out.text = "patched"


class TestRulesLoading:
    def test_round_trip_file(self, tmp_path):
        path = str(tmp_path / "rules.json")
        write_rules(default_rules(), path)
        rules = load_rules(path)
        assert redact("bob@x.org", TOKEN, rules).text == "[EMAIL]"

    def test_uncompilable_pattern_aborts(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps([
            {"entity_type": "EMAIL", "pattern": "([unclosed", "placeholder": "[EMAIL]"}
        ]))
        with pytest.raises(ConfigurationError):
            load_rules(str(path))

    def test_unknown_entity_type_rejected(self):
        with pytest.raises(ConfigurationError):
            RedactionRule.compile("SSN", r"\d+", "[SSN]")


class TestLeakAudit:
    def test_zero_hits(self):
        samples = [redact(f"clean message {i}", TOKEN) for i in range(100)]
        report = leak_audit(samples)
        assert report.n_hits == 0
        assert report.leak_rate == 0.0

    def test_worked_instance_2_of_1200(self):
        samples = [redact(f"all good, week {i}", TOKEN) for i in range(1198)]
        # Residual self-disclosed signature names that slipped past a
        # hypothetical upstream pass, as the audit would find them.
        samples.append(_rehydrate_deid("see you all - Marisol", TOKEN))
        samples.append(_rehydrate_deid("cheers, Thaddeus", TOKEN))
        report = leak_audit(samples)
        assert report.n_samples == 1200
        assert report.n_hits == 2
        assert report.leak_rate == pytest.approx(2 / 1200, abs=1e-12)
        assert report.leak_rate == pytest.approx(0.0016666, abs=1e-6)

    def test_injected_email_one_in_fifty(self):
        samples = [redact(f"msg {i}", TOKEN) for i in range(49)]
        samples.append(_rehydrate_deid("stray raw mail bob@x.org", TOKEN))
        report = leak_audit(samples)
        assert report.leak_rate == pytest.approx(0.02)
        assert "EMAIL" in report.hit_examples_by_type
        assert report.hit_examples_by_type["EMAIL"] == (49,)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValidationError):
            leak_audit([])

    def test_report_never_contains_matched_text(self):
        samples = [_rehydrate_deid("mail bob@x.org now", TOKEN)]
        report = leak_audit(samples)
        assert "bob@x.org" not in json.dumps(report.to_dict())

    def test_corpus_file_round_trip(self, tmp_path):
        samples = [redact("call 613-555-0111 ok", TOKEN, cohort_metadata={"goal": "fitness"})]
        path = tmp_path / "corpus.jsonl"
        with open(path, "w") as fh:
            for s in samples:
                fh.write(json.dumps(s.to_dict()) + "\n")
        loaded = load_deid_corpus(str(path))
        assert loaded[0].text == "call [PHONE] ok"
        assert leak_audit(loaded).leak_rate == 0.0

    def test_corpus_load_shares_equal_mappings_and_tokens(self, tmp_path):
        other = UserToken("cd" * 32)
        samples = [
            redact("call 613-555-0111 ok", TOKEN, cohort_metadata={"goal": "fitness"}),
            redact("mail bob@x.org", other, cohort_metadata={"goal": "fitness"}),
            redact("call 613-555-0112 ok", TOKEN, cohort_metadata={"goal": "maintenance"}),
        ]
        path = tmp_path / "corpus.jsonl"
        path.write_text("".join(json.dumps(s.to_dict()) + "\n" for s in samples), encoding="utf-8")
        loaded = load_deid_corpus(str(path))
        assert [s.to_dict() for s in loaded] == [s.to_dict() for s in samples]
        a, b, c = loaded
        assert a.cohort_metadata is b.cohort_metadata and a.cohort_metadata is not c.cohort_metadata
        assert a.redaction_count_by_type is c.redaction_count_by_type
        assert a.redaction_count_by_type is not b.redaction_count_by_type
        assert a.source_user_token is c.source_user_token and b.source_user_token == other
        assert all(type(m) is MappingProxyType for m in (a.cohort_metadata, a.redaction_count_by_type))

    def test_corpus_load_reports_bad_utf8_before_a_malformed_line(self, tmp_path):
        # The file is read a line at a time, but a byte that is not UTF-8
        # anywhere in it still wins over a malformed line before it.
        path = tmp_path / "corpus.jsonl"
        good = json.dumps(redact("see you", TOKEN).to_dict()).encode()
        path.write_bytes(good + b"\n{not json\n" + b"x" * 20000 + b"\n\xff\xfe\n")
        with pytest.raises(ValidationError, match="is not UTF-8"):
            load_deid_corpus(str(path))
        path.write_bytes(good + b"\n{not json\n[]\n")
        with pytest.raises(ValidationError, match="line 2 is not a record"):
            load_deid_corpus(str(path))


class TestDictionaryHygiene:
    def test_names_cannot_hide_in_hex_tokens(self):
        hex_alphabet = set("0123456789abcdef")
        for name in DEFAULT_FIRST_NAMES + DEFAULT_LAST_NAMES:
            assert not set(name.lower()) <= hex_alphabet

    def test_names_do_not_collide_with_placeholders(self):
        placeholder_words = {p.strip("[]").lower() for p in PLACEHOLDERS.values()}
        for name in DEFAULT_FIRST_NAMES + DEFAULT_LAST_NAMES:
            assert name.lower() not in placeholder_words


# Characters whose case folding meets an ASCII letter under (?i): KELVIN
# SIGN, LONG S, dotted capital I and dotless small i.
_FOLD_TRAPS = {"k": "\u212a", "s": "\u017f", "i": "\u0130\u0131"}
_DIGITS = "0123456789\u0663\u0966"  # ASCII, ARABIC-INDIC THREE, DEVANAGARI ZERO
_IDENTIFIER_PIECES = (
    "@", "bob@x.org", "x@y", "613-555-0142", "(613) 555-0142", "born ", "dob: ",
    "birthday ", "1985-03-12", "\u0663\u0663/\u0663/1990", "12 Maple Street",
    "45.1234, -75.5678", "12345678", "\u0663\u0663\u0663\u0663\u0663\u0663",
    # Just on each side of the digit rules' second prefilters.
    "123 4567", "123 456", "123-4567", "123.456",
    "\u0663\u0663\u0663\u2003\u0663\u0663\u0663\u0663", "12 3456", "12a", "7\u00a0Elm Rd",
    "1/2", "born 3/4/56", "dob 1985-03-12", "12345", "123", "1.23", "1.234", "1.234, 5.678",
    "123456",
    # Each DOB context word, the case and fold-trap spellings the (?i)
    # context prefilter must pass, and near misses it must not rely on.
    "b.day ", "BDay ", "date of birth ", "birth date ", "b.day 12/3/1999", "BDay: Mar 4, 1990",
    "b\u0130rthday ", "B\u0131RTH date ", "date of b\u0131rth: 1985-03-12", "D\u0131B ", "b day ",
)


@st.composite
def _spelled(draw, names, traps=_FOLD_TRAPS):
    """One of ``names``, each letter in a random case or a fold-equivalent trap."""
    name = draw(st.sampled_from(names))
    return "".join(
        draw(st.sampled_from(sorted({c, c.lower(), c.upper()} | set(traps.get(c.lower(), "")))))
        for c in name
    )


def _texts(names):
    """Texts joined from names, placeholders, identifier pieces, digits and traps."""
    piece = st.one_of(
        _spelled(names),
        st.sampled_from(sorted(PLACEHOLDERS.values())),
        st.sampled_from(_IDENTIFIER_PIECES),
        st.text(alphabet="ab KMs.-@,\n" + _DIGITS + "".join(_FOLD_TRAPS.values()), max_size=4),
    )
    separator = st.sampled_from(["", " ", " ", ", ", "\n", "-"])
    return st.lists(st.tuples(piece, separator), max_size=10).map(
        lambda parts: "".join(p + sep for p, sep in parts)
    )


# Custom dictionaries: the empty name, duplicates, case pairs, regex
# metacharacters and non-ASCII first letters.
_CUSTOM_NAME = st.one_of(
    st.sampled_from(["", "kate", "Kate", "KATE", "\u212aate", "\u017fam", "Sam", "\u0130lker",
                     "\u0131lker", "\u00c9mile", "\u00e9mile", "Marisol", "a.b", "(x", "]y", "^z"]),
    st.text(
        alphabet="aIkKsS\u212a\u017f\u0130\u0131\u00c9\u00df\u03a9.*+?()[]{}|^$\\-#&~ ",
        max_size=5,
    ),
)
_CUSTOM_NAMES = st.lists(_CUSTOM_NAME, max_size=6)


class TestScanMatchesReference:
    def test_name_pattern_groups_by_first_letter(self):
        assert _name_pattern(["Matteo", "Omar", "Marisol"], ["Ogawa"], fold=False) == (
            r"(?i)\b(?=[MO])(?:M(?:arisol|atteo)|O(?:mar))(?:\s+(?:O(?:gawa)))?\b"
        )

    @settings(max_examples=300, deadline=None)
    @given(text=_texts(DEFAULT_FIRST_NAMES + DEFAULT_LAST_NAMES))
    def test_default_rules(self, text):
        assert _candidates(text, default_rules()) == reference_detect(text, reference_rules())

    @pytest.mark.parametrize("word", [
        "born", "born on", "birthday", "birth date", "birthdate", "date of birth", "dob", "b.day",
        "bday", "BDay", "B.DAY", "DOB", "b\u0130rthday", "date of b\u0131rth",
    ])
    def test_every_dob_context_word_passes_the_prefilters(self, word):
        text = f"my {word}: 1985-03-12"
        spans = _candidates(text, default_rules())
        assert spans == reference_detect(text, reference_rules())
        assert [entity_type for _, _, entity_type in spans] == ["DOB"]

    @settings(max_examples=300, deadline=None)
    @given(first=_CUSTOM_NAMES, last=_CUSTOM_NAMES, data=st.data())
    def test_custom_name_lists(self, first, last, data):
        text = data.draw(_texts(tuple(first) + tuple(last) + ("Kate",)))
        assert _candidates(text, name_rules(first, last)) == reference_detect(
            text, reference_rules(first, last)
        )


# Loaded rule files: built-in patterns under any type, other patterns
# (one matches only the empty string), repeated types and placeholders.
_LOADED_PATTERNS = sorted({r.pattern.pattern for r in default_rules()}) + [
    r"\bhotline\b", r"\d+", r"(?i)kate", r"(?P<entity>\d{3})-\d", r"x*", r"\b[A-Z][a-z]+",
]
_RULE_DOCS = st.lists(
    st.fixed_dictionaries({
        "entity_type": st.sampled_from(ENTITY_TYPES),
        "pattern": st.sampled_from(_LOADED_PATTERNS),
        "placeholder": st.sampled_from(["[A]", "[B]", "<x>"]),
    }),
    min_size=1,
    max_size=8,
)


def _loaded(docs):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rules.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(docs, fh)
        return load_rules(path)


@st.composite
def _rule_sets(draw):
    """Rules and their reference rules: the defaults, custom name lists
    (whose reference has the flat NAME alternation), or a loaded file."""
    kind = draw(st.sampled_from(["default", "names", "loaded"]))
    if kind == "default":
        return default_rules(), reference_rules()
    if kind == "names":
        first, last = draw(_CUSTOM_NAMES), draw(_CUSTOM_NAMES)
        return name_rules(first, last), reference_rules(first, last)
    rules = _loaded(draw(_RULE_DOCS))
    return rules, rules


# Ints within int64, as cohort metadata holds them.
_METADATA = st.dictionaries(
    st.text(max_size=3),
    st.text(max_size=3) | st.integers(-(2**63), 2**63 - 1) | st.booleans(),
    max_size=3,
)


# ASCII text for the plan's ASCII path: case-mixed context words, ASCII
# control whitespace, and digit and separator runs on each side of the
# prefilters.
_ASCII_PIECES = (
    "BORN ", "Born On ", "Dob: ", "dOB", "B.DAY ", "bDay", "BIRTHDAY", "Birth\x1cDate ",
    "DATE OF BIRTH: ", "b day", "@", "x@Y.org", "613-555-0142", "(613) 555-0142",
    "+1 613.555.0142", "613\x0b555\x1f0142", "1985-03-12", "12/3/1999", "Mar 4, 1990",
    "SEP. 30 2001", "12 Maple STREET", "7\x0cElm rd.", "12\x1d Oak Ave", "45.1234, -75.5678",
    "-1.234,5.6789", "12345678", "123456", "12345", "123 4567", "123.456", "1.234", "1/",
)
_ASCII_RUNS = "0123456789 .-/,:+()@\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f"


def _ascii_texts(names):
    piece = st.one_of(
        _spelled(names, traps={}),
        st.sampled_from(_ASCII_PIECES),
        st.sampled_from(sorted(PLACEHOLDERS.values())),
        st.text(alphabet=_ASCII_RUNS, max_size=8),
        st.text(alphabet=st.characters(max_codepoint=127), max_size=4),
    )
    separator = st.sampled_from(["", " ", "\t", "\x0b", "\x0c", "\x1c", "\x1f", "-", ".", "/"])
    return st.lists(st.tuples(piece, separator), max_size=10).map(
        lambda parts: "".join(p + sep for p, sep in parts)
    )


_NAMES = DEFAULT_FIRST_NAMES + DEFAULT_LAST_NAMES + ("Kate", "hotline")


def _skeleton(text):
    return text.encode().translate(_SKELETON)


class TestAsciiPlan:
    def test_every_condition_has_an_ascii_test(self):
        conditions = {c for needs in _PREFILTERS.values() for c in needs}
        assert conditions == set(_ASCII_TESTS)
        for rules in (default_rules(), name_rules(["Kate"], [])):
            # The distinct prefilter conditions of the rules, in first use.
            distinct = tuple(dict.fromkeys(c for rule in rules for c in rule.prefilters))
            assert rules.regex_plan[0] == tuple(c.search for c in distinct)
            assert rules.ascii_plan[0] == tuple(_ASCII_TESTS[c] for c in distinct)

    def test_every_builtin_case_folding_pattern_has_a_twin(self):
        for rule in default_rules():
            if rule.pattern.flags & re.IGNORECASE:
                assert rule.folded is not None, rule.entity_type
                assert not rule.folded.flags & re.IGNORECASE
            else:
                assert rule.folded is None, rule.entity_type

    def test_skeleton_maps_exactly_the_digit_and_space_classes(self):
        for code in range(128):
            char = chr(code)
            expected = "0" if re.match(r"\d", char) else " " if re.match(r"\s", char) else char
            assert _skeleton(char) == expected.encode(), hex(code)

    @settings(max_examples=500, deadline=None)
    @given(text=_ascii_texts(_NAMES))
    def test_each_ascii_test_equals_its_condition(self, text):
        low, skel = text.lower(), _skeleton(text)
        for condition, test in _ASCII_TESTS.items():
            assert test(low, skel) is (condition.search(text) is not None), condition.pattern

    @settings(max_examples=300, deadline=None)
    @given(text=_ascii_texts(_NAMES))
    def test_each_twin_finds_its_pattern_spans_on_the_lowered_text(self, text):
        for rule in default_rules():
            if rule.folded is not None:
                twin = [m.span(rule.group) for m in rule.folded.finditer(text.lower())]
                assert twin == [m.span(rule.group) for m in rule.pattern.finditer(text)]

    @settings(max_examples=500, deadline=None)
    @given(text=_ascii_texts(_NAMES))
    def test_ascii_candidates_equal_reference(self, text):
        assert _candidates(text, default_rules()) == reference_detect(text, reference_rules())

    @settings(max_examples=300, deadline=None)
    @given(pair=_rule_sets(), data=st.data())
    def test_ascii_text_under_any_rule_set(self, pair, data):
        rules, reference = pair
        text = data.draw(_ascii_texts(_NAMES))
        assert _candidates(text, rules) == reference_detect(text, reference)

    def test_case_sensitive_patterns_run_on_the_text(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps([
            {"entity_type": "NAME", "pattern": r"\bHotline\b", "placeholder": "[NAME]"},
            {"entity_type": "ID_NUMBER", "pattern": r"\b[A-Z]{2}\d{2}\b", "placeholder": "[ID]"},
        ]))
        rules = load_rules(str(path))
        text = "call the HOTLINE, the hotline or the Hotline; code ab12 or AB12"
        assert _candidates(text, rules) == [(37, 44, "NAME"), (59, 63, "ID_NUMBER")]

    def test_a_twin_keeps_its_pattern_flags(self):
        # Under re.ASCII, \s does not match \x1c, so neither may the twin.
        (address,) = [r for r in default_rules() if r.entity_type == "ADDRESS"]
        rule = RedactionRule("ADDRESS", re.compile(address.pattern.pattern, re.ASCII), "[ADDRESS]")
        assert rule.folded.flags & re.ASCII
        rules = RuleSet([rule])
        assert _candidates("12\x1cMaple STREET", rules) == []
        assert _candidates("12 Maple STREET", rules) == [(0, 15, "ADDRESS")]

    @pytest.mark.parametrize("text", [
        "thanks \u212aeiko Ogawa",
        "\u017fantiago, born 1985-03-12",
        "\u0130ngrid IYER 12 Elm st",
        "\u0131mani at 12 Maple Street",
        "\u0130\u0130 Marisol, dob 3/4/1990",
        "MAR\u0130SOL born Mar 4, 1990",
        "\u0130 bday 12/3/1999 call 613-555-0142",
        "caf\u00e9 \u212aate 45.1234, -75.5678 \u0663\u0663\u0663",
    ])
    def test_non_ascii_text_takes_the_regex_plan(self, text):
        # Lowering these shifts positions or unfolds a trap, so only the
        # regex plan gives the reference spans.
        assert not text.isascii()
        assert _candidates(text, default_rules()) == reference_detect(text, reference_rules())
        assert _candidates(text, default_rules()), text


class TestInternalScan:
    @settings(max_examples=300, deadline=None)
    @given(pair=_rule_sets(), data=st.data())
    def test_spans_equal_resolved_reference(self, pair, data):
        rules, reference = pair
        text = data.draw(_texts(DEFAULT_FIRST_NAMES + DEFAULT_LAST_NAMES + ("Kate", "hotline")))
        assert _scan(text, rules) == reference_resolve(reference_detect(text, reference))

    @settings(max_examples=300, deadline=None)
    @given(pair=_rule_sets(), metadata=_METADATA, data=st.data())
    def test_redact_equals_reference(self, pair, metadata, data):
        rules, reference = pair
        text = data.draw(_texts(DEFAULT_FIRST_NAMES + DEFAULT_LAST_NAMES + ("Kate", "hotline")))
        expected = reference_redact(text, TOKEN, reference, metadata)
        # The rule set's own plan and one built again over the same rules.
        for form in (rules, RuleSet(rules)):
            out = redact(text, TOKEN, form, metadata)
            # Key order too: it is the order the run files hold.
            assert json.dumps(out.to_dict()) == json.dumps(expected.to_dict())
            assert out.source_user_token is TOKEN
        # A plain tuple or list of rules is not a rule set.
        for plain in (tuple(rules), list(rules)):
            with pytest.raises(ValidationError, match="RuleSet"):
                redact(text, TOKEN, plain, metadata)

    def test_repeated_type_takes_its_last_placeholder(self):
        rules = _loaded([
            {"entity_type": "PHONE", "pattern": r"\bhotline\b", "placeholder": "[FIRST]"},
            {"entity_type": "EMAIL", "pattern": r"\binbox\b", "placeholder": "[EMAIL]"},
            {"entity_type": "PHONE", "pattern": r"\bdesk\b", "placeholder": "[LAST]"},
        ])
        assert rules.placeholders == {"PHONE": "[LAST]", "EMAIL": "[EMAIL]"}
        assert list(rules.zero_counts.items()) == [("PHONE", 0), ("EMAIL", 0)]
        out = redact("call the hotline or the desk, or check the inbox", TOKEN, rules)
        assert out.text == "call the [LAST] or the [LAST], or check the [EMAIL]"
        assert out.redaction_count_by_type == {"PHONE": 2, "EMAIL": 1}

    @pytest.mark.parametrize("text", ["a\ud800b", "caf\u00e9 \udfff", "\udbff"])
    def test_lone_surrogate_rejected(self, text):
        with pytest.raises(ValidationError, match="not valid Unicode"):
            redact(text, TOKEN)

    def test_non_ascii_text_redacts(self):
        out = redact("caf\u00e9 \U0001f600 with Marisol", TOKEN)
        assert out.text == "caf\u00e9 \U0001f600 with [NAME]"


class TestRuleSets:
    def test_default_rules_are_built_once(self):
        rules = default_rules()
        assert isinstance(rules, RuleSet) and isinstance(rules, tuple)
        assert default_rules() is rules

    def test_rules_none_equals_the_default_rules(self):
        identity = synth_identity(np.random.default_rng(7), 3)
        texts = [synth_message(v, identity, 12345678, 1, 2) for v in range(N_MESSAGE_VARIANTS)]
        for text in texts:
            implicit = redact(text, TOKEN, None, {"goal": "fitness"})
            explicit = redact(text, TOKEN, default_rules(), {"goal": "fitness"})
            assert json.dumps(implicit.to_dict()) == json.dumps(explicit.to_dict())
        samples = [redact(text, TOKEN) for text in texts] + [_rehydrate_deid("cheers, Thaddeus", TOKEN)]
        assert leak_audit(samples) == leak_audit(samples, default_rules())

    @pytest.mark.parametrize("form", [tuple, list])
    def test_plain_rule_sequences_rejected(self, form):
        plain = form(default_rules())
        calls = (
            lambda: redact("hi", TOKEN, plain),
            lambda: leak_audit([redact("hi", TOKEN)], plain),
            lambda: scan_for_identifiers("hi", plain),
            lambda: ScanMemo(plain),
        )
        for call in calls:
            with pytest.raises(ValidationError, match="RuleSet"):
                call()

    @pytest.mark.parametrize("item", [1, None, "EMAIL", ("EMAIL", r"\w+@\w+")])
    def test_non_rule_items_rejected(self, item):
        rules = list(default_rules())
        for items in ([item], rules[:1] + [item], [item] + rules):
            with pytest.raises(ValidationError, match="RedactionRule"):
                RuleSet(items)

    def test_immutable(self):
        rules = default_rules()
        with pytest.raises(AttributeError):
            rules.placeholders = {}
        with pytest.raises(AttributeError):
            del rules.ascii_plan
        with pytest.raises(TypeError):
            rules.zero_counts["EMAIL"] = 1
        with pytest.raises(TypeError):
            rules.placeholders["EMAIL"] = "[X]"


class TestOwnership:
    @settings(max_examples=150, deadline=None)
    @given(metadata=_METADATA, key=st.text(max_size=3), use_memo=st.booleans(), use_pool=st.booleans())
    def test_mappings_are_read_only_and_never_the_callers(self, metadata, key, use_memo, use_pool):
        caller = dict(metadata)
        rules = default_rules()
        memo = ScanMemo(rules) if use_memo else None
        pool = DeidPool() if use_pool else None
        first = redact("mail bob@x.org", TOKEN, rules, caller, memo=memo, pool=pool)
        second = redact("mail bob@x.org", TOKEN, rules, caller, memo=memo, pool=pool)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "corpus.jsonl")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(first.to_dict()) + "\n")
            (loaded,) = load_deid_corpus(path)
        deids = (first, second, loaded)
        before = [json.dumps(d.to_dict()) for d in deids]
        mappings = [m for d in deids for m in (d.cohort_metadata, d.redaction_count_by_type)]
        assert all(type(m) is MappingProxyType and m is not caller for m in mappings)
        for mapping in mappings:
            with pytest.raises(TypeError):
                mapping[key] = "changed"
            with pytest.raises(TypeError):
                del mapping[key]
        # to_dict hands out plain dicts of its own.
        doc = first.to_dict()
        assert type(doc["cohort"]) is dict and type(doc["counts"]) is dict
        doc["cohort"][key] = "changed"
        doc["counts"]["EMAIL"] = 99
        # The caller's metadata changes after the call; no DeidText sees it.
        caller[key] = "changed"
        caller.pop(next(iter(caller)))
        assert [json.dumps(d.to_dict()) for d in deids] == before
        assert redact("mail bob@x.org", TOKEN, rules, pool=pool).redaction_count_by_type["EMAIL"] == 1


# Values that compare equal across types or signs but encode apart, in
# classes of equal values.
_LOOKALIKE_CLASSES = ((True, 1, 1.0), (False, 0, 0.0, -0.0), (2, 2.0))
_LOOKALIKES = sum(_LOOKALIKE_CLASSES, ()) + ("1", "", 2**63 - 1, -(2**63), -1.5)


@st.composite
def _lookalike_cohorts(draw):
    """Cohorts over one key set whose values under each key compare equal,
    so that two of them often differ only in a value's type or sign, where
    a pool keyed on equality would hand one the other's mapping."""
    keys = draw(st.lists(st.sampled_from(["goal", "\u00fcber"]), unique=True, max_size=2))
    values = st.tuples(*(st.sampled_from(draw(st.sampled_from(_LOOKALIKE_CLASSES))) for _ in keys))
    return draw(st.lists(values.map(lambda vs: dict(zip(keys, vs))), min_size=1, max_size=6))


def _encoded(mapping) -> str:
    """A mapping's items in order as JSON, which tells apart every value
    a pool must keep apart."""
    return json.dumps(list(mapping.items()))


class TestDeidPool:
    @settings(max_examples=200, deadline=None)
    @given(
        texts=st.lists(_texts(DEFAULT_FIRST_NAMES + DEFAULT_LAST_NAMES), min_size=1, max_size=4),
        cohorts=_lookalike_cohorts(),
        picks=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 5), st.booleans(), st.booleans()),
            min_size=1, max_size=30,
        ),
    )
    def test_pooled_redact_equals_reference(self, texts, cohorts, picks):
        # The default rules in two orders give their counts in two orders.
        orders = (default_rules(), RuleSet(reversed(default_rules())))
        references = (reference_rules(), tuple(reversed(reference_rules())))
        pool = DeidPool()
        outs = []
        for text, cohort, reverse_items, reverse_rules in picks:
            items = list(cohorts[cohort % len(cohorts)].items())
            metadata = dict(reversed(items) if reverse_items else items)
            raw = texts[text % len(texts)]
            out = redact(raw, TOKEN, orders[reverse_rules], metadata, pool=pool)
            expected = reference_redact(raw, TOKEN, references[reverse_rules], metadata)
            assert out.text == expected.text
            assert out.source_user_token is TOKEN
            for got, want in (
                (out.cohort_metadata, expected.cohort_metadata),
                (out.redaction_count_by_type, expected.redaction_count_by_type),
            ):
                assert [(k, type(v), repr(v)) for k, v in got.items()] == [
                    (k, type(v), repr(v)) for k, v in want.items()
                ]
            assert json.dumps(out.to_dict()) == json.dumps(expected.to_dict())
            outs.append(out)
        # One object per distinct mapping, and mappings that encode apart
        # never share.
        for part in (lambda d: d.cohort_metadata, lambda d: d.redaction_count_by_type):
            views = [part(d) for d in outs]
            assert len({id(v) for v in views}) == len({_encoded(v) for v in views})

    def test_n_posts_of_k_contents_leave_one_mapping_per_distinct_mapping(self):
        identity = synth_identity(np.random.default_rng(11), 0)
        raws = [synth_message(v, identity, 12345678, 1, 2) for v in range(N_MESSAGE_VARIANTS)]
        goals = ("fitness", "nutrition")
        contents = [(raw, goal) for raw in raws for goal in goals]
        pool = DeidPool()
        outs = []
        for i in range(600):
            raw, goal = contents[(7 * i) % len(contents)]
            outs.append(redact(raw, TOKEN, None, {"goal": goal}, pool=pool))
        assert len({id(d.cohort_metadata) for d in outs}) == len(goals)
        counts = {id(d.redaction_count_by_type) for d in outs}
        assert len(counts) == len({tuple(d.redaction_count_by_type.items()) for d in outs})
        assert len(counts) <= N_MESSAGE_VARIANTS

    def test_an_issued_cohort_is_taken_as_it_is(self):
        pool = DeidPool()
        view = pool.cohort({"goal": "fitness"})
        assert pool.cohort(view) is view
        assert pool.cohort({"goal": "fitness"}) is view
        assert redact("hi Marisol", TOKEN, None, view, pool=pool).cohort_metadata is view
        with pytest.raises(TypeError):
            view["goal"] = "x"
        # Another pool's view, or any other mapping, is copied and checked.
        other = DeidPool()
        assert other.cohort(view) is not view and other.cohort(view) == view
        assert redact("hi", TOKEN, None, view).cohort_metadata is not view
        with pytest.raises(ValidationError, match="finite"):
            redact("hi", TOKEN, None, MappingProxyType({"x": math.nan}), pool=pool)
        with pytest.raises(ValidationError, match="scalars"):
            pool.cohort({"nested": {"a": 1}})
        # Values that compare equal but encode apart keep their own views.
        views = [pool.cohort({"goal": v}) for v in _LOOKALIKES]
        assert len({id(v) for v in views}) == len(_LOOKALIKES)
        assert all(pool.cohort({"goal": v}) is view for v, view in zip(_LOOKALIKES, views))


def reference_leak_audit(samples, rules) -> LeakReport:
    """``leak_audit`` as one scan per sample: the reference for its per-text memo."""
    n_hits = 0
    examples = {}
    for i, sample in enumerate(samples):
        spans = scan_for_identifiers(sample.text, rules)
        if spans:
            n_hits += 1
            for span in spans:
                bucket = examples.setdefault(span.entity_type, [])
                if len(bucket) < 5:
                    bucket.append(i)
    return LeakReport(
        n_samples=len(samples),
        n_hits=n_hits,
        leak_rate=n_hits / len(samples),
        hit_examples_by_type={k: tuple(v) for k, v in examples.items()},
    )


# Several spans of one type in one text, so a repeated text passes the cap
# of five examples per type within a few samples.
_MULTI_HIT = "mail bob@x.org or x@y.org, call 613-555-0142 or (613) 555-0199"


class TestLeakAuditMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(
        pool=st.lists(_texts(DEFAULT_FIRST_NAMES + DEFAULT_LAST_NAMES), min_size=1, max_size=6),
        picks=st.lists(st.integers(0, 6), min_size=1, max_size=60),
    )
    def test_repeated_texts(self, pool, picks):
        pool = pool + [_MULTI_HIT]
        samples = [_rehydrate_deid(pool[i % len(pool)], TOKEN) for i in picks]
        rules = default_rules()
        assert leak_audit(samples, rules) == reference_leak_audit(samples, rules)

    def test_cap_of_five_examples_per_type_on_one_repeated_text(self):
        samples = [_rehydrate_deid(_MULTI_HIT if i % 3 else "all clear", TOKEN) for i in range(30)]
        report = leak_audit(samples)
        assert report == reference_leak_audit(samples, default_rules())
        assert report.n_hits == 20
        # One index per span: each hit sample holds two of each type.
        assert report.hit_examples_by_type == {"EMAIL": (1, 1, 2, 2, 4), "PHONE": (1, 1, 2, 2, 4)}


# The assistant's summary text, with streaks and slopes around the risk
# thresholds and digits the ID and phone rules look at.
_SUMMARIES = st.builds(
    "missed {} recent check-ins; engagement slope {:+.2f} per week.".format,
    st.integers(0, 10**7),
    st.floats(-1e7, 1e7),
)


class TestScanMemo:
    @settings(max_examples=200, deadline=None)
    @given(
        pool=st.lists(_SUMMARIES | _texts(DEFAULT_FIRST_NAMES + DEFAULT_LAST_NAMES), min_size=1, max_size=6),
        picks=st.lists(st.integers(0, 5), max_size=20),
    )
    def test_redact_through_one_memo_equals_redact(self, pool, picks):
        rules = default_rules()
        memo = ScanMemo(rules)
        for text in [pool[k % len(pool)] for k in picks] + pool:
            direct = redact(text, TOKEN, rules, {"goal": "fitness"})
            cached = redact(text, TOKEN, rules, {"goal": "fitness"}, memo=memo)
            assert cached.to_dict() == direct.to_dict()
            assert cached.source_user_token is direct.source_user_token
        # Positions and entity types only, never the matched text.
        assert set(memo._spans) == set(pool)
        for text, spans in memo._spans.items():
            assert all(type(span) is SpanAt for span in spans)
            assert spans == scan_for_identifiers(text, rules)

    def test_answers_only_for_its_rules(self):
        rules = default_rules()
        memo = ScanMemo(rules)
        assert memo.rules is rules  # kept as given, not copied
        assert memo.spans("hi Kate", default_rules()) == ()
        assert memo.spans("hi Marisol", RuleSet(rules)) == (SpanAt(3, 10, "NAME"),)
        assert memo.spans("hi Marisol", None) == (SpanAt(3, 10, "NAME"),)
        with pytest.raises(ValidationError, match="other redaction rules"):
            memo.spans("hi Kate", name_rules(["Kate"], []))
        with pytest.raises(ValidationError, match="other redaction rules"):
            redact("hi Kate", TOKEN, name_rules(["Kate"], []), memo=memo)
        for plain in (tuple(rules), list(rules)):
            with pytest.raises(ValidationError, match="RuleSet"):
                memo.spans("hi Marisol", plain)
            with pytest.raises(ValidationError, match="RuleSet"):
                ScanMemo(plain)
        assert ScanMemo(None).rules is rules


class TestGeneratedTraffic:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        index=st.integers(0, 10**6),
        variant=st.integers(0, N_MESSAGE_VARIANTS - 1),
        aux_id=st.integers(0, 10**8 - 1),
        lat=st.integers(0, 9999),
        lon=st.integers(0, 9999),
    )
    def test_redaction_is_idempotent_and_leaves_nothing(self, seed, index, variant, aux_id, lat, lon):
        identity = synth_identity(np.random.default_rng(seed), index)
        for text in (synth_message(variant, identity, aux_id, lat, lon), *identity.values()):
            once = redact(text, TOKEN)
            twice = redact(once.text, TOKEN)
            assert twice.text == once.text
            assert not any(twice.redaction_count_by_type.values())
            assert leak_audit([once]).leak_rate == 0

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        index=st.integers(0, 10**6),
        aux_id=st.integers(0, 10**8 - 1),
        lat=st.integers(0, 9999),
        lon=st.integers(0, 9999),
    )
    def test_spans_show_no_identifier(self, seed, index, aux_id, lat, lon):
        identity = synth_identity(np.random.default_rng(seed), index)
        disclosed = [*identity.values(), f"{aux_id:08d}", f"45.{lat:04d}", f"-75.{lon:04d}"]
        memo = ScanMemo()
        for variant in range(N_MESSAGE_VARIANTS):
            text = synth_message(variant, identity, aux_id, lat, lon)
            found = scan_for_identifiers(text)
            assert bool(found) == (variant >= 2)  # the first two variants disclose nothing
            for spans in (found, memo.spans(text, memo.rules)):
                shown = repr(spans)
                assert not any(value in shown for value in disclosed), shown


class TestUserRulesUnfiltered:
    def test_loaded_pattern_fires_on_digit_and_at_free_text(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps([
            {"entity_type": "PHONE", "pattern": r"\bhotline\b", "placeholder": "[PHONE]"},
            {"entity_type": "EMAIL", "pattern": r"\binbox\b", "placeholder": "[EMAIL]"},
        ]))
        out = redact("call the hotline or check the inbox", TOKEN, load_rules(str(path)))
        assert out.text == "call the [PHONE] or check the [EMAIL]"

    def test_loaded_builtin_email_pattern_matches_builtin_rule(self, tmp_path):
        (builtin,) = [r for r in default_rules() if r.entity_type == "EMAIL"]
        path = str(tmp_path / "rules.json")
        write_rules([builtin], path)
        loaded = load_rules(path)
        for text in ("bob@x.org", "no sign here", "a@b.cd, c@d.ef", "x@y", "@", "\u0663@example.test"):
            assert _candidates(text, loaded) == _candidates(text, RuleSet([builtin]))
