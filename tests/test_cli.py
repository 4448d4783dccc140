"""CLI contract tests: subcommands, exit codes, and output hygiene."""

import json
import os
import pathlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import write_rules

from prism.assistant import DRAFT_STATUSES
from prism.cli import main
from prism.redaction import default_rules

SCENARIO = {
    "name": "cli",
    "seed": 5,
    "n_users": 50,
    "n_groups": 6,
    "n_coaches": 2,
    "capacity_min": 10,
    "capacity_max": 14,
    "horizon_weeks": 15,
    "w_pre": 6,
    "w_post": 8,
}


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(SCENARIO))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_exits_one(capsys, *argv):
    """The command rejects its input: exit 1 and one ``error:`` line."""
    code, _, stderr = run_cli(capsys, *argv)
    assert code == 1, stderr
    assert stderr.startswith("error: ") and stderr.count("\n") == 1, stderr


CORPUS_LINE = json.dumps({"text": "see you at the walk", "user_token": "ab" * 32})
DRAFT = {
    "draft_id": "d-1", "user_token": "ab" * 32, "template_id": "reengage-streak",
    "rendered_text": "see you at the walk", "status": "pending",
    "reviewer_id": None, "created_at": None, "decided_at": None,
}
CORPUS_RECORD = {
    "text": "see you at the walk", "user_token": "ab" * 32,
    "cohort": {"goal": "fitness"}, "counts": {"NAME": 1},
}


class TestSimulate:
    def test_run_directory_contract(self, keys_env, scenario_file, tmp_path, capsys):
        out = str(tmp_path / "run")
        code, stdout, _ = run_cli(
            capsys, "simulate", "--scenario", scenario_file, "--seed", "7", "--out", out
        )
        assert code == 0
        names = set(os.listdir(out))
        assert {"manifest.json", "metrics.json", "traces.jsonl", "audit.jsonl"} <= names
        manifest = json.loads(pathlib.Path(out, "manifest.json").read_text())
        assert manifest["seed"] == 7
        assert manifest["policy"]["dwell"] == 4
        assert "metrics.json" in manifest["outputs"]

    def test_repeat_runs_byte_identical(self, keys_env, scenario_file, tmp_path, capsys):
        d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
        for out in (d1, d2):
            code, _, _ = run_cli(
                capsys, "simulate", "--scenario", scenario_file, "--seed", "9", "--out", out
            )
            assert code == 0
        for name in ("metrics.json", "traces.jsonl"):
            assert (
                pathlib.Path(d1, name).read_bytes() == pathlib.Path(d2, name).read_bytes()
            )

    def test_over_capacity_scenario_exits_one_naming_capacity(
        self, keys_env, tmp_path, capsys
    ):
        bad = dict(SCENARIO, n_users=500)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, _, stderr = run_cli(
            capsys, "simulate", "--scenario", str(path), "--out", str(tmp_path / "x")
        )
        assert code == 1
        assert "capacity" in stderr

    @pytest.mark.parametrize(
        "doc, argv, expected",
        [
            (dict(SCENARIO, seed=-1), (), 1),
            (SCENARIO, ("--seed", "-1"), 1),
            (dict(SCENARIO, n_users="abc"), (), 1),
            (dict(SCENARIO, message_prob=2.0), (), 1),
            (dict(SCENARIO, analyst_probes_per_week=-5), (), 1),
            (dict(SCENARIO, goal_weights=5), (), 1),
            ([SCENARIO], (), 1),
            (dict(SCENARIO, n_coaches=9), (), 0),  # more coaches than groups runs
        ],
    )
    def test_scenario_values_exit_one_or_run(self, keys_env, tmp_path, capsys, doc, argv, expected):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        code, _, stderr = run_cli(
            capsys, "simulate", "--scenario", str(path), "--out", str(tmp_path / "x"), *argv
        )
        assert code == expected
        assert "Traceback" not in stderr
        assert stderr.startswith("error: ") == (expected == 1)

    def test_missing_keys_exits_one(self, monkeypatch, scenario_file, tmp_path, capsys):
        monkeypatch.delenv("PRISM_TOKEN_KEY", raising=False)
        monkeypatch.delenv("PRISM_ENC_KEY", raising=False)
        code, _, stderr = run_cli(
            capsys, "simulate", "--scenario", scenario_file, "--out", str(tmp_path / "x")
        )
        assert code == 1
        assert "PRISM_TOKEN_KEY" in stderr

    def test_seed_range_runs_subdirectories(self, keys_env, scenario_file, tmp_path, capsys):
        out = str(tmp_path / "sweep")
        code, _, _ = run_cli(
            capsys, "simulate", "--scenario", scenario_file, "--seeds", "1..2", "--out", out
        )
        assert code == 0
        assert os.path.isdir(os.path.join(out, "seed-1"))
        assert os.path.isdir(os.path.join(out, "seed-2"))

    def test_config_overrides_echoed_into_manifest(
        self, keys_env, scenario_file, tmp_path, capsys
    ):
        config_path = tmp_path / "policy.json"
        config_path.write_text(json.dumps({"policy": {"lam": 0.5, "beta": 0.8}}))
        out = str(tmp_path / "run")
        code, _, _ = run_cli(
            capsys, "simulate", "--scenario", scenario_file, "--out", out,
            "--config", str(config_path),
        )
        assert code == 0
        manifest = json.loads(pathlib.Path(out, "manifest.json").read_text())
        assert manifest["policy"]["lam"] == 0.5
        assert manifest["policy"]["beta"] == 0.8
        assert manifest["policy"]["dwell"] == 4  # untouched default still echoed

    def test_config_engagement_alphas_echoed(self, keys_env, scenario_file, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        alphas = [0.4, 0.3, 0.1, 0.1, 0.1]
        config_path.write_text(json.dumps({"engagement_alphas": alphas}))
        out = str(tmp_path / "run")
        code, _, _ = run_cli(
            capsys, "simulate", "--scenario", scenario_file, "--out", out,
            "--config", str(config_path),
        )
        assert code == 0
        manifest = json.loads(pathlib.Path(out, "manifest.json").read_text())
        assert manifest["engagement_alphas"] == alphas

    def test_config_keys_section(self, monkeypatch, scenario_file, tmp_path, capsys):
        monkeypatch.delenv("PRISM_TOKEN_KEY", raising=False)
        monkeypatch.delenv("PRISM_ENC_KEY", raising=False)
        keys_file = tmp_path / "keys.json"
        keys_file.write_text(json.dumps({"token_key": "11" * 32, "encryption_key": "22" * 32}))
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"keys": str(keys_file)}))
        out = str(tmp_path / "run")
        code, _, _ = run_cli(
            capsys, "simulate", "--scenario", scenario_file, "--out", out,
            "--config", str(config_path),
        )
        assert code == 0
        manifest = json.loads(pathlib.Path(out, "manifest.json").read_text())
        assert manifest["key_source"] == str(keys_file)

    @pytest.mark.parametrize("doc, expected", [
        ({"token_key": "11" * 32, "encryption_key": "22" * 32, "key_version": "x"}, 0),
        (5, 1),
        ({"token_key": 11, "encryption_key": "22" * 32}, 1),
    ])
    def test_key_file_exits_zero_or_one(self, scenario_file, tmp_path, capsys, doc, expected):
        keys_file = tmp_path / "keys.json"
        keys_file.write_text(json.dumps(doc))
        code, _, stderr = run_cli(
            capsys, "simulate", "--scenario", scenario_file, "--out", str(tmp_path / "run"),
            "--keys", str(keys_file),
        )
        assert code == expected, stderr

    @pytest.mark.parametrize("text", [
        None,
        "{not json",
        json.dumps({"engagement_alphas": 5}),
        json.dumps({"policy": {"dwell": "x"}}),
        json.dumps({"keys": 5}),
    ], ids=["missing", "not-json", "alphas-not-a-list", "dwell-not-an-int", "keys-not-a-path"])
    def test_bad_config_file_exits_one(self, keys_env, scenario_file, tmp_path, capsys, text):
        config_path = tmp_path / "config.json"
        if text is not None:
            config_path.write_text(text)
        assert_exits_one(
            capsys, "simulate", "--scenario", scenario_file,
            "--out", str(tmp_path / "x"), "--config", str(config_path),
        )

    def test_unknown_policy_key_rejected(self, keys_env, scenario_file, tmp_path, capsys):
        config_path = tmp_path / "policy.json"
        config_path.write_text(json.dumps({"policy": {"explore_bonus": 2.0}}))
        code, _, stderr = run_cli(
            capsys, "simulate", "--scenario", scenario_file,
            "--out", str(tmp_path / "x"), "--config", str(config_path),
        )
        assert code == 1
        assert "explore_bonus" in stderr

    def test_policy_override(self, keys_env, scenario_file, tmp_path, capsys):
        out = str(tmp_path / "static-run")
        code, _, _ = run_cli(
            capsys, "simulate", "--scenario", scenario_file, "--out", out,
            "--policy", "static",
        )
        assert code == 0
        metrics = json.loads(pathlib.Path(out, "metrics.json").read_text())
        assert metrics["arm"] == "static"
        assert metrics["decisions"] == 0


class TestCompare:
    def test_compare_two_runs(self, keys_env, scenario_file, tmp_path, capsys):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        run_cli(capsys, "simulate", "--scenario", scenario_file, "--out", a, "--policy", "static")
        run_cli(capsys, "simulate", "--scenario", scenario_file, "--out", b, "--policy", "adaptive")
        code, stdout, _ = run_cli(capsys, "compare", "--a", a, "--b", b)
        assert code == 0
        table = json.loads(stdout.splitlines()[0])
        assert table["arm_a"] == "static" and table["arm_b"] == "adaptive"
        assert "mann_whitney" in table

    def test_missing_run_dir_exits_one(self, capsys, tmp_path):
        code, _, stderr = run_cli(
            capsys, "compare", "--a", str(tmp_path / "no"), "--b", str(tmp_path / "pe")
        )
        assert code == 1

    @pytest.mark.parametrize("text", ["{not json", "{}"], ids=["not-json", "empty-object"])
    def test_bad_metrics_file_exits_one(self, capsys, tmp_path, text):
        for run in ("a", "b"):
            (tmp_path / run).mkdir()
            (tmp_path / run / "metrics.json").write_text(text)
        assert_exits_one(capsys, "compare", "--a", str(tmp_path / "a"), "--b", str(tmp_path / "b"))


class TestLeakAudit:
    def test_clean_corpus_reports_zero(self, keys_env, scenario_file, tmp_path, capsys):
        out = str(tmp_path / "run")
        run_cli(capsys, "simulate", "--scenario", scenario_file, "--out", out)
        code, stdout, _ = run_cli(
            capsys, "leak-audit", "--in", os.path.join(out, "deid_messages.jsonl")
        )
        assert code == 0
        report = json.loads(stdout)
        assert report["leak_rate"] == 0.0
        assert report["n_samples"] > 0

    def test_custom_rules_file(self, keys_env, scenario_file, tmp_path, capsys):
        out = str(tmp_path / "run")
        run_cli(capsys, "simulate", "--scenario", scenario_file, "--out", out)
        rules_path = str(tmp_path / "rules.json")
        write_rules(default_rules(), rules_path)
        code, stdout, _ = run_cli(
            capsys, "leak-audit",
            "--in", os.path.join(out, "deid_messages.jsonl"),
            "--rules", rules_path,
        )
        assert code == 0
        assert json.loads(stdout)["leak_rate"] == 0.0

    @pytest.mark.parametrize("rules", [
        ["x"],
        [{"entity_type": "EMAIL", "pattern": 5, "placeholder": "[EMAIL]"}],
    ], ids=["entry-not-an-object", "pattern-not-a-string"])
    def test_bad_rules_file_exits_one(self, capsys, tmp_path, rules):
        corpus, rules_path = tmp_path / "corpus.jsonl", tmp_path / "rules.json"
        corpus.write_text(CORPUS_LINE + "\n")
        rules_path.write_text(json.dumps(rules))
        assert_exits_one(capsys, "leak-audit", "--in", str(corpus), "--rules", str(rules_path))

    @pytest.mark.parametrize("line", [
        "{not json",
        json.dumps({"user_token": "ab" * 32}),
    ], ids=["not-json", "no-text"])
    def test_bad_corpus_line_exits_one(self, capsys, tmp_path, line):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(CORPUS_LINE + "\n" + line + "\n")
        assert_exits_one(capsys, "leak-audit", "--in", str(corpus))


class TestDemos:
    def test_tokenize_demo_never_echoes_value(self, keys_env, capsys):
        code, stdout, _ = run_cli(
            capsys, "tokenize-demo", "--value", "Alice@Example.COM", "--context", "email"
        )
        assert code == 0
        doc = json.loads(stdout)
        assert len(doc["token"]) == 64
        assert "alice" not in stdout.lower()

    def test_tokenize_demo_deterministic(self, keys_env, capsys):
        _, out1, _ = run_cli(capsys, "tokenize-demo", "--value", "x@y.test", "--context", "email")
        _, out2, _ = run_cli(capsys, "tokenize-demo", "--value", "X@Y.TEST ", "--context", "email")
        assert json.loads(out1)["token"] == json.loads(out2)["token"]

    def test_restore_demo_analyst_denied(self, keys_env, capsys):
        code, stdout, _ = run_cli(capsys, "restore-demo", "--role", "analyst")
        assert code == 0
        doc = json.loads(stdout)
        assert doc["decision"] == "denied"
        assert doc["denial_reason"] == "role_forbidden"
        assert doc["audit_entries"] == 1

    def test_restore_demo_coach_granted_field_names_only(self, keys_env, capsys):
        code, stdout, _ = run_cli(capsys, "restore-demo", "--role", "coach")
        assert code == 0
        doc = json.loads(stdout)
        assert doc["decision"] == "granted"
        assert doc["restored_fields"] == ["email", "full_name"]
        assert "Demo Subject" not in stdout
        assert "demo.subject@example-mail.test" not in stdout

    def test_restore_demo_no_mfa_denied(self, keys_env, capsys):
        code, stdout, _ = run_cli(capsys, "restore-demo", "--role", "coach", "--no-mfa")
        assert json.loads(stdout)["denial_reason"] == "mfa_required"


class TestReview:
    def _run_with_pending(self, capsys, keys_env, tmp_path):
        scenario = dict(
            SCENARIO,
            review_approve_prob=0.3,
            review_edit_prob=0.1,
            review_discard_prob=0.1,
        )
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        out = str(tmp_path / "run")
        run_cli(capsys, "simulate", "--scenario", str(path), "--out", out)
        drafts = [json.loads(line) for line in open(os.path.join(out, "drafts.jsonl"))]
        pending = [d for d in drafts if d["status"] == "pending"]
        assert pending, "scenario should leave pending drafts"
        return out, pending[0]["draft_id"]

    def test_approve_updates_run_directory(self, keys_env, tmp_path, capsys):
        out, draft_id = self._run_with_pending(capsys, keys_env, tmp_path)
        code, stdout, _ = run_cli(
            capsys, "review", "--run", out, "--draft", draft_id, "--decision", "approve"
        )
        assert code == 0
        updated = {
            json.loads(line)["draft_id"]: json.loads(line)
            for line in open(os.path.join(out, "drafts.jsonl"))
        }
        assert updated[draft_id]["status"] == "approved"

    def test_edit_with_identifier_exits_privacy_code(self, keys_env, tmp_path, capsys):
        out, draft_id = self._run_with_pending(capsys, keys_env, tmp_path)
        code, _, stderr = run_cli(
            capsys, "review", "--run", out, "--draft", draft_id, "--decision", "edit",
            "--text", "call me at 613-555-0142",
        )
        assert code == 3
        assert "613-555-0142" not in stderr

    def test_double_decision_rejected(self, keys_env, tmp_path, capsys):
        out, draft_id = self._run_with_pending(capsys, keys_env, tmp_path)
        run_cli(capsys, "review", "--run", out, "--draft", draft_id, "--decision", "discard")
        code, _, _ = run_cli(
            capsys, "review", "--run", out, "--draft", draft_id, "--decision", "approve"
        )
        assert code == 1

    def test_bad_drafts_line_exits_one(self, capsys, tmp_path):
        (tmp_path / "drafts.jsonl").write_text("{not json\n")
        assert_exits_one(
            capsys, "review", "--run", str(tmp_path), "--draft", "d-1", "--decision", "approve"
        )

    def test_approve_rescans_a_loaded_draft(self, tmp_path, capsys):
        # A hand-edited file can hold an identifier the run never wrote.
        path = tmp_path / "drafts.jsonl"
        path.write_text(json.dumps(dict(DRAFT, rendered_text="call me at 613-555-0142")) + "\n")
        before = path.read_bytes()
        code, _, stderr = run_cli(
            capsys, "review", "--run", str(tmp_path), "--draft", "d-1", "--decision", "approve"
        )
        assert code == 3
        assert "613-555-0142" not in stderr
        assert path.read_bytes() == before

    def test_unknown_draft_exits_one(self, keys_env, tmp_path, capsys):
        out, _ = self._run_with_pending(capsys, keys_env, tmp_path)
        code, _, _ = run_cli(
            capsys, "review", "--run", out, "--draft", "d-nope", "--decision", "approve"
        )
        assert code == 1


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4,
)


def _draft_field_ok(field, value):
    if value is None:
        return field in ("reviewer_id", "created_at", "decided_at")
    return isinstance(value, str) and (field != "status" or value in DRAFT_STATUSES)


def _corpus_field_ok(field, value):
    if field == "cohort":
        return isinstance(value, dict) and all(
            isinstance(v, (str, int, float, bool)) for v in value.values()
        )
    if field == "counts":
        return isinstance(value, dict) and all(type(v) is int for v in value.values())
    return isinstance(value, str)


@st.composite
def _spoiled(draw, record, field_ok):
    """``record`` with one field replaced by a value of the wrong type."""
    field = draw(st.sampled_from(sorted(record)))
    value = draw(_JSON_VALUES.filter(lambda v: not field_ok(field, v)))
    return dict(record, **{field: value})


class TestMalformedRecords:
    """A record line with one wrongly typed field is rejected with exit 1."""

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(draft=_spoiled(DRAFT, _draft_field_ok))
    def test_draft_field_types(self, capsys, tmp_path, draft):
        (tmp_path / "drafts.jsonl").write_text(json.dumps(draft) + "\n")
        assert_exits_one(
            capsys, "review", "--run", str(tmp_path), "--draft", "d-1", "--decision", "approve"
        )

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(record=_spoiled(CORPUS_RECORD, _corpus_field_ok))
    def test_corpus_field_types(self, capsys, tmp_path, record):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(json.dumps(CORPUS_RECORD) + "\n" + json.dumps(record) + "\n")
        assert_exits_one(capsys, "leak-audit", "--in", str(corpus))


class TestUsageAndHygiene:
    def test_unknown_subcommand_exits_one_with_usage(self, capsys):
        code, _, stderr = run_cli(capsys, "frobnicate")
        assert code == 1
        assert "usage" in stderr

    def test_no_subcommand_exits_one(self, capsys):
        code, _, stderr = run_cli(capsys)
        assert code == 1

    def test_outputs_never_contain_key_material(self, keys_env, scenario_file, tmp_path, capsys):
        blobs = []
        out = str(tmp_path / "run")
        for argv in (
            ("simulate", "--scenario", scenario_file, "--out", out),
            ("tokenize-demo", "--value", "a@b.test", "--context", "email"),
            ("restore-demo", "--role", "coach"),
            ("leak-audit", "--in", os.path.join(out, "deid_messages.jsonl")),
        ):
            _, stdout, stderr = run_cli(capsys, *argv)
            blobs.append(stdout + stderr)
        for blob in blobs:
            assert "11" * 32 not in blob
            assert "22" * 32 not in blob
