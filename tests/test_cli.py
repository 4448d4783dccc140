"""CLI contract tests: subcommands, exit codes, and output hygiene."""

import dataclasses
import json
import math
import os
import pathlib
import shutil
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from conftest import ENC_KEY_HEX, TOKEN_KEY_HEX, write_rules

from prism.assignment import _POLICY_BOUNDS, PolicyConfig
from prism import cli
from prism.assistant import DRAFT_STATUSES, save_drafts
from prism.cli import main
from prism.errors import ValidationError
from prism.metrics import MetricsReport
from prism.redaction import default_rules
from prism.simulator import Scenario, TraceLegend, experiment, generate_cohort, run_experiment
from prism.simulator.scenario import NORMAL_DRAW_MAX, POISSON_RATE_MAX
from prism.vault import KeyRing

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
METRICS = {
    "arm": "static", "seed": 1, "scenario_name": "t", "horizon_weeks": 19, "w_pre": 8,
    "w_post": 11, "adherence_pre": 0.5, "adherence_post": 0.5, "eng_index": 1.0,
    "weekly_scores_pre": [0.1, 0.2], "weekly_scores_post": [0.3, 0.4], "reassignments": 0,
    "violations": 0, "weight_delta_mean": 0.0, "decisions": 0, "governance": {}, "assistant": {},
    "leak": {"n_samples": 1, "n_hits": 0, "leak_rate": 0.0, "hit_examples_by_type": {}},
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
            (dict(SCENARIO, capacity_max=10**20), (), 1),
            (dict(SCENARIO, horizon_weeks=10**20), (), 1),
            # Fits int64, but 50 users' arrays could not be allocated: rejected
            # by the user-week bound before any array is built.
            (dict(SCENARIO, horizon_weeks=2**40), (), 1),
            # Fit int64, but the per-group and per-coach state could not be
            # allocated: rejected by the group and coach bound.
            (dict(SCENARIO, n_groups=10**12), (), 1),
            (dict(SCENARIO, n_coaches=10**12), (), 1),
            # Poisson rates of goal-matched users must not go negative.
            (dict(SCENARIO, engagement_match_bonus=-1.0), (), 0),
            (dict(SCENARIO, engagement_match_bonus=-1.0001), (), 1),
            # The fatigue term must stay finite over the horizon.
            (dict(SCENARIO, fatigue_mean=sys.float_info.max / (1.5 * 15)), (), 0),
            (dict(SCENARIO, fatigue_mean=1e308), (), 1),
            (dict(SCENARIO, fatigue_mean=-1e308), (), 1),
            # A static arm with no posts audits an empty corpus.
            (dict(SCENARIO, message_prob=0.0), ("--policy", "static"), 0),
            # Poisson rates of 0 or below draw nothing, so a cohort needs a
            # positive one and no negative one.
            (dict(SCENARIO, engagement_rate_means=[0.0] * 5), (), 1),
            (dict(SCENARIO, engagement_rate_means=[-1.0, 0.0, 0.0, 0.0, 5.0]), (), 1),
            (dict(SCENARIO, engagement_rate_means=[0.0, 0.0, 0.0, 0.0, 2.0]), (), 0),
            # No term of the check-in logit or the weight trajectory overflows,
            # and neither do their sums. Fatigue builds over 14 weeks after
            # the first, so this value, over the old bound of 15, now runs.
            (dict(SCENARIO, fatigue_mean=sys.float_info.max / (1.5 * 14.5)), (), 0),
            (dict(SCENARIO, base_logit_mean=1e308, match_uplift=1e308), (), 1),
            (dict(SCENARIO, noise_sd=sys.float_info.max / 16), (), 0),
            (dict(SCENARIO, noise_sd=sys.float_info.max / 8), (), 1),
            (dict(SCENARIO, weight_noise_sd=1.6e308), (), 1),
            (dict(SCENARIO, weight_start_mean=1e305), (), 0),
            (dict(SCENARIO, weight_start_mean=1e307), (), 1),
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

    @pytest.mark.parametrize("raw", [
        b"\xff\xfe",
        b'{"seed": ' + b"1" * 5000 + b"}",
        b"[" * 100000,
    ], ids=["not-utf8", "int-too-long-to-parse", "nested-too-deep"])
    def test_unreadable_scenario_file_exits_one(self, keys_env, tmp_path, capsys, raw):
        path = tmp_path / "scenario.json"
        path.write_bytes(raw)
        assert_exits_one(capsys, "simulate", "--scenario", str(path), "--out", str(tmp_path / "x"))

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
        '{"engagement_alphas": [NaN, 0.2, 0.1, 0.2, 0.2]}',
        json.dumps({"engagement_alphas": [True, False, False, False, False]}),
        json.dumps({"policy": {"dwell": 10**400}}),
        # Each of these once ran: the first exited 2 on a singular model,
        # the others exited 0 with non-finite scores or means in the traces.
        json.dumps({"policy": {"ridge": 1e-300}}),
        json.dumps({"policy": {"beta": 1e308}}),
        json.dumps({"policy": {"lam": 1e308}}),
        json.dumps({"policy": {"w_adh": 1e308, "w_eng": 1e308}}),
    ], ids=[
        "missing", "not-json", "alphas-not-a-list", "dwell-not-an-int", "keys-not-a-path",
        "alphas-nan", "alphas-bool", "dwell-huge",
        "ridge-tiny", "beta-huge", "lam-huge", "weights-huge",
    ])
    def test_bad_config_file_exits_one(self, keys_env, scenario_file, tmp_path, capsys, text):
        config_path = tmp_path / "config.json"
        if text is not None:
            config_path.write_text(text)
        assert_exits_one(
            capsys, "simulate", "--scenario", scenario_file,
            "--out", str(tmp_path / "x"), "--config", str(config_path),
        )

    @pytest.mark.parametrize("alphas", [
        [0.5, 0.5, 0, 0, 0.1], [0.5, 0.5], [1.5, -0.5, 0, 0, 0],
    ], ids=["sum-not-one", "too-few", "negative"])
    def test_bad_engagement_alphas_exit_one_before_any_week(
        self, keys_env, scenario_file, tmp_path, capsys, alphas
    ):
        # Such weights once ran every pre-period week, and left an empty
        # traces.jsonl, before the weights froze and were rejected.
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"engagement_alphas": alphas}))
        out = tmp_path / "run"
        with mock.patch.object(experiment, "step_week") as step_week:
            assert_exits_one(
                capsys, "simulate", "--scenario", scenario_file, "--out", str(out),
                "--config", str(config_path),
            )
        step_week.assert_not_called()
        assert not out.exists()

    @pytest.mark.parametrize("policy", ["static", "adaptive"])
    def test_run_that_fails_after_week_zero_leaves_no_out(
        self, keys_env, tmp_path, capsys, policy
    ):
        # Rates this small draw no action in the pre-period, so the run
        # exits at the weight freeze, after w_pre simulated weeks. Its files
        # went to a directory beside --out, and that directory is gone too.
        path, out = tmp_path / "scenario.json", tmp_path / "runs" / "run"
        path.write_text(json.dumps(dict(SCENARIO, engagement_rate_means=[1e-9, 0, 0, 0, 0])))
        with mock.patch.object(experiment, "step_week", wraps=experiment.step_week) as weeks:
            assert_exits_one(
                capsys, "simulate", "--scenario", str(path), "--out", str(out), "--policy", policy
            )
        assert weeks.call_count == SCENARIO["w_pre"]
        assert not out.exists() and list((tmp_path / "runs").iterdir()) == []

    def test_out_that_is_a_file_exits_one_before_any_week(
        self, keys_env, scenario_file, tmp_path, capsys
    ):
        out = tmp_path / "run"
        out.write_text("not a run")
        with mock.patch.object(experiment, "step_week") as step_week:
            assert_exits_one(capsys, "simulate", "--scenario", scenario_file, "--out", str(out))
        step_week.assert_not_called()
        assert out.read_text() == "not a run"

    def test_rerun_into_an_existing_run_directory(self, keys_env, scenario_file, tmp_path, capsys):
        # A second run into the same --out replaces the files it writes and
        # keeps any other file there.
        out = tmp_path / "run"
        argv = ("simulate", "--scenario", scenario_file, "--out", str(out), "--policy", "adaptive")
        assert run_cli(capsys, *argv)[0] == 0
        first = {f.name: f.read_bytes() for f in out.iterdir()}
        (out / "notes.txt").write_text("kept")
        assert run_cli(capsys, *argv)[0] == 0
        assert {f.name: f.read_bytes() for f in out.iterdir()} == {**first, "notes.txt": b"kept"}
        assert [p.name for p in tmp_path.iterdir() if p.name.startswith(".")] == []

    @pytest.mark.parametrize("policy, first_update", [
        # Decisions start at the scenario's w_pre, 6. The batches of epochs
        # 6 and 7 lack the policy's 8 baseline weeks and are dropped when
        # they mature at 10 and 11; the batch of epoch 8 updates at 12.
        ({"w_pre": 8}, 12),
        # The batch of epoch 6 would mature at 15, the horizon: none ever does.
        ({"w_post": 9}, None),
    ], ids=["rewards-deferred", "nothing-matures"])
    def test_reward_window_edges(
        self, keys_env, scenario_file, tmp_path, capsys, policy, first_update
    ):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"policy": policy}))
        out = tmp_path / "run"
        code, _, stderr = run_cli(
            capsys, "simulate", "--scenario", scenario_file, "--out", str(out),
            "--config", str(config_path),
        )
        assert code == 0, stderr
        assert json.loads((out / "metrics.json").read_text())["violations"] == 0
        legend = TraceLegend.from_manifest(json.loads((out / "manifest.json").read_text()))
        traces = [legend.decode(line) for line in (out / "traces.jsonl").read_text().splitlines()]
        assert {t["epoch"] for t in traces} == set(range(SCENARIO["w_pre"], SCENARIO["horizon_weeks"]))
        learned = {t["epoch"] for t in traces if any(mu != 0.0 for mu in t["mu"])}
        if first_update is None:
            assert learned == set()
        else:
            assert learned == set(range(first_update, SCENARIO["horizon_weeks"]))

    @settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_policy_within_bounds_runs_with_finite_terms(
        self, keys_env, scenario_file, tmp_path, capsys, data
    ):
        # Each real-valued knob at one of its bounds or anywhere between,
        # on a log scale; any value just outside a bound exits 1.
        def knob(low, high):
            inside = st.floats(math.log10(max(low, 1e-4)), math.log10(high)).map(lambda e: 10.0**e)
            return st.sampled_from([low, high]) | inside

        policy = {
            "ridge": data.draw(knob(1e-4, 1e8)),
            "beta": data.draw(knob(0.0, 1e6)),
            "lam": data.draw(knob(0.0, 1e6)),
            "w_adh": data.draw(knob(0.0, 1e6)),
            "w_eng": data.draw(knob(0.0, 1e6)),
        }
        config_path = tmp_path / "config.json"
        out = tmp_path / "run"
        shutil.rmtree(out, ignore_errors=True)
        config_path.write_text(json.dumps({"policy": policy}))
        code, _, stderr = run_cli(
            capsys, "simulate", "--scenario", scenario_file, "--out", str(out),
            "--config", str(config_path),
        )
        assert code == 0, stderr
        legend = TraceLegend.from_manifest(json.loads((out / "manifest.json").read_text()))
        for line in (out / "traces.jsonl").read_text().splitlines():
            doc = legend.decode(line)
            assert all(math.isfinite(v) for k in ("mu", "sigma", "score") for v in doc[k])

        name = data.draw(st.sampled_from(sorted(policy)))
        low, high = {"ridge": (1e-4, 1e8)}.get(name, (0.0, 1e6))
        outside = data.draw(st.sampled_from([math.nextafter(high, math.inf), high * 10]
                                            + ([math.nextafter(low, -math.inf)])))
        config_path.write_text(json.dumps({"policy": {name: outside}}))
        assert_exits_one(
            capsys, "simulate", "--scenario", scenario_file, "--out", str(tmp_path / "x"),
            "--config", str(config_path),
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


def _any_float(low=None, high=None):
    return st.floats(low, high, allow_nan=False, allow_infinity=False)


def _mostly(valid, invalid):
    """``valid`` nineteen draws in twenty, else ``invalid``."""
    return st.sampled_from(range(20)).flatmap(lambda k: invalid if k == 19 else valid)


@st.composite
def _small_scenarios(draw):
    """A scenario document with small sizes and any other values: most
    validate and run, some fail ``Scenario``'s checks or the cohort's
    capacity, coach-load and drawn-rate checks."""
    w_pre, w_post = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    capacity_min = draw(_mostly(st.integers(1, 8), st.just(0)))
    probability = _mostly(st.floats(0.0, 1.0), st.sampled_from([-0.5, 1.5]))
    n_groups, n_coaches = draw(st.integers(1, 8)), draw(st.integers(1, 4))
    load_factor = draw(_mostly(st.floats(0.01, 1.0), st.sampled_from([0.0, 1.5])))
    # Mostly few enough users for the seats and coach load the cohort can have.
    seats = int(n_groups * capacity_min * min(load_factor, 1.0)) - n_coaches
    n_users = draw(_mostly(st.integers(1, max(1, min(seats, 40))), st.integers(1, 40)))
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4))
    total = sum(weights)
    goal_weights = [w / total for w in weights] if total > 0 else [0.25] * 4
    horizon_weeks = w_pre + w_post + draw(_mostly(st.integers(0, 3), st.just(-1)))
    doc = {
        "name": draw(st.text(max_size=6)),
        "seed": draw(st.integers(0, 2**63 - 1)),
        "policy": draw(st.sampled_from(["static", "adaptive"])),
        "n_users": n_users,
        "n_groups": n_groups,
        "n_coaches": n_coaches,
        "capacity_min": capacity_min,
        "capacity_max": capacity_min + draw(_mostly(st.integers(0, 10), st.just(-1))),
        "coach_load_factor": load_factor,
        "goal_weights": draw(_mostly(st.just(goal_weights), st.just(goal_weights[:3]))),
        "misgroup_fraction": draw(probability),
        "horizon_weeks": horizon_weeks,
        "w_pre": w_pre,
        "w_post": w_post,
        # No posts at all: a static arm then has nothing to leak-audit.
        "message_prob": draw(st.just(0.0) | probability),
        "review_approve_prob": draw(st.floats(0.0, 0.6)),
        "review_edit_prob": draw(_mostly(st.floats(0.0, 0.2), st.just(0.5))),
        "review_discard_prob": draw(st.floats(0.0, 0.2)),
        "analyst_probes_per_week": draw(_mostly(st.integers(0, 3), st.just(-1))),
    }
    # Mostly non-negative rates; sometimes none positive or one negative.
    rates = draw(_mostly(
        st.lists(_any_float(0.0, 50.0), min_size=5, max_size=5),
        st.lists(st.sampled_from([0.0, -0.5, 1.0]), min_size=5, max_size=5),
    ))
    doc["engagement_rate_means"] = rates
    # Each side of every behaviour bound of Scenario: the largest magnitude
    # each value may take with the others near zero, and the next float up.
    big, z = sys.float_info.max, NORMAL_DRAW_MAX
    n, h = n_users, max(horizon_weeks, 2)
    alone = {
        "base_logit_mean": big, "base_logit_sd": big / z, "match_uplift": big,
        "activity_uplift": big, "fatigue_mean": big / (1.5 * (h - 1)), "noise_sd": big / z,
        "weight_start_mean": big / (4 * n), "weight_start_sd": big / (4 * n * z),
        "weight_drift_per_adherent_week": big / (4 * n * h),
        "weight_noise_sd": big / (4 * n * h * z),
    }
    edges = {
        name: st.sampled_from([v, -v, math.nextafter(v, math.inf)]) for name, v in alone.items()
    }
    # Poisson rates stay non-negative, and a goal-matched user's mean rate
    # within the Poisson draw's limit.
    bonus_edges = [-1.0, math.nextafter(-1.0, -2.0)]
    if max(rates) > 0:
        bonus_edge = POISSON_RATE_MAX / max(rates) - 1.0
        bonus_edges += [bonus_edge, math.nextafter(bonus_edge, math.inf)]
    edges["engagement_match_bonus"] = st.sampled_from(bonus_edges)
    for name in (
        "base_logit_mean", "base_logit_sd", "match_uplift", "activity_uplift",
        "engagement_match_bonus", "fatigue_mean", "noise_sd", "activity_threshold",
        "weight_start_mean", "weight_start_sd", "weight_drift_per_adherent_week", "weight_noise_sd",
    ):
        if draw(st.booleans()):
            wide = _any_float() | edges[name] if name in edges else _any_float()
            doc[name] = draw(_mostly(_any_float(-10.0, 10.0), wide))
    return doc


class TestAnyScenario:
    @settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(doc=_small_scenarios())
    def test_runs_or_exits_one(self, keys_env, capsys, tmp_path, doc):
        # Accepted: the arm runs with exit 0, no violation, no leak and no
        # float overflow or invalid operation.
        # Rejected: exit 1 with one error line, never an internal error.
        path, out = tmp_path / "scenario.json", tmp_path / "run"
        shutil.rmtree(out, ignore_errors=True)
        path.write_text(json.dumps(doc))
        with (
            mock.patch.object(experiment, "step_week", wraps=experiment.step_week) as weeks,
            np.errstate(over="raise", invalid="raise"),
        ):
            code, _, stderr = run_cli(capsys, "simulate", "--scenario", str(path), "--out", str(out))
        assert code in (0, 1), stderr
        event(f"{doc['policy']} exit {code}")
        if code == 1:
            assert stderr.startswith("error: ") and stderr.count("\n") == 1, stderr
            try:
                generate_cohort(Scenario.from_dict(doc), keys_env)
            except ValidationError:
                return  # by the checks of Scenario or the cohort, before any week
            # The one rejection left once weeks run: a pre-period with no
            # engagement for the index to divide by, found when the weights
            # freeze on the last pre-period week, before any later week.
            assert stderr == "error: pre-period mean engagement must be positive\n"
            assert weeks.call_count == doc["w_pre"]
            assert not out.exists()
            return
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["violations"] == 0
        assert metrics["leak"]["n_hits"] == 0 and metrics["leak"]["leak_rate"] == 0.0
        if doc["policy"] == "adaptive":
            assert metrics["decisions"] == doc["n_users"] * (doc["horizon_weeks"] - doc["w_pre"])
        else:
            assert metrics["decisions"] == 0 and metrics["assistant"]["drafts"] == 0
            if doc["message_prob"] == 0.0:
                assert metrics["leak"]["n_samples"] == 0


_CONFIG_FIELDS = (*sorted(_POLICY_BOUNDS), "dwell", "oscillation", "w_pre", "w_post", "engagement_alphas")


@st.composite
def _configs(draw):
    """A ``--config`` for ``SCENARIO`` with every value inside or on the
    rules ``PolicyConfig`` and the alpha check state, except, about half
    the time, one value just outside them; and whether it is accepted."""
    broken = draw(st.none() | st.sampled_from(_CONFIG_FIELDS))

    def pick(name, valid, invalid):
        return draw(invalid if name == broken else valid)

    policy = {}
    for name, (low, high) in sorted(_POLICY_BOUNDS.items()):
        if name == broken or draw(st.booleans()):
            inside = st.floats(math.log10(max(low, 1e-4)), math.log10(high)).map(lambda e: 10.0**e)
            outside = [math.nextafter(low, -math.inf), math.nextafter(high, math.inf)]
            policy[name] = pick(name, st.sampled_from([low, high]) | inside, st.sampled_from(outside))
    horizon = SCENARIO["horizon_weeks"]
    dwell = pick("dwell", st.sampled_from([0, 1, 4, horizon + 1]), st.just(-1))
    # The oscillation horizon equal to the dwell, above it or one under it.
    oscillation = dwell + pick("oscillation", st.sampled_from([0, 1, horizon]), st.just(-1))
    policy.update(dwell=dwell, oscillation=oscillation)
    # Reward windows of one week or more, longer than the horizon among
    # them, or of none.
    for name in ("w_pre", "w_post"):
        policy[name] = pick(name, st.sampled_from([1, 4, horizon + 1, 2 * horizon]), st.just(0))
    doc = {"policy": policy}
    if broken == "engagement_alphas" or draw(st.booleans()):
        weights = draw(st.lists(st.floats(0.05, 1.0), min_size=5, max_size=5))
        alphas = [w / sum(weights) for w in weights]
        # Normalized weights sum to 1 within a few ulps; a miss leaves it.
        alphas[0] += pick("engagement_alphas", st.just(0.0), st.sampled_from([1e-9, -1e-9, 0.1]))
        doc["engagement_alphas"] = alphas
    return doc, broken is None


class TestAnyConfig:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(drawn=_configs())
    def test_runs_or_exits_one_before_any_week(self, keys_env, scenario_file, capsys, tmp_path, drawn):
        # Accepted: exit 0 with no violation, no leak and no float overflow
        # or invalid operation. Rejected: exit 1 with one error line, before
        # any week runs and before the run directory exists.
        doc, ok = drawn
        path, out = tmp_path / "config.json", tmp_path / "run"
        shutil.rmtree(out, ignore_errors=True)
        path.write_text(json.dumps(doc))
        with (
            mock.patch.object(experiment, "step_week", wraps=experiment.step_week) as weeks,
            np.errstate(over="raise", invalid="raise"),
        ):
            code, _, stderr = run_cli(
                capsys, "simulate", "--scenario", scenario_file, "--out", str(out),
                "--config", str(path),
            )
        event(f"exit {code}")
        assert code == (0 if ok else 1), stderr
        if not ok:
            assert stderr.startswith("error: ") and stderr.count("\n") == 1, stderr
            assert weeks.call_count == 0 and not out.exists()
            return
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["violations"] == 0
        assert metrics["leak"]["n_hits"] == 0 and metrics["leak"]["leak_rate"] == 0.0
        assert metrics["decisions"] == SCENARIO["n_users"] * (SCENARIO["horizon_weeks"] - SCENARIO["w_pre"])


def test_cli_import_leaves_out_the_process_pool():
    # Only `simulate --seeds` uses the pool; other commands skip its import.
    code = "import sys, prism.cli; print(any(m.startswith('concurrent') for m in sys.modules))"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


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

    @pytest.mark.parametrize("text", [
        "{not json",
        "{}",
        json.dumps(dict(METRICS, eng_index=float("nan"))),
        json.dumps(dict(METRICS, extra=1)),
    ], ids=["not-json", "empty-object", "nan-eng-index", "unknown-key"])
    def test_bad_metrics_file_exits_one(self, capsys, tmp_path, text):
        for run in ("a", "b"):
            (tmp_path / run).mkdir()
            (tmp_path / run / "metrics.json").write_text(text)
        assert_exits_one(capsys, "compare", "--a", str(tmp_path / "a"), "--b", str(tmp_path / "b"))


@pytest.fixture(scope="module")
def inspected_run(tmp_path_factory):
    """An adaptive run directory with a non-default beta and lam, and its
    trace lines; the tests copy it before they break it."""
    out = tmp_path_factory.mktemp("inspect") / "run"
    policy = PolicyConfig(beta=0.7, lam=0.35)
    run_experiment(Scenario.from_dict(SCENARIO), KeyRing.from_hex(TOKEN_KEY_HEX, ENC_KEY_HEX),
                   policy=policy, out_dir=str(out))
    lines = (out / "traces.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    return out, lines


def broken_copy(run, tmp_path, name, text):
    copy = tmp_path / "run"
    shutil.copytree(run, copy)
    (copy / name).write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    return str(copy)


class TestInspect:
    def test_prints_every_line_as_schema_2_fields(self, inspected_run, capsys):
        run, lines = inspected_run
        legend = TraceLegend.from_manifest(json.loads((run / "manifest.json").read_text()))
        code, stdout, stderr = run_cli(capsys, "inspect", str(run))
        assert code == 0 and stderr == ""
        assert stdout == "".join(json.dumps(legend.decode(line)) + "\n" for line in lines)
        first = json.loads(stdout.splitlines()[0])
        assert list(first) == [
            "epoch", "user_token", "chosen", "changed", "codes", "mu", "sigma", "penalty", "score",
        ]
        assert len(stdout.splitlines()) == len(lines) == 50 * (15 - 6)

    def test_epoch_and_user_select_lines(self, inspected_run, capsys):
        run, lines = inspected_run
        token = json.loads(lines[-1])["user_token"]
        _, by_epoch, _ = run_cli(capsys, "inspect", str(run), "--epoch", "8")
        assert {json.loads(line)["epoch"] for line in by_epoch.splitlines()} == {8}
        assert len(by_epoch.splitlines()) == 50
        _, by_user, _ = run_cli(capsys, "inspect", str(run), "--user", token)
        assert [json.loads(line)["epoch"] for line in by_user.splitlines()] == list(range(6, 15))
        assert {json.loads(line)["user_token"] for line in by_user.splitlines()} == {token}
        code, both, _ = run_cli(capsys, "inspect", str(run), "--epoch", "8", "--user", token)
        assert code == 0 and both.splitlines() == [
            line for line in by_epoch.splitlines() if json.loads(line)["user_token"] == token
        ]

    @pytest.mark.parametrize(
        "argv", [("--epoch", "3"), ("--epoch", "-1"), ("--user", "ab" * 32), ("--user", "")]
    )
    def test_unknown_epoch_or_token_prints_nothing(self, inspected_run, capsys, argv):
        code, stdout, stderr = run_cli(capsys, "inspect", str(inspected_run[0]), *argv)
        assert (code, stdout, stderr) == (0, "", "")

    def test_static_run_prints_nothing(self, keys_env, scenario_file, tmp_path, capsys):
        out = str(tmp_path / "run")
        run_cli(capsys, "simulate", "--scenario", scenario_file, "--out", out, "--policy", "static")
        assert run_cli(capsys, "inspect", out) == (0, "", "")

    @pytest.mark.parametrize("missing", ["run", "manifest.json", "traces.jsonl"])
    def test_missing_run_dir_or_file_exits_one(self, inspected_run, tmp_path, capsys, missing):
        copy = tmp_path / "run"
        shutil.copytree(inspected_run[0], copy)
        if missing == "run":
            shutil.rmtree(copy)
        else:
            (copy / missing).unlink()
        assert_exits_one(capsys, "inspect", str(copy))

    @pytest.mark.parametrize(
        "edit",
        [
            lambda m: "{not json",
            lambda m: "[]",
            lambda m: {**m, "trace_schema": 2},
            lambda m: {**m, "trace_schema": True},
            lambda m: {k: v for k, v in m.items() if k != "group_ids"},
            lambda m: {**m, "group_ids": [1, 2]},
            lambda m: {**m, "reasons_of_code": "goal_mismatch"},
            lambda m: {**m, "policy": {**m["policy"], "beta": "1.0"}},
            lambda m: {**m, "policy": {k: v for k, v in m["policy"].items() if k != "lam"}},
            lambda m: {**m, "policy": {**m["policy"], "lam": 10**400}},
        ],
        ids=[
            "not-json", "array", "schema-2", "schema-true", "no-group-ids", "int-group-ids",
            "reasons-string", "beta-string", "no-lam", "huge-lam",
        ],
    )
    def test_malformed_manifest_exits_one(self, inspected_run, tmp_path, capsys, edit):
        run = inspected_run[0]
        doc = edit(json.loads((run / "manifest.json").read_text()))
        text = doc if isinstance(doc, str) else json.dumps(doc)
        assert_exits_one(capsys, "inspect", broken_copy(run, tmp_path, "manifest.json", text))

    @pytest.mark.parametrize(
        "edit",
        [
            lambda d: "",
            lambda d: "not json",
            lambda d: "[]",
            lambda d: {**d, "score": ""},
            lambda d: {k: v for k, v in d.items() if k != "penalty"},
            lambda d: dict(reversed(list(d.items()))),
            lambda d: {**d, "epoch": "8"},
            lambda d: {**d, "epoch": -1},
            lambda d: {**d, "user_token": None},
            lambda d: {**d, "chosen": "g999"},
            lambda d: {**d, "changed": 0},
            lambda d: {**d, "codes": d["codes"][:-1]},
            lambda d: {**d, "codes": "Q" + d["codes"][1:]},
            lambda d: {**d, "mu": d["mu"][:-4]},
            lambda d: {**d, "sigma": d["sigma"] + "AAAAAAAAAAA="},
            lambda d: {**d, "penalty": d["penalty"] + "0"},
            lambda d: {**d, "penalty": "2" * len(d["penalty"])},
            b"\xff\xfe",
        ],
        ids=[
            "empty", "not-json", "array", "extra-field", "missing-field", "reordered",
            "epoch-string", "epoch-negative", "token-null", "unknown-chosen", "changed-int",
            "short-codes", "code-out-of-range", "short-mu", "long-sigma", "long-penalty",
            "penalty-out-of-range", "not-utf8",
        ],
    )
    def test_malformed_line_exits_one(self, inspected_run, tmp_path, capsys, edit):
        # The broken line is the last: every line is checked, selected or not.
        run, lines = inspected_run
        if isinstance(edit, bytes):
            last = edit
        else:
            doc = edit(json.loads(lines[-1]))
            last = (doc if isinstance(doc, str) else json.dumps(doc)).encode("utf-8") + b"\n"
        copy = broken_copy(run, tmp_path, "traces.jsonl", "".join(lines[:-1]).encode("utf-8") + last)
        code, stdout, stderr = run_cli(capsys, "inspect", copy, "--epoch", "3")
        assert (code, stdout) == (1, "")
        assert stderr.startswith("error: ") and f"line {len(lines)}" in stderr, stderr

    def test_bad_epoch_value_exits_one(self, inspected_run, capsys):
        code, _, stderr = run_cli(capsys, "inspect", str(inspected_run[0]), "--epoch", "x")
        assert code == 1 and "usage" in stderr

    def test_reader_leaving_early_exits_zero(self, inspected_run):
        # More output than a pipe buffers, so the write after close fails.
        run, lines = inspected_run
        assert sum(map(len, lines)) * 2 > 1 << 16
        proc = subprocess.Popen(
            [sys.executable, "-m", "prism.cli", "inspect", str(run)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        proc.stdout.readline()
        proc.stdout.close()
        _, stderr = proc.communicate(timeout=60)
        assert (proc.returncode, stderr) == (0, b"")


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
        b"{not json",
        json.dumps({"user_token": "ab" * 32}).encode(),
        b"\xff\xfe",
    ], ids=["not-json", "no-text", "not-utf8"])
    def test_bad_corpus_line_exits_one(self, capsys, tmp_path, line):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_bytes(CORPUS_LINE.encode() + b"\n" + line + b"\n")
        assert_exits_one(capsys, "leak-audit", "--in", str(corpus))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_cohort_value_exits_one(self, capsys, tmp_path, value):
        # Python's json writes and reads NaN and Infinity, which JSON lacks.
        line = json.dumps({"text": "see you", "user_token": "ab" * 32, "cohort": {"x": value}})
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(CORPUS_LINE + "\n" + line + "\n")
        assert_exits_one(capsys, "leak-audit", "--in", str(corpus))

    @pytest.mark.parametrize("value", [2**63, -(2**63) - 1, 2**70], ids=["2**63", "-2**63-1", "2**70"])
    def test_cohort_int_outside_int64_exits_one(self, capsys, tmp_path, value):
        line = json.dumps({"text": "see you", "user_token": "ab" * 32, "cohort": {"x": value}})
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(CORPUS_LINE + "\n" + line + "\n")
        assert_exits_one(capsys, "leak-audit", "--in", str(corpus))

    def test_empty_corpus_exits_one(self, capsys, tmp_path):
        # A run reports an empty corpus's leak rate as 0; the audit of a
        # file still needs a sample.
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_bytes(b"")
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

    def test_non_utf8_drafts_file_exits_one(self, capsys, tmp_path):
        (tmp_path / "drafts.jsonl").write_bytes(b"\xff\xfe\n")
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

    def test_a_failed_write_leaves_the_drafts_file_unchanged(self, keys_env, tmp_path, capsys):
        out, draft_id = self._run_with_pending(capsys, keys_env, tmp_path)
        path = pathlib.Path(out) / "drafts.jsonl"
        path.chmod(0o640)
        before, names = path.read_bytes(), sorted(os.listdir(out))

        def failing(drafts, target):
            def first_then_fail():
                yield drafts[0]
                raise OSError("no space left on device")

            save_drafts(first_then_fail(), target)

        review = ("review", "--run", out, "--draft", draft_id, "--decision", "approve")
        with mock.patch.object(cli, "save_drafts", failing):
            code, _, stderr = run_cli(capsys, *review)
        assert code == 2 and "no space left" in stderr
        assert path.read_bytes() == before
        assert sorted(os.listdir(out)) == names
        # The same review then goes through, and keeps the file's mode.
        assert run_cli(capsys, *review)[0] == 0
        assert path.read_bytes() != before and path.stat().st_mode & 0o777 == 0o640
        assert sorted(os.listdir(out)) == names


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
            isinstance(v, (str, bool))
            or (type(v) is int and -2**63 <= v < 2**63)
            or (type(v) is float and v == v and v not in (math.inf, -math.inf))
            for v in value.values()
        )
    if field == "counts":
        return isinstance(value, dict) and all(type(v) is int for v in value.values())
    return isinstance(value, str)


def _annotation_ok(kind, value):
    """What a field annotated ``kind`` may hold, written out apart from the
    checker the program uses."""
    if kind in ("int", "float") and type(value) is int:
        return -2**63 <= value < 2**63
    if kind == "float":
        return type(value) is float and math.isfinite(value)
    if kind in ("tuple[float, ...]", "list[float]"):
        return isinstance(value, list) and all(_annotation_ok("float", v) for v in value)
    if kind == "LeakReport":  # only the written keys can make a valid report
        return isinstance(value, dict) and set(value) == set(METRICS["leak"])
    if kind == "str":
        return isinstance(value, str)
    if kind == "dict":
        return isinstance(value, dict)
    assert kind == "int", kind
    return False


def _fields_ok(record_class):
    kinds = {f.name: f.type for f in dataclasses.fields(record_class)}
    return lambda field, value: _annotation_ok(kinds[field], value)


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


    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(doc=_spoiled(dict(Scenario().to_dict(), **SCENARIO), _fields_ok(Scenario)))
    def test_scenario_field_types(self, keys_env, capsys, tmp_path, doc):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        assert_exits_one(capsys, "simulate", "--scenario", str(path), "--out", str(tmp_path / "x"))

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(policy=_spoiled(PolicyConfig().to_dict(), _fields_ok(PolicyConfig)))
    def test_config_policy_field_types(self, keys_env, scenario_file, capsys, tmp_path, policy):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"policy": policy}))
        assert_exits_one(
            capsys, "simulate", "--scenario", scenario_file, "--out", str(tmp_path / "x"),
            "--config", str(path),
        )

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(metrics=_spoiled(METRICS, _fields_ok(MetricsReport)))
    def test_metrics_field_types(self, capsys, tmp_path, metrics):
        (tmp_path / "a").mkdir(exist_ok=True)
        (tmp_path / "a" / "metrics.json").write_text(json.dumps(metrics))
        run = str(tmp_path / "a")
        assert_exits_one(capsys, "compare", "--a", run, "--b", run)


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
            ("inspect", out),
        ):
            _, stdout, stderr = run_cli(capsys, *argv)
            blobs.append(stdout + stderr)
        for blob in blobs:
            assert "11" * 32 not in blob
            assert "22" * 32 not in blob
