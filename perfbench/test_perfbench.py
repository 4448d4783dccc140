"""Self-tests of the benchmark: its output checks reject bad run
directories, and a tiny run prints every metric BENCHMARK.json names.

Run with: python3 -m pytest perfbench
"""

import json
import shutil
import sys
import time

import pytest

import run

sys.path.insert(0, str(run.SRC))

import harness  # noqa: E402
from checks import check_run_dir  # noqa: E402

TINY = harness.Workload(
    scenario=dict(
        name="bench-tiny", n_users=60, n_groups=4, n_coaches=2, horizon_weeks=9,
        w_pre=4, w_post=5, match_uplift=1.0,
    ),
    arms=("static", "adaptive"),
    compare=True,
)


@pytest.fixture(scope="module")
def adaptive_run_dir(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("tiny")
    harness.write_inputs(TINY, workdir)
    run_dir = workdir / "run"
    code, *_ = harness._call_cli(
        ["simulate", "--scenario", str(workdir / "scenario.json"), "--policy", "adaptive",
         "--keys", str(workdir / "keys.json"), "--out", str(run_dir)],
        None, "tiny",
    )
    assert code == 0
    return run_dir


def _rewrite(path, edit):
    path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")


def test_clean_run_dir_passes(adaptive_run_dir):
    assert check_run_dir(adaptive_run_dir, 0, TINY.expected_decisions("adaptive")) == []


def test_tampered_audit_line_fails(adaptive_run_dir, tmp_path):
    copy = tmp_path / "run"
    shutil.copytree(adaptive_run_dir, copy)
    lines = (copy / "audit.jsonl").read_text(encoding="utf-8").splitlines()
    entry = json.loads(lines[1])
    entry["purpose"] = entry["purpose"] + "!"
    lines[1] = json.dumps(entry, sort_keys=True)
    (copy / "audit.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    problems = check_run_dir(copy, 0, TINY.expected_decisions("adaptive"))
    assert any("chain breaks at entry 1" in p for p in problems)


def test_reported_violation_fails(adaptive_run_dir, tmp_path):
    copy = tmp_path / "run"
    shutil.copytree(adaptive_run_dir, copy)
    _rewrite(copy / "metrics.json", lambda text: text.replace('"violations": 0', '"violations": 1'))
    assert check_run_dir(copy, 0, TINY.expected_decisions("adaptive")) == ["violations = 1"]


def test_nonzero_exit_fails(adaptive_run_dir):
    assert check_run_dir(adaptive_run_dir, 3, TINY.expected_decisions("adaptive")) == ["exit code 3"]


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_prints_every_named_metric(trace, section, monkeypatch, tmp_path, capsys):
    monkeypatch.setitem(harness.WORKLOADS, "tiny", TINY)
    monkeypatch.setattr(run, "OUT", tmp_path)
    argv = ["--workload", "tiny", "--seed", "1", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == 3 * (1 + trace)  # two arms and a compare per unit
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec[section]
    }
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_span_accounting_rejects_a_child_outside_its_run():
    from tracing import Tracer

    tracer = Tracer()
    tracer.spans = [
        ("simulator.run_experiment", 0.0, 1.0, -1, "a"),
        ("simulator.step_week", 0.1, 0.4, 0, "a"),
        ("simulator.step_messages", 0.5, 0.9, 0, "a"),
    ]
    assert tracer.accounting_errors() == []
    tracer.spans[2] = ("simulator.step_messages", 0.3, 1.2, 0, "a")
    assert len(tracer.accounting_errors()) == 1


def test_sampler_normalises_and_restores_the_alarm_handler():
    import signal

    import hostspeed

    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.Sampler() as sampler:
        deadline = time.perf_counter() + 4 * hostspeed.PERIOD_S
        while time.perf_counter() < deadline:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert sampler.samples >= 2  # one on entry, then the timer's
    wall = 10.0
    expected = (wall - sampler.busy_s) * hostspeed.REF_KERNEL_S * sampler.samples / sampler.busy_s
    assert sampler.normalise(wall) == pytest.approx(expected)
