"""The benchmark's per-layer tracer still finds the names it wraps.

``perfbench/tracing.py`` replaces public names of the ``prism`` layers
and reads the results of some of them. A renamed function or a changed
result shape would only show under ``perfbench/run.py --trace 1``; these
tests make it show in the unit suite too.
"""

import importlib.util
import pathlib
from collections import Counter

from conftest import make_roster, tables_for

import prism.assignment
import prism.cli
import prism.simulator.experiment
from prism.assignment import (
    FEATURE_DIM,
    GOAL_CATEGORIES,
    BanditModel,
    PolicyConfig,
    feasibility_report,
)
from prism.simulator import Scenario

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


FITNESS = GOAL_CATEGORIES.index("fitness")


def small_roster():
    """One unplaced user, row 0, and two of three groups matching their goal."""
    groups = [
        ("g000", "c00", 3, "fitness"), ("g001", "c00", 3, "maintenance"), ("g002", "c00", 3, "fitness"),
    ]
    return make_roster(groups, {"c00": 9}, ["aa" * 32])


def test_tracer_installs_every_name_and_restores_it():
    tracing = load_tracing()
    targets = [(tracing._resolve(owner), attr) for specs in (tracing.SPANS, tracing.COUNTED)
               for _, owner, attr in specs]
    before = [getattr(target, attr) for target, attr in targets]
    with tracing.Tracer().installed():  # raises AttributeError on a missing name
        assert all(getattr(t, a) is not b for (t, a), b in zip(targets, before))
    assert all(getattr(t, a) is b for (t, a), b in zip(targets, before))


def test_feasibility_observer_reads_a_real_report():
    tracing = load_tracing()
    roster = small_roster()
    counts = Counter()
    report = feasibility_report(0, FITNESS, roster, 8, PolicyConfig())
    tracing._observe_feasibility(counts, (), report)
    assert counts == Counter(groups_checked=3, groups_feasible=2, dwell_locked=0)

    roster.move(0, 0, 7, dwell=0)
    report = feasibility_report(0, FITNESS, roster, 8, PolicyConfig(dwell=4))
    tracing._observe_feasibility(counts, (), report)
    assert counts == Counter(groups_checked=6, groups_feasible=3, dwell_locked=1)


def test_one_traced_decision_reaches_every_assignment_span():
    tracing = load_tracing()
    roster = small_roster()
    tables = tables_for(roster, "fitness")
    tracer = tracing.Tracer()
    with tracer.installed():
        tracer.arm = "adaptive"
        decision = prism.simulator.experiment.assign(
            0, roster, BanditModel(dim=FEATURE_DIM), 8, PolicyConfig(), tables=tables
        )
        tracer.arm = None
    assert prism.assignment.assign is prism.simulator.experiment.assign
    names = Counter(span[0] for span in tracer.spans)
    assert names == Counter({
        "assignment.assign": 1,
        "assignment.feasibility_report": 1,
        "assignment.score_and_select": 1,
        "assignment.joint_features": 1,
    })
    assert tracer.counts["groups_checked"] == 3
    assert tracer.counts["groups_feasible"] == 2
    assert tracer.counts["moves"] == int(decision.changed) == 1


def test_one_traced_adaptive_run_reaches_every_assistant_and_redaction_span(keys, tmp_path):
    # A refactor that stopped calling a wrapped name would zero its layer's
    # metrics without failing the benchmark.
    tracing = load_tracing()
    scenario = Scenario(
        seed=3, n_users=50, n_groups=6, n_coaches=2, capacity_min=10, capacity_max=14,
        horizon_weeks=10, w_pre=4, w_post=5, review_approve_prob=0.5, review_edit_prob=0.3,
    )
    tracer = tracing.Tracer()
    with tracer.installed():
        tracer.arm = "adaptive"
        report = prism.cli.run_experiment(scenario, keys, out_dir=str(tmp_path))
        tracer.arm = None
    assert report.assistant["edited"] > 0
    n_lines = lambda name: len((tmp_path / name).read_text(encoding="utf-8").splitlines())
    drafts, messages = n_lines("drafts.jsonl"), n_lines("deid_messages.jsonl")
    names = Counter(span[0] for span in tracer.spans)
    assert names["assistant.flag_risks"] == names["assistant.generate_draft"] == drafts
    assert names["assistant.review"] > 0
    assert names["redaction.redact"] == drafts + messages
    assert names["redaction.leak_audit"] >= 1
    assert tracer.counts["flagged"] == names["assistant.flag_risks"]
    assert names["simulator.run_experiment"] == 1 and tracer.accounting_errors() == []
