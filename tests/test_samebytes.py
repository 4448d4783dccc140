"""``tools/samebytes.py`` finds no difference between a checkout and itself,
and tells a changed score from a changed decision."""

import importlib.util
import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "samebytes.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("samebytes", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_checkout_against_itself_is_the_same():
    # Both arms of effect seed 1, one process per side.
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT), str(ROOT), "--limit", "2"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.splitlines()[-1]
    assert last.startswith("samebytes: 2 runs, ") and ", 0 differ; " in last
    assert "chosen groups same in 2/2 runs; metrics.json same in 2/2 runs" in last


def test_the_run_set_is_the_84_runs():
    names = [name for name, _ in load_tool().run_set()]
    assert len(names) == len(set(names)) == 84
    assert names[:2] == ["effect-1-static", "effect-1-adaptive"]


def test_report_separates_terms_from_choices(tmp_path):
    tool = load_tool()

    def write(side, run, chosen, sigma):
        path = tmp_path / side / run
        path.mkdir(parents=True)
        line = {"epoch": 4, "user_token": "u0", "chosen": chosen, "sigma": sigma}
        (path / "traces.jsonl").write_text(json.dumps(line) + "\n")
        (path / "metrics.json").write_text("{}\n")

    write("a", "r0", "g000", "AAA=")
    write("b", "r0", "g000", "AAB=")  # a score moved, the decision did not
    write("a", "r1", "g000", "AAA=")
    write("b", "r1", "g001", "AAA=")  # the decision moved
    lines, same = tool.compare(tmp_path / "a", tmp_path / "b", ["r0", "r1"])
    assert not same
    assert "traces.jsonl: 2/2 runs differ" in lines and "metrics.json: 0/2 runs differ" in lines
    assert "chosen group differs: r1" in lines and "chosen group differs: r0" not in lines
    assert lines[-1].endswith("chosen groups same in 1/2 runs; metrics.json same in 2/2 runs")
