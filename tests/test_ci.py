"""The CI workflow parses, runs ROADMAP's tier-1 command word for word, then
the verify-suite benchmark under its tracer and the installed `spincat
verify` entry point; and the pytest configuration lets a failing property
test be reported without ending the session.

The workflow itself needs a network to run, so only its text is checked.
"""
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_workflow_runs_the_tier_1_command():
    yaml = pytest.importorskip("yaml")
    tier_1 = re.search(r"^\*\*Tier-1 verify:\*\* `([^`]+)`$", (ROOT / "ROADMAP.md").read_text(), re.M).group(1)
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tests.yml").read_text())
    (job,) = workflow["jobs"].values()
    assert job["env"]["OPENBLAS_NUM_THREADS"] == "1"
    steps = {step.get("name"): step for step in job["steps"]}
    assert steps["install"]["run"] == "pip install -e .[test]"
    assert steps["tier-1"]["run"] == tier_1
    names = [step.get("name") for step in job["steps"]]
    # The tracer rebinds the package's functions by name; only a real run shows it still can.
    assert names.index("perfbench") > names.index("tier-1")
    assert steps["perfbench"]["run"] == "python3 perfbench/run.py --workload verify-suite --seed 7 --seconds 2 --trace 1"
    # Tier-1 calls cli.main in-process; only this step runs the console script.
    assert names.index("verify") > names.index("tier-1")
    assert steps["verify"]["run"].split()[:2] == ["spincat", "verify"]
    assert any(step.get("with", {}).get("python-version") == "3.11" for step in job["steps"])


FAILING_THEN_PASSING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x != 0


def test_passes():
    pass
'''


def test_a_failing_property_test_does_not_end_the_session(tmp_path):
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    (tmp_path / "test_two.py").write_text(FAILING_THEN_PASSING)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_two.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
