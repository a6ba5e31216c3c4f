"""The CI workflow parses, runs ROADMAP's tier-1 command word for word, and
then runs the installed `spincat verify` entry point.

The workflow itself needs a network to run, so only its text is checked.
"""
import re
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

ROOT = Path(__file__).resolve().parent.parent


def test_workflow_runs_the_tier_1_command():
    tier_1 = re.search(r"^\*\*Tier-1 verify:\*\* `([^`]+)`$", (ROOT / "ROADMAP.md").read_text(), re.M).group(1)
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tests.yml").read_text())
    (job,) = workflow["jobs"].values()
    assert job["env"]["OPENBLAS_NUM_THREADS"] == "1"
    steps = {step.get("name"): step for step in job["steps"]}
    assert steps["install"]["run"] == "pip install -e .[test]"
    assert steps["tier-1"]["run"] == tier_1
    # Tier-1 calls cli.main in-process; only this step runs the console script.
    names = [step.get("name") for step in job["steps"]]
    assert names.index("verify") > names.index("tier-1")
    assert steps["verify"]["run"].split()[:2] == ["spincat", "verify"]
    assert any(step.get("with", {}).get("python-version") == "3.11" for step in job["steps"])
