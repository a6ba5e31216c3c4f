"""The CI workflow parses, runs ROADMAP's tier-1 command word for word, then
every benchmark workload under its tracer and the installed `spincat
verify` entry point; the pytest configuration lets a failing property
test be reported without ending the session; no package or test
module keeps an import it does not read; no test module defines a
top-level name twice; the package reads every module-level private name
it defines; `spincat` exports no name of the
dense reference, which the tests import from `_oracles` alone; the routes
and checks only `verify` runs are defined there and no pipeline module
imports it; the README's Layout block names exactly the package modules; and
every `spincat` command in the README parses.

The workflow itself needs a network to run, so only its text is checked.
"""
import ast
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import spincat
from _oracles import DENSE_REFERENCE
from spincat import cli

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
    for step, workload in [
        ("perfbench", "verify-suite"),
        ("perfbench noon-large", "noon-large"),
        ("perfbench cli-export", "cli-export"),
    ]:
        assert names.index(step) > names.index("tier-1")
        assert steps[step]["run"] == f"python3 perfbench/run.py --workload {workload} --seed 7 --seconds 2 --trace 1"
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


def test_every_package_module_reads_what_it_imports():
    # A deletion must not leave a dead import behind, in the package or its
    # tests; __init__ re-exports.  perfbench is left to the benchmark.
    for path in sorted([*(ROOT / "src" / "spincat").glob("*.py"), *(ROOT / "tests").glob("*.py")]):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        bound = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound.update(alias.asname or alias.name for alias in node.names)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        assert bound <= read, (path.name, sorted(bound - read))


def test_no_test_module_defines_a_top_level_name_twice():
    # A second `def test_x` silently replaces the first, which pytest then
    # never runs; moving tests between modules is when that happens.
    for path in sorted((ROOT / "tests").glob("*.py")):
        names = []
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.append(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names += [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
        assert len(names) == len(set(names)), (path.name, sorted({name for name in names if names.count(name) > 1}))


def test_every_private_package_name_is_read():
    # A module-level _name that nothing in the package reads is dead code left
    # behind by a deletion.  perfbench is left to the benchmark.
    defined, read = set(), set()
    for path in sorted((ROOT / "src" / "spincat").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    assert private, "no private name found: the walk above is broken"
    assert private <= read, sorted(private - read)


DENSE_NAMES = {"SpinOperator", "jz", "jplus", "jminus", "jx", "jy", "casimir", "expm_hermitian", "kerr_hamiltonian", "NonHermitianInput"}


def test_the_dense_reference_reaches_the_tests_through_oracles_alone():
    # The package exports the pipeline.  The dense reference stays defined in
    # the modules the benchmark reads, and one test module re-exports it, so
    # moving the definitions into the tests edits no other test file.
    assert not DENSE_NAMES & set(dir(spincat))
    assert {obj.__name__ for obj in DENSE_REFERENCE} == DENSE_NAMES
    importers = set()
    for path in sorted((ROOT / "tests").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("spincat"):
                if DENSE_NAMES & {alias.name for alias in node.names}:
                    importers.add(path.name)
    assert importers == {"_oracles.py"}


VERIFY_ONLY = {"_ladder_squares", "_rotated_lowest", "_rotated_identity_routes", "_sector_bands", "verify_schwinger_realization"}
PIPELINE = {"su2", "coherent", "dynamics", "schwinger", "metrology"}


def _imported_modules(tree):
    """The dotted name of every module an import names; `from . import x` gives x."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""
            yield from (f"{node.module}.{alias.name}" if node.module else alias.name for alias in node.names)


def test_verify_owns_the_routes_and_checks_only_it_runs():
    # The pipeline modules hold the pipeline.  A second route or a check that
    # only `spincat verify` runs lives in verify, which reads the pipeline;
    # the pipeline never reads verify.
    owners, appliers = {name: set() for name in VERIFY_ONLY}, set()
    for path in sorted((ROOT / "src" / "spincat").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in VERIFY_ONLY:
                owners[node.name].add(path.stem)
        for node in ast.walk(tree):
            # A load or store, an attribute, a definition or an imported alias.
            name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else getattr(node, "name", None)
            if name == "_apply_function":
                appliers.add(path.stem)
        if path.stem in PIPELINE:
            assert not any("verify" in module.split(".") for module in _imported_modules(tree)), path.name
    assert owners == {name: {"verify"} for name in VERIFY_ONLY}
    assert appliers == {"su2", "verify"}


def test_readme_layout_names_every_package_module():
    readme = (ROOT / "README.md").read_text()
    layout = re.search(r"^## Layout\n\n```\n(.*?)^```", readme, re.M | re.S).group(1)
    listed = set(re.findall(r"^  (\w+\.py) ", layout, re.M))
    modules = {path.name for path in (ROOT / "src" / "spincat").glob("*.py")} - {"__init__.py"}
    assert listed == modules, (sorted(modules - listed), sorted(listed - modules))


def test_readme_commands_parse():
    # An option renamed or dropped in the CLI must not live on in the README's examples.
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```\n(.*?)^```", readme, re.M | re.S)
    lines = [line for block in blocks for line in block.splitlines() if line.startswith("spincat ")]
    assert lines, "no spincat command found: the walk above is broken"
    parser = cli.build_parser()
    for line in lines:
        _, *argv = shlex.split(line, comments=True)
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")
