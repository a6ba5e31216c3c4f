"""Tests of the benchmark itself: inputs, tracer bindings, tiny workloads.

Run from the repository root with `python -m pytest perfbench`.
"""
import importlib
import inspect
import itertools

import pytest

import run

run.load_spincat()

import probes  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def tiny(name, workdir):
    """The named workload at desk size, a few ops per cycle."""
    if name == "noon-large":
        return workloads.NoonLarge(lo=4, hi=24, width=4)
    if name == "verify-suite":
        return workloads.VerifySuite(max_twice_j=4)
    return workloads.CliExport(workdir, lo=2, hi=14, width=4, grids=((5, 8), (9, 16)))


def first(cycles, k=3):
    return list(itertools.islice(cycles, k))


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_seed_fixes_the_inputs(name, tmp_path):
    workload = workloads.make(name, tmp_path)
    assert first(workload.cycles(7)) == first(workload.cycles(7))
    assert first(workload.cycles(7)) != first(workload.cycles(8))


def test_noon_large_never_repeats_n():
    ns = [n for cycle in workloads.NoonLarge().cycles(3) for n, _ in cycle]
    assert len(ns) == len(set(ns)) == 400
    assert all(n % 2 == 0 and 200 <= n <= 1000 for n in ns)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tiny_workload_has_no_failed_ops(name, tmp_path):
    workload = tiny(name, tmp_path)
    workload.warmup()
    out = run.run_cycles(workload, first(workload.cycles(5), 2))
    assert len(out.latencies) >= 2
    assert out.failed == 0


def test_shared_cycles_resume_where_the_last_pass_stopped():
    workload = workloads.VerifySuite(max_twice_j=4)
    cycles = workload.cycles(5)
    expected = first(workload.cycles(5), 2)
    assert run.run_cycles(workload, cycles, seconds=0.0).cycles == 0
    assert next(cycles) == expected[0]
    assert first(cycles, 1) == expected[1:]


def test_cli_export_check_reads_the_files(tmp_path):
    workload = tiny("cli-export", tmp_path)
    op = next(workload.cycles(5))[0]
    output = workload.run(op)
    workload.check(op, output)
    csv = tmp_path / "h.csv"
    csv.write_text("".join(csv.read_text().splitlines(keepends=True)[:-1]))
    with pytest.raises(workloads.GateError, match="rows"):
        workload.check(op, output)


def _bindings():
    """Every function bound in a spincat module, and every traced method."""
    modules = [importlib.import_module("spincat")]
    modules += [importlib.import_module(f"spincat.{layer}") for layer in tracer.LAYERS]
    found = {(m.__name__, attr): obj for m in modules for attr, obj in vars(m).items() if inspect.isfunction(obj)}
    for layer, cls, attr, _ in tracer.METHODS:
        owner = getattr(importlib.import_module(f"spincat.{layer}"), cls)
        found[(owner.__qualname__, attr)] = owner.__dict__[attr]
    return found


def test_tracer_restores_every_binding(tmp_path):
    before = _bindings()
    workload = tiny("cli-export", tmp_path)
    spans = tracer.Tracer()
    with spans:
        assert workloads.schwinger.make_noon is not before[("spincat.schwinger", "make_noon")]
        run.run_cycles(workload, first(workload.cycles(1), 1), span=spans.op_span)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)

    stats = spans.per_name()
    assert stats["cli.main"]["calls"] == 4 * len(next(workload.cycles(1)))
    # Self times partition the ops' time: none lost, none counted twice.
    assert sum(s["self_s"] for s in stats.values()) == pytest.approx(stats[tracer.OP_SPAN]["total_s"])


def test_probes_count_what_they_find(tmp_path):
    assert probes.overflow_twice_j(limit=64) == 65  # no failure at desk size
    assert 0 <= probes.cli_uncaught_errors(tmp_path) <= len(probes.BAD_ARGV)


def test_noon_large_check_recomputes_from_the_amplitudes():
    workload = workloads.NoonLarge()
    op = (8, "i")
    state, fid, off, qfi = workload.run(op)
    workload.check(op, (state, fid, off, qfi))
    with pytest.raises(workloads.GateError, match="amplitudes give"):
        workload.check(op, (state, fid, off, qfi * (1.0 + 1e-9)))
