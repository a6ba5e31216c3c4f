"""spincat benchmark: closed-loop workloads, one client in one process.

Run from the root of a spincat checkout:

    python3 perfbench/run.py --workload noon-large --seed 1 --seconds 20 --trace 0

--trace 0 times the workload and prints the end-to-end metrics.  --trace 1
runs whole cycles untraced for --seconds, then as many cycles again under
the span tracer, runs the defect probes, prints the per-layer metrics and
writes every span to .bench_out/trace-<workload>.npz.  Every op's output is
checked against its gates after the op, outside its timing.  The
next-to-last stdout line is the environment block; the last is one JSON
object with the keys correct, attempted, failed and metrics.

Op and set-up times are the process's CPU time, not wall time, and a run
lasts until its ops have taken --seconds of CPU time.  On a shared
virtual machine wall time also counts the time the vCPU is taken by other
guests, and that share swung from 2% to 25% within an hour on the 2-vCPU
Xeon VM this benchmark was tuned on.  BLAS runs on one thread, so the CPU
time of an op is its latency on an otherwise idle machine; the traced run
reports CPU / wall as bench.cpu_wall_ratio.  Set-up time is the CPU time of
a fresh process from its start to the end of the warm-up, so the
interpreter's start and every import count.
"""
import os

# Pin BLAS to one thread before anything imports numpy.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, process_time  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# Named here rather than read from workloads.py: importing that imports
# spincat, which set-up has to time.
WORKLOADS = ("noon-large", "verify-suite", "cli-export")

# setup_s is the median of the run's own set-up and this many fresh processes.
FRESH_SETUPS = 6

ACCURACY = (
    "schwinger.noon_deficit_max",
    "schwinger.noon_deficit_per_n_max",
    "schwinger.off_support_max",
    "metrology.qfi_rel_err_max",
    "dynamics.cat_fidelity_deficit_max",
)

# Per-layer metric: (span name, field, unit).
SPAN_METRICS = {
    "su2.expm_hermitian.calls": ("su2.expm_hermitian", "calls", "count"),
    "su2.expm_hermitian.self_s": ("su2.expm_hermitian", "self_s", "s"),
    "dynamics.kerr_hamiltonian.self_s": ("dynamics.kerr_hamiltonian", "self_s", "s"),
    "su2.SpinState.init.calls": ("su2.SpinState.init", "calls", "count"),
    "schwinger.TwoModeState.init.calls": ("schwinger.TwoModeState.init", "calls", "count"),
    "metrology.noon_signal.calls": ("metrology.noon_signal", "calls", "count"),
    "metrology.noon_signal.self_s": ("metrology.noon_signal", "self_s", "s"),
    "cli.cmd_husimi.self_s": ("cli.cmd_husimi", "self_s", "s"),
    "statefile.save.self_s": ("statefile.save_state", "self_s", "s"),
    "statefile.load.self_s": ("statefile.load_state", "self_s", "s"),
}
BYTE_COUNTERS = ("statefile.bytes_written", "statefile.bytes_read", "cli.csv_bytes_written")


def require_src():
    if not (SRC / "spincat" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no {SRC / 'spincat'}; run from the root of a spincat checkout")


def load_spincat():
    """Import spincat from this checkout's src/, never from an installed copy."""
    require_src()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import spincat

    if Path(spincat.__file__).resolve().parent != (SRC / "spincat").resolve():
        raise SystemExit(f"perfbench: imported spincat from {spincat.__file__}, not from {SRC}")


def setup(name: str, seed: int, workdir: Path):
    """Import spincat, start the inputs and warm up: (workload, cycles, set-up CPU seconds).

    The seconds are the process's CPU time so far (CLOCK_PROCESS_CPUTIME_ID
    counts from the start of the process), in a process that has done
    nothing before this but parse its arguments.
    """
    load_spincat()  # the first import of spincat, and of numpy with it
    import workloads

    workload = workloads.make(name, workdir)
    cycles = workload.cycles(seed)
    workload.warmup()
    return workload, cycles, process_time()


def setup_in_fresh_process(name: str, seed: int) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed), "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
    return float(done.stdout.strip().splitlines()[-1])


@dataclass
class Outcome:
    """One closed-loop pass: per-op CPU seconds, failures and gate values.

    cpu and wall span the whole pass, checks included; the op rate counts
    only the ops' own time.
    """

    latencies: list = field(default_factory=list)
    failed: int = 0
    accuracy: dict = field(default_factory=dict)
    cycles: int = 0
    cpu: float = 0.0
    wall: float = 0.0

    @property
    def ops_per_cpu_s(self) -> float:
        return (len(self.latencies) - self.failed) / math.fsum(self.latencies)


def run_cycles(workload, cycles, seconds: float = math.inf, span=lambda op_id: contextlib.nullcontext()) -> Outcome:
    """Closed loop, one client: whole cycles until the ops have taken `seconds` of CPU time.

    Only the ops' own time counts, not their checks, so a run holds the same
    work however long the checks take.  Time is checked only between cycles,
    and before the next cycle is taken from `cycles`, so every run measures
    whole, equally mixed cycles and a shared iterator loses none.  Each op
    is timed, then checked untimed; it fails if it raises or misses a gate.
    """
    out = Outcome()
    cycles = iter(cycles)
    t0, cpu0 = perf_counter(), process_time()
    while math.fsum(out.latencies) < seconds:
        cycle = next(cycles, None)
        if cycle is None:
            break
        for op in cycle:
            start = process_time()
            try:
                try:
                    with span(len(out.latencies)):
                        output = workload.run(op)
                finally:
                    out.latencies.append(process_time() - start)
                accuracy = workload.check(op, output)
            except Exception:  # a failed op is counted and reported; the run goes on
                out.failed += 1
                print(f"perfbench: {workload.name} op {op!r} failed:", file=sys.stderr)
                traceback.print_exc()
            else:
                for key, value in accuracy.items():
                    out.accuracy[key] = max(out.accuracy.get(key, value), value)
        out.cycles += 1
    out.cpu, out.wall = process_time() - cpu0, perf_counter() - t0
    return out


def timed(args, workdir: Path):
    workload, cycles, own_setup = setup(args.workload, args.seed, workdir)
    setups = [own_setup] + [setup_in_fresh_process(args.workload, args.seed) for _ in range(FRESH_SETUPS)]
    run = run_cycles(workload, cycles, args.seconds)
    metrics = {
        "ops_per_cpu_s": (run.ops_per_cpu_s, "1/s"),
        "op_p50_cpu_ms": (statistics.median(run.latencies) * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    return len(run.latencies), run.failed, metrics


def _p90(values):
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def traced(args, workdir: Path):
    workload, cycles, _ = setup(args.workload, args.seed, workdir)
    import probes  # needs spincat on the path, which set-up puts there
    from tracer import LAYERS, OP_SPAN, Tracer

    plain = run_cycles(workload, cycles, args.seconds)
    tracer = Tracer()
    with tracer:
        spans = run_cycles(workload, itertools.islice(cycles, plain.cycles), span=tracer.op_span)

    stats = tracer.per_name()
    op_time = stats[OP_SPAN]["total_s"]
    metrics = {}
    for layer in LAYERS:
        rows = [v for name, v in stats.items() if name.split(".")[0] == layer]
        self_s = sum(r["self_s"] for r in rows)
        metrics[f"{layer}.calls"] = (sum(r["calls"] for r in rows), "count")
        metrics[f"{layer}.self_s"] = (self_s, "s")
        metrics[f"{layer}.self_share"] = (self_s / op_time, "ratio")
    for metric, (span_name, key, unit) in SPAN_METRICS.items():
        metrics[metric] = (stats[span_name][key], unit)
    metrics["su2.expm_hermitian.max_dim"] = (tracer.max_dim, "dim")
    for counter in BYTE_COUNTERS:
        metrics[counter] = (tracer.counters[counter], "B")
    builds = tracer.generator_builds
    metrics["workload.distinct_j"] = (len({twice_j for _, twice_j in builds}), "count")
    metrics["workload.repeat_j_share"] = (1.0 - len(set(builds)) / len(builds) if builds else 0.0, "ratio")
    accuracy = {k: max(plain.accuracy.get(k, 0.0), spans.accuracy.get(k, 0.0)) for k in ACCURACY}
    for key in ACCURACY:
        metrics[key] = (accuracy[key], "1")
    metrics["trace.overhead_ratio"] = (spans.ops_per_cpu_s / plain.ops_per_cpu_s, "ratio")
    metrics["bench.self_share"] = (stats[OP_SPAN]["self_s"] / op_time, "ratio")
    p90 = _p90(plain.latencies)
    metrics["bench.op_p90_cpu_ms"] = (p90 * 1e3, "ms")
    metrics["bench.op_p90_tail_n"] = (sum(t > p90 for t in plain.latencies), "count")
    metrics["bench.cpu_wall_ratio"] = (plain.cpu / plain.wall, "ratio")
    attempted = len(plain.latencies) + len(spans.latencies)
    failed = plain.failed + spans.failed
    metrics["bench.error_ratio"] = (failed / attempted, "ratio")
    metrics["coherent.overflow_twice_j"] = (probes.overflow_twice_j(), "2j")
    metrics["cli.uncaught_errors"] = (probes.cli_uncaught_errors(workdir), "count")

    tracer.save(
        OUT / f"trace-{args.workload}.npz",
        {"workload": args.workload, "seed": args.seed, "env": environment(), "span_stats": stats},
    )
    return attempted, failed, metrics


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30, check=True
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "spincat").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _blas_config(numpy) -> dict:
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
    except TypeError:  # numpy < 1.26 only prints its configuration
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            numpy.show_config()
        return {"text": text.getvalue()}
    return {
        part: {k: deps.get(part, {}).get(k) for k in ("name", "version", "openblas configuration")}
        for part in ("blas", "lapack")
    }


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": _blas_config(numpy),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "src_sha256": _src_sha256(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="set up once and print the seconds it took")
    args = parser.parse_args(argv)
    require_src()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        if args.setup_only:
            print(repr(setup(args.workload, args.seed, workdir)[2]))
            return 0
        attempted, failed, metrics = (traced if args.trace else timed)(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"env": environment()}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
