"""The three spincat benchmark workloads: input generation, one op, its gates.

A workload turns a seed into an iterator of cycles, each a list of op
inputs, made lazily so that no run pays for cycles it never reaches.  Every
cycle holds the same mix of sizes, so a run that stops at a cycle boundary
measures the same mix whatever the seed.  `run(op)` is the timed op and
returns its raw output; `check(op, output)` is untimed, recomputes what it
can without spincat, raises GateError on a miss and returns the accuracy
values.  Ops reach spincat through module attributes (``schwinger.make_noon``,
not a name imported from it) so that the tracer's rebinding sees every call.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from pathlib import Path

import numpy as np

from spincat import cli, metrology, schwinger, verify


class GateError(Exception):
    """An op finished, but its output missed a correctness gate."""


def _gate(ok: bool, what: str):
    if not ok:
        raise GateError(what)


def stratified_evens(rng: random.Random, lo: int, hi: int, width: int, n_cycles: int) -> list[list[int]]:
    """`n_cycles` lists of even values, one per `width`-wide stratum of [lo, hi).

    In cycle c, stratum s of the lower half takes offset (a*s + c) mod
    (width/2), with a coprime to width/2 and drawn from `rng`, and its
    mirror stratum S-1-s the complementary offset, so each mirrored pair
    sums to the same value.  Thus no value repeats within width/2 cycles,
    each cycle holds nearly the same work, the middle of the sorted sizes
    (where the median op sits) is the same for every seed, and the first
    cycle always holds the largest size (so peak memory is too).
    """
    per = width // 2
    a = rng.choice([k for k in range(1, per + 1) if math.gcd(k, per) == 1])
    strata = range(lo, hi, width)
    last = len(strata) - 1

    def offset(s: int, c: int) -> int:
        if s > last - s:
            return per - 1 - offset(last - s, c)
        return (a * s + c) % per

    return [[s_lo + 2 * offset(s, c) for s, s_lo in enumerate(strata)] for c in range(n_cycles)]


def _gamma_text(rng: random.Random) -> str:
    """A finite nonzero stereographic label, |gamma| in [0.3, 2], as CLI text."""
    mag, phase = rng.uniform(0.3, 2.0), rng.uniform(0.0, 2.0 * math.pi)
    return f"{mag * math.cos(phase):.6f}{mag * math.sin(phase):+.6f}i"


class NoonLarge:
    """make_noon at large N, then fidelity, off-support mass and QFI.

    Kernel-bound, and no N repeats within a run, so per-j caches get no hits.
    """

    name = "noon-large"

    def __init__(self, lo: int = 200, hi: int = 1000, width: int = 40):
        self.lo, self.hi, self.width = lo, hi, width

    def cycles(self, seed: int):
        """At most width/2 cycles: after that an N would repeat."""
        rng = random.Random(seed)
        for ns in stratified_evens(rng, self.lo, self.hi, self.width, self.width // 2):
            rng.shuffle(ns)
            yield [(n, "i" if k % 2 == 0 else "1") for k, n in enumerate(ns)]

    def warmup(self):
        # N below the drawn range, so nothing the timed ops use is pre-filled.
        for op in ((20, "i"), (22, "1")):
            self.check(op, self.run(op))

    def run(self, op: tuple[int, str]):
        n, choice = op
        state = schwinger.make_noon(n, gamma_choice=choice)
        fid, _ = schwinger.noon_fidelity(state)
        off = schwinger.off_support_mass(state)
        qfi = metrology.quantum_fisher_information(state)
        return state, fid, off, qfi

    def check(self, op: tuple[int, str], output) -> dict[str, float]:
        n, choice = op
        state, fid, off, qfi = output
        qfi_err = abs(qfi - n * n) / (n * n)
        # The bounds `spincat verify` holds the N00N pipeline to at N <= 60.
        _gate(fid >= 1.0 - 1e-10, f"N={n} {choice}: noon fidelity {fid!r} < 1-1e-10")
        _gate(qfi_err <= 1e-8, f"N={n} {choice}: |QFI-N^2|/N^2 = {qfi_err!r} > 1e-8")
        _gate(off <= 1e-20, f"N={n} {choice}: off-support mass {off!r} > 1e-20")
        # The same quantities from the amplitudes, so that a changed fidelity,
        # mass or QFI function (or an unnormalised state) cannot pass alone.
        amps = np.asarray(state.amplitudes)
        _gate(state.n_total == n and amps.shape == (n + 1,), f"N={n} {choice}: state of N={state.n_total}")
        probs = np.abs(amps) ** 2
        norm = math.sqrt(float(probs.sum()))
        _gate(abs(norm - 1.0) <= 1e-10, f"N={n} {choice}: state norm {norm!r}")
        fid_np = (abs(amps[0]) + abs(amps[-1])) / math.sqrt(2.0)
        off_np = float(probs[1:-1].sum())
        n_a = np.arange(n + 1, dtype=float)
        qfi_np = 4.0 * (float(probs @ n_a**2) - float(probs @ n_a) ** 2)
        _gate(abs(fid - fid_np) <= 1e-12, f"N={n} {choice}: fidelity {fid!r}, amplitudes give {fid_np!r}")
        _gate(abs(off - off_np) <= 1e-22, f"N={n} {choice}: off-support {off!r}, amplitudes give {off_np!r}")
        _gate(abs(qfi - qfi_np) <= 1e-10 * n * n, f"N={n} {choice}: QFI {qfi!r}, amplitudes give {qfi_np!r}")
        return {
            "schwinger.noon_deficit_max": 1.0 - fid,
            "schwinger.noon_deficit_per_n_max": (1.0 - fid) / n,
            "schwinger.off_support_max": off,
            "metrology.qfi_rel_err_max": qfi_err,
        }


class VerifySuite:
    """verify.run_suite, the `spincat verify` command, with a seed per op.

    Small d <= max_twice_j + 1, and the same j recurs across the sections.
    """

    name = "verify-suite"

    def __init__(self, max_twice_j: int = 60):
        self.max_twice_j = max_twice_j

    def cycles(self, seed: int):
        rng = random.Random(seed)
        while True:
            yield [rng.getrandbits(32)]

    def warmup(self):
        verify.run_suite(max_twice_j=4, seed=0)

    def run(self, op: int):
        results = verify.run_suite(max_twice_j=self.max_twice_j, seed=op)
        return results, verify.all_passed(results)

    def check(self, op: int, output) -> dict[str, float]:
        results, verdict = output
        failures = [f"{r.section}: {r.name} {r.detail}" for r in results if not r.passed]
        # The suite's own verdict, and each of its checks, since the verdict
        # alone could hide a failed check.
        _gate(verdict and results and not failures, f"verify seed={op}: all_passed={verdict}, {failures}")
        return {}


class CliExport:
    """In-process `cat`, `husimi`, `noon`, `metrology` CLI calls writing files.

    Each cycle holds one op per size stratum of T and N, and the grids
    {small, small, large} twice, so the median op has a small grid and the
    tail a large one.
    """

    name = "cli-export"

    def __init__(
        self,
        workdir: Path,
        lo: int = 20,
        hi: int = 200,
        width: int = 30,
        grids: tuple[tuple[int, int], ...] = ((61, 120), (61, 120), (181, 360)),
    ):
        self.workdir = Path(workdir)
        self.lo, self.hi, self.width, self.grids = lo, hi, width, grids

    def cycles(self, seed: int):
        rng = random.Random(seed)
        per = self.width // 2
        t_cycles = stratified_evens(rng, self.lo, self.hi, self.width, per)
        n_cycles = stratified_evens(rng, self.lo, self.hi, self.width, per)
        size = len(t_cycles[0])
        for c in itertools.count():
            ts, ns = list(t_cycles[c % per]), list(n_cycles[c % per])
            grids = [self.grids[k % len(self.grids)] for k in range(size)]
            for seq in (ts, ns, grids):
                rng.shuffle(seq)
            yield [
                {
                    "twice_j": ts[k],
                    "gamma": _gamma_text(rng),
                    "grid": grids[k],
                    "n": ns[k],
                    "gamma_choice": "i" if k % 2 == 0 else "1",
                    "n_list": sorted(rng.sample(range(1, self.hi + 1), 8)),
                }
                for k in range(size)
            ]

    def warmup(self):
        op = {"twice_j": 4, "gamma": "0.5+0.5i", "grid": (5, 8), "n": 4, "gamma_choice": "i", "n_list": [1, 2]}
        self.check(op, self.run(op))

    @staticmethod
    def _call(*argv) -> tuple[list[str], int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        argv = [str(a) for a in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        return argv, rc, out.getvalue(), err.getvalue()

    def run(self, op: dict) -> list:
        d = self.workdir
        n_theta, n_phi = op["grid"]
        # --gamma=VALUE, since argparse reads "-1.0+0.5i" after a space as an option.
        calls = [self._call("cat", "--twice-j", op["twice_j"], f"--gamma={op['gamma']}", "--out", d / "c.json")]
        calls.append(
            self._call("husimi", "--in", d / "c.json", "--n-theta", n_theta, "--n-phi", n_phi, "--out", d / "h.csv")
        )
        calls.append(self._call("noon", "--n", op["n"], "--gamma-choice", op["gamma_choice"], "--out", d / "n.json"))
        calls.append(self._call("metrology", "--n-list", ",".join(map(str, op["n_list"])), "--out", d / "m.csv"))
        return calls

    def check(self, op: dict, output) -> dict[str, float]:
        replies = []
        for argv, rc, out, err in output:
            _gate(rc == 0, f"spincat {' '.join(argv)} exited {rc}: {err.strip()}")
            replies.append(json.loads(out.strip().splitlines()[-1]))
        cat, husimi, noon, table = replies
        d = self.workdir

        # The cat identity's contract, as `spincat verify` checks it.
        cat_fid = cat["two_component_fidelity"]
        _gate(cat_fid >= 1.0 - 1e-10, f"cat {op}: two-component fidelity {cat_fid!r} < 1-1e-10")
        _state_file(d / "c.json", "spin-state/1", "twice_j", op["twice_j"])

        # An overlap-squared with a unit coherent state cannot exceed 1, and
        # the file must hold the whole grid the summary describes.
        n_theta, n_phi = op["grid"]
        _gate(husimi["q_max"] <= 1.0, f"husimi {op}: q_max {husimi['q_max']!r} > 1")
        lines = (d / "h.csv").read_text(encoding="utf-8").splitlines()
        _gate(lines[:1] == ["theta,phi,q"], f"husimi {op}: h.csv header {lines[:1]}")
        _gate(len(lines) == 1 + n_theta * n_phi, f"husimi {op}: {len(lines) - 1} rows, want {n_theta * n_phi}")
        _gate(all(line.count(",") == 2 for line in lines[1:]), f"husimi {op}: a row without 3 fields")
        qs = [float(line.rsplit(",", 1)[1]) for line in lines[1:]]
        _gate(min(qs) >= 0.0, f"husimi {op}: negative q {min(qs)!r}")
        _gate(max(qs) == husimi["q_max"], f"husimi {op}: file max q {max(qs)!r} != reported {husimi['q_max']!r}")

        # The `noon` command's own self-check bound for even N, on the
        # reported fidelity and on the one the written amplitudes give.
        n = op["n"]
        fid = noon["fidelity"]
        _gate(fid >= 1.0 - 1e-8, f"noon {op}: fidelity {fid!r} < 1-1e-8")
        amps = _state_file(d / "n.json", "two-mode-state/1", "n_total", n)
        fid_file = (abs(amps[0]) + abs(amps[-1])) / math.sqrt(2.0)
        off_file = float(np.sum(np.abs(amps[1:-1]) ** 2))
        _gate(abs(fid - fid_file) <= 1e-12, f"noon {op}: fidelity {fid!r}, n.json gives {fid_file!r}")
        _gate(
            abs(noon["off_support_mass"] - off_file) <= 1e-12,
            f"noon {op}: off-support {noon['off_support_mass']!r}, n.json gives {off_file!r}",
        )

        # A N00N probe of N photons has QFI N^2 and phase uncertainty 1/N.
        n_list = op["n_list"]
        _gate(table["rows"] == len(n_list), f"metrology {op}: {table['rows']} rows, want {len(n_list)}")
        lines = (d / "m.csv").read_text(encoding="utf-8").splitlines()
        _gate(lines[:1] == ["N,delta_phi_noon,delta_phi_sql_reference,qfi"], f"metrology {op}: header {lines[:1]}")
        rows = [line.split(",") for line in lines[1:]]
        _gate([int(r[0]) for r in rows] == n_list, f"metrology {op}: m.csv N column {[r[0] for r in rows]}")
        qfi_err = 0.0
        for n_row, noon_dphi, sql_dphi, qfi in ((int(r[0]), *map(float, r[1:])) for r in rows):
            _gate(abs(noon_dphi * n_row - 1.0) <= 1e-8, f"metrology {op}: N={n_row} delta_phi {noon_dphi!r}")
            _gate(abs(sql_dphi * math.sqrt(n_row) - 1.0) <= 1e-12, f"metrology {op}: N={n_row} SQL {sql_dphi!r}")
            qfi_err = max(qfi_err, abs(qfi - n_row * n_row) / (n_row * n_row))
            _gate(qfi_err <= 1e-8, f"metrology {op}: N={n_row} QFI {qfi!r}")
        return {
            "dynamics.cat_fidelity_deficit_max": 1.0 - cat_fid,
            "schwinger.noon_deficit_max": 1.0 - fid,
            "schwinger.noon_deficit_per_n_max": (1.0 - fid) / n,
            "schwinger.off_support_max": noon["off_support_mass"],
            "metrology.qfi_rel_err_max": qfi_err,
        }


def _state_file(path: Path, schema: str, size_key: str, size: int) -> np.ndarray:
    """The amplitudes of a state file the CLI wrote, read without spincat.

    Gates on its schema, its declared size, the amplitude count and the norm.
    """
    doc = json.loads(path.read_text(encoding="utf-8"))
    _gate(doc.get("schema_version") == schema, f"{path.name}: schema {doc.get('schema_version')!r}, want {schema}")
    _gate(doc.get(size_key) == size, f"{path.name}: {size_key}={doc.get(size_key)!r}, want {size}")
    amps = np.array([complex(re, im) for re, im in doc["amplitudes"]])
    _gate(amps.shape == (size + 1,), f"{path.name}: {len(amps)} amplitudes, want {size + 1}")
    norm = float(np.linalg.norm(amps))
    _gate(abs(norm - 1.0) <= 1e-10, f"{path.name}: norm {norm!r}")
    return amps


def make(name: str, workdir: Path):
    """The workload called `name`; cli-export writes its files in `workdir`."""
    if name == NoonLarge.name:
        return NoonLarge()
    if name == VerifySuite.name:
        return VerifySuite()
    if name == CliExport.name:
        return CliExport(workdir)
    raise ValueError(f"unknown workload {name!r}")
