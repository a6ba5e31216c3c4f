"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here, not imported from the library.
"""
import json
import math
import time

import numpy as np

from _oracles import commutator
from spincat import (
    BlochDirection,
    HalfInteger,
    SpinState,
    bloch_direction,
    casimir,
    coherent_expansion,
    error_propagation_uncertainty,
    fidelity,
    fit_two_component,
    jminus,
    jplus,
    jx,
    jy,
    jz,
    make_noon,
    noon_fidelity,
    noon_signal,
    noon_state,
    off_support_mass,
    predicted_cat,
    quantum_fisher_information,
    quarter_period_evolve,
    spin_to_fock,
    stereographic,
    rotated_cat_prediction,
    verify_schwinger_realization,
    weight_state,
)
from spincat.cli import main
from spincat.coherent import _rotated_lowest
from spincat.dynamics import _rotated_identity_routes
from spincat.statefile import load_spin_state, save_state

RNG_SEED = 20260810


def _report(name: str, ok: bool, detail: str):
    line = f"[{'PASS' if ok else 'FAIL'}] acceptance {name}: {detail}"
    print(line)
    assert ok, line


def test_criterion_1_algebra_suite():
    t0 = time.perf_counter()
    worst = 0.0
    for tj in range(0, 61):
        j = HalfInteger(tj)
        d = j.dim
        p, m, x, y, z = (op(j) for op in (jplus, jminus, jx, jy, jz))
        worst = max(
            worst,
            np.linalg.norm(commutator(p, m).matrix - 2 * z.matrix) / d,
            np.linalg.norm(commutator(p, z).matrix + p.matrix) / d,
            np.linalg.norm(commutator(m, z).matrix - m.matrix) / d,
            np.linalg.norm(commutator(x, y).matrix - 1j * z.matrix) / d,
            np.linalg.norm(commutator(y, z).matrix - 1j * x.matrix) / d,
            np.linalg.norm(commutator(z, x).matrix - 1j * y.matrix) / d,
            np.linalg.norm(casimir(j).matrix - j.casimir_eigenvalue() * np.eye(d)) / d,
        )
    elapsed = time.perf_counter() - t0
    _report(
        "1 algebra",
        worst <= 1e-12 and elapsed < 10.0,
        f"worst residual {worst:.3e} (<= 1e-12), runtime {elapsed:.2f}s (< 10s), 2j <= 60",
    )


def test_criterion_2_coherent_suite():
    rng = np.random.default_rng(RNG_SEED)
    worst_fid = 1.0
    for tj in range(0, 31):
        j = HalfInteger(tj)
        for _ in range(20):
            g = rng.uniform(0.05, 2.5) * np.exp(1j * rng.uniform(0, 2 * math.pi))
            # The rotation of |j,-j>_z onto |j,g>, its column 0.
            built = SpinState(j, _rotated_lowest(j, [g])[:, 0])
            worst_fid = min(worst_fid, fidelity(built, coherent_expansion(j, g)))
    worst_round = 0.0
    for theta in np.linspace(0.0, math.pi - 1e-6, 60):
        for phi in np.linspace(0.0, 2 * math.pi, 13, endpoint=False):
            d = BlochDirection(theta, phi)
            label = stereographic(d)
            back = bloch_direction(label)
            point = lambda dd: np.array(
                [
                    math.sin(dd.theta) * math.cos(dd.phi),
                    math.sin(dd.theta) * math.sin(dd.phi),
                    math.cos(dd.theta),
                ]
            )
            worst_round = max(worst_round, float(np.max(np.abs(point(back) - point(d)))))
            worst_round = max(
                worst_round,
                abs(stereographic(back).gamma - label.gamma) / (1 + abs(label.gamma)),
            )
    _report(
        "2 coherent",
        worst_fid >= 1 - 1e-10 and worst_round <= 1e-12,
        f"rotation/expansion fidelity {worst_fid:.15f} (>= 1-1e-10), "
        f"stereographic round trip {worst_round:.3e} (<= 1e-12)",
    )


def test_criterion_3_cat_identity():
    rng = np.random.default_rng(RNG_SEED + 3)
    worst_fid = 1.0
    worst_phase = 0.0
    for jj in range(1, 31):
        j = HalfInteger(2 * jj)
        random_g = rng.uniform(0.2, 2.0) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        for g in (1j, 1.0, random_g):
            evolved = quarter_period_evolve(coherent_expansion(j, g))
            worst_fid = min(worst_fid, fidelity(evolved, predicted_cat(evolved.j, g).materialize()))
            _, c_plus, c_minus = fit_two_component(evolved, g)
            err = abs(
                math.remainder(
                    float(np.angle(c_minus / c_plus)) - (math.pi / 2 + jj * math.pi),
                    2 * math.pi,
                )
            )
            worst_phase = max(worst_phase, err)
    _report(
        "3 cat identity",
        worst_fid >= 1 - 1e-10 and worst_phase <= 1e-8,
        f"fidelity {worst_fid:.15f} (>= 1-1e-10), "
        f"relative phase error {worst_phase:.3e} rad (<= 1e-8), integer j <= 30",
    )


def test_criterion_4_rotated_identity():
    worst = 1.0
    for jj in range(1, 31):
        j = HalfInteger(2 * jj)
        direct, conjugated = _rotated_identity_routes(j, 0.0)
        target = rotated_cat_prediction(j)
        worst = min(worst, fidelity(target, direct), fidelity(target, conjugated), fidelity(direct, conjugated))
    _report(
        "4 rotated identity",
        worst >= 1 - 1e-10,
        f"min over routes/agreement/prediction {worst:.15f} (>= 1-1e-10), integer j <= 30",
    )


def test_criterion_5_schwinger_realization():
    worst = max(verify_schwinger_realization(HalfInteger(tj)) for tj in range(0, 41))
    exact = True
    for tj in (1, 2, 8, 19, 40):
        j = HalfInteger(tj)
        top = spin_to_fock(weight_state(j, tj)).amplitudes
        bottom = spin_to_fock(weight_state(j, -tj)).amplitudes
        exact = exact and top[-1] == 1.0 and np.count_nonzero(top) == 1
        exact = exact and bottom[0] == 1.0 and np.count_nonzero(bottom) == 1
    _report(
        "5 schwinger",
        worst <= 1e-12 and exact,
        f"operator residual {worst:.3e} (<= 1e-12, 2j <= 40), extremal mappings exact",
    )


def test_criterion_6_noon_pipeline():
    worst_fid = 1.0
    worst_off = 0.0
    for n in range(2, 61, 2):
        for choice in ("i", "1"):
            out = make_noon(n, gamma_choice=choice)
            fid, _ = noon_fidelity(out)
            worst_fid = min(worst_fid, fid)
            worst_off = max(worst_off, off_support_mass(out))
    _report(
        "6 noon pipeline",
        worst_fid >= 1 - 1e-10 and worst_off <= 1e-20,
        f"fidelity {worst_fid:.15f} (>= 1-1e-10), off-support mass {worst_off:.3e} "
        f"(<= 1e-20), even N <= 60, gamma in {{i, 1}}",
    )


def test_criterion_7_metrology():
    t0 = time.perf_counter()
    worst_unc = max(abs(error_propagation_uncertainty(noon_state(n)) * n - 1.0) for n in range(1, 101))
    worst_qfi = 0.0
    for n in range(2, 61, 2):
        qfi = quantum_fisher_information(make_noon(n))
        worst_qfi = max(worst_qfi, abs(qfi - n * n) / (n * n))
    periods_ok = True
    for n in (1, 10, 64):
        phis = np.linspace(0, 2 * math.pi, 10_000, endpoint=False)
        samples = noon_signal(noon_state(n, 0.0), phis)
        spectrum = np.abs(np.fft.rfft(samples))
        spectrum[0] = 0.0
        periods_ok = periods_ok and int(np.argmax(spectrum)) == n
    elapsed = time.perf_counter() - t0
    _report(
        "7 metrology",
        worst_unc <= 1e-9 and worst_qfi <= 1e-8 and periods_ok and elapsed < 30.0,
        f"N*delta_phi error {worst_unc:.3e} (<= 1e-9, N <= 100), pipeline QFI error "
        f"{worst_qfi:.3e} (<= 1e-8, even N <= 60), fringe 2pi/N {periods_ok}, "
        f"runtime {elapsed:.2f}s (< 30s)",
    )


def test_criterion_8_half_integer_report(tmp_path):
    path = tmp_path / "half_integer_scan.csv"
    rc = main(["scan", "--twice-j-list", "1,3,5,7", "--omega", "0", "--out", str(path)])
    lines = path.read_text().strip().splitlines()
    schema_ok = (
        lines[0] == "twice_j,omega,fidelity,coeff_plus_re,coeff_plus_im,coeff_minus_re,coeff_minus_im"
        and len(lines) == 5
    )
    parsed = []
    for ln in lines[1:]:
        cells = ln.split(",")
        parsed.append((int(cells[0]), [float(c) for c in cells[1:]]))
    fidelities = {tj: vals[1] for tj, vals in parsed}
    _report(
        "8 half-integer report",
        rc == 0 and schema_ok and sorted(fidelities) == [1, 3, 5, 7],
        f"4 rows, schema ok, measured fidelities "
        f"{[round(fidelities[tj], 6) for tj in (1, 3, 5, 7)]} (recorded, no threshold)",
    )


def test_criterion_9_cli(tmp_path, capsys):
    rc_verify = main(["verify", "--max-twice-j", "60"])
    captured = capsys.readouterr()
    summary = json.loads(captured.out.strip().splitlines()[-1])

    # state-file round trip, bit exact
    state = coherent_expansion(HalfInteger(17), 1.2 - 0.4j)
    path = tmp_path / "s.json"
    save_state(state, path)
    round_ok = load_spin_state(path).amplitudes.tobytes() == state.amplitudes.tobytes()

    # every documented exit code
    rc0 = main(["noon", "--n", "2", "--out", str(tmp_path / "n2.json")])
    rc1 = main(["noon", "--n", "4", "--omega", "0.37", "--out", str(tmp_path / "n4.json")])
    rc2 = main(["noon", "--n", "0", "--out", str(tmp_path / "n0.json")])
    rc3 = main(["husimi", "--in", str(tmp_path / "absent.json")])
    capsys.readouterr()
    codes_ok = (rc0, rc1, rc2, rc3) == (0, 1, 2, 3)

    _report(
        "9 cli",
        rc_verify == 0 and summary["sections"] >= 5 and round_ok and codes_ok,
        f"verify exit 0 with {summary['sections']} sections, round trip bit-exact: "
        f"{round_ok}, exit codes (0,1,2,3) exercised: {(rc0, rc1, rc2, rc3)}",
    )
