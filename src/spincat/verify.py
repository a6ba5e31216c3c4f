"""Machine-checkable invariant suite backing the `verify` CLI command.

Each section re-measures a family of contracts at its stated tolerance and
reports the worst observed value, so a failure prints the number that broke
the bound rather than just a boolean.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coherent import (
    as_label,
    bloch_direction,
    coherent_expansion,
    fidelity,
    mean_spin,
    rotation_operator,
    stereographic,
    BlochDirection,
)
from .dynamics import _cat_fidelity, fit_two_component, quarter_period_evolve, verify_rotated_identity
from .halfint import HalfInteger
from .metrology import noon_signal, phase_uncertainty, quantum_fisher_information
from .schwinger import (
    NoonState,
    fock_to_spin,
    make_noon,
    noon_fidelity,
    off_support_mass,
    spin_to_fock,
    verify_schwinger_realization,
)
from .su2 import casimir, jminus, jplus, jx, jy, jz, weight_state


@dataclass(frozen=True)
class CheckResult:
    section: str
    name: str
    passed: bool
    detail: str


def _bound(section, name, worst, bound, larger_is_better=False) -> CheckResult:
    ok = worst >= bound if larger_is_better else worst <= bound
    rel = ">=" if larger_is_better else "<="
    return CheckResult(section, name, bool(ok), f"worst {worst:.3e} ({rel} {bound:.1e})")


def _random_gammas(rng, count) -> np.ndarray:
    mags = rng.uniform(0.1, 2.5, size=count)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=count)
    return mags * np.exp(1j * phases)


def _algebra_section(max_twice_j: int):
    worst_comm = 0.0
    worst_casimir = 0.0
    for tj in range(0, max_twice_j + 1):
        j = HalfInteger(tj)
        p, m, x, y, z = (op(j).matrix for op in (jplus, jminus, jx, jy, jz))
        d = j.dim
        worst_comm = max(
            worst_comm,
            np.linalg.norm((p @ m - m @ p) - 2.0 * z) / d,
            np.linalg.norm((p @ z - z @ p) + p) / d,
            np.linalg.norm((m @ z - z @ m) - m) / d,
            np.linalg.norm((x @ y - y @ x) - 1j * z) / d,
            np.linalg.norm((y @ z - z @ y) - 1j * x) / d,
            np.linalg.norm((z @ x - x @ z) - 1j * y) / d,
        )
        cas = casimir(j).matrix
        residual = max(
            np.linalg.norm(cas - j.casimir_eigenvalue() * np.eye(d)) / d,
            max(np.linalg.norm(cas @ g - g @ cas) / d for g in (x, y, z)),
        )
        # Rounding in [C, J] grows like j^3 (C ~ j^2, J ~ j), so the bound
        # is 1e-12 max(1, (j/30)^3): each residual is divided by that scale.
        worst_casimir = max(worst_casimir, residual / max(1.0, (j.value / 30.0) ** 3))
    yield _bound("algebra", f"commutators up to 2j={max_twice_j}", worst_comm, 1e-12)
    yield _bound("algebra", "casimir = j(j+1) and commutes", worst_casimir, 1e-12)


def _coherent_section(rng, max_twice_j: int):
    limit = min(30, max_twice_j)
    worst_fid = 1.0
    worst_norm = 0.0
    for tj in range(0, limit + 1):
        j = HalfInteger(tj)
        lowest = weight_state(j, -tj)
        for g in _random_gammas(rng, 20):
            label = as_label(g)
            built = rotation_operator(j, label).apply(lowest)
            expanded = coherent_expansion(j, label)
            worst_fid = min(worst_fid, fidelity(built, expanded))
            worst_norm = max(worst_norm, abs(expanded.norm() - 1.0))
    yield _bound(
        "coherent", f"rotation vs expansion, 2j<={limit}", worst_fid, 1.0 - 1e-10, True
    )
    yield _bound("coherent", "constructed norms", worst_norm, 1e-12)

    def sphere_point(d: BlochDirection) -> tuple[float, float, float]:
        return (
            math.sin(d.theta) * math.cos(d.phi),
            math.sin(d.theta) * math.sin(d.phi),
            math.cos(d.theta),
        )

    worst_round = 0.0
    for theta in np.linspace(0.0, math.pi - 1e-6, 40):
        for phi in np.linspace(0.0, 2.0 * math.pi, 17, endpoint=False):
            direction = BlochDirection(theta, phi)
            label = stereographic(direction)
            back = bloch_direction(label)
            worst_round = max(
                worst_round, *(abs(a - b) for a, b in zip(sphere_point(back), sphere_point(direction)))
            )
            # label-level round trip, relative so huge labels near the pole
            # are judged at their own scale
            again = stereographic(back)
            worst_round = max(
                worst_round, abs(again.gamma - label.gamma) / (1.0 + abs(label.gamma))
            )
    yield _bound("coherent", "stereographic round trip", worst_round, 1e-12)

    worst_pole = 0.0
    worst_anti = 0.0
    for tj in (1, 2, 7, 16):
        j = HalfInteger(tj)
        pole = coherent_expansion(j, float("inf"))
        worst_pole = max(worst_pole, float(np.sum(np.abs(pole.amplitudes[:-1]))))
        origin = coherent_expansion(j, 0.0)
        worst_pole = max(worst_pole, float(np.sum(np.abs(origin.amplitudes[1:]))))
        for phase in rng.uniform(0, 2 * math.pi, 5):
            g = np.exp(1j * phase)
            total = mean_spin(coherent_expansion(j, g)) + mean_spin(coherent_expansion(j, -g))
            worst_anti = max(worst_anti, float(np.max(np.abs(total))))
    yield _bound("coherent", "pole and origin support", worst_pole, 1e-15)
    yield _bound("coherent", "equatorial antipodality", worst_anti, 1e-10)


def _cat_section(rng, max_twice_j: int):
    limit = min(30, max_twice_j // 2)
    worst_fid = 1.0
    worst_phase = 0.0
    for jj in range(1, limit + 1):
        j = HalfInteger(2 * jj)
        gammas = [1j, 1.0, complex(_random_gammas(rng, 1)[0])]
        for g in gammas:
            # One evolution per (j, gamma) serves both the identity and the fit.
            evolved = quarter_period_evolve(coherent_expansion(j, g))
            worst_fid = min(worst_fid, _cat_fidelity(evolved, g))
            _, c_plus, c_minus = fit_two_component(evolved, g)
            want = math.pi / 2.0 + jj * math.pi
            err = abs(math.remainder(float(np.angle(c_minus / c_plus)) - want, 2 * math.pi))
            worst_phase = max(worst_phase, err)
    yield _bound("cat-identity", f"fidelity, integer j<={limit}", worst_fid, 1.0 - 1e-10, True)
    yield _bound("cat-identity", "relative phase pi/2 + j*pi", worst_phase, 1e-8)


def _rotated_section(max_twice_j: int):
    limit = min(30, max_twice_j // 2)
    worst = 1.0
    for jj in range(1, limit + 1):
        res = verify_rotated_identity(HalfInteger(2 * jj), omega=0.0)
        worst = min(worst, res.fidelity, res.conjugated_fidelity, res.path_agreement)
    yield _bound(
        "rotated-identity", f"both routes vs prediction, j<={limit}", worst, 1.0 - 1e-10, True
    )


def _schwinger_section(max_twice_j: int):
    limit = min(40, max_twice_j)
    worst = max(verify_schwinger_realization(HalfInteger(tj)) for tj in range(0, limit + 1))
    yield _bound("schwinger", f"mode-operator residuals, 2j<={limit}", worst, 1e-12)

    worst_special = 0.0
    for tj in (1, 2, 9, 16):
        j = HalfInteger(tj)
        top = spin_to_fock(weight_state(j, tj)).amplitudes
        bottom = spin_to_fock(weight_state(j, -tj)).amplitudes
        worst_special = max(
            worst_special,
            abs(top[-1] - 1.0),
            float(np.sum(np.abs(top[:-1]))),
            abs(bottom[0] - 1.0),
            float(np.sum(np.abs(bottom[1:]))),
        )
        state = coherent_expansion(j, 0.3 + 0.7j)
        round_tripped = fock_to_spin(spin_to_fock(state))
        worst_special = max(
            worst_special, float(np.max(np.abs(round_tripped.amplitudes - state.amplitudes)))
        )
    yield _bound("schwinger", "extremal mapping and round trip", worst_special, 0.0)


def _noon_states(max_twice_j: int) -> dict:
    """make_noon(N, gamma_choice=c) by (N, c), for every even N <= min(60, max_twice_j) and both c."""
    limit = min(60, max_twice_j)
    return {(n, c): make_noon(n, gamma_choice=c) for n in range(2, limit + 1, 2) for c in ("i", "1")}


def _noon_section(max_twice_j: int, noon_states):
    limit = min(60, max_twice_j)
    worst_fid = 1.0
    worst_off = 0.0
    for out in noon_states.values():
        fid, _ = noon_fidelity(out)
        worst_fid = min(worst_fid, fid)
        worst_off = max(worst_off, off_support_mass(out))
    yield _bound("noon-pipeline", f"fidelity, even N<={limit}, both routes", worst_fid, 1.0 - 1e-10, True)
    yield _bound("noon-pipeline", "off-support mass", worst_off, 1e-20)


def _metrology_section(max_twice_j: int, noon_states):
    worst_unc = 0.0
    for n in range(1, 101):
        worst_unc = max(worst_unc, abs(phase_uncertainty(n) * n - 1.0))
    yield _bound("metrology", "N * delta_phi = 1, N<=100", worst_unc, 1e-9)

    limit = min(60, max_twice_j)
    worst_qfi = 0.0
    for n in range(2, limit + 1, 2):
        qfi = quantum_fisher_information(noon_states[n, "i"])
        worst_qfi = max(worst_qfi, abs(qfi - n * n) / (n * n))
    yield _bound("metrology", f"pipeline QFI = N^2, even N<={limit}", worst_qfi, 1e-8)

    worst_period = 0
    phis = np.linspace(0.0, 2.0 * math.pi, 10_000, endpoint=False)
    for n in (1, 4, 10):
        spectrum = np.abs(np.fft.rfft(noon_signal(n, 0.0, phis)))
        spectrum[0] = 0.0
        worst_period = max(worst_period, abs(int(np.argmax(spectrum)) - n))
    yield _bound("metrology", "fringe frequency = N", float(worst_period), 0.0)

    worst_cr = 0.0
    for n in (1, 2, 10, 50):
        bound = 1.0 / math.sqrt(quantum_fisher_information(NoonState(n).to_two_mode()))
        worst_cr = max(worst_cr, bound - phase_uncertainty(n))
    yield _bound("metrology", "Cramer-Rao consistency", worst_cr, 1e-9)


def run_suite(max_twice_j: int = 60, seed: int = 20260810) -> list[CheckResult]:
    """Run every section; deterministic for a fixed seed."""
    rng = np.random.default_rng(seed)
    results: list[CheckResult] = []
    results.extend(_algebra_section(max_twice_j))
    results.extend(_coherent_section(rng, max_twice_j))
    results.extend(_cat_section(rng, max_twice_j))
    results.extend(_rotated_section(max_twice_j))
    results.extend(_schwinger_section(max_twice_j))
    # The N00N and metrology sections share one run of the pipeline per (N, choice).
    noon_states = _noon_states(max_twice_j)
    results.extend(_noon_section(max_twice_j, noon_states))
    results.extend(_metrology_section(max_twice_j, noon_states))
    return results


def all_passed(results) -> bool:
    return all(r.passed for r in results)


def sections(results) -> list[str]:
    seen: list[str] = []
    for r in results:
        if r.section not in seen:
            seen.append(r.section)
    return seen

