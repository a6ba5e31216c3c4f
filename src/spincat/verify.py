"""Machine-checkable invariant suite backing the `verify` CLI command.

Each section re-measures a family of contracts at its stated tolerance and
reports the worst observed value, so a failure prints the number that broke
the bound rather than just a boolean; a NaN is the worst value and fails.
A fidelity is reported as its deficit 1 - F.

The checks read the structures the pipeline runs on, not dense products of
them: the algebra from J+'s band (`su2._ladder`) and the weights m in O(d),
Jx's kept eigensystem (`su2._jx_eigensystem`) by Jx V = V diag(w) with Jx
applied as its band in O(d^2), the Fock sector from its own band.  The
rotated identity and the coherent rotation are products with V, so no
check exponentiates a matrix or forms a d x d complex product.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import su2
from .coherent import (
    _rotated_lowest,
    as_label,
    bloch_direction,
    coherent_expansion,
    mean_spin,
    stereographic,
    BlochDirection,
)
from .dynamics import _cat_fidelity, fit_two_component, quarter_period_evolve, verify_rotated_identity
from .halfint import HalfInteger, m_values
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
from .su2 import weight_state


@dataclass(frozen=True)
class CheckResult:
    section: str
    name: str
    passed: bool
    detail: str


def _bound(section, name, values, bound) -> CheckResult:
    """Compare the largest of `values` with `bound`; a NaN among them is the largest and fails.

    Every check passes a quantity that should be small: a residual, or a
    fidelity as its deficit 1 - F, so the number printed is the one that
    matters.  A check with no values reports 0.
    """
    worst = float(np.asarray(values, dtype=float).max(initial=0.0))
    return CheckResult(section, name, bool(worst <= bound), f"worst {worst:.3e} (<= {bound:.1e})")


def _random_gammas(rng, count) -> np.ndarray:
    mags = rng.uniform(0.1, 2.5, size=count)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=count)
    return mags * np.exp(1j * phases)


def _ladder_residuals(j: HalfInteger, ladder: np.ndarray) -> tuple[float, float]:
    """(commutator, Casimir) residuals of one 2j from J+'s band, each ||.||_F / d.

    [J+, J-] = 2Jz is l_{k-1}^2 - l_k^2 = 2 m_k; [Jz, J+] = J+ is
    m_{k+1} - m_k = 1 on J+'s band, so its residual is (m_{k+1} - m_k - 1) l_k;
    [J-, Jz] = J- is its adjoint, and the Jx, Jy, Jz commutators are linear
    combinations of these.  The Casimir is diagonal,
    (l_{k-1}^2 + l_k^2)/2 + m_k^2 = j(j+1), so it commutes with everything.
    """
    m = m_values(j)
    below, above = su2._ladder_squares(ladder)
    d = j.dim
    # np.max, not max: a NaN in either norm must reach `_bound`.
    comm = np.max([np.linalg.norm(below - above - 2.0 * m), np.linalg.norm((np.diff(m) - 1.0) * ladder)]) / d
    cas = np.linalg.norm((below + above) / 2.0 + m * m - j.casimir_eigenvalue()) / d
    return float(comm), float(cas)


def _jx_eigensystem_residual(j: HalfInteger, ladder: np.ndarray, w: np.ndarray, v: np.ndarray) -> float:
    """max(||Jx V - V diag(w)||_F / d, max |w - m|, max | ||v_k||^2 - 1 |), in O(d^2).

    Jx = (J+ + J-)/2 is applied as its band, ladder/2 on both sides of the
    diagonal.  Unit columns with eigenvalues a gap of 1 apart are
    orthonormal to within the residual, so this is all `rotate` relies on.
    """
    half = (ladder / 2.0)[:, None]
    jx_v = np.zeros_like(v)
    jx_v[1:] += half * v[:-1]
    jx_v[:-1] += half * v[1:]
    terms = [
        np.linalg.norm(jx_v - v * w) / j.dim,
        np.max(np.abs(w - m_values(j))),
        np.max(np.abs(np.einsum("ij,ij->j", v, v) - 1.0)),
    ]
    return float(np.max(terms))


def _algebra_section(max_twice_j: int):
    comm, cas, eig = [], [], []
    for tj in range(0, max_twice_j + 1):
        j = HalfInteger(tj)
        # Read through `su2`, the structures the pipeline itself uses.
        ladder = su2._ladder(j)
        # Each band entry is a difference of numbers of size j(j+1), so the
        # band residuals, norms over d, round like j^(3/2); eigh's error in
        # Jx's spectrum grows like ||Jx|| = j.  Up to 2j = 60 the bounds
        # are the plain 1e-12.
        scale = max(1.0, j.value / 30.0)
        band_comm, band_cas = _ladder_residuals(j, ladder)
        comm.append(band_comm / scale**1.5)
        cas.append(band_cas / scale**1.5)
        eig.append(_jx_eigensystem_residual(j, ladder, *su2._jx_eigensystem(tj)) / scale)
    yield _bound("algebra", f"commutators on the ladder band, 2j<={max_twice_j}", comm, 1e-12)
    yield _bound("algebra", "casimir diagonal = j(j+1)", cas, 1e-12)
    yield _bound("algebra", f"Jx eigensystem, 2j<={max_twice_j}", eig, 1e-12)


def _coherent_section(rng, max_twice_j: int):
    limit = min(30, max_twice_j)
    dist, norms = [], []
    for tj in range(0, limit + 1):
        j = HalfInteger(tj)
        labels = [as_label(g) for g in _random_gammas(rng, 20)]
        # Every label's rotation of |j,-j>_z in one product with V.
        built = _rotated_lowest(j, labels)
        for column, label in zip(built.T, labels):
            expanded = coherent_expansion(j, label)
            dist.append(np.linalg.norm(column - expanded.amplitudes))
            norms.append(abs(expanded.norm() - 1.0))
    yield _bound("coherent", f"rotation vs expansion, 2j<={limit}", dist, 1e-12)
    yield _bound("coherent", "constructed norms", norms, 1e-12)

    def sphere_point(d: BlochDirection) -> tuple[float, float, float]:
        return (
            math.sin(d.theta) * math.cos(d.phi),
            math.sin(d.theta) * math.sin(d.phi),
            math.cos(d.theta),
        )

    rounds = []
    for theta in np.linspace(0.0, math.pi - 1e-6, 40):
        for phi in np.linspace(0.0, 2.0 * math.pi, 17, endpoint=False):
            direction = BlochDirection(theta, phi)
            label = stereographic(direction)
            back = bloch_direction(label)
            rounds.extend(abs(a - b) for a, b in zip(sphere_point(back), sphere_point(direction)))
            # label-level round trip, relative so huge labels near the pole
            # are judged at their own scale
            again = stereographic(back)
            rounds.append(abs(again.gamma - label.gamma) / (1.0 + abs(label.gamma)))
    yield _bound("coherent", "stereographic round trip", rounds, 1e-12)

    poles, antis = [], []
    for tj in (1, 2, 7, 16):
        j = HalfInteger(tj)
        pole = coherent_expansion(j, float("inf"))
        poles.append(np.sum(np.abs(pole.amplitudes[:-1])))
        origin = coherent_expansion(j, 0.0)
        poles.append(np.sum(np.abs(origin.amplitudes[1:])))
        for phase in rng.uniform(0, 2 * math.pi, 5):
            g = np.exp(1j * phase)
            total = mean_spin(coherent_expansion(j, g)) + mean_spin(coherent_expansion(j, -g))
            antis.append(np.max(np.abs(total)))
    yield _bound("coherent", "pole and origin support", poles, 1e-15)
    yield _bound("coherent", "equatorial antipodality", antis, 1e-10)


def _cat_section(rng, max_twice_j: int):
    limit = min(30, max_twice_j // 2)
    deficits, phases = [], []
    for jj in range(1, limit + 1):
        j = HalfInteger(2 * jj)
        gammas = [1j, 1.0, complex(_random_gammas(rng, 1)[0])]
        for g in gammas:
            # One evolution per (j, gamma) serves both the identity and the fit.
            evolved = quarter_period_evolve(coherent_expansion(j, g))
            deficits.append(1.0 - _cat_fidelity(evolved, g))
            _, c_plus, c_minus = fit_two_component(evolved, g)
            want = math.pi / 2.0 + jj * math.pi
            phases.append(abs(math.remainder(float(np.angle(c_minus / c_plus)) - want, 2 * math.pi)))
    yield _bound("cat-identity", f"fidelity, integer j<={limit}", deficits, 1e-10)
    yield _bound("cat-identity", "relative phase pi/2 + j*pi", phases, 1e-8)


def _rotated_section(max_twice_j: int):
    limit = min(30, max_twice_j // 2)
    deficits = []
    for jj in range(1, limit + 1):
        res = verify_rotated_identity(HalfInteger(2 * jj), omega=0.0)
        deficits.extend(1.0 - f for f in (res.fidelity, res.conjugated_fidelity, res.path_agreement))
    yield _bound("rotated-identity", f"both routes vs prediction, j<={limit}", deficits, 1e-10)


def _schwinger_section(max_twice_j: int):
    limit = min(40, max_twice_j)
    residuals = [verify_schwinger_realization(HalfInteger(tj)) for tj in range(0, limit + 1)]
    yield _bound("schwinger", f"mode-operator residuals, 2j<={limit}", residuals, 1e-12)

    special = []
    for tj in (1, 2, 9, 16):
        j = HalfInteger(tj)
        top = spin_to_fock(weight_state(j, tj)).amplitudes
        bottom = spin_to_fock(weight_state(j, -tj)).amplitudes
        special += [
            abs(top[-1] - 1.0),
            np.sum(np.abs(top[:-1])),
            abs(bottom[0] - 1.0),
            np.sum(np.abs(bottom[1:])),
        ]
        state = coherent_expansion(j, 0.3 + 0.7j)
        round_tripped = fock_to_spin(spin_to_fock(state))
        special.append(np.max(np.abs(round_tripped.amplitudes - state.amplitudes)))
    yield _bound("schwinger", "extremal mapping and round trip", special, 0.0)


def _noon_states(max_twice_j: int) -> dict:
    """make_noon(N, gamma_choice=c) by (N, c), for every even N <= min(60, max_twice_j) and both c."""
    limit = min(60, max_twice_j)
    return {(n, c): make_noon(n, gamma_choice=c) for n in range(2, limit + 1, 2) for c in ("i", "1")}


def _noon_section(max_twice_j: int, noon_states):
    limit = min(60, max_twice_j)
    deficits = [1.0 - noon_fidelity(out)[0] for out in noon_states.values()]
    offs = [off_support_mass(out) for out in noon_states.values()]
    yield _bound("noon-pipeline", f"fidelity, even N<={limit}, both routes", deficits, 1e-10)
    yield _bound("noon-pipeline", "off-support mass", offs, 1e-20)


def _metrology_section(max_twice_j: int, noon_states):
    uncs = [abs(phase_uncertainty(n) * n - 1.0) for n in range(1, 101)]
    yield _bound("metrology", "N * delta_phi = 1, N<=100", uncs, 1e-9)

    limit = min(60, max_twice_j)
    qfis = [abs(quantum_fisher_information(noon_states[n, "i"]) - n * n) / (n * n) for n in range(2, limit + 1, 2)]
    yield _bound("metrology", f"pipeline QFI = N^2, even N<={limit}", qfis, 1e-8)

    periods = []
    phis = np.linspace(0.0, 2.0 * math.pi, 10_000, endpoint=False)
    for n in (1, 4, 10):
        spectrum = np.abs(np.fft.rfft(noon_signal(n, 0.0, phis)))
        spectrum[0] = 0.0
        periods.append(abs(int(np.argmax(spectrum)) - n))
    yield _bound("metrology", "fringe frequency = N", periods, 0.0)

    crs = []
    for n in (1, 2, 10, 50):
        bound = 1.0 / math.sqrt(quantum_fisher_information(NoonState(n).to_two_mode()))
        crs.append(bound - phase_uncertainty(n))
    yield _bound("metrology", "Cramer-Rao consistency", crs, 1e-9)


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

