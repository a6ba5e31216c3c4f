"""Independent oracle implementations used by the tests.

Everything here deliberately avoids the library's code paths: amplitudes
come from the raw power-series formula, overlaps from the closed form,
and expectation values from explicitly constructed observable matrices.
The operator helpers at the end act on the library's state and operator
types through their dense matrices only.  One oracle reads a library
routine on purpose: `amplitudes_one_label` keeps the per-label phase
formula on `coherent._binomial_weights`, the bit-for-bit reference of the
batched builder.

This module is also the tests' one door to the dense reference, the
`DENSE_REFERENCE` names, which `spincat` does not export: every test
imports them from here.  They are still defined in `spincat.su2`,
`spincat.dynamics` and `spincat.errors`, where the benchmark reads them,
so moving them into this file edits no other test.
"""
import math
import sys

import numpy as np

from spincat import HalfInteger, IrrepMismatch, SpinState, TwoModeState, as_label, coherent_expansion, m_values
from spincat.coherent import _binomial_weights
from spincat.dynamics import kerr_hamiltonian
from spincat.errors import NonHermitianInput
from spincat.su2 import SpinOperator, casimir, expm_hermitian, jminus, jplus, jx, jy, jz

DENSE_REFERENCE = (SpinOperator, jz, jplus, jminus, jx, jy, casimir, expm_hermitian, kerr_hamiltonian, NonHermitianInput)


def coherent_amplitudes_direct(twice_j: int, gamma: complex) -> np.ndarray:
    """(1+|g|^2)^{-j} * sqrt(C(2j,k)) * g^k on k = 0..2j, by raw powers."""
    k = np.arange(twice_j + 1)
    binom = np.array([math.comb(twice_j, int(kk)) for kk in k], dtype=float)
    amps = np.sqrt(binom) * (complex(gamma) ** k)
    return amps / (1.0 + abs(gamma) ** 2) ** (twice_j / 2.0)


def coherent_expansion_trig(j: HalfInteger, gamma) -> SpinState:
    """|j,gamma> from theta/2 = atan|gamma|: sqrt(C(2j,k)) cos^(2j-k) sin^k e^{ik arg gamma},
    with the pole set by hand; binomials past the float range go through
    exp(log C / 2 + (2j-k) log cos + k log sin).  The pre-spinor route."""
    g, tj = complex(gamma), j.twice_value
    amps = np.zeros(j.dim, dtype=np.complex128)
    if math.isinf(abs(g)):
        amps[-1] = 1.0
        return SpinState(j, amps)
    half = math.atan(abs(g))
    binomials = [math.comb(tj, i) for i in range(tj + 1)]
    big = [i for i, c in enumerate(binomials) if c > sys.float_info.max]
    k = np.arange(tj + 1)
    sqrt_c = np.sqrt(np.array([c if c <= sys.float_info.max else 0 for c in binomials], dtype=float))
    radial = sqrt_c * np.cos(half) ** (tj - k) * np.sin(half) ** k
    if big:
        kb = k[big]
        half_log_c = 0.5 * np.array([math.log(binomials[i]) for i in big])
        with np.errstate(divide="ignore"):
            radial[big] = np.exp(half_log_c + (tj - kb) * np.log(np.cos(half)) + kb * np.log(np.sin(half)))
    return SpinState(j, radial * np.exp(1j * np.angle(g) * k))


def amplitudes_one_label(twice_j: int, gamma) -> np.ndarray:
    """|j; u, v>'s raw amplitudes for one label, the phase formed per label:
    `_binomial_weights` of the moduli times exp(i (arg v - arg u) k + i arg u 2j)."""
    label = as_label(gamma)
    arg_u, arg_v = label.phases
    radial = _binomial_weights(twice_j, label.u_abs, label.v_abs)
    return radial * np.exp(1j * (arg_v - arg_u) * np.arange(twice_j + 1) + 1j * arg_u * twice_j)


def coherent_overlap_formula(twice_j: int, g1: complex, g2: complex) -> complex:
    """<j,g1|j,g2> = (1 + conj(g1) g2)^{2j} / ((1+|g1|^2)(1+|g2|^2))^j."""
    num = (1.0 + np.conj(g1) * g2) ** twice_j
    den = ((1.0 + abs(g1) ** 2) * (1.0 + abs(g2) ** 2)) ** (twice_j / 2.0)
    return complex(num / den)


def quarter_phase_factors(twice_j: int) -> np.ndarray:
    """exp(-i pi m^2 / 2) over the ascending weights of one irrep."""
    m = np.arange(-twice_j, twice_j + 1, 2) / 2.0
    return np.exp(-1j * math.pi * m**2 / 2.0)


def quarter_evolve_with_lambda(state: SpinState, omega: float, lam: float) -> np.ndarray:
    """Amplitudes of the axis-z twist with a nonlinearity strength lam:
    h = omega m + (lam/2j) m^2 applied for tau/4 = 2 pi 2j / lam / 4, in
    that order of float operations."""
    tj = state.j.twice_value
    m = m_values(state.j)
    h = omega * m + (lam / tj) * (m * m)
    quarter = 2.0 * math.pi * tj / lam / 4.0
    return SpinState(state.j, np.exp(-1j * h * quarter) * state.amplitudes).amplitudes


def apply_phase_shift(state: TwoModeState, phi: float) -> TwoModeState:
    """Phase shift in the a arm: amplitude at n_a picks up e^{-i n_a phi}."""
    n_a = np.arange(state.n_total + 1)
    return TwoModeState(state.n_total, state.amplitudes * np.exp(-1j * phi * n_a))


def extreme_coherence_matrix(n_total: int) -> np.ndarray:
    """|N,0><0,N| + |0,N><N,0| on the fixed-N sector."""
    mat = np.zeros((n_total + 1, n_total + 1), dtype=complex)
    mat[-1, 0] = 1.0
    mat[0, -1] = 1.0
    return mat


def steepest_point_uncertainty(state: TwoModeState) -> float:
    """delta A / |d<A>/dphi| for A = extreme_coherence_matrix at the phase where
    a centered difference of <A> is steepest: a 256-point sweep of one fringe
    period, then 200 finer steps across the best coarse point."""
    a_mat = extreme_coherence_matrix(state.n_total)

    def moments(phi):
        psi = apply_phase_shift(state, phi).amplitudes
        return np.vdot(psi, a_mat @ psi).real, np.vdot(psi, a_mat @ a_mat @ psi).real

    def slope(phi, step):
        return (moments(phi + step)[0] - moments(phi - step)[0]) / (2.0 * step)

    coarse = 2.0 * math.pi / state.n_total / 256
    best = max(np.arange(256) * coarse, key=lambda p: abs(slope(p, coarse)))
    fine = coarse / 100
    best = max(best + np.arange(-100, 101) * fine, key=lambda p: abs(slope(p, fine)))
    mean, mean_sq = moments(best)
    return math.sqrt(mean_sq - mean**2) / abs(slope(best, fine))


def binomial_probe_amplitudes(n_total: int) -> np.ndarray:
    """50/50 beam-split single-mode input: n_a ~ Binomial(N, 1/2)."""
    k = np.arange(n_total + 1)
    probs = np.array([math.comb(n_total, int(kk)) for kk in k], dtype=float) / 2.0**n_total
    return np.sqrt(probs).astype(complex)


def unitarity_residual(op: SpinOperator) -> float:
    """||M^dag M - 1||_F / dim."""
    d = op.j.dim
    return float(np.linalg.norm(op.matrix.conj().T @ op.matrix - np.eye(d)) / d)


def identity(j: HalfInteger) -> SpinOperator:
    return SpinOperator(j, np.eye(j.dim, dtype=np.complex128))


def commutator(a: SpinOperator, b: SpinOperator) -> SpinOperator:
    return SpinOperator(a.j, a.matrix @ b.matrix - b.matrix @ a.matrix)


def expectation(op: SpinOperator, state: SpinState) -> complex:
    """<state| op |state>."""
    if op.j != state.j:
        raise IrrepMismatch("operator and state from different irreps")
    return complex(np.vdot(state.amplitudes, op.matrix @ state.amplitudes))


def jy_extremal_states(j: HalfInteger) -> tuple[SpinState, SpinState]:
    """Eigenvectors of Jy with eigenvalues (+j, -j), in that order, by dense eigh.

    Each returned state is phase-aligned to the coherent state it coincides
    with; under the package's conventions |j,+i> is the -j eigenstate and
    |j,-i> the +j one (the pairing is frozen by a convention test).
    """
    _, vecs = np.linalg.eigh(jy(j).matrix)
    plus, minus = vecs[:, -1], vecs[:, 0]

    def aligned(vec: np.ndarray, target: SpinState) -> SpinState:
        ov = np.vdot(vec, target.amplitudes)
        if abs(ov) > 0:
            vec = vec * (ov / abs(ov))
        return SpinState(j, vec)

    return (
        aligned(plus, coherent_expansion(j, -1j)),
        aligned(minus, coherent_expansion(j, 1j)),
    )


def csv_text(header, columns) -> str:
    """A table as the CLI writes it, one repr per cell: the per-cell route."""
    columns = [np.asarray(column).tolist() for column in columns]
    lines = [",".join(header) + "\n"]
    lines += [",".join(map(repr, row)) + "\n" for row in zip(*columns)]
    return "".join(lines)


def chained_generators(j: HalfInteger) -> dict[str, SpinOperator]:
    """J+, J-, Jx, Jy, Jz and the Casimir, each built from scratch as
    J- = (J+)^dag, Jx = (J+ + J-)/2, Jy = (J+ - J-)/2i: the chained
    expressions su2's builders must match bit for bit."""
    m = m_values(j)[:-1]
    plus = SpinOperator(j, np.diag(np.sqrt(j.casimir_eigenvalue() - m * (m + 1)), k=-1).astype(np.complex128))
    minus = plus.dagger()
    x = SpinOperator(j, (plus.matrix + minus.matrix) / 2.0)
    y = SpinOperator(j, (plus.matrix - minus.matrix) / 2.0j)
    z = SpinOperator(j, np.diag(m_values(j)).astype(np.complex128))
    cas = SpinOperator(j, x.matrix @ x.matrix + y.matrix @ y.matrix + z.matrix @ z.matrix)
    return {"jplus": plus, "jminus": minus, "jx": x, "jy": y, "jz": z, "casimir": cas}


def rotation_operator_dense(j: HalfInteger, gamma) -> SpinOperator:
    """exp(i theta (sin phi Jx + cos phi Jy)) for gamma = e^{i phi} tan(theta/2),
    by dense eigh of the complex generator."""
    g = as_label(gamma).gamma
    theta, phi = 2.0 * math.atan(abs(g)), float(np.angle(g))
    gen = -theta * (math.sin(phi) * jx(j).matrix + math.cos(phi) * jy(j).matrix)
    return expm_hermitian(SpinOperator(j, gen), 1.0)


def x_rotation_dense(j: HalfInteger, angle: float) -> SpinOperator:
    """exp(-i angle Jx) by dense eigh of the complex Jx."""
    return expm_hermitian(jx(j), angle)


def quarter_period_unitary_dense(j: HalfInteger, omega: float = 0.0, axis: str = "z") -> SpinOperator:
    """exp(-i H tau/4), tau/4 = pi j, by dense eigh of the twist Hamiltonian."""
    return expm_hermitian(kerr_hamiltonian(j, omega, axis), math.pi * j.twice_value / 2.0)


def ladder_residuals_dense(j: HalfInteger, ladder: np.ndarray) -> tuple[float, float]:
    """verify's (commutator, Casimir) residuals from dense matrices built on `ladder`:
    max ||[J+, J-] - 2Jz||, ||[Jz, J+] - J+|| and ||C - j(j+1)||, each over d."""
    d = j.dim
    plus = np.diag(ladder, k=-1).astype(np.complex128)
    minus = plus.conj().T
    z = np.diag(m_values(j)).astype(np.complex128)
    x, y = (plus + minus) / 2.0, (plus - minus) / 2.0j
    comm = max(
        np.linalg.norm(plus @ minus - minus @ plus - 2.0 * z) / d,
        np.linalg.norm(z @ plus - plus @ z - plus) / d,
    )
    cas = np.linalg.norm(x @ x + y @ y + z @ z - j.casimir_eigenvalue() * np.eye(d)) / d
    return comm, cas


def jx_eigensystem_residual_dense(j: HalfInteger, v: np.ndarray) -> float:
    """max(||Jx V - V diag(m)||_F / d, max |V^T V - I|) with the dense Jx."""
    return max(
        np.linalg.norm(jx(j).matrix @ v - v * m_values(j)) / j.dim,
        float(np.max(np.abs(v.T @ v - np.eye(j.dim)))),
    )


def sector_mode_operators(n_total: int) -> dict[str, np.ndarray]:
    """Bilinear mode operators on the N-photon sector, n_a = 0..N, from the
    occupations alone: 'adag_b' has sqrt((n_a + 1) n_b) below the diagonal,
    'a_bdag' is its adjoint, 'num_a' and 'num_b' are diagonal."""
    n_a = np.arange(n_total + 1, dtype=float)
    n_b = n_total - n_a
    adag_b = np.diag(np.sqrt((n_a[:-1] + 1.0) * n_b[:-1]), k=-1).astype(np.complex128)
    return {
        "adag_b": adag_b,
        "a_bdag": adag_b.conj().T,
        "num_a": np.diag(n_a).astype(np.complex128),
        "num_b": np.diag(n_b).astype(np.complex128),
    }


def schwinger_residual_dense(j: HalfInteger, ops=None) -> float:
    """The mode-built generators on the N = 2j sector against the dense spin
    matrices, J^2 = J0(J0 + 1) and J0 = j, largest Frobenius residual.
    `ops` defaults to `sector_mode_operators(2j)`."""
    if ops is None:
        ops = sector_mode_operators(j.twice_value)
    jp_f, jm_f = ops["adag_b"], ops["a_bdag"]
    jz_f = (ops["num_a"] - ops["num_b"]) / 2.0
    j0 = (ops["num_a"] + ops["num_b"]) / 2.0
    jx_f = (jp_f + jm_f) / 2.0
    jy_f = (jp_f - jm_f) / 2.0j
    eye = np.eye(j.dim)
    jsq = jx_f @ jx_f + jy_f @ jy_f + jz_f @ jz_f
    return float(
        max(
            np.linalg.norm(jp_f - jplus(j).matrix),
            np.linalg.norm(jm_f - jminus(j).matrix),
            np.linalg.norm(jz_f - jz(j).matrix),
            np.linalg.norm(jsq - j0 @ (j0 + eye)),
            np.linalg.norm(j0 - j.value * eye),
        )
    )
