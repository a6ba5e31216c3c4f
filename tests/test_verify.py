"""verify's structured checks: each agrees with its dense oracle and fails
when the structure it reads is corrupted."""
import math

import numpy as np
import pytest

from _oracles import (
    jx_eigensystem_residual_dense,
    ladder_residuals_dense,
    quarter_period_unitary_dense,
    rotation_grid,
    rotation_operator_dense,
    schwinger_residual_dense,
    sector_mode_operators,
)
from spincat import (
    HalfInteger,
    SpinState,
    as_label,
    coherent_expansion,
    mean_spin,
    verify_schwinger_realization,
    weight_state,
)
from spincat import coherent, su2
from spincat import verify
from spincat.verify import (
    _algebra_section,
    _cat_section,
    _coherent_section,
    _jx_eigensystem_residual,
    _ladder_residuals,
    _noon_section,
    _noon_states,
    _rotated_identity_routes,
    _rotated_lowest,
    _rotated_section,
    _schwinger_section,
)

MAX_TJ = 12


@pytest.fixture
def kept_tables():
    """Jx's eigensystem kept for every 2j <= MAX_TJ before a test corrupts the ladder,
    so the kept tables are never built from a corrupted band."""
    for tj in range(MAX_TJ + 1):
        su2._jx_eigensystem(tj)


def _checks(results) -> dict[str, bool]:
    return {r.name.split(",")[0]: r.passed for r in results}


def _corrupt_ladder(monkeypatch, twice_j, corrupt):
    ladder = su2._ladder

    def corrupted(j):
        band = ladder(j)
        if j.twice_value == twice_j:
            band = band.copy()
            corrupt(band)
        return band

    monkeypatch.setattr(su2, "_ladder", corrupted)


def test_nan_in_the_ladder_fails_the_algebra_checks(monkeypatch, kept_tables):
    assert all(_checks(_algebra_section(MAX_TJ)).values())
    _corrupt_ladder(monkeypatch, 7, lambda band: band.__setitem__(3, math.nan))
    results = list(_algebra_section(MAX_TJ))
    assert not any(_checks(results).values())
    assert all("worst nan" in r.detail for r in results)


def test_a_ladder_entry_off_by_1e_9_fails_every_band_check(monkeypatch, kept_tables):
    def scale(band):
        band[4] *= 1.0 + 1e-9

    _corrupt_ladder(monkeypatch, 10, scale)
    assert _checks(_algebra_section(MAX_TJ)) == {
        "commutators on the ladder band": False,
        "casimir diagonal = j(j+1)": False,
        "Jx eigensystem": False,
    }
    assert verify_schwinger_realization(HalfInteger(10)) > 1e-12
    assert verify_schwinger_realization(HalfInteger(9)) <= 1e-12


def _swap_columns(v):
    v = v.copy()
    v[:, [2, 5]] = v[:, [5, 2]]
    return v


def _scale_column(v):
    # Still an eigenvector, but no longer a unit one.
    v = v.copy()
    v[:, 4] *= 1.0 + 1e-9
    return v


@pytest.mark.parametrize("corrupt", [_swap_columns, _scale_column])
def test_a_corrupted_jx_eigensystem_fails_its_check(monkeypatch, corrupt):
    kept = su2._jx_eigensystem

    def corrupted(twice_j):
        return (corrupt(*kept(twice_j)),) if twice_j == 8 else kept(twice_j)

    # su2 is the one module that reads V, so patching it reaches every check.
    monkeypatch.setattr(su2, "_jx_eigensystem", corrupted)
    checks = _checks(_algebra_section(MAX_TJ))
    assert checks.pop("Jx eigensystem") is False
    assert all(checks.values())
    if corrupt is _swap_columns:
        # The coherent rotations and the rotated identity run on the same V.
        assert not _checks(_coherent_section(np.random.default_rng(1), MAX_TJ))["rotation vs expansion"]
        assert not _checks(_rotated_section(MAX_TJ))["both routes vs prediction"]


def test_a_norm_drift_fails_the_constructed_norms_check(monkeypatch):
    # SpinState renormalizes a drift under 1e-9, so the check reads the amplitudes before it.
    # coherent is the one module that reads the weights, so patching it reaches every route.
    weights = coherent._binomial_weights

    def drifted(*args):
        return weights(*args) * (1.0 + 1e-11)

    monkeypatch.setattr(coherent, "_binomial_weights", drifted)
    checks = _checks(_coherent_section(np.random.default_rng(1), MAX_TJ))
    assert checks.pop("constructed norms") is False
    assert all(checks.values())


def _coherent_loop_reference(rng, limit):
    """The rotation, norm, pole and antipodality values of `_coherent_section`, one label at a time:
    a SpinState and two `np.linalg.norm` calls per label, a `coherent_expansion` per state."""
    dist, norms, poles, antis = [], [], [], []
    for tj in range(limit + 1):
        j = HalfInteger(tj)
        labels = [as_label(g) for g in verify._random_gammas(rng, 20)]
        for column, label in zip(_rotated_lowest(j, labels).T, labels):
            raw = coherent._amplitudes(tj, [label])[0]
            dist.append(np.linalg.norm(column - SpinState(j, raw).amplitudes))
            norms.append(abs(np.linalg.norm(raw) - 1.0))
    for tj in (1, 2, 7, 16):
        j = HalfInteger(tj)
        poles.append(np.sum(np.abs(coherent_expansion(j, math.inf).amplitudes[:-1])))
        poles.append(np.sum(np.abs(coherent_expansion(j, 0.0).amplitudes[1:])))
        for phase in rng.uniform(0, 2 * math.pi, 5):
            g = np.exp(1j * phase)
            antis.append(np.max(np.abs(mean_spin(coherent_expansion(j, g)) + mean_spin(coherent_expansion(j, -g)))))
    return {"rotation vs expansion": dist, "constructed norms": norms, "pole and origin support": poles, "equatorial antipodality": antis}


@pytest.mark.parametrize("seed", [0, 1, 20260810])
def test_batched_coherent_checks_give_the_per_label_loop_values(monkeypatch, seed):
    # Each label's numbers, not only the worst: the batch draws the same
    # labels in the same order and rounds every value as the loop does.
    seen = {}

    def record(section, name, values, bound):
        seen[name.split(",")[0]] = np.asarray(values, dtype=float).ravel()
        return verify.CheckResult(section, name, True, "")

    monkeypatch.setattr(verify, "_bound", record)
    list(_coherent_section(np.random.default_rng(seed), 60))
    want = _coherent_loop_reference(np.random.default_rng(seed), 30)
    for name, values in want.items():
        assert np.array_equal(seen[name], np.asarray(values, dtype=float)), name


def test_row_norms_are_np_linalg_norm_bit_for_bit():
    rng = np.random.default_rng(4)
    for d in range(1, 70):
        a = rng.normal(size=(d, 20)) + 1j * rng.normal(size=(d, 20))
        b = rng.normal(size=(20, d)) * np.exp(1j * rng.uniform(-4.0, 4.0, size=(20, d)))
        for rows in (b, a.T, a.T - b):
            assert np.array_equal(verify._row_norms(rows), [np.linalg.norm(row) for row in rows]), d


def _worst(check) -> float:
    return float(check.detail.split()[1])


def test_one_perturbed_rotation_column_fails_only_rotation_vs_expansion(monkeypatch):
    # The 20 labels of each 2j are compared in one batch; a 1e-11 error in
    # one label's column, spread over its d entries, must still be read as
    # that label's distance.
    rotated = verify._rotated_lowest

    def perturbed(j, labels):
        built = rotated(j, labels)
        if j.twice_value == MAX_TJ - 1:
            built[:, 13] += 1e-11 / math.sqrt(j.dim)
        return built

    assert all(_checks(_coherent_section(np.random.default_rng(1), MAX_TJ)).values())
    monkeypatch.setattr(verify, "_rotated_lowest", perturbed)
    results = {r.name.split(",")[0]: r for r in _coherent_section(np.random.default_rng(1), MAX_TJ)}
    assert {name: r.passed for name, r in results.items() if not r.passed} == {"rotation vs expansion": False}
    assert _worst(results["rotation vs expansion"]) == pytest.approx(1e-11, rel=1e-3)


def test_one_perturbed_antipodal_row_fails_only_equatorial_antipodality(monkeypatch):
    # The pole, the origin and each 2j's five +-g come from one batch of
    # rows; an error in one -g row must reach the antipodality check alone.
    amplitudes = verify._amplitudes

    def perturbed(twice_j, labels):
        rows = amplitudes(twice_j, labels)
        if twice_j == 7 and any(as_label(g).u_abs == 0.0 for g in labels):
            rows[-1, 3] += 1e-9
        return rows

    assert all(_checks(_coherent_section(np.random.default_rng(1), MAX_TJ)).values())
    monkeypatch.setattr(verify, "_amplitudes", perturbed)
    checks = _checks(_coherent_section(np.random.default_rng(1), MAX_TJ))
    assert {name for name, passed in checks.items() if not passed} == {"equatorial antipodality"}


@pytest.mark.parametrize("which", [0, 1, 2])
def test_a_perturbed_fock_entry_fails_the_schwinger_check(monkeypatch, which):
    bands = verify._sector_bands

    def corrupted(n_total):
        arrays = [a.copy() for a in bands(n_total)]
        if n_total == 6:
            arrays[which][2] *= 1.0 + 1e-9
        return tuple(arrays)

    monkeypatch.setattr(verify, "_sector_bands", corrupted)
    assert verify_schwinger_realization(HalfInteger(6)) > 1e-12
    assert not _checks(_schwinger_section(MAX_TJ))["mode-operator residuals"]


def _scaled_entry(band, k, factor):
    band = band.copy()
    if band.size:
        band[k % band.size] *= factor
    return band


@pytest.mark.parametrize("factor", [1.0, 1.0 + 1e-6])
def test_band_residuals_agree_with_the_dense_oracle(factor):
    for tj in range(61):
        j = HalfInteger(tj)
        ladder = _scaled_entry(su2._ladder(j), tj // 2, factor)
        got, want = _ladder_residuals(j, ladder), ladder_residuals_dense(j, ladder)
        assert np.allclose(got, want, rtol=1e-6, atol=1e-14), (tj, got, want)
        if factor == 1.0:
            assert max(got) <= 1e-12


@pytest.mark.parametrize("corrupt", [None, _swap_columns, _scale_column])
def test_jx_eigensystem_residual_agrees_with_the_dense_oracle(corrupt):
    for tj in range(6, 61):
        j = HalfInteger(tj)
        (v,) = su2._jx_eigensystem(tj)
        if corrupt is not None:
            v = corrupt(v)
        got = _jx_eigensystem_residual(j, su2._ladder(j), v)
        want = jx_eigensystem_residual_dense(j, v)
        assert got == pytest.approx(want, rel=1e-6, abs=1e-13), tj
        assert (got <= 1e-12) == (corrupt is None)


@pytest.mark.parametrize("factor", [1.0, 1.0 + 1e-6])
def test_schwinger_residual_agrees_with_the_dense_oracle(monkeypatch, factor):
    bands = verify._sector_bands

    def scaled(n_total):
        n_a, n_b, lower = bands(n_total)
        return n_a, n_b, _scaled_entry(lower, n_total // 2, factor)

    monkeypatch.setattr(verify, "_sector_bands", scaled)
    for tj in range(61):
        j = HalfInteger(tj)
        # The oracle's sector comes from the occupations alone; scale the same entry there.
        ops = sector_mode_operators(tj)
        if tj:
            k = (tj // 2) % tj
            ops["adag_b"][k + 1, k] *= factor
            ops["a_bdag"][k, k + 1] *= factor
        got, want = verify_schwinger_realization(j), schwinger_residual_dense(j, ops)
        # Uncorrupted, both sit under the 1e-12 contract; the dense J^2 rounds more.
        assert got == pytest.approx(want, rel=1e-6, abs=1e-12), tj


def test_rotated_lowest_is_column_0_of_rotation_operator():
    # Every label of a 2j in one batch, across the kept/fresh boundary of Jx's
    # eigensystem at 2j = 64; test_coherent checks 2j <= 61 the same way.
    for j, labels in rotation_grid():
        if j.twice_value < 64:
            continue
        for column, g in zip(_rotated_lowest(j, labels).T, labels):
            assert np.max(np.abs(column - rotation_operator_dense(j, g).matrix[:, 0])) <= 1e-13, (j, g)


def test_rotated_identity_routes_match_the_dense_oracle():
    # Every 2j <= 60, and across the kept/fresh boundary of Jx's eigensystem at 2j = 64.
    for tj in [*range(2, 61, 2), 62, 64, 66, 130, 202]:
        j, jj = HalfInteger(tj), tj // 2
        # Both routes take their phases on the exact m; what is left is eigh's
        # error in V, which grows like ||Jx|| = j, as verify's Jx check scales it.
        bound = 1e-12 * max(1.0, jj / 30.0)
        # omega tau/4 = 2 pi j clears the linear phase, so the two routes agree.
        for omega in (0.0, 2.0):
            want = quarter_period_unitary_dense(j, omega, "y").apply(weight_state(j, 2 * jj)).amplitudes
            for route in _rotated_identity_routes(j, omega):
                assert np.max(np.abs(route.amplitudes - want)) <= bound, (jj, omega)


def _fidelity_check(section):
    (check,) = [r for r in section() if r.name.startswith(("fidelity", "both routes"))]
    return check


# (the name verify reads a fidelity through, a fake returning fidelity f, the section)
FIDELITY_CHECKS = [
    pytest.param(
        "fidelity",
        lambda f: lambda evolved, prediction: f,
        lambda: _cat_section(np.random.default_rng(1), MAX_TJ),
        id="cat",
    ),
    pytest.param(
        "fidelity",
        lambda f: lambda a, b: f,
        lambda: _rotated_section(MAX_TJ),
        id="rotated",
    ),
    pytest.param(
        "noon_fidelity",
        lambda f: lambda out: (f, 0.0),
        lambda: _noon_section(MAX_TJ, _noon_states(MAX_TJ)),
        id="noon",
    ),
]


@pytest.mark.parametrize(
    "fid,shown",
    [
        pytest.param(1.0 - 2e-10, "worst 2.000e-10 (<= 1.0e-10)", id="deficit-2e-10"),
        pytest.param(math.nan, "worst nan (<= 1.0e-10)", id="nan"),
    ],
)
@pytest.mark.parametrize("name,fake,section", FIDELITY_CHECKS)
def test_a_fidelity_check_fails_and_shows_the_deficit(monkeypatch, name, fake, section, fid, shown):
    assert _fidelity_check(section).passed
    monkeypatch.setattr(verify, name, fake(fid))
    check = _fidelity_check(section)
    assert not check.passed
    assert check.detail == shown
