import contextlib
import dataclasses
import io
import itertools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import csv_text
from spincat import HalfInteger, cat_scan, coherent_expansion, husimi_grid, make_noon, noon_state, scaling_table
from spincat import cli, coherent, dynamics, verify
from spincat.cli import main, parse_complex
from spincat.statefile import load_spin_state, load_two_mode_state, save_state
from spincat.verify import _algebra_section, _cat_section, run_suite


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def last_json(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


def test_parse_complex_forms():
    assert parse_complex("0+1i") == 1j
    assert parse_complex("0.5-0.25j") == 0.5 - 0.25j
    assert parse_complex("2") == 2.0
    assert math.isinf(abs(parse_complex("inf")))
    with pytest.raises(Exception):
        parse_complex("zz")


def test_an_overflowed_gamma_is_refused_not_read_as_the_pole(tmp_path, capsys):
    # complex("1e400") is infinite, but only an infinity spelled out names the pole.
    out = tmp_path / "c.json"
    rc, stdout, err = run(capsys, "coherent", "--twice-j", "2", "--gamma=1e400", "--out", str(out))
    assert (rc, stdout) == (2, "")
    assert "argument --gamma: '1e400' is past the float range, so it is not finite" in err
    assert not out.exists()


@pytest.mark.parametrize("gamma", ["inf", "+inf", "infinity", "-inf", "infj"])
def test_a_spelled_out_infinity_is_the_pole(tmp_path, capsys, gamma):
    out = tmp_path / "c.json"
    rc, _, err = run(capsys, "coherent", "--twice-j", "2", f"--gamma={gamma}", "--out", str(out))
    assert rc == 0, err
    assert np.array_equal(load_spin_state(out).amplitudes, [0.0, 0.0, 1.0])


def test_coherent_writes_expected_amplitudes(tmp_path, capsys):
    out = tmp_path / "c.json"
    rc, stdout, _ = run(capsys, "coherent", "--twice-j", "2", "--gamma", "0+1i", "--out", str(out))
    assert rc == 0
    assert last_json(stdout)["twice_j"] == 2
    state = load_spin_state(out)
    assert np.allclose(state.amplitudes, [0.5, 1j / math.sqrt(2), -0.5], atol=1e-12)


def test_coherent_past_float_binomials(tmp_path, capsys):
    # C(2000, 1000) overflows a float; the weights take the log form there.
    out = tmp_path / "c.json"
    rc, _, err = run(capsys, "coherent", "--twice-j", "2000", "--gamma", "1", "--out", str(out))
    assert rc == 0, err
    assert load_spin_state(out).j.twice_value == 2000


def test_negative_gamma_needs_equals_form(tmp_path, capsys):
    # "--gamma -1.0+0.5i" reads as an option to argparse; "--gamma=..." does not.
    out = tmp_path / "c.json"
    rc, _, _ = run(capsys, "coherent", "--twice-j", "2", "--gamma=-1.0+0.5i", "--out", str(out))
    assert rc == 0
    expected = coherent_expansion(HalfInteger(2), -1.0 + 0.5j)
    assert load_spin_state(out).amplitudes.tobytes() == expected.amplitudes.tobytes()


def test_coherent_theta_zero_hits_lowest_weight(tmp_path, capsys):
    out = tmp_path / "c.json"
    rc, _, _ = run(capsys, "coherent", "--twice-j", "2", "--theta", "0", "--out", str(out))
    assert rc == 0
    state = load_spin_state(out)
    assert state.amplitudes[0] == 1.0


def test_coherent_argument_conflicts(tmp_path, capsys):
    out = tmp_path / "c.json"
    rc, _, _ = run(capsys, "coherent", "--twice-j", "2", "--theta", "1", "--gamma", "1", "--out", str(out))
    assert rc == 2
    rc, _, _ = run(capsys, "coherent", "--twice-j", "2", "--out", str(out))
    assert rc == 2
    # missing --out is a usage error too
    rc, _, _ = run(capsys, "coherent", "--twice-j", "2", "--gamma", "1")
    assert rc == 2


WRITERS = {
    # save_state
    "coherent": ("coherent", "--twice-j", "2", "--gamma", "1"),
    "cat": ("cat", "--twice-j", "4", "--gamma", "0+1i"),
    "noon": ("noon", "--n", "4"),
    # _write_csv
    "husimi": ("husimi", "--in", "{dir}/c.json", "--n-theta", "3", "--n-phi", "2"),
    "scan": ("scan", "--twice-j-list", "2"),
    "metrology": ("metrology", "--n-list", "1,2"),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_write_failure_is_io_error(tmp_path, capsys, writer):
    # Every writer lets the OSError reach main, which alone maps it to exit 3.
    save_state(coherent_expansion(HalfInteger(4), 1j), tmp_path / "c.json")
    argv = [a.format(dir=tmp_path) for a in WRITERS[writer]]
    rc, out, err = run(capsys, *argv, "--out", str(tmp_path / "missing" / "o.dat"))
    assert (rc, out) == (3, "")
    assert err.startswith("I/O error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_cat_reports_two_component_fit(tmp_path, capsys):
    out = tmp_path / "cat.json"
    rc, stdout, _ = run(capsys, "cat", "--twice-j", "8", "--gamma", "0+1i", "--out", str(out))
    assert rc == 0
    info = last_json(stdout)
    assert info["two_component_fidelity"] == pytest.approx(1.0, abs=1e-10)
    state = load_spin_state(out)
    assert state.j.twice_value == 8


def test_noon_even_passes_self_check(tmp_path, capsys):
    out = tmp_path / "n.json"
    rc, stdout, _ = run(capsys, "noon", "--n", "2", "--out", str(out))
    assert rc == 0
    info = last_json(stdout)
    assert info["fidelity"] == pytest.approx(1.0, abs=1e-10)
    state = load_two_mode_state(out)
    assert state.n_total == 2


def test_noon_odd_reports_but_exits_zero(tmp_path, capsys):
    rc, stdout, _ = run(capsys, "noon", "--n", "3", "--out", str(tmp_path / "n.json"))
    assert rc == 0
    assert last_json(stdout)["fidelity"] < 0.9


def test_noon_usage_and_self_check_exit_codes(tmp_path, capsys):
    rc, _, _ = run(capsys, "noon", "--n", "0", "--out", str(tmp_path / "n.json"))
    assert rc == 2
    # an omega that breaks the quarter-period phase gate ruins the even-N
    # cat, which the self-check converts to exit 1
    rc, stdout, _ = run(
        capsys, "noon", "--n", "4", "--omega", "0.37", "--out", str(tmp_path / "n.json")
    )
    assert rc == 1
    assert last_json(stdout)["fidelity"] < 1 - 1e-8


def test_husimi_grid_output(tmp_path, capsys):
    state_path = tmp_path / "s.json"
    run(capsys, "coherent", "--twice-j", "20", "--gamma", "inf", "--out", str(state_path))
    csv_path = tmp_path / "q.csv"
    rc, stdout, _ = run(
        capsys, "husimi", "--in", str(state_path), "--n-theta", "13", "--n-phi", "8",
        "--out", str(csv_path),
    )
    assert rc == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "theta,phi,q"
    assert len(lines) == 1 + 13 * 8
    rows = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
    assert all(0.0 <= q <= 1.0 + 1e-12 for _, _, q in rows)
    # all weight on m = +j peaks at theta = pi
    best = max(rows, key=lambda r: r[2])
    assert best[0] == pytest.approx(math.pi)


def test_husimi_cat_shows_two_equatorial_peaks(tmp_path, capsys):
    cat_path = tmp_path / "cat.json"
    run(capsys, "cat", "--twice-j", "20", "--gamma", "0+1i", "--out", str(cat_path))
    rc, stdout, _ = run(capsys, "husimi", "--in", str(cat_path), "--n-theta", "21", "--n-phi", "24")
    assert rc == 0
    lines = stdout.strip().splitlines()
    rows = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
    peaks = sorted(rows, key=lambda r: r[2], reverse=True)[:2]
    for theta, phi, q in peaks:
        assert theta == pytest.approx(math.pi / 2, abs=0.2)
        assert min(abs(phi - math.pi / 2), abs(phi - 3 * math.pi / 2)) < 0.3
        assert q > 0.4
    assert {round(p[1], 2) for p in peaks} == {round(math.pi / 2, 2), round(3 * math.pi / 2, 2)}


def test_husimi_input_errors(tmp_path, capsys):
    rc, _, _ = run(capsys, "husimi", "--in", str(tmp_path / "absent.json"))
    assert rc == 3
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    rc, _, _ = run(capsys, "husimi", "--in", str(bad))
    assert rc == 3
    # A bad size is named by the package's one size rule.
    bad.write_text('{"schema_version": "spin-state/1", "twice_j": true, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}')
    rc, out, err = run(capsys, "husimi", "--in", str(bad))
    assert (rc, out, err) == (3, "", "state file error: twice_j must be an integer >= 0, got True\n")


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity", "1e200"])
def test_husimi_refuses_bad_amplitudes_in_state_file(tmp_path, capsys, bad):
    path = tmp_path / "s.json"
    path.write_text(f'{{"schema_version": "spin-state/1", "twice_j": 1, "amplitudes": [[1.0, 0.0], [0.0, {bad}]]}}')
    rc, out, err = run(capsys, "husimi", "--in", str(path), "--out", str(tmp_path / "h.csv"))
    assert rc == 3
    assert err.count("\n") == 1 and "Warning" not in err
    assert ("state norm inf" if bad == "1e200" else "non-finite entries") in err


@pytest.mark.parametrize(
    "entry",
    ['"10"', "[true, false]", '["1", "0"]', "[1" + "0" * 400 + ", 0]"],
    ids=["string", "bools", "strings", "int-past-float"],
)
def test_husimi_refuses_amplitude_entries_that_are_not_two_numbers(tmp_path, capsys, entry):
    path = tmp_path / "s.json"
    path.write_text(f'{{"schema_version": "spin-state/1", "twice_j": 1, "amplitudes": [{entry}, [0.0, 0.0]]}}')
    rc, out, err = run(capsys, "husimi", "--in", str(path), "--out", str(tmp_path / "h.csv"))
    assert rc == 3
    assert err.count("\n") == 1 and "malformed amplitude entry" in err
    assert not (tmp_path / "h.csv").exists()


def test_scan_csv(tmp_path, capsys):
    rc, stdout, _ = run(capsys, "scan", "--twice-j-list", "1,2,3,4", "--omega", "0")
    assert rc == 0
    lines = stdout.strip().splitlines()
    assert lines[0] == "twice_j,omega,fidelity,coeff_plus_re,coeff_plus_im,coeff_minus_re,coeff_minus_im"
    assert len(lines) == 5
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 7
        int(cells[0])
    fid = {int(ln.split(",")[0]): float(ln.split(",")[2]) for ln in lines[1:]}
    assert fid[2] == pytest.approx(1.0, abs=1e-10)
    assert fid[4] == pytest.approx(1.0, abs=1e-10)
    assert fid[3] == pytest.approx(0.5, abs=1e-10)
    out_path = tmp_path / "scan.csv"
    rc, stdout, _ = run(
        capsys, "scan", "--twice-j-list", "2", "--omega", "0,0.5", "--out", str(out_path)
    )
    assert rc == 0
    assert last_json(stdout)["rows"] == 2
    assert len(out_path.read_text().strip().splitlines()) == 3


def test_metrology_csv(capsys):
    rc, stdout, _ = run(capsys, "metrology", "--n-list", "1,2,4,8,16")
    assert rc == 0
    lines = stdout.strip().splitlines()
    assert lines[0] == "N,delta_phi_noon,delta_phi_sql_reference,qfi"
    assert len(lines) == 6
    for ln in lines[1:]:
        n, dphi, sql, qfi = ln.split(",")
        assert float(dphi) == pytest.approx(1.0 / int(n), abs=1e-9)
        assert float(sql) == pytest.approx(1.0 / math.sqrt(int(n)), abs=1e-12)
    rc, _, _ = run(capsys, "metrology", "--n-list", "0,2")
    assert rc == 2


def test_verify_small_run_passes(capsys):
    rc, stdout, err = run(capsys, "verify", "--max-twice-j", "12")
    assert rc == 0
    info = last_json(stdout)
    assert info["passed"] is True
    assert info["sections"] >= 5
    lines = err.splitlines()
    assert len(lines) == info["checks"]
    assert all(re.fullmatch(r"\[PASS\] [\w-]+: .+  worst \S+ \([<>]= \S+\)", ln) for ln in lines)


# What `spincat verify --max-twice-j 60` reports, in order: a check that is
# dropped, renamed or moved shows here, not only in the count.
VERIFY_REPORT_60 = [
    ("algebra", "commutators on the ladder band, 2j<=60"),
    ("algebra", "casimir diagonal = j(j+1)"),
    ("algebra", "Jx eigensystem, 2j<=60"),
    ("coherent", "rotation vs expansion, 2j<=30"),
    ("coherent", "constructed norms"),
    ("coherent", "stereographic round trip"),
    ("coherent", "pole and origin support"),
    ("coherent", "equatorial antipodality"),
    ("cat-identity", "fidelity, integer j<=30"),
    ("cat-identity", "relative phase pi/2 + j*pi"),
    ("rotated-identity", "both routes vs prediction, j<=30"),
    ("schwinger", "mode-operator residuals, 2j<=40"),
    ("schwinger", "extremal mapping and round trip"),
    ("noon-pipeline", "fidelity, even N<=60, both routes"),
    ("noon-pipeline", "off-support mass"),
    ("metrology", "N * delta_phi = 1, N<=100"),
    ("metrology", "pipeline QFI = N^2, even N<=60"),
    ("metrology", "fringe frequency = N"),
    ("metrology", "Cramer-Rao consistency"),
]


def test_verify_report_shape_is_pinned(capsys):
    rc, stdout, err = run(capsys, "verify", "--max-twice-j", "60")
    info = last_json(stdout)
    assert (rc, info["passed"], info["sections"], info["checks"]) == (0, True, 7, 19)
    printed = [re.fullmatch(r"\[PASS\] (.+?): (.+?) +worst \S+ \(<= \S+\)", ln).groups() for ln in err.splitlines()]
    assert printed == VERIFY_REPORT_60
    assert [(r.section, r.name) for r in run_suite(60)] == VERIFY_REPORT_60


@pytest.mark.parametrize("max_twice_j", [128, 200])
def test_verify_algebra_holds_past_2j_128(max_twice_j):
    # Rounding in [C, J] grows like j^3; a fixed 1e-12 failed from 2j = 128 on.
    results = list(_algebra_section(max_twice_j))
    assert all(r.passed for r in results), [r.detail for r in results]


def test_csv_cells_are_the_library_values(tmp_path, capsys):
    state_path = tmp_path / "cat.json"
    run(capsys, "cat", "--twice-j", "12", "--gamma", "0.3+0.8i", "--out", str(state_path))
    # 65 x 64 = 4160 rows, more than one block of cli.CSV_BLOCK_ROWS
    thetas, phis, q = husimi_grid(load_spin_state(state_path), 65, 64)
    scan_rows = cat_scan([HalfInteger(tj) for tj in (1, 2, 5)], [0.0, 0.3])
    cases = [
        (
            ("husimi", "--in", str(state_path), "--n-theta", "65", "--n-phi", "64"),
            [(t, p, q[i, k]) for i, t in enumerate(thetas) for k, p in enumerate(phis)],
        ),
        (
            ("scan", "--twice-j-list", "1,2,5", "--omega", "0,0.3"),
            [
                (r.twice_j, r.omega, r.fidelity, r.coeff_plus.real, r.coeff_plus.imag, r.coeff_minus.real, r.coeff_minus.imag)
                for r in scan_rows
            ],
        ),
        (("metrology", "--n-list", "1,3,10"), [dataclasses.astuple(r) for r in scaling_table([noon_state(n) for n in [1, 3, 10]])]),
    ]
    out_path = tmp_path / "t.csv"
    for argv, want in cases:
        rc, stdout, _ = run(capsys, *argv)
        assert rc == 0
        rc, _, _ = run(capsys, *argv, "--out", str(out_path))
        assert rc == 0
        # bytes, not read_text(), which would turn "\r\n" into "\n"
        for text in (stdout, out_path.read_bytes().decode("utf-8")):
            assert "\r" not in text
            lines = text.split("\n")
            assert lines[-1] == ""
            got = [[float(c) for c in ln.split(",")] for ln in lines[1:-1]]
            assert got == [[float(v) for v in row] for row in want]


def test_csv_bytes_match_one_repr_per_cell(tmp_path, capsys):
    # Equal floats with different bits stay apart: -0.0 is not printed as 0.0.
    rc, stdout, _ = run(capsys, "scan", "--twice-j-list", "2", "--omega=-0.0,0")
    assert rc == 0
    assert [ln.split(",")[1] for ln in stdout.splitlines()[1:]] == ["-0.0", "0.0"]

    # One value on both sides of a block boundary, signed zeros, an int column.
    rows = cli.CSV_BLOCK_ROWS + 3
    same = np.full(rows, 0.1)
    zeros = np.where(np.arange(rows) % 3 == 0, -0.0, 0.0)
    ints = np.arange(rows) % 7 - 3
    tables = [(("a", "b", "c"), (same, zeros, ints)), (("x", "y"), ([], []))]

    state_path = tmp_path / "cat.json"
    run(capsys, "cat", "--twice-j", "12", "--gamma", "0.3+0.8i", "--out", str(state_path))
    # 65 x 64 = 4160 rows, two writer blocks
    thetas, phis, q = husimi_grid(load_spin_state(state_path), 65, 64)
    husimi = (("theta", "phi", "q"), (np.repeat(thetas, 64), np.tile(phis, 65), q.ravel()))
    scan_rows = [
        (r.twice_j, r.omega, r.fidelity, r.coeff_plus.real, r.coeff_plus.imag, r.coeff_minus.real, r.coeff_minus.imag)
        for r in cat_scan([HalfInteger(tj) for tj in (1, 2, 5)], [-0.0, 0.0, 0.3])
    ]
    scan = (
        ("twice_j", "omega", "fidelity", "coeff_plus_re", "coeff_plus_im", "coeff_minus_re", "coeff_minus_im"),
        list(zip(*scan_rows)),
    )
    metrology = (
        ("N", "delta_phi_noon", "delta_phi_sql_reference", "qfi"),
        list(zip(*[dataclasses.astuple(r) for r in scaling_table([noon_state(n) for n in [1, 3, 10]])])),
    )
    for header, columns in tables:
        assert "".join(cli._csv_lines(header, columns)) == csv_text(header, columns)

    out_path = tmp_path / "t.csv"
    for argv, (header, columns) in (
        (("husimi", "--in", str(state_path), "--n-theta", "65", "--n-phi", "64"), husimi),
        (("scan", "--twice-j-list", "1,2,5", "--omega=-0.0,0,0.3"), scan),
        (("metrology", "--n-list", "1,3,10"), metrology),
    ):
        want = csv_text(header, columns)
        rc, stdout, _ = run(capsys, *argv)
        assert rc == 0
        assert stdout == want
        rc, _, _ = run(capsys, *argv, "--out", str(out_path))
        assert rc == 0
        assert out_path.read_bytes() == want.encode("utf-8")


def test_parser_is_reused_across_calls(capsys, monkeypatch):
    rc, _, _ = run(capsys, "metrology", "--n-list", "1")
    assert rc == 0
    # The handler is found when main runs, so a rebound cmd_* is the one called.
    seen = []
    monkeypatch.setattr(cli, "cmd_metrology", lambda parser, args: seen.append(args.n_list) or 0)
    rc, _, _ = run(capsys, "metrology", "--n-list", "2,3")
    assert (rc, seen) == (0, [[2, 3]])
    monkeypatch.undo()

    # A usage error leaves nothing behind for the next call.
    rc, _, _ = run(capsys, "metrology", "--n-list", "0")
    assert rc == 2
    rc, stdout, _ = run(capsys, "metrology", "--n-list", "4")
    assert rc == 0
    assert stdout.splitlines()[1].startswith("4,")

    # A given --omega does not leak into the next call's default.
    rc, stdout, _ = run(capsys, "scan", "--twice-j-list", "2", "--omega", "0.5")
    assert rc == 0
    assert stdout.splitlines()[1].split(",")[1] == "0.5"
    rc, stdout, _ = run(capsys, "scan", "--twice-j-list", "2")
    assert rc == 0
    assert [ln.split(",")[1] for ln in stdout.splitlines()[1:]] == ["0.0"]


@pytest.mark.parametrize(
    "argv",
    [
        ("coherent", "--twice-j", "-1", "--gamma", "1", "--out", "{dir}/o.json"),
        ("coherent", "--twice-j", "2", "--gamma", "nan", "--out", "{dir}/o.json"),
        ("noon", "--n", "4", "--omega", "nan", "--out", "{dir}/o.json"),
        ("cat", "--twice-j", "4", "--gamma", "0+1i", "--omega", "inf", "--out", "{dir}/o.json"),
        ("scan", "--twice-j-list", "2", "--omega", "nan"),
        ("scan", "--twice-j-list", "2", "--gamma", "inf"),
        ("husimi", "--in", "{dir}/s.json", "--n-theta", "1"),
        ("husimi", "--in", "{dir}/s.json", "--n-phi", "0"),
        ("verify", "--max-twice-j", "-5"),
        ("scan", "--twice-j-list", "2,-1"),
        ("cat", "--twice-j", "2", "--gamma", "1", "--omega", "1e308", "--out", "{dir}/o.json"),
        ("noon", "--n", "4", "--omega", "1e308", "--out", "{dir}/o.json"),
        ("scan", "--twice-j-list", "2", "--omega", "1e308"),
        ("cat", "--twice-j", "4", "--gamma=0", "--out", "{dir}/o.json"),
        ("cat", "--twice-j", "4", "--gamma", "inf", "--out", "{dir}/o.json"),
        ("scan", "--twice-j-list", "2", "--gamma=0"),
    ],
)
def test_bad_arguments_are_usage_errors(tmp_path, capsys, argv):
    # run() calls main directly, so an escaping exception fails the test
    rc, _, err = run(capsys, *(a.format(dir=tmp_path) for a in argv))
    assert rc == 2
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("cat", "--twice-j", "4", "--gamma=1e-16"),
        ("cat", "--twice-j", "40", "--theta", "1e-17"),
        ("scan", "--twice-j-list", "4,40", "--gamma=1e-16"),
    ],
)
def test_a_label_within_rounding_of_a_pole_is_refused_like_a_pole(tmp_path, capsys, argv):
    # Its two components coincide to rounding, so no fit is reported.
    path = tmp_path / "out"
    rc, out, err = run(capsys, *argv, "--out", str(path))
    assert (rc, out, err) == (2, "", "error: need a label off the poles so the two components differ\n")
    assert not path.exists()
    if argv[0] == "scan":
        # Without --out no CSV line is streamed either.
        assert run(capsys, *argv) == (2, "", "error: need a label off the poles so the two components differ\n")


@pytest.mark.parametrize("gamma", ["0", "inf"])
def test_cat_label_on_a_pole_is_one_library_error(tmp_path, capsys, monkeypatch, gamma):
    # dynamics refuses the label, before it is expanded (~0.1 s at 2j = 20000);
    # the CLI has no rule of its own.
    def expand(j, label):
        raise AssertionError("a refused label was expanded")

    monkeypatch.setattr(cli, "coherent_expansion", expand)
    monkeypatch.setattr(dynamics, "_amplitudes", expand)
    for argv in (("cat", "--twice-j", "20000", "--out", str(tmp_path / "o.json")), ("scan", "--twice-j-list", "20000")):
        rc, out, err = run(capsys, *argv, f"--gamma={gamma}")
        assert (rc, out, err) == (2, "", "error: need a label off the poles so the two components differ\n")
    assert not (tmp_path / "o.json").exists()
    # No row needs the fit, so an empty scan writes its header and succeeds.
    rc, out, _ = run(capsys, "scan", "--twice-j-list", ",", f"--gamma={gamma}")
    assert (rc, out) == (0, "twice_j,omega,fidelity,coeff_plus_re,coeff_plus_im,coeff_minus_re,coeff_minus_im\n")


def test_a_cat_call_builds_its_two_components_once(tmp_path, capsys, monkeypatch):
    # |j,gamma> and |j,-gamma> come from one _amplitudes call per scan or cat,
    # however many omegas follow.
    amplitudes, calls = coherent._amplitudes, []

    def counting(twice_j, labels):
        calls.append(twice_j)
        return amplitudes(twice_j, labels)

    monkeypatch.setattr(coherent, "_amplitudes", counting)
    monkeypatch.setattr(dynamics, "_amplitudes", counting)
    assert len(cat_scan([HalfInteger(400)], np.linspace(0.0, 0.9, 10))) == 10
    assert calls == [400]
    calls.clear()
    rc, _, err = run(capsys, "cat", "--twice-j", "400", "--gamma", "0+1i", "--out", str(tmp_path / "c.json"))
    assert (rc, err, calls) == (0, "", [400])
    # verify's cat identity reads its prediction on the route's basis: one
    # call per (j, gamma), three gammas for each even 2j up to 60.
    calls.clear()
    monkeypatch.setattr(verify, "_amplitudes", counting)
    assert all(r.passed for r in _cat_section(np.random.default_rng(0), 60))
    assert calls == [tj for tj in range(2, 61, 2) for _ in range(3)]


@pytest.mark.parametrize("command", ["coherent", "cat"])
@pytest.mark.parametrize(
    "label, message",
    [
        (("--theta", "nan"), "theta=nan outside [0, pi]"),
        (("--theta", "4"), "theta=4.0 outside [0, pi]"),
        (("--theta", "1", "--phi", "inf"), "phi inf is not finite"),
        (("--theta", "1", "--gamma", "0+1i"), "give exactly one of --theta [--phi] or --gamma"),
        ((), "give exactly one of --theta [--phi] or --gamma"),
    ],
    ids=["theta-nan", "theta-4", "phi-inf", "both", "neither"],
)
def test_a_label_error_names_its_subcommand(tmp_path, capsys, command, label, message):
    # Like argparse's own errors in a subcommand: its usage, then "spincat <cmd>: error:".
    rc, out, err = run(capsys, command, "--twice-j", "4", *label, "--out", str(tmp_path / "o.json"))
    lines = err.splitlines()
    assert (rc, out) == (2, "")
    assert lines[0].startswith(f"usage: spincat {command} ")
    assert lines[-1] == f"spincat {command}: error: {message}"
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("metrology", "--n-list", "1000000000000000000"),
        ("metrology", "--n-list", "100000000000000000000000"),
        ("husimi", "--in", "{dir}/c.json", "--n-theta", "100000000000000000000", "--n-phi", "1"),
        ("noon", "--n", "100000000000000000000000", "--out", "{dir}/n.json"),
    ],
)
def test_sizes_numpy_cannot_describe_are_usage_errors(tmp_path, capsys, argv):
    # Past the longest complex array numpy can describe, numpy raises
    # ValueError rather than MemoryError, and exact binomials never finish;
    # the size is refused before anything runs.
    save_state(coherent_expansion(HalfInteger(4), 1j), tmp_path / "c.json")
    rc, out, err = run(capsys, *(a.format(dir=tmp_path) for a in argv))
    assert (rc, out) == (2, "")
    assert "Traceback" not in err
    assert f"must be < {cli._MAX_LENGTH}" in err


def test_usage_error_on_unknown_command(capsys):
    rc, _, _ = run(capsys, "frobnicate")
    assert rc == 2


def test_memory_error_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # A size whose arrays cannot be allocated exits 2 with one error line;
    # the handler raises instead of allocating.
    def exhausted(parser, args):
        raise MemoryError

    monkeypatch.setattr(cli, "cmd_noon", exhausted)
    rc, out, err = run(capsys, "noon", "--n", "100000", "--out", str(tmp_path / "n.json"))
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("coherent", "--twice-j", "100000000000000000", "--gamma", "1", "--out", "{dir}/c.json"),
        ("noon", "--n", "100000000000000000", "--out", "{dir}/n.json"),
    ],
)
def test_a_size_past_memory_exits_2_before_the_exact_binomials(tmp_path, capsys, argv):
    # 2j + 1 floats past any address space, though numpy can describe the
    # array: the binomial table is allocated before its exact loop, so
    # numpy's MemoryError comes at once, not after 10^17 big-int steps.
    rc, out, err = run(capsys, *(a.format(dir=tmp_path) for a in argv))
    assert (rc, out, err) == (2, "", "error: out of memory for this size\n")
    assert not list(tmp_path.iterdir())


SIZES = ("0", "1", "7", "20", "2000", "-1", "x")
FLOATS = ("0", "0.5", "nan", "inf", "1e400", "1e308", "x")
GAMMAS = ("0+1i", "-0.5+2i", "inf", "nan", "0", "1e400")
LISTS = ("1,2", "0", "2,-1", "1,,2", "x")
IN_PATHS = ("{dir}/spin.json", "{dir}/two_mode.json", "{dir}/empty.json", "{dir}/missing.json")
OUT_PATHS = ("{dir}/out.dat", "{dir}")


def _sizes(at_most):
    return tuple(s for s in SIZES if not s.isdigit() or int(s) <= at_most)


def _flag(flag, pool, required=False):
    """[flag, value] with a value from `pool`; an optional flag may be left out."""
    given_flag = st.sampled_from(pool).map(lambda value: [flag, value])
    return given_flag if required else st.one_of(st.just([]), given_flag)


_GAMMA = st.one_of(st.just([]), st.sampled_from(GAMMAS).map(lambda g: [f"--gamma={g}"]))
_LABEL = (_flag("--theta", FLOATS), _flag("--phi", FLOATS), _GAMMA)

# Sizes are capped per command so that an example stays cheap: N <= 64,
# Husimi grids of at most 10 x 10, verify up to 2j = 4; only coherent, cat
# and scan reach 2j = 2000.
FUZZ_COMMANDS = {
    "coherent": (_flag("--twice-j", SIZES, True), *_LABEL, _flag("--out", OUT_PATHS, True)),
    "cat": (_flag("--twice-j", SIZES, True), *_LABEL, _flag("--omega", FLOATS), _flag("--out", OUT_PATHS, True)),
    "noon": (
        _flag("--n", _sizes(64), True),
        _flag("--omega", FLOATS),
        _flag("--gamma-choice", ("i", "1")),
        _flag("--out", OUT_PATHS, True),
    ),
    "husimi": (
        _flag("--in", IN_PATHS, True),
        _flag("--n-theta", _sizes(10), True),
        _flag("--n-phi", _sizes(10), True),
        _flag("--out", OUT_PATHS),
    ),
    "scan": (_flag("--twice-j-list", (*LISTS, "2000"), True), _flag("--omega", LISTS), _GAMMA, _flag("--out", OUT_PATHS)),
    "metrology": (_flag("--n-list", LISTS, True), _flag("--out", OUT_PATHS)),
    "verify": (_flag("--max-twice-j", _sizes(4), True),),
}

cli_argv = st.sampled_from(sorted(FUZZ_COMMANDS)).flatmap(
    lambda cmd: st.tuples(*FUZZ_COMMANDS[cmd]).map(lambda parts: [cmd, *itertools.chain(*parts)])
)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    save_state(coherent_expansion(HalfInteger(4), 1j), d / "spin.json")
    save_state(make_noon(4), d / "two_mode.json")
    (d / "empty.json").write_text("{}")
    return d


@given(argv=cli_argv)
@settings(max_examples=150, deadline=None)
def test_cli_exit_codes_under_fuzzed_arguments(fuzz_dir, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main([a.format(dir=fuzz_dir) for a in argv])
    assert rc in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if rc == 1:
        assert "self-check failed" in err.getvalue()
