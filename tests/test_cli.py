import json
import math

import numpy as np
import pytest

from spincat import HalfInteger, coherent_expansion
from spincat.cli import main, parse_complex
from spincat.statefile import load_spin_state, load_two_mode_state


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


def test_coherent_writes_expected_amplitudes(tmp_path, capsys):
    out = tmp_path / "c.json"
    rc, stdout, _ = run(capsys, "coherent", "--twice-j", "2", "--gamma", "0+1i", "--out", str(out))
    assert rc == 0
    assert last_json(stdout)["twice_j"] == 2
    state = load_spin_state(out)
    assert np.allclose(state.amplitudes, [0.5, 1j / math.sqrt(2), -0.5], atol=1e-12)


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


def test_coherent_write_failure_is_io_error(tmp_path, capsys):
    rc, _, err = run(
        capsys, "coherent", "--twice-j", "2", "--gamma", "1",
        "--out", str(tmp_path / "missing" / "c.json"),
    )
    assert rc == 3


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


def test_scan_csv(tmp_path, capsys):
    rc, stdout, _ = run(capsys, "scan", "--twice-j-list", "1,2,3,4", "--omega", "0")
    assert rc == 0
    lines = stdout.strip().splitlines()
    assert lines[0].startswith("twice_j,omega,fidelity")
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
    assert "[PASS]" in err


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
    ],
)
def test_bad_arguments_are_usage_errors(tmp_path, capsys, argv):
    # run() calls main directly, so an escaping exception fails the test
    rc, _, err = run(capsys, *(a.format(dir=tmp_path) for a in argv))
    assert rc == 2
    assert "Traceback" not in err


def test_usage_error_on_unknown_command(capsys):
    rc, _, _ = run(capsys, "frobnicate")
    assert rc == 2
