"""Command-line front door.

Exit codes: 0 success, 1 contract/self-check failure, 2 usage error,
3 I/O error.  Machine-readable one-line JSON summaries go to stdout;
human-readable logs go to stderr (ANSI styling only on a tty and when
NO_COLOR is unset).  CSV-producing commands write to --out when given,
otherwise stream the CSV to stdout.  This is the one module that formats
output: the library returns data, and every table is written here.

Commands raise; `main` alone maps an exception to an exit code and one
stderr line: state-file and other I/O errors exit 3, a `SpinCatError` the
library raises on purpose or an unallocatable size exits 2.
"""
from __future__ import annotations

import argparse
import cmath
import functools
import json
import os
import sys

import numpy as np

from . import __version__
from .coherent import BlochDirection, SpinorLabel, as_label, coherent_expansion, husimi_grid, stereographic
from .dynamics import _quarter_period_cats, cat_scan
from .errors import SpinCatError, StateFileError, _finite, _size
from .halfint import HalfInteger
from .metrology import scaling_table
from .schwinger import make_noon, noon_fidelity, noon_state, off_support_mass
from .statefile import load_spin_state, save_state
from .verify import all_passed, run_suite

EXIT_OK = 0
EXIT_CONTRACT = 1
EXIT_USAGE = 2
EXIT_IO = 3

NOON_SELF_CHECK = 1e-8

# CSV cells are converted this many rows at a time, so a large grid never
# holds all its cells as Python objects at once.
CSV_BLOCK_ROWS = 4096


def _eprint(msg: str):
    print(msg, file=sys.stderr)


def _style(text: str, code: str) -> str:
    if os.environ.get("NO_COLOR") or not sys.stderr.isatty():
        return text
    return f"\x1b[{code}m{text}\x1b[0m"


def _emit(payload: dict):
    print(json.dumps(payload))


def parse_complex(text: str) -> complex:
    """Accept '0.3+0.4i', '1j', '2', 'inf' (the pole)."""
    cleaned = text.strip().lower().replace(" ", "")
    if cleaned in ("inf", "+inf", "infinity"):
        return complex(float("inf"), 0.0)
    try:
        value = complex(cleaned.replace("i", "j"))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse complex number {text!r}") from exc
    if cmath.isnan(value):
        raise argparse.ArgumentTypeError(f"complex number {text!r} has a NaN part")
    return value


# The longest complex128 array numpy can describe: allocating it raises
# MemoryError, a usage error, and one element more raises ValueError.
_MAX_LENGTH = np.iinfo(np.intp).max // np.dtype(np.complex128).itemsize


def _int_at_least(lo: int):
    """argparse type: an integer >= lo, and with size + 1 <= _MAX_LENGTH (2j, N and grid sizes)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad integer {text!r}") from exc
        if _size(value, lo, argparse.ArgumentTypeError, "value") + 1 > _MAX_LENGTH:
            raise argparse.ArgumentTypeError(f"must be < {_MAX_LENGTH}, got {value}")
        return value

    return parse


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad number {text!r}") from exc
    return _finite(value, argparse.ArgumentTypeError, "value")


def _list_of(parse):
    """argparse type: comma-separated values, blank entries skipped, each read by `parse`."""

    def parse_list(text: str) -> list:
        return [parse(tok) for tok in text.split(",") if tok.strip()]

    return parse_list


def _resolve_label(parser, args) -> SpinorLabel:
    if (args.theta is None) == (args.gamma is None):
        parser.error("give exactly one of --theta [--phi] or --gamma")
    if args.gamma is not None:
        return as_label(args.gamma)
    try:
        return stereographic(BlochDirection(args.theta, args.phi))
    except ValueError as exc:
        parser.error(str(exc))


def _csv_lines(header, columns):
    """CSV text of equal-length columns under `header`, one string per block.

    Each cell is the repr of a Python int or float (shortest round-trip
    form) and each line ends in a bare newline; with no rows only the
    header comes out.  Within a block of CSV_BLOCK_ROWS rows each column
    formats each distinct bit pattern once and gathers the strings back
    into row order, which gives the same bytes as one repr per cell.
    """
    yield ",".join(header) + "\n"
    columns = [np.asarray(column) for column in columns]
    for start in range(0, len(columns[0]), CSV_BLOCK_ROWS):
        cells = []
        for column in columns:
            block = column[start : start + CSV_BLOCK_ROWS]
            # Keyed on the bits, not the value: float equality would merge -0.0 into 0.0.
            _, first, inverse = np.unique(block.view(f"u{block.itemsize}"), return_index=True, return_inverse=True)
            cells.append(np.array([repr(v) for v in block[first].tolist()], dtype=object)[inverse])
        yield "\n".join(map(",".join, zip(*cells))) + "\n"


def _write_csv(header, columns, out_path, summary: dict) -> int:
    """Write the table to out_path, or to stdout when there is none."""
    lines = _csv_lines(header, columns)
    if out_path is None:
        sys.stdout.writelines(lines)
        return EXIT_OK
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        fh.writelines(lines)
    _emit({**summary, "path": str(out_path)})
    return EXIT_OK


def cmd_coherent(parser, args) -> int:
    label = _resolve_label(parser, args)
    j = HalfInteger(args.twice_j)
    meta = {"kind": "coherent", "twice_j": str(j.twice_value), "label": repr(label.gamma)}
    save_state(coherent_expansion(j, label), args.out, meta)
    _emit({"twice_j": j.twice_value, "dim": j.dim, "path": str(args.out)})
    return EXIT_OK


def cmd_cat(parser, args) -> int:
    label = _resolve_label(parser, args)
    ((evolved, fid, c_plus, c_minus, _),) = _quarter_period_cats(HalfInteger(args.twice_j), label, [args.omega])
    save_state(evolved, args.out, {"kind": "quarter-period-cat", "omega": repr(args.omega), "gamma": repr(label.gamma)})
    _emit(
        {
            "twice_j": args.twice_j,
            "omega": args.omega,
            "two_component_fidelity": fid,
            "coeff_plus": [c_plus.real, c_plus.imag],
            "coeff_minus": [c_minus.real, c_minus.imag],
            "path": str(args.out),
        }
    )
    return EXIT_OK


def cmd_noon(parser, args) -> int:
    state = make_noon(args.n, omega=args.omega, gamma_choice=args.gamma_choice)
    fid, best_phi = noon_fidelity(state)
    save_state(state, args.out, {"kind": "noon-pipeline", "n": str(args.n), "gamma_choice": args.gamma_choice})
    _emit(
        {
            "n": args.n,
            "fidelity": fid,
            "best_phi": best_phi,
            "off_support_mass": off_support_mass(state),
            "path": str(args.out),
        }
    )
    if args.n % 2 == 0 and fid < 1.0 - NOON_SELF_CHECK:
        _eprint(_style(f"self-check failed: even N={args.n} fidelity {fid!r}", "31"))
        return EXIT_CONTRACT
    return EXIT_OK


def cmd_husimi(parser, args) -> int:
    state = load_spin_state(args.input)
    thetas, phis, grid = husimi_grid(state, args.n_theta, args.n_phi)
    return _write_csv(
        ("theta", "phi", "q"),
        (np.repeat(thetas, args.n_phi), np.tile(phis, args.n_theta), grid.ravel()),
        args.out,
        {"twice_j": state.j.twice_value, "n_theta": args.n_theta, "n_phi": args.n_phi, "q_max": float(grid.max())},
    )


def cmd_scan(parser, args) -> int:
    rows = cat_scan([HalfInteger(tj) for tj in args.twice_j_list], args.omega, gamma=args.gamma)
    plus = np.array([r.coeff_plus for r in rows], dtype=complex)
    minus = np.array([r.coeff_minus for r in rows], dtype=complex)
    return _write_csv(
        ("twice_j", "omega", "fidelity", "coeff_plus_re", "coeff_plus_im", "coeff_minus_re", "coeff_minus_im"),
        (
            [r.twice_j for r in rows],
            [r.omega for r in rows],
            [r.fidelity for r in rows],
            plus.real,
            plus.imag,
            minus.real,
            minus.imag,
        ),
        args.out,
        {"rows": len(rows)},
    )


def cmd_metrology(parser, args) -> int:
    rows = scaling_table([noon_state(n) for n in args.n_list])
    fields = ("n_total", "delta_phi_noon", "delta_phi_sql_reference", "qfi")
    return _write_csv(
        ("N", *fields[1:]),
        [[getattr(r, f) for r in rows] for f in fields],
        args.out,
        {"rows": len(rows)},
    )


def cmd_verify(parser, args) -> int:
    results = run_suite(max_twice_j=args.max_twice_j)
    width = max(len(f"{r.section}: {r.name}") for r in results)
    for r in results:
        status = _style("[PASS]", "32") if r.passed else _style("[FAIL]", "31")
        _eprint(f"{status} {f'{r.section}: {r.name}':<{width}}  {r.detail}")
    failures = [f"{r.section}: {r.name}" for r in results if not r.passed]
    _emit(
        {
            "passed": all_passed(results),
            "max_twice_j": args.max_twice_j,
            "sections": len({r.section for r in results}),
            "checks": len(results),
            "failures": failures,
        }
    )
    return EXIT_OK if all_passed(results) else EXIT_CONTRACT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spincat",
        description="Spin coherent states, quarter-period cats, N00N states, and phase-estimation scaling.",
    )
    parser.add_argument("--version", action="version", version=f"spincat {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_label_args(p):
        p.add_argument("--theta", type=float, default=None, help="polar Bloch angle in [0, pi]")
        p.add_argument("--phi", type=float, default=0.0, help="azimuthal Bloch angle")
        p.add_argument("--gamma", type=parse_complex, default=None, help="stereographic label, e.g. 0+1i or inf")

    p = sub.add_parser("coherent", help="write a coherent state file")
    p.add_argument("--twice-j", type=_int_at_least(0), required=True)
    add_label_args(p)
    p.add_argument("--out", required=True)

    p = sub.add_parser("cat", help="quarter-period evolve a coherent state and write it")
    p.add_argument("--twice-j", type=_int_at_least(0), required=True)
    add_label_args(p)
    p.add_argument("--omega", type=_finite_float, default=0.0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("noon", help="run the full N00N pipeline")
    p.add_argument("--n", type=_int_at_least(1), required=True, help="total photon number")
    p.add_argument("--omega", type=_finite_float, default=0.0)
    p.add_argument("--gamma-choice", choices=("i", "1"), default="i")
    p.add_argument("--out", required=True)

    p = sub.add_parser("husimi", help="export an overlap-squared Bloch grid as CSV")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--n-theta", type=_int_at_least(2), default=61)
    p.add_argument("--n-phi", type=_int_at_least(1), default=120)
    p.add_argument("--out", default=None)

    p = sub.add_parser("scan", help="two-component fidelity scan over j and omega")
    p.add_argument("--twice-j-list", type=_list_of(_int_at_least(0)), required=True)
    p.add_argument("--omega", type=_list_of(_finite_float), default=[0.0], help="comma-separated omega values")
    p.add_argument("--gamma", type=parse_complex, default=1j)
    p.add_argument("--out", default=None)

    p = sub.add_parser("metrology", help="phase-uncertainty scaling table")
    p.add_argument("--n-list", type=_list_of(_int_at_least(1)), required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("verify", help="run the full invariant suite")
    p.add_argument("--max-twice-j", type=_int_at_least(0), default=60)

    # A handler's parser.error names its subcommand, as argparse's own errors there do.
    for p in sub.choices.values():
        p.set_defaults(parser=p)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built on its first call."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # The handler is looked up per call, so a rebound cmd_* is the one that runs.
    handler = globals()[f"cmd_{args.command}"]
    try:
        return handler(args.parser, args)
    except SystemExit as exc:  # parser.error inside a handler
        return int(exc.code or 0)
    except StateFileError as exc:
        _eprint(f"state file error: {exc}")
        return EXIT_IO
    except OSError as exc:
        _eprint(f"I/O error: {exc}")
        return EXIT_IO
    except SpinCatError as exc:
        _eprint(f"error: {exc}")
        return EXIT_USAGE
    except MemoryError:
        # A size whose dense arrays cannot be allocated is a usage error,
        # not a failed contract.
        _eprint("error: out of memory for this size")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
