"""Defect probes: known cliffs, measured so that their fix shows.

Probes are not timed and their outcomes are not counted as failed ops.
"""
from __future__ import annotations

import contextlib
import io
from pathlib import Path

from spincat import cli, coherent, halfint

OVERFLOW_PROBE_LIMIT = 20000

# argv that should fail with a documented exit code, not an exception.
BAD_ARGV = (
    ("coherent", "--twice-j", "-1", "--gamma", "1", "--out", "{dir}/bad.json"),
    ("coherent", "--twice-j", "2000", "--gamma", "1", "--out", "{dir}/bad.json"),
    ("noon", "--n", "4", "--omega", "nan", "--out", "{dir}/bad.json"),
    ("verify", "--max-twice-j", "-5"),
)


def _expansion_raises(twice_j: int) -> bool:
    try:
        coherent.coherent_expansion(halfint.HalfInteger(twice_j), 1j)
    except Exception:  # any exception is the defect being probed
        return True
    return False


def overflow_twice_j(limit: int = OVERFLOW_PROBE_LIMIT) -> int:
    """Smallest 2j <= limit at which coherent_expansion raises; limit + 1 if none.

    Scans 2j = 2, 4, 8, ... and `limit`, then bisects between the last
    passing and the first raising point.
    """
    grid = [2**k for k in range(1, limit.bit_length()) if 2**k < limit] + [limit]
    good = 1
    for bad in grid:
        if _expansion_raises(bad):
            break
        good = bad
    else:
        return limit + 1
    while bad - good > 1:
        mid = (good + bad) // 2
        if _expansion_raises(mid):
            bad = mid
        else:
            good = mid
    return bad


def cli_uncaught_errors(workdir: Path) -> int:
    """How many of BAD_ARGV leak an exception out of cli.main."""
    leaks = 0
    for argv in BAD_ARGV:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                cli.main([a.format(dir=workdir) for a in argv])
            except Exception:  # a leak is what this probe counts
                leaks += 1
    return leaks
