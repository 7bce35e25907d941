"""CLI outputs pinned byte for byte on small builtins, the README inputs,
first pages with torsion, nonzero d1 and a countable-rank cell, seeded
chain complexes the size of the torsion benchmark's, excision verdicts
with their witnesses, and the exact cake-piece checks.

Each case runs in the table, ``--verbose`` and JSON formats and must print
exactly ``tests/golden/<case>.<format>``.  Regenerate after a deliberate
output change with

    PYTHONPATH=src python tests/test_golden.py

and review the diff of ``tests/golden/`` before committing it.  With the
package installed,

    python tests/test_golden.py --entry-point

runs every case and format through the installed ``coarsek`` command
instead, checks its exit code and compares its output byte for byte.
"""

import contextlib
import io
import subprocess
import sys
from pathlib import Path

import pytest

from coarsek.cli import main

GOLDEN = Path(__file__).parent / "golden"
FORMATS = {"table": [], "verbose": ["--verbose"], "json": ["--format", "json"]}

CASES = {
    **{f"rn{n}": ["run", "--builtin", f"rn:{n}"] for n in range(1, 6)},
    **{f"wedge{k}": ["run", "--builtin", f"wedge:{k}"] for k in range(1, 7)},
    **{f"zinf{m}": ["run", "--builtin", f"zinf:{m}"] for m in range(2, 6)},
    "wedge-countable4": ["run", "--builtin", "wedge:countable:4"],
    "sweep-wedge-countable": ["sweep", "--builtin", "wedge:countable", "--caps", "1..5"],
    "sweep-zinf4": ["sweep", "--builtin", "zinf:4", "--caps", "1..4"],
    # the sizes the nerve benchmark runs
    "rn12": ["run", "--builtin", "rn:12"],
    "wedge15": ["run", "--builtin", "wedge:15"],
    "zinf11": ["run", "--builtin", "zinf:11", "--cap", "10"],
    "sweep-zinf10": ["sweep", "--builtin", "zinf:10", "--caps", "1..10"],
    "sweep-wedge-countable13": ["sweep", "--builtin", "wedge:countable", "--caps", "1..13"],
    # excision verdicts and witnesses, including the sizes the excision benchmark runs
    "excision-rn3-d1": ["excision", "--builtin", "rn:3", "--metric", "d1", "--radius", "5/2", "--box", "11"],
    "excision-rn6-dinf": ["excision", "--builtin", "rn:6", "--metric", "dinf", "--radius", "3", "--box", "7"],
    "excision-rn3-weighted": [
        "excision", "--builtin", "rn:3", "--metric", "weighted", "--weights", "1/2,1/3,1",
        "--radius", "5/3", "--s", "7/3", "--box", "8",
    ],
    "excision-disjoint-rays": ["excision", "--custom", "disjoint-rays", "--radius", "6", "--s", "4"],
    # FAIL witnesses in five and six dimensions (57 of 63 and all 127 subsets fail)
    "excision-rn5-d1-fail": ["excision", "--builtin", "rn:5", "--metric", "d1", "--radius", "2", "--s", "3", "--box", "8"],
    "excision-rn6-dinf-fail": ["excision", "--builtin", "rn:6", "--metric", "dinf", "--radius", "3", "--s", "2", "--box", "6"],
    # S = 17 sits just below the farthest-point bound of rn:6 (S = 18 passes), so
    # three subsets fail and the search decides the subsets the bound leaves open
    "excision-rn6-d1-tight": ["excision", "--builtin", "rn:6", "--metric", "d1", "--radius", "3", "--s", "17", "--box", "21"],
    # the exact cake-piece checks, with the seed after the subcommand
    "simplex-verify-d3": ["simplex", "verify", "--dim", "3", "--samples", "50", "--seed", "5"],
    # Smith forms with their transforms: a coprime pair and three pairwise
    # non-dividing factors settled by gcd/lcm steps, a full divisibility
    # chain, a rank drop and the empty shapes
    **{
        f"snf-{name}": ["snf", "--matrix", matrix]
        for name, matrix in (
            ("2x2", "[[2,4],[6,8]]"),
            ("offender", "[[2,0],[0,3]]"),
            ("coprime", "[[4,0,0],[0,6,0],[0,0,9]]"),
            ("chain", "[[2,4,4],[-6,6,12],[10,-4,-16]]"),
            ("rank2", "[[1,2,3,4,5],[2,4,6,8,10],[0,3,1,-2,7]]"),
            ("empty", "[]"),
            ("empty-row", "[[]]"),
        )
    },
    **{
        f"readme-{kind}": ["run", "--input", str(GOLDEN / "inputs" / f"readme_{kind}.json")]
        for kind in ("mv", "ideal_chain", "page")
    },
    **{
        name.replace("_", "-"): ["run", "--input", str(GOLDEN / "inputs" / f"{name}.json")]
        for name in ("page_torsion_d1", "ideal_chain_d1", "mv_countable")
    },
    # two nonzero cells at p = 0 and p = 10**12: a report reads only its
    # nonzero cells, so this runs as fast as a cap-1 page
    "page-huge-cap": ["run", "--input", str(GOLDEN / "inputs" / "page_huge_cap.json")],
    # the sizes the torsion benchmark runs: ranks 6..9, cap 3, d1 with torsion
    # factors, written by perfbench/chains.py from random.Random(f"golden-{kind}:1")
    **{
        f"bench-{kind.replace('_', '-')}": ["run", "--input", str(GOLDEN / "inputs" / f"bench_{kind}.json")]
        for kind in ("page", "ideal_chain", "mv")
    },
}


# cases whose report leaves an extension ambiguous, so the CLI exits with 2
AMBIGUOUS = {"bench-page", "bench-ideal-chain", "bench-mv", "page-huge-cap"}


def _exit_code(case: str) -> int:
    return 2 if case in AMBIGUOUS else 0


def _output(case: str, fmt: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(FORMATS[fmt] + CASES[case])
    assert code == _exit_code(case), (case, fmt, code)
    return out.getvalue()


def _entry_point_mismatches() -> list[str]:
    """Each case and format whose installed ``coarsek`` run exits or prints
    otherwise than its golden file says."""
    bad = []
    for case in CASES:
        for fmt in FORMATS:
            proc = subprocess.run(["coarsek", *FORMATS[fmt], *CASES[case]], capture_output=True)
            if proc.returncode != _exit_code(case):
                bad.append(f"{case}.{fmt}: exit {proc.returncode}, expected {_exit_code(case)}")
            elif proc.stdout != (GOLDEN / f"{case}.{fmt}").read_bytes():
                bad.append(f"{case}.{fmt}: output differs from tests/golden/{case}.{fmt}")
    return bad


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", CASES)
def test_golden_output(case, fmt):
    assert _output(case, fmt) == (GOLDEN / f"{case}.{fmt}").read_text(encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] == ["--entry-point"]:
        mismatches = _entry_point_mismatches()
        print("\n".join(mismatches) or f"{len(CASES) * len(FORMATS)} entry-point goldens match")
        sys.exit(1 if mismatches else 0)
    formats = sys.argv[1:] or list(FORMATS)
    for case in CASES:
        for fmt in formats:
            (GOLDEN / f"{case}.{fmt}").write_text(_output(case, fmt), encoding="utf-8")
