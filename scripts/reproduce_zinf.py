"""The block family on the infinite lattice: trivial K-theory at every cap.

Every finite intersection keeps a nonpositive half-ray factor and is
flasque, so the whole first page vanishes regardless of the truncation
prefix m <= 30 or the index-set cap, and the run ends on it without a
turn.  The first-page walk proves every index set flasque without
listing them, so m = 30 at cap 30 runs in milliseconds.  The CLI sweep
over caps 1..30 of zinf:30 walks its cover once and must report K_0 and
K_1 stable from cap 1.  The script exits nonzero if any first page is
nonzero, any run turns a page, or the sweep says otherwise.
"""

import contextlib
import io

from coarsek.assembly import assemble_target, build_mv_e1
from coarsek.cli import main
from coarsek.coarse import zinf_mv_input
from coarsek.pages import run_to_infinity

if __name__ == "__main__":
    print(f"{'m':>2} {'cap':>4} {'K_0':>4} {'K_1':>4} {'nonzero E1 cells':>18}")
    for m in range(2, 31):
        for cap in sorted({1, min(4, m), m}):
            run = run_to_infinity(build_mv_e1(zinf_mv_input(m, cap)))
            report = assemble_target(run)
            cells = sum(1 for _ in run.first_page.cells)
            print(f"{m:>2} {cap:>4} {str(report.degree(0).assembled):>4} "
                  f"{str(report.degree(1).assembled):>4} {cells:>18}")
            assert cells == 0 and len(run.pages) == 1, (m, cap)

    argv = ["sweep", "--builtin", "zinf:30", "--caps", "1..30"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    print(f"\ncoarsek {' '.join(argv)}\n{out.getvalue()}", end="")
    lines = out.getvalue().splitlines()
    assert code == 0, code
    assert "K_0: stable from cap 1" in lines and "K_1: stable from cap 1" in lines
