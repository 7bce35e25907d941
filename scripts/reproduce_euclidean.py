"""K-theory of the Roe algebra of R^n from its block cover, n = 1..20.

Expected: Z exactly in degrees of the same parity as n, collapse on the
first page (a single nonzero column).  The first page is built from the
non-flasque intersections alone, so n = 20 (2^21 - 1 index sets) runs in
milliseconds; the script exits nonzero if any answer differs.
"""

from coarsek.abelian import FgAbGroup
from coarsek.assembly import assemble_target, build_mv_e1
from coarsek.coarse import rn_mv_input
from coarsek.pages import run_to_infinity

if __name__ == "__main__":
    print(f"{'n':>2} {'K_0':>6} {'K_1':>6} {'stable at':>10}")
    for n in range(1, 21):
        report = assemble_target(run_to_infinity(build_mv_e1(rn_mv_input(n))))
        k0 = report.degree(0).assembled
        k1 = report.degree(1).assembled
        print(f"{n:>2} {str(k0):>6} {str(k1):>6} {report.stabilized_at:>10}")
        assert report.degree(n).assembled == FgAbGroup.free(1), n
        assert report.degree(n + 1).assembled.is_zero, n
