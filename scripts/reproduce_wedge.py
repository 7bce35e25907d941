"""Wedge of k rays: K_1 is free of rank k - 1, K_0 vanishes, k = 2..40.

The finite wedges are exact; the countable wedge is realized as a
truncation sweep over caps 1..30 whose odd-degree answer keeps growing
with the cap, so each report carries the truncation marking.  Only the
singleton index sets are consulted (every larger one meets in the flasque
base ray), so k = 40 runs in milliseconds; the script exits nonzero if
any answer differs.
"""

from coarsek.abelian import FgAbGroup
from coarsek.assembly import assemble_target, build_mv_e1, truncation_sweep
from coarsek.coarse import wedge_mv_input
from coarsek.pages import run_to_infinity

if __name__ == "__main__":
    print("finite wedges")
    print(f"{'k':>3} {'K_0':>5} {'K_1':>6}")
    for k in range(2, 41):
        report = assemble_target(run_to_infinity(build_mv_e1(wedge_mv_input(k))))
        print(f"{k:>3} {str(report.degree(0).assembled):>5} "
              f"{str(report.degree(1).assembled):>6}")
        assert report.degree(0).assembled.is_zero, k
        assert report.degree(1).assembled == FgAbGroup.free(k - 1), k

    print("\ncountable wedge, truncated")
    sweep = truncation_sweep(lambda c: wedge_mv_input(c, truncated=True), caps=range(1, 31))
    for cap in sweep.caps:
        rep = sweep.reports[cap]
        print(f"cap {cap}: K_1 = {rep.degree(1).assembled} (truncated at {rep.truncated_at})")
        assert rep.degree(1).assembled == FgAbGroup.free(cap - 1), cap
    k1 = sweep.assembled_stable_at[1]
    print("K_1 stable within sweep:" , "no (column keeps growing)" if k1 is None else f"from cap {k1}")
