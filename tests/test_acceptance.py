"""Acceptance suite: one test per criterion, printing one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
Every tolerance and bound is pinned here; nothing is deferred.
"""

import json
import random
import time
from itertools import product

from coarsek.abelian import FgAbGroup, cokernel, smith_normal_form
from coarsek.assembly import MvInput, assemble_target, build_mv_e1, truncation_sweep
from coarsek.cli import main
from coarsek.coarse import (
    BlockySpace,
    Factor,
    LatticeBox,
    Metric,
    block_decomposition,
    check_cover_excision,
    check_excision,
    disjoint_rays,
    wedge_mv_input,
    zinf_mv_input,
)
from coarsek.pages import first_page, run_to_infinity, turn_page
from coarsek.simplex import (
    cake_affine_maps,
    in_cake_piece,
    sample_boundary,
    sample_simplex,
    sample_t,
    suspension_reparam,
)

from _oracles import (
    cells_isomorphic,
    enumerate_quotient_order,
    group_order,
    laplace_det,
    oracle_cokernel,
    oracle_presented_cokernel,
    oracle_presented_kernel,
    random_group,
    random_hom,
    random_hom_presented,
    random_matrix,
    set_distance,
)

Z = FgAbGroup.free(1)
ZERO = FgAbGroup.zero()


def _report(n, text):
    print(f"\nACCEPTANCE {n:02d} PASS: {text}")


def test_criterion_01_rn_reproduction(capsys):
    for n in range(1, 7):
        t0 = time.monotonic()
        code = main(["--format", "json", "run", "--builtin", f"rn:{n}"])
        elapsed = time.monotonic() - t0
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["stabilized_at"] == 1
        for s in range(2):
            assembled = payload["degrees"][s]["assembled"]
            if (s - n) % 2 == 0:
                assert assembled == {"free_rank": 1, "torsion": []}
            else:
                assert assembled == {"free_rank": 0, "torsion": []}
        assert elapsed < 1.0, f"rn:{n} took {elapsed:.3f}s"
    with capsys.disabled():
        _report(1, "K of R^n is Z exactly in degrees n mod 2, collapse at page 1, <1s per n")


def test_criterion_02_zinf_trivial_k_theory(capsys):
    t0 = time.monotonic()
    for m in range(2, 9):
        for cap in range(1, 5):
            page = build_mv_e1(zinf_mv_input(m, cap))
            assert not page.cells  # every first-page cell is the zero group
            report = assemble_target(run_to_infinity(page))
            for s in range(2):
                assert report.degree(s).assembled == ZERO
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"sweep took {elapsed:.3f}s"
    with capsys.disabled():
        _report(2, "Z^inf block family: all E1 cells zero, K_* = 0, m=2..8, caps 1..4, <1s")


def test_criterion_03_wedge_of_rays(capsys):
    for k in range(2, 11):
        report = assemble_target(run_to_infinity(build_mv_e1(wedge_mv_input(k))))
        assert report.degree(0).assembled == ZERO
        assert report.degree(1).assembled == FgAbGroup.free(k - 1)
        assert report.truncated_at is None
    sweep = truncation_sweep(lambda c: wedge_mv_input(c, truncated=True), caps=range(1, 11))
    for c in sweep.caps:
        line = sweep.reports[c].degree(1)
        assert line.assembled == (ZERO if c == 1 else FgAbGroup.free(c - 1))
        assert sweep.reports[c].truncated_at == c
    # monotone stability: once a cell agrees with its successor it stays equal
    keys = {key for cells in sweep.e1_cells.values() for key in cells}
    for key in keys:
        values = [sweep.e1_cells[c].get(key, ZERO) for c in sweep.caps]
        settled = False
        for a, b in zip(values, values[1:]):
            if settled:
                assert a == b
            elif a == b:
                settled = True
    with capsys.disabled():
        _report(3, "wedge k=2..10: K_0=0, K_1=Z^(k-1); countable caps marked truncated, monotone")


def test_criterion_04_trivial_layout_unshifted(capsys):
    rng = random.Random(404)
    for _ in range(100):
        data = {q: random_group(rng, max_rank=3, max_torsion=2) for q in range(2)}
        inp = MvInput(labels=("a",), cap=0, intersections={("a",): data})
        page = build_mv_e1(inp)
        for q in range(2):
            assert page.cell_group(0, q) == data[q]
        report = assemble_target(run_to_infinity(page))
        for q in range(2):
            assert report.degree(q).assembled == data[q]
    with capsys.disabled():
        _report(4, "single-ideal input reproduced unshifted at p=0 and as the target, 100 cases")


def _random_page(rng, cap):
    groups = {}
    for p in range(cap + 1):
        for q in range(2):
            if rng.random() < 0.7:
                groups[(p, q)] = random_group(rng, max_rank=2, max_torsion=1)
    # a one-summand cell keeps its group's generators, so each random hom's
    # matrix is its d1
    d1 = {}
    for (p, q), group in groups.items():
        if not group.is_zero and p % 2 == 1 and rng.random() < 0.8:
            tgt = groups.get((p - 1, q), FgAbGroup.zero())
            if not tgt.is_zero:
                d1[(p, q)] = random_hom(rng, group, tgt).matrix
    return first_page(cap, 2, {key: [g] for key, g in groups.items()}, d1)


def test_criterion_05_collapse_bound(capsys):
    rng = random.Random(505)
    for _ in range(200):
        cap = rng.randint(0, 5)
        page = _random_page(rng, cap)
        run = run_to_infinity(page)
        assert run.pages[-1].r <= cap + 2
        beyond = [run.pages[-1]]
        while beyond[-1].r < cap + 3:
            beyond.append(turn_page(beyond[-1]))
            assert cells_isomorphic(run.pages[-1], beyond[-1])
        assert run.stabilized_at <= cap + 2
    with capsys.disabled():
        _report(5, "200 random first pages, cap <= 5: each run ends by E^{P+2}, and its last page = E^{P+3} cellwise")


def test_criterion_06_snf_properties(capsys):
    rng = random.Random(606)
    enumerated = 0
    for _ in range(500):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        a = random_matrix(rng, rows, cols, -20, 20)
        s = smith_normal_form(a)
        assert (s.U @ a @ s.V).entries == s.D.entries
        assert abs(laplace_det(s.U.to_rows())) == 1 and abs(laplace_det(s.V.to_rows())) == 1
        diag = [d for d in s.diagonal if d != 0]
        for x, y in zip(diag, diag[1:]):
            assert x > 0 and y % x == 0
        group = cokernel(a)
        assert group == oracle_cokernel(a)
        if group.free_rank == 0 and rows == cols and rows <= 3:
            det = abs(laplace_det(a.to_rows()))
            if 0 < det <= (400 if rows <= 2 else 30):
                assert group_order(group) == enumerate_quotient_order(a)
                enumerated += 1
    assert enumerated >= 25
    with capsys.disabled():
        _report(6, f"500 random SNFs certified; {enumerated} finite cokernels matched enumeration")


def test_criterion_07_two_set_mayer_vietoris(capsys):
    rng = random.Random(707)
    done = 0
    while done < 100:
        top = {q: random_group(rng) for q in range(2)}
        bottom = {q: (random_group(rng), random_group(rng)) for q in range(2)}
        if all(g.is_zero for g in top.values()):
            continue
        table = {
            (0,): {q: bottom[q][0] for q in range(2)},
            (1,): {q: bottom[q][1] for q in range(2)},
            (0, 1): top,
        }
        d1 = {}
        homs = {}
        for q in range(2):
            src_orders = top[q].generator_orders()
            tgt_orders = (
                bottom[q][0].generator_orders() + bottom[q][1].generator_orders()
            )
            matrix = random_hom_presented(rng, src_orders, tgt_orders)
            homs[q] = (matrix, src_orders, tgt_orders)
            d1[(1, q)] = matrix
        inp = MvInput(labels=(0, 1), cap=1, intersections=table, d1=d1)
        run = run_to_infinity(build_mv_e1(inp))
        for q in range(2):
            matrix, src_orders, tgt_orders = homs[q]
            want_coker = oracle_presented_cokernel(matrix, tgt_orders)
            want_ker = oracle_presented_kernel(matrix, src_orders, tgt_orders)
            assert run.pages[-1].cell_group(0, q) == want_coker
            assert run.pages[-1].cell_group(1, q) == want_ker
        done += 1
    with capsys.disabled():
        _report(7, "100 random two-ideal inputs: E^inf pieces = independent ker/coker of d1")


def test_criterion_08_excision_oracle(capsys):
    t0 = time.monotonic()
    # sup-metric: S = R for every nonempty subset, n <= 4, R <= 4, box 4R
    for n in range(1, 5):
        cover = block_decomposition(n)
        for r in range(1, 5):
            results = check_cover_excision(cover, r, Metric("dinf"), 4 * r, s_radius=r)
            assert all(res.ok for res in results.values())
    # 1-metric: S = n R
    for n in range(1, 5):
        cover = block_decomposition(n)
        for r in (1, 3):
            s = n * r
            results = check_cover_excision(
                cover, r, Metric("d1"), s + r + 4, s_radius=s
            )
            assert all(res.ok for res in results.values())
    # the disjoint counterexample fails with a witness
    res = check_excision(disjoint_rays(), [0, 1], 6, 4, Metric("d1"), 20)
    assert not res.ok and res.witness is not None
    # metric sandwich on boxed lattices
    rng = random.Random(808)
    for _ in range(30):
        n = rng.randint(1, 3)
        space = BlockySpace(tuple(rng.choice(list(Factor)) for _ in range(n)))
        box = LatticeBox.from_blocky(space).intervals
        r = rng.randint(1, 4)
        for point in product(range(-6, 7), repeat=n):
            d1 = set_distance(point, box, Metric("d1"))
            dinf = set_distance(point, box, Metric("dinf"))
            assert (d1 <= r) <= (dinf <= r) <= (d1 <= n * r)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"excision suite took {elapsed:.3f}s"
    with capsys.disabled():
        _report(8, f"excision: dinf S=R, d1 S=nR pass; disjoint rays fail; sandwich holds ({elapsed:.1f}s)")


def test_criterion_09_simplex_geometry(capsys):
    rng = random.Random(909)
    for n in range(1, 11):
        f, g = cake_affine_maps(n)
        for _ in range(1000):
            x = sample_simplex(n, rng)
            assert g(f(x)) == x
            assert in_cake_piece(f(x), [0])
    for n in range(1, 11):
        phi = suspension_reparam(n)
        for _ in range(300):
            y = sample_simplex(n, rng)
            t = sample_t(n, rng)
            assert sum(phi(y, t)) == 1
            image = phi(sample_boundary(n, rng), t)
            assert min(image) == image[-1] == 0
    with capsys.disabled():
        _report(9, "exactly: g(f(x)) = x, f lands in piece 0, phi preserves sums and boundaries")


def test_criterion_10_extension_policy(capsys):
    def fabricate(upper):
        table = {
            (0,): {0: FgAbGroup(0, (2,)), 1: ZERO},
            (1,): {0: ZERO, 1: ZERO},
            (0, 1): {0: ZERO, 1: upper},
        }
        inp = MvInput(labels=(0, 1), cap=1, intersections=table)
        return assemble_target(run_to_infinity(build_mv_e1(inp)))

    split = fabricate(Z).degree(0)
    assert not split.ambiguous
    assert split.assembled == FgAbGroup(1, (2,))

    stuck = fabricate(FgAbGroup(0, (2,))).degree(0)
    assert stuck.ambiguous and stuck.assembled is None
    assert [g for _, g in stuck.pieces] == [FgAbGroup(0, (2,)), FgAbGroup(0, (2,))]
    with capsys.disabled():
        _report(10, "free quotient splits to Z + Z/2; torsion quotient reported ambiguous with pieces")
