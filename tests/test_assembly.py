"""First-page builders, filtration assembly, truncation sweeps."""

import random
from dataclasses import replace
from itertools import combinations

import pytest

from coarsek.abelian import FgAbGroup, IntMatrix
from coarsek.assembly import (
    CapTooSmall,
    IdealChainInput,
    MvInput,
    assemble_target,
    build_ideal_chain_e1,
    build_mv_e1,
    truncation_sweep,
)
from coarsek.coarse import rn_mv_input, wedge_mv_input, zinf_mv_input
from coarsek.jsonio import SchemaError, ideal_chain_from_json, mv_from_json
from coarsek.pages import run_to_infinity

from _oracles import (
    group_order,
    oracle_presented_cokernel,
    oracle_presented_kernel,
    random_group,
    random_hom_presented,
)

Z = FgAbGroup.free(1)
ZERO = FgAbGroup.zero()


# ---------------------------------------------------------------------------
# ideal-chain builder


def test_chain_single_nonzero_column_layout():
    # only the n-th ideal is the whole algebra: one nonzero column, no shift
    n = 3
    groups = {}
    for p in range(n + 1):
        for s in range(2):
            groups[(p, s)] = ZERO
    groups[(n, 0)] = Z
    groups[(n, 1)] = FgAbGroup(0, (2,))
    page = build_ideal_chain_e1(IdealChainInput(length=n, groups=groups))
    for p in range(n + 1):
        for q in range(2):
            expected = groups[(p, (p + q) % 2)]
            assert page.cell_group(p, q) == expected
    run = run_to_infinity(page)
    assert run.stabilized_at == 1
    # degree s pieces sit at q = s - p mod 2
    assert run.pages[-1].cell_group(n, 0 - n) == Z


def test_chain_all_zero_quotients():
    inp = IdealChainInput(length=2, groups={(p, s): ZERO for p in range(3) for s in range(2)})
    page = build_ideal_chain_e1(inp)
    assert not page.cells
    assert page.d1_defaulted


def test_chain_compact_operator_type():
    # two-step chain whose only K-data is (Z, 0) at p = 0
    inp = IdealChainInput(
        length=1,
        groups={(0, 0): Z, (0, 1): ZERO, (1, 0): ZERO, (1, 1): ZERO},
    )
    page = build_ideal_chain_e1(inp)
    assert page.cell_group(0, 0) == Z
    assert sum(1 for _ in page.cells) == 1


def test_chain_missing_cell_rejected():
    # the reader checks completeness in the builder's (p, q) order
    obj = {"length": 1, "groups": [{"p": 0, "s": 0, "group": {"free_rank": 1}}]}
    with pytest.raises(SchemaError, match=r"^no K-group declared at \(p=0, s=1\)$"):
        ideal_chain_from_json(obj)
    page = build_ideal_chain_e1(ideal_chain_from_json({**obj, "default_zero": True}))
    assert page.groups == {(0, 0): Z}


def test_chain_builds_only_the_groups_it_is_given():
    # the same chain with every zero group filled in gives the same page;
    # period 8 tells q = s - p from s + p
    groups = {(0, 1): Z, (3, 0): FgAbGroup(0, (3,)), (2, 5): FgAbGroup(1, (2,))}
    dense = {(p, s): groups.get((p, s), ZERO) for p in range(4) for s in range(8)}
    page = build_ideal_chain_e1(IdealChainInput(length=3, period=8, groups=groups))
    assert page.groups == build_ideal_chain_e1(IdealChainInput(length=3, period=8, groups=dense)).groups
    assert page.groups == {(0, 1): Z, (3, 5): FgAbGroup(0, (3,)), (2, 3): FgAbGroup(1, (2,))}


def test_chain_d1_maps_are_used():
    # column p=1 maps onto column p=0 by multiplication by 2 in both degrees
    groups = {(p, s): Z for p in range(2) for s in range(2)}
    d1 = {(1, q): IntMatrix.from_rows([[2]]) for q in range(2)}
    page = build_ideal_chain_e1(IdealChainInput(length=1, groups=groups, d1=d1))
    assert not page.d1_defaulted
    run = run_to_infinity(page)
    for q in range(2):
        assert run.pages[-1].cell_group(0, q) == FgAbGroup(0, (2,))
        assert run.pages[-1].cell_group(1, q).is_zero


# ---------------------------------------------------------------------------
# Mayer-Vietoris builder


def _mv(labels, table, cap=None, **kw):
    inter = {tuple(sorted(j)): graded for j, graded in table.items()}
    return MvInput(
        labels=tuple(labels),
        cap=len(labels) - 1 if cap is None else cap,
        intersections=inter,
        **kw,
    )


def test_mv_single_ideal_unshifted():
    data = {0: FgAbGroup(2, (4,)), 1: FgAbGroup(0, (3,))}
    inp = _mv(["a"], {("a",): data})
    page = build_mv_e1(inp)
    assert page.cell_group(0, 0) == data[0]
    assert page.cell_group(0, 1) == data[1]
    run = run_to_infinity(page)
    report = assemble_target(run)
    assert report.degree(0).assembled == data[0]
    assert report.degree(1).assembled == data[1]


def test_mv_all_zero():
    zero = {0: ZERO, 1: ZERO}
    inp = _mv([0, 1], {(0,): zero, (1,): zero, (0, 1): zero})
    page = build_mv_e1(inp)
    assert not page.cells


def test_mv_r2_blocks_layout():
    page = build_mv_e1(rn_mv_input(2))
    assert page.groups == {(2, 0): Z}


def test_mv_missing_intersection():
    z = {"0": {"free_rank": 1}}
    obj = {"labels": [0, 1], "intersections": [{"J": [0], "k": z}, {"J": [1], "k": z}]}
    with pytest.raises(SchemaError, match=r"^no K-data for intersection J=\[0, 1\]$"):
        mv_from_json(obj)
    # a table leaves a set out to mean zero K-theory
    assert build_mv_e1(_mv([0, 1], {(0,): {0: Z}, (1,): {0: Z}})).cell_group(1, 0).is_zero


def test_mv_cap_too_small_on_exact_runs():
    full = {0: Z, 1: ZERO}
    table = {(0,): full, (1,): full, (0, 1): full}
    inp = _mv([0, 1], table, cap=0)
    with pytest.raises(CapTooSmall):
        build_mv_e1(inp)
    truncated = _mv([0, 1], table, cap=0, truncated_at=1)
    page = build_mv_e1(truncated)
    assert page.truncated_at == 1


def test_mv_summand_order_and_rank_bookkeeping():
    rng = random.Random(13)
    for _ in range(20):
        labels = list(range(rng.randint(1, 4)))
        table = {}
        for size in range(1, len(labels) + 1):
            for j in combinations(labels, size):
                table[j] = {0: random_group(rng), 1: random_group(rng)}
        inp = _mv(labels, table)
        page = build_mv_e1(inp)
        want_summands = {}
        for p in range(len(labels)):
            sets = list(combinations(labels, p + 1))
            for q in range(2):
                nonzero_sets = tuple(j for j in sets if not table[j][q].is_zero)
                if nonzero_sets:
                    want_summands[(p, q)] = nonzero_sets
                want_rank = sum(table[j][q].free_rank for j in sets)
                want_order = 1
                for j in sets:
                    o = group_order(table[j][q])
                    want_order = None if (want_order is None or o is None) else want_order * o
                got = page.cell_group(p, q)
                assert got.free_rank == want_rank
                if want_order is not None:
                    assert group_order(got) == want_order
        # exactly the nonzero summands, lex-ordered, and no entry for a
        # cell without one
        assert page.summands == want_summands


def test_mv_user_d1_acts_on_concatenated_summands():
    # two ideals, both with K_0 = Z; d1: (1, q) -> (0, q) where the target
    # cell is Z + Z in summand order (0,), (1,); the matrix is the
    # difference-of-inclusions shape
    table = {
        (0,): {0: Z, 1: ZERO},
        (1,): {0: Z, 1: ZERO},
        (0, 1): {0: Z, 1: ZERO},
    }
    d1 = {(1, 0): IntMatrix.from_rows([[1], [-1]])}
    inp = _mv([0, 1], table, d1=d1)
    page = build_mv_e1(inp)
    assert not page.d1_defaulted
    run = run_to_infinity(page)
    report = assemble_target(run)
    # kernel of (1, -1)^T : Z -> Z^2 is 0; cokernel is Z
    assert report.degree(0).assembled == Z
    assert report.degree(1).assembled == ZERO
    assert run.pages[-1].cell_group(1, 0).is_zero


def test_mv_two_set_consistency_against_independent_kernels():
    rng = random.Random(77)
    done = 0
    while done < 40:
        g_top = random_group(rng)  # K_q of the intersection, placed at p = 1
        g0 = random_group(rng)
        g1 = random_group(rng)
        if g_top.is_zero or (g0.is_zero and g1.is_zero):
            continue
        table = {
            (0,): {0: g0, 1: ZERO},
            (1,): {0: g1, 1: ZERO},
            (0, 1): {0: g_top, 1: ZERO},
        }
        # d1 acts on the concatenated summand generators of the p = 0 cell
        src_orders = g_top.generator_orders()
        tgt_orders = g0.generator_orders() + g1.generator_orders()
        matrix = random_hom_presented(rng, src_orders, tgt_orders)
        inp = _mv([0, 1], table, d1={(1, 0): matrix})
        run = run_to_infinity(build_mv_e1(inp))
        assert run.pages[-1].cell_group(0, 0) == oracle_presented_cokernel(matrix, tgt_orders)
        assert run.pages[-1].cell_group(1, 0) == oracle_presented_kernel(matrix, src_orders, tgt_orders)
        done += 1


def test_mv_three_set_middle_cell_homology():
    # three columns with d1 arrows (2,q) -> (1,q) -> (0,q): the middle cell
    # of the next page is an honest two-sided homology; compare it against
    # the standalone oracle applied to the induced canonical homs
    from _oracles import oracle_homology

    rng = random.Random(55)
    done = 0
    while done < 25:
        table = {}
        for j in [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]:
            table[j] = {0: random_group(rng, 1, 1), 1: ZERO}
        inp_plain = _mv([0, 1, 2], table)
        page_plain = build_mv_e1(inp_plain)
        a = page_plain.cell_group(2, 0)
        b = page_plain.cell_group(1, 0)
        c = page_plain.cell_group(0, 0)
        if a.is_zero or b.is_zero or c.is_zero:
            continue
        dims = {
            p: sum(table[j][0].gen_count for j in page_plain.summands[(p, 0)])
            for p in range(3)
        }
        orders = {
            p: sum(
                (table[j][0].generator_orders() for j in page_plain.summands[(p, 0)]),
                (),
            )
            for p in range(3)
        }
        g_mat = random_hom_presented(rng, orders[1], orders[0])
        f_mat = random_hom_presented(rng, orders[2], orders[1])
        comp = g_mat @ f_mat
        if not all(
            all(
                (x == 0 if o == 0 else x % o == 0)
                for x, o in zip(comp.column(j), orders[0])
            )
            for j in range(comp.cols)
        ):
            continue
        inp = _mv([0, 1, 2], table, d1={(2, 0): f_mat, (1, 0): g_mat})
        page = build_mv_e1(inp)
        f_hom = page.diffs.get((2, 0))
        g_hom = page.diffs.get((1, 0))
        if f_hom is None or g_hom is None:
            continue
        run = run_to_infinity(page)
        want = oracle_homology(f_hom, g_hom)
        assert run.pages[-1].cell_group(1, 0) == want
        done += 1
    assert dims  # loop ran


# ---------------------------------------------------------------------------
# assembling the target


def test_assemble_rn_reproduction():
    for n in range(1, 7):
        report = assemble_target(run_to_infinity(build_mv_e1(rn_mv_input(n))))
        for s in range(2):
            want = Z if (s - n) % 2 == 0 else ZERO
            assert report.degree(s).assembled == want
        assert report.stabilized_at == 1


def test_assemble_all_zero_run():
    report = assemble_target(run_to_infinity(build_mv_e1(zinf_mv_input(4, 3))))
    for s in range(2):
        assert report.degree(s).assembled == ZERO
        assert not report.degree(s).ambiguous


def test_extension_free_quotient_splits():
    # fabricated run: diagonal with Z/2 at p = 0 and free Z at p = 1
    page = build_mv_e1(
        _mv(
            [0, 1],
            {
                (0,): {0: FgAbGroup(0, (2,)), 1: ZERO},
                (1,): {0: ZERO, 1: ZERO},
                (0, 1): {0: ZERO, 1: Z},
            },
        )
    )
    report = assemble_target(run_to_infinity(page))
    line = report.degree(0)
    assert not line.ambiguous
    assert line.assembled == FgAbGroup(1, (2,))


def test_extension_torsion_quotient_is_ambiguous():
    page = build_mv_e1(
        _mv(
            [0, 1],
            {
                (0,): {0: FgAbGroup(0, (2,)), 1: ZERO},
                (1,): {0: ZERO, 1: ZERO},
                (0, 1): {0: ZERO, 1: FgAbGroup(0, (2,))},
            },
        )
    )
    report = assemble_target(run_to_infinity(page))
    line = report.degree(0)
    assert line.ambiguous and line.assembled is None
    assert [g for _, g in line.pieces] == [FgAbGroup(0, (2,)), FgAbGroup(0, (2,))]
    assert report.any_ambiguous


def test_extension_enumeration_backs_the_split_rule():
    # every extension of Z by Z/2 presents as Z^2 / <(2, 2k)>; all of them
    # are Z + Z/2, never Z or Z/4 with the sub of order 2 and free quotient
    from coarsek.abelian import cokernel

    for k in range(-6, 7):
        x = cokernel(IntMatrix.from_rows([[2], [2 * k]]))
        assert x == FgAbGroup(1, (2,))


# ---------------------------------------------------------------------------
# truncation sweeps


def test_sweep_zinf_stable_from_first_cap():
    sweep = truncation_sweep(lambda c: zinf_mv_input(6, c), caps=range(0, 5))
    for s in range(2):
        assert sweep.assembled_stable_at[s] == 0
        for c in sweep.caps:
            assert sweep.reports[c].degree(s).assembled == ZERO


def test_sweep_wedge_column_growth():
    sweep = truncation_sweep(lambda c: wedge_mv_input(c, truncated=True), caps=range(1, 7))
    for c in sweep.caps:
        line = sweep.reports[c].degree(1)
        assert line.assembled == (ZERO if c == 1 else FgAbGroup.free(c - 1))
        assert sweep.reports[c].truncated_at == c
    assert sweep.assembled_stable_at[0] == 1  # K_0 identically zero
    assert sweep.assembled_stable_at[1] is None  # still growing at the last cap


def test_sweep_constant_single_ideal_family():
    data = {0: FgAbGroup(1, (3,)), 1: Z}
    family = lambda c: _mv(["i"], {("i",): data})  # noqa: E731
    sweep = truncation_sweep(family, caps=range(0, 4))
    assert sweep.assembled_stable_at[0] == 0
    assert sweep.assembled_stable_at[1] == 0
    assert sweep.cell_stable_at[(0, 0)] == 0


def _stable_at_by_scan(values, caps):
    """Where the values stop changing: walk back while the earlier value is
    the last one (None if it changed at the last cap of a longer sweep)."""
    i = len(values) - 1
    while i > 0 and values[i - 1] == values[-1]:
        i -= 1
    return None if i == len(values) - 1 and len(values) > 1 else caps[i]


@pytest.mark.parametrize(
    "family, caps",
    [
        (lambda c: wedge_mv_input(c, truncated=True), range(1, 9)),
        (lambda c: wedge_mv_input(c, truncated=True), [5, 2, 3]),
        (lambda c: zinf_mv_input(6, c), range(0, 7)),
        (lambda c: replace(rn_mv_input(4), cap=c, truncated_at=c), range(0, 5)),
    ],
    ids=["wedge-countable", "wedge-countable-unsorted", "zinf6", "rn4-truncated"],
)
def test_sweep_cells_are_the_nonzero_part_of_a_dense_scan(family, caps):
    # reference: every first-page cell of 0..cap at every cap, read one by
    # one with cell_group, kept when it is nonzero at some cap
    sweep = truncation_sweep(family, caps)
    firsts = [build_mv_e1(family(c)) for c in sweep.caps]
    dense = {}
    for p in range(max(page.cap for page in firsts) + 1):
        for q in range(firsts[0].period):
            values = [page.cell_group(p, q) for page in firsts]
            if any(not g.is_zero for g in values):
                dense[(p, q)] = _stable_at_by_scan(values, sweep.caps)
    assert sweep.cell_stable_at == dense
    for c, page in zip(sweep.caps, firsts):
        assert sweep.e1_cells[c] == page.groups


def test_sweep_monotone_stability():
    # once a cell agrees with its successor it stays equal ever after
    sweep = truncation_sweep(lambda c: wedge_mv_input(c, truncated=True), caps=range(1, 8))
    keys = {k for cells in sweep.e1_cells.values() for k in cells}
    for key in keys:
        values = [sweep.e1_cells[c].get(key, ZERO) for c in sweep.caps]
        settled = False
        for a, b in zip(values, values[1:]):
            if settled:
                assert a == b
            elif a == b:
                settled = True
