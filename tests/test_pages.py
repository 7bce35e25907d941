"""Page checks, turning, stabilization, and the escape hatch."""

import json
import random
from dataclasses import replace
from pathlib import Path

import pytest

from coarsek import abelian, jsonio, pages
from coarsek.abelian import (
    AbelianError,
    FgAbGroup,
    GroupHom,
    IncompatibleShapes,
    IntMatrix,
)
from coarsek.assembly import assemble_target
from coarsek.pages import (
    CountableRank,
    InducedMapIllDefined,
    PageError,
    first_page,
    run_to_infinity,
    turn_page,
)

from _oracles import (
    apply,
    cells_isomorphic,
    oracle_hom_cokernel,
    oracle_hom_kernel,
    oracle_homology,
    oracle_presented_cokernel,
    oracle_presented_kernel,
    random_group,
    random_hom,
    random_hom_presented,
    zero_hom,
)

Z = FgAbGroup.free(1)
ZERO = FgAbGroup.zero()


def _page(cap, groups, d1=None, period=2):
    return first_page(cap, period, {key: [g] for key, g in groups.items()}, d1)


# ---------------------------------------------------------------------------
# checks made when a page is built


def test_validate_all_zero_page():
    page = _page(2, {})
    assert not page.cells and not page.diffs


def test_validate_single_cell():
    page = _page(1, {(0, 0): Z})
    assert page.cell_group(0, 0) == Z and not page.diffs


def test_validate_catches_nonzero_composition():
    with pytest.raises(InducedMapIllDefined, match=r"^d1 at \(2, 0\): d o d != 0 through \(1, 0\)$"):
        _page(
            2,
            {(2, 0): Z, (1, 0): Z, (0, 0): Z},
            d1={(2, 0): IntMatrix.from_rows([[1]]), (1, 0): IntMatrix.from_rows([[2]])},
        )


def test_validate_catches_support_violation():
    with pytest.raises(PageError, match=r"cell \(5, 0\) lies outside the support 0..1"):
        _page(1, {(0, 0): Z, (5, 0): Z})
    # a zero group outside the support is no cell, and is dropped
    assert _page(1, {(0, 0): Z, (5, 0): FgAbGroup.zero()}).cells.keys() == {(0, 0)}


def test_validate_catches_wrong_target_group():
    # a d1 written for a target Z + Z/2 is refused when the cell there is Z
    with pytest.raises(IncompatibleShapes, match="expected 1x1"):
        _page(1, {(1, 0): Z, (0, 0): Z}, d1={(1, 0): IntMatrix.from_rows([[1], [1]])})
    # an installed differential runs between the cell groups at its two ends
    page = _page(1, {(1, 0): Z, (0, 0): FgAbGroup(0, (2,))}, d1={(1, 0): IntMatrix.from_rows([[1]])})
    assert page.diffs[(1, 0)].source == page.cell_group(1, 0)
    assert page.diffs[(1, 0)].target == page.cell_group(0, 0)


# ---------------------------------------------------------------------------
# page turning


def test_turn_page_zero_differentials_is_identity():
    page = _page(2, {(0, 0): FgAbGroup(1, (2,)), (2, 1): Z})
    nxt = turn_page(page)
    assert nxt.r == 2
    assert cells_isomorphic(page, nxt)


def test_turn_page_unit_differential_kills_both():
    page = _page(1, {(1, 0): Z, (0, 0): Z}, d1={(1, 0): IntMatrix.from_rows([[1]])})
    nxt = turn_page(page)
    assert nxt.cell_group(1, 0).is_zero
    assert nxt.cell_group(0, 0).is_zero


def test_turn_page_times_two():
    page = _page(1, {(1, 0): Z, (0, 0): Z}, d1={(1, 0): IntMatrix.from_rows([[2]])})
    nxt = turn_page(page)
    assert nxt.cell_group(1, 0).is_zero
    assert nxt.cell_group(0, 0) == FgAbGroup(0, (2,))


def _chain_page(f, g):
    """A -f-> B -g-> C as the column chain (2,0) -> (1,0) -> (0,0); a
    one-summand cell keeps its group's generators, so d1 is f and g."""
    groups = {(2, 0): f.source, (1, 0): f.target, (0, 0): g.target}
    return _page(2, groups, d1={(2, 0): f.matrix, (1, 0): g.matrix})


def test_turn_page_matches_homology_oracle_on_random_complexes():
    rng = random.Random(21)
    pairs = 0
    while pairs < 200:
        a, b, c = (random_group(rng) for _ in range(3))
        f = random_hom(rng, a, b)
        g = random_hom(rng, b, c)
        if not GroupHom(a, c, g.matrix @ f.matrix).is_zero_map():
            continue
        pairs += 1
        nxt = turn_page(_chain_page(f, g))
        assert nxt.cell_group(1, 0) == oracle_homology(f, g)
        assert nxt.cell_group(2, 0) == oracle_homology(zero_hom(ZERO, a), f)
        assert nxt.cell_group(0, 0) == oracle_homology(g, zero_hom(c, ZERO))


def test_turn_page_homology_spec_examples():
    zero = zero_hom(Z, Z)
    assert turn_page(_chain_page(zero, zero)).cell_group(1, 0) == Z
    two = GroupHom(Z, Z, IntMatrix.from_rows([[2]]))
    assert turn_page(_chain_page(two, zero_hom(Z, ZERO))).cell_group(1, 0) == FgAbGroup(0, (2,))
    z2 = FgAbGroup.free(2)
    inj = GroupHom(z2, z2, IntMatrix.diagonal([2, 3]))
    assert turn_page(_chain_page(zero_hom(ZERO, z2), inj)).cell_group(1, 0) == ZERO


def test_turn_page_exactness_witnesses():
    # exact means the middle cell dies; otherwise its generators witness it
    one = GroupHom(Z, Z, IntMatrix.identity(1))
    assert (1, 0) not in turn_page(_chain_page(zero_hom(ZERO, Z), one)).cells
    two = GroupHom(Z, Z, IntMatrix.from_rows([[2]]))
    cell = turn_page(_chain_page(two, zero_hom(Z, ZERO))).cells[(1, 0)]
    # the witness generates the Z/2 homology: odd multiple of the generator
    assert cell.gens.cols == 1 and cell.gens.column(0)[0] % 2 == 1
    proj = GroupHom(Z, FgAbGroup(0, (2,)), IntMatrix.from_rows([[1]]))
    assert (1, 0) not in turn_page(_chain_page(two, proj)).cells


# ---------------------------------------------------------------------------
# cutting the cycles: torsion targets and cycle bases other than the identity


def _lands_on_torsion(page, key):
    """Whether the differential at ``key`` sends a boundary generator of its
    source cell onto a nonzero multiple of a torsion generator of its
    target; turning the page then lifts that boundary with w != 0."""
    h, cell = page.diffs[key], page.cells[key]
    for j in range(cell.boundaries.cols):
        if any(apply(h.matrix, apply(cell.proj, cell.boundaries.column(j)))[h.target.free_rank :]):
            return True
    return False


def _orders(groups):
    return tuple(d for g in groups for d in g.generator_orders())


def test_d1_into_torsion_cells_matches_oracles():
    # A -f-> B -g-> C with torsion in B and C: the boundaries of A and B
    # often land on torsion of the next cell
    rng = random.Random(12)
    chains = lifted = 0
    while chains < 150:
        a = random_group(rng)
        b, c = (random_group(rng, max_torsion=2) for _ in range(2))
        if not (b.torsion and c.torsion):
            continue
        f, g = random_hom(rng, a, b), random_hom(rng, b, c)
        if not GroupHom(a, c, g.matrix @ f.matrix).is_zero_map():
            continue
        chains += 1
        page = _chain_page(f, g)
        lifted += sum(_lands_on_torsion(page, key) for key, h in page.diffs.items() if not h.is_zero_map())
        nxt = turn_page(page)
        assert nxt.cell_group(2, 0) == oracle_presented_kernel(f.matrix, a.generator_orders(), b.generator_orders())
        assert nxt.cell_group(1, 0) == oracle_homology(f, g)
        assert nxt.cell_group(0, 0) == oracle_presented_cokernel(g.matrix, c.generator_orders())
    assert lifted >= 50


def test_d1_between_summed_cells_matches_presented_oracles():
    # cells of two summands whose concatenated generators are no
    # invariant-factor basis: their cycles are the identity but their
    # generators and projections are not
    rng = random.Random(13)
    reached = lifted = 0
    for _ in range(150):
        src = [random_group(rng) for _ in range(2)]
        tgt = [random_group(rng, max_rank=1, max_torsion=2) for _ in range(2)]
        d1 = random_hom_presented(rng, _orders(src), _orders(tgt))
        page = first_page(1, 2, {(1, 0): src, (0, 0): tgt}, {(1, 0): d1})
        if page.diffs and not page.diffs[(1, 0)].is_zero_map():
            reached += not page.cells[(1, 0)].proj.is_identity()
            lifted += _lands_on_torsion(page, (1, 0))
        nxt = turn_page(page)
        assert nxt.cell_group(1, 0) == oracle_presented_kernel(d1, _orders(src), _orders(tgt))
        assert nxt.cell_group(0, 0) == oracle_presented_cokernel(d1, _orders(tgt))
    assert reached >= 20 and lifted >= 20


def _check_generator_sections(pages):
    """On every page, each cell's ``proj`` inverts its ``gens``."""
    for page in pages:
        for cell in page.cells.values():
            assert (cell.proj @ cell.gens).is_identity()


def test_injected_d2_out_of_cut_cycles_matches_oracles():
    # a nonzero d1: (2, 0) -> (1, 0) cuts the cycles of (2, 0), so its
    # page-2 cell lives in a basis of its own; a random map of the page-2
    # groups into the torsion cell (0, 1) is a d2 from there
    rng = random.Random(14)
    cut = lifted = 0
    for _ in range(120):
        g2 = [random_group(rng) for _ in range(rng.randint(1, 2))]
        g1 = [random_group(rng)]
        g0 = [FgAbGroup(rng.randint(0, 1), random_group(rng, max_rank=0, max_torsion=2).torsion or (4,))]
        d1 = random_hom_presented(rng, _orders(g2), _orders(g1))
        page1 = first_page(2, 2, {(2, 0): g2, (1, 0): g1, (0, 1): g0}, {(2, 0): d1})
        src, tgt = turn_page(page1).cells.get((2, 0)), page1.cells[(0, 1)]
        assert (src.group if src else ZERO) == oracle_presented_kernel(d1, _orders(g2), _orders(g1))
        if src is None:
            continue
        d2 = random_hom(rng, src.group, tgt.group)
        run = run_to_infinity(page1, {2: {(2, 0): d2.matrix}})
        page2 = run.pages[1]
        _check_generator_sections(run.pages)
        assert ((2, 0) in page2.diffs) == (not d2.is_zero_map())
        if (2, 0) in page2.diffs:
            assert page2.diffs[(2, 0)] == d2
            cut += (2, 0) in page1.diffs
            lifted += _lands_on_torsion(page2, (2, 0))
        assert run.pages[-1].cell_group(2, 0) == oracle_hom_kernel(d2)
        assert run.pages[-1].cell_group(1, 0) == oracle_presented_cokernel(d1, _orders(g1))
        assert run.pages[-1].cell_group(0, 1) == oracle_hom_cokernel(d2)
    assert cut >= 30 and lifted >= 10


def test_injected_d2_into_cut_cycles_matches_oracles():
    # a nonzero d1: (1, 0) -> (0, 0) cuts the cycles of (1, 0); a random
    # map of the page-2 groups from (3, 1) into it is a d2
    rng = random.Random(15)
    cut = 0
    for _ in range(120):
        g3, g1, g0 = random_group(rng), random_group(rng), random_group(rng)
        g = random_hom(rng, g1, g0)
        page1 = first_page(3, 2, {(3, 1): [g3], (1, 0): [g1], (0, 0): [g0]}, {(1, 0): g.matrix})
        page2 = turn_page(page1)
        src, tgt = page2.cells.get((3, 1)), page2.cells.get((1, 0))
        assert (tgt.group if tgt else ZERO) == oracle_hom_kernel(g)
        if not (src and tgt):
            continue
        f = random_hom(rng, src.group, tgt.group)
        pages = [page1, turn_page(page1, {(3, 1): f.matrix})]
        pages.append(turn_page(pages[-1]))
        _check_generator_sections(pages)
        cut += not g.is_zero_map() and not f.is_zero_map()
        assert pages[2].cell_group(3, 1) == oracle_hom_kernel(f)
        assert pages[2].cell_group(1, 0) == oracle_hom_cokernel(f)
        assert pages[2].cell_group(0, 0) == oracle_presented_cokernel(g.matrix, g0.generator_orders())
    assert cut >= 30


def test_d2_on_e2_generators_past_a_torsion_target():
    # complex C's first page: d1 = [1] onto Z/2 leaves 2Z at (2, 0), whose
    # generator is 2 in first-page coordinates; d2 = [m] on that generator
    # gives E^inf(0, 1) = Z/m (a first-page [m] would give Z/2m)
    page1 = first_page(2, 2, {(2, 0): [Z], (1, 0): [FgAbGroup(0, (2,))], (0, 1): [Z]},
                       {(2, 0): IntMatrix.from_rows([[1]])})
    for m in (1, 2, 3):
        run = run_to_infinity(page1, {2: {(2, 0): IntMatrix.from_rows([[m]])}})
        report = assemble_target(run)
        assert report.degree(0).assembled == ZERO
        assert report.degree(1).assembled == (ZERO if m == 1 else FgAbGroup(0, (m,)))


def test_boundary_outside_the_new_cycles_raises():
    # pages whose d o d != 0 slipped past the checks of _install_diffs: the
    # boundary 1 of the middle Z is not among its new cycles (0 into Z, 4Z
    # into Z/4)
    for end in (Z, FgAbGroup(0, (4,))):
        page = _page(2, {(2, 0): Z, (1, 0): Z, (0, 0): end}, d1={(1, 0): IntMatrix.from_rows([[1]])})
        bad = replace(page, diffs={**page.diffs, (2, 0): GroupHom(Z, Z, IntMatrix.from_rows([[1]]))})
        with pytest.raises(AbelianError, match="^boundary lattice is not contained in the cycle lattice$"):
            turn_page(bad)


def test_turn_factors_each_live_differential_once(monkeypatch):
    obj = json.loads((Path(__file__).parent / "golden" / "inputs" / "bench_page.json").read_text())
    page1 = jsonio.page_from_json(obj)
    keys = []
    real = abelian.smith_normal_form

    def counting(a):
        keys.append((a.rows, a.cols, a.entries))
        return real(a)

    for mod in (abelian, pages):
        monkeypatch.setattr(mod, "smith_normal_form", counting)
    turn_page(page1)
    assert len(keys) == len(set(keys))
    live = [(key, h) for key, h in page1.diffs.items() if not h.is_zero_map()]
    assert len(live) >= 4
    for key, h in live:
        # the cut at the source and the boundaries at the free target are
        # one matrix, factored once
        phi = h.matrix @ page1.cells[key].proj
        assert h.target.is_free and phi == h.matrix
        assert keys.count((phi.rows, phi.cols, phi.entries)) == 1


# ---------------------------------------------------------------------------
# full runs


def test_empty_page_is_valid_and_stabilizes_at_one():
    for cap in (0, 3):
        run = run_to_infinity(_page(cap, {}))
        assert run.stabilized_at == 1
        assert not run.e_infinity


def test_a_page_with_no_differential_is_the_whole_run():
    # a first page with no differential is E^infinity, whatever the cap
    run = run_to_infinity(_page(100000, {(100000, 1): Z}))
    assert len(run.pages) == 1 and run.stabilized_at == 1
    assert run.pages[-1].cell_group(100000, 1) == Z


def test_run_ends_at_the_first_still_page():
    page = _page(1, {(1, 0): Z, (0, 0): Z}, d1={(1, 0): IntMatrix.from_rows([[2]])})
    run = run_to_infinity(page)
    assert [pg.r for pg in run.pages] == [1, 2] and run.stabilized_at == 2
    assert not run.pages[-1].diffs


def test_injected_pages_up_to_cap_plus_two_keep_the_run_turning():
    page = _page(2, {(2, 0): Z, (0, 1): Z})
    d = IntMatrix.from_rows([[3]])
    run = run_to_infinity(page, {2: {(2, 0): d}})
    assert [pg.r for pg in run.pages] == [1, 2, 3] and run.stabilized_at == 3
    # a d4 exits the support and is skipped, but page 4 = cap + 2 is still
    # turned to; maps for later pages are ignored
    assert [pg.r for pg in run_to_infinity(page, {4: {(2, 0): d}}).pages] == [1, 2, 3, 4]
    assert len(run_to_infinity(page, {5: {(2, 0): d}}).pages) == 1


def test_zero_d1_gets_every_check_but_is_not_stored():
    # [[2]] from Z onto Z/2 is the zero map: checked, then left out
    z2 = FgAbGroup(0, (2,))
    groups = {(2, 0): Z, (1, 0): z2, (0, 0): Z}
    two = IntMatrix.from_rows([[2]])
    page = _page(2, groups, d1={(2, 0): two})
    assert page.diffs == {} and not page.d1_defaulted
    assert len(run_to_infinity(page).pages) == 1
    with pytest.raises(IncompatibleShapes, match="outside the support"):
        _page(2, groups, d1={(3, 0): two})
    with pytest.raises(IncompatibleShapes, match="expected 1x1"):
        _page(2, groups, d1={(2, 0): IntMatrix.from_rows([[2, 0]])})
    # a page holding the zero map still refuses a nonzero d o d elsewhere
    chain = {**groups, (2, 1): Z, (1, 1): Z, (0, 1): Z}
    with pytest.raises(InducedMapIllDefined, match=r"^d1 at \(2, 1\): d o d != 0 through \(1, 1\)$"):
        _page(2, chain, d1={(2, 0): two, (2, 1): IntMatrix.identity(1), (1, 1): IntMatrix.identity(1)})
    # on Z/2 + Z/3 = Z/6 a row orthogonal to the generator sends it to 0 in
    # Z, and the boundaries to nonzeros: a zero map that is not well defined
    parts = {(1, 0): [z2, FgAbGroup(0, (3,))], (0, 0): [Z]}
    gen = first_page(1, 2, parts).cells[(1, 0)].gens.column(0)
    with pytest.raises(InducedMapIllDefined, match="boundaries are not carried into boundaries"):
        first_page(1, 2, parts, {(1, 0): IntMatrix.from_rows([[gen[1], -gen[0]]])})


def test_single_column_stabilizes_immediately():
    groups = {(3, q): FgAbGroup(1, (2,)) for q in range(2)}
    run = run_to_infinity(_page(3, groups))
    assert run.stabilized_at == 1
    assert run.stabilized_at <= 1
    for q in range(2):
        assert run.pages[-1].cell_group(3, q) == FgAbGroup(1, (2,))


def test_two_column_page_stabilizes_by_three():
    page = _page(1, {(1, 0): Z, (0, 0): Z}, d1={(1, 0): IntMatrix.from_rows([[3]])})
    run = run_to_infinity(page)
    assert run.stabilized_at <= 3
    assert run.pages[-1].cell_group(0, 0) == FgAbGroup(0, (3,))
    assert run.pages[-1].cell_group(1, 0).is_zero


def test_times_two_run_collapse_bounds():
    page = _page(1, {(1, 0): Z, (0, 0): Z}, d1={(1, 0): IntMatrix.from_rows([[2]])})
    run = run_to_infinity(page)
    assert dict(run.e_infinity) == {(0, 0): FgAbGroup(0, (2,))}
    assert run.stabilized_at <= 2
    assert not run.stabilized_at <= 1


def test_run_requires_valid_page():
    # a run starts from a first page, and a first page with d o d != 0 is
    # refused when it is built
    with pytest.raises(InducedMapIllDefined, match="d o d"):
        _page(
            2,
            {(2, 0): Z, (1, 0): Z, (0, 0): Z},
            d1={(2, 0): IntMatrix.from_rows([[1]]), (1, 0): IntMatrix.from_rows([[2]])},
        )


def test_idempotence_after_stabilization():
    rng = random.Random(31)
    for _ in range(20):
        page = _random_valid_page(rng, cap=3)
        run = run_to_infinity(page)
        stable = run.pages[run.stabilized_at - 1]
        again = turn_page(stable)
        assert cells_isomorphic(stable, again)


def test_stabilized_at_matches_a_cellwise_scan():
    # turn the run's pages on to page cap+3, then scan back from the last
    # while a page has only zero maps and the same cells as the page after
    # it; that is where the run stabilized
    rng = random.Random(43)
    for _ in range(40):
        run = run_to_infinity(_random_valid_page(rng, cap=rng.randint(0, 4)))
        pages = list(run.pages)
        while pages[-1].r < pages[0].cap + 3:
            pages.append(turn_page(pages[-1]))
        scan = len(pages)
        while scan > 1 and all(h.is_zero_map() for h in pages[scan - 2].diffs.values()):
            if not cells_isomorphic(pages[scan - 2], pages[scan - 1]):
                break
            scan -= 1
        assert run.stabilized_at == scan


def test_exiting_differential_bound_random_pages():
    rng = random.Random(41)
    for _ in range(40):
        page = _random_valid_page(rng, cap=rng.randint(0, 4))
        run = run_to_infinity(page)
        beyond = turn_page(run.pages[-1])
        assert cells_isomorphic(run.pages[-1], beyond)
        assert run.stabilized_at <= page.cap + 2


def _random_valid_page(rng, cap, period=2):
    """Random groups everywhere; d1 arrows only out of odd columns so that
    consecutive differentials never compose nontrivially."""
    groups = {}
    for p in range(cap + 1):
        for q in range(period):
            if rng.random() < 0.7:
                groups[(p, q)] = random_group(rng, max_rank=2, max_torsion=1)
    d1 = {}
    for (p, q), group in groups.items():
        if not group.is_zero and p % 2 == 1 and rng.random() < 0.8:
            tgt = groups.get((p - 1, q), FgAbGroup.zero())
            if not tgt.is_zero:
                d1[(p, q)] = random_hom(rng, group, tgt).matrix
    return _page(cap, groups, d1, period)


def _random_d2(rng, page2):
    """Random d2 maps on the E^2 generators, only out of columns p = 2, 3
    mod 4, so that no two of them compose."""
    d2 = {}
    for (p, q), cell in page2.cells.items():
        tgt = page2.cells.get(page2.target_key(p, q))
        if p % 4 in (2, 3) and tgt and rng.random() < 0.8:
            d2[(p, q)] = random_hom(rng, cell.group, tgt.group).matrix
    return d2


def test_pieces_are_the_nonzero_cells_of_a_dense_scan():
    # reference: every cell on each degree's diagonal, p = 0..cap, read one
    # by one with cell_group and zeros dropped
    rng = random.Random(53)
    live_d2 = 0
    for _ in range(80):
        period = rng.choice((2, 8))
        page = _random_valid_page(rng, cap=rng.randint(0, 6), period=period)
        injected = {2: _random_d2(rng, turn_page(page))} if rng.random() < 0.5 else {}
        run = run_to_infinity(page, injected)
        live_d2 += any(pg.r == 2 and pg.diffs for pg in run.pages)
        last, report = run.pages[-1], assemble_target(run)
        for s in range(period):
            dense = [(p, g) for p in range(page.cap + 1) if not (g := last.cell_group(p, s - p)).is_zero]
            assert list(report.degree(s).pieces) == dense
    assert live_d2 >= 15


def test_projection_inverts_generators_on_every_page():
    for seed in (31, 41, 43):
        rng = random.Random(seed)
        for _ in range(20):
            _check_generator_sections(run_to_infinity(_random_valid_page(rng, cap=rng.randint(0, 4))).pages)


def test_cells_with_zero_maps_pass_through_unfactored(monkeypatch):
    from coarsek import pages

    page1 = _page(
        3,
        {(3, 1): FgAbGroup(1, (4,)), (2, 0): Z, (1, 0): Z, (0, 0): Z, (0, 1): FgAbGroup(0, (6,))},
        d1={(1, 0): IntMatrix.from_rows([[2]])},
    )
    calls = []
    real = pages.subquotient
    monkeypatch.setattr(pages, "subquotient", lambda *a: calls.append(a) or real(*a))
    page2 = turn_page(page1)
    # only the two ends of the one nonzero d1 are re-factored
    assert len(calls) == 2
    for key in ((3, 1), (2, 0), (0, 1)):
        assert page2.cells[key] is page1.cells[key]
    assert page2.cell_group(0, 0) == FgAbGroup(0, (2,))
    assert (1, 0) not in page2.cells
    later = [page2]
    for _ in range(3):
        later.append(turn_page(later[-1]))
    assert len(calls) == 2
    for page in later[1:]:
        assert page.cells.keys() == page2.cells.keys()
        assert all(page.cells[key] is cell for key, cell in page2.cells.items())


def test_countable_cell_hit_by_nonzero_map_raises():
    inf = CountableRank()
    # the first-page constructor refuses any d1 entry at either end of
    # which sits a countable-rank cell, whatever its matrix
    for groups, matrix in (
        ({(1, 0): Z, (0, 0): inf}, [[1]]),
        ({(1, 0): Z, (0, 0): inf}, [[0]]),
        ({(1, 0): inf, (0, 0): Z}, [[1]]),
    ):
        with pytest.raises(InducedMapIllDefined, match="countable"):
            _page(1, groups, d1={(1, 0): IntMatrix.from_rows(matrix)})
    page = _page(1, {(1, 0): Z, (0, 0): inf})
    assert page.cells.keys() == {(1, 0)}
    assert page.cell_group(0, 0) == inf
    run = run_to_infinity(page)
    assert dict(run.e_infinity) == {(1, 0): Z, (0, 0): inf}
    # so does the escape hatch for higher differentials
    with pytest.raises(InducedMapIllDefined, match="countable"):
        run_to_infinity(_page(2, {(2, 0): Z, (0, 1): inf}), {2: {(2, 0): IntMatrix.from_rows([[1]])}})


# ---------------------------------------------------------------------------
# KO grading


def test_period_eight_bidegrees():
    groups = {(1, 3): Z, (0, 3): Z}
    # d1 target of (1, 3) is (0, 3): q + r - 1 = 3 mod 8
    page = _page(1, groups, d1={(1, 3): IntMatrix.from_rows([[2]])}, period=8)
    run = run_to_infinity(page)
    assert run.pages[-1].cell_group(0, 3) == FgAbGroup(0, (2,))
    assert run.pages[-1].cell_group(0, 11) == FgAbGroup(0, (2,))  # q reduced mod 8


# ---------------------------------------------------------------------------
# escape hatch: injected higher differentials


def test_injected_d2_is_induced_on_subquotients():
    page = _page(2, {(2, 0): Z, (0, 1): Z})
    run = run_to_infinity(page, injected_by_page={2: {(2, 0): IntMatrix.from_rows([[3]])}})
    assert dict(run.e_infinity) == {(0, 1): FgAbGroup(0, (3,))}
    assert run.stabilized_at == 3


def test_injected_map_must_respect_boundaries():
    page = _page(2, {(2, 0): FgAbGroup(0, (2,)), (0, 1): Z})
    with pytest.raises(InducedMapIllDefined):
        run_to_infinity(page, injected_by_page={2: {(2, 0): IntMatrix.from_rows([[1]])}})


def test_injected_composition_must_vanish():
    page = _page(4, {(4, 0): Z, (2, 1): Z, (0, 0): Z})
    bad = {
        2: {
            (4, 0): IntMatrix.from_rows([[1]]),
            (2, 1): IntMatrix.from_rows([[1]]),
        }
    }
    with pytest.raises(InducedMapIllDefined):
        run_to_infinity(page, injected_by_page=bad)


def test_injected_d2_through_torsion_subquotient():
    # after d1 = x2 the cell (0,0) becomes Z/2 with boundaries 2Z; a unit
    # map on E^2 generators from a fresh Z cell at (2,1) is Z ->> Z/2
    page = _page(
        2,
        {(2, 1): Z, (1, 0): Z, (0, 0): Z},
        d1={(1, 0): IntMatrix.from_rows([[2]])},
    )
    run = run_to_infinity(page, injected_by_page={2: {(2, 1): IntMatrix.from_rows([[1]])}})
    assert run.pages[-1].cell_group(0, 0).is_zero
    assert run.pages[-1].cell_group(2, 1) == Z  # kernel of Z ->> Z/2 is 2Z = Z


def test_injected_d2_gets_the_d1_checks():
    page = _page(2, {(2, 0): Z, (0, 1): Z})
    # a source column outside 0..cap is refused, as for d1
    for key in ((3, 0), (-1, 0)):
        with pytest.raises(IncompatibleShapes, match="outside the support"):
            run_to_infinity(page, {2: {key: IntMatrix.from_rows([[1]])}})
    with pytest.raises(IncompatibleShapes, match="expected 1x1"):
        run_to_infinity(page, {2: {(2, 0): IntMatrix.from_rows([[1, 0]])}})
    # the unit d1 from (1, 1) kills (0, 1) on page 2, so a d2 onto it is the
    # zero map and is skipped, whatever its matrix
    page = _page(2, {(2, 0): Z, (1, 1): Z, (0, 1): Z}, d1={(1, 1): IntMatrix.from_rows([[1]])})
    for matrix in ([[5]], [[1, 2]]):
        run = run_to_infinity(page, {2: {(2, 0): IntMatrix.from_rows(matrix)}})
        assert run.pages[1].diffs == {}
        assert dict(run.e_infinity) == {(2, 0): Z}
