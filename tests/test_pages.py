"""Page checks, turning, stabilization, and the escape hatch."""

import random

import pytest

from coarsek.abelian import (
    FgAbGroup,
    GroupHom,
    IncompatibleShapes,
    IntMatrix,
)
from coarsek.pages import (
    CountableRank,
    InducedMapIllDefined,
    PageError,
    first_page,
    run_to_infinity,
    turn_page,
)

from _oracles import cells_isomorphic, oracle_homology, random_group, random_hom, zero_hom

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
        if not g.compose(f).is_zero_map():
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
# full runs


def test_empty_page_is_valid_and_stabilizes_at_one():
    for cap in (0, 3):
        run = run_to_infinity(_page(cap, {}))
        assert run.stabilized_at == 1
        assert not run.e_infinity


def test_single_column_stabilizes_immediately():
    groups = {(3, q): FgAbGroup(1, (2,)) for q in range(2)}
    run = run_to_infinity(_page(3, groups))
    assert run.stabilized_at == 1
    assert run.stabilized_at <= 1
    for q in range(2):
        assert run.e_infinity_at(3, q) == FgAbGroup(1, (2,))


def test_two_column_page_stabilizes_by_three():
    page = _page(1, {(1, 0): Z, (0, 0): Z}, d1={(1, 0): IntMatrix.from_rows([[3]])})
    run = run_to_infinity(page)
    assert run.stabilized_at <= 3
    assert run.e_infinity_at(0, 0) == FgAbGroup(0, (3,))
    assert run.e_infinity_at(1, 0).is_zero


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
    # scan back from the last page while a page has only zero maps and the
    # same cells as the page after it; that is where the run stabilized
    rng = random.Random(43)
    for _ in range(40):
        run = run_to_infinity(_random_valid_page(rng, cap=rng.randint(0, 4)))
        pages = run.pages
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
    assert run.e_infinity_at(0, 3) == FgAbGroup(0, (2,))
    assert run.e_infinity_at(0, 11) == FgAbGroup(0, (2,))  # q reduced mod 8


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
    # after d1 = x2 the cell (0,0) becomes Z/2 with boundaries 2Z; an
    # ambient unit map from a fresh Z cell at (2,1) induces Z ->> Z/2
    page = _page(
        2,
        {(2, 1): Z, (1, 0): Z, (0, 0): Z},
        d1={(1, 0): IntMatrix.from_rows([[2]])},
    )
    run = run_to_infinity(page, injected_by_page={2: {(2, 1): IntMatrix.from_rows([[1]])}})
    assert run.e_infinity_at(0, 0).is_zero
    assert run.e_infinity_at(2, 1) == Z  # kernel of Z ->> Z/2 is 2Z = Z


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
