"""Bigraded spectral-sequence pages over finitely generated abelian groups.

A page stores cells E_{p,q} for 0 <= p <= cap and q taken modulo the Bott
period, together with differentials of bidegree (-r, r-1).  Every cell is
kept as an honest subquotient Z/B of its first-page ancestor: the cycle
and boundary sublattices live in the ancestor's generator lattice, so
turning pages is plain lattice arithmetic and higher maps can be induced
on representatives.

Because all nonzero groups sit in the half plane p >= 0, every
differential beyond page cap+1 exits the support, so E^{cap+2} = E^infty.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cache
from typing import Callable, Iterator, Mapping, Sequence

from .abelian import (
    AbelianError,
    FgAbGroup,
    GroupHom,
    IncompatibleShapes,
    IntMatrix,
    SnfResult,
    SubquotientCell,
    decimal_str,
    smith_normal_form,
    solve_columns,
    subquotient,
)


class PageError(Exception):
    pass


class InducedMapIllDefined(PageError):
    pass


def _concatenated_cell(parts: Sequence[FgAbGroup]) -> SubquotientCell:
    """First-page cell for a direct sum of nonzero groups on the concatenated
    summand generators.  When those already are an invariant-factor basis
    of the sum (always so for one summand), they are the cell's generators."""
    orders = [d for g in parts for d in g.generator_orders()]
    m = len(orders)
    eye = IntMatrix.identity(m)
    rels = IntMatrix.from_columns(
        [[d if i == k else 0 for i in range(m)] for k, d in enumerate(orders) if d], m
    )
    total = FgAbGroup.zero().direct_sum(*parts)
    if total.generator_orders() == tuple(orders):
        return SubquotientCell(eye, rels, total, eye, eye)
    return subquotient(eye, rels)


@dataclass(frozen=True)
class CountableRank:
    """Z^inf + Z/d_1 + ... + Z/d_k, with the torsion a divisibility chain.

    A report value, not a group the engine computes with: it has no
    generator list, so no matrix or homomorphism is built on it, and
    ``first_page`` sets a cell holding one aside in ``Page.countable``.
    """

    torsion: tuple[int, ...] = ()
    is_zero = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "torsion", FgAbGroup(0, self.torsion).torsion)

    @property
    def is_free(self) -> bool:
        return not self.torsion

    def direct_sum(self, *others: "FgAbGroup | CountableRank") -> "CountableRank":
        """The countable rank absorbs every free rank; the torsion is renormalised."""
        parts = (FgAbGroup(0, g.torsion) for g in (self, *others))
        return CountableRank(FgAbGroup.zero().direct_sum(*parts).torsion)

    def __str__(self) -> str:
        return " + ".join(["Z^inf", *(f"Z/{decimal_str(d)}" for d in self.torsion)])


@dataclass
class Page:
    """One page of the spectral sequence; treat as an immutable value.

    Cells absent from ``cells`` and ``countable`` are the zero group.
    ``diffs[(p, q)]`` is the differential leaving (p, q) for
    (p - r, q + r - 1 mod period).  ``countable`` holds the countable-rank
    cells, set aside by ``first_page``: no differential touches them, so
    they pass unchanged to E^infty.  Build first pages with ``first_page``.
    """

    r: int
    cap: int
    period: int
    cells: dict[tuple[int, int], SubquotientCell]
    diffs: dict[tuple[int, int], GroupHom] = field(default_factory=dict)
    d1_defaulted: bool = False
    truncated_at: int | None = None
    summands: dict[tuple[int, int], tuple] | None = None
    countable: dict[tuple[int, int], CountableRank] = field(default_factory=dict)

    def target_key(self, p: int, q: int) -> tuple[int, int]:
        return p - self.r, (q + self.r - 1) % self.period

    def source_key(self, p: int, q: int) -> tuple[int, int]:
        return p + self.r, (q - self.r + 1) % self.period

    def cell_group(self, p: int, q: int) -> FgAbGroup | CountableRank:
        key = (p, q % self.period)
        cell = self.cells.get(key)
        return cell.group if cell is not None else self.countable.get(key, FgAbGroup.zero())

    def support(self) -> Iterator[tuple[int, int]]:
        for p in range(self.cap + 1):
            for q in range(self.period):
                yield (p, q)


def first_page(
    cap: int,
    period: int,
    parts: Mapping[tuple[int, int], Sequence[FgAbGroup | CountableRank]],
    d1: Mapping[tuple[int, int], IntMatrix] | None = None,
    truncated_at: int | None = None,
    summands: dict[tuple[int, int], tuple] | None = None,
) -> Page:
    """The first page: cell (p, q) is the direct sum of ``parts[(p, q)]``.

    Zero groups are dropped, and a nonzero cell with p outside 0..cap is
    refused.  A d1 matrix acts on the concatenated generators of a cell's
    summands, in the listed order; a cell with one summand keeps that
    group's own generators.  Each d1 is induced onto the canonical cell
    groups and refused when it is not well defined or d1 o d1 != 0.
    Countable-rank cells go to ``Page.countable``, and a d1 entry that
    touches one is refused.  ``d1_defaulted`` is set when no d1 is given.
    """
    page = Page(1, cap, period, {}, d1_defaulted=not d1, truncated_at=truncated_at,
                summands=summands)
    by_key = {(p, q % period): groups for (p, q), groups in parts.items()}
    for key, groups in by_key.items():
        nonzero = [g for g in groups if not g.is_zero]
        if nonzero and not 0 <= key[0] <= cap:
            raise PageError(f"cell {key} lies outside the support 0..{cap}")
        if any(isinstance(g, CountableRank) for g in nonzero):
            page.countable[key] = CountableRank().direct_sum(*nonzero)
        elif nonzero:
            page.cells[key] = _concatenated_cell(nonzero)
    return _install_diffs(page, d1)


def _install_diffs(page: Page, matrices: Mapping[tuple[int, int], IntMatrix] | None) -> Page:
    """Induce page.r's differentials from matrices on first-page coordinates.

    Each entry's source column must lie in the support, neither end may
    be a countable-rank cell, and the matrix needs a column per first-page
    generator of the source and a row per first-page generator of the
    target.  On page 1 an absent cell has none; on later pages a matrix
    with a dead end is the zero map and is skipped.  The induced map must
    carry cycles into cycles and boundaries into boundaries, and be well
    defined on the cell groups.  Last, each composite d o d must vanish,
    so that the page has homology.
    """
    for (p, q), matrix in (matrices or {}).items():
        key = (p, q % page.period)
        tkey = page.target_key(*key)
        name = f"d{page.r} at {key}"
        if not 0 <= p <= page.cap:
            raise IncompatibleShapes(f"{name} lies outside the support")
        if key in page.countable or tkey in page.countable:
            raise InducedMapIllDefined(f"{name} touches a countable-rank cell")
        src, tgt = page.cells.get(key), page.cells.get(tkey)
        if page.r > 1 and not (src and tgt):
            continue
        shape = (tgt.cycles.rows if tgt else 0, src.cycles.rows if src else 0)
        if (matrix.rows, matrix.cols) != shape:
            raise IncompatibleShapes(
                f"{name}: expected {shape[0]}x{shape[1]} on concatenated summand "
                f"generators, got {matrix.rows}x{matrix.cols}"
            )
        if src and tgt:
            page.diffs[key] = _induce_hom(matrix, src, tgt, name)
    for key in sorted(page.diffs):
        tkey = page.target_key(*key)
        if tkey in page.diffs and not page.diffs[tkey].compose(page.diffs[key]).is_zero_map():
            raise InducedMapIllDefined(f"d{page.r} at {key}: d o d != 0 through {tkey}")
    return page


def _induce_hom(matrix: IntMatrix, src: SubquotientCell, tgt: SubquotientCell, name: str) -> GroupHom:
    """Induce a map of subquotients from an ambient-coordinate matrix.

    The source cycles are spanned by the source boundaries and generators,
    so once boundaries go into boundaries, solving for the generators'
    images in the target's cycle basis checks every cycle; ``tgt.proj``
    then gives their generator coordinates.
    """
    if solve_columns(tgt.boundaries, matrix @ src.boundaries) is None:
        raise InducedMapIllDefined(f"{name}: boundaries are not carried into boundaries")
    images = solve_columns(tgt.cycles, matrix @ src.gens)
    if images is None:
        raise InducedMapIllDefined(f"{name}: cycles are not carried into cycles")
    coords = tgt.proj @ images
    cols = [tgt.group.reduce_element(coords.column(j)) for j in range(coords.cols)]
    return GroupHom(src.group, tgt.group, IntMatrix.from_columns(cols, tgt.group.gen_count))


def _cut_cycles(
    out_h: GroupHom, cell: SubquotientCell, coords: IntMatrix, factor: Callable[[IntMatrix], SnfResult]
) -> tuple[IntMatrix, IntMatrix]:
    """The cycles of ``cell`` that ``out_h`` kills, and ``coords`` (boundary
    coordinates in the basis ``cell.cycles``) in their basis.

    phi = out_h.matrix @ cell.proj acts on cycle coordinates.  One Smith
    form U @ [phi | R] @ V == D, with R the target's relation matrix, gives
    both.  R's columns d_i e_{f+i} are independent, so phi @ y + R @ w == 0
    fixes w by y: the trailing columns of V, cut to phi's columns, are a
    basis K of {y : phi @ y in R's lattice}.  A boundary y has w_i =
    -(phi @ y)_{f+i} / d_i, and V_inv @ [y; w] is zero in its first rank
    rows and holds y's coordinates in K below them; anything else there
    means y is not in the new cycles.
    """
    phi = out_h.matrix @ cell.proj
    target = out_h.target
    s = factor(phi.hstack(target.relation_matrix()))
    n, rank, k = s.matrix.cols, s.rank, coords.cols
    trailing = (0,) * (rank * (n - rank)) + IntMatrix.identity(n - rank).entries
    kernel = s.apply_V(IntMatrix(n, n - rank, trailing)).select_rows(range(phi.cols))
    w: tuple[int, ...] = ()
    if target.torsion:
        image = phi @ coords
        w = tuple(-(x // d) for i, d in enumerate(target.torsion) for x in image.row(target.free_rank + i))
    lifted = s.apply_V_inv(IntMatrix(n, k, coords.entries + w)).entries
    if any(lifted[: rank * k]):
        raise AbelianError("boundary lattice is not contained in the cycle lattice")
    return cell.cycles @ kernel, IntMatrix(n - rank, k, lifted[rank * k :])


def turn_page(page: Page, injected: Mapping[tuple[int, int], IntMatrix] | None = None) -> Page:
    """Homology of every cell under the current differentials.

    A cell whose maps in and out are zero has E^{r+1} = E^r and passes
    through as the same object, without a new Smith normal form.  Within
    the turn no matrix is factored twice, so a differential out of a cell
    whose generators are its cycles, into a free cell with no boundaries,
    is factored once for both ends.

    The next page's differentials default to zero; ``injected`` is the
    documented escape hatch for supplying a d^{r+1} as a matrix on
    first-page ambient coordinates (used by tests; the engine itself never
    invents higher differentials).  It is installed with the checks of
    d1, and a nonzero d o d raises InducedMapIllDefined.
    """
    factor = cache(smith_normal_form)
    live = {key: h for key, h in page.diffs.items() if not h.is_zero_map()}
    new_cells: dict[tuple[int, int], SubquotientCell] = {}
    for (p, q), cell in page.cells.items():
        out_h = live.get((p, q))
        in_h = live.get(page.source_key(p, q))
        if out_h is None and in_h is None:
            new_cells[(p, q)] = cell
            continue
        boundary_gens = cell.boundaries
        if in_h is not None:
            boundary_gens = cell.boundaries.hstack(cell.gens @ in_h.matrix)
        cycles, coords = cell.cycles, solve_columns(cell.cycles, boundary_gens)
        if coords is None:
            raise AbelianError("boundary lattice is not contained in the cycle lattice")
        if out_h is not None:
            cycles, coords = _cut_cycles(out_h, cell, coords, factor)
        new_cell = subquotient(cycles, coords if coords.is_identity() else factor(coords))
        if not new_cell.group.is_zero:
            new_cells[(p, q)] = new_cell

    return _install_diffs(replace(page, r=page.r + 1, cells=new_cells, diffs={}), injected)


@dataclass
class SpectralRun:
    """Record of a full run: pages 1..cap+2, the limit page, stabilization."""

    pages: list[Page]
    e_infinity: dict[tuple[int, int], FgAbGroup | CountableRank]
    stabilized_at: int
    period: int
    cap: int

    @property
    def first_page(self) -> Page:
        return self.pages[0]

    def e_infinity_at(self, p: int, q: int) -> FgAbGroup | CountableRank:
        return self.e_infinity.get((p, q % self.period), FgAbGroup.zero())


def run_to_infinity(
    page1: Page,
    injected_by_page: Mapping[int, Mapping[tuple[int, int], IntMatrix]] | None = None,
) -> SpectralRun:
    """Iterate turn_page until every differential has exited the support.

    For support cap P that happens at page P+2 at the latest, so the last
    computed page equals E^infty.  ``stabilized_at`` is one more than the
    last page with a nonzero differential, or 1 when there is none: a page
    whose maps are all zero passes every cell on unchanged.
    """
    pages = [page1]
    last = page1.cap + 2
    while pages[-1].r < last:
        nxt_injected = None
        if injected_by_page:
            nxt_injected = injected_by_page.get(pages[-1].r + 1)
        pages.append(turn_page(pages[-1], nxt_injected))
    live = [page.r for page in pages if not all(h.is_zero_map() for h in page.diffs.values())]
    final = pages[-1]
    e_inf = {**final.countable, **{key: cell.group for key, cell in final.cells.items()}}
    return SpectralRun(pages, e_inf, max(live, default=0) + 1, page1.period, page1.cap)
