"""Bigraded spectral-sequence pages over finitely generated abelian groups.

A page stores cells E_{p,q} for 0 <= p <= cap and q taken modulo the Bott
period, together with differentials of bidegree (-r, r-1).  Every cell is
kept as a subquotient Z/B written in a basis of its own cycle lattice Z:
on page 1 the concatenated summand generators, after that the basis its
last cut left.  Turning a page reads boundary coordinates straight off
the cells, so it is plain lattice arithmetic with no solving.

A page keeps only its nonzero differentials, and one with none passes
every cell on unchanged: it and every later page are E^infty.  All
nonzero groups sit in the half plane p >= 0, so every d^r with r > cap
exits the support.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cache
from typing import Callable, Mapping, Sequence

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
    subquotient,
)


class PageError(ValueError):
    pass


class InducedMapIllDefined(PageError):
    pass


def _concatenated_cell(parts: Sequence[FgAbGroup]) -> SubquotientCell:
    """First-page cell for a direct sum of nonzero groups on the concatenated
    summand generators, which are its cycle basis.  When they already are
    an invariant-factor basis of the sum (always so for one summand), they
    are the cell's generators."""
    orders = [d for g in parts for d in g.generator_orders()]
    m = len(orders)
    eye = IntMatrix.identity(m)
    rels = IntMatrix.from_columns(
        [[d if i == k else 0 for i in range(m)] for k, d in enumerate(orders) if d], m
    )
    total = FgAbGroup.zero().direct_sum(*parts)
    if total.generator_orders() == tuple(orders):
        return SubquotientCell(rels, total, eye, eye)
    return subquotient(smith_normal_form(rels))


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
    ``diffs[(p, q)]`` is the nonzero differential leaving (p, q) for
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

    @property
    def groups(self) -> dict[tuple[int, int], FgAbGroup | CountableRank]:
        """Every nonzero cell's group; a cell absent here is zero."""
        return {**self.countable, **{key: cell.group for key, cell in self.cells.items()}}


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
    """Install page.r's differentials from matrices.

    Each entry's source column must lie in the support, and neither end
    may be a countable-rank cell.  A d1 acts on first-page coordinates: a
    column per concatenated summand generator of the source, a row per one
    of the target, and none for an absent cell.  A later d^r acts on the
    generators of the E^r cell groups, and is skipped when it has a dead
    end.  A map that passes these checks is stored unless it is zero.
    Last, each d o d, as the product of the two matrices, must be zero in
    the group it lands in, so that the page has homology.
    """
    first = page.r == 1
    for (p, q), matrix in (matrices or {}).items():
        key = (p, q % page.period)
        tkey = page.target_key(*key)
        name = f"d{page.r} at {key}"
        if not 0 <= p <= page.cap:
            raise IncompatibleShapes(f"{name} lies outside the support")
        if key in page.countable or tkey in page.countable:
            raise InducedMapIllDefined(f"{name} touches a countable-rank cell")
        src, tgt = page.cells.get(key), page.cells.get(tkey)
        if not first and not (src and tgt):
            continue
        shape = tuple(0 if c is None else c.gens.rows if first else c.gens.cols for c in (tgt, src))
        if (matrix.rows, matrix.cols) != shape:
            basis = "concatenated summand" if first else f"E^{page.r}"
            raise IncompatibleShapes(
                f"{name}: expected {shape[0]}x{shape[1]} on {basis} generators, got {matrix.rows}x{matrix.cols}"
            )
        if src and tgt:
            h = _induce_hom(matrix, src, tgt, name, first)
            if not h.is_zero_map():
                page.diffs[key] = h
    for key in sorted(page.diffs):
        tkey = page.target_key(*key)
        if tkey in page.diffs:
            d_s, d_t = page.diffs[key], page.diffs[tkey]
            if not d_t.target.columns_vanish(d_t.matrix @ d_s.matrix):
                raise InducedMapIllDefined(f"d{page.r} at {key}: d o d != 0 through {tkey}")
    return page


def _induce_hom(matrix: IntMatrix, src: SubquotientCell, tgt: SubquotientCell, name: str, first: bool) -> GroupHom:
    """The map of cell groups that ``matrix`` gives, if it is well defined.

    A later d^r is its matrix.  A d1 acts on first-page coordinates, where
    every vector is a cycle and x is a boundary exactly when
    ``tgt.proj @ x`` is zero in the target group.  So d1 is well defined
    once each source boundary goes to zero there, and
    ``tgt.proj @ matrix @ src.gens`` holds the generators' images, whose
    torsion rows are then reduced mod their orders.
    """
    if first:
        to_group = tgt.proj @ matrix
        if not tgt.group.columns_vanish(to_group @ src.boundaries):
            raise InducedMapIllDefined(f"{name}: boundaries are not carried into boundaries")
        images = to_group @ src.gens
        k, free = images.cols, tgt.group.free_rank * images.cols
        torsion = (x % tgt.group.torsion[i // k] for i, x in enumerate(images.entries[free:]))
        matrix = IntMatrix(images.rows, k, images.entries[:free] + tuple(torsion))
    try:
        return GroupHom(src.group, tgt.group, matrix)
    except IncompatibleShapes as exc:
        raise InducedMapIllDefined(f"{name}: {exc}") from None


def _cut_cycles(
    out_h: GroupHom, cell: SubquotientCell, coords: IntMatrix, factor: Callable[[IntMatrix], SnfResult]
) -> IntMatrix:
    """``coords`` (boundary coordinates in the cell's cycle basis) in a
    basis K of the cycles that ``out_h`` kills, the next page's cycle basis.

    phi = out_h.matrix @ cell.proj acts on cycle coordinates.  Take one
    Smith form U @ [phi | R] @ V == D, with R the target's relation matrix.
    R's columns d_i e_{f+i} are independent, so phi @ y + R @ w == 0 fixes
    w by y: the trailing columns of V, cut to phi's columns, are K, and K
    itself is never built.  A boundary y has w_i = -(phi @ y)_{f+i} / d_i,
    and V_inv @ [y; w] is zero in its first rank rows and holds y's
    coordinates in K below them; anything else there means y is not in
    the new cycles.
    """
    phi = out_h.matrix @ cell.proj
    target = out_h.target
    s = factor(phi.hstack(target.relation_matrix()))
    n, rank, k = s.matrix.cols, s.rank, coords.cols
    w: tuple[int, ...] = ()
    if target.torsion:
        image = phi @ coords
        w = tuple(-(x // d) for i, d in enumerate(target.torsion) for x in image.row(target.free_rank + i))
    lifted = s.apply_V_inv(IntMatrix(n, k, coords.entries + w)).entries
    if any(lifted[: rank * k]):
        raise AbelianError("boundary lattice is not contained in the cycle lattice")
    return IntMatrix(n - rank, k, lifted[rank * k :])


def turn_page(page: Page, injected: Mapping[tuple[int, int], IntMatrix] | None = None) -> Page:
    """Homology of every cell under the current differentials.

    A cell with no map in or out has E^{r+1} = E^r and passes
    through as the same object, without a new Smith normal form.  Within
    the turn no matrix is factored twice, so a differential out of a cell
    whose generators are its cycle basis, into a free cell with no
    boundaries, is factored once for both ends.

    The next page has no differentials by default; ``injected`` is the
    documented escape hatch for supplying d^{r+1} as matrices on the
    generators of the E^{r+1} cell groups (used by tests; the engine itself
    never invents higher differentials).  A map that is not well defined,
    or a nonzero d o d, raises InducedMapIllDefined.
    """
    factor = cache(smith_normal_form)
    new_cells: dict[tuple[int, int], SubquotientCell] = {}
    for (p, q), cell in page.cells.items():
        out_h = page.diffs.get((p, q))
        in_h = page.diffs.get(page.source_key(p, q))
        if out_h is None and in_h is None:
            new_cells[(p, q)] = cell
            continue
        coords = cell.boundaries
        if in_h is not None:
            coords = coords.hstack(cell.gens @ in_h.matrix)
        if out_h is not None:
            coords = _cut_cycles(out_h, cell, coords, factor)
        if coords.is_identity():  # B = Z: the cell dies unfactored
            continue
        new_cell = subquotient(factor(coords))
        if not new_cell.group.is_zero:
            new_cells[(p, q)] = new_cell

    return _install_diffs(replace(page, r=page.r + 1, cells=new_cells, diffs={}), injected)


@dataclass
class SpectralRun:
    """Record of a full run: pages 1, 2, ... up to the first still one, E^infty."""

    pages: list[Page]
    stabilized_at: int

    @property
    def first_page(self) -> Page:
        return self.pages[0]

    @property
    def e_infinity(self) -> dict[tuple[int, int], FgAbGroup | CountableRank]:
        return self.pages[-1].groups


def run_to_infinity(
    page1: Page,
    injected_by_page: Mapping[int, Mapping[tuple[int, int], IntMatrix]] | None = None,
) -> SpectralRun:
    """Turn pages until one has no differential and no injected page is ahead.

    That last page is E^infty: it passes every cell on unchanged, and so
    does every page after it.  Injected maps for pages past cap+2 are
    ignored, since every differential there exits the support.
    ``stabilized_at`` is one more than the last page with a nonzero
    differential, or 1 when there is none.
    """
    injected_by_page = injected_by_page or {}
    ahead = max((r for r in injected_by_page if r <= page1.cap + 2), default=1)
    pages = [page1]
    while pages[-1].diffs or pages[-1].r < ahead:
        pages.append(turn_page(pages[-1], injected_by_page.get(pages[-1].r + 1)))
    return SpectralRun(pages, max((page.r for page in pages if page.diffs), default=0) + 1)
