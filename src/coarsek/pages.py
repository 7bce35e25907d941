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

from dataclasses import dataclass, field
from typing import Iterator, Mapping

from .abelian import (
    FgAbGroup,
    GroupHom,
    IntMatrix,
    _classified_snf,
    lattice_basis,
    preimage_basis,
    smith_normal_form,
    solve_columns,
)


class PageError(Exception):
    pass


class InvalidPage(PageError):
    def __init__(self, diagnostics: list[str]):
        super().__init__("; ".join(diagnostics))
        self.diagnostics = diagnostics


class InducedMapIllDefined(PageError):
    pass


@dataclass(frozen=True)
class Grading:
    """Bott period of the q-grading: 2 for complex K-theory, 8 for KO."""

    period: int = 2

    def __post_init__(self) -> None:
        if self.period not in (2, 8):
            raise ValueError("grading period must be 2 or 8")


@dataclass(frozen=True)
class SubquotientCell:
    """A cell as cycles-over-boundaries inside its first-page ancestor.

    ``cycles`` and ``boundaries`` are lattice bases inside Z^m where m is
    the ancestor's generator count; the boundary lattice always contains
    the ancestor's relation lattice, so ``group`` is genuinely Z/B.
    For countable-rank ancestors all lattice fields are None and the cell
    passes through page turning untouched (only zero maps may touch it).
    """

    ambient: FgAbGroup
    cycles: IntMatrix | None
    boundaries: IntMatrix | None
    group: FgAbGroup
    gens: IntMatrix | None
    proj: IntMatrix | None

    @property
    def is_infinite(self) -> bool:
        return self.ambient.is_countable

    def coords(self, vec) -> tuple[int, ...]:
        """Generator coordinates of an ambient vector lying in the cycles."""
        col = IntMatrix.from_columns([list(vec)], self.cycles.rows)
        c = solve_columns(self.cycles, col)
        if c is None:
            raise PageError("vector is not a cycle of this cell")
        return self.group.reduce_element(self.proj.apply(c.column(0)))


def subquotient(ambient: FgAbGroup, cycle_gens: IntMatrix, boundary_gens: IntMatrix) -> SubquotientCell:
    """Build the cell Z/B from generating sets of the two sublattices."""
    zb = lattice_basis(cycle_gens)
    bb = lattice_basis(boundary_gens)
    expressed = solve_columns(zb, bb)
    if expressed is None:
        raise PageError("boundary lattice is not contained in the cycle lattice")
    s = smith_normal_form(expressed)
    group, sel = _classified_snf(s)
    gens = zb @ s.U_inv.select_columns(sel)
    proj = s.U.select_rows(sel)
    return SubquotientCell(ambient, zb, bb, group, gens, proj)


def full_cell(group: FgAbGroup) -> SubquotientCell:
    """First-page cell: the whole group as a subquotient of itself."""
    if group.is_countable:
        return SubquotientCell(group, None, None, group, None, None)
    m = group.gen_count
    return subquotient(group, IntMatrix.identity(m), group.relation_matrix())


@dataclass
class Page:
    """One page of the spectral sequence; treat as an immutable value.

    Cells absent from ``cells`` are the zero group.  ``diffs[(p, q)]`` is
    the differential leaving (p, q) for (p - r, q + r - 1 mod period).
    """

    r: int
    cap: int
    grading: Grading
    cells: dict[tuple[int, int], SubquotientCell]
    diffs: dict[tuple[int, int], GroupHom] = field(default_factory=dict)
    d1_defaulted: bool = False
    truncated_at: int | None = None
    summands: dict[tuple[int, int], tuple] | None = None

    @property
    def period(self) -> int:
        return self.grading.period

    def target_key(self, p: int, q: int) -> tuple[int, int]:
        return p - self.r, (q + self.r - 1) % self.period

    def source_key(self, p: int, q: int) -> tuple[int, int]:
        return p + self.r, (q - self.r + 1) % self.period

    def cell_group(self, p: int, q: int) -> FgAbGroup:
        cell = self.cells.get((p, q % self.period))
        return cell.group if cell is not None else FgAbGroup.zero()

    def support(self) -> Iterator[tuple[int, int]]:
        for p in range(self.cap + 1):
            for q in range(self.period):
                yield (p, q)

    @classmethod
    def from_groups(
        cls,
        cap: int,
        grading: Grading,
        groups: Mapping[tuple[int, int], FgAbGroup],
        d1: Mapping[tuple[int, int], IntMatrix] | None = None,
        d1_defaulted: bool = False,
    ) -> "Page":
        """First page from plain groups plus optional d1 matrices."""
        cells: dict[tuple[int, int], SubquotientCell] = {}
        for (p, q), g in groups.items():
            if g.is_zero:
                continue
            cells[(p, q % grading.period)] = full_cell(g)
        page = cls(1, cap, grading, cells, d1_defaulted=d1_defaulted)
        if d1:
            for (p, q), mat in d1.items():
                key = (p, q % grading.period)
                src = page.cell_group(*key)
                tgt = page.cell_group(*page.target_key(*key))
                hom = GroupHom(src, tgt, mat)
                if src.is_zero or tgt.is_zero:
                    continue
                page.diffs[key] = hom
        return page


def validate_page(page: Page) -> tuple[bool, list[str]]:
    """Check bidegrees, support, endpoint groups, and d o d == 0.

    Returns (ok, diagnostics); the first diagnostic names the first
    failing (p, q).
    """
    diags: list[str] = []
    per = page.period
    for (p, q), cell in sorted(page.cells.items()):
        if q < 0 or q >= per:
            diags.append(f"({p},{q}): q outside 0..{per - 1}")
        if p < 0 or p > page.cap:
            diags.append(f"({p},{q}): nonzero cell outside support 0..{page.cap}")
    for (p, q), hom in sorted(page.diffs.items()):
        src = page.cell_group(p, q)
        tp, tq = page.target_key(p, q)
        tgt = page.cell_group(tp, tq)
        if hom.source != src:
            diags.append(f"({p},{q}): differential source group mismatch")
            continue
        if hom.target != tgt:
            diags.append(
                f"({p},{q}): differential target is not the cell at ({tp},{tq})"
            )
            continue
        nxt = page.diffs.get((tp, tq))
        if nxt is not None and not nxt.compose(hom).is_zero_map():
            diags.append(f"({p},{q}): d o d != 0 through ({tp},{tq})")
    return (not diags, diags)


def _induce_hom(
    matrix: IntMatrix,
    src: SubquotientCell,
    tgt: SubquotientCell,
    where: tuple[int, int],
) -> GroupHom:
    """Induce a map of subquotients from an ambient-coordinate matrix."""
    if src.is_infinite or tgt.is_infinite:
        raise InducedMapIllDefined(f"{where}: cannot induce maps through countable-rank cells")
    if matrix.rows != tgt.cycles.rows or matrix.cols != src.cycles.rows:
        raise InducedMapIllDefined(f"{where}: ambient matrix has wrong shape")
    if solve_columns(tgt.cycles, matrix @ src.cycles) is None:
        raise InducedMapIllDefined(f"{where}: cycles are not carried into cycles")
    if solve_columns(tgt.boundaries, matrix @ src.boundaries) is None:
        raise InducedMapIllDefined(f"{where}: boundaries are not carried into boundaries")
    images = matrix @ src.gens
    cols = [list(tgt.coords(images.column(j))) for j in range(images.cols)]
    induced = IntMatrix.from_columns(cols, tgt.group.gen_count)
    return GroupHom(src.group, tgt.group, induced)


def turn_page(page: Page, injected: Mapping[tuple[int, int], IntMatrix] | None = None) -> Page:
    """Homology of every cell under the current differentials.

    A cell whose maps in and out are zero has E^{r+1} = E^r and passes
    through as the same object, without a new Smith normal form.

    The next page's differentials default to zero; ``injected`` is the
    documented escape hatch for supplying a d^{r+1} as a matrix on
    first-page ambient coordinates (used by tests; the engine itself never
    invents higher differentials).  Raises InducedMapIllDefined when an
    injected matrix fails to respect the cycle or boundary lattices.
    """
    r_new = page.r + 1
    per = page.period
    new_cells: dict[tuple[int, int], SubquotientCell] = {}
    for (p, q), cell in page.cells.items():
        out_h = page.diffs.get((p, q))
        in_h = page.diffs.get(page.source_key(p, q))
        out_live = out_h is not None and not out_h.is_zero_map()
        in_live = in_h is not None and not in_h.is_zero_map()
        if not (out_live or in_live):
            new_cells[(p, q)] = cell
            continue
        if cell.is_infinite:
            raise InducedMapIllDefined(f"({p},{q}): countable-rank cell admits only zero maps")
        cycle_gens = cell.cycles
        if out_live:
            phi = out_h.matrix @ cell.proj
            pullback = preimage_basis(phi, out_h.target.relation_matrix())
            cycle_gens = cell.cycles @ pullback
        boundary_gens = cell.boundaries
        if in_live:
            boundary_gens = cell.boundaries.hstack(cell.gens @ in_h.matrix)
        new_cell = subquotient(cell.ambient, cycle_gens, boundary_gens)
        if not new_cell.group.is_zero:
            new_cells[(p, q)] = new_cell

    new_diffs: dict[tuple[int, int], GroupHom] = {}
    if injected:
        for (p, q), matrix in injected.items():
            key = (p, q % per)
            src = new_cells.get(key)
            if src is None:
                continue
            tp = p - r_new
            tq = (q + r_new - 1) % per
            tgt = new_cells.get((tp, tq))
            if tgt is None:
                continue
            new_diffs[key] = _induce_hom(matrix, src, tgt, key)
        for (p, q), hom in new_diffs.items():
            tp, tq = p - r_new, (q + r_new - 1) % per
            nxt = new_diffs.get((tp, tq))
            if nxt is not None and not nxt.compose(hom).is_zero_map():
                raise InducedMapIllDefined(f"({p},{q}): induced d o d != 0")

    return Page(
        r_new,
        page.cap,
        page.grading,
        new_cells,
        new_diffs,
        d1_defaulted=page.d1_defaulted,
        truncated_at=page.truncated_at,
        summands=page.summands,
    )


def cells_isomorphic(a: Page, b: Page) -> bool:
    keys = set(a.cells) | set(b.cells)
    return all(a.cell_group(*k) == b.cell_group(*k) for k in keys)


@dataclass
class SpectralRun:
    """Record of a full run: pages 1..cap+2, the limit page, stabilization."""

    pages: list[Page]
    e_infinity: dict[tuple[int, int], FgAbGroup]
    stabilized_at: int
    grading: Grading
    cap: int

    @property
    def first_page(self) -> Page:
        return self.pages[0]

    @property
    def last_page(self) -> Page:
        return self.pages[-1]

    def e_infinity_at(self, p: int, q: int) -> FgAbGroup:
        return self.e_infinity.get((p, q % self.grading.period), FgAbGroup.zero())


def run_to_infinity(
    page1: Page,
    injected_by_page: Mapping[int, Mapping[tuple[int, int], IntMatrix]] | None = None,
) -> SpectralRun:
    """Iterate turn_page until every differential has exited the support.

    For support cap P that happens at page P+2 at the latest, so the last
    computed page equals E^infty.  ``stabilized_at`` is the smallest r
    from which all pages onward agree cellwise with zero differentials.
    """
    ok, diags = validate_page(page1)
    if not ok:
        raise InvalidPage(diags)
    if page1.r != 1:
        raise InvalidPage(["run must start from a first page"])
    pages = [page1]
    last = page1.cap + 2
    while pages[-1].r < last:
        nxt_injected = None
        if injected_by_page:
            nxt_injected = injected_by_page.get(pages[-1].r + 1)
        pages.append(turn_page(pages[-1], nxt_injected))
    stabilized = last
    for page in reversed(pages[:-1]):
        if all(h.is_zero_map() for h in page.diffs.values()) and cells_isomorphic(
            page, pages[page.r]
        ):
            stabilized = page.r
        else:
            break
    final = pages[-1]
    e_inf = {key: cell.group for key, cell in final.cells.items()}
    return SpectralRun(pages, e_inf, stabilized, page1.grading, page1.cap)
