"""First-page builders, target assembly, and truncation sweeps.

Two input shapes produce a first page: a chain of ideals (cell (p, q) is
the K-theory of the p-th subquotient in degree p+q) and a Mayer-Vietoris
decomposition (cell (p, q) is the direct sum over all (p+1)-fold index
sets J of the K-theory of the J-fold intersection).

Both inputs are plain tables that leave out what is zero: an ideal chain
maps (p, s) to the degree-s K-group of the p-th subquotient, and a
Mayer-Vietoris input maps index sets to the K-theory of their
intersection.  The readers in ``jsonio`` check a file for completeness;
the builders trust their input.

Differentials on the first page default to zero and that default is
marked loudly in every report: the engine never fabricates maps.  Both
builders go through ``pages.first_page``, so user d1 matrices act on the
concatenated summand generators (in the recorded lexicographic-on-sorted-J
order; an ideal-chain cell has one summand, so on that group's own
generators) and are induced onto the canonical cell groups from there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from typing import Callable, Mapping, Sequence

from .abelian import FgAbGroup, IntMatrix
from .pages import CountableRank, Page, SpectralRun, first_page, run_to_infinity


class AssemblyError(ValueError):
    pass


class CapTooSmall(AssemblyError):
    pass


# ---------------------------------------------------------------------------
# input shapes


@dataclass(frozen=True)
class MvInput:
    """K-data of the finite intersections of a decomposition into ideals.

    ``intersections`` maps a sorted label tuple J to its graded K-groups
    {q mod period: group}; an index set it leaves out has zero K-theory.
    ``cap`` caps the column index p, so index sets up to size cap+1 are
    consulted and larger ones skipped; for a finite family the natural cap
    is len(labels) - 1.

    ``truncated_at`` is None when every K-group beyond the caps is known
    to be zero; otherwise the run is truncated and every report says so.
    """

    labels: tuple
    cap: int
    intersections: Mapping[tuple, Mapping[int, FgAbGroup | CountableRank]] = field(default_factory=dict)
    d1: Mapping[tuple[int, int], IntMatrix] | None = None
    period: int = 2
    truncated_at: int | None = None

    def __post_init__(self) -> None:
        if not (0 <= self.cap <= max(len(self.labels) - 1, 0)):
            raise ValueError("cap must lie in 0..len(labels)-1")

    def graded_for(self, j: tuple) -> Mapping[int, FgAbGroup | CountableRank]:
        return self.intersections.get(tuple(sorted(j)), {})


# ---------------------------------------------------------------------------
# first-page builders


def build_ideal_chain_e1(length: int, period: int, groups: Mapping, d1: Mapping | None = None) -> Page:
    """Cell (p, q) carries ``groups[(p, s)]`` with s = p + q modulo ``period``,
    for 0 <= p <= length; ``d1`` is keyed by cell, as for ``first_page``."""
    parts = {(p, (s - p) % period): [g] for (p, s), g in groups.items()}
    return first_page(length, period, parts, d1)


def build_mv_e1(inp: MvInput) -> Page:
    """Direct sums of intersection K-groups over |J| = p + 1, column by column.

    Only nonzero summands enter a cell; they are ordered lexicographically
    on the sorted index sets and the order is recorded on the page, so user
    d1 matrices (acting on the concatenated summand generators) are
    unambiguous.  Zero summands have no generators, so leaving them out
    (including every set the table leaves out) does not move any generator.
    """
    parts: dict[tuple[int, int], list[FgAbGroup | CountableRank]] = {}
    summands: dict[tuple[int, int], tuple] = {}
    for size, sets in groupby(sorted(inp.intersections, key=lambda j: (len(j), j)), len):
        if size > inp.cap + 1:
            break
        graded = [(j, inp.intersections[j]) for j in sets]
        for q in range(inp.period):
            nonzero = [(j, g[q]) for j, g in graded if q in g and not g[q].is_zero]
            if nonzero:
                parts[(size - 1, q)] = [g for _, g in nonzero]
                summands[(size - 1, q)] = tuple(j for j, _ in nonzero)
    if inp.truncated_at is None and inp.cap < len(inp.labels) - 1:
        if any(p == inp.cap for p, _ in parts):
            raise CapTooSmall(
                f"nonzero group at the cap boundary p={inp.cap}; "
                "raise the cap or mark the run as truncated"
            )
    return first_page(inp.cap, inp.period, parts, inp.d1, inp.truncated_at, summands)


# ---------------------------------------------------------------------------
# assembling the convergence target


@dataclass(frozen=True)
class DegreeReport:
    """Nonzero diagonal pieces by rising p and, when extensions split, the
    assembled group."""

    degree: int
    pieces: tuple[tuple[int, FgAbGroup | CountableRank], ...]
    assembled: FgAbGroup | CountableRank | None

    @property
    def ambiguous(self) -> bool:
        return self.assembled is None


@dataclass(frozen=True)
class FiltrationReport:
    period: int
    cap: int
    stabilized_at: int
    d1_assumed_zero: bool
    truncated_at: int | None
    degrees: tuple[DegreeReport, ...]
    # first-page order of the nonzero summands per nonzero cell, when the
    # page was a direct-sum build; this is what makes user d1 matrices
    # unambiguous
    summands: Mapping[tuple[int, int], tuple] | None = None

    def degree(self, s: int) -> DegreeReport:
        return self.degrees[s % self.period]

    @property
    def any_ambiguous(self) -> bool:
        return any(d.ambiguous for d in self.degrees)


def assemble_target(run: SpectralRun) -> FiltrationReport:
    """Stack the diagonal limit pieces bottom-up into each target degree.

    Each step is an extension of the piece at filtration level p by the
    group assembled so far; the extension is split only when the new piece
    is free, so anything else leaves the degree unassembled (ambiguous) with
    the full piece list left to the reader.  Only the nonzero cells of
    E^infty are read, so the cap costs nothing on its own.
    """
    first = run.first_page
    by_degree: list[list] = [[] for _ in range(first.period)]
    for (p, q), piece in sorted(run.e_infinity.items()):
        by_degree[(p + q) % first.period].append((p, piece))
    degrees = []
    for s, pieces in enumerate(by_degree):
        assembled: FgAbGroup | CountableRank | None = FgAbGroup.zero()
        for _, piece in pieces:
            if assembled.is_zero:
                assembled = piece
            elif piece.is_free:  # FgAbGroup.direct_sum takes finite groups only
                assembled = piece.direct_sum(assembled) if isinstance(piece, CountableRank) else assembled.direct_sum(piece)
            else:
                assembled = None
                break
        degrees.append(DegreeReport(s, tuple(pieces), assembled))
    return FiltrationReport(
        period=first.period,
        cap=first.cap,
        stabilized_at=run.stabilized_at,
        d1_assumed_zero=first.d1_defaulted,
        truncated_at=first.truncated_at,
        degrees=tuple(degrees),
        summands=first.summands,
    )


# ---------------------------------------------------------------------------
# truncation sweeps: direct-limit semantics at desk scale


@dataclass(frozen=True)
class SweepReport:
    """Per-cap snapshots plus the caps at which answers stop changing.

    ``e1_cells[cap]`` holds the nonzero first-page cells at that cap.
    ``cell_stable_at[(p, q)]``, for each cell nonzero at some cap, is the
    smallest cap from which the cell stays the same for every later cap in
    the sweep (None if it never settles within the sweep);
    ``assembled_stable_at`` does the same per target degree.
    """

    caps: tuple[int, ...]
    e1_cells: Mapping[int, Mapping[tuple[int, int], FgAbGroup | CountableRank]]
    reports: Mapping[int, FiltrationReport]
    cell_stable_at: Mapping[tuple[int, int], int | None]
    assembled_stable_at: Mapping[int, int | None]


def _stable_from(values: Sequence, caps: Sequence[int]) -> int | None:
    """Smallest cap whose value persists through the end of the sweep.

    None when the value was still changing at the final cap (a single-cap
    sweep is vacuously stable at its one cap).
    """
    idx = len(values) - 1
    for i in range(len(values) - 2, -1, -1):
        if values[i] != values[-1]:
            break
        idx = i
    if idx == len(values) - 1 and len(values) > 1:
        return None
    return caps[idx]


def truncation_sweep(family: Callable[[int], MvInput], caps: Sequence[int]) -> SweepReport:
    """Run the pipeline once at each distinct cap and report where answers settle."""
    caps = tuple(sorted(set(caps)))
    e1_cells: dict[int, dict[tuple[int, int], FgAbGroup | CountableRank]] = {}
    reports: dict[int, FiltrationReport] = {}
    period = None
    for cap in caps:
        page = build_mv_e1(family(cap))
        period = page.period
        e1_cells[cap] = page.groups
        reports[cap] = assemble_target(run_to_infinity(page))
    all_keys = sorted({k for cells in e1_cells.values() for k in cells})
    cell_stable: dict[tuple[int, int], int | None] = {}
    for key in all_keys:
        values = [e1_cells[c].get(key, FgAbGroup.zero()) for c in caps]
        cell_stable[key] = _stable_from(values, caps)
    assembled_stable: dict[int, int | None] = {}
    for s in range(period or 2):
        values = [reports[c].degree(s).assembled for c in caps]
        assembled_stable[s] = _stable_from(values, caps)
    return SweepReport(caps, e1_cells, reports, cell_stable, assembled_stable)
