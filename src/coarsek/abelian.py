"""Exact arithmetic on finitely generated abelian groups.

Groups are kept in invariant-factor normal form (free rank plus a
divisibility chain of torsion coefficients), homomorphisms are integer
matrices on a fixed generator convention, and every kernel / image /
quotient is computed through integer Smith normal form.  All integers are
Python ints, so arithmetic is arbitrary precision and can never wrap.

Generator convention: free generators first, then one generator per
torsion factor, in divisibility order.  All matrices in this package use
that convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from operator import mul
from typing import Sequence


class AbelianError(Exception):
    """Base error for this module."""


class IncompatibleShapes(AbelianError):
    pass


class InfiniteRankArithmetic(AbelianError):
    """Nonzero arithmetic was requested through a countable-rank group."""


# ---------------------------------------------------------------------------
# integer matrices


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, row-major storage.

    >>> IntMatrix.from_rows([[1, 2], [3, 4]]) @ IntMatrix.identity(2)
    IntMatrix.from_rows([[1, 2], [3, 4]])
    """

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise IncompatibleShapes("negative matrix dimension")
        if len(self.entries) != self.rows * self.cols:
            raise IncompatibleShapes(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )

    @classmethod
    def from_rows(cls, data: Sequence[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        rows = len(data)
        if rows == 0:
            return cls(0, 0 if cols is None else cols, ())
        width = len(data[0])
        flat: list[int] = []
        for row in data:
            if len(row) != width:
                raise IncompatibleShapes("ragged rows")
            flat.extend(int(x) for x in row)
        return cls(rows, width, tuple(flat))

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[int]], rows: int) -> "IntMatrix":
        for col in columns:
            if len(col) != rows:
                raise IncompatibleShapes("column of wrong height")
        flat = tuple(int(col[i]) for i in range(rows) for col in columns)
        return cls(rows, len(columns), flat)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, (0,) * (rows * cols))

    @classmethod
    def diagonal(cls, diag: Sequence[int]) -> "IntMatrix":
        n = len(diag)
        return cls(n, n, tuple(diag[i] if i == j else 0 for i in range(n) for j in range(n)))

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise IncompatibleShapes(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        cols = [other.entries[j :: other.cols] for j in range(other.cols)]
        flat = tuple(sum(map(mul, self.row(i), col)) for i in range(self.rows) for col in cols)
        return IntMatrix(self.rows, other.cols, flat)

    def apply(self, vec: Sequence[int]) -> tuple[int, ...]:
        if len(vec) != self.cols:
            raise IncompatibleShapes("vector length mismatch")
        return tuple(sum(map(mul, self.row(i), vec)) for i in range(self.rows))

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise IncompatibleShapes("hstack row mismatch")
        flat: list[int] = []
        for i in range(self.rows):
            flat.extend(self.row(i))
            flat.extend(other.row(i))
        return IntMatrix(self.rows, self.cols + other.cols, tuple(flat))

    def select_columns(self, indices: Sequence[int]) -> "IntMatrix":
        flat = tuple(self[i, j] for i in range(self.rows) for j in indices)
        return IntMatrix(self.rows, len(indices), flat)

    def select_rows(self, indices: Sequence[int]) -> "IntMatrix":
        flat = tuple(self[i, j] for i in indices for j in range(self.cols))
        return IntMatrix(len(indices), self.cols, flat)

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IntMatrix.from_rows({self.to_rows()!r})"


# ---------------------------------------------------------------------------
# Smith normal form


@dataclass(frozen=True)
class SnfResult:
    """Certificate U @ matrix @ V == D with U, V unimodular, D diagonal."""

    matrix: IntMatrix
    U: IntMatrix
    D: IntMatrix
    V: IntMatrix
    U_inv: IntMatrix
    V_inv: IntMatrix

    @property
    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.D[i, i] for i in range(min(self.D.rows, self.D.cols)))

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d != 0)

    def check(self) -> bool:
        """Re-verify the certificate from scratch; integer inverses make U, V unimodular."""
        if (self.U @ self.matrix @ self.V).entries != self.D.entries:
            return False
        if not (self.U @ self.U_inv).entries == IntMatrix.identity(self.U.rows).entries:
            return False
        if not (self.V @ self.V_inv).entries == IntMatrix.identity(self.V.rows).entries:
            return False
        for i in range(self.D.rows):
            for j in range(self.D.cols):
                if i != j and self.D[i, j] != 0:
                    return False
        diag = self.diagonal
        for i in range(len(diag) - 1):
            if diag[i] < 0 or (diag[i] == 0 and diag[i + 1] != 0):
                return False
            if diag[i] != 0 and diag[i + 1] % diag[i] != 0:
                return False
        return True


class _SnfWork:
    """Mutable state for the reduction; tracks U, V and their inverses."""

    def __init__(self, a: IntMatrix) -> None:
        self.m = a.rows
        self.n = a.cols
        self.d = a.to_rows()
        self.u = IntMatrix.identity(a.rows).to_rows()
        self.ui = IntMatrix.identity(a.rows).to_rows()
        self.v = IntMatrix.identity(a.cols).to_rows()
        self.vi = IntMatrix.identity(a.cols).to_rows()

    # row ops: D <- L @ D, U <- L @ U, Ui <- Ui @ L^{-1}
    def row_swap(self, i: int, j: int) -> None:
        self.d[i], self.d[j] = self.d[j], self.d[i]
        self.u[i], self.u[j] = self.u[j], self.u[i]
        for r in self.ui:
            r[i], r[j] = r[j], r[i]

    def row_negate(self, i: int) -> None:
        self.d[i] = [-x for x in self.d[i]]
        self.u[i] = [-x for x in self.u[i]]
        for r in self.ui:
            r[i] = -r[i]

    def row_addmul(self, i: int, j: int, c: int) -> None:
        """row i += c * row j (inverse: column j of Ui -= c * column i)."""
        self.d[i] = [x + c * y for x, y in zip(self.d[i], self.d[j])]
        self.u[i] = [x + c * y for x, y in zip(self.u[i], self.u[j])]
        for r in self.ui:
            r[j] -= c * r[i]

    # column ops: D <- D @ R, V <- V @ R, Vi <- R^{-1} @ Vi
    def col_swap(self, i: int, j: int) -> None:
        for r in self.d:
            r[i], r[j] = r[j], r[i]
        for r in self.v:
            r[i], r[j] = r[j], r[i]
        self.vi[i], self.vi[j] = self.vi[j], self.vi[i]

    def col_addmul(self, i: int, j: int, c: int) -> None:
        """col i += c * col j (inverse: row j of Vi -= c * row i)."""
        for r in self.d:
            r[i] += c * r[j]
        for r in self.v:
            r[i] += c * r[j]
        self.vi[j] = [x - c * y for x, y in zip(self.vi[j], self.vi[i])]


def smith_normal_form(a: IntMatrix) -> SnfResult:
    """Smith normal form with unimodular transforms.

    Returns U, D, V (and the inverses of U, V) with U @ a @ V == D, D
    diagonal with nonnegative entries in a divisibility chain.

    >>> smith_normal_form(IntMatrix.from_rows([[2, 4], [6, 8]])).diagonal
    (2, 4)
    """
    w = _SnfWork(a)
    m, n = w.m, w.n
    for k in range(min(m, n)):
        while True:
            # smallest nonzero entry of the trailing block becomes the pivot
            pivot = None
            for i in range(k, m):
                for j in range(k, n):
                    x = w.d[i][j]
                    if x != 0 and (pivot is None or abs(x) < abs(w.d[pivot[0]][pivot[1]])):
                        pivot = (i, j)
            if pivot is None:
                return _finish(w, a)
            if pivot[0] != k:
                w.row_swap(k, pivot[0])
            if pivot[1] != k:
                w.col_swap(k, pivot[1])
            if w.d[k][k] < 0:
                w.row_negate(k)
            # Euclidean clearing; leftover remainders shrink the pivot
            dirty = False
            for i in range(k + 1, m):
                if w.d[i][k] != 0:
                    w.row_addmul(i, k, -(w.d[i][k] // w.d[k][k]))
                    dirty = dirty or w.d[i][k] != 0
            for j in range(k + 1, n):
                if w.d[k][j] != 0:
                    w.col_addmul(j, k, -(w.d[k][j] // w.d[k][k]))
                    dirty = dirty or w.d[k][j] != 0
            if dirty:
                continue
            offender = None
            for i in range(k + 1, m):
                for j in range(k + 1, n):
                    if w.d[i][j] % w.d[k][k] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            w.row_addmul(k, offender, 1)
    return _finish(w, a)


def _finish(w: _SnfWork, a: IntMatrix) -> SnfResult:
    return SnfResult(
        matrix=a,
        U=IntMatrix.from_rows(w.u, cols=w.m),
        D=IntMatrix.from_rows(w.d, cols=w.n),
        V=IntMatrix.from_rows(w.v, cols=w.n),
        U_inv=IntMatrix.from_rows(w.ui, cols=w.m),
        V_inv=IntMatrix.from_rows(w.vi, cols=w.n),
    )


# ---------------------------------------------------------------------------
# lattice helpers (column lattices in Z^m)


def solve_columns(a: IntMatrix, b: IntMatrix) -> IntMatrix | None:
    """Integer solution X of a @ X = b, or None if none exists.

    With U @ a @ V == D, X = V @ Y for an integer Y with D @ Y == U @ b.
    Such a Y exists exactly when the rows of U @ b past the rank vanish
    and each row before it is divisible by its invariant factor.
    """
    if a.rows != b.rows:
        raise IncompatibleShapes("solve_columns row mismatch")
    s = smith_normal_form(a)
    rank = s.rank
    diag = s.diagonal[:rank]
    ub = s.U @ b
    if any(x % diag[i] if i < rank else x for i in range(ub.rows) for x in ub.row(i)):
        return None
    y = tuple(x // d for i, d in enumerate(diag) for x in ub.row(i))
    return s.V @ IntMatrix(a.cols, b.cols, y + (0,) * ((a.cols - rank) * b.cols))


def kernel_basis(a: IntMatrix) -> IntMatrix:
    """Basis of the integer kernel {x : a @ x = 0} (cols x k)."""
    s = smith_normal_form(a)
    rank = s.rank
    return s.V.select_columns(range(rank, a.cols))


def preimage_basis(a: IntMatrix, t: IntMatrix) -> IntMatrix:
    """Basis of {x : a @ x lies in the column lattice of ``t``}.

    The columns of ``t`` must be independent, as those of a relation
    matrix are.  Then a @ x + t @ y == 0 fixes y by x, so dropping y from
    a kernel basis of [a | t] leaves a basis; the sign of t is immaterial.
    """
    return kernel_basis(a.hstack(t)).select_rows(range(a.cols))


# ---------------------------------------------------------------------------
# finitely generated abelian groups


class _Countable:
    """Sentinel for countably infinite free rank (reporting only)."""

    _instance: "_Countable | None" = None

    def __new__(cls) -> "_Countable":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "CountablyInfinite"


CountablyInfinite = _Countable()


@dataclass(frozen=True)
class FgAbGroup:
    """Finitely generated abelian group in invariant-factor form.

    ``free_rank`` may be the CountablyInfinite sentinel, admitted purely as
    a reporting value: such a group (torsion allowed beside it) has no
    generator list, so no matrix, homomorphism or page cell is built on it
    (first pages set it aside).

    >>> print(FgAbGroup(1, (2, 4)))
    Z + Z/2 + Z/4
    """

    free_rank: int | _Countable
    torsion: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "torsion", tuple(int(d) for d in self.torsion))
        if not self.is_countable and (not isinstance(self.free_rank, int) or self.free_rank < 0):
            raise ValueError("free_rank must be a nonnegative int or CountablyInfinite")
        prev = 1
        for d in self.torsion:
            if d < 2:
                raise ValueError("torsion coefficients must be >= 2")
            if d % prev != 0:
                raise ValueError("torsion must form a divisibility chain")
            prev = d

    @property
    def is_countable(self) -> bool:
        return isinstance(self.free_rank, _Countable)

    @classmethod
    def zero(cls) -> "FgAbGroup":
        return cls(0, ())

    @classmethod
    def free(cls, rank: int) -> "FgAbGroup":
        return cls(rank, ())

    @property
    def is_zero(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    @property
    def is_free(self) -> bool:
        return not self.torsion

    @property
    def gen_count(self) -> int:
        if self.is_countable:
            raise InfiniteRankArithmetic("countable-rank group has no finite generator list")
        return self.free_rank + len(self.torsion)

    def order(self) -> int | None:
        """Group order, or None when infinite."""
        if self.is_countable or self.free_rank > 0:
            return None
        return prod(self.torsion) if self.torsion else 1

    def relation_matrix(self) -> IntMatrix:
        """m x k matrix whose columns generate the relation lattice."""
        m = self.gen_count
        cols = []
        for i, d in enumerate(self.torsion):
            col = [0] * m
            col[self.free_rank + i] = d
            cols.append(col)
        return IntMatrix.from_columns(cols, m)

    def generator_orders(self) -> tuple[int, ...]:
        """Per-generator order, 0 meaning infinite."""
        return (0,) * self.free_rank + self.torsion

    def direct_sum(self, *others: "FgAbGroup") -> "FgAbGroup":
        groups = (self, *others)
        if any(g.is_countable for g in groups):
            rank = CountablyInfinite
        else:
            rank = sum(g.free_rank for g in groups)
        merged = sorted(d for g in groups for d in g.torsion)
        if not merged:
            return FgAbGroup(rank, ())
        # concatenated torsion is rarely a chain; renormalize through SNF
        result = cokernel(IntMatrix.diagonal(merged))
        return FgAbGroup(rank, result.torsion)

    def element_in_relations(self, vec: Sequence[int]) -> bool:
        """Whether vec (generator coordinates) is the zero element."""
        if len(vec) != self.gen_count:
            raise IncompatibleShapes("element has wrong length")
        for i in range(self.free_rank):
            if vec[i] != 0:
                return False
        for i, d in enumerate(self.torsion):
            if vec[self.free_rank + i] % d != 0:
                return False
        return True

    def reduce_element(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Canonical representative: torsion coordinates reduced mod d_i."""
        out = list(int(x) for x in vec)
        for i, d in enumerate(self.torsion):
            out[self.free_rank + i] %= d
        return tuple(out)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        if self.is_countable:
            parts.append("Z^inf")
        elif self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts)


def cokernel(a: IntMatrix) -> FgAbGroup:
    """Invariant-factor form of Z^rows / column-lattice(a).

    >>> print(cokernel(IntMatrix.diagonal([2, 3])))
    Z/6
    """
    s = smith_normal_form(a)
    nonzero = [d for d in s.diagonal if d != 0]
    free = a.rows - len(nonzero)
    torsion = tuple(d for d in nonzero if d >= 2)
    return FgAbGroup(free, torsion)


# ---------------------------------------------------------------------------
# homomorphisms


@dataclass(frozen=True)
class GroupHom:
    """Homomorphism of presented groups as an integer matrix.

    ``matrix`` maps source generators to target generators (columns are
    images).  Both endpoints need a finite generator list, so a
    countable-rank endpoint raises InfiniteRankArithmetic.
    """

    source: FgAbGroup
    target: FgAbGroup
    matrix: IntMatrix

    def __post_init__(self) -> None:
        if self.matrix.rows != self.target.gen_count or self.matrix.cols != self.source.gen_count:
            raise IncompatibleShapes(
                f"matrix {self.matrix.rows}x{self.matrix.cols} does not map "
                f"{self.source.gen_count} generators to {self.target.gen_count}"
            )
        # well-definedness: order of each source generator must die in the target
        orders = self.source.generator_orders()
        for j, d in enumerate(orders):
            if d == 0:
                continue
            col = [d * x for x in self.matrix.column(j)]
            if not self.target.element_in_relations(col):
                raise IncompatibleShapes(
                    f"column {j}: {d} times the image does not vanish in the target"
                )

    @classmethod
    def zero(cls, source: FgAbGroup, target: FgAbGroup) -> "GroupHom":
        return cls(source, target, IntMatrix.zeros(target.gen_count, source.gen_count))

    def is_zero_map(self) -> bool:
        """Zero as a homomorphism (not merely as a matrix)."""
        return all(self.target.element_in_relations(self.matrix.column(j)) for j in range(self.matrix.cols))

    def compose(self, first: "GroupHom") -> "GroupHom":
        """self after first."""
        if first.target != self.source:
            raise IncompatibleShapes("composition endpoint mismatch")
        return GroupHom(first.source, self.target, self.matrix @ first.matrix)


@dataclass(frozen=True)
class SubquotientCell:
    """A subquotient Z/B of Z^m, the cycles over the boundaries.

    ``cycles`` (m x rank Z) and ``boundaries`` (m x rank B) are lattice
    bases with B inside Z.  ``gens`` (m x n) lifts the n generators of
    ``group`` to cycles, and ``proj`` (n x rank Z) takes cycle-basis
    coordinates to them.  On a page, Z^m is the generator lattice of the
    cell's first-page ancestor.
    """

    cycles: IntMatrix
    boundaries: IntMatrix
    group: FgAbGroup
    gens: IntMatrix
    proj: IntMatrix


def subquotient(cycles: IntMatrix, boundary_gens: IntMatrix) -> SubquotientCell:
    """Z/B from a basis of the cycle lattice Z and generators of B inside Z.

    One Smith normal form of B in cycle coordinates gives the group, its
    generators and a basis of B.

    >>> print(subquotient(IntMatrix.identity(2), IntMatrix.from_rows([[2], [4]])).group)
    Z + Z/2
    """
    expressed = solve_columns(cycles, boundary_gens)
    if expressed is None:
        raise AbelianError("boundary lattice is not contained in the cycle lattice")
    s = smith_normal_form(expressed)
    diag = s.diagonal
    free = [i for i in range(cycles.cols) if i >= len(diag) or diag[i] == 0]
    torsion = [i for i, d in enumerate(diag) if d >= 2]
    sel = free + torsion
    bounds = [[x * d for x in s.U_inv.column(i)] for i, d in enumerate(diag) if d]
    return SubquotientCell(
        cycles,
        cycles @ IntMatrix.from_columns(bounds, cycles.cols),
        FgAbGroup(len(free), tuple(diag[i] for i in torsion)),
        cycles @ s.U_inv.select_columns(sel),
        s.U.select_rows(sel),
    )

