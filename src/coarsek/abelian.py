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
from functools import cached_property
from itertools import chain, product
from operator import mul
from typing import Sequence


class AbelianError(ValueError):
    """Base error for this module."""


class IncompatibleShapes(AbelianError):
    pass


def decimal_str(n: int) -> str:
    """``int.__repr__(n)``, also past the interpreter's digit limit, which
    stays as it is: such an int is split by a power of ten into halves.

    >>> decimal_str(-10**30 - 7)
    '-1000000000000000000000000000007'
    """
    try:
        return int.__repr__(n)
    except ValueError:
        half = n.bit_length() * 3 // 20  # about half the digits
        high, low = divmod(abs(n), 10**half)
        return ("-" if n < 0 else "") + decimal_str(high) + decimal_str(low).rjust(half, "0")


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
        return cls(rows, len(columns), tuple(chain.from_iterable(zip(*columns))))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        flat = [0] * (n * n)
        flat[:: n + 1] = [1] * n
        return cls(n, n, tuple(flat))

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
        return self.entries[j :: self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise IncompatibleShapes(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        if self.is_identity():
            return other
        if other.is_identity():
            return self
        n = other.cols
        rows = [other.row(k) for k in range(other.rows)]
        cols = [other.entries[j::n] for j in range(n)]
        flat: list[int] = []
        for i in range(self.rows):
            left = self.row(i)
            nonzero = [(x, row) for x, row in zip(left, rows) if x]
            if 2 * len(nonzero) > len(left):  # dense row: dot products
                flat.extend(sum(map(mul, left, col)) for col in cols)
                continue
            acc = [0] * n
            for x, row in nonzero:
                acc = [s + x * y for s, y in zip(acc, row)]
            flat.extend(acc)
        return IntMatrix(self.rows, n, tuple(flat))

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise IncompatibleShapes("hstack row mismatch")
        if not other.cols:
            return self
        if not self.cols:
            return other
        flat: list[int] = []
        for i in range(self.rows):
            flat.extend(self.row(i))
            flat.extend(other.row(i))
        return IntMatrix(self.rows, self.cols + other.cols, tuple(flat))

    def select_columns(self, indices: Sequence[int]) -> "IntMatrix":
        picked = zip(*(self.entries[j :: self.cols] for j in indices))
        return IntMatrix(self.rows, len(indices), tuple(chain.from_iterable(picked)))

    def select_rows(self, indices: Sequence[int]) -> "IntMatrix":
        return IntMatrix(len(indices), self.cols, tuple(chain.from_iterable(map(self.row, indices))))

    def is_identity(self) -> bool:
        n = self.rows
        if n != self.cols or (n and self.entries[0] != 1):
            return False
        return self.entries[:: n + 1].count(1) == n and self.entries.count(0) == n * n - n

    def __repr__(self) -> str:
        cols = "" if self.rows else f", cols={self.cols}"
        return f"IntMatrix.from_rows({self.to_rows()!r}{cols})"


# ---------------------------------------------------------------------------
# Smith normal form


def snf_certificate_holds(matrix: IntMatrix, U: IntMatrix, D: IntMatrix, V: IntMatrix,
                          U_inv: IntMatrix, V_inv: IntMatrix) -> bool:
    """Whether U @ matrix @ V == D, a diagonal divisibility chain, with U and
    V unimodular, as their integer inverses prove.  V is square with
    V @ V_inv == I, so U @ matrix == D @ V_inv is the same test."""
    if (U @ matrix).entries != (D @ V_inv).entries:
        return False
    if not (U @ U_inv).is_identity() or not (V @ V_inv).is_identity():
        return False
    if any(D[i, j] for i in range(D.rows) for j in range(D.cols) if i != j):
        return False
    diag = tuple(D[i, i] for i in range(min(D.rows, D.cols)))
    for i in range(len(diag) - 1):
        if diag[i] < 0 or (diag[i] == 0 and diag[i + 1] != 0):
            return False
        if diag[i] != 0 and diag[i + 1] % diag[i] != 0:
            return False
    return True


def _step(rows: list[list[int]], i: int, j: int, c: int) -> None:
    """Row step (i, j, c): negate row i if i == j, else swap rows i and j
    if c == 0, else add c times row j to row i.  (i, j, -c) undoes it."""
    if i == j:
        rows[i] = [-x for x in rows[i]]
    elif c == 0:
        rows[i], rows[j] = rows[j], rows[i]
    else:
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]


def _replay(a: IntMatrix, steps: Sequence[tuple[int, int, int]]) -> IntMatrix:
    rows = a.to_rows()
    for i, j, c in steps:
        _step(rows, i, j, c)
    return IntMatrix(a.rows, a.cols, tuple(chain.from_iterable(rows)))


@dataclass(frozen=True)
class SnfResult:
    """Certificate U @ matrix @ V == D with U, V unimodular, D diagonal.

    The reduction logs its row steps and its column steps, both in the
    (i, j, c) form of ``_step`` (columns are never negated).  U, V and their
    inverses are replayed from the logs when first read; ``apply_U``,
    ``apply_V`` and ``apply_V_inv`` replay the logs onto a right-hand side
    instead.
    """

    matrix: IntMatrix
    D: IntMatrix
    row_steps: tuple[tuple[int, int, int], ...]
    col_steps: tuple[tuple[int, int, int], ...]

    @cached_property
    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.D[i, i] for i in range(min(self.D.rows, self.D.cols)))

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d != 0)

    def apply_U(self, b: IntMatrix) -> IntMatrix:
        """U @ b."""
        if b.rows != self.matrix.rows:
            raise IncompatibleShapes("apply_U row mismatch")
        return _replay(b, self.row_steps)

    def apply_V(self, y: IntMatrix) -> IntMatrix:
        """V @ y: as a row step, column step (i, j, c) is (j, i, c), last first."""
        if y.rows != self.matrix.cols:
            raise IncompatibleShapes("apply_V row mismatch")
        return _replay(y, [(j, i, c) for i, j, c in reversed(self.col_steps)])

    def apply_V_inv(self, x: IntMatrix) -> IntMatrix:
        """V_inv @ x: column step (i, j, c) is undone by row step (j, i, -c), first first."""
        if x.rows != self.matrix.cols:
            raise IncompatibleShapes("apply_V_inv row mismatch")
        return _replay(x, [(j, i, -c) for i, j, c in self.col_steps])

    @cached_property
    def U(self) -> IntMatrix:
        return self.apply_U(IntMatrix.identity(self.matrix.rows))

    @cached_property
    def V(self) -> IntMatrix:
        return self.apply_V(IntMatrix.identity(self.matrix.cols))

    @cached_property
    def U_inv(self) -> IntMatrix:
        steps = [(i, j, -c) for i, j, c in reversed(self.row_steps)]
        return _replay(IntMatrix.identity(self.matrix.rows), steps)

    @cached_property
    def V_inv(self) -> IntMatrix:
        return self.apply_V_inv(IntMatrix.identity(self.matrix.cols))

    def check(self) -> bool:
        """Re-verify the certificate from scratch."""
        return snf_certificate_holds(self.matrix, self.U, self.D, self.V, self.U_inv, self.V_inv)


def _nearest(x: int, p: int) -> int:
    """The integer nearest x / p, for either sign of p (halves round down)."""
    q, r = divmod(x, p)
    return q + 1 if 2 * abs(r) > abs(p) else q


def smith_normal_form(a: IntMatrix) -> SnfResult:
    """Smith normal form with unimodular transforms.

    Returns D and the logged steps for U, V (and their inverses) with
    U @ a @ V == D, D diagonal with nonnegative entries in a divisibility
    chain.  D is unique; U and V are one valid pair, not a canonical one.

    Two phases.  The first diagonalises: the first smallest nonzero entry
    of the trailing block becomes the pivot, and its column, then its row,
    are cleared with nearest-integer quotients until no remainder is left.
    The second walks the diagonal pairs i < j and puts (gcd, lcm) on each
    pair whose first entry does not divide the second.

    >>> smith_normal_form(IntMatrix.from_rows([[2, 4], [6, 8]])).diagonal
    (2, 4)
    """
    m, n = a.rows, a.cols
    d = a.to_rows()
    row_steps: list[tuple[int, int, int]] = []
    col_steps: list[tuple[int, int, int]] = []

    def row_step(i: int, j: int, c: int) -> None:
        _step(d, i, j, c)
        row_steps.append((i, j, c))

    def col_step(i: int, j: int, c: int) -> None:
        for r in d:
            if c:
                r[i] += c * r[j]
            else:
                r[i], r[j] = r[j], r[i]
        col_steps.append((i, j, c))

    for k in range(min(m, n)):
        while True:
            # first smallest nonzero entry (row-major) of the trailing block
            pivot, best = None, 0
            for i, j in product(range(k, m), range(k, n)):
                x = abs(d[i][j])
                if x and (not best or x < best):
                    pivot, best = (i, j), x
                    if x == 1:
                        break
            if pivot is None:
                break
            if pivot[0] != k:
                row_step(k, pivot[0], 0)
            if pivot[1] != k:
                col_step(k, pivot[1], 0)
            if d[k][k] < 0:
                row_step(k, k, -1)
            p = d[k][k]
            # |x| >= p for every nonzero x, so no quotient is 0 (a swap).  A
            # remainder is smaller than p and becomes the next pivot.  Row k
            # is cleared only once column k is: then each column step
            # changes row k alone, and the trailing block does not fill in.
            for i in range(k + 1, m):
                if d[i][k]:
                    row_step(i, k, -_nearest(d[i][k], p))
            if any(d[i][k] for i in range(k + 1, m)):
                continue
            for j in range(k + 1, n):
                if d[k][j]:
                    col_step(j, k, -_nearest(d[k][j], p))
            if not any(d[k][k + 1 :]):
                break
        if pivot is None:
            break
    rank = sum(1 for k in range(min(m, n)) if d[k][k])
    for i in range(rank):
        for j in range(i + 1, rank):
            if d[j][j] % d[i][i] == 0:
                continue
            # (d_i, d_j) -> (gcd, lcm): add row j to row i, run Euclid on
            # row i by column steps, then clear row j's entry under the gcd
            row_step(i, j, 1)
            while d[i][j]:
                if abs(d[i][j]) < abs(d[i][i]):
                    col_step(i, j, 0)
                col_step(j, i, -_nearest(d[i][j], d[i][i]))
            if d[i][i] < 0:
                row_step(i, i, -1)
            if d[j][i]:
                row_step(j, i, -(d[j][i] // d[i][i]))
            if d[j][j] < 0:
                row_step(j, j, -1)
    return SnfResult(a, IntMatrix(m, n, tuple(chain.from_iterable(d))), tuple(row_steps), tuple(col_steps))


# ---------------------------------------------------------------------------
# finitely generated abelian groups


@dataclass(frozen=True)
class FgAbGroup:
    """Finitely generated abelian group in invariant-factor form.

    >>> print(FgAbGroup(1, (2, 4)))
    Z + Z/2 + Z/4
    """

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "torsion", tuple(int(d) for d in self.torsion))
        if not isinstance(self.free_rank, int) or self.free_rank < 0:
            raise ValueError("free_rank must be a nonnegative int")
        prev = 1
        for d in self.torsion:
            if d < 2:
                raise ValueError("torsion coefficients must be >= 2")
            if d % prev != 0:
                raise ValueError("torsion must form a divisibility chain")
            prev = d

    @classmethod
    def zero(cls) -> "FgAbGroup":
        return _ZERO

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
        return self.free_rank + len(self.torsion)

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
        rank = sum(g.free_rank for g in groups)
        merged = sorted(d for g in groups for d in g.torsion)
        if not merged:
            return FgAbGroup(rank, ())
        # concatenated torsion is rarely a chain; renormalize through SNF
        result = cokernel(IntMatrix.diagonal(merged))
        return FgAbGroup(rank, result.torsion)

    def columns_vanish(self, matrix: IntMatrix) -> bool:
        """Whether every column of ``matrix`` (generator coordinates) is the zero element."""
        return all(self.element_in_relations(matrix.column(j)) for j in range(matrix.cols))

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

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{decimal_str(d)}" for d in self.torsion)
        return " + ".join(parts)


_ZERO = FgAbGroup(0, ())  # frozen, so every caller can share it


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

    ``matrix`` maps source generators to target generators (columns are images).
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

    def is_zero_map(self) -> bool:
        """Zero as a homomorphism (not merely as a matrix)."""
        return self.target.columns_vanish(self.matrix)


@dataclass(frozen=True)
class SubquotientCell:
    """A subquotient Z/B, the cycles over the boundaries, written in a
    basis of the cycle lattice Z.

    ``boundaries`` (k x rank B) is a basis of B in the coordinates of that
    basis (k = rank Z).  ``gens`` (k x n) gives the n generators of
    ``group`` in those coordinates, and ``proj`` (n x k) takes coordinates
    to generator coordinates: ``proj @ gens`` is the identity, and x lies
    in B exactly when ``proj @ x`` is zero in ``group``.
    """

    boundaries: IntMatrix
    group: FgAbGroup
    gens: IntMatrix
    proj: IntMatrix


def subquotient(s: SnfResult) -> SubquotientCell:
    """Z/B from the Smith form of B's generators, given by their
    coordinates in a basis of the cycle lattice Z; the cell keeps that
    basis.  That one Smith form gives the group, its generators and a
    basis of B.

    >>> print(subquotient(smith_normal_form(IntMatrix.from_rows([[2], [4]]))).group)
    Z + Z/2
    """
    diag, k = s.diagonal, s.matrix.rows
    free = [i for i in range(k) if i >= len(diag) or diag[i] == 0]
    torsion = [i for i, d in enumerate(diag) if d >= 2]
    sel = free + torsion
    basis = s.U_inv  # Z's basis in which B is diag(d_i) e_i
    bounds = [[x * d for x in basis.column(i)] for i, d in enumerate(diag) if d]
    return SubquotientCell(
        IntMatrix.from_columns(bounds, k),
        FgAbGroup(len(free), tuple(diag[i] for i in torsion)),
        basis.select_columns(sel),
        s.U.select_rows(sel),
    )
