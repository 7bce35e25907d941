"""Independent oracles for the test suite.

Everything here recomputes answers through routes the library does not
use: cofactor-expansion determinants, determinantal divisors (gcds of
k x k minors) for invariant factors, rational Gaussian elimination for
ranks, a column-style Hermite form for lattice work, and finite-group
structure recovered purely by counting annihilators.  The oracles may
freely be slow; they are only run on small instances.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product
from math import floor, gcd, prod

from coarsek.abelian import FgAbGroup, GroupHom, IntMatrix
from coarsek.coarse import DimensionMismatch


# ---------------------------------------------------------------------------
# matrix-vector products


def apply(matrix: IntMatrix, vec) -> tuple[int, ...]:
    """matrix @ vec for a plain integer vector."""
    assert len(vec) == matrix.cols, "vector length mismatch"
    return tuple(sum(x * y for x, y in zip(matrix.row(i), vec)) for i in range(matrix.rows))


# ---------------------------------------------------------------------------
# determinants and determinantal divisors


def laplace_det(rows: list[list[int]]) -> int:
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * laplace_det(minor)
    return total


def determinantal_invariants(rows: list[list[int]]) -> tuple[int, list[int]]:
    """(rank, invariant factors) from gcds of k x k minors."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    divisors = [1]
    for k in range(1, min(m, n) + 1):
        g = 0
        for ri in combinations(range(m), k):
            for ci in combinations(range(n), k):
                sub = [[rows[i][j] for j in ci] for i in ri]
                g = gcd(g, laplace_det(sub))
        divisors.append(abs(g))
        if g == 0:
            break
    rank = 0
    for k in range(1, len(divisors)):
        if divisors[k] != 0:
            rank = k
    factors = [divisors[k] // divisors[k - 1] for k in range(1, rank + 1)]
    return rank, factors


def oracle_cokernel(matrix: IntMatrix) -> FgAbGroup:
    """Invariant-factor form of Z^rows / columns(matrix), minors route."""
    rank, factors = determinantal_invariants(matrix.to_rows())
    return FgAbGroup(matrix.rows - rank, tuple(d for d in factors if d >= 2))


def q_rank(rows: list[list[int]]) -> int:
    """Rank over Q by fraction Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for j in range(cols):
        pivot = next((i for i in range(rank, len(m)) if m[i][j] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][j]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][j] != 0:
                c = m[i][j]
                m[i] = [a - c * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# column Hermite form: an independent lattice toolkit


def hermite_columns(rows: list[list[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """Column HNF by gcd column operations: returns (H, W) with A @ W = H.

    H has per-row leading entries in echelon position; zero columns are
    pushed to the right.  Only column operations are used, so the column
    lattice is preserved and ker A is spanned by W-columns under zero
    H-columns.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    h = [list(r) for r in rows]
    w = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def col(j):
        return [h[i][j] for i in range(m)]

    def colop(j, k, a, b, c, d):
        # (col_j, col_k) <- (a col_j + b col_k, c col_j + d col_k)
        for mat in (h, w):
            for i in range(len(mat)):
                x, y = mat[i][j], mat[i][k]
                mat[i][j] = a * x + b * y
                mat[i][k] = c * x + d * y

    lead = 0
    for i in range(m):
        if lead >= n:
            break
        pivot = next((j for j in range(lead, n) if h[i][j] != 0), None)
        if pivot is None:
            continue
        if pivot != lead:
            colop(lead, pivot, 0, 1, 1, 0)
        for j in range(lead + 1, n):
            # Euclid on the pair (h[i][lead], h[i][j]) by column ops
            while h[i][j] != 0:
                q = h[i][j] // h[i][lead]
                colop(j, lead, 1, -q, 0, 1)  # col_j -= q * col_lead
                if h[i][j] != 0:
                    colop(lead, j, 0, 1, 1, 0)  # swap to continue the gcd
        if h[i][lead] < 0:
            for mat in (h, w):
                for r in range(len(mat)):
                    mat[r][lead] = -mat[r][lead]
        lead += 1
    return h, w


def hermite_kernel(rows: list[list[int]]) -> list[list[int]]:
    """Kernel basis vectors (as columns) via the Hermite transform."""
    h, w = hermite_columns(rows)
    m = len(rows)
    n = len(rows[0]) if m else 0
    out = []
    for j in range(n):
        if all(h[i][j] == 0 for i in range(m)):
            out.append([w[i][j] for i in range(n)])
    return out


# ---------------------------------------------------------------------------
# finite abelian structure by counting


def invariants_by_counting(elements: list[tuple[int, ...]], scalar_mul) -> tuple[int, ...]:
    """Invariant factors of a finite abelian group from annihilator counts.

    ``scalar_mul(n, x)`` must return n*x inside the group.  For each prime
    p dividing the order, the count of elements killed by p^j is
    p^{sum_i min(j, e_i)}, which pins down the p-exponent multiset.
    """
    order = len(elements)
    if order == 1:
        return ()
    factors = {}
    n = order
    p = 2
    while p * p <= n:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    per_prime: dict[int, list[int]] = {}
    for p in factors:
        exps: list[int] = []
        prev_log = 0
        j = 1
        while True:
            cnt = sum(1 for x in elements if all(c == 0 for c in scalar_mul(p**j, x)))
            log = 0
            c = cnt
            while c > 1:
                c //= p
                log += 1
            t_j = log - prev_log  # number of cyclic p-factors with exponent >= j
            if t_j == 0:
                break
            exps.append(t_j)
            prev_log = log
            j += 1
        # exps[j-1] = #{i : e_i >= j}; convert to the multiset of e_i
        multiset = []
        for i in range(exps[0] if exps else 0):
            e = sum(1 for t in exps if t > i)
            multiset.append(e)
        per_prime[p] = sorted(multiset, reverse=True)
    width = max(len(v) for v in per_prime.values())
    invariants = []
    for k in range(width):
        d = prod(p ** per_prime[p][k] for p in per_prime if k < len(per_prime[p]))
        invariants.append(d)
    return tuple(sorted(d for d in invariants if d >= 2))


def torsion_subgroup_killed_by(hom: GroupHom) -> tuple[int, ...]:
    """Invariant factors of {x in T(source) : hom(x) = 0}, by enumeration."""
    src, tgt = hom.source, hom.target
    tors = src.torsion
    if not tors:
        return ()
    matrix = hom.matrix
    members = []
    for combo in product(*(range(d) for d in tors)):
        vec = (0,) * src.free_rank + combo
        if tgt.element_in_relations(apply(matrix, vec)):
            members.append(combo)

    def mul(n, x):
        return tuple((n * c) % d for c, d in zip(x, tors))

    return invariants_by_counting(members, mul)


def oracle_hom_kernel(hom: GroupHom) -> FgAbGroup:
    """ker(hom) as a group: Q-rank for the free part, counting for torsion."""
    src, tgt = hom.source, hom.target
    free_block = [
        [hom.matrix[i, j] for j in range(src.free_rank)] for i in range(tgt.free_rank)
    ]
    rank = src.free_rank - q_rank(free_block) if src.free_rank else 0
    # torsion elements of the kernel all live in T(src), but free generators
    # can also contribute torsion when their images die rationally yet not
    # integrally; catch that by enumerating the full torsion of the kernel
    # lattice instead when it exists
    kernel_free = rank
    tors = torsion_subgroup_of_kernel(hom)
    return FgAbGroup(kernel_free, tors)


def torsion_subgroup_of_kernel(hom: GroupHom) -> tuple[int, ...]:
    """Torsion part of ker(hom): torsion source elements that die."""
    return torsion_subgroup_killed_by(hom)


def oracle_hom_cokernel(hom: GroupHom) -> FgAbGroup:
    """coker(hom) = target / (image + relations), by determinantal divisors."""
    tgt = hom.target
    stacked = hom.matrix.hstack(tgt.relation_matrix())
    rank, factors = determinantal_invariants(stacked.to_rows())
    return FgAbGroup(tgt.gen_count - rank, tuple(d for d in factors if d >= 2))


def oracle_homology(f: GroupHom, g: GroupHom) -> FgAbGroup:
    """ker(g)/im(f) through the Hermite toolkit plus determinantal divisors."""
    mid = f.target
    m = mid.gen_count
    gm = g.matrix.to_rows() if g.matrix is not None else []
    # cycles: x with g(x) = 0 in the target, i.e. g(x) inside the relation
    # lattice; stack target relations as extra columns and project
    rel = g.target.relation_matrix()
    stacked = [
        list(gm[i]) + [-rel[i, c] for c in range(rel.cols)] for i in range(len(gm))
    ]
    if stacked:
        ker = hermite_kernel(stacked)
        cycle_cols = [k[:m] for k in ker]
    else:
        cycle_cols = [[1 if i == j else 0 for i in range(m)] for j in range(m)]
    z_h, _ = hermite_columns([[c[i] for c in cycle_cols] for i in range(m)]) if cycle_cols else ([], [])
    z_basis = [
        [z_h[i][j] for i in range(m)]
        for j in range(len(cycle_cols))
        if any(z_h[i][j] != 0 for i in range(m))
    ] if cycle_cols else []
    bound_cols = []
    if f.matrix is not None:
        bound_cols += [list(f.matrix.column(j)) for j in range(f.matrix.cols)]
    relm = mid.relation_matrix()
    bound_cols += [list(relm.column(j)) for j in range(relm.cols)]
    # express boundaries in the cycle basis by triangular solve over Q,
    # verified integral
    t = len(z_basis)
    expressed = []
    for b in bound_cols:
        coeffs = _solve_in_basis(z_basis, b)
        expressed.append(coeffs)
    y_rows = [[expressed[c][i] for c in range(len(expressed))] for i in range(t)]
    rank, factors = determinantal_invariants(y_rows) if t else (0, [])
    return FgAbGroup(t - rank, tuple(d for d in factors if d >= 2))


def _solve_in_basis(basis: list[list[int]], target: list[int]) -> list[int]:
    """Integer coordinates of target in a lattice basis (fraction solve)."""
    t = len(basis)
    if t == 0:
        if any(target):
            raise AssertionError("target outside trivial lattice")
        return []
    m = len(basis[0])
    aug = [[Fraction(basis[c][i]) for c in range(t)] + [Fraction(target[i])] for i in range(m)]
    # gaussian elimination
    row = 0
    pivots = []
    for col in range(t):
        pivot = next((r for r in range(row, m) if aug[r][col] != 0), None)
        if pivot is None:
            continue
        aug[row], aug[pivot] = aug[pivot], aug[row]
        inv = 1 / aug[row][col]
        aug[row] = [x * inv for x in aug[row]]
        for r in range(m):
            if r != row and aug[r][col] != 0:
                c = aug[r][col]
                aug[r] = [a - c * b for a, b in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
    coeffs = [Fraction(0)] * t
    for r, col in enumerate(pivots):
        coeffs[col] = aug[r][t]
    for r in range(row, m):
        if aug[r][t] != 0:
            raise AssertionError("target not in lattice span")
    out = []
    for c in coeffs:
        if c.denominator != 1:
            raise AssertionError("non-integer lattice coordinates")
        out.append(int(c))
    return out


# ---------------------------------------------------------------------------
# quotient enumeration (small instances only)


def enumerate_quotient_order(matrix: IntMatrix) -> int:
    """|Z^m / columns| for square nonsingular input by subgroup closure.

    Works inside (Z/N)^m for N = |det|, which contains the lattice because
    N * Z^m lies in it; the quotient order is N^m / |closure of columns|.
    """
    m = matrix.rows
    n_det = abs(laplace_det(matrix.to_rows()))
    if n_det == 0:
        raise ValueError("enumeration oracle needs a nonsingular square matrix")
    gens = [tuple(x % n_det for x in matrix.column(j)) for j in range(matrix.cols)]
    seen = {(0,) * m}
    frontier = [(0,) * m]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = tuple((a + b) % n_det for a, b in zip(cur, g))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return n_det**m // len(seen)


# ---------------------------------------------------------------------------
# lattice boxes as plain tuples of integer intervals (lo, hi), None being
# unbounded; distances in closed form and by brute force


def box_is_empty(box) -> bool:
    """Whether some interval of the box has lo > hi."""
    return any(lo is not None and hi is not None and lo > hi for lo, hi in box)


def box_meet(*boxes) -> tuple:
    """The intersection of boxes of one dimension: per axis the largest lo
    and the smallest hi."""
    meet = []
    for column in zip(*boxes):
        los = [lo for lo, _ in column if lo is not None]
        his = [hi for _, hi in column if hi is not None]
        meet.append((max(los, default=None), min(his, default=None)))
    return tuple(meet)


def _gap(x: int, lo: int | None, hi: int | None) -> int:
    """Distance from x to the interval [lo, hi], None being unbounded."""
    if lo is not None and x < lo:
        return lo - x
    if hi is not None and x > hi:
        return x - hi
    return 0


def set_distance(point, box, metric) -> Fraction | None:
    """Exact distance from a lattice point to a box; None when empty.

    Nearest points of a product set are found coordinate by coordinate,
    so the per-coordinate gaps aggregate by sum (1-metrics) or max.
    """
    if box_is_empty(box):
        return None
    gaps = [_gap(int(x), lo, hi) for x, (lo, hi) in zip(point, box)]
    if metric.kind == "dinf":
        return Fraction(max(gaps, default=0))
    if metric.kind == "d1":
        return Fraction(sum(gaps))
    if len(metric.weights) != len(box):
        raise DimensionMismatch("weight count does not match dimension")
    return sum((w * g for w, g in zip(metric.weights, gaps)), Fraction(0))


def brute_force_distance(point, box, metric, search: int) -> Fraction | None:
    """Nearest-point search over the boxed part of the set."""
    ranges = []
    for lo, hi in box:
        a = -search if lo is None else max(lo, -search)
        b = search if hi is None else min(hi, search)
        if a > b:
            return None
        ranges.append(range(a, b + 1))
    best: Fraction | None = None
    for candidate in product(*ranges):
        gaps = [abs(point[i] - candidate[i]) for i in range(len(candidate))]
        if metric.kind == "dinf":
            d = Fraction(max(gaps, default=0))
        elif metric.kind == "d1":
            d = Fraction(sum(gaps))
        else:
            d = sum((w * g for w, g in zip(metric.weights, gaps)), Fraction(0))
        if best is None or d < best:
            best = d
    return best


def oracle_excision(boxes, radius, s_radius, metric, box: int) -> tuple[int, ...] | None:
    """First lattice point, in lexicographic order, of [-inner, inner]^dim
    (inner = floor(box - s_radius)) lying within ``radius`` of every box but
    not within ``s_radius`` of their intersection; None when there is none.

    Point by point through ``set_distance``; an empty set is near nothing.
    """
    radius, s_radius = Fraction(radius), Fraction(s_radius)
    inner = floor(Fraction(box) - s_radius)
    meet = box_meet(*boxes)
    for point in product(range(-inner, inner + 1), repeat=len(boxes[0])):
        near = [set_distance(point, b, metric) for b in boxes]
        if all(d is not None and d <= radius for d in near):
            d = set_distance(point, meet, metric)
            if d is None or d > s_radius:
                return point
    return None


# ---------------------------------------------------------------------------
# groups and maps


def group_order(g: FgAbGroup) -> int | None:
    """|g|, or None when g is infinite."""
    return None if g.free_rank else prod(g.torsion)


def zero_hom(source: FgAbGroup, target: FgAbGroup) -> GroupHom:
    return GroupHom(source, target, IntMatrix.zeros(target.gen_count, source.gen_count))


# ---------------------------------------------------------------------------
# pages


def cells_isomorphic(a, b) -> bool:
    """Whether two pages carry the same cell groups."""
    keys = set(a.cells) | set(b.cells)
    return all(a.cell_group(*k) == b.cell_group(*k) for k in keys)


# ---------------------------------------------------------------------------
# random instance generators (seeded by the caller)


def random_group(rng: random.Random, max_rank: int = 2, max_torsion: int = 2) -> FgAbGroup:
    rank = rng.randint(0, max_rank)
    torsion = []
    d = 1
    for _ in range(rng.randint(0, max_torsion)):
        d *= rng.choice([2, 2, 3, 4, 5])
        torsion.append(d)
    return FgAbGroup(rank, tuple(torsion))


def random_hom_presented(
    rng: random.Random,
    src_orders: tuple[int, ...],
    tgt_orders: tuple[int, ...],
    spread: int = 4,
) -> IntMatrix:
    """Random well-defined matrix between presentations given by generator
    orders (0 meaning a free generator): each order-d source column must be
    annihilated by d against the target relations."""
    rows, cols = len(tgt_orders), len(src_orders)
    data = [[rng.randint(-spread, spread) for _ in range(cols)] for _ in range(rows)]
    for j, d in enumerate(src_orders):
        if d == 0:
            continue
        for i, o in enumerate(tgt_orders):
            if o == 0:
                data[i][j] = 0
            else:
                step = o // gcd(d, o)
                data[i][j] = step * rng.randint(-spread, spread)
    return IntMatrix.from_rows(data, cols=cols)


def random_hom(rng: random.Random, source: FgAbGroup, target: FgAbGroup, spread: int = 4) -> GroupHom:
    """Random well-defined hom in the groups' canonical coordinates."""
    matrix = random_hom_presented(
        rng, source.generator_orders(), target.generator_orders(), spread
    )
    return GroupHom(source, target, matrix)


def _in_presented_relations(vec, orders) -> bool:
    return all(
        (x == 0 if o == 0 else x % o == 0) for x, o in zip(vec, orders)
    )


def oracle_presented_cokernel(matrix: IntMatrix, tgt_orders: tuple[int, ...]) -> FgAbGroup:
    """Cokernel of a map into an arbitrary diagonal presentation."""
    rel_cols = []
    m = len(tgt_orders)
    for i, o in enumerate(tgt_orders):
        if o != 0:
            col = [0] * m
            col[i] = o
            rel_cols.append(col)
    stacked = matrix.to_rows()
    rows = [list(stacked[i]) + [c[i] for c in rel_cols] for i in range(m)]
    rank, factors = determinantal_invariants(rows)
    return FgAbGroup(m - rank, tuple(d for d in factors if d >= 2))


def oracle_presented_kernel(
    matrix: IntMatrix, src_orders: tuple[int, ...], tgt_orders: tuple[int, ...]
) -> FgAbGroup:
    """Kernel of a map between diagonal presentations.

    Free rank comes from rational ranks (torsion dies over Q); the torsion
    part is the subgroup of source torsion elements annihilated by the
    map, recovered by counting.
    """
    free_src = [j for j, o in enumerate(src_orders) if o == 0]
    free_tgt = [i for i, o in enumerate(tgt_orders) if o == 0]
    block = [[matrix[i, j] for j in free_src] for i in free_tgt]
    rank = len(free_src) - q_rank(block)
    tors_idx = [j for j, o in enumerate(src_orders) if o != 0]
    tors = [src_orders[j] for j in tors_idx]
    members = []
    for combo in product(*(range(d) for d in tors)):
        vec = [0] * len(src_orders)
        for j, c in zip(tors_idx, combo):
            vec[j] = c
        if _in_presented_relations(apply(matrix, vec), tgt_orders):
            members.append(combo)

    def mul(n, x):
        return tuple((n * c) % d for c, d in zip(x, tors))

    return FgAbGroup(rank, invariants_by_counting(members, mul))


def random_matrix(rng: random.Random, rows: int, cols: int, lo: int = -20, hi: int = 20) -> IntMatrix:
    return IntMatrix(rows, cols, tuple(rng.randint(lo, hi) for _ in range(rows * cols)))


def mixed_diagonal(rng: random.Random, diag, rows: int, cols: int, steps: int = 10) -> IntMatrix:
    """The rows x cols matrix with ``diag`` on its diagonal and zeros past
    it, mixed by ``steps`` random unimodular row and column steps (adds of
    -2..2 times another line, swaps and negations).  Its Smith form has the
    invariant factors of diag, whatever the mixing."""

    def mix(lines: list[list[int]]) -> None:
        i, j = rng.sample(range(len(lines)), 2)
        kind = rng.randrange(3)
        if kind == 0:
            c = rng.choice([-2, -1, 1, 2])
            lines[i] = [x + c * y for x, y in zip(lines[i], lines[j])]
        elif kind == 1:
            lines[i], lines[j] = lines[j], lines[i]
        else:
            lines[i] = [-x for x in lines[i]]

    data = [[diag[i] if i == j and i < len(diag) else 0 for j in range(cols)] for i in range(rows)]
    for _ in range(steps):
        if rng.random() < 0.5 and rows >= 2:
            mix(data)
        elif cols >= 2:  # a column step is a row step on the transpose
            transposed = [list(col) for col in zip(*data)]
            mix(transposed)
            data = [list(row) for row in zip(*transposed)]
    return IntMatrix.from_rows(data, cols=cols)
