"""Seeded integer instances with answers known by construction.

Every instance starts from a diagonal form whose invariant factors are
chosen here and is then hidden behind products of elementary unimodular
matrices.  The expected answer is read off the diagonal form, so nothing
in this module (or in the checker) calls coarsek's algebra.

Matrices are plain lists of rows of Python ints.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

from oracle import Group, Report, assemble, matmul


def identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def unimodular(n: int, steps: int, rng: random.Random) -> tuple[list[list[int]], list[list[int]]]:
    """A product of ``steps`` elementary matrices and its exact inverse.

    Each step adds c * row j to row i (c in {-2, -1, 1, 2}) or swaps two
    rows, so the determinant is +1 or -1 by construction.
    """
    p, p_inv = identity(n), identity(n)
    if n < 2:
        return p, p_inv
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        if rng.random() < 0.15:
            p[i], p[j] = p[j], p[i]
            for row in p_inv:
                row[i], row[j] = row[j], row[i]
        else:
            c = rng.choice((-2, -1, 1, 2))
            p[i] = [x + c * y for x, y in zip(p[i], p[j])]
            for row in p_inv:  # P_inv <- P_inv @ (I - c e_ij)
                row[j] -= c * row[i]
    return p, p_inv


def factor_chain(length: int, rng: random.Random, torsion: int | None = None) -> list[int]:
    """Invariant factors e_1 | e_2 | ... ; most are 1, a few carry torsion.

    With ``torsion`` set, all but the last ``torsion`` factors are 1.
    """
    out, e = [], 1
    for _ in range(length):
        e *= rng.choice((1, 1, 1, 1, 2, 2, 3))
        out.append(e)
    if torsion is not None and torsion < length:
        out[: length - torsion] = [1] * (length - torsion)
    return out


@dataclass(frozen=True)
class ChainComplex:
    """C_0 <- C_1 <- ... <- C_cap with d[p]: C_p -> C_{p-1} (n_{p-1} x n_p)."""

    ranks: tuple[int, ...]
    d: dict[int, list[list[int]]]
    homology: tuple[Group, ...]


def chain_complex(ranks: list[int], steps: int, torsion: int, rng: random.Random) -> ChainComplex:
    """Free complex with chosen ranks, hidden behind unimodular base changes.

    In the standard basis C_p splits as [A_p | H_p | B_p]: d_p sends the
    i-th generator of A_p to e_i times the i-th generator of B_{p-1}, so
    H_p(C) = Z^{|H_p|} plus Z/e for the factors e >= 2 of d_{p+1}, of
    which there are at most ``torsion``.
    """
    top = len(ranks) - 1
    r = [0] * (top + 2)  # r[p] = rank of d_p; r[0] = r[top+1] = 0
    for p in range(1, top + 1):
        most = min(ranks[p - 1] - r[p - 1], ranks[p])
        r[p] = rng.randint(most // 2, most)
    factors = {p: factor_chain(r[p], rng, torsion) for p in range(1, top + 1)}
    bases = [unimodular(n, steps, rng) for n in ranks]
    d: dict[int, list[list[int]]] = {}
    for p in range(1, top + 1):
        rows, cols = ranks[p - 1], ranks[p]
        diag = [[0] * cols for _ in range(rows)]
        b_start = rows - r[p]  # B_{p-1} sits at the end of C_{p-1}
        for i, e in enumerate(factors[p]):
            diag[b_start + i][i] = e
        p_prev, _ = bases[p - 1]
        _, p_inv = bases[p]
        d[p] = matmul(matmul(p_prev, diag), p_inv)
    homology = []
    for p in range(top + 1):
        free = ranks[p] - r[p] - r[p + 1]
        torsion = tuple(e for e in factors.get(p + 1, ()) if e >= 2)
        homology.append(Group(free, torsion))
    return ChainComplex(tuple(ranks), d, tuple(homology))


def expected_report(rows: list[ChainComplex], cap: int) -> Report:
    """E^infty = E^2 = homology of d1; degree s collects H_p of row (s - p) mod 2."""
    return Report(tuple(
        assemble([(p, rows[(s - p) % 2].homology[p]) for p in range(cap + 1)]) for s in range(2)
    ))


# ---------------------------------------------------------------------------
# the three JSON input kinds for one pair of complexes (rows q = 0 and q = 1)


def _free(n: int) -> dict:
    return {"free_rank": n, "torsion": []}


def page_json(rows: list[ChainComplex], cap: int) -> dict:
    cells, d1 = [], []
    for q, c in enumerate(rows):
        for p in range(cap + 1):
            cells.append({"p": p, "q": q, "group": _free(c.ranks[p])})
        for p, m in c.d.items():
            d1.append({"from": [p, q], "matrix": m})
    return {"kind": "page", "period": 2, "cap": cap, "cells": cells, "d1": d1}


def ideal_chain_json(rows: list[ChainComplex], cap: int) -> dict:
    groups = [
        {"p": p, "s": (p + q) % 2, "group": _free(c.ranks[p])}
        for q, c in enumerate(rows)
        for p in range(cap + 1)
    ]
    d1 = [{"from": [p, q], "matrix": m} for q, c in enumerate(rows) for p, m in c.d.items()]
    return {"kind": "ideal_chain", "length": cap, "default_zero": True, "groups": groups, "d1": d1}


def mv_json(rows: list[ChainComplex], cap: int, rng: random.Random) -> dict:
    """Spread each C_p over the (p+1)-fold index sets of cap+1 labels.

    Summands concatenate in lexicographic order of the sorted index sets,
    which is the order the d1 matrices act on, so d1 is the complex's own
    differential unchanged.
    """
    labels = list(range(cap + 1))
    k: dict[tuple, dict[str, dict]] = {}
    for p in range(cap + 1):
        sets = list(combinations(labels, p + 1))
        for j in sets:
            k[j] = {}
        for q, c in enumerate(rows):
            counts = [0] * len(sets)
            for _ in range(c.ranks[p]):
                counts[rng.randrange(len(sets))] += 1
            for j, n in zip(sets, counts):
                if n:
                    k[j][str(q)] = _free(n)
    d1 = [{"from": [p, q], "matrix": m} for q, c in enumerate(rows) for p, m in c.d.items()]
    return {
        "kind": "mv",
        "labels": labels,
        "cap": cap,
        "mode": "exact",
        "intersections": [{"J": list(j), "k": g} for j, g in k.items()],
        "d1": d1,
    }


def pdq(rows: int, cols: int, steps: int, rng: random.Random) -> tuple[list[list[int]], list[int]]:
    """P @ D @ Q with D a chosen Smith form; returns (matrix, diagonal of D)."""
    rank = rng.randint(min(rows, cols) // 2, min(rows, cols))
    diag = factor_chain(rank, rng) + [0] * (min(rows, cols) - rank)
    d = [[diag[i] if i == j and i < len(diag) else 0 for j in range(cols)] for i in range(rows)]
    p, _ = unimodular(rows, steps, rng)
    q, _ = unimodular(cols, steps, rng)
    return matmul(matmul(p, d), q), diag
