"""Exact checks of the affine geometry behind the first page.

The standard simplex splits into cake pieces (regions where a chosen set
of barycentric coordinates is minimal).  Two affine maps are verified:
the forward/inverse pair identifying a cake piece with a smaller simplex,
and the reparametrization that exhibits the extra coordinate gained by
adjoining a zero ideal as a suspension coordinate.

Both maps have rational coefficients, so every property is an identity or
an inequality over Q, checked on Fractions by exact comparison.
Sample points are random compositions of GRID into n + 1 parts, divided
by GRID; t is drawn on the same grid between its two ends.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Sequence

GRID = 10**6


def in_cake_piece(x: Sequence, piece: Iterable[int]) -> bool:
    """Whether every coordinate indexed by the piece is minimal.

    >>> in_cake_piece((1, 0, 0), [1])
    True
    >>> in_cake_piece((1, 0, 0), [0])
    False
    """
    return all(x[j] == min(x) for j in piece)


def cake_affine_maps(n: int) -> tuple[Callable, Callable]:
    """The inverse pair (f, g) carrying the n-simplex onto its 0th cake piece.

    f shaves the 0th coordinate down to a 1/(n+1) share and spreads the
    rest evenly; g undoes it.  Both preserve coordinate sums.
    """
    if n < 1:
        raise ValueError("need n >= 1")

    def f(x: Sequence) -> tuple:
        share = x[0] * Fraction(1, n + 1)
        return (share,) + tuple(v + share for v in x[1:])

    def g(x: Sequence) -> tuple:
        return ((n + 1) * x[0],) + tuple(v - x[0] for v in x[1:])

    return f, g


def suspension_reparam(n: int) -> Callable:
    """Reparametrization adding a suspension coordinate to the n-simplex.

    phi(y, t) moves t * y_min out of every coordinate of y into a new last
    coordinate, for t in [1/(n+2), 1].  Coordinate sums are preserved; the
    new coordinate can never be the uniquely smallest, with equality
    exactly at t = 1/(n+2); boundary points (y_min = 0) stay on the
    boundary for every t.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    t_lo = Fraction(1, n + 2)

    def phi(y: Sequence, t: Fraction) -> tuple:
        if not t_lo <= t <= 1:
            raise ValueError(f"t must lie in [{t_lo}, 1]")
        shift = t * min(y)
        return tuple(v - shift for v in y) + ((n + 1) * shift,)

    return phi


def sample_simplex(n: int, rng: random.Random) -> tuple[Fraction, ...]:
    """A random point of the n-simplex: n cuts of 0..GRID, sorted, give a
    composition of GRID into n + 1 parts, each divided by GRID."""
    cuts = sorted(rng.randint(0, GRID) for _ in range(n))
    return tuple(Fraction(b - a, GRID) for a, b in zip([0, *cuts], [*cuts, GRID]))


def sample_boundary(n: int, rng: random.Random) -> tuple[Fraction, ...]:
    """A random boundary point: a point of the (n-1)-simplex with a zero
    coordinate put in at a random place."""
    j, rest = rng.randrange(n + 1), sample_simplex(n - 1, rng)
    return rest[:j] + (Fraction(0),) + rest[j:]


def sample_t(n: int, rng: random.Random) -> Fraction:
    """A random t in [1/(n+2), 1] on the grid, both ends included."""
    return Fraction(1, n + 2) + Fraction(n + 1, n + 2) * Fraction(rng.randint(0, GRID), GRID)


class PropertyCheck(NamedTuple):
    name: str
    ok: bool


def verify_geometry(n: int, samples: int, seed: int) -> list[PropertyCheck]:
    """Deterministic, seeded verification of all simplex properties, each
    on ``samples`` points drawn one at a time (up to its first failure)."""
    rng = random.Random(seed)
    f, g = cake_affine_maps(n)
    phi = suspension_reparam(n)

    def avoids_last_piece_interior(y, t) -> bool:
        # the new coordinate never drops below the others; it ties them
        # exactly at t = 1/(n+2) and on the boundary
        *rest, last = phi(y, t)
        return last == min(rest) if t * (n + 2) == 1 or min(y) == 0 else last > min(rest)

    point = lambda: (sample_simplex(n, rng),)  # noqa: E731
    point_t = lambda: (sample_simplex(n, rng), sample_t(n, rng))  # noqa: E731
    boundary_t = lambda: (sample_boundary(n, rng), sample_t(n, rng))  # noqa: E731
    properties = (
        ("inverse_pair", point, lambda x: g(f(x)) == x),
        ("f_lands_in_piece_0", point, lambda x: in_cake_piece(f(x), [0])),
        ("f_preserves_sum", point, lambda x: sum(f(x)) == 1),
        ("phi_preserves_sum", point_t, lambda y, t: sum(phi(y, t)) == 1),
        ("phi_collapses_boundary", boundary_t, lambda y, t: min(phi(y, t)) == 0),
        ("phi_avoids_last_piece_interior", point_t, avoids_last_piece_interior),
    )
    return [PropertyCheck(name, all(holds(*draw()) for _ in range(samples))) for name, draw, holds in properties]
