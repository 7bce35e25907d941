"""Exact checks of the affine geometry behind the first page.

The standard simplex splits into cake pieces (regions where a chosen set
of barycentric coordinates is minimal).  Two maps are verified: the
linear inverse pair (f, g) identifying the n-simplex with its 0th cake
piece P_0, and the reparametrization phi adjoining a suspension coordinate.

Each property is checked exactly at finitely many points, and that proves
it: an affine function on a polytope is settled by its values at the
vertices.  f and g are linear, so their three properties (f_0 <= f_j among
them) hold on the simplex iff they hold at e_0..e_n; f(e_0) = c, the centre.
P_0 = conv{c, e_1..e_n}, and on it phi(y, t) = (y - t*y_0, (n+1)*t*y_0) is
bilinear, so sum(phi) = 1, rest_0 = min(rest) and last - rest_0 =
y_0*((n+2)*t - 1) (a tie exactly at t = 1/(n+2) or y_0 = 0, above otherwise)
hold on P_0 x [1/(n+2), 1] iff they hold at its vertices times both ends.
On the face y_0 = 0, conv{e_1..e_n}, phi(y, t) = (y, 0).  phi commutes with
permutations of y, so every other piece and face follows.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from typing import Callable, Iterable, NamedTuple, Sequence


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


class PropertyCheck(NamedTuple):
    name: str
    ok: bool


def verify_geometry(n: int) -> list[PropertyCheck]:
    """Each property, decided at the points the module docstring names:
    the vertices are made one at a time, so memory stays O(n)."""
    f, g = cake_affine_maps(n)
    phi = suspension_reparam(n)
    ends = (Fraction(1, n + 2), 1)
    centre = (Fraction(1, n + 1),) * (n + 1)
    vertices = lambda first: ((0,) * j + (1,) + (0,) * (n - j) for j in range(first, n + 1))  # noqa: E731
    simplex = lambda: ((x,) for x in vertices(0))  # noqa: E731
    face = lambda: ((y, t) for y in vertices(1) for t in ends)  # noqa: E731
    piece = lambda: chain(((centre, t) for t in ends), face())  # noqa: E731

    def avoids_last_piece_interior(y, t) -> bool:
        *rest, last = phi(y, t)
        return rest[0] == min(rest) and last - rest[0] == y[0] * ((n + 2) * t - 1)

    properties = (
        ("inverse_pair", simplex, lambda x: g(f(x)) == x),
        ("f_lands_in_piece_0", simplex, lambda x: in_cake_piece(f(x), [0])),
        ("f_preserves_sum", simplex, lambda x: sum(f(x)) == 1),
        ("phi_preserves_sum", piece, lambda y, t: sum(phi(y, t)) == 1),
        ("phi_collapses_boundary", face, lambda y, t: phi(y, t) == (*y, 0)),
        ("phi_avoids_last_piece_interior", piece, avoids_last_piece_interior),
    )
    return [PropertyCheck(name, all(holds(*args) for args in points())) for name, points, holds in properties]
