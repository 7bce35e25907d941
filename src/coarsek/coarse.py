"""Symbolic coarse-space calculus over lattice models.

Blocky subsets of Z^n are products of four per-coordinate constraints
(zero, nonnegative ray, nonpositive ray, full line).  The module decides
flasqueness syntactically (a half-ray factor admits a shift to infinity),
looks up the K-theory of the Roe algebra for the shapes in the grammar,
tabulates the nonzero K-data of the covers behind the worked examples
(the index sets whose meet is not flasque, found in one depth-first walk
per cover; a wedge of rays is a table of its double rays), and verifies coarse
excisiveness exhaustively on finite lattice boxes, with one integer
search per subset of a cover inside the box its members' neighbourhoods
share; the farthest point of that box from the members' intersection
settles most subsets before the search takes a step.

The search sees every set as a product of finite integer intervals.  An
unbounded end becomes -far or far, where far = inner + 1 + the largest
|finite end| of the cover and [-inner, inner] is the grid's range on
each axis.  That is exact: every finite end lies strictly between -far
and far, so a meet picks the same finite ends as before and is empty
exactly when it was; and a grid point lies strictly inside -far and far,
so its gap to each set, and to each meet, is what it was.

Z^n stands in for R^n throughout: the two are coarsely equivalent, and
coarse equivalence preserves the K-theory being tracked.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import floor, lcm
from operator import sub
from typing import Sequence

from .abelian import FgAbGroup
from .assembly import MvInput


class CoarseError(Exception):
    pass


class DimensionMismatch(CoarseError):
    pass


class UnknownSpace(CoarseError):
    pass


class BoxTooSmall(CoarseError):
    pass


# ---------------------------------------------------------------------------
# the blocky grammar


class Factor(enum.Enum):
    """Per-coordinate constraint on Z."""

    ZERO = "zero"
    NONNEG = "nonneg"
    NONPOS = "nonpos"
    FULL = "full"


def meet(a: Factor, b: Factor) -> Factor:
    """Intersection of two constraints: ``full`` is neutral, and any two
    different constraints other than ``full`` meet in ``zero``."""
    if a == b or b == Factor.FULL:
        return a
    return b if a == Factor.FULL else Factor.ZERO


@dataclass(frozen=True)
class BlockySpace:
    """Product of per-coordinate constraints; always contains the origin."""

    factors: tuple[Factor, ...]

    @property
    def dim(self) -> int:
        return len(self.factors)


def intersect(spaces: Sequence[BlockySpace]) -> BlockySpace:
    """Factorwise meet; the intersection of blocky sets is blocky."""
    if not spaces:
        raise ValueError("intersection of an empty family")
    factors = spaces[0].factors
    for s in spaces[1:]:
        if s.dim != len(factors):
            raise DimensionMismatch("blocky spaces of different dimensions")
        factors = tuple(map(meet, factors, s.factors))
    return BlockySpace(factors)


# ---------------------------------------------------------------------------
# K-theory lookup (Bott period 2)


_Z = FgAbGroup.free(1)
_0 = FgAbGroup.zero()


def roe_k_theory(space: BlockySpace) -> dict[int, FgAbGroup]:
    """Period-2 graded K-theory of the Roe algebra of a blocky space.

    A half-ray factor makes the space flasque, with zero K-theory; a
    product of k lines and points carries Z in degree k mod 2.
    """
    if not isinstance(space, BlockySpace):
        raise UnknownSpace(f"no K-theory rule for {space!r}")
    if any(f in (Factor.NONNEG, Factor.NONPOS) for f in space.factors):
        return {0: _0, 1: _0}
    lines = space.factors.count(Factor.FULL)
    return {lines % 2: _Z, (lines + 1) % 2: _0}


# ---------------------------------------------------------------------------
# cover generators for the worked examples


def block_decomposition(n: int) -> list[BlockySpace]:
    """The n+1 overlapping blocks covering Z^n.

    >>> [[f.value for f in b.factors] for b in block_decomposition(1)]
    [['nonpos'], ['nonneg']]
    """
    if n < 1:
        raise ValueError("block decomposition needs dimension >= 1")
    return [
        BlockySpace((Factor.NONNEG,) * j + (Factor.NONPOS,) + (Factor.FULL,) * (n - j - 1))
        for j in range(n)
    ] + [BlockySpace((Factor.NONNEG,) * n)]


def zinf_block_family(m: int) -> list[BlockySpace]:
    """Blocks of the countable family truncated to the first m+1 coordinates.

    Every finite intersection keeps a half-ray factor, hence is flasque.
    """
    if m < 1:
        raise ValueError("truncation prefix must be >= 1")
    return [
        BlockySpace((Factor.NONNEG,) * j + (Factor.NONPOS,) + (Factor.FULL,) * (m - j))
        for j in range(m + 1)
    ]


def _blocky_mv_input(spaces: Sequence[BlockySpace], cap: int) -> MvInput:
    """Input of a blocky cover: the K-theory of every index set of size
    <= cap + 1 whose meet is not flasque (has no ray factor).

    Each piece is two bit masks: pos, the coordinates whose factor allows
    the + side (nonneg, full), and neg, those allowing the - side; a meet
    ands the masks, and its rays are pos & ~neg and neg & ~pos.
    A depth-first walk over the sorted labels carries the running meet.  A
    ray is fixed only by a later label lacking its side, so a level stops
    once the meet holds a ray that no label from there on can fix.  Copies
    at smaller caps (``dataclasses.replace``) share the table.
    """
    dim = spaces[0].dim
    full = (1 << dim) - 1
    sides = [
        tuple(sum(1 << c for c, f in enumerate(s.factors) if f in (ray, Factor.FULL)) for ray in (Factor.NONNEG, Factor.NONPOS))
        for s in spaces
    ]
    # fixable[i]: the coordinates where some label >= i lacks the + side, and those where one lacks the - side
    fixable = [(0, 0)] * (len(spaces) + 1)
    for i in range(len(spaces) - 1, -1, -1):
        fixable[i] = (fixable[i + 1][0] | full ^ sides[i][0], fixable[i + 1][1] | full ^ sides[i][1])
    table: dict[tuple, dict[int, FgAbGroup]] = {}

    def below(j: tuple, pos: int, neg: int) -> None:
        up, down = pos & ~neg, neg & ~pos
        if j and not up | down:
            factors = tuple(Factor.FULL if pos >> c & 1 else Factor.ZERO for c in range(dim))
            table[j] = roe_k_theory(BlockySpace(factors))
        if len(j) == cap + 1:
            return
        for i in range(j[-1] + 1 if j else 0, len(spaces)):
            if up & ~fixable[i][0] or down & ~fixable[i][1]:
                return
            below(j + (i,), pos & sides[i][0], neg & sides[i][1])

    below((), full, full)
    return MvInput(tuple(range(len(spaces))), cap, table)


def rn_mv_input(n: int) -> MvInput:
    """Mayer-Vietoris input for the block decomposition of Z^n."""
    return _blocky_mv_input(block_decomposition(n), n)


def zinf_mv_input(m: int, cap: int) -> MvInput:
    """Truncated input for the countable block family; exact because every
    finite intersection is provably flasque, at any cap."""
    return _blocky_mv_input(zinf_block_family(m), min(cap, m))


def wedge_mv_input(k: int, truncated: bool = False) -> MvInput:
    """Input for a wedge of k rays covered by the base ray and k - 1
    base-plus-one-ray pieces.

    A double ray is coarsely a line, so each of those pieces carries Z in
    degree 1; the base ray, and every meet of two or more pieces (the base
    ray again), is flasque.  With ``truncated`` the input is marked as a
    finite prefix of the countable wedge; the first-page column keeps
    growing with k, so the answer is only exact for the finite wedge.
    """
    if k < 1:
        raise ValueError("wedge cover needs at least one ray")
    table = {(b,): {0: _0, 1: _Z} for b in range(1, k)}
    return MvInput(tuple(range(k)), k - 1, table, truncated_at=k if truncated else None)


# ---------------------------------------------------------------------------
# metrics and lattice boxes


@dataclass(frozen=True)
class Metric:
    """d1, sup-metric, or a weighted 1-metric with positive rational weights."""

    kind: str  # "d1" | "dinf" | "weighted"
    weights: tuple[Fraction, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("d1", "dinf", "weighted"):
            raise ValueError(f"unknown metric kind {self.kind!r}")
        if self.kind == "weighted":
            if not self.weights:
                raise ValueError("weighted metric needs weights")
            object.__setattr__(
                self, "weights", tuple(Fraction(w) for w in self.weights)
            )
            if any(w <= 0 for w in self.weights):
                raise ValueError("weights must be strictly positive")
        elif self.weights is not None:
            raise ValueError("weights only apply to the weighted metric")


@dataclass(frozen=True)
class LatticeBox:
    """Product of integer intervals (lo, hi), None meaning unbounded.

    Blocky sets embed as boxes; boxes are closed under intersection and
    admit per-coordinate nearest-point distances, which is what makes the
    excision check exact against the untruncated sets.
    """

    intervals: tuple[tuple[int | None, int | None], ...]

    @property
    def dim(self) -> int:
        return len(self.intervals)

    @classmethod
    def from_blocky(cls, space: BlockySpace) -> "LatticeBox":
        table = {
            Factor.ZERO: (0, 0),
            Factor.NONNEG: (0, None),
            Factor.NONPOS: (None, 0),
            Factor.FULL: (None, None),
        }
        return cls(tuple(table[f] for f in space.factors))


def as_box(space) -> LatticeBox:
    if isinstance(space, LatticeBox):
        return space
    if isinstance(space, BlockySpace):
        return LatticeBox.from_blocky(space)
    raise UnknownSpace(f"cannot view {space!r} as a lattice set")


# ---------------------------------------------------------------------------
# the excision oracle


@dataclass(frozen=True)
class ExcisionResult:
    ok: bool
    witness: tuple[int, ...] | None
    points_checked: int


def _check_subsets(
    cover: Sequence,
    subsets: Sequence[tuple[int, ...]],
    radius,
    s_radius,
    metric: Metric,
    box: int,
) -> dict[tuple[int, ...], ExcisionResult]:
    """Excision verdict of each subset of the cover on one lattice box, with
    the lexicographically first violating grid point as witness.

    The search runs on integer intervals (lo, hi), with unbounded ends at
    -far and far as the module docstring says; an empty member's near-box
    and an empty window have an interval with lo > hi.  Distances are
    integers scaled by the lcm of every denominator in play, so axis i
    weighs f_i and the cuts are r_cut and s_cut.  A point within
    R of a set has every coordinate gap at most floor(R / w_i), so each
    member's neighbourhood lies in its near-box, and every candidate of a
    subset lies in the intersection A of its members' near-boxes, its
    window.  A point of A is at most g_i = max(0, M_lo - A_lo, A_hi - M_hi)
    from the members' meet M on axis i, and rest[i] combines f_k g_k over
    the axes k >= i; ``combine`` takes the sum of distances under a
    1-metric and their max under the sup-metric.

    At the root, a subset passes at once when A is empty or when its
    farthest point is within S of M.  Otherwise a depth-first search fixes
    x_1, then x_2, and so on, lowest value first.  On axis i it keeps a
    value only when every member can still be within R, and the distance
    to M can still pass S given rest[i + 1]; ``spare(cut, u)`` is the
    largest contribution that keeps a distance u within the cut.  Every
    value inside M's interval looks the same to the later axes, so only the
    first one is tried.  An empty meet leaves no target: every point within
    R of the members violates.  Points outside the window are near no
    member, so every grid point gets its verdict and ``points_checked``
    counts the whole grid, while time and memory follow the windows, not
    the box.
    """
    boxes = [as_box(space) for space in cover]
    dim = boxes[0].dim
    if any(b.dim != dim for b in boxes):
        raise DimensionMismatch("cover sets of different dimensions")
    radius = Fraction(radius)
    s_radius = Fraction(s_radius)
    if radius <= 0 or s_radius <= 0:
        raise ValueError("radii must be positive")
    if Fraction(box) <= s_radius + radius:
        raise BoxTooSmall("need box > S + R to keep the enumeration honest")
    if metric.kind == "weighted" and len(metric.weights) != dim:
        raise DimensionMismatch("weight count does not match dimension")
    inner = floor(Fraction(box) - s_radius)
    weights = metric.weights or (Fraction(1),) * dim
    scale = lcm(radius.denominator, s_radius.denominator, *(w.denominator for w in weights))
    factors = [int(w * scale) for w in weights]
    r_cut, s_cut = int(radius * scale), int(s_radius * scale)
    if metric.kind == "dinf":
        combine, spare = max, lambda cut, u: cut if u <= cut else -1
    else:
        combine, spare = sum, sub

    far = inner + 1 + max((abs(e) for b in boxes for end in b.intervals for e in end if e is not None), default=0)
    sets = [[(-far if lo is None else lo, far if hi is None else hi) for lo, hi in b.intervals] for b in boxes]
    reach = [radius * w.denominator // w.numerator for w in weights]  # floor(R / w_i)
    near = [
        [(max(a - g, -inner), min(b + g, inner)) for (a, b), g in zip(s, reach)]
        if all(a <= b for a, b in s) else [(1, 0)] * dim  # an empty member is near nothing
        for s in sets
    ]
    # (A, M) of each subset seen so far, each a list of (lo, hi) per axis
    windows = {(): ([(-inner, inner)] * dim, [(-far, far)] * dim)}

    def overlap(p: list, q: list) -> list:
        return [(a if a > c else c, b if b < d else d) for (a, b), (c, d) in zip(p, q)]

    def first(subset: tuple[int, ...]) -> tuple[int, ...] | None:
        known = len(subset)
        while subset[:known] not in windows:  # in size order only the subset itself is new
            known -= 1
        inside, target = windows[subset[:known]]
        for k in range(known, len(subset)):
            j = subset[k]
            inside, target = windows[subset[: k + 1]] = overlap(inside, near[j]), overlap(target, sets[j])
        if any(a > b for a, b in inside):
            return None
        gaps = [f * max(0, c - a, b - d) for f, (a, b), (c, d) in zip(factors, inside, target)]
        if any(c > d for c, d in target):
            got = s_cut + 1  # no target: every distance to it passes S
        elif combine(gaps) <= s_cut:  # the farthest point of A is within S of M
            return None
        else:
            got = 0
        rest = [combine(gaps[i:]) for i in range(dim)] + [0]
        sides = list(zip(*(sets[j] for j in subset)))  # sides[i]: the members' intervals on axis i

        def descend(i: int, used: list[int], got: int) -> tuple[int, ...] | None:
            if i == dim:
                return ()
            f, (lo, hi), (c, d) = factors[i], inside[i], target[i]
            for (a, b), spent in zip(sides[i], used):
                t = spare(r_cut, spent) // f  # the largest gap to this member that stays within R
                lo, hi = lo if lo > a - t else a - t, hi if hi < b + t else b + t
            u = spare(s_cut, combine((got, rest[i + 1]))) // f  # gaps to M up to u stay within S
            first_in, last_in = c if c > lo else lo, d if d < hi else hi
            # drop the values within u of M; when no value can be, the rest of
            # M's interval after its first value repeats that value's subtree
            skip = (first_in - u, last_in + u) if u >= 0 else (first_in + 1, last_in)
            x = lo
            while x <= hi:
                if skip[0] <= x <= skip[1]:
                    x = skip[1] + 1
                    continue
                after = [
                    combine((spent, f * (a - x if x < a else x - b if x > b else 0)))
                    for (a, b), spent in zip(sides[i], used)
                ]
                below = descend(i + 1, after, combine((got, f * (c - x if x < c else x - d if x > d else 0))))
                if below is not None:
                    return (x,) + below
                x += 1
            return None

        return descend(0, [0] * len(subset), got)

    points = (2 * inner + 1) ** dim
    results = {}
    for subset in subsets:
        witness = first(subset)
        results[subset] = ExcisionResult(witness is None, witness, points)
    return results


def check_excision(
    cover: Sequence,
    subset: Sequence[int],
    radius,
    s_radius,
    metric: Metric,
    box: int,
) -> ExcisionResult:
    """Exhaustive test of one excision inclusion on a lattice box.

    Decides for every lattice point x with coordinates in
    [-(box - s_radius), box - s_radius]: if x lies within ``radius`` of
    every set indexed by ``subset``, then x lies within ``s_radius`` of
    their intersection.  Distances are computed against the untruncated
    sets in closed per-coordinate form, so the box only bounds the points,
    never the geometry.  Only the points inside the members' shared
    per-axis window can violate, and none does when the window's farthest
    point is within ``s_radius`` of the intersection; otherwise a search
    that fixes one coordinate at a time, lowest first, decides them and
    allocates nothing that grows with the box.
    The first violating point (lexicographically) is returned as witness.
    """
    if not subset:
        raise ValueError("subset of cover indices must be nonempty")
    members = [cover[j] for j in subset]
    key = tuple(range(len(members)))
    return _check_subsets(members, [key], radius, s_radius, metric, box)[key]


def check_cover_excision(
    cover: Sequence,
    radius,
    metric: Metric,
    box: int,
    s_radius,
) -> dict[tuple[int, ...], ExcisionResult]:
    """check_excision for every nonempty subset of the cover, at one S for all."""
    n = len(cover)
    subsets = [j for size in range(1, n + 1) for j in combinations(range(n), size)]
    return _check_subsets(cover, subsets, radius, s_radius, metric, box) if subsets else {}


def disjoint_rays() -> list[LatticeBox]:
    """The classic non-example: two disjoint rays on Z cannot be excisive."""
    return [LatticeBox(((None, -5),)), LatticeBox(((5, None),))]
