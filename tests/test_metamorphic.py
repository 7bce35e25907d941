"""Metamorphic relations: the engine judged against itself.

Each relation presents a random first page a second way and says what
every E^r cell of the second run must be, given the first run: a change
of generators leaves every group as it was, a direct sum of two pages
sums them cell by cell, and the degree shift q -> q + 1 shifts every cell
and every target degree by one.  No second engine is involved.
"""

import random
from math import gcd

import pytest

from coarsek.abelian import FgAbGroup, IntMatrix
from coarsek.assembly import assemble_target
from coarsek.pages import first_page, run_to_infinity

from _oracles import random_group, random_hom_presented, zeros

PERIOD = 2
SEEDS = (1, 2, 3)
PAGES_PER_SEED = 200
ZERO = FgAbGroup.zero()


def _orders(groups):
    """Generator orders of the concatenated summands (0 for a free generator)."""
    return tuple(d for g in groups for d in g.generator_orders())


def _random_input(rng):
    """Cap, parts and d1 of a random first page: one or two small summands
    per cell, and d1 only out of odd columns, so no two differentials compose."""
    cap = rng.randint(1, 4)
    parts = {}
    for p in range(cap + 1):
        for q in range(PERIOD):
            if rng.random() < 0.7:
                parts[(p, q)] = [random_group(rng, max_rank=2, max_torsion=1) for _ in range(rng.randint(1, 2))]
    d1 = {}
    for (p, q), groups in parts.items():
        src, tgt = _orders(groups), _orders(parts.get((p - 1, q), []))
        if p % 2 and src and tgt and rng.random() < 0.8:
            d1[(p, q)] = random_hom_presented(rng, src, tgt)
    return cap, parts, d1


def _run(cap, parts, d1):
    return run_to_infinity(first_page(cap, PERIOD, parts, d1))


def _elementary(n, i, j, c):
    """The identity with c at (i, j): on generators, x_j -> x_j + c x_i."""
    entries = list(IntMatrix.identity(n).entries)
    entries[i * n + j] = c
    return IntMatrix(n, n, tuple(entries))


def _automorphism(rng, orders):
    """A random automorphism of the group with these generator orders (0
    for free), and its inverse, as matrices on the generators.  A step
    x_j -> x_j + c x_i, and its inverse, is well defined when d_i | c d_j."""
    n = len(orders)
    a = a_inv = IntMatrix.identity(n)
    for _ in range(rng.randint(0, 2 * n) if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        if orders[j] == 0:
            step = 1
        elif orders[i] == 0:
            continue  # a torsion generator cannot move along a free one
        else:
            step = orders[i] // gcd(orders[i], orders[j])
        c = step * rng.choice((-2, -1, 1, 2))
        a, a_inv = _elementary(n, i, j, c) @ a, a_inv @ _elementary(n, i, j, -c)
    return a, a_inv


@pytest.mark.parametrize("seed", SEEDS)
def test_generator_change_keeps_every_group(seed):
    # d1 conjugated by an automorphism of each cell is the same map in
    # other generators: every E^r group and the report stay as they were
    rng = random.Random(seed)
    moved = live = 0
    for _ in range(PAGES_PER_SEED):
        cap, parts, d1 = _random_input(rng)
        autos = {key: _automorphism(rng, _orders(groups)) for key, groups in parts.items()}
        conjugated = {(p, q): autos[(p - 1, q)][1] @ m @ autos[(p, q)][0] for (p, q), m in d1.items()}
        run, other = _run(cap, parts, d1), _run(cap, parts, conjugated)
        assert [page.groups for page in other.pages] == [page.groups for page in run.pages]
        assert assemble_target(other) == assemble_target(run)
        moved += sum(not a.is_identity() for a, _ in autos.values())
        live += bool(run.first_page.diffs)
    assert moved and live


def _block_diagonal(m1, m2):
    rows = [list(m1.row(i)) + [0] * m2.cols for i in range(m1.rows)]
    rows += [[0] * m1.cols + list(m2.row(i)) for i in range(m2.rows)]
    return IntMatrix.from_rows(rows, cols=m1.cols + m2.cols)


def _d1_or_zero(parts, d1, key):
    """d1 at key, or the zero matrix of its shape when there is none."""
    p, q = key
    return d1.get(key) or zeros(len(_orders(parts.get((p - 1, q), []))), len(_orders(parts.get(key, []))))


@pytest.mark.parametrize("seed", SEEDS)
def test_direct_sum_of_two_pages_sums_every_cell(seed):
    # two pages become two-summand cells with a block-diagonal d1, and
    # every E^r cell is the direct sum of the two
    rng = random.Random(seed)
    live = 0
    for _ in range(PAGES_PER_SEED):
        (cap1, parts1, d1_1), (cap2, parts2, d1_2) = _random_input(rng), _random_input(rng)
        keys = parts1.keys() | parts2.keys()
        parts = {key: parts1.get(key, []) + parts2.get(key, []) for key in keys}
        d1 = {
            key: _block_diagonal(_d1_or_zero(parts1, d1_1, key), _d1_or_zero(parts2, d1_2, key))
            for key in d1_1.keys() | d1_2.keys()
        }
        one, two, total = _run(cap1, parts1, d1_1), _run(cap2, parts2, d1_2), _run(max(cap1, cap2), parts, d1)
        for r in range(1, max(len(one.pages), len(two.pages), len(total.pages)) + 1):
            a, b, ab = (run.pages[min(r, len(run.pages)) - 1].groups for run in (one, two, total))
            sums = {key: a.get(key, ZERO).direct_sum(b.get(key, ZERO)) for key in keys}
            assert ab == {key: g for key, g in sums.items() if not g.is_zero}
        live += bool(one.first_page.diffs and two.first_page.diffs)
    assert live


@pytest.mark.parametrize("seed", SEEDS)
def test_degree_shift_shifts_every_cell_and_degree(seed):
    # q -> q + 1 at period 2 moves E^r_{p,q} to (p, q + 1) and K_n to K_{n+1}
    rng = random.Random(seed)
    live = 0

    def shift(key):
        return key[0], (key[1] + 1) % PERIOD

    for _ in range(PAGES_PER_SEED):
        cap, parts, d1 = _random_input(rng)
        run = _run(cap, parts, d1)
        other = _run(cap, {shift(k): g for k, g in parts.items()}, {shift(k): m for k, m in d1.items()})
        assert [page.groups for page in other.pages] == [
            {shift(key): g for key, g in page.groups.items()} for page in run.pages
        ]
        report, shifted = assemble_target(run), assemble_target(other)
        assert shifted.stabilized_at == report.stabilized_at
        for n in range(PERIOD):
            want, got = report.degree(n), shifted.degree(n + 1)
            assert (got.pieces, got.assembled) == (want.pieces, want.assembled)
        live += bool(run.first_page.diffs)
    assert live
