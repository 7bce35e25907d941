"""Cake-piece membership, the affine inverse pair, and the reparametrization,
each checked exactly on Fractions at random points, and ``verify_geometry``'s
vertex checks held against every point of small denominator."""

import random
from fractions import Fraction

import pytest

from coarsek import simplex
from coarsek.simplex import (
    cake_affine_maps,
    in_cake_piece,
    suspension_reparam,
    verify_geometry,
)

from _oracles import GRID, geometry_by_enumeration, sample_boundary, sample_simplex, sample_t


def test_center_is_in_every_piece():
    for n in range(1, 6):
        center = (Fraction(1, n + 1),) * (n + 1)
        for j in range(n + 1):
            assert in_cake_piece(center, [j])
        assert in_cake_piece(center, range(n + 1))


def test_vertex_membership():
    x = (1, 0, 0)
    assert in_cake_piece(x, [1])
    assert in_cake_piece(x, [2])
    assert not in_cake_piece(x, [0])


def test_samples_lie_on_the_grid():
    rng = random.Random(6)
    for n in range(1, 6):
        for _ in range(100):
            for x in (sample_simplex(n, rng), sample_boundary(n, rng)):
                assert len(x) == n + 1 and sum(x) == 1 and min(x) >= 0
                assert all((v * GRID).denominator == 1 for v in x)
            assert 0 in sample_boundary(n, rng)
            t = sample_t(n, rng)
            assert Fraction(1, n + 2) <= t <= 1
            assert ((t - Fraction(1, n + 2)) * GRID / (1 - Fraction(1, n + 2))).denominator == 1


def test_full_index_set_pins_the_center():
    rng = random.Random(0)
    n = 3
    full = range(n + 1)
    center = (Fraction(1, n + 1),) * (n + 1)
    assert in_cake_piece(center, full)
    for _ in range(300):
        x = sample_simplex(n, rng)
        assert in_cake_piece(x, full) == (x == center)


def test_inverse_pair_and_image():
    rng = random.Random(1)
    for n in range(1, 11):
        f, g = cake_affine_maps(n)
        for _ in range(200):
            x = sample_simplex(n, rng)
            fx = f(x)
            assert in_cake_piece(fx, [0])
            assert sum(fx) == 1
            assert g(fx) == x


def test_reparam_sum_and_boundary():
    rng = random.Random(2)
    for n in range(1, 8):
        phi = suspension_reparam(n)
        for _ in range(100):
            y = sample_simplex(n, rng)
            image = phi(y, sample_t(n, rng))
            assert len(image) == n + 2
            assert sum(image) == 1
        for _ in range(100):
            y = sample_boundary(n, rng)
            image = phi(y, sample_t(n, rng))
            assert image == y + (0,)  # boundary goes to boundary, unmoved


def test_reparam_equality_at_lower_endpoint():
    rng = random.Random(3)
    for n in range(1, 6):
        phi = suspension_reparam(n)
        t = Fraction(1, n + 2)
        for _ in range(50):
            y = sample_simplex(n, rng)
            y_min = min(y)
            image = phi(y, t)
            # at the balance point the new coordinate equals y_min - t*y_min
            assert image[-1] == y_min - t * y_min == min(image[:-1])


def test_reparam_avoids_last_piece_interior():
    rng = random.Random(4)
    n = 4
    phi = suspension_reparam(n)
    for _ in range(300):
        y = sample_simplex(n, rng)
        t = sample_t(n, rng)
        image = phi(y, t)
        y_min = min(y)
        assert image[-1] >= y_min - t * y_min
        if t > Fraction(1, n + 2) and y_min > 0:
            assert image[-1] > y_min - t * y_min  # strictly above the balance


def test_reparam_domain_validation():
    phi = suspension_reparam(2)
    y = (Fraction(3, 10), Fraction(3, 10), Fraction(2, 5))
    for t in (Fraction(1, 4) - Fraction(1, 10**30), Fraction(1, 10), 1 + Fraction(1, 10**30)):
        with pytest.raises(ValueError):
            phi(y, t)
    assert sum(phi(y, Fraction(1, 4))) == sum(phi(y, 1)) == 1


def test_pairwise_membership_intersection():
    rng = random.Random(5)
    n = 4
    for _ in range(300):
        x = sample_simplex(n, rng)
        j1 = set(rng.sample(range(n + 1), rng.randint(1, n)))
        j2 = set(rng.sample(range(n + 1), rng.randint(1, n)))
        if in_cake_piece(x, j1) and in_cake_piece(x, j2):
            assert in_cake_piece(x, j1 & j2)


def test_verify_geometry_all_pass():
    for n in range(1, 11):
        checks = verify_geometry(n)
        assert all(c.ok for c in checks), [c for c in checks if not c.ok]


def test_verify_geometry_deterministic():
    a = verify_geometry(3)
    b = verify_geometry(3)
    assert a == b


# Each mutant breaks one of the two maps by a little (10^-15, below float
# resolution) or by a lot, and names the properties it must fail.
_exact_maps, _exact_phi = simplex.cake_affine_maps, simplex.suspension_reparam
_EPS = Fraction(1, 10**15)


def _nudged_g(n):
    f, g = _exact_maps(n)
    return f, lambda x: (g(x)[0] + _EPS,) + g(x)[1:]


def _wide_share(n):
    def f(x):
        share = x[0] * Fraction(1, n + 2)
        return (share,) + tuple(v + share for v in x[1:])

    return f, _exact_maps(n)[1]


def _nudged_last(n):
    phi = _exact_phi(n)
    return lambda y, t: phi(y, t)[:-1] + (phi(y, t)[-1] + _EPS,)


def _short_last(n):
    phi = _exact_phi(n)
    return lambda y, t: phi(y, t)[:-1] + (n * t * min(y),)


MUTANTS = {
    "g-plus-1e-15": ("cake_affine_maps", _nudged_g, {"inverse_pair"}),
    "f-share-over-n-plus-2": ("cake_affine_maps", _wide_share, {"inverse_pair", "f_preserves_sum"}),
    "phi-last-plus-1e-15": (
        "suspension_reparam",
        _nudged_last,
        {"phi_preserves_sum", "phi_collapses_boundary", "phi_avoids_last_piece_interior"},
    ),
    "phi-last-n-shift": ("suspension_reparam", _short_last, {"phi_preserves_sum", "phi_avoids_last_piece_interior"}),
}


@pytest.mark.parametrize("mutant", ["exact", *MUTANTS])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_verify_geometry_agrees_with_every_point_of_small_denominator(monkeypatch, n, mutant):
    # the vertex checks decide each property as a check of every rational
    # point with denominator at most 6 does, for the exact maps and each mutant
    attr, make, broken = MUTANTS.get(mutant, (None, None, set()))
    if make is not None:
        monkeypatch.setattr(simplex, attr, make)
    f, g = simplex.cake_affine_maps(n)
    expected = geometry_by_enumeration(n, f, g, simplex.suspension_reparam(n))
    assert verify_geometry(n) == expected
    assert {name for name, ok in expected if not ok} == broken

