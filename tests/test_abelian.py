"""Exact-arithmetic layer: Smith form, cokernels, groups, maps, preimage lattices,
and the homology that page turning computes from them."""

import random
from contextlib import contextmanager
from dataclasses import replace
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsek import abelian
from coarsek.abelian import (
    FgAbGroup,
    GroupHom,
    IncompatibleShapes,
    IntMatrix,
    cokernel,
    smith_normal_form,
    snf_certificate_holds,
    solve_columns,
    subquotient,
)
from coarsek.pages import CountableRank, first_page, turn_page

from _oracles import (
    _solve_in_basis,
    apply,
    determinantal_invariants,
    enumerate_quotient_order,
    group_order,
    kernel_basis,
    laplace_det,
    mixed_diagonal,
    oracle_cokernel,
    oracle_homology,
    preimage_basis,
    q_rank,
    random_group,
    random_hom,
    random_matrix,
)

Z = FgAbGroup.free(1)
ZERO = FgAbGroup.zero()


# ---------------------------------------------------------------------------
# Smith normal form


def test_snf_identity():
    s = smith_normal_form(IntMatrix.identity(2))
    assert s.diagonal == (1, 1)
    assert s.check()


def test_snf_zero_matrix():
    s = smith_normal_form(IntMatrix.from_rows([[0]]))
    assert s.diagonal == (0,)
    assert s.check()


def test_snf_worked_example():
    # frozen via determinantal divisors: gcd of entries 2, |det| = 8 -> diag(2, 4)
    s = smith_normal_form(IntMatrix.from_rows([[2, 4], [6, 8]]))
    assert s.diagonal == (2, 4)
    assert s.check()


def test_snf_zero_dimensional():
    for shape in [(0, 0), (0, 3), (3, 0)]:
        s = smith_normal_form(IntMatrix.zeros(*shape))
        assert s.check()


def test_snf_random_certificates_and_oracle():
    rng = random.Random(2024)
    for _ in range(300):
        a = random_matrix(rng, rng.randint(0, 5), rng.randint(0, 5))
        s = smith_normal_form(a)
        assert s.check()
        assert abs(laplace_det(s.U.to_rows())) == 1
        assert abs(laplace_det(s.V.to_rows())) == 1
        rank, factors = determinantal_invariants(a.to_rows())
        assert [d for d in s.diagonal if d != 0] == factors


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 4),
    st.integers(0, 4),
    st.data(),
)
def test_snf_certificate_property(m, n, data):
    entries = data.draw(st.lists(st.integers(-50, 50), min_size=m * n, max_size=m * n))
    s = smith_normal_form(IntMatrix(m, n, tuple(entries)))
    assert s.check()


def test_snf_certificate_rejects_forgeries():
    def bump(m):
        return IntMatrix(m.rows, m.cols, (m.entries[0] + 1,) + m.entries[1:])

    s = smith_normal_form(IntMatrix.from_rows([[2, 4], [6, 8]]))
    assert s.check()
    # a tampered D no longer equals U A V
    assert not replace(s, D=bump(s.D)).check()
    # U = diag(2, 1) satisfies U A V == D with D a divisibility chain, but no
    # integer U_inv exists, so the inverse check must catch it
    eye = IntMatrix.identity(2)
    a = IntMatrix.diagonal([1, 2])
    assert snf_certificate_holds(a, eye, a, eye, eye, eye)
    u = IntMatrix.diagonal([2, 1])
    assert not snf_certificate_holds(a, u, IntMatrix.diagonal([2, 2]), eye, eye, eye)
    # a V_inv that is not V's inverse
    assert snf_certificate_holds(s.matrix, s.U, s.D, s.V, s.U_inv, s.V_inv)
    assert not snf_certificate_holds(s.matrix, s.U, s.D, s.V, s.U_inv, bump(s.V_inv))


def test_snf_certificate_rejects_a_tampered_v():
    # U @ A == D @ V_inv still holds, so only V @ V_inv == I can catch a
    # V that is not V_inv's inverse
    s = smith_normal_form(IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, -4, -16]]))
    v = IntMatrix(3, 3, (s.V.entries[0] + 1,) + s.V.entries[1:])
    assert (s.U @ s.matrix).entries == (s.D @ s.V_inv).entries
    assert not snf_certificate_holds(s.matrix, s.U, s.D, v, s.U_inv, s.V_inv)


def test_snf_certificate_checks_the_last_pair():
    # 2 does not divide 3, and that pair is the last one of the diagonal
    eye = IntMatrix.identity(3)
    a = IntMatrix.diagonal([1, 2, 3])
    assert not snf_certificate_holds(a, eye, a, eye, eye, eye)


def test_snf_certificate_accepts_trailing_zeros():
    eye = IntMatrix.identity(3)
    a = IntMatrix.diagonal([1, 0, 0])
    assert snf_certificate_holds(a, eye, a, eye, eye, eye)


def _assert_snf_against_minors(a):
    s = smith_normal_form(a)
    assert s.check()
    assert abs(laplace_det(s.U.to_rows())) == abs(laplace_det(s.V.to_rows())) == 1
    rank, factors = determinantal_invariants(a.to_rows())
    assert s.diagonal == tuple(factors) + (0,) * (len(s.diagonal) - rank)
    return s


def test_snf_chain_rich_diagonals_behind_unimodular_mixing():
    # diagonal pairs that do not divide each other, in shapes up to 6x6 with
    # zero rows or columns: the divisibility chain comes from gcd/lcm steps
    rng = random.Random(26)
    for _ in range(100):
        k = rng.randint(4, 6)
        diag = []
        while len(diag) < k:
            d = 2 ** rng.randint(0, 3) * 3 ** rng.randint(0, 2) * 5 ** rng.randint(0, 1) * 7 ** rng.randint(0, 1)
            if d >= 2:
                diag.append(d)
        _assert_snf_against_minors(mixed_diagonal(rng, diag, rng.randint(k, 6), rng.randint(k, 6)))


@pytest.mark.parametrize(
    "diag, expected",
    [
        ((4, 6, 9), (1, 6, 36)),
        *(((2**a, 3**b, 5**c), (1, 1, 2**a * 3**b * 5**c)) for a, b, c in [(1, 1, 1), (3, 2, 1), (7, 5, 3), (12, 1, 9)]),
    ],
)
def test_snf_coprime_diagonals(diag, expected):
    assert _assert_snf_against_minors(IntMatrix.diagonal(diag)).diagonal == expected


def test_snf_transforms_stay_small_on_a_coprime_pair():
    # the pair once grew an 11.2 M-bit U; (gcd, lcm) needs about 20,000 bits
    s = smith_normal_form(IntMatrix.diagonal([2**9960, 3**6290]))
    assert s.diagonal == (1, 2**9960 * 3**6290)
    assert s.check()
    assert max(abs(x).bit_length() for x in s.U.entries + s.V.entries) <= 40_000


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 3), st.data())
def test_snf_replayed_transforms(m, n, k, data):
    def draw(rows, cols):
        entries = data.draw(st.lists(st.integers(-50, 50), min_size=rows * cols, max_size=rows * cols))
        return IntMatrix(rows, cols, tuple(entries))

    a = draw(m, n)
    s = smith_normal_form(a)
    b, y = draw(m, k), draw(n, k)
    # applying the logged steps directly agrees with the built transforms
    assert s.apply_U(b) == s.U @ b
    assert s.apply_V(y) == s.V @ y
    assert s.apply_V_inv(y) == s.V_inv @ y
    assert s.U @ s.U_inv == IntMatrix.identity(m)
    assert s.V @ s.V_inv == IntMatrix.identity(n)
    basis = kernel_basis(a)
    assert (basis.rows, basis.cols) == (n, n - s.rank)
    assert not any((a @ basis).entries)
    x = solve_columns(a, b)
    assert x is None or a @ x == b
    # a right-hand side in the column lattice is always solved
    x = solve_columns(a, a @ y)
    assert x is not None and a @ x == a @ y


@contextmanager
def _counting_snf():
    """Count the Smith forms taken inside the block."""
    calls = []
    real = abelian.smith_normal_form
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(abelian, "smith_normal_form", lambda a: calls.append(a) or real(a))
        yield calls


def _draw_unimodular(data, n):
    """Identity with a drawn list of column additions and swaps applied."""
    w = IntMatrix.identity(n).to_rows()
    for _ in range(data.draw(st.integers(0, 8)) if n >= 2 else 0):
        i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        c = data.draw(st.integers(-2, 2))
        for row in w:
            row[i], row[j] = (row[i] + c * row[j], row[j]) if c else (row[j], row[i])
    return IntMatrix.from_rows(w, cols=n)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 6), st.integers(0, 3), st.data())
def test_solve_columns_single_pivot_columns(m, k, data):
    # columns with one nonzero entry each, in distinct rows, scales ±1..±6
    rows = data.draw(st.permutations(range(m)))[: data.draw(st.integers(0, m))]
    n = len(rows)
    scales = data.draw(st.lists(st.sampled_from([c for c in range(-6, 7) if c]), min_size=n, max_size=n))
    a = IntMatrix.from_columns([[c if i == r else 0 for i in range(m)] for r, c in zip(rows, scales)], m)
    entries = data.draw(st.lists(st.integers(-30, 30), min_size=m * k, max_size=m * k))
    b = IntMatrix(m, k, tuple(entries))
    solvable = data.draw(st.booleans())
    if solvable:
        b = a @ IntMatrix(n, k, tuple(data.draw(st.lists(st.integers(-5, 5), min_size=n * k, max_size=n * k))))
    with _counting_snf() as calls:
        x = solve_columns(a, b)
    assert calls == []
    assert a @ x == b if x is not None else not solvable
    # the same lattice behind a unimodular W and beside a zero column takes the Smith path
    w = _draw_unimodular(data, n)
    with _counting_snf() as calls:
        forced = solve_columns((a @ w).hstack(IntMatrix.zeros(m, 1)), b)
    assert calls
    assert (x is None) == (forced is None)
    if x is not None:
        # a's columns are independent, so the solution is unique
        assert w @ forced.select_rows(range(n)) == x


def test_solve_columns_falls_back_to_smith_form():
    b = IntMatrix.from_rows([[4], [0]])
    # a zero column, and two pivots in one row, keep the Smith path
    for a in (IntMatrix.from_rows([[2, 0], [0, 0]]), IntMatrix.from_rows([[2, 4], [0, 0]])):
        with _counting_snf() as calls:
            x = solve_columns(a, b)
        assert len(calls) == 1 and a @ x == b
    with _counting_snf() as calls:
        assert solve_columns(IntMatrix.from_rows([[2, 4], [0, 0]]), IntMatrix.from_rows([[3], [0]])) is None
    assert len(calls) == 1
    # identities, diagonal relation matrices, scaled permutations and no
    # columns at all do not
    b = IntMatrix.from_rows([[10, 0], [0, 0], [30, -6]])
    cases = (
        (IntMatrix.identity(3), b),
        (IntMatrix.diagonal([2, -3, 1]), IntMatrix.from_rows([[5, 0], [0, 0], [30, -6]])),
        (IntMatrix.from_rows([[0, -2], [0, 0], [5, 0]]), None),  # 5 does not divide -6
        (IntMatrix.from_rows([[0, 5], [0, 0], [-2, 0]]), IntMatrix.from_rows([[-15, 3], [2, 0]])),
        (IntMatrix.zeros(3, 0), None),
    )
    for a, expected in cases:
        with _counting_snf() as calls:
            assert solve_columns(a, b) == expected
        assert calls == []


def test_apply_transforms_reject_wrong_heights():
    s = smith_normal_form(IntMatrix.from_rows([[2, 4], [6, 8]]))
    with pytest.raises(IncompatibleShapes):
        s.apply_U(IntMatrix.zeros(3, 1))
    with pytest.raises(IncompatibleShapes):
        s.apply_V(IntMatrix.zeros(1, 1))


# ---------------------------------------------------------------------------
# integer matrices


def _naive_product(a, b):
    return [[sum(a[i, t] * b[t, j] for t in range(a.cols)) for j in range(b.cols)] for i in range(a.rows)]


def test_sparse_product_matches_triple_loop():
    rng = random.Random(70)

    def sparse(rows, cols):
        entries = (rng.randint(-9, 9) if rng.random() < 0.3 else 0 for _ in range(rows * cols))
        return IntMatrix(rows, cols, tuple(entries))

    for _ in range(200):
        m, n, k = rng.randint(0, 7), rng.randint(0, 7), rng.randint(0, 7)
        a, b = sparse(m, n), sparse(n, k)
        product_ = a @ b
        assert (product_.rows, product_.cols) == (m, k)
        assert product_.to_rows() == _naive_product(a, b)
    # an empty inner dimension gives zeros; an empty left operand no rows
    assert IntMatrix.zeros(3, 0) @ IntMatrix.zeros(0, 4) == IntMatrix.zeros(3, 4)
    assert IntMatrix.zeros(0, 5) @ sparse(5, 2) == IntMatrix.zeros(0, 2)
    with pytest.raises(IncompatibleShapes):
        IntMatrix.zeros(2, 3) @ IntMatrix.zeros(2, 3)


def test_identity_products_return_the_other_operand():
    rng = random.Random(71)
    for m, n in product(range(7), repeat=2):
        a = random_matrix(rng, m, n, -9, 9)
        assert IntMatrix.identity(m) @ a == a
        assert a @ IntMatrix.identity(n) == a
    with pytest.raises(IncompatibleShapes):
        IntMatrix.identity(3) @ IntMatrix.zeros(2, 2)


def test_slicing_helpers_match_indexing():
    rng = random.Random(72)
    for m, n in product(range(5), repeat=2):
        a = random_matrix(rng, m, n, -9, 9)
        columns = [tuple(a[i, j] for i in range(m)) for j in range(n)]
        assert [a.column(j) for j in range(n)] == columns
        assert IntMatrix.from_columns(columns, m) == a
        rows = [rng.randrange(m) for _ in range(rng.randint(0, 4))] if m else []
        cols = [rng.randrange(n) for _ in range(rng.randint(0, 4))] if n else []
        assert a.select_rows(rows).to_rows() == [[a[i, j] for j in range(n)] for i in rows]
        assert a.select_columns(cols).to_rows() == [[a[i, j] for j in cols] for i in range(m)]


def test_is_identity_on_near_identities():
    rng = random.Random(73)
    for _ in range(500):
        m, n = rng.randint(0, 3), rng.randint(0, 3)
        a = IntMatrix(m, n, tuple(rng.choice((0, 0, 1, 1, -1, 2)) for _ in range(m * n)))
        assert a.is_identity() == (m == n and a.to_rows() == IntMatrix.identity(n).to_rows())
    assert IntMatrix.identity(0).is_identity() and IntMatrix.identity(4).is_identity()
    assert not IntMatrix.zeros(0, 2).is_identity()


def test_repr_round_trips_with_shape():
    for m in (IntMatrix.zeros(0, 3), IntMatrix.from_rows([[1, -2], [0, 3]])):
        assert eval(repr(m)) == m
    assert repr(IntMatrix.zeros(0, 3)) == "IntMatrix.from_rows([], cols=3)"


# ---------------------------------------------------------------------------
# cokernel


def test_cokernel_merges_invariant_factors():
    # Z^2/(2Z x 3Z) has 6 elements and is cyclic
    g = cokernel(IntMatrix.diagonal([2, 3]))
    assert g == FgAbGroup(0, (6,))
    assert enumerate_quotient_order(IntMatrix.diagonal([2, 3])) == 6


def test_cokernel_zero_column():
    assert cokernel(IntMatrix.from_rows([[0]])) == FgAbGroup(1, ())


def test_cokernel_drops_unit_factor():
    assert cokernel(IntMatrix.diagonal([1, 4])) == FgAbGroup(0, (4,))


def test_cokernel_order_matches_enumeration():
    # entries in [-9, 9] up to 4x4; enumeration needs the index to stay small,
    # so larger sizes are filtered to small determinants
    rng = random.Random(5)
    caps = {1: 50, 2: 50, 3: 16, 4: 8}
    todo = {1: 10, 2: 10, 3: 8, 4: 5}
    while any(v > 0 for v in todo.values()):
        m = rng.choice([k for k, v in todo.items() if v > 0])
        lo_hi = 9 if m <= 2 else 2
        a = random_matrix(rng, m, m, -lo_hi, lo_hi)
        det = abs(laplace_det(a.to_rows()))
        if not 0 < det <= caps[m]:
            continue
        assert group_order(cokernel(a)) == enumerate_quotient_order(a)
        todo[m] -= 1


def test_cokernel_against_minor_gcds_random():
    rng = random.Random(6)
    for _ in range(200):
        a = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), -9, 9)
        assert cokernel(a) == oracle_cokernel(a)


def test_subquotient_takes_coordinates_or_their_smith_form():
    rng = random.Random(74)
    for _ in range(60):
        n = rng.randint(1, 4)
        cycles = mixed_diagonal(rng, [1] * n, n + rng.randint(0, 2), n)
        coords = random_matrix(rng, n, rng.randint(0, 4), -6, 6)
        cell = subquotient(cycles, coords)
        assert subquotient(cycles, smith_normal_form(coords)) == cell
        assert cell.group == oracle_cokernel(coords)
        # the cell's boundaries and cycles @ coords span one lattice
        assert solve_columns(cell.boundaries, cycles @ coords) is not None
        assert solve_columns(cycles @ coords, cell.boundaries) is not None
        assert subquotient(cycles, IntMatrix.identity(n)).group.is_zero


# ---------------------------------------------------------------------------
# groups and isomorphism classes


def test_iso_class_basic():
    # invariant-factor form is canonical, so isomorphism is equality
    assert FgAbGroup(1, ()) == FgAbGroup(1, ())
    assert FgAbGroup(0, (2, 4)) != FgAbGroup(0, (8,))
    assert FgAbGroup(0, (6,)) == cokernel(IntMatrix.diagonal([2, 3]))


def test_iso_class_is_an_equivalence_relation():
    rng = random.Random(8)
    groups = [random_group(rng, 3, 3) for _ in range(12)]
    for g in groups:
        assert g == g
    for g in groups:
        for h in groups:
            assert (g == h) == (h == g)
            for k in groups:
                if g == h and h == k:
                    assert g == k


def test_iso_invariant_under_unimodular_presentation_change():
    rng = random.Random(11)
    for _ in range(50):
        a = random_matrix(rng, 3, 3, -6, 6)
        s = smith_normal_form(random_matrix(rng, 3, 3, -2, 2))
        u, v = s.U, s.V  # unimodular by construction
        assert cokernel(a) == cokernel(u @ a @ v)


def test_invalid_groups_rejected():
    with pytest.raises(ValueError):
        FgAbGroup(0, (3, 4))  # no divisibility chain
    with pytest.raises(ValueError):
        FgAbGroup(0, (1,))
    with pytest.raises(ValueError):
        FgAbGroup(-1, ())


def test_group_str_and_order():
    assert str(FgAbGroup(2, (2, 6))) == "Z^2 + Z/2 + Z/6"
    assert group_order(FgAbGroup(0, (2, 6))) == 12
    assert group_order(FgAbGroup(1, ())) is None


def test_direct_sum_renormalizes():
    g = FgAbGroup(0, (2,)).direct_sum(FgAbGroup(0, (3,)))
    assert g == FgAbGroup(0, (6,))
    h = FgAbGroup(1, (2,)).direct_sum(FgAbGroup(2, (4,)))
    assert h == FgAbGroup(3, (2, 4))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_direct_sum_commutative_and_associative(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    a, b, c = (random_group(rng, 2, 2) for _ in range(3))
    assert a.direct_sum(b) == b.direct_sum(a)
    assert a.direct_sum(b).direct_sum(c) == a.direct_sum(b.direct_sum(c))
    assert a.direct_sum(FgAbGroup.zero()) == a


# ---------------------------------------------------------------------------
# countable rank, a report value beside the groups


def test_countable_rules():
    inf = CountableRank()
    assert inf == CountableRank(())
    assert inf != FgAbGroup(3, ())
    assert not inf.is_zero and inf.is_free
    # torsion may sit beside countable rank; it still has no generator list
    assert str(CountableRank((2,))) == "Z^inf + Z/2"
    assert not CountableRank((2,)).is_free
    with pytest.raises(AttributeError):
        inf.gen_count
    with pytest.raises(AttributeError):
        CountableRank((2,)).gen_count
    # so no GroupHom can be built on a countable endpoint
    with pytest.raises(AttributeError):
        GroupHom(inf, Z, IntMatrix.zeros(1, 0))
    with pytest.raises(AttributeError):
        GroupHom(Z, inf, IntMatrix.zeros(0, 1))
    # the countable rank absorbs free rank, and the torsion of a sum is
    # renormalised as usual, also from a second countable summand
    assert inf.direct_sum(FgAbGroup.free(2)) == inf
    assert inf.direct_sum(FgAbGroup(0, (2,)), FgAbGroup(1, (3,))) == CountableRank((6,))
    assert CountableRank((2,)).direct_sum(CountableRank((3,))) == CountableRank((6,))
    # its torsion is a divisibility chain, as a group's is
    with pytest.raises(ValueError, match="divisibility chain"):
        CountableRank((2, 3))


# ---------------------------------------------------------------------------
# homomorphisms


def test_hom_well_definedness():
    # Z/2 -> Z cannot be nonzero
    with pytest.raises(IncompatibleShapes):
        GroupHom(FgAbGroup(0, (2,)), Z, IntMatrix.from_rows([[1]]))
    # Z/2 -> Z/4 must land in the 2-torsion
    with pytest.raises(IncompatibleShapes):
        GroupHom(FgAbGroup(0, (2,)), FgAbGroup(0, (4,)), IntMatrix.from_rows([[1]]))
    GroupHom(FgAbGroup(0, (2,)), FgAbGroup(0, (4,)), IntMatrix.from_rows([[2]]))


def test_hom_zero_map_detection():
    h = GroupHom(Z, FgAbGroup(0, (2,)), IntMatrix.from_rows([[2]]))
    assert h.is_zero_map()  # hits 2 = 0 in Z/2


# ---------------------------------------------------------------------------
# preimage lattices


def test_preimage_basis_against_brute_force():
    rng = random.Random(5)
    for _ in range(40):
        group = random_group(rng)
        a = random_matrix(rng, group.gen_count, rng.randint(1, 3), -4, 4)
        basis = preimage_basis(a, group.relation_matrix())
        columns = [list(basis.column(j)) for j in range(basis.cols)]
        assert q_rank(basis.to_rows()) == basis.cols
        for x in columns:
            assert group.element_in_relations(apply(a, x))
        # _solve_in_basis raises unless x has integer coordinates
        for x in product(range(-3, 4), repeat=a.cols):
            if group.element_in_relations(apply(a, x)):
                _solve_in_basis(columns, list(x))


# ---------------------------------------------------------------------------
# homology, as page turning computes it


def _middle_homology(f, g):
    """The (1, 0) cell after turning the page A -f-> B -g-> C, laid out as
    the column chain (2, 0) -> (1, 0) -> (0, 0), or None when it dies."""
    groups = {(2, 0): [f.source], (1, 0): [f.target], (0, 0): [g.target]}
    page = first_page(2, 2, groups, {(2, 0): f.matrix, (1, 0): g.matrix})
    return turn_page(page).cells.get((1, 0))


def _random_composable_pair(rng):
    while True:
        a, b, c = (random_group(rng) for _ in range(3))
        try:
            g = random_hom(rng, b, c)
            f = random_hom(rng, a, b)
        except Exception:
            continue
        if g.compose(f).is_zero_map():
            return f, g


def test_homology_lift_consists_of_cycles():
    rng = random.Random(3)
    for _ in range(50):
        f, g = _random_composable_pair(rng)
        cell = _middle_homology(f, g)
        for j in range(cell.gens.cols if cell else 0):
            image = apply(g.matrix, cell.gens.column(j))
            assert g.target.element_in_relations(image)


def test_homology_matches_independent_oracle_on_200_pairs():
    rng = random.Random(99)
    for _ in range(200):
        f, g = _random_composable_pair(rng)
        cell = _middle_homology(f, g)
        assert (cell.group if cell else ZERO) == oracle_homology(f, g)


def test_free_rank_agrees_with_rational_rank():
    rng = random.Random(17)
    for _ in range(100):
        a = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), -9, 9)
        assert cokernel(a).free_rank == a.rows - q_rank(a.to_rows())
