"""Blocky grammar, K-theory lookup, covers, and the excision oracle."""

import dataclasses
import inspect
import random
import sys
from fractions import Fraction
from itertools import combinations, product
from math import ceil, floor

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coarsek import coarse
from coarsek.abelian import FgAbGroup
from coarsek.coarse import (
    BlockySpace,
    BoxTooSmall,
    DimensionMismatch,
    Factor,
    LatticeBox,
    Metric,
    UnknownSpace,
    _blocky_mv_input,
    block_decomposition,
    check_cover_excision,
    check_excision,
    disjoint_rays,
    intersect,
    meet,
    rn_mv_input,
    roe_k_theory,
    wedge_mv_input,
    zinf_block_family,
    zinf_mv_input,
)
from coarsek.assembly import CapTooSmall, build_mv_e1

from _oracles import box_is_empty, box_meet, brute_force_distance, oracle_excision, set_distance

Z = FgAbGroup.free(1)
ZERO = FgAbGroup.zero()
ALL_FACTORS = list(Factor)
POINT_K = {0: Z, 1: ZERO}  # a point, or any product of an even number of lines
FLASQUE_K = {0: ZERO, 1: ZERO}


# ---------------------------------------------------------------------------
# factor meet laws


def test_meet_table_spec_cases():
    assert meet(Factor.FULL, Factor.NONNEG) == Factor.NONNEG
    assert meet(Factor.NONNEG, Factor.NONPOS) == Factor.ZERO
    assert meet(Factor.ZERO, Factor.NONNEG) == Factor.ZERO
    for f in ALL_FACTORS:
        assert meet(f, f) == f
    # every pair agrees with intersecting the two sets as integer intervals
    for a, b in product(ALL_FACTORS, repeat=2):
        box = box_meet(*(BlockySpace((f,)).intervals for f in (a, b)))
        assert BlockySpace((meet(a, b),)).intervals == box


def test_meet_is_commutative_associative_idempotent_exhaustive():
    for a, b in product(ALL_FACTORS, repeat=2):
        assert meet(a, b) == meet(b, a)
    for a, b, c in product(ALL_FACTORS, repeat=3):
        assert meet(meet(a, b), c) == meet(a, meet(b, c))


@given(st.lists(st.sampled_from(ALL_FACTORS), min_size=1, max_size=6), st.data())
def test_intersect_is_order_independent(factors, data):
    spaces = [
        BlockySpace(tuple(data.draw(st.sampled_from(ALL_FACTORS)) for _ in factors))
        for _ in range(3)
    ]
    shuffled = data.draw(st.permutations(spaces))
    assert intersect(spaces) == intersect(list(shuffled))


# ---------------------------------------------------------------------------
# intersections and classification


def test_intersect_spec_examples():
    x1 = BlockySpace((Factor.NONNEG, Factor.NONPOS))
    x2 = BlockySpace((Factor.NONNEG, Factor.NONNEG))
    assert intersect([x1, x2]) == BlockySpace((Factor.NONNEG, Factor.ZERO))
    assert intersect([x1]) == x1
    line = BlockySpace((Factor.FULL,))
    for mixed in ([x1, line], [line, x1], [x1, x2, line]):
        with pytest.raises(DimensionMismatch):
            intersect(mixed)
    with pytest.raises(ValueError):
        intersect([])


def test_full_block_intersection_is_point():
    for n in range(1, 9):
        blocks = block_decomposition(n)
        total = intersect(blocks)
        assert all(f == Factor.ZERO for f in total.factors)
        assert roe_k_theory(total) == POINT_K


def test_proper_subfamily_intersections_are_flasque():
    for n in range(1, 7):
        blocks = block_decomposition(n)
        for size in range(1, n + 1):
            for sub in combinations(range(n + 1), size):
                assert roe_k_theory(intersect([blocks[j] for j in sub])) == FLASQUE_K


def test_classify_spec_examples():
    assert roe_k_theory(BlockySpace((Factor.NONNEG, Factor.FULL))) == FLASQUE_K
    assert roe_k_theory(BlockySpace((Factor.ZERO, Factor.ZERO))) == POINT_K
    # two lines: not flasque, Z in the even degree
    assert roe_k_theory(BlockySpace((Factor.FULL, Factor.ZERO, Factor.FULL))) == POINT_K


def test_flasque_propagates_through_meets_with_half_rays():
    rng = random.Random(1)
    half_rays = (Factor.NONNEG, Factor.NONPOS)
    for _ in range(300):
        n = rng.randint(1, 5)
        a = BlockySpace(tuple(rng.choice(ALL_FACTORS) for _ in range(n)))
        b = BlockySpace(tuple(rng.choice(ALL_FACTORS) for _ in range(n)))
        both = intersect([a, b])
        retains_half_ray = any(f in half_rays for f in both.factors)
        a_zero, b_zero, both_zero = (roe_k_theory(x) == FLASQUE_K for x in (a, b, both))
        if (a_zero or b_zero) and retains_half_ray:
            assert both_zero
        if both_zero:
            assert retains_half_ray


# ---------------------------------------------------------------------------
# K-theory lookup


def test_roe_k_theory_spec_examples():
    point = BlockySpace((Factor.ZERO,))
    assert roe_k_theory(point) == {0: Z, 1: ZERO}
    assert roe_k_theory(BlockySpace((Factor.NONPOS, Factor.FULL))) == {0: ZERO, 1: ZERO}
    line3 = BlockySpace((Factor.FULL, Factor.FULL, Factor.FULL))
    assert roe_k_theory(line3) == {0: ZERO, 1: Z}
    with pytest.raises(UnknownSpace):
        roe_k_theory("not a space")


# ---------------------------------------------------------------------------
# cover generators


def test_block_decomposition_shapes():
    assert [b.factors for b in block_decomposition(1)] == [
        (Factor.NONPOS,),
        (Factor.NONNEG,),
    ]
    two = block_decomposition(2)
    assert two[0] == BlockySpace((Factor.NONPOS, Factor.FULL))
    assert two[1] == BlockySpace((Factor.NONNEG, Factor.NONPOS))
    assert two[2] == BlockySpace((Factor.NONNEG, Factor.NONNEG))
    with pytest.raises(ValueError):
        block_decomposition(0)


def test_zinf_family_shapes_and_flasqueness():
    fam = zinf_block_family(2)
    assert fam[0] == BlockySpace((Factor.NONPOS, Factor.FULL, Factor.FULL))
    both = intersect([fam[0], fam[1]])
    assert both == BlockySpace((Factor.ZERO, Factor.NONPOS, Factor.FULL))
    assert roe_k_theory(both) == FLASQUE_K
    for m in range(1, 5):
        fam = zinf_block_family(m)
        for x in fam:
            assert roe_k_theory(x) == FLASQUE_K
        for size in range(1, m + 2):
            for sub in combinations(range(m + 1), size):
                assert roe_k_theory(intersect([fam[j] for j in sub])) == FLASQUE_K


def _all_index_sets_shuffled(labels, rng):
    sets = [list(j) for size in range(1, len(labels) + 1) for j in combinations(labels, size)]
    rng.shuffle(sets)
    for j in sets:
        rng.shuffle(j)
    return [tuple(j) for j in sets]


def _nonzero(graded):
    return {q: g for q, g in graded.items() if not g.is_zero}


def test_builtin_rules_match_direct_intersections_in_any_query_order():
    rng = random.Random(3)
    for inp, spaces in ((rn_mv_input(5), block_decomposition(5)), (zinf_mv_input(4, 4), zinf_block_family(4))):
        for j in _all_index_sets_shuffled(inp.labels, rng):
            assert _nonzero(inp.graded_for(j)) == _nonzero(roe_k_theory(intersect([spaces[i] for i in j])))


def _random_covers(rng, count):
    for _ in range(count):
        dim = rng.randint(1, 4)
        yield [BlockySpace(tuple(rng.choice(ALL_FACTORS) for _ in range(dim))) for _ in range(rng.randint(1, 8))]


def test_blocky_table_matches_brute_force_on_random_covers():
    # the table holds exactly the non-flasque meets up to size cap + 1
    for spaces in _random_covers(random.Random(11), 300):
        meets = {
            j: intersect([spaces[i] for i in j])
            for size in range(1, len(spaces) + 1)
            for j in combinations(range(len(spaces)), size)
        }
        for cap in range(len(spaces)):
            expected = {j: roe_k_theory(m) for j, m in meets.items() if len(j) <= cap + 1 and roe_k_theory(m) != FLASQUE_K}
            assert _blocky_mv_input(spaces, cap).intersections == expected


def test_blocky_table_at_sizes_brute_force_cannot_reach():
    # rn:40 has 2**41 - 1 index sets and one non-flasque meet: all 41 blocks
    # meet in the origin; no meet of the zinf:30 family loses every ray
    assert rn_mv_input(40).intersections == {tuple(range(41)): {0: Z, 1: ZERO}}
    assert zinf_mv_input(30, 30).intersections == {}


def test_blocky_table_nests_no_call_per_label():
    # rn:300 stores a set of 301 labels; building it may not recurse once
    # per label, under a limit of 100 frames above this one
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        inp = rn_mv_input(300)
    finally:
        sys.setrecursionlimit(limit)
    assert inp.intersections == {tuple(range(301)): {0: Z, 1: ZERO}}


def _first_page_or_refusal(inp):
    try:
        return build_mv_e1(inp)
    except CapTooSmall as exc:
        return str(exc)


def test_blocky_walk_answers_every_top_from_one_listing():
    # one walk's table, cut down to a smaller cap, builds the page (or the
    # refusal) of an input walked fresh at that cap
    for spaces in _random_covers(random.Random(5), 150):
        top = _blocky_mv_input(spaces, len(spaces) - 1)
        for cap in range(len(spaces)):
            fresh = _first_page_or_refusal(_blocky_mv_input(spaces, cap))
            assert _first_page_or_refusal(dataclasses.replace(top, cap=cap)) == fresh


@pytest.mark.parametrize(
    "build",
    [lambda: rn_mv_input(12), lambda: wedge_mv_input(15), lambda: zinf_mv_input(11, 10)],
    ids=["rn12", "wedge15", "zinf11"],
)
def test_builtin_first_page_asks_the_rule_at_most_once_per_label(monkeypatch, build):
    # the K-theory rule is asked at most once per table entry, while the
    # input is built, and never by the first page
    calls = []
    real = coarse.roe_k_theory
    monkeypatch.setattr(coarse, "roe_k_theory", lambda space: calls.append(space) or real(space))
    inp = build()
    asked = len(calls)
    build_mv_e1(inp)
    assert len(calls) == asked <= len(inp.intersections) <= len(inp.labels)


def test_wedge_cover_pieces():
    # a double ray is coarsely a line; the base ray and every meet are flasque
    line = roe_k_theory(BlockySpace((Factor.FULL,)))
    for k in range(1, 9):
        assert wedge_mv_input(k).intersections == {(b,): line for b in range(1, k)}
    with pytest.raises(ValueError, match="wedge cover needs at least one ray"):
        wedge_mv_input(0)


def test_wedge_truncation_first_column():
    page = build_mv_e1(wedge_mv_input(5, truncated=True))
    assert page.cell_group(0, 1) == FgAbGroup.free(4)
    assert page.cell_group(0, 0).is_zero
    for p in range(1, 5):
        for q in range(2):
            assert page.cell_group(p, q).is_zero


# ---------------------------------------------------------------------------
# distances


def test_set_distance_closed_form_vs_brute_force():
    rng = random.Random(9)
    metrics = [Metric("d1"), Metric("dinf"), Metric("weighted", (1, Fraction(1, 2), 3))]
    for _ in range(60):
        n = 3
        space = BlockySpace(tuple(rng.choice(ALL_FACTORS) for _ in range(n)))
        box = space.intervals
        point = tuple(rng.randint(-8, 8) for _ in range(n))
        for metric in metrics:
            closed = set_distance(point, box, metric)
            brute = brute_force_distance(point, box, metric, search=16)
            assert closed == brute, (space, point, metric)


def test_metric_sandwich_pointwise():
    # d1-neighborhood inside dinf-neighborhood inside (n*R)-d1-neighborhood
    rng = random.Random(10)
    for _ in range(40):
        n = rng.randint(1, 3)
        space = BlockySpace(tuple(rng.choice(ALL_FACTORS) for _ in range(n)))
        box = space.intervals
        r = rng.randint(1, 4)
        for point in product(range(-6, 7), repeat=n):
            d1 = set_distance(point, box, Metric("d1"))
            dinf = set_distance(point, box, Metric("dinf"))
            if d1 <= r:
                assert dinf <= r
            if dinf <= r:
                assert d1 <= n * r


# ---------------------------------------------------------------------------
# the excision oracle


def test_excision_dinf_equality_case():
    res = check_excision(block_decomposition(2), [0, 1, 2], 3, 3, Metric("dinf"), 12)
    assert res.ok


def test_excision_d1_with_dimension_scaled_s():
    res = check_excision(block_decomposition(2), [0, 1, 2], 3, 6, Metric("d1"), 20)
    assert res.ok


def test_excision_disjoint_sets_fail_with_witness():
    res = check_excision(disjoint_rays(), [0, 1], 6, 4, Metric("d1"), 20)
    assert not res.ok
    assert res.witness is not None and abs(res.witness[0]) <= 1


def test_excision_box_precondition():
    with pytest.raises(BoxTooSmall):
        check_excision(block_decomposition(1), [0, 1], 3, 3, Metric("dinf"), 6)


def test_excision_weighted_metric_with_explicit_s():
    # weighted 1-metrics keep the blocky family excisive once S absorbs the
    # weight spread; S is always an explicit parameter here
    fam = zinf_block_family(2)
    weights = [1, 2, 3]
    big_s = 3 * 4  # max weight times R
    res = check_excision(fam, [0, 1, 2], 4, big_s, Metric("weighted", weights), 40)
    assert res.ok
    # fractional weights: S = R genuinely fails, the M^3 R bound passes
    # (M bounds the weights from both sides and dominates the dimension)
    fractional = Metric("weighted", (1, Fraction(1, 2), Fraction(1, 3)))
    res = check_excision(fam, [0, 1, 2], 4, 4, fractional, 20)
    assert not res.ok and res.witness is not None
    res = check_excision(fam, [0, 1, 2], 4, 27 * 4, fractional, 120)
    assert res.ok


def test_excision_dinf_s_equals_r_many_covers():
    rng = random.Random(12)
    for _ in range(10):
        n = rng.randint(1, 3)
        cover = [
            BlockySpace(tuple(rng.choice(ALL_FACTORS) for _ in range(n)))
            for _ in range(rng.randint(1, 3))
        ]
        r = rng.randint(1, 3)
        for size in range(1, len(cover) + 1):
            for sub in combinations(range(len(cover)), size):
                res = check_excision(cover, list(sub), r, r, Metric("dinf"), 4 * r)
                assert res.ok, (cover, sub, r)


def test_check_cover_excision_all_subsets():
    results = check_cover_excision(block_decomposition(2), 2, Metric("dinf"), 8, s_radius=2)
    assert len(results) == 7
    assert all(r.ok for r in results.values())


def _agrees_with_oracle(cover, radius, s_radius, metric, box):
    """check_cover_excision against the point-by-point oracle on every subset."""
    results = check_cover_excision(cover, radius, metric, box, s_radius=s_radius)
    n = len(cover)
    assert list(results) == [j for size in range(1, n + 1) for j in combinations(range(n), size)]
    points = (2 * floor(Fraction(box) - Fraction(s_radius)) + 1) ** cover[0].dim
    for j, res in results.items():
        want = oracle_excision([cover[i].intervals for i in j], radius, s_radius, metric, box)
        assert (res.ok, res.witness, res.points_checked) == (want is None, want, points), (cover, j)
    assert check_excision(cover, range(n), radius, s_radius, metric, box) == results[tuple(range(n))]
    return results


FAR = 10**6


def _random_member(rng, dim, span=4, extremes=False):
    """A blocky space, or a box with ends in [-span, span] or unbounded.

    With ``extremes`` a quarter of the intervals instead get an end at
    -FAR or FAR, far outside every grid, or are empty (hi < lo), near the
    grid or far from it."""
    if rng.random() < 0.5:
        return BlockySpace(tuple(rng.choice(ALL_FACTORS) for _ in range(dim)))
    intervals = []
    for _ in range(dim):
        lo = rng.choice((None, rng.randint(-span, span - 1)))
        hi = rng.choice((None, rng.randint(1 - span if lo is None else lo, span)))
        if extremes and rng.random() < 0.25:
            x = rng.choice((rng.randint(-span, span), -FAR, FAR))
            lo, hi = rng.choice(((-FAR, hi), (lo, FAR), (FAR, None), (None, -FAR), (x, x - rng.randint(1, 3))))
        intervals.append((lo, hi))
    return LatticeBox(tuple(intervals))


def _random_metric(rng, kind, dim):
    weights = (1, Fraction(1, 2), Fraction(2, 3), Fraction(3, 2), Fraction(5, 4))
    return Metric("weighted", tuple(rng.choice(weights) for _ in range(dim))) if kind == "weighted" else Metric(kind)


def _settled_by_farthest_point(members, radius, s_radius, metric, box):
    """Whether a subset's farthest window point is within S of its meet.

    The window is the grid points within floor(R / w_i) of every member on
    each axis i.  None when it is empty, so no grid point is near every
    member; False when the meet is empty or the farthest point of the
    window, sum_i w_i max(0, M_lo - A_lo, A_hi - M_hi), lies beyond S.
    """
    if any(box_is_empty(m.intervals) for m in members):
        return None
    inner = floor(box - s_radius)
    far = 0
    meet_empty = False
    for i, w in enumerate(metric.weights or (1,) * members[0].dim):
        los = [m.intervals[i][0] for m in members if m.intervals[i][0] is not None]
        his = [m.intervals[i][1] for m in members if m.intervals[i][1] is not None]
        reach = floor(radius / w)
        a, b = max([-inner] + [lo - reach for lo in los]), min([inner] + [hi + reach for hi in his])
        if a > b:
            return None
        c, d = max(los, default=None), min(his, default=None)
        meet_empty |= c is not None and d is not None and c > d
        far += w * max(0, 0 if c is None else c - a, 0 if d is None else b - d)
    return not meet_empty and far <= s_radius


def test_cover_excision_matches_brute_force_oracle():
    rng = random.Random(2024)
    empty = failed = settled = opened = far = empty_member = 0
    for _ in range(100):
        dim = rng.randint(1, 3)
        cover = [_random_member(rng, dim, extremes=True) for _ in range(rng.randint(1, 3))]
        far += any(abs(end or 0) == FAR for b in cover for interval in b.intervals for end in interval)
        empty_member += any(box_is_empty(b.intervals) for b in cover)
        metric = _random_metric(rng, rng.choice(("d1", "dinf", "weighted")), dim)
        radius = Fraction(rng.randint(1, 8), rng.randint(1, 4))
        s_radius = Fraction(rng.randint(1, 10), rng.randint(1, 4))
        box = floor(radius + s_radius) + 1 + rng.randint(0, 2)
        results = _agrees_with_oracle(cover, radius, s_radius, metric, box)
        failed += sum(not r.ok for r in results.values())
        empty += any(box_is_empty(box_meet(cover[0].intervals, b.intervals)) for b in cover)
        if metric.kind != "dinf":
            kinds = [
                _settled_by_farthest_point([cover[i] for i in j], radius, s_radius, metric, box)
                for j in results
            ]
            settled += kinds.count(True)
            opened += kinds.count(False)
    # the draw reaches both verdicts, disjoint members, ends far outside the
    # grid and empty members, and under the 1-metrics both subsets the
    # farthest-point bound settles and subsets it leaves to the search
    assert failed and empty and far and empty_member and settled and opened


def test_cover_excision_matches_oracle_on_odd_and_even_splits():
    # four to six axes give the search long paths to prune and backtrack
    # along; members within [-2, 2] and S <= 1 keep failing subsets common
    rng = random.Random(4056)
    verdicts = set()
    for dim in (4, 5, 6):
        for kind in ("d1", "dinf", "weighted"):
            for _ in range(4):
                cover = [_random_member(rng, dim, span=2) for _ in range(rng.randint(1, 3))]
                metric = _random_metric(rng, kind, dim)
                s_radius = Fraction(rng.randint(1, 4), 4)
                box = ceil(s_radius + (rng.randint(1, 2) if dim < 6 else 1))  # inner <= 2
                radius = Fraction(rng.randint(1, int(4 * (box - s_radius)) - 1), 4)
                results = _agrees_with_oracle(cover, radius, s_radius, metric, box)
                verdicts |= {(dim, r.ok) for r in results.values()}
    assert verdicts == {(dim, ok) for dim in (4, 5, 6) for ok in (False, True)}


def test_dinf_intervals_match_brute_force_oracle():
    # under the sup-metric the search never backtracks; the oracle walks
    # every grid point.  Fractional R and S, inner <= 5 - dim.
    rng = random.Random(1993)
    dinf = Metric("dinf")
    late = no_target = apart = 0
    for _ in range(80):
        dim = rng.randint(1, 4)
        cover = [_random_member(rng, dim, span=3) for _ in range(rng.randint(1, 5))]
        s_radius = Fraction(rng.randint(1, 12), rng.randint(1, 4))
        box = ceil(s_radius + rng.randint(1, 6 - dim))
        radius = (box - s_radius) * Fraction(rng.randint(1, 7), 8)
        results = _agrees_with_oracle(cover, radius, s_radius, dinf, box)
        boxes = [space.intervals for space in cover]
        for j, res in results.items():
            members = [boxes[i] for i in j]
            meet = box_meet(*members)
            if box_is_empty(meet) and not any(box_is_empty(m) for m in members):
                no_target += not res.ok
                apart += res.ok  # no target and still no violation: A is empty
            elif not res.ok:  # counted when the witness is within S of the meet on axis 0
                late += set_distance(res.witness[:1], meet[:1], dinf) <= s_radius
    # the draw reaches escapes after the first axis, subsets without a target,
    # and subsets whose members' neighbourhoods miss each other on the grid
    assert late and no_target and apart


def test_dinf_intervals_exact_far_past_int64():
    # R = N + 1/2 and S = N - 1/3 with N = 2**70, so floor(R) = N and
    # floor(S) = N - 1; box 2N + 1 gives inner = N + 1.  Within R of
    # (-inf, -5] means x <= N - 5, within S only x <= N - 6; within R of
    # [5, inf) means x >= 5 - N, within S only x >= 6 - N; both rays are
    # within R of [5 - N, N - 5] and their intersection is empty.
    n = 2**70
    results = check_cover_excision(
        disjoint_rays(), n + Fraction(1, 2), Metric("dinf"), 2 * n + 1, s_radius=n - Fraction(1, 3)
    )
    assert {j: r.witness for j, r in results.items()} == {(0,): (n - 5,), (1,): (5 - n,), (0, 1): (5 - n,)}
    assert {r.points_checked for r in results.values()} == {2 * n + 3}


def test_cover_excision_exact_past_int64():
    # a weight of 2**-62 scales the other coordinate by 2**62 * 3/2, so the
    # distances leave int64, and the search stays exact on Python integers
    cover = [
        LatticeBox(((None, -1), (0, None))),
        BlockySpace((Factor.FULL, Factor.NONPOS)),
        LatticeBox(((-2, 3), (-3, 2))),
    ]
    metric = Metric("weighted", (Fraction(1, 2**62), Fraction(3, 2)))
    results = _agrees_with_oracle(cover, Fraction(5, 2), Fraction(3, 2), metric, 6)
    assert sorted({r.ok for r in results.values()}) == [False, True]


def test_cover_excision_exact_past_int64_cuts():
    # a weight of 2**-62 on every coordinate keeps the scaled gaps small but
    # puts both cuts past int64; the disjoint members still fail together
    cover = [LatticeBox(((None, -1), (0, None))), LatticeBox(((1, None), (None, 2)))]
    metric = Metric("weighted", (Fraction(1, 2**62),) * 2)
    results = _agrees_with_oracle(cover, 3, 2, metric, 6)
    assert [r.ok for r in results.values()] == [True, True, False]


def test_cover_excision_empty_member_is_near_nothing():
    cover = [LatticeBox(((2, 1),)), LatticeBox(((None, 0),))]
    results = _agrees_with_oracle(cover, 2, 1, Metric("dinf"), 5)
    assert results[(0,)].ok and results[(0, 1)].ok
    assert results[(1,)].witness == (2,)


def test_cover_excision_witnesses_on_window_edges():
    # floor(5 / (5/4)) = 4 and floor(5 / (2/3)) = 7: the point's window is
    # [-4, 4] x [-7, 7] and the line's [-9, 9] x [-7, 7], and each first
    # witness lies on its window's low edge
    cover = [LatticeBox(((0, 0), (0, 0))), LatticeBox(((None, None), (0, 0)))]
    metric = Metric("weighted", (Fraction(5, 4), Fraction(2, 3)))
    results = _agrees_with_oracle(cover, 5, Fraction(1, 3), metric, 10)
    assert {j: r.witness for j, r in results.items()} == {(0,): (-4, 0), (1,): (-9, -7), (0, 1): (-4, 0)}
    assert {r.points_checked for r in results.values()} == {361}


def test_cover_excision_sums_exact_at_dtype_boundary():
    # scale 255 puts the R cut at 254, one below the cost of a unit gap, so
    # only the members' own points are within R and every subset passes
    cover = [BlockySpace((Factor.ZERO, Factor.ZERO)), BlockySpace((Factor.NONNEG, Factor.ZERO))]
    results = _agrees_with_oracle(cover, Fraction(254, 255), Fraction(1, 255), Metric("d1"), 2)
    assert all(r.ok for r in results.values())
