"""End-to-end runs against frozen classical answers.

A chain complex of free groups embeds as a one-row first page (the
skeletal-filtration shape): cell (p, 0) carries the rank-p chain group
and d1 is the boundary matrix.  Higher differentials land in empty rows,
so the run provably collapses at page two and the assembled degree s must
be the s-th homology of the complex.  Cellular chain complexes of
standard spaces provide frozen expected values; period 8 keeps degrees up
to seven from wrapping around.

Two-step filtrations (a subcomplex pair) are exercised the same way with
the connecting map as d1.
"""

import random

import pytest

from coarsek.abelian import FgAbGroup, GroupHom, IntMatrix
from coarsek.assembly import IdealChainInput, assemble_target, build_ideal_chain_e1
from coarsek.pages import run_to_infinity

from _oracles import (
    oracle_hom_cokernel,
    oracle_hom_kernel,
    oracle_presented_cokernel,
    oracle_presented_kernel,
    random_matrix,
)

Z = FgAbGroup.free(1)
ZERO = FgAbGroup.zero()


def _filled(groups, length):
    """``groups`` with every subquotient group it leaves out set to zero."""
    return {(p, s): groups.get((p, s), ZERO) for p in range(length + 1) for s in range(8)}


def run_chain_complex(ranks, boundaries):
    """Run the one-row page of a free chain complex C_p with given d_p.

    ``boundaries[p]`` is the matrix C_p -> C_{p-1} (ranks[p-1] x ranks[p]).
    Returns the filtration report; degree s of the report is H_s.
    """
    groups = {}
    d1 = {}
    for p, rank in enumerate(ranks):
        if rank:
            groups[(p, p % 8)] = FgAbGroup.free(rank)
    for p, mat in boundaries.items():
        d1[(p, 0)] = mat
    inp = IdealChainInput(
        length=len(ranks) - 1, period=8, groups=_filled(groups, len(ranks) - 1), d1=d1
    )
    page = build_ideal_chain_e1(inp)
    run = run_to_infinity(page)
    assert run.stabilized_at <= 2
    return assemble_target(run)


SPACES = {
    # name: (chain ranks by degree, boundary matrices, frozen homology)
    "sphere_2": ([1, 0, 1], {}, [Z, ZERO, Z]),
    "sphere_5": ([1, 0, 0, 0, 0, 1], {}, [Z, ZERO, ZERO, ZERO, ZERO, Z]),
    "torus": (
        [1, 2, 1],
        {2: IntMatrix.from_rows([[0], [0]])},
        [Z, FgAbGroup.free(2), Z],
    ),
    "klein_bottle": (
        [1, 2, 1],
        {2: IntMatrix.from_rows([[2], [0]])},
        [Z, FgAbGroup(1, (2,)), ZERO],
    ),
    "projective_plane": (
        [1, 1, 1],
        {2: IntMatrix.from_rows([[2]])},
        [Z, FgAbGroup(0, (2,)), ZERO],
    ),
    "projective_3_space": (
        [1, 1, 1, 1],
        {2: IntMatrix.from_rows([[2]])},
        [Z, FgAbGroup(0, (2,)), ZERO, Z],
    ),
    "projective_4_space": (
        [1, 1, 1, 1, 1],
        {2: IntMatrix.from_rows([[2]]), 4: IntMatrix.from_rows([[2]])},
        [Z, FgAbGroup(0, (2,)), ZERO, FgAbGroup(0, (2,)), ZERO],
    ),
    "complex_projective_plane": ([1, 0, 1, 0, 1], {}, [Z, ZERO, Z, ZERO, Z]),
    "circle_times_sphere": ([1, 1, 1, 1], {}, [Z, Z, Z, Z]),
    "moore_2_4": (
        [1, 2, 2],
        {2: IntMatrix.diagonal([2, 4])},
        [Z, FgAbGroup(0, (2, 4)), ZERO],
    ),
}


@pytest.mark.parametrize("name", sorted(SPACES))
def test_standard_space_homology(name):
    ranks, boundaries, expected = SPACES[name]
    report = run_chain_complex(ranks, boundaries)
    for s, want in enumerate(expected):
        line = report.degree(s)
        assert not line.ambiguous, (name, s)
        assert line.assembled == want, (name, s, str(line.assembled), str(want))
    for s in range(len(expected), 8):
        assert report.degree(s).assembled == ZERO


def test_lens_space_with_threefold_torsion():
    # three cells, middle boundary multiplication by 3
    report = run_chain_complex(
        [1, 1, 1, 1], {2: IntMatrix.from_rows([[3]])}
    )
    assert report.degree(0).assembled == Z
    assert report.degree(1).assembled == FgAbGroup(0, (3,))
    assert report.degree(2).assembled == ZERO
    assert report.degree(3).assembled == Z


def test_random_free_complexes_match_kernel_cokernel_oracles():
    # length-two complexes C_1 -> C_0 with no relations: H_0 = coker,
    # H_1 = ker, both frozen through the independent minors/rank oracles
    rng = random.Random(314)
    for _ in range(40):
        r1, r0 = rng.randint(1, 4), rng.randint(1, 4)
        d = random_matrix(rng, r0, r1, -5, 5)
        report = run_chain_complex([r0, r1], {1: d})
        src_orders = (0,) * r1
        tgt_orders = (0,) * r0
        assert report.degree(0).assembled == oracle_presented_cokernel(d, tgt_orders)
        assert report.degree(1).assembled == oracle_presented_kernel(
            d, src_orders, tgt_orders
        )


# ---------------------------------------------------------------------------
# two-step filtrations: pairs with their connecting map


def run_pair(sub_homology, rel_homology, connecting):
    """Two-step filtration: level 0 the subcomplex, level 1 the pair data.

    ``rel_homology[s]`` is the degree-s homology of the quotient step and
    ``connecting[s]`` the boundary map into degree s-1 of the subcomplex.
    """
    groups = {}
    for s, g in sub_homology.items():
        groups[(0, s % 8)] = g
    for s, g in rel_homology.items():
        groups[(1, s % 8)] = g
    d1 = {}
    for s, mat in connecting.items():
        d1[(1, (s - 1) % 8)] = mat
    inp = IdealChainInput(length=1, period=8, groups=_filled(groups, 1), d1=d1)
    run = run_to_infinity(build_ideal_chain_e1(inp))
    return assemble_target(run)


def test_disk_modulo_boundary_circle():
    # the circle's fundamental class dies under an isomorphism connecting map
    report = run_pair(
        sub_homology={0: Z, 1: Z},
        rel_homology={2: Z},
        connecting={2: IntMatrix.from_rows([[1]])},
    )
    assert report.degree(0).assembled == Z
    assert report.degree(1).assembled == ZERO
    assert report.degree(2).assembled == ZERO


def test_projective_plane_from_circle_and_twocell():
    # attaching the 2-cell along the doubled circle: connecting map is x2
    report = run_pair(
        sub_homology={0: Z, 1: Z},
        rel_homology={2: Z},
        connecting={2: IntMatrix.from_rows([[2]])},
    )
    assert report.degree(0).assembled == Z
    assert report.degree(1).assembled == FgAbGroup(0, (2,))
    assert report.degree(2).assembled == ZERO


def test_sphere_from_circle_and_two_twocells():
    # two hemispheres glued along the equator: connecting (1, -1)^T kernel Z
    report = run_pair(
        sub_homology={0: Z, 1: Z},
        rel_homology={2: FgAbGroup.free(2)},
        connecting={2: IntMatrix.from_rows([[1, -1]])},
    )
    assert report.degree(0).assembled == Z
    assert report.degree(1).assembled == ZERO
    assert report.degree(2).assembled == Z


# ---------------------------------------------------------------------------
# filtrations whose boundaries cross two levels: genuine second
# differentials, injected through the escape hatch and checked against the
# hand-computed homology of the total complex


def run_crossing_filtration(e1_groups, d1, d2):
    """``d2`` acts on the generators of the E^2 cell groups."""
    inp_page = build_ideal_chain_e1(
        IdealChainInput(length=2, period=8, groups=_filled(e1_groups, 2), d1=d1)
    )
    run = run_to_infinity(inp_page, injected_by_page={2: d2})
    return assemble_target(run), run


def test_two_level_crossing_boundary_times_two():
    # one 1-chain at level 2 whose boundary lands two levels down with a
    # factor of 2: the first page has no arrows, the second page carries
    # the crossing map, and the total homology is Z/2 in degree zero
    groups = {(0, 0): Z, (2, 1): Z}
    report, run = run_crossing_filtration(
        groups, None, {(2, 7): IntMatrix.from_rows([[2]])}
    )
    assert run.stabilized_at == 3
    assert report.degree(0).assembled == FgAbGroup(0, (2,))
    assert report.degree(1).assembled == ZERO


def test_two_level_crossing_boundary_iso():
    groups = {(0, 0): Z, (2, 1): Z}
    report, _ = run_crossing_filtration(
        groups, None, {(2, 7): IntMatrix.from_rows([[1]])}
    )
    for s in range(8):
        assert report.degree(s).assembled == ZERO


def test_mixed_first_and_second_differentials():
    # two 1-chains at level 2: one boundary crosses a single level (a first
    # differential), the other crosses both (a second differential); the
    # total complex has H_0 = Z/2 and H_1 = 0.  Degrees: both 0-chains sit
    # at s = 0 (levels 0 and 1), the 1-chains at s = 1 (level 2).  On E^2
    # the second 1-chain generates (2, 7), up to sign, and d2 sends it to
    # twice the level-0 chain.
    groups = {(0, 0): Z, (1, 0): Z, (2, 1): FgAbGroup.free(2)}
    d1 = {(2, 7): IntMatrix.from_rows([[1, 0]])}
    d2 = GroupHom(Z, Z, IntMatrix.from_rows([[2]]))
    report, run = run_crossing_filtration(groups, d1, {(2, 7): d2.matrix})
    assert (run.pages[1].cell_group(2, 7), run.pages[1].cell_group(0, 0)) == (Z, Z)
    assert run.pages[-1].cell_group(2, 7) == oracle_hom_kernel(d2) == ZERO
    assert run.pages[-1].cell_group(1, 7).is_zero
    assert run.pages[-1].cell_group(0, 0) == oracle_hom_cokernel(d2)
    assert report.degree(0).assembled == FgAbGroup(0, (2,))
    assert report.degree(1).assembled == ZERO
