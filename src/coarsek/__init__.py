"""Exact spectral-sequence calculator for coarse-cover K-theory data.

The package computes, in exact integer arithmetic, the spectral sequences
attached to chains of ideals and to Mayer-Vietoris decompositions of
C*-algebras at the level of their K-theory data, assembles the graded
convergence target with honest extension reporting, and provides a
symbolic coarse-geometry front end (blocky lattice sets, flasqueness,
brute-force excision checking) that generates the first pages for the
standard worked examples.
"""

from .abelian import (
    FgAbGroup,
    GroupHom,
    IntMatrix,
    SnfResult,
    SubquotientCell,
    cokernel,
    smith_normal_form,
    subquotient,
)
from .assembly import (
    FiltrationReport,
    IdealChainInput,
    MvInput,
    assemble_target,
    build_ideal_chain_e1,
    build_mv_e1,
    truncation_sweep,
)
from .coarse import (
    BlockySpace,
    Factor,
    Metric,
    block_decomposition,
    check_excision,
    classify,
    intersect,
    roe_k_theory,
    rn_mv_input,
    wedge_mv_input,
    zinf_block_family,
    zinf_mv_input,
)
from .pages import (
    CountableRank,
    Grading,
    Page,
    SpectralRun,
    first_page,
    run_to_infinity,
    turn_page,
)

__version__ = "0.1.0"
