"""Exact spectral-sequence calculator for coarse-cover K-theory data.

The package computes, in exact integer arithmetic, the spectral sequences
attached to chains of ideals and to Mayer-Vietoris decompositions of
C*-algebras at the level of their K-theory data, assembles the graded
convergence target with honest extension reporting, and provides a
symbolic coarse-geometry front end (blocky lattice sets, flasqueness,
brute-force excision checking) that generates the first pages for the
standard worked examples.
"""

__version__ = "0.1.0"
