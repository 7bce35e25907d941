"""Exact spectral-sequence calculator for coarse-cover K-theory data.

The package computes, in exact integer arithmetic, the spectral sequences
attached to chains of ideals and to Mayer-Vietoris decompositions of
C*-algebras at the level of their K-theory data, assembles the graded
convergence target with honest extension reporting, and provides a
symbolic coarse-geometry front end (blocky lattice sets, flasqueness,
brute-force excision checking) that generates the first pages for the
standard worked examples.

``assembly``, ``coarse``, ``pages`` and ``simplex`` are registered
unexecuted, in ``sys.modules`` and as package attributes, and each runs on
its first attribute access: a subcommand runs only the modules it reads.
"""

import importlib.util
import sys

# every subcommand runs abelian; running it here, before any lazy module can,
# keeps a lazy load from adding a package attribute while a caller iterates
# over the package namespace (doctest collection does)
from . import abelian  # noqa: F401

__version__ = "0.1.0"

for _name in ("pages", "assembly", "coarse", "simplex"):
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    sys.modules[_spec.name] = globals()[_name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(sys.modules[_spec.name])
del _name, _spec
