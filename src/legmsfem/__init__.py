"""Multiscale finite elements with polynomial edge and bubble enrichment.

Offline, the package computes coefficient-adapted basis functions on a
structured coarse mesh: harmonic liftings of hat traces, harmonic liftings of
internal Legendre edge traces, and per-element bubbles driven by polynomial
right-hand sides.  Online, it solves the two decoupled coarse Galerkin
problems, reconstructs the solution on the shared fine mesh, and evaluates
energy errors and a residual-type a posteriori estimator.
"""

from . import (mesh, polybasis, finefem, multigrid, localbasis, globalsolve,
               errors, estimator)

__all__ = ["mesh", "polybasis", "finefem", "multigrid", "localbasis",
           "globalsolve", "errors", "estimator"]
__version__ = "0.1.0"
