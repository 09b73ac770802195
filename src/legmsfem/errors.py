"""Energy-norm error evaluation against a fine reference solve.

All discrete functions here live in the same P1 space on the shared fine
mesh, so Galerkin orthogonality holds exactly at the discrete level and the
relative energy error can be evaluated from energies alone:

    E_rel = sqrt((E(u_H) - E*) / (-E*)),   E* = E(u_ref).

The interface variant subtracts the bubble-reference energy first, since
the full reference splits energy-orthogonally into bubble and interface
parts.  The fine reference is one multigrid-preconditioned CG solve; the
bubble reference is the zero-trace solve with the load on every element,
which the offline patch sweep of every space produces next to its basis
(globalsolve.build_space), and `bubble_reference` is that of the nodal
space; the report and the per-edge error map read the one of the
solution's own space.  `evaluate` is the one place that scores a
solution: it forms E* from the reference field it is given and the
space's load, so a field never meets the energy of another lattice or
load, and it also reports the direct norm quotient, a cross-check on the
identity, and the residual of the error split.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import finefem, globalsolve, multigrid
from .mesh import DegreeAssignment, FineMesh


@dataclass
class ErrorReport:
    """Error numbers for one run.  E_rel_gamma needs a bubble-free space
    and a nonvanishing interface part, None otherwise."""

    E_star: float
    E_num: float
    E_rel: float
    E_rel_direct: float
    E_rel_gamma: float | None
    decomposition_residual: float


def reference_solve(fine: FineMesh, A: finefem.Field, f: finefem.Field,
                    rel_tol: float = 1e-12, strict: bool = False
                    ) -> finefem.FineFunction:
    """Fine solve of the full problem by multigrid-preconditioned CG
    (multigrid.solve_spd) to rel_tol.

    The fine lattice must resolve the period of A: cell size <= eps/8,
    eps the smallest positive entry of A.period, else warn (or raise under
    strict).  A coefficient with no period, or with no positive entry (one
    constant along both axes, as the identity), is not checked.
    """
    h = max(fine.hx, fine.hy)
    eps = min((p for p in A.period or () if p > 0), default=None)
    if eps is not None and h > eps / 8 * (1 + 1e-12):
        msg = (f"fine cell size h={h:.3e} does not resolve the "
               f"coefficient period eps={eps:.3e} (need h <= eps/8)")
        if strict:
            raise ValueError(msg)
        warnings.warn(msg)
    geom = finefem.global_geometry(fine)
    return multigrid.solve_spd(finefem.assemble(geom, A, f), rel_tol)


def relative_from_energies(E_num: float, E_star: float) -> float:
    """The energy identity; E_star must be negative (nonzero load)."""
    if not E_star < 0:
        raise ValueError(f"reference energy must be negative, got {E_star!r}")
    return float(np.sqrt(max(E_num - E_star, 0.0) / (-E_star)))


def bubble_reference(fine: FineMesh, A: finefem.Field,
                     f: finefem.Field) -> finefem.FineFunction:
    """The bubble part of the reference solution: the fine solution with
    every fine vertex of the coarse skeleton held at zero.  The skeleton
    cuts that system into independent element blocks, so it is the
    zero-trace solve with load f on every element patch, glued into one
    global field: the bubble reference of the nodal space (N = 1, M = 0).
    Each row of the offline sweep is its own LAPACK call, so the field is
    bitwise the one globalsolve.build_space keeps for the same load with
    any degrees."""
    return globalsolve.build_space(fine, A, DegreeAssignment.uniform(
        fine.coarse, 1, 0), f).bubble_reference


def interface_error_map(u_H: globalsolve.CoarseSolution,
                        u_ref: finefem.FineFunction
                        ) -> tuple[np.ndarray, float]:
    """Per-edge localized relative interface error over the interior edges
    (in interior_edge_ids order) and the global absolute interface error,
    against the interface part u_ref - u_B_ref of the reference, u_B_ref
    the bubble reference of the solution's space.  Raises ValueError where
    u_ref lives on another fine geometry.

    Element error energies are split evenly among the element's interior
    edges; the relative map divides by the interface reference energy norm.
    The element energies of the error of the solution's interface part
    (CoarseSolution.interface) and of the interface reference come from
    one Gram block per element, taken for a chunk of same-shape patches at
    once with the chunk's patch stencils
    (finefem.patch_groups and finefem.patch_grams).
    """
    space = u_H.space
    coarse, u_B_ref = space.coarse, space.bubble_reference
    if u_ref.geom is not u_B_ref.geom:
        raise ValueError("reference and reconstruction live on different "
                         "fine meshes")
    u_G = u_H.interface
    ref_G = u_ref.values - u_B_ref.values
    d_G = ref_G - u_G.values
    energies = np.zeros((coarse.n_elements, 2))
    for group in finefem.patch_groups(space.fine, range(coarse.n_elements)):
        t = group.template
        for _, sub in group.chunks(2 * 3 * t.n_vertices):
            vids = t.vids + sub.origins[:, None]
            G = finefem.patch_grams(t, sub.stencil(space.A),
                                    np.stack([d_G[vids], ref_G[vids]], 1))
            energies[sub.elements] = np.diagonal(G, axis1=1, axis2=2)
    err2 = energies[:, 0]
    denom2 = float(energies[:, 1].sum())
    if denom2 <= 0:
        raise ValueError("interface reference norm vanishes")
    # Each edge takes the share of its first element, then of its second.
    edges = coarse.interior_edge_ids
    count = (coarse.edge_element_ids[coarse.element_edge_ids, 1] >= 0).sum(1)
    acc = np.zeros(len(edges))
    for K in coarse.edge_element_ids[edges].T:
        acc += err2[K] / count[K]
    return np.sqrt(acc / denom2), float(np.sqrt(err2.sum()))


def evaluate(u_H: globalsolve.CoarseSolution,
             u_ref: finefem.FineFunction) -> ErrorReport:
    """Full error report for one run from the parts the solution keeps
    (CoarseSolution.interface and .bubble), the bubble reference and the
    load of its space, the energies of the rows below, one row at a time,
    and one load vector, every sum over the fine vertices in a fixed order
    (finefem.energy_inner_matrix and finefem.dot), so the report does not
    depend on the BLAS thread count.

    The rows u, u_ref - u and u_ref give E_num, E* = E(u_ref), E_rel from
    the energy identity and the direct quotient ||u_ref - u||_E /
    ||u_ref||_E.  The space's bubble reference u_B_ref and the rows
    d_B = u_B_ref - u_B and d_G = (u_ref - u_B_ref) - u_G add the relative
    residual of the error split a(d, d) = a(d_B, d_B) + a(d_G, d_G) and,
    for a bubble-free space, the interface error against
    E* - E(u_B_ref).  That interface reference energy must be negative;
    when it is not (no interface part, as on one element) E_rel_gamma
    stays None.
    """
    space = u_H.space
    u_B, u_G = u_H.bubble, u_H.interface
    u_B_ref = space.bubble_reference
    geom = u_B.geom
    if u_ref.geom is not geom:
        raise ValueError("reference and reconstruction live on different "
                         "fine meshes")
    u = u_B.values + u_G.values

    def rows():  # each formed when its energy is taken
        yield from (u, u_ref.values - u, u_ref.values, u_B_ref.values)
        yield u_B_ref.values - u_B.values
        yield (u_ref.values - u_B_ref.values) - u_G.values

    a = finefem.energy_inner_matrix(rows(), geom, space.A).tolist()
    b = finefem.load_vector(geom, space.f)
    E_num = 0.5 * a[0] - finefem.dot(b, u)
    E_star = 0.5 * a[2] - finefem.dot(b, u_ref.values)
    E_rel = relative_from_energies(E_num, E_star)
    direct = float(np.sqrt(a[1] / a[2]))
    resid = 0.0 if a[1] <= 0 else abs(a[1] - (a[4] + a[5])) / a[1]
    E_gamma_star = E_star - (0.5 * a[3] - finefem.dot(b, u_B_ref.values))
    gamma = None
    if not space.n_bubble and E_gamma_star < -1e-15 * abs(E_star):
        gamma = relative_from_energies(E_num, E_gamma_star)
    return ErrorReport(E_star, E_num, E_rel, direct, gamma, resid)
