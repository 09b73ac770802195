"""Energy-norm error evaluation against a fine reference solve.

All discrete functions here live in the same P1 space on the shared fine
mesh, so Galerkin orthogonality holds exactly at the discrete level and the
relative energy error can be evaluated from energies alone:

    E_rel = sqrt((E(u_H) - E*) / (-E*)),   E* = E(u_ref).

The interface variant subtracts the bubble-reference energy first, since
the full reference splits energy-orthogonally into bubble and interface
parts.  The fine reference is one multigrid-preconditioned CG solve; the
bubble reference is the zero-trace solve with the load on every element,
which the offline patch sweep of a space produces next to its basis
(globalsolve.build_space with the load), and `bubble_reference` next to
the nodal basis alone.  `evaluate` is the one place that scores a
solution: it also reports the direct norm quotient, a cross-check on the
identity, and the residual of the error split.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import finefem, globalsolve, localbasis
from .mesh import DegreeAssignment, FineMesh


@dataclass
class ErrorReport:
    """Error numbers for one run.  The decomposition residual needs the
    bubble reference; E_rel_gamma also needs a bubble-free space and a
    nonvanishing interface part."""

    E_star: float
    E_num: float
    E_rel: float
    E_rel_direct: float
    E_rel_gamma: float | None = None
    decomposition_residual: float | None = None


def reference_solve(fine: FineMesh, A: finefem.Field,
                    f: finefem.Field, rel_tol: float = 1e-12,
                    eps: float | None = None,
                    strict: bool = False) -> tuple[finefem.FineFunction, float]:
    """Fine solve of the full problem and its energy E*, by
    multigrid-preconditioned CG (finefem.solve_spd) to rel_tol.

    For an oscillatory coefficient with period eps the fine lattice must
    resolve it: cell size <= eps/8, else warn (or raise under strict).
    """
    h = max(fine.hx, fine.hy)
    if eps is not None and h > eps / 8 * (1 + 1e-12):
        msg = (f"fine cell size h={h:.3e} does not resolve the "
               f"coefficient period eps={eps:.3e} (need h <= eps/8)")
        if strict:
            raise ValueError(msg)
        warnings.warn(msg)
    geom = finefem.global_geometry(fine)
    u = finefem.solve_spd(finefem.assemble(geom, A, f), rel_tol)
    return u, finefem.energy(u, A, f)


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
    global field.  Those are the load rows of the offline block sweep, here
    beside the nodal rows (localbasis.compute_all with the load at N = 1,
    M = 0); each row is its own LAPACK call, so the field is bitwise the
    one globalsolve.build_space keeps for the same load with any degrees."""
    table = localbasis.compute_all(fine.coarse, fine, A,
                                   DegreeAssignment.uniform(fine.coarse, 1, 0),
                                   f=f)
    return finefem.FineFunction(finefem.global_geometry(fine),
                                table.reference)


def interface_error_map(u_H: globalsolve.CoarseSolution,
                        u_ref: finefem.FineFunction,
                        u_B_ref: finefem.FineFunction
                        ) -> tuple[np.ndarray, float]:
    """Per-edge localized relative interface error over the interior edges
    (in interior_edge_ids order) and the global absolute interface error.

    Element error energies are split evenly among the element's interior
    edges; the relative map divides by the interface reference energy norm.
    The element energies of the error of the solution's interface part
    (CoarseSolution.interface) and of the interface reference come from
    one Gram block per element, taken for a chunk of same-shape patches at
    once with the chunk's patch stencils
    (finefem.patch_groups and finefem.patch_grams).
    """
    space = u_H.space
    coarse = space.coarse
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


def evaluate(u_H: globalsolve.CoarseSolution, E_star: float,
             u_ref: finefem.FineFunction,
             u_B_ref: finefem.FineFunction | None = None) -> ErrorReport:
    """Full error report for one run from the parts the solution keeps
    (CoarseSolution.interface and .bubble), the energies of the rows
    below, one row at a time, and one load vector, every sum over the fine
    vertices in a fixed order (finefem.energy_inner_matrix and
    finefem.dot), so the report does not depend on the BLAS thread count.

    The rows u, u_ref - u and u_ref give E_num, E_rel from the energy
    identity and the direct quotient ||u_ref - u||_E / ||u_ref||_E.  With
    the bubble reference u_B_ref, the rows u_B_ref, d_B = u_B_ref - u_B and
    d_G = (u_ref - u_B_ref) - u_G add the relative residual of the error
    split a(d, d) = a(d_B, d_B) + a(d_G, d_G) and, for a bubble-free space,
    the interface error against E* - E(u_B_ref).  That interface reference
    energy must be negative; when it is not (no interface part, as on one
    element) E_rel_gamma stays None.
    """
    space = u_H.space
    u_B, u_G = u_H.bubble, u_H.interface
    geom = u_B.geom
    if any(r is not None and r.geom is not geom for r in (u_ref, u_B_ref)):
        raise ValueError("reference and reconstruction live on different "
                         "fine meshes")
    u = u_B.values + u_G.values

    def rows():  # each formed when its energy is taken
        yield from (u, u_ref.values - u, u_ref.values)
        if u_B_ref is not None:
            yield u_B_ref.values
            yield u_B_ref.values - u_B.values
            yield (u_ref.values - u_B_ref.values) - u_G.values

    a = finefem.energy_inner_matrix(rows(), geom, space.A,
                                    diagonal=True).tolist()
    b = finefem.load_vector(geom, u_H.f)
    E_num = 0.5 * a[0] - finefem.dot(b, u)
    E_rel = relative_from_energies(E_num, E_star)
    direct = float(np.sqrt(a[1] / a[2]))
    gamma = None
    resid = None
    if u_B_ref is not None:
        resid = 0.0 if a[1] <= 0 else abs(a[1] - (a[4] + a[5])) / a[1]
        E_gamma_star = E_star - (0.5 * a[3]
                                 - finefem.dot(b, u_B_ref.values))
        if not space.n_bubble and E_gamma_star < -1e-15 * abs(E_star):
            gamma = relative_from_energies(E_num, E_gamma_star)
    return ErrorReport(E_star, E_num, E_rel, direct, gamma, resid)
