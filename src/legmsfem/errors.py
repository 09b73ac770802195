"""Energy-norm error evaluation against a fine reference solve.

All discrete functions here live in the same P1 space on the shared fine
mesh, so Galerkin orthogonality holds exactly at the discrete level and the
relative energy error can be evaluated from energies alone:

    E_rel = sqrt((E(u_H) - E*) / (-E*)),   E* = E(u_ref).

The interface variant subtracts the bubble-reference energy first, since
the full reference splits energy-orthogonally into bubble and interface
parts.  A direct norm-quotient evaluation is kept alongside as a
cross-check on the identity.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import finefem, globalsolve
from .mesh import FineMesh


@dataclass
class ErrorReport:
    """Error numbers for one run; gamma entries only when there are no
    bubble DOFs."""

    E_star: float
    E_num: float
    E_rel: float
    E_rel_direct: float
    E_rel_gamma: float | None = None
    decomposition_residual: float | None = None


def reference_solve(fine: FineMesh, A: finefem.CoefficientField,
                    f: finefem.RhsField, rel_tol: float = 1e-12,
                    eps: float | None = None,
                    strict: bool = False) -> tuple[finefem.FineFunction, float]:
    """Fine solve of the full problem and its energy E*.

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


def relative_energy_error(u_H: globalsolve.CoarseSolution, E_star: float
                          ) -> float:
    """Relative energy error of the coarse solution via the identity."""
    space = u_H.space
    u = globalsolve.reconstruct(u_H, "total")
    E_num = finefem.energy(u, space.A, u_H.f)
    return relative_from_energies(E_num, E_star)


def bubble_reference(fine: FineMesh, A: finefem.CoefficientField,
                     f: finefem.RhsField, rel_tol: float = 1e-12
                     ) -> finefem.FineFunction:
    """Elementwise zero-trace solves of the full problem, glued into one
    global field (the bubble part of the reference solution)."""
    geom = finefem.global_geometry(fine)
    values = np.zeros(len(geom.points))
    for K in range(len(fine.coarse.elements)):
        egeom = finefem.element_geometry(fine, K)
        sol = finefem.solve_spd(finefem.assemble(egeom, A, f), rel_tol)
        values[egeom.vids] = sol.values
    return finefem.FineFunction(geom, values)


def interface_relative_error(u_H: globalsolve.CoarseSolution,
                             E_star: float,
                             u_B_ref: finefem.FineFunction | None = None,
                             rel_tol: float = 1e-12) -> float:
    """Relative energy error against the interface part of the reference.

    Only meaningful for a bubble-free coarse space.  The interface
    reference energy is E* minus the bubble part's energy; a vanishing
    denominator (no interface energy to approximate) raises.
    """
    space = u_H.space
    if space.n_bubble:
        raise ValueError("interface error is defined for bubble-free "
                         "spaces; this solution has bubble DOFs")
    if u_B_ref is None:
        u_B_ref = bubble_reference(space.fine, space.A, u_H.f, rel_tol)
    E_B = finefem.energy(u_B_ref, space.A, u_H.f)
    E_gamma_star = E_star - E_B
    if not E_gamma_star < -1e-15 * abs(E_star):
        raise ValueError("interface reference energy is not negative; "
                         "the interface part is (numerically) zero")
    u = globalsolve.reconstruct(u_H, "total")
    E_num = finefem.energy(u, space.A, u_H.f)
    return relative_from_energies(E_num, E_gamma_star)


def direct_relative_error(u_H: globalsolve.CoarseSolution,
                          u_ref: finefem.FineFunction) -> float:
    """Norm-quotient evaluation ||u_ref - u_H||_E / ||u_ref||_E, used to
    cross-check the energy identity."""
    space = u_H.space
    u = globalsolve.reconstruct(u_H, "total")
    if u.geom is not u_ref.geom:
        raise ValueError("reference and reconstruction live on different "
                         "fine meshes")
    V = np.stack([u_ref.values - u.values, u_ref.values])
    M = finefem.energy_inner_matrix(V, u.geom, space.A)
    return float(np.sqrt(M[0, 0] / M[1, 1]))


def decomposition_check(u_H: globalsolve.CoarseSolution,
                        u_ref: finefem.FineFunction,
                        u_B_ref: finefem.FineFunction) -> float:
    """Relative residual of the error split
    a(u-u_H, u-u_H) = a(uB-uB_H, uB-uB_H) + a(uG-uG_H, uG-uG_H)."""
    space = u_H.space
    u_B = globalsolve.reconstruct(u_H, "bubble")
    u_G = globalsolve.reconstruct(u_H, "interface")
    d_B = u_B_ref.values - u_B.values
    d_G = (u_ref.values - u_B_ref.values) - u_G.values
    total = globalsolve.reconstruct(u_H, "total")
    d = u_ref.values - total.values
    M = finefem.energy_inner_matrix(np.stack([d, d_B, d_G]), u_ref.geom,
                                    space.A)
    lhs = M[0, 0]
    rhs = M[1, 1] + M[2, 2]
    if lhs <= 0:
        return 0.0
    return float(abs(lhs - rhs) / lhs)


def interface_error_map(u_H: globalsolve.CoarseSolution,
                        u_ref: finefem.FineFunction,
                        u_B_ref: finefem.FineFunction
                        ) -> tuple[dict[int, float], float]:
    """Per-edge localized relative interface error and the global absolute
    interface error.

    Element error energies are split evenly among the element's interior
    edges; the relative map divides by the interface reference energy norm.
    """
    space = u_H.space
    coarse = space.coarse
    u_G = globalsolve.reconstruct(u_H, "interface")
    d_G = (u_ref.values - u_B_ref.values) - u_G.values
    ref_G = u_ref.values - u_B_ref.values
    err2 = np.zeros(len(coarse.elements))
    denom2 = 0.0
    for K in range(len(coarse.elements)):
        egeom = finefem.element_geometry(space.fine, K)
        V = np.stack([d_G[egeom.vids], ref_G[egeom.vids]])
        M = finefem.energy_inner_matrix(V, egeom, space.A)
        err2[K] = M[0, 0]
        denom2 += M[1, 1]
    if denom2 <= 0:
        raise ValueError("interface reference norm vanishes")
    edge_map: dict[int, float] = {}
    for eid in coarse.interior_edge_ids:
        e = coarse.edges[eid]
        acc = 0.0
        for K in e.element_ids:
            n_int = sum(1 for g in coarse.element_edges[K]
                        if not coarse.edges[g].boundary)
            acc += err2[K] / n_int
        edge_map[int(eid)] = float(np.sqrt(acc / denom2))
    return edge_map, float(np.sqrt(err2.sum()))


def evaluate(u_H: globalsolve.CoarseSolution, E_star: float,
             u_ref: finefem.FineFunction,
             u_B_ref: finefem.FineFunction | None = None,
             rel_tol: float = 1e-12) -> ErrorReport:
    """Full error report for one run; gamma error only when bubble-free."""
    E_rel = relative_energy_error(u_H, E_star)
    direct = direct_relative_error(u_H, u_ref)
    gamma = None
    resid = None
    if not u_H.space.n_bubble:
        if u_B_ref is None:
            u_B_ref = bubble_reference(u_H.space.fine, u_H.space.A, u_H.f,
                                       rel_tol)
        gamma = interface_relative_error(u_H, E_star, u_B_ref, rel_tol)
    if u_B_ref is not None:
        resid = decomposition_check(u_H, u_ref, u_B_ref)
    u = globalsolve.reconstruct(u_H, "total")
    E_num = finefem.energy(u, u_H.space.A, u_H.f)
    return ErrorReport(E_star, float(E_num), E_rel, direct, gamma, resid)
