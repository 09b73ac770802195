"""Residue-type a posteriori estimator and its per-edge localization.

Three ingredients per run: an element residual term driven by how well the
bubble right-hand sides capture f (with bulk degree 0 it degenerates to
H_K^2 ||f||^2), an element term weighted by the edge degrees through
H_e H_K / (N_e^(1-2 eta) p_e), and flux-jump terms of the interface part
across interior edges, taken for all edges in one array pass over their
fine segments.  The reported value is the square root of the sum; the
unknown analytic prefactor is taken as 1, so absolute reliability is a
matter of one calibrated constant while trends and localization are exact.

The divergence of the discrete bubble part is evaluated through the
defining property of the bubble functions (their negative flux divergence
is the bulk polynomial), not by differentiating P1 fields twice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import finefem, globalsolve, polybasis
from .mesh import CoarseMesh, DegreeAssignment, FineMesh


@dataclass
class EstimatorReport:
    """Global estimator value with its per-element and per-edge pieces.

    bubble_terms/element_terms/jump_terms are the squared summands of the
    three sums; element_residuals and jump_norms are the raw norms.
    localized (set by localize) holds per-edge values whose squares sum
    back to value_gamma^2, leftover_element_terms any unattributable
    element shares (elements without interior edges).
    """

    value: float
    value_gamma: float | None
    eta: float
    element_residuals: dict[int, float]
    bubble_terms: dict[int, float]
    element_terms: dict[int, float]
    jump_norms: dict[int, float]
    jump_terms: dict[int, float]
    p_table: dict[int, int]
    localized: dict[int, float] | None = None
    leftover_element_terms: dict[int, float] | None = None


def compute_p_e(coarse: CoarseMesh, edge_id: int,
                degrees: DegreeAssignment) -> int:
    """Minimum edge degree over all interior edges of the two elements
    sharing the edge."""
    e = coarse.edges[edge_id]
    if e.boundary:
        raise ValueError(f"edge {edge_id} is a boundary edge")
    p = None
    for K in e.element_ids:
        for g in coarse.element_edges[K]:
            if not coarse.edges[g].boundary:
                n = degrees.N[int(g)]
                p = n if p is None else min(p, n)
    return int(p)


def jump_norm(fine: FineMesh, edge_id: int, v: finefem.FineFunction,
              A: finefem.CoefficientField) -> float:
    """L2 norm over the edge of the normal-flux jump of a fine P1 field;
    ValueError unless v is on the global fine mesh and the edge interior."""
    return _jump_norms(fine, [edge_id], v, A)[0]


def _jump_norms(fine: FineMesh, edge_ids: list[int], v: finefem.FineFunction,
                A: finefem.CoefficientField) -> list[float]:
    """jump_norm for each of edge_ids in one array pass.

    Per fine segment the gradient is constant on each side and A is taken
    at the segment midpoint; sides are ordered lower-id element first (the
    sign squares away).
    """
    geom = finefem.global_geometry(fine)
    if v.geom is not geom:
        raise ValueError("jump norms need the field on the global fine mesh")
    if not edge_ids:
        return []
    tris = np.concatenate([fine.edge_segment_triangles(e) for e in edge_ids])
    chains = fine.edge_vertex_chains(edge_ids)
    pa = geom.points[chains[:, :-1].ravel()]
    pb = geom.points[chains[:, 1:].ravel()]
    d = pb - pa
    L = np.hypot(d[:, 0], d[:, 1])
    nu = np.column_stack([d[:, 1], -d[:, 0]]) / L[:, None]
    Anu = np.einsum("sij,sj->si", A.matrix_at(0.5 * (pa + pb)), nu)
    grad = np.einsum("sti,stid->std", v.values[geom.tris[tris]],
                     geom.grads[tris])
    flux = np.einsum("std,sd->st", grad, Anu)
    acc = np.bincount(np.repeat(np.arange(len(chains)), fine.n_sub),
                      L * (flux[:, 0] - flux[:, 1]) ** 2)
    return np.sqrt(acc).tolist()


def bubble_residual(fine: FineMesh, elem_id: int, f: finefem.RhsField,
                    coeffs: np.ndarray, basis: polybasis.BulkPolyBasis | None
                    ) -> float:
    """||f - sum_i c_i P_i||_{L2(K)} by fine quadrature.

    With no bubble coefficients (basis None) this is the residual of the
    zero approximation, i.e. ||f||_{L2(K)}.
    """
    element = fine.coarse.elements[elem_id]
    pts, w = finefem.element_quadrature(fine, elem_id)
    fv = np.asarray(f(pts[:, 0], pts[:, 1]), dtype=float)
    if basis is not None and len(coeffs):
        fv = fv - basis.eval_ref(element.to_ref(pts)) @ np.asarray(coeffs)
    return float(np.sqrt(w @ fv**2))


def _f_norms(fine: FineMesh, elem_id: int, f: finefem.RhsField | None,
             ell: int) -> tuple[float, float]:
    """(||f||_{L2(K)}, ||f||_{H^ell(K)}); ell in {0, 1}, 1 needs f.grad."""
    if f is None:
        return 0.0, 0.0
    pts, w = finefem.element_quadrature(fine, elem_id)
    fv = np.asarray(f(pts[:, 0], pts[:, 1]), dtype=float)
    l2sq = float(w @ fv**2)
    if ell == 0:
        return float(np.sqrt(l2sq)), float(np.sqrt(l2sq))
    if ell != 1:
        raise ValueError("f smoothness above 1 is not supported")
    if f.grad is None:
        raise ValueError("smoothness 1 declared but f has no gradient")
    gx, gy = f.grad(pts[:, 0], pts[:, 1])
    h1sq = l2sq + float(w @ (np.asarray(gx)**2 + np.asarray(gy)**2))
    return float(np.sqrt(l2sq)), float(np.sqrt(h1sq))


def global_estimate(u_H: globalsolve.CoarseSolution,
                    f: finefem.RhsField | None = None,
                    degrees: DegreeAssignment | None = None,
                    eta: float = 0.0,
                    ell: int | dict[int, int] | None = None
                    ) -> EstimatorReport:
    """Assemble the estimator for a solved coarse solution.

    ell declares the smoothness of f per element (int for uniform, dict
    with default 0); degrees default to the solution's own.
    """
    space = u_H.space
    coarse, fine, A = space.coarse, space.fine, space.A
    if f is None:
        f = u_H.f
    if degrees is None:
        degrees = space.degrees
    ell_of = (lambda K: ell.get(K, 0)) if isinstance(ell, dict) \
        else (lambda K: int(ell or 0))

    p_table = {int(e): compute_p_e(coarse, int(e), degrees)
               for e in coarse.interior_edge_ids}

    u_G = globalsolve.reconstruct(u_H, "interface")
    bases: dict[int, polybasis.BulkPolyBasis] = {}
    residuals: dict[int, float] = {}
    bubble_terms: dict[int, float] = {}
    element_terms: dict[int, float] = {}
    for el in coarse.elements:
        K = el.id
        M = degrees.M[K]
        lK = ell_of(K)
        f_l2, f_sob = _f_norms(fine, K, f, lK if M >= 1 else 0)
        if M >= 1:
            if M not in bases:
                bases[M] = polybasis.BulkPolyBasis(coarse.kind, M)
            basis = bases[M]
            resid = bubble_residual(fine, K, f, u_H.bubble_coeffs(K), basis) \
                if f is not None else 0.0
            ratio = el.diameter ** min(lK, M + 1) / M ** lK
            bubble_terms[K] = el.diameter**2 * ratio * resid * f_sob
        else:
            resid = f_l2
            bubble_terms[K] = el.diameter**2 * f_l2**2
        residuals[K] = resid
        s = 0.0
        for g in coarse.element_edges[K]:
            if int(g) in p_table:
                He = coarse.edges[g].length
                Ne = degrees.N[int(g)]
                s += He * el.diameter / (Ne ** (1.0 - 2.0 * eta) * p_table[int(g)])
        element_terms[K] = f_l2**2 * s

    jump_norms = dict(zip(p_table, _jump_norms(fine, list(p_table), u_G, A)))
    jump_terms = {e: coarse.edges[e].length / p_table[e] * J**2
                  for e, J in jump_norms.items()}

    S1 = sum(bubble_terms[K] for K in sorted(bubble_terms))
    S2 = sum(element_terms[K] for K in sorted(element_terms))
    S3 = sum(jump_terms[e] for e in sorted(jump_terms))
    value = float(np.sqrt(S1 + S2 + S3))
    value_gamma = float(np.sqrt(S2 + S3)) if space.n_bubble == 0 else None
    return EstimatorReport(value, value_gamma, eta, residuals, bubble_terms,
                           element_terms, jump_norms, jump_terms, p_table)


def localize(report: EstimatorReport, coarse: CoarseMesh) -> dict[int, float]:
    """Per-edge split of the interface estimator: each element term shared
    evenly among the element's interior edges, jump terms kept in place.
    Squares sum back to value_gamma^2 exactly (up to roundoff)."""
    if report.value_gamma is None:
        raise ValueError("localization applies to the bubble-free "
                         "interface estimator only")
    shares = np.zeros(len(coarse.edges))
    leftover: dict[int, float] = {}
    for el in coarse.elements:
        K = el.id
        interior = [int(g) for g in coarse.element_edges[K]
                    if not coarse.edges[g].boundary]
        if not interior:
            if report.element_terms[K]:
                leftover[K] = report.element_terms[K]
            continue
        for g in interior:
            shares[g] += report.element_terms[K] / len(interior)
    localized = {e: float(np.sqrt(report.jump_terms[e] + shares[e]))
                 for e in sorted(report.jump_terms)}
    report.localized = localized
    report.leftover_element_terms = leftover
    return localized


def effectivity_map(est_map: dict[int, float], err_map: dict[int, float]
                    ) -> tuple[dict[int, float], list[int]]:
    """Per-edge ratio of actual localized error to localized estimator.

    Returns the ratios and the list of edges where the estimator vanishes
    under a nonzero error (ratio set to inf)."""
    if set(est_map) != set(err_map):
        raise ValueError("estimator and error maps cover different edges")
    ratios: dict[int, float] = {}
    flagged: list[int] = []
    for e in sorted(est_map):
        est, err = est_map[e], err_map[e]
        if est == 0.0:
            ratios[e] = 0.0 if err == 0.0 else float("inf")
            if err != 0.0:
                flagged.append(e)
        else:
            ratios[e] = err / est
    return ratios, flagged
