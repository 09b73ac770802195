"""Residue-type a posteriori estimator and its per-edge localization.

Three ingredients per run: an element residual term driven by how well the
bubble right-hand sides capture f (with bulk degree 0 it degenerates to
H_K^2 ||f||^2), an element term weighted by the edge degrees through
H_e H_K / (N_e^(1-2 eta) p_e), and flux-jump terms of the interface part
across interior edges.  The reported value is the square root of the sum;
the unknown analytic prefactor is taken as 1, so absolute reliability is a
matter of one calibrated constant while trends and localization are exact.

Every term is an array pass over all elements or all interior edges, with
no loop over either: p_e is a min-reduction over the coarse side tables
(CoarseMesh.element_edge_ids and edge_element_ids); f enters through one
pass per patch group over its members' windows of the run's one
evaluation of f, chunk by chunk, which gives every element's ||f||, the
H^1 term of its smoothness and its bubble residual ||f - sum_i c_i P_i||,
with one bulk-basis evaluation per degree and chunk; and the jumps take
one lookup of the fine segments of all edges.

The divergence of the discrete bubble part is evaluated through the
defining property of the bubble functions (their negative flux divergence
is the bulk polynomial), not by differentiating P1 fields twice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import finefem, globalsolve, localbasis, polybasis
from .mesh import CoarseMesh, DegreeAssignment, FineMesh


@dataclass
class EstimatorReport:
    """Global estimator value with its per-element and per-edge pieces.

    bubble_terms/element_terms/jump_terms are the squared summands of the
    three sums; element_residuals and jump_norms are the raw norms.  The
    element arrays are indexed by element id, the edge arrays (jump_norms,
    jump_terms, p_table) by edge id, zero on boundary edges.  localized
    (set by localize) holds the per-edge values over the interior edges
    whose squares sum back to value_gamma^2, leftover_element_terms the
    unattributable element shares (nonzero only on elements without
    interior edges).
    """

    value: float
    value_gamma: float | None
    eta: float
    element_residuals: np.ndarray
    bubble_terms: np.ndarray
    element_terms: np.ndarray
    jump_norms: np.ndarray
    jump_terms: np.ndarray
    p_table: np.ndarray
    localized: np.ndarray | None = None
    leftover_element_terms: np.ndarray | None = None


def _p_values(coarse: CoarseMesh, edge_ids, degrees: DegreeAssignment
              ) -> np.ndarray:
    """p_e of each interior edge of edge_ids: the minimum of the edge
    degrees over the interior sides of the edge's two elements, by
    min-reductions over the side tables."""
    sides = coarse.element_edge_ids[coarse.edge_element_ids[edge_ids]]
    N = np.where(coarse.edge_element_ids[:, 1] >= 0, degrees.N,
                 np.iinfo(int).max)
    return N[sides].min(axis=(-2, -1))


def jump_norm(fine: FineMesh, edge_id: int, v: finefem.FineFunction,
              A: finefem.Field) -> float:
    """L2 norm over the edge of the normal-flux jump of a fine P1 field;
    ValueError unless v is on the global fine mesh and the edge interior."""
    return _jump_norms(fine, [edge_id], v, A)[0]


def _jump_norms(fine: FineMesh, edge_ids, v: finefem.FineFunction,
                A: finefem.Field) -> list[float]:
    """jump_norm for each of edge_ids in one array pass.

    Per fine segment the gradient is constant on each side, from the
    gradient pattern of a lower or an upper lattice triangle
    (finefem.cell_gradients), and A is taken at the segment midpoint;
    sides are ordered lower-id element first (the sign squares away).
    """
    geom = finefem.global_geometry(fine)
    if v.geom is not geom:
        raise ValueError("jump norms need the field on the global fine mesh")
    if not len(edge_ids):
        return []
    tris = fine.edge_segment_triangles(edge_ids).reshape(-1, 2)
    chains = fine.edge_vertex_chains(edge_ids)
    pa = geom.points[chains[:, :-1].ravel()]
    pb = geom.points[chains[:, 1:].ravel()]
    d = pb - pa
    L = np.hypot(d[:, 0], d[:, 1])
    nu = np.column_stack([d[:, 1], -d[:, 0]]) / L[:, None]
    Anu = A.at(0.5 * (pa + pb))[:, None] * nu
    # Triangle 2c of lattice cell c is its lower one (SW, SE, NE), 2c + 1
    # the upper (SW, NE, NW); sw is the cell's SW vertex.
    upper, sw = tris % 2, tris // 2 + tris // (2 * fine.nfx)
    corners = np.array([[0, 1, fine.nfx + 2], [0, fine.nfx + 2, fine.nfx + 1]])
    grad = np.einsum("sti,stid->std", v.values[sw[..., None] + corners[upper]],
                     finefem.cell_gradients(geom.spacing)[upper])
    flux = np.einsum("std,sd->st", grad, Anu)
    acc = np.bincount(np.repeat(np.arange(len(chains)), fine.n_sub),
                      L * (flux[:, 0] - flux[:, 1]) ** 2)
    return np.sqrt(acc).tolist()


def _load_terms(u_H: globalsolve.CoarseSolution, ell: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(||f||_{L2(K)}, ||f||_{H^ell(K)}, ||f - sum_i c_i P_i||_{L2(K)}) of
    every element K by fine quadrature, ell in {0, 1} per element (1 needs
    f.grad), f the load of the solution's space and the c_i the bubble
    coefficients of K, so the last is ||f|| where M = 0.  One pass per
    patch group over its members' windows of the one evaluation of f
    (PatchGroup.windows), chunk by chunk: each element's squares add up
    triangle by triangle in the template's order, which is the order of
    the fine mesh.  f.grad is evaluated at the chunk's centroids
    (PatchGroup.cells) where ell = 1 asks for it, and the bulk basis of
    each degree once per chunk, at the reference centroids of the chunk's
    first member alone, which every member of the chunk shares."""
    space = u_H.space
    coarse, fine, M, f = space.coarse, space.fine, space.degrees.M, space.f
    n = coarse.n_elements
    bad = (ell != 0) & ((ell != 1) | (f.grad is None))
    if bad.any():
        if ell[np.argmax(bad)] != 1:
            raise ValueError("f smoothness above 1 is not supported")
        raise ValueError("smoothness 1 declared but f has no gradient")
    bubble = space.dofs.kind == localbasis.BUBBLE
    K, i = space.dofs.key[bubble].T
    C = np.zeros((n, i.max(initial=0)))  # the bubble coefficients by (K, i)
    C[K, i - 1] = u_H.coeffs[bubble]
    bases = {m: polybasis.BulkPolyBasis(coarse.kind, m)
             for m in sorted(set(M[M >= 1].tolist()))}
    l2sq, h1sq, rsq = np.zeros(n), np.zeros(n), np.zeros(n)
    area = 0.5 * (fine.hx * fine.hy)
    for group in finefem.patch_groups(fine, np.arange(n)):
        mask = group.template.mask
        for _, sub in group.chunks(24 * group.template.n_vertices):
            E = sub.elements
            W = sub.windows(f)
            fv = W.reshape(len(E), -1) if mask is None else W[:, mask]
            member = np.repeat(np.arange(len(E)), fv.shape[1])
            l2sq[E] = np.bincount(member, area * fv.ravel()**2, len(E))
            if ell[E].any():
                pts = sub.cells()[1].reshape(-1, 2)
                gx, gy = f.grad(pts[:, 0], pts[:, 1])
                h1sq[E] = np.bincount(member, area * (np.asarray(gx)**2
                                                      + np.asarray(gy)**2),
                                      len(E))
            _, c = sub.take(slice(1)).cells()
            ref = (c[0] - coarse.offsets[E[0]]) @ coarse.Binv[E[0]].T
            for m in sorted(set(M[E].tolist()) & set(bases)):
                at = M[E] == m
                P = bases[m].eval_ref(ref)
                r = fv[at] - C[E[at], :P.shape[1]] @ P.T
                rsq[E[at]] = area * np.einsum("et,et->e", r, r)
    f_l2 = np.sqrt(l2sq)
    return (f_l2, np.where(ell == 1, np.sqrt(l2sq + h1sq), f_l2),
            np.where(M >= 1, np.sqrt(rsq), f_l2))


def global_estimate(u_H: globalsolve.CoarseSolution, eta: float = 0.0,
                    ell: int | dict[int, int] | None = None
                    ) -> EstimatorReport:
    """Assemble the estimator for a solved coarse solution with its own
    load and degrees, every term for all elements or all interior edges
    at once.

    ell declares the smoothness of f per element (int for uniform, dict
    with default 0).  The jumps are those of CoarseSolution.interface.
    """
    space = u_H.space
    coarse, fine, A = space.coarse, space.fine, space.A
    degrees = space.degrees
    n = coarse.n_elements
    M = degrees.M
    if isinstance(ell, dict):
        ell_K = np.array([ell.get(K, 0) for K in range(n)])
    else:
        ell_K = np.full(n, int(ell or 0))
    H = coarse.diameters

    edges = coarse.interior_edge_ids
    p = _p_values(coarse, edges, degrees)
    u_G = u_H.interface

    # Residual terms: with bubbles H^2 (H^min(l, M+1) / M^l) r ||f||_{H^l},
    # without H^2 ||f||^2.
    bubbly = M >= 1
    f_l2, f_sob, residuals = _load_terms(u_H, np.where(bubbly, ell_K, 0))
    bubble_terms = H**2 * f_l2**2
    if bubbly.any():
        Hb, Mb, lb = H[bubbly], M[bubbly], ell_K[bubbly]
        ratio = Hb ** np.minimum(lb, Mb + 1) / Mb.astype(float) ** lb
        bubble_terms[bubbly] = (Hb**2 * ratio * residuals[bubbly]
                                * f_sob[bubbly])

    # Element terms: f_l2^2 times the sum over the element's interior sides
    # of H_e H_K / (N_e^(1-2 eta) p_e), side by side.
    denom = np.full(coarse.n_edges, np.inf)  # no term on the boundary
    denom[edges] = degrees.N[edges].astype(float) ** (1.0 - 2.0 * eta) * p
    s = np.zeros(n)
    for side in coarse.element_edge_ids.T:
        s += coarse.edge_lengths[side] * H / denom[side]
    element_terms = f_l2**2 * s

    J = np.array(_jump_norms(fine, edges, u_G, A))
    jump_terms = coarse.edge_lengths[edges] / p * J**2

    S1, S2, S3 = (sum(t.tolist()) for t in (bubble_terms, element_terms,
                                              jump_terms))
    value = float(np.sqrt(S1 + S2 + S3))
    value_gamma = float(np.sqrt(S2 + S3)) if space.n_bubble == 0 else None

    def per_edge(a):
        out = np.zeros(coarse.n_edges, dtype=a.dtype)
        out[edges] = a
        return out

    return EstimatorReport(value, value_gamma, eta, residuals, bubble_terms,
                           element_terms, per_edge(J), per_edge(jump_terms),
                           per_edge(p))


def localize(report: EstimatorReport, coarse: CoarseMesh) -> np.ndarray:
    """Per-edge split of the interface estimator over the interior edges:
    each element term shared evenly among the element's interior edges,
    jump terms kept in place.  Squares sum back to value_gamma^2 exactly
    (up to roundoff)."""
    if report.value_gamma is None:
        raise ValueError("localization applies to the bubble-free "
                         "interface estimator only")
    terms = report.element_terms
    sides = coarse.element_edge_ids
    interior = coarse.edge_element_ids[sides, 1] >= 0
    count = interior.sum(axis=1)
    # Element by element, side by side, as the shares add up in a loop.
    share = terms / np.maximum(count, 1)
    shares = np.bincount(sides[interior], np.broadcast_to(
        share[:, None], sides.shape)[interior], coarse.n_edges)
    edges = coarse.interior_edge_ids
    report.localized = np.sqrt(report.jump_terms[edges] + shares[edges])
    report.leftover_element_terms = np.where(count == 0, terms, 0.0)
    return report.localized


def effectivity_map(est_map: np.ndarray, err_map: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Per-edge ratio of actual localized error to localized estimator,
    both over the same edges.

    Returns the ratios and the positions where the estimator vanishes
    under a nonzero error (ratio set to inf)."""
    est, err = np.asarray(est_map), np.asarray(err_map)
    if est.shape != err.shape:
        raise ValueError("estimator and error maps cover different edges")
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(est == 0.0, np.where(err == 0.0, 0.0, np.inf),
                          err / est)
    return ratios, np.flatnonzero((est == 0.0) & (err != 0.0))
