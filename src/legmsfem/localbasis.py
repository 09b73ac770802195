"""Offline enrichment basis: coefficient-adapted nodal functions, edge
enrichments with internal Legendre traces, and per-element bubbles.

Every basis function is a collection of fine nodal fields, one per support
element, living on the shared fine mesh restricted to that element.  The
offline work is grouped by element: every trace and every bubble load on
one patch becomes a column of one right-hand side, and a single direct
block-tridiagonal sweep over the patch's fine-lattice rows solves them all
(a P1 stiffness on the structured lattice couples only adjacent rows).
Traces on coarse edges are sampled at the fine vertices of the edge chain,
always through the edge's own orientation (v0 to v1) and from one
evaluation per (n_sub, degree), so the two adjacent patches impose
bit-identical Dirichlet data and reconstructions glue exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import finefem, polybasis
from .mesh import CoarseMesh, DegreeAssignment, FineMesh


@dataclass(frozen=True)
class BasisFunction:
    """One enrichment function as per-element fine nodal fields.

    kind/key: ("nodal", (vertex,)), ("edge", (edge_id, k)) or
    ("bubble", (elem_id, i)) with i starting at 1.
    """

    kind: str
    key: tuple
    support: tuple[int, ...]
    values: dict[int, np.ndarray]
    trace: str


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=None)
def _edge_parameters(n: int) -> np.ndarray:
    # t = 0..1 along the chain; endpoints exact.
    return _readonly(np.arange(n + 1) / n)


@lru_cache(maxsize=None)
def _eta_trace(n: int, k: int) -> np.ndarray:
    """eta_k along a chain; eta_k(+-1) = 0 exactly, so corners agree."""
    return _readonly(polybasis.internal_basis_eval(
        k, -1.0 + 2.0 * _edge_parameters(n)))


def _edge_positions(coarse: CoarseMesh, fine: FineMesh,
                    geom: finefem.TriGeometry, elem_id: int
                    ) -> list[np.ndarray]:
    """Local patch indices of each edge chain, in element_edges order.

    The chains must cover exactly the patch boundary, so every column built
    from them is complete Dirichlet data."""
    chains = [fine.edge_vertex_chain(eid)
              for eid in coarse.element_edges[elem_id]]
    gids = np.concatenate(chains)
    loc = np.minimum(np.searchsorted(geom.vids, gids), len(geom.vids) - 1)
    if (not np.array_equal(geom.vids[loc], gids)
            or not np.array_equal(np.unique(loc), geom.boundary_local)):
        raise ValueError(f"{geom.label}: edge chains do not cover exactly "
                         "the patch boundary")
    ends = np.cumsum([len(c) for c in chains])
    return [loc[e - len(c):e] for e, c in zip(ends, chains)]


def _row_blocks(fine: FineMesh, geom: finefem.TriGeometry, Kt: np.ndarray,
                is_free: np.ndarray) -> tuple[list, list, np.ndarray]:
    """K_ff as dense lattice-row blocks, built from the per-triangle
    matrices Kt.

    Returns (D, E, widths): D[i] couples free row block i with itself,
    E[i] couples block i with block i-1 (E[0] is empty), widths[i] is the
    number of free vertices in block i.  Free vertices are in local order,
    which is lattice-row-major because vids are sorted.
    """
    n = geom.n_vertices
    row = geom.vids // (fine.nfx + 1)
    free = np.flatnonzero(is_free)
    starts = np.flatnonzero(np.diff(row[free], prepend=-1))
    widths = np.diff(np.append(starts, len(free)))
    blk = np.zeros(n, dtype=int)
    pos = np.zeros(n, dtype=int)
    blk[free] = np.repeat(np.arange(len(widths)), widths)
    pos[free] = np.arange(len(free)) - starts[blk[free]]
    prev = np.concatenate([[0], widths[:-1]])
    d_size = widths * widths
    d_off = np.concatenate([[0], np.cumsum(d_size + widths * prev)[:-1]])

    # Entry (t, i, j) couples vertex a = tris[t, i] with b = tris[t, j].
    r, f = row[geom.tris], is_free[geom.tris]
    gap = r[:, :, None] - r[:, None, :]
    both = f[:, :, None] & f[:, None, :]
    if np.any(both & (np.abs(gap) > 1)):
        raise ValueError(f"{geom.label}: stiffness couples fine-lattice rows "
                         "that are not adjacent")
    # Only the lower blocks are stored; the upper ones are their transposes.
    # Adjacent free rows are adjacent blocks, so gap is also the block gap.
    keep = both & (gap >= 0)
    ba = blk[geom.tris][:, :, None]
    flat = (d_off[ba] + gap * d_size[ba]
            + pos[geom.tris][:, :, None] * widths.take(ba - gap, mode="clip")
            + pos[geom.tris][:, None, :])
    data = np.bincount(flat[keep], weights=Kt[keep],
                       minlength=int(d_off[-1] + d_size[-1]
                                     + widths[-1] * prev[-1]))
    D, E = [], []
    for o, w, p in zip(d_off, widths, prev):
        D.append(data[o:o + w * w].reshape(w, w))
        E.append(data[o + w * w:o + w * (w + p)].reshape(w, p))
    return D, E, widths


def _matvecs(M: np.ndarray, V: np.ndarray) -> np.ndarray:
    """M @ v for each row v of V as separate matrix-vector products.

    A BLAS matrix-matrix product can round a column differently depending
    on how many columns ride along; one product per field keeps every basis
    function bitwise independent of what else its patch solves, so sweeps
    that reuse a donor space match fresh runs exactly."""
    return np.matmul(M, V[:, :, None])[:, :, 0]


def _block_tridiagonal_solve(D: list, E: list, R: list) -> list:
    """Solve the SPD block-tridiagonal system with diagonal blocks D[i],
    sub-diagonal blocks E[i] (block i against block i-1) for a stack of
    right-hand sides: R[i] has shape (fields, len(D[i])).

    Block elimination from the first row down, then back substitution up
    (Golub & Van Loan, block tridiagonal systems).  The Schur complements
    depend only on the matrix; the fields go through _matvecs."""
    nb = len(D)
    S_inv: list = [None] * nb
    G: list = [None] * nb  # S_i^{-1} E[i+1]^T
    S = D[0]
    for i in range(nb):
        S_inv[i] = np.linalg.inv(S)
        if i + 1 < nb:
            G[i] = S_inv[i] @ E[i + 1].T
            S = D[i + 1] - E[i + 1] @ G[i]
    g = [_matvecs(S_inv[0], R[0])]
    for i in range(1, nb):
        g.append(_matvecs(S_inv[i], R[i] - _matvecs(E[i], g[-1])))
    x = [g[-1]]
    for i in range(nb - 2, -1, -1):
        x.append(g[i] - _matvecs(G[i], x[-1]))
    return x[::-1]


def _element_fields(coarse: CoarseMesh, fine: FineMesh,
                    A: finefem.CoefficientField, elem_id: int,
                    hats=(), etas=(), basis: polybasis.BulkPolyBasis | None = None,
                    bubbles=()) -> np.ndarray:
    """All requested local fields on one element patch, one row each.

    Row order: the hat at each vertex of hats, eta_k on each (edge, k) of
    etas (zero on the rest of the boundary), then the zero-trace solve with
    load P_i of basis for each i of bubbles.  All rows are solved by one
    block sweep over the patch's lattice rows, and each row comes out the
    same whatever other rows are requested with it.
    """
    geom = finefem.element_geometry(fine, elem_id)
    n, n_tr = geom.n_vertices, len(hats) + len(etas)
    m = n_tr + len(bubbles)
    X = np.zeros((m, n))
    if n_tr:
        t = _edge_parameters(fine.n_sub)
        positions = _edge_positions(coarse, fine, geom, elem_id)
        # Written edge by edge in element_edges order; corner values agree.
        for eid, loc in zip(coarse.element_edges[elem_id], positions):
            e = coarse.edges[eid]
            for c, v in enumerate(hats):
                if v == e.v0:
                    X[c, loc] = 1.0 - t
                elif v == e.v1:
                    X[c, loc] = t
            for c, (edge, k) in enumerate(etas, start=len(hats)):
                if edge == eid:
                    X[c, loc] = _eta_trace(fine.n_sub, k)

    is_free = np.ones(n, dtype=bool)
    is_free[geom.boundary_local] = False
    free = np.flatnonzero(is_free)
    if not len(free) or not m:
        return X
    Kt = geom.element_matrices(A)
    # Right-hand sides F - K X, per triangle in a fixed order, then
    # scattered to the vertices in one pass.
    W = np.empty((m, len(geom.tris), 3))
    Xt = X[:n_tr, geom.tris]
    W[:n_tr] = -(Kt[:, :, 0] * Xt[:, :, 0, None] + Kt[:, :, 1] * Xt[:, :, 1, None]
                 + Kt[:, :, 2] * Xt[:, :, 2, None])
    if bubbles:
        el = coarse.elements[elem_id]
        P = basis.eval_ref(el.to_ref(geom.centroids))[:, [i - 1 for i in bubbles]]
        W[n_tr:] = (geom.areas[:, None] * P / 3.0).T[:, :, None]
    idx = np.arange(m)[:, None, None] * n + geom.tris
    R = np.bincount(idx.ravel(), weights=W.ravel(),
                    minlength=m * n).reshape(m, n)[:, free]
    D, E, widths = _row_blocks(fine, geom, Kt, is_free)
    ends = np.cumsum(widths)
    X[:, free] = np.concatenate(_block_tridiagonal_solve(
        D, E, [R[:, e - w:e] for e, w in zip(ends, widths)]), axis=1)
    return X


def compute_nodal(vertex: int, coarse: CoarseMesh, fine: FineMesh,
                  A: finefem.CoefficientField) -> BasisFunction:
    """Coefficient-adapted nodal function: on each element touching the
    vertex, the homogeneous solve with the hat trace on the boundary."""
    if coarse.boundary_vertex_mask[vertex]:
        raise ValueError(f"vertex {vertex} is on the domain boundary; "
                         "no basis function is attached there")
    support = tuple(sorted(coarse.vertex_elements[vertex]))
    values = {K: _element_fields(coarse, fine, A, K, hats=[vertex])[0]
              for K in support}
    return BasisFunction("nodal", (vertex,), support, values,
                         f"hat at vertex {vertex}")


def compute_edge_enrichment(edge_id: int, k: int, coarse: CoarseMesh,
                            fine: FineMesh, A: finefem.CoefficientField
                            ) -> BasisFunction:
    """Edge enrichment: homogeneous solves on the two elements sharing the
    edge, trace eta_k on the edge and zero elsewhere."""
    e = coarse.edges[edge_id]
    if e.boundary:
        raise ValueError(f"edge {edge_id} is a boundary edge")
    if k < 2:
        raise ValueError("edge enrichment degrees start at 2")
    values = {K: _element_fields(coarse, fine, A, K, etas=[(edge_id, k)])[0]
              for K in e.element_ids}
    return BasisFunction("edge", (edge_id, k), tuple(e.element_ids), values,
                         f"eta_{k} on edge {edge_id}")


def compute_bubble(elem_id: int, i: int, coarse: CoarseMesh, fine: FineMesh,
                   A: finefem.CoefficientField, basis: polybasis.BulkPolyBasis
                   ) -> BasisFunction:
    """Bubble enrichment: zero-trace solve on one element with the i-th bulk
    polynomial (mapped from reference coordinates) as right-hand side."""
    if basis.M < 1:
        raise ValueError("bubbles need bulk degree M >= 1")
    if not 1 <= i <= basis.dim:
        raise ValueError(f"bubble index {i} outside 1..{basis.dim}")
    field = _element_fields(coarse, fine, A, elem_id, basis=basis,
                            bubbles=[i])[0]
    return BasisFunction("bubble", (elem_id, i), (elem_id,),
                         {elem_id: field}, "zero")


def compute_all(coarse: CoarseMesh, fine: FineMesh, A: finefem.CoefficientField,
                degrees: DegreeAssignment, which: str = "all"
                ) -> list[BasisFunction]:
    """Full enrichment catalog in deterministic order: nodal functions by
    vertex id, edge enrichments by (edge id, k), bubbles by (element id, i).

    which selects "interface", "bubble" or "all" (sweeps reuse the interface
    part across bubble degrees).  Each element patch is solved once, for all
    of its traces and bubble loads together.
    """
    degrees.validate(coarse)
    interface = which in ("all", "interface")
    bubble = which in ("all", "bubble")
    bases: dict[int, polybasis.BulkPolyBasis] = {}
    rows: dict[tuple, np.ndarray] = {}
    bubbles_out = []
    for el in coarse.elements:
        K = el.id
        hats, etas, bubbles, basis = [], [], [], None
        if interface:
            hats = [v for v in el.vertex_ids
                    if not coarse.boundary_vertex_mask[v]]
            etas = [(eid, k) for eid in coarse.element_edges[K]
                    if not coarse.edges[eid].boundary
                    for k in range(2, degrees.N[eid] + 1)]
        M = degrees.M[K]
        if bubble and M >= 1:
            basis = bases.setdefault(M, polybasis.BulkPolyBasis(coarse.kind, M))
            bubbles = list(range(1, basis.dim + 1))
        if not (hats or etas or bubbles):
            continue
        fields = _element_fields(coarse, fine, A, K, hats, etas, basis,
                                 bubbles)
        for v, field in zip(hats, fields):
            rows["nodal", v, K] = field
        for key, field in zip(etas, fields[len(hats):]):
            rows["edge", key, K] = field
        for i, field in zip(bubbles, fields[len(hats) + len(etas):]):
            bubbles_out.append(BasisFunction("bubble", (K, i), (K,),
                                             {K: field}, "zero"))

    catalog = []
    if interface:
        for v in map(int, coarse.interior_vertex_ids):
            support = tuple(sorted(coarse.vertex_elements[v]))
            catalog.append(BasisFunction(
                "nodal", (v,), support,
                {K: rows["nodal", v, K] for K in support},
                f"hat at vertex {v}"))
        for eid in map(int, coarse.interior_edge_ids):
            support = tuple(coarse.edges[eid].element_ids)
            for k in range(2, degrees.N[eid] + 1):
                catalog.append(BasisFunction(
                    "edge", (eid, k), support,
                    {K: rows["edge", (eid, k), K] for K in support},
                    f"eta_{k} on edge {eid}"))
    return catalog + bubbles_out


def dump_points(bf: BasisFunction, fine: FineMesh) -> np.ndarray:
    """(x, y, value) rows over the support, one row per fine vertex."""
    rows: dict[int, tuple[float, float, float]] = {}
    for K in bf.support:
        geom = finefem.element_geometry(fine, K)
        for g, p, val in zip(geom.vids, geom.points, bf.values[K]):
            rows[int(g)] = (float(p[0]), float(p[1]), float(val))
    return np.array([rows[g] for g in sorted(rows)])