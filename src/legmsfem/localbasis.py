"""Offline enrichment basis: coefficient-adapted nodal functions, edge
enrichments with internal Legendre traces, and per-element bubbles.

Every basis function is a collection of fine nodal fields, one per support
element, living on the shared fine mesh restricted to that element.  The
offline work is grouped by patch shape: every trace and every bubble load
on a patch becomes a row of its right-hand side, the patches of one shape
are lattice translates of one template (finefem.patch_groups checks it),
and one direct block-tridiagonal sweep over the template's fine-lattice
rows solves a whole chunk of them (a P1 stiffness on the structured
lattice couples only adjacent rows).  The sweep's blocks come from the
stencils of the chunk, formed in one scatter, through the template's
finefem.RowBlocks, the block layout the coarsest multigrid level uses
too.  A trace row's right-hand side -K X is formed from the full element
matrices of the triangles that touch the patch boundary only, where X is
nonzero.  Given the problem's load f, the sweep also solves one
zero-trace row with load f per patch; glued over the mesh, these rows are
the bubble part of the fine reference solution (the error report's
bubble reference), so every patch is eliminated once per run.  The
sweep's matrices carry a leading element axis, and every element and
every row is its own LAPACK or BLAS call, so a field comes out bitwise the
same whatever is solved with it.
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


@dataclass(frozen=True)
class FieldStack:
    """The fields of one batched offline solve (one patch group): row i of
    rows is the field on element[i] of the catalog entry at position
    owner[i], -1 for a row no entry uses.  Catalog values are views of
    these rows, so batched consumers index rows instead of copying."""

    rows: np.ndarray
    element: np.ndarray
    owner: np.ndarray

    def renumbered(self, position: np.ndarray) -> FieldStack:
        """The stack with each owner p moved to position[p] (-1 drops
        it)."""
        return FieldStack(self.rows, self.element, np.where(
            self.owner >= 0, position[self.owner], -1))


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


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    """The distinct values of an array of nonnegative integers, ascending.
    By hand, not np.unique: called without return arrays it asks
    np.ma.is_masked, which imports numpy.ma (about 17 ms) on every run."""
    s = np.sort(a, axis=None)
    return s[np.diff(s, prepend=-1) != 0]


def _edge_positions(fine: FineMesh, group: finefem.PatchGroup,
                    sides: np.ndarray) -> np.ndarray:
    """Template-local indices of each edge chain, in element_edges order
    (sides holds each member's edge ids), shape (sides, n_sub + 1).

    The chains must cover exactly the template boundary, so every row built
    from them is complete Dirichlet data, and every member's chains must be
    the template's shifted by the member's vertex offset."""
    t = group.template
    chains = fine.edge_vertex_chains(sides) - group.shifts[:, None, None]
    same = (chains == chains[0]).all((1, 2))
    if not same.all():
        raise ValueError(f"element {group.elements[np.argmin(same)]}: edge "
                         "chains are not a translate of those of element "
                         f"{group.elements[0]}")
    loc = np.minimum(np.searchsorted(t.vids, chains[0]), len(t.vids) - 1)
    if (not np.array_equal(t.vids[loc], chains[0])
            or not np.array_equal(_sorted_unique(loc), t.boundary_local)):
        raise ValueError(f"{t.label}: edge chains do not cover exactly "
                         "the patch boundary")
    return loc


def _trace_rows(coarse: CoarseMesh, fine: FineMesh,
                group: finefem.PatchGroup, requests: dict, n_tr: int
                ) -> np.ndarray:
    """Dirichlet rows of every member, (elements, n_tr, n): the hat at each
    requested vertex, then eta_k on each requested (edge, k), zero rows
    after.  The rows are gathered from one table on the template, written
    edge by edge in element_edges order (corner values agree)."""
    sides = np.array([coarse.element_edges[K] for K in group.elements])
    pos = _edge_positions(fine, group, sides)
    k_max = max([k for K in group.elements for _, k in requests[K][1]],
                default=1)
    corner_ids = _sorted_unique(pos[:, [0, -1]])
    # The hat row of the start and of the end of each side's chain.
    hat_row = np.searchsorted(corner_ids, pos[:, [0, -1]])
    n_hat, n_eta = len(corner_ids), len(pos) * (k_max - 1)
    table = np.zeros((n_hat + n_eta + 1, group.template.n_vertices))
    t = _edge_parameters(fine.n_sub)
    for j, loc in enumerate(pos):
        table[hat_row[j, 0], loc] = 1.0 - t
        table[hat_row[j, 1], loc] = t
        for k in range(2, k_max + 1):
            table[n_hat + j * (k_max - 1) + k - 2, loc] = _eta_trace(
                fine.n_sub, k)
    index = []
    hat_row = hat_row.ravel().tolist()
    side_ends = coarse.edge_ends[sides].reshape(len(sides), -1).tolist()
    for K, ends in zip(group.elements.tolist(), side_ends):
        hats, etas = requests[K][:2]
        corner = dict(zip(ends, hat_row))
        side = {eid: j for j, eid in enumerate(coarse.element_edges[K])}
        index.append([corner[v] for v in hats]
                     + [n_hat + side[eid] * (k_max - 1) + k - 2
                        for eid, k in etas]
                     + [len(table) - 1] * (n_tr - len(hats) - len(etas)))
    return table[np.array(index)]


def _trace_loads(Kt: np.ndarray, X: np.ndarray, tris: np.ndarray
                 ) -> np.ndarray:
    """-K X of the trace rows X (elements, rows, n), from the per-triangle
    matrices Kt (elements, nt, 3, 3) of the triangles tris (nt, 3) that
    touch the boundary, (elements, rows, n).

    Each triangle slot i gives -(K_i0 x_0 + K_i1 x_1 + K_i2 x_2), laid out
    (triangle, slot, row, element) so the element axis is the long inner
    loop, and one bincount scatters them to the vertices, each vertex
    summing its triangles in triangle order.  X vanishes off the boundary,
    so every other triangle would add only products +-0, which leave the
    sums bitwise unchanged."""
    n_el, rows, n = X.shape
    KT = np.ascontiguousarray(np.moveaxis(Kt, 0, -1))
    XT = np.ascontiguousarray(X.T)[tris]
    W = np.multiply(KT[:, :, 0, None], XT[:, None, 0])
    tmp = np.empty(W.shape)
    W += np.multiply(KT[:, :, 1, None], XT[:, None, 1], out=tmp)
    W += np.multiply(KT[:, :, 2, None], XT[:, None, 2], out=tmp)
    np.negative(W, out=W)
    return _scatter_rows(W, tris, n)


def _scatter_rows(W: np.ndarray, tris: np.ndarray, n: int) -> np.ndarray:
    """Sum W (nt, 3, rows, elements), the share of each triangle slot in
    each row, to the n vertices, (elements, rows, n), each vertex summing
    its triangles in triangle order."""
    rows, n_el = W.shape[2:]
    idx = (np.arange(n_el * rows).reshape(n_el, rows).T * n
           + tris[..., None, None])
    return np.bincount(idx.ravel(), weights=W.ravel(),
                       minlength=n_el * rows * n).reshape(n_el, rows, n)


def _load_weights(coarse: CoarseMesh, sub: finefem.PatchGroup, reqs: list,
                  n_b: int, f: finefem.RhsField | None) -> np.ndarray:
    """The P1 loads of the members of sub by the centroid rule, as the
    share area * value / 3 of each triangle, (nt, n_b + (f given),
    elements): the bulk polynomials of each member's bubbles (zero rows
    after), then f.  The polynomials are evaluated once for all members
    with the same basis and bubbles, at reference points stacked from the
    coarse mesh's affine maps."""
    glob = finefem.global_geometry(sub.fine)
    ids = sub.tri_ids
    areas = glob.areas[ids]
    out = np.zeros((ids.shape[1], n_b + (f is not None), len(ids)))
    alike: dict[tuple, list[int]] = {}
    for e, (_, _, basis, bubbles) in enumerate(reqs):
        if bubbles:
            alike.setdefault((basis, tuple(bubbles)), []).append(e)
    for (basis, bubbles), es in alike.items():
        K = sub.elements[es]
        ref = np.matmul(glob.centroids[ids[es]] - coarse.offsets[K][:, None],
                        coarse.Binv[K].transpose(0, 2, 1))
        P = basis.eval_ref(ref.reshape(-1, 2)).reshape(len(es), -1,
                                                       basis.dim)
        P = P[..., [i - 1 for i in bubbles]]
        out[:, :len(bubbles), es] = (areas[es][..., None] * P
                                     / 3.0).transpose(1, 2, 0)
    if f is not None:
        pts = glob.centroids[ids.ravel()]
        fv = np.asarray(f(pts[:, 0], pts[:, 1]), dtype=float)
        out[:, -1] = (areas * fv.reshape(ids.shape) / 3.0).T
    return out


def _group_fields(coarse: CoarseMesh, fine: FineMesh,
                  A: finefem.CoefficientField, group: finefem.PatchGroup,
                  requests: dict, f: finefem.RhsField | None = None
                  ) -> tuple[FieldStack, int, np.ndarray | None]:
    """All requested fields on the patches of one group, batched: their
    stack (owners unset), the row of the first bubble of a member within
    its block of rows and, given the load f, the zero-trace solve with
    load f on every member, (elements, n), else None.

    requests[K] = (hats, etas, basis, bubbles): the hat at each vertex of
    hats, eta_k on each (edge, k) of etas (zero on the rest of the
    boundary), then the zero-trace solve with load P_i of basis for each i
    of bubbles.  Members with fewer rows are padded with zero rows.  Every
    chunk of members is solved by one block sweep over the template's
    lattice rows, the load f riding along as one more row that is kept
    out of the stack, and each row comes out the same whatever other rows
    and members are solved with it.
    """
    t = group.template
    n, tris = t.n_vertices, t.tris
    reqs = [requests[K] for K in group.elements]
    n_tr = max(len(h) + len(e) for h, e, _, _ in reqs)
    n_b = max(len(b) for *_, b in reqs)
    m = n_tr + n_b
    m_all = m + (f is not None)
    X = np.zeros((len(group.elements), m, n))
    L = None if f is None else np.zeros((len(group.elements), n))
    if n_tr:
        X[:, :n_tr] = _trace_rows(coarse, fine, group, requests, n_tr)
    is_free = np.ones(n, dtype=bool)
    is_free[t.boundary_local] = False
    free = np.flatnonzero(is_free)
    if len(free):
        blocks = finefem.RowBlocks(t.box[1][free], t.box[0])
        edge = np.flatnonzero(~is_free[tris].all(axis=1))
        per_element = 3 * (n_tr * len(edge) + (m_all - n_tr) * len(tris))
        for sl, sub in group.chunks(max(per_element, blocks.size)):
            grads, AW = sub.weights(A)
            Xc = X[sl]
            R = np.empty((len(Xc), m_all, len(free)))
            if n_tr:
                R[:, :n_tr] = _trace_loads(
                    finefem._stiffness(grads[:, edge], AW[:, edge]),
                    Xc[:, :n_tr], tris[edge])[..., free]
            if m_all > n_tr:
                w = _load_weights(coarse, sub, reqs[sl], n_b, f)
                R[:, n_tr:] = _scatter_rows(
                    np.broadcast_to(w[:, None], (len(tris), 3) + w.shape[1:]),
                    tris, n)[..., free]
            Y = blocks.solve(blocks.factor(
                finefem.Stencil.of(t, AW, grads)), R)
            Xc[..., free] = Y[:, :m]
            if L is not None:
                L[sl, free] = Y[:, m]
    return FieldStack(X.reshape(-1, n), np.repeat(group.elements, m),
                      np.full(len(group.elements) * m, -1)), n_tr, L


def _patch_fields(coarse: CoarseMesh, fine: FineMesh,
                  A: finefem.CoefficientField, requests: dict,
                  f: finefem.RhsField | None = None
                  ) -> tuple[list[FieldStack], dict[int, tuple[int, int, int]],
                             np.ndarray | None]:
    """The stacks of _group_fields for all requested elements; for each
    element, (stack, first row, first bubble row): its traces are the rows
    from the first row on, in request order, its bubbles those from the
    first bubble row on; and, given the load f (every element must then be
    requested), the zero-trace solves with load f glued into one global
    field, else None."""
    stacks, where = [], {}
    glued = None if f is None else np.zeros(fine.n_vertices)
    for group in finefem.patch_groups(fine, requests):
        stack, n_tr, loads = _group_fields(coarse, fine, A, group, requests,
                                           f)
        m = len(stack.rows) // len(group.elements)
        for e, K in enumerate(group.elements.tolist()):
            where[K] = (len(stacks), e * m, e * m + n_tr)
        stacks.append(stack)
        if loads is not None:
            # Every member's solve is zero on its boundary, so the shared
            # skeleton vertices get zero whichever member writes last.
            glued[group.template.vids + group.shifts[:, None]] = loads
    return stacks, where, glued


def load_solves(coarse: CoarseMesh, fine: FineMesh,
                A: finefem.CoefficientField, f: finefem.RhsField
                ) -> np.ndarray:
    """The zero-trace solves with load f on every element, glued into one
    global fine field: the load rows of compute_all alone, so the field is
    bitwise the one compute_all hands back for f."""
    requests = {K: ([], [], None, []) for K in range(len(coarse.elements))}
    return _patch_fields(coarse, fine, A, requests, f)[2]


def _first_field(coarse: CoarseMesh, fine: FineMesh,
                 A: finefem.CoefficientField, requests: dict
                 ) -> dict[int, np.ndarray]:
    """The one requested field of each element of requests."""
    stacks, where, _ = _patch_fields(coarse, fine, A, requests)
    return {K: stacks[s].rows[b if requests[K][3] else a]
            for K, (s, a, b) in where.items()}


def compute_nodal(vertex: int, coarse: CoarseMesh, fine: FineMesh,
                  A: finefem.CoefficientField) -> BasisFunction:
    """Coefficient-adapted nodal function: on each element touching the
    vertex, the homogeneous solve with the hat trace on the boundary."""
    if coarse.boundary_vertex_mask[vertex]:
        raise ValueError(f"vertex {vertex} is on the domain boundary; "
                         "no basis function is attached there")
    support = tuple(sorted(coarse.vertex_elements[vertex]))
    fields = _first_field(coarse, fine, A,
                          {K: ([vertex], [], None, []) for K in support})
    values = {K: fields[K] for K in support}
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
    fields = _first_field(coarse, fine, A, {K: ([], [(edge_id, k)], None, [])
                                            for K in e.element_ids})
    values = {K: fields[K] for K in e.element_ids}
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
    field = _first_field(coarse, fine, A,
                         {elem_id: ([], [], basis, [i])})[elem_id]
    return BasisFunction("bubble", (elem_id, i), (elem_id,),
                         {elem_id: field}, "zero")


def compute_all(coarse: CoarseMesh, fine: FineMesh, A: finefem.CoefficientField,
                degrees: DegreeAssignment, which: str = "all",
                stacks: list[FieldStack] | None = None,
                f: finefem.RhsField | None = None,
                reference: list[np.ndarray] | None = None
                ) -> list[BasisFunction]:
    """Full enrichment catalog in deterministic order: nodal functions by
    vertex id, edge enrichments by (edge id, k), bubbles by (element id, i).

    which selects "interface", "bubble" or "all" (sweeps reuse the interface
    part across bubble degrees).  Each element patch is solved once, for all
    of its traces and bubble loads together, and the patches of one shape
    in batches.  A stacks list receives the field stacks that the values
    are views of, each row's owner set to its catalog position.  Given the
    load f, every patch also solves the zero-trace problem with load f in
    the same sweep, and a reference list receives those solves glued into
    one global fine field, the bubble part of the fine reference solution.
    """
    degrees.validate(coarse)
    interface = which in ("all", "interface")
    bubble = which in ("all", "bubble")
    bases: dict[int, polybasis.BulkPolyBasis] = {}
    requests: dict[int, tuple] = {}
    on_boundary = coarse.boundary_vertex_mask.tolist()
    for el in coarse.elements:
        K = el.id
        hats, etas, bubbles, basis = [], [], [], None
        if interface:
            hats = [v for v in el.vertex_ids if not on_boundary[v]]
            etas = [(eid, k) for eid in coarse.element_edges[K]
                    if not coarse.edges[eid].boundary
                    for k in range(2, degrees.N[eid] + 1)]
        M = degrees.M[K]
        if bubble and M >= 1:
            if M not in bases:
                bases[M] = polybasis.BulkPolyBasis(coarse.kind, M)
            basis = bases[M]
            bubbles = list(range(1, basis.dim + 1))
        if hats or etas or bubbles or f is not None:
            requests[K] = (hats, etas, basis, bubbles)
    # Catalog positions: nodal functions by vertex, then edge enrichments
    # by (edge, k), then bubbles in request order.
    n_nodal = len(coarse.interior_vertex_ids)
    nodal_at = np.full(coarse.n_vertices, -1)
    nodal_at[coarse.interior_vertex_ids] = np.arange(n_nodal)
    counts = [degrees.N[e] - 1 for e in coarse.interior_edge_ids.tolist()]
    edge_at = np.zeros(len(coarse.edges), dtype=int)
    edge_at[coarse.interior_edge_ids] = n_nodal + np.cumsum([0] + counts[:-1])
    n_if = n_nodal + sum(counts) if interface else 0

    nodal: dict[int, dict] = {}
    edge: dict[tuple, dict] = {}
    bubbles_out = []
    solved, where, glued = _patch_fields(coarse, fine, A, requests, f)
    # Requests run in element order, so every values dict comes out in
    # support order.
    for K, (hats, etas, _, bubbles) in requests.items():
        s, first, first_bubble = where[K]
        rows, owner = solved[s].rows, solved[s].owner
        for r, v in enumerate(hats, first):
            nodal.setdefault(v, {})[K] = rows[r]
            owner[r] = nodal_at[v]
        for r, key in enumerate(etas, first + len(hats)):
            edge.setdefault(key, {})[K] = rows[r]
            owner[r] = edge_at[key[0]] + key[1] - 2
        for r, i in enumerate(bubbles, first_bubble):
            owner[r] = n_if + len(bubbles_out)
            bubbles_out.append(BasisFunction("bubble", (K, i), (K,),
                                             {K: rows[r]}, "zero"))

    catalog = []
    if interface:
        for v in map(int, coarse.interior_vertex_ids):
            catalog.append(BasisFunction(
                "nodal", (v,), tuple(sorted(coarse.vertex_elements[v])),
                nodal[v], f"hat at vertex {v}"))
        for eid in map(int, coarse.interior_edge_ids):
            support = tuple(coarse.edges[eid].element_ids)
            for k in range(2, degrees.N[eid] + 1):
                catalog.append(BasisFunction(
                    "edge", (eid, k), support, edge[eid, k],
                    f"eta_{k} on edge {eid}"))
    if stacks is not None:
        stacks.extend(solved)
    if reference is not None and glued is not None:
        reference.append(glued)
    return catalog + bubbles_out


def dump_points(bf: BasisFunction, fine: FineMesh) -> np.ndarray:
    """(x, y, value) rows over the support, one row per fine vertex."""
    rows: dict[int, tuple[float, float, float]] = {}
    for K in bf.support:
        geom = finefem.element_geometry(fine, K)
        for g, p, val in zip(geom.vids, geom.points, bf.values[K]):
            rows[int(g)] = (float(p[0]), float(p[1]), float(val))
    return np.array([rows[g] for g in sorted(rows)])