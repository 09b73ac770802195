"""Shared fixtures: meshes and solved runs reused across test modules.

Everything here is deterministic, so session scope is safe; tests only
read from these objects (geometry caches fill in lazily, which is fine).
"""

import copy

import numpy as np
import pytest

from legmsfem import cli, finefem, localbasis, mesh, multigrid, polybasis


@pytest.fixture(scope="session")
def quad44():
    return mesh.build_coarse("quad", 4, 4)


@pytest.fixture(scope="session")
def tri44():
    return mesh.build_coarse("triangle", 4, 4)


@pytest.fixture(scope="session")
def fine_quad44(quad44):
    return mesh.refine_to_fine(quad44, 8)


@pytest.fixture(scope="session")
def fine_tri44(tri44):
    return mesh.refine_to_fine(tri44, 8)


@pytest.fixture(scope="session")
def small_bench():
    """Resolved periodic problem at desk scale: eps=1/4, 4x4 quads,
    fine cell 1/32 = eps/8."""
    cfg = cli.RunConfig.from_dict({
        "schema": 1, "kind": "quad", "nx": 4, "ny": 4, "n_sub": 8,
        "coefficient": {"type": "periodic_benchmark", "eps": 0.25},
        "rhs": {"type": "constant", "value": -1.0}, "N": 2, "M": 0})
    return cli.run_single(cfg)


@pytest.fixture(scope="session")
def small_bench_bubbles():
    cfg = cli.RunConfig.from_dict({
        "schema": 1, "kind": "quad", "nx": 4, "ny": 4, "n_sub": 8,
        "coefficient": {"type": "periodic_benchmark", "eps": 0.25},
        "rhs": {"type": "constant", "value": -1.0}, "N": 2, "M": 1})
    return cli.run_single(cfg)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260819)


@pytest.fixture
def pcg_iters(monkeypatch):
    """The iteration count of every finefem.pcg call the test makes, in
    order, read from pcg's return value (as perfbench/traced.py reads it),
    so also those of the calls inside finefem.solve_spd."""
    iters = []
    real = finefem.pcg

    def recorded(*args, **kw):
        x, it = real(*args, **kw)
        iters.append(it)
        return x, it

    monkeypatch.setattr(finefem, "pcg", recorded)
    return iters


def dense(op) -> np.ndarray:
    """A matrix-free operator (a fine lattice stencil or the interface
    operator) as a dense matrix, one product per unit column."""
    return np.column_stack([op @ e for e in np.eye(op.shape[1])])


def skeleton_geometry(fine) -> finefem.TriGeometry:
    """The global fine mesh with every fine vertex of the coarse skeleton
    (all coarse edges, the domain boundary included) fixed: a shallow copy
    of the global geometry, sharing its arrays and its store (the held
    evaluations, the stencil and the load vector).  Its one fine solve is the bubble reference as first
    defined; the multigrid tests use it for a fixed set off the domain
    boundary."""
    geom = copy.copy(finefem.global_geometry(fine))
    chains = fine.edge_vertex_chains(np.arange(fine.coarse.n_edges))
    geom.boundary_local = np.unique(chains)
    geom.label = "fine mesh with the coarse skeleton fixed"
    return geom


def fourier_poisson_center(terms: int = 400) -> float:
    """Series value at the center of the unit square for -lap v = 1."""
    s = 0.0
    for m in range(1, terms, 2):
        for n in range(1, terms, 2):
            s += (16.0 / (np.pi**4 * m * n * (m * m + n * n))
                  * np.sin(m * np.pi / 2) * np.sin(n * np.pi / 2))
    return s


def fourier_poisson_integral(terms: int = 800) -> float:
    """Series value of the integral of v for -lap v = 1."""
    s = 0.0
    for m in range(1, terms, 2):
        for n in range(1, terms, 2):
            s += 64.0 / (np.pi**6 * m * m * n * n * (m * m + n * n))
    return s


def edge_vertex_chain(fine, edge_id) -> np.ndarray:
    """Fine vertex ids along one coarse edge, ordered from v0 to v1, walked
    lattice step by lattice step: the per-edge method that the array
    FineMesh.edge_vertex_chains replaced, kept as reference."""
    v0, v1 = fine.coarse.edge_ends[edge_id].tolist()
    nx1, ns = fine.coarse.nx + 1, fine.n_sub
    (ax, ay), (bx, by) = divmod(v0, nx1)[::-1], divmod(v1, nx1)[::-1]
    return np.array([(ay * ns + t * (by - ay)) * (fine.nfx + 1)
                     + ax * ns + t * (bx - ax) for t in range(ns + 1)])


def table_pairs(table) -> list[tuple[int, int, np.ndarray]]:
    """(element, DOF, field) of every (element, DOF) pair of a
    localbasis.DofTable, sorted by element, then DOF, read from the field
    stack of the element's patch group."""
    return sorted(((K, d, part.stack[part.rows[e, i]])
                   for group, *parts in table.groups for part in parts
                   for e, K in enumerate(group.elements.tolist())
                   for i, d in enumerate(part.dofs[e].tolist()) if d >= 0),
                  key=lambda pair: pair[:2])


def table_fields(table, dof) -> dict:
    """{element: field} of one DOF of a localbasis.DofTable, by element."""
    fields = {}
    for group, *parts in table.groups:
        for part in parts:
            for e, i in zip(*np.nonzero(part.dofs == dof)):
                fields[int(group.elements[e])] = part.stack[part.rows[e, i]]
    return dict(sorted(fields.items()))


def space_fields(space, dof) -> dict:
    """{element: field} of one DOF of an enriched space."""
    return table_fields(space.dofs, dof)


def triangle_cells(geom) -> tuple[np.ndarray, np.ndarray]:
    """(areas, centroids) of the triangles of geom, (nt,) and (nt, 2),
    formed from its lattice cells: the one area of the lattice at each."""
    area, centroids = finefem.lattice_cells(geom.x, geom.y, geom.spacing)
    centroids = geom.on_mask(centroids)
    return np.full(len(centroids), area), centroids


def free_vertices(geom) -> np.ndarray:
    """The boolean mask of the vertices off geom.boundary_local: the
    unknowns of finefem.assemble's system, in order."""
    free = np.ones(geom.n_vertices, dtype=bool)
    free[geom.boundary_local] = False
    return free


def element_dofs(space) -> list[list[int]]:
    """The DOFs of each element of a space, ascending."""
    dofs = [[] for _ in range(space.coarse.n_elements)]
    for K, d, _ in table_pairs(space.dofs):
        dofs[K].append(d)
    return dofs


def to_ref(coarse, elem_id, x) -> np.ndarray:
    """Reference coordinates of the points x of one coarse element: the
    inverse of its affine map x = B @ xhat + offset."""
    return (np.asarray(x) - coarse.offsets[elem_id]) @ coarse.Binv[elem_id].T


def from_ref(coarse, elem_id, xhat) -> np.ndarray:
    """Physical coordinates of the reference points xhat of one element."""
    return np.asarray(xhat) @ coarse.B[elem_id].T + coarse.offsets[elem_id]


def edge_elements(coarse, edge_id) -> tuple[int, ...]:
    """The elements of one coarse edge, ascending: one on the boundary."""
    return tuple(K for K in coarse.edge_element_ids[edge_id].tolist()
                 if K >= 0)


def is_boundary_edge(coarse, edge_id) -> bool:
    return bool(coarse.edge_element_ids[edge_id, 1] < 0)


def element_vertex_ids(fine, elem_id) -> np.ndarray:
    """Sorted global fine vertex ids of the closed element patch: its
    shape's pattern at the element's origin."""
    return (fine.shape_pattern(fine.patch_shape(elem_id))[0]
            + fine.element_origin(elem_id))


def element_boundary_vertex_ids(fine, elem_id) -> np.ndarray:
    """Fine vertices on the boundary of an element patch, sorted: its
    shape's boundary pattern at the element's origin."""
    return (fine.shape_pattern(fine.patch_shape(elem_id))[1]
            + fine.element_origin(elem_id))


def energy_products(V, geom, A, W) -> np.ndarray:
    """a(V_i, W_j) = V_i^T K W_j of two stacks of nodal-value rows over one
    geometry, K = geom.stencil(A) applied to one row of W at a time and
    each entry summed over the vertices by finefem.dot: the two-stack form
    of finefem.energy_inner_matrix, kept as reference."""
    st = geom.stencil(A)
    KW = [geom.from_box(st.apply_full(geom.to_box(w)))
          for w in np.atleast_2d(W)]
    return np.array([[finefem.dot(v, Kw) for v in np.atleast_2d(V)]
                     for Kw in KW]).T


def energy_inner(v, w, A) -> float:
    """a(v, w) = integral of (grad v)^T A grad w of two fine functions on
    one geometry."""
    if v.geom is not w.geom:
        raise ValueError("energy_inner: functions live on different meshes "
                         f"({v.geom.label} vs {w.geom.label})")
    return float(energy_products(v.values, v.geom, A, w.values)[0, 0])


def bubble_residual(fine, elem_id, f, coeffs, basis) -> float:
    """||f - sum_i c_i P_i||_{L2(K)} by fine quadrature on one element;
    with no bubble coefficients (basis None) ||f||_{L2(K)}: the
    per-element form of the estimator's bubble residuals, kept as
    reference."""
    geom = finefem.element_geometry(fine, elem_id)
    w, pts = triangle_cells(geom)
    fv = f.at(pts)
    if basis is not None and len(coeffs):
        fv = fv - (basis.eval_ref(to_ref(fine.coarse, elem_id, pts))
                   @ np.asarray(coeffs))
    return float(np.sqrt(w @ fv**2))


def bubble_coeffs(solution, elem_id) -> np.ndarray:
    """Bubble coefficients of one element of a coarse solution, in bulk
    basis order."""
    t = solution.space.dofs
    return solution.coeffs[(t.kind == localbasis.BUBBLE)
                           & (t.key[:, 0] == elem_id)]


def vertex_elements(coarse, v) -> list[int]:
    """The elements around a coarse vertex, ascending."""
    return np.flatnonzero((coarse.element_vertices == v).any(axis=1)).tolist()


def vertex_edges(coarse, v) -> list[int]:
    """The edges at a coarse vertex, ascending."""
    return np.flatnonzero((coarse.edge_ends == v).any(axis=1)).tolist()


def contrast_field():
    """A second scalar coefficient, with another pattern than the periodic
    benchmark and a contrast of 100: 100 on the cells of a 5-by-3
    checkerboard whose indices sum to an even number, 1 on the others.
    Test ids still call its cases "anisotropic", after the full-tensor
    field they ran before the coefficient became scalar."""

    def fn(x, y):
        even = (np.floor(5 * x) + np.floor(3 * y)) % 2 == 0
        return np.where(even, 100.0, 1.0)

    return finefem.Field("contrast", fn, (1.0, 100.0))


def tensor(w) -> np.ndarray:
    """Per-triangle scalars w (...) as the tensors w I, (..., 2, 2): the
    form the per-triangle reference code below takes its coefficients
    in."""
    return np.asarray(w)[..., None, None] * np.eye(2)


def dense_factor(D, E):
    """Block elimination with dense sub-diagonal blocks E[i] (elements, w,
    p), every product a matmul: the elimination of multigrid.RowBlocks
    before its blocks became stencil couplings, kept as reference."""
    nb = len(D)
    S_inv, G = [None] * nb, [None] * nb
    S = D[0]
    for i in range(nb):
        S_inv[i] = np.linalg.inv(S)
        if i + 1 < nb:
            G[i] = S_inv[i] @ E[i + 1].transpose(0, 2, 1)
            S = D[i + 1] - E[i + 1] @ G[i]
    return S_inv, G


def dense_substitute(factor, E, R):
    """The substitution that went with dense_factor, R[i] (elements,
    fields, w_i), kept as reference."""
    S_inv, G = factor
    g = [multigrid._matvecs(S_inv[0], R[0])]
    for i in range(1, len(S_inv)):
        g.append(multigrid._matvecs(S_inv[i],
                                    R[i] - multigrid._matvecs(E[i], g[-1])))
    x = [g[-1]]
    for i in range(len(S_inv) - 2, -1, -1):
        x.append(g[i] - multigrid._matvecs(G[i], x[-1]))
    return x[::-1]


def split(blocks, st):
    """(D, C) of a stencil or a stack of them on the row blocks of
    multigrid.RowBlocks: D[i] couples block i with itself, C[i] holds the
    couplings of block i with block i - 1 (those of C[0] are zero), each
    with a leading element axis (RowBlocks.split before the elimination
    gathered each diagonal block when it reached it)."""
    coef = st.coef.reshape(-1, st.coef.shape[-2] * st.coef.shape[-1])
    return ([blocks._diagonal_block(coef, i)
             for i in range(len(blocks.blocks))], blocks._couplings(coef))


def dense_couplings(C, widths):
    """The sub-diagonal blocks (elements, w_i, w_{i-1}) that the couplings
    C of split hold (E[0] is empty): row r of block i holds vals[:, r] in
    column cols[r]."""
    E = []
    for i, ((cols, vals), w) in enumerate(zip(C, widths)):
        p = widths[i - 1] if i else 0
        Ei = np.zeros((len(vals), w, p))
        if p:
            Ei[:, np.arange(w), cols] = vals
        E.append(Ei)
    return E


def check_against_dense(blocks, factored, D, E):
    """The elimination factored = blocks.factor(st) of multigrid.RowBlocks
    against dense_factor and dense_substitute of the dense blocks (D, E)
    of st, solving three random right-hand sides per element.  With its
    one coupling per row, S_inv and the solutions are bitwise those of the
    dense path and G equal in value (where a row has no coupling the
    gather multiplies by a zero coupling, whose product may carry the sign
    the dense sum drops)."""
    (S_inv, G), _ = factored
    S0, G0 = dense_factor(D, E)
    R = np.random.default_rng(7).standard_normal(
        (len(D[0]), 3, int(sum(len(d[0, 0]) for d in D))))
    x = blocks.solve(factored, R.copy())  # solves in place
    x0 = np.concatenate(dense_substitute(
        (S0, G0), E, [R[..., b] for b in blocks.blocks]), axis=-1)
    assert all(a.shape == b.shape for a, b in zip(
        S_inv + G[:-1] + [x], S0 + G0[:-1] + [x0]))
    assert all(a.tobytes() == b.tobytes() for a, b in zip(S_inv, S0))
    assert all(np.array_equal(a, b) for a, b in zip(G, G0))
    assert x.tobytes() == x0.tobytes()


# ---------------------------------------------------------------------------
# Triangle tables: what the fine mesh and its geometries listed per
# triangle before a geometry became a lattice box with a cell mask, built
# here from the mask or kept as reference.


def local_triangles(geom) -> np.ndarray:
    """The local vertex triples (nt, 3) of the triangles of a geometry, in
    its triangle order: mesh.lattice_triangles of its box, masked, in local
    vertex numbering (TriGeometry.tris before the cell mask)."""
    (rows, cols), slots = geom.box
    local = np.full(rows * cols, -1)
    local[slots] = np.arange(len(slots))
    tris = mesh.lattice_triangles(cols - 1, rows - 1)
    return local[tris if geom.mask is None else tris[geom.mask.ravel()]]


def gather(group, V) -> np.ndarray:
    """Per-triangle values V (nt, ...) of the global geometry on the
    triangles of every member of a patch group, (E, template triangles,
    ...), in the template's order: each member's window, the block of its
    coarse cell in the per-cell layout of V, masked (PatchGroup.gather
    before the group's consumers took windows and lattice cells)."""
    fine, ns = group.fine, group.fine.n_sub
    blocks = V.reshape((fine.coarse.ny, ns, fine.coarse.nx, ns, 2)
                       + V.shape[1:])
    row, col = np.divmod(group.origins, fine.nfx + 1)
    W = blocks[row // ns, :, col // ns]
    mask = group.template.mask
    return (W.reshape((len(W), -1) + V.shape[1:]) if mask is None
            else W[:, mask])


def member_triangle_ids(group) -> np.ndarray:
    """The global fine triangles (E, nt) of every member of a patch group,
    template order: the masked windows of the triangle ids
    (PatchGroup.tri_ids before the window origins)."""
    fine = group.fine
    return gather(group, np.arange(2 * fine.nfx * fine.nfy))


def triangle_elements(fine) -> np.ndarray:
    """The coarse element of each fine triangle of
    mesh.lattice_triangles(nfx, nfy), from the cell of its SW vertex
    (FineMesh.tri_elem before the patch masks, kept as reference): on the
    diagonal of a coarse triangle, the lower fine triangle goes to the
    lower element and the upper one to the upper element."""
    tris = mesh.lattice_triangles(fine.nfx, fine.nfy)
    cy, cx = np.divmod(tris[:, 0], fine.nfx + 1)
    ns = fine.n_sub
    cell_elem = (cy // ns) * fine.coarse.nx + cx // ns
    if fine.coarse.kind == "quad":
        return cell_elem
    lx, ly = cx % ns, cy % ns
    upper = np.arange(len(tris)) % 2 == 1
    return 2 * cell_elem + np.where(upper, ly >= lx, ly > lx)


def element_triangle_ids(fine, elem_id) -> np.ndarray:
    """The fine triangles of one element, ascending, from
    triangle_elements (FineMesh.element_triangle_ids)."""
    return np.flatnonzero(triangle_elements(fine) == elem_id)


def corner_areas_centroids(geom) -> tuple[np.ndarray, np.ndarray]:
    """The areas and centroids of the triangles of geom gathered from
    their corners (TriGeometry.__init__ before the per-cell formulas)."""
    tris = local_triangles(geom)
    p = geom.points
    p0, p1, p2 = p[tris[:, 0]], p[tris[:, 1]], p[tris[:, 2]]
    det = ((p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1])
           - (p2[:, 0] - p0[:, 0]) * (p1[:, 1] - p0[:, 1]))
    return 0.5 * det, (p0 + p1 + p2) / 3.0


# ---------------------------------------------------------------------------
# Per-triangle reference code: the fine layer as it was before its stencils
# and loads became lattice formulas on per-cell arrays, and the test-only
# quadrature API.


def triangle_gradients(geom) -> np.ndarray:
    """The P1 gradients (nt, 3, 2) of every triangle of geom from its own
    corners (TriGeometry.grads before finefem.cell_gradients)."""
    p, tris = geom.points, local_triangles(geom)
    p0, p1, p2 = p[tris[:, 0]], p[tris[:, 1]], p[tris[:, 2]]
    det = ((p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1])
           - (p2[:, 0] - p0[:, 0]) * (p1[:, 1] - p0[:, 1]))
    g = np.empty((len(tris), 3, 2))
    g[:, 0, 0] = (p1[:, 1] - p2[:, 1]) / det
    g[:, 0, 1] = (p2[:, 0] - p1[:, 0]) / det
    g[:, 1, 0] = (p2[:, 1] - p0[:, 1]) / det
    g[:, 1, 1] = (p0[:, 0] - p2[:, 0]) / det
    g[:, 2, 0] = (p0[:, 1] - p1[:, 1]) / det
    g[:, 2, 1] = (p1[:, 0] - p0[:, 0]) / det
    return g


def pattern_gradients(geom) -> np.ndarray:
    """The P1 gradients (nt, 3, 2) of the triangles of a lattice geometry
    from the two patterns of finefem.cell_gradients, lower or upper: what
    the lattice formulas use in place of triangle_gradients, bitwise the
    same where the lattice spacing is a power of two."""
    (_, cols), slots = geom.box
    s = slots[local_triangles(geom)]
    upper = s[:, 1] == s[:, 0] + cols + 1
    return finefem.cell_gradients(geom.spacing)[upper.astype(int)]


def group_weights(group, A):
    """(grads, AW) of every member of a patch group, (E, nt, 3, 2) and
    (E, nt, 2, 2) (the tensors a I), gathered from the global geometry."""
    geom = finefem.global_geometry(group.fine)
    ids = member_triangle_ids(group)
    return (triangle_gradients(geom)[ids],
            tensor(geom.area_weighted(A)[ids]))


def stiffness_entries(g, AW):
    """The six distinct entries of the P1 stiffness matrices of triangles
    with gradients g (..., nt, 3, 2) and area-weighted coefficients AW
    (..., nt, 2, 2): the diagonals (..., 3, nt) and the couplings (K01,
    K02, K12), each (..., nt), as finefem formed them per triangle."""
    g = np.ascontiguousarray(np.moveaxis(g, -3, -1))    # (..., 3, 2, nt)
    AW = np.ascontiguousarray(np.moveaxis(AW, -3, -1))  # (..., 2, 2, nt)
    gA = (g[..., :1, :] * AW[..., None, 0, :, :]
          + g[..., 1:, :] * AW[..., None, 1, :, :])

    def k(i, j):
        kij = (gA[..., i, 0, :] * g[..., j, 0, :]
               + gA[..., i, 1, :] * g[..., j, 1, :])
        kji = kij if i == j else (gA[..., j, 0, :] * g[..., i, 0, :]
                                  + gA[..., j, 1, :] * g[..., i, 1, :])
        return 0.5 * (kij + kji)

    return (np.stack([k(0, 0), k(1, 1), k(2, 2)], axis=-2),
            (k(0, 1), k(0, 2), k(1, 2)))


def stiffness(g, AW) -> np.ndarray:
    """The P1 stiffness matrices (..., nt, 3, 3) of stiffness_entries."""
    diag, (k01, k02, k12) = stiffness_entries(g, AW)
    K = np.empty(k01.shape + (3, 3))
    K[..., [0, 1, 2], [0, 1, 2]] = np.moveaxis(diag, -2, -1)
    K[..., 0, 1] = K[..., 1, 0] = k01
    K[..., 0, 2] = K[..., 2, 0] = k02
    K[..., 1, 2] = K[..., 2, 1] = k12
    return K


def scatter(tris, contrib, n) -> np.ndarray:
    """Add contrib (E, nt) to the three vertices of each triangle of tris
    (nt, 3): (E, n), each vertex summing its triangles in triangle order
    (scatter_rows), the order of every fine load (finefem.box_loads)."""
    E, nt = contrib.shape
    return scatter_rows(np.broadcast_to(contrib.T[:, None, None],
                                        (nt, 3, 1, E)), tris, n)[:, 0]


def scatter_rows(W, tris, n) -> np.ndarray:
    """Sum W (nt, 3, rows, elements), the share of each triangle slot in
    each row, to the n vertices, (elements, rows, n), each vertex summing
    its triangles in triangle order (localbasis._scatter_rows, the bubble
    loads' scatter)."""
    rows, n_el = W.shape[2:]
    idx = (np.arange(n_el * rows).reshape(n_el, rows).T * n
           + tris[..., None, None])
    return np.bincount(idx.ravel(), weights=W.ravel(),
                       minlength=n_el * rows * n).reshape(n_el, rows, n)


def trace_loads(Kt, X, tris) -> np.ndarray:
    """-K X of the trace rows X (elements, rows, n) from the per-triangle
    matrices Kt (elements, nt, 3, 3) of the triangles tris (nt, 3) that
    touch the boundary, (elements, rows, n): localbasis._trace_loads
    before the sweep took -K X from the chunk stencil."""
    n_el, rows, n = X.shape
    KT = np.ascontiguousarray(np.moveaxis(Kt, 0, -1))
    XT = np.ascontiguousarray(X.T)[tris]
    W = np.multiply(KT[:, :, 0, None], XT[:, None, 0])
    tmp = np.empty(W.shape)
    W += np.multiply(KT[:, :, 1, None], XT[:, None, 1], out=tmp)
    W += np.multiply(KT[:, :, 2, None], XT[:, None, 2], out=tmp)
    np.negative(W, out=W)
    return scatter_rows(W, tris, n)


def reference_load_vector(geom, f) -> np.ndarray:
    """P1 load vector of f by the centroid rule, scattered from the
    triangles in triangle order (scatter)."""
    areas, centroids = triangle_cells(geom)
    fv = f.at(centroids)
    return scatter(local_triangles(geom), (areas * fv / 3.0)[None],
                   geom.n_vertices)[0]


def lower_triangles(geom) -> np.ndarray:
    """Whether each triangle of a lattice geometry is the lower (SW, SE,
    NE) triangle of its cell, not the upper (SW, NE, NW) one."""
    (_, cols), slots = geom.box
    s = slots[local_triangles(geom)]
    lower = (s[:, 1] == s[:, 0] + 1) & (s[:, 2] == s[:, 0] + cols + 1)
    assert (lower | ((s[:, 1] == s[:, 0] + cols + 1)
                     & (s[:, 2] == s[:, 0] + cols))).all()
    return lower


def sw_ne_couplings(geom, Ke) -> np.ndarray:
    """The SW-NE entry of the element matrices Ke (..., nt, 3, 3) of the
    triangles of geom: K02 of a lower triangle, K01 of an upper one."""
    return np.where(lower_triangles(geom), Ke[..., 0, 2], Ke[..., 0, 1])


def reference_stencil(geom, AW, grads=None) -> finefem.Stencil:
    """The stencil of the element entries of grads (triangle_gradients of
    geom by default) and AW (tensors) on the triangles of geom, each
    scattered to its box position once, in triangle order
    (finefem.Stencil.of before the lattice formula); a stack of patches
    with grads (E, nt, 3, 2) and AW (E, nt, 2, 2).  The element matrices
    of a I couple no SW-NE diagonal, which is asserted, so the stencil is
    the 5-point one."""
    (rows, cols), slots = geom.box
    n = rows * cols
    s = slots[local_triangles(geom)]
    lower = lower_triangles(geom)
    diag, (k01, k02, k12) = stiffness_entries(
        triangle_gradients(geom) if grads is None else grads, AW)
    assert not np.where(lower, k02, k01).any()
    lead = AW.shape[:-3]
    m = int(np.prod(lead, dtype=int))
    first = np.arange(m)[:, None] * n

    def scatter_at(at, w):
        return np.bincount((first + at).ravel(), w.reshape(m, -1).ravel(),
                           m * n).reshape(m, n)

    coef = np.stack([
        scatter_at(s.ravel(), np.swapaxes(diag, -1, -2)),
        scatter_at(np.where(lower, s[:, 0], s[:, 2]),
                   np.where(lower, k01, k12)),
        scatter_at(np.where(lower, s[:, 1], s[:, 0]),
                   np.where(lower, k12, k02))], axis=1)
    return finefem.Stencil((rows, cols), coef.reshape(lead + (3, n)))


def restricted(st, m) -> finefem.Stencil:
    """The stencil with every coefficient that touches a box position off
    the boolean mask m set to zero (the copy LatticeOperator kept before
    it kept the mask)."""
    coef = st.coef * m
    for k, c in zip((1, st.grid[1]), np.moveaxis(coef, -2, 0)[1:]):
        c[..., :-k] *= m[k:]
    return finefem.Stencil(st.grid, coef)


def coarsen(geom, AW):
    """The next coarser level of a lattice geometry with area-weighted
    coefficient AW (tensors) as a geometry of its own, (geometry, AW), or
    None: multigrid._coarsen before its levels became lattice arrays."""
    if geom.lattice is None or geom.lattice[0] % 2 or geom.lattice[1] % 2:
        return None
    nx, ny = geom.lattice
    fixed = np.zeros((ny + 1) * (nx + 1), dtype=bool)
    fixed[geom.boundary_local] = True
    fixed = fixed.reshape(ny + 1, nx + 1)
    free_c = ~fixed[::2, ::2]
    if not free_c.any() or multigrid._prolong(
            free_c.astype(float), np.zeros(fixed.shape))[fixed].any():
        return None
    nxc, nyc = nx // 2, ny // 2
    points = geom.points.reshape(ny + 1, nx + 1, 2)[::2, ::2].reshape(-1, 2)
    spacing = (2 * geom.spacing[0], 2 * geom.spacing[1])
    coarse = finefem.TriGeometry(points, np.arange(len(points)),
                                 np.flatnonzero(~free_c),
                                 f"{geom.label} on {nxc}x{nyc} cells",
                                 ((nyc + 1, nxc + 1), np.arange(len(points))),
                                 spacing, lattice=(nxc, nyc))
    W = AW.reshape(nyc, 2, nxc, 2, 2, 2, 2)
    lower = (W[:, 0, :, 0, 0] + W[:, 0, :, 1, 0] + W[:, 0, :, 1, 1]
             + W[:, 1, :, 1, 0])
    upper = (W[:, 0, :, 0, 1] + W[:, 1, :, 0, 0] + W[:, 1, :, 0, 1]
             + W[:, 1, :, 1, 1])
    return coarse, np.stack([lower, upper], axis=2).reshape(-1, 2, 2)


def quad_points(geom, order: int = 1):
    """Composite quadrature on the triangles of geom, (points, weights)
    with sum(weights) = area: the centroid rule (order 1) or the edge
    midpoint rule (order 3)."""
    areas, centroids = triangle_cells(geom)
    if order == 1:
        return centroids, areas
    if order == 3:
        p = geom.points[local_triangles(geom)]  # (nt, 3, 2)
        mids = np.concatenate([(p[:, 1] + p[:, 2]) / 2,
                               (p[:, 0] + p[:, 2]) / 2,
                               (p[:, 0] + p[:, 1]) / 2])
        return mids, np.tile(areas / 3.0, 3)
    raise ValueError("quad_order must be 1 or 3")


def l2_project_element(f, coarse, elem_id, geom, M: int,
                       quad_order: int = 1):
    """L2 projection of f onto the degree-M bulk space of one element,
    (coefficients, basis): the Gram system G c = b with both sides by the
    composite fine-patch quadrature of geom, so the residual is orthogonal
    to the basis in the discrete inner product."""
    basis = polybasis.BulkPolyBasis(coarse.kind, M)
    pts, w = quad_points(geom, quad_order)
    P = basis.eval_ref(to_ref(coarse, elem_id, pts))
    fv = f.at(pts)
    G = P.T @ (w[:, None] * P)
    b = P.T @ (w * fv)
    try:
        c = np.linalg.solve(G, b)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"singular bulk Gram matrix on element {elem_id}") from exc
    return c, basis
