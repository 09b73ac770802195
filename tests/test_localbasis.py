from dataclasses import dataclass

import numpy as np
import pytest

from legmsfem import finefem, localbasis, mesh, polybasis


@pytest.fixture(scope="module")
def A_osc():
    return finefem.periodic_benchmark(0.25)


def chain_values(bf, fine, elem_id, edge_id):
    geom = finefem.element_geometry(fine, elem_id)
    loc = np.searchsorted(geom.vids, fine.edge_vertex_chain(edge_id))
    return bf.values[elem_id][loc]


def test_nodal_trace_is_exact_hat(quad44, fine_quad44, A_osc):
    v = int(quad44.interior_vertex_ids[0])
    bf = localbasis.compute_nodal(v, quad44, fine_quad44, A_osc)
    assert bf.kind == "nodal" and bf.key == (v,)
    assert bf.support == tuple(sorted(quad44.vertex_elements[v]))
    t = np.arange(9) / 8
    for K in bf.support:
        for eid in quad44.element_edges[K]:
            e = quad44.edges[eid]
            h0 = 1.0 if e.v0 == v else 0.0
            h1 = 1.0 if e.v1 == v else 0.0
            got = chain_values(bf, fine_quad44, K, eid)
            assert np.array_equal(got, h0 * (1 - t) + h1 * t)


def test_edge_trace_is_exact_eta(quad44, fine_quad44, A_osc):
    eid = int(quad44.interior_edge_ids[2])
    bf = localbasis.compute_edge_enrichment(eid, 3, quad44, fine_quad44, A_osc)
    t = np.arange(9) / 8
    eta = polybasis.internal_basis_eval(3, -1.0 + 2.0 * t)
    for K in bf.support:
        assert np.array_equal(chain_values(bf, fine_quad44, K, eid), eta)
        for other in quad44.element_edges[K]:
            if other != eid:
                assert not chain_values(bf, fine_quad44, K, other).any()


def test_shared_edge_bitwise_agreement(quad44, fine_quad44, A_osc):
    # both support patches must impose identical data, so the glued function
    # is single-valued without any tolerance
    eid = int(quad44.interior_edge_ids[5])
    e = quad44.edges[eid]
    for k in (2, 4):
        bf = localbasis.compute_edge_enrichment(eid, k, quad44, fine_quad44, A_osc)
        a = chain_values(bf, fine_quad44, e.element_ids[0], eid)
        b = chain_values(bf, fine_quad44, e.element_ids[1], eid)
        assert np.array_equal(a, b)


def test_nodal_shared_edge_agreement(quad44, fine_quad44, A_osc):
    v = int(quad44.interior_vertex_ids[4])
    bf = localbasis.compute_nodal(v, quad44, fine_quad44, A_osc)
    for eid in quad44.vertex_edges[v]:
        e = quad44.edges[eid]
        if e.boundary or not set(e.element_ids) <= set(bf.support):
            continue
        a = chain_values(bf, fine_quad44, e.element_ids[0], eid)
        b = chain_values(bf, fine_quad44, e.element_ids[1], eid)
        assert np.array_equal(a, b)


def test_constructor_guards(quad44, fine_quad44, A_osc):
    bvid = int(np.flatnonzero(quad44.boundary_vertex_mask)[0])
    with pytest.raises(ValueError, match="boundary"):
        localbasis.compute_nodal(bvid, quad44, fine_quad44, A_osc)
    bedge = next(e.id for e in quad44.edges if e.boundary)
    with pytest.raises(ValueError, match="boundary"):
        localbasis.compute_edge_enrichment(bedge, 2, quad44, fine_quad44, A_osc)
    eid = int(quad44.interior_edge_ids[0])
    with pytest.raises(ValueError, match="start at 2"):
        localbasis.compute_edge_enrichment(eid, 1, quad44, fine_quad44, A_osc)


def test_discrete_harmonicity(quad44, fine_quad44, A_osc):
    # interface functions solve the homogeneous interior problem: the free
    # rows of the patch stiffness annihilate them up to rounding
    v = int(quad44.interior_vertex_ids[0])
    bf = localbasis.compute_nodal(v, quad44, fine_quad44, A_osc)
    K = bf.support[0]
    geom = finefem.element_geometry(fine_quad44, K)
    # with the function's own boundary values as Dirichlet data, the
    # lifted right-hand side is -K_fc times them
    system = finefem.assemble(geom, A_osc,
                              dirichlet=bf.values[K][geom.boundary_local])
    r = system.K @ bf.values[K][system.free_loc] - system.rhs
    scale = np.abs(system.K.diagonal()).max() * np.abs(bf.values[K]).max()
    assert np.abs(r).max() < 1e-10 * scale


def test_bubble_galerkin_identity(quad44, fine_quad44, A_osc, rng):
    # a_K(phi_B, w) = (P_i, w)_K for every w vanishing on the patch boundary
    elem_id, i, M = 6, 3, 1
    basis = polybasis.BulkPolyBasis("quad", M)
    bf = localbasis.compute_bubble(elem_id, i, quad44, fine_quad44, A_osc,
                                   basis)
    geom = finefem.element_geometry(fine_quad44, elem_id)
    el = quad44.elements[elem_id]
    w = np.zeros(geom.n_vertices)
    mask = np.ones(geom.n_vertices, dtype=bool)
    mask[geom.boundary_local] = False
    w[mask] = rng.standard_normal(mask.sum())
    lhs = finefem.energy_inner_matrix(bf.values[elem_id][None, :], geom, A_osc,
                                      W=w[None, :])[0, 0]

    def P_i(x, y):
        pts = np.column_stack([np.ravel(x), np.ravel(y)])
        return basis.eval_ref(el.to_ref(pts))[:, i - 1]

    rhs = finefem.load_vector(geom, P_i) @ w
    assert abs(lhs - rhs) < 1e-9 * max(abs(lhs), abs(rhs))


def test_bubble_zero_trace_and_guards(quad44, fine_quad44, A_osc):
    basis = polybasis.BulkPolyBasis("quad", 1)
    bf = localbasis.compute_bubble(2, 1, quad44, fine_quad44, A_osc, basis)
    geom = finefem.element_geometry(fine_quad44, 2)
    assert not bf.values[2][geom.boundary_local].any()
    with pytest.raises(ValueError, match="M >= 1"):
        localbasis.compute_bubble(2, 1, quad44, fine_quad44, A_osc,
                                  polybasis.BulkPolyBasis("quad", 0))
    with pytest.raises(ValueError, match="outside"):
        localbasis.compute_bubble(2, 5, quad44, fine_quad44, A_osc, basis)


def test_compute_all_order_and_counts(quad44, fine_quad44, A_osc):
    degrees = mesh.DegreeAssignment.uniform(quad44, 2, 1)
    catalog = localbasis.compute_all(quad44, fine_quad44, A_osc, degrees)
    assert len(catalog) == 9 + 24 + 16 * 4
    kinds = [bf.kind for bf in catalog]
    assert kinds == ["nodal"] * 9 + ["edge"] * 24 + ["bubble"] * 64
    assert [bf.key[0] for bf in catalog[:9]] == \
        [int(v) for v in quad44.interior_vertex_ids]
    assert [bf.key for bf in catalog[9:33]] == \
        [(int(e), 2) for e in quad44.interior_edge_ids]
    assert [bf.key for bf in catalog[33:41]] == \
        [(0, 1), (0, 2), (0, 3), (0, 4), (1, 1), (1, 2), (1, 3), (1, 4)]


def test_compute_all_which_split(quad44, fine_quad44, A_osc):
    degrees = mesh.DegreeAssignment.uniform(quad44, 2, 1)
    iface = localbasis.compute_all(quad44, fine_quad44, A_osc, degrees,
                                   which="interface")
    bub = localbasis.compute_all(quad44, fine_quad44, A_osc, degrees,
                                 which="bubble")
    assert all(bf.kind != "bubble" for bf in iface)
    assert all(bf.kind == "bubble" for bf in bub)
    assert len(iface) + len(bub) == 9 + 24 + 64


def reference_trace(coarse, fine, elem_id, bf):
    """Dirichlet data of an interface function on one element boundary,
    built edge by edge and aligned with the patch's boundary_local."""
    t = np.arange(fine.n_sub + 1) / fine.n_sub
    data = {}
    for eid in coarse.element_edges[elem_id]:
        e = coarse.edges[eid]
        if bf.kind == "nodal":
            v = bf.key[0]
            vals = (float(e.v0 == v) * (1.0 - t) + float(e.v1 == v) * t)
        elif eid == bf.key[0]:
            vals = polybasis.internal_basis_eval(bf.key[1], -1.0 + 2.0 * t)
        else:
            vals = np.zeros_like(t)
        data.update(zip(map(int, fine.edge_vertex_chain(eid)), vals))
    return np.array([data[int(g)]
                     for g in fine.element_boundary_vertex_ids(elem_id)])


def entry_point(bf, coarse, fine, A, basis):
    """The catalog function bf computed again through its public entry
    point, on its own."""
    if bf.kind == "nodal":
        return localbasis.compute_nodal(bf.key[0], coarse, fine, A)
    if bf.kind == "edge":
        return localbasis.compute_edge_enrichment(*bf.key, coarse, fine, A)
    return localbasis.compute_bubble(*bf.key, coarse, fine, A, basis)


@pytest.mark.parametrize("kind", ["quad", "triangle"])
def test_compute_all_matches_iterative_reference(kind, A_osc):
    # every field of the direct block sweep against one tight Jacobi-PCG
    # solve per basis function and element; the public entry points must
    # reproduce the catalog bitwise, whatever else the patch solved
    coarse = mesh.build_coarse(kind, 4, 4)
    fine = mesh.refine_to_fine(coarse, 8)
    degrees = mesh.DegreeAssignment.uniform(coarse, 3, 2)
    basis = polybasis.BulkPolyBasis(kind, 2)
    catalog = localbasis.compute_all(coarse, fine, A_osc, degrees)
    assert len(catalog) == (len(coarse.interior_vertex_ids)
                            + 2 * len(coarse.interior_edge_ids)
                            + len(coarse.elements) * basis.dim)
    worst = 0.0
    for bf in catalog:
        single = entry_point(bf, coarse, fine, A_osc, basis)
        assert single.support == bf.support
        for K in bf.support:
            assert np.array_equal(single.values[K], bf.values[K])
            geom = finefem.element_geometry(fine, K)
            if bf.kind == "bubble":
                el = coarse.elements[K]

                def load(x, y, i=bf.key[1], el=el):
                    pts = np.column_stack([np.ravel(x), np.ravel(y)])
                    return basis.eval_ref(el.to_ref(pts))[:, i - 1]

                system = finefem.assemble(geom, A_osc, load, 0.0)
            else:
                system = finefem.assemble(
                    geom, A_osc, None, reference_trace(coarse, fine, K, bf))
            ref = finefem.solve_spd(system, 1e-13).values
            worst = max(worst, np.abs(bf.values[K] - ref).max()
                        / np.abs(ref).max())
    assert worst < 1e-10


@pytest.mark.parametrize("kind, n, n_sub", [("triangle", 3, 4),
                                             ("quad", 2, 64)])
def test_batched_catalog_matches_entry_points(kind, n, n_sub, A_osc,
                                              monkeypatch):
    # whole patch groups against groups of one: both triangle shapes, and
    # quad patches of 8,192 triangles that go in chunks of one element
    coarse = mesh.build_coarse(kind, n, n)
    fine = mesh.refine_to_fine(coarse, n_sub)
    degrees = mesh.DegreeAssignment.uniform(coarse, 3, 1)
    basis = polybasis.BulkPolyBasis(kind, 1)
    chunks = []
    real = finefem.PatchGroup.chunks

    def counted(self, size):
        parts = list(real(self, size))
        chunks.append(len(parts))
        return iter(parts)

    monkeypatch.setattr(finefem.PatchGroup, "chunks", counted)
    catalog = localbasis.compute_all(coarse, fine, A_osc, degrees)
    assert len(chunks) == (2 if kind == "triangle" else 1)
    assert max(chunks) == (1 if kind == "triangle" else 4)
    for bf in catalog:
        single = entry_point(bf, coarse, fine, A_osc, basis)
        assert single.support == bf.support
        for K in bf.support:
            assert np.array_equal(single.values[K], bf.values[K])


def test_edge_chains_must_be_translates(A_osc):
    # element 5 lists its edges in another order than its template
    coarse = mesh.build_coarse("quad", 3, 3)
    fine = mesh.refine_to_fine(coarse, 4)
    edges = coarse.element_edges[5]
    coarse.element_edges[5] = edges[1:] + edges[:1]
    with pytest.raises(ValueError, match="element 5: edge chains are not a "
                                         "translate of those of element 0"):
        localbasis.compute_all(coarse, fine, A_osc,
                               mesh.DegreeAssignment.uniform(coarse, 2, 0))


def test_row_blocks_reject_distant_lattice_rows():
    # a triangle joining lattice rows 0 and 2 breaks the block-tridiagonal
    # structure of the patch solve, so the stencil its blocks are gathered
    # from must refuse it
    geom = finefem.TriGeometry(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                               np.array([[0, 1, 2]]), np.array([0, 1, 6]),
                               np.array([], dtype=int), "skewed patch",
                               box=((3, 3), np.array([0, 1, 6])))
    with pytest.raises(ValueError, match="not half of a lattice cell"):
        finefem.Stencil.of(geom,
                           geom.area_weighted(finefem.identity_field()))


def test_dump_points(quad44, fine_quad44, A_osc):
    v = int(quad44.interior_vertex_ids[0])
    bf = localbasis.compute_nodal(v, quad44, fine_quad44, A_osc)
    rows = localbasis.dump_points(bf, fine_quad44)
    assert rows.shape[1] == 3
    # the vertex itself appears with value one
    at_v = np.flatnonzero((rows[:, 0] == quad44.vertices[v][0])
                          & (rows[:, 1] == quad44.vertices[v][1]))
    assert len(at_v) == 1 and rows[at_v[0], 2] == 1.0


def test_frozen_interior_probe():
    coarse = mesh.build_coarse("quad", 4, 4)
    fine = mesh.refine_to_fine(coarse, 32)
    A = finefem.periodic_benchmark(1.0 / 16.0)
    bf = localbasis.compute_edge_enrichment(3, 2, coarse, fine, A)
    geom = finefem.element_geometry(fine, 0)
    pos = int(np.searchsorted(geom.vids, 2095))
    assert geom.vids[pos] == 2095
    assert np.array_equal(fine.vertices[2095], [0.2421875, 0.125])
    got = bf.values[0][pos]
    assert abs(got - (-0.53184199398854248)) < 1e-9 * 0.53184199398854248


# ---------------------------------------------------------------------------
# right-hand sides of the offline sweep against the loops they replaced

def full_tensor_field():
    """A full-tensor coefficient, so every element matrix entry is
    nonzero; eigenvalues in [0.6, 2.9]."""

    def fn(p):
        x, y = p[:, 0], p[:, 1]
        out = np.empty((len(p), 2, 2))
        out[:, 0, 0] = 2.0 + 0.5 * np.sin(5 * x)
        out[:, 1, 1] = 1.5 + 0.5 * np.cos(3 * y)
        out[:, 0, 1] = out[:, 1, 0] = 0.3 * np.sin(4 * (x + y))
        return out

    return finefem.CoefficientField("full tensor", 0.5, 3.0, fn)


def requests_of(coarse, degrees):
    """The per-element requests compute_all builds for "all"."""
    bases = {M: polybasis.BulkPolyBasis(coarse.kind, M)
             for M in set(degrees.M.values()) if M}
    out = {}
    for el in coarse.elements:
        K = el.id
        hats = [v for v in el.vertex_ids
                if not coarse.boundary_vertex_mask[v]]
        etas = [(eid, k) for eid in coarse.element_edges[K]
                if not coarse.edges[eid].boundary
                for k in range(2, degrees.N[eid] + 1)]
        basis = bases.get(degrees.M[K])
        out[K] = (hats, etas, basis,
                  list(range(1, basis.dim + 1)) if basis else [])
    return out


def all_triangle_trace_loads(Kt, X, tris):
    """-K X of trace rows over every triangle of the patch, as the sweep
    formed it before it skipped the triangles off the boundary."""
    n_el, rows, n = X.shape
    KT = np.ascontiguousarray(np.moveaxis(Kt, 0, -1))
    XT = np.ascontiguousarray(X.T)[tris]
    W = np.zeros((len(tris), 3, rows, n_el))
    tmp = np.empty(W.shape)
    np.multiply(KT[:, :, 0, None], XT[:, None, 0], out=W)
    W += np.multiply(KT[:, :, 1, None], XT[:, None, 1], out=tmp)
    W += np.multiply(KT[:, :, 2, None], XT[:, None, 2], out=tmp)
    np.negative(W, out=W)
    idx = (np.arange(n_el * rows).reshape(n_el, rows).T * n
           + tris[..., None, None])
    return np.bincount(idx.ravel(), weights=W.ravel(),
                       minlength=n_el * rows * n).reshape(n_el, rows, n)


@pytest.mark.parametrize("kind,n_sub,N", [("quad", 6, 3), ("triangle", 5, 3),
                                          ("triangle", 2, 2), ("quad", 9, 1)])
def test_boundary_trace_loads_match_all_triangles(kind, n_sub, N):
    # triangles off the boundary add products +-0 only, so leaving them
    # out keeps every sum bitwise, on every vertex
    coarse = mesh.build_coarse(kind, 3, 3)
    fine = mesh.refine_to_fine(coarse, n_sub)
    A = full_tensor_field()
    requests = requests_of(coarse, mesh.DegreeAssignment.uniform(coarse, N,
                                                                 0))
    for group in finefem.patch_groups(fine, requests):
        t = group.template
        n_tr = max(len(h) + len(e) for h, e, _, _ in requests.values())
        X = localbasis._trace_rows(coarse, fine, group, requests, n_tr)
        Kt = finefem._stiffness(*group.weights(A))
        edge = np.isin(t.tris, t.boundary_local).any(axis=1)
        assert edge.sum() < len(t.tris) or n_sub == 2
        got = localbasis._trace_loads(Kt[:, edge], X, t.tris[edge])
        want = all_triangle_trace_loads(Kt, X, t.tris)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def loop_load_weights(coarse, sub, reqs, n_b):
    """The bubble loads of the sweep, one to_ref and eval_ref per
    element, as the sweep formed them before it batched them."""
    glob = finefem.global_geometry(sub.fine)
    out = np.zeros((sub.tri_ids.shape[1], n_b, len(sub.elements)))
    for e, K in enumerate(sub.elements):
        _, _, basis, bubbles = reqs[e]
        if bubbles:
            ids = sub.tri_ids[e]
            P = basis.eval_ref(coarse.elements[K].to_ref(
                glob.centroids[ids]))[:, [i - 1 for i in bubbles]]
            out[:, :len(bubbles), e] = glob.areas[ids][:, None] * P / 3.0
    return out


@pytest.mark.parametrize("kind", ["quad", "triangle"])
def test_batched_bubble_loads_match_element_loop(kind, monkeypatch):
    # mixed bulk degrees (M = 0 to 3, so members of one chunk use
    # different bases) and single-bubble requests; the batched loads are
    # bitwise the loop's, and so are the bubble fields solved from them
    coarse = mesh.build_coarse(kind, 3, 2, (0.0, 1.5, -0.5, 0.5))
    fine = mesh.refine_to_fine(coarse, 6)
    A = full_tensor_field()
    degrees = mesh.DegreeAssignment.uniform(coarse, 2, 2)
    degrees.M.update({0: 1, 3: 3, 4: 0})
    requests = requests_of(coarse, degrees)
    K1 = 5 if kind == "quad" else 9
    requests[K1] = requests[K1][:3] + ([2],)
    f = finefem.gaussian_rhs()
    glob = finefem.global_geometry(fine)
    for group in finefem.patch_groups(fine, requests):
        reqs = [requests[K] for K in group.elements]
        n_b = max(len(r[3]) for r in reqs)
        got = localbasis._load_weights(coarse, group, reqs, n_b, f)
        assert np.array_equal(got[:, :n_b],
                              loop_load_weights(coarse, group, reqs, n_b))
        pts = glob.centroids[group.tri_ids]
        fv = f(pts[..., 0], pts[..., 1])
        assert np.array_equal(got[:, n_b], (glob.areas[group.tri_ids] * fv
                                            / 3.0).T)
    batched = localbasis.compute_all(coarse, fine, A, degrees,
                                     which="bubble")
    monkeypatch.setattr(
        localbasis, "_load_weights",
        lambda coarse, sub, reqs, n_b, f: loop_load_weights(coarse, sub,
                                                            reqs, n_b))
    looped = localbasis.compute_all(coarse, fine, A, degrees, which="bubble")
    assert [bf.key for bf in batched] == [bf.key for bf in looped]
    assert len(batched) == sum(
        polybasis.BulkPolyBasis(kind, M).dim for M in degrees.M.values() if M)
    for a, b in zip(batched, looped):
        assert all(np.array_equal(a.values[K], b.values[K])
                   for K in a.support)


# ---------------------------------------------------------------------------
# the row-block layout against the one packed from element matrices


@dataclass(frozen=True)
class ElementRowBlocks:
    """K_ff of a template patch as dense lattice-row blocks, packed from
    per-triangle matrices: the layout the offline sweep built before its
    blocks came from the stencil (finefem.RowBlocks), kept as reference.

    Free vertices are in local order, which is lattice-row-major because
    vids are sorted; widths[i] is the number of free vertices in block i
    and prev[i] that of block i - 1.  Entry keep of the per-triangle
    matrices lands at position flat of the packed blocks of an element.
    """

    keep: np.ndarray
    flat: np.ndarray
    widths: np.ndarray
    prev: np.ndarray
    offsets: np.ndarray
    size: int

    def split(self, Kt):
        """(D, E) from per-triangle matrices Kt (elements, nt, 3, 3)."""
        n_el = len(Kt)
        idx = np.arange(n_el)[:, None] * self.size + self.flat
        data = np.bincount(idx.ravel(), weights=Kt[:, self.keep].ravel(),
                           minlength=n_el * self.size).reshape(n_el, -1)
        D, E = [], []
        for o, w, p in zip(self.offsets, self.widths, self.prev):
            D.append(data[:, o:o + w * w].reshape(n_el, w, w))
            E.append(data[:, o + w * w:o + w * (w + p)].reshape(n_el, w, p))
        return D, E


def element_row_blocks(fine, geom, is_free):
    """The ElementRowBlocks of K_ff on one patch."""
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
    r, f = row[geom.tris], is_free[geom.tris]
    gap = r[:, :, None] - r[:, None, :]
    both = f[:, :, None] & f[:, None, :]
    assert not np.any(both & (np.abs(gap) > 1))
    keep = both & (gap >= 0)
    ba = blk[geom.tris][:, :, None]
    flat = (d_off[ba] + gap * d_size[ba]
            + pos[geom.tris][:, :, None] * widths.take(ba - gap, mode="clip")
            + pos[geom.tris][:, None, :])
    return ElementRowBlocks(keep, flat[keep], widths, prev, d_off,
                            int(d_off[-1] + d_size[-1]
                                + widths[-1] * prev[-1]))


def bitwise(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("kind,n_sub", [("quad", 5), ("quad", 2),
                                        ("triangle", 6), ("triangle", 3)])
def test_row_blocks_match_the_element_matrix_layout(kind, n_sub):
    # the blocks gathered from a stack of stencils are bitwise those packed
    # from the per-triangle matrices, on the quad template and on the lower
    # and upper triangle templates; the full-tensor coefficient couples
    # north-east neighbours; n_sub 2 and 3 leave one free vertex a patch
    coarse = mesh.build_coarse(kind, 3, 2)
    fine = mesh.refine_to_fine(coarse, n_sub)
    A = full_tensor_field()
    groups = finefem.patch_groups(fine, range(len(coarse.elements)))
    assert len(groups) == (1 if kind == "quad" else 2)
    for g in groups:
        t = g.template
        is_free = np.ones(t.n_vertices, dtype=bool)
        is_free[t.boundary_local] = False
        grads, AW = g.weights(A)
        blocks = finefem.RowBlocks(t.box[1][is_free], t.box[0])
        want = element_row_blocks(fine, t, is_free)
        assert blocks.size == want.size
        assert np.array_equal(blocks.widths, want.widths)
        assert [b.stop for b in blocks.blocks] == \
            np.cumsum(want.widths).tolist()
        D, E = blocks.split(finefem.Stencil.of(t, AW, grads))
        D0, E0 = want.split(finefem._stiffness(grads, AW))
        assert len(D) == len(D0) == len(E) == len(E0)
        assert all(bitwise(a, b) for a, b in zip(D + E, D0 + E0))
        assert len(D) == 1 or any(e.any() for e in E[1:])
