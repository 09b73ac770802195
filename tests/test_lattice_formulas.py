"""The lattice formulas of the fine layer against the per-triangle code they
replaced (kept in conftest.py): gradients, areas and centroids from the
corners of every triangle, element matrices, the triangle-corner bincount
scatters and the element tags of the fine triangles.

Stencils and the estimator's segment gradients come from two constant
gradient patterns, so they are bitwise the per-triangle ones where the
lattice spacing is a power of two (h = 1/32 here) and within 1e-14 of
their scale where it is not (h = 1/96, the sweep-tri-N spacing).  Loads
from the lattice areas, centroids and the masked patch windows are bitwise
at both; the areas are one value per lattice, bitwise the corner formula
at h = 1/32 and within rounding of it at h = 1/96.  Every
case runs on quads and triangles: the global mesh, the skeleton (the
coarse edges fixed), the quad and the lower and upper triangle patch
stacks of the offline sweep, and every multigrid level, with the periodic
and the contrast coefficient (the per-triangle references take it as the
tensor a I).
"""

import numpy as np
import pytest

from conftest import (coarsen, contrast_field, corner_areas_centroids,
                      gather, group_weights, local_triangles,
                      member_triangle_ids, reference_load_vector,
                      reference_stencil, restricted, scatter, scatter_rows,
                      skeleton_geometry, tensor, triangle_cells,
                      triangle_elements, triangle_gradients)
from legmsfem import (estimator, finefem, localbasis, mesh, multigrid,
                      polybasis)

# (kind, coarse cells per side, n_sub): h = 1/32 and h = 1/96.
MESHES = [("quad", 2, 16), ("triangle", 2, 16), ("quad", 3, 32),
          ("triangle", 3, 32)]
MESH_IDS = ["quad-h32", "triangle-h32", "quad-h96", "triangle-h96"]


@pytest.fixture(scope="module", params=MESHES, ids=MESH_IDS)
def fine(request):
    kind, nx, n_sub = request.param
    return mesh.refine_to_fine(mesh.build_coarse(kind, nx, nx), n_sub)


@pytest.fixture(params=["periodic", "anisotropic"])
def A(request):
    return (finefem.periodic_benchmark(0.25) if request.param == "periodic"
            else contrast_field())


def dyadic(fine) -> bool:
    return fine.nfx & (fine.nfx - 1) == 0


def agree(got, want, exact):
    """Bitwise where exact, else within 1e-14 of the scale of want."""
    if got.shape != want.shape:
        return False
    if exact:
        return got.tobytes() == want.tobytes()
    return np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_cell_gradients_are_the_triangle_gradients(fine):
    geom = finefem.global_geometry(fine)
    nt = len(triangle_cells(geom)[0])
    got = finefem.cell_gradients(geom.spacing)[np.arange(nt) % 2]
    assert agree(got, triangle_gradients(geom), dyadic(fine))


def test_areas_and_centroids_are_the_corner_formulas(fine):
    # centroids per cell from the lattice's coordinate vectors, bitwise the
    # corner gathers of every triangle at any spacing; areas one value per
    # lattice, hx * hy / 2, bitwise the corner formula where the coordinate
    # differences are exact (a power-of-two spacing on the unit square) and
    # within their rounding elsewhere: the global mesh, every patch of
    # every shape, and the same lattice on a non-unit, offset domain
    coarse = fine.coarse
    shifted = mesh.refine_to_fine(mesh.build_coarse(
        coarse.kind, coarse.nx, coarse.ny, (-0.3, 1.2, 0.1, 2.6)),
        fine.n_sub)
    for fm in (fine, shifted):
        geoms = [finefem.global_geometry(fm)] + [
            finefem.element_geometry(fm, K)
            for K in range(coarse.n_elements)]
        for geom in geoms:
            areas, centroids = corner_areas_centroids(geom)
            got_areas, got_centroids = triangle_cells(geom)
            assert got_centroids.tobytes() == centroids.tobytes()
            assert (got_areas == 0.5 * (fm.hx * fm.hy)).all()
            if dyadic(fine) and fm is fine:
                assert got_areas.tobytes() == areas.tobytes()
            # the coordinate differences carry the rounding of coordinates
            # up to 3 (the offset domain), some 1e-14 of a spacing
            assert np.abs(got_areas - areas).max() <= 1e-12 * areas.max()


def test_masked_windows_are_the_tagged_triangles(fine):
    # every member's masked window holds exactly the fine triangles the
    # old element tags gave its element, in the same order, and the masks
    # of the shapes partition the lattice
    groups = finefem.patch_groups(fine, range(fine.coarse.n_elements))
    tags = triangle_elements(fine)
    seen = np.zeros(len(tags), dtype=int)
    for g in groups:
        ids = member_triangle_ids(g)
        for K, tri_ids in zip(g.elements, ids):
            assert np.array_equal(tri_ids, np.flatnonzero(tags == K))
        seen[ids] += 1
    assert (seen == 1).all()


@pytest.mark.parametrize("which", ["global", "skeleton"])
def test_global_stencil_and_operator(fine, A, which, rng):
    # the stencil of the whole lattice, and K_ff of its two fixed sets
    # against the restricted copy of the scattered stencil
    geom = (finefem.global_geometry(fine) if which == "global"
            else skeleton_geometry(fine))
    st = geom.stencil(A)
    want = reference_stencil(geom, tensor(geom.area_weighted(A)))
    assert agree(st.coef, want.coef, dyadic(fine))
    K = finefem.assemble(geom, A).K
    assert K.stencil is st
    ref = restricted(want, K.mask)
    assert agree(K.diagonal(), ref.centre[K.mask], dyadic(fine))
    x = rng.standard_normal(K.shape[0])
    assert agree(K @ x, ref.apply(K.box(x))[K.mask], dyadic(fine))


def test_patch_stack_stencils(fine, A):
    # one stencil per member of every patch shape, from the member's
    # triangles gathered off the global geometry
    groups = finefem.patch_groups(fine, range(fine.coarse.n_elements))
    assert len(groups) == (1 if fine.coarse.kind == "quad" else 2)
    for g in groups:
        grads, AW = group_weights(g, A)
        want = reference_stencil(g.template, AW, grads)
        assert agree(g.stencil(A).coef, want.coef, dyadic(fine))


@pytest.mark.parametrize("which", ["global", "skeleton"])
def test_multigrid_level_stencils(fine, A, which):
    # every level below the fine one: the summed coefficients of the coarse
    # triangles on a lattice geometry of their own, scattered
    geom = (finefem.global_geometry(fine) if which == "global"
            else skeleton_geometry(fine))
    mg = multigrid.Multigrid(finefem.assemble(geom, A))
    AW = tensor(geom.area_weighted(A))
    assert len(mg.levels) >= 2
    for l, lev in enumerate(mg.levels):
        if l:
            geom, AW = coarsen(geom, AW)
        want = reference_stencil(geom, AW)
        assert agree(lev.K.stencil.coef, want.coef, dyadic(fine))
        free = np.ones(geom.n_vertices, dtype=bool)
        free[geom.boundary_local] = False
        assert np.array_equal(lev.K.mask, free)


def test_loads(fine):
    # the load vector of the global mesh and of every patch, alone and
    # for a patch stack, and the offline bubble loads, each vertex adding
    # its triangles in triangle order: bitwise at any spacing
    f = finefem.gaussian_rhs()
    geom = finefem.global_geometry(fine)
    assert np.array_equal(finefem.load_vector(geom, f),
                          reference_load_vector(geom, f))
    areas, centroids = triangle_cells(geom)
    coarse = fine.coarse
    bases = {m: polybasis.BulkPolyBasis(coarse.kind, m) for m in (1, 2)}
    for g in finefem.patch_groups(fine, range(coarse.n_elements)):
        t = g.template
        for K in g.elements:
            egeom = finefem.element_geometry(fine, K)
            assert np.array_equal(finefem.load_vector(egeom, f),
                                  reference_load_vector(egeom, f))
        tri_ids, tris = member_triangle_ids(g), local_triangles(t)
        pts = centroids[tri_ids]
        shares = areas[tri_ids] * f.at(pts) / 3.0
        assert np.array_equal(g.load_vectors(f),
                              scatter(tris, shares, t.n_vertices))
        M = np.arange(len(g.elements)) % 3
        w = localbasis._load_weights(coarse, g, M, bases, bases[2].dim,
                                     coarse.offsets[g.elements])
        got = t.from_box(finefem.box_loads(t, w.T))
        want = scatter_rows(np.broadcast_to(w[:, None], (len(tris), 3)
                                            + w.shape[1:]),
                            tris, t.n_vertices)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", ["quad", "triangle"])
def test_loads_by_blocks_of_cell_rows(kind):
    # load_vector runs over blocks of cell rows (three on this 96-cell
    # lattice), added one after another: bitwise the shares of all
    # triangles at once, added in triangle order (box_loads),
    # on the global mesh and on every patch; and the window formula of a
    # patch stack is bitwise the masked windows of the global areas and
    # centroids
    fine = mesh.refine_to_fine(mesh.build_coarse(kind, 4, 4), 24)
    f = finefem.Field("seeded", lambda x, y: -(0.9 + 0.4 * np.sin(
        3 * np.pi * x + 0.7) * np.sin(2 * np.pi * y + 2.1)))
    geom = finefem.global_geometry(fine)
    assert 2 < fine.nfy / finefem.cache_rows(fine.nfx) <= 3
    for g in [geom] + [finefem.element_geometry(fine, K) for K in (0, 1)]:
        w, pts = triangle_cells(g)
        whole = g.from_box(finefem.box_loads(
            g, w * f.at(pts) / 3.0))
        assert finefem.load_vector(g, f).tobytes() == whole.tobytes()
    glob_areas, glob_centroids = triangle_cells(geom)
    for grp in finefem.patch_groups(fine, range(fine.coarse.n_elements)):
        area, centroids = grp.cells()
        assert np.full(centroids.shape[:-1], area).tobytes() == gather(
            grp, glob_areas).tobytes()
        assert centroids.tobytes() == gather(grp, glob_centroids).tobytes()


def reference_jump_norms(fine, edge_ids, v, A):
    """estimator._jump_norms with the gradients of every segment triangle
    from its corners."""
    geom = finefem.global_geometry(fine)
    tris = fine.edge_segment_triangles(edge_ids).reshape(-1, 2)
    chains = fine.edge_vertex_chains(edge_ids)
    pa = geom.points[chains[:, :-1].ravel()]
    pb = geom.points[chains[:, 1:].ravel()]
    d = pb - pa
    L = np.hypot(d[:, 0], d[:, 1])
    nu = np.column_stack([d[:, 1], -d[:, 0]]) / L[:, None]
    Anu = np.einsum("sij,sj->si", tensor(A.at(0.5 * (pa + pb))), nu)
    grad = np.einsum("sti,stid->std", v.values[local_triangles(geom)[tris]],
                     triangle_gradients(geom)[tris])
    flux = np.einsum("std,sd->st", grad, Anu)
    acc = np.bincount(np.repeat(np.arange(len(chains)), fine.n_sub),
                      L * (flux[:, 0] - flux[:, 1]) ** 2)
    return np.sqrt(acc)


def test_segment_gradients(fine, A, rng):
    # the flux jumps of a field across every interior coarse edge, from
    # the gradient patterns against the corners of each segment triangle
    geom = finefem.global_geometry(fine)
    v = finefem.FineFunction(geom, rng.standard_normal(geom.n_vertices))
    edges = fine.coarse.interior_edge_ids
    got = np.array(estimator._jump_norms(fine, edges, v, A))
    assert agree(got, reference_jump_norms(fine, edges, v, A), dyadic(fine))
