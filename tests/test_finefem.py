import copy
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import (check_against_dense, coarsen, contrast_field, dense,
                      dense_couplings, element_boundary_vertex_ids,
                      element_triangle_ids, element_vertex_ids,
                      energy, energy_gram, energy_inner, energy_products,
                      fourier_poisson_center, free_vertices, group_weights,
                      local_triangles, member_triangle_ids, quad_points,
                      skeleton_geometry, split, stiffness, sw_ne_couplings,
                      tensor, triangle_cells, triangle_gradients)
from legmsfem import errors, finefem, localbasis, mesh, multigrid


def dense_stiffness(geom, A):
    """Triangle-by-triangle dense assembly, the slow reference."""
    n = geom.n_vertices
    K = np.zeros((n, n))
    areas, centroids = triangle_cells(geom)
    Abar = tensor(A.at(centroids))
    grads = triangle_gradients(geom)
    for t, tri in enumerate(local_triangles(geom)):
        for i in range(3):
            for j in range(3):
                K[tri[i], tri[j]] += areas[t] * (
                    grads[t, i] @ Abar[t] @ grads[t, j])
    return K


def test_identity_field():
    A = finefem.identity_field()
    assert A.name == "identity"
    a = A.at(np.array([[0.3, 0.4], [0.1, 0.9]]))
    assert a.shape == (2,)
    assert np.array_equal(a, [1.0, 1.0])
    assert np.array_equal(A.at([0.3, 0.4]), [1.0])
    # a function that returns one constant gives one value per point too
    two = finefem.Field("two", lambda x, y: 2.0, (2.0, 2.0))
    assert np.array_equal(two.at(np.zeros((3, 2))), [2.0, 2.0, 2.0])


def test_periodic_benchmark(rng):
    A = finefem.periodic_benchmark(0.125)
    pts = rng.random((500, 2))
    vals = A.at(pts)
    assert vals.shape == (500,)
    assert np.all(vals >= A.bounds[0]) and np.all(vals <= A.bounds[1])
    assert "0.125" in A.name
    with pytest.raises(ValueError):
        finefem.periodic_benchmark(0.0)


@pytest.mark.parametrize("kind,n,n_sub,eps", [("quad", 4, 8, 0.25),
                                               ("triangle", 24, 4, 1 / 12)])
def test_periodic_coefficient_is_evaluated_on_one_period(kind, n, n_sub,
                                                         eps):
    # a period of eps = 8 fine cells: every geometry takes the value of
    # cell (i, j) from cell (i mod 8, j mod 8) of the one evaluation, so
    # the coefficient is bitwise periodic; it differs from evaluating every
    # centroid only by the rounding of the oscillation's argument, whose
    # size grows with x / eps: up to 6e-14 relative on the benchmark
    # lattices
    fine = mesh.refine_to_fine(mesh.build_coarse(kind, n, n), n_sub)
    A = finefem.periodic_benchmark(eps)
    geom = finefem.global_geometry(fine)
    tile = geom.held(A)
    assert tile.shape == (8, 8, 2)
    areas, centroids = triangle_cells(geom)
    a = tile[np.arange(fine.nfy)[:, None] % 8, np.arange(fine.nfx) % 8]
    AW = geom.area_weighted(A)
    assert AW.tobytes() == (areas * a.reshape(-1)).tobytes()
    direct = areas * A.at(centroids)
    assert np.abs(AW - direct).max() <= 1e-13 * np.abs(direct).max()
    if kind == "quad":  # a power-of-two spacing: equal areas as well
        cells = AW.reshape(fine.nfy, fine.nfx, 2)
        assert np.array_equal(cells[8:], cells[:-8])
        assert np.array_equal(cells[:, 8:], cells[:, :-8])
    # every geometry cut from the mesh reads the same evaluation: its
    # cells are bitwise those of the global geometry
    for K in (0, 2 * n + 3):
        egeom = finefem.element_geometry(fine, K)
        assert egeom.held(A).base is tile.base
        g, = finefem.patch_groups(fine, [K])
        assert np.array_equal(egeom.area_weighted(A),
                              AW[member_triangle_ids(g)[0]])


def test_period_off_the_lattice_is_evaluated_per_triangle():
    # eps = 2.25 fine cells, 2 (1 + 1e-11) fine cells (tiled with 2 cells,
    # it would drift by a share of 1e-11 per period), or a period beyond
    # the lattice: every centroid is evaluated, as for a coefficient
    # without a period; 2 cells to rounding are tiled
    fine = mesh.refine_to_fine(mesh.build_coarse("triangle", 3, 3), 6)
    geom = finefem.global_geometry(fine)
    areas, centroids = triangle_cells(geom)
    assert geom.held(finefem.periodic_benchmark(1 / 9)).shape == (2, 2, 2)
    for eps in (0.125, (1 + 1e-11) / 9, 2.0):
        A = finefem.periodic_benchmark(eps)
        assert geom.held(A).shape == (fine.nfy, fine.nfx, 2)
        assert geom.area_weighted(A).tobytes() == \
            (areas * A.at(centroids)).tobytes()
    # the bounds check covers every value of one evaluation
    A = finefem.Field("low", lambda x, y: 1.0 + x, (2.0, 3.0), (1 / 6, 1 / 6))
    with pytest.raises(finefem.CoefficientBoundsError, match="low at"):
        geom.area_weighted(A)


def test_coefficient_bounds_checked():
    pts = np.array([[0.25, 0.5], [0.75, 0.5]])
    # the values 1 and 3, each at one bound, and each once out of bounds
    step = lambda x, y: np.where(x < 0.5, 1.0, 3.0)
    ok = finefem.Field("step", step, (1.0, 3.0))
    assert np.array_equal(ok.at(pts), [1.0, 3.0])
    for lo, hi, x in ((1.5, 3.0, "0.25"), (1.0, 2.5, "0.75")):
        with pytest.raises(finefem.CoefficientBoundsError,
                           match=f"step at \\({x}"):
            finefem.Field("step", step, (lo, hi)).at(pts)
    for bad in (np.nan, np.inf):
        field = finefem.Field(
            "bad", lambda x, y: np.where(x > 0.5, bad, 1.0), (0.5, 2.0))
        with pytest.raises(finefem.CoefficientBoundsError, match="0.75"):
            field.at(pts)
    assert issubclass(finefem.CoefficientBoundsError, ValueError)


def test_rhs_fields(rng):
    f = finefem.constant_rhs(-1.0)
    x = rng.random(10)
    assert np.array_equal(f.at(np.column_stack([x, x])), np.full(10, -1.0))
    g = finefem.gaussian_rhs()
    pts = rng.random((50, 2))
    h = 1e-6
    gx, gy = g.grad(pts[:, 0], pts[:, 1])
    fdx = (g.at(pts + [h, 0]) - g.at(pts - [h, 0])) / (2 * h)
    fdy = (g.at(pts + [0, h]) - g.at(pts - [0, h])) / (2 * h)
    scale = 1.0 + np.abs(gx).max()
    assert np.abs(gx - fdx).max() < 1e-5 * scale
    assert np.abs(gy - fdy).max() < 1e-5 * scale


def test_quad_points_sum_to_area(fine_quad44, fine_tri44):
    for fine, area in ((fine_quad44, 1 / 16), (fine_tri44, 1 / 32)):
        geom = finefem.element_geometry(fine, 3)
        for order in (1, 3):
            _, w = quad_points(geom, order)
            assert abs(w.sum() - area) < 1e-15
        with pytest.raises(ValueError):
            quad_points(geom, 2)


def test_geometry_caches(fine_quad44):
    assert finefem.element_geometry(fine_quad44, 2) is \
        finefem.element_geometry(fine_quad44, 2)
    assert finefem.global_geometry(fine_quad44) is \
        finefem.global_geometry(fine_quad44)
    # the load vector is kept per load object, read-only
    geom = finefem.element_geometry(fine_quad44, 2)
    f, g = finefem.gaussian_rhs(), finefem.gaussian_rhs()
    b = finefem.load_vector(geom, f)
    assert finefem.load_vector(geom, f) is b and not b.flags.writeable
    assert finefem.load_vector(geom, g) is not b
    assert np.array_equal(finefem.load_vector(geom, g), b)
    assert abs(finefem.load_vector(geom, finefem.constant_rhs(2.0)).sum()
               - 2.0 * triangle_cells(geom)[0].sum()) < 1e-15


def test_store_keeps_one_product_per_key():
    # one (field, value) pair per key, the field compared by identity,
    # never by name; a new field drops the old value before its own is
    # made, and a shallow copy (another fixed set) shares the store
    fine = mesh.refine_to_fine(mesh.build_coarse("quad", 2, 2), 4)
    geom = finefem.global_geometry(fine)
    f, g = finefem.gaussian_rhs(), finefem.gaussian_rhs()
    assert geom._kept("k", f, lambda: "f") == "f"
    assert geom._kept("k", f, lambda: "f again") == "f"
    old_dropped = []
    assert geom._kept("k", g, lambda: old_dropped.append(
        "k" not in geom._store) or "g") == "g"
    assert old_dropped == [True]
    assert copy.copy(geom)._kept("k", g, lambda: "copy") == "g"
    assert copy.copy(geom)._kept("k", f, lambda: "f") == "f"
    assert geom._kept("k", f, lambda: "f again") == "f"


def test_first_of_each_matches_np_unique(rng):
    # 1-D keys and 2-D rows compared whole, as np.unique numbers them
    for keys in (rng.integers(0, 7, 50), rng.integers(0, 3, (50, 3)),
                 np.zeros(0, dtype=int), np.zeros((0, 2), dtype=int)):
        first, inverse = finefem.first_of_each(keys)
        _, want_first, want_inverse = np.unique(
            keys, axis=0, return_index=True, return_inverse=True)
        assert np.array_equal(first, want_first)
        assert np.array_equal(inverse, want_inverse.ravel())


def test_assemble_matches_dense(fine_quad44):
    A = finefem.periodic_benchmark(0.25)
    geom = finefem.element_geometry(fine_quad44, 6)
    sys_ = finefem.assemble(geom, A, f=finefem.constant_rhs(-1.0))
    Kd = dense_stiffness(geom, A)
    free = free_vertices(geom)
    K = dense(sys_.K)
    diff = np.abs(K - Kd[np.ix_(free, free)]).max()
    assert diff < 1e-15 * np.abs(Kd).max()
    # symmetry is exact, not approximate
    assert np.abs(K - K.T).max() == 0.0


@pytest.mark.parametrize("kind", ["quad", "triangle"])
def test_patch_groups_reproduce_each_patch(kind):
    # every member's gathered stiffness and load equal those of its own
    # patch geometry bitwise; triangles come in a lower and an upper shape
    coarse = mesh.build_coarse(kind, 3, 2)
    fine = mesh.refine_to_fine(coarse, 4)
    A, f = finefem.periodic_benchmark(0.25), finefem.gaussian_rhs()
    groups = finefem.patch_groups(fine, range(coarse.n_elements))
    assert len(groups) == (1 if kind == "quad" else 2)
    assert sorted(K for g in groups for K in g.elements) == \
        list(range(coarse.n_elements))
    for g in groups:
        Kt, b = stiffness(*group_weights(g, A)), g.load_vectors(f)
        for e, K in enumerate(g.elements):
            geom = finefem.element_geometry(fine, K)
            assert np.array_equal(geom.vids, g.template.vids + g.origins[e])
            assert np.array_equal(local_triangles(geom),
                                  local_triangles(g.template))
            assert np.array_equal(Kt[e], stiffness(
                triangle_gradients(geom), tensor(geom.area_weighted(A))))
            assert np.array_equal(b[e], finefem.load_vector(geom, f))


@pytest.mark.parametrize("kind", ["quad", "triangle"])
def test_batched_stencils_match_each_patch(kind):
    # one scatter over a stack of congruent patches gives each member the
    # stencil of its own patch geometry, bitwise, with the contrast
    # coefficient: the 5-point stencil, no north-east couplings
    coarse = mesh.build_coarse(kind, 3, 2)
    fine = mesh.refine_to_fine(coarse, 5)
    A = contrast_field()
    for g in finefem.patch_groups(fine, range(coarse.n_elements)):
        st = g.stencil(A)
        assert st.coef.shape == (len(g.elements), 3,
                                 g.template.box[0][0] * g.template.box[0][1])
        for e, K in enumerate(g.elements):
            geom = finefem.element_geometry(fine, K)
            one = finefem.Stencil.of(geom, geom.area_weighted(A))
            assert one.coef.tobytes() == st.coef[e].tobytes()


@pytest.mark.parametrize("kind", ["quad", "triangle"])
def test_stacked_stencil_applies_member_by_member(kind, rng):
    # a stack of stencils applies along the box positions, each member to
    # its own fields, bitwise as the member's stencil alone, the east and
    # north couplings only
    coarse = mesh.build_coarse(kind, 3, 2)
    fine = mesh.refine_to_fine(coarse, 4)
    A = contrast_field()
    for g in finefem.patch_groups(fine, range(coarse.n_elements)):
        st = g.stencil(A)
        assert [k for _, k in st.couplings] == [1, st.grid[1]]
        U = rng.standard_normal(st.centre.shape)
        out = st.apply(U)
        stacked = finefem.Stencil(st.grid, st.coef[:, None])
        U3 = rng.standard_normal((len(U), 2, U.shape[1]))
        out3, full3 = stacked.apply(U3), stacked.apply_full(U3)
        for e in range(len(U)):
            one = finefem.Stencil(st.grid, st.coef[e])
            assert out[e].tobytes() == one.apply(U[e]).tobytes()
            for i in range(2):
                assert out3[e, i].tobytes() == one.apply(U3[e, i]).tobytes()
                assert full3[e, i].tobytes() == \
                    one.apply_full(U3[e, i]).tobytes()
            # the difference form is the same operator, its rows summing
            # to zero
            assert np.abs(full3[e] - out3[e]).max() <= \
                1e-13 * np.abs(out3[e]).max()


def test_sweep_rejects_a_mislabelled_patch_shape(tri44):
    # an upper triangle labelled with the lower shape gets the lower
    # shape's window mask: its edge chains are not the template's shifted,
    # so the offline sweep refuses it before solving anything
    fine = mesh.refine_to_fine(tri44, 4)
    fine.patch_shape = lambda K: 0 * K
    with pytest.raises(ValueError, match="element 1: edge chains are not a "
                                         "translate of those of element 0"):
        localbasis.compute_all(fine, finefem.identity_field(),
                               mesh.DegreeAssignment.uniform(tri44, 1, 0))


@pytest.mark.parametrize("kind", ["quad", "triangle"])
def test_patch_groups_broadcast_the_template(kind):
    # member vertices and boundaries are the template's at the member's
    # origin, which is each element's own patch, and the triangle ids are
    # each element's own; the mesh keeps one pattern per shape and no
    # per-element arrays
    coarse = mesh.build_coarse(kind, 4, 3)
    fine = mesh.refine_to_fine(coarse, 5)
    groups = finefem.patch_groups(fine, range(coarse.n_elements))
    assert sum(len(g.elements) for g in groups) == coarse.n_elements
    for g in groups:
        t = g.template
        for K, origin, tri_ids in zip(g.elements, g.origins,
                                      member_triangle_ids(g)):
            vids = element_vertex_ids(fine, int(K))
            bnd = element_boundary_vertex_ids(fine, int(K))
            assert np.array_equal(t.vids + origin, vids)
            assert np.array_equal(t.vids[t.boundary_local] + origin, bnd)
            assert np.array_equal(tri_ids, element_triangle_ids(fine, int(K)))
    assert len(fine._shape_cache) == len(groups)
    assert not any(isinstance(v, dict) and len(v) >= coarse.n_elements
                   for v in vars(fine).values())


def test_pcg_matches_direct(fine_quad44, pcg_iters):
    A = finefem.periodic_benchmark(0.25)
    geom = finefem.global_geometry(fine_quad44)
    sys_ = finefem.assemble(geom, A, f=finefem.constant_rhs(-1.0))
    u = multigrid.solve_spd(sys_, rel_tol=1e-13)
    x_direct = np.linalg.solve(dense(sys_.K), sys_.rhs)
    rel = (np.abs(u.values[free_vertices(geom)] - x_direct).max()
           / np.abs(x_direct).max())
    assert rel < 1e-9
    assert len(pcg_iters) == 1 and pcg_iters[0] > 0


def test_pcg_zero_rhs(fine_quad44):
    A = finefem.identity_field()
    geom = finefem.element_geometry(fine_quad44, 0)
    sys_ = finefem.assemble(geom, A)
    x, it = finefem.pcg(sys_.K, np.zeros(sys_.K.shape[0]), 1e-12)
    assert it == 0 and not x.any()


def test_pcg_divergence_reports_residual(fine_quad44):
    A = finefem.identity_field()
    geom = finefem.element_geometry(fine_quad44, 0)
    sys_ = finefem.assemble(geom, A, f=finefem.constant_rhs(1.0))
    with pytest.raises(finefem.SolverDivergenceError) as exc:
        finefem.pcg(sys_.K, sys_.rhs, 1e-14, cap=1)
    assert exc.value.residual > 0.0 and np.isfinite(exc.value.residual)


class CountedMatrix:
    """A dense matrix for pcg that counts its products."""

    def __init__(self, M):
        self.M, self.shape, self.products = M, M.shape, 0

    def __matmul__(self, x):
        self.products += 1
        return self.M @ x

    def diagonal(self):
        return np.diag(self.M)


def test_pcg_stops_at_once_on_non_finite_numbers():
    # a right-hand side that is not finite fails before the first product,
    # a residual that is not finite right after it, not at the cap
    K = CountedMatrix(np.diag([2.0, 3.0, 4.0]))
    for bad in (np.nan, np.inf):
        with pytest.raises(finefem.SolverDivergenceError,
                           match="right-hand side is not finite"):
            finefem.pcg(K, np.array([1.0, bad, 1.0]), 1e-12, cap=1000)
    assert K.products == 0
    K = CountedMatrix(np.array([[2.0, np.nan], [np.nan, 2.0]]))
    with pytest.raises(finefem.SolverDivergenceError,
                       match="residual is not finite after 1 iterations"):
        finefem.pcg(K, np.ones(2), 1e-12, cap=1000)
    assert K.products == 1


@pytest.mark.parametrize("M,b", [
    ([[1.0, 0.0], [0.0, -1.0]], [1.0, 1.0]),          # p.Kp = 0
    ([[-1.0, 0.0], [0.0, -2.0]], [1.0, 1.0]),         # p.Kp < 0
    ([[1e300, 0.0], [0.0, 1e300]], [1e10, 1e10])],    # p.Kp overflows
    ids=["zero", "negative", "overflow"])
def test_pcg_breakdown_stops_at_once(M, b):
    # a search direction without positive finite energy stops CG at the
    # first product with SolverDivergenceError, not a ZeroDivisionError or
    # a run to the cap without progress
    K = CountedMatrix(np.array(M))
    with np.errstate(over="ignore"), pytest.raises(
            finefem.SolverDivergenceError,
            match="CG breakdown: p.Kp = .* at iteration 1"):
        finefem.pcg(K, np.array(b), 1e-8, precond=lambda r: r, cap=1000)
    assert K.products == 1


def test_solve_spd_tol_validation(fine_quad44):
    A = finefem.identity_field()
    sys_ = finefem.assemble(finefem.element_geometry(fine_quad44, 0), A)
    for bad in (0.0, 1.0, -1e-3):
        with pytest.raises(ValueError):
            multigrid.solve_spd(sys_, rel_tol=bad)


def test_cg_deterministic(fine_quad44, pcg_iters):
    A = finefem.periodic_benchmark(0.25)
    geom = finefem.global_geometry(fine_quad44)
    sys_ = finefem.assemble(geom, A, f=finefem.constant_rhs(-1.0))
    u1 = multigrid.solve_spd(sys_)
    u2 = multigrid.solve_spd(sys_)
    assert np.array_equal(u1.values, u2.values)
    assert len(pcg_iters) == 2 and pcg_iters[0] == pcg_iters[1]


def test_load_vector_constant(fine_quad44):
    geom = finefem.element_geometry(fine_quad44, 9)
    b = finefem.load_vector(geom, finefem.constant_rhs(-1.0))
    assert abs(b.sum() + 1 / 16) < 1e-15


def test_energy_galerkin_identity(fine_quad44):
    # at the solution, E(u) = -1/2 a(u,u)
    A = finefem.periodic_benchmark(0.25)
    f = finefem.constant_rhs(-1.0)
    geom = finefem.global_geometry(fine_quad44)
    u = multigrid.solve_spd(finefem.assemble(geom, A, f=f), rel_tol=1e-13)
    a_uu = energy_inner(u, u, A)
    E = energy(u, A, f=f)
    assert abs(E + 0.5 * a_uu) < 1e-10 * abs(a_uu)


def test_energy_is_minus_half_the_load_work(fine_quad44):
    # at the solution, E(u) = -1/2 b . u with the load vector b of the
    # same quadrature, to solver tolerance
    A = finefem.periodic_benchmark(0.25)
    f = finefem.gaussian_rhs()
    geom = finefem.global_geometry(fine_quad44)
    u = multigrid.solve_spd(finefem.assemble(geom, A, f=f), rel_tol=1e-13)
    b_u = finefem.dot(finefem.load_vector(geom, f), u.values)
    assert abs(energy(u, A, f=f) + 0.5 * b_u) < 1e-11 * abs(b_u)


def test_energy_inner_matrix_pairwise(fine_quad44, rng):
    A = finefem.periodic_benchmark(0.25)
    geom = finefem.element_geometry(fine_quad44, 7)
    V = rng.standard_normal((3, geom.n_vertices))
    M = energy_gram(V, geom, A)
    assert np.array_equal(M, M.T)
    assert np.array_equal(np.diagonal(M), finefem.energy_inner_matrix(
        V, geom, A))
    for i in range(3):
        for j in range(3):
            vi = finefem.FineFunction(geom, V[i])
            vj = finefem.FineFunction(geom, V[j])
            pair = energy_inner(vi, vj, A)
            assert abs(M[i, j] - pair) < 1e-13 * max(1.0, abs(pair))


def test_energy_inner_matrix_blocks_match_one_pass(fine_quad44, rng):
    # 40 rows on 2048 triangles go in three triangle blocks; the one-pass
    # sum over all triangles is the reference
    A = finefem.periodic_benchmark(0.25)
    geom = finefem.global_geometry(fine_quad44)
    V = rng.standard_normal((40, geom.n_vertices))
    W = rng.standard_normal((5, geom.n_vertices))
    areas, centroids = triangle_cells(geom)
    AW = tensor(areas * A.at(centroids))
    grads, tris = triangle_gradients(geom), local_triangles(geom)
    gV = np.einsum("bti,tid->btd", V[:, tris], grads)
    gW = np.einsum("bti,tid->btd", W[:, tris], grads)
    for got, want in ((energy_gram(V, geom, A),
                       np.einsum("btd,tde,cte->bc", gV, AW, gV)),
                      (finefem.energy_inner_matrix(V, geom, A),
                       np.einsum("btd,tde,btd->b", gV, AW, gV)),
                      (energy_products(V, geom, A, W),
                       np.einsum("btd,tde,cte->bc", gV, AW, gW))):
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_energy_inner_rejects_mixed_meshes(fine_quad44):
    A = finefem.identity_field()
    g0 = finefem.element_geometry(fine_quad44, 0)
    g1 = finefem.element_geometry(fine_quad44, 1)
    v = finefem.FineFunction(g0, np.zeros(g0.n_vertices))
    w = finefem.FineFunction(g1, np.zeros(g1.n_vertices))
    with pytest.raises(ValueError, match="different meshes"):
        energy_inner(v, w, A)


def test_poisson_center_value_vs_series():
    coarse = mesh.build_coarse("quad", 4, 4)
    fine = mesh.refine_to_fine(coarse, 16)  # h = 1/64
    geom = finefem.global_geometry(fine)
    u = multigrid.solve_spd(
        finefem.assemble(geom, finefem.identity_field(),
                         f=finefem.constant_rhs(1.0)))
    center = int(np.flatnonzero(
        (fine.vertices[:, 0] == 0.5) & (fine.vertices[:, 1] == 0.5))[0])
    exact = fourier_poisson_center()
    assert abs(u.values[center] - exact) / exact < 2e-3


def interpolation_matrix(coarse_geom, fine_geom):
    """P1 interpolation of the coarse lattice hats at the fine lattice
    vertices, (fine vertices, coarse vertices), by point location in
    coarse cell units: the lower triangle (SW, SE, NE) of a cell holds
    t <= s, the upper one (SW, NE, NW) t >= s."""
    ncx, ncy = coarse_geom.lattice
    (x0, y0), (x1, y1) = coarse_geom.points[0], coarse_geom.points[-1]
    u = (fine_geom.points[:, 0] - x0) / (x1 - x0) * ncx
    v = (fine_geom.points[:, 1] - y0) / (y1 - y0) * ncy
    cx = np.minimum(np.floor(u), ncx - 1).astype(int)
    cy = np.minimum(np.floor(v), ncy - 1).astype(int)
    s, t = u - cx, v - cy
    sw = cy * (ncx + 1) + cx
    se, ne, nw = sw + 1, sw + ncx + 2, sw + ncx + 1
    lower = t <= s
    P = np.zeros((fine_geom.n_vertices, coarse_geom.n_vertices))
    rows = np.arange(fine_geom.n_vertices)
    for cols, w in ((sw, np.where(lower, 1 - s, 1 - t)),
                    (se, np.where(lower, s - t, 0.0)),
                    (ne, np.where(lower, t, s)),
                    (nw, np.where(lower, 0.0, t - s))):
        np.add.at(P, (rows, cols), w)
    return P


def on_lattice(level, x):
    """Free-vertex values of a level as its lattice array, zero at the
    fixed vertices."""
    U = np.zeros(level.shape[0] * level.shape[1])
    U[level.free] = x
    return U.reshape(level.shape)


def hierarchy_geometries(geom, AW):
    """The lattice geometries of every level below geom, via coarsen."""
    out = [geom]
    while (coarser := coarsen(out[-1], AW)) is not None:
        out.append(coarser[0])
        AW = coarser[1]
    return out


@pytest.mark.parametrize("kind", ["quad", "triangle"])
@pytest.mark.parametrize("fixed", ["boundary", "skeleton"])
def test_coarse_operators_are_galerkin_products(kind, fixed):
    # every coarse operator equals P^T K P of the level above with an
    # explicit interpolation matrix; 2x1 coarse cells on 32x16 fine cells
    # (non-square cells), three levels or more
    coarse = mesh.build_coarse(kind, 2, 1)
    fine = mesh.refine_to_fine(coarse, 16)
    geom = (finefem.global_geometry(fine) if fixed == "boundary"
            else skeleton_geometry(fine))
    system = finefem.assemble(geom, finefem.periodic_benchmark(0.25))
    mg = multigrid.Multigrid(system)
    geoms = hierarchy_geometries(geom, tensor(system.AW))
    assert len(mg.levels) == len(geoms) >= 3
    for lev_f, lev_c, gf, gc in zip(mg.levels, mg.levels[1:], geoms,
                                    geoms[1:]):
        P = interpolation_matrix(gc, gf)[np.ix_(lev_f.free, lev_c.free)]
        want = P.T @ dense(lev_f.K) @ P
        got = dense(lev_c.K)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        # and the hierarchy's own transfer is that interpolation
        xc = np.random.default_rng(3).standard_normal(len(lev_c.free))
        Uf = multigrid._prolong(on_lattice(lev_c, xc),
                                np.zeros(lev_f.shape)).ravel()
        assert np.abs(Uf[lev_f.free] - P @ xc).max() <= 1e-15
        assert not Uf[np.setdiff1d(np.arange(gf.n_vertices), lev_f.free)].any()
        rf = np.random.default_rng(4).standard_normal(len(lev_f.free))
        rc = multigrid._restrict(on_lattice(lev_f, rf)).ravel()[lev_c.free]
        assert np.abs(rc - P.T @ rf).max() <= 1e-14


@pytest.mark.parametrize("kind,nx,n_sub,boundary_levels,skeleton_levels", [
    ("quad", 4, 16, 6, 4),      # 64 cells down to 2; n_sub 16 down to 2
    ("quad", 4, 6, 4, 2),       # n_sub 3 is odd one level down
    ("quad", 4, 7, 3, 1),       # 28 cells to 7; an odd skeleton
    ("quad", 5, 3, 1, 1),       # 15 cells
    ("triangle", 2, 4, 3, 1)])  # triangles with n_sub 2 have no interior
def test_coarsening_stops(kind, nx, n_sub, boundary_levels, skeleton_levels):
    # at an odd cell count, before a level without free vertices, and for
    # the skeleton where n_sub turns odd
    fine = mesh.refine_to_fine(mesh.build_coarse(kind, nx, nx), n_sub)
    A = finefem.identity_field()
    for geom, levels in ((finefem.global_geometry(fine), boundary_levels),
                         (skeleton_geometry(fine), skeleton_levels)):
        mg = multigrid.Multigrid(finefem.assemble(geom, A))
        assert len(mg.levels) == levels


def test_prolongation_reproduces_linear_functions():
    coarse = mesh.build_coarse("triangle", 2, 2)
    fine = mesh.refine_to_fine(coarse, 8)
    geoms = hierarchy_geometries(finefem.global_geometry(fine),
                                 np.ones((2 * 16 * 16, 2, 2)))
    for gf, gc in zip(geoms, geoms[1:]):
        lin = lambda p: 2.0 * p[:, 0] + 3.0 * p[:, 1] - 1.0
        ncx, ncy = gc.lattice
        Uf = multigrid._prolong(lin(gc.points).reshape(ncy + 1, ncx + 1),
                                np.zeros((2 * ncy + 1, 2 * ncx + 1)))
        assert np.array_equal(Uf.ravel(), lin(gf.points))


@pytest.mark.parametrize("nx,n_sub", [(3, 5), (1, 3), (2, 67)])
@pytest.mark.parametrize("skeleton", [False, True])
def test_lattice_that_cannot_coarsen_runs_jacobi_pcg(skeleton, nx, n_sub,
                                                     pcg_iters):
    # an odd number of fine cells, or (2x2 quads, n_sub 67) a coarsest
    # level of 67x67 cells whose rows of 66 are too wide to factor: one
    # level, never factored however few its free vertices, so the V-cycle
    # is the inverse diagonal and pcg runs bitwise as Jacobi-PCG, on the
    # box arrays solve_spd iterates on
    fine = mesh.refine_to_fine(mesh.build_coarse("quad", nx, nx), n_sub)
    geom = (skeleton_geometry(fine) if skeleton
            else finefem.global_geometry(fine))
    system = finefem.assemble(geom, finefem.periodic_benchmark(0.25),
                              f=finefem.constant_rhs(-1.0))
    mg = multigrid.Multigrid(system)
    assert len(mg.levels) == 1
    K, b = system.K, system.K.box(system.rhs)
    dinv = K.box(1.0 / K.diagonal())
    x_mg, it_mg = finefem.pcg(K, b, 1e-12, mg)
    x_j, it_j = finefem.pcg(K, b, 1e-12, lambda r: dinv * r)
    assert it_mg == it_j > 1
    assert np.array_equal(x_mg, x_j) and not x_j[~K.mask].any()
    u = multigrid.solve_spd(system)
    assert pcg_iters[-1] == it_j
    assert np.array_equal(u.values[free_vertices(geom)], x_j[K.mask])


@pytest.mark.parametrize("kind,nx,n_sub,skeleton,levels,A", [
    ("quad", 2, 33, False, 2, "periodic"),   # 32 rows of 32 on 33x33 cells
    ("quad", 2, 4, True, 2, "periodic"),     # bottom rows 1 and 3 do not couple
    ("triangle", 2, 4, False, 3, "periodic"),  # the one free vertex of 2x2
    ("quad", 4, 6, True, 2, "anisotropic")],  # the contrast coefficient
    ids=["quad-2-33-False-2", "quad-2-4-True-2", "triangle-2-4-False-3",
         "quad-4-6-True-2-anisotropic"])
def test_coarsest_level_is_solved_exactly(kind, nx, n_sub, skeleton, levels,
                                          A):
    fine = mesh.refine_to_fine(mesh.build_coarse(kind, nx, nx), n_sub)
    geom = (skeleton_geometry(fine) if skeleton
            else finefem.global_geometry(fine))
    A = (finefem.periodic_benchmark(0.5) if A == "periodic"
         else contrast_field())
    system = finefem.assemble(geom, A, f=finefem.gaussian_rhs())
    mg = multigrid.Multigrid(system)
    assert len(mg.levels) == levels
    bottom = mg.levels[-1]
    r = np.random.default_rng(5).standard_normal(len(bottom.free))
    want = np.linalg.solve(dense(bottom.K), r)
    got = mg._bottom(r)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def row_loop_bottom_blocks(K):
    """(D, E) of the coarsest level K built lattice row by lattice row, as
    Multigrid did before its blocks came from multigrid.RowBlocks; kept as
    reference."""
    st, cols, slots = K.stencil, K.stencil.grid[1], K.slots
    rows = slots // cols
    ends = np.append(np.flatnonzero(np.diff(rows)) + 1, len(rows))
    D, E = [], []
    prev = np.zeros(0, dtype=int)
    for a, b in zip(np.append(0, ends[:-1]), ends):
        s = slots[a:b]
        Dk = np.diag(st.centre[s])
        i = np.flatnonzero(np.diff(s) == 1)
        Dk[i, i + 1] = Dk[i + 1, i] = st.east[s[i]]
        Ek = np.zeros((len(s), len(prev)))
        if len(prev) and prev[0] // cols + 1 == s[0] // cols:
            at = np.full(cols, -1)
            at[prev % cols] = np.arange(len(prev))
            j = at[s % cols]
            k = np.flatnonzero(j >= 0)
            Ek[k, j[k]] = st.north[s[k] - cols]
        D.append(Dk[None])
        E.append(Ek[None])
        prev = s
    return D, E


@pytest.mark.parametrize("kind,nx,n_sub,skeleton,A", [
    ("quad", 4, 6, True, "anisotropic"),    # the contrast coefficient
    ("quad", 2, 4, True, "periodic"),       # lattice row 2 has no free vertex
    ("triangle", 2, 8, False, "anisotropic"),
    ("quad", 2, 33, False, "periodic")])    # 32 rows of 32
def test_bottom_blocks_match_the_row_loop(kind, nx, n_sub, skeleton, A):
    # the coarsest level's blocks are bitwise those of the per-row loop
    fine = mesh.refine_to_fine(mesh.build_coarse(kind, nx, nx), n_sub)
    geom = (skeleton_geometry(fine) if skeleton
            else finefem.global_geometry(fine))
    A = (finefem.periodic_benchmark(0.5) if A == "periodic"
         else contrast_field())
    mg = multigrid.Multigrid(finefem.assemble(geom, A))
    assert len(mg.levels) > 1
    K = mg.levels[-1].K
    rows = np.unique(K.slots // K.stencil.grid[1])
    if nx == 2 and n_sub == 4:
        assert len(rows) < rows[-1] - rows[0] + 1
    D0, E0 = row_loop_bottom_blocks(K)
    blocks = multigrid.RowBlocks(K.slots, K.stencil.grid)
    D, C = split(blocks, K.stencil)
    E = dense_couplings(C, blocks.widths)
    assert len(D) == len(D0) == len(rows)
    assert all(a.shape == b.shape and a.tobytes() == b.tobytes()
               for a, b in zip(D + E, D0 + E0))
    # the coupling-vector elimination, one coupling per row, against the
    # dense one: bitwise
    assert all(cols.shape == vals.shape[1:] == (w,)
               for (cols, vals), w in zip(C, blocks.widths))
    check_against_dense(blocks, mg._factor, D0, E0)


def test_multigrid_pcg_matches_jacobi_pcg():
    # the preconditioner changes the path, not the solution: 64x64 fine
    # cells coarsen down to 2x2
    fine = mesh.refine_to_fine(mesh.build_coarse("quad", 4, 4), 16)
    A = finefem.periodic_benchmark(0.125)
    system = finefem.assemble(finefem.global_geometry(fine), A,
                              f=finefem.constant_rhs(-1.0))
    mg = multigrid.Multigrid(system)
    assert len(mg.levels) == 6
    K = system.K
    x_mg, it_mg = finefem.pcg(K, K.box(system.rhs), 1e-12, mg)
    x_j, it_j = finefem.pcg(K, system.rhs, 1e-12)
    assert it_mg <= 20 < it_j
    assert np.abs(x_mg[K.mask] - x_j).max() <= 1e-11 * np.abs(x_j).max()


# ---------------------------------------------------------------------------
# the lattice operator against an independent sparse assembly


def element_csr(geom, Ke):
    """K_ff of geom from element matrices Ke (nt, 3, 3) as a scipy CSR
    matrix: duplicate entries summed in triangle order (np.unique and
    bincount; scipy's own duplicate sum orders a row by an unstable sort,
    which can move a diagonal sum by an ulp), mirrored through the
    transpose, free rows and columns sliced out."""
    n, tris = geom.n_vertices, local_triangles(geom)
    keys = (np.repeat(tris, 3, axis=1) * n + np.tile(tris, (1, 3))).ravel()
    uniq, inv = np.unique(keys, return_inverse=True)
    K = sp.csr_matrix((np.bincount(inv.ravel(), Ke.ravel()),
                       (uniq // n, uniq % n)), shape=(n, n))
    K = (K + K.T) * 0.5
    free = np.setdiff1d(np.arange(n), geom.boundary_local)
    return K[free][:, free]


def assert_operator_matches(op, K):
    assert op.shape == K.shape
    assert np.array_equal(op.diagonal(), K.diagonal())
    assert op.nnz == K.nnz
    x = np.random.default_rng(11).standard_normal(K.shape[0])
    want = K @ x
    assert np.abs(op @ x - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("coef", ["periodic", "anisotropic"])
@pytest.mark.parametrize("case", ["global", "skeleton", "quad patch",
                                  "triangle patch"])
def test_lattice_operator_matches_element_csr(case, coef, fine_quad44,
                                              fine_tri44):
    A = (finefem.periodic_benchmark(0.25) if coef == "periodic"
         else contrast_field())
    geom = {"global": lambda: finefem.global_geometry(fine_quad44),
            "skeleton": lambda: skeleton_geometry(fine_tri44),
            "quad patch": lambda: finefem.element_geometry(fine_quad44, 6),
            "triangle patch": lambda: finefem.element_geometry(fine_tri44,
                                                               5)}[case]()
    system = finefem.assemble(geom, A)
    Ke = stiffness(triangle_gradients(geom), tensor(geom.area_weighted(A)))
    # the element matrices couple no SW-NE diagonal, so the 5-point
    # stencil holds every nonzero entry (nnz agree)
    assert not sw_ne_couplings(geom, Ke).any()
    assert_operator_matches(system.K, element_csr(geom, Ke))


@pytest.mark.parametrize("kind,n_sub,fixed", [("quad", 8, "boundary"),
                                              ("triangle", 16, "skeleton")])
def test_multigrid_levels_match_element_csr(kind, n_sub, fixed):
    # every level's operator is the stencil of the summed coefficients of
    # its coarse triangles, on 2x2 coarse cells
    fine = mesh.refine_to_fine(mesh.build_coarse(kind, 2, 2), n_sub)
    geom = (finefem.global_geometry(fine) if fixed == "boundary"
            else skeleton_geometry(fine))
    system = finefem.assemble(geom, contrast_field())
    mg = multigrid.Multigrid(system)
    assert len(mg.levels) >= 3
    AW = tensor(system.AW)
    for l, lev in enumerate(mg.levels):
        if l:
            geom, AW = coarsen(geom, AW)
        assert_operator_matches(
            lev.K, element_csr(geom, stiffness(triangle_gradients(geom), AW)))


def test_same_name_coefficients_get_their_own_operators():
    # the operator is kept per coefficient object, compared by identity:
    # two fields that share a name must never share a matrix
    fine = mesh.refine_to_fine(mesh.build_coarse("quad", 2, 2), 8)
    geom = finefem.global_geometry(fine)
    f = finefem.constant_rhs(-1.0)
    A1 = finefem.Field("twin", lambda x, y: 1.0 + x, (1.0, 2.0))
    A2 = finefem.Field("twin", lambda x, y: 2.0 - x, (1.0, 2.0))
    s1, s2 = finefem.assemble(geom, A1, f), finefem.assemble(geom, A2, f)
    assert not np.array_equal(s1.K.diagonal(), s2.K.diagonal())
    u1, u2 = multigrid.solve_spd(s1), multigrid.solve_spd(s2)
    assert np.abs(u1.values - u2.values).max() > 1e-3 * np.abs(u1.values).max()
    # back to A1 after A2: rebuilt, not stale
    assert np.array_equal(finefem.assemble(geom, A1, f).K.diagonal(),
                          s1.K.diagonal())
    # one object, one coefficient evaluation, shared by the skeleton
    # geometry; the area-weighted coefficient formed from it is not kept,
    # and goes with the system that coarsens it
    AW = geom.area_weighted(A1)
    assert np.array_equal(geom.area_weighted(A1), AW)
    assert np.array_equal(skeleton_geometry(fine).area_weighted(A1), AW)
    system = finefem.assemble(skeleton_geometry(fine), A1)
    assert np.array_equal(system.AW, AW)
    kept = weakref.ref(system.AW)
    del system
    assert kept() is None
    # and one stencil next to it, for assembly and the energies alike
    st = geom.stencil(A1)
    assert geom.stencil(A1) is st
    assert skeleton_geometry(fine).stencil(A1) is st
    assert geom.stencil(A2) is not st
    assert not np.array_equal(geom.stencil(A2).coef, st.coef)
    assert np.array_equal(geom.stencil(A1).coef, st.coef)
    # the cached references answer as on a fresh mesh
    fresh = mesh.refine_to_fine(mesh.build_coarse("quad", 2, 2), 8)
    for A in (A1, A2):
        E = energy(errors.reference_solve(fine, A, f), A, f)
        assert E == energy(errors.reference_solve(fresh, A, f), A, f)
        assert np.array_equal(errors.bubble_reference(fine, A, f).values,
                              errors.bubble_reference(fresh, A, f).values)
    # A2 is A1 mirrored about x = 1/2, so the two reference energies agree
    # up to rounding, and the solutions are mirror images
    assert not np.array_equal(errors.reference_solve(fine, A1, f).values,
                              errors.reference_solve(fine, A2, f).values)
