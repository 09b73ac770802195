import dataclasses
import math

import numpy as np
import pytest

from conftest import (bubble_residual, edge_elements, is_boundary_edge,
                      l2_project_element)
from legmsfem import cli, estimator, finefem, globalsolve, mesh


@pytest.fixture(scope="module")
def bench18():
    """The H=1/8 oscillatory benchmark used for frozen regression values."""
    cfg = cli.RunConfig.from_dict({
        "schema": 1, "kind": "quad", "nx": 8, "ny": 8, "n_sub": 16,
        "coefficient": {"type": "periodic_benchmark", "eps": 0.0625},
        "rhs": {"type": "constant", "value": -1.0}, "N": 2, "M": 0})
    return cli.run_single(cfg)


def solve_identity(nx, n_sub, N=1, M=0, kind="quad"):
    coarse = mesh.build_coarse(kind, nx, nx)
    fine = mesh.refine_to_fine(coarse, n_sub)
    A = finefem.identity_field()
    f = finefem.constant_rhs(-1.0)
    degrees = mesh.DegreeAssignment.uniform(coarse, N, M)
    space = globalsolve.build_space(fine, A, degrees, f)
    return globalsolve.solve_coarse(globalsolve.assemble_coarse(space, A, f))


def test_compute_p_e_uniform(quad44):
    degrees = mesh.DegreeAssignment.uniform(quad44, 3, 0)
    p = estimator._p_values(quad44, quad44.interior_edge_ids, degrees)
    assert p.tolist() == [3] * len(quad44.interior_edge_ids)


def test_compute_p_e_mixed_degrees():
    # neighbours with interior-edge degree multisets {2,3,3} and {3,3,4}
    # sharing a degree-3 edge: the minimum over both elements is 2
    coarse = mesh.build_coarse("quad", 4, 3)
    degrees = mesh.DegreeAssignment.uniform(coarse, 3, 0)
    K1, K2 = 1, 2  # bottom-row neighbours, three interior edges each
    interior = lambda K: [g for g in coarse.element_edge_ids[K]
                          if not is_boundary_edge(coarse, g)]
    shared = set(interior(K1)) & set(interior(K2))
    assert len(shared) == 1
    shared = shared.pop()
    low = next(g for g in interior(K1) if g != shared)
    high = next(g for g in interior(K2)
                if g != shared and g not in interior(K1))
    degrees.N[low] = 2
    degrees.N[high] = 4
    assert sorted(degrees.N[g] for g in interior(K1)) == [2, 3, 3]
    assert sorted(degrees.N[g] for g in interior(K2)) == [3, 3, 4]
    assert estimator._p_values(coarse, [shared], degrees).tolist() == [2]


def test_jump_norm_affine_field(quad44, fine_quad44):
    geom = finefem.global_geometry(fine_quad44)
    v = finefem.FineFunction(
        geom, 2.0 * geom.points[:, 0] + 3.0 * geom.points[:, 1])
    A = finefem.periodic_benchmark(0.25)
    for eid in quad44.interior_edge_ids[:6]:
        assert estimator.jump_norm(fine_quad44, int(eid), v, A) < 1e-12


def test_jump_norm_manufactured_kink():
    # v = min(x, 1/2) on a 2x1 mesh: unit jump along the middle edge
    coarse = mesh.build_coarse("quad", 2, 1)
    fine = mesh.refine_to_fine(coarse, 4)
    geom = finefem.global_geometry(fine)
    v = finefem.FineFunction(geom, np.minimum(geom.points[:, 0], 0.5))
    mid = int(coarse.interior_edge_ids[0])
    J = estimator.jump_norm(fine, mid, v, finefem.identity_field())
    assert abs(J - 1.0) < 1e-14
    # v = 3 min(y, 1/2) under A = 2I on a 1x2 mesh: flux jump 6 along the
    # unit-length middle edge
    coarse = mesh.build_coarse("quad", 1, 2)
    fine = mesh.refine_to_fine(coarse, 4)
    geom = finefem.global_geometry(fine)
    v = finefem.FineFunction(geom, 3.0 * np.minimum(geom.points[:, 1], 0.5))
    two = finefem.Field("two", lambda x, y: np.full_like(x, 2.0),
                        (2.0, 2.0))
    (mid,) = coarse.interior_edge_ids
    v0, v1 = coarse.edge_ends[mid]
    assert v1 - v0 == 1  # horizontal
    J = estimator.jump_norm(fine, int(mid), v, two)
    assert abs(J - 6.0) < 1e-13
    # v = max(y - x, 0) on one triangle cell: gradient (-1, 1) above the
    # diagonal, flux jump sqrt(2) over length sqrt(2), so J = 2^(3/4)
    coarse = mesh.build_coarse("triangle", 1, 1)
    fine = mesh.refine_to_fine(coarse, 4)
    geom = finefem.global_geometry(fine)
    v = finefem.FineFunction(
        geom, np.maximum(geom.points[:, 1] - geom.points[:, 0], 0.0))
    (diag,) = coarse.interior_edge_ids
    J = estimator.jump_norm(fine, int(diag), v, finefem.identity_field())
    assert abs(J - 2.0 ** 0.75) < 1e-13


def test_global_estimate_jump_norms_match_per_edge(small_bench):
    space = small_bench.solution.space
    u_G = globalsolve.reconstruct(small_bench.solution, "interface")
    for eid in space.coarse.interior_edge_ids.tolist():
        J = small_bench.est.jump_norms[eid]
        one = estimator.jump_norm(space.fine, eid, u_G, space.A)
        assert abs(one - J) <= 1e-13 * J
    boundary = space.coarse.edge_element_ids[:, 1] < 0
    assert not small_bench.est.jump_norms[boundary].any()


def test_jump_norm_guards(quad44, fine_quad44):
    A = finefem.identity_field()
    egeom = finefem.element_geometry(fine_quad44, 0)
    local = finefem.FineFunction(egeom, np.zeros(egeom.n_vertices))
    with pytest.raises(ValueError, match="global fine mesh"):
        estimator.jump_norm(fine_quad44, int(quad44.interior_edge_ids[0]),
                            local, A)
    ggeom = finefem.global_geometry(fine_quad44)
    v = finefem.FineFunction(ggeom, np.zeros(ggeom.n_vertices))
    bedge = int(np.argmax(quad44.edge_element_ids[:, 1] < 0))
    with pytest.raises(ValueError, match="boundary"):
        estimator.jump_norm(fine_quad44, bedge, v, A)


def test_bubble_residual(quad44, fine_quad44):
    zero = finefem.constant_rhs(0.0)
    assert bubble_residual(fine_quad44, 5, zero, np.zeros(0), None) == 0.0
    # zero coefficients: plain L2 norm, here sqrt of the element area
    one = finefem.constant_rhs(1.0)
    got = bubble_residual(fine_quad44, 5, one, np.zeros(0), None)
    assert abs(got - 0.25) < 1e-13
    # constants lie in the M=1 bulk space: the projected residual vanishes
    geom = finefem.element_geometry(fine_quad44, 5)
    c, basis = l2_project_element(one, quad44, 5, geom, 1)
    assert bubble_residual(fine_quad44, 5, one, c, basis) < 1e-12


def test_bubble_residual_vs_tensor_gauss(quad44, fine_quad44):
    f = finefem.gaussian_rhs()
    got = bubble_residual(fine_quad44, 5, f, np.zeros(0), None)
    x, w = np.polynomial.legendre.leggauss(40)
    lo_x, lo_y = quad44.offsets[5]
    hx, hy = quad44.B[5, 0, 0], quad44.B[5, 1, 1]
    gx = lo_x + hx * (x + 1) / 2
    gy = lo_y + hy * (x + 1) / 2
    X, Y = np.meshgrid(gx, gy)
    W = np.outer(w, w) * (hx * hy / 4)
    exact = math.sqrt(float((W * f.at(np.stack([X, Y], -1)) ** 2).sum()))
    assert abs(got - exact) < 1e-2 * exact


def test_global_estimate_zero_problem(quad44, fine_quad44):
    A, f = finefem.identity_field(), finefem.constant_rhs(0.0)
    degrees = mesh.DegreeAssignment.uniform(quad44, 1, 0)
    space = globalsolve.build_space(fine_quad44, A, degrees, f)
    sol = globalsolve.solve_coarse(globalsolve.assemble_coarse(space, A, f))
    rep = estimator.global_estimate(sol)
    assert rep.value == 0.0 and rep.value_gamma == 0.0


def test_degree_zero_element_term_formula(small_bench):
    # with no bubbles the residual term degenerates to H_K^2 ||f||_K^2
    rep = small_bench.est
    coarse = small_bench.problem.coarse
    for K, (B, diameter) in enumerate(zip(coarse.B, coarse.diameters)):
        area = B[0, 0] * B[1, 1]
        expect = diameter**2 * area  # |f| = 1
        assert abs(rep.bubble_terms[K] - expect) < 1e-12 * expect
        assert abs(rep.element_residuals[K] - math.sqrt(area)) < 1e-13


def test_residual_term_h_scaling():
    # constant f, no bubbles: the residual sum scales as H^2
    r2 = estimator.global_estimate(solve_identity(2, 4))
    r4 = estimator.global_estimate(solve_identity(4, 4))
    s2 = r2.bubble_terms.sum()
    s4 = r4.bubble_terms.sum()
    assert abs(s4 / s2 - 0.25) < 1e-12


def test_eta_raises_element_terms(small_bench):
    sol = small_bench.solution
    base = estimator.global_estimate(sol, eta=0.0)
    up = estimator.global_estimate(sol, eta=0.4)
    # N = 2 > 1, so a positive eta weakens the 1/N power and grows S2
    assert (up.element_terms > base.element_terms).all()
    assert up.value > base.value
    # jump terms carry no eta dependence
    assert np.array_equal(up.jump_terms, base.jump_terms)


def test_ell_declarations(small_bench_bubbles):
    sol = small_bench_bubbles.solution
    base = estimator.global_estimate(sol, ell=0)
    mixed = estimator.global_estimate(sol, ell={0: 1})
    assert mixed.bubble_terms[0] != base.bubble_terms[0]
    for K in range(1, 16):
        assert mixed.bubble_terms[K] == base.bubble_terms[K]
    with pytest.raises(ValueError, match="not supported"):
        estimator.global_estimate(sol, ell=2)
    no_grad = finefem.Field("plain", lambda x, y: np.ones_like(x))
    with pytest.raises(ValueError, match="no gradient"):
        estimator.global_estimate(dataclasses.replace(
            sol, space=dataclasses.replace(sol.space, f=no_grad)), ell=1)


def test_localize_exact_split(small_bench):
    rep = small_bench.est
    coarse = small_bench.problem.coarse
    loc = estimator.localize(rep, coarse)
    assert loc.shape == coarse.interior_edge_ids.shape
    total = (loc * loc).sum() + rep.leftover_element_terms.sum()
    assert abs(total - rep.value_gamma**2) < 1e-10 * rep.value_gamma**2
    assert not rep.leftover_element_terms.any()
    # spot-check the share arithmetic on one edge
    eid = int(coarse.interior_edge_ids[0])
    acc = rep.jump_terms[eid]
    for K in edge_elements(coarse, eid):
        n_int = sum(1 for g in coarse.element_edge_ids[K]
                    if not is_boundary_edge(coarse, g))
        acc += rep.element_terms[K] / n_int
    assert abs(loc[0] - math.sqrt(acc)) < 1e-14


def test_localize_rejects_bubble_runs(small_bench_bubbles):
    rep = small_bench_bubbles.est
    assert rep.value_gamma is None
    with pytest.raises(ValueError, match="bubble-free"):
        estimator.localize(rep, small_bench_bubbles.problem.coarse)


def test_effectivity_map():
    ratios, flagged = estimator.effectivity_map(np.array([2.0, 0.5]),
                                                np.array([1.0, 2.0]))
    assert ratios.tolist() == [0.5, 4.0] and flagged.tolist() == []
    ratios, flagged = estimator.effectivity_map(np.array([0.0, 0.0]),
                                                np.array([0.0, 3.0]))
    assert ratios[0] == 0.0
    assert math.isinf(ratios[1]) and flagged.tolist() == [1]
    with pytest.raises(ValueError, match="different edges"):
        estimator.effectivity_map(np.array([1.0]), np.array([1.0, 2.0]))


def test_frozen_benchmark_estimate(bench18):
    frozen = 0.17076042772885425
    assert abs(bench18.est.value_gamma - frozen) < 1e-9 * frozen
    assert bench18.est.value > bench18.est.value_gamma
