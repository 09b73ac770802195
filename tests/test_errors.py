import math
import warnings

import numpy as np
import pytest

from conftest import (dense, edge_elements, edge_vertex_chain, energy,
                      energy_gram, fourier_poisson_integral, free_vertices,
                      is_boundary_edge, skeleton_geometry)
from legmsfem import cli, errors, finefem, globalsolve, mesh, multigrid


def test_relative_from_energies():
    assert errors.relative_from_energies(-1.0, -1.0) == 0.0
    assert abs(errors.relative_from_energies(-0.5, -1.0) - math.sqrt(0.5)) < 1e-15
    # tiny negative overshoot from solver noise clamps to zero
    assert errors.relative_from_energies(-1.0 - 1e-18, -1.0) == 0.0
    for bad in (0.0, 0.5):
        with pytest.raises(ValueError, match="must be negative"):
            errors.relative_from_energies(-1.0, bad)


def test_reference_solve_resolution_check():
    # each coefficient carries the period the fine lattice must resolve
    coarse = mesh.build_coarse("quad", 2, 2)
    fine = mesh.refine_to_fine(coarse, 2)  # cell 1/4
    f = finefem.constant_rhs(-1.0)
    with pytest.warns(UserWarning, match="does not resolve"):
        errors.reference_solve(fine, finefem.periodic_benchmark(0.25), f)
    with pytest.raises(ValueError, match="does not resolve"):
        errors.reference_solve(fine, finefem.periodic_benchmark(0.25), f,
                               strict=True)
    # eps is the smallest positive period; a period 0 (no variation along
    # that axis) is skipped
    for period in ((0.0, 0.25), (2.0, 0.25)):
        stripes = finefem.Field(
            "stripes", lambda x, y: 2 + np.sin(8 * np.pi * y), (1.0, 3.0),
            period)
        with pytest.warns(UserWarning, match=r"eps=2\.500e-01"):
            errors.reference_solve(fine, stripes, f)
    # exactly at the threshold no warning fires, and a coefficient with no
    # period, or none but zeros, is not checked
    ramp = finefem.Field("ramp", lambda x, y: 1 + x, (1.0, 2.0))
    for A in (finefem.periodic_benchmark(2.0), finefem.identity_field(),
              ramp):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            errors.reference_solve(fine, A, f, strict=True)


def test_energy_trick_matches_direct(small_bench, small_bench_bubbles):
    for res in (small_bench, small_bench_bubbles):
        r = res.report
        assert abs(r.E_rel - r.E_rel_direct) < 1e-8 * r.E_rel_direct


def test_report_shape(small_bench, small_bench_bubbles):
    r = small_bench.report
    assert r.E_star < 0 and r.E_num >= r.E_star
    assert r.E_rel_gamma is not None and r.E_rel_gamma < r.E_rel
    assert r.decomposition_residual is not None
    rb = small_bench_bubbles.report
    assert rb.E_rel_gamma is None
    # bubbles can only lower the energy
    assert rb.E_rel < r.E_rel


def test_bubble_reference_vanishes_on_skeleton(small_bench):
    u_B = small_bench.solution.space.bubble_reference
    fine = small_bench.problem.fine
    for eid in range(small_bench.problem.coarse.n_edges):
        assert not u_B.values[edge_vertex_chain(fine, eid)].any()
    assert not u_B.values[fine.boundary_vertex_ids()].any()


@pytest.mark.parametrize("kind,n_sub", [("quad", 2), ("quad", 4),
                                         ("triangle", 2), ("triangle", 3),
                                         ("triangle", 6)])
def test_bubble_reference_matches_patch_solves(kind, n_sub):
    # the elementwise zero-trace patch solves glued together, each solved
    # here by a dense direct solve of its assembled system; triangle
    # n_sub=2 patches have no interior vertex at all
    coarse = mesh.build_coarse(kind, 3, 2)
    fine = mesh.refine_to_fine(coarse, n_sub)
    A = finefem.periodic_benchmark(0.25)
    f = finefem.gaussian_rhs()
    patchwise = np.zeros(fine.n_vertices)
    for K in range(coarse.n_elements):
        egeom = finefem.element_geometry(fine, K)
        system = finefem.assemble(egeom, A, f)
        if len(system.rhs):
            patchwise[egeom.vids[free_vertices(egeom)]] = np.linalg.solve(
                dense(system.K), system.rhs)
    u_B = errors.bubble_reference(fine, A, f)
    assert u_B.geom is finefem.global_geometry(fine)
    scale = np.abs(patchwise).max()
    assert (scale > 0) == (kind == "quad" or n_sub > 2)
    assert np.abs(u_B.values - patchwise).max() <= 1e-12 * scale


BUBBLE_CASES = [("quad", 3, 2, 6, 2, 0), ("triangle", 3, 2, 4, 3, 0),
                ("quad", 2, 2, 5, 2, 2), ("triangle", 2, 1, 5, 1, 1),
                ("quad", 1, 1, 4, 1, 0)]
BUBBLE_IDS = ["quad-N2", "triangle-N3", "quad-N2-M2", "triangle-N1-M1",
              "quad-1x1-no-dofs"]


def bubble_problem(kind, nx, ny, n_sub):
    coarse = mesh.build_coarse(kind, nx, ny, (0.0, 1.0, 0.0, 0.8))
    fine = mesh.refine_to_fine(coarse, n_sub)
    A = finefem.Field(
        "rough", lambda x, y: 2.0 + np.sin(9.0 * x) * np.cos(7.0 * y),
        (1.0, 3.0))
    return coarse, fine, A, finefem.gaussian_rhs()


@pytest.mark.parametrize("kind,nx,ny,n_sub,N,M", BUBBLE_CASES,
                         ids=BUBBLE_IDS)
def test_offline_bubble_reference_is_the_standalone_one(kind, nx, ny, n_sub,
                                                        N, M):
    # the load rows ride along with the basis rows of the offline sweep,
    # and come out bitwise as when they are solved alone
    coarse, fine, A, f = bubble_problem(kind, nx, ny, n_sub)
    space = globalsolve.build_space(
        fine, A, mesh.DegreeAssignment.uniform(coarse, N, M), f)
    assert (space.n_dofs == 0) == (nx * ny == 1)
    alone = errors.bubble_reference(fine, A, f)
    assert space.bubble_reference.geom is alone.geom
    assert space.bubble_reference.geom is finefem.global_geometry(fine)
    assert np.array_equal(space.bubble_reference.values, alone.values)
    assert np.abs(alone.values).max() > 0


@pytest.mark.parametrize("kind,nx,ny,n_sub,N,M", BUBBLE_CASES,
                         ids=BUBBLE_IDS)
def test_bubble_reference_is_the_skeleton_solve(kind, nx, ny, n_sub, N, M):
    # its first definition: one global fine solve with every fine vertex of
    # the coarse skeleton held at zero, solved by multigrid CG here
    coarse, fine, A, f = bubble_problem(kind, nx, ny, n_sub)
    old = multigrid.solve_spd(finefem.assemble(skeleton_geometry(fine), A,
                                               f))
    new = errors.bubble_reference(fine, A, f)
    d = new.values - old.values
    G = energy_gram(np.stack([d, old.values]), new.geom, A)
    assert G[0, 0] <= 1e-20 * G[1, 1]
    E_old, E_new = energy(old, A, f), energy(new, A, f)
    assert abs(E_new - E_old) <= 1e-10 * abs(E_old)


@pytest.mark.parametrize("run", ["small_bench", "small_bench_bubbles"])
def test_evaluate_matches_separate_formulas(run, request):
    # the one-Gram report against the formulas of the separate helpers it
    # replaces, each on its own reconstruction and energy call
    res = request.getfixturevalue(run)
    sol, A, f = res.solution, res.solution.space.A, res.problem.f
    u_ref = res.u_ref
    u_B_ref = sol.space.bubble_reference
    report = errors.evaluate(sol, u_ref)
    # E* is formed from the reference's own energy row, bitwise the formula
    E_star = energy(u_ref, A, f)
    assert report.E_star == E_star
    u = globalsolve.reconstruct(sol, "total")
    E_num = energy(u, A, f)
    E_rel = errors.relative_from_energies(E_num, E_star)
    M = energy_gram(np.stack([u_ref.values - u.values, u_ref.values]),
                    u.geom, A)
    direct = math.sqrt(M[0, 0] / M[1, 1])
    d_B = u_B_ref.values - globalsolve.reconstruct(sol, "bubble").values
    d_G = (u_ref.values - u_B_ref.values) \
        - globalsolve.reconstruct(sol, "interface").values
    M = energy_gram(np.stack([u_ref.values - u.values, d_B, d_G]), u.geom,
                    A)
    resid = abs(M[0, 0] - (M[1, 1] + M[2, 2])) / M[0, 0]
    for got, want in ((report.E_num, E_num), (report.E_rel, E_rel),
                      (report.E_rel_direct, direct)):
        assert abs(got - want) <= 1e-12 * abs(want)
    assert abs(report.decomposition_residual - resid) <= 1e-12
    if sol.space.n_bubble:
        assert report.E_rel_gamma is None
    else:
        gamma = errors.relative_from_energies(
            E_num, E_star - energy(u_B_ref, A, f))
        assert abs(report.E_rel_gamma - gamma) <= 1e-12 * gamma


def full_matrix_evaluate(u_H, u_ref, u_B_ref=None):
    """errors.evaluate as it was before it formed only the energies it
    reads: the whole symmetric Gram matrix of its rows, of which it read
    the diagonal.  The bubble reference is the space's own unless one is
    given."""
    space = u_H.space
    if u_B_ref is None:
        u_B_ref = space.bubble_reference
    u_B = globalsolve.reconstruct(u_H, "bubble")
    u_G = globalsolve.reconstruct(u_H, "interface")
    geom = u_B.geom
    u = u_B.values + u_G.values
    rows = [u, u_ref.values - u, u_ref.values, u_B_ref.values,
            u_B_ref.values - u_B.values,
            (u_ref.values - u_B_ref.values) - u_G.values]
    M = energy_gram(np.stack(rows), geom, space.A)
    b = finefem.load_vector(geom, space.f)
    E_num = 0.5 * float(M[0, 0]) - finefem.dot(b, u)
    E_star = 0.5 * float(M[2, 2]) - finefem.dot(b, u_ref.values)
    E_rel = errors.relative_from_energies(E_num, E_star)
    direct = float(np.sqrt(M[1, 1] / M[2, 2]))
    gamma = None
    resid = 0.0 if M[1, 1] <= 0 else \
        float(abs(M[1, 1] - (M[4, 4] + M[5, 5])) / M[1, 1])
    E_gamma_star = E_star - (0.5 * float(M[3, 3])
                             - finefem.dot(b, u_B_ref.values))
    if not space.n_bubble and E_gamma_star < -1e-15 * abs(E_star):
        gamma = errors.relative_from_energies(E_num, E_gamma_star)
    return errors.ErrorReport(E_star, E_num, E_rel, direct, gamma, resid)


@pytest.mark.parametrize("run", ["small_bench", "small_bench_bubbles"])
@pytest.mark.parametrize("with_bubble_reference", [False, True])
def test_evaluate_is_the_full_matrix_report_bitwise(run, request,
                                                    with_bubble_reference):
    # each diagonal entry of the symmetrised matrix is the one dot product
    # a(r_i, r_i), so forming only the six energies changes no digit; and
    # the bubble reference the space solved offline is bitwise the one
    # solved alone, so the report does not change when the full-matrix
    # formula is given the standalone solve instead of the space's own
    res = request.getfixturevalue(run)
    sol, A, f = res.solution, res.solution.space.A, res.problem.f
    u_B_ref = (errors.bubble_reference(res.problem.fine, A, f)
               if with_bubble_reference else None)
    got = errors.evaluate(sol, res.u_ref)
    assert got == full_matrix_evaluate(sol, res.u_ref, u_B_ref)
    assert isinstance(got.decomposition_residual, float)
    assert (got.E_rel_gamma is not None) == (not sol.space.n_bubble)


def test_space_with_bubbles_carries_the_reference_of_its_load(
        small_bench_bubbles):
    # every space solves the bubble reference of its own load, bubbles or
    # not, so the run scores the error split of a space with bubbles too
    res = small_bench_bubbles
    space = res.solution.space
    assert space.n_bubble and space.f is res.problem.f
    alone = errors.bubble_reference(res.problem.fine, space.A, space.f)
    assert np.array_equal(space.bubble_reference.values, alone.values)
    assert res.report.decomposition_residual <= 1e-12


def test_interface_error_degenerate_denominator():
    # a single element has no interface: the bubble part is everything
    coarse = mesh.build_coarse("quad", 1, 1)
    fine = mesh.refine_to_fine(coarse, 4)
    A = finefem.identity_field()
    f = finefem.constant_rhs(-1.0)
    degrees = mesh.DegreeAssignment.uniform(coarse, 1, 0)
    space = globalsolve.build_space(fine, A, degrees, f)
    assert space.n_dofs == 0
    sol = globalsolve.solve_coarse(globalsolve.assemble_coarse(space, A, f))
    u_ref = errors.reference_solve(fine, A, f)
    report = errors.evaluate(sol, u_ref)
    assert report.E_rel_gamma is None
    assert report.E_rel == 1.0


def test_decomposition_exact_with_loose_tolerance(small_bench_bubbles):
    # the offline solves are direct and take no tolerance: the
    # bubble/interface orthogonality and the error split hold to rounding
    res = small_bench_bubbles
    space = res.solution.space
    loose = globalsolve.build_space(space.fine, space.A, space.degrees,
                                    res.problem.f)
    systems = globalsolve.assemble_coarse(loose, space.A, res.problem.f,
                                          with_cross=True)
    d_if = systems.interface_K.diagonal()
    d_b = np.concatenate([np.diag(Mb) for _, Mb, _ in systems.bubble_blocks])
    cross = np.abs(systems.cross_gram / np.sqrt(np.outer(d_b, d_if))).max()
    assert cross <= 1e-12
    sol = globalsolve.solve_coarse(systems)
    resid = errors.evaluate(sol, res.u_ref).decomposition_residual
    assert resid <= 1e-12


def test_zero_solution_has_unit_error(small_bench):
    space = small_bench.solution.space
    zero = globalsolve.CoarseSolution(space, np.zeros(space.n_dofs), 0)
    report = errors.evaluate(zero, small_bench.u_ref)
    assert report.E_rel == 1.0
    assert abs(report.E_rel_direct - 1.0) < 1e-14


def test_interface_error_map_consistency(small_bench):
    res = small_bench
    space = res.solution.space
    u_B_ref = space.bubble_reference
    edge_map, abs_err = errors.interface_error_map(res.solution, res.u_ref)
    assert edge_map.shape == space.coarse.interior_edge_ids.shape
    sum_sq = float((edge_map * edge_map).sum())
    # the localized pieces reassemble the global relative interface error
    assert abs(math.sqrt(sum_sq) - res.report.E_rel_gamma) \
        < 1e-6 * res.report.E_rel_gamma
    # and abs_err / sqrt(sum_sq) is the interface reference norm
    ref_G = res.u_ref.values - u_B_ref.values
    M = energy_gram(ref_G[None, :], res.u_ref.geom, space.A)
    assert abs(abs_err / math.sqrt(sum_sq) - math.sqrt(M[0, 0])) \
        < 1e-10 * math.sqrt(M[0, 0])


def test_interface_error_map_needs_the_space_reference(small_bench):
    # the map scores against the space's own bubble reference, so u_ref
    # must live on the space's fine mesh
    res = small_bench
    space = res.solution.space
    fine = mesh.refine_to_fine(space.coarse, space.fine.n_sub)
    other = finefem.FineFunction(finefem.global_geometry(fine),
                                 res.u_ref.values)
    with pytest.raises(ValueError, match="different fine meshes"):
        errors.interface_error_map(res.solution, other)


def test_direct_error_rejects_foreign_reference(small_bench):
    space = small_bench.solution.space
    other = mesh.refine_to_fine(space.coarse, 8)
    geom = finefem.global_geometry(other)
    fake = finefem.FineFunction(geom, np.zeros(geom.n_vertices))
    with pytest.raises(ValueError, match="different"):
        errors.evaluate(small_bench.solution, fake)


def test_reference_energy_vs_series():
    # -div(grad u) = -1 on the unit square: E* = -(1/2) int of v, v the
    # positive Poisson solution
    coarse = mesh.build_coarse("quad", 4, 4)
    fine = mesh.refine_to_fine(coarse, 16)  # h = 1/64
    A, f = finefem.identity_field(), finefem.constant_rhs(-1.0)
    E_star = energy(errors.reference_solve(fine, A, f), A, f)
    exact = -0.5 * fourier_poisson_integral()
    assert abs(E_star - exact) < 5e-3 * abs(exact)


def test_same_name_coefficients_never_share_a_matrix():
    # two different fields under one name on one fine mesh: nothing keyed on
    # the name may hand the second field the first one's stiffness or basis
    coarse = mesh.build_coarse("quad", 4, 4)
    fine = mesh.refine_to_fine(coarse, 4)
    f = finefem.constant_rhs(-1.0)
    one = finefem.Field("a", lambda x, y: np.ones_like(x), (1.0, 1.0))
    ten = finefem.Field("a", lambda x, y: np.full_like(x, 10.0),
                        (10.0, 10.0))
    errors.reference_solve(fine, one, f)
    E_ten = energy(errors.reference_solve(fine, ten, f), ten, f)
    E_fresh = energy(errors.reference_solve(mesh.refine_to_fine(coarse, 4),
                                            ten, f), ten, f)
    assert E_ten == E_fresh


def run_config(kind, nx, n_sub, N, M, eps=2.0):
    return cli.run_single(cli.RunConfig.from_dict({
        "schema": 1, "kind": kind, "nx": nx, "ny": nx, "n_sub": n_sub,
        "coefficient": {"type": "periodic_benchmark", "eps": eps},
        "rhs": {"type": "gaussian_benchmark"}, "N": N, "M": M}))


@pytest.mark.parametrize("kind,nx,n_sub", [("quad", 5, 32),
                                           ("triangle", 3, 4)])
def test_interface_error_map_matches_per_element_grams(kind, nx, n_sub):
    # the batched element energies against one Gram matrix (energy_gram)
    # per element patch geometry, split over the edges as documented; the
    # 25 quads go in two chunks, the triangles in two shapes
    res = run_config(kind, nx, n_sub, 2, 0)
    space = res.solution.space
    coarse = space.coarse
    u_B_ref = space.bubble_reference
    edge_map, abs_err = errors.interface_error_map(res.solution, res.u_ref)
    ref_G = res.u_ref.values - u_B_ref.values
    d_G = ref_G - globalsolve.reconstruct(res.solution, "interface").values
    err2 = np.zeros(coarse.n_elements)
    denom2 = 0.0
    for K in range(coarse.n_elements):
        egeom = finefem.element_geometry(space.fine, K)
        M = energy_gram(np.stack([d_G[egeom.vids], ref_G[egeom.vids]]),
                        egeom, space.A)
        err2[K] = M[0, 0]
        denom2 += M[1, 1]
    assert edge_map.shape == coarse.interior_edge_ids.shape
    for eid, got in zip(coarse.interior_edge_ids.tolist(), edge_map):
        acc = sum(err2[K] / sum(not is_boundary_edge(coarse, g)
                                for g in coarse.element_edge_ids[K])
                  for K in edge_elements(coarse, eid))
        want = math.sqrt(acc / denom2)
        assert abs(got - want) <= 1e-13 * want
    assert abs(abs_err - math.sqrt(err2.sum())) <= 1e-13 * abs_err


@pytest.mark.parametrize("kind,n_sub,N", [("triangle", 4, 4),
                                          ("quad", 3, 3)])
def test_space_as_large_as_fine_space_reproduces_reference(kind, n_sub, N):
    # N - 1 edge enrichments fill the n_sub - 1 interior vertices of each
    # edge and the M = 1 bubbles span each element's interior vertices,
    # so the enriched space is the whole fine P1 space: the offline direct
    # solves and the multigrid reference must give the same energy
    res = run_config(kind, 2, n_sub, N, 1)
    fine, space = res.problem.fine, res.solution.space
    assert space.n_dofs == len(finefem.global_geometry(fine).vids) \
        - len(fine.boundary_vertex_ids())
    system = finefem.assemble(finefem.global_geometry(fine), space.A,
                              f=res.problem.f)
    assert len(multigrid.Multigrid(system).levels) > 1
    report = res.report
    assert abs(report.E_num - report.E_star) <= 1e-12 * abs(report.E_star)
