"""Acceptance checks, one test per criterion, each printing a PASS line.

Slow machinery is shared through module fixtures; every frozen number here
was produced by the first validated run of the same code path and is pinned
against regressions.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from conftest import (element_boundary_vertex_ids, element_vertex_ids,
                      energy_gram, l2_project_element, local_triangles,
                      quad_points, to_ref, vertex_elements)
from legmsfem import (cli, errors, estimator, finefem, globalsolve,
                      localbasis, mesh, polybasis)

EPS = 1.0 / 16.0


def _pass(num: int, msg: str) -> None:
    print(f"PASS criterion {num}: {msg}")


def _cfg(**kw):
    d = {"schema": 1, "kind": "quad", "nx": 8, "ny": 8, "n_sub": 16,
         "coefficient": {"type": "periodic_benchmark", "eps": EPS},
         "rhs": {"type": "constant", "value": -1.0}, "N": 2, "M": 0}
    d.update(kw)
    return cli.RunConfig.from_dict(d)


def _with_degrees(problem, N, M):
    """Same meshes and fields, fresh uniform degree assignment."""
    deg = mesh.DegreeAssignment.uniform(problem.coarse, N, M)
    return cli.Problem(problem.fine, problem.A, problem.f, deg)


@pytest.fixture(scope="module")
def run_c1():
    """4x4 mesh with bubbles, resolved fine lattice; timed."""
    t0 = time.perf_counter()
    res = cli.run_single(_cfg(nx=4, ny=4, n_sub=32, N=2, M=1))
    return res, time.perf_counter() - t0


@pytest.fixture(scope="module")
def resonance():
    """N=1 at H=1/8 and H=1/16 plus N=4 at H=1/16, shared fine lattice."""
    t0 = time.perf_counter()
    out = {}
    out[(8, 1)] = cli.run_single(_cfg(N=1))
    cfg4 = _cfg(nx=16, ny=16, n_sub=8, N=4)
    res4 = cli.run_single(cfg4)
    out[(16, 4)] = res4
    out[(16, 1)] = cli.run_single(_cfg(nx=16, ny=16, n_sub=8, N=1),
                                  _with_degrees(res4.problem, 1, 0),
                                  u_ref=res4.u_ref)
    return out, time.perf_counter() - t0


@pytest.fixture(scope="module")
def estimator_grid():
    """Gaussian load, H in {1/4,1/8,1/16} x N in {1,2,4}, all on the
    128-cell fine lattice."""
    grid = {}
    for nx in (4, 8, 16):
        problem = u_ref = None
        for N in (4, 2, 1):
            cfg = _cfg(nx=nx, ny=nx, n_sub=128 // nx, N=N,
                       rhs={"type": "gaussian_benchmark"})
            res = cli.run_single(
                cfg, _with_degrees(problem, N, 0) if problem else None,
                u_ref=u_ref)
            if problem is None:
                problem, u_ref = res.problem, res.u_ref
            grid[(nx, N)] = res
    return grid


def test_criterion_01_bubble_interface_orthogonality(run_c1):
    res, elapsed = run_c1
    space = res.solution.space
    systems = globalsolve.assemble_coarse(space, space.A, res.problem.f,
                                          with_cross=True)
    d_if = systems.interface_K.diagonal()
    d_b = np.concatenate([np.diag(Mb) for _, Mb, _ in systems.bubble_blocks])
    worst = np.abs(systems.cross_gram / np.sqrt(np.outer(d_b, d_if))).max()
    assert worst <= 1e-8
    assert elapsed < 30.0
    _pass(1, f"max normalized bubble/interface pairing {worst:.2e} "
             f"<= 1e-8 in {elapsed:.1f}s")


def test_criterion_02_error_splitting(run_c1):
    res, _ = run_c1
    resid = res.report.decomposition_residual
    assert resid <= 1e-8
    _pass(2, f"error-splitting residual {resid:.2e} <= 1e-8")


def test_criterion_03_energy_trick(run_c1, resonance, estimator_grid):
    runs = [run_c1[0]] + list(resonance[0].values()) \
        + list(estimator_grid.values())
    worst = max(abs(r.report.E_rel - r.report.E_rel_direct)
                / r.report.E_rel_direct for r in runs)
    assert worst <= 1e-8
    _pass(3, f"energy identity vs direct quotient, worst over "
             f"{len(runs)} runs {worst:.2e} <= 1e-8")


def test_criterion_04_nested_monotonicity(tmp_path):
    t0 = time.perf_counter()
    out_n = tmp_path / "n.csv"
    assert cli.cmd_sweep(_cfg(), "N", [1, 2, 3, 4, 5, 6], str(out_n)) == 0
    errs_n = [float(l.split(",")[6])
              for l in out_n.read_text().splitlines()[1:]]
    assert all(b <= a + 1e-10 for a, b in zip(errs_n, errs_n[1:]))
    out_m = tmp_path / "m.csv"
    assert cli.cmd_sweep(_cfg(N=2), "M", [0, 1, 2, 3], str(out_m)) == 0
    errs_m = [float(l.split(",")[6])
              for l in out_m.read_text().splitlines()[1:]]
    assert all(b <= a + 1e-10 for a, b in zip(errs_m, errs_m[1:]))
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _pass(4, f"E_rel non-increasing over N=1..6 {errs_n[0]:.4f}->"
             f"{errs_n[-1]:.4f} and M=0..3 {errs_m[0]:.4f}->"
             f"{errs_m[-1]:.4f} in {elapsed:.1f}s")


def test_criterion_05_bubble_rate():
    A = finefem.periodic_benchmark(EPS)
    f = finefem.constant_rhs(-1.0)
    norms = []
    for nx in (4, 8, 16):
        coarse = mesh.build_coarse("quad", nx, nx)
        fine = mesh.refine_to_fine(coarse, 128 // nx)
        u_B = errors.bubble_reference(fine, A, f)
        norms.append(math.sqrt(finefem.energy_inner_matrix(
            [u_B.values], u_B.geom, A)[0]))
    frozen = [0.024639246, 0.012388886, 0.0060014873]
    for got, ref in zip(norms, frozen):
        assert abs(got - ref) < 1e-6 * ref
    rates = [math.log2(a / b) for a, b in zip(norms, norms[1:])]
    assert all(0.7 <= r <= 1.3 for r in rates)
    _pass(5, "bubble-part energy norms halve with H: rates "
             + ", ".join(f"{r:.3f}" for r in rates) + " in [0.7, 1.3]")


def test_criterion_06_resonance(resonance):
    runs, elapsed = resonance
    e_h8 = runs[(8, 1)].report.E_rel
    e_h16 = runs[(16, 1)].report.E_rel
    e_h16_n4 = runs[(16, 4)].report.E_rel
    frozen = {(8, 1): 0.23627149223647395, (16, 1): 0.26528594744373579,
              (16, 4): 0.10843401213264105}
    for key, ref in frozen.items():
        assert abs(runs[key].report.E_rel - ref) < 1e-6 * ref
    assert e_h16 >= 0.7 * e_h8
    assert e_h16_n4 < 0.5 * e_h16
    assert elapsed < 180.0
    _pass(6, f"N=1 error plateaus under refinement ({e_h8:.4f} -> "
             f"{e_h16:.4f}) while N=4 breaks it ({e_h16_n4:.4f}), "
             f"in {elapsed:.1f}s")


def test_criterion_07_linear_msfem_equivalence():
    coarse = mesh.build_coarse("quad", 4, 4)
    fine = mesh.refine_to_fine(coarse, 32)
    A = finefem.periodic_benchmark(EPS)
    f = finefem.constant_rhs(-1.0)
    degrees = mesh.DegreeAssignment.uniform(coarse, 1, 0)
    space = globalsolve.build_space(fine, A, degrees, f)
    ours = globalsolve.solve_coarse(
        globalsolve.assemble_coarse(space, A, f), rel_tol=1e-13).coeffs

    # independent path: raw global fine stiffness, direct sparse patch
    # solves for the hat liftings, dense Galerkin system
    pts = fine.vertices
    tris = local_triangles(finefem.global_geometry(fine))
    p0, p1, p2 = pts[tris[:, 0]], pts[tris[:, 1]], pts[tris[:, 2]]
    det = ((p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1])
           - (p2[:, 0] - p0[:, 0]) * (p1[:, 1] - p0[:, 1]))
    area = det / 2.0
    g = np.empty((len(tris), 3, 2))
    g[:, 0] = np.column_stack([p1[:, 1] - p2[:, 1], p2[:, 0] - p1[:, 0]])
    g[:, 1] = np.column_stack([p2[:, 1] - p0[:, 1], p0[:, 0] - p2[:, 0]])
    g[:, 2] = np.column_stack([p0[:, 1] - p1[:, 1], p1[:, 0] - p0[:, 0]])
    g /= det[:, None, None]
    Abar = A.at((p0 + p1 + p2) / 3.0)[:, None, None] * np.eye(2)
    Kt = np.einsum("tid,tde,tje->tij", g, area[:, None, None] * Abar, g)
    n = len(pts)
    K = sp.coo_matrix((Kt.ravel(),
                       (np.repeat(tris, 3, axis=1).ravel(),
                        np.tile(tris, (1, 3)).ravel())),
                      shape=(n, n)).tocsr()
    load = np.zeros(n)
    np.add.at(load, tris[:, 0], -area / 3.0)
    np.add.at(load, tris[:, 1], -area / 3.0)
    np.add.at(load, tris[:, 2], -area / 3.0)

    corners = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    basis_fields = []
    for v in coarse.interior_vertex_ids:
        field = np.zeros(n)
        for K_el in vertex_elements(coarse, int(v)):
            patch = element_vertex_ids(fine, K_el)
            bnd = element_boundary_vertex_ids(fine, K_el)
            inner = np.setdiff1d(patch, bnd)
            ref = to_ref(coarse, K_el, pts[bnd])
            corner = coarse.element_vertices[K_el].tolist().index(int(v))
            cx, cy = corners[corner]
            lam = (ref[:, 0] if cx else 1 - ref[:, 0]) \
                * (ref[:, 1] if cy else 1 - ref[:, 1])
            x = spla.spsolve(K[np.ix_(inner, inner)].tocsc(),
                             -K[np.ix_(inner, bnd)] @ lam)
            field[inner] = x
            field[bnd] = lam
        basis_fields.append(field)
    B = np.array(basis_fields)
    G = B @ (K @ B.T)
    theirs = np.linalg.solve(G, B @ load)

    diff = np.abs(ours - theirs).max() / np.abs(theirs).max()
    assert diff <= 1e-10
    _pass(7, f"hat-lifting coefficients match the independent direct-solver "
             f"path to {diff:.2e} <= 1e-10")


def test_criterion_08_identity_triangle_degeneracy():
    coarse = mesh.build_coarse("triangle", 4, 4)
    fine = mesh.refine_to_fine(coarse, 8)
    A = finefem.identity_field()
    f = finefem.constant_rhs(-1.0)
    degrees = mesh.DegreeAssignment.uniform(coarse, 1, 0)
    space = globalsolve.build_space(fine, A, degrees, f)
    sol = globalsolve.solve_coarse(
        globalsolve.assemble_coarse(space, A, f), rel_tol=1e-13)
    u_H = globalsolve.reconstruct(sol)

    # plain coarse P1 with exact element matrices
    nv = coarse.n_vertices
    Kc = np.zeros((nv, nv))
    bc = np.zeros(nv)
    for vids in coarse.element_vertices:
        p = coarse.vertices[vids]
        det = ((p[1, 0] - p[0, 0]) * (p[2, 1] - p[0, 1])
               - (p[2, 0] - p[0, 0]) * (p[1, 1] - p[0, 1]))
        area = det / 2.0
        grads = np.array([[p[1, 1] - p[2, 1], p[2, 0] - p[1, 0]],
                          [p[2, 1] - p[0, 1], p[0, 0] - p[2, 0]],
                          [p[0, 1] - p[1, 1], p[1, 0] - p[0, 0]]]) / det
        Kc[np.ix_(vids, vids)] += area * grads @ grads.T
        bc[vids] += -area / 3.0
    inner = coarse.interior_vertex_ids
    vals = np.zeros(nv)
    vals[inner] = np.linalg.solve(Kc[np.ix_(inner, inner)], bc[inner])

    # interpolate linearly to the fine lattice
    geom = finefem.global_geometry(fine)
    u_p1 = np.zeros(len(geom.points))
    for K, vids in enumerate(coarse.element_vertices):
        patch = element_vertex_ids(fine, K)
        lam = to_ref(coarse, K, fine.vertices[patch])
        corner_vals = vals[vids]
        u_p1[patch] = (corner_vals[0] * (1 - lam[:, 0] - lam[:, 1])
                       + corner_vals[1] * lam[:, 0]
                       + corner_vals[2] * lam[:, 1])
    V = np.stack([u_H.values - u_p1, u_p1])
    M = energy_gram(V, geom, A)
    rel = math.sqrt(max(M[0, 0], 0.0) / M[1, 1])
    assert rel <= 1e-8
    _pass(8, f"identity-coefficient triangle space degenerates to coarse "
             f"P1: energy-norm gap {rel:.2e} <= 1e-8")


def test_criterion_09_estimator_trends(estimator_grid):
    grid = estimator_grid
    for N in (1, 2, 4):
        vals = [grid[(nx, N)].est.value_gamma for nx in (4, 8, 16)]
        assert vals[0] > vals[1] > vals[2]
    worst_local = 0.0
    min_ratio = float("inf")
    for res in grid.values():
        rep = res.est
        loc = estimator.localize(rep, res.problem.coarse)
        total = (loc * loc).sum() + rep.leftover_element_terms.sum()
        worst_local = max(worst_local,
                          abs(total - rep.value_gamma**2) / rep.value_gamma**2)
        _, abs_err = errors.interface_error_map(res.solution, res.u_ref)
        min_ratio = min(min_ratio, rep.value_gamma / abs_err)
    assert worst_local <= 1e-10
    c = 5.0
    assert min_ratio >= c
    _pass(9, f"interface estimator decreases in H for N in {{1,2,4}}, "
             f"localization drift {worst_local:.2e} <= 1e-10, reliability "
             f"ratio >= {min_ratio:.2f} (calibrated c = {c})")


def test_criterion_10_projection_and_quadrature_kernel():
    for n_pts in range(2, 9):
        r = polybasis.gauss_lobatto(n_pts)
        for d in range(0, 2 * n_pts - 2):
            exact = 0.0 if d % 2 else 2.0 / (d + 1)
            assert abs((r.weights * r.nodes**d).sum() - exact) < 1e-12
    x, w = np.polynomial.legendre.leggauss(24)
    L = np.column_stack([polybasis.legendre_eval(k, x) for k in range(9)])
    G = L.T @ (w[:, None] * L)
    D = np.diag([2.0 / (2 * k + 1) for k in range(9)])
    assert np.abs(G - D).max() < 1e-12

    f = finefem.Field("sin(2 pi x)", lambda x, y: np.sin(2 * np.pi * x))
    ratios = []
    for M in (0, 1, 2):
        errs = []
        for nx in (4, 8):
            coarse = mesh.build_coarse("quad", nx, nx)
            fine = mesh.refine_to_fine(coarse, 128 // nx)
            total = 0.0
            for K in range(coarse.n_elements):
                geom = finefem.element_geometry(fine, K)
                c, basis = l2_project_element(f, coarse, K, geom, M,
                                              quad_order=3)
                pts, wts = quad_points(geom, 3)
                resid = f.at(pts) \
                    - basis.eval_ref(to_ref(coarse, K, pts)) @ c
                total += float(wts @ resid**2)
            errs.append(math.sqrt(total))
        ratio = errs[0] / errs[1]
        lo, hi = 2.0 ** (M + 1) * 0.5, 2.0 ** (M + 1) * 2.0
        assert lo <= ratio <= hi
        ratios.append(ratio)
    _pass(10, "node rules exact to degree 2n-3, Legendre Gram diagonal, "
              "projection ratios under H-halving "
              + ", ".join(f"{r:.2f}" for r in ratios)
              + " inside the 2^(M+1) brackets")


def test_criterion_11_sweep_determinism(tmp_path):
    cfg = {"schema": 1, "kind": "quad", "nx": 4, "ny": 4, "n_sub": 8,
           "coefficient": {"type": "periodic_benchmark", "eps": 0.25},
           "rhs": {"type": "constant", "value": -1.0}, "N": 1, "M": 0}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    outs = []
    for name in ("one.csv", "two.csv"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "legmsfem.cli", "sweep",
             "--config", str(path), "--axis", "N", "--values", "1,2",
             "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert outs[0].split(b"\n")[0].decode() == cli.CSV_HEADER
    _pass(11, "repeated sweep invocations are byte-identical "
              f"({len(outs[0])} bytes)")


# The paper's regime: H from 16 eps down to eps on one 256^2 lattice
# (quads 2x2, n_sub 128, eps = 1/32, M = 0), frozen from the first
# validated run.  Per H: (E_rel, E_post).
PAPER_REGIME_H = (0.5, 0.25, 0.125, 0.0625, 0.03125)
PAPER_REGIME = {
    1: ((0.58015507016662793, 0.88272594158106676),
        (0.31280519114432981, 0.55096035583456571),
        (0.19837357402196237, 0.31462694707867916),
        (0.19861285933195125, 0.19080763069078827),
        (0.2586043605012695, 0.13557361282953642)),
    3: ((0.50312872333988479, 0.33454745596342772),
        (0.26448795097617539, 0.21056002534578744),
        (0.1761167486028877, 0.12509909033388272),
        (0.18244663490805288, 0.082918967937453597),
        (0.11934155963538538, 0.051688720609605589))}


def test_criterion_12_paper_regime(tmp_path):
    # an H sweep through the CLI at N = 1 and N = 3: every H row solves on
    # the shared fine reference, rebound to the row's own mesh
    t0 = time.perf_counter()
    rows = {}
    for N in PAPER_REGIME:
        path = tmp_path / f"N{N}.json"
        path.write_text(json.dumps({
            "schema": 1, "kind": "quad", "nx": 2, "ny": 2, "n_sub": 128,
            "coefficient": {"type": "periodic_benchmark", "eps": 1 / 32},
            "rhs": {"type": "constant", "value": -1.0}, "N": N, "M": 0}))
        out = tmp_path / f"N{N}.csv"
        assert cli.main(["sweep", "--config", str(path), "--axis", "H",
                         "--values", ",".join(map(str, PAPER_REGIME_H)),
                         "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == cli.CSV_HEADER
        head = lines[0].split(",")
        rows[N] = [dict(zip(head, line.split(","))) for line in lines[1:]]
        assert [float(r["H"]) for r in rows[N]] == list(PAPER_REGIME_H)
    col = lambda N, name: [float(r[name]) for r in rows[N]]
    for N, frozen in PAPER_REGIME.items():
        for got, ref in zip(zip(col(N, "E_rel"), col(N, "E_post")), frozen):
            assert all(abs(g - r) <= 1e-6 * r for g, r in zip(got, ref))
    # enrichment lowers the error at every H, and on the interface too
    for name in ("E_rel", "E_rel_gamma"):
        assert all(e3 < e1 for e1, e3 in zip(col(1, name), col(3, name)))
    # the resonance: plain MsFEM's error rises again as H nears eps
    e1 = col(1, "E_rel")
    assert e1[-1] > min(e1)
    _pass(12, f"H sweep from 16 eps to eps: N=1 E_rel {min(e1):.4f} at its "
              f"minimum, {e1[-1]:.4f} at H = eps; N=3 "
              f"{col(3, 'E_rel')[-1]:.4f} there, in "
              f"{time.perf_counter() - t0:.1f}s")
