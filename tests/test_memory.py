"""Memory guards of a run: the traced peak of each phase of a run, and of
the whole run, on the solve-quad-fine benchmark config (4x4 quads on
256x256 fine cells, N = 1), the run whose peak memory is the largest of
the three benchmark workloads; of building its fine mesh and global
geometry; and of the offline sweep on the 128x128-cell patches of 2x2
quads.

tracemalloc starts just before each call, so its peak is what the call
allocates on top of the memory held when it starts (MB of 10**6 bytes).
Each bound lies between the peak measured before a change that cut it
and the peak after, so a return of what the change removed fails here:

- the fine reference solve, 43.3 MB while the stencils and loads were
  formed per triangle, 21.7 while the geometry held per-triangle areas
  and centroids, the whole-lattice load pass ran and CG allocated on
  every iteration, 14.2 while the coefficient was a 2x2 tensor per
  triangle (the area-weighted coefficient 4 MiB, its 7-point stencil
  and the tensor bounds check on top), 10.3 since it is a scalar;
- the offline build (build_space), 11.0 MB while the sweep kept S^-1 and
  the split blocks of every lattice row, 6.7 since it keeps only G;
- the coarse assembly, 16.4, then 7.6 MB while the fields of a chunk were
  concatenated and its loads gathered from global per-triangle arrays,
  2.2 since;
- the error report, 7.9 MB with six energy rows stacked, 3.2 one row at
  a time; the estimator, 4.2 MB with f and the element tags over all fine
  triangles at once, 2.2 block of cell rows by block, and 2.2 since f is
  one pass per patch group over chunks of 24 n_vertices doubles a member
  (3.4 with chunks of 8 n_vertices);
- the whole run, 22.6 MB, then 14.4 with the tensor coefficient, 10.5
  since: at most 12 MB above its start;
- mesh.refine_to_fine plus finefem.global_geometry, 17.9 MB while the
  fine mesh kept triangle index tables and the geometry gathered the
  corners of every triangle, 5.3 while the geometry held areas,
  centroids and identity index arrays, 2.3 since;
- localbasis.compute_all on 2x2 quads with n_sub 128, 62.8 MB while the
  sweep kept S^-1 and the split blocks (16.4 MB each per patch), 25.3
  with the tensor coefficient (four values a triangle in the global
  area-weighted coefficient and in the patch windows of it), 21.5
  since.

After a run the global geometry keeps no per-triangle array but the
held evaluation of a load without a period: the area-weighted
coefficient (1 MiB on this lattice, kept on the geometry until it went
with the system whose multigrid coarsens it) and areas or centroids per
triangle would show there.
"""

import tracemalloc

import numpy as np
import pytest

from conftest import triangle_cells
from legmsfem import (cli, errors, estimator, finefem, globalsolve,
                      localbasis, mesh)

FINE_CONFIG = {
    "schema": 1, "kind": "quad", "nx": 4, "ny": 4, "n_sub": 64,
    "coefficient": {"type": "periodic_benchmark", "eps": 0.03125},
    "rhs": {"type": "constant", "value": -1.0}, "N": 1, "M": 0}
REFERENCE_PEAK_MB = 12.0
BUILD_SPACE_PEAK_MB = 9.0
ASSEMBLE_COARSE_PEAK_MB = 5.0
EVALUATE_PEAK_MB = 5.5
ESTIMATE_PEAK_MB = 3.5
RUN_PEAK_MB = 12.0
FINE_GEOMETRY_PEAK_MB = 4.0
WIDE_PATCH_SWEEP_PEAK_MB = 23.0


def traced_peak_mb(fn, *args, **kw):
    """(fn(*args, **kw), the traced peak of the call above the traced
    memory when it starts, MB)."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = fn(*args, **kw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, (peak - start) / 1e6


def test_fine_layer_traced_peaks(pcg_iters):
    config = cli.RunConfig.from_dict(FINE_CONFIG)
    p = cli.build_problem(config)
    u_ref, ref_mb = traced_peak_mb(
        errors.reference_solve, p.fine, p.A, p.f, config.rel_tol)
    assert ref_mb <= REFERENCE_PEAK_MB
    ref_iters = list(pcg_iters)
    space, space_mb = traced_peak_mb(globalsolve.build_space, p.fine, p.A,
                                     p.degrees, p.f)
    assert space_mb <= BUILD_SPACE_PEAK_MB
    systems, coarse_mb = traced_peak_mb(globalsolve.assemble_coarse, space,
                                        p.A, p.f)
    assert coarse_mb <= ASSEMBLE_COARSE_PEAK_MB
    assert len(ref_iters) == 1 and ref_iters[0] > 0
    solution = globalsolve.solve_coarse(systems, config.rel_tol)
    report, evaluate_mb = traced_peak_mb(errors.evaluate, solution, u_ref)
    assert evaluate_mb <= EVALUATE_PEAK_MB and report.E_star < 0
    est, estimate_mb = traced_peak_mb(estimator.global_estimate, solution,
                                      config.eta, config.ell)
    assert estimate_mb <= ESTIMATE_PEAK_MB
    assert 0 < report.E_rel < 1 and est.value > 0


def test_whole_run_traced_peak():
    config = cli.RunConfig.from_dict(FINE_CONFIG)
    problem = cli.build_problem(config)
    result, mb = traced_peak_mb(cli.run_single, config, problem)
    assert mb <= RUN_PEAK_MB
    assert 0 < result.report.E_rel < 1


def held_arrays(obj, seen=None):
    """The numpy arrays an object of the package holds, through its
    attributes, lists, tuples and dicts, as (path, array) pairs."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return [("", obj)]
    if isinstance(obj, (list, tuple)):
        items = enumerate(obj)
    elif isinstance(obj, dict):
        items = obj.items()
    elif type(obj).__module__.startswith("legmsfem"):
        items = vars(obj).items() if hasattr(obj, "__dict__") else []
    else:
        return []
    return [(f".{k}{path}", a) for k, v in items
            for path, a in held_arrays(v, seen)]


@pytest.mark.parametrize("rhs,load_held", [
    ({"type": "constant", "value": -1.0}, False),
    ({"type": "gaussian_benchmark"}, True)],
    ids=["constant", "gaussian"])
def test_global_geometry_holds_no_per_triangle_array_but_a_load_evaluation(
        rhs, load_held):
    # after a run's fine solve and offline sweep, the global geometry
    # holds no array of nt or more values but per-vertex ones (the
    # stencil, the load vector) and the values of a load without a period,
    # one per triangle, while the constant load and the periodic
    # coefficient hold one cell or one period: no area-weighted
    # coefficient, no areas or centroids per triangle, and, since it fills
    # its box, no index array over its vertices
    config = cli.RunConfig.from_dict(dict(FINE_CONFIG, rhs=rhs))
    p = cli.build_problem(config)
    errors.reference_solve(p.fine, p.A, p.f, config.rel_tol)
    globalsolve.build_space(p.fine, p.A, p.degrees, p.f)
    geom = finefem.global_geometry(p.fine)
    nt, n = 2 * p.fine.nfx * p.fine.nfy, geom.n_vertices
    held = held_arrays(geom)
    per_triangle = [a for _, a in held if a.size >= nt and a.size % n]
    assert len(per_triangle) == load_held
    assert all(a is geom.held(p.f) for a in per_triangle)
    assert not [path for path, a in held
                if a.dtype.kind in "iu" and a.size >= n]
    areas, centroids = triangle_cells(geom)
    assert areas.shape == (nt,) and centroids.shape == (nt, 2)


def test_fine_mesh_and_geometry_traced_peak():
    coarse = mesh.build_coarse("quad", FINE_CONFIG["nx"], FINE_CONFIG["ny"])
    geom, mb = traced_peak_mb(lambda: finefem.global_geometry(
        mesh.refine_to_fine(coarse, FINE_CONFIG["n_sub"])))
    assert mb <= FINE_GEOMETRY_PEAK_MB
    assert len(triangle_cells(geom)[0]) == 2 * 256 * 256


def test_wide_patch_sweep_traced_peak():
    # the offline sweep on 128x128-cell patches keeps one 127x127 block
    # per lattice row (G), 16.4 MB a patch; S^-1 kept as well would add
    # as much again
    coarse = mesh.build_coarse("quad", 2, 2)
    fine = mesh.refine_to_fine(coarse, 128)
    A = finefem.periodic_benchmark(1 / 32)
    dofs, mb = traced_peak_mb(localbasis.compute_all, fine, A,
                              mesh.DegreeAssignment.uniform(coarse, 1, 0))
    assert mb <= WIDE_PATCH_SWEEP_PEAK_MB
    assert len(dofs) == 1
    assert [g.dofs.tolist() for _, g, _ in dofs.groups] == [[[0]] * 4]
