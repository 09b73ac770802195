"""Memory guard of the fine layer: the traced peak of the fine reference
solve and of the coarse assembly on the solve-quad-fine benchmark config
(4x4 quads on 256x256 fine cells, N = 1), the run whose peak memory is
the largest of the three benchmark workloads, and of building its fine
mesh and global geometry.

tracemalloc starts just before each call, so its peak is what the call
allocates on top of the memory held when it starts.  The first two bounds
lie between the peaks measured before the fine layer took its stencils
and loads from lattice formulas (43.3 MB and 16.4 MB) and after (21.7 MB
and 7.7 MB): a return of the per-triangle arrays fails here.  The third
lies between the peak of mesh.refine_to_fine plus
finefem.global_geometry while the fine mesh kept triangle index tables
and the geometry gathered the corners of every triangle (17.9 MB) and
since the geometry is the lattice with per-cell formulas (5.3 MB): a
return of a per-triangle table or corner gather fails here.
"""

import tracemalloc

from legmsfem import cli, errors, finefem, globalsolve, mesh

FINE_CONFIG = {
    "schema": 1, "kind": "quad", "nx": 4, "ny": 4, "n_sub": 64,
    "coefficient": {"type": "periodic_benchmark", "eps": 0.03125},
    "rhs": {"type": "constant", "value": -1.0}, "N": 1, "M": 0}
REFERENCE_PEAK_MB = 32.0
ASSEMBLE_COARSE_PEAK_MB = 12.0
FINE_GEOMETRY_PEAK_MB = 10.0


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


def test_fine_layer_traced_peaks():
    config = cli.RunConfig.from_dict(FINE_CONFIG)
    p = cli.build_problem(config)
    (u_ref, E_star), ref_mb = traced_peak_mb(
        errors.reference_solve, p.fine, p.A, p.f, config.rel_tol,
        eps=config.eps)
    assert ref_mb <= REFERENCE_PEAK_MB
    space = globalsolve.build_space(p.coarse, p.fine, p.A, p.degrees, f=p.f)
    _, coarse_mb = traced_peak_mb(globalsolve.assemble_coarse, space, p.A,
                                  p.f)
    assert coarse_mb <= ASSEMBLE_COARSE_PEAK_MB
    assert u_ref.cg_iters > 0 and E_star < 0


def test_fine_mesh_and_geometry_traced_peak():
    coarse = mesh.build_coarse("quad", FINE_CONFIG["nx"], FINE_CONFIG["ny"])
    geom, mb = traced_peak_mb(lambda: finefem.global_geometry(
        mesh.refine_to_fine(coarse, FINE_CONFIG["n_sub"])))
    assert mb <= FINE_GEOMETRY_PEAK_MB
    assert len(geom.areas) == 2 * 256 * 256
