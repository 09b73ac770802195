"""Property tests: the paper's invariants on small random configs."""

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import element_vertex_ids, space_fields
from legmsfem import cli, globalsolve, mesh


@st.composite
def configs(draw):
    kind = draw(st.sampled_from(["quad", "triangle"]))
    nx, ny = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    coarse = mesh.build_coarse(kind, nx, ny)
    edges = [int(e) for e in coarse.interior_edge_ids]
    # per-edge N and per-element M overrides on top of the defaults
    N = {"default": draw(st.integers(1, 3)), "overrides": {
        str(e): n for e, n in draw(st.dictionaries(
            st.sampled_from(edges), st.integers(1, 3))).items()}
        if edges else {}}
    M = {"default": draw(st.integers(0, 2)), "overrides": {
        str(K): m for K, m in draw(st.dictionaries(
            st.integers(0, coarse.n_elements - 1),
            st.integers(0, 2))).items()}}
    return cli.RunConfig.from_dict({
        "schema": 1, "kind": kind, "nx": nx, "ny": ny,
        "n_sub": draw(st.integers(2, 8)),
        "coefficient": draw(st.sampled_from([
            {"type": "identity"},
            {"type": "expression", "expr": "1 + 0.5*sin(7*x)*cos(5*y)",
             "alpha_min": 0.5, "alpha_max": 1.5}])),
        "rhs": draw(st.sampled_from([
            {"type": "constant", "value": -1.0},
            {"type": "gaussian_benchmark"}])),
        "N": N, "M": M})


@settings(max_examples=60, deadline=None, derandomize=True,
          database=None, suppress_health_check=[HealthCheck.too_slow])
@given(configs())
def test_error_report_invariants(config):
    problem = cli.build_problem(config)
    degrees, n = problem.degrees, config.n_sub
    if config.kind == "quad":
        interior = (n - 1) ** 2
        dim = lambda M: (M + 1) ** 2
    else:
        interior = (n - 1) * (n - 2) // 2
        dim = lambda M: (M + 1) * (M + 2) // 2
    N = degrees.N[problem.coarse.interior_edge_ids]
    if ((N > n).any()
            or any(M and dim(M) > interior for M in degrees.M.tolist())):
        # more enrichments than fine vertices to carry them
        with pytest.raises(globalsolve.UnresolvedDegreeError):
            cli.run_single(config, problem)
        return
    res = cli.run_single(config, problem)
    r, space = res.report, res.solution.space
    # the energy identity against the direct norm quotient, to 1e-8
    # relative; the identity gives E_rel^2 to rounding only, so a space that
    # reproduces the reference reads 0 against a quotient of ~1e-15
    assert abs(r.E_rel ** 2 - r.E_rel_direct ** 2) \
        <= 1e-8 * r.E_rel ** 2 + 1e-14
    # the error split a(d, d) = a(d_B, d_B) + a(d_G, d_G)
    if r.decomposition_residual is not None:
        assert r.decomposition_residual <= 1e-8
    # a single quad leaves no interface part to measure against
    single = config.kind == "quad" and config.nx == config.ny == 1
    assert (r.E_rel_gamma is None) == (space.n_bubble > 0 or single)
    # every basis function glues exactly: its fields on two support
    # elements agree bitwise on the fine vertices they share
    fine = space.fine
    for p in range(space.n_dofs):
        fields = space_fields(space, p)
        for K1, K2 in itertools.combinations(fields, 2):
            _, i1, i2 = np.intersect1d(element_vertex_ids(fine, K1),
                                       element_vertex_ids(fine, K2),
                                       return_indices=True)
            assert np.array_equal(fields[K1][i1], fields[K2][i2])
    # bubbles are energy-orthogonal to the interface part
    if space.n_bubble and space.n_interface:
        systems = globalsolve.assemble_coarse(space, space.A, problem.f,
                                              with_cross=True)
        d_b = np.concatenate([np.diag(Mb)
                              for _, Mb, _ in systems.bubble_blocks])
        d_if = systems.interface_K.diagonal()
        assert np.abs(systems.cross_gram
                      / np.sqrt(np.outer(d_b, d_if))).max() <= 1e-8
