"""Property tests: the paper's invariants on small random configs."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from legmsfem import cli, globalsolve


@st.composite
def configs(draw):
    return cli.RunConfig.from_dict({
        "schema": 1,
        "kind": draw(st.sampled_from(["quad", "triangle"])),
        "nx": draw(st.integers(1, 3)), "ny": draw(st.integers(1, 3)),
        "n_sub": draw(st.integers(2, 6)),
        "coefficient": draw(st.sampled_from([
            {"type": "identity"},
            {"type": "expression", "expr": "1 + 0.5*sin(7*x)*cos(5*y)",
             "alpha_min": 0.5, "alpha_max": 1.5}])),
        "rhs": draw(st.sampled_from([
            {"type": "constant", "value": -1.0},
            {"type": "gaussian_benchmark"}])),
        "N": draw(st.integers(1, 3)), "M": draw(st.integers(0, 2))})


@settings(max_examples=25, deadline=None, derandomize=True,
          database=None, suppress_health_check=[HealthCheck.too_slow])
@given(configs())
def test_error_report_invariants(config):
    n, M = config.n_sub, config.M
    if config.kind == "quad":
        bubbles, interior = (M + 1) ** 2, (n - 1) ** 2
    else:
        bubbles, interior = (M + 1) * (M + 2) // 2, (n - 1) * (n - 2) // 2
    if config.N > n or (M and bubbles > interior):
        # more enrichments than fine vertices to carry them
        with pytest.raises(globalsolve.UnresolvedDegreeError):
            cli.run_single(config)
        return
    res = cli.run_single(config)
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
