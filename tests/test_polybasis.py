import math
from dataclasses import dataclass

import numpy as np
import pytest

from conftest import l2_project_element, quad_points, to_ref
from legmsfem import polybasis as pb
from legmsfem import finefem, mesh


# Reference code: the derivative of the internal functions, a Legendre
# series and the edge projection onto the internal functions, which the
# assertions below check the module's recursions and basis against.

def internal_basis_deriv(k: int, x) -> np.ndarray:
    """eta_k'(x) = sqrt((2k-1)/2) L_{k-1}(x), k >= 2."""
    if k < 2:
        raise ValueError("internal functions start at degree 2")
    return math.sqrt((2 * k - 1) / 2.0) * pb.legendre_eval(k - 1, x)


@dataclass(frozen=True)
class Polynomial1D:
    """Polynomial on [-1,1] stored by Legendre coefficients."""

    coeffs: np.ndarray

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for k, c in enumerate(self.coeffs):
            if c != 0.0:
                out += c * pb.legendre_eval(k, x)
        return out

    def deriv(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for k, c in enumerate(self.coeffs):
            if c != 0.0 and k > 0:
                out += c * pb.legendre_deriv(k, x)
        return out


def l2_project_edge_zero(g, N: int, n_quad: int = 64) -> np.ndarray:
    """L2(-1,1) projection of a trace g (a callable of the edge coordinate)
    onto span{eta_2..eta_N}: the N-1 coefficients, empty for N = 1.  A
    dense Gauss-Legendre rule stands in for exact integration."""
    if N < 1:
        raise ValueError("N must be at least 1")
    if N == 1:
        return np.zeros(0)
    x, w = np.polynomial.legendre.leggauss(max(n_quad, 2 * N))
    E = np.column_stack([pb.internal_basis_eval(k, x)
                         for k in range(2, N + 1)])
    G = E.T @ (w[:, None] * E)
    b = E.T @ (w * np.asarray(g(x), dtype=float))
    return np.linalg.solve(G, b)


def test_legendre_matches_numpy(rng):
    x = rng.uniform(-1, 1, 200)
    for k in range(0, 12):
        ref = np.polynomial.legendre.legval(x, [0.0] * k + [1.0])
        assert np.abs(pb.legendre_eval(k, x) - ref).max() < 1e-13


def test_legendre_endpoints_exact():
    for k in range(0, 15):
        v = pb.legendre_eval(k, np.array([-1.0, 1.0]))
        assert v[1] == 1.0
        assert v[0] == (-1.0) ** k


def test_legendre_deriv(rng):
    x = rng.uniform(-0.99, 0.99, 100)
    for k in range(1, 10):
        h = 1e-6
        fd = (pb.legendre_eval(k, x + h) - pb.legendre_eval(k, x - h)) / (2 * h)
        assert np.abs(pb.legendre_deriv(k, x) - fd).max() < 1e-6
        # endpoint limits L_k'(+-1) = (+-1)^(k+1) k(k+1)/2
        d = pb.legendre_deriv(k, np.array([-1.0, 1.0]))
        assert d[1] == k * (k + 1) / 2.0
        assert d[0] == (-1.0) ** (k + 1) * k * (k + 1) / 2.0


def test_internal_basis_vanishes_exactly():
    ends = np.array([-1.0, 1.0])
    for k in range(2, 11):
        v = pb.internal_basis_eval(k, ends)
        assert v[0] == 0.0 and v[1] == 0.0


def test_internal_basis_h10_orthonormal():
    # (eta_j', eta_k')_{L2(-1,1)} = delta_jk
    x, w = np.polynomial.legendre.leggauss(40)
    D = np.column_stack([internal_basis_deriv(k, x) for k in range(2, 11)])
    G = D.T @ (w[:, None] * D)
    assert np.abs(G - np.eye(9)).max() < 1e-13


def test_internal_basis_degree_floor():
    with pytest.raises(ValueError):
        pb.internal_basis_eval(1, 0.0)
    with pytest.raises(ValueError):
        internal_basis_deriv(0, 0.0)


def test_polynomial1d(rng):
    p = Polynomial1D(np.array([0.5, -1.0, 0.0, 2.0]))
    x = rng.uniform(-1, 1, 50)
    expect = 0.5 - x + 2.0 * pb.legendre_eval(3, x)
    assert np.abs(p(x) - expect).max() < 1e-14
    h = 1e-7
    fd = (p(x + h) - p(x - h)) / (2 * h)
    assert np.abs(p.deriv(x) - fd).max() < 1e-6


def test_gauss_lobatto_small_rules():
    r2 = pb.gauss_lobatto(2)
    assert np.array_equal(r2.nodes, [-1.0, 1.0])
    assert np.array_equal(r2.weights, [1.0, 1.0])
    r3 = pb.gauss_lobatto(3)
    assert np.array_equal(r3.nodes, [-1.0, 0.0, 1.0])
    assert np.abs(r3.weights - [1 / 3, 4 / 3, 1 / 3]).max() < 1e-15
    r4 = pb.gauss_lobatto(4)
    assert np.abs(r4.nodes - [-1, -1 / math.sqrt(5), 1 / math.sqrt(5), 1]).max() < 1e-14
    assert np.abs(r4.weights - [1 / 6, 5 / 6, 5 / 6, 1 / 6]).max() < 1e-14
    r5 = pb.gauss_lobatto(5)
    assert np.abs(r5.nodes - [-1, -math.sqrt(3 / 7), 0, math.sqrt(3 / 7), 1]).max() < 1e-14
    assert np.abs(r5.weights - [1 / 10, 49 / 90, 32 / 45, 49 / 90, 1 / 10]).max() < 1e-14


@pytest.mark.parametrize("n", range(2, 12))
def test_gauss_lobatto_properties(n):
    r = pb.gauss_lobatto(n)
    assert len(r.nodes) == n
    # mirror symmetry is bitwise by construction
    assert np.array_equal(r.nodes, -r.nodes[::-1])
    assert np.array_equal(r.weights, r.weights[::-1])
    assert abs(r.weights.sum() - 2.0) < 1e-14
    # exact through degree 2n-3, and provably not beyond
    for d in range(0, 2 * n - 2):
        exact = 0.0 if d % 2 else 2.0 / (d + 1)
        assert abs((r.weights * r.nodes ** d).sum() - exact) < 1e-12
    d = 2 * n - 2
    exact = 2.0 / (d + 1)
    assert abs((r.weights * r.nodes ** d).sum() - exact) > 1e-6


def test_gauss_lobatto_floor():
    with pytest.raises(ValueError):
        pb.gauss_lobatto(1)


def test_bulk_basis_quad_cardinal():
    b = pb.BulkPolyBasis("quad", 2)
    assert b.dim == 9
    nodes = (pb.gauss_lobatto(3).nodes + 1.0) / 2.0
    X, Y = np.meshgrid(nodes, nodes)
    pts = np.column_stack([X.ravel(), Y.ravel()])
    V = b.eval_ref(pts)
    # column j is 1 at node j = b*(M+1)+a and 0 at the others
    assert np.abs(V - np.eye(9)).max() < 1e-13


def test_bulk_basis_quad_constant():
    b = pb.BulkPolyBasis("quad", 0)
    assert b.dim == 1
    v = b.eval_ref(np.array([[0.3, 0.7], [0.0, 0.0]]))
    assert np.array_equal(v, np.ones((2, 1)))


def test_bulk_basis_quad_first_function():
    # P_1 at M=1 is the bilinear hat (1-x)(1-y) pinned to the SW corner
    b = pb.BulkPolyBasis("quad", 1)
    pts = np.array([[0.25, 0.5]])
    assert abs(b.eval_ref(pts)[0, 0] - 0.75 * 0.5) < 1e-14


def test_bulk_basis_triangle_orthonormal(rng):
    for M in (1, 3, 5, pb.MAX_TRIANGLE_DEGREE):
        b = pb.BulkPolyBasis("triangle", M)
        assert b.dim == (M + 1) * (M + 2) // 2
        # Monte-Carlo-free check: Gram via a dense product Gauss rule mapped
        # to the triangle by the Duffy transform.
        x, w = np.polynomial.legendre.leggauss(24)
        u, wu = (x + 1) / 2, w / 2
        U, V = np.meshgrid(u, u)
        # Duffy: (u, v) -> (u, v(1-u)), Jacobian (1-u)
        P = np.column_stack([U.ravel(), (V * (1 - U)).ravel()])
        wts = (np.outer(wu, wu).ravel()) * (1 - U.ravel())
        E = b.eval_ref(P)
        G = E.T @ (wts[:, None] * E)
        assert np.abs(G - np.eye(b.dim)).max() < 1e-10


def test_bulk_basis_validation():
    with pytest.raises(ValueError):
        pb.BulkPolyBasis("quad", -1)
    with pytest.raises(ValueError):
        pb.BulkPolyBasis("triangle", 9)
    with pytest.raises(ValueError):
        pb.BulkPolyBasis("pent", 2)


def test_l2_project_element_orthogonality(quad44, fine_quad44):
    geom = finefem.element_geometry(fine_quad44, 5)
    f = finefem.Field("sin(3x) cos(2y)",
                      lambda x, y: np.sin(3 * x) * np.cos(2 * y))
    c, basis = l2_project_element(f, quad44, 5, geom, 2)
    pts, w = quad_points(geom, 1)
    P = basis.eval_ref(to_ref(quad44, 5, pts))
    resid = f.at(pts) - P @ c
    scale = np.abs(w * f.at(pts)).sum()
    assert np.abs(P.T @ (w * resid)).max() < 1e-12 * scale


def test_l2_project_element_reproduces_polys(quad44, fine_quad44):
    # a function already in the space projects onto itself
    geom = finefem.element_geometry(fine_quad44, 5)
    f = finefem.Field("1 + 2x - 3y + xy",
                      lambda x, y: 1.0 + 2.0 * x - 3.0 * y + x * y)
    c, basis = l2_project_element(f, quad44, 5, geom, 1)
    pts, _ = quad_points(geom, 1)
    P = basis.eval_ref(to_ref(quad44, 5, pts))
    assert np.abs(P @ c - f.at(pts)).max() < 1e-11


def test_l2_project_edge_zero():
    c = l2_project_edge_zero(lambda x: pb.internal_basis_eval(3, x), 5)
    expect = np.array([0.0, 1.0, 0.0, 0.0])
    assert np.abs(c - expect).max() < 1e-12
    assert l2_project_edge_zero(lambda x: x, 1).size == 0
    with pytest.raises(ValueError):
        l2_project_edge_zero(lambda x: x, 0)
