"""Legendre polynomials, the internal edge basis, Gauss-Lobatto rules and
the bulk polynomial bases of the bubbles.

Everything here lives on reference coordinates: [-1,1] for edges, the unit
square or unit right triangle for element interiors.  The internal functions
eta_k = (L_k - L_{k-2})/sqrt(2(2k-1)) vanish at both endpoints and are
orthonormal in the H^1_0(-1,1) inner product since eta_k' is a multiple of
L_{k-1}; any other normalization would give the same Galerkin solutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


def legendre_eval(k: int, x) -> np.ndarray:
    """L_k(x) by the three-term recursion (k+1)L_{k+1} = (2k+1)x L_k - k L_{k-1}."""
    if k < 0:
        raise ValueError("degree must be nonnegative")
    x = np.asarray(x, dtype=float)
    if k == 0:
        return np.ones_like(x)
    prev, cur = np.ones_like(x), x.copy()
    for j in range(1, k):
        prev, cur = cur, ((2 * j + 1) * x * cur - j * prev) / (j + 1)
    return cur


def legendre_deriv(k: int, x) -> np.ndarray:
    """L_k'(x), from (1-x^2) L_k' = k (L_{k-1} - x L_k) with endpoint limits."""
    x = np.asarray(x, dtype=float)
    if k == 0:
        return np.zeros_like(x)
    Lk, Lkm1 = legendre_eval(k, x), legendre_eval(k - 1, x)
    out = np.empty_like(x)
    interior = np.abs(x) < 1.0
    xi = x[interior]
    out[interior] = k * (Lkm1[interior] - xi * Lk[interior]) / (1.0 - xi * xi)
    # L_k'(+-1) = (+-1)^(k+1) k(k+1)/2
    edge = ~interior
    out[edge] = np.sign(x[edge]) ** (k + 1) * k * (k + 1) / 2.0
    return out


def internal_basis_eval(k: int, x) -> np.ndarray:
    """eta_k(x) = (L_k(x) - L_{k-2}(x)) / sqrt(2(2k-1)), k >= 2.

    Vanishes exactly at +-1 (the recursion gives L_k(+-1) = (+-1)^k without
    rounding).  eta_k' = sqrt((2k-1)/2) L_{k-1}, so the family is orthonormal
    in H^1_0(-1,1).
    """
    if k < 2:
        raise ValueError("internal functions start at degree 2")
    c = 1.0 / math.sqrt(2 * (2 * k - 1))
    return c * (legendre_eval(k, x) - legendre_eval(k - 2, x))


@dataclass(frozen=True)
class QuadratureRule:
    nodes: np.ndarray
    weights: np.ndarray


@lru_cache(maxsize=None)
def gauss_lobatto(n: int) -> QuadratureRule:
    """Gauss-Lobatto rule with n points on [-1,1], exact to degree 2n-3.

    Nodes are +-1 plus the roots of L'_{n-1}, found by Newton iteration from
    Chebyshev points to 1e-14; weights are 2/(n(n-1) L_{n-1}(x_i)^2).  Nodes
    come out exactly symmetric (computed on a half interval and mirrored).
    """
    if n < 2:
        raise ValueError("need at least the two endpoints")
    m = n - 1
    # The n-2 interior nodes are the symmetric roots of L'_m; Newton refines
    # the strictly negative half, the rest is the mirror plus 0 for odd n.
    neg = np.array([-math.cos(math.pi * i / m) for i in range(1, m) if 2 * i < m])
    for _ in range(100):
        L = legendre_eval(m, neg)
        dL = legendre_deriv(m, neg)
        # Newton on g = L'_m: g' = (2x g - m(m+1) L_m)/(1-x^2)
        step = dL * (1 - neg * neg) / (2 * neg * dL - m * (m + 1) * L)
        neg -= step
        if np.all(np.abs(step) <= 1e-14):
            break
    mid = [0.0] if n % 2 == 1 else []
    nodes = np.concatenate([[-1.0], neg, mid, -neg[::-1], [1.0]])
    weights = 2.0 / (n * m * legendre_eval(m, nodes) ** 2)
    return QuadratureRule(nodes, weights)


def _lagrange_matrix(nodes: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Values of the Lagrange basis on `nodes` at points x, shape (len(x), n)."""
    n = len(nodes)
    out = np.ones((len(x), n))
    for i in range(n):
        for j in range(n):
            if j != i:
                out[:, i] *= (x - nodes[j]) / (nodes[i] - nodes[j])
    return out


@lru_cache(maxsize=None)
def _tri_orthonormalizer(pairs: tuple[tuple[int, int], ...]) -> np.ndarray:
    """Rows: coefficients of the monomials x^p y^q, (p, q) in pairs, of an
    orthonormal basis of their span on the unit right triangle.

    The monomial Gram (integral of x^a y^b = a! b! / (a+b+2)!) is
    Hilbert-like, condition 1.4e15 at M = 8, so a floating-point Cholesky
    loses up to 1e-5 of orthonormality.  Here G = L D L^T is factored in
    exact rationals and C = D^{-1/2} L^{-1} is rounded once at the end.
    """
    # Imported here: only triangle bubbles need it, and it would add to the
    # start-up time of every run.
    from fractions import Fraction

    n = len(pairs)
    G = [[Fraction(math.factorial(p + r) * math.factorial(q + s),
                   math.factorial(p + r + q + s + 2))
          for r, s in pairs] for p, q in pairs]
    L = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    D = []
    for j in range(n):
        D.append(G[j][j] - sum(L[j][k] ** 2 * D[k] for k in range(j)))
        for i in range(j + 1, n):
            L[i][j] = (G[i][j] - sum(L[i][k] * L[j][k] * D[k]
                                     for k in range(j))) / D[j]
    # Forward substitution for L^{-1}, unit lower triangular.
    Linv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            Linv[i][j] = -sum(L[i][k] * Linv[k][j] for k in range(j, i))
    C = np.array([[float(Linv[i][j]) for j in range(n)] for i in range(n)])
    C /= np.sqrt([float(d) for d in D])[:, None]
    C.flags.writeable = False  # shared by every basis of this degree
    return C


# Accuracy of the orthonormalized triangle basis is limited by evaluating
# monomials in floating point: 1.6e-11 off orthonormality at M = 8.
MAX_TRIANGLE_DEGREE = 8


def bulk_dim(kind: str, M):
    """The dimension of the bulk basis of degree M without building the
    basis: (M+1)^2 on quads, (M+1)(M+2)/2 on triangles, exact for a Python
    int and elementwise for an array."""
    return (M + 1) ** 2 if kind == "quad" else (M + 1) * (M + 2) // 2


class BulkPolyBasis:
    """Bubble right-hand-side basis {P_i} on the reference element.

    Quads: tensor products of 1D Lagrange polynomials at the (M+1)-point
    Gauss-Lobatto nodes, spanning partial degree <= M, dimension (M+1)^2.
    Triangles: monomials of total degree <= M orthonormalized on the unit
    right triangle through an exact-rational LDL^T of their Gram matrix,
    dimension (M+1)(M+2)/2.
    """

    def __init__(self, kind: str, M: int):
        if M < 0:
            raise ValueError("degree must be nonnegative")
        if kind not in ("quad", "triangle"):
            raise ValueError(f"unknown element kind {kind!r}")
        self.kind = kind
        self.M = int(M)
        self.dim = bulk_dim(kind, self.M)
        if kind == "quad":
            # M+1 Lagrange nodes per direction; M=0 degenerates to the constant.
            self._nodes = gauss_lobatto(M + 1).nodes if M >= 1 else np.array([0.0])
        else:
            if M > MAX_TRIANGLE_DEGREE:
                raise ValueError(f"triangle bulk degree capped at {MAX_TRIANGLE_DEGREE}")
            self._pairs = [(d - q, q) for d in range(M + 1) for q in range(d + 1)]
            self._C = _tri_orthonormalizer(tuple(self._pairs))

    def eval_ref(self, ref_points: np.ndarray) -> np.ndarray:
        """Basis values at reference coordinates, shape (npoints, dim)."""
        pts = np.atleast_2d(np.asarray(ref_points, dtype=float))
        if self.kind == "quad":
            # Reference square is [0,1]^2; the 1D nodes live on [-1,1].
            lx = _lagrange_matrix(self._nodes, 2.0 * pts[:, 0] - 1.0)
            ly = _lagrange_matrix(self._nodes, 2.0 * pts[:, 1] - 1.0)
            return np.einsum("pa,pb->pba", lx, ly).reshape(len(pts), self.dim)
        mono = np.column_stack([pts[:, 0] ** p * pts[:, 1] ** q
                                for p, q in self._pairs])
        return mono @ self._C.T
