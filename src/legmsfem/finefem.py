"""P1 finite elements on the shared fine mesh.

Stiffness and load assembly against an SPD coefficient field, Dirichlet
elimination with lifting, a deterministic Jacobi-preconditioned CG, and the
energies everything downstream is phrased in.  Coefficient-weighted integrals
use a composite rule over the fine triangles: the coefficient at each
triangle's centroid by default, optionally the 3-point edge-midpoint rule
(quad_order=3).  Energies use the same rule as assembly, so the Galerkin
identity energy(u) = -1/2 rhs.u holds at solver accuracy.

Geometry and quadrature points are cached per patch; stiffness is not,
so two coefficient fields never share a matrix.  Per-triangle element
matrices come from one routine: `assemble` builds the eliminated CSR system
from them for the iterative solves (the fine reference, and the bubble
reference with the whole coarse skeleton fixed), and the offline patch
solves in `localbasis` build dense lattice-row blocks from them.

Element patches of one shape are lattice translates of each other
(`patch_groups` checks it), so `localbasis` and the coarse assembly work on
a whole `PatchGroup` at once: the template's local triangulation serves
every member, and per-triangle data is gathered from the global geometry
with one coefficient evaluation per chunk.  Every coefficient-weighted
inner product goes through `gram_blocks`.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sp


class SolverDivergenceError(RuntimeError):
    """CG failed to reach the requested residual within the iteration cap."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class CoefficientBoundsError(ValueError):
    """A coefficient value is not finite or leaves its declared bounds."""


# ---------------------------------------------------------------------------
# coefficient and right-hand-side fields

@dataclass(frozen=True)
class CoefficientField:
    """SPD diffusion coefficient A(x), evaluated pointwise as a 2x2 matrix."""

    name: str
    alpha_min: float
    alpha_max: float
    fn: Callable[[np.ndarray], np.ndarray]

    def matrix_at(self, points: np.ndarray) -> np.ndarray:
        """A at each row of points, shape (n, 2, 2).  Raises
        CoefficientBoundsError unless the closed-form eigenvalues of each
        symmetric part are finite and in [alpha_min, alpha_max] (to
        rounding); NaN and inf fail the comparisons."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        v = self.fn(pts)
        mean = 0.5 * (v[:, 0, 0] + v[:, 1, 1])
        rad = np.hypot(0.5 * (v[:, 0, 0] - v[:, 1, 1]),
                       0.5 * (v[:, 0, 1] + v[:, 1, 0]))
        lo, hi = self.alpha_min, self.alpha_max
        ok = (mean - rad >= lo - 1e-12 * hi) & (mean + rad <= hi * (1 + 1e-12))
        if not ok.all():
            x, y = pts[np.argmin(ok)]
            raise CoefficientBoundsError(
                f"coefficient {self.name} at ({x:.6g}, {y:.6g}) is not "
                f"finite or leaves its declared bounds [{lo:g}, {hi:g}]")
        return v

    def matrix(self, x: float, y: float) -> np.ndarray:
        return self.matrix_at(np.array([[x, y]]))[0]


def scalar_field(name: str, a, alpha_min: float, alpha_max: float) -> CoefficientField:
    """Coefficient a(x,y)*I from a vectorized scalar function."""

    def fn(pts):
        v = np.asarray(a(pts[:, 0], pts[:, 1]), dtype=float)
        out = np.zeros((len(pts), 2, 2))
        out[:, 0, 0] = v
        out[:, 1, 1] = v
        return out

    return CoefficientField(name, alpha_min, alpha_max, fn)


def identity_field() -> CoefficientField:
    return scalar_field("identity", lambda x, y: np.ones_like(x), 1.0, 1.0)


def periodic_benchmark(eps: float) -> CoefficientField:
    """The oscillating scalar coefficient a(x/eps, y/eps)*I with
    a(x,y) = (2+1.8 sin 2pi x)/(2+1.8 cos 2pi y) + (2+sin 2pi y)/(2+1.8 sin 2pi x).

    The scalar factor ranges over [1.248, 19.53] (sampled on a 4001^2 grid of
    the periodic cell); declared bounds pad that slightly.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")

    def a(x, y):
        X, Y = 2 * np.pi * x / eps, 2 * np.pi * y / eps
        return ((2 + 1.8 * np.sin(X)) / (2 + 1.8 * np.cos(Y))
                + (2 + np.sin(Y)) / (2 + 1.8 * np.sin(X)))

    return scalar_field(f"periodic_benchmark(eps={eps:.12g})", a, 1.2, 20.0)


@dataclass(frozen=True)
class RhsField:
    """Scalar right-hand side with an optional analytic gradient (used only
    for Sobolev norms of f in the estimator)."""

    name: str
    fn: Callable
    grad: Callable | None = None

    def __call__(self, x, y):
        return self.fn(x, y)


def constant_rhs(value: float) -> RhsField:
    v = float(value)
    return RhsField(f"constant({v:.12g})",
                    lambda x, y: np.full_like(np.asarray(x, dtype=float), v),
                    lambda x, y: (np.zeros_like(x), np.zeros_like(x)))


def gaussian_rhs() -> RhsField:
    """f(x,y) = -10 exp(-80((x-1/2)^2 + (y-1/2)^2))."""

    def f(x, y):
        return -10.0 * np.exp(-80.0 * ((x - 0.5) ** 2 + (y - 0.5) ** 2))

    def g(x, y):
        v = f(x, y)
        return (-160.0 * (x - 0.5) * v, -160.0 * (y - 0.5) * v)

    return RhsField("gaussian_benchmark", f, g)


# ---------------------------------------------------------------------------
# P1 geometry over a triangle subset

def _stiffness(g: np.ndarray, AW: np.ndarray) -> np.ndarray:
    """P1 stiffness matrices (..., nt, 3, 3) from gradients g (..., nt, 3, 2)
    and area-weighted coefficients AW (..., nt, 2, 2), exactly symmetric."""
    # grad_i^T A grad_j term by term: faster than a three-operand einsum,
    # same sums in the same order.  Triangles run along the last axis, so
    # every elementwise loop is long.
    g = np.ascontiguousarray(np.moveaxis(g, -3, -1))    # (..., 3, 2, nt)
    AW = np.ascontiguousarray(np.moveaxis(AW, -3, -1))  # (..., 2, 2, nt)
    gA = (g[..., :1, :] * AW[..., None, 0, :, :]
          + g[..., 1:, :] * AW[..., None, 1, :, :])
    Kt = (gA[..., :, None, 0, :] * g[..., None, :, 0, :]
          + gA[..., :, None, 1, :] * g[..., None, :, 1, :])
    return np.moveaxis(0.5 * (Kt + np.swapaxes(Kt, -2, -3)), -1, -3)


def _scatter(tris: np.ndarray, contrib: np.ndarray, n: int) -> np.ndarray:
    """Add contrib (E, nt) to the three vertices of each triangle of tris
    (nt, 3): (E, n), summed vertex slot by vertex slot in triangle order."""
    E, nt = contrib.shape
    idx = np.arange(E)[:, None, None] * n + tris.T
    w = np.broadcast_to(contrib[:, None, :], (E, 3, nt))
    return np.bincount(idx.ravel(), weights=w.ravel(),
                       minlength=E * n).reshape(E, n)


def gram_blocks(V: np.ndarray, tris: np.ndarray, grads: np.ndarray,
                AW: np.ndarray, W: np.ndarray | None = None) -> np.ndarray:
    """Gram blocks a(V_i, W_j) of a stack of patches on one local
    triangulation: the one quadrature of coefficient-weighted inner
    products, called by energy_inner_matrix and by the coarse assembly.

    V (E, b, n) and W (E, c, n) are nodal values on the local vertices of
    tris (nt, 3); grads (E, nt, 3, 2) are the P1 gradients and AW
    (E, nt, 2, 2) the area-weighted coefficient of each patch.  Returns
    (E, b, c), exactly symmetric when W is None.
    """
    # Triangles run along the last axis, as in _stiffness.
    gT = np.ascontiguousarray(np.moveaxis(grads, 1, -1))  # (E, 3, 2, nt)
    AT = np.ascontiguousarray(np.moveaxis(AW, 1, -1))     # (E, 2, 2, nt)

    def gradients(X):  # (E, rows, 2, nt)
        Xt = X[:, :, tris.T]
        return (Xt[:, :, 0, None] * gT[:, None, 0]
                + Xt[:, :, 1, None] * gT[:, None, 1]
                + Xt[:, :, 2, None] * gT[:, None, 2])

    gV = gradients(V)
    gW = gV if W is None else gradients(W)
    AgW = (gW[:, :, None, 0] * AT[:, None, :, 0]
           + gW[:, :, None, 1] * AT[:, None, :, 1])
    E, b, c = len(gV), gV.shape[1], gW.shape[1]
    M = np.matmul(gV.reshape(E, b, -1),
                  AgW.reshape(E, c, -1).transpose(0, 2, 1))
    if W is None:
        M = 0.5 * (M + M.transpose(0, 2, 1))
    return M


class TriGeometry:
    """P1 data for a set of fine triangles: a patch of one coarse element or
    the whole fine mesh.  Vertex indexing is local; vids maps back to global
    fine vertex ids."""

    def __init__(self, points: np.ndarray, tris: np.ndarray, vids: np.ndarray,
                 boundary_local: np.ndarray, label: str):
        self.points = points
        self.tris = tris
        self.vids = vids
        self.boundary_local = boundary_local
        self.label = label
        p0, p1, p2 = points[tris[:, 0]], points[tris[:, 1]], points[tris[:, 2]]
        det = ((p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1])
               - (p2[:, 0] - p0[:, 0]) * (p1[:, 1] - p0[:, 1]))
        if np.any(det <= 0):
            raise ValueError(f"{label}: degenerate or misoriented triangle")
        self.areas = 0.5 * det
        self.centroids = (p0 + p1 + p2) / 3.0
        g = np.empty((len(tris), 3, 2))
        g[:, 0, 0] = (p1[:, 1] - p2[:, 1]) / det
        g[:, 0, 1] = (p2[:, 0] - p1[:, 0]) / det
        g[:, 1, 0] = (p2[:, 1] - p0[:, 1]) / det
        g[:, 1, 1] = (p0[:, 0] - p2[:, 0]) / det
        g[:, 2, 0] = (p0[:, 1] - p1[:, 1]) / det
        g[:, 2, 1] = (p1[:, 0] - p0[:, 0]) / det
        self.grads = g
        self._quad: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    @property
    def n_vertices(self) -> int:
        return len(self.points)

    def quad_points(self, order: int = 1) -> tuple[np.ndarray, np.ndarray]:
        """Composite quadrature: (points, weights) with sum(weights) = area."""
        try:
            return self._quad[order]
        except KeyError:
            pass
        if order == 1:
            out = (self.centroids, self.areas)
        elif order == 3:
            p = self.points[self.tris]  # (nt, 3, 2)
            mids = np.concatenate([(p[:, 1] + p[:, 2]) / 2,
                                   (p[:, 0] + p[:, 2]) / 2,
                                   (p[:, 0] + p[:, 1]) / 2])
            out = (mids, np.tile(self.areas / 3.0, 3))
        else:
            raise ValueError("quad_order must be 1 or 3")
        self._quad[order] = out
        return out

    def coefficient_at_triangles(self, A: CoefficientField, order: int = 1) -> np.ndarray:
        """Per-triangle coefficient matrix for the composite rule (the mean
        of the point values for the 3-point rule)."""
        if order == 1:
            return A.matrix_at(self.centroids)
        pts, _ = self.quad_points(3)
        vals = A.matrix_at(pts)
        nt = len(self.tris)
        return (vals[:nt] + vals[nt:2 * nt] + vals[2 * nt:]) / 3.0

    def element_matrices(self, A: CoefficientField, order: int = 1
                         ) -> np.ndarray:
        """Per-triangle P1 stiffness matrices, shape (nt, 3, 3), exactly
        symmetric."""
        AW = self.areas[:, None, None] * self.coefficient_at_triangles(A, order)
        return _stiffness(self.grads, AW)

    def _eliminated(self, A: CoefficientField, order: int):
        """(K_ff, K_fc, free_loc, fixed_loc, diag) for this patch."""
        Kt = self.element_matrices(A, order)
        # int32 is scipy's own index type, so COO-to-CSR copies no index
        # array (a third of the peak of a global assembly).
        tris = self.tris.astype(np.int32)
        rows = np.repeat(tris, 3, axis=1).ravel()
        cols = np.tile(tris, (1, 3)).ravel()
        n = self.n_vertices
        K = sp.coo_matrix((Kt.ravel(), (rows, cols)), shape=(n, n)).tocsr()
        # Mirror through the transpose so symmetry is exact by construction.
        K = (K + K.T) * 0.5
        fixed = self.boundary_local
        mask = np.ones(n, dtype=bool)
        mask[fixed] = False
        free = np.flatnonzero(mask)
        K_ff = K[free][:, free].tocsr()
        K_fc = K[free][:, fixed].tocsr()
        return K_ff, K_fc, free, fixed, K_ff.diagonal()


def global_geometry(fine) -> TriGeometry:
    try:
        return fine._geom_cache["global"]
    except KeyError:
        pass
    n = fine.n_vertices
    geom = TriGeometry(fine.vertices, fine.triangles, np.arange(n),
                       fine.boundary_vertex_ids(), "global fine mesh")
    fine._geom_cache["global"] = geom
    return geom


def skeleton_geometry(fine) -> TriGeometry:
    """The global fine mesh with every fine vertex of the coarse skeleton
    (all coarse edges, the domain boundary included) fixed; a shallow copy
    that shares the global geometry's arrays."""
    geom = copy.copy(global_geometry(fine))
    geom.boundary_local = np.unique(
        fine.edge_vertex_chains(np.arange(len(fine.coarse.edges))))
    geom.label = "fine mesh with the coarse skeleton fixed"
    return geom


def element_geometry(fine, elem_id: int) -> TriGeometry:
    try:
        return fine._geom_cache[elem_id]
    except KeyError:
        pass
    vids = fine.element_vertex_ids(elem_id)
    tris = np.searchsorted(vids, fine.triangles[fine.element_triangle_ids(elem_id)])
    bnd = np.searchsorted(vids, fine.element_boundary_vertex_ids(elem_id))
    geom = TriGeometry(fine.vertices[vids], tris, vids, bnd,
                       f"element {elem_id} patch")
    fine._geom_cache[elem_id] = geom
    return geom


def element_quadrature(fine, elem_id: int) -> tuple[np.ndarray, np.ndarray]:
    """element_geometry(fine, elem_id).quad_points(), gathered from the
    global geometry without building the patch geometry."""
    geom = global_geometry(fine)
    ids = fine.element_triangle_ids(elem_id)
    return geom.centroids[ids], geom.areas[ids]


@dataclass(frozen=True)
class PatchGroup:
    """Element patches that are lattice translates of one template patch.

    The template's local triangles and boundary serve every member; the
    per-triangle data of a member is gathered from the global fine mesh,
    which reproduces the member's own patch geometry bitwise.  Built by
    patch_groups.
    """

    fine: object
    template: TriGeometry
    elements: np.ndarray  # coarse element ids
    shifts: np.ndarray    # member fine vertex ids minus the template's
    tri_ids: np.ndarray   # (E, nt) global fine triangles, template order

    def chunks(self, doubles_per_element: int):
        """(slice, sub-group) pairs of consecutive members whose temporaries
        hold about 2**18 doubles, given what one element needs."""
        step = max(1, (1 << 18) // max(1, doubles_per_element))
        for s in range(0, len(self.elements), step):
            sl = slice(s, s + step)
            yield sl, PatchGroup(self.fine, self.template, self.elements[sl],
                                 self.shifts[sl], self.tri_ids[sl])

    def weights(self, A: CoefficientField) -> tuple[np.ndarray, np.ndarray]:
        """(grads, AW): P1 gradients (E, nt, 3, 2) and the area-weighted
        coefficient (E, nt, 2, 2) at the centroids, from one evaluation."""
        geom = global_geometry(self.fine)
        ids = self.tri_ids
        Ac = A.matrix_at(geom.centroids[ids.ravel()]).reshape(ids.shape
                                                               + (2, 2))
        return geom.grads[ids], geom.areas[ids][..., None, None] * Ac

    def element_matrices(self, A: CoefficientField) -> np.ndarray:
        """Per-triangle stiffness of every member, (E, nt, 3, 3)."""
        return _stiffness(*self.weights(A))

    def load_vectors(self, f) -> np.ndarray:
        """P1 load vector of f on every member, (E, n), as load_vector."""
        geom = global_geometry(self.fine)
        pts = geom.centroids[self.tri_ids.ravel()]
        fv = np.asarray(f(pts[:, 0], pts[:, 1]), dtype=float)
        return _scatter(self.template.tris,
                        geom.areas[self.tri_ids] * fv.reshape(
                            self.tri_ids.shape) / 3.0,
                        self.template.n_vertices)


def patch_groups(fine, elem_ids) -> list[PatchGroup]:
    """Element patches grouped by shape (fine.patch_shape), in order of
    first appearance.  The first element of a shape is its template, and
    every other member must be its lattice translate: the same vertex,
    boundary and triangle lists shifted by one vertex offset, triangle
    vertex order included.  Raises ValueError otherwise.
    """
    shapes: dict[int, list[int]] = {}
    for K in elem_ids:
        shapes.setdefault(fine.patch_shape(int(K)), []).append(int(K))
    groups = []
    for members in shapes.values():
        t = element_geometry(fine, members[0])
        parts = [fine.element_patch(K) + (fine.element_triangle_ids(K),)
                 for K in members]
        sizes = (len(t.vids), len(t.boundary_local), len(t.tris))
        ok = [tuple(map(len, p)) == sizes for p in parts]
        if all(ok):
            vids, bnd, tri_ids = map(np.stack, zip(*parts))
            shifts = vids[:, 0] - t.vids[0]
            ok = ((vids - shifts[:, None] == t.vids).all(1)
                  & (bnd - shifts[:, None] == t.vids[t.boundary_local]).all(1)
                  & (fine.triangles[tri_ids] - shifts[:, None, None]
                     == t.vids[t.tris]).all((1, 2)))
        if not all(ok):
            raise ValueError(f"element {members[int(np.argmin(ok))]} patch "
                             "is not a lattice translate of element "
                             f"{members[0]}")
        groups.append(PatchGroup(fine, t, np.array(members), shifts, tri_ids))
    return groups


# ---------------------------------------------------------------------------
# assembly, solve, energies

@dataclass
class FineFunction:
    """Nodal values on a TriGeometry (a patch or the global mesh)."""

    geom: TriGeometry
    values: np.ndarray
    cg_iters: int = 0


@dataclass
class SparseSpdSystem:
    """Eliminated SPD system: free-DOF matrix, lifted right-hand side, and
    the template carrying the Dirichlet values."""

    K: sp.csr_matrix
    rhs: np.ndarray
    free_loc: np.ndarray
    values0: np.ndarray
    geom: TriGeometry
    diag: np.ndarray


def load_vector(geom: TriGeometry, f, quad_order: int = 1) -> np.ndarray:
    """P1 load vector of f by the composite rule, full local length."""
    pts, w = geom.quad_points(quad_order)
    fv = np.asarray(f(pts[:, 0], pts[:, 1]), dtype=float)
    if quad_order == 1:
        return _scatter(geom.tris, (w * fv / 3.0)[None], geom.n_vertices)[0]
    b = np.zeros(geom.n_vertices)
    nt = len(geom.tris)
    # Midpoint opposite vertex i carries hat values (0, 1/2, 1/2).
    for block in range(3):
        fw = w[block * nt:(block + 1) * nt] * fv[block * nt:(block + 1) * nt]
        for i in range(3):
            if i != block:
                np.add.at(b, geom.tris[:, i], fw / 2.0)
    return b


def assemble(geom: TriGeometry, A: CoefficientField, f=None,
             dirichlet=0.0, quad_order: int = 1) -> SparseSpdSystem:
    """Assemble the Dirichlet-eliminated system on a patch or the global mesh.

    dirichlet is either one value for the whole boundary or an array of
    values aligned with geom.boundary_local.
    """
    K_ff, K_fc, free, fixed, diag = geom._eliminated(A, quad_order)
    xc = np.asarray(dirichlet, dtype=float)
    if xc.ndim == 0:
        xc = np.full(len(fixed), float(xc))
    elif xc.shape != fixed.shape:
        raise ValueError(f"{geom.label}: {xc.size} Dirichlet values for "
                         f"{len(fixed)} boundary vertices")
    b = load_vector(geom, f, quad_order) if f is not None else np.zeros(geom.n_vertices)
    rhs = b[free]
    if len(fixed) and np.any(xc != 0.0):
        rhs = rhs - K_fc @ xc
    values0 = np.zeros(geom.n_vertices)
    values0[fixed] = xc
    return SparseSpdSystem(K_ff, rhs, free, values0, geom, diag)


def pcg(K, b: np.ndarray, rel_tol: float, diag: np.ndarray | None = None,
        cap: int | None = None) -> tuple[np.ndarray, int]:
    """Jacobi-preconditioned conjugate gradients, deterministic.

    Stops at ||r|| <= rel_tol*||b||; raises SolverDivergenceError past the
    iteration cap (default 50*sqrt(n))."""
    n = K.shape[0]
    if n == 0:
        return np.zeros(0), 0
    nb = np.linalg.norm(b)
    if nb == 0.0:
        return np.zeros(n), 0
    if cap is None:
        cap = int(math.ceil(50.0 * math.sqrt(n)))
    dinv = 1.0 / (K.diagonal() if diag is None else diag)
    x = np.zeros(n)
    r = b.copy()
    z = dinv * r
    p = z.copy()
    rz = float(r @ z)
    for it in range(1, cap + 1):
        Kp = K @ p
        alpha = rz / float(p @ Kp)
        x += alpha * p
        r -= alpha * Kp
        res = np.linalg.norm(r)
        if res <= rel_tol * nb:
            return x, it
        z = dinv * r
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise SolverDivergenceError(
        f"CG did not reach {rel_tol:g} within {cap} iterations "
        f"(relative residual {res / nb:.3e})", res / nb)


def solve_spd(system: SparseSpdSystem, rel_tol: float = 1e-12) -> FineFunction:
    """Solve the eliminated system and return the full nodal field."""
    if not 0.0 < rel_tol < 1.0:
        raise ValueError("rel_tol must lie in (0, 1)")
    x, iters = pcg(system.K, system.rhs, rel_tol, diag=system.diag)
    values = system.values0.copy()
    values[system.free_loc] = x
    return FineFunction(system.geom, values, iters)


def energy_inner_matrix(V: np.ndarray, geom: TriGeometry, A: CoefficientField,
                        W: np.ndarray | None = None, quad_order: int = 1
                        ) -> np.ndarray:
    """Gram matrix a(V_i, W_j) of nodal-value rows over one geometry.

    Scalar energies and the error report call it; it sums gram_blocks
    over blocks of about 2**16 / rows triangles, so the gathered nodal
    values of a stack of global fields never exist all at once.
    """
    V = np.atleast_2d(V)
    W = None if W is None or W is V else np.atleast_2d(W)[None]
    V = V[None]
    AW = geom.areas[:, None, None] * geom.coefficient_at_triangles(A,
                                                                   quad_order)
    M = np.zeros((V.shape[1], V.shape[1] if W is None else W.shape[1]))
    step = max(1, (1 << 16) // (V.shape[1] + len(M[0])))
    for s in range(0, len(geom.tris), step):
        M += gram_blocks(V, geom.tris[s:s + step],
                         geom.grads[None, s:s + step], AW[None, s:s + step],
                         W)[0]
    return M


def energy_inner(v: FineFunction, w: FineFunction, A: CoefficientField,
                 quad_order: int = 1) -> float:
    """a(v, w) = integral of (grad v)^T A grad w."""
    if v.geom is not w.geom:
        raise ValueError("energy_inner: functions live on different meshes "
                         f"({v.geom.label} vs {w.geom.label})")
    return float(energy_inner_matrix(v.values[None, :], v.geom, A,
                                     W=w.values[None, :], quad_order=quad_order)[0, 0])


def energy(v: FineFunction, A: CoefficientField, f=None,
           quad_order: int = 1) -> float:
    """E(v) = 1/2 a(v,v) - integral of f v, same quadrature as assemble."""
    e = 0.5 * float(energy_inner_matrix(v.values[None, :], v.geom, A,
                                        quad_order=quad_order)[0, 0])
    if f is not None:
        e -= float(load_vector(v.geom, f, quad_order) @ v.values)
    return e
