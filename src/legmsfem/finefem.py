"""P1 finite elements on the shared fine mesh.

Stiffness and load assembly against an SPD coefficient field, with the
boundary vertices held at zero, a deterministic preconditioned CG, and the
energies everything downstream is phrased in.  Coefficient-weighted
integrals use the centroid rule over the fine triangles, and energies use
the same rule as assembly, so the Galerkin identity energy(u) = -1/2 rhs.u
holds at solver accuracy.

Every geometry here is a set of triangles of the SW-NE fine lattice: a box
of lattice vertices and a mask of the cell triangles it holds, the
centroids of any block of its cells formed from the box's coordinate
vectors when a consumer takes them, and the area of every triangle one
value from the lattice spacing (`lattice_cells`).  The coefficient is
a scalar field, a(x) I, so its stiffness is a 5-point stencil (centre,
E/W, N/S) on its box, and its P1 loads are box arrays, both summed from
per-cell arrays in shifted slices (`Stencil.of`, `box_loads`, also for a
stack of congruent patches), every vertex adding its triangles' terms in
one order (`BY_TRIANGLE`): the lower (SW, SE, NE) and upper (SW, NE, NW)
triangle of a cell have two constant gradient patterns
(`cell_gradients`), and a triangle off the geometry a zero coefficient and
load.  The coefficient and the load are one kind of `Field`, and a fine
mesh evaluates each once, at first use (`TriGeometry.held`): on one cell
for a constant, on the cells of one period for a field whose period spans
a whole number of cells, else on every cell, in blocks of cell rows.
Every consumer reads windows of that evaluation, a cell taking the value
of its lattice cell index modulo its shape, so cells a whole number of
periods apart carry bitwise equal values: the area-weighted coefficient
of a geometry and the stencils of a stack of patches, `load_vector` (the
whole lattice's, the loads of the fine reference and of the offline
sweep), `PatchGroup.load_vectors` (the loads the coarse assembly
projects), and the estimator's norms of f.  The stencil is
the one form of every fine stiffness: `assemble` masks the boundary
vertices out of it for the iterative solves (the fine reference), and the
direct elimination of `multigrid.RowBlocks` gathers its blocks from it.
A geometry keeps what it derives from a field in one store, one product
per key, of the last field asked for: its stencil and its load vector,
and on the whole lattice the evaluations of a coefficient and of a load,
the only arrays it keeps per triangle.  The fields are compared by
identity, never by name, so two fields never share a matrix or a load.
Only numpy is needed.

`solve_spd` runs `pcg` preconditioned by one V-cycle of
`multigrid.Multigrid` on box arrays that vanish off the free vertices
(the stencil with a mask); the lattice solvers, the row elimination and
the multigrid hierarchy, are described in `multigrid`.  The online
interface CG stays Jacobi.

Element patches of one shape are lattice translates of each other, so
`localbasis` and the coarse assembly work on a whole `PatchGroup` at once:
each member is the lattice window at its origin, the template's box and
cell mask serve every member, a member's coefficient and load are its
windows of their evaluations, and its centroids are the lattice formula on
its window.  Members whose windows are bitwise equal (a whole number of
periods apart) have bitwise equal stencils, so the offline sweep
eliminates one of them for all.

Every coefficient-weighted inner product a(u, v) is u^T (K v) with the
stencil of its geometry (`Stencil.apply_full`): `energy_inner_matrix` and
`energy` with the one stencil a geometry keeps per coefficient, the same
one `assemble` uses, and `patch_grams` with the stencils of a chunk of
patches, which the offline sweep forms for its elimination anyway.  The
sums over the fine vertices that reach an output run in a fixed order
(`dot`, einsum without BLAS), so no result depends on the BLAS thread
count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from . import multigrid


class SolverDivergenceError(RuntimeError):
    """CG broke down or missed the requested residual within its cap."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class CoefficientBoundsError(ValueError):
    """A coefficient value is not finite or leaves its declared bounds."""


class LoadValueError(ValueError):
    """A load value is not finite."""


# ---------------------------------------------------------------------------
# fields on the fine lattice

@dataclass(frozen=True)
class Field:
    """A scalar field from vectorized fn(x, y): the diffusion coefficient
    a(x, y) I, with its declared bounds (lo, hi), or a load f, bounds None,
    with its analytic gradient grad where it has one (the estimator's
    Sobolev norm of f).  period is (px, py) where the field repeats in x
    and y, a period 0 where it does not vary along that direction, so a
    constant has period (0, 0).  A fine mesh evaluates a field once
    (TriGeometry.held)."""

    name: str
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    bounds: tuple[float, float] | None = None
    period: tuple[float, float] | None = None
    grad: Callable | None = None

    def at(self, points) -> np.ndarray:
        """The field at the points (..., 2), shape (...,), (1,) for one
        point, a constant fn broadcast.  Raises CoefficientBoundsError for
        a coefficient unless each value is finite and in its bounds (to
        rounding; NaN and inf fail the comparisons), LoadValueError for a
        load where a value is not finite, naming the first such point."""
        pts = np.asarray(points, dtype=float)
        pts = pts[None] if pts.ndim == 1 else pts
        v = np.broadcast_to(np.asarray(self.fn(pts[..., 0], pts[..., 1]),
                                       dtype=float), pts.shape[:-1])
        if self.bounds is None:
            ok = np.isfinite(v)
        else:
            lo, hi = self.bounds
            ok = (v >= lo * (1 - 1e-12)) & (v <= hi * (1 + 1e-12))
        if not ok.all():
            x, y = pts.reshape(-1, 2)[np.argmin(ok)]
            if self.bounds is None:
                raise LoadValueError(f"load {self.name} at ({x:.6g}, "
                                     f"{y:.6g}) is not finite")
            raise CoefficientBoundsError(
                f"coefficient {self.name} at ({x:.6g}, {y:.6g}) is not "
                f"finite or leaves its declared bounds [{lo:g}, {hi:g}]")
        return v


def identity_field() -> Field:
    return Field("identity", lambda x, y: 1.0, (1.0, 1.0), (0.0, 0.0))


def periodic_benchmark(eps: float) -> Field:
    """The oscillating scalar coefficient a(x/eps, y/eps)*I with
    a(x,y) = (2+1.8 sin 2pi x)/(2+1.8 cos 2pi y) + (2+sin 2pi y)/(2+1.8 sin 2pi x).

    The scalar factor ranges over [1.248, 19.53] (sampled on a 4001^2 grid of
    the periodic cell); declared bounds pad that slightly.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")

    def a(x, y):
        X, Y = 2 * np.pi * x / eps, 2 * np.pi * y / eps
        sx = 2 + 1.8 * np.sin(X)
        return sx / (2 + 1.8 * np.cos(Y)) + (2 + np.sin(Y)) / sx

    return Field(f"periodic_benchmark(eps={eps:.12g})", a, (1.2, 20.0),
                 (eps, eps))


def constant_rhs(value: float) -> Field:
    v = float(value)
    return Field(f"constant({v:.12g})", lambda x, y: v, period=(0.0, 0.0),
                 grad=lambda x, y: (np.zeros_like(x), np.zeros_like(x)))


def gaussian_rhs() -> Field:
    """f(x,y) = -10 exp(-80((x-1/2)^2 + (y-1/2)^2))."""

    def f(x, y):
        return -10.0 * np.exp(-80.0 * ((x - 0.5) ** 2 + (y - 0.5) ** 2))

    def g(x, y):
        v = f(x, y)
        return (-160.0 * (x - 0.5) * v, -160.0 * (y - 0.5) * v)

    return Field("gaussian_benchmark", f, grad=g)


# ---------------------------------------------------------------------------
# P1 geometry over a triangle subset

def cell_gradients(spacing: tuple[float, float]) -> np.ndarray:
    """The P1 gradients (2, 3, 2) of the lower (SW, SE, NE) and the upper
    (SW, NE, NW) triangle of a lattice cell of the given (width, height),
    vertex by vertex, by the formula of any triangle from its corners
    (determinant hx * hy, differences 0, +-hx, +-hy): bitwise those of a
    cell whose corners step by exactly the spacing (a power of two)."""
    hx, hy = spacing
    a, b = hy / (hx * hy), hx / (hx * hy)
    return np.array([[[-a, 0.0], [a, -b], [0.0, b]],
                     [[0.0, -b], [a, 0.0], [-a, b]]])


def _stiffness_entries(g: np.ndarray, w: np.ndarray) -> tuple:
    """The six distinct entries of the P1 stiffness matrices of triangles
    with the gradients g (3, 2) and area-weighted coefficients w (...):
    the diagonals (K00, K11, K22) and the couplings (K01, K02, K12), each
    (...), None where zero.  K_ij sums g_jd (g_id w) over the d where both
    gradients are nonzero: for i != j at most one d, with opposite signs,
    so K_ij = K_ji exactly, and the SW-NE coupling is None."""

    def k(i, j):
        terms = [g[j, d] * (g[i, d] * w) for d in (0, 1)
                 if g[i, d] and g[j, d]]
        for t in terms[1:]:
            terms[0] += t
        return terms[0] if terms else None

    return (k(0, 0), k(1, 1), k(2, 2)), (k(0, 1), k(0, 2), k(1, 2))


# The triangle vertices at a box position, each (di, dj, t, s): corner
# (di, dj) of the cell di rows down and dj columns left of the position,
# its lower (t = 0: SW, SE, NE) or upper (t = 1: SW, NE, NW) triangle, and
# the vertex's slot s in it; in the order a scatter over the triangles adds
# them there, triangle by triangle (cells in row-major order, lower first),
# the one order of every stiffness and load sum at a vertex.  The terms of
# the cell row below a vertex (di = 1) all come first, so blocks of cell
# rows added one after another, in ascending order, give the sums of the
# whole box bitwise.
BY_TRIANGLE = ((1, 1, 0, 2), (1, 1, 1, 1), (1, 0, 1, 2), (0, 1, 0, 1),
               (0, 0, 0, 0), (0, 0, 1, 0))


def _add_at_corners(out: np.ndarray, terms) -> np.ndarray:
    """Add each per-cell array V (..., rows - 1, columns - 1) of terms
    (di, dj, V), in turn, to the lattice array out (..., rows, columns) at
    corner (di, dj) of every cell, in place."""
    cy, cx = out.shape[-2] - 1, out.shape[-1] - 1
    for di, dj, v in terms:
        out[..., di:di + cy, dj:dj + cx] += v
    return out


def _add_shares(out: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Add the per-cell shares S (..., rows - 1, columns - 1, 2) of the
    lower and the upper triangle of each cell to the lattice array out
    (..., rows, columns) at each of the triangle's vertices, in place, in
    BY_TRIANGLE order."""
    return _add_at_corners(out, [(di, dj, S[..., t])
                                 for di, dj, t, _ in BY_TRIANGLE])


def box_loads(geom: TriGeometry, shares: np.ndarray) -> np.ndarray:
    """P1 load vectors on the vertex box of geom, (..., box positions),
    from the share (..., nt) of each triangle at each of its vertices
    (area * value / 3 by the centroid rule), each position adding those
    of its triangles in BY_TRIANGLE order."""
    rows, cols = geom.grid
    lead = shares.shape[:-1]
    S = geom.to_cells(shares).reshape(lead + (rows - 1, cols - 1, 2))
    out = _add_shares(np.zeros(lead + (rows, cols)), S)
    return out.reshape(lead + (rows * cols,))


def lattice_cells(x: np.ndarray, y: np.ndarray,
                  spacing: tuple[float, float]) -> tuple[float, np.ndarray]:
    """(area, centroids) of the lower and the upper triangle of every cell
    of the lattice with the vertex coordinate vectors x (..., columns) and
    y (..., rows) and cells of the given (width, height): the one area,
    hx * hy / 2, of every triangle, so cells a whole number of periods
    apart weigh a periodic coefficient bitwise alike whatever the spacing
    (where the spacing is a power of two it is the formula of a triangle
    from its corners, elsewhere the two differ by rounding), and the
    centroids (..., rows - 1, columns - 1, 2, 2), leading axes broadcast,
    each (p0 + p1 + p2) / 3, bitwise the formula of a triangle from its
    corners."""
    x0, x1, y0, y1 = x[..., :-1], x[..., 1:], y[..., :-1], y[..., 1:]
    cx = np.stack([x0 + x1 + x1, x0 + x1 + x0], -1)
    cy = np.stack([y0 + y0 + y1, y0 + y1 + y1], -1)
    centroids = np.stack(np.broadcast_arrays(cx[..., None, :, :],
                                             cy[..., :, None, :]), -1) / 3.0
    return 0.5 * (spacing[0] * spacing[1]), centroids


def _window(V: np.ndarray, r, c, rows: int, cols: int) -> np.ndarray:
    """The values of cells (r + i, c + j), i < rows, j < cols, of the
    lattice from the cells V (p, q, ...) that repeat over it, entry
    ((r + i) mod p, (c + j) mod q); r and c are ints or arrays of a
    leading axis (then (..., rows, cols, ...)), and a view where one int
    window does not wrap."""
    p, q = V.shape[:2]
    r, c = np.mod(r, p), np.mod(c, q)
    if np.ndim(r) == 0 and r + rows <= p and c + cols <= q:
        return V[r:r + rows, c:c + cols]
    i = (np.asarray(r)[..., None] + np.arange(rows)) % p
    j = (np.asarray(c)[..., None] + np.arange(cols)) % q
    return np.take(V.reshape(p * q, -1), i[..., :, None] * q + j[..., None, :],
                   axis=0)


class TriGeometry:
    """P1 data for a set of fine triangles: a patch of one coarse element or
    the whole fine mesh.  Vertex indexing is local; vids maps back to global
    fine vertex ids.  The triangles are those of the box cells, row-major,
    lower (SW, SE, NE) before upper (SW, NE, NW), that the boolean mask
    (rows - 1, columns - 1, 2) holds, all where it is None.  Nothing is
    stored per triangle but, on the whole lattice, the held evaluations of
    a coefficient and of a load (held): centroids come from the box's
    coordinate vectors x and y, the one area from the spacing (cells), and
    a geometry that fills its box, given None for vids and its box
    positions (the whole fine mesh), keeps no index array either.  What a
    geometry derives from a field, its stencil and its load vector, it
    keeps in one store, one product per key (_kept).

    A patch geometry knows the whole-lattice geometry it is cut from
    (root) and the lattice cell of its box's SW corner (corner), so that
    all geometries of one fine mesh read the one evaluation of a field
    there (window)."""

    def __init__(self, points: np.ndarray, vids: np.ndarray | None,
                 boundary_local: np.ndarray, label: str,
                 box: tuple[tuple[int, int], np.ndarray | None],
                 spacing: tuple[float, float],
                 mask: np.ndarray | None = None,
                 lattice: tuple[int, int] | None = None,
                 root: TriGeometry | None = None,
                 corner: tuple[int, int] = (0, 0)):
        self.points = points
        self._root = root
        self.corner = corner
        self._vids = vids
        self.boundary_local = boundary_local
        self.label = label
        # (nx, ny) when this is a whole nx-by-ny cell lattice whose vertices
        # are its box positions; multigrid needs it.
        self.lattice = lattice
        # The vertex lattice holding the geometry, (rows, columns), the
        # row-major position of each local vertex in it (None where that
        # is the identity), and the (width, height) of its cells: the fine
        # systems are stencils and load vectors on it.
        self.grid, slots = box
        self.spacing = spacing
        self.mask = None if mask is None or mask.all() else mask
        rows, cols = self.grid
        if slots is not None and np.array_equal(slots,
                                                np.arange(rows * cols)):
            slots = None
        self._slots = slots
        # The coordinate vectors of the box (every box row and column
        # holds a vertex).
        if slots is None:
            self.x, self.y = points[:cols, 0].copy(), points[::cols, 1].copy()
        else:
            self.x, self.y = np.zeros(cols), np.zeros(rows)
            self.x[slots % cols], self.y[slots // cols] = points.T
        # What the geometry derives from a field (_kept).  A dict, so a
        # shallow copy (another fixed set on the same triangles) shares it.
        self._store: dict = {}

    @property
    def n_vertices(self) -> int:
        return len(self.points)

    @property
    def vids(self) -> np.ndarray:
        return np.arange(self.n_vertices) if self._vids is None else self._vids

    @property
    def box(self) -> tuple[tuple[int, int], np.ndarray]:
        """(grid, the box position of each local vertex)."""
        slots = self._slots
        return self.grid, (np.arange(math.prod(self.grid)) if slots is None
                           else slots)

    def on_mask(self, C: np.ndarray) -> np.ndarray:
        """Per-cell values C (box cells, 2, ...) of all box cells on the
        triangles of the geometry, (nt, ...)."""
        if self.mask is None:
            return C.reshape((-1,) + C.shape[3:])
        return C[self.mask]

    def to_cells(self, V: np.ndarray) -> np.ndarray:
        """Per-triangle values V (..., nt) on the triangles of all box
        cells, zero off the mask: V itself where the mask holds every
        one."""
        if self.mask is None:
            return V
        out = np.zeros(V.shape[:-1] + (self.mask.size,))
        out[..., self.mask.ravel()] = V
        return out

    def _kept(self, key: str, F: Field, make: Callable[[], object]):
        """The product key of the field F, make() at first use: kept until
        another field asks for the key, the field compared by identity,
        never by name, so two fields never share a product.  The old value
        is dropped before the new one is made."""
        if self._store.get(key, (None,))[0] is not F:
            self._store.pop(key, None)
            self._store[key] = (F, make())
        return self._store[key][1]

    def held(self, F: Field) -> np.ndarray:
        """F at the centroids of the cells at the origin of the whole
        lattice this geometry is cut from (root), (rows, columns, 2), lower
        triangle first: one cell where F is a constant, the cells of one
        period where each period of F is 0 or spans a whole number of cells
        (to 1e-12 relative) that fits in the lattice, else every cell of
        it, evaluated in blocks of cell rows.  Kept on the root (_kept),
        the values flat as one per triangle, under one key for a
        coefficient and one for a load, so A and f do not evict each
        other.  Lattice cell (i, j) takes entry (i mod rows, j mod
        columns) (window), so cells a whole number of periods apart carry
        bitwise equal values."""
        root = self._root or self
        return root._kept("held f" if F.bounds is None else "held A", F,
                         lambda: root._evaluate(F))

    def _evaluate(self, F: Field) -> np.ndarray:
        """The values of held on this whole lattice."""
        n = (self.grid[1] - 1, self.grid[0] - 1)
        counts = n
        if F.period is not None:
            c = [1 if p == 0 else round(p / h)
                 for p, h in zip(F.period, self.spacing)]
            if all(p == 0 or (1 <= k <= m and abs(p / h - k) <= 1e-12 * k)
                   for p, h, k, m in zip(F.period, self.spacing, c, n)):
                counts = c
        cols, rows = counts
        V = np.empty(rows * cols * 2).reshape(rows, cols, 2)
        step = cache_rows(cols)
        for lo in range(0, rows, step):
            hi = min(lo + step, rows)
            _, centroids = lattice_cells(self.x[:cols + 1],
                                         self.y[lo:hi + 1], self.spacing)
            V[lo:hi] = F.at(centroids.reshape(-1, 2)).reshape(
                centroids.shape[:-1])
        return V

    def window(self, F: Field, lo: int = 0, hi: int | None = None
               ) -> np.ndarray:
        """F on the box cells of cell rows lo to hi (exclusive; all by
        default), (rows, columns, 2), the mask not applied: the values held
        for F (held) at each cell's lattice cell index modulo their shape,
        a view where no index wraps."""
        r, c = self.corner
        rows = (self.grid[0] - 1 if hi is None else hi) - lo
        return _window(self.held(F), r + lo, c, rows, self.grid[1] - 1)

    def area_weighted(self, A: Field) -> np.ndarray:
        """Per-triangle area times the coefficient at the centroid, shape
        (nt,), formed from the geometry's window of the one evaluation of
        A (held), not kept: assemble forms it for the system whose
        multigrid coarsens it.  The area is the lattice's one value
        (lattice_cells)."""
        hx, hy = self.spacing
        return 0.5 * (hx * hy) * self.on_mask(self.window(A))

    def stencil(self, A: Field) -> Stencil:
        """The Stencil of the full stiffness of A (no vertex fixed), kept
        (_kept), so assembly and every energy product of one coefficient
        share one stencil."""
        return self._kept("stencil", A,
                         lambda: Stencil.of(self, self.area_weighted(A)))

    def to_box(self, V: np.ndarray) -> np.ndarray:
        """Nodal values V (..., n) on the flat positions of the vertex box,
        zero off the geometry: V itself where the geometry fills its box."""
        if self._slots is None:
            return V
        U = np.zeros(V.shape[:-1] + (math.prod(self.grid),), dtype=V.dtype)
        U[..., self._slots] = V
        return U

    def from_box(self, U: np.ndarray) -> np.ndarray:
        """The values of box arrays U (..., box positions) at the local
        vertices, the inverse of to_box, C-contiguous like U."""
        return U if self._slots is None else U.take(self._slots, axis=-1)


def cache_rows(per_row: int) -> int:
    """The rows of per_row values in a cache-sized block: 2**12 values,
    at least one row."""
    return max(1, (1 << 12) // max(1, per_row))


class Stencil:
    """The P1 stiffness of a lattice geometry as a 5-point stencil on its
    vertex box: flat row-major arrays of the centre coefficient and of the
    couplings of each box position with its east and north neighbours
    (the west and south ones are those of the neighbour), the rows
    (centre, east, north) of coef (..., 3, box positions).  A scalar
    coefficient couples no SW-NE diagonal (_stiffness_entries).  Each
    coupling is one entry of an exactly symmetric element matrix applied
    both ways, so the operator is exactly symmetric by construction.
    Positions outside the geometry carry zeros, so does a coupling across
    the end of a box row.  Leading axes of coef hold the stencils of a
    stack of congruent patches; every operation acts along the last axis,
    the box positions, and broadcasts over the others."""

    def __init__(self, grid: tuple[int, int], coef: np.ndarray):
        self.grid = grid
        self.coef = coef
        self.centre, self.east, self.north = np.moveaxis(coef, -2, 0)
        # (coefficients, flat offset of the neighbour) of each coupling.
        self.couplings = [(self.east, 1), (self.north, grid[1])]

    @classmethod
    def of(cls, geom: TriGeometry, AW: np.ndarray) -> Stencil:
        """of_cells of the area-weighted coefficient AW (..., nt) on the
        triangles of geom, a stack of stencils for a stack of patches with
        its triangulation."""
        return cls.of_cells(geom.grid, geom.to_cells(AW), geom.spacing)

    @classmethod
    def of_cells(cls, grid: tuple[int, int], W: np.ndarray,
                 spacing: tuple[float, float]) -> Stencil:
        """The stencil on a vertex box of grid (rows, columns) whose cells
        of the given spacing carry the area-weighted coefficients W (...,
        2 per cell) of their triangles, row-major, lower first: the
        element entries of the gradient patterns (cell_gradients) summed
        at each box position in triangle order (BY_TRIANGLE)."""
        rows, cols = grid
        lead = W.shape[:-1]
        W = W.reshape(lead + (rows - 1, cols - 1, 2))
        g = cell_gradients(spacing)
        coef = np.zeros(lead + (3, rows, cols))
        # Blocks of cell rows, in order: a vertex row two blocks share gets
        # the lower one's terms first, as BY_TRIANGLE.
        step = cache_rows((cols - 1) * math.prod(lead))
        for r in range(0, rows - 1, step):
            entries = [_stiffness_entries(g[t], W[..., r:r + step, :, t])
                       for t in (0, 1)]
            (_, (L01, _, L12)), (_, (_, U02, U12)) = entries
            # A coupling sits at the west or south end of its edge: lower
            # SW-SE and upper NW-NE east, lower SE-NE and upper SW-NW
            # north.
            for c, terms in zip(np.moveaxis(coef[..., r:r + step + 1, :],
                                            -3, 0), (
                    [(di, dj, entries[t][0][s])
                     for di, dj, t, s in BY_TRIANGLE],
                    [(1, 0, U12), (0, 0, L01)],
                    [(0, 1, L12), (0, 0, U02)])):
                _add_at_corners(c, terms)
        return cls(grid, coef.reshape(lead + (3, rows * cols)))

    def apply(self, U: np.ndarray, out: np.ndarray | None = None,
              tmp: np.ndarray | None = None) -> np.ndarray:
        """out = K U on flat box arrays (..., box positions), with tmp as
        scratch; both have the shape of the product and are allocated if
        not given.  A stack of stencils applies member by member to a
        stack of fields along the leading axes."""
        shape = np.broadcast_shapes(self.centre.shape, U.shape)
        out = np.empty(shape) if out is None else out
        tmp = np.empty(shape) if tmp is None else tmp
        np.multiply(self.centre, U, out=out)
        for coef, k in self.couplings:
            t = tmp[..., :-k]
            np.multiply(coef[..., :-k], U[..., k:], out=t)
            out[..., :-k] += t
            np.multiply(coef[..., :-k], U[..., :-k], out=t)
            out[..., k:] += t
        return out

    def apply_full(self, U: np.ndarray) -> np.ndarray:
        """K U for the stiffness of a whole geometry, no vertex fixed,
        whose rows sum to zero: sum_j k_ij (U_j - U_i) over the neighbours
        j, the form of every energy product, broadcast like apply.  The
        centre coefficient does not enter.  Neighbouring values of a
        smooth field are close, so their differences are exact and K U
        keeps the digits that centre * U_i + sum_j k_ij U_j loses to
        cancellation: u^T K u of the sweep-tri-N fine reference agrees
        with a long-double evaluation of the triangle gradients to
        rounding, where the centre form is 2e-15 relative off."""
        shape = np.broadcast_shapes(self.centre.shape, U.shape)
        out, tmp = np.zeros(shape), np.empty(shape)
        for coef, k in self.couplings:
            t = np.subtract(U[..., k:], U[..., :-k], out=tmp[..., :-k])
            t *= coef[..., :-k]
            out[..., :-k] += t
            out[..., k:] -= t
        return out


class LatticeOperator:
    """K_ff of a lattice system: the stencil of its geometry and the mask
    of the free box positions (Dirichlet and off-geometry positions are
    off it).  It acts on whole box arrays that vanish off the free
    positions, giving such an array (the form pcg and multigrid iterate
    in), and, as the matrix K_ff, on vectors over the free positions in
    row-major order (slots); shape, diagonal() and nnz (nonzero entries,
    as a sparse matrix would store them) are those of K_ff."""

    def __init__(self, stencil: Stencil, mask: np.ndarray):
        self.stencil = stencil
        self.mask = mask
        n = int(np.count_nonzero(mask))
        self.shape = (n, n)
        self._tmp = np.empty(len(mask))

    @cached_property
    def slots(self) -> np.ndarray:
        """The free positions."""
        return np.flatnonzero(self.mask)

    def box(self, x: np.ndarray) -> np.ndarray:
        """Values x over the free positions as a box array, zero off them."""
        U = np.zeros(len(self.mask))
        U[self.mask] = x
        return U

    def apply_box(self, U: np.ndarray, out: np.ndarray | None = None
                  ) -> np.ndarray:
        """K U of a box array U that vanishes off the free positions, zero
        off them, into out if given."""
        out = self.stencil.apply(U, out, self._tmp)
        return np.multiply(out, self.mask, out=out)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        if len(x) == len(self.mask):  # a box array (the same, if all free)
            return self.apply_box(x)
        return self.apply_box(self.box(x))[self.mask]

    def diagonal(self) -> np.ndarray:
        return self.stencil.centre[self.mask]

    @property
    def nnz(self) -> int:
        st, m = self.stencil, self.mask
        return int(np.count_nonzero(st.centre[m]) + 2 * sum(
            np.count_nonzero(c[:-k][m[:-k] & m[k:]]) for c, k in st.couplings))


def global_geometry(fine) -> TriGeometry:
    if "global" in fine._geom_cache:
        return fine._geom_cache["global"]
    geom = TriGeometry(fine.vertices, None, fine.boundary_vertex_ids(),
                       "global fine mesh", ((fine.nfy + 1, fine.nfx + 1), None),
                       (fine.hx, fine.hy), lattice=(fine.nfx, fine.nfy))
    fine._geom_cache["global"] = geom
    return geom


def element_geometry(fine, elem_id: int) -> TriGeometry:
    """The patch of one element: the window of n_sub-by-n_sub cells at its
    origin with the pattern and cell mask of its shape."""
    if elem_id in fine._geom_cache:
        return fine._geom_cache[elem_id]
    ids, bnd, mask = fine.shape_pattern(fine.patch_shape(elem_id))
    iy, ix = np.divmod(ids, fine.nfx + 1)
    side = fine.n_sub + 1
    origin = fine.element_origin(elem_id)
    vids = ids + origin
    geom = TriGeometry(fine.vertices[vids], vids, np.searchsorted(ids, bnd),
                       f"element {elem_id} patch",
                       ((side, side), iy * side + ix), (fine.hx, fine.hy),
                       mask, root=global_geometry(fine),
                       corner=divmod(int(origin), fine.nfx + 1))
    fine._geom_cache[elem_id] = geom
    return geom


@dataclass(frozen=True)
class PatchGroup:
    """Element patches of one shape, built by patch_groups: each member is
    the fine lattice window at its origin, and the template, whose local
    vertices, boundary and cell mask serve every member, is the shape's
    patch at origin 0, so a member's fine vertex ids are template.vids +
    its origin.  A member's field values are its window of their
    evaluation on the fine mesh (windows), its centroids the lattice
    formula on its window of the global coordinate vectors (cells),
    bitwise what its own patch geometry reads."""

    fine: object
    template: TriGeometry
    elements: np.ndarray  # coarse element ids
    origins: np.ndarray   # fine vertex id of each member's SW window corner

    def chunks(self, doubles_per_element: int):
        """(slice, sub-group) pairs of consecutive members whose temporaries
        hold about 2**18 doubles, given what one element needs."""
        step = max(1, (1 << 18) // max(1, doubles_per_element))
        for s in range(0, len(self.elements), step):
            sl = slice(s, s + step)
            yield sl, self.take(sl)

    def take(self, index) -> "PatchGroup":
        """The members at index (a slice or positions), as a group."""
        return PatchGroup(self.fine, self.template, self.elements[index],
                          self.origins[index])

    def _corners(self) -> tuple[np.ndarray, np.ndarray]:
        """The lattice row and column of every member's SW window corner."""
        return np.divmod(self.origins, self.fine.nfx + 1)

    def _positions(self, F: Field) -> tuple[np.ndarray, np.ndarray]:
        """first_of_each of the position of every member's corner in the
        values held for F (TriGeometry.held), its cell index modulo their
        shape: members at one position have bitwise equal windows."""
        V = global_geometry(self.fine).held(F)
        row, col = self._corners()
        return first_of_each(row % V.shape[0] * V.shape[1] + col % V.shape[1])

    def windows(self, F: Field) -> np.ndarray:
        """F on the box cells of every member, (E, n_sub, n_sub, 2), zero
        on the triangles off the template's mask: each member's window of
        the one evaluation of F (TriGeometry.held), copied once."""
        row, col = self._corners()
        ns = self.fine.n_sub
        W = _window(global_geometry(self.fine).held(F), row, col, ns, ns)
        if self.template.mask is not None:
            np.copyto(W, 0.0, where=~self.template.mask)
        return W

    def window_ids(self, F: Field, step: int) -> np.ndarray:
        """The distinct window of F of each member, numbered from 0:
        members whose windows (windows) are bitwise equal share one.
        Members at one position of the values held for F share it without
        a comparison; one member of each position is keyed by the bytes of
        its window, chunk by chunk (chunks(step)), so two fields never
        share a window."""
        first, inverse = self._positions(F)
        seen: dict[bytes, int] = {}
        wid = np.empty(len(first), dtype=int)
        for sl, sub in self.take(first).chunks(step):
            wid[sl] = [seen.setdefault(w.tobytes(), len(seen))
                       for w in sub.windows(F)]
        return wid[inverse]

    def cells(self) -> tuple[float, np.ndarray]:
        """(area, centroids) of the triangles of every member, the centroids
        (E, nt, 2) in the template's order: lattice_cells of its window of
        the global box's coordinate vectors, masked."""
        glob = global_geometry(self.fine)
        row, col = self._corners()
        at = np.arange(self.fine.n_sub + 1)
        area, centroids = lattice_cells(glob.x[col[:, None] + at],
                                        glob.y[row[:, None] + at],
                                        glob.spacing)
        mask = self.template.mask
        if mask is None:
            return area, centroids.reshape(len(centroids), -1, 2)
        return area, centroids[:, mask]

    def stencil(self, A: Field) -> Stencil:
        """The stencils of A on every member, coef (E, 3, box positions),
        from the area-weighted windows of A (Stencil.of_cells)."""
        hx, hy = self.template.spacing
        W = 0.5 * (hx * hy) * self.windows(A).reshape(len(self.elements), -1)
        return Stencil.of_cells(self.template.grid, W, self.template.spacing)

    def load_vectors(self, f: Field) -> np.ndarray:
        """P1 load vector of f on every member, (E, n), as load_vector, from
        its window of f (windows), formed once for the members at one
        position of the values held for f.  The coarse projection needs
        these, the patch's own partial sums at its boundary; at the
        interior vertices they are bitwise the whole lattice's
        load_vector, which the offline sweep solves."""
        first, inverse = self._positions(f)
        t = self.template
        hx, hy = t.spacing
        shares = 0.5 * (hx * hy) * self.take(first).windows(f) / 3.0
        out = _add_shares(np.zeros((len(first),) + t.grid), shares)
        return t.from_box(out.reshape(len(first), -1))[inverse]


def first_of_each(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, inverse) of integer keys, 1-D, or the rows of a 2-D array,
    each compared whole: the position of the first item of each distinct
    key, keys ascending (rows lexicographically), and the number of each
    item's key among them.  By hand, not np.unique, which imports numpy.ma
    (about 17 ms) on every run."""
    rows = np.atleast_2d(keys.T).T
    order = np.lexsort(rows.T[::-1])
    s = rows[order]
    new = np.ones(len(keys), dtype=bool)
    new[1:] = (s[1:] != s[:-1]).any(axis=1)
    inverse = np.empty(len(keys), dtype=int)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


def patch_groups(fine, elem_ids) -> list[PatchGroup]:
    """Element patches grouped by shape (fine.patch_shape, asked once for
    all elements), the shapes in order of first appearance and the members
    of each in input order.  The template of shape s is the patch of
    element s, whose window is that of the first coarse cell."""
    elem_ids = np.asarray(elem_ids, dtype=int)
    shape = fine.patch_shape(elem_ids)
    order = np.argsort(shape, kind="stable")
    cuts = np.flatnonzero(np.diff(shape[order], prepend=-1,
                                  append=-1)).tolist()
    members = sorted((order[a:b] for a, b in zip(cuts[:-1], cuts[1:])),
                     key=lambda m: int(m[0]))
    return [PatchGroup(fine, element_geometry(fine, int(shape[m[0]])),
                       elem_ids[m], fine.element_origin(elem_ids[m]))
            for m in members]


# ---------------------------------------------------------------------------
# assembly, solve, energies

@dataclass
class FineFunction:
    """Nodal values on a TriGeometry (a patch or the global mesh)."""

    geom: TriGeometry
    values: np.ndarray


@dataclass
class SparseSpdSystem:
    """SPD system of the vertices off geom.boundary_local: their stiffness
    as a lattice stencil, their load, and the per-triangle area-weighted
    coefficient K is built from (multigrid coarsens it), which no geometry
    keeps: it goes with the system after the solve."""

    K: LatticeOperator
    rhs: np.ndarray
    geom: TriGeometry
    AW: np.ndarray


def load_vector(geom: TriGeometry, f) -> np.ndarray:
    """P1 load vector of f by the centroid rule, full local length,
    read-only, kept on geom (TriGeometry._kept), so the assembly of a fine
    system, the energies of its solution and, on the whole lattice, the
    offline sweep's load rows make one triangle pass.  The pass runs over
    blocks of cell rows of the geometry's window of the one evaluation of
    f (held), and each block adds its shares to its vertex rows
    (box_loads), the blocks in ascending order: every vertex adds its
    shares in BY_TRIANGLE order, as box_loads over the whole box, so at
    the interior vertices of a patch the whole lattice's vector is
    bitwise the patch's."""

    def make():
        rows, cols = geom.grid
        area = 0.5 * (geom.spacing[0] * geom.spacing[1])
        out = np.zeros((rows, cols))
        step = cache_rows(cols - 1)
        for lo in range(0, rows - 1, step):
            hi = min(lo + step, rows - 1)
            shares = area * geom.window(f, lo, hi) / 3.0
            if geom.mask is not None:
                shares = np.where(geom.mask[lo:hi], shares, 0.0)
            _add_shares(out[lo:hi + 1], shares)
        b = geom.from_box(out.ravel())
        b.flags.writeable = False
        return b

    return geom._kept("load vector", f, make)


def assemble(geom: TriGeometry, A: Field, f=None
             ) -> SparseSpdSystem:
    """Assemble the system on a patch or the global mesh with zero values
    at geom.boundary_local.  The stencil is geom.stencil, so a second
    system of the same coefficient object on the same triangles (another
    fixed set) and every energy product share it; the fixed vertices are
    masked out of it.  The area-weighted coefficient is formed here, once,
    for the system's multigrid; where geom has no stencil of A yet it is
    built from the same array."""
    free = np.ones(geom.n_vertices, dtype=bool)
    free[geom.boundary_local] = False
    b = load_vector(geom, f) if f is not None else np.zeros(geom.n_vertices)
    AW = geom.area_weighted(A)
    st = geom._kept("stencil", A, lambda: Stencil.of(geom, AW))
    return SparseSpdSystem(LatticeOperator(st, geom.to_box(free)), b[free],
                           geom, AW)


def dot(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None
        ) -> float:
    """a . b of two vectors, summed in a fixed order (numpy's pairwise
    add.reduce of the products), not by BLAS, whose sum depends on its
    thread count and is less accurate over long vectors; the products go
    to out if given."""
    return float(np.add.reduce(np.multiply(a, b, out=out)))


def pcg(K, b: np.ndarray, rel_tol: float,
        precond: Callable[[np.ndarray], np.ndarray] | None = None,
        cap: int | None = None) -> tuple[np.ndarray, int]:
    """Preconditioned conjugate gradients, deterministic.

    The iterates are vectors like b (box arrays, or vectors over the free
    positions, for a LatticeOperator).  precond maps a residual to its
    search direction and must be SPD; Jacobi, 1 / K.diagonal(), by
    default.  Stops at ||r|| <= rel_tol*||b||; raises
    SolverDivergenceError past the iteration cap (default 50*sqrt(n)), and
    at once where ||b|| or the residual is not finite or p.Kp is zero,
    negative or infinite (a breakdown: K is not SPD, or p.Kp leaves the
    float range).  Dots and norms go through dot, so the iterates do not
    depend on the BLAS thread count; the updates run in place, through one
    scratch vector, and each iteration drops its product and
    preconditioned residual before the next forms them."""
    n = K.shape[0]
    nb = float(np.sqrt(dot(b, b))) if n else 0.0
    if not math.isfinite(nb):
        raise SolverDivergenceError(
            f"CG right-hand side is not finite (norm {nb})", nb)
    if nb == 0.0:
        return np.zeros_like(b), 0
    if cap is None:
        cap = int(math.ceil(50.0 * math.sqrt(n)))
    if precond is None:
        precond = _jacobi(K)
    x = np.zeros_like(b)
    r = b.copy()
    p = precond(r).copy()
    t = np.empty_like(b)
    rz = dot(r, p, t)
    res = nb
    for it in range(1, cap + 1):
        Kp = K @ p
        pKp = dot(p, Kp, t)
        if pKp <= 0.0 or pKp == math.inf:
            raise SolverDivergenceError(
                f"CG breakdown: p.Kp = {pKp:g} at iteration {it}", res / nb)
        alpha = rz / pKp
        x += np.multiply(alpha, p, out=t)
        r -= np.multiply(alpha, Kp, out=t)
        del Kp
        res = float(np.sqrt(dot(r, r, t)))
        if res <= rel_tol * nb:
            return x, it
        if not math.isfinite(res):
            raise SolverDivergenceError(
                f"CG residual is not finite after {it} iterations", res / nb)
        z = precond(r)
        rz_new = dot(r, z, t)
        p *= rz_new / rz
        p += z
        del z
        rz = rz_new
    raise SolverDivergenceError(
        f"CG did not reach {rel_tol:g} within {cap} iterations "
        f"(relative residual {res / nb:.3e})", res / nb)


def _jacobi(K) -> Callable[[np.ndarray], np.ndarray]:
    dinv = 1.0 / K.diagonal()
    return lambda r: dinv * r


def solve_spd(system: SparseSpdSystem, rel_tol: float = 1e-12) -> FineFunction:
    """Solve the eliminated system by pcg with one multigrid V-cycle as the
    preconditioner, both on box arrays, and return the full nodal
    field."""
    if not 0.0 < rel_tol < 1.0:
        raise ValueError("rel_tol must lie in (0, 1)")
    K, geom = system.K, system.geom
    x, _ = pcg(K, K.box(system.rhs), rel_tol, multigrid.Multigrid(system))
    values = geom.from_box(x)
    values[geom.boundary_local] = 0.0
    return FineFunction(geom, values)


def patch_grams(geom: TriGeometry, stencil: Stencil, V: np.ndarray
                ) -> np.ndarray:
    """Gram blocks a(V_i, V_j) = V_i^T K V_j of a stack of congruent
    patches with the triangulation of geom: V (E, b, n) holds nodal values
    on its local vertices and stencil the members' stencils
    (PatchGroup.stencil).  Each member's stencil applies to its fields in
    one pass (Stencil.apply_full), and einsum, without BLAS, sums each
    entry over the vertices in one fixed order whatever other fields and
    members ride along, so a window's blocks do not depend on how a sweep
    chunks its windows: window sharing, the load rows of a sweep given a
    load and basis-dump's solve on one DOF's support each chunk them
    their own way.  Returns (E, b, b), exactly symmetric."""
    member = Stencil(stencil.grid, stencil.coef[:, None])
    KV = geom.from_box(member.apply_full(geom.to_box(V)))
    M = np.einsum("eik,ejk->eij", V, KV)
    return 0.5 * (M + M.transpose(0, 2, 1))


def energy_inner_matrix(V: np.ndarray, geom: TriGeometry, A: Field,
                        diagonal: bool = False) -> np.ndarray:
    """Gram matrix a(V_i, V_j) = V_i^T K V_j of nodal-value rows over one
    geometry, with the stencil K = geom.stencil(A) that assembly shares,
    applied by Stencil.apply_full; with diagonal, only the energies
    a(V_i, V_i), (rows,), bitwise the diagonal of the matrix, and V may be
    any iterable of rows, which are then taken one at a time.

    Scalar energies and the error report call it.  K applies to one row
    at a time, so a stack of global fields needs no temporaries of its
    size, and each entry sums over the vertices in a fixed order (dot),
    so it does not depend on the BLAS thread count.  Exactly symmetric.
    """
    st = geom.stencil(A)
    if isinstance(V, np.ndarray):
        V = np.atleast_2d(V)
    if diagonal:
        return np.array([dot(v, geom.from_box(st.apply_full(geom.to_box(v))))
                         for v in V])
    KV = (geom.from_box(st.apply_full(geom.to_box(v))) for v in V)
    M = np.array([[dot(v, Kw) for v in V] for Kw in KV]).T
    return 0.5 * (M + M.T)


def energy(v: FineFunction, A: Field, f=None) -> float:
    """E(v) = 1/2 a(v,v) - integral of f v, same quadrature and stencil as
    assemble, every sum in a fixed order (dot)."""
    e = 0.5 * float(energy_inner_matrix(v.values[None, :], v.geom, A,
                                        diagonal=True)[0])
    if f is not None:
        e -= dot(load_vector(v.geom, f), v.values)
    return e
