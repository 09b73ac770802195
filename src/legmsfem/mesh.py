"""Structured coarse meshes and the nested fine triangulation they all share.

The coarse mesh covers an axis-aligned rectangle with nx-by-ny cells, either
kept as quadrilaterals or split into right triangles along the cell diagonal
(SW corner to NE corner).  Refinement produces one global fine triangulation
of the whole domain: every fine cell is split along its own SW-NE diagonal,
which for both coarse kinds is exactly the uniform refinement of each coarse
element.  Neighbouring elements therefore see bit-identical fine vertices on
a shared coarse edge, and all local problems downstream restrict this single
fine mesh.

No table is kept per fine triangle: the triangles are those of the lattice
cells in row-major order, lower one first, an element patch is the lattice
window at its origin with one cell mask per patch shape, and every fine
adjacency query is closed-form index arithmetic.

Vertex coordinates are always computed as x0 + (i/n)*(x1-x0) with the integer
division done first, so lattice points of the n and 2n grids coincide exactly
and coarse vertices coincide exactly with their fine counterparts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Unit square and unit right triangle both have diameter sqrt(2).
REF_DIAMETER = math.sqrt(2.0)


class CoarseMesh:
    """Structured coarse mesh of quads or right triangles on a rectangle.

    Use :func:`build_coarse` to construct one.  Immutable after
    construction.  Elements are the rows of element_vertices, CCW (for
    triangles from the SW cell corner), with the affine reference maps
    x = B @ xhat + offset onto the unit square or the unit right triangle
    with vertices (0,0), (1,0), (0,1) stacked in B, Binv and offsets.
    Edges are the rows of edge_ends, oriented by v0 < v1.
    """

    def __init__(self, kind: str, nx: int, ny: int,
                 domain: tuple[float, float, float, float] = (0.0, 1.0, 0.0, 1.0)):
        if kind not in ("quad", "triangle"):
            raise ValueError(f"unknown element kind {kind!r}")
        if nx < 1 or ny < 1:
            raise ValueError("nx and ny must be at least 1")
        x0, x1, y0, y1 = map(float, domain)
        if not (x1 > x0 and y1 > y0):
            raise ValueError("degenerate domain rectangle")
        self.kind = kind
        self.nx = int(nx)
        self.ny = int(ny)
        self.domain = (x0, x1, y0, y1)

        xs = x0 + (np.arange(nx + 1) / nx) * (x1 - x0)
        ys = y0 + (np.arange(ny + 1) / ny) * (y1 - y0)
        X, Y = np.meshgrid(xs, ys)
        self.vertices = np.column_stack([X.ravel(), Y.ravel()])

        # Element vertex table, cells in row-major order: the lattice
        # triangles of the cells (split SW to NE, lower one first), or each
        # cell's lower triangle closed by its NW corner, CCW from SW.
        tris = lattice_triangles(nx, ny)
        self.element_vertices = (tris if kind == "triangle" else
                                 np.column_stack([tris[0::2], tris[1::2, 2]]))
        self._build_elements()
        self._build_edges()
        bx = np.isin(np.arange(nx + 1), [0, nx])
        by = np.isin(np.arange(ny + 1), [0, ny])
        BX, BY = np.meshgrid(bx, by)
        self.boundary_vertex_mask = (BX | BY).ravel()
        self.interior_vertex_ids = np.flatnonzero(~self.boundary_vertex_mask)

    def _build_elements(self) -> None:
        """The affine maps of all elements as stacked arrays B, Binv,
        offsets and diameters, element by element."""
        pts = self.vertices[self.element_vertices]  # (E, corners, 2)
        p0 = pts[:, 0]
        B = np.zeros((len(pts), 2, 2))
        if self.kind == "quad":
            B[:, 0, 0] = pts[:, 1, 0] - p0[:, 0]
            B[:, 1, 1] = pts[:, 3, 1] - p0[:, 1]
        else:
            B[:, :, 0] = pts[:, 1] - p0
            B[:, :, 1] = pts[:, 2] - p0
        det = B[:, 0, 0] * B[:, 1, 1] - B[:, 0, 1] * B[:, 1, 0]
        if np.any(det <= 0):
            vids = tuple(self.element_vertices[np.argmax(det <= 0)].tolist())
            raise ValueError(f"degenerate element with vertices {vids}")
        Binv = np.stack([np.stack([B[:, 1, 1], -B[:, 0, 1]], -1),
                         np.stack([-B[:, 1, 0], B[:, 0, 0]], -1)], -2)
        Binv /= det[:, None, None]
        # Distances of every corner pair; vecdot takes the dot product that
        # np.linalg.norm of one vector takes, so the values agree bitwise.
        i, j = np.triu_indices(pts.shape[1], 1)
        d = pts[:, i] - pts[:, j]
        self.B, self.Binv, self.offsets = B, Binv, p0
        self.diameters = np.sqrt(np.vecdot(d, d)).max(axis=1)
        for arr in (B, Binv, p0, self.diameters):
            arr.flags.writeable = False

    def _build_edges(self) -> None:
        """Edges from one stable sort of the sorted vertex pairs of all
        element sides, an np.unique that also groups the sides by edge:
        edge ids follow (v0, v1) order.

        The tables: edge_ends (edges, 2), the vertices (v0, v1) of each
        edge; edge_lengths; element_edge_ids (elements, sides), the edge of
        each side in the element's side order; and edge_element_ids
        (edges, 2), the elements of each edge in ascending order, -1 in the
        second column on the boundary."""
        ev = self.element_vertices
        n_el, n_sides = ev.shape
        a, b = ev, np.roll(ev, -1, axis=1)
        side_keys = (np.minimum(a, b) * self.n_vertices
                     + np.maximum(a, b)).ravel()
        # By hand, not np.unique: its sort would load code that no other
        # step of a run uses (about 0.4 MB of peak RSS).
        order = np.argsort(side_keys, kind="stable")
        first = np.flatnonzero(np.diff(side_keys[order], prepend=-1))
        keys = side_keys[order[first]]
        counts = np.diff(np.append(first, len(order)))
        side_edges = np.empty_like(order)
        side_edges[order] = np.repeat(np.arange(len(keys)), counts)
        self.element_edge_ids = side_edges.reshape(n_el, n_sides)
        self.edge_ends = np.column_stack([keys // self.n_vertices,
                                          keys % self.n_vertices])
        owner = order // n_sides
        two = counts == 2
        self.edge_element_ids = np.full((len(keys), 2), -1)
        self.edge_element_ids[:, 0] = owner[first]
        self.edge_element_ids[two, 1] = owner[first[two] + 1]
        d = (self.vertices[self.edge_ends[:, 1]]
             - self.vertices[self.edge_ends[:, 0]])
        self.edge_lengths = np.sqrt(np.vecdot(d, d))
        for arr in (self.element_edge_ids, self.edge_ends,
                    self.edge_element_ids, self.edge_lengths):
            arr.flags.writeable = False
        self.interior_edge_ids = np.flatnonzero(two)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_elements(self) -> int:
        return len(self.element_vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edge_ends)


def build_coarse(kind: str, nx: int, ny: int,
                 domain: tuple[float, float, float, float] = (0.0, 1.0, 0.0, 1.0)
                 ) -> CoarseMesh:
    """Build a structured coarse mesh of quads or right triangles."""
    return CoarseMesh(kind, nx, ny, domain)


def lattice_triangles(nx: int, ny: int) -> np.ndarray:
    """Triangles of an nx-by-ny cell lattice with vertex iy*(nx+1) + ix,
    every cell split along its SW-NE diagonal: cell c = cy*nx + cx holds
    triangle 2c (lower: SW, SE, NE) and 2c + 1 (upper: SW, NE, NW)."""
    cx, cy = np.meshgrid(np.arange(nx), np.arange(ny))
    sw = (cy * (nx + 1) + cx).ravel()
    se, ne, nw = sw + 1, sw + nx + 2, sw + nx + 1
    tris = np.empty((2 * len(sw), 3), dtype=int)
    tris[0::2] = np.column_stack([sw, se, ne])  # lower
    tris[1::2] = np.column_stack([sw, ne, nw])  # upper
    return tris


class FineMesh:
    """Global fine triangulation shared by all coarse elements.

    Every fine cell of the (nx*n_sub)-by-(ny*n_sub) grid is split along its
    SW-NE diagonal.  An element patch is the lattice window of n_sub by
    n_sub cells at the element's origin with the pattern of its shape
    (shape_pattern), so two patches never duplicate a fine vertex.
    """

    def __init__(self, coarse: CoarseMesh, n_sub: int):
        if n_sub < 2:
            raise ValueError("n_sub must be at least 2")
        self.coarse = coarse
        self.n_sub = int(n_sub)
        nx, ny, ns = coarse.nx, coarse.ny, self.n_sub
        x0, x1, y0, y1 = coarse.domain
        self.nfx, self.nfy = nx * ns, ny * ns

        xs = x0 + (np.arange(self.nfx + 1) / self.nfx) * (x1 - x0)
        ys = y0 + (np.arange(self.nfy + 1) / self.nfy) * (y1 - y0)
        X, Y = np.meshgrid(xs, ys)
        self.vertices = np.column_stack([X.ravel(), Y.ravel()])

        self.hx, self.hy = (x1 - x0) / self.nfx, (y1 - y0) / self.nfy
        self._shape_cache: dict[int, tuple] = {}
        self._geom_cache: dict = {}  # populated by finefem

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def _vid(self, ix: np.ndarray, iy: np.ndarray) -> np.ndarray:
        return iy * (self.nfx + 1) + ix

    def element_vertex_ids(self, elem_id: int) -> np.ndarray:
        """Sorted global fine vertex ids of the closed element patch: its
        shape's pattern at the element's origin."""
        return (self.shape_pattern(self.patch_shape(elem_id))[0]
                + self.element_origin(elem_id))

    def patch_shape(self, elem_ids):
        """Shape of element patches (an id or an array of ids): 0 for every
        quad, 0 (lower) or 1 (upper) for triangles.  Patches of one shape
        are lattice translates of each other."""
        return 0 * elem_ids if self.coarse.kind == "quad" else elem_ids % 2

    def shape_pattern(self, shape: int) -> tuple[np.ndarray, ...]:
        """(vertex ids, boundary vertex ids, cell mask) of a patch shape at
        origin 0, sorted ids, built once per shape.  The mask (n_sub, n_sub,
        2) says whether the shape holds the lower (SW, SE, NE) and the
        upper (SW, NE, NW) triangle of each window cell; on the diagonal of
        a coarse triangle, the lower one goes to the lower element."""
        if shape not in self._shape_cache:
            ns = self.n_sub
            LX, LY = np.meshgrid(np.arange(ns + 1), np.arange(ns + 1))
            # Each cell's column, and its row plus 1 for the upper triangle.
            CX, CY = LX[:-1, :-1, None], LY[:-1, :-1, None] + [0, 1]
            if self.coarse.kind == "quad":
                keep, mask = LX >= 0, CY >= 0
                on_bnd = (LX == 0) | (LX == ns) | (LY == 0) | (LY == ns)
            elif shape == 0:  # lower triangle: ly <= lx
                keep, mask = LY <= LX, CY <= CX
                on_bnd = (LY == 0) | (LX == ns) | (LX == LY)
            else:  # upper triangle: ly >= lx
                keep, mask = LY >= LX, CY > CX
                on_bnd = (LX == 0) | (LY == ns) | (LX == LY)
            # Row-major lattice order is ascending vertex id order.
            bnd = keep & on_bnd
            self._shape_cache[shape] = (self._vid(LX[keep], LY[keep]),
                                        self._vid(LX[bnd], LY[bnd]), mask)
        return self._shape_cache[shape]

    def element_origin(self, elem_ids):
        """Fine vertex id of the SW corner of the cell of each element (an
        int or an array of ids): the offset of its patch from the shape
        pattern."""
        cell = elem_ids if self.coarse.kind == "quad" else elem_ids // 2
        return self._vid((cell % self.coarse.nx) * self.n_sub,
                         (cell // self.coarse.nx) * self.n_sub)

    def edge_vertex_chains(self, edge_ids) -> np.ndarray:
        """Fine vertex ids along coarse edges, each from v0 to v1: the shape
        of edge_ids (an id or an array of them) plus a last axis of
        n_sub + 1 vertices."""
        ends = self.coarse.edge_ends[np.asarray(edge_ids, dtype=int)]
        return self._chain(ends[..., :1], ends[..., 1:])

    def _chain(self, v0, v1) -> np.ndarray:
        nx, ns = self.coarse.nx, self.n_sub
        ax, ay = v0 % (nx + 1), v0 // (nx + 1)
        bx, by = v1 % (nx + 1), v1 // (nx + 1)
        t = np.arange(ns + 1)
        return self._vid(ax * ns + t * (bx - ax), ay * ns + t * (by - ay))

    def boundary_vertex_ids(self) -> np.ndarray:
        ix = np.arange(self.nfx + 1)
        iy = np.arange(self.nfy + 1)
        IX, IY = np.meshgrid(ix, iy)
        mask = (IX == 0) | (IX == self.nfx) | (IY == 0) | (IY == self.nfy)
        return self._vid(IX[mask], IY[mask])

    def edge_segment_triangles(self, edge_ids) -> np.ndarray:
        """Per fine segment of interior coarse edges, the two adjacent fine
        triangles, lower-id element side first: (n_sub, 2) for one edge
        id, the shape of edge_ids plus (n_sub, 2) for an array of them, as
        edge_vertex_chains.  Raises ValueError if any edge is a boundary
        edge.

        Cell c = cy*nfx + cx holds triangles 2c (lower) and 2c+1 (upper).
        The lower-id element lies below or left of the edge: a horizontal
        segment pairs the upper triangle below with the lower one above, a
        vertical one the lower triangle on the left with the upper one on
        the right, a diagonal the two triangles of its own cell.
        """
        ids = np.asarray(edge_ids, dtype=int)
        boundary = self.coarse.edge_element_ids[ids, 1] < 0
        if boundary.any():
            raise ValueError(f"edge {ids[boundary].flat[0]} is a boundary "
                             "edge")
        chain = self.edge_vertex_chains(ids)[..., :-1]
        cell = (chain // (self.nfx + 1)) * self.nfx + chain % (self.nfx + 1)
        ends = self.coarse.edge_ends[ids]
        step = (ends[..., 1] - ends[..., 0])[..., None]
        horizontal, vertical = step == 1, step == self.coarse.nx + 1
        first = np.where(horizontal, 2 * (cell - self.nfx) + 1,
                         np.where(vertical, 2 * (cell - 1), 2 * cell))
        second = np.where(horizontal, 2 * cell, 2 * cell + 1)
        return np.stack([first, second], axis=-1)


def refine_to_fine(coarse: CoarseMesh, n_sub: int) -> FineMesh:
    """Refine each coarse element n_sub times into the shared fine mesh."""
    return FineMesh(coarse, n_sub)


def check_regularity(coarse: CoarseMesh) -> float:
    """Shape-regularity constant of the mesh.

    Returns max over elements of max(||B||*diam(K_ref)/H_K,
    ||B^-1||*H_K/diam(K_ref)), with the singular values of every B from
    one batched SVD.  With K_ref the unit square or unit right triangle
    (diameter sqrt(2)) a uniform square mesh reports exactly 1.0 and a
    uniform right-triangle mesh the golden ratio.
    """
    s = np.linalg.svd(coarse.B, compute_uv=False)
    bad = (s[:, -1] <= 0) | ~np.isfinite(s).all(axis=1)
    if bad.any():
        raise ValueError(f"degenerate element {int(np.argmax(bad))}")
    H = coarse.diameters
    return float(max(0.0, (s[:, 0] * REF_DIAMETER / H).max(),
                     ((1.0 / s[:, -1]) * H / REF_DIAMETER).max()))


@dataclass
class DegreeAssignment:
    """Enrichment degrees as int arrays: N over the edges (>= 1 on every
    interior edge; a boundary edge carries no enrichment and its entry is
    never read) and M over the elements (>= 0, where 0 means no bubbles on
    that element)."""

    N: np.ndarray
    M: np.ndarray

    @classmethod
    def uniform(cls, coarse: CoarseMesh, N: int, M: int) -> "DegreeAssignment":
        return cls(np.full(coarse.n_edges, int(N)),
                   np.full(coarse.n_elements, int(M)))

    def validate(self, coarse: CoarseMesh) -> None:
        for a, n, name, what in (
                (self.N, coarse.n_edges, "N", "edge"),
                (self.M, coarse.n_elements, "M", "element")):
            if not (isinstance(a, np.ndarray) and a.shape == (n,)
                    and np.issubdtype(a.dtype, np.integer)):
                raise ValueError(f"degrees: {name} must be an int array "
                                 f"with one integer per {what}")
        inner = coarse.interior_edge_ids
        bad = self.N[inner] < 1
        if bad.any():
            e = inner[np.argmax(bad)]
            raise ValueError(f"edge {e}: N must be >= 1, got {self.N[e]}")
        if (self.M < 0).any():
            K = int(np.argmax(self.M < 0))
            raise ValueError(f"element {K}: M must be >= 0, got {self.M[K]}")


def check_degree_compat(coarse: CoarseMesh, degrees: DegreeAssignment,
                        gamma: float) -> list[tuple[int, int]]:
    """List edge pairs sharing a vertex whose degrees violate
    N_e/sqrt(gamma) <= N_e' <= sqrt(gamma)*N_e.  Empty list means pass."""
    root = math.sqrt(gamma)
    interior = coarse.interior_edge_ids
    N = degrees.N[interior]
    # Interior edge ends grouped by vertex; every pair within a group.
    v = coarse.edge_ends[interior].ravel()
    order = np.argsort(v, kind="stable")
    v, e = v[order], np.repeat(np.arange(len(interior)), 2)[order]
    widest = np.bincount(v).max() if len(v) else 0
    pairs = np.concatenate([np.zeros((0, 2), dtype=int)] + [
        np.column_stack([e[:-k], e[k:]])[v[:-k] == v[k:]]
        for k in range(1, widest)])
    ne, nep = N[pairs[:, 0]], N[pairs[:, 1]]
    bad = (ne > root * nep + 1e-12) | (nep > root * ne + 1e-12)
    return sorted(set(map(tuple, np.sort(interior[pairs[bad]], 1).tolist())))
