"""Structured coarse meshes and the nested fine triangulation they all share.

The coarse mesh covers an axis-aligned rectangle with nx-by-ny cells, either
kept as quadrilaterals or split into right triangles along the cell diagonal
(SW corner to NE corner).  Refinement produces one global fine triangulation
of the whole domain: every fine cell is split along its own SW-NE diagonal,
which for both coarse kinds is exactly the uniform refinement of each coarse
element.  Neighbouring elements therefore see bit-identical fine vertices on
a shared coarse edge, and all local problems downstream restrict this single
fine mesh.

Fine triangles are stored per lattice cell in row-major order, lower one
first, so every fine adjacency query is closed-form index arithmetic.

Vertex coordinates are always computed as x0 + (i/n)*(x1-x0) with the integer
division done first, so lattice points of the n and 2n grids coincide exactly
and coarse vertices coincide exactly with their fine counterparts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Unit square and unit right triangle both have diameter sqrt(2).
REF_DIAMETER = math.sqrt(2.0)


@dataclass(frozen=True)
class Element:
    """One coarse element with its affine reference map x = B @ xhat + offset.

    The reference element is the unit square (quads) or the unit right
    triangle with vertices (0,0), (1,0), (0,1).  vertex_ids are CCW; for
    triangles the first vertex is the SW cell corner.
    """

    id: int
    vertex_ids: tuple[int, ...]
    B: np.ndarray
    Binv: np.ndarray
    offset: np.ndarray
    diameter: float

    @property
    def kind(self) -> str:
        return "triangle" if len(self.vertex_ids) == 3 else "quad"

    def from_ref(self, xhat: np.ndarray) -> np.ndarray:
        return np.asarray(xhat) @ self.B.T + self.offset

    def to_ref(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x) - self.offset) @ self.Binv.T


@dataclass(frozen=True)
class Edge:
    """Coarse edge with orientation fixed by global vertex order v0 < v1."""

    id: int
    v0: int
    v1: int
    element_ids: tuple[int, ...]
    length: float

    @property
    def boundary(self) -> bool:
        return len(self.element_ids) == 1


class CoarseMesh:
    """Structured coarse mesh of quads or right triangles on a rectangle.

    Use :func:`build_coarse` to construct one.  Immutable after construction;
    safe to share across workers.
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

        self.elements: list[Element] = []
        vid = lambda ix, iy: iy * (nx + 1) + ix
        for cy in range(ny):
            for cx in range(nx):
                sw, se = vid(cx, cy), vid(cx + 1, cy)
                ne, nw = vid(cx + 1, cy + 1), vid(cx, cy + 1)
                if kind == "quad":
                    self._add_element((sw, se, ne, nw))
                else:
                    # Cell diagonal runs SW to NE; lower triangle first.
                    self._add_element((sw, se, ne))
                    self._add_element((sw, ne, nw))

        self._build_edges()
        bx = np.isin(np.arange(nx + 1), [0, nx])
        by = np.isin(np.arange(ny + 1), [0, ny])
        BX, BY = np.meshgrid(bx, by)
        self.boundary_vertex_mask = (BX | BY).ravel()
        self.interior_vertex_ids = np.flatnonzero(~self.boundary_vertex_mask)

    def _add_element(self, vids: tuple[int, ...]) -> None:
        pts = self.vertices[list(vids)]
        p0 = pts[0]
        if len(vids) == 4:
            B = np.diag([pts[1, 0] - p0[0], pts[3, 1] - p0[1]])
        else:
            B = np.column_stack([pts[1] - p0, pts[2] - p0])
        det = B[0, 0] * B[1, 1] - B[0, 1] * B[1, 0]
        if det <= 0:
            raise ValueError(f"degenerate element with vertices {vids}")
        Binv = np.array([[B[1, 1], -B[0, 1]], [-B[1, 0], B[0, 0]]]) / det
        diam = max(np.linalg.norm(a - b) for i, a in enumerate(pts) for b in pts[i + 1:])
        self.elements.append(Element(len(self.elements), vids, B, Binv, p0, diam))

    def _build_edges(self) -> None:
        adjacency: dict[tuple[int, int], list[int]] = {}
        sides: dict[int, list[tuple[int, int]]] = {}
        for el in self.elements:
            v = el.vertex_ids
            loc = []
            for i in range(len(v)):
                a, b = v[i], v[(i + 1) % len(v)]
                key = (min(a, b), max(a, b))
                adjacency.setdefault(key, []).append(el.id)
                loc.append(key)
            sides[el.id] = loc
        self.edges: list[Edge] = []
        ids: dict[tuple[int, int], int] = {}
        for key in sorted(adjacency):
            v0, v1 = key
            length = float(np.linalg.norm(self.vertices[v1] - self.vertices[v0]))
            ids[key] = len(self.edges)
            self.edges.append(Edge(len(self.edges), v0, v1,
                                   tuple(sorted(adjacency[key])), length))
        self.element_edges = [tuple(ids[k] for k in sides[el.id]) for el in self.elements]
        self.edge_ends = np.array([(e.v0, e.v1) for e in self.edges])
        self.interior_edge_ids = np.array(
            [e.id for e in self.edges if not e.boundary], dtype=int)
        self.vertex_edges: dict[int, list[int]] = {}
        for e in self.edges:
            self.vertex_edges.setdefault(e.v0, []).append(e.id)
            self.vertex_edges.setdefault(e.v1, []).append(e.id)
        self.vertex_elements: dict[int, list[int]] = {}
        for el in self.elements:
            for v in el.vertex_ids:
                self.vertex_elements.setdefault(v, []).append(el.id)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def dump(self) -> str:
        """Plain-text listing for debugging; not a stable format."""
        lines = [f"coarse {self.kind} mesh {self.nx}x{self.ny} on {self.domain}"]
        for i, p in enumerate(self.vertices):
            tag = "b" if self.boundary_vertex_mask[i] else "i"
            lines.append(f"v {i} {p[0]:.6g} {p[1]:.6g} {tag}")
        for el in self.elements:
            lines.append(f"e {el.id} " + " ".join(map(str, el.vertex_ids)))
        for ed in self.edges:
            tag = "b" if ed.boundary else "i"
            lines.append(f"s {ed.id} {ed.v0} {ed.v1} {tag} " +
                         " ".join(map(str, ed.element_ids)))
        return "\n".join(lines)


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
    SW-NE diagonal.  tri_elem tags each fine triangle with the coarse element
    containing it; the patch accessors below slice the global arrays, so two
    patches never duplicate a fine vertex.
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

        self.triangles = lattice_triangles(self.nfx, self.nfy)

        cx, cy = np.meshgrid(np.arange(self.nfx), np.arange(self.nfy))
        cx, cy = cx.ravel(), cy.ravel()
        Cx, Cy = cx // ns, cy // ns
        cell_elem = Cy * nx + Cx
        tags = np.empty(2 * len(cx), dtype=int)
        if coarse.kind == "quad":
            tags[0::2] = cell_elem
            tags[1::2] = cell_elem
        else:
            # Fine cells on the coarse diagonal (lx == ly) contribute their
            # lower triangle to the lower coarse triangle and vice versa.
            lx, ly = cx % ns, cy % ns
            tags[0::2] = 2 * cell_elem + (ly > lx)
            tags[1::2] = 2 * cell_elem + (ly >= lx)
        self.tri_elem = tags

        order = np.argsort(tags, kind="stable")
        counts = np.bincount(tags, minlength=len(coarse.elements))
        self._elem_tris = np.split(order, np.cumsum(counts)[:-1])

        self.hx, self.hy = (x1 - x0) / self.nfx, (y1 - y0) / self.nfy
        self._shape_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._patch_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._geom_cache: dict = {}  # populated by finefem

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def _vid(self, ix: np.ndarray, iy: np.ndarray) -> np.ndarray:
        return iy * (self.nfx + 1) + ix

    def element_triangle_ids(self, elem_id: int) -> np.ndarray:
        return self._elem_tris[elem_id]

    def element_vertex_ids(self, elem_id: int) -> np.ndarray:
        """Sorted global fine vertex ids of the closed element patch."""
        return self.element_patch(elem_id)[0]

    def element_boundary_vertex_ids(self, elem_id: int) -> np.ndarray:
        """Fine vertices on the element boundary, sorted."""
        return self.element_patch(elem_id)[1]

    def patch_shape(self, elem_id: int) -> int:
        """Shape of an element patch: 0 for every quad, 0 (lower) or 1
        (upper) for triangles.  Patches of one shape are lattice translates
        of each other."""
        return 0 if self.coarse.kind == "quad" else elem_id % 2

    def element_patch(self, elem_id: int) -> tuple[np.ndarray, np.ndarray]:
        """(element_vertex_ids, element_boundary_vertex_ids): the shape's
        lattice pattern, built once per shape, shifted to the element's
        cell origin."""
        try:
            return self._patch_cache[elem_id]
        except KeyError:
            pass
        ns = self.n_sub
        shape = self.patch_shape(elem_id)
        if shape not in self._shape_cache:
            LX, LY = np.meshgrid(np.arange(ns + 1), np.arange(ns + 1))
            if self.coarse.kind == "quad":
                keep = np.ones_like(LX, dtype=bool)
                on_bnd = (LX == 0) | (LX == ns) | (LY == 0) | (LY == ns)
            elif shape == 0:  # lower triangle: ly <= lx
                keep = LY <= LX
                on_bnd = (LY == 0) | (LX == ns) | (LX == LY)
            else:  # upper triangle: ly >= lx
                keep = LY >= LX
                on_bnd = (LX == 0) | (LY == ns) | (LX == LY)
            self._shape_cache[shape] = (
                np.sort(self._vid(LX[keep], LY[keep])),
                np.sort(self._vid(LX[keep & on_bnd], LY[keep & on_bnd])))
        ids, bnd = self._shape_cache[shape]
        cell = elem_id if self.coarse.kind == "quad" else elem_id // 2
        origin = self._vid((cell % self.coarse.nx) * ns,
                           (cell // self.coarse.nx) * ns)
        out = (ids + origin, bnd + origin)
        self._patch_cache[elem_id] = out
        return out

    def edge_vertex_chain(self, edge_id: int) -> np.ndarray:
        """Fine vertex ids along a coarse edge, ordered from v0 to v1."""
        e = self.coarse.edges[edge_id]
        return self._chain(e.v0, e.v1)

    def edge_vertex_chains(self, edge_ids) -> np.ndarray:
        """The chains of an array of coarse edges, one per row (the shape
        of edge_ids plus a last axis of n_sub + 1 vertices)."""
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

    def edge_segment_triangles(self, edge_id: int) -> np.ndarray:
        """Per fine segment of an interior coarse edge, the two adjacent fine
        triangles as an (n_sub, 2) array, lower-id element side first.

        Cell c = cy*nfx + cx holds triangles 2c (lower) and 2c+1 (upper).
        The lower-id element lies below or left of the edge: a horizontal
        segment pairs the upper triangle below with the lower one above, a
        vertical one the lower triangle on the left with the upper one on
        the right, a diagonal the two triangles of its own cell.
        """
        e = self.coarse.edges[edge_id]
        if e.boundary:
            raise ValueError(f"edge {edge_id} is a boundary edge")
        chain = self.edge_vertex_chain(edge_id)[:-1]
        ix, iy = chain % (self.nfx + 1), chain // (self.nfx + 1)
        cell = iy * self.nfx + ix
        if e.v1 - e.v0 == 1:  # horizontal
            first, second = 2 * (cell - self.nfx) + 1, 2 * cell
        elif e.v1 - e.v0 == self.coarse.nx + 1:  # vertical
            first, second = 2 * (cell - 1), 2 * cell + 1
        else:  # SW-NE diagonal
            first, second = 2 * cell, 2 * cell + 1
        return np.column_stack([first, second])


def refine_to_fine(coarse: CoarseMesh, n_sub: int) -> FineMesh:
    """Refine each coarse element n_sub times into the shared fine mesh."""
    return FineMesh(coarse, n_sub)


def check_regularity(coarse: CoarseMesh) -> float:
    """Shape-regularity constant of the mesh.

    Returns max over elements of max(||B||*diam(K_ref)/H_K,
    ||B^-1||*H_K/diam(K_ref)).  With K_ref the unit square or unit right
    triangle (diameter sqrt(2)) a uniform square mesh reports exactly 1.0 and
    a uniform right-triangle mesh the golden ratio.
    """
    gamma = 0.0
    for el in coarse.elements:
        s = np.linalg.svd(el.B, compute_uv=False)
        if s[-1] <= 0 or not np.isfinite(s).all():
            raise ValueError(f"degenerate element {el.id}")
        gamma = max(gamma,
                    s[0] * REF_DIAMETER / el.diameter,
                    (1.0 / s[-1]) * el.diameter / REF_DIAMETER)
    return float(gamma)


@dataclass
class DegreeAssignment:
    """Enrichment degrees: N per interior edge (>= 1), M per element (>= 0,
    where 0 means no bubbles on that element)."""

    N: dict[int, int] = field(default_factory=dict)
    M: dict[int, int] = field(default_factory=dict)

    @classmethod
    def uniform(cls, coarse: CoarseMesh, N: int, M: int) -> "DegreeAssignment":
        return cls(N={int(e): int(N) for e in coarse.interior_edge_ids},
                   M={el.id: int(M) for el in coarse.elements})

    def validate(self, coarse: CoarseMesh) -> None:
        for e in coarse.interior_edge_ids:
            n = self.N.get(int(e))
            if n is None or n < 1:
                raise ValueError(f"edge {e}: N must be assigned and >= 1, got {n}")
        for el in coarse.elements:
            m = self.M.get(el.id)
            if m is None or m < 0:
                raise ValueError(f"element {el.id}: M must be assigned and >= 0, got {m}")


def check_degree_compat(coarse: CoarseMesh, degrees: DegreeAssignment,
                        gamma: float) -> list[tuple[int, int]]:
    """List edge pairs sharing a vertex whose degrees violate
    N_e/sqrt(gamma) <= N_e' <= sqrt(gamma)*N_e.  Empty list means pass."""
    root = math.sqrt(gamma)
    interior = set(int(e) for e in coarse.interior_edge_ids)
    violations = []
    for v, eids in sorted(coarse.vertex_edges.items()):
        eids = [e for e in eids if e in interior]
        for i, e in enumerate(eids):
            for ep in eids[i + 1:]:
                ne, nep = degrees.N[e], degrees.N[ep]
                if ne > root * nep + 1e-12 or nep > root * ne + 1e-12:
                    pair = (min(e, ep), max(e, ep))
                    if pair not in violations:
                        violations.append(pair)
    return sorted(violations)
