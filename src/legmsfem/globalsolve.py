"""Online phase: Galerkin systems in the enriched coarse space.

The space splits into an interface part (nodal plus edge enrichments,
coupled across elements) and a bubble part (per-element, zero trace).  The
two parts are orthogonal in the energy inner product, so the global solve
decouples into one sparse SPD system for the interface coefficients and
small dense SPD systems per element for the bubbles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import finefem, localbasis, polybasis
from .mesh import CoarseMesh, DegreeAssignment, FineMesh


@dataclass
class EnrichedSpace:
    """Enrichment catalog with its degree bookkeeping.

    Catalog order is the DOF order: interface functions first (nodal by
    vertex, then edge by (edge, k)), bubbles after (by element, then index).
    """

    coarse: CoarseMesh
    fine: FineMesh
    A: finefem.CoefficientField
    degrees: DegreeAssignment
    catalog: list[localbasis.BasisFunction]
    n_interface: int
    element_dofs: list[list[int]] = field(init=False)

    def __post_init__(self) -> None:
        dofs: list[list[int]] = [[] for _ in self.coarse.elements]
        for p, bf in enumerate(self.catalog):
            for K in bf.support:
                dofs[K].append(p)
        self.element_dofs = dofs

    @property
    def n_dofs(self) -> int:
        return len(self.catalog)

    @property
    def n_bubble(self) -> int:
        return len(self.catalog) - self.n_interface


class UnresolvedDegreeError(ValueError):
    """An enrichment degree asks for more functions than the fine lattice
    can carry independently, which would make a coarse system singular."""


def _check_resolved(fine: FineMesh, degrees: DegreeAssignment) -> None:
    """Edge degree N puts N - 1 enrichments on the n_sub - 1 interior fine
    vertices of an edge; an element's bubbles may not outnumber its
    interior fine vertices either."""
    for e, n in sorted(degrees.N.items()):
        if n > fine.n_sub:
            raise UnresolvedDegreeError(
                f"edge {e}: degree N={n} exceeds n_sub={fine.n_sub}")
    for K, m in sorted(degrees.M.items()):
        if not m:
            continue
        free = (len(fine.element_vertex_ids(K))
                - len(fine.element_boundary_vertex_ids(K)))
        if polybasis.BulkPolyBasis(fine.coarse.kind, m).dim > free:
            raise UnresolvedDegreeError(
                f"element {K}: bubble degree M={m} needs more than its "
                f"{free} interior fine vertices")


def expected_dof_count(coarse: CoarseMesh, degrees: DegreeAssignment,
                       bulk_dim) -> tuple[int, int]:
    """(interface, bubble) DOF counts implied by the degree assignment."""
    n_if = len(coarse.interior_vertex_ids)
    n_if += sum(degrees.N[int(e)] - 1 for e in coarse.interior_edge_ids)
    n_b = sum(bulk_dim(degrees.M[el.id]) for el in coarse.elements
              if degrees.M[el.id] >= 1)
    return n_if, n_b


def build_space(coarse: CoarseMesh, fine: FineMesh, A: finefem.CoefficientField,
                degrees: DegreeAssignment,
                interface_from: EnrichedSpace | None = None) -> EnrichedSpace:
    """Run the offline solves and assemble the catalog.

    interface_from reuses the interface part of an existing space built on
    the same meshes and the same coefficient object with edgewise degrees at
    least as large; only bubbles are recomputed.  Degrees beyond the donor
    raise, and so do degrees the fine lattice cannot resolve.
    """
    degrees.validate(coarse)
    _check_resolved(fine, degrees)
    if interface_from is None:
        catalog = localbasis.compute_all(coarse, fine, A, degrees)
        n_if = sum(1 for bf in catalog if bf.kind != "bubble")
        return EnrichedSpace(coarse, fine, A, degrees, catalog, n_if)
    if interface_from.coarse is not coarse or interface_from.fine is not fine:
        raise ValueError("interface reuse requires the same mesh pair")
    if interface_from.A is not A:
        raise ValueError("interface reuse requires the same coefficient")
    keep = []
    for bf in interface_from.catalog[:interface_from.n_interface]:
        if bf.kind == "edge" and bf.key[1] > degrees.N[bf.key[0]]:
            continue
        keep.append(bf)
    n_if, _ = expected_dof_count(coarse, degrees, lambda M: 0)
    if len(keep) != n_if:
        raise ValueError("donor space is missing requested edge degrees")
    bubbles = localbasis.compute_all(coarse, fine, A, degrees, which="bubble")
    return EnrichedSpace(coarse, fine, A, degrees, keep + bubbles, len(keep))


@dataclass
class CoarseSystems:
    """Assembled decoupled systems plus the data needed to solve them."""

    space: EnrichedSpace
    f: finefem.RhsField | None
    interface_K: sp.csr_matrix
    interface_rhs: np.ndarray
    bubble_blocks: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
    cross_gram: np.ndarray | None = None


def assemble_coarse(space: EnrichedSpace, A: finefem.CoefficientField,
                    f: finefem.RhsField | None, with_cross: bool = False
                    ) -> CoarseSystems:
    """Element-by-element Galerkin assembly in the enriched space.

    with_cross also accumulates the bubble-interface energy Gram block,
    which is zero up to solver tolerance; it exists for diagnostics only.
    """
    n_if = space.n_interface
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []
    rhs = np.zeros(n_if)
    blocks = []
    cross = np.zeros((space.n_dofs - n_if, n_if)) if with_cross else None
    for K in range(len(space.coarse.elements)):
        geom = finefem.element_geometry(space.fine, K)
        dofs = space.element_dofs[K]
        iface = np.array([p for p in dofs if p < n_if], dtype=int)
        bub = np.array([p for p in dofs if p >= n_if], dtype=int)
        b_loc = finefem.load_vector(geom, f) if f is not None else None
        if iface.size:
            V = np.stack([space.catalog[p].values[K] for p in iface])
            M = finefem.energy_inner_matrix(V, geom, A)
            ii, jj = np.meshgrid(iface, iface, indexing="ij")
            rows.append(ii.ravel())
            cols.append(jj.ravel())
            vals.append(M.ravel())
            if b_loc is not None:
                rhs[iface] += V @ b_loc
        if bub.size:
            Vb = np.stack([space.catalog[p].values[K] for p in bub])
            Mb = finefem.energy_inner_matrix(Vb, geom, A)
            bb = Vb @ b_loc if b_loc is not None else np.zeros(bub.size)
            blocks.append((bub, Mb, bb))
            if with_cross and iface.size:
                G = finefem.energy_inner_matrix(Vb, geom, A, V)
                cross[np.ix_(bub - n_if, iface)] += G
    if rows:
        K_if = sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(n_if, n_if)).tocsr()
    else:
        K_if = sp.csr_matrix((n_if, n_if))
    return CoarseSystems(space, f, K_if, rhs, blocks, cross)


@dataclass
class CoarseSolution:
    """Coefficients of the discrete solution in catalog order."""

    space: EnrichedSpace
    f: finefem.RhsField | None
    coeffs: np.ndarray
    cg_iters: int

    def bubble_coeffs(self, elem_id: int) -> np.ndarray:
        """Bubble coefficients of one element, in bulk basis order."""
        ids = [p for p in self.space.element_dofs[elem_id]
               if p >= self.space.n_interface]
        return self.coeffs[ids]


def solve_coarse(systems: CoarseSystems, rel_tol: float = 1e-12
                 ) -> CoarseSolution:
    """Solve the decoupled systems: PCG on the interface block, dense
    Cholesky-sized solves per bubble block."""
    space = systems.space
    coeffs = np.zeros(space.n_dofs)
    iters = 0
    if space.n_interface:
        diag = systems.interface_K.diagonal()
        x, iters = finefem.pcg(systems.interface_K, systems.interface_rhs,
                               rel_tol, diag)
        coeffs[:space.n_interface] = x
    for ids, Mb, bb in systems.bubble_blocks:
        coeffs[ids] = np.linalg.solve(Mb, bb)
    return CoarseSolution(space, systems.f, coeffs, iters)


def reconstruct(solution: CoarseSolution, which: str = "total"
                ) -> finefem.FineFunction:
    """Fine nodal field of the solution part: "interface", "bubble" or
    "total" (the exact nodal sum of the two)."""
    if which == "total":
        u_b = reconstruct(solution, "bubble")
        u_g = reconstruct(solution, "interface")
        return finefem.FineFunction(u_b.geom, u_b.values + u_g.values,
                                    solution.cg_iters)
    if which not in ("interface", "bubble"):
        raise ValueError(f"unknown part {which!r}")
    space = solution.space
    geom = finefem.global_geometry(space.fine)
    values = np.zeros(len(geom.points))
    n_if = space.n_interface
    for K in range(len(space.coarse.elements)):
        egeom = finefem.element_geometry(space.fine, K)
        acc = np.zeros(len(egeom.points))
        for p in space.element_dofs[K]:
            if (p < n_if) == (which == "interface"):
                acc += solution.coeffs[p] * space.catalog[p].values[K]
        # Edge traces are edge-canonical, so both writes of a shared fine
        # vertex produce the same float and plain assignment is safe.
        values[egeom.vids] = acc
    return finefem.FineFunction(geom, values, solution.cg_iters)
