"""Online phase: Galerkin systems in the enriched coarse space.

The space splits into an interface part (nodal plus edge enrichments,
coupled across elements) and a bubble part (per-element, zero trace).  The
two parts are orthogonal in the energy inner product, so the global solve
decouples into one sparse SPD system for the interface coefficients and
small dense SPD systems per element for the bubbles.  Assembly takes the
element Gram blocks of a whole chunk of same-shape patches at once
(finefem.patch_groups and finefem.gram_blocks); the interface system is
kept as those blocks and applied element by element.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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
    dims = {m: polybasis.BulkPolyBasis(fine.coarse.kind, m).dim
            for m in set(degrees.M.values()) if m}
    for K, m in sorted(degrees.M.items()):
        if not m:
            continue
        free = (len(fine.element_vertex_ids(K))
                - len(fine.element_boundary_vertex_ids(K)))
        if dims[m] > free:
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


class InterfaceOperator:
    """The interface stiffness as the sum of its element Gram blocks,
    applied element by element without assembly (Hughes, Levit and
    Winget, CMAME 36, 1983): a gather of each element's coefficients, one
    batched block product over all elements and one bincount scatter.

    ids is a list of (E, k) arrays holding the interface DOFs of each
    element, padded with -1, and blocks the matching (E, k, k) Gram
    blocks, zero in the padded rows and columns.  shape and diagonal() are
    those of the assembled matrix; nnz counts the block entries stored,
    padding excluded."""

    def __init__(self, n: int, ids: list[np.ndarray],
                 blocks: list[np.ndarray]):
        self.shape = (n, n)
        self.nnz = int(sum(((i >= 0).sum(axis=1) ** 2).sum() for i in ids))
        k = max((i.shape[1] for i in ids), default=0)
        E = sum(len(i) for i in ids)
        # Element index last, so the block product runs along it; padding
        # points at an extra zero coefficient past the end.
        self._ids = np.full((k, E), n)
        self._blocks = np.zeros((k, k, E))
        e = 0
        for i, B in zip(ids, blocks):
            c, m = i.shape
            self._ids[:m, e:e + c] = np.where(i >= 0, i, n).T
            self._blocks[:m, :m, e:e + c] = B.transpose(1, 2, 0)
            e += c

    def _scatter(self, per_entry: np.ndarray) -> np.ndarray:
        return np.bincount(self._ids.ravel(), per_entry.ravel(),
                           self.shape[0] + 1)[:-1]

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        # einsum runs the small per-element products about three times
        # faster than a stacked matmul.
        xe = np.append(x, 0.0)
        return self._scatter(np.einsum("ije,je->ie", self._blocks,
                                       xe[self._ids]))

    def diagonal(self) -> np.ndarray:
        return self._scatter(np.einsum("iie->ie", self._blocks))


@dataclass
class CoarseSystems:
    """Assembled decoupled systems plus the data needed to solve them."""

    space: EnrichedSpace
    f: finefem.RhsField | None
    interface_K: InterfaceOperator
    interface_rhs: np.ndarray
    bubble_blocks: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
    cross_gram: np.ndarray | None = None


def assemble_coarse(space: EnrichedSpace, A: finefem.CoefficientField,
                    f: finefem.RhsField | None, with_cross: bool = False
                    ) -> CoarseSystems:
    """Galerkin assembly in the enriched space, batched over patches of one
    shape.

    Each element contributes the Gram block of its own DOF stack, interface
    rows first and bubble rows after, each part padded with zero rows to
    the longest in its group; finefem.gram_blocks computes the blocks of a
    whole chunk of same-shape elements at once.  The interface blocks make
    the InterfaceOperator, unassembled.  with_cross also
    accumulates the bubble-interface energy Gram block, which is zero up to
    solver tolerance; it exists for diagnostics only.
    """
    n_if = space.n_interface
    if_ids: list[np.ndarray] = []
    if_blocks: list[np.ndarray] = []
    rhs = np.zeros(n_if)
    blocks = {}
    cross = np.zeros((space.n_dofs - n_if, n_if)) if with_cross else None
    used = [K for K, dofs in enumerate(space.element_dofs) if dofs]
    for group in finefem.patch_groups(space.fine, used):
        parts = [([p for p in space.element_dofs[K] if p < n_if],
                  [p for p in space.element_dofs[K] if p >= n_if])
                 for K in group.elements]
        n_i = max(len(a) for a, _ in parts)
        dofs = np.full((len(parts), n_i + max(len(b) for _, b in parts)), -1)
        for e, (a, b) in enumerate(parts):
            dofs[e, :len(a)] = a
            dofs[e, n_i:n_i + len(b)] = b
        tris = group.template.tris
        for sl, sub in group.chunks(dofs.shape[1] * len(tris) * 3):
            ids = dofs[sl]
            V = np.zeros(ids.shape + (group.template.n_vertices,))
            for e, (K, row) in enumerate(zip(sub.elements.tolist(),
                                             ids.tolist())):
                for r, p in enumerate(row):
                    if p >= 0:
                        V[e, r] = space.catalog[p].values[K]
            G = finefem.gram_blocks(V, tris, *sub.weights(A))
            Vb = (np.matmul(V, sub.load_vectors(f)[..., None])[..., 0]
                  if f is not None else np.zeros(ids.shape))
            iface, bub = ids[:, :n_i], ids[:, n_i:]
            if_ids.append(iface)
            if_blocks.append(G[:, :n_i, :n_i])
            np.add.at(rhs, iface[iface >= 0], Vb[:, :n_i][iface >= 0])
            for e, (K, (_, b)) in enumerate(zip(sub.elements.tolist(),
                                                parts[sl])):
                if b:
                    nb = len(b)
                    blocks[K] = (bub[e, :nb], G[e, n_i:n_i + nb, n_i:n_i + nb],
                                 Vb[e, n_i:n_i + nb])
            if with_cross:
                pair = (bub[:, :, None] >= 0) & (iface[:, None, :] >= 0)
                np.add.at(cross, (
                    np.broadcast_to(bub[:, :, None], pair.shape)[pair] - n_if,
                    np.broadcast_to(iface[:, None, :], pair.shape)[pair]),
                    G[:, n_i:, :n_i][pair])
    return CoarseSystems(space, f, InterfaceOperator(n_if, if_ids, if_blocks),
                         rhs, [blocks[K] for K in sorted(blocks)], cross)


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
    """Solve the decoupled systems: Jacobi-PCG on the interface block, dense
    Cholesky-sized solves per bubble block."""
    space = systems.space
    coeffs = np.zeros(space.n_dofs)
    iters = 0
    if space.n_interface:
        x, iters = finefem.pcg(systems.interface_K, systems.interface_rhs,
                               rel_tol)
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
        vids = space.fine.element_vertex_ids(K)
        acc = np.zeros(len(vids))
        for p in space.element_dofs[K]:
            if (p < n_if) == (which == "interface"):
                acc += solution.coeffs[p] * space.catalog[p].values[K]
        # Edge traces are edge-canonical, so both writes of a shared fine
        # vertex produce the same float and plain assignment is safe.
        values[vids] = acc
    return finefem.FineFunction(geom, values, solution.cg_iters)
