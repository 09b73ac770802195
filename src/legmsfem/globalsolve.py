"""Online phase: Galerkin systems in the enriched coarse space.

The space splits into an interface part (nodal plus edge enrichments,
coupled across elements) and a bubble part (per-element, zero trace).  The
two parts are orthogonal in the energy inner product, so the global solve
decouples into one sparse SPD system for the interface coefficients and
small dense SPD systems per element for the bubbles.  The offline sweep
already forms each patch's Gram blocks a(X_i, X_j) = X_i^T K X_j of its
solved fields with the stencils it eliminates, so assembly gathers the
element blocks from those through the DOF table and reads the fields
only for the load right-hand side; the interface system is kept as the
blocks and applied element by element.

Assembly, the load projection and reconstruction read the basis fields
of each patch group as the offline sweep left them in the DOF table
(localbasis.DofTable): per part, an (elements, DOFs) table of rows of the
group's field stack and of its Gram blocks, indexed in place.  A
reconstruction is then a few array passes per group and one scatter into
the global field.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import finefem, localbasis, polybasis
from .mesh import CoarseMesh, DegreeAssignment, FineMesh


@dataclass
class EnrichedSpace:
    """The DOF table of an enriched space with its degrees.

    DOF order is that of localbasis.DofTable: interface functions first
    (nodal by vertex, then edge by (edge, k)), bubbles after (by element,
    then index); the table holds the fields of each patch group, its
    field stack and Gram blocks indexed per part (localbasis.Fields), and
    the bubble reference of the load f.  f is the one load of the space:
    assemble_coarse projects it, errors.evaluate and the estimator read
    it.
    """

    fine: FineMesh
    A: finefem.Field
    degrees: DegreeAssignment
    dofs: localbasis.DofTable
    f: finefem.Field

    @property
    def coarse(self) -> CoarseMesh:
        return self.fine.coarse

    @cached_property
    def bubble_reference(self) -> finefem.FineFunction:
        """The zero-trace solves with load f glued over the mesh
        (errors.evaluate splits the error of a solution against it)."""
        return finefem.FineFunction(finefem.global_geometry(self.fine),
                                    self.dofs.reference)

    @property
    def n_dofs(self) -> int:
        return len(self.dofs)

    @property
    def n_interface(self) -> int:
        return int(np.count_nonzero(self.dofs.kind != localbasis.BUBBLE))

    @property
    def n_bubble(self) -> int:
        return self.n_dofs - self.n_interface


class UnresolvedDegreeError(ValueError):
    """An enrichment degree asks for more functions than the fine lattice
    can carry independently, which would make a coarse system singular."""


def check_degrees(fine: FineMesh, degrees: DegreeAssignment) -> None:
    """Raise ValueError unless the degree arrays fit the mesh and their
    bounds, and UnresolvedDegreeError unless the fine lattice resolves
    every degree: edge degree N puts N - 1 enrichments on the n_sub - 1
    interior fine vertices of an edge, and an element's bubbles may not
    outnumber its interior fine vertices either, nor a triangle's bulk
    degree pass polybasis.MAX_TRIANGLE_DEGREE."""
    degrees.validate(fine.coarse)
    inner = fine.coarse.interior_edge_ids
    N = degrees.N[inner]
    if (N > fine.n_sub).any():
        e = int(np.argmax(N > fine.n_sub))
        raise UnresolvedDegreeError(
            f"edge {inner[e]}: degree N={N[e]} exceeds n_sub={fine.n_sub}")
    M, kind = degrees.M, fine.coarse.kind
    cap = polybasis.MAX_TRIANGLE_DEGREE
    if kind == "triangle" and (M > cap).any():
        K = int(np.argmax(M > cap))
        raise UnresolvedDegreeError(
            f"element {K}: bubble degree M={M[K]}, but the triangle bulk "
            f"degree is capped at {cap}")
    # The interior fine vertices of each element with bubbles, counted once
    # per patch shape from its vertex and boundary patterns.
    K = np.flatnonzero(M)
    shape = fine.patch_shape(K)
    free = np.array([len(ids) - len(bnd) for ids, bnd, _ in map(
        fine.shape_pattern, range(shape.max(initial=0) + 1))])[shape]
    # The bulk dimensions in floats, which no degree overflows: exact up
    # to 2^53, far beyond any count of fine vertices.
    bad = np.flatnonzero(polybasis.bulk_dim(kind, M[K].astype(float)) > free)
    if len(bad):
        K, free = K[bad[0]], free[bad[0]]
        raise UnresolvedDegreeError(
            f"element {K}: bubble degree M={M[K]} needs more than its "
            f"{free} interior fine vertices")


def build_space(fine: FineMesh, A: finefem.Field, degrees: DegreeAssignment,
                f: finefem.Field) -> EnrichedSpace:
    """Run the offline solves on the elements of fine.coarse and build the
    DOF table, every space its own sweep; degrees the fine lattice cannot
    resolve raise.

    The space keeps its load f and carries the bubble reference of f: the
    load solves of the same sweep, one row per distinct load row of a
    coefficient window, so every window is still eliminated once.
    """
    check_degrees(fine, degrees)
    return EnrichedSpace(fine, A, degrees, localbasis.compute_all(
        fine, A, degrees, f=f), f)


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
    """Assembled decoupled systems plus the data needed to solve them; the
    bubble systems are stacks (ids (k, b), blocks (k, b, b), rhs (k, b)),
    one per bubble count b."""

    space: EnrichedSpace
    interface_K: InterfaceOperator
    interface_rhs: np.ndarray
    bubbles: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
    cross_gram: np.ndarray | None = None

    @property
    def bubble_blocks(self) -> list[tuple]:
        """Each element's (ids, block, rhs) views, in element order; kept
        for perfbench/traced.py until it reads a run trace."""
        return sorted((t for s in self.bubbles for t in zip(*s)),
                      key=lambda t: t[0][0])


def _project_load(group: finefem.PatchGroup, iface: localbasis.Fields,
                  bub: localbasis.Fields, f: finefem.Field,
                  out: np.ndarray) -> None:
    """The load vector of f on each member of group times each of its
    interface, then bubble fields, into out (E, d), zero at padding.

    Members whose fields are the same rows of the group's stack (a
    periodic coefficient), their padding alike, share one (d, n) block of
    them, gathered once: the members are taken
    by how many share their rows, then by rows, so the members of a chunk
    of such blocks, each of equally many members, are one block of them,
    with their loads (PatchGroup.load_vectors, formed once for the
    members at one position of the evaluation of f).  Each member's products
    are one matrix-vector product of its block with its load, as for a
    copy of its own fields, so they do not depend on which members share
    a block."""
    n_i = iface.dofs.shape[1]
    rows = np.concatenate([iface.rows, bub.rows], axis=1)
    _, kind = finefem.first_of_each(rows)
    counts = np.bincount(kind)
    order = np.lexsort((kind, counts[kind]))
    first = order[np.flatnonzero(np.diff(kind[order], prepend=-1))]
    share = counts[kind[first]]
    runs = np.flatnonzero(np.diff(share, prepend=-1, append=-1)).tolist()
    d, n = rows.shape[1], group.template.n_vertices
    a = 0
    for u, v in zip(runs[:-1], runs[1:]):
        c = int(share[u])
        for sl, sub in group.take(first[u:v]).chunks((d + 10 * c) * n):
            k = len(sub.elements)
            V = np.empty((k, d, n))
            at = first[u:v][sl]
            iface.gather(at, V[:, :n_i])
            bub.gather(at, V[:, n_i:])
            members = order[a:a + k * c]
            loads = group.take(members).load_vectors(f).reshape(k, c, n)
            out[members] = np.matmul(V[:, None], loads[..., None]).reshape(
                k * c, d)
            a += k * c


def assemble_coarse(space: EnrichedSpace, A: finefem.Field,
                    f: finefem.Field, with_cross: bool = False
                    ) -> CoarseSystems:
    """Galerkin assembly in the enriched space, batched over patches of one
    shape.

    Each element contributes the Gram block of its interface DOFs and that
    of its bubble DOFs, each padded with zero rows to the longest in its
    group, gathered from the Gram blocks of the offline sweep through the
    DOF table, so no fine product is formed; the load right-hand side is
    the one pass over the fields, each block of fields that members share
    gathered once (_project_load).  The interface blocks make the
    InterfaceOperator, unassembled; the bubble blocks are stacked by
    bubble count (CoarseSystems.bubbles).  with_cross also gathers the
    bubble-interface energy Gram block from the same sweep's blocks; it is
    zero up to solver tolerance and exists for diagnostics only.  A must
    be the space's coefficient object and f its load: its bubble
    reference is the solve of that load.
    """
    if A is not space.A:
        raise ValueError("assemble_coarse: A is not the space's coefficient")
    if f is not space.f:
        raise ValueError("assemble_coarse: f is not the space's load")
    n_if = space.n_interface
    if_ids: list[np.ndarray] = []
    if_blocks: list[np.ndarray] = []
    rhs = np.zeros(n_if)
    parts = []  # (ids, blocks, rhs) of a group's members of one bubble count
    cross = np.zeros((space.n_dofs - n_if, n_if)) if with_cross else None
    for group, iface_fields, bub_fields in space.dofs.groups:
        iface, bub = iface_fields.dofs, bub_fields.dofs
        n_i = iface.shape[1]
        if_ids.append(iface)
        if_blocks.append(iface_fields.gram())
        Vb = np.zeros((len(iface), n_i + bub.shape[1]))
        if Vb.shape[1]:
            _project_load(group, iface_fields, bub_fields, f, Vb)
        np.add.at(rhs, iface[iface >= 0], Vb[:, :n_i][iface >= 0])
        G_b, count = bub_fields.gram(), (bub >= 0).sum(axis=1)
        for b in set(count.tolist()) - {0}:
            at = count == b
            parts.append((bub[at, :b], G_b[at, :b, :b], Vb[at, n_i:n_i + b]))
        if with_cross:
            G_x = bub_fields.gram(iface_fields)
            pair = (bub[:, :, None] >= 0) & (iface[:, None, :] >= 0)
            np.add.at(cross, (
                np.broadcast_to(bub[:, :, None], pair.shape)[pair] - n_if,
                np.broadcast_to(iface[:, None, :], pair.shape)[pair]),
                G_x[pair])
    bubbles = [tuple(map(np.concatenate, zip(*[p for p in parts
                                                if p[0].shape[1] == b])))
               for b in sorted({p[0].shape[1] for p in parts})]
    return CoarseSystems(space, InterfaceOperator(n_if, if_ids, if_blocks),
                         rhs, bubbles, cross)


@dataclass
class CoarseSolution:
    """Coefficients of the discrete solution in DOF order, and the fine
    field of each part, reconstructed once, at first use."""

    space: EnrichedSpace
    coeffs: np.ndarray
    cg_iters: int

    interface = cached_property(lambda self: reconstruct(self, "interface"))
    bubble = cached_property(lambda self: reconstruct(self, "bubble"))


def solve_coarse(systems: CoarseSystems, rel_tol: float = 1e-12
                 ) -> CoarseSolution:
    """Solve the decoupled systems: Jacobi-PCG on the interface block, one
    dense solve per bubble stack, bitwise a loop over its elements (numpy
    calls LAPACK once per matrix)."""
    space = systems.space
    coeffs = np.zeros(space.n_dofs)
    iters = 0
    if space.n_interface:
        x, iters = finefem.pcg(systems.interface_K, systems.interface_rhs,
                               rel_tol)
        coeffs[:space.n_interface] = x
    for ids, blocks, rhs in systems.bubbles:
        # rhs as a stack of columns: numpy 2 reads a 2-D b as a matrix.
        coeffs[ids] = np.linalg.solve(blocks, rhs[..., None])[..., 0]
    return CoarseSolution(space, coeffs, iters)


def reconstruct(solution: CoarseSolution, which: str = "total"
                ) -> finefem.FineFunction:
    """Fine nodal field of the solution part: "interface", "bubble" or
    "total" (the exact nodal sum of the two parts the solution keeps).

    For each patch shape, every member element sums coefficient times
    field over its DOFs of the part, DOF slot by DOF slot for all members
    at once, in ascending DOF order; the fields are read from the offline
    stacks in place.  The sums are then scattered into the global field.
    Bitwise the same as a loop over the elements and their DOFs."""
    if which == "total":
        u_b, u_g = solution.bubble, solution.interface
        return finefem.FineFunction(u_b.geom, u_b.values + u_g.values)
    if which not in ("interface", "bubble"):
        raise ValueError(f"unknown part {which!r}")
    space = solution.space
    values = np.zeros(space.fine.n_vertices)
    for group, *parts in space.dofs.groups:
        # Edge traces are edge-canonical and every element sums its fields
        # in DOF order, so both writes of a shared fine vertex produce the
        # same float and plain assignment is safe.
        values[group.template.vids + group.origins[:, None]] = \
            parts[which == "bubble"].combine(solution.coeffs)
    return finefem.FineFunction(finefem.global_geometry(space.fine), values)
