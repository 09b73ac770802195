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

Assembly and reconstruction see the basis fields of each patch shape as
an (elements, DOFs) table of rows of the offline field stacks, built once
per space from its DOF table (localbasis.DofTable); they index those
stacks, and their Gram blocks, in place.  A reconstruction is then a few
array passes per shape and one scatter into the global field.
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
    then index); the table holds the offline field stacks its rows index
    and their Gram blocks, and for a space built with a load the bubble
    reference of that load.
    """

    coarse: CoarseMesh
    fine: FineMesh
    A: finefem.Field
    degrees: DegreeAssignment
    dofs: localbasis.DofTable

    @cached_property
    def bubble_reference(self) -> finefem.FineFunction | None:
        """The zero-trace solves with load f glued over the mesh, None
        without a load (errors.evaluate scores the interface error against
        it)."""
        glued = self.dofs.reference
        return glued if glued is None else finefem.FineFunction(
            finefem.global_geometry(self.fine), glued)

    @property
    def n_dofs(self) -> int:
        return len(self.dofs)

    @property
    def n_interface(self) -> int:
        return int(np.count_nonzero(self.dofs.kind != localbasis.BUBBLE))

    @property
    def n_bubble(self) -> int:
        return self.n_dofs - self.n_interface

    @cached_property
    def _fields(self) -> list[tuple[finefem.PatchGroup, _Fields, _Fields]]:
        """(group, interface fields, bubble fields) for each patch shape,
        over the elements that carry DOFs, indexing the field stacks."""
        t = self.dofs
        # Every (element, DOF) pair sorted by element, then DOF.
        order = np.lexsort((t.dof, t.element))
        K, P = t.element[order], t.dof[order]
        S, R, Q = t.stack[order], t.row[order], t.gram[order]
        n_el = self.coarse.n_elements
        count = np.bincount(K, minlength=n_el)
        first = np.cumsum(count) - count
        n_if = np.bincount(K[P < self.n_interface], minlength=n_el)
        out = []
        for group in finefem.patch_groups(self.fine, np.flatnonzero(count)):
            E, n = group.elements, group.template.n_vertices
            out.append((group,
                        _Fields.of(self, S, R, Q, P, first[E], n_if[E], n),
                        _Fields.of(self, S, R, Q, P, first[E] + n_if[E],
                                   count[E] - n_if[E], n)))
        return out


@dataclass(frozen=True)
class _Fields:
    """The fields of one part of the DOFs on the members of a patch group:
    dofs (E, d) holds each member's DOFs in ascending order, padded with
    -1, and field i of member e is row rows[e, i] of stack (row 0 at
    padding), a stack of distinct fields that members may share, and row
    gram_rows[e, i] of the Gram blocks grams of its window, stacked in
    blocks of r rows (row 0 at padding), where it is column
    gram_rows[e, i] % r."""

    dofs: np.ndarray
    stack: np.ndarray
    rows: np.ndarray
    gram_rows: np.ndarray
    grams: np.ndarray

    @classmethod
    def of(cls, space: EnrichedSpace, S: np.ndarray, R: np.ndarray,
           Q: np.ndarray, P: np.ndarray, first: np.ndarray,
           count: np.ndarray, n: int) -> _Fields:
        """The fields of pairs first[e] .. first[e] + count[e] - 1 of member
        e, pair j being DOF P[j] in row R[j] of stack S[j] of the space,
        with row Q[j] of its Gram blocks; all fields of a patch shape come
        from one stack, that of its sweep."""
        d = int(count.max(initial=0))
        mask = np.arange(d) < count[:, None]
        if not mask.any():
            zero = np.zeros(mask.shape, dtype=int)
            return cls(np.full(mask.shape, -1), np.zeros((1, n)), zero, zero,
                       np.zeros((1, 1)))
        j = np.where(mask, first[:, None] + np.arange(d), 0)
        sid = S[j[mask][0]]
        return cls(np.where(mask, P[j], -1), space.dofs.stacks[sid],
                   np.where(mask, R[j], 0), np.where(mask, Q[j], 0),
                   space.dofs.grams[sid])

    def gram(self, other: _Fields | None = None) -> np.ndarray:
        """a(field i, field j of other) on each member, (E, d, d of
        other), zero at padding, gathered from the Gram blocks of the
        offline sweep, which formed every product of the fields of one
        patch shape; other, fields of the same members, defaults to these
        fields."""
        other = self if other is None else other
        G = self.grams[self.gram_rows[:, :, None],
                       other.gram_rows[:, None, :] % self.grams.shape[1]]
        G[(self.dofs[:, :, None] < 0) | (other.dofs[:, None, :] < 0)] = 0.0
        return G

    def gather(self, sl: slice = slice(None), out: np.ndarray | None = None
               ) -> np.ndarray:
        """The fields of members sl, (E, d, n), zero rows at padding, into
        out if given (the rows are in range; with mode "raise" numpy would
        write through a copy of out)."""
        V = np.take(self.stack, self.rows[sl], axis=0, out=out, mode="clip")
        V[self.dofs[sl] < 0] = 0.0
        return V

    def combine(self, coeffs: np.ndarray) -> np.ndarray:
        """sum_i coeffs[dofs[e, i]] * field i of each member e, (E, n),
        added up field by field in DOF order as a loop over the fields of
        one element would (padding adds zeros)."""
        c = np.append(coeffs, 0.0)[self.dofs]
        acc = np.zeros((len(self.dofs), self.stack.shape[1]))
        for i in range(self.dofs.shape[1]):
            acc += c[:, i, None] * self.stack[self.rows[:, i]]
        return acc


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


def build_space(coarse: CoarseMesh, fine: FineMesh, A: finefem.Field,
                degrees: DegreeAssignment, f: finefem.Field | None = None
                ) -> EnrichedSpace:
    """Run the offline solves and build the DOF table, every space its
    own sweep; degrees the fine lattice cannot resolve raise.

    Given the load f, the space also carries the bubble reference of f:
    the load solves of the same sweep, one row per distinct load row of a
    coefficient window, so every window is still eliminated once.
    """
    check_degrees(fine, degrees)
    return EnrichedSpace(coarse, fine, A, degrees, localbasis.compute_all(
        coarse, fine, A, degrees, f=f))


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
    f: finefem.Field | None
    interface_K: InterfaceOperator
    interface_rhs: np.ndarray
    bubble_blocks: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
    cross_gram: np.ndarray | None = None


def _project_load(group: finefem.PatchGroup, iface: _Fields, bub: _Fields,
                  f: finefem.Field, out: np.ndarray) -> None:
    """The load vector of f on each member of group times each of its
    interface, then bubble fields, into out (E, d), zero at padding.

    Members whose fields are the same stack rows (a periodic coefficient)
    share one (d, n) block of them, gathered once: the members are taken
    by how many share their rows, then by rows, so the members of a chunk
    of such blocks, each of equally many members, are one block of them,
    with their loads (PatchGroup.load_vectors, formed once for the
    members at one position of the evaluation of f).  Each member's products
    are one matrix-vector product of its block with its load, as for a
    copy of its own fields, so they do not depend on which members share
    a block."""
    n_i = iface.dofs.shape[1]
    rows = np.concatenate([np.where(p.dofs >= 0, p.rows, -1)
                           for p in (iface, bub)], axis=1)
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
                    f: finefem.Field | None, with_cross: bool = False
                    ) -> CoarseSystems:
    """Galerkin assembly in the enriched space, batched over patches of one
    shape.

    Each element contributes the Gram block of its interface DOFs and that
    of its bubble DOFs, each padded with zero rows to the longest in its
    group, gathered from the Gram blocks of the offline sweep through the
    DOF table, so no fine product is formed; the load right-hand side is
    the one pass over the fields, each block of fields that members share
    gathered once (_project_load).  The interface blocks make the
    InterfaceOperator, unassembled.  with_cross also gathers the
    bubble-interface energy Gram block from the same sweep's blocks; it is
    zero up to solver tolerance and exists for diagnostics only.  A must
    be the space's coefficient object.
    """
    if A is not space.A:
        raise ValueError("assemble_coarse: A is not the space's coefficient")
    n_if = space.n_interface
    if_ids: list[np.ndarray] = []
    if_blocks: list[np.ndarray] = []
    rhs = np.zeros(n_if)
    blocks = {}
    cross = np.zeros((space.n_dofs - n_if, n_if)) if with_cross else None
    for group, iface_fields, bub_fields in space._fields:
        iface, bub = iface_fields.dofs, bub_fields.dofs
        n_i = iface.shape[1]
        if_ids.append(iface)
        if_blocks.append(iface_fields.gram())
        Vb = np.zeros((len(iface), n_i + bub.shape[1]))
        if f is not None and Vb.shape[1]:
            _project_load(group, iface_fields, bub_fields, f, Vb)
        np.add.at(rhs, iface[iface >= 0], Vb[:, :n_i][iface >= 0])
        G_b = bub_fields.gram()
        for e, (K, b) in enumerate(zip(group.elements.tolist(),
                                       (bub >= 0).sum(axis=1).tolist())):
            if b:
                blocks[K] = (bub[e, :b], G_b[e, :b, :b], Vb[e, n_i:n_i + b])
        if with_cross:
            G_x = bub_fields.gram(iface_fields)
            pair = (bub[:, :, None] >= 0) & (iface[:, None, :] >= 0)
            np.add.at(cross, (
                np.broadcast_to(bub[:, :, None], pair.shape)[pair] - n_if,
                np.broadcast_to(iface[:, None, :], pair.shape)[pair]),
                G_x[pair])
    return CoarseSystems(space, f, InterfaceOperator(n_if, if_ids, if_blocks),
                         rhs, [blocks[K] for K in sorted(blocks)], cross)


@dataclass
class CoarseSolution:
    """Coefficients of the discrete solution in DOF order."""

    space: EnrichedSpace
    f: finefem.Field | None
    coeffs: np.ndarray
    cg_iters: int


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
    "total" (the exact nodal sum of the two).

    For each patch shape, every member element sums coefficient times
    field over its DOFs of the part, DOF slot by DOF slot for all members
    at once, in ascending DOF order; the fields are read from the offline
    stacks in place.  The sums are then scattered into the global field.
    Bitwise the same as a loop over the elements and their DOFs."""
    if which == "total":
        u_b = reconstruct(solution, "bubble")
        u_g = reconstruct(solution, "interface")
        return finefem.FineFunction(u_b.geom, u_b.values + u_g.values)
    if which not in ("interface", "bubble"):
        raise ValueError(f"unknown part {which!r}")
    space = solution.space
    values = np.zeros(space.fine.n_vertices)
    for group, *parts in space._fields:
        # Edge traces are edge-canonical and every element sums its fields
        # in DOF order, so both writes of a shared fine vertex produce the
        # same float and plain assignment is safe.
        values[group.template.vids + group.origins[:, None]] = \
            parts[which == "bubble"].combine(solution.coeffs)
    return finefem.FineFunction(finefem.global_geometry(space.fine), values)
