"""Offline enrichment basis: coefficient-adapted nodal functions, edge
enrichments with internal Legendre traces, and per-element bubbles.

Every DOF is fixed by its kind and key (a vertex, an (edge, k) or an
(element, i)) and has one fine nodal field per support element, on the
shared fine mesh restricted to that element.  DofTable lists the DOFs as
int arrays and points each (element, DOF) pair at a row of a field stack,
the only store of the fields; no Python object is built per DOF.  The
offline work is grouped by patch shape: every trace and every bubble load
on a patch becomes a row of its right-hand side, the patches of one shape
are lattice translates of one template (finefem.patch_groups), and
patches whose coefficient windows are bitwise equal (a periodic
coefficient, H a whole number of periods) share one system.  One direct
block-tridiagonal sweep over the template's fine-lattice rows solves a
whole chunk of distinct windows that are shared by equally many patches,
each carrying the rows of all its patches, in place in the field stack,
so every requested row is solved once and none is padding (a P1
stiffness on the structured lattice couples only adjacent rows).  The
sweep's blocks come from the stencils of the chunk, formed by the
lattice formula in one pass (finefem.PatchGroup.stencil),
through the template's finefem.RowBlocks, the block layout the coarsest
multigrid level uses too; the same stencils give a trace row's
right-hand side -K X and then each patch's Gram blocks a(X_i, X_j) of its
solved fields (finefem.patch_grams), kept beside the field stack for the
coarse assembly.  The bubble loads are box arrays from the lattice
formula too (finefem.box_loads).  Given the problem's load f, the sweep
also solves one zero-trace row with load f per patch; glued over the
mesh, these rows are the bubble part of the fine reference solution (the
error report's bubble reference), solved beside the field stack in an
array of their own, so every distinct window is eliminated once per run.
The sweep's matrices carry a leading window axis, and
every window and every row is its own LAPACK or BLAS call, so a field
comes out bitwise the same whatever is solved with it.
Traces on coarse edges are sampled at the fine vertices of the edge chain,
always through the edge's own orientation (v0 to v1) and from one
evaluation per (n_sub, degree), so the two adjacent patches impose
bit-identical Dirichlet data and reconstructions glue exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import finefem, polybasis
from .mesh import CoarseMesh, DegreeAssignment, FineMesh


NODAL, EDGE, BUBBLE = 0, 1, 2  # the kind codes of DofTable


@dataclass(frozen=True)
class DofTable:
    """The DOFs of an enriched space and the field stack rows that hold
    their fields: the one description of a space's basis.

    DOF d is of kind[d] with key[d] = (vertex, 0) for NODAL, (edge, k) with
    2 <= k <= N_e for EDGE, or (element, i) with i from 1 for BUBBLE; the
    nodal functions come first by vertex, then the edge enrichments by
    (edge, k), then the bubbles by (element, i).  Pair j puts DOF dof[j] on
    element element[j], where its field is row row[j] of field stack
    stack[j], over the element patch's fine vertices in ascending order.
    The pairs come in no particular order.  Stack s has a block of m rows
    per member of one patch shape, grams[s] their Gram blocks a(X_i, X_j),
    (members, m, m).  reference glues the zero-trace solves with the load
    into one fine field, the bubble reference (None without a load)."""

    kind: np.ndarray
    key: np.ndarray
    element: np.ndarray
    dof: np.ndarray
    stack: np.ndarray
    row: np.ndarray
    stacks: list[np.ndarray]
    grams: list[np.ndarray]
    reference: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.kind)

    def find(self, kind: int, i: int, k: int) -> int:
        """The DOF of kind with key (i, k), -1 if there is none."""
        return _find(self.kind, self.key, (kind, i, k))


def _find(kinds: np.ndarray, keys: np.ndarray, select: tuple) -> int:
    hit = np.flatnonzero((kinds == select[0]) & (keys == select[1:]).all(1))
    return int(hit[0]) if len(hit) else -1


def _runs(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(run, rank) of the items of consecutive runs of the given lengths:
    the run of each item and its position within the run."""
    run = np.repeat(np.arange(len(counts)), counts)
    return run, np.arange(len(run)) - (np.cumsum(counts) - counts)[run]


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=None)
def _edge_parameters(n: int) -> np.ndarray:
    # t = 0..1 along the chain; endpoints exact.
    return _readonly(np.arange(n + 1) / n)


@lru_cache(maxsize=None)
def _eta_trace(n: int, k: int) -> np.ndarray:
    """eta_k along a chain; eta_k(+-1) = 0 exactly, so corners agree."""
    return _readonly(polybasis.internal_basis_eval(
        k, -1.0 + 2.0 * _edge_parameters(n)))


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    """The distinct values of an array of nonnegative integers, ascending.
    By hand, not np.unique: called without return arrays it asks
    np.ma.is_masked, which imports numpy.ma (about 17 ms) on every run."""
    s = np.sort(a, axis=None)
    return s[np.diff(s, prepend=-1) != 0]


def _edge_positions(fine: FineMesh, group: finefem.PatchGroup,
                    sides: np.ndarray) -> np.ndarray:
    """Template-local indices of each edge chain, in element_edge_ids
    order (sides holds each member's edge ids), shape (sides, n_sub + 1).

    The chains must cover exactly the template boundary, so every row built
    from them is complete Dirichlet data, and every member's chains must be
    the template's shifted by the member's origin."""
    t = group.template
    chains = fine.edge_vertex_chains(sides) - group.origins[:, None, None]
    same = (chains == chains[0]).all((1, 2))
    if not same.all():
        raise ValueError(f"element {group.elements[np.argmin(same)]}: edge "
                         "chains are not a translate of those of element "
                         f"{group.elements[0]}")
    loc = np.minimum(np.searchsorted(t.vids, chains[0]), len(t.vids) - 1)
    if (not np.array_equal(t.vids[loc], chains[0])
            or not np.array_equal(_sorted_unique(loc), t.boundary_local)):
        raise ValueError(f"{t.label}: edge chains do not cover exactly "
                         "the patch boundary")
    return loc


def _trace_rows(coarse: CoarseMesh, fine: FineMesh,
                group: finefem.PatchGroup, codes: np.ndarray, stride: int,
                out: np.ndarray | None = None) -> np.ndarray:
    """Dirichlet rows of every member, (elements, rows, n), into out if
    given, one for each of its trace codes (elements, rows), a zero row
    for -1.  Code c below the corner count is the hat at corner c of the
    element, code corners + j * stride + k - 2 is eta_k on its side j.
    The rows are gathered from one table on the template, written edge by
    edge in element_edge_ids order (corner values agree)."""
    sides = coarse.element_edge_ids[group.elements]
    pos = _edge_positions(fine, group, sides)
    corner_ids = _sorted_unique(pos[:, [0, -1]])
    # The hat row of the start and of the end of each side's chain.
    hat_row = np.searchsorted(corner_ids, pos[:, [0, -1]])
    n_hat = len(corner_ids)
    table = np.zeros((n_hat + len(pos) * stride + 1,
                      group.template.n_vertices))
    t = _edge_parameters(fine.n_sub)
    for j, loc in enumerate(pos):
        table[hat_row[j, 0], loc] = 1.0 - t
        table[hat_row[j, 1], loc] = t
        for k in range(2, stride + 2):
            table[n_hat + j * stride + k - 2, loc] = _eta_trace(fine.n_sub, k)
    # The table row of each code of each member, the zero row last; a
    # corner is the start or the end of one of the member's sides.
    ends = coarse.edge_ends[sides].reshape(len(sides), 1, -1)
    at_corner = coarse.element_vertices[group.elements][..., None] == ends
    row = np.concatenate([
        hat_row.ravel()[np.argmax(at_corner, axis=-1)],
        np.broadcast_to(n_hat + np.arange(len(pos) * stride + 1),
                        (len(sides), len(pos) * stride + 1))], axis=1)
    return np.take(table, np.take_along_axis(row, codes, axis=1), axis=0,
                   out=out, mode="clip")


def _load_weights(coarse: CoarseMesh, sub: finefem.PatchGroup,
                  M: np.ndarray, bases: dict, n_b: int,
                  f: finefem.RhsField | None) -> np.ndarray:
    """The P1 loads of the members of sub by the centroid rule, as the
    share area * value / 3 of each triangle, (nt, n_b + (f given),
    elements): the bulk polynomials P_1..P_dim of each member's bulk degree
    M (the basis bases[M], none for 0; zero rows after), then f.  The
    polynomials are evaluated once for all members of one degree, at
    reference points stacked from the coarse mesh's affine maps."""
    areas, centroids = sub.cells()
    out = np.zeros((areas.shape[1], n_b + (f is not None), len(areas)))
    for m in _sorted_unique(M[M > 0]).tolist():
        es = np.flatnonzero(M == m)
        basis = bases[m]
        K = sub.elements[es]
        ref = np.matmul(centroids[es] - coarse.offsets[K][:, None],
                        coarse.Binv[K].transpose(0, 2, 1))
        P = basis.eval_ref(ref.reshape(-1, 2)).reshape(len(es), -1,
                                                       basis.dim)
        out[:, :basis.dim, es] = (areas[es][..., None] * P
                                  / 3.0).transpose(1, 2, 0)
    if f is not None:
        pts = centroids.reshape(-1, 2)
        fv = np.asarray(f(pts[:, 0], pts[:, 1]), dtype=float)
        out[:, -1] = (areas * fv.reshape(areas.shape) / 3.0).T
    return out


def _distinct_windows(group: finefem.PatchGroup, AW: np.ndarray,
                      step: int) -> np.ndarray:
    """The distinct window of each member of group, numbered in order of
    first appearance: members whose windows of the global area-weighted
    coefficient AW (PatchGroup.windows) are bitwise equal share one.  The
    bytes of each window are the key, so two coefficients never share a
    window, taken chunk by chunk (chunks(step))."""
    seen: dict[bytes, int] = {}
    wid = np.empty(len(group.elements), dtype=int)
    for sl, sub in group.chunks(step):
        wid[sl] = [seen.setdefault(w.tobytes(), len(seen))
                   for w in sub.windows(AW)]
    return wid


def _group_fields(coarse: CoarseMesh, fine: FineMesh,
                  A: finefem.CoefficientField, group: finefem.PatchGroup,
                  codes: np.ndarray, stride: int, M: np.ndarray,
                  bases: dict, f: finefem.RhsField | None = None
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None,
                             np.ndarray]:
    """All requested fields on the patches of one group, batched: their
    stack, a block of rows per member; the Gram blocks a(X_i, X_j) of each
    member's block, (elements, rows, rows); given the load f, the
    zero-trace solve with load f on every member, (elements, n), else None;
    and the members in stack order, as positions in group.

    Member e asks for the trace of each of its codes codes[e] (see
    _trace_rows; -1 for a zero row), zero on the rest of the boundary, then
    for the zero-trace solve with load P_i for each P_i of its bulk basis
    bases[M[e]] (none for M[e] = 0).  Members with fewer bubbles are padded
    with zero rows.  Members whose coefficient windows are bitwise equal
    (_distinct_windows) share one system, so each distinct window is
    eliminated once.  The stack lists the members by the share count of
    their window, then by window, so a chunk of windows of one count,
    with the rows of all their members, is one block of the stack: one
    block sweep over the template's lattice rows solves it in place, with
    no padding and no copy, with the same block of the load solves (kept
    out of the stack), so the sweep solves one row per requested field
    however the windows are shared.  Each row comes out the same
    whatever other rows, members and windows are solved with it, so a
    member's fields are bitwise those of its patch solved alone.  The
    stencils the sweep eliminates then give each member's Gram block of
    its solved rows (finefem.patch_grams), so the coarse assembly forms no
    fine product.
    """
    t = group.template
    E, n = len(group.elements), t.n_vertices
    n_tr = codes.shape[1]
    n_b = max([b.dim for m, b in bases.items() if (M == m).any()], default=0)
    m = n_tr + n_b
    m_all = m + (f is not None)
    is_free = np.ones(n, dtype=bool)
    is_free[t.boundary_local] = False
    free = np.flatnonzero(is_free)
    slots = t.box[1][free]
    blocks = finefem.RowBlocks(slots, t.grid, free)
    # Doubles of the largest temporaries per member: three box arrays of
    # each right-hand side row (-K X of the traces, the loads from their
    # triangle shares), and the four box arrays of its Gram blocks.
    per_element = (3 * m_all + 4 * m) * math.prod(t.grid)
    step = max(per_element, blocks.size)
    wid = _distinct_windows(
        group, finefem.global_geometry(fine).area_weighted(A), step)
    counts = np.bincount(wid)
    order = np.lexsort((wid, counts[wid]))
    # Each window's first position in the stack and its share count, and
    # the runs of windows of one count.
    starts = np.flatnonzero(np.diff(wid[order], prepend=-1))
    share = counts[wid[order[starts]]]
    runs = np.flatnonzero(np.diff(share, prepend=-1, append=-1)).tolist()
    windows, members = group.take(order[starts]), group.take(order)
    X = np.zeros((E, m, n))
    G = np.zeros((E, m, m))
    L = None if f is None else np.zeros((E, n))
    if n_tr:
        _trace_rows(coarse, fine, members, codes[order], stride, X[:, :n_tr])
    for u, v in zip(runs[:-1], runs[1:]):
        c = int(share[u])
        for ws, sub in windows.take(slice(u, v)).chunks(step):
            st = sub.stencil(A)
            a = int(starts[u + ws.start])
            b = a + c * len(sub.elements)
            # Per chunk of members: their rows of the stack, and their
            # windows in the chunk.
            parts = [(slice(a + ms.start, a + ms.start + len(msub.elements)),
                      msub, (ms.start + np.arange(len(msub.elements))) // c)
                     for ms, msub in members.take(slice(a, b)).chunks(step)]
            for sl, msub, w in parts:
                if n_tr:
                    member = finefem.Stencil(st.grid, st.coef[w][:, None])
                    X[sl, :n_tr, free] = np.negative(member.apply(
                        t.to_box(X[sl, :n_tr]))[..., slots])
                if m_all > n_tr:
                    lw = _load_weights(coarse, msub, M[order[sl]], bases, n_b,
                                       f)
                    Q = finefem.box_loads(t, lw.T, finefem.BY_TRIANGLE)[
                        ..., slots]
                    X[sl, n_tr:, free] = Q[:, :n_b]
                    if L is not None:
                        L[sl, free] = Q[:, n_b]
            # Solved in place: the free entries of each row become its
            # field, the trace rows keeping their boundary values.
            blocks.eliminate(st, *(V[a:b].reshape(len(sub.elements), -1, n)
                                   for V in (X, L) if V is not None))
            if m:
                for sl, _, w in parts:
                    G[sl] = finefem.patch_grams(
                        t, finefem.Stencil(st.grid, st.coef[w]), X[sl])
    return X.reshape(-1, n), G, L, order


def _patch_fields(coarse: CoarseMesh, fine: FineMesh,
                  A: finefem.CoefficientField, elements: np.ndarray,
                  codes: np.ndarray, stride: int, M: np.ndarray,
                  bases: dict, f: finefem.RhsField | None = None
                  ) -> tuple[list, list, np.ndarray, np.ndarray | None]:
    """The stacks and Gram blocks of _group_fields for the given elements,
    with the requests codes and M of every element of the mesh; for each
    element, (stack, first row, first bubble row), -1 where it is not solved:
    its traces are the rows from the first row on, its bubbles those from the
    first bubble row on; and, given the load f (every element must then be
    solved), the zero-trace solves with load f glued into one global field,
    else None.  The codes of a group are cut to its members' longest list, so
    no group solves a row that none of them asks for."""
    stacks, grams = [], []
    where = np.full((len(codes), 3), -1)
    glued = None if f is None else np.zeros(fine.n_vertices)
    for group in finefem.patch_groups(fine, elements):
        E = group.elements
        n_tr = int((codes[E] >= 0).sum(axis=1).max(initial=0))
        rows, G, loads, order = _group_fields(coarse, fine, A, group,
                                              codes[E, :n_tr], stride, M[E],
                                              bases, f)
        E = E[order]
        where[E, 0] = len(stacks)
        where[E, 1] = np.arange(len(E)) * (len(rows) // len(E))
        where[E, 2] = where[E, 1] + n_tr
        stacks.append(rows)
        grams.append(G)
        if loads is not None:
            # Every member's solve is zero on its boundary, so the shared
            # skeleton vertices get zero whichever member writes last.
            glued[group.template.vids + group.origins[order, None]] = loads
    return stacks, grams, where, glued


def compute_all(coarse: CoarseMesh, fine: FineMesh, A: finefem.CoefficientField,
                degrees: DegreeAssignment, bubbles_only: bool = False,
                f: finefem.RhsField | None = None,
                support_of: tuple[int, int, int] | None = None) -> DofTable:
    """The DOF table of the enrichment (see DofTable for its order), with
    the offline solves of its fields.

    bubbles_only leaves out the interface DOFs (sweeps reuse the interface
    part across bubble degrees).  Each element patch is solved once, for
    all of its traces and bubble loads together, and the patches of one
    shape in batches, one field stack per patch shape solved.  support_of,
    a (kind, id, k) key, restricts the solves to the elements of that DOF:
    every DOF stays listed, but only the pairs on those elements are (none
    if there is no such DOF).  Given the load f, every patch also solves the
    zero-trace problem with load f in the same sweep, and the table's
    reference glues those solves into one global fine field.
    """
    degrees.validate(coarse)
    ev, sides = coarse.element_vertices, coarse.element_edge_ids
    n_el = len(ev)
    verts = np.zeros(0, dtype=int)
    n_eta = np.zeros(coarse.n_edges, dtype=int)
    M = degrees.M
    if not bubbles_only:
        verts, inner = coarse.interior_vertex_ids, coarse.interior_edge_ids
        n_eta[inner] = degrees.N[inner] - 1
    bases = {m: polybasis.BulkPolyBasis(coarse.kind, m)
             for m in _sorted_unique(M[M > 0]).tolist()}
    n_b = np.zeros(n_el, dtype=int)
    for m, basis in bases.items():
        n_b[M == m] = basis.dim
    # The DOFs: nodal by vertex, eta_k on edge e for k = 2..N_e, then
    # bubbles i = 1..dim M_K on element K.
    edge, k = _runs(n_eta)
    bubble_el, i = _runs(n_b)
    kinds = np.repeat([NODAL, EDGE, BUBBLE], [len(verts), len(k), len(i)])
    keys = np.column_stack([np.concatenate([verts, edge, bubble_el]),
                            np.concatenate([0 * verts, k + 2, i + 1])])
    # The DOF of each row of each element: first its trace codes (see
    # _trace_rows), the hats of its interior corners and eta_k on its
    # sides, moved to the front in code order, then its bubbles.
    nodal_at = np.full(coarse.n_vertices, -1)
    nodal_at[verts] = np.arange(len(verts))
    stride = int(n_eta.max(initial=0))
    step = np.arange(stride)
    eta_at = len(verts) + np.cumsum(n_eta) - n_eta
    dof = np.concatenate([nodal_at[ev], np.where(
        step < n_eta[sides][..., None], eta_at[sides][..., None] + step,
        -1).reshape(n_el, -1)], axis=1)
    codes = np.argsort(dof < 0, axis=1, kind="stable")
    n_tr = int((dof >= 0).sum(axis=1).max(initial=0))
    dof = np.take_along_axis(dof, codes[:, :n_tr], axis=1)
    step = np.arange(n_b.max(initial=0))
    bubble_at = len(verts) + len(k) + np.cumsum(n_b) - n_b
    slots = np.concatenate([dof, np.where(
        step < n_b[:, None], bubble_at[:, None] + step, -1)], axis=1)
    solve = (slots >= 0).any(axis=1) | (f is not None)
    if support_of is not None:
        d = _find(kinds, keys, support_of)
        solve &= (slots == d).any(axis=1) & (d >= 0)
    stacks, grams, where, glued = _patch_fields(
        coarse, fine, A, np.flatnonzero(solve),
        np.where(dof >= 0, codes[:, :n_tr], -1), stride, M, bases, f)
    K, col = np.nonzero((slots >= 0) & solve[:, None])
    return DofTable(kinds, keys, K, slots[K, col], where[K, 0], np.where(
        col < n_tr, where[K, 1] + col, where[K, 2] + col - n_tr),
        stacks, grams, glued)


def dump_points(table: DofTable, dof: int, fine: FineMesh) -> np.ndarray:
    """(x, y, value) rows over the support of DOF dof, one row per fine
    vertex, by vertex id."""
    values = np.zeros(fine.n_vertices)
    on = np.zeros(fine.n_vertices, dtype=bool)
    for j in np.flatnonzero(table.dof == dof).tolist():
        vids = fine.element_vertex_ids(table.element[j])
        values[vids] = table.stacks[table.stack[j]][table.row[j]]
        on[vids] = True
    ids = np.flatnonzero(on)
    return np.column_stack([fine.vertices[ids], values[ids]])
