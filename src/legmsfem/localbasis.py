"""Offline enrichment basis: coefficient-adapted nodal functions, edge
enrichments with internal Legendre traces, and per-element bubbles.

Every DOF is fixed by its kind and key (a vertex, an (edge, k) or an
(element, i)) and has one fine nodal field per support element, on the
shared fine mesh restricted to that element.  DofTable lists the DOFs as
int arrays and, for each patch group the sweep solved, points every DOF
of every member at a row of the group's field stack, the only store of
the fields; no Python object is built per DOF.  The offline work is
grouped by patch shape: every trace and every bubble load
on a patch is a right-hand side, the patches of one shape are lattice
translates of one template (finefem.patch_groups), and patches whose
coefficient windows are bitwise equal (a periodic coefficient, H a whole
number of periods) share one system.  Within a window, requests with equal
right-hand sides share one row: a trace by its row of the template's trace
table, a bubble load by its class of affine maps (the loads of a class are
formed once, on the template), a load f by its window of f, told apart as
the coefficient's windows are (finefem.PatchGroup.window_ids), so each
distinct local problem is formed, solved and stored once, and the DOF
table points every patch that poses it at that row.  One direct
block-tridiagonal sweep over the template's fine-lattice rows solves a
chunk of windows with equally many distinct rows in place in the field
stack (a P1 stiffness on the structured lattice couples only adjacent
rows).  The sweep's blocks come from the stencils of the chunk, formed by
the lattice formula in one pass (finefem.PatchGroup.stencil), through the
template's multigrid.RowBlocks, the block layout the coarsest multigrid
level uses too; the same stencils give a trace row's right-hand side -K X and then each
window's Gram block a(X_i, X_j) of its solved rows (finefem.patch_grams),
kept beside the field stack for the coarse assembly.  The bubble loads are
box arrays from the lattice formula too (finefem.box_loads).  Given the
problem's load f, the sweep also solves the zero-trace problem with load f
of every patch, once per distinct pair of coefficient window and f window,
its load read from the whole lattice's load vector (finefem.load_vector,
the one the fine reference solves) at the patch's free vertices, where it
is bitwise the patch's own; glued over the mesh, these solves are the
bubble part of the fine reference solution (the error report's bubble
reference), solved beside the field stack in an array of their own, so
every distinct window is eliminated once per run.
The sweep's matrices carry a leading window axis, and every window and
every row is its own LAPACK or BLAS call, so a field comes out bitwise the
same whatever is solved with it.
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

from . import finefem, multigrid, polybasis
from .mesh import DegreeAssignment, FineMesh


NODAL, EDGE, BUBBLE = 0, 1, 2  # the kind codes of DofTable


@dataclass(frozen=True)
class Fields:
    """The fields of one part of the DOFs, interface or bubble, on the
    members of a patch group: dofs (E, d) holds each member's DOFs in
    ascending order, padded with -1 at the end, and field i of member e is
    row rows[e, i] of stack, the group's stack of distinct fields, which
    members may share, and row gram_rows[e, i] of grams, the Gram blocks
    a(X_i, X_j) of the group's windows, each over its rows, stacked in
    blocks of r rows, where it is column gram_rows[e, i] % r.  rows and
    gram_rows are -1 at padding, which every reader masks."""

    dofs: np.ndarray
    stack: np.ndarray
    rows: np.ndarray
    gram_rows: np.ndarray
    grams: np.ndarray

    def gram(self, other: Fields | None = None) -> np.ndarray:
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


@dataclass(frozen=True)
class DofTable:
    """The DOFs of an enriched space and the field stack rows that hold
    their fields: the one description of a space's basis.

    DOF d is of kind[d] with key[d] = (vertex, 0) for NODAL, (edge, k) with
    2 <= k <= N_e for EDGE, or (element, i) with i from 1 for BUBBLE; the
    nodal functions come first by vertex, then the edge enrichments by
    (edge, k), then the bubbles by (element, i).  groups holds (group,
    interface fields, bubble fields) for each patch group the offline
    sweep solved (Fields), the two parts of a group indexing its one stack
    of distinct fields, over the patch's fine vertices in ascending order,
    and its Gram blocks.  A member may carry no DOF (given a load, every
    element is solved).  reference glues the zero-trace solves with the
    load into one fine field, the bubble reference (None without a
    load)."""

    kind: np.ndarray
    key: np.ndarray
    groups: list[tuple[finefem.PatchGroup, Fields, Fields]]
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


def _edge_positions(group: finefem.PatchGroup, sides: np.ndarray
                    ) -> np.ndarray:
    """Template-local indices of each edge chain, in element_edge_ids
    order (sides holds each member's edge ids), shape (sides, n_sub + 1).

    The chains must cover exactly the template boundary, so every row built
    from them is complete Dirichlet data, and every member's chains must be
    the template's shifted by the member's origin."""
    t = group.template
    chains = (group.fine.edge_vertex_chains(sides)
              - group.origins[:, None, None])
    same = (chains == chains[0]).all((1, 2))
    if not same.all():
        raise ValueError(f"element {group.elements[np.argmin(same)]}: edge "
                         "chains are not a translate of those of element "
                         f"{group.elements[0]}")
    loc = np.minimum(np.searchsorted(t.vids, chains[0]), len(t.vids) - 1)
    covered = loc.ravel()[finefem.first_of_each(loc.ravel())[0]]
    if (not np.array_equal(t.vids[loc], chains[0])
            or not np.array_equal(covered, t.boundary_local)):
        raise ValueError(f"{t.label}: edge chains do not cover exactly "
                         "the patch boundary")
    return loc


def _trace_table(group: finefem.PatchGroup, codes: np.ndarray, stride: int
                 ) -> tuple[np.ndarray, np.ndarray]:
    """The Dirichlet rows of a group, (table rows, n), and the table row of
    each trace code of each member, (elements, codes), the zero row (the
    last) for -1.  Code c below the corner count is the hat at corner c of
    the element, code corners + j * stride + k - 2 is eta_k on its side j.
    The table is written on the template, edge by edge in element_edge_ids
    order (corner values agree), so a member's trace rows are table rows."""
    n_sub, coarse = group.fine.n_sub, group.fine.coarse
    sides = coarse.element_edge_ids[group.elements]
    pos = _edge_positions(group, sides)
    ends = pos[:, [0, -1]]
    corner_ids = ends.ravel()[finefem.first_of_each(ends.ravel())[0]]
    # The hat row of the start and of the end of each side's chain.
    hat_row = np.searchsorted(corner_ids, ends)
    n_hat = len(corner_ids)
    table = np.zeros((n_hat + len(pos) * stride + 1,
                      group.template.n_vertices))
    t = _edge_parameters(n_sub)
    for j, loc in enumerate(pos):
        table[hat_row[j, 0], loc] = 1.0 - t
        table[hat_row[j, 1], loc] = t
        for k in range(2, stride + 2):
            table[n_hat + j * stride + k - 2, loc] = _eta_trace(n_sub, k)
    # The table row of each code of each member, the zero row last; a
    # corner is the start or the end of one of the member's sides.
    ends = coarse.edge_ends[sides].reshape(len(sides), 1, -1)
    at_corner = coarse.element_vertices[group.elements][..., None] == ends
    row = np.concatenate([
        hat_row.ravel()[np.argmax(at_corner, axis=-1)],
        np.broadcast_to(n_hat + np.arange(len(pos) * stride + 1),
                        (len(sides), len(pos) * stride + 1))], axis=1)
    return table, np.take_along_axis(row, codes, axis=1)


def _load_weights(sub: finefem.PatchGroup, M: np.ndarray, bases: dict,
                  n_b: int, offsets: np.ndarray) -> np.ndarray:
    """The bubble loads of the members of sub by the centroid rule, as the
    share area * P_i / 3 of each triangle, (nt, n_b, elements): the bulk
    polynomials P_1..P_dim of each member's bulk degree M (the basis
    bases[M], none for 0; zero rows after).  The polynomials are evaluated
    once for all members of one degree, at reference points stacked from
    the affine maps of sub.fine.coarse, member e's with the offset
    offsets[e]."""
    coarse = sub.fine.coarse
    area, centroids = sub.cells()
    out = np.zeros((centroids.shape[1], n_b, len(centroids)))
    for m in sorted(set(M[M > 0].tolist())):
        es = np.flatnonzero(M == m)
        basis = bases[m]
        ref = np.matmul(centroids[es] - offsets[es][:, None],
                        coarse.Binv[sub.elements[es]].transpose(0, 2, 1))
        P = basis.eval_ref(ref.reshape(-1, 2)).reshape(len(es), -1,
                                                       basis.dim)
        out[:, :basis.dim, es] = (area * P / 3.0).transpose(1, 2, 0)
    return out


def _bubble_loads(group: finefem.PatchGroup, M: np.ndarray, bases: dict,
                  n_b: int, slots: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """(class, loads): the bubble loads of the members of group, formed on
    the template once per class of members with equal bulk degree, equal
    Binv and equal offset of the affine map from the window origin (each a
    translate of the others, its map the translate of theirs): loads[c,
    i] holds the load of P_i of class c at the box positions slots,
    (classes, n_b, slots), the shares of _load_weights summed by
    finefem.box_loads, and class[e] the class of member e.  A member's
    loads are then those of the template placed at its origin, whatever
    other members are solved with it; they differ from the loads at the
    member's own centroids by rounding only."""
    E, fine = len(group.elements), group.fine
    coarse = fine.coarse
    local = coarse.offsets[group.elements] - fine.vertices[group.origins]
    keys = np.column_stack([M, coarse.Binv[group.elements].reshape(E, -1)
                            .view(np.int64), local.view(np.int64)])
    reps, cls = finefem.first_of_each(keys)
    t = group.template
    at_origin = finefem.PatchGroup(fine, t, group.elements[reps],
                                   np.zeros(len(reps), dtype=int))
    offsets = fine.vertices[0] + local[reps]
    loads = np.empty((len(reps), n_b, len(slots)))
    # Per class: the centroids, areas, reference points and polynomial
    # values of its triangles, and its box loads.
    for sl, sub in at_origin.chunks((3 * n_b + 16) * math.prod(t.grid)):
        lw = _load_weights(sub, M[reps[sl]], bases, n_b, offsets[sl])
        loads[sl] = finefem.box_loads(t, lw.T)[..., slots]
    return cls, loads


def _group_fields(A: finefem.Field, group: finefem.PatchGroup,
                  codes: np.ndarray, stride: int, M: np.ndarray,
                  bases: dict, f: finefem.Field | None = None
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray,
                             np.ndarray | None, np.ndarray | None]:
    """The requested fields on the patches of one group, each distinct
    one solved and stored once: their stack (rows, n); one Gram block
    a(X_i, X_j) per distinct window over its rows, the blocks stacked
    (windows * r, r); the stack row and the Gram row of each request of
    each member, (elements, codes + bubbles), -1 where it asks for none;
    and, given the load f, the distinct zero-trace solves with load f,
    (rows, n), and the row of each member there, else None twice.

    Member e asks for the trace of each of its codes codes[e] (see
    _trace_table; -1 for none), zero on the rest of the boundary, then for
    the zero-trace solve with load P_i for each P_i of its bulk basis
    bases[M[e]] (none for M[e] = 0).  Members whose coefficient windows are
    bitwise equal (PatchGroup.window_ids) share one system, and the
    requests of the members of one window share one row where their
    right-hand sides are equal: a trace by its table row, a bubble load by
    its class (_bubble_loads, formed once per class on the template), an f
    load by its window of f, told apart the same way and read from the
    whole lattice's load vector (finefem.load_vector) at the free vertices
    of the pair's first member, bitwise that member's own load, so the
    sweep forms no patch load of f.  The stack lists
    the windows by their counts of trace, load and f rows, then by window,
    each window's distinct rows traces first, by table row; a chunk of
    windows of equal counts is one block of it, solved in place by one
    block sweep over the template's lattice rows together with the same
    block of the f solves (kept out of the stack), so the sweep solves
    each distinct right-hand side once and no row is padding.  Each row
    comes out the same whatever other rows and windows are solved with it,
    so a member's fields are bitwise those of its patch solved alone.  The
    stencils the sweep eliminates then give each window's Gram block of
    its rows (finefem.patch_grams), so the coarse assembly forms no fine
    product.
    """
    t = group.template
    E, n = len(group.elements), t.n_vertices
    n_tr = codes.shape[1]
    dims = np.zeros(E, dtype=int)
    for m, basis in bases.items():
        dims[M == m] = basis.dim
    n_b = int(dims.max(initial=0))
    is_free = np.ones(n, dtype=bool)
    is_free[t.boundary_local] = False
    free = np.flatnonzero(is_free)
    slots = t.box[1][free]
    blocks = multigrid.RowBlocks(slots, t.grid, free)
    box = math.prod(t.grid)
    wid = group.window_ids(A, max(2 * box, blocks.size))
    rep, _ = finefem.first_of_each(wid)
    W = len(rep)
    table, tix = _trace_table(group, codes, stride)
    # The key of each request of each member: the table row of a trace,
    # then len(table) + class * n_b + i for load P_i of its bubble class.
    key = np.full((E, n_tr + n_b), -1)
    key[:, :n_tr] = np.where(codes >= 0, tix, -1)
    loads = np.zeros((0, n_b, len(free)))
    if n_b:
        cls, loads = _bubble_loads(group, M, bases, n_b, slots)
        key[:, n_tr:] = np.where(np.arange(n_b) < dims[:, None], len(table)
                                 + cls[:, None] * n_b + np.arange(n_b), -1)
    loads = loads.reshape(len(loads) * n_b, len(free))
    fw = np.zeros(0, dtype=int)
    if f is not None:
        # A member's f load is that of its (coefficient window, f window).
        fid = group.window_ids(f, 2 * box)
        f_first, f_inverse = finefem.first_of_each(wid * E + fid)
        fw = wid[f_first]
    # The distinct (window, key) pairs, window by window, and their counts
    # in each window: traces, loads, f loads.
    n_key = len(table) + len(loads)
    asked = key >= 0
    pair = (wid[:, None] * n_key + key)[asked]
    first, inverse = finefem.first_of_each(pair)
    pw, pk = np.divmod(pair[first], n_key)
    counts = np.array([np.bincount(pw[pk < len(table)], minlength=W),
                       np.bincount(pw[pk >= len(table)], minlength=W),
                       np.bincount(fw, minlength=W)])
    worder = np.lexsort((np.arange(W),) + tuple(counts[::-1]))
    rank = np.empty(W, dtype=int)
    rank[worder] = np.arange(W)
    n_rows = counts[0] + counts[1]
    r_max = int(n_rows.max(initial=0))

    def placed(w: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # (the first stack row of each window, the position of each row
        # there) for the distinct rows of windows w, window by window, in a
        # stack that lists the windows in worder with c rows each.
        start = np.empty(W, dtype=int)
        start[worder] = np.cumsum(c[worder]) - c[worder]
        return start, np.arange(len(w)) - (np.cumsum(c) - c)[w]

    start, local = placed(pw, n_rows)
    row = np.full(key.shape, -1)
    gram = np.full(key.shape, -1)
    row[asked] = (start[pw] + local)[inverse]
    gram[asked] = (rank[pw] * r_max + local)[inverse]
    X = np.zeros((len(pw), n))
    stack_key = np.empty(len(pw), dtype=int)
    stack_key[start[pw] + local] = pk
    G = np.zeros((W, r_max, r_max))
    L = f_row = None
    if f is not None:
        f_start, f_local = placed(fw, counts[2])
        at = f_start[fw] + f_local
        f_row = at[f_inverse]
        L = np.zeros((len(fw), n))
        # Per pair: the whole lattice's load at its first member's free
        # vertices, bitwise that member's own load there.
        b = finefem.load_vector(finefem.global_geometry(group.fine), f)
        f_rows = np.empty((len(fw), len(free)))
        f_rows[at] = b[t.vids[free] + group.origins[f_first, None]]
    windows = group.take(rep[worder])
    runs = np.flatnonzero((np.diff(counts[:, worder], axis=1, prepend=-1,
                                   append=-1) != 0).any(axis=0)).tolist()
    for u, v in zip(runs[:-1], runs[1:]):
        c_tr, c_ld, c_f = counts[:, worder[u]].tolist()
        r = c_tr + c_ld
        if not r + c_f:
            continue
        step = max((3 * (r + c_f) + 4 * r) * box, blocks.size)
        for ws, sub in windows.take(slice(u, v)).chunks(step):
            k, w0 = len(sub.elements), worder[u + ws.start]
            st = sub.stencil(A)
            # Solved in place: the free entries of each row become its
            # field, the trace rows keeping their boundary values.
            R = []
            if r:
                a = start[w0]
                V = X[a:a + k * r].reshape(k, r, n)
                keys = stack_key[a:a + k * r].reshape(k, r)
                if c_tr:
                    V[:, :c_tr] = table[keys[:, :c_tr]]
                    member = finefem.Stencil(st.grid, st.coef[:, None])
                    V[:, :c_tr, free] = np.negative(member.apply(
                        t.to_box(V[:, :c_tr]))[..., slots])
                V[:, c_tr:, free] = loads[keys[:, c_tr:] - len(table)]
                R.append(V)
            if c_f:
                a = f_start[w0]
                U = L[a:a + k * c_f].reshape(k, c_f, n)
                U[..., free] = f_rows[a:a + k * c_f].reshape(k, c_f, -1)
                R.append(U)
            blocks.eliminate(st, *R)
            if r:
                G[rank[w0]:rank[w0] + k, :r, :r] = finefem.patch_grams(
                    t, st, V)
    return X, G.reshape(W * r_max, r_max), row, gram, L, f_row


def _patch_fields(fine: FineMesh, A: finefem.Field, elements: np.ndarray,
                  codes: np.ndarray, dofs: np.ndarray, stride: int,
                  M: np.ndarray, bases: dict, f: finefem.Field | None = None
                  ) -> tuple[list[tuple[finefem.PatchGroup, Fields, Fields]],
                             np.ndarray | None]:
    """(group, interface fields, bubble fields) of each patch group of the
    given elements of fine.coarse, from one sweep of _group_fields, with
    the requests codes and M of every element of the mesh and dofs, the
    DOF of each of its requests, (elements, codes + largest bulk basis),
    its traces first, in ascending DOF order, then its bubbles, -1 where
    it asks for none;
    and, given the load f (every element must then be solved), the
    zero-trace solves with load f glued into one global field, else None.
    The codes of a group are cut to its members' longest list, so no group
    solves a row that none of them asks for."""
    groups = []
    n_tr = codes.shape[1]
    glued = None if f is None else np.zeros(fine.n_vertices)
    for group in finefem.patch_groups(fine, elements):
        E = group.elements
        n = int((codes[E] >= 0).sum(axis=1).max(initial=0))
        X, G, r, g, loads, at = _group_fields(A, group, codes[E, :n],
                                              stride, M[E], bases, f)
        d = dofs[E][:, np.r_[:n, n_tr:n_tr + r.shape[1] - n]]
        groups.append((group, *(Fields(d[:, p], X, r[:, p], g[:, p], G)
                                for p in (np.s_[:n], np.s_[n:]))))
        if loads is not None:
            # Every member's solve is zero on its boundary, so the shared
            # skeleton vertices get zero whichever member writes last.
            glued[group.template.vids + group.origins[:, None]] = loads[at]
    return groups, glued


def compute_all(fine: FineMesh, A: finefem.Field, degrees: DegreeAssignment,
                f: finefem.Field | None = None,
                support_of: tuple[int, int, int] | None = None) -> DofTable:
    """The DOF table of the enrichment of fine.coarse (see DofTable for its
    order), with the offline solves of its fields.

    Each distinct local problem of a patch shape is solved once
    (_group_fields), all of them in batches, one field stack of distinct
    fields per patch group solved.  support_of, a (kind, id, k) key,
    restricts the solves to the elements of that DOF: every DOF stays
    listed, but the groups hold only those elements (none if there is no
    such DOF).  Given the load f, every patch also solves the
    zero-trace problem with load f in the same sweep, and the table's
    reference glues those solves into one global fine field.
    """
    coarse = fine.coarse
    degrees.validate(coarse)
    ev, sides = coarse.element_vertices, coarse.element_edge_ids
    n_el = len(ev)
    verts, inner = coarse.interior_vertex_ids, coarse.interior_edge_ids
    n_eta = np.zeros(coarse.n_edges, dtype=int)
    n_eta[inner] = degrees.N[inner] - 1
    M = degrees.M
    bases = {m: polybasis.BulkPolyBasis(coarse.kind, m)
             for m in sorted(set(M[M > 0].tolist()))}
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
    # The DOF of each request of each element: first its trace codes (see
    # _trace_table), the hats of its interior corners and eta_k on its
    # sides, moved to the front in DOF order, then its bubbles.
    nodal_at = np.full(coarse.n_vertices, -1)
    nodal_at[verts] = np.arange(len(verts))
    stride = int(n_eta.max(initial=0))
    step = np.arange(stride)
    eta_at = len(verts) + np.cumsum(n_eta) - n_eta
    dof = np.concatenate([nodal_at[ev], np.where(
        step < n_eta[sides][..., None], eta_at[sides][..., None] + step,
        -1).reshape(n_el, -1)], axis=1)
    codes = np.argsort(np.where(dof < 0, len(kinds), dof), axis=1)
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
    groups, glued = _patch_fields(
        fine, A, np.flatnonzero(solve),
        np.where(dof >= 0, codes[:, :n_tr], -1), slots, stride, M, bases, f)
    return DofTable(kinds, keys, groups, glued)


def dump_points(table: DofTable, dof: int, fine: FineMesh) -> np.ndarray:
    """(x, y, value) rows over the support of DOF dof, one row per fine
    vertex, by vertex id."""
    values = np.zeros(fine.n_vertices)
    on = np.zeros(fine.n_vertices, dtype=bool)
    for group, *parts in table.groups:
        for part in parts:
            e, i = np.nonzero(part.dofs == dof)
            vids = group.template.vids + group.origins[e, None]
            values[vids] = part.stack[part.rows[e, i]]
            on[vids] = True
    ids = np.flatnonzero(on)
    return np.column_stack([fine.vertices[ids], values[ids]])
