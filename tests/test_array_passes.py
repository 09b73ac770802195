"""The array passes of the mesh set-up, the estimator and the reconstruction
against the element-by-element and edge-by-edge loops they replaced, kept
here as reference code, and counters that keep those loops from coming
back."""

import dataclasses
import json
import math

import numpy as np
import pytest

import conftest
from conftest import (bubble_coeffs, bubble_residual, edge_elements,
                      edge_vertex_chain, element_dofs, element_vertex_ids,
                      is_boundary_edge, skeleton_geometry, space_fields,
                      triangle_cells)
from legmsfem import (cli, errors, estimator, finefem, globalsolve, mesh,
                      polybasis)


# ---------------------------------------------------------------------------
# reference loops

def loop_elements(coarse):
    """Element fields and vertex ids as the per-element constructor built
    them."""
    nx, ny = coarse.nx, coarse.ny
    vid = lambda ix, iy: iy * (nx + 1) + ix
    cells = []
    for cy in range(ny):
        for cx in range(nx):
            sw, se = vid(cx, cy), vid(cx + 1, cy)
            ne, nw = vid(cx + 1, cy + 1), vid(cx, cy + 1)
            if coarse.kind == "quad":
                cells.append((sw, se, ne, nw))
            else:
                cells += [(sw, se, ne), (sw, ne, nw)]
    out = []
    for vids in cells:
        pts = coarse.vertices[list(vids)]
        p0 = pts[0]
        if len(vids) == 4:
            B = np.diag([pts[1, 0] - p0[0], pts[3, 1] - p0[1]])
        else:
            B = np.column_stack([pts[1] - p0, pts[2] - p0])
        det = B[0, 0] * B[1, 1] - B[0, 1] * B[1, 0]
        Binv = np.array([[B[1, 1], -B[0, 1]], [-B[1, 0], B[0, 0]]]) / det
        diam = max(np.linalg.norm(a - b)
                   for i, a in enumerate(pts) for b in pts[i + 1:])
        out.append((vids, B, Binv, p0, diam))
    return out


def loop_edges(coarse):
    """(edges as (v0, v1, element_ids, length), element_edges,
    vertex_edges, vertex_elements) from the dict-based edge builder."""
    adjacency, sides = {}, {}
    elements = coarse.element_vertices.tolist()
    for K, v in enumerate(elements):
        loc = []
        for i in range(len(v)):
            a, b = v[i], v[(i + 1) % len(v)]
            key = (min(a, b), max(a, b))
            adjacency.setdefault(key, []).append(K)
            loc.append(key)
        sides[K] = loc
    edges, ids = [], {}
    for key in sorted(adjacency):
        v0, v1 = key
        ids[key] = len(edges)
        edges.append((v0, v1, tuple(sorted(adjacency[key])),
                      float(np.linalg.norm(coarse.vertices[v1]
                                           - coarse.vertices[v0]))))
    element_edges = [tuple(ids[k] for k in sides[K])
                     for K in range(len(elements))]
    vertex_edges, vertex_elements = {}, {}
    for i, (v0, v1, _, _) in enumerate(edges):
        vertex_edges.setdefault(v0, []).append(i)
        vertex_edges.setdefault(v1, []).append(i)
    for K, vids in enumerate(elements):
        for v in vids:
            vertex_elements.setdefault(v, []).append(K)
    return edges, element_edges, vertex_edges, vertex_elements


def loop_segment_triangles(fine, edge_id):
    """edge_segment_triangles of one edge, as the per-edge method did it."""
    v0, v1 = fine.coarse.edge_ends[edge_id]
    chain = edge_vertex_chain(fine, edge_id)[:-1]
    ix, iy = chain % (fine.nfx + 1), chain // (fine.nfx + 1)
    cell = iy * fine.nfx + ix
    if v1 - v0 == 1:
        first, second = 2 * (cell - fine.nfx) + 1, 2 * cell
    elif v1 - v0 == fine.coarse.nx + 1:
        first, second = 2 * (cell - 1), 2 * cell + 1
    else:
        first, second = 2 * cell, 2 * cell + 1
    return np.column_stack([first, second])


def loop_p_e(coarse, edge_id, degrees):
    p = None
    for K in edge_elements(coarse, edge_id):
        for g in coarse.element_edge_ids[K]:
            if not is_boundary_edge(coarse, g):
                n = degrees.N[int(g)]
                p = n if p is None else min(p, n)
    return int(p)


def loop_f_norms(fine, K, f, ell):
    w, pts = triangle_cells(finefem.element_geometry(fine, K))
    fv = f.at(pts)
    l2sq = float(w @ fv**2)
    if ell == 0:
        return math.sqrt(l2sq), math.sqrt(l2sq)
    gx, gy = f.grad(pts[:, 0], pts[:, 1])
    h1sq = l2sq + float(w @ (np.asarray(gx)**2 + np.asarray(gy)**2))
    return math.sqrt(l2sq), math.sqrt(h1sq)


def loop_estimate(u_H, eta, ell):
    """global_estimate element by element and edge by edge; the jump norms
    are checked against jump_norm elsewhere and taken edge by edge here."""
    space = u_H.space
    coarse, fine, f, degrees = space.coarse, space.fine, space.f, space.degrees
    ell_of = (lambda K: ell.get(K, 0)) if isinstance(ell, dict) \
        else (lambda K: int(ell or 0))
    p_table = {int(e): loop_p_e(coarse, int(e), degrees)
               for e in coarse.interior_edge_ids}
    u_G = finefem.FineFunction(finefem.global_geometry(fine),
                               loop_reconstruct(u_H, "interface"))
    residuals, bubble_terms, element_terms = {}, {}, {}
    for K, diameter in enumerate(coarse.diameters.tolist()):
        M, lK = degrees.M[K], ell_of(K)
        f_l2, f_sob = loop_f_norms(fine, K, f, lK if M >= 1 else 0)
        if M >= 1:
            basis = polybasis.BulkPolyBasis(coarse.kind, M)
            resid = bubble_residual(fine, K, f, bubble_coeffs(u_H, K),
                                    basis)
            ratio = diameter ** min(lK, M + 1) / M ** lK
            bubble_terms[K] = diameter**2 * ratio * resid * f_sob
        else:
            resid = f_l2
            bubble_terms[K] = diameter**2 * f_l2**2
        residuals[K] = resid
        s = 0.0
        for g in coarse.element_edge_ids[K]:
            if int(g) in p_table:
                s += (coarse.edge_lengths[g] * diameter
                      / (degrees.N[int(g)] ** (1.0 - 2.0 * eta)
                         * p_table[int(g)]))
        element_terms[K] = f_l2**2 * s
    jump_norms = {e: estimator.jump_norm(fine, e, u_G, space.A)
                  for e in p_table}
    jump_terms = {e: coarse.edge_lengths[e] / p_table[e] * J**2
                  for e, J in jump_norms.items()}
    S = [sum(d[k] for k in sorted(d))
         for d in (bubble_terms, element_terms, jump_terms)]
    return (math.sqrt(sum(S)),
            math.sqrt(S[1] + S[2]) if space.n_bubble == 0 else None,
            dict(element_residuals=residuals, bubble_terms=bubble_terms,
                 element_terms=element_terms, jump_norms=jump_norms,
                 jump_terms=jump_terms, p_table=p_table))


def loop_reconstruct(solution, which):
    """reconstruct element by element, DOF by DOF."""
    if which == "total":
        return (loop_reconstruct(solution, "bubble")
                + loop_reconstruct(solution, "interface"))
    space = solution.space
    values = np.zeros(space.fine.n_vertices)
    for K in range(space.coarse.n_elements):
        vids = element_vertex_ids(space.fine, K)
        acc = np.zeros(len(vids))
        for p in element_dofs(space)[K]:
            if (p < space.n_interface) == (which == "interface"):
                acc += solution.coeffs[p] * space_fields(space, p)[K]
        values[vids] = acc
    return values


def loop_localize(report, coarse):
    shares = np.zeros(coarse.n_edges)
    leftover = {}
    for K in range(coarse.n_elements):
        interior = [int(g) for g in coarse.element_edge_ids[K]
                    if not is_boundary_edge(coarse, g)]
        if not interior:
            if report.element_terms[K]:
                leftover[K] = report.element_terms[K]
            continue
        for g in interior:
            shares[g] += report.element_terms[K] / len(interior)
    return ({e: float(np.sqrt(report.jump_terms[e] + shares[e]))
             for e in coarse.interior_edge_ids.tolist()}, leftover)


def gram_blocks(V, tris, grads, AW, W=None):
    """Gram blocks a(V_i, W_j) of a stack of patches on one local
    triangulation from the P1 gradients of every field on every triangle:
    the quadrature finefem.patch_grams and energy_inner_matrix replaced,
    kept as reference.

    V (E, b, n) and W (E, c, n) are nodal values on the local vertices of
    tris (nt, 3); grads (E, nt, 3, 2) are the P1 gradients and AW
    (E, nt, 2, 2) the area-weighted coefficient of each patch.  Returns
    (E, b, c), exactly symmetric when W is None.
    """
    gT = np.ascontiguousarray(np.moveaxis(grads, 1, -1))  # (E, 3, 2, nt)
    AT = np.ascontiguousarray(np.moveaxis(AW, 1, -1))     # (E, 2, 2, nt)

    def gradients(X):  # (E, rows, 2, nt), one vertex slot at a time
        g = X[:, :, None, tris[:, 0]] * gT[:, None, 0]
        for k in (1, 2):
            g += X[:, :, None, tris[:, k]] * gT[:, None, k]
        return g

    gV = gradients(V)
    gW = gV if W is None else gradients(W)
    AgW = gW[:, :, None, 0] * AT[:, None, :, 0]
    AgW += gW[:, :, None, 1] * AT[:, None, :, 1]
    E, b, c = len(gV), gV.shape[1], gW.shape[1]
    M = np.matmul(gV.reshape(E, b, -1),
                  AgW.reshape(E, c, -1).transpose(0, 2, 1))
    if W is None:
        M = 0.5 * (M + M.transpose(0, 2, 1))
    return M


def loop_interface_error_map(u_H, u_ref, u_B_ref):
    """interface_error_map with the element energies and the per-edge
    shares counted element by element."""
    space = u_H.space
    coarse = space.coarse
    ref_G = u_ref.values - u_B_ref.values
    d_G = ref_G - loop_reconstruct(u_H, "interface")
    energies = np.zeros((coarse.n_elements, 2))
    for K in range(coarse.n_elements):
        geom = finefem.element_geometry(space.fine, K)
        st = finefem.Stencil.of(geom, geom.area_weighted(space.A))
        G = finefem.patch_grams(geom, finefem.Stencil(st.grid, st.coef[None]),
                                np.stack([d_G[geom.vids],
                                          ref_G[geom.vids]])[None])[0]
        energies[K] = np.diag(G)
    err2, denom2 = energies[:, 0], float(energies[:, 1].sum())
    edge_map = {}
    for eid in coarse.interior_edge_ids:
        acc = 0.0
        for K in edge_elements(coarse, eid):
            n_int = sum(1 for g in coarse.element_edge_ids[K]
                        if not is_boundary_edge(coarse, g))
            acc += err2[K] / n_int
        edge_map[int(eid)] = float(np.sqrt(acc / denom2))
    return edge_map, float(np.sqrt(err2.sum()))


def bitwise(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# mesh set-up

MESHES = [(kind, nx, ny) for kind in ("quad", "triangle")
          for nx, ny in ((1, 1), (3, 2), (5, 4))]


@pytest.mark.parametrize("kind,nx,ny", MESHES)
@pytest.mark.parametrize("domain", [(0.0, 1.0, 0.0, 1.0),
                                    (-0.3, 2.1, 0.7, 1.9)])
def test_coarse_mesh_matches_loops(kind, nx, ny, domain):
    coarse = mesh.build_coarse(kind, nx, ny, domain)
    ref = loop_elements(coarse)
    assert coarse.n_elements == len(ref)
    assert np.issubdtype(coarse.element_vertices.dtype, np.integer)
    for K, (vids, B, Binv, p0, diam) in enumerate(ref):
        assert tuple(coarse.element_vertices[K].tolist()) == vids
        assert bitwise(coarse.B[K], B) and bitwise(coarse.Binv[K], Binv)
        assert bitwise(coarse.offsets[K], p0)
        assert bitwise(coarse.diameters[K], diam)
    edges, element_edges, vertex_edges, vertex_elements = loop_edges(coarse)
    assert coarse.n_edges == len(edges)
    assert [(v0, v1, edge_elements(coarse, i)) for i, (v0, v1) in
            enumerate(coarse.edge_ends.tolist())] == [
        (v0, v1, els) for v0, v1, els, _ in edges]
    assert all(bitwise(coarse.edge_lengths[i], r[3])
               for i, r in enumerate(edges))
    assert bitwise(coarse.edge_ends,
                   np.array([(v0, v1) for v0, v1, _, _ in edges]))
    assert bitwise(coarse.interior_edge_ids, np.array(
        [i for i, r in enumerate(edges) if len(r[2]) == 2], dtype=int))
    # the incidences of each vertex, from the tables
    assert sorted(vertex_edges) == sorted(vertex_elements) == list(
        range(coarse.n_vertices))
    assert all(vertex_edges[v] == conftest.vertex_edges(coarse, v)
               and vertex_elements[v] == conftest.vertex_elements(coarse, v)
               for v in vertex_edges)
    # the two plain tables
    assert coarse.element_edge_ids.tolist() == [list(t) for t in element_edges]
    assert coarse.edge_element_ids.tolist() == [
        list(r[2]) + [-1] * (2 - len(r[2])) for r in edges]


def loop_patch_groups(fine, elem_ids) -> list:
    """(shape, members) of patch_groups, one patch_shape call per element,
    as the grouping ran before it took the shapes of all elements at
    once."""
    shapes: dict[int, list[int]] = {}
    for K in elem_ids:
        shapes.setdefault(int(fine.patch_shape(int(K))), []).append(int(K))
    return list(shapes.items())


@pytest.mark.parametrize("kind", ["quad", "triangle"])
def test_patch_groups_match_loop(kind, monkeypatch, rng):
    # shapes in order of first appearance, members in input order, with
    # one patch_shape call for the elements however many they are (and one
    # per template the first time it is built)
    fine = mesh.refine_to_fine(mesh.build_coarse(kind, 6, 5), 4)
    n_el = fine.coarse.n_elements
    calls = []
    real = mesh.FineMesh.patch_shape

    def counted(self, elem_ids):
        calls.append(elem_ids)
        return real(self, elem_ids)

    for ids in (range(n_el), rng.permutation(n_el)[:17], [9, 4, 8], [3],
                []):
        want = loop_patch_groups(fine, ids)
        calls.clear()
        monkeypatch.setattr(mesh.FineMesh, "patch_shape", counted)
        groups = finefem.patch_groups(fine, ids)
        monkeypatch.undo()
        assert sum(np.ndim(c) > 0 for c in calls) == 1
        assert len(calls) <= 1 + len(groups)
        assert [(int(g.template.label.split()[1]), g.elements.tolist())
                for g in groups] == want
        for g in groups:
            assert np.array_equal(g.origins, fine.element_origin(g.elements))


@pytest.mark.parametrize("kind", ["quad", "triangle"])
def test_batched_regularity_matches_loop(kind):
    coarse = mesh.build_coarse(kind, 5, 4, (0.0, 3.0, 0.0, 1.0))
    gamma = 0.0
    for B, diameter in zip(coarse.B, coarse.diameters.tolist()):
        s = np.linalg.svd(B, compute_uv=False)
        gamma = max(gamma, s[0] * mesh.REF_DIAMETER / diameter,
                    (1.0 / s[-1]) * diameter / mesh.REF_DIAMETER)
    assert mesh.check_regularity(coarse) == gamma


@pytest.mark.parametrize("kind", ["quad", "triangle"])
def test_array_segment_triangles_match_per_edge(kind):
    coarse = mesh.build_coarse(kind, 4, 3)
    fine = mesh.refine_to_fine(coarse, 4)
    ids = coarse.interior_edge_ids
    steps = set((coarse.edge_ends[ids, 1] - coarse.edge_ends[ids, 0]).tolist())
    # horizontal, vertical and (triangles) diagonal edges all present
    assert steps == ({1, 5} if kind == "quad" else {1, 5, 6})
    stacked = np.stack([loop_segment_triangles(fine, e) for e in ids])
    assert bitwise(fine.edge_segment_triangles(ids), stacked)
    grid = ids[:6].reshape(2, 3)
    assert bitwise(fine.edge_segment_triangles(grid), stacked[:6].reshape(
        2, 3, fine.n_sub, 2))
    for e in ids[:5]:
        assert bitwise(fine.edge_segment_triangles(int(e)),
                       loop_segment_triangles(fine, int(e)))
    assert fine.edge_segment_triangles(ids[:0]).shape == (0, fine.n_sub, 2)
    bnd = int(np.argmax(coarse.edge_element_ids[:, 1] < 0))
    with pytest.raises(ValueError, match=f"edge {bnd} is a boundary"):
        fine.edge_segment_triangles(np.append(ids[:3], bnd))


# ---------------------------------------------------------------------------
# stencil entries

def scattered_stencil(geom, AW):
    """Stencil.of from the full element matrices of the gradient patterns
    of each triangle and AW (tensors), scattered, with the SW-NE couplings
    a 7-point stencil would hold last."""
    (rows, cols), slots = geom.box
    n = rows * cols
    s = slots[conftest.local_triangles(geom)]
    lower = (s[:, 1] == s[:, 0] + 1) & (s[:, 2] == s[:, 0] + cols + 1)
    Ke = conftest.stiffness(conftest.pattern_gradients(geom), AW)
    k01, k02, k12 = Ke[:, 0, 1], Ke[:, 0, 2], Ke[:, 1, 2]
    return [np.bincount(s.ravel(), Ke.reshape(-1, 9)[:, ::4].ravel(), n),
            np.bincount(np.where(lower, s[:, 0], s[:, 2]),
                        np.where(lower, k01, k12), n),
            np.bincount(np.where(lower, s[:, 1], s[:, 0]),
                        np.where(lower, k12, k02), n),
            np.bincount(s[:, 0], np.where(lower, k02, k01), n)]


def test_stencil_matches_scattered_element_matrices():
    coarse = mesh.build_coarse("triangle", 3, 2)
    fine = mesh.refine_to_fine(coarse, 6)
    A = finefem.periodic_benchmark(0.125)
    geoms = [finefem.global_geometry(fine), skeleton_geometry(fine),
             finefem.element_geometry(fine, 2),   # lower triangle patch
             finefem.element_geometry(fine, 3)]   # upper triangle patch
    for geom in geoms:
        AW = geom.area_weighted(A)
        st = finefem.Stencil.of(geom, AW)
        *want, sw_ne = scattered_stencil(geom, conftest.tensor(AW))
        assert all(bitwise(a, b)
                   for a, b in zip([st.centre, st.east, st.north], want))
        assert not sw_ne.any()


def rel_close(got, want, scale=None):
    scale = np.abs(want).max() if scale is None else scale
    return got.shape == want.shape and \
        np.abs(got - want).max() <= 1e-13 * scale


@pytest.mark.parametrize("kind", ["quad", "triangle"])
@pytest.mark.parametrize("coefficient", ["periodic", "anisotropic"])
def test_stencil_products_match_gram_blocks(kind, coefficient, rng):
    # every energy product u^T K v on the stencil against the triangle
    # gradients of gram_blocks: the patch Gram blocks of fields that are
    # nonzero on the patch boundary, of one stack and, as the off-diagonal
    # block of the pair stacked into one, of two stacks against each other,
    # and the global energy_inner_matrix
    coarse = mesh.build_coarse(kind, 3, 2)
    fine = mesh.refine_to_fine(coarse, 6)
    A = (finefem.periodic_benchmark(0.25) if coefficient == "periodic"
         else conftest.contrast_field())
    for g in finefem.patch_groups(fine, range(coarse.n_elements)):
        t = g.template
        grads, AW = conftest.group_weights(g, A)
        tris = conftest.local_triangles(t)
        st = g.stencil(A)
        # gram_blocks takes every entry of the element matrices, but those
        # of the SW-NE diagonals are zero, as the 5-point stencil has it
        assert not conftest.sw_ne_couplings(
            t, conftest.stiffness(grads, AW)).any()
        V = rng.standard_normal((len(g.elements), 5, t.n_vertices))
        W = rng.standard_normal((len(g.elements), 3, t.n_vertices))
        got = finefem.patch_grams(t, st, V)
        assert np.array_equal(got, got.transpose(0, 2, 1))
        assert rel_close(got, gram_blocks(V, tris, grads, AW))
        stacked = finefem.patch_grams(t, st, np.concatenate([V, W], axis=1))
        assert rel_close(stacked[:, :5, 5:],
                         gram_blocks(V, tris, grads, AW, W))
    geom = finefem.global_geometry(fine)
    V = rng.standard_normal((4, geom.n_vertices))
    W = rng.standard_normal((2, geom.n_vertices))
    ref = (conftest.local_triangles(geom),
           conftest.triangle_gradients(geom)[None],
           conftest.tensor(geom.area_weighted(A))[None])
    got = conftest.energy_gram(V, geom, A)
    assert np.array_equal(got, got.T)
    assert np.array_equal(np.diagonal(got),
                          finefem.energy_inner_matrix(V, geom, A))
    assert rel_close(got, gram_blocks(V[None], *ref)[0])
    assert rel_close(conftest.energy_products(V, geom, A, W),
                     gram_blocks(V[None], *ref, W[None])[0])


@pytest.mark.parametrize("kind", ["quad", "triangle"])
def test_space_grams_match_gram_blocks(kind):
    # the Gram blocks of the offline sweep, gathered for each part of each
    # patch shape with zero padding (one edge of degree 4 gives the
    # elements of a shape different interface counts, element 0 has no
    # bubbles), against gram_blocks of the gathered fields; the cross
    # block vanishes, so it is measured against the parts' scale
    coarse = mesh.build_coarse(kind, 3, 3)
    fine = mesh.refine_to_fine(coarse, 6)
    A = conftest.contrast_field()
    degrees = mesh.DegreeAssignment.uniform(coarse, 3, 1)
    degrees.N[int(coarse.interior_edge_ids[0])] = 4
    degrees.M[0] = 0
    space = globalsolve.build_space(fine, A, degrees,
                                    finefem.constant_rhs(-1.0))
    padded = []
    for group, iface, bub in space.dofs.groups:
        tris = conftest.local_triangles(group.template)
        grads, AW = conftest.group_weights(group, A)
        want = [gram_blocks(p.gather(), tris, grads, AW) for p in (iface, bub)]
        for part, G in zip((iface, bub), want):
            padded.append((part.dofs < 0).any())
            assert rel_close(part.gram(), G)
        assert rel_close(bub.gram(iface),
                         gram_blocks(bub.gather(), tris, grads, AW,
                                     iface.gather()),
                         max(np.abs(G).max() for G in want))
    assert sum(padded) >= 2


def loop_degree_compat(coarse, degrees, gamma):
    root = math.sqrt(gamma)
    interior = set(int(e) for e in coarse.interior_edge_ids)
    violations = []
    for v in range(coarse.n_vertices):
        eids = [e for e in conftest.vertex_edges(coarse, v) if e in interior]
        for i, e in enumerate(eids):
            for ep in eids[i + 1:]:
                ne, nep = degrees.N[e], degrees.N[ep]
                if ne > root * nep + 1e-12 or nep > root * ne + 1e-12:
                    pair = (min(e, ep), max(e, ep))
                    if pair not in violations:
                        violations.append(pair)
    return sorted(violations)


@pytest.mark.parametrize("kind,nx,ny", MESHES)
def test_degree_compat_matches_loop(kind, nx, ny, rng):
    coarse = mesh.build_coarse(kind, nx, ny)
    degrees = mesh.DegreeAssignment.uniform(coarse, 1, 0)
    for e in coarse.interior_edge_ids.tolist():
        degrees.N[e] = int(rng.integers(1, 5))
    for gamma in (1.0, 2.0, 5.0):
        got = mesh.check_degree_compat(coarse, degrees, gamma)
        assert got == loop_degree_compat(coarse, degrees, gamma)
        assert all(type(a) is int and type(b) is int for a, b in got)


# ---------------------------------------------------------------------------
# estimator, localization, reconstruction

def solved(kind, nx, ny, n_sub, N, M, f=None, A=None, eps=0.25):
    """A solved problem; N and M are ints or callables of the edge or
    element id."""
    coarse = mesh.build_coarse(kind, nx, ny)
    fine = mesh.refine_to_fine(coarse, n_sub)
    A = A or finefem.periodic_benchmark(eps)
    f = f or finefem.gaussian_rhs()
    deg = mesh.DegreeAssignment(
        np.array([N(e) if callable(N) else N
                  for e in range(coarse.n_edges)]),
        np.array([M(K) if callable(M) else M
                  for K in range(coarse.n_elements)]))
    space = globalsolve.build_space(fine, A, deg, f)
    return globalsolve.solve_coarse(globalsolve.assemble_coarse(space, A, f))


def close(a, b, rel=1e-12):
    return abs(a - b) <= rel * max(abs(a), abs(b)) + 1e-300


ESTIMATES = {
    "quad mixed N, M, ell dict, eta": (
        ("quad", 3, 3, 8, lambda e: 2 + e % 2, lambda K: K % 3),
        dict(eta=0.3, ell={0: 1, 1: 1, 4: 1, 5: 0})),
    "triangle mixed N, M >= 1, uniform ell": (
        ("triangle", 3, 2, 8, lambda e: 1 + e % 3, 1), dict(eta=0.1, ell=1)),
    "triangle M = 0": (("triangle", 4, 3, 4, lambda e: 1 + e % 2, 0),
                       dict(eta=0.25, ell=None)),
    "one quad": (("quad", 1, 1, 8, 1, 0), dict(eta=0.0, ell=None)),
    "one quad with bubbles": (("quad", 1, 1, 8, 1, 1), dict(eta=0.2, ell=1)),
    "one cell of triangles": (("triangle", 1, 1, 8, 2, 0),
                              dict(eta=0.0, ell=0)),
}


@pytest.mark.parametrize("name", list(ESTIMATES))
def test_estimate_matches_loops(name):
    args, kw = ESTIMATES[name]
    sol = solved(*args)
    got = estimator.global_estimate(sol, kw["eta"], kw["ell"])
    value, value_gamma, dicts = loop_estimate(sol, kw["eta"], kw["ell"])
    assert close(got.value, value)
    assert (got.value_gamma is None) == (value_gamma is None)
    if value_gamma is not None:
        assert close(got.value_gamma, value_gamma)
    coarse = sol.space.coarse
    edges = coarse.interior_edge_ids.tolist()
    assert got.p_table[edges].tolist() == list(dicts["p_table"].values())
    for key, ref in dicts.items():
        mine = getattr(got, key)
        # per-edge arrays by edge id, zero on the boundary; per-element
        # arrays by element id
        on_edges = key in ("jump_norms", "jump_terms", "p_table")
        assert list(ref) == (edges if on_edges
                             else list(range(coarse.n_elements))), key
        assert len(mine) == (coarse.n_edges if on_edges
                             else coarse.n_elements), key
        assert all(close(mine[k], ref[k]) for k in ref), key
        assert not np.delete(mine, list(ref)).any(), key


@pytest.mark.parametrize("kind,n", [("quad", 7), ("triangle", 9)])
def test_estimate_over_several_chunks_matches_loops(kind, n, monkeypatch):
    # 49 or 81 members of a shape on patches of 16 x 16 cells: the
    # estimator's pass over each patch group takes them in more than one
    # chunk, with mixed bulk degrees and a load that varies, so each chunk
    # must evaluate the bulk basis at the reference centroids of its own
    # members
    sol = solved(kind, n, n, 16, 2, lambda K: 1 + K % 2)
    chunks = []
    real = finefem.PatchGroup.chunks

    def counted(self, doubles_per_element):
        parts = list(real(self, doubles_per_element))
        chunks.append(len(parts))
        return iter(parts)

    monkeypatch.setattr(finefem.PatchGroup, "chunks", counted)
    got = estimator.global_estimate(sol, 0.1, 1)
    monkeypatch.undo()
    assert max(chunks) >= 2
    value, _, dicts = loop_estimate(sol, 0.1, 1)
    assert close(got.value, value)
    for key in ("element_residuals", "bubble_terms", "element_terms"):
        ref = dicts[key]
        assert all(close(getattr(got, key)[K], ref[K]) for K in ref), key


def test_localize_matches_loop():
    sol = solved("triangle", 3, 3, 4, lambda e: 1 + e % 2, 0)
    rep = estimator.global_estimate(sol, eta=0.2)
    coarse = sol.space.coarse
    assert (estimator.localize(rep, coarse).tolist()
            == list(loop_localize(rep, coarse)[0].values()))
    assert not rep.leftover_element_terms.any()
    # an element term with no interior edge to take it is left over
    one = mesh.build_coarse("quad", 1, 1)
    fake = estimator.EstimatorReport(1.0, 1.0, 0.0, np.zeros(1), np.zeros(1),
                                     np.array([0.5]), np.zeros(4),
                                     np.zeros(4), np.zeros(4, dtype=int))
    assert estimator.localize(fake, one).tolist() == []
    assert fake.leftover_element_terms.tolist() == [0.5]
    assert loop_localize(fake, one)[1] == {0: 0.5}


def test_interface_error_map_matches_loop():
    cfg = cli.RunConfig.from_dict({
        "schema": 1, "kind": "triangle", "nx": 3, "ny": 2, "n_sub": 8,
        "coefficient": {"type": "periodic_benchmark", "eps": 0.5},
        "rhs": {"type": "gaussian_benchmark"},
        "N": {"default": 2, "overrides": {4: 1}}, "M": 0})
    res = cli.run_single(cfg)
    u_B_ref = res.solution.space.bubble_reference
    got = errors.interface_error_map(res.solution, res.u_ref)
    ref = loop_interface_error_map(res.solution, res.u_ref, u_B_ref)
    assert got[0].tolist() == list(ref[0].values())
    assert list(ref[0]) == res.problem.coarse.interior_edge_ids.tolist()
    assert got[1] == ref[1]


def test_errmap_bytes_repeat(tmp_path):
    cfg = tmp_path / "tri.json"
    cfg.write_text(json.dumps({
        "schema": 1, "kind": "triangle", "nx": 4, "ny": 3, "n_sub": 4,
        "coefficient": {"type": "identity"}, "N": 2, "M": 0}))
    outs = [tmp_path / f"map{i}.csv" for i in range(2)]
    for out in outs:
        assert cli.main(["errmap", "--config", str(cfg), "--out",
                         str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert len(outs[0].read_text().splitlines()) == 1 + 29


def with_copied_fields(space):
    """The same space with copies of the field stack and the Gram blocks
    of each patch group, one copy shared by the group's two parts."""
    groups = []
    for group, *parts in space.dofs.groups:
        stack, grams = parts[0].stack.copy(), parts[0].grams.copy()
        groups.append((group, *(dataclasses.replace(p, stack=stack,
                                                    grams=grams)
                                for p in parts)))
    dofs = dataclasses.replace(space.dofs, groups=groups)
    return globalsolve.EnrichedSpace(space.fine, space.A, space.degrees, dofs,
                                     space.f)


@pytest.mark.parametrize("kind", ["quad", "triangle"])
def test_reconstruct_matches_loop(kind):
    coarse = mesh.build_coarse(kind, 3, 2)
    fine = mesh.refine_to_fine(coarse, 8)
    A, f = finefem.periodic_benchmark(0.25), finefem.gaussian_rhs()
    degrees = mesh.DegreeAssignment(1 + np.arange(coarse.n_edges) % 3,
                                    np.arange(coarse.n_elements) % 3)
    space = globalsolve.build_space(fine, A, degrees, f)
    spaces = [space, with_copied_fields(space)]
    for space in spaces:
        systems = globalsolve.assemble_coarse(space, A, f)
        sol = globalsolve.solve_coarse(systems)
        for which in ("interface", "bubble", "total"):
            got = globalsolve.reconstruct(sol, which).values
            assert bitwise(got, loop_reconstruct(sol, which)), which
    # the copied fields assemble the same systems bitwise
    a, b = (globalsolve.assemble_coarse(s, A, f, with_cross=True)
            for s in spaces)
    assert bitwise(a.interface_K._blocks, b.interface_K._blocks)
    assert bitwise(a.interface_rhs, b.interface_rhs)
    assert bitwise(a.cross_gram, b.cross_gram)
    assert all(bitwise(x, y) for p, q in zip(a.bubble_blocks, b.bubble_blocks)
               for x, y in zip(p, q))


def test_fields_index_the_offline_stacks():
    sol = solved("triangle", 3, 2, 4, 2, 1)
    for group, iface, bub in sol.space.dofs.groups:
        # one stack and one store of Gram blocks per group, not a copy
        # per part, and every row of the stack is some member's field
        assert iface.stack is bub.stack and iface.grams is bub.grams
        rows = np.concatenate([p.rows[p.dofs >= 0] for p in (iface, bub)])
        assert np.array_equal(np.unique(rows), np.arange(len(iface.stack)))


# ---------------------------------------------------------------------------
# loop-regression guard

def test_no_per_element_or_per_edge_loops(monkeypatch):
    """On 24x24 triangles the estimator takes one segment lookup."""
    sol = solved("triangle", 24, 24, 2, 1, 0, f=finefem.constant_rhs(-1.0),
                 eps=1 / 12)
    calls = []
    real = mesh.FineMesh.edge_segment_triangles

    def counted(*args, **kw):
        calls.append(args)
        return real(*args, **kw)
    monkeypatch.setattr(mesh.FineMesh, "edge_segment_triangles", counted)
    estimator.global_estimate(sol)
    assert len(calls) <= 1
