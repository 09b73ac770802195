from dataclasses import dataclass, replace

import numpy as np
import pytest

from conftest import (check_against_dense, contrast_field,
                      dense_couplings, edge_elements, edge_vertex_chain,
                      element_boundary_vertex_ids, element_vertex_ids,
                      energy_products, group_weights, is_boundary_edge,
                      local_triangles,
                      member_triangle_ids, pattern_gradients, split,
                      stiffness, table_fields, table_pairs, to_ref,
                      trace_loads, triangle_cells, vertex_edges,
                      vertex_elements)
from legmsfem import finefem, localbasis, mesh, multigrid, polybasis
from legmsfem.localbasis import BUBBLE, EDGE, NODAL


@pytest.fixture(scope="module")
def A_osc():
    return finefem.periodic_benchmark(0.25)


# ---------------------------------------------------------------------------
# one basis function solved on its own, through the same patch sweep: the
# entry points the DOF table replaced, kept as reference

def first_field(coarse, fine, A, support, codes, stride=0, M=None,
                bases=None):
    """{element: field} of the one function requested on each support
    element, by _patch_fields: one trace code per element of the mesh
    (see localbasis._trace_table), or a single bulk load when M and bases
    are given."""
    n_el = coarse.n_elements
    M = np.zeros(n_el, dtype=int) if M is None else M
    asked = np.column_stack([codes >= 0] + ([M > 0] if bases else []))
    groups, _ = localbasis._patch_fields(
        fine, A, np.array(support), codes, np.where(asked, 0, -1), stride, M,
        bases or {})
    fields = {K: part.stack[part.rows[e, 0]]
              for group, *parts in groups for part in parts if part.dofs.size
              for e, K in enumerate(group.elements.tolist())}
    return {K: fields[K] for K in support}


def compute_nodal(vertex, coarse, fine, A):
    """The coefficient-adapted nodal function of an interior vertex: on
    each element touching it, the homogeneous solve with the hat trace on
    the boundary."""
    assert not coarse.boundary_vertex_mask[vertex]
    at = coarse.element_vertices == vertex
    return first_field(coarse, fine, A, np.flatnonzero(at.any(axis=1)),
                       np.where(at.any(axis=1), at.argmax(axis=1), -1)[:, None])


def compute_edge_enrichment(edge_id, k, coarse, fine, A):
    """eta_k on an interior edge: the homogeneous solves on the two elements
    sharing it, trace eta_k on the edge and zero elsewhere."""
    assert coarse.edge_element_ids[edge_id, 1] >= 0 and k >= 2
    corners = coarse.element_vertices.shape[1]
    at = coarse.element_edge_ids == edge_id
    codes = np.where(at.any(axis=1),
                     corners + at.argmax(axis=1) * (k - 1) + k - 2, -1)
    return first_field(coarse, fine, A,
                       coarse.edge_element_ids[edge_id].tolist(),
                       codes[:, None], k - 1)


@dataclass(frozen=True)
class OnePolynomial:
    """P_i of a bulk basis alone, as a basis of dimension one."""

    basis: polybasis.BulkPolyBasis
    i: int
    dim: int = 1

    def eval_ref(self, pts):
        return self.basis.eval_ref(pts)[:, [self.i - 1]]


def compute_bubble(elem_id, i, coarse, fine, A, basis):
    """Bubble i of one element: the zero-trace solve with the i-th bulk
    polynomial (mapped from reference coordinates) as right-hand side."""
    assert basis.M >= 1 and 1 <= i <= basis.dim
    n_el = coarse.n_elements
    M = np.zeros(n_el, dtype=int)
    M[elem_id] = 1
    return first_field(coarse, fine, A, [elem_id],
                       np.zeros((n_el, 0), dtype=int), 0, M,
                       {1: OnePolynomial(basis, i)})


def entry_point(kind, key, coarse, fine, A, basis):
    """The DOF of kind and key computed again on its own."""
    if kind == NODAL:
        return compute_nodal(key[0], coarse, fine, A)
    if kind == EDGE:
        return compute_edge_enrichment(*key, coarse, fine, A)
    return compute_bubble(*key, coarse, fine, A, basis)


def chain_values(fields, fine, elem_id, edge_id):
    geom = finefem.element_geometry(fine, elem_id)
    loc = np.searchsorted(geom.vids, edge_vertex_chain(fine, edge_id))
    return fields[elem_id][loc]


def test_nodal_trace_is_exact_hat(quad44, fine_quad44, A_osc):
    v = int(quad44.interior_vertex_ids[0])
    fields = compute_nodal(v, quad44, fine_quad44, A_osc)
    assert list(fields) == sorted(vertex_elements(quad44, v))
    t = np.arange(9) / 8
    for K in fields:
        for eid in quad44.element_edge_ids[K]:
            v0, v1 = quad44.edge_ends[eid]
            h0 = 1.0 if v0 == v else 0.0
            h1 = 1.0 if v1 == v else 0.0
            got = chain_values(fields, fine_quad44, K, eid)
            assert np.array_equal(got, h0 * (1 - t) + h1 * t)


def test_edge_trace_is_exact_eta(quad44, fine_quad44, A_osc):
    eid = int(quad44.interior_edge_ids[2])
    fields = compute_edge_enrichment(eid, 3, quad44, fine_quad44, A_osc)
    t = np.arange(9) / 8
    eta = polybasis.internal_basis_eval(3, -1.0 + 2.0 * t)
    for K in fields:
        assert np.array_equal(chain_values(fields, fine_quad44, K, eid), eta)
        for other in quad44.element_edge_ids[K]:
            if other != eid:
                assert not chain_values(fields, fine_quad44, K, other).any()


def test_shared_edge_bitwise_agreement(quad44, fine_quad44, A_osc):
    # both support patches must impose identical data, so the glued function
    # is single-valued without any tolerance
    eid = int(quad44.interior_edge_ids[5])
    K0, K1 = edge_elements(quad44, eid)
    for k in (2, 4):
        fields = compute_edge_enrichment(eid, k, quad44, fine_quad44, A_osc)
        a = chain_values(fields, fine_quad44, K0, eid)
        b = chain_values(fields, fine_quad44, K1, eid)
        assert np.array_equal(a, b)


def test_nodal_shared_edge_agreement(quad44, fine_quad44, A_osc):
    v = int(quad44.interior_vertex_ids[4])
    fields = compute_nodal(v, quad44, fine_quad44, A_osc)
    for eid in vertex_edges(quad44, v):
        elements = edge_elements(quad44, eid)
        if is_boundary_edge(quad44, eid) or not set(elements) <= set(fields):
            continue
        a = chain_values(fields, fine_quad44, elements[0], eid)
        b = chain_values(fields, fine_quad44, elements[1], eid)
        assert np.array_equal(a, b)


def test_discrete_harmonicity(quad44, fine_quad44, A_osc):
    # interface functions solve the homogeneous interior problem: the free
    # rows of the patch stiffness annihilate them up to rounding
    v = int(quad44.interior_vertex_ids[0])
    fields = compute_nodal(v, quad44, fine_quad44, A_osc)
    K, u = next(iter(fields.items()))
    geom = finefem.element_geometry(fine_quad44, K)
    # K_ff u_f minus the lifted right-hand side -K_fc u_c of its own
    # boundary values: the free rows of the full stiffness times u
    system = finefem.assemble(geom, A_osc)
    r = geom.stencil(A_osc).apply(geom.to_box(u))[system.K.mask]
    scale = np.abs(system.K.diagonal()).max() * np.abs(u).max()
    assert np.abs(r).max() < 1e-10 * scale


def test_bubble_galerkin_identity(quad44, fine_quad44, A_osc, rng):
    # a_K(phi_B, w) = (P_i, w)_K for every w vanishing on the patch boundary
    elem_id, i, M = 6, 3, 1
    basis = polybasis.BulkPolyBasis("quad", M)
    u = compute_bubble(elem_id, i, quad44, fine_quad44, A_osc,
                       basis)[elem_id]
    geom = finefem.element_geometry(fine_quad44, elem_id)
    w = np.zeros(geom.n_vertices)
    mask = np.ones(geom.n_vertices, dtype=bool)
    mask[geom.boundary_local] = False
    w[mask] = rng.standard_normal(mask.sum())
    lhs = energy_products(u, geom, A_osc, w)[0, 0]

    def P_i(x, y):
        pts = np.column_stack([np.ravel(x), np.ravel(y)])
        return basis.eval_ref(to_ref(quad44, elem_id, pts))[:, i - 1]

    rhs = finefem.load_vector(geom, finefem.Field("P_i", P_i)) @ w
    assert abs(lhs - rhs) < 1e-9 * max(abs(lhs), abs(rhs))


def test_bubble_zero_trace(quad44, fine_quad44, A_osc):
    basis = polybasis.BulkPolyBasis("quad", 1)
    u = compute_bubble(2, 1, quad44, fine_quad44, A_osc, basis)[2]
    geom = finefem.element_geometry(fine_quad44, 2)
    assert not u[geom.boundary_local].any()
    assert u.any()


def test_compute_all_order_and_counts(quad44, fine_quad44, A_osc):
    degrees = mesh.DegreeAssignment.uniform(quad44, 2, 1)
    table = localbasis.compute_all(fine_quad44, A_osc, degrees)
    assert len(table) == 9 + 24 + 16 * 4
    assert table.kind.tolist() == [NODAL] * 9 + [EDGE] * 24 + [BUBBLE] * 64
    assert table.key[:9].tolist() == \
        [[int(v), 0] for v in quad44.interior_vertex_ids]
    assert table.key[9:33].tolist() == \
        [[int(e), 2] for e in quad44.interior_edge_ids]
    assert table.key[33:41].tolist() == \
        [[0, 1], [0, 2], [0, 3], [0, 4], [1, 1], [1, 2], [1, 3], [1, 4]]
    # every DOF on each of its support elements, once
    pairs = [(d, K) for K, d, _ in table_pairs(table)]
    assert len(set(pairs)) == len(pairs) == 9 * 4 + 24 * 2 + 64
    for d, K in pairs:
        kind, (i, _) = table.kind[d], table.key[d]
        if kind == NODAL:
            assert K in vertex_elements(quad44, i)
        elif kind == EDGE:
            assert K in edge_elements(quad44, i)
        else:
            assert K == i
    assert table.find(EDGE, int(quad44.interior_edge_ids[3]), 2) == 12
    assert table.find(EDGE, int(quad44.interior_edge_ids[3]), 3) == -1


def test_compute_all_which_split(quad44, fine_quad44, A_osc):
    # the interface only from degrees without bubbles; with bubbles, the
    # same interface DOFs first and the bubbles after
    degrees = mesh.DegreeAssignment.uniform(quad44, 2, 1)
    iface = localbasis.compute_all(fine_quad44, A_osc,
                                   mesh.DegreeAssignment.uniform(quad44, 2, 0))
    full = localbasis.compute_all(fine_quad44, A_osc, degrees)
    n = len(iface)
    assert (iface.kind != BUBBLE).all()
    assert np.array_equal(full.kind[:n], iface.kind)
    assert np.array_equal(full.key[:n], iface.key)
    assert (full.kind[n:] == BUBBLE).all()
    assert len(full) == 9 + 24 + 64


def reference_trace(coarse, fine, elem_id, kind, key):
    """Dirichlet data of an interface function on one element boundary,
    built edge by edge and aligned with the patch's boundary_local."""
    t = np.arange(fine.n_sub + 1) / fine.n_sub
    data = {}
    for eid in coarse.element_edge_ids[elem_id]:
        v0, v1 = coarse.edge_ends[eid]
        if kind == NODAL:
            v = key[0]
            vals = (float(v0 == v) * (1.0 - t) + float(v1 == v) * t)
        elif eid == key[0]:
            vals = polybasis.internal_basis_eval(key[1], -1.0 + 2.0 * t)
        else:
            vals = np.zeros_like(t)
        data.update(zip(map(int, edge_vertex_chain(fine, eid)), vals))
    return np.array([data[int(g)]
                     for g in element_boundary_vertex_ids(fine, elem_id)])


@pytest.mark.parametrize("kind", ["quad", "triangle"])
def test_compute_all_matches_iterative_reference(kind, A_osc):
    # every field of the direct block sweep against one tight Jacobi-PCG
    # solve per basis function and element; a function solved on its own
    # must reproduce the table's rows bitwise, whatever else the patch
    # solved
    coarse = mesh.build_coarse(kind, 4, 4)
    fine = mesh.refine_to_fine(coarse, 8)
    degrees = mesh.DegreeAssignment.uniform(coarse, 3, 2)
    basis = polybasis.BulkPolyBasis(kind, 2)
    table = localbasis.compute_all(fine, A_osc, degrees)
    assert len(table) == (len(coarse.interior_vertex_ids)
                          + 2 * len(coarse.interior_edge_ids)
                          + coarse.n_elements * basis.dim)
    worst = 0.0
    for d, (dof_kind, key) in enumerate(zip(table.kind, table.key.tolist())):
        fields = table_fields(table, d)
        single = entry_point(dof_kind, key, coarse, fine, A_osc, basis)
        assert list(single) == list(fields)
        for K, u in fields.items():
            assert np.array_equal(single[K], u)
            geom = finefem.element_geometry(fine, K)
            if dof_kind == BUBBLE:
                def load(x, y, i=key[1], K=K):
                    pts = np.column_stack([np.ravel(x), np.ravel(y)])
                    return basis.eval_ref(to_ref(coarse, K, pts))[:, i - 1]

                system = finefem.assemble(geom, A_osc,
                                          finefem.Field("P_i", load))
                ref = multigrid.solve_spd(system, 1e-13).values
            else:
                # the trace lifted: right-hand side -K_fc times it, and
                # the trace added back to the zero-trace solve
                trace = np.zeros(geom.n_vertices)
                trace[geom.boundary_local] = reference_trace(
                    coarse, fine, K, dof_kind, key)
                system = finefem.assemble(geom, A_osc)
                system = replace(system, rhs=-geom.stencil(A_osc).apply(
                    geom.to_box(trace))[system.K.mask])
                ref = multigrid.solve_spd(system, 1e-13).values + trace
            worst = max(worst, np.abs(u - ref).max() / np.abs(ref).max())
    assert worst < 1e-10


@pytest.mark.parametrize("kind, n, n_sub", [("triangle", 3, 4),
                                             ("quad", 2, 64)])
def test_batched_catalog_matches_entry_points(kind, n, n_sub, A_osc,
                                              monkeypatch):
    # whole patch groups against groups of one: both triangle shapes, whose
    # nine windows each are distinct (H is 4 cells, the period 3), and quad
    # patches of 8,192 triangles whose four windows are equal (H is two
    # periods), so one elimination carries the distinct rows of all four
    coarse = mesh.build_coarse(kind, n, n)
    fine = mesh.refine_to_fine(coarse, n_sub)
    degrees = mesh.DegreeAssignment.uniform(coarse, 3, 1)
    basis = polybasis.BulkPolyBasis(kind, 1)
    swept = eliminated_windows(monkeypatch)
    table = localbasis.compute_all(fine, A_osc, degrees)
    assert sum(w for w, _, _ in swept) == (18 if kind == "triangle" else 1)
    assert sum(w * r for w, r, _ in swept) == distinct_fields(table, fine,
                                                              A_osc)
    assert sum(rep for *_, rep in swept) == 0
    for d, (dof_kind, key) in enumerate(zip(table.kind, table.key.tolist())):
        fields = table_fields(table, d)
        single = entry_point(dof_kind, key, coarse, fine, A_osc, basis)
        assert list(single) == list(fields)
        for K, u in fields.items():
            assert np.array_equal(single[K], u)


def eliminated_windows(monkeypatch) -> list:
    """The (windows, rows per window, repeats) of every block sweep of the
    offline elimination that runs after the call: repeats counts the rows
    whose right-hand side is bitwise that of another row of their window
    in the sweep, each solved once more than needed."""
    swept = []
    real = multigrid.RowBlocks.eliminate

    def counted(self, st, *R):
        rows = np.concatenate(R, axis=1) if R else np.zeros((len(st.coef), 0))
        repeats = sum(len(w) - len({v.tobytes() for v in w}) for w in rows)
        swept.append((len(st.coef), rows.shape[1], repeats))
        real(self, st, *R)

    monkeypatch.setattr(multigrid.RowBlocks, "eliminate", counted)
    return swept


def distinct_fields(table, fine, A) -> int:
    """The distinct fields of a DOF table, the fewest rows its offline
    sweep can solve: those of its (element, DOF) pairs and, given a load,
    the load solve of every element, told apart by the patch shape and
    the coefficient window of their element and by their bytes."""
    pairs = table_pairs(table)
    solved = (np.arange(fine.coarse.n_elements) if table.reference is not None
              else np.unique([K for K, _, _ in pairs]))
    window = {}
    for group in finefem.patch_groups(fine, solved):
        for K, w in zip(group.elements.tolist(), group.windows(A)):
            window[K] = (group.template.label, w.tobytes())
    rows = {(window[K], field.tobytes()) for K, _, field in pairs}
    if table.reference is not None:
        rows |= {(window[K], "load",
                  table.reference[element_vertex_ids(fine, K)].tobytes())
                 for K in window}
    return len(rows)


@pytest.mark.parametrize("coefficient,windows", [
    ("periodic", 1), ("expression", 16)])
def test_each_distinct_window_is_eliminated_once(coefficient, windows,
                                                 monkeypatch):
    # the 16 patches of the solve-quad-fine config, H four periods: one
    # window carries the five distinct rows of its members (the hats at
    # four corners, the load, equal on every member); a coefficient without
    # a period gives each member its own window, with its 1 to 4 hats and
    # its load, and no member solves a zero row for a corner on the
    # boundary
    coarse = mesh.build_coarse("quad", 4, 4)
    fine = mesh.refine_to_fine(coarse, 64)
    A = (finefem.periodic_benchmark(1 / 32) if coefficient == "periodic"
         else finefem.Field(
             "2 + sin(7x) cos(5y)",
             lambda x, y: 2 + np.sin(7 * x) * np.cos(5 * y), (1.0, 3.0)))
    swept = eliminated_windows(monkeypatch)
    table = localbasis.compute_all(fine, A,
                                   mesh.DegreeAssignment.uniform(coarse, 1, 0),
                                   f=finefem.constant_rhs(-1.0))
    assert sum(w for w, _, _ in swept) == windows
    assert sum(w * r for w, r, _ in swept) == (5 if windows == 1 else 36 + 16)
    assert sum(w * r for w, r, _ in swept) == distinct_fields(table, fine, A)
    assert sum(rep for *_, rep in swept) == 0
    assert len(table_pairs(table)) == 4 * 9


def test_mixed_shares_solve_each_row_once(monkeypatch):
    # the coefficient varies only on the 2 x 2 cells at the SW corner, so
    # their windows are distinct and the other 60 members share one: the
    # sweep solves each distinct row of a window once, with no padding,
    # and a member's fields are still those of its patch alone
    coarse = mesh.build_coarse("quad", 8, 8)
    fine = mesh.refine_to_fine(coarse, 8)
    A = finefem.Field(
        "1 + 0.5 [x < 1/4] [y < 1/4] sin(40x) sin(40y)",
        lambda x, y: 1 + 0.5 * (x < 0.25) * (y < 0.25)
        * np.sin(40 * x) * np.sin(40 * y), (0.5, 1.5))
    f = finefem.gaussian_rhs()
    degrees = mesh.DegreeAssignment.uniform(coarse, 2, 1)
    swept = eliminated_windows(monkeypatch)
    table = localbasis.compute_all(fine, A, degrees, f=f)
    assert sum(w for w, _, _ in swept) == 5
    assert sum(w * r for w, r, _ in swept) == distinct_fields(table, fine, A)
    assert sum(rep for *_, rep in swept) == 0
    for K in (0, 9, 10, 63):  # distinct, distinct, shared, shared
        alone = localbasis.compute_all(fine, A, degrees, f=f,
                                       support_of=(BUBBLE, K, 1))
        for d in sorted({d for _, d, _ in table_pairs(alone)}):
            assert table_fields(alone, d)[K].tobytes() == \
                table_fields(table, d)[K].tobytes()
        vids = element_vertex_ids(fine, K)
        assert alone.reference[vids].tobytes() == \
            table.reference[vids].tobytes()


@pytest.mark.parametrize("kind", ["quad", "triangle"])
def test_shared_window_fields_match_each_patch_alone(kind, monkeypatch):
    # eps is one coarse cell on a power-of-two lattice, so all members of
    # a shape share one window; every field, bubble and load solve of a
    # member, solved through it, is bitwise the field of that member's
    # patch solved alone, with a load that differs from member to member
    coarse = mesh.build_coarse(kind, 4, 4)
    fine = mesh.refine_to_fine(coarse, 8)
    A, f = finefem.periodic_benchmark(1 / 4), finefem.gaussian_rhs()
    degrees = mesh.DegreeAssignment.uniform(coarse, 3, 1)
    swept = eliminated_windows(monkeypatch)
    table = localbasis.compute_all(fine, A, degrees, f=f)
    assert [w for w, _, _ in swept] == [1] * (2 if kind == "triangle" else 1)
    assert sum(rep for *_, rep in swept) == 0
    for K in range(coarse.n_elements):
        alone = localbasis.compute_all(fine, A, degrees, f=f,
                                       support_of=(BUBBLE, K, 1))
        assert len(alone.groups) == 1
        for d in sorted({d for _, d, _ in table_pairs(alone)}):
            assert table_fields(alone, d)[K].tobytes() == \
                table_fields(table, d)[K].tobytes()
        vids = element_vertex_ids(fine, K)
        assert alone.reference[vids].tobytes() == \
            table.reference[vids].tobytes()


@pytest.mark.parametrize("load", ["constant", "seeded"])
def test_periodic_sweep_solves_only_distinct_rows(load, monkeypatch):
    # a small twin of the many-element resonance config (H = eps): the 256
    # members share one window and pose 12 distinct traces, 9 bubble loads
    # and one load f (constant) or one each (a seeded smooth load, so a
    # row routed to the wrong member would show); the sweep solves each
    # once, and every member's fields and load solve are bitwise those of
    # its patch solved alone
    coarse = mesh.build_coarse("quad", 16, 16)
    fine = mesh.refine_to_fine(coarse, 8)
    A = finefem.periodic_benchmark(1 / 16)
    rng = np.random.default_rng(5)
    c0, c1, p1, p2 = rng.uniform(0.5, 1.5), rng.uniform(0.1, 0.4), \
        *rng.uniform(0.0, 2 * np.pi, 2)
    f = (finefem.constant_rhs(-1.0) if load == "constant" else
         finefem.Field("seeded", lambda x, y: -(c0 + c1 * np.sin(
             3 * np.pi * x + p1) * np.sin(2 * np.pi * y + p2))))
    degrees = mesh.DegreeAssignment.uniform(coarse, 3, 2)
    swept = eliminated_windows(monkeypatch)
    table = localbasis.compute_all(fine, A, degrees, f=f)
    rows = 12 + 9 + (1 if load == "constant" else 256)
    assert sum(w for w, _, _ in swept) == 1
    assert sum(w * r for w, r, _ in swept) == rows
    assert distinct_fields(table, fine, A) == rows
    assert sum(rep for *_, rep in swept) == 0
    for K in range(coarse.n_elements):
        alone = localbasis.compute_all(fine, A, degrees, f=f,
                                       support_of=(BUBBLE, K, 1))
        for d in sorted({d for _, d, _ in table_pairs(alone)}):
            assert table_fields(alone, d)[K].tobytes() == \
                table_fields(table, d)[K].tobytes()
        vids = element_vertex_ids(fine, K)
        assert alone.reference[vids].tobytes() == \
            table.reference[vids].tobytes()


@pytest.mark.parametrize("kind,n,n_sub", [("quad", 6, 16),
                                           ("triangle", 8, 12)])
def test_sweep_solves_the_load_the_assembly_projects(kind, n, n_sub,
                                                     monkeypatch):
    # h = 1/96, a spacing that is not a power of two, and a load that
    # varies from member to member: the load rows the offline sweep
    # solves are bitwise PatchGroup.load_vectors(f), the loads the coarse
    # assembly projects on the fields, at each member's free vertices
    coarse = mesh.build_coarse(kind, n, n)
    fine = mesh.refine_to_fine(coarse, n_sub)
    A, f = finefem.periodic_benchmark(1 / 12), finefem.gaussian_rhs()
    solved = set()
    real = multigrid.RowBlocks.eliminate

    def recorded(self, st, *R):
        for r in R:
            free = np.concatenate([r[..., b] for b in self.blocks], axis=-1)
            solved.update(v.tobytes() for v in free.reshape(-1, free.shape[-1]))
        real(self, st, *R)

    monkeypatch.setattr(multigrid.RowBlocks, "eliminate", recorded)
    localbasis.compute_all(fine, A,
                           mesh.DegreeAssignment.uniform(coarse, 2, 1), f=f)
    for group in finefem.patch_groups(fine, range(coarse.n_elements)):
        free = np.setdiff1d(np.arange(group.template.n_vertices),
                            group.template.boundary_local)
        loads = group.load_vectors(f)[:, free]
        assert len({v.tobytes() for v in loads}) == len(loads)
        assert all(v.tobytes() in solved for v in loads)


def test_sweep_forms_no_patch_load(monkeypatch):
    # the offline sweep reads its load rows from the whole lattice's load
    # vector (the one the fine reference solves), so it forms no patch
    # load of its own: PatchGroup.load_vectors is the coarse projection's
    coarse = mesh.build_coarse("triangle", 4, 4)
    fine = mesh.refine_to_fine(coarse, 6)
    calls = []
    real = finefem.PatchGroup.load_vectors

    def counted(self, f):
        calls.append(f)
        return real(self, f)

    monkeypatch.setattr(finefem.PatchGroup, "load_vectors", counted)
    table = localbasis.compute_all(
        fine, finefem.periodic_benchmark(1 / 6),
        mesh.DegreeAssignment.uniform(coarse, 2, 1), f=finefem.gaussian_rhs())
    assert calls == [] and table.reference.any()


def test_edge_chains_must_be_translates(A_osc):
    # element 5 lists its edges in another order than its template
    coarse = mesh.build_coarse("quad", 3, 3)
    fine = mesh.refine_to_fine(coarse, 4)
    sides = coarse.element_edge_ids.copy()
    sides[5] = np.roll(sides[5], -1)
    coarse.element_edge_ids = sides
    with pytest.raises(ValueError, match="element 5: edge chains are not a "
                                         "translate of those of element 0"):
        localbasis.compute_all(fine, A_osc,
                               mesh.DegreeAssignment.uniform(coarse, 2, 0))


def test_dump_points(quad44, fine_quad44, A_osc):
    v = int(quad44.interior_vertex_ids[0])
    table = localbasis.compute_all(fine_quad44, A_osc,
                                   mesh.DegreeAssignment.uniform(quad44, 2, 0),
                                   support_of=(NODAL, v, 0))
    rows = localbasis.dump_points(table, table.find(NODAL, v, 0),
                                  fine_quad44)
    assert rows.shape == (len(np.unique(np.concatenate([
        element_vertex_ids(fine_quad44, K)
        for K in vertex_elements(quad44, v)]))), 3)
    # the vertex itself appears with value one
    at_v = np.flatnonzero((rows[:, 0] == quad44.vertices[v][0])
                          & (rows[:, 1] == quad44.vertices[v][1]))
    assert len(at_v) == 1 and rows[at_v[0], 2] == 1.0


def test_frozen_interior_probe():
    coarse = mesh.build_coarse("quad", 4, 4)
    fine = mesh.refine_to_fine(coarse, 32)
    A = finefem.periodic_benchmark(1.0 / 16.0)
    fields = compute_edge_enrichment(3, 2, coarse, fine, A)
    geom = finefem.element_geometry(fine, 0)
    pos = int(np.searchsorted(geom.vids, 2095))
    assert geom.vids[pos] == 2095
    assert np.array_equal(fine.vertices[2095], [0.2421875, 0.125])
    got = fields[0][pos]
    assert abs(got - (-0.53184199398854248)) < 1e-9 * 0.53184199398854248


# ---------------------------------------------------------------------------
# right-hand sides of the offline sweep against the loops they replaced

def requests_of(coarse, degrees):
    """The trace codes (see localbasis._trace_table) with their stride, the
    bulk degrees and the bulk bases that compute_all requests for "all",
    element by element; codes in ascending order, -1 after."""
    ev, sides = coarse.element_vertices, coarse.element_edge_ids
    corners = ev.shape[1]
    stride = int(degrees.N[coarse.interior_edge_ids].max()) - 1
    codes = []
    for K in range(len(ev)):
        codes.append([c for c, v in enumerate(ev[K].tolist())
                      if not coarse.boundary_vertex_mask[v]])
        for j, e in enumerate(sides[K].tolist()):
            if not is_boundary_edge(coarse, e):
                codes[-1] += [corners + j * stride + k - 2
                              for k in range(2, int(degrees.N[e]) + 1)]
    width = max(map(len, codes))
    codes = np.array([c + [-1] * (width - len(c)) for c in codes])
    bases = {M: polybasis.BulkPolyBasis(coarse.kind, M)
             for M in set(degrees.M.tolist()) if M}
    return codes, stride, degrees.M, bases


def all_triangle_trace_loads(Kt, X, tris):
    """-K X of trace rows over every triangle of the patch, as the sweep
    formed it before it skipped the triangles off the boundary."""
    n_el, rows, n = X.shape
    KT = np.ascontiguousarray(np.moveaxis(Kt, 0, -1))
    XT = np.ascontiguousarray(X.T)[tris]
    W = np.zeros((len(tris), 3, rows, n_el))
    tmp = np.empty(W.shape)
    np.multiply(KT[:, :, 0, None], XT[:, None, 0], out=W)
    W += np.multiply(KT[:, :, 1, None], XT[:, None, 1], out=tmp)
    W += np.multiply(KT[:, :, 2, None], XT[:, None, 2], out=tmp)
    np.negative(W, out=W)
    idx = (np.arange(n_el * rows).reshape(n_el, rows).T * n
           + tris[..., None, None])
    return np.bincount(idx.ravel(), weights=W.ravel(),
                       minlength=n_el * rows * n).reshape(n_el, rows, n)


@pytest.mark.parametrize("kind,n_sub,N", [("quad", 6, 3), ("triangle", 5, 3),
                                          ("triangle", 2, 2), ("quad", 9, 1)])
def test_boundary_trace_loads_match_all_triangles(kind, n_sub, N):
    # triangles off the boundary add products +-0 only, so leaving them
    # out keeps every sum bitwise, on every vertex; the -K X the sweep
    # takes from the chunk stencil agrees with both to rounding
    coarse = mesh.build_coarse(kind, 3, 3)
    fine = mesh.refine_to_fine(coarse, n_sub)
    A = contrast_field()
    codes, stride, _, _ = requests_of(
        coarse, mesh.DegreeAssignment.uniform(coarse, N, 0))
    for group in finefem.patch_groups(fine, range(coarse.n_elements)):
        t = group.template
        table, index = localbasis._trace_table(group, codes[group.elements],
                                               stride)
        X = table[index]
        Kt = stiffness(*group_weights(group, A))
        tris = local_triangles(t)
        edge = np.isin(tris, t.boundary_local).any(axis=1)
        assert edge.sum() < len(tris) or n_sub == 2
        got = trace_loads(Kt[:, edge], X, tris[edge])
        want = all_triangle_trace_loads(Kt, X, tris)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        st = group.stencil(A)
        KX = t.from_box(finefem.Stencil(st.grid, st.coef[:, None]).apply(
            t.to_box(X)))
        free = np.setdiff1d(np.arange(t.n_vertices), t.boundary_local)
        assert not len(free) or np.abs(
            KX[..., free] + want[..., free]).max() <= 1e-14 * np.abs(want).max()


def loop_load_weights(coarse, sub, M, bases, n_b, offsets=None):
    """The bubble loads of the sweep, one to_ref and eval_ref per
    element, as the sweep formed them before it batched them; each
    element's affine map taken with the offset offsets[e] if given."""
    areas, centroids = triangle_cells(finefem.global_geometry(sub.fine))
    tri_ids = member_triangle_ids(sub)
    out = np.zeros((tri_ids.shape[1], n_b, len(sub.elements)))
    for e, K in enumerate(sub.elements):
        if M[e]:
            basis = bases[M[e]]
            ids = tri_ids[e]
            P = basis.eval_ref(
                to_ref(coarse, K, centroids[ids]) if offsets is None else
                (centroids[ids] - offsets[e]) @ coarse.Binv[K].T)
            out[:, :basis.dim, e] = areas[ids][:, None] * P / 3.0
    return out


@pytest.mark.parametrize("kind", ["quad", "triangle"])
def test_batched_bubble_loads_match_element_loop(kind, monkeypatch):
    # mixed bulk degrees (M = 0 to 3, so members of one chunk use
    # different bases); the batched loads are bitwise the loop's, and so
    # are the bubble fields solved from them
    coarse = mesh.build_coarse(kind, 3, 2, (0.0, 1.5, -0.5, 0.5))
    fine = mesh.refine_to_fine(coarse, 6)
    A = contrast_field()
    degrees = mesh.DegreeAssignment.uniform(coarse, 2, 2)
    degrees.M[[0, 3, 4]] = [1, 3, 0]
    _, _, M, bases = requests_of(coarse, degrees)
    for group in finefem.patch_groups(fine, range(coarse.n_elements)):
        Mg = M[group.elements]
        n_b = max(bases[m].dim for m in Mg.tolist() if m)
        got = localbasis._load_weights(group, Mg, bases, n_b,
                                       coarse.offsets[group.elements])
        assert np.array_equal(got, loop_load_weights(coarse, group, Mg,
                                                     bases, n_b))
    runs = []
    for loop in (False, True):
        if loop:
            monkeypatch.setattr(
                localbasis, "_load_weights",
                lambda sub, M, bases, n_b, offsets:
                loop_load_weights(coarse, sub, M, bases, n_b, offsets))
        table = localbasis.compute_all(fine, A, degrees)
        runs.append((table, [table_fields(table, d)
                             for d in range(len(table))]))
    (batched, a), (looped, b) = runs
    assert np.array_equal(batched.key, looped.key)
    assert np.count_nonzero(batched.kind == BUBBLE) == sum(
        polybasis.BulkPolyBasis(kind, M).dim for M in degrees.M.tolist() if M)
    for x, y in zip(a, b):
        assert list(x) == list(y)
        assert all(np.array_equal(x[K], y[K]) for K in x)


# ---------------------------------------------------------------------------
# the row-block layout against the one packed from element matrices


@dataclass(frozen=True)
class ElementRowBlocks:
    """K_ff of a template patch as dense lattice-row blocks, packed from
    per-triangle matrices: the layout the offline sweep built before its
    blocks came from the stencil (multigrid.RowBlocks), kept as reference.

    Free vertices are in local order, which is lattice-row-major because
    vids are sorted; widths[i] is the number of free vertices in block i
    and prev[i] that of block i - 1.  Entry keep of the per-triangle
    matrices lands at position flat of the packed blocks of an element.
    """

    keep: np.ndarray
    flat: np.ndarray
    widths: np.ndarray
    prev: np.ndarray
    offsets: np.ndarray
    size: int

    def split(self, Kt):
        """(D, E) from per-triangle matrices Kt (elements, nt, 3, 3)."""
        n_el = len(Kt)
        idx = np.arange(n_el)[:, None] * self.size + self.flat
        data = np.bincount(idx.ravel(), weights=Kt[:, self.keep].ravel(),
                           minlength=n_el * self.size).reshape(n_el, -1)
        D, E = [], []
        for o, w, p in zip(self.offsets, self.widths, self.prev):
            D.append(data[:, o:o + w * w].reshape(n_el, w, w))
            E.append(data[:, o + w * w:o + w * (w + p)].reshape(n_el, w, p))
        return D, E


def element_row_blocks(fine, geom, is_free):
    """The ElementRowBlocks of K_ff on one patch."""
    n = geom.n_vertices
    row = geom.vids // (fine.nfx + 1)
    free = np.flatnonzero(is_free)
    starts = np.flatnonzero(np.diff(row[free], prepend=-1))
    widths = np.diff(np.append(starts, len(free)))
    blk = np.zeros(n, dtype=int)
    pos = np.zeros(n, dtype=int)
    blk[free] = np.repeat(np.arange(len(widths)), widths)
    pos[free] = np.arange(len(free)) - starts[blk[free]]
    prev = np.concatenate([[0], widths[:-1]])
    d_size = widths * widths
    d_off = np.concatenate([[0], np.cumsum(d_size + widths * prev)[:-1]])
    tris = local_triangles(geom)
    r, f = row[tris], is_free[tris]
    gap = r[:, :, None] - r[:, None, :]
    both = f[:, :, None] & f[:, None, :]
    assert not np.any(both & (np.abs(gap) > 1))
    keep = both & (gap >= 0)
    ba = blk[tris][:, :, None]
    flat = (d_off[ba] + gap * d_size[ba]
            + pos[tris][:, :, None] * widths.take(ba - gap, mode="clip")
            + pos[tris][:, None, :])
    return ElementRowBlocks(keep, flat[keep], widths, prev, d_off,
                            int(d_off[-1] + d_size[-1]
                                + widths[-1] * prev[-1]))


def bitwise(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("kind,n_sub", [("quad", 5), ("quad", 2),
                                        ("triangle", 6), ("triangle", 3)])
def test_row_blocks_match_the_element_matrix_layout(kind, n_sub):
    # the blocks gathered from a stack of stencils are bitwise those packed
    # from the per-triangle matrices (of the lattice gradient patterns,
    # which the stencils use), on the quad template and on the lower
    # and upper triangle templates, with the contrast coefficient: the
    # packed blocks hold the SW-NE entries of the element matrices, zero,
    # where the coupling vectors hold none; n_sub 2 and 3 leave one free
    # vertex a patch
    coarse = mesh.build_coarse(kind, 3, 2)
    fine = mesh.refine_to_fine(coarse, n_sub)
    A = contrast_field()
    groups = finefem.patch_groups(fine, range(coarse.n_elements))
    assert len(groups) == (1 if kind == "quad" else 2)
    for g in groups:
        t = g.template
        is_free = np.ones(t.n_vertices, dtype=bool)
        is_free[t.boundary_local] = False
        AW = group_weights(g, A)[1]
        grads = np.broadcast_to(pattern_gradients(t), AW.shape[:2] + (3, 2))
        blocks = multigrid.RowBlocks(t.box[1][is_free], t.box[0])
        want = element_row_blocks(fine, t, is_free)
        assert np.array_equal(blocks.widths, want.widths)
        assert [b.stop for b in blocks.blocks] == \
            np.cumsum(want.widths).tolist()
        D, C = split(blocks, g.stencil(A))
        E = dense_couplings(C, blocks.widths)
        D0, E0 = want.split(stiffness(grads, AW))
        assert len(D) == len(D0) == len(E) == len(E0)
        assert all(bitwise(a, b) for a, b in zip(D + E, D0 + E0))
        assert len(D) == 1 or any(e.any() for e in E[1:])


@pytest.mark.parametrize("kind,nx,n_sub", [("quad", 1, 64),
                                           ("triangle", 2, 8)])
@pytest.mark.parametrize("coefficient", ["periodic", "anisotropic"])
def test_coupling_elimination_matches_dense(kind, nx, n_sub, coefficient):
    # the offline sweep's elimination, its row couplings kept as stencil
    # vectors (one per row), against the dense one: bitwise, with the
    # periodic and the contrast coefficient, on the quad n_sub 64 template
    # (63 rows of 63) and on triangle templates whose rows shrink
    coarse = mesh.build_coarse(kind, nx, nx)
    fine = mesh.refine_to_fine(coarse, n_sub)
    A = (finefem.periodic_benchmark(0.25) if coefficient == "periodic"
         else contrast_field())
    for g in finefem.patch_groups(fine, range(coarse.n_elements)):
        t = g.template
        is_free = np.ones(t.n_vertices, dtype=bool)
        is_free[t.boundary_local] = False
        blocks = multigrid.RowBlocks(t.box[1][is_free], t.box[0])
        assert len(set(blocks.widths.tolist())) == (1 if kind == "quad"
                                                    else len(blocks.widths))
        st = g.stencil(A)
        D, C = split(blocks, st)
        assert all(cols.shape == vals.shape[1:] == (w,)
                   for (cols, vals), w in zip(C, blocks.widths))
        check_against_dense(blocks, blocks.factor(st), D,
                            dense_couplings(C, blocks.widths))
        # the offline sweep's one pass, the forward substitution beside the
        # elimination and only G kept, is bitwise the factor and the solve,
        # whether the rows come in one stack or in two; both overwrite their
        # right-hand sides with the solutions
        R = np.random.default_rng(3).standard_normal(
            (len(g.elements), 3, int(is_free.sum())))
        x, y, z = R.copy(), R[:, :2].copy(), R[:, 2:].copy()
        blocks.eliminate(st, x)
        blocks.eliminate(st, y, z)
        assert bitwise(x, blocks.solve(blocks.factor(st), R))
        assert bitwise(x, np.concatenate([y, z], axis=1))
