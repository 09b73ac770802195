import math

import numpy as np
import pytest

from conftest import (edge_elements, edge_vertex_chain,
                      element_boundary_vertex_ids, element_triangle_ids,
                      from_ref, is_boundary_edge, local_triangles, to_ref,
                      triangle_elements)
from legmsfem import finefem, mesh

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def test_quad_counts(quad44):
    assert quad44.n_elements == 16
    assert len(quad44.vertices) == 25
    assert quad44.n_edges == 40
    assert len(quad44.interior_edge_ids) == 24
    assert len(quad44.interior_vertex_ids) == 9
    assert int(quad44.boundary_vertex_mask.sum()) == 16


def test_triangle_counts(tri44):
    assert tri44.n_elements == 32
    assert len(tri44.vertices) == 25
    # 2*4*5 axis-aligned edges plus one diagonal per cell
    assert tri44.n_edges == 56
    assert len(tri44.interior_edge_ids) == 40


@pytest.mark.parametrize("kind", ["quad", "triangle"])
def test_elements_positively_oriented(kind):
    coarse = mesh.build_coarse(kind, 3, 5, (0.0, 2.0, -1.0, 1.0))
    assert (np.linalg.det(coarse.B) > 0).all()
    assert coarse.element_vertices.shape == (
        coarse.n_elements, 4 if kind == "quad" else 3)


def test_affine_maps_roundtrip(quad44, rng):
    ref = rng.random((20, 2))
    phys = from_ref(quad44, 5, ref)
    back = to_ref(quad44, 5, phys)
    assert np.abs(back - ref).max() < 1e-14


def test_edge_orientation_and_boundary_flags(quad44):
    for e in range(quad44.n_edges):
        v0, v1 = quad44.edge_ends[e]
        assert v0 < v1
        assert is_boundary_edge(quad44, e) == (
            len(edge_elements(quad44, e)) == 1)
    assert sum(is_boundary_edge(quad44, e) for e in range(40)) == 16


def test_element_edges_are_sides(quad44):
    # each listed edge joins two consecutive vertices of the element
    for K, vids in enumerate(quad44.element_vertices.tolist()):
        n = len(vids)
        for i, eid in enumerate(quad44.element_edge_ids[K]):
            pair = {vids[i], vids[(i + 1) % n]}
            assert set(quad44.edge_ends[eid].tolist()) == pair


def test_coarse_vertices_exactly_on_fine_lattice(quad44, fine_quad44):
    for e, (v0, v1) in enumerate(quad44.edge_ends):
        chain = edge_vertex_chain(fine_quad44, e)
        assert np.array_equal(fine_quad44.vertices[chain[0]],
                              quad44.vertices[v0])
        assert np.array_equal(fine_quad44.vertices[chain[-1]],
                              quad44.vertices[v1])


def test_refinement_nesting_bitwise(quad44):
    # doubling n_sub keeps every existing vertex coordinate exactly
    f1 = mesh.refine_to_fine(quad44, 4)
    f2 = mesh.refine_to_fine(quad44, 8)
    v2 = set(map(tuple, f2.vertices))
    assert all(tuple(v) in v2 for v in f1.vertices)


def test_fine_counts_and_tags(quad44, fine_quad44):
    assert len(local_triangles(finefem.global_geometry(fine_quad44))) == \
        16 * 2 * 8 * 8
    for K in range(quad44.n_elements):
        assert len(element_triangle_ids(fine_quad44, K)) == 2 * 8 * 8


def test_triangle_patch_tags(tri44, fine_tri44):
    # every coarse triangle receives n_sub^2 similar fine triangles
    for K in range(tri44.n_elements):
        tris = element_triangle_ids(fine_tri44, K)
        assert len(tris) == 8 * 8
    # tags partition all fine triangles
    total = sum(len(element_triangle_ids(fine_tri44, K))
                for K in range(tri44.n_elements))
    assert total == len(local_triangles(finefem.global_geometry(fine_tri44)))


def test_patch_boundary_vertices(quad44, fine_quad44, tri44, fine_tri44):
    assert len(element_boundary_vertex_ids(fine_quad44, 0)) == 4 * 8
    assert len(element_boundary_vertex_ids(fine_tri44, 0)) == 3 * 8
    # boundary vertices lie on the patch hull
    ids = element_boundary_vertex_ids(fine_quad44, 5)
    pts = to_ref(quad44, 5, fine_quad44.vertices[ids])
    on_hull = (np.isclose(pts, 0.0, atol=1e-12) |
               np.isclose(pts, 1.0, atol=1e-12)).any(axis=1)
    assert on_hull.all()


def test_edge_vertex_chain_geometry(quad44, fine_quad44):
    eid = int(quad44.interior_edge_ids[0])
    v0, v1 = quad44.edge_ends[eid]
    chain = edge_vertex_chain(fine_quad44, eid)
    assert len(chain) == 9
    t = np.arange(9) / 8
    expect = (quad44.vertices[v0][None, :] * (1 - t[:, None])
              + quad44.vertices[v1][None, :] * t[:, None])
    assert np.abs(fine_quad44.vertices[chain] - expect).max() < 1e-15
    # the array form gives every chain at once, and one for one id
    chains = fine_quad44.edge_vertex_chains(np.arange(quad44.n_edges))
    assert np.array_equal(chains, [edge_vertex_chain(fine_quad44, g)
                                   for g in range(quad44.n_edges)])
    assert np.array_equal(fine_quad44.edge_vertex_chains(eid), chain)


def brute_force_segment_map(fine):
    """Fine edge -> adjacent fine triangles, from every triangle's sides."""
    m = {}
    for t, tri in enumerate(local_triangles(finefem.global_geometry(fine))):
        for i in range(3):
            a, b = tri[i], tri[(i + 1) % 3]
            m.setdefault((min(a, b), max(a, b)), []).append(t)
    return m


@pytest.mark.parametrize("coarse_name,fine_name", [
    ("quad44", "fine_quad44"), ("tri44", "fine_tri44")])
def test_edge_segment_triangles_match_brute_force(coarse_name, fine_name,
                                                  request):
    coarse = request.getfixturevalue(coarse_name)
    fine = request.getfixturevalue(fine_name)
    ref = brute_force_segment_map(fine)
    tags = triangle_elements(fine)
    diagonals = 0
    for eid in coarse.interior_edge_ids:
        chain = edge_vertex_chain(fine, eid)
        segs = fine.edge_segment_triangles(eid)
        assert segs.shape == (fine.n_sub, 2)
        lo, hi = edge_elements(coarse, eid)
        for (a, b), (t_lo, t_hi) in zip(zip(chain[:-1], chain[1:]), segs):
            assert sorted(ref[(min(a, b), max(a, b))]) == sorted([t_lo, t_hi])
            assert tags[t_lo] == lo
            assert tags[t_hi] == hi
        v0, v1 = coarse.edge_ends[eid]
        diagonals += v1 - v0 == coarse.nx + 2
    assert diagonals == (16 if coarse.kind == "triangle" else 0)


def test_edge_segment_triangles(quad44, fine_quad44):
    eid = int(quad44.interior_edge_ids[0])
    segs = fine_quad44.edge_segment_triangles(eid)
    assert len(segs) == 8
    lo, hi = edge_elements(quad44, eid)
    tags = triangle_elements(fine_quad44)
    for t_lo, t_hi in segs:
        assert tags[t_lo] == lo
        assert tags[t_hi] == hi
    bdry = int(np.argmax(quad44.edge_element_ids[:, 1] < 0))
    with pytest.raises(ValueError):
        fine_quad44.edge_segment_triangles(bdry)


def test_regularity_values(quad44, tri44):
    assert mesh.check_regularity(quad44) == 1.0
    assert abs(mesh.check_regularity(tri44) - GOLDEN) < 1e-12
    # anisotropic cells: gamma = sqrt(5/2) for 2:1 quads
    stretched = mesh.build_coarse("quad", 4, 4, (0.0, 2.0, 0.0, 1.0))
    assert abs(mesh.check_regularity(stretched) - math.sqrt(2.5)) < 1e-12


def test_degree_assignment_validation(quad44):
    deg = mesh.DegreeAssignment.uniform(quad44, 2, 0)
    deg.validate(quad44)
    # a boundary edge carries no enrichment, so its entry is never read
    deg.N[np.argmax(quad44.edge_element_ids[:, 1] < 0)] = 0
    deg.validate(quad44)
    bad = mesh.DegreeAssignment(deg.N.copy(), deg.M.copy())
    bad.N[int(quad44.interior_edge_ids[0])] = 0
    with pytest.raises(ValueError, match="N must be"):
        bad.validate(quad44)
    bad = mesh.DegreeAssignment(deg.N.copy(), deg.M.copy())
    bad.M[3] = -1
    with pytest.raises(ValueError, match="element 3: M must be"):
        bad.validate(quad44)
    missing = mesh.DegreeAssignment(deg.N[:-1], deg.M)
    with pytest.raises(ValueError, match="one integer per edge"):
        missing.validate(quad44)
    # a fractional degree would be cut to an integer without a word
    fractional = mesh.DegreeAssignment(deg.N + 0.5, deg.M)
    with pytest.raises(ValueError, match="one integer per edge"):
        fractional.validate(quad44)
    listed = mesh.DegreeAssignment(deg.N.tolist(), deg.M)
    with pytest.raises(ValueError, match="int array"):
        listed.validate(quad44)


def test_degree_compat(quad44):
    deg = mesh.DegreeAssignment.uniform(quad44, 3, 0)
    assert mesh.check_degree_compat(quad44, deg, 1.0) == []
    deg.N[int(quad44.interior_edge_ids[0])] = 30
    bad = mesh.check_degree_compat(quad44, deg, 1.0)
    assert bad and all(a < b for a, b in bad)


def test_constructor_errors():
    with pytest.raises(ValueError):
        mesh.build_coarse("hex", 4, 4)
    with pytest.raises(ValueError):
        mesh.build_coarse("quad", 0, 4)
    with pytest.raises(ValueError):
        mesh.refine_to_fine(mesh.build_coarse("quad", 2, 2), 1)


def test_counts_are_table_lengths(quad44, tri44):
    # the element and edge counts are the lengths of the tables every
    # module reads
    for coarse in (quad44, tri44):
        assert coarse.n_elements == len(coarse.element_vertices) == len(
            coarse.B) == len(coarse.element_edge_ids)
        assert coarse.n_edges == len(coarse.edge_ends) == len(
            coarse.edge_element_ids) == len(coarse.edge_lengths)
        assert coarse.n_vertices == len(coarse.vertices) == 25
