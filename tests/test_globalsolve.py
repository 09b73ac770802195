import numpy as np
import pytest

from conftest import (dense, edge_vertex_chain, element_dofs,
                      is_boundary_edge, space_fields)
from legmsfem import cli, finefem, globalsolve, localbasis, mesh, polybasis
from legmsfem.localbasis import BUBBLE, EDGE, NODAL


def mesh_dofs(space, K) -> list[int]:
    """The DOFs of element K from the mesh and the degrees alone: the
    nodal DOFs of its interior corners, eta_k for k = 2..N_e on its
    interior sides and its bubbles, each found by kind and key."""
    coarse, t, deg = space.coarse, space.dofs, space.degrees
    M = int(deg.M[K])
    keys = ([(NODAL, v, 0) for v in coarse.element_vertices[K].tolist()
             if not coarse.boundary_vertex_mask[v]]
            + [(EDGE, e, k) for e in coarse.element_edge_ids[K].tolist()
               if not is_boundary_edge(coarse, e)
               for k in range(2, int(deg.N[e]) + 1)]
            + [(BUBBLE, K, i) for i in range(
                1, polybasis.bulk_dim(coarse.kind, M) + 1 if M else 1)])
    return [t.find(*key) for key in keys]


def check_groups_against_mesh(space):
    """Each element's DOFs from the mesh are the union of the two parts
    of its patch group, each part ascending, with no duplicate and its
    padding last; every DOF sits on some element."""
    seen, on = set(), set()
    for group, iface, bub in space.dofs.groups:
        for e, K in enumerate(group.elements.tolist()):
            assert K not in seen
            seen.add(K)
            got = []
            for part, interface in ((iface, True), (bub, False)):
                row = part.dofs[e].tolist()
                n = sum(d >= 0 for d in row)
                assert row[n:] == [-1] * (len(row) - n)
                assert row[:n] == sorted(set(row[:n]))
                assert all((d < space.n_interface) == interface
                           for d in row[:n])
                got += row[:n]
            want = mesh_dofs(space, K)
            assert -1 not in want and sorted(got) == sorted(want)
            on.update(got)
    assert all(not mesh_dofs(space, K)
               for K in set(range(space.coarse.n_elements)) - seen)
    assert on == set(range(space.n_dofs))


def test_dof_bookkeeping(small_bench_bubbles):
    space = small_bench_bubbles.solution.space
    assert space.n_interface == 9 + 24
    assert space.n_bubble == 16 * 4
    assert space.n_dofs == 97
    n_if = len(space.coarse.interior_vertex_ids) + int(
        (space.degrees.N[space.coarse.interior_edge_ids] - 1).sum())
    n_b = sum((M + 1) ** 2 for M in space.degrees.M.tolist() if M)
    assert (n_if, n_b) == (33, 64)
    # every DOF sits on exactly the elements of its support, once each,
    # on quads and on triangles with N and M overrides too
    check_groups_against_mesh(space)
    A = finefem.periodic_benchmark(0.25)
    for kind in ("quad", "triangle"):
        coarse = mesh.build_coarse(kind, 3, 3)
        degrees = mesh.DegreeAssignment.uniform(coarse, 2, 1)
        degrees.N[coarse.interior_edge_ids[[0, 3]]] = [4, 1]
        degrees.M[[0, 4]] = [0, 2]
        space = globalsolve.build_space(
            coarse, mesh.refine_to_fine(coarse, 6), A, degrees)
        check_groups_against_mesh(space)


def test_interface_matrix_spd(small_bench):
    space = small_bench.solution.space
    systems = globalsolve.assemble_coarse(space, space.A, small_bench.problem.f)
    K = dense(systems.interface_K)
    assert np.abs(K - K.T).max() == 0.0
    w = np.linalg.eigvalsh(K)
    assert w.min() > 0


def test_bubble_interface_orthogonality(small_bench_bubbles):
    # the decoupling hinges on a(phi_B, phi_G) = 0 at solver accuracy
    space = small_bench_bubbles.solution.space
    systems = globalsolve.assemble_coarse(space, space.A,
                                          small_bench_bubbles.problem.f,
                                          with_cross=True)
    G = systems.cross_gram
    assert G.shape == (64, 33)
    # normalize by the diagonal energies of the two factors
    d_b = np.array([systems.bubble_blocks[K][1][i, i]
                    for K in range(16) for i in range(4)])
    d_if = systems.interface_K.diagonal()
    scale = np.sqrt(np.outer(d_b, d_if))
    assert np.abs(G / scale).max() < 1e-10


def test_decoupled_matches_monolithic(small_bench_bubbles):
    # oracle: assemble the full coupled Gram over all 97 functions per
    # element and solve it dense; the decoupled answer must agree
    space = small_bench_bubbles.solution.space
    f = small_bench_bubbles.problem.f
    n = space.n_dofs
    K = np.zeros((n, n))
    b = np.zeros(n)
    for e in range(space.coarse.n_elements):
        geom = finefem.element_geometry(space.fine, e)
        dofs = np.array(element_dofs(space)[e])
        V = np.stack([space_fields(space, p)[e] for p in dofs])
        K[np.ix_(dofs, dofs)] += finefem.energy_inner_matrix(V, geom, space.A)
        b[dofs] += V @ finefem.load_vector(geom, f)
    mono = np.linalg.solve(K, b)
    got = small_bench_bubbles.solution.coeffs
    assert np.abs(got - mono).max() < 1e-8 * np.abs(mono).max()


def test_reconstruct_parts_sum(small_bench_bubbles):
    sol = small_bench_bubbles.solution
    u_t = globalsolve.reconstruct(sol, "total")
    u_b = globalsolve.reconstruct(sol, "bubble")
    u_g = globalsolve.reconstruct(sol, "interface")
    assert np.array_equal(u_t.values, u_b.values + u_g.values)
    with pytest.raises(ValueError, match="unknown part"):
        globalsolve.reconstruct(sol, "both")


def test_reconstruct_interface_consistent_across_patches(small_bench):
    # recompute each patch accumulation independently and compare at the
    # patch vertices: overwriting assignment in reconstruct is exact
    sol = small_bench.solution
    space = sol.space
    u = globalsolve.reconstruct(sol, "interface")
    for K in range(space.coarse.n_elements):
        geom = finefem.element_geometry(space.fine, K)
        acc = np.zeros(len(geom.points))
        for p in element_dofs(space)[K]:
            acc += sol.coeffs[p] * space_fields(space, p)[K]
        assert np.array_equal(u.values[geom.vids], acc)


def test_bubble_reconstruct_vanishes_on_skeleton(small_bench_bubbles):
    sol = small_bench_bubbles.solution
    u_b = globalsolve.reconstruct(sol, "bubble")
    coarse = sol.space.coarse
    fine = sol.space.fine
    for eid in range(coarse.n_edges):
        assert not u_b.values[edge_vertex_chain(fine, eid)].any()


def test_zero_rhs_gives_zero_solution(quad44, fine_quad44):
    A = finefem.periodic_benchmark(0.25)
    degrees = mesh.DegreeAssignment.uniform(quad44, 2, 1)
    space = globalsolve.build_space(quad44, fine_quad44, A, degrees)
    systems = globalsolve.assemble_coarse(space, A, None)
    sol = globalsolve.solve_coarse(systems)
    assert not sol.coeffs.any()
    assert sol.cg_iters == 0


def test_space_grams_match_element_energies(quad44, fine_quad44):
    # the Gram blocks a space gathers from its sweep against
    # energy_inner_matrix of each element's fields on its patch
    A = finefem.periodic_benchmark(0.25)
    for N, M in ((3, 1), (2, 2)):
        degrees = mesh.DegreeAssignment.uniform(quad44, N, M)
        space = globalsolve.build_space(quad44, fine_quad44, A, degrees)
        for group, iface, bub in space.dofs.groups:
            for part in (iface, bub):
                G, V = part.gram(), part.gather()
                for e, K in enumerate(group.elements.tolist()):
                    geom = finefem.element_geometry(fine_quad44, K)
                    want = finefem.energy_inner_matrix(V[e], geom, A)
                    assert np.abs(G[e] - want).max() <= \
                        1e-13 * np.abs(want).max()


def test_assembly_needs_the_space_coefficient(quad44, fine_quad44):
    A = finefem.periodic_benchmark(0.25)
    space = globalsolve.build_space(
        quad44, fine_quad44, A, mesh.DegreeAssignment.uniform(quad44, 2, 0))
    with pytest.raises(ValueError, match="not the space's coefficient"):
        globalsolve.assemble_coarse(space, finefem.periodic_benchmark(0.25),
                                    None)


def test_triangle_space_smoke(tri44, fine_tri44):
    A = finefem.identity_field()
    degrees = mesh.DegreeAssignment.uniform(tri44, 1, 1)
    space = globalsolve.build_space(tri44, fine_tri44, A, degrees)
    # dim of degree-1 triangle bulk space is 3
    assert space.n_bubble == 32 * 3
    systems = globalsolve.assemble_coarse(space, A, finefem.constant_rhs(-1.0))
    sol = globalsolve.solve_coarse(systems)
    u = globalsolve.reconstruct(sol)
    assert np.isfinite(u.values).all() and np.abs(u.values).max() > 0


@pytest.mark.parametrize("kind, n, n_sub", [("triangle", 3, 4),
                                             ("quad", 2, 64)])
def test_batched_assembly_matches_per_element_grams(kind, n, n_sub):
    # the coarse systems against one energy_inner_matrix call and one
    # load_vector per element; quad patches of 8,192 triangles are split
    # over several chunks, and one edge of degree 4 gives the elements of
    # one shape different interface counts, so the interface blocks are
    # padded
    coarse = mesh.build_coarse(kind, n, n)
    fine = mesh.refine_to_fine(coarse, n_sub)
    A, f = finefem.periodic_benchmark(0.25), finefem.gaussian_rhs()
    degrees = mesh.DegreeAssignment.uniform(coarse, 3, 1)
    degrees.M[0] = 0
    degrees.N[int(coarse.interior_edge_ids[0])] = 4
    space = globalsolve.build_space(coarse, fine, A, degrees)
    systems = globalsolve.assemble_coarse(space, A, f, with_cross=True)
    n_if = space.n_interface
    K = np.zeros((space.n_dofs, space.n_dofs))
    b = np.zeros(space.n_dofs)
    for e in range(coarse.n_elements):
        geom = finefem.element_geometry(fine, e)
        dofs = np.array(element_dofs(space)[e])
        V = np.stack([space_fields(space, p)[e] for p in dofs])
        K[np.ix_(dofs, dofs)] += finefem.energy_inner_matrix(V, geom, A)
        b[dofs] += V @ finefem.load_vector(geom, f)

    def close(got, want, scale=None):
        scale = np.abs(want).max() if scale is None else scale
        return np.abs(got - want).max() <= 1e-13 * scale

    op = systems.interface_K
    assert close(dense(op), K[:n_if, :n_if])
    assert close(op.diagonal(), np.diag(K)[:n_if], np.abs(K[:n_if]).max())
    counts = [sum(p < n_if for p in dofs) for dofs in element_dofs(space)]
    assert len(set(counts)) > 1
    assert op.nnz == sum(c * c for c in counts)
    assert close(systems.interface_rhs, b[:n_if])
    # one block per element with bubbles, in element order
    bubbles = [[p for p in dofs if p >= n_if] for dofs in element_dofs(space)]
    assert [list(ids) for ids, _, _ in systems.bubble_blocks] == \
        [ids for ids in bubbles if ids]
    assert not bubbles[0] and all(bubbles[1:])
    for ids, Mb, bb in systems.bubble_blocks:
        assert close(Mb, K[np.ix_(ids, ids)])
        assert close(bb, b[ids])
    # the cross Gram vanishes to solver accuracy, so it is measured
    # against the scale of the whole matrix
    assert close(systems.cross_gram, K[n_if:, :n_if], np.abs(K).max())


def test_check_resolved_builds_one_basis_per_degree(monkeypatch, tri44,
                                                    fine_tri44):
    built = []
    real = polybasis.BulkPolyBasis

    def counting(kind, M):
        built.append(M)
        return real(kind, M)

    # the bulk dimensions come from their formula, so no basis is built
    monkeypatch.setattr(polybasis, "BulkPolyBasis", counting)
    degrees = mesh.DegreeAssignment.uniform(tri44, 1, 2)
    degrees.M[[0, 5, 7]] = [1, 1, 0]
    globalsolve.check_degrees(fine_tri44, degrees)
    assert built == []


def counting(monkeypatch, owner, name) -> list:
    """The arguments of every call of owner.name from now on."""
    calls = []
    real = getattr(owner, name)

    def counted(*args, **kw):
        calls.append(args)
        return real(*args, **kw)

    monkeypatch.setattr(owner, name, counted)
    return calls


# Mixed bubble degrees, so several bubble stacks: the solve-quad-enriched
# workload under the Gaussian load (stacks of 4, 9 and 16 bubbles), and
# 12x12 triangles, whose two patch shapes make two patch groups (3 and 6).
MIXED = {
    "mixq": (dict(kind="quad", nx=8, ny=8, n_sub=16, N=3,
                  coefficient={"type": "periodic_benchmark", "eps": 0.0625},
                  rhs={"type": "gaussian_benchmark"},
                  M={"default": 2,
                     "overrides": {"0": 0, "5": 1, "9": 3, "20": 1}}),
             1, [4, 9, 16]),
    "mixt": (dict(kind="triangle", nx=12, ny=12, n_sub=8, N=2,
                  coefficient={"type": "periodic_benchmark", "eps": 1 / 12},
                  M={"default": 1, "overrides": {"0": 0, "3": 2, "100": 2}}),
             2, [3, 6]),
}


@pytest.mark.parametrize("name", sorted(MIXED))
def test_bubble_stacks_solve_bitwise_as_an_element_loop(name, monkeypatch):
    config, n_groups, sizes = MIXED[name]
    problem = cli.build_problem(cli.RunConfig.from_dict(config))
    space = globalsolve.build_space(problem.coarse, problem.fine, problem.A,
                                    problem.degrees)
    assert len(space.dofs.groups) == n_groups
    systems = globalsolve.assemble_coarse(space, problem.A, problem.f)
    assert [ids.shape[1] for ids, _, _ in systems.bubbles] == sizes
    # each stack row is one element, and every bubble DOF sits in one row
    for ids, blocks, rhs in systems.bubbles:
        assert blocks.shape == ids.shape + ids.shape[1:]
        assert rhs.shape == ids.shape
    rows = np.concatenate([ids.ravel() for ids, _, _ in systems.bubbles])
    assert np.array_equal(np.sort(rows),
                          np.arange(space.n_interface, space.n_dofs))
    # the per-element views, in element order
    blocks = systems.bubble_blocks
    assert len(blocks) == np.count_nonzero(space.degrees.M)
    assert np.all(np.diff([ids[0] for ids, _, _ in blocks]) > 0)
    solves = counting(monkeypatch, np.linalg, "solve")
    sol = globalsolve.solve_coarse(systems)
    assert len(solves) == len(sizes)
    monkeypatch.undo()
    loop = np.zeros(space.n_dofs)
    for ids, Mb, bb in blocks:
        loop[ids] = np.linalg.solve(Mb, bb)
    assert sol.coeffs[space.n_interface:].tobytes() == \
        loop[space.n_interface:].tobytes()


def test_each_part_reconstructed_once_per_run(monkeypatch, tmp_path):
    parts = counting(monkeypatch, globalsolve, "reconstruct")
    combines = counting(monkeypatch, localbasis.Fields, "combine")
    result = cli.run_single(cli.RunConfig.from_dict(MIXED["mixt"][0]))
    assert sorted(which for _, which in parts) == ["bubble", "interface"]
    assert len(combines) == 2 * len(result.solution.space.dofs.groups)
    # the total and each part again read the kept parts
    total = globalsolve.reconstruct(result.solution)
    assert np.array_equal(total.values, result.solution.bubble.values
                          + result.solution.interface.values)
    assert len(parts) == 3 and len(combines) == 4
    # so does an errmap run, which also scores the interface part
    parts.clear()
    config = cli.RunConfig.from_dict(dict(MIXED["mixt"][0], M=0))
    assert cli.cmd_errmap(config, str(tmp_path / "map.csv")) == 0
    assert sorted(which for _, which in parts) == ["bubble", "interface"]
