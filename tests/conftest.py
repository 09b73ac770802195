"""Shared fixtures: meshes and solved runs reused across test modules.

Everything here is deterministic, so session scope is safe; tests only
read from these objects (geometry caches fill in lazily, which is fine).
"""

import copy

import numpy as np
import pytest

from legmsfem import cli, finefem, mesh


@pytest.fixture(scope="session")
def quad44():
    return mesh.build_coarse("quad", 4, 4)


@pytest.fixture(scope="session")
def tri44():
    return mesh.build_coarse("triangle", 4, 4)


@pytest.fixture(scope="session")
def fine_quad44(quad44):
    return mesh.refine_to_fine(quad44, 8)


@pytest.fixture(scope="session")
def fine_tri44(tri44):
    return mesh.refine_to_fine(tri44, 8)


@pytest.fixture(scope="session")
def small_bench():
    """Resolved periodic problem at desk scale: eps=1/4, 4x4 quads,
    fine cell 1/32 = eps/8."""
    cfg = cli.RunConfig.from_dict({
        "schema": 1, "kind": "quad", "nx": 4, "ny": 4, "n_sub": 8,
        "coefficient": {"type": "periodic_benchmark", "eps": 0.25},
        "rhs": {"type": "constant", "value": -1.0}, "N": 2, "M": 0})
    return cli.run_single(cfg)


@pytest.fixture(scope="session")
def small_bench_bubbles():
    cfg = cli.RunConfig.from_dict({
        "schema": 1, "kind": "quad", "nx": 4, "ny": 4, "n_sub": 8,
        "coefficient": {"type": "periodic_benchmark", "eps": 0.25},
        "rhs": {"type": "constant", "value": -1.0}, "N": 2, "M": 1})
    return cli.run_single(cfg)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260819)


def dense(op) -> np.ndarray:
    """A matrix-free operator (a fine lattice stencil or the interface
    operator) as a dense matrix, one product per unit column."""
    return np.column_stack([op @ e for e in np.eye(op.shape[1])])


def skeleton_geometry(fine) -> finefem.TriGeometry:
    """The global fine mesh with every fine vertex of the coarse skeleton
    (all coarse edges, the domain boundary included) fixed: a shallow copy
    of the global geometry, sharing its arrays and its area-weighted
    coefficient.  Its one fine solve is the bubble reference as first
    defined; the multigrid tests use it for a fixed set off the domain
    boundary."""
    geom = copy.copy(finefem.global_geometry(fine))
    chains = fine.edge_vertex_chains(np.arange(len(fine.coarse.edges)))
    geom.boundary_local = np.unique(chains)
    geom.label = "fine mesh with the coarse skeleton fixed"
    return geom


def fourier_poisson_center(terms: int = 400) -> float:
    """Series value at the center of the unit square for -lap v = 1."""
    s = 0.0
    for m in range(1, terms, 2):
        for n in range(1, terms, 2):
            s += (16.0 / (np.pi**4 * m * n * (m * m + n * n))
                  * np.sin(m * np.pi / 2) * np.sin(n * np.pi / 2))
    return s


def fourier_poisson_integral(terms: int = 800) -> float:
    """Series value of the integral of v for -lap v = 1."""
    s = 0.0
    for m in range(1, terms, 2):
        for n in range(1, terms, 2):
            s += 64.0 / (np.pi**6 * m * m * n * n * (m * m + n * n))
    return s


def edge_vertex_chain(fine, edge_id) -> np.ndarray:
    """Fine vertex ids along one coarse edge, ordered from v0 to v1, walked
    lattice step by lattice step: the per-edge method that the array
    FineMesh.edge_vertex_chains replaced, kept as reference."""
    e = fine.coarse.edges[edge_id]
    nx1, ns = fine.coarse.nx + 1, fine.n_sub
    (ax, ay), (bx, by) = divmod(e.v0, nx1)[::-1], divmod(e.v1, nx1)[::-1]
    return np.array([(ay * ns + t * (by - ay)) * (fine.nfx + 1)
                     + ax * ns + t * (bx - ax) for t in range(ns + 1)])


def table_fields(table, stacks, dof) -> dict:
    """{element: field} of one DOF of a localbasis.DofTable, by element."""
    at = np.flatnonzero(table.dof == dof)
    return {int(table.element[j]): stacks[table.stack[j]][table.row[j]]
            for j in at[np.argsort(table.element[at])]}


def space_fields(space, dof) -> dict:
    """{element: field} of one DOF of an enriched space."""
    return table_fields(space.dofs, space.stacks, dof)


def element_dofs(space) -> list[list[int]]:
    """The DOFs of each element of a space, ascending."""
    dofs = [[] for _ in space.coarse.elements]
    for K, d in sorted(zip(space.dofs.element.tolist(),
                           space.dofs.dof.tolist())):
        dofs[K].append(d)
    return dofs


def vertex_elements(coarse, v) -> list[int]:
    """The elements around a coarse vertex, ascending."""
    return np.flatnonzero((coarse.element_vertices == v).any(axis=1)).tolist()


def vertex_edges(coarse, v) -> list[int]:
    """The edges at a coarse vertex, ascending."""
    return np.flatnonzero((coarse.edge_ends == v).any(axis=1)).tolist()


def anisotropic_field():
    """A full-tensor SPD coefficient: its off-diagonal entries give the
    SW-NE diagonal of every triangle a nonzero coupling, which a scalar
    coefficient never does.  Eigenvalues lie in [0.4, 3.1]."""

    def fn(p):
        x, y = p[:, 0], p[:, 1]
        out = np.empty((len(p), 2, 2))
        out[:, 0, 0] = 2.0 + 0.5 * np.sin(2 * np.pi * x)
        out[:, 1, 1] = 1.5 + 0.5 * np.cos(2 * np.pi * y)
        out[:, 0, 1] = out[:, 1, 0] = 0.4 * np.sin(2 * np.pi * (x + y))
        return out

    return finefem.CoefficientField("anisotropic", 0.3, 3.5, fn)


def dense_factor(D, E):
    """Block elimination with dense sub-diagonal blocks E[i] (elements, w,
    p), every product a matmul: finefem.block_tridiagonal_factor before
    its blocks became stencil couplings, kept as reference."""
    nb = len(D)
    S_inv, G = [None] * nb, [None] * nb
    S = D[0]
    for i in range(nb):
        S_inv[i] = np.linalg.inv(S)
        if i + 1 < nb:
            G[i] = S_inv[i] @ E[i + 1].transpose(0, 2, 1)
            S = D[i + 1] - E[i + 1] @ G[i]
    return S_inv, G


def dense_substitute(factor, E, R):
    """The substitution that went with dense_factor, R[i] (elements,
    fields, w_i), kept as reference."""
    S_inv, G = factor
    g = [finefem._matvecs(S_inv[0], R[0])]
    for i in range(1, len(S_inv)):
        g.append(finefem._matvecs(S_inv[i],
                                  R[i] - finefem._matvecs(E[i], g[-1])))
    x = [g[-1]]
    for i in range(len(S_inv) - 2, -1, -1):
        x.append(g[i] - finefem._matvecs(G[i], x[-1]))
    return x[::-1]


def dense_couplings(C, widths):
    """The sub-diagonal blocks (elements, w_i, w_{i-1}) that the couplings
    C of finefem.RowBlocks.split hold (E[0] is empty)."""
    E = []
    for i, ((cols, vals), w) in enumerate(zip(C, widths)):
        p = widths[i - 1] if i else 0
        Ei = np.zeros((len(vals), w, p))
        if p:
            r = np.arange(w)
            for k in range(len(cols)):
                Ei[:, r, cols[k]] += vals[:, k]
        E.append(Ei)
    return E


def check_against_dense(blocks, factored, D, E, exact):
    """The elimination factored = blocks.factor(st) of finefem.RowBlocks
    against dense_factor and dense_substitute of the dense blocks (D, E)
    of st, solving three random right-hand sides per element.  With one
    coupling per row (exact) S_inv and the solutions are bitwise those of
    the dense path and G equal in value (where a row has no coupling the
    gather multiplies by a zero coupling, whose product may carry the sign
    the dense sum drops); else all agree within 1e-14 relative."""
    (S_inv, G), _ = factored
    S0, G0 = dense_factor(D, E)
    R = np.random.default_rng(7).standard_normal(
        (len(D[0]), 3, int(sum(len(d[0, 0]) for d in D))))
    x = blocks.solve(factored, R)
    x0 = np.concatenate(dense_substitute(
        (S0, G0), E, [R[..., b] for b in blocks.blocks]), axis=-1)
    pairs = list(zip(S_inv + G[:-1] + [x], S0 + G0[:-1] + [x0]))
    assert all(a.shape == b.shape for a, b in pairs)
    if exact:
        assert all(a.tobytes() == b.tobytes() for a, b in zip(S_inv, S0))
        assert all(np.array_equal(a, b) for a, b in zip(G, G0))
        assert x.tobytes() == x0.tobytes()
    else:
        assert all(np.abs(a - b).max() <= 1e-14 * np.abs(b).max()
                   for a, b in pairs)
