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
