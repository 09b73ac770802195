"""The traced benchmark child wraps package attributes by name and reads
solver operators through their public attributes; every name it lists
must still exist where it looks for it, and what it reads must work on
the operators the solves now use."""

import importlib.util
from pathlib import Path

import numpy as np

from legmsfem import finefem, globalsolve, localbasis, multigrid

TRACED_PY = Path(__file__).resolve().parent.parent / "perfbench" / "traced.py"


def load_traced():
    spec = importlib.util.spec_from_file_location("perfbench_traced",
                                                  TRACED_PY)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    return traced


def test_traced_names_exist():
    traced = load_traced()
    assert traced.TRACED
    for owner, attr, name in traced.TRACED:
        assert attr in owner.__dict__, f"{name}: {owner.__name__}.{attr}"
        assert callable(owner.__dict__[attr])


def test_traced_info_reads_fine_and_interface_operators(small_bench_bubbles):
    # INFO["finefem.pcg"] reads args[0].nnz on every pcg call, and the
    # invariants call interface_K.diagonal(): perfbench/run.py --trace 1
    # breaks if either operator loses them
    traced = load_traced()
    info = traced.INFO["finefem.pcg"]
    res = small_bench_bubbles
    space = res.solution.space
    system = finefem.assemble(finefem.global_geometry(space.fine), space.A,
                              res.problem.f)
    args = (system.K, system.K.box(system.rhs), 1e-10,
            multigrid.Multigrid(system))
    out = finefem.pcg(*args)
    assert info(args, out) == {"iters": out[1], "nnz": system.K.nnz}
    assert system.K.nnz > system.K.shape[0] > 0

    systems = globalsolve.assemble_coarse(space, space.A, res.problem.f)
    args = (systems.interface_K, systems.interface_rhs, 1e-12)
    out = finefem.pcg(*args)
    assert info(args, out) == {"iters": out[1],
                               "nnz": systems.interface_K.nnz}
    d = systems.interface_K.diagonal()
    assert d.shape == (space.n_interface,) and (d > 0).all()
    # the cross-Gram invariant of a run with bubbles goes through
    # interface_K.diagonal() as well
    assert traced.invariants(res)["cross_gram"] <= 1e-8


def test_traced_info_counts_the_dofs_of_compute_all(small_bench_bubbles):
    # INFO["localbasis.compute_all"] reads len() of the DOF table that
    # compute_all returns: the localbasis.functions metric
    traced = load_traced()
    space = small_bench_bubbles.solution.space
    table = localbasis.compute_all(space.coarse, space.fine, space.A,
                                   space.degrees)
    info = traced.INFO["localbasis.compute_all"]((), table)
    assert info == {"functions": space.n_dofs} == {"functions": 97}
