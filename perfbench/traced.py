"""Traced child: one legmsfem CLI invocation with spans around the public
functions of every module, followed by the paper's invariant checks.

    python perfbench/traced.py RECORD_JSON RUN_ID CLI_ARG...

The wrappers live here, not in the package: they replace module and class
attributes before ``cli.main`` runs, so calls made through the module
(``finefem.assemble``) and calls inside a module (``pcg`` from
``solve_spd``) both go through them.  Spans are kept in memory and written
out after ``cli.main`` returns, next to RECORD_JSON; the record holds the
per-layer metrics, the invariant values and the monotonic time at which
``cli.main`` returned.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import numpy as np

from legmsfem import (cli, errors, estimator, finefem, globalsolve,
                      localbasis, mesh, polybasis)

# (owner, attribute, span name).  The span names are the phase names a
# run trace of the program itself should reuse.
TRACED = [
    (cli, "build_problem", "cli.build_problem"),
    (cli, "run_single", "cli.run_single"),
    (mesh, "refine_to_fine", "mesh.refine_to_fine"),
    (mesh.FineMesh, "edge_segment_triangles", "mesh.edge_segment_triangles"),
    (polybasis.BulkPolyBasis, "__init__", "polybasis.BulkPolyBasis"),
    (polybasis.BulkPolyBasis, "eval_ref", "polybasis.eval_ref"),
    (localbasis, "compute_all", "localbasis.compute_all"),
    (finefem, "assemble", "finefem.assemble"),
    (finefem, "load_vector", "finefem.load_vector"),
    (finefem, "pcg", "finefem.pcg"),
    (finefem, "energy_inner_matrix", "finefem.energy_inner_matrix"),
    (globalsolve, "build_space", "globalsolve.build_space"),
    (globalsolve, "assemble_coarse", "globalsolve.assemble_coarse"),
    (globalsolve, "solve_coarse", "globalsolve.solve_coarse"),
    (globalsolve, "reconstruct", "globalsolve.reconstruct"),
    (errors, "reference_solve", "errors.reference_solve"),
    (errors, "bubble_reference", "errors.bubble_reference"),
    (errors, "evaluate", "errors.evaluate"),
    (estimator, "global_estimate", "estimator.global_estimate"),
    (estimator, "jump_norm", "estimator.jump_norm"),
]

# Counts taken from a span's arguments and result.
INFO = {
    "mesh.refine_to_fine": lambda args, out: {"vertices": out.n_vertices},
    "localbasis.compute_all": lambda args, out: {"functions": len(out)},
    "finefem.pcg": lambda args, out: {"iters": out[1], "nnz": args[0].nnz},
    "globalsolve.solve_coarse": lambda args, out: {
        "cg_iters": out.cg_iters, "interface_dofs": out.space.n_interface,
        "bubble_dofs": out.space.n_bubble},
}


class Tracer:
    """Spans as [name, start, end, parent index, run id, info]."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.results: list[cli.RunResult] = []
        self.recording = True

    def wrap(self, owner, attr: str, name: str) -> None:
        fn = owner.__dict__[attr]
        info = INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kw):
            if not self.recording:
                return fn(*args, **kw)
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else None,
                    self.run_id, None]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kw)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if info is not None:
                span[5] = info(args, out)
            if name == "cli.run_single":
                self.results.append(out)
            return out

        setattr(owner, attr, traced)


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer totals.  A time is the span time of a function with
    nested calls of the same function counted once; self time is span time
    minus the time its child spans cover (children of one span run one
    after another, so their durations add up to that coverage)."""
    names = [s[0] for s in spans]
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[3] is not None:
            child_time[s[3]] += s[2] - s[1]

    def ancestors(i):
        p = spans[i][3]
        while p is not None:
            yield p
            p = spans[p][3]

    def under(i, name):
        return any(names[a] == name for a in ancestors(i))

    def of(name):
        return [i for i, n in enumerate(names) if n == name]

    def total(name):
        return sum(spans[i][2] - spans[i][1] for i in of(name)
                   if not under(i, name))

    def info_sum(name, key):
        return sum(spans[i][5][key] for i in of(name)
                   if spans[i][5] is not None)

    offline_pcg = [i for i in of("finefem.pcg")
                   if under(i, "localbasis.compute_all")]
    reference_pcg = [i for i in of("finefem.pcg")
                     if under(i, "errors.reference_solve")]
    return {
        "cli.build_problem_s": total("cli.build_problem"),
        "mesh.refine_s": total("mesh.refine_to_fine"),
        "mesh.fine_vertices": max(
            [spans[i][5]["vertices"] for i in of("mesh.refine_to_fine")],
            default=0),
        "mesh.edge_segment_triangles_s": total("mesh.edge_segment_triangles"),
        "polybasis.bulk_basis_s": (total("polybasis.BulkPolyBasis")
                                   + total("polybasis.eval_ref")),
        "localbasis.compute_all_s": total("localbasis.compute_all"),
        "localbasis.self_s": sum(spans[i][2] - spans[i][1] - child_time[i]
                                 for i in of("localbasis.compute_all")),
        "localbasis.functions": info_sum("localbasis.compute_all",
                                         "functions"),
        "localbasis.pcg_calls": len(offline_pcg),
        "localbasis.pcg_iters": sum(spans[i][5]["iters"]
                                    for i in offline_pcg),
        "finefem.assemble_calls": len(of("finefem.assemble")),
        "finefem.assemble_s": total("finefem.assemble"),
        "finefem.pcg_s": total("finefem.pcg"),
        "finefem.energy_inner_matrix_calls": len(
            of("finefem.energy_inner_matrix")),
        "finefem.energy_inner_matrix_s": total("finefem.energy_inner_matrix"),
        "finefem.load_vector_s": total("finefem.load_vector"),
        "globalsolve.build_space_s": total("globalsolve.build_space"),
        "globalsolve.assemble_coarse_s": total("globalsolve.assemble_coarse"),
        "globalsolve.reconstruct_calls": len(of("globalsolve.reconstruct")),
        "globalsolve.reconstruct_s": total("globalsolve.reconstruct"),
        "globalsolve.solve_coarse_s": total("globalsolve.solve_coarse"),
        "globalsolve.cg_iters": info_sum("globalsolve.solve_coarse",
                                         "cg_iters"),
        "globalsolve.interface_dofs": info_sum("globalsolve.solve_coarse",
                                               "interface_dofs"),
        "globalsolve.bubble_dofs": info_sum("globalsolve.solve_coarse",
                                            "bubble_dofs"),
        "errors.reference_solve_s": total("errors.reference_solve"),
        "errors.reference_iters": sum(spans[i][5]["iters"]
                                      for i in reference_pcg),
        "errors.reference_nnz": max([spans[i][5]["nnz"]
                                     for i in reference_pcg], default=0),
        "errors.bubble_reference_s": total("errors.bubble_reference"),
        "errors.evaluate_s": total("errors.evaluate"),
        "estimator.global_estimate_s": total("estimator.global_estimate"),
        "estimator.jump_norm_calls": len(of("estimator.jump_norm")),
        "estimator.jump_norm_s": total("estimator.jump_norm"),
    }


def invariants(res: cli.RunResult) -> dict[str, float]:
    """The paper's invariants for one solved row, as the acceptance tests
    measure them: the energy identity against the direct quotient, the
    error split for bubble-free spaces and the bubble/interface pairing
    where there are bubbles."""
    report, space = res.report, res.solution.space
    out = {"energy_identity":
           abs(report.E_rel - report.E_rel_direct) / report.E_rel}
    if space.n_bubble == 0:
        out["decomposition"] = report.decomposition_residual
    elif space.n_interface:
        systems = globalsolve.assemble_coarse(space, space.A, res.problem.f,
                                              with_cross=True)
        d_if = systems.interface_K.diagonal()
        d_b = np.concatenate([np.diag(Mb)
                              for _, Mb, _ in systems.bubble_blocks])
        out["cross_gram"] = float(np.abs(
            systems.cross_gram / np.sqrt(np.outer(d_b, d_if))).max())
    return out


def main(argv: list[str]) -> int:
    record_path, run_id, *cli_args = argv
    tracer = Tracer(run_id)
    for owner, attr, name in TRACED:
        tracer.wrap(owner, attr, name)
    code = cli.main(cli_args)
    t_end = time.monotonic()
    tracer.recording = False
    spans_path = record_path.removesuffix(".json") + ".spans.json"
    with open(spans_path, "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "run_id",
                              "info"], "spans": tracer.spans}, fh)
    record = {"exit": code, "t_end": t_end, "spans": spans_path,
              "metrics": layer_metrics(tracer.spans),
              "invariants": [invariants(r) for r in tracer.results]}
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
