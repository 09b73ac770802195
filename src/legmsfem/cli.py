"""Experiment drivers: single solves, parameter sweeps, per-edge error
maps, and basis dumps, all emitting deterministic CSV.

Configs are JSON with a versioned schema.  Rows carry 17 significant
digits so 64-bit floats round-trip; runtime_ms is written as 0 unless
timing is requested, keeping repeated runs byte-identical.
"""

from __future__ import annotations

import argparse
import ast
import errno
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import errors, estimator, finefem, globalsolve, localbasis, mesh

CSV_HEADER = "eps,H,kind,N,M,dofs,E_rel,E_rel_gamma,E_post,runtime_ms,cg_iters"
ERRMAP_HEADER = "edge_id,x0,y0,x1,y1,local_error,local_estimator,log10_ratio"


class ConfigError(Exception):
    """Invalid configuration; messages carry the offending key path."""


# ---------------------------------------------------------------------------
# Configuration


_SAFE_NAMES = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp,
    "sqrt": np.sqrt, "abs": np.abs, "tanh": np.tanh, "log": np.log,
    "pi": np.pi,
}

# The syntax of an expression: numbers, names, calls of the whitelisted
# functions, and arithmetic, comparison and boolean operators (and, or, not
# and the elementwise &, |, ^, ~ of numpy).
_SYNTAX = (ast.Expression, ast.Constant, ast.Name, ast.Load, ast.Call,
           ast.BinOp, ast.UnaryOp, ast.BoolOp, ast.Compare,
           ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod,
           ast.Pow, ast.UAdd, ast.USub, ast.Not, ast.Invert, ast.BitAnd,
           ast.BitOr, ast.BitXor, ast.And, ast.Or, ast.Eq, ast.NotEq,
           ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def _expression(expr: str, where: str):
    """Compile a scalar expression of x and y over a numeric whitelist of
    names and syntax (_SYNTAX); on two probe points it must give one real
    number per point."""
    if not isinstance(expr, str):
        raise ConfigError(f"{where}: must be a string")
    try:
        tree = ast.parse(expr, where, "eval")
    except SyntaxError as exc:
        raise ConfigError(f"{where}: bad expression: {exc}") from None
    nodes = list(ast.walk(tree))
    for node in nodes:
        if isinstance(node, ast.Name) and node.id not in _SAFE_NAMES \
                and node.id not in ("x", "y"):
            raise ConfigError(f"{where}: unknown name {node.id!r} in "
                              "expression")
    for node in nodes:
        if not isinstance(node, _SYNTAX) or (
                isinstance(node, ast.Constant)
                and type(node.value) not in (int, float)) or (
                isinstance(node, ast.Call) and (
                    not isinstance(node.func, ast.Name)
                    or not callable(_SAFE_NAMES.get(node.func.id))
                    or node.keywords)):
            what = ast.unparse(node) or type(node).__name__
            raise ConfigError(f"{where}: bad expression: {what!r} is not a "
                              "number, x, y, a whitelisted name or call, or "
                              "an arithmetic, comparison or boolean "
                              "operation")
    code = compile(tree, where, "eval")

    def values(x, y):
        return eval(code, {"__builtins__": {}}, {"x": x, "y": y,
                                                 **_SAFE_NAMES})

    probe = np.array([0.25, 0.75])
    try:
        with np.errstate(all="ignore"):
            v = np.asarray(values(probe, probe[::-1]))
    except (ArithmeticError, LookupError, TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {expr!r} fails on points: {exc}"
                          ) from None
    if v.dtype.kind not in "biuf" or v.shape not in ((), (1,), probe.shape):
        raise ConfigError(f"{where}: {expr!r} must give one real number "
                          f"per point, got {v.dtype} of shape {v.shape}")

    def fn(x, y):
        return np.broadcast_to(values(x, y), np.shape(x)).astype(float)

    return fn


def _check_keys(d: dict, allowed: set[str], required: set[str], where: str) -> None:
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(d)
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")


def _integer(v) -> bool:
    """Whether a JSON value is an integer; true and false are not."""
    return isinstance(v, int) and not isinstance(v, bool)


def _number(v) -> bool:
    """Whether a JSON value is a finite number; true and false are not,
    nor NaN, Infinity or an integer beyond the float range."""
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def _fits(v: int, where: str) -> int:
    """v, unless the int64 degree arrays cannot hold it."""
    if v > np.iinfo(np.int64).max:
        raise ConfigError(f"{where}: {v} does not fit in a 64-bit integer")
    return v


def _degrees_field(raw, where: str, minimum: int):
    if _integer(raw):
        if raw < minimum:
            raise ConfigError(f"{where}: must be >= {minimum}, got {raw}")
        return _fits(raw, where)
    if isinstance(raw, dict):
        _check_keys(raw, {"default", "overrides"}, {"default"}, where)
        default = raw["default"]
        overrides = raw.get("overrides", {})
        if not isinstance(overrides, dict):
            raise ConfigError(f"{where}.overrides: must be an object")
        if not _integer(default) or default < minimum:
            raise ConfigError(f"{where}.default: must be an integer "
                              f">= {minimum}")
        table = {"default": _fits(default, f"{where}.default"),
                 "overrides": {}}
        for k, v in overrides.items():
            try:
                key = int(k)
            except ValueError:
                raise ConfigError(f"{where}.overrides: non-integer id "
                                  f"{k!r}") from None
            if not _integer(v) or v < minimum:
                raise ConfigError(f"{where}.overrides[{k}]: must be an "
                                  f"integer >= {minimum}")
            table["overrides"][key] = _fits(v, f"{where}.overrides[{k}]")
        return table
    raise ConfigError(f"{where}: expected integer or "
                      "{default, overrides} table")


@dataclass
class RunConfig:
    """One experiment: mesh, coefficient, load, degrees, solver knobs."""

    kind: str = "quad"
    nx: int = 8
    ny: int = 8
    n_sub: int = 16
    domain: tuple[float, float, float, float] = (0.0, 1.0, 0.0, 1.0)
    coefficient: dict = field(default_factory=lambda: {"type": "identity"})
    rhs: dict = field(default_factory=lambda: {"type": "constant",
                                               "value": -1.0})
    N: int | dict = 1
    M: int | dict = 0
    rel_tol: float = 1e-12
    eta: float = 0.0
    ell: int = 0
    strict: bool = False
    seed: int = 0
    out: str | None = None

    _ALLOWED = {"schema", "kind", "nx", "ny", "n_sub", "domain",
                "coefficient", "rhs", "N", "M", "rel_tol", "eta", "ell",
                "strict", "seed", "out"}

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        if not isinstance(d, dict):
            raise ConfigError("config: top level must be an object")
        _check_keys(d, cls._ALLOWED, set(), "config")
        schema = d.get("schema", 1)
        if not _integer(schema) or schema != 1:
            raise ConfigError(f"config.schema: unsupported version "
                              f"{schema!r}")
        c = cls()
        c.kind = d.get("kind", c.kind)
        if c.kind not in ("quad", "triangle"):
            raise ConfigError(f"config.kind: must be quad or triangle, "
                              f"got {c.kind!r}")
        for key in ("nx", "ny", "n_sub"):
            val = d.get(key, getattr(c, key))
            if not _integer(val) or val < 1:
                raise ConfigError(f"config.{key}: must be a positive integer")
            setattr(c, key, val)
        if c.n_sub < 2:
            raise ConfigError("config.n_sub: must be at least 2")
        if (c.nx * c.n_sub + 1) * (c.ny * c.n_sub + 1) >= 2**63:
            raise ConfigError("config: the fine lattice has more vertices "
                              "than a 64-bit integer can index")
        dom = d.get("domain", list(c.domain))
        if (not isinstance(dom, (list, tuple)) or len(dom) != 4
                or not all(_number(v) for v in dom)):
            raise ConfigError("config.domain: must be [x0, x1, y0, y1], "
                              "finite numbers")
        c.domain = tuple(float(v) for v in dom)
        if not (c.domain[0] < c.domain[1] and c.domain[2] < c.domain[3]):
            raise ConfigError("config.domain: must be increasing per axis")
        # The fine lattice must represent the domain: finite sides, and a
        # fine cell area hx * hy that is a normal float.
        Lx, Ly = c.domain[1] - c.domain[0], c.domain[3] - c.domain[2]
        if not (math.isfinite(Lx) and math.isfinite(Ly)):
            raise ConfigError("config.domain: x1 - x0 and y1 - y0 must be "
                              "finite")
        area = Lx / (c.nx * c.n_sub) * (Ly / (c.ny * c.n_sub))
        if area < np.finfo(float).tiny:
            raise ConfigError(f"config.domain: the fine cell area {area!r} "
                              "is below the smallest normal float")
        c.coefficient = d.get("coefficient", c.coefficient)
        c.rhs = d.get("rhs", c.rhs)
        _coefficient_field(c.coefficient)
        _rhs_field(c.rhs)
        c.coefficient, c.rhs = dict(c.coefficient), dict(c.rhs)
        c.N = _degrees_field(d.get("N", c.N), "config.N", 1)
        c.M = _degrees_field(d.get("M", c.M), "config.M", 0)
        for key, lo, hi in (("rel_tol", 0.0, 1.0), ("eta", 0.0, 0.5)):
            val = d.get(key, getattr(c, key))
            if not _number(val) or not lo <= val < hi:
                raise ConfigError(f"config.{key}: must be a finite number in "
                                  f"[{lo}, {hi})")
            setattr(c, key, float(val))
        if c.rel_tol == 0.0:
            raise ConfigError("config.rel_tol: must be positive")
        ell = d.get("ell", c.ell)
        if not _integer(ell) or ell < 0:
            raise ConfigError("config.ell: must be a non-negative integer")
        c.ell = ell
        _check_ell(c.ell, c.M, c.rhs)
        c.strict = d.get("strict", c.strict)
        if not isinstance(c.strict, bool):
            raise ConfigError("config.strict: must be true or false")
        seed = d.get("seed", c.seed)
        if not _integer(seed):
            raise ConfigError("config.seed: must be an integer")
        c.seed = seed
        out = d.get("out", c.out)
        if out is not None and not isinstance(out, str):
            raise ConfigError("config.out: must be a path string")
        c.out = out
        return c

    def to_dict(self) -> dict:
        def deg(v):
            if isinstance(v, dict):
                return {"default": v["default"],
                        "overrides": {str(k): n
                                      for k, n in sorted(v["overrides"].items())}}
            return v
        d = {"schema": 1, "kind": self.kind, "nx": self.nx, "ny": self.ny,
             "n_sub": self.n_sub, "domain": list(self.domain),
             "coefficient": self.coefficient, "rhs": self.rhs,
             "N": deg(self.N), "M": deg(self.M), "rel_tol": self.rel_tol,
             "eta": self.eta, "ell": self.ell, "strict": self.strict,
             "seed": self.seed}
        if self.out is not None:
            d["out"] = self.out
        return d

    @classmethod
    def load(cls, path: str, **overrides) -> "RunConfig":
        """The JSON config at path, with every override that is not None."""
        try:
            with open(path) as fh:
                d = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"{path}: {exc.strerror}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: "
                              f"{exc.msg}") from None
        given = {k: v for k, v in overrides.items() if v is not None}
        return cls.from_dict({**d, **given} if isinstance(d, dict) else d)

    @property
    def eps(self) -> float | None:
        """The period of a periodic_benchmark coefficient, None for the
        others: the CSV's eps column, written as 0 for None.  The
        resolution check reads the coefficient's own period
        (errors.reference_solve)."""
        if self.coefficient.get("type") == "periodic_benchmark":
            return float(self.coefficient["eps"])
        return None


def _coefficient_field(spec: dict) -> finefem.Field:
    if not isinstance(spec, dict) or "type" not in spec:
        raise ConfigError("config.coefficient: needs a type")
    t = spec["type"]
    if t == "identity":
        _check_keys(spec, {"type"}, {"type"}, "config.coefficient")
        return finefem.identity_field()
    if t == "periodic_benchmark":
        _check_keys(spec, {"type", "eps"}, {"type", "eps"},
                    "config.coefficient")
        eps = spec["eps"]
        if not _number(eps) or eps <= 0:
            raise ConfigError("config.coefficient.eps: must be a finite "
                              "positive number")
        return finefem.periodic_benchmark(float(eps))
    if t == "expression":
        _check_keys(spec, {"type", "expr", "alpha_min", "alpha_max"},
                    {"type", "expr", "alpha_min", "alpha_max"},
                    "config.coefficient")
        lo, hi = spec["alpha_min"], spec["alpha_max"]
        if not (_number(lo) and _number(hi) and 0 < lo <= hi):
            raise ConfigError("config.coefficient: need 0 < alpha_min "
                              "<= alpha_max")
        fn = _expression(spec["expr"], "config.coefficient.expr")
        return finefem.Field(f"expression({spec['expr']})", fn,
                             (float(lo), float(hi)))
    raise ConfigError(f"config.coefficient.type: unknown {t!r}")


def _rhs_field(spec: dict) -> finefem.Field:
    if not isinstance(spec, dict) or "type" not in spec:
        raise ConfigError("config.rhs: needs a type")
    t = spec["type"]
    if t == "constant":
        _check_keys(spec, {"type", "value"}, {"type", "value"}, "config.rhs")
        if not _number(spec["value"]):
            raise ConfigError("config.rhs.value: must be a finite number")
        return finefem.constant_rhs(float(spec["value"]))
    if t == "gaussian_benchmark":
        _check_keys(spec, {"type"}, {"type"}, "config.rhs")
        return finefem.gaussian_rhs()
    if t == "expression":
        _check_keys(spec, {"type", "expr"}, {"type", "expr"}, "config.rhs")
        fn = _expression(spec["expr"], "config.rhs.expr")
        return finefem.Field(f"expression({spec['expr']})", fn)
    raise ConfigError(f"config.rhs.type: unknown {t!r}")


def _check_ell(ell: int, M: int | dict, rhs: dict) -> None:
    """ConfigError unless the estimator can use the declared smoothness ell
    of the load rhs with the bulk degrees M: on an element with bubbles it
    takes 0, or 1 with a load that has a gradient (an expression has
    none); elsewhere it ignores ell."""
    if ell == 0 or _column_degree(M) == 0:
        return
    if ell > 1:
        raise ConfigError(f"config.ell: smoothness {ell} of the load is not "
                          "supported with bubbles (M >= 1); use 0 or 1")
    if _rhs_field(rhs).grad is None:
        raise ConfigError("config.ell: smoothness 1 with bubbles (M >= 1) "
                          "needs a load with a gradient; an expression load "
                          "has none")


def _degrees_of(config: RunConfig, coarse: mesh.CoarseMesh
                ) -> mesh.DegreeAssignment:
    """The degree arrays of a config: the defaults, with the overrides
    scattered in once each id is checked to be an interior edge (N) or an
    element (M)."""
    n_def = config.N if isinstance(config.N, int) else config.N["default"]
    m_def = config.M if isinstance(config.M, int) else config.M["default"]
    deg = mesh.DegreeAssignment.uniform(coarse, n_def, m_def)
    if isinstance(config.N, dict):
        interior = coarse.edge_element_ids[:, 1] >= 0
        for k, v in config.N["overrides"].items():
            if not (0 <= k < len(interior) and interior[k]):
                raise ConfigError(f"config.N.overrides: {k} is not an "
                                  "interior edge")
            deg.N[k] = v
    if isinstance(config.M, dict):
        for k, v in config.M["overrides"].items():
            if not 0 <= k < len(deg.M):
                raise ConfigError(f"config.M.overrides: {k} is not an "
                                  "element id")
            deg.M[k] = v
    return deg


def _column_degree(raw) -> int:
    if isinstance(raw, int):
        return raw
    return max([raw["default"], *raw["overrides"].values()])


# ---------------------------------------------------------------------------
# Drivers


@dataclass
class Problem:
    """Meshes and fields instantiated from a config; the coarse mesh is
    the fine mesh's."""

    fine: mesh.FineMesh
    A: finefem.Field
    f: finefem.Field
    degrees: mesh.DegreeAssignment

    @property
    def coarse(self) -> mesh.CoarseMesh:
        return self.fine.coarse


def build_problem(config: RunConfig) -> Problem:
    coarse = mesh.build_coarse(config.kind, config.nx, config.ny,
                               config.domain)
    fine = mesh.refine_to_fine(coarse, config.n_sub)
    A = _coefficient_field(config.coefficient)
    f = _rhs_field(config.rhs)
    degrees = _degrees_of(config, coarse)
    bad = mesh.check_degree_compat(coarse, degrees,
                                   mesh.check_regularity(coarse))
    if bad:
        print(f"warning: {len(bad)} edge pairs violate the degree "
              "comparability condition", file=sys.stderr)
    return Problem(fine, A, f, degrees)


@dataclass
class RunResult:
    """One solved configuration with its numbers and live objects."""

    config: RunConfig
    problem: Problem
    solution: globalsolve.CoarseSolution
    u_ref: finefem.FineFunction
    report: errors.ErrorReport
    est: estimator.EstimatorReport
    runtime_ms: int

    def row(self, timing: bool = False) -> str:
        cells = _lead_cells(self.config) + [
            str(self.solution.space.n_dofs), _fmt(self.report.E_rel),
            _fmt(self.report.E_rel_gamma
                 if self.report.E_rel_gamma is not None else float("nan")),
            _fmt(self.est.value_gamma
                 if self.est.value_gamma is not None else self.est.value),
            str(self.runtime_ms if timing else 0),
            str(self.solution.cg_iters)]
        return ",".join(cells)


def _lead_cells(c: RunConfig, H: float | None = None) -> list[str]:
    """The first five cells of a row of config c (eps, H, kind, N, M), at
    its own H unless given."""
    H = (c.domain[1] - c.domain[0]) / c.nx if H is None else H
    return [_fmt(c.eps or 0.0), _fmt(H), c.kind, str(_column_degree(c.N)),
            str(_column_degree(c.M))]


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def run_single(config: RunConfig, problem: Problem | None = None,
               u_ref: finefem.FineFunction | None = None) -> RunResult:
    """Offline build, online solve, error report and estimator for one
    config.  u_ref may carry the fine reference of a previous run on the
    same fine lattice, coefficient and load, bound to the global geometry
    of this run's fine mesh.

    The bubble reference comes out of the offline sweep (build_space with
    the load), asked for exactly where E_rel_gamma needs it: a bubble-free
    space."""
    t0 = time.perf_counter()
    if problem is None:
        problem = build_problem(config)
    # The fine reference goes first, while nothing else is held: its
    # assembly sets the peak memory of a run.  Degrees are checked before
    # it, so a config the lattice cannot resolve fails without it.
    globalsolve.check_degrees(problem.fine, problem.degrees)
    if u_ref is None:
        u_ref = errors.reference_solve(problem.fine, problem.A, problem.f,
                                       config.rel_tol, strict=config.strict)
    space = globalsolve.build_space(
        problem.fine, problem.A, problem.degrees,
        f=None if problem.degrees.M.any() else problem.f)
    systems = globalsolve.assemble_coarse(space, problem.A, problem.f)
    solution = globalsolve.solve_coarse(systems, config.rel_tol)
    report = errors.evaluate(solution, u_ref, space.bubble_reference)
    est = estimator.global_estimate(solution, config.eta, config.ell)
    ms = int(round(1000 * (time.perf_counter() - t0)))
    return RunResult(config, problem, solution, u_ref, report, est, ms)


def _emit(lines: list[str], out: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"{out}: {exc.strerror}") from None


def cmd_solve(config: RunConfig, out: str | None = None,
              timing: bool = False) -> int:
    result = run_single(config)
    _emit([CSV_HEADER, result.row(timing)], out)
    return 0


def _failed_row(config: RunConfig, exc: Exception,
                H: float | None = None) -> str:
    """The CSV row of a failed run of config, its own H unless given."""
    print(f"warning: row failed: {exc}", file=sys.stderr)
    return ",".join(_lead_cells(config, H)
                    + ["0", "nan", "nan", "nan", "0", "0"])


def cmd_sweep(config: RunConfig, axis: str, values: list[float],
              out: str | None = None, timing: bool = False) -> int:
    """One row per value along the axis, each row building its own space;
    the meshes are shared where they stay fixed, and the fine reference of
    the first good row on every axis but eps (an H row keeps the fine
    lattice).  The values are checked before any row runs, an N sweep's
    largest N against the fine lattice too; failed rows are recorded and
    the sweep continues."""
    if axis not in ("H", "N", "M", "eps"):
        raise ConfigError(f"sweep axis must be H, N, M or eps, got {axis!r}")
    if not values:
        raise ConfigError("sweep needs at least one value")
    if axis in ("N", "M"):
        lo = 1 if axis == "N" else 0
        if any(not float(v).is_integer() or v < lo for v in values):
            raise ConfigError(f"sweep {axis} values must be integers >= {lo}")
    if axis == "M":
        _check_ell(config.ell, int(max(values)), config.rhs)
    if axis == "eps":
        if config.coefficient.get("type") != "periodic_benchmark":
            raise ConfigError("eps sweep needs the periodic_benchmark "
                              "coefficient")
        if not all(v > 0 for v in values):
            raise ConfigError("eps values must be positive")

    problem = u_ref = None
    if axis in ("N", "M"):
        problem = build_problem(config)
        if axis == "N":
            globalsolve.check_degrees(problem.fine, _degrees_of(
                _with(config, N=int(max(values)), M=0), problem.coarse))

    # An H row builds its own meshes, so a ConfigError there (an H that
    # does not tile the domain, an override the new mesh lacks) is the
    # row's; on the other axes the meshes are the config's own.  A load
    # value that is not finite is never the row's own: every row of every
    # axis evaluates the load on the same fine lattice, so it ends the
    # sweep.
    failures = (finefem.SolverDivergenceError, np.linalg.LinAlgError,
                ValueError) + ((ConfigError,) if axis == "H" else ())
    rows = [CSV_HEADER]
    for v in values:
        cfg = config
        try:
            if axis == "H":
                cfg = _h_config(config, v)
            elif axis == "eps":
                cfg = _with(config, coefficient={"type": "periodic_benchmark",
                                                 "eps": float(v)})
            else:
                cfg = _with(config, **{axis: int(v)})
            row_problem = (build_problem(cfg) if problem is None else replace(
                problem, degrees=_degrees_of(cfg, problem.coarse)))
            if u_ref is not None:
                # The reference depends on the fine lattice, the
                # coefficient and the load only; errors.evaluate and the
                # estimator check its geometry by identity, so it is
                # bound to the row's own.
                u_ref = finefem.FineFunction(
                    finefem.global_geometry(row_problem.fine), u_ref.values)
            res = run_single(cfg, row_problem, u_ref)
            if axis != "eps":
                u_ref = res.u_ref
            rows.append(res.row(timing))
        except finefem.LoadValueError:
            raise
        except failures as exc:
            rows.append(_failed_row(cfg, exc, H=v if axis == "H" else None))
    _emit(rows, out)
    return 0


def _h_config(config: RunConfig, H: float) -> RunConfig:
    """config on the coarse mesh of size H over the same fine grid;
    ConfigError where there is none."""
    Lx = config.domain[1] - config.domain[0]
    Ly = config.domain[3] - config.domain[2]
    fine_cells = config.nx * config.n_sub
    nx, ny = (round(Lx / H), round(Ly / H)) if H > 0 else (0, 0)
    if nx < 1 or ny < 1 or abs(Lx / H - nx) > 1e-9 * nx:
        raise ConfigError(f"H={H!r} does not tile the domain")
    if fine_cells % nx:
        raise ConfigError(f"H={H!r} does not preserve the fine grid of "
                          f"{fine_cells} cells per side")
    if ny * (fine_cells // nx) != config.ny * config.n_sub:
        raise ConfigError(f"H={H!r} cannot keep the fine grid on both axes")
    return _with(config, nx=nx, ny=ny, n_sub=fine_cells // nx)


def _with(config: RunConfig, **kw) -> RunConfig:
    d = config.to_dict()
    d.update(kw)
    return RunConfig.from_dict(d)


def cmd_errmap(config: RunConfig, out: str | None = None) -> int:
    """Per-edge localized error and estimator with their log10 ratio.
    Interface mode only: bubble degrees must be zero everywhere."""
    if _column_degree(config.M) != 0:
        raise ConfigError("errmap requires M = 0 (interface localization)")
    result = run_single(config)
    coarse = result.problem.coarse
    est_map = estimator.localize(result.est, coarse)
    err_map = np.zeros(0)
    if coarse.interior_edge_ids.size:  # one element has no interface
        err_map, _ = errors.interface_error_map(result.solution,
                                                result.u_ref)
    ratios, _ = estimator.effectivity_map(est_map, err_map)
    rows = [ERRMAP_HEADER]
    with np.errstate(divide="ignore"):
        for i, eid in enumerate(coarse.interior_edge_ids.tolist()):
            p0, p1 = coarse.vertices[coarse.edge_ends[eid]]
            rows.append(",".join([
                str(eid), _fmt(p0[0]), _fmt(p0[1]), _fmt(p1[0]), _fmt(p1[1]),
                _fmt(err_map[i]), _fmt(est_map[i]),
                _fmt(np.log10(ratios[i]) if ratios[i] > 0
                     else float("-inf"))]))
    _emit(rows, out)
    return 0


def cmd_basis_dump(config: RunConfig, selector: str,
                   out: str | None = None) -> int:
    """Point cloud of one basis function, nodal:V, edge:E:K or bubble:K:I,
    from the solves on its support alone."""
    name, *ids = selector.split(":")
    kinds = {"nodal": localbasis.NODAL, "edge": localbasis.EDGE,
             "bubble": localbasis.BUBBLE}
    if name not in kinds or len(ids) != 1 + (name != "nodal"):
        raise ConfigError(f"bad basis selector {selector!r}; use nodal:V, "
                          "edge:E:K or bubble:K:I")
    try:
        select = (kinds[name], *(int(i) for i in ids), 0)[:3]
    except ValueError:
        raise ConfigError(f"bad basis selector {selector!r}: "
                          "indices must be integers") from None
    problem = build_problem(config)
    globalsolve.check_degrees(problem.fine, problem.degrees)
    table = localbasis.compute_all(problem.fine, problem.A, problem.degrees,
                                   support_of=select)
    dof = table.find(*select)
    if dof < 0:
        raise ConfigError(f"selector {selector!r} matches no basis function "
                          "in this configuration")
    pts = localbasis.dump_points(table, dof, problem.fine)
    rows = ["x,y,value"] + [",".join(_fmt(v) for v in row) for row in pts]
    _emit(rows, out)
    return 0


def cmd_selftest() -> int:
    """Small smoke checks printed as PASS/FAIL lines; exit 0 iff all pass."""
    from . import polybasis
    checks: list[tuple[str, bool]] = []

    rule = polybasis.gauss_lobatto(4)
    exact = [2.0, 0.0, 2.0 / 3.0, 0.0, 0.4, 0.0]
    ok = all(abs(rule.weights @ rule.nodes**d - e) < 1e-12
             for d, e in enumerate(exact))
    checks.append(("gauss-lobatto degree-5 exactness", ok))

    coarse = mesh.build_coarse("quad", 4, 4)
    checks.append(("structured quad mesh counts",
                   coarse.n_elements == 16 and coarse.n_edges == 40))

    cfg = RunConfig.from_dict({"schema": 1, "kind": "triangle", "nx": 4,
                               "ny": 4, "n_sub": 4, "N": 1, "M": 0})
    r1 = run_single(cfg)
    r2 = run_single(cfg)
    checks.append(("identity problem deterministic rows",
                   r1.row() == r2.row()))
    checks.append(("round-trip config",
                   RunConfig.from_dict(cfg.to_dict()).to_dict() == cfg.to_dict()))

    failed = [name for name, ok in checks if not ok]
    for name, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    return 0 if not failed else 3


# ---------------------------------------------------------------------------
# Entry point


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, "
                                         f"got {text!r}")
    return value


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="legmsfem",
                                description="Multiscale FEM benchmark runner")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, config=True):
        if config:
            sp.add_argument("--config", required=True, help="JSON config path")
        sp.add_argument("--out", default=None, help="output CSV path "
                        "(default stdout)")
        sp.add_argument("--workers", type=_positive_int, default=1,
                        help="accepted for compatibility; has no effect")
        sp.add_argument("--strict", action="store_true",
                        help="fail instead of warn on unresolved scales")
        sp.add_argument("--rel-tol", type=float, default=None)
        sp.add_argument("--eta", type=float, default=None)
        sp.add_argument("--timing", action="store_true",
                        help="record wall time (breaks byte-determinism)")

    common(sub.add_parser("solve", help="single run, one CSV row"))
    sp = sub.add_parser("sweep", help="one CSV row per axis value")
    common(sp)
    sp.add_argument("--axis", required=True, choices=["H", "N", "M", "eps"])
    sp.add_argument("--values", required=True,
                    help="comma-separated axis values")
    common(sub.add_parser("errmap", help="per-edge error/estimator map"))
    sp = sub.add_parser("basis-dump", help="dump one basis function")
    common(sp)
    sp.add_argument("--basis", required=True,
                    help="selector: nodal:V, edge:E:K or bubble:K:I")
    sub.add_parser("selftest", help="quick smoke checks")
    return p


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "selftest":
        return cmd_selftest()
    try:
        config = RunConfig.load(args.config, strict=args.strict or None,
                                rel_tol=args.rel_tol, eta=args.eta)
        out = args.out if args.out is not None else config.out
        # Checked before any solve, so a run does not end in a path it
        # cannot write (the file itself is made only once the run is done).
        if out is not None and not os.path.isdir(os.path.dirname(out) or "."):
            raise ConfigError(f"{out}: {os.strerror(errno.ENOENT)}")
        if args.command == "solve":
            return cmd_solve(config, out, args.timing)
        if args.command == "sweep":
            try:
                values = [float(v) for v in args.values.split(",") if v]
            except ValueError:
                raise ConfigError(f"bad --values {args.values!r}") from None
            return cmd_sweep(config, args.axis, values, out, args.timing)
        if args.command == "errmap":
            return cmd_errmap(config, out)
        return cmd_basis_dump(config, args.basis, out)
    except (ConfigError, finefem.CoefficientBoundsError,
            finefem.LoadValueError, globalsolve.UnresolvedDegreeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except (finefem.SolverDivergenceError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
