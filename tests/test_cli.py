import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import (edge_elements, is_boundary_edge, to_ref,
                      triangle_cells, vertex_elements)
from legmsfem import (cli, errors, estimator, finefem, globalsolve,
                      localbasis, mesh, multigrid)

BASE = {"schema": 1, "kind": "quad", "nx": 4, "ny": 4, "n_sub": 8,
        "coefficient": {"type": "periodic_benchmark", "eps": 0.25},
        "rhs": {"type": "constant", "value": -1.0}, "N": 2, "M": 0}


def cfg_dict(**kw):
    d = dict(BASE)
    d.update(kw)
    return d


def write_cfg(tmp_path, name="run.json", **kw):
    path = tmp_path / name
    path.write_text(json.dumps(cfg_dict(**kw)))
    return str(path)


def test_roundtrip_idempotent():
    d = cfg_dict(N={"default": 2, "overrides": {"11": 4}},
                 M={"default": 0, "overrides": {"5": 2}},
                 out="rows.csv")
    once = cli.RunConfig.from_dict(d).to_dict()
    assert cli.RunConfig.from_dict(once).to_dict() == once
    assert once["N"]["overrides"] == {"11": 4}
    assert once["out"] == "rows.csv"


@pytest.mark.parametrize("patch,needle", [
    ({"kind": "hex"}, "config.kind"),
    ({"nx": 0}, "config.nx"),
    ({"ny": True}, "config.ny"),
    ({"n_sub": -2}, "config.n_sub"),
    ({"domain": [0, 1, 1, 0]}, "increasing"),
    ({"domain": [0, 1, 0]}, "config.domain"),
    ({"rel_tol": 0}, "config.rel_tol"),
    ({"rel_tol": 1.0}, "config.rel_tol"),
    ({"eta": 0.5}, "config.eta"),
    ({"ell": -1}, "config.ell"),
    ({"seed": 0}, "unknown keys"),
    ({"schema": 2}, "config.schema"),
    ({"bogus": 1}, "unknown keys"),
    ({"N": 0}, "config.N"),
    ({"M": -1}, "config.M"),
    ({"N": {"default": 2, "overrides": {"abc": 3}}}, "config.N.overrides"),
    ({"N": {"default": 2, "overrides": {"3": 0}}}, "config.N.overrides"),
    ({"coefficient": {"type": "mystery"}}, "config.coefficient.type"),
    ({"coefficient": {"type": "periodic_benchmark", "eps": -1}},
     "config.coefficient.eps"),
    ({"coefficient": {"type": "periodic_benchmark"}}, "missing keys"),
    ({"rhs": {"type": "constant"}}, "missing keys"),
    ({"rhs": {"type": "mystery"}}, "config.rhs.type"),
])
def test_config_validation(patch, needle):
    with pytest.raises(cli.ConfigError, match=needle.replace("[", "\\[")):
        cli.RunConfig.from_dict(cfg_dict(**patch))


@pytest.mark.parametrize("patch,needle", [
    ({"strict": "false"}, "config.strict"),
    ({"schema": True}, "config.schema"),
    ({"N": {"default": True}}, "config.N.default"),
    ({"M": {"default": True}}, "config.M.default"),
    ({"N": {"default": 2, "overrides": {"11": True}}},
     "config.N.overrides[11]"),
    ({"M": {"default": 0, "overrides": {"5": True}}},
     "config.M.overrides[5]"),
    ({"domain": [0, True, 0, 1]}, "config.domain"),
    ({"coefficient": {"type": "periodic_benchmark", "eps": True}},
     "config.coefficient.eps"),
    ({"coefficient": {"type": "expression", "expr": "1 + x",
                      "alpha_min": True, "alpha_max": 2.0}},
     "config.coefficient: need 0 < alpha_min"),
    ({"coefficient": {"type": "expression", "expr": "1",
                      "alpha_min": 0.5, "alpha_max": True}},
     "config.coefficient: need 0 < alpha_min"),
    ({"rhs": {"type": "constant", "value": True}}, "config.rhs.value"),
    ({"N": {"default": 2, "overrides": [[11, 3]]}},
     "config.N.overrides: must be an object"),
    ({"coefficient": [["type", "identity"]]}, "config.coefficient"),
    ({"rhs": "constant"}, "config.rhs"),
    ({"rhs": {"type": "expression", "expr": 1}}, "config.rhs.expr"),
    ({"eta": False}, "config.eta")],
    ids=["strict", "schema", "N.default", "M.default", "N.overrides", "M.overrides",
         "domain", "eps", "alpha_min", "alpha_max", "rhs.value",
         "overrides-list", "coefficient-pairs", "rhs-string", "expr-number",
         "eta"])
def test_config_values_of_the_wrong_json_type(tmp_path, capsys, patch,
                                               needle):
    # a JSON string or boolean is not read as a boolean or a number, nor a
    # list or a string as an object
    path = write_cfg(tmp_path, **patch)
    assert cli.main(["solve", "--config", path]) == 2
    assert needle in capsys.readouterr().err


def test_seed_key_exits_2_as_unknown(tmp_path, capsys):
    # no command draws random numbers, so the config has no seed: a config
    # that sets one exits 2 before any solve
    path = write_cfg(tmp_path, seed=0)
    assert cli.main(["solve", "--config", path]) == 2
    assert "unknown keys ['seed']" in capsys.readouterr().err


def test_load_reports_json_position(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{\n  "kind": quad\n}\n')
    with pytest.raises(cli.ConfigError, match=r":2:"):
        cli.RunConfig.load(str(p))
    with pytest.raises(cli.ConfigError):
        cli.RunConfig.load(str(tmp_path / "absent.json"))


def test_expression_fields():
    d = cfg_dict(coefficient={"type": "expression",
                              "expr": "1 + 0.5*sin(x)*sin(y)",
                              "alpha_min": 0.5, "alpha_max": 1.5},
                 rhs={"type": "expression", "expr": "exp(-x*y)"})
    cfg = cli.RunConfig.from_dict(d)
    problem = cli.build_problem(cfg)
    pts = np.array([[0.2, 0.7]])
    got = problem.A.at(pts)[0]
    assert abs(got - (1 + 0.5 * math.sin(0.2) * math.sin(0.7))) < 1e-15
    assert abs(problem.f.at(pts)[0] - math.exp(-0.14)) < 1e-15


def test_expression_rejects_unknown_names():
    for expr in ("os.system('x')", "__import__('os')", "open('f')", "z + 1"):
        with pytest.raises(cli.ConfigError, match="unknown name|bad expression"):
            cli.RunConfig.from_dict(
                cfg_dict(rhs={"type": "expression", "expr": expr}))


@pytest.mark.parametrize("key", ["coefficient", "rhs"])
@pytest.mark.parametrize("expr", ["1+1j*x", "x*1j", "[x]", "x if x else y",
                                  "'a'", "1/0"])
def test_expression_must_give_one_real_number_per_point(expr, key, tmp_path,
                                                        capsys):
    # a complex value, a list, a string or a Python error is a config
    # error at load, naming the key path; a complex coefficient does not
    # run as its real part
    spec = ({"type": "expression", "expr": expr, "alpha_min": 1.0,
             "alpha_max": 2.0} if key == "coefficient"
            else {"type": "expression", "expr": expr})
    path = write_cfg(tmp_path, n_sub=4, N=1, **{key: spec})
    out = tmp_path / "x.csv"
    assert cli.main(["solve", "--config", path, "--out", str(out)]) == 2
    assert f"config.{key}.expr" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key", ["coefficient", "rhs"])
@pytest.mark.parametrize("expr", ["1 + x[0]", "x[1:]", "(lambda: x)()",
                                  "[x for _ in (1,)][0]", "sin(x, out=y)",
                                  "x.real", "x in y"])
def test_expression_syntax_outside_the_language_fails_at_load(
        expr, key, tmp_path, capsys):
    # a subscript, a slice, a lambda, a comprehension, a keyword, an
    # attribute or a membership test is a config error naming the key
    # path, exit 2 before any solve: "1 + x[0]" once ran as the constant
    # 1 + x of the first point of each evaluation, and a lambda or a
    # comprehension ended in a traceback
    spec = ({"type": "expression", "expr": expr, "alpha_min": 1.0,
             "alpha_max": 2.0} if key == "coefficient"
            else {"type": "expression", "expr": expr})
    path = write_cfg(tmp_path, nx=2, ny=2, n_sub=4, N=1, **{key: spec})
    out = tmp_path / "x.csv"
    assert cli.main(["solve", "--config", path, "--out", str(out)]) == 2
    assert f"config.{key}.expr" in capsys.readouterr().err
    assert not out.exists()


def test_expression_of_bools_and_constants_loads():
    for expr in ("x > 0.5", "2", "1 + 0*x"):
        cli.RunConfig.from_dict(cfg_dict(
            coefficient={"type": "expression", "expr": expr,
                         "alpha_min": 0.5, "alpha_max": 3.0},
            rhs={"type": "expression", "expr": expr}))


def test_degree_override_must_hit_interior_edge(tmp_path, capsys):
    cfg = cli.RunConfig.from_dict(
        cfg_dict(N={"default": 2, "overrides": {"0": 3}}))
    with pytest.raises(cli.ConfigError, match="not an interior edge"):
        cli.build_problem(cfg)
    cfg = cli.RunConfig.from_dict(
        cfg_dict(M={"default": 0, "overrides": {"99": 1}}))
    with pytest.raises(cli.ConfigError, match="not an element id"):
        cli.build_problem(cfg)
    # edge 2 is a boundary edge whose id equals the default degree 2, so a
    # test of value membership in the degree array would let it through;
    # a negative id would index the arrays from the end
    coarse = mesh.build_coarse("quad", 4, 4)
    assert is_boundary_edge(coarse, 2)
    bad = [("N", {"default": 2, "overrides": {"2": 3}}, "not an interior edge"),
           ("N", {"default": 2, "overrides": {"-1": 3}}, "not an interior edge"),
           ("N", {"default": 2, "overrides": {"40": 3}}, "not an interior edge"),
           ("M", {"default": 0, "overrides": {"16": 1}}, "not an element id"),
           ("M", {"default": 0, "overrides": {"-1": 1}}, "not an element id")]
    for key, table, needle in bad:
        path = write_cfg(tmp_path, **{key: table})
        capsys.readouterr()
        assert cli.main(["solve", "--config", path,
                         "--out", str(tmp_path / "x.csv")]) == 2
        assert needle in capsys.readouterr().err


def test_row_format(small_bench):
    row = small_bench.row()
    fields = row.split(",")
    assert len(fields) == 11
    assert fields[0] == "%.17g" % 0.25
    assert fields[1] == "%.17g" % 0.25
    assert fields[2] == "quad"
    assert fields[3] == "2" and fields[4] == "0"
    assert fields[5] == "33"
    assert float(fields[6]) == small_bench.report.E_rel
    assert fields[9] == "0"
    assert int(fields[10]) == small_bench.solution.cg_iters
    timed = small_bench.row(timing=True).split(",")
    assert timed[9] != "0" and timed[:9] == fields[:9]


def test_frozen_benchmark_row():
    cfg = cli.RunConfig.from_dict(cfg_dict(
        nx=8, ny=8, n_sub=16,
        coefficient={"type": "periodic_benchmark", "eps": 0.0625}))
    res = cli.run_single(cfg)
    assert abs(res.report.E_star - (-0.0048243820406852463)) < 1e-9 * 0.0048
    assert abs(res.report.E_rel - 0.21212916840267085) < 1e-9
    assert abs(res.report.E_rel_gamma - 0.17193563767120948) < 1e-9


def test_solve_writes_header_and_row(tmp_path, capsys):
    path = write_cfg(tmp_path, n_sub=4, N=1,
                     coefficient={"type": "identity"})
    out = tmp_path / "row.csv"
    assert cli.main(["solve", "--config", path, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == cli.CSV_HEADER
    assert len(lines) == 2 and len(lines[1].split(",")) == 11


def test_workers_flag_accepted_without_effect(tmp_path):
    path = write_cfg(tmp_path, N=3, M=1)
    plain, flagged = tmp_path / "plain.csv", tmp_path / "flagged.csv"
    assert cli.main(["solve", "--config", path, "--out", str(plain)]) == 0
    assert cli.main(["solve", "--config", path, "--workers", "4",
                     "--out", str(flagged)]) == 0
    assert flagged.read_bytes() == plain.read_bytes()
    for bad in ("0", "-1", "two"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["solve", "--config", path, "--workers", bad])
        assert exc.value.code == 2


@pytest.mark.parametrize("patch,needle", [
    ({"rhs": {"type": "constant", "value": math.nan}}, "config.rhs.value"),
    ({"domain": [0, math.inf, 0, 1]}, "config.domain"),
    ({"coefficient": {"type": "periodic_benchmark", "eps": math.inf}},
     "config.coefficient.eps"),
    ({"coefficient": {"type": "expression", "expr": "1 + x",
                      "alpha_min": 1.0, "alpha_max": math.inf}},
     "config.coefficient: need 0 < alpha_min")],
    ids=["rhs-nan", "domain-inf", "eps-inf", "alpha_max-inf"])
def test_non_finite_config_numbers_exit_2(tmp_path, capsys, patch, needle):
    # JSON NaN and Infinity are no numbers of a config: a NaN load used to
    # run the reference CG on NaN to its iteration cap and an infinite
    # domain to fail in an SVD, both exit 3, an infinite eps to run
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg_dict(**patch)))
    assert "NaN" in path.read_text() or "Infinity" in path.read_text()
    assert cli.main(["solve", "--config", str(path)]) == 2
    assert needle in capsys.readouterr().err


def test_n_sub_below_2_exits_2_at_load(tmp_path, capsys):
    # n_sub 1 used to pass config load and exit 3 from build_problem
    path = write_cfg(tmp_path, n_sub=1)
    assert cli.main(["solve", "--config", path]) == 2
    assert "error: config.n_sub: must be at least 2" in \
        capsys.readouterr().err
    # an H row that leaves one subdivision is still a failed row
    out = tmp_path / "h.csv"
    cfg = cli.RunConfig.from_dict(cfg_dict(N=1))
    assert cli.cmd_sweep(cfg, "H", [1 / 32], str(out)) == 0
    assert out.read_text().splitlines()[1].split(",")[5:7] == ["0", "nan"]
    assert "row failed: config.n_sub: must be at least 2" in \
        capsys.readouterr().err


@pytest.mark.parametrize("patch,needle", [
    ({"domain": [0, 1e-320, 0, 1]},
     "the fine cell area 1e-323 is below the smallest normal float"),
    ({"domain": [-1e308, 1e308, 0, 1]}, "x1 - x0 and y1 - y0 must be finite"),
    ({"domain": [0, 1e-198, 0, 1e-198], "nx": 2, "ny": 2, "n_sub": 4},
     "the fine cell area 0.0 is below the smallest normal float")],
    ids=["subnormal-side", "infinite-side", "underflowing-area"])
def test_domain_the_fine_lattice_cannot_represent_exits_2(tmp_path, capsys,
                                                          patch, needle):
    # these used to exit 1 with a traceback (an infinite fine spacing),
    # or 3 from an SVD or a degenerate element
    path = write_cfg(tmp_path, **patch)
    assert cli.main(["solve", "--config", path]) == 2
    assert f"error: config.domain: {needle}" in capsys.readouterr().err
    # a domain that is merely extreme still runs, to a numerical failure
    path = write_cfg(tmp_path, domain=[0, 1, 0, 1e-160])
    assert cli.main(["solve", "--config", path]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_non_finite_load_exits_2_naming_a_point(tmp_path, capsys):
    # a load that is NaN on part of the domain fails where it is
    # evaluated, as the coefficient does, before any solve iterates on it
    path = write_cfg(tmp_path, rhs={"type": "expression",
                                    "expr": "sqrt(x - 0.5)"})
    out = tmp_path / "row.csv"
    with np.errstate(invalid="ignore"):
        assert cli.main(["solve", "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "load expression(sqrt(x - 0.5)) at (" in err
    x = float(err.split(" at (")[1].split(",")[0])
    assert x < 0.5 and "is not finite" in err
    assert not out.exists()
    f = cli._rhs_field({"type": "expression", "expr": "1 / (x - y)"})
    with pytest.raises(finefem.LoadValueError, match=r"at \(0.5, 0.5\)"), \
            np.errstate(divide="ignore"):
        f.at(np.array([[0.25, 0.5], [0.5, 0.5]]))


@pytest.mark.parametrize("axis, values", [
    ("N", "1,2"), ("M", "0,1"), ("H", "0.5,0.25"), ("eps", "0.25,0.5")])
def test_non_finite_load_ends_every_sweep(axis, values, tmp_path, capsys):
    # every axis evaluates the load at the same fine centroids, so a value
    # that is not finite is no row's own failure: exit 2 and no rows, as
    # solve does
    path = write_cfg(tmp_path, rhs={"type": "expression",
                                    "expr": "sqrt(x - 0.5)"})
    out = tmp_path / "sweep.csv"
    with np.errstate(invalid="ignore"):
        assert cli.main(["sweep", "--config", path, "--axis", axis,
                         "--values", values, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "is not finite" in err and "row failed" not in err
    assert not out.exists()


EXPRESSION_LOAD = {"type": "expression", "expr": "-1 - x * y"}


@pytest.mark.parametrize("patch,ok", [
    ({"ell": 2, "M": 1}, False),
    ({"ell": 3, "M": {"default": 0, "overrides": {"5": 2}}}, False),
    ({"ell": 1, "M": 1, "rhs": EXPRESSION_LOAD}, False),
    ({"ell": 1, "M": 1}, True),
    ({"ell": 1, "M": 1, "rhs": {"type": "gaussian_benchmark"}}, True),
    ({"ell": 2, "M": 0}, True),
    ({"ell": 1, "M": 0, "rhs": EXPRESSION_LOAD}, True)],
    ids=["2-bubbles", "3-override", "1-expression", "1-constant",
         "1-gaussian", "2-no-bubbles", "1-expression-no-bubbles"])
def test_ell_the_estimator_cannot_use_exits_2_at_load(tmp_path, capsys,
                                                      monkeypatch, patch,
                                                      ok):
    # where an element has bubbles the estimator takes ell 0, or 1 with a
    # load that has a gradient; anything else exits 2 before any solve,
    # not 3 after all of them
    calls = []
    monkeypatch.setattr(cli, "run_single",
                        lambda *args, **kw: calls.append(args))
    if ok:
        cli.RunConfig.from_dict(cfg_dict(**patch))
        return
    path = write_cfg(tmp_path, **patch)
    out = tmp_path / "row.csv"
    assert cli.main(["solve", "--config", path, "--out", str(out)]) == 2
    assert "config.ell" in capsys.readouterr().err
    assert calls == [] and not out.exists()


@pytest.mark.parametrize("patch", [{"ell": 2},
                                   {"ell": 1, "rhs": EXPRESSION_LOAD}])
def test_M_sweep_checks_ell_before_the_first_row(tmp_path, capsys,
                                                 monkeypatch, patch):
    # the M = 0 row alone would run; the M = 1 row could not be estimated,
    # so the sweep exits 2 with no rows, as for any bad value; a sweep
    # whose values are all 0 runs
    calls = []
    real = cli.run_single

    def counted(*args, **kw):
        calls.append(args)
        return real(*args, **kw)

    monkeypatch.setattr(cli, "run_single", counted)
    path = write_cfg(tmp_path, N=1, **patch)
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--config", path, "--axis", "M",
                     "--values", "0,1", "--out", str(out)]) == 2
    assert "config.ell" in capsys.readouterr().err
    assert calls == [] and not out.exists()
    assert cli.main(["sweep", "--config", path, "--axis", "M",
                     "--values", "0", "--out", str(out)]) == 0
    assert len(calls) == 1
    assert "nan" not in out.read_text().splitlines()[1]


def same_cells(got: str, want: str) -> bool:
    """Two CSV rows agree: integer and word cells exactly, every other
    number within 1e-9 relative."""
    def near(x: str, y: str) -> bool:
        if y.lstrip("-").isdigit():
            return False
        try:
            return abs(float(x) - float(y)) <= 1e-9 * abs(float(y))
        except ValueError:
            return False

    a, b = got.split(","), want.split(",")
    return len(a) == len(b) and all(x == y or near(x, y)
                                    for x, y in zip(a, b))


@pytest.mark.filterwarnings("ignore:fine cell size")
@pytest.mark.parametrize("patch,row,edges", [
    ({"nx": 1, "ny": 1, "N": 1},
     "0.25,1,quad,1,0,0,1,nan,0,0,0", []),
    ({"kind": "triangle", "nx": 1, "ny": 1, "N": 2},
     "0.25,1,triangle,2,0,1,0.5674803065350239,0.1324532357065045,"
     "0.9008528991753797,0,1",
     ["2,0,0,1,1,0.13245323570650441,0.9008528991753797,"
      "-0.83259130839128093"]),
    ({"nx": 1, "ny": 3, "N": 2},
     "0.25,1,quad,2,0,2,0.45383161097257368,0.023253590725816106,"
     "0.61136008668246056,0,2",
     ["3,0,0.33333333333333331,1,0.33333333333333331,0.017321842065783348,"
      "0.42878622280720169,-1.3936467481877108",
      "6,0,0.66666666666666663,1,0.66666666666666663,0.015513970126670511,"
      "0.43577922244999073,-1.4485435688029928"]),
    ({"nx": 1, "ny": 1, "N": 1, "M": 1},
     "0.25,1,quad,1,1,4,0,nan,7.3282027905596249e-08,0,0", None),
    ({"nx": 2, "ny": 2, "N": {"default": 1, "overrides": {"3": 3}},
      "M": {"default": 0, "overrides": {"2": 1}}},
     "0.25,0.5,quad,3,1,7,0.53558520707081103,nan,1.0200124122016321,0,3",
     None)],
    ids=["1x1-quads", "1x1-triangles-N2", "1x3-quads-N2", "1x1-quads-M1",
         "2x2-quads-overrides"])
def test_groups_with_members_without_dofs(tmp_path, patch, row, edges):
    # given a load every element is solved, so a patch group of the
    # offline sweep can hold members with no DOF (1x1 quads hold none at
    # all), or a part of zero width: solve and errmap (M = 0 only) still
    # give their frozen rows
    path = write_cfg(tmp_path, n_sub=4, **patch)
    out = tmp_path / "out.csv"
    assert cli.main(["solve", "--config", path, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == cli.CSV_HEADER and len(lines) == 2
    assert same_cells(lines[1], row), lines[1]
    if edges is None:
        return
    assert cli.main(["errmap", "--config", path, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == cli.ERRMAP_HEADER and len(lines) == 1 + len(edges)
    assert all(same_cells(a, b) for a, b in zip(lines[1:], edges)), lines


def test_exit_codes(tmp_path):
    assert cli.main(["solve", "--config", str(tmp_path / "nope.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg_dict(kind="hex")))
    assert cli.main(["solve", "--config", str(bad)]) == 2
    path = write_cfg(tmp_path, n_sub=4, N=1)
    assert cli.main(["solve", "--config", path, "--rel-tol", "2.0"]) == 2
    assert cli.main(["solve", "--config", path, "--eta", "0.7"]) == 2
    # unresolved oscillation under --strict is a numerical failure
    coarse_cells = write_cfg(tmp_path, "coarse.json", nx=2, ny=2, n_sub=2,
                             coefficient={"type": "periodic_benchmark",
                                          "eps": 0.01})
    out = tmp_path / "x.csv"
    assert cli.main(["solve", "--config", coarse_cells, "--strict",
                     "--out", str(out)]) == 3


def test_cg_breakdown_exits_3(tmp_path, capsys):
    # a coefficient of 1e300 takes p.Kp of the fine reference CG out of
    # the float range: a numerical failure, not a traceback
    huge = {"type": "expression", "expr": "1e300", "alpha_min": 1e300,
            "alpha_max": 1e300}
    path = write_cfg(tmp_path, nx=2, ny=2, n_sub=4, N=1, coefficient=huge)
    out = tmp_path / "x.csv"
    assert cli.main(["solve", "--config", path, "--out", str(out)]) == 3
    assert "CG breakdown" in capsys.readouterr().err
    assert not out.exists()


def test_single_element_has_no_interface_error(tmp_path):
    # one element: the skeleton is the boundary and the interface part of
    # the reference vanishes, so E_rel_gamma prints nan and errmap is empty
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"schema": 1, "kind": "quad", "nx": 1,
                                "ny": 1, "n_sub": 8, "N": 1, "M": 0}))
    out = tmp_path / "row.csv"
    assert cli.main(["solve", "--config", str(path), "--out", str(out)]) == 0
    header, row = out.read_text().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["E_rel_gamma"] == "nan" and cells["E_rel"] == "1"
    emap = tmp_path / "map.csv"
    assert cli.main(["errmap", "--config", str(path), "--out",
                     str(emap)]) == 0
    assert emap.read_text().splitlines() == [cli.ERRMAP_HEADER]


def test_unresolved_degrees_are_config_errors(tmp_path, capsys):
    # two fine segments per coarse edge carry one edge enrichment (N <= 2)
    # and one interior vertex per quad, too few for the four M=1 bubbles
    for patch, needle in (({"N": 3}, "exceeds n_sub=2"),
                          ({"N": 1, "M": 1}, "1 interior fine vertices")):
        path = write_cfg(tmp_path, n_sub=2, coefficient={"type": "identity"},
                         **patch)
        assert cli.main(["solve", "--config", path]) == 2
        assert needle in capsys.readouterr().err
    # an N sweep checks its largest N before any row; an M sweep marks the
    # unresolved row failed and goes on
    path = write_cfg(tmp_path, n_sub=2, N=1, coefficient={"type": "identity"})
    assert cli.main(["sweep", "--config", path, "--axis", "N",
                     "--values", "1,2,3"]) == 2
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--config", path, "--axis", "M",
                     "--values", "0,1", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [r[6] == "nan" for r in rows] == [False, True]
    # so does a triangle row above the bulk degree cap
    cfg = cli.RunConfig.from_dict(cfg_dict(kind="triangle", nx=2, ny=2,
                                           n_sub=32))
    assert cli.cmd_sweep(cfg, "M", [0, 9], str(out)) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [r[6] == "nan" for r in rows] == [False, True]


@pytest.mark.parametrize("patch, needle", [
    ({"kind": "triangle", "nx": 2, "ny": 2, "n_sub": 32, "M": 9},
     "capped at 8"),
    ({"N": 10 ** 20}, "config.N: 100000000000000000000 does not fit"),
    ({"M": {"default": 0, "overrides": {"0": 10 ** 20}}},
     "config.M.overrides[0]: 100000000000000000000 does not fit"),
    ({"nx": 2, "ny": 2, "n_sub": 4, "M": 20000},
     "bubble degree M=20000 needs more than its 9 interior")],
    ids=["triangle-M9", "N-1e20", "M-override-1e20", "M20000"])
def test_unusable_degrees_exit_2_at_once(patch, needle, tmp_path, capsys):
    # each fails before any solve with its message: the triangle cap and
    # the int64 range are config errors like an unresolved degree, and the
    # bulk dimension of M = 20000 comes from its formula, with no basis
    # or quadrature rule built
    path = write_cfg(tmp_path, **patch)
    t0 = time.perf_counter()
    assert cli.main(["solve", "--config", path]) == 2
    assert time.perf_counter() - t0 < 2.0
    assert needle in capsys.readouterr().err


def test_unwritable_output_exits_2(tmp_path, capsys, monkeypatch):
    # an output directory that does not exist fails before any solve, from
    # --out or from the config's out, and leaves no file; a path that
    # cannot be written fails at the write, with its reason
    def solve(*args, **kw):
        raise AssertionError("a solve ran before the output path was checked")

    monkeypatch.setattr(errors, "reference_solve", solve)
    missing = tmp_path / "missing" / "x.csv"
    for args, out in (
            (["solve"], str(missing)),
            (["solve", "--out", str(missing)], None),
            (["sweep", "--axis", "N", "--values", "1,2", "--out",
              str(missing)], None)):
        path = write_cfg(tmp_path, out=out)
        assert cli.main([*args, "--config", path]) == 2
        assert f"error: {missing}: " in capsys.readouterr().err
    assert not missing.parent.exists()
    monkeypatch.undo()
    path = write_cfg(tmp_path)
    assert cli.main(["solve", "--config", path, "--out", str(tmp_path)]) == 2
    assert f"error: {tmp_path}: " in capsys.readouterr().err


def test_coefficient_bounds_checked(tmp_path):
    outside = {"type": "expression", "expr": "log(x)",
               "alpha_min": 0.1, "alpha_max": 1.0}
    path = write_cfg(tmp_path, "log.json", n_sub=4, N=1, coefficient=outside)
    out = tmp_path / "log.csv"
    assert cli.main(["solve", "--config", path, "--out", str(out)]) == 2
    assert not out.exists()
    inside = {"type": "expression", "expr": "1 + x",
              "alpha_min": 1.0, "alpha_max": 2.0}
    path = write_cfg(tmp_path, "lin.json", n_sub=4, N=1, coefficient=inside)
    assert cli.main(["solve", "--config", path,
                     "--out", str(tmp_path / "lin.csv")]) == 0
    # inside a sweep the row is marked failed and the sweep goes on
    cfg = cli.RunConfig.from_dict(cfg_dict(n_sub=4, N=1, coefficient=outside))
    out = tmp_path / "sweep.csv"
    assert cli.cmd_sweep(cfg, "H", [0.25, 0.5], str(out)) == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 2
    assert all(r.split(",")[5:9] == ["0", "nan", "nan", "nan"] for r in rows)


@pytest.mark.parametrize("patch", [
    dict(nx=4, ny=4, n_sub=16, N=2, rhs={"type": "gaussian_benchmark"},
         coefficient={"type": "expression",
                      "expr": "sin(40*x)*sin(40*x) - 0.01",
                      "alpha_min": 1e-6, "alpha_max": 1e12}),
    dict(nx=2, ny=3, n_sub=5, N=1,
         coefficient={"type": "expression", "expr": "1/(x-0.5)",
                      "alpha_min": 1, "alpha_max": 2e20})],
    ids=["negative-bands", "pole"])
def test_lower_bound_checked_against_itself(tmp_path, capsys, patch):
    # values far below alpha_min but within 1e-12 * alpha_max of it used
    # to pass: the first ran to exit 0 on a fine system that is not SPD,
    # the second to a CG breakdown (exit 3)
    path = write_cfg(tmp_path, **patch)
    out = tmp_path / "row.csv"
    assert cli.main(["solve", "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert " at (" in err and "leaves its declared bounds" in err
    assert not out.exists()


@pytest.mark.parametrize("patch", [{"nx": 2**63}, {"ny": 2**62, "n_sub": 2},
                                   {"nx": 2**31, "ny": 2**31, "n_sub": 2}])
def test_lattice_int64_cannot_index_exits_2(tmp_path, capsys, patch):
    # nx = 2^63 used to exit 1 with an OverflowError traceback; every
    # such lattice is rejected at config load, before any allocation
    assert cli.main(["solve", "--config", write_cfg(tmp_path, **patch)]) == 2
    assert ("error: config: the fine lattice has more vertices than a "
            "64-bit integer can index") in capsys.readouterr().err
    cli.RunConfig.from_dict(cfg_dict(nx=2**30, ny=2**30, n_sub=2))


def test_out_of_memory_exits_2(tmp_path, capsys, monkeypatch):
    def no_memory(config):
        raise MemoryError("Unable to allocate 8.00 TiB")

    monkeypatch.setattr(cli, "build_problem", no_memory)
    assert cli.main(["solve", "--config", write_cfg(tmp_path)]) == 2
    assert "error: out of memory: Unable to allocate 8.00 TiB" in \
        capsys.readouterr().err


@pytest.mark.parametrize("flag, value, key", [
    ("--rel-tol", "nan", "config.rel_tol"),
    ("--rel-tol", "0", "config.rel_tol"), ("--eta", "-0.1", "config.eta")])
def test_flag_overrides_are_checked_as_config_keys(tmp_path, capsys, flag,
                                                   value, key):
    path = write_cfg(tmp_path)
    assert cli.main(["solve", "--config", path, flag, value]) == 2
    assert f"error: {key}: must be" in capsys.readouterr().err


@pytest.mark.parametrize("axis, values, load", [
    (axis, values, load)
    for load in (None, {"type": "gaussian_benchmark"})
    for axis, values in (("N", [1, 2, 3]), ("M", [0, 1, 2]),
                         ("H", [0.5, 0.25, 0.125]))],
    ids=["N", "M", "H", "N-gaussian", "M-gaussian", "H-gaussian"])
def test_sweep_reuse_matches_fresh_runs(axis, values, load, tmp_path,
                                       monkeypatch):
    # every row that shares work (the meshes, the fine reference) equals a
    # fresh run of its own config byte for byte, also under a load that
    # varies, where each bubble-free row solves its own bubble reference;
    # an H row keeps the 32 fine cells per side, so the sweep solves the
    # fine reference once on every axis
    rhs = {"rhs": load} if load else {}
    cfg = cli.RunConfig.from_dict(cfg_dict(**rhs))
    out = tmp_path / "sweep.csv"
    solves = []
    real = errors.reference_solve

    def counted(*args, **kw):
        solves.append(args[0])
        return real(*args, **kw)

    monkeypatch.setattr(errors, "reference_solve", counted)
    assert cli.cmd_sweep(cfg, axis, values, str(out)) == 0
    assert len(solves) == 1
    lines = out.read_text().splitlines()
    assert lines[0] == cli.CSV_HEADER and len(lines) == 1 + len(values)
    for v, line in zip(values, lines[1:]):
        own = ({"nx": round(1 / v), "ny": round(1 / v), "n_sub": round(32 * v)}
               if axis == "H" else {axis: v})
        fresh = cli.run_single(cli.RunConfig.from_dict(cfg_dict(**own,
                                                                **rhs)))
        assert line == fresh.row()


def test_sweep_M_axis(tmp_path):
    cfg = cli.RunConfig.from_dict(cfg_dict())
    out = tmp_path / "msweep.csv"
    assert cli.cmd_sweep(cfg, "M", [0, 1], str(out)) == 0
    lines = out.read_text().splitlines()
    assert [l.split(",")[4] for l in lines[1:]] == ["0", "1"]
    e0, e1 = (float(l.split(",")[6]) for l in lines[1:])
    # bubbles enlarge the space, so the error cannot grow
    assert e1 <= e0 + 1e-12


def test_sweep_guards():
    cfg = cli.RunConfig.from_dict(cfg_dict())
    with pytest.raises(cli.ConfigError, match="axis"):
        cli.cmd_sweep(cfg, "Z", [1.0])
    with pytest.raises(cli.ConfigError, match="at least one"):
        cli.cmd_sweep(cfg, "N", [])
    with pytest.raises(cli.ConfigError, match="integers"):
        cli.cmd_sweep(cfg, "N", [1.5])
    ident = cli.RunConfig.from_dict(cfg_dict(coefficient={"type": "identity"}))
    with pytest.raises(cli.ConfigError, match="periodic_benchmark"):
        cli.cmd_sweep(ident, "eps", [0.5])


def test_sweep_values_checked_before_any_row(tmp_path, capsys,
                                             monkeypatch):
    # a bad value anywhere in the list is a config error: exit 2 before
    # the first row runs, and no output file
    calls = []
    real = cli.run_single

    def counted(*args, **kw):
        calls.append(args)
        return real(*args, **kw)

    monkeypatch.setattr(cli, "run_single", counted)
    path = write_cfg(tmp_path)
    out = tmp_path / "sweep.csv"
    for axis, values, needle in (("eps", "0.1,-1", "eps values"),
                                 ("N", "2,0", "N values"),
                                 ("N", "1,inf", "N values"),
                                 ("M", "1,nan", "M values"),
                                 ("M", "1,-1", "M values")):
        assert cli.main(["sweep", "--config", path, "--axis", axis,
                         "--values", values, "--out", str(out)]) == 2
        assert calls == [] and not out.exists()
        assert needle in capsys.readouterr().err


def test_sweep_H_failed_row_continues(tmp_path, capsys):
    cfg = cli.RunConfig.from_dict(cfg_dict(N=1))
    out = tmp_path / "hsweep.csv"
    assert cli.cmd_sweep(cfg, "H", [0.3, 0.25], str(out)) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    bad = lines[1].split(",")
    assert bad[6] == "nan" and bad[5] == "0"
    assert bad[1] == "%.17g" % 0.3  # the H asked for, not the base one
    good = lines[2].split(",")
    assert good[1] == "%.17g" % 0.25 and good[6] != "nan"
    assert "row failed" in capsys.readouterr().err
    # H = 0 tiles nothing: a failed row, not a division by zero
    assert cli.cmd_sweep(cfg, "H", [0.0], str(out)) == 0
    assert out.read_text().splitlines()[1].split(",")[5:7] == ["0", "nan"]
    assert "does not tile" in capsys.readouterr().err


def test_sweep_H_preserves_fine_lattice(tmp_path):
    # every successful row keeps nx*n_sub fixed, so the reference space
    # is the same for all rows
    cfg = cli.RunConfig.from_dict(cfg_dict(N=1))
    out = tmp_path / "h2.csv"
    assert cli.cmd_sweep(cfg, "H", [0.5, 0.25], str(out)) == 0
    lines = out.read_text().splitlines()[1:]
    assert all(l.split(",")[6] != "nan" for l in lines)
    # same fine problem: identical E_star means identical reference; check
    # via direct runs
    r2 = cli.run_single(cli.RunConfig.from_dict(cfg_dict(nx=2, ny=2,
                                                         n_sub=16, N=1)))
    r4 = cli.run_single(cli.RunConfig.from_dict(cfg_dict(N=1)))
    assert r2.report.E_star == r4.report.E_star


def test_sweep_byte_determinism(tmp_path):
    cfg = cli.RunConfig.from_dict(cfg_dict(N=1))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    cli.cmd_sweep(cfg, "eps", [0.5, 0.25], str(a))
    cli.cmd_sweep(cfg, "eps", [0.5, 0.25], str(b))
    assert a.read_bytes() == b.read_bytes()


def errmap_rows(tmp_path, **kw):
    cfg = cli.RunConfig.from_dict(cfg_dict(**kw))
    out = tmp_path / "map.csv"
    assert cli.cmd_errmap(cfg, str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == cli.ERRMAP_HEADER
    rows = [line.split(",") for line in lines[1:]]
    return {(round((float(r[1]) + float(r[3])) / 2, 9),
             round((float(r[2]) + float(r[4])) / 2, 9)):
            (float(r[5]), float(r[6])) for r in rows}


def test_errmap_symmetry(tmp_path):
    # symmetric problem (identity coefficient, centered load): the map is
    # invariant under the symmetries the diagonal split preserves
    table = errmap_rows(tmp_path, coefficient={"type": "identity"},
                        rhs={"type": "gaussian_benchmark"})
    assert len(table) == 24
    scale = max(v for err, est in table.values() for v in (err, est))
    transforms = [lambda x, y: (y, x),
                  lambda x, y: (round(1 - x, 9), round(1 - y, 9)),
                  lambda x, y: (round(1 - y, 9), round(1 - x, 9))]
    for (x, y), (err, est) in table.items():
        for T in transforms:
            err2, est2 = table[T(x, y)]
            assert abs(err - err2) < 1e-6 * scale
            assert abs(est - est2) < 1e-6 * scale


def test_errmap_rejects_bubbles(tmp_path):
    path = write_cfg(tmp_path, M=1)
    assert cli.main(["errmap", "--config", path]) == 2


def test_errmap_fault_is_not_a_map_of_zeros(tmp_path, monkeypatch, capsys):
    # a mesh with an interior edge always has an interface error map, so a
    # ValueError from it is a fault: a numerical failure that writes no
    # file, not a map of zeros
    def broken(*args, **kw):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(errors, "interface_error_map", broken)
    path = write_cfg(tmp_path, nx=2, ny=2, n_sub=16)
    out = tmp_path / "map.csv"
    assert cli.main(["errmap", "--config", path, "--out", str(out)]) == 3
    assert "could not be broadcast" in capsys.readouterr().err
    assert not out.exists()


def test_errmap_localization_consistency(tmp_path, small_bench):
    table = errmap_rows(tmp_path)
    est = small_bench.est
    loc = estimator.localize(est, small_bench.problem.coarse)
    got = sorted(v for _, v in table.values())
    expect = sorted(loc.tolist())
    assert np.abs(np.array(got) - np.array(expect)).max() < 1e-12


def test_basis_dump_nodal_hat_is_linear(tmp_path):
    path = write_cfg(tmp_path, "tri.json", kind="triangle", nx=2, ny=2,
                     n_sub=4, coefficient={"type": "identity"}, N=1, M=0)
    out = tmp_path / "hat.csv"
    assert cli.main(["basis-dump", "--config", path, "--basis", "nodal:4",
                     "--out", str(out)]) == 0
    rows = [tuple(map(float, line.split(",")))
            for line in out.read_text().splitlines()[1:]]
    coarse = mesh.build_coarse("triangle", 2, 2)
    lam = {}
    for K in vertex_elements(coarse, 4):
        vids = coarse.element_vertices[K]
        V = np.column_stack([np.ones(3), coarse.vertices[vids]])
        rhs = np.array([1.0 if v == 4 else 0.0 for v in vids])
        lam[K] = np.linalg.solve(V, rhs)
    for x, y, val in rows:
        hit = False
        for K, c in lam.items():
            ref = to_ref(coarse, K, np.array([[x, y]]))[0]
            if ref.min() > -1e-12 and ref.sum() < 1 + 1e-12:
                assert abs(val - (c[0] + c[1] * x + c[2] * y)) < 1e-10
                hit = True
                break
        assert hit


def test_basis_dump_edge_trace(tmp_path):
    path = write_cfg(tmp_path, "edge.json", nx=2, ny=2, n_sub=4, N=2)
    out = tmp_path / "edge.csv"
    assert cli.main(["basis-dump", "--config", path, "--basis", "edge:3:2",
                     "--out", str(out)]) == 0
    rows = np.array([[float(v) for v in line.split(",")]
                     for line in out.read_text().splitlines()[1:]])
    on_edge = rows[np.abs(rows[:, 0] - 0.5) < 1e-12]
    on_edge = on_edge[np.argsort(on_edge[:, 1])]
    on_edge = on_edge[on_edge[:, 1] <= 0.5 + 1e-12]
    t = on_edge[:, 1] / 0.5
    from legmsfem import polybasis
    expect = polybasis.internal_basis_eval(2, -1.0 + 2.0 * t)
    assert np.abs(on_edge[:, 2] - expect).max() < 1e-14


def test_basis_dump_bubble_vs_series(tmp_path):
    # -lap u = (1-x/H)(1-y/H) on (0,H)^2 with zero trace: double sine series
    path = write_cfg(tmp_path, "bub.json", nx=2, ny=2, n_sub=16,
                     coefficient={"type": "identity"}, N=1, M=1)
    out = tmp_path / "bub.csv"
    assert cli.main(["basis-dump", "--config", path, "--basis", "bubble:0:1",
                     "--out", str(out)]) == 0
    rows = np.array([[float(v) for v in line.split(",")]
                     for line in out.read_text().splitlines()[1:]])
    at = rows[(np.abs(rows[:, 0] - 0.25) < 1e-12)
              & (np.abs(rows[:, 1] - 0.25) < 1e-12)]
    assert len(at) == 1
    H = 0.5
    u = 0.0
    for m in range(1, 100, 2):
        for n in range(1, 100, 2):
            lam = np.pi**2 * (m * m + n * n) / H**2
            b = 4.0 / (m * n * np.pi**2)
            u += b / lam * np.sin(m * np.pi / 2) * np.sin(n * np.pi / 2)
    assert abs(at[0, 2] - u) < 5e-3 * abs(u)


def test_basis_dump_selector_errors(tmp_path):
    # malformed selectors, ids out of range, a boundary vertex, a boundary
    # edge, edge degrees below 2 and above N, and a bubble index beyond the
    # bulk basis (M = 1 on quads: four bubbles per element)
    path = write_cfg(tmp_path, n_sub=4, N=2, M=1)
    for sel in ("bubble:0", "edge:x:2", "what:1", "edge:999:2", "nodal:0",
                "nodal:99", "edge:0:2", "edge:3:1", "edge:3:3", "bubble:2:5",
                "bubble:2:0", "bubble:16:1"):
        assert cli.main(["basis-dump", "--config", path, "--basis", sel,
                         "--out", str(tmp_path / "x.csv")]) == 2, sel
    assert cli.main(["basis-dump", "--config", path, "--basis", "bubble:2:4",
                     "--out", str(tmp_path / "x.csv")]) == 0


DUMP_CFG = dict(kind="triangle", nx=3, ny=3, n_sub=6,
                N={"default": 2, "overrides": {"5": 4, "10": 1}},
                M={"default": 1, "overrides": {"0": 0, "3": 2}})
DUMP_SELECTORS = ("nodal:5", "edge:5:4", "edge:5:2", "edge:12:2",
                  "bubble:3:6", "bubble:7:2")


def test_basis_dump_bytes_match_the_full_table(tmp_path):
    # the support-only solve prints the rows of the same function in a
    # table built for every element and degree, byte for byte
    path = write_cfg(tmp_path, **DUMP_CFG)
    problem = cli.build_problem(cli.RunConfig.load(path))
    space = globalsolve.build_space(problem.fine, problem.A, problem.degrees,
                                    problem.f)
    kinds = {"nodal": localbasis.NODAL, "edge": localbasis.EDGE,
             "bubble": localbasis.BUBBLE}
    for sel in DUMP_SELECTORS:
        out = tmp_path / "dump.csv"
        assert cli.main(["basis-dump", "--config", path, "--basis", sel,
                         "--out", str(out)]) == 0
        name, i, *k = sel.split(":")
        dof = space.dofs.find(kinds[name], int(i), int(k[0]) if k else 0)
        assert dof >= 0
        rows = localbasis.dump_points(space.dofs, dof, problem.fine)
        want = "\n".join(["x,y,value"] + [",".join("%.17g" % v for v in r)
                                          for r in rows]) + "\n"
        assert out.read_bytes() == want.encode(), sel


def test_basis_dump_solves_only_the_support(tmp_path, monkeypatch):
    path = write_cfg(tmp_path, **DUMP_CFG)
    coarse = mesh.build_coarse("triangle", 3, 3)
    seen = []
    real = localbasis._group_fields

    def counted(A, group, *args, **kw):
        seen.extend(group.elements.tolist())
        return real(A, group, *args, **kw)

    monkeypatch.setattr(localbasis, "_group_fields", counted)
    support = {"nodal:5": vertex_elements(coarse, 5),
               "edge:5:4": edge_elements(coarse, 5),
               "edge:12:2": edge_elements(coarse, 12),
               "bubble:3:6": [3]}
    for sel, elements in support.items():
        seen.clear()
        assert cli.main(["basis-dump", "--config", path, "--basis", sel,
                         "--out", str(tmp_path / "x.csv")]) == 0
        assert sorted(seen) == sorted(elements), sel
    # a selector that matches nothing solves nothing
    seen.clear()
    assert cli.main(["basis-dump", "--config", path, "--basis", "edge:10:2",
                     "--out", str(tmp_path / "x.csv")]) == 2
    assert seen == []


def test_selftest(capsys):
    assert cli.main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 4 and "FAIL" not in out


def test_cli_import_leaves_out_scipy_solvers(tmp_path):
    # the runtime is numpy only: importing scipy.sparse alone cost about
    # 0.25 s and 22 MB of every run.  No scipy module may load on import,
    # nor lazily during a solve (fine reference, bubble reference and the
    # online interface CG all run here) or an N sweep.  Nor may numpy.ma,
    # which a bare np.unique imports (about 17 ms).
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), os.environ.get("PYTHONPATH", "")]))
    path = write_cfg(tmp_path, n_sub=4, N=2)
    code = ("import sys\n"
            "def unwanted():\n"
            "    return sorted(m for m in sys.modules\n"
            "                  if m.startswith('scipy') or m == 'numpy.ma'\n"
            "                  or m.startswith('numpy.ma.'))\n"
            "from legmsfem import cli\n"
            "print(unwanted())\n"
            f"code = cli.main(['solve', '--config', {path!r}, "
            f"'--out', {str(tmp_path / 'row.csv')!r}])\n"
            "print(code, unwanted())\n"
            f"code = cli.main(['sweep', '--config', {path!r}, '--axis', 'N', "
            f"'--values', '1,2', '--out', {str(tmp_path / 'rows.csv')!r}])\n"
            "print(code, unwanted())\n")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == ["[]", "0 []", "0 []"]
    assert len((tmp_path / "row.csv").read_text().splitlines()) == 2
    assert len((tmp_path / "rows.csv").read_text().splitlines()) == 3


def test_bubble_free_solve_runs_one_fine_solve(monkeypatch):
    # the fine reference is the only iterative fine solve; the bubble
    # reference comes out of the offline sweep
    calls = []
    real = multigrid.solve_spd

    def counted(system, *args, **kw):
        calls.append(system.geom.label)
        return real(system, *args, **kw)

    monkeypatch.setattr(multigrid, "solve_spd", counted)
    res = cli.run_single(cli.RunConfig.from_dict(cfg_dict(N=2, M=0)))
    assert calls == ["global fine mesh"]
    assert res.report.E_rel_gamma is not None


def test_sweep_N_rows_run_no_patch_elimination(monkeypatch, tmp_path):
    # every row of an N sweep builds its own space, its basis and bubble
    # reference in one sweep: each row eliminates each triangle patch
    # shape once
    swept = []
    real = localbasis._group_fields

    def counted(*args, **kw):
        swept.append(args[1].template.label)
        return real(*args, **kw)

    monkeypatch.setattr(localbasis, "_group_fields", counted)
    cfg = cli.RunConfig.from_dict(cfg_dict(kind="triangle"))
    assert cli.cmd_sweep(cfg, "N", [1, 2, 3], str(tmp_path / "s.csv")) == 0
    assert len(tmp_path.joinpath("s.csv").read_text().splitlines()) == 4
    assert len(swept) == 6  # the two triangle patch shapes, once a row
    problem = cli.build_problem(cli.RunConfig.from_dict(
        cfg_dict(kind="triangle", N=3)))
    swept.clear()
    globalsolve.build_space(problem.fine, problem.A, problem.degrees,
                            problem.f)
    assert len(swept) == 2


def fine_field_calls(monkeypatch, tmp_path, load=False, args=("solve",),
                     **cfg):
    """(the global fine centroids of the BASE mesh, the points of every
    Field.at call of the coefficient, or given load of the load, in a run
    of the CLI command args on the config, and how many of each call's
    points are fine centroids)."""
    fine = mesh.refine_to_fine(mesh.build_coarse("quad", 4, 4), 8)
    _, centroids = triangle_cells(finefem.global_geometry(fine))
    known = set(map(tuple, centroids.tolist()))
    calls = []
    real = finefem.Field.at

    def counted(self, points):
        if (self.bounds is None) == load:
            calls.append(np.array(points))
        return real(self, points)

    monkeypatch.setattr(finefem.Field, "at", counted)
    path = write_cfg(tmp_path, M=1, **cfg)
    assert cli.main([*args, "--config", path,
                     "--out", str(tmp_path / "row.csv")]) == 0
    return centroids, calls, [sum(p in known for p in map(tuple, c.tolist()))
                              for c in calls]


def test_solve_evaluates_the_coefficient_once_on_the_fine_triangles(
        monkeypatch, tmp_path):
    # the reference assembly, its energy, the offline sweep, the coarse
    # assembly and the error report all read one evaluation at the global
    # fine centroids of a coefficient without a period; the estimator's
    # edge midpoints are no centroids
    centroids, calls, at = fine_field_calls(
        monkeypatch, tmp_path, coefficient={
            "type": "expression", "expr": "2 + sin(7*x)*cos(5*y)",
            "alpha_min": 1, "alpha_max": 3})
    assert sum(at) == len(centroids)
    assert any(np.array_equal(c, centroids) for c in calls)


def test_solve_evaluates_a_periodic_coefficient_once_on_one_period(
        monkeypatch, tmp_path):
    # the periodic coefficient of BASE (eps = 8 fine cells) is evaluated in
    # one call at the centroids of the 8 x 8 cells of one period at the
    # lattice origin, which every geometry tiles; no other fine centroid
    centroids, calls, at = fine_field_calls(monkeypatch, tmp_path)
    period = centroids.reshape(32, 32, 2, 2)[:8, :8].reshape(-1, 2)
    assert sorted(at) == [0] * (len(at) - 1) + [2 * 8 * 8]
    assert np.array_equal(calls[at.index(2 * 8 * 8)], period)


@pytest.mark.parametrize("rhs,args", [
    ({"type": "constant", "value": -1.0}, ("solve",)),
    ({"type": "gaussian_benchmark"}, ("solve",)),
    ({"type": "expression", "expr": "-(1 + x * y)"}, ("solve",)),
    ({"type": "gaussian_benchmark"},
     ("sweep", "--axis", "N", "--values", "1,2,3"))],
    ids=["constant", "gaussian", "expression", "gaussian-N-sweep"])
def test_a_run_evaluates_the_load_once_on_the_fine_centroids(
        monkeypatch, tmp_path, rhs, args):
    # the reference assembly and energy, the offline sweep, the coarse
    # assembly, the error report and the estimator all read one evaluation
    # of the load: on the two triangles of the first fine cell for the
    # constant load, which has every period, else in one pass over the
    # fine centroids, which all rows of an N sweep share; an expression's
    # two-point probe at config load is no evaluation of the field
    centroids, calls, at = fine_field_calls(monkeypatch, tmp_path, load=True,
                                            args=args, rhs=rhs)
    if rhs["type"] == "constant":
        assert at == [2] and np.array_equal(calls[0], centroids[:2])
    else:
        assert sum(at) == len(centroids)
        assert np.array_equal(np.concatenate(calls), centroids)


def test_csv_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # every sum that reaches a CSV column runs in a fixed order, so one
    # config writes the same bytes under 1 and 2 BLAS threads (never
    # more).  The 129^2-vertex fine lattice is long enough for a BLAS dot
    # to split its sum over two threads, which moved E_rel and E_post
    # here when the energies and the CG dots went through BLAS.
    src = Path(__file__).resolve().parents[1] / "src"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "schema": 1, "kind": "quad", "nx": 4, "ny": 4, "n_sub": 32,
        "coefficient": {"type": "periodic_benchmark", "eps": 0.0625},
        "rhs": {"type": "constant", "value": -1.0}, "N": 2, "M": 1}))
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.csv"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(src), os.environ.get("PYTHONPATH", "")]),
            OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
            MKL_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "legmsfem.cli", "solve", "--config",
             str(path), "--out", str(out)], env=env, capture_output=True,
            text=True)
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert len(outs[0].splitlines()) == 2
