"""Benchmark of the legmsfem command line, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it reads the program from ``src`` and
writes scratch files under ``.bench_build/perfbench``.  NAME is a workload
of ``perfbench/workloads.json`` (config and layer map) or ``all``; the
reason for each workload, and the name and unit of every metric, are in
``BENCHMARK.json``.

Every workload runs as a fresh single-process ``python -m legmsfem.cli``
child with ``src`` on PYTHONPATH, ``--workers 1`` and BLAS threads pinned
to 1, so on a small machine the numbers measure the program and not the
scheduler.  Runs repeat until the next one would pass ``--seconds``, at
least three times (once when traced), and every number reported is the
median over the repeats.

With ``--trace 0`` each repeat is a set-up probe (``setup_probe.py``)
followed by the timed CLI child, and the end-to-end metrics are reported.
With ``--trace 1`` each repeat is the untimed CLI child followed by the same
invocation under ``traced.py``, and the per-layer metrics are reported.

Every CSV row is checked: rows must be byte-identical across the repeats
of one invocation of this script; ``dofs`` and the other exact columns must
match ``expected/<workload>.csv``, which holds the seed-0 rows; with seed 0
the error columns must match it within 1e-9 relative, with another seed
they must lie in their mathematical ranges; ``nan`` appears only where the
expected rows have it; ``E_rel`` must not increase from one row to the
next; traced rows must meet the paper's invariants within 1e-8.  A failing
row or set-up probe counts toward ``failed``; a run that ends without a
sample of every metric it reports exits with code 1 and prints no result.
Otherwise the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
MIN_REPEATS = 3
RUN_LIMIT_S = 170.0  # a run of one workload must end within 180 s
FINGERPRINT_REL_TOL = 1e-9
INVARIANT_TOL = 1e-8
NONINCREASING_TOL = 1e-10
EXACT_COLUMNS = ("eps", "H", "kind", "N", "M", "dofs", "runtime_ms")
ERROR_COLUMNS = ("E_rel", "E_rel_gamma", "E_post")


def seeded_rhs(seed: int) -> dict:
    """Smooth load for a seed other than 0, bounded away from zero so the
    reference energy stays negative: -(c0 + c1 sin(.) sin(.)), c1 < c0."""
    rng = random.Random(seed)
    c0 = rng.uniform(0.5, 1.5)
    c1 = rng.uniform(0.2, 0.8) * c0
    k1, k2 = rng.randint(1, 4), rng.randint(1, 4)
    p1, p2 = rng.uniform(0.0, 2 * math.pi), rng.uniform(0.0, 2 * math.pi)
    return {"type": "expression",
            "expr": f"-({c0!r} + {c1!r}*sin({k1}*pi*x + {p1!r})"
                    f"*sin({k2}*pi*y + {p2!r}))"}


def environment() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas, "threads": THREADS,
            "loadavg": os.getloadavg()}


class Child:
    """Environment and deadline shared by the child processes of a run."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC), **THREADS)

    def timeout(self) -> float:
        return max(1.0, self.deadline - time.monotonic())

    def cli(self, args: list[str]):
        """Timed ``python -m legmsfem.cli`` child.  Returns (exit code,
        wall seconds, resource usage of that child alone)."""
        t0 = time.monotonic()
        with open(WORK / "cli.stderr", "ab") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "legmsfem.cli", *args], cwd=ROOT,
                env=self.env, stdout=subprocess.DEVNULL, stderr=err)
        waited = []
        waiter = threading.Thread(
            target=lambda: waited.append((os.wait4(proc.pid, 0),
                                          time.monotonic())))
        waiter.start()
        waiter.join(self.timeout())
        if waiter.is_alive():
            proc.kill()
            waiter.join()
        (_, status, usage), t_end = waited[0]
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, t_end - t0, usage

    def script(self, name: str, args: list[str]):
        """A child running one of this benchmark's scripts.  Returns (exit
        code, start time, standard output)."""
        t0 = time.monotonic()
        try:
            with open(WORK / f"{name}.stderr", "ab") as err:
                done = subprocess.run(
                    [sys.executable, str(BENCH / name), *args], cwd=ROOT,
                    env=self.env, stdout=subprocess.PIPE, stderr=err,
                    timeout=self.timeout())
        except subprocess.TimeoutExpired:
            return None, t0, b""
        return done.returncode, t0, done.stdout


class Checker:
    """Row checks against the seed-0 rows and across repeats."""

    def __init__(self, expected: list[str], seed: int):
        self.header, self.rows = expected[0], expected[1:]
        self.seed = seed
        self.first: list[str] | None = None
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def probe(self, code) -> bool:
        """Count one set-up probe; one that does not exit with 0 fails."""
        self.attempted += 1
        if code != 0:
            self._fail(1, f"setup probe exit {code}")
        return code == 0

    def check(self, code, csv_path: Path, invariants=None) -> None:
        """Count the rows of one invocation and those that fail."""
        self.attempted += len(self.rows)
        text = csv_path.read_text() if csv_path.is_file() else ""
        lines = text.splitlines()
        if code != 0 or lines[:1] != [self.header] \
                or len(lines) != len(self.rows) + 1:
            self._fail(len(self.rows), f"exit {code}, {len(lines)} lines")
            return
        rows = lines[1:]
        if self.first is None:
            self.first = rows
        if invariants is not None and len(invariants) != len(rows):
            self._fail(len(rows), f"{len(invariants)} traced results")
            return
        prev = None
        for i, row in enumerate(rows):
            why = self._row(row, self.rows[i], prev)
            prev = row if why is None else None
            if why is None and row != self.first[i]:
                why = "differs from the first repeat"
            if why is None and invariants is not None:
                bad = {k: v for k, v in invariants[i].items()
                       if v is None or not v <= INVARIANT_TOL}
                why = f"invariants {bad}" if bad else None
            if why is not None:
                self._fail(1, f"row {i}: {why}")

    def _row(self, row: str, expected: str, prev: str | None) -> str | None:
        names = self.header.split(",")
        if len(row.split(",")) != len(names):
            return "wrong column count"
        got = dict(zip(names, row.split(",")))
        want = dict(zip(names, expected.split(",")))
        for col in EXACT_COLUMNS:
            if got[col] != want[col]:
                return f"{col} {got[col]} != {want[col]}"
        for col in ERROR_COLUMNS:
            if want[col] == "nan" or got[col] == "nan":
                if got[col] != want[col]:
                    return f"{col} {got[col]}, expected {want[col]}"
                continue
            try:
                g, w = float(got[col]), float(want[col])
            except ValueError:
                return f"{col} {got[col]} is not a number"
            # Relative energy errors lie in [0, 1]; the estimator is positive.
            if not math.isfinite(g) or not (
                    0 < g if col == "E_post" else 0 <= g <= 1):
                return f"{col} {got[col]} out of range"
            if self.seed == 0 and abs(g - w) > FINGERPRINT_REL_TOL * abs(w):
                return f"{col} {got[col]} != {want[col]}"
        if prev is not None:
            before = float(dict(zip(names, prev.split(",")))["E_rel"])
            if float(got["E_rel"]) > before + NONINCREASING_TOL:
                return "E_rel increased along the sweep"
        return None

    def _fail(self, n: int, why: str) -> None:
        self.failed += n
        self.reasons.append(why)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_workload(name: str, workload: dict, seed: int, seconds: float,
                 trace: bool) -> dict:
    t_start = time.monotonic()
    child = Child(t_start + RUN_LIMIT_S)
    config = dict(workload["config"])
    if seed != 0:
        config["rhs"] = seeded_rhs(seed)
    # Scratch names leave out the seed, so each run overwrites the last.
    tag = f"{name}-trace{int(trace)}"
    cfg_path = WORK / f"{tag}.json"
    cfg_path.write_text(json.dumps(config, indent=2) + "\n")
    expected = (BENCH / "expected" / f"{name}.csv").read_text().splitlines()
    checker = Checker(expected, seed)

    def cli_args(out: Path) -> list[str]:
        return [*workload["args"], "--config", str(cfg_path), "--out",
                str(out), "--workers", "1"]

    # Warm-up: byte-compiles the package and fills the file cache, which a
    # user pays once and not on every run.
    child.script("setup_probe.py", [str(cfg_path)])
    samples: dict[str, list[float]] = {}
    repeats = 0
    while True:
        t_rep = time.monotonic()
        csv = WORK / f"{tag}-{repeats}.csv"
        record_path = WORK / f"{tag}-{repeats}.trace.json"
        traced_csv = WORK / f"{tag}-{repeats}.traced.csv"
        for stale in (csv, record_path, traced_csv):
            stale.unlink(missing_ok=True)
        if not trace:
            code, t0, out = child.script("setup_probe.py", [str(cfg_path)])
            if checker.probe(code):
                samples.setdefault("setup_s", []).append(
                    float(out.split()[-1]) - t0)
            code, wall, usage = child.cli(cli_args(csv))
            checker.check(code, csv)
            samples.setdefault("wall_s", []).append(wall)
            samples.setdefault("peak_rss_mb", []).append(
                usage.ru_maxrss / 1024.0)
        else:
            code, wall, usage = child.cli(cli_args(csv))
            checker.check(code, csv)
            code, t0, _ = child.script(
                "traced.py", [str(record_path), f"{name}-{seed}-{repeats}",
                              *cli_args(traced_csv)])
            record = json.loads(record_path.read_text()) \
                if code == 0 and record_path.is_file() else None
            checker.check(code, traced_csv,
                          record["invariants"] if record else [])
            if record is not None:
                metrics = dict(record["metrics"])
                metrics["cli.cpu_s"] = usage.ru_utime + usage.ru_stime
                metrics["trace.overhead_s"] = record["t_end"] - t0 - wall
                for key, value in metrics.items():
                    samples.setdefault(key, []).append(value)
        repeats += 1
        now = time.monotonic()
        last = now - t_rep
        if now + last > child.deadline or (
                repeats >= (1 if trace else MIN_REPEATS)
                and now + last > t_start + seconds):
            break
    return {"name": name, "seed": seed, "repeats": repeats,
            "samples": samples, "checker": checker}


def report(result: dict, units: dict[str, str]) -> dict[str, dict] | None:
    """Print one line per metric and return the JSON metrics of those in
    ``units``, or None if one of them has no sample."""
    checker = result["checker"]
    print(f"workload {result['name']} seed {result['seed']}: "
          f"{result['repeats']} repeats")
    metrics = {}
    for key, unit in units.items():
        values = result["samples"].get(key)
        if not values:
            print(f"error: {result['name']}: no sample of {key}",
                  file=sys.stderr)
            return None
        q1, q2, q3 = quartiles(values)
        # Peak memory is the largest over the repeats: whether a run lands
        # a few MB higher varies from run to run, and the peak is what a
        # user has to provision.
        value, how = (max(values), "max") if key == "peak_rss_mb" \
            else (statistics.median(values), "median")
        print(f"  {key:36s} {value:.6g} {unit}  {how} of {len(values)} "
              f"(q1 {q1:.6g}, q2 {q2:.6g}, q3 {q3:.6g})")
        metrics[key] = {"value": value, "unit": unit}
    rate = checker.failed / checker.attempted if checker.attempted else 1.0
    print(f"  {'fail_rate':36s} {rate:.6g} ratio  {checker.failed} of "
          f"{checker.attempted} rows and probes failed")
    for why in checker.reasons[:5]:
        print(f"  failed: {why}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "legmsfem" / "cli.py").is_file():
        print(f"error: no legmsfem sources under {SRC}", file=sys.stderr)
        return 2
    doc = json.loads((BENCH / "workloads.json").read_text())
    workloads = doc["workloads"]
    names = list(workloads) if args.workload == "all" else [args.workload]
    if not set(names) <= set(workloads):
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads)} or all", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in bench["per_layer" if args.trace else "end_to_end"]}
    WORK.mkdir(parents=True, exist_ok=True)
    print("env " + json.dumps(environment()))
    results = [run_workload(n, workloads[n], args.seed, args.seconds,
                            bool(args.trace)) for n in names]
    metrics = {}
    for result in results:
        reported = report(result, units)
        if reported is None:
            return 1
        for key, value in reported.items():
            metrics[key if len(names) == 1 else f"{result['name']}.{key}"] \
                = value
    attempted = sum(r["checker"].attempted for r in results)
    failed = sum(r["checker"].failed for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
