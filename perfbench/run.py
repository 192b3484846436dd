"""Benchmark for the ouq solver, driven only through its public entry points.

    python3 perfbench/run.py --workload reference --seed 0 --seconds 35 --trace 0

Run it from the root of a source checkout: the package is imported from
`src/` of that checkout and nothing is installed.  One run is a closed loop
of N seeded restarts, each one `ouq.cli.main(["solve", ...])` call made
in-process, with a slice of the pointwise stream after each restart:

- set-up: `perfbench/setup_probe.py` times importing `ouq`, `load_config`
  and `build_problem` in a fresh interpreter, several times;
- solve: the config is `paper.config` as shipped with the workload's mean
  band, base seed `seed * N` and `runs: N`; restart k runs as
  `ouq solve <config> --seed <base + k> --runs 1 --output-dir <dir k>`;
- pointwise: a seeded stream of in-box (h, theta, v) points goes through
  the registered response and its `limit_func` as scalar calls, exactly as
  `ouq eval` makes them, in timed blocks;
- calibration: a fixed piece of work that calls no ouq code, timed beside
  the rest and reported as info, so that a change in machine speed shows.

Every restart's artifacts and every point are checked (`check_restart`,
`check_points`).  With `--trace 0` the last line of stdout is a JSON object
with the end-to-end metrics named in BENCHMARK.json.  With `--trace 1` the
same work runs with each module boundary wrapped (`install_tracing`), the
first restart is re-run twice untraced and twice traced (determinism and
tracing overhead), and the JSON carries the per-layer metrics.  Every metric and
the run's facts are also printed above it as `metric` and `info` lines.
perfbench/README.md says what each metric is meant to show.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import types
from pathlib import Path

import numpy as np
import yaml

from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PAPER_CONFIG = ROOT / "paper.config"
WORK_DIR = ROOT / ".perfbench"

# Per workload: the mean band (None keeps paper.config's) and the time one
# restart takes on a 2-CPU x86 VM, which sizes N from --seconds.
WORKLOADS = {
    "reference": {"band": None, "restart_s": 2.3},
    "narrow_band": {"band": [6.4, 6.6], "restart_s": 4.5},
}
SOLVE_SHARE = 0.85  # of --seconds; the point slices get the rest
SETUP_PROBES_FIRST = 3  # then one more after each restart
POINT_BLOCK = 1000
CALIBRATION_POINTS = 10_000
CALIBRATION_SEED = 20120206
HIT_TOL = 0.01  # a restart "hits" when within this of the closed-form candidate

# Seed-0 counts pinned for the determinism check, in COUNT_NAMES order.
COUNT_NAMES = ("generations", "outer_evals", "inner_calls", "inner_generations", "inner_evals")
PINNED_SEED0 = {
    "reference": (72, 2919, 900, 0, 18000),
    "narrow_band": (30, 1239, 1118, 865, 39649),
}

MEASURE_FUNCS = ("unflatten", "expectation", "normalize", "flatten", "event_probability")


class BenchError(Exception):
    """The checkout cannot be benchmarked."""


def import_ouq():
    if not (SRC / "ouq" / "__init__.py").is_file() or not PAPER_CONFIG.is_file():
        raise BenchError(f"no ouq sources under {SRC} or no {PAPER_CONFIG.name} in {ROOT}")
    sys.path.insert(0, str(SRC))
    import ouq
    import ouq.cli
    import ouq.config
    import ouq.errors
    import ouq.registry
    import ouq.solver
    import ouq.surrogate

    if Path(ouq.__file__).resolve().parent != (SRC / "ouq").resolve():
        raise BenchError(f"ouq imported from {ouq.__file__}, not from {SRC}")
    return ouq


# ---------------------------------------------------------------- reference values


def reference_limit(h, theta, P):
    """Ballistic limit v_bl = H0 * (h / cos(theta)^n)^s, written out independently."""
    return P.H0 * (h / math.cos(theta) ** P.n) ** P.s


def reference_area(h, theta, v, P):
    """Perforation area K (h/Dp)^p cos(theta)^u max(0, tanh(v/v_bl - 1))^m."""
    t = math.tanh(v / reference_limit(h, theta, P) - 1.0)
    if t <= 0.0:
        return 0.0
    return P.K * (h / P.Dp) ** P.p * math.cos(theta) ** P.u * t ** P.m_exp


def candidate_bound(m1, box, P):
    """Closed form 1 - m1 / H(h_lo, 0, v_bl(h_hi, 0)) for a band [m1, m2]."""
    (h_lo, h_hi), _, _ = box
    return 1.0 - m1 / reference_area(h_lo, 0.0, reference_limit(h_hi, 0.0, P), P)


class Calibration:
    """Times a fixed batch of scalar calls to the reference formulas above.

    The work calls no ouq code, so it stays the same from one version of
    the package to the next, and it is the same kind of interpreted scalar
    arithmetic as the code under test.
    """

    def __init__(self, params, box):
        self.params = types.SimpleNamespace(**dataclasses.asdict(params))
        rng = np.random.default_rng(CALIBRATION_SEED)
        self.points = box_points(rng, box, CALIBRATION_POINTS)
        self.times = []
        self.sample()
        self.times.clear()  # the first pass warms up the interpreter

    def sample(self):
        P = self.params
        t0 = time.perf_counter()
        for h, theta, v in self.points:
            reference_area(h, theta, v, P)
            reference_limit(h, theta, P)
        self.times.append(time.perf_counter() - t0)


def box_points(rng, box, n):
    """n points drawn uniformly from the box, as lists of Python floats."""
    lo = np.array([b[0] for b in box])
    width = np.array([b[1] - b[0] for b in box])
    return (lo + width * rng.random((n, len(box)))).tolist()


def quantile(values, q):
    """Nearest-rank quantile, q in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# ---------------------------------------------------------------- set-up


def write_config(workload, base_seed, runs, path):
    doc = yaml.safe_load(PAPER_CONFIG.read_text())
    band = WORKLOADS[workload]["band"]
    if band is not None:
        doc["mean_band"] = list(band)
    doc.update(seed=base_seed, runs=runs)
    path.write_text(yaml.safe_dump(doc, sort_keys=False))


def setup_probe(config_path):
    """Seconds one fresh interpreter takes to import ouq and build the problem."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC), str(config_path)],
        capture_output=True,
        text=True,
        timeout=60,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------- solve


class Counts:
    """Deterministic counts read off the SolveReports that de_solve returns."""

    def __init__(self):
        self.total = dict.fromkeys(COUNT_NAMES, 0)
        self.inner_zero_gen = 0
        self.per_restart = []
        self._mark = dict(self.total)

    def record_report(self, report, inner):
        if inner:
            self.total["inner_calls"] += 1
            self.total["inner_generations"] += report.generations_run
            self.total["inner_evals"] += report.evaluations
            self.inner_zero_gen += report.generations_run == 0
        else:
            self.total["generations"] += report.generations_run
            self.total["outer_evals"] += report.evaluations

    def close_restart(self, _result=None):
        self.per_restart.append(tuple(self.total[k] - self._mark[k] for k in COUNT_NAMES))
        self._mark = dict(self.total)


class SolveLoop:
    """Restarts run through `ouq solve`, with their timings and, if traced, counts.

    Wrappers stay installed until close(); calls to the response made
    between restarts (the point slices) are traced under `pointwise.*`.
    """

    def __init__(self, ouq, response, traced):
        self.ouq = ouq
        self.tracer = Tracer()
        self.counts = Counts()
        self.gen_stamps = []  # per restart: clock at start, then after each generation
        self.main_s = []
        install_restart_timer(ouq, self.tracer, self.counts, self.gen_stamps)
        if traced:
            install_tracing(ouq, self.tracer, self.counts, response)

    def solve(self, config_path, seed, out_dir):
        """One restart; returns the exit code of `ouq solve`."""
        argv = ["solve", str(config_path), "--seed", str(seed), "--runs", "1",
                "--output-dir", str(out_dir)]
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.ouq.cli.main(argv)
        self.main_s.append(time.perf_counter() - t0)
        return code

    def close(self):
        self.tracer.restore()

    @property
    def wall_s(self):
        return math.fsum(self.main_s)

    def restart_s(self):
        return [s[4] - s[3] for s in self.tracer.spans if s[1] == "cli.ouq_solve"]

    def gen_s(self):
        """Per-generation seconds from generation 2 on; generation 1 also
        pays for the initial population."""
        out = []
        for stamps in self.gen_stamps:
            out.extend(b - a for a, b in zip(stamps[1:], stamps[2:]))
        return out


def install_restart_timer(ouq, tracer, counts, gen_stamps):
    """Wrap cli.ouq_solve with a chained trace_hook that stamps each generation."""
    original = ouq.cli.ouq_solve
    clock = tracer.clock

    def solve_with_stamps(problem, audit=None, trace_hook=None):
        stamps = [clock()]
        gen_stamps.append(stamps)

        def hook(generation, best_cost, best_params):
            stamps.append(clock())
            if trace_hook is not None:
                trace_hook(generation, best_cost, best_params)

        return original(problem, audit=audit, trace_hook=hook)

    ouq.cli.ouq_solve = tracer.wrap(
        "cli.ouq_solve", solve_with_stamps, span=True, after=counts.close_restart)
    tracer.defer(lambda: setattr(ouq.cli, "ouq_solve", original))


def install_tracing(ouq, tracer, counts, response):
    """Wrap each module boundary of the solve path; undone by tracer.restore()."""
    solver = ouq.solver
    tracer.patch(ouq.cli, "load_config", "config.load_config")
    tracer.patch(solver, "constrain_params", "solver.repair")
    tracer.patch(solver, "impose_expectation", "solver.impose", span=True)
    tracer.patch(
        solver,
        "de_solve",
        lambda: "de.inner" if tracer.active("de.outer") else "de.outer",
        span=True,
        # runs after the call has closed, so only an inner call sees de.outer open
        after=lambda report: counts.record_report(report, inner=tracer.active("de.outer")),
    )
    for name in MEASURE_FUNCS:
        tracer.patch(solver, name, f"measures.{name}")

    def phase(solve_key, point_key):
        return lambda: solve_key if tracer.active("cli.ouq_solve") else point_key

    registry = ouq.registry
    entry = registry.get_response(response)
    limit = entry.limit_func and tracer.wrap(
        phase("surrogate.limit_func", "pointwise.limit_func"), entry.limit_func)
    registry.register_response(
        entry.name, tracer.wrap(phase("surrogate", "pointwise.func"), entry.func),
        entry.arity, limit_func=limit)
    tracer.defer(lambda: registry.register_response(
        entry.name, entry.func, entry.arity, limit_func=entry.limit_func))


# ---------------------------------------------------------------- pointwise


class PointStream:
    """Seeded in-box points sent through the registered response as `ouq eval` does."""

    def __init__(self, ouq, response, seed, box):
        self.ouq = ouq
        self.response = response
        self.params = ouq.surrogate.SurrogateParams()
        self.rng = np.random.default_rng([seed, 1])
        self.box = box
        self.block_s = []
        self.points = 0
        self.failures = 0

    def run(self, budget_s):
        """Evaluate blocks of points until budget_s of wall time has passed."""
        entry = self.ouq.registry.get_response(self.response)
        func, limit = entry.func, entry.limit_func
        start = time.perf_counter()
        while True:
            block = box_points(self.rng, self.box, POINT_BLOCK)
            t0 = time.perf_counter()
            out = [(func(*p), limit(*p[:-1])) for p in block]
            self.block_s.append(time.perf_counter() - t0)
            self.points += len(block)
            self.failures += check_points(block, out, self.params)
            if time.perf_counter() - start >= budget_s:
                return


# ---------------------------------------------------------------- output checks


def check_points(block, out, params):
    bad = 0
    for (h, theta, v), (area, v_bl) in zip(block, out):
        want_area = reference_area(h, theta, v, params)
        want_limit = reference_limit(h, theta, params)
        if not (
            math.isclose(area, want_area, rel_tol=1e-12, abs_tol=1e-12)
            and math.isclose(v_bl, want_limit, rel_tol=1e-12)
        ):
            bad += 1
    return bad


def check_restart(ouq, out_dir, config):
    """Check one restart's artifacts; returns (result document, problems)."""
    problems = []
    try:
        doc = json.loads((out_dir / "result_0.json").read_text())
        rows = (out_dir / "trace_0.csv").read_text().splitlines()
        summary = json.loads((out_dir / "summary.json").read_text())
    except (OSError, ValueError) as exc:
        return None, [f"artifacts unreadable: {exc}"]
    func = ouq.registry.get_response(config.response).func
    tol = config.failure_tolerance
    product = ouq.cli.measure_from_dict(doc["maximizer"])

    bound = ouq.solver.event_probability(product, lambda *x: abs(func(*x)) <= tol)
    if not math.isclose(bound, doc["probability_bound"], rel_tol=1e-12, abs_tol=1e-12):
        problems.append(f"bound {doc['probability_bound']} != recomputed {bound}")
    for i, (f, (lo, hi)) in enumerate(zip(doc["maximizer"]["factors"], config.bounds_per_dim)):
        if abs(math.fsum(f["weights"]) - 1.0) > 1e-9:
            problems.append(f"factor {i} mass {math.fsum(f['weights'])}")
        if not all(lo <= x <= hi for x in f["positions"]):
            problems.append(f"factor {i} positions {f['positions']} outside [{lo}, {hi}]")
    m1, m2 = config.mean_band
    e = ouq.solver.expectation(product, func)
    if not m1 - 1e-6 <= e <= m2 + 1e-6:
        problems.append(f"E[f] = {e} outside [{m1}, {m2}]")
    if not math.isclose(e, doc["expectation"], rel_tol=1e-12, abs_tol=1e-12):
        problems.append(f"expectation {doc['expectation']} != recomputed {e}")

    width = 2 + 2 * sum(config.npts_per_dim)
    if len(rows) != doc["generations"] + 1:
        problems.append(f"trace has {len(rows) - 1} rows for {doc['generations']} generations")
    if any(len(r.split(",")) != width for r in rows):
        problems.append(f"trace rows are not {width} columns wide")
    elif len(rows) > 1 and float(rows[-1].split(",")[1]) != -doc["probability_bound"]:
        problems.append("last trace row's best_cost is not minus the bound")
    if summary["bounds"] != [doc["probability_bound"]]:
        problems.append("summary.json disagrees with result_0.json")
    return doc, problems


# ---------------------------------------------------------------- metrics


def end_to_end_metrics(setup_s, loop, bounds, evaluations, points, candidate, failed, attempted):
    restart_s = loop.restart_s()
    hits = sum(abs(b - candidate) <= HIT_TOL for b in bounds)
    runs = len(loop.main_s)
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "wall_s": (loop.wall_s, "s"),
        "restart_s_p50": (statistics.median(restart_s), "s"),
        "outer_evals_per_s": (evaluations / loop.wall_s, "1/s"),
        "bound_best": (max(bounds, default=0.0), "1"),
        "bound_p50": (statistics.median(bounds) if bounds else 0.0, "1"),
        "hit_rate": (hits / runs, "1"),
        "failed_frac": (failed / attempted, "1"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "points_per_s": (POINT_BLOCK / statistics.median(points.block_s), "1/s"),
        "point_block_ms_p99": (1e3 * quantile(points.block_s, 0.99), "ms"),
    }


def layer_metrics(loop, out_root, overhead_s):
    """Per-layer metrics of one traced run."""
    tracer, c = loop.tracer, loop.counts.total
    wall_s, gen_s = loop.wall_s, loop.gen_s()
    m = {}
    m["surrogate.calls"] = (tracer.calls("surrogate"), "count")
    m["surrogate.self_s"] = (tracer.self_s("surrogate"), "s")
    m["surrogate.ns_per_call"] = (
        1e9 * tracer.self_s("surrogate") / max(1, tracer.calls("surrogate")), "ns")
    measures_self = 0.0
    for name in MEASURE_FUNCS:
        key = f"measures.{name}"
        m[f"{key}.calls"] = (tracer.calls(key), "count")
        m[f"{key}.self_s"] = (tracer.self_s(key), "s")
        measures_self += tracer.self_s(key)
    evals = c["outer_evals"] + c["inner_evals"]
    m["measures.us_per_eval"] = (1e6 * measures_self / max(1, evals), "us")

    m["de.outer.generations"] = (c["generations"], "count")
    m["de.outer.evals"] = (c["outer_evals"], "count")
    m["de.outer.self_s"] = (tracer.self_s("de.outer"), "s")
    m["de.outer.gen_s_p50"] = (statistics.median(gen_s) if gen_s else 0.0, "s")
    m["de.outer.gen_s_p95"] = (quantile(gen_s, 0.95) if gen_s else 0.0, "s")
    m["de.inner.calls"] = (c["inner_calls"], "count")
    m["de.inner.generations"] = (c["inner_generations"], "count")
    m["de.inner.evals"] = (c["inner_evals"], "count")
    m["de.inner.self_s"] = (tracer.self_s("de.inner"), "s")
    m["de.inner.zero_gen_ratio"] = (
        loop.counts.inner_zero_gen / max(1, c["inner_calls"]), "ratio")

    repairs = tracer.calls("solver.repair")
    infeasible = tracer.errors("solver.repair")
    m["solver.repair.calls"] = (repairs, "count")
    m["solver.repair.self_s"] = (tracer.self_s("solver.repair"), "s")
    m["solver.repair.infeasible"] = (infeasible, "count")
    m["solver.repair.feasible_ratio"] = (1.0 - infeasible / max(1, repairs), "ratio")
    m["solver.inner.trigger_ratio"] = (tracer.calls("solver.impose") / max(1, repairs), "ratio")
    m["solver.inner.failures"] = (tracer.errors("solver.impose"), "count")
    m["solver.inner_share"] = (tracer.total_s("solver.impose") / wall_s, "ratio")

    m["cli.self_s"] = (
        wall_s - tracer.total_s("cli.ouq_solve") - tracer.total_s("config.load_config"), "s")
    m["cli.artifact_bytes"] = (
        sum(p.stat().st_size for p in out_root.rglob("*") if p.is_file()), "B")
    m["config.load_s"] = (tracer.total_s("config.load_config"), "s")
    m["trace.overhead_s"] = (overhead_s, "s")

    for key in ("pointwise.func", "pointwise.limit_func"):
        calls = tracer.calls(key)
        m[f"{key}.calls"] = (calls, "count")
        m[f"{key}.ns_per_call"] = (1e9 * tracer.self_s(key) / max(1, calls), "ns")
    return m


def declared_metrics(trace):
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return doc["per_layer" if trace else "end_to_end"]


# ---------------------------------------------------------------- main


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        ouq = import_ouq()
    except (BenchError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    WORK_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        return run(ouq, args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def run(ouq, args, tmp) -> int:
    runs = max(1, round(SOLVE_SHARE * args.seconds / WORKLOADS[args.workload]["restart_s"]))
    base_seed = args.seed * runs
    out_root = tmp / "out"
    config_path = tmp / "config.yaml"
    write_config(args.workload, base_seed, runs, config_path)
    config = ouq.config.load_config(config_path)
    params = ouq.surrogate.SurrogateParams()
    candidate = candidate_bound(config.mean_band[0], config.bounds_per_dim, params)

    calibration = Calibration(params, config.bounds_per_dim)
    calibration.sample()
    setup_s = [setup_probe(config_path) for _ in range(SETUP_PROBES_FIRST)]
    points = PointStream(ouq, config.response, args.seed, config.bounds_per_dim)
    slice_s = (1.0 - SOLVE_SHARE) * args.seconds / runs
    loop = SolveLoop(ouq, config.response, traced=bool(args.trace))
    try:
        codes = []
        for k in range(runs):
            codes.append(loop.solve(config_path, base_seed + k, out_root / str(k)))
            calibration.sample()
            setup_s.append(setup_probe(config_path))
            points.run(slice_s)
            calibration.sample()
    finally:
        loop.close()

    problems, bounds, evaluations, failed_restarts = [], [], 0, 0
    for k, code in enumerate(codes):
        try:
            doc, found = check_restart(ouq, out_root / str(k), config)
        except (KeyError, TypeError, ValueError, ouq.errors.OUQError) as exc:
            doc, found = None, [f"malformed artifacts: {exc!r}"]
        if code != 0:
            found.insert(0, f"ouq solve exited {code}")
        if doc is not None:
            bounds.append(doc["probability_bound"])
            evaluations += doc["evaluations"]
        if found:
            failed_restarts += 1
            problems.extend(f"restart {k} (seed {base_seed + k}): {p}" for p in found)
    if points.failures:
        problems.append(f"{points.failures} of {points.points} points disagree with the formula")

    info = {}
    overhead_s = None
    attempted = runs + points.points
    failed = failed_restarts + points.failures
    if args.trace:
        failures, overhead_s = determinism_and_overhead(
            ouq, args.workload, loop, config_path, config.response, base_seed, tmp, info)
        problems.extend(failures)
        attempted += 1
        failed += bool(failures)

    e2e = end_to_end_metrics(
        setup_s, loop, bounds, evaluations, points, candidate, failed, attempted)
    metrics = layer_metrics(loop, out_root, overhead_s) if args.trace else e2e
    info.update(
        runs=runs, base_seed=base_seed, candidate=candidate, bounds=bounds,
        outer_evaluations=evaluations, restart_s=loop.restart_s(),
        point_blocks=len(points.block_s), points=points.points, setup_s_all=setup_s,
        calibration_s_p50=statistics.median(calibration.times), calibration_s=calibration.times,
    )
    if args.trace:
        info["spans_file"] = write_spans(args, loop)

    for name, (value, unit) in sorted(metrics.items()):
        print(f"metric {name} {value!r} {unit}")
    for name, value in info.items():
        print(f"info {name} {json.dumps(value)}")
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)

    out = {}
    for d in declared_metrics(args.trace):
        value, unit = metrics[d["name"]]
        if unit != d["unit"]:
            raise BenchError(f"{d['name']} is in {unit}, BENCHMARK.json says {d['unit']}")
        out[d["name"]] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": out,
    }))
    return 0


def determinism_and_overhead(ouq, workload, loop, config_path, response, base_seed, tmp, info):
    """Re-run the first restart untraced, traced, untraced and traced again.

    The counts of both traced reruns must equal those of the traced pass,
    and the pinned ones when the seed is 0.  The tracing overhead is the
    fastest traced minus the fastest untraced rerun, since one pair alone
    is often swamped by the machine's own drift.  Returns the problems and
    the overhead in seconds.
    """
    walls, codes, repeats = {False: [], True: []}, [], []
    for k, traced in enumerate((False, True, False, True)):
        again = SolveLoop(ouq, response, traced=traced)
        try:
            codes.append(again.solve(config_path, base_seed, tmp / "again" / str(k)))
        finally:
            again.close()
        walls[traced].append(again.wall_s)
        if traced:
            repeats.append(again.counts.per_restart[0] if again.counts.per_restart else None)
    first = loop.counts.per_restart[0] if loop.counts.per_restart else None
    info["counts_first_restart"] = dict(zip(COUNT_NAMES, first or ()))
    info["trace_overhead_ratio"] = min(walls[True]) / min(walls[False])
    problems = []
    if any(codes) or any(r != first for r in repeats):
        problems.append(f"traced reruns of seed {base_seed} counted {repeats}, first run {first}")
    if base_seed == 0 and first != PINNED_SEED0[workload]:
        problems.append(f"seed 0 counted {first}, pinned {PINNED_SEED0[workload]}")
    return problems, min(walls[True]) - min(walls[False])


def write_spans(args, loop):
    """Write the run's spans, plus one span per outer generation, under WORK_DIR."""
    spans = [list(s) for s in loop.tracer.spans]
    restarts = [s for s in spans if s[1] == "cli.ouq_solve"]
    next_id = max((s[0] for s in spans), default=-1) + 1
    for restart, stamps in zip(restarts, loop.gen_stamps):
        for a, b in zip(stamps, stamps[1:]):
            spans.append([next_id, "de.outer.generation", restart[0], a, b])
            next_id += 1
    path = WORK_DIR / f"spans-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(
        {"fields": ["id", "name", "parent", "start_s", "end_s"], "spans": spans}))
    return str(path.relative_to(ROOT))


if __name__ == "__main__":
    sys.exit(main())
