"""Command-line front end.

    ouq solve <config> [--seed N] [--runs N] [--output-dir PATH]
    ouq eval <response> <coord> [<coord> ...]

`solve` executes `runs` independent seeded restarts and writes, per run k,
`trace_<k>.csv` (generation, best_cost, then the flattened parameters in
layout order) and `result_<k>.json` (bound, expectation, maximizer
measure, outer and inner DE counts), plus a `summary.json` naming the best
run.  A run's files are written only once its solve has returned, each to
a temporary file that is then renamed into place.  Exit codes: 0 ok, 1
usage or configuration error, 2 solver error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from .config import RunConfig, apply_overrides, build_problem, load_config
from .errors import ConfigError, DomainError, OUQError
from .measures import DiscreteMeasure, ProductMeasure, pack
from .registry import check_arity, get_response
from .solver import ouq_solve


def measure_to_dict(p: ProductMeasure) -> dict:
    return {
        "factors": [
            {
                "weights": list(f.weights()),
                "positions": list(f.coords()),
                "lower": f.lower,
                "upper": f.upper,
            }
            for f in p.factors
        ]
    }


def measure_from_dict(doc: dict) -> ProductMeasure:
    return pack(
        [
            DiscreteMeasure.from_arrays(
                f["weights"], f["positions"], f["lower"], f["upper"]
            )
            for f in doc["factors"]
        ]
    )


def _trace_header(npts_per_dim: tuple[int, ...]) -> list[str]:
    cols = ["generation", "best_cost"]
    for i, n in enumerate(npts_per_dim):
        cols.extend(f"w{i}_{j}" for j in range(n))
        cols.extend(f"x{i}_{j}" for j in range(n))
    return cols


def _write_atomic(path: Path, text: str) -> None:
    """Write `text` to a temporary file beside `path`, then rename it into
    place, so a failed write leaves neither a partial `path` nor the temporary."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def run_solve(config: RunConfig) -> int:
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    header = _trace_header(config.npts_per_dim)

    best_run = None
    best_bound = None
    bounds = []
    for k in range(config.runs):
        seed = config.seed + k
        result = ouq_solve(build_problem(config, seed))
        rows = [header]
        for rec in result.report.trace:
            rows.append([str(rec.generation), repr(rec.best_cost)])
            rows[-1].extend(repr(v) for v in rec.best_params.tolist())
        _write_atomic(out_dir / f"trace_{k}.csv", "".join(",".join(r) + "\n" for r in rows))

        doc = {
            "probability_bound": result.probability_bound,
            "expectation": result.expectation_at_maximizer,
            "maximizer": measure_to_dict(result.maximizer),
            "seed": seed,
            "generations": result.report.generations_run,
            "evaluations": result.report.evaluations,
            "terminated_by": result.report.terminated_by,
            "inner_runs": result.inner.runs,
            "inner_generations": result.inner.generations,
            "inner_evaluations": result.inner.evaluations,
        }
        _write_atomic(out_dir / f"result_{k}.json", json.dumps(doc, indent=2) + "\n")

        bounds.append(result.probability_bound)
        if best_bound is None or result.probability_bound > best_bound:
            best_bound = result.probability_bound
            best_run = k
        print(f"run {k} (seed {seed}): bound = {result.probability_bound:.6f}")

    summary = {
        "best_run": best_run,
        "best_bound": best_bound,
        "bounds": bounds,
        "runs": config.runs,
        "base_seed": config.seed,
    }
    _write_atomic(out_dir / "summary.json", json.dumps(summary, indent=2) + "\n")
    print(f"best bound = {best_bound:.6f} (run {best_run})")
    return 0


def eval_point(name: str, coords: list[float]) -> int:
    """Print the response (and its limit) at one point; bad input is a ConfigError."""
    entry = get_response(name)
    check_arity(entry, len(coords))
    if not all(map(math.isfinite, coords)):
        raise ConfigError(f"coordinates must be finite, got {coords}")
    try:
        value = entry.func(*coords)
        limit = None if entry.limit_func is None else entry.limit_func(*coords[:-1])
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc
    print(f"{value:.6f}")
    if limit is not None:
        print(f"v_bl={limit:.6f}")
    return 0


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the documented usage code is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(1)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ouq", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the OUQ solver from a config file")
    p_solve.add_argument("config", help="path to a YAML run configuration")
    p_solve.add_argument("--seed", type=int, default=None, help="override the base seed")
    p_solve.add_argument("--runs", type=int, default=None, help="override the restart count")
    p_solve.add_argument("--output-dir", default=None, help="override the artifact directory")

    p_eval = sub.add_parser("eval", help="evaluate a registered response pointwise")
    p_eval.add_argument("response", help="registered response name")
    p_eval.add_argument("coords", nargs="+", type=float, help="input coordinates")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code or 0

    try:
        if args.command == "eval":
            return eval_point(args.response, args.coords)

        config = apply_overrides(
            load_config(args.config),
            seed=args.seed,
            runs=args.runs,
            output_dir=args.output_dir,
        )
        return run_solve(config)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except OUQError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
