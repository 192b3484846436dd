import importlib
import errno
import hashlib
import inspect
import json
import math
import time
from dataclasses import fields, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import ouq.config as config_mod
import ouq.errors as errors_mod
import ouq.registry as registry_mod
import ouq.cli
from ouq import (
    ChangeOverGeneration, DESettings, MeanConstraint, event_probability, flatten, ouq_solve,
    perforation_area,
)
from ouq.de import ValueBelow, de_lockstep
from ouq.errors import ConfigError, DomainError, InfeasibleConstrain
from ouq.solver import InnerCounts, impose_expectation
from ouq.cli import build_problem, main, measure_from_dict, measure_to_dict
from ouq.config import RunConfig, load_config
from ouq.registry import ResponseEntry, get_response

REPO_ROOT = Path(__file__).resolve().parents[1]
PAPER_CONFIG = REPO_ROOT / "paper.config"


TINY_CONFIG = """\
response: sphir-perforation
npts_per_dim: [2, 2, 2]
bounds_per_dim:
  - {lower: 60.0, upper: 105.0, unit: mils}
  - {lower: 0.0, upper: 30.0, unit: deg}
  - [2.1, 2.8]
mean_band: [5.5, 7.5]
outer:
  npop: 40
  max_generations: 15
inner:
  npop: 20
outer_termination: {rule: change_over_generation, tolerance: 1.0e-4, generations: 10}
seed: 0
runs: 1
output_dir: {outdir}
"""


BOUNDS_LINES = """\
  - {lower: 60.0, upper: 105.0, unit: mils}
  - {lower: 0.0, upper: 30.0, unit: deg}
  - [2.1, 2.8]
"""


OUTER_TERMINATION_LINE = (
    "outer_termination: {rule: change_over_generation, tolerance: 1.0e-4, generations: 10}\n"
)


def write_tiny_config(tmp_path, **overrides):
    outdir = overrides.pop("outdir", tmp_path / "out")
    text = TINY_CONFIG.replace("{outdir}", str(outdir))
    for key, value in overrides.items():
        text = text.replace(key, value)
    path = tmp_path / "tiny.config"
    path.write_text(text)
    return path, Path(outdir)


BANDS = {"reference": "[5.5, 7.5]", "narrow_band": "[6.4, 6.6]"}

# numpy's np.power and np.tanh loops give other bits on other CPU dispatch
# targets, and the seeded trajectories follow them.  So the pins are
# kept per target, keyed by `dispatch_fingerprint()`: per workload, seed 0's
# generations / evaluations / inner runs / inner generations / inner
# evaluations / repair_rows / inner_failures, its bound, and the digest of the
# artifacts of seeds 0-9.  On a target not listed here they fail, naming its
# fingerprint; the solver without the surrogate is pinned on every target by
# tests/test_solver.py's TestMarkovOracle::test_solves_pinned_on_every_cpu.
SEED_PINS = {
    # AVX512: X86_V4, AVX512_ICL and AVX512_SPR all found
    "b65699abb702ca33eedf1f39aef99e97740e1e78206ee8722f2bde050e165c72": {
        "reference": (
            (41, 1659, 0, 0, 0, 528, 0),
            0.3788045322798797,
            "fc5bcc1335a20e5c7233cfc66daa12555bf70b29d86ca3688ce0b2681b42e0be",
        ),
        "narrow_band": (
            (40, 1592, 0, 0, 0, 1072, 0),
            0.277142256242404,
            "dc554fae4dac7ab479b95a1bfb6d49e06ac236fe08792f147bcff58da4e63340",
        ),
    },
    # X86_V3 (AVX2, FMA3), as under NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"
    "33ee33e5ebf86c77182abacc996707d4b5700d9c8e40c14974bbb45309047f80": {
        "reference": (
            (41, 1659, 0, 0, 0, 525, 0),
            0.37880453227987976,
            "d894af026298a96aabb1162b110e502dba8097d8285982d8438f9e8d39b4a6a6",
        ),
        "narrow_band": (
            (27, 1074, 0, 0, 0, 820, 0),
            0.2770702559251748,
            "f09faf0aff59bb6ab3cc74aad7c807ba944386fca7f5cb31890c344c82a34f1d",
        ),
    },
    # X86_V2 (SSE4.2, POPCNT), as under
    # NPY_DISABLE_CPU_FEATURES="X86_V3 X86_V4 AVX512_ICL AVX512_SPR"
    "312e31a9737652031ca2982148c2a97058a152b7dc7c20e1e842d1408a6cabf5": {
        "reference": (
            (32, 1299, 0, 0, 0, 450, 0),
            0.3787156377930819,
            "5383f71597f5dd8eebee4aad11291df57c6e9a2f27362f4b0e8c5a208db739b4",
        ),
        "narrow_band": (
            (36, 1431, 0, 0, 0, 975, 0),
            0.2771477197892014,
            "e5db51a661cd0f732c66494ee9c0abe2a8bb46f415bd82ed6bd1cb54ab5f04a6",
        ),
    },
}


def dispatch_fingerprint() -> str:
    """sha256 of perforation_area's array form at the 64 cell midpoints of a
    4 x 4 x 4 grid over paper.config's box."""
    lower, upper = np.array([1.524, 0.0, 2.1]), np.array([2.667, 0.5235987755982988, 2.8])
    axes = [lo + (hi - lo) * (np.arange(4) + 0.5) / 4 for lo, hi in zip(lower, upper)]
    area = perforation_area(*np.meshgrid(*axes, indexing="ij"))
    return hashlib.sha256(area.tobytes()).hexdigest()


def seed_pins(workload):
    fingerprint = dispatch_fingerprint()
    if fingerprint not in SEED_PINS:
        pytest.fail(f"no seed pins for numpy dispatch fingerprint {fingerprint}")
    return SEED_PINS[fingerprint][workload]


class TestLoadConfig:
    def test_paper_config(self):
        cfg = load_config(PAPER_CONFIG)
        assert cfg.response == "sphir-perforation"
        assert cfg.npts_per_dim == (2, 2, 2)
        assert cfg.bounds_per_dim[0] == pytest.approx((1.524, 2.667))
        assert cfg.bounds_per_dim[1] == pytest.approx((0.0, math.pi / 6))
        assert cfg.bounds_per_dim[2] == pytest.approx((2.1, 2.8))
        assert cfg.mean_band == (5.5, 7.5)
        assert cfg.outer.npop == 40
        assert cfg.inner.npop == 20
        assert cfg.outer.cross_probability == 0.9
        assert cfg.outer.scaling_factor == 0.9
        assert cfg.outer_termination == ChangeOverGeneration(1e-4, 10)
        assert cfg.runs == 10

    def test_unit_conversion(self, tmp_path):
        path, _ = write_tiny_config(tmp_path)
        cfg = load_config(path)
        assert cfg.bounds_per_dim[0] == pytest.approx((1.524, 2.667), abs=1e-12)
        assert cfg.bounds_per_dim[1][1] == pytest.approx(math.pi / 6, abs=1e-12)

    def test_center_deviation_band(self, tmp_path):
        # the band has one form, its edges: {m: M, d: D} is written [M - D, M + D]
        path, _ = write_tiny_config(tmp_path, **{"mean_band: [5.5, 7.5]": "mean_band: {m: 6.5, d: 1.0}"})
        with pytest.raises(ConfigError, match=r"mean_band must be an \[m1, m2\] pair"):
            load_config(path)

    def test_band_edges_kept(self, tmp_path):
        # (0.1 + 0.3) / 2 - (0.3 - 0.1) / 2 is 0.10000000000000002
        path, _ = write_tiny_config(tmp_path, **{"mean_band: [5.5, 7.5]": "mean_band: [0.1, 0.3]"})
        cfg = load_config(path)
        assert cfg.mean_band == (0.1, 0.3)
        assert build_problem(cfg, cfg.seed).constraint.band == (0.1, 0.3)

    def test_zero_npts_rejected(self, tmp_path):
        path, _ = write_tiny_config(tmp_path, **{"npts_per_dim: [2, 2, 2]": "npts_per_dim: [0, 2, 2]"})
        with pytest.raises(ConfigError):
            load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path, _ = write_tiny_config(tmp_path)
        path.write_text(path.read_text() + "bogus_key: 1\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_unknown_keys_of_mixed_types_rejected(self, tmp_path):
        path, _ = write_tiny_config(tmp_path)
        path.write_text(path.read_text() + "1: 2\nbogus_key: 1\n")
        with pytest.raises(ConfigError, match="1, bogus_key"):
            load_config(path)

    @pytest.mark.parametrize(
        "old, new",
        [
            ("runs: 1\n", "runs: 10\nruns: 2\n"),
            ("  npop: 40\n", "  npop: 40\n  npop: 30\n"),
            ("[2.1, 2.8]", "{lower: 2.1, upper: 2.8, lower: 2.2}"),
        ],
        ids=["top_level", "nested", "flow_mapping"],
    )
    def test_duplicate_key_rejected(self, tmp_path, capsys, old, new):
        # the last value would silently win
        path, outdir = write_tiny_config(tmp_path, **{old: new})
        with pytest.raises(ConfigError, match="duplicate key"):
            load_config(path)
        assert main(["solve", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not outdir.exists()

    def test_unhashable_key_rejected(self, tmp_path):
        path, _ = write_tiny_config(tmp_path, **{"seed: 0": "[1]: 3\nseed: 0"})
        with pytest.raises(ConfigError, match="unhashable"):
            load_config(path)

    @pytest.mark.parametrize("unit", ["[mils]", "{a: 1}", "1"], ids=["list", "mapping", "number"])
    def test_non_string_unit_rejected(self, tmp_path, capsys, unit):
        path, outdir = write_tiny_config(tmp_path, **{"unit: mils": f"unit: {unit}"})
        with pytest.raises(ConfigError, match=r"bounds_per_dim\[0\]\.unit: unknown unit"):
            load_config(path)
        assert main(["solve", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not outdir.exists()

    def test_unknown_nested_key_rejected(self, tmp_path):
        path, _ = write_tiny_config(tmp_path, **{"npop: 40": "npop: 40\n  banana: 1"})
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize(
        "old, new",
        [
            ("seed: 0", "inner_max_generations: 5\nseed: 0"),
            (OUTER_TERMINATION_LINE, "outer_termination: {rule: max_generations, limit: 5}\n"),
        ],
        ids=["inner_max_generations", "max_generations_rule"],
    )
    def test_removed_keys_rejected(self, tmp_path, old, new):
        path, _ = write_tiny_config(tmp_path, **{old: new})
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize(
        "old, new",
        [
            ("[2.1, 2.8]", "[2.1, .inf]"),
            ("mean_band: [5.5, 7.5]", "mean_band: [.nan, 7.5]"),
        ],
        ids=["inf_bound", "nan_band"],
    )
    def test_non_finite_numbers_rejected(self, tmp_path, capsys, old, new):
        path, outdir = write_tiny_config(tmp_path, **{old: new})
        with pytest.raises(ConfigError, match="finite"):
            load_config(path)
        assert main(["solve", str(path)]) == 1
        assert not outdir.exists()

    @pytest.mark.parametrize(
        "new",
        [
            "outer_termination: {rule: change_over_generation, tolerance: -1.0}\n",
            "outer_termination: {rule: value_below}\n",
        ],
        ids=["negative_tolerance", "missing_tolerance"],
    )
    def test_invalid_termination_rejected(self, tmp_path, capsys, new):
        path, outdir = write_tiny_config(tmp_path, **{OUTER_TERMINATION_LINE: new})
        with pytest.raises(ConfigError, match="outer_termination"):
            load_config(path)
        assert main(["solve", str(path)]) == 1
        assert not outdir.exists()

    def test_inner_max_generations_is_the_inner_cap(self, tmp_path, de_reports):
        path, _ = write_tiny_config(
            tmp_path,
            **{
                "npop: 20": "npop: 20\n  max_generations: 3",
                "mean_band: [5.5, 7.5]": "mean_band: [100.0, 101.0]",
            },
        )
        problem = build_problem(load_config(path), seed=0)
        assert problem.inner.max_generations == 3

        counts = InnerCounts()
        best = impose_expectation(problem, [1], counts)
        assert len(best) == 1
        assert counts.generations == 3  # the run exhausted its 3 generations
        assert de_reports[0].opt_cost > problem.constraint.d**2
        assert [r.generations_run for r in de_reports] == [3]

    def test_parse_error(self, tmp_path):
        path = tmp_path / "broken.config"
        path.write_text("response: [unclosed\n")
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML has no libyaml")
    def test_libyaml_and_pure_python_loaders_agree(self, tmp_path, monkeypatch):
        fast = load_config(PAPER_CONFIG)
        monkeypatch.setattr(config_mod, "_Loader", yaml.SafeLoader)
        assert load_config(PAPER_CONFIG) == fast
        path = tmp_path / "broken.config"
        path.write_text("response: [unclosed\n")
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("npts_per_dim: [2, 2, 2]", "npts_per_dim: [0, 2, 2]", "npts_per_dim"),
            ("[2.1, 2.8]", "[2.8, 2.1]", r"\[2\.8, 2\.1\]"),
            ("mean_band: [5.5, 7.5]", "mean_band: [7.5, 5.5]", r"\[7\.5, 5\.5\]"),
            ("mean_band: [5.5, 7.5]", "mean_band: [6.5, 6.5]", r"\[6\.5, 6\.5\]"),
            ("seed: 0", "failure_tolerance: -0.5\nseed: 0", "failure_tolerance"),
            ("npop: 40", "npop: 3", "npop"),
            ("max_generations: 15", "max_generations: 0", "max_generations"),
            ("generations: 10}", "generations: 0}", "generations"),
            ("tolerance: 1.0e-4", "tolerance: 0.0", "tolerance"),
        ],
        ids=[
            "npts_0", "lower_above_upper", "m1_above_m2", "d_zero", "negative_failure_tolerance",
            "npop_3", "max_generations_0", "generations_0", "tolerance_0",
        ],
    )
    def test_range_rule_rejected(self, tmp_path, capsys, old, new, message):
        # the rule is the type's own; the file is held to it before any output
        path, outdir = write_tiny_config(tmp_path, **{old: new})
        with pytest.raises(ConfigError, match=message):
            load_config(path)
        assert main(["solve", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not outdir.exists()

    def test_non_utf8_file_rejected(self, tmp_path, capsys):
        path, outdir = write_tiny_config(tmp_path)
        path.write_bytes((path.read_text() + "# plate: 60 \u00b5m\n").encode("latin-1"))
        with pytest.raises(ConfigError, match="utf-8"):
            load_config(path)
        assert main(["solve", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert not outdir.exists()

    @pytest.mark.parametrize("value", ["~", "[a, b]", "''"], ids=["null", "list", "empty"])
    def test_output_dir_must_be_a_nonempty_string(self, tmp_path, monkeypatch, capsys, value):
        monkeypatch.chdir(tmp_path)
        path, _ = write_tiny_config(tmp_path, outdir=value)
        with pytest.raises(ConfigError, match="output_dir"):
            load_config(path)
        assert main(["solve", str(path)]) == 1
        assert [p.name for p in tmp_path.iterdir()] == ["tiny.config"]

    @pytest.mark.parametrize(
        "key, value", [("runs", 0), ("seed", -1), ("runs", 2.5), ("seed", True)],
        ids=["runs_0", "seed_negative", "runs_fraction", "seed_bool"],
    )
    def test_library_caller_held_to_the_file_rules(self, key, value):
        # runs=0 would write a summary with no best run, then crash in run_solve
        with pytest.raises(ValueError, match=f"{key} must be an integer >= "):
            replace(load_config(PAPER_CONFIG), **{key: value})

    def test_every_field_type_has_a_parser(self):
        for cls in (RunConfig, DESettings, ChangeOverGeneration, ValueBelow):
            assert set(get_type_hints(cls).values()) <= set(config_mod._AS_TYPE), cls


class TestEval:
    def test_fast_thick_plate(self, capsys):
        assert main(["eval", "sphir-perforation", "2.667", "0", "2.8"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert float(out[0]) == pytest.approx(6.20, abs=0.005)
        assert out[1].startswith("v_bl=")
        assert float(out[1].split("=")[1]) == pytest.approx(2.2885, abs=0.0005)

    def test_at_ballistic_limit(self, capsys):
        assert main(["eval", "sphir-perforation", "2.667", "0", "2.2885"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert float(out[0]) == 0.0

    def test_thin_plate(self, capsys):
        assert main(["eval", "sphir-perforation", "1.524", "0", "2.2885"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert float(out[0]) == pytest.approx(8.854, abs=0.001)

    def test_unknown_response(self, capsys):
        assert main(["eval", "no-such-response", "1.0"]) == 1

    def test_arity_mismatch(self, capsys):
        assert main(["eval", "sphir-perforation", "1.0"]) == 1

    @pytest.mark.parametrize(
        "coords",
        [
            ["nan", "0", "2.8"], ["2.667", "0", "nan"], ["inf", "0", "2.8"], ["-1", "0", "2.8"],
            # v_bl overflows, or underflows to 0 so that v / v_bl divides by zero
            ["1e308", "0", "1e308"], ["1e-300", "0", "2.5"],
        ],
        ids=[
            "nan_thickness", "nan_speed", "inf_thickness", "negative_thickness",
            "overflowing_limit", "vanishing_limit",
        ],
    )
    def test_bad_point_rejected(self, capsys, coords):
        assert main(["eval", "sphir-perforation", *coords]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert len(captured.err.splitlines()) == 1

    def test_usage_error_exit_code(self):
        assert main([]) == 1
        assert main(["frobnicate"]) == 1


class TestSolve:
    def test_artifacts(self, tmp_path, capsys):
        path, outdir = write_tiny_config(tmp_path)
        assert main(["solve", str(path)]) == 0

        trace = (outdir / "trace_0.csv").read_text().splitlines()
        header = trace[0].split(",")
        assert len(header) == 14  # generation + best_cost + 12 parameters
        assert header[:2] == ["generation", "best_cost"]
        costs = [float(row.split(",")[1]) for row in trace[1:]]
        assert costs
        assert all(b <= a for a, b in zip(costs, costs[1:]))

        result = json.loads((outdir / "result_0.json").read_text())
        summary = json.loads((outdir / "summary.json").read_text())
        assert summary["best_run"] == 0
        assert summary["best_bound"] == result["probability_bound"]

        # round trip: rebuilding the measure reproduces the stored bound
        entry = get_response("sphir-perforation")
        measure = measure_from_dict(result["maximizer"])
        prob = event_probability(measure, lambda *xs: entry.func(*xs) == 0.0)
        assert abs(prob - result["probability_bound"]) <= 1e-12

    def test_cli_overrides(self, tmp_path, capsys):
        path, outdir = write_tiny_config(tmp_path)
        other = tmp_path / "other"
        assert main(["solve", str(path), "--seed", "3", "--runs", "2", "--output-dir", str(other)]) == 0
        assert (other / "trace_1.csv").exists()
        summary = json.loads((other / "summary.json").read_text())
        assert summary["base_seed"] == 3
        assert summary["runs"] == 2

    def test_runs_to_max_generations_without_outer_termination(self, tmp_path, capsys):
        path, outdir = write_tiny_config(tmp_path, **{OUTER_TERMINATION_LINE: ""})
        assert load_config(path).outer_termination is None
        assert main(["solve", str(path)]) == 0
        result = json.loads((outdir / "result_0.json").read_text())
        assert result["generations"] == 15
        assert result["terminated_by"] == "max_generations"

    @pytest.mark.parametrize(
        "flag, value", [("--seed", "-1"), ("--runs", "0")], ids=["seed", "runs"]
    )
    def test_invalid_override_rejected_before_artifacts(self, tmp_path, capsys, flag, value):
        path, outdir = write_tiny_config(tmp_path)
        assert main(["solve", str(path), flag, value]) == 1
        assert flag in capsys.readouterr().err
        assert not (outdir / "trace_0.csv").exists()

    @pytest.mark.parametrize(
        "edits, message",
        [
            ({"response: sphir-perforation": "response: sphir-perf"}, "no response named"),
            (
                {"npts_per_dim: [2, 2, 2]": "npts_per_dim: [2, 2]", "  - [2.1, 2.8]\n": ""},
                "takes 3 coordinates, got 2",
            ),
            ({"upper: 30.0, unit: deg": "upper: 90.0, unit: deg"}, "domain .*obliquity"),
        ],
        ids=["unknown_response", "axis_count", "box_outside_domain"],
    )
    def test_unresolvable_response_rejected_at_load(self, tmp_path, capsys, edits, message):
        path, outdir = write_tiny_config(tmp_path, **edits)
        with pytest.raises(ConfigError, match=message):
            load_config(path)
        assert main(["solve", str(path)]) == 1
        assert not outdir.exists()

    def test_never_feasible_run_writes_no_trace(self, tmp_path, capsys):
        path, outdir = write_tiny_config(
            tmp_path,
            **{
                "npop: 20": "npop: 20\n  max_generations: 3",
                "mean_band: [5.5, 7.5]": "mean_band: [100.0, 101.0]",
            },
        )
        assert main(["solve", str(path)]) == 2
        assert "initial population" in capsys.readouterr().err
        assert not (outdir / "trace_0.csv").exists()
        summary = json.loads((outdir / "summary.json").read_text())
        assert (summary["best_run"], summary["bounds"], summary["failed_run"]["run"]) == (None, [], 0)

    @pytest.mark.parametrize("workload", list(BANDS))
    def test_seed_0_result_pinned(self, tmp_path, capsys, workload):
        (generations, evaluations, *_), bound, _ = seed_pins(workload)
        config = tmp_path / "paper.config"
        config.write_text(
            PAPER_CONFIG.read_text().replace("mean_band: [5.5, 7.5]", f"mean_band: {BANDS[workload]}")
        )
        args = ["solve", str(config), "--seed", "0", "--runs", "1", "--output-dir", str(tmp_path)]
        assert main(args) == 0
        result = json.loads((tmp_path / "result_0.json").read_text())
        assert (result["generations"], result["evaluations"]) == (generations, evaluations)
        assert result["probability_bound"] == bound
        # the trace ends at the maximizer: one row per generation after the header
        rows = (tmp_path / "trace_0.csv").read_text().splitlines()
        assert len(rows) == generations + 1
        last = [float(x) for x in rows[-1].split(",")]
        assert last[:2] == [generations, -bound]
        assert last[2:] == flatten(measure_from_dict(result["maximizer"])).tolist()

    @pytest.mark.parametrize("workload", list(BANDS))
    def test_seed_0_inner_counts_pinned(self, tmp_path, capsys, workload):
        # the totals of the band repairs of seed 0
        counts, _, _ = seed_pins(workload)
        config = tmp_path / "paper.config"
        config.write_text(
            PAPER_CONFIG.read_text().replace("mean_band: [5.5, 7.5]", f"mean_band: {BANDS[workload]}")
        )
        args = ["solve", str(config), "--seed", "0", "--runs", "1", "--output-dir", str(tmp_path)]
        assert main(args) == 0
        result = json.loads((tmp_path / "result_0.json").read_text())
        keys = (
            "generations", "evaluations", "inner_runs", "inner_generations", "inner_evaluations",
            "repair_rows", "inner_failures",
        )
        assert tuple(result[k] for k in keys) == counts
        assert list(result)[-5:] == list(keys[2:])  # the earlier keys keep their bytes

    @pytest.mark.parametrize("workload", list(BANDS))
    def test_seeds_0_to_9_artifacts_pinned(self, tmp_path, capsys, workload):
        # every byte of ten runs' traces, results and summary: a change that
        # does not mean to move the trajectory leaves this digest as it is
        _, _, digest = seed_pins(workload)
        config = tmp_path / "paper.config"
        config.write_text(
            PAPER_CONFIG.read_text().replace("mean_band: [5.5, 7.5]", f"mean_band: {BANDS[workload]}")
        )
        outdir = tmp_path / "out"
        args = ["solve", str(config), "--seed", "0", "--runs", "10", "--output-dir", str(outdir)]
        assert main(args) == 0
        sha = hashlib.sha256()
        for path in sorted(outdir.iterdir()):
            data = path.read_bytes()
            sha.update(f"{path.name}\0{len(data)}\0".encode() + data)
        assert sha.hexdigest() == digest

    def paper_config(self, tmp_path, outer_termination):
        path = tmp_path / "paper.config"
        text = PAPER_CONFIG.read_text()
        start = text.index("outer_termination:")
        end = text.index("seed:", start)
        path.write_text(text[:start] + outer_termination + "\n" + text[end:])
        return path

    def test_outer_value_below_needs_a_negative_target(self, tmp_path, capsys):
        # the outer cost is -P <= 0, so a target >= 0 would stop at generation 0
        path = self.paper_config(tmp_path, "outer_termination: {rule: value_below, tolerance: 0.5}")
        with pytest.raises(ConfigError, match="outer cost is -P"):
            load_config(path)
        outdir = tmp_path / "out"
        assert main(["solve", str(path), "--output-dir", str(outdir)]) == 1
        assert not outdir.exists()

    def test_outer_value_below_stops_at_the_target(self, tmp_path, capsys):
        path = self.paper_config(tmp_path, "outer_termination: {rule: value_below, tolerance: -0.3}")
        args = ["solve", str(path), "--seed", "0", "--runs", "1", "--output-dir", str(tmp_path)]
        assert main(args) == 0
        result = json.loads((tmp_path / "result_0.json").read_text())
        assert result["terminated_by"] == "value_below"
        assert result["probability_bound"] >= 0.3

    def test_failed_write_leaves_no_partial_artifact(self, tmp_path, monkeypatch, capsys):
        path, outdir = write_tiny_config(tmp_path)
        real_open = open

        class FullDisk:
            """A file that takes part of the first write, then fails."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.fh.write(text[: len(text) // 2])
                raise OSError(errno.ENOSPC, "No space left on device")

        def failing_open(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            return FullDisk(fh) if "result_0" in str(file) else fh

        monkeypatch.setattr(ouq.cli, "open", failing_open, raising=False)
        assert main(["solve", str(path)]) == 3
        assert "No space left" in capsys.readouterr().err
        assert sorted(p.name for p in outdir.iterdir()) == ["trace_0.csv"]

    def test_renamed_temporaries_are_not_unlinked(self, tmp_path, monkeypatch):
        path, outdir = write_tiny_config(tmp_path)
        unlinked = []
        monkeypatch.setattr(Path, "unlink", lambda self, missing_ok=False: unlinked.append(self))
        assert main(["solve", str(path)]) == 0
        assert unlinked == [] and not list(outdir.glob("*.tmp"))

    def test_failed_run_still_writes_the_summary(self, tmp_path, monkeypatch, capsys):
        path, outdir = write_tiny_config(tmp_path)
        assert main(["solve", str(path), "--runs", "2"]) == 0
        bounds = [json.loads((outdir / f"result_{k}.json").read_text())["probability_bound"]
                  for k in range(2)]
        best = max(range(2), key=bounds.__getitem__)
        summary = {"best_run": best, "best_bound": bounds[best], "bounds": bounds, "runs": 2,
                   "base_seed": 0}
        assert (outdir / "summary.json").read_text() == json.dumps(summary, indent=2) + "\n"

        real_solve, seeds = ouq.cli.ouq_solve, []

        def fail_second_run(problem):
            seeds.append(problem.outer.seed)
            if len(seeds) == 2:
                raise InfeasibleConstrain("constrain rejected the entire initial population")
            return real_solve(problem)

        monkeypatch.setattr(ouq.cli, "ouq_solve", fail_second_run)
        failed_dir = tmp_path / "failed"
        assert main(["solve", str(path), "--runs", "3", "--output-dir", str(failed_dir)]) == 2
        assert "initial population" in capsys.readouterr().err
        assert seeds == [0, 1]
        assert sorted(p.name for p in failed_dir.iterdir()) == [
            "result_0.json", "summary.json", "trace_0.csv"]
        assert json.loads((failed_dir / "summary.json").read_text()) == {
            "best_run": 0, "best_bound": bounds[0], "bounds": bounds[:1], "runs": 3,
            "base_seed": 0, "failed_run": {
                "run": 1, "seed": 1,
                "error": "InfeasibleConstrain: constrain rejected the entire initial population",
            },
        }

    def test_empty_output_dir_override_rejected(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        path, _ = write_tiny_config(tmp_path)
        assert main(["solve", str(path), "--output-dir", ""]) == 1
        assert "--output-dir" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["tiny.config"]

    def test_missing_config(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path / "nope.config")]) == 1

    def test_invalid_config(self, tmp_path, capsys):
        path, _ = write_tiny_config(tmp_path, **{"npts_per_dim: [2, 2, 2]": "npts_per_dim: [0, 2, 2]"})
        assert main(["solve", str(path)]) == 1


def nan_above_2_7(h, theta, v):
    return np.where(v > 2.7, np.nan, perforation_area(h, theta, v))


def nan_on_slab(h, theta, v):
    return np.where((2.4 < v) & (v < 2.5), np.nan, perforation_area(h, theta, v))


def scalar_only(h, theta, v):
    return math.tanh(v - h)


def branching(h, theta, v):
    return 0.0 if v < 2.5 else v


def off_on_arrays(h, theta, v):
    # on arrays, 1e-4 relative off at the corner of the largest area
    area = perforation_area(h, theta, v)
    return np.where(area == area.max(), area * (1 + 1e-4), area) if np.ndim(v) else area


class TestResponseContract:
    """Responses must be finite and elementwise over arrays; a break is
    caught at load or as soon as the solver meets it."""

    @pytest.fixture
    def register(self, monkeypatch):
        def register(func):
            entry = ResponseEntry("test-response", func, arity=3)
            monkeypatch.setitem(registry_mod._REGISTRY, entry.name, entry)
            return entry.name

        return register

    @pytest.mark.parametrize(
        "func, message",
        [
            (nan_above_2_7, "is nan at the box corner"),
            (scalar_only, "does not work elementwise"),
            (branching, "does not work elementwise"),
            (off_on_arrays, "not the values"),
        ],
        ids=["nan_corner", "scalar_only", "branching", "off_on_arrays"],
    )
    def test_rejected_at_load(self, tmp_path, capsys, register, func, message):
        name = register(func)
        path, outdir = write_tiny_config(
            tmp_path, **{"response: sphir-perforation": f"response: {name}"}
        )
        with pytest.raises(ConfigError, match=message):
            load_config(path)
        assert main(["solve", str(path)]) == 1
        assert not outdir.exists()

    def test_corner_next_to_the_ballistic_limit_loads(self, tmp_path):
        # one corner lies 0.0079 mm^2 above the limit, where the array and
        # scalar forms differ by 5e-10 relative
        box = "".join(f"  - [{lo!r}, {hi!r}]\n" for lo, hi in (
            (1.524, 1.980225706431619),
            (0.0, 0.22883467822033626),
            (1.5335506176614329, 2.8),
        ))
        path, _ = write_tiny_config(tmp_path, **{BOUNDS_LINES: box})
        assert load_config(path).bounds_per_dim[2] == (1.5335506176614329, 2.8)

    def test_interior_nan_fails_fast(self, tmp_path, capsys, register):
        # the box corners are finite, so the load check passes
        name = register(nan_on_slab)
        path, outdir = write_tiny_config(
            tmp_path, **{"response: sphir-perforation": f"response: {name}"}
        )
        problem = build_problem(load_config(path), seed=0)
        t0 = time.perf_counter()
        with pytest.raises(DomainError, match="response is nan"):
            ouq_solve(problem)
        assert time.perf_counter() - t0 < 30.0
        assert main(["solve", str(path)]) == 2
        assert not (outdir / "trace_0.csv").exists()


class TestMeasureSerialization:
    def test_round_trip(self):
        from ouq import DiscreteMeasure, pack

        p = pack(
            [
                DiscreteMeasure.from_arrays([0.63, 0.37], [1.524, 2.667], 1.524, 2.667),
                DiscreteMeasure.from_arrays([1.0], [0.0], 0.0, math.pi / 6),
            ]
        )
        assert measure_from_dict(measure_to_dict(p)) == p


def de_picks(loop):
    return [
        ((loop, "npop"), [4, 6], [3, 0]),
        ((loop, "max_generations"), [1, 3], [0]),
        ((loop, "scaling_factor"), [0.9], [0.0, -0.5]),
    ]


AXES = [(1.524, 2.667), (0.0, 0.5), (2.1, 2.8)]
# thickness boxes at a corner of which v_bl overflows, or underflows to 0
THICKNESS_EDGES = [[AXES[0][0], 1.0e300], [1.0e-300, AXES[0][1]]]

# the 18 values of a small config: each one's path in the mapping, the picks
# that keep its rule and the picks that break it
CONFIG_PICKS = [
    *[(("npts_per_dim", i), [1, 2], [0]) for i in range(len(AXES))],
    *[
        (("bounds_per_dim", i), [[lo, hi]], [[hi, lo], [lo, lo], *(THICKNESS_EDGES if i == 0 else [])])
        for i, (lo, hi) in enumerate(AXES)
    ],
    (
        ("mean_band",),
        [[5.5, 7.5], [100.0, 101.0]],
        # the second is the band's old {m, d} form; the third's d * d overflows
        [[7.5, 5.5], {"m": 6.5, "d": 1.0}, [1.0e300, 1.0e301]],
    ),
    (("failure_tolerance",), [0.0, 0.5], [-0.5]),
    *de_picks("outer"),
    *de_picks("inner"),
    (
        ("outer_termination",),
        [
            {"rule": "change_over_generation", "tolerance": 1e-4, "generations": 2},
            {"rule": "value_below", "tolerance": -1.0},
        ],
        [
            {"rule": "change_over_generation", "tolerance": 0.0},
            {"rule": "change_over_generation", "generations": 0},
            {"rule": "value_below", "tolerance": 0.0},
        ],
    ),
    (("seed",), [0, 7], [-1]),
    (("runs",), [1], [0]),
    (("output_dir",), ["out"], [None, ""]),
]


def small_config(values):
    """The config mapping with values[i] at the path of CONFIG_PICKS[i]."""
    raw = {
        "response": "sphir-perforation",
        "npts_per_dim": [None] * len(AXES),
        "bounds_per_dim": [None] * len(AXES),
        "outer": {},
        "inner": {},
    }
    for ((*parents, key), _, _), value in zip(CONFIG_PICKS, values, strict=True):
        target = raw
        for parent in parents:
            target = target[parent]
        target[key] = value
    return raw


# one case per value that breaks a rule, every other value its first good pick
BAD_PICKS = [
    pytest.param(row, bad, id=f"{'.'.join(map(str, path))}={json.dumps(bad)}")
    for row, (path, _, bads) in enumerate(CONFIG_PICKS)
    for bad in bads
]


class TestRandomConfigs:
    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @given(values=st.tuples(*(st.sampled_from(good) for _, good, _ in CONFIG_PICKS)))
    def test_load_rejects_or_the_solve_ends_cleanly(self, tmp_path_factory, values):
        """A config of good picks loads, and solves or is infeasible before
        generation 1; each bad pick is a case of test_bad_pick_fails_at_load."""
        path = tmp_path_factory.getbasetemp() / "random.config"
        path.write_text(yaml.safe_dump(small_config(values)))
        config = load_config(path)
        generations = []
        try:
            ouq_solve(
                build_problem(config, config.seed),
                trace_hook=lambda generation, *_: generations.append(generation),
            )
        except InfeasibleConstrain:
            assert generations == []

    @pytest.mark.parametrize("row, bad", BAD_PICKS)
    def test_bad_pick_fails_at_load(self, tmp_path, monkeypatch, capsys, row, bad):
        values = [good[0] for _, good, _ in CONFIG_PICKS]
        values[row] = bad
        monkeypatch.chdir(tmp_path)  # where the relative output_dir "out" would go
        path = tmp_path / "bad.config"
        path.write_text(yaml.safe_dump(small_config(values)))
        with pytest.raises(ConfigError):
            load_config(path)
        assert main(["solve", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert [p.name for p in tmp_path.iterdir()] == ["bad.config"]


class TestContract:
    """The names perfbench reads or patches, and the public surface of ouq."""

    PERFBENCH_NAMES = {
        "ouq.solver": [
            "constrain_params", "impose_expectation", "de_solve", "unflatten",
            "expectation", "normalize", "flatten", "event_probability",
        ],
        "ouq.cli": ["ouq_solve", "load_config", "measure_from_dict", "build_problem", "main"],
        "ouq.surrogate": ["SurrogateParams"],
        "ouq.registry": ["get_response", "register_response"],
    }

    PUBLIC_NAMES = {
        "Bounds", "ChangeOverGeneration", "DESettings", "de_solve",
        "DiscreteMeasure", "ParamLayout", "event_probability", "expectation", "flatten",
        "normalize", "pack", "set_mean", "set_range", "unflatten", "unpack",
        "FeasibilityAudit", "MeanConstraint", "OUQProblem", "ouq_solve",
        "ballistic_limit", "perforation_area",
    }

    ERROR_CLASSES = {
        "OUQError", "ConfigError", "ZeroMassMeasure", "InfeasibleConstrain", "DomainError",
    }

    def test_perfbench_hooks_exist(self):
        for module, names in self.PERFBENCH_NAMES.items():
            for name in names:
                assert callable(getattr(importlib.import_module(module), name)), (module, name)
        params = inspect.signature(ouq.cli.ouq_solve).parameters
        assert [(p.name, p.default) for p in params.values()] == [
            ("problem", inspect.Parameter.empty), ("audit", None), ("trace_hook", None),
        ]
        # one constraint protocol, the block form, and no option without a caller
        params = inspect.signature(ouq.de_solve).parameters
        assert [(p.name, p.kind is inspect.Parameter.KEYWORD_ONLY) for p in params.values()] == [
            ("cost", False), ("bounds", False), ("settings", False), ("constrain", False),
            ("termination", False), ("trace_hook", True), ("vectorized", True),
        ]
        params = inspect.signature(de_lockstep).parameters
        assert [(p.name, p.kind is inspect.Parameter.KEYWORD_ONLY) for p in params.values()] == [
            ("cost", False), ("bounds", False), ("settings", False), ("seeds", False),
            ("constrain", False), ("termination", False), ("trace_hook", True),
        ]
        assert "limit_func" in inspect.signature(registry_mod.register_response).parameters

    def test_surrogate_has_one_set_of_constants(self):
        # a surrogate with other constants is another registered response
        for func, names in [
            (perforation_area, ["h", "theta", "v"]), (ouq.ballistic_limit, ["h", "theta"]),
        ]:
            assert list(inspect.signature(func).parameters) == names

    def test_public_names(self):
        public = {
            name for name, value in vars(ouq).items()
            if not name.startswith("__") and not inspect.ismodule(value)
        }
        assert public == self.PUBLIC_NAMES

    def test_de_settings_fields(self):
        # the settable values of each DE loop (seed is set per run); there is
        # one trial strategy, Best1Exp with exponential crossover
        assert [f.name for f in fields(DESettings)] == [
            "npop", "cross_probability", "scaling_factor", "seed", "max_generations"]

    def test_mean_constraint_fields(self):
        # the band's one form is its edges; m and d are derived from them
        assert [f.name for f in fields(MeanConstraint)] == ["lower", "upper"]

    @pytest.mark.parametrize("loop", ["outer", "inner"])
    def test_strategy_key_rejected(self, tmp_path, capsys, loop):
        path, outdir = write_tiny_config(
            tmp_path, **{f"{loop}:\n": f"{loop}:\n  strategy: best1exp_standard\n"})
        assert main(["solve", str(path)]) == 1
        assert f"{loop} has unknown key(s): strategy" in capsys.readouterr().err
        assert not outdir.exists()

    def test_error_classes(self):
        # ouq.errors keeps a class only while a handler or an exit code depends on it
        classes = {
            name for name, value in vars(errors_mod).items()
            if isinstance(value, type) and issubclass(value, Exception)
        }
        assert classes == self.ERROR_CLASSES
