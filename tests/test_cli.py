import importlib
import errno
import inspect
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import ouq.registry as registry_mod
import ouq.cli
from ouq import ChangeOverGeneration, event_probability, flatten, ouq_solve, perforation_area
from ouq.de import Strategy
from ouq.errors import ConfigError, DomainError, InfeasibleConstrain, InnerLoopFailed
from ouq.solver import impose_expectation
from ouq.cli import build_problem, main, measure_from_dict, measure_to_dict
from ouq.config import load_config
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
        assert cfg.outer.strategy is Strategy.BEST1EXP_STANDARD
        assert cfg.outer_termination == ChangeOverGeneration(1e-4, 10)
        assert cfg.runs == 10

    def test_unit_conversion(self, tmp_path):
        path, _ = write_tiny_config(tmp_path)
        cfg = load_config(path)
        assert cfg.bounds_per_dim[0] == pytest.approx((1.524, 2.667), abs=1e-12)
        assert cfg.bounds_per_dim[1][1] == pytest.approx(math.pi / 6, abs=1e-12)

    def test_center_deviation_band(self, tmp_path):
        path, _ = write_tiny_config(tmp_path, **{"mean_band: [5.5, 7.5]": "mean_band: {m: 6.5, d: 1.0}"})
        cfg = load_config(path)
        assert cfg.mean_band == pytest.approx((5.5, 7.5))

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

        params = np.array(
            [0.5, 0.5, 1.524, 2.667, 0.5, 0.5, 0.0, 0.1, 0.5, 0.5, 2.2885, 2.8]
        )
        out, failures = impose_expectation(params[None, :], problem, [1])
        assert list(failures) == [0]
        assert isinstance(failures[0], InnerLoopFailed)
        assert "exhausted 3 generations" in str(failures[0])
        assert np.array_equal(out[0], params)
        assert [r.generations_run for r in de_reports] == [3]

    def test_parse_error(self, tmp_path):
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
            ("mean_band: [5.5, 7.5]", "mean_band: {m: 6.5, d: 0.0}", "mean_band"),
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
        [["nan", "0", "2.8"], ["2.667", "0", "nan"], ["inf", "0", "2.8"], ["-1", "0", "2.8"]],
        ids=["nan_thickness", "nan_speed", "inf_thickness", "negative_thickness"],
    )
    def test_bad_point_rejected(self, capsys, coords):
        assert main(["eval", "sphir-perforation", *coords]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

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

    @pytest.mark.parametrize(
        "band, generations, evaluations, bound",
        [
            ("[5.5, 7.5]", 72, 2919, 0.3787993042859375),
            ("[6.4, 6.6]", 30, 1239, 0.2646433756770121),
        ],
        ids=["reference", "narrow_band"],
    )
    def test_seed_0_result_pinned(self, tmp_path, capsys, band, generations, evaluations, bound):
        config = tmp_path / "paper.config"
        config.write_text(
            PAPER_CONFIG.read_text().replace("mean_band: [5.5, 7.5]", f"mean_band: {band}")
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

    @pytest.mark.parametrize(
        "band, counts",
        [
            ("[5.5, 7.5]", (72, 2919, 900, 0, 18000)),
            ("[6.4, 6.6]", (30, 1239, 1118, 865, 39649)),
        ],
        ids=["reference", "narrow_band"],
    )
    def test_seed_0_inner_counts_pinned(self, tmp_path, capsys, band, counts):
        # the nested runs of seed 0, counted one de_solve per row before they ran in lockstep
        config = tmp_path / "paper.config"
        config.write_text(
            PAPER_CONFIG.read_text().replace("mean_band: [5.5, 7.5]", f"mean_band: {band}")
        )
        args = ["solve", str(config), "--seed", "0", "--runs", "1", "--output-dir", str(tmp_path)]
        assert main(args) == 0
        result = json.loads((tmp_path / "result_0.json").read_text())
        keys = ("generations", "evaluations", "inner_runs", "inner_generations", "inner_evaluations")
        assert tuple(result[k] for k in keys) == counts
        assert list(result)[-3:] == list(keys[2:])  # the earlier keys keep their bytes

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
        ],
        ids=["nan_corner", "scalar_only", "branching"],
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


@st.composite
def small_configs(draw):
    """A small config with at most one of its 18 values drawn from the
    invalid side of its rule, and whether none is."""
    broken = draw(st.sampled_from(range(-6, 18)))  # a negative index breaks none
    valid = []

    def pick(good, bad):
        valid.append(len(valid) != broken)
        return draw(st.sampled_from(good if valid[-1] else bad))

    def de_settings():
        return {
            "npop": pick([4, 6], [3, 0]),
            "max_generations": pick([1, 3], [0]),
            "scaling_factor": pick([0.9], [0.0, -0.5]),
        }

    axes = [(1.524, 2.667), (0.0, 0.5), (2.1, 2.8)]
    raw = {
        "response": "sphir-perforation",
        "npts_per_dim": [pick([1, 2], [0]) for _ in axes],
        "bounds_per_dim": [pick([[lo, hi]], [[hi, lo], [lo, lo]]) for lo, hi in axes],
        "mean_band": pick(
            [[5.5, 7.5], [100.0, 101.0], {"m": 6.5, "d": 1.0}],
            [[7.5, 5.5], {"m": 6.5, "d": 0.0}],
        ),
        "failure_tolerance": pick([0.0, 0.5], [-0.5]),
        "outer": de_settings(),
        "inner": de_settings(),
        "outer_termination": pick(
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
        "seed": pick([0, 7], [-1]),
        "runs": pick([1], [0]),
        "output_dir": pick(["out"], [None, ""]),
    }
    return raw, all(valid)


class TestRandomConfigs:
    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @given(case=small_configs())
    def test_load_rejects_or_the_solve_ends_cleanly(self, tmp_path_factory, case):
        """A config fails to load exactly when a value breaks a rule; a loaded
        one solves or is infeasible before generation 1."""
        raw, valid = case
        path = tmp_path_factory.getbasetemp() / "random.config"
        path.write_text(yaml.safe_dump(raw))
        try:
            config = load_config(path)
        except ConfigError:
            assert not valid
            return
        assert valid
        generations = []
        try:
            ouq_solve(
                build_problem(config, config.seed),
                trace_hook=lambda generation, *_: generations.append(generation),
            )
        except InfeasibleConstrain:
            assert generations == []


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

    def test_perfbench_hooks_exist(self):
        for module, names in self.PERFBENCH_NAMES.items():
            for name in names:
                assert callable(getattr(importlib.import_module(module), name)), (module, name)
        params = inspect.signature(ouq.cli.ouq_solve).parameters
        assert [(p.name, p.default) for p in params.values()] == [
            ("problem", inspect.Parameter.empty), ("audit", None), ("trace_hook", None),
        ]
        assert "limit_func" in inspect.signature(registry_mod.register_response).parameters

    def test_public_names(self):
        public = {
            name for name, value in vars(ouq).items()
            if not name.startswith("__") and not inspect.ismodule(value)
        }
        assert public == self.PUBLIC_NAMES
