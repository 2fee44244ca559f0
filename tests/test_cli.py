"""Command line behavior: formats, exit codes, determinism, config."""

from __future__ import annotations

import contextlib
import io
import json
import math
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from renyibounds import cli
from renyibounds.applications.queueing import scaled_event_sandwich
from renyibounds.cli import build_parser, main
from renyibounds.divergences import renyi_discrete
from renyibounds.measures import FiniteMeasure


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _parse_json_without_nan(text):
    """The parsed JSON, after checking that no value in it is nan or a bare constant."""
    def values(x):
        if isinstance(x, dict):
            for v in x.values():
                yield from values(v)
        elif isinstance(x, list):
            for v in x:
                yield from values(v)
        else:
            yield x

    def no_constant(name):
        raise AssertionError(f"bare {name} in the JSON")

    data = json.loads(text, parse_constant=no_constant)
    for v in values(data):
        assert v != "nan" and not (isinstance(v, float) and math.isnan(v)), text
    return data


class TestRenyiCommand:
    def test_gaussian_mean_shift(self, capsys):
        code, out, _ = run_cli(capsys, [
            "renyi", "--gaussian", "1,1", "--gaussian", "0,1", "--alpha", "2"])
        assert code == 0
        assert out == "0.5\n"

    def test_discrete_example(self, capsys):
        code, out, _ = run_cli(capsys, [
            "renyi", "--discrete", "[0.5,0.5]", "--discrete", "[0.25,0.75]",
            "--alpha", "2"])
        assert code == 0
        nu = FiniteMeasure.from_probs(["0", "1"], [0.5, 0.5])
        theta = FiniteMeasure.from_probs(["0", "1"], [0.25, 0.75])
        assert out == repr(renyi_discrete(nu, theta, 2.0)) + "\n"

    def test_infinite_value_prints_literally(self, capsys):
        code, out, _ = run_cli(capsys, [
            "renyi", "--gaussian", "0,4", "--gaussian", "0,1", "--alpha", "2"])
        assert code == 0
        assert out == "inf\n"

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, [
            "renyi", "--gaussian", "0,4", "--gaussian", "0,1", "--alpha", "2",
            "--format", "csv"])
        assert code == 0
        assert out == "alpha,value\n2.0,inf\n"

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, [
            "renyi", "--gaussian", "1,1", "--gaussian", "0,1", "--alpha", "2",
            "--format", "json"])
        assert code == 0
        data = json.loads(out)
        assert data == {"alpha": 2.0, "value": 0.5}

    def test_labelled_discrete_spec(self, capsys):
        spec = json.dumps({"labels": ["a", "b"], "probs": [0.5, 0.5]})
        code, out, _ = run_cli(capsys, [
            "renyi", "--discrete", spec, "--discrete", spec, "--alpha", "3"])
        assert code == 0
        assert abs(float(out)) < 1e-12

    def test_bare_array_is_normalized(self, capsys):
        # bare arrays are weights, so scaling both by 3 changes nothing
        # beyond last-ulp noise in the stored log weights
        code, out, _ = run_cli(capsys, [
            "renyi", "--discrete", "[1.5,1.5]", "--discrete", "[0.75,2.25]",
            "--alpha", "2"])
        assert code == 0
        nu = FiniteMeasure.from_probs(["0", "1"], [0.5, 0.5])
        theta = FiniteMeasure.from_probs(["0", "1"], [0.25, 0.75])
        expected = renyi_discrete(nu, theta, 2.0)
        assert float(out) == pytest.approx(expected, rel=1e-12)

    def test_validation_exit_codes(self, capsys):
        bad = [
            ["renyi", "--alpha", "2"],
            ["renyi", "--gaussian", "1,1", "--alpha", "2"],
            ["renyi", "--gaussian", "1,1", "--gaussian", "0,1",
             "--discrete", "[1.0]", "--discrete", "[1.0]", "--alpha", "2"],
            ["renyi", "--gaussian", "1,1", "--gaussian", "0,1", "--alpha", "1"],
            ["renyi", "--discrete",
             '{"labels": ["a", "b"], "probs": [0.5, 0.6]}',
             "--discrete", "[0.5,0.5]", "--alpha", "2"],
            ["renyi", "--discrete", "[0.5,-0.5]", "--discrete", "[0.5,0.5]",
             "--alpha", "2"],
            ["renyi", "--discrete", "not json", "--discrete", "[1.0]",
             "--alpha", "2"],
        ]
        for argv in bad:
            code, _, err = run_cli(capsys, argv)
            assert code == 2, argv


class TestParserEdges:
    def test_unknown_subcommand(self, capsys):
        code, _, _ = run_cli(capsys, ["bogus"])
        assert code == 2

    def test_unknown_flag(self, capsys):
        code, _, _ = run_cli(capsys, ["renyi", "--nope", "1"])
        assert code == 2

    def test_no_arguments(self, capsys):
        code, _, _ = run_cli(capsys, [])
        assert code == 2

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, ["--help"])
        assert code == 0
        assert "renyi" in out


class TestIdentityCommand:
    argv = ["identity", "--measure", "[0.5,0.5]", "--g", "[0,1]",
            "--beta", "1", "--gamma", "2"]

    def test_both_directions_pass(self, capsys):
        code, out, _ = run_cli(capsys, self.argv + ["--format", "json"])
        assert code == 0
        data = json.loads(out)
        assert set(data) == {"inf", "sup"}
        assert data["inf"]["passes"] is True
        assert data["sup"]["passes"] is True
        assert data["inf"]["equality_gap"] <= 1e-9

    def test_single_direction_unwrapped(self, capsys):
        code, out, _ = run_cli(capsys, self.argv + ["--direction", "inf",
                                                    "--format", "json"])
        assert code == 0
        data = json.loads(out)
        assert data["direction"] == "infimum"

    def test_corrupt_optimizer_fails_loudly(self, capsys):
        code, out, err = run_cli(capsys, self.argv + ["--corrupt-optimizer",
                                                      "--format", "json"])
        assert code == 1
        assert "identity certificate failed" in err
        data = json.loads(out)
        assert data["inf"]["passes"] is False
        # the supremum runs through the mirrored infimum and must fail as well
        assert data["sup"]["passes"] is False

    @pytest.mark.parametrize("spec,flag,value", [
        *(pytest.param(["[0.5,0.5]", "[0,1]"], "--grid-step", v, id=f"grid-step={v}")
          for v in ("0", "-0.1", "nan", "inf", "2")),
        *(pytest.param(["[0.1,0.2,0.3,0.4]", "[0,1,2,3]"], "--oracle-samples", v,
                       id=f"oracle-samples={v}") for v in ("0", "-3")),
    ])
    def test_bad_oracle_arguments_exit_2(self, capsys, spec, flag, value):
        # checked before any work, whatever the dimension: no traceback, no
        # warning, no output, and the message names the argument
        code, out, err = run_cli(capsys, [
            "identity", "--measure", spec[0], "--g", spec[1], "--beta", "1", "--gamma", "2",
            f"{flag}={value}"])
        assert code == 2
        assert out == ""
        assert flag[2:].replace("-", "_") in err
        assert "Traceback" not in err and "Warning" not in err

    def test_file_specs(self, capsys, tmp_path):
        mfile = tmp_path / "measure.json"
        mfile.write_text('{"labels": ["a", "b"], "probs": [0.5, 0.5]}')
        gfile = tmp_path / "g.json"
        gfile.write_text('{"labels": ["a", "b"], "values": [0, 1]}')
        code, out, _ = run_cli(capsys, [
            "identity", "--measure", f"@{mfile}", "--g", str(gfile),
            "--beta", "1", "--gamma", "2", "--format", "json"])
        assert code == 0
        assert json.loads(out)["inf"]["passes"] is True

    def test_mismatched_value_labels(self, capsys, tmp_path):
        gfile = tmp_path / "g.json"
        gfile.write_text('{"labels": ["x", "y"], "values": [0, 1]}')
        code, _, _ = run_cli(capsys, [
            "identity", "--measure", "[0.5,0.5]", "--g", f"@{gfile}",
            "--beta", "1", "--gamma", "2"])
        assert code == 2

    def test_degenerate_orders(self, capsys):
        code, _, _ = run_cli(capsys, [
            "identity", "--measure", "[0.5,0.5]", "--g", "[0,1]",
            "--beta", "2", "--gamma", "1"])
        assert code == 2

    def test_csv_not_available(self, capsys):
        code, _, _ = run_cli(capsys, self.argv + ["--format", "csv"])
        assert code == 2


class TestBrownianFigures:
    def test_csv_shape(self, capsys):
        code, out, _ = run_cli(capsys, [
            "brownian-figures", "--points", "5", "--alpha-min", "3",
            "--alpha-max", "50"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "alpha,lower,upper,exact,scale"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert first[0] == "3.0"
        assert first[4] == "probability"
        assert float(first[1]) <= float(first[3]) <= float(first[2])

    def test_log_scale_emits_inf_literals(self, capsys):
        code, out, _ = run_cli(capsys, [
            "brownian-figures", "--points", "3", "--alpha-min", "1.5",
            "--alpha-max", "2.0", "--scale", "log"])
        assert code == 0
        body = out.strip().split("\n")[1:]
        assert any(row.split(",")[1] == "-inf" for row in body)

    def test_json_rows(self, capsys):
        code, out, _ = run_cli(capsys, [
            "brownian-figures", "--points", "2", "--format", "json"])
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 2
        assert set(rows[0]) == {"alpha", "lower", "upper", "exact", "scale"}

    def test_bad_points(self, capsys):
        code, _, _ = run_cli(capsys, ["brownian-figures", "--points", "0"])
        assert code == 2

    @pytest.mark.filterwarnings("error")
    def test_drift_past_the_double_range(self, capsys):
        # the exact column's second term met inf - inf here and read nan
        code, out, err = run_cli(capsys, [
            "brownian-figures", "--K", "4", "--mu", "1.7976931348623157e308",
            "--points", "5", "--format", "json"])
        assert (code, err) == (0, "")
        rows = _parse_json_without_nan(out)
        assert [r["exact"] for r in rows] == [1.0] * 5


class TestQueueCommand:
    def test_rate_only(self, capsys):
        code, out, _ = run_cli(capsys, [
            "queue", "--C", "2", "--b", "1", "--format", "json"])
        assert code == 0
        data = json.loads(out)
        assert data["rate"]["branch"] == "interior"
        assert data["rate"]["c"] == pytest.approx(1.25643120862, rel=1e-9)
        assert "bounds" not in data

    def test_service_rate_near_one(self, capsys):
        # C just above 1 puts the root of C log x = x - 1 just above C;
        # the rate is still finite and positive
        code, out, _ = run_cli(capsys, [
            "queue", "--C", "1.000000001", "--b", "1e-12", "--format", "json"])
        assert code == 0
        c = json.loads(out)["rate"]["c"]
        assert isinstance(c, float) and 0.0 < c < math.inf

    def test_rate_past_float_range_is_silent_inf(self, console_script):
        # ell(C + b) = x log x - x + 1 overflows on the edge branch; the
        # rate reads inf without numpy's overflow warning
        command, env = console_script
        proc = subprocess.run(command + ["queue", "--C", "2", "--b", "1e308", "--format", "json"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert "Warning" not in proc.stderr
        rate = json.loads(proc.stdout)["rate"]
        assert (rate["branch"], rate["c"]) == ("edge", "inf")

    def test_budget_past_exp_range_clamps(self, console_script):
        # R_2(Poisson(30) || Poisson(1)) = 420.5 per step, so n d1 = 2102:
        # the upper bound clamps to 1 before any exp can overflow
        command, env = console_script
        proc = subprocess.run(
            command + ["queue", "--C", "2", "--b", "0.1", "--n", "5", "--alpha", "2",
                       "--theta-rate", "30", "--reps", "100"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert "Traceback" not in proc.stderr
        data = json.loads(proc.stdout)
        assert data["bounds"]["upper"] == 1.0
        assert data["inside_sandwich"] is True

    def test_simulation_sandwich(self, capsys):
        code, out, _ = run_cli(capsys, [
            "queue", "--C", "2", "--b", "0.1", "--n", "50", "--alpha", "3",
            "--theta-rate", "1.1", "--reps", "50000", "--format", "json"])
        assert code == 0
        data = json.loads(out)
        assert data["inside_sandwich"] is True
        assert data["bounds"]["lower"] <= data["theta_estimate"]["mean"]
        assert data["theta_estimate"]["mean"] <= data["bounds"]["upper"]
        assert data["per_step_budget"]["d1"] > 0.0

    @pytest.mark.parametrize("argv, reps, side", [
        # the nominal probability is 7.41e-28 at b = 1, so no replication
        # overflows; at C = 1.01 and b = 1e-9 every one does
        (["--C", "2", "--b", "1"], 20_000, "upper"),
        (["--C", "1.01", "--b", "1e-9"], 200, "lower"),
    ], ids=["zero-hits", "all-hits"])
    def test_exact_limit_without_a_miss_or_a_hit(self, capsys, argv, reps, side):
        # the Wald interval of zero (all) hits is [0, 0] ([1, 1]), and a
        # bound on it is false; the sandwich takes the exact Clopper-Pearson
        # limit 1 - 0.025^(1/reps) (0.025^(1/reps)) on that side instead
        code, out, _ = run_cli(capsys, ["queue", *argv, "--n", "50", "--alpha", "3",
                                        "--theta-rate", "1.1", "--reps", str(reps),
                                        "--format", "json"])
        assert code == 0
        data = json.loads(out)
        mean = 0.0 if side == "upper" else 1.0
        assert data["nominal_estimate"]["mean"] == mean
        assert data["nominal_estimate"]["ci95"] == [mean, mean]
        d1, d2 = data["per_step_budget"]["d1"], data["per_step_budget"]["d2"]
        limit = 1.0 - 0.025 ** (1.0 / reps) if side == "upper" else 0.025 ** (1.0 / reps)
        want = getattr(scaled_event_sandwich(limit, 50, 3.0, d1, d2), side)
        assert data["bounds"][side] == pytest.approx(want, rel=1e-12)
        if side == "upper":
            assert limit == pytest.approx(1.844e-4, rel=1e-3)
            assert data["bounds"]["upper"] == pytest.approx(5.43e-3, rel=1e-3)
        else:
            wald = scaled_event_sandwich(1.0, 50, 3.0, d1, d2).lower
            assert 0.0 < data["bounds"]["lower"] < wald

    def test_explicit_budgets(self, capsys):
        code, out, _ = run_cli(capsys, [
            "queue", "--C", "2", "--b", "0.1", "--n", "50", "--alpha", "3",
            "--d1", "0.005", "--d2", "0.005", "--reps", "10000",
            "--format", "json"])
        assert code == 0
        data = json.loads(out)
        assert data["per_step_budget"] == {"d1": 0.005, "d2": 0.005}

    @pytest.mark.parametrize("flags, error", [
        (["--alpha", "0.5", "--d1", "0.005", "--d2", "0.005"], "alpha > 1"),
        (["--alpha", "1", "--d1", "0.005", "--d2", "0.005"], "alpha > 1"),
        (["--alpha", "nan", "--d1", "0.005", "--d2", "0.005"], "alpha > 1"),
        (["--alpha", "0.5", "--theta-rate", "1.1"], "alpha > 1"),
        (["--d1", "nan", "--d2", "0.005"], "budget d1 must be nonnegative"),
        (["--d1", "0.005", "--d2", "-1"], "budget d2 must be nonnegative"),
    ], ids=["alpha-0.5", "alpha-1", "alpha-nan", "alpha-0.5-theta-rate", "d1-nan", "d2-negative"])
    def test_bad_order_or_budget_fails_before_simulating(self, capsys, monkeypatch,
                                                         flags, error):
        def simulate(*args, **kwargs):
            raise AssertionError("simulated before checking its inputs")

        monkeypatch.setattr(cli, "simulate_queue_overflow_prob", simulate)
        code, out, err = run_cli(capsys, ["queue", "--C", "2", "--b", "0.1", "--n", "50",
                                          "--reps", "200000", *flags])
        assert (code, out) == (2, "")
        assert error in err

    def test_missing_budgets(self, capsys):
        code, _, _ = run_cli(capsys, [
            "queue", "--C", "2", "--b", "0.1", "--reps", "1000"])
        assert code == 2

    def test_order_past_the_double_range(self, capsys):
        # alpha / (alpha - 1) rounds to 1 here; the budget is inf, not an error
        code, out, err = run_cli(capsys, [
            "queue", "--C", "2", "--b", "0.1", "--n", "5", "--alpha", "1e300",
            "--theta-rate", "1.1", "--reps", "100", "--format", "json"])
        assert (code, err) == (0, "")
        budget = json.loads(out)["per_step_budget"]
        assert budget["d1"] == "inf"
        assert 0.0 < budget["d2"] < 1e-300

    @given(
        alpha=st.floats(1.0, 1e300, exclude_min=True),
        C=st.floats(1.0 + 2.0**-52, 1e300),
        b=st.floats(1e-300, 1e300),
        n=st.integers(1, 60),
        theta=st.floats(5e-324, 30.0),
        reps=st.integers(2, 50),
    )
    @example(alpha=1e300, C=2.0, b=0.1, n=5, theta=1.1, reps=100)
    def test_is_total(self, alpha, C, b, n, theta, reps):
        # any such flags give exit 0, 1 or 2, with no warning, and JSON with no nan
        argv = ["queue", "--C", repr(C), "--b", repr(b), "--n", str(n), "--alpha", repr(alpha),
                "--theta-rate", repr(theta), "--reps", str(reps), "--format", "json"]
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = main(argv)
        assert code in (0, 1, 2)
        assert "Warning" not in err.getvalue()
        if (alpha, C, b, n, theta, reps) == (1e300, 2.0, 0.1, 5, 1.1, 100):
            assert code == 0
        if code == 2:
            return
        _parse_json_without_nan(out.getvalue())


class TestLaplaceCommand:
    def test_plain_value(self, capsys):
        code, out, _ = run_cli(capsys, ["laplace", "--gamma", "2"])
        assert code == 0
        assert out == "0.4657596075936404\n"

    def test_bounds_inside(self, capsys):
        code, out, _ = run_cli(capsys, [
            "laplace", "--gamma", "1", "--alpha", "3", "--mu", "0.1",
            "--format", "json"])
        assert code == 0
        data = json.loads(out)
        assert data["inside"] is True
        assert data["lower"] <= data["middle"] <= data["upper"]
        assert data["middle"] == pytest.approx(-0.40624131443330678159, rel=1e-14, abs=0.0)

    def test_low_order_lower_literal(self, capsys):
        code, out, _ = run_cli(capsys, [
            "laplace", "--gamma", "1", "--alpha", "1.5", "--mu", "0.1",
            "--format", "json"])
        assert code == 0
        assert json.loads(out)["lower"] == "-inf"

    def test_bad_horizon(self, capsys):
        code, _, _ = run_cli(capsys, ["laplace", "--gamma", "1", "--t", "0"])
        assert code == 2

    @pytest.mark.parametrize("mu", ["0", "0.1"])
    def test_value_past_float_range_prints_inf(self, capsys, mu):
        code, out, err = run_cli(capsys, ["laplace", "--gamma", "-800", "--mu", mu])
        assert (code, out) == (0, "inf\n")
        assert "Traceback" not in err

    def test_sandwich_past_float_range_is_an_input_error(self, capsys):
        # log(inf) as the middle would report a false violation with exit 1
        code, out, err = run_cli(capsys, [
            "laplace", "--gamma", "-800", "--alpha", "3", "--mu", "0.1"])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "Traceback" not in err


class TestInfiniteOrder:
    """One rule for --alpha inf: exit 2 before any simulation or quadrature."""

    @pytest.fixture(autouse=True)
    def _no_work(self, monkeypatch):
        def work(*args, **kwargs):
            raise AssertionError("worked before checking the order")

        monkeypatch.setattr(cli, "simulate_queue_overflow_prob", work)
        monkeypatch.setattr(cli, "_laplace_exact", work)

    @pytest.mark.parametrize("argv", [
        ["queue", "--d1", "1", "--d2", "1", "--reps", "100", "--alpha", "inf"],
        ["queue", "--theta-rate", "1.1", "--alpha", "inf"],
        ["laplace", "--gamma", "1", "--alpha", "inf", "--mu", "0.1"],
    ], ids=["queue-budgets", "queue-theta-rate", "laplace"])
    def test_is_an_input_error(self, capsys, argv):
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        assert "alpha must be finite" in err


class TestMcCommands:
    def test_bm_max(self, capsys):
        code, out, _ = run_cli(capsys, [
            "mc", "bm-max", "--paths", "2000", "--format", "json"])
        assert code == 0
        data = json.loads(out)
        assert 0.0 <= data["estimate"]["mean"] <= 1.0
        assert data["exact"] == pytest.approx(0.31731050786291415, rel=1e-10)

    @pytest.mark.parametrize("flags, error", [
        (["--K", "inf"], "error: level must be positive and finite"),
        (["--no-bridge"], "error: unrecognized arguments: --no-bridge"),
        (["--n-steps", "8"], "error: unrecognized arguments: --n-steps 8"),
    ], ids=["level-at-infinity", "no-bridge", "n-steps"])
    def test_bm_max_input_errors(self, capsys, flags, error):
        code, out, err = run_cli(capsys, ["mc", "bm-max", "--paths", "10", *flags])
        assert (code, out) == (2, "")
        assert error in err

    def test_girsanov_const(self, capsys):
        code, out, _ = run_cli(capsys, [
            "mc", "girsanov", "--drift", "const", "--mu", "0.3",
            "--paths", "4000", "--n-steps", "16", "--format", "json"])
        assert code == 0
        data = json.loads(out)
        assert data["exact"] == pytest.approx(0.045, rel=1e-12)

    def test_girsanov_tanh(self, capsys):
        code, out, _ = run_cli(capsys, [
            "mc", "girsanov", "--drift", "tanh", "--mu", "0.1",
            "--paths", "4000", "--n-steps", "16", "--format", "json"])
        assert code == 0
        data = json.loads(out)
        assert "budget_upper" in data
        assert data["estimate"]["mean"] <= data["budget_upper"] + 3.0 * (
            data["estimate"]["se"] or 1.0)

    def test_argmax(self, capsys):
        code, out, _ = run_cli(capsys, [
            "mc", "argmax", "--gamma", "2", "--paths", "1000", "--format", "json"])
        assert code == 0
        data = json.loads(out)
        assert data["exact"] == pytest.approx(0.4657596075936404, rel=1e-12)

    def test_argmax_exact_past_float_range_is_inf(self, capsys):
        code, out, err = run_cli(capsys, [
            "mc", "argmax", "--gamma", "-800", "--paths", "10", "--format", "json"])
        assert code == 0
        assert json.loads(out)["exact"] == "inf"
        assert "Traceback" not in err

    @pytest.mark.filterwarnings("error")
    def test_argmax_estimate_past_float_range_is_inf(self, capsys):
        # exp(800 H) overflows on every sample with H > 0.9: the mean reads
        # inf as exact does, and nothing reads nan
        code, out, _ = run_cli(capsys, [
            "mc", "argmax", "--gamma", "-800", "--paths", "10", "--format", "json"])
        assert code == 0
        est = json.loads(out)["estimate"]
        assert (est["mean"], est["se"], est["ci95"]) == ("inf", "inf", ["-inf", "inf"])

    @pytest.mark.filterwarnings("error")
    def test_argmax_overflowing_terms_warn_nothing(self, capsys):
        # gamma H and mu^2 t / 2 both overflow at t = 1e308: the sampler
        # stays silent, and the quadrature's failure is the one error
        code, out, err = run_cli(capsys, [
            "mc", "argmax", "--t", "1e308", "--mu", "10", "--gamma", "-10", "--paths", "10"])
        assert (code, out) == (1, "")
        assert err == "error: argmax transform quadrature did not reach its tolerance\n"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mu", ["inf", "1.7976931348623157e308"])
    def test_bm_max_exact_at_infinite_drift(self, capsys, mu):
        code, out, err = run_cli(capsys, [
            "mc", "bm-max", "--K", "1", "--mu", mu, "--paths", "100", "--format", "json"])
        assert (code, err) == (0, "")
        assert _parse_json_without_nan(out)["exact"] == 1.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("drift", ["const", "tanh"])
    def test_girsanov_at_the_top_of_the_double_range(self, capsys, drift):
        # the LLR was sum m dB - (dt/2) sum m^2 = inf - inf; each step's
        # term m (dB - m dt / 2) now reads -inf, and so does the LLR
        code, out, err = run_cli(capsys, [
            "mc", "girsanov", "--drift", drift, "--mu", "1.7976931348623157e308",
            "--n-steps", "4", "--paths", "100", "--format", "json"])
        assert (code, err) == (0, "")
        est = _parse_json_without_nan(out)["estimate"]
        assert (est["mean"], est["se"], est["ci95"]) == ("-inf", "inf", ["-inf", "inf"])

    @pytest.mark.parametrize("alpha", ["2", "-1"])
    def test_girsanov_past_float_range_has_infinite_se(self, console_script, alpha):
        # every squared drift overflows, so every LLR is -inf and both
        # moments are infinite: se reads inf, never inf - inf = nan
        command, env = console_script
        proc = subprocess.run(
            command + ["mc", "girsanov", "--drift", "const", "--mu", "1e200",
                       "--paths", "100", "--n-steps", "4", "--alpha", alpha],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        assert "nan" not in proc.stdout
        assert "Warning" not in proc.stderr
        est = json.loads(proc.stdout)["estimate"]
        assert (est["se"], est["ci95"]) == ("inf", ["-inf", "inf"])


class TestDeterminismAndSeeds:
    def test_byte_identical_reruns(self, capsys):
        cases = [
            ["renyi", "--gaussian", "1,1", "--gaussian", "0,1", "--alpha", "2"],
            ["identity", "--measure", "[0.5,0.5]", "--g", "[0,1]",
             "--beta", "1", "--gamma", "2", "--format", "json"],
            ["brownian-figures", "--points", "4", "--format", "csv"],
            ["queue", "--C", "2", "--b", "0.1", "--n", "20", "--alpha", "3",
             "--d1", "0.005", "--d2", "0.005", "--reps", "5000",
             "--format", "json"],
            ["laplace", "--gamma", "2", "--alpha", "3", "--format", "json"],
            ["mc", "bm-max", "--paths", "1000", "--format", "json"],
            ["mc", "girsanov", "--paths", "1000", "--n-steps", "8",
             "--format", "json"],
            ["mc", "argmax", "--paths", "500", "--format", "json"],
        ]
        for argv in cases:
            _, out1, _ = run_cli(capsys, argv)
            _, out2, _ = run_cli(capsys, argv)
            assert out1 == out2, argv

    def test_seed_changes_estimates(self, capsys):
        base = ["mc", "bm-max", "--paths", "2000", "--format", "json"]
        _, out0, _ = run_cli(capsys, base + ["--seed", "0"])
        _, out1, _ = run_cli(capsys, base + ["--seed", "1"])
        assert out0 != out1

    def test_env_seed_sets_default(self, capsys, monkeypatch):
        base = ["mc", "bm-max", "--paths", "2000", "--format", "json"]
        monkeypatch.setenv("RENYI_SEED", "7")
        _, out_env, _ = run_cli(capsys, base)
        monkeypatch.delenv("RENYI_SEED")
        _, out_seven, _ = run_cli(capsys, base + ["--seed", "7"])
        assert out_env == out_seven
        assert json.loads(out_env)["estimate"]["seed"] == 7

    def test_explicit_seed_beats_env(self, capsys, monkeypatch):
        base = ["mc", "bm-max", "--paths", "2000", "--format", "json"]
        monkeypatch.setenv("RENYI_SEED", "7")
        _, out, _ = run_cli(capsys, base + ["--seed", "3"])
        assert json.loads(out)["estimate"]["seed"] == 3


class TestOutputAndConfig:
    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "rows.csv"
        code, out, _ = run_cli(capsys, [
            "brownian-figures", "--points", "3", "--output", str(target)])
        assert code == 0
        assert out == ""
        _, direct, _ = run_cli(capsys, ["brownian-figures", "--points", "3"])
        assert target.read_text(encoding="utf-8") == direct

    def test_config_supplies_flags(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"gaussian": ["1,1", "0,1"], "alpha": 2, "format": "json"}))
        code, out, _ = run_cli(capsys, ["renyi", "--config", str(cfg)])
        assert code == 0
        assert json.loads(out)["value"] == 0.5

    def test_explicit_flag_wins_over_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gaussian": ["1,1", "0,1"], "alpha": 2}))
        code, out, _ = run_cli(capsys, [
            "renyi", "--config", str(cfg), "--alpha", "3"])
        assert code == 0
        data = json.loads(run_cli(capsys, [
            "renyi", "--config", str(cfg), "--alpha", "3",
            "--format", "json"])[1])
        assert data["alpha"] == 3.0

    def test_config_boolean_flag(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"measure": "[0.5,0.5]", "g": "[0,1]", "beta": 1, "gamma": 2,
             "corrupt_optimizer": True, "format": "json"}))
        code, _, err = run_cli(capsys, ["identity", "--config", str(cfg)])
        assert code == 1
        assert "identity certificate failed" in err

    def test_config_must_be_object(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        code, _, _ = run_cli(capsys, ["renyi", "--config", str(cfg)])
        assert code == 2

    def test_missing_config_file(self, capsys):
        code, _, _ = run_cli(capsys, ["renyi", "--config", "/nonexistent.json"])
        assert code == 2

    def test_abbreviated_config_flag_is_read(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"format": "json"}))
        code, out, _ = run_cli(capsys, [
            "renyi", "--conf", str(cfg), "--gaussian", "1,1", "--gaussian", "0,1",
            "--alpha", "2"])
        assert code == 0
        assert json.loads(out) == {"alpha": 2.0, "value": 0.5}

    GAUSS = ["--gaussian", "1,1", "--gaussian", "0,1"]

    @pytest.mark.parametrize("config, argv, written_out", [
        # --config=FILE, and --config ahead of the subcommand
        ({"alpha": 2}, ["renyi", *GAUSS, "--config=CFG"], ["renyi", *GAUSS, "--alpha", "2"]),
        ({"alpha": 2}, ["--config", "CFG", "renyi", *GAUSS], ["renyi", *GAUSS, "--alpha", "2"]),
        # all four required identity flags come from the file
        ({"measure": "[0.5,0.5]", "g": "[0,1]", "beta": 1, "gamma": 2, "oracle_samples": 500},
         ["identity", "--config", "CFG"],
         ["identity", "--measure", "[0.5,0.5]", "--g", "[0,1]", "--beta", "1", "--gamma", "2",
          "--oracle-samples", "500"]),
        # false adds nothing, so the certificate is not corrupted
        ({"measure": "[0.5,0.5]", "g": "[0,1]", "beta": 1, "gamma": 2,
          "corrupt_optimizer": False, "format": "json"},
         ["identity", "--config", "CFG"],
         ["identity", "--measure", "[0.5,0.5]", "--g", "[0,1]", "--beta", "1", "--gamma", "2",
          "--format", "json"]),
        ({"C": 2.0, "b": 1.0}, ["queue", "--config", "CFG"], ["queue", "--C", "2.0", "--b", "1.0"]),
        # the real parse checks what the file gives: each of these exits 2
        ({"alpha": 2, "nope": 1}, ["renyi", *GAUSS, "--config", "CFG"], None),
        ({"alpha": 2, "format": "xml"}, ["renyi", *GAUSS, "--config", "CFG"], None),
        ({"alpha": "abc"}, ["renyi", *GAUSS, "--config", "CFG"], None),
        ({"alpha": 2}, ["renyi", *GAUSS, "--config"], None),
    ])
    def test_config_matches_written_out_flags(self, capsys, tmp_path, config, argv,
                                              written_out):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = [a.replace("CFG", str(cfg)) for a in argv]
        code, out, _ = run_cli(capsys, argv)
        if written_out is None:
            assert code == 2
        else:
            assert (code, out) == (0, run_cli(capsys, written_out)[1])


def test_readme_commands_parse():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    blocks = readme.read_text(encoding="utf-8").split("```")[1::2]
    commands = [shlex.split(line)[1:] for block in blocks for line in block.splitlines()
                if line.startswith("renyibounds ")]
    assert len(commands) == 13
    for argv in commands:
        build_parser().parse_args(argv)


def test_console_script_end_to_end(console_script):
    command, env = console_script
    env["RENYI_SEED"] = "5"
    proc = subprocess.run(
        command + ["mc", "bm-max", "--paths", "1000", "--format", "json"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["estimate"]["seed"] == 5
