"""Command line interface: output contracts, determinism, error paths.

All invocations go through main(argv) in process, so exit codes and
stdout/stderr are asserted directly.
"""

import csv
import dataclasses
import io
import json
import math
import threading

import pytest

from boxspin import InvalidScale, acceptance, cli, correlators, quadrature
from boxspin.cli import SweepConfig, build_parser, main
from boxspin.quadrature import PoissonSeries


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestSweepConfig:
    def test_dict_roundtrip(self):
        config = SweepConfig(r_list=(0.5, 1.0), l_min=0.1, l_max=4.0, points=7)
        assert SweepConfig.from_dict(config.as_dict()) == config
        assert set(config.as_dict()) == {f.name for f in dataclasses.fields(SweepConfig)}

    def test_sweep_flags_default_to_the_config_fields(self, monkeypatch):
        """The parser takes its sweep defaults from SweepConfig, so a
        changed field default is what the flags give."""
        assert SweepConfig.from_dict(vars(build_parser().parse_args(["fig1"]))) == SweepConfig()
        monkeypatch.setattr(SweepConfig, "r_list", (0.25,))
        monkeypatch.setattr(SweepConfig, "l_max", 5.0)
        monkeypatch.setattr(SweepConfig, "points", 9)
        args = build_parser().parse_args(["fig2"])
        assert (tuple(args.r_list), args.l_min, args.l_max, args.points) == (
            (0.25,), SweepConfig.l_min, 5.0, 9
        )

    def test_l_values_span_the_range_in_log2(self):
        config = SweepConfig(l_min=0.25, l_max=4.0, points=5)
        values = config.l_values()
        assert len(values) == 5
        assert values[0] == pytest.approx(0.25, rel=1e-12)
        assert values[-1] == pytest.approx(4.0, rel=1e-12)
        ratios = [b / a for a, b in zip(values, values[1:])]
        assert all(r == pytest.approx(ratios[0], rel=1e-9) for r in ratios)

    def test_validation(self):
        with pytest.raises(InvalidScale):
            SweepConfig(r_list=())
        with pytest.raises(InvalidScale):
            SweepConfig(l_min=0.0)
        with pytest.raises(InvalidScale):
            SweepConfig(l_min=2.0, l_max=1.0)
        with pytest.raises(InvalidScale, match="got 60.0$"):
            SweepConfig(l_max=60.0)
        with pytest.raises(InvalidScale, match="got 0.001, 7.5$"):
            SweepConfig(l_min=0.001)
        assert SweepConfig(l_min=correlators.MIN_BOX_LENGTH).l_values()[0] == correlators.MIN_BOX_LENGTH
        with pytest.raises(InvalidScale):
            SweepConfig(points=1)
        with pytest.raises(InvalidScale):
            SweepConfig(format="xml")


class TestSweeps:
    ARGS = ["--r-list", "0.5", "--points", "3", "--l-min", "0.5", "--l-max", "2"]

    def test_fig1_csv_shape(self, capsys):
        code, out, err = _run(capsys, ["fig1", *self.ARGS])
        assert code == 0 and err == ""
        header, rows = _parse_csv(out)
        assert header == [
            "r", "l", "log2_l", "czz", "cxx", "cyy",
            "czz_err", "cxx_err", "cyy_err",
        ]
        assert len(rows) == 3
        for row in rows:
            assert float(row[0]) == 0.5
            assert float(row[2]) == pytest.approx(math.log2(float(row[1])), rel=1e-8)
            assert float(row[5]) <= 0.0  # cyy never positive

    def test_fig1_is_deterministic_across_runs_and_jobs(self, capsys, monkeypatch, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        third = tmp_path / "c.csv"
        assert main(["fig1", *self.ARGS, "--out", str(first)]) == 0
        assert main(["fig1", *self.ARGS, "--jobs", "2", "--out", str(second)]) == 0
        monkeypatch.setenv("BOXSPIN_JOBS", "3")
        assert main(["fig1", *self.ARGS, "--out", str(third)]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes() == third.read_bytes()

    @pytest.mark.parametrize("command", ["fig1", "fig2"])
    def test_a_box_length_past_the_limit_names_the_given_value(self, capsys, command):
        """The sweep is refused before any point is evaluated, and the error
        names the --l-max given, not a grid point that rounding moved."""
        code, out, err = _run(capsys, [command, "--l-max", "60"])
        assert (code, out) == (2, "")
        assert err == "error: l_max must be at most 50.0, got 60.0\n"

    def test_fig1_json_payload(self, capsys):
        code, out, _ = _run(capsys, ["fig1", *self.ARGS, "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["columns"][:3] == ["r", "l", "log2_l"]
        assert len(payload["rows"]) == 3
        assert payload["config"]["points"] == 3
        assert "tol" not in payload["config"]

    def test_fig2_product_state_never_violates(self, capsys):
        code, out, _ = _run(
            capsys, ["fig2", "--r-list", "0", "--points", "3",
                     "--l-min", "0.5", "--l-max", "4"]
        )
        assert code == 0
        header, rows = _parse_csv(out)
        assert header == ["r", "l", "chsh_standard", "violated"]
        for row in rows:
            assert float(row[2]) <= 2.0 + 1e-9
            assert row[3] == "false"

    def test_fig2_squeezed_state_violates_at_unit_box(self, capsys):
        code, out, _ = _run(
            capsys, ["fig2", "--r-list", "2", "--points", "2",
                     "--l-min", "1", "--l-max", "2"]
        )
        assert code == 0
        _, rows = _parse_csv(out)
        values = {float(r[1]): float(r[2]) for r in rows}
        assert values[1.0] > 2.0
        assert values[2.0] > 2.0
        for row in rows:
            assert row[3] == "true"


class TestInProcess:
    """Sweeps run in the calling thread; main parses with one parser per process."""

    ARGS = TestSweeps.ARGS

    @pytest.mark.parametrize("command", ["fig1", "fig2"])
    def test_sweeps_start_no_thread(self, capsys, monkeypatch, command):
        def refuse(thread):
            raise AssertionError("a sweep started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        monkeypatch.setenv("BOXSPIN_JOBS", "3")
        code, out, err = _run(capsys, [command, *self.ARGS, "--jobs", "2"])
        assert code == 0 and err == ""
        assert len(_parse_csv(out)[1]) == 3

    def test_parser_is_built_once(self, capsys, monkeypatch):
        builds = []

        def counted():
            builds.append(None)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counted)
        cli._parser.cache_clear()
        for argv in (["lhv"], ["fig1", *self.ARGS], ["fig2", *self.ARGS], ["lhv"]):
            assert main(argv) == 0
        capsys.readouterr()
        assert len(builds) == 1
        assert build_parser() is not build_parser()

    def test_nothing_carries_over_between_calls(self, capsys):
        code, out, _ = _run(capsys, ["fig1", *self.ARGS, "--format", "json", "--r-list", "2"])
        assert code == 0 and json.loads(out)["config"]["r_list"] == [2.0]
        code, out, _ = _run(capsys, ["fig1", "--points", "3"])
        assert code == 0
        header, rows = _parse_csv(out)
        assert header[:3] == ["r", "l", "log2_l"]
        assert [float(row[0]) for row in rows] == [r for r in (0.0, 0.5, 1.0, 2.0) for _ in range(3)]

    def test_a_parse_error_leaves_the_parser_usable(self, capsys):
        code, expected, _ = _run(capsys, ["fig2", *self.ARGS])
        assert code == 0
        with pytest.raises(SystemExit) as exc:
            main(["fig2", "--points", "three"])
        assert exc.value.code == 2
        assert "--points" in capsys.readouterr().err
        assert _run(capsys, ["fig2", *self.ARGS]) == (0, expected, "")


class TestSweepPlans:
    """A sweep plans each theta series once per piece and r, through the
    same piece cache as the single-point calls."""

    ARGS = ["--r-list", "0.5", "1", "2", "--points", "4", "--l-min", "0.25", "--l-max", "7.5"]

    @pytest.fixture
    def plans(self, monkeypatch):
        plans = []

        class Counted(PoissonSeries):
            def __init__(self, l_values, r, su, sv, log_masses, shifts):
                plans.append((su, sv, shifts, r))
                super().__init__(l_values, r, su, sv, log_masses, shifts)

        monkeypatch.setattr(quadrature, "PoissonSeries", Counted)
        yield plans
        correlators.clear_cache()

    @pytest.mark.parametrize("command", ["fig1", "fig2"])
    def test_one_plan_per_piece_and_r(self, capsys, plans, command):
        """Both read the density and step pieces; czx and cxz read none."""
        correlators.clear_cache()
        code, out, _ = _run(capsys, [command, *self.ARGS])
        assert code == 0 and len(_parse_csv(out)[1]) == 12
        assert len(plans) == len(set(plans)) == 3 * 2

    def test_points_read_the_sweep_cache(self, capsys, plans):
        """After fig1 its pairs, and after fig2 whole sets, need no plan."""
        correlators.clear_cache()
        grid = [(r, l) for r in (0.5, 1.0, 2.0) for l in SweepConfig(l_min=0.25, l_max=7.5, points=4).l_values()]
        assert _run(capsys, ["fig1", *self.ARGS])[0] == 0
        plans.clear()
        for r, l in grid:
            for pair in ("zz", "xx", "yy"):
                correlators.correlator(pair, l, r)
        assert plans == []
        assert _run(capsys, ["fig2", *self.ARGS])[0] == 0
        plans.clear()
        for r, l in grid:
            correlators.correlator_set(l, r)
        assert plans == []


class TestSingleShotCommands:
    def test_correlators_json(self, capsys):
        code, out, _ = _run(capsys, ["correlators", "--r", "0.5", "--l", "1"])
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"l", "r", "czz", "cxx", "cyy", "czx", "cxz", "errs"}
        assert payload["czz"] == pytest.approx(0.131935838, abs=1e-6)
        assert set(payload["errs"]) == {"czz", "cxx", "cyy", "czx", "cxz"}

    def test_bell_bits_csv_total_is_weighted_sum(self, capsys):
        code, out, _ = _run(
            capsys, ["bell-bits", "--r", "1", "--k-hi", "0", "--k-lo", "-1",
                     "--format", "csv"]
        )
        assert code == 0
        header, rows = _parse_csv(out)
        assert header == ["k", "l", "bit_bell", "weight", "weighted",
                          "violated_bit", "total", "bound", "violated"]
        assert [row[0] for row in rows] == ["0", "-1"]
        for row in rows:
            assert float(row[1]) == math.ldexp(1.0, int(row[0]))
            assert float(row[4]) == pytest.approx(
                float(row[2]) * float(row[3]), abs=1e-8
            )
        weighted_sum = sum(float(row[4]) for row in rows)
        assert float(rows[0][6]) == pytest.approx(weighted_sum, abs=1e-7)
        assert float(rows[0][7]) == 1.5

    def test_bell_bits_json_window_bound(self, capsys):
        code, out, _ = _run(
            capsys, ["bell-bits", "--r", "1", "--k-hi", "0", "--k-lo", "0"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["bound"] == 1.0
        assert len(payload["per_bit"]) == 1
        entry = payload["per_bit"][0]
        assert entry["k"] == 0 and entry["l"] == 1.0
        assert payload["total"] == pytest.approx(entry["weighted"], abs=1e-12)

    def test_optimize_reports_gain(self, capsys):
        code, out, _ = _run(capsys, ["optimize", "--r", "0.5", "--l", "1"])
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"r", "l", "standard", "best", "gain_over_standard"}
        assert payload["best"]["value"] >= payload["standard"]["value"] - 1e-12
        assert payload["gain_over_standard"] == pytest.approx(
            payload["best"]["value"] - payload["standard"]["value"], abs=1e-12
        )
        assert len(payload["best"]["settings"]) == 4

    def test_optimize_with_y_directions(self, capsys):
        code, out, _ = _run(
            capsys, ["optimize", "--r", "0.5", "--l", "1", "--include-y"]
        )
        assert code == 0
        payload = json.loads(out)
        directions = payload["best"]["directions_theta_phi"]
        assert len(directions) == 4
        assert all(len(d) == 2 for d in directions)
        assert payload["best"]["value"] >= payload["standard"]["value"] - 1e-9

    def test_lhv_payload(self, capsys):
        code, out, _ = _run(capsys, ["lhv", "--k-hi", "1", "--k-lo", "-3"])
        assert code == 0
        payload = json.loads(out)
        assert payload["chsh_bound"] == 2.0
        assert payload["chsh_strategy_values"] == [2.0]
        assert payload["multibit_bound"] == 3.875

    def test_bits_demo_negative_value_wraps(self, capsys):
        code, out, _ = _run(
            capsys, ["bits-demo", "--q", "-0.5", "--trunc-hi", "1",
                     "--trunc-lo", "-2"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["binary"] == "111.1000000"
        assert payload["truncated_value"] == 3.5
        assert payload["bits"]["0"] == 1
        assert payload["spins"]["0"] == -1

    def test_bits_demo_worked_example(self, capsys):
        code, out, _ = _run(capsys, ["bits-demo", "--q", "5.296875"])
        assert code == 0
        payload = json.loads(out)
        assert payload["binary"] == "101.0100110"
        assert payload["truncated_value"] == 1.25

    def test_lhv_window_beyond_the_float_range_is_an_input_error(self, capsys):
        """2**1024 overflows: exit 2 naming the window, not a traceback."""
        code, out, err = _run(capsys, ["lhv", "--k-hi", "1023"])
        assert (code, out) == (2, "")
        assert err.startswith("error: window [1023, -3]")
        code, out, _ = _run(capsys, ["lhv", "--k-hi", "1022"])
        assert code == 0 and json.loads(out)["multibit_bound"] == math.ldexp(1.0, 1023)
        code, out, _ = _run(capsys, ["bits-demo", "--q", "5.296875", "--k-hi", "2000"])
        assert code == 0 and json.loads(out)["binary"].endswith("101.0100110")

    def test_bell_bits_below_the_smallest_box_is_an_input_error(self, capsys):
        """Its window reaches l = 2**-1002: exit 2 naming that box length."""
        code, out, err = _run(capsys, ["bell-bits", "--r", "2", "--k-hi", "-1000", "--k-lo", "-1002"])
        assert (code, out) == (2, "")
        assert err.startswith("error: box length") and repr(math.ldexp(1.0, -1000)) in err

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        assert main(["lhv", "--out", str(target)]) == 0
        capsys.readouterr()
        assert json.loads(target.read_text())["chsh_bound"] == 2.0

    @pytest.mark.parametrize(
        "argv",
        [["lhv"], ["fig1", "--points", "2", "--r-list", "0"]],
        ids=["lhv", "fig1"],
    )
    def test_unwritable_output_is_an_input_error(self, capsys, tmp_path, argv):
        """A path in a missing directory: exit 2 naming the path, not a traceback."""
        target = tmp_path / "missing" / "out.txt"
        code, out, err = _run(capsys, [*argv, "--out", str(target)])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {target}: ")
        assert not target.parent.exists()


class TestSelftestCommand:
    def test_single_cheap_criteria(self, capsys):
        for cid in (10, 12):
            code, out, _ = _run(capsys, ["selftest", "--criterion", str(cid)])
            assert code == 0
            assert out.startswith(f"PASS criterion {cid}")

    def test_unknown_criterion_is_an_error(self, capsys):
        code, _, err = _run(capsys, ["selftest", "--criterion", "99"])
        assert code == 2
        assert err.startswith("error:")

    @staticmethod
    def _fake_battery(monkeypatch, fail: bool):
        def broken():
            raise AssertionError("broken")

        monkeypatch.setattr(acceptance, "CRITERIA", [
            (1, "fake pass", None, lambda: "ok"),
            (2, "fake fail", None, broken if fail else (lambda: "fine")),
        ])

    def test_plain_output_is_unchanged_by_the_json_flag(self, capsys, monkeypatch):
        self._fake_battery(monkeypatch, fail=True)
        code, out, _ = _run(capsys, ["selftest"])
        assert code == 1
        assert out == (
            "PASS criterion  1 [   0.00 s] fake pass: ok\n"
            "FAIL criterion  2 [   0.00 s] fake fail: broken\n"
        )

    @pytest.mark.parametrize("fail", [False, True], ids=["passing", "failing"])
    def test_json_prints_each_criterion_then_the_run(self, capsys, monkeypatch, fail):
        self._fake_battery(monkeypatch, fail=fail)
        code, out, _ = _run(capsys, ["selftest", "--json"])
        assert code == (1 if fail else 0)
        lines = [json.loads(line) for line in out.splitlines()]
        assert len(lines) == 3
        for cid, line in enumerate(lines[:2], start=1):
            assert set(line) == {"cid", "title", "passed", "seconds", "detail"}
            assert line["cid"] == cid
            assert 0.0 <= line["seconds"] < 1.0
        assert [line["passed"] for line in lines[:2]] == [True, not fail]
        assert lines[1]["detail"] == ("broken" if fail else "fine")
        assert lines[2] == {"passed": not fail}

    def test_json_for_one_real_criterion(self, capsys):
        code, out, _ = _run(capsys, ["selftest", "--criterion", "10", "--json"])
        assert code == 0
        first, last = (json.loads(line) for line in out.splitlines())
        assert (first["cid"], first["passed"]) == (10, True)
        assert first["title"] == "local bounds by enumeration"
        assert last == {"passed": True}


class TestErrorPaths:
    @pytest.mark.parametrize(
        "argv",
        [
            ["correlators", "--r", "9", "--l", "1"],
            ["correlators", "--r", "0.5", "--l", "0"],
            ["correlators", "--r", "0.5", "--l", "99"],
            ["fig1", "--l-min", "0", "--points", "3"],
            ["fig1", "--points", "1"],
            ["bell-bits", "--r", "0.5", "--k-hi", "-2", "--k-lo", "0"],
        ],
        ids=["r-too-large", "l-zero", "l-too-large", "bad-l-min", "one-point",
             "inverted-window"],
    )
    def test_invalid_inputs_exit_two(self, capsys, argv):
        code, out, err = _run(capsys, argv)
        assert code == 2
        assert err.startswith("error:")
        assert out == ""


class TestRemovedFlags:
    """Flags that would change nothing are rejected by argparse."""

    COMMANDS = {
        "fig1": ["fig1", "--points", "2"],
        "fig2": ["fig2", "--points", "2"],
        "correlators": ["correlators", "--r", "0.5", "--l", "1"],
        "bell-bits": ["bell-bits", "--r", "0.5"],
        "optimize": ["optimize", "--r", "0.5", "--l", "1"],
        "lhv": ["lhv"],
        "bits-demo": ["bits-demo", "--q", "1.5"],
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_tol_is_rejected(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([*self.COMMANDS[command], "--tol", "1e-7"])
        assert exc.value.code == 2
        assert "--tol" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["correlators", "optimize", "lhv", "bits-demo"])
    def test_format_is_rejected_on_json_only_commands(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([*self.COMMANDS[command], "--format", "json"])
        assert exc.value.code == 2
        assert "--format" in capsys.readouterr().err
