import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sectorcalc import cli


def run_cli(args):
    return cli.main(args)


FILE_SCENARIO = {
    "kind": "calculus",
    "name": "file-calculus",
    "tuple": {"k": 1, "dim": 1, "A": [[[[-2.0, 0.0]]]],
              "sectors": [[-np.pi / 2 + 0.05, np.pi / 2 - 0.05]]},
    "lambda": [[1.0, 0.0]],
    "region": {"alpha": [-np.pi / 4], "beta": [np.pi / 4],
               "vertex": [[0.0, 0.0]], "excision": {"kind": "cone"}},
    "function": {"type": "inverse_square", "shifts": [[1.0, 0.0]]},
    "eps": [[0.25, 0.0]],
    "oracle": [[[1.0 / 9.0, 0.0]]],
    "tol": 1e-6,
}


class TestRun:
    def test_builtin_scenario_exits_zero(self, tmp_path):
        out = tmp_path / "r.csv"
        assert run_cli(["run", "--scenario", "calculus-k1", "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert rows and all(r["passed"] == "True" for r in rows)
        assert set(cli.CSV_COLUMNS) <= set(rows[0].keys())

    def test_json_format(self, tmp_path):
        out = tmp_path / "r.json"
        assert run_cli(["run", "--scenario", "gaps", "--out", str(out),
                        "--format", "json"]) == 0
        payload = json.loads(out.read_text())
        assert all(isinstance(r["computed"], list) for r in payload)
        assert all(r["passed"] for r in payload)

    def test_reports_are_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(["run", "--scenario", "fb-cauchy", "--out", str(out1)])
        run_cli(["run", "--scenario", "fb-cauchy", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    # rows whose last digits follow the BLAS thread count: two error figures
    # (maxima of defects near 1e-12) and the shift gap's 512x512 eigvalsh
    THREAD_DEPENDENT_ROWS = ("convolution,pairing-multiplicativity max over 100 pairs,",
                             "spectral-mapping,random tuple 0,",
                             'gaps,"shift gap min over t in [0.01, 0.2] at n=512",')

    def test_report_does_not_depend_on_the_blas_thread_count(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        # both thread counts run side by side; the report holds no timings
        procs = [subprocess.Popen(
            [sys.executable, "-m", "sectorcalc.cli", "run", "--scenario", "all", "--seed", "0"],
            env=dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src),
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL) for threads in ("1", "2")]
        try:
            outs = [proc.communicate(timeout=300)[0] for proc in procs]
        finally:
            for proc in procs:
                proc.kill()
        reports = []
        for proc, out in zip(procs, outs):
            assert proc.returncode == 0
            lines = out.decode().splitlines()
            kept = [line for line in lines if not line.startswith(self.THREAD_DEPENDENT_ROWS)]
            assert len(kept) == len(lines) - len(self.THREAD_DEPENDENT_ROWS)
            reports.append(kept)
        assert len(reports[0]) > 100 and reports[0] == reports[1]

    def test_timings_flag_breaks_byte_identity_but_adds_column(self, tmp_path):
        out = tmp_path / "t.csv"
        run_cli(["run", "--scenario", "gaps", "--out", str(out), "--timings"])
        header = out.read_text().splitlines()[0]
        assert "wall_time" in header

    def test_every_row_carries_its_time(self, tmp_path):
        for name in ("convolution", "spectral-mapping", "outer", "determinism"):
            out = tmp_path / f"{name}.json"
            assert run_cli(["run", "--scenario", name, "--out", str(out),
                            "--format", "json", "--timings"]) == 0
            assert all(r["wall_time"] > 0.0 for r in json.loads(out.read_text())), name

    def test_k3_scenario_exits_zero(self, tmp_path):
        out = tmp_path / "k3.csv"
        assert run_cli(["run", "--scenario", "calculus-k3", "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6 and all(r["passed"] == "True" for r in rows)

    def test_unknown_scenario_exits_two(self, tmp_path, capsys):
        assert run_cli(["run", "--scenario", "no-such-thing",
                        "--out", str(tmp_path / "x.csv")]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_malformed_json_exits_two_with_position(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "calculus", "oops\n')
        assert run_cli(["run", "--scenario", str(bad),
                        "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_file_scenario(self, tmp_path):
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(FILE_SCENARIO))
        out = tmp_path / "r.csv"
        assert run_cli(["run", "--scenario", str(path), "--out", str(out)]) == 0

    # one field replaced in FILE_SCENARIO, and a word of the refusal
    MALFORMED = {
        "alpha longer than beta": (
            "region", {"alpha": [-0.7, -0.7], "beta": [0.7], "vertex": [[0, 0]]},
            "beta has 1 entries for 2 axes"),
        "beta and vertex longer than alpha": (
            "region", {"alpha": [-0.7], "beta": [0.7, 0.7], "vertex": [[0, 0], [0, 0]]},
            "beta has 2 entries for 1 axes"),
        "nan vertex": (
            "region", {"alpha": [-0.7], "beta": [0.7], "vertex": [[float("nan"), 0]]},
            "must be finite"),
        "infinite vertex": (
            "region", {"alpha": [-0.7], "beta": [0.7], "vertex": [[float("inf"), 0]]},
            "must be finite"),
        "bare vertex entry": (
            "region", {"alpha": [-0.7], "beta": [0.7], "vertex": [0.0]},
            "'vertex' must be a list of [re, im] pairs"),
        "bare shifts": (
            "function", {"type": "inverse_square", "shifts": 1.0}, "'shifts' must be a list"),
        "short shift pair": (
            "function", {"type": "inverse_square", "shifts": [[1.0]]},
            "'shifts' must be a [re, im] pair"),
        "more shifts than axes": (
            "function", {"type": "inverse_square", "shifts": [1.0, 2.0]}, "one entry per axis"),
        "no shifts": (
            "function", {"type": "inverse_square", "shifts": []}, "one entry per axis"),
        "bare lambda": ("lambda", [1.0], "'lambda' must be a list of [re, im] pairs"),
        "bare eps": ("eps", 0.25, "'eps' must be a list of [re, im] pairs"),
        "bare oracle entry": ("oracle", [[1.0]], "'oracle' must be a matrix of [re, im] pairs"),
        "bare matrix entry": (
            "tuple", dict(FILE_SCENARIO["tuple"], A=[[[-2.0]]]),
            "'A' must be a list of matrices of [re, im] pairs"),
        "short sector": (
            "tuple", dict(FILE_SCENARIO["tuple"], sectors=[[-1.5]]),
            "'sectors' must be a list of [alpha, beta] pairs"),
        "more eps than axes": (
            "eps", [[0.25, 0.0], [0.25, 0.0]], "'eps' has 2 entries for 1 axes"),
        "oracle larger than the tuple": (
            "oracle", [[[1.0 / 9.0, 0.0]] * 2] * 2,  # broadcast, it would pass
            "'oracle' has shape (2, 2) for a 1x1 tuple"),
    }

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_field_exits_two_with_a_message(self, case, tmp_path, capsys):
        field, value, message = self.MALFORMED[case]
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(dict(FILE_SCENARIO, **{field: value})))
        assert run_cli(["run", "--scenario", str(path),
                        "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    def test_computation_failure_exits_three(self, tmp_path, capsys):
        spec = {
            "kind": "calculus",
            "tuple": {"k": 1, "dim": 1, "A": [[[[-2.0, 0.0]]]],
                      "sectors": [[-np.pi / 2 + 0.05, np.pi / 2 - 0.05]]},
            "lambda": [[1.0, 0.0]],
            "region": {"alpha": [-np.pi / 4], "beta": [np.pi / 4],
                       "vertex": [[0.0, 0.0]], "excision": {"kind": "cone"}},
            "function": {"type": "inverse_square", "shifts": [[1.0, 0.0]]},
            "eps": [[0.25, 0.0]],
            "quad_tol": 1e-30,  # unreachable: the refinement cannot converge
        }
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(spec))
        assert run_cli(["run", "--scenario", str(path),
                        "--out", str(tmp_path / "x.csv")]) == 3
        assert "did not converge" in capsys.readouterr().err

    def test_failed_scenario_becomes_a_row(self, tmp_path, capsys, monkeypatch):
        def broken(seed, tol=1e-6):
            raise cli.QuadratureError("ray integral did not converge to 1e-30")

        monkeypatch.setattr(cli, "SCENARIOS", {"broken": broken, "gaps": cli.scenario_gaps})
        out = tmp_path / "r.csv"
        assert run_cli(["run", "--scenario", "all", "--out", str(out)]) == 3
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        failed, rest = rows[0], rows[1:]
        assert failed["scenario"] == "broken" and failed["passed"] == "False"
        assert "did not converge to 1e-30" in failed["case"]
        # the scenario after the failure still ran
        assert rest and all(r["scenario"] == "gaps" and r["passed"] == "True" for r in rest)
        assert "error: broken: computation failed" in capsys.readouterr().err

    def test_failing_tolerance_exits_one(self, tmp_path, capsys):
        assert run_cli(["run", "--scenario", "calculus-k1",
                        "--tol-override", "1e-18",
                        "--out", str(tmp_path / "x.csv")]) == 1
        assert "failed" in capsys.readouterr().err


class TestStudy:
    def test_node_sweep_is_monotone(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run_cli(["study", "--sweep", "nodes", "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert rows[-1]["case"].startswith("errors decrease")
        assert rows[-1]["passed"] == "True"

    def test_eps_sweep_extrapolates(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run_cli(["study", "--sweep", "eps", "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        final = rows[-1]
        assert final["passed"] == "True"
        assert float(final["abs_err"]) <= 1e-6

    @pytest.mark.parametrize("option", [["--seed", "3"], ["--scenario", "gaps"],
                                        ["--tol-override", "1e-3"]])
    def test_run_options_are_refused(self, option, capsys):
        # a study reads none of them, so none is accepted
        with pytest.raises(SystemExit) as exc:
            run_cli(["study", "--sweep", "eps", *option])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestFormatting:
    def test_complex_formatting_round_trips(self):
        for c in (1.5 + 2.25j, -0.5 - 3.0j, 0.0 + 0.0j, 1e-300 + 1e300j):
            s = cli._fmt_complex(c)
            assert complex(s) == c


class TestOneSidedRows:
    # (check, computed, bound, tol, passed, excess over the bound)
    CASES = [("le", [0.25, 0.75], 1.0, 1e-3, True, 0.0),
             ("le", [0.25, 1.0005], 1.0, 1e-3, True, 1.0005 - 1.0),  # within tol
             ("le", [0.25, 1.5], 1.0, 1e-3, False, 0.5),
             ("gt", [0.5, 0.375], 0.25, 0.0, True, 0.0),
             ("gt", [0.5, 0.125], 0.25, 0.0, False, 0.125)]

    @pytest.mark.parametrize("check, computed, bound, tol, passed, excess", CASES)
    def test_error_columns_hold_the_excess_over_the_bound(self, check, computed, bound, tol,
                                                         passed, excess, tmp_path):
        row = cli.ReportRow("s", "c", np.array(computed), bound, tol, check)
        assert row.passed is passed
        assert row.abs_err == excess and row.rel_err == excess / bound
        cli.write_report([row], str(tmp_path / "r.csv"))
        with open(tmp_path / "r.csv") as fh:
            (written,) = csv.DictReader(fh)
        assert float(written["abs_err"]) == excess and written["passed"] == str(passed)

    def test_passing_bound_rows_report_no_error(self, tmp_path, capsys):
        out = tmp_path / "h.csv"
        assert run_cli(["run", "--scenario", "hardy", "--out", str(out)]) == 0
        with open(out) as fh:
            rows = [r for r in csv.DictReader(fh) if r["check"] == "le"]
        assert len(rows) == 3 and all(float(r["abs_err"]) == 0.0 for r in rows)
        assert capsys.readouterr().err.count("(le_err=0.000e+00,") == 3
