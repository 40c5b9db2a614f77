import csv
import json

import numpy as np

from sectorcalc import cli


def run_cli(args):
    return cli.main(args)


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

    def test_timings_flag_breaks_byte_identity_but_adds_column(self, tmp_path):
        out = tmp_path / "t.csv"
        run_cli(["run", "--scenario", "gaps", "--out", str(out), "--timings"])
        header = out.read_text().splitlines()[0]
        assert "wall_time" in header

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
        spec = {
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
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "r.csv"
        assert run_cli(["run", "--scenario", str(path), "--out", str(out)]) == 0

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


class TestFormatting:
    def test_complex_formatting_round_trips(self):
        for c in (1.5 + 2.25j, -0.5 - 3.0j, 0.0 + 0.0j, 1e-300 + 1e300j):
            s = cli._fmt_complex(c)
            assert complex(s) == c
