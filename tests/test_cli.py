import json
import os
import subprocess
import sys
from fractions import Fraction as F

import pytest

from circleinv import cli
from circleinv.cli import main, report_json
from circleinv.exact import Polynomial
from circleinv.gorenstein import analyze
from circleinv.weights import validate


def run_cli(args, env=None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    proc = subprocess.run(
        [sys.executable, "-m", "circleinv.cli", *args],
        capture_output=True,
        text=True,
        env=full_env,
    )
    return proc


class TestHilbCommand:
    def test_gorenstein_example(self):
        proc = run_cli(["hilb", "-3,1,3"])
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["hilbert"]["factored_denominator"] == [[2, 1], [4, 1]]
        assert payload["hilbert"]["numerator"] == [[0, "1"]]
        assert payload["degree"] == -6

    def test_unstable_exit_code(self):
        proc = run_cli(["hilb", "1,2,3"])
        assert proc.returncode == 2
        err = json.loads(proc.stderr)
        assert err["error"] == "Unstable"

    def test_oracle_method(self):
        proc = run_cli(["hilb", "-1,2,3", "--method", "oracle", "--verify-depth", "8"])
        payload = json.loads(proc.stdout)
        assert payload["coefficients"] == [1, 0, 0, 1, 1, 0, 1, 1, 1]

    def test_oracle_cell_budget(self):
        proc = run_cli(
            ["hilb", "-501,500,503", "--method", "oracle", "--verify-depth", "2005"]
        )
        assert proc.returncode == 2
        assert json.loads(proc.stderr)["error"] == "DegreeOverflow"

    def test_verify_depth_flag(self):
        proc = run_cli(["hilb", "-1,-2,1,14", "--verify-depth", "30"])
        assert proc.returncode == 0

    def test_degree_ceiling(self):
        proc = run_cli(["hilb", "-501,500,503", "--max-denominator-degree", "100"])
        assert proc.returncode == 2
        assert json.loads(proc.stderr)["error"] == "DegreeOverflow"

    def test_space_separated_weights(self):
        proc = run_cli(["hilb", "-2", "3"])
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["hilbert"]["factored_denominator"] == [[5, 1]]


class TestGammaCommand:
    def test_example(self):
        proc = run_cli(["gamma", "-1,-2,1,14", "--upto", "1"])
        payload = json.loads(proc.stdout)
        assert payload["gamma"] == ["1/20", "3/40"]

    def test_method_all_agrees(self):
        proc = run_cli(["gamma", "-2,3", "--method", "all"])
        payload = json.loads(proc.stdout)
        assert payload["methods_agree"] is True
        assert payload["gamma"] == ["1/5", "2/5", "2/5", "1/5"]

    def test_series_method_deeper(self):
        proc = run_cli(["gamma", "-1,1", "--method", "series", "--upto", "5"])
        payload = json.loads(proc.stdout)
        assert payload["gamma"] == ["1/2", "1/4", "1/8", "1/16", "1/32", "1/64"]


class TestAnalyzeCommand:
    def test_gorenstein_example(self):
        proc = run_cli(["analyze", "-3,1,3"])
        payload = json.loads(proc.stdout)
        assert payload["classification"] == "Gorenstein"
        assert payload["a_invariant"] == "-6"

    def test_counterexample(self):
        proc = run_cli(["analyze", "-1,-2,4,8", "--full"])
        payload = json.loads(proc.stdout)
        assert payload["ratio_is_integer"] is True
        assert payload["stanley_holds"] is False

    def test_report_round_trip(self):
        report = analyze(validate((-1, -2, 1, 14)), full=True)
        payload = json.loads(json.dumps(report_json(report)))
        assert tuple(payload["weights"]) == report.weights
        assert F(payload["gamma0"]) == report.gamma0
        assert F(payload["gamma1"]) == report.gamma1
        assert F(payload["ratio_2g1_g0"]) == report.ratio_2g1_g0
        assert payload["stanley_holds"] == report.stanley_holds
        assert int(payload["a_invariant"]) == report.degree
        numerator = Polynomial({int(e): F(c) for e, c in payload["hilbert"]["numerator"]})
        assert numerator == report.hilbert.view_numerator()
        assert [tuple(p) for p in payload["hilbert"]["factored_denominator"]] == list(
            report.hilbert.factored_denominator
        )


class TestSchurCommand:
    def test_route_agreement(self):
        proc = run_cli(["schur", "--u", "2", "--xs", "-1,-2", "--ys", "1,14"])
        payload = json.loads(proc.stdout)
        assert payload["value"] == "-72"
        assert payload["routes_agree"] is True
        assert "determinant" in payload["routes"]

    def test_repeated_inputs_skip_determinant(self):
        proc = run_cli(["schur", "--u", "0", "--xs", "-1,-1", "--ys", "1"])
        payload = json.loads(proc.stdout)
        assert "determinant" not in payload["routes"]
        assert payload["routes_agree"] is True


class TestHironakaCommand:
    def test_example(self):
        proc = run_cli(["hironaka", "--alphas", "2,4", "--betas", "0", "--upto", "4"])
        payload = json.loads(proc.stdout)
        assert payload["gamma"][:3] == ["1/8", "1/4", "9/32"]
        assert payload["hilbert"]["factored_denominator"] == [[2, 1], [4, 1]]


class TestScanCommand:
    def test_small_scan_counts(self, tmp_path):
        out = tmp_path / "scan.jsonl"
        proc = run_cli(["scan", "--n", "2", "--max-weight", "5", "--output", str(out)])
        summary = json.loads(proc.stdout)
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert summary["counts"]["total"] == len(rows)
        assert all(r["classification"] == "Gorenstein" for r in rows)

    def test_gorenstein_filter_contains_example(self, tmp_path):
        out = tmp_path / "scan.jsonl"
        run_cli(
            ["scan", "--n", "3", "--max-weight", "3", "--filter", "OnlyGorenstein",
             "--output", str(out)]
        )
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert any(r["weights"] == [-3, 1, 3] for r in rows)

    def test_degenerate_filter(self, tmp_path):
        out = tmp_path / "scan.jsonl"
        run_cli(
            ["scan", "--n", "3", "--max-weight", "2", "--filter", "OnlyDegenerate",
             "--output", str(out)]
        )
        rows = [json.loads(line) for line in out.read_text().splitlines()]

        def class_degenerate(ws):
            negs = [w for w in ws if w < 0]
            poss = [w for w in ws if w > 0]
            return len(set(negs)) < len(negs) or len(set(poss)) < len(poss)

        assert rows and all(class_degenerate(r["weights"]) for r in rows)

    def test_raising_vector_recorded(self, tmp_path, monkeypatch, capsys):
        clean = tmp_path / "clean.jsonl"
        out = tmp_path / "scan.jsonl"
        argv = ["scan", "--n", "3", "--max-weight", "3", "--jobs", "1", "--output"]
        assert main(argv + [str(clean)]) == 0
        capsys.readouterr()
        real = cli.gorenstein.analyze

        def analyze(v, *args, **kwargs):
            if v.weights == (-3, 1, 3):
                raise RuntimeError("boom")
            return real(v, *args, **kwargs)

        monkeypatch.setattr(cli.gorenstein, "analyze", analyze)
        assert main(argv + [str(out)]) == 0
        counts = json.loads(capsys.readouterr().out)["counts"]
        assert counts["errors"] == 1
        want = clean.read_text().splitlines()
        got = out.read_text().splitlines()
        assert counts["written"] == len(got) == len(want)
        changed = [json.loads(b) for a, b in zip(want, got) if a != b]
        assert changed == [{"weights": [-3, 1, 3], "error": "boom"}]

    def test_parallel_runs_byte_identical(self, tmp_path):
        serial = tmp_path / "serial.jsonl"
        parallel = tmp_path / "parallel.jsonl"
        run_cli(["scan", "--n", "3", "--max-weight", "4", "--output", str(serial)])
        run_cli(
            ["scan", "--n", "3", "--max-weight", "4", "--jobs", "4", "--output", str(parallel)]
        )
        assert serial.read_bytes() == parallel.read_bytes()


class TestEnvironmentOverrides:
    def test_env_verify_depth(self):
        # an impossible verification depth fails fast when set via env
        proc = run_cli(
            ["hilb", "-1,2,3"], env={"CIRCLEINV_VERIFY_DEPTH": "10"}
        )
        assert proc.returncode == 0

    def test_env_method(self):
        proc = run_cli(["hilb", "-1,2,3"], env={"CIRCLEINV_METHOD": "oracle"})
        payload = json.loads(proc.stdout)
        assert payload["method"] == "oracle"

    def test_env_degree_limit(self):
        proc = run_cli(
            ["hilb", "-501,500,503"],
            env={"CIRCLEINV_MAX_DENOMINATOR_DEGREE": "100"},
        )
        assert proc.returncode == 2

    def test_malformed_env_fails_only_its_subcommand(self, tmp_path):
        env = {"CIRCLEINV_JOBS": "abc"}
        out = tmp_path / "scan.jsonl"
        proc = run_cli(["scan", "--n", "2", "--max-weight", "2", "--output", str(out)], env=env)
        assert proc.returncode == 2
        assert "--jobs" in proc.stderr
        proc = run_cli(["hilb", "-1,2,3"], env=env)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["hilbert"]["factored_denominator"] is not None


class TestMainEntry:
    def test_main_returns_exit_code(self, capsys):
        code = main(["gamma", "-1,1", "--upto", "0"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["gamma"] == ["1/2"]

    def test_main_validation_error(self, capsys):
        code = main(["hilb", "7"])
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["schur", "--u", "2", "--xs", "-1,-2", "--ys", "1,14", "--jobs", "2"],
            ["analyze", "-3,1,3", "--max-denominator-degree", "5"],
        ],
    )
    def test_flag_of_another_subcommand_rejected(self, argv):
        assert run_cli(argv).returncode == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["gamma", "-1,2,3", "--upto", "-2"],
            ["hilb", "-1,2,3", "--verify-depth", "-5"],
            ["scan", "--n", "2", "--max-weight", "2", "--jobs", "0", "--output", os.devnull],
        ],
    )
    def test_out_of_range_flag_rejected(self, argv, capsys):
        assert main(argv) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ValidationError"

    @pytest.mark.parametrize(
        "argv",
        [
            ["hilb", "1,x,-3"],
            ["schur", "--u", "1", "--xs", "1/0", "--ys", "1"],
            ["schur", "--u", "1", "--xs", "-1", "--ys", "a"],
            ["hironaka", "--alphas", "0", "--betas", "1"],
            ["gamma", "-1,2,3", "--upto", "4"],
        ],
    )
    def test_bad_input_is_validation_error(self, argv, capsys):
        assert main(argv) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ValidationError"

    def test_internal_value_error_exits_3(self, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise ValueError("construct via reduce()/from_factored()")

        monkeypatch.setattr(cli, "hilbert_series", broken)
        assert main(["hilb", "-1,2,3"]) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "ValueError"
