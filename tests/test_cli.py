import json
import os
import subprocess
import sys
import time
from fractions import Fraction as F
from itertools import combinations, combinations_with_replacement
from math import comb

import pytest

from circleinv import cli
from circleinv.cli import main, report_json
from circleinv.exact import Polynomial
from circleinv.gorenstein import analyze
from circleinv.weights import canonical_key, validate


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


def numbered(cases: dict):
    """Each (argv, expected) case as a pytest param named argv<i>, i its
    key: the id a one-argument list gave it, kept when a case before it goes."""
    return [pytest.param(*case, id=f"argv{i}") for i, case in cases.items()]


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
        # one section whose source denominator has degree 10^7 + 2
        proc = run_cli(["hilb", "-1,10000001"])
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
        numerator = Polynomial({int(e): int(c) for e, c in payload["hilbert"]["numerator"]})
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
        assert "expansion" in payload["routes"]
        assert "remainder" in payload["routes"]

    def test_repeated_inputs_skip_determinant(self):
        proc = run_cli(["schur", "--u", "0", "--xs", "-1,-1", "--ys", "1"])
        payload = json.loads(proc.stdout)
        assert "determinant" not in payload["routes"]
        assert payload["routes_agree"] is True

    def test_ten_variables_in_seconds(self, capsys):
        start = time.perf_counter()
        argv = ["schur", "--u", "-3", "--xs", "-1,-2,-3,-4,-5", "--ys", "1,2,3,4,5"]
        assert main(argv) == 0
        assert time.perf_counter() - start < 5.0
        payload = json.loads(capsys.readouterr().out)
        assert payload["routes"] == ["determinant", "expansion", "remainder"]
        assert payload["routes_agree"] is True

    @pytest.mark.parametrize(
        "xs, ys", [("-1/2", "1"), ("-1/2,-3/4", "-2/3"), ("-3/4,-1", "2/3")]
    )
    def test_negative_fractional_lists(self, xs, ys, capsys):
        assert main(["schur", "--u", "0", "--xs", xs, "--ys", ys]) == 0
        spaced = capsys.readouterr().out
        assert main(["schur", "--u", "0", f"--xs={xs}", f"--ys={ys}"]) == 0
        assert capsys.readouterr().out == spaced
        assert json.loads(spaced)["xs"] == [str(F(x)) for x in xs.split(",")]


class TestHironakaCommand:
    def test_example(self):
        proc = run_cli(["hironaka", "--alphas", "2,4", "--betas", "0", "--upto", "4"])
        payload = json.loads(proc.stdout)
        assert payload["gamma"][:3] == ["1/8", "1/4", "9/32"]
        assert payload["hilbert"]["factored_denominator"] == [[2, 1], [4, 1]]


class TestScanCommand:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("max_weight", [1, 2, 3, 4, 5])
    def test_candidates_match_validated_dedup(self, n, max_weight):
        # the primitive combinations give the same classes, in the same
        # order, as validating every stable combination and keeping the
        # first of each canonical key
        def by_validation():
            values = [w for w in range(-max_weight, max_weight + 1) if w]
            seen, out = set(), []
            for combo in combinations_with_replacement(values, n):
                if not any(w < 0 for w in combo) or not any(w > 0 for w in combo):
                    continue
                v = validate(combo)
                key = canonical_key(v)
                if key not in seen:
                    seen.add(key)
                    out.append(cli._scan_representative(v.weights))
            return sorted(out)

        assert cli._scan_candidates(n, max_weight) == by_validation()

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

    def test_every_filter_writes_exactly_its_classes(self, tmp_path, capsys):
        # each filter, alone and with one other, writes the unfiltered rows
        # that a hand-written predicate keeps (for two filters, their AND)
        def degenerate(r):
            negs = [w for w in r["weights"] if w < 0]
            poss = [w for w in r["weights"] if w > 0]
            return len(set(negs)) < len(negs) or len(set(poss)) < len(poss)

        keeps = {
            "OnlyNonGorensteinIntegerRatio": lambda r: (
                r["ratio_is_integer"] and r["classification"] == "NotGorenstein"
            ),
            "OnlyGorenstein": lambda r: r["classification"] == "Gorenstein",
            "OnlyDegenerate": degenerate,
        }
        argv = ["scan", "--n", "4", "--max-weight", "5", "--jobs", "1", "--output"]

        def scan(filters):
            out = tmp_path / f"scan{len(list(tmp_path.iterdir()))}.jsonl"
            assert main(argv + [str(out)] + [f for name in filters for f in ("--filter", name)]) == 0
            counts = json.loads(capsys.readouterr().out)["counts"]
            return counts, out.read_text().splitlines()

        counts, lines = scan([])
        rows = list(map(json.loads, lines))
        assert counts["total"] == len(rows) == 277 and counts["errors"] == 0
        kept = {name: [r for r in rows if keep(r)] for name, keep in keeps.items()}
        assert [len(kept[name]) for name in keeps] == [2, 117, 173]
        assert counts["Gorenstein"] == 117
        assert counts["integer_ratio_not_gorenstein"] == len(kept["OnlyNonGorensteinIntegerRatio"])
        for size in (1, 2):
            for filters in combinations(keeps, size):
                _, written = scan(filters)
                want = [line for line, r in zip(lines, rows) if all(keeps[f](r) for f in filters)]
                assert written == want, filters

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

    @pytest.mark.parametrize(
        "n, max_weight, jobs, cpus, workers",
        [(2, 1, 64, 8, None), (3, 3, 1, 8, None), (3, 3, 64, 1, None), (3, 3, 64, 6, 6), (3, 3, 3, 6, 3)],
    )
    def test_pool_size(self, n, max_weight, jobs, cpus, workers, tmp_path, monkeypatch, capsys):
        # min(--jobs, candidates, CPUs) workers, and no pool when that is 1;
        # a fake pool records its size and maps in process, so no worker starts
        import concurrent.futures

        sizes = []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        serial, out = tmp_path / "serial.jsonl", tmp_path / "scan.jsonl"
        argv = ["scan", "--n", str(n), "--max-weight", str(max_weight), "--output"]
        assert main(argv + [str(serial), "--jobs", "1"]) == 0
        sizes.clear()
        assert main(argv + [str(out), "--jobs", str(jobs)]) == 0
        assert sizes == ([workers] if workers else [])
        assert out.read_bytes() == serial.read_bytes()

    @pytest.mark.parametrize("n, max_weight", [(12, 50), (10**9, 10**9)])
    def test_oversized_family_refused(self, n, max_weight, tmp_path, monkeypatch, capsys):
        # refused before enumerating and before the output file is opened
        def enumerate_family(*args):
            raise AssertionError("the family was enumerated")

        monkeypatch.setattr(cli, "_scan_candidates", enumerate_family)
        out = tmp_path / "scan.jsonl"
        argv = ["scan", "--n", str(n), "--max-weight", str(max_weight), "--output", str(out)]
        assert main(argv) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ValidationError"
        assert not out.exists()

    @pytest.mark.parametrize("n, max_weight", [(2, 3), (3, 2), (4, 1), (5, 2)])
    def test_bound_on_combinations_is_exact(self, n, max_weight, tmp_path, monkeypatch, capsys):
        # C(2W + n - 1, n) combinations pass a bound of exactly that many
        out = str(tmp_path / "scan.jsonl")
        argv = ["scan", "--n", str(n), "--max-weight", str(max_weight), "--output", out]
        size = comb(2 * max_weight + n - 1, n)
        monkeypatch.setattr(cli, "SCAN_MAX_COMBINATIONS", size)
        assert main(argv) == 0
        monkeypatch.setattr(cli, "SCAN_MAX_COMBINATIONS", size - 1)
        assert main(argv) == 2

    def test_process_pool_imported_lazily(self):
        # only a scan with --jobs > 1 needs concurrent.futures
        code = "import sys, circleinv.cli; print('concurrent.futures' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestEnvironment:
    def test_circleinv_variables_ignored(self):
        # every setting is a flag: variables named like the old overrides
        # change nothing
        env = {
            "CIRCLEINV_METHOD": "oracle",
            "CIRCLEINV_VERIFY_DEPTH": "abc",
            "CIRCLEINV_MAX_DENOMINATOR_DEGREE": "1",
            "CIRCLEINV_JOBS": "abc",
        }
        proc = run_cli(["hilb", "-1,2,3"], env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == run_cli(["hilb", "-1,2,3"]).stdout
        assert json.loads(proc.stdout)["method"] == "auto"


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
            ["analyze", "-3,1,3", "--method", "auto"],
        ],
    )
    def test_flag_of_another_subcommand_rejected(self, argv):
        assert run_cli(argv).returncode == 2

    @pytest.mark.parametrize(
        "argv, error",
        numbered(
            {
                0: (["gamma", "-1,2,3", "--upto", "-2"], "ValidationError"),
                1: (["hilb", "-1,2,3", "--verify-depth", "-5"], "ValidationError"),
                2: (
                    ["scan", "--n", "2", "--max-weight", "2", "--jobs", "0", "--output", os.devnull],
                    "ValidationError",
                ),
                5: (["analyze", "-2,1,3", "--verify-depth", "-5"], "ValidationError"),
                6: (["hilb", "-1,2,3", "--method", "oracle", "--verify-depth", "-5"], "ValidationError"),
                7: (["hironaka", "--alphas", "2,4", "--betas", "0", "--upto", "-1"], "OutOfRange"),
            }
        ),
    )
    def test_out_of_range_flag_rejected(self, argv, error, capsys):
        # the library refuses each of these itself, with its own error class
        assert main(argv) == 2
        assert json.loads(capsys.readouterr().err)["error"] == error

    @pytest.mark.parametrize(
        "argv",
        [
            ["hilb", "1,x,-3"],
            ["schur", "--u", "1", "--xs", "1/0", "--ys", "1"],
            ["schur", "--u", "1", "--xs", "-1", "--ys", "a"],
            ["hironaka", "--alphas", "0", "--betas", "1"],
            ["gamma", "-1,2,3", "--upto", "4"],
            ["gamma", "-1,2,3", "--upto", "4", "--method", "all"],
        ],
    )
    def test_bad_input_is_validation_error(self, argv, capsys):
        assert main(argv) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ValidationError"

    @pytest.mark.parametrize(
        "argv",
        [
            ["hilb", "-1000000000,1"],
            ["analyze", "-1000000000,1"],
            ["hironaka", "--alphas", "2", "--betas", "1000000000"],
            ["hironaka", "--alphas", "1000000000", "--betas", "0"],
            ["hironaka", "--alphas", "6000000,5000000", "--betas", "0"],
        ],
    )
    def test_huge_degree_refused_before_allocating(self, argv, capsys):
        # each would need a dense list longer than the 10^7 degree limit
        assert main(argv) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "DegreeOverflow"

    def test_internal_value_error_exits_3(self, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise ValueError("construct via from_factored()")

        monkeypatch.setattr(cli, "hilbert_series", broken)
        assert main(["hilb", "-1,2,3"]) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "ValueError"
