"""Smoke tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

Each workload runs at its smoke size; every metric named in BENCHMARK.json
must come out with its unit, and nothing may fail at the recorded outputs.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(BENCH_DIR))

import compare  # noqa: E402
import onepass  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def scratch_dir():
    """A fresh directory inside the checkout's ignored output directory."""
    path = ROOT / ".perfbench-out" / "test-scratch"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _run(cwd: Path, *extra, timeout=180):
    cmd = list(SPEC["command"]) + list(extra)
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=timeout)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def _assert_metrics(result: dict, declared: list):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    got = result["metrics"]
    assert set(got) == {m["name"] for m in declared}
    for m in declared:
        assert got[m["name"]]["unit"] == m["unit"], m["name"]
        assert isinstance(got[m["name"]]["value"], (int, float))


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_end_to_end(workload):
    result, lines = _result(_run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                                 "--trace", "0", "--smoke"))
    _assert_metrics(result, SPEC["end_to_end"])
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["value"] > 0, m["name"]
    assert any(line.startswith("metric failed_frac 0 ") for line in lines)
    assert not any(line.startswith(("failed ", "guard-trip ")) for line in lines)
    if workload != "scan":
        assert "check golden_mismatches 0 count" in lines


def test_smoke_traced_scan():
    result, lines = _result(_run(ROOT, "--workload", "scan", "--seed", "3", "--seconds", "1",
                                 "--trace", "1", "--smoke"))
    _assert_metrics(result, SPEC["per_layer"])
    metrics = result["metrics"]
    assert metrics["gorenstein.analyze.calls"]["value"] > 0
    assert metrics["laurent.gamma2.calls"]["value"] == 0
    assert metrics["laurent.gamma3.calls"]["value"] == 0
    assert any(line.startswith("trace overhead ") for line in lines)
    records = (ROOT / ".perfbench-out" / "spans-scan-3.jsonl").read_text().splitlines()
    assert len(records) == sum(metrics[f"{n}.calls"]["value"] for n in spans.SPAN_NAMES)


def test_engine_inputs_follow_the_seed():
    assert workloads.engine_vectors(5) == workloads.engine_vectors(5)
    assert workloads.engine_vectors(5) != workloads.engine_vectors(6)
    assert workloads.README_VECTOR in workloads.engine_vectors(5)
    assert set(workloads.engine_vectors(5)) <= set(workloads.engine_pool())


def test_refuses_without_the_package(scratch_dir):
    shutil.copy(ROOT / "BENCHMARK.json", scratch_dir / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, scratch_dir / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(scratch_dir, "--workload", "scan", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _slow(seconds):
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        pass
    return "late"


def test_wall_guard_records_a_failed_vector():
    seconds, result, error = onepass.guarded(_slow, 5.0, guard_s=0.05)
    assert result is None and error.startswith("guard")
    assert seconds < 1.0

    class Slow:
        def items(self):
            return [(-1, 1), (-60, -60, 7, 7), (-2, 3)]

        def work(self, weights):
            return _slow(5.0 if len(weights) == 4 else 0.0)

        def check(self, index, weights, out):
            return []

        def finish(self):
            return []

    one = onepass.Pass("engine", time.monotonic() + 60, guard_s=0.05)
    one.run(Slow())
    assert (one.size, one.failed, len(one.latencies)) == (3, 1, 3)
    assert one.notes == ["guard-trip workload=engine vector=(-60,-60,7,7) guard: over 0.05 s"]


class ShortScan(onepass.Scan):
    """The scan path over the first few classes only."""

    def items(self):
        return super().items()[:3]


def _scan_pass(scan) -> onepass.Pass:
    one = onepass.Pass("scan", time.monotonic() + 60)
    one.run(scan)
    return one


def test_scan_output_cut_short_fails():
    sys.path.insert(0, str(ROOT / "src"))
    one = _scan_pass(ShortScan(seed=0, smoke=False))
    assert (one.size, one.failed) == (3, 1)
    assert one.notes == ["failed workload=scan output=pass scan wrote 3 lines, 1475 recorded"]


def test_scan_output_past_the_recording_fails():
    sys.path.insert(0, str(ROOT / "src"))
    scan = ShortScan(seed=0, smoke=False)
    scan.golden = {"lines": scan.golden["lines"][:2], "sha256": scan.golden["sha256"]}
    one = _scan_pass(scan)
    assert (one.size, one.failed) == (3, 2)
    assert one.notes[0].endswith("class beyond the 2 recorded")
    assert one.notes[1].endswith("scan wrote 3 lines, 2 recorded")


def _record(workload, seed, value):
    return {"workload": workload, "seed": seed, "trace": 0, "correct": True, "attempted": 1,
            "failed": 0, "metrics": {"latency_p50_ms": {"value": value, "unit": "ms"}}}


def test_compare_verdicts(scratch_dir, capsys):
    parent = scratch_dir / "parent.jsonl"
    change = scratch_dir / "change.jsonl"
    # (parent, change, jitter): the jitter is wider than the 0.25 bound on
    # every workload but scan
    rows = {"scan": (100.0, 80.0, 0.1), "sweep": (100.0, 200.0, 40.0), "engine": (100.0, 100.5, 40.0)}
    with open(parent, "w") as p, open(change, "w") as c:
        for seed in range(10):
            for workload, (before, after, jitter) in rows.items():
                shift = jitter * (seed % 3)
                p.write(json.dumps(_record(workload, seed, before + shift)) + "\n")
                c.write(json.dumps(_record(workload, seed, after + shift)) + "\n")
    compare.main([str(parent), str(change)])
    out = {line.split()[1]: line.split()[-1] for line in capsys.readouterr().out.splitlines()
           if line.startswith("latency_p50_ms")}
    assert out == {"scan": "improved", "sweep": "regressed", "engine": "unresolved"}
