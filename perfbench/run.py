"""circleinv benchmark: one command for the ``scan``, ``sweep`` and
``engine`` workloads.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Each workload is a closed loop with one worker: the next vector starts
only when the previous one has finished and been checked.  A run is a
series of passes over the workload's vectors, each in a fresh process
(``onepass.py``), started one after another while another pass is
expected to fit in ``--seconds`` (always at least one pass).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
untraced pass and one traced pass and reports per-layer time and counts
plus the tracing overhead; the traced pass writes its spans to
``.perfbench-out/spans-<workload>-<seed>.jsonl`` when it ends.

Times are reported at a fixed reference speed of the machine: calibration
slices of fixed integer arithmetic run between vectors, and the times of
each pass are divided by that pass's slowdown, its mean slice time over
CALIBRATION_REF_S.  Set-up times are divided by the slowdown of reference
interpreters that import numpy alone, spawned alternately with the set-up
interpreters: their median time over REFERENCE_IMPORT_REF_S.  On a shared
machine whose speed drifts by tens of percent over minutes this keeps runs
comparable; the text report also prints the raw figures and the ratio.

Every output is checked outside the timed region.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric by name with its unit, each failed vector, each wall-guard trip and
the golden-snapshot comparison.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))

WORKLOADS = ("scan", "sweep", "engine")
SETUP_REPEATS = 7
DEADLINE_S = 130.0  # no vector starts later than this after the run starts
EXIT_BY_S = 170.0  # a pass still running then is stopped
TAIL_MIN_BEYOND = 10
# a calibration slice takes about this long on the 2-vCPU machine the
# benchmark was sized on, at its faster end
CALIBRATION_REF_S = 0.0028
# a fresh interpreter importing numpy alone takes about this long there
REFERENCE_IMPORT_REF_S = 0.16

# Set-up and reference interpreters print the seconds of their first and
# second imports and the time they ended.  The untraced set-up imports the
# package alone, so numpy counts only while the package imports it; the
# traced one imports numpy first to split the two.  The reference is a
# dependency the set-up is mostly made of, so machine drift hits both
# alike, and the program cannot change it.
IMPORT_CODE = (
    "import time\n"
    "t0 = time.monotonic()\n"
    "{first}\n"
    "t1 = time.monotonic()\n"
    "{second}\n"
    "t2 = time.monotonic()\n"
    "print(t1 - t0, t2 - t1, t2)\n"
)
PACKAGE = "import circleinv, circleinv.cli"
SETUP_CODE = IMPORT_CODE.format(first="pass", second=PACKAGE)
TRACED_SETUP_CODE = IMPORT_CODE.format(first="import numpy", second=PACKAGE)
REFERENCE_CODE = IMPORT_CODE.format(first="import numpy", second="pass")


class RunFailed(Exception):
    """The program could not be set up or a pass process did not finish."""


def spawn_imports(code: str) -> tuple:
    """(wall_s, first_s, second_s) of a fresh interpreter running code.

    wall_s runs from just before the interpreter is spawned to the end of
    its imports; both ends read CLOCK_MONOTONIC, which Linux shares between
    processes.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    if proc.returncode != 0:
        raise RunFailed("a set-up interpreter failed:\n" + proc.stderr.strip())
    first_s, second_s, done = (float(x) for x in proc.stdout.split())
    return done - spawned, first_s, second_s


def measure_setup(repeats: int, trace: bool) -> tuple:
    """(rows, slowdown): (setup_s, numpy_s, circleinv_s) per set-up
    interpreter, and the median reference interpreter's time over
    REFERENCE_IMPORT_REF_S."""
    rows, reference = [], []
    for _ in range(repeats):
        rows.append(spawn_imports(TRACED_SETUP_CODE if trace else SETUP_CODE))
        reference.append(spawn_imports(REFERENCE_CODE)[0])
    return rows, statistics.median(reference) / REFERENCE_IMPORT_REF_S


def run_pass(args, trace: bool, started: float) -> dict:
    """One pass in a fresh process; returns its JSON report."""
    elapsed = time.monotonic() - started
    cmd = [
        sys.executable, str(HERE / "onepass.py"), args.workload, str(args.seed),
        "1" if args.smoke else "0", "1" if trace else "0", f"{max(0.0, DEADLINE_S - elapsed):.3f}",
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=max(1.0, EXIT_BY_S - elapsed),
        )
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"a {args.workload} pass was stopped after {exc.timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(f"a {args.workload} pass exited with {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(lines[-1])


def tail(latencies: list, pass_size: int):
    """(percentile, seconds): the highest whole percentile that leaves at
    least TAIL_MIN_BEYOND vectors of one pass beyond it.  It depends only on
    the pass size, so every run of a workload reports the same percentile
    however many passes fit."""
    pct = max(50, min(99, int(100 * (1 - TAIL_MIN_BEYOND / pass_size))))
    if len(latencies) < 2:
        return pct, latencies[0]
    return pct, statistics.quantiles(latencies, n=100, method="inclusive")[pct - 1]


def _fmt(value) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def main(argv=None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="a few seconds' worth of each workload")
    parser.add_argument("--save", help="append the result, with workload and seed, to this JSONL file")
    args = parser.parse_args(argv)
    # a stop request unwinds through subprocess.run, which kills and waits
    # for the pass process it started
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "circleinv" / "__init__.py").is_file():
        sys.stderr.write(f"no circleinv package under {SRC}; run from a checkout of the repository\n")
        return 2
    passes = []
    try:
        setup, setup_slowdown = measure_setup(1 if args.smoke else SETUP_REPEATS, bool(args.trace))
        if args.trace:
            passes.append(run_pass(args, False, started))
            passes.append(run_pass(args, True, started))
        else:
            first = time.perf_counter()
            while True:
                before = time.perf_counter()
                passes.append(run_pass(args, False, started))
                now = time.perf_counter()
                if now - first + (now - before) > args.seconds:
                    break
                if time.monotonic() - started + (now - before) > DEADLINE_S:
                    break
    except (RunFailed, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"{exc}\n")
        return 2

    if not any(p["latencies"] for p in passes):
        sys.stderr.write("no vector finished before the run's time limit\n")
        return 2
    # each pass's times are divided by the slowdown its own slices measured
    # (> 1 when the machine ran slower than the reference speed)
    for p in passes:
        p["slowdown"] = statistics.fmean(p["calibration"]) / CALIBRATION_REF_S
    latencies = [(x, x / p["slowdown"]) for p in passes for x in p["latencies"]]
    busy = sum(p["busy"] for p in passes)
    busy_norm = sum(p["busy"] / p["slowdown"] for p in passes)
    attempted = sum(p["size"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    mismatches = [p["golden_mismatches"] for p in passes if p["golden_mismatches"] is not None]

    metrics = {}  # name -> (reported value, unit, raw value or None)
    lines = [
        f"workload={args.workload} seed={args.seed} trace={args.trace} smoke={int(args.smoke)} "
        f"passes={len(passes)} vectors={attempted} busy_s={busy:.4f}",
        "calibration slowdown per pass: " + " ".join(f"{p['slowdown']:.4f}" for p in passes)
        + f" (reference slice {CALIBRATION_REF_S * 1e3:g} ms); set-up {setup_slowdown:.4f} "
        f"(reference numpy interpreter {REFERENCE_IMPORT_REF_S:g} s)",
    ]
    for p in passes:
        lines.extend(p["notes"])
    if mismatches:
        lines.append(f"check golden_mismatches {sum(mismatches)} count")
    for name, column in (("setup_s", 0), ("setup.numpy_import_s", 1), ("setup.circleinv_import_s", 2)):
        if (name == "setup_s") != bool(args.trace):
            value = statistics.median(row[column] for row in setup)
            metrics[name] = (value / setup_slowdown, "s", value)
    if args.trace:
        untraced, traced = passes
        for name, (value, unit) in traced["layers"].items():
            metrics[name] = (value / traced["slowdown"], unit, value) if unit == "s" else (value, unit, None)
        overhead = traced["busy"] / traced["slowdown"] - untraced["busy"] / untraced["slowdown"]
        metrics["trace.overhead_s"] = (overhead, "s", traced["busy"] - untraced["busy"])
        lines.append(
            f"trace overhead {overhead:.4f} s: traced pass {traced['busy']:.4f} s raw, "
            f"untraced pass {untraced['busy']:.4f} s raw"
        )
    else:
        pct, tail_raw = tail([raw for raw, _ in latencies], passes[0]["size"])
        _, tail_norm = tail([norm for _, norm in latencies], passes[0]["size"])
        metrics["vectors_per_s"] = (len(latencies) / busy_norm, "1/s", len(latencies) / busy)
        metrics["latency_p50_ms"] = (
            statistics.median(norm for _, norm in latencies) * 1e3, "ms",
            statistics.median(raw for raw, _ in latencies) * 1e3,
        )
        metrics["latency_tail_ms"] = (tail_norm * 1e3, "ms", tail_raw * 1e3)
        metrics["peak_rss_mb"] = (max(p["maxrss_kb"] for p in passes) / 1024, "MB", None)
        lines.append(
            f"latency_tail_ms is p{pct} over {len(latencies)} samples "
            f"({len(passes)} passes of {passes[0]['size']})"
        )
        lines.append(f"setup runs: {' '.join(f'{row[0]:.4f}' for row in setup)} s raw")
    for name, (value, unit, raw) in metrics.items():
        suffix = f" (raw {_fmt(raw)})" if raw is not None else ""
        lines.append(f"metric {name} {_fmt(value)} {unit}{suffix}")
    lines.append(f"metric failed_frac {failed / attempted:.6g} fraction ({failed} of {attempted})")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    if args.save:
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, **result}
        with open(args.save, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, separators=(",", ":")) + "\n")
    for line in lines:
        print(line)
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
