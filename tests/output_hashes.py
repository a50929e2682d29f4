"""Print one sha256 per vector family of the Hilbert series' output.

A refactor that must leave the output byte-identical is checked by running
this script on the old and the new tree and comparing the lines:

    PYTHONPATH=src python3 tests/output_hashes.py

Each family hashes, per vector and in order, the canonical ``cli.rf_json``
text of ``hilbert_series(validate(v))``, or the exception's class name when
validation or the series raises.  The families are ``engine_pool()``,
``sweep_family()``, ``_scan_candidates(4, 8)``, ``_scan_candidates(5, 4)``,
RANDOM_COUNT vectors from ``random.Random(RANDOM_SEED)``: n from 2 to 6
and each weight a nonzero integer with |w| <= 12, and THREE_WEIGHT_COUNT
three-weight vectors from ``random.Random(THREE_WEIGHT_SEED)``: k = 1 or 2
weights in -3000..-1 and 3 - k in 1..3000, so the sections have strides
and periods in the thousands, and ONE_SECTION_COUNT vectors from
``random.Random(ONE_SECTION_SEED)`` with one weight in -200..-1 and n - 1
in 1..200, n from 4 to 6: each series is one section whose reduction
decides only its open indices.

Three more lines, prefixed ``gammas_``, hash the Laurent coefficients over
the generic orientations (v and its negation, each where its negative
weights are pairwise distinct) of ``sweep_family()``,
``_scan_candidates(4, 8)`` and the RANDOM_COUNT random vectors: per
orientation, ``gammas(v, u, "generic")`` for u = 0..3 and ``gammas(v, 3)``,
each value with its type, or the exception's class name.  A refactor of ``laurent``
is checked with them the same way.

Three lines, prefixed ``reports_``, hash the Gorenstein reports of
``sweep_family()``, ``_scan_candidates(4, 8)`` and
``_scan_candidates(5, 4)``: per vector, the compact JSON text of
``report_json(analyze(validate(v)))`` and of
``report_json(analyze(validate(v), full=True))``, each or the exception's
class name.  A refactor of ``gorenstein`` or ``cli`` is checked with them.

Two lines, prefixed ``schur_gammas_``, hash the partial-Schur walk at every
order over every vector of ``sweep_family()`` and
``_scan_candidates(4, 8)``, repeated negative weights included: per
vector, ``gammas(validate(v), u)`` for u = 0..3, each value with its type,
or the exception's class name.  A refactor of the walk or of
``schur.scaled_schur_values`` is checked with them.

One line, ``cli_argv``, runs each argv of CLI_ARGVS through ``cli.main``
in process and hashes its exit code, its stdout and the error name on its
stderr (``usage`` for an argparse error).  The table covers every
subcommand and the argvs the library refuses, the vectors past the degree
limit included.  A refactor of ``cli`` or of a refusal is checked with it.
A tree older than any of these lines is checked by copying this script
into its ``tests/`` and running it there.

The name does not start with ``test_``, so pytest does not collect it.
"""

import hashlib
import io
import json
import os
import random
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from circleinv import cli  # noqa: E402
from circleinv.cli import _scan_candidates, report_json, rf_json  # noqa: E402
from circleinv.errors import Unstable  # noqa: E402
from circleinv.gorenstein import analyze  # noqa: E402
from circleinv.hilbert import hilbert_series  # noqa: E402
from circleinv.laurent import gammas  # noqa: E402
from circleinv.weights import validate  # noqa: E402
from perfbench.workloads import engine_pool, sweep_family  # noqa: E402

RANDOM_SEED = 28
RANDOM_COUNT = 1500
THREE_WEIGHT_SEED = 29
THREE_WEIGHT_COUNT = 300
ONE_SECTION_SEED = 30
ONE_SECTION_COUNT = 300


def random_vectors() -> list:
    rng = random.Random(RANDOM_SEED)
    weights = [w for w in range(-12, 13) if w]
    return [tuple(rng.choice(weights) for _ in range(rng.randint(2, 6))) for _ in range(RANDOM_COUNT)]


def three_weight_vectors() -> list:
    rng = random.Random(THREE_WEIGHT_SEED)
    out = []
    for _ in range(THREE_WEIGHT_COUNT):
        k = rng.randint(1, 2)
        negatives = tuple(-rng.randint(1, 3000) for _ in range(k))
        out.append(negatives + tuple(rng.randint(1, 3000) for _ in range(3 - k)))
    return out


def one_section_vectors() -> list:
    rng = random.Random(ONE_SECTION_SEED)
    return [
        (-rng.randint(1, 200), *(rng.randint(1, 200) for _ in range(rng.randint(4, 6) - 1)))
        for _ in range(ONE_SECTION_COUNT)
    ]


def output(raw) -> str:
    try:
        return json.dumps(rf_json(hilbert_series(validate(raw))), sort_keys=True)
    except Exception as exc:
        return type(exc).__name__


def generic_orientations(family) -> list:
    out = []
    for raw in family:
        try:
            v = validate(raw)
        except Unstable:  # one sign only: no orientation to hash
            continue
        out += [o for o in (v, v.negate()) if o.is_generic]
    return out


def gamma_output(v) -> str:
    parts = []
    for upto, method in [(u, "generic") for u in range(4)] + [(3, "schur")]:
        try:
            parts.append(" ".join(f"{type(g).__name__}:{g}" for g in gammas(v, upto, method).values))
        except Exception as exc:
            parts.append(type(exc).__name__)
    return " | ".join(parts)


def report_output(raw) -> str:
    parts = []
    for full in (False, True):
        try:
            report = analyze(validate(raw), full=full)
            parts.append(json.dumps(report_json(report), separators=(",", ":")))
        except Exception as exc:
            parts.append(type(exc).__name__)
    return " | ".join(parts)


def schur_gamma_output(raw) -> str:
    parts = []
    for upto in range(4):
        try:
            values = gammas(validate(raw), upto).values
            parts.append(" ".join(f"{type(g).__name__}:{g}" for g in values))
        except Exception as exc:
            parts.append(type(exc).__name__)
    return " | ".join(parts)


def cli_output(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refuses the argv
            code = exc.code
    try:
        error = json.loads(err.getvalue())["error"] if err.getvalue() else ""
    except ValueError:
        error = "usage"
    return f"{code} {error} {out.getvalue()}"


CLI_ARGVS = [
    ["hilb", "-3,1,3"],
    ["hilb", "-1,2,3", "--method", "oracle"],
    ["hilb", "-1,2,3", "--method", "oracle", "--verify-depth", "8"],
    ["hilb", "-1,-2,1,14", "--method", "generic"],
    ["hilb", "-1,-2,1,14", "--method", "generic", "--verify-depth", "30"],
    ["hilb", "-2,-2,3,3", "--method", "generic"],
    ["hilb", "-2,-2,3,3", "--method", "degenerate"],
    ["hilb", "-1,-2,1,14", "--method", "degenerate", "--verify-depth", "30"],
    ["hilb", "-1,-2,4,8", "--verify-depth", "20"],
    ["hilb", "-2", "3"],
    ["hilb", "-1,2,3", "--method", "abc"],
    ["gamma", "-1,-2,1,14", "--method", "all"],
    ["gamma", "-2,3", "--method", "all"],
    ["gamma", "-2,-2,1,3", "--method", "all"],
    ["gamma", "-1,1", "--method", "series", "--upto", "5"],
    ["gamma", "-1,-2,1,14", "--upto", "1"],
    ["analyze", "-3,1,3"],
    ["analyze", "-3,1,3", "--full"],
    ["analyze", "-1,-2,4,8", "--full"],
    ["analyze", "-1,-2,1,14", "--full", "--verify-depth", "20"],
    ["schur", "--u", "2", "--xs", "-1,-2", "--ys", "1,14"],
    ["schur", "--u", "1", "--xs", "1,1", "--ys", "2"],
    ["hironaka", "--alphas", "2,4", "--betas", "0,3"],
    ["hironaka", "--alphas", "2,8,15", "--betas", "0,5,10", "--upto", "6"],
    ["scan", "--n", "3", "--max-weight", "2", "--output", os.devnull],
    # refused argvs
    ["hilb", "1,x,-3"],
    ["hilb", "1,2,3"],
    ["hilb", "7"],
    ["analyze", "0,0"],
    ["gamma", "-1,2,3", "--upto", "-2"],
    ["gamma", "-1,2,3", "--upto", "4"],
    ["gamma", "-1,2,3", "--upto", "4", "--method", "all"],
    ["hilb", "-1,2,3", "--verify-depth", "-5"],
    ["hilb", "-1,2,3", "--method", "oracle", "--verify-depth", "-5"],
    ["analyze", "-2,1,3", "--verify-depth", "-5"],
    ["hironaka", "--alphas", "2,4", "--betas", "0", "--upto", "-1"],
    ["hironaka", "--alphas", "0", "--betas", "1"],
    ["schur", "--u", "1", "--xs", "1/0", "--ys", "1"],
    ["scan", "--n", "2", "--max-weight", "2", "--jobs", "0", "--output", os.devnull],
    ["hilb", "-501,500,503", "--method", "oracle", "--verify-depth", "2005"],
    # past the degree limit
    ["hilb", "-1,10000001"],
    ["hilb", "-1,-2,1,10000000"],
    ["hilb", "-1,-2,1,10000000", "--method", "degenerate"],
    ["hilb", "-3001,3000,3003,3007"],
    ["analyze", "-3001,3000,3003,3007", "--full"],
    ["gamma", "-3001,3000,3003,3007", "--method", "series"],
    ["hironaka", "--alphas", "10000001", "--betas", "0"],
    ["hironaka", "--alphas", "2", "--betas", "10000001"],
]


FAMILIES = {
    "engine_pool": engine_pool,
    "sweep_family": sweep_family,
    "scan_4_8": lambda: _scan_candidates(4, 8),
    "scan_5_4": lambda: _scan_candidates(5, 4),
    f"random_{RANDOM_SEED}_{RANDOM_COUNT}": random_vectors,
    f"three_weight_{THREE_WEIGHT_SEED}_{THREE_WEIGHT_COUNT}": three_weight_vectors,
    f"one_section_{ONE_SECTION_SEED}_{ONE_SECTION_COUNT}": one_section_vectors,
}

GAMMA_FAMILIES = {
    "gammas_sweep_family": sweep_family,
    "gammas_scan_4_8": lambda: _scan_candidates(4, 8),
    f"gammas_random_{RANDOM_SEED}_{RANDOM_COUNT}": random_vectors,
}

REPORT_FAMILIES = {
    "reports_sweep_family": sweep_family,
    "reports_scan_4_8": lambda: _scan_candidates(4, 8),
    "reports_scan_5_4": lambda: _scan_candidates(5, 4),
}

SCHUR_GAMMA_FAMILIES = {
    "schur_gammas_sweep_family": sweep_family,
    "schur_gammas_scan_4_8": lambda: _scan_candidates(4, 8),
}


def report(name, vectors, line) -> None:
    start = time.perf_counter()
    digest = hashlib.sha256()
    for v in vectors:
        digest.update(line(v).encode() + b"\n")
    elapsed = time.perf_counter() - start
    print(f"{name} {len(vectors)} {digest.hexdigest()}  ({elapsed:.1f} s)", flush=True)


def main() -> None:
    for name, family in FAMILIES.items():
        report(name, family(), output)
    for name, family in GAMMA_FAMILIES.items():
        report(name, generic_orientations(family()), gamma_output)
    for name, family in REPORT_FAMILIES.items():
        report(name, family(), report_output)
    for name, family in SCHUR_GAMMA_FAMILIES.items():
        report(name, family(), schur_gamma_output)
    report("cli_argv", CLI_ARGVS, cli_output)


if __name__ == "__main__":
    main()
