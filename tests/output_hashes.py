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
orientation, ``gammas(v, 3, "generic")`` and ``gammas(v, 3)``, each value
with its type, or the exception's class name.  A refactor of ``laurent``
is checked with them the same way.

Three lines, prefixed ``reports_``, hash the Gorenstein reports of
``sweep_family()``, ``_scan_candidates(4, 8)`` and
``_scan_candidates(5, 4)``: per vector, the compact JSON text of
``report_json(analyze(validate(v)))`` and of
``report_json(analyze(validate(v), full=True))``, each or the exception's
class name.  A refactor of ``gorenstein`` or ``cli`` is checked with them.
A tree older than any of these lines is checked by copying this script
into its ``tests/`` and running it there.

The name does not start with ``test_``, so pytest does not collect it.
"""

import hashlib
import json
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

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
    for method in ("generic", "schur"):
        try:
            parts.append(" ".join(f"{type(g).__name__}:{g}" for g in gammas(v, 3, method).values))
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


if __name__ == "__main__":
    main()
