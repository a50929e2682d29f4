"""Byte-identical output against the recorded golden snapshots.

The snapshots under ``perfbench/golden/`` hold the canonical ``rf_json``
text of every sweep and engine-pool vector and the sha256 of the whole
``scan --n 4 --max-weight 8`` JSONL output (``perfbench/make_golden.py``
writes them).  Those reports carry gamma_0 and gamma_1 only, so a sha256
recorded here pins gamma_0..gamma_3 of the same vectors.  A refactor that
changes any output byte fails here, and one that renames or moves a layer
the traced benchmark wraps fails the tracer check below.
"""

import gzip
import hashlib
import json
import sys
from pathlib import Path

import pytest

from circleinv import cli
from circleinv.hilbert import hilbert_series
from circleinv.laurent import gammas
from circleinv.weights import validate

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "perfbench" / "golden"

sys.path.insert(0, str(ROOT))
from perfbench.spans import LAYERS, Tracer  # noqa: E402
from perfbench.workloads import engine_pool, sweep_family  # noqa: E402

# sha256 of one line "gamma_0,gamma_1,gamma_2,gamma_3" (str of each Fraction)
# per vector of sweep_family(), _scan_candidates(4, 8) and engine_pool(), in
# that order
GAMMAS_SHA256 = "6f8956d91c360cbee42c289b56c34bd464c7f78c4bb5565e992d5104f9784a18"


def load(name: str):
    with gzip.open(GOLDEN / f"{name}.json.gz", "rt", encoding="utf-8") as handle:
        return json.load(handle)


def compact(payload) -> str:
    return json.dumps(payload, separators=(",", ":"))


@pytest.mark.parametrize("name", ["sweep", "engine"])
def test_series_match_snapshot(name):
    snapshot = load(name)
    assert snapshot
    for key, text in snapshot.items():
        raw = tuple(int(w) for w in key.split(","))
        assert compact(cli.rf_json(hilbert_series(validate(raw)))) == text, key


def test_scan_output_matches_snapshot():
    recorded = load("scan")
    lines = [compact(cli._scan_one(w)) for w in cli._scan_candidates(4, 8)]
    assert len(lines) == len(recorded["lines"])
    digest = hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()
    assert digest == recorded["sha256"]


def test_gammas_match_recorded_hash():
    vectors = [*sweep_family(), *cli._scan_candidates(4, 8), *engine_pool()]
    digest = hashlib.sha256()
    for raw in vectors:
        digest.update((",".join(map(str, gammas(validate(raw), 3).values)) + "\n").encode())
    assert digest.hexdigest() == GAMMAS_SHA256


def test_tracer_wraps_every_layer():
    def resolve(module: str, path: str):
        target = sys.modules[module]
        for attr in path.split("."):
            target = getattr(target, attr)
        return target

    tracer = Tracer()
    tracer.install()
    try:
        for name, module, path in LAYERS:
            assert hasattr(resolve(module, path), "__wrapped__"), name
    finally:
        tracer.uninstall()
    for name, module, path in LAYERS:
        assert not hasattr(resolve(module, path), "__wrapped__"), name
