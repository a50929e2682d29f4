"""Record the golden outputs the benchmark compares against.

    python3 perfbench/make_golden.py

Run from the root of a checkout at the commit whose outputs are golden.
Writes, under perfbench/golden/:

* ``scan.json.gz``: the sha256 of the whole ``scan --n 4 --max-weight 8``
  JSONL output, and per line the class weights and the first 16 hex digits
  of the line's sha256;
* ``sweep.json.gz`` and ``engine.json.gz``: the canonical ``rf_json`` text
  (factored denominator included) of every sweep vector and of every
  vector the engine workload can draw.
"""

import gzip
import hashlib
import json
import sys

import onepass
import workloads


def _write(name: str, payload):
    onepass.GOLDEN.mkdir(exist_ok=True)
    # mtime=0 keeps the file bytes a function of the content alone
    with open(onepass.GOLDEN / f"{name}.json.gz", "wb") as raw:
        with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as handle:
            handle.write(json.dumps(payload, separators=(",", ":"), sort_keys=True).encode())


def main() -> int:
    sys.path.insert(0, str(onepass.SRC))
    from circleinv import cli, hilbert, weights

    scan = onepass.Scan(seed=0, smoke=False, golden=False)
    classes = scan.items()
    lines = [scan.work(w) for w in classes]
    _write("scan", {
        "sha256": hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest(),
        "lines": [
            [list(w), hashlib.sha256(line.encode()).hexdigest()[:16]]
            for w, line in zip(classes, lines)
        ],
    })
    for name, vectors in (("sweep", workloads.sweep_family()), ("engine", workloads.engine_pool())):
        snapshot = {}
        for raw in vectors:
            f = hilbert.hilbert_series(weights.validate(raw))
            snapshot[onepass.golden_key(raw)] = onepass.rf_text(cli, f)
        _write(name, snapshot)
    return 0


if __name__ == "__main__":
    sys.exit(main())
