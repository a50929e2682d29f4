"""One pass of one workload, in a fresh process.

    python3 perfbench/onepass.py WORKLOAD SEED SMOKE TRACE DEADLINE_S

``run.py`` starts one of these per pass, so every pass starts cold, as a
user's ``circleinv`` process does: the package is imported and its caches
(the cyclotomic tables) fill during the pass.  The last line of standard
output is one JSON object describing the pass; ``run.py`` aggregates them.

Within the pass, ``items`` and ``work`` are timed and ``check`` is not.
Between vectors, outside the timed region, a short calibration slice of
fixed integer arithmetic runs every CALIBRATION_EVERY_S; ``run.py`` uses
the slices to express times at a fixed reference speed of the machine.
"""

import gzip
import hashlib
import json
import resource
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden"
OUT_DIR = ROOT / ".perfbench-out"

sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

GUARD_S = 30.0  # one vector may take this long before it is recorded as failed
ENGINE_CHECK_DEPTH = 50
CALIBRATION_EVERY_S = 0.25
CALIBRATION_STEPS = 30000


class GuardTrip(BaseException):
    """Raised from the wall-guard alarm inside a vector that ran too long.

    A BaseException, so that no ``except Exception`` in the program under
    test can swallow it.
    """


def _on_alarm(signum, frame):
    raise GuardTrip()


def guarded(fn, arg, guard_s: float):
    """fn(arg) under a one-shot wall-clock guard.

    Returns (seconds, result, error); error is None on success, otherwise a
    one-line reason and result is None.
    """
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    start = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, guard_s)
            result = fn(arg)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        error = None
    except GuardTrip:
        result, error = None, f"guard: over {guard_s:g} s"
    except Exception as exc:  # a vector that raises is a failed vector
        result, error = None, f"{type(exc).__name__}: {exc}"
    finally:
        signal.signal(signal.SIGALRM, previous)
    return time.perf_counter() - start, result, error


def calibration_slice() -> float:
    """Seconds for a fixed run of small-integer arithmetic.  It allocates no
    object the garbage collector tracks, so the program's heap does not
    change it; only the speed the machine gives this process does."""
    start = time.perf_counter()
    x = 0
    for i in range(CALIBRATION_STEPS):
        x = (x * 31 + i) % 1000003
    return time.perf_counter() - start


def vector_label(weights) -> str:
    return "(" + ",".join(str(w) for w in weights) + ")"


def golden_key(weights) -> str:
    return ",".join(str(w) for w in weights)


def load_golden(name: str):
    with gzip.open(GOLDEN / f"{name}.json.gz", "rt", encoding="utf-8") as handle:
        return json.load(handle)


def rf_text(cli, f) -> str:
    return json.dumps(cli.rf_json(f), separators=(",", ":"))


# ---------------------------------------------------------------------------
# workloads


class Scan:
    """The CLI scan path: candidates, then validate -> analyze -> report_json
    per class through ``cli._scan_one``, each report serialized as its JSONL
    line."""

    golden_mismatches = None  # scan output is checked line by line instead

    def __init__(self, seed: int, smoke: bool, golden: bool = True):
        from circleinv import cli

        self.cli = cli
        self.smoke = smoke
        self.golden = load_golden("scan") if golden else None
        self.lines = []

    def items(self) -> list:
        cands = self.cli._scan_candidates(workloads.SCAN_N, workloads.SCAN_MAX_WEIGHT)
        return workloads.smoke_subset(cands) if self.smoke else cands

    def work(self, weights):
        return json.dumps(self.cli._scan_one(weights), separators=(",", ":"))

    def recorded(self) -> list:
        lines = self.golden["lines"]
        return workloads.smoke_subset(lines) if self.smoke else lines

    def check(self, index, weights, line) -> list:
        self.lines.append(line)
        if self.golden is None:
            return []
        recorded = self.recorded()
        if index >= len(recorded):
            return [f"class beyond the {len(recorded)} recorded"]
        digest = hashlib.sha256(line.encode()).hexdigest()[:16]
        if recorded[index] != [list(weights), digest]:
            return ["JSONL line differs from the recorded digest"]
        return []

    def finish(self) -> list:
        """Checks of the pass's whole output; each problem is a failure."""
        if self.golden is None:
            return []
        recorded = self.recorded()
        if len(self.lines) != len(recorded):
            return [f"scan wrote {len(self.lines)} lines, {len(recorded)} recorded"]
        if self.smoke:
            return []
        text = "".join(line + "\n" for line in self.lines)
        if hashlib.sha256(text.encode()).hexdigest() != self.golden["sha256"]:
            return ["scan JSONL sha256 differs from the recorded " + self.golden["sha256"]]
        return []


class Sweep:
    """Criterion-07 style cross-check of every vector: series against the
    counting oracle, closed-form gammas against laurent_at_one.  The
    cross-check is the workload, so it runs inside the timed region."""

    golden_name = "sweep"

    def __init__(self, seed: int, smoke: bool, golden: bool = True):
        from circleinv import cli, hilbert, laurent, weights

        self.cli, self.hilbert, self.laurent, self.weights = cli, hilbert, laurent, weights
        self.vectors = self.inputs(seed, smoke)
        self.golden = load_golden(self.golden_name) if golden else None
        self.golden_mismatches = 0 if golden else None

    @staticmethod
    def inputs(seed: int, smoke: bool) -> list:
        family = workloads.sweep_family()
        return workloads.smoke_subset(family) if smoke else family

    def items(self) -> list:
        return self.vectors

    def work(self, raw):
        v = self.weights.validate(raw)
        f = self.hilbert.hilbert_series(v)
        depth = max(2 * f.denominator.degree, 50)
        series = f.series_at_zero(depth)
        oracle = self.hilbert.oracle_coefficients(v, depth)
        expansion = f.laurent_at_one(4)
        lau = self.laurent
        forms = (lau.gamma0(v), lau.gamma1(v), lau.gamma2(v), lau.gamma3(v))
        problems = []
        if series != oracle:
            problems.append("series differs from the counting oracle")
        if expansion.pole_order != v.n - 1 + v.zero_count or tuple(expansion.coefficients) != forms:
            problems.append("closed-form gammas differ from laurent_at_one")
        return f, problems

    def check(self, index, raw, out) -> list:
        f, problems = out
        self.compare_golden(raw, f)
        return problems

    def compare_golden(self, raw, f):
        if self.golden is not None and self.golden.get(golden_key(raw)) != rf_text(self.cli, f):
            self.golden_mismatches += 1

    def finish(self) -> list:
        return []


class Engine(Sweep):
    """Hard single vectors: the series plus gamma_0 and gamma_1.  The series
    is checked against the counting oracle to depth 50 and the gammas
    against laurent_at_one, outside the timed region."""

    golden_name = "engine"

    @staticmethod
    def inputs(seed: int, smoke: bool) -> list:
        return workloads.engine_vectors(seed, smoke)

    def work(self, raw):
        v = self.weights.validate(raw)
        f = self.hilbert.hilbert_series(v)
        return v, f, (self.laurent.gamma0(v), self.laurent.gamma1(v))

    def check(self, index, raw, out) -> list:
        v, f, gammas = out
        problems = []
        depth = ENGINE_CHECK_DEPTH
        if f.series_at_zero(depth) != self.hilbert.oracle_coefficients(v, depth):
            problems.append("series differs from the counting oracle")
        expansion = f.laurent_at_one(2)
        if expansion.pole_order != v.n - 1 + v.zero_count or tuple(expansion.coefficients) != gammas:
            problems.append("closed-form gammas differ from laurent_at_one")
        self.compare_golden(raw, f)
        return problems


WORKLOAD_CLASSES = {"scan": Scan, "sweep": Sweep, "engine": Engine}


# ---------------------------------------------------------------------------
# one pass


class Pass:
    """Runs one pass and records per-vector times, failures and calibration
    slices."""

    def __init__(self, name: str, deadline: float, guard_s: float = GUARD_S):
        self.name = name
        self.deadline = deadline  # time.monotonic() after which no vector starts
        self.guard_s = guard_s
        self.latencies = []
        self.busy = 0.0
        self.size = 0
        self.failed = 0
        self.notes = []
        self.calibration = []

    def fail(self, weights, reason: str):
        self.failed += 1
        kind = "guard-trip" if reason.startswith("guard") else "failed"
        where = "output=pass" if weights is None else f"vector={vector_label(weights)}"
        self.notes.append(f"{kind} workload={self.name} {where} {reason}")

    def run(self, wl, tracer=None):
        self.calibration.append(calibration_slice())
        last_slice = time.perf_counter()
        if tracer is not None:
            tracer.active = True
        seconds, items, error = guarded(lambda _: wl.items(), None, self.guard_s)
        self.busy += seconds
        if error is not None:
            raise RuntimeError(f"{self.name}: building the inputs failed: {error}")
        self.size = len(items)
        for index, weights in enumerate(items):
            if time.monotonic() > self.deadline:
                self.fail(weights, "deadline: the run's time limit passed before it started")
                continue
            if tracer is not None:
                tracer.vector = index
                tracer.active = True
            seconds, out, error = guarded(wl.work, weights, self.guard_s)
            if tracer is not None:
                tracer.active = False
            self.latencies.append(seconds)
            self.busy += seconds
            if error is not None:
                self.fail(weights, error)
            else:
                problems = wl.check(index, weights, out)
                if problems:
                    self.fail(weights, "; ".join(problems))
            if time.perf_counter() - last_slice >= CALIBRATION_EVERY_S:
                self.calibration.append(calibration_slice())
                last_slice = time.perf_counter()
        for problem in wl.finish():
            self.fail(None, problem)
        self.calibration.append(calibration_slice())


def write_spans(tracer, workload: str, seed: int):
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-{seed}.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        for record in tracer.span_records():
            handle.write(json.dumps(record, separators=(",", ":")) + "\n")


def main(argv) -> int:
    workload, seed, smoke, trace, remaining = argv
    seed, smoke, trace = int(seed), smoke == "1", trace == "1"
    deadline = time.monotonic() + float(remaining)
    sys.path.insert(0, str(SRC))
    import circleinv.cli  # noqa: F401  (the layers the tracer wraps must be loaded)

    wl = WORKLOAD_CLASSES[workload](seed, smoke)
    one = Pass(workload, deadline)
    layers = None
    if trace:
        tracer = spans.Tracer()
        tracer.install()
        try:
            one.run(wl, tracer)
        finally:
            tracer.uninstall()
        layers = tracer.layer_metrics()
        write_spans(tracer, workload, seed)
    else:
        one.run(wl)
    print(json.dumps({
        "size": one.size,
        "latencies": one.latencies,
        "busy": one.busy,
        "failed": one.failed,
        "notes": one.notes,
        "golden_mismatches": wl.golden_mismatches,
        "calibration": one.calibration,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "layers": layers,
    }, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
