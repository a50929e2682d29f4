"""Command-line frontend.

Subcommands: hilb, gamma, analyze, schur, hironaka, scan.  All output is
deterministic UTF-8 JSON on stdout (rationals as "p/q" strings, polynomials
as sorted [exponent, coefficient] pairs, factored denominators as
[d, multiplicity] pairs).  Bad input (a ``ValidationError``) exits 2 and
any other failure exits 3, with a structured error object on stderr.  The
library refuses bad arguments itself; only scan's --n, --max-weight and
--jobs, which no library function reads, are checked here.  Every setting
is a flag with a fixed default.
"""

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd

from . import gorenstein, laurent, schur
from .errors import ValidationError
from .exact import Polynomial, RationalFunction, _expand_view
from .hilbert import hilbert_series, oracle_coefficients
from .weights import validate

# scan refuses families with more weight combinations C(2W + n - 1, n)
SCAN_MAX_COMBINATIONS = 10**6


# ---------------------------------------------------------------------------
# JSON encoding


def poly_json(p: Polynomial) -> list:
    return [[e, str(c)] for e, c in p.items()]


def rf_json(f: RationalFunction) -> dict:
    view = f.factored_denominator
    return {
        "numerator": poly_json(f.view_numerator()),
        "factored_denominator": None if view is None else [list(pair) for pair in view],
        "denominator": poly_json(f.denominator if view is None else _expand_view(dict(view))),
    }


def report_json(report: gorenstein.GorensteinReport) -> dict:
    return {
        "weights": list(report.weights),
        "zero_count": report.zero_count,
        "faithful_scale": report.faithful_scale,
        "dimension": report.dimension,
        "degenerate": report.degenerate,
        "classification": report.classification,
        "stanley_holds": report.stanley_holds,
        "gamma0": str(report.gamma0),
        "gamma1": str(report.gamma1),
        "ratio_2g1_g0": str(report.ratio_2g1_g0),
        "ratio_is_integer": report.ratio_is_integer,
        "a_invariant": None if report.degree is None else str(report.degree),
        "sufficient_condition_hits": list(report.sufficient_condition_hits),
        "hilbert": None if report.hilbert is None else rf_json(report.hilbert),
    }


# ---------------------------------------------------------------------------
# argument helpers


def _parse_list(text: str, kind, what: str) -> list:
    try:
        return [kind(p) for p in text.replace(",", " ").split()]
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"bad {what} {text!r}: {exc}") from None


def parse_weights(tokens) -> list:
    return [w for token in tokens for w in _parse_list(token, int, "weights")]


def _emit(payload: dict):
    sys.stdout.write(json.dumps(payload, separators=(",", ":")) + "\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_hilb(args) -> int:
    weights = parse_weights(args.weights)
    v = validate(weights)
    if args.method == "oracle":
        _emit(
            {
                "weights": weights,
                "method": "oracle",
                "coefficients": oracle_coefficients(v, args.verify_depth or 50),
            }
        )
        return 0
    f = hilbert_series(v, method=args.method, verify_depth=args.verify_depth)
    _emit(
        {
            "weights": weights,
            "method": args.method,
            "hilbert": rf_json(f),
            "degree": f.degree,
        }
    )
    return 0


def cmd_gamma(args) -> int:
    weights = parse_weights(args.weights)
    v = validate(weights)
    if args.gamma_method == "all":
        results = {"schur": laurent.gammas(v, args.upto, "schur")}
        if v.is_generic:
            results["generic"] = laurent.gammas(v, args.upto, "generic")
        results["series"] = laurent.gammas(v, args.upto, "series")
        reference = results["schur"]
        agree = all(g.values == reference.values for g in results.values())
        _emit(
            {
                "weights": weights,
                "gamma": list(map(str, reference.values)),
                "pole_order": reference.pole_order,
                "methods": sorted(results),
                "methods_agree": agree,
            }
        )
        return 0
    g = laurent.gammas(v, args.upto, args.gamma_method)
    _emit(
        {
            "weights": weights,
            "gamma": list(map(str, g.values)),
            "pole_order": g.pole_order,
            "method": g.method,
        }
    )
    return 0


def cmd_analyze(args) -> int:
    v = validate(parse_weights(args.weights))
    report = gorenstein.analyze(v, full=args.full, verify_depth=args.verify_depth)
    _emit(report_json(report))
    return 0


def cmd_schur(args) -> int:
    xs = _parse_list(args.xs, Fraction, "--xs")
    ys = _parse_list(args.ys, Fraction, "--ys")
    value = schur.partial_schur(args.u, xs, ys)
    routes = {"remainder": value, "expansion": schur.partial_schur_expansion(args.u, xs, ys)}
    if len(set(xs)) == len(xs) and len(set(ys)) == len(ys) and xs:
        routes["determinant"] = schur.partial_schur_det(args.u, xs, ys)
    agree = len({v for v in routes.values()}) == 1
    _emit(
        {
            "u": args.u,
            "xs": list(map(str, xs)),
            "ys": list(map(str, ys)),
            "value": str(value),
            "routes": sorted(routes),
            "routes_agree": agree,
        }
    )
    return 0


def cmd_hironaka(args) -> int:
    from . import hironaka  # only this command loads it

    data = hironaka.HironakaData(
        tuple(_parse_list(args.alphas, int, "--alphas")),
        tuple(_parse_list(args.betas, int, "--betas")),
    )
    values = [str(g) for g in hironaka.gammas_cm(args.upto, data)]
    _emit(
        {
            "alphas": list(data.alphas),
            "betas": list(data.betas),
            "gamma": values,
            "hilbert": rf_json(hironaka.hilb_from_hironaka(data)),
        }
    )
    return 0


# ---------------------------------------------------------------------------
# scan


def _scan_representative(weights) -> tuple:
    """Pick the orientation of a canonical class that reads best: fewer
    negatives, then positive total, then lexicographically smaller."""
    forward = tuple(sorted(weights))
    backward = tuple(sorted(-w for w in weights))

    def rank(ws):
        return (sum(1 for w in ws if w < 0), -sum(ws), ws)

    return min(forward, backward, key=rank)


def _scan_candidates(n: int, max_abs: int):
    """The representatives, sorted, of the classes {v, -v} of stable
    faithful vectors of n nonzero weights in [-max_abs, max_abs]: every
    class has a primitive member in range (divide by the gcd), and both
    orientations of a class give the same representative."""
    values = [w for w in range(-max_abs, max_abs + 1) if w != 0]
    return sorted(
        {
            _scan_representative(combo)
            for combo in combinations_with_replacement(values, n)
            if combo[0] < 0 < combo[-1] and gcd(*combo) == 1
        }
    )


def _scan_one(weights) -> dict:
    try:
        report = gorenstein.analyze(validate(weights))
        return report_json(report)
    except Exception as exc:  # record and keep scanning
        return {"weights": list(weights), "error": str(exc)}


def _scan_payloads(candidates, jobs: int):
    """Reports in candidate order, each yielded as soon as it is ready, from
    min(jobs, candidates, CPUs) workers, serially when that is 1: the fork
    start method launches every worker of the pool at its first submit."""
    workers = min(jobs, len(candidates), os.cpu_count() or 1)
    if workers <= 1:
        yield from map(_scan_one, candidates)
        return
    from concurrent.futures import ProcessPoolExecutor  # only parallel scans pay for it

    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(_scan_one, candidates, chunksize=16)


# each scan filter's predicate on a report without an error.  A class is
# degenerate when a weight repeats on either sign side, so when any of its
# nonzero weights repeats: the report's "degenerate" field reads only the
# negative side, and the emitted representative may be the generic one
SCAN_FILTERS = {
    "OnlyNonGorensteinIntegerRatio": lambda p: (
        p["ratio_is_integer"] and p["classification"] == "NotGorenstein"
    ),
    "OnlyGorenstein": lambda p: p["classification"] == "Gorenstein",
    "OnlyDegenerate": lambda p: len(set(p["weights"])) < len(p["weights"]),
}


def _passes_filters(payload: dict, filters) -> bool:
    return "error" in payload or all(SCAN_FILTERS[name](payload) for name in filters)


def cmd_scan(args) -> int:
    if args.n < 2 or args.max_weight < 1:
        raise ValidationError("scan needs n >= 2 and max-weight >= 1")
    if args.jobs < 1:
        raise ValidationError(f"--jobs must be at least 1, got {args.jobs}")
    m, c = 2 * args.max_weight + args.n - 1, 1
    for i in range(min(args.n, m - args.n)):  # C(m, i) only grows: stop past the bound
        c = c * (m - i) // (i + 1)
        if c > SCAN_MAX_COMBINATIONS:
            raise ValidationError(f"scan family exceeds {SCAN_MAX_COMBINATIONS} weight combinations")
    candidates = _scan_candidates(args.n, args.max_weight)
    counts = {"total": len(candidates), "Gorenstein": 0, "NotGorenstein": 0,
              "integer_ratio_not_gorenstein": 0, "errors": 0, "written": 0}
    with open(args.output, "w", encoding="utf-8") as handle:
        for payload in _scan_payloads(candidates, args.jobs):
            if "error" in payload:
                counts["errors"] += 1
            else:
                counts[payload["classification"]] += 1
                if SCAN_FILTERS["OnlyNonGorensteinIntegerRatio"](payload):
                    counts["integer_ratio_not_gorenstein"] += 1
            if _passes_filters(payload, args.filter):
                handle.write(json.dumps(payload, separators=(",", ":")) + "\n")
                counts["written"] += 1
    _emit({"n": args.n, "max_weight": args.max_weight, "filters": list(args.filter),
           "output": args.output, "counts": counts})
    return 0


# ---------------------------------------------------------------------------
# parser


# lets weight lists like "-3,1,3" pass as positionals instead of flags
_WEIGHTS_TOKEN = re.compile(r"^-\d[\d,\-/ ]*$")


def _allow_weight_tokens(parser: argparse.ArgumentParser):
    parser._negative_number_matcher = _WEIGHTS_TOKEN


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circleinv",
        description="Exact Hilbert series and Gorenstein diagnosis for circle weight actions",
    )
    verify = argparse.ArgumentParser(add_help=False)
    verify.add_argument(
        "--verify-depth",
        type=int,
        default=0,
        help="cross-check this many leading series coefficients against the counting oracle (0 disables)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hilb", parents=[verify], help="Hilbert series as an exact rational function")
    p.add_argument("weights", nargs="+", help="comma- or space-separated integer weights")
    p.add_argument("--method", choices=("auto", "generic", "degenerate", "oracle"), default="auto")
    _allow_weight_tokens(p)
    p.set_defaults(func=cmd_hilb)

    p = sub.add_parser("gamma", help="Laurent coefficients at t=1")
    p.add_argument("weights", nargs="+")
    p.add_argument("--upto", type=int, default=3)
    p.add_argument(
        "--method",
        dest="gamma_method",
        choices=("schur", "generic", "series", "all"),
        default="schur",
    )
    _allow_weight_tokens(p)
    p.set_defaults(func=cmd_gamma)

    p = sub.add_parser("analyze", parents=[verify], help="Gorenstein diagnosis report")
    p.add_argument("weights", nargs="+")
    p.add_argument("--full", action="store_true", help="always compute the series and Stanley test")
    _allow_weight_tokens(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("schur", help="partial Schur value with route agreement")
    p.add_argument("--u", type=int, required=True)
    p.add_argument("--xs", default="", help="comma-separated rationals")
    p.add_argument("--ys", default="", help="comma-separated rationals")
    _allow_weight_tokens(p)
    p.set_defaults(func=cmd_schur)

    p = sub.add_parser("hironaka", help="Laurent coefficients from decomposition degrees")
    p.add_argument("--alphas", required=True)
    p.add_argument("--betas", required=True)
    p.add_argument("--upto", type=int, default=3)
    p.set_defaults(func=cmd_hironaka)

    p = sub.add_parser("scan", help="batch survey of weight vectors")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-weight", type=int, required=True)
    p.add_argument("--filter", action="append", choices=SCAN_FILTERS, default=[])
    p.add_argument("--output", required=True, help="line-delimited JSON report file")
    p.set_defaults(func=cmd_scan)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        sys.stderr.write(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n"
        )
        return 2 if isinstance(exc, ValidationError) else 3


if __name__ == "__main__":
    sys.exit(main())
