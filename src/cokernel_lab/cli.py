"""Command line interface: every engine behind one binary with JSON output
on stdout, human summaries on stderr, and reproducible seeding.

Each subcommand `_cmd_*` returns its config, result and summary, and for
density and simulate curves its hypotheses too; `main` runs it and writes
the report, the manifest built in one place, `_emit`."""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
import time
from contextlib import contextmanager
from datetime import datetime, timezone
from functools import lru_cache, partial

from . import __version__
from .algebra import LocalRingSpec, Poly, RingSpec, _prime_power, check_degree
from .measure import (
    MeasureValue,
    _check_modulus,
    divisor_density,
    divisor_density_hypothesis,
    eta,
    local_ring_with_residue_size,
    moment_rank,
    mu,
    rank_distribution,
    rank_distribution_partition_form,
)
from .modules import ModuleType, Partition
from .montecarlo import SampleConfig, sample_cokernels, tv_distance
from .montecarlo import _check_exhaustive, _check_matrix_size, _check_trials, _check_workers
from .verify import SUITES, run_suite

SCHEMA_VERSION = 1

WORKERS_HELP = "seeded streams to split the trials over; the draws run in one process"

# CPython's default cap on the digits of an int converted to a string; an
# exact value with more digits is refused naming its input
MAX_PRINTED_DIGITS = 4300


def parse_poly_text(text: str, l: int, a=None, source=None) -> Poly:
    """Parse human polynomial syntax like "X^2+2", "X-1", or "X-a" (with the
    symbol a supplied separately). An empty text is refused naming source,
    the flag and text it came from; a term above MAX_POLY_DEGREE is refused
    before the coefficient list is built."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError(f"{source or repr(text)}: empty polynomial")
    if a is not None:
        s = re.sub(r"\ba\b", str(a), s)
    terms = re.findall(r"[+-]?[^+-]+", s)
    coeffs: dict[int, int] = {}
    for term in terms:
        m = re.fullmatch(r"([+-]?)(\d+)?\*?(X(?:\^(\d+))?)?", term, re.IGNORECASE)
        if not m or (m.group(2) is None and m.group(3) is None):
            raise ValueError(f"cannot parse polynomial term {term!r}")
        sign = -1 if m.group(1) == "-" else 1
        coeff = int(m.group(2)) if m.group(2) is not None else 1
        if m.group(3) is None:
            deg = 0
        elif m.group(4) is not None:
            deg = int(m.group(4))
        else:
            deg = 1
        coeffs[deg] = coeffs.get(deg, 0) + sign * coeff
    check_degree(f"polynomial {text!r}", max(coeffs))
    return Poly(l, [coeffs.get(deg, 0) for deg in range(max(coeffs) + 1)])


def _only_keys(obj: dict, keys: tuple, what: str) -> None:
    for key in obj:
        if key not in keys:
            raise ValueError(f"{what} key {key!r} is not one of {', '.join(keys)}")


def _json_flag(flag: str, text: str):
    """The JSON value of a flag's text, refused naming the flag if no JSON."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise ValueError(f"{flag} is not JSON: {err}") from err


def parse_ring_json(data) -> RingSpec:
    """A ring from JSON like {"l": 3, "factors": [{"p": [0, 1], "e": 2}]};
    an unknown key is refused naming it, a factor that makes no local ring
    is refused naming its index, and a repeated factor naming --ring."""
    if isinstance(data, str):
        data = _json_flag("--ring", data)
    if not isinstance(data, dict):
        raise ValueError(f"--ring must be a JSON object, got {data!r}")
    _only_keys(data, ("l", "factors"), "--ring")
    l, factors = data.get("l"), data.get("factors")
    if type(l) is not int:
        raise ValueError(f"--ring l must be an integer, got {l!r}")
    if not isinstance(factors, list) or not factors or not all(
        isinstance(f, dict) for f in factors
    ):
        raise ValueError(
            f"--ring factors must be a non-empty list of objects, got {factors!r}"
        )
    local = []
    for index, f in enumerate(factors):
        _only_keys(f, ("p", "e"), "--ring factor")
        p, e = f.get("p"), f.get("e")
        if not isinstance(p, list) or not all(type(c) is int for c in p):
            raise ValueError(f"--ring factor p must be a list of integers, got {p!r}")
        if type(e) is not int:
            raise ValueError(f"--ring factor e must be an integer, got {e!r}")
        try:
            local.append(LocalRingSpec(l, Poly(l, p), e))
        except ValueError as err:
            raise ValueError(f"--ring factor {index}: {err}") from err
    try:
        return RingSpec(tuple(local))
    except ValueError as err:
        raise ValueError(f"--ring: {err}") from err


def ring_json(ring: RingSpec) -> dict:
    return {
        "l": ring.l,
        "factors": [{"p": list(f.p.coeffs), "e": f.e} for f in ring.factors],
    }


def _printable(n: int, what: str) -> int:
    if abs(n) >= 10**MAX_PRINTED_DIGITS:
        raise ValueError(
            f"{what} has more than MAX_PRINTED_DIGITS = {MAX_PRINTED_DIGITS} digits"
        )
    return n


def measure_value_json(v: MeasureValue, what: str) -> dict:
    """The report of a value; what names it and its input."""
    for n in (v.rational.numerator, v.rational.denominator):
        _printable(n, f"the exact {what}")
    return {
        "rational": f"{v.rational.numerator}/{v.rational.denominator}",
        "eta_factors": list(v.eta_factors),
        "value": v.numeric(),
    }


def _emit(args, started, config: dict, result: dict, summary: str, hypotheses=None):
    """Write the report of a run: the manifest and result as one JSON line on
    stdout, the summary on stderr."""
    # the parser's names: simulate-cokernel and simulate-curves for simulate
    what = getattr(args, "simulate_what", None)
    finished = None if started is None else datetime.now(timezone.utc).isoformat()
    manifest = {
        "subcommand": f"{args.command}-{what}" if what else args.command,
        "version": __version__,
        "schema_version": SCHEMA_VERSION,
        "seed": getattr(args, "seed", None),
        "config": config,
        "hypotheses": hypotheses or {},
        "started": started,
        "finished": finished,
    }
    json.dump({"manifest": manifest, "result": result}, sys.stdout, default=str)
    sys.stdout.write("\n")
    print(summary, file=sys.stderr)


@contextmanager
def _csv_rows(path, header: list):
    """A list that collects the --emit-csv rows of a run, or None without
    the flag. The file is opened before the run, so an unwritable path is
    refused before any draw; the rows are written when the run returns."""
    if not path:
        yield None
        return
    try:
        with open(path, "w", newline="") as fh:
            rows = []
            yield rows
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(rows)
    except OSError as ex:
        raise ValueError(f"cannot write --emit-csv {path}: {ex.strerror}") from ex


def _check_flag(flag: str, value, check) -> None:
    """check(value), its refusal named by the flag and the value."""
    try:
        check(value)
    except ValueError as err:
        raise ValueError(f"{flag} {value}: {err}") from err


def _cmd_eta(args):
    if args.Q < 2:
        raise ValueError(f"--Q {args.Q}: field size must be at least 2")
    ev = eta(args.Q, args.tol)
    return (
        {"Q": args.Q, "tol": args.tol},
        {"value": ev.value, "depth": ev.depth, "tol": ev.tol},
        f"eta({args.Q}) = {ev.value:.9f} (depth {ev.depth})",
    )


def _cmd_measure(args):
    ring = parse_ring_json(args.ring)
    types = _json_flag("--types", args.types)
    if not isinstance(types, list) or not all(
        isinstance(x, list) and all(type(part) is int for part in x) for x in types
    ):
        raise ValueError(
            f"--types must be a JSON list with one list of integer parts per "
            f"factor, like [[2, 1]]; got {args.types}"
        )
    try:
        v = mu(ModuleType(ring, tuple(Partition(tuple(x)) for x in types)))
    except ValueError as err:
        raise ValueError(f"--types {args.types}: {err}") from err
    return (
        {"ring": ring_json(ring), "types": types},
        measure_value_json(v, f"mass of --types {args.types}"),
        f"mu = {v.rational} * eta{list(v.eta_factors)} = {v.numeric():.9f}",
    )


def _cmd_rank_dist(args):
    if args.e < 1:
        raise ValueError(f"--e {args.e}: exponent must be >= 1")
    if args.m < 0:
        raise ValueError(f"--m {args.m}: rank must be nonnegative")
    if args.p is not None:
        l = 3 if args.l is None else args.l
        local = LocalRingSpec(l, parse_poly_text(args.p, l, args.a, f"--p {args.p!r}"), args.e)
    else:
        if args.a is not None:
            raise ValueError("--a names a root in --p and is not allowed with --Q")
        _check_flag("--Q", args.Q, _prime_power)
        local = local_ring_with_residue_size(args.Q, args.e)
        if args.l is not None and args.l != local.l:
            raise ValueError(
                f"--l {args.l} is not the prime of --Q {args.Q}, which is {local.l}"
            )
    v = rank_distribution(local, args.m)
    pf = rank_distribution_partition_form(
        local.Q, local.e, args.m, local.residue_degree
    )
    if v != pf:
        raise AssertionError("partition form disagrees with the direct sum")
    return (
        {"l": local.l, "p": list(local.p.coeffs), "e": local.e, "m": args.m},
        measure_value_json(v, f"rank mass at --m {args.m}"),
        f"rank mass = {v.rational} * eta({local.Q}) = {v.numeric():.9f}",
    )


def _cmd_moments(args):
    if args.e < 1:
        raise ValueError(f"--e {args.e}: exponent e = {args.e} must be >= 1")
    if args.k < 0:
        raise ValueError(f"--k {args.k}: moment order must be nonnegative")
    _check_flag("--Q", args.Q, _prime_power)
    value = _printable(moment_rank(args.Q, args.e, args.k), f"moment at --k {args.k}")
    return (
        {"Q": args.Q, "e": args.e, "k": args.k},
        {"moment": value},
        f"moment_{args.k} = {value}",
    )


def _parse_conditions(args):
    """The --cond conditions as (polynomial, multiplicity) pairs, and their
    config list, once --l is an odd prime."""
    _check_flag("--l", args.l, _check_modulus)
    conds = []
    for spec in args.cond:
        if ":" not in spec:
            raise ValueError(f"condition {spec!r} must look like 'X-1:0'")
        text, mult = spec.rsplit(":", 1)
        try:
            m = int(mult)
        except ValueError:
            raise ValueError(
                f"--cond {spec!r}: multiplicity {mult!r} is not an integer"
            ) from None
        conds.append((parse_poly_text(text, args.l, args.a, f"--cond {spec!r}"), m))
    return conds, [{"p": list(p.coeffs), "m": m} for p, m in conds]


def _cmd_density(args):
    conds, config = _parse_conditions(args)
    v = divisor_density(args.l, conds)
    hyp = divisor_density_hypothesis(args.l, conds)
    if not hyp:
        print("warning: prod eta(F_i) <= 1/2, uniqueness not guaranteed", file=sys.stderr)
    result = measure_value_json(v, f"density of --cond {' '.join(args.cond)}")
    result["hypothesis_eta_gt_half"] = hyp
    return (
        {"l": args.l, "conditions": config},
        result,
        f"density = {v.rational} * eta = {v.numeric():.6f}",
        {"eta_product_gt_half": hyp},
    )


def _cmd_simulate_cokernel(args):
    ring = parse_ring_json(args.ring)
    _check_flag("--n", args.n, _check_matrix_size)
    if args.exhaustive:
        _check_flag("--n", args.n, partial(_check_exhaustive, ring))
    else:
        _check_flag("--trials", args.trials, _check_trials)
    _check_flag("--workers", args.workers, _check_workers)
    mode = "exhaustive" if args.exhaustive else "random"
    cfg = SampleConfig(ring, args.n, args.trials, args.seed, mode, args.workers)
    with _csv_rows(args.emit_csv, ["type", "empirical", "theoretical"]) as rows:
        t0 = time.monotonic()
        dist = sample_cokernels(cfg)
        tv, deficit, theory = tv_distance(dist)
        runtime_ms = int((time.monotonic() - t0) * 1000)
        counts = [
            {"types": [list(lam.parts) for lam in t.local_types], "count": c,
             "empirical": c / dist.total, "theoretical": theory.get(t, 0.0)}
            for t, c in sorted(dist.counts.items(), key=lambda kv: (-kv[1], str(kv[0])))
        ]
        if rows is not None:
            rows.extend(
                [json.dumps(r["types"]), r["empirical"], r["theoretical"]] for r in counts
            )
    return (
        {"ring": ring_json(ring), "n": args.n, "trials": args.trials, "mode": mode,
         "workers": args.workers},
        {"counts": counts, "total": dist.total, "tv_vs_theory": tv,
         "truncation_deficit": deficit, "runtime_ms": runtime_ms},
        f"{dist.total} samples, TV = {tv:.4f}, deficit = {deficit:.2e}",
    )


def _cmd_simulate_curves(args):
    from .curves import _check_base_field, _check_genus, divisibility_stats

    # the conditions first: they check --l, which --q is checked against
    conds, config = _parse_conditions(args)
    _check_flag("--q", args.q, partial(_check_base_field, args.l))
    _check_flag("--g", args.g, _check_genus)
    if not args.exhaustive:
        _check_flag("--trials", args.trials, _check_trials)
    _check_flag("--workers", args.workers, _check_workers)
    header = ["f", "char_poly", "char_poly_mod_l", "multiplicities"]
    with _csv_rows(args.emit_csv, header) as rows:

        def on_sample(sample, mults):
            mod_l = Poly(args.l, sample.char_poly).coeffs
            rows.append(
                [json.dumps(list(x)) for x in (sample.f, sample.char_poly, mod_l, mults)]
            )

        report = divisibility_stats(
            args.l, conds, args.q, args.g, args.trials, args.seed, workers=args.workers,
            exhaustive=args.exhaustive, on_sample=None if rows is None else on_sample,
        )
    return (
        {"l": args.l, "q": args.q, "g": args.g, "conditions": config,
         "trials": args.trials, "exhaustive": args.exhaustive, "workers": args.workers},
        {
            "trials": report.trials,
            "hits": report.hits,
            "empirical": report.empirical,
            "predicted": measure_value_json(
                report.predicted, f"predicted density of --cond {' '.join(args.cond)}"
            ),
            "std_error": report.std_error,
        },
        f"empirical = {report.empirical:.4f}, predicted = {report.predicted.numeric():.4f} "
        f"(se {report.std_error:.4f})",
        {
            "eta_product_gt_half": report.hypothesis_eta_gt_half,
            "prediction_applies_at_q": report.prediction_applies_at_q,
        },
    )


def _cmd_verify(args):
    checks = run_suite(args.suite, args.seed)
    return (
        {"suite": args.suite},
        {"suite": args.suite, "checks": checks,
         "passed": all(c["passed"] for c in checks)},
        "\n".join(
            f"[{'PASS' if c['passed'] else 'FAIL'}] {c['name']}: {c['detail']}"
            for c in checks
        ),
    )


# kept: rebuilt per call, it made cokernel-large-ring's op_p90 3.4 % worse over 10 pairs
@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built on the first call and shared
    by the later ones: parse_args keeps nothing in it between calls, since
    each call fills a new namespace and no option has a mutable default."""
    # the flags of density and simulate curves, and of both simulate commands
    conditions = argparse.ArgumentParser(add_help=False)
    conditions.add_argument("--l", type=int, required=True)
    conditions.add_argument("--cond", action="append", required=True)
    conditions.add_argument("--a", type=int, default=None)
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--trials", type=int, default=0)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--exhaustive", action="store_true")
    run.add_argument("--workers", type=int, default=1, help=WORKERS_HELP)
    run.add_argument("--emit-csv", dest="emit_csv", default=None)

    parser = argparse.ArgumentParser(prog="cokernel-lab")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eta", help="evaluate eta(Q) with a certified tail")
    p.add_argument("--Q", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=_cmd_eta)

    p = sub.add_parser("measure", help="mass of a module isomorphism class")
    p.add_argument("--ring", required=True)
    p.add_argument("--types", required=True)
    p.set_defaults(func=_cmd_measure)

    p = sub.add_parser("rank-dist", help="mass of an F_l-dimension stratum")
    # with --p, l defaults to 3; with --Q, it is the prime of Q
    p.add_argument("--l", type=int, default=None)
    residue = p.add_mutually_exclusive_group(required=True)
    residue.add_argument("--p", default=None)
    residue.add_argument("--Q", type=int, default=None)
    p.add_argument("--a", type=int, default=None)
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=_cmd_rank_dist)

    p = sub.add_parser("moments", help="moments of Q^rank (submodule counts)")
    p.add_argument("--Q", type=int, required=True)
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser(
        "density", parents=[conditions], help="divisor multiplicity densities"
    )
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("simulate", help="empirical harnesses")
    sim = p.add_subparsers(dest="simulate_what", required=True)

    p = sim.add_parser(
        "cokernel", parents=[run], help="random matrix cokernel sampling"
    )
    p.add_argument("--ring", required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_simulate_cokernel)

    p = sim.add_parser(
        "curves", parents=[conditions, run], help="hyperelliptic divisor statistics"
    )
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--g", type=int, required=True)
    p.set_defaults(func=_cmd_simulate_curves)

    p = sub.add_parser("verify", help="run the oracle check suites")
    p.add_argument("--suite", choices=SUITES, required=True)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as ex:
        return 0 if ex.code == 0 else 1
    # verify reports carry no timestamps, so that they are byte-identical
    started = datetime.now(timezone.utc).isoformat()
    if args.command == "verify":
        started = None
    try:
        config, result, summary, *hypotheses = args.func(args)
        _emit(args, started, config, result, summary, *hypotheses)
    except (ValueError, KeyError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1
    except Exception as ex:  # internal assertion
        print(f"internal error: {ex}", file=sys.stderr)
        return 2
    # only verify reports passed, false when a check fails
    return 0 if result.get("passed", True) else 1


if __name__ == "__main__":
    sys.exit(main())
