"""Command line front end.

Exit codes: 0 success, 1 domain error (invalid model, non-nef class, ...)
or a standard output closed early, 2 usage error, 3 oracle cross-check
mismatch. All handlers resolve the computational entry points through
their modules at call time, so a test harness can swap implementations in
and out.

A handler returns the values it computed, and run_subcommand makes the
payload of them with one reporting.to_payload call. A value that can only
be known while the payload is written, such as the count of streamed
obstruction entries, enters it as a reporting.Later, which makes the
payload value when the writer reaches it.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import bounds, cycles, zariski
from .errors import CalculatorError, OracleMismatch
from .reporting import Later, dump_json, render_text, to_payload
from .surface_io import fixture_names, load_surface, parse_curve_list, parse_divisor


def _int_at_least(least: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="surfbound",
        description=(
            "Exact thresholds for multiple linear systems n*A + T on a "
            "surface given by its intersection lattice and curve list."
        ),
        epilog=f"bundled surfaces: {', '.join(fixture_names())}",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True

    surface = argparse.ArgumentParser(add_help=False)
    surface.add_argument(
        "--surface",
        required=True,
        metavar="FILE_OR_NAME",
        help="surface model: a JSON file path or a bundled fixture name",
    )
    surface.add_argument("--json", action="store_true", help="JSON output instead of plain text")

    divisor = argparse.ArgumentParser(add_help=False)
    divisor.add_argument(
        "--divisor",
        required=True,
        metavar="EXPR",
        help="divisor class: coordinates like 2,1 or an expression like s+2*f",
    )

    twist = argparse.ArgumentParser(add_help=False)
    twist.add_argument(
        "-T",
        "--twist",
        default="0",
        metavar="EXPR",
        help="fixed summand T of the system n*A + T (default 0)",
    )

    level = argparse.ArgumentParser(add_help=False)
    level.add_argument(
        "-k",
        "--cluster",
        type=_int_at_least(0),
        default=0,
        metavar="K",
        help="separation level k >= 0: the system should be (k-1)-very ample (default 0)",
    )

    multiple = argparse.ArgumentParser(add_help=False)
    multiple.add_argument(
        "-n",
        "--multiple",
        type=_int_at_least(1),
        default=None,
        metavar="N",
        help="concrete multiple n >= 1 to evaluate (optional)",
    )

    asserts = argparse.ArgumentParser(add_help=False)
    asserts.add_argument(
        "--assert-no-fixed-part",
        action="store_true",
        help="caller asserts the system of the class itself has no fixed part",
    )
    asserts.add_argument(
        "--assert-base-point-free",
        action="store_true",
        help="caller asserts the system of the class itself is base point free",
    )

    oracle = argparse.ArgumentParser(add_help=False)
    oracle.add_argument(
        "--oracle",
        action="store_true",
        help="cross-check the result against an independent brute-force method",
    )

    p = sub.add_parser(
        "validate", parents=[surface], help="check a surface model file"
    )
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser(
        "zariski",
        parents=[surface, divisor, oracle],
        help="decompose a divisor into nef and negative parts",
    )
    p.set_defaults(handler=_cmd_zariski)

    p = sub.add_parser(
        "fundcycle",
        parents=[surface, oracle],
        help="fundamental cycle of a connected negative-definite curve set",
    )
    p.add_argument(
        "--curves",
        required=True,
        metavar="NAMES",
        help="comma-separated curve names forming the component",
    )
    p.set_defaults(handler=_cmd_fundcycle)

    p = sub.add_parser(
        "exceptional",
        parents=[surface, divisor],
        help="curves orthogonal to a nef and big class, by component",
    )
    p.set_defaults(handler=_cmd_exceptional)

    p = sub.add_parser(
        "tau",
        parents=[surface, divisor, twist],
        help="minimal obstruction value over the orthogonal curves",
    )
    p.set_defaults(handler=_cmd_tau)

    p = sub.add_parser(
        "obstructions",
        parents=[surface, divisor, twist, level, oracle],
        help="enumerate obstruction divisors up to a level",
    )
    p.set_defaults(handler=_cmd_obstructions)

    p = sub.add_parser(
        "ek",
        parents=[surface, divisor, twist, level],
        help="determinant-scaled correction divisor and the separating divisor",
    )
    p.set_defaults(handler=_cmd_ek)

    p = sub.add_parser(
        "bounds",
        parents=[surface, divisor, twist, level, multiple],
        help="vanishing threshold, obstruction quadratic, degree caps",
    )
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser(
        "thresholds",
        parents=[surface, divisor, twist, level, multiple, asserts],
        help="table of effective statements with exact n-thresholds",
    )
    p.set_defaults(handler=_cmd_thresholds)

    p = sub.add_parser(
        "compare-matsusaka",
        parents=[surface, divisor],
        help="compare against the classical general-surface bounds",
    )
    p.set_defaults(handler=_cmd_compare)

    p = sub.add_parser(
        "report",
        parents=[surface, divisor, twist, level, multiple, asserts],
        help="decompose, then run the full bound analysis on the nef part",
    )
    p.set_defaults(handler=_cmd_report)

    return parser


# -- handlers ---------------------------------------------------------------


def _curve_names(model, indices) -> list[str]:
    return [model.curves[i].name for i in indices]


def _cmd_validate(args) -> dict:
    model = load_surface(args.surface)
    result = {
        "surface": model.name,
        "valid": True,
        "rank": model.rank,
        # loading proved the signature is (1, rank - 1, 0)
        "signature": {"positive": 1, "negative": model.rank - 1, "zero": 0},
        "canonical_self_intersection": model.self_intersection(model.canonical_class),
        "curves": [
            {
                "name": c.name,
                "coords": c.coords,
                "self_intersection": model.self_intersection(model.curve_divisor(i)),
                "genus": model.arithmetic_genus(model.curve_divisor(i)),
            }
            for i, c in enumerate(model.curves)
        ],
    }
    if model.ample_reference is not None:
        result["ample_reference"] = model.divisor(model.ample_reference)
    return result


def _cmd_zariski(args) -> dict:
    model = load_surface(args.surface)
    d = parse_divisor(model, args.divisor)
    dec = zariski.zariski_decompose(model, d)
    if args.oracle:
        ref = zariski.zariski_oracle(model, d)
        if ref.positive != dec.positive or ref.negative != dec.negative:
            raise OracleMismatch(
                f"support-growth gave positive part {dec.positive.coords}, "
                f"the linear program gave {ref.positive.coords}"
            )
    correction = zariski.h1_correction(model, dec)
    names = _curve_names(model, dec.support)
    return {
        "surface": model.name,
        "input": d,
        "positive": dec.positive,
        "negative": dec.negative,
        "support": names,
        "coefficients": dict(zip(names, dec.coefficients)),
        "positive_self_intersection": model.self_intersection(dec.positive),
        "kappa_is_two": zariski.kappa_is_two(model, dec),
        "h1_correction": {"c2": correction.c2, "c1": correction.c1, "c0_at_1": correction.c0(1)},
        "oracle_checked": bool(args.oracle),
    }


def _cmd_fundcycle(args) -> dict:
    model = load_surface(args.surface)
    component = parse_curve_list(model, args.curves)
    cycle = cycles.fundamental_cycle(model, component)
    if args.oracle:
        # Z is a solution, so the least solution lies in {1..max(Z)}^r
        ref = cycles.cycle_bruteforce_oracle(model, component, box=max(cycle.coefficients))
        if ref.coefficients != cycle.coefficients:
            raise OracleMismatch(
                f"stepwise construction gave {cycle.coefficients}, "
                f"the box search gave {ref.coefficients}"
            )
    names = _curve_names(model, cycle.component)
    return {
        "surface": model.name,
        "component": names,
        "coefficients": dict(zip(names, cycle.coefficients)),
        "divisor": cycle.divisor,
        "multiplicity": cycle.multiplicity,
        "genus": cycle.genus,
        "rational": cycle.genus == 0,
        "oracle_checked": bool(args.oracle),
    }


def _analysis(args) -> bounds.Analysis:
    """The analysis of --divisor and --twist on --surface; the twist is 0
    for a subcommand without --twist."""
    model = load_surface(args.surface)
    a = parse_divisor(model, args.divisor)
    twist = getattr(args, "twist", None)
    t = model.zero_divisor() if twist is None else parse_divisor(model, twist)
    return bounds.Analysis(model, a, t)


def _system(analysis: bounds.Analysis) -> dict:
    """Surface, class and twist: the head of every result about n*A + T."""
    return {"surface": analysis.model.name, "class": analysis.a, "twist": analysis.t}


def _cmd_exceptional(args) -> dict:
    analysis = _analysis(args)
    model = analysis.model
    components = []
    for comp in analysis.components:
        cycle = analysis.cycle(comp)
        components.append({
            "curves": _curve_names(model, comp),
            "rational": cycle.genus == 0,
            "multiplicity": cycle.multiplicity,
            "genus": cycle.genus,
        })
    return {
        "surface": model.name,
        "class": analysis.a,
        "self_intersection": analysis.a2,
        "orthogonal_curves": _curve_names(model, analysis.support),
        "components": components,
        "all_rational": all(c["rational"] for c in components),
    }


def _cmd_tau(args) -> dict:
    analysis = _analysis(args)
    value = analysis.obstruction_minimum
    return {
        **_system(analysis),
        "tau": value,
        "finite": value is not bounds.INFINITY,
        "orthogonal_curves": _curve_names(analysis.model, analysis.support),
    }


def _cmd_obstructions(args) -> dict:
    analysis = _analysis(args)
    obs = analysis.enumerate_obstructions(args.cluster)
    if args.oracle:
        ref = bounds.obstruction_oracle(analysis, args.cluster)
        found = [(e.coefficients, e.value) for e in obs.entries]
        boxed = [(e.coefficients, e.value) for e in ref.entries]
        if len(found) != len(boxed):
            raise OracleMismatch(
                f"search found {len(found)} obstructions, box found {len(boxed)}"
            )
        for (coeffs, value), (ref_coeffs, ref_value) in zip(found, boxed):
            if (coeffs, value) != (ref_coeffs, ref_value):
                raise OracleMismatch(
                    f"search found {coeffs} with value {value}, "
                    f"box found {ref_coeffs} with value {ref_value}"
                )
    result = to_payload(obs)
    entries = result["entries"]  # streamed by the writer, which counts them
    result["support_names"] = _curve_names(analysis.model, obs.support)
    result["count"] = Later(lambda: entries.count)
    result["witness_minimum"] = Later(entries.witness_minimum)
    result["oracle_checked"] = bool(args.oracle)
    return {**_system(analysis), "obstructions": result}


def _cmd_ek(args) -> dict:
    analysis = _analysis(args)
    model = analysis.model
    corr = analysis.correction_divisor(args.cluster)
    sep = analysis.separating_divisor
    correction = to_payload(corr)
    correction["support_names"] = _curve_names(model, corr.support)
    separating = to_payload(sep)
    for piece, raw in zip(sep.pieces, separating["pieces"]):
        raw["component_names"] = _curve_names(model, piece.component)
    return {**_system(analysis), "correction": correction, "separating": separating}


def _cmd_bounds(args) -> dict:
    analysis = _analysis(args)
    model, t = analysis.model, analysis.t
    k = args.cluster
    threshold = analysis.threshold_at(t)
    result = {
        **_system(analysis),
        "k": k,
        "threshold": threshold,
        "level": analysis.level_at(t),
        "threshold_plus_k": k + threshold,
        "canonical_threshold": analysis.threshold_at(model.canonical_class),
        "hodge": analysis.hodge,
        "tau": analysis.obstruction_minimum,
        "conditions": analysis.condition_check(k),
        "degree_caps": {str(x): analysis.degree_cap(k, x) for x in (1, 2, 3)},
    }
    if args.multiple is not None:
        result["n"] = args.multiple
        result["quadratic"] = analysis.quadratic(args.multiple, k)
        result["check"] = bounds.threshold_holds(analysis, args.multiple, k)
    return result


def _cmd_thresholds(args) -> dict:
    analysis = _analysis(args)
    table = bounds.theorem_thresholds(
        analysis,
        k=args.cluster,
        n=args.multiple,
        no_fixed_part=args.assert_no_fixed_part,
        base_point_free=args.assert_base_point_free,
    )
    return {**_system(analysis), "k": args.cluster, "thresholds": table}


def _cmd_compare(args) -> dict:
    analysis = _analysis(args)
    cmp = bounds.matsusaka_compare(analysis)
    return {
        "surface": analysis.model.name,
        "class": analysis.a,
        "k_plus_4h": {"bound": cmp.bound_k_plus_4h, "least_n": cmp.least_n_k_plus_4h},
        "k_plus_2h": {"bound": cmp.bound_k_plus_2h, "least_n": cmp.least_n_k_plus_2h},
        "here": {"bound": cmp.bound_here, "least_n": cmp.least_n_here},
    }


def _cmd_report(args) -> dict:
    model = load_surface(args.surface)
    d = parse_divisor(model, args.divisor)
    t = parse_divisor(model, args.twist)
    dec = zariski.zariski_decompose(model, d)
    result = {
        "surface": model.name,
        "input": d,
        "positive": dec.positive,
        "negative": dec.negative,
        "kappa_is_two": zariski.kappa_is_two(model, dec),
    }
    if not result["kappa_is_two"]:
        result["note"] = (
            "the nef part has vanishing self-intersection, so the growth of "
            "the system is below the range these thresholds describe"
        )
        return result
    result["report"] = bounds.build_bound_report(
        bounds.Analysis(model, dec.positive, t),
        k=args.cluster,
        n=args.multiple,
        no_fixed_part=args.assert_no_fixed_part,
        base_point_free=args.assert_base_point_free,
    )
    return result


# -- driver ------------------------------------------------------------------


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: in-process callers (tests, the
    benchmark, embedding) then pay for it once, not once per command."""
    return build_parser()


def run_subcommand(argv) -> int:
    try:
        args = _parser().parse_args(argv)
        # argparse turns --divisor=-- into [], whatever the option's type
        for name in ("surface", "divisor", "twist", "curves"):
            if getattr(args, name, "") == []:
                _parser().error(f"argument --{name}: expected one argument")
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        # Making the payload, and the obstruction entries the writers make
        # as they write them, can fail too, so all of it runs inside the
        # handler's error boundary.
        payload = to_payload(args.handler(args))
        if args.json:
            dump_json(payload, sys.stdout)
        else:
            render_text(payload, sys.stdout)
    except OracleMismatch as exc:
        print(f"oracle mismatch: {exc}", file=sys.stderr)
        return 3
    except CalculatorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    try:
        code = run_subcommand(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout. Python flushes it again at exit, so
        # point it at devnull to end without a second error and traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
