"""Command line front end.

Exit codes: 0 success, 1 domain error (invalid model, non-nef class, ...)
or a standard output closed early, 2 usage error, 3 oracle cross-check
mismatch. All handlers resolve the computational entry points through
their modules at call time, so a test harness can swap implementations in
and out; bounds.analysis_of keeps analyses across commands, so a swap
reaches them only once bounds._analyses is cleared.

A handler returns the values it computed, and run_subcommand hands them
as they are to a writer, which converts each value as it reaches it
(reporting.to_payload). A value that can only be known while the output is
written, such as the count of streamed obstruction entries, enters the
result as a reporting.Later, which makes the value when the writer reaches
it.

run_subcommand reads a plain line from a table built from OPTION_GROUPS and
COMMANDS: exact option names, flags without a value, each value as the next
token unless it starts with "-", or after the "=" of --long=value unless it
is "--". Other lines, and all help and error text, go to argparse.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import bounds, cycles, zariski
from .errors import CalculatorError, OracleMismatch
from .reporting import EntriesNode, Later, dump_json, render_text, to_payload
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


def _option(*flags, **keywords):
    """The arguments of one parser.add_argument call."""
    return flags, keywords


# Each subcommand takes the options of the groups COMMANDS lists for it.
OPTION_GROUPS = {
    "surface": (
        _option("--surface", required=True, metavar="FILE_OR_NAME",
                help="surface model: a JSON file path or a bundled fixture name"),
        _option("--json", action="store_true", help="JSON output instead of plain text"),
    ),
    "divisor": (
        _option("--divisor", required=True, metavar="EXPR",
                help="divisor class: coordinates like 2,1 or an expression like s+2*f"),
    ),
    "twist": (
        _option("-T", "--twist", default="0", metavar="EXPR",
                help="fixed summand T of the system n*A + T (default 0)"),
    ),
    "level": (
        _option("-k", "--cluster", type=_int_at_least(0), default=0, metavar="K",
                help="separation level k >= 0: the system should be (k-1)-very ample "
                "(default 0)"),
    ),
    "multiple": (
        _option("-n", "--multiple", type=_int_at_least(1), default=None, metavar="N",
                help="concrete multiple n >= 1 to evaluate (optional)"),
    ),
    "asserts": (
        _option("--assert-no-fixed-part", action="store_true",
                help="caller asserts the system of the class itself has no fixed part"),
        _option("--assert-base-point-free", action="store_true",
                help="caller asserts the system of the class itself is base point free"),
    ),
    "oracle": (
        _option("--oracle", action="store_true",
                help="cross-check the result against an independent brute-force method"),
    ),
    "curves": (
        _option("--curves", required=True, metavar="NAMES",
                help="comma-separated curve names forming the component"),
    ),
}


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
    # one parser per group, whose options each subcommand of the group copies
    parents = {group: argparse.ArgumentParser(add_help=False) for group in OPTION_GROUPS}
    for group, options in OPTION_GROUPS.items():
        for flags, keywords in options:
            parents[group].add_argument(*flags, **keywords)
    for name, groups, text, handler in COMMANDS:
        p = sub.add_parser(name, parents=[parents[group] for group in groups], help=text)
        p.set_defaults(handler=handler, parser=p)
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
        # Z is a solution, so the least solution lies in {1..max(Z)}^r; the
        # route has checked the component, so the oracle does not again
        ref = cycles.cycle_bruteforce_oracle(model, cycle.component, box=max(cycle.coefficients),
                                             gram=model.curve_gram(cycle.component))
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


def _read_system(args):
    """The model of --surface, and the classes of --divisor and --twist on
    it; the twist is 0 for a subcommand without --twist."""
    model = load_surface(args.surface)
    a = parse_divisor(model, args.divisor)
    twist = getattr(args, "twist", None)
    t = model.zero_divisor() if twist is None else parse_divisor(model, twist)
    return model, a, t


def _analysis(args) -> bounds.Analysis:
    """The analysis of --divisor and --twist on --surface, from the cache."""
    return bounds.analysis_of(*_read_system(args))


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
    result = {**to_payload(obs), "entries": to_payload(obs.entries)}
    if args.oracle:
        # the search runs once: the writer streams the rows checked here
        rows = list(obs.entries.rows())
        boxed = bounds.obstruction_oracle(analysis, args.cluster)
        if len(rows) != len(boxed):
            raise OracleMismatch(
                f"search found {len(rows)} obstructions, box found {len(boxed)}"
            )
        for (coeffs, coords, value), (ref_coeffs, ref_coords, ref_value) in zip(rows, boxed):
            if (coeffs, value) != (ref_coeffs, ref_value):
                raise OracleMismatch(
                    f"search found {coeffs} with value {value}, "
                    f"box found {ref_coeffs} with value {ref_value}"
                )
            if coords != ref_coords:
                raise OracleMismatch(
                    f"search found {coeffs} with divisor {coords}, "
                    f"box found {ref_coeffs} with divisor {ref_coords}"
                )
        result["entries"] = EntriesNode(rows.__iter__)
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
    correction = {**to_payload(corr), "support_names": _curve_names(model, corr.support)}
    separating = to_payload(sep)
    separating["pieces"] = [
        {**to_payload(piece), "component_names": _curve_names(model, piece.component)}
        for piece in sep.pieces
    ]
    return {**_system(analysis), "correction": correction, "separating": separating}


def _cmd_bounds(args) -> dict:
    analysis = _analysis(args)
    t = analysis.t
    k = args.cluster
    threshold = analysis.threshold_at(t)
    result = {
        **_system(analysis),
        "k": k,
        "threshold": threshold,
        "level": analysis.level_at(t),
        "threshold_plus_k": k + threshold,
        "canonical_threshold": 1 / analysis.a2,
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
    model, d, t = _read_system(args)
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
        bounds.analysis_of(model, dec.positive, t),
        k=args.cluster,
        n=args.multiple,
        no_fixed_part=args.assert_no_fixed_part,
        base_point_free=args.assert_base_point_free,
    )
    return result


# (name, option groups, help, handler) of each subcommand. The help texts
# list the subcommands, and each one's options, in the order given here.
COMMANDS = (
    ("validate", ("surface",), "check a surface model file", _cmd_validate),
    ("zariski", ("surface", "divisor", "oracle"),
     "decompose a divisor into nef and negative parts", _cmd_zariski),
    ("fundcycle", ("surface", "oracle", "curves"),
     "fundamental cycle of a connected negative-definite curve set", _cmd_fundcycle),
    ("exceptional", ("surface", "divisor"),
     "curves orthogonal to a nef and big class, by component", _cmd_exceptional),
    ("tau", ("surface", "divisor", "twist"),
     "minimal obstruction value over the orthogonal curves", _cmd_tau),
    ("obstructions", ("surface", "divisor", "twist", "level", "oracle"),
     "enumerate obstruction divisors up to a level", _cmd_obstructions),
    ("ek", ("surface", "divisor", "twist", "level"),
     "determinant-scaled correction divisor and the separating divisor", _cmd_ek),
    ("bounds", ("surface", "divisor", "twist", "level", "multiple"),
     "vanishing threshold, obstruction quadratic, degree caps", _cmd_bounds),
    ("thresholds", ("surface", "divisor", "twist", "level", "multiple", "asserts"),
     "table of effective statements with exact n-thresholds", _cmd_thresholds),
    ("compare-matsusaka", ("surface", "divisor"),
     "compare against the classical general-surface bounds", _cmd_compare),
    ("report", ("surface", "divisor", "twist", "level", "multiple", "asserts"),
     "decompose, then run the full bound analysis on the nef part", _cmd_report),
)


# -- driver ------------------------------------------------------------------


@functools.cache
def _option_table() -> dict:
    """Per subcommand: the Namespace attributes of the options it need not be
    given, (dest, type) per option string (None for a flag), and all dests."""
    table = {}
    for name, groups, _, handler in COMMANDS:
        values, options = {"command": name, "handler": handler}, {}
        for flags, keywords in (option for group in groups for option in OPTION_GROUPS[group]):
            kind = None if "action" in keywords else keywords.get("type", str)
            dest = next((f for f in flags if f[:2] == "--"), flags[0]).lstrip("-").replace("-", "_")
            options.update(dict.fromkeys(flags, (dest, kind)))
            if not keywords.get("required"):
                values[dest] = keywords.get("default", False if kind is None else None)
        table[name] = values, options, {"command", "handler", *(d for d, _ in options.values())}
    return table


def _read_plain(argv) -> argparse.Namespace | None:
    """The Namespace, less its parser, that argparse makes of a line in the
    table's spellings, or None for argparse to read the line."""
    if not argv or argv[0] not in _option_table():
        return None
    values, options, dests = _option_table()[argv[0]]
    values, tokens = dict(values), iter(argv[1:])
    for token in tokens:
        if token in options:
            dest, kind = options[token]
            if kind and (value := next(tokens, "-")).startswith("-"):
                return None
        else:
            name, _, value = token.partition("=")
            dest, kind = options.get(name, (None, None))
            if not (kind and name[:2] == "--" and value != "--"):
                return None
        try:
            values[dest] = kind(value) if kind else True
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
    return argparse.Namespace(**values) if values.keys() == dests else None


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process, and only for a line that the
    table leaves to it: a plain one-shot command never builds it."""
    return build_parser()


def run_subcommand(argv) -> int:
    args = _read_plain(argv)
    try:
        if args is None:
            args = _parser().parse_args(argv)
            # argparse turns --name=-- into [], whatever the option's type,
            # and the dest of every option that takes a value is its long name
            for name, value in vars(args).items():
                if value == []:
                    args.parser.error(f"argument --{name}: expected one argument")
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        # Converting the result, and making the obstruction entries, as the
        # writer writes them can fail too, so all of it runs inside the
        # handler's error boundary.
        write = dump_json if args.json else render_text
        write(args.handler(args), sys.stdout)
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
