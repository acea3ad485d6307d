"""Batch front end: check object files, convert between presentations,
apply fluctuations, and run the lattice convergence lab.

Exit codes: 0 when every check passes, 1 when a check fails (the report
is still emitted), 2 on parse or shape errors and on input files that
cannot be read or decoded or output paths that cannot be written.
Reports are byte-stable across runs on identical inputs.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from typing import Optional

from .errors import AxiomRefusalError, InputError, NcgError, ShapeError
from .geometry import (categorify, check_bundle_document,
                       fell_triple_from_category, fluctuate,
                       fluctuation_terms_from_json,
                       spectral_category_from_json)
from .climit import convergence_report, parse_profile
from .matops import DEFAULT_TOL, Tolerance, write_json
from .report import AxiomCheck, AxiomReport
from .sptriple import (FiniteSpectralTriple, check_triple, triple_from_json,
                       triple_to_json)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=None,
                        help="override the relative tolerance")
    common.add_argument("--format", choices=("text", "json"), default="text",
                        help="report format (default: text)")

    parser = argparse.ArgumentParser(
        prog="ncg",
        description="Finite noncommutative geometry toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", parents=[common],
                           help="run an axiom battery on an object file")
    check.add_argument("kind", choices=("triple", "bundle"))
    check.add_argument("path")

    cat = sub.add_parser("categorify", parents=[common],
                         help="triple file -> spectral category file")
    cat.add_argument("path")
    cat.add_argument("-o", "--output", required=True)

    tofell = sub.add_parser("to-fell", parents=[common],
                            help="spectral category file -> bundle triple file")
    tofell.add_argument("path")
    tofell.add_argument("-o", "--output", required=True)

    fluct = sub.add_parser("fluctuate", parents=[common],
                           help="apply a fluctuation sum to a triple's D")
    fluct.add_argument("path")
    fluct.add_argument("--terms", required=True)
    fluct.add_argument("-o", "--output", required=True)

    limit = sub.add_parser("limit", parents=[common],
                           help="lattice convergence report")
    limit.add_argument("--ns", required=True,
                       help="comma-separated lattice sizes, e.g. 64,128,256")
    limit.add_argument("--profile", required=True,
                       help="test profile, e.g. sine:1")
    limit.add_argument("--theta", default=None,
                       help="optional real phase profile, e.g. sine:1")
    return parser


# Built once per process: setting argparse up costs more than a parse.
_PARSER = _build_parser()


def _load_json(path: str):
    """Decode a file with the cyclic garbage collector paused: ``json``
    builds a nested list per matrix row and entry, which holds no cycle
    yet sets off generation-2 collections as it grows."""
    paused = gc.isenabled()
    gc.disable()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError(f"{path}: no such file")
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: byte {exc.start} is not UTF-8")
    except RecursionError:
        raise InputError(f"{path}: arrays or objects nested too deeply")
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}")
    except ValueError:  # an integer literal past the digit limit
        raise InputError(f"{path}: an integer has too many digits")
    finally:
        if paused:
            gc.enable()


def _dump_json(path: str, obj) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            write_json(obj, fh.write)
            fh.write("\n")
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror}")


def _print_json(obj) -> None:
    parts = []
    write_json(obj, parts.append)
    print("".join(parts))


def _format_row(c: AxiomCheck) -> str:
    status = "info" if c.advisory else ("pass" if c.passed else "FAIL")
    line = f"  {status:<4}  {c.axiom_id:<38}  residual {c.residual:.3e}"
    return line + f"  [{c.witness}]" if c.witness else line


def _print_report(title: str, report: AxiomReport, fmt: str) -> None:
    if fmt == "json":
        _print_json({"command": title, **report.to_json()})
        return
    print(title)
    for c in report.checks:
        print(_format_row(c))
    print(f"result: {'PASS' if report.all_passed else 'FAIL'}")


def _cmd_check(args, tol: Tolerance) -> int:
    data = _load_json(args.path)
    if args.kind == "triple":
        report = check_triple(triple_from_json(data), tol)
        title = f"check triple {args.path}"
    else:
        report = check_bundle_document(data, tol)
        title = f"check bundle {args.path}"
    _print_report(title, report, args.format)
    return 0 if report.all_passed else 1


def _cmd_categorify(args, tol: Tolerance) -> int:
    triple = triple_from_json(_load_json(args.path))
    sc = categorify(triple, tol)
    _dump_json(args.output, sc.to_json())
    print(f"wrote spectral category to {args.output}")
    return 0


def _cmd_to_fell(args, tol: Tolerance) -> int:
    sc = spectral_category_from_json(_load_json(args.path), tol)
    _dump_json(args.output, fell_triple_from_category(sc))
    print(f"wrote bundle triple to {args.output}")
    return 0


def _cmd_fluctuate(args, tol: Tolerance) -> int:
    triple = triple_from_json(_load_json(args.path))
    terms = fluctuation_terms_from_json(_load_json(args.terms))
    fluctuated = fluctuate(triple.D, terms, tol)
    out = FiniteSpectralTriple(triple.blocks, fluctuated, triple.gamma,
                               triple.epsilon, triple.K)
    _dump_json(args.output, triple_to_json(out))
    print(f"wrote fluctuated triple to {args.output}")
    return 0


def _cmd_limit(args, tol: Tolerance) -> int:
    try:
        ns = [int(x) for x in args.ns.split(",") if x]
    except ValueError:
        raise InputError(f"--ns {args.ns!r} is not a comma-separated "
                         f"list of integers")
    profile = parse_profile(args.profile)
    theta = parse_profile(args.theta) if args.theta else None
    report = convergence_report(profile, ns, theta)
    if args.format == "json":
        _print_json(report.to_json())
        return 0
    header = f"{'n':>6}  {'flat_error':>13}  {'fluct_error':>13}  {'order':>8}"
    print(f"limit profile={report.profile.label()} "
          f"theta={report.theta.label() if report.theta else '-'}")
    print(header)
    for point in report.points:
        fluct = (f"{point.fluct_error:13.6e}" if point.fluct_error is not None
                 else " " * 13)
        order = f"{point.order:8.3f}" if point.order is not None else " " * 8
        print(f"{point.n:>6}  {point.flat_error:13.6e}  {fluct}  {order}")
    return 0


_COMMANDS = {
    "check": _cmd_check,
    "categorify": _cmd_categorify,
    "to-fell": _cmd_to_fell,
    "fluctuate": _cmd_fluctuate,
    "limit": _cmd_limit,
}


def run(argv: Optional[list[str]] = None) -> int:
    """Parse arguments, dispatch, and return the exit code."""
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        tol = DEFAULT_TOL if args.tol is None else Tolerance(rel=args.tol)
        return _COMMANDS[args.command](args, tol)
    except AxiomRefusalError as exc:
        print(f"check failed: {exc}")
        for c in exc.report.checks:
            if not c.advisory and not c.passed:
                print(_format_row(c))
        return 1
    except (InputError, ShapeError, NcgError) as exc:
        print(f"input error: {exc}")
        return 2


def main() -> None:
    # Witnesses carry ‖, ⊕ and ⊗: a stdout that cannot encode a character
    # escapes it, so that the exit code still reports the checks.
    sys.stdout.reconfigure(errors="backslashreplace")
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
