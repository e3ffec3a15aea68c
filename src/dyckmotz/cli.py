"""Command line front end.

Subcommands mirror the library layers: enumerate families, map paths
through the bijection, count pattern occurrences, check transport rules,
print distribution and popularity series, run the verification campaign,
and fetch sequence b-files. Global flags may appear before or after the
subcommand. Exit status: 0 success, 1 a check or fetch failed, 2 bad
usage or bad input data, 141 output closed early (as by `| head`).
"""
from __future__ import annotations

import json
import os
import sys

from .bijection import _refusal, phi, phi_inverse
from .enumeration import (enumerate_constrained, enumerate_dyck, enumerate_motzkin,
                          motzkin_numbers)
from .family import TransportSweep, _unchecked, check_transport, family_reductions
from .genfun import (DEFAULT_TRUNCATION, PATTERNS, _ROUTE_FAILURES, _ROUTES, cross_check,
                     popularity_gf)
from .golden import embedded_prefixes
from .oeis import CacheMissError, MalformedBFileError, NetworkUnavailableError, oeis_fetch
from .patterns import count_occurrences, parse_pattern, transport_rule, transport_rules
from .verifier import DEFAULT_MAX_N, render_text, run_full_verification

import argparse  # after the package: compiled on top of argparse's objects, it peaks higher

_FAMILIES = {
    "motzkin": enumerate_motzkin,
    "dyck": enumerate_dyck,
    "constrained": enumerate_constrained,
}


def _global_flags() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    g = p.add_argument_group("global options")
    g.add_argument("--format", choices=("text", "csv", "json"),
                   default=argparse.SUPPRESS, help="output format")
    g.add_argument("--max-n", type=int, metavar="N",
                   default=argparse.SUPPRESS,
                   help="size bound (meaning depends on the subcommand)")
    g.add_argument("--seed-tables", metavar="FILE", default=argparse.SUPPRESS,
                   help="alternate golden reference file for verify")
    g.add_argument("--oeis-cache", metavar="DIR", default=argparse.SUPPRESS,
                   help="b-file cache directory (default $DYCKMOTZ_OEIS_CACHE; "
                        "then oeis-fetch uses ~/.cache/dyckmotz/oeis and "
                        "verify reads no cache)")
    g.add_argument("--offline", action="store_true", default=argparse.SUPPRESS,
                   help="never touch the network; use cache or packaged terms")
    return p


def build_parser() -> argparse.ArgumentParser:
    # every attach point gets its own parent instance: set_defaults below
    # mutates action objects, and sharing one parent would leak the root
    # defaults into the subparsers, clobbering flags given up front
    parser = argparse.ArgumentParser(
        prog="dyckmotz",
        description="height-coupled Dyck paths, their Motzkin bijection, "
                    "and pattern statistics",
        parents=[_global_flags()])
    parser.set_defaults(format="text", max_n=None, seed_tables=None,
                        oeis_cache=None, offline=False)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", parents=[_global_flags()],
                       help="list all paths of one size")
    p.add_argument("--family", choices=sorted(_FAMILIES), default="constrained")
    p.add_argument("--n", type=int, required=True, help="semilength or length")

    p = sub.add_parser("map", parents=[_global_flags()],
                       help="apply the bijection (or its inverse) to paths")
    p.add_argument("--direction", choices=("forward", "inverse"),
                   default="forward")
    p.add_argument("paths", nargs="*",
                   help="path words; reads stdin lines when omitted")

    p = sub.add_parser("count", parents=[_global_flags()],
                       help="count occurrences of a pattern in one path")
    p.add_argument("--pattern", required=True)
    p.add_argument("--path", required=True)

    p = sub.add_parser("check-transport", parents=[_global_flags()],
                       help="test transport rules exhaustively (default n<=10)")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--rule", help="rule name, e.g. UD or ^UU")
    grp.add_argument("--all", action="store_true", dest="all_rules")

    p = sub.add_parser("gf", parents=[_global_flags()],
                       help="distribution series rows n,k,count (default n<=12)")
    p.add_argument("--pattern", required=True, choices=PATTERNS)
    p.add_argument("--method", choices=(*_ROUTES["distribution"][1], "all"),
                   default="closed")

    p = sub.add_parser("popularity", parents=[_global_flags()],
                       help="total occurrences over the family (default n<=12)")
    p.add_argument("--pattern", required=True, choices=PATTERNS)

    sub.add_parser("verify", parents=[_global_flags()],
                   help="run the full verification campaign (default n<=12)")

    p = sub.add_parser("oeis-fetch", parents=[_global_flags()],
                       help="fetch and cache one sequence b-file")
    p.add_argument("oeis_id", metavar="ID", help="sequence id, e.g. A001006")
    p.add_argument("--refresh", action="store_true",
                   help="redownload even if cached")
    return parser


def _cache_dir(args) -> str:
    return (args.oeis_cache
            or os.environ.get("DYCKMOTZ_OEIS_CACHE")
            or os.path.expanduser("~/.cache/dyckmotz/oeis"))


def _emit_rows(args, header, rows):
    # rows: list of tuples, all plain scalars
    if args.format == "json":
        print(json.dumps([dict(zip(header, r)) for r in rows], indent=2))
    elif args.format == "csv":
        print(",".join(header))
        for r in rows:
            print(",".join(str(v) for v in r))
    else:
        for r in rows:
            print(" ".join(str(v) for v in r))


def _cmd_enumerate(args) -> int:
    gen = _FAMILIES[args.family](args.n)
    if args.format == "json":
        print(json.dumps([str(p) for p in gen], indent=2))
    elif args.format == "csv":
        print("index,path")
        for i, p in enumerate(gen):
            print(f"{i},{p}")
    else:
        for p in gen:
            print(p)
    return 0


def _cmd_map(args) -> int:
    words = args.paths or [ln.strip() for ln in sys.stdin if ln.strip()]
    apply = phi if args.direction == "forward" else phi_inverse
    rows = [(w, str(apply(w))) for w in words]
    _emit_rows(args, ("input", "image"),
               rows if args.format != "text" else [(img,) for _, img in rows])
    return 0


def _cmd_count(args) -> int:
    expr = parse_pattern(args.pattern)
    value = count_occurrences(args.path, expr)
    if args.format == "json":
        print(json.dumps({"pattern": args.pattern, "path": args.path,
                          "count": value}))
    else:
        print(value)
    return 0


def _cmd_check_transport(args) -> int:
    max_n = args.max_n if args.max_n is not None else 10
    rules = transport_rules() if args.all_rules else [transport_rule(args.rule)]
    sweep = TransportSweep(rules)
    for n, reduction in family_reductions(range(max_n + 1), sweep):
        if reduction["refused"]:  # a walker defect, not bad input
            print(f"FAIL  family at n={n}: {_refusal(reduction['refused'][0][1])}")
            return 1
        if sweep.done:
            break
    if not args.all_rules and not sweep.results[0]["checked"]:
        check_transport(rules[0], max_n)  # raises: nothing is claimed up to max_n
    failed = False
    for result in sweep.results:
        rule = result["rule"]
        counterexample = result["counterexample"]
        if not result["checked"]:
            print(f"skip  {rule.name:<4} = {rule.motzkin_side.text}  "
                  f"({_unchecked(rule, max_n)})")
        elif counterexample is None:
            print(f"ok    {rule.name:<4} = {rule.motzkin_side.text}  "
                  f"({result['checked']} paths, n={rule.min_n}..{max_n})")
        else:
            failed = True
            print(f"FAIL  {rule.name:<4} at {counterexample['path']} -> "
                  f"{counterexample['image']}: "
                  f"{counterexample['lhs']} != {counterexample['rhs']}")
    return 1 if failed else 0


# a brute-force walk over more family members than this is announced first
_LONG_WALK = 10 ** 7


def _cmd_gf(args) -> int:
    max_n = args.max_n if args.max_n is not None else DEFAULT_TRUNCATION // 2
    if args.method in ("brute", "all"):
        members = sum(motzkin_numbers(max_n))  # the family has M_n members at n
        if members > _LONG_WALK:
            print(f"dyckmotz: the brute-force route walks {members} family members "
                  f"(n = 0..{max_n})", file=sys.stderr)
    if args.method == "all":
        routes, agree, errors = cross_check("distribution", args.pattern, max_n)
        if errors:
            raise next(iter(errors.values()))
        if not all(agree.values()):
            print(f"routes disagree for {args.pattern}", file=sys.stderr)
            return 1
        result = routes["closed"]
        if args.format == "text":  # csv and json carry the rows alone
            print(f"# routes agree: {', '.join(routes)}")
    else:
        result = _ROUTES["distribution"][1][args.method][0](args.pattern, max_n)
    if args.format == "text":
        print(result.dump())
    else:
        rows = [(n, k, c)
                for n in range(max_n + 1)
                for k, c in enumerate(result.y_poly(n))]
        _emit_rows(args, ("n", "k", "count"), rows)
    return 0


def _cmd_popularity(args) -> int:
    max_n = args.max_n if args.max_n is not None else DEFAULT_TRUNCATION // 2
    series = popularity_gf(args.pattern, max_n)
    values = [(n, series.coefficient(n)) for n in range(1, max_n + 1)]
    if args.format == "text":
        print(", ".join(str(v) for _, v in values))
    else:
        _emit_rows(args, ("n", "value"), values)
    return 0


def _cmd_verify(args) -> int:
    max_n = args.max_n if args.max_n is not None else DEFAULT_MAX_N
    cache = args.oeis_cache or os.environ.get("DYCKMOTZ_OEIS_CACHE")
    report = run_full_verification(max_n=max_n, seed_tables=args.seed_tables,
                                   oeis_cache_dir=cache)
    if args.format == "json":
        print(json.dumps(report, indent=2))
    else:
        print(render_text(report))
    return 0 if report["ok"] else 1


def _cmd_oeis_fetch(args) -> int:
    embedded = embedded_prefixes() if args.offline else None
    offset, terms = oeis_fetch(args.oeis_id, cache_dir=_cache_dir(args),
                               offline=args.offline, refresh=args.refresh,
                               embedded=embedded)
    rows = [(offset + i, t) for i, t in enumerate(terms)]
    _emit_rows(args, ("n", "value"), rows)
    return 0


_COMMANDS = {
    "enumerate": _cmd_enumerate,
    "map": _cmd_map,
    "count": _cmd_count,
    "check-transport": _cmd_check_transport,
    "gf": _cmd_gf,
    "popularity": _cmd_popularity,
    "verify": _cmd_verify,
    "oeis-fetch": _cmd_oeis_fetch,
}

# the subcommands that cannot write every --format value
_FORMATS = {"check-transport": ("text",), "count": ("text", "json"),
            "verify": ("text", "json")}

# OSError: an input file that cannot be read (fetch failures are caught first)
_INPUT_ERRORS = (KeyError, ValueError, OSError)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.max_n is not None and args.max_n < 0:
        print(f"dyckmotz: --max-n must be nonnegative, not {args.max_n}",
              file=sys.stderr)
        return 2
    formats = _FORMATS.get(args.command)
    if formats and args.format not in formats:
        print(f"dyckmotz: {args.command} writes --format {' or '.join(formats)}, "
              f"not {args.format}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        # reader gone (`| head`): devnull takes the flush at exit; 128 + SIGPIPE
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (NetworkUnavailableError, MalformedBFileError, CacheMissError,
            *_ROUTE_FAILURES) as exc:
        print(f"dyckmotz: {exc}", file=sys.stderr)
        return 1
    except _INPUT_ERRORS as exc:
        # str() of a KeyError is the repr of its message, quotes and all
        message = exc.args[0] if isinstance(exc, KeyError) else exc
        print(f"dyckmotz: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
