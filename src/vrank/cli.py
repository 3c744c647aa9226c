"""Batch command-line surface.

Verbs: enumerate, bijection, orbits, verify, series, selftest.  Exit codes:
0 success, 1 verification failure, 2 usage or parse error.
"""

import argparse
import json
import sys

from . import bijections, orbits, series
from .families import (
    A,
    DEFAULT_CEILING,
    ElementParseError,
    EnumerationLimitError,
    Family,
    PD,
    POD2,
    OP2,
    UnknownFamilyError,
    count_family,
    enumerate_family,
    family_by_name,
    format_element,
    parse_element,
)
from .partition import InvalidPartitionError
from .selftest import run_selftest

BIJECTION_FAMILIES = {"pd": PD, "a": A, "pod2": POD2}
VERIFY_FAMILIES = {"pd": PD, "a": A, "pod2": POD2, "op2": OP2}


class CliError(Exception):
    """Usage-level error: bad family, bad element text, ceiling exceeded."""


def _resolve_family(name: str) -> Family:
    try:
        return family_by_name(name)
    except UnknownFamilyError as e:
        raise CliError(str(e)) from e


def _nonnegative(option: str, value: int) -> int:
    if value < 0:
        raise CliError(f"{option} must be >= 0, got {value}")
    return value


def cmd_enumerate(args) -> int:
    f = _resolve_family(args.family)
    elems = enumerate_family(f, _nonnegative("--n", args.n), ceiling=args.ceiling)
    texts = [format_element(f, x) for x in elems]
    if args.format == "json":
        print(json.dumps({"family": args.family, "n": args.n, "elements": texts}))
    elif args.format == "csv":
        for t in texts:
            print(t)
    else:
        print(f"{args.family} n={args.n}: {len(texts)} elements")
        for t in texts:
            print(f"  {t}")
    return 0


def cmd_bijection(args) -> int:
    f = BIJECTION_FAMILIES[args.family]
    forward, inverse, image = orbits.family_bijection(f)
    if args.forward is not None:
        x = parse_element(f, args.forward)
        print(format_element(image, forward(x)))
    else:
        v = parse_element(image, args.inverse)
        print(format_element(f, inverse(v)))
    return 0


def cmd_orbits(args) -> int:
    f = BIJECTION_FAMILIES[args.family]
    decomposition = orbits.build_orbits(f, _nonnegative("--n", args.n), ceiling=args.ceiling)
    if args.format == "json":
        print(json.dumps(orbits.orbits_to_json(f, args.family, args.n, decomposition)))
    else:
        print(orbits.orbits_to_markdown(f, args.n, decomposition), end="")
    return 0


def cmd_verify(args) -> int:
    f = VERIFY_FAMILIES[args.family]
    _nonnegative("--max-n", args.max_n)
    methods = ["series", "enumerate", "orbits"] if args.method == "all" else [args.method]
    if f is OP2 and "orbits" in methods:
        if args.method == "orbits":
            raise CliError("no orbit construction available for family op2")
        methods.remove("orbits")
    failures = []
    for method in methods:
        limit = args.max_n if method == "series" else min(args.max_n, args.ceiling)
        _report_range(args, method, limit)
        if method == "series":
            violations = series.scan_congruence(f, args.max_n)
            for n in violations:
                failures.append(f"series: coefficient at {3 * n + 2} not divisible by 3")
        elif method == "enumerate":
            for n in range(2, limit + 1, 3):
                c = count_family(f, n, ceiling=args.ceiling)
                if c % 3 != 0:
                    failures.append(f"enumerate: count({args.family}, {n}) = {c}")
        else:  # orbits
            for n in range(2, limit + 1, 3):
                blocks = orbits.build_orbits(f, n, ceiling=args.ceiling)
                total = count_family(f, n, ceiling=args.ceiling)
                if 3 * len(blocks) != total:
                    failures.append(f"orbits: {len(blocks)} orbits cover {total} elements at n={n}")
        print(f"{args.family} {method}: {'FAIL' if failures else 'ok'}")
    for line in failures:
        print(line)
    return 1 if failures else 0


def _report_range(args, method: str, limit: int) -> None:
    """Print the weights n == 2 mod 3 up to `limit` that `method` checks, and
    whether --ceiling left out some that --max-n asks for."""
    weights = list(range(2, limit + 1, 3))
    bound = f"--max-n {args.max_n}"
    if len(weights) < len(range(2, args.max_n + 1, 3)):
        bound = f"capped by --ceiling {args.ceiling}; {bound}"
    if len(weights) > 4:
        weights[2:-1] = ["..."]
    checked = "n = " + ", ".join(map(str, weights)) if weights else "no weight"
    print(f"{args.family} {method}: checked {checked} ({bound})")


def cmd_series(args) -> int:
    f = _resolve_family(args.family)
    s = series.family_series(f, _nonnegative("--terms", args.terms))
    for n, c in enumerate(s.coeffs):
        print(f"{n},{c}")
    return 0


def cmd_selftest(args) -> int:
    return run_selftest(print)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vrank",
        description="Partition bijections, orbit decompositions, and mod-3 "
        "congruence verification.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("enumerate", help="list a family's weight-n slice")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv", "text"), default="text")
    p.add_argument("--ceiling", type=int, default=DEFAULT_CEILING)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("bijection", help="apply a family bijection or its inverse")
    p.add_argument("--family", required=True, choices=sorted(BIJECTION_FAMILIES))
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--forward", metavar="ELEMENT")
    group.add_argument("--inverse", metavar="TUPLE")
    p.set_defaults(func=cmd_bijection)

    p = sub.add_parser("orbits", help="orbit decomposition of a weight slice")
    p.add_argument("--family", required=True, choices=sorted(BIJECTION_FAMILIES))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("md", "json"), default="md")
    p.add_argument("--ceiling", type=int, default=DEFAULT_CEILING)
    p.set_defaults(func=cmd_orbits)

    p = sub.add_parser("verify", help="check the mod-3 congruence")
    p.add_argument("--family", required=True, choices=sorted(VERIFY_FAMILIES))
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--method", choices=("series", "enumerate", "orbits", "all"), default="all")
    p.add_argument("--ceiling", type=int, default=24)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("series", help="dump generating-function coefficients as CSV")
    p.add_argument("--family", required=True)
    p.add_argument("--terms", type=int, default=1000)
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("selftest", help="run the built-in worked-example suite")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except (
        CliError,
        ElementParseError,
        EnumerationLimitError,
        InvalidPartitionError,
        UnknownFamilyError,
        orbits.OrbitError,
    ) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
