"""Batch command-line surface.

Verbs: enumerate, bijection, orbits, verify, series, selftest.  Exit codes:
0 success, 1 verification failure, 2 usage or parse error.
"""

import argparse
import sys
from functools import lru_cache

from . import orbits, series
from .families import (
    DEFAULT_CEILING,
    NAMED_FAMILIES,
    ElementParseError,
    EnumerationLimitError,
    UnknownFamilyError,
    count_family,
    enumerate_family,
    family_by_name,
    format_element,
    parse_element,
)
from .partition import InvalidPartitionError

# verify's families, in argparse's order; bijection and orbits take those in orbits._LAMBDAS.
CONGRUENCE_FAMILIES = ("a", "op2", "pd", "pod2")
# verify's default --ceiling: the enumerate and orbits methods stop at this
# weight unless asked for more.
VERIFY_CEILING = 24


class CliError(Exception):
    """Usage-level error: a number out of range, or a method the family does not have."""


def _nonnegative(option: str, value: int) -> int:
    """A weight or term count: at least 0, and small enough to index a list."""
    if value < 0:
        raise CliError(f"{option} must be >= 0, got {value}")
    if value >= sys.maxsize:
        raise CliError(f"{option} is too large: {value}")
    return value


def cmd_enumerate(args) -> int:
    f = family_by_name(args.family)
    n, ceiling = _nonnegative("--n", args.n), _nonnegative("--ceiling", args.ceiling)
    elems = enumerate_family(f, n, ceiling=ceiling)
    texts = [format_element(f, x) for x in elems]
    if args.format == "json":
        import json  # only here and in cmd_orbits: keeps it off start-up

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
    f = NAMED_FAMILIES[args.family]
    forward, inverse, image = orbits.family_bijection(f)
    if args.forward is not None:
        x = parse_element(f, args.forward)
        print(format_element(image, forward(x)))
    else:
        v = parse_element(image, args.inverse)
        print(format_element(f, inverse(v)))
    return 0


def cmd_orbits(args) -> int:
    f = NAMED_FAMILIES[args.family]
    n, ceiling = _nonnegative("--n", args.n), _nonnegative("--ceiling", args.ceiling)
    decomposition = orbits.build_orbits(f, n, ceiling=ceiling)
    if args.format == "json":
        import json

        print(json.dumps(orbits.orbits_to_json(f, args.family, args.n, decomposition)))
    else:
        print(orbits.orbits_to_markdown(f, args.n, decomposition), end="")
    return 0


def cmd_verify(args) -> int:
    f = NAMED_FAMILIES[args.family]
    _nonnegative("--max-n", args.max_n)
    _nonnegative("--ceiling", args.ceiling)
    methods = ["series", "enumerate", "orbits"] if args.method == "all" else [args.method]
    if f not in orbits._LAMBDAS and "orbits" in methods:
        if args.method == "orbits":
            raise CliError(f"no orbit construction available for family {args.family}")
        methods.remove("orbits")
    failures = []
    for method in methods:
        before = len(failures)  # each status line reads only its own method's failures
        limit = args.max_n if method == "series" else min(args.max_n, args.ceiling)
        # Built before the range line, so a size no list can hold prints no range.
        violations = series.scan_congruence(f, args.max_n) if method == "series" else []
        _report_range(args, method, limit)
        for n in violations:
            failures.append(f"series: coefficient at {3 * n + 2} not divisible by 3")
        if method == "enumerate":
            for n in range(2, limit + 1, 3):
                c = count_family(f, n, ceiling=args.ceiling)
                if c % 3 != 0:
                    failures.append(f"enumerate: count({args.family}, {n}) = {c}")
        elif method == "orbits":
            for n in range(2, limit + 1, 3):
                try:
                    orbits.build_orbits(f, n, ceiling=args.ceiling)
                except orbits.OrbitError as e:  # a broken orbit, round trip or cover
                    failures.append(f"orbits: {e}")
        print(f"{args.family} {method}: {'FAIL' if len(failures) > before else 'ok'}")
    for line in failures:
        print(line)
    return 1 if failures else 0


def _report_range(args, method: str, limit: int) -> None:
    """Print the weights n == 2 mod 3 up to `limit` that `method` checks, and
    whether --ceiling left out some that --max-n asks for."""
    weights = range(2, limit + 1, 3)
    bound = f"--max-n {args.max_n}"
    if len(weights) < len(range(2, args.max_n + 1, 3)):
        bound = f"capped by --ceiling {args.ceiling}; {bound}"
    shown = [weights[0], weights[1], "...", weights[-1]] if len(weights) > 4 else weights
    checked = "n = " + ", ".join(map(str, shown)) if weights else "no weight"
    print(f"{args.family} {method}: checked {checked} ({bound})")


def cmd_series(args) -> int:
    f = family_by_name(args.family)
    s = series.family_series(f, _nonnegative("--terms", args.terms))
    for n, c in enumerate(s.coeffs):
        print(f"{n},{c}")
    return 0


def cmd_selftest(args) -> int:
    from .selftest import run_selftest  # only this verb loads the worked examples

    return run_selftest()


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process: parsers refer to their actions and back,
    so one built per call would be left as cyclic garbage."""
    parser = argparse.ArgumentParser(
        prog="vrank",
        description="Partition bijections, orbit decompositions, and mod-3 "
        "congruence verification.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    with_bijection = tuple(
        name for name in CONGRUENCE_FAMILIES if NAMED_FAMILIES[name] in orbits._LAMBDAS
    )

    p = sub.add_parser("enumerate", help="list a family's weight-n slice")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv", "text"), default="text")
    p.add_argument("--ceiling", type=int, default=DEFAULT_CEILING)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("bijection", help="apply a family bijection or its inverse")
    p.add_argument("--family", required=True, choices=with_bijection)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--forward", metavar="ELEMENT")
    group.add_argument("--inverse", metavar="TUPLE")
    p.set_defaults(func=cmd_bijection)

    p = sub.add_parser("orbits", help="orbit decomposition of a weight slice")
    p.add_argument("--family", required=True, choices=with_bijection)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("md", "json"), default="md")
    p.add_argument("--ceiling", type=int, default=DEFAULT_CEILING)
    p.set_defaults(func=cmd_orbits)

    p = sub.add_parser("verify", help="check the mod-3 congruence")
    p.add_argument("--family", required=True, choices=CONGRUENCE_FAMILIES)
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--method", choices=("series", "enumerate", "orbits", "all"), default="all")
    p.add_argument("--ceiling", type=int, default=VERIFY_CEILING)
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
    except MemoryError:  # a size the option checks let through, but no list can hold
        print("error: the requested size is too large to hold in memory", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
