"""Built-in worked-example suite: every anchor value the package is pinned to.

Each check prints one line; returns 0 when all pass, 1 otherwise.  The n=5
table checks read the rows `vrank orbits` prints (`orbits._rows`): their
sorted (element, tuple, rank) rows and their orbits must equal the golden's.
"""

from . import bijections, orbits
from .families import (
    A,
    OddStaircase,
    PD,
    PD_IMAGE,
    POD2,
    VTuple,
    count_family,
    format_element,
    parse_element,
)
from .golden import TABLES, orbit_partition
from .partition import (
    FrobeniusSymbol,
    conjugate,
    from_frobenius,
    scale2,
    union,
)


def _checks():
    yield (
        "conjugate (4,4,2,2,1)",
        lambda: conjugate((4, 4, 2, 2, 1)) == (5, 4, 2, 2),
    )
    yield (
        "union (4,3,3,3,2) with (6,6,5)",
        lambda: union((4, 3, 3, 3, 2), (6, 6, 5)) == (6, 6, 5, 4, 3, 3, 3, 2),
    )
    yield ("scale2 (9,6,6,2,1)", lambda: scale2((9, 6, 6, 2, 1)) == (18, 12, 12, 4, 2))
    yield (
        "Frobenius (3,1,0;4,3,1)",
        lambda: from_frobenius(FrobeniusSymbol((3, 1, 0), (4, 3, 1))) == (4, 3, 3, 3, 2),
    )
    yield (
        "2-core/2-quotient of (4,4,2,2,1)",
        lambda: bijections.phi((4, 4, 2, 2, 1)) == ((1,), (2,), (6, 4)),
    )

    def check_88():
        dp = parse_element(PD, "20+20+20'+4+4'+4+4+2'+2+1+1+1+1+1+1+1'+1")
        alpha, beta = bijections.delta(dp)
        ok = alpha == (4, 4, 2, 2, 1)
        ok &= beta == (20, 20, 20, 4, 4, 1, 1, 1, 1, 1, 1, 1)
        ok &= bijections.psi(beta) == ((8, 2, 2), (60, 3))
        ok &= format_element(PD_IMAGE, bijections.lambda_pd(dp)) == "(2;6+4;8+2+2;1;60+3)"
        return ok

    yield ("designated partition of 88 pipeline", check_88)

    def check_wright():
        w = bijections.wright((9, 7, 3), (17, 15, 11, 7, 3, 1))
        return w.pi == (16, 16, 14, 8, 6, 4) and w.triangle == OddStaircase(3, True)

    yield ("Wright map ((9,7,3),(17,15,11,7,3,1))", check_wright)

    def check_orbit_ranks():
        v = VTuple(((9, 8, 7, 7, 5, 4), (5, 2, 1), (10, 6, 4, 4, 3, 2), (3, 2, 1)))
        ranks = []
        for _ in range(3):
            ranks.append(orbits.v_rank(v))
            v = orbits.o_hat(v)
        return ranks == [3, 1, -1]

    yield ("orbit ranks of the weight-83 4-tuple", check_orbit_ranks)

    yield ("count(pd, 5) = 15", lambda: count_family(PD, 5) == 15)
    yield ("count(a, 2) = 3", lambda: count_family(A, 2) == 3)
    yield ("count(a, 5) = 12", lambda: count_family(A, 5) == 12)
    yield ("count(pod2, 5) = 18", lambda: count_family(POD2, 5) == 18)

    for name, family in (("pd", PD), ("a", A), ("pod2", POD2)):
        def check_table(name=name, family=family):
            golden = TABLES[name]
            rows = list(orbits._rows(family, orbits.build_orbits(family, 5)))
            same_rows = sorted(row[:3] for row in rows) == sorted(row[:3] for row in golden)
            return same_rows and orbit_partition(rows) == orbit_partition(golden)

        yield (f"n=5 decomposition table for {name}", check_table)


def run_selftest(report=print) -> int:
    failures = 0
    for name, check in _checks():
        try:
            ok = check()
        except Exception as e:  # a broken anchor is a failure, not a crash
            ok = False
            report(f"FAIL {name}: {e!r}")
            failures += 1
            continue
        report(f"{'pass' if ok else 'FAIL'} {name}")
        failures += 0 if ok else 1
    report(f"selftest: {failures} failure(s)")
    return 1 if failures else 0
