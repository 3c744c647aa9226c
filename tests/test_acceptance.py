"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria (all exact; timing budgets noted inline):
  1-3  n=5 decomposition tables for pd / a / pod2, row-for-row.
  4    worked-example anchors.
  5    exhaustive round trips for n <= 24 (< 60 s total).
  6    orbit theorem for every n == 2 mod 3, n <= 20.
  7    congruence scans to 300 and series == enumeration for n <= 24 (< 30 s).
  8    theta spot values to 100.
  9    rotation map: period 3 and fixed points, weight <= 12.
"""

import time

import pytest

from vrank import orbits
from vrank.families import (
    A, NAMED_FAMILIES, ODD_STAIRCASE, OP2, PD, POD2, STAIRCASE, count_family, enumerate_family,
)
from vrank.golden import TABLES
from vrank.selftest import _checks
from vrank.series import family_series, scan_congruence

from theta_oracles import odd_staircase_theta, staircase_theta

# name -> (family, image space) for every family with a bijection
FAMILIES = {
    name: (f, orbits._LAMBDAS[f][2]) for name, f in NAMED_FAMILIES.items() if f in orbits._LAMBDAS
}
# The worked examples are pinned once, in the selftest suite.
CHECKS = dict(_checks())
TABLE_CHECK = "n=5 decomposition table for "


def report(criterion: str, ok: bool):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}")
    assert ok, criterion


@pytest.mark.parametrize(
    "name,number,n_orbits",
    [("pd", 1, 5), ("a", 2, 4), ("pod2", 3, 6)],
    ids=["pd", "a", "pod2"],
)
def test_criterion_1_2_3_table_reproduction(name, number, n_orbits):
    family, _ = FAMILIES[name]
    start = time.monotonic()
    # rows, ranks and orbit blocks against the golden table
    table_ok = CHECKS[TABLE_CHECK + name]()
    decomposition = orbits.build_orbits(family, 5)
    elapsed = time.monotonic() - start
    ok = (
        table_ok
        and len(TABLES[name]) == count_family(family, 5)
        and len(decomposition) == n_orbits
        and elapsed < 1.0
    )
    report(f"criterion {number}: n=5 table for {name} ({elapsed:.2f}s)", ok)


def test_criterion_4_worked_example_anchors():
    anchors = {name: c for name, c in CHECKS.items() if not name.startswith(TABLE_CHECK)}
    ok = {
        "2-core/2-quotient of (4,4,2,2,1)",
        "designated partition of 88 pipeline",
        "Wright map ((9,7,3),(17,15,11,7,3,1))",
        "orbit ranks of the weight-83 4-tuple",
    } <= set(anchors)
    failed = [name for name, check in anchors.items() if not check()]
    ok &= not failed
    report(f"criterion 4: {len(anchors)} worked-example anchors, failed: {failed}", ok)


def test_criterion_5_round_trip_suite():
    start = time.monotonic()
    ok = True
    for name, (family, image) in FAMILIES.items():
        forward, inverse, _ = orbits.family_bijection(family)
        for n in range(25):
            for x in enumerate_family(family, n):
                v = forward(x)
                ok &= v.weight == n and inverse(v) == x
            for v in enumerate_family(image, n):
                x = inverse(v)
                ok &= forward(x) == v
    elapsed = time.monotonic() - start
    ok &= elapsed < 60.0
    report(f"criterion 5: round trips n<=24 ({elapsed:.1f}s)", ok)


def test_criterion_6_orbit_theorem_suite():
    ok = True
    for name, (family, image) in FAMILIES.items():
        forward, _, _ = orbits.family_bijection(family)
        for n in range(2, 21, 3):
            decomposition = orbits.build_orbits(family, n)
            members = [x for o in decomposition for x in o]
            total = count_family(family, n)
            ok &= len(members) == len(set(members)) == total
            ok &= total % 3 == 0
            for o in decomposition:
                ok &= len(o) == 3
                images = [forward(x) for x in o]
                ok &= [orbits.v_rank(v) % 3 for v in images] == [0, 1, 2]
                for v in images:
                    w = orbits.o_hat(orbits.o_hat(orbits.o_hat(v)))
                    ok &= w == v
    report("criterion 6: orbit theorem for n == 2 mod 3, n <= 20", ok)


def test_criterion_7_congruence_scans():
    start = time.monotonic()
    ok = True
    for family in (PD, A, POD2, OP2):
        ok &= scan_congruence(family, 300) == []
        s = family_series(family, 24)
        ok &= all(s[n] == count_family(family, n) for n in range(25))
    elapsed = time.monotonic() - start
    ok &= elapsed < 30.0
    report(f"criterion 7: congruence scans to 300 ({elapsed:.1f}s)", ok)


def test_criterion_8_theta_spot_values():
    st = staircase_theta(100)
    triangular = {k * (k + 1) // 2 for k in range(15)}
    ok = all(st[n] == (1 if n in triangular else 0) for n in range(101))
    ot = odd_staircase_theta(100)
    squares = {m * m for m in range(1, 11)}
    ok &= ot[0] == 1
    ok &= all(ot[n] == (2 if n in squares else 0) for n in range(1, 101))
    ok &= family_series(STAIRCASE, 100) == st and family_series(ODD_STAIRCASE, 100) == ot
    report("criterion 8: theta spot values to 100", ok)


def test_criterion_9_rotation_map():
    ok = True
    for _, image in FAMILIES.values():
        for n in range(13):
            for v in enumerate_family(image, n):
                ok &= orbits.rotate_o(orbits.rotate_o(orbits.rotate_o(v))) == v
                fixed = orbits.rotate_o(v) == v
                ok &= fixed == (v.components[0] == v.components[1] == v.components[2])
    report("criterion 9: rotation map on weight <= 12 tuples", ok)
