"""Rank statistic, orbit operator, and orbit decomposition of weight slices.

The rank of a V-tuple is the length difference of its first two components.
The orbit operator fixes all parts outside one residue class mod 3 in the
first three components and cyclically shifts the parts inside it; applied
three times it is the identity, and the three ranks along an orbit hit all
residues mod 3.  Pulling orbits back through a family's bijection partitions
the weight-(3n+2) slice into blocks of 3, which is the congruence.
"""

from dataclasses import dataclass
from typing import Any, Callable

from . import bijections
from .families import (
    A,
    DEFAULT_CEILING,
    Family,
    PD,
    POD2,
    VTuple,
    count_family,
    enumerate_family,
    format_element,
)
from .partition import count_residue3, split_by_residue3, union

CASE1 = "case1"
CASE2 = "case2"


class OrbitError(ValueError):
    pass


def v_rank(v: VTuple) -> int:
    """Length of the first component minus length of the second."""
    return len(v.components[0]) - len(v.components[1])


def classify_case(v: VTuple) -> str | None:
    """Which residue class the orbit operator moves, or None if neither sum
    of residue counts over the first three components is nonzero mod 3."""
    s1 = sum(count_residue3(c, 1) for c in v.components[:3])
    if s1 % 3 != 0:
        return CASE1
    s2 = sum(count_residue3(c, -1) for c in v.components[:3])
    if s2 % 3 != 0:
        return CASE2
    return None


def o_hat(v: VTuple) -> VTuple:
    """Cyclically shift the moved-residue subpartitions (s1,s2,s3) -> (s3,s1,s2)."""
    case = classify_case(v)
    if case is None:
        raise OrbitError(f"orbit operator undefined for {v.components}")
    residue = 1 if case == CASE1 else -1
    splits = [split_by_residue3(c, residue) for c in v.components[:3]]
    shifted = [splits[2].selected, splits[0].selected, splits[1].selected]
    first3 = tuple(union(s.complement, moved) for s, moved in zip(splits, shifted))
    return VTuple(first3 + v.components[3:], v.spec)


def rotate_o(v: VTuple) -> VTuple:
    """The plain component rotation of Remark-style orbit building."""
    c = v.components
    return VTuple((c[2], c[0], c[1]) + c[3:], v.spec)


def tail_condition_holds(spec: Family, j: int, bound: int) -> bool:
    """True iff no combination of component 4..k weights up to `bound` sums
    to j mod 3 (over weights actually realized by each family)."""
    sums = {0}
    for g in spec.components[3:]:
        residues = {w % 3 for w in range(bound + 1) if count_family(g, w, ceiling=bound) > 0}
        sums = {(s + r) % 3 for s in sums for r in residues}
    return j % 3 not in sums


_LAMBDAS: dict[Family, tuple[Callable, Callable, Family]] = {
    PD: (bijections.lambda_pd, bijections.lambda_pd_inv, bijections.PD_IMAGE),
    A: (bijections.lambda_a, bijections.lambda_a_inv, bijections.A_IMAGE),
    POD2: (bijections.lambda_pod, bijections.lambda_pod_inv, bijections.POD2_IMAGE),
}


def family_bijection(f: Family) -> tuple[Callable, Callable, Family]:
    try:
        return _LAMBDAS[f]
    except KeyError:
        raise OrbitError(f"no bijection available for family {f.tag}") from None


@dataclass(frozen=True)
class Orbit:
    # (element, image tuple, rank), sorted by rank mod 3.
    members: tuple[tuple[Any, VTuple, int], ...]


def build_orbits(f: Family, n: int, ceiling: int = DEFAULT_CEILING) -> list[Orbit]:
    """Orbit decomposition of the weight-n slice of f (n == 2 mod 3)."""
    if n % 3 != 2:
        raise OrbitError(f"orbit decomposition needs n == 2 mod 3, got {n}")
    forward, inverse, image = family_bijection(f)
    if not tail_condition_holds(image, n % 3, n):
        raise OrbitError(f"tail weight condition fails for {f.tag} at residue {n % 3}")
    elements = enumerate_family(f, n, ceiling=ceiling)
    seen = set()
    orbits = []
    for x in elements:  # already in canonical text order
        if x in seen:
            continue
        v = forward(x)
        members = []
        for _ in range(3):
            y = inverse(v)
            members.append((y, v, v_rank(v)))
            v = o_hat(v)
        if len({m[0] for m in members}) != 3:
            raise OrbitError(f"orbit of {format_element(f, x)} is degenerate")
        seen.update(m[0] for m in members)
        members.sort(key=lambda m: m[2] % 3)
        orbits.append(Orbit(tuple(members)))
    return orbits


# --- reports ----------------------------------------------------------------

def orbits_to_json(f: Family, name: str, n: int, orbits: list[Orbit]) -> dict:
    _, _, image = family_bijection(f)
    return {
        "family": name,
        "n": n,
        "orbits": [
            [
                [format_element(f, x), format_element(image, v), rank]
                for x, v, rank in orbit.members
            ]
            for orbit in orbits
        ],
    }


def orbits_to_markdown(f: Family, n: int, orbits: list[Orbit]) -> str:
    _, _, image = family_bijection(f)
    lines = [
        "| element | tuple | r_V | orbit |",
        "| --- | --- | --- | --- |",
    ]
    rows = []
    for idx, orbit in enumerate(orbits, start=1):
        for x, v, rank in orbit.members:
            rows.append((format_element(f, x), format_element(image, v), rank, f"O{idx}"))
    rows.sort(key=lambda r: r[0])
    for elem, tup, rank, label in rows:
        lines.append(f"| {elem} | {tup} | {rank} | {label} |")
    return "\n".join(lines) + "\n"
