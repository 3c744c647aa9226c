"""Rank statistic, orbit operator, and orbit decomposition of weight slices.

The rank of a V-tuple is the length difference of its first two components.
The orbit operator fixes all parts outside one residue class mod 3 in the
first three components and cyclically shifts the parts inside it; applied
three times it is the identity, and the three ranks along an orbit hit all
residues mod 3.  Pulling orbits back through a family's bijection partitions
the weight-(3n+2) slice into blocks of 3, which is the congruence.
An orbit is the tuple of its three elements, slot k holding the one whose
image has rank == k mod 3; no image is kept (three `VTuple`s per orbit, read
only by the tables): the table writers derive tuples and ranks through
`forward`, and the pass lets each slice element go once walked.
The operator reads and moves only the first three components, and its one
memo, `_residues`, is keyed by a single partition: far fewer partitions than
triples of them occur.  It merges through `partition.union`, which returns
the other side itself when one side is empty, so a shifted component that
gains no part, or keeps none of its own, is a tuple the memo already holds,
and few are built.
"""

import gc
from functools import lru_cache
from typing import Any, Callable, Iterator

from . import bijections
from .families import (
    A,
    A_IMAGE,
    DEFAULT_CEILING,
    NAMED_FAMILIES,
    Family,
    PD,
    PD_IMAGE,
    POD2,
    POD2_IMAGE,
    ShapeMismatchError,
    VTuple,
    count_family,
    enumerate_family,
    format_element,
    is_member,
)
from .partition import InvalidPartitionError, Partition, union

CASE1 = "case1"
CASE2 = "case2"


class OrbitError(ValueError):
    pass


def v_rank(v: VTuple) -> int:
    """Length of the first component minus length of the second."""
    return len(v.components[0]) - len(v.components[1])


def classify_case(v: VTuple) -> str | None:
    """Which residue class the orbit operator moves: case 1 when the parts
    == 1 mod 3 in the first three components number nonzero mod 3, else case 2
    when the parts == 2 mod 3 do, else None."""
    c = v.components
    s0, s1, s2 = _residues(c[0]), _residues(c[1]), _residues(c[2])
    for case, r in ((CASE1, 0), (CASE2, 2)):
        if (len(s0[r]) + len(s1[r]) + len(s2[r])) % 3:
            return case
    return None


def o_hat(v: VTuple) -> VTuple:
    """Cyclically shift the moved-residue subpartitions (s1,s2,s3) -> (s3,s1,s2).

    With r the residue `classify_case` picks, new component i is its own parts
    not == r mod 3 together with the parts == r mod 3 of component (i+2) mod 3,
    merged decreasing; components 4.. are untouched.  The counts of each
    residue over the first three components do not change, so neither does
    the case, and three steps return to v.
    """
    case = classify_case(v)
    if case is None:
        raise OrbitError(f"orbit operator undefined for {v.components}")
    r = 0 if case == CASE1 else 2
    c = v.components
    s0, s1, s2 = _residues(c[0]), _residues(c[1]), _residues(c[2])
    shifted = union(s0[r + 1], s2[r]), union(s1[r + 1], s0[r]), union(s2[r + 1], s1[r])
    return VTuple(shifted + c[3:])


@lru_cache(maxsize=bijections.KERNEL_CACHE_SIZE)
def _residues(p: Partition) -> tuple[Partition, ...]:
    """p's parts == 1 mod 3, p without them, p's parts == 2 mod 3, p without
    them: each filtered from p in order, so still decreasing."""
    split = []
    for r in (1, 2):
        moved = tuple(x for x in p if x % 3 == r)
        split += moved, (tuple(x for x in p if x % 3 != r) if moved else p)
    return tuple(split)


def rotate_o(v: VTuple) -> VTuple:
    """The plain component rotation of Remark-style orbit building."""
    c = v.components
    return VTuple((c[2], c[0], c[1]) + c[3:])


def tail_condition_holds(spec: Family, j: int, bound: int) -> bool:
    """True iff no combination of component 4..k weights up to `bound` sums
    to j mod 3 (over weights actually realized by each family)."""
    sums = {0}
    for g in spec.components[3:]:  # the top weight first, so one count table serves all
        residues = {w % 3 for w in range(bound, -1, -1) if count_family(g, w, ceiling=bound) > 0}
        sums = {(s + r) % 3 for s in sums for r in residues}
    return j % 3 not in sums


_LAMBDAS: dict[Family, tuple[Callable, Callable, Family]] = {
    PD: (bijections.lambda_pd, bijections.lambda_pd_inv, PD_IMAGE),
    A: (bijections.lambda_a, bijections.lambda_a_inv, A_IMAGE),
    POD2: (bijections.lambda_pod, bijections.lambda_pod_inv, POD2_IMAGE),
}


def family_bijection(f: Family) -> tuple[Callable, Callable, Family]:
    try:
        return _LAMBDAS[f]
    except KeyError:
        raise OrbitError(f"no bijection available for family {_name(f)}") from None


def build_orbits(f: Family, n: int, ceiling: int = DEFAULT_CEILING) -> list[tuple]:
    """Orbit decomposition of the weight-n slice of f (n == 2 mod 3).

    The cyclic garbage collector is paused while the slice is enumerated and
    its orbits are built: the pass makes only acyclic tuples and records, so
    the collections its allocations would trigger walk every live object and
    free next to nothing.  The youngest generation is collected once before
    the pause, so cyclic garbage the caller has just left is not held through
    it.  The caller's collector state is restored on every exit, an error
    included; a collector the caller had disabled is neither run nor enabled.
    Each orbit is the triple of its elements, slot k holding the one of rank
    == k mod 3; only the tables read images, via `forward`.  The pass pops
    its fresh slice list in text order, letting each element go once walked,
    so it ends holding the orbits' elements, not the slice as well.
    """
    if n % 3 != 2:
        raise OrbitError(f"orbit decomposition needs n == 2 mod 3, got {n}")
    forward, inverse, image = family_bijection(f)
    collecting = gc.isenabled()
    if collecting:
        gc.collect(0)  # the caller's young cyclic garbage, so the pass can reuse its memory
        gc.disable()
    try:
        # First, so a weight above the ceiling is refused before the tail
        # check counts the tail families at every weight up to it.
        elements = enumerate_family(f, n, ceiling=ceiling)
        if not tail_condition_holds(image, n % 3, n):
            raise OrbitError(f"tail weight condition fails for {_name(f)} at residue {n % 3}")
        size = len(elements)
        elements.reverse()  # popped from the end, so walked in text order
        seen = set()  # later members of earlier orbits; an orbit's x is never met again
        orbits = []
        while elements:
            x = elements.pop()  # let go once walked: the orbits keep their own elements
            if x in seen:
                continue
            try:
                v0 = forward(x)
                y0 = inverse(v0)
                if y0 != x:
                    raise OrbitError(
                        f"round trip of {format_element(f, x)} at n={n} "
                        f"gives {_witness(f, y0)}"
                    )
                v1 = o_hat(v0)  # o_hat^3 is the identity, so two steps close the orbit
                y1 = inverse(v1)
                v2 = o_hat(v1)
                y2 = inverse(v2)
            except InvalidPartitionError as e:  # an image outside the codomain
                raise OrbitError(f"orbit of {format_element(f, x)} at n={n} fails: {e}") from e
            if y0 == y1 or y1 == y2 or y0 == y2:
                raise OrbitError(f"orbit of {format_element(f, x)} at n={n} is degenerate")
            seen.add(y1)
            seen.add(y2)
            members = [None, None, None]  # slot k holds the member of rank == k mod 3
            members[v_rank(v0) % 3] = y0
            members[v_rank(v1) % 3] = y1
            members[v_rank(v2) % 3] = y2
            if None in members:
                raise OrbitError(f"orbit of {format_element(f, x)} at n={n} misses a rank residue")
            orbits.append(tuple(members))
        if 3 * len(orbits) != size:
            raise OrbitError(f"{len(orbits)} orbits cover {size} elements at n={n}")
        return orbits
    finally:
        if collecting:
            gc.enable()


def _name(f: Family) -> str:
    """f's CLI id, or its tag for a family the CLI does not name."""
    return next((key for key, g in NAMED_FAMILIES.items() if g == f), f.tag)


def _witness(f: Family, y: Any) -> str:
    """The text of a pulled-back value, marked with f's name when it is not
    in f: the writer is total, but writes a member's text for some
    non-members.  A value not even of f's kind is shown by its repr."""
    try:
        if is_member(f, y):
            return format_element(f, y)
    except ShapeMismatchError:  # the wrong type, or a vector of the wrong length
        return f"{y!r} (not in {_name(f)})"
    return f"{format_element(f, y)} (not in {_name(f)})"


# --- reports ----------------------------------------------------------------

def _rows(f: Family, orbits: list[tuple]) -> Iterator[tuple[str, str, int, int]]:
    """(element text, tuple text, rank, orbit index from 1) for every member,
    orbit by orbit; each tuple is forward(x) and its rank v_rank(forward(x))."""
    forward, _, image = family_bijection(f)
    for idx, orbit in enumerate(orbits, start=1):
        for x in orbit:
            v = forward(x)
            yield format_element(f, x), format_element(image, v), v_rank(v), idx


def orbits_to_json(f: Family, name: str, n: int, orbits: list[tuple]) -> dict:
    blocks: list[list] = [[] for _ in orbits]
    for elem, tup, rank, idx in _rows(f, orbits):
        blocks[idx - 1].append([elem, tup, rank])
    return {"family": name, "n": n, "orbits": blocks}


def orbits_to_markdown(f: Family, n: int, orbits: list[tuple]) -> str:
    lines = [
        "| element | tuple | r_V | orbit |",
        "| --- | --- | --- | --- |",
    ]
    for elem, tup, rank, idx in sorted(_rows(f, orbits), key=lambda r: r[0]):
        lines.append(f"| {elem} | {tup} | {rank} | O{idx} |")
    return "\n".join(lines) + "\n"
