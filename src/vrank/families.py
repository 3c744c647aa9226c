"""Restricted partition families: membership, exhaustive enumeration, grammar.

Each family is identified by a `Family` value.  Elements are either bare
partitions (tuples) or one of the small frozen dataclasses below; every family
has a canonical text form, and enumeration is sorted lexicographically on that
form so golden outputs are stable.

A weight slice is built as a pair of parallel tuples (canonical texts,
elements) sorted by text.  The slices of vector *components* are memoized per
(family, weight) in `_component_slice`, so a vector slice is the product of
cached pools over the weight splits whose pools are all nonempty, and its
text is joined from the cached component texts instead of formatted again.
Top-level slices are not cached: `enumerate_family` builds each one afresh
and returns a new list.
"""

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from operator import itemgetter
from typing import Any, Iterator

from .partition import (
    EMPTY,
    Partition,
    InvalidPartitionError,
    check_partition,
    format_partition,
    is_staircase,
    parse_partition,
    staircase,
    weight,
)

DEFAULT_CEILING = 40


class ShapeMismatchError(TypeError):
    """An element of the wrong kind was offered to a family predicate."""


class EnumerationLimitError(ValueError):
    """Requested weight exceeds the configured enumeration ceiling."""


class UnknownFamilyError(ValueError):
    pass


class ElementParseError(ValueError):
    pass


@dataclass(frozen=True)
class Family:
    """Family identifier.

    tags: mod-parts (parts == s mod t, s in residues), mod-distinct (same with
    distinct parts), overpartition, staircase, odd-staircase, designated,
    pod, two-color, vector (ordered tuple of component families).
    """

    tag: str
    modulus: int = 0
    residues: tuple[int, ...] = ()
    components: tuple["Family", ...] = ()

    def __post_init__(self):
        if self.tag in ("mod-parts", "mod-distinct"):
            if self.modulus < 1:
                raise UnknownFamilyError(f"modulus must be >= 1: {self}")
            if any(not 0 <= r < self.modulus for r in self.residues):
                raise UnknownFamilyError(f"residues out of range: {self}")


ORDINARY = Family("mod-parts", 1, (0,))
EVEN_PARTS = Family("mod-parts", 2, (0,))
DISTINCT_ODD = Family("mod-distinct", 2, (1,))
DISTINCT_MULTIPLES_OF_3 = Family("mod-distinct", 3, (0,))
OVERPARTITION = Family("overpartition")
STAIRCASE = Family("staircase")
ODD_STAIRCASE = Family("odd-staircase")
PD = Family("designated")
POD = Family("pod")
A = Family("two-color")
POD2 = Family("vector", components=(POD, POD))
OP2 = Family("vector", components=(OVERPARTITION, OVERPARTITION))

# Image spaces of the three bijections (V_{2,5} and the two V_{2,4} flavors).
PD_IMAGE = Family(
    "vector",
    components=(EVEN_PARTS, EVEN_PARTS, EVEN_PARTS, STAIRCASE, DISTINCT_MULTIPLES_OF_3),
)
A_IMAGE = Family("vector", components=(EVEN_PARTS, EVEN_PARTS, EVEN_PARTS, STAIRCASE))
POD2_IMAGE = Family(
    "vector", components=(EVEN_PARTS, EVEN_PARTS, EVEN_PARTS, ODD_STAIRCASE)
)


# --- element types ----------------------------------------------------------

@dataclass(frozen=True)
class Overpartition:
    parts: Partition
    overlined: tuple[int, ...]  # distinct magnitudes, decreasing

    @property
    def weight(self) -> int:
        return sum(self.parts)


@dataclass(frozen=True)
class DesignatedPartition:
    # (magnitude, multiplicity, designated index), magnitudes decreasing,
    # 1 <= index <= multiplicity.
    entries: tuple[tuple[int, int, int], ...]

    @property
    def weight(self) -> int:
        return sum(d * m for d, m, _ in self.entries)


@dataclass(frozen=True)
class TwoColorPartition:
    red: Partition
    blue: Partition  # all parts even

    @property
    def weight(self) -> int:
        return sum(self.red) + sum(self.blue)


@dataclass(frozen=True)
class OddStaircase:
    """The partition (2m-1, 2m-3, ..., 3, 1) of weight m*m; 1 may be overlined."""

    height: int
    one_overlined: bool = False

    def __post_init__(self):
        if self.height == 0 and self.one_overlined:
            raise InvalidPartitionError("empty odd staircase cannot be overlined")

    @property
    def parts(self) -> Partition:
        return tuple(range(2 * self.height - 1, 0, -2))

    @property
    def weight(self) -> int:
        return self.height * self.height


@dataclass(frozen=True)
class VTuple:
    components: tuple[Any, ...]
    spec: Family = field(compare=False)

    @property
    def weight(self) -> int:
        return sum(element_weight(f, c) for f, c in zip(self.spec.components, self.components))


def element_weight(f: Family, x: Any) -> int:
    if isinstance(x, tuple):
        return sum(x)
    return x.weight


# --- text grammar -----------------------------------------------------------

def format_element(f: Family, x: Any) -> str:
    tag = f.tag
    if tag in ("mod-parts", "mod-distinct", "staircase", "pod"):
        return format_partition(x)
    if tag == "overpartition":
        toks, seen = [], set()
        for v in x.parts:
            if v in x.overlined and v not in seen:
                toks.append(f"{v}~")
                seen.add(v)
            else:
                toks.append(str(v))
        return "+".join(toks) if toks else "0"
    if tag == "odd-staircase":
        if x.height == 0:
            return "0"
        toks = [str(v) for v in x.parts]
        if x.one_overlined:
            toks[-1] += "~"
        return "+".join(toks)
    if tag == "designated":
        toks = []
        for d, m, i in x.entries:
            toks.extend(f"{d}'" if j == i else str(d) for j in range(1, m + 1))
        return "+".join(toks) if toks else "0"
    if tag == "two-color":
        pairs = [(v, "r") for v in x.red] + [(v, "b") for v in x.blue]
        pairs.sort(key=lambda p: (-p[0], p[1]))
        return "+".join(f"{v}{c}" for v, c in pairs) if pairs else "0"
    if tag == "vector":
        inner = ";".join(format_element(g, c) for g, c in zip(f.components, x.components))
        return f"({inner})"
    raise UnknownFamilyError(f.tag)


def parse_element(f: Family, s: str) -> Any:
    s = s.strip()
    tag = f.tag
    if tag in ("mod-parts", "mod-distinct", "staircase", "pod"):
        p = parse_partition(s)
        require_member(f, p)
        return p
    if tag == "overpartition":
        if s == "0":
            return Overpartition(EMPTY, ())
        parts, over = [], []
        for tok in s.split("+"):
            if tok.endswith("~"):
                v = _parse_int(tok[:-1], s)
                over.append(v)
            else:
                v = _parse_int(tok, s)
            parts.append(v)
        x = Overpartition(check_partition(tuple(parts)), tuple(sorted(set(over), reverse=True)))
        require_member(f, x)
        return x
    if tag == "odd-staircase":
        if s == "0":
            return OddStaircase(0)
        over = s.endswith("~")
        p = parse_partition(s[:-1] if over else s)
        x = OddStaircase(len(p), over)
        if x.parts != p:
            raise ElementParseError(f"not an odd staircase: {s!r}")
        return x
    if tag == "designated":
        if s == "0":
            return DesignatedPartition(())
        runs: list[list[int]] = []  # [magnitude, multiplicity, index]
        for tok in s.split("+"):
            desig = tok.endswith("'")
            v = _parse_int(tok[:-1] if desig else tok, s)
            if runs and runs[-1][0] == v:
                runs[-1][1] += 1
                if desig:
                    if runs[-1][2]:
                        raise ElementParseError(f"multiple designations of {v} in {s!r}")
                    runs[-1][2] = runs[-1][1]
            elif runs and runs[-1][0] < v:
                raise ElementParseError(f"parts not weakly decreasing in {s!r}")
            else:
                runs.append([v, 1, 1 if desig else 0])
        if any(i == 0 for _, _, i in runs):
            raise ElementParseError(f"missing designation in {s!r}")
        x = DesignatedPartition(tuple((d, m, i) for d, m, i in runs))
        require_member(f, x)
        return x
    if tag == "two-color":
        if s == "0":
            return TwoColorPartition(EMPTY, EMPTY)
        red, blue = [], []
        for tok in s.split("+"):
            color = tok[-1:]
            if color not in ("r", "b"):
                raise ElementParseError(f"missing color on {tok!r} in {s!r}")
            (red if color == "r" else blue).append(_parse_int(tok[:-1], s))
        x = TwoColorPartition(
            tuple(sorted(red, reverse=True)), tuple(sorted(blue, reverse=True))
        )
        require_member(f, x)
        return x
    if tag == "vector":
        if not (s.startswith("(") and s.endswith(")")):
            raise ElementParseError(f"vector text must be parenthesized: {s!r}")
        toks = s[1:-1].split(";")
        if len(toks) != len(f.components):
            raise ElementParseError(
                f"expected {len(f.components)} components in {s!r}, got {len(toks)}"
            )
        return VTuple(
            tuple(parse_element(g, t) for g, t in zip(f.components, toks)), f
        )
    raise UnknownFamilyError(f.tag)


def _parse_int(tok: str, ctx: str) -> int:
    try:
        v = int(tok)
    except ValueError as e:
        raise ElementParseError(f"bad token {tok!r} in {ctx!r}") from e
    if v < 1:
        raise ElementParseError(f"parts must be positive, got {tok!r} in {ctx!r}")
    return v


# --- membership -------------------------------------------------------------

def is_member(f: Family, x: Any) -> bool:
    """True iff x satisfies the family's constraints.

    Raises ShapeMismatchError when x is not even the right kind of value.
    """
    tag = f.tag
    if tag in ("mod-parts", "mod-distinct", "staircase", "pod"):
        _require_type(x, tuple, f)
        check_partition(x)
        if tag == "mod-parts":
            return all(v % f.modulus in f.residues for v in x)
        if tag == "mod-distinct":
            return len(set(x)) == len(x) and all(v % f.modulus in f.residues for v in x)
        if tag == "staircase":
            return is_staircase(x)
        return _odd_parts_distinct(x)  # pod
    if tag == "overpartition":
        _require_type(x, Overpartition, f)
        check_partition(x.parts)
        return set(x.overlined) <= set(x.parts)
    if tag == "odd-staircase":
        _require_type(x, OddStaircase, f)
        return x.height >= 0
    if tag == "designated":
        _require_type(x, DesignatedPartition, f)
        mags = [d for d, _, _ in x.entries]
        return (
            mags == sorted(set(mags), reverse=True)
            and all(m >= 1 and 1 <= i <= m for _, m, i in x.entries)
        )
    if tag == "two-color":
        _require_type(x, TwoColorPartition, f)
        check_partition(x.red)
        check_partition(x.blue)
        return all(v % 2 == 0 for v in x.blue)
    if tag == "vector":
        _require_type(x, VTuple, f)
        if len(x.components) != len(f.components):
            raise ShapeMismatchError(
                f"expected {len(f.components)} components, got {len(x.components)}"
            )
        return all(is_member(g, c) for g, c in zip(f.components, x.components))
    raise UnknownFamilyError(f.tag)


def require_member(f: Family, x: Any) -> Any:
    if not is_member(f, x):
        raise ElementParseError(f"{format_element(f, x)} is not in family {f.tag}")
    return x


def _require_type(x, kind, f: Family):
    if not isinstance(x, kind):
        raise ShapeMismatchError(f"family {f.tag} expects {kind.__name__}, got {type(x).__name__}")


def _odd_parts_distinct(p: Partition) -> bool:
    """The pod condition: no odd part repeats."""
    odd = [v for v in p if v % 2]
    return len(odd) == len(set(odd))


# --- enumeration ------------------------------------------------------------

def enumerate_family(f: Family, n: int, ceiling: int = DEFAULT_CEILING) -> list:
    """All elements of weight n, sorted by canonical text form."""
    if n < 0:
        raise ValueError("weight must be nonnegative")
    if n > ceiling:
        raise EnumerationLimitError(f"weight {n} exceeds enumeration ceiling {ceiling}")
    return list(_text_slice(f, n)[1])


def count_family(f: Family, n: int, ceiling: int = DEFAULT_CEILING) -> int:
    if f.tag == "vector":
        # Memoized per-component counts; avoids materializing the product.
        if n > ceiling:
            raise EnumerationLimitError(f"weight {n} exceeds enumeration ceiling {ceiling}")
        total = 0
        for split in _weight_splits(n, len(f.components)):
            prod = 1
            for g, w in zip(f.components, split):
                prod *= _cached_count(g, w)
                if prod == 0:
                    break
            total += prod
        return total
    if n > ceiling:
        raise EnumerationLimitError(f"weight {n} exceeds enumeration ceiling {ceiling}")
    return _cached_count(f, n)


@lru_cache(maxsize=None)
def _cached_count(f: Family, n: int) -> int:
    return sum(1 for _ in _generate(f, n))


def _generate(f: Family, n: int) -> Iterator:
    """The elements of weight n of a non-vector family, in no set order."""
    tag = f.tag
    if tag == "mod-parts":
        allowed = set(f.residues)
        yield from _restricted_partitions(n, n, f.modulus, allowed, distinct=False)
    elif tag == "mod-distinct":
        allowed = set(f.residues)
        yield from _restricted_partitions(n, n, f.modulus, allowed, distinct=True)
    elif tag == "staircase":
        for k in itertools.count():
            w = k * (k + 1) // 2
            if w > n:
                break
            if w == n:
                yield staircase(k)
    elif tag == "odd-staircase":
        for m in itertools.count():
            if m * m > n:
                break
            if m * m == n:
                yield OddStaircase(m, False)
                if m > 0:
                    yield OddStaircase(m, True)
    elif tag == "pod":
        yield from filter(_odd_parts_distinct, _ordinary_partitions(n))
    elif tag == "overpartition":
        for p in _ordinary_partitions(n):
            mags = sorted(set(p), reverse=True)
            for r in range(len(mags) + 1):
                for over in itertools.combinations(mags, r):
                    yield Overpartition(p, over)
    elif tag == "designated":
        for p in _ordinary_partitions(n):
            runs = [(d, p.count(d)) for d in sorted(set(p), reverse=True)]
            for idxs in itertools.product(*(range(1, m + 1) for _, m in runs)):
                yield DesignatedPartition(
                    tuple((d, m, i) for (d, m), i in zip(runs, idxs))
                )
    elif tag == "two-color":
        for b in range(0, n + 1, 2):
            for blue in _generate(EVEN_PARTS, b):
                for red in _ordinary_partitions(n - b):
                    yield TwoColorPartition(red, blue)
    else:
        raise UnknownFamilyError(f.tag)


Slice = tuple[tuple[str, ...], tuple[Any, ...]]


def _text_slice(f: Family, n: int) -> Slice:
    """(canonical texts, elements) of weight n, both in text order."""
    if f.tag == "vector":
        # The same text format_element gives a vector, from cached parts.
        pairs = [
            ("(" + ";".join(texts) + ")", combo)
            for pools in _pool_splits(f.components, n)
            for texts, combo in zip(
                itertools.product(*(texts for texts, _ in pools)),
                itertools.product(*(elems for _, elems in pools)),
            )
        ]
        pairs.sort(key=itemgetter(0))
        return tuple(t for t, _ in pairs), tuple(VTuple(combo, f) for _, combo in pairs)
    pairs = [(format_element(f, x), x) for x in _generate(f, n)]
    pairs.sort(key=itemgetter(0))
    return tuple(t for t, _ in pairs), tuple(x for _, x in pairs)


_component_slice = lru_cache(maxsize=None)(_text_slice)


def _pool_splits(components: tuple[Family, ...], n: int) -> Iterator[tuple[Slice, ...]]:
    """Cached component slices for every split of n over the components in
    which no slice is empty; splits are in lexicographic order."""
    if len(components) == 1:
        pool = _component_slice(components[0], n)
        if pool[1]:
            yield (pool,)
        return
    for w in range(n + 1):
        pool = _component_slice(components[0], w)
        if pool[1]:
            for rest in _pool_splits(components[1:], n - w):
                yield (pool,) + rest


def _weight_splits(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Compositions of n into k nonnegative parts."""
    if k == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _weight_splits(n - first, k - 1):
            yield (first,) + rest


@lru_cache(maxsize=None)
def _ordinary_partitions(n: int) -> tuple[Partition, ...]:
    return tuple(_restricted_partitions(n, n, 1, {0}, distinct=False))


def _restricted_partitions(
    n: int, max_part: int, modulus: int, residues: set, distinct: bool
) -> Iterator[Partition]:
    if n == 0:
        yield EMPTY
        return
    for v in range(min(n, max_part), 0, -1):
        if v % modulus not in residues:
            continue
        nxt = v - 1 if distinct else v
        for tail in _restricted_partitions(n - v, nxt, modulus, residues, distinct):
            yield (v,) + tail


# --- CLI-facing catalog -----------------------------------------------------

NAMED_FAMILIES: dict[str, Family] = {
    "pd": PD,
    "a": A,
    "pod": POD,
    "pod2": POD2,
    "op": OVERPARTITION,
    "op2": OP2,
    "ordinary": ORDINARY,
    "staircase": STAIRCASE,
    "odd-staircase": ODD_STAIRCASE,
}


def family_by_name(name: str) -> Family:
    """Resolve a CLI family id: a named family, or p<t>_<r,...> / d<t>_<r,...>."""
    key = name.strip().lower()
    if key in NAMED_FAMILIES:
        return NAMED_FAMILIES[key]
    if key and key[0] in ("p", "d") and "_" in key:
        head, _, tail = key.partition("_")
        try:
            t = int(head[1:])
            residues = tuple(sorted(int(r) for r in tail.split(",")))
            tag = "mod-parts" if key[0] == "p" else "mod-distinct"
            return Family(tag, t, residues)
        except (ValueError, UnknownFamilyError) as e:
            raise UnknownFamilyError(f"bad family id {name!r}") from e
    raise UnknownFamilyError(f"unknown family {name!r}")
