"""Restricted partition families: membership, exhaustive enumeration, grammar.

Each family is identified by a `Family` value.  Elements are either bare
partitions (tuples) or one of the read-only `Record` types below; every family
has a canonical text form, and enumeration is sorted lexicographically on that
form so golden outputs are stable.

A weight slice is built as a pair of parallel tuples (canonical texts,
elements) sorted by text.  The slices of vector *components* are memoized per
(family, weight) in `_component_slice`, so a vector slice is the product of
cached pools over the weight splits whose pools are all nonempty, and its
text is joined from the cached component texts instead of formatted again.
A designated (pd) slice is joined per partition in the same way: each run
(d, m) met in the slice gets its m designation entries and their texts once,
and the product over a partition's runs gives every element's entries and
text together, so no element is formatted only to be sorted.
Top-level slices are not cached: `enumerate_family` builds each one afresh
and returns a new list.
"""

import itertools
from functools import lru_cache
from operator import itemgetter
from typing import Any, Iterator

from .partition import (
    EMPTY,
    KERNEL_CACHE_SIZE,
    Partition,
    InvalidPartitionError,
    Record,
    check_partition,
    is_staircase,
    runs,
    staircase,
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


class Family(Record):
    """Family identifier.

    tags: mod-parts (parts == s mod t, s in residues), mod-distinct (same with
    distinct parts), overpartition, staircase, odd-staircase, designated,
    pod, two-color, vector (ordered tuple of component families).
    """

    __slots__ = ("tag", "modulus", "residues", "components")

    def __init__(
        self,
        tag: str,
        modulus: int = 0,
        residues: tuple[int, ...] = (),
        components: tuple["Family", ...] = (),
    ):
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "residues", residues)
        object.__setattr__(self, "components", components)
        if tag in ("mod-parts", "mod-distinct"):
            if modulus < 1:
                raise UnknownFamilyError(f"modulus must be >= 1: {self}")
            if any(not 0 <= r < modulus for r in residues):
                raise UnknownFamilyError(f"residues out of range: {self}")
            if len(set(residues)) != len(residues):
                raise UnknownFamilyError(f"repeated residue: {self}")

    def __hash__(self):  # every memo keyed on a family computes it
        return hash((self.tag, self.modulus, self.residues, self.components))


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

# Each is a Record.  The types built, compared or hashed once per element
# spell out their own __eq__ and __hash__: Record's generic field loop costs
# several times as much per call.

class Overpartition(Record):
    __slots__ = ("parts", "overlined")  # overlined: distinct magnitudes, decreasing

    def __init__(self, parts: Partition, overlined: tuple[int, ...]):
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "overlined", overlined)

    @property
    def weight(self) -> int:
        return sum(self.parts)


class DesignatedPartition(Record):
    # (magnitude, multiplicity, designated index), magnitudes decreasing,
    # 1 <= index <= multiplicity.
    __slots__ = ("entries",)

    def __init__(self, entries: tuple[tuple[int, int, int], ...]):
        object.__setattr__(self, "entries", entries)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    @property
    def weight(self) -> int:
        return sum(d * m for d, m, _ in self.entries)


class TwoColorPartition(Record):
    __slots__ = ("red", "blue")  # blue: all parts even

    def __init__(self, red: Partition, blue: Partition):
        object.__setattr__(self, "red", red)
        object.__setattr__(self, "blue", blue)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.red == other.red and self.blue == other.blue

    def __hash__(self):
        return hash((self.red, self.blue))

    @property
    def weight(self) -> int:
        return sum(self.red) + sum(self.blue)


class OddStaircase(Record):
    """The partition (2m-1, 2m-3, ..., 3, 1) of weight m*m; 1 may be overlined."""

    __slots__ = ("height", "one_overlined")

    def __init__(self, height: int, one_overlined: bool = False):
        if height == 0 and one_overlined:
            raise InvalidPartitionError("empty odd staircase cannot be overlined")
        object.__setattr__(self, "height", height)
        object.__setattr__(self, "one_overlined", one_overlined)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.height == other.height and self.one_overlined == other.one_overlined

    def __hash__(self):
        return hash((self.height, self.one_overlined))

    @property
    def parts(self) -> Partition:
        return tuple(range(2 * self.height - 1, 0, -2))

    @property
    def weight(self) -> int:
        return self.height * self.height


class VTuple(Record):
    __slots__ = ("components",)

    def __init__(self, components: tuple[Any, ...]):
        object.__setattr__(self, "components", components)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.components == other.components

    def __hash__(self):
        return hash(self.components)

    @property
    def weight(self) -> int:
        return sum(sum(c) if isinstance(c, tuple) else c.weight for c in self.components)


def element_weight(f: Family, x: Any) -> int:
    if isinstance(x, tuple):
        return sum(x)
    return x.weight


# --- text grammar -----------------------------------------------------------

def format_element(f: Family, x: Any) -> str:
    """A vector is `(c1;c2;...)`; any other element is its tokens joined by
    `+`, or `0` when it has none."""
    tag = f.tag
    if tag in ("mod-parts", "mod-distinct", "staircase", "pod"):
        toks = map(str, x)
    elif tag == "overpartition":
        toks, seen = [], set()
        for v in x.parts:
            if v in x.overlined and v not in seen:
                toks.append(f"{v}~")
                seen.add(v)
            else:
                toks.append(str(v))
    elif tag == "odd-staircase":
        toks = [str(v) for v in x.parts]
        if x.one_overlined:
            toks[-1] += "~"
    elif tag == "designated":
        toks = map(_run_text, x.entries)
    elif tag == "two-color":  # by magnitude, decreasing; blue first among equals
        pieces = sorted(_colored_runs(x.red, "r") + _colored_runs(x.blue, "b"))
        toks = [text for _, _, text in pieces]
    elif tag == "vector":
        inner = ";".join(format_element(g, c) for g, c in zip(f.components, x.components))
        return f"({inner})"
    else:
        raise UnknownFamilyError(f.tag)
    return "+".join(toks) or "0"


@lru_cache(maxsize=KERNEL_CACHE_SIZE)
def _run_text(entry: tuple[int, int, int]) -> str:
    """The text of one designated run (d, m, i): m copies of d, the i-th primed."""
    d, m, i = entry
    return "+".join(f"{d}'" if j == i else str(d) for j in range(1, m + 1))


@lru_cache(maxsize=KERNEL_CACHE_SIZE)
def _colored_runs(p: Partition, color: str) -> tuple[tuple[int, str, str], ...]:
    """(-d, color, text) of each run (d, m) of p, the text m copies of `d<color>`."""
    return tuple((-d, color, "+".join([f"{d}{color}"] * m)) for d, m in runs(p))


def parse_element(f: Family, s: str) -> Any:
    s = s.strip()
    tag = f.tag
    if tag == "vector":
        if not (s.startswith("(") and s.endswith(")")):
            raise ElementParseError(f"vector text must be parenthesized: {s!r}")
        texts = s[1:-1].split(";")
        if any(t != t.strip() for t in texts):
            raise ElementParseError(f"space around a component in {s!r}")
        if len(texts) != len(f.components):
            raise ElementParseError(
                f"expected {len(f.components)} components in {s!r}, got {len(texts)}"
            )
        return VTuple(tuple(parse_element(g, t) for g, t in zip(f.components, texts)))
    toks = [] if s == "0" else s.split("+")
    if tag in ("mod-parts", "mod-distinct", "staircase", "pod"):
        x = check_partition(tuple(_parse_int(tok, s) for tok in toks))
    elif tag == "overpartition":
        parts, over = [], []
        for tok in toks:
            v = _parse_int(tok.removesuffix("~"), s)
            if tok.endswith("~"):
                if parts and parts[-1] == v:
                    raise ElementParseError(f"the overline of {v} goes on its first copy in {s!r}")
                over.append(v)
            parts.append(v)
        x = Overpartition(check_partition(tuple(parts)), tuple(over))
    elif tag == "odd-staircase":
        over = bool(toks) and toks[-1].endswith("~")
        if over:
            toks[-1] = toks[-1][:-1]
        x = OddStaircase(len(toks), over)
        if x.parts != tuple(_parse_int(tok, s) for tok in toks):
            raise ElementParseError(f"not an odd staircase: {s!r}")
    elif tag == "designated":
        runs: list[list[int]] = []  # [magnitude, multiplicity, index]
        for tok in toks:
            desig = tok.endswith("'")
            v = _parse_int(tok.removesuffix("'"), s)
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
    elif tag == "two-color":
        red, blue = [], []
        for tok in toks:
            color = tok[-1:]
            if color not in ("r", "b"):
                raise ElementParseError(f"missing color on {tok!r} in {s!r}")
            (red if color == "r" else blue).append(_parse_int(tok[:-1], s))
        x = TwoColorPartition(
            tuple(sorted(red, reverse=True)), tuple(sorted(blue, reverse=True))
        )
    else:
        raise UnknownFamilyError(f.tag)
    return require_member(f, x)


def _parse_int(tok: str, ctx: str) -> int:
    """A part written as `str` writes it: no sign, padding, leading zero or `_`."""
    try:
        v = int(tok)
    except ValueError as e:
        raise ElementParseError(f"bad token {tok!r} in {ctx!r}") from e
    if str(v) != tok:
        raise ElementParseError(f"non-canonical token {tok!r} in {ctx!r}")
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
    if n < 0:
        raise ValueError("weight must be nonnegative")
    if n > ceiling:
        raise EnumerationLimitError(f"weight {n} exceeds enumeration ceiling {ceiling}")
    return _cached_count(f, n)


@lru_cache(maxsize=None)
def _cached_count(f: Family, n: int) -> int:
    """The number of elements of weight n, counted without building them."""
    if f.tag in _RUN_CHOICES:
        return _count_by_runs(f, n)
    if f.tag == "two-color":  # red parts any, blue parts even
        return sum(
            _cached_count(EVEN_PARTS, b) * _cached_count(ORDINARY, n - b)
            for b in range(0, n + 1, 2)
        )
    if f.tag != "vector":  # staircases: at most two elements per weight
        return sum(1 for _ in _generate(f, n))
    # Products of memoized component counts; the product is never materialized.
    total = 0
    for split in _weight_splits(n, len(f.components)):
        prod = 1
        for g, w in zip(f.components, split):
            prod *= _cached_count(g, w)
            if prod == 0:
                break
        total += prod
    return total


# How many ways m copies of the part d can occur in one element, per tag: an
# element is a partition with a choice made for each of its runs (d, m).
_RUN_CHOICES = {
    "mod-parts": lambda f, d, m: d % f.modulus in f.residues,
    "mod-distinct": lambda f, d, m: m == 1 and d % f.modulus in f.residues,
    "pod": lambda f, d, m: d % 2 == 0 or m == 1,
    "overpartition": lambda f, d, m: 2,  # the first copy overlined or not
    "designated": lambda f, d, m: m,  # which copy is designated
}


# f -> its counts at weights 0..top, for the largest top asked for so far.
_RUN_TABLES: dict[Family, list[int]] = {}


def _count_by_runs(f: Family, n: int) -> int:
    """The sum over the partitions of n of the product of the run choices.
    One table per family serves every weight up to its top; a weight above
    the top rebuilds it to that weight, or to twice the old top if larger."""
    table = _RUN_TABLES.get(f, ())
    if len(table) <= n:
        table = _RUN_TABLES[f] = _run_table(f, max(n, 2 * (len(table) - 1)))
    return table[n]


def _run_table(f: Family, n: int) -> list[int]:
    """The counts of weights 0..n: one sweep over the weights per part size
    d, no partition built."""
    choices = _RUN_CHOICES[f.tag]
    table = [1] + [0] * n  # table[w]: the count of weight w with parts < d
    for d in range(1, n + 1):
        table = [
            table[w] + sum(choices(f, d, m) * table[w - m * d] for m in range(1, w // d + 1))
            for w in range(n + 1)
        ]
    return table


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
            mags = [d for d, _ in runs(p)]
            for r in range(len(mags) + 1):
                for over in itertools.combinations(mags, r):
                    yield Overpartition(p, over)
    elif tag == "designated":
        for p in _ordinary_partitions(n):
            choices = [[(d, m, i) for i in range(1, m + 1)] for d, m in runs(p)]
            yield from map(DesignatedPartition, itertools.product(*choices))
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
        return tuple(t for t, _ in pairs), tuple(VTuple(combo) for _, combo in pairs)
    if f.tag == "designated":
        # The same text format_element gives, joined from run texts made
        # once per run (d, m) of the slice rather than once per element.
        choices = {}  # (d, m) -> (entries, texts) of the m choices of a run
        pairs = []
        for p in _ordinary_partitions(n):
            per_run = []
            for run in runs(p):
                if run not in choices:
                    entries = tuple((*run, i) for i in range(1, run[1] + 1))
                    choices[run] = (entries, tuple(map(_run_text, entries)))
                per_run.append(choices[run])
            pairs += zip(
                map("+".join, itertools.product(*(texts for _, texts in per_run))),
                itertools.product(*(entries for entries, _ in per_run)),
            )
        pairs.sort(key=itemgetter(0))
        texts = tuple(t or "0" for t, _ in pairs)  # "" is the empty element, written 0
        return texts, tuple(DesignatedPartition(e) for _, e in pairs)
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
