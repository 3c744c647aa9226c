"""Restricted partition families: membership, exhaustive enumeration, grammar.

Each family is identified by a `Family` value.  Elements are either bare
partitions (tuples) or one of the read-only `Record` types below; every family
has a canonical text form, and enumeration is sorted lexicographically on that
form so golden outputs are stable.

Every family but a vector and the two staircases is a partition with one
choice made for each run of m copies of a part d: which copy is designated,
whether the first is overlined, how many copies are blue, or whether the run
is allowed at all.  `_run_options(f, d, m)` states those choices once, as
their pieces and texts, and serves counting, enumeration and text alike:
`count_family` sweeps one table per family with the number of choices, and
a weight slice joins each element's text from its runs' texts, so no such
element is formatted only to be sorted.  A vector's counts convolve its
components' tables, and a staircase family is counted from its generator.

A weight slice is a pair of parallel tuples (canonical texts, elements)
sorted by text.  The slices of vector *components* are memoized per (family,
weight) in `_component_slice`, so a vector slice is the product of cached
pools over the weight splits whose pools are all nonempty, and its text is
joined from the cached component texts.  Top-level slices are not cached:
`enumerate_family` builds each one afresh and returns a new list.
"""

import itertools
import math
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
        odd = [v for v in x if v % 2]  # pod: no odd part repeats
        return len(odd) == len(set(odd))
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


# --- enumeration ------------------------------------------------------------

def enumerate_family(f: Family, n: int, ceiling: int = DEFAULT_CEILING) -> list:
    """All elements of weight n, sorted by canonical text form."""
    return list(_text_slice(f, _checked_weight(n, ceiling))[1])


def count_family(f: Family, n: int, ceiling: int = DEFAULT_CEILING) -> int:
    return _counts(f, _checked_weight(n, ceiling))[n]


def _checked_weight(n: int, ceiling: int) -> int:
    if n < 0:
        raise ValueError("weight must be nonnegative")
    if n > ceiling:
        raise EnumerationLimitError(f"weight {n} exceeds enumeration ceiling {ceiling}")
    return n


# f -> its counts at weights 0..top, for the largest top asked for so far.
_COUNTS: dict[Family, list[int]] = {}


def _counts(f: Family, n: int) -> list[int]:
    """f's counts at weights 0..n at least, counted without building elements.
    One table per family serves every weight up to its top; a weight above
    the top rebuilds it to that weight, or to twice the old top if larger."""
    table = _COUNTS.get(f, ())
    if len(table) <= n:
        table = _COUNTS[f] = _count_table(f, max(n, 2 * (len(table) - 1)))
    return table


def _count_table(f: Family, n: int) -> list[int]:
    """The counts of weights 0..n."""
    if f.tag == "vector":  # the convolution of the component counts
        table = [1] + [0] * n
        for g in f.components:
            counts = _counts(g, n)
            table = [sum(table[v] * counts[w - v] for v in range(w + 1)) for w in range(n + 1)]
        return table
    if f.tag not in _RUN_ELEMENTS:  # the staircases: at most two elements per weight
        return [len(_generate(f, w)) for w in range(n + 1)]
    # The sum over the partitions of n of the product of the run choices:
    # one sweep over the weights per part size d, no partition built.
    table = [1] + [0] * n  # table[w]: the count of weight w with parts < d
    for d in range(1, n + 1):
        ways = [0] + [len(_run_options(f, d, m)[1]) for m in range(1, n // d + 1)]
        table = [
            table[w] + sum(ways[m] * table[w - m * d] for m in range(1, w // d + 1))
            for w in range(n + 1)
        ]
    return table


def _run_options(f: Family, d: int, m: int) -> tuple[tuple, tuple[str, ...]]:
    """The choices for m copies of the part d in an element of f, as parallel
    tuples (pieces, texts).  A piece is the choice's share of the element, as
    `_RUN_ELEMENTS` reads it; a text is the run's tokens in the element text."""
    tag = f.tag
    if tag == "designated":  # which copy is designated: the entry (d, m, i)
        entries = tuple((d, m, i) for i in range(1, m + 1))
        return entries, tuple(map(_run_text, entries))
    if tag == "two-color":  # (red, blue) parts: b blue copies, written first
        blues = range(m + 1) if d % 2 == 0 else (0,)  # an odd part is red
        return (
            tuple(((d,) * (m - b), (d,) * b) for b in blues),
            tuple("+".join([f"{d}b"] * b + [f"{d}r"] * (m - b)) for b in blues),
        )
    plain = "+".join([str(d)] * m)
    if tag == "overpartition":  # the overlined part: the first copy, or none
        return ((d,), ()), (f"{d}~" + plain[len(str(d)):], plain)
    if tag == "mod-parts":
        allowed = d % f.modulus in f.residues
    elif tag == "mod-distinct":
        allowed = m == 1 and d % f.modulus in f.residues
    elif tag == "pod":  # no odd part repeats
        allowed = d % 2 == 0 or m == 1
    else:
        raise UnknownFamilyError(f.tag)
    return (((d,) * m,), (plain,)) if allowed else ((), ())  # the run's parts, if allowed


def _concat(runs: tuple[Partition, ...]) -> Partition:
    return sum(runs, EMPTY)


def _plain_elements(p: Partition, pieces: list[tuple]) -> Iterator[Partition]:
    return map(_concat, itertools.product(*pieces))


# The elements of a partition p, given the pieces of each of its runs'
# choices: one element per choice for every run, in itertools.product order.
_RUN_ELEMENTS = {
    "mod-parts": _plain_elements,
    "mod-distinct": _plain_elements,
    "pod": _plain_elements,
    "overpartition": lambda p, pieces: map(
        Overpartition, itertools.repeat(p), map(_concat, itertools.product(*pieces))
    ),
    "designated": lambda p, pieces: map(DesignatedPartition, itertools.product(*pieces)),
    "two-color": lambda p, pieces: map(
        TwoColorPartition,
        map(_concat, itertools.product(*([red for red, _ in run] for run in pieces))),
        map(_concat, itertools.product(*([blue for _, blue in run] for run in pieces))),
    ),
}


def _generate(f: Family, n: int) -> list:
    """The elements of weight n of a staircase family, in no set order."""
    if f.tag == "staircase":  # weight k(k+1)/2
        k = (math.isqrt(8 * n + 1) - 1) // 2
        return [staircase(k)] if k * (k + 1) == 2 * n else []
    if f.tag == "odd-staircase":  # weight m*m; a last part 1 overlined or not
        m = math.isqrt(n)
        if m * m != n:
            return []
        return [OddStaircase(m), OddStaircase(m, True)] if m else [OddStaircase(0)]
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
    if f.tag not in _RUN_ELEMENTS:  # the staircases; _generate refuses any other tag
        pairs = [(format_element(f, x), x) for x in _generate(f, n)]
    else:
        # The same text format_element gives, joined from the texts of the
        # run choices, which are made once per run (d, m) of the slice.
        elements = _RUN_ELEMENTS[f.tag]
        options = {}  # (d, m) -> _run_options(f, d, m)
        pairs = []
        for p in _ordinary_partitions(n):
            per_run = []
            for run in runs(p):
                if run not in options:
                    options[run] = _run_options(f, *run)
                per_run.append(options[run])
                if not options[run][1]:
                    break  # a run with no choice: p gives no element
            else:
                pairs += zip(
                    map("+".join, itertools.product(*(texts for _, texts in per_run))),
                    elements(p, [pieces for pieces, _ in per_run]),
                )
    pairs.sort(key=itemgetter(0))
    # "" is the empty run-family element, written 0
    return tuple(t or "0" for t, _ in pairs), tuple(x for _, x in pairs)


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


@lru_cache(maxsize=None)
def _ordinary_partitions(n: int) -> tuple[Partition, ...]:
    return tuple(_partitions(n, n))


def _partitions(n: int, max_part: int) -> Iterator[Partition]:
    """The partitions of n with no part above max_part."""
    if n == 0:
        yield EMPTY
        return
    for v in range(min(n, max_part), 0, -1):
        for tail in _partitions(n - v, v):
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
