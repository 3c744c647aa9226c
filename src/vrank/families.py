"""Restricted partition families: membership, exhaustive enumeration, grammar.

Each family is identified by a `Family` value.  Elements are either bare
partitions (tuples) or one of the read-only `Record` types below; every family
has a canonical text form, and enumeration is sorted lexicographically on that
form so golden outputs are stable.

Every family but a vector and the two staircases is a partition with one
choice made for each run of m copies of a part d: which copy is designated,
whether the first is overlined, how many copies are blue, or whether the run
is allowed at all.  One run table states those choices once, and every
reader and writer of such a family goes through it: `_run_options(f, d, m)`
gives the choices, `_run_text` writes a choice's tokens, and `_runs_of` reads
back the choice an element makes on each run.  `count_family` sweeps one
table per family with the number of choices and writes nothing; a weight
slice builds each element from its runs' choices and joins its text from
their texts, so no element is formatted only to be sorted; `format_element`
joins the texts of an element's runs; `parse_element` accepts a run only as
the text of one of its choices, so each element has exactly one text; and
`is_member` requires each run's choice to be in the table.  A vector's
counts convolve its components' tables, and a staircase family is counted
from its generator.

A weight slice is a pair of parallel tuples (canonical texts, elements)
sorted by text.  The slices of vector *components* are memoized per (family,
weight) in `_component_slice`, so a vector slice is the product of cached
pools over the weight splits whose pools are all nonempty, and its text is
joined from the cached component texts.  Top-level slices are not cached:
`enumerate_family` builds each one afresh and returns a new list.
"""

import itertools
import math
from collections import Counter
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
    `+`, or `0` when it has none.  Total on any value of the family's element
    type, member or not, so an error message can always show the value."""
    tag = f.tag
    if tag in _RUN_ELEMENTS:
        toks = [_run_text(tag, d, m, choice) for d, m, choice in _runs_of(f, x)]
    elif tag == "staircase":
        toks = map(str, x)
    elif tag == "odd-staircase":
        toks = [str(v) for v in x.parts]
        if x.one_overlined:
            toks[-1] += "~"
    elif tag == "vector":
        inner = ";".join(format_element(g, c) for g, c in zip(f.components, x.components))
        return f"({inner})"
    else:
        raise UnknownFamilyError(f.tag)
    return "+".join(toks) or "0"


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
    if tag in _RUN_ELEMENTS:
        # A part's marks follow its digits.  Each run's tokens must be the
        # writer's text of one of its choices, so an element has one text.
        p = check_partition(tuple(_parse_int(tok.rstrip("'~rb"), s) for tok in toks))
        chosen, start = [], 0
        for d, m in runs(p):
            text = "+".join(toks[start:start + m])
            start += m
            by_text = {_run_text(tag, d, m, choice): choice for choice in _run_options(f, d, m)}
            if text not in by_text:
                listed = f": {', '.join(by_text)}" if 0 < len(by_text) <= 4 else ""
                raise ElementParseError(f"{text!r} is not a run of {tag}{listed}")
            chosen.append((by_text[text],))
        return next(_RUN_ELEMENTS[tag][1](p, chosen))
    if tag == "staircase":
        x = check_partition(tuple(_parse_int(tok, s) for tok in toks))
    elif tag == "odd-staircase":
        over = bool(toks) and toks[-1].endswith("~")
        if over:
            toks[-1] = toks[-1][:-1]
        x = OddStaircase(len(toks), over)
        if x.parts != tuple(_parse_int(tok, s) for tok in toks):
            raise ElementParseError(f"not an odd staircase: {s!r}")
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
    if tag in _RUN_ELEMENTS:
        kind, build = _RUN_ELEMENTS[tag]
        _require_type(x, kind, f)
        choices = _runs_of(f, x)
        p = check_partition(_concat(tuple((d,) * m for d, m, _ in choices)))
        return (
            runs(p) == tuple((d, m) for d, m, _ in choices)  # one choice per run
            and all(choice in _run_options(f, d, m) for d, m, choice in choices)
            and next(build(p, [(choice,) for _, _, choice in choices])) == x
        )
    if tag == "staircase":
        _require_type(x, tuple, f)
        return is_staircase(check_partition(x))
    if tag == "odd-staircase":
        _require_type(x, OddStaircase, f)
        return x.height >= 0
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
        ways = [0] + [len(_run_options(f, d, m)) for m in range(1, n // d + 1)]
        table = [
            table[w] + sum(ways[m] * table[w - m * d] for m in range(1, w // d + 1))
            for w in range(n + 1)
        ]
    return table


def _run_options(f: Family, d: int, m: int) -> tuple:
    """The choices for m copies of the part d in an element of f.  A choice
    is the run's share of the element, as `_RUN_ELEMENTS` builds it and
    `_run_text` writes it."""
    tag = f.tag
    if tag == "designated":  # which copy is designated: the entry (d, m, i)
        return tuple((d, m, i) for i in range(1, m + 1))
    if tag == "two-color":  # (red, blue) parts: b blue copies; an odd part is red
        blues = range(m + 1) if d % 2 == 0 else (0,)
        return tuple(((d,) * (m - b), (d,) * b) for b in blues)
    if tag == "overpartition":  # the overlined part: the first copy, or none
        return (d,), ()
    if tag == "mod-parts":
        allowed = d % f.modulus in f.residues
    elif tag == "mod-distinct":
        allowed = m == 1 and d % f.modulus in f.residues
    elif tag == "pod":  # no odd part repeats
        allowed = d % 2 == 0 or m == 1
    else:
        raise UnknownFamilyError(f.tag)
    return ((d,) * m,) if allowed else ()  # the run's parts, if allowed


@lru_cache(maxsize=KERNEL_CACHE_SIZE)
def _run_text(tag: str, d: int, m: int, choice) -> str:
    """The tokens of m copies of the part d under one choice of `_run_options`:
    the one writer of a run's text, for slices and `format_element` alike."""
    if tag == "designated":  # the i-th copy primed
        return "+".join(f"{d}'" if j == choice[2] else str(d) for j in range(1, m + 1))
    if tag == "two-color":  # the blue copies first
        return "+".join([f"{d}b"] * len(choice[1]) + [f"{d}r"] * len(choice[0]))
    toks = [str(d)] * m
    if tag == "overpartition" and choice:  # the first copy overlined
        toks[0] += "~"
    return "+".join(toks)


def _runs_of(f: Family, x: Any) -> tuple[tuple[int, int, Any], ...]:
    """(d, m, choice) for each run of m copies of a part d of x, magnitudes as
    x holds them: the choice x makes on that run, read back from x."""
    tag = f.tag
    if tag == "designated":
        return tuple((d, m, (d, m, i)) for d, m, i in x.entries)
    if tag == "two-color":
        red, blue = Counter(x.red), Counter(x.blue)
        return tuple(
            (d, red[d] + blue[d], ((d,) * red[d], (d,) * blue[d]))
            for d in sorted(red.keys() | blue.keys(), reverse=True)
        )
    if tag == "overpartition":
        return tuple((d, m, (d,) if d in x.overlined else ()) for d, m in runs(x.parts))
    return tuple((d, m, (d,) * m) for d, m in runs(x))


def _concat(runs: tuple[Partition, ...]) -> Partition:
    return sum(runs, EMPTY)


def _plain_elements(p: Partition, choices: list[tuple]) -> Iterator[Partition]:
    return map(_concat, itertools.product(*choices))


# tag -> (element type, the elements of a partition p given the choices
# allowed on each of its runs): one element per choice for every run, in
# itertools.product order.
_RUN_ELEMENTS = {
    "mod-parts": (tuple, _plain_elements),
    "mod-distinct": (tuple, _plain_elements),
    "pod": (tuple, _plain_elements),
    "overpartition": (Overpartition, lambda p, choices: map(
        Overpartition, itertools.repeat(p), map(_concat, itertools.product(*choices))
    )),
    "designated": (DesignatedPartition, lambda p, choices: map(
        DesignatedPartition, itertools.product(*choices)
    )),
    "two-color": (TwoColorPartition, lambda p, choices: map(
        TwoColorPartition,
        map(_concat, itertools.product(*([red for red, _ in run] for run in choices))),
        map(_concat, itertools.product(*([blue for _, blue in run] for run in choices))),
    )),
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
        # The same text format_element gives, joined from the writer's texts
        # of the run choices, which are made once per run (d, m) of the slice.
        tag = f.tag
        elements = _RUN_ELEMENTS[tag][1]
        options = {}  # (d, m) -> (choices, their texts)
        pairs = []
        for p in _ordinary_partitions(n):
            per_run = []
            for run in runs(p):
                if run not in options:
                    choices = _run_options(f, *run)
                    options[run] = choices, [_run_text(tag, *run, c) for c in choices]
                per_run.append(options[run])
                if not options[run][0]:
                    break  # a run with no choice: p gives no element
            else:
                pairs += zip(
                    map("+".join, itertools.product(*(texts for _, texts in per_run))),
                    elements(p, [choices for choices, _ in per_run]),
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
