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
gives the choices, `_run_text` writes a choice's tokens, `_runs_of` reads
back the choice an element makes on each run, and `_RUN_ELEMENTS` builds
elements from the choices alone.  A designated partition is held as its
δ-split (alpha, beta), so its choice is a pair of pieces, as a two-colour
choice is (red, blue) and an overpartition's (parts, overlined): the three
share one pair builder.  `count_family` sweeps one table per family
with the number of choices and writes nothing, in place and in plain loops
(under CPython <= 3.11 a comprehension is a call per cell); a weight slice
walks the partitions of n as it generates them, run (d, m) by run, keeps none,
and cuts each branch at a run with no choice, so no run is recounted; it joins
each element's text from its choices' texts, so none is formatted only to be
sorted; and `format_element` joins the texts of an element's runs.  The
writer's text decides reading and membership for every family: `parse_element`
reads a text only as the writer's text of an element (run by run from the
choices' texts, or for a staircase from `_generate`'s elements of its weight),
so each element has one text, and `is_member` holds exactly for a value whose
text reads back as itself.  A vector's counts convolve its components'
tables, and a staircase family is counted from its generator.

A weight slice is a pair of parallel tuples (canonical texts, elements)
sorted by text.  The slices of vector *components* are memoized per (family,
weight) in `_component_slice`, so a vector slice is the product of cached
pools over the weight splits whose pools are all nonempty, and its text is
joined from the cached component texts.  Top-level slices are not cached:
`enumerate_family` builds each one afresh and returns a new list.  No cache
of partitions is kept: one was hit only by a second family sliced at the same
weight in one process, never within a single-family CLI call.
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


# object.__setattr__ looked up once: the record constructors store their
# fields through it, each at about half the cost of a lookup per field.
_store = object.__setattr__


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
        _store(self, "tag", tag)
        _store(self, "modulus", modulus)
        _store(self, "residues", residues)
        _store(self, "components", components)
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
        _store(self, "parts", parts)
        _store(self, "overlined", overlined)

    @property
    def weight(self) -> int:
        return sum(self.parts)


class DesignatedPartition(Record):
    """A partition with one copy of each part designated, held as its δ-split:
    a part d with m copies whose i-th copy is designated puts i copies in
    beta when i >= 2, and all m in alpha when i = 1.  So each part of beta
    occurs at least twice, and the designated copy is the count in beta, or 1."""

    __slots__ = ("alpha", "beta")

    def __init__(self, alpha: Partition, beta: Partition):
        _store(self, "alpha", alpha)
        _store(self, "beta", beta)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.alpha == other.alpha and self.beta == other.beta

    def __hash__(self):
        return hash((self.alpha, self.beta))

    @property
    def weight(self) -> int:
        return sum(self.alpha) + sum(self.beta)


class TwoColorPartition(Record):
    __slots__ = ("red", "blue")  # blue: all parts even

    def __init__(self, red: Partition, blue: Partition):
        _store(self, "red", red)
        _store(self, "blue", blue)

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
        if not isinstance(height, int) or height < 0:
            raise InvalidPartitionError(f"odd staircase height must be an int >= 0, got {height!r}")
        if height == 0 and one_overlined:
            raise InvalidPartitionError("empty odd staircase cannot be overlined")
        _store(self, "height", height)
        _store(self, "one_overlined", one_overlined)

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
        _store(self, "components", components)

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
    type, member or not, so an error message can always show the value; a
    value of another type, or a vector value with the wrong number of
    components, raises ShapeMismatchError."""
    tag = f.tag
    _require_type(f, x)
    if tag in _RUN_ELEMENTS:
        toks = [_run_text(tag, d, m, choice) for d, m, choice in _runs_of(f, x)]
    elif tag == "staircase":
        toks = map(str, x)
    elif tag == "odd-staircase":
        toks = [str(v) for v in x.parts]
        if x.one_overlined:
            toks[-1] += "~"
    else:  # a vector
        k = len(x.components)
        if k != len(f.components):
            raise ShapeMismatchError(f"expected {len(f.components)} components, got {k}")
        return "(" + ";".join(map(format_element, f.components, x.components)) + ")"
    return "+".join(toks) or "0"


def parse_element(f: Family, s: str) -> Any:
    """The element whose text `format_element` writes as s, and no other text:
    each run must be the writer's text of one of its choices, and a staircase
    text the writer's text of an element of its weight from `_generate`."""
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
    parts = tuple(_parse_int(tok.rstrip("'~rb"), s) for tok in toks)  # marks follow the digits
    if any(a < b for a, b in zip(parts, parts[1:])):
        raise InvalidPartitionError(f"parts not weakly decreasing in {s!r}")
    if tag not in _RUN_ELEMENTS:  # the staircases; _generate refuses any other tag
        weight = sum(parts)  # at most L*L for an element of L parts; build none heavier
        found = _generate(f, weight) if weight <= len(parts) ** 2 else ()
        return _written(s, {format_element(f, y): y for y in found}, f"an element of {tag}")
    chosen, start = [], 0
    for d, m in runs(parts):
        text = "+".join(toks[start:start + m])
        start += m
        by_text = {_run_text(tag, d, m, choice): choice for choice in _run_options(f, d, m)}
        chosen.append((_written(text, by_text, f"a run of {tag}"),))
    return next(_RUN_ELEMENTS[tag][1](chosen))


def _written(text: str, by_text: dict, what: str) -> Any:
    """The value of by_text that the writer writes as text."""
    if text not in by_text:
        listed = f": {', '.join(by_text)}" if 0 < len(by_text) <= 4 else ""
        raise ElementParseError(f"{text!r} is not {what}{listed}")
    return by_text[text]


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
    """True iff x reads back from its own text as itself, compared by repr,
    type for type: 3.0 == 3 and True == 1, but no element has such a part.

    Raises ShapeMismatchError when x is not even the right kind of value.
    """
    text = format_element(f, x)
    try:
        return repr(parse_element(f, text)) == repr(x)
    except (ElementParseError, InvalidPartitionError):
        return False


def _require_type(f: Family, x: Any):
    """Refuses a value not of f's element type, and a family with none."""
    if f.tag not in _ELEMENT_TYPES:
        raise UnknownFamilyError(f.tag)
    kind = _ELEMENT_TYPES[f.tag]
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
            for w in range(n, -1, -1):  # table[v], v <= w, still without g
                total = 0
                for v in range(w + 1):
                    total += table[v] * counts[w - v]
                table[w] = total
        return table
    if f.tag not in _RUN_ELEMENTS:  # the staircases: at most two elements per weight
        return [len(_generate(f, w)) for w in range(n + 1)]
    # The sum over the partitions of n of the product of the run choices:
    # one sweep over the weights per part size d that allows a run, reading
    # only the multiplicities it allows; no partition built.
    table = [1] + [0] * n  # table[w]: the count of weight w with parts < d
    for d in range(1, n + 1):
        ways = [(m * d, k) for m in range(1, n // d + 1) if (k := len(_run_options(f, d, m)))]
        if not ways:  # no run of d: the table is already the count with parts <= d
            continue
        for w in range(n, d - 1, -1):  # table[w - m*d], m >= 1, still without d
            total = table[w]
            for size, k in ways:
                if size > w:
                    break
                total += k * table[w - size]
            table[w] = total
    return table


def _run_options(f: Family, d: int, m: int) -> tuple:
    """The choices for m copies of the part d in an element of f.  A choice
    is the run's share of the element, as `_RUN_ELEMENTS` builds it and
    `_run_text` writes it."""
    tag = f.tag
    if tag == "designated":  # (alpha, beta) parts: the i-th copy designated
        return ((d,) * m, ()), *(((d,) * (m - i), (d,) * i) for i in range(2, m + 1))
    if tag == "two-color":  # (red, blue) parts: b blue copies; an odd part is red
        blues = range(m + 1) if d % 2 == 0 else (0,)
        return tuple(((d,) * (m - b), (d,) * b) for b in blues)
    if tag == "overpartition":  # (parts, overlined part): the first copy, or none
        return ((d,) * m, (d,)), ((d,) * m, ())
    if tag == "mod-parts":
        allowed = d % f.modulus in f.residues
    elif tag == "mod-distinct":
        allowed = m == 1 and d % f.modulus in f.residues
    elif tag == "pod":  # no odd part repeats
        allowed = d % 2 == 0 or m == 1
    else:
        raise UnknownFamilyError(f.tag)
    return ((d,) * m,) if allowed else ()  # the run's parts, if allowed


@lru_cache(maxsize=KERNEL_CACHE_SIZE, typed=True)
def _run_text(tag: str, d: int, m: int, choice) -> str:
    """The tokens of m copies of the part d under one choice of `_run_options`:
    the one writer of a run's text, for slices and `format_element` alike.
    Typed, as 1 == 1.0 == True: the text of a part 1.0 or True written by
    `format_element` must not be handed back for the part 1."""
    if tag == "designated":  # the i-th copy primed: i is the count in beta, or 1
        i = len(choice[1]) or 1
        return "+".join(f"{d}'" if j == i else str(d) for j in range(1, m + 1))
    if tag == "two-color":  # the blue copies first
        return "+".join([f"{d}b"] * len(choice[1]) + [f"{d}r"] * len(choice[0]))
    toks = [str(d)] * m
    if tag == "overpartition" and choice[1]:  # the first copy overlined
        toks[0] += "~"
    return "+".join(toks)


def _runs_of(f: Family, x: Any) -> tuple[tuple[int, int, Any], ...]:
    """(d, m, choice) for each run of m copies of a part d of x, magnitudes as
    x holds them: the choice x makes on that run, read back from x.  The runs
    are read past the memo of `runs`, which x, any value of the element type,
    would fill with a 1.0 or True to be handed back for the int twin."""
    tag = f.tag
    if tag in ("designated", "two-color"):  # (alpha, beta) or (red, blue)
        first, second = map(Counter, x._fields())
        return tuple(
            (d, first[d] + second[d], ((d,) * first[d], (d,) * second[d]))
            for d in sorted(first.keys() | second.keys(), reverse=True)
        )
    if tag == "overpartition":
        return tuple(
            (d, m, ((d,) * m, (d,) if d in x.overlined else ()))
            for d, m in runs.__wrapped__(x.parts)
        )
    return tuple((d, m, (d,) * m) for d, m in runs.__wrapped__(x))


def _plain_elements(choices: list[tuple]) -> Iterator[Partition]:
    return (sum(pieces, EMPTY) for pieces in itertools.product(*choices))


def _pair_elements(kind: type):
    """Builds a kind of two fields from (first, second) run choices, run by
    run: each run's pieces extend the fields built so far, so elements that
    agree on their first runs share those runs' concatenations."""
    def build(choices: list[tuple]) -> Iterator:
        fields = [(EMPTY, EMPTY)]
        for run in choices:
            fields = [(a + first, b + second) for a, b in fields for first, second in run]
        return itertools.starmap(kind, fields)
    return build


# tag -> (element type, the elements given the choices allowed on each run):
# one element per choice for every run, in itertools.product order.
_RUN_ELEMENTS = {
    "mod-parts": (tuple, _plain_elements),
    "mod-distinct": (tuple, _plain_elements),
    "pod": (tuple, _plain_elements),
    "overpartition": (Overpartition, _pair_elements(Overpartition)),
    "designated": (DesignatedPartition, _pair_elements(DesignatedPartition)),
    "two-color": (TwoColorPartition, _pair_elements(TwoColorPartition)),
}
_ELEMENT_TYPES = {tag: kind for tag, (kind, _) in _RUN_ELEMENTS.items()}
_ELEMENT_TYPES.update({"staircase": tuple, "odd-staircase": OddStaircase, "vector": VTuple})


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
        table = {  # d -> (m*d, (choices, their texts)) for each m allowed, m rising
            d: [(m * d, (choices, [_run_text(tag, d, m, c) for c in choices]))
                for m in range(1, n // d + 1) if (choices := _run_options(f, d, m))]
            for d in range(1, n + 1)}
        pairs = []
        for per_run in _partitions(table, n, n):
            pairs += zip(
                map("+".join, itertools.product(*(texts for _, texts in per_run))),
                elements([choices for choices, _ in per_run]),
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


def _partitions(table: dict, n: int, top: int) -> Iterator[tuple]:
    """The partitions of n with no part above top, each as its runs' entries in
    a slice's run table: a run with no choice, absent there, cuts its branch."""
    if n == 0:
        yield ()
        return
    for d in range(min(n, top), 0, -1):
        for size, run in table[d]:
            if size > n:
                break
            for tail in _partitions(table, n - size, d - 1):
                yield (run,) + tail


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
    """Resolve a CLI family id, case- and space-exact: a named family, or
    p<t>_<r,...> / d<t>_<r,...>."""
    if name in NAMED_FAMILIES:
        return NAMED_FAMILIES[name]
    if name and name[0] in ("p", "d") and "_" in name:
        head, _, tail = name.partition("_")
        try:
            t, *residues = map(int, (head[1:], *tail.split(",")))
            if name != f"{name[0]}{t}_{','.join(map(str, residues))}":  # numbers as `str` writes them
                raise ValueError(f"non-canonical number in {name!r}")
            residues = tuple(sorted(residues))
            tag = "mod-parts" if name[0] == "p" else "mod-distinct"
            return Family(tag, t, residues)
        except (ValueError, UnknownFamilyError) as e:
            raise UnknownFamilyError(f"bad family id {name!r}") from e
    raise UnknownFamilyError(f"unknown family {name!r}")
