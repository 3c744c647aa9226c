"""Integer partitions as weakly decreasing tuples, plus Frobenius symbols.

A partition is stored as a tuple of positive integers in weakly decreasing
order; the empty tuple is the unique partition of 0.  All operations here are
pure functions on those tuples, so values are freely shareable and hashable;
`runs`, which the bijections read multiplicities from, is memoized.  `Record`
is the base of the package's other read-only value types.
"""

from functools import lru_cache
from itertools import groupby
from typing import Iterable, NamedTuple

Partition = tuple[int, ...]

EMPTY: Partition = ()

# Distinct arguments each memoized component function remembers: enough for
# every argument `verify` meets at the default ceiling, and a cap on memory
# above it.
KERNEL_CACHE_SIZE = 1 << 14


class ResidueSplit(NamedTuple):
    selected: Partition
    complement: Partition
    residue: int


class FrobeniusSymbol(NamedTuple):
    top: tuple[int, ...]
    bottom: tuple[int, ...]


class InvalidPartitionError(ValueError):
    pass


class InvalidFrobeniusError(ValueError):
    pass


class Record:
    """Base of the read-only value types: its fields are its `__slots__`.

    A subclass names its fields in `__slots__` and stores them in its own
    `__init__` with `object.__setattr__`; afterwards setting or deleting an
    attribute raises AttributeError.  Values are equal only to values of the
    same class with equal fields, hash by their fields, repr as
    `Name(field=value, ...)`, and pickle and copy through their constructor.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()


def make_partition(parts: Iterable[int]) -> Partition:
    """Sort parts into canonical (weakly decreasing) order, dropping nothing."""
    out = tuple(sorted(parts, reverse=True))
    if out and out[-1] < 1:
        raise InvalidPartitionError(f"parts must be positive, got {out[-1]}")
    return out


def weight(p: Partition) -> int:
    return sum(p)


def conjugate(p: Partition) -> Partition:
    """Transpose of the Ferrers graph.  Involution, weight preserving.

    Column i has k cells for p[k] <= i < p[k - 1] (p[len(p)] = 0), so the
    columns are written from the last part up, in O(len(p) + p[0]) steps."""
    cols: list[int] = []
    below = 0
    for k in range(len(p), 0, -1):
        cols.extend([k] * (p[k - 1] - below))
        below = p[k - 1]
    return tuple(cols)


@lru_cache(maxsize=KERNEL_CACHE_SIZE)
def runs(p: Partition) -> tuple[tuple[int, int], ...]:
    """(magnitude, multiplicity) of each run of equal parts, magnitudes
    decreasing; memoized for the bijections' kernels, which key by `==`."""
    return tuple((d, len(tuple(run))) for d, run in groupby(p))


def union(p: Partition, q: Partition) -> Partition:
    """Multiset union of the parts, re-sorted; with one side empty, the
    other side itself, so a union that adds nothing builds nothing."""
    return tuple(sorted(p + q, reverse=True)) if p and q else p or q


def scale2(p: Partition) -> Partition:
    """Double every part."""
    return tuple(2 * v for v in p)


def halve(p: Partition) -> Partition:
    """Halve every part; rejects odd parts."""
    if any(v % 2 for v in p):
        raise InvalidPartitionError(f"halve requires even parts: {p}")
    return tuple(v // 2 for v in p)


def canonical_residue3(i: int) -> int:
    """Accept +1/-1 (or any integer spelling) and return the residue mod 3."""
    r = i % 3
    if r == 0:
        raise ValueError("residue must be nonzero mod 3")
    return r


def count_residue3(p: Partition, i: int) -> int:
    """Number of parts congruent to i mod 3 (i = -1 means parts == 2 mod 3)."""
    r = canonical_residue3(i)
    return sum(1 for v in p if v % 3 == r)


def split_by_residue3(p: Partition, i: int) -> ResidueSplit:
    """Split p into the parts == i mod 3 and the rest."""
    r = canonical_residue3(i)
    selected = tuple(v for v in p if v % 3 == r)
    complement = tuple(v for v in p if v % 3 != r)
    return ResidueSplit(selected, complement, r)


def is_staircase(p: Partition) -> bool:
    """True iff p is (k, k-1, ..., 2, 1) for some k >= 0."""
    return p == tuple(range(len(p), 0, -1))


def staircase(k: int) -> Partition:
    return tuple(range(k, 0, -1))


def all_parts_even(p: Partition) -> bool:
    return all(v % 2 == 0 for v in p)


def to_frobenius(p: Partition) -> FrobeniusSymbol:
    """Arm/leg lengths read off the Ferrers diagonal.

    Only the first d column lengths are needed (d the Durfee size); column i
    has as many cells as p has parts > i, found by walking a cursor up from
    the last part, in O(len(p) + d) steps."""
    d = 0
    while d < len(p) and p[d] > d:
        d += 1
    top = tuple(p[i] - i - 1 for i in range(d))
    bottom = []
    k = len(p)  # parts p[:k] are the ones > i
    for i in range(d):
        while p[k - 1] <= i:
            k -= 1
        bottom.append(k - i - 1)
    return FrobeniusSymbol(top, tuple(bottom))


def check_frobenius(f: FrobeniusSymbol) -> FrobeniusSymbol:
    top, bottom = f
    if len(top) != len(bottom):
        raise InvalidFrobeniusError(f"row lengths differ: {f}")
    for row in (top, bottom):
        if any(row[i] <= row[i + 1] for i in range(len(row) - 1)):
            raise InvalidFrobeniusError(f"rows must strictly decrease: {f}")
        if row and row[-1] < 0:
            raise InvalidFrobeniusError(f"rows must be nonnegative: {f}")
    return f


def from_frobenius(f: FrobeniusSymbol) -> Partition:
    """Rebuild the partition whose diagonal decomposition is f."""
    top, bottom = check_frobenius(f)
    d = len(top)
    rows = [top[i] + i + 1 for i in range(d)]
    cols = [bottom[i] + i + 1 for i in range(d)]
    # Rows below the diagonal come from the column (leg) lengths.
    extra = [sum(1 for c in cols if c > r) for r in range(d, max(cols, default=0))]
    return tuple(rows) + tuple(v for v in extra if v > 0)
