"""Reference generators for the partition-based families, written tag by tag
from each family's definition.  They share no code with the run table in
`vrank.families` (`_run_options` for the choices on each run, `_run_text` to
write one, `_runs_of` to read one back), through which those families are
counted, enumerated, written, read and checked, so the tests can hold that
table against them."""

import itertools

from vrank.families import (
    DesignatedPartition,
    Overpartition,
    TwoColorPartition,
    VTuple,
    _generate,
)


def generate(f, n):
    """The elements of weight n of a non-vector family, in no set order."""
    tag = f.tag
    if tag in ("mod-parts", "mod-distinct"):
        yield from restricted_partitions(
            n, n, f.modulus, set(f.residues), distinct=tag == "mod-distinct"
        )
    elif tag == "pod":  # no odd part repeats
        for p in ordinary_partitions(n):
            odd = [v for v in p if v % 2]
            if len(odd) == len(set(odd)):
                yield p
    elif tag == "overpartition":  # the first copy of any set of magnitudes overlined
        for p in ordinary_partitions(n):
            mags = sorted(set(p), reverse=True)
            for r in range(len(mags) + 1):
                for over in itertools.combinations(mags, r):
                    yield Overpartition(p, over)
    elif tag == "designated":  # one copy of each magnitude designated
        for p in ordinary_partitions(n):
            choices = [
                [(d, len(run), i) for i in range(1, len(run) + 1)]
                for d, run in ((d, list(run)) for d, run in itertools.groupby(p))
            ]
            yield from map(designated, itertools.product(*choices))
    elif tag == "two-color":  # red parts any, blue parts even
        for b in range(0, n + 1, 2):
            for blue in restricted_partitions(b, b, 2, {0}, distinct=False):
                for red in ordinary_partitions(n - b):
                    yield TwoColorPartition(red, blue)
    else:  # the staircases
        yield from _generate(f, n)


def designated(entries):
    """The designated partition with an entry (d, m, i) for each part d of m
    copies, magnitudes decreasing, whose i-th copy is designated.  It is held
    as its split (alpha, beta): beta takes the i copies when i >= 2, and alpha
    takes the rest, or all m when i = 1."""
    alpha, beta = [], []
    for d, m, i in entries:
        moved = i if i >= 2 else 0
        beta += [d] * moved
        alpha += [d] * (m - moved)
    return DesignatedPartition(tuple(alpha), tuple(beta))


def ordinary_partitions(n):
    return list(restricted_partitions(n, n, 1, {0}, distinct=False))


def restricted_partitions(n, max_part, modulus, residues, distinct):
    """Partitions of n, parts at most max_part and == r mod modulus for some
    r in residues, each part used once if distinct."""
    if n == 0:
        yield ()
        return
    for v in range(min(n, max_part), 0, -1):
        if v % modulus not in residues:
            continue
        nxt = v - 1 if distinct else v
        for tail in restricted_partitions(n - v, nxt, modulus, residues, distinct):
            yield (v,) + tail


def weight_splits(n, k):
    """Compositions of n into k nonnegative parts."""
    if k == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in weight_splits(n - first, k - 1):
            yield (first,) + rest


def split_products(f, n):
    """Vector elements built component by component from the generators."""
    for split in weight_splits(n, len(f.components)):
        pools = [list(generate(g, w)) for g, w in zip(f.components, split)]
        for combo in itertools.product(*pools):
            yield VTuple(combo)
