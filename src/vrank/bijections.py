"""The four bijection pipelines and their exact inverses.

* phi / phi_inv: 2-core and 2-quotient of an ordinary partition, realized on a
  two-runner abacus of beta numbers.  Orientation is pinned so that
  phi((4,4,2,2,1)) = ((1,), (2,), (6, 4)).
* delta / psi: the designated-summand split and the multiplicity->=2 repack.
  A `DesignatedPartition` holds its split (alpha, beta), so delta reads it
  and delta_inv checks beta and wraps the two partitions it is given.
* lambda_pd, lambda_a, lambda_pod: the full pipelines into V-tuples.
* wright / wright_inv: the modified Wright map between pairs of distinct-odd
  partitions and (even partition, odd staircase with optional overline).

phi and wright, and their inverses, share one abacus of beta numbers:
`_levels` writes a partition's beta set and `_partition_from_levels` reads
one back.  phi sorts the beads onto two runners; the Wright map is the
charged Maya diagram whose beads at positions >= 0 are the halves of mu1,
whose gaps below 0 are the halves of mu2, and whose charge is the height
of the staircase, negated when its 1 is overlined.

The pipelines factor an element into independent components, so exhaustive
slices feed phi, psi and wright (and their inverses) the same component many
times.  Those six kernels are pure and return immutable values, so each keeps
an `lru_cache` of its last `KERNEL_CACHE_SIZE` distinct arguments; an input a
kernel rejects is not cached and raises again on every call.  `phi_inv` and
`wright_inv` take a `CoreQuotientTriple` or `WrightDecomposition`, or the
plain tuple of its fields: a named tuple hashes and compares as that tuple,
so both forms share one cache entry, and the pipelines pass plain tuples.
"""

from functools import lru_cache
from typing import NamedTuple

from .families import DesignatedPartition, OddStaircase, TwoColorPartition, VTuple
from .partition import (
    KERNEL_CACHE_SIZE,
    InvalidPartitionError,
    Partition,
    all_parts_even,
    halve,
    is_staircase,
    runs,
    scale2,
    staircase,
    union,
)


class CoreQuotientTriple(NamedTuple):
    core: Partition   # staircase
    even_a: Partition  # 2 * first quotient
    even_b: Partition  # 2 * second quotient


class WrightDecomposition(NamedTuple):
    pi: Partition
    triangle: OddStaircase


# --- 2-core / 2-quotient ----------------------------------------------------
#
# On an abacus with an even number of beads the 2-core is fixed by the runner
# charge d = beads0 - beads1: it is the staircase of height d - 1 when d > 0
# and of height -d otherwise (James-Kerber, 2.7).

def _levels(p: Partition, beads: int) -> list[int]:
    """The beta set of p on `beads` beads (at least len(p)), decreasing."""
    top = beads - 1
    return [v + top - j for j, v in enumerate(p)] + list(range(beads - len(p) - 1, -1, -1))


def _partition_from_levels(levels: list[int]) -> Partition:
    """Partition whose beta set (for len(levels) beads) is `levels`, given
    strictly decreasing: the inverse of `_levels`."""
    top = len(levels) - 1
    return tuple(v - top + j for j, v in enumerate(levels) if v > top - j)


@lru_cache(maxsize=KERNEL_CACHE_SIZE)
def phi(p: Partition) -> CoreQuotientTriple:
    """2-core and doubled 2-quotient, via beads on two runners.

    Beta numbers are taken for an even number of beads; runner 0 (even
    positions) carries the first quotient, runner 1 the second.  The beta set
    is strictly decreasing, so each runner's levels come out decreasing.
    """
    runners = ([], [])
    for b in _levels(p, len(p) + len(p) % 2):
        runners[b % 2].append(b // 2)
    charge = len(runners[0]) - len(runners[1])
    return CoreQuotientTriple(
        staircase(charge - 1 if charge > 0 else -charge),
        scale2(_partition_from_levels(runners[0])),
        scale2(_partition_from_levels(runners[1])),
    )


@lru_cache(maxsize=KERNEL_CACHE_SIZE)
def phi_inv(t: CoreQuotientTriple) -> Partition:
    """Rebuild the partition from its 2-core and doubled 2-quotient.

    The core fixes the runner charge (even, as the bead count is); the bead
    counts are the fewest with that charge that hold both quotients, and any
    larger even count gives the same partition.  Runner r's beads sit at
    positions 2j + r for its zero levels, then at e + 2j + r for the part e of
    its doubled quotient at ascending index j.
    """
    core, even_a, even_b = t
    if not is_staircase(core):
        raise InvalidPartitionError(f"core must be a staircase: {core}")
    if any(e % 2 for e in even_a + even_b):
        raise InvalidPartitionError(f"quotient parts must be even: {even_a}, {even_b}")
    h = len(core)
    charge = h + 1 if h % 2 else -h
    c1 = max(len(even_b), len(even_a) - charge)
    c0 = c1 + charge
    positions = []
    for q, count, runner in ((even_a, c0, 0), (even_b, c1, 1)):
        zeros = count - len(q)
        positions += range(runner, 2 * zeros, 2)
        positions += [e + 2 * j + runner for j, e in enumerate(reversed(q), zeros)]
    return _partition_from_levels(sorted(positions, reverse=True))


# --- designated summands ----------------------------------------------------

def delta(dp: DesignatedPartition) -> tuple[Partition, Partition]:
    """Split into (alpha, beta): a part whose designated copy is the first goes
    wholly to alpha; otherwise the designated index counts its copies in beta.
    The element holds this split, so delta reads its two fields."""
    return dp.alpha, dp.beta


def delta_inv(alpha: Partition, beta: Partition) -> DesignatedPartition:
    """Invert `delta`: a part of beta must occur at least twice."""
    for d, b in runs(beta):
        if b < 2:
            raise InvalidPartitionError(f"beta magnitude {d} occurs once")
    return DesignatedPartition(alpha, beta)


@lru_cache(maxsize=KERNEL_CACHE_SIZE)
def psi(beta: Partition) -> tuple[Partition, Partition]:
    """Repack a multiplicity->=2 partition as (even parts, distinct triples).

    Magnitudes are visited in decreasing order, so both outputs come out
    decreasing."""
    even_part, triples = [], []
    for d, m in runs(beta):
        if m < 2:
            raise InvalidPartitionError(f"magnitude {d} occurs once in {beta}")
        if m % 2:
            triples.append(3 * d)
            m -= 3
        even_part.extend([2 * d] * (m // 2))
    return tuple(even_part), tuple(triples)


@lru_cache(maxsize=KERNEL_CACHE_SIZE)
def psi_inv(even_part: Partition, triples: Partition) -> Partition:
    if len(set(triples)) != len(triples) or any(v % 3 for v in triples):
        raise InvalidPartitionError(f"triples must be distinct multiples of 3: {triples}")
    if not all_parts_even(even_part):
        raise InvalidPartitionError(f"even component has an odd part: {even_part}")
    beta = []
    for v in even_part:
        beta.extend([v // 2] * 2)
    for v in triples:
        beta.extend([v // 3] * 3)
    return tuple(sorted(beta, reverse=True))


def lambda_pd(dp: DesignatedPartition) -> VTuple:
    alpha, beta = delta(dp)
    core, l1, l2 = phi(alpha)
    l3, l5 = psi(beta)
    return VTuple((l1, l2, l3, core, l5))


def lambda_pd_inv(v: VTuple) -> DesignatedPartition:
    l1, l2, l3, core, l5 = v.components
    return delta_inv(phi_inv((core, l1, l2)), psi_inv(l3, l5))


# --- two-color partitions ---------------------------------------------------

def lambda_a(tc: TwoColorPartition) -> VTuple:
    core, l1, l2 = phi(tc.red)
    return VTuple((l1, l2, tc.blue, core))


def lambda_a_inv(v: VTuple) -> TwoColorPartition:
    l1, l2, l3, core = v.components
    return TwoColorPartition(phi_inv((core, l1, l2)), l3)


# --- modified Wright map ----------------------------------------------------

def _odd_distinct_halves(mu: Partition) -> list[int]:
    if any(v < 1 or v % 2 == 0 for v in mu) or any(a <= b for a, b in zip(mu, mu[1:])):
        raise InvalidPartitionError(f"parts must be odd, positive and strictly decreasing: {mu}")
    return [v // 2 for v in mu]


@lru_cache(maxsize=KERNEL_CACHE_SIZE)
def wright(mu1: Partition, mu2: Partition) -> WrightDecomposition:
    """Map a pair of distinct-odd partitions to (even partition, odd staircase).

    With mu1 = (2a_i + 1) and mu2 = (2b_i + 1), the a are the beads at
    positions >= 0 and the -1 - b the gaps below 0 of a Maya diagram of
    charge m = len(a) - len(b).  Read on the beads from position -depth up,
    the diagram is the beta set of gamma, and pi = 2 * gamma; the staircase
    has height |m| and its 1 is overlined when m < 0.
    """
    a = _odd_distinct_halves(mu1)
    b = _odd_distinct_halves(mu2)
    depth = b[0] + 1 if b else 0  # every gap lies at -depth or above
    gaps = {depth - 1 - v for v in b}
    levels = [v + depth for v in a] + [j for j in range(depth - 1, -1, -1) if j not in gaps]
    m = len(a) - len(b)
    return WrightDecomposition(scale2(_partition_from_levels(levels)), OddStaircase(abs(m), m < 0))


@lru_cache(maxsize=KERNEL_CACHE_SIZE)
def wright_inv(w: WrightDecomposition) -> tuple[Partition, Partition]:
    """Invert `wright`: the beta set of pi / 2 on len(pi) + height beads is
    the Maya diagram of charge m (the height, negated when the 1 is
    overlined) read from position m - beads up."""
    pi, tri = w
    if any(v < 1 for v in pi) or any(x < y for x, y in zip(pi, pi[1:])):
        raise InvalidPartitionError(f"pi must be positive and weakly decreasing: {pi}")
    gamma = halve(pi)  # refuses an odd part
    beads = len(gamma) + tri.height
    depth = beads + tri.height if tri.one_overlined else beads - tri.height
    levels = _levels(gamma, beads)
    occupied = set(levels)
    mu1 = tuple(2 * (v - depth) + 1 for v in levels if v >= depth)
    mu2 = tuple(2 * (depth - 1 - j) + 1 for j in range(depth) if j not in occupied)
    return mu1, mu2


# --- POD bipartitions -------------------------------------------------------

def _split_even_odd(p: Partition) -> tuple[Partition, Partition]:
    even, odd = [], []
    for v in p:
        (odd if v % 2 else even).append(v)
    return tuple(even), tuple(odd)


def lambda_pod(b: VTuple) -> VTuple:
    first, second = b.components
    l1, mu1 = _split_even_odd(first)
    l2, mu2 = _split_even_odd(second)
    pi, tri = wright(mu1, mu2)
    return VTuple((l1, l2, pi, tri))


def lambda_pod_inv(v: VTuple) -> VTuple:
    l1, l2, pi, tri = v.components
    mu1, mu2 = wright_inv((pi, tri))
    return VTuple((union(l1, mu1), union(l2, mu2)))
