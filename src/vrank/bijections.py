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
    FrobeniusSymbol,
    InvalidPartitionError,
    Partition,
    all_parts_even,
    conjugate,
    from_frobenius,
    halve,
    is_staircase,
    runs,
    scale2,
    staircase,
    to_frobenius,
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

def _partition_from_levels(levels: list[int]) -> Partition:
    """Partition whose beta set (for len(levels) beads) is `levels`."""
    parts = [v - j for j, v in enumerate(sorted(levels))]  # increasing: zeros first
    return tuple(parts[parts.count(0):][::-1])


def _doubled_quotient(levels: list[int]) -> Partition:
    """Twice the partition whose beta set is `levels`, given strictly decreasing."""
    top = len(levels) - 1
    return tuple(2 * (v - top + j) for j, v in enumerate(levels) if v > top - j)


@lru_cache(maxsize=KERNEL_CACHE_SIZE)
def phi(p: Partition) -> CoreQuotientTriple:
    """2-core and doubled 2-quotient, via beads on two runners.

    Beta numbers are taken for an even number of beads; runner 0 (even
    positions) carries the first quotient, runner 1 the second.  The beta set
    is strictly decreasing, so each runner's levels come out decreasing.
    """
    top = len(p) + len(p) % 2 - 1  # an even bead count, minus one
    runner0, runner1 = [], []
    for j, v in enumerate(p):
        b = v + top - j
        if b % 2:
            runner1.append(b // 2)
        else:
            runner0.append(b // 2)
    if len(p) % 2:
        runner0.append(0)  # the one zero part padding to an even bead count
    charge = len(runner0) - len(runner1)
    return CoreQuotientTriple(
        staircase(charge - 1 if charge > 0 else -charge),
        _doubled_quotient(runner0),
        _doubled_quotient(runner1),
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
    return _partition_from_levels(positions)


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
    if any(v % 2 == 0 for v in mu) or len(set(mu)) != len(mu):
        raise InvalidPartitionError(f"parts must be distinct and odd: {mu}")
    return [(v - 1) // 2 for v in mu]


@lru_cache(maxsize=KERNEL_CACHE_SIZE)
def wright(mu1: Partition, mu2: Partition) -> WrightDecomposition:
    """Map a pair of distinct-odd partitions to (even partition, odd staircase).

    With mu1 = (2a_i + 1) and mu2 = (2b_i + 1), a is the longer row (the
    rows swap when mu1 is shorter) and m = len(a) - len(b): the Frobenius
    symbol is the a-tail over the b's and the adjustment partition comes from
    the a-head.  The swapped side conjugates, marking the staircase's 1 with
    an overline.
    """
    a = _odd_distinct_halves(mu1)
    b = _odd_distinct_halves(mu2)
    swapped = len(a) < len(b)
    if swapped:
        a, b = b, a
    m = len(a) - len(b)
    sym = FrobeniusSymbol(tuple(a[m:]), tuple(b))
    nu = tuple(a[j] - m + (j + 1) for j in range(m))
    gamma = union(from_frobenius(sym), tuple(v for v in nu if v > 0))
    if swapped:
        gamma = conjugate(gamma)
    return WrightDecomposition(scale2(gamma), OddStaircase(m, swapped))


@lru_cache(maxsize=KERNEL_CACHE_SIZE)
def wright_inv(w: WrightDecomposition) -> tuple[Partition, Partition]:
    """Invert `wright`.

    Every adjustment-partition part is >= the largest part of the Frobenius
    partition, so the |m| largest parts of the halved (and, for the overlined
    branch, conjugated) pi recover nu; the rest recovers the Frobenius symbol.
    """
    pi, tri = w
    k = tri.height
    gamma = halve(pi)  # refuses an odd part
    if tri.one_overlined:
        gamma = conjugate(gamma)
    nu = list(gamma[:k]) + [0] * (k - len(gamma[:k]))
    top, bottom = to_frobenius(gamma[k:])
    head = tuple(nu[j] + k - (j + 1) for j in range(k))
    if tri.one_overlined:
        b, a = head + top, bottom
    else:
        a, b = head + top, bottom
    for row in (a, b):
        if any(row[i] <= row[i + 1] for i in range(len(row) - 1)):
            raise InvalidPartitionError(
                f"not in the image of the map: {WrightDecomposition(pi, tri)}"
            )
    mu1 = tuple(2 * v + 1 for v in a)
    mu2 = tuple(2 * v + 1 for v in b)
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
