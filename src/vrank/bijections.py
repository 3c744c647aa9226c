"""The four bijection pipelines and their exact inverses.

* phi / phi_inv: 2-core and 2-quotient of an ordinary partition, realized on a
  two-runner abacus of beta numbers.  Orientation is pinned so that
  phi((4,4,2,2,1)) = ((1,), (2,), (6, 4)).
* delta / psi: the designated-summand split and the multiplicity->=2 repack.
* lambda_pd, lambda_a, lambda_pod: the full pipelines into V-tuples.
* wright / wright_inv: the modified Wright map between pairs of distinct-odd
  partitions and (even partition, odd staircase with optional overline).
"""

from functools import lru_cache
from typing import NamedTuple

from .families import (
    A_IMAGE,
    DesignatedPartition,
    OddStaircase,
    PD_IMAGE,
    POD2,
    POD2_IMAGE,
    TwoColorPartition,
    VTuple,
)
from .partition import (
    EMPTY,
    FrobeniusSymbol,
    InvalidPartitionError,
    Partition,
    all_parts_even,
    conjugate,
    from_frobenius,
    halve,
    is_staircase,
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

def _beta_set(p: Partition, size: int) -> list[int]:
    """First-column hook lengths of p padded with zero parts to `size`."""
    parts = list(p) + [0] * (size - len(p))
    return [parts[j] + (size - 1 - j) for j in range(size)]


def _partition_from_levels(levels: list[int]) -> Partition:
    """Partition whose beta set (for len(levels) beads) is `levels`."""
    asc = sorted(levels)
    parts = [v - j for j, v in enumerate(asc)]
    return tuple(v for v in reversed(parts) if v > 0)


def _doubled_quotient(levels: list[int]) -> Partition:
    """Twice the partition whose beta set is `levels`, given strictly decreasing."""
    top = len(levels) - 1
    return tuple(2 * (v - top + j) for j, v in enumerate(levels) if v > top - j)


@lru_cache(maxsize=None)
def _core(beads0: int, beads1: int) -> Partition:
    """The 2-core with `beads0` beads on runner 0 and `beads1` on runner 1, all
    pushed up: beta set {0, 2, .., 2*beads0 - 2} with {1, 3, .., 2*beads1 - 1}."""
    return _partition_from_levels(list(range(0, 2 * beads0, 2)) + list(range(1, 2 * beads1, 2)))


@lru_cache(maxsize=None)
def _runner_counts(height: int, size: int) -> tuple[int, int]:
    """Beads on runners 0 and 1 of the staircase of `height` with `size` beads."""
    even = sum(1 for b in _beta_set(staircase(height), size) if b % 2 == 0)
    return even, size - even


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
    return CoreQuotientTriple(
        _core(len(runner0), len(runner1)),
        _doubled_quotient(runner0),
        _doubled_quotient(runner1),
    )


def phi_inv(t: CoreQuotientTriple) -> Partition:
    """Rebuild the partition from its 2-core and doubled 2-quotient."""
    core, even_a, even_b = t
    if not is_staircase(core):
        raise InvalidPartitionError(f"core must be a staircase: {core}")
    q0, q1 = halve(even_a), halve(even_b)
    size = 2 * max(len(core), len(q0) + len(q1), 1)
    while True:
        c0, c1 = _runner_counts(len(core), size)
        if c0 >= len(q0) and c1 >= len(q1):
            break
        size += 2
    positions = []
    for q, count, parity in ((q0, c0, 0), (q1, c1, 1)):
        asc = [0] * (count - len(q)) + list(q[::-1])
        positions += [2 * (v + j) + parity for j, v in enumerate(asc)]
    return _partition_from_levels(positions)


# --- designated summands ----------------------------------------------------

def delta(dp: DesignatedPartition) -> tuple[Partition, Partition]:
    """Split into (alpha, beta): designated-first magnitudes go wholly to
    alpha; otherwise the designated index counts parts moved to beta."""
    alpha, beta = [], []
    for d, m, i in dp.entries:
        if i == 1:
            alpha.extend([d] * m)
        else:
            beta.extend([d] * i)
            alpha.extend([d] * (m - i))
    return tuple(sorted(alpha, reverse=True)), tuple(sorted(beta, reverse=True))


def delta_inv(alpha: Partition, beta: Partition) -> DesignatedPartition:
    for d in set(beta):
        if beta.count(d) < 2:
            raise InvalidPartitionError(f"beta magnitude {d} occurs once")
    entries = []
    for d in sorted(set(alpha) | set(beta), reverse=True):
        a, b = alpha.count(d), beta.count(d)
        entries.append((d, a + b, b if b else 1))
    return DesignatedPartition(tuple(entries))


def psi(beta: Partition) -> tuple[Partition, Partition]:
    """Repack a multiplicity->=2 partition as (even parts, distinct triples)."""
    even_part, triples = [], []
    for d in sorted(set(beta), reverse=True):
        m = beta.count(d)
        if m < 2:
            raise InvalidPartitionError(f"magnitude {d} occurs once in {beta}")
        if m % 2 == 0:
            even_part.extend([2 * d] * (m // 2))
        else:
            triples.append(3 * d)
            even_part.extend([2 * d] * ((m - 3) // 2))
    return tuple(sorted(even_part, reverse=True)), tuple(sorted(triples, reverse=True))


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
    return VTuple((l1, l2, l3, core, l5), PD_IMAGE)


def lambda_pd_inv(v: VTuple) -> DesignatedPartition:
    l1, l2, l3, core, l5 = v.components
    alpha = phi_inv(CoreQuotientTriple(core, l1, l2))
    beta = psi_inv(l3, l5)
    return delta_inv(alpha, beta)


# --- two-color partitions ---------------------------------------------------

def lambda_a(tc: TwoColorPartition) -> VTuple:
    core, l1, l2 = phi(tc.red)
    return VTuple((l1, l2, tc.blue, core), A_IMAGE)


def lambda_a_inv(v: VTuple) -> TwoColorPartition:
    l1, l2, l3, core = v.components
    return TwoColorPartition(phi_inv(CoreQuotientTriple(core, l1, l2)), l3)


# --- modified Wright map ----------------------------------------------------

def _odd_distinct_halves(mu: Partition) -> list[int]:
    if any(v % 2 == 0 for v in mu) or len(set(mu)) != len(mu):
        raise InvalidPartitionError(f"parts must be distinct and odd: {mu}")
    return [(v - 1) // 2 for v in mu]


def wright(mu1: Partition, mu2: Partition) -> WrightDecomposition:
    """Map a pair of distinct-odd partitions to (even partition, odd staircase).

    With mu1 = (2a_i + 1) and mu2 = (2b_i + 1), the length difference m picks
    the branch: m >= 0 builds a Frobenius symbol from the a-tail over the b's
    and an adjustment partition from the a-head; m < 0 swaps the roles and
    conjugates, marking the staircase's 1 with an overline.
    """
    a = _odd_distinct_halves(mu1)
    b = _odd_distinct_halves(mu2)
    m = len(a) - len(b)
    if m >= 0:
        sym = FrobeniusSymbol(tuple(a[m:]), tuple(b))
        nu = tuple(a[j] - m + (j + 1) for j in range(m))
        pi = scale2(union(from_frobenius(sym), tuple(v for v in nu if v > 0)))
        return WrightDecomposition(pi, OddStaircase(m, False))
    k = -m
    sym = FrobeniusSymbol(tuple(b[k:]), tuple(a))
    nu = tuple(b[j] + m + (j + 1) for j in range(k))
    pi = scale2(conjugate(union(from_frobenius(sym), tuple(v for v in nu if v > 0))))
    return WrightDecomposition(pi, OddStaircase(k, True))


def wright_inv(w: WrightDecomposition) -> tuple[Partition, Partition]:
    """Invert `wright`.

    Every adjustment-partition part is >= the largest part of the Frobenius
    partition, so the |m| largest parts of the halved (and, for the overlined
    branch, conjugated) pi recover nu; the rest recovers the Frobenius symbol.
    """
    pi, tri = w
    if not all_parts_even(pi):
        raise InvalidPartitionError(f"pi must have even parts: {pi}")
    k = tri.height
    gamma = halve(pi)
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
            raise InvalidPartitionError(f"not in the image of the map: {w}")
    mu1 = tuple(2 * v + 1 for v in a)
    mu2 = tuple(2 * v + 1 for v in b)
    return mu1, mu2


# --- POD bipartitions -------------------------------------------------------

def _split_even_odd(p: Partition) -> tuple[Partition, Partition]:
    return (
        tuple(v for v in p if v % 2 == 0),
        tuple(v for v in p if v % 2 == 1),
    )


def lambda_pod(b: VTuple) -> VTuple:
    first, second = b.components
    l1, mu1 = _split_even_odd(first)
    l2, mu2 = _split_even_odd(second)
    pi, tri = wright(mu1, mu2)
    return VTuple((l1, l2, pi, tri), POD2_IMAGE)


def lambda_pod_inv(v: VTuple) -> VTuple:
    l1, l2, pi, tri = v.components
    mu1, mu2 = wright_inv(WrightDecomposition(pi, tri))
    return VTuple((union(l1, mu1), union(l2, mu2)), POD2)
