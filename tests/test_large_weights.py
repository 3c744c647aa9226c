"""Property tests for the bijections and the orbit operator at weights 50-300,
far beyond the exhaustive range (n <= 24) of the other suites, and for the
component kernels phi and wright at weights 1000-5000.

Each strategy draws a weight, then an element of that weight: a designated
partition, a two-color partition, or a pair of pod partitions; or an image
tuple of pd, a or pod2, checked in the other direction.
"""

from hypothesis import assume, given, settings, strategies as st

from family_generators import designated
from vrank.bijections import (
    CoreQuotientTriple,
    WrightDecomposition,
    phi,
    phi_inv,
    wright,
    wright_inv,
)
from vrank.families import (
    A,
    DISTINCT_ODD,
    OddStaircase,
    PD,
    POD2,
    TwoColorPartition,
    VTuple,
    element_weight,
    is_member,
)
from vrank.orbits import classify_case, family_bijection, o_hat, v_rank
from vrank.partition import is_staircase, make_partition, scale2, staircase

WEIGHTS = st.integers(50, 300)
LARGE = settings(max_examples=60, deadline=None)


@st.composite
def partitions_of(draw, total, largest=60):
    """A partition of `total` into parts of at most `largest`: drawn parts, the
    last one cut to fit, then parts of `largest` and a remainder for what is
    left."""
    left, parts = total, []
    for v in draw(st.lists(st.integers(1, largest), max_size=30)):
        if not left:
            break
        parts.append(min(v, left))
        left -= parts[-1]
    parts += [largest] * (left // largest) + [left % largest] * (left % largest > 0)
    return make_partition(parts)


def _pod(p):
    """Merge each pair of equal odd parts into one even part: a partition of
    the same weight whose odd parts are distinct."""
    parts = []
    for v in set(p):
        m = p.count(v)
        parts += [v] * (m % 2) + [2 * v] * (m // 2) if v % 2 else [v] * m
    return make_partition(parts)


@st.composite
def designated_partitions(draw):
    p = draw(partitions_of(draw(WEIGHTS)))
    entries = []
    for d in sorted(set(p), reverse=True):
        m = p.count(d)
        entries.append((d, m, draw(st.integers(1, m))))
    return designated(tuple(entries))


@st.composite
def two_color_partitions(draw):
    n = draw(WEIGHTS)
    half_blue = draw(st.integers(0, n // 2))
    red = draw(partitions_of(n - 2 * half_blue))
    blue = scale2(draw(partitions_of(half_blue)))
    return TwoColorPartition(red, blue)


@st.composite
def pod_pairs(draw):
    n = draw(WEIGHTS)
    first = draw(st.integers(0, n))
    pair = (_pod(draw(partitions_of(first))), _pod(draw(partitions_of(n - first))))
    return VTuple(pair)


def check_bijection_and_orbit(family, x):
    forward, inverse, image = family_bijection(family)
    n = element_weight(family, x)
    assert is_member(family, x) and 50 <= n <= 300
    v = forward(x)
    assert is_member(image, v)
    assert v.weight == n
    assert inverse(v) == x
    case = classify_case(v)
    if n % 3 == 2:
        # no tail component carries weight == 2 mod 3, so the first three
        # components carry a nonzero residue and the operator is defined
        assert case is not None
    if case is None:
        return
    orbit = [v, o_hat(v)]
    orbit.append(o_hat(orbit[1]))
    assert o_hat(orbit[2]) == v
    assert all(classify_case(u) == case and u.weight == n for u in orbit)
    assert {v_rank(u) % 3 for u in orbit} == {0, 1, 2}
    pullbacks = [inverse(u) for u in orbit]
    assert pullbacks[0] == x
    assert len(set(pullbacks)) == 3
    assert all(element_weight(family, y) == n for y in pullbacks)


@LARGE
@given(designated_partitions())
def test_pd_at_large_weights(x):
    check_bijection_and_orbit(PD, x)


@LARGE
@given(two_color_partitions())
def test_a_at_large_weights(x):
    check_bijection_and_orbit(A, x)


@LARGE
@given(pod_pairs())
def test_pod2_at_large_weights(x):
    check_bijection_and_orbit(POD2, x)


# --- the image-space direction: forward(inverse(v)) == v ---------------------

@st.composite
def image_tuples(draw, tails):
    """A tuple of weight 50..300: a drawn tail, then three partitions into
    even parts sharing the even weight left over."""
    tail = draw(tails)
    tail_weight = VTuple(tail).weight
    half = draw(st.integers(max(0, (51 - tail_weight) // 2), (300 - tail_weight) // 2))
    first = draw(st.integers(0, half))
    second = draw(st.integers(0, half - first))
    triple = tuple(scale2(draw(partitions_of(w))) for w in (first, second, half - first - second))
    return VTuple(triple + tail)


STAIRCASES = st.integers(0, 12).map(staircase)
DISTINCT_TRIPLES = st.sets(st.integers(1, 12), max_size=4).map(
    lambda s: tuple(sorted((3 * v for v in s), reverse=True))
)
ODD_STAIRCASES = st.integers(0, 12).flatmap(
    lambda m: st.builds(OddStaircase, st.just(m), st.booleans() if m else st.just(False))
)


def check_image_round_trip(family, v):
    forward, inverse, image = family_bijection(family)
    n = v.weight
    assert is_member(image, v) and 50 <= n <= 300
    x = inverse(v)
    assert is_member(family, x)
    assert element_weight(family, x) == n
    assert forward(x) == v


@LARGE
@given(image_tuples(st.tuples(STAIRCASES, DISTINCT_TRIPLES)))
def test_pd_image_at_large_weights(v):
    check_image_round_trip(PD, v)


@LARGE
@given(image_tuples(st.tuples(STAIRCASES)))
def test_a_image_at_large_weights(v):
    check_image_round_trip(A, v)


@LARGE
@given(image_tuples(st.tuples(ODD_STAIRCASES)))
def test_pod2_image_at_large_weights(v):
    check_image_round_trip(POD2, v)


# --- the component kernels at weights 1000-5000, both directions -------------

KERNEL_WEIGHTS = st.integers(1000, 5000)
KERNEL = settings(max_examples=8, deadline=None)


@KERNEL
@given(KERNEL_WEIGHTS.flatmap(lambda n: partitions_of(n, largest=400)))
def test_phi_round_trip_at_kernel_weights(p):
    t = phi(p)
    assert is_staircase(t.core)
    assert sum(t.core) + sum(t.even_a) + sum(t.even_b) == sum(p)
    assert phi_inv(t) == p


@KERNEL
@given(KERNEL_WEIGHTS, st.integers(0, 40), st.data())
def test_phi_inv_round_trip_at_kernel_weights(n, h, data):
    half = (n - h * (h + 1) // 2) // 2
    first = data.draw(st.integers(0, half))
    quotients = [scale2(data.draw(partitions_of(w, largest=200))) for w in (first, half - first)]
    t = CoreQuotientTriple(staircase(h), *quotients)
    p = phi_inv(t)
    assert sum(p) == sum(t.core) + sum(t.even_a) + sum(t.even_b)
    assert phi(p) == t


def _distinct_odd(halves) -> tuple[int, ...]:
    return tuple(sorted((2 * v + 1 for v in halves), reverse=True))


@KERNEL
@given(*[st.sets(st.integers(0, 100), min_size=5, max_size=25).map(_distinct_odd)] * 2)
def test_wright_round_trip_at_kernel_weights(mu1, mu2):
    assume(1000 <= sum(mu1) + sum(mu2) <= 5000)
    w = wright(mu1, mu2)
    assert sum(w.pi) + w.triangle.weight == sum(mu1) + sum(mu2)
    assert wright_inv(w) == (mu1, mu2)


@KERNEL
@given(KERNEL_WEIGHTS, st.integers(0, 30), st.booleans(), st.data())
def test_wright_inv_round_trip_at_kernel_weights(n, m, overlined, data):
    pi = scale2(data.draw(partitions_of((n - m * m) // 2, largest=200)))
    w = WrightDecomposition(pi, OddStaircase(m, overlined and m > 0))
    mu1, mu2 = wright_inv(w)
    assert is_member(DISTINCT_ODD, mu1) and is_member(DISTINCT_ODD, mu2)
    assert sum(mu1) + sum(mu2) == sum(pi) + m * m
    assert wright(mu1, mu2) == w
