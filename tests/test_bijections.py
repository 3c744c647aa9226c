import itertools
import random

import pytest
from hypothesis import given, strategies as st

from family_generators import designated
from vrank import bijections
from vrank.bijections import (
    KERNEL_CACHE_SIZE,
    CoreQuotientTriple,
    WrightDecomposition,
    _split_even_odd,
    delta,
    delta_inv,
    lambda_a,
    lambda_a_inv,
    lambda_pd,
    lambda_pd_inv,
    lambda_pod,
    lambda_pod_inv,
    phi,
    phi_inv,
    psi,
    psi_inv,
    wright,
    wright_inv,
)
from vrank.families import (
    A,
    A_IMAGE,
    ORDINARY,
    OddStaircase,
    PD,
    PD_IMAGE,
    POD2,
    POD2_IMAGE,
    element_weight,
    enumerate_family,
    format_element,
    is_member,
    parse_element,
)
from vrank.partition import (
    FrobeniusSymbol,
    InvalidPartitionError,
    all_parts_even,
    conjugate,
    from_frobenius,
    halve,
    is_staircase,
    make_partition,
    scale2,
    staircase,
    to_frobenius,
    union,
    weight,
)

partitions = st.lists(st.integers(1, 25), max_size=10).map(make_partition)

ROUND_TRIP_N = 12  # per-weight exhaustive checks here; n <= 24 runs in acceptance


# --- phi --------------------------------------------------------------------

def test_phi_anchor():
    assert phi((4, 4, 2, 2, 1)) == ((1,), (2,), (6, 4))


def test_phi_trivial():
    assert phi(()) == ((), (), ())
    assert phi((1,)) == ((1,), (), ())


def test_phi_single_domino():
    # one removable domino, no core; slot fixed by the same orientation as the
    # five-part anchor (the lone box lands in the second quotient)
    core, even_a, even_b = phi((2,))
    assert core == () and even_a == () and even_b == (2,)
    assert phi_inv(CoreQuotientTriple(core, even_a, even_b)) == (2,)


@given(partitions)
def test_phi_structure_and_round_trip(p):
    core, even_a, even_b = phi(p)
    assert is_staircase(core)
    assert all_parts_even(even_a) and all_parts_even(even_b)
    assert weight(core) + weight(even_a) + weight(even_b) == weight(p)
    assert phi_inv(CoreQuotientTriple(core, even_a, even_b)) == p


def test_phi_inv_rejects_bad_input():
    with pytest.raises(InvalidPartitionError):
        phi_inv(CoreQuotientTriple((2,), (), ()))
    with pytest.raises(InvalidPartitionError):
        phi_inv(CoreQuotientTriple((1,), (3,), ()))


# A copy of the earlier abacus, which rebuilds and sorts the full beta set on
# every call, as a reference for the runner-reading kernels.  Its phi_inv
# halves the quotients and places level v at index j at 2 * (v + j) + runner,
# where phi_inv places the doubled part at e + 2 * j + runner.

def _reference_beta_set(p, size):
    parts = list(p) + [0] * (size - len(p))
    return [parts[j] + (size - 1 - j) for j in range(size)]


def _reference_from_levels(levels):
    parts = [v - j for j, v in enumerate(sorted(levels))]
    return tuple(v for v in reversed(parts) if v > 0)


def _reference_phi(p):
    beta = _reference_beta_set(p, len(p) + (len(p) % 2))
    runner0 = [b // 2 for b in beta if b % 2 == 0]
    runner1 = [(b - 1) // 2 for b in beta if b % 2 == 1]
    core_beta = [2 * i for i in range(len(runner0))] + [2 * i + 1 for i in range(len(runner1))]
    return (
        _reference_from_levels(core_beta),
        scale2(_reference_from_levels(runner0)),
        scale2(_reference_from_levels(runner1)),
    )


def _reference_phi_inv(t):
    core, even_a, even_b = t
    if not is_staircase(core):
        raise InvalidPartitionError(f"core must be a staircase: {core}")
    q0, q1 = halve(even_a), halve(even_b)
    size = 2 * max(len(core), len(q0) + len(q1), 1)
    while True:
        c0 = sum(1 for b in _reference_beta_set(core, size) if b % 2 == 0)
        c1 = size - c0
        if c0 >= len(q0) and c1 >= len(q1):
            break
        size += 2
    positions = []
    for q, count, parity in ((q0, c0, 0), (q1, c1, 1)):
        asc = [0] * (count - len(q)) + sorted(q)
        positions.extend(2 * (v + j) + parity for j, v in enumerate(asc))
    return _reference_from_levels(positions)


def test_phi_matches_reference_exhaustive():
    # phi is onto the triples of each weight, so this also covers all of
    # phi_inv's valid inputs up to weight 20
    for n in range(21):
        for p in enumerate_family(ORDINARY, n):
            t = phi(p)
            assert t == _reference_phi(p)
            assert phi_inv(t) == _reference_phi_inv(t) == p


def test_phi_inv_keeps_its_validation():
    with pytest.raises(InvalidPartitionError):
        phi_inv(CoreQuotientTriple((2, 1, 1), (), ()))  # not a staircase
    with pytest.raises(InvalidPartitionError):
        phi_inv(CoreQuotientTriple((1,), (3,), ()))  # odd part in a quotient
    with pytest.raises(InvalidPartitionError):
        phi_inv(CoreQuotientTriple((), (), (4, 1)))


@pytest.mark.parametrize("kernel", [phi_inv, _reference_phi_inv], ids=["doubled", "halving"])
@pytest.mark.parametrize(
    "triple",
    [
        ((2, 1, 1), (), ()),
        ((3, 1), (2,), ()),
        ((1,), (3,), ()),
        ((), (), (4, 1)),
        ((2, 1), (6, 5), (2,)),
    ],
    ids=["core-211", "core-31", "odd-a", "odd-b", "odd-a-long"],
)
def test_phi_inv_and_reference_reject_alike(kernel, triple):
    # a non-staircase core or an odd quotient part is refused by both kernels
    with pytest.raises(InvalidPartitionError):
        kernel(CoreQuotientTriple(*triple))


even_quotients = st.lists(st.integers(1, 15), max_size=12).map(make_partition).map(scale2)


@given(st.integers(0, 40), even_quotients, even_quotients)
def test_phi_inv_closed_form_matches_reference_to_core_height_40(h, even_a, even_b):
    # the exhaustive check above reaches core height 5 only; the runner charge
    # read off the core must agree with the reference's bead-count search
    t = CoreQuotientTriple(staircase(h), even_a, even_b)
    assert phi_inv(t) == _reference_phi_inv(t)
    assert phi(phi_inv(t)) == t


@st.composite
def heavy_partitions(draw, low=50, high=300):
    """A partition whose weight is drawn from [low, high]."""
    left = draw(st.integers(low, high))
    parts = []
    while left:
        parts.append(draw(st.integers(1, min(left, 60))))
        left -= parts[-1]
    return make_partition(parts)


@given(heavy_partitions())
def test_phi_round_trip_at_large_weights(p):
    t = phi(p)
    assert is_staircase(t.core)
    assert weight(t.core) + weight(t.even_a) + weight(t.even_b) == weight(p)
    assert phi_inv(t) == p


# --- delta / psi ------------------------------------------------------------

def test_delta_anchor():
    dp = parse_element(PD, "20+20+20'+4+4'+4+4+2'+2+1+1+1+1+1+1+1'+1")
    alpha, beta = delta(dp)
    assert alpha == (4, 4, 2, 2, 1)
    assert beta == (20, 20, 20, 4, 4, 1, 1, 1, 1, 1, 1, 1)


def test_delta_all_first_designated():
    dp = parse_element(PD, "3'+2'+2+1'")
    assert delta(dp) == ((3, 2, 2, 1), ())


def test_delta_derived():
    dp = parse_element(PD, "1+1'+1")
    assert delta(dp) == ((1,), (1, 1))


def test_delta_last_occurrence_designated():
    # i_d = m_d sends every copy to beta
    dp = parse_element(PD, "2+2'")
    assert delta(dp) == ((), (2, 2))


def test_psi_anchor():
    beta = (20, 20, 20, 4, 4, 1, 1, 1, 1, 1, 1, 1)
    assert psi(beta) == ((8, 2, 2), (60, 3))


def test_psi_trivial_and_derived():
    assert psi(()) == ((), ())
    assert psi((1, 1)) == ((2,), ())


def test_psi_rejects_multiplicity_one():
    with pytest.raises(InvalidPartitionError):
        psi((2, 1, 1))


def test_psi_round_trip_small():
    for n in range(ROUND_TRIP_N):
        for beta in _multiplicity_two_partitions(n):
            even_part, triples = psi(beta)
            assert weight(even_part) + weight(triples) == n
            assert psi_inv(even_part, triples) == beta


def _multiplicity_two_partitions(n):
    from vrank.families import ORDINARY

    return [
        p
        for p in enumerate_family(ORDINARY, n)
        if all(p.count(v) >= 2 for v in set(p))
    ]


# --- pipelines --------------------------------------------------------------

def test_lambda_pd_anchor_88():
    dp = parse_element(PD, "20+20+20'+4+4'+4+4+2'+2+1+1+1+1+1+1+1'+1")
    v = lambda_pd(dp)
    assert format_element(PD_IMAGE, v) == "(2;6+4;8+2+2;1;60+3)"
    assert lambda_pd_inv(v) == dp


@pytest.mark.parametrize(
    "elem,image",
    [
        ("5'", "(4;0;0;1;0)"),
        ("2'+1+1+1'", "(0;2;0;0;3)"),
        ("0", "(0;0;0;0;0)"),
    ],
)
def test_lambda_pd_rows(elem, image):
    assert format_element(PD_IMAGE, lambda_pd(parse_element(PD, elem))) == image


@pytest.mark.parametrize(
    "elem,image",
    [
        ("5r", "(4;0;0;1)"),
        ("3r+2b", "(2;0;2;1)"),
        ("0", "(0;0;0;0)"),
    ],
)
def test_lambda_a_rows(elem, image):
    assert format_element(A_IMAGE, lambda_a(parse_element(A, elem))) == image


@pytest.mark.parametrize(
    "elem,image",
    [
        ("(5;0)", "(0;0;4;1)"),
        ("(0;5)", "(0;0;2+2;1~)"),
        ("(2+1;2)", "(2;2;0;1)"),
        ("(0;0)", "(0;0;0;0)"),
    ],
)
def test_lambda_pod_rows(elem, image):
    assert format_element(POD2_IMAGE, lambda_pod(parse_element(POD2, elem))) == image


@pytest.mark.parametrize(
    "family,image,fwd,inv",
    [
        (PD, PD_IMAGE, lambda_pd, lambda_pd_inv),
        (A, A_IMAGE, lambda_a, lambda_a_inv),
        (POD2, POD2_IMAGE, lambda_pod, lambda_pod_inv),
    ],
    ids=["pd", "a", "pod2"],
)
def test_pipeline_bijectivity(family, image, fwd, inv):
    for n in range(ROUND_TRIP_N + 1):
        domain = enumerate_family(family, n)
        forward_images = set()
        for x in domain:
            v = fwd(x)
            assert is_member(image, v)
            assert element_weight(image, v) == n
            assert inv(v) == x
            forward_images.add(format_element(image, v))
        codomain = enumerate_family(image, n)
        assert forward_images == {format_element(image, v) for v in codomain}
        for v in codomain:
            x = inv(v)
            assert is_member(family, x)
            assert fwd(x) == v


# --- wright -----------------------------------------------------------------

def test_wright_anchor():
    w = wright((9, 7, 3), (17, 15, 11, 7, 3, 1))
    assert w.pi == (16, 16, 14, 8, 6, 4)
    assert w.triangle == OddStaircase(3, True)


def test_wright_trivial():
    assert wright((), ()) == ((), OddStaircase(0, False))


def test_wright_derived_single_part():
    # m=1, l=0, a_1=0: Frobenius part empty, the zero entry of the adjustment
    # partition is dropped, weight 1 carried entirely by the staircase
    w = wright((1,), ())
    assert w.pi == () and w.triangle == OddStaircase(1, False)


def test_wright_rejects_bad_parts():
    with pytest.raises(InvalidPartitionError):
        wright((4,), ())
    with pytest.raises(InvalidPartitionError):
        wright((3, 3), ())


def test_wright_overline_tracks_sign():
    for mu1, mu2 in [((5, 3), ()), ((5,), (1,)), ((), (7, 5, 3)), ((1,), (3,))]:
        w = wright(mu1, mu2)
        m = len(mu1) - len(mu2)
        assert w.triangle.one_overlined == (m < 0)
        assert w.triangle.height == abs(m)
        assert weight(w.pi) + w.triangle.weight == weight(mu1) + weight(mu2)


def test_wright_round_trip_exhaustive():
    from vrank.families import DISTINCT_ODD

    for n in range(ROUND_TRIP_N + 1):
        for a in range(n + 1):
            for mu1 in enumerate_family(DISTINCT_ODD, a):
                for mu2 in enumerate_family(DISTINCT_ODD, n - a):
                    w = wright(mu1, mu2)
                    assert all_parts_even(w.pi)
                    assert wright_inv(w) == (mu1, mu2)


def test_wright_inv_rejects_odd_pi():
    # halve refuses the odd part, on the plain and the overlined branch alike
    odd = [((3,), OddStaircase(0)), ((4, 3), OddStaircase(1)), ((6, 2, 1), OddStaircase(2, True))]
    for pi, tri in odd:
        with pytest.raises(InvalidPartitionError, match="even parts"):
            wright_inv(WrightDecomposition(pi, tri))


def test_wright_refuses_parts_not_odd_and_strictly_decreasing():
    # (1, 3) was once answered with a decomposition
    for mu in [(1, 3), (3, 5, 1), (3, 3), (4,), (5, 2), (0,), (-1,), (3, 1, -1)]:
        for args in [(mu, ()), ((), mu), ((7, 1), mu)]:
            with pytest.raises(InvalidPartitionError, match="odd, positive and strictly decreasing"):
                wright(*args)


def test_wright_inv_refuses_pi_not_positive_and_weakly_decreasing():
    # a few by hand, then each even partition to weight 16 with a zero part
    # appended or one part raised past its left neighbour
    bad = [(-2,), (2, 2, 0, 2), (4, 2, 4)]
    for n in range(0, 17, 2):
        for pi in map(scale2, enumerate_family(ORDINARY, n // 2)):
            bad.append(pi + (0,))
            bad += [pi[:j] + (pi[j - 1] + 2,) + pi[j + 1:] for j in range(1, len(pi))]
    for pi in bad:
        for tri in [OddStaircase(0), OddStaircase(1), OddStaircase(3, True)]:
            with pytest.raises(InvalidPartitionError, match="positive and weakly decreasing"):
                wright_inv(WrightDecomposition(pi, tri))


# A copy of the earlier Frobenius-symbol route to the Wright map, as a
# reference for the Maya-diagram kernels: a is the longer row (the rows swap
# when mu1 is shorter), the Frobenius symbol is the a-tail over the b's, an
# adjustment partition nu comes from the a-head, and the swapped side
# conjugates.

def _reference_halves(mu):
    if any(v % 2 == 0 for v in mu) or len(set(mu)) != len(mu):
        raise InvalidPartitionError(f"parts must be distinct and odd: {mu}")
    return [(v - 1) // 2 for v in mu]


def _reference_wright(mu1, mu2):
    a = _reference_halves(mu1)
    b = _reference_halves(mu2)
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


def _reference_wright_inv(w):
    pi, tri = w
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
    return tuple(2 * v + 1 for v in a), tuple(2 * v + 1 for v in b)


def test_wright_matches_reference_exhaustive():
    from vrank.families import DISTINCT_ODD

    for n in range(25):
        for a in range(n + 1):
            for mu1 in enumerate_family(DISTINCT_ODD, a):
                for mu2 in enumerate_family(DISTINCT_ODD, n - a):
                    w = wright.__wrapped__(mu1, mu2)
                    assert w == _reference_wright(mu1, mu2)
                    assert wright_inv.__wrapped__(w) == _reference_wright_inv(w) == (mu1, mu2)


def test_wright_inv_matches_reference_on_every_even_pi():
    # wright_inv is onto every (even pi, odd staircase): the reference
    # refuses none of these either
    for n in range(16):
        for p in enumerate_family(ORDINARY, n):
            pi = scale2(p)
            for k in range(7):
                for over in (False, True) if k else (False,):
                    w = WrightDecomposition(pi, OddStaircase(k, over))
                    mu1, mu2 = wright_inv.__wrapped__(w)
                    assert (mu1, mu2) == _reference_wright_inv(w)
                    assert wright.__wrapped__(mu1, mu2) == w


@st.composite
def heavy_wright_inputs(draw, low=1000, high=5000):
    """A pair of distinct-odd partitions and an (even pi, odd staircase), each
    of total weight in [low, high]; the parts come from a generator seeded
    by the draw, as hypothesis draws hundreds of single parts poorly."""
    rnd = random.Random(draw(st.integers(0, 2**32)))
    sides, total, target = (set(), set()), 0, draw(st.integers(low, high - 241))
    while total < target:  # each part adds at most 241
        v = 2 * rnd.randrange(121) + 1
        side = sides[rnd.randrange(2)]
        if v not in side:
            side.add(v)
            total += v
    k = draw(st.integers(0, 6))
    parts, left = [], draw(st.integers(low // 2, (high - 36) // 2))  # pi / 2
    while left:
        parts.append(rnd.randint(1, min(left, 60)))
        left -= parts[-1]
    tri = OddStaircase(k, k > 0 and draw(st.booleans()))
    pair = tuple(tuple(sorted(side, reverse=True)) for side in sides)
    return pair, WrightDecomposition(scale2(make_partition(parts)), tri)


@given(heavy_wright_inputs())
def test_wright_matches_reference_at_weights_1000_to_5000(inputs):
    pair, w = inputs
    image = wright.__wrapped__(*pair)
    assert image == _reference_wright(*pair)
    assert wright_inv.__wrapped__(image) == _reference_wright_inv(image) == pair
    assert wright_inv.__wrapped__(w) == _reference_wright_inv(w)
    assert wright.__wrapped__(*wright_inv.__wrapped__(w)) == w


# --- run-length kernels against the per-magnitude .count() copies -----------

def _reference_delta(text):
    """delta read off a designated element's text: m copies of a part d whose
    i-th copy is primed."""
    alpha, beta = [], []
    toks = [] if text == "0" else text.split("+")
    for d, run in itertools.groupby(toks, key=lambda tok: int(tok.rstrip("'"))):
        primed = [tok.endswith("'") for tok in run]
        m, i = len(primed), primed.index(True) + 1
        if i == 1:
            alpha.extend([d] * m)
        else:
            beta.extend([d] * i)
            alpha.extend([d] * (m - i))
    return tuple(sorted(alpha, reverse=True)), tuple(sorted(beta, reverse=True))


def _reference_delta_inv(alpha, beta):
    for d in set(beta):
        if beta.count(d) < 2:
            raise InvalidPartitionError(f"beta magnitude {d} occurs once")
    entries = []
    for d in sorted(set(alpha) | set(beta), reverse=True):
        a, b = alpha.count(d), beta.count(d)
        entries.append((d, a + b, b if b else 1))
    return designated(tuple(entries))


def _reference_psi(beta):
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


def _reference_split_even_odd(p):
    return tuple(v for v in p if v % 2 == 0), tuple(v for v in p if v % 2 == 1)


def _outcome(kernel, *args):
    """The kernel's value, or the exception type it raised."""
    try:
        return kernel(*args)
    except InvalidPartitionError as e:
        return type(e)


def test_delta_and_psi_match_reference_exhaustive():
    for n in range(17):
        for dp in enumerate_family(PD, n):
            alpha, beta = delta(dp)
            assert (alpha, beta) == _reference_delta(format_element(PD, dp))
            assert delta_inv(alpha, beta) == _reference_delta_inv(alpha, beta) == dp
            assert psi.__wrapped__(beta) == _reference_psi(beta)


def test_split_even_odd_matches_reference_exhaustive():
    for n in range(17):
        for p in enumerate_family(ORDINARY, n):
            assert _split_even_odd(p) == _reference_split_even_odd(p)


@pytest.mark.parametrize(
    "alpha,beta",
    [((), (1,)), ((3, 1), (2, 2, 1)), ((5,), (4, 4, 4, 3)), ((2, 2), (2,))],
)
def test_delta_inv_and_reference_reject_alike(alpha, beta):
    for kernel in (delta_inv, _reference_delta_inv):
        with pytest.raises(InvalidPartitionError, match="occurs once"):
            kernel(alpha, beta)


@st.composite
def heavy_designated(draw):
    """A designated partition of weight 50..300: a heavy partition with a
    designated index drawn for each magnitude."""
    p = draw(heavy_partitions())
    entries = []
    for d in sorted(set(p), reverse=True):
        m = p.count(d)
        entries.append((d, m, draw(st.integers(1, m))))
    return designated(tuple(entries))


@given(heavy_designated(), heavy_partitions(), st.booleans())
def test_delta_and_psi_match_reference_at_large_weights(dp, p, doubled):
    alpha, beta = delta(dp)
    assert (alpha, beta) == _reference_delta(format_element(PD, dp))
    assert delta_inv(alpha, beta) == dp
    # a beta drawn freely usually has a magnitude that occurs once, which both
    # kernels refuse; doubling every part makes a valid one
    beta = union(p, p) if doubled else p
    assert _outcome(delta_inv, alpha, beta) == _outcome(_reference_delta_inv, alpha, beta)
    assert _outcome(psi.__wrapped__, beta) == _outcome(_reference_psi, beta)
    assert _split_even_odd(p) == _reference_split_even_odd(p)


# --- memoized component kernels ---------------------------------------------

CACHED_KERNELS = ("phi", "phi_inv", "psi", "psi_inv", "wright", "wright_inv")


def test_cached_kernels_are_bounded():
    for name in CACHED_KERNELS:
        maxsize = getattr(bijections, name).cache_info().maxsize
        assert maxsize == KERNEL_CACHE_SIZE and 0 < maxsize < float("inf")


def test_cached_kernels_match_uncached_on_round_trip_inputs(monkeypatch):
    # every argument the n <= 14 round trips hand each kernel, recorded on the
    # way in; afterwards the cached value is compared with a fresh computation
    seen = {name: set() for name in CACHED_KERNELS}
    for name in CACHED_KERNELS:
        kernel = getattr(bijections, name)

        def recording(*args, _kernel=kernel, _seen=seen[name]):
            _seen.add(args)
            return _kernel(*args)

        monkeypatch.setattr(bijections, name, recording)
    for family, image, fwd, inv in [
        (PD, PD_IMAGE, lambda_pd, lambda_pd_inv),
        (A, A_IMAGE, lambda_a, lambda_a_inv),
        (POD2, POD2_IMAGE, lambda_pod, lambda_pod_inv),
    ]:
        for n in range(15):
            for x in enumerate_family(family, n):
                assert inv(fwd(x)) == x
            for v in enumerate_family(image, n):
                assert fwd(inv(v)) == v
    monkeypatch.undo()
    for name in CACHED_KERNELS:
        kernel = getattr(bijections, name)
        assert seen[name]
        for args in seen[name]:
            assert kernel(*args) == kernel.__wrapped__(*args)


@pytest.mark.parametrize(
    "kernel,args",
    [
        (phi_inv, (CoreQuotientTriple((2, 1, 1), (), ()),)),  # not a staircase
        (psi, ((2, 1, 1),)),  # magnitude 2 occurs once
        (wright_inv, (WrightDecomposition((3,), OddStaircase(0)),)),  # odd pi
        (wright, ((4,), ())),  # an even part
    ],
    ids=["phi_inv", "psi", "wright_inv", "wright"],
)
def test_cached_kernels_raise_on_every_call(kernel, args):
    # lru_cache stores no exception: a refused input is refused again
    before = kernel.cache_info().currsize
    for _ in range(2):
        with pytest.raises(InvalidPartitionError):
            kernel(*args)
    assert kernel.cache_info().currsize == before


@given(heavy_partitions())
def test_cached_kernels_match_uncached_at_large_weights(p):
    odd = sorted({2 * v - 1 for v in p}, reverse=True)
    triple = phi(p)
    beta = union(p, p)
    even_part, triples = psi(beta)
    w = wright(tuple(odd[::2]), tuple(odd[1::2]))
    for kernel, args in [
        (phi, (p,)),
        (phi_inv, (triple,)),
        (psi, (beta,)),
        (psi_inv, (even_part, triples)),
        (wright, (tuple(odd[::2]), tuple(odd[1::2]))),
        (wright_inv, (w,)),
    ]:
        for _ in range(2):  # a miss, then a hit
            assert kernel(*args) == kernel.__wrapped__(*args)
