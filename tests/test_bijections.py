import pytest
from hypothesis import given, strategies as st

from vrank.bijections import (
    CoreQuotientTriple,
    WrightDecomposition,
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
    DesignatedPartition,
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
    InvalidPartitionError,
    all_parts_even,
    halve,
    is_staircase,
    make_partition,
    scale2,
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
# every call, as a reference for the runner-reading kernels.

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
    dp = DesignatedPartition(((1, 3, 2),))
    assert delta(dp) == ((1,), (1, 1))


def test_delta_last_occurrence_designated():
    # i_d = m_d sends every copy to beta
    dp = DesignatedPartition(((2, 2, 2),))
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
    with pytest.raises(InvalidPartitionError):
        wright_inv(WrightDecomposition((3,), OddStaircase(0)))
