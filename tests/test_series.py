import pytest

from vrank.families import (
    A,
    Family,
    OP2,
    ORDINARY,
    OVERPARTITION,
    PD,
    POD,
    POD2,
    NAMED_FAMILIES,
    count_family,
    family_by_name,
)
from vrank.series import (
    PowerSeries,
    ProductSpec,
    _apply_linear,
    a_series_direct,
    build_series,
    family_series,
    odd_staircase_theta,
    one,
    product_spec,
    scan_congruence,
    staircase_theta,
)

N_TEST = 24


def test_mul_trivial():
    s = PowerSeries([1, 1, 0, 0])
    assert s.mul(s).coeffs == [1, 2, 1, 0]
    assert s.mul(one(3)) == s


def test_mul_truncates_to_shorter():
    assert PowerSeries([1, 1, 1]).mul(one(10)).truncation == 2


def test_mul_commutes_and_associates():
    a = PowerSeries([1, 2, 3, 4, 5])
    b = PowerSeries([0, 1, 1, 0, 2])
    c = PowerSeries([5, 0, 0, 1, 1])
    assert a.mul(b) == b.mul(a)
    assert a.mul(b).mul(c) == a.mul(b.mul(c))


def test_geometric_series():
    # a single linear factor 1/(1-q) has every coefficient 1
    s = one(20)
    _apply_linear(s.coeffs, 1, 1, -1)
    assert s.coeffs == [1] * 21


def test_inverse_product_cancels():
    spec = ((2, 2, -3, 1),)
    inv = ((2, 2, 3, 1),)
    s = build_series(ProductSpec(spec), 50).mul(build_series(ProductSpec(inv), 50))
    assert s == one(50)


def test_staircase_theta():
    assert staircase_theta(7).coeffs == [1, 1, 0, 1, 0, 0, 1, 0]


def test_odd_staircase_theta():
    assert odd_staircase_theta(5).coeffs == [1, 2, 0, 0, 2, 0]


def test_theta_spot_values_to_100():
    st_ = staircase_theta(100)
    triangular = {k * (k + 1) // 2 for k in range(15)}
    assert all(st_[n] == (1 if n in triangular else 0) for n in range(101))
    ot = odd_staircase_theta(100)
    for n in range(101):
        if n == 0:
            assert ot[n] == 1
        elif round(n ** 0.5) ** 2 == n:
            assert ot[n] == 2
        else:
            assert ot[n] == 0


def test_distinct_triples_product():
    # (-q^3;q^3)_inf counts partitions into distinct multiples of 3
    s = build_series(ProductSpec(((3, 3, 1, -1),)), 12)
    assert s[3] == 1
    assert s[9] == 2  # {9} and {3,6}


@pytest.mark.parametrize(
    "f",
    [PD, A, POD, POD2, OP2, ORDINARY, OVERPARTITION, Family("mod-parts", 2, (0,))],
    ids=["pd", "a", "pod", "pod2", "op2", "ordinary", "op", "p2_0"],
)
def test_series_matches_enumeration(f):
    s = family_series(f, N_TEST)
    for n in range(N_TEST + 1):
        assert s[n] == count_family(f, n), f"coefficient {n}"


def test_series_anchors():
    assert family_series(PD, 5)[5] == 15
    assert family_series(A, 2)[2] == 3
    assert family_series(POD2, 0)[0] == 1


def test_a_identity():
    # bijection-derived form vs the direct two-color product
    assert family_series(A, 300) == a_series_direct(300)


def test_pod2_identity():
    # bijection-derived form vs the square of the single-component series
    via_components = family_series(POD, 200).mul(family_series(POD, 200))
    assert family_series(POD2, 200) == via_components


@pytest.mark.parametrize("f", [PD, A, POD2, OP2], ids=["pd", "a", "pod2", "op2"])
def test_congruence_scan_clean(f):
    assert scan_congruence(f, 300) == []


@pytest.mark.parametrize("f", [PD, A, POD2, OP2], ids=["pd", "a", "pod2", "op2"])
def test_congruence_scan_clean_to_3000(f):
    assert scan_congruence(f, 3000) == []


# --- the eta-quotient engine against the linear-factor sweeps ----------------

def _reference_series(f: Family, truncation: int) -> PowerSeries:
    """One O(N) sweep per linear factor of every Pochhammer factor, thetas and
    vector components by Cauchy product.  pod uses its defining product
    (-q;q^2)_inf / (q^2;q^2)_inf, the other families their product_spec."""
    if f.tag == "vector" and f != POD2:
        s = one(truncation)
        for g in f.components:
            s = s.mul(_reference_series(g, truncation))
        return s
    spec = ProductSpec(((1, 2, 1, -1), (2, 2, -1, 1))) if f == POD else product_spec(f)
    s = one(truncation)
    for a, b, exponent, sign in spec.factors:
        for k in range(a, truncation + 1, b):
            _apply_linear(s.coeffs, k, sign, exponent)
    thetas = {"staircase": staircase_theta, "odd-staircase": odd_staircase_theta}
    for name in spec.thetas:
        s = s.mul(thetas[name](truncation))
    return s


@pytest.mark.parametrize(
    "name",
    ["pd", "a", "pod", "pod2", "op", "op2", "ordinary", "staircase", "odd-staircase",
     "p5_1,4", "d3_0"],
)
def test_series_matches_linear_sweep_reference(name):
    f = family_by_name(name)
    assert family_series(f, 400) == _reference_series(f, 400)


@pytest.mark.parametrize(
    "f, eta",
    [
        (PD, {1: -1, 2: -1, 3: -1, 6: 1}),  # Andrews-Lewis-Lovejoy
        (A, {1: -1, 2: -1}),
        (POD, {1: -1, 2: 1, 4: -1}),  # Hirschhorn-Sellers
        (POD2, {1: -2, 2: 2, 4: -2}),
        (OP2, {1: -4, 2: 2}),
    ],
    ids=["pd", "a", "pod", "pod2", "op2"],
)
def test_eta_exponents_are_published_quotients(f, eta):
    # exact for every truncation: the codomain specs of pd, a and pod2 fold to
    # the published eta quotients of their families
    assert product_spec(f).eta_exponents() == eta


def test_thetas_equal_eta_forms():
    # psi(q) = f2^2 / f1 and phi(q) = f2^5 / (f1^2 f4^2), built from full eta factors
    psi = ProductSpec(((2, 2, 2, 1), (1, 1, -1, 1)))
    phi = ProductSpec(((2, 2, 5, 1), (1, 1, -2, 1), (4, 4, -2, 1)))
    assert staircase_theta(2000) == build_series(psi, 2000)
    assert odd_staircase_theta(2000) == build_series(phi, 2000)


def test_named_families_need_no_linear_sweep():
    for f in NAMED_FAMILIES.values():
        assert all(a == b for a, b, _, _ in product_spec(f).factors), f


def test_negative_truncation_rejected():
    with pytest.raises(ValueError):
        build_series(ProductSpec(), -1)
    with pytest.raises(ValueError):
        family_series(PD, -3)
    assert family_series(PD, 0) == one(0)


def test_congruence_scan_finds_violations():
    # partitions into distinct parts: count(2) = 1, a witness at n = 0
    distinct = Family("mod-distinct", 1, (0,))
    violations = scan_congruence(distinct, 50)
    assert 0 in violations
