import functools
import inspect
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from vrank import series
from vrank.families import (
    A,
    A_IMAGE,
    Family,
    ODD_STAIRCASE,
    OP2,
    ORDINARY,
    OVERPARTITION,
    PD,
    PD_IMAGE,
    POD,
    POD2,
    POD2_IMAGE,
    NAMED_FAMILIES,
    STAIRCASE,
    count_family,
    family_by_name,
)
from vrank.series import (
    _ETA_KERNELS,
    PowerSeries,
    _apply_eta,
    _plan,
    _theta_taps,
    build_series,
    family_series,
    generating_function,
    one,
    scan_congruence,
)

from theta_oracles import odd_staircase_theta, staircase_theta

N_TEST = 24


def test_mul_trivial():
    s = PowerSeries([1, 1, 0, 0])
    assert s.mul(s).coeffs == [1, 2, 1, 0]
    assert s.mul(one(3)) == s


def test_repr_elides_only_beyond_eight_coefficients():
    assert repr(PowerSeries(range(8))) == "PowerSeries([0, 1, 2, 3, 4, 5, 6, 7])"  # truncation 7
    assert repr(PowerSeries(range(9))) == "PowerSeries([0, 1, 2, 3, 4, 5, 6, 7, ...])"


def test_mul_truncates_to_shorter():
    assert PowerSeries([1, 1, 1]).mul(one(10)).truncation == 2


def test_mul_commutes_and_associates():
    a = PowerSeries([1, 2, 3, 4, 5])
    b = PowerSeries([0, 1, 1, 0, 2])
    c = PowerSeries([5, 0, 0, 1, 1])
    assert a.mul(b) == b.mul(a)
    assert a.mul(b).mul(c) == a.mul(b.mul(c))


@pytest.mark.parametrize("exponent", [-2, -1, 1, 2])
@pytest.mark.parametrize("k", [1, 2, 5])
def test_geometric_series(k, exponent):
    # a linear factor (1 - q^k)^exponent is one tap of the sweep kernel, and
    # gives the dense sweep's coefficients; 1/(1-q^k) is 1 at each multiple of k
    s, reference = one(20), one(20)
    _apply_eta(s.coeffs, [(k, -1)], 1, exponent)
    _sweep(reference.coeffs, k, 1, exponent)
    assert s == reference
    if exponent == -1:
        assert s.coeffs == [int(i % k == 0) for i in range(21)]


def test_inverse_product_cancels():
    s = build_series({(2, 2): -3}, 50).mul(build_series({(2, 2): 3}, 50))
    assert s == one(50)
    s = build_series({(1, 3): -2}, 50).mul(build_series({(1, 3): 2}, 50))
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
    # (-q^3;q^3)_inf = f6/f3 counts partitions into distinct multiples of 3,
    # equinumerous with partitions into odd multiples of 3, 1/(q^3;q^6)_inf
    s = build_series({(3, 3): -1, (6, 6): 1}, 12)
    assert s[3] == 1
    assert s[9] == 2  # {9} and {3,6}
    assert s == build_series({(3, 6): -1}, 12)


@pytest.mark.parametrize(
    "f",
    [PD, A, POD, POD2, OP2, ORDINARY, OVERPARTITION, Family("mod-parts", 2, (0,)),
     PD_IMAGE, A_IMAGE, POD2_IMAGE, family_by_name("p3_1"), family_by_name("d5_2")],
    ids=["pd", "a", "pod", "pod2", "op2", "ordinary", "op", "p2_0",
         "pd-image", "a-image", "pod2-image", "p3_1", "d5_2"],
)
def test_series_matches_enumeration(f):
    # p3_1 takes one dividing linear step; d5_2 a dividing (2, 5) step and a
    # multiplying (4, 10) one, so the one-tap sweeps meet the count tables
    s = family_series(f, N_TEST)
    for n in range(N_TEST + 1):
        assert s[n] == count_family(f, n), f"coefficient {n}"


def test_series_anchors():
    assert family_series(PD, 5)[5] == 15
    assert family_series(A, 2)[2] == 3
    assert family_series(POD2, 0)[0] == 1


def test_a_identity():
    # the direct two-color product 1/(f1 f2) vs the bijection's codomain form
    assert family_series(A, 300) == family_series(A_IMAGE, 300)


@pytest.mark.parametrize(
    "f, image", [(PD, PD_IMAGE), (A, A_IMAGE), (POD2, POD2_IMAGE)], ids=["pd", "a", "pod2"]
)
def test_codomain_identities_to_3000(f, image):
    # each bijection's codomain has its domain's generating function
    assert family_series(image, 3000) == family_series(f, 3000)


def test_theta_families_are_their_thetas():
    assert family_series(STAIRCASE, 2000) == staircase_theta(2000)
    assert family_series(ODD_STAIRCASE, 2000) == odd_staircase_theta(2000)


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

# Test-local factor lists (a, b, exponent, sign), each (sign * q^a; q^b)_inf^exponent:
# pd and a in their bijection codomain forms, pod in its defining product.
_REFERENCE_FACTORS = {
    "designated": ((3, 3, 1, -1), (2, 2, -3, 1)),  # (-q^3;q^3) / f2^3, times psi
    "two-color": ((2, 2, -3, 1),),  # 1 / f2^3, times psi
    "pod": ((1, 2, 1, -1), (2, 2, -1, 1)),  # (-q;q^2) / (q^2;q^2)
    "overpartition": ((1, 1, 1, -1), (1, 1, -1, 1)),  # (-q;q) / (q;q)
}
_REFERENCE_THETAS = {"designated": staircase_theta, "two-color": staircase_theta,
                     "staircase": staircase_theta, "odd-staircase": odd_staircase_theta}


def _sweep(coeffs, k, sign, exponent):
    """Multiply in place by (1 - sign*q^k)^exponent."""
    n = len(coeffs) - 1
    for _ in range(abs(exponent)):
        if exponent > 0:
            for i in range(n, k - 1, -1):
                coeffs[i] -= sign * coeffs[i - k]
        else:
            for i in range(k, n + 1):
                coeffs[i] += sign * coeffs[i - k]


def _reference_series(f: Family, truncation: int) -> PowerSeries:
    """One O(N) signed sweep per linear factor, thetas and vector components by
    Cauchy product; shares no code with the eta-quotient engine."""
    s = one(truncation)
    if f.tag == "vector":
        for g in f.components:
            s = s.mul(_reference_series(g, truncation))
        return s
    if f.tag in ("mod-parts", "mod-distinct"):
        exponent, sign = (-1, 1) if f.tag == "mod-parts" else (1, -1)
        factors = tuple((r or f.modulus, f.modulus, exponent, sign) for r in f.residues)
    else:
        factors = _REFERENCE_FACTORS.get(f.tag, ())
    for a, b, exponent, sign in factors:
        for k in range(a, truncation + 1, b):
            _sweep(s.coeffs, k, sign, exponent)
    if f.tag in _REFERENCE_THETAS:
        s = s.mul(_REFERENCE_THETAS[f.tag](truncation))
    return s


@pytest.mark.parametrize(
    "name",
    ["pd", "a", "pod", "pod2", "op", "op2", "ordinary", "staircase", "odd-staircase",
     "p5_1,4", "d3_0", "d2_1", "d3_1,2", "pd-image", "a-image", "pod2-image"],
)
def test_series_matches_linear_sweep_reference(name):
    images = {"pd-image": PD_IMAGE, "a-image": A_IMAGE, "pod2-image": POD2_IMAGE}
    f = images[name] if name in images else family_by_name(name)
    assert family_series(f, 400) == _reference_series(f, 400)


@pytest.mark.parametrize(
    "f, gf",
    [
        (PD, {(1, 1): -1, (2, 2): -1, (3, 3): -1, (6, 6): 1}),  # Andrews-Lewis-Lovejoy
        (A, {(1, 1): -1, (2, 2): -1}),
        (POD, {(1, 1): -1, (2, 2): 1, (4, 4): -1}),  # Hirschhorn-Sellers
        (POD2, {(1, 1): -2, (2, 2): 2, (4, 4): -2}),
        (OP2, {(1, 1): -4, (2, 2): 2}),
        # three f2^-1, psi = f2^2/f1 or phi = f2^5/(f1^2 f4^2), and
        # (-q^3;q^3) = f6/f3 sum to the quotients of pd, a and pod2
        (PD_IMAGE, {(1, 1): -1, (2, 2): -1, (3, 3): -1, (6, 6): 1}),
        (A_IMAGE, {(1, 1): -1, (2, 2): -1}),
        (POD2_IMAGE, {(1, 1): -2, (2, 2): 2, (4, 4): -2}),
    ],
    ids=["pd", "a", "pod", "pod2", "op2", "pd-image", "a-image", "pod2-image"],
)
def test_eta_exponents_are_published_quotients(f, gf):
    assert generating_function(f) == gf


def test_thetas_equal_eta_forms():
    # psi(q) = f2^2 / f1 and phi(q) = f2^5 / (f1^2 f4^2), built from full eta factors
    psi = {(1, 1): -1, (2, 2): 2}
    phi = {(1, 1): -2, (2, 2): 5, (4, 4): -2}
    assert staircase_theta(2000) == build_series(psi, 2000)
    assert odd_staircase_theta(2000) == build_series(phi, 2000)


def test_named_families_need_no_linear_sweep():
    for f in [*NAMED_FAMILIES.values(), PD_IMAGE, A_IMAGE, POD2_IMAGE]:
        assert all(a == b for a, b in generating_function(f)), f


def test_negative_truncation_rejected():
    with pytest.raises(ValueError):
        build_series({}, -1)
    with pytest.raises(ValueError):
        family_series(PD, -3)
    assert family_series(PD, 0) == one(0)


# --- residue arithmetic: the series mod m is the exact series reduced mod m ---

_RESIDUE_FAMILIES = ["pd", "a", "pod2", "op2", "ordinary", "p3_1", "d5_2", "p5_1,4", "d3_1,2"]
_MODULI = [1, 2, 3, 4, 5, 7, 9, 27]


@functools.lru_cache(maxsize=None)
def _exact_coeffs(name, truncation):
    return tuple(family_series(family_by_name(name), truncation).coeffs)


@pytest.mark.parametrize("m", _MODULI)
@pytest.mark.parametrize("name", _RESIDUE_FAMILIES)
def test_series_mod_m_is_the_exact_series_reduced(name, m):
    exact = _exact_coeffs(name, 400)
    assert family_series(family_by_name(name), 400, m).coeffs == [c % m for c in exact]


@pytest.mark.parametrize("m", _MODULI)
@pytest.mark.parametrize("name", _RESIDUE_FAMILIES)
def test_scan_matches_a_scan_of_the_exact_series(name, m):
    exact = _exact_coeffs(name, 400)
    for r in range(m):
        expected = [n for n in range((400 - r) // m + 1) if exact[m * n + r] % m]
        assert scan_congruence(family_by_name(name), 400, m, r) == expected, r


def test_scan_builds_through_family_series_with_its_modulus(monkeypatch):
    # the benchmark tracer counts series builds at `family_series`, so a scan
    # must build there, and mod its own modulus
    calls, build = [], series.family_series

    def recording(*args, **kwargs):
        calls.append(dict(inspect.signature(build).bind(*args, **kwargs).arguments))
        return build(*args, **kwargs)

    monkeypatch.setattr(series, "family_series", recording)
    scan_congruence(PD, 60, 5, 1)
    assert calls == [{"f": PD, "truncation": 60, "modulus": 5}]


@pytest.mark.parametrize("modulus", [0, -3])
def test_scan_refuses_a_modulus_below_1(modulus):
    with pytest.raises(ValueError, match="modulus"):
        scan_congruence(PD, 30, modulus)


def test_scan_refuses_a_negative_residue():
    with pytest.raises(ValueError, match="residue"):
        scan_congruence(PD, 30, 3, -1)


@pytest.mark.parametrize("modulus", [0, -3])
def test_series_refuses_a_modulus_below_1(modulus):
    with pytest.raises(ValueError, match="modulus"):
        build_series({(1, 1): -1}, 10, modulus)
    with pytest.raises(ValueError, match="modulus"):
        family_series(PD, 10, modulus)


def test_congruence_scan_finds_violations():
    # partitions into distinct parts: count(2) = 1, a witness at n = 0
    distinct = Family("mod-distinct", 1, (0,))
    violations = scan_congruence(distinct, 50)
    assert 0 in violations


# --- the sparse-sweep planner against the pentagonal-only engine -------------

def _pentagonal_sweep(coeffs, a, exponent):
    """Multiply in place by f_a^exponent, one pentagonal-number sweep per unit
    (the engine before the theta kernels, kept here as the reference)."""
    n, d = len(coeffs) - 1, 1 if exponent > 0 else -1
    taps = [(g, d * (-1) ** k) for k in range(1, math.isqrt(n // a) + 1)
            for g in (a * k * (3 * k - 1) // 2, a * k * (3 * k + 1) // 2) if g <= n]
    ends = [g for g, _ in taps[1:]] + [n + 1]
    for _ in range(abs(exponent)):
        for m in range(len(taps)) if d < 0 else reversed(range(len(taps))):
            add, sub = ([g for g, t in taps[: m + 1] if t == s] for s in (1, -1))
            sweep = range(taps[m][0], ends[m])
            for i in sweep if d < 0 else reversed(sweep):
                coeffs[i] += sum([coeffs[i - g] for g in add]) - sum([coeffs[i - g] for g in sub])


def _reference_build(factors, truncation):
    """One pentagonal sweep per unit of each f_a, one linear sweep per unit of
    each linear factor of a residue class."""
    coeffs = [1] + [0] * truncation
    for (a, b), exponent in factors.items():
        if a == b:
            _pentagonal_sweep(coeffs, a, exponent)
        else:
            for k in range(a, truncation + 1, b):
                _sweep(coeffs, k, 1, exponent)
    return PowerSeries(coeffs)


def _linear_exponents(factors, truncation):
    """{k: e} with prod (1 - q^k)^e = prod (q^a; q^b)^e up to q^truncation:
    the one form of a product that no rewriting of its factors changes."""
    out = Counter()
    for (a, b), e in factors.items():
        for k in range(a, truncation + 1, b):
            out[k] += e
    return {k: e for k, e in out.items() if e}


def _plan_sum(factors):
    total = Counter()
    for _, vector, k in _plan(factors):
        for key, e in vector.items():
            total[key] += k * e
    return {key: e for key, e in total.items() if e}


def _plan_sweeps(factors):
    return sum(abs(k) for _, _, k in _plan(factors))


eta_maps = st.dictionaries(
    st.tuples(st.integers(1, 12)).map(lambda a: (a[0], a[0])), st.integers(-5, 5), max_size=4
)


@st.composite
def residue_maps(draw):
    """Up to three residue classes mod t, most with their pair t - r, some
    exponents shared and some not, plus an eta factor now and then."""
    factors = Counter()
    for _ in range(draw(st.integers(1, 3))):
        t = draw(st.integers(2, 12))
        r = draw(st.integers(1, t - 1))
        e = draw(st.integers(-3, 3))
        factors[r, t] += e
        if draw(st.booleans()):
            factors[t - r, t] += draw(st.sampled_from([e, e, -e, 2 * e, e + 1]))
    out = {key: e for key, e in factors.items() if e}
    if draw(st.booleans()):
        a = draw(st.integers(1, 6))
        out[a, a] = draw(st.integers(-2, 2))
    return out


@settings(max_examples=40, deadline=None)
@given(eta_maps, st.integers(0, 500))
def test_random_eta_maps_match_pentagonal_engine(factors, truncation):
    assert build_series(factors, truncation) == _reference_build(factors, truncation)
    assert _plan_sum(factors) == {key: e for key, e in factors.items() if e}


@settings(max_examples=40, deadline=None)
@given(eta_maps, st.integers(0, 500), st.integers(1, 30))
def test_random_eta_maps_mod_m_match_pentagonal_engine(factors, truncation, m):
    exact = _reference_build(factors, truncation).coeffs
    assert build_series(factors, truncation, m).coeffs == [c % m for c in exact]


@settings(max_examples=40, deadline=None)
@given(residue_maps(), st.integers(0, 300), st.integers(1, 30))
def test_random_residue_maps_mod_m_match_linear_sweeps(factors, truncation, m):
    exact = _reference_build(factors, truncation).coeffs
    assert build_series(factors, truncation, m).coeffs == [c % m for c in exact]


@settings(max_examples=40, deadline=None)
@given(residue_maps(), st.integers(0, 300))
def test_random_residue_maps_match_linear_sweeps(factors, truncation):
    assert build_series(factors, truncation) == _reference_build(factors, truncation)
    assert _linear_exponents(_plan_sum(factors), 400) == _linear_exponents(factors, 400)


@pytest.mark.parametrize("a", [1, 2, 3])
@pytest.mark.parametrize("kernel", range(len(_ETA_KERNELS)))
def test_eta_kernels_equal_their_eta_forms_to_3000(kernel, a):
    (x, y, sign), vector = _ETA_KERNELS[kernel]
    s = one(3000)
    _apply_eta(s.coeffs, *_theta_taps(a * x, a * y, sign, 3000), 1)
    assert s == _reference_build({(c * a, c * a): e for c, e in vector.items()}, 3000)


_SIGNED = random.Random(20210303).choices(range(-10**6, 10**6 + 1), k=3001)


@pytest.mark.parametrize("a", [1, 2, 3])
@pytest.mark.parametrize("kernel", range(len(_ETA_KERNELS)))
def test_eta_sweeps_undo_each_other_to_3000(kernel, a):
    # exponent k sweeps downward and -k upward; each order must give back
    # every coefficient, across every block boundary, scale 2 included
    (x, y, sign), _ = _ETA_KERNELS[kernel]
    taps, scale = _theta_taps(a * x, a * y, sign, 3000)
    theta = one(3000).coeffs
    _apply_eta(theta, taps, scale, 1)  # 1 + scale * sum_g t_g q^g
    assert theta == [1] + [scale * dict(taps).get(i, 0) for i in range(1, 3001)]
    for k in (1, 2):
        for first in (k, -k):
            coeffs = list(_SIGNED)
            _apply_eta(coeffs, taps, scale, first)
            assert coeffs != _SIGNED
            _apply_eta(coeffs, taps, scale, -first)
            assert coeffs == _SIGNED, (k, first)


@pytest.mark.parametrize("r, t", [(1, 3), (1, 4), (1, 5), (2, 7)])
def test_triple_product_kernel_equals_its_linear_form_to_3000(r, t):
    # (q^r; q^t)(q^(t-r); q^t)(q^t; q^t) = sum_k (-1)^k q^(t k(k-1)/2 + r k)
    s = one(3000)
    _apply_eta(s.coeffs, *_theta_taps(r, t - r, -1, 3000), 1)
    assert s == _reference_build({(r, t): 1, (t - r, t): 1, (t, t): 1}, 3000)


@pytest.mark.parametrize(
    "name, sweeps",
    [("op2", 2), ("pod2", 2), ("op", 1), ("pod", 1), ("staircase", 1), ("odd-staircase", 1),
     ("pd", 4), ("a", 2), ("ordinary", 1), ("p5_1,4", 2), ("d3_1,2", 4), ("d2_1", 2)],
)
def test_plan_sizes(name, sweeps):
    factors = generating_function(family_by_name(name))
    assert _plan_sweeps(factors) == sweeps
    assert all(theta is not None for theta, _, _ in _plan(factors))


def test_plan_vectors_sum_to_the_map():
    for f in [*NAMED_FAMILIES.values(), PD_IMAGE, A_IMAGE, POD2_IMAGE]:
        assert _plan_sum(generating_function(f)) == generating_function(f), f
    for name in ["p5_1,4", "d3_1,2", "d2_1", "d3_0", "p7_1,2,5,6", "d4_1,3"]:
        factors = generating_function(family_by_name(name))
        assert _linear_exponents(_plan_sum(factors), 500) == _linear_exponents(factors, 500), name


def test_unpaired_residue_keeps_linear_sweeps():
    plan = _plan({(1, 5): -2, (4, 5): -1, (2, 7): 1})
    assert sorted((*vector, k) for theta, vector, k in plan if theta is None) == [
        ((1, 5), -1), ((2, 7), 1)
    ]
    assert build_series({(1, 5): -2, (4, 5): -1, (2, 7): 1}, 300) == _reference_build(
        {(1, 5): -2, (4, 5): -1, (2, 7): 1}, 300
    )


def test_nonpositive_offsets_rejected():
    for factors in ({(0, 0): 1}, {(0, 3): -1}, {(2, -1): 1}):
        with pytest.raises(ValueError):
            build_series(factors, 10)
