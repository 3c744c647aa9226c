"""Truncated formal power series in q over Python ints, and the family
generating functions used to cross-check every enumeration count.

Each named family's generating function is an eta quotient prod (q^a; q^a)_inf^e_a,
applied in place in O(N sqrt N) per factor by the pentagonal number theorem;
residue-class factors (q^a; q^b)_inf, a < b, take an O(N) sweep per linear factor.
"""

import itertools
import math
from collections import Counter
from dataclasses import dataclass

from .families import A, Family, PD, POD, POD2, UnknownFamilyError


class PowerSeries:
    """Coefficients 0..truncation; arithmetic truncates to the shorter operand."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = list(coeffs)

    @property
    def truncation(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> int:
        if not 0 <= n <= self.truncation:
            raise IndexError(f"coefficient {n} beyond truncation {self.truncation}")
        return self.coeffs[n]

    def __eq__(self, other) -> bool:
        return isinstance(other, PowerSeries) and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:8])
        return f"PowerSeries([{head}{', ...' if self.truncation > 7 else ''}])"

    def mul(self, other: "PowerSeries") -> "PowerSeries":
        """Cauchy product, truncated at the smaller truncation."""
        n = min(self.truncation, other.truncation)
        out = [0] * (n + 1)
        for i, ci in enumerate(self.coeffs[: n + 1]):
            if ci == 0:
                continue
            for j, cj in enumerate(other.coeffs[: n - i + 1]):
                if cj:
                    out[i + j] += ci * cj
        return PowerSeries(out)


def one(truncation: int) -> PowerSeries:
    return PowerSeries([1] + [0] * truncation)


# Eta forms of the theta sums (Gauss, Jacobi): psi(q) = f2^2/f1, phi(q) = f2^5/(f1^2 f4^2).
_THETA_ETA = {"staircase": {1: -1, 2: 2}, "odd-staircase": {1: -2, 2: 5, 4: -2}}


@dataclass(frozen=True)
class ProductSpec:
    """A product of Pochhammer factors times theta-style sums: each factor
    (a, b, exponent, sign), a <= b, is (sign * q^a; q^b)_inf ** exponent, i.e.
    prod_{j>=0} (1 - sign * q^(a + j*b)) ** exponent; thetas names sums among
    {"staircase", "odd-staircase"}."""

    factors: tuple[tuple[int, int, int, int], ...] = ()
    thetas: tuple[str, ...] = ()

    def __post_init__(self):
        for a, b, _, sign in self.factors:
            if not (1 <= a <= b) or sign not in (1, -1):
                raise ValueError(f"bad factor {(a, b, sign)}")

    def eta_exponents(self) -> dict[int, int]:
        """{a: e_a}: the thetas and full-period factors (a == b) as prod f_a^e_a."""
        eta = Counter()
        for a, b, exponent, sign in self.factors:
            if a == b:  # (-q^a; q^a)_inf = f_2a / f_a
                eta.update({a: -exponent, 2 * a: exponent} if sign < 0 else {a: exponent})
        for name in self.thetas:
            eta.update(_THETA_ETA[name])
        return {a: e for a, e in sorted(eta.items()) if e}


def _apply_linear(coeffs: list[int], k: int, sign: int, exponent: int) -> None:
    """Multiply in place by (1 - sign*q^k)^exponent."""
    n = len(coeffs) - 1
    for _ in range(abs(exponent)):
        if exponent > 0:
            for i in range(n, k - 1, -1):
                coeffs[i] -= sign * coeffs[i - k]
        else:
            for i in range(k, n + 1):
                coeffs[i] += sign * coeffs[i - k]


def _apply_eta(coeffs: list[int], a: int, exponent: int) -> None:
    """Multiply in place by f_a^exponent, one O(N sqrt(N/a)) sweep per unit:
    f_a - 1 = sum_{k>=1} (-1)^k (q^(a k(3k-1)/2) + q^(a k(3k+1)/2)), so
    c[i] += d * sum_g s_g c[i-g] over its terms s_g q^g multiplies by f_a when
    swept downward (d = 1) and divides when swept upward (d = -1).  The taps
    g <= i change only at each offset g, so the sweep runs block by block."""
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


def staircase_theta(truncation: int) -> PowerSeries:
    """1 at each triangular number (weights of staircase partitions)."""
    coeffs = [0] * (truncation + 1)
    triangular = itertools.accumulate(itertools.count())
    for w in itertools.takewhile(lambda w: w <= truncation, triangular):
        coeffs[w] = 1
    return PowerSeries(coeffs)


def odd_staircase_theta(truncation: int) -> PowerSeries:
    """1 at 0 and 2 at positive squares (overline doubles each m >= 1)."""
    coeffs = [1] + [0] * truncation
    for m in range(1, math.isqrt(truncation) + 1):
        coeffs[m * m] = 2
    return PowerSeries(coeffs)


def build_series(spec: ProductSpec, truncation: int) -> PowerSeries:
    if truncation < 0:
        raise ValueError(f"truncation must be >= 0, got {truncation}")
    s = one(truncation)
    for a, b, exponent, sign in spec.factors:
        for k in range(a, truncation + 1, b) if a < b else ():
            _apply_linear(s.coeffs, k, sign, exponent)
    for a, exponent in spec.eta_exponents().items():
        _apply_eta(s.coeffs, a, exponent)
    return s


# --- family generating functions -------------------------------------------
def product_spec(f: Family) -> ProductSpec:
    """Product spec of a family's generating function: for the three
    congruence families the product of their bijection codomain's components,
    else the defining product (for vector families, of each component)."""
    if f == PD:
        # staircase * (-q^3;q^3)_inf / (q^2;q^2)_inf^3
        return ProductSpec(((3, 3, 1, -1), (2, 2, -3, 1)), ("staircase",))
    if f == A:
        return ProductSpec(((2, 2, -3, 1),), ("staircase",))
    if f == POD2:
        return ProductSpec(((2, 2, -3, 1),), ("odd-staircase",))
    if f == POD:
        # (-q;q^2)_inf / (q^2;q^2)_inf = f2 / (f1 f4)
        return ProductSpec(((2, 2, 1, 1), (1, 1, -1, 1), (4, 4, -1, 1)))
    if f.tag == "vector":
        parts = [product_spec(g) for g in f.components]
        return ProductSpec(sum((p.factors for p in parts), ()), sum((p.thetas for p in parts), ()))
    if f.tag in ("mod-parts", "mod-distinct"):
        exponent, sign = (-1, 1) if f.tag == "mod-parts" else (1, -1)
        return ProductSpec(tuple((r or f.modulus, f.modulus, exponent, sign) for r in f.residues))
    if f.tag == "overpartition":
        return ProductSpec(((1, 1, 1, -1), (1, 1, -1, 1)))
    if f.tag in _THETA_ETA:
        return ProductSpec((), (f.tag,))
    raise UnknownFamilyError(f"no product spec for family {f.tag}")


def family_series(f: Family, truncation: int) -> PowerSeries:
    return build_series(product_spec(f), truncation)


def a_series_direct(truncation: int) -> PowerSeries:
    """Direct two-color form 1/((q;q)(q^2;q^2)), independent of the bijection."""
    return build_series(ProductSpec(((1, 1, -1, 1), (2, 2, -1, 1))), truncation)


def scan_congruence(f: Family, bound: int, modulus: int = 3, residue: int = 2) -> list[int]:
    """All n with modulus*n + residue <= bound whose coefficient there is
    nonzero mod modulus.  Expected empty for the four congruence families."""
    s = family_series(f, bound)
    top = (bound - residue) // modulus
    return [n for n in range(top + 1) if s[modulus * n + residue] % modulus != 0]
