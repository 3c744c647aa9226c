"""Truncated formal power series in q over Python ints, and the family
generating functions used to cross-check every enumeration count.

A family's generating function is one exponent map {(a, b): e}, read as
prod (q^a; q^b)_inf^e.  A named family's map is its published eta quotient
prod f_a^e_a, f_a = (q^a; q^a)_inf, and a vector family's map is the sum of
its components' maps, so no map is derived from a bijection.  Each f_a is
applied in place in O(N sqrt N) by the pentagonal number theorem;
residue-class factors (q^a; q^b)_inf, a < b, take an O(N) sweep per linear
factor.
"""

import itertools
import math
from collections import Counter

from .families import Family, UnknownFamilyError


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


def _apply_linear(coeffs: list[int], k: int, exponent: int) -> None:
    """Multiply in place by (1 - q^k)^exponent."""
    n = len(coeffs) - 1
    for _ in range(abs(exponent)):
        if exponent > 0:
            for i in range(n, k - 1, -1):
                coeffs[i] -= coeffs[i - k]
        else:
            for i in range(k, n + 1):
                coeffs[i] += coeffs[i - k]


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


def build_series(factors: dict[tuple[int, int], int], truncation: int) -> PowerSeries:
    """prod (q^a; q^b)_inf^e over the items ((a, b), e) of `factors`."""
    if truncation < 0:
        raise ValueError(f"truncation must be >= 0, got {truncation}")
    s = one(truncation)
    for (a, b), exponent in factors.items():
        if a == b:
            _apply_eta(s.coeffs, a, exponent)
        else:
            for k in range(a, truncation + 1, b):
                _apply_linear(s.coeffs, k, exponent)
    return s


# --- family generating functions -------------------------------------------
# Published eta quotients {a: e_a} of the named families, prod f_a^e_a.
_ETA_QUOTIENTS = {
    "designated": {1: -1, 2: -1, 3: -1, 6: 1},  # f6/(f1 f2 f3), Andrews-Lewis-Lovejoy
    "two-color": {1: -1, 2: -1},  # 1/(f1 f2)
    "pod": {1: -1, 2: 1, 4: -1},  # f2/(f1 f4), Hirschhorn-Sellers
    "overpartition": {1: -2, 2: 1},  # f2/f1^2
    "staircase": {1: -1, 2: 2},  # psi(q) = f2^2/f1 (Gauss)
    "odd-staircase": {1: -2, 2: 5, 4: -2},  # phi(q) = f2^5/(f1^2 f4^2) (Jacobi)
}


def generating_function(f: Family) -> dict[tuple[int, int], int]:
    """{(a, b): e} such that f's generating function is prod (q^a; q^b)_inf^e.
    Distinct parts use (-x; q)_inf = (x^2; q^2)_inf / (x; q)_inf."""
    gf = Counter()
    if f.tag == "vector":
        for g in f.components:
            gf.update(generating_function(g))
    elif f.tag in ("mod-parts", "mod-distinct"):
        for r in f.residues:
            a, b = r or f.modulus, f.modulus
            gf[a, b] -= 1
            if f.tag == "mod-distinct":
                gf[2 * a, 2 * b] += 1
    elif f.tag in _ETA_QUOTIENTS:
        gf.update({(a, a): e for a, e in _ETA_QUOTIENTS[f.tag].items()})
    else:
        raise UnknownFamilyError(f"no generating function for family {f.tag}")
    return {k: e for k, e in gf.items() if e}


def family_series(f: Family, truncation: int) -> PowerSeries:
    return build_series(generating_function(f), truncation)


def scan_congruence(f: Family, bound: int, modulus: int = 3, residue: int = 2) -> list[int]:
    """All n with modulus*n + residue <= bound whose coefficient there is
    nonzero mod modulus.  Expected empty for the four congruence families."""
    s = family_series(f, bound)
    top = (bound - residue) // modulus
    return [n for n in range(top + 1) if s[modulus * n + residue] % modulus != 0]
