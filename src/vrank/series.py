"""Truncated formal power series in q over Python ints, and the family
generating functions used to cross-check every enumeration count.

A family's generating function is one exponent map {(a, b): e}, read as
prod (q^a; q^b)_inf^e.  A named family's map is its published eta quotient
prod f_a^e_a, f_a = (q^a; q^a)_inf, and a vector family's map is the sum of
its components' maps, so no map is derived from a bijection.

`build_series` applies a map in as few sparse sweeps as it finds.  Every
kernel is a Ramanujan theta f(s q^x, s q^y), whose O(sqrt(N/x)) nonzero
coefficients are the taps of one in-place O(N sqrt N) sweep (`_apply_eta`);
each unit of a kernel's exponent is one sweep.  A call builds its schedule
once, the blocks between consecutive taps with the taps each block reads,
and every unit replays it.  A sweep sums its taps in plain loops: under
CPython <= 3.11 a comprehension is a call per coefficient, which costs more
than the additions it wraps.

Given a modulus m, `build_series` computes in Z/mZ: each coefficient a sweep
writes is reduced mod m.  Every sweep multiplies or divides by 1 + sum_g t_g
q^g, whose constant term is 1, so each is a ring operation mod m (division
by a unit) and the residues are the exact coefficients mod m.  So
`scan_congruence` never builds the exact integers, which reach about 350
bits at N = 3000.

The kernel table, with the eta vector each kernel stands for:

    phi(q^a)  = f(q^a, q^a)       = f_2a^5 / (f_a^2 f_4a^2)   Jacobi
    phi(-q^a) = f(-q^a, -q^a)     = f_a^2 / f_2a              Gauss
    psi(q^a)  = f(q^a, q^3a)      = f_2a^2 / f_a              Gauss
    psi(-q^a) = f(-q^a, -q^3a)    = f_a f_4a / f_2a
    f_a       = f(-q^a, -q^2a)                                Euler

The eta part of a map is peeled greedily in that order: each kernel, at each
a from the smallest up, takes the largest exponent that moves every eta
exponent it touches towards 0 without passing it; f_a takes what is left.
So op2 = 1/phi(-q)^2 costs 2 sweeps, pod and the two theta families 1.

Residue-class factors (q^r; q^t)_inf, 0 < r < t, come from the mod-parts
and mod-distinct families.  A pair (r, t), (t - r, t) with a common exponent
k is f(-q^r, -q^(t-r))^k / f_t^k by the Jacobi triple product, so the pair
costs one sparse sweep per unit and adds -k to the eta part;
(q^r; q^2r)_inf is f_r / f_2r.  Any other residue factor is one sweep of
the same kernel per linear factor 1 - q^k, whose one tap is -1 at k.
"""

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


def _apply_eta(
    coeffs: list[int], taps: list[tuple[int, int]], scale: int, exponent: int,
    modulus: int | None = None,
) -> None:
    """Multiply in place by (1 + scale * sum_g t_g q^g)^exponent, t_g = +-1,
    one sweep per unit: c[i] += d * scale * sum_g t_g c[i-g] multiplies when
    swept downward (d = 1) and divides when swept upward (d = -1).  The taps
    g <= i change only at each offset g, so the sweep runs block by block;
    the blocks, each a range with its + and - taps, are built once, one tap
    at a time, and reused by every unit.  With a modulus, each coefficient
    written is reduced mod it."""
    n, m = len(coeffs) - 1, scale if exponent > 0 else -scale
    blocks, add, sub = [], (), ()
    for (g, t), end in zip(taps, [g for g, _ in taps[1:]] + [n + 1]):
        if t == 1:
            add += (g,)
        else:
            sub += (g,)
        blocks.append((range(g, end), add, sub))
    if m > 0:
        blocks = [(sweep[::-1], add, sub) for sweep, add, sub in reversed(blocks)]
    for _ in range(abs(exponent)):
        for sweep, add, sub in blocks:
            for i in sweep:
                total = 0
                for g in add:
                    total += coeffs[i - g]
                for g in sub:
                    total -= coeffs[i - g]
                if modulus:
                    coeffs[i] = (coeffs[i] + m * total) % modulus
                else:
                    coeffs[i] += m * total


def _theta_taps(x: int, y: int, sign: int, n: int) -> tuple[list[tuple[int, int]], int]:
    """The taps and scale of Ramanujan's f(sign q^x, sign q^y) - 1 up to q^n,
    f(a, b) = sum_{k in Z} a^(k(k+1)/2) b^(k(k-1)/2): each k != 0 puts sign^k
    at x k(k+1)/2 + y k(k-1)/2.  Two k share an offset only when x = y (k and
    -k), so every tap has the one magnitude 1 or, when x = y, 2."""
    taps = {}
    for step in (1, -1):
        k = step
        while (g := x * k * (k + 1) // 2 + y * k * (k - 1) // 2) <= n:
            taps[g] = sign ** (k % 2)
            k += step
    return sorted(taps.items()), 2 if x == y else 1


# The kernels of the eta peel, in the order it tries them: the theta
# f(s q^(a x), s q^(a y)) for (x, y, s), and its eta vector {c: e}, the
# product of f_(c a)^e.  By the Jacobi triple product
# f(-q^x, -q^y) = (q^x; q^t)(q^y; q^t)(q^t; q^t), t = x + y.
_ETA_KERNELS = (
    ((1, 1, 1), {1: -2, 2: 5, 4: -2}),  # phi(q^a) = f_2a^5 / (f_a^2 f_4a^2), Jacobi
    ((1, 1, -1), {1: 2, 2: -1}),  # phi(-q^a) = f_a^2 / f_2a, Gauss
    ((1, 3, 1), {1: -1, 2: 2}),  # psi(q^a) = f_2a^2 / f_a, Gauss
    ((1, 3, -1), {1: 1, 2: -1, 4: 1}),  # psi(-q^a) = f_a f_4a / f_2a
    ((1, 2, -1), {1: 1}),  # f_a, Euler's pentagonal series; fits any rest
)


def _fit(eta: dict[int, int], vector: dict[int, int]) -> int:
    """The exponent k of largest size such that each eta[c] - k * vector[c]
    lies between 0 and eta[c]: the kernel takes k units off the map with no
    sign change."""
    for sign in (1, -1):
        k = min(max(0, sign * eta.get(c, 0) // e) for c, e in vector.items())
        if k:
            return sign * k
    return 0


def _plan(factors: dict[tuple[int, int], int]) -> list[tuple[tuple | None, dict, int]]:
    """Steps (theta, vector, k) whose vectors, times k, sum to `factors`,
    with each (q^a; q^2a) read as f_a / f_2a.

    A residue pair (r, t), (t - r, t) with 0 < r < t - r shares its common
    exponent k with the Jacobi triple product f(-q^r, -q^(t-r)), which moves
    f_t^-k to the eta part.  The eta part is peeled greedily: each kernel of
    _ETA_KERNELS, at each a in increasing order, takes the largest exponent
    that fits.  The rest of a residue-class factor is a linear step (theta
    None)."""
    eta, linear = Counter(), Counter()
    for (a, b), e in factors.items():
        if a == b:
            eta[a] += e
        elif b == 2 * a:  # (q^a; q^2a) = f_a / f_2a
            eta.update({a: e, b: -e})
        else:
            linear[a, b] += e
    steps = []
    for r, t in sorted(linear):
        pair = {(r, t): 1, (t - r, t): 1}
        k = _fit(linear, pair) if 0 < r < t - r else 0
        if k:
            steps.append(((r, t - r, -1), {**pair, (t, t): 1}, k))
            linear.subtract({key: k for key in pair})
            eta[t] -= k
    for (x, y, s), vector in _ETA_KERNELS:
        for a in sorted(eta):
            scaled = {c * a: e for c, e in vector.items()}
            k = _fit(eta, scaled)
            if k:
                steps.append(((a * x, a * y, s), {(c, c): e for c, e in scaled.items()}, k))
                eta.subtract({c: k * e for c, e in scaled.items()})
    steps += [(None, {key: 1}, e) for key, e in linear.items() if e]
    return sorted(steps, key=lambda step: -step[2])  # multiply while coefficients are small


def build_series(
    factors: dict[tuple[int, int], int], truncation: int, modulus: int | None = None
) -> PowerSeries:
    """prod (q^a; q^b)_inf^e over the items ((a, b), e) of `factors`, one
    `_apply_eta` sweep per unit exponent of each step of `_plan`: a theta's
    taps, or the one tap of each linear factor 1 - q^k of a residue class.
    With a modulus m, each coefficient is the exact one reduced mod m."""
    if truncation < 0:
        raise ValueError(f"truncation must be >= 0, got {truncation}")
    if any(a <= 0 or b <= 0 for a, b in factors):
        raise ValueError(f"factor offsets must be positive, got {sorted(factors)}")
    if modulus is not None and modulus < 1:
        raise ValueError(f"modulus must be >= 1, got {modulus}")
    s = one(truncation)
    if modulus is not None:
        s.coeffs[0] %= modulus
    for theta, vector, exponent in _plan(factors):
        if theta is None:
            ((a, b),) = vector
            for k in range(a, truncation + 1, b):
                _apply_eta(s.coeffs, [(k, -1)], 1, exponent, modulus)
        else:
            _apply_eta(s.coeffs, *_theta_taps(*theta, truncation), exponent, modulus)
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


def family_series(f: Family, truncation: int, modulus: int | None = None) -> PowerSeries:
    return build_series(generating_function(f), truncation, modulus)


def scan_congruence(f: Family, bound: int, modulus: int = 3, residue: int = 2) -> list[int]:
    """All n with modulus*n + residue <= bound whose coefficient there is
    nonzero mod modulus.  Expected empty for the four congruence families.
    The series is built in residue arithmetic, `family_series(f, bound,
    modulus)`, so no coefficient grows past the modulus; the residues are the
    exact coefficients' (see the module docstring).  A modulus below 1 is
    refused there, and a negative residue here, both by ValueError."""
    if residue < 0:
        raise ValueError(f"residue must be >= 0, got {residue}")
    s = family_series(f, bound, modulus)
    top = (bound - residue) // modulus
    return [n for n in range(top + 1) if s[modulus * n + residue]]
