"""The three workload bodies.  Each runs in a fresh interpreter, so the
`lru_cache` state in `vrank.families` is cold, as it is for one CLI call.

Every input is fixed: the workloads are exhaustive over their ranges, so the
seed selects nothing.  Families always run in the order given here.  vrank
functions are looked up on their modules at call time, so the wrappers that
`tracer.Instrumentation` binds there are the ones called.
"""

import contextlib
import hashlib
import io

from vrank import cli, families, orbits, series

ROUNDTRIP_FAMILIES = (("pd", families.PD), ("a", families.A), ("pod2", families.POD2))
VERIFY_FAMILIES = ("pd", "a", "pod2", "op2")
SERIES_FAMILIES = (
    ("pd", families.PD), ("a", families.A), ("pod2", families.POD2), ("op2", families.OP2)
)

# "full" is what a benchmark run measures; "small" is for the self-test.
# Each full repetition takes about 0.6 s on a 2-core Xeon at 2.1 GHz, so a run
# holds enough repetitions for a steady median.
SIZES = {
    "full": {
        "roundtrip_max_n": 13,
        "verify_args": ("--max-n", "300", "--ceiling", "17"),
        "series_n": 600,
    },
    "small": {
        "roundtrip_max_n": 8,
        "verify_args": ("--max-n", "40", "--ceiling", "11"),
        "series_n": 120,
    },
}

# sha256 of the comma-joined coefficients 0..N of each family's generating
# function, for N = SIZES[size]["series_n"].  These are counts of partitions,
# so any correct series engine reproduces them.
SERIES_DIGESTS = {
    "full": {
        "pd": "001410f86fa6bbcf0114f10a6151bbf0fc394a80cb1beb091bb2f1222c62e379",
        "a": "4b00f98a0f6b610dd588f4792ade78c9c45b1938751ae11684e8b1158662c885",
        "pod2": "86656e9054e6d69a13d0463ec7a4dc676489f6ae2e8e989deb98006c40347cb7",
        "op2": "eb883bd0d340032068805f029b561a9076e761656c754325ce3c198242f66132",
    },
    "small": {
        "pd": "64784d2ad6b26add119fe337e65b7d81a03f1778402a2d26972c581e7c0d38d5",
        "a": "708d2a7a150f153a0bf64e65d63238815db8b96ca88866a0901f83ac5563a12e",
        "pod2": "5d5eb02ec5d1efbada4e0307a45145434d67dd06b05bdbee7c6390b9c77cfcbf",
        "op2": "13830b01c74aeea021b87b2bdc0ae5e0dad146b5a38f4624a967776b5d05a511",
    },
}


class Tally:
    """Checks attempted and failed, the first few failures, and the work count."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.items = 0
        self.errors: list[str] = []

    def check(self, ok: bool, what) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(what() if callable(what) else what)


def coeff_digest(coeffs) -> str:
    return hashlib.sha256(",".join(map(str, coeffs)).encode()).hexdigest()


def roundtrip(size: str) -> Tally:
    """Every element of weight 0..max_n of pd, a and pod2, and of their image
    spaces: weight is preserved and inverse(forward(x)) == x, forward(inverse(v)) == v."""
    tally = Tally()
    max_n = SIZES[size]["roundtrip_max_n"]
    for name, f in ROUNDTRIP_FAMILIES:
        forward, inverse, image = orbits.family_bijection(f)
        for n in range(max_n + 1):
            for x in families.enumerate_family(f, n):
                v = forward(x)
                tally.check(
                    v.weight == n and inverse(v) == x,
                    lambda: f"{name}: round trip of {families.format_element(f, x)}",
                )
            for v in families.enumerate_family(image, n):
                x = inverse(v)
                tally.check(
                    x.weight == n and forward(x) == v,
                    lambda: f"{name}: round trip of {families.format_element(image, v)}",
                )
    tally.items = tally.attempted
    return tally


def verify(size: str) -> Tally:
    """`vrank verify --method all` for each family; exit 0 and an ok line per method."""
    tally = Tally()
    for name in VERIFY_FAMILIES:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["verify", "--family", name, *SIZES[size]["verify_args"],
                             "--method", "all"])
        lines = out.getvalue().splitlines()
        tally.check(code == 0, f"verify {name} exited {code}: {lines}")
        for method in verify_methods(name):
            tally.check(f"{name} {method}: ok" in lines, f"verify {name} {method}: {lines}")
    return tally


def verify_methods(name: str) -> tuple[str, ...]:
    return ("series", "enumerate") if name == "op2" else ("series", "enumerate", "orbits")


def verify_elements(size: str) -> int:
    """Elements in the slices the enumerate and orbits methods of `verify` cover.

    Run after the timed body, when the counts are cached."""
    total = 0
    for name in VERIFY_FAMILIES:
        args = cli.build_parser().parse_args(
            ["verify", "--family", name, *SIZES[size]["verify_args"]]
        )
        f = families.NAMED_FAMILIES[name]
        per_method = sum(
            families.count_family(f, n, ceiling=args.ceiling)
            for n in range(2, min(args.max_n, args.ceiling) + 1, 3)
        )
        total += per_method * (len(verify_methods(name)) - 1)
    return total


def series_scan(size: str) -> Tally:
    """family_series then scan_congruence at N for each family.  Each series is
    built twice, once here and once inside scan_congruence."""
    tally = Tally()
    n = SIZES[size]["series_n"]
    for name, f in SERIES_FAMILIES:
        s = series.family_series(f, n)
        digest = coeff_digest(s.coeffs)
        tally.check(
            digest == SERIES_DIGESTS[size][name],
            f"{name}: series digest {digest} at N={n}",
        )
        violations = series.scan_congruence(f, n)
        tally.check(violations == [], f"{name}: congruence fails at {violations[:5]}")
        tally.items += 2 * (n + 1)
    return tally


WORKLOADS = {"roundtrip": roundtrip, "verify": verify, "series": series_scan}
