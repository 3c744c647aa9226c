import hashlib
import json

import pytest

from vrank import orbits
from vrank.cli import VERIFY_CEILING, build_parser, main
from vrank.families import PD, VTuple, parse_element
from vrank.partition import union

CEILING = str(VERIFY_CEILING)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_text(capsys):
    code, out, _ = run(capsys, "enumerate", "--family", "a", "--n", "2")
    assert code == 0
    assert "3 elements" in out
    assert "2b" in out and "2r" in out and "1r+1r" in out


def test_enumerate_json_round_trips(capsys):
    code, out, _ = run(capsys, "enumerate", "--family", "pd", "--n", "5", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["elements"]) == 15
    from vrank.families import PD, format_element, parse_element

    assert [format_element(PD, parse_element(PD, t)) for t in doc["elements"]] == doc["elements"]


def test_bijection_forward(capsys):
    code, out, _ = run(capsys, "bijection", "--family", "pd", "--forward", "5'")
    assert code == 0
    assert out.strip() == "(4;0;0;1;0)"


def test_bijection_inverse(capsys):
    code, out, _ = run(capsys, "bijection", "--family", "pd", "--inverse", "(4;0;0;1;0)")
    assert code == 0
    assert out.strip() == "5'"


def test_bijection_pod2_overline(capsys):
    code, out, _ = run(capsys, "bijection", "--family", "pod2", "--forward", "(0;5)")
    assert code == 0
    assert out.strip() == "(0;0;2+2;1~)"


def test_orbits_json(capsys):
    code, out, _ = run(capsys, "orbits", "--family", "a", "--n", "5", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["orbits"]) == 4
    assert sum(len(o) for o in doc["orbits"]) == 12


def test_orbits_markdown(capsys):
    code, out, _ = run(capsys, "orbits", "--family", "pd", "--n", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "| element | tuple | r_V | orbit |"
    assert len(lines) == 17  # header, separator, 15 rows


def test_verify_series(capsys):
    code, out, _ = run(
        capsys, "verify", "--family", "pd", "--max-n", "300", "--method", "series"
    )
    assert code == 0
    assert "pd series: ok" in out


def test_verify_all_methods_agree(capsys):
    code, out, _ = run(
        capsys, "verify", "--family", "pod2", "--max-n", "50", "--method", "all",
        "--ceiling", "11",
    )
    assert code == 0
    assert "series: ok" in out and "enumerate: ok" in out and "orbits: ok" in out


def test_verify_reports_the_weights_it_checked(capsys):
    # --ceiling caps the enumerate and orbits methods below --max-n: each
    # says so before its result, and the run still exits 0
    code, out, _ = run(
        capsys, "verify", "--family", "pd", "--max-n", "300", "--ceiling", "8",
    )
    assert code == 0
    assert out.splitlines() == [
        "pd series: checked n = 2, 5, ..., 299 (--max-n 300)",
        "pd series: ok",
        "pd enumerate: checked n = 2, 5, 8 (capped by --ceiling 8; --max-n 300)",
        "pd enumerate: ok",
        "pd orbits: checked n = 2, 5, 8 (capped by --ceiling 8; --max-n 300)",
        "pd orbits: ok",
    ]


@pytest.mark.parametrize(
    "max_n,ceiling,line",
    [
        ("10", "9", "a enumerate: checked n = 2, 5, 8 (--max-n 10)"),
        ("11", "10", "a enumerate: checked n = 2, 5, 8 (capped by --ceiling 10; --max-n 11)"),
        ("1", CEILING, "a enumerate: checked no weight (--max-n 1)"),
        ("11", CEILING, "a enumerate: checked n = 2, 5, 8, 11 (--max-n 11)"),
        ("14", CEILING, "a enumerate: checked n = 2, 5, ..., 14 (--max-n 14)"),
    ],
)
def test_verify_range_line(capsys, max_n, ceiling, line):
    code, out, _ = run(
        capsys, "verify", "--family", "a", "--max-n", max_n, "--ceiling", ceiling,
        "--method", "enumerate",
    )
    assert code == 0
    assert out.splitlines() == [line, "a enumerate: ok"]


def test_verify_ceiling_defaults_to_the_named_constant():
    args = build_parser().parse_args(["verify", "--family", "a", "--max-n", "5"])
    assert args.ceiling == VERIFY_CEILING


def test_verify_degenerate_orbit_exits_1(capsys, monkeypatch):
    # an identity operator makes every orbit degenerate: a verification
    # failure with a witness per weight, not a usage error
    monkeypatch.setattr(orbits, "o_hat", lambda v: v)
    code, out, err = run(
        capsys, "verify", "--family", "pd", "--max-n", "8", "--method", "orbits"
    )
    assert code == 1
    assert err == ""
    assert out.splitlines()[1:] == [
        "pd orbits: FAIL",
        "orbits: orbit of 1'+1 at n=2 is degenerate",
        "orbits: orbit of 1'+1+1+1+1 at n=5 is degenerate",
        "orbits: orbit of 1'+1+1+1+1+1+1+1 at n=8 is degenerate",
    ]


def test_verify_failed_round_trip_exits_1(capsys, monkeypatch):
    forward, _, image = orbits.family_bijection(PD)
    wrong = parse_element(PD, "2'")
    monkeypatch.setitem(orbits._LAMBDAS, PD, (forward, lambda v: wrong, image))
    code, out, _ = run(
        capsys, "verify", "--family", "pd", "--max-n", "2", "--method", "orbits"
    )
    assert code == 1
    assert out.splitlines()[1:] == [
        "pd orbits: FAIL",
        "orbits: round trip of 1'+1 at n=2 gives 2'",
    ]


def test_verify_operator_image_outside_codomain_exits_1(capsys, monkeypatch):
    # an o_hat that adds a part 3 gives tuples no inverse accepts: each weight
    # fails with its first element as the witness, not a usage error
    def add_part_3(v):
        return VTuple((union(v.components[0], (3,)),) + v.components[1:])

    monkeypatch.setattr(orbits, "o_hat", add_part_3)
    code, out, err = run(
        capsys, "verify", "--family", "pd", "--max-n", "5", "--method", "orbits"
    )
    assert code == 1
    assert err == ""
    assert out.splitlines()[1:] == [
        "pd orbits: FAIL",
        "orbits: orbit of 1'+1 at n=2 fails: quotient parts must be even: (3, 2), ()",
        "orbits: orbit of 1'+1+1+1+1 at n=5 fails: quotient parts must be even: (3,), (2, 2)",
    ]


def test_verify_orbits_that_miss_elements_exit_1(capsys, monkeypatch):
    # a slice that drops its first element still yields whole orbits, which
    # then cover more elements than the slice has
    enumerate_family = orbits.enumerate_family
    monkeypatch.setattr(orbits, "enumerate_family", lambda *a, **k: enumerate_family(*a, **k)[1:])
    code, out, err = run(
        capsys, "verify", "--family", "pd", "--max-n", "8", "--method", "orbits"
    )
    assert code == 1
    assert err == ""
    assert out.splitlines()[1:] == [
        "pd orbits: FAIL",
        "orbits: 1 orbits cover 2 elements at n=2",
        "orbits: 5 orbits cover 14 elements at n=5",
        "orbits: 23 orbits cover 68 elements at n=8",
    ]


def test_verify_op2_skips_orbits(capsys):
    code, out, _ = run(
        capsys, "verify", "--family", "op2", "--max-n", "30", "--method", "all",
        "--ceiling", "8",
    )
    assert code == 0
    assert "orbits" not in out


def test_verify_op2_orbits_is_an_error(capsys):
    code, _, err = run(
        capsys, "verify", "--family", "op2", "--max-n", "30", "--method", "orbits"
    )
    assert code == 2
    assert "op2" in err


def test_series_csv(capsys):
    code, out, _ = run(capsys, "series", "--family", "staircase", "--terms", "7")
    assert code == 0
    assert out.splitlines() == ["0,1", "1,1", "2,0", "3,1", "4,0", "5,0", "6,1", "7,0"]


# sha256 of the stdout of `vrank series --family <id> --terms 3000`, as the
# engine with one pentagonal sweep per unit eta exponent and one linear sweep
# per residue-class factor printed it.
SERIES_3000_SHA256 = {
    "pd": "c0c6c09ada3358949174a3ab637c23a6525f0a38c39a96e674bf626f287b5aed",
    "a": "236a992775b00ee3eb817eda21a227a4c7fd639289881cf5eb33647f1d539781",
    "pod": "f328bcba1a3cb99c72627f343757e094d3d1e3a18d14ffc440c5633d53157417",
    "pod2": "ccbea7ba739a2f585486b47ea7fad412cb2186a64d02ccc210a06bd8ea76d7eb",
    "op": "c158537965632bd267959221aa35863e4a06d4bf9e562ccaba2516308ddb82c7",
    "op2": "6cfaa86c0749c3a499872b454ec559e2f4525be9198df5bd632f383b0ef3de19",
    "ordinary": "c8625e9c1ddd72e633ba6e3ae6fb4677a36751e9d05ffd986fdce1ed6e242d12",
    "staircase": "b2c6dccac2e201d13049dcb4c2f2e92e4e6b97a20855c87372e6284d8d8028ee",
    "odd-staircase": "b6088ccbdf7222f23b8de2be215968e9fb1ca0209bf9b35e52c68f2b66e94dc6",
    "p5_1,4": "6e980d988db03a73f048d587a0c93c4d00fcf0f3f51fe9f031724aad046abec2",
    "d3_1,2": "d09e40fc41c19841937b493dc1215a384006016e786433470835e514737b8751",
    "d2_1": "07f5eba2789169437f56f2d0f0ed5f7a1f426b2a533c47f1dec281fa33f6ffa8",
    "d3_0": "267b1d41208a7d8eece1bb77fc3e0d3608d05203a1550d2fc65826d9b018ea0f",
}


@pytest.mark.parametrize("name", SERIES_3000_SHA256)
def test_series_stdout_pinned_at_3000(capsys, name):
    code, out, _ = run(capsys, "series", "--family", name, "--terms", "3000")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SERIES_3000_SHA256[name]


def test_selftest(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert "0 failure(s)" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "--family", "nope", "--n", "3"),
        ("enumerate", "--family", "pd", "--n", "99"),
        ("bijection", "--family", "pd", "--forward", "2+2"),
        ("bijection", "--family", "pd", "--inverse", "(1;0;0;0;0)"),
        ("orbits", "--family", "pd", "--n", "4"),
        ("series", "--family", "p2_1,1", "--terms", "5"),
        ("enumerate", "--family", "d2_1,1", "--n", "4"),
        ("bijection", "--family", "pd", "--forward", "1_0'"),
        ("bijection", "--family", "a", "--forward", "02r+ 1r"),
    ],
)
def test_usage_errors_exit_2(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ("series", "--family", "pd", "--terms", "-3"),
        ("verify", "--family", "pd", "--max-n", "-5"),
        ("enumerate", "--family", "pd", "--n", "-1"),
        ("orbits", "--family", "pd", "--n", "-1"),
        ("verify", "--family", "pd", "--max-n", "20", "--ceiling", "-5"),
        ("enumerate", "--family", "pd", "--n", "3", "--ceiling", "-1"),
        ("orbits", "--family", "pd", "--n", "2", "--ceiling", "-1"),
    ],
    ids=["series-terms", "verify-max-n", "enumerate-n", "orbits-n",
         "verify-ceiling", "enumerate-ceiling", "orbits-ceiling"],
)
def test_negative_range_exits_2(capsys, argv):
    # a negative range is a usage error: no output, no "ok" for an unchecked range
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "must be >= 0" in err


HUGE = str(10**20)  # refused before anything is sized by it


@pytest.mark.parametrize(
    "argv",
    [
        ("series", "--family", "pd", "--terms", HUGE),
        ("verify", "--family", "pd", "--max-n", HUGE),
        ("verify", "--family", "pd", "--max-n", "20", "--ceiling", HUGE),
        ("enumerate", "--family", "pd", "--n", HUGE),
        ("orbits", "--family", "pd", "--n", HUGE),
    ],
    ids=["series-terms", "verify-max-n", "verify-ceiling", "enumerate-n", "orbits-n"],
)
def test_oversized_numbers_exit_2(capsys, argv):
    # a usage error with one error line, not an OverflowError traceback (exit 1)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "too large" in err and len(err.splitlines()) == 1


def test_orbits_above_the_ceiling_exits_2_before_the_tail_check(capsys, monkeypatch):
    # the tail check counts the tail families at every weight up to n, so it
    # must not run for a weight the ceiling refuses
    def no_tail_check(*args):
        raise AssertionError("tail check ran")

    monkeypatch.setattr(orbits, "tail_condition_holds", no_tail_check)
    code, out, err = run(capsys, "orbits", "--family", "pd", "--n", "5000")
    assert code == 2
    assert out == "" and err == "error: weight 5000 exceeds enumeration ceiling 40\n"


def test_unknown_verb_exits_2(capsys):
    assert run(capsys, "frobnicate")[0] == 2


def test_determinism(capsys):
    outs = set()
    for _ in range(2):
        _, out, _ = run(capsys, "orbits", "--family", "pod2", "--n", "5", "--format", "json")
        outs.add(out)
    assert len(outs) == 1
