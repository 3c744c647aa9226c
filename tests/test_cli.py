import json

import pytest

from vrank.cli import main


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
        ("1", "24", "a enumerate: checked no weight (--max-n 1)"),
        ("11", "24", "a enumerate: checked n = 2, 5, 8, 11 (--max-n 11)"),
        ("14", "24", "a enumerate: checked n = 2, 5, ..., 14 (--max-n 14)"),
    ],
)
def test_verify_range_line(capsys, max_n, ceiling, line):
    code, out, _ = run(
        capsys, "verify", "--family", "a", "--max-n", max_n, "--ceiling", ceiling,
        "--method", "enumerate",
    )
    assert code == 0
    assert out.splitlines() == [line, "a enumerate: ok"]


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
    ],
    ids=["series-terms", "verify-max-n", "enumerate-n", "orbits-n"],
)
def test_negative_range_exits_2(capsys, argv):
    # a negative range is a usage error: no output, no "ok" for an unchecked range
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "must be >= 0" in err


def test_unknown_verb_exits_2(capsys):
    assert run(capsys, "frobnicate")[0] == 2


def test_determinism(capsys):
    outs = set()
    for _ in range(2):
        _, out, _ = run(capsys, "orbits", "--family", "pod2", "--n", "5", "--format", "json")
        outs.add(out)
    assert len(outs) == 1
