import argparse
import hashlib
import json

import pytest

from vrank import cli, orbits, selftest, series
from vrank.cli import VERIFY_CEILING, build_parser, main
from vrank.families import NAMED_FAMILIES, PD, POD2, DesignatedPartition, VTuple, parse_element
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


def test_main_builds_one_parser_per_process(capsys, monkeypatch):
    # a parser built per call would be left behind as cyclic garbage
    parsers = []
    parse = argparse.ArgumentParser.parse_args
    monkeypatch.setattr(
        argparse.ArgumentParser, "parse_args",
        lambda self, *args, **kwargs: parsers.append(self) or parse(self, *args, **kwargs),
    )
    assert run(capsys, "verify", "--family", "pd", "--max-n", "5")[0] == 0
    assert run(capsys, "orbits", "--family", "a", "--n", "2")[0] == 0
    assert len(parsers) == 2 and parsers[0] is parsers[1] is build_parser()
    # bijection and orbits offer exactly the families orbits._LAMBDAS maps
    (verbs,) = [a for a in parsers[0]._actions if isinstance(a, argparse._SubParsersAction)]
    with_bijection = {name for name, f in NAMED_FAMILIES.items() if f in orbits._LAMBDAS}
    for verb in ("bijection", "orbits"):
        (family,) = [a for a in verbs.choices[verb]._actions if a.dest == "family"]
        assert set(family.choices) == with_bijection == {"pd", "a", "pod2"}


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


def test_verify_judges_each_method_by_its_own_checks(capsys, monkeypatch):
    # a failed series check leaves the later methods' status lines alone, and
    # the witness lines still come after every status line
    monkeypatch.setattr(series, "scan_congruence", lambda f, max_n: [0])
    code, out, err = run(capsys, "verify", "--family", "a", "--max-n", "8", "--method", "all")
    assert code == 1
    assert err == ""
    assert out.splitlines() == [
        "a series: checked n = 2, 5, 8 (--max-n 8)",
        "a series: FAIL",
        "a enumerate: checked n = 2, 5, 8 (--max-n 8)",
        "a enumerate: ok",
        "a orbits: checked n = 2, 5, 8 (--max-n 8)",
        "a orbits: ok",
        "series: coefficient at 2 not divisible by 3",
    ]


def test_verify_enumerate_failure_comes_after_every_status_line(capsys, monkeypatch):
    # a count table off by one at n = 5 fails only the enumerate method
    count = cli.count_family
    monkeypatch.setattr(cli, "count_family", lambda f, n, ceiling: count(f, n, ceiling) + (n == 5))
    code, out, err = run(capsys, "verify", "--family", "a", "--max-n", "8", "--method", "all")
    assert code == 1
    assert err == ""
    assert out.splitlines() == [
        "a series: checked n = 2, 5, 8 (--max-n 8)",
        "a series: ok",
        "a enumerate: checked n = 2, 5, 8 (--max-n 8)",
        "a enumerate: FAIL",
        "a orbits: checked n = 2, 5, 8 (--max-n 8)",
        "a orbits: ok",
        "enumerate: count(a, 5) = 13",
    ]


@pytest.mark.parametrize("family", ["pd", "a", "pod2"])
def test_verify_names_a_failed_tail_check_by_the_family_id(capsys, monkeypatch, family):
    monkeypatch.setattr(orbits, "tail_condition_holds", lambda image, j, bound: False)
    code, out, err = run(
        capsys, "verify", "--family", family, "--max-n", "5", "--method", "orbits"
    )
    assert code == 1
    assert err == ""
    assert out.splitlines()[1:] == [
        f"{family} orbits: FAIL",
        f"orbits: tail weight condition fails for {family} at residue 2",
        f"orbits: tail weight condition fails for {family} at residue 2",
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


def test_verify_marks_a_witness_outside_the_family(capsys, monkeypatch):
    # this non-member, whose beta part 2 occurs once, is written 3'+2' as the
    # member with alpha (3, 2) is; the witness says that the value behind the
    # text is not in the family, by the name --family takes
    forward, _, image = orbits.family_bijection(PD)
    wrong = DesignatedPartition((3,), (2,))
    monkeypatch.setitem(orbits._LAMBDAS, PD, (forward, lambda v: wrong, image))
    code, out, err = run(
        capsys, "verify", "--family", "pd", "--max-n", "5", "--method", "orbits"
    )
    assert code == 1
    assert err == ""
    assert out.splitlines()[1:] == [
        "pd orbits: FAIL",
        "orbits: round trip of 1'+1 at n=2 gives 3'+2' (not in pd)",
        "orbits: round trip of 1'+1+1+1+1 at n=5 gives 3'+2' (not in pd)",
    ]


@pytest.mark.parametrize(
    "wrong, witness",
    [
        (VTuple(((3, 3), ())), "(3+3;0) (not in pod2)"),  # an odd part repeats
        # too few components to write: the value's repr stands in
        (VTuple(((3, 1),)), "VTuple(components=((3, 1),)) (not in pod2)"),
    ],
    ids=["non-member", "too-few-components"],
)
def test_verify_names_a_vector_witness_by_its_family(capsys, monkeypatch, wrong, witness):
    forward, _, image = orbits.family_bijection(POD2)
    monkeypatch.setitem(orbits._LAMBDAS, POD2, (forward, lambda v: wrong, image))
    code, out, err = run(
        capsys, "verify", "--family", "pod2", "--max-n", "2", "--method", "orbits"
    )
    assert code == 1
    assert err == ""
    assert out.splitlines()[1:] == [
        "pod2 orbits: FAIL",
        f"orbits: round trip of (0;2) at n=2 gives {witness}",
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


# sha256 of the stdout of `vrank orbits --family F --n N --format FMT`, keyed
# "F-N-FMT", and of `vrank enumerate --family F --n N`, keyed "F-N", as the
# orbit pass that formatted every pd element to sort its slice printed them.
ORBITS_SHA256 = {
    "pd-2-md": "1e3e3e136ddb2c2a4bee4927556e003388233cac2275e90f9d50f776dd861613",
    "pd-2-json": "39b83129e72929b66ce3dcda50ed9a2bf2b388027c1d55d0260d00a24ec1eb6f",
    "pd-5-md": "342b414b8dba00e0040f6f05482e6a3f1a2c8d894bb8b8c5df4d50ae56ade02d",
    "pd-5-json": "950e7c88e0f09a050704967aaf4f154587e38ccc3b4e915e8108c8d378c129c7",
    "pd-8-md": "3674eb72f83cf198d9151872383dabe8337d9a0cb8d50d8793fc11fec4604ee2",
    "pd-8-json": "9f2aafc70a8ab8166f1397de92451162d267a2174e48c414961eb1632997a360",
    "pd-11-md": "0d20936fd16b30ad62b19ec803f5a44913676286ec5269fadd2b3027dfd7bb66",
    "pd-11-json": "a682d885a49ae53673e9d0c06a8d1a007eb9b8dd119721ac10fbbd848ece8696",
    "pd-14-md": "aad6424f5a3c1c79e231bbd2b119804553ea21a74c8920e14c970a3380976f01",
    "pd-14-json": "7df7454faf07424e82bd6b7b8a09b50cc24be01ec0150583afa53c42737407a1",
    "a-2-md": "179b0d205386fcffa15aec370b0ec38938dfe0cb83d25de628379c1130faedda",
    "a-2-json": "45fd37026d9c28379568d419384004597d7408e22e64452ec62fd1200b5f47a3",
    "a-5-md": "66f0a229c9d7d47394bf9b17677d7fb2c34bead143cd885c368ff42ddf28218c",
    "a-5-json": "2b4ae1718ae061631612b7d96cec3d44e991c68a10b7d01df1a64e18244a6561",
    "a-8-md": "69480159aed4d9f6cea73cb390fac8b4f479e2bed7738d4b6e0c84631724b57c",
    "a-8-json": "72ec24a1327923df9cb72d60ed0aaf845ee1dcc825d0db3a5689b27de13cb4fe",
    "a-11-md": "0ad640c7d55c296c9e8d20edb1e6f2e8352e86fd80da976c0feef122e937430f",
    "a-11-json": "fab67e88a2ea0149b8f1cdc97365297de8d382afb2bc077f430df0835d71da3d",
    "a-14-md": "1aabcde77d4abd3c3de37410c49c6b472ec07d17a7419eac3bcabbc6d388b76c",
    "a-14-json": "8e00b1269440ae516f069618c202d80dcc54813f24f5dacb69ddac8c49b8e8f4",
    "pod2-2-md": "475b7168e893c99c41e6b418ca6d7e0c5cebec8c800ca3da658c0dceda641131",
    "pod2-2-json": "2c6a26ca8795b48aa5f0d806a5a1de5204424f24d16c19af3fa6e71be16656ce",
    "pod2-5-md": "32baa419d0b102c5982e5719745d3681527785d6c19e9d10cba63cae32299fa8",
    "pod2-5-json": "59a490fba34e4947e8788cbab378feb7713061f61b3125b9f846a2a597be00c2",
    "pod2-8-md": "52315034527e993e0f62f2711e92d2229e8fed660a88e405fb8f4857020d9f44",
    "pod2-8-json": "cd23a4966a91d22c666708a1edbb7def81b6d3e5827faeee6882c3c5593ab248",
    "pod2-11-md": "f86b9a62726417a04850bb8d59cd8a86c450189ddabe0061303121244f99fcdc",
    "pod2-11-json": "08ec5eac95417d9f6e6050c934286863c13d4a0e4ea7db31d26480ef6ae5cd3b",
    "pod2-14-md": "af500365f85e8f7457bb1688f6609ae0daa3728555dd75c9de3e2f3cc2a62a32",
    "pod2-14-json": "7009c81d01f95776aaa8a1738a136025538b0896e27f187a990aad678b7285d6",
}
ENUMERATE_SHA256 = {
    "pd-0": "0f4157e322c76e7236aca9de472f8ae49ccbdd48a1c28c30535c2e88f36d2b49",
    "pd-1": "d07126d3dfa8f0c12a0316e3e721002f4a8019f3421a67bf1b8aa37a3814a058",
    "pd-2": "2b55ef4d8f98de693fad8dd4ada4814dd4fd392a279ca2e8587ded91a16f1c3a",
    "pd-3": "a822318330813c4e81cbb91f74eaf747dc689bcd53368aa97ece7d2a726ea23f",
    "pd-4": "22128530a7789bdbb49b8e5a3e758ab734c881628fff7c47d35fe00c49e1285f",
    "pd-5": "393fc37ea6c8a16240bb6778d83134018c358f5607c4a5abd005ab290755b573",
    "pd-6": "5f4bce4d1250e4a0158d2df96f750b017c68e7f00ede5b155d5b091966813943",
    "pd-7": "a6406c18694d4e79e730e9d3e5f77e29a5f408d20e7985fe9308ea04cd086bd2",
    "pd-8": "ba7811ffbef28c1a7e48885a464037781a3bfecbf00e38604d491a134c537938",
    "pd-9": "1f187a4e99895749fab5b8ba599bc217d4d4cf0938f721692c323b918daa96d9",
    "pd-10": "46894377a24e69ef4f7d275cc215c0f26de62ddeae6da0529e5516a16288557a",
    "pd-11": "18861f6e3e24c12e8924a7ba34cf14f7d6f7b69432921a0c62f8e00703576ebd",
    "pd-12": "2465633c7d27ca88b6d285b03892d7b5ca0f352faa9ddf427c5c2930329d3512",
    "pd-13": "fab41220af8e4be1bcbadf4dc31d7926dfdd9a3438492630d1009c672f3ef6ad",
    "pd-14": "6d31b62552540f2c433a61164fa65fb4be41500df2c93ed5ef64f0838c6ce285",
    "a-0": "358b67208653b01db831575b734bbf669a91f62a8b28a42269d58fe23a164ef0",
    "a-1": "28a66bc07a9033537ea92b74b9ff06a4e11dc75674dd68719e0cfde9d1be232d",
    "a-2": "ca0c4b7c511dd849221e51680560de01657bf410b8d4c2d8d49e9fe11a2e69bf",
    "a-3": "adc49f26993b8dcd5a81d7472c2a3d278d12e7599f6d0e6faf471bd2e01e9ef3",
    "a-4": "4bc1baf78a99bf2bf83edb2051d3e738ab2dffdf004f1cf620dbaa6e313cb531",
    "a-5": "cb26e56d5fb52a6ac42fb174b5a8e86d0e1fb497858285549266722ae3550362",
    "a-6": "ffe3fa506e8a006ccb2dd6627044f279eb97c602b2d90ada1e8068a9a15bbeea",
    "a-7": "0015de87905f9fb5ea1cf98fb472200d866133f405cd58ff74ba55bbb18dec5a",
    "a-8": "e45ca2f06f8c51cfda72a76dde6dabd3cc562dc1aeeb64f79d300731b3001c2c",
    "a-9": "4895a256f58dc4d827a9c2b020de524e6984cfe0682fa4bed8894106dade89cb",
    "a-10": "bf8fa6ffb763a74c7c05f43ee2b84f0ba1d28671c79ec4eb4c2fe9481c464c2a",
    "a-11": "99edbdd6491b8ce32c8c669c22d32b2ff003390ecd82babcc267dfaa72eff17e",
    "a-12": "08c6bf01c8746e5339bcfb1c2f6b8d9aa2dbff7b14419da1a7d57f8cb0e05fd8",
    "a-13": "ac6f5c51de0863f4dd3aabde167493fb686593948b3ccaff6ceddb599982e0ca",
    "a-14": "430eef878908f96b8498c145db85acfcf0ece4849ed6696baac6db9a5e84acf9",
}


@pytest.mark.parametrize("key", ORBITS_SHA256)
def test_orbits_stdout_pinned(capsys, key):
    family, n, fmt = key.split("-")
    code, out, _ = run(capsys, "orbits", "--family", family, "--n", n, "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ORBITS_SHA256[key]


@pytest.mark.parametrize("key", ENUMERATE_SHA256)
def test_enumerate_stdout_pinned(capsys, key):
    family, n = key.split("-")
    code, out, _ = run(capsys, "enumerate", "--family", family, "--n", n)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ENUMERATE_SHA256[key]


def test_selftest(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert "0 failure(s)" in out


def test_selftest_reads_the_printed_table_rows(capsys, monkeypatch):
    # the n=5 table checks compare the rows `vrank orbits` prints, so a row
    # that the writer loses fails each of them
    rows = orbits._rows
    monkeypatch.setattr(orbits, "_rows", lambda f, found: list(rows(f, found))[:-1])
    code, out, _ = run(capsys, "selftest")
    assert code == 1
    for name in ("pd", "a", "pod2"):
        assert f"FAIL n=5 decomposition table for {name}\n" in out


def test_selftest_counts_an_anchor_that_raises_as_one_failure(capsys, monkeypatch):
    def broken():
        raise ValueError("no anchor")

    def checks():
        yield "holds", lambda: True
        yield "raises", broken
        yield "fails", lambda: False

    monkeypatch.setattr(selftest, "_checks", checks)
    code, out, err = run(capsys, "selftest")
    assert code == 1
    assert err == ""
    assert out.splitlines() == [
        "pass holds",
        "FAIL raises: ValueError('no anchor')",
        "FAIL fails",
        "selftest: 2 failure(s)",
    ]


def test_pd_inverse_refuses_repeated_triples(capsys):
    # psi_inv refuses them too, but the reader of the image space comes first
    code, out, err = run(capsys, "bijection", "--family", "pd", "--inverse", "(0;0;0;0;3+3)")
    assert code == 2
    assert out == ""
    assert err == "error: '3+3' is not a run of mod-distinct\n"


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
        ("bijection", "--family", "a", "--forward", "1r+2r"),
    ],
)
def test_usage_errors_exit_2(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "family,text,error",
    [
        ("a", "(0;0;0;1+2)", "parts not weakly decreasing in '1+2'"),
        # an overline is a mark the odd staircase uses, so not a bad token
        ("pod2", "(0;0;0;1~+3)", "parts not weakly decreasing in '1~+3'"),
        ("pod2", "(0;0;0;3~+1)", "'3~+1' is not an element of odd-staircase: 3+1, 3+1~"),
        # the weights of staircase(10**9) and OddStaircase(10**9): refused
        # from the text alone, without building either
        ("a", "(0;0;0;500000000500000000)", "'500000000500000000' is not an element of staircase"),
        ("pod2", "(0;0;0;1000000000000000000)",
         "'1000000000000000000' is not an element of odd-staircase"),
    ],
)
def test_staircase_component_errors_quote_the_text(capsys, family, text, error):
    code, out, err = run(capsys, "bijection", "--family", family, "--inverse", text)
    assert code == 2
    assert out == ""
    assert err == f"error: {error}\n"


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


UNALLOCATABLE = str(2**61)  # passes the option checks; CPython refuses a list this long up front


@pytest.mark.parametrize(
    "argv",
    [
        ("series", "--family", "pd", "--terms", UNALLOCATABLE),
        ("verify", "--family", "pd", "--max-n", UNALLOCATABLE, "--method", "series"),
        ("verify", "--family", "pd", "--max-n", UNALLOCATABLE),
    ],
    ids=["series-terms", "verify-series", "verify-all"],
)
def test_unallocatable_series_length_exits_2(capsys, argv):
    # a usage error with one error line, not a MemoryError traceback (exit 1),
    # and no range line for a series that was never built
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


@pytest.mark.parametrize("family", ["p30_1_0", "p03_1", "p3_+1", "p3_ 1"])
def test_non_canonical_family_id_exits_2(capsys, family):
    # int("1_0") == 10: read loosely, p30_1_0 would count parts == 10 mod 30
    code, out, err = run(capsys, "series", "--family", family, "--terms", "12")
    assert code == 2
    assert out == ""
    assert err == f"error: bad family id {family!r}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("series", "--family", "PD", "--terms", "5"),
        ("enumerate", "--family", "PD", "--n", "2"),
        ("enumerate", "--family", " pd ", "--n", "2"),
        ("series", "--family", " P3_1 ", "--terms", "5"),
    ],
    ids=["series-PD", "enumerate-PD", "enumerate-spaced-pd", "series-spaced-P3_1"],
)
def test_family_id_is_case_and_space_exact(capsys, argv):
    # as verify's --family choices are: PD is not pd
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: unknown family {argv[2]!r}\n"


def test_unknown_verb_exits_2(capsys):
    assert run(capsys, "frobnicate")[0] == 2


def test_determinism(capsys):
    outs = set()
    for _ in range(2):
        _, out, _ = run(capsys, "orbits", "--family", "pod2", "--n", "5", "--format", "json")
        outs.add(out)
    assert len(outs) == 1
