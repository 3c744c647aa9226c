import hashlib
import itertools

import pytest

from family_generators import generate, split_products
from vrank import families, orbits
from vrank.families import (
    A,
    A_IMAGE,
    DISTINCT_MULTIPLES_OF_3,
    DISTINCT_ODD,
    EVEN_PARTS,
    DesignatedPartition,
    EnumerationLimitError,
    Family,
    NAMED_FAMILIES,
    ODD_STAIRCASE,
    OP2,
    ORDINARY,
    OVERPARTITION,
    Overpartition,
    PD,
    PD_IMAGE,
    POD,
    POD2,
    POD2_IMAGE,
    STAIRCASE,
    ShapeMismatchError,
    TwoColorPartition,
    UnknownFamilyError,
    _run_text,
    count_family,
    element_weight,
    enumerate_family,
    family_by_name,
    format_element,
    is_member,
    parse_element,
)
from vrank.partition import KERNEL_CACHE_SIZE, InvalidPartitionError
from vrank.series import family_series


def test_membership_two_color():
    assert is_member(A, TwoColorPartition((1,), (2,)))
    assert not is_member(A, TwoColorPartition((), (3,)))


def test_membership_distinct_triples():
    assert is_member(DISTINCT_MULTIPLES_OF_3, (60, 3))
    assert not is_member(DISTINCT_MULTIPLES_OF_3, (4,))
    assert not is_member(DISTINCT_MULTIPLES_OF_3, (3, 3))


def test_membership_overlines_each_present_part_once_in_order():
    # each of these writes as a member does, "3~+1~" or "3~+1"
    assert is_member(OVERPARTITION, Overpartition((3, 1), (3, 1)))
    assert not is_member(OVERPARTITION, Overpartition((3, 1), (1, 3)))
    assert not is_member(OVERPARTITION, Overpartition((3, 1), (3, 3)))


def test_format_is_total_and_membership_refuses():
    # an orbit error formats the element it pulled back, member or not
    for f, x, text in [
        (PD, DesignatedPartition(((2, 2, 3),)), "2+2"),     # index above the multiplicity
        (OVERPARTITION, Overpartition((3, 1), (2,)), "3+1"),  # overlines an absent part
        (A, TwoColorPartition((), (3,)), "3b"),             # an odd blue part
    ]:
        assert format_element(f, x) == text
        assert not is_member(f, x)


def test_membership_shape_mismatch_is_an_error():
    with pytest.raises(ShapeMismatchError):
        is_member(A, DesignatedPartition(((1, 1, 1),)))
    with pytest.raises(ShapeMismatchError):
        is_member(PD, (3, 1))


def test_enumerate_a_2():
    assert [format_element(A, x) for x in enumerate_family(A, 2)] == [
        "1r+1r",
        "2b",
        "2r",
    ]


def test_enumerate_counts_n5():
    assert count_family(PD, 5) == 15
    assert count_family(A, 5) == 12
    assert count_family(POD2, 5) == 18


def test_enumerate_weight_zero():
    for f in (PD, A, POD2, OP2, ORDINARY, STAIRCASE, ODD_STAIRCASE, OVERPARTITION):
        assert len(enumerate_family(f, 0)) == 1


def test_staircase_weights_are_triangular():
    counts = [count_family(STAIRCASE, n) for n in range(22)]
    triangular = {k * (k + 1) // 2 for k in range(7)}
    assert counts == [1 if n in triangular else 0 for n in range(22)]


def test_odd_staircase_weights_are_squares():
    for n in range(30):
        c = count_family(ODD_STAIRCASE, n)
        if n == 0:
            assert c == 1
        elif round(n ** 0.5) ** 2 == n:
            assert c == 2
        else:
            assert c == 0


@pytest.mark.parametrize("f", [PD, A, POD, POD2, OVERPARTITION, ORDINARY])
@pytest.mark.parametrize("n", [0, 3, 6, 9])
def test_enumeration_is_clean(f, n):
    elems = enumerate_family(f, n)
    texts = [format_element(f, x) for x in elems]
    assert len(set(texts)) == len(texts)
    assert texts == sorted(texts)
    for x in elems:
        assert is_member(f, x)
        assert element_weight(f, x) == n
    assert count_family(f, n) == len(elems)


def test_enumeration_ceiling():
    with pytest.raises(EnumerationLimitError):
        enumerate_family(ORDINARY, 41)
    with pytest.raises(EnumerationLimitError):
        count_family(POD2, 50)
    assert enumerate_family(ORDINARY, 45, ceiling=50)


@pytest.mark.parametrize("f,n", [(PD, 6), (A, 6), (POD2, 6), (OVERPARTITION, 5), (OP2, 4)])
def test_grammar_round_trip(f, n):
    for x in enumerate_family(f, n):
        assert parse_element(f, format_element(f, x)) == x


def test_grammar_examples():
    dp = parse_element(PD, "20+20+20'+4+4'")
    assert dp.entries == ((20, 3, 3), (4, 2, 2))
    op = parse_element(OVERPARTITION, "4~+4+1")
    assert op.parts == (4, 4, 1) and op.overlined == (4,)
    tri = parse_element(ODD_STAIRCASE, "5+3+1~")
    assert tri.height == 3 and tri.one_overlined
    pair = parse_element(POD2, "(2+1;2)")
    assert pair.components == ((2, 1), (2,))


GRAMMAR_FAMILIES = [
    *NAMED_FAMILIES.values(), PD_IMAGE, A_IMAGE, POD2_IMAGE,
    family_by_name("d3_0"), family_by_name("p5_1,4"),
]
# sha256 of the enumeration text of GRAMMAR_FAMILIES at weights 0..12, in
# that order, one element per line; pins every tag's canonical text form.
GRAMMAR_SHA256 = "b6a9ed6930e7ca79f7da4658f9fb6d12fe626f035791734d7446f469e721cf9f"


def test_grammar_is_pinned():
    digest = hashlib.sha256()
    for f in GRAMMAR_FAMILIES:
        for n in range(13):
            for x in enumerate_family(f, n):
                text = format_element(f, x)
                assert parse_element(f, text) == x
                digest.update((text + "\n").encode())
    assert digest.hexdigest() == GRAMMAR_SHA256


def _reference_text(x):
    """The earlier token-by-token text of a designated or two-color element."""
    if isinstance(x, DesignatedPartition):
        toks = []
        for d, m, i in x.entries:
            toks.extend(f"{d}'" if j == i else str(d) for j in range(1, m + 1))
    else:
        pairs = [(v, "r") for v in x.red] + [(v, "b") for v in x.blue]
        pairs.sort(key=lambda p: (-p[0], p[1]))
        toks = [f"{v}{c}" for v, c in pairs]
    return "+".join(toks) or "0"


def test_designated_and_two_color_text_match_reference():
    # both are joined from the run writer's texts, and must write what the
    # token-by-token form wrote
    for n in range(15):
        for f in (PD, A):
            for x in enumerate_family(f, n):
                assert format_element(f, x) == _reference_text(x)
    heavy = DesignatedPartition(((30, 1, 1), (7, 12, 12), (2, 40, 17), (1, 3, 1)))
    assert format_element(PD, heavy) == _reference_text(heavy)
    mixed = TwoColorPartition((9, 4, 4, 1), (10, 4, 2, 2))
    assert format_element(A, mixed) == _reference_text(mixed) == "10b+9r+4b+4r+4r+2b+2b+1r"
    assert _run_text.cache_info().maxsize == KERNEL_CACHE_SIZE


def test_grammar_rejects_garbage():
    for f, bad in [
        (PD, "2+2"),           # no designation
        (PD, "2'+2'"),         # double designation
        (ODD_STAIRCASE, "4+1"),
        (A, "2x"),
        (POD2, "2+1;2"),
        (ORDINARY, "1+2"),
        (ORDINARY, "1~"),            # an overline outside its families
        (ODD_STAIRCASE, "5+3~+1"),   # the overline only on the last 1
        (ODD_STAIRCASE, "1~~"),
        (OVERPARTITION, "2~+3"),
        (PD, "0'"),                  # "0" is the whole empty element, not a part
        (PD, "1_0'"),                # a part is written as str writes it
        (PD_IMAGE, "(0;0;0;0;0_3)"),
        (A, "02r+ 1r"),
        (OVERPARTITION, "1+1~"),     # the overline goes on the first copy, once
        (OVERPARTITION, "1~+1~"),
        (POD2, "(0; 5)"),            # only the whole text may carry spaces
        (A, "1r+2r"),                # magnitudes decrease
        (A, "2r+2b"),                # blue copies are written first
        (A, "2b+3r"),
    ]:
        with pytest.raises(ValueError):
            parse_element(f, bad)


def _reorderings(text):
    """Every text with the `+` tokens of one component of text reordered,
    for components of up to 6 tokens."""
    if text.startswith("("):
        comps = text[1:-1].split(";")
        for k, comp in enumerate(comps):
            for other in _reorderings(comp):
                yield "(" + ";".join(comps[:k] + [other] + comps[k + 1:]) + ")"
        return
    toks = text.split("+")
    if len(toks) <= 6:
        yield from set(map("+".join, itertools.permutations(toks)))


def test_each_element_has_one_text():
    # a reordered text is refused, or is itself a canonical text
    for f in GRAMMAR_FAMILIES:
        for n in range(8):
            for x in enumerate_family(f, n):
                for text in _reorderings(format_element(f, x)):
                    try:
                        y = parse_element(f, text)
                    except ValueError:
                        continue
                    assert format_element(f, y) == text


def test_parse_errors_name_the_run():
    with pytest.raises(ValueError, match=r"^'2\+2' is not a run of designated: 2'\+2, 2\+2'$"):
        parse_element(PD, "2+2")
    with pytest.raises(ValueError, match=r"^'1r\+1b' is not a run of two-color: 1r\+1r$"):
        parse_element(A, "3r+1r+1b")
    with pytest.raises(ValueError, match=r"^'1\+1' is not a run of pod$"):  # no choice
        parse_element(POD, "2+1+1")
    with pytest.raises(ValueError, match=r"^'4\+4\+4\+4\+4' is not a run of designated$"):
        parse_element(PD, "4+4+4+4+4")  # five choices are not listed
    with pytest.raises(InvalidPartitionError):
        parse_element(A, "2b+3r")


def test_family_by_name():
    assert family_by_name("pd") is PD
    assert family_by_name("p2_0") == Family("mod-parts", 2, (0,))
    assert family_by_name("d3_0") == DISTINCT_MULTIPLES_OF_3
    with pytest.raises(UnknownFamilyError):
        family_by_name("nope")


def test_repeated_residues_rejected():
    # p2_1,1 would count parts == 1 mod 2 twice in its product, once in enumeration
    for tag in ("mod-parts", "mod-distinct"):
        with pytest.raises(UnknownFamilyError):
            Family(tag, 2, (1, 1))
    for name in ("p2_1,1", "d2_1,1", "p5_4,1,4"):
        with pytest.raises(UnknownFamilyError):
            family_by_name(name)


def test_count_and_enumerate_refuse_negative_weight():
    # a negative weight is refused alike by both, and leaves no count cached
    tops = lambda: {f: len(table) for f, table in families._COUNTS.items()}  # noqa: E731
    before = tops()
    for f in (ORDINARY, STAIRCASE, PD, POD2, PD_IMAGE):
        for weight_of in (count_family, enumerate_family):
            with pytest.raises(ValueError, match="weight must be nonnegative"):
                weight_of(f, -1)
    assert tops() == before


# --- counting without building ----------------------------------------------

COUNTED = {
    **{name: family_by_name(name) for name in ("pd", "a", "op", "pod", "ordinary", "p3_1,2", "d5_1,4")},
    "even-parts": EVEN_PARTS,
    "distinct-odd": DISTINCT_ODD,
    "distinct-multiples-of-3": DISTINCT_MULTIPLES_OF_3,
}
CORE_FAMILIES = {**NAMED_FAMILIES, "pd-image": PD_IMAGE, "a-image": A_IMAGE,
                 "pod2-image": POD2_IMAGE}
SERIES_CHECKED = {**CORE_FAMILIES, **COUNTED}


@pytest.mark.parametrize("name", COUNTED)
def test_counts_match_the_generators(name):
    f = COUNTED[name]
    for n in range(21):
        assert count_family(f, n) == sum(1 for _ in generate(f, n))


@pytest.mark.parametrize("name", sorted(SERIES_CHECKED))
def test_counts_match_the_series_to_60(name):
    # far past what a generator reaches in test time: pd(60) = 73,412,768
    f = SERIES_CHECKED[name]
    s = family_series(f, 60)
    assert [count_family(f, n, ceiling=60) for n in range(61)] == s.coeffs


def test_counting_writes_no_run_text(monkeypatch):
    def refuse(*args):
        raise AssertionError(f"a count wrote the run text of {args}")

    monkeypatch.setattr(families, "_run_text", refuse)
    monkeypatch.setattr(families, "_COUNTS", {})
    assert count_family(PD, 30) == 92456


@pytest.mark.parametrize(
    "f", [PD, OVERPARTITION, POD, DISTINCT_ODD, A, STAIRCASE, PD_IMAGE], ids=lambda f: f.tag
)
def test_run_tables_serve_every_weight_in_any_order(f, monkeypatch):
    from_scratch = [families._count_table(f, n)[n] for n in range(31)]
    for order in (range(31), range(30, -1, -1), [17, 3, 30, 0, 29, 5, 12]):
        monkeypatch.setattr(families, "_COUNTS", {})
        assert [families._counts(f, n)[n] for n in order] == [from_scratch[n] for n in order]


def test_tail_check_builds_one_count_table_per_family(monkeypatch):
    builds = []
    build = families._count_table
    monkeypatch.setattr(families, "_count_table", lambda f, n: builds.append(f) or build(f, n))
    monkeypatch.setattr(families, "_COUNTS", {})
    for image in (PD_IMAGE, A_IMAGE, POD2_IMAGE):
        assert orbits.tail_condition_holds(image, 2, 17)
    assert builds and len(builds) == len(set(builds))


# --- enumeration core -------------------------------------------------------

@pytest.mark.parametrize("name", sorted(CORE_FAMILIES))
def test_enumeration_matches_reference(name):
    f = CORE_FAMILIES[name]
    for n in range(13):
        elems = enumerate_family(f, n)
        text = lambda x: format_element(f, x)  # noqa: E731
        reference = split_products(f, n) if f.tag == "vector" else generate(f, n)
        assert elems == sorted(reference, key=text)
        assert len(set(elems)) == len(elems) == count_family(f, n)


def test_pd_slice_order_matches_the_formatted_sort():
    # pd slice texts are joined per partition, not written by format_element:
    # the order and every text must still be what format_element gives
    for n in range(17):
        elems = enumerate_family(PD, n)
        assert elems == sorted(generate(PD, n), key=lambda x: format_element(PD, x))
        assert families._text_slice(PD, n)[0] == tuple(format_element(PD, x) for x in elems)


SLICED = {name: family_by_name(name) for name in ("pd", "a", "pod", "op", "p3_1,2", "d5_1,4",
                                                   "staircase", "odd-staircase")}


@pytest.mark.parametrize("name", SLICED)
def test_slice_texts_are_the_formatted_sort(name):
    # every run tag joins its slice texts from run texts, and the staircases
    # format theirs: each text, and the order, is what format_element gives
    f = SLICED[name]
    for n in range(15):
        texts, elems = families._text_slice(f, n)
        assert texts == tuple(format_element(f, x) for x in elems)
        assert list(elems) == sorted(generate(f, n), key=lambda x: format_element(f, x))


@pytest.mark.parametrize("name", sorted(CORE_FAMILIES))
def test_enumeration_returns_a_fresh_list(name):
    f = CORE_FAMILIES[name]
    for n in (6, 9):  # every family has elements at one of them
        first = enumerate_family(f, n)
        expected = list(first)
        first.clear()
        assert enumerate_family(f, n) == expected
        second = enumerate_family(f, n)
        second.reverse()
        assert enumerate_family(f, n) == expected
