import functools
import hashlib
import itertools
import re

import pytest
from hypothesis import given, settings, strategies as st

from family_generators import designated, generate, split_products
from vrank import bijections, families, orbits
from vrank.families import (
    A,
    A_IMAGE,
    DISTINCT_MULTIPLES_OF_3,
    DISTINCT_ODD,
    EVEN_PARTS,
    DesignatedPartition,
    ElementParseError,
    EnumerationLimitError,
    Family,
    NAMED_FAMILIES,
    ODD_STAIRCASE,
    OddStaircase,
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
    VTuple,
    count_family,
    element_weight,
    enumerate_family,
    family_by_name,
    format_element,
    is_member,
    parse_element,
)
from vrank.partition import InvalidPartitionError, runs, staircase
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
        (PD, DesignatedPartition((), (2,)), "2'"),          # a part of beta occurs once
        (OVERPARTITION, Overpartition((3, 1), (2,)), "3+1"),  # overlines an absent part
        (A, TwoColorPartition((), (3,)), "3b"),             # an odd blue part
    ]:
        assert format_element(f, x) == text
        assert not is_member(f, x)


def test_membership_refuses_disorder_in_the_last_pair():
    assert is_member(ORDINARY, (3, 2, 1))
    assert is_member(ORDINARY, (3, 1, 2)) is False
    assert is_member(STAIRCASE, (1, 2)) is False
    assert is_member(PD, DesignatedPartition((), (3, 3, 2, 2)))
    assert not is_member(PD, DesignatedPartition((), (3, 2, 2, 3)))


def test_membership_refuses_parts_not_positive():
    assert is_member(ORDINARY, (2, 0)) is False
    assert is_member(POD, (2, -1)) is False
    assert not is_member(PD, DesignatedPartition((2, 0), ()))
    assert not is_member(A, TwoColorPartition((0,), ()))


def test_membership_refuses_parts_not_ints():
    # 3.0 == 3 and True == 1, but no element text writes a float or bool
    # part; the int twins go first, so the memos keyed by them are filled
    assert is_member(ORDINARY, (3, 1)) and is_member(PD, DesignatedPartition((2,), (2, 2)))
    assert is_member(ORDINARY, (3.0, 1.0)) is False
    assert is_member(ORDINARY, (True,)) is False
    assert is_member(STAIRCASE, (2.0, 1.0)) is False
    assert is_member(PD, DesignatedPartition((2.0,), ())) is False
    assert is_member(PD, DesignatedPartition((2,), (2.0, 2.0))) is False
    assert is_member(OVERPARTITION, Overpartition((True,), (True,))) is False
    # and writing those leaves the texts of the int twins as they were
    assert format_element(ORDINARY, (3, 1)) == "3+1" and parse_element(ORDINARY, "1") == (1,)
    assert format_element(OVERPARTITION, Overpartition((1,), (1,))) == "1~"
    assert [format_element(ORDINARY, x) for x in enumerate_family(ORDINARY, 2)] == ["1+1", "2"]


def test_float_parts_get_their_own_runs():
    # 2.0 == 2, but a float part is written as itself, never as a copy in its
    # int twin's run, so a non-member is never written as a member's text
    for f, x, text in [
        (PD, DesignatedPartition((2,), (2.0, 2.0)), "2'+2.0+2.0'"),
        (ORDINARY, (2, 2.0), "2+2.0"),
        (ORDINARY, (2.0, 2), "2.0+2"),
        (A, TwoColorPartition((2,), (2.0,)), "2r+2.0b"),
        (ORDINARY, (True, 1), "True+1"),
    ]:
        assert format_element(f, x) == text
        assert is_member(f, x) is False
    assert format_element(PD, DesignatedPartition((2,), (2, 2))) == "2+2'+2"
    assert format_element(ORDINARY, (2, 2)) == "2+2"


def test_an_overline_marks_only_the_part_of_its_type():
    # the overline 2.0 == 2 marks no int part 2, so the text is not the member's `2~`
    x = Overpartition((2,), (2.0,))
    assert format_element(OVERPARTITION, x) == "2"
    assert is_member(OVERPARTITION, x) is False
    assert format_element(OVERPARTITION, Overpartition((2.0,), (2,))) == "2.0"
    assert format_element(OVERPARTITION, Overpartition((2,), (2,))) == "2~"
    assert format_element(OVERPARTITION, Overpartition((True,), (True,))) == "True~"


def test_reading_shares_no_memo_with_the_kernels():
    # the kernels' memos key by ==, so a float argument leaves entries that
    # its int twin then hits; the reader reads its runs itself, so a text
    # still reads as the element with int parts
    kernels = (runs, bijections.psi)
    for kernel in kernels:
        kernel.cache_clear()
    try:
        bijections.lambda_pd(DesignatedPartition((), (2.0, 2.0)))
        x = parse_element(PD, "2+2'")
    finally:  # the float entries must not reach later tests
        for kernel in kernels:
            kernel.cache_clear()
    assert x == DesignatedPartition((), (2, 2))
    assert [type(d) for d in x.alpha + x.beta] == [int, int]


def test_odd_staircase_height_is_an_int_not_below_0():
    # OddStaircase(-1, True) would write no part to overline, OddStaircase(-2),
    # of weight 4, would be written 0, and no text has a part 3.0
    for height, over in [(-1, True), (-1, False), (-2, False), (2.0, False)]:
        with pytest.raises(InvalidPartitionError, match="^odd staircase height must be an int >= 0"):
            OddStaircase(height, over)
    with pytest.raises(InvalidPartitionError, match="^empty odd staircase cannot be overlined$"):
        OddStaircase(0, True)


def test_format_refuses_a_vector_of_the_wrong_length():
    # written shorter, a short tuple would give a text that parse refuses
    for f, x in [(A_IMAGE, VTuple(((2,), (4,)))), (POD2, VTuple(((3, 1),)))]:
        for check in (format_element, is_member):
            with pytest.raises(ShapeMismatchError, match="expected .* components"):
                check(f, x)


def test_membership_shape_mismatch_is_an_error():
    with pytest.raises(ShapeMismatchError):
        is_member(A, DesignatedPartition((1,), ()))
    with pytest.raises(ShapeMismatchError):
        is_member(PD, (3, 1))


# one family of each tag, and one value of each element type
ONE_PER_TAG = [ORDINARY, DISTINCT_ODD, POD, OVERPARTITION, PD, A, STAIRCASE, ODD_STAIRCASE, POD2]
ONE_PER_TYPE = [
    (3, 1),
    Overpartition((3, 1), (3,)),
    DesignatedPartition((1,), ()),
    TwoColorPartition((1,), (2,)),
    OddStaircase(1),
    VTuple(((1,),)),
]


def test_format_and_membership_refuse_a_value_of_another_type():
    assert {f.tag for f in ONE_PER_TAG} == {*families._RUN_ELEMENTS, "staircase", "odd-staircase",
                                            "vector"}
    for f in ONE_PER_TAG:
        wrong = [x for x in ONE_PER_TYPE if not isinstance(x, families._ELEMENT_TYPES[f.tag])]
        assert len(wrong) == len(ONE_PER_TYPE) - 1, f.tag
        for x in wrong:
            for check in (format_element, is_member):
                with pytest.raises(ShapeMismatchError, match=f"family {f.tag} expects"):
                    check(f, x)
    for check in (format_element, is_member):
        with pytest.raises(UnknownFamilyError):
            check(Family("nope"), (1,))


# Small values of each element type, members or not: parts out of order,
# zero, negative, float or bool, blue parts odd, overlined parts absent and
# beta parts once only all occur.
_part = st.one_of(st.integers(-1, 3), st.sampled_from([1.0, 2.0, 2.5]), st.just(True))
_parts = st.tuples(st.lists(_part, max_size=3), st.booleans()).map(
    lambda drawn: tuple(sorted(drawn[0], reverse=True) if drawn[1] else drawn[0])
)


def _values(f):
    if f.tag == "vector":
        return st.tuples(*map(_values, f.components)).map(VTuple)
    if f.tag == "odd-staircase":  # OddStaircase(0, True) does not construct
        return (
            st.tuples(st.one_of(st.integers(0, 4), st.just(True)), st.sampled_from([False, True, 0, 1]))
            .filter(lambda t: t[0] or not t[1])
            .map(lambda t: OddStaircase(*t))
        )
    kind = families._ELEMENT_TYPES[f.tag]
    if kind is tuple:  # with the staircases, so that STAIRCASE meets members
        return _parts | st.integers(0, 4).map(lambda k: tuple(range(k, 0, -1)))
    return st.builds(kind, _parts, _parts)


@functools.lru_cache(maxsize=None)
def _reference_reprs(f, n):
    return frozenset(map(repr, generate(f, n)))


def _reference_member(f, x):
    """x is an element of f, type for type: by the reference generators, or
    by the staircases' definitions (`generate` reuses `_generate` there)."""
    if f.tag == "vector":
        return all(_reference_member(g, c) for g, c in zip(f.components, x.components))
    if f.tag == "staircase":  # (k, k-1, ..., 1) for some k >= 0
        return repr(x) == repr(tuple(range(len(x), 0, -1)))
    if f.tag == "odd-staircase":  # (2m-1, ..., 3, 1) for an int m >= 0, its 1 overlined or not
        return type(x.height) is int and type(x.one_overlined) is bool
    return repr(x) in _reference_reprs(f, int(element_weight(f, x)))


@pytest.mark.parametrize("f", [*ONE_PER_TAG, EVEN_PARTS, DISTINCT_MULTIPLES_OF_3, POD2_IMAGE])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_membership_matches_the_reference(f, data):
    x = data.draw(_values(f))
    assert is_member(f, x) is _reference_member(f, x)


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
    # every kind of family has exactly one element of weight 0, the count a
    # vector's count table relies on for each of its components
    for f in (*ONE_PER_TAG, OP2, PD_IMAGE, A_IMAGE, POD2_IMAGE, family_by_name("p5_1,4")):
        assert len(enumerate_family(f, 0)) == 1
        assert count_family(f, 0) == 1


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
    assert dp == designated(((20, 3, 3), (4, 2, 2)))
    assert dp.alpha == () and dp.beta == (20, 20, 20, 4, 4)
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
        for d in sorted(set(x.alpha + x.beta), reverse=True):
            a, b = x.alpha.count(d), x.beta.count(d)
            toks.extend(f"{d}'" if j == (b or 1) else str(d) for j in range(1, a + b + 1))
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
    heavy = designated(((30, 1, 1), (7, 12, 12), (2, 40, 17), (1, 3, 1)))
    assert format_element(PD, heavy) == _reference_text(heavy)
    mixed = TwoColorPartition((9, 4, 4, 1), (10, 4, 2, 2))
    assert format_element(A, mixed) == _reference_text(mixed) == "10b+9r+4b+4r+4r+2b+2b+1r"


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
        (A, "b"),                    # marks with no digits
    ]:
        with pytest.raises(ValueError):
            parse_element(f, bad)


def test_bad_tokens_are_quoted_as_written():
    for f, text, token in [(A, "b", "b"), (A, "4r+rb", "rb"), (PD, "'", "'"), (OVERPARTITION, "2~+x~", "x~")]:
        with pytest.raises(ElementParseError, match=f"^bad token {re.escape(repr(token))} in "):
            parse_element(f, text)


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
    with pytest.raises(InvalidPartitionError, match=r"^parts not weakly decreasing in '2b\+3r'$"):
        parse_element(A, "2b+3r")


def test_staircase_parse_errors_quote_the_text():
    with pytest.raises(InvalidPartitionError, match=r"^parts not weakly decreasing in '3\+1\+2'$"):
        parse_element(STAIRCASE, "3+1+2")
    with pytest.raises(InvalidPartitionError, match=r"^parts not weakly decreasing in '5\+1\+3'$"):
        parse_element(ODD_STAIRCASE, "5+1+3")
    # a text is listed with the writer's texts of its weight, if it has any
    with pytest.raises(ValueError, match=r"^'5\+3~\+1' is not an element of odd-staircase: 5\+3\+1, 5\+3\+1~$"):
        parse_element(ODD_STAIRCASE, "5+3~+1")
    with pytest.raises(ValueError, match=r"^'2\+1\+1' is not an element of staircase$"):
        parse_element(STAIRCASE, "2+1+1")
    # a text heavier than any element of its number of parts is refused
    # before an element of its weight is built
    for f, text in ((STAIRCASE, "500000000500000000"), (ODD_STAIRCASE, "1000000000000000000~")):
        with pytest.raises(ValueError, match=rf"^'{text}' is not an element of {f.tag}$"):
            parse_element(f, text)


def test_family_by_name():
    assert family_by_name("pd") is PD
    assert family_by_name("p2_0") == Family("mod-parts", 2, (0,))
    assert family_by_name("d3_0") == DISTINCT_MULTIPLES_OF_3
    with pytest.raises(UnknownFamilyError):
        family_by_name("nope")
    # ids are case- and space-exact, like element texts
    for name in ("PD", " pd ", "Pd", " P3_1 ", "p3_1 ", "P3_1"):
        with pytest.raises(UnknownFamilyError):
            family_by_name(name)
    # a number is read only as `str` writes it, so an id names one family
    assert family_by_name("p3_2,1") == family_by_name("p3_1,2")
    for name in ("p30_1_0", "p03_1", "p3_+1", "p3_ 1", "p3_01", "d3_-0", "p1_0,"):
        with pytest.raises(UnknownFamilyError, match="bad family id"):
            family_by_name(name)


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


@st.composite
def residue_families(draw, min_residues=0, max_residues=None):
    t = draw(st.integers(1, 12))
    residues = draw(st.sets(st.integers(0, t - 1), min_size=min_residues, max_size=max_residues))
    return Family(draw(st.sampled_from(["mod-parts", "mod-distinct"])), t, tuple(sorted(residues)))


@settings(max_examples=60, deadline=None)
@given(residue_families() | st.tuples(residue_families(), residue_families()).map(
    lambda pair: Family("vector", components=pair)))
def test_random_residue_counts_match_the_series_to_80(f):
    assert [count_family(f, n, ceiling=80) for n in range(81)] == family_series(f, 80).coeffs


@settings(max_examples=80, deadline=None)
@given(residue_families(1, 3) | st.just(POD), st.integers(0, 18))
def test_pruned_slices_list_the_reference_elements(f, n):
    # a slice walks only through runs its family allows a choice for; what it
    # cuts away, the reference generator, which walks every partition, drops
    elems = enumerate_family(f, n)
    assert elems == sorted(generate(f, n), key=lambda x: format_element(f, x))
    assert len(elems) == count_family(f, n)


@pytest.mark.parametrize("f", [POD2, OP2, PD_IMAGE], ids=["pod2", "op2", "pd-image"])
def test_a_rebuilt_count_table_equals_a_fresh_one(f, monkeypatch):
    monkeypatch.setattr(families, "_COUNTS", {})
    fresh = families._counts(f, 120)
    monkeypatch.setattr(families, "_COUNTS", {})
    count_family(f, 30, ceiling=30)
    assert len(families._COUNTS[f]) == 31
    assert families._counts(f, 120) == fresh and len(fresh) == 121


@pytest.mark.parametrize(
    "f",
    [PD_IMAGE, POD2_IMAGE, Family("vector", components=(STAIRCASE, ODD_STAIRCASE))],
    ids=["pd-image", "pod2-image", "staircases"],
)
def test_vector_counts_are_the_convolution_of_component_tables(f, monkeypatch):
    # the components' tables are sparse (a staircase is nonzero at a few
    # weights, distinct multiples of 3 and even parts at some), and the
    # product is checked against the dense convolution of all of them
    monkeypatch.setattr(families, "_COUNTS", {})
    table = [1] + [0] * 200
    for g in f.components:
        counts = [count_family(g, w, ceiling=200) for w in range(201)]
        table = [sum(table[v] * counts[w - v] for v in range(w + 1)) for w in range(201)]
    monkeypatch.setattr(families, "_COUNTS", {})
    assert families._count_table(f, 200) == table


def test_enumeration_leaves_runs_alone(monkeypatch):
    # slices walk partitions generated as their runs, so the runs memo,
    # which the bijections share, is neither called nor filled
    families._component_slice.cache_clear()
    monkeypatch.setattr(families, "_COUNTS", {})
    runs.cache_clear()
    for f, n in ((PD, 20), (A, 14), (ORDINARY, 30)):
        assert len(enumerate_family(f, n)) == count_family(f, n)
    assert runs.cache_info()[:2] == (0, 0)  # hits, misses


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

# With a vector whose components are empty at most weights, each with its
# own weight-0 element, and a vector of one component: a slice walk must keep
# every component, fill each one left out from its own weight-0 slice, and
# place an exact fit at its key.
ENUMERATED = {
    **CORE_FAMILIES,
    "sparse": Family("vector", components=(ODD_STAIRCASE, STAIRCASE, DISTINCT_MULTIPLES_OF_3)),
    "pod-alone": Family("vector", components=(POD,)),
}


@pytest.mark.parametrize("name", sorted(ENUMERATED))
def test_enumeration_matches_reference(name):
    f = ENUMERATED[name]
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
    if f == STAIRCASE:  # written by the run writer, each part as str writes it
        for x in [*map(staircase, range(25)), (2, 2), (2.0, 2), (3, True), (1, 2)]:  # to weight 300
            assert format_element(f, x) == ("+".join(map(str, x)) or "0")
        assert [format_element(f, x) for x in [(), (2, 2), (2.0, 2)]] == ["0", "2+2", "2.0+2"]


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
