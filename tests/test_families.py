import itertools

import pytest

from vrank.families import (
    A,
    A_IMAGE,
    DISTINCT_MULTIPLES_OF_3,
    DesignatedPartition,
    EnumerationLimitError,
    Family,
    NAMED_FAMILIES,
    ODD_STAIRCASE,
    OP2,
    ORDINARY,
    OVERPARTITION,
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
    _generate,
    _weight_splits,
    count_family,
    element_weight,
    enumerate_family,
    family_by_name,
    format_element,
    is_member,
    parse_element,
)


def test_membership_two_color():
    assert is_member(A, TwoColorPartition((1,), (2,)))
    assert not is_member(A, TwoColorPartition((), (3,)))


def test_membership_distinct_triples():
    assert is_member(DISTINCT_MULTIPLES_OF_3, (60, 3))
    assert not is_member(DISTINCT_MULTIPLES_OF_3, (4,))
    assert not is_member(DISTINCT_MULTIPLES_OF_3, (3, 3))


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


def test_grammar_rejects_garbage():
    for f, bad in [
        (PD, "2+2"),           # no designation
        (PD, "2'+2'"),         # double designation
        (ODD_STAIRCASE, "4+1"),
        (A, "2x"),
        (POD2, "2+1;2"),
        (ORDINARY, "1+2"),
    ]:
        with pytest.raises(ValueError):
            parse_element(f, bad)


def test_family_by_name():
    assert family_by_name("pd") is PD
    assert family_by_name("p2_0") == Family("mod-parts", 2, (0,))
    assert family_by_name("d3_0") == DISTINCT_MULTIPLES_OF_3
    with pytest.raises(UnknownFamilyError):
        family_by_name("nope")


# --- enumeration core -------------------------------------------------------

CORE_FAMILIES = {**NAMED_FAMILIES, "pd-image": PD_IMAGE, "a-image": A_IMAGE,
                 "pod2-image": POD2_IMAGE}


def _split_products(f, n):
    """Vector elements built component by component from uncached generators."""
    for split in _weight_splits(n, len(f.components)):
        pools = [list(_generate(g, w)) for g, w in zip(f.components, split)]
        for combo in itertools.product(*pools):
            yield VTuple(combo, f)


@pytest.mark.parametrize("name", sorted(CORE_FAMILIES))
def test_enumeration_matches_reference(name):
    f = CORE_FAMILIES[name]
    for n in range(13):
        elems = enumerate_family(f, n)
        text = lambda x: format_element(f, x)  # noqa: E731
        reference = _split_products(f, n) if f.tag == "vector" else _generate(f, n)
        assert elems == sorted(reference, key=text)
        assert len(set(elems)) == len(elems) == count_family(f, n)


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
