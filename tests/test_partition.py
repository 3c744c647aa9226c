import pytest
from hypothesis import given, strategies as st

from vrank.families import ORDINARY, enumerate_family, format_element, parse_element
from vrank.partition import (
    FrobeniusSymbol,
    InvalidFrobeniusError,
    InvalidPartitionError,
    conjugate,
    count_residue3,
    from_frobenius,
    KERNEL_CACHE_SIZE,
    make_partition,
    runs,
    scale2,
    split_by_residue3,
    to_frobenius,
    union,
    weight,
)

partitions = st.lists(st.integers(1, 30), max_size=12).map(make_partition)


def test_conjugate_anchor():
    assert conjugate((4, 4, 2, 2, 1)) == (5, 4, 2, 2)


def test_conjugate_empty():
    assert conjugate(()) == ()


def test_conjugate_derived():
    # transpose of the 0/1 Ferrers matrix of (3,1), done by hand
    assert conjugate((3, 1)) == (2, 1, 1)


@given(partitions)
def test_conjugate_involution(p):
    assert conjugate(conjugate(p)) == p
    assert weight(conjugate(p)) == weight(p)


def test_union_anchor():
    assert union((4, 3, 3, 3, 2), (6, 6, 5)) == (6, 6, 5, 4, 3, 3, 3, 2)


def test_union_identity():
    assert union((), (5, 2)) == (5, 2)


def test_union_derived():
    assert union((2, 2), (3, 2)) == (3, 2, 2, 2)


@given(partitions, partitions)
def test_union_weight_additive(p, q):
    assert weight(union(p, q)) == weight(p) + weight(q)


def test_scale2():
    assert scale2((9, 6, 6, 2, 1)) == (18, 12, 12, 4, 2)
    assert scale2(()) == ()
    assert scale2((1,)) == (2,)


def test_count_residue3():
    assert count_residue3((9, 8, 7, 7, 5, 4), 1) == 3
    assert count_residue3((), 1) == 0
    assert count_residue3((), -1) == 0
    assert count_residue3((5, 2), -1) == 2


def test_split_by_residue3():
    s = split_by_residue3((9, 8, 7, 7, 5, 4), 1)
    assert s.selected == (7, 7, 4)
    assert s.complement == (9, 8, 5)
    assert split_by_residue3((), 1) == ((), (), 1)
    s = split_by_residue3((10, 6, 4, 4, 3, 2), 1)
    assert s.selected == (10, 4, 4)
    assert s.complement == (6, 3, 2)


@given(partitions, st.sampled_from([1, -1, 2]))
def test_split_recombines(p, i):
    s = split_by_residue3(p, i)
    assert union(s.selected, s.complement) == p
    assert count_residue3(p, i) == len(s.selected)


def test_frobenius_anchor():
    assert from_frobenius(FrobeniusSymbol((3, 1, 0), (4, 3, 1))) == (4, 3, 3, 3, 2)


def test_frobenius_empty():
    assert to_frobenius(()) == ((), ())
    assert from_frobenius(FrobeniusSymbol((), ())) == ()


def test_frobenius_derived():
    # arms/legs of (2,2) read off the diagonal
    assert to_frobenius((2, 2)) == ((1, 0), (1, 0))
    assert from_frobenius(FrobeniusSymbol((1, 0), (1, 0))) == (2, 2)


def test_frobenius_rejects_bad_rows():
    with pytest.raises(InvalidFrobeniusError):
        from_frobenius(FrobeniusSymbol((2, 2), (1, 0)))
    with pytest.raises(InvalidFrobeniusError):
        from_frobenius(FrobeniusSymbol((2,), (1, 0)))


@given(partitions)
def test_frobenius_round_trip(p):
    f = to_frobenius(p)
    assert from_frobenius(f) == p


def _reference_runs(p):
    return tuple((d, p.count(d)) for d in sorted(set(p), reverse=True))


def test_runs_anchor():
    assert runs(()) == ()
    assert runs((4, 4, 2, 2, 1)) == ((4, 2), (2, 2), (1, 1))


def test_runs_match_reference_exhaustive():
    for n in range(19):
        for p in enumerate_family(ORDINARY, n):
            assert runs(p) == _reference_runs(p)
            assert sum(d * m for d, m in runs(p)) == n


@given(partitions)
def test_runs_memo_matches_uncached(p):
    for _ in range(2):  # a miss, then a hit
        assert runs(p) == runs.__wrapped__(p) == _reference_runs(p)
    assert runs.cache_info().maxsize == KERNEL_CACHE_SIZE


def test_make_partition_sorts():
    assert make_partition([2, 5, 2]) == (5, 2, 2)
    with pytest.raises(InvalidPartitionError):
        make_partition([3, 0])


def test_text_grammar():
    # a partition's text is the ordinary family's element text
    assert format_element(ORDINARY, (4, 4, 2, 2, 1)) == "4+4+2+2+1"
    assert format_element(ORDINARY, ()) == "0"
    assert parse_element(ORDINARY, "4+4+2+2+1") == (4, 4, 2, 2, 1)
    assert parse_element(ORDINARY, "0") == ()
    with pytest.raises(InvalidPartitionError):
        parse_element(ORDINARY, "2+3")


@given(partitions)
def test_grammar_round_trip(p):
    assert parse_element(ORDINARY, format_element(ORDINARY, p)) == p


# --- linear conjugate / to_frobenius against the cell-by-cell copies ---------

def _reference_conjugate(p):
    if not p:
        return ()
    cols = [0] * p[0]
    for v in p:
        for i in range(v):
            cols[i] += 1
    return tuple(cols)


def _reference_to_frobenius(p):
    conj = _reference_conjugate(p)
    d = 0
    while d < len(p) and p[d] > d:
        d += 1
    return FrobeniusSymbol(
        tuple(p[i] - i - 1 for i in range(d)), tuple(conj[i] - i - 1 for i in range(d))
    )


def test_conjugate_and_frobenius_match_reference_exhaustive():
    for n in range(21):
        for p in enumerate_family(ORDINARY, n):
            assert conjugate(p) == _reference_conjugate(p)
            assert to_frobenius(p) == _reference_to_frobenius(p)


@st.composite
def huge_partitions(draw):
    """A partition of weight 1000..5000: up to 30 drawn runs of equal parts,
    the rest of the weight as one more part."""
    left = draw(st.integers(1000, 5000))
    parts = []
    for v, m in draw(st.lists(st.tuples(st.integers(1, 300), st.integers(1, 60)), max_size=30)):
        m = min(m, left // v)
        parts += [v] * m
        left -= v * m
    if left:
        parts.append(left)
    return make_partition(parts)


@given(huge_partitions())
def test_conjugate_and_frobenius_match_reference_at_large_weights(p):
    assert weight(p) >= 1000
    assert conjugate(p) == _reference_conjugate(p)
    assert to_frobenius(p) == _reference_to_frobenius(p)
    assert from_frobenius(to_frobenius(p)) == p
