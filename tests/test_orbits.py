import gc
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from vrank import orbits as orbits_module
from vrank.families import (
    A,
    A_IMAGE,
    EVEN_PARTS,
    EnumerationLimitError,
    Family,
    OddStaircase,
    OP2,
    ORDINARY,
    PD,
    PD_IMAGE,
    POD2,
    POD2_IMAGE,
    STAIRCASE,
    VTuple,
    count_family,
    enumerate_family,
    format_element,
    is_member,
    parse_element,
)
from vrank.orbits import (
    CASE1,
    CASE2,
    OrbitError,
    build_orbits,
    classify_case,
    o_hat,
    orbits_to_json,
    orbits_to_markdown,
    rotate_o,
    tail_condition_holds,
    v_rank,
)
from vrank.partition import (
    KERNEL_CACHE_SIZE,
    count_residue3,
    make_partition,
    split_by_residue3,
    staircase,
    union,
)

EXAMPLE_83 = VTuple(((9, 8, 7, 7, 5, 4), (5, 2, 1), (10, 6, 4, 4, 3, 2), (3, 2, 1)))


def _tuple(spec, text):
    return parse_element(spec, text)


def test_v_rank():
    assert v_rank(EXAMPLE_83) == 3
    assert v_rank(_tuple(PD_IMAGE, "(0;0;0;0;0)")) == 0
    assert v_rank(_tuple(PD_IMAGE, "(4;0;0;1;0)")) == 1


def test_classify_case():
    assert classify_case(EXAMPLE_83) == CASE1
    assert classify_case(_tuple(A_IMAGE, "(0;0;0;0)")) is None
    # three parts == -1 mod 3 sum to 0 mod 3, and none == 1
    assert classify_case(_tuple(A_IMAGE, "(2;2;2;0)")) is None
    assert classify_case(_tuple(A_IMAGE, "(2;0;0;0)")) == CASE2


def test_o_hat_example_orbit():
    v1 = o_hat(EXAMPLE_83)
    assert v1.components == (
        (10, 9, 8, 5, 4, 4),
        (7, 7, 5, 4, 2),
        (6, 3, 2, 1),
        (3, 2, 1),
    )
    v2 = o_hat(v1)
    assert v2.components == (
        (9, 8, 5, 1),
        (10, 5, 4, 4, 2),
        (7, 7, 6, 4, 3, 2),
        (3, 2, 1),
    )
    assert [v_rank(EXAMPLE_83), v_rank(v1), v_rank(v2)] == [3, 1, -1]
    assert o_hat(v2) == EXAMPLE_83


def test_o_hat_rejects_unclassifiable():
    with pytest.raises(OrbitError):
        o_hat(_tuple(A_IMAGE, "(0;0;0;0)"))


@pytest.mark.parametrize("image,family", [(PD_IMAGE, PD), (A_IMAGE, A), (POD2_IMAGE, POD2)])
def test_o_hat_properties_exhaustive(image, family):
    # every image tuple of weight == 2 mod 3 cycles with three distinct
    # rank residues, preserving case, weight, and untouched components
    for n in (2, 5, 8):
        for v in enumerate_family(image, n):
            case = classify_case(v)
            assert case is not None
            w = o_hat(v)
            assert classify_case(w) == case
            assert w.components[3:] == v.components[3:]
            assert w.weight == v.weight
            assert o_hat(o_hat(w)) == v
            residues = {v_rank(u) % 3 for u in (v, w, o_hat(w))}
            assert residues == {0, 1, 2}


# A copy of the earlier split/union operator, as a reference for o_hat: it
# counts residues with count_residue3, splits each of the first three
# components by residue, and unions each complement with the shifted
# selection.

def _reference_case(v):
    if sum(count_residue3(c, 1) for c in v.components[:3]) % 3:
        return CASE1
    if sum(count_residue3(c, -1) for c in v.components[:3]) % 3:
        return CASE2
    return None


def _reference_o_hat(v):
    case = _reference_case(v)
    if case is None:
        raise OrbitError(f"orbit operator undefined for {v.components}")
    residue = 1 if case == CASE1 else -1
    splits = [split_by_residue3(c, residue) for c in v.components[:3]]
    shifted = [splits[2].selected, splits[0].selected, splits[1].selected]
    first3 = tuple(union(s.complement, moved) for s, moved in zip(splits, shifted))
    return VTuple(first3 + v.components[3:])


@pytest.mark.parametrize("image", [PD_IMAGE, A_IMAGE, POD2_IMAGE], ids=["pd", "a", "pod2"])
def test_o_hat_matches_split_union_reference(image):
    # every weight to 14, not only n == 2 mod 3, so case-None tuples occur
    moved = 0
    for n in range(15):
        for v in enumerate_family(image, n):
            case = classify_case(v)
            assert case == _reference_case(v)
            if case is None:
                with pytest.raises(OrbitError):
                    o_hat(v)
                continue
            assert o_hat(v) == _reference_o_hat(v)
            moved += 1
    assert moved > 0


@st.composite
def even_partitions_of(draw, total):
    """A partition of the even `total` into even parts: drawn parts up to 60,
    the last cut to fit, then parts of 60 and an even remainder."""
    left, parts = total, []
    for v in draw(st.lists(st.integers(1, 30).map(lambda h: 2 * h), max_size=20)):
        if not left:
            break
        parts.append(min(v, left))
        left -= parts[-1]
    parts += [60] * (left // 60) + [left % 60] * (left % 60 > 0)
    return make_partition(parts)


@st.composite
def even_triples(draw):
    """Three even-part partitions of total weight 50..300."""
    total = 2 * draw(st.integers(25, 150))
    first = 2 * draw(st.integers(0, total // 2))
    second = 2 * draw(st.integers(0, (total - first) // 2))
    weights = (first, second, total - first - second)
    return tuple(draw(even_partitions_of(w)) for w in weights)


# the tails of the pd, a and pod2 image spaces: o_hat must leave them alone
TAILS = st.one_of(
    st.tuples(
        st.integers(0, 12).map(staircase),
        st.sets(st.integers(1, 30)).map(lambda s: tuple(sorted((3 * v for v in s), reverse=True))),
    ),
    st.tuples(st.integers(0, 12).map(staircase)),
    st.tuples(st.builds(OddStaircase, st.integers(1, 9), st.booleans())),
)


@settings(max_examples=80, deadline=None)
@given(even_triples(), TAILS)
def test_o_hat_matches_reference_at_large_weights(triple, tail):
    # at weights 50-300 almost every triple is a miss of the memoized case
    # and shift, and the second call is a hit
    v = VTuple(triple + tail)
    assert classify_case(v) == _reference_case(v)
    if _reference_case(v) is None:
        for _ in range(2):
            with pytest.raises(OrbitError):
                o_hat(v)
        return
    for _ in range(2):
        assert o_hat(v) == _reference_o_hat(v)
    assert o_hat(o_hat(o_hat(v))) == v


def test_o_hat_refuses_case_none_on_every_call():
    # a triple with no case is refused on every call, the first and those
    # whose partitions the memo already holds alike
    for text in ("(0;0;0;0)", "(2;2;2;0)", "(6;0;0;1)"):
        v = _tuple(A_IMAGE, text)
        for _ in range(3):
            with pytest.raises(OrbitError, match="orbit operator undefined"):
                o_hat(v)
    residues = orbits_module._residues
    assert residues.cache_info().maxsize == KERNEL_CACHE_SIZE
    # the entries the shift reads serve the case too: classify_case only hits
    v = _tuple(A_IMAGE, "(4;0;0;1)")
    residues.cache_clear()
    assert o_hat(v) == _tuple(A_IMAGE, "(0;4;0;1)")
    hits = residues.cache_info().hits
    assert classify_case(v) == CASE1
    assert residues.cache_info()[:2] == (hits + 3, 2)  # hits, misses: (4,) and ()
    assert residues.cache_info().currsize == 2


def test_the_operator_memo_is_keyed_by_partition():
    # one entry per distinct partition among the first three components of
    # the tuples the operator is given, far fewer than the triples they form
    moved = [v for image in (PD_IMAGE, A_IMAGE, POD2_IMAGE) for n in range(18)
             for v in enumerate_family(image, n) if classify_case(v) is not None]
    residues = orbits_module._residues
    residues.cache_clear()
    given, triples = set(), set()
    for v in moved:
        for _ in range(2):
            given.update(v.components[:3])
            triples.add(v.components[:3])
            v = o_hat(v)
    assert residues.cache_info().currsize == len(given) < len(triples) // 10
    # a component that gains and loses no part is the very tuple the memo
    # first met it as
    v = _tuple(A_IMAGE, "(4;0;6;1)")
    residues.cache_clear()
    assert o_hat(v).components[2] is v.components[2]


def test_rotate_o():
    s = (1,)
    v = VTuple(((2,), (4,), (6,), s))
    assert rotate_o(v).components == ((6,), (2,), (4,), s)
    fixed = VTuple(((2,), (2,), (2,), s))
    assert rotate_o(fixed) == fixed
    assert rotate_o(rotate_o(rotate_o(v))) == v
    t = _tuple(A_IMAGE, "(4;0;0;1)")
    assert format_element(A_IMAGE, rotate_o(t)) == "(0;4;0;1)"


def test_rotate_o_fixed_points_exhaustive():
    for n in range(13):
        for v in enumerate_family(A_IMAGE, n):
            assert rotate_o(rotate_o(rotate_o(v))) == v
            is_fixed = rotate_o(v) == v
            assert is_fixed == (v.components[0] == v.components[1] == v.components[2])


def test_tail_condition():
    assert tail_condition_holds(PD_IMAGE, 2, 30)
    assert tail_condition_holds(POD2_IMAGE, 2, 30)
    assert tail_condition_holds(A_IMAGE, 2, 30)
    # a tail component realizing weight 2 breaks the condition at j=2
    bad = Family("vector", components=(EVEN_PARTS, EVEN_PARTS, EVEN_PARTS, ORDINARY))
    assert not tail_condition_holds(bad, 2, 30)


def test_build_orbits_pd_2():
    # derived by hand: the three elements 2', 1'+1, 1+1' form one orbit
    orbits = build_orbits(PD, 2)
    assert len(orbits) == 1
    elems = {format_element(PD, x) for x in orbits[0]}
    assert elems == {"2'", "1'+1", "1+1'"}


@pytest.mark.parametrize("f", [PD, A, POD2], ids=["pd", "a", "pod2"])
def test_build_orbits_uses_up_its_slice(f, monkeypatch):
    # the pass pops each element off the fresh slice list it was given, so
    # the list is empty at the end while the orbits still cover the slice
    given = []

    def keep(*args, **kwargs):
        given.append(enumerate_family(*args, **kwargs))
        return given[-1]

    monkeypatch.setattr(orbits_module, "enumerate_family", keep)
    for n in (11, 14):
        orbits = build_orbits(f, n)
        assert len(given) == 1 and given.pop() == []
        assert 3 * len(orbits) == count_family(f, n)


def test_build_orbits_does_two_operator_steps_per_orbit(monkeypatch):
    calls = []

    def counted(v):
        calls.append(v)
        return o_hat(v)

    monkeypatch.setattr(orbits_module, "o_hat", counted)
    orbits = build_orbits(PD, 8)
    assert len(calls) == 2 * len(orbits) == 2 * count_family(PD, 8) // 3


def test_build_orbits_names_a_degenerate_orbit(monkeypatch):
    monkeypatch.setattr(orbits_module, "o_hat", lambda v: v)
    with pytest.raises(OrbitError, match=r"orbit of 1'\+1 at n=2 is degenerate"):
        build_orbits(PD, 2)


def test_build_orbits_names_a_failed_round_trip(monkeypatch):
    # an inverse that sends every tuple to 2' breaks the first pull-back
    forward, _, image = orbits_module.family_bijection(PD)
    wrong = parse_element(PD, "2'")
    monkeypatch.setitem(orbits_module._LAMBDAS, PD, (forward, lambda v: wrong, image))
    with pytest.raises(OrbitError, match=r"round trip of 1'\+1 at n=2 gives 2'"):
        build_orbits(PD, 2)


def test_a_family_without_a_bijection_is_named_by_its_cli_id():
    with pytest.raises(OrbitError, match="^no bijection available for family op2$"):
        build_orbits(OP2, 5)


def test_build_orbits_names_an_orbit_that_misses_a_rank_residue(monkeypatch):
    # an operator that cycles through two images of rank 1, like its start
    # 1'+1+1+1+1 (rank -2): three distinct elements, but one rank residue
    images = itertools.cycle([_tuple(PD_IMAGE, "(2;0;0;0;3)"), _tuple(PD_IMAGE, "(2;0;0;2+1;0)")])
    monkeypatch.setattr(orbits_module, "o_hat", lambda v: next(images))
    with pytest.raises(OrbitError, match=r"orbit of 1'\+1\+1\+1\+1 at n=5 misses a rank residue"):
        build_orbits(PD, 5)


def test_build_orbits_pauses_the_collector_and_restores_it(monkeypatch):
    # the cyclic collector is off during the pass, after one collection of
    # the youngest generation, and on again after a return, an OrbitError or
    # an error from the enumeration inside the pass
    generations, states = [], []

    def record(phase, info):
        generations.append(info["generation"])

    def observed(v):
        states.append((gc.isenabled(), tuple(generations)))
        return o_hat(v)

    assert gc.isenabled()
    monkeypatch.setattr(orbits_module, "o_hat", observed)
    gc.callbacks.append(record)
    try:
        build_orbits(PD, 5)
    finally:
        gc.callbacks.remove(record)
    assert len(states) == 2 * count_family(PD, 5) // 3
    assert all(state == (False, states[0][1]) for state in states)
    assert 0 in states[0][1]
    assert gc.isenabled()
    with pytest.raises(EnumerationLimitError):
        build_orbits(PD, 5, ceiling=2)
    assert gc.isenabled()
    monkeypatch.setattr(orbits_module, "o_hat", lambda v: v)
    with pytest.raises(OrbitError, match="is degenerate"):
        build_orbits(PD, 2)
    assert gc.isenabled()


def test_build_orbits_leaves_a_paused_collector_paused(monkeypatch):
    # and runs no collection of its own for a caller that paused it
    generations = []

    def record(phase, info):
        generations.append(info["generation"])

    gc.callbacks.append(record)
    gc.disable()
    try:
        build_orbits(PD, 5)
        assert not gc.isenabled()
        monkeypatch.setattr(orbits_module, "o_hat", lambda v: v)
        with pytest.raises(OrbitError, match="is degenerate"):
            build_orbits(PD, 2)
        assert not gc.isenabled()
    finally:
        gc.enable()
        gc.callbacks.remove(record)
    assert generations == []


def test_build_orbits_rejects_wrong_residue():
    with pytest.raises(OrbitError):
        build_orbits(PD, 4)


@pytest.mark.parametrize("family,name", [(PD, "pd"), (A, "a"), (POD2, "pod2")])
def test_build_orbits_partitions_slice(family, name):
    forward, _, _ = orbits_module.family_bijection(family)
    for n in (2, 5, 8, 11):
        orbits = build_orbits(family, n)
        members = [x for orbit in orbits for x in orbit]
        assert len(members) == len(set(members)) == count_family(family, n)
        for orbit in orbits:
            assert len(orbit) == 3
            assert [v_rank(forward(x)) % 3 for x in orbit] == [0, 1, 2]
        assert count_family(family, n) % 3 == 0


@pytest.mark.parametrize("family,name", [(PD, "pd"), (A, "a"), (POD2, "pod2")])
def test_orbit_records_hold_elements_and_tables_derive_images(family, name):
    # an orbit is the triple of its elements, slot k the one of rank == k mod 3;
    # the json rows give each element's image and rank through forward
    forward, _, image = orbits_module.family_bijection(family)
    for n in range(2, 15, 3):
        orbits = build_orbits(family, n)
        for orbit in orbits:
            assert isinstance(orbit, tuple) and len(orbit) == 3
            assert all(is_member(family, x) for x in orbit)
            assert [v_rank(forward(x)) % 3 for x in orbit] == [0, 1, 2]
        rows = [
            [[format_element(family, x), format_element(image, forward(x)), v_rank(forward(x))]
             for x in orbit]
            for orbit in orbits
        ]
        assert orbits_to_json(family, name, n, orbits)["orbits"] == rows


def test_t_multiple_of_3_slice_is_empty():
    # with first-three parts all divisible by 3 and a staircase tail, no
    # tuple can reach total weight == 2 mod 3
    p3 = Family("mod-parts", 3, (0,))
    spec = Family("vector", components=(p3, p3, p3, STAIRCASE))
    assert tail_condition_holds(spec, 2, 20)
    for n in (2, 5, 8, 11, 14):
        assert count_family(spec, n) == 0


def test_reports():
    orbits = build_orbits(PD, 2)
    doc = orbits_to_json(PD, "pd", 2, orbits)
    assert doc["family"] == "pd" and doc["n"] == 2
    assert doc["orbits"] == [
        [["1+1'", "(0;0;2;0;0)", 0], ["1'+1", "(2;0;0;0;0)", 1], ["2'", "(0;2;0;0;0)", -1]]
    ]
    md = orbits_to_markdown(PD, 2, orbits)
    assert md.splitlines()[0] == "| element | tuple | r_V | orbit |"
    assert "| 2' | (0;2;0;0;0) | -1 | O1 |" in md
