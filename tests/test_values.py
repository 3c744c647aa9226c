"""The read-only value types: construction, immutability, type-strict equality
and hashing, and a CLI start-up path that imports no dataclasses, inspect or
json."""

import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from vrank.families import (
    EVEN_PARTS,
    ORDINARY,
    STAIRCASE,
    DesignatedPartition,
    Family,
    OddStaircase,
    Overpartition,
    TwoColorPartition,
    UnknownFamilyError,
    VTuple,
)
from vrank.partition import InvalidPartitionError

E = ((3, 2, 1), (1, 1, 1))
TRIPLE = ((2,), (), OddStaircase(1))

# (value, the same value built by keyword)
VALUES = {
    "family": (Family("mod-parts", 3, (1, 2)), Family(tag="mod-parts", modulus=3, residues=(1, 2))),
    "vector-family": (
        Family("vector", components=(EVEN_PARTS, STAIRCASE)),
        Family(tag="vector", components=(EVEN_PARTS, STAIRCASE)),
    ),
    "overpartition": (Overpartition((3, 3, 1), (3,)), Overpartition(parts=(3, 3, 1), overlined=(3,))),
    "designated": (DesignatedPartition(*E), DesignatedPartition(alpha=E[0], beta=E[1])),
    "two-color": (TwoColorPartition((3, 1), (2,)), TwoColorPartition(red=(3, 1), blue=(2,))),
    "odd-staircase": (OddStaircase(2, True), OddStaircase(height=2, one_overlined=True)),
    "odd-staircase-default": (OddStaircase(2), OddStaircase(2, False)),
    "vtuple": (VTuple(TRIPLE), VTuple(components=TRIPLE)),
}
PAIRS = pytest.mark.parametrize("value, by_keyword", VALUES.values(), ids=VALUES.keys())


@PAIRS
def test_fields_cannot_be_set_or_deleted(value, by_keyword):
    for name in type(value).__slots__:
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) == before
    with pytest.raises(AttributeError):
        value.extra = 1


@PAIRS
def test_keyword_construction_gives_an_equal_value_and_hash(value, by_keyword):
    assert value is not by_keyword
    assert value == by_keyword and not value != by_keyword
    assert hash(value) == hash(by_keyword)
    assert len({value, by_keyword}) == 1


@PAIRS
def test_pickle_and_copy_keep_the_value(value, by_keyword):
    assert pickle.loads(pickle.dumps(value)) == value
    assert copy.copy(value) == value
    assert copy.deepcopy(value) == value


@PAIRS
def test_values_are_not_tuples(value, by_keyword):
    # is_member, element_weight and VTuple.weight tell partitions apart by
    # isinstance(x, tuple)
    assert not isinstance(value, tuple)


def test_equality_is_type_strict():
    assert DesignatedPartition(*E) != VTuple(E)
    assert DesignatedPartition(*E) != E
    assert E != DesignatedPartition(*E)
    assert VTuple(TRIPLE) != (TRIPLE,)
    assert VTuple(TRIPLE) != TRIPLE
    assert TwoColorPartition((1,), (2,)) != ((1,), (2,))
    assert TwoColorPartition((3, 3, 1), (3,)) != Overpartition((3, 3, 1), (3,))
    assert OddStaircase(1) != (1, False)
    assert Family("designated") != ("designated", 0, (), ())
    assert len({DesignatedPartition(*E), VTuple(E), (E,), E}) == 4


def test_unequal_fields_make_unequal_values():
    assert DesignatedPartition(*E) != DesignatedPartition(E[0], ())
    assert TwoColorPartition((3, 1), (2,)) != TwoColorPartition((3, 1), ())
    assert OddStaircase(2, True) != OddStaircase(2)
    assert Family("mod-parts", 3, (1,)) != Family("mod-parts", 3, (2,))
    assert VTuple(TRIPLE) != VTuple(TRIPLE[:2])


def test_repr_names_the_fields():
    assert repr(OddStaircase(2)) == "OddStaircase(height=2, one_overlined=False)"
    assert repr(DesignatedPartition((2,), ())) == "DesignatedPartition(alpha=(2,), beta=())"
    assert repr(TwoColorPartition((1,), (2,))) == "TwoColorPartition(red=(1,), blue=(2,))"
    assert repr(ORDINARY) == "Family(tag='mod-parts', modulus=1, residues=(0,), components=())"


@pytest.mark.parametrize(
    "make",
    [
        lambda: Family("mod-parts", 0, (0,)),
        lambda: Family("mod-parts", 3, (3,)),
        lambda: Family("mod-distinct", 3, (1, 1)),
        lambda: Family(tag="mod-distinct", modulus=2, residues=(-1,)),
    ],
    ids=["modulus", "residue-range", "repeated-residue", "keyword"],
)
def test_family_validation(make):
    with pytest.raises(UnknownFamilyError):
        make()


def test_odd_staircase_validation():
    with pytest.raises(InvalidPartitionError):
        OddStaircase(0, True)
    with pytest.raises(InvalidPartitionError):
        OddStaircase(height=0, one_overlined=True)
    assert OddStaircase(0).parts == () and OddStaircase(1, True).parts == (1,)


def test_cli_start_up_imports_no_dataclasses_inspect_or_json():
    # nor the worked examples, which only the selftest verb needs
    src = Path(__file__).resolve().parents[1] / "src"
    unwanted = ("dataclasses", "inspect", "json", "vrank.selftest", "vrank.golden")
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "import vrank.cli; vrank.cli.build_parser(); "
        f"print(sorted(m for m in {unwanted!r} if m in sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code, str(src)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
