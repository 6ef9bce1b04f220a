"""The package's immutable records: equality, hashing, repr, immutability
and constructor signatures, the same for each of them."""

import copy
import pickle
import typing

import pytest

from gallai import (
    ApexSequence,
    BaseTrace,
    BlowupTrace,
    ColoringDocument,
    Embedding,
    GallaiPartition,
    JoinTrace,
    PartitionCheck,
    PatternSpec,
    SearchOutcome,
    SearchStats,
    SearchTask,
    UnavoidableOutcome,
    canonical_digest,
    pentagon_coloring,
)
from gallai.errors import _Record

PENTAGON = pentagon_coloring()
WHEEL = PatternSpec.wheel(4)
STATS = SearchStats(
    nodes=7,
    prunes_conflict=1,
    prunes_lookahead=2,
    prunes_canonical=3,
    restarts=0,
    elapsed=0.25,
)
LEAF = BaseTrace(label="p", digest=canonical_digest(PENTAGON), size=5, colors=(1, 2))

# keyword arguments for one record of each class
FIELDS = {
    ColoringDocument: dict(
        coloring=PENTAGON, digest=canonical_digest(PENTAGON), provenance=None, version=1
    ),
    PatternSpec: dict(kind="cycle4", order=4, edges=((0, 1), (0, 3), (1, 2), (2, 3))),
    Embedding: dict(pattern=WHEEL, color=2, vertex_map=(0, 1, 2, 3, 4)),
    SearchTask: dict(
        n=5,
        k=2,
        forbidden=((WHEEL, None),),
        forbid_rainbow_triangle=True,
        symmetry="none",
        node_limit=100,
        seed=3,
    ),
    SearchStats: dict(
        nodes=7,
        prunes_conflict=1,
        prunes_lookahead=2,
        prunes_canonical=3,
        restarts=0,
        elapsed=0.25,
    ),
    SearchOutcome: dict(status="witness", witness=PENTAGON, stats=STATS),
    UnavoidableOutcome: dict(
        status="counterexample", counterexample=PENTAGON, stats=STATS
    ),
    GallaiPartition: dict(
        parts=((0, 1), (2, 3, 4)), cross_colors=frozenset({1}), reduced=PENTAGON
    ),
    PartitionCheck: dict(ok=False, violations=("part 0 is empty",)),
    ApexSequence: dict(entries=((4, 1), (3, 2)), remainder=(0, 1, 2)),
    BaseTrace: dict(
        label="p", digest=canonical_digest(PENTAGON), size=5, colors=(1, 2)
    ),
    JoinTrace: dict(left=LEAF, right=LEAF, fresh_color=3, size=10, colors=(1, 2, 3)),
    BlowupTrace: dict(quotient=PENTAGON, children=(LEAF,) * 5, size=25, colors=(1, 2)),
}
RECORDS = pytest.mark.parametrize("cls", list(FIELDS), ids=lambda cls: cls.__name__)


def test_every_record_is_covered():
    assert set(_Record.__subclasses__()) == set(FIELDS)
    assert len(FIELDS) == 13


@RECORDS
def test_equal_fields_give_equal_records_and_hashes(cls):
    a, b = cls(**FIELDS[cls]), cls(**FIELDS[cls])
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b)
    assert cls.__slots__ == tuple(FIELDS[cls])
    for name, value in FIELDS[cls].items():
        assert getattr(a, name) == value, name


@RECORDS
def test_another_class_with_the_same_values_is_not_equal(cls):
    record = cls(**FIELDS[cls])
    twin = type(cls.__name__, (cls,), {"__slots__": ()})(**FIELDS[cls])
    values = tuple(FIELDS[cls].values())
    assert record != twin and twin != record
    assert repr(twin) == repr(record)
    assert record != values and record != list(values)


def test_outcomes_of_the_two_searches_are_not_equal():
    found = SearchOutcome("witness", PENTAGON, STATS)
    assert found != UnavoidableOutcome("witness", PENTAGON, STATS)


@RECORDS
def test_fields_cannot_be_assigned_or_deleted(cls):
    record = cls(**FIELDS[cls])
    for name in FIELDS[cls]:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == cls(**FIELDS[cls])


@RECORDS
def test_constructor_takes_each_field_once_by_name_or_position(cls):
    fields = FIELDS[cls]
    assert cls(*fields.values()) == cls(**fields)
    first = next(iter(fields))
    with pytest.raises(TypeError):
        cls(**{name: value for name, value in fields.items() if name != first})
    with pytest.raises(TypeError):
        cls(**fields, extra=1)
    with pytest.raises(TypeError):
        cls(*fields.values(), None)


# the records that check their arguments before they store them
CHECKED = {ColoringDocument, PatternSpec, SearchTask}


@RECORDS
def test_only_records_that_check_define_a_constructor(cls):
    # the others take _Record's, and declare their fields' types as class
    # annotations, in __slots__ order
    assert ("__init__" in vars(cls)) == (cls in CHECKED)
    if cls not in CHECKED:
        assert tuple(vars(cls)["__annotations__"]) == cls.__slots__
        assert tuple(typing.get_type_hints(cls)) == cls.__slots__
    fields = FIELDS[cls]
    with pytest.raises(TypeError):
        cls(next(iter(fields.values())), **fields)  # the first field twice


@RECORDS
def test_copy_and_pickle_give_an_equal_record(cls):
    record = cls(**FIELDS[cls])
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


@RECORDS
def test_match_reads_the_fields_in_constructor_order(cls):
    record = cls(**FIELDS[cls])
    assert cls.__match_args__ == cls.__slots__
    match record:
        case cls(first):
            pass
    assert first == next(iter(FIELDS[cls].values()))


def test_defaults_are_the_declared_ones():
    doc = ColoringDocument(PENTAGON)
    assert (doc.digest, doc.provenance, doc.version) == (None, None, 1)
    task = SearchTask(4, 2)
    assert task == SearchTask(
        n=4,
        k=2,
        forbidden=(),
        forbid_rainbow_triangle=False,
        symmetry="colorSwap",
        node_limit=20_000_000,
        seed=0,
    )


def test_repr_is_the_dataclass_repr():
    # the strings a frozen dataclass printed for these records
    assert repr(WHEEL) == (
        "PatternSpec(kind='wheel', order=5, edges=((0, 1), (0, 3), (0, 4), "
        "(1, 2), (1, 4), (2, 3), (2, 4), (3, 4)))"
    )
    assert repr(STATS) == (
        "SearchStats(nodes=7, prunes_conflict=1, prunes_lookahead=2, "
        "prunes_canonical=3, restarts=0, elapsed=0.25)"
    )


def test_outcomes_have_their_own_docstrings():
    # a dataclass without one got its signature as __doc__
    for cls in (SearchOutcome, UnavoidableOutcome):
        assert cls.__doc__ and "\n" not in cls.__doc__
        assert not cls.__doc__.startswith(cls.__name__)
