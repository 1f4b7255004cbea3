"""The slotted records of the command path (`rootsys.Record`) keep the
semantics of the frozen dataclasses they replaced, and every record, and
`CRational`, survives pickle and `copy.deepcopy`."""

import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylcyc import (
    CartanData,
    CRational,
    DrinfeldTuple,
    FundamentalFactor,
    LieType,
    MonicPoly,
    PairViolation,
    SSet,
    TensorWord,
    TSet,
    cartan_data,
    is_cyclic,
    is_irreducible,
)
from weylcyc.rootsys import _MIN_RANK, FAMILIES

fractions = st.fractions(max_denominator=12, min_value=-20, max_value=20)
positive = fractions.filter(lambda q: q > 0)
params = st.builds(CRational, fractions, fractions)
lie_types = st.sampled_from(FAMILIES).flatmap(
    lambda family: st.integers(_MIN_RANK[family], 5).map(lambda l: LieType(family, l))
)
polys = st.lists(params, max_size=3).map(lambda roots: MonicPoly(tuple(roots)))


def words_of(lt):
    factor = st.builds(FundamentalFactor, st.integers(1, lt.rank), params)
    return st.lists(factor, min_size=1, max_size=6).map(lambda fs: TensorWord(lt, tuple(fs)))


def tuples_of(lt):
    return st.lists(polys, min_size=lt.rank, max_size=lt.rank).map(
        lambda ps: DrinfeldTuple(lt, tuple(ps))
    )


words = lie_types.flatmap(words_of)
drinfeld_tuples = lie_types.flatmap(tuples_of)

RECORDS = {
    LieType: lie_types,
    CartanData: lie_types.map(cartan_data),
    MonicPoly: polys,
    DrinfeldTuple: drinfeld_tuples,
    FundamentalFactor: st.builds(FundamentalFactor, st.integers(1, 8), params),
    TensorWord: words,
    SSet: st.frozensets(positive, max_size=6).map(SSet),
    TSet: st.frozensets(st.tuples(fractions, fractions), max_size=6).map(TSet),
    PairViolation: st.builds(PairViolation, st.integers(1, 9), st.integers(1, 9), params, positive),
}

# The frozen dataclass each record was, with the same fields in the same order.
DATACLASSES = {
    cls: dataclasses.make_dataclass(cls.__name__, cls.__slots__, frozen=True) for cls in RECORDS
}

records = pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
quick = settings(max_examples=25, deadline=None)


def values(record):
    return tuple(getattr(record, name) for name in record.__slots__)


@records
@quick
@given(data=st.data())
def test_equality_and_hash_follow_the_field_tuples(cls, data):
    a, b = data.draw(RECORDS[cls]), data.draw(RECORDS[cls])
    assert (a == b) == (values(a) == values(b))
    assert hash(a) == hash(values(a)) == hash(DATACLASSES[cls](*values(a)))
    same = cls(*values(a))
    assert same == a and hash(same) == hash(a)
    # never equal to another class, whatever its fields
    assert a != values(a)
    assert a != DATACLASSES[cls](*values(a))


@records
@quick
@given(data=st.data())
def test_fields_cannot_be_assigned_or_deleted(cls, data):
    record = data.draw(RECORDS[cls])
    before = values(record)
    for name in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert values(record) == before


@records
@quick
@given(data=st.data())
def test_repr_is_the_dataclass_repr(cls, data):
    record = data.draw(RECORDS[cls])
    assert repr(record) == repr(DATACLASSES[cls](*values(record)))


@records
@quick
@given(data=st.data())
def test_keyword_and_positional_construction_agree(cls, data):
    record = data.draw(RECORDS[cls])
    fields = dict(zip(cls.__slots__, values(record)))
    first, *rest = cls.__slots__
    assert cls(*values(record)) == cls(**fields) == record
    assert cls(fields[first], **{name: fields[name] for name in rest}) == record
    with pytest.raises(TypeError):
        cls(*values(record), None)
    with pytest.raises(TypeError):
        cls(*values(record), **{first: fields[first]})
    with pytest.raises(TypeError):
        cls(**fields, extra=None)
    with pytest.raises(TypeError):
        cls(**{name: fields[name] for name in rest})


@pytest.mark.parametrize("family, rank", [("E", 6), ("a", 2), ("A", 0), ("B", 1), ("C", 1), ("D", 2)])
def test_bad_family_or_rank(family, rank):
    with pytest.raises(ValueError):
        LieType(family, rank)
    with pytest.raises(ValueError):
        LieType(family=family, rank=rank)


@quick
@given(lt=lie_types)
def test_empty_word(lt):
    with pytest.raises(ValueError, match="at least one factor"):
        TensorWord(lt, ())


@quick
@given(data=st.data(), lt=lie_types)
def test_node_out_of_range(data, lt):
    word = data.draw(words_of(lt))
    bad = data.draw(st.integers(-3, lt.rank + 3).filter(lambda n: not 1 <= n <= lt.rank))
    factors = list(word.factors)
    factors.insert(data.draw(st.integers(0, len(factors))), FundamentalFactor(bad, CRational(0)))
    with pytest.raises(ValueError, match=f"node {bad} out of range 1..{lt.rank}"):
        TensorWord(lt, tuple(factors))


@quick
@given(members=st.frozensets(positive, max_size=4), bad=fractions.filter(lambda q: q <= 0))
def test_nonpositive_s_set_member(members, bad):
    with pytest.raises(ValueError, match="is not positive"):
        SSet(members | {bad})


@quick
@given(data=st.data(), lt=lie_types)
def test_tuple_needs_one_polynomial_per_node(data, lt):
    count = data.draw(st.integers(0, lt.rank + 2).filter(lambda n: n != lt.rank))
    with pytest.raises(ValueError, match=f"needs {lt.rank} polynomials"):
        DrinfeldTuple(lt, tuple(data.draw(polys) for _ in range(count)))


@quick
@given(roots=st.lists(params, max_size=5), data=st.data())
def test_monic_poly_keeps_its_roots_sorted(roots, data):
    shuffled = data.draw(st.permutations(roots))
    assert MonicPoly(tuple(roots)) == MonicPoly(roots=tuple(shuffled))


def round_trips(obj):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(obj, protocol))
        assert back == obj and type(back) is type(obj)
    assert copy.deepcopy(obj) == obj
    assert copy.copy(obj) == obj


@records
@quick
@given(data=st.data())
def test_every_record_pickles_and_deepcopies(cls, data):
    round_trips(data.draw(RECORDS[cls]))


@quick
@given(word=words)
def test_verdicts_pickle_and_deepcopy(word):
    round_trips(is_cyclic(word))
    round_trips(is_irreducible(word))


def test_crational_pickles_and_deepcopies():
    z = CRational(Fraction(3, 2), Fraction(-1, 7))
    round_trips(z)
    with pytest.raises(AttributeError, match="immutable"):
        z.re = 0
