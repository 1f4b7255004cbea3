"""The records (`rootsys.Record`) keep the semantics of the frozen
dataclasses they replaced, every record and `CRational` survives pickle and
`copy.deepcopy`, and the records reject a bool, float or string where they
take an int or an exact number."""

import ast
import copy
import dataclasses
import operator
import pickle
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylcyc import (
    CartanData,
    CRational,
    DrinfeldTuple,
    FundamentalDimTable,
    FundamentalFactor,
    LieType,
    MonicPoly,
    PairViolation,
    Sl2Module,
    SparseMatrix,
    SSet,
    TensorWord,
    TSet,
    burnside_dim,
    cartan_data,
    hw_closure,
    irrep_Wm,
    is_cyclic,
    is_irreducible,
    reports,
    word_module,
)
from weylcyc.rootsys import _MIN_RANK, FAMILIES

from reference import checked_matrix, checked_module

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


def sparse_matrices(n):
    entry = st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(any)
    row = st.dictionaries(st.integers(0, n - 1), entry, max_size=2).map(
        lambda by_column: tuple((j, re, im) for j, (re, im) in sorted(by_column.items()))
    )
    return st.builds(SparseMatrix, st.tuples(*[row] * n), st.integers(1, 6))


def sl2_modules(n):
    matrix = sparse_matrices(n)
    return st.builds(Sl2Module, matrix, matrix, matrix, matrix, st.integers(0, n - 1))


def dim_tables(lt):
    dims = st.dictionaries(st.integers(1, lt.rank), st.integers(1, 99), max_size=3)
    return st.builds(FundamentalDimTable, st.just(lt), dims, st.sampled_from(["builtin", "user"]))


words = lie_types.flatmap(words_of)
drinfeld_tuples = lie_types.flatmap(tuples_of)
sizes = st.integers(1, 3)

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
    SparseMatrix: sizes.flatmap(sparse_matrices),
    Sl2Module: sizes.flatmap(sl2_modules),
    FundamentalDimTable: lie_types.flatmap(dim_tables),
}

# The frozen dataclass each record was, with the same fields in the same order.
DATACLASSES = {
    cls: dataclasses.make_dataclass(cls.__name__, cls._fields, frozen=True) for cls in RECORDS
}

records = pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
quick = settings(max_examples=25, deadline=None)


def values(record):
    return tuple(getattr(record, name) for name in record._fields)


@records
@quick
@given(data=st.data())
def test_equality_and_hash_follow_the_field_tuples(cls, data):
    a, b = data.draw(RECORDS[cls]), data.draw(RECORDS[cls])
    twin, same = DATACLASSES[cls](*values(a)), cls(*values(a))
    assert (a == b) == (values(a) == values(b))
    assert same == a
    # never equal to another class, whatever its fields
    assert a != values(a)
    assert a != twin
    if cls is FundamentalDimTable:  # it holds a dict, so neither side hashes
        for record in (a, twin):
            with pytest.raises(TypeError):
                hash(record)
    else:
        assert hash(a) == hash(values(a)) == hash(twin) == hash(same)


@pytest.mark.parametrize("cls", [*RECORDS, CRational], ids=lambda cls: cls.__name__)
def test_no_record_is_a_dataclass(cls):
    assert not dataclasses.is_dataclass(cls)


@records
@quick
@given(data=st.data())
def test_fields_cannot_be_assigned_or_deleted(cls, data):
    record = data.draw(RECORDS[cls])
    before = values(record)
    for name in cls._fields:
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
    fields = dict(zip(cls._fields, values(record)))
    first, *rest = cls._fields
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


@quick
@given(word=words)
def test_reports_are_dataclasses_that_replace_accepts(word):
    # the benchmark's tests drop a violation from each report this way
    cyc, irr = is_cyclic(word), is_irreducible(word)
    assert type(cyc) is reports.CyclicityReport and type(irr) is reports.IrreducibilityVerdict
    fewer = dataclasses.replace(cyc, violations=cyc.violations[1:])
    assert fewer.violations == cyc.violations[1:]
    assert fewer.cyclic_guaranteed == (len(cyc.violations) < 2)
    assert (fewer == cyc) == (not cyc.violations)
    fewer = dataclasses.replace(irr, evidence=irr.evidence[:-1])
    assert fewer.evidence == irr.evidence[:-1] and fewer.status is irr.status


def test_crational_pickles_and_deepcopies():
    z = CRational(Fraction(3, 2), Fraction(-1, 7))
    round_trips(z)
    with pytest.raises(AttributeError, match="immutable"):
        z.re = 0
    for name in ("re", "im"):
        with pytest.raises(AttributeError, match="immutable"):
            delattr(z, name)
    assert hash(z) == hash((Fraction(3, 2), Fraction(-1, 7)))


@quick
@given(factors=st.lists(st.tuples(st.integers(1, 2), fractions), min_size=1, max_size=2))
def test_module_cache_is_not_a_field(factors):
    # both cached splits, the one over F_p and the exact one, with the top
    # closure of each made
    closed, fresh = word_module(factors), word_module(factors)
    hw_closure(closed)
    burnside_dim(closed)
    closed._weight_split.top_closure
    assert {"_mod_p_split", "_weight_split"} <= closed.__dict__.keys()
    assert "top_closure" in closed._mod_p_split.__dict__
    assert closed == fresh and hash(closed) == hash(fresh) and repr(closed) == repr(fresh)
    assert closed.__reduce__() == fresh.__reduce__()
    assert not pickle.loads(pickle.dumps(closed)).__dict__
    assert not copy.deepcopy(closed).__dict__


def module_with_top(top):
    m = irrep_Wm(1, 0)
    return checked_module(m.xp, m.xm, m.h0, m.hbar1, top)


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: CRational(0.1), id="CRational float"),
        pytest.param(lambda: CRational(True), id="CRational bool"),
        pytest.param(lambda: CRational("1/2"), id="CRational string"),
        pytest.param(lambda: CRational(1, 0.5), id="CRational float im"),
        pytest.param(lambda: CRational(im=False), id="CRational bool im"),
        pytest.param(lambda: irrep_Wm(1, 0.1), id="irrep_Wm float a"),
        pytest.param(lambda: word_module([(1, True)]), id="word_module bool a"),
        pytest.param(lambda: MonicPoly.from_roots([Fraction(1), 0.5]), id="from_roots float"),
        pytest.param(lambda: LieType("A", True), id="LieType bool rank"),
        pytest.param(lambda: LieType("A", 2.0), id="LieType float rank"),
        pytest.param(lambda: FundamentalFactor(True, CRational(0)), id="node bool"),
        pytest.param(lambda: FundamentalFactor(1.0, CRational(0)), id="node float"),
        pytest.param(lambda: irrep_Wm(True, 0), id="irrep_Wm bool m"),
        pytest.param(lambda: irrep_Wm(2.0, 0), id="irrep_Wm float m"),
        pytest.param(lambda: module_with_top(True), id="Sl2Module bool top"),
        pytest.param(lambda: module_with_top(1.0), id="Sl2Module float top"),
    ],
)
def test_bool_float_and_string_are_rejected(build):
    with pytest.raises(ValueError, match="must be an int"):
        build()


A2 = LieType("A", 2)
ROW = (((0, 1, 0),),)


@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(lambda: FundamentalFactor(1, Fraction(1, 2)), "param", id="param Fraction"),
        pytest.param(lambda: FundamentalFactor(1, 0), "param", id="param int"),
        pytest.param(
            lambda: is_cyclic(TensorWord(A2, (FundamentalFactor(1, Fraction(1, 2)),))),
            "param must be a CRational",
            id="is_cyclic on a Fraction param",
        ),
        pytest.param(lambda: MonicPoly((Fraction(1),)), "roots", id="root Fraction"),
        pytest.param(lambda: MonicPoly([CRational(1)]), "roots", id="roots list"),
        pytest.param(
            lambda: TensorWord(A2, [FundamentalFactor(1, CRational(0))]), "factors", id="factors list"
        ),
        pytest.param(lambda: TensorWord(A2, ((1, CRational(0)),)), "factors", id="bare factor"),
        pytest.param(lambda: DrinfeldTuple(A2, [MonicPoly(())] * 2), "polys", id="polys list"),
        pytest.param(lambda: DrinfeldTuple(A2, ((), ())), "polys", id="bare poly"),
        pytest.param(
            lambda: FundamentalDimTable(A2, {True: 2}, "user"), "table node", id="table bool node"
        ),
        pytest.param(
            lambda: FundamentalDimTable(A2, {1.0: 2}, "user"), "table node", id="table float node"
        ),
        pytest.param(
            lambda: FundamentalDimTable(A2, {1: 2.5}, "user"), "'dims' entry for node 1", id="float dim"
        ),
        pytest.param(
            lambda: FundamentalDimTable(A2, {2: True}, "user"), "'dims' entry for node 2", id="bool dim"
        ),
        # the form of the rank-1 matrices and modules, which their
        # constructors leave to the builders, through the test oracle
        pytest.param(lambda: checked_matrix(list(ROW), 1), "rows", id="rows list"),
        pytest.param(lambda: checked_matrix(([(0, 1, 0)],), 1), "row 0", id="row list"),
        pytest.param(lambda: checked_matrix((((0, 1),),), 1), "row 0: entry", id="entry of two"),
        pytest.param(lambda: checked_matrix((([0, 1, 0],),), 1), "row 0: entry", id="entry list"),
        pytest.param(lambda: checked_matrix((((0, 1, 0, 0),),), 1), "row 0: entry", id="entry of four"),
        pytest.param(lambda: checked_module(1, 2, 3, 4, 0), "generator xp", id="int generators"),
        pytest.param(
            lambda: checked_module(*[checked_matrix(ROW)] * 3, ROW, 0),
            "generator hbar1",
            id="rows generator",
        ),
    ],
)
def test_malformed_fields_are_rejected(build, message):
    # each record names the field it rejects, at construction and not at
    # first use
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("other", [True, False, 0.5, 1.0])
def test_crational_arithmetic_takes_no_bool_or_float(other):
    z = CRational(1)
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError):
            op(z, other)
        with pytest.raises(TypeError):
            op(other, z)
    assert z != other


PACKAGE = Path(__file__).resolve().parents[1] / "src" / "weylcyc"


def imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module


def test_only_reports_imports_dataclasses():
    """Every record derives from `rootsys.Record`, except the two criteria
    reports, `CyclicityReport` and `IrreducibilityVerdict`.  They remain
    dataclasses for one reason only: `bench/test_bench.py` calls
    `dataclasses.replace` on them.  They live in `reports`, which `criteria`
    loads on the first report it builds, so exactly one module of the
    package imports `dataclasses`, and it is `reports`."""
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 1
    importers = {
        path.stem
        for path in sources
        if any(name.partition(".")[0] == "dataclasses" for name in imported_modules(path))
    }
    assert importers == {"reports"}


def package_calls(names: set[str]) -> set[tuple[str, str, str]]:
    """(module, function or method, callee) of every call in the package to
    a name in names, by a plain name or an attribute."""
    callers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
            scopes = top.body if isinstance(top, ast.ClassDef) else [top]
            for scope in scopes:
                name = getattr(scope, "name", "<module>")
                for node in ast.walk(scope):
                    if isinstance(node, ast.Call):
                        called = getattr(node.func, "id", getattr(node.func, "attr", None))
                        if called in names:
                            callers.add((path.stem, name, called))
    return callers


def test_only_sl2_builders_construct_matrices_and_modules():
    """`SparseMatrix` and `Sl2Module` check nothing, so only the builders of
    `sl2` construct them: never a codec, `cli`, `selftest` or `echelon`, so
    no module is built from outside data.  No module of the package calls
    `__new__`, so none makes either past its constructor."""
    callers = package_calls({"SparseMatrix", "Sl2Module", "__new__"})
    assert callers == {
        ("sl2", "_diagonal", "SparseMatrix"),
        ("sl2", "_ladder", "SparseMatrix"),
        ("sl2", "_coproduct", "SparseMatrix"),
        ("sl2", "irrep_Wm", "Sl2Module"),
        ("sl2", "tensor", "Sl2Module"),
    }


def test_only_sl2_splits_part_of_the_basis():
    """A `Split` over the weights >= 0 alone certifies a full closure only
    for a module that satisfies the sl_2 relations, which the modules of
    `sl2`'s builders do.  So the package builds a `Split` in `sl2._split`
    alone, and the only split over part of the basis is its `ModP` split."""
    assert package_calls({"Split"}) == {("sl2", "_split", "Split")}
