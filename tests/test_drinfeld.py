import json
import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylcyc import (
    CRational,
    DrinfeldTuple,
    FundamentalFactor,
    LieType,
    MonicPoly,
    TensorWord,
)
from weylcyc import drinfeld
from weylcyc.drinfeld import (
    tuple_from_dict,
    tuple_to_dict,
    word_from_dict,
    word_to_dict,
)
from weylcyc.weyl_dims import FundamentalDimTable, table_from_dict

from reference import (
    LaurentSeries,
    conjugate,
    divide,
    mu_series,
    poly_mul,
    poly_one,
    power,
    shift_tuple,
    total_degree,
    tuple_of_word,
)

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def cr(re, im=0):
    return CRational(Fraction(re), Fraction(im))


class TestCRational:
    def test_parse_and_format(self):
        for text in ["3/2", "-2", "0", "3/2-1/2i", "-1/3+7i", "0+1i"]:
            assert str(CRational.parse(text)) == text

    def test_parse_rejects_garbage(self):
        for text in ["", "i", "1.5", "2+i", "1/2 + 1/2j", "one"]:
            with pytest.raises(ValueError):
                CRational.parse(text)

    def test_field_operations(self):
        a = cr(Fraction(3, 2), Fraction(-1, 2))
        b = cr(Fraction(-1, 3), 2)
        assert (a + b) - b == a
        assert divide(a * b, b) == a
        assert a * b == b * a
        assert -(-a) == a
        assert a + 0 == a and a * 1 == a
        assert (a * conjugate(a)).im == 0

    def test_pow(self):
        a = cr(Fraction(2, 3))
        assert power(a, 0) == CRational(1)
        assert power(a, 3) == a * a * a

    def test_hashable(self):
        assert len({cr(1), cr(1), cr(1, 1)}) == 2


class TestMuSeries:
    def test_single_root(self):
        a = cr(Fraction(5, 3))
        s = mu_series(MonicPoly((a,)), 1, 3)
        assert s.coeffs == (CRational(1), CRational(1), a, a * a)

    def test_empty_product(self):
        s = mu_series(poly_one(), 2, 3)
        assert s.coeffs == (CRational(1), CRational(0), CRational(0), CRational(0))

    def test_two_roots_matches_expansion(self):
        a, b = cr(Fraction(1, 2)), cr(-3)
        s = mu_series(MonicPoly((a, b)), 1, 3)
        assert s.coeffs == (
            CRational(1),
            CRational(2),
            a + b + 1,
            a * a + b * b + a + b,
        )

    def test_symmetrizer_scales_first_coefficient(self):
        a = cr(Fraction(1, 4))
        s = mu_series(MonicPoly((a,)), 2, 2)
        # (u - (a-2))/(u - a) = 1 + 2u^-1 + 2a u^-2 + ...
        assert s.coeffs == (CRational(1), CRational(2), CRational(2) * a)

    def test_default_order(self):
        p = MonicPoly.from_roots([1, 2])
        assert mu_series(p, 1).order == 2 * p.degree + 2

    def test_word_series_is_product_of_factor_series(self):
        w = TensorWord(
            LieType("A", 2),
            (
                FundamentalFactor(2, cr(5)),
                FundamentalFactor(1, cr(3)),
                FundamentalFactor(2, cr(Fraction(1, 2))),
            ),
        )
        t = tuple_of_word(w)
        order = 2 * total_degree(t) + 2
        for node, poly in enumerate(t.polys, start=1):
            product = mu_series(poly_one(), 1, order)
            for g in w.factors:
                if g.node == node:
                    product = product * mu_series(MonicPoly((g.param,)), 1, order)
            assert mu_series(poly, 1, order) == product

    @given(
        st.lists(rationals, max_size=3),
        st.lists(rationals, max_size=3),
        st.integers(min_value=1, max_value=2),
    )
    @settings(max_examples=60, deadline=None)
    def test_multiplicative_over_poly_product(self, roots_p, roots_q, d):
        # independent oracle: naive truncated series multiplication
        p = MonicPoly.from_roots(roots_p)
        q = MonicPoly.from_roots(roots_q)
        order = 2 * (len(roots_p) + len(roots_q)) + 2
        sp = mu_series(p, d, order).coeffs
        sq = mu_series(q, d, order).coeffs
        naive = [CRational(0)] * (order + 1)
        for i in range(order + 1):
            for j in range(order + 1 - i):
                naive[i + j] = naive[i + j] + sp[i] * sq[j]
        assert mu_series(poly_mul(p, q), d, order).coeffs == tuple(naive)


class TestWordsAndTuples:
    def test_single_factor(self):
        w = TensorWord(LieType("A", 1), (FundamentalFactor(1, cr(0)),))
        t = tuple_of_word(w)
        assert t.polys[0].roots == (cr(0),)

    def test_multiset_collection(self):
        w = TensorWord(
            LieType("A", 2),
            (
                FundamentalFactor(2, cr(5)),
                FundamentalFactor(1, cr(3)),
                FundamentalFactor(2, cr(1)),
            ),
        )
        t = tuple_of_word(w)
        assert t.polys[0].roots == (cr(3),)
        assert t.polys[1].roots == (cr(1), cr(5))

    def test_tuple_invariant_under_factor_permutation(self):
        factors = (
            FundamentalFactor(1, cr(0)),
            FundamentalFactor(2, cr(Fraction(1, 2))),
            FundamentalFactor(1, cr(-1, 1)),
        )
        lt = LieType("A", 2)
        reference = tuple_of_word(TensorWord(lt, factors))
        for perm in permutations(factors):
            assert tuple_of_word(TensorWord(lt, perm)) == reference

    def test_total_degree_equals_length(self):
        rng = random.Random(7)
        lt = LieType("C", 3)
        for _ in range(20):
            factors = tuple(
                FundamentalFactor(rng.randint(1, 3), cr(rng.randint(-4, 4)))
                for _ in range(rng.randint(1, 6))
            )
            w = TensorWord(lt, factors)
            assert total_degree(tuple_of_word(w)) == len(w.factors)

    def test_word_validation(self):
        with pytest.raises(ValueError):
            TensorWord(LieType("A", 2), ())
        with pytest.raises(ValueError):
            TensorWord(LieType("A", 2), (FundamentalFactor(3, cr(0)),))

    def test_tuple_length_validation(self):
        with pytest.raises(ValueError):
            DrinfeldTuple(LieType("A", 2), (poly_one(),))


class TestShift:
    def test_shift_by_zero(self):
        t = DrinfeldTuple(LieType("A", 1), (MonicPoly.from_roots([1, 2]),))
        assert shift_tuple(t, cr(0)) == t

    def test_root_translation(self):
        t = DrinfeldTuple(LieType("A", 1), (MonicPoly.from_roots([1]),))
        assert shift_tuple(t, cr(2)).polys[0].roots == (cr(3),)

    def test_round_trip(self):
        t = DrinfeldTuple(
            LieType("B", 2),
            (MonicPoly.from_roots([Fraction(1, 2)]), MonicPoly((cr(1, -2),))),
        )
        c = cr(Fraction(-7, 3), 1)
        assert shift_tuple(shift_tuple(t, c), -c) == t


class TestLaurentSeries:
    def test_requires_leading_one(self):
        with pytest.raises(ValueError):
            LaurentSeries((CRational(2),))

    def test_order(self):
        assert mu_series(poly_one(), 1, 5).order == 5


class TestJson:
    def test_word_round_trip(self):
        data = {"type": "C4", "factors": [{"node": 2, "a": "3/2"}]}
        w = word_from_dict(data)
        assert w.type == LieType("C", 4)
        assert w.factors[0].param == cr(Fraction(3, 2))
        assert word_to_dict(w) == data

    def test_tuple_round_trip(self):
        data = {"type": "A2", "polys": [["3"], ["1", "5"]]}
        t = tuple_from_dict(data)
        assert tuple_to_dict(t) == data

    def test_malformed_inputs(self):
        for bad in [
            {},
            {"type": "A1"},
            {"type": "A1", "factors": "x"},
            {"type": "A1", "factors": [{"node": "1", "a": "0"}]},
            {"type": "Q1", "factors": [{"node": 1, "a": "0"}]},
            {"type": "A1", "factors": [{"node": 1, "a": "zz"}]},
        ]:
            with pytest.raises(ValueError):
                word_from_dict(bad)
        for bad in [{}, {"type": "A2", "polys": [["1"]]}, {"type": "A1", "polys": "x"}]:
            with pytest.raises(ValueError):
                tuple_from_dict(bad)

    def test_tuple_polys_count_is_checked_before_any_root(self, monkeypatch):
        # a wrong number of root lists is rejected by the rule of
        # DrinfeldTuple before a single root is parsed, however many lists
        calls = []

        def spy(value, field):
            calls.append(value)
            return CRational.parse(value)

        monkeypatch.setattr(drinfeld, "_parse_param", spy)
        for count in (1, 3, 200_000):
            with pytest.raises(ValueError, match=f"'polys' of A2 needs 2 polynomials, got {count}"):
                tuple_from_dict({"type": "A2", "polys": [["1", "2"]] * count})
        assert calls == []
        tuple_from_dict({"type": "A2", "polys": [["1", "2"], []]})
        assert calls == ["1", "2"]


# Wire-format properties.  The table codec has no encoder in the library, so
# table_to_dict below writes the documented format.

MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3}
lie_types = st.sampled_from(sorted(MIN_RANK)).flatmap(
    lambda f: st.integers(MIN_RANK[f], 10).map(lambda l: LieType(f, l))
)
wide_rationals = st.fractions(min_value=-100, max_value=100, max_denominator=1000)
params = st.builds(CRational, wide_rationals, st.one_of(st.just(Fraction(0)), wide_rationals))


@st.composite
def words(draw):
    lt = draw(lie_types)
    factor = st.builds(FundamentalFactor, st.integers(1, lt.rank), params)
    return TensorWord(lt, tuple(draw(st.lists(factor, min_size=1, max_size=6))))


@st.composite
def drinfeld_tuples(draw):
    lt = draw(lie_types)
    poly = st.lists(params, max_size=3).map(lambda roots: MonicPoly(tuple(roots)))
    return DrinfeldTuple(lt, tuple(draw(poly) for _ in range(lt.rank)))


@st.composite
def tables(draw):
    lt = draw(lie_types)
    dims = draw(st.dictionaries(st.integers(1, lt.rank), st.integers(1, 10**6)))
    return FundamentalDimTable(lt, dims, "user")


def table_to_dict(table):
    return {"type": str(table.type), "dims": {str(node): d for node, d in table.dims.items()}}


def through_json(data):
    return json.loads(json.dumps(data))


# A part p/0 in each position a spectral parameter can take it.
zero_denominators = st.sampled_from(["1/0", "-3/0", "0/0", "1+1/0i", "1/0-2i", "0-5/0i"])


@st.composite
def non_ascii_digits(draw):
    """A parameter string with one digit written in the decimal digits of
    another script (Arabic-Indic, Devanagari, fullwidth), which Fraction()
    reads as the ASCII digit."""
    text = str(draw(params))
    i = draw(st.sampled_from([i for i, c in enumerate(text) if c.isdigit()]))
    zero = draw(st.sampled_from([0x660, 0x966, 0xFF10]))
    return text[:i] + chr(zero + int(text[i])) + text[i + 1 :]


json_values = st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=4))


@st.composite
def with_unknown_key(draw, obj: dict) -> tuple[dict, str]:
    """obj with one more key, none of its own, put first or last; and the key."""
    key = draw(st.text(max_size=8).filter(lambda k: k not in obj))
    value = draw(json_values)
    return ({key: value, **obj} if draw(st.booleans()) else {**obj, key: value}), key


def assert_names_unknown_key(decode, bad, key):
    with pytest.raises(ValueError) as exc:
        decode(through_json(bad))
    assert f"unknown key {key!r}" in str(exc.value)


def non_canonical_key(node):
    """Spellings that int() reads as node but that are not str(node)."""
    text = str(node)
    arabic_indic = "".join(chr(0x660 + int(d)) for d in text)
    return st.sampled_from(
        ["0" + text, "+" + text, " " + text, text + " ", text + ".0", arabic_indic]
    )


class TestCodecProperties:
    @given(words())
    @settings(max_examples=50, deadline=None)
    def test_word_round_trip(self, word):
        data = word_to_dict(word)
        assert word_from_dict(through_json(data)) == word
        assert word_to_dict(word_from_dict(data)) == data

    @given(drinfeld_tuples())
    @settings(max_examples=50, deadline=None)
    def test_tuple_round_trip(self, tup):
        data = tuple_to_dict(tup)
        assert tuple_from_dict(through_json(data)) == tup
        assert tuple_to_dict(tuple_from_dict(data)) == data

    @given(tables())
    @settings(max_examples=50, deadline=None)
    def test_table_round_trip(self, table):
        assert table_from_dict(through_json(table_to_dict(table))) == table

    @given(words(), st.data())
    @settings(max_examples=50, deadline=None)
    def test_word_rejects_booleans_and_zero_denominators(self, word, data):
        i = data.draw(st.integers(0, len(word.factors) - 1))
        for field, value, named in [
            ("node", data.draw(st.booleans()), "'node'"),
            ("a", data.draw(st.booleans()), "'a'"),
            ("a", data.draw(st.integers()), "'a' must be a string"),
            ("a", data.draw(st.floats()), "'a' must be a string"),
            ("a", data.draw(zero_denominators), "'a': zero denominator"),
            ("a", data.draw(non_ascii_digits()), "'a': cannot parse"),
        ]:
            bad = word_to_dict(word)
            bad["factors"][i][field] = value
            with pytest.raises(ValueError, match=named):
                word_from_dict(bad)
        bad = word_to_dict(word)
        bad["type"] = data.draw(st.booleans())
        with pytest.raises(ValueError, match="'type'"):
            word_from_dict(bad)

    @given(drinfeld_tuples(), st.data())
    @settings(max_examples=50, deadline=None)
    def test_tuple_rejects_booleans_and_zero_denominators(self, tup, data):
        node = data.draw(st.integers(0, tup.type.rank - 1))
        for value, named in [
            (data.draw(st.booleans()), "'polys' root"),
            (data.draw(st.integers()), "'polys' root must be a string"),
            (data.draw(st.floats()), "'polys' root must be a string"),
            (data.draw(zero_denominators), "'polys' root: zero denominator"),
            (data.draw(non_ascii_digits()), "'polys' root: cannot parse"),
        ]:
            bad = tuple_to_dict(tup)
            bad["polys"][node].insert(data.draw(st.integers(0, len(bad["polys"][node]))), value)
            with pytest.raises(ValueError, match=named):
                tuple_from_dict(bad)
        bad = tuple_to_dict(tup)
        bad["type"] = data.draw(st.booleans())
        with pytest.raises(ValueError, match="'type'"):
            tuple_from_dict(bad)

    @given(tables(), st.data())
    @settings(max_examples=50, deadline=None)
    def test_table_rejects_booleans_and_non_canonical_keys(self, table, data):
        node = data.draw(st.integers(1, table.type.rank))
        bad = table_to_dict(table)
        bad["dims"][str(node)] = data.draw(st.booleans())
        with pytest.raises(ValueError, match=f"'dims' entry for node {node}"):
            table_from_dict(bad)
        key = data.draw(non_canonical_key(node))
        bad = table_to_dict(table)
        bad["dims"][key] = 1
        with pytest.raises(ValueError) as exc:
            table_from_dict(bad)
        assert repr(key) in str(exc.value)
        bad = table_to_dict(table)
        bad["type"] = data.draw(st.booleans())
        with pytest.raises(ValueError, match="'type'"):
            table_from_dict(bad)

    @given(words(), st.data())
    @settings(max_examples=50, deadline=None)
    def test_word_rejects_unknown_keys(self, word, data):
        bad, key = data.draw(with_unknown_key(word_to_dict(word)))
        assert_names_unknown_key(word_from_dict, bad, key)
        bad = word_to_dict(word)
        i = data.draw(st.integers(0, len(word.factors) - 1))
        bad["factors"][i], key = data.draw(with_unknown_key(bad["factors"][i]))
        assert_names_unknown_key(word_from_dict, bad, key)

    @given(drinfeld_tuples(), st.data())
    @settings(max_examples=50, deadline=None)
    def test_tuple_rejects_unknown_keys(self, tup, data):
        bad, key = data.draw(with_unknown_key(tuple_to_dict(tup)))
        assert_names_unknown_key(tuple_from_dict, bad, key)

    @given(tables(), st.data())
    @settings(max_examples=50, deadline=None)
    def test_table_rejects_unknown_keys(self, table, data):
        bad, key = data.draw(with_unknown_key(table_to_dict(table)))
        assert_names_unknown_key(table_from_dict, bad, key)
