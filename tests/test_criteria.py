import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylcyc import (
    CRational,
    DrinfeldTuple,
    FundamentalFactor,
    IrreducibilityStatus,
    LieType,
    MonicPoly,
    TensorWord,
    cartan_data,
    criteria,
    derive_s_from_t,
    is_cyclic,
    is_irreducible,
    left_dual,
    s_set,
    t_set_C,
    weyl_factorize,
)
from weylcyc.drinfeld import word_from_dict
from weylcyc.selftest import random_tuple

from reference import (
    planted_word,
    poly_one,
    reference_cyclic_violations,
    reference_irreducible_violations,
    s_set_table,
    shift_word,
    total_degree,
    tuple_of_word,
)


def cr(re, im=0):
    return CRational(Fraction(re), Fraction(im))


def word(type_str, *factors):
    lt = LieType.parse(type_str)
    return TensorWord(lt, tuple(FundamentalFactor(n, cr(a, b)) for n, a, b in factors))


def f(*args):
    return Fraction(*args)


class TestSSetTables:
    def test_type_a_example(self):
        d = cartan_data(LieType("A", 3))
        assert s_set(d, 1, 2).values == {f(3, 2)}

    def test_type_a_general(self):
        d = cartan_data(LieType("A", 4))
        # |bn-bm|/2 + k, k up to the symmetric min
        assert s_set(d, 2, 3).values == {f(3, 2), f(5, 2)}
        assert s_set(d, 1, 4).values == {f(5, 2)}
        assert s_set(d, 2, 2).values == {1, 2}

    def test_type_b_last_node(self):
        for l in range(2, 9):
            d = cartan_data(LieType("B", l))
            assert s_set(d, l, l).values == {f(2 * k + 1) for k in range(l)}

    def test_type_b_cases(self):
        d = cartan_data(LieType("B", 4))
        assert s_set(d, 1, 2).values == {3, 6}
        assert s_set(d, 4, 2).values == {4, 6}
        # overlapping arithmetic strings l-bm+r and l-bm+1+r merge
        assert s_set(d, 2, 4).values == {2, 3, 4}

    def test_type_c_cases(self):
        d = cartan_data(LieType("C", 3))
        assert s_set(d, 1, 1).values == {1, 4}
        assert s_set(d, 3, 3).values == {2, 3, 4}
        assert s_set(d, 3, 1).values == {f(3, 2), f(5, 2)}
        assert s_set(d, 1, 3).values == {f(7, 2)}

    def test_type_c_last_node_range(self):
        for l in range(2, 9):
            d = cartan_data(LieType("C", l))
            assert s_set(d, l, l).values == set(map(Fraction, range(2, l + 2)))

    def test_type_d_spin_pairs(self):
        for l in range(3, 9):
            d = cartan_data(LieType("D", l))
            lbar = 0 if l % 2 == 0 else 1
            mixed = set(map(Fraction, range(2, l - 2 + lbar + 1, 2)))
            same = set(map(Fraction, range(1, l - 1 - lbar + 1, 2)))
            assert s_set(d, l - 1, l).values == mixed
            assert s_set(d, l, l - 1).values == mixed
            assert s_set(d, l, l).values == same
            assert s_set(d, l - 1, l - 1).values == same

    def test_type_d_half_integers_kept(self):
        d = cartan_data(LieType("D", 4))
        # (l-1-b)/2 is half-integral for b = 2
        assert s_set(d, 4, 2).values == {f(3, 2), f(5, 2)}
        assert s_set(d, 2, 3).values == s_set(d, 2, 4).values == {f(3, 2), f(5, 2)}

    def test_node_range_checked(self):
        d = cartan_data(LieType("A", 2))
        with pytest.raises(ValueError):
            s_set(d, 0, 1)
        with pytest.raises(ValueError):
            s_set(d, 1, 3)


FAMILIES = [("A", 1), ("B", 2), ("C", 2), ("D", 3)]


class TestClosedForm:
    """`criteria._progressions` against the branch table it replaced."""

    @pytest.mark.parametrize("family, lo", FAMILIES)
    def test_progressions_build_s_set(self, family, lo):
        for l in range(lo, 25):
            lt = LieType(family, l)
            data = cartan_data(lt)
            for bm in range(1, l + 1):
                for bn in range(1, l + 1):
                    built = {
                        Fraction(start + step * r, 2)
                        for start, step, count in criteria._progressions(lt, bm, bn)
                        for r in range(count)
                    }
                    assert built == s_set(data, bm, bn).values == s_set_table(lt, bm, bn)

    @pytest.mark.parametrize("family, lo", FAMILIES)
    def test_membership_equals_s_set(self, family, lo):
        # d = k/2 and k/3 from -2 to 2l + 4: zero, negative, non-half-integer
        for l in range(lo, 13):
            lt = LieType(family, l)
            data = cartan_data(lt)
            top = 2 * l + 4
            ds = {Fraction(k, den) for den in (2, 3) for k in range(-2 * den, top * den + 1)}
            for bm in range(1, l + 1):
                for bn in range(1, l + 1):
                    progressions = criteria._progressions(lt, bm, bn)
                    members = s_set(data, bm, bn).values
                    for d in ds:
                        assert criteria._in_s_set(d, progressions) == (d in members), (lt, bm, bn, d)

    @pytest.mark.parametrize("family, l", [("A", 6), ("B", 6), ("C", 6), ("D", 7)])
    def test_scan_builds_no_s_set(self, monkeypatch, family, l):
        rng = random.Random(f"{family}{l}")
        w, fwd, bwd = planted_word(rng, LieType(family, l), 60, 3, 3, 4)

        def fail(*args):
            raise AssertionError("the pair scan built an S-set")

        monkeypatch.setattr(criteria, "s_set", fail)
        monkeypatch.setattr(criteria, "SSet", fail)
        assert [(v.m, v.n, v.member) for v in is_cyclic(w).violations] == fwd
        assert [(v.m, v.n, v.member) for v in is_irreducible(w).evidence] == sorted(fwd + bwd)


class TestTSets:
    def test_t_last_last(self):
        d = cartan_data(LieType("C", 4))
        assert t_set_C(d, 4, 4).offsets == {(f(1, 2), f(k)) for k in range(4)}

    def test_t_i_last_is_half_scaled(self):
        d = cartan_data(LieType("C", 5))
        i = 3
        expected = {(f(1, 2), f(5 - i + 1, 2) + r) for r in range(i)}
        assert t_set_C(d, i, 5).offsets == expected

    def test_t_1_1(self):
        d = cartan_data(LieType("C", 3))
        assert t_set_C(d, 1, 1).offsets == {(f(1), f(0)), (f(1), f(3))}

    def test_requires_type_c(self):
        d = cartan_data(LieType("B", 3))
        with pytest.raises(ValueError):
            t_set_C(d, 1, 1)
        with pytest.raises(ValueError):
            derive_s_from_t(d, 1, 1)

    def test_derivation_c3_example(self):
        d = cartan_data(LieType("C", 3))
        assert derive_s_from_t(d, 1, 1).values == {1, 4}

    def test_derivation_last_column_matches_table(self):
        for l in range(2, 9):
            d = cartan_data(LieType("C", l))
            for bm in range(1, l):
                expected = {f(l - bm + 1, 2) + 2 + r for r in range(bm)}
                assert derive_s_from_t(d, bm, l).values == expected

    def test_derivation_equals_table_everywhere(self):
        for l in range(2, 9):
            d = cartan_data(LieType("C", l))
            for bm in range(1, l + 1):
                for bn in range(1, l + 1):
                    assert derive_s_from_t(d, bm, bn).values == s_set(d, bm, bn).values


class TestCyclicity:
    def test_descending_pair_is_cyclic(self):
        report = is_cyclic(word("A1", (1, 1, 0), (1, 0, 0)))
        assert report.cyclic_guaranteed and not report.violations

    def test_ascending_unit_gap_violates(self):
        report = is_cyclic(word("A1", (1, 0, 0), (1, 1, 0)))
        assert not report.cyclic_guaranteed
        v = report.violations[0]
        assert (v.m, v.n, v.diff, v.member) == (1, 2, cr(1), Fraction(1))

    def test_single_factor_trivially_cyclic(self):
        assert is_cyclic(word("C3", (2, 5, 0))).cyclic_guaranteed

    def test_complex_difference_never_violates(self):
        report = is_cyclic(word("A1", (1, 0, 0), (1, 1, 1)))
        assert report.cyclic_guaranteed


class TestIrreducibility:
    def test_gap_two_guaranteed(self):
        verdict = is_irreducible(word("A1", (1, 0, 0), (1, 2, 0)))
        assert verdict.status is IrreducibilityStatus.IRREDUCIBLE_GUARANTEED

    def test_unit_gap_reducible_in_type_a(self):
        for order in [((1, 0, 0), (1, 1, 0)), ((1, 1, 0), (1, 0, 0))]:
            verdict = is_irreducible(word("A1", *order))
            assert verdict.status is IrreducibilityStatus.REDUCIBLE_PROVEN
            assert verdict.evidence

    def test_non_type_a_gives_not_guaranteed(self):
        verdict = is_irreducible(word("C3", (1, 0, 0), (1, 4, 0)))
        assert verdict.status is IrreducibilityStatus.NOT_GUARANTEED


@st.composite
def tensor_words(draw):
    family, lo = draw(st.sampled_from(FAMILIES))
    lt = LieType(family, draw(st.integers(lo, 6)))
    factor = st.builds(
        FundamentalFactor,
        st.integers(1, lt.rank),
        st.builds(
            CRational,
            st.integers(-12, 12).map(lambda k: Fraction(k, 2)),
            st.sampled_from([Fraction(0), Fraction(0), Fraction(1), Fraction(-1, 2)]),
        ),
    )
    return TensorWord(lt, tuple(draw(st.lists(factor, min_size=1, max_size=12))))


@st.composite
def dense_tensor_words(draw):
    """20-60 factors whose half-integer real parts span about three windows
    (the largest S-set member), over 2-3 imaginary parts, with some
    parameters repeated exactly: many pairs fall inside each window, some at
    difference 0."""
    family, lo = draw(st.sampled_from(FAMILIES))
    lt = LieType(family, draw(st.integers(lo, 8)))
    data = cartan_data(lt)
    halves = int(6 * max(data.d) * data.kappa)  # 3W in steps of 1/2
    start = draw(st.integers(-40, 40))
    ims = draw(
        st.lists(
            st.sampled_from([Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(7, 3)]),
            min_size=2, max_size=3, unique=True,
        )
    )
    param = st.builds(
        CRational,
        st.integers(start, start + halves).map(lambda k: Fraction(k, 2)),
        st.sampled_from(ims),
    )
    params = draw(st.lists(param, min_size=20, max_size=60))
    k = len(params)
    for src, dst in draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)), max_size=6)):
        params[dst] = params[src]
    nodes = draw(st.lists(st.integers(1, lt.rank), min_size=k, max_size=k))
    return TensorWord(lt, tuple(map(FundamentalFactor, nodes, params)))


def assert_matches_reference(w):
    cyc = is_cyclic(w)
    assert cyc.violations == reference_cyclic_violations(w)
    irr = is_irreducible(w)
    expected = reference_irreducible_violations(w)
    assert irr.evidence == expected
    assert [str(v.diff) for v in irr.evidence] == [str(v.diff) for v in expected]
    if not expected:
        assert irr.status is IrreducibilityStatus.IRREDUCIBLE_GUARANTEED
    elif w.type.family == "A":
        assert irr.status is IrreducibilityStatus.REDUCIBLE_PROVEN
    else:
        assert irr.status is IrreducibilityStatus.NOT_GUARANTEED


class TestPairScanAgainstReference:
    @given(w=tensor_words())
    @settings(max_examples=200, deadline=None)
    def test_matches_quadratic_loops(self, w):
        assert_matches_reference(w)

    @given(w=dense_tensor_words())
    @settings(max_examples=40, deadline=None)
    def test_matches_quadratic_loops_on_dense_windows(self, w):
        assert_matches_reference(w)


def json_word(type_str, *params):
    """A word through the codec, one factor per (node, parameter string)."""
    factors = [{"node": node, "a": a} for node, a in params]
    return word_from_dict({"type": type_str, "factors": factors})


@st.composite
def tied_words(draw):
    """3-12 factors of which 3 or more share one parameter, so that one
    group of the scan holds a real part tied at three or more positions."""
    w = draw(tensor_words())
    k = draw(st.integers(max(3, len(w.factors)), 12))
    factors = list(w.factors) + [w.factors[0]] * (k - len(w.factors))
    tied = draw(st.lists(st.integers(0, k - 1), min_size=3, max_size=k, unique=True))
    nodes = draw(st.lists(st.integers(1, w.type.rank), min_size=k, max_size=k))
    param = factors[tied[0]].param
    for i in tied:
        factors[i] = FundamentalFactor(nodes[i], param)
    return TensorWord(w.type, tuple(factors))


class TestGroupKey:
    """The scan groups positions by the (numerator, denominator) of the
    imaginary part: one group for equal parts however they were written,
    none shared by parts that differ, and ties in real part within a group
    keep the output of the quadratic loops."""

    def test_equal_parts_written_differently_share_a_group(self):
        # S(1, 1) = {1} in A1: each pair 1 apart is a violation only if
        # its two imaginary parts fall in one group
        w = json_word("A1", (1, "0+1/2i"), (1, "1+2/4i"), (1, "2+3/6i"))
        assert_matches_reference(w)
        assert pair_members(is_cyclic(w).violations) == [(1, 2, 1), (2, 3, 1)]
        zeros = CRational(0, 0), CRational(1, Fraction(0))
        w = TensorWord(LieType("A", 1), tuple(FundamentalFactor(1, a) for a in zeros))
        assert_matches_reference(w)
        assert pair_members(is_irreducible(w).evidence) == [(1, 2, 1)]

    def test_nearly_equal_parts_do_not_share_a_group(self):
        w = json_word("A1", (1, "0+1/3i"), (1, "1+333333/1000000i"), (1, "1+1/3i"))
        assert_matches_reference(w)
        assert pair_members(is_cyclic(w).violations) == [(1, 3, 1)]
        assert pair_members(is_irreducible(w).evidence) == [(1, 3, 1)]

    def test_real_parts_tied_at_three_positions(self):
        # A3: S(1, 3) = {2}, S(2, 2) = {1, 2}, S(2, 3) = {3/2}, S(3, 3) = {1};
        # positions 1, 2, 3 and 5 share the real part 0
        w = word("A3", (1, 0, 0), (2, 0, 0), (3, 0, 0), (2, 1, 0), (2, 0, 0), (3, 1, 0), (3, 2, 0))
        assert_matches_reference(w)
        assert pair_members(is_cyclic(w).violations) == [(1, 7, 2), (2, 4, 1), (3, 6, 1), (6, 7, 1)]
        assert pair_members(is_irreducible(w).evidence) == [
            (1, 7, 2), (2, 4, 1), (3, 6, 1), (5, 4, 1), (6, 7, 1)
        ]

    @given(w=tied_words())
    @settings(max_examples=100, deadline=None)
    def test_ties_match_quadratic_loops(self, w):
        assert_matches_reference(w)


class TestScanWindow:
    @pytest.mark.parametrize("family, lo", FAMILIES)
    def test_window_is_the_largest_member(self, family, lo):
        for l in range(lo, 25):
            lt = LieType(family, l)
            data = cartan_data(lt)
            nodes = range(1, l + 1)
            top = max(max(s_set(data, bm, bn).values) for bm in nodes for bn in nodes)
            assert max(data.d) * data.kappa == top
            assert criteria._window(data) == max(data.d) * data.kappa

    def test_scan_reads_its_window(self, monkeypatch):
        # S(3, 3) = {2, 3, 4} in C3, and 4 = W: the pair sits on the window's edge
        w = word("C3", (3, 0, 0), (3, 4, 0))
        assert [(v.m, v.n, v.member) for v in is_cyclic(w).violations] == [(1, 2, 4)]
        monkeypatch.setattr(criteria, "_window", lambda data: Fraction(7, 2))
        assert is_cyclic(w).violations == ()
        assert is_irreducible(w).evidence == ()


class TestLeftDual:
    def test_rank_one_shift(self):
        a = f(5, 3)
        dual = left_dual(word("A1", (1, a, 0)))
        assert dual.factors == (FundamentalFactor(1, cr(a - 1)),)

    def test_double_dual(self):
        w = word("D5", (1, 0, 0), (4, 2, 1), (5, -1, 0))
        dd = left_dual(left_dual(w))
        kap = cartan_data(w.type).kappa
        assert [g.node for g in dd.factors] == [g.node for g in w.factors]
        assert all(
            g.param == g0.param - cr(2 * kap) for g, g0 in zip(dd.factors, w.factors)
        )

    def test_a2_example(self):
        dual = left_dual(word("A2", (1, 0, 0), (2, 1, 0)))
        assert dual.factors == (
            FundamentalFactor(1, cr(f(-1, 2))),
            FundamentalFactor(2, cr(f(-3, 2))),
        )


class TestFactorization:
    def test_sort_by_real_part(self):
        t = DrinfeldTuple(
            LieType("A", 2),
            (MonicPoly.from_roots([3]), MonicPoly.from_roots([1, 5])),
        )
        w = weyl_factorize(t)
        assert [(g.node, g.param) for g in w.factors] == [(2, cr(5)), (1, cr(3)), (2, cr(1))]

    def test_rank_one_descending(self):
        roots = [f(7, 2), f(7, 2), 1, -2]
        t = DrinfeldTuple(LieType("A", 1), (MonicPoly.from_roots(roots),))
        w = weyl_factorize(t)
        assert [g.param.re for g in w.factors] == sorted(map(Fraction, roots), reverse=True)

    def test_empty_component_is_fine(self):
        t = DrinfeldTuple(
            LieType("A", 2), (poly_one(), MonicPoly.from_roots([0]))
        )
        w = weyl_factorize(t)
        assert len(w.factors) == 1 and w.factors[0].node == 2

    def test_zero_degree_rejected(self):
        with pytest.raises(ValueError):
            weyl_factorize(DrinfeldTuple(LieType("A", 2), (poly_one(), poly_one())))

    def test_tie_break_deterministic(self):
        t = DrinfeldTuple(
            LieType("B", 2),
            (MonicPoly((cr(0, 1), cr(0, -1), cr(0))), MonicPoly((cr(0),))),
        )
        w = weyl_factorize(t)
        assert [(g.node, g.param) for g in w.factors] == [
            (1, cr(0, 1)),
            (1, cr(0)),
            (2, cr(0)),
            (1, cr(0, -1)),
        ]

    def test_word_tuple_round_trip(self):
        rng = random.Random(5)
        for _ in range(20):
            t = random_tuple(rng, LieType("C", 3))
            if total_degree(t):
                assert tuple_of_word(weyl_factorize(t)) == t


class TestShiftInvariance:
    def test_verdicts_invariant_under_global_shift(self):
        words = [
            word("A1", (1, 0, 0), (1, 1, 0)),
            word("A3", (1, 0, 0), (2, f(3, 2), 0), (3, -1, 0)),
            word("C2", (2, 0, 0), (1, 3, 0)),
            word("D4", (3, 0, 0), (4, 2, 0)),
        ]
        shifts = [cr(f(7, 3)), cr(f(1, 2), 2), cr(0, -1)]
        for w in words:
            base_cyc = is_cyclic(w)
            base_irr = is_irreducible(w)
            for c in shifts:
                shifted = shift_word(w, c)
                assert is_cyclic(shifted).cyclic_guaranteed == base_cyc.cyclic_guaranteed
                assert is_irreducible(shifted).status == base_irr.status
                assert pair_members(is_cyclic(shifted).violations) == pair_members(
                    base_cyc.violations
                )
                assert pair_members(is_irreducible(shifted).evidence) == pair_members(
                    base_irr.evidence
                )

    @given(
        w=dense_tensor_words(),
        c=st.builds(
            CRational,
            st.fractions(-100, 100, max_denominator=6),
            st.sampled_from([Fraction(0), Fraction(2), Fraction(-1, 3)]),
        ),
    )
    @settings(max_examples=25, deadline=None)
    def test_violations_invariant_under_global_shift(self, w, c):
        shifted = shift_word(w, c)
        assert pair_members(is_cyclic(shifted).violations) == pair_members(
            is_cyclic(w).violations
        )
        irr, shifted_irr = is_irreducible(w), is_irreducible(shifted)
        assert pair_members(shifted_irr.evidence) == pair_members(irr.evidence)
        assert shifted_irr.status == irr.status


def pair_members(violations):
    return [(v.m, v.n, v.member) for v in violations]
