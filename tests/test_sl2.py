import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from weylcyc import (
    CRational,
    ExactMatrix,
    apply_shift,
    burnside_dim,
    check_relations,
    hw_closure,
    irrep_Wm,
    local_weyl_sl2,
    mode_operators,
    tensor,
)
from weylcyc import sl2
from weylcyc.sl2 import _Echelon, _Exact, _ModP, _NotReducible, _algebra_rank, commutator, kron


def cr(re, im=0):
    return CRational(Fraction(re), Fraction(im))


def random_rational(rng, span=10, dens=(1, 2, 3)):
    return Fraction(rng.randint(-span, span), rng.choice(dens))


def unit(n, i):
    v = [CRational(0)] * n
    v[i] = CRational(1)
    return v


def expected_modes(m, a, k):
    """Closed-formula matrices for the modes on the (m+1)-dim irreducible."""
    n = m + 1
    xp = [[CRational(0)] * n for _ in range(n)]
    xm = [[CRational(0)] * n for _ in range(n)]
    h = [[CRational(0)] * n for _ in range(n)]
    for s in range(n):
        if s + 1 < n:
            xp[s + 1][s] = (a + s) ** k * CRational(s + 1)
        if s - 1 >= 0:
            xm[s - 1][s] = (a + (s - 1)) ** k * CRational(m - s + 1)
        h[s][s] = (a + (s - 1)) ** k * CRational(s * (m - s + 1)) - (
            a + s
        ) ** k * CRational((s + 1) * (m - s))
    return (
        ExactMatrix.from_rows(xp),
        ExactMatrix.from_rows(xm),
        ExactMatrix.from_rows(h),
    )


class TestIrrep:
    def test_w1_matrices(self):
        a = cr(Fraction(2, 7))
        m = irrep_Wm(1, a)
        assert m.h0.rows == ((cr(-1), cr(0)), (cr(0), cr(1)))
        # x0- sends w1 to w0
        assert m.xm.apply(unit(2, 1)) == unit(2, 0)
        assert m.top_index == 1 and m.basis_labels == ("w0", "w1")

    def test_w1_hbar1_top_eigenvalue(self):
        a = cr(Fraction(2, 7))
        m = irrep_Wm(1, a)
        assert m.hbar1.apply(unit(2, 1)) == [cr(0), a - cr(Fraction(1, 2))]

    def test_w2_lowering(self):
        m = irrep_Wm(2, cr(Fraction(-1, 3)))
        assert m.xm.apply(unit(3, 2)) == unit(3, 1)
        assert m.xm.apply(unit(3, 1)) == [cr(2), cr(0), cr(0)]

    def test_top_killed_by_raising(self):
        m = irrep_Wm(3, cr(5))
        assert m.xp.apply(unit(4, 3)) == [cr(0)] * 4

    def test_rejects_m_zero(self):
        with pytest.raises(ValueError):
            irrep_Wm(0, cr(0))


class TestModeLadder:
    def test_reproduces_closed_formulas(self):
        rng = random.Random(123)
        for m in range(1, 5):
            for _ in range(5):
                a = cr(random_rational(rng))
                modes = mode_operators(irrep_Wm(m, a), 3)
                for k in range(4):
                    xp, xm, h = expected_modes(m, a, k)
                    assert modes.xp[k] == xp
                    assert modes.xm[k] == xm
                    assert modes.h[k] == h

    def test_w1_trio(self):
        a = cr(Fraction(4, 3))
        modes = mode_operators(irrep_Wm(1, a), 3)
        w1 = unit(2, 1)
        x0m_w1 = modes.xm[0].apply(w1)
        for k in range(4):
            scale = a**k
            assert modes.h[k].apply(w1) == [scale * x for x in w1]
            assert modes.xm[k].apply(w1) == [scale * x for x in x0m_w1]
            assert modes.h[k].apply(x0m_w1) == [-scale * x for x in x0m_w1]


class TestCorollaryIdentities:
    def test_w2_anticommutators(self):
        a = cr(Fraction(-5, 2))
        modes = mode_operators(irrep_Wm(2, a), 2)
        w2 = unit(3, 2)
        x0, x1, x2 = modes.xm[0], modes.xm[1], modes.xm[2]
        sq = (x0 @ x0).apply(w2)
        lhs1 = (x1 @ x0 + x0 @ x1).apply(w2)
        assert lhs1 == [(cr(2) * a + cr(1)) * x for x in sq]
        lhs2 = (x2 @ x0 + x0 @ x2).apply(w2)
        assert lhs2 == [(cr(2) * a * a + cr(2) * a + cr(1)) * x for x in sq]

    def test_tensor_anticommutators(self):
        b, a = cr(Fraction(1, 3)), cr(Fraction(7, 4))
        prod = tensor(irrep_Wm(1, b), irrep_Wm(1, a))
        modes = mode_operators(prod, 2)
        top = unit(4, prod.top_index)
        x0, x1, x2 = modes.xm[0], modes.xm[1], modes.xm[2]
        sq = (x0 @ x0).apply(top)
        assert (x1 @ x0 + x0 @ x1).apply(top) == [(a + b) * x for x in sq]
        assert (x0 @ x2 + x2 @ x0).apply(top) == [(a * a + b * b) * x for x in sq]


class TestRelations:
    def test_irreps_satisfy_relations(self):
        rng = random.Random(7)
        for m in range(1, 5):
            a = cr(random_rational(rng))
            assert check_relations(irrep_Wm(m, a), 3) == []

    def test_tensor_satisfies_relations(self):
        prod = tensor(irrep_Wm(1, cr(Fraction(1, 2))), irrep_Wm(2, cr(-1, 1)))
        assert check_relations(prod, 3) == []

    def test_corrupted_module_fails(self):
        m = irrep_Wm(1, cr(0))
        rows = [list(r) for r in m.hbar1.rows]
        rows[0][0] = rows[0][0] + cr(1)
        bad = type(m)(
            xp=m.xp,
            xm=m.xm,
            h0=m.h0,
            hbar1=ExactMatrix.from_rows(rows),
            basis_labels=m.basis_labels,
            top_index=m.top_index,
        )
        assert check_relations(bad, 2) != []


class TestTensor:
    def test_dimensions_and_top(self):
        prod = tensor(irrep_Wm(1, cr(0)), irrep_Wm(1, cr(1)))
        assert prod.dim == 4
        assert prod.top_index == 3
        assert prod.basis_labels[3] == "w1(x)w1"

    def test_coassociativity(self):
        rng = random.Random(31)
        for _ in range(3):
            a, b, c = (cr(random_rational(rng, span=4)) for _ in range(3))
            x, y, z = irrep_Wm(1, a), irrep_Wm(1, b), irrep_Wm(1, c)
            left = tensor(tensor(x, y), z)
            right = tensor(x, tensor(y, z))
            for attr in ("xp", "xm", "h0", "hbar1"):
                assert getattr(left, attr) == getattr(right, attr)
            assert left.top_index == right.top_index

    def test_kron_index_order(self):
        a = ExactMatrix.from_rows([[0, 1], [0, 0]])
        b = ExactMatrix.identity(2)
        k = kron(a, b)
        # left factor slowest: entry (0,2) = a[0][1] * b[0][0]
        assert k.entry(0, 2) == cr(1) and k.entry(1, 3) == cr(1)


class TestClosure:
    def test_regression_values(self):
        bad_order = tensor(irrep_Wm(1, cr(0)), irrep_Wm(1, cr(1)))
        good_order = tensor(irrep_Wm(1, cr(1)), irrep_Wm(1, cr(0)))
        assert hw_closure(bad_order)[0] == 3
        assert hw_closure(good_order)[0] == 4

    def test_unreachable_vector(self):
        # the rank-3 closure misses the hbar1 eigenvector w1(x)w0 - w0(x)w1
        module = tensor(irrep_Wm(1, cr(0)), irrep_Wm(1, cr(1)))
        rank, basis = hw_closure(module)
        assert rank == 3
        missing = [cr(0), cr(1), cr(-1), cr(0)]
        eb = _Echelon(4)
        for v in basis:
            eb.insert(v)
        assert eb.insert(missing) is not None

    def test_irreps_are_cyclic(self):
        for m in range(1, 5):
            module = irrep_Wm(m, cr(Fraction(3, 2)))
            assert hw_closure(module)[0] == m + 1

    def test_closure_invariant_under_shift(self):
        module = tensor(irrep_Wm(1, cr(0)), irrep_Wm(1, cr(1)))
        shifted = apply_shift(module, cr(Fraction(-7, 5)))
        assert hw_closure(shifted)[0] == hw_closure(module)[0]


class TestBurnside:
    def test_small_irrep_full(self):
        assert burnside_dim(irrep_Wm(1, cr(Fraction(5, 7)))) == 4
        assert burnside_dim(irrep_Wm(2, cr(-2))) == 9

    def test_irreducible_pair(self):
        assert burnside_dim(tensor(irrep_Wm(1, cr(0)), irrep_Wm(1, cr(2)))) == 16

    def test_reducible_pair(self):
        # proper value computed once by the saturation oracle, frozen since;
        # the mod-p rank is short of 16, so the value comes from the exact path
        module = tensor(irrep_Wm(1, cr(0)), irrep_Wm(1, cr(1)))
        assert _algebra_rank(module, _ModP) < 16
        assert burnside_dim(module) == 13

    @pytest.mark.parametrize(
        "factors, expected",
        [
            (((1, 0), (1, 1), (1, Fraction(5, 2))), 52),
            (((1, Fraction(5, 2)), (1, 0), (1, 1)), 52),
            (((1, 0), (2, 1)), 28),
        ],
    )
    def test_rank_deficient_falls_back_to_exact(self, factors, expected):
        # proper values computed once by the exact saturation oracle, frozen since
        module = word_module([(m, cr(a)) for m, a in factors])
        assert _algebra_rank(module, _ModP) < module.dim**2
        assert burnside_dim(module) == expected


def word_module(factors):
    module = irrep_Wm(*factors[0])
    for m, a in factors[1:]:
        module = tensor(module, irrep_Wm(m, a))
    return module


class TestModularCertificate:
    def test_prime_and_square_root_of_minus_one(self):
        p = _ModP.P
        assert p % 4 == 1
        assert all(p % d for d in range(2, int(p**0.5) + 1))
        assert _ModP.I_MOD_P**2 % p == p - 1

    def test_lift_is_a_ring_map_on_samples(self):
        rng = random.Random(5)
        for _ in range(50):
            x = cr(random_rational(rng), random_rational(rng))
            y = cr(random_rational(rng), random_rational(rng))
            assert _ModP.lift(x * y) == _ModP.lift(x) * _ModP.lift(y) % _ModP.P
            assert _ModP.lift(x - y) == (_ModP.lift(x) - _ModP.lift(y)) % _ModP.P

    def test_full_span_is_certified_mod_p(self, monkeypatch):
        fields = []

        def spy(module, field):
            fields.append(field)
            return _algebra_rank(module, field)

        monkeypatch.setattr(sl2, "_algebra_rank", spy)
        assert burnside_dim(tensor(irrep_Wm(1, cr(0)), irrep_Wm(1, cr(2)))) == 16
        assert fields == [_ModP]

    def test_rank_lost_mod_p_is_not_trusted(self):
        # a gap of 1 + p reduces to the reducible gap 1 mod p, but the exact
        # algebra is full: only gaps of +-1 make a W1 pair reducible
        module = tensor(irrep_Wm(1, cr(0)), irrep_Wm(1, cr(1 + _ModP.P)))
        assert _algebra_rank(module, _ModP) == 13
        assert burnside_dim(module) == 16

    def test_denominator_divisible_by_p_takes_exact_path(self):
        eps = Fraction(1, _ModP.P)
        for gap, expected in ((3, 16), (1, 13)):
            module = tensor(irrep_Wm(1, cr(eps)), irrep_Wm(1, cr(eps + gap)))
            with pytest.raises(_NotReducible):
                _algebra_rank(module, _ModP)
            assert burnside_dim(module) == _algebra_rank(module, _Exact) == expected

    @given(
        factors=st.lists(
            st.tuples(
                st.integers(1, 3),
                st.integers(-6, 6).map(lambda k: Fraction(k, 2)),
            ),
            min_size=1,
            max_size=3,
        ),
        im=st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(-2)]),
        shift=st.tuples(st.fractions(-3, 3, max_denominator=7), st.fractions(-3, 3, max_denominator=7)),
    )
    @settings(max_examples=25, deadline=None)
    def test_certified_equals_exact(self, factors, im, shift):
        dim = 1
        for m, _ in factors:
            dim *= m + 1
        # the exact oracle saturates in dim^2, so keep dim^2 <= 64
        assume(dim <= 8)
        module = word_module([(m, cr(a, im)) for m, a in factors])
        for image in (module, apply_shift(module, cr(*shift))):
            assert burnside_dim(image) == _algebra_rank(image, _Exact)


class TestShift:
    def test_zero_shift_identity(self):
        m = irrep_Wm(2, cr(1))
        assert apply_shift(m, cr(0)) == m

    def test_shift_covariance(self):
        rng = random.Random(11)
        for m in range(1, 4):
            b = cr(random_rational(rng))
            c = cr(random_rational(rng))
            assert apply_shift(irrep_Wm(m, b), c) == irrep_Wm(m, b + c)


class TestLocalWeyl:
    def test_pair(self):
        module = local_weyl_sl2([cr(1), cr(0)])
        assert module.dim == 4
        assert hw_closure(module)[0] == 4

    def test_single(self):
        a = cr(Fraction(-3, 4), 1)
        assert local_weyl_sl2([a]) == irrep_Wm(1, a)

    def test_unit_string_of_three(self):
        module = local_weyl_sl2([cr(2), cr(1), cr(0)])
        assert module.dim == 8
        assert hw_closure(module)[0] == 8

    def test_order_is_normalized(self):
        # input order must not matter
        a = local_weyl_sl2([cr(0), cr(1)])
        b = local_weyl_sl2([cr(1), cr(0)])
        assert a == b

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            local_weyl_sl2([])
