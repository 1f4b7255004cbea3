import math
from fractions import Fraction

import pytest

from weylcyc import (
    CRational,
    DrinfeldTuple,
    LieType,
    MonicPoly,
    builtin_table,
    dim_local_weyl,
)
from weylcyc.weyl_dims import FundamentalDimTable, table_from_dict

from reference import local_weyl, poly_one, shift_tuple


def poly(*roots):
    return MonicPoly.from_roots(list(roots))


def test_rank_one_powers_of_two():
    lt = LieType("A", 1)
    table = builtin_table(lt)
    for m in range(7):
        t = DrinfeldTuple(lt, (poly(*range(m)),))
        assert dim_local_weyl(t, table) == 2**m


def test_a2_product():
    lt = LieType("A", 2)
    t = DrinfeldTuple(lt, (poly(3), poly(1, 5)))
    assert dim_local_weyl(t, builtin_table(lt)) == 27


def test_empty_tuple_dimension_one():
    lt = LieType("A", 3)
    t = DrinfeldTuple(lt, (poly_one(),) * 3)
    assert dim_local_weyl(t, builtin_table(lt)) == 1


def test_a3_single_middle_node():
    lt = LieType("A", 3)
    t = DrinfeldTuple(lt, (poly_one(), poly(0), poly_one()))
    assert dim_local_weyl(t, builtin_table(lt)) == 6


def test_bound_always_attained():
    lt = LieType("A", 2)
    t = DrinfeldTuple(lt, (poly(0, 1, 2), poly(Fraction(1, 2))))
    # dim V(omega_1)^3 * dim V(omega_2) = 3^3 * 3
    assert dim_local_weyl(t, builtin_table(lt)) == 81


def test_missing_entry_raises():
    lt = LieType("C", 3)
    table = FundamentalDimTable(lt, {1: 6}, "user")
    t = DrinfeldTuple(lt, (poly(0), poly(1), poly_one()))
    with pytest.raises(ValueError, match="no entry for node 2"):
        dim_local_weyl(t, table)


def test_type_mismatch_rejected():
    t = DrinfeldTuple(LieType("A", 2), (poly(0), poly_one()))
    with pytest.raises(ValueError):
        dim_local_weyl(t, builtin_table(LieType("A", 3)))


def test_builtin_limited_to_type_a():
    with pytest.raises(ValueError):
        builtin_table(LieType("B", 2))


def test_user_table_parse():
    table = table_from_dict({"type": "C3", "dims": {"1": 6, "2": 14, "3": 14}})
    assert table.source == "user"
    t = DrinfeldTuple(LieType("C", 3), (poly(0), poly_one(), poly(1)))
    assert dim_local_weyl(t, table) == 6 * 14


def test_user_table_validation():
    for bad in [
        {},
        {"type": "C3", "dims": {"x": 6}},
        {"type": "C3", "dims": {"1": "6"}},
        {"type": "C3", "dims": {"9": 6}},
        {"type": "C3", "dims": {"1": 0}},
    ]:
        with pytest.raises(ValueError):
            table_from_dict(bad)


def test_matches_rank_one_engine():
    lt = LieType("A", 1)
    table = builtin_table(lt)
    for m in range(1, 7):
        roots = [CRational(Fraction(k, 2)) for k in range(m)]
        t = DrinfeldTuple(lt, (MonicPoly(tuple(roots)),))
        assert dim_local_weyl(t, table) == local_weyl(roots).dim


def test_invariant_under_shift():
    lt = LieType("A", 2)
    table = builtin_table(lt)
    t = DrinfeldTuple(lt, (poly(3), poly(1, 5)))
    shifted = shift_tuple(t, CRational(Fraction(-9, 4), Fraction(1, 3)))
    assert dim_local_weyl(t, table) == dim_local_weyl(shifted, table)


def test_builtin_table_is_the_binomials():
    # built by the recurrence C(l+1, i) = C(l+1, i-1) (l+2-i) / i
    for l in range(1, 65):
        assert builtin_table(LieType("A", l)).dims == {
            i: math.comb(l + 1, i) for i in range(1, l + 1)
        }
