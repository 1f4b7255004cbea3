from fractions import Fraction

import pytest

from weylcyc import (
    LieType,
    WeightVector,
    cartan_data,
    fundamental_weight,
    kappa,
    weyl_apply,
)


def all_types(max_rank=8):
    for family, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3)):
        for l in range(lo, max_rank + 1):
            yield LieType(family, l)


def test_type_parsing():
    assert LieType.parse("c3") == LieType("C", 3)
    assert str(LieType.parse(" B2 ")) == "B2"
    with pytest.raises(ValueError):
        LieType.parse("E6")
    with pytest.raises(ValueError):
        LieType.parse("Axy")
    with pytest.raises(ValueError):
        LieType("D", 2)
    for text in ["A+3", "A 3", "a03", "A\u0663", "A-3", "A3.0"]:
        # int() takes these for 3; the rank is canonical ASCII decimal only
        with pytest.raises(ValueError, match="cannot parse rank"):
            LieType.parse(text)
    with pytest.raises(ValueError):
        LieType("B", 1)


def test_rank_one_data():
    d = cartan_data(LieType("A", 1))
    assert d.matrix == ((2,),)
    assert d.d == (1,)
    assert d.longest_word == (1,)
    assert d.involution == (1,)
    assert d.num_positive_roots == 1


def test_c2_data():
    d = cartan_data(LieType("C", 2))
    assert d.d == (1, 2)
    assert d.num_positive_roots == 4
    assert d.longest_word == (2, 1, 2, 1)


def test_a3_involution_against_reflection_matrices():
    # independent oracle: multiply explicit reflection matrices S_j = I - alpha_j e_j^T
    lt = LieType("A", 3)
    d = cartan_data(lt)
    l = lt.rank

    def reflection(j):
        return [
            [(1 if i == k else 0) - (d.matrix[i][j - 1] if k == j - 1 else 0) for k in range(l)]
            for i in range(l)
        ]

    def matmul(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(l)) for j in range(l)] for i in range(l)]

    w0 = [[1 if i == j else 0 for j in range(l)] for i in range(l)]
    for j in d.longest_word:
        w0 = matmul(w0, reflection(j))
    for i in range(1, l + 1):
        image = tuple(sum(w0[r][c] * fundamental_weight(l, i).coords[c] for c in range(l)) for r in range(l))
        assert image == tuple(-x for x in fundamental_weight(l, d.involution[i - 1]).coords)
    assert d.involution == (3, 2, 1)


def test_weyl_apply_examples():
    d1 = cartan_data(LieType("A", 1))
    w = fundamental_weight(1, 1)
    assert weyl_apply(d1, (), w) == w
    assert weyl_apply(d1, (1,), w) == -w

    dc = cartan_data(LieType("C", 2))
    omega1 = fundamental_weight(2, 1)
    assert weyl_apply(dc, dc.longest_word, omega1) == -omega1


def test_weyl_apply_rejects_bad_index():
    d = cartan_data(LieType("A", 2))
    with pytest.raises(ValueError):
        weyl_apply(d, (3,), fundamental_weight(2, 1))
    with pytest.raises(ValueError):
        weyl_apply(d, (1,), WeightVector((1,)))


def test_kappa_values():
    assert kappa(LieType("A", 1)) == 1
    assert kappa(LieType("A", 2)) == Fraction(3, 2)
    assert kappa(LieType("B", 3)) == Fraction(5, 2)
    # closed forms for every family
    for lt in all_types():
        l = lt.rank
        expected = {
            "A": Fraction(l + 1, 2),
            "B": Fraction(2 * l - 1, 2),
            "C": Fraction(l + 1, 2),
            "D": Fraction(l - 1),
        }[lt.family]
        assert kappa(lt) == expected, lt


def test_longest_word_lengths():
    for lt in all_types():
        l = lt.rank
        expected = {"A": l * (l + 1) // 2, "B": l * l, "C": l * l, "D": l * (l - 1)}[lt.family]
        d = cartan_data(lt)
        assert len(d.longest_word) == expected == d.num_positive_roots


def test_longest_word_negates_fundamental_weights():
    for lt in all_types():
        d = cartan_data(lt)
        for i in range(1, lt.rank + 1):
            image = weyl_apply(d, d.longest_word, fundamental_weight(lt.rank, i))
            assert image == -fundamental_weight(lt.rank, d.involution[i - 1])


def test_symmetrized_cartan_and_coprimality():
    from math import gcd

    for lt in all_types():
        d = cartan_data(lt)
        l = lt.rank
        for i in range(l):
            for j in range(l):
                assert d.d[i] * d.matrix[i][j] == d.d[j] * d.matrix[j][i]
        assert gcd(*d.d) == 1


def test_involution_pattern():
    for lt in all_types():
        d = cartan_data(lt)
        l = lt.rank
        inv = d.involution
        assert tuple(inv[inv[i - 1] - 1] for i in range(1, l + 1)) == tuple(range(1, l + 1))
        if lt.family == "A":
            assert inv == tuple(l + 1 - i for i in range(1, l + 1))
        elif lt.family in ("B", "C") or l % 2 == 0:
            assert inv == tuple(range(1, l + 1))
        else:
            expected = list(range(1, l + 1))
            expected[l - 2], expected[l - 1] = l, l - 1
            assert inv == tuple(expected)
