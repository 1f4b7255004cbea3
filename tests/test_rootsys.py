import tracemalloc
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import pytest

from weylcyc import CartanData, LieType, cartan_data, kappa


def all_types(max_rank=8):
    for family, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3)):
        for l in range(lo, max_rank + 1):
            yield LieType(family, l)


# Reference oracle: the root-system derivation of kappa, the -w0 involution
# and the number of positive roots, against which rootsys's closed forms are
# checked.
#
# Conventions: the Cartan matrix is a_ij = 2(alpha_i, alpha_j)/(alpha_i, alpha_i),
# so diag(d) * A is symmetric with the symmetrizers of `cartan_data`, and the
# simple root alpha_j has coordinates (a_1j, ..., a_lj) (the j-th column of A)
# in the fundamental-weight basis.


@dataclass(frozen=True)
class WeightVector:
    """Integral weight written in the fundamental-weight basis."""

    coords: tuple[int, ...]

    def __neg__(self) -> "WeightVector":
        return WeightVector(tuple(-c for c in self.coords))


def fundamental_weight(rank: int, i: int) -> WeightVector:
    """The i-th fundamental weight omega_i (1-based node index)."""
    if not 1 <= i <= rank:
        raise ValueError(f"node {i} out of range 1..{rank}")
    return WeightVector(tuple(1 if j == i - 1 else 0 for j in range(rank)))


def cartan_matrix(lt: LieType) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix with rows scaled so that diag(d) * A is symmetric."""
    l = lt.rank
    a = [[0] * l for _ in range(l)]
    for i in range(l):
        a[i][i] = 2
    for i in range(l - 1):
        a[i][i + 1] = a[i + 1][i] = -1
    if lt.family == "B":
        # alpha_l short: <alpha_{l-1}, alpha_l^v> = -2
        a[l - 1][l - 2] = -2
    elif lt.family == "C":
        # alpha_l long: <alpha_l, alpha_{l-1}^v> = -2
        a[l - 2][l - 1] = -2
    elif lt.family == "D":
        # node l hangs off node l-2; nodes l-1 and l are not joined
        a[l - 2][l - 1] = a[l - 1][l - 2] = 0
        a[l - 3][l - 1] = a[l - 1][l - 3] = -1
    return tuple(tuple(row) for row in a)


def longest_word(lt: LieType) -> tuple[int, ...]:
    """A fixed reduced word for w0.

    Type A uses the block word s1 (s2 s1) ... (sl ... s1).  Types B and C use
    sl (s_{l-1} sl s_{l-1}) ... (s1 ... s_{l-1} sl s_{l-1} ... s1), and type D
    uses sl s_{l-1} followed by the palindromic blocks through the fork.
    """
    l = lt.rank
    if lt.family == "A":
        word: list[int] = []
        for k in range(1, l + 1):
            word.extend(range(k, 0, -1))
        return tuple(word)
    if lt.family in ("B", "C"):
        word = []
        for j in range(l, 0, -1):
            word.extend(range(j, l))
            word.append(l)
            word.extend(range(l - 1, j - 1, -1))
        return tuple(word)
    word = [l, l - 1]
    for j in range(l - 2, 0, -1):
        word.extend(range(j, l - 1))
        word.extend((l, l - 1))
        word.extend(range(l - 2, j - 1, -1))
    return tuple(word)


def weyl_apply(data: CartanData, word: Sequence[int], w: WeightVector) -> WeightVector:
    """Apply the product of simple reflections given by `word` to `w`.

    The word is read as a product acting on the left, so the rightmost
    reflection acts first.  s_j sends w to w - w_j * alpha_j, with alpha_j
    expanded in the fundamental-weight basis.  The Cartan matrix is built
    from data.type for the call.
    """
    l = data.type.rank
    if len(w.coords) != l:
        raise ValueError(f"weight has {len(w.coords)} coordinates, expected {l}")
    for j in word:
        if not 1 <= j <= l:
            raise ValueError(f"reflection index {j} out of range 1..{l}")
    matrix = cartan_matrix(data.type)
    v = list(w.coords)
    for j in reversed(word):  # rightmost reflection acts first
        c = v[j - 1]
        if c:
            for i in range(l):
                v[i] -= c * matrix[i][j - 1]
    return WeightVector(tuple(v))


def positive_roots(matrix: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """All positive roots in simple-root coordinates, by root-string closure.

    Builds height level by height level: beta + alpha_i is a root iff
    p = q - <beta, alpha_i^v> >= 1, where q is the depth of the alpha_i-string
    through beta.
    """
    l = len(matrix)
    roots: set[tuple[int, ...]] = set()
    level = [tuple(1 if j == i else 0 for j in range(l)) for i in range(l)]
    roots.update(level)
    while level:
        nxt = []
        for beta in level:
            for i in range(l):
                pairing = sum(matrix[i][j] * beta[j] for j in range(l))
                q = 0
                down = list(beta)
                down[i] -= 1
                while tuple(down) in roots:
                    q += 1
                    down[i] -= 1
                if q - pairing >= 1:
                    up = list(beta)
                    up[i] += 1
                    t = tuple(up)
                    if t not in roots:
                        roots.add(t)
                        nxt.append(t)
        level = nxt
    return sorted(roots, key=lambda c: (sum(c), c))


def reference_kappa(lt: LieType) -> Fraction:
    """Half of one plus the sum of the comarks c_i d_i / d_theta of the highest
    root theta = sum c_i alpha_i, with d_theta = (theta, theta)/2."""
    d = cartan_data(lt)
    matrix = cartan_matrix(lt)
    roots = positive_roots(matrix)
    top_height = max(sum(c) for c in roots)
    top = [c for c in roots if sum(c) == top_height]
    assert len(top) == 1, f"highest root of {lt} is not unique"
    theta = top[0]
    l = lt.rank
    # (alpha_i, alpha_j) = d_i * a_ij
    d_theta = Fraction(
        sum(d.d[i] * matrix[i][j] * theta[i] * theta[j] for i in range(l) for j in range(l)), 2
    )
    return (1 + sum(Fraction(ci * di) / d_theta for ci, di in zip(theta, d.d))) / 2


def reference_involution(lt: LieType) -> tuple[int, ...]:
    """sigma read off -w0(alpha_i) = alpha_sigma(i), with w0 the longest word
    and alpha_j the j-th column of the Cartan matrix in the weight basis."""
    d = cartan_data(lt)
    matrix = cartan_matrix(lt)
    l = lt.rank
    alphas = [WeightVector(tuple(matrix[i][j] for i in range(l))) for j in range(l)]
    sigma = []
    for alpha in alphas:
        image = -weyl_apply(d, longest_word(lt), alpha)
        assert image in alphas, (lt, alpha, image)
        sigma.append(alphas.index(image) + 1)
    return tuple(sigma)


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


def test_parse_rank_with_too_many_digits():
    # int() refuses more than sys.get_int_max_str_digits() (4300) digits
    with pytest.raises(ValueError, match=r"rank of Lie type A\.\.\. has 5000 digits") as info:
        LieType.parse("A" + "9" * 5000)
    assert "set_int_max_str_digits" not in str(info.value)


def test_record_holds_only_what_the_criteria_read():
    assert list(cartan_data(LieType("A", 2)).__slots__) == [
        "type", "d", "kappa", "involution"
    ]


def test_cartan_data_is_linear_in_the_rank():
    # the record must not build the l^2-entry Cartan matrix or the w0 word of
    # about l^2 letters
    lt = LieType("D", 1024)
    cartan_data.cache_clear()
    kappa.cache_clear()
    tracemalloc.start()
    try:
        d = cartan_data(lt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(d.involution) == len(d.d) == 1024
    assert peak < 1 << 20, peak


def test_rank_one_data():
    lt = LieType("A", 1)
    d = cartan_data(lt)
    assert cartan_matrix(lt) == ((2,),)
    assert d.d == (1,)
    assert longest_word(lt) == (1,)
    assert d.involution == (1,)
    assert len(positive_roots(cartan_matrix(lt))) == 1


def test_c2_data():
    lt = LieType("C", 2)
    d = cartan_data(lt)
    assert d.d == (1, 2)
    assert len(positive_roots(cartan_matrix(lt))) == 4
    assert longest_word(lt) == (2, 1, 2, 1)


def test_a3_involution_against_reflection_matrices():
    # independent oracle: multiply explicit reflection matrices S_j = I - alpha_j e_j^T
    lt = LieType("A", 3)
    d = cartan_data(lt)
    matrix = cartan_matrix(lt)
    l = lt.rank

    def reflection(j):
        return [
            [(1 if i == k else 0) - (matrix[i][j - 1] if k == j - 1 else 0) for k in range(l)]
            for i in range(l)
        ]

    def matmul(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(l)) for j in range(l)] for i in range(l)]

    w0 = [[1 if i == j else 0 for j in range(l)] for i in range(l)]
    for j in longest_word(lt):
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

    c2 = LieType("C", 2)
    omega1 = fundamental_weight(2, 1)
    assert weyl_apply(cartan_data(c2), longest_word(c2), omega1) == -omega1


def test_weyl_apply_rejects_bad_index():
    d = cartan_data(LieType("A", 2))
    with pytest.raises(ValueError):
        weyl_apply(d, (3,), fundamental_weight(2, 1))
    with pytest.raises(ValueError):
        weyl_apply(d, (1,), WeightVector((1,)))


def test_kappa_values():
    assert kappa(LieType("A", 1)) == 1
    assert kappa(LieType("A", 2)) == Fraction(3, 2)
    assert kappa(LieType("C", 2)) == Fraction(3, 2)
    assert kappa(LieType("B", 3)) == Fraction(5, 2)
    for lt in all_types(12):
        assert kappa(lt) == cartan_data(lt).kappa == reference_kappa(lt), lt


def test_longest_word_lengths():
    for lt in all_types(12):
        assert len(longest_word(lt)) == len(positive_roots(cartan_matrix(lt))), lt


def test_longest_word_negates_fundamental_weights():
    for lt in all_types():
        d = cartan_data(lt)
        for i in range(1, lt.rank + 1):
            image = weyl_apply(d, longest_word(lt), fundamental_weight(lt.rank, i))
            assert image == -fundamental_weight(lt.rank, d.involution[i - 1])


def test_symmetrized_cartan_and_coprimality():
    from math import gcd

    for lt in all_types():
        d = cartan_data(lt)
        matrix = cartan_matrix(lt)
        l = lt.rank
        for i in range(l):
            for j in range(l):
                assert d.d[i] * matrix[i][j] == d.d[j] * matrix[j][i]
        assert gcd(*d.d) == 1


def test_involution_pattern():
    assert cartan_data(LieType("D", 4)).involution == (1, 2, 3, 4)
    assert cartan_data(LieType("D", 5)).involution == (1, 2, 3, 5, 4)
    for lt in all_types(12):
        inv = cartan_data(lt).involution
        assert tuple(inv[inv[i] - 1] for i in range(lt.rank)) == tuple(range(1, lt.rank + 1))
        assert inv == reference_involution(lt), lt
