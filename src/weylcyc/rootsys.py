"""Static data for classical root systems.

Cartan matrices, symmetrizers, positive roots, the Weyl group action on the
weight lattice, fixed reduced words for the longest element, the node
involution induced by -w0, and half the dual Coxeter number.

Conventions: the Cartan matrix is a_ij = 2(alpha_i, alpha_j)/(alpha_i, alpha_i),
so diag(d) * A is symmetric with the symmetrizers fixed below, and the simple
root alpha_j has coordinates (a_1j, ..., a_lj) (the j-th column of A) in the
fundamental-weight basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Sequence

FAMILIES = ("A", "B", "C", "D")

_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3}


@dataclass(frozen=True)
class LieType:
    """One classical simple Lie algebra: family letter A/B/C/D and rank."""

    family: str
    rank: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}, expected one of {FAMILIES}")
        if self.rank < _MIN_RANK[self.family]:
            raise ValueError(
                f"family {self.family} requires rank >= {_MIN_RANK[self.family]}, got {self.rank}"
            )

    @classmethod
    def parse(cls, text: str) -> "LieType":
        """Parse strings like 'A3', 'c2': a family letter (case-insensitive)
        and the rank in ASCII decimal, with no sign, space or leading zero."""
        text = text.strip()
        if len(text) < 2:
            raise ValueError(f"cannot parse Lie type {text!r}")
        digits = text[1:]
        if not (digits.isascii() and digits.isdigit() and digits[0] != "0"):
            raise ValueError(f"cannot parse rank in Lie type {text!r}")
        return cls(text[0].upper(), int(digits))

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


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


@dataclass(frozen=True)
class CartanData:
    """Everything the cyclicity machinery needs about one classical type.

    involution maps node i to -w0(alpha_i); longest_word is a fixed reduced
    expression for w0, read left to right as a product of simple reflections.
    """

    type: LieType
    matrix: tuple[tuple[int, ...], ...]
    d: tuple[int, ...]
    kappa: Fraction
    involution: tuple[int, ...]
    longest_word: tuple[int, ...]
    num_positive_roots: int


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


def symmetrizers(lt: LieType) -> tuple[int, ...]:
    l = lt.rank
    if lt.family == "B":
        return tuple([2] * (l - 1) + [1])
    if lt.family == "C":
        return tuple([1] * (l - 1) + [2])
    return tuple([1] * l)


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


def _root_half_norm(matrix, d, coeffs) -> Fraction:
    # (beta, beta)/2 with (alpha_i, alpha_j) = d_i * a_ij
    l = len(matrix)
    total = 0
    for i in range(l):
        if coeffs[i]:
            for j in range(l):
                total += d[i] * matrix[i][j] * coeffs[i] * coeffs[j]
    return Fraction(total, 2)


@lru_cache(maxsize=None)
def kappa(lt: LieType) -> Fraction:
    """Half the dual Coxeter number, computed from the root system.

    The dual Coxeter number is 1 plus the sum of the comarks c_i d_i / d_theta
    of the highest root theta = sum c_i alpha_i.
    """
    matrix = cartan_matrix(lt)
    d = symmetrizers(lt)
    roots = positive_roots(matrix)
    top_height = max(sum(c) for c in roots)
    top = [c for c in roots if sum(c) == top_height]
    if len(top) != 1:
        raise RuntimeError(f"highest root of {lt} is not unique")
    theta = top[0]
    d_theta = _root_half_norm(matrix, d, theta)
    dual_coxeter = 1 + sum(Fraction(ci * di, 1) / d_theta for ci, di in zip(theta, d))
    return dual_coxeter / 2


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


def _apply_word(matrix, word: Sequence[int], coords: Sequence[int]) -> tuple[int, ...]:
    l = len(matrix)
    v = list(coords)
    for j in reversed(word):  # rightmost reflection acts first
        c = v[j - 1]
        if c:
            for i in range(l):
                v[i] -= c * matrix[i][j - 1]
    return tuple(v)


_EXPECTED_INVOLUTION = {
    "A": lambda l, i: l + 1 - i,
    "B": lambda l, i: i,
    "C": lambda l, i: i,
    "D": lambda l, i: i if l % 2 == 0 else ({l - 1: l, l: l - 1}.get(i, i)),
}


@lru_cache(maxsize=None)
def cartan_data(lt: LieType) -> CartanData:
    """Assemble and validate the full Cartan record for one type."""
    l = lt.rank
    matrix = cartan_matrix(lt)
    d = symmetrizers(lt)
    for i in range(l):
        for j in range(l):
            if d[i] * matrix[i][j] != d[j] * matrix[j][i]:
                raise RuntimeError(f"diag(d) * A not symmetric for {lt} at ({i + 1},{j + 1})")
    if gcd(*d) != 1:
        raise RuntimeError(f"symmetrizers of {lt} not coprime: {d}")
    word = longest_word(lt)
    n_pos = len(positive_roots(matrix))
    if len(word) != n_pos:
        raise RuntimeError(f"longest word for {lt} has length {len(word)}, expected {n_pos}")
    # read the node involution off w0(omega_i) = -omega_{sigma(i)}
    involution = []
    for i in range(1, l + 1):
        image = _apply_word(matrix, word, fundamental_weight(l, i).coords)
        negs = [k for k, c in enumerate(image) if c == -1]
        if sum(image) != -1 or len(negs) != 1 or any(c not in (0, -1) for c in image):
            raise RuntimeError(f"w0(omega_{i}) is not minus a fundamental weight for {lt}: {image}")
        involution.append(negs[0] + 1)
    expected = _EXPECTED_INVOLUTION[lt.family]
    for i in range(1, l + 1):
        if involution[i - 1] != expected(l, i):
            raise RuntimeError(f"unexpected -w0 involution for {lt}: {involution}")
    return CartanData(
        type=lt,
        matrix=matrix,
        d=d,
        kappa=kappa(lt),
        involution=tuple(involution),
        longest_word=word,
        num_positive_roots=n_pos,
    )


def weyl_apply(data: CartanData, word: Sequence[int], w: WeightVector) -> WeightVector:
    """Apply the product of simple reflections given by `word` to `w`.

    The word is read as a product acting on the left, so the rightmost
    reflection acts first.  s_j sends w to w - w_j * alpha_j, with alpha_j
    expanded in the fundamental-weight basis.
    """
    l = data.type.rank
    if len(w.coords) != l:
        raise ValueError(f"weight has {len(w.coords)} coordinates, expected {l}")
    for j in word:
        if not 1 <= j <= l:
            raise ValueError(f"reflection index {j} out of range 1..{l}")
    return WeightVector(_apply_word(data.matrix, word, w.coords))
