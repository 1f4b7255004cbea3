"""Static data for classical root systems.

The record `CartanData` holds what the criteria read about one type: the
symmetrizers, half the dual Coxeter number and the node involution induced
by -w0, each in closed form and O(l) in size.  The Cartan matrix, a fixed
reduced word for the longest element and the Weyl group action on the weight
lattice are computed on demand.

Conventions: the Cartan matrix is a_ij = 2(alpha_i, alpha_j)/(alpha_i, alpha_i),
so diag(d) * A is symmetric with the symmetrizers fixed below, and the simple
root alpha_j has coordinates (a_1j, ..., a_lj) (the j-th column of A) in the
fundamental-weight basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
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
        try:
            rank = int(digits)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise ValueError(
                f"the rank of Lie type {text[0]}... has {len(digits)} digits, too many to read"
            ) from None
        return cls(text[0].upper(), rank)

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
    """What the criteria read about one classical type: the symmetrizers d,
    kappa, and the involution mapping node i to -w0(alpha_i).

    The Cartan matrix and the reduced word for w0, of l^2 entries and about
    l^2 letters, are not stored: `cartan_matrix` and `longest_word` compute
    them on demand.
    """

    type: LieType
    d: tuple[int, ...]
    kappa: Fraction
    involution: tuple[int, ...]


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


@lru_cache(maxsize=None)  # bench/run.py clears it with kappa.cache_clear()
def kappa(lt: LieType) -> Fraction:
    """Half the dual Coxeter number h^v (Bourbaki, Lie Groups and Lie Algebras,
    Ch. VI, Plates I-IV): h^v is l+1, 2l-1, l+1 and 2l-2 in types A, B, C, D."""
    l = lt.rank
    if lt.family == "B":
        return Fraction(2 * l - 1, 2)
    if lt.family == "D":
        return Fraction(l - 1)
    return Fraction(l + 1, 2)


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


def involution(lt: LieType) -> tuple[int, ...]:
    """The node involution sigma with -w0(alpha_i) = alpha_sigma(i) (Bourbaki,
    Plates I-IV): the reversal in type A, the swap of the two fork nodes in
    type D of odd rank, and the identity otherwise."""
    l = lt.rank
    nodes = list(range(1, l + 1))
    if lt.family == "A":
        nodes.reverse()
    elif lt.family == "D" and l % 2:
        nodes[-2:] = [l, l - 1]
    return tuple(nodes)


@lru_cache(maxsize=None)
def cartan_data(lt: LieType) -> CartanData:
    """Assemble the Cartan record for one type, in O(l) work."""
    return CartanData(type=lt, d=symmetrizers(lt), kappa=kappa(lt), involution=involution(lt))


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
