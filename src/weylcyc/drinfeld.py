"""Spectral parameters, Drinfeld polynomials, tensor words.

Everything is exact: spectral parameters are Gaussian rationals, monic
polynomials are stored as root multisets, and the highest-weight series
p(u+d)/p(u) is expanded with truncated exact Laurent coefficients.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .rootsys import LieType


class CRational:
    """A complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", re if type(re) is Fraction else Fraction(re))
        object.__setattr__(self, "im", im if type(im) is Fraction else Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("CRational is immutable")

    @property
    def is_real(self) -> bool:
        return not self.im

    def conjugate(self) -> "CRational":
        return CRational(self.re, -self.im)

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        norm = other.re * other.re + other.im * other.im
        if not norm:
            raise ZeroDivisionError("division by zero CRational")
        return CRational(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __neg__(self):
        return CRational(-self.re, -self.im)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers not supported")
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"CRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if not self.im:
            return str(self.re)
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"

    _PATTERN = re.compile(r"^\s*([+-]?\d+(?:/\d+)?)\s*(?:([+-]\d+(?:/\d+)?)\s*i)?\s*$")

    @classmethod
    def parse(cls, text: str) -> "CRational":
        """Parse '3/2', '-2' or '3/2-1/2i'."""
        m = cls._PATTERN.match(text)
        if m is None:
            raise ValueError(f"cannot parse exact complex rational {text!r}")
        try:
            re_part = Fraction(m.group(1))
            im_part = Fraction(m.group(2)) if m.group(2) else Fraction(0)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {text!r}") from None
        return cls(re_part, im_part)


def _coerce(x):
    if type(x) is CRational:
        return x
    if isinstance(x, (int, Fraction)):
        return CRational(x)
    return NotImplemented


ZERO = CRational(0)
ONE = CRational(1)


def _root_key(a: CRational):
    return (a.re, a.im)


@dataclass(frozen=True)
class MonicPoly:
    """prod (u - a) over a root multiset; only the roots are ever stored."""

    roots: tuple[CRational, ...]

    def __post_init__(self):
        object.__setattr__(self, "roots", tuple(sorted(self.roots, key=_root_key)))

    @classmethod
    def one(cls) -> "MonicPoly":
        return cls(())

    @classmethod
    def from_roots(cls, roots: Iterable) -> "MonicPoly":
        return cls(tuple(a if type(a) is CRational else CRational(a) for a in roots))

    @property
    def degree(self) -> int:
        return len(self.roots)

    def shift(self, c: CRational) -> "MonicPoly":
        """Translate every root by c, i.e. p(u) -> p(u - c)."""
        return MonicPoly(tuple(a + c for a in self.roots))

    def __mul__(self, other: "MonicPoly") -> "MonicPoly":
        return MonicPoly(self.roots + other.roots)


@dataclass(frozen=True)
class DrinfeldTuple:
    """l-tuple of monic polynomials indexing a highest weight."""

    type: LieType
    polys: tuple[MonicPoly, ...]

    def __post_init__(self):
        if len(self.polys) != self.type.rank:
            raise ValueError(
                f"{self.type} needs {self.type.rank} polynomials, got {len(self.polys)}"
            )

    @property
    def total_degree(self) -> int:
        return sum(p.degree for p in self.polys)


@dataclass(frozen=True)
class FundamentalFactor:
    """One tensor factor: fundamental node and spectral parameter."""

    node: int
    param: CRational


@dataclass(frozen=True)
class TensorWord:
    """Ordered tensor product of fundamental factors."""

    type: LieType
    factors: tuple[FundamentalFactor, ...]

    def __post_init__(self):
        if not self.factors:
            raise ValueError("tensor word must have at least one factor")
        for f in self.factors:
            if not 1 <= f.node <= self.type.rank:
                raise ValueError(f"node {f.node} out of range 1..{self.type.rank}")

    def __len__(self) -> int:
        return len(self.factors)


@dataclass(frozen=True)
class LaurentSeries:
    """1 + sum_{k>=0} c_{k+1} u^{-k-1}, truncated after u^{-order}.

    coeffs[0] is the constant term and must equal 1; order == len(coeffs) - 1.
    """

    coeffs: tuple[CRational, ...]

    def __post_init__(self):
        if not self.coeffs or self.coeffs[0] != ONE:
            raise ValueError("leading coefficient must be 1")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __mul__(self, other: "LaurentSeries") -> "LaurentSeries":
        n = min(len(self.coeffs), len(other.coeffs))
        return LaurentSeries(tuple(_convolve(self.coeffs, other.coeffs, n)))


def _convolve(a: Sequence[CRational], b: Sequence[CRational], n: int) -> list[CRational]:
    out = [ZERO] * n
    for i, ai in enumerate(a):
        if i >= n:
            break
        if not ai:
            continue
        for j, bj in enumerate(b):
            if i + j >= n:
                break
            if bj:
                out[i + j] = out[i + j] + ai * bj
    return out


def mu_series(p: MonicPoly, d: int, order: int | None = None) -> LaurentSeries:
    """Expansion of p(u+d)/p(u) about u = infinity, keeping u^-1 .. u^-order.

    Each root a contributes a factor (u - (a-d))/(u - a) = 1 + d/(u - a),
    expanded as the geometric series 1 + d * sum_k a^k u^{-k-1}.  The default
    order 2 deg(p) + 2 keeps enough coefficients to separate distinct root
    multisets of the sizes handled here.
    """
    if order is None:
        order = 2 * p.degree + 2
    if order < 0:
        raise ValueError("order must be >= 0")
    coeffs: list[CRational] = [ONE] + [ZERO] * order
    dd = CRational(d)
    for a in p.roots:
        factor = [ONE]
        power = ONE
        for _ in range(order):
            factor.append(dd * power)
            power = power * a
        coeffs = _convolve(coeffs, factor, order + 1)
    return LaurentSeries(tuple(coeffs))


def tuple_of_word(w: TensorWord) -> DrinfeldTuple:
    """Drinfeld tuple of an ordered tensor product: roots collected per node."""
    buckets: dict[int, list[CRational]] = {i: [] for i in range(1, w.type.rank + 1)}
    for f in w.factors:
        buckets[f.node].append(f.param)
    return DrinfeldTuple(
        w.type, tuple(MonicPoly(tuple(buckets[i])) for i in range(1, w.type.rank + 1))
    )


def shift_tuple(t: DrinfeldTuple, c: CRational) -> DrinfeldTuple:
    """Translate every root of every component by c."""
    return DrinfeldTuple(t.type, tuple(p.shift(c) for p in t.polys))


def shift_word(w: TensorWord, c: CRational) -> TensorWord:
    """Translate every spectral parameter by c."""
    return TensorWord(
        w.type, tuple(FundamentalFactor(f.node, f.param + c) for f in w.factors)
    )


# ---------------------------------------------------------------------------
# JSON wire formats
#
# word:  {"type": "C4", "factors": [{"node": 2, "a": "3/2"}]}
# tuple: {"type": "A2", "polys": [["3"], ["1", "5"]]}
# ---------------------------------------------------------------------------


def word_to_dict(w: TensorWord) -> dict:
    return {
        "type": str(w.type),
        "factors": [{"node": f.node, "a": str(f.param)} for f in w.factors],
    }


def word_from_dict(data: dict) -> TensorWord:
    if not isinstance(data, dict) or "type" not in data or "factors" not in data:
        raise ValueError("word JSON must have 'type' and 'factors' keys")
    lt = LieType.parse(str(data["type"]))
    factors = []
    if not isinstance(data["factors"], list):
        raise ValueError("'factors' must be a list")
    for entry in data["factors"]:
        if not isinstance(entry, dict) or "node" not in entry or "a" not in entry:
            raise ValueError(f"bad factor entry {entry!r}: need 'node' and 'a'")
        node = entry["node"]
        if not isinstance(node, int) or isinstance(node, bool):
            raise ValueError(f"factor 'node' must be an integer, got {node!r}")
        try:
            param = CRational.parse(str(entry["a"]))
        except ValueError as exc:
            raise ValueError(f"factor 'a': {exc}") from None
        factors.append(FundamentalFactor(node, param))
    return TensorWord(lt, tuple(factors))


def tuple_to_dict(t: DrinfeldTuple) -> dict:
    return {
        "type": str(t.type),
        "polys": [[str(a) for a in p.roots] for p in t.polys],
    }


def tuple_from_dict(data: dict) -> DrinfeldTuple:
    if not isinstance(data, dict) or "type" not in data or "polys" not in data:
        raise ValueError("tuple JSON must have 'type' and 'polys' keys")
    lt = LieType.parse(str(data["type"]))
    polys = data["polys"]
    if not isinstance(polys, list) or len(polys) != lt.rank:
        raise ValueError(f"'polys' must be a list of {lt.rank} root lists")
    out = []
    for roots in polys:
        if not isinstance(roots, list):
            raise ValueError("each polynomial must be a list of root strings")
        try:
            out.append(MonicPoly(tuple(CRational.parse(str(r)) for r in roots)))
        except ValueError as exc:
            raise ValueError(f"'polys' root: {exc}") from None
    return DrinfeldTuple(lt, tuple(out))
