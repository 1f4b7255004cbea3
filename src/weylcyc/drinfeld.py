"""Spectral parameters, Drinfeld polynomials, tensor words and their JSON
wire formats.

Everything is exact: spectral parameters are Gaussian rationals and monic
polynomials are stored as root multisets.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable

from .rootsys import LieType, Record, _set, require_int


def _part(x) -> Fraction:
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return Fraction(x)
    raise ValueError(f"a part of a CRational must be an int or a Fraction, got {x!r}")


class CRational(Record):
    """A complex number with exact rational real and imaginary parts, each
    given as an int or a Fraction (not a bool, a float or a string)."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        _set(self, "re", re if type(re) is Fraction else _part(re))
        _set(self, "im", im if type(im) is Fraction else _part(im))

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

    def __neg__(self):
        return CRational(-self.re, -self.im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    __hash__ = Record.__hash__  # defining __eq__ would otherwise unset it

    def __repr__(self):
        return f"CRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if not self.im:
            return str(self.re)
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"

    # ASCII only: Fraction() reads any Unicode decimal digit
    _PATTERN = re.compile(
        r"^\s*([+-]?\d+(?:/\d+)?)\s*(?:([+-]\d+(?:/\d+)?)\s*i)?\s*$", re.ASCII
    )

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
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            digits = max(map(len, re.findall(r"[0-9]+", text)))
            raise ValueError(f"a number of {digits} digits, too many to read") from None
        return cls(re_part, im_part)


def _coerce(x):
    if type(x) is CRational:
        return x
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return CRational(x)
    return NotImplemented


ZERO = CRational(0)


def _root_key(a: CRational):
    return (a.re, a.im)


def _require_tuple_of(values, cls, what: str) -> None:
    """Raise ValueError unless values is a tuple of cls instances."""
    if type(values) is not tuple:
        raise ValueError(f"{what} must be a tuple of {cls.__name__}, got a {type(values).__name__}")
    for x in values:
        if type(x) is not cls:
            raise ValueError(f"{what} must be a tuple of {cls.__name__}, got {x!r} in it")


class MonicPoly(Record):
    """prod (u - a) over a root multiset; only the roots are ever stored."""

    __slots__ = ("roots",)
    roots: tuple[CRational, ...]

    def _check(self):
        _require_tuple_of(self.roots, CRational, "roots")
        _set(self, "roots", tuple(sorted(self.roots, key=_root_key)))

    @classmethod
    def from_roots(cls, roots: Iterable) -> "MonicPoly":
        return cls(tuple(a if type(a) is CRational else CRational(a) for a in roots))

    @property
    def degree(self) -> int:
        return len(self.roots)


class DrinfeldTuple(Record):
    """l-tuple of monic polynomials indexing a highest weight."""

    __slots__ = ("type", "polys")
    type: LieType
    polys: tuple[MonicPoly, ...]

    def _check(self):
        _require_tuple_of(self.polys, MonicPoly, "polys")
        if len(self.polys) != self.type.rank:
            raise ValueError(
                f"{self.type} needs {self.type.rank} polynomials, got {len(self.polys)}"
            )


class FundamentalFactor(Record):
    """One tensor factor: fundamental node and spectral parameter."""

    __slots__ = ("node", "param")
    node: int
    param: CRational

    def _check(self):
        require_int(self.node, "node")
        if type(self.param) is not CRational:
            raise ValueError(f"param must be a CRational, got {self.param!r}")


class TensorWord(Record):
    """Ordered tensor product of fundamental factors."""

    __slots__ = ("type", "factors")
    type: LieType
    factors: tuple[FundamentalFactor, ...]

    def _check(self):
        _require_tuple_of(self.factors, FundamentalFactor, "factors")
        if not self.factors:
            raise ValueError("tensor word must have at least one factor")
        for f in self.factors:
            if not 1 <= f.node <= self.type.rank:
                raise ValueError(f"node {f.node} out of range 1..{self.type.rank}")


# ---------------------------------------------------------------------------
# JSON wire formats
#
# word:  {"type": "C4", "factors": [{"node": 2, "a": "3/2"}]}
# tuple: {"type": "A2", "polys": [["3"], ["1", "5"]]}
# ---------------------------------------------------------------------------


def type_from_json(value) -> LieType:
    """The 'type' field of a wire object, a string such as "C4"."""
    if not isinstance(value, str):
        raise ValueError(f"'type' must be a string such as \"C4\", got {value!r}")
    return LieType.parse(value)


def reject_unknown_keys(data: dict, known: tuple[str, ...], what: str) -> None:
    """Raise ValueError naming a key of the wire object `data` that its
    decoder does not read; `data` already holds every key in `known`."""
    if len(data) > len(known):
        key = next(key for key in data if key not in known)
        raise ValueError(
            f"{what} has an unknown key {key!r}; it takes only {' and '.join(map(repr, known))}"
        )


def _parse_param(value, field: str) -> CRational:
    """A spectral parameter or root of a wire object: a string such as
    "3/2-1/2i", never a JSON number."""
    if not isinstance(value, str):
        raise ValueError(f"{field} must be a string such as \"3/2\", got {value!r}")
    try:
        return CRational.parse(value)
    except ValueError as exc:
        raise ValueError(f"{field}: {exc}") from None


def word_to_dict(w: TensorWord) -> dict:
    return {
        "type": str(w.type),
        "factors": [{"node": f.node, "a": str(f.param)} for f in w.factors],
    }


def word_from_dict(data: dict) -> TensorWord:
    if not isinstance(data, dict) or "type" not in data or "factors" not in data:
        raise ValueError("word JSON must have 'type' and 'factors' keys")
    reject_unknown_keys(data, ("type", "factors"), "word JSON")
    lt = type_from_json(data["type"])
    factors = []
    if not isinstance(data["factors"], list):
        raise ValueError("'factors' must be a list")
    for entry in data["factors"]:
        if not isinstance(entry, dict) or "node" not in entry or "a" not in entry:
            raise ValueError(f"bad factor entry {entry!r}: need 'node' and 'a'")
        reject_unknown_keys(entry, ("node", "a"), f"factor entry {entry!r}")
        node = entry["node"]
        if not isinstance(node, int) or isinstance(node, bool):
            raise ValueError(f"factor 'node' must be an integer, got {node!r}")
        param = _parse_param(entry["a"], "factor 'a'")
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
    reject_unknown_keys(data, ("type", "polys"), "tuple JSON")
    lt = type_from_json(data["type"])
    polys = data["polys"]
    if not isinstance(polys, list) or len(polys) != lt.rank:
        raise ValueError(f"'polys' must be a list of {lt.rank} root lists")
    out = []
    for roots in polys:
        if not isinstance(roots, list):
            raise ValueError("each polynomial must be a list of root strings")
        out.append(MonicPoly(tuple(_parse_param(r, "'polys' root") for r in roots)))
    return DrinfeldTuple(lt, tuple(out))
