"""Spectral parameters, Drinfeld polynomials, tensor words and their JSON
wire formats.

Everything is exact: spectral parameters are Gaussian rationals and monic
polynomials are stored as root multisets.  Each decoder reads its wire
objects through `read_object`, which checks their keys; the records check
the type of each field.
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


def _require_poly_count(lie_type: LieType, count: int) -> None:
    """Raise ValueError unless a Drinfeld tuple of lie_type with count
    polynomials has one per node."""
    if count != lie_type.rank:
        raise ValueError(f"'polys' of {lie_type} needs {lie_type.rank} polynomials, got {count}")


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
        _require_poly_count(self.type, len(self.polys))


class FundamentalFactor(Record):
    """One tensor factor: fundamental node and spectral parameter."""

    __slots__ = ("node", "param")
    node: int
    param: CRational

    def _check(self):
        require_int(self.node, "factor 'node'")
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


def read_object(data, keys: tuple[str, ...], what: str) -> list:
    """The values of the wire object `data` under `keys`, in that order.

    Raise ValueError, naming `what`, unless `data` is a JSON object with
    exactly these keys; the message names a missing or an unknown key."""
    if not isinstance(data, dict):
        problem = "is not a JSON object"
    elif missing := [key for key in keys if key not in data]:
        problem = f"has no key {missing[0]!r}"
    elif len(data) > len(keys):
        problem = f"has an unknown key {next(key for key in data if key not in keys)!r}"
    else:
        return [data[key] for key in keys]
    raise ValueError(f"{what} {problem}; it takes only {' and '.join(map(repr, keys))}")


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
    lie_type, entries = read_object(data, ("type", "factors"), "word JSON")
    lt = type_from_json(lie_type)
    if not isinstance(entries, list):
        raise ValueError("'factors' must be a list")
    factors = []
    for i, entry in enumerate(entries, start=1):
        node, a = read_object(entry, ("node", "a"), f"factor entry {i}")
        factors.append(FundamentalFactor(node, _parse_param(a, "factor 'a'")))
    return TensorWord(lt, tuple(factors))


def tuple_to_dict(t: DrinfeldTuple) -> dict:
    return {
        "type": str(t.type),
        "polys": [[str(a) for a in p.roots] for p in t.polys],
    }


def tuple_from_dict(data: dict) -> DrinfeldTuple:
    lie_type, polys = read_object(data, ("type", "polys"), "tuple JSON")
    lt = type_from_json(lie_type)
    if not isinstance(polys, list):
        raise ValueError("'polys' must be a list of root lists")
    _require_poly_count(lt, len(polys))  # before any root is parsed
    out = []
    for roots in polys:
        if not isinstance(roots, list):
            raise ValueError("each polynomial must be a list of root strings")
        out.append(MonicPoly(tuple(_parse_param(r, "'polys' root") for r in roots)))
    return DrinfeldTuple(lt, tuple(out))
