"""Static data for classical root systems.

The record `CartanData` holds what the criteria read about one type: the
symmetrizers, half the dual Coxeter number and the node involution induced
by -w0, each in closed form and O(l) in size.  The tests derive the last two
from the Cartan matrix, a reduced word for w0 and the Weyl group action on
the weight lattice.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

FAMILIES = ("A", "B", "C", "D")

_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3}

_set = object.__setattr__


class Record:
    """An immutable record whose fields are its `__slots__` not starting with
    `_`, in order.  A private slot or `"__dict__"` may hold a cache, which
    ==, hash, repr and pickling skip.

    It behaves as a frozen dataclass with the same fields: construction by
    position or keyword (or by a subclass's `__init__`), then `_check`
    (which may raise or normalize a field through `_set`); `AttributeError`
    on assignment and deletion; `==` only between records of the same class
    and a hash of the field tuple; the dataclass repr.  `__reduce__`
    rebuilds it through the constructor, so pickle and `copy.deepcopy` work.

    Every record but the two criteria reports uses it, sparing each record
    the generated dataclass methods.  The reports stay dataclasses, because
    the benchmark's tests call `dataclasses.replace` on them, in
    `weylcyc.reports`, which only a caller that builds a report loads.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs or len(args) != len(names):
            # the fields after the positional ones, by keyword
            args += tuple([kwargs.pop(name) for name in names[len(args) :] if name in kwargs])
            if kwargs or len(args) != len(names):
                raise TypeError(
                    f"{type(self).__name__} takes the fields {', '.join(names)}, each once"
                )
        for name, value in zip(names, args):
            _set(self, name, value)
        self._check()

    def _check(self):
        pass

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot assign to {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


def require_int(value, what: str) -> None:
    """Raise ValueError unless value is an int and not a bool."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {value!r}")


class LieType(Record):
    """One classical simple Lie algebra: family letter A/B/C/D and rank."""

    __slots__ = ("family", "rank")
    family: str
    rank: int

    def _check(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}, expected one of {FAMILIES}")
        require_int(self.rank, "rank")
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


class CartanData(Record):
    """What the criteria read about one classical type: the symmetrizers d,
    kappa, and the involution mapping node i to -w0(alpha_i).

    The Cartan matrix and a reduced word for w0, of l^2 entries and about l^2
    letters, are not part of it: no criterion reads them.
    """

    __slots__ = ("type", "d", "kappa", "involution")
    type: LieType
    d: tuple[int, ...]
    kappa: Fraction
    involution: tuple[int, ...]


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

