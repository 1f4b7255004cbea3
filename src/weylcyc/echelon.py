"""Exact row echelon forms and the saturation loop of the rank-1 oracles.

A field is an echelon-form class: `ModP` over F_p on plain ints, or
`GaussianInt`, fraction-free over the Gaussian integers.  field(length) is
an empty echelon form of vectors of that length, field.operator lifts an
`sl2.ExactMatrix` into an op, field.apply applies an op to a vector, and
field.unit builds a 0/1 seed vector; `saturate` closes the span of seeds
under ops.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable

from .drinfeld import ZERO, CRational


class NotReducible(ArithmeticError):
    """A Gaussian rational whose denominator the prime divides."""


def _sparse_apply(entries, vec: list, out: list) -> list:
    """Add the product of the sparse (row, column, entry) operator and vec
    into out."""
    for i, j, x in entries:
        y = vec[j]
        if y:
            out[i] += x * y
    return out


def _unit(length: int, indices: Iterable[int]) -> list[int]:
    v = [0] * length
    for i in indices:
        v[i] = 1
    return v


class ModP:
    """Row echelon form over F_p on plain ints, p = 1 000 000 009.

    p is prime and p = 1 (mod 4), so -1 has the square root I_MOD_P in F_p and
    a Gaussian rational a + b i with denominators prime to p reduces to
    a + b * I_MOD_P.  A vector is a list of ints.  Rows are kept sorted by
    pivot with pivot entries normalized to 1, each as its nonzero (column,
    entry) pairs; elimination leaves ints unreduced between pivots.
    """

    P = 1_000_000_009
    I_MOD_P = 430_477_711

    def __init__(self, length: int):
        self.length = length
        self.rows: list[tuple[int, list[tuple[int, int]]]] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    @classmethod
    def lift(cls, x: CRational) -> int:
        p = cls.P
        out = 0
        for part, unit in ((x.re, 1), (x.im, cls.I_MOD_P)):
            if part:
                if part.denominator % p == 0:
                    raise NotReducible(f"{p} divides the denominator of {x}")
                out += part.numerator * pow(part.denominator, -1, p) * unit
        return out % p

    @classmethod
    def operator(cls, mat) -> tuple[list[tuple[int, int, int]], ...]:
        """The nonzero entries of mat mod p as (row, column, value), in a
        one-part tuple."""
        lifted = ((i, j, cls.lift(x)) for i, row in enumerate(mat.rows) for j, x in row)
        return ([entry for entry in lifted if entry[2]],)

    @staticmethod
    def apply(op, vec: list[int]) -> list[int]:
        (entries,) = op
        return _sparse_apply(entries, vec, [0] * len(vec))

    unit = staticmethod(_unit)

    def insert(self, vec: list[int]):
        """Reduce vec against the rows; return the normalized residual (and
        extend the span) or None if vec was already in the span."""
        p = self.P
        v = list(vec)
        for pivot, items in self.rows:
            c = v[pivot]
            if c:
                c %= p
                if c:
                    for j, x in items:
                        v[j] -= c * x
        v = [x % p for x in v]
        for lead, x in enumerate(v):
            if x:
                break
        else:
            return None
        inv = pow(x, -1, p)
        v = [inv * y % p if y else 0 for y in v]
        insort(self.rows, (lead, [(j, x) for j, x in enumerate(v) if x]), key=lambda r: r[0])
        return v


class GaussianInt:
    """Fraction-free row echelon form over the Gaussian integers Z[i].

    A vector is a pair (re, im) of int lists.  A row is primitive: its lead is
    a positive int (the residual is multiplied by the conjugate of its lead)
    and the gcd of all its parts is 1.  Rows are kept sorted by pivot, each as
    (pivot, lead, real nonzeros, imaginary nonzeros) with the nonzeros as
    (column, part) pairs.

    Reducing v against a row with pivot p and lead l replaces v by
    (l/g) v - (v[p]/g) row, g = gcd(l, re v[p], im v[p]), which clears
    v[p] (Bareiss, Math. Comp. 22, 1968: elimination without fractions).
    Every residual is therefore a nonzero multiple of the one elimination over
    Q(i) with pivots normalized to 1 finds, so ranks agree and each row
    divided by its lead is the row that elimination stores.
    """

    def __init__(self, length: int):
        self.length = length
        self.rows: list[tuple[int, int, list[tuple[int, int]], list[tuple[int, int]]]] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    @staticmethod
    def operator(mat) -> tuple[list[tuple[int, int, int]], list[tuple[int, int, int]]]:
        """mat times the lcm of its entries' denominators, as the nonzero
        (row, column, value) entries of its real and of its imaginary part.
        Scaling an operator by a nonzero constant leaves the spans it
        saturates unchanged."""
        entries = [(i, j, x) for i, row in enumerate(mat.rows) for j, x in row]
        scale = lcm(*(part.denominator for _, _, x in entries for part in (x.re, x.im)))

        def lifted(part: Fraction) -> int:
            return part.numerator * (scale // part.denominator)

        return (
            [(i, j, lifted(x.re)) for i, j, x in entries if x.re],
            [(i, j, lifted(x.im)) for i, j, x in entries if x.im],
        )

    @staticmethod
    def apply(op, vec: tuple[list[int], list[int]]) -> tuple[list[int], list[int]]:
        re_op, im_op = op
        vr, vi = vec
        n = len(vr)
        out_r = _sparse_apply(re_op, vr, [0] * n)
        out_i = _sparse_apply(im_op, vr, [0] * n)
        if any(vi):
            _sparse_apply(re_op, vi, out_i)
            _sparse_apply(im_op, [-y for y in vi], out_r)
        return out_r, out_i

    @staticmethod
    def unit(length: int, indices: Iterable[int]) -> tuple[list[int], list[int]]:
        return _unit(length, indices), [0] * length

    def insert(self, vec: tuple[list[int], list[int]]):
        """Reduce vec against the rows; return the primitive residual (and
        extend the span) or None if vec was already in the span."""
        vr, vi = list(vec[0]), list(vec[1])
        for pivot, lead, row_re, row_im in self.rows:
            cr, ci = vr[pivot], vi[pivot]
            if cr or ci:
                g = gcd(lead, cr, ci)
                if g != lead:
                    s = lead // g
                    vr = [s * x for x in vr]
                    vi = [s * y for y in vi]
                if g != 1:
                    cr //= g
                    ci //= g
                # v -= (cr + i ci)(row_re + i row_im)
                for j, x in row_re:
                    vr[j] -= cr * x
                for j, y in row_im:
                    vi[j] -= cr * y
                if ci:
                    for j, x in row_re:
                        vi[j] -= ci * x
                    for j, y in row_im:
                        vr[j] += ci * y
        for lead in range(self.length):
            if vr[lead] or vi[lead]:
                break
        else:
            return None
        a, b = vr[lead], vi[lead]
        if b:
            pairs = list(zip(vr, vi))
            vr = [a * x + b * y for x, y in pairs]
            vi = [a * y - b * x for x, y in pairs]
        elif a < 0:
            vr, vi = [-x for x in vr], [-y for y in vi]
        g = gcd(*vr, *vi)
        if g != 1:
            vr, vi = [x // g for x in vr], [y // g for y in vi]
        row_re = [(j, x) for j, x in enumerate(vr) if x]
        row_im = [(j, y) for j, y in enumerate(vi) if y]
        insort(self.rows, (lead, vr[lead], row_re, row_im), key=lambda r: r[0])
        return vr, vi

    def normalized_rows(self) -> list[list[CRational]]:
        """Each row divided by its lead, as a dense list of Gaussian rationals."""
        out = []
        for _, lead, row_re, row_im in self.rows:
            re, im = dict(row_re), dict(row_im)
            v = [ZERO] * self.length
            for j in re.keys() | im.keys():
                v[j] = CRational(Fraction(re.get(j, 0), lead), Fraction(im.get(j, 0), lead))
            out.append(v)
        return out


def saturate(field, length: int, ops, seeds):
    """Span of the seeds closed under the operators ops, as an echelon form
    of the field.

    Only residuals found in the previous round are pushed through the
    operators again; the loop ends when a round finds nothing new or the span
    fills the space.
    """
    basis = field(length)
    frontier = [r for r in map(basis.insert, seeds) if r is not None]
    rounds = 0
    while frontier and basis.rank < length:
        rounds += 1
        if rounds > length + 1:
            raise RuntimeError("saturation failed to stabilize; arithmetic bug")
        new = []
        for v in frontier:
            for op in ops:
                residual = basis.insert(field.apply(op, v))
                if residual is not None:
                    new.append(residual)
            if basis.rank == length:
                break
        frontier = new
    return basis
