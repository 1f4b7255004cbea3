"""Exact row echelon forms and the saturation loop of the rank-1 oracles.

A field is an echelon-form class, here `GaussianInt`, fraction-free over
the Gaussian integers.  field(length) is an empty echelon form of vectors of
that length, field.operator lifts an `sl2.ExactMatrix` into an op,
field.apply applies an op to a vector, and field.unit builds a 0/1 seed
vector; `saturate` closes the span of seeds under ops.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable

from .drinfeld import ZERO, CRational


def _sparse_apply(entries, vec: list, out: list) -> list:
    """Add the product of the sparse (row, column, entry) operator and vec
    into out."""
    for i, j, x in entries:
        y = vec[j]
        if y:
            out[i] += x * y
    return out


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
        v = [0] * length
        for i in indices:
            v[i] = 1
        return v, [0] * length

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
