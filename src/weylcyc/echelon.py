"""Exact row echelon forms and the saturation loop of the rank-1 oracles.

A field is an echelon-form class, here `GaussianInt`, fraction-free over
the Gaussian integers.  field(length) is an empty echelon form of vectors of
that length, field.operator lifts an `sl2.ExactMatrix` into an op (a tuple of
parts, each a list of (row, column, value) entries), field.apply applies an
op to a vector, and field.unit builds a 0/1 seed vector.

`saturate` closes the span of seeds under ops on a graded space: a direct
sum of blocks, with vectors as (block, local vector) pairs, ops that each
map one block into one block, and one echelon form per block.  The rank-1
oracles take the blocks to be the weight spaces of h0.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

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
    def apply(op, vec: tuple[list[int], list[int]], length: int) -> tuple[list[int], list[int]]:
        """op times vec, a vector of the given length."""
        re_op, im_op = op
        vr, vi = vec
        out_r = _sparse_apply(re_op, vr, [0] * length)
        out_i = _sparse_apply(im_op, vr, [0] * length)
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

    def normalized_rows(
        self, columns: Sequence[int], length: int
    ) -> list[tuple[int, list[CRational]]]:
        """Each row divided by its lead, as (pivot, dense list of Gaussian
        rationals) in a space of the given length that holds column j of
        this echelon form at columns[j]."""
        out = []
        for pivot, lead, row_re, row_im in self.rows:
            re, im = dict(row_re), dict(row_im)
            v = [ZERO] * length
            for j in re.keys() | im.keys():
                v[columns[j]] = CRational(
                    Fraction(re.get(j, 0), lead), Fraction(im.get(j, 0), lead)
                )
            out.append((columns[pivot], v))
        return out


def saturate(field, sizes: Sequence[int], ops, seeds) -> list:
    """Span of the seeds closed under the ops, as one echelon form of the
    field per block.

    The space is the direct sum of blocks of the given sizes, and a vector is
    a (block, local vector) pair.  ops[b] lists the (target block, op) pairs
    that send a vector of block b to a vector of the target block; a vector
    of block b is sent through each of them in turn.  Only residuals found in
    the previous round are pushed through the ops again, and ops into a block
    that is already full are skipped; the loop ends when a round finds
    nothing new or the span fills the space.
    """
    echelons = [field(size) for size in sizes]
    length = sum(sizes)
    rank = 0

    def insert(block: int, vec):
        nonlocal rank
        residual = echelons[block].insert(vec)
        if residual is None:
            return None
        rank += 1
        return block, residual

    frontier = [r for r in (insert(*seed) for seed in seeds) if r is not None]
    rounds = 0
    while frontier and rank < length:
        rounds += 1
        if rounds > length + 1:
            raise RuntimeError("saturation failed to stabilize; arithmetic bug")
        new = []
        for block, v in frontier:
            for target, op in ops[block]:
                if echelons[target].rank < sizes[target]:
                    residual = insert(target, field.apply(op, v, sizes[target]))
                    if residual is not None:
                        new.append(residual)
            if rank == length:
                break
        frontier = new
    return echelons


class Split:
    """Square matrices lifted by a field and cut into their pieces between
    blocks of basis indices: the piece of g from block nu to block mu' is
    E_mu' g E_nu, where E_nu keeps the coordinates of block nu.

    blocks[b] lists the basis indices of block b in increasing order, and
    where[i] is the (block, local index) of basis index i.  pieces lists,
    matrix by matrix, the (source block, target block, op) of each nonzero
    piece, with op in local indices.
    """

    def __init__(self, field, mats, blocks: list[list[int]]):
        self.field, self.blocks = field, blocks
        self.sizes = [len(block) for block in blocks]
        self.where = [(0, 0)] * sum(self.sizes)
        for b, block in enumerate(blocks):
            for local, i in enumerate(block):
                self.where[i] = (b, local)
        self.pieces: list[tuple[int, int, tuple]] = []
        for mat in mats:
            op = field.operator(mat)
            cut: dict[tuple[int, int], tuple] = {}
            for p, part in enumerate(op):
                for i, j, x in part:
                    target, li = self.where[i]
                    source, lj = self.where[j]
                    piece = cut.get((source, target))
                    if piece is None:
                        piece = cut[source, target] = tuple([] for _ in op)
                    piece[p].append((li, lj, x))
            self.pieces += [(source, target, piece) for (source, target), piece in cut.items()]

    def closure(self, pieces, index: int) -> list:
        """Echelon forms, block by block, of the closure of basis vector
        index under pieces, listed like self.pieces."""
        ops = [[] for _ in self.blocks]
        for source, target, op in pieces:
            ops[source].append((target, op))
        block, local = self.where[index]
        seed = self.field.unit(self.sizes[block], [local])
        return saturate(self.field, self.sizes, ops, [(block, seed)])
