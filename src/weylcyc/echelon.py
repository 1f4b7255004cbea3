"""Row echelon forms and the saturation loop of the rank-1 oracles.

A field is an echelon-form class: `ModP`, over the prime field F_p, or
`GaussianInt`, exact and fraction-free over the Gaussian integers.
field(length) is an empty echelon form of vectors of that length, field.cut
reads an `sl2.SparseMatrix` once and cuts it into ops between blocks (an op
is a tuple of parts, each a list of (row, column, value) entries),
field.apply applies an op to a vector, and field.unit builds a 0/1 seed
vector.

`ModP` is a certificate of full rank, not an approximation.  It reduces the
Gaussian-integer numerators through the ring map Z[i] -> F_p, re + im i ->
re + im R (R^2 = -1 mod p), which sends each word in the matrices to the
same word in the reduced matrices.  A set of vectors independent mod p is
independent over Q(i), so a rank mod p is at most the exact rank, even when
p divides a numerator or a denominator; a full rank mod p is therefore the
exact rank.  A deficient rank mod p proves nothing, and the caller runs the
exact field.

A `ModP` split may keep only some blocks, and `ModP.cut` drops every entry
outside them.  The rank-1 oracles keep the weights >= 0 of h0: a vector the
cut generators make is then a word in the generators applied to the top,
in a kept weight space, so a rank mod p stays at most the exact rank of the
closure there.  The closure is an sl_2-module, and its weight spaces mu and
-mu have the same dimension, as those of the space do; so a closure full on
every kept block is the whole space (the argument is stated in `sl2`).

`saturate` closes the span of seeds under ops on a graded space: a direct
sum of blocks, with vectors as (block, local vector) pairs, ops that each
map one block into one block, and one echelon form per block.  `Split` cuts
matrices into such ops and runs the oracles on them: the closure of a
distinguished basis vector, the cocyclic test for a full algebra, and the
algebra rank.  The rank-1 oracles take the blocks to be the weight spaces
of h0.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Iterable, Sequence

from .drinfeld import ZERO, CRational

ONE = CRational(1)


def _sparse_apply(entries, vec: list, out: list) -> list:
    """Add the product of the sparse (row, column, entry) operator and vec
    into out."""
    for i, j, x in entries:
        y = vec[j]
        if y:
            out[i] += x * y
    return out


# F_p of `ModP`: P is prime, P = 1 (mod 4), and R^2 = -1 (mod P).
P = 1_000_000_009
R = 430_477_711


class ModP:
    """Row echelon form over F_p, p = `P`, on plain ints.

    A vector is a list of ints, reduced mod p only where a row is made: the
    reduction of one vector leaves its entries large, and its lead is tested
    mod p.  A row is normalized to lead 1 with entries in [0, p), and rows
    are kept sorted by pivot, each as (pivot, nonzeros as (column, entry)
    pairs).
    """

    def __init__(self, length: int):
        self.length = length
        self.rows: list[tuple[int, list[tuple[int, int]]]] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    @staticmethod
    def cut(mat, where) -> list[tuple[int, int, tuple[list]]]:
        """The numerators of mat reduced mod p, re + im i -> re + im R, cut
        into pieces between blocks as `GaussianInt.cut` cuts them; an op is
        a one-part tuple of its nonzero (row, column, value) entries.  An
        entry whose row or column is in no block is dropped in the same
        pass, so the blocks may cover only part of the basis."""
        pieces: dict[tuple[int, int], tuple[list]] = {}
        for i, row in enumerate(mat.rows):
            at = where.get(i)
            if at is None:
                continue
            target, li = at
            for j, re, im in row:
                x = (re + im * R) % P
                if x and (column := where.get(j)) is not None:
                    source, lj = column
                    piece = pieces.get((source, target))
                    if piece is None:
                        piece = pieces[source, target] = ([],)
                    piece[0].append((li, lj, x))
        return [(source, target, piece) for (source, target), piece in pieces.items()]

    @staticmethod
    def apply(op, vec: list[int], length: int) -> list[int]:
        """op times vec, a vector of the given length."""
        return _sparse_apply(op[0], vec, [0] * length)

    @staticmethod
    def unit(length: int, indices: Iterable[int]) -> list[int]:
        v = [0] * length
        for i in indices:
            v[i] = 1
        return v

    def insert(self, vec: list[int]):
        """Reduce vec against the rows; return the residual with lead 1 and
        entries in [0, p) (and extend the span) or None if vec was already
        in the span mod p.  Consumes vec: it is reduced in place."""
        for pivot, row in self.rows:
            c = vec[pivot] % P
            if c:
                for j, x in row:
                    vec[j] -= c * x
        for lead in range(self.length):
            if vec[lead] % P:
                break
        else:
            return None
        inv = pow(vec[lead], -1, P)
        vec = [x * inv % P for x in vec]
        insort(self.rows, (lead, [(j, x) for j, x in enumerate(vec) if x]), key=lambda r: r[0])
        return vec


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
    def cut(mat, where) -> list[tuple[int, int, tuple[list, list]]]:
        """The numerators of mat, an `sl2.SparseMatrix`, cut into pieces
        between blocks in one pass over its rows: (source block, target
        block, op), pieces in order of their first entry, where where[i] is
        the (block, local index) of basis index i.  An op is the (row,
        column, value) entries, in local indices, of its real and of its
        imaginary part.  The numerators are mat times its denominator, and
        scaling an operator by a nonzero constant leaves the spans it
        saturates unchanged."""
        pieces: dict[tuple[int, int], tuple[list, list]] = {}
        for i, row in enumerate(mat.rows):
            target, li = where[i]
            for j, re, im in row:
                source, lj = where[j]
                piece = pieces.get((source, target))
                if piece is None:
                    piece = pieces[source, target] = ([], [])
                if re:
                    piece[0].append((li, lj, re))
                if im:
                    piece[1].append((li, lj, im))
        return [(source, target, piece) for (source, target), piece in pieces.items()]

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
        return ModP.unit(length, indices), [0] * length

    def insert(self, vec: tuple[list[int], list[int]]):
        """Reduce vec against the rows; return the primitive residual (and
        extend the span) or None if vec was already in the span.  Consumes
        vec: its lists may be reduced in place, so the caller passes fresh ones."""
        vr, vi = vec
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
        out, zero = [], Fraction(0)
        for pivot, lead, row_re, row_im in self.rows:
            re = {j: Fraction(x, lead) for j, x in row_re}
            v = [ZERO] * length
            for j, y in row_im:
                v[columns[j]] = CRational(re.pop(j, zero), Fraction(y, lead))
            for j, x in re.items():
                v[columns[j]] = CRational(x, zero)
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
    nothing new or the span fills the space.  The seed vectors are consumed.
    """
    echelons = [field(size) for size in sizes]
    room = list(sizes)  # per block, the dimensions its span still lacks
    frontier = [(b, r) for b, vec in seeds if (r := echelons[b].insert(vec)) is not None]
    for b, _ in frontier:
        room[b] -= 1
    length, apply = sum(sizes), field.apply
    missing = length - len(frontier)
    rounds = 0
    while frontier and missing:
        rounds += 1
        if rounds > length + 1:
            raise RuntimeError("saturation failed to stabilize; arithmetic bug")
        new = []
        for block, v in frontier:
            for target, op in ops[block]:
                if room[target]:
                    residual = echelons[target].insert(apply(op, v, sizes[target]))
                    if residual is not None:
                        new.append((target, residual))
                        room[target] -= 1
                        missing -= 1
            if not missing:
                break
        frontier = new
    return echelons


def rank(echelons) -> int:
    """Total rank of echelon forms, one per block."""
    return sum(echelon.rank for echelon in echelons)


def _unit_vector(length: int, i: int) -> list[CRational]:
    """Unit vector i of the given length, of Gaussian rationals."""
    v = [ZERO] * length
    v[i] = ONE
    return v


class Split:
    """Square matrices read by a field and cut into their pieces between
    blocks of basis indices, with a distinguished basis index top: the
    oracles' graded closures and algebra rank.

    The piece of g from block nu to block mu' is E_mu' g E_nu, where E_nu
    keeps the coordinates of block nu.  blocks[b] lists the basis indices of
    block b in increasing order, and where maps each basis index i of a
    block to its (block, local index).  pieces lists, matrix by matrix, the
    (source block, target block, op) of each nonzero piece, with op in local
    indices.  Every closure and the algebra rank run under the pieces, so
    they see the unital algebra A generated by the matrices and the
    projections E_nu.

    The blocks cover the whole basis, or, over `ModP` alone, part of it:
    then the split is that of the kept space, the sum of the blocks, under
    the matrices cut down to it, and top is in a block.  Only `sl2` builds
    such a split, on the weights >= 0 of a module of its builders, whose
    generators map each weight space into one weight space, so that a
    vector of the kept space is sent either into it or out of it whole.
    """

    def __init__(self, field, mats, blocks: list[list[int]], top: int):
        self.field, self.blocks, self.top = field, blocks, top
        self.sizes = [len(block) for block in blocks]
        self.where = where = {}
        for b, block in enumerate(blocks):
            for local, i in enumerate(block):
                where[i] = (b, local)
        self.pieces = [piece for mat in mats for piece in field.cut(mat, where)]

    def _closure(self, pieces) -> list:
        """Echelon forms, block by block, of the closure of basis vector top
        under pieces, listed like self.pieces."""
        ops = [[] for _ in self.blocks]
        for source, target, op in pieces:
            ops[source].append((target, op))
        block, local = self.where[self.top]
        seed = self.field.unit(self.sizes[block], [local])
        return saturate(self.field, self.sizes, ops, [(block, seed)])

    @cached_property
    def top_closure(self) -> list:
        """Echelon forms, block by block, of A applied to basis vector top,
        made once; read only."""
        return self._closure(self.pieces)

    def top_basis(self) -> list[list[CRational]]:
        """An echelon basis of top_closure with lead entries 1, as dense
        vectors of the whole space in increasing pivot order, on a split
        whose blocks cover the whole basis.

        A block whose echelon form has full rank spans the whole block, so
        its rows are the block's unit vectors, the reduced echelon form, and
        no row is read: a full closure of any field gives the same basis.
        The rows of a deficient block are its echelon rows divided by their
        leads (`GaussianInt.normalized_rows`), so a deficient closure must
        be exact."""
        length = len(self.where)
        rows = []
        for columns, echelon in zip(self.blocks, self.top_closure):
            if echelon.rank < len(columns):
                rows += echelon.normalized_rows(columns, length)
            else:
                rows += [(i, _unit_vector(length, i)) for i in columns]
        rows.sort(key=lambda row: row[0])
        return [v for _, v in rows]

    @property
    def top_alone(self) -> bool:
        """The guard of `cocyclic`: top is alone in its block."""
        return self.sizes[self.where[self.top][0]] == 1

    def top_full(self) -> bool:
        """Closure (a) of `cocyclic`: top_closure fills every block, so it is
        the whole kept space."""
        return rank(self.top_closure) == len(self.where)

    def dual_closure(self) -> list:
        """Echelon forms, block by block, of closure (b) of `cocyclic`, made
        on each call: the closure of the top coordinate functional under the
        transposed pieces."""
        transposed = [
            (target, source, tuple([(j, i, x) for i, j, x in part] for part in op))
            for source, target, op in self.pieces
        ]
        return self._closure(transposed)

    def dual_full(self) -> bool:
        """Closure (b) of `cocyclic`: dual_closure fills every block, so it
        is the whole dual of the kept space."""
        return rank(self.dual_closure()) == len(self.where)

    def cocyclic(self) -> bool:
        """A is the algebra of all matrices, decided by two closures of
        dimension n instead of one of dimension n^2.

        The guard: top is alone in its block, so its block projection
        e_top e_top^T lies in A.  The test: (a) the top vector generates the
        space, A e_top = V (top_full), and (b) the top coordinate functional
        generates the dual under the transposed pieces, e_top^T A = V*
        (dual_full).  Then A holds (A e_top)(e_top^T A), every rank-one
        matrix, so A is full; and a full A passes both.  The guard is checked
        first, and no closure is made when it fails, nor (b) when (a) fails.
        """
        return self.top_alone and self.top_full() and self.dual_full()

    def algebra_rank(self) -> int:
        """Dimension over the field of A, the unital algebra generated by
        the matrices and the block projections E_nu, summed over its column
        classes A E_nu.

        The E_nu are orthogonal idempotents that sum to 1, so A is the direct
        sum of the classes A E_nu, whose matrices are zero outside the
        columns of block nu.  A E_nu is the closure C of E_nu under the
        pieces E_mu' g E_nu: every piece lies in A, so C lies in A E_nu; C is
        spanned by matrices with rows in a single block, and every matrix is
        the sum of its pieces, so C is closed under left multiplication by
        the matrices and holds A E_nu.  Each class is saturated on its own,
        a matrix with rows in block mu stored column by column as a vector of
        block mu, and the ranks are summed.  With one block this is the
        saturation of A from the identity.
        """
        field, sizes = self.field, self.sizes
        total = 0
        for nu, width in enumerate(sizes):
            ops = [[] for _ in sizes]
            for source, target, op in self.pieces:
                rt, rs = sizes[target], sizes[source]
                if width > 1:  # a class of width 1 takes the pieces as they are
                    op = tuple(
                        [(j * rt + i, j * rs + k, x) for j in range(width) for i, k, x in part]
                        for part in op
                    )
                ops[source].append((target, op))
            seed = field.unit(width * width, [i * width + i for i in range(width)])
            total += rank(saturate(field, [size * width for size in sizes], ops, [(nu, seed)]))
        return total
