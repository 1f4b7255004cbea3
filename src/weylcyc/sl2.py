"""Concrete rank-1 Yangian modules as exact sparse matrices.

A module is carried entirely by four generator matrices: the raising and
lowering modes x0+, x0-, the grading h0, and hbar1 = h1 - h0^2/2.  Every
higher mode is an iterated hbar1-bracket of them,
x_{k+1}^± = ±(1/2)[hbar1, x_k^±] and h_k = [x_k^+, x0^-], so they span the
same submodules and generate the same algebra as all modes.  The coproduct
is explicit on this generating set, so tensor products are exact.

The modules are those of tensor words, built by `irrep_Wm`, `tensor` and
`word_module` and by nothing else: they satisfy the Yangian relations and
their h0 is diagonal, so its weight spaces are read off its diagonal.
Matrices built by hand, which need neither, go to `echelon.Split` directly.
On a word W_{m_1}(a_1) x ... x W_{m_k}(a_k), x0+, x0- and h0 act as sl_2 on
the product of the (m_i+1)-dimensional irreducibles, whatever the a_i, so
they are made once per shape (m_1, ..., m_k) and shared (`_ladder`); only
hbar1 is built per word.

Each generator is a `SparseMatrix`: Gaussian-integer numerators over one
positive int denominator.  Modules are built on those ints, with no
Fraction or CRational arithmetic; the oracles read the numerators.

Two linear-algebra oracles decide structure: `hw_closure` computes the
submodule generated by the top vector, and `burnside_dim` the dimension of
the generated matrix algebra (full iff the module is irreducible over the
complex field).  Both run in `echelon.Split`, which this module hands the
generators, the weight spaces of h0 as blocks and the top index: its
closures and algebra rank are graded by weight.  Each module makes at most
two splits, over F_p (`echelon.ModP`) first and over the Gaussian integers
(`echelon.GaussianInt`, fraction-free and exact) only when a closure is
not full mod p.  A rank mod p is at most the exact rank, so a closure full
mod p is full exactly: the F_p pass certifies a full closure, and a
deficient one mod p is decided again exactly.  Every result is the exact
one.

The F_p split keeps only the weight spaces of weight >= 0.  Each generator
maps a weight space into one weight space, so every vector the cut sweep
makes is a word in the generators applied to the top vector, and lies in
the exact closure N, reduced mod p; its rank mod p in weight mu is at most
dim N_mu.  N is invariant under x0+, x0- and h0, so it is a
finite-dimensional sl_2-module and dim N_mu = dim N_-mu, as for the module
V itself.  So a closure full mod p on every weight >= 0 is N = V.  Closure
(b) is closure (a) of the dual module, X -> -X^T, whose Cartan element
-h0 has the same weights, so the same blocks certify it.  This holds for
modules that satisfy the sl_2 relations, which every built module does; a
split over part of the basis is made here and nowhere else.  `irrep_Wm`,
and `tensor` on two such modules, mark the module they make; a module made
by hand through the constructor, or rebuilt by pickle, is not marked, may
violate the relations or have its top in a negative weight, and its F_p
split keeps every weight space.  The mark is the module's shape, and an
unmarked module's is ().
"""

from __future__ import annotations

from functools import cached_property, lru_cache, reduce
from math import gcd, lcm
from typing import Iterable

from .drinfeld import CRational
from .echelon import GaussianInt, ModP, Split, _unit_vector, rank
from .rootsys import Record, _set, require_int


Row = tuple[tuple[int, int, int], ...]


class SparseMatrix(Record):
    """Sparse square matrix of Gaussian rationals over one common
    denominator, in canonical form.

    Row i is the tuple of its nonzero (column, re, im) entries in increasing
    column order, and entry (i, j) is (re + im i) / den.  The columns and
    numerators are ints and den is a positive int.  Only the builders of
    this module construct matrices; they write this form row by row, and
    the constructor keeps it without checking it.  It divides the numerators
    and den by their common factor, so the form is canonical and == and
    hashing compare values.  The library does no matrix arithmetic; the
    oracles read the numerators.
    """

    __slots__ = ("rows", "den")

    def __init__(self, rows: tuple[Row, ...], den: int = 1):
        _set(self, "rows", rows)
        _set(self, "den", den)
        self._reduce()

    def _reduce(self):
        """Divide the numerators and den by their common factor."""
        content = self.den
        for row in self.rows:
            if content == 1:
                return
            for _, re, im in row:
                content = gcd(content, re, im)
        if content != 1:
            rows = tuple(
                tuple((j, re // content, im // content) for j, re, im in row) for row in self.rows
            )
            _set(self, "rows", rows)
            _set(self, "den", self.den // content)

    @property
    def n(self) -> int:
        return len(self.rows)


class Sl2Module(Record):
    """Finite-dimensional module given by the four generator matrices.

    top_index points at the designated highest-weight candidate in the basis;
    for irreducibles it is the genuine top vector, for tensor products it is
    the product of the factors' tops.  The modules are those of tensor
    words, which only `irrep_Wm` and `tensor` construct: they satisfy the
    Yangian relations and their h0 is diagonal.  The constructor sets the
    fields and checks none of them.  The private slot _built holds the
    module's shape, its factor sizes (m_1, ..., m_k), and is set by those
    builders alone, so a module made or rebuilt through the constructor is
    not taken to satisfy any relation (see `_split`), and its products build
    all four generators (see `tensor`).

    The module is immutable, so its `Split` over `ModP` and its `Split`
    over `GaussianInt` (the generators' numerators cut between weight
    spaces, and the closure of the top vector) are each made at most once
    per module and kept in its `__dict__`, not as fields: ==, hash, repr and
    pickling see the generators and top_index.
    """

    __slots__ = ("xp", "xm", "h0", "hbar1", "top_index", "_built", "__dict__")
    xp: SparseMatrix
    xm: SparseMatrix
    h0: SparseMatrix
    hbar1: SparseMatrix
    top_index: int

    @property
    def dim(self) -> int:
        return self.xp.n

    @property
    def _of_builders(self) -> tuple[int, ...]:
        """The shape (m_1, ..., m_k) of W_{m_1}(a_1) x ... x W_{m_k}(a_k)
        when `irrep_Wm` made the module, or `tensor` from two such modules;
        () otherwise."""
        return getattr(self, "_built", ())

    @cached_property
    def _mod_p_split(self) -> Split:
        return _split(self, ModP)

    @cached_property
    def _weight_split(self) -> Split:
        return _split(self, GaussianInt)


def _diagonal(values: Iterable[tuple[int, int]], den: int = 1) -> SparseMatrix:
    """The diagonal matrix of the (re, im) numerators over den."""
    rows = tuple(((s, re, im),) if re or im else () for s, (re, im) in enumerate(values))
    return SparseMatrix(rows, den)


@lru_cache(maxsize=8)
def _ladder(shape: tuple[int, ...]) -> tuple[SparseMatrix, SparseMatrix, SparseMatrix]:
    """x0+, x0- and h0 of W_{m_1}(a_1) x ... x W_{m_k}(a_k), where shape is
    (m_1, ..., m_k): they do not depend on the a_i, so they are made once
    per shape and shared, since matrices are immutable.  A product's are the
    coproducts of those of its last split, all factors but the last and the
    last."""
    if len(shape) > 1:
        return tuple(map(_coproduct, _ladder(shape[:-1]), _ladder(shape[-1:])))
    (m,) = shape
    return (
        # x0+ w_s = (s+1) w_{s+1} and x0- w_{s+1} = (m-s) w_s
        SparseMatrix(((),) + tuple(((s, s + 1, 0),) for s in range(m))),
        SparseMatrix(tuple(((s + 1, m - s, 0),) for s in range(m)) + ((),)),
        _diagonal((w, 0) for w in range(-m, m + 1, 2)),  # h0
    )


def irrep_Wm(m: int, a) -> Sl2Module:
    """The (m+1)-dimensional irreducible with root string a, a+1, ..., a+m-1.

    On the basis w_0..w_m the modes act by
        x_k^+ w_s = (s+a)^k (s+1) w_{s+1},
        x_k^- w_s = (s+a-1)^k (m-s+1) w_{s-1},
        h_k  w_s = ((s+a-1)^k s (m-s+1) - (s+a)^k (s+1)(m-s)) w_s,
    and the stored generators are the k=0 modes together with
    hbar1 = h_1 - h_0^2/2.  The k=0 modes are integral; hbar1 is written
    over the denominator lcm(2, den re a, den im a).
    """
    require_int(m, "m")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    a = a if type(a) is CRational else CRational(a)
    den = lcm(2, a.re.denominator, a.im.denominator)
    re = a.re.numerator * (den // a.re.denominator)
    im = a.im.numerator * (den // a.im.denominator)
    half = den // 2
    weights = range(-m, m + 1, 2)  # h0 w_s = (2s-m) w_s
    module = Sl2Module(
        *_ladder((m,)),
        # hbar1: den times the eigenvalue of h_1 - h_0^2/2 on w_s, linear in a:
        # (2s-m) a + s(3s-2m-1) - (2s-m)^2/2
        _diagonal(
            (
                (w * re + (2 * s * (3 * s - 2 * m - 1) - w * w) * half, w * im)
                for s, w in enumerate(weights)
            ),
            den,
        ),
        m,  # the top index
    )
    _set(module, "_built", (m,))
    return module


def _summed(entries: list[tuple[int, int, int]]) -> Row:
    """Canonical row from nonzero (column, re, im) entries: repeated columns
    summed, zero sums dropped, columns in increasing order."""
    if len(entries) < 2:
        return tuple(entries)
    entries.sort()
    row = []
    for entry in entries:
        if row and row[-1][0] == entry[0]:
            j, re, im = row.pop()
            re, im = re + entry[1], im + entry[2]
            if re or im:
                row.append((j, re, im))
        else:
            row.append(entry)
    return tuple(row)


def _coproduct(
    a: SparseMatrix, b: SparseMatrix, cross: tuple[SparseMatrix, SparseMatrix] | None = None
) -> SparseMatrix:
    """a x 1 + 1 x b, less 2 c x d when cross = (c, d), built row by row on
    the numerators over the denominator lcm(den a, den b, den c den d).

    Row (i1, i2) of the combined basis, left index slowest, is
    a[i1] x e_i2 + e_i1 x b[i2] (- 2 c[i1] x d[i2]).
    """
    nb = b.n
    den = lcm(a.den, b.den)
    if cross:
        c, d = cross
        den = lcm(den, c.den * d.den)
        sc = -2 * (den // (c.den * d.den))
    sa, sb = den // a.den, den // b.den
    rows_b = b.rows
    if sb != 1:
        rows_b = [[(j, sb * re, sb * im) for j, re, im in row] for row in rows_b]
    rows = []
    for i1, ra in enumerate(a.rows):
        base = i1 * nb
        if sa == 1:
            ra = [(j * nb, re, im) for j, re, im in ra]
        else:
            ra = [(j * nb, sa * re, sa * im) for j, re, im in ra]
        rc = [(j * nb, sc * p, sc * q) for j, p, q in c.rows[i1]] if cross else ()
        for i2, rb in enumerate(rows_b):
            entries = [(j + i2, re, im) for j, re, im in ra]
            for j2, re, im in rb:
                entries.append((base + j2, re, im))
            for j, p, q in rc:
                for j2, r, s in d.rows[i2]:
                    # (p + q i)(r + s i) = (pr - qs) + (ps + qr) i
                    entries.append((j + j2, p * r - q * s, p * s + q * r))
            rows.append(_summed(entries))
    return SparseMatrix(tuple(rows), den)


def tensor(m1: Sl2Module, m2: Sl2Module) -> Sl2Module:
    """Tensor product through the explicit coproduct on the generating set.

    x0^±, h0 act as op x 1 + 1 x op; hbar1 picks up the correction
    -2 x0^- x x0^+.  The combined basis orders the left index slowest, and the
    top is the product of tops.  Each generator is built in one pass on its
    numerators.  hbar1 takes one denominator for all three terms, since the
    hbar1 of a product adds the hbar1 of its factors.  The product of two
    modules of the builders is marked with the concatenation of their
    shapes, and takes x0^±, h0 from `_ladder` of that shape: only its hbar1,
    which depends on the spectral parameters, is built here.  A product with
    an unmarked factor builds all four and is unmarked.
    """
    shape = m1._of_builders + m2._of_builders if m1._of_builders and m2._of_builders else ()
    if shape:
        ladder = _ladder(shape)
    else:
        ladder = (_coproduct(m1.xp, m2.xp), _coproduct(m1.xm, m2.xm), _coproduct(m1.h0, m2.h0))
    module = Sl2Module(
        *ladder,
        _coproduct(m1.hbar1, m2.hbar1, (m1.xm, m2.xp)),
        m1.top_index * m2.dim + m2.top_index,
    )
    if shape:
        _set(module, "_built", shape)
    return module


def _split(module: Sl2Module, field) -> Split:
    """The generators split by the field between the weight spaces of h0,
    the diagonal that every module of this module's builders has: blocks in
    order of first appearance, with the top index.  The `ModP` split of a
    module of the builders, marked with its shape, keeps the weight spaces
    of weight >= 0 alone, which certify a full closure (see the module
    docstring); every other split keeps them all, so a module made by hand,
    whose mark is (), is swept in full.  Words of one shape share their h0
    (see `_ladder`), hence their blocks.

    Each projection E_nu onto a weight space is a polynomial in h0, so the
    algebra the generators span holds the E_nu and is the one `Split` sees;
    h0 itself is left out, since it acts on each block as a multiple of the
    identity."""
    groups = {}
    for i, row in enumerate(module.h0.rows):
        groups.setdefault(row[0][1:] if row else (0, 0), []).append(i)
    if field is ModP and module._of_builders:
        groups = {weight: block for weight, block in groups.items() if weight[0] >= 0}
    return Split(field, (module.xp, module.xm, module.hbar1), list(groups.values()), module.top_index)


def hw_closure(module: Sl2Module) -> tuple[int, list[list[CRational]]]:
    """Smallest subspace containing the top vector and invariant under the
    generators, by iterated application of x0+, x0- and hbar1 and row
    reduction to a fixpoint (`Split.top_closure`).  The closure runs over
    F_p first, on the weight spaces of weight >= 0 alone for a module of the
    builders and on all of them for one made by hand; a closure that fills
    each of them mod p is the whole module (see the module docstring).
    Otherwise it runs again by fraction-free elimination over the Gaussian
    integers on every weight space.  Every result is the exact one.

    Returns the dimension and an echelon basis, each vector with lead entry
    1, in increasing pivot order: the unit basis of the whole module when
    the closure is full mod p, and otherwise `Split.top_basis` of the exact
    closure, the unit vectors of each weight space it fills and the echelon
    rows divided by their leads in the others.  The module is generated by
    its top vector iff the dimension equals the module dimension; the
    generators suffice because every higher mode is an iterated
    hbar1-bracket of them, and h0 is left out because it acts on each weight
    space as a scalar.  h0 is diagonal, so the closure is h0-invariant,
    hence the sum of its intersections with the weight spaces, and it is
    saturated weight space by weight space; every vector it makes is a
    weight vector.  Each closure is made once per module and shared with
    `burnside_dim`.
    """
    n = module.dim
    if module._mod_p_split.top_full():
        return n, [_unit_vector(n, i) for i in range(n)]
    split = module._weight_split
    return rank(split.top_closure), split.top_basis()


def burnside_dim(module: Sl2Module) -> int:
    """Dimension of the unital matrix algebra generated by the generators.

    The module is irreducible over the complex field iff the result is dim^2:
    the rank of an exact-entry span does not change under field extension,
    and density of the image algebra characterizes irreducibility over an
    algebraically closed field (Burnside's theorem).

    An irreducible module is recognized first by `Split.cocyclic`, two
    closures of dimension dim instead of one of dimension dim^2.  Its guard,
    that the top vector spans its block, holds iff the top weight occurs
    once on the diagonal of h0, and every rank-1 tensor word passes it.  Its
    closure (a) is the one `hw_closure` makes; both closures are cut from
    x0+, x0- and hbar1.  The test runs over F_p first, on the weight spaces
    of weight >= 0 alone for a module of the builders, where closures (a)
    and (b) that fill each of them are full exactly (see the module
    docstring), and on all of them for one made by hand.  When it fails
    there, each closure that was not full mod p is made again exactly on
    every weight space, and a closure already full mod p is not.  When the
    guard or an exact closure fails, the algebra is saturated exactly, one
    column class A E_nu per h0-weight nu (`Split.algebra_rank`), and its
    rank is returned.
    """
    n = module.dim
    fast = module._mod_p_split
    if fast.cocyclic():
        return n * n
    split = module._weight_split
    if split.top_alone and (fast.top_full() or split.top_full()) and split.dual_full():
        return n * n
    return split.algebra_rank()


def word_module(factors: Iterable[tuple[int, object]]) -> Sl2Module:
    """The ordered tensor product W_{m_1}(a_1) x ... x W_{m_k}(a_k) of the
    given (m, a) pairs, tensored left to right."""
    modules = [irrep_Wm(m, a) for m, a in factors]
    if not modules:
        raise ValueError("a tensor word needs at least one factor")
    return reduce(tensor, modules)

