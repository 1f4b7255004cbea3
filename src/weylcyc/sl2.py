"""Concrete rank-1 Yangian modules as exact sparse matrices.

A module is carried entirely by four generator matrices: the raising and
lowering modes x0+, x0-, the grading h0, and hbar1 = h1 - h0^2/2.  Every
higher mode is an iterated hbar1-bracket of them,
x_{k+1}^± = ±(1/2)[hbar1, x_k^±] and h_k = [x_k^+, x0^-], so they span the
same submodules and generate the same algebra as all modes.  The coproduct
is explicit on this generating set, so tensor products are exact.

Each generator is a `SparseMatrix`: Gaussian-integer numerators over one
positive int denominator.  Modules are built on those ints, with no
Fraction or CRational arithmetic; the oracles read the numerators.

Two linear-algebra oracles decide structure: `hw_closure` computes the
submodule generated by the top vector, and `burnside_dim` the dimension of
the generated matrix algebra (full iff the module is irreducible over the
complex field).  Both run in `echelon.Split`, which this module hands the
generators, the weight spaces of h0 as blocks and the top index, once per
module: its closures and algebra rank are graded by weight, and run
fraction-free elimination on Gaussian integers.
"""

from __future__ import annotations

from functools import cached_property, reduce
from math import gcd, lcm
from typing import Iterable

from .drinfeld import CRational
from .echelon import GaussianInt, Split, rank
from .rootsys import Record, _set, require_int


Row = tuple[tuple[int, int, int], ...]


class SparseMatrix(Record):
    """Sparse square matrix of Gaussian rationals over one common
    denominator, validated and reduced on construction.

    Row i is the tuple of its nonzero (column, re, im) entries in increasing
    column order, and entry (i, j) is (re + im i) / den.  The columns and
    numerators are ints and den is a positive int.  Construction divides the
    numerators and den by their common factor, so the form is canonical and
    == and hashing compare values.  The library builds matrices row by row
    and the oracles read the numerators; it does no matrix arithmetic.
    """

    __slots__ = ("rows", "den")

    def __init__(self, rows: tuple[Row, ...], den: int = 1):
        _set(self, "rows", rows)
        _set(self, "den", den)
        self._check()

    def _check(self):
        n, den = len(self.rows), self.den
        if n == 0:
            raise ValueError("matrix must be square and nonempty")
        if type(den) is not int or den < 1:
            raise ValueError(f"denominator must be a positive int, got {den!r}")
        content = den
        for i, row in enumerate(self.rows):
            last = -1
            for j, re, im in row:
                if type(j) is not int or type(re) is not int or type(im) is not int:
                    raise ValueError(f"row {i}: entry {(j, re, im)!r} is not three ints")
                if not (last < j < n and (re or im)):
                    raise ValueError(f"row {i}: column {j} is out of order, out of range or zero")
                last = j
                if content != 1:
                    content = gcd(content, re, im)
        if content != 1:
            rows = tuple(
                tuple((j, re // content, im // content) for j, re, im in row) for row in self.rows
            )
            _set(self, "rows", rows)
            _set(self, "den", den // content)

    @property
    def n(self) -> int:
        return len(self.rows)


class Sl2Module(Record):
    """Finite-dimensional module given by the four generator matrices.

    top_index points at the designated highest-weight candidate in the basis;
    for irreducibles it is the genuine top vector, for tensor products it is
    the product of the factors' tops.

    The module is immutable, so its `Split` over `GaussianInt` (the
    generators' numerators cut between weight spaces, and the closure of the
    top vector) is made at most once per module and kept in its `__dict__`,
    not a field: ==, hash, repr and pickling see the generators and top_index.
    """

    __slots__ = ("xp", "xm", "h0", "hbar1", "top_index", "__dict__")
    xp: SparseMatrix
    xm: SparseMatrix
    h0: SparseMatrix
    hbar1: SparseMatrix
    top_index: int

    @property
    def dim(self) -> int:
        return self.xp.n

    def _check(self):
        n = self.xp.n
        if not (self.xm.n == self.h0.n == self.hbar1.n == n):
            raise ValueError("operator dimensions disagree")
        require_int(self.top_index, "top index")
        if not 0 <= self.top_index < n:
            raise ValueError("top index out of range")

    @cached_property
    def _weight_split(self) -> Split:
        return _split(self, GaussianInt)


def _diagonal(values: Iterable[tuple[int, int]], den: int = 1) -> SparseMatrix:
    """The diagonal matrix of the (re, im) numerators over den."""
    rows = tuple(((s, re, im),) if re or im else () for s, (re, im) in enumerate(values))
    return SparseMatrix(rows, den)


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
    return Sl2Module(  # by position: a keyword call costs each build about 1 us
        # x0+ w_s = (s+1) w_{s+1} and x0- w_{s+1} = (m-s) w_s
        SparseMatrix(((),) + tuple(((s, s + 1, 0),) for s in range(m))),
        SparseMatrix(tuple(((s + 1, m - s, 0),) for s in range(m)) + ((),)),
        _diagonal((w, 0) for w in weights),  # h0
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


def _summed(entries: list[tuple[int, int, int]]) -> Row:
    """Canonical row from nonzero (column, re, im) entries: repeated columns
    summed, zero sums dropped, columns in increasing order."""
    if len(entries) < 2:
        return tuple(entries)
    entries.sort()
    if len({entry[0] for entry in entries}) == len(entries):
        return tuple(entries)
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


def _scaled(rows, by: int, nb: int = 1) -> list[list[tuple[int, int, int]]]:
    """rows with each column times nb and each numerator times by."""
    return [[(j * nb, by * re, by * im) for j, re, im in row] for row in rows]


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
        rows_c = _scaled(c.rows, -2 * (den // (c.den * d.den)), nb)
    rows_a = _scaled(a.rows, den // a.den, nb)
    rows_b = _scaled(b.rows, den // b.den)
    rows = []
    for i1, ra in enumerate(rows_a):
        base = i1 * nb
        rc = rows_c[i1] if cross else ()
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
    hbar1 of a product adds the hbar1 of its factors.
    """
    return Sl2Module(
        _coproduct(m1.xp, m2.xp),
        _coproduct(m1.xm, m2.xm),
        _coproduct(m1.h0, m2.h0),
        _coproduct(m1.hbar1, m2.hbar1, (m1.xm, m2.xp)),
        m1.top_index * m2.dim + m2.top_index,
    )


def _split(module: Sl2Module, field) -> Split:
    """The generators split by the field between the weight spaces of h0,
    blocks in order of first appearance, with the top index.

    When h0 is diagonal each projection E_nu onto a weight space is a
    polynomial in h0, so the algebra the generators span holds the E_nu and
    is the one `Split` sees; h0 itself is left out, since it acts on each
    block as a multiple of the identity.  When h0 is not diagonal there is
    one block and all four generators."""
    top, groups = module.top_index, {}
    for i, row in enumerate(module.h0.rows):
        if len(row) > 1 or (row and row[0][0] != i):
            generators = (module.xp, module.xm, module.h0, module.hbar1)
            return Split(field, generators, [list(range(module.dim))], top)
        groups.setdefault(row[0][1:] if row else (0, 0), []).append(i)
    return Split(field, (module.xp, module.xm, module.hbar1), list(groups.values()), top)


def hw_closure(module: Sl2Module) -> tuple[int, list[list[CRational]]]:
    """Smallest subspace containing the top vector and invariant under the
    four generators, by iterated application and fraction-free row reduction
    over the Gaussian integers to a fixpoint (`Split.top_closure`).

    Returns the dimension and the echelon basis, each vector with lead entry
    1 (`Split.top_basis`).  The module is generated by its top vector iff
    the dimension equals the module dimension; the four generators suffice
    because every higher mode is an iterated hbar1-bracket of them.  When h0
    is diagonal the closure is h0-invariant, hence the sum of its
    intersections with the weight spaces, and it is saturated weight space
    by weight space; every vector it makes is a weight vector.  The closure
    is made once per module and shared with `burnside_dim`.
    """
    split = module._weight_split
    return rank(split.top_closure), split.top_basis()


def burnside_dim(module: Sl2Module) -> int:
    """Dimension of the unital matrix algebra generated by the four operators.

    The module is irreducible over the complex field iff the result is dim^2:
    the rank of an exact-entry span does not change under field extension,
    and density of the image algebra characterizes irreducibility over an
    algebraically closed field (Burnside's theorem).

    An irreducible module is recognized first by `Split.cocyclic`, two
    closures of dimension dim instead of one of dimension dim^2.  Its guard,
    that the top vector spans its block, holds iff h0 is diagonal and the top
    weight occurs once on its diagonal (a non-diagonal h0 gives one block of
    size dim > 1), and every rank-1 tensor word passes it.  Its closure (a)
    is the one `hw_closure` makes.  When the guard or either closure fails,
    the algebra is saturated exactly, one column class A E_nu per h0-weight
    nu (`Split.algebra_rank`), and its rank is returned.
    """
    split = module._weight_split
    return module.dim * module.dim if split.cocyclic() else split.algebra_rank()


def word_module(factors: Iterable[tuple[int, object]]) -> Sl2Module:
    """The ordered tensor product W_{m_1}(a_1) x ... x W_{m_k}(a_k) of the
    given (m, a) pairs, tensored left to right."""
    modules = [irrep_Wm(m, a) for m, a in factors]
    if not modules:
        raise ValueError("a tensor word needs at least one factor")
    return reduce(tensor, modules)

