"""References the tests check weylcyc against.  No command, criterion or
oracle runs them, so they live beside the tests.

- The arithmetic on `CRational` and the records that no command uses:
  division, powers, the conjugate, the product of monic polynomials.
- The exact matrix algebra on `ExactMatrix`, sparse matrices of `CRational`
  entries, as free functions; test_sl2 checks it against a dense
  list-of-lists reference.
- The rank-1 modules built on `ExactMatrix`, as `sl2` built them before it
  built them on Gaussian-integer numerators, and the kron-based tensor
  product; the converters between `ExactModule` and `sl2.Sl2Module`; the
  checks of the form of `sl2.SparseMatrix` and `sl2.Sl2Module` that their
  constructors do not make; the one-block split of a hand-built module
  whose h0 is not diagonal, and the split over every weight space that
  `sl2._split` made over F_p before it kept the weights >= 0 alone.
- The cut of a generator into the pieces between weight blocks in two
  passes, as `echelon.Split` made it before the fields cut in one.
- The rank-1 Yangian: the mode ladder with its closed basis action, the
  defining-relation checker and the spectral shift.
- The local Weyl module of a root multiset, built as `factorize` builds it.
- The truncated highest-weight series p(u+d)/p(u), the Drinfeld tuple of a
  word, and words and tuples translated by a constant.
- The S-sets as the branch table the criteria read before their closed form,
  the quadratic pair loops the criteria ran before their shared scan, and
  words whose only violating pairs are planted.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import ceil, lcm
from typing import Iterable, Sequence

from weylcyc import (
    CRational,
    DrinfeldTuple,
    FundamentalFactor,
    LieType,
    MonicPoly,
    PairViolation,
    TensorWord,
    cartan_data,
    s_set,
    weyl_factorize,
    word_module,
)
from weylcyc.drinfeld import ZERO
from weylcyc.echelon import Split
from weylcyc.rootsys import require_int
from weylcyc.sl2 import Sl2Module, SparseMatrix

ONE = CRational(1)
HALF = CRational(Fraction(1, 2))


def exact(x) -> CRational:
    return x if type(x) is CRational else CRational(x)


def unit(n, i):
    v = [ZERO] * n
    v[i] = ONE
    return v


# ---------------------------------------------------------------------------
# CRational arithmetic and records that no command uses


def is_real(x: CRational) -> bool:
    return not x.im


def conjugate(x: CRational) -> CRational:
    return CRational(x.re, -x.im)


def divide(x, y) -> CRational:
    """x / y for Gaussian rationals (or anything CRational accepts)."""
    x, y = exact(x), exact(y)
    norm = y.re * y.re + y.im * y.im
    if not norm:
        raise ZeroDivisionError("division by zero CRational")
    return CRational((x.re * y.re + x.im * y.im) / norm, (x.im * y.re - x.re * y.im) / norm)


def power(x, n: int) -> CRational:
    """x ** n for n >= 0, by repeated squaring."""
    if n < 0:
        raise ValueError("negative powers not supported")
    out, base = ONE, exact(x)
    while n:
        if n & 1:
            out = out * base
        base = base * base
        n >>= 1
    return out


def poly_one() -> MonicPoly:
    """The constant polynomial 1, with no roots."""
    return MonicPoly(())


def poly_mul(p: MonicPoly, q: MonicPoly) -> MonicPoly:
    return MonicPoly(p.roots + q.roots)


def total_degree(t: DrinfeldTuple) -> int:
    return sum(p.degree for p in t.polys)


# ---------------------------------------------------------------------------
# Matrix algebra on the sparse rows of `ExactMatrix`

Row = tuple[tuple[int, CRational], ...]


@dataclass(frozen=True)
class ExactMatrix:
    """Sparse square matrix of CRational entries, validated on construction.

    Row i is the tuple of its nonzero (column, entry) pairs in increasing
    column order.  The form is canonical, so == and hashing compare values.
    """

    rows: tuple[Row, ...]

    def __post_init__(self):
        n = len(self.rows)
        if n == 0:
            raise ValueError("matrix must be square and nonempty")
        for i, row in enumerate(self.rows):
            last = -1
            for j, x in row:
                if not (last < j < n and x):
                    raise ValueError(f"row {i}: column {j} is out of order, out of range or zero")
                last = j

    @property
    def n(self) -> int:
        return len(self.rows)


def _collect(pairs: Iterable[tuple[int, CRational]]) -> Row:
    """Canonical row from (column, entry) pairs: repeated columns summed,
    zero sums dropped, columns in increasing order."""
    acc: dict[int, CRational] = {}
    for j, x in pairs:
        acc[j] = acc[j] + x if j in acc else x
    return tuple((j, x) for j, x in sorted(acc.items()) if x)


def from_rows(rows: Sequence[Sequence]) -> ExactMatrix:
    """From dense rows of entries (CRational or anything it accepts)."""
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("matrix must be square and nonempty")
    return ExactMatrix(
        tuple(tuple((j, x) for j, x in enumerate(map(exact, row)) if x) for row in rows)
    )


def zero(n: int) -> ExactMatrix:
    return ExactMatrix(((),) * n)


def identity(n: int) -> ExactMatrix:
    return ExactMatrix(tuple(((i, ONE),) for i in range(n)))


def add(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    if b.n != a.n:
        raise ValueError("dimension mismatch")
    return ExactMatrix(tuple(_collect(ra + rb) for ra, rb in zip(a.rows, b.rows)))


def neg(a: ExactMatrix) -> ExactMatrix:
    return ExactMatrix(tuple(tuple((j, -x) for j, x in row) for row in a.rows))


def sub(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    return add(a, neg(b))


def scale(a: ExactMatrix, c) -> ExactMatrix:
    c = exact(c)
    if not c:
        return zero(a.n)
    return ExactMatrix(tuple(tuple((j, c * x) for j, x in row) for row in a.rows))


def matmul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    if b.n != a.n:
        raise ValueError("dimension mismatch")
    return ExactMatrix(
        tuple(_collect((k, x * y) for j, x in row for k, y in b.rows[j]) for row in a.rows)
    )


def kron(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Kronecker product; the left factor index varies slowest."""
    nb = b.n
    return ExactMatrix(
        tuple(
            tuple((j1 * nb + j2, x * y) for j1, x in ra for j2, y in rb)
            for ra in a.rows
            for rb in b.rows
        )
    )


def apply(a: ExactMatrix, vec: Sequence[CRational]) -> list[CRational]:
    return [sum((x * vec[j] for j, x in row if vec[j]), ZERO) for row in a.rows]


def entry(a: ExactMatrix, i: int, j: int) -> CRational:
    return dict(a.rows[i]).get(j, ZERO)


def commutator(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    return sub(matmul(a, b), matmul(b, a))


def anticommutator(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    return add(matmul(a, b), matmul(b, a))


# ---------------------------------------------------------------------------
# Rank-1 modules on `ExactMatrix`, and the converters to `sl2.Sl2Module`

GENERATORS = ("xp", "xm", "h0", "hbar1")


@dataclass(frozen=True)
class ExactModule:
    """The four generators of a rank-1 module as `ExactMatrix`es, with the
    top index: the form `sl2.Sl2Module` had before it held numerators over
    a denominator."""

    xp: ExactMatrix
    xm: ExactMatrix
    h0: ExactMatrix
    hbar1: ExactMatrix
    top_index: int

    def __post_init__(self):
        n = self.xp.n
        if not (self.xm.n == self.h0.n == self.hbar1.n == n):
            raise ValueError("operator dimensions disagree")
        if not 0 <= self.top_index < n:
            raise ValueError("top index out of range")

    @property
    def dim(self) -> int:
        return self.xp.n


def exact_matrix(mat: SparseMatrix) -> ExactMatrix:
    """mat with each numerator divided by its denominator."""
    den = mat.den
    return ExactMatrix(
        tuple(
            tuple((j, CRational(Fraction(re, den), Fraction(im, den))) for j, re, im in row)
            for row in mat.rows
        )
    )


def integral_matrix(mat: ExactMatrix) -> SparseMatrix:
    """mat over the lcm of its entries' denominators, the lift the
    Gaussian-integer field made before the generators were built on
    numerators."""
    den = lcm(*(part.denominator for row in mat.rows for _, x in row for part in (x.re, x.im)))

    def lifted(part: Fraction) -> int:
        return part.numerator * (den // part.denominator)

    return SparseMatrix(
        tuple(tuple((j, lifted(x.re), lifted(x.im)) for j, x in row) for row in mat.rows), den
    )


def as_exact_module(module) -> ExactModule:
    """module itself if it is an `ExactModule`, else `exact_module(module)`."""
    return module if type(module) is ExactModule else exact_module(module)


def exact_module(module: Sl2Module) -> ExactModule:
    """The module with every generator divided by its denominator."""
    return ExactModule(*(exact_matrix(getattr(module, g)) for g in GENERATORS), module.top_index)


def integral_module(module: ExactModule) -> Sl2Module:
    """The module with every generator over the lcm of its entries'
    denominators, for the oracles."""
    return checked_module(*(integral_matrix(getattr(module, g)) for g in GENERATORS), module.top_index)


def checked_matrix(rows, den: int = 1) -> SparseMatrix:
    """`SparseMatrix(rows, den)` once rows and den are in the form the class
    describes, else ValueError naming what is not: rows a nonempty tuple of
    row tuples, each entry three ints (no bool) with its columns increasing
    in range and its numerators not both zero, and den a positive int.  The
    oracle of the form `sl2`'s builders write without checking it."""
    if type(rows) is not tuple:
        raise ValueError(f"rows must be a tuple of row tuples, got a {type(rows).__name__}")
    if not rows:
        raise ValueError("matrix must be square and nonempty")
    if type(den) is not int or den < 1:
        raise ValueError(f"denominator must be a positive int, got {den!r}")
    n = len(rows)
    for i, row in enumerate(rows):
        if type(row) is not tuple:
            raise ValueError(f"row {i} must be a tuple of entries, got a {type(row).__name__}")
        last = -1
        for entry in row:
            if type(entry) is not tuple or tuple(map(type, entry)) != (int, int, int):
                raise ValueError(f"row {i}: entry {entry!r} is not three ints")
            j, re, im = entry
            if not (last < j < n and (re or im)):
                raise ValueError(f"row {i}: column {j} is out of order, out of range or zero")
            last = j
    return SparseMatrix(rows, den)


def checked_module(xp, xm, h0, hbar1, top_index) -> Sl2Module:
    """`Sl2Module(xp, xm, h0, hbar1, top_index)` once the fields are four
    `SparseMatrix`es in the form `checked_matrix` checks, of one dimension,
    and an int top index in range, else ValueError naming what is not."""
    generators = (xp, xm, h0, hbar1)
    for name, mat in zip(GENERATORS, generators):
        if type(mat) is not SparseMatrix:
            raise ValueError(f"generator {name} must be a SparseMatrix, got a {type(mat).__name__}")
        checked_matrix(mat.rows, mat.den)
    if len({mat.n for mat in generators}) != 1:
        raise ValueError("operator dimensions disagree")
    require_int(top_index, "top index")
    if not 0 <= top_index < xp.n:
        raise ValueError("top index out of range")
    return Sl2Module(*generators, top_index)


def one_block_split(module: Sl2Module, field) -> Split:
    """The four generators split by the field into one block, with the top
    index: the split of a module whose h0 is not diagonal, as `sl2._split`
    made it before it read the weight spaces off the diagonal h0 that every
    tensor word has.  Hand-built modules with a non-diagonal h0 go through
    it."""
    generators = tuple(getattr(module, g) for g in GENERATORS)
    return Split(field, generators, [list(range(module.dim))], module.top_index)


def full_split(module: Sl2Module, field) -> Split:
    """x0+, x0- and hbar1 split by the field between every weight space of
    h0, with the top index: `sl2._split` as it split over `ModP` before it
    kept the weight spaces of weight >= 0 alone, and as it still splits over
    `GaussianInt`.  The full-sweep oracle of the F_p certificate."""
    groups = {}
    for i, row in enumerate(module.h0.rows):
        groups.setdefault(row[0][1:] if row else (0, 0), []).append(i)
    return Split(field, (module.xp, module.xm, module.hbar1), list(groups.values()), module.top_index)


def gaussian_operator(mat: SparseMatrix) -> tuple[list[tuple[int, int, int]], list[tuple[int, int, int]]]:
    """The numerators of mat as the nonzero (row, column, value) entries of
    its real and of its imaginary part, as `echelon.GaussianInt` read a
    generator before it cut one in a single pass."""
    re_op, im_op = [], []
    for i, row in enumerate(mat.rows):
        for j, re, im in row:
            if re:
                re_op.append((i, j, re))
            if im:
                im_op.append((i, j, im))
    return re_op, im_op


def reference_cut(operator, mat: SparseMatrix, where) -> list[tuple[int, int, tuple]]:
    """The pieces (source block, target block, op) of mat as `echelon.Split`
    cut them in two passes: the field's operator(mat), a tuple of parts of
    (row, column, value) entries, then each part regrouped by the blocks of
    its rows and columns, where where[i] is the (block, local index) of basis
    index i.  An entry whose row or column is in no block, not in where, is
    dropped.  The oracle of the fields' one-pass `cut`."""
    op = operator(mat)
    cut: dict[tuple[int, int], tuple] = {}
    for p, part in enumerate(op):
        for i, j, x in part:
            if i not in where or j not in where:
                continue
            target, li = where[i]
            source, lj = where[j]
            piece = cut.get((source, target))
            if piece is None:
                piece = cut[source, target] = tuple([] for _ in op)
            piece[p].append((li, lj, x))
    return [(source, target, piece) for (source, target), piece in cut.items()]


def _diagonal(values: Iterable[CRational]) -> ExactMatrix:
    return ExactMatrix(tuple(((s, x),) if x else () for s, x in enumerate(values)))


def exact_irrep_Wm(m: int, a) -> ExactModule:
    """`irrep_Wm` as it was built on CRational entries."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    a = exact(a)
    weights = range(-m, m + 1, 2)  # h0 w_s = (2s-m) w_s
    return ExactModule(
        xp=ExactMatrix(((),) + tuple(((s, CRational(s + 1)),) for s in range(m))),
        xm=ExactMatrix(tuple(((s + 1, CRational(m - s)),) for s in range(m)) + ((),)),
        h0=_diagonal(map(CRational, weights)),
        hbar1=_diagonal(
            CRational(w * a.re + Fraction(2 * s * (3 * s - 2 * m - 1) - w * w, 2), w * a.im)
            for s, w in enumerate(weights)
        ),
        top_index=m,
    )


def _minus_twice(x: CRational, y: CRational) -> CRational:
    """-2 x y, with a single Fraction product when x and y are real, as the
    entries of x0^± are."""
    if x.im or y.im:
        return x * y * -2
    return CRational(-2 * (x.re * y.re), x.im)


def exact_coproduct(
    a: ExactMatrix, b: ExactMatrix, cross: tuple[ExactMatrix, ExactMatrix] | None = None
) -> ExactMatrix:
    """a x 1 + 1 x b, less 2 c x d when cross = (c, d), built row by row on
    CRational entries, as `sl2.tensor` built each generator."""
    nb = b.n
    rows = []
    for i1, ra in enumerate(a.rows):
        base = i1 * nb
        for i2, rb in enumerate(b.rows):
            pairs = [(j1 * nb + i2, x) for j1, x in ra]
            pairs += [(base + j2, y) for j2, y in rb]
            if cross is not None:
                pairs += [
                    (j1 * nb + j2, _minus_twice(x, y))
                    for j1, x in cross[0].rows[i1]
                    for j2, y in cross[1].rows[i2]
                ]
            rows.append(_collect(pairs))
    return ExactMatrix(tuple(rows))


def exact_tensor(m1: ExactModule, m2: ExactModule) -> ExactModule:
    """`sl2.tensor` as it was built on CRational entries, one pass per
    generator."""
    return ExactModule(
        xp=exact_coproduct(m1.xp, m2.xp),
        xm=exact_coproduct(m1.xm, m2.xm),
        h0=exact_coproduct(m1.h0, m2.h0),
        hbar1=exact_coproduct(m1.hbar1, m2.hbar1, (m1.xm, m2.xp)),
        top_index=m1.top_index * m2.dim + m2.top_index,
    )


def exact_word_module(factors: Iterable[tuple[int, object]]) -> ExactModule:
    """`sl2.word_module` on CRational entries."""
    return reduce(exact_tensor, [exact_irrep_Wm(m, a) for m, a in factors])


def reference_tensor(m1, m2) -> ExactModule:
    """The coproduct from Kronecker products and identity matrices, with the
    sums, difference and scaling above, as `tensor` built it before it built
    each generator in one pass."""
    m1, m2 = as_exact_module(m1), as_exact_module(m2)
    i1, i2 = identity(m1.dim), identity(m2.dim)
    return ExactModule(
        xp=add(kron(m1.xp, i2), kron(i1, m2.xp)),
        xm=add(kron(m1.xm, i2), kron(i1, m2.xm)),
        h0=add(kron(m1.h0, i2), kron(i1, m2.h0)),
        hbar1=sub(add(kron(m1.hbar1, i2), kron(i1, m2.hbar1)), scale(kron(m1.xm, m2.xp), 2)),
        top_index=m1.top_index * m2.dim + m2.top_index,
    )


# ---------------------------------------------------------------------------
# Rank-1 Yangian modes and relations


@dataclass(frozen=True)
class ModeOperators:
    """Matrices for the modes x_k^± and h_k, 0 <= k <= cutoff."""

    xp: tuple[ExactMatrix, ...]
    xm: tuple[ExactMatrix, ...]
    h: tuple[ExactMatrix, ...]


def mode_operators(module, cutoff: int) -> ModeOperators:
    """Build all modes up to the cutoff from the generator matrices of an
    `ExactModule` or an `Sl2Module`.

    x_{k+1}^± = ±(1/2)(hbar1 x_k^± - x_k^± hbar1), h_k = x_k^+ x0^- - x0^- x_k^+.
    """
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    module = as_exact_module(module)
    xp = [module.xp]
    xm = [module.xm]
    for _ in range(cutoff):
        xp.append(scale(commutator(module.hbar1, xp[-1]), HALF))
        xm.append(scale(commutator(module.hbar1, xm[-1]), -HALF))
    h = [commutator(x, module.xm) for x in xp]
    return ModeOperators(tuple(xp), tuple(xm), tuple(h))


def expected_modes(m, a, k):
    """Closed-formula matrices for the modes on the (m+1)-dim irreducible."""
    n = m + 1
    xp = [[ZERO] * n for _ in range(n)]
    xm = [[ZERO] * n for _ in range(n)]
    h = [[ZERO] * n for _ in range(n)]
    for s in range(n):
        if s + 1 < n:
            xp[s + 1][s] = power(a + s, k) * CRational(s + 1)
        if s - 1 >= 0:
            xm[s - 1][s] = power(a + (s - 1), k) * CRational(m - s + 1)
        h[s][s] = power(a + (s - 1), k) * CRational(s * (m - s + 1)) - power(
            a + s, k
        ) * CRational((s + 1) * (m - s))
    return from_rows(xp), from_rows(xm), from_rows(h)


def check_relations(module, cutoff: int) -> list[str]:
    """Evaluate the defining relations on all modes up to the cutoff, on an
    `ExactModule` or an `Sl2Module`.

    Returns descriptions of every violated matrix identity (empty for a
    genuine module).  h-modes are derived up to 2*cutoff so that
    [x_r^+, x_s^-] = h_{r+s} can be checked for all r, s <= cutoff, and the
    generator matrices themselves are checked for consistency against the
    derived h_0 and h_1.
    """
    k = cutoff
    module = as_exact_module(module)
    modes = mode_operators(module, 2 * k)
    xp, xm, h = modes.xp, modes.xm, modes.h
    null = zero(module.dim)
    bad: list[str] = []

    if h[0] != module.h0:
        bad.append("[x0+, x0-] != h0")
    if len(h) > 1:
        if h[1] != add(module.hbar1, scale(matmul(module.h0, module.h0), HALF)):
            bad.append("[x1+, x0-] != hbar1 + h0^2/2")

    for r in range(2 * k + 1):
        for s in range(r + 1, 2 * k + 1):
            if commutator(h[r], h[s]) != null:
                bad.append(f"[h{r}, h{s}] != 0")

    for s in range(k + 1):
        if commutator(module.h0, xp[s]) != scale(xp[s], 2):
            bad.append(f"[h0, x{s}+] != 2 x{s}+")
        if commutator(module.h0, xm[s]) != scale(xm[s], -2):
            bad.append(f"[h0, x{s}-] != -2 x{s}-")

    for r in range(k + 1):
        for s in range(k + 1):
            if commutator(xp[r], xm[s]) != h[r + s]:
                bad.append(f"[x{r}+, x{s}-] != h{r + s}")

    for r in range(2 * k):
        for s in range(k):
            for x, sign, tag in ((xp, 1, "+"), (xm, -1, "-")):
                lhs = sub(commutator(h[r + 1], x[s]), commutator(h[r], x[s + 1]))
                rhs = scale(anticommutator(h[r], x[s]), sign)
                if lhs != rhs:
                    bad.append(f"[h{r + 1}, x{s}{tag}] - [h{r}, x{s + 1}{tag}] mismatch")

    for r in range(k):
        for s in range(k):
            for x, sign, tag in ((xp, 1, "+"), (xm, -1, "-")):
                lhs = sub(commutator(x[r + 1], x[s]), commutator(x[r], x[s + 1]))
                rhs = scale(anticommutator(x[r], x[s]), sign)
                if lhs != rhs:
                    bad.append(f"[x{r + 1}{tag}, x{s}{tag}] - [x{r}{tag}, x{s + 1}{tag}] mismatch")

    return bad


def apply_shift(module: Sl2Module, c) -> Sl2Module:
    """Pull back through the spectral-shift automorphism by c.

    On the generating set the shift fixes x0^±, h0 and sends hbar1 to
    hbar1 + c * h0; the sum is taken on CRational entries and lifted.
    """
    exact_form = exact_module(module)
    return integral_module(
        dataclasses.replace(exact_form, hbar1=add(exact_form.hbar1, scale(exact_form.h0, c)))
    )


def local_weyl(roots: Iterable) -> Sl2Module:
    """Rank-1 local Weyl module of the root multiset, built as `factorize`
    builds it: W_1 factors tensored in the order of `weyl_factorize`."""
    t = DrinfeldTuple(LieType("A", 1), (MonicPoly.from_roots(roots),))
    return word_module((1, f.param) for f in weyl_factorize(t).factors)


# ---------------------------------------------------------------------------
# Highest-weight series, tuples of words and spectral shifts


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
        a_k = ONE
        for _ in range(order):
            factor.append(dd * a_k)
            a_k = a_k * a
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
    """Translate every root of every component by c, i.e. p(u) -> p(u - c)."""
    return DrinfeldTuple(t.type, tuple(MonicPoly(tuple(a + c for a in p.roots)) for p in t.polys))


def shift_word(w: TensorWord, c: CRational) -> TensorWord:
    """Translate every spectral parameter by c."""
    return TensorWord(
        w.type, tuple(FundamentalFactor(f.node, f.param + c) for f in w.factors)
    )


# ---------------------------------------------------------------------------
# The pairwise criteria: unoptimized references and planted words


def s_set_table(lt: LieType, bm: int, bn: int) -> frozenset[Fraction]:
    """S(b_m, b_n) from the branch table the criteria read before the closed
    form of `criteria._progressions`."""
    l = lt.rank
    family = lt.family
    vals: set[Fraction] = set()
    if family == "A":
        # Symmetric in (bm, bn); the bound is min over the pair and its dual.
        k_max = min(bm, bn, l - bm + 1, l - bn + 1)
        half_gap = Fraction(abs(bn - bm), 2)
        vals = {half_gap + k for k in range(1, k_max + 1)}
    elif family == "B":
        if bm < l and bn < l:
            for r in range(min(bm, bn)):
                vals.add(Fraction(abs(bm - bn) + 2 + 2 * r))
                vals.add(Fraction(2 * l - (bm + bn) + 1 + 2 * r))
        elif bm == l and bn < l:
            vals = {Fraction(l - bn + 2 + 2 * r) for r in range(bn)}
        elif bm < l and bn == l:
            for r in range(bm):
                vals.add(Fraction(l - bm + 1 + r))
                vals.add(Fraction(l - bm + r))
        else:
            vals = {Fraction(2 * k + 1) for k in range(l)}
    elif family == "C":
        if bm < l and bn < l:
            for r in range(min(bm, bn)):
                vals.add(Fraction(abs(bm - bn), 2) + 1 + r)
                vals.add(Fraction(l + 2 + r) - Fraction(bm + bn, 2))
        elif bm == l and bn < l:
            for r in range(bn):
                vals.add(Fraction(l - bn + 1, 2) + 1 + r)
                vals.add(Fraction(l - bn - 1, 2) + 1 + r)
        elif bm < l and bn == l:
            vals = {Fraction(l - bm + 1, 2) + 2 + r for r in range(bm)}
        else:
            vals = {Fraction(k) for k in range(2, l + 2)}
    else:  # D
        spin = (l - 1, l)
        lbar = 0 if l % 2 == 0 else 1
        bm_spin, bn_spin = bm in spin, bn in spin
        if not bm_spin and not bn_spin:
            for r in range(min(bm, bn)):
                vals.add(Fraction(abs(bm - bn), 2) + 1 + r)
                vals.add(Fraction(l + r) - Fraction(bm + bn, 2))
        elif bm_spin != bn_spin:
            # Same set whichever spin node is involved and in either order.
            b = bn if bm_spin else bm
            vals = {Fraction(l - 1 - b, 2) + 1 + r for r in range(b)}
        elif bm != bn:
            vals = {Fraction(k) for k in range(2, l - 2 + lbar + 1, 2)}
        else:
            vals = {Fraction(k) for k in range(1, l - 1 - lbar + 1, 2)}
    return frozenset(vals)


def reference_irreducible_violations(w: TensorWord) -> tuple[PairViolation, ...]:
    """The loop over all ordered pairs is_irreducible ran before the shared
    scan.  The S-set of each node pair is built once per call (`s_set`
    keeps no cache)."""
    data = cartan_data(w.type)
    s_sets: dict[tuple[int, int], frozenset[Fraction]] = {}
    violations = []
    factors = w.factors
    for i in range(len(factors)):
        for j in range(len(factors)):
            if i == j:
                continue
            diff = factors[j].param - factors[i].param
            if is_real(diff) and diff.re > 0:  # every S-set member is positive (SSet)
                nodes = factors[i].node, factors[j].node
                if nodes not in s_sets:
                    s_sets[nodes] = s_set(data, *nodes).values
                if diff.re in s_sets[nodes]:
                    violations.append(PairViolation(i + 1, j + 1, diff, diff.re))
    return tuple(violations)


def reference_cyclic_violations(w: TensorWord) -> tuple[PairViolation, ...]:
    """The pairs m < n of the loop above, in the same (m, n) order: the
    quadratic loop is_cyclic ran before the shared scan."""
    return tuple(v for v in reference_irreducible_violations(w) if v.m < v.n)


def planted_word(rng, lt, length, n_fwd, n_bwd, n_complex):
    """A word whose only violating pairs are the planted ones, built as the
    benchmark builds its pairwise_scan words.

    Real parts sit on a grid spaced wider than twice the largest S-set
    member, so no two grid points differ by a member and a point moved by a
    member stays clear of every other.  A forward pair sets a_n = a_m + s
    with s in S(b_m, b_n); a backward pair sets a_m = a_n + s with s in
    S(b_n, b_m), seen only at (n, m).  Non-real parameters have distinct
    imaginary parts.  Returns the word and the planted (m, n, member)
    triples, forward and backward.
    """
    data = cartan_data(lt)
    l = lt.rank
    top = max(max(s_set(data, i, j).values) for i in range(1, l + 1) for j in range(1, l + 1))
    spacing = 2 * ceil(top) + 1
    nodes = [rng.randint(1, l) for _ in range(length)]
    offset = Fraction(rng.randint(-40, 40), rng.choice((1, 2, 3)))
    re_parts = [spacing * s + offset for s in rng.sample(range(length), length)]
    im_parts = [Fraction(0)] * length
    positions = rng.sample(range(length), length)
    for p, k in zip(positions[:n_complex], rng.sample(range(1, 40), n_complex)):
        im_parts[p] = Fraction(rng.choice((-1, 1)) * k, 2)
    free = positions[n_complex:]
    fwd, bwd = [], []
    for i in range(n_fwd + n_bwd):
        m, n = sorted(free[2 * i : 2 * i + 2])
        if i < n_fwd:
            s = rng.choice(sorted(s_set(data, nodes[m], nodes[n]).values))
            re_parts[n] = re_parts[m] + s
            fwd.append((m + 1, n + 1, s))
        else:
            s = rng.choice(sorted(s_set(data, nodes[n], nodes[m]).values))
            re_parts[m] = re_parts[n] + s
            bwd.append((n + 1, m + 1, s))
    factors = tuple(
        FundamentalFactor(b, CRational(x, y)) for b, x, y in zip(nodes, re_parts, im_parts)
    )
    return TensorWord(lt, factors), sorted(fwd), sorted(bwd)
