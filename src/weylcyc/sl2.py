"""Concrete rank-1 Yangian modules as exact matrices.

A module is carried entirely by four generator matrices: the raising and
lowering modes x0+, x0-, the grading h0, and hbar1 = h1 - h0^2/2.  All higher
modes follow from the ladder x_{k+1}^± = ±(1/2)[hbar1, x_k^±] and
h_k = [x_k^+, x0^-], and the coproduct is fully explicit on this generating
set, so tensor products are exact.

Two linear-algebra oracles decide structure by one fixpoint saturation with
row reduction: `hw_closure` computes the submodule generated by the top
vector, exactly, and `burnside_dim` computes the dimension of the generated
matrix algebra (full iff the module is irreducible over the complex field),
certified modulo a prime when it is full and exactly otherwise.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .drinfeld import ONE, ZERO, CRational


@dataclass(frozen=True)
class ExactMatrix:
    """Dense square matrix of CRational entries; rows of columns."""

    rows: tuple[tuple[CRational, ...], ...]

    def __post_init__(self):
        n = len(self.rows)
        if n == 0 or any(len(r) != n for r in self.rows):
            raise ValueError("matrix must be square and nonempty")

    @property
    def n(self) -> int:
        return len(self.rows)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "ExactMatrix":
        return cls(
            tuple(
                tuple(x if type(x) is CRational else CRational(x) for x in row)
                for row in rows
            )
        )

    @classmethod
    def zero(cls, n: int) -> "ExactMatrix":
        return cls(tuple(tuple(ZERO for _ in range(n)) for _ in range(n)))

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls(
            tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))
        )

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        return ExactMatrix(
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            )
        )

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return ExactMatrix(
            tuple(
                tuple(a - b for a, b in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            )
        )

    def __neg__(self) -> "ExactMatrix":
        return ExactMatrix(tuple(tuple(-a for a in row) for row in self.rows))

    def scale(self, c) -> "ExactMatrix":
        c = c if type(c) is CRational else CRational(c)
        return ExactMatrix(tuple(tuple(c * a for a in row) for row in self.rows))

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        n = self.n
        if other.n != n:
            raise ValueError("dimension mismatch")
        cols = list(zip(*other.rows))
        out = []
        for row in self.rows:
            nz = [(k, a) for k, a in enumerate(row) if a]
            out.append(
                tuple(
                    sum((a * col[k] for k, a in nz if col[k]), ZERO) for col in cols
                )
            )
        return ExactMatrix(tuple(out))

    def apply(self, vec: Sequence[CRational]) -> list[CRational]:
        return [
            sum((a * vec[j] for j, a in enumerate(row) if a and vec[j]), ZERO)
            for row in self.rows
        ]

    def entry(self, i: int, j: int) -> CRational:
        return self.rows[i][j]


def kron(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Kronecker product; the left factor index varies slowest."""
    na, nb = a.n, b.n
    rows = []
    for i1 in range(na):
        for i2 in range(nb):
            row = []
            for j1 in range(na):
                x = a.rows[i1][j1]
                if x:
                    row.extend(x * y if y else ZERO for y in b.rows[i2])
                else:
                    row.extend([ZERO] * nb)
            rows.append(tuple(row))
    return ExactMatrix(tuple(rows))


def commutator(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    return a @ b - b @ a


@dataclass(frozen=True)
class Sl2Module:
    """Finite-dimensional module given by the four generator matrices.

    top_index points at the designated highest-weight candidate in the basis;
    for irreducibles it is the genuine top vector, for tensor products it is
    the product of the factors' tops.
    """

    xp: ExactMatrix
    xm: ExactMatrix
    h0: ExactMatrix
    hbar1: ExactMatrix
    basis_labels: tuple[str, ...]
    top_index: int

    @property
    def dim(self) -> int:
        return self.xp.n

    def __post_init__(self):
        n = self.xp.n
        if not (self.xm.n == self.h0.n == self.hbar1.n == n):
            raise ValueError("operator dimensions disagree")
        if len(self.basis_labels) != n:
            raise ValueError("basis labels must match the dimension")
        if not 0 <= self.top_index < n:
            raise ValueError("top index out of range")


@dataclass(frozen=True)
class ModeOperators:
    """Matrices for the modes x_k^± and h_k, 0 <= k <= cutoff."""

    xp: tuple[ExactMatrix, ...]
    xm: tuple[ExactMatrix, ...]
    h: tuple[ExactMatrix, ...]

    @property
    def cutoff(self) -> int:
        return len(self.h) - 1


def irrep_Wm(m: int, a) -> Sl2Module:
    """The (m+1)-dimensional irreducible with root string a, a+1, ..., a+m-1.

    On the basis w_0..w_m the modes act by
        x_k^+ w_s = (s+a)^k (s+1) w_{s+1},
        x_k^- w_s = (s+a-1)^k (m-s+1) w_{s-1},
        h_k  w_s = ((s+a-1)^k s (m-s+1) - (s+a)^k (s+1)(m-s)) w_s,
    and the stored generators are the k=0 modes together with
    hbar1 = h_1 - h_0^2/2.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    a = a if type(a) is CRational else CRational(a)
    n = m + 1
    xp = [[ZERO] * n for _ in range(n)]
    xm = [[ZERO] * n for _ in range(n)]
    h0 = [[ZERO] * n for _ in range(n)]
    hbar1 = [[ZERO] * n for _ in range(n)]
    for s in range(n):
        if s + 1 < n:
            xp[s + 1][s] = CRational(s + 1)
        if s - 1 >= 0:
            xm[s - 1][s] = CRational(m - s + 1)
        h0[s][s] = CRational(2 * s - m)
        h1_val = (a + (s - 1)) * CRational(s * (m - s + 1)) - (a + s) * CRational(
            (s + 1) * (m - s)
        )
        hbar1[s][s] = h1_val - CRational(Fraction((2 * s - m) ** 2, 2))
    return Sl2Module(
        xp=ExactMatrix.from_rows(xp),
        xm=ExactMatrix.from_rows(xm),
        h0=ExactMatrix.from_rows(h0),
        hbar1=ExactMatrix.from_rows(hbar1),
        basis_labels=tuple(f"w{s}" for s in range(n)),
        top_index=m,
    )


def tensor(m1: Sl2Module, m2: Sl2Module) -> Sl2Module:
    """Tensor product through the explicit coproduct on the generating set.

    x0^±, h0 act as op x 1 + 1 x op; hbar1 picks up the correction
    -2 x0^- x x0^+.  The combined basis orders the left index slowest, and the
    top is the product of tops.
    """
    i1, i2 = ExactMatrix.identity(m1.dim), ExactMatrix.identity(m2.dim)
    return Sl2Module(
        xp=kron(m1.xp, i2) + kron(i1, m2.xp),
        xm=kron(m1.xm, i2) + kron(i1, m2.xm),
        h0=kron(m1.h0, i2) + kron(i1, m2.h0),
        hbar1=kron(m1.hbar1, i2)
        + kron(i1, m2.hbar1)
        - kron(m1.xm, m2.xp).scale(2),
        basis_labels=tuple(
            f"{a}(x){b}" for a in m1.basis_labels for b in m2.basis_labels
        ),
        top_index=m1.top_index * m2.dim + m2.top_index,
    )


def mode_operators(module: Sl2Module, cutoff: int) -> ModeOperators:
    """Build all modes up to the cutoff from the generator matrices.

    x_{k+1}^± = ±(1/2)(hbar1 x_k^± - x_k^± hbar1), h_k = x_k^+ x0^- - x0^- x_k^+.
    """
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    half = CRational(Fraction(1, 2))
    xp = [module.xp]
    xm = [module.xm]
    for _ in range(cutoff):
        xp.append(commutator(module.hbar1, xp[-1]).scale(half))
        xm.append(commutator(module.hbar1, xm[-1]).scale(-half))
    h = [commutator(x, module.xm) for x in xp]
    return ModeOperators(tuple(xp), tuple(xm), tuple(h))


def check_relations(module: Sl2Module, cutoff: int) -> list[str]:
    """Evaluate the defining relations on all modes up to the cutoff.

    Returns descriptions of every violated matrix identity (empty for a
    genuine module).  h-modes are derived up to 2*cutoff so that
    [x_r^+, x_s^-] = h_{r+s} can be checked for all r, s <= cutoff, and the
    generator matrices themselves are checked for consistency against the
    derived h_0 and h_1.
    """
    k = cutoff
    modes = mode_operators(module, 2 * k)
    xp, xm, h = modes.xp, modes.xm, modes.h
    zero = ExactMatrix.zero(module.dim)
    bad: list[str] = []

    if h[0] != module.h0:
        bad.append("[x0+, x0-] != h0")
    if len(h) > 1:
        half = CRational(Fraction(1, 2))
        if h[1] != module.hbar1 + (module.h0 @ module.h0).scale(half):
            bad.append("[x1+, x0-] != hbar1 + h0^2/2")

    for r in range(2 * k + 1):
        for s in range(r + 1, 2 * k + 1):
            if commutator(h[r], h[s]) != zero:
                bad.append(f"[h{r}, h{s}] != 0")

    for s in range(k + 1):
        if commutator(module.h0, xp[s]) != xp[s].scale(2):
            bad.append(f"[h0, x{s}+] != 2 x{s}+")
        if commutator(module.h0, xm[s]) != xm[s].scale(-2):
            bad.append(f"[h0, x{s}-] != -2 x{s}-")

    for r in range(k + 1):
        for s in range(k + 1):
            if commutator(xp[r], xm[s]) != h[r + s]:
                bad.append(f"[x{r}+, x{s}-] != h{r + s}")

    for r in range(2 * k):
        for s in range(k):
            for x, sign, tag in ((xp, 1, "+"), (xm, -1, "-")):
                lhs = commutator(h[r + 1], x[s]) - commutator(h[r], x[s + 1])
                rhs = (h[r] @ x[s] + x[s] @ h[r]).scale(sign)
                if lhs != rhs:
                    bad.append(f"[h{r + 1}, x{s}{tag}] - [h{r}, x{s + 1}{tag}] mismatch")

    for r in range(k):
        for s in range(k):
            for x, sign, tag in ((xp, 1, "+"), (xm, -1, "-")):
                lhs = commutator(x[r + 1], x[s]) - commutator(x[r], x[s + 1])
                rhs = (x[r] @ x[s] + x[s] @ x[r]).scale(sign)
                if lhs != rhs:
                    bad.append(f"[x{r + 1}{tag}, x{s}{tag}] - [x{r}{tag}, x{s + 1}{tag}] mismatch")

    return bad


class _Exact:
    """Field arithmetic on CRational entries as they are."""

    zero, one = ZERO, ONE

    @staticmethod
    def lift(x: CRational) -> CRational:
        return x

    @staticmethod
    def norm(x):
        return x

    @staticmethod
    def norm_vec(v: list) -> list:
        return v

    @staticmethod
    def inv(x: CRational) -> CRational:
        return ONE / x


class _NotReducible(ArithmeticError):
    """A Gaussian rational whose denominator the prime divides."""


class _ModP:
    """Field arithmetic in F_p on plain ints, p = 1 000 000 009.

    p is prime and p = 1 (mod 4), so -1 has the square root I_MOD_P in F_p and
    a Gaussian rational a + b i with denominators prime to p reduces to
    a + b * I_MOD_P.  Elimination leaves ints unreduced between pivots; norm
    and norm_vec bring them back into [0, p).
    """

    P = 1_000_000_009
    I_MOD_P = 430_477_711
    zero, one = 0, 1

    @classmethod
    def lift(cls, x: CRational) -> int:
        p = cls.P
        out = 0
        for part, unit in ((x.re, 1), (x.im, cls.I_MOD_P)):
            if part:
                if part.denominator % p == 0:
                    raise _NotReducible(f"{p} divides the denominator of {x}")
                out += part.numerator * pow(part.denominator, -1, p) * unit
        return out % p

    @classmethod
    def norm(cls, x: int) -> int:
        return x % cls.P

    @classmethod
    def norm_vec(cls, v: list[int]) -> list[int]:
        p = cls.P
        return [x % p for x in v]

    @classmethod
    def inv(cls, x: int) -> int:
        return pow(x, -1, cls.P)


class _Echelon:
    """Row-reduced spanning set over a field (`_Exact` by default, or `_ModP`).

    Rows are kept sorted by pivot with pivot entries normalized to 1, each as
    its nonzero (column, entry) pairs; insert returns the reduced residual
    (and extends the span) or None if the vector was already in the span.
    """

    def __init__(self, length: int, field=_Exact):
        self.length = length
        self.field = field
        self.rows: list[tuple[int, list[tuple[int, object]]]] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def insert(self, vec: Sequence):
        norm = self.field.norm
        v = list(vec)
        for pivot, items in self.rows:
            c = v[pivot]
            if c:
                c = norm(c)
                if c:
                    for j, x in items:
                        v[j] = v[j] - c * x
        v = self.field.norm_vec(v)
        for lead, x in enumerate(v):
            if x:
                break
        else:
            return None
        inv = self.field.inv(x)
        v = self.field.norm_vec([inv * y if y else y for y in v])
        insort(self.rows, (lead, [(j, x) for j, x in enumerate(v) if x]), key=lambda r: r[0])
        return v

    def vectors(self) -> list[list]:
        out = []
        for _, items in self.rows:
            v = [self.field.zero] * self.length
            for j, x in items:
                v[j] = x
            out.append(v)
        return out


def _sparse_entries(mat: ExactMatrix, field=_Exact) -> list[tuple[int, int, object]]:
    entries = []
    for i, row in enumerate(mat.rows):
        for j, x in enumerate(row):
            if x:
                x = field.lift(x)
                if x:
                    entries.append((i, j, x))
    return entries


def _sparse_apply(entries, vec, zero) -> list:
    out = [zero] * len(vec)
    for i, j, x in entries:
        vj = vec[j]
        if vj:
            out[i] = out[i] + x * vj
    return out


def _saturate(ops, seeds, field) -> _Echelon:
    """Span of the seeds closed under the sparse linear operators ops.

    Only residuals found in the previous round are pushed through the
    operators again; the loop ends when a round finds nothing new or the span
    fills the space.
    """
    length = len(seeds[0])
    basis = _Echelon(length, field)
    frontier = [r for r in map(basis.insert, seeds) if r is not None]
    rounds = 0
    while frontier and basis.rank < length:
        rounds += 1
        if rounds > length + 1:
            raise RuntimeError("saturation failed to stabilize; arithmetic bug")
        new = []
        for v in frontier:
            for op in ops:
                residual = basis.insert(_sparse_apply(op, v, field.zero))
                if residual is not None:
                    new.append(residual)
            if basis.rank == length:
                break
        frontier = new
    return basis


def _generators(module: Sl2Module) -> tuple[ExactMatrix, ...]:
    return (module.xp, module.xm, module.h0, module.hbar1)


def hw_closure(module: Sl2Module) -> tuple[int, list[list[CRational]]]:
    """Smallest subspace containing the top vector and invariant under the
    four generators, by iterated application and exact row reduction to a
    fixpoint.

    The module is generated by its top vector iff the returned dimension
    equals the module dimension; the four generators suffice because every
    higher mode is an iterated hbar1-bracket of them.
    """
    start = [ZERO] * module.dim
    start[module.top_index] = ONE
    ops = [_sparse_entries(g) for g in _generators(module)]
    basis = _saturate(ops, [start], _Exact)
    return basis.rank, basis.vectors()


def _algebra_rank(module: Sl2Module, field) -> int:
    """Dimension over the field of the unital algebra the generators span.

    The algebra is saturated as flattened n x n matrices (row i of a matrix
    at i*n .. i*n+n-1) under left multiplication by each generator, starting
    from the identity.  Raises _NotReducible if a generator entry does not
    reduce into the field.
    """
    n = module.dim
    ops = [
        [(i * n + j, k * n + j, x) for i, k, x in _sparse_entries(g, field) for j in range(n)]
        for g in _generators(module)
    ]
    identity = [field.zero] * (n * n)
    for i in range(n):
        identity[i * n + i] = field.one
    return _saturate(ops, [identity], field).rank


def burnside_dim(module: Sl2Module) -> int:
    """Dimension of the unital matrix algebra generated by the four operators.

    The module is irreducible over the complex field iff the result is dim^2:
    the rank of an exact-entry span does not change under field extension,
    and density of the image algebra characterizes irreducibility over an
    algebraically closed field.

    The saturation runs first over F_p (`_ModP`), and a full span there is
    returned at once.  That is sound: when p divides no denominator, every
    generator entry lies in the ring Z_(p)[i] of Gaussian rationals with
    denominators prime to p, and reduction a + b i -> a + b r (r^2 = -1 in
    F_p) is a ring map from it onto F_p.  It maps each word in the
    generators to the same word in the reduced generators, so the span the
    saturation finds mod p is spanned by the images of the words.  If n^2
    reduced words are independent, an n^2 x n^2 minor of their flattened
    entries is nonzero mod p.  That minor is an integer polynomial in entries
    of Z_(p)[i], so it reduces to the minor of the reduced words and is
    nonzero over Q(i) as well: the n^2 words are independent there.  Rank can
    only drop under reduction, so a full span mod p proves a full span over
    Q(i).  A smaller rank mod p proves nothing (p may divide every such
    minor), and a denominator divisible by p leaves no reduction at all; both
    fall back to the exact saturation, whose value is returned.
    """
    full = module.dim * module.dim
    try:
        if _algebra_rank(module, _ModP) == full:
            return full
    except _NotReducible:
        pass
    return _algebra_rank(module, _Exact)


def apply_shift(module: Sl2Module, c) -> Sl2Module:
    """Pull back through the spectral-shift automorphism by c.

    On the generating set the shift fixes x0^±, h0 and sends hbar1 to
    hbar1 + c * h0.
    """
    c = c if type(c) is CRational else CRational(c)
    return Sl2Module(
        xp=module.xp,
        xm=module.xm,
        h0=module.h0,
        hbar1=module.hbar1 + module.h0.scale(c),
        basis_labels=module.basis_labels,
        top_index=module.top_index,
    )


def local_weyl_sl2(roots: Iterable) -> Sl2Module:
    """Rank-1 local Weyl module for the given root multiset.

    Factors W_1(a) are tensored left to right with the roots ordered by
    non-increasing real part (ties by non-increasing imaginary part), the
    order along which the product of top vectors generates everything.
    """
    parsed = [a if type(a) is CRational else CRational(a) for a in roots]
    if not parsed:
        raise ValueError("root multiset must be nonempty")
    parsed.sort(key=lambda a: (-a.re, -a.im))
    out = irrep_Wm(1, parsed[0])
    for a in parsed[1:]:
        out = tensor(out, irrep_Wm(1, a))
    return out
