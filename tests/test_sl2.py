import random
from bisect import insort
from fractions import Fraction
from math import lcm, prod

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from weylcyc import CRational, burnside_dim, hw_closure, irrep_Wm, tensor, word_module
from weylcyc import echelon, selftest
from weylcyc.echelon import GaussianInt, Split, rank, saturate
from weylcyc.sl2 import SparseMatrix, _split

from reference import (
    ExactMatrix,
    ExactModule,
    add,
    apply,
    apply_shift,
    as_exact_module,
    check_relations,
    divide,
    entry,
    exact_irrep_Wm,
    exact_matrix,
    exact_module,
    exact_word_module,
    from_rows,
    identity,
    integral_matrix,
    integral_module,
    kron,
    local_weyl,
    matmul,
    neg,
    reference_tensor,
    scale,
    sub,
    unit,
    zero,
)


def cr(re, im=0):
    return CRational(Fraction(re), Fraction(im))


def random_rational(rng, span=10, dens=(1, 2, 3)):
    return Fraction(rng.randint(-span, span), rng.choice(dens))


# Dense reference: list-of-lists arithmetic, the oracle for the sparse
# matrix algebra of `reference`.

ZERO = CRational(0)


def dense_of(m):
    """Dense rows of m, read off its stored (column, entry) pairs."""
    out = [[ZERO] * m.n for _ in range(m.n)]
    for i, row in enumerate(m.rows):
        for j, x in row:
            out[i][j] = x
    return out


def dense_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def dense_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def dense_scale(a, c):
    return [[c * x for x in row] for row in a]


def dense_matmul(a, b):
    cols = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), ZERO) for col in cols] for row in a]


def dense_kron(a, b):
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def reference_hbar1_diagonal(m, a):
    """The diagonal of hbar1 = h_1 - h_0^2/2 on W_m(a), chained from the
    closed formulas for h_1 and h_0 as `irrep_Wm` evaluated it before it
    used the form linear in a."""
    return [
        (a + (s - 1)) * (s * (m - s + 1))
        - (a + s) * ((s + 1) * (m - s))
        - CRational(Fraction((2 * s - m) ** 2, 2))
        for s in range(m + 1)
    ]


def dense_apply(a, v):
    return [sum((x * y for x, y in zip(row, v)), ZERO) for row in a]


# Reference: elimination over Q(i) on CRational entries with pivots normalized
# to 1, the exact path the saturation ran before the fraction-free
# Gaussian-integer echelon, kept as the oracle for it.


class ReferenceEchelon:
    """Row-reduced spanning set over Q(i): rows sorted by pivot with pivot
    entries 1, each as its nonzero (column, entry) pairs.  insert returns the
    reduced residual (and extends the span) or None."""

    def __init__(self, length):
        self.length = length
        self.rows = []

    def insert(self, vec):
        v = list(vec)
        for pivot, items in self.rows:
            c = v[pivot]
            if c:
                for j, x in items:
                    v[j] = v[j] - c * x
        for lead, x in enumerate(v):
            if x:
                break
        else:
            return None
        inv = divide(1, x)
        v = [inv * y if y else y for y in v]
        insort(self.rows, (lead, [(j, x) for j, x in enumerate(v) if x]), key=lambda r: r[0])
        return v

    def vectors(self):
        out = []
        for _, items in self.rows:
            v = [ZERO] * self.length
            for j, x in items:
                v[j] = x
            out.append(v)
        return out


def reference_saturate(ops, seeds):
    """Span of the seeds closed under the sparse (row, column, entry) ops."""
    basis = ReferenceEchelon(len(seeds[0]))
    frontier = [r for r in map(basis.insert, seeds) if r is not None]
    while frontier and len(basis.rows) < basis.length:
        new = []
        for v in frontier:
            for op in ops:
                out = [ZERO] * len(v)
                for i, j, x in op:
                    if v[j]:
                        out[i] = out[i] + x * v[j]
                residual = basis.insert(out)
                if residual is not None:
                    new.append(residual)
            if len(basis.rows) == basis.length:
                break
        frontier = new
    return basis


def reference_generators(module):
    """The sparse (row, column, entry) generators of an `ExactModule` or an
    `Sl2Module`, on CRational entries."""
    module = as_exact_module(module)
    return [
        [(i, j, x) for i, row in enumerate(g.rows) for j, x in row]
        for g in (module.xp, module.xm, module.h0, module.hbar1)
    ]


def reference_hw_closure(module):
    basis = reference_saturate(reference_generators(module), [unit(module.dim, module.top_index)])
    return len(basis.rows), basis.vectors()


def reference_algebra_rank(ops, n):
    """Dimension of the unital algebra generated by the sparse
    (row, column, entry) ops on a space of dimension n."""
    ops = [[(i * n + j, k * n + j, x) for i, k, x in g for j in range(n)] for g in ops]
    identity = [ZERO] * (n * n)
    for i in range(n):
        identity[i * n + i] = CRational(1)
    return len(reference_saturate(ops, [identity]).rows)


def reference_burnside_dim(module):
    return reference_algebra_rank(reference_generators(module), module.dim)


# Reference lower bound: the algebra rank over F_p.  For Gaussian rationals
# whose denominators p does not divide, reduction a + b i -> a + b r
# (r^2 = -1 mod p) is a ring map onto F_p, so it maps each word in the
# generators to the same word in the reduced generators, and a set of words
# independent mod p is independent over Q(i): the rank mod p is at most the
# exact rank.  `_split(module, ModP).algebra_rank()` runs the saturation over F_p.


class NotReducible(ArithmeticError):
    """A Gaussian rational whose denominator the prime divides."""


class ModP:
    """Row echelon form over F_p on plain ints, p = 1 000 000 009.

    p is prime and p = 1 (mod 4), so -1 has the square root I_MOD_P in F_p.  A
    vector is a list of ints.  Rows are kept sorted by pivot with pivot
    entries normalized to 1, each as its nonzero (column, entry) pairs.
    """

    P = 1_000_000_009
    I_MOD_P = 430_477_711

    def __init__(self, length):
        self.length = length
        self.rows = []

    @property
    def rank(self):
        return len(self.rows)

    @classmethod
    def lift(cls, x):
        p = cls.P
        out = 0
        for part, unit in ((x.re, 1), (x.im, cls.I_MOD_P)):
            if part:
                if part.denominator % p == 0:
                    raise NotReducible(f"{p} divides the denominator of {x}")
                out += part.numerator * pow(part.denominator, -1, p) * unit
        return out % p

    @classmethod
    def operator(cls, mat):
        """The nonzero entries of the `SparseMatrix` mat mod p as (row,
        column, value), in a one-part tuple.  The entries are reduced as
        Gaussian rationals, so a denominator that p divides is not
        reducible, as before the matrices held numerators."""
        lifted = ((i, j, cls.lift(x)) for i, row in enumerate(exact_matrix(mat).rows) for j, x in row)
        return ([entry for entry in lifted if entry[2]],)

    @staticmethod
    def apply(op, vec, length):
        (entries,) = op
        out = [0] * length
        for i, j, x in entries:
            if vec[j]:
                out[i] += x * vec[j]
        return out

    @staticmethod
    def unit(length, indices):
        v = [0] * length
        for i in indices:
            v[i] = 1
        return v

    def insert(self, vec):
        p = self.P
        v = list(vec)
        for pivot, items in self.rows:
            c = v[pivot] % p
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


# Gaussian rationals, zero about half the time, small enough that sums cancel.
gaussian = st.one_of(
    st.just(ZERO),
    st.builds(
        CRational,
        st.fractions(-2, 2, max_denominator=2),
        st.sampled_from([Fraction(0), Fraction(0), Fraction(1), Fraction(-1, 2)]),
    ),
)


def dense_matrices(n):
    return st.lists(st.lists(gaussian, min_size=n, max_size=n), min_size=n, max_size=n)


class TestSparseAgainstDense:
    @given(data=st.data(), n=st.integers(1, 5), nb=st.integers(1, 3), c=gaussian)
    @settings(max_examples=50, deadline=None)
    def test_operations_match_dense_reference(self, data, n, nb, c):
        a, b = data.draw(dense_matrices(n)), data.draw(dense_matrices(n))
        small = data.draw(dense_matrices(nb))
        v = data.draw(st.lists(gaussian, min_size=n, max_size=n))
        ma, mb = from_rows(a), from_rows(b)
        ms = from_rows(small)
        assert dense_of(ma) == a
        assert all(entry(ma, i, j) == a[i][j] for i in range(n) for j in range(n))
        assert add(ma, mb) == from_rows(dense_add(a, b))
        assert sub(ma, mb) == from_rows(dense_sub(a, b))
        assert matmul(ma, mb) == from_rows(dense_matmul(a, b))
        assert scale(ma, c) == from_rows(dense_scale(a, c))
        assert kron(ma, ms) == from_rows(dense_kron(a, small))
        assert kron(ms, ma) == from_rows(dense_kron(small, a))
        assert apply(ma, v) == dense_apply(a, v)
        null = zero(n)
        assert add(ma, neg(ma)) == null and sub(ma, ma) == null
        assert hash(add(ma, neg(ma))) == hash(null)
        eye = identity(n)
        assert matmul(eye, ma) == matmul(ma, eye) == ma
        assert kron(identity(1), ma) == ma

    def test_rejects_non_canonical_rows(self):
        one = CRational(1)
        for rows in [
            (((0, ZERO),), ()),  # stored zero
            (((1, one), (0, one)), ()),  # unsorted columns
            (((0, one), (0, one)), ()),  # repeated column
            (((2, one),), ()),  # column out of range
            (((-1, one),), ()),
            (),  # empty
        ]:
            with pytest.raises(ValueError):
                ExactMatrix(rows)
        with pytest.raises(ValueError):
            from_rows([[1, 0]])


class TestSparseMatrix:
    """Validation and canonical form of the matrix type the modules store,
    and the denominators the builders write."""

    def test_rejects_malformed_input(self):
        for rows in [
            (((0, 0, 0),), ()),  # stored zero
            (((1, 1, 0), (0, 1, 0)), ()),  # unsorted columns
            (((0, 1, 0), (0, 2, 0)), ()),  # repeated column
            (((2, 1, 0),), ()),  # column out of range
            (((-1, 1, 0),), ()),
            (((0, True, 0),), ()),  # a bool is not an int
            (((0, 1, False),), ()),
            (((0, Fraction(1, 2), 0),), ()),  # nor is a Fraction
            (((0, 0, Fraction(2)),), ()),
            (),  # empty
        ]:
            with pytest.raises(ValueError):
                SparseMatrix(rows)
        for den in (0, -3, True, Fraction(2), 2.0):
            with pytest.raises(ValueError):
                SparseMatrix((((0, 1, 0),),), den)

    def test_reduced_by_the_content(self):
        # the value is numerators / den, so 4/6 + 2/6 i is stored as 2/3 + 1/3 i
        mat = SparseMatrix((((0, 4, 2),), ((1, -6, 0),)), 6)
        assert mat.rows == (((0, 2, 1),), ((1, -3, 0),)) and mat.den == 3
        assert mat == SparseMatrix((((0, 2, 1),), ((1, -3, 0),)), 3)
        assert hash(mat) == hash(SparseMatrix((((0, 20, 10),), ((1, -30, 0),)), 30))
        assert SparseMatrix(((), ()), 7).den == 1
        assert exact_matrix(mat) == from_rows([[cr(Fraction(2, 3), Fraction(1, 3)), 0], [0, -1]])

    @pytest.mark.parametrize(
        "m, a, den",
        [
            # lcm(2, 7): the top entry is a - 1/2 = -3/14
            (1, cr(Fraction(2, 7)), 14),
            (3, cr(Fraction(1, 3), Fraction(1, 5)), 30),
            (1, cr(Fraction(1, 1_000_003), Fraction(-2, 999_983)), 2 * 1_000_003 * 999_983),
            # lcm(2, 3) = 6, over the content 2: for even m every entry of
            # 2 hbar1 is even, s(3s-2m-1) - (2s-m)^2/2 being an integer
            (2, cr(Fraction(1, 3)), 3),
            # a = 1/2 makes hbar1 = diag(-1, 0) on W_1(1/2)
            (1, cr(Fraction(1, 2)), 1),
            (1, cr(0), 2),
        ],
    )
    def test_hbar1_denominator_of_an_irrep(self, m, a, den):
        module = irrep_Wm(m, a)
        # built over lcm(2, den re a, den im a), then reduced by the content
        assert lcm(2, a.re.denominator, a.im.denominator) % den == 0
        assert module.hbar1.den == den
        assert exact_module(module) == exact_irrep_Wm(m, a)

    @given(
        m=st.integers(1, 6),
        a=st.builds(
            CRational,
            st.fractions(-5, 5, max_denominator=1_000_003),
            st.fractions(-5, 5, max_denominator=1_000_003),
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_integral_generators_have_denominator_one(self, m, a):
        module = irrep_Wm(m, a)
        assert module.xp.den == module.xm.den == module.h0.den == 1
        assert lcm(2, a.re.denominator, a.im.denominator) % module.hbar1.den == 0
        product = tensor(module, irrep_Wm(1, a + 1))
        assert product.xp.den == product.xm.den == product.h0.den == 1

    def test_hbar1_denominator_of_a_word(self):
        # the factors' hbar1 have denominators 6, 10 and 14; the word's is
        # their lcm, and 1/3 + 1/5 + 1/7 - 3/2 = -173/210 on the top vector
        module = word_module([(1, cr(Fraction(1, 3))), (1, cr(Fraction(1, 5))), (1, cr(Fraction(1, 7)))])
        assert [irrep_Wm(1, cr(Fraction(1, d))).hbar1.den for d in (3, 5, 7)] == [6, 10, 14]
        assert module.hbar1.den == 210
        assert module.xp.den == module.xm.den == module.h0.den == 1
        top = module.top_index
        assert entry(exact_matrix(module.hbar1), top, top) == cr(Fraction(-173, 210))

    def test_builders_reduce_the_content(self, monkeypatch):
        # the builders skip validation, not the content reduction: the hbar1
        # of W_1(0) x W_1(0) is handed over lcm(2, 2) with even numerators
        handed = []
        canonical = SparseMatrix._canonical.__func__

        def spy(cls, rows, den=1):
            handed.append((rows, den))
            return canonical(cls, rows, den)

        monkeypatch.setattr(SparseMatrix, "_canonical", classmethod(spy))
        hbar1 = tensor(irrep_Wm(1, cr(0)), irrep_Wm(1, cr(0))).hbar1
        assert handed[-1] == (
            (((0, -2, 0),), ((1, -2, 0), (2, -4, 0)), ((2, -2, 0),), ((3, -2, 0),)),
            2,
        )
        assert hbar1.rows == (((0, -1, 0),), ((1, -1, 0), (2, -2, 0)), ((2, -1, 0),), ((3, -1, 0),))
        assert hbar1.den == 1


class TestIrrep:
    def test_w1_matrices(self):
        a = cr(Fraction(2, 7))
        m = exact_module(irrep_Wm(1, a))
        assert m.h0 == from_rows([[-1, 0], [0, 1]])
        # x0- sends w1 to w0
        assert apply(m.xm, unit(2, 1)) == unit(2, 0)
        assert m.top_index == 1

    def test_w1_hbar1_top_eigenvalue(self):
        a = cr(Fraction(2, 7))
        m = exact_module(irrep_Wm(1, a))
        assert apply(m.hbar1, unit(2, 1)) == [cr(0), a - cr(Fraction(1, 2))]

    def test_w2_lowering(self):
        m = exact_module(irrep_Wm(2, cr(Fraction(-1, 3))))
        assert apply(m.xm, unit(3, 2)) == unit(3, 1)
        assert apply(m.xm, unit(3, 1)) == [cr(2), cr(0), cr(0)]

    def test_top_killed_by_raising(self):
        m = exact_module(irrep_Wm(3, cr(5)))
        assert apply(m.xp, unit(4, 3)) == [cr(0)] * 4

    def test_rejects_m_zero(self):
        with pytest.raises(ValueError):
            irrep_Wm(0, cr(0))


class TestRelations:
    def test_irreps_satisfy_relations(self):
        rng = random.Random(7)
        for m in range(1, 5):
            a = cr(random_rational(rng))
            assert check_relations(irrep_Wm(m, a), 3) == []

    def test_tensor_satisfies_relations(self):
        prod = tensor(irrep_Wm(1, cr(Fraction(1, 2))), irrep_Wm(2, cr(-1, 1)))
        assert check_relations(prod, 3) == []

    def test_corrupted_module_fails(self):
        m = exact_module(irrep_Wm(1, cr(0)))
        rows = [[entry(m.hbar1, i, j) for j in range(2)] for i in range(2)]
        rows[0][0] = rows[0][0] + cr(1)
        bad = type(m)(
            xp=m.xp,
            xm=m.xm,
            h0=m.h0,
            hbar1=from_rows(rows),
            top_index=m.top_index,
        )
        assert check_relations(bad, 2) != []


class TestTensor:
    def test_dimensions_and_top(self):
        prod = tensor(irrep_Wm(1, cr(0)), irrep_Wm(1, cr(1)))
        assert prod.dim == 4
        assert prod.top_index == 3

    def test_kron_index_order(self):
        a = from_rows([[0, 1], [0, 0]])
        b = identity(2)
        k = kron(a, b)
        # left factor slowest: entry (0,2) = a[0][1] * b[0][0]
        assert entry(k, 0, 2) == cr(1) and entry(k, 1, 3) == cr(1)


class TestClosure:
    def test_unreachable_vector(self):
        # the rank-3 closure misses the hbar1 eigenvector w1(x)w0 - w0(x)w1
        module = tensor(irrep_Wm(1, cr(0)), irrep_Wm(1, cr(1)))
        rank, basis = hw_closure(module)
        assert rank == 3
        missing = [cr(0), cr(1), cr(-1), cr(0)]
        eb = ReferenceEchelon(4)
        for v in basis:
            eb.insert(v)
        assert eb.insert(missing) is not None

    def test_irreps_are_cyclic(self):
        for m in range(1, 5):
            module = irrep_Wm(m, cr(Fraction(3, 2)))
            assert hw_closure(module)[0] == m + 1

    def test_closure_invariant_under_shift(self):
        module = tensor(irrep_Wm(1, cr(0)), irrep_Wm(1, cr(1)))
        shifted = apply_shift(module, cr(Fraction(-7, 5)))
        assert hw_closure(shifted)[0] == hw_closure(module)[0]


def direct_sum(m1, m2):
    """Block-diagonal module, top vector of the first summand on top."""
    m1, m2 = exact_module(m1), exact_module(m2)

    def block(a, b):
        return ExactMatrix(a.rows + tuple(tuple((j + a.n, x) for j, x in row) for row in b.rows))

    return ExactModule(
        *(block(getattr(m1, g), getattr(m2, g)) for g in ("xp", "xm", "h0", "hbar1")),
        top_index=m1.top_index,
    )


def rebased(module, p, p_inv, top_index):
    """The module on the basis given by the columns of p."""
    p, p_inv = from_rows(p), from_rows(p_inv)
    assert matmul(p, p_inv) == identity(module.dim)
    return ExactModule(
        *(matmul(matmul(p_inv, getattr(module, g)), p) for g in ("xp", "xm", "h0", "hbar1")),
        top_index=top_index,
    )


h, q = Fraction(1, 2), Fraction(1, 4)
# W_1(0) + W_1(3) on the basis x0, x1, y0, y1 (x1, y1 the tops) is reducible,
# algebra 4 + 4 = 8.  On the first basis below, u = x1 + y1 is the top and
# shares its weight with v = x1 - y1; on the second, y0 + v and y0 - v mix two
# weights, so h0 is not diagonal although u is the only basis vector with the
# diagonal entry 1.  On both, u generates the module (hbar1 tells x1 from y1)
# and the u-coordinate (x1* + y1*)/2 generates the dual, so the two closures
# are full: only the guard keeps these modules from the dim^2 shortcut.
REPEATED_TOP_WEIGHT = (
    [[1, 0, 0, 0], [0, 1, 0, 1], [0, 0, 1, 0], [0, 1, 0, -1]],
    [[1, 0, 0, 0], [0, h, 0, h], [0, 0, 1, 0], [0, h, 0, -h]],
)
NON_DIAGONAL_H0 = (
    [[1, 0, 0, 0], [0, 1, 1, -1], [0, 0, 1, 1], [0, 1, -1, 1]],
    [[1, 0, 0, 0], [0, h, 0, h], [0, q, h, -q], [0, -q, h, q]],
)


@pytest.fixture
def saturation_lengths(monkeypatch):
    """The block lengths of each saturation sl2 runs from here on, closures
    and column classes alike; the vector length of a saturation is their
    sum."""
    lengths = []

    def spy(field, sizes, ops, seeds):
        lengths.append(list(sizes))
        return saturate(field, sizes, ops, seeds)

    monkeypatch.setattr(echelon, "saturate", spy)
    return lengths


class TestBurnside:
    def test_small_irrep_full(self):
        assert burnside_dim(irrep_Wm(1, cr(Fraction(5, 7)))) == 4
        assert burnside_dim(irrep_Wm(2, cr(-2))) == 9

    def test_irreducible_pair(self):
        assert burnside_dim(tensor(irrep_Wm(1, cr(0)), irrep_Wm(1, cr(2)))) == 16

    def test_reducible_pair(self):
        # proper value computed once by the saturation oracle, frozen since;
        # the top vector generates only 3 dimensions, so the value comes from
        # the exact path; the rank mod p is a lower bound
        module = tensor(irrep_Wm(1, cr(0)), irrep_Wm(1, cr(1)))
        assert _split(module, ModP).algebra_rank() <= 13
        assert burnside_dim(module) == 13

    def test_cyclic_but_reducible_pair(self):
        # the local Weyl module of 0, 1: the top vector generates it, the top
        # functional only the 3-dimensional dual of its irreducible quotient
        module = local_weyl([cr(0), cr(1)])
        assert hw_closure(module)[0] == 4
        assert burnside_dim(module) == reference_burnside_dim(module) == 13

    @pytest.mark.parametrize(
        "factors, expected",
        [
            (((1, 0), (1, 1), (1, Fraction(5, 2))), 52),
            (((1, Fraction(5, 2)), (1, 0), (1, 1)), 52),
            (((1, 0), (2, 1)), 28),
        ],
    )
    def test_rank_deficient_falls_back_to_exact(self, factors, expected):
        # proper values computed once by the exact saturation oracle, frozen since
        module = word_module([(m, cr(a)) for m, a in factors])
        assert _split(module, ModP).algebra_rank() <= expected
        assert burnside_dim(module) == expected

    def test_full_module_runs_no_algebra_saturation(self, saturation_lengths):
        # two closures of length dim = 4, on the weight spaces -2, 0, 2
        assert burnside_dim(tensor(irrep_Wm(1, cr(0)), irrep_Wm(1, cr(2)))) == 16
        assert saturation_lengths == [[1, 2, 1], [1, 2, 1]]
        saturation_lengths.clear()
        # a reducible module pays the dim^2 saturation after the closures (the
        # first already fails): one saturation per column class A E_nu, of
        # length 4 |nu|, together dim^2 = 16
        assert burnside_dim(tensor(irrep_Wm(1, cr(0)), irrep_Wm(1, cr(1)))) == 13
        assert saturation_lengths == [[1, 2, 1], [1, 2, 1], [2, 4, 2], [1, 2, 1]]
        assert sum(map(sum, saturation_lengths[1:])) == 16

    @pytest.mark.parametrize("basis", [REPEATED_TOP_WEIGHT, NON_DIAGONAL_H0])
    def test_guard_failure_takes_exact_path(self, basis, saturation_lengths):
        module = rebased(direct_sum(irrep_Wm(1, cr(0)), irrep_Wm(1, cr(3))), *basis, top_index=1)
        assert check_relations(module, 2) == []
        assert burnside_dim(integral_module(module)) == reference_burnside_dim(module) == 8
        # no closure runs, only the column classes, together of length dim^2:
        # a diagonal h0 has two weight spaces of dimension 2, so two classes
        # of two weight blocks each; a non-diagonal h0 gives one block
        classes = [[16]] if basis is NON_DIAGONAL_H0 else [[4, 4], [4, 4]]
        assert saturation_lengths == classes
        assert sum(map(sum, saturation_lengths)) == 16


class TestModularCertificate:
    """The rank mod p of the reference `ModP` is a lower bound of
    `burnside_dim`."""

    def test_prime_and_square_root_of_minus_one(self):
        p = ModP.P
        assert p % 4 == 1
        assert all(p % d for d in range(2, int(p**0.5) + 1))
        assert ModP.I_MOD_P**2 % p == p - 1

    def test_lift_is_a_ring_map_on_samples(self):
        rng = random.Random(5)
        for _ in range(50):
            x = cr(random_rational(rng), random_rational(rng))
            y = cr(random_rational(rng), random_rational(rng))
            assert ModP.lift(x * y) == ModP.lift(x) * ModP.lift(y) % ModP.P
            assert ModP.lift(x - y) == (ModP.lift(x) - ModP.lift(y)) % ModP.P

    def test_rank_lost_mod_p_is_not_trusted(self):
        # a gap of 1 + p reduces to the reducible gap 1 mod p, but the exact
        # algebra is full: only gaps of +-1 make a W1 pair reducible
        module = tensor(irrep_Wm(1, cr(0)), irrep_Wm(1, cr(1 + ModP.P)))
        assert _split(module, ModP).algebra_rank() == 13
        assert burnside_dim(module) == 16

    def test_denominator_divisible_by_p_takes_exact_path(self):
        # no reduction mod p exists; burnside_dim works on the exact values
        eps = Fraction(1, ModP.P)
        for gap, expected in ((3, 16), (1, 13)):
            module = tensor(irrep_Wm(1, cr(eps)), irrep_Wm(1, cr(eps + gap)))
            with pytest.raises(NotReducible):
                _split(module, ModP).algebra_rank()
            assert burnside_dim(module) == reference_burnside_dim(module) == expected

    @given(
        factors=st.lists(
            st.tuples(
                st.integers(1, 3),
                st.integers(-6, 6).map(lambda k: Fraction(k, 2)),
            ),
            min_size=1,
            max_size=4,
        ),
        im=st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(-2)]),
        twist=st.sampled_from([Fraction(0), Fraction(0), Fraction(4, 7)]),
        shift=st.tuples(st.fractions(-3, 3, max_denominator=7), st.fractions(-3, 3, max_denominator=7)),
    )
    @example(factors=[(1, 3), (1, 2), (1, 1), (1, 0)], im=0, twist=0, shift=(1, 1))
    @example(factors=[(1, 0), (1, 1), (1, 0)], im=Fraction(1, 3), twist=0, shift=(0, 0))
    @settings(max_examples=25, deadline=None)
    def test_certified_equals_exact(self, factors, im, twist, shift):
        # words up to dim 16, about a tenth of them reducible, and two
        # reducible examples: the local Weyl module of 0..3, whose top vector
        # generates it, and a word of dim 8 neither of whose closures is full;
        # the first factor's twist makes some differences complex.  A full
        # rank mod p is the exact rank, since it is a lower bound; otherwise
        # the reference saturates.  The shift adds a multiple of h0 to hbar1,
        # so it leaves the algebra as it is
        assume(prod(m + 1 for m, _ in factors) <= 16)
        module = word_module(
            [(m, cr(a, im + (twist if i == 0 else 0))) for i, (m, a) in enumerate(factors)]
        )
        full = module.dim**2
        lower = _split(module, ModP).algebra_rank()
        exact = full if lower == full else reference_burnside_dim(module)
        assert lower <= exact
        assert burnside_dim(module) == exact
        assert burnside_dim(apply_shift(module, cr(*shift))) == exact


# Denominators include large primes (the certificate's prime among them), so
# the lifted generators carry large scales.
big_denominator_fractions = st.builds(
    Fraction,
    st.integers(-6, 6),
    st.sampled_from([1, 2, 3, 1_000_003, ModP.P, 2**61 - 1]),
)
gaussian_parameters = st.builds(CRational, big_denominator_fractions, big_denominator_fractions)


class TestFractionFreeAgainstReference:
    def test_lift_clears_denominators_and_keeps_direction(self):
        mat = from_rows([[cr(Fraction(1, 6), 2), 0], [cr(0, Fraction(-3, 4)), cr(5)]])
        lifted = integral_matrix(mat)
        assert lifted.den == 12 and exact_matrix(lifted) == mat
        re_op, im_op = GaussianInt.operator(lifted)
        assert re_op == [(0, 0, 2), (1, 1, 60)]
        assert im_op == [(0, 0, 24), (1, 0, -9)]

    def test_rows_are_primitive_with_positive_real_lead(self):
        basis = GaussianInt(3)
        # (2+2i, 4, 6i) times 2-2i, the conjugate of its lead, over the gcd 4
        assert basis.insert(([2, 4, 0], [2, 0, 6])) == ([2, 2, 3], [0, -2, 3])
        # (1+i) times the first vector
        assert basis.insert(([0, 4, -6], [4, 4, 6])) is None
        assert basis.insert(([0, 0, 7], [0, 0, 0])) == ([0, 0, 1], [0, 0, 0])
        assert basis.insert(([0, -4, 0], [0, 0, 0])) == ([0, 1, 0], [0, 0, 0])
        assert [row[:2] for row in basis.rows] == [(0, 2), (1, 1), (2, 1)]
        # the lead 2 does not divide 1, so the vector is doubled before reducing
        assert basis.insert(([1, 0, 0], [0, 0, 0])) is None
        assert basis.rank == 3

    @given(
        factors=st.lists(
            st.tuples(
                st.integers(1, 3),
                st.integers(-2, 2),
                st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), big_denominator_fractions),
            ),
            min_size=2,
            max_size=3,
        ),
        base=gaussian_parameters,
        shift=gaussian_parameters,
    )
    @settings(max_examples=50, deadline=None)
    def test_closure_and_algebra_rank_match_reference(self, factors, base, shift):
        # parameter base + k + i t: small integer gaps k make about a tenth of
        # the words reducible; a shared imaginary part only shifts hbar1 by a
        # multiple of h0 and leaves every residual real, so the twists t give
        # the elimination complex vectors
        assume(prod(m + 1 for m, _, _ in factors) <= 8)
        module = word_module([(m, base + k + cr(0, t)) for m, k, t in factors])
        for image in (module, apply_shift(module, shift)):
            assert hw_closure(image) == reference_hw_closure(image)
            assert _split(image, GaussianInt).algebra_rank() == reference_burnside_dim(image)

    @given(
        offsets=st.lists(
            st.tuples(st.integers(-2, 2), st.sampled_from([Fraction(0), Fraction(0), Fraction(4, 7)])),
            min_size=4,
            max_size=4,
        ),
        base=gaussian_parameters,
    )
    @example(offsets=[(-2, 0), (1, 0), (-1, Fraction(4, 7)), (-1, 0)], base=cr(0))
    @settings(max_examples=50, deadline=None)
    def test_closure_with_complex_residuals_matches_reference(self, offsets, base):
        # dim 16: a twisted factor next to an integer gap gives proper
        # closures in which pushing only the real part of a residual through
        # the generators would change the span, as in the example (closure 12)
        module = word_module([(1, base + k + cr(0, t)) for k, t in offsets])
        assert hw_closure(module) == reference_hw_closure(module)


def in_span(rows, vectors):
    """Every vector lies in the span of rows, over Q(i)."""
    basis = ReferenceEchelon(len(rows[0]))
    for v in rows:
        basis.insert(v)
    return all(basis.insert(v) is None for v in vectors)


@st.composite
def hand_built_modules(draw, diagonal_h0):
    """`ExactModule`s of dim <= 5 with arbitrary sparse Gaussian-rational xp,
    xm and hbar1, so not weight vectors, and an h0 that is either diagonal
    with a repeated weight or not diagonal at all.  They satisfy no
    relation; `integral_module` makes them `Sl2Module`s for the oracles."""
    n = draw(st.integers(2, 5) if diagonal_h0 else st.integers(2, 4))
    entries = st.one_of(st.just(ZERO), gaussian)
    matrices = st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
    if diagonal_h0:
        weights = draw(
            st.lists(st.sampled_from([ZERO, cr(2), cr(-1, 1), cr(Fraction(1, 3))]), min_size=n, max_size=n)
            .filter(lambda w: len(set(w)) < n)
        )
        h0 = ExactMatrix(tuple(((i, w),) if w else () for i, w in enumerate(weights)))
    else:
        h0 = from_rows(draw(matrices))
        assume(any(j != i for i, row in enumerate(h0.rows) for j, _ in row))
    xp, xm, hbar1 = (from_rows(draw(matrices)) for _ in range(3))
    return ExactModule(xp, xm, h0, hbar1, draw(st.integers(0, n - 1)))


class TestWeightBlocksOnHandBuiltModules:
    """The weight-graded closures and column classes agree with the
    ungraded references on matrices that are not weight-homogeneous, where
    each generator has pieces E_mu' g E_nu into several weight blocks."""

    @given(data=st.data(), diagonal_h0=st.sampled_from([True, True, False]))
    @settings(max_examples=80, deadline=None)
    def test_graded_equals_reference(self, data, diagonal_h0):
        module = data.draw(hand_built_modules(diagonal_h0))
        integral = integral_module(module)
        assert exact_module(integral) == module
        expected = reference_burnside_dim(module)
        assert _split(integral, GaussianInt).algebra_rank() == expected
        assert burnside_dim(integral) == expected
        # the graded closure stores weight vectors and the reference the raw
        # images, so the echelon rows differ; the ranks and spans agree
        rank, basis = hw_closure(integral)
        ref_rank, ref_basis = reference_hw_closure(module)
        assert rank == ref_rank and in_span(ref_basis, basis)
        blocks = _split(integral, GaussianInt).blocks
        weights = [entry(module.h0, i, i) for i in range(module.dim)]
        assert len(blocks) == (len(set(weights)) if diagonal_h0 else 1)


class TestGenericSplit:
    """`Split` on hand-built matrices and blocks, with no module: its
    closure, cocyclic test and algebra rank are those of the unital algebra
    generated by the matrices and the 0/1 block projections, computed by the
    ungraded reference."""

    @given(data=st.data(), n=st.integers(1, 5), count=st.integers(0, 3))
    @settings(max_examples=80, deadline=None)
    def test_split_equals_reference(self, data, n, count):
        entries = st.one_of(st.just(ZERO), gaussian)
        matrix = st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
        mats = [from_rows(data.draw(matrix)) for _ in range(count)]
        labels = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        groups = {}
        for i, label in enumerate(labels):
            groups.setdefault(label, []).append(i)
        blocks = list(groups.values())
        top = data.draw(st.integers(0, n - 1))
        split = Split(GaussianInt, [integral_matrix(mat) for mat in mats], blocks, top)

        ops = [[(i, j, x) for i, row in enumerate(g.rows) for j, x in row] for g in mats]
        ops += [[(i, i, CRational(1)) for i in block] for block in blocks]
        algebra = reference_algebra_rank(ops, n)
        assert split.algebra_rank() == algebra
        assert rank(split.top_closure) == len(reference_saturate(ops, [unit(n, top)]).rows)
        top_alone = any(block == [top] for block in blocks)
        assert split.cocyclic() == (top_alone and algebra == n * n)


# Gaussian-rational spectral parameters with nonzero imaginary parts allowed
gaussian_params = st.builds(
    CRational,
    st.fractions(-6, 6, max_denominator=7),
    st.fractions(-3, 3, max_denominator=5),
)
irreps = st.builds(irrep_Wm, st.integers(1, 3), gaussian_params)


# (factors, closure rank, algebra dimension), frozen: README's sl2-oracle
# example and the local Weyl module of 0, 1 of its Python snippet, then the
# rank-deficient words of TestBurnside, then an irreducible word
FROZEN_ORACLE = [
    (((1, 0), (1, 1)), 3, 13),
    (((1, 1), (1, 0)), 4, 13),
    (((1, 0), (1, 1), (1, Fraction(5, 2))), 6, 52),
    (((1, Fraction(5, 2)), (1, 0), (1, 1)), 6, 52),
    (((1, 0), (2, 1)), 4, 28),
    (((1, 2), (1, 0), (1, -3)), 8, 64),
]


# Parameters whose parts have large coprime denominators as well as small
# ones, so that the products' hbar1 carry large common denominators.
coprime_fractions = st.builds(
    Fraction,
    st.integers(-6, 6),
    st.sampled_from([1, 2, 3, 7, 999_983, 1_000_003]),
)
coprime_params = st.builds(CRational, coprime_fractions, coprime_fractions)
words = st.lists(st.tuples(st.integers(1, 3), coprime_params), min_size=1, max_size=4)


class TestOnePassBuild:
    """`irrep_Wm`, `tensor` and `word_module` on numerators against the
    constructions they replaced: the CRational one-pass build of
    `reference`, and the coproduct from Kronecker products.  The CRational
    build lifted by the lcm of each generator's denominators is the very
    `Sl2Module` the numerators make, so the oracles see the same ints."""

    @given(m=st.integers(1, 6), a=gaussian_params)
    @settings(max_examples=60, deadline=None)
    def test_hbar1_closed_form_equals_chained_formula(self, m, a):
        diagonal = reference_hbar1_diagonal(m, a)
        expected = [[x if i == j else ZERO for j in range(m + 1)] for i, x in enumerate(diagonal)]
        assert exact_matrix(irrep_Wm(m, a).hbar1) == from_rows(expected)
        assert exact_irrep_Wm(m, a).hbar1 == from_rows(expected)

    @given(
        left=st.one_of(
            irreps,
            # tensor products have a non-diagonal hbar1, and the hand-built
            # modules a non-diagonal h0 and rational entries in all four
            # generators
            st.builds(tensor, irreps, irreps),
            hand_built_modules(diagonal_h0=False).map(integral_module),
        ),
        right=st.one_of(irreps, hand_built_modules(diagonal_h0=False).map(integral_module)),
    )
    @example(
        left=tensor(irrep_Wm(1, cr(Fraction(1, 3), 2)), irrep_Wm(2, cr(-1, Fraction(1, 5)))),
        right=irrep_Wm(3, cr(Fraction(5, 2), -1)),
    )
    @settings(max_examples=80, deadline=None)
    def test_tensor_equals_kron_reference(self, left, right):
        assert exact_module(tensor(left, right)) == reference_tensor(left, right)

    @given(factors=words)
    @example(factors=[(1, cr(Fraction(1, 3))), (1, cr(Fraction(1, 5))), (1, cr(Fraction(1, 7)))])
    @example(factors=[(3, cr(Fraction(1, 1_000_003), Fraction(-5, 999_983))), (2, cr(Fraction(3, 7), 1))])
    @settings(max_examples=40, deadline=None)
    def test_word_equals_crational_build(self, factors):
        # dims up to 4^4 = 256; each factor, each partial product, the word
        assume(prod(m + 1 for m, _ in factors) <= 64)
        for m, a in factors:
            assert exact_module(irrep_Wm(m, a)) == exact_irrep_Wm(m, a)
        module = word_module(factors)
        exact_form = exact_word_module(factors)
        assert exact_module(module) == exact_form
        assert integral_module(exact_form) == module
        assert exact_module(integral_module(exact_form)) == exact_form

    @given(factors=words)
    @settings(max_examples=40, deadline=None)
    def test_builders_write_the_validated_form(self, factors):
        # the validating constructor is the oracle of the builders' unchecked
        # one: every matrix irrep_Wm, tensor and word_module build is what
        # SparseMatrix makes of its rows and denominator
        irreps = [irrep_Wm(m, a) for m, a in factors]
        products = irreps[:1]
        for module in irreps[1:]:
            products.append(tensor(products[-1], module))
        assert word_module(factors) == products[-1]
        for module in irreps + products[1:]:
            for name in ("xp", "xm", "h0", "hbar1"):
                built = getattr(module, name)
                checked = SparseMatrix(built.rows, built.den)
                assert (checked.rows, checked.den) == (built.rows, built.den)

    @staticmethod
    def oracles(module):
        return hw_closure(module), burnside_dim(module)

    @pytest.mark.parametrize("factors, closure, algebra", FROZEN_ORACLE)
    def test_oracles_equal_reference_path_on_frozen_words(self, factors, closure, algebra):
        factors = [(m, cr(a)) for m, a in factors]
        built = self.oracles(word_module(factors))
        assert built == self.oracles(integral_module(exact_word_module(factors)))
        assert built[0][0] == closure and built[1] == algebra

    @given(factors=words)
    @settings(max_examples=30, deadline=None)
    def test_oracles_equal_reference_path(self, factors):
        assume(prod(m + 1 for m, _ in factors) <= 16)
        assert self.oracles(word_module(factors)) == self.oracles(
            integral_module(exact_word_module(factors))
        )


class TestSharedLiftAndClosure:
    """A module keeps its lifted generators and its top-vector closure, and
    `hw_closure` and `burnside_dim` share them: the results do not depend on
    which runs first, or on whether the other ran at all."""

    @staticmethod
    def results_in_every_order(factors):
        """(hw_closure, burnside_dim) of the word: each on a fresh module,
        then both on one module, closure first, then both on another,
        algebra first."""
        def build():
            return word_module([(m, cr(a)) for m, a in factors])

        fresh = hw_closure(build()), burnside_dim(build())
        closure_first = build()
        closure_first_results = hw_closure(closure_first), burnside_dim(closure_first)
        algebra_first = build()
        algebra = burnside_dim(algebra_first)
        return fresh, closure_first_results, (hw_closure(algebra_first), algebra)

    @pytest.mark.parametrize("factors, closure, algebra", FROZEN_ORACLE)
    def test_frozen_values_in_every_order(self, factors, closure, algebra):
        fresh, *orders = self.results_in_every_order(factors)
        assert fresh[0][0] == closure and fresh[1] == algebra
        module = word_module([(m, cr(a)) for m, a in factors])
        assert fresh[0] == reference_hw_closure(module)
        assert all(results == fresh for results in orders)

    def test_selftest_words_in_every_order(self):
        for params in selftest._grid_words(2):
            fresh, *orders = self.results_in_every_order([(1, a) for a in params])
            assert all(results == fresh for results in orders), params

    def test_closure_of_the_top_vector_runs_once(self, saturation_lengths):
        module = tensor(irrep_Wm(1, cr(0)), irrep_Wm(1, cr(2)))
        assert hw_closure(module) == hw_closure(module)
        assert burnside_dim(module) == 16
        # closure (a) once, shared, and closure (b) once
        assert saturation_lengths == [[1, 2, 1], [1, 2, 1]]

    def test_equal_modules_stay_equal_after_closing(self):
        closed, fresh = (word_module([(1, cr(0)), (1, cr(1))]) for _ in range(2))
        hw_closure(closed)
        burnside_dim(closed)
        assert closed == fresh and hash(closed) == hash(fresh)
        assert len({closed, fresh}) == 1
        assert closed != word_module([(1, cr(1)), (1, cr(0))])


class TestShift:
    def test_zero_shift_identity(self):
        m = irrep_Wm(2, cr(1))
        assert apply_shift(m, cr(0)) == m


class TestLocalWeyl:
    def test_single(self):
        a = cr(Fraction(-3, 4), 1)
        assert local_weyl([a]) == irrep_Wm(1, a)

    def test_order_is_normalized(self):
        # input order must not matter
        a = local_weyl([cr(0), cr(1)])
        b = local_weyl([cr(1), cr(0)])
        assert a == b

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            local_weyl([])
