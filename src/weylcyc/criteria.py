"""Cyclicity and irreducibility tests for ordered tensor products.

The heart of the module is the family of finite sets S(b_m, b_n) of forbidden
parameter differences: if a_n - a_m avoids S(b_m, b_n) for every pair of
positions m < n, the ordered tensor product V_{a_1}(omega_{b_1}) x ... is
generated by the product of its top vectors.  Checking both orders of every
pair upgrades this to an irreducibility test, which in type A is an exact
equivalence.  In types A-D every S-set is one or two arithmetic progressions
of half-integers (`_progressions`): the criteria test membership by integer
arithmetic on them and build no set, and `s_set` lists the members.

For type C the S-sets are also derivable from the root sets T(i, r_j) of the
rank-1 polynomials attached to the descent from a top vector to a lowest
vector; `derive_s_from_t` performs that derivation and is cross-checked
against the transcribed tables.

`pair_violations` is the scan both criteria run, and `irreducibility_status`
reads the verdict off its violations.  `is_cyclic` and `is_irreducible` wrap
them in the dataclass reports of `weylcyc.reports`, bound on the first report
built, so a caller that reads the violations alone never imports
`dataclasses`.  `CyclicityReport` and `IrreducibilityVerdict` resolve here
through the module `__getattr__`.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from operator import itemgetter

from .drinfeld import (
    CRational,
    DrinfeldTuple,
    FundamentalFactor,
    TensorWord,
)
from .rootsys import CartanData, LieType, Record, cartan_data


class SSet(Record):
    """Finite set of forbidden (real) parameter differences for a node pair.

    Every member is strictly positive; that positivity is what makes any
    ordering by non-increasing real part automatically cyclic.
    """

    __slots__ = ("values",)
    values: frozenset[Fraction]

    def _check(self):
        for v in self.values:
            if v <= 0:
                raise ValueError(f"S-set member {v} is not positive")

    def sorted_values(self) -> tuple[Fraction, ...]:
        return tuple(sorted(self.values))


class TSet(Record):
    """Root set of the rank-1 polynomial attached to nodes (i, r_j), type C.

    Each entry (scale, shift) stands for the root scale * (a1 + shift), where
    a1 is the spectral parameter of the leading factor.  scale is 1/2 exactly
    for the sets T(i, l) attached to the long node.
    """

    __slots__ = ("offsets",)
    offsets: frozenset[tuple[Fraction, Fraction]]

    def sorted_offsets(self) -> tuple[tuple[Fraction, Fraction], ...]:
        return tuple(sorted(self.offsets))


class PairViolation(Record):
    """Positions (1-based), their parameter difference, and the set member hit."""

    __slots__ = ("m", "n", "diff", "member")
    m: int
    n: int
    diff: CRational
    member: Fraction


class IrreducibilityStatus(enum.Enum):
    IRREDUCIBLE_GUARANTEED = "IrreducibleGuaranteed"
    NOT_GUARANTEED = "NotGuaranteed"
    REDUCIBLE_PROVEN = "ReducibleProven"


class _Reports:
    """Stands in for `weylcyc.reports` until a report is first built: the
    first attribute read imports the module into `_reports`, so every later
    read is a plain module attribute and no call runs an import."""

    def __getattr__(self, name):
        global _reports
        from . import reports as _reports

        return getattr(_reports, name)


_reports = _Reports()


def __getattr__(name):
    if name in ("CyclicityReport", "IrreducibilityVerdict"):
        return getattr(_reports, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def s_set(data: CartanData, bm: int, bn: int) -> SSet:
    """The forbidden-difference set S(b_m, b_n) for one ordered node pair,
    built from its progressions (`_progressions`), not cached."""
    l = data.type.rank
    if not (1 <= bm <= l and 1 <= bn <= l):
        raise ValueError(f"nodes ({bm},{bn}) out of range 1..{l}")
    progs = _progressions(data.type, bm, bn)
    return SSet(frozenset(Fraction(s + t * r, 2) for s, t, c in progs for r in range(c)))


def _progressions(lt: LieType, bm: int, bn: int) -> tuple[tuple[int, int, int], ...]:
    """S(b_m, b_n) as one or two progressions: 2d = start + step * r, 0 <= r < count."""
    l, family = lt.rank, lt.family
    gap, lo = abs(bm - bn), min(bm, bn)
    if family == "A":
        # Symmetric in (bm, bn); the bound is min over the pair and its dual.
        return ((gap + 2, 2, min(lo, l + 1 - max(bm, bn))),)
    if family == "B":
        if bm < l and bn < l:
            return (2 * gap + 4, 4, lo), (4 * l - 2 * (bm + bn) + 2, 4, lo)
        if bm == l and bn < l:
            return ((2 * (l - bn) + 4, 4, bn),)
        if bm < l:
            return ((2 * (l - bm), 2, bm + 1),)
        return ((2, 4, l),)
    if family == "C":
        if bm < l and bn < l:
            return (gap + 2, 2, lo), (2 * l + 4 - bm - bn, 2, lo)
        if bm == l and bn < l:
            return ((l - bn + 1, 2, bn + 1),)
        if bm < l:
            return ((l - bm + 5, 2, bm),)
        return ((4, 2, l),)
    spins = (bm >= l - 1) + (bn >= l - 1)  # D: the spin nodes are l - 1 and l
    if not spins:
        return (gap + 2, 2, lo), (2 * l - bm - bn, 2, lo)
    if spins == 1:
        # Same set whichever spin node and order: it reads the other node, lo.
        return ((l - lo + 1, 2, lo),)
    if bm != bn:
        return ((4, 4, (l - 1) // 2),)
    return ((2, 4, l // 2),)


def _in_s_set(d: Fraction, progressions: tuple[tuple[int, int, int], ...]) -> bool:
    """Whether d lies in the S-set of these `_progressions`, by integer arithmetic."""
    if d.denominator > 2:
        return False
    twice = 2 * d.numerator // d.denominator
    for start, step, count in progressions:
        r = twice - start
        if 0 <= r < step * count and not r % step:
            return True
    return False


def t_set_C(data: CartanData, i: int, rj: int) -> TSet:
    """Root set T(i, r_j) for type C, as affine offsets of a1."""
    if data.type.family != "C":
        raise ValueError(f"T-sets are tabulated for type C only, got {data.type}")
    l = data.type.rank
    if not (1 <= i <= l and 1 <= rj <= l):
        raise ValueError(f"nodes ({i},{rj}) out of range 1..{l}")
    one = Fraction(1)
    half = Fraction(1, 2)
    entries: set[tuple[Fraction, Fraction]] = set()
    if i < l and rj < l:
        for r in range(min(i, rj)):
            entries.add((one, Fraction(abs(i - rj), 2) + r))
            entries.add((one, Fraction(l + 1 + r) - Fraction(i + rj, 2)))
    elif i < l and rj == l:
        for r in range(i):
            entries.add((half, Fraction(l - i + 1, 2) + r))
    elif i == l and rj < l:
        for r in range(rj):
            entries.add((one, Fraction(l - rj + 1, 2) + r))
            entries.add((one, Fraction(l - rj - 1, 2) + r))
    else:
        for k in range(l):
            entries.add((half, Fraction(k)))
    return TSet(frozenset(entries))


def derive_s_from_t(data: CartanData, bm: int, bn: int) -> SSet:
    """Recover S(b_m, b_n) for type C from the root sets T(b_m, b_n).

    A pair violates cyclicity when a_n / d_{b_n} differs from a root by
    exactly 1, i.e. a_n = d_{b_n} * (1 + root).  Substituting the affine form
    root = scale * (a1 + shift) the a1 terms must cancel, leaving the pure
    rational d + d * scale * shift.
    """
    d = Fraction(data.d[bn - 1])
    members = set()
    for scale, shift in t_set_C(data, bm, bn).offsets:
        a1_coeff = d * scale - 1
        if a1_coeff != 0:
            raise ArithmeticError(
                f"a1 fails to cancel for T({bm},{bn}) entry (scale={scale}, shift={shift})"
            )
        members.add(d + d * scale * shift)
    return SSet(frozenset(members))


def _window(data: CartanData) -> Fraction:
    """The largest S-set member of the type, in closed form: kappa in types
    A and D, 2 kappa in B and C (tests/test_criteria.py checks it against
    every S-set up to rank 24)."""
    return max(data.d) * data.kappa


def pair_violations(w: TensorWord, both_orders: bool) -> tuple[PairViolation, ...]:
    """Violations of the pairwise condition, sorted by position pair (m, n).

    Every S-set member is positive and at most the window W of the type
    (`_window`).  So two positions can only violate the condition when their
    parameters share the imaginary part and the real parts differ by some d
    with 0 < d <= W.  Positions are grouped by the imaginary part, keyed by
    its (numerator, denominator), exact since every part is a normalized
    Fraction.  Each group is sorted with the real part alone as key; the sort
    is stable and a group is filled in position order, so ties keep position
    order.  Each entry walks forward through its group while d <= W, skipping
    d = 0.  For the lower entry i and the upper entry j, d = a_j - a_i is
    tested against S(b_i, b_j): with i < j that is the pair (i, j) of
    is_cyclic, with i > j the reversed pair that only both_orders reads.
    Membership is in closed form (`_in_s_set` on the pair's `_progressions`);
    no set is built.  The cost is the sorts, O(k log k), plus O(1) per pair
    inside a window at any rank, where a loop over all pairs forms k(k-1)/2
    differences.
    """
    window = _window(cartan_data(w.type))
    factors = w.factors
    progressions = {}  # per node pair, for this call only
    groups: dict[tuple[int, int], list[tuple[Fraction, int]]] = {}
    for i, f in enumerate(factors):
        im = f.param.im
        groups.setdefault((im.numerator, im.denominator), []).append((f.param.re, i))
    violations = []
    for group in groups.values():
        group.sort(key=itemgetter(0))
        for lo, (re_i, i) in enumerate(group):
            for hi in range(lo + 1, len(group)):
                re_j, j = group[hi]
                d = re_j - re_i
                if d > window:
                    break
                if not d or (i > j and not both_orders):
                    continue
                fi, fj = factors[i], factors[j]
                nodes = fi.node, fj.node
                if nodes not in progressions:
                    progressions[nodes] = _progressions(w.type, *nodes)
                if _in_s_set(d, progressions[nodes]):
                    violations.append(PairViolation(i + 1, j + 1, fj.param - fi.param, d))
    violations.sort(key=lambda v: (v.m, v.n))
    return tuple(violations)


def irreducibility_status(
    w: TensorWord, violations: tuple[PairViolation, ...]
) -> IrreducibilityStatus:
    """The irreducibility verdict on w given its both-orders violations
    (`pair_violations(w, both_orders=True)`).

    No violation guarantees irreducibility for every classical type.  With a
    violation, type A words are proven reducible (the criterion is an
    equivalence there); for B/C/D nothing is concluded.
    """
    if not violations:
        return IrreducibilityStatus.IRREDUCIBLE_GUARANTEED
    if w.type.family == "A":
        return IrreducibilityStatus.REDUCIBLE_PROVEN
    return IrreducibilityStatus.NOT_GUARANTEED


def is_cyclic(w: TensorWord) -> CyclicityReport:
    """Check the pairwise sufficient condition for the ordered product to be
    generated by the product of top vectors.

    A pair of positions m < n violates the condition when a_n - a_m is a real
    rational lying in S(b_m, b_n).  No violations guarantees cyclicity; a
    violation does not disprove it (except as sharpened by type A
    irreducibility).
    """
    return _reports.CyclicityReport(pair_violations(w, both_orders=False))


def is_irreducible(w: TensorWord) -> IrreducibilityVerdict:
    """Check the pairwise irreducibility criterion over all ordered pairs
    (`irreducibility_status`)."""
    violations = pair_violations(w, both_orders=True)
    return _reports.IrreducibilityVerdict(irreducibility_status(w, violations), violations)


def left_dual(w: TensorWord) -> TensorWord:
    """The left dual word: order reversed, nodes sent through the -w0
    involution, parameters shifted down by kappa.

    The kappa shift is informational; it depends on a normalization of the
    dual Coxeter constant that downstream checks do not rely on.
    """
    data = cartan_data(w.type)
    kap = CRational(data.kappa)
    dual = [
        FundamentalFactor(data.involution[f.node - 1], f.param - kap)
        for f in reversed(w.factors)
    ]
    return TensorWord(w.type, tuple(dual))


def weyl_factorize(t: DrinfeldTuple) -> TensorWord:
    """Order the roots of a Drinfeld tuple into a guaranteed-cyclic word.

    Roots are sorted by non-increasing real part, ties by non-increasing
    imaginary part, then ascending node.  Along that order every real
    difference a_n - a_m (n > m) is <= 0, and every S-set member is strictly
    positive, so the resulting word always passes `is_cyclic`.
    """
    items = []
    for node, poly in enumerate(t.polys, start=1):
        for root in poly.roots:
            items.append((root, node))
    if not items:
        raise ValueError("cannot factorize a tuple of total degree zero")
    items.sort(key=lambda p: (-p[0].re, -p[0].im, p[1]))
    return TensorWord(
        t.type, tuple(FundamentalFactor(node, root) for root, node in items)
    )
