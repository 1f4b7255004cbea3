"""Built-in invariant suite, shared by the CLI selftest subcommand.

Each check returns (name, ok, detail).  The table checks sweep every node
pair up to rank 8.  The one rank-1 check runs `rank1_report`, the matrix
oracles against the pairwise criteria (the agreement `weylcyc sl2-oracle`
prints for one word), on every A1 word over a half-integer parameter grid.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from . import criteria, sl2
from .criteria import IrreducibilityStatus
from .drinfeld import CRational, DrinfeldTuple, FundamentalFactor, MonicPoly, TensorWord
from .rootsys import LieType, cartan_data

MAX_RANK = 8

# the rank-1 grid words: parameters in GRID, lengths up to MAX_GRID_LEN
GRID = [Fraction(k, 2) for k in range(-4, 5)]
MAX_GRID_LEN = 3

# the factorization check draws PER_FAMILY tuples per family, each of total
# degree at most MAX_TOTAL_DEGREE, from random.Random(SEED)
MAX_TOTAL_DEGREE = 8
PER_FAMILY = 100
SEED = 20260810


def _all_types():
    for family, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3)):
        for l in range(lo, MAX_RANK + 1):
            yield LieType(family, l)


def check_s_positivity() -> tuple[str, bool, str]:
    for lt in _all_types():
        data = cartan_data(lt)
        for bm in range(1, lt.rank + 1):
            for bn in range(1, lt.rank + 1):
                try:
                    criteria.s_set(data, bm, bn)
                except ValueError as exc:
                    return "s_set positivity", False, f"{lt} S({bm},{bn}): {exc}"
    return "s_set positivity", True, f"all node pairs, ranks <= {MAX_RANK}"


def check_t_to_s() -> tuple[str, bool, str]:
    for l in range(2, MAX_RANK + 1):
        data = cartan_data(LieType("C", l))
        for bm in range(1, l + 1):
            for bn in range(1, l + 1):
                derived = criteria.derive_s_from_t(data, bm, bn)
                table = criteria.s_set(data, bm, bn)
                if derived.values != table.values:
                    return (
                        "T to S derivation",
                        False,
                        f"C{l} ({bm},{bn}): derived {sorted(derived.values)} "
                        f"!= table {sorted(table.values)}",
                    )
    return "T to S derivation", True, f"type C, ranks 2..{MAX_RANK}"


def check_type_a_symmetries() -> tuple[str, bool, str]:
    for l in range(1, MAX_RANK + 1):
        data = cartan_data(LieType("A", l))
        for bm in range(1, l + 1):
            for bn in range(1, l + 1):
                s = criteria.s_set(data, bm, bn)
                if s.values != criteria.s_set(data, bn, bm).values:
                    return "type A symmetries", False, f"A{l} swap failed at ({bm},{bn})"
                dual = criteria.s_set(data, l - bn + 1, l - bm + 1)
                if s.values != dual.values:
                    return "type A symmetries", False, f"A{l} dual failed at ({bm},{bn})"
    return "type A symmetries", True, f"ranks <= {MAX_RANK}"


def a1_word(params) -> TensorWord:
    """The type A1 word of fundamental factors at the given parameters."""
    return TensorWord(
        LieType("A", 1),
        tuple(FundamentalFactor(1, CRational(a)) for a in params),
    )


def rank1_report(word: TensorWord) -> dict:
    """The rank-1 matrix oracles against the pairwise criteria on one A1 word.

    `agree` holds iff the word is criterion-cyclic exactly when its top-vector
    closure is full, and the irreducibility verdict is IrreducibleGuaranteed
    when the Burnside algebra is full and ReducibleProven otherwise (in type
    A the criterion is an equivalence).  One scan in both orders gives both
    criteria: the forward violations, those of `is_cyclic`, are the ones
    with m < n."""
    module = sl2.word_module((1, f.param) for f in word.factors)
    closure, _ = sl2.hw_closure(module)
    algebra = sl2.burnside_dim(module)
    full = closure == module.dim
    burnside_full = algebra == module.dim**2
    violations = criteria.pair_violations(word, both_orders=True)
    cyclic = all(v.m > v.n for v in violations)
    status = criteria.irreducibility_status(word, violations)
    expected = (IrreducibilityStatus.IRREDUCIBLE_GUARANTEED if burnside_full
                else IrreducibilityStatus.REDUCIBLE_PROVEN)
    return {
        "dim": module.dim,
        "closure_dim": closure,
        "full": full,
        "burnside_dim": algebra,
        "burnside_full": burnside_full,
        "cyclic_guaranteed": cyclic,
        "criterion": status.value,
        "agree": full == cyclic and status is expected,
    }


def rank1_grid() -> tuple[int, str | None]:
    """Run `rank1_report` on every grid word of length <= MAX_GRID_LEN; return
    how many are criterion-cyclic and the first disagreement (None if none)."""
    cyclic = 0
    for length in range(1, MAX_GRID_LEN + 1):
        for params in _grid_words(length):
            report = rank1_report(a1_word(params))
            cyclic += report["cyclic_guaranteed"]
            if not report["agree"]:
                return cyclic, f"params ({', '.join(map(str, params))}): {report}"
    return cyclic, None


def check_rank1_grid() -> tuple[str, bool, str]:
    cyclic, failure = rank1_grid()
    detail = failure or f"all words of length <= {MAX_GRID_LEN}, {cyclic} criterion-cyclic"
    return "rank-1 oracles agree with the criteria", failure is None, detail


def _grid_words(length: int):
    return itertools.product(GRID, repeat=length)


def random_tuple(rng: random.Random, lt: LieType) -> DrinfeldTuple:
    total = rng.randint(1, MAX_TOTAL_DEGREE)
    buckets: list[list[CRational]] = [[] for _ in range(lt.rank)]
    for _ in range(total):
        node = rng.randint(1, lt.rank)
        re = Fraction(rng.randint(-8, 8), rng.choice((1, 2)))
        im = Fraction(rng.randint(-2, 2)) if rng.random() < 0.3 else Fraction(0)
        buckets[node - 1].append(CRational(re, im))
    return DrinfeldTuple(lt, tuple(MonicPoly(tuple(b)) for b in buckets))


def check_factorization_cyclicity() -> tuple[str, bool, str]:
    rng = random.Random(SEED)
    ranks = {"A": (1, MAX_RANK), "B": (2, MAX_RANK), "C": (2, MAX_RANK), "D": (3, MAX_RANK)}
    for family, (lo, hi) in ranks.items():
        for _ in range(PER_FAMILY):
            lt = LieType(family, rng.randint(lo, hi))
            t = random_tuple(rng, lt)
            word = criteria.weyl_factorize(t)
            violations = criteria.pair_violations(word, both_orders=False)
            if violations:
                return (
                    "factorization always cyclic",
                    False,
                    f"{lt}: factorized word violates at {violations[0]}",
                )
    return "factorization always cyclic", True, f"{PER_FAMILY} random tuples per family"


ALL_CHECKS = (
    check_s_positivity,
    check_t_to_s,
    check_type_a_symmetries,
    check_factorization_cyclicity,
    check_rank1_grid,
)


def run_all():
    return [check() for check in ALL_CHECKS]
