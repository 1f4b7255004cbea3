"""Built-in invariant suite, shared by the CLI selftest subcommand.

Each check returns (name, ok, detail).  The rank-1 grid checks exercise the
pairwise criteria against the matrix oracles over a half-integer parameter
grid; the table checks sweep every node pair up to rank 8.
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


def rank1_cyclicity_grid() -> tuple[int, str | None]:
    """Close every criterion-cyclic grid word of length <= MAX_GRID_LEN; return
    how many were closed and the first whose closure falls short (None if none)."""
    checked = 0
    for length in range(1, MAX_GRID_LEN + 1):
        for params in _grid_words(length):
            if criteria.is_cyclic(a1_word(params)).cyclic_guaranteed:
                module = sl2.word_module((1, a) for a in params)
                rank, _ = sl2.hw_closure(module)
                checked += 1
                if rank != module.dim:
                    return checked, (
                        f"params {params}: criterion passed but closure {rank} < {module.dim}"
                    )
    return checked, None


def check_rank1_cyclicity_grid() -> tuple[str, bool, str]:
    checked, failure = rank1_cyclicity_grid()
    detail = failure or f"{checked} cyclic words, length <= {MAX_GRID_LEN}"
    return "rank-1 cyclicity soundness", failure is None, detail


def check_rank1_irreducibility_grid() -> tuple[str, bool, str]:
    """A full Burnside algebra must come with IrreducibleGuaranteed and a
    smaller one with ReducibleProven (type A), on every length-2 grid word."""
    for params in _grid_words(2):
        verdict = criteria.is_irreducible(a1_word(params)).status
        full = sl2.burnside_dim(sl2.word_module((1, a) for a in params)) == 16
        expected = (IrreducibilityStatus.IRREDUCIBLE_GUARANTEED if full
                    else IrreducibilityStatus.REDUCIBLE_PROVEN)
        if verdict is not expected:
            return (
                "rank-1 irreducibility equivalence",
                False,
                f"params {params}: burnside full={full} but verdict {verdict.value}",
            )
    return "rank-1 irreducibility equivalence", True, f"{len(GRID) ** 2} length-2 words"


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
            report = criteria.is_cyclic(word)
            if not report.cyclic_guaranteed:
                return (
                    "factorization always cyclic",
                    False,
                    f"{lt}: factorized word violates at {report.violations[0]}",
                )
    return "factorization always cyclic", True, f"{PER_FAMILY} random tuples per family"


ALL_CHECKS = (
    check_s_positivity,
    check_t_to_s,
    check_type_a_symmetries,
    check_factorization_cyclicity,
    check_rank1_cyclicity_grid,
    check_rank1_irreducibility_grid,
)


def run_all():
    return [check() for check in ALL_CHECKS]
