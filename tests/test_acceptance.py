"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  All equality checks are exact (zero tolerance); the only
bounds are the per-criterion runtime budgets.
"""

import io
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from contextlib import contextmanager, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from weylcyc import (
    CRational,
    FundamentalFactor,
    IrreducibilityStatus,
    LieType,
    MonicPoly,
    TensorWord,
    burnside_dim,
    cartan_data,
    hw_closure,
    irrep_Wm,
    is_cyclic,
    is_irreducible,
    s_set,
    selftest,
    tensor,
)
from weylcyc.cli import main
from weylcyc.drinfeld import word_to_dict
from weylcyc.selftest import (
    a1_word,
    check_factorization_cyclicity,
    check_rank1_grid,
    check_t_to_s,
    check_type_a_symmetries,
    rank1_grid,
)

from reference import (
    anticommutator,
    apply,
    apply_shift,
    expected_modes,
    local_weyl,
    matmul,
    mode_operators,
    mu_series,
    planted_word,
    power,
    reference_irreducible_violations,
    shift_word,
    unit,
)


def cr(x, y=0):
    return CRational(Fraction(x), Fraction(y))


def rand_fraction(rng, span=12, dens=(1, 2, 3, 4)):
    return Fraction(rng.randint(-span, span), rng.choice(dens))


@contextmanager
def criterion(num, desc, budget=None, spent=0.0):
    """`spent` is time already taken for this criterion outside the block."""
    t0 = time.perf_counter() - spent
    try:
        yield
    except Exception:
        print(f"FAIL criterion {num:2d}: {desc}")
        raise
    elapsed = time.perf_counter() - t0
    print(f"PASS criterion {num:2d}: {desc} [{elapsed:.2f}s]")
    if budget is not None:
        assert elapsed < budget, f"runtime {elapsed:.2f}s over budget {budget}s"


def test_criterion_01_basis_action():
    rng = random.Random(101)
    with criterion(1, "mode ladder reproduces the closed basis action, m <= 4", 5):
        for m in range(1, 5):
            for _ in range(20):
                a = cr(rand_fraction(rng))
                modes = mode_operators(irrep_Wm(m, a), 3)
                for k in range(4):
                    xp, xm, h = expected_modes(m, a, k)
                    assert modes.xp[k] == xp
                    assert modes.xm[k] == xm
                    assert modes.h[k] == h


def test_criterion_02_corollary_identities():
    rng = random.Random(102)
    with criterion(2, "lowering-mode identities on W1, W2 and W1 x W1", 5):
        for _ in range(10):
            a, b = cr(rand_fraction(rng)), cr(rand_fraction(rng))
            # trio on W1(a): h_k, x_k^- and h_k x_0^- actions on w1
            modes = mode_operators(irrep_Wm(1, a), 3)
            w1 = unit(2, 1)
            x0m_w1 = apply(modes.xm[0], w1)
            for k in range(4):
                scale = power(a, k)
                assert apply(modes.h[k], w1) == [scale * x for x in w1]
                assert apply(modes.xm[k], w1) == [scale * x for x in x0m_w1]
                assert apply(modes.h[k], x0m_w1) == [-scale * x for x in x0m_w1]
            # anticommutator pair on W2(a)
            modes = mode_operators(irrep_Wm(2, a), 2)
            w2 = unit(3, 2)
            x0, x1, x2 = modes.xm[0], modes.xm[1], modes.xm[2]
            sq = apply(matmul(x0, x0), w2)
            assert apply(anticommutator(x1, x0), w2) == [(cr(2) * a + cr(1)) * x for x in sq]
            assert apply(anticommutator(x2, x0), w2) == [
                (cr(2) * a * a + cr(2) * a + cr(1)) * x for x in sq
            ]
            # anticommutator pair on W1(b) x W1(a)
            prod = tensor(irrep_Wm(1, b), irrep_Wm(1, a))
            modes = mode_operators(prod, 2)
            top = unit(4, prod.top_index)
            x0, x1, x2 = modes.xm[0], modes.xm[1], modes.xm[2]
            sq = apply(matmul(x0, x0), top)
            assert apply(anticommutator(x1, x0), top) == [(a + b) * x for x in sq]
            assert apply(anticommutator(x0, x2), top) == [(a * a + b * b) * x for x in sq]


@pytest.fixture(scope="module")
def grid():
    """`rank1_grid()` and the seconds it took, computed once for criteria 03 and 04."""
    t0 = time.perf_counter()
    result = rank1_grid()
    return result, time.perf_counter() - t0


def test_criterion_03_cyclicity_soundness(grid):
    (checked, failure), spent = grid
    with criterion(3, "criterion-cyclic grid words have full closure, length <= 3", 60, spent):
        assert failure is None, failure
        assert checked > 500


def test_criterion_04_irreducibility_equivalence(grid, monkeypatch):
    monkeypatch.setattr(selftest, "rank1_grid", lambda: grid[0])
    with criterion(4, "burnside dimension matches the pairwise verdict exactly, length <= 3",
                   120, grid[1]):
        _, ok, detail = check_rank1_grid()
        assert ok, detail


def test_criterion_05_closure_regression_values():
    with criterion(5, "frozen closure dimensions for the two orderings of {0,1}"):
        assert hw_closure(tensor(irrep_Wm(1, cr(0)), irrep_Wm(1, cr(1))))[0] == 3
        assert hw_closure(tensor(irrep_Wm(1, cr(1)), irrep_Wm(1, cr(0))))[0] == 4


def test_criterion_06_local_weyl_dimension():
    rng = random.Random(106)
    with criterion(6, "rank-1 local Weyl modules have full closure 2^m, m <= 6", 30):
        for m in range(1, 7):
            module = local_weyl([cr(k) for k in range(m)])
            assert module.dim == 2**m
            assert hw_closure(module)[0] == 2**m
        for m in range(1, 5):
            roots = [cr(rand_fraction(rng, span=4)) for _ in range(m)]
            module = local_weyl(roots)
            assert hw_closure(module)[0] == 2**m


def test_criterion_07_t_to_s_derivation():
    with criterion(7, "derived S-sets equal tabulated S-sets for C2..C8", 1):
        _, ok, detail = check_t_to_s()
        assert ok, detail


def test_criterion_08_s_set_spot_checks():
    with criterion(8, "tabulated S-set spot checks across all four families"):
        for l in range(2, 9):
            b = cartan_data(LieType("B", l))
            assert s_set(b, l, l).values == {Fraction(2 * k + 1) for k in range(l)}
            c = cartan_data(LieType("C", l))
            assert s_set(c, l, l).values == set(map(Fraction, range(2, l + 2)))
        for l in range(3, 9):
            d = cartan_data(LieType("D", l))
            lbar = 0 if l % 2 == 0 else 1
            mixed = set(map(Fraction, range(2, l - 2 + lbar + 1, 2)))
            same = set(map(Fraction, range(1, l - 1 - lbar + 1, 2)))
            assert s_set(d, l, l - 1).values == mixed
            assert s_set(d, l - 1, l).values == mixed
            assert s_set(d, l, l).values == same
            assert s_set(d, l - 1, l - 1).values == same
        a3 = cartan_data(LieType("A", 3))
        assert s_set(a3, 1, 2).values == {Fraction(3, 2)}


def test_criterion_09_type_a_symmetries():
    with criterion(9, "type A S-set swap and duality symmetries, ranks <= 8"):
        _, ok, detail = check_type_a_symmetries()
        assert ok, detail


def test_criterion_10_mu_series_coefficients():
    rng = random.Random(110)
    with criterion(10, "degree-2 highest-weight series coefficients"):
        for _ in range(5):
            a, b = cr(rand_fraction(rng)), cr(rand_fraction(rng))
            series = mu_series(MonicPoly((a, b)), 1, 3)
            assert series.coeffs == (
                cr(1),
                cr(2),
                a + b + cr(1),
                a * a + b * b + a + b,
            )


def test_criterion_11_shift_covariance():
    rng = random.Random(111)
    with criterion(11, "spectral shift covariance and verdict invariance"):
        for m in range(1, 4):
            for _ in range(5):
                b, c = cr(rand_fraction(rng)), cr(rand_fraction(rng))
                assert apply_shift(irrep_Wm(m, b), c) == irrep_Wm(m, b + c)
        words = [
            a1_word((Fraction(0), Fraction(1))),
            TensorWord(
                LieType("C", 2),
                (FundamentalFactor(2, cr(0)), FundamentalFactor(1, cr(3))),
            ),
            TensorWord(
                LieType("D", 4),
                (FundamentalFactor(3, cr(0)), FundamentalFactor(4, cr(2))),
            ),
        ]
        shifts = [cr(Fraction(7, 3)), cr(Fraction(1, 2), 2), cr(0, -1)]
        for w in words:
            cyc = is_cyclic(w).cyclic_guaranteed
            irr = is_irreducible(w).status
            for c in shifts:
                assert is_cyclic(shift_word(w, c)).cyclic_guaranteed == cyc
                assert is_irreducible(shift_word(w, c)).status == irr


def test_criterion_12_coassociativity():
    rng = random.Random(112)
    with criterion(12, "tensor product associative at the matrix level"):
        for _ in range(5):
            a, b, c = (cr(rand_fraction(rng, span=6)) for _ in range(3))
            x, y, z = irrep_Wm(1, a), irrep_Wm(1, b), irrep_Wm(1, c)
            left = tensor(tensor(x, y), z)
            right = tensor(x, tensor(y, z))
            assert left.xp == right.xp
            assert left.xm == right.xm
            assert left.h0 == right.h0
            assert left.hbar1 == right.hbar1
            assert left.top_index == right.top_index


def test_criterion_13_factorization_always_cyclic():
    with criterion(13, "ordered factorization passes the cyclicity criterion"):
        _, ok, detail = check_factorization_cyclicity()
        assert ok, detail


def test_criterion_14_local_weyl_string_of_eight():
    with criterion(14, "local Weyl module of the string 0..7 has full closure 256", 10):
        module = local_weyl([cr(k) for k in range(8)])
        assert module.dim == 256
        assert hw_closure(module)[0] == 256


def test_criterion_15_reducible_local_weyl_algebras():
    # values frozen from the ungraded exact saturation (it took 0.5 and 20 s);
    # with k = 2, 3, 4 (13, 40, 121) and k = 7 (3280) they fit
    # (3^(k+1) - 1) / 2 for the string of k roots, an observed pattern, not a
    # proven formula
    with criterion(15, "Burnside algebras of the local Weyl strings 0..4, 0..5: 364, 1093", 5):
        for k, algebra in ((5, 364), (6, 1093)):
            assert burnside_dim(local_weyl([cr(j) for j in range(k)])) == algebra


def test_criterion_16_long_word_scan_budget():
    # the budget fails a loop over all k(k-1)/2 pairs: about 10 s per call here
    rng = random.Random(116)
    w, fwd, bwd = planted_word(rng, LieType("D", 8), 1600, 3, 3, 4)
    with criterion(16, "1600-factor D8 word: exactly the planted pairs, both criteria", 1):
        cyc = is_cyclic(w)
        irr = is_irreducible(w)
        assert [(v.m, v.n, v.member) for v in cyc.violations] == fwd
        assert [(v.m, v.n, v.member) for v in irr.evidence] == sorted(fwd + bwd)
        assert all(v.diff == cr(v.member) for v in cyc.violations + irr.evidence)
        assert irr.status is IrreducibilityStatus.NOT_GUARANTEED


def test_criterion_17_check_cost_is_flat_in_the_rank():
    # building an S-set of about l members per node pair, as the scan once
    # did, took 22 s and 283 MB on this word
    rng = random.Random(117)
    lt = LieType("D", 1024)
    w = TensorWord(lt, tuple(
        FundamentalFactor(rng.randint(1, lt.rank), cr(Fraction(rng.randint(-100, 100), 2)))
        for _ in range(100)
    ))
    out = io.StringIO()
    tracemalloc.start()
    try:
        with criterion(17, "100-factor D1024 word: check --irreducible in 1 s and 32 MB", 1):
            with redirect_stdout(out):
                code = main(["check", "--irreducible", "--word", json.dumps(word_to_dict(w))])
            peak = tracemalloc.get_traced_memory()[1]
            assert code == 0 and peak < 32 << 20, peak
    finally:
        tracemalloc.stop()
    report = json.loads(out.getvalue())
    assert report["status"] == "NotGuaranteed"
    got = [(v["m"], v["n"], v["diff"], v["set_member"]) for v in report["violations"]]
    # The reference builds every S-set it reads, which is the old cost, so it
    # runs on the first 40 factors; their pairs are the word's pairs among them.
    prefix = TensorWord(lt, w.factors[:40])
    expected = reference_irreducible_violations(prefix)
    assert [(m, n, d, s) for m, n, d, s in got if n <= 40 and m <= 40] == [
        (v.m, v.n, str(v.diff), str(v.member)) for v in expected
    ]
    assert expected and len(got) > len(expected)


def test_criterion_18_factorize_with_large_parameters():
    # nine complex roots whose parts have 6-digit numerators and distinct
    # 6-digit denominators: closing the module over the Gaussian integers
    # alone took 46-82 s per process
    rng = random.Random(118)
    dens = rng.sample(range(100_000, 1_000_000), 18)
    roots = [
        f"{rng.randint(-999_999, 999_999)}/{dens[2 * k]}+{rng.randint(100_000, 999_999)}/{dens[2 * k + 1]}i"
        for k in range(9)
    ]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = ["factorize", "--tuple", json.dumps({"type": "A1", "polys": [roots]})]
    with criterion(18, "factorize process on 9 roots with 6-digit complex parts: full closure 512", 10):
        done = subprocess.run(
            [sys.executable, "-c", "import sys; from weylcyc.cli import main; sys.exit(main())", *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        report = json.loads(done.stdout)
        assert (report["closure_dim"], report["dim"], report["full"]) == (512, 512, True)
