"""Seeded inputs for the weylcyc benchmark, and the closed forms its checks use.

Nothing here imports weylcyc.  The inputs, and every answer the checks expect,
come from closed forms transcribed below from the paper and from
Chari-Pressley, so the checks owe nothing to the code under test.  The same
seed always gives the same inputs.

Each workload is a list of rounds; a run repeats whole passes over all of
them, and every operation in a workload costs about the same, so no median
falls between two cost classes.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction
from math import ceil, comb

# Sizes that fix the cost of one operation in each workload.
SCAN_LEN = 80  # factors per pairwise_scan word: 35-70 ms of O(k^2) pair scans
SCAN_CLEAN = 2  # words per round that get no planted pair
SCAN_PLANTED = 2  # violating pairs planted in each direction in the others
SCAN_COMPLEX = 4  # factors per word with a non-real parameter
STRING_LEN = 4  # k of the rank1_closure strings: modules of dimension 2^k = 16
STRING_ROUND = 4
ORACLE_LEN = 3  # rank1_oracle word length: dimension 8, Burnside in dimension 64
ORACLE_ROUND = 4  # one word per round has a planted pair; it is the cheaper kind
CLI_ROUNDS = 1  # distinct input sets for the eight-command cli_oneshot round
CLI_WORD_LEN = 6

WORKLOADS = ("pairwise_scan", "rank1_closure", "rank1_oracle", "cli_oneshot")

TYPES = tuple(
    (family, rank)
    for family, low in (("A", 1), ("B", 2), ("C", 2), ("D", 3))
    for rank in range(low, 9)
)
# One pairwise_scan word of each of these types per round, whatever the seed,
# so that the mix of types, and with it the cost of a round, is fixed.
SCAN_TYPES = tuple(
    (family, rank)
    for family, ranks in (("A", (3, 8)), ("B", (4, 8)), ("C", (4, 8)), ("D", (5, 8)))
    for rank in ranks
)


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def s_set(family: str, l: int, bm: int, bn: int) -> frozenset[Fraction]:
    """S(b_m, b_n): the parameter differences a_n - a_m that break cyclicity."""
    half = Fraction(1, 2)
    lo, gap = min(bm, bn), abs(bm - bn)
    if family == "A":
        top = min(bm, bn, l + 1 - bm, l + 1 - bn)
        return frozenset(gap * half + k for k in range(1, top + 1))
    if family == "B":
        if bm < l and bn < l:
            return frozenset(
                Fraction(x + 2 * r) for r in range(lo) for x in (gap + 2, 2 * l - bm - bn + 1)
            )
        if bn < l:  # bm == l
            return frozenset(Fraction(l - bn + 2 + 2 * r) for r in range(bn))
        if bm < l:  # bn == l
            return frozenset(Fraction(x) for x in range(l - bm, l + 1))
        return frozenset(Fraction(2 * k + 1) for k in range(l))
    if family == "C":
        if bm < l and bn < l:
            return frozenset(
                x + r
                for r in range(lo)
                for x in (gap * half + 1, l + 2 - (bm + bn) * half)
            )
        if bn < l:  # bm == l
            return frozenset(
                x + r for r in range(bn) for x in ((l - bn + 3) * half, (l - bn + 1) * half)
            )
        if bm < l:  # bn == l
            return frozenset((l - bm + 5) * half + r for r in range(bm))
        return frozenset(Fraction(k) for k in range(2, l + 2))
    # D: nodes l-1 and l are the spin nodes
    odd = l % 2
    spin_m, spin_n = bm >= l - 1, bn >= l - 1
    if not spin_m and not spin_n:
        return frozenset(
            x + r for r in range(lo) for x in (gap * half + 1, l - (bm + bn) * half)
        )
    if spin_m != spin_n:
        b = bn if spin_m else bm
        return frozenset((l + 1 - b) * half + r for r in range(b))
    if bm != bn:
        return frozenset(Fraction(k) for k in range(2, l - 1 + odd, 2))
    return frozenset(Fraction(k) for k in range(1, l - odd, 2))


def kappa(family: str, l: int) -> Fraction:
    """Half the dual Coxeter number."""
    return Fraction({"A": l + 1, "B": 2 * l - 1, "C": l + 1, "D": 2 * l - 2}[family], 2)


def minus_w0(family: str, l: int, node: int) -> int:
    """The node involution induced by -w0."""
    if family == "A":
        return l + 1 - node
    if family == "D" and l % 2 and node >= l - 1:
        return 2 * l - 1 - node
    return node


def local_weyl_dim_A(l: int, degrees: list[int]) -> int:
    """prod_i C(l+1, i)^deg(pi_i): the dimension of a type A local Weyl module."""
    out = 1
    for i, d in enumerate(degrees, start=1):
        out *= comb(l + 1, i) ** d
    return out


# ---------------------------------------------------------------------------
# Gaussian rationals in the wire format: "3/2", "-2", "3/2-1/2i"
# ---------------------------------------------------------------------------

_COMPLEX = re.compile(r"^([+-]?\d+(?:/\d+)?)(?:([+-]\d+(?:/\d+)?)i)?$")


def fmt(re_part: Fraction, im_part: Fraction = Fraction(0)) -> str:
    if not im_part:
        return str(re_part)
    return f"{re_part}{'+' if im_part > 0 else '-'}{abs(im_part)}i"


def parse(text: str) -> tuple[Fraction, Fraction]:
    m = _COMPLEX.match(text)
    if m is None:
        raise ValueError(f"not an exact complex rational: {text!r}")
    return Fraction(m.group(1)), Fraction(m.group(2) or 0)


def _gaussian(rng: random.Random) -> tuple[Fraction, Fraction]:
    """A spectral parameter with small denominators and a non-zero imaginary part."""
    re_part = Fraction(rng.randint(-30, 30), rng.choice((2, 3, 5, 7)))
    im_part = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice((2, 3, 5, 7)))
    return re_part, im_part


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def planted_word(rng, family, l, length, n_fwd, n_bwd, n_complex) -> dict:
    """A word whose only violating pairs are the ones planted.

    Real parts sit on a grid whose spacing exceeds twice the largest S-set
    member, so no two grid points differ by a member and a point moved by a
    member stays clear of every other point.  Each planted pair moves one
    position to its partner plus a member of the partner's S-set: forward
    pairs are seen by is_cyclic at (m, n); backward ones only by
    is_irreducible, at (n, m).  Non-real parameters have distinct imaginary
    parts, so none of their differences is real.
    """
    nodes = [rng.randint(1, l) for _ in range(length)]
    top = max(max(s_set(family, l, i, j)) for i in range(1, l + 1) for j in range(1, l + 1))
    spacing = 2 * ceil(top) + 1
    offset = Fraction(rng.randint(-40, 40), rng.choice((1, 2, 3)))
    slots = rng.sample(range(length), length)
    re_parts = [spacing * s + offset for s in slots]
    im_parts = [Fraction(0)] * length
    positions = rng.sample(range(length), length)
    for p, k in zip(positions[:n_complex], rng.sample(range(1, 40), n_complex)):
        im_parts[p] = Fraction(rng.choice((-1, 1)) * k, 2)
    free = positions[n_complex:]
    fwd, bwd = [], []
    for i in range(n_fwd + n_bwd):
        m, n = sorted(free[2 * i : 2 * i + 2])
        if i < n_fwd:
            s = rng.choice(sorted(s_set(family, l, nodes[m], nodes[n])))
            re_parts[n] = re_parts[m] + s
            fwd.append((m + 1, n + 1, re_parts[n] - re_parts[m]))
        else:
            s = rng.choice(sorted(s_set(family, l, nodes[n], nodes[m])))
            re_parts[m] = re_parts[n] + s
            bwd.append((n + 1, m + 1, re_parts[m] - re_parts[n]))
    wire = {
        "type": f"{family}{l}",
        "factors": [
            {"node": b, "a": fmt(x, y)} for b, x, y in zip(nodes, re_parts, im_parts)
        ],
    }
    return {"wire": ("word", wire), "family": family, "fwd": sorted(fwd), "bwd": sorted(bwd)}


def string_case(rng, k) -> dict:
    """The A1 root string a, a+1, ..., a+k-1 as a Drinfeld tuple."""
    re_part, im_part = _gaussian(rng)
    roots = [(re_part + j, im_part) for j in range(k)]
    wire = {"type": "A1", "polys": [[fmt(x, y) for x, y in roots]]}
    return {"wire": ("tuple", wire), "roots": roots}


def _a1_offsets(rng, length, planted) -> list[Fraction]:
    """Distinct real offsets, no two a distance 1 apart, except one pair if planted."""
    while True:
        offs = [Fraction(rng.randint(-12, 12), rng.choice((2, 3, 5))) for _ in range(length)]
        if planted:
            i, j = rng.sample(range(length), 2)
            offs[j] = offs[i] + rng.choice((-1, 1))
        dists = [abs(x - y) for n, x in enumerate(offs) for y in offs[:n]]
        if 0 not in dists and dists.count(1) == int(planted):
            return offs


def oracle_case(rng, length, planted) -> dict:
    """An A1 word sharing one imaginary part, so every difference is real."""
    re_part, im_part = _gaussian(rng)
    params = [(re_part + x, im_part) for x in _a1_offsets(rng, length, planted)]
    wire = {"type": "A1", "factors": [{"node": 1, "a": fmt(x, y)} for x, y in params]}
    return {"wire": ("word", wire), "irreducible": not planted}


def cli_round(rng) -> list[dict]:
    """One of each subcommand, on inputs small enough that start-up dominates."""
    l = rng.randint(1, 8)
    bm, bn = rng.randint(1, l), rng.randint(1, l)
    cases = [
        {
            "cmd": "sets",
            "argv": ["sets", "--type", f"A{l}", "--bm", str(bm), "--bn", str(bn)],
            "s_set": sorted(s_set("A", l, bm, bn)),
        }
    ]
    l = rng.randint(2, 8)
    bm, bn = rng.randint(1, l), rng.randint(1, l)
    cases.append(
        {
            "cmd": "tset",
            "argv": ["sets", "--type", f"C{l}", "--bm", str(bm), "--bn", str(bn), "--tset"],
            "s_set": sorted(s_set("C", l, bm, bn)),
        }
    )
    for cmd, flags in (("check", []), ("irreducible", ["--irreducible"])):
        family, l = rng.choice(TYPES)
        case = planted_word(rng, family, l, CLI_WORD_LEN, 1, 1, 1)
        case.update(cmd=cmd, argv=["check", *flags])
        cases.append(case)
    family, l = rng.choice(TYPES)
    case = planted_word(rng, family, l, CLI_WORD_LEN, 0, 0, 1)
    case.update(cmd="dual", argv=["dual"], kappa=kappa(family, l), l=l)
    cases.append(case)
    roots = sorted(_gaussian(rng) for _ in range(3))
    cases.append(
        {
            "cmd": "factorize",
            "argv": ["factorize"],
            "wire": ("tuple", {"type": "A1", "polys": [[fmt(x, y) for x, y in roots]]}),
            "k": len(roots),
        }
    )
    l = rng.randint(1, 8)
    degrees = [0] * l
    for _ in range(rng.randint(1, 3)):
        degrees[rng.randrange(l)] += 1
    polys = [[fmt(*z) for z in sorted(_gaussian(rng) for _ in range(d))] for d in degrees]
    cases.append(
        {
            "cmd": "dims",
            "argv": ["dims"],
            "wire": ("tuple", {"type": f"A{l}", "polys": polys}),
            "dim": local_weyl_dim_A(l, degrees),
        }
    )
    case = oracle_case(rng, 2, rng.random() < 0.5)
    case.update(cmd="sl2-oracle", argv=["sl2-oracle"])
    cases.append(case)
    return cases


def make(workload: str, seed: int) -> list[list[dict]]:
    """The rounds of one workload for one seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "pairwise_scan":
        clean = set(rng.sample(range(len(SCAN_TYPES)), SCAN_CLEAN))
        return [
            [
                planted_word(
                    rng, family, l, SCAN_LEN,
                    0 if i in clean else SCAN_PLANTED,
                    0 if i in clean else SCAN_PLANTED,
                    SCAN_COMPLEX,
                )
                for i, (family, l) in enumerate(SCAN_TYPES)
            ]
        ]
    if workload == "rank1_closure":
        return [[string_case(rng, STRING_LEN) for _ in range(STRING_ROUND)]]
    if workload == "rank1_oracle":
        planted = rng.randrange(ORACLE_ROUND)
        return [[oracle_case(rng, ORACLE_LEN, i == planted) for i in range(ORACLE_ROUND)]]
    if workload == "cli_oneshot":
        return [cli_round(rng) for _ in range(CLI_ROUNDS)]
    raise ValueError(f"unknown workload {workload!r}")
