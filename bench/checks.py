"""Checks of the program's outputs against the benchmark's own constructions.

Each check takes a case made by `inputs` and what the program returned, and
gives a list of problems, empty when the output is right.  Expected values
come from the planted pairs and the closed forms in `inputs`, never from a
stored copy of an earlier output.
"""

from __future__ import annotations

import json
from fractions import Fraction

import inputs

IRREDUCIBLE = "IrreducibleGuaranteed"


def _status(family: str, violated: bool) -> str:
    if not violated:
        return IRREDUCIBLE
    return "ReducibleProven" if family == "A" else "NotGuaranteed"


def _pairs(violations) -> list[tuple]:
    """(m, n, real diff, imaginary diff, member) of library PairViolations."""
    return [(v.m, v.n, v.diff.re, v.diff.im, v.member) for v in violations]


def _planted(triples) -> list[tuple]:
    return [(m, n, d, 0, d) for m, n, d in triples]


def check_scan(case: dict, out) -> list[str]:
    """is_cyclic finds exactly the forward plants; is_irreducible both kinds."""
    cyc, irr = out
    errors = []
    if _pairs(cyc.violations) != _planted(case["fwd"]):
        errors.append(f"is_cyclic violations {_pairs(cyc.violations)} != planted {case['fwd']}")
    if cyc.cyclic_guaranteed != (not case["fwd"]):
        errors.append(f"cyclic_guaranteed {cyc.cyclic_guaranteed} with {len(case['fwd'])} plants")
    both = sorted(case["fwd"] + case["bwd"])
    if _pairs(irr.evidence) != _planted(both):
        errors.append(f"is_irreducible evidence {_pairs(irr.evidence)} != planted {both}")
    want = _status(case["family"], bool(both))
    if irr.status.value != want:
        errors.append(f"status {irr.status.value} != {want}")
    return errors


def check_string(case: dict, out) -> list[str]:
    """Local Weyl order is cyclic (the paper's theorem); the increasing order
    generates only the (k+1)-dimensional irreducible (Chari-Pressley)."""
    word, cyc, dims, (rank_dec, _), (rank_inc, _) = out
    k = len(case["roots"])
    got = [(f.param.re, f.param.im) for f in word.factors]
    errors = []
    if got != sorted(case["roots"], reverse=True) or any(f.node != 1 for f in word.factors):
        errors.append(f"factorized word {got} is not the roots in non-increasing order")
    if not cyc.cyclic_guaranteed or cyc.violations:
        errors.append(f"factorized word fails is_cyclic: {_pairs(cyc.violations)}")
    if dims != (2**k, 2**k):
        errors.append(f"module dimensions {dims} != 2^{k}")
    if rank_dec != 2**k:
        errors.append(f"closure in non-increasing order {rank_dec} != 2^{k}")
    if rank_inc != k + 1:
        errors.append(f"closure in increasing order {rank_inc} != {k + 1}")
    return errors


def check_oracle(case: dict, out) -> list[str]:
    """Type A equivalence: Burnside full iff the criterion guarantees irreducibility."""
    dim, (rank, _), algebra, cyc, verdict = out
    n = len(case["wire"][1]["factors"])
    guaranteed = verdict.status.value == IRREDUCIBLE
    errors = []
    if dim != 2**n:
        errors.append(f"dimension {dim} != 2^{n}")
    if (algebra == dim * dim) != guaranteed:
        errors.append(f"burnside_dim {algebra} of {dim * dim} but verdict {verdict.status.value}")
    if guaranteed != case["irreducible"]:
        errors.append(f"verdict {verdict.status.value} but planted irreducible={case['irreducible']}")
    if cyc.cyclic_guaranteed and rank != dim:
        errors.append(f"cyclic_guaranteed but closure {rank} < {dim}")
    return errors


# ---------------------------------------------------------------------------
# cli_oneshot: each check reads the JSON a `weylcyc` subprocess printed
# ---------------------------------------------------------------------------


def _word_params(wire: dict) -> list[tuple[int, tuple[Fraction, Fraction]]]:
    return [(f["node"], inputs.parse(f["a"])) for f in wire["factors"]]


def _violation_json(triples) -> list[dict]:
    return [
        {"m": m, "n": n, "diff": str(d), "set_member": str(d)} for m, n, d in triples
    ]


def _shifted(wire: dict, by: Fraction) -> list:
    return [(b, (x + by, y)) for b, (x, y) in _word_params(wire)]


def _check_dual(case: dict, word: dict, dual: dict) -> list[str]:
    """Order reversed, nodes through -w0, parameters shifted by -kappa."""
    family, l, kap = case["family"], case["l"], case["kappa"]
    want = [
        (inputs.minus_w0(family, l, b), (x - kap, y))
        for b, (x, y) in reversed(_word_params(word))
    ]
    if _word_params(dual) != want:
        return [f"dual {dual} is not the reversed, -w0, -{kap} shifted word"]
    return []


def check_cli(case: dict, code: int, stdout: str, stderr: str, twice_of=None) -> list[str]:
    """`twice_of` is the word a chained dual started from: the dual of its dual
    must be that word shifted by -2 kappa."""
    if code != 0:
        return [f"{case['cmd']} exited {code}: {stderr.strip()[-300:]}"]
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"{case['cmd']} printed no JSON: {exc}"]
    cmd = case["cmd"]
    if cmd == "sets" and out.get("s_set") != [str(v) for v in case["s_set"]]:
        return [f"sets {out.get('s_set')} != {[str(v) for v in case['s_set']]}"]
    if cmd == "tset" and out.get("derived_s") != [str(v) for v in case["s_set"]]:
        return [f"derived S {out.get('derived_s')} != {[str(v) for v in case['s_set']]}"]
    if cmd == "check":
        if out.get("violations") != _violation_json(case["fwd"]):
            return [f"check violations {out.get('violations')} != planted {case['fwd']}"]
        if out.get("cyclic_guaranteed") != (not case["fwd"]):
            return [f"cyclic_guaranteed {out.get('cyclic_guaranteed')}"]
    if cmd == "irreducible":
        both = sorted(case["fwd"] + case["bwd"])
        if out.get("violations") != _violation_json(both):
            return [f"irreducible violations {out.get('violations')} != planted {both}"]
        if out.get("status") != _status(case["family"], bool(both)):
            return [f"status {out.get('status')}"]
    if cmd == "dual":
        errors = _check_dual(case, out["word"], out["dual"])
        if out.get("kappa") != str(case["kappa"]):
            errors.append(f"kappa {out.get('kappa')} != {case['kappa']}")
        if twice_of is not None and _word_params(out["dual"]) != _shifted(twice_of, -2 * case["kappa"]):
            errors.append("dual applied twice is not the word shifted by -2 kappa")
        return errors
    if cmd == "factorize":
        k = case["k"]
        params = [p for _, p in _word_params(out["word"])]
        if params != sorted(params, reverse=True):
            return [f"factorized order {params} is not non-increasing"]
        if not out.get("closure_dim") == out.get("dim") == 2**k or out.get("full") is not True:
            return [f"factorize closure {out.get('closure_dim')} dim {out.get('dim')} != 2^{k}"]
    if cmd == "dims" and out.get("weyl_dim") != case["dim"]:
        return [f"dims {out.get('weyl_dim')} != {case['dim']}"]
    if cmd == "sl2-oracle":
        if out.get("agree") is not True:
            return [f"sl2-oracle disagrees: {out}"]
        if out.get("burnside_full") != case["irreducible"]:
            return [f"burnside_full {out.get('burnside_full')} but planted irreducible={case['irreducible']}"]
    return []
