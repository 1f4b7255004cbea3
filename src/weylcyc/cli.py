"""Batch command-line front end.

Each subcommand handler builds its report and returns it with the exit code;
`main` prints the report once, as one JSON document with exact
string-encoded rationals and sorted keys (indented under --pretty), and
prints nothing on stdout when the handler raises.  Exit codes: 0 success,
1 usage or parse error, 2 criterion violated / oracle mismatch (with
--assert) or a failed selftest.  A handler imports the rank-1 engine or
the dimension tables itself, so the other commands never load them, and
`check` reads the scan's violations without building a criteria report, so
no command loads `dataclasses` (`weylcyc.reports`).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import criteria
from .drinfeld import (
    tuple_from_dict,
    tuple_to_dict,
    word_from_dict,
    word_to_dict,
)
from .rootsys import LieType, cartan_data

# A rank-1 module of k factors W_1(a) has dimension 2^k.  These caps keep one
# call under about 10 s while the parameters' numerators and denominators are
# short: `factorize` closes the module; `sl2-oracle` closes the module and its
# dual, and on a reducible word also saturates the algebra in dimension 4^k,
# so reducible words set its cap: the slowest 5-factor word took 2.4 s, a
# 6-factor word with one pair of complex roots 1 apart 440 s.  Parameter size
# has no bound.  It no longer sets the cost of `factorize`, whose closure is
# full and decided mod p (9 complex roots with 6-digit parts: 0.2-0.35 s),
# but 5 reducible factors with 6-digit complex parts took 11-13 s in
# `sl2-oracle`, which saturates them exactly (README, Notes).
MAX_FACTORIZE_ROOTS = 9
MAX_ORACLE_FACTORS = 5
# `check` tests S-set membership in closed form and `dims` sizes a result too
# long to print from logarithms, so what grows with the rank l is O(l) data:
# the Cartan record, the T-set of `sets --tset`, the built-in `dims` table of
# l binomials.  In fresh processes at rank 4096 `dims` took 0.13-0.15 s and
# every other command at most 0.39 s, `check` and `dual` on 100-factor words;
# none passed 24 MB (README, Notes).
MAX_RANK = 4096


class _Parser(argparse.ArgumentParser):
    # usage errors exit with 1, reserving 2 for failed assertions
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _unique_keys(pairs: list) -> dict:
    data = dict(pairs)
    if len(data) < len(pairs):  # json would keep the last value of a repeated key
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise KeyError(key)
            seen.add(key)
    return data


def _check_rank(lt: LieType) -> LieType:
    if lt.rank > MAX_RANK:
        raise ValueError(f"weylcyc takes Lie types of rank at most {MAX_RANK}, got {lt}")
    return lt


def _load(text: str, what: str, decode):
    """Decode the JSON argument text; its Lie type must be within the rank cap."""
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed {what} JSON: {exc}") from None
    except KeyError as exc:  # from _unique_keys
        raise ValueError(f"{what} JSON has the key {exc.args[0]!r} twice") from None
    except ValueError:
        # json reads an integer through int(), which refuses more digits
        # than sys.get_int_max_str_digits()
        raise ValueError(
            f"{what} JSON holds an integer too long to read"
            f" (more than {sys.get_int_max_str_digits()} digits)"
        ) from None
    obj = decode(data)
    _check_rank(obj.type)
    return obj


def _violations_json(violations) -> list[dict]:
    return [
        {"m": v.m, "n": v.n, "diff": str(v.diff), "set_member": str(v.member)}
        for v in violations
    ]


def _cmd_sets(args) -> tuple[dict, int]:
    lt = _check_rank(LieType.parse(args.type))
    data = cartan_data(lt)
    if args.tset:
        tset = criteria.t_set_C(data, args.bm, args.bn)
        derived = criteria.derive_s_from_t(data, args.bm, args.bn)
        report = {
            "type": str(lt),
            "i": args.bm,
            "rj": args.bn,
            "t_set": [
                {"scale": str(scale), "shift": str(shift), "root": _render_root(scale, shift)}
                for scale, shift in tset.sorted_offsets()
            ],
            "derived_s": [str(v) for v in derived.sorted_values()],
        }
        return report, 0
    sset = criteria.s_set(data, args.bm, args.bn)
    report = {
        "type": str(lt),
        "bm": args.bm,
        "bn": args.bn,
        "s_set": [str(v) for v in sset.sorted_values()],
    }
    return report, 0


def _render_root(scale, shift) -> str:
    base = f"a1+{shift}" if shift else "a1"
    return base if scale == 1 else f"({base})/2"


def _cmd_check(args) -> tuple[dict, int]:
    word = _load(args.word, "word", word_from_dict)
    violations = criteria.pair_violations(word, both_orders=args.irreducible)
    if args.irreducible:
        key, value = "status", criteria.irreducibility_status(word, violations).value
    else:
        key, value = "cyclic_guaranteed", not violations
    report = {
        "word": word_to_dict(word),
        key: value,
        "violations": _violations_json(violations),
    }
    # both criteria are violated exactly when some pair is
    return report, 2 if args.assert_ and violations else 0


_KAPPA_NOTE = (
    "kappa is half the dual Coxeter number (closed form); its normalization"
    " is informational only"
)


def _cmd_dual(args) -> tuple[dict, int]:
    word = _load(args.word, "word", word_from_dict)
    report = {
        "word": word_to_dict(word),
        "dual": word_to_dict(criteria.left_dual(word)),
        "kappa": str(cartan_data(word.type).kappa),
        "note": _KAPPA_NOTE,
    }
    return report, 0


def _check_cap(command: str, size: int, cap: int, unit: str) -> None:
    if size > cap:
        raise ValueError(
            f"{command} takes at most {cap} {unit} on A1 (a rank-1 module of"
            f" dimension 2^{cap}), got {size}"
        )


def _cmd_factorize(args) -> tuple[dict, int]:
    t = _load(args.tuple, "tuple", tuple_from_dict)
    word = criteria.weyl_factorize(t)
    report = {"tuple": tuple_to_dict(t), "word": word_to_dict(word)}
    if t.type == LieType("A", 1):
        _check_cap("factorize", len(word.factors), MAX_FACTORIZE_ROOTS, "roots")
        from . import sl2

        module = sl2.word_module((1, f.param) for f in word.factors)
        rank, _ = sl2.hw_closure(module)
        report.update(
            {"closure_dim": rank, "dim": module.dim, "full": rank == module.dim}
        )
    return report, 0


def _cmd_dims(args) -> tuple[dict, int]:
    from . import weyl_dims

    t = _load(args.tuple, "tuple", tuple_from_dict)
    if args.table is not None:
        table = _load(args.table, "table", weyl_dims.table_from_dict)
    else:
        table = weyl_dims.builtin_table(t.type)
    # far past the digits Python prints, name the size without forming the product
    digits = sum(p.degree * math.log10(table.dims.get(i, 1)) for i, p in enumerate(t.polys, 1))
    if 0 < 2 * sys.get_int_max_str_digits() < digits:
        raise ValueError(f"the dimension has about {int(digits) + 1} decimal digits, too many to print")
    dim = weyl_dims.dim_local_weyl(t, table)
    try:
        str(dim)  # Python refuses more than sys.get_int_max_str_digits() digits
    except ValueError:
        bits = dim.bit_length()
        raise ValueError(
            f"the dimension has about {int(bits * math.log10(2)) + 1} decimal digits"
            f" ({bits} bits), too many to print"
        ) from None
    report = {
        "tuple": tuple_to_dict(t),
        "weyl_dim": dim,
        "table_source": table.source,
    }
    return report, 0


def _cmd_sl2_oracle(args) -> tuple[dict, int]:
    word = _load(args.word, "word", word_from_dict)
    if word.type != LieType("A", 1):
        raise ValueError(f"sl2-oracle requires type A1 words, got {word.type}")
    _check_cap("sl2-oracle", len(word.factors), MAX_ORACLE_FACTORS, "factors")
    from . import selftest

    report = {"word": word_to_dict(word), **selftest.rank1_report(word)}
    return report, 2 if args.assert_ and not report["agree"] else 0


def _cmd_selftest(args) -> tuple[dict, int]:
    from . import selftest

    checks = [
        {"name": name, "passed": ok, "detail": detail}
        for name, ok, detail in selftest.run_all()
    ]
    passed = all(check["passed"] for check in checks)
    return {"checks": checks, "passed": passed}, 0 if passed else 2


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="weylcyc")
    common = _Parser(add_help=False)
    common.add_argument("--pretty", action="store_true", help="indent the JSON report")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sets", parents=[common],
                       help="print S(b_m, b_n), or T-sets for type C")
    p.add_argument("--type", required=True)
    p.add_argument("--bm", type=int, required=True)
    p.add_argument("--bn", type=int, required=True)
    p.add_argument("--tset", action="store_true", help="print T(bm, bn) instead (type C)")
    p.set_defaults(func=_cmd_sets)

    p = sub.add_parser("check", parents=[common], help="run the cyclicity or irreducibility criterion")
    p.add_argument("--word", required=True, help="tensor word JSON")
    p.add_argument("--irreducible", action="store_true")
    p.add_argument("--assert", dest="assert_", action="store_true",
                   help="exit 2 when the criterion is violated")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("dual", parents=[common], help="left dual of a tensor word")
    p.add_argument("--word", required=True)
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser("factorize", parents=[common], help="order a Drinfeld tuple into a cyclic word")
    p.add_argument("--tuple", required=True, help="Drinfeld tuple JSON")
    p.set_defaults(func=_cmd_factorize)

    p = sub.add_parser("dims", parents=[common], help="local Weyl module dimension")
    p.add_argument("--tuple", required=True)
    p.add_argument("--table", help="fundamental dimension table JSON (required outside type A)")
    p.set_defaults(func=_cmd_dims)

    p = sub.add_parser("sl2-oracle", parents=[common], help="matrix oracles vs criterion for an A1 word")
    p.add_argument("--word", required=True)
    p.add_argument("--assert", dest="assert_", action="store_true",
                   help="exit 2 when the oracles disagree with the criterion")
    p.set_defaults(func=_cmd_sl2_oracle)

    p = sub.add_parser("selftest", parents=[common], help="run the built-in invariant suite")
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report, code = args.func(args)
        text = json.dumps(report, sort_keys=True, indent=2 if args.pretty else None)
    except (ValueError, KeyError, ArithmeticError, RuntimeError) as exc:
        print(f"weylcyc: error: {exc}", file=sys.stderr)
        return 1
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
