import contextlib
import io
import json
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weylcyc import is_cyclic, is_irreducible, selftest, sl2, weyl_dims
from weylcyc.cli import MAX_FACTORIZE_ROOTS, MAX_ORACLE_FACTORS, MAX_RANK, main
from weylcyc.drinfeld import word_from_dict, word_to_dict

from test_criteria import dense_tensor_words, tensor_words
from test_readme import EXAMPLES

WORD_01 = '{"type":"A1","factors":[{"node":1,"a":"0"},{"node":1,"a":"1"}]}'
WORD_10 = '{"type":"A1","factors":[{"node":1,"a":"1"},{"node":1,"a":"0"}]}'


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_sets_b4(capsys):
    code, out, _ = run(capsys, "sets", "--type", "B4", "--bm", "4", "--bn", "4")
    assert code == 0
    assert json.loads(out)["s_set"] == ["1", "3", "5", "7"]


def test_sets_case_insensitive_type(capsys):
    code, out, _ = run(capsys, "sets", "--type", "c3", "--bm", "1", "--bn", "1")
    assert code == 0
    assert json.loads(out)["s_set"] == ["1", "4"]


def test_sets_non_canonical_rank_exit_one(capsys):
    for text in ["A+3", "A 3", "a03", "A\u0663"]:
        code, out, err = run(capsys, "sets", "--type", text, "--bm", "1", "--bn", "1")
        assert code == 1 and out == ""
        assert "cannot parse rank" in err


def test_sets_tset(capsys):
    code, out, _ = run(capsys, "sets", "--type", "C3", "--bm", "3", "--bn", "3", "--tset")
    assert code == 0
    report = json.loads(out)
    assert [e["root"] for e in report["t_set"]] == ["(a1)/2", "(a1+1)/2", "(a1+2)/2"]
    assert report["derived_s"] == ["2", "3", "4"]


def test_sets_tset_requires_type_c(capsys):
    code, _, err = run(capsys, "sets", "--type", "B3", "--bm", "1", "--bn", "1", "--tset")
    assert code == 1
    assert "type C" in err


def test_check_cyclic(capsys):
    code, out, _ = run(capsys, "check", "--word", WORD_10)
    assert code == 0
    assert json.loads(out)["cyclic_guaranteed"] is True


def test_check_violation_listed(capsys):
    code, out, _ = run(capsys, "check", "--word", WORD_01)
    assert code == 0
    report = json.loads(out)
    assert report["cyclic_guaranteed"] is False
    assert report["violations"] == [{"m": 1, "n": 2, "diff": "1", "set_member": "1"}]


def test_check_irreducible_exit_zero_without_assert(capsys):
    code, out, _ = run(capsys, "check", "--word", WORD_01, "--irreducible")
    assert code == 0
    assert json.loads(out)["status"] == "ReducibleProven"


def test_check_assert_exit_two(capsys):
    code, _, _ = run(capsys, "check", "--word", WORD_01, "--assert")
    assert code == 2
    code, _, _ = run(capsys, "check", "--word", WORD_10, "--assert")
    assert code == 0
    code, _, _ = run(capsys, "check", "--word", WORD_01, "--irreducible", "--assert")
    assert code == 2


def test_check_bad_json_exit_one(capsys):
    code, _, err = run(capsys, "check", "--word", "{not json")
    assert code == 1 and "malformed" in err


def test_check_bad_node_exit_one(capsys):
    code, _, err = run(capsys, "check", "--word", '{"type":"A1","factors":[{"node":2,"a":"0"}]}')
    assert code == 1 and "out of range" in err


@pytest.mark.parametrize(
    "argv, field",
    [
        (
            ["check", "--word", '{"type":"A1","factors":[{"node":true,"a":"0"},{"node":1,"a":"1"}]}'],
            "'node'",
        ),
        (
            [
                "dims",
                "--tuple",
                '{"type":"C3","polys":[["0"],["1"],[]]}',
                "--table",
                '{"type":"C3","dims":{"1":true,"2":14,"3":14}}',
            ],
            "'dims' entry for node 1",
        ),
    ],
)
def test_json_boolean_is_not_an_integer(capsys, argv, field):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert field in err and "must be an integer" in err


LONG_PARAM = "1" + "0" * 4400  # int() refuses more than 4300 digits by default


@pytest.mark.parametrize(
    "argv, field, problem",
    [
        (["check", "--word", '{"type":"A1","factors":[{"node":1,"a":"1/0"}]}'], "factor 'a'",
         "zero denominator"),
        (["factorize", "--tuple", '{"type":"A1","polys":[["2","1/0"]]}'], "'polys' root",
         "zero denominator"),
        (["check", "--word", json.dumps({"type": "A1", "factors": [{"node": 1, "a": LONG_PARAM}]})],
         "factor 'a'", "4401 digits"),
        (["factorize", "--tuple", json.dumps({"type": "A1", "polys": [["2", f"1/3-{LONG_PARAM}i"]]})],
         "'polys' root", "4401 digits"),
    ],
)
def test_unreadable_parameter_names_the_field(capsys, argv, field, problem):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert f"{field}: " in err and problem in err
    # neither Python's advice nor the whole parameter
    assert "set_int_max_str_digits" not in err and len(err) < 200


@pytest.mark.parametrize(
    "argv, field",
    [
        (["check", "--word", '{"type":"A1","factors":[{"node":1,"a":1}]}'], "factor 'a'"),
        (["factorize", "--tuple", '{"type":"A1","polys":[["2",1.5]]}'], "'polys' root"),
    ],
)
def test_json_number_is_not_a_parameter(capsys, argv, field):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert f"{field} must be a string" in err


@pytest.mark.parametrize(
    "argv, field",
    [
        # an Arabic-Indic three and one half
        (["check", "--word", '{"type":"A1","factors":[{"node":1,"a":"\u0663"}]}'], "factor 'a'"),
        (["factorize", "--tuple", '{"type":"A1","polys":[["\u0661/\u0662"]]}'], "'polys' root"),
    ],
)
def test_non_ascii_digit_exit_one(capsys, argv, field):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert f"{field}: cannot parse" in err


C3_TUPLE = '{"type":"C3","polys":[["0"],[],[]]}'


@pytest.mark.parametrize(
    "argv, key",
    [
        (["check", "--word", '{"type":"A1","factors":[{"node":1,"a":"1/2"}],"extra":1}'], "extra"),
        (["check", "--word", '{"type":"A1","factors":[{"node":1,"a":"1/2","b":2}]}', "--irreducible"],
         "b"),
        (["dual", "--word", '{"type":"A1","factors":[{"node":1,"a":"0"}],"kappa":"1"}'], "kappa"),
        (["sl2-oracle", "--word", '{"type":"A1","factors":[{"a":"0","node":1,"m":1}]}'], "m"),
        (["factorize", "--tuple", '{"type":"A1","polys":[["1"]],"degrees":[1]}'], "degrees"),
        (["dims", "--tuple", '{"type":"C3","polys":[["0"],[],[]],"":0}', "--table",
          '{"type":"C3","dims":{"1":6}}'], ""),
        (["dims", "--tuple", C3_TUPLE, "--table", '{"type":"C3","dims":{"1":6},"source":"user"}'],
         "source"),
    ],
    ids=["word", "factor", "dual", "oracle factor", "tuple", "empty key", "table"],
)
def test_unknown_json_key_exit_one(capsys, argv, key):
    # a key the decoder does not read is an error, never silently dropped
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert f"unknown key {key!r}" in err


def test_dual_reports_kappa(capsys):
    word = '{"type":"A2","factors":[{"node":1,"a":"0"},{"node":2,"a":"1"}]}'
    code, out, _ = run(capsys, "dual", "--word", word)
    assert code == 0
    report = json.loads(out)
    assert report["kappa"] == "3/2"
    assert report["dual"]["factors"] == [
        {"node": 1, "a": "-1/2"},
        {"node": 2, "a": "-3/2"},
    ]
    assert report["note"] == (
        "kappa is half the dual Coxeter number (closed form); its normalization"
        " is informational only"
    )


def test_factorize_rank_one_verifies_closure(capsys):
    code, out, _ = run(capsys, "factorize", "--tuple", '{"type":"A1","polys":[["0","1","2"]]}')
    assert code == 0
    report = json.loads(out)
    assert [f["a"] for f in report["word"]["factors"]] == ["2", "1", "0"]
    assert report["closure_dim"] == 8 and report["full"] is True


def test_factorize_higher_rank_no_closure_field(capsys):
    code, out, _ = run(capsys, "factorize", "--tuple", '{"type":"A2","polys":[["3"],["1","5"]]}')
    assert code == 0
    report = json.loads(out)
    assert "closure_dim" not in report
    assert [f["node"] for f in report["word"]["factors"]] == [2, 1, 2]


def test_dims_builtin(capsys):
    code, out, _ = run(capsys, "dims", "--tuple", '{"type":"A2","polys":[["3"],["1","5"]]}')
    assert code == 0
    report = json.loads(out)
    assert report["weyl_dim"] == 27
    assert "bound" not in report  # it restated weyl_dim
    assert report["table_source"] == "builtin"


def test_dims_user_table(capsys):
    code, out, _ = run(
        capsys,
        "dims",
        "--tuple",
        '{"type":"C3","polys":[["0"],[],["1"]]}',
        "--table",
        '{"type":"C3","dims":{"1":6,"2":14,"3":14}}',
    )
    assert code == 0
    assert json.loads(out)["weyl_dim"] == 84


@pytest.mark.parametrize("key", ["01", " 1", "+1", "1 "])
def test_dims_non_canonical_node_key_exit_one(capsys, key):
    # "01" and " 1" would both parse as node 1, and one entry would silently
    # overwrite the other
    table = json.dumps({"type": "C3", "dims": {key: 6, "1": 7}})
    tup = '{"type":"C3","polys":[["0"],[],[]]}'
    code, out, err = run(capsys, "dims", "--tuple", tup, "--table", table)
    assert code == 1 and out == ""
    assert repr(key) in err


def test_dims_missing_table_exit_one(capsys):
    code, _, err = run(capsys, "dims", "--tuple", '{"type":"C3","polys":[["0"],[],["1"]]}')
    assert code == 1 and "table" in err


def test_dims_table_without_the_node_exit_one(capsys):
    code, out, err = run(
        capsys,
        "dims",
        "--tuple",
        '{"type":"C3","polys":[["1"],[],[]]}',
        "--table",
        '{"type":"C3","dims":{"2":14}}',
    )
    assert code == 1 and out == ""
    assert err == "weylcyc: error: dimension table has no entry for node 1\n"


@pytest.mark.parametrize(
    "argv, digits",
    [
        # (10^9)^500 = 10^4500, past the 4300 digits Python prints by default
        (
            [
                "--tuple", json.dumps({"type": "A1", "polys": [["0"] * 500]}),
                "--table", '{"type":"A1","dims":{"1":1000000000}}',
            ],
            4501,
        ),
        # 3^20000 from the built-in A2 table
        (["--tuple", json.dumps({"type": "A2", "polys": [["0"] * 10000, ["1"] * 10000]})], 9543),
    ],
    ids=["user-table", "builtin"],
)
def test_dims_too_long_to_print_exit_one(capsys, argv, digits):
    code, out, err = run(capsys, "dims", *argv)
    assert code == 1 and out == ""
    assert err.startswith("weylcyc: error: ") and f"about {digits} decimal digits" in err


def test_dims_far_past_the_print_limit_is_not_formed(capsys, monkeypatch):
    # a root on every node of A1024; the exact product grows with the rank,
    # and with 27 roots per node took 115 s to form
    def fail(t, table):
        raise AssertionError("dims formed the product")

    l = 1024
    monkeypatch.setattr(weyl_dims, "dim_local_weyl", fail)
    code, out, err = run(capsys, "dims", "--tuple", json.dumps({"type": f"A{l}", "polys": [["0"]] * l}))
    assert code == 1 and out == ""
    digits = int(err.split("about ")[1].split()[0])
    bits = math.prod(math.comb(l + 1, i) for i in range(1, l + 1)).bit_length()
    # 2^(bits - 1) <= dim < 2^bits
    assert int((bits - 1) * math.log10(2)) + 1 <= digits <= int(bits * math.log10(2)) + 1


def test_dims_table_integer_too_long_to_read_exit_one(capsys):
    # json reads integers through int(), which refuses more digits than
    # sys.get_int_max_str_digits(), 4300 by default
    limit = sys.get_int_max_str_digits()
    table = '{"type":"A1","dims":{"1":1' + "0" * (limit + 100) + "}}"
    code, out, err = run(capsys, "dims", "--tuple", '{"type":"A1","polys":[["0"]]}', "--table", table)
    assert code == 1 and out == ""
    assert err == (
        f"weylcyc: error: table JSON holds an integer too long to read (more than {limit} digits)\n"
    )


def test_sl2_oracle_agreement(capsys):
    code, out, _ = run(capsys, "sl2-oracle", "--word", WORD_01, "--assert")
    assert code == 0
    report = json.loads(out)
    assert report["closure_dim"] == 3
    assert report["burnside_dim"] < 16
    assert report["criterion"] == "ReducibleProven"
    assert report["agree"] is True


def a1_word_json(*params):
    return json.dumps({"type": "A1", "factors": [{"node": 1, "a": a} for a in params]}, separators=(",", ":"))


def a1_tuple_json(*roots):
    return json.dumps({"type": "A1", "polys": [list(roots)]}, separators=(",", ":"))


# stdout of the rank-1 commands, frozen byte for byte: README's examples, a
# complex-parameter input with distinct denominators, and reducible 3-factor
# words (the second complex word has a pair of parameters 1 apart)
FROZEN_RANK1_STDOUT = [
    (
        ["factorize", "--tuple", a1_tuple_json("0", "1", "2")],
        '{"closure_dim": 8, "dim": 8, "full": true, "tuple": {"polys": [["0", "1", "2"]], "type": "A1"}, '
        '"word": {"factors": [{"a": "2", "node": 1}, {"a": "1", "node": 1}, {"a": "0", "node": 1}], "type": "A1"}}\n',
    ),
    (
        ["factorize", "--tuple", a1_tuple_json("1/3+1/5i", "4/3+1/5i", "2/7-3/11i")],
        '{"closure_dim": 8, "dim": 8, "full": true, "tuple": {"polys": [["2/7-3/11i", "1/3+1/5i", "4/3+1/5i"]], '
        '"type": "A1"}, "word": {"factors": [{"a": "4/3+1/5i", "node": 1}, {"a": "1/3+1/5i", "node": 1}, '
        '{"a": "2/7-3/11i", "node": 1}], "type": "A1"}}\n',
    ),
    (
        ["factorize", "--tuple", a1_tuple_json("0", "1", "5/2")],
        '{"closure_dim": 8, "dim": 8, "full": true, "tuple": {"polys": [["0", "1", "5/2"]], "type": "A1"}, '
        '"word": {"factors": [{"a": "5/2", "node": 1}, {"a": "1", "node": 1}, {"a": "0", "node": 1}], "type": "A1"}}\n',
    ),
    (
        ["sl2-oracle", "--word", a1_word_json("0", "1")],
        '{"agree": true, "burnside_dim": 13, "burnside_full": false, "closure_dim": 3, "criterion": "ReducibleProven", '
        '"cyclic_guaranteed": false, "dim": 4, "full": false, '
        '"word": {"factors": [{"a": "0", "node": 1}, {"a": "1", "node": 1}], "type": "A1"}}\n',
    ),
    (
        ["sl2-oracle", "--word", a1_word_json("7/3+2/5i", "1/3+2/5i", "-5/7-1/11i")],
        '{"agree": true, "burnside_dim": 64, "burnside_full": true, "closure_dim": 8, '
        '"criterion": "IrreducibleGuaranteed", "cyclic_guaranteed": true, "dim": 8, "full": true, '
        '"word": {"factors": [{"a": "7/3+2/5i", "node": 1}, {"a": "1/3+2/5i", "node": 1}, '
        '{"a": "-5/7-1/11i", "node": 1}], "type": "A1"}}\n',
    ),
    (
        ["sl2-oracle", "--word", a1_word_json("1/3+2/5i", "4/3+2/5i", "-5/7-1/11i")],
        '{"agree": true, "burnside_dim": 52, "burnside_full": false, "closure_dim": 6, "criterion": "ReducibleProven", '
        '"cyclic_guaranteed": false, "dim": 8, "full": false, '
        '"word": {"factors": [{"a": "1/3+2/5i", "node": 1}, {"a": "4/3+2/5i", "node": 1}, '
        '{"a": "-5/7-1/11i", "node": 1}], "type": "A1"}}\n',
    ),
    (
        ["sl2-oracle", "--word", a1_word_json("0", "1", "5/2")],
        '{"agree": true, "burnside_dim": 52, "burnside_full": false, "closure_dim": 6, "criterion": "ReducibleProven", '
        '"cyclic_guaranteed": false, "dim": 8, "full": false, '
        '"word": {"factors": [{"a": "0", "node": 1}, {"a": "1", "node": 1}, {"a": "5/2", "node": 1}], "type": "A1"}}\n',
    ),
]


@pytest.mark.parametrize("argv, stdout", FROZEN_RANK1_STDOUT, ids=lambda v: v[0] if isinstance(v, list) else "")
def test_rank1_stdout_is_frozen(capsys, argv, stdout):
    assert run(capsys, *argv) == (0, stdout, "")


def test_factorize_over_the_cap_exit_one(capsys):
    roots = [str(k) for k in range(MAX_FACTORIZE_ROOTS + 1)]
    tup = json.dumps({"type": "A1", "polys": [roots]})
    code, out, err = run(capsys, "factorize", "--tuple", tup)
    assert code == 1 and out == ""
    assert f"at most {MAX_FACTORIZE_ROOTS} roots" in err and f"got {len(roots)}" in err
    # the cap is on the rank-1 closure only; other types still factorize
    tup = json.dumps({"type": "A2", "polys": [roots, []]})
    assert run(capsys, "factorize", "--tuple", tup)[0] == 0


def test_sl2_oracle_over_the_cap_exit_one(capsys):
    factors = [{"node": 1, "a": str(k)} for k in range(MAX_ORACLE_FACTORS + 1)]
    word = json.dumps({"type": "A1", "factors": factors})
    code, out, err = run(capsys, "sl2-oracle", "--word", word)
    assert code == 1 and out == ""
    assert f"at most {MAX_ORACLE_FACTORS} factors" in err and f"got {len(factors)}" in err
    # at the cap the reducible unit-step word runs, algebra included
    word = json.dumps({"type": "A1", "factors": factors[:-1]})
    code, out, _ = run(capsys, "sl2-oracle", "--word", word)
    assert code == 0 and json.loads(out)["burnside_full"] is False


def word_of_rank(family, rank):
    factors = [{"node": 1, "a": "0"}, {"node": rank, "a": "1"}]
    return json.dumps({"type": f"{family}{rank}", "factors": factors})


def tuple_of_rank(family, rank):
    return json.dumps({"type": f"{family}{rank}", "polys": [["0"]] + [[]] * (rank - 1)})


OVER = MAX_RANK + 1
TABLE_OVER = json.dumps({"type": f"C{OVER}", "dims": {}})


@pytest.mark.parametrize(
    "argv, rank",
    [
        # the cap bounds the O(l) data every command reads: the Cartan
        # record, the T-set, the built-in `dims` table of l binomials
        (["sets", "--type", "A100000", "--bm", "1", "--bn", "2"], 100000),
        (["check", "--word", word_of_rank("D", OVER)], OVER),
        (["dual", "--word", word_of_rank("B", OVER)], OVER),
        (["factorize", "--tuple", tuple_of_rank("A", OVER)], OVER),
        (["dims", "--tuple", tuple_of_rank("A", OVER)], OVER),
        (["dims", "--tuple", tuple_of_rank("C", 3), "--table", TABLE_OVER], OVER),
        (["sl2-oracle", "--word", word_of_rank("A", OVER)], OVER),
    ],
    ids=["sets", "check", "dual", "factorize", "dims-tuple", "dims-table", "sl2-oracle"],
)
def test_rank_over_the_cap_exit_one(capsys, argv, rank):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    # the type names its rank, once
    assert f"rank at most {MAX_RANK}" in err and err.count(str(rank)) == 1


LONG_TYPE = "A" + "9" * 5000  # int() refuses more than 4300 digits by default


@pytest.mark.parametrize(
    "argv",
    [
        ["sets", "--type", LONG_TYPE, "--bm", "1", "--bn", "1"],
        ["check", "--word", json.dumps({"type": LONG_TYPE, "factors": [{"node": 1, "a": "0"}]})],
    ],
    ids=["sets", "check"],
)
def test_rank_too_long_to_read_exit_one(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert "has 5000 digits" in err and "set_int_max_str_digits" not in err


def test_rank_cap_admits_max_rank(capsys):
    tup = tuple_of_rank("A", MAX_RANK)
    assert run(capsys, "dims", "--tuple", tup)[0] == 0
    assert run(capsys, "factorize", "--tuple", tup)[0] == 0
    for family in "BCD":
        word = word_of_rank(family, MAX_RANK)
        assert run(capsys, "sets", "--type", f"{family}{MAX_RANK}", "--bm", "1", "--bn", "2")[0] == 0
        assert run(capsys, "check", "--word", word)[0] == 0
        assert run(capsys, "dual", "--word", word)[0] == 0


def test_library_runtime_error_exit_one(capsys, monkeypatch):
    def fail(module):
        raise RuntimeError("saturation failed to stabilize; arithmetic bug")

    monkeypatch.setattr(sl2, "hw_closure", fail)
    code, out, err = run(capsys, "sl2-oracle", "--word", WORD_01)
    assert code == 1 and out == ""
    assert err == "weylcyc: error: saturation failed to stabilize; arithmetic bug\n"
    assert "Traceback" not in err


def test_sl2_oracle_rejects_higher_rank(capsys):
    code, _, err = run(capsys, "sl2-oracle", "--word", '{"type":"A2","factors":[{"node":1,"a":"0"}]}')
    assert code == 1 and "A1" in err


def report_json(word, irreducible: bool) -> dict:
    """The `check` report built from the library's report objects."""
    if irreducible:
        verdict = is_irreducible(word)
        key, value, violations = "status", verdict.status.value, verdict.evidence
    else:
        report = is_cyclic(word)
        key, value, violations = "cyclic_guaranteed", report.cyclic_guaranteed, report.violations
    listed = [
        {"m": v.m, "n": v.n, "diff": str(v.diff), "set_member": str(v.member)} for v in violations
    ]
    return {"word": word_to_dict(word), key: value, "violations": listed}


@given(word=st.one_of(tensor_words(), dense_tensor_words()), irreducible=st.booleans())
@example(word=word_from_dict(json.loads(WORD_01)), irreducible=False)  # one violation
@example(word=word_from_dict(json.loads(WORD_10)), irreducible=True)  # one, reversed
@settings(max_examples=100, deadline=None)
def test_check_prints_what_the_reports_say(word, irreducible):
    # `check` reads the violations without building a report
    argv = ["check", "--word", json.dumps(word_to_dict(word)), "--assert"]
    argv += ["--irreducible"] * irreducible
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    expected = report_json(word, irreducible)
    assert out.getvalue() == json.dumps(expected, sort_keys=True) + "\n"
    assert code == (2 if expected["violations"] else 0)


def test_deterministic_output(capsys):
    args = ("check", "--word", WORD_01, "--irreducible")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


@pytest.fixture(scope="module")
def selftest_results():
    """One real `selftest.run_all()`, for tests that only render its results."""
    return selftest.run_all()


@pytest.mark.parametrize(
    "argv", [argv for argv, _ in EXAMPLES], ids=[" ".join(a[:2]) for a, _ in EXAMPLES]
)
def test_pretty_rendering(capsys, monkeypatch, request, argv):
    if argv[0] == "selftest":
        results = request.getfixturevalue("selftest_results")
        monkeypatch.setattr(selftest, "run_all", lambda: results)
    code, out, _ = run(capsys, *argv)
    pretty_code, pretty_out, _ = run(capsys, *argv, "--pretty")
    assert pretty_code == code
    assert json.loads(pretty_out) == json.loads(out)
    assert pretty_out.startswith("{\n  ")


def test_usage_error_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 1


def test_selftest_passes(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert len(report["checks"]) == 5
    assert all(check["passed"] for check in report["checks"])
    assert "rank-1 oracles agree with the criteria" in [c["name"] for c in report["checks"]]


def test_selftest_failure_exit_two(capsys, monkeypatch):
    checks = (lambda: ("good", True, "ok"), lambda: ("bad", False, "broken at (1,2)"))
    monkeypatch.setattr(selftest, "ALL_CHECKS", checks)
    code, out, _ = run(capsys, "selftest")
    assert code == 2
    assert json.loads(out) == {
        "checks": [
            {"name": "good", "passed": True, "detail": "ok"},
            {"name": "bad", "passed": False, "detail": "broken at (1,2)"},
        ],
        "passed": False,
    }


def test_rank1_grid_names_the_word_an_oracle_under_reports(monkeypatch):
    burnside_dim, hw_closure = sl2.burnside_dim, sl2.hw_closure
    # an irreducible length-3 word whose full algebra is reported one short
    word = sl2.word_module([(1, Fraction(-2))] * 3)
    monkeypatch.setattr(sl2, "burnside_dim", lambda m: burnside_dim(m) - (m == word))
    _, ok, detail = selftest.check_rank1_grid()
    assert not ok and detail.startswith("params (-2, -2, -2): ")
    monkeypatch.undo()

    # a criterion-cyclic length-2 word whose full closure is reported one short
    word = sl2.word_module([(1, Fraction(1)), (1, Fraction(0))])

    def closure(module):
        rank, basis = hw_closure(module)
        return rank - (module == word), basis

    monkeypatch.setattr(sl2, "hw_closure", closure)
    _, ok, detail = selftest.check_rank1_grid()
    assert not ok and detail.startswith("params (1, 0): ")
