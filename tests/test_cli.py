import json

import pytest

from weylcyc.cli import main

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


@pytest.mark.parametrize(
    "argv, field",
    [
        (["check", "--word", '{"type":"A1","factors":[{"node":1,"a":"1/0"}]}'], "factor 'a'"),
        (["factorize", "--tuple", '{"type":"A1","polys":[["2","1/0"]]}'], "'polys' root"),
    ],
)
def test_zero_denominator_names_the_field(capsys, argv, field):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert field in err and "zero denominator" in err


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
    assert "note" in report


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
    assert report["weyl_dim"] == report["bound"] == 27
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


def test_dims_missing_table_exit_one(capsys):
    code, _, err = run(capsys, "dims", "--tuple", '{"type":"C3","polys":[["0"],[],["1"]]}')
    assert code == 1 and "table" in err


def test_sl2_oracle_agreement(capsys):
    code, out, _ = run(capsys, "sl2-oracle", "--word", WORD_01, "--assert")
    assert code == 0
    report = json.loads(out)
    assert report["closure_dim"] == 3
    assert report["burnside_dim"] < 16
    assert report["criterion"] == "ReducibleProven"
    assert report["agree"] is True


def test_sl2_oracle_rejects_higher_rank(capsys):
    code, _, err = run(capsys, "sl2-oracle", "--word", '{"type":"A2","factors":[{"node":1,"a":"0"}]}')
    assert code == 1 and "A1" in err


def test_deterministic_output(capsys):
    args = ("check", "--word", WORD_01, "--irreducible")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_pretty_rendering(capsys):
    code, out, _ = run(capsys, "check", "--word", WORD_01, "--pretty")
    assert code == 0
    assert "cyclic guaranteed: False" in out


def test_usage_error_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 1


def test_selftest_passes(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert "all checks passed" in out
    assert out.count("PASS") == 6
