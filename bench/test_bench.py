"""Tests of the benchmark itself: its checks accept the program's real outputs
and reject deliberately wrong ones, and its inputs depend only on the seed.

    python -m pytest bench
"""

import contextlib
import dataclasses
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import ops  # noqa: E402
from weylcyc import cli  # noqa: E402


@pytest.fixture(scope="module")
def api():
    return ops.Api()


def case_of(workload, api, pick=lambda case: True, seed=1):
    case = next(c for r in inputs.make(workload, seed) for c in r if pick(c))
    if "wire" in case:
        case["obj"] = ops.setup(api, [case["wire"]])[0]
    return case


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert inputs.make(workload, 7) == inputs.make(workload, 7)
    assert inputs.make(workload, 7) != inputs.make(workload, 8)


def test_scan_check_rejects_a_dropped_violation(api):
    case = case_of("pairwise_scan", api, lambda c: c["fwd"])
    cyc, irr = ops.scan_op(api, case["obj"])
    assert checks.check_scan(case, (cyc, irr)) == []
    fewer = dataclasses.replace(cyc, violations=cyc.violations[1:])
    assert checks.check_scan(case, (fewer, irr))
    assert checks.check_scan(case, (cyc, dataclasses.replace(irr, evidence=irr.evidence[:-1])))


def test_string_check_rejects_a_closure_off_by_one(api):
    case = case_of("rank1_closure", api)
    word, cyc, dims, dec, inc = ops.string_op(api, case["obj"])
    assert checks.check_string(case, (word, cyc, dims, dec, inc)) == []
    assert checks.check_string(case, (word, cyc, dims, dec, (inc[0] + 1, inc[1])))
    assert checks.check_string(case, (word, cyc, dims, (dec[0] - 1, dec[1]), inc))


def test_oracle_check_rejects_a_burnside_dim_off_by_one(api):
    case = case_of("rank1_oracle", api, lambda c: c["irreducible"])
    dim, closure, algebra, cyc, verdict = ops.oracle_op(api, case["obj"])
    assert checks.check_oracle(case, (dim, closure, algebra, cyc, verdict)) == []
    assert checks.check_oracle(case, (dim, closure, algebra - 1, cyc, verdict))


def test_cli_checks_accept_every_subcommand(api):
    for case in inputs.make("cli_oneshot", 3)[0]:
        assert checks.check_cli(case, *run_cli(ops.argv_of(case))) == [], case["cmd"]


def test_cli_check_rejects_a_wrong_s_set_member(api):
    case = case_of("cli_oneshot", api, lambda c: c["cmd"] == "sets")
    code, out, err = run_cli(ops.argv_of(case))
    report = json.loads(out)
    report["s_set"][-1] = str(Fraction(report["s_set"][-1]) + 1)
    assert checks.check_cli(case, code, json.dumps(report), err)


def test_cli_check_rejects_a_nonzero_exit(api):
    case = case_of("cli_oneshot", api, lambda c: c["cmd"] == "dims")
    code, out, err = run_cli(ops.argv_of(case))
    assert checks.check_cli(case, code, out, err) == []
    assert checks.check_cli(case, 1, out, err)


def test_cli_check_of_dual_applied_twice(api):
    case = case_of("cli_oneshot", api, lambda c: c["cmd"] == "dual")
    first = json.loads(run_cli(ops.argv_of(case))[1])
    code, out, err = run_cli(ops.argv_of(case, first["dual"]))
    assert checks.check_cli(case, code, out, err, twice_of=case["wire"][1]) == []
    assert checks.check_cli(case, code, out, err, twice_of=first["dual"])
