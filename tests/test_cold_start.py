"""A fresh `weylcyc` process imports only what its subcommand runs: the rank-1
engine (`sl2`, `echelon`, `selftest`) and the dimension tables (`weyl_dims`)
load on first use.  These tests read the module sets of fresh interpreters,
not timings."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
ON_DEMAND = {"weylcyc.sl2", "weylcyc.echelon", "weylcyc.selftest", "weylcyc.weyl_dims"}
WORD = '{"type":"B3","factors":[{"node":1,"a":"0"},{"node":3,"a":"1/2"},{"node":2,"a":"3"}]}'
TUPLE = '{"type":"A2","polys":[["3"],["1","5"]]}'


def loaded_after(code: str) -> set[str]:
    """The weylcyc modules a fresh interpreter holds after running `code`."""
    probe = code + (
        "\nimport json, sys"
        "\nprint(json.dumps(sorted(m for m in sys.modules if m.startswith('weylcyc'))))"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def after_main(*argv: str) -> set[str]:
    return loaded_after(f"from weylcyc.cli import main\nassert main({list(argv)!r}) == 0")


def test_import_cli_loads_neither_the_rank1_engine_nor_the_dims_tables():
    loaded = loaded_after("import weylcyc.cli")
    assert "weylcyc.criteria" in loaded
    assert not loaded & ON_DEMAND


@pytest.mark.parametrize(
    "argv",
    [
        ["sets", "--type", "C3", "--bm", "1", "--bn", "3"],
        ["sets", "--type", "C3", "--bm", "3", "--bn", "3", "--tset"],
        ["check", "--word", WORD],
        ["check", "--word", WORD, "--irreducible"],
        ["dual", "--word", WORD],
    ],
    ids=["sets", "sets --tset", "check", "check --irreducible", "dual"],
)
def test_command_path_commands_load_no_on_demand_module(argv):
    assert not after_main(*argv) & ON_DEMAND


def test_dims_loads_the_dims_tables_only():
    assert after_main("dims", "--tuple", TUPLE) & ON_DEMAND == {"weylcyc.weyl_dims"}


def test_every_exported_name_resolves_and_is_listed():
    code = """
import weylcyc
from weylcyc import sl2, weyl_dims
listed = set(dir(weylcyc))
assert set(weylcyc.__all__) <= listed, set(weylcyc.__all__) - listed
assert len(set(weylcyc.__all__)) == len(weylcyc.__all__)
for name, module in weylcyc._LAZY.items():
    assert getattr(weylcyc, name) is getattr({"sl2": sl2, "weyl_dims": weyl_dims}[module], name)
namespace = {}
exec("from weylcyc import *", namespace)
assert set(weylcyc.__all__) <= set(namespace)
assert not hasattr(weylcyc, "no_such_name")
"""
    assert ON_DEMAND - {"weylcyc.selftest"} <= loaded_after(code)
