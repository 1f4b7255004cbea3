"""A fresh `weylcyc` process imports only what its subcommand runs: the rank-1
engine (`sl2`, `echelon`, `selftest`), the dimension tables (`weyl_dims`) and
the criteria reports (`reports`, the one importer of `dataclasses`) load on
first use.  These tests read the module sets of fresh interpreters, not
timings."""

import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
ON_DEMAND = {"weylcyc.sl2", "weylcyc.echelon", "weylcyc.selftest", "weylcyc.weyl_dims", "weylcyc.reports"}
# slow standard-library imports that no weylcyc command needs
STDLIB_HEAVY = {"dataclasses", "inspect"}
WORD = '{"type":"B3","factors":[{"node":1,"a":"0"},{"node":3,"a":"1/2"},{"node":2,"a":"3"}]}'
TUPLE = '{"type":"A2","polys":[["3"],["1","5"]]}'
A1_WORD = '{"type":"A1","factors":[{"node":1,"a":"0"},{"node":1,"a":"1"}]}'
A1_TUPLE = '{"type":"A1","polys":[["0","1","1/2+1i"]]}'

COMMAND_PATH = {
    "sets": ["sets", "--type", "C3", "--bm", "1", "--bn", "3"],
    "sets --tset": ["sets", "--type", "C3", "--bm", "3", "--bn", "3", "--tset"],
    "check": ["check", "--word", WORD],
    "check --irreducible": ["check", "--word", WORD, "--irreducible"],
    "dual": ["dual", "--word", WORD],
}
# every subcommand the benchmark's cli_oneshot workload runs
COMMANDS = {
    **COMMAND_PATH,
    "factorize": ["factorize", "--tuple", A1_TUPLE],
    "dims": ["dims", "--tuple", TUPLE],
    "sl2-oracle": ["sl2-oracle", "--word", A1_WORD],
}


@functools.cache
def loaded_after(code: str) -> frozenset[str]:
    """The modules a fresh interpreter holds after running `code`."""
    probe = code + "\nimport sys\nprint('\\n'.join(sys.modules))"
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    return frozenset(done.stdout.split())


def after_main(*argv: str) -> frozenset[str]:
    return loaded_after(f"from weylcyc.cli import main\nassert main({list(argv)!r}) == 0")


def heavy_beyond_bare(loaded) -> set[str]:
    """The slow standard-library modules in `loaded` that a bare interpreter
    does not hold already (a `site` .pth file may preload some)."""
    return (loaded & STDLIB_HEAVY) - loaded_after("pass")


def test_import_cli_loads_neither_the_rank1_engine_nor_the_dims_tables():
    loaded = loaded_after("import weylcyc.cli")
    assert "weylcyc.criteria" in loaded
    assert not loaded & ON_DEMAND


@pytest.mark.parametrize("code", ["import weylcyc", "import weylcyc.cli"])
def test_import_loads_neither_dataclasses_nor_inspect(code):
    assert not heavy_beyond_bare(loaded_after(code))


@pytest.mark.parametrize("argv", COMMAND_PATH.values(), ids=COMMAND_PATH)
def test_command_path_commands_load_no_on_demand_module(argv):
    assert not after_main(*argv) & ON_DEMAND


def test_dims_loads_the_dims_tables_only():
    assert after_main(*COMMANDS["dims"]) & ON_DEMAND == {"weylcyc.weyl_dims"}


@pytest.mark.parametrize(
    "command, engine",
    [
        ("factorize", {"weylcyc.sl2", "weylcyc.echelon"}),
        ("sl2-oracle", {"weylcyc.sl2", "weylcyc.echelon", "weylcyc.selftest"}),
    ],
)
def test_rank1_commands_load_the_engine_but_not_the_reports(command, engine):
    assert after_main(*COMMANDS[command]) & ON_DEMAND == engine


@pytest.mark.parametrize("argv", COMMANDS.values(), ids=COMMANDS)
def test_no_command_loads_dataclasses_or_inspect(argv):
    assert not heavy_beyond_bare(after_main(*argv))


def test_every_exported_name_resolves_and_is_listed():
    code = """
import dataclasses
import weylcyc
from weylcyc import criteria, reports, sl2, weyl_dims
listed = set(dir(weylcyc))
assert set(weylcyc.__all__) <= listed, set(weylcyc.__all__) - listed
assert len(set(weylcyc.__all__)) == len(weylcyc.__all__)
modules = {"reports": reports, "sl2": sl2, "weyl_dims": weyl_dims}
for name, module in weylcyc._LAZY.items():
    assert getattr(weylcyc, name) is getattr(modules[module], name)
for name in ("CyclicityReport", "IrreducibilityVerdict"):
    assert getattr(criteria, name) is getattr(weylcyc, name)
    assert dataclasses.is_dataclass(getattr(weylcyc, name))
namespace = {}
exec("from weylcyc import *", namespace)
assert set(weylcyc.__all__) <= set(namespace)
assert not hasattr(weylcyc, "no_such_name")
assert not hasattr(criteria, "no_such_name")
"""
    assert ON_DEMAND - {"weylcyc.selftest"} <= loaded_after(code)
