"""The benchmark's calls into weylcyc: set-up and one function per operation.

weylcyc is reached only through public names of its modules, gathered in
`Api`, and through the `weylcyc` command.  With a tracer, every call made
through `Api` is recorded as a span named "<module>.<function>".
"""

from __future__ import annotations

import importlib
import json
import subprocess
import sys

PUBLIC = (
    ("drinfeld", "word_from_dict"),
    ("drinfeld", "word_to_dict"),
    ("drinfeld", "tuple_from_dict"),
    ("drinfeld", "tuple_to_dict"),
    ("rootsys", "cartan_data"),
    ("criteria", "s_set"),
    ("criteria", "is_cyclic"),
    ("criteria", "is_irreducible"),
    ("criteria", "weyl_factorize"),
    ("sl2", "irrep_Wm"),
    ("sl2", "tensor"),
    ("sl2", "hw_closure"),
    ("sl2", "burnside_dim"),
)

# The console script `weylcyc` is exactly this entry point.
WEYLCYC = [sys.executable, "-c", "import sys; from weylcyc.cli import main; sys.exit(main())"]


class Api:
    def __init__(self, tracer=None):
        for module, name in PUBLIC:
            fn = getattr(importlib.import_module(f"weylcyc.{module}"), name)
            setattr(self, name, fn if tracer is None else tracer.wrap(f"{module}.{name}", fn))


def decode(api: Api, wire):
    kind, data = wire
    return api.word_from_dict(data) if kind == "word" else api.tuple_from_dict(data)


def encode(api: Api, wire, obj) -> dict:
    return api.word_to_dict(obj) if wire[0] == "word" else api.tuple_to_dict(obj)


def warm(api: Api, objs) -> None:
    """Fill the Cartan data and S-set caches for every type the inputs use."""
    for lt in sorted({obj.type for obj in objs}, key=str):
        data = api.cartan_data(lt)
        for bm in range(1, lt.rank + 1):
            for bn in range(1, lt.rank + 1):
                api.s_set(data, bm, bn)


def setup(api: Api, wires) -> list:
    """What a run needs before its first operation: the inputs' library objects."""
    objs = [decode(api, w) for w in wires]
    warm(api, objs)
    return objs


def module_of(api: Api, params):
    """The ordered tensor product W_1(a_1) x ... x W_1(a_k)."""
    module = api.irrep_Wm(1, params[0])
    for a in params[1:]:
        module = api.tensor(module, api.irrep_Wm(1, a))
    return module


def scan_op(api: Api, word):
    return api.is_cyclic(word), api.is_irreducible(word)


def string_op(api: Api, tup):
    word = api.weyl_factorize(tup)
    cyc = api.is_cyclic(word)
    params = [f.param for f in word.factors]
    dec, inc = module_of(api, params), module_of(api, params[::-1])
    return word, cyc, (dec.dim, inc.dim), api.hw_closure(dec), api.hw_closure(inc)


def oracle_op(api: Api, word):
    module = module_of(api, [f.param for f in word.factors])
    closure = api.hw_closure(module)
    return module.dim, closure, api.burnside_dim(module), api.is_cyclic(word), api.is_irreducible(word)


def argv_of(case: dict, word: dict | None = None) -> list[str]:
    """The `weylcyc` arguments of a cli_oneshot case, or of its dual taken on `word`."""
    if word is not None:
        return case["argv"] + ["--word", json.dumps(word)]
    if "wire" in case:
        kind, data = case["wire"]
        return case["argv"] + [f"--{kind}", json.dumps(data)]
    return case["argv"]


def weylcyc(argv, env) -> subprocess.CompletedProcess:
    """One `weylcyc` process, waited for; one that hangs is killed and fails its op."""
    return subprocess.run([*WEYLCYC, *argv], env=env, capture_output=True, text=True, timeout=60)


class CliRound:
    """Runs cli_oneshot cases.  Every other dual call takes the previous dual's
    output as its word, so that dual applied twice can be checked."""

    def __init__(self, env):
        self.env = env
        self.pending = None  # (case, dual output) of a first dual call

    def call(self, case):
        """Run one case: gives the case to check against, the finished
        process, and the word a chained dual started from."""
        word = twice_of = None
        if case["cmd"] == "dual" and self.pending is not None:
            case, word = self.pending
            twice_of = case["wire"][1]
        return case, weylcyc(argv_of(case, word), self.env), twice_of

    def record(self, case, proc, twice_of, ok: bool) -> None:
        if case["cmd"] == "dual":
            first = ok and twice_of is None
            self.pending = (case, json.loads(proc.stdout)["dual"]) if first else None
