"""Exact cyclicity and irreducibility tests for ordered tensor products of
fundamental Yangian representations, with local Weyl module factorization and
rank-1 matrix oracles."""

import importlib

from .criteria import (
    CyclicityReport,
    IrreducibilityStatus,
    IrreducibilityVerdict,
    PairViolation,
    SSet,
    TSet,
    derive_s_from_t,
    is_cyclic,
    is_irreducible,
    left_dual,
    s_set,
    t_set_C,
    weyl_factorize,
)
from .drinfeld import (
    CRational,
    DrinfeldTuple,
    FundamentalFactor,
    MonicPoly,
    TensorWord,
)
from .rootsys import (
    CartanData,
    LieType,
    cartan_data,
    kappa,
)

# The rank-1 engine and the dimension tables load on first use, so that a
# command that runs neither does not import them (PEP 562).
_LAZY = {
    **dict.fromkeys(
        ("SparseMatrix", "Sl2Module", "burnside_dim", "hw_closure", "irrep_Wm", "tensor", "word_module"),
        "sl2",
    ),
    **dict.fromkeys(("FundamentalDimTable", "builtin_table", "dim_local_weyl"), "weyl_dims"),
}

__all__ = [
    "CyclicityReport", "IrreducibilityStatus", "IrreducibilityVerdict", "PairViolation", "SSet",
    "TSet", "derive_s_from_t", "is_cyclic", "is_irreducible", "left_dual", "s_set", "t_set_C",
    "weyl_factorize",
    "CRational", "DrinfeldTuple", "FundamentalFactor", "MonicPoly", "TensorWord",
    "CartanData", "LieType", "cartan_data", "kappa",
    *_LAZY,
]


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})


__version__ = "0.1.0"
