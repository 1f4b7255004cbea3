"""Exact cyclicity and irreducibility tests for ordered tensor products of
fundamental Yangian representations, with local Weyl module factorization and
rank-1 matrix oracles."""

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
from .sl2 import (
    ExactMatrix,
    Sl2Module,
    burnside_dim,
    hw_closure,
    irrep_Wm,
    tensor,
    word_module,
)
from .weyl_dims import (
    FundamentalDimTable,
    builtin_table,
    dim_local_weyl,
)

__version__ = "0.1.0"
