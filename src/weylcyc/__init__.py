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
    LaurentSeries,
    MonicPoly,
    TensorWord,
    mu_series,
    shift_tuple,
    shift_word,
    tuple_of_word,
)
from .rootsys import (
    CartanData,
    LieType,
    WeightVector,
    cartan_data,
    fundamental_weight,
    kappa,
    weyl_apply,
)
from .sl2 import (
    ExactMatrix,
    ModeOperators,
    Sl2Module,
    apply_shift,
    burnside_dim,
    check_relations,
    hw_closure,
    irrep_Wm,
    local_weyl_sl2,
    mode_operators,
    tensor,
    word_module,
)
from .weyl_dims import (
    FundamentalDimTable,
    builtin_table,
    dim_local_weyl,
)

__version__ = "0.1.0"
