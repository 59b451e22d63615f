"""Exact invariants of moduli spaces of semistable quiver representations.

Betti polynomials in the coprime case, q-Donaldson-Thomas invariants,
intersection-cohomology Poincare polynomials by two independent routes,
generic deformations of stabilities, decomposition-type strata with
their local quivers, and smallness certification of the associated
desingularizations. All arithmetic is exact.
"""

from .catalog import (
    FAMILIES,
    MarkedPartition,
    QuiverSetup,
    RankOneSmallness,
    abelianized_quiver,
    build_example,
    complete_bipartite,
    determinantal,
    kronecker_general,
    levi_adjoint,
    point_config_closed_form,
    point_config_local_data,
    point_configurations,
    rank_one_smallness_report,
)
from .core import (
    DEFAULT_MAX_BOX,
    DimVector,
    Quiver,
    Stability,
    box_iter,
    box_size,
    eta_factorization,
    is_coprime,
    is_indivisible,
    moduli_dim,
    normalize_stability,
    skew_rank,
    slope,
    symmetric_on_kernel,
)
from .deform import (
    DeformationVerdict,
    generic_deformation,
    is_generic_deformation,
)
from .errors import (
    BoxGuardExceeded,
    EtaSearchExhausted,
    InternalCheckError,
    NegativeArrowCountError,
    PreconditionError,
    QuiverModuliError,
)
from .halfq import HalfLaurent, RatFunc
from .invariants import (
    betti_coprime,
    dt_invariants,
    ic_poincare_dt,
    ic_poincare_resolution,
    p_poly,
)
from .strata import (
    LunaType,
    SmallnessReport,
    StratumRecord,
    certify_smallness,
    codim_lower_bound,
    fiber_dim_bound,
    local_quiver,
    luna_types,
    nullcone_dim_bound,
    smallness_margin,
    stratum_records,
)

__version__ = "0.1.0"

__all__ = [
    "BoxGuardExceeded",
    "DEFAULT_MAX_BOX",
    "DeformationVerdict",
    "DimVector",
    "EtaSearchExhausted",
    "FAMILIES",
    "HalfLaurent",
    "InternalCheckError",
    "LunaType",
    "MarkedPartition",
    "NegativeArrowCountError",
    "PreconditionError",
    "Quiver",
    "QuiverModuliError",
    "QuiverSetup",
    "RankOneSmallness",
    "RatFunc",
    "SlopeSeries",
    "SmallnessReport",
    "Stability",
    "StratumRecord",
    "abelianized_quiver",
    "adams",
    "betti_coprime",
    "box_iter",
    "box_size",
    "build_example",
    "certify_smallness",
    "codim_lower_bound",
    "complete_bipartite",
    "determinantal",
    "dt_invariants",
    "eta_factorization",
    "fiber_dim_bound",
    "generic_deformation",
    "ic_poincare_dt",
    "ic_poincare_resolution",
    "is_coprime",
    "is_generic_deformation",
    "is_indivisible",
    "kronecker_general",
    "levi_adjoint",
    "local_quiver",
    "luna_types",
    "moduli_dim",
    "normalize_stability",
    "nullcone_dim_bound",
    "p_poly",
    "pleth_exp",
    "pleth_log",
    "point_config_closed_form",
    "point_config_local_data",
    "point_configurations",
    "rank_one_smallness_report",
    "series_exp",
    "series_log",
    "skew_rank",
    "slope",
    "smallness_margin",
    "stratum_records",
    "symmetric_on_kernel",
]


def __getattr__(name: str):
    # the names of __all__ not bound above are those of the series layer
    # (SlopeSeries, series_exp, series_log, adams, pleth_exp, pleth_log), which
    # the engine does not run: it is imported on first access, not with the package
    if name in __all__:
        from . import series

        return getattr(series, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
