"""Exact distributions of finite modules over quotients of F_l[X], with
random-matrix and curve-statistics harnesses for empirical validation."""

__version__ = "0.1.0"

from .algebra import LocalRingSpec, Poly, RingSpec
from .measure import (
    MeasureValue,
    divisor_density,
    eta,
    moment_rank,
    mu,
    rank_distribution,
    rank_distribution_partition_form,
)
from .modules import ModuleType, Partition, aut_order, coker_type, surj_count

__all__ = [
    "__version__",
    "LocalRingSpec",
    "Poly",
    "RingSpec",
    "MeasureValue",
    "divisor_density",
    "eta",
    "moment_rank",
    "mu",
    "rank_distribution",
    "rank_distribution_partition_form",
    "ModuleType",
    "Partition",
    "aut_order",
    "coker_type",
    "surj_count",
]
