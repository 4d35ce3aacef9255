"""Exact combinatorics of quantum exchangeability.

Non-crossing partition lattice, Weingarten calculus for the quantum
permutation group, operator-valued moment-cumulant transforms, and
urn-sequence experiments for the finite de Finetti approximation.
"""

from .errors import (
    BoundError,
    DimensionError,
    DomainError,
    InvariantViolation,
    QpermError,
    SingularGramError,
)
from .partitions import (
    K_MAX,
    SetPartition,
    enumerate_nc,
    enumerate_partitions,
    is_noncrossing,
    join,
    kernel,
    leq,
    meet,
    mobius_nc,
    mobius_nc_chain_count,
)
from .weingarten import (
    NCTable,
    dk_value,
    gram,
    haar_moment,
    weingarten,
    weingarten_asymptotics,
)
from .cumulants import (
    CumulantSpec,
    MatrixProbabilitySpace,
    MomentFunctional,
    cumulants_to_moments,
    free_iid_moment,
    freeness_check,
    moments_to_cumulants,
)
from .exchange import (
    MagicUnitary,
    UrnModel,
    all_permutation_magic_unitaries,
    block_sum_identity,
    cesaro_variance,
    definetti_gap,
    invariance_check,
    permutation_deviation,
    permutation_magic_unitary,
    two_projection_magic_unitary,
    urn_moment_classical,
    urn_moment_quantum,
)

__version__ = "0.1.0"

__all__ = [
    "BoundError",
    "CumulantSpec",
    "DimensionError",
    "DomainError",
    "InvariantViolation",
    "K_MAX",
    "MagicUnitary",
    "MatrixProbabilitySpace",
    "MomentFunctional",
    "NCTable",
    "QpermError",
    "SetPartition",
    "SingularGramError",
    "UrnModel",
    "all_permutation_magic_unitaries",
    "block_sum_identity",
    "cesaro_variance",
    "cumulants_to_moments",
    "definetti_gap",
    "dk_value",
    "enumerate_nc",
    "enumerate_partitions",
    "free_iid_moment",
    "freeness_check",
    "gram",
    "haar_moment",
    "invariance_check",
    "is_noncrossing",
    "join",
    "kernel",
    "leq",
    "meet",
    "mobius_nc",
    "mobius_nc_chain_count",
    "moments_to_cumulants",
    "permutation_deviation",
    "permutation_magic_unitary",
    "two_projection_magic_unitary",
    "urn_moment_classical",
    "urn_moment_quantum",
    "weingarten",
    "weingarten_asymptotics",
]
