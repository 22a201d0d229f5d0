"""Exact-rational laboratory for finite probability-preserving Z^d systems.

Subpackages cover exact measure plumbing (:mod:`ergolab.measure`), finite
Z^d systems and joining predicates (:mod:`ergolab.systems`), nonconventional
averages and Furstenberg self-joinings (:mod:`ergolab.averages`), removal
instance checking (:mod:`ergolab.removal`), density Hales-Jewett
combinatorics (:mod:`ergolab.hales_jewett`), and a JSON command-line front
end (:mod:`ergolab.cli`).
"""

from .averages import (
    FurstenbergJoining,
    RecurrenceCertificate,
    cesaro_limit,
    furstenberg_self_joining,
    nonconventional_average,
    recurrence_certificate,
    van_der_corput_inequality,
)
from .measure import (
    Coupling,
    ExactProbabilitySpace,
    Partition,
    SimpleFunction,
    ae_equal,
    conditional_expectation,
    relative_independence,
    relatively_independent_product,
)
from .systems import (
    FactorMap,
    FiniteZdSystem,
    GroupRotationSystem,
    SubgroupSpec,
    invariant_factor,
    joint_distribution_predicate,
    rotation_extension,
)

__version__ = "0.1.0"

__all__ = [
    "Coupling",
    "ExactProbabilitySpace",
    "FactorMap",
    "FiniteZdSystem",
    "FurstenbergJoining",
    "GroupRotationSystem",
    "Partition",
    "RecurrenceCertificate",
    "SimpleFunction",
    "SubgroupSpec",
    "ae_equal",
    "cesaro_limit",
    "conditional_expectation",
    "furstenberg_self_joining",
    "invariant_factor",
    "joint_distribution_predicate",
    "nonconventional_average",
    "recurrence_certificate",
    "relative_independence",
    "relatively_independent_product",
    "rotation_extension",
    "van_der_corput_inequality",
]
