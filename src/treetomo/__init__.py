"""treetomo: boundary-layer tomography for killed walks on rooted trees.

Build a rooted tree, augment it so every branch reaches two detector layers,
attach a nearest-neighbor chain, and either compute the joint laws of first
boundary contact exactly or sample them.  The tomography module inverts the
map: the two boundary laws determine every transition probability, exactly
from analytic laws and consistently from simulated probes.
"""

from .chain_model import (
    FLOAT,
    KNOWN,
    RATIONAL,
    RECOVERED,
    UNKNOWN,
    TransitionKernel,
    random_kernel,
    validate_kernel,
)
from .errors import TreetomoError
from .estimation import (
    SampleBatch,
    collect_batch,
    consistency_curve,
    empirical_joint,
    estimate_kernel,
)
from .forward_solver import (
    INNER,
    OUTER,
    HittingDistribution,
    first_hitting_joint,
)
from .tomography import (
    RecoveryReport,
    kernel_max_error,
    recover_all,
)
from .tree_model import (
    AugmentedTree,
    RootedTree,
    build_tree,
    random_tree,
    segment,
    spherical_augmentation,
    star,
)

__version__ = "0.1.0"

__all__ = [
    "AugmentedTree",
    "FLOAT",
    "HittingDistribution",
    "INNER",
    "KNOWN",
    "OUTER",
    "RATIONAL",
    "RECOVERED",
    "RecoveryReport",
    "RootedTree",
    "SampleBatch",
    "TransitionKernel",
    "TreetomoError",
    "UNKNOWN",
    "build_tree",
    "collect_batch",
    "consistency_curve",
    "empirical_joint",
    "estimate_kernel",
    "first_hitting_joint",
    "kernel_max_error",
    "random_kernel",
    "random_tree",
    "recover_all",
    "segment",
    "spherical_augmentation",
    "star",
    "validate_kernel",
]
