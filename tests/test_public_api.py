"""The package exports what the pipelines use; test oracles live in ``tests/``."""

import treetomo

PUBLIC = [
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


def test_all_is_pinned():
    assert treetomo.__all__ == PUBLIC


def test_every_name_resolves():
    for name in treetomo.__all__:
        assert getattr(treetomo, name) is not None, name
