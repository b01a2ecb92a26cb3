"""The package exports what the pipelines use; test oracles live in ``tests/``."""

import ast
from pathlib import Path

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


def test_no_unused_imports():
    # every name a module imports is used in it; __init__ imports to export
    for path in sorted(Path(treetomo.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= used, (path.name, sorted(imported - used))
