"""Shared instance generators for the test suite."""

from __future__ import annotations

from itertools import product

from treetomo import (
    KNOWN,
    TransitionKernel,
    random_kernel,
    spherical_augmentation,
)
from treetomo.tree_model import AugmentedTree, RootedTree, build_tree, random_tree


def rand_instance(
    seed: int,
    rout: int | None = None,
    mode: str = "float",
    scope: str = "all",
    size: int | None = None,
    floor: float = 0.05,
) -> tuple[AugmentedTree, TransitionKernel]:
    """Random augmented tree plus a full random kernel on it."""
    if rout is None:
        rout = 1 + seed % 4
    base = random_tree(rout, seed, size=size)
    aug = spherical_augmentation(base, 2)
    kernel = random_kernel(aug, seed + 1000, floor=floor, scope=scope, mode=mode)
    return aug, kernel


def known_part(kernel: TransitionKernel) -> TransitionKernel:
    return kernel.restricted_to({KNOWN})


def shape_signature(tree: RootedTree, v: int | None = None):
    """Canonical form of a rooted tree (isomorphism-invariant)."""
    if v is None:
        v = tree.root
    return tuple(sorted(shape_signature(tree, c) for c in tree.children[v]))


def small_bases(max_aug_vertices: int = 9) -> list[RootedTree]:
    """Every rooted tree shape whose 2-spherical augmentation stays small.

    Enumerates parent arrays (parent of vertex i is some j < i), filters by
    augmented size, and deduplicates up to rooted isomorphism.
    """
    seen = set()
    out: list[RootedTree] = []
    for b in range(2, max_aug_vertices + 1):
        for parents in product(*(range(i) for i in range(1, b))):
            tree = build_tree([(p, i) for i, p in enumerate(parents, start=1)], 0)
            r = max(tree.norm.values())
            aug_size = tree.vertex_count + sum(
                r - tree.norm[v] + 2 for v in tree.terminals()
            )
            if aug_size > max_aug_vertices:
                continue
            sig = shape_signature(tree)
            if sig in seen:
                continue
            seen.add(sig)
            out.append(tree)
    return out


def broom(a: int, b: int) -> RootedTree:
    """Root with ``a`` children, each carrying ``b`` leaves (radius 2)."""
    edges = []
    for i in range(a):
        c = 1 + i * (b + 1)
        edges.append((0, c))
        edges.extend((c, c + 1 + j) for j in range(b))
    return build_tree(edges, 0)


def comb(r: int) -> RootedTree:
    """Spine ``0..r`` with a one-edge tooth below each spine vertex but the tip."""
    edges = [(i, i + 1) for i in range(r)] + [(i, r + 1 + i) for i in range(r)]
    return build_tree(edges, 0)


def up_product(aug: AugmentedTree, kernel: TransitionKernel, z: int, u: int):
    """Product of inward transitions along the path from ``z`` up to ``u``."""
    acc = 1
    while z != u:
        p = aug.full.parent[z]
        acc = acc * kernel.prob(z, p)
        z = p
    return acc


def down_product(aug: AugmentedTree, kernel: TransitionKernel, w: int, v: int):
    """Product of outward transitions along the path from ``w`` down to ``v``."""
    acc = 1
    while v != w:
        p = aug.full.parent[v]
        acc = acc * kernel.prob(p, v)
        v = p
    return acc


def explicit_edge_coefficient(aug, kernel, plan, p_out):
    """Out-and-back coefficient as an explicit sum over path pairs.

    Sums, over every inner vertex ``z`` below ``plan.vertex`` and every outer
    target ``v`` below ``plan.child``, the ballistic outer arrival through
    ``z`` divided by its last step, times the inward product from ``z`` up to
    the vertex and the outward product from the child down to ``v``.
    """
    total = 0
    for z in aug.layer_descendants(plan.vertex, aug.inner_layer):
        zo = aug.outer_child(z)
        ballistic = p_out.prob(aug.hull_radius + 2, zo) / kernel.prob(z, zo)
        head = ballistic * up_product(aug, kernel, z, plan.vertex)
        for v in plan.outer_targets:
            total = total + head * down_product(aug, kernel, plan.child, v)
    return total
