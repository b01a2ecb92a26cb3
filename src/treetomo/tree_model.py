"""Finite rooted trees, shells, and boundary-layer augmentations.

A rooted tree is stored with parents oriented away from the root and with
every vertex carrying its distance to the root (its norm).  The shell ``k``
of a tree is the set of vertices at norm ``k``; shells partition the vertex
set.  Augmentation glues chains onto terminal vertices so that every branch
reaches a common outer radius, which creates the two detector layers used by
the forward solver and the tomography recursion.

:class:`AugmentedTree` is the one place that checks an augmentation, however
it was built.  It raises :class:`InvalidParameter` unless the base vertices
are the ids ``0..k-1`` of the full tree with the same root and parents, none
below an added vertex, every added vertex and every base terminal below the
outer radius has exactly one child (chains), the base has an edge and the
chains reach past it.  So both layers lie off the root, and each inner vertex
has exactly one child, on the outer layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, NotATree, UnknownVertex

MAX_DEGREE = 10  # vertex degree bound of random_tree


@dataclass(frozen=True)
class RootedTree:
    """Immutable rooted tree over vertex ids ``0..vertex_count-1``.

    ``parent[root]`` is None; ``children`` sequences are sorted ascending so
    iteration order is deterministic.  ``norm[v]`` is the edge distance from
    ``v`` to the root.
    """

    vertex_count: int
    root: int
    parent: dict[int, int | None]
    children: dict[int, tuple[int, ...]]
    norm: dict[int, int]

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Parent (if any) followed by children, as one tuple."""
        p = self.parent[v]
        if p is None:
            return self.children[v]
        return (p,) + self.children[v]

    def terminals(self) -> tuple[int, ...]:
        """Degree-1 vertices, root excluded."""
        return tuple(v for v in range(self.vertex_count)
                     if v != self.root and not self.children[v])

    def subtree(self, v: int) -> tuple[int, ...]:
        """All descendants of ``v`` including ``v`` (``v`` first), deterministic."""
        out = [v]
        stack = [v]
        while stack:
            for c in self.children[stack.pop()]:
                out.append(c)
                stack.append(c)
        return tuple(out)

    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (u, c) for u in range(self.vertex_count) for c in self.children[u]
        )


@dataclass(frozen=True)
class AugmentedTree:
    """A base tree embedded in its augmentation, checked on construction
    (see the module docstring).

    Derived once: ``hull_radius`` (the base's outer radius), ``aug_len`` (how
    far ``full`` reaches past it, >= 1), ``inner_layer`` and ``outer_layer``
    (the shells of ``full`` at radius ``hull_radius + aug_len - 1`` and
    ``hull_radius + aug_len``), and the read horizon ``3 * hull_radius + 4``.
    """

    base: RootedTree
    full: RootedTree

    def __post_init__(self) -> None:
        base, full = self.base, self.full
        k, norm = base.vertex_count, full.norm
        if k > full.vertex_count or any(base.parent[v] != (p := full.parent[v])
                                        or (p is not None and p >= k) for v in range(k)):
            raise InvalidParameter("base is not the rooted subtree of full on ids 0..k-1")
        hull, radius = max(base.norm.values()), max(norm.values())
        if hull < 1 or radius <= hull:
            raise InvalidParameter(f"hull radius {hull} and aug_len {radius - hull} must be >= 1")
        for v, kids in full.children.items():
            if norm[v] < radius and (v >= k or not base.children[v]) and len(kids) != 1:
                raise InvalidParameter(f"vertex {v} of a chain has {len(kids)} children, not 1")
        set_ = object.__setattr__
        set_(self, "hull_radius", hull)
        set_(self, "horizon", 3 * hull + 4)
        set_(self, "aug_len", radius - hull)
        set_(self, "inner_layer", frozenset(v for v, n in norm.items() if n == radius - 1))
        set_(self, "outer_layer", frozenset(v for v, n in norm.items() if n == radius))

    def is_original(self, v: int) -> bool:
        return v < self.base.vertex_count

    def layer_descendants(self, v: int, layer: frozenset[int]) -> tuple[int, ...]:
        """Descendants of ``v`` (in ``full``) that belong to ``layer``."""
        return tuple(x for x in self.full.subtree(v) if x in layer)

    def outer_child(self, z: int) -> int:
        """The unique outer-layer child of an inner-layer vertex."""
        return self.full.children[z][0]


def build_tree(edges: list[tuple[int, int]], root: int) -> RootedTree:
    """Build a rooted tree from an undirected edge list, in one breadth-first
    pass over adjacency lists that sets parents and norms and collects children.

    Args:
        edges: pairs of vertex ids; ids must be exactly ``0..n-1``.
        root: id of the root vertex.

    Raises:
        NotATree: on cycles, disconnection, duplicate edges, or id gaps.
        UnknownVertex: if ``root`` does not appear among the ids.
    """
    if not edges:
        raise NotATree("edge list is empty")
    ids: set[int] = set()
    seen = set()
    for u, v in edges:
        if u == v:
            raise NotATree(f"self-loop at {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise NotATree(f"duplicate edge {key}")
        seen.add(key)
        ids.add(u)
        ids.add(v)
    if root not in ids:
        raise UnknownVertex(f"root {root} not on any edge")
    n = max(ids) + 1
    if min(ids) != 0 or len(ids) != n:  # distinct ids: exactly 0..n-1
        raise NotATree("vertex ids must be contiguous 0..n-1")
    if len(edges) != n - 1:
        raise NotATree(f"{len(edges)} edges for {n} vertices")

    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)

    parent: dict[int, int | None] = {root: None}
    norm = {root: 0}
    kids: list[tuple[int, ...]] = [()] * n
    order = [root]
    for v in order:
        below = [w for w in adj[v] if w not in norm]
        for w in below:
            parent[w], norm[w] = v, norm[v] + 1
        order += below
        kids[v] = tuple(sorted(below))
    if len(order) != n:
        raise NotATree("graph is disconnected")
    return RootedTree(n, root, parent, dict(enumerate(kids)), norm)


def segment(k: int, l: int) -> RootedTree:
    """Two-armed path rooted at its junction: arms of length ``k`` and ``l``.

    Ids run 0 (root), then 1..l along one arm, then l+1..l+k along the
    other.  ``k == 0`` gives a plain path of ``l`` edges rooted at one end.
    """
    if k < 0 or l < 1:
        raise InvalidParameter(f"segment requires k >= 0 and l >= 1, got ({k}, {l})")
    edges = [(0, 1)] + [(i, i + 1) for i in range(1, l)]
    if k > 0:
        edges.append((0, l + 1))
        edges.extend((l + j, l + j + 1) for j in range(1, k))
    return build_tree(edges, 0)


def star(l: int, n: int) -> RootedTree:
    """``n`` chains of length ``l`` glued at a common root.

    Vertices are numbered shell by shell: the root is 0 and the shell-``s``
    vertex of branch ``j`` (1-based) is ``(s-1)*n + j``.
    """
    if l < 1 or n < 1:
        raise InvalidParameter(f"star requires l >= 1 and n >= 1, got ({l}, {n})")
    edges = [(0, j) for j in range(1, n + 1)]
    for s in range(2, l + 1):
        base = (s - 2) * n
        edges.extend((base + j, base + n + j) for j in range(1, n + 1))
    return build_tree(edges, 0)


def spherical_augmentation(tree: RootedTree, l: int) -> AugmentedTree:
    """Augment every terminal branch out to radius ``outer_radius + l``.

    Each terminal vertex ``v`` receives a chain of ``R - norm(v) + l`` new
    vertices, where ``R`` is the outer radius of ``tree``.  New ids are
    assigned level by level (all new vertices at a given norm come before any
    deeper ones, ordered by terminal id within a level), which matches the
    shell enumeration used throughout the recovery machinery.  Each chain
    vertex is written straight into the parent, children and norm maps of the
    full tree, and :class:`AugmentedTree` checks the result, so ``l < 1``
    raises :class:`InvalidParameter`.
    """
    r_out = max(tree.norm.values())
    parent, children, norm = dict(tree.parent), dict(tree.children), dict(tree.norm)
    tip = {v: v for v in tree.terminals()}  # terminal -> current end of its chain
    for level in range(1, r_out + l + 1):
        for v, end in tip.items():
            if tree.norm[v] < level:
                new = len(parent)  # ids continue from the vertices so far
                parent[new], norm[new] = end, level
                children[end], children[new] = (new,), ()
                tip[v] = new
    return AugmentedTree(tree, RootedTree(len(parent), tree.root, parent, children, norm))


def random_tree(rout: int, seed: int, size: int | None = None) -> RootedTree:
    """Reproducible random rooted tree with outer radius exactly ``rout``.

    A spine of length ``rout`` guarantees the radius; remaining vertices
    attach to uniformly chosen parents at norms below ``rout`` whose child
    count is below ``MAX_DEGREE - 1``.  ``size`` is an upper bound (growth
    stops early once every eligible parent is saturated) and defaults to a
    seed-dependent draw; trees never exceed 40 vertices.
    """
    if not 1 <= rout <= 39:  # a spine of rout + 1 vertices within 40
        raise InvalidParameter(f"rout must lie in [1, 39], got {rout}")
    if seed < 0:
        raise InvalidParameter(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    if size is None:
        size = int(rng.integers(rout + 1, min(40, rout + 16) + 1))
    if size < rout + 1 or size > 40:
        raise InvalidParameter(f"size must lie in [rout+1, 40], got {size}")

    edges = [(i, i + 1) for i in range(rout)]
    norm = {i: i for i in range(rout + 1)}
    kids = {i: (1 if i < rout else 0) for i in range(rout + 1)}
    for v in range(rout + 1, size):
        shallow = [
            u for u in range(v) if norm[u] < rout and kids[u] < MAX_DEGREE - 1
        ]
        if not shallow:
            break
        p = int(shallow[rng.integers(len(shallow))])
        edges.append((p, v))
        norm[v] = norm[p] + 1
        kids[p] += 1
        kids[v] = 0
    return build_tree(edges, 0)
