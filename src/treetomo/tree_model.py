"""Finite rooted trees and their boundary-layer augmentations, as arrays.

A rooted tree is stored as read-only ``intp`` arrays over its vertex ids:
the parent of each vertex (-1 at the root), its distance to the root (its
norm), and its children in compressed sparse row form.  Augmentation glues
chains of length ``L >= 2`` onto terminal vertices so that every branch
reaches the base's outer radius plus ``L``, whose last two shells are the
detector layers used by the forward solver and the tomography recursion.

:class:`AugmentedTree` is the one place that checks an augmentation, however
it was built.  It raises :class:`InvalidParameter` unless the base vertices
are the ids ``0..k-1`` of the full tree with the same root and parents, none
below an added vertex, every added vertex and every base terminal below the
outer radius has exactly one child (chains), the base has an edge and the
chains reach ``L >= 2`` past it.  So both layers hold only added vertices,
and each inner vertex has exactly one child, on the outer layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidParameter, NotATree, UnknownVertex

MAX_DEGREE = 10  # vertex degree bound of random_tree
FEW_EDGES = 64  # below this many edges one breadth-first pass beats pointer doubling


def ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The indices ``starts[i] .. starts[i] + lens[i] - 1`` for each ``i``, in turn."""
    ends = lens.cumsum()
    return (starts - ends + lens).repeat(lens) + np.arange(ends[-1] if len(ends) else 0)


@dataclass(frozen=True, eq=False)
class RootedTree:
    """Immutable rooted tree over vertex ids ``0..vertex_count-1``, as
    read-only ``intp`` arrays: ``parent[v]`` is the parent of ``v``, -1 at
    the root, and ``norm[v]`` the edge distance from ``v`` to the root.

    Derived once from ``parent``: ``vertex_count``, and the children in
    compressed sparse row form, each vertex's ascending: those of ``v`` are
    ``child_ids[child_starts[v]:child_starts[v + 1]]``, and ``children[v]``
    as a tuple, from a view built on first use.
    """

    root: int
    parent: np.ndarray
    norm: np.ndarray

    def __post_init__(self) -> None:
        parent = self.parent
        kids = parent.argsort(kind="stable")[1:]  # the root first, then by parent and id
        starts = parent[kids].searchsorted(np.arange(len(parent) + 1))
        for array in (parent, self.norm, starts, kids):
            array.flags.writeable = False
        self.__dict__.update(vertex_count=len(parent), child_starts=starts, child_ids=kids)

    @cached_property
    def children(self) -> tuple[tuple[int, ...], ...]:
        """``children[v]``: the children of ``v``, ascending."""
        ids, ends = self.child_ids.tolist(), self.child_starts.tolist()
        return tuple(tuple(ids[a:b]) for a, b in zip(ends, ends[1:]))

    def adjacency(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """How many neighbors each vertex of ``rows`` has, and those neighbors
        as one array: for each vertex in turn, its parent (if any), then its
        children ascending."""
        up = self.parent[rows] >= 0
        kids = self.child_starts[rows + 1] - self.child_starts[rows]
        below = self.child_ids[ranges(self.child_starts[rows], kids)]
        return kids + up, np.insert(below, (kids.cumsum() - kids)[up], self.parent[rows[up]])

    def subtree(self, v: int) -> tuple[int, ...]:
        """All descendants of ``v`` including ``v`` (``v`` first), deterministic."""
        out, stack = [v], [v]
        while stack:
            kids = self.children[stack.pop()]
            out += kids
            stack += kids
        return tuple(out)


@dataclass(frozen=True, eq=False)
class AugmentedTree:
    """A base tree embedded in its augmentation, checked on construction
    (see the module docstring) by array operations.

    Derived once: ``hull_radius`` ``R`` (the base's outer radius), ``aug_len``
    ``L`` (how far ``full`` reaches past it, >= 2), ``inner_layer`` and
    ``outer_layer`` (the shells of ``full`` at radius ``R + L - 1`` and
    ``R + L``, as read-only ascending id arrays), and the read horizon
    ``3 * (R + L - 2) + 4``, which is ``3R + 4`` when ``L = 2``.
    """

    base: RootedTree
    full: RootedTree

    def __post_init__(self) -> None:
        base, full = self.base, self.full
        k, norm = base.vertex_count, full.norm
        if k > full.vertex_count or ((base.parent != full.parent[:k]) | (base.parent >= k)).any():
            raise InvalidParameter("base is not the rooted subtree of full on ids 0..k-1")
        hull, radius = int(base.norm.max()), int(norm.max())
        if hull < 1 or radius < hull + 2:
            raise InvalidParameter(f"hull radius {hull} must be >= 1, aug_len {radius - hull} >= 2")
        deg = full.child_starts[1:] - full.child_starts[:-1]
        chain = norm < radius  # chain vertices: added ones, and base terminals
        chain[:k] &= base.child_starts[1:] == base.child_starts[:-1]
        if (bad := (chain & (deg != 1)).nonzero()[0]).size:
            raise InvalidParameter(f"vertex {bad[0]} of a chain has {deg[bad[0]]} children, not 1")
        inner, outer = (norm == radius - 1).nonzero()[0], (norm == radius).nonzero()[0]
        inner.flags.writeable = outer.flags.writeable = False
        self.__dict__.update(hull_radius=hull, horizon=3 * (radius - 2) + 4, aug_len=radius - hull,
                             inner_layer=inner, outer_layer=outer)


def build_tree(edges: list[tuple[int, int]] | np.ndarray, root: int) -> RootedTree:
    """Build a rooted tree from an undirected edge list.

    An ``(m, 2)`` id array of ``FEW_EDGES`` edges or more, as a tree file
    gives it, is first read parent first (:func:`_parent_first`).  Every
    list, and any other array or a shorter one, on which numpy calls cost
    more than they save, takes one breadth-first pass over plain int lists,
    which names the first fault.

    Args:
        edges: pairs of vertex ids, as a list or an ``(m, 2)`` integer array;
            ids must be exactly ``0..n-1``.
        root: id of the root vertex.

    Raises:
        NotATree: on cycles, disconnection, duplicate edges, or id gaps.
        UnknownVertex: if ``root`` does not appear among the ids.
    """
    n = len(edges) + 1
    if isinstance(edges, np.ndarray):
        if n > FEW_EDGES and (tree := _parent_first(edges, root)) is not None:
            return tree
        edges = edges.tolist()
    ids = [x for edge in edges for x in edge]
    if edges and 0 <= min(ids) and max(ids) < n and 0 <= root < n:
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        parent, norm = [-2] * n, [0] * n  # -2: not reached yet
        parent[root] = -1
        order = [root]
        for v in order:
            below = norm[v] + 1
            for w in adj[v]:
                if parent[w] == -2:
                    parent[w], norm[w] = v, below
                    order.append(w)
        if len(order) == n:  # n - 1 edges reach all n ids 0..n-1: a tree
            return RootedTree(root, np.array(parent, np.intp), np.array(norm, np.intp))
    # not a tree: the first self-loop or repeated edge in list order, then the
    # root, the ids and the edge count name the fault, else it is disconnected
    if not edges:
        raise NotATree("edge list is empty")
    seen: set[tuple[int, int]] = set()
    for u, v in edges:
        key = (u, v) if u < v else (v, u)
        if u == v or key in seen:
            raise NotATree(f"self-loop at {u}" if u == v else f"duplicate edge {key}")
        seen.add(key)
    vertices = {x for edge in seen for x in edge}
    if root not in vertices:
        raise UnknownVertex(f"root {root} not on any edge")
    n = max(vertices) + 1
    if min(vertices) != 0 or len(vertices) != n:  # distinct ids: exactly 0..n-1
        raise NotATree("vertex ids must be contiguous 0..n-1")
    if len(edges) != n - 1:
        raise NotATree(f"{len(edges)} edges for {n} vertices")
    raise NotATree("graph is disconnected")


def _parent_first(pairs: np.ndarray, root: int) -> RootedTree | None:
    """The tree of the ``(m, 2)`` id array ``pairs`` read parent first, as
    :func:`dump_tree` writes it, or None when it does not read so or closes
    a cycle; every array is sized by the edge count.

    That reading holds when every id but the root is a child exactly once
    and the root never: then one scatter sets the parents, and pointer
    doubling sets the norms, in about ``log2(height)`` rounds of ``norm +=
    norm[jump]; jump = jump[jump]`` that end once every jump reaches the
    root, which also shows the edges acyclic and connected."""
    n = len(pairs) + 1
    if n < 2 or not 0 <= root < n or pairs.min() < 0 or pairs.max() >= n:
        return None
    parent = np.full(n, -1, np.intp)
    parent[pairs[:, 1]] = pairs[:, 0]
    if parent[root] >= 0 or np.count_nonzero(parent >= 0) < n - 1:  # root a child, or a child twice
        return None
    jump, norm = parent.copy(), np.ones(n, np.intp)
    jump[root], norm[root] = root, 0  # the root jumps to itself, at distance 0
    for _ in range(n.bit_length() + 1):  # 2**rounds > n - 1 >= the height
        if (jump == root).all():
            return RootedTree(root, parent, norm)
        norm += norm[jump]
        jump = jump[jump]
    return None  # a cycle off the root


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
    shell enumeration used throughout the recovery machinery.  The chains
    are laid out as arrays, appended to the parent and norm arrays of the
    full tree, and :class:`AugmentedTree` checks the result, so ``l < 2``
    raises :class:`InvalidParameter`.
    """
    n, norm = tree.vertex_count, tree.norm
    ends = ((tree.child_starts[1:] == tree.child_starts[:-1]) & (tree.parent >= 0)).nonzero()[0]
    lens = np.maximum(int(norm.max()) + l - norm[ends], 0)
    level = ranges(norm[ends] + 1, lens)  # each chain, root to tip, in turn
    order = level.argsort(kind="stable")  # ids n, n+1, ...: by level, then terminal
    above = np.concatenate(([-1], order.argsort()[:-1] + n))  # each chain vertex's parent:
    above[(lens.cumsum() - lens)[lens > 0]] = ends[lens > 0]  # the one before it, or its terminal
    return AugmentedTree(tree, RootedTree(tree.root, np.concatenate((tree.parent, above[order])),
                                          np.concatenate((norm, level[order]))))


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
    norm = list(range(rout + 1))
    kids = [1] * rout + [0]
    for v in range(rout + 1, size):
        shallow = [
            u for u in range(v) if norm[u] < rout and kids[u] < MAX_DEGREE - 1
        ]
        if not shallow:
            break
        p = int(shallow[rng.integers(len(shallow))])
        edges.append((p, v))
        norm.append(norm[p] + 1)
        kids[p] += 1
        kids.append(0)
    return build_tree(edges, 0)
