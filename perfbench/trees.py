"""Bench-only base trees, written as plain ``tree``/``edge`` files.

``treetomo gen --tree FILE`` reads these files; the library's own random
trees stop at 40 vertices, too small to load the inversion.  Each function
here returns the edge list and the sizes the augmentation must produce, so the
benchmark can check the generated artifacts against numbers it derived
itself.
"""

from __future__ import annotations

from dataclasses import dataclass

AUG_LEN = 2


@dataclass(frozen=True)
class BaseTree:
    name: str
    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    hull_radius: int
    augmented_count: int

    def text(self) -> str:
        lines = [f"tree {self.vertex_count} 0"]
        lines.extend(f"edge {u} {v}" for u, v in self.edges)
        return "\n".join(lines) + "\n"


def _sizes(edges: list[tuple[int, int]]) -> tuple[int, int, int]:
    """Vertex count, outer radius and augmented vertex count of a tree rooted at 0."""
    children: dict[int, list[int]] = {}
    for u, v in edges:
        children.setdefault(u, []).append(v)
    norm = {0: 0}
    order = [0]
    for u in order:
        for v in children.get(u, ()):
            norm[v] = norm[u] + 1
            order.append(v)
    radius = max(norm.values())
    leaves = [v for v in order if v != 0 and v not in children]
    added = sum(radius - norm[v] + AUG_LEN for v in leaves)
    return len(order), radius, len(order) + added


def _tree(name: str, edges: list[tuple[int, int]]) -> BaseTree:
    n, radius, augmented = _sizes(edges)
    return BaseTree(name, n, tuple(edges), radius, augmented)


def broom(a: int, b: int) -> BaseTree:
    """Root with ``a`` children, each with ``b`` leaf children.

    Ids run depth first: child ``c`` is followed by its ``b`` leaves.
    """
    edges = []
    nxt = 1
    for _ in range(a):
        c = nxt
        edges.append((0, c))
        edges.extend((c, c + 1 + j) for j in range(b))
        nxt = c + 1 + b
    return _tree(f"broom{a}x{b}", edges)


def comb(r: int) -> BaseTree:
    """Spine ``0..r`` with a one-edge tooth below each spine vertex but the tip.

    Spine vertex ``i`` carries tooth ``r + 1 + i``; ``2r + 1`` vertices.
    """
    edges = [(i, i + 1) for i in range(r)]
    edges.extend((i, r + 1 + i) for i in range(r))
    return _tree(f"comb{r}", edges)


def star(n: int) -> BaseTree:
    """The library's builtin ``star(1, n)``: root 0 with leaves ``1..n``."""
    return _tree(f"star1x{n}", [(0, j) for j in range(1, n + 1)])


def self_check() -> None:
    """Sizes the workload definitions rely on; raises on a mismatch."""
    b = broom(60, 60)
    if (b.vertex_count, b.augmented_count, b.hull_radius) != (3661, 10861, 2):
        raise RuntimeError(f"broom(60,60) sizes {b.vertex_count}, {b.augmented_count}")
    for r in (4, 8, 12, 16):
        c = comb(r)
        if c.vertex_count != 2 * r + 1 or c.hull_radius != r:
            raise RuntimeError(f"comb({r}) has {c.vertex_count} vertices")
