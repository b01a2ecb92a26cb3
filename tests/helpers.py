"""Shared instance generators and the test oracles for the test suite."""

from __future__ import annotations

import functools
import math
import re
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, product

import numpy as np

from treetomo import (
    FLOAT,
    INNER,
    KNOWN,
    RATIONAL,
    RECOVERED,
    UNKNOWN,
    HittingDistribution,
    TransitionKernel,
    TreetomoError,
    random_kernel,
    spherical_augmentation,
)
from treetomo.chain_model import RATIONAL_GRID, Number
from treetomo.errors import (
    FormatError,
    InvalidParameter,
    InvalidQuery,
    MissingRow,
    NotATree,
    OutOfRange,
    RowSumViolation,
    UnknownVertex,
    ZeroDenominator,
)
from treetomo.tomography import (
    FLOAT_EDGE_SLACK,
    EdgeRecoveryPlan,
    _clamp,
    _root_sum_off,
    _show,
    make_plan,
    tail_passage_probs,
)
from treetomo.formats import (
    _KERNEL,
    _TREE,
    ORIGINAL,
    _fmt,
    _parse_number,
    _records,
    _vertex,
    dump_tree,
)
from treetomo.tree_model import AugmentedTree, RootedTree, build_tree, random_tree, segment


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


def kernel_from_entries(entries: Mapping[int, Mapping[int, Number]],
                        provenance: Mapping[int, str] | None = None,
                        mode: str = FLOAT) -> TransitionKernel:
    """The kernel with row ``entries[u]`` labelled ``provenance.get(u)`` for
    each ``u``, rows and slots in the mappings' order, so a label without a
    row is dropped; ids become ``intp`` and float entries float64."""
    rows = list(entries.values())
    values = list(chain.from_iterable(row.values() for row in rows))
    return TransitionKernel(
        np.array(list(entries), np.intp), np.array(list(map(len, rows)), np.intp),
        np.array(list(chain.from_iterable(rows)), np.intp),
        np.array(values, float if mode == FLOAT else object),
        np.array(list(map((provenance or {}).get, entries)), object), mode)


def labels_of(kernel: TransitionKernel) -> dict[int, str]:
    """``u -> label`` of the labelled rows of ``kernel``, in table order."""
    labels = zip(kernel.vertices.tolist(), kernel.labels.tolist())
    return {u: label for u, label in labels if label is not None}


def law_from_mass(layer: str, t_max: int,
                  mass: dict[tuple[int, int], Number]) -> HittingDistribution:
    """``HittingDistribution.from_mass``, or when a value is a ``Fraction`` the
    exact law over the same grid, each time over the lcm of its denominators."""
    if not any(isinstance(p, Fraction) for p in mass.values()):
        return HittingDistribution.from_mass(layer, t_max, mass)
    times = sorted({t for t, _ in mass})
    vertices = sorted({v for _, v in mass})
    row = dict(zip(times, range(len(times))))
    col = dict(zip(vertices, range(len(vertices))))
    fracs = {(row[t], col[v]): Fraction(p) for (t, v), p in mass.items()}
    dens = [1] * len(times)
    for (i, _), p in fracs.items():
        dens[i] = math.lcm(dens[i], p.denominator)
    cells = np.zeros((len(times), len(vertices)), object)
    for (i, j), p in fracs.items():
        cells[i, j] = p.numerator * (dens[i] // p.denominator)
    return HittingDistribution(layer, t_max, tuple(vertices), tuple(times), cells, tuple(dens))


def tree_file(root: int, edges: str, original: int) -> str:
    """Augmented-tree file text: ``edges`` as ``"u-v u-v ..."``, with the ids
    below ``original`` flagged original; every higher id is added."""
    pairs = [tuple(map(int, e.split("-"))) for e in edges.split()]
    n = max(map(max, pairs)) + 1
    lines = [f"tree {n} {root}", *(f"edge {u} {v}" for u, v in pairs)]
    lines += [f"origin {v} original" for v in range(original)]
    return "\n".join(lines) + "\n"


def numerator_edits(text: str, rng, count: int) -> list[str]:
    """``count`` copies of the rational law file ``text``, each with one
    numerator ``n`` of a time line, drawn by ``rng`` (a ``random.Random``),
    moved by one of ``1``, ``-1``, ``n // 1000 + 1`` and ``n // 7``."""
    lines = text.splitlines()
    out = []
    for _ in range(count):
        i = rng.randrange(1, len(lines))
        cells = lines[i].split("\t")
        j = rng.randrange(2, len(cells))  # past the time and its denominator
        n = int(cells[j])
        cells[j] = str(n + rng.choice((1, -1, n // 1000 + 1, n // 7)))
        out.append("\n".join(lines[:i] + ["\t".join(cells)] + lines[i + 1:]) + "\n")
    return out


def token_edits(text: str, rng, count: int, tokens) -> list[str]:
    """``count`` copies of the artifact ``text``, each with one edit at a
    line drawn by ``rng``: a token of it (a kernel cell's vertex and
    probability are tokens of their own) replaced by one of ``tokens`` or
    removed with its separator, or the line deleted or repeated."""
    lines = text.splitlines()
    out = []
    for _ in range(count):
        i = rng.randrange(len(lines))
        pieces = re.split(r"([\s:]+)", lines[i])  # tokens at even places
        j = 2 * rng.randrange((len(pieces) + 1) // 2)
        kind = rng.randrange(4)
        if kind == 0:  # a token replaced
            edited = ["".join(pieces[:j] + [rng.choice(tokens)] + pieces[j + 1:])]
        elif kind == 1:  # a token removed, with the separator before it or the first after
            edited = ["".join(pieces[:j - 1] + pieces[j + 1:] if j else pieces[2:])]
        else:  # the line deleted or repeated
            edited = [lines[i]] * (2 * kind - 4)
        out.append("\n".join(lines[:i] + edited + lines[i + 1:]) + "\n")
    return out


_SEGMENT = tree_file(0, "0-1 1-2 2-3", 2)  # segment(0, 1) augmented by 2

# Tree files that are not a valid augmentation of a base tree, each with a
# fragment of its own message: parse_tree raises FormatError with it, and
# every command that reads the file exits 2 with it.
INVALID_TREES = {
    "duplicate-edge": (tree_file(0, "0-1 1-2 2-1", 2), "duplicate edge (1, 2)"),
    "disconnected": (tree_file(0, "0-1 2-3 3-4 4-2", 2), "graph is disconnected"),
    "root-on-no-edge": (tree_file(5, "0-1 1-2 2-3", 2), "root 5 not on any edge"),
    "base-below-an-added-vertex": (
        tree_file(0, "0-1 1-3 3-2", 3), "base is not the rooted subtree"
    ),
    "original-vertex-1-below-an-added-vertex": (
        tree_file(0, "0-2 2-1 1-3 3-4", 2), "base is not the rooted subtree"
    ),
    "root-not-original": (tree_file(3, "0-1 1-2 2-3", 2), "prefix 0..k-1 holding the root"),
    "no-chain": (tree_file(0, "0-1", 2), "must be >= 1, aug_len 0 >= 2"),
    "chain-of-length-1": (tree_file(0, "0-1 1-2", 2), "must be >= 1, aug_len 1 >= 2"),
    "forked-inner-vertex": (
        tree_file(0, "0-1 1-2 2-3 2-4", 2), "vertex 2 of a chain has 2 children"
    ),
    "added-vertex-with-two-children": (
        tree_file(0, "0-1 1-2 0-3 2-4 4-5 3-6 6-7 7-8 6-9 9-10", 4),
        "vertex 6 of a chain has 2 children",
    ),
    # a branch that ends below the outer radius, at a base terminal or an added vertex
    "base-terminal-without-a-chain": (
        tree_file(0, "0-1 0-2 1-3 3-4", 3), "vertex 2 of a chain has 0 children, not 1"
    ),
    "chain-ending-short": (
        tree_file(0, "0-1 0-2 1-3 3-4 2-5", 3), "vertex 5 of a chain has 0 children, not 1"
    ),
    "plain-duplicate-edge": ("tree 2 0\nedge 0 1\nedge 1 0\n", "duplicate edge (0, 1)"),
    "trailing-tokens": ("tree 2 0 junk\nedge 0 1 7\n", "trailing tokens in line 'tree 2 0 junk'"),
    "repeated-tree-header": (_SEGMENT + "tree 4 0\n", "repeated header"),
    "tree-header-after-an-edge": (
        "edge 0 1\n" + _SEGMENT.replace("edge 0 1\n", ""), "does not open with its tree header"
    ),
    "origin-given-twice": (
        _SEGMENT.replace("origin 1 original", "origin 1 original\norigin 1 original"),
        "bad or repeated origin flag",
    ),
    # more origin records than vertices: refused as a format error, not a crash
    "origin-cover": (
        "tree 3 0\nedge 0 1\nedge 1 2\n" + "".join(f"origin {v} original\n" for v in range(4)),
        "prefix 0..k-1",
    ),
    # added vertices are the ids past the base; a record that flags one is refused
    "origin-added": (
        dump_tree(spherical_augmentation(segment(0, 1), 2)) + "origin 3 added\n",
        "bad or repeated origin flag in 'origin 3 added'",
    ),
    "unknown-layer": (_SEGMENT + "layer middle 2\n", "unknown record"),
    "layer-given-twice": (_SEGMENT + "layer inner 1\nlayer inner 2\n", "unknown record"),
    "vertex-twice-in-a-layer": (_SEGMENT + "layer inner 2 2\n", "unknown record"),
    "layer-without-origin": (
        "tree 3 0\nedge 0 1\nedge 1 2\nlayer inner 99 98\n", "unknown record"
    ),
    "vertex-id-far-past-n": ("tree 2 0\nedge 0 10000000000\n", "contiguous 0..n-1"),
    # arrays are sized by the edge count, never by the header
    "header-claims-far-more-vertices": (
        "tree 100000000000000000 0\nedge 0 1\n",
        "header says 100000000000000000 vertices, edges give 2",
    ),
}


class NotTerminal(TreetomoError):
    """Operation requires a terminal (degree-1, non-root) vertex."""


class DegreeMismatch(TreetomoError):
    """A vertex that must have exactly two neighbors does not."""


class TooLarge(TreetomoError):
    """Instance exceeds the caps of the brute-force oracle."""


@dataclass(frozen=True)
class DictTree:
    """A rooted tree as ``int -> int`` maps, the form of the tree references:
    ``parent[root]`` is None and ``children`` tuples are ascending."""

    vertex_count: int
    root: int
    parent: dict[int, int | None]
    children: dict[int, tuple[int, ...]]
    norm: dict[int, int]


def dicts_of(tree: RootedTree) -> DictTree:
    """The maps of ``tree``'s arrays, to compare with a reference."""
    parent = {v: None if p < 0 else p for v, p in enumerate(tree.parent.tolist())}
    return DictTree(tree.vertex_count, tree.root, parent, dict(enumerate(tree.children)),
                    dict(enumerate(tree.norm.tolist())))


def same_tree(a: RootedTree | AugmentedTree, b: RootedTree | AugmentedTree) -> bool:
    """Whether two trees, or two augmentations, hold the same arrays."""
    if isinstance(a, AugmentedTree):
        return same_tree(a.base, b.base) and same_tree(a.full, b.full)
    return dicts_of(a) == dicts_of(b)


def build_tree_by_dicts(edges: list[tuple[int, int]], root: int) -> DictTree:
    """Reference for ``build_tree``: one breadth-first pass over adjacency
    lists that fills the parent, children and norm maps, each vertex's
    children sorted, after a scan that names the first fault."""
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
    if min(ids) != 0 or len(ids) != n:
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
    return DictTree(n, root, parent, dict(enumerate(kids)), norm)


def check_augmentation_by_dicts(base: DictTree, full: DictTree) -> tuple:
    """Reference for the checks of ``AugmentedTree``, vertex by vertex over the
    maps: raises as it does, else returns ``(hull_radius, horizon, aug_len,
    inner_layer, outer_layer)``, the layers as frozensets."""
    k, norm = base.vertex_count, full.norm
    if k > full.vertex_count or any(base.parent[v] != (p := full.parent[v])
                                    or (p is not None and p >= k) for v in range(k)):
        raise InvalidParameter("base is not the rooted subtree of full on ids 0..k-1")
    hull, radius = max(base.norm.values()), max(norm.values())
    if hull < 1 or radius - hull < 2:
        raise InvalidParameter(f"hull radius {hull} must be >= 1, aug_len {radius - hull} >= 2")
    for v, kids in full.children.items():
        if norm[v] < radius and (v >= k or not base.children[v]) and len(kids) != 1:
            raise InvalidParameter(f"vertex {v} of a chain has {len(kids)} children, not 1")
    rho = radius - 2  # the shell just inside the inner layer
    return (hull, 3 * rho + 4, radius - hull,
            frozenset(v for v, n in norm.items() if n == radius - 1),
            frozenset(v for v, n in norm.items() if n == radius))


def augment_by_dicts(tree: DictTree, l: int) -> tuple[DictTree, tuple]:
    """Reference for ``spherical_augmentation``: each chain vertex written
    straight into the maps of the full tree, level by level and terminal by
    terminal, then checked; returns the full tree and what the check returns."""
    r_out = max(tree.norm.values())
    parent, children, norm = dict(tree.parent), dict(tree.children), dict(tree.norm)
    tip = {v: v for v in range(tree.vertex_count) if v != tree.root and not tree.children[v]}
    for level in range(1, r_out + l + 1):
        for v, end in tip.items():
            if tree.norm[v] < level:
                new = len(parent)
                parent[new], norm[new] = end, level
                children[end], children[new] = (new,), ()
                tip[v] = new
    full = DictTree(len(parent), tree.root, parent, children, norm)
    return full, check_augmentation_by_dicts(tree, full)


def parse_tree_by_records(text: str) -> DictTree | tuple[DictTree, tuple]:
    """Reference for ``parse_tree``, record by record into the maps of
    :func:`build_tree_by_dicts` and checked by
    :func:`check_augmentation_by_dicts`: a plain tree, or the full tree of an
    augmented one and what the check returns."""
    edges: list[tuple[int, int]] = []
    origin: set[int] = set()
    records = _records(text, _TREE, "tree")
    try:
        n, root = map(int, next(records)[1:])
        for parts in records:
            if parts[0] == "edge":
                edges.append((int(parts[1]), int(parts[2])))
            else:
                v = int(parts[1])
                if parts[2] != ORIGINAL or v in origin:
                    raise FormatError(f"bad or repeated origin flag in {' '.join(parts)!r}")
                origin.add(v)
    except ValueError as exc:
        raise FormatError(f"bad tree line: {exc}") from exc
    try:
        full = build_tree_by_dicts(edges, root)
        if full.vertex_count != n:
            raise FormatError(f"header says {n} vertices, edges give {full.vertex_count}")
        if not origin:
            return full
        k = len(origin)
        if origin != set(range(k)) or not root < k <= n:
            raise FormatError("base vertex ids must form a prefix 0..k-1 holding the root")
        base = DictTree(k, root, {v: full.parent[v] for v in range(k)},
                        {v: tuple(c for c in full.children[v] if c < k) for v in range(k)},
                        {v: full.norm[v] for v in range(k)})
        return full, check_augmentation_by_dicts(base, full)
    except (NotATree, UnknownVertex, InvalidParameter) as exc:
        raise FormatError(f"not a valid tree: {exc}") from exc


def tree_edges(tree: RootedTree) -> tuple[tuple[int, int], ...]:
    """Every edge ``(parent, child)``, by parent and then child."""
    return tuple((u, c) for u in range(tree.vertex_count) for c in tree.children[u])


def terminals(tree: RootedTree) -> tuple[int, ...]:
    """Degree-1 vertices, root excluded."""
    return tuple(v for v in range(tree.vertex_count)
                 if v != tree.root and not tree.children[v])


def neighbors(tree: RootedTree, v: int) -> tuple[int, ...]:
    """Parent (if any) followed by children, as one tuple."""
    p = int(tree.parent[v])
    return tree.children[v] if p < 0 else (p,) + tree.children[v]


def is_original(aug: AugmentedTree, v: int) -> bool:
    return v < aug.base.vertex_count


def layer_descendants(aug: AugmentedTree, v: int, layer: np.ndarray) -> tuple[int, ...]:
    """Descendants of ``v`` (in ``full``) that belong to ``layer``."""
    members = set(layer.tolist())
    return tuple(x for x in aug.full.subtree(v) if x in members)


def outer_child(aug: AugmentedTree, z: int) -> int:
    """The unique outer-layer child of an inner-layer vertex."""
    return aug.full.children[z][0]


def degree(tree: RootedTree, v: int) -> int:
    return len(neighbors(tree, v))


def shells(tree: RootedTree) -> dict[int, tuple[int, ...]]:
    out: dict[int, list[int]] = {}
    for v, k in enumerate(tree.norm.tolist()):
        out.setdefault(k, []).append(v)
    return {k: tuple(sorted(vs)) for k, vs in out.items()}


def radii(tree: RootedTree) -> tuple[int, int, bool]:
    """Return ``(inner_radius, outer_radius, spherical)``.

    The outer radius is the maximum norm; the inner radius is the minimum
    norm over terminal vertices (root excluded from the terminal set).
    """
    r_out = int(tree.norm.max())
    terms = terminals(tree)
    if not terms:
        raise InvalidParameter("tree has no terminal vertex")
    r_in = int(tree.norm[list(terms)].min())
    return r_in, r_out, r_in == r_out


def l_augment_at(tree: RootedTree, v: int, l: int) -> RootedTree:
    """Glue a chain of ``l`` new vertices below terminal vertex ``v``.

    Original ids are preserved; the new chain gets ids
    ``n, n+1, ..., n+l-1`` in root-to-tip order.
    """
    if l < 1:
        raise InvalidParameter(f"chain length must be >= 1, got {l}")
    if v not in range(tree.vertex_count):
        raise UnknownVertex(f"vertex {v} not in tree")
    if v == tree.root or degree(tree, v) != 1:
        raise NotTerminal(f"vertex {v} is not a terminal vertex")
    edges = list(tree_edges(tree))
    n = tree.vertex_count
    prev = v
    for i in range(l):
        edges.append((prev, n + i))
        prev = n + i
    return build_tree(edges, tree.root)


def edge_list_augmentation(tree: RootedTree, l: int) -> AugmentedTree:
    """Reference for ``spherical_augmentation``: the same chains, numbered level
    by level, appended to the edge list and the whole tree built again."""
    edges = list(tree_edges(tree))
    next_id = tree.vertex_count
    tip = {v: v for v in terminals(tree)}
    for level in range(1, int(tree.norm.max()) + l + 1):
        for v in tip:
            if tree.norm[v] < level:
                edges.append((tip[v], next_id))
                tip[v] = next_id
                next_id += 1
    return AugmentedTree(tree, build_tree(edges, tree.root))


def dirichlet_kernel(
    aug: AugmentedTree, seed: int, floor: float, scope: str, mode: str
) -> TransitionKernel:
    """Reference for ``random_kernel``: one ``rng.dirichlet(np.ones(d))`` draw per
    randomized row, in vertex order, each mapped onto the floor-truncated simplex."""
    rng = np.random.default_rng(seed)
    full = aug.full
    one, half = (Fraction(1), Fraction(1, 2)) if mode == RATIONAL else (1.0, 0.5)
    entries: dict[int, dict[int, Number]] = {}
    prov: dict[int, str] = {}
    outer = set(aug.outer_layer.tolist())
    for u in range(full.vertex_count):
        if u in outer:
            continue
        nbrs = neighbors(full, u)
        lam = is_original(aug, u)
        prov[u] = UNKNOWN if lam else KNOWN
        d = len(nbrs)
        if d == 1:
            entries[u] = {nbrs[0]: one}
            if u == full.root:
                prov[u] = KNOWN
            continue
        if not (lam or scope == "all"):
            entries[u] = {v: half for v in nbrs}
            continue
        raw = rng.dirichlet(np.ones(d))
        probs = floor + (1.0 - d * floor) * raw
        if mode == RATIONAL:
            entries[u] = dict(zip(nbrs, _grid_row(probs.tolist(), floor)))
        else:
            entries[u] = {v: float(p) for v, p in zip(nbrs, probs)}
    return kernel_from_entries(entries, prov, mode)


def _grid_row(probs: list[float], floor: float) -> list[Fraction]:
    """Reference for the rational rounding of ``random_kernel``, one row at a
    time: the row on a dyadic grid that leaves room above the floor for
    every neighbor, summing exactly to one."""
    d = len(probs)
    den = RATIONAL_GRID
    while int(np.ceil(floor * den)) * d >= den:
        den *= 2
    lo = max(int(np.ceil(floor * den)), 1)
    counts = [max(lo, int(round(p * den))) for p in probs]
    counts[int(np.argmax(probs))] += den - sum(counts)
    if min(counts) < lo:
        # rounding pushed the largest cell below the floor: rebalance
        counts = [lo] * d
        counts[int(np.argmax(probs))] += den - lo * d
    return [Fraction(c, den) for c in counts]


def default_augmented_kernel(
    aug: AugmentedTree, base: TransitionKernel
) -> TransitionKernel:
    """Extend base-tree rows to the full augmented chain.

    Every vertex that is neither an internal base vertex nor outer-layer gets
    the symmetric (1/2, 1/2) row over its two neighbors, flagged known.  Base
    rows are copied and flagged unknown: they are the recovery targets.  A
    degree-1 root is forced to probability one and flagged known, since
    nondegeneracy leaves it no freedom.
    """
    mode = base.mode
    half, one = (Fraction(1, 2), Fraction(1)) if mode == RATIONAL else (0.5, 1.0)
    full = aug.full
    internal = set(range(aug.base.vertex_count)) - set(terminals(aug.base))
    outer = set(aug.outer_layer.tolist())
    entries = {}
    prov = {}
    for u in range(full.vertex_count):
        if u in outer:
            continue
        nbrs = neighbors(full, u)
        if u in internal:
            if u == full.root and len(nbrs) == 1:
                entries[u] = {nbrs[0]: one}
                prov[u] = KNOWN
                continue
            if u not in base.entries:
                raise MissingRow(f"base kernel lacks a row for internal vertex {u}")
            entries[u] = dict(base.entries[u])
            prov[u] = UNKNOWN
        else:
            if len(nbrs) != 2:
                raise DegreeMismatch(
                    f"vertex {u} should have exactly 2 neighbors, has {len(nbrs)}"
                )
            entries[u] = {nbrs[0]: half, nbrs[1]: half}
            prov[u] = KNOWN
    return kernel_from_entries(entries, prov, mode)


def dump_kernel_by_cells(kernel: TransitionKernel) -> str:
    """Reference for ``dump_kernel``: one f-string per cell, rows by vertex and
    cells by neighbor, read from the ``entries`` view."""
    lines = [f"mode {kernel.mode}"]
    for u in sorted(kernel.entries):
        row = kernel.entries[u]
        cells = "".join(f" {v}:{_fmt(p, kernel.mode)}" for v, p in sorted(row.items()))
        lines.append(f"row {u}{cells}")
    return "\n".join(lines) + "\n"


def parse_kernel_by_cells(text: str) -> TransitionKernel:
    """Reference for ``parse_kernel``: row by row and cell by cell into a
    dict of rows, every row flagged known."""
    records = _records(text, _KERNEL, "mode")
    mode = next(records)[1]
    if mode not in (FLOAT, RATIONAL):
        raise FormatError(f"bad mode {mode!r}")
    entries: dict[int, dict[int, Number]] = {}
    try:
        for parts in records:
            u = _vertex(parts[1])
            row: dict[int, Number] = {}
            for cell in parts[2:]:
                v, p = cell.split(":", 1)
                row[_vertex(v)] = _parse_number(p, mode)
            if u in entries or len(row) != len(parts) - 2:
                raise FormatError(f"repeated row or cell in {' '.join(parts)!r}")
            entries[u] = row
    except ValueError as exc:
        raise FormatError(f"bad kernel line {' '.join(parts)!r}: {exc}") from exc
    return kernel_from_entries(entries, dict.fromkeys(entries, KNOWN), mode)


BRUTE_T_CAP = 16
BRUTE_VERTEX_CAP = 12


def brute_force_hitting(
    aug: AugmentedTree,
    kernel: TransitionKernel,
    layer: str,
    t_max: int,
    t_cap: int = BRUTE_T_CAP,
    vertex_cap: int = BRUTE_VERTEX_CAP,
) -> HittingDistribution:
    """Hitting law by explicit enumeration of every path from the root.

    The oracle for ``first_hitting_joint``: walks the tree recursively,
    multiplying transition probabilities along each path and recording the
    first step onto the target layer.  Guarded by size caps.
    """
    if t_max > t_cap:
        raise TooLarge(f"t_max {t_max} exceeds oracle cap {t_cap}")
    if aug.full.vertex_count > vertex_cap:
        raise TooLarge(
            f"{aug.full.vertex_count} vertices exceed oracle cap {vertex_cap}"
        )
    target = set((aug.inner_layer if layer == INNER else aug.outer_layer).tolist())
    mass: dict[tuple[int, int], Number] = {}

    def walk(v: int, t: int, p) -> None:
        if v in target:
            key = (t, v)
            mass[key] = mass.get(key, 0) + p
            return
        if t == t_max or v not in kernel.entries:
            return
        for w, q in kernel.entries[v].items():
            walk(w, t + 1, p * q)

    walk(aug.full.root, 0, 1)
    return law_from_mass(layer, t_max, mass)


def shape_signature(tree: RootedTree, v: int | None = None):
    """Canonical form of a rooted tree (isomorphism-invariant)."""
    if v is None:
        v = tree.root
    return tuple(sorted(shape_signature(tree, c) for c in tree.children[v]))


def small_bases(max_aug_vertices: int = 9) -> list[RootedTree]:
    """Every rooted tree shape whose 2-spherical augmentation stays small.

    Enumerates parent arrays (parent of vertex i is some j < i), filters by
    augmented size, and deduplicates up to rooted isomorphism; the 46,000
    trees of the default size take over a second, so each size is
    enumerated once and every call gets a list of its own.
    """
    return list(_small_bases(max_aug_vertices))


@functools.cache
def _small_bases(max_aug_vertices: int) -> tuple[RootedTree, ...]:
    seen = set()
    out: list[RootedTree] = []
    for b in range(2, max_aug_vertices + 1):
        for parents in product(*(range(i) for i in range(1, b))):
            tree = build_tree([(p, i) for i, p in enumerate(parents, start=1)], 0)
            r = int(tree.norm.max())
            aug_size = tree.vertex_count + sum(
                r - int(tree.norm[v]) + 2 for v in terminals(tree)
            )
            if aug_size > max_aug_vertices:
                continue
            sig = shape_signature(tree)
            if sig in seen:
                continue
            seen.add(sig)
            out.append(tree)
    return tuple(out)


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


def mixed_denominator_instance() -> tuple[AugmentedTree, TransitionKernel]:
    """Rational kernel whose rows use thirds, fifths and sevenths.

    Base tree 0-1, 0-2, 1-3, 1-4 (radius 2); augmented it has 12 vertices,
    inside the brute-force oracle's caps.  Denominators vary within and
    across shells, and the known rows (added vertices) use only thirds and
    sevenths, so a common scale taken from one row, or from the known rows
    alone, misses a factor.
    """
    aug = spherical_augmentation(build_tree([(0, 1), (0, 2), (1, 3), (1, 4)], 0), 2)
    F = Fraction
    rows = {
        0: {1: F(1, 3), 2: F(2, 3)},
        1: {0: F(1, 5), 3: F(3, 5), 4: F(1, 5)},
        2: {0: F(3, 7), 5: F(4, 7)},
        3: {1: F(2, 5), 7: F(3, 5)},
        4: {1: F(2, 7), 8: F(5, 7)},
        5: {2: F(1, 3), 6: F(2, 3)},
        6: {5: F(2, 7), 9: F(5, 7)},
        7: {3: F(2, 3), 10: F(1, 3)},
        8: {4: F(3, 7), 11: F(4, 7)},
    }
    prov = {u: UNKNOWN if is_original(aug, u) else KNOWN for u in rows}
    return aug, kernel_from_entries(rows, prov, RATIONAL)


def prime_shell_instance(base: RootedTree) -> tuple[AugmentedTree, TransitionKernel]:
    """Rational kernel on ``base`` augmented by 2 whose rows on each shell
    are over their own odd prime (3 on shell 0, then 5, 7, 11, ...), every
    row labelled unknown: recovered from no given row, the scale widens on
    every shell."""
    aug = spherical_augmentation(base, 2)
    primes = [p for p in range(3, 400) if all(p % d for d in range(2, p))]
    rng = np.random.default_rng(5)
    rows = {}
    for u in np.flatnonzero(aug.full.norm < aug.full.norm.max()).tolist():
        nbrs, p = neighbors(aug.full, u), primes[aug.full.norm[u]]
        cuts = np.sort(rng.choice(np.arange(1, p), len(nbrs) - 1, replace=False))
        parts = np.diff(np.concatenate(([0], cuts, [p]))).tolist()
        rows[u] = {v: Fraction(c, p) for v, c in zip(nbrs, parts)}
    return aug, kernel_from_entries(rows, dict.fromkeys(rows, UNKNOWN), RATIONAL)


def settle(value, mode: str) -> Number:
    """Cast an accumulation-type value back to the mode's public type."""
    return value if mode == RATIONAL else float(value)


def _unit(value: Number, u: int, v: int, mode: str, clamp: bool) -> Number:
    """Recovered ``t(u, v)`` if in (0, 1] up to float slack, else clamped or raised."""
    slack = 0 if mode == RATIONAL else FLOAT_EDGE_SLACK
    if value <= 0 or value > 1 + slack:
        if not clamp:
            raise OutOfRange(f"recovered t({u},{v}) = {_show(value)} outside (0, 1]")
        value = _clamp(value, mode)
    return value


def up_product(aug: AugmentedTree, kernel: TransitionKernel, z: int, u: int):
    """Product of inward transitions along the path from ``z`` up to ``u``."""
    acc = 1
    while z != u:
        p = int(aug.full.parent[z])
        acc = acc * kernel.prob(z, p)
        z = p
    return acc


def down_product(aug: AugmentedTree, kernel: TransitionKernel, w: int, v: int):
    """Product of outward transitions along the path from ``w`` down to ``v``."""
    acc = 1
    while v != w:
        p = int(aug.full.parent[v])
        acc = acc * kernel.prob(p, v)
        v = p
    return acc


def explicit_edge_coefficient(aug, kernel, plan, p_in):
    """Out-and-back coefficient as an explicit sum over path pairs.

    Sums, over every inner vertex ``z`` below ``plan.vertex`` and every outer
    target ``v`` below ``plan.child``, the ballistic inner arrival at ``z``
    (the inner law at time ``norm(z)``), times the inward product from ``z`` up
    to the vertex and the outward product from the child down to ``v``.
    """
    total = 0
    for z in layer_descendants(aug, plan.vertex, aug.inner_layer):
        ballistic = p_in.prob(int(aug.full.norm[z]), z)
        head = ballistic * up_product(aug, kernel, z, plan.vertex)
        for v in plan.outer_targets:
            total = total + head * down_product(aug, kernel, plan.child, v)
    return total


def recover_edge(
    aug: AugmentedTree,
    kernel: TransitionKernel,
    plan: EdgeRecoveryPlan,
    p_in: HittingDistribution,
    p_out: HittingDistribution,
    clamp: bool = False,
    flags: list[tuple[str, int]] | None = None,
) -> Number:
    """Single-edge oracle of ``recover_all``: ``t(plan.vertex, plan.child)`` alone.

    Subtracts every tail-class contribution from the outer arrival mass at
    ``plan.hit_time`` and divides by the out-and-back coefficient of
    :func:`explicit_edge_coefficient`, both built over the edge's own
    subtrees, with the heads read from the inner law as ``recover_all``
    does.  A value outside (0, 1] is clamped and flagged when ``clamp`` is
    set and raised otherwise.
    """
    denom = explicit_edge_coefficient(aug, kernel, plan, p_in)
    if denom == 0:
        raise ZeroDenominator(f"edge ({plan.vertex}, {plan.child}): coefficient is zero")
    chis = tail_passage_probs(aug, kernel, plan)
    total = sum(p_out.prob(plan.hit_time, v) for v in plan.outer_targets)
    for l in range(1, plan.num_classes + 1):
        s = plan.hit_time - (2 * l - 1)
        for vstar in plan.inner_targets:
            total = total - p_in.prob(s, vstar) * chis[(vstar, l)]
    value = total / denom
    got = _unit(value, plan.vertex, plan.child, kernel.mode, clamp)
    if got != value and flags is not None:
        flags.append(("OutOfRange", plan.child))
    return got


def recover_by_edges(
    aug: AugmentedTree,
    known: TransitionKernel,
    p_in: HittingDistribution,
    p_out: HittingDistribution,
    clamp: bool = False,
) -> TransitionKernel:
    """Per-edge oracle of ``recover_all``: every row ``known`` lacks, from
    :func:`recover_edge` edge by edge, outermost shell first.

    Each step works on the laws' own cells in ``Fraction`` arithmetic under a
    rational kernel.  Rows are assembled and checked as ``recover_all`` does:
    the inward entry is the complement, a complement outside (0, 1) or a root
    row that does not sum to one raises :class:`RowSumViolation` unless
    ``clamp`` is set, ``clamp`` renormalizes every row, and otherwise the
    root's last entry is one minus the others.
    """
    full = aug.full
    mode = known.mode
    work = known
    for k in range(aug.hull_radius, -1, -1):
        for u in shells(full)[k]:
            if not is_original(aug, u) or u in work.entries:
                continue
            row = {
                w: recover_edge(aug, work, make_plan(aug, u, w), p_in, p_out, clamp)
                for w in full.children[u]
            }
            child_sum = sum(row.values())
            if u == full.root:
                if _root_sum_off(child_sum, mode) and not clamp:
                    raise RowSumViolation(f"root row sums to {float(child_sum)}, expected 1")
                if not clamp:  # the last entry closes the row
                    *others, last = row
                    row[last] = 1 - sum((row[w] for w in others), 0 * row[last])
            else:
                comp = 1 - child_sum
                if not 0 < comp < 1:
                    if not clamp:
                        raise RowSumViolation(f"inward entry of vertex {u} is {float(comp)}")
                    comp = _clamp(comp, mode)
                row[int(full.parent[u])] = comp
            if clamp:
                s = sum(row.values())
                row = {w: p / s for w, p in row.items()}
            work = kernel_from_entries({**work.entries, u: row},
                                       {**labels_of(work), u: RECOVERED}, mode)
    return work


def recover_star(
    m: int,
    known: TransitionKernel,
    p_in: HittingDistribution,
    p_out: HittingDistribution,
    clamp: bool = False,
) -> TransitionKernel:
    """Closed-form oracle of ``recover_all`` on the augmented star with ``m`` unit branches.

    Vertex ids follow the star constructor: root 0, branch vertices
    ``1..m``, inner layer ``m+1..2m``, outer layer ``2m+1..3m`` (branch ``j``
    runs ``0, j, m+j, 2m+j``).  For each branch the ratio of outer arrivals
    at times 5 and 3 minus the ratio of inner arrivals at times 4 and 2
    isolates the outward probability at shell one; the root entry then falls
    out of the time-2 inner arrival.
    """
    if m < 1:
        raise InvalidParameter(f"star needs at least one branch, got {m}")
    if p_out.t_max < 5:
        raise FormatError(f"outer law covers t <= {p_out.t_max}, star recovery needs 5")
    if p_in.t_max < 4:
        raise FormatError(f"inner law covers t <= {p_in.t_max}, star recovery needs 4")
    mode = known.mode
    rows: dict[int, dict[int, Number]] = {}
    root_row: dict[int, Number] = {}
    for j in range(1, m + 1):
        inner_v, outer_v = m + j, 2 * m + j
        po3, po5 = p_out.prob(3, outer_v), p_out.prob(5, outer_v)
        pi2, pi4 = p_in.prob(2, inner_v), p_in.prob(4, inner_v)
        t_back = known.prob(inner_v, j)
        if po3 == 0 or pi2 == 0 or t_back == 0:
            raise ZeroDenominator(f"branch {j}: a required boundary cell is zero")
        t_out = _unit((po5 / po3 - pi4 / pi2) / t_back, j, inner_v, mode, clamp)
        t_root = _unit(pi2 / t_out, 0, j, mode, clamp)
        t_out = settle(t_out, mode)
        rows[j] = {0: settle(1 - t_out, mode), inner_v: t_out}
        root_row[j] = settle(t_root, mode)
    root_sum = sum(root_row.values())
    if _root_sum_off(root_sum, mode) and not clamp:
        raise RowSumViolation(f"root row sums to {root_sum}, expected 1")
    if clamp:
        root_row = {j: p / root_sum for j, p in root_row.items()}
    else:  # the last entry closes the row
        root_row[m] = settle(1 - sum((root_row[j] for j in range(1, m)), 0 * root_row[m]), mode)
    rows[0] = root_row
    return kernel_from_entries({**known.entries, **rows},
                               {**labels_of(known), **dict.fromkeys(rows, RECOVERED)}, mode)


def law_total(dist: HittingDistribution, up_to: int | None = None) -> Number:
    """Mass of ``dist`` at times up to ``up_to`` (default: its horizon)."""
    horizon = dist.t_max if up_to is None else up_to
    return sum(p for (t, _), p in dist.mass.items() if t <= horizon)


def path_to_root(tree: RootedTree, v: int) -> tuple[int, ...]:
    """Vertices from ``v`` up to and including the root."""
    out = [v]
    while tree.parent[out[-1]] >= 0:
        out.append(int(tree.parent[out[-1]]))
    return tuple(out)


@dataclass(frozen=True)
class PathClassQuery:
    """Constrained first-passage event.

    The event: starting from ``start``, the first visit to ``target`` happens
    exactly at ``exact_hit_time``, and every earlier position has norm at
    least ``min_shell`` and strictly less than ``max_shell_strict`` (and lies
    in the subtree of ``restrict_to_subtree`` when that is set).  The target
    itself may sit outside the shell band.
    """

    start: int
    target: frozenset[int]
    exact_hit_time: int
    min_shell: int = 0
    max_shell_strict: int | None = None
    restrict_to_subtree: int | None = None


def path_class_prob(
    aug: AugmentedTree, kernel: TransitionKernel, query: PathClassQuery
):
    """Probability of a :class:`PathClassQuery` under ``kernel``.

    The unscaled oracle for ``tail_passage_probs``: a forward recursion on
    the kernel's own entries, ``Fraction`` in rational mode and
    ``np.longdouble`` in float mode.  Only rows of vertices inside the shell
    band are read, so a kernel that is known merely on that band suffices.
    """
    if not query.target:
        raise InvalidQuery("target set is empty")
    if query.exact_hit_time < 0:
        raise InvalidQuery("exact_hit_time must be >= 0")
    hi = query.max_shell_strict
    if hi is not None and query.min_shell >= hi:
        raise InvalidQuery(f"shell bounds inconsistent: [{query.min_shell}, {hi})")
    norm = aug.full.norm
    allowed_sub = (
        None
        if query.restrict_to_subtree is None
        else set(aug.full.subtree(query.restrict_to_subtree))
    )

    def in_band(v: int) -> bool:
        if norm[v] < query.min_shell:
            return False
        if hi is not None and norm[v] >= hi:
            return False
        return allowed_sub is None or v in allowed_sub

    if query.exact_hit_time == 0:
        return 1 if query.start in query.target else 0
    if query.start in query.target or not in_band(query.start):
        return 0

    rational = kernel.mode == RATIONAL
    cur = {query.start: 1}
    for t in range(1, query.exact_hit_time + 1):
        last = t == query.exact_hit_time
        nxt = {}
        hit = 0
        for v, p in cur.items():
            if v not in kernel.entries:
                raise MissingRow(f"row for vertex {v} required but absent")
            for w, q in kernel.entries[v].items():
                m = p * (q if rational else np.longdouble(q))
                if w in query.target:
                    if last:
                        hit = hit + m
                elif in_band(w):
                    nxt[w] = nxt.get(w, 0) + m
        if last:
            return hit
        cur = nxt
        if not cur:
            return 0
    return 0
