"""Shared instance generators and the test oracles for the test suite."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, product

import numpy as np

from treetomo import (
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
from treetomo.chain_model import RATIONAL_GRID, Number, settle
from treetomo.errors import (
    FormatError,
    InvalidParameter,
    InvalidQuery,
    MissingKnownRow,
    MissingRow,
    RowSumViolation,
    UnknownVertex,
    ZeroDenominator,
)
from treetomo.tomography import (
    EdgeRecoveryPlan,
    _clamp,
    _root_sum_off,
    _unit,
    make_plan,
    tail_passage_probs,
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


def tree_file(root: int, edges: str, original: int) -> str:
    """Augmented-tree file text: ``edges`` as ``"u-v u-v ..."``, with the ids
    below ``original`` flagged original and the rest added."""
    pairs = [tuple(map(int, e.split("-"))) for e in edges.split()]
    n = max(map(max, pairs)) + 1
    lines = [f"tree {n} {root}", *(f"edge {u} {v}" for u, v in pairs)]
    lines += [f"origin {v} {'original' if v < original else 'added'}" for v in range(n)]
    return "\n".join(lines) + "\n"


_SEGMENT = tree_file(0, "0-1 1-2 2-3", 2)  # segment(0, 1) augmented by 2

# Tree files that are not a valid augmentation of a base tree; parse_tree
# raises FormatError on each and every command that reads one exits 2.
INVALID_TREES = {
    "duplicate-edge": tree_file(0, "0-1 1-2 2-1", 2),
    "disconnected": tree_file(0, "0-1 2-3 3-4 4-2", 2),
    "root-on-no-edge": tree_file(5, "0-1 1-2 2-3", 2),
    "base-below-an-added-vertex": tree_file(0, "0-1 1-3 3-2", 3),
    "original-vertex-1-below-an-added-vertex": tree_file(0, "0-2 2-1 1-3 3-4", 2),
    "root-not-original": tree_file(3, "0-1 1-2 2-3", 2),
    "no-chain": tree_file(0, "0-1", 2),
    "forked-inner-vertex": tree_file(0, "0-1 1-2 2-3 2-4", 2),
    "added-vertex-with-two-children": tree_file(
        0, "0-1 1-2 0-3 2-4 4-5 3-6 6-7 7-8 6-9 9-10", 4
    ),
    "plain-duplicate-edge": "tree 2 0\nedge 0 1\nedge 1 0\n",
    "trailing-tokens": "tree 2 0 junk\nedge 0 1 7\n",
    "repeated-tree-header": _SEGMENT + "tree 4 0\n",
    "tree-header-after-an-edge": "edge 0 1\n" + _SEGMENT.replace("edge 0 1\n", ""),
    "origin-given-twice": _SEGMENT.replace("origin 3 added", "origin 3 original\norigin 3 added"),
    "unknown-layer": _SEGMENT + "layer middle 2\n",
    "layer-given-twice": _SEGMENT + "layer inner 1\nlayer inner 2\n",
    "vertex-twice-in-a-layer": _SEGMENT + "layer inner 2 2\n",
}


class NotTerminal(TreetomoError):
    """Operation requires a terminal (degree-1, non-root) vertex."""


class DegreeMismatch(TreetomoError):
    """A vertex that must have exactly two neighbors does not."""


class TooLarge(TreetomoError):
    """Instance exceeds the caps of the brute-force oracle."""


def radii(tree: RootedTree) -> tuple[int, int, bool]:
    """Return ``(inner_radius, outer_radius, spherical)``.

    The outer radius is the maximum norm; the inner radius is the minimum
    norm over terminal vertices (root excluded from the terminal set).
    """
    r_out = max(tree.norm.values())
    terms = tree.terminals()
    if not terms:
        raise InvalidParameter("tree has no terminal vertex")
    r_in = min(tree.norm[v] for v in terms)
    return r_in, r_out, r_in == r_out


def l_augment_at(tree: RootedTree, v: int, l: int) -> RootedTree:
    """Glue a chain of ``l`` new vertices below terminal vertex ``v``.

    Original ids are preserved; the new chain gets ids
    ``n, n+1, ..., n+l-1`` in root-to-tip order.
    """
    if l < 1:
        raise InvalidParameter(f"chain length must be >= 1, got {l}")
    if v not in tree.norm:
        raise UnknownVertex(f"vertex {v} not in tree")
    if v == tree.root or tree.degree(v) != 1:
        raise NotTerminal(f"vertex {v} is not a terminal vertex")
    edges = list(tree.edges())
    n = tree.vertex_count
    prev = v
    for i in range(l):
        edges.append((prev, n + i))
        prev = n + i
    return build_tree(edges, tree.root)


def edge_list_augmentation(tree: RootedTree, l: int) -> AugmentedTree:
    """Reference for ``spherical_augmentation``: the same chains, numbered level
    by level, appended to the edge list and the whole tree built again."""
    edges = list(tree.edges())
    next_id = tree.vertex_count
    tip = {v: v for v in tree.terminals()}
    for level in range(1, max(tree.norm.values()) + l + 1):
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
    for u in range(full.vertex_count):
        if u in aug.outer_layer:
            continue
        nbrs = full.neighbors(u)
        lam = aug.is_original(u)
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
            den = RATIONAL_GRID
            while int(np.ceil(floor * den)) * d >= den:
                den *= 2
            lo = max(int(np.ceil(floor * den)), 1)
            counts = [max(lo, int(round(p * den))) for p in probs]
            counts[int(np.argmax(probs))] += den - sum(counts)
            if min(counts) < lo:
                counts = [lo] * d
                counts[int(np.argmax(probs))] += den - lo * d
            entries[u] = {v: Fraction(c, den) for v, c in zip(nbrs, counts)}
        else:
            entries[u] = {v: float(p) for v, p in zip(nbrs, probs)}
    return TransitionKernel(entries, prov, mode)


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
    internal = set(range(aug.base.vertex_count)) - set(aug.base.terminals())
    entries = {}
    prov = {}
    for u in range(full.vertex_count):
        if u in aug.outer_layer:
            continue
        nbrs = full.neighbors(u)
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
    return TransitionKernel(entries, prov, mode)


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
    target = aug.inner_layer if layer == INNER else aug.outer_layer
    dist = HittingDistribution(layer, t_max)

    def walk(v: int, t: int, p) -> None:
        if v in target:
            key = (t, v)
            dist.mass[key] = dist.mass.get(key, 0) + p
            return
        if t == t_max or v not in kernel.entries:
            return
        for w, q in kernel.entries[v].items():
            walk(w, t + 1, p * q)

    walk(aug.full.root, 0, 1)
    return dist


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
    prov = {u: UNKNOWN if aug.is_original(u) else KNOWN for u in rows}
    return aug, TransitionKernel(rows, prov, RATIONAL)


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


def explicit_edge_coefficient(aug, kernel, plan, p_in):
    """Out-and-back coefficient as an explicit sum over path pairs.

    Sums, over every inner vertex ``z`` below ``plan.vertex`` and every outer
    target ``v`` below ``plan.child``, the ballistic inner arrival at ``z``
    (the inner law at time ``R + 1``), times the inward product from ``z`` up
    to the vertex and the outward product from the child down to ``v``.
    """
    total = 0
    for z in aug.layer_descendants(plan.vertex, aug.inner_layer):
        ballistic = p_in.prob(aug.hull_radius + 1, z)
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
    ``clamp`` is set, and ``clamp`` renormalizes every row.
    """
    full = aug.full
    mode = known.mode
    work = known.copy()
    for k in range(aug.hull_radius, -1, -1):
        for u in full.shells()[k]:
            if not aug.is_original(u) or u in work.entries:
                continue
            row = {
                w: recover_edge(aug, work, make_plan(aug, u, w), p_in, p_out, clamp)
                for w in full.children[u]
            }
            child_sum = sum(row.values())
            if u == full.root:
                if _root_sum_off(child_sum, mode) and not clamp:
                    raise RowSumViolation(f"root row sums to {float(child_sum)}, expected 1")
            else:
                comp = 1 - child_sum
                if not 0 < comp < 1:
                    if not clamp:
                        raise RowSumViolation(f"inward entry of vertex {u} is {float(comp)}")
                    comp = _clamp(comp, mode)
                row[full.parent[u]] = comp
            if clamp:
                s = sum(row.values())
                row = {w: p / s for w, p in row.items()}
            work.entries[u] = row
            work.provenance[u] = RECOVERED
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
    result = known.copy()
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
        result.entries[j] = {0: settle(1 - t_out, mode), inner_v: t_out}
        result.provenance[j] = RECOVERED
        root_row[j] = settle(t_root, mode)
    root_sum = sum(root_row.values())
    if _root_sum_off(root_sum, mode) and not clamp:
        raise RowSumViolation(f"root row sums to {root_sum}, expected 1")
    if clamp:
        root_row = {j: p / root_sum for j, p in root_row.items()}
    result.entries[0] = root_row
    result.provenance[0] = RECOVERED
    return result


def law_total(dist: HittingDistribution, up_to: int | None = None) -> Number:
    """Mass of ``dist`` at times up to ``up_to`` (default: its horizon)."""
    horizon = dist.t_max if up_to is None else up_to
    return sum(p for (t, _), p in dist.mass.items() if t <= horizon)


def path_to_root(tree: RootedTree, v: int) -> tuple[int, ...]:
    """Vertices from ``v`` up to and including the root."""
    out = [v]
    while tree.parent[out[-1]] is not None:
        out.append(tree.parent[out[-1]])
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
                raise MissingKnownRow(f"row for vertex {v} required but absent")
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


# Scalar SplitMix64 counter stream and one-walk simulator: the reference that
# the vectorized sampler in ``treetomo.estimation`` must reproduce bit for bit.
_MASK = (1 << 64) - 1
_GOLD = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
WALK_STEP_CAP = 10**7


def mix(z: int) -> int:
    z = (z ^ (z >> 30)) * _MIX1 & _MASK
    z = (z ^ (z >> 27)) * _MIX2 & _MASK
    return z ^ (z >> 31)


def walk_base(seed: int, walk: int) -> int:
    return mix((mix(seed & _MASK) + (walk + 1) * _GOLD) & _MASK)


def u01(base: int, step: int) -> float:
    """Uniform in [0, 1) used by the walk with ``base`` at ``step``."""
    v = mix((base + (step + 1) * _GOLD) & _MASK)
    return (v >> 11) * 2.0**-53


@dataclass(frozen=True)
class WalkSample:
    """First boundary contacts of a single probe walk."""

    tau_in: int
    place_in: int
    tau_out: int
    place_out: int


def reference_walk(
    aug: AugmentedTree, kernel: TransitionKernel, seed: int, walk: int
) -> WalkSample:
    """Walk ``walk`` of stream ``seed``, simulated from the root to absorption.

    Each step picks the first sorted neighbor whose float cumulative
    probability exceeds the uniform.  Raises after ``WALK_STEP_CAP`` steps,
    which indicates an invalid kernel rather than bad luck.
    """
    base = walk_base(seed, walk)
    v = aug.full.root
    tau_in = place_in = -1
    for t in range(WALK_STEP_CAP):
        row = kernel.entries[v]
        nbrs = sorted(row)
        u = u01(base, t)
        cum = accumulate(float(row[w]) for w in nbrs)
        nxt = next((w for w, c in zip(nbrs, cum) if u < c), nbrs[-1])
        if tau_in < 0 and nxt in aug.inner_layer:
            tau_in, place_in = t + 1, nxt
        if nxt in aug.outer_layer:
            return WalkSample(tau_in, place_in, t + 1, nxt)
        v = nxt
    raise RuntimeError(f"walk exceeded {WALK_STEP_CAP} steps")
