"""Recovery of unknown transition rows from two boundary hitting laws.

The chain on a base tree of outer radius ``R``, augmented by chains of
length ``L >= 2``, is observed only through the joint laws of first hitting
time and place at the inner and outer boundary layers, the shells ``r + 1``
and ``r + 2`` for ``r = R + L - 2``.  Every row off the outer layer that
the given rows lack, at a base or an added vertex, is solved by one formula,
shell by shell from the inner layer inward.

For a vertex ``u`` at shell ``k`` with child ``w``, the observable "first
arrival in the outer targets below ``w`` at time ``3r+4-2k``" splits over
the time of the first visit to the inner layer.  Each piece with a late
first visit is a measured inner-hit probability times a tail-class
first-passage probability over already-solved rows.  The remaining family
runs straight out to the inner layer below ``u`` (through any child, not only
``w``), straight back up, and straight out through ``w``; its probability is
``t(u, w) * head(u) * tail(w)``, so the unknown drops out by division.  With
``z'`` the outer child of inner vertex ``z``, both factors are sums over rows
already solved, and the head on the inner layer is one cell of the inner law,
since a walk that first meets ``z`` at time ``r + 1`` went straight there:

    head(z) = p_in(r+1, z),   head(x) = sum_c t(c, x) head(c),
    tail(z') = 1,             tail(x) = sum_c t(x, c) tail(c).

On the inner layer itself (``k = r + 1``) there is no tail class, and the
formula reads ``t(z, z') = p_out(r+2, z') / p_in(r+1, z)``.

:func:`recover_all` runs each recursion as array sweeps over the edge table
of :class:`~treetomo.chain_model.AccRows` that the forward DP sweeps, its
rows sorted by shell so that a sweep onto one shell reads only its slots:
per shell, one push for the heads and one pull for the tails.  Class ``l``
of shell ``k`` (first passages from the inner to the outer layer in ``2l-1``
steps above shell ``k``) is carried in from shell ``k+1`` if ``l <= r+1-k``,
as reaching shell ``k+1`` and getting out takes ``2(r+1-k)+1`` steps.  Once
shell ``k+1`` is solved, the newest class and the front ``V(x)``, a first
outer arrival at step ``r+2-2k+|x|`` above shell ``k``, gain the straight
walks through it, ``U(x, a) tail(a)`` with ``U`` the inward entries' product
from ``x`` to its ancestor ``a`` there.  One pull onto each shell ``k+1 ..
r+1``, parents from the new front and children from the old, gives the next
front and, on the inner layer, class ``r+2-k``: ``(r+1)(r+2)/2`` one-shell
sweeps in all.  A walk above shell ``k`` stays in the subtree it started in,
so each sweep serves every edge of the shell; with the outer layer in
depth-first order, the outer vertices below a vertex form one block: each
edge's arrival and class sums are one ``np.add.reduceat`` per shell.
:func:`make_plan`, :func:`tail_passage_probs` and
:func:`unknown_edge_coefficient` give one edge's terms alone, with the same
sweeps over the rows of ``subtree(w)`` or ``subtree(u)``.

Index work is planned once per call and sliced per shell: the sweeps of
each shell (:meth:`~treetomo.chain_model.AccRows.shells`); the rows solved,
by shell, with their child edges and their slots in the table; and, from
one ``!=`` over the depth-first ancestor matrix, each row's block starts
and each vertex's block.  Shell ``k`` forms its class products in one
multiply, writes its entries straight into their slots, and orders its
failures only when it has one.

In rational mode the table and the laws hold integer numerators, as in
fraction-free (Bareiss) elimination: each law's cells are numerators over one
denominator per time; heads, tails, fronts and classes are integers over
powers of the row scale ``D``, times ``g`` to their step counts when a solved
row widens ``D`` by ``g``; each class sum of an edge is one integer, and each
recovered entry one ``Fraction``.  Float mode runs the same arrays in
``np.longdouble`` with every scale 1, each recovered entry one division.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .chain_model import (
    KNOWN,
    RATIONAL,
    RECOVERED,
    UNKNOWN,
    AccRows,
    Number,
    TransitionKernel,
    checked_rows,
)
from .errors import (
    FormatError,
    InvalidParameter,
    NotAChild,
    NotInLambda,
    OutOfRange,
    RowSumViolation,
    ZeroDenominator,
)
from .forward_solver import HittingDistribution
from .tree_model import AugmentedTree, ranges

CLAMP_EPS = 1e-6
ROOT_SUM_TOL = 1e-6
FLOAT_EDGE_SLACK = 1e-9


@dataclass(frozen=True)
class EdgeRecoveryPlan:
    """Geometry of one edge-recovery step.

    For the edge from ``vertex`` (shell ``shell`` of the base tree) to its
    child ``child``: ``hit_time`` is the outer-arrival time the step reads,
    ``num_classes`` how many inner-first-visit classes partition it,
    ``outer_targets`` the outer-layer vertices below ``child``, ``inner_targets``
    their parents on the inner layer, and ``hull_radius`` the shell ``r`` below it.
    """

    shell: int
    vertex: int
    child: int
    hit_time: int
    num_classes: int
    outer_targets: tuple[int, ...]
    inner_targets: tuple[int, ...]
    hull_radius = property(lambda self: self.shell + self.num_classes - 2)


@dataclass
class RecoveryReport:
    """Solved kernel plus diagnostics of one full recovery run."""

    kernel: TransitionKernel
    residuals: dict[int, Number] = field(default_factory=dict)
    max_error: Number | None = None
    times_accessed: dict[str, int] = field(default_factory=dict)
    flags: list[tuple[str, int]] = field(default_factory=list)
    shell_time_reads: dict[int, int] = field(default_factory=dict)


def _radius(aug: AugmentedTree) -> int:
    """``r = R + L - 2``, the shell just inside the inner layer: ``R`` when ``L = 2``."""
    return aug.hull_radius + aug.aug_len - 2


def _clamp(value: Number, mode: str) -> Number:
    """``value`` moved into ``[CLAMP_EPS, 1 - CLAMP_EPS]``, exactly in rational mode."""
    eps = Fraction(str(CLAMP_EPS)) if mode == RATIONAL else CLAMP_EPS
    return min(max(value, eps), 1 - eps)


def _show(value: Number) -> str:
    """``value`` for an error message.  An exact value shows as its nearest
    float: the digits of a fraction built from arbitrary law cells can run
    past what ``str`` of an int may print."""
    return repr(float(value)) if isinstance(value, Fraction) else f"{value}"


def _root_sum_off(total: Number, mode: str) -> bool:
    return total != 1 if mode == RATIONAL else abs(total - 1) > ROOT_SUM_TOL


def make_plan(aug: AugmentedTree, u: int, w: int) -> EdgeRecoveryPlan:
    """Build the recovery plan for the edge ``u -> w``, ``u`` in the base tree."""
    if u not in range(aug.base.vertex_count):
        raise NotInLambda(f"vertex {u} is not a base-tree vertex")
    if w not in aug.full.children[u]:
        raise NotAChild(f"{w} is not a child of {u}")
    full, k, r = aug.full, int(aug.full.norm[u]), _radius(aug)
    inner = tuple(z for z in full.subtree(w) if full.norm[z] == r + 1)  # the inner layer
    outer = tuple(full.children[z][0] for z in inner)
    return EdgeRecoveryPlan(k, u, w, aug.horizon - 2 * k, r + 2 - k, outer, inner)


class _Front:
    """One-shell sweeps, and the tail classes at ``inner`` carried inward (see
    the module docstring); ``along`` and ``up`` follow the rows' shell order."""

    def __init__(self, rows: AccRows, r: int, inner: np.ndarray):
        self.rows, self.r, self.inner, self.classes = rows, r, inner, []
        norm, src, dst = rows.norm, rows.src, rows.dst
        self.ids, self.at, pulls = rows.shells(r + 2)
        self.segs, self.up = (pulls, rows.shells(r + 2, push=True)[2]), self.ids.copy()
        self.along = np.ones(len(self.ids), rows.q.dtype)
        self.front, self.tail = rows.zeros(), rows.zeros()
        self.tail[norm == r + 2] = 1  # on the outer layer
        up = norm[dst] < norm[src]  # the inward slot of each vertex with a row
        self.inward = np.zeros(len(norm), np.intp)
        self.inward[src[up]] = up.nonzero()[0]

    def sweep(self, x: np.ndarray, shell: int, push: bool = False) -> None:
        """Sweep ``x`` one step onto ``shell`` in place, by a push or a pull; other shells stay."""
        slots, far, starts, ids = self.segs[push][shell]
        x[ids] = np.add.reduceat(self.rows.q[slots] * x[far], starts)

    def step(self, k: int) -> list:
        """The tail classes of shell ``k``, after those of shell ``k+1``."""
        if k <= self.r:  # V_{k+1} and its class gain the straight walks through shell k+1
            self.sweep(self.tail, k + 1)
            rows, a, b = self.rows, self.at[k + 1], self.at[k + 2]  # the rows of shells >= k+1, >= k+2
            s = self.inward[self.up[b:]]
            self.along[b:] *= rows.q[s]
            self.up[b:] = rows.dst[s]
            self.front[self.ids[a:]] += self.along[a:] * self.tail[self.up[a:]]
            self.classes.append(self.front[self.inner])
        for j in range(k + 1, self.r + 2):
            self.sweep(self.front, j)
        return self.classes + [self.front[self.inner]]

    def grow(self, g: int, k: int) -> None:
        """Rescale after shell ``k`` widened the table's scale by ``g``."""
        norm, r = self.rows.norm, self.r
        self.front *= g ** np.maximum(norm + r + 2 - 2 * k, 0).astype(object)
        self.along *= g ** np.maximum(norm[self.ids] - k - 1, 0).astype(object)
        self.tail *= g ** (r + 1 - k)
        self.classes = [c * g ** (2 * l - 1) for l, c in enumerate(self.classes, 1)]


def tail_passage_probs(
    aug: AugmentedTree,
    kernel: TransitionKernel,
    plan: EdgeRecoveryPlan,
) -> dict[tuple[int, int], Number]:
    """First-passage probabilities of the tail classes, one per (vertex, class).

    Entry ``(v, l)`` is the probability that a walk started at inner vertex
    ``v`` first reaches ``plan.outer_targets`` after exactly ``2l-1`` steps
    while every earlier position stays at shells ``>= plan.shell + 1``.  The
    classes are carried in from the inner layer to ``plan.shell`` as in
    :func:`recover_all`, over the rows of the subtree of ``plan.child``.
    """
    rows = AccRows(aug.full, kernel, aug.full.subtree(plan.child))
    front = _Front(rows, plan.hull_radius, np.array(plan.inner_targets, np.intp))
    for k in range(plan.hull_radius + 1, plan.shell - 1, -1):
        table = front.step(k)
    return {(v, l): rows.value(n, 2 * l - 1)
            for l, chi in enumerate(table, 1) for v, n in zip(plan.inner_targets, chi)}


def unknown_edge_coefficient(
    aug: AugmentedTree,
    kernel: TransitionKernel,
    plan: EdgeRecoveryPlan,
    p_out: HittingDistribution,
) -> Number:
    """Coefficient of the unknown edge probability in the arrival decomposition.

    This is the total probability, per unit of ``t(vertex, child)``, of the
    out-and-back path family: straight to some inner vertex below ``vertex``,
    straight back up, and straight out to some outer target below ``child``.
    The two legs are independent, so the sum factorizes into the head sum at
    ``vertex`` times the tail sum at ``child``, each swept shell by shell as
    in :func:`recover_all`, over the rows of the subtree of ``vertex``.

    The inner heads are ``p_out(r+2, z') / t(z, z')``, for callers that hold
    only the outer law.  On computed laws this equals the ``p_in(r+1, z)`` that
    :func:`recover_all` reads, exactly in rational mode; on empirical laws it may not.
    """
    below = aug.full.subtree(plan.vertex)
    rows = AccRows(aug.full, kernel, below)
    r = plan.hull_radius
    front = _Front(rows, r, inner := np.intersect1d(below, aug.inner_layer))
    tail, head = front.tail, rows.zeros()
    front.sweep(tail, r + 1)
    for z in inner.tolist():
        head[z] = p_out.prob(r + 2, aug.full.children[z][0]) * rows.scale / tail[z]
    for k in range(r, plan.shell - 1, -1):
        front.sweep(head, k, push=True)
    for k in range(r, plan.shell, -1):
        front.sweep(tail, k)
    coef = head[plan.vertex] * tail[plan.child]
    return rows.value(coef, 2 * (r + 1 - plan.shell))


def _depth_first(aug: AugmentedTree) -> np.ndarray:
    """Ancestors of the outer vertices, depth-first with children ascending.

    Row ``i`` holds the ancestor at shell ``r+2-i`` of each outer vertex (row
    0 the vertex itself), columns sorted so the outer vertices below any
    vertex form one contiguous block: each shell's blocks tile the columns.
    """
    anc = [aug.outer_layer]
    for _ in range(_radius(aug) + 2):
        anc.append(aug.full.parent[anc[-1]])
    anc = np.array(anc)
    return anc[:, np.lexsort(anc)]


def _grid(rows: AccRows, name: str, dist: HittingDistribution, layer: np.ndarray,
          need: int) -> tuple[np.ndarray, list[int]]:
    """The ``name`` law as a grid over times ``0 .. need`` and one column per
    vertex of ``layer``, in its order, with ``dens[t]`` the denominator of time ``t``.

    The law must reach time ``need``, hold cells only at vertices of
    ``layer`` and times ``>= 1``, and, if it has cells, be in the kernel's
    mode, else :class:`FormatError`; only then are the times past ``need``
    dropped, before any integer conversion.  Rational mode: the grid holds
    the law's numerators ``N`` for ``N / dens[t]``, each ``dens[t]`` the
    law's own.  Float mode: the cells, and every ``dens[t]`` 1.
    """
    if dist.t_max < need:
        raise FormatError(f"{name} law covers t <= {dist.t_max}, recovery needs t <= {need}")
    col = dict(zip(layer.tolist(), range(len(layer))))
    off = [v for v in dist.vertices if v not in col]
    if off or dist.times and dist.times[0] < 1:
        where = f"vertex {off[0]} off the {name} layer" if off else f"time {dist.times[0]} < 1"
        raise FormatError(f"{name} law has mass at {where}")
    if dist.cells.size and (dist.dens is None) == rows.exact:
        held, kind = ("float", "rational") if rows.exact else ("exact", "float")
        raise FormatError(f"{name} law holds {held} cells under a {kind} kernel")
    n = bisect.bisect_right(dist.times, need)
    dens = [1] * (need + 1)
    for t, d in zip(dist.times[:n], dist.dens if rows.exact and dist.dens else ()):
        dens[t] = d
    grid = np.zeros((need + 1, len(col)), rows.q.dtype)
    grid[np.ix_(dist.times[:n], [col[v] for v in dist.vertices])] = dist.cells[:n]
    return grid, dens


def recover_all(
    aug: AugmentedTree,
    known: TransitionKernel,
    p_in: HittingDistribution,
    p_out: HittingDistribution,
    reference: TransitionKernel | None = None,
    clamp: bool = False,
) -> RecoveryReport:
    """Recover every row off the outer layer that ``known`` lacks, inner layer first.

    Each row ``known`` gives, if any, must be valid (:class:`InvalidKernel`)
    and not labelled unknown (:class:`InvalidParameter`); the answer labels
    the rows it lacks recovered, the given rows known.  Both laws must reach
    time ``3r+4`` (``3r+3`` inner), hold cells only on their own layer at
    times ``>= 1`` and be in ``known``'s mode, else :class:`FormatError`
    (see :func:`_grid`); cells past those times are checked, then ignored.
    A ``reference`` must hold every recovered entry (:class:`FormatError`)
    and be valid (:class:`InvalidKernel`).  Shell ``k`` is solved from its
    swept heads, the tails of shell ``k+1`` and its tail classes (see the
    module docstring): each child edge from its arrival decomposition, the
    inward entry as the row complement, and a failure raises for the first
    edge or row in vertex order, a row's edges before its complement.  The
    root row, once its sum is within ``ROOT_SUM_TOL`` of one, closes on its
    last entry, written as one minus the others (``clamp`` renormalizes
    instead); ``residuals`` keeps each row's deviation from one.
    ``shell_time_reads`` records the largest law time read for each shell
    swept or solved, and ``times_accessed`` the largest per law.
    """
    r = _radius(aug)
    mode, full = known.mode, aug.full
    if UNKNOWN in (labels := known.labels.tolist()):
        u = known.vertices[labels.index(UNKNOWN)]
        raise InvalidParameter(f"given row of vertex {u} is labelled unknown")
    given = known.index(full.vertex_count)[:-1] >= 0  # the vertices with a row
    target = ~given & (full.norm <= r + 1)  # no row, off the outer layer: solved
    rows = checked_rows(aug, known, partial=True)
    anc = _depth_first(aug)
    inner = anc[1]
    lin, den_in = _grid(rows, "inner", p_in, inner, aug.horizon - 1)
    lout, den_out = _grid(rows, "outer", p_out, anc[0], aug.horizon)
    head = rows.zeros()
    head[inner] = lin[r + 1]  # the inner heads are numerators over q
    q = den_in[r + 1]
    front = _Front(rows, r, inner)
    residuals: dict[int, Number] = {}
    flags: list[tuple[str, int]] = []
    reads: dict[int, tuple[int, int]] = {}
    # the plan every shell slices: the rows solved, by shell and id, their
    # child edges and table slots (a blank row's inward slot first), and the
    # depth-first blocks of each shell and the block of each vertex
    solved = target.nonzero()[0]
    solved = solved[np.argsort(full.norm[solved], kind="stable")]
    cut = full.norm[solved].searchsorted(np.arange(r + 3))
    lens = full.child_starts[solved + 1] - full.child_starts[solved]
    ends = np.append(0, lens.cumsum())
    ew = full.child_ids[ranges(full.child_starts[solved], lens)]
    eu, owner = solved.repeat(lens), np.arange(len(solved)).repeat(lens)
    inward = rows.src.searchsorted(solved)
    outward = ranges(inward + (full.norm[solved] > 0), lens)
    opens = np.ones(anc.shape, bool)  # where a block starts
    np.not_equal(anc[:, 1:], anc[:, :-1], out=opens[:, 1:])
    at = np.zeros(full.vertex_count, np.intp)
    at[anc] = opens.cumsum(axis=1) - 1

    for k in range(r + 1, -1, -1):
        chis, tail = front.step(k), front.tail
        if k <= r:  # on the inner layer, the heads and tails are as they start
            front.sweep(head, k, push=True)
            reads[k] = (r + 1 if k == r else -1, -1)
        a, b = cut[k], cut[k + 1]
        if a == b:
            continue
        e, f, us = ends[a], ends[b], solved[a:b].tolist()
        hit = aug.horizon - 2 * k
        reads[k] = (hit - 1, hit)
        dens = [den_out[hit]] + [
            den_in[hit - (2 * l - 1)] * rows.scale ** (2 * l - 1)
            for l in range(1, len(chis) + 1)
        ]
        # t(u, w): the outer arrivals below w at time hit, less the tail classes
        # over the inner vertices below w, over head(u) * tail(w).  mults, signed,
        # bring each sum's numerators to the shell's common denominator den, in
        # the sums' dtype: numpy reads ints past 2**63 beside negatives as float64
        den = math.lcm(*dens)
        mults = [den // dens[0]] + [-den // d for d in dens[1:]]
        num = q * rows.scale ** (2 * (r + 1 - k))
        # per class, sums over the block of columns below each vertex of
        # shell k+1, each block one segment of the depth-first columns
        cells = np.concatenate(([lout[hit]], lin[hit - 1::-2][:len(chis)] * np.array(chis)))
        sums = np.add.reduceat(cells, opens[r + 1 - k].nonzero()[0], axis=1)[:, at[ew[e:f]]]
        total = (np.array(mults, sums.dtype)[:, None] * sums).sum(axis=0)
        coef = head[eu[e:f]] * tail[ew[e:f]]
        zero = coef == 0  # refused below, and kept out of the division
        vals = rows.ratio(total * num, den * np.where(zero, 1, coef))
        off = zero | (vals <= 0) | (vals > 1 + (0 if mode == RATIONAL else FLOAT_EDGE_SLACK))
        if clamp:
            for i in np.flatnonzero(off & ~zero):
                vals[i] = _clamp(vals[i], mode)
        child_sum = np.add.reduceat(vals, ends[a:b] - e)
        comp = 1 - child_sum if k else 0 * child_sum  # the root has no inward entry
        bad = (np.array([_root_sum_off(child_sum[0], mode)]) if k == 0
               else ~((comp > 0) & (comp < 1)))
        # failures in vertex order, each row's edges before its complement
        faults = sorted([(owner[e + i] - a, 0, i) for i in np.flatnonzero(off)]
                        + [(j, 1, j) for j in np.flatnonzero(bad)]) if off.any() or bad.any() else ()
        for j, kind, i in faults:
            u, w = us[j], int(ew[e + i])  # w, the edge's child, is read for an edge (kind 0)
            if kind == 0 and (zero[i] or not clamp):
                raise (ZeroDenominator(f"edge ({u}, {w}): out-and-back coefficient is zero")
                       if zero[i] else
                       OutOfRange(f"recovered t({u},{w}) = {_show(vals[i])} outside (0, 1]"))
            if kind == 1 and not clamp:
                raise RowSumViolation(
                    f"root row sums to {_show(child_sum[j])}, expected 1" if k == 0 else
                    f"inward entry of vertex {u} is {_show(comp[j])}, outside (0, 1)")
            flags.append(("RowSumViolation", u) if kind else ("OutOfRange", w))
            if kind and k:
                comp[j] = _clamp(comp[j], mode)
        residuals.update(zip(us, rows.public(child_sum + comp - 1)))
        if not (k or clamp):  # the root row closes on its complement
            vals[-1] = 1 - vals[:-1].sum()
        if clamp:
            whole = child_sum + comp
            vals, comp = vals / whole[owner[e:f] - a], comp / whole
        slots = np.concatenate((outward[e:f], inward[a:b])) if k else outward[e:f]
        if (grow := rows.write(slots, np.concatenate((vals, comp)) if k else vals)) != 1:
            head = head * grow ** (r + 1 - k)  # head (shell k) is over D**(r+1-k)
            front.grow(grow, k)

    # the answer is the table, a row for every vertex off the outer layer, then
    # the empty rows given on the outer layer
    empty = aug.outer_layer[given[aug.outer_layer]]
    ids = np.concatenate((rows.tails, empty))
    labels = [RECOVERED if t else KNOWN for t in target[ids].tolist()]
    work = TransitionKernel(ids, np.concatenate((rows.sizes, np.zeros(len(empty), np.intp))),
                            rows.dst, rows.probs(), np.array(labels, object), mode)
    ins, outs = zip(*reads.values())
    report = RecoveryReport(
        kernel=work,
        residuals=residuals,
        times_accessed={"inner": max(ins), "outer": max(outs)},
        flags=flags,
        shell_time_reads={k: max(pair) for k, pair in reads.items()},
    )
    if reference is not None:
        report.max_error = kernel_max_error(work, reference)
        checked_rows(aug, reference)  # its entries match; it must also be a chain
    return report


def kernel_max_error(
    recovered: TransitionKernel, reference: TransitionKernel
) -> Number:
    """Largest absolute entry difference over the rows labelled recovered,
    read from both tables as arrays.

    A reference without a row or an entry that was recovered, as from
    another tree, raises :class:`FormatError` naming the first such entry,
    rows and entries in table order, as does a float one of a rational answer.
    """
    if recovered.mode == RATIONAL and reference.mode != RATIONAL:
        raise FormatError("a rational answer needs a rational reference kernel")
    at = np.flatnonzero([label == RECOVERED for label in recovered.labels.tolist()])
    # each entry (u, v) of either table as the key u * m + v, ids past m left out
    m = int(max(recovered.vertices.max(initial=0), recovered.neighbors.max(initial=0))) + 1
    lens = recovered.sizes[at]
    slots = ranges(recovered.starts[at], lens)
    want = recovered.vertices[at].repeat(lens) * m + recovered.neighbors[slots]
    ref_u, ref_v = reference.vertices.repeat(reference.sizes), reference.neighbors
    on = (ref_u >= 0) & (ref_u < m) & (ref_v >= 0) & (ref_v < m)
    keys = ref_u[on] * m + ref_v[on]
    by_key = keys.argsort()
    i = keys[by_key].searchsorted(want)
    found = np.concatenate((keys[by_key], [-1]))[i] == want  # -1: past the last key
    if not found.all():
        u, v = divmod(int(want[found.argmin()]), m)
        raise FormatError(f"reference kernel has no entry t({u},{v}) of vertex {u}")
    ref = reference.values[on][by_key[i]]
    zero = Fraction(0) if recovered.mode == RATIONAL else 0.0
    return max(np.abs(recovered.values[slots] - ref).tolist(), default=zero)
