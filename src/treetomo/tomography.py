"""Recovery of unknown transition rows from two boundary hitting laws.

The chain on a 2-spherically augmented tree is observed only through the
joint laws of first hitting time and place at the inner and outer boundary
layers.  Rows at added vertices are given; rows at base-tree vertices are
solved shell by shell, outermost first.

For a base vertex ``u`` at shell ``k`` with child ``w``, the observable
"first arrival in the outer targets below ``w`` at time ``3R+4-2k``" splits
over the time of the first visit to the inner layer.  Each piece with a late
first visit is a measured inner-hit probability times a tail-class
first-passage probability over already-solved rows.  The remaining family
runs straight out to the inner layer below ``u`` (through any child, not only
``w``), straight back up, and straight out through ``w``; its probability is
``t(u, w) * head(u) * tail(w)``, so the unknown drops out by division.  With
``z'`` the outer child of inner vertex ``z``, both factors are sums over rows
already solved, and the head on the inner layer is one cell of the inner law,
since a walk that first meets ``z`` at time ``R + 1`` went straight there:

    head(z) = p_in(R+1, z),   head(x) = sum_c t(c, x) head(c),
    tail(z') = 1,             tail(x) = sum_c t(x, c) tail(c).

:func:`recover_all` runs each recursion as an array sweep over the edge
table of :class:`~treetomo.chain_model.AccRows`, the kernel of the forward
DP.  Per shell, the heads take one masked push up inward edges and the tails
one masked pull along outward edges; shell ``k`` takes one pull per step of
a first-passage recursion over shells ``k+1 .. R+1``, which serves every
edge of the shell because a walk confined there stays in the subtree it
started in.  With the inner layer in depth-first order, the inner vertices
below a vertex form one block, so each edge's outer-arrival and class sums
are one ``np.add.reduceat`` per shell.  :func:`make_plan`,
:func:`tail_passage_probs` and :func:`unknown_edge_coefficient` give one
edge's terms alone, with the same sweeps over the rows of ``subtree(w)`` or
``subtree(u)``.

In rational mode the table and the laws hold integer numerators, in the
manner of fraction-free (Bareiss) elimination: each law brings its cells as
numerators over one denominator per time, heads, tails and tail classes are integers over known
powers of the row scale ``D`` (rescaled when a recovered row widens ``D``),
each class sum of an edge is one integer, and each recovered entry is one
``Fraction``.  Float mode runs the same arrays in ``np.longdouble`` with
every scale 1, and each recovered entry is one division.
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
    runs,
)
from .errors import (
    FormatError,
    InvalidParameter,
    MissingKnownRow,
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
    ``outer_targets`` the outer-layer vertices below ``child`` and
    ``inner_targets`` their parents on the inner layer.
    """

    shell: int
    vertex: int
    child: int
    hull_radius: int
    hit_time: int
    num_classes: int
    outer_targets: tuple[int, ...]
    inner_targets: tuple[int, ...]


@dataclass
class RecoveryReport:
    """Solved kernel plus diagnostics of one full recovery run."""

    kernel: TransitionKernel
    residuals: dict[int, Number] = field(default_factory=dict)
    max_error: Number | None = None
    times_accessed: dict[str, int] = field(default_factory=dict)
    flags: list[tuple[str, int]] = field(default_factory=list)
    shell_time_reads: dict[int, int] = field(default_factory=dict)


def _require_two_layers(aug: AugmentedTree) -> None:
    if aug.aug_len != 2:
        raise InvalidParameter(
            f"recovery needs a 2-spherical augmentation, got aug_len={aug.aug_len}"
        )


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
    """Build the recovery plan for the edge ``u -> w``.

    Requires ``aug.aug_len == 2`` and ``u`` in the base tree.
    """
    _require_two_layers(aug)
    if u not in range(aug.base.vertex_count):
        raise NotInLambda(f"vertex {u} is not a base-tree vertex")
    if w not in aug.full.children[u]:
        raise NotAChild(f"{w} is not a child of {u}")
    full, k, r = aug.full, int(aug.full.norm[u]), aug.hull_radius
    inner = tuple(z for z in full.subtree(w) if full.norm[z] == r + 1)  # the inner layer
    outer = tuple(full.children[z][0] for z in inner)
    return EdgeRecoveryPlan(k, u, w, r, aug.horizon - 2 * k, r + 2 - k, outer, inner)


def _inner_tails(rows: AccRows, hi: int):
    """``t(z, z')`` at each inner vertex ``z`` (shell ``hi``), zero elsewhere."""
    outer = rows.zeros()
    outer[rows.norm == hi + 1] = 1
    return rows.pull(outer)


def _tail_classes(rows: AccRows, shell: int, hi: int) -> list:
    """Tail-class first-passage vectors, by vertex id.

    Class ``l = 1 .. hi + 1 - shell`` holds, at each vertex with a row, the
    probability that a walk from it first reaches the outer layer after
    exactly ``2l-1`` steps while every earlier position lies at shells
    ``shell+1 .. hi``, in the scale of ``rows``: in rational mode an integer
    ``N`` for ``N / D**(2l-1)``.  Every vertex of that band must carry a row.

    Class 1 starts at the inner layer (shell ``hi``) as ``t(z, z')``; each
    further step is one :meth:`~AccRows.pull` with the vertices below the
    band zeroed.  The last class is read at step
    ``last = 2(hi+1-shell) - 1``, so step ``s`` keeps only the shells
    ``max(shell+1, hi-(last-s)) .. hi``: from lower shells the inner layer
    is out of reach by step ``last``, so a vertex dropped there feeds no
    entry, and every entry is computed by the same operations as over the
    whole band.
    """
    last = 2 * (hi + 1 - shell) - 1
    cur = _inner_tails(rows, hi)
    out = [cur]
    for s in range(2, last + 1):
        cur = rows.pull(cur)
        cur[rows.norm < max(shell + 1, hi - (last - s))] = 0
        if s % 2:
            out.append(cur)
    return out


def _shell_step(rows: AccRows, x, shell: int, inward: bool):
    """One masked sweep to ``shell``: head sums :meth:`~AccRows.push` up
    inward edges, tail sums :meth:`~AccRows.pull` back along outward ones."""
    y = rows.push(x) if inward else rows.pull(x)
    y[rows.norm != shell] = 0
    return y


def tail_passage_probs(
    aug: AugmentedTree,
    kernel: TransitionKernel,
    plan: EdgeRecoveryPlan,
) -> dict[tuple[int, int], Number]:
    """First-passage probabilities of the tail classes, one per (vertex, class).

    Entry ``(v, l)`` is the probability that a walk started at inner vertex
    ``v`` first reaches ``plan.outer_targets`` after exactly ``2l-1`` steps
    while every earlier position stays at shells ``>= plan.shell + 1``.  The
    sweep of :func:`recover_all` over the rows of the subtree of
    ``plan.child`` yields all entries; only rows at shells above
    ``plan.shell`` are read.
    """
    rows = AccRows(aug.full, kernel, aug.full.subtree(plan.child))
    table = _tail_classes(rows, plan.shell, plan.hull_radius + 1)
    return {(v, l): rows.value(chi[v], 2 * l - 1)
            for l, chi in enumerate(table, 1) for v in plan.inner_targets}


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

    The inner heads are ``p_out(R+2, z') / t(z, z')``, for callers that hold
    only the outer law.  On computed laws this equals the ``p_in(R+1, z)`` that
    :func:`recover_all` reads, exactly in rational mode; on empirical laws it may not.
    """
    below = aug.full.subtree(plan.vertex)
    rows = AccRows(aug.full, kernel, below)
    r = plan.hull_radius
    tail = _inner_tails(rows, r + 1)
    head = rows.zeros()
    for z in np.intersect1d(below, aug.inner_layer).tolist():
        head[z] = p_out.prob(r + 2, aug.full.children[z][0]) * rows.scale / tail[z]
    for k in range(r, plan.shell - 1, -1):
        head = _shell_step(rows, head, k, inward=True)
    for k in range(r, plan.shell, -1):
        tail = _shell_step(rows, tail, k, inward=False)
    coef = head[plan.vertex] * tail[plan.child]
    return rows.value(coef, 2 * (r + 1 - plan.shell))


def _depth_first(aug: AugmentedTree) -> np.ndarray:
    """Ancestors of the inner vertices, depth-first with children ascending.

    Row ``i`` holds the ancestor at shell ``R+1-i`` of each inner vertex (row
    0 the vertex itself), columns sorted so the inner vertices below any
    vertex form one contiguous block: each shell's blocks tile the columns.
    """
    anc = [aug.inner_layer]
    for _ in range(aug.hull_radius + 1):
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
    """Recover every base-tree row ``known`` lacks, outermost shell first.

    ``known`` must carry the given rows, each valid, else :class:`InvalidKernel`,
    every added row off the outer layer, else :class:`MissingKnownRow`, and
    no row labelled unknown (:class:`InvalidParameter`); the answer labels the
    base rows it lacks recovered, the given rows known.  Both laws must reach
    time ``3R+4`` (``3R+3`` inner), hold cells only on their own layer at
    times ``>= 1`` and be in ``known``'s mode, else :class:`FormatError`
    (see :func:`_grid`); cells past those times are checked, then ignored.
    A ``reference`` must hold every recovered entry (:class:`FormatError`)
    and be valid (:class:`InvalidKernel`).  Shell ``k`` is solved from its
    swept heads, the tails of shell ``k+1`` and its tail classes (see the
    module docstring): each child edge from its arrival decomposition, the
    inward entry as the row complement, and a failure raises for the first
    edge or row in vertex order, a row's edges before its complement.
    ``shell_time_reads`` records the largest law time read for each shell,
    and ``times_accessed`` the largest per law.
    """
    _require_two_layers(aug)
    r = aug.hull_radius
    mode, full, base = known.mode, aug.full, aug.base.vertex_count
    if UNKNOWN in (labels := known.labels.tolist()):
        u = known.vertices[labels.index(UNKNOWN)]
        raise InvalidParameter(f"given row of vertex {u} is labelled unknown")
    given = known.index(full.vertex_count)[:-1] >= 0  # the vertices with a row
    target, absent = ~given, ~given  # no row: solved at a base vertex, else refused below
    target[base:] = absent[:base] = absent[aug.outer_layer] = False
    rows = checked_rows(aug, known, partial=True)
    anc = _depth_first(aug)
    inner = anc[0]
    lin, den_in = _grid(rows, "inner", p_in, inner, aug.horizon - 1)
    lout, den_out = _grid(rows, "outer", p_out, full.child_ids[full.child_starts[inner]],
                          aug.horizon)
    if absent.any():
        raise MissingKnownRow(f"row for vertex {absent.argmax()} required but absent")
    head = rows.zeros()
    head[inner] = lin[r + 1]  # the inner heads are numerators over q
    q = den_in[r + 1]
    tail = _inner_tails(rows, r + 1)
    residuals: dict[int, Number] = {}
    flags: list[tuple[str, int]] = []
    reads: dict[int, tuple[int, int]] = {}

    for k in range(r, -1, -1):
        if k < r:
            tail = _shell_step(rows, tail, k + 1, inward=False)
        head = _shell_step(rows, head, k, inward=True)
        us = (target & (full.norm == k)).nonzero()[0].tolist()
        hit = aug.horizon - 2 * k
        reads[k] = (hit - 1, hit) if us else (r + 1 if k == r else -1, -1)
        if not us:
            continue
        chis = _tail_classes(rows, k, r + 1)
        dens = [den_out[hit]] + [
            den_in[hit - (2 * l - 1)] * rows.scale ** (2 * l - 1)
            for l in range(1, len(chis) + 1)
        ]
        # t(u, w): the outer arrivals below w at time hit, less the tail classes
        # over the inner vertices below w, over head(u) * tail(w).  mults bring
        # each sum's numerators to the shell's common denominator den
        den = math.lcm(*dens)
        mults, num = [den // d for d in dens], q * rows.scale ** (2 * (r + 1 - k))
        lens = full.child_starts[np.add(us, 1)] - full.child_starts[us]
        ew = full.child_ids[ranges(full.child_starts[us], lens)]
        eu, ws = np.repeat(us, lens), ew.tolist()
        # per class, sums over the block of inner vertices below each vertex
        # of shell k+1, each block one segment of the depth-first inner layer
        tops, blocks = runs(anc[r - k])
        at = np.zeros(full.vertex_count, np.intp)
        at[tops] = np.arange(len(tops))
        cells = np.array([lout[hit]] + [lin[hit - (2 * l - 1)] * chi[inner]
                                        for l, chi in enumerate(chis, 1)])
        sums = np.add.reduceat(cells, blocks, axis=1)[:, at[ew]]
        total = (np.array([mults[0]] + [-m for m in mults[1:]])[:, None] * sums).sum(axis=0)
        coef = head[eu] * tail[ew]
        zero = coef == 0  # refused below, and kept out of the division
        vals = rows.ratio(total * num, den * np.where(zero, 1, coef))
        off = zero | (vals <= 0) | (vals > 1 + (0 if mode == RATIONAL else FLOAT_EDGE_SLACK))
        if clamp:
            for i in np.flatnonzero(off & ~zero):
                vals[i] = _clamp(vals[i], mode)
        starts = np.cumsum(lens) - lens
        child_sum = np.add.reduceat(vals, starts)
        comp = 1 - child_sum if k else 0 * child_sum  # the root has no inward entry
        bad = (np.array([_root_sum_off(child_sum[0], mode)]) if k == 0
               else ~((comp > 0) & (comp < 1)))
        owner = np.repeat(np.arange(len(us)), lens)
        # failures in vertex order, each row's edges before its complement
        for j, kind, i in sorted([(owner[i], 0, i) for i in np.flatnonzero(off)]
                                 + [(j, 1, j) for j in np.flatnonzero(bad)]):
            u = us[j]
            if kind == 0 and (zero[i] or not clamp):
                raise (ZeroDenominator(f"edge ({u}, {ws[i]}): out-and-back coefficient is zero")
                       if zero[i] else
                       OutOfRange(f"recovered t({u},{ws[i]}) = {_show(vals[i])} outside (0, 1]"))
            if kind == 1 and not clamp:
                raise RowSumViolation(
                    f"root row sums to {_show(child_sum[j])}, expected 1" if k == 0 else
                    f"inward entry of vertex {u} is {_show(comp[j])}, outside (0, 1)")
            flags.append(("RowSumViolation", u) if kind else ("OutOfRange", ws[i]))
            if kind and k:
                comp[j] = _clamp(comp[j], mode)
        residuals.update(zip(us, rows.public(child_sum + comp - 1)))
        row = np.insert(vals, starts, comp) if k else vals  # in neighbor order
        lens = lens + (k > 0)
        if clamp:
            row = row / np.repeat(child_sum + comp, lens)
        slots = ranges(np.searchsorted(rows.src, us), lens)
        grow = rows.write(slots, row) ** (r + 1 - k)
        if grow != 1:  # head (shell k) and tail (shell k+1) are over D**(R+1-k)
            head, tail = head * grow, tail * grow

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
    keys = (ref_u[on] * m + ref_v[on]).astype(np.int64)
    by_key = keys.argsort()
    i = keys[by_key].searchsorted(want)
    found = np.concatenate((keys[by_key], [-1]))[i] == want  # -1: past the last key
    if not found.all():
        u, v = divmod(int(want[found.argmin()]), m)
        raise FormatError(f"reference kernel has no entry t({u},{v}) of vertex {u}")
    ref = reference.values[on][by_key[i]]
    zero = Fraction(0) if recovered.mode == RATIONAL else 0.0
    return max(np.abs(recovered.values[slots] - ref).tolist(), default=zero)
