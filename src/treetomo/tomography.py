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

:func:`recover_all` carries head, tail and one tail-class table per shell
inward: each vertex gets its two sums once, and shell ``k`` one first-passage
recursion over shells ``k+1 .. R+1``, which serves every edge of the shell
because a walk confined there stays in the subtree it started in.
:func:`make_plan`, :func:`tail_passage_probs` and
:func:`unknown_edge_coefficient` give one edge's terms alone, running the same
recurrences restricted to ``subtree(u)`` or ``subtree(w)``.

Rows and law cells are read through :class:`~treetomo.chain_model.AccRows`.
In rational mode the whole inversion runs on its integer numerators, in the
manner of fraction-free (Bareiss) elimination: each law is scaled once to one
denominator per time, heads, tails and tail classes are integers over known
powers of the row scale ``D`` (rescaled when ``D`` widens), each class sum of
an edge is one integer, and each recovered entry is one ``Fraction``.  Float
mode runs the same formulas on ``np.longdouble`` values with every scale 1,
and each recovered entry is one division.  :func:`recover_all` reads each law
through its own record of the largest time read, so the caller's laws stay
plain values.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction

from .chain_model import (
    KNOWN,
    RATIONAL,
    RECOVERED,
    UNKNOWN,
    AccRows,
    Number,
    TransitionKernel,
    settle,
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
from .tree_model import AugmentedTree

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


def _unit(value: Number, u: int, v: int, mode: str, clamp: bool) -> Number:
    """Recovered ``t(u, v)`` if in (0, 1] up to float slack, else clamped or raised."""
    slack = 0 if mode == RATIONAL else FLOAT_EDGE_SLACK
    if value <= 0 or value > 1 + slack:
        if not clamp:
            raise OutOfRange(f"recovered t({u},{v}) = {_show(value)} outside (0, 1]")
        value = _clamp(value, mode)
    return value


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
    k, r = aug.full.norm[u], aug.hull_radius
    inner = aug.layer_descendants(w, aug.inner_layer)
    outer = tuple(aug.outer_child(z) for z in inner)
    return EdgeRecoveryPlan(k, u, w, r, 3 * r + 4 - 2 * k, r + 2 - k, outer, inner)


class _Reads(dict):
    """Law cells keyed ``(t, v)``; :meth:`read` keeps the largest time read in ``last``."""

    last = -1

    def read(self, t: int, v: int) -> Number:
        if t > self.last:
            self.last = t
        return self.get((t, v), 0)


def _head(aug: AugmentedTree, rows: AccRows, head: dict[int, Number], x: int) -> Number:
    """Head sum at ``x`` from the head sums of its children: over inner
    vertices ``z`` below ``x``, the head at ``z`` times the inward path
    product from ``z`` up to ``x``.  In rational mode the sum times
    ``D**(R+1-|x|)``; in :func:`recover_all` an integer over ``Q``, the inner
    law's denominator at time ``R + 1``."""
    return sum(rows[c][x] * head[c] for c in aug.full.children[x])


def _tail(aug: AugmentedTree, rows: AccRows, tail: dict[int, Number], x: int) -> Number:
    """Tail sum at ``x``: outward path products from ``x`` to each outer vertex
    below.  In rational mode an integer over ``D**(R+2-|x|)``."""
    if x in aug.inner_layer:
        return rows[x][aug.outer_child(x)]
    return sum(rows[x][c] * tail[c] for c in aug.full.children[x])


def _bottom_up(aug: AugmentedTree, v: int) -> list[int]:
    """Vertices of the subtree of ``v`` off the outer layer, deepest first."""
    below = [x for x in aug.full.subtree(v) if x not in aug.outer_layer]
    return sorted(below, key=aug.full.norm.__getitem__, reverse=True)


def _tail_classes(
    aug: AugmentedTree, rows: AccRows, inner: Sequence[int], shell: int
) -> list[dict[int, Number]]:
    """Tail-class first-passage table over the inner vertices ``inner``.

    Class ``l = 1 .. R + 2 - shell`` maps vertices, among them those of
    ``inner``, to the probability that a walk from the vertex first reaches
    the outer children of ``inner`` after exactly ``2l-1`` steps while
    every earlier position lies at shells ``shell+1 .. R+1``; a vertex
    missing from the map has probability zero.  The probability is held in
    the scale of ``rows``, which must cover every row of that band: in
    rational mode an integer ``N`` for ``N / D**(2l-1)``.

    The recursion pushes first-passage mass inward from ``inner`` one step
    at a time, keeping only the current step.  The last class is read at
    step ``last = 2(R+2-shell) - 1``, so step ``s`` keeps only the shells
    ``max(shell+1, R+1-(last-s)) .. R+1``: from lower shells the inner
    layer is out of reach by step ``last``, so a vertex dropped there feeds
    no entry, and every entry is computed by the same operations as over
    the whole band.
    """
    norm = aug.full.norm
    hi = aug.hull_radius + 1
    last = 2 * (hi + 1 - shell) - 1
    cur = {z: rows[z][aug.outer_child(z)] for z in inner}
    out: list[dict[int, Number]] = []
    for s in range(1, last + 1):
        if s > 1:
            lo = max(shell + 1, hi - (last - s))
            nxt: dict[int, Number] = {}
            for x, px in cur.items():
                for z in rows[x]:
                    if lo <= norm[z] <= hi:
                        nxt[z] = nxt.get(z, 0) + rows[z][x] * px
            cur = nxt
        if s % 2:
            out.append(cur)
    return out


def tail_passage_probs(
    aug: AugmentedTree,
    kernel: TransitionKernel,
    plan: EdgeRecoveryPlan,
) -> dict[tuple[int, int], Number]:
    """First-passage probabilities of the tail classes, one per (vertex, class).

    Entry ``(v, l)`` is the probability that a walk started at inner vertex
    ``v`` first reaches ``plan.outer_targets`` after exactly ``2l-1`` steps
    while every earlier position stays at shells ``>= plan.shell + 1``.  A
    single backward recursion over the subtree of ``plan.child`` yields all
    entries; only rows at shells above ``plan.shell`` are read.
    """
    rows = AccRows(kernel, _bottom_up(aug, plan.child))
    table = _tail_classes(aug, rows, plan.inner_targets, plan.shell)
    return {(v, l): rows.value(chi.get(v, 0), 2 * l - 1)
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
    ``vertex`` times the tail sum at ``child``, each built bottom-up over its
    subtree from rows already known.

    The inner heads are ``p_out(R+2, z') / t(z, z')``, for callers that hold
    only the outer law.  On computed laws this equals the ``p_in(R+1, z)`` that
    :func:`recover_all` reads, exactly in rational mode; on empirical laws it may not.
    """
    below = _bottom_up(aug, plan.vertex)
    rows = AccRows(kernel, below)
    r, outer = aug.hull_radius, aug.outer_child
    head = {z: p_out.prob(r + 2, outer(z)) * rows.scale / rows[z][outer(z)]
            for z in below if z in aug.inner_layer}
    for x in below:
        if x not in head:
            head[x] = _head(aug, rows, head, x)
    tail: dict[int, Number] = {}
    for x in _bottom_up(aug, plan.child):
        tail[x] = _tail(aug, rows, tail, x)
    return rows.value(head[plan.vertex] * tail[plan.child], 2 * (r + 1 - plan.shell))


def _solve_edge(
    aug: AugmentedTree, u: int, w: int, inner: tuple[int, ...],
    head_u: Number, tail_w: Number, chis: list[dict[int, Number]],
    law_in: _Reads, law_out: _Reads, scales: tuple[list[int], int, int],
    mode: str, clamp: bool, flags: list[tuple[str, int]],
) -> Number:
    """``t(u, w)`` for ``u`` at shell ``k``: the outer arrivals below ``w`` at time
    ``3R+4-2k``, less the ``R+2-k`` tail classes ``chis`` over ``inner``, over
    the out-and-back coefficient ``head(u) * tail(w)``.

    The arrival sum and each class sum are read as numerators, and
    ``scales = (mults, num, den)`` brings them to the shell's common
    denominator ``den``: the entry is ``net * num / (den * head * tail)``,
    one ``Fraction`` in rational mode and one division in float mode, where
    every scale is 1.
    """
    denom = head_u * tail_w
    if denom == 0:
        raise ZeroDenominator(f"edge ({u}, {w}): out-and-back coefficient is zero")
    k, r = aug.full.norm[u], aug.hull_radius
    hit_time = 3 * r + 4 - 2 * k
    mults, num, den = scales
    total = sum(law_out.read(hit_time, aug.outer_child(z)) for z in inner) * mults[0]
    for l, chi in enumerate(chis, 1):
        s = hit_time - (2 * l - 1)
        total -= sum(law_in.read(s, v) * c for v in inner if (c := chi.get(v))) * mults[l]
    net, whole = total * num, den * denom
    value = Fraction(net, whole) if mode == RATIONAL else net / whole
    got = _unit(value, u, w, mode, clamp)
    if got is not value:  # clamped
        flags.append(("OutOfRange", w))
    return got


def _check_laws(
    aug: AugmentedTree, p_in: HittingDistribution, p_out: HittingDistribution, mode: str
) -> None:
    """Both laws reach the read horizon, each cell lies on its own layer at t >= 1,
    and under a rational kernel every cell is a ``Fraction``."""
    need = 3 * aug.hull_radius + 4
    if p_out.t_max < need:
        raise FormatError(
            f"outer law covers t <= {p_out.t_max}, recovery needs t <= {need}"
        )
    if p_in.t_max < need - 1:
        raise FormatError(
            f"inner law covers t <= {p_in.t_max}, recovery needs t <= {need - 1}"
        )
    laws = (("inner", p_in, aug.inner_layer), ("outer", p_out, aug.outer_layer))
    for name, dist, layer in laws:
        for (t, v), p in dist.mass.items():
            if t < 1 or v not in layer:
                where = f"time {t} < 1" if t < 1 else f"vertex {v} off the {name} layer"
                raise FormatError(f"{name} law has mass at {where}")
            if mode == RATIONAL and not isinstance(p, Fraction):
                raise FormatError(f"{name} law cell ({t}, {v}) = {p!r} under a rational kernel")


def recover_all(
    aug: AugmentedTree,
    known: TransitionKernel,
    p_in: HittingDistribution,
    p_out: HittingDistribution,
    reference: TransitionKernel | None = None,
    clamp: bool = False,
) -> RecoveryReport:
    """Recover every unknown base-tree row, outermost shell first.

    ``known`` must carry the given rows (added vertices, plus any base rows
    already known); base vertices without a row, or flagged unknown, are the
    targets.  Both laws must reach time ``3R+4`` (``3R+3`` inner) and hold
    cells only on their own layer at times ``>= 1``, and under a rational
    ``known`` only ``Fraction`` cells, else :class:`FormatError`.
    Before shell ``k`` is solved, the head sums of shell ``k``, the
    tail sums of shell ``k + 1`` and the shell's tail-class table are built
    (see the module docstring); each child edge is then solved from its
    arrival decomposition, and the inward entry is the row complement.  The
    report's ``shell_time_reads`` records the largest law time index read
    while working on each shell, and ``times_accessed`` the largest per law.
    """
    _require_two_layers(aug)
    r = aug.hull_radius
    _check_laws(aug, p_in, p_out, known.mode)

    work = known.copy()
    for u in range(aug.full.vertex_count):
        if u in work.entries and u not in work.provenance:
            work.provenance[u] = KNOWN
    residuals: dict[int, Number] = {}
    flags: list[tuple[str, int]] = []
    shell_reads: dict[int, tuple[int, int]] = {}

    full = aug.full
    shells = full.shells()
    inner_below = {z: (z,) for z in shells[r + 1]}
    for k in range(r, 0, -1):
        for x in shells[k]:
            inner_below[x] = tuple(z for c in full.children[x] for z in inner_below[c])
    rows = AccRows(work)
    in_mass, den_in = rows.law(p_in.mass)
    out_mass, den_out = rows.law(p_out.mass)
    law_in, law_out = _Reads(in_mass), _Reads(out_mass)
    head: dict[int, Number] = {z: law_in.read(r + 1, z) for z in shells[r + 1]}
    q = den_in.get(r + 1, 1)  # the inner heads are numerators over q
    tail: dict[int, Number] = {}

    mode = work.mode
    root = full.root
    for k in range(r, -1, -1):
        # the band of shell k is shells k+1 .. R+1; the heads of shell k+1 and
        # the tails of shell k+2 hold R-k entries each
        grow = rows.cover(shells[k + 1]) ** (r - k)
        if grow != 1:
            head = {x: h * grow for x, h in head.items()}
            tail = {x: t * grow for x, t in tail.items()}
        tail = {x: _tail(aug, rows, tail, x) for x in shells[k + 1]}
        head = {x: _head(aug, rows, head, x) for x in shells[k]}
        targets = [u for u in shells[k] if aug.is_original(u)
                   and work.provenance.get(u, UNKNOWN) not in (KNOWN, RECOVERED)]
        chis = _tail_classes(aug, rows, shells[r + 1], k) if targets else []
        hit = 3 * r + 4 - 2 * k
        dens = [den_out.get(hit, 1)] + [
            den_in.get(hit - (2 * l - 1), 1) * rows.scale ** (2 * l - 1)
            for l in range(1, len(chis) + 1)
        ]
        den = math.lcm(*dens)
        scales = ([den // d for d in dens], q * rows.scale ** (2 * (r + 1 - k)), den)
        for u in targets:
            row: dict[int, Number] = {}
            for w in full.children[u]:
                row[w] = _solve_edge(aug, u, w, inner_below[w], head[u], tail[w], chis,
                                     law_in, law_out, scales, mode, clamp, flags)
            child_sum = sum(row.values())
            if u == root:
                residuals[u] = settle(child_sum - 1, mode)
                if _root_sum_off(child_sum, mode):
                    if not clamp:
                        raise RowSumViolation(
                            f"root row sums to {_show(child_sum)}, expected 1"
                        )
                    flags.append(("RowSumViolation", u))
            else:
                comp = 1 - child_sum
                ok = 0 < comp < 1
                if not ok and not clamp:
                    raise RowSumViolation(
                        f"inward entry of vertex {u} is {_show(comp)}, outside (0, 1)"
                    )
                if not ok:
                    flags.append(("RowSumViolation", u))
                    comp = _clamp(comp, mode)
                residuals[u] = settle(child_sum + comp - 1, mode)
                row[full.parent[u]] = comp  # type: ignore[index]
            if clamp:
                s = sum(row.values())
                row = {w: p / s for w, p in row.items()}
            work.entries[u] = {w: settle(p, mode) for w, p in row.items()}
            rows.hold(u, row)
            work.provenance[u] = RECOVERED
        del chis
        shell_reads[k] = (law_in.last, law_out.last)
        law_in.last = law_out.last = -1  # record the reads of each shell apart

    ins, outs = zip(*shell_reads.values())
    report = RecoveryReport(
        kernel=work,
        residuals=residuals,
        times_accessed={"inner": max(ins), "outer": max(outs)},
        flags=flags,
        shell_time_reads={k: max(pair) for k, pair in shell_reads.items()},
    )
    if reference is not None:
        report.max_error = kernel_max_error(work, reference)
    return report


def kernel_max_error(
    recovered: TransitionKernel, reference: TransitionKernel
) -> Number:
    """Largest absolute entry difference over recovered rows.

    A reference without a row or an entry that was recovered, as from
    another tree, raises :class:`FormatError` naming the vertex.
    """
    worst: Number = 0
    for u, flag in recovered.provenance.items():
        if flag != RECOVERED:
            continue
        ref = reference.entries.get(u, {})
        for v, p in recovered.entries[u].items():
            if v not in ref:
                raise FormatError(f"reference kernel has no entry t({u},{v}) of vertex {u}")
            d = abs(p - ref[v])
            if d > worst:
                worst = d
    return worst
