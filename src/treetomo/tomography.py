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
already solved:

    head(z) = p_out(R+2, z') / t(z, z'),   head(x) = sum_c t(c, x) head(c),
    tail(z') = 1,                          tail(x) = sum_c t(x, c) tail(c).

:func:`recover_all` carries head, tail and one tail-class table per shell
inward: each vertex gets its two sums once, and shell ``k`` one first-passage
recursion over shells ``k+1 .. R+1``, which serves every edge of the shell
because a walk confined there stays in the subtree it started in.
:func:`make_plan`, :func:`tail_passage_probs` and
:func:`unknown_edge_coefficient` give one edge's terms alone, running the same
recurrences restricted to ``subtree(u)`` or ``subtree(w)``.  Rows are read
through :class:`~treetomo.chain_model.AccRows`; the tail-class tables run on
its integer numerators in rational mode.
"""

from __future__ import annotations

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


def _unit(value: Number, u: int, v: int, mode: str, clamp: bool) -> Number:
    """Recovered ``t(u, v)`` if in (0, 1] up to float slack, else clamped or raised."""
    slack = 0 if mode == RATIONAL else FLOAT_EDGE_SLACK
    if value <= 0 or value > 1 + slack:
        if not clamp:
            raise OutOfRange(f"recovered t({u},{v}) = {value} outside (0, 1]")
        value = _clamp(value, mode)
    return value


def _root_sum_off(total: Number, mode: str) -> bool:
    return total != 1 if mode == RATIONAL else abs(total - 1) > ROOT_SUM_TOL


def make_plan(aug: AugmentedTree, u: int, w: int) -> EdgeRecoveryPlan:
    """Build the recovery plan for the edge ``u -> w``.

    Requires ``aug.aug_len == 2`` and ``u`` in the base tree.
    """
    _require_two_layers(aug)
    if u not in aug.origin or not aug.is_original(u):
        raise NotInLambda(f"vertex {u} is not a base-tree vertex")
    if w not in aug.full.children[u]:
        raise NotAChild(f"{w} is not a child of {u}")
    k, r = aug.full.norm[u], aug.hull_radius
    inner = aug.layer_descendants(w, aug.inner_layer)
    outer = tuple(aug.outer_child(z) for z in inner)
    return EdgeRecoveryPlan(k, u, w, r, 3 * r + 4 - 2 * k, r + 2 - k, outer, inner)


def _head(
    aug: AugmentedTree, rows: AccRows, p_out: HittingDistribution,
    head: dict[int, Number], x: int,
) -> Number:
    """Head sum at ``x`` from the head sums of its children.

    Over inner vertices ``z`` below ``x``: the ballistic outer arrival at
    time ``R + 2`` through ``z``'s outer child, divided by that last known
    step, times the inward path product from ``z`` up to ``x``.
    """
    if x in aug.inner_layer:
        xo = aug.outer_child(x)
        ballistic = p_out.prob(aug.hull_radius + 2, xo)
        return ballistic / rows.value(rows[x][xo], 1) if ballistic else 0
    return sum(rows.value(rows[c][x], 1) * head[c] for c in aug.full.children[x])


def _tail(aug: AugmentedTree, rows: AccRows, tail: dict[int, Number], x: int) -> Number:
    """Tail sum at ``x``: outward path products from ``x`` to each outer vertex below."""
    if x in aug.inner_layer:
        return rows.value(rows[x][aug.outer_child(x)], 1)
    return sum(rows.value(rows[x][c], 1) * tail[c] for c in aug.full.children[x])


def _bottom_up(aug: AugmentedTree, v: int) -> list[int]:
    """Vertices of the subtree of ``v`` off the outer layer, deepest first."""
    below = [x for x in aug.full.subtree(v) if x not in aug.outer_layer]
    return sorted(below, key=aug.full.norm.__getitem__, reverse=True)


def _tail_classes(
    aug: AugmentedTree, rows: AccRows, inner: tuple[int, ...], shell: int
) -> dict[tuple[int, int], Number]:
    """Tail-class first-passage table over the inner vertices ``inner``.

    Entry ``(v, l)``, for ``l = 1 .. R + 2 - shell``, is the probability that
    a walk from ``v`` first reaches the outer layer after exactly ``2l-1``
    steps while every earlier position lies at shells ``shell+1 .. R+1``.
    The recursion pushes first-passage mass inward from ``inner`` one step at
    a time, keeping only the current step.  The mass is held in the scale of
    ``rows``, which must cover every row of the band: in rational mode an
    integer ``N`` after ``s`` steps, so entry ``(v, l)`` is
    ``Fraction(N, D**(2l-1))``.
    """
    norm = aug.full.norm
    lo, hi = shell + 1, aug.hull_radius + 1
    cur = {z: rows[z][aug.outer_child(z)] for z in inner}
    out: dict[tuple[int, int], Number] = {}
    for s in range(1, 2 * (hi + 1 - shell)):
        if s > 1:
            nxt: dict[int, Number] = {}
            for x, px in cur.items():
                for z in rows[x]:
                    if lo <= norm[z] <= hi:
                        nxt[z] = nxt.get(z, 0) + rows[z][x] * px
            cur = nxt
        if s % 2:
            for v in inner:
                out[(v, (s + 1) // 2)] = rows.value(cur.get(v, 0), s)
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
    return _tail_classes(aug, rows, plan.inner_targets, plan.shell)


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
    """
    below = _bottom_up(aug, plan.vertex)
    rows = AccRows(kernel, below)
    head: dict[int, Number] = {}
    for x in below:
        head[x] = _head(aug, rows, p_out, head, x)
    tail: dict[int, Number] = {}
    for x in _bottom_up(aug, plan.child):
        tail[x] = _tail(aug, rows, tail, x)
    return head[plan.vertex] * tail[plan.child]


def _solve_edge(
    aug: AugmentedTree, u: int, w: int, inner: tuple[int, ...],
    denom: Number, chis: dict[tuple[int, int], Number],
    p_in: HittingDistribution, p_out: HittingDistribution,
    mode: str, clamp: bool, flags: list[tuple[str, int]],
) -> Number:
    """``t(u, w)`` for ``u`` at shell ``k``: the outer arrivals below ``w`` at time
    ``3R+4-2k``, less the ``R+2-k`` tail classes over ``inner``, over ``denom``."""
    if denom == 0:
        raise ZeroDenominator(f"edge ({u}, {w}): out-and-back coefficient is zero")
    k, r = aug.full.norm[u], aug.hull_radius
    hit_time = 3 * r + 4 - 2 * k
    total = sum(p_out.prob(hit_time, aug.outer_child(z)) for z in inner)
    for l in range(1, r + 3 - k):
        s = hit_time - (2 * l - 1)
        for vstar in inner:
            c = chis[(vstar, l)]
            if c:
                total = total - p_in.prob(s, vstar) * c
    value = total / denom
    got = _unit(value, u, w, mode, clamp)
    if got != value:
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
    report's ``shell_time_reads`` records the largest distribution time index
    touched while working on each shell; the caller's laws are not marked.
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
    shell_reads: dict[int, int] = {}

    full = aug.full
    shells = full.shells()
    inner_below = {z: (z,) for z in shells[r + 1]}
    for k in range(r, 0, -1):
        for x in shells[k]:
            inner_below[x] = tuple(z for c in full.children[x] for z in inner_below[c])
    rows = AccRows(work)
    head: dict[int, Number] = {}
    tail: dict[int, Number] = {}

    run_in, run_out = -1, -1
    root = full.root
    for k in range(r, -1, -1):
        # fresh views over the caller's cells record the reads of this shell only
        q_in, q_out = (HittingDistribution(d.layer, d.t_max, d.mass) for d in (p_in, p_out))
        rows.cover(shells[k + 1])  # the band of shell k: shells k+1 .. R+1
        for x in shells[r + 1] if k == r else ():  # heads start on the inner layer
            head[x] = _head(aug, rows, q_out, head, x)
        for x in shells[k + 1]:
            tail[x] = _tail(aug, rows, tail, x)
        for x in shells[k]:
            head[x] = _head(aug, rows, q_out, head, x)
        targets = [u for u in shells[k] if aug.is_original(u)
                   and work.provenance.get(u, UNKNOWN) not in (KNOWN, RECOVERED)]
        chis = _tail_classes(aug, rows, shells[r + 1], k) if targets else {}
        for u in targets:
            row: dict[int, Number] = {}
            for w in full.children[u]:
                row[w] = _solve_edge(aug, u, w, inner_below[w], head[u] * tail[w],
                                     chis, q_in, q_out, work.mode, clamp, flags)
            child_sum = sum(row.values())
            if u == root:
                residuals[u] = child_sum - 1
                if _root_sum_off(child_sum, known.mode):
                    if not clamp:
                        raise RowSumViolation(
                            f"root row sums to {child_sum}, expected 1"
                        )
                    flags.append(("RowSumViolation", u))
            else:
                comp = 1 - child_sum
                ok = 0 < comp < 1
                if not ok and not clamp:
                    raise RowSumViolation(
                        f"inward entry of vertex {u} is {comp}, outside (0, 1)"
                    )
                if not ok:
                    flags.append(("RowSumViolation", u))
                    comp = _clamp(comp, work.mode)
                residuals[u] = child_sum + comp - 1
                row[full.parent[u]] = comp  # type: ignore[index]
            if clamp:
                s = sum(row.values())
                row = {w: p / s for w, p in row.items()}
            work.entries[u] = row
            rows.hold(u, row)
            work.provenance[u] = RECOVERED
        del chis
        shell_reads[k] = max(q_in.max_time_read, q_out.max_time_read)
        run_in = max(run_in, q_in.max_time_read)
        run_out = max(run_out, q_out.max_time_read)

    mode = work.mode
    for u, flag in work.provenance.items():
        if flag == RECOVERED:
            work.entries[u] = {v: settle(p, mode) for v, p in work.entries[u].items()}
    residuals = {u: settle(x, mode) for u, x in residuals.items()}

    report = RecoveryReport(
        kernel=work,
        residuals=residuals,
        times_accessed={"inner": run_in, "outer": run_out},
        flags=flags,
        shell_time_reads=shell_reads,
    )
    if reference is not None:
        report.max_error = kernel_max_error(work, reference)
    return report


def kernel_max_error(
    recovered: TransitionKernel, reference: TransitionKernel
) -> Number:
    """Largest absolute entry difference over recovered rows."""
    worst: Number = 0
    for u, flag in recovered.provenance.items():
        if flag != RECOVERED:
            continue
        for v, p in recovered.entries[u].items():
            d = abs(p - reference.entries[u][v])
            if d > worst:
                worst = d
    return worst
