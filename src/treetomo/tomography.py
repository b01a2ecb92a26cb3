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
because a walk confined there stays in the subtree it started in.  The
per-edge functions run the same recurrences restricted to ``subtree(u)`` or
``subtree(w)``, one table and two subtree scans per edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chain_model import (
    KNOWN,
    RATIONAL,
    RECOVERED,
    UNKNOWN,
    Number,
    TransitionKernel,
    settle,
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
from .tree_model import AugmentedTree, spherical_augmentation, star

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
    raw_kernel: TransitionKernel | None = None


def _require_two_layers(aug: AugmentedTree) -> None:
    if aug.aug_len != 2:
        raise InvalidParameter(
            f"recovery needs a 2-spherical augmentation, got aug_len={aug.aug_len}"
        )


def _unit(value: Number, u: int, v: int, mode: str, clamp: bool) -> Number:
    """Recovered ``t(u, v)`` if in (0, 1] up to float slack, else clamped or raised."""
    slack = 0 if mode == RATIONAL else FLOAT_EDGE_SLACK
    if value <= 0 or value > 1 + slack:
        if not clamp:
            raise OutOfRange(f"recovered t({u},{v}) = {value} outside (0, 1]")
        value = min(max(value, CLAMP_EPS), 1 - CLAMP_EPS)
    return value


def _root_sum_off(total: Number, mode: str) -> bool:
    return total != 1 if mode == RATIONAL else abs(total - 1) > ROOT_SUM_TOL


class _AccRows(dict):
    """Kernel rows in the accumulation type of :func:`acc_rows`, converted on
    first read.  A row stored directly, such as a recovered one, is held once."""

    def __init__(self, kernel: TransitionKernel):
        super().__init__()
        self.kernel = kernel

    def __missing__(self, z: int) -> dict[int, Number]:
        try:
            r = self.kernel.entries[z]
        except KeyError:
            raise MissingKnownRow(f"row for vertex {z} required but absent") from None
        if self.kernel.mode != RATIONAL:
            r = {v: np.longdouble(p) for v, p in r.items()}
        self[z] = r
        return r


def _plan(aug: AugmentedTree, u: int, w: int, inner: tuple[int, ...]) -> EdgeRecoveryPlan:
    k, r = aug.full.norm[u], aug.hull_radius
    outer = tuple(aug.outer_child(z) for z in inner)
    return EdgeRecoveryPlan(k, u, w, r, 3 * r + 4 - 2 * k, r + 2 - k, outer, inner)


def make_plan(aug: AugmentedTree, u: int, w: int) -> EdgeRecoveryPlan:
    """Build the recovery plan for the edge ``u -> w``.

    Requires ``aug.aug_len == 2`` and ``u`` in the base tree.
    """
    _require_two_layers(aug)
    if u not in aug.origin or not aug.is_original(u):
        raise NotInLambda(f"vertex {u} is not a base-tree vertex")
    if w not in aug.full.children[u]:
        raise NotAChild(f"{w} is not a child of {u}")
    return _plan(aug, u, w, aug.layer_descendants(w, aug.inner_layer))


def _head(
    aug: AugmentedTree, rows: _AccRows, p_out: HittingDistribution,
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
        return ballistic / rows[x][xo] if ballistic else 0
    return sum(rows[c][x] * head[c] for c in aug.full.children[x])


def _tail(aug: AugmentedTree, rows: _AccRows, tail: dict[int, Number], x: int) -> Number:
    """Tail sum at ``x``: outward path products from ``x`` to each outer vertex below."""
    if x in aug.inner_layer:
        return rows[x][aug.outer_child(x)]
    return sum(rows[x][c] * tail[c] for c in aug.full.children[x])


def _bottom_up(aug: AugmentedTree, v: int) -> list[int]:
    """Vertices of the subtree of ``v`` off the outer layer, deepest first."""
    below = [x for x in aug.full.subtree(v) if x not in aug.outer_layer]
    return sorted(below, key=aug.full.norm.__getitem__, reverse=True)


def _tail_classes(
    aug: AugmentedTree, rows: _AccRows, inner: tuple[int, ...], shell: int
) -> dict[tuple[int, int], Number]:
    """Tail-class first-passage table over the inner vertices ``inner``.

    Entry ``(v, l)``, for ``l = 1 .. R + 2 - shell``, is the probability that
    a walk from ``v`` first reaches the outer layer after exactly ``2l-1``
    steps while every earlier position lies at shells ``shell+1 .. R+1``.
    The recursion pushes first-passage mass inward from ``inner`` one step at
    a time, keeping only the current step.
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
                out[(v, (s + 1) // 2)] = cur.get(v, 0)
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
    return _tail_classes(aug, _AccRows(kernel), plan.inner_targets, plan.shell)


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
    rows = _AccRows(kernel)
    head: dict[int, Number] = {}
    for x in _bottom_up(aug, plan.vertex):
        head[x] = _head(aug, rows, p_out, head, x)
    tail: dict[int, Number] = {}
    for x in _bottom_up(aug, plan.child):
        tail[x] = _tail(aug, rows, tail, x)
    return head[plan.vertex] * tail[plan.child]


def _solve_edge(
    plan: EdgeRecoveryPlan, denom: Number, chis: dict[tuple[int, int], Number],
    p_in: HittingDistribution, p_out: HittingDistribution,
    mode: str, clamp: bool, flags: list[tuple[str, int]] | None,
) -> Number:
    if denom == 0:
        raise ZeroDenominator(
            f"edge ({plan.vertex}, {plan.child}): out-and-back coefficient is zero"
        )
    total = sum(p_out.prob(plan.hit_time, v) for v in plan.outer_targets)
    for l in range(1, plan.num_classes + 1):
        s = plan.hit_time - (2 * l - 1)
        for vstar in plan.inner_targets:
            c = chis[(vstar, l)]
            if c:
                total = total - p_in.prob(s, vstar) * c
    value = total / denom
    got = _unit(value, plan.vertex, plan.child, mode, clamp)
    if got != value and flags is not None:
        flags.append(("OutOfRange", plan.child))
    return got


def recover_edge(
    aug: AugmentedTree,
    kernel: TransitionKernel,
    plan: EdgeRecoveryPlan,
    p_in: HittingDistribution,
    p_out: HittingDistribution,
    clamp: bool = False,
    flags: list[tuple[str, int]] | None = None,
) -> Number:
    """Solve the single transition probability ``t(plan.vertex, plan.child)``.

    Subtracts every tail-class contribution from the outer arrival mass at
    ``plan.hit_time`` and divides by the out-and-back coefficient.  With
    analytic inputs the result is exact (rational mode) or accurate to
    roundoff; with empirical inputs it may leave [0, 1], in which case it is
    clamped and flagged when ``clamp`` is set and raised otherwise.
    """
    denom = unknown_edge_coefficient(aug, kernel, plan, p_out)
    chis = tail_passage_probs(aug, kernel, plan)
    return _solve_edge(plan, denom, chis, p_in, p_out, kernel.mode, clamp, flags)


def _coverage_check(r: int, p_in: HittingDistribution, p_out: HittingDistribution) -> None:
    need = 3 * r + 4
    if p_out.t_max < need:
        raise FormatError(
            f"outer law covers t <= {p_out.t_max}, recovery needs t <= {need}"
        )
    if p_in.t_max < need - 1:
        raise FormatError(
            f"inner law covers t <= {p_in.t_max}, recovery needs t <= {need - 1}"
        )


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
    targets.  Before shell ``k`` is solved, the head sums of shell ``k``, the
    tail sums of shell ``k + 1`` and the shell's tail-class table are built
    (see the module docstring); each child edge is then solved as
    :func:`recover_edge` solves it alone, and the inward entry is the row
    complement.  The report's ``shell_time_reads`` records the largest
    distribution time index touched while working on each shell.
    """
    _require_two_layers(aug)
    r = aug.hull_radius
    _coverage_check(r, p_in, p_out)

    work = known.copy()
    for u in range(aug.full.vertex_count):
        if u in work.entries and u not in work.provenance:
            work.provenance[u] = KNOWN
    raw_entries: dict[int, dict[int, Number]] = {}
    residuals: dict[int, Number] = {}
    flags: list[tuple[str, int]] = []
    shell_reads: dict[int, int] = {}

    full = aug.full
    shells = full.shells()
    inner_below = {z: (z,) for z in shells[r + 1]}
    for k in range(r, 0, -1):
        for x in shells[k]:
            inner_below[x] = tuple(z for c in full.children[x] for z in inner_below[c])
    rows = _AccRows(work)
    head: dict[int, Number] = {}
    tail: dict[int, Number] = {}

    orig_in, orig_out = p_in.max_time_read, p_out.max_time_read
    run_in, run_out = -1, -1
    root = full.root
    for k in range(r, -1, -1):
        p_in.max_time_read = -1
        p_out.max_time_read = -1
        for x in shells[r + 1] if k == r else ():  # heads start on the inner layer
            head[x] = _head(aug, rows, p_out, head, x)
        for x in shells[k + 1]:
            tail[x] = _tail(aug, rows, tail, x)
        for x in shells[k]:
            head[x] = _head(aug, rows, p_out, head, x)
        targets = [u for u in shells[k] if aug.is_original(u)
                   and work.provenance.get(u, UNKNOWN) not in (KNOWN, RECOVERED)]
        chis = _tail_classes(aug, rows, shells[r + 1], k) if targets else {}
        for u in targets:
            row: dict[int, Number] = {}
            for w in full.children[u]:
                plan = _plan(aug, u, w, inner_below[w])
                row[w] = _solve_edge(
                    plan, head[u] * tail[w], chis, p_in, p_out, work.mode, clamp, flags
                )
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
                    comp = min(max(comp, CLAMP_EPS), 1 - CLAMP_EPS)
                residuals[u] = child_sum + comp - 1
                row[full.parent[u]] = comp  # type: ignore[index]
            if clamp:
                raw_entries[u] = dict(row)
                s = sum(row.values())
                row = {w: p / s for w, p in row.items()}
            work.entries[u] = rows[u] = row
            work.provenance[u] = RECOVERED
        del chis
        shell_reads[k] = max(p_in.max_time_read, p_out.max_time_read)
        run_in = max(run_in, p_in.max_time_read)
        run_out = max(run_out, p_out.max_time_read)
    p_in.max_time_read = max(orig_in, run_in)
    p_out.max_time_read = max(orig_out, run_out)

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
    if clamp and raw_entries:
        raw = work.copy()
        for u, row in raw_entries.items():
            raw.entries[u] = {v: settle(p, mode) for v, p in row.items()}
        report.raw_kernel = raw
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


def recover_star(
    m: int,
    known: TransitionKernel,
    p_in: HittingDistribution,
    p_out: HittingDistribution,
    clamp: bool = False,
) -> TransitionKernel:
    """Closed-form recovery on the augmented star with ``m`` unit branches.

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
    aug = spherical_augmentation(star(1, m), 2)

    result = known.copy()
    root_row: dict[int, Number] = {}
    for j in range(1, m + 1):
        inner_v = m + j
        outer_v = 2 * m + j
        po3 = p_out.prob(3, outer_v)
        po5 = p_out.prob(5, outer_v)
        pi2 = p_in.prob(2, inner_v)
        pi4 = p_in.prob(4, inner_v)
        t_back = known.prob(inner_v, j)
        if po3 == 0 or pi2 == 0 or t_back == 0:
            raise ZeroDenominator(f"branch {j}: a required boundary cell is zero")
        t_out = _unit((po5 / po3 - pi4 / pi2) / t_back, j, inner_v, known.mode, clamp)
        t_root = _unit(pi2 / t_out, 0, j, known.mode, clamp)
        t_out = settle(t_out, known.mode)
        result.entries[j] = {0: settle(1 - t_out, known.mode), inner_v: t_out}
        result.provenance[j] = RECOVERED
        root_row[j] = settle(t_root, known.mode)
    root_sum = sum(root_row.values())
    if _root_sum_off(root_sum, known.mode) and not clamp:
        raise RowSumViolation(f"root row sums to {root_sum}, expected 1")
    if clamp:
        root_row = {j: p / root_sum for j, p in root_row.items()}
    result.entries[aug.full.root] = root_row
    result.provenance[aug.full.root] = RECOVERED
    return result
