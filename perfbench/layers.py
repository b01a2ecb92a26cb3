"""Per-layer counters derived after a traced pass, outside its timed spans."""

from __future__ import annotations

import time


def recovered_edges(aug, known) -> list[tuple[int, int]]:
    """Edges the inversion solves: children of base vertices without a known row."""
    return [
        (u, w)
        for u in range(aug.base.vertex_count)
        if u not in known.entries
        for w in aug.full.children[u]
    ]


def kappa_max(tt, aug, truth, known, p_in, p_out) -> float:
    """Worst cancellation factor (gross + sum|subtracted|) / |net| over solved edges.

    Built from the arrival decomposition that acceptance criterion 9 checks,
    with the truth kernel supplying every row: the gross outer mass at the
    plan's hit time, the subtracted tail-class terms, and the net mass
    ``t(u, w)`` times the out-and-back coefficient.
    """
    M = tt.tomography
    worst = 0.0
    for u, w in recovered_edges(aug, known):
        plan = M.make_plan(aug, u, w)
        chis = M.tail_passage_probs(aug, truth, plan)
        net = abs(truth.prob(u, w) * M.unknown_edge_coefficient(aug, truth, plan, p_out))
        if not net:
            continue
        gross = sum(p_out.prob(plan.hit_time, v) for v in plan.outer_targets)
        subtracted = sum(
            abs(p_in.prob(plan.hit_time - (2 * l - 1), v) * chis[(v, l)])
            for l in range(1, plan.num_classes + 1)
            for v in plan.inner_targets
        )
        worst = max(worst, float((gross + subtracted) / net))
    return worst


def sampler_waste(batch, horizon: int) -> tuple[float, float]:
    """Overflow share of walks and share of simulated steps past ``horizon``.

    Computed from the batch's counts, not counted inside the sampler: an
    absorbed walk simulates ``tau_out`` steps, an overflowed walk ``t_cap``.
    """
    steps = beyond = 0
    for (t, _), c in batch.counts_out.items():
        steps += t * c
        beyond += max(0, t - horizon) * c
    steps += batch.overflow * batch.t_cap
    beyond += batch.overflow * max(0, batch.t_cap - horizon)
    return batch.overflow / batch.n, beyond / steps


def validate_seconds(tt, aug, kernel) -> float:
    """Best of three timed ``validate_kernel`` calls on one kernel.

    ``first_hitting_joint`` validates its kernel on every call, inside the
    forward spans; this separate call shows that share.
    """
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        tt.chain_model.validate_kernel(aug, kernel)
        best = min(best, time.perf_counter() - t0)
    return best
