"""Probe-walk sampling, empirical hitting laws, and the plug-in estimator.

The estimator reads a batch only through its counts, and the walks are
exchangeable, so :func:`collect_batch` draws the counts in law instead of
simulating walks one by one.  It keeps the number of walks in every
(vertex, fresh) state, where "fresh" means no inner-layer contact yet, and
at each step splits every count over its vertex's row by conditional
binomials, over the forward DP's edge table (:class:`AccRows`).  That is
exactly the law of ``n`` independent walks, at a cost that does not grow
with ``n``.
Counting runs up to the inversion's read horizon ``t_cap = 3R + 4``: every
first inner contact within it is counted, and the walks still alive at the
end form the overflow bucket, which estimates ``P(tau_out > 3R + 4)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chain_model import FLOAT, KNOWN, TransitionKernel, checked_rows, runs
from .errors import InsufficientData, InvalidParameter, ZeroDenominator
from .forward_solver import INNER, OUTER, HittingDistribution
from .tomography import RecoveryReport, recover_all
from .tree_model import AugmentedTree


@dataclass
class SampleBatch:
    """Counted boundary observations of ``n`` independent probe walks.

    ``counts_in`` and ``counts_out`` map ``(time, vertex)`` to the number of
    walks whose first inner / outer contact happened there, at times
    ``1..t_cap``; ``overflow`` counts the walks with no outer contact by
    ``t_cap``, so it equals ``n`` minus the outer counts.
    """

    n: int
    seed: int
    t_cap: int
    counts_in: dict[tuple[int, int], int] = field(default_factory=dict)
    counts_out: dict[tuple[int, int], int] = field(default_factory=dict)
    overflow: int = 0


def collect_batch(
    aug: AugmentedTree,
    kernel: TransitionKernel,
    n: int,
    seed: int,
    workers: int = 1,
) -> SampleBatch:
    """Draw the boundary counts of ``n`` probe walks up to ``t_cap = 3R + 4``.

    Row 0 of the ``(2, vertices)`` count array holds the fresh walks, row 1
    the rest.  Each step splits every row's counts over its slots in
    ascending neighbor order: slot ``j`` takes ``Binomial(left, p_j /
    rest_j)`` of the ``left`` walks not yet placed, with ``rest_j`` the
    row's mass from slot ``j`` on, so the last slot takes the rest.  The
    stream is pinned: ``rng = np.random.default_rng(seed)`` makes one
    ``rng.binomial`` call per step and rank ``j``, over the rows with a
    slot ``j`` in ascending vertex order, fresh row first.  Moved counts
    are summed by destination as :meth:`AccRows.push` sums mass.  Entries
    are drawn as float64, so a rational kernel gives the batch of its float
    image.  ``workers`` is checked and has no effect.  A kernel that fails
    the table's check raises :class:`InvalidKernel`, as in the forward solver.
    """
    if not 1 <= n < 2**63:
        raise InvalidParameter(f"sample count must lie in [1, 2**63), got {n}")
    if seed < 0:
        raise InvalidParameter(f"seed must be >= 0, got {seed}")
    if workers < 1:
        raise InvalidParameter(f"workers must be >= 1, got {workers}")
    rows = checked_rows(aug, kernel)
    p = (rows.q / rows.scale).astype(float)
    order = np.lexsort((rows.dst, rows.src))  # rows ascending, then neighbors
    vertex, starts = runs(rows.src[order])
    degree = np.diff(starts, append=len(order))
    ranks = []  # per rank j: the rows that have a slot j, and those slots
    rest = np.zeros(len(starts))
    for j in reversed(range(degree.max())):
        has = np.flatnonzero(degree > j)
        slots = order[starts[has] + j]
        rest[has] += p[slots]
        ranks.append((has, slots, p[slots] / rest[has]))
    ranks.reverse()

    rng = np.random.default_rng(seed)
    inner, outer = aug.inner_layer, aug.outer_layer
    batch = SampleBatch(n=n, seed=seed, t_cap=aug.horizon)
    counts = np.zeros((2, aug.full.vertex_count), np.int64)
    counts[0, aug.full.root] = n
    moved = np.zeros((2, len(order)), np.int64)
    for t in range(1, aug.horizon + 1):
        left = counts[:, vertex]
        for has, slots, cond in ranks:
            moved[:, slots] = rng.binomial(left[:, has], cond)
            left[:, has] -= moved[:, slots]
        counts[:] = 0
        counts[:, rows.heads] = np.add.reduceat(moved[:, rows.by_dst], rows.head_starts, axis=1)
        for layer, cells, hits in ((inner, batch.counts_in, counts[0, inner]),
                                   (outer, batch.counts_out, counts[:, outer].sum(0))):
            got = np.flatnonzero(hits)
            cells.update(((t, v), c) for v, c in zip(layer[got].tolist(), hits[got].tolist()))
        counts[1, inner] += counts[0, inner]  # fresh arrivals stop being fresh
        counts[0, inner] = 0
        counts[:, outer] = 0  # absorbed
    batch.overflow = int(counts.sum())
    return batch


def empirical_joint(batch: SampleBatch) -> tuple[HittingDistribution, HittingDistribution]:
    """Empirical inner and outer hitting laws up to ``t_cap``, ``count / n`` per cell."""
    p_in, p_out = (
        HittingDistribution.from_mass(layer, batch.t_cap,
                                      {key: c / batch.n for key, c in counts.items()})
        for layer, counts in ((INNER, batch.counts_in), (OUTER, batch.counts_out))
    )
    return p_in, p_out


def estimate_kernel(
    aug: AugmentedTree,
    known: TransitionKernel,
    batch: SampleBatch,
    reference: TransitionKernel | None = None,
) -> RecoveryReport:
    """Plug-in estimator: exact inversion applied to empirical hitting laws.

    The known rows enter as floats, so the estimate is a float kernel.
    Out-of-simplex recoveries are clamped and flagged; an empty empirical
    cell that the inversion needs surfaces as :class:`InsufficientData`, and
    a batch shorter than the read horizon as :class:`FormatError`.
    """
    p_in, p_out = empirical_joint(batch)
    known = TransitionKernel(known.vertices, known.sizes, known.neighbors,
                             known.values.astype(float), known.labels, FLOAT)
    try:
        return recover_all(aug, known, p_in, p_out, reference=reference, clamp=True)
    except ZeroDenominator as exc:
        raise InsufficientData(str(exc)) from exc


def consistency_curve(
    aug: AugmentedTree,
    kernel: TransitionKernel,
    n_grid: list[int],
    seeds: list[int],
) -> list[tuple[int, int, float]]:
    """Estimation error versus sample size, one row per (n, seed).

    The truth kernel supplies both the known rows fed to the estimator and
    the reference for the error; the error is the largest absolute entry
    deviation over estimated rows.
    """
    known = kernel.restricted_to({KNOWN})
    rows: list[tuple[int, int, float]] = []
    for n in n_grid:
        for seed in seeds:
            batch = collect_batch(aug, kernel, n, seed)
            report = estimate_kernel(aug, known, batch, reference=kernel)
            rows.append((n, seed, float(report.max_error)))
    return rows
