"""Probe-walk simulation, empirical hitting laws, and the plug-in estimator.

Randomness is counter based: walk ``i`` at step ``t`` draws the uniform
``k * 2**-53`` for a 53-bit integer ``k`` that is a pure function of
``(seed, i, t)``, so neither block size nor worker count changes a batch,
and walk ``i`` is replayed by simulating the block ``[i]``.  Each step
compares ``k`` with integer row thresholds, which is exact, and drops
absorbed walks from the block, up to the inversion's read horizon
``t_cap = 3R + 4``.  Every first inner-layer contact within it is counted;
a walk with no outer-layer contact by then lands in the overflow bucket,
which therefore estimates ``P(tau_out > 3R + 4)``.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .chain_model import FLOAT, KNOWN, TransitionKernel, require_valid
from .errors import InsufficientData, InvalidParameter, ZeroDenominator
from .forward_solver import INNER, OUTER, HittingDistribution
from .tomography import RecoveryReport, recover_all
from .tree_model import AugmentedTree

_MASK = (1 << 64) - 1
_GOLD = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

CHUNK = 1 << 16


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, in place on the uint64 array ``z``."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z


def _walk_base_vec(seed: int, walks: np.ndarray) -> np.ndarray:
    key = _mix(np.array([seed & _MASK], dtype=np.uint64))
    return _mix(key + (walks + np.uint64(1)) * np.uint64(_GOLD))


def _draw_vec(bases: np.ndarray, step: int) -> np.ndarray:
    """53-bit integers ``k``: the walks' uniforms at ``step`` are ``k * 2**-53``."""
    k = _mix(bases + np.uint64(((step + 1) * _GOLD) & _MASK))
    k >>= np.uint64(11)
    return k


def _thresholds(cum: np.ndarray) -> np.ndarray:
    """``ceil(cum * 2**53)``, so ``threshold <= k`` exactly when ``cum <= k * 2**-53``."""
    return np.ceil(cum * 2.0**53).astype(np.uint64)


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


def _walk_tables(
    aug: AugmentedTree, kernel: TransitionKernel
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Neighbor and float cumulative-row tables plus inner/outer layer masks.

    Row ``u`` lists the sorted neighbors of ``u``, padded with the last one;
    cumulative probabilities are padded with 2.0.  Absorbing outer vertices
    get no row.
    """
    nv = aug.full.vertex_count
    rows = {
        u: row for u, row in kernel.entries.items()
        if row and u not in aug.outer_layer
    }
    maxdeg = max(map(len, rows.values()), default=1)
    nbr_tab = np.zeros((nv, maxdeg), dtype=np.int64)
    cum_tab = np.full((nv, maxdeg), 2.0)
    for u, row in rows.items():
        nbrs = sorted(row)
        d = len(nbrs)
        nbr_tab[u, :d] = nbrs
        nbr_tab[u, d:] = nbrs[-1]
        cum_tab[u, :d] = list(itertools.accumulate(float(row[v]) for v in nbrs))
    is_inner, is_outer = np.zeros((2, nv), dtype=bool)
    is_inner[list(aug.inner_layer)] = True
    is_outer[list(aug.outer_layer)] = True
    return nbr_tab, cum_tab, is_inner, is_outer


def _simulate_block(
    walk_ids: np.ndarray,
    seed: int,
    t_cap: int,
    nbr_tab: np.ndarray,
    cum_tab: np.ndarray,
    is_inner: np.ndarray,
    is_outer: np.ndarray,
    root: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """First inner and outer contact ``(tau, place)`` of each walk, -1 for none.

    Live walks stay compacted, with block positions ``pos`` and ``fresh``
    (no inner contact yet).  Cumulative rows increase strictly, so counting
    the thresholds at most ``k`` in all but the last column picks column
    ``min(#{cum <= u}, last)``.
    """
    thr = _thresholds(cum_tab[:, :-1].T)
    pos = np.arange(walk_ids.size)
    tau_in, place_in, tau_out, place_out = np.full((4, pos.size), -1, dtype=np.int64)
    bases = _walk_base_vec(seed, walk_ids.astype(np.uint64))
    state = np.full_like(pos, root)
    fresh = np.ones(pos.size, dtype=bool)
    for t in range(1, t_cap + 1):
        k = _draw_vec(bases, t - 1)
        cell = state * nbr_tab.shape[1]
        for col in thr:
            cell += col.take(state) <= k
        state = nbr_tab.take(cell)
        hit = np.flatnonzero(fresh & is_inner.take(state))
        tau_in[pos.take(hit)] = t
        place_in[pos.take(hit)] = state.take(hit)
        fresh[hit] = False
        hit = is_outer.take(state)
        if hit.any():
            tau_out[pos[hit]] = t
            place_out[pos[hit]] = state[hit]
            keep = np.flatnonzero(~hit)
            bases, state, pos, fresh = (a.take(keep) for a in (bases, state, pos, fresh))
    return tau_in, place_in, tau_out, place_out


def collect_batch(
    aug: AugmentedTree,
    kernel: TransitionKernel,
    n: int,
    seed: int,
    workers: int = 1,
) -> SampleBatch:
    """Simulate ``n`` probe walks up to the read horizon and tally contacts.

    Each walk runs for at most ``t_cap = 3R + 4`` steps, the last time the
    inversion reads.  Every first inner contact at or before ``t_cap`` is
    counted, absorbed or not; outer contacts come from the absorbed walks,
    and the rest (no outer contact by ``t_cap``) form the overflow bucket.
    The result is bit-identical for a fixed ``(seed, n)`` regardless of
    ``workers`` or internal chunking.  A kernel that fails validation raises
    :class:`InvalidKernel`, as in the forward solver.
    """
    if n < 1:
        raise InvalidParameter(f"sample count must be >= 1, got {n}")
    if workers < 1:
        raise InvalidParameter(f"workers must be >= 1, got {workers}")
    require_valid(aug, kernel)
    t_cap = 3 * aug.hull_radius + 4

    tables = _walk_tables(aug, kernel)
    nv = aug.full.vertex_count
    cells = (t_cap + 1) * nv

    def run(block: tuple[int, int]) -> tuple[np.ndarray, ...]:
        tau_in, place_in, tau_out, place_out = _simulate_block(
            np.arange(*block), seed, t_cap, *tables, aug.full.root
        )
        return tuple(
            np.bincount(tau[tau >= 0] * nv + place[tau >= 0], minlength=cells)
            for tau, place in ((tau_in, place_in), (tau_out, place_out))
        )

    blocks = [(a, min(a + CHUNK, n)) for a in range(0, n, CHUNK)]
    tally_in = np.zeros(cells, dtype=np.int64)
    tally_out = np.zeros(cells, dtype=np.int64)
    with ThreadPoolExecutor(max_workers=min(workers, len(blocks))) as pool:
        for part_in, part_out in pool.map(run, blocks):
            tally_in += part_in
            tally_out += part_out

    batch = SampleBatch(n=n, seed=seed, t_cap=t_cap)
    for tally, counts in ((tally_in, batch.counts_in), (tally_out, batch.counts_out)):
        for k in np.flatnonzero(tally):
            counts[divmod(int(k), nv)] = int(tally[k])
    batch.overflow = n - int(tally_out.sum())
    return batch


def empirical_joint(batch: SampleBatch) -> tuple[HittingDistribution, HittingDistribution]:
    """Empirical inner and outer hitting laws up to ``t_cap``, ``count / n`` per cell."""
    dists = []
    for layer, counts in ((INNER, batch.counts_in), (OUTER, batch.counts_out)):
        mass = {(t, v): c / batch.n for (t, v), c in counts.items()}
        dists.append(HittingDistribution(layer, batch.t_cap, mass))
    return dists[0], dists[1]


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
    known = TransitionKernel(
        {u: {v: float(p) for v, p in row.items()} for u, row in known.entries.items()},
        dict(known.provenance),
        FLOAT,
    )
    try:
        return recover_all(aug, known, p_in, p_out, reference=reference, clamp=True)
    except ZeroDenominator as exc:
        raise InsufficientData(str(exc)) from exc


def consistency_curve(
    aug: AugmentedTree,
    kernel: TransitionKernel,
    n_grid: list[int],
    seeds: list[int],
    workers: int = 1,
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
            batch = collect_batch(aug, kernel, n, seed, workers=workers)
            report = estimate_kernel(aug, known, batch, reference=kernel)
            rows.append((n, seed, float(report.max_error)))
    return rows
