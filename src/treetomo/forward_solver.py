"""Exact first-hitting distributions.

The chain starts at the root and is killed on the outer layer.  For either
boundary layer, the joint law of (first hitting time, hitting place) is
computed by forward dynamic programming over the kernel's edge table
(:class:`~treetomo.chain_model.AccRows`), read once in the order of its
heads ``dst``, where every vertex heads a run: each step is one gather, one
multiply and one ``np.add.reduceat``, which is the next vector, and then
harvests and zeroes the mass on the target layer.  All sums involve
nonnegative terms only, so the float path has no cancellation.  The vector is an ``np.longdouble`` array in float mode, and
in rational mode an object array of integer numerators over ``D**t`` at
time ``t``, with ``D`` the lcm of the kernel's row denominators, so both
modes run the same code and every value is exact.  Each step's harvest is
stored as it is, as one row of the law's grid, so no cell becomes a
``Fraction`` until it is read.  :func:`hitting_laws` gives both laws from
one table, checked as it is built.  A law is a plain value: reading a cell
records nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

import numpy as np

from .chain_model import Number, TransitionKernel, checked_rows
from .errors import InvalidQuery
from .tree_model import AugmentedTree

INNER = "inner"
OUTER = "outer"


@dataclass(eq=False)
class HittingDistribution:
    """Joint law of (first hitting time, hitting place) for one layer, known
    at every time ``t <= t_max``, as a dense grid.

    Row ``i`` of ``cells`` holds time ``times[i]`` (ascending) and column
    ``j`` vertex ``vertices[j]``: the probability that the walk first touches
    the layer at that time, doing so at that vertex.  In rational mode the
    cells are integer numerators and row ``i`` stands over ``dens[i]``; in
    float mode ``dens`` is ``None``.  A time or vertex without a row or
    column carries no mass.
    """

    layer: str
    t_max: int
    vertices: tuple[int, ...]
    times: tuple[int, ...]
    cells: np.ndarray
    dens: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        self._row = dict(zip(self.times, range(len(self.times))))
        self._col = dict(zip(self.vertices, range(len(self.vertices))))

    @classmethod
    def from_mass(cls, layer: str, t_max: int,
                  mass: dict[tuple[int, int], float]) -> HittingDistribution:
        """The float law with cell ``(t, v)`` equal to ``mass[(t, v)]``, over
        the times and vertices of ``mass`` ascending."""
        times = sorted({t for t, _ in mass})
        vertices = sorted({v for _, v in mass})
        row = dict(zip(times, range(len(times))))
        col = dict(zip(vertices, range(len(vertices))))
        cells = np.zeros((len(times), len(vertices)))
        cells[[row[t] for t, _ in mass], [col[v] for _, v in mass]] = list(mass.values())
        return cls(layer, t_max, tuple(vertices), tuple(times), cells)

    @property
    def mass(self) -> MappingProxyType:
        """The nonzero cells, ``(t, v) -> p`` as ``float`` or ``Fraction``, by time and column."""
        i, j = np.nonzero(self.cells)
        vals = self.cells[i, j].astype(float if self.dens is None else object).tolist()
        i, j = i.tolist(), j.tolist()
        if self.dens is not None:
            vals = [Fraction(n, self.dens[a]) for a, n in zip(i, vals)]
        return MappingProxyType({(self.times[a], self.vertices[b]): p
                                 for a, b, p in zip(i, j, vals)})

    def prob(self, t: int, v: int) -> Number:
        """Cell ``(t, v)``, a ``float`` in float mode and a ``Fraction`` in
        rational mode; a time past ``t_max`` raises :class:`InvalidQuery`."""
        if t > self.t_max:
            raise InvalidQuery(
                f"time {t} beyond computed horizon {self.t_max} for {self.layer} layer"
            )
        i, j = self._row.get(t), self._col.get(v)
        if i is None or j is None:
            return 0.0 if self.dens is None else Fraction(0)
        p = self.cells[i, j]
        return float(p) if self.dens is None else Fraction(p, self.dens[i])


def first_hitting_joint(
    aug: AugmentedTree,
    kernel: TransitionKernel,
    layer: str,
    t_max: int,
) -> HittingDistribution:
    """Joint hitting law for ``layer`` (``"inner"`` or ``"outer"``) at all
    times ``t <= t_max``, of the full chain ``kernel`` on ``aug.full``; a
    kernel that fails validation raises :class:`InvalidKernel`."""
    return hitting_laws(aug, kernel, t_max, (layer,))[0]


def hitting_laws(aug: AugmentedTree, kernel: TransitionKernel, t_max: int,
                 layers: tuple[str, ...] = (INNER, OUTER)) -> tuple[HittingDistribution, ...]:
    """The laws of :func:`first_hitting_joint` for ``layers``, in that order,
    from one checked edge table (:func:`~treetomo.chain_model.checked_rows`)."""
    if t_max < 0:
        raise InvalidQuery(f"t_max must be >= 0, got {t_max}")
    rows = checked_rows(aug, kernel)
    sets = {INNER: aug.inner_layer, OUTER: aug.outer_layer}
    if bad := [layer for layer in layers if layer not in sets]:
        raise InvalidQuery(f"unknown layer {bad[0]!r}")
    times = tuple(range(1, t_max + 1))
    dens = tuple(rows.scale**t for t in times) if rows.exact else None
    # every vertex heads a run by dst: its parent's slot, or the root's children's
    src, q = rows.src[rows.by_dst], rows.q[rows.by_dst]
    laws = []
    for layer in layers:
        target = sets[layer]
        cells = np.zeros((t_max, len(target)), rows.q.dtype)
        x = rows.zeros()
        x[aug.full.root] = 1
        for row in cells:
            x = np.add.reduceat(x[src] * q, rows.head_starts)
            row[:] = x[target]
            x[target] = 0
        laws.append(HittingDistribution(layer, t_max, tuple(target.tolist()), times, cells, dens))
    return tuple(laws)
