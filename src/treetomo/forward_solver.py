"""Exact first-hitting distributions.

The chain starts at the root and is killed on the outer layer.  For either
boundary layer, the joint law of (first hitting time, hitting place) is
computed by forward dynamic programming: each step is one
:meth:`~treetomo.chain_model.AccRows.push` over the kernel's edge table, the
sweep the inversion shares, and harvests and zeroes the mass on the target
layer.  All sums involve nonnegative terms only, so the float path has no
cancellation.  The vector is an ``np.longdouble`` array in float mode, and
in rational mode an object array of integer numerators over ``D**t`` at
time ``t``, with ``D`` the lcm of the kernel's row denominators, so both
modes run the same code, every value is exact, and each harvested cell
becomes a ``Fraction`` once.  :func:`hitting_laws` gives both laws from one
table, checked as it is built.  A law is a plain value: reading a cell records
nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chain_model import Number, TransitionKernel, checked_rows
from .errors import InvalidQuery
from .tree_model import AugmentedTree

INNER = "inner"
OUTER = "outer"


@dataclass
class HittingDistribution:
    """Sparse joint law of (first hitting time, hitting place) for one layer.

    ``mass[(t, v)]`` is the probability that the walk first touches the layer
    at time ``t``, doing so at vertex ``v``.  Cells absent from ``mass`` are
    zero.
    """

    layer: str
    t_max: int
    mass: dict[tuple[int, int], Number] = field(default_factory=dict)

    def prob(self, t: int, v: int) -> Number:
        """Cell ``(t, v)``; a time past ``t_max`` raises :class:`InvalidQuery`."""
        if t > self.t_max:
            raise InvalidQuery(
                f"time {t} beyond computed horizon {self.t_max} for {self.layer} layer"
            )
        return self.mass.get((t, v), 0)


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
    laws = tuple(HittingDistribution(layer, t_max) for layer in layers)
    for dist in laws:
        target = np.array(sorted(sets[dist.layer]))
        x = rows.zeros()
        x[aug.full.root] = 1
        for t in range(1, t_max + 1):
            y = rows.push(x)
            hit = target[np.flatnonzero(y[target])]
            dist.mass.update(((t, v), rows.value(n, t)) for v, n in zip(hit.tolist(), y[hit]))
            y[target] = 0
            x = y
    return laws
