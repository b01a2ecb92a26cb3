"""Exact first-hitting distributions.

The chain starts at the root and is killed on the outer layer.  For either
boundary layer, the joint law of (first hitting time, hitting place) is
computed by forward dynamic programming: a sub-probability vector is pushed
over the non-target vertices and the mass stepping onto the target layer is
harvested at each time.  All sums involve nonnegative terms only, so the
float path has no cancellation.  The vector lives in the accumulation
representation of :class:`~treetomo.chain_model.AccRows`: ``np.longdouble``
in float mode, and in rational mode integer numerators over ``D**t`` at time
``t``, with ``D`` the lcm of the kernel's row denominators, so every value is
exact and each harvested cell becomes a ``Fraction`` once, at the end.  A law
is a plain value: reading a cell records nothing, and the inversion keeps its
own record of the times it reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .chain_model import AccRows, Number, TransitionKernel, require_valid
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


def _layer_set(aug: AugmentedTree, layer: str) -> frozenset[int]:
    if layer == INNER:
        return aug.inner_layer
    if layer == OUTER:
        return aug.outer_layer
    raise InvalidQuery(f"unknown layer {layer!r}")


def first_hitting_joint(
    aug: AugmentedTree,
    kernel: TransitionKernel,
    layer: str,
    t_max: int,
) -> HittingDistribution:
    """Joint hitting law for ``layer``, all times ``t <= t_max``.

    Parameters
    ----------
    aug : AugmentedTree
        Tree with marked boundary layers.
    kernel : TransitionKernel
        Full chain on ``aug.full``; validated before use.
    layer : str
        ``"inner"`` or ``"outer"``.
    t_max : int
        Largest time index to compute.

    Raises
    ------
    InvalidKernel
        If the kernel fails validation.
    """
    if t_max < 0:
        raise InvalidQuery(f"t_max must be >= 0, got {t_max}")
    require_valid(aug, kernel)
    target = _layer_set(aug, layer)
    dist = HittingDistribution(layer, t_max)
    rows = AccRows(kernel, kernel.entries)
    mass = dist.mass
    cur: dict[int, Number] = {aug.full.root: 1}
    for t in range(1, t_max + 1):
        nxt: dict[int, Number] = {}
        for v, p in cur.items():
            for w, q in rows[v].items():
                m = p * q
                if w in target:
                    key = (t, w)
                    mass[key] = mass.get(key, 0) + m
                else:
                    nxt[w] = nxt.get(w, 0) + m
        cur = nxt
    for key, n in mass.items():
        mass[key] = rows.value(n, key[0])
    return dist

