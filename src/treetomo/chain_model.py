"""Transition kernels for nearest-neighbor chains on augmented trees.

A kernel assigns every non-absorbing vertex a strictly positive probability
row over its neighbors.  Outer-layer vertices carry no row: the walk stops
there.

A :class:`TransitionKernel` is one edge table: the row vertices, each with a
label (``unknown``: drawn as a measurement target, ``known``: given,
``recovered``: solved by the tomography step), and for each row its slots,
one neighbor and one entry each, rows contiguous, every vertex id an
``intp``.  It is drawn (:func:`random_kernel`), parsed, checked, inverted
and written as that table; the ``entries`` mapping is a read-only view of it.

Two arithmetic modes are supported end to end: ``float`` (doubles) and
``rational`` (exact :class:`fractions.Fraction` entries).  Recurrences that
multiply row entries along walks run on :class:`AccRows`, one edge table
laid out from a kernel's table, which the forward DP and the inversion
sweep and which owns the accumulation representation: in float
mode, scale 1 and ``np.longdouble`` entries; in rational mode, a common
denominator ``D`` of the rows and the integer numerators ``p * D``, so a
mass built from ``s`` entries is an integer ``N`` standing for
``N / D**s``.  The table is also where a kernel
is checked, by array operations on its slots (:func:`checked_rows`).
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from types import MappingProxyType

import numpy as np

from .errors import InvalidKernel, InvalidParameter, MissingRow
from .tree_model import AugmentedTree, RootedTree, ranges

KNOWN = "known"
UNKNOWN = "unknown"
RECOVERED = "recovered"

FLOAT = "float"
RATIONAL = "rational"

ROW_SUM_TOL = 1e-12

Number = float | Fraction


def runs(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The value and the start of each run of equal entries of ``ids``."""
    new = np.empty(len(ids), bool)
    new[:1] = True
    np.not_equal(ids[1:], ids[:-1], out=new[1:])
    starts = new.nonzero()[0]
    return ids[starts], starts


@dataclass(eq=False)
class TransitionKernel:
    """Per-vertex probability rows, as one edge table with a label per row.

    Row ``i`` of the table is the row of vertex ``vertices[i]``, labelled
    ``labels[i]`` (an object array: ``known``, ``unknown``, ``recovered`` or
    ``None``), and holds the next ``sizes[i]`` slots of ``neighbors`` and
    ``values``, rows contiguous and each row's slots in the order it was
    given: slot ``j`` carries the one-step probability ``values[j]`` of
    moving to ``neighbors[j]``.  Values are float64 in float mode and objects
    (``Fraction``) in rational mode; vertex ids are ``intp``.  Absorbing
    vertices have no row, or an empty one.  The arrays are made read-only: a
    kernel is never edited, so its view ``entries`` is built at most once.
    """

    vertices: np.ndarray
    sizes: np.ndarray
    neighbors: np.ndarray
    values: np.ndarray
    labels: np.ndarray
    mode: str = FLOAT
    _entries: Mapping | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        for array in (self.vertices, self.sizes, self.neighbors, self.values, self.labels):
            array.flags.writeable = False

    @property
    def starts(self) -> np.ndarray:
        """The first slot of each row."""
        return self.sizes.cumsum() - self.sizes

    @property
    def entries(self) -> Mapping[int, Mapping[int, Number]]:
        """Read-only view ``u -> {v: t(u, v)}`` of the table, in its order."""
        if self._entries is None:
            ends = self.sizes.cumsum().tolist()
            nbrs, vals = self.neighbors.tolist(), self.values.tolist()
            self._entries = MappingProxyType({
                u: MappingProxyType(dict(zip(nbrs[a:b], vals[a:b])))
                for u, a, b in zip(self.vertices.tolist(), [0, *ends], ends)})
        return self._entries

    def index(self, n: int) -> np.ndarray:
        """The row of each vertex ``0 .. n`` in the table, -1 where it has none."""
        at = np.empty(n + 1, np.intp)
        at.fill(-1)
        on = (self.vertices >= 0) & (self.vertices < n)
        at[self.vertices[on]] = on.nonzero()[0]
        return at

    def row(self, u: int) -> Mapping[int, Number]:
        try:
            return self.entries[u]
        except KeyError:
            raise MissingRow(f"no transition row for vertex {u}") from None

    def prob(self, u: int, v: int) -> Number:
        return self.row(u)[v]

    def restricted_to(self, flags: set[str]) -> TransitionKernel:
        """Kernel containing only the rows whose label is in ``flags``."""
        keep = np.fromiter((label in flags for label in self.labels.tolist()),
                           bool, len(self.labels))
        slots = keep.repeat(self.sizes)
        return TransitionKernel(self.vertices[keep], self.sizes[keep], self.neighbors[slots],
                                self.values[slots], self.labels[keep], self.mode)


class AccRows:
    """Kernel rows as one edge table over the directed tree edges, the one
    the forward DP, the sampler and the inversion sweep.

    The table holds the row of every vertex of ``vertices`` (default: all)
    that has children, laid out from the kernel's table, one slot per
    neighbor on the tree in the row's slot order, so vectors, indexed by
    vertex id, are read and written at neighbors off ``vertices`` too.  With
    ``blank``, a row the kernel lacks starts as zeros in neighbor order,
    parent first, for :meth:`write`; without, it raises
    :class:`MissingRow`; no row is checked (see
    :func:`checked_rows`).  ``sizes`` counts the entries of each row.
    Sorted by ``dst`` (``by_dst``), the slots form one run per head
    (``heads``, ``head_starts``), so walk mass moves one step, ``y[v] =
    sum_u x[u] t(u, v)``, by one ``np.add.reduceat`` over them; the
    inversion also sums rows, each a run of ``src`` (``tails``, ``tail_starts``).

    Float mode: scale 1 and ``np.longdouble`` entries.  The inversion
    subtracts nearly equal hitting masses, and the extra mantissa bits keep
    the round trip comfortably inside its double-precision tolerance.
    Rational mode: scale ``D``, a common multiple of the row denominators,
    and integer entries ``p * D`` in an object array, so a mass swept
    through ``s`` entries from a start of 1 is an integer ``N`` for
    ``N / D**s``: the multiply-adds need no gcd, and :meth:`value` builds one
    ``Fraction`` per result.  When :meth:`write` widens ``D`` it rescales the
    table and returns the factor, by which numerators built before must be
    rescaled.  Every entry of a rational kernel must be rational.
    """

    def __init__(self, full: RootedTree, kernel: TransitionKernel,
                 vertices: tuple[int, ...] | None = None, blank: bool = False):
        self.exact = kernel.mode == RATIONAL
        n, starts, self.norm = full.vertex_count, full.child_starts, full.norm
        rows = np.arange(n) if vertices is None else np.array(vertices, np.intp)
        rows = rows[starts[rows + 1] > starts[rows]]
        at = kernel.index(n)[rows]
        sizes, nbrs, values = kernel.sizes, kernel.neighbors, kernel.values
        if blank and (laid := at < 0).any():
            # rows laid out blank, in neighbor order, after the kernel's
            lay, extra = full.adjacency(rows[laid])
            at[laid] = np.arange(len(sizes), len(sizes) + len(lay))
            sizes = np.concatenate((sizes, lay))
            nbrs = np.concatenate((nbrs, extra))
            values = np.concatenate((values, np.zeros(len(extra), values.dtype)))
        if (at < 0).any():
            raise MissingRow(f"row for vertex {rows[at.argmin()]} required but absent")
        self.sizes = sizes[at]
        pick = ranges((sizes.cumsum() - sizes)[at], self.sizes)
        dst, q = nbrs[pick], values[pick]
        self.scale = 1
        if self.exact:
            self._cover(q := q.tolist())
            q = np.fromiter(q, object, len(q))
        else:
            q = np.asarray(q, float).astype(np.longdouble)  # exact: floats widen
        keep = (dst >= 0) & (dst < n)  # slots off the tree are dropped
        self.src, self.dst, self.q = rows.repeat(self.sizes)[keep], dst[keep], q[keep]
        self.by_dst = np.argsort(self.dst, kind="stable")
        self.heads, self.head_starts = runs(self.dst[self.by_dst])
        self.tails, self.tail_starts = runs(self.src)

    def _cover(self, values: list) -> int:
        """Widen the scale over the denominators of ``values`` and put them
        over the new scale in place; returns the factor by which it grew."""
        dens = {getattr(p, "denominator", 0) for p in values}
        if 0 in dens:
            raise InvalidKernel("a rational kernel holds a float entry")
        scale = math.lcm(self.scale, *dens)
        grow, self.scale = scale // self.scale, scale
        values[:] = [p.numerator * (scale // p.denominator) for p in values]
        return grow

    def zeros(self) -> np.ndarray:
        """A vector over the tree's vertices in the table's dtype."""
        return np.zeros(len(self.norm), self.q.dtype)

    def shells(self, count: int, push: bool = False) -> tuple[np.ndarray, list, list]:
        """The one-shell sweeps onto shells ``0 .. count-1``, planned once:
        pulls onto the rows' vertices, or pushes onto the slots' heads.
        Returns the vertices swept, by shell then id; the cut of each shell
        among them; and per shell its slots, their far ends, the start of
        each vertex's segment among them, and its vertices."""
        key, far, order = ((self.dst, self.src, self.by_dst) if push else
                           (self.src, self.dst, np.arange(len(self.src))))
        slots = order[np.argsort(self.norm[key[order]], kind="stable")]
        ids, first = runs(key[slots])
        shells = np.arange(count + 1)
        at, cuts = self.norm[ids].searchsorted(shells), self.norm[key[slots]].searchsorted(shells)
        first -= cuts[self.norm[ids]]  # from the first slot of the vertex's shell
        at, cuts, far = at.tolist(), cuts.tolist(), far[slots]
        return ids, at, [(slots[c:d], far[c:d], first[a:b], ids[a:b])
                         for a, b, c, d in zip(at, at[1:], cuts, cuts[1:])]

    def write(self, slots: np.ndarray, values: list) -> int:
        """Fill table slots with row entries given as values, such as
        recovered ones; returns the factor by which the scale grew."""
        grow = self._cover(values := list(values)) if self.exact else 1
        if grow != 1:
            self.q *= grow
        self.q[slots] = values
        return grow

    def ratio(self, num: np.ndarray, den: np.ndarray) -> np.ndarray:
        """Elementwise ``num / den`` as values: one ``Fraction`` each in rational mode."""
        if self.exact:
            return np.fromiter(map(Fraction, num, den), object, len(num))
        return num / den

    def public(self, values: np.ndarray) -> list:
        """Values in the mode's public type: ``Fraction`` or float."""
        return values.tolist() if self.exact else values.astype(float).tolist()

    def probs(self) -> np.ndarray:
        """The table's entries in the mode's public type: ``Fraction`` objects or float64."""
        if self.exact:
            fracs = map(Fraction, self.q.tolist(), repeat(self.scale))
            return np.fromiter(fracs, object, len(self.q))
        return self.q.astype(float)

    def value(self, n, steps: int):
        """Value of mass ``n`` built from ``steps`` entries: a ``Fraction`` or float."""
        return Fraction(n, self.scale**steps) if self.exact else float(n)


@dataclass(frozen=True)
class KernelViolation:
    vertex: int
    kind: str
    detail: str = ""


def _check_rows(aug: AugmentedTree, kernel: TransitionKernel,
                partial: bool) -> tuple[list[KernelViolation], AccRows]:
    """The violations of :func:`validate_kernel`, absent rows allowed if
    ``partial``, and the table over ``aug.full`` (absent rows blank) they
    are read from.  A row has the tree's support if it has one entry per
    neighbor and each slot leads to one; float sums run left to right, as ``sum`` does."""
    full, n = aug.full, aug.full.vertex_count
    ids, at = kernel.vertices, kernel.index(n)[:n]
    out = [KernelViolation(u, "OffTree", "row of a vertex off the tree")
           for u in sorted(ids[(ids < 0) | (ids >= n)].tolist())]
    outer = aug.outer_layer
    filled = np.concatenate((kernel.sizes, [0]))[at[outer]] > 0
    out += [KernelViolation(v, "AbsorbingRow", "outer vertex has a row")
            for v in outer[filled].tolist()]
    absent = at < 0
    absent[outer] = False
    rows = AccRows(full, kernel, blank=True)
    src, dst, starts = rows.src, rows.dst, rows.tail_starts
    parent, kids = full.parent, full.child_starts[1:] - full.child_starts[:-1]
    size = np.zeros(n, np.intp)
    size[kids > 0] = rows.sizes
    near = np.bincount(src[(parent[dst] == src) | (parent[src] == dst)], minlength=n)
    fits = (size == kids + (parent >= 0)) & (near == size)  # one entry per neighbor
    low, off = np.zeros(n, bool), np.ones(n, bool)
    low[rows.tails] = np.logical_or.reduceat(rows.q <= 0, starts)
    if rows.exact:  # integer numerators over the scale
        off[rows.tails] = np.add.reduceat(rows.q, starts) != rows.scale
    else:
        off = ~(np.abs(np.bincount(src, rows.q.astype(float), n) - 1) <= ROW_SUM_TOL)
    bad = (kids > 0) & (~fits | low | off) & ~absent  # an absent row lies blank in the table
    first = kernel.starts
    for u in np.flatnonzero(bad if partial else bad | absent).tolist():
        if (i := at[u]) >= 0:
            cells = slice(first[i], first[i] + kernel.sizes[i])
        kind, detail = (
            ("MissingRow", "") if i < 0 else
            ("Support", f"{sorted(kernel.neighbors[cells].tolist())} != "
                        f"{sorted(full.adjacency(np.array([u]))[1].tolist())}") if not fits[u] else
            ("Nondegenerate", "nonpositive entry") if low[u] else
            ("RowSum", f"sum = {sum(kernel.values[cells].tolist())}"))
        out.append(KernelViolation(u, kind, detail))
    return out, rows


def validate_kernel(aug: AugmentedTree, kernel: TransitionKernel) -> list[KernelViolation]:
    """Check support, positivity, row sums, outer-layer absorption, and that
    every row belongs to a vertex of the tree.

    Returns an empty list iff the kernel is a valid nondegenerate chain on
    ``aug.full`` killed at the outer layer; else rows off the tree, outer
    rows, then each vertex's first violation in vertex order.  A rational
    kernel that holds a float entry raises :class:`InvalidKernel`.
    """
    return _check_rows(aug, kernel, False)[0]


def checked_rows(aug: AugmentedTree, kernel: TransitionKernel,
                 partial: bool = False) -> AccRows:
    """The edge table of ``kernel`` over ``aug.full``; the first violation of
    :func:`validate_kernel` raises :class:`InvalidKernel`.  If ``partial``, a
    row off the outer layer may be absent and lies in the table as zeros."""
    bad, rows = _check_rows(aug, kernel, partial)
    if bad:
        raise InvalidKernel(f"{bad[0].kind} at vertex {bad[0].vertex}: {bad[0].detail}")
    return rows


LAMBDA_ONLY = "lambda"
ALL_VERTICES = "all"
RATIONAL_GRID = 64


def random_kernel(
    aug: AugmentedTree,
    seed: int,
    floor: float = 0.05,
    scope: str = LAMBDA_ONLY,
    mode: str = FLOAT,
) -> TransitionKernel:
    """Reproducible random kernel with all entries at least ``floor``.

    ``scope`` selects which rows are randomized: ``"lambda"`` draws rows on
    base-tree vertices only (added vertices get the symmetric walk),
    ``"all"`` also randomizes the added non-outer rows.  Base-tree rows are
    labelled unknown, added rows known.  Rows are drawn uniformly on the
    floor-truncated simplex; in rational mode entries are multiples of
    ``1/RATIONAL_GRID``, or of a finer dyadic grid where the floor needs it,
    summing exactly to one.  The table has a row for every vertex off the
    outer layer, in vertex order, its slots in neighbor order.  The unit
    gammas of all randomized rows come from one ``standard_gamma`` call; the
    rows of each degree are normalized as one matrix, as numpy's Dirichlet
    sampler normalizes a row, by a running sum from the left, so every row
    equals ``rng.dirichlet(np.ones(d))`` bit for bit; in rational mode each
    degree's matrix is then rounded to its dyadic grid at once (:func:`_on_grid`).
    """
    if scope not in (LAMBDA_ONLY, ALL_VERTICES):
        raise InvalidParameter(f"unknown scope {scope!r}")
    if mode not in (FLOAT, RATIONAL):
        raise InvalidParameter(f"unknown mode {mode!r}")
    if not 0 < floor < 1:
        raise InvalidParameter(f"floor must lie in (0, 1), got {floor}")
    if seed < 0:
        raise InvalidParameter(f"seed must be >= 0, got {seed}")
    full, k = aug.full, aug.base.vertex_count
    rows = (full.norm < full.norm.max()).nonzero()[0]  # off the outer layer, base ids first
    sizes, nbrs = full.adjacency(rows)
    labels = np.array([UNKNOWN] * k + [KNOWN] * (len(rows) - k), object)
    if full.child_starts[full.root + 1] - full.child_starts[full.root] == 1:
        labels[full.root] = KNOWN  # a degree-1 root has no freedom
    drawn = sizes > 1
    drawn[k:] &= scope == ALL_VERTICES
    if (infeasible := np.flatnonzero(drawn & (floor * sizes >= 1))).size:
        i = infeasible[0]
        raise InvalidParameter(f"floor {floor} infeasible for degree-{sizes[i]} vertex {rows[i]}")
    d = sizes[drawn]
    gammas = np.random.default_rng(seed).standard_gamma(1.0, size=d.sum())
    first = d.cumsum() - d
    one, half = (Fraction(1), Fraction(1, 2)) if mode == RATIONAL else (1.0, 0.5)
    values = np.where(sizes == 1, one, half).repeat(sizes)
    slots = drawn.repeat(sizes).nonzero()[0]  # the drawn rows' slots
    for width in set(d.tolist()):  # the rows of one degree as one matrix
        cells = first[d == width, None] + np.arange(width)
        g = gammas[cells]
        # numpy's Dirichlet adds plainly, left to right, as cumsum does
        probs = floor + (1.0 - width * floor) * (g * (1.0 / g.cumsum(axis=1)[:, -1:]))
        values[slots[cells]] = _on_grid(probs, floor) if mode == RATIONAL else probs
    return TransitionKernel(rows, sizes, nbrs, values, labels, mode)


def _on_grid(probs: np.ndarray, floor: float) -> np.ndarray:
    """Drawn rows of one degree, rounded half to even to a dyadic grid that
    leaves room above the floor for every neighbor, as ``Fraction`` objects
    summing exactly to one: the rounding remainder goes to each row's first
    largest cell, or, where that cell drops below the floor, every other
    cell is put on the floor."""
    n, d = probs.shape
    den = RATIONAL_GRID
    while int(np.ceil(floor * den)) * d >= den:
        den *= 2
    lo = max(int(np.ceil(floor * den)), 1)
    counts = np.maximum(np.rint(probs * den).astype(np.int64), lo)
    top = np.arange(n), probs.argmax(axis=1)
    counts[top] += den - counts.sum(axis=1)
    low = counts.min(axis=1) < lo  # rebalance: all but the largest on the floor
    counts[low] = lo
    counts[top[0][low], top[1][low]] += den - lo * d
    grid, at = np.unique(counts, return_inverse=True)
    fracs = np.fromiter((Fraction(c, den) for c in grid.tolist()), object, len(grid))
    return fracs[at.reshape(n, d)]
