"""Transition kernels for nearest-neighbor chains on augmented trees.

A kernel assigns every non-absorbing vertex a strictly positive probability
row over its neighbors.  Outer-layer vertices carry no row: the walk stops
there.  Rows are tagged with a provenance flag so the tomography step knows
which rows are measurement targets (``unknown``), which are given
(``known``), and which it has already solved (``recovered``).

Two arithmetic modes are supported end to end: ``float`` (doubles) and
``rational`` (exact :class:`fractions.Fraction` entries).  Recurrences that
multiply row entries along walks run on :class:`AccRows`, one edge table
with one sweep kernel for the forward DP and the inversion, which owns the
accumulation representation: in float mode, scale 1 and ``np.longdouble``
entries; in rational mode, a common denominator ``D`` of the rows and the
integer numerators ``p * D``, so a mass built from ``s`` entries is an
integer ``N`` standing for ``N / D**s``.  The table is also where a kernel
is checked, by array operations on its slots (:func:`checked_rows`).
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain

import numpy as np

from .errors import InvalidKernel, InvalidParameter, MissingKnownRow, MissingRow
from .tree_model import AugmentedTree, RootedTree

KNOWN = "known"
UNKNOWN = "unknown"
RECOVERED = "recovered"

FLOAT = "float"
RATIONAL = "rational"

ROW_SUM_TOL = 1e-12

Number = float | Fraction


def runs(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The value and the start of each run of equal entries of ``ids`` (all >= 0)."""
    starts = np.flatnonzero(np.diff(ids, prepend=-1))
    return ids[starts], starts


class AccRows:
    """Kernel rows as one edge table over the directed tree edges, and the
    one sweep kernel of the forward DP and the inversion.

    The table holds the row of every vertex of ``vertices`` (default: all)
    that has children, one slot per neighbor in ``vertices``; vectors are
    indexed by position in ``vertices`` (``local`` maps ids to positions).
    A row in ``blank`` starts as zeros in neighbor order, parent first, for
    :meth:`write`; any other row the kernel lacks raises
    :class:`MissingKnownRow`; no row is checked (see :func:`checked_rows`).
    ``sizes`` counts the entries of each row.  :meth:`push` moves walk mass one step,
    ``y[v] = sum_u x[u] t(u, v)``, and :meth:`pull` steps back,
    ``y[u] = sum_v t(u, v) x[v]``: each is one ``np.add.reduceat`` over the
    table sorted by ``dst`` or by ``src``.

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
                 vertices: Iterable[int] | None = None, blank: Iterable[int] = ()):
        self.exact = kernel.mode == RATIONAL
        n = full.vertex_count
        ids = list(range(n) if vertices is None else vertices)
        self.local = np.full(n + 1, -1, np.intp)  # -1: not in vertices; [n]: off the tree
        self.local[np.array(ids, dtype=np.intp)] = np.arange(len(ids))
        entries, blank = kernel.entries, set(blank)
        rows = [u for u in ids if full.children[u]]
        dicts = [dict.fromkeys(full.neighbors(u), 0) if u in blank else entries.get(u)
                 for u in rows]
        if None in dicts:
            raise MissingKnownRow(f"row for vertex {rows[dicts.index(None)]} required but absent")
        keys = np.array(list(chain.from_iterable(dicts)))  # int64, or object past its range
        dst = self.local[keys.clip(-1, n).astype(np.intp)]
        self.sizes = np.fromiter(map(len, dicts), np.intp, len(dicts))
        src = np.repeat(self.local[rows], self.sizes)
        q = list(chain.from_iterable(row.values() for row in dicts))
        self.scale = 1
        if self.exact:
            self._cover(q)
            q = np.array(q, dtype=object)
        else:
            q = np.array(q, dtype=float).astype(np.longdouble)  # exact: floats widen
        keep = dst >= 0  # slots to neighbors outside vertices are dropped
        self.src, self.dst, self.q = src[keep], dst[keep], q[keep]
        self.norm = np.fromiter(map(full.norm.__getitem__, ids), np.intp, len(ids))
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
        """A vector over ``vertices`` in the table's dtype."""
        return np.zeros(len(self.norm), self.q.dtype)

    def push(self, x: np.ndarray) -> np.ndarray:
        y = np.zeros_like(x)
        y[self.heads] = np.add.reduceat((x[self.src] * self.q)[self.by_dst], self.head_starts)
        return y

    def pull(self, x: np.ndarray) -> np.ndarray:
        y = np.zeros_like(x)
        y[self.tails] = np.add.reduceat(self.q * x[self.dst], self.tail_starts)
        return y

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
            return np.array([Fraction(n, d) for n, d in zip(num, den)], dtype=object)
        return num / den

    def public(self, values: np.ndarray) -> list:
        """Values in the mode's public type: ``Fraction`` or float."""
        return values.tolist() if self.exact else values.astype(float).tolist()

    def value(self, n, steps: int):
        """Value of accumulated mass ``n`` built from ``steps`` entries."""
        return Fraction(n, self.scale**steps) if self.exact else n


@dataclass
class TransitionKernel:
    """Per-vertex probability rows plus provenance flags.

    ``entries[u][v]`` is the one-step probability of moving from ``u`` to its
    neighbor ``v``.  Absorbing vertices are simply absent from ``entries``.
    """

    entries: dict[int, dict[int, Number]]
    provenance: dict[int, str] = field(default_factory=dict)
    mode: str = FLOAT

    def row(self, u: int) -> dict[int, Number]:
        try:
            return self.entries[u]
        except KeyError:
            raise MissingRow(f"no transition row for vertex {u}") from None

    def prob(self, u: int, v: int) -> Number:
        return self.row(u)[v]

    def copy(self) -> "TransitionKernel":
        return TransitionKernel(
            {u: dict(r) for u, r in self.entries.items()},
            dict(self.provenance),
            self.mode,
        )

    def restricted_to(self, flags: set[str]) -> "TransitionKernel":
        """Kernel containing only rows whose provenance is in ``flags``."""
        keep = {u for u, f in self.provenance.items() if f in flags}
        return TransitionKernel(
            {u: dict(r) for u, r in self.entries.items() if u in keep},
            {u: f for u, f in self.provenance.items() if u in keep},
            self.mode,
        )


@dataclass(frozen=True)
class KernelViolation:
    vertex: int
    kind: str
    detail: str = ""


def _check_rows(aug: AugmentedTree, kernel: TransitionKernel,
                blank: set[int]) -> tuple[list[KernelViolation], AccRows]:
    """The violations of :func:`validate_kernel`, rows of ``blank`` allowed
    absent, and the table over ``aug.full`` (absent rows blank) they are read
    from.  A row has the tree's support if it has one entry per neighbor and
    each slot leads to one; float sums run left to right, as ``sum`` does."""
    full, entries, n = aug.full, kernel.entries, aug.full.vertex_count
    out = [KernelViolation(u, "OffTree", "row of a vertex off the tree")
           for u in sorted(set(entries).difference(range(n)))]
    out += [KernelViolation(v, "AbsorbingRow", "outer vertex has a row")
            for v in sorted(aug.outer_layer.intersection(entries)) if entries[v]]
    absent = set(range(n)).difference(entries, aug.outer_layer)
    rows = AccRows(full, kernel, blank=absent)  # over every vertex: positions are ids
    src, dst, starts = rows.src, rows.dst, rows.tail_starts
    parent = np.fromiter(map({**full.parent, full.root: -1}.__getitem__, range(n)), np.intp, n)
    kids = np.bincount(parent[parent >= 0], minlength=n)
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
    bad = (kids > 0) & (~fits | low | off)
    bad[list(absent)] = False  # a blank in the table: missing unless in blank
    for u in sorted(chain(np.flatnonzero(bad).tolist(), absent - blank)):
        row = entries.get(u)
        kind, detail = (
            ("MissingRow", "") if row is None else
            ("Support", f"{sorted(row)} != {sorted(full.neighbors(u))}") if not fits[u] else
            ("Nondegenerate", "nonpositive entry") if low[u] else
            ("RowSum", f"sum = {sum(row.values())}"))
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
    return _check_rows(aug, kernel, set())[0]


def checked_rows(aug: AugmentedTree, kernel: TransitionKernel,
                 blank: Iterable[int] = ()) -> AccRows:
    """The edge table of ``kernel`` over ``aug.full``; the first violation of
    :func:`validate_kernel` raises :class:`InvalidKernel`.  A row in ``blank``
    may be absent, lies in the table as zeros, and is checked if given."""
    bad, rows = _check_rows(aug, kernel, blank := set(blank))
    if bad:
        raise InvalidKernel(f"{bad[0].kind} at vertex {bad[0].vertex}: {bad[0].detail}")
    if not blank.isdisjoint(kernel.entries):  # given rows to solve again: laid out blank
        rows = AccRows(aug.full, kernel, blank=blank)
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
    flagged unknown, added rows known.  Rows are drawn uniformly on the
    floor-truncated simplex; in rational mode entries are multiples of
    ``1/RATIONAL_GRID``, or of a finer dyadic grid where the floor needs it,
    summing exactly to one.  The unit gammas of all randomized rows come from
    one ``standard_gamma`` call, each row normalized as numpy's Dirichlet
    sampler does, so every row equals ``rng.dirichlet(np.ones(d))`` bit for bit.
    """
    if scope not in (LAMBDA_ONLY, ALL_VERTICES):
        raise InvalidParameter(f"unknown scope {scope!r}")
    if not 0 < floor < 1:
        raise InvalidParameter(f"floor must lie in (0, 1), got {floor}")
    if seed < 0:
        raise InvalidParameter(f"seed must be >= 0, got {seed}")
    full = aug.full
    one, half = (Fraction(1), Fraction(1, 2)) if mode == RATIONAL else (1.0, 0.5)
    entries: dict[int, dict[int, Number]] = {}
    prov: dict[int, str] = {}
    drawn = []  # (vertex, neighbors) of the rows to draw, in row order
    for u in range(full.vertex_count):
        if u in aug.outer_layer:
            continue
        nbrs = full.neighbors(u)
        lam = aug.is_original(u)
        prov[u] = UNKNOWN if lam else KNOWN
        d = len(nbrs)
        if d == 1:
            entries[u] = {nbrs[0]: one}
            if u == full.root:
                prov[u] = KNOWN
        elif lam or scope == ALL_VERTICES:
            if floor * d >= 1:
                raise InvalidParameter(f"floor {floor} infeasible for degree-{d} vertex {u}")
            entries[u] = {}  # filled below; this keeps the row order
            drawn.append((u, nbrs))
        else:
            entries[u] = {v: half for v in nbrs}
    rng = np.random.default_rng(seed)
    gammas = iter(rng.standard_gamma(1.0, size=sum(len(n) for _, n in drawn)).tolist())
    for u, nbrs in drawn:
        d = len(nbrs)
        raw = [next(gammas) for _ in nbrs]
        acc = 0.0
        for x in raw:
            acc = acc + x  # not sum(): numpy's Dirichlet adds plainly, left to right
        inv = 1.0 / acc
        probs = [floor + (1.0 - d * floor) * (x * inv) for x in raw]
        if mode == RATIONAL:
            # grid must leave room above the floor for every neighbor
            den = RATIONAL_GRID
            while int(np.ceil(floor * den)) * d >= den:
                den *= 2
            lo = max(int(np.ceil(floor * den)), 1)
            counts = [max(lo, int(round(p * den))) for p in probs]
            counts[int(np.argmax(probs))] += den - sum(counts)
            if min(counts) < lo:
                # rounding pushed the largest cell below the floor: rebalance
                counts = [lo] * d
                counts[int(np.argmax(probs))] += den - lo * d
            entries[u] = {v: Fraction(c, den) for v, c in zip(nbrs, counts)}
        else:
            entries[u] = {v: float(p) for v, p in zip(nbrs, probs)}
    return TransitionKernel(entries, prov, mode)
