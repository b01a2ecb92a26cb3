"""Transition kernels for nearest-neighbor chains on augmented trees.

A kernel assigns every non-absorbing vertex a strictly positive probability
row over its neighbors.  Outer-layer vertices carry no row: the walk stops
there.  Rows are tagged with a provenance flag so the tomography step knows
which rows are measurement targets (``unknown``), which are given
(``known``), and which it has already solved (``recovered``).

Two arithmetic modes are supported end to end: ``float`` (doubles) and
``rational`` (exact :class:`fractions.Fraction` entries).  Recurrences that
multiply row entries along walks read them through :class:`AccRows`, which
owns the accumulation representation: in float mode, scale 1 and
``np.longdouble`` entries; in rational mode, a common denominator ``D`` of
the rows read and the integer numerators ``p * D``, so a mass built from
``s`` entries is an integer ``N`` standing for ``N / D**s``.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import InvalidKernel, InvalidParameter, MissingKnownRow, MissingRow
from .tree_model import AugmentedTree

KNOWN = "known"
UNKNOWN = "unknown"
RECOVERED = "recovered"

FLOAT = "float"
RATIONAL = "rational"

ROW_SUM_TOL = 1e-12

Number = float | Fraction


class AccRows(dict):
    """Kernel rows in the accumulation representation, converted on first read.

    Float mode: scale 1 and ``np.longdouble`` entries.  The inversion
    subtracts nearly equal hitting masses, and the extra mantissa bits keep
    the round trip comfortably inside its double-precision tolerance.

    Rational mode: scale ``D``, a common multiple of the denominators of the
    rows handed to :meth:`cover`, and integer entries ``p * D``.  A mass
    pushed through ``s`` entries from a start of 1 is then an integer ``N``
    for the exact value ``N / D**s``: the multiply-adds need no gcd, and
    :meth:`value` builds the one :class:`~fractions.Fraction` per result.
    :meth:`table` lays all rows out as one edge table for the forward DP, and
    :meth:`law` puts hitting-law cells on the same footing, as integers over
    one denominator per time, so the forward DP and the whole inversion run
    on integer numerators.  Every entry of a rational kernel must be rational.

    A reader covers every row it will touch before reading.  A change of
    scale rescales the converted rows; numerators a reader built before it
    must be rescaled by the factor :meth:`cover` returns.  Reading a row the
    kernel lacks raises :class:`MissingKnownRow`.
    """

    def __init__(self, kernel: "TransitionKernel", vertices: Iterable[int] = ()):
        super().__init__()
        self.kernel = kernel
        self.exact = kernel.mode == RATIONAL
        self.scale = 1
        self.cover(vertices)

    def cover(self, vertices: Iterable[int]) -> int:
        """Make the scale a multiple of the denominators of these rows.

        Returns the factor by which the scale grew.  Vertices without a row
        are skipped.  A no-op in float mode.
        """
        if not self.exact:
            return 1
        entries = self.kernel.entries
        dens = {getattr(p, "denominator", 0) for u in vertices
                for p in entries.get(u, {}).values()}
        if 0 in dens:
            raise InvalidKernel("a rational kernel holds a float entry")
        scale = math.lcm(self.scale, *dens)
        grow = scale // self.scale
        if grow != 1:
            self.scale = scale
            for row in self.values():
                for v in row:
                    row[v] *= grow
        return grow

    def __missing__(self, u: int) -> dict:
        try:
            row = self.kernel.entries[u]
        except KeyError:
            raise MissingKnownRow(f"row for vertex {u} required but absent") from None
        if self.exact:
            d = self.scale
            ratios = [(v, *p.as_integer_ratio()) for v, p in row.items()]
            if any(d % q for _, _, q in ratios):
                raise InvalidParameter(f"scale {d} does not cover the row of vertex {u}")
            row = {v: n * (d // q) for v, n, q in ratios}
        else:
            row = {v: np.longdouble(p) for v, p in row.items()}
        self[u] = row
        return row

    def hold(self, u: int, row: dict) -> None:
        """Take a row whose entries are values, such as a recovered one.

        Held as it is in float mode; in rational mode converted on first read.
        """
        if not self.exact:
            self[u] = row

    def table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Edge table ``(src, dst, q)`` of every kernel row, sorted by ``dst``.

        Covers every row first.  ``q[i]``, the entry ``src[i] -> dst[i]``, is
        an ``np.longdouble`` in float mode and an integer numerator (object
        dtype) in rational mode, so one array sweep serves both modes.
        """
        entries = self.kernel.entries
        self.cover(entries)
        src = [u for u, row in entries.items() for _ in row]
        dst = [v for row in entries.values() for v in row]
        q = [p for row in entries.values() for p in row.values()]
        if self.exact:
            q = np.array([p.numerator * (self.scale // p.denominator) for p in q], dtype=object)
        else:
            q = np.array(q, dtype=float).astype(np.longdouble)  # exact: floats widen
        src, dst = np.array(src, dtype=np.intp), np.array(dst, dtype=np.intp)
        order = np.argsort(dst, kind="stable")
        return src[order], dst[order], q[order]

    def value(self, n, steps: int):
        """Value of accumulated mass ``n`` built from ``steps`` entries."""
        return Fraction(n, self.scale**steps) if self.exact else n

    def law(self, mass: dict) -> tuple[dict, dict[int, int]]:
        """Hitting-law cells as numerators, with one denominator per time.

        Rational mode: cell ``(t, v)`` becomes the integer ``N`` for
        ``N / dens[t]``, where ``dens[t]`` is the lcm of the denominators of
        the cells at time ``t`` (law files may hold any rationals, not only
        multiples of ``D**-t``).  Float mode: the cells as they are, and no
        denominators.
        """
        if not self.exact:
            return mass, {}
        cells = [(key, *p.as_integer_ratio()) for key, p in mass.items()]
        dens: dict[int, int] = {}
        for (t, _), _, d in cells:
            cur = dens.setdefault(t, 1)
            if cur % d:
                dens[t] = math.lcm(cur, d)
        return {key: n * (dens[key[0]] // d) for key, n, d in cells}, dens


def settle(value, mode: str) -> Number:
    """Cast an accumulation-type value back to the mode's public type."""
    return value if mode == RATIONAL else float(value)


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


def validate_kernel(aug: AugmentedTree, kernel: TransitionKernel) -> list[KernelViolation]:
    """Check support, positivity, row sums, and outer-layer absorption.

    Returns an empty list iff the kernel is a valid nondegenerate chain on
    ``aug.full`` killed at the outer layer.
    """
    out: list[KernelViolation] = []
    full = aug.full
    for v in sorted(aug.outer_layer):
        if v in kernel.entries and kernel.entries[v]:
            out.append(KernelViolation(v, "AbsorbingRow", "outer vertex has a row"))
    for u in range(full.vertex_count):
        if u in aug.outer_layer:
            continue
        if u not in kernel.entries:
            out.append(KernelViolation(u, "MissingRow"))
            continue
        row = kernel.entries[u]
        nbrs = set(full.neighbors(u))
        if set(row) != nbrs:
            out.append(KernelViolation(u, "Support", f"{sorted(row)} != {sorted(nbrs)}"))
            continue
        if any(p <= 0 for p in row.values()):
            out.append(KernelViolation(u, "Nondegenerate", "nonpositive entry"))
            continue
        s = sum(row.values())
        if kernel.mode == RATIONAL:
            ok = s == 1
        else:
            ok = abs(s - 1) <= ROW_SUM_TOL
        if not ok:
            out.append(KernelViolation(u, "RowSum", f"sum = {s}"))
    return out


def require_valid(aug: AugmentedTree, kernel: TransitionKernel) -> None:
    """Raise :class:`InvalidKernel` naming the first violation of :func:`validate_kernel`."""
    bad = validate_kernel(aug, kernel)
    if bad:
        first = bad[0]
        raise InvalidKernel(f"{first.kind} at vertex {first.vertex}: {first.detail}")


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
