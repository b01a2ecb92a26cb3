"""Line-oriented text formats for every artifact the CLI reads or writes.

All formats are diffable plain text.  Floats are written with 17 significant
digits so a write/read trip is lossless; rationals are written ``num/den``
and round-trip bit-exactly, at any number of digits.  A rational kernel or
law file holds only ``num/den`` and integer tokens, so no value in it is
rounded.  Every parser reads its lines through one reader, which takes each
format's header record (``tree``, ``mode`` or ``batch``; law files have
none) first and once, and each record with its token count.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterator
from decimal import Decimal
from fractions import Fraction

from .chain_model import FLOAT, KNOWN, RATIONAL, Number, TransitionKernel
from .errors import FormatError, InvalidParameter, NotATree, UnknownVertex
from .estimation import SampleBatch
from .forward_solver import INNER, OUTER, HittingDistribution
from .tomography import RecoveryReport
from .tree_model import AugmentedTree, RootedTree, build_tree

ORIGINAL = "original"
ADDED = "added"
_INTEGER = re.compile(r"[+-]?[0-9]+")


def _int(token: str) -> int:
    """``int(token)``, also past the interpreter's str-to-int digit limit."""
    try:
        return int(token)
    except ValueError:
        if not _INTEGER.fullmatch(token):
            raise
        return int(Decimal(token))


def _fmt(x: Number, mode: str) -> str:
    if mode == RATIONAL:
        f = Fraction(x)
        try:
            return f"{f.numerator}/{f.denominator}"
        except ValueError:  # past the interpreter's int-to-str digit limit
            return f"{Decimal(f.numerator)}/{Decimal(f.denominator)}"
    return f"{float(x):.17g}"


def _parse_number(token: str, mode: str) -> Number:
    """A ``num/den`` token, an integer, or in float mode any finite float literal."""
    try:
        if "/" in token:
            num, den = token.split("/")
            value: Number = Fraction(_int(num), _int(den))
        elif mode == RATIONAL:
            value = Fraction(_int(token))
        else:
            value = float(token)
        if mode == FLOAT and not math.isfinite(value := float(value)):
            raise ValueError(token)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise FormatError(f"bad {mode} probability token {token!r}") from exc
    return value


# The records of each format: name -> (fewest, most) tokens, the name included.
_TREE = {"tree": (3, 3), "edge": (3, 3), "origin": (3, 3), "layer": (3, math.inf)}
_KERNEL = {"mode": (2, 2), "row": (2, math.inf)}
_LAW = {INNER: (4, 4), OUTER: (4, 4)}
_BATCH = {"batch": (4, 4), "in": (4, 4), "out": (4, 4), "overflow": (2, 2)}


def _records(
    text: str, shapes: dict[str, tuple[int, float]], header: str | None = None
) -> Iterator[list[str]]:
    """The nonblank lines of ``text``, split, each a record of ``shapes`` with a
    token count in its range; a ``header`` record comes first and only there.
    Any other line raises :class:`FormatError`."""
    records = filter(None, map(str.split, text.splitlines()))
    body = {name: shape for name, shape in shapes.items() if name != header}
    if header is not None:
        first = next(records, [""])
        if first[0] != header:
            raise FormatError(f"file does not open with its {header} header")
        if len(first) != shapes[header][0]:
            raise _misfit(first, shapes[header][1], header)
        yield first
    for parts in records:
        fewest, most = body.get(parts[0], (0, 0))
        if not fewest <= len(parts) <= most:
            raise _misfit(parts, most, header)
        yield parts


def _misfit(parts: list[str], most: float, header: str | None) -> FormatError:
    if not most:
        what = "repeated header" if parts[0] == header else "unknown record"
    else:
        what = "trailing tokens" if len(parts) > most else "missing tokens"
    return FormatError(f"{what} in line {' '.join(parts)!r}")


def dump_tree(tree: RootedTree | AugmentedTree) -> str:
    """Serialize a plain or augmented tree."""
    aug = tree if isinstance(tree, AugmentedTree) else None
    t = aug.full if aug else tree
    lines = [f"tree {t.vertex_count} {t.root}"]
    lines.extend(f"edge {u} {v}" for u, v in t.edges())
    if aug:
        lines.extend(
            f"origin {v} {ORIGINAL if aug.is_original(v) else ADDED}"
            for v in range(t.vertex_count)
        )
        lines.append("layer inner " + " ".join(str(v) for v in sorted(aug.inner_layer)))
        lines.append("layer outer " + " ".join(str(v) for v in sorted(aug.outer_layer)))
    return "\n".join(lines) + "\n"


def parse_tree(text: str) -> RootedTree | AugmentedTree:
    """Parse :func:`dump_tree` output; returns an AugmentedTree when origin
    lines are present."""
    edges: list[tuple[int, int]] = []
    origin: dict[int, str] = {}
    layers: dict[str, set[int]] = {}
    records = _records(text, _TREE, "tree")
    try:
        n, root = map(int, next(records)[1:])
        for parts in records:
            if parts[0] == "edge":
                edges.append((int(parts[1]), int(parts[2])))
            elif parts[0] == "origin":
                v = int(parts[1])
                if parts[2] not in (ORIGINAL, ADDED) or v in origin:
                    raise FormatError(f"bad or repeated origin flag in {' '.join(parts)!r}")
                origin[v] = parts[2]
            else:
                name, layer = parts[1], {int(x) for x in parts[2:]}
                if name not in (INNER, OUTER) or name in layers or len(layer) < len(parts) - 2:
                    raise FormatError(f"unknown, repeated or doubled layer {' '.join(parts)!r}")
                layers[name] = layer
    except ValueError as exc:
        raise FormatError(f"bad tree line: {exc}") from exc
    try:
        full = build_tree(edges, root)
        if full.vertex_count != n:
            raise FormatError(f"header says {n} vertices, edges give {full.vertex_count}")
        if not origin:
            return full
        if set(origin) != set(range(n)):
            raise FormatError("origin flags do not cover all vertices")
        k = sum(o == ORIGINAL for o in origin.values())
        if any(origin[v] != ORIGINAL for v in range(k)) or root >= k:
            raise FormatError("base vertex ids must form a prefix 0..k-1 holding the root")
        parent = {v: full.parent[v] for v in range(k)}
        kids = {v: tuple(c for c in full.children[v] if c < k) for v in range(k)}
        base = RootedTree(k, root, parent, kids, {v: full.norm[v] for v in range(k)})
        aug = AugmentedTree(base, full)
    except (NotATree, UnknownVertex, InvalidParameter) as exc:
        raise FormatError(f"not a valid tree: {exc}") from exc
    for name, layer in (("inner", aug.inner_layer), ("outer", aug.outer_layer)):
        if name in layers and layers[name] != layer:
            raise FormatError(f"{name} layer does not match shell structure")
    return aug


def dump_kernel(kernel: TransitionKernel) -> str:
    lines = [f"mode {kernel.mode}"]
    for u in sorted(kernel.entries):
        row = kernel.entries[u]
        cells = " ".join(f"{v}:{_fmt(p, kernel.mode)}" for v, p in sorted(row.items()))
        lines.append(f"row {u} {cells}")
    return "\n".join(lines) + "\n"


def parse_kernel(text: str) -> TransitionKernel:
    """Parse :func:`dump_kernel` output; every row is flagged known."""
    records = _records(text, _KERNEL, "mode")
    mode = next(records)[1]
    if mode not in (FLOAT, RATIONAL):
        raise FormatError(f"bad mode {mode!r}")
    entries: dict[int, dict[int, Number]] = {}
    try:
        for parts in records:
            u = int(parts[1])
            row: dict[int, Number] = {}
            for cell in parts[2:]:
                v, p = cell.split(":", 1)
                row[int(v)] = _parse_number(p, mode)
            if u in entries or len(row) != len(parts) - 2:
                raise FormatError(f"repeated row or cell in {' '.join(parts)!r}")
            entries[u] = row
    except ValueError as exc:
        raise FormatError(f"bad kernel line {' '.join(parts)!r}: {exc}") from exc
    return TransitionKernel(entries, dict.fromkeys(entries, KNOWN), mode)


def dump_distribution(dist: HittingDistribution, mode: str = FLOAT) -> str:
    lines = [
        f"{dist.layer}\t{t}\t{v}\t{_fmt(p, mode)}"
        for (t, v), p in sorted(dist.mass.items())
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def parse_distribution(text: str, mode: str = FLOAT) -> HittingDistribution:
    layer = None
    mass: dict[tuple[int, int], Number] = {}
    try:
        for parts in _records(text, _LAW):
            if parts[0] != (layer := layer or parts[0]):
                raise FormatError("distribution file mixes layers")
            t, v, p = int(parts[1]), int(parts[2]), _parse_number(parts[3], mode)
            if t < 0 or p < 0 or (t, v) in mass:
                raise FormatError(f"negative or repeated cell {' '.join(parts)!r}")
            mass[(t, v)] = p
    except ValueError as exc:
        raise FormatError(f"bad distribution line: {exc}") from exc
    if layer is None:
        raise FormatError("distribution file is empty")
    return HittingDistribution(layer, max(t for t, _ in mass), mass)


def dump_batch(batch: SampleBatch) -> str:
    lines = [f"batch {batch.n} {batch.seed} {batch.t_cap}"]
    for tag, counts in (("in", batch.counts_in), ("out", batch.counts_out)):
        lines.extend(
            f"{tag} {t} {v} {c}" for (t, v), c in sorted(counts.items())
        )
    lines.append(f"overflow {batch.overflow}")
    return "\n".join(lines) + "\n"


def parse_batch(text: str) -> SampleBatch:
    records = _records(text, _BATCH, "batch")
    overflows = 0
    try:
        batch = SampleBatch(*map(int, next(records)[1:]))
        if batch.n < 1 or batch.t_cap < 1:
            raise FormatError(f"batch header with n {batch.n} or t_cap {batch.t_cap} below 1")
        for parts in records:
            if parts[0] == "overflow":
                batch.overflow, overflows = int(parts[1]), overflows + 1
                if batch.overflow < 0 or overflows > 1:
                    raise FormatError(f"negative or repeated overflow {' '.join(parts)!r}")
                continue
            counts = batch.counts_in if parts[0] == "in" else batch.counts_out
            t, v, c = int(parts[1]), int(parts[2]), int(parts[3])
            if not 1 <= t <= batch.t_cap:
                raise FormatError(f"time {t} outside 1..{batch.t_cap} in {' '.join(parts)!r}")
            if c < 0 or (t, v) in counts:
                raise FormatError(f"negative or repeated count {' '.join(parts)!r}")
            counts[(t, v)] = c
    except ValueError as exc:
        raise FormatError(f"bad batch line: {exc}") from exc
    total = sum(batch.counts_out.values()) + batch.overflow
    if total != batch.n:
        raise FormatError(f"outer counts plus overflow {total} != n {batch.n}")
    total_in = sum(batch.counts_in.values())
    if total_in > batch.n:
        raise FormatError(f"inner counts {total_in} exceed n {batch.n}")
    return batch


def dump_report(report: RecoveryReport) -> str:
    out = [dump_kernel(report.kernel).rstrip("\n")]
    out.extend(f"flag {code} {vertex}" for code, vertex in report.flags)
    if report.times_accessed:
        out.append(f"max_time_read {max(report.times_accessed.values())}")
    if report.max_error is not None:
        out.append(f"max_error {_fmt(report.max_error, report.kernel.mode)}")
    return "\n".join(out) + "\n"


def read_text(path) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
