"""Line-oriented text formats for every artifact the CLI reads or writes.

All formats are diffable plain text.  Floats are written with 17 significant
digits so a write/read trip is lossless; rationals are written ``num/den``
and round-trip bit-exactly, at any number of digits.  A rational kernel or
law file holds only ``num/den`` and integer tokens, so no value in it is
rounded.
"""

from __future__ import annotations

import math
import re
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
    n = root = None
    edges: list[tuple[int, int]] = []
    origin: dict[int, str] = {}
    layers: dict[str, set[int]] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] != "layer" and len(parts) > 3:
            raise FormatError(f"trailing tokens in tree line {line!r}")
        try:
            if parts[0] == "tree":
                n, root = int(parts[1]), int(parts[2])
            elif parts[0] == "edge":
                edges.append((int(parts[1]), int(parts[2])))
            elif parts[0] == "origin":
                if parts[2] not in (ORIGINAL, ADDED):
                    raise FormatError(f"bad origin flag {parts[2]!r}")
                origin[int(parts[1])] = parts[2]
            elif parts[0] == "layer":
                layers[parts[1]] = {int(x) for x in parts[2:]}
            else:
                raise FormatError(f"unknown record {parts[0]!r}")
        except (IndexError, ValueError) as exc:
            raise FormatError(f"bad tree line {line!r}") from exc
    if n is None or root is None:
        raise FormatError("missing tree header")
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
    mode = FLOAT
    entries: dict[int, dict[int, Number]] = {}
    saw_header = False
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "mode":
            if len(parts) != 2 or parts[1] not in (FLOAT, RATIONAL):
                raise FormatError(f"bad mode line {line!r}")
            mode = parts[1]
            saw_header = True
        elif parts[0] == "row":
            if not saw_header:
                raise FormatError("kernel row before the mode header")
            try:
                u = int(parts[1])
                row: dict[int, Number] = {}
                for cell in parts[2:]:
                    v, p = cell.split(":", 1)
                    row[int(v)] = _parse_number(p, mode)
            except (IndexError, ValueError) as exc:
                raise FormatError(f"bad kernel line {line!r}") from exc
            if u in entries or len(row) != len(parts) - 2:
                raise FormatError(f"repeated row or cell in {line!r}")
            entries[u] = row
        else:
            raise FormatError(f"unknown record {parts[0]!r}")
    if not saw_header:
        raise FormatError("missing mode header")
    prov = {u: KNOWN for u in entries}
    return TransitionKernel(entries, prov, mode)


def dump_distribution(dist: HittingDistribution, mode: str = FLOAT) -> str:
    lines = [
        f"{dist.layer}\t{t}\t{v}\t{_fmt(p, mode)}"
        for (t, v), p in sorted(dist.mass.items())
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def parse_distribution(text: str, mode: str = FLOAT) -> HittingDistribution:
    layer = None
    mass: dict[tuple[int, int], Number] = {}
    t_max = -1
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 4 or parts[0] not in (INNER, OUTER):
            raise FormatError(f"bad distribution line {line!r}")
        if layer is None:
            layer = parts[0]
        elif parts[0] != layer:
            raise FormatError("distribution file mixes layers")
        try:
            t, v = int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise FormatError(f"bad distribution line {line!r}") from exc
        p = _parse_number(parts[3], mode)
        if t < 0 or p < 0 or (t, v) in mass:
            raise FormatError(f"negative or repeated cell {line!r}")
        mass[(t, v)] = p
        t_max = max(t_max, t)
    if layer is None:
        raise FormatError("distribution file is empty")
    return HittingDistribution(layer, t_max, mass)


def dump_batch(batch: SampleBatch) -> str:
    lines = [f"batch {batch.n} {batch.seed} {batch.t_cap}"]
    for tag, counts in (("in", batch.counts_in), ("out", batch.counts_out)):
        lines.extend(
            f"{tag} {t} {v} {c}" for (t, v), c in sorted(counts.items())
        )
    lines.append(f"overflow {batch.overflow}")
    return "\n".join(lines) + "\n"


def parse_batch(text: str) -> SampleBatch:
    batch: SampleBatch | None = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) > (2 if parts[0] == "overflow" else 4):
            raise FormatError(f"trailing tokens in batch line {line!r}")
        try:
            if parts[0] == "batch":
                if batch is not None:
                    raise FormatError("repeated batch header")
                batch = SampleBatch(int(parts[1]), int(parts[2]), int(parts[3]))
                if batch.n < 1 or batch.t_cap < 1:
                    raise FormatError(f"bad batch header {line!r}")
            elif parts[0] in ("in", "out"):
                if batch is None:
                    raise FormatError("counts before batch header")
                counts = batch.counts_in if parts[0] == "in" else batch.counts_out
                t, v, c = int(parts[1]), int(parts[2]), int(parts[3])
                if not 1 <= t <= batch.t_cap:
                    raise FormatError(
                        f"time {t} outside 1..{batch.t_cap} in {line!r}"
                    )
                if c < 0 or (t, v) in counts:
                    raise FormatError(f"negative or repeated count {line!r}")
                counts[(t, v)] = c
            elif parts[0] == "overflow":
                if batch is None:
                    raise FormatError("overflow before batch header")
                batch.overflow = int(parts[1])
                if batch.overflow < 0:
                    raise FormatError(f"negative overflow {line!r}")
            else:
                raise FormatError(f"unknown record {parts[0]!r}")
        except (IndexError, ValueError) as exc:
            raise FormatError(f"bad batch line {line!r}") from exc
    if batch is None:
        raise FormatError("missing batch header")
    total = sum(batch.counts_out.values()) + batch.overflow
    if total != batch.n:
        raise FormatError(f"outer counts plus overflow {total} != n {batch.n}")
    total_in = sum(batch.counts_in.values())
    if total_in > batch.n:
        raise FormatError(f"inner counts {total_in} exceed n {batch.n}")
    return batch


def dump_report(report: RecoveryReport) -> str:
    out = [dump_kernel(report.kernel).rstrip("\n")]
    for code, vertex in report.flags:
        out.append(f"flag {code} {vertex}")
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
