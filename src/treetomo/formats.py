"""Line-oriented text formats for every artifact the CLI reads or writes.

All formats are diffable plain text.  Floats are written with 17 significant
digits so a write/read trip is lossless; rationals are written ``num/den``
and round-trip bit-exactly, at any number of digits.  A rational kernel or
law file holds only ``num/den`` and integer tokens, so no value in it is
rounded.  The tree and batch parsers, and the kernel parser to name a fault,
read their lines through one reader, which takes each format's header record
(``tree``, ``mode`` or ``batch``) first and once, and each record with its
token count.  A tree file states its edges and, when augmented, ``origin v
original`` for each base id ``v < k``; every higher id is added and the
layers follow, so neither is written.  A tree file in the layout :func:`dump_tree` writes has
its ids converted in C by one ``np.fromstring``, and :func:`build_tree`
orients its parent-first edges by pointer doubling; other layouts, read
record by record, and other edge orders, like faults, take the
breadth-first pass that names each fault.  A law file is the law's grid: a
header naming the layer and its vertices, one column each, then one line
per time that holds mass.
A kernel file is the kernel's table, one ``row u v:p ...`` line per row, read
with one tokenization and written with one ``%`` format; ``gen`` writes the
known rows' lines of the kernel file it formatted (:func:`known_lines`).
"""

from __future__ import annotations

import math
import operator
import re
import string
from collections.abc import Iterator
from contextlib import suppress
from decimal import Decimal
from fractions import Fraction
from itertools import chain, compress, repeat

import numpy as np

from .chain_model import FLOAT, KNOWN, RATIONAL, Number, TransitionKernel, vertex_ids
from .errors import FormatError, InvalidParameter, NotATree, UnknownVertex
from .estimation import SampleBatch
from .forward_solver import INNER, OUTER, HittingDistribution
from .tomography import RecoveryReport
from .tree_model import AugmentedTree, RootedTree, build_tree

ORIGINAL = "original"
_INTEGER = re.compile(r"[+-]?[0-9]+")
_WORD_BYTES = bytes(range(256)).translate(None, b" :\n")  # all but a kernel file's separators
_ID_MAX = np.iinfo(np.intp).max  # where np.fromstring clamps


def _int(token: str) -> int:
    """``int(token)``, also past the interpreter's str-to-int digit limit."""
    try:
        return int(token)
    except ValueError:
        if not _INTEGER.fullmatch(token):
            raise
        return int(Decimal(token))


def _exact(token: str) -> int:
    try:
        return _int(token)
    except ValueError:
        raise FormatError(f"bad rational probability token {token!r}") from None


def _digits(n: int) -> str:
    """``str(n)``, also past the interpreter's int-to-str digit limit."""
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))


def _fmt(x: Number, mode: str) -> str:
    if mode == RATIONAL:
        f = Fraction(x)
        return f"{_digits(f.numerator)}/{_digits(f.denominator)}"
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
_TREE = {"tree": (3, 3), "edge": (3, 3), "origin": (3, 3)}
_KERNEL = {"mode": (2, 2), "row": (2, math.inf)}
_BATCH = {"batch": (4, 4), "in": (4, 4), "out": (4, 4), "overflow": (2, 2)}


def _records(text: str, shapes: dict[str, tuple[int, float]], header: str) -> Iterator[list[str]]:
    """The nonblank lines of ``text``, split, each a record of ``shapes`` with a
    token count in its range; the ``header`` record comes first and only there.
    Any other line raises :class:`FormatError`."""
    records = filter(None, map(str.split, text.splitlines()))
    body = {name: shape for name, shape in shapes.items() if name != header}
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


def _misfit(parts: list[str], most: float, header: str) -> FormatError:
    if not most:
        what = "repeated header" if parts[0] == header else "unknown record"
    else:
        what = "trailing tokens" if len(parts) > most else "missing tokens"
    return FormatError(f"{what} in line {' '.join(parts)!r}")


def dump_tree(tree: RootedTree | AugmentedTree) -> str:
    """Serialize a plain or augmented tree with one ``%`` format, edges by parent, then child."""
    t, k = (tree.full, tree.base.vertex_count) if isinstance(tree, AugmentedTree) else (tree, 0)
    edges = np.stack((np.arange(t.vertex_count).repeat(np.diff(t.child_starts)), t.child_ids), 1)
    text = "tree %d %d\n" + "edge %d %d\n" * len(edges) + f"origin %d {ORIGINAL}\n" * k
    return text % (t.vertex_count, t.root, *edges.ravel().tolist(), *range(k))


_ID = "[0-9]{1,18}"  # an id within int64
_LETTERS = string.ascii_lowercase.encode()  # the words of a tree file
_TREE_DUMP = re.compile(f"tree {_ID} {_ID}\n(?:edge {_ID} {_ID}\n)*(?:origin {_ID} {ORIGINAL}\n)*")


def _tree_tokens(text: str) -> tuple[int, int, np.ndarray | list[tuple[int, int]], range | set[int]]:
    """The vertex count, root, edges and origin ids of a tree file: for a file
    laid out as :func:`dump_tree` writes it with origins ``0..k-1``, every id
    converted in C by one ``np.fromstring``, the edges as an ``(m, 2)``
    array; else record by record, naming the first bad record."""
    if _TREE_DUMP.fullmatch(text):
        # only ids of at most 18 digits are left once the words go: all within int64
        ids = np.fromstring(text.encode().translate(None, _LETTERS), np.intp, sep=" ")
        cut = 2 + 2 * text.count("\ne")  # past the header and the edge ids
        origin = ids[cut:]
        if (origin == np.arange(len(origin))).all():
            return int(ids[0]), int(ids[1]), ids[2:cut].reshape(-1, 2), range(len(origin))
    edges, origin = [], set()
    records = _records(text, _TREE, "tree")
    n, root = map(int, next(records)[1:])
    for parts in records:
        if parts[0] == "edge":
            edges.append((int(parts[1]), int(parts[2])))
        else:
            v = int(parts[1])
            if parts[2] != ORIGINAL or v in origin:
                raise FormatError(f"bad or repeated origin flag in {' '.join(parts)!r}")
            origin.add(v)
    return n, root, edges, origin


def parse_tree(text: str) -> RootedTree | AugmentedTree:
    """Parse :func:`dump_tree` output; returns an AugmentedTree, whose base is
    the ids ``0..k-1`` flagged original, when origin lines are present."""
    try:
        n, root, edges, origin = _tree_tokens(text)
    except ValueError as exc:
        raise FormatError(f"bad tree line: {exc}") from exc
    try:
        full = build_tree(edges, root)
        if full.vertex_count != n:
            raise FormatError(f"header says {n} vertices, edges give {full.vertex_count}")
        if not origin:
            return full
        k = len(origin)
        if set(origin) != set(range(k)) or not root < k <= n:
            raise FormatError("base vertex ids must form a prefix 0..k-1 holding the root")
        return AugmentedTree(RootedTree(root, full.parent[:k], full.norm[:k]), full)
    except (NotATree, UnknownVertex, InvalidParameter) as exc:
        raise FormatError(f"not a valid tree: {exc}") from exc


def dump_kernel(kernel: TransitionKernel) -> str:
    """The kernel as text: its ``mode``, then ``row u v:p ...`` for each row,
    rows by vertex and cells by neighbor, written with one ``%`` format built
    from the row lengths, a rational cell from its numerator and denominator."""
    rows = kernel.vertices.argsort(kind="stable")
    cells = np.lexsort((kernel.neighbors, kernel.vertices.repeat(kernel.sizes)))
    values, nbrs = kernel.values[cells].tolist(), kernel.neighbors[cells].tolist()
    if kernel.mode == RATIONAL:
        ratio = operator.attrgetter("numerator", "denominator")
        ratios = map(_digits, chain.from_iterable(map(ratio, values)))
        cell, args = "%d:%s/%s", zip(nbrs, ratios, ratios)
    else:
        cell, args = "%d:%.17g", zip(nbrs, values)
    shape: dict[int, str] = {}
    lines = [f"row {u}{shape.get(s) or shape.setdefault(s, (' ' + cell) * s)}\n"
             for u, s in zip(kernel.vertices[rows].tolist(), kernel.sizes[rows].tolist())]
    return f"mode {kernel.mode}\n" + "".join(lines) % tuple(chain.from_iterable(args))


def known_lines(kernel: TransitionKernel, text: str) -> str:
    """The lines of ``text``, :func:`dump_kernel` of ``kernel``, of its known
    rows: ``dump_kernel(kernel.restricted_to({KNOWN}))``, no cell formatted again."""
    lines = text.splitlines(keepends=True)
    known = [label == KNOWN for label in kernel.labels[kernel.vertices.argsort()].tolist()]
    return lines[0] + "".join(compress(lines[1:], known))


def parse_kernel(text: str) -> TransitionKernel:
    """Parse :func:`dump_kernel` output; every row is labelled known.

    The file is converted in bulk (:func:`_kernel_table`), again with one space
    between tokens if it has other whitespace, blank lines or runs of spaces;
    :func:`_kernel_fault` names the first fault in file order."""
    if text.isascii() and not any(map(text.__contains__, "\t\r\v\f\x1c\x1d\x1e\x1f")):
        with suppress(ValueError, FormatError):
            return _kernel_table(text)
    spaced = "\n".join(map(" ".join, filter(None, map(str.split, text.splitlines()))))
    try:
        return _kernel_table(spaced)
    except (ValueError, FormatError):
        _kernel_fault(text)
        raise  # not reached: the bulk pass refuses only what the scan names


def _kernel_table(text: str) -> TransitionKernel:
    """The kernel of a file with one token between any two separators, which
    read ``" "`` for the ``mode m`` line and ``" " + " :" * c`` for a ``row u
    v:p ...`` line of ``c`` cells; else raise ValueError or FormatError."""
    tokens = text.replace(":", " ").split()
    separators = text.encode().translate(None, _WORD_BYTES) + b"\n" * (not text.endswith("\n"))
    # drop the first space of each line: the header keeps nothing, a row " :" per cell
    lines = (b"\n" + separators).replace(b"\n ", b"\n")
    n = separators.count(b"\n") - 1  # rows
    if (len(tokens) != len(separators) or tokens[:2] not in (["mode", FLOAT], ["mode", RATIONAL])
            or not lines.startswith(b"\n\n") or len(lines) != len(separators) - n
            or lines.replace(b" :", b"") != b"\n" * (n + 2)):
        raise ValueError("not the layout of a mode line and row u v:p ... lines")
    # "row" and v at even places, u and p at odd: a mark per even place, "\n" a head, ":" a cell
    marks = lines[1:-1].translate(None, b" ")
    sizes = np.fromiter(map(len, marks.split(b"\n")[1:]), np.intp, n)
    heads, cells = marks.replace(b":", b"\0"), marks.replace(b"\n", b"\0")
    even, odd = tokens[2::2], tokens[3::2]
    if list(compress(even, heads)).count("row") != n:
        raise ValueError("a line that does not open with row")
    us, nbrs = list(compress(odd, heads)), list(compress(even, cells))
    flat = " ".join(us + nbrs)  # the ids in C when all are digits and below the intp maximum
    if flat.isascii() and flat.replace(" ", "").isdigit() and (
            ids := np.fromstring(flat, np.intp, sep=" ")).max() < _ID_MAX:
        us, nbrs = ids[:n], ids[n:]
    else:
        us, nbrs = (vertex_ids(list(map(int, part))) for part in (us, nbrs))
    values = _kernel_values(list(compress(odd, cells)), tokens[1])
    owner = np.arange(n).repeat(sizes)
    nb = nbrs[np.lexsort((nbrs, owner))]  # each row's neighbors ascending
    if len(set(us.tolist())) < n or ((nb[1:] == nb[:-1]) & (owner[1:] == owner[:-1])).any():
        raise ValueError("a repeated row or cell")
    return TransitionKernel(us, sizes, nbrs, values, np.array([KNOWN] * n, object), tokens[1])


def _kernel_values(tokens: list[str], mode: str) -> np.ndarray:
    """The values of a kernel file's cells: float64 by ``float`` when every
    token takes it and is finite, or in a rational file ``Fraction(int, int)``
    of each ``num/den`` token; else one ``_parse_number`` per token."""
    try:
        if mode == FLOAT:
            values = np.fromiter(map(float, tokens), float, len(tokens))
            if np.isfinite(values).all():
                return values
        else:
            num, _, den = zip(*map(str.partition, tokens, repeat("/")))
            return np.fromiter(map(Fraction, map(int, num), map(int, den)), object, len(tokens))
    except (ValueError, ZeroDivisionError):
        pass
    return np.fromiter((_parse_number(p, mode) for p in tokens),
                       float if mode == FLOAT else object, len(tokens))


def _kernel_fault(text: str) -> None:
    """Raise :class:`FormatError` for the first fault of the kernel file
    ``text``, read record by record and cell by cell; return if there is none."""
    records = _records(text, _KERNEL, "mode")
    mode = next(records)[1]
    if mode not in (FLOAT, RATIONAL):
        raise FormatError(f"bad mode {mode!r}")
    seen: set[int] = set()
    for parts in records:
        try:
            u = int(parts[1])
            nbrs = set()
            for cell in parts[2:]:
                v, p = cell.split(":", 1)
                _parse_number(p, mode)  # a cell's value is named before its neighbor
                nbrs.add(int(v))
        except ValueError as exc:
            raise FormatError(f"bad kernel line {' '.join(parts)!r}: {exc}") from exc
        if u in seen or len(nbrs) != len(parts) - 2:
            raise FormatError(f"repeated row or cell in {' '.join(parts)!r}")
        seen.add(u)


def dump_distribution(dist: HittingDistribution, mode: str = FLOAT) -> str:
    """The law as text, in its own mode, which ``mode`` must name, else
    :class:`InvalidParameter`: the header ``layer v_1 .. v_m``, then for each
    time ``t`` with mass the line ``t p_1 .. p_m`` (float) or ``t D N_1 ..
    N_m`` (rational, cell ``j`` being ``N_j / D``), tab-separated."""
    if (mode == RATIONAL) != (dist.dens is not None):
        raise InvalidParameter(f"{'a float' if dist.dens is None else 'an exact'} "
                               f"{dist.layer} law has no {mode} file form")
    live = np.flatnonzero((dist.cells != 0).any(axis=1))
    times = [dist.times[i] for i in live]
    lines = ["\t".join([dist.layer, *map(str, dist.vertices)])]
    if mode == RATIONAL:
        lines.extend("\t".join(map(_digits, (t, dist.dens[i], *dist.cells[i].tolist())))
                     for t, i in zip(times, live.tolist()))
    else:
        cells = dist.cells[live]
        line = "%d" + "\t%.17g" * len(dist.vertices)
        lines.extend(line % (t, *row) for t, row in zip(times, cells.astype(float).tolist()))
    return "\n".join(lines) + "\n"


def parse_distribution(text: str, mode: str = FLOAT) -> HittingDistribution:
    """Parse :func:`dump_distribution` output, the time lines in any order.
    A file without a header or without a time line raises
    :class:`FormatError`, as does a cell that is negative, or not finite, or
    in a rational file not an integer, a repeated vertex or time, a time
    below 1, a denominator below 1 or a line whose token count differs from
    the header's."""
    lines = [parts for parts in map(str.split, text.splitlines()) if parts]
    if not lines or lines[0][0] not in (INNER, OUTER):
        raise FormatError("law file does not open with its inner or outer header")
    (layer, *heads), body = lines[0], lines[1:]
    if not body:
        raise FormatError(f"{layer} law file holds no time line")
    exact = mode == RATIONAL
    width = len(heads) + 1 + exact
    try:
        vertices = tuple(map(int, heads))
        if len(set(vertices)) != len(vertices):
            raise FormatError(f"{layer} law header repeats a vertex")
        for parts in body:
            if len(parts) != width:
                raise FormatError(f"law line with {len(parts)} tokens, header gives {width}")
        at = dict(zip(map(int, (parts[0] for parts in body)), body))
    except ValueError as exc:
        raise FormatError(f"bad law line: {exc}") from exc
    if len(at) != len(body) or min(at) < 1:
        raise FormatError("repeated law time or law time below 1")
    times = tuple(sorted(at))
    body = [at[t][1:] for t in times]
    dens = None
    if exact:
        body = [[_exact(token) for token in parts] for parts in body]
        dens = tuple(parts.pop(0) for parts in body)
        if min(dens) < 1:
            raise FormatError("law denominator below 1")
    try:
        cells = np.array(body, object if exact else float).reshape(len(times), len(vertices))
    except ValueError as exc:
        raise FormatError(f"bad {mode} law cell: {exc}") from exc
    if not (exact or np.isfinite(cells).all()) or (cells < 0).any():
        raise FormatError(f"negative or non-finite cell in the {layer} law")
    return HittingDistribution(layer, times[-1], vertices, times, cells, dens)


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
