"""The operations a workload runs, through the CLI and as a traced pass.

An operation is one CLI pipeline on one instance: ``gen -> forward ->
invert`` for a tree, ``gen -> sample -> estimate`` for the star estimator.
``cli_steps`` gives the argument lists handed to ``treetomo.cli.main``;
``traced`` calls the public library functions those commands call, in the
same order, and times each call from outside.  ``classify`` reads the
artifacts back with a parser of its own and sorts the run into correct,
wrong, refused or crashed.  Both take the draw index ``i``: draw ``i``
takes its kernel (trees) or its walks (the estimator) from seed ``+ i``.
"""

from __future__ import annotations

import io
import math
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from trees import AUG_LEN, BaseTree, star

FLOAT_TOL = 1e-9  # acceptance bound of a float round trip
# Criterion 8 bounds the median estimator error over seeds at 1e6 walks by
# 0.02; single runs on the star fixture reach 0.023 (median 0.007).  A run is
# answered wrong only past five times that median bound.
MC_TOL = 0.1
REFUSAL_CODES = (2, 3, 4)  # documented exits: format, insufficient data, out of range

CORRECT, WRONG, REFUSED, CRASHED = "correct", "wrong", "refused", "crashed"


@dataclass
class Outcome:
    op: str
    mode: str
    status: str
    error: float | None = None
    detail: str = ""
    problems: list[str] = field(default_factory=list)


def call(main, argv: list[str]) -> tuple[int, float, str]:
    """Run one CLI command in-process: exit code, wall seconds, stderr text."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # argparse refuses bad flags this way
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # an escaped exception is a crash, not a refusal
        code = -1
        err.write(f"{type(exc).__name__}: {exc}")
    return code, time.perf_counter() - t0, err.getvalue().strip()


def span(spans: dict[str, float], name: str, fn, *args, **kwargs):
    """Call ``fn`` and add its wall time to ``spans[name]``."""
    t0 = time.perf_counter()
    try:
        return fn(*args, **kwargs)
    finally:
        spans[name] = spans.get(name, 0.0) + time.perf_counter() - t0


def _read(tt, spans, parse, path: Path, *args):
    return span(spans, "formats.parse_s", lambda: parse(tt.formats.read_text(path), *args))


def _write(tt, spans, path: Path, dump, *args) -> int:
    def run():
        text = dump(*args)
        tt.formats.write_text(path, text)
        return len(text.encode())

    return span(spans, "formats.dump_s", run)


def _artifact_rows(path: Path, exact: bool):
    """Kernel rows and the ``max_time_read`` line of a kernel or report file."""
    rows: dict[int, dict[int, Fraction | float]] = {}
    max_time_read = None
    for line in path.read_text().splitlines():
        parts = line.split()
        if parts and parts[0] == "row":
            cells = (c.split(":", 1) for c in parts[2:])
            rows[int(parts[1])] = {
                int(v): Fraction(p) if exact else float(p) for v, p in cells
            }
        elif parts and parts[0] == "max_time_read":
            max_time_read = int(parts[1])
    return rows, max_time_read


def _tree_sizes(path: Path) -> tuple[int, int]:
    """Augmented and base vertex counts of a ``tree.txt`` artifact."""
    augmented = base = 0
    for line in path.read_text().splitlines():
        parts = line.split()
        if parts[:1] == ["tree"]:
            augmented = int(parts[1])
        elif parts[:1] == ["origin"] and parts[2] == "original":
            base += 1
    return augmented, base


class Operation:
    """One CLI pipeline on one instance; subclasses give its steps and traced form."""

    name: str
    mode: str
    tree: BaseTree
    tolerance: float | int

    def cli_steps(self, d: Path, i: int) -> list[tuple[str, list[str]]]:
        raise NotImplementedError

    def traced(self, tt, d: Path, spans: dict[str, float], i: int) -> "Traced":
        raise NotImplementedError

    def prepare(self, d: Path) -> None:
        d.mkdir(parents=True, exist_ok=True)

    def classify(self, d: Path, code: int, message: str) -> Outcome:
        """Classify one finished run of this operation from its artifacts."""
        out = Outcome(self.name, self.mode, CRASHED, detail=message)
        if code in REFUSAL_CODES:
            out.status = REFUSED
        if code != 0:
            if self.mode == "rational":
                out.problems.append(f"{self.name}: rational run did not answer ({message})")
            return out
        sizes = _tree_sizes(d / "tree.txt")
        want = (self.tree.augmented_count, self.tree.vertex_count)
        if sizes != want:
            out.problems.append(f"{self.name}: tree sizes {sizes}, expected {want}")
        exact = self.mode == "rational"
        got, max_time_read = _artifact_rows(d / "report.txt", exact)
        truth, _ = _artifact_rows(d / "kernel.txt", exact)
        error = 0
        for u, row in truth.items():
            if set(got.get(u, ())) != set(row):
                error = math.inf
                break
            for v, p in row.items():
                d = abs(got[u][v] - p)
                if not d <= error:
                    error = d if d == d else math.inf  # a NaN entry reads as unbounded
        out.error = float(error)
        out.status = CORRECT if error <= self.tolerance else WRONG
        horizon = 3 * self.tree.hull_radius + 4
        if max_time_read != horizon:
            out.problems.append(f"{self.name}: max_time_read {max_time_read} != 3R+4 = {horizon}")
        if exact and error != 0:
            out.problems.append(f"{self.name}: rational recovery is off by {error}")
        return out


@dataclass
class Traced:
    """What a traced run of one operation leaves for the side measurements."""

    aug: object
    truth: object
    known: object
    refused: bool = False
    laws: tuple | None = None
    report: object | None = None
    batch: object | None = None
    artifact_bytes: int = 0


class TreeOp(Operation):
    """``gen --tree FILE -> forward -> invert --reference`` on a bench tree.

    Draw ``i`` takes its kernel from seed ``seed + i``.
    """

    def __init__(self, tree: BaseTree, mode: str, seed: int, floor: float, scope: str):
        self.tree, self.mode, self.seed = tree, mode, seed
        self.floor, self.scope = floor, scope
        self.name = f"{tree.name}-{mode}"
        self.tolerance = 0 if mode == "rational" else FLOAT_TOL

    def prepare(self, d: Path) -> None:
        super().prepare(d)
        (d / "base.txt").write_text(self.tree.text())

    def cli_steps(self, d: Path, i: int) -> list[tuple[str, list[str]]]:
        gen = ["gen", "--tree", str(d / "base.txt"), "--mode", self.mode,
               "--floor", str(self.floor), "--scope", self.scope,
               "--seed", str(self.seed + i), "--out", str(d)]
        forward = ["forward", "--tree-file", str(d / "tree.txt"),
                   "--kernel-file", str(d / "kernel.txt"), "--out", str(d)]
        invert = ["invert", "--tree-file", str(d / "tree.txt"),
                  "--known-file", str(d / "known.txt"),
                  "--in-dist", str(d / "in.tsv"), "--out-dist", str(d / "out.tsv"),
                  "--reference", str(d / "kernel.txt"), "--out", str(d)]
        return [("gen", gen), ("forward", forward), ("invert", invert)]

    def traced(self, tt, d: Path, spans: dict[str, float], i: int) -> Traced:
        F, C, S = tt.formats, tt.chain_model, tt.forward_solver
        nbytes = 0
        # gen
        base = _read(tt, spans, F.parse_tree, d / "base.txt")
        aug = span(spans, "tree_model.augment_s", tt.tree_model.spherical_augmentation, base, AUG_LEN)
        kernel = span(spans, "chain_model.random_kernel_s", C.random_kernel, aug, self.seed + i,
                      floor=self.floor, scope=self.scope, mode=self.mode)
        nbytes += _write(tt, spans, d / "tree.txt", F.dump_tree, aug)
        nbytes += _write(tt, spans, d / "kernel.txt", F.dump_kernel, kernel)
        nbytes += _write(tt, spans, d / "known.txt", F.dump_kernel, kernel.restricted_to({C.KNOWN}))
        # forward
        aug = _read(tt, spans, F.parse_tree, d / "tree.txt")
        kernel = _read(tt, spans, F.parse_kernel, d / "kernel.txt")
        t_max = 3 * aug.hull_radius + 4
        laws = []
        for layer, fname, key in ((S.INNER, "in.tsv", "inner"), (S.OUTER, "out.tsv", "outer")):
            dist = span(spans, f"forward_solver.{key}_s", S.first_hitting_joint, aug, kernel, layer, t_max)
            nbytes += _write(tt, spans, d / fname, F.dump_distribution, dist, kernel.mode)
            laws.append(dist)
        # invert
        aug = _read(tt, spans, F.parse_tree, d / "tree.txt")
        known = _read(tt, spans, F.parse_kernel, d / "known.txt")
        p_in = _read(tt, spans, F.parse_distribution, d / "in.tsv", known.mode)
        p_out = _read(tt, spans, F.parse_distribution, d / "out.tsv", known.mode)
        truth = _read(tt, spans, F.parse_kernel, d / "kernel.txt")
        out = Traced(aug, truth, known, laws=tuple(laws))
        try:
            out.report = span(spans, "tomography.recover_all_s", tt.tomography.recover_all,
                              aug, known, p_in, p_out, reference=truth)
        except tt.errors.TreetomoError:
            out.refused = True
        else:
            nbytes += _write(tt, spans, d / "report.txt", F.dump_report, out.report)
        out.artifact_bytes = nbytes
        return out


class EstimateOp(Operation):
    """``gen --tree star -> sample -> estimate --reference`` on star(1, n).

    Draw ``i`` samples with seed ``sample_seed + i``.
    """

    def __init__(self, branches: int, gen_seed: int, walks: int, sample_seed: int, workers: int):
        self.branches, self.gen_seed = branches, gen_seed
        self.walks, self.sample_seed, self.workers = walks, sample_seed, workers
        self.tree = star(branches)
        self.mode = "mc"
        self.name = f"star1x{branches}-n{walks}"
        self.tolerance = MC_TOL

    def cli_steps(self, d: Path, i: int) -> list[tuple[str, list[str]]]:
        gen = ["gen", "--tree", "star", "--l", "1", "--n", str(self.branches),
               "--scope", "lambda", "--seed", str(self.gen_seed), "--out", str(d)]
        sample = ["sample", "--tree-file", str(d / "tree.txt"),
                  "--kernel-file", str(d / "kernel.txt"), "--n", str(self.walks),
                  "--seed", str(self.sample_seed + i), "--workers", str(self.workers),
                  "--out", str(d)]
        estimate = ["estimate", "--tree-file", str(d / "tree.txt"),
                    "--known-file", str(d / "known.txt"),
                    "--batch-file", str(d / "batch.txt"),
                    "--reference", str(d / "kernel.txt"), "--out", str(d)]
        return [("gen", gen), ("sample", sample), ("estimate", estimate)]

    def traced(self, tt, d: Path, spans: dict[str, float], i: int) -> Traced:
        F, C, E = tt.formats, tt.chain_model, tt.estimation
        nbytes = 0
        # gen
        base = tt.tree_model.star(1, self.branches)
        aug = span(spans, "tree_model.augment_s", tt.tree_model.spherical_augmentation, base, AUG_LEN)
        kernel = span(spans, "chain_model.random_kernel_s", C.random_kernel, aug, self.gen_seed,
                      scope="lambda")
        nbytes += _write(tt, spans, d / "tree.txt", F.dump_tree, aug)
        nbytes += _write(tt, spans, d / "kernel.txt", F.dump_kernel, kernel)
        nbytes += _write(tt, spans, d / "known.txt", F.dump_kernel, kernel.restricted_to({C.KNOWN}))
        # sample
        aug = _read(tt, spans, F.parse_tree, d / "tree.txt")
        kernel = _read(tt, spans, F.parse_kernel, d / "kernel.txt")
        batch = span(spans, "estimation.collect_batch_s", E.collect_batch, aug, kernel,
                     self.walks, self.sample_seed + i, workers=self.workers)
        nbytes += _write(tt, spans, d / "batch.txt", F.dump_batch, batch)
        # estimate
        aug = _read(tt, spans, F.parse_tree, d / "tree.txt")
        known = _read(tt, spans, F.parse_kernel, d / "known.txt")
        parsed = _read(tt, spans, F.parse_batch, d / "batch.txt")
        truth = _read(tt, spans, F.parse_kernel, d / "kernel.txt")
        out = Traced(aug, truth, known, batch=batch)
        try:
            out.report = span(spans, "estimation.estimate_kernel_s", E.estimate_kernel,
                              aug, known, parsed, reference=truth)
        except tt.errors.TreetomoError:
            out.refused = True
        else:
            nbytes += _write(tt, spans, d / "report.txt", F.dump_report, out.report)
        out.artifact_bytes = nbytes
        return out

