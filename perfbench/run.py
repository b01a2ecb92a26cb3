"""treetomo benchmark: three CLI pipelines timed end to end, layers from a traced run.

Run from the repository root::

    python3 perfbench/run.py --workload wide-float --seed 0 --seconds 30 --trace 0

``--trace 0`` times whole passes through ``treetomo.cli.main`` in-process
and prints the end-to-end metrics.  ``--trace 1`` alternates untraced CLI
passes with traced passes that call the same public library functions one
by one, and prints the per-layer metrics.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
``--seed 0`` reproduces the instances the workloads were defined on; see
``perfbench/README.md`` for every metric and the recorded baseline.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import layers
from pipelines import CORRECT, CRASHED, REFUSED, WRONG, EstimateOp, Outcome, TreeOp, call
from trees import broom, comb, self_check

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("chain_model", "cli", "errors", "estimation", "formats",
           "forward_solver", "tomography", "tree_model")
WORKLOADS = ("wide-float", "deep-comb", "star-estimate")
SETUPS = 11  # set-ups per run; setup_s is their median
# Distinct input draws per run.  Pass i runs draw i mod DRAWS, so every run
# checks the same operations whatever its pass count, and attempted, failed
# and the accuracy metrics depend on the seed alone.  A run makes at least
# DRAWS passes.
DRAWS = {"wide-float": 4, "deep-comb": 16, "star-estimate": 8}
DIGITS_CAP = 17.0  # float64 carries about 17 significant digits
CALIB_LOOP = 300_000
CALIB_REF_S = 0.075  # calibration loop time at the reference speed of a 2-core x86_64 box

SPANS = (
    "tree_model.augment_s",
    "chain_model.random_kernel_s",
    "forward_solver.inner_s",
    "forward_solver.outer_s",
    "tomography.recover_all_s",
    "estimation.collect_batch_s",
    "estimation.estimate_kernel_s",
    "formats.dump_s",
    "formats.parse_s",
)
COMMANDS = ("gen", "forward", "invert", "sample", "estimate")

UNITS = {name: "s" for name in SPANS}
UNITS.update({f"cli.{c}_s": "s" for c in COMMANDS})
UNITS.update({
    "tomography.invert_over_forward": "ratio",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
    "cli.refusals": "count",
    "tree_model.vertices": "count",
    "forward_solver.cells": "count",
    "chain_model.validate_s": "s",
    "formats.bytes": "B",
    "tomography.edges": "count",
    "tomography.max_time_read": "steps",
    "tomography.flags": "count",
    "estimation.flags": "count",
    "tomography.kappa_max": "ratio",
    "estimation.walks_per_s": "1/s",
    "estimation.overflow_frac": "frac",
    "estimation.steps_beyond_horizon_frac": "frac",
    "max_error": "prob",
})


def workload(name: str, seed: int):
    """Operations of one workload and the small ones that warm it up.

    Draw ``j`` of a run with seed ``s`` takes tree kernels from seed
    ``7 + 1000 s + j`` and estimator walks from ``9 + 1000 s + j``, so the
    first draw of ``--seed 0`` is the instance the workloads were defined
    on, and float error, which swings fortyfold with the kernel on combs,
    is averaged over ``DRAWS`` draws in one run.  The star keeps kernel seed 3:
    its estimator error also swings with the kernel, and the workload
    measures the sampler.
    """
    if name == "wide-float":
        ops = [TreeOp(broom(60, 60), "float", 7 + 1000 * seed, 0.005, "all")]
        warm = [TreeOp(broom(3, 3), "float", 1, 0.005, "all")]
    elif name == "deep-comb":
        ops = [TreeOp(comb(r), mode, 7 + 1000 * seed, 0.05, "all")
               for r in (4, 8, 12, 16) for mode in ("rational", "float")]
        warm = [TreeOp(comb(2), mode, 1, 0.05, "all") for mode in ("rational", "float")]
    else:
        ops = [EstimateOp(2, 3, 10**6, 9 + 1000 * seed, 2)]
        warm = [EstimateOp(2, 3, 2000, 1, 2)]
    return ops, warm


def calibrate() -> float:
    """Wall seconds of a fixed pure-Python loop: the machine's speed right now."""
    acc: dict[int, int] = {}
    t0 = time.perf_counter()
    for i in range(CALIB_LOOP):
        k = i & 1023
        acc[k] = acc.get(k, 0) + i * i
    return time.perf_counter() - t0


class Calibrated:
    """Timed intervals, each rescaled by the calibration loops around it.

    The host's speed drifts by half between minutes and by a fifth over tens
    of seconds, sometimes within one run.  Each interval is multiplied by
    ``CALIB_REF_S`` over the mean of the loops just before and after it,
    which turns it into seconds at one reference speed.
    """

    def __init__(self):
        self.last = calibrate()
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self.loops = [self.last]

    def add(self, seconds: float) -> None:
        now = calibrate()
        self.raw.append(seconds)
        self.scaled.append(seconds * CALIB_REF_S / ((self.last + now) / 2))
        self.loops.append(now)
        self.last = now


def load_treetomo() -> SimpleNamespace:
    """Import a fresh copy of ``treetomo`` from this checkout's ``src``."""
    for mod in [m for m in sys.modules if m == "treetomo" or m.startswith("treetomo.")]:
        del sys.modules[mod]
    pkg = importlib.import_module("treetomo")
    if Path(pkg.__file__).resolve().parent != (SRC / "treetomo").resolve():
        raise RuntimeError(f"treetomo imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"treetomo.{m}") for m in MODULES})


def setup(ops, warm, work: Path) -> tuple[float, SimpleNamespace]:
    """Import treetomo, write the base-tree files, run the warm-up operations."""
    t0 = time.perf_counter()
    tt = load_treetomo()
    for op in ops:
        op.prepare(work / op.name)
    for op in warm:
        op.prepare(work / "warm" / op.name)
    cli_pass(tt, warm, work / "warm", 0)
    return time.perf_counter() - t0, tt


def cli_pass(tt, ops, work: Path, i: int):
    """Draw ``i`` of every operation through the CLI: wall, seconds per command, outcomes."""
    cmd_s: dict[str, float] = {}
    ends = []
    t0 = time.perf_counter()
    for op in ops:
        code, msg = 0, ""
        for cmd, argv in op.cli_steps(work / op.name, i):
            code, secs, msg = call(tt.cli.main, argv)
            cmd_s[cmd] = cmd_s.get(cmd, 0.0) + secs
            if code != 0:
                break
        ends.append((op, code, msg))
    wall = time.perf_counter() - t0
    return wall, cmd_s, [op.classify(work / op.name, code, msg) for op, code, msg in ends]


def traced_pass(tt, ops, work: Path, i: int):
    """Draw ``i`` of every operation as timed library calls: wall, spans, traces, outcomes."""
    spans: dict[str, float] = {}
    traces = []
    t0 = time.perf_counter()
    for op in ops:
        try:
            traces.append(op.traced(tt, work / op.name, spans, i))
        except Exception as exc:  # counted as a crash below, like an exit 5
            traces.append(exc)
    wall = time.perf_counter() - t0
    outcomes = []
    for op, tr in zip(ops, traces):
        if isinstance(tr, Exception):
            outcomes.append(op.classify(work / op.name, -1, f"{type(tr).__name__}: {tr}"))
        elif tr.refused:
            outcomes.append(op.classify(work / op.name, 4, "refused in the traced pass"))
        else:
            outcomes.append(op.classify(work / op.name, 0, ""))
    return wall, spans, traces, outcomes


def tally(checked: list[Outcome], outcomes: list[Outcome]) -> tuple[int, int, list[str]]:
    """Attempted and failed (answered wrong or crashed) over the distinct
    operations ``checked``, and correctness problems over every run ``outcomes``."""
    failed = sum(o.status in (WRONG, CRASHED) for o in checked)
    problems = [p for o in outcomes for p in o.problems]
    problems += [f"{o.op}: crashed ({o.detail})" for o in outcomes if o.status == CRASHED]
    return len(checked), failed, problems


def worst_error(outcomes: list[Outcome]) -> float:
    """Largest |recovered - truth| over answered float and Monte Carlo operations."""
    errors = [o.error for o in outcomes if o.status in (CORRECT, WRONG) and o.mode != "rational"]
    return max(errors, default=0.0)


def digits(error: float) -> float:
    """Correct decimal digits of an absolute error, within [0, DIGITS_CAP]."""
    return DIGITS_CAP if error == 0 else min(DIGITS_CAP, max(0.0, -math.log10(error)))


def show_outcomes(outcomes: list[Outcome]) -> None:
    for o in outcomes:
        err = "" if o.error is None else f" max_error {o.error:.3g}"
        print(f"  {o.op:<24} {o.status}{err} {o.detail}".rstrip())


def show_times(label: str, times: list[float]) -> None:
    q = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
    print(f"  {label}: {len(times)} samples, median {statistics.median(times):.4f} s,"
          f" quartiles {q[0]:.4f} / {q[2]:.4f} s")


def end_to_end(tt, ops, draws: int, work: Path, seconds: float, setups: Calibrated):
    passes = Calibrated()
    outcomes, checked, draw_digits = [], [], []
    start = time.perf_counter()
    while len(passes.raw) < draws or time.perf_counter() - start < seconds:
        i = len(passes.raw)
        wall, _, outs = cli_pass(tt, ops, work, i % draws)
        passes.add(wall)
        outcomes += outs
        if i < draws:
            checked += outs
            draw_digits.append(digits(worst_error(outs)))
    show_outcomes(checked[:len(ops)])
    show_times("pipeline wall", passes.raw)
    show_times("pipeline calibrated", passes.scaled)
    show_times("setup calibrated", setups.scaled)
    show_times("calibration loop", setups.loops + passes.loops)
    attempted, failed, problems = tally(checked, outcomes)
    correct = sum(o.status == CORRECT for o in checked)
    metrics = {
        "setup_s": (statistics.median(setups.scaled), "s"),
        "pipeline_s": (statistics.median(passes.scaled), "s"),
        "correct_digits": (statistics.fmean(draw_digits), "digits"),
        "unfailed_frac": (1 - failed / attempted, "frac"),
        "answered_frac": (correct / attempted, "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return attempted, failed, problems, metrics


def per_layer(tt, ops, draws: int, work: Path, seconds: float):
    untraced, cmd_runs, traced_walls, span_runs = [], [], [], []
    outcomes, checked, refusals = [], [], []
    start = time.perf_counter()
    while len(traced_walls) < draws or time.perf_counter() - start < seconds:
        i = len(traced_walls)
        wall, cmd_s, outs = cli_pass(tt, ops, work, i % draws)
        untraced.append(wall)
        cmd_runs.append(cmd_s)
        refusals.append(sum(o.status == REFUSED for o in outs))
        outcomes += outs
        if i < draws:
            checked += outs
        wall, spans, traces, outs = traced_pass(tt, ops, work, i % draws)
        traced_walls.append(wall)
        span_runs.append(spans)
        outcomes += outs
    show_outcomes(outs)
    show_times("untraced wall", untraced)
    show_times("traced wall", traced_walls)

    med = statistics.median
    values = {name: med(s.get(name, 0.0) for s in span_runs) for name in SPANS}
    values.update({f"cli.{c}_s": med(r.get(c, 0.0) for r in cmd_runs) for c in COMMANDS})
    forward = values["forward_solver.inner_s"] + values["forward_solver.outer_s"]
    values["tomography.invert_over_forward"] = (
        values["tomography.recover_all_s"] / forward if forward else 0.0
    )
    values["trace.coverage"] = med(sum(s.values()) / w for s, w in zip(span_runs, traced_walls))
    values["trace.overhead_s"] = med(traced_walls) - med(untraced)
    values["cli.refusals"] = med(refusals)

    # Counters of the last traced pass, taken after its timed spans.
    done = [(op, tr) for op, tr in zip(ops, traces) if not isinstance(tr, Exception)]
    reports = [(op, tr.report) for op, tr in done if tr.report is not None]
    trees = [(op, tr) for op, tr in done if isinstance(op, TreeOp)]
    batches = [(op, tr.batch) for op, tr in done if tr.batch is not None]
    values["tree_model.vertices"] = sum(tr.aug.full.vertex_count for _, tr in done)
    values["forward_solver.cells"] = sum(len(d.mass) for _, tr in trees for d in tr.laws)
    values["chain_model.validate_s"] = sum(
        layers.validate_seconds(tt, tr.aug, tr.truth) for _, tr in trees
    )
    values["formats.bytes"] = sum(tr.artifact_bytes for _, tr in done)
    values["tomography.edges"] = sum(len(layers.recovered_edges(tr.aug, tr.known)) for _, tr in done)
    values["tomography.max_time_read"] = max(
        (max(r.times_accessed.values()) for _, r in reports), default=0
    )
    values["tomography.flags"] = sum(len(r.flags) for op, r in reports if isinstance(op, TreeOp))
    values["estimation.flags"] = sum(len(r.flags) for op, r in reports if isinstance(op, EstimateOp))
    values["tomography.kappa_max"] = max(
        (layers.kappa_max(tt, tr.aug, tr.truth, tr.known, *truth_laws(tt, tr))
         for op, tr in done if op.mode != "rational"),
        default=0.0,
    )
    walks = sum(op.walks for op, _ in batches)
    values["estimation.walks_per_s"] = (
        walks / values["estimation.collect_batch_s"] if batches else 0.0
    )
    waste = [layers.sampler_waste(b, 3 * op.tree.hull_radius + 4) for op, b in batches]
    values["estimation.overflow_frac"] = max((w[0] for w in waste), default=0.0)
    values["estimation.steps_beyond_horizon_frac"] = max((w[1] for w in waste), default=0.0)
    values["max_error"] = worst_error(outcomes)

    attempted, failed, problems = tally(checked, outcomes)
    metrics = {name: (value, UNITS[name]) for name, value in values.items()}
    return attempted, failed, problems, metrics


def truth_laws(tt, tr):
    """Inner and outer laws of the truth kernel, as the κ decomposition reads them."""
    if tr.laws is not None:
        return tr.laws
    S = tt.forward_solver
    horizon = 3 * tr.aug.hull_radius + 4
    return tuple(S.first_hitting_joint(tr.aug, tr.truth, layer, horizon) for layer in (S.INNER, S.OUTER))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "treetomo" / "__init__.py").is_file():
        print(f"perfbench: no treetomo package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    self_check()

    ops, warm = workload(args.workload, args.seed)
    draws = DRAWS[args.workload]
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    try:
        setups = Calibrated()
        for _ in range(SETUPS):
            seconds, tt = setup(ops, warm, work)
            setups.add(seconds)
        print(f"{args.workload} seed {args.seed} trace {args.trace}:")
        if args.trace:
            attempted, failed, problems, metrics = per_layer(tt, ops, draws, work, args.seconds)
        else:
            attempted, failed, problems, metrics = end_to_end(tt, ops, draws, work, args.seconds, setups)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
