"""The bench's contract with the package: what ``perfbench/`` runs and reads.

``perfbench/run.py`` drives the CLI in process, calls the library layer by
layer in a traced pass, and parses the artifacts with readers of its own.
These tests run a cheap instance of each workload through the bench's own
passes, so a change that breaks a command, a file it parses or a name it
calls fails here, on every interpreter, and not only in the bench smoke run.
"""

import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from treetomo import chain_model, cli, errors, estimation, formats, forward_solver, tomography
from treetomo import tree_model

BENCH = Path(__file__).parents[1] / "perfbench"


@pytest.fixture(scope="module")
def bench():
    """``run`` and ``layers`` of the bench, imported from its directory; the
    package is the one already imported, which ``run.load_treetomo`` would
    drop from ``sys.modules`` under the other tests."""
    sys.path.insert(0, str(BENCH))
    try:
        import layers
        import run
    finally:
        sys.path.remove(str(BENCH))
    tt = SimpleNamespace(chain_model=chain_model, cli=cli, errors=errors, estimation=estimation,
                         formats=formats, forward_solver=forward_solver, tomography=tomography,
                         tree_model=tree_model)
    assert sorted(vars(tt)) == sorted(run.MODULES)
    return run, layers, tt


@pytest.mark.parametrize("name", ["wide-float", "deep-comb", "star-estimate"])
def test_bench_passes_are_correct(bench, tmp_path, name):
    # two CLI passes, draws 0 and 1, into one directory, so the second
    # rewrites every artifact of the first; then one traced pass of draw 0.
    # The trees run their warm-up instances.  The star runs its measured
    # instance, 1e6 walks, as cheap as its warm-up: at the warm-up's 2,000
    # walks the estimate is 0.12 to 0.31 off on draws 0-7, past the bench's
    # Monte Carlo tolerance of 0.1
    run, layers, tt = bench
    ops, warm = run.workload(name, 0)
    ops = ops if name == "star-estimate" else warm
    for op in ops:
        op.prepare(tmp_path / op.name)
    outcomes = []
    for i in (0, 1):
        _, cmd_s, outs = run.cli_pass(tt, ops, tmp_path, i)
        assert set(cmd_s) == ({"gen", "sample", "estimate"} if name == "star-estimate"
                              else {"gen", "forward", "invert"})
        outcomes += outs
    _, spans, traces, outs = run.traced_pass(tt, ops, tmp_path, 0)
    outcomes += outs
    assert [(o.op, o.status, o.problems) for o in outcomes] == [
        (o.op, run.CORRECT, []) for o in outcomes]
    assert set(spans) <= set(run.SPANS) and spans["formats.dump_s"] > 0
    for op, tr in zip(ops, traces):
        assert tr.report is not None and tr.artifact_bytes > 0
        if op.mode == "float":
            assert layers.kappa_max(tt, tr.aug, tr.truth, tr.known, *run.truth_laws(tt, tr)) > 0
