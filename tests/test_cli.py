"""End-to-end command-line runs: artifacts, determinism, exit codes."""

import json
import os
from pathlib import Path
import random
import re
import shlex
import subprocess
import sys

import pytest

from treetomo import (
    INNER,
    KNOWN,
    OUTER,
    build_tree,
    first_hitting_joint,
    random_kernel,
    random_tree,
    recover_all,
    segment,
    spherical_augmentation,
    star,
)
import treetomo
from treetomo import chain_model
from treetomo.cli import build_parser, main
from treetomo.errors import InvalidQuery
from treetomo.formats import (
    dump_distribution,
    dump_kernel,
    dump_tree,
    parse_kernel,
    parse_tree,
    read_text,
    write_text,
)

from helpers import (
    INVALID_TREES,
    binary,
    broom,
    comb,
    labels_of,
    numerator_edits,
    small_bases,
    token_edits,
)

COMMANDS = ("gen", "forward", "invert", "sample", "estimate", "roundtrip", "consistency")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def package_env():
    """The environment with this checkout's ``treetomo`` first on the path,
    for a child interpreter."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(Path(treetomo.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}


def write_laws(work, t_max):
    """``in.tsv`` and ``out.tsv`` of the generated chain, computed to ``t_max``."""
    aug = parse_tree(read_text(f"{work}/tree.txt"))
    kernel = parse_kernel(read_text(f"{work}/kernel.txt"))
    for layer, name in ((INNER, "in.tsv"), (OUTER, "out.tsv")):
        dist = first_hitting_joint(aug, kernel, layer, t_max)
        write_text(f"{work}/{name}", dump_distribution(dist, kernel.mode))


def recovery_argv(capsys, work, command):
    """Arguments of ``invert`` or ``estimate`` on the chain generated in ``work``,
    after writing the laws or a batch it reads."""
    common = ["--tree-file", str(work / "tree.txt"), "--known-file", str(work / "known.txt"),
              "--out", str(work)]
    if command == "invert":
        run(capsys, "forward", "--tree-file", str(work / "tree.txt"),
            "--kernel-file", str(work / "kernel.txt"), "--out", str(work))
        return ["invert", *common, "--in-dist", str(work / "in.tsv"),
                "--out-dist", str(work / "out.tsv")]
    run(capsys, "sample", "--tree-file", str(work / "tree.txt"),
        "--kernel-file", str(work / "kernel.txt"), "--n", "20000", "--seed", "8",
        "--out", str(work))
    return ["estimate", *common, "--batch-file", str(work / "batch.txt")]


class TestRoundtrip:
    def test_star_rational_exact(self, capsys):
        code, out, _ = run(
            capsys, "roundtrip", "--tree", "star", "--l", "1", "--n", "2",
            "--seed", "3", "--mode", "rational",
        )
        assert code == 0
        lines = dict(l.split(" ", 1) for l in out.strip().splitlines())
        assert float(lines["max_error"]) == 0.0
        assert int(lines["max_time_read"]) <= 7

    def test_random_tree_float(self, capsys):
        code, out, _ = run(
            capsys, "roundtrip", "--tree", "random", "--rout", "4",
            "--seed", "11", "--mode", "float",
        )
        assert code == 0
        lines = dict(l.split(" ", 1) for l in out.strip().splitlines())
        assert float(lines["max_error"]) <= 1e-9
        assert int(lines["max_time_read"]) <= 16

    @pytest.mark.parametrize("mode", ["rational", "float"])
    def test_out_writes_what_the_file_pipeline_writes(self, tmp_path, capsys, mode):
        # roundtrip --out against gen -> forward -> invert --reference through
        # the files; a float report may differ, as roundtrip keeps the laws in
        # memory and the files round them, so only an exact report is compared
        chain = ["--tree", "random", "--rout", "3", "--seed", "7", "--scope", "all",
                 "--mode", mode]
        one, files = tmp_path / "one", tmp_path / "files"
        assert run(capsys, "roundtrip", *chain, "--out", str(one))[0] == 0
        assert run(capsys, "gen", *chain, "--out", str(files))[0] == 0
        argv = recovery_argv(capsys, files, "invert")
        assert run(capsys, *argv, "--reference", str(files / "kernel.txt"))[0] == 0
        assert sorted(p.name for p in one.iterdir()) == ["kernel.txt", "report.txt", "tree.txt"]
        for name in ["tree.txt", "kernel.txt"] + ["report.txt"] * (mode == "rational"):
            assert (one / name).read_bytes() == (files / name).read_bytes(), name


class TestPipeline:
    def test_tree_file_with_chains_of_length_3(self, tmp_path, capsys):
        # gen keeps the file's own chains, ids and all, and forward, invert and
        # sample follow its read horizon 3(R+1)+4 = 16 instead of 3R+4 = 13
        tree, work = tmp_path / "tree.txt", tmp_path / "w"
        write_text(tree, dump_tree(spherical_augmentation(random_tree(3, 5), 3)))
        assert run(capsys, "gen", "--tree", str(tree), "--mode", "rational",
                   "--out", str(work)) == (0, "tree 45 vertices, hull radius 3\n", "")
        assert (work / "tree.txt").read_bytes() == tree.read_bytes()
        files = ["--tree-file", str(tree), "--kernel-file", str(work / "kernel.txt"),
                 "--out", str(work)]
        assert run(capsys, "forward", *files) == (0, "forward horizon 16\n", "")
        code, out, err = run(capsys, "invert", "--tree-file", str(tree),
                             "--known-file", str(work / "known.txt"),
                             "--in-dist", str(work / "in.tsv"), "--out-dist", str(work / "out.tsv"),
                             "--reference", str(work / "kernel.txt"), "--out", str(work))
        assert code == 0, err
        assert "max_error 0\n" in out
        assert run(capsys, "sample", *files, "--n", "1000")[0] == 0
        assert (work / "batch.txt").read_text().startswith("batch 1000 0 16\n")

    def test_gen_forward_invert(self, tmp_path, capsys):
        work = str(tmp_path / "w")
        code, _, _ = run(
            capsys, "gen", "--tree", "segment", "--k", "1", "--l", "2",
            "--seed", "5", "--out", work,
        )
        assert code == 0
        code, _, _ = run(
            capsys, "forward", "--tree-file", f"{work}/tree.txt",
            "--kernel-file", f"{work}/kernel.txt", "--out", work,
        )
        assert code == 0
        code, out, _ = run(
            capsys, "invert", "--tree-file", f"{work}/tree.txt",
            "--known-file", f"{work}/known.txt",
            "--in-dist", f"{work}/in.tsv", "--out-dist", f"{work}/out.tsv",
            "--reference", f"{work}/kernel.txt", "--out", work,
        )
        assert code == 0
        lines = dict(l.split(" ", 1) for l in out.strip().splitlines())
        assert float(lines["max_error"]) <= 1e-9
        assert (tmp_path / "w" / "report.txt").exists()

    @pytest.mark.parametrize("mode", ["float", "rational"])
    def test_known_file_with_every_row_solves_nothing(self, tmp_path, capsys, mode):
        # the whole kernel as the given rows: every row is used as given, so
        # the report's kernel is kernel.txt and nothing is flagged
        work = tmp_path / "w"
        run(capsys, "gen", "--tree", "star", "--l", "1", "--n", "2", "--seed", "3",
            "--mode", mode, "--out", str(work))
        argv = recovery_argv(capsys, work, "invert")
        argv[argv.index("--known-file") + 1] = str(work / "kernel.txt")
        code, out, err = run(capsys, *argv, "--reference", str(work / "kernel.txt"))
        assert code == 0, err
        assert "max_error 0\n" in out
        report = (work / "report.txt").read_text().splitlines()
        assert [ln for ln in report if ln.startswith(("mode ", "row "))] == \
            (work / "kernel.txt").read_text().splitlines()
        assert not any(ln.startswith("flag ") for ln in report)

    def test_float_answer_replays_through_forward(self, tmp_path, capsys):
        # the answer's mode and row lines are a kernel file that forward
        # takes: the solved root row closes on its last entry, so its sum
        # (0.9999999999986287 as solved here) passes validation
        work = tmp_path / "w"
        run(capsys, "gen", "--tree", "random", "--rout", "4", "--scope", "all",
            "--seed", "16", "--out", str(work))
        argv = recovery_argv(capsys, work, "invert")
        code, out, err = run(capsys, *argv, "--reference", str(work / "kernel.txt"))
        assert code == 0, err
        assert float(out.split("max_error ")[1]) <= 1e-9
        report = (work / "report.txt").read_text().splitlines()
        answer = work / "answer.txt"
        answer.write_text("".join(ln + "\n" for ln in report if ln.startswith(("mode ", "row "))))
        code, _, err = run(capsys, "forward", "--tree-file", str(work / "tree.txt"),
                           "--kernel-file", str(answer), "--out", str(tmp_path / "replay"))
        assert code == 0, err

    def test_gen_forward_invert_rational(self, tmp_path, capsys):
        # path of depth 8: exact through the files, rows as in memory
        work = str(tmp_path / "w")
        code, _, _ = run(
            capsys, "gen", "--tree", "segment", "--l", "8", "--scope", "all",
            "--mode", "rational", "--seed", "5", "--out", work,
        )
        assert code == 0
        code, _, _ = run(
            capsys, "forward", "--tree-file", f"{work}/tree.txt",
            "--kernel-file", f"{work}/kernel.txt", "--out", work,
        )
        assert code == 0
        code, out, _ = run(
            capsys, "invert", "--tree-file", f"{work}/tree.txt",
            "--known-file", f"{work}/known.txt",
            "--in-dist", f"{work}/in.tsv", "--out-dist", f"{work}/out.tsv",
            "--reference", f"{work}/kernel.txt", "--out", work,
        )
        assert code == 0
        lines = dict(l.split(" ", 1) for l in out.strip().splitlines())
        assert lines["max_error"] == "0"
        report = (tmp_path / "w" / "report.txt").read_text().splitlines()
        on_disk = parse_kernel("\n".join(
            l for l in report if l.startswith(("mode ", "row "))
        ))

        aug = spherical_augmentation(segment(0, 8), 2)
        kernel = random_kernel(aug, 5, scope="all", mode="rational")
        t_max = 3 * aug.hull_radius + 4
        p_in = first_hitting_joint(aug, kernel, INNER, t_max)
        p_out = first_hitting_joint(aug, kernel, OUTER, t_max)
        in_memory = recover_all(aug, kernel.restricted_to({KNOWN}), p_in, p_out)
        assert on_disk.mode == "rational"
        assert on_disk.entries == in_memory.kernel.entries

    def test_each_kernel_is_checked_once(self, tmp_path, capsys, monkeypatch):
        # one checked edge table per kernel a command reads; the reference is
        # the second kernel of invert and estimate
        work = tmp_path / "w"
        assert run(capsys, "gen", "--tree", "star", "--l", "1", "--n", "2",
                   "--seed", "2", "--out", str(work))[0] == 0
        argv = {command: recovery_argv(capsys, work, command)
                for command in ("invert", "estimate")}
        calls = []
        check = chain_model._check_rows
        monkeypatch.setattr(chain_model, "_check_rows",
                            lambda *args: calls.append(args) or check(*args))
        source = ["--tree-file", str(work / "tree.txt"), "--kernel-file", str(work / "kernel.txt")]
        reference = ["--reference", str(work / "kernel.txt")]
        runs = [(["forward", *source, "--out", str(work)], 1),
                (["sample", *source, "--n", "20000", "--seed", "8", "--out", str(work)], 1)]
        runs += [(argv[command] + extra, want) for command in argv
                 for extra, want in (([], 1), (reference, 2))]
        for args, want in runs:
            calls.clear()
            code, _, err = run(capsys, *args)
            assert code == 0, err
            assert len(calls) == want, args[0]

    def test_gen_from_tree_files(self, tmp_path, capsys):
        # a base-tree file and the augmented tree.txt gen writes both give the
        # artifacts of the builtin tree
        base = tmp_path / "base.txt"
        base.write_text(dump_tree(segment(1, 2)))
        sources = {
            "builtin": ["--tree", "segment", "--k", "1", "--l", "2"],
            "base": ["--tree", str(base)],
            "augmented": ["--tree", str(tmp_path / "builtin" / "tree.txt")],
        }
        for name, source in sources.items():
            code, _, err = run(capsys, "gen", *source, "--mode", "rational",
                               "--seed", "4", "--out", str(tmp_path / name))
            assert code == 0, err
        for name in ("tree.txt", "kernel.txt", "known.txt"):
            want = (tmp_path / "builtin" / name).read_bytes()
            assert (tmp_path / "base" / name).read_bytes() == want
            assert (tmp_path / "augmented" / name).read_bytes() == want

    def test_byte_identical_reruns(self, tmp_path, capsys):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        for out in (a, b):
            code, _, _ = run(
                capsys, "gen", "--tree", "random", "--rout", "3",
                "--seed", "21", "--out", out,
            )
            assert code == 0
        for name in ("tree.txt", "kernel.txt", "known.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    @pytest.mark.parametrize("chain, second", [
        (["gen", "--tree", "random", "--rout", "3", "--scope", "all"], "invert"),
        (["gen", "--tree", "star", "--l", "1", "--n", "2"], "estimate"),
    ], ids=["invert", "estimate"])
    def test_rerun_into_one_directory(self, tmp_path, capsys, chain, second):
        # each file is written over the last run's bytes and cut at its end:
        # after a run with seed 7 (random) or 4 (star), a run with seed 8 or 6,
        # whose kernel.txt is shorter, leaves the bytes a fresh directory holds
        first, then = ("7", "8") if second == "invert" else ("4", "6")
        one, fresh = tmp_path / "one", tmp_path / "fresh"
        sizes = []
        for seed, work in ((first, one), (then, one), (then, fresh)):
            assert run(capsys, *chain, "--seed", seed, "--out", str(work))[0] == 0
            sizes.append((work / "kernel.txt").stat().st_size)
            argv = recovery_argv(capsys, work, second)
            assert run(capsys, *argv, "--reference", str(work / "kernel.txt"))[0] == 0
        assert sizes[1] < sizes[0]
        names = sorted(p.name for p in fresh.iterdir())
        assert sorted(p.name for p in one.iterdir()) == names and "report.txt" in names
        for name in names:
            assert (one / name).read_bytes() == (fresh / name).read_bytes(), name

    def test_known_file_is_the_restricted_kernel_file(self, tmp_path, capsys):
        # gen formats each cell once and writes the known rows' lines of
        # kernel.txt as known.txt: byte for byte the known rows' kernel file,
        # also where the known rows do not come first in vertex order
        not_first = 0
        for i, base in enumerate(small_bases() + [broom(5, 5)]):
            (tmp_path / "base.txt").write_text(dump_tree(base))
            aug = spherical_augmentation(base, 2)
            for mode in ("float", "rational"):
                for scope in ("lambda", "all"):
                    out = tmp_path / f"{i}-{mode}-{scope}"
                    code, _, err = run(capsys, "gen", "--tree", str(tmp_path / "base.txt"),
                                       "--mode", mode, "--scope", scope, "--seed", str(i),
                                       "--out", str(out))
                    assert code == 0, err
                    kernel = random_kernel(aug, i, floor=0.05, scope=scope, mode=mode)
                    known = dump_kernel(kernel.restricted_to({KNOWN}))
                    assert (out / "known.txt").read_bytes() == known.encode()
                    assert (out / "kernel.txt").read_bytes() == dump_kernel(kernel).encode()
                    flags = [labels_of(kernel)[u] for u in sorted(kernel.vertices.tolist())]
                    not_first += flags[:flags.count(KNOWN)] != [KNOWN] * flags.count(KNOWN)
        assert not_first

    def test_sample_estimate(self, tmp_path, capsys):
        work = str(tmp_path / "w")
        run(capsys, "gen", "--tree", "star", "--l", "1", "--n", "2",
            "--seed", "2", "--out", work)
        code, _, _ = run(
            capsys, "sample", "--tree-file", f"{work}/tree.txt",
            "--kernel-file", f"{work}/kernel.txt", "--n", "30000",
            "--seed", "8", "--workers", "4", "--out", work,
        )
        assert code == 0
        code, out, _ = run(
            capsys, "estimate", "--tree-file", f"{work}/tree.txt",
            "--known-file", f"{work}/known.txt",
            "--batch-file", f"{work}/batch.txt",
            "--reference", f"{work}/kernel.txt", "--out", work,
        )
        assert code == 0
        lines = dict(l.split(" ", 1) for l in out.strip().splitlines())
        assert float(lines["max_error"]) < 0.2

    def test_sample_estimate_rational_known(self, tmp_path, capsys):
        # exact given rows with empirical laws: the recovered rows are floats
        work = str(tmp_path / "w")
        run(capsys, "gen", "--tree", "segment", "--l", "3", "--mode", "rational",
            "--seed", "2", "--out", work)
        run(capsys, "sample", "--tree-file", f"{work}/tree.txt",
            "--kernel-file", f"{work}/kernel.txt", "--n", "20000",
            "--seed", "8", "--out", work)
        code, out, _ = run(
            capsys, "estimate", "--tree-file", f"{work}/tree.txt",
            "--known-file", f"{work}/known.txt",
            "--batch-file", f"{work}/batch.txt",
            "--reference", f"{work}/kernel.txt", "--out", work,
        )
        assert code == 0
        assert "max_error" in out
        report = (tmp_path / "w" / "report.txt").read_text()
        assert report.startswith("mode float\n")

    def test_consistency_tsv(self, tmp_path, capsys):
        work = str(tmp_path / "w")
        argv = ["consistency", "--tree", "star", "--l", "1", "--n", "2",
                "--seed", "1", "--n-grid", "1000,5000", "--seeds", "1,2"]
        code, out, _ = run(capsys, *argv, "--out", work)
        assert (code, out) == (0, "")
        text = (tmp_path / "w" / "consistency.tsv").read_text()
        lines = text.strip().splitlines()
        assert lines[0] == "n\tseed\tmax_error"
        assert len(lines) == 5
        # without --out the same TSV goes to stdout
        assert run(capsys, *argv)[:2] == (0, text)


class TestExitCodes:
    def test_truncated_distributions_exit_2(self, tmp_path, capsys):
        work = str(tmp_path / "w")
        run(capsys, "gen", "--tree", "segment", "--k", "0", "--l", "1",
            "--seed", "5", "--out", work)
        # horizon 3R+3 = 6 instead of the required 7
        write_laws(work, 6)
        code, _, err = run(
            capsys, "invert", "--tree-file", f"{work}/tree.txt",
            "--known-file", f"{work}/known.txt",
            "--in-dist", f"{work}/in.tsv", "--out-dist", f"{work}/out.tsv",
            "--out", work,
        )
        assert code == 2
        assert err.startswith("error 2 FormatError")

    def test_branch_short_of_outer_layer_exit_2(self, tmp_path, capsys):
        # star(1, 2) with outer vertex 6 cut off: inner vertex 4 ends its branch
        work = tmp_path / "w"
        run(capsys, "gen", "--tree", "star", "--l", "1", "--n", "2",
            "--seed", "2", "--out", str(work))
        run(capsys, "forward", "--tree-file", str(work / "tree.txt"),
            "--kernel-file", str(work / "kernel.txt"), "--out", str(work))
        cut = {"tree 7 0": "tree 6 0", "edge 4 6": None}
        tree = [cut.get(ln, ln) for ln in (work / "tree.txt").read_text().splitlines()]
        (work / "tree.txt").write_text("\n".join(ln for ln in tree if ln) + "\n")
        for name in ("kernel.txt", "known.txt"):
            text = (work / name).read_text().splitlines()
            rows = [ln for ln in text if not ln.startswith("row 4 ")] + ["row 4 2:1"]
            (work / name).write_text("\n".join(rows) + "\n")
        laws = [ln.split("\t") for ln in (work / "out.tsv").read_text().splitlines()]
        keep = [i for i, v in enumerate(laws[0]) if v != "6"]  # vertex 6's column goes
        (work / "out.tsv").write_text(
            "".join("\t".join(ln[i] for i in keep) + "\n" for ln in laws)
        )
        files = {f: str(work / f) for f in ("tree.txt", "kernel.txt", "known.txt",
                                            "in.tsv", "out.tsv")}
        for argv in (
            ["forward", "--tree-file", files["tree.txt"],
             "--kernel-file", files["kernel.txt"], "--out", str(work)],
            ["sample", "--tree-file", files["tree.txt"],
             "--kernel-file", files["kernel.txt"], "--n", "100", "--out", str(work)],
            ["invert", "--tree-file", files["tree.txt"],
             "--known-file", files["known.txt"], "--in-dist", files["in.tsv"],
             "--out-dist", files["out.tsv"], "--out", str(work)],
        ):
            code, _, err = run(capsys, *argv)
            assert code == 2, (argv[0], err)
            assert err.startswith("error 2 FormatError"), (argv[0], err)
            assert "vertex 4 of a chain has 0 children" in err, (argv[0], err)

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "forward", "--tree-file", str(tmp_path / "nope.txt"),
            "--kernel-file", str(tmp_path / "nope2.txt"),
        )
        assert code == 2

    def test_report_path_is_a_directory_exit_2(self, tmp_path, capsys):
        run(capsys, "gen", "--tree", "star", "--l", "1", "--n", "2", "--out", str(tmp_path))
        argv = recovery_argv(capsys, tmp_path, "invert")
        (tmp_path / "report.txt").mkdir()
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        path = tmp_path / "report.txt"
        assert err == f"error 2 IsADirectoryError: [Errno 21] Is a directory: '{path}'\n"

    def test_malformed_tree_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("tree 2 0\nedge 0 x\n")
        code, _, err = run(
            capsys, "forward", "--tree-file", str(bad),
            "--kernel-file", str(bad),
        )
        assert code == 2

    def test_plain_tree_where_augmented_needed_exit_2(self, tmp_path, capsys):
        from treetomo.formats import dump_tree, write_text
        from treetomo.tree_model import segment

        p = tmp_path / "plain.txt"
        write_text(p, dump_tree(segment(0, 2)))
        code, _, err = run(
            capsys, "forward", "--tree-file", str(p), "--kernel-file", str(p)
        )
        assert code == 2

    @pytest.mark.parametrize("name, line, token", [
        ("out.tsv", 0, "nan"), ("out.tsv", 1, "nan"), ("known.txt", 1, "inf"),
        ("in.tsv", -1, "nan"),
    ])
    def test_non_finite_token_exit_2(self, tmp_path, capsys, name, line, token):
        # a non-finite float is malformed input, not an out-of-range recovery
        work = tmp_path / "w"
        run(capsys, "gen", "--tree", "star", "--l", "1", "--n", "2",
            "--seed", "3", "--out", str(work))
        argv = recovery_argv(capsys, work, "invert")
        lines = (work / name).read_text().splitlines()
        lines[line] = re.sub(r"[0-9.e-]+$", token, lines[line])
        (work / name).write_text("\n".join(lines) + "\n")
        code, _, err = run(capsys, *argv)
        assert code == 2, err
        assert err.startswith("error 2 FormatError"), err

    def test_random_tree_without_rout_exit_2(self, capsys):
        # a flag value the library rejects is a usage error, as argparse's own are
        code, _, err = run(capsys, "roundtrip", "--tree", "random")
        assert code == 2
        assert err.startswith("error 2 InvalidParameter")

    @pytest.mark.parametrize("argv, want", [
        (["gen", "--tree", "star", "--n", "2"], "error 2 InvalidParameter"),  # no --l
        (["gen", "--tree", "star", "--l", "1", "--n", "2", "--floor", "2"],
         "error 2 InvalidParameter"),
        (["gen", "--tree", "star", "--l", "1", "--n", "12", "--floor", "0.09"],
         "error 2 InvalidParameter"),  # 12 floors of 0.09 exceed a row
        (["gen", "--tree", "segment", "--l", "0"], "error 2 InvalidParameter"),
        (["gen", "--tree", "segment"],
         "error 2 InvalidParameter: segment builtin requires --l"),
        (["sample", "--n", "0"], "error 2 InvalidParameter"),
        (["sample", "--n", "10", "--workers", "0"], "error 2 InvalidParameter"),
        (["consistency", "--tree", "star", "--l", "1", "--n", "2", "--n-grid", "a,b"],
         "usage:"),
        (["consistency", "--tree", "star", "--l", "1", "--n", "2", "--workers", "2"],
         "usage:"),
        (["gen", "--tree", "random", "--rout", "40"], "error 2 InvalidParameter"),
        # seeds and counts numpy would reject, or that overflow the count array
        (["gen", "--tree", "star", "--l", "1", "--n", "2", "--seed", "-1"],
         "error 2 InvalidParameter"),
        (["gen", "--tree", "random", "--rout", "3", "--seed", "-4"], "error 2 InvalidParameter"),
        (["roundtrip", "--tree", "star", "--l", "1", "--n", "2", "--seed", "-1"],
         "error 2 InvalidParameter"),
        (["sample", "--n", "10", "--seed", "-1"], "error 2 InvalidParameter"),
        (["sample", "--n", str(2**63)], "error 2 InvalidParameter"),
        (["consistency", "--tree", "star", "--l", "1", "--n", "2", "--seeds", "-2"],
         "error 2 InvalidParameter"),
    ], ids=["star-no-l", "floor-2", "floor-sum", "segment-l-0", "segment-no-l", "sample-n-0",
            "sample-workers-0", "n-grid", "consistency-workers", "random-rout-40",
            "gen-seed-neg", "random-seed-neg", "roundtrip-seed-neg", "sample-seed-neg",
            "sample-n-2-63", "consistency-seeds-neg"])
    def test_bad_flag_value_exit_2(self, tmp_path, capsys, monkeypatch, argv, want):
        # sample reads a valid augmentation by chains of length 3
        monkeypatch.chdir(tmp_path)
        aug = spherical_augmentation(star(1, 2), 3)
        write_text("tree.txt", dump_tree(aug))
        write_text("kernel.txt", dump_kernel(random_kernel(aug, 0)))
        files = {"sample": ["--tree-file", "tree.txt", "--kernel-file", "kernel.txt"]}
        code, _, err = run(capsys, argv[0], *files.get(argv[0], []), *argv[1:])
        assert code == 2, err
        assert err.startswith(want), err

    @pytest.mark.parametrize("argv", [["--version"], ["--help"],
                                      *([cmd, "--help"] for cmd in COMMANDS)])
    def test_help_and_version_exit_0(self, capsys, argv):
        # argparse answers these itself; main returns its code, it does not
        # raise.  The second run formats from the parser the first one built
        first = run(capsys, *argv)
        assert run(capsys, *argv) == first
        code, out, _ = first
        assert code == 0
        if argv == ["--version"]:
            assert out == f"{treetomo.__version__}\n"
        else:
            assert out.startswith(" ".join(["usage: treetomo", *argv[:-1], "[-h]"])), out

    @pytest.mark.parametrize("text, message", INVALID_TREES.values(), ids=INVALID_TREES)
    def test_invalid_tree_file_exit_2(self, tmp_path, capsys, text, message):
        bad = str(tmp_path / "tree.txt")
        write_text(bad, text)
        for argv in (
            ["gen", "--tree", bad],
            ["forward", "--tree-file", bad, "--kernel-file", bad],
            ["sample", "--tree-file", bad, "--kernel-file", bad, "--n", "100"],
            ["invert", "--tree-file", bad, "--known-file", bad,
             "--in-dist", bad, "--out-dist", bad],
            ["estimate", "--tree-file", bad, "--known-file", bad, "--batch-file", bad],
        ):
            code, _, err = run(capsys, *argv, "--out", str(tmp_path))
            assert code == 2, (argv[0], err)
            assert err.startswith("error 2 FormatError"), (argv[0], err)
            assert message in err, (argv[0], err)

    @staticmethod
    def estimate_batch(capsys, tmp_path, lines):
        """``estimate`` on the star(1, 2) of seed 2 with a batch file of ``lines``."""
        work = str(tmp_path / "w")
        run(capsys, "gen", "--tree", "star", "--l", "1", "--n", "2",
            "--seed", "2", "--out", work)
        (tmp_path / "w" / "batch.txt").write_text("\n".join(lines) + "\n")
        return run(
            capsys, "estimate", "--tree-file", f"{work}/tree.txt",
            "--known-file", f"{work}/known.txt",
            "--batch-file", f"{work}/batch.txt", "--out", work,
        )

    def test_sparse_batch_exit_3(self, tmp_path, capsys):
        # a batch whose inner cells at R+1 = 2 are all empty holds no head,
        # which starves the recovery denominator; every walk first meets the
        # inner layer at time 4 (root, leaf, root, leaf, inner)
        code, _, err = self.estimate_batch(capsys, tmp_path, [
            "batch 4 0 64", "in 4 3 2", "in 4 4 2",
            "out 5 5 2", "out 5 6 2", "overflow 0",
        ])
        assert code == 3
        assert err.startswith("error 3 InsufficientData")

    def test_batch_without_ballistic_outer_cells_answers(self, tmp_path, capsys):
        # the heads come from the inner cells at R+1 = 2, so empty outer
        # cells at R+2 = 3 leave the recovery its denominator
        code, out, err = self.estimate_batch(capsys, tmp_path, [
            "batch 4 0 64", "in 2 3 2", "in 2 4 2",
            "out 5 5 2", "out 5 6 2", "overflow 0",
        ])
        assert code == 0, err
        assert out.startswith("flags ")

    def test_inconsistent_batch_exit_2(self, tmp_path, capsys):
        # an inner cell past the batch's own time cap cannot come from a run
        code, _, err = self.estimate_batch(capsys, tmp_path, [
            "batch 4 0 7", "in 2 3 2", "in 9 4 2",
            "out 3 5 2", "out 3 6 2", "overflow 0",
        ])
        assert code == 2
        assert err.startswith("error 2 FormatError")

    def test_short_batch_exit_2(self, tmp_path, capsys):
        # a batch cut at t_cap 6 misses the read horizon 3R+4 = 7 of star(1, 2)
        code, _, err = self.estimate_batch(capsys, tmp_path, [
            "batch 4 0 6", "in 2 3 2", "in 2 4 2",
            "out 3 5 2", "out 3 6 2", "overflow 0",
        ])
        assert code == 2
        assert err.startswith("error 2 FormatError")

    def test_batch_line_with_trailing_tokens_exit_2(self, tmp_path, capsys):
        code, _, err = self.estimate_batch(capsys, tmp_path, [
            "batch 4 0 7", "in 2 3 2", "in 2 4 2",
            "out 3 5 2 99", "out 3 6 2", "overflow 0",
        ])
        assert code == 2
        assert err.startswith("error 2 FormatError")

    def test_repeated_overflow_exit_2(self, tmp_path, capsys):
        code, _, err = self.estimate_batch(capsys, tmp_path, [
            "batch 4 0 7", "in 2 3 2", "in 2 4 2",
            "out 3 5 2", "out 3 6 2", "overflow 0", "overflow 0",
        ])
        assert code == 2, err
        assert err.startswith("error 2 FormatError"), err

    @pytest.mark.parametrize("command", ["forward", "sample", "invert", "estimate"])
    def test_repeated_mode_header_exit_2(self, tmp_path, capsys, command):
        # a second header could switch the mode of the rows that follow it
        work = tmp_path / "w"
        run(capsys, "gen", "--tree", "star", "--l", "1", "--n", "2",
            "--seed", "2", "--out", str(work))
        if command in ("forward", "sample"):
            name = "kernel.txt"
            extra = ["--n", "100"] if command == "sample" else []
            argv = [command, "--tree-file", str(work / "tree.txt"),
                    "--kernel-file", str(work / name), *extra, "--out", str(work)]
        else:
            name, argv = "known.txt", recovery_argv(capsys, work, command)
        with open(work / name, "a", encoding="utf-8") as fh:
            fh.write("mode float\n")
        code, _, err = run(capsys, *argv)
        assert code == 2, err
        assert err.startswith("error 2 FormatError: repeated header"), err

    @pytest.mark.parametrize("command", ["invert", "estimate"])
    @pytest.mark.parametrize("row", [
        "row 0", "row 5 2:0.5 9:0.5", "row 4 3:0.7 6:0.7", "row 7 5:1", "row 42 5:1",
    ], ids=["empty-root-row", "off-tree-cell", "row-sum", "outer-vertex", "off-tree-row"])
    def test_invalid_given_row_exit_2(self, tmp_path, capsys, command, row):
        # segment(1, 2): base 0..3, vertex 4 added below 3, inner 5, 6 over outer 7, 8
        work = tmp_path / "w"
        run(capsys, "gen", "--tree", "segment", "--k", "1", "--l", "2",
            "--seed", "5", "--out", str(work))
        argv = recovery_argv(capsys, work, command)
        known = work / "known.txt"
        u = row.split()[1]
        lines = [ln for ln in known.read_text().splitlines() if not ln.startswith(f"row {u} ")]
        known.write_text("\n".join([*lines, row]) + "\n")
        code, _, err = run(capsys, *argv)
        assert code == 2, err
        assert err.startswith("error 2 InvalidKernel"), err

    @pytest.mark.parametrize("command", ["invert", "estimate"])
    def test_empty_outer_row_is_kept(self, tmp_path, capsys, command):
        # star(1, 2): a row without cells is valid on outer vertex 5, and the
        # report keeps it in its place
        work = tmp_path / "w"
        run(capsys, "gen", "--tree", "star", "--l", "1", "--n", "2",
            "--seed", "3", "--out", str(work))
        argv = recovery_argv(capsys, work, command)
        assert run(capsys, *argv)[0] == 0
        lines = (work / "report.txt").read_text().splitlines()
        with open(work / "known.txt", "a", encoding="utf-8") as fh:
            fh.write("row 5\n")
        assert run(capsys, *argv)[0] == 0
        at = next(i for i, ln in enumerate(lines) if ln.startswith("row 4 ")) + 1
        assert (work / "report.txt").read_text().splitlines() == \
            [*lines[:at], "row 5", *lines[at:]]

    def test_kernel_id_outside_intp_exit_2(self, tmp_path, capsys):
        # refused where the file is read, before any check against the tree
        work = tmp_path / "w"
        run(capsys, "gen", "--tree", "segment", "--k", "1", "--l", "2",
            "--seed", "5", "--out", str(work))
        with open(work / "kernel.txt", "a", encoding="utf-8") as fh:
            fh.write("row 100000000000000000000000 -1:0.5\n")
        code, _, err = run(capsys, "forward", "--tree-file", str(work / "tree.txt"),
                           "--kernel-file", str(work / "kernel.txt"), "--out", str(work))
        assert code == 2, err
        assert err == ("error 2 FormatError: bad kernel line 'row 100000000000000000000000 "
                       "-1:0.5': vertex id 100000000000000000000000 outside intp\n")

    @pytest.mark.parametrize("exc", [InvalidQuery("probe"), RuntimeError("probe")],
                             ids=["library-error", "other-error"])
    def test_unmapped_error_exits_5(self, tmp_path, capsys, monkeypatch, exc):
        # a library error with no exit code of its own, and any other
        # exception, are internal errors
        work = tmp_path / "w"
        run(capsys, "gen", "--tree", "segment", "--k", "1", "--l", "2",
            "--seed", "5", "--out", str(work))

        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr("treetomo.cli.hitting_laws", fail)
        code, _, err = run(capsys, "forward", "--tree-file", str(work / "tree.txt"),
                           "--kernel-file", str(work / "kernel.txt"), "--out", str(work))
        assert (code, err) == (5, f"error 5 {type(exc).__name__}: probe\n")

    def test_module_entry_exits_with_main(self):
        # python -m treetomo.cli runs main and exits with its code
        done = subprocess.run([sys.executable, "-m", "treetomo.cli", "--version"],
                              capture_output=True, text=True, env=package_env(), timeout=60)
        assert (done.returncode, done.stdout) == (0, f"{treetomo.__version__}\n"), done.stderr
        assert treetomo.__version__ == "0.1.0"

    @pytest.mark.parametrize("command", ["forward", "sample"])
    def test_kernel_row_off_the_tree_exit_2(self, tmp_path, capsys, command):
        work = tmp_path / "w"
        run(capsys, "gen", "--tree", "segment", "--k", "1", "--l", "2",
            "--seed", "5", "--out", str(work))
        with open(work / "kernel.txt", "a", encoding="utf-8") as fh:
            fh.write("row 42 5:1\n")
        extra = ["--n", "100"] if command == "sample" else []
        code, _, err = run(capsys, command, "--tree-file", str(work / "tree.txt"),
                           "--kernel-file", str(work / "kernel.txt"), *extra,
                           "--out", str(work))
        assert code == 2, err
        assert err.startswith("error 2 InvalidKernel: OffTree at vertex 42"), err

    def test_batch_cell_off_its_layer_exit_2(self, tmp_path, capsys):
        # a sampled batch edited so one inner contact sits on the root
        work = str(tmp_path / "w")
        run(capsys, "gen", "--tree", "star", "--l", "1", "--n", "2",
            "--seed", "2", "--out", work)
        run(capsys, "sample", "--tree-file", f"{work}/tree.txt",
            "--kernel-file", f"{work}/kernel.txt", "--n", "20000",
            "--seed", "8", "--out", work)
        path = tmp_path / "w" / "batch.txt"
        text = path.read_text()
        edited = text.replace("\nin 2 3 ", "\nin 2 0 ")
        assert edited != text
        path.write_text(edited)
        code, _, err = run(
            capsys, "estimate", "--tree-file", f"{work}/tree.txt",
            "--known-file", f"{work}/known.txt",
            "--batch-file", f"{work}/batch.txt",
        )
        assert code == 2
        assert err.startswith("error 2 FormatError")

    @pytest.mark.parametrize("command", ["invert", "estimate"])
    def test_reference_from_another_tree_exit_2(self, tmp_path, capsys, command):
        # star(1, 2) recovers the root's row over {1, 2}; in segment(0, 1) the
        # root's row holds vertex 1 alone, so it is no chain on star(1, 2)
        work, other = tmp_path / "w", tmp_path / "other"
        run(capsys, "gen", "--tree", "star", "--l", "1", "--n", "2",
            "--seed", "2", "--out", str(work))
        run(capsys, "gen", "--tree", "segment", "--k", "0", "--l", "1",
            "--seed", "2", "--out", str(other))
        code, _, err = run(capsys, *recovery_argv(capsys, work, command),
                           "--reference", str(other / "kernel.txt"))
        assert code == 2, err
        assert err == "error 2 InvalidKernel: Support at vertex 0: [1] != [1, 2]\n", err

    @staticmethod
    def reference_without(work, cut):
        """``kernel.txt`` of ``work`` with the cells ``cut`` (``(u, v)`` pairs) left out."""
        lines = []
        for line in (work / "kernel.txt").read_text().splitlines():
            parts = line.split()
            if parts[0] == "row":
                parts[2:] = [c for c in parts[2:]
                             if (int(parts[1]), int(c.split(":")[0])) not in cut]
            lines.append(" ".join(parts))
        reference = work / "reference.txt"
        reference.write_text("\n".join(lines) + "\n")
        return reference

    @pytest.mark.parametrize("command", ["invert", "estimate"])
    def test_reference_without_a_middle_entry_exit_2(self, tmp_path, capsys, command):
        # star(1, 2): rows 1 and 2 lie between the root and the inner layer {3, 4}
        work = tmp_path / "w"
        run(capsys, "gen", "--tree", "star", "--l", "1", "--n", "2",
            "--seed", "2", "--out", str(work))
        argv = recovery_argv(capsys, work, command)
        code, out, err = run(capsys, *argv, "--reference",
                             str(self.reference_without(work, {(2, 4)})))
        assert code == 2, (out, err)
        assert err == "error 2 InvalidKernel: Support at vertex 2: [0] != [0, 4]\n", err
        assert "max_error" not in out

    @pytest.mark.parametrize("command", ["invert", "estimate"])
    def test_reference_without_two_entries_names_the_first_in_table_order(
            self, tmp_path, capsys, command):
        # the root's row and row 2 each lose one entry; validation names the
        # first faulty row in vertex order, the root's
        work = tmp_path / "w"
        run(capsys, "gen", "--tree", "star", "--l", "1", "--n", "2",
            "--seed", "2", "--out", str(work))
        argv = recovery_argv(capsys, work, command)
        code, _, err = run(capsys, *argv, "--reference",
                           str(self.reference_without(work, {(0, 1), (2, 0)})))
        assert code == 2, err
        assert err == "error 2 InvalidKernel: Support at vertex 0: [2] != [1, 2]\n", err

    @pytest.mark.parametrize("mode", ["float", "rational"])
    @pytest.mark.parametrize("command", ["invert", "estimate"])
    def test_reference_cells_in_any_order(self, tmp_path, capsys, command, mode):
        # the reference is compared with the answer in (u, v) order: with each
        # row's cells written in reverse, stdout and the report are the same
        work = tmp_path / "w"
        run(capsys, "gen", "--tree", "star", "--l", "1", "--n", "3", "--scope", "all",
            "--seed", "2", "--mode", mode, "--out", str(work))
        argv = recovery_argv(capsys, work, command)
        flipped = work / "flipped.txt"
        flipped.write_text("".join(
            " ".join(p[:2] + p[:1:-1] if (p := ln.split())[0] == "row" else p) + "\n"
            for ln in (work / "kernel.txt").read_text().splitlines()))
        assert flipped.read_text() != (work / "kernel.txt").read_text()
        seen = []
        for reference in (work / "kernel.txt", flipped):
            code, out, err = run(capsys, *argv, "--reference", str(reference))
            assert code == 0, err
            seen.append((out, (work / "report.txt").read_bytes()))
        assert seen[0] == seen[1]
        assert "max_error " in seen[0][0]

    @pytest.mark.parametrize("command", ["invert", "estimate"])
    def test_invalid_reference_exit_2(self, tmp_path, capsys, command):
        # segment(1, 2): the reference holds every recovered entry, but its
        # root row sums to 1.4 and it has a row for a vertex off the tree
        work = tmp_path / "w"
        run(capsys, "gen", "--tree", "segment", "--k", "1", "--l", "2",
            "--seed", "5", "--out", str(work))
        argv = recovery_argv(capsys, work, command)
        reference = work / "reference.txt"
        lines = (work / "kernel.txt").read_text().splitlines()
        reference.write_text("\n".join(
            "row 0 1:0.9 3:0.5" if ln.startswith("row 0 ") else ln for ln in lines
        ) + "\nrow 42 5:1\n")
        code, out, err = run(capsys, *argv, "--reference", str(reference))
        assert code == 2, (out, err)
        assert err.startswith("error 2 InvalidKernel"), err
        assert "max_error" not in out

    def test_float_reference_of_a_rational_answer_exit_2(self, tmp_path, capsys):
        # an exact entry less a float one is a float, not an exact error: the
        # float kernel of the same command line is refused as the reference
        work, image = tmp_path / "w", tmp_path / "f"
        for mode, out in (("rational", work), ("float", image)):
            run(capsys, "gen", "--tree", "star", "--l", "1", "--n", "2", "--seed", "3",
                "--mode", mode, "--out", str(out))
        code, out, err = run(capsys, *recovery_argv(capsys, work, "invert"),
                             "--reference", str(image / "kernel.txt"))
        assert code == 2, (out, err)
        assert err == "error 2 FormatError: a rational answer needs a rational reference kernel\n"
        assert "max_error" not in out

    @pytest.mark.parametrize("command", ["invert", "estimate"])
    def test_known_file_missing_row_exit_0(self, tmp_path, capsys, command):
        # inner vertex 3 of star(1, 2) has no known row: it is recovered from
        # the laws, as every row the known file lacks, and max_error counts it
        work = tmp_path / "w"
        mode = "rational" if command == "invert" else "float"
        run(capsys, "gen", "--tree", "star", "--l", "1", "--n", "2",
            "--seed", "2", "--mode", mode, "--out", str(work))
        argv = recovery_argv(capsys, work, command)
        known = work / "known.txt"
        lines = known.read_text().splitlines()
        known.write_text("\n".join(ln for ln in lines if not ln.startswith("row 3 ")) + "\n")
        code, out, err = run(capsys, *argv, "--reference", str(work / "kernel.txt"))
        assert code == 0, err
        report = (work / "report.txt").read_text().splitlines()
        assert [ln for ln in report if ln.startswith("row 3 ")], report
        if command == "invert":
            truth = (work / "kernel.txt").read_text().splitlines()
            assert [ln for ln in truth if ln.startswith("row 3 ")][0] in report
            assert "max_error 0\n" in out
        else:
            assert float(out.split()[1]) < 0.1, out

    @pytest.mark.parametrize("command", ["forward", "sample"])
    def test_invalid_kernel_exit_2(self, tmp_path, capsys, command):
        # star(1, 2) with a root row that sums to 0.7
        work = tmp_path / "w"
        run(capsys, "gen", "--tree", "star", "--l", "1", "--n", "2",
            "--seed", "2", "--out", str(work))
        kernel = work / "kernel.txt"
        lines = kernel.read_text().splitlines()
        kernel.write_text("\n".join(
            "row 0 1:0.5 2:0.2" if ln.startswith("row 0 ") else ln for ln in lines
        ) + "\n")
        extra = ["--n", "100"] if command == "sample" else []
        code, _, err = run(capsys, command, "--tree-file", str(work / "tree.txt"),
                           "--kernel-file", str(kernel), *extra, "--out", str(work))
        assert code == 2, err
        assert err.startswith("error 2 InvalidKernel: RowSum at vertex 0"), err

    def test_decimal_laws_under_rational_kernel_exit_2(self, tmp_path, capsys):
        # float-text laws would make a "mode rational" report whose rows are
        # not exact
        work = tmp_path / "w"
        run(capsys, "gen", "--tree", "segment", "--k", "0", "--l", "2", "--mode", "rational",
            "--seed", "5", "--out", str(work))
        run(capsys, "forward", "--tree-file", str(work / "tree.txt"),
            "--kernel-file", str(work / "kernel.txt"), "--out", str(work))
        for name in ("in.tsv", "out.tsv"):
            path = work / name
            head, *lines = path.read_text().splitlines()
            path.write_text("".join([head + "\n"] + [
                "\t".join([t, d, *(repr(int(n) / int(d)) for n in cells)]) + "\n"
                for t, d, *cells in map(str.split, lines)
            ]))
        code, _, err = run(
            capsys, "invert", "--tree-file", str(work / "tree.txt"),
            "--known-file", str(work / "known.txt"),
            "--in-dist", str(work / "in.tsv"), "--out-dist", str(work / "out.tsv"),
            "--reference", str(work / "kernel.txt"), "--out", str(work),
        )
        assert code == 2, err
        assert err.startswith("error 2 FormatError: bad rational probability token"), err

    def test_inward_entry_out_of_range_exit_4(self, tmp_path, capsys):
        # broom(1, 2): outer arrivals of shell 1 raised by 1/32 give vertex 1
        # child entries summing past 1, each of them still in (0, 1]
        work = tmp_path / "w"
        base = tmp_path / "base.txt"
        base.write_text(dump_tree(build_tree([(0, 1), (1, 2), (1, 3)], 0)))
        run(capsys, "gen", "--tree", str(base), "--mode", "rational", "--scope", "all",
            "--seed", "3", "--out", str(work))
        run(capsys, "forward", "--tree-file", str(work / "tree.txt"),
            "--kernel-file", str(work / "kernel.txt"), "--out", str(work))
        path = work / "out.tsv"
        head, *lines = path.read_text().splitlines()
        edited = [head]
        for t, d, *cells in map(str.split, lines):
            if t == "8":  # 3R+4-2k at R = 2, k = 1: raised by 33/32
                d, cells = str(int(d) * 32), [str(int(n) * 33) for n in cells]
            edited.append("\t".join([t, d, *cells]))
        path.write_text("\n".join(edited) + "\n")
        code, _, err = run(
            capsys, "invert", "--tree-file", str(work / "tree.txt"),
            "--known-file", str(work / "known.txt"),
            "--in-dist", str(work / "in.tsv"), "--out-dist", str(path), "--out", str(work),
        )
        assert code == 4, err
        assert err.startswith("error 4 RowSumViolation: inward entry of vertex 1 is -0."), err

    def test_swapped_laws_exit_2(self, tmp_path, capsys):
        # horizon 12 > 3R+4, so both files also cover the time range needed
        work = str(tmp_path / "w")
        run(capsys, "gen", "--tree", "segment", "--k", "1", "--l", "2",
            "--seed", "5", "--out", work)
        write_laws(work, 12)
        code, _, err = run(
            capsys, "invert", "--tree-file", f"{work}/tree.txt",
            "--known-file", f"{work}/known.txt",
            "--in-dist", f"{work}/out.tsv", "--out-dist", f"{work}/in.tsv",
            "--out", work,
        )
        assert code == 2
        assert err.startswith("error 2 FormatError")


class TestKnownFileWithNoRow:
    """A known file that holds only its mode line: every row off the outer
    layer is recovered from the laws alone."""

    @staticmethod
    def rows(path):
        return [ln for ln in path.read_text().splitlines() if ln.startswith("row ")]

    @staticmethod
    def keep_mode_line(work):
        known = work / "known.txt"
        known.write_text(known.read_text().splitlines()[0] + "\n")

    @pytest.mark.parametrize("mode", ["float", "rational"])
    def test_invert_recovers_every_row(self, tmp_path, capsys, mode):
        work = tmp_path / "w"
        run(capsys, "gen", "--tree", "random", "--rout", "3", "--seed", "5", "--scope", "all",
            "--mode", mode, "--out", str(work))
        argv = recovery_argv(capsys, work, "invert")
        self.keep_mode_line(work)
        code, out, err = run(capsys, *argv, "--reference", str(work / "kernel.txt"))
        assert code == 0, err
        truth, answer = self.rows(work / "kernel.txt"), self.rows(work / "report.txt")
        assert [ln.split()[1] for ln in answer] == [ln.split()[1] for ln in truth]
        if mode == "rational":
            assert answer == truth
            assert "max_error 0\n" in out
        else:
            assert float(out.split("max_error ")[1]) < 1e-9, out

    def test_estimate_recovers_every_row(self, tmp_path, capsys):
        # the criterion-8 star, read with a "mode float" known file
        work = tmp_path / "w"
        run(capsys, "gen", "--tree", "star", "--l", "1", "--n", "2", "--seed", "3",
            "--out", str(work))
        argv = recovery_argv(capsys, work, "estimate")
        self.keep_mode_line(work)
        code, out, err = run(capsys, *argv, "--reference", str(work / "kernel.txt"))
        assert code == 0, err
        assert len(self.rows(work / "report.txt")) == len(self.rows(work / "kernel.txt"))
        assert float(out.split()[1]) < 0.1, out

    @pytest.mark.parametrize("mode, value", [("rational", "4.428108108108108"),
                                             ("float", "4.496750369492742")])
    def test_tampered_first_outer_cell_exit_4(self, tmp_path, capsys, mode, value):
        # star(1, 2): the t = 3 cell of outer vertex 5 set to 1 (its line's
        # denominator, rational) or to 0.99 (float) is read only to solve the
        # inner row of vertex 3.  With row 3 given, the same edited file exits
        # 0 with max_error 0; catching that waits for the replay of every
        # answer through the forward DP (ROADMAP item 1)
        work = tmp_path / "w"
        run(capsys, "gen", "--tree", "star", "--l", "1", "--n", "2", "--seed", "2",
            "--mode", mode, "--out", str(work))
        argv = recovery_argv(capsys, work, "invert")
        path = work / "out.tsv"
        head, first, *rest = path.read_text().splitlines()
        assert head.split("\t")[1] == "5" and first.startswith("3\t")
        cells = first.split("\t")
        if mode == "rational":  # the time, its denominator D, then vertex 5's numerator
            cells[2] = cells[1]
        else:
            cells[1] = "0.99"
        path.write_text("\n".join([head, "\t".join(cells), *rest]) + "\n")
        known = work / "known.txt"
        lines = known.read_text().splitlines()
        known.write_text("\n".join(ln for ln in lines if not ln.startswith("row 3 ")) + "\n")
        assert run(capsys, *argv) == (
            4, "", f"error 4 OutOfRange: recovered t(3,5) = {value} outside (0, 1]\n")


class TestParserReuse:
    """One parser serves every ``main`` call of a process, and no call leaves
    state in it that a later call can see."""

    SEQUENCE = [
        ["consistency", "--tree", "star", "--l", "1", "--n", "2", "--workers", "2"],
        ["--version"],
        ["--help"],
        ["gen", "--help"],
        ["gen", "--tree", "star", "--l", "1", "--n", "2", "--seed", "3",
         "--mode", "rational", "--scope", "all", "--out", "a"],
        ["gen", "--tree", "random", "--rout", "2", "--seed", "5", "--out", "b"],
        ["forward", "--tree-file", "b/tree.txt", "--kernel-file", "b/kernel.txt", "--out", "b"],
        ["invert", "--tree-file", "b/tree.txt", "--known-file", "b/known.txt",
         "--in-dist", "b/in.tsv", "--out-dist", "b/out.tsv", "--reference", "b/kernel.txt",
         "--out", "b/ref"],
        ["invert", "--tree-file", "b/tree.txt", "--known-file", "b/known.txt",
         "--in-dist", "b/in.tsv", "--out-dist", "b/out.tsv", "--out", "b/plain"],
    ]

    @staticmethod
    def files(root):
        return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*"))
                if p.is_file()}

    def test_same_results_as_a_fresh_parser(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "shared").mkdir()
        monkeypatch.chdir(tmp_path / "shared")
        build_parser.cache_clear()
        shared = [run(capsys, *argv) for argv in self.SEQUENCE]
        assert build_parser.cache_info().misses == 1
        (tmp_path / "fresh").mkdir()
        monkeypatch.chdir(tmp_path / "fresh")
        fresh = []
        for argv in self.SEQUENCE:
            build_parser.cache_clear()
            fresh.append(run(capsys, *argv))
        assert shared == fresh
        assert self.files(tmp_path / "shared") == self.files(tmp_path / "fresh")
        codes = [code for code, _, _ in shared]
        assert codes == [2, 0, 0, 0, 0, 0, 0, 0, 0]
        assert "usage:" in shared[0][2]
        assert "max_error " in shared[-2][1]
        assert "max_error" not in shared[-1][1]


class TestCellsPastTheHorizon:
    """A law or batch cell past the read horizon is checked and then ignored,
    at any time, also one past the range of a 64-bit integer."""

    @staticmethod
    def same_report(tmp_path, capsys, command, edit):
        # segment(1, 2), R = 2: inner layer {5, 6}, outer layer {7, 8}
        work = tmp_path / "w"
        run(capsys, "gen", "--tree", "segment", "--k", "1", "--l", "2",
            "--seed", "5", "--out", str(work))
        argv = recovery_argv(capsys, work, command)
        code, _, err = run(capsys, *argv)
        assert code == 0, err
        clean = (work / "report.txt").read_bytes()
        edit(work)
        code, _, err = run(capsys, *argv)
        assert code == 0, err
        assert (work / "report.txt").read_bytes() == clean

    @pytest.mark.parametrize("name", ["out.tsv", "in.tsv"], ids=["outer", "inner"])
    def test_law_cell_past_int64_is_ignored(self, tmp_path, capsys, name):
        def edit(work):  # a time line at 2**63, 0.1 in every column
            text = (work / name).read_text()
            columns = len(text.split("\n", 1)[0].split()) - 1
            (work / name).write_text(text + f"{2**63}" + "\t0.1" * columns + "\n")
        self.same_report(tmp_path, capsys, "invert", edit)

    def test_batch_cell_past_int64_is_ignored(self, tmp_path, capsys):
        # one overflowing walk moved to an outer arrival at 1e20 <= t_cap 1e23:
        # the totals hold and every cell up to 3R+4 is unchanged
        def edit(work):
            path = work / "batch.txt"
            header, *cells, overflow = path.read_text().splitlines()
            n, seed, _ = header.split()[1:]
            left = int(overflow.split()[1]) - 1
            assert left >= 0
            path.write_text("\n".join([f"batch {n} {seed} {10**23}", *cells,
                                       f"out {10**20} 7 1", f"overflow {left}"]) + "\n")
        self.same_report(tmp_path, capsys, "estimate", edit)


# Runs cli.main on each argv of a JSON list read from stdin under a 3 GiB
# address-space cap, so an allocation that grows with a token's value fails
# as a MemoryError (exit 5) instead of exhausting the host, and prints each
# exit code with its stderr.
_CAPPED_MAIN = """
import contextlib, io, json, resource, sys
from treetomo.cli import main
soft, hard = resource.getrlimit(resource.RLIMIT_AS)
cap = 3 << 30 if hard == resource.RLIM_INFINITY else min(3 << 30, hard)
resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
out = []
for argv in json.load(sys.stdin):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        out.append([main(argv), err.getvalue()])
print(json.dumps(out))
"""


class TestCorruptTokens:
    TOKENS = ("9223372036854775808", str(10**23), "-1", "nan", "1/0", "x")
    # each artifact, and the commands that read it
    READERS = {
        "tree.txt": ("gen", "forward", "sample", "invert", "estimate"),
        "kernel.txt": ("forward", "sample", "invert", "estimate"),
        "known.txt": ("invert", "estimate"),
        "in.tsv": ("invert",),
        "out.tsv": ("invert",),
        "batch.txt": ("estimate",),
    }

    @staticmethod
    def argv(command, files, out):
        tree, kernel = files["tree.txt"], files["kernel.txt"]
        return {
            "gen": ["gen", "--tree", tree],
            "forward": ["forward", "--tree-file", tree, "--kernel-file", kernel],
            "sample": ["sample", "--tree-file", tree, "--kernel-file", kernel, "--n", "1000"],
            "invert": ["invert", "--tree-file", tree, "--known-file", files["known.txt"],
                       "--in-dist", files["in.tsv"], "--out-dist", files["out.tsv"],
                       "--reference", kernel],
            "estimate": ["estimate", "--tree-file", tree, "--known-file", files["known.txt"],
                         "--batch-file", files["batch.txt"], "--reference", kernel],
        }[command] + ["--out", out]

    def test_no_single_token_exits_5(self, tmp_path, capsys):
        # every value token of the first record of each kind in each artifact
        # of segment(1, 2), replaced by each of TOKENS and read by one of its
        # readers, drawn with a fixed seed; a kernel cell's vertex and
        # probability are tokens of their own.  In the law files, float and
        # rational, the tokens are the header's layer name and first vertex,
        # and the first time line's time, then D (rational) and cells
        work, exact = tmp_path / "w", tmp_path / "r"
        for out, mode in ((work, "float"), (exact, "rational")):
            run(capsys, "gen", "--tree", "segment", "--k", "1", "--l", "2",
                "--seed", "5", "--mode", mode, "--out", str(out))
            recovery_argv(capsys, out, "invert")  # writes in.tsv and out.tsv
        recovery_argv(capsys, work, "estimate")  # writes batch.txt
        rng = random.Random(18)
        cases = []
        sources = [(work, name) for name in self.READERS] + [(exact, "in.tsv"), (exact, "out.tsv")]
        for root, name in sources:
            clean = {other: str(root / other) for other in self.READERS}
            lines = (root / name).read_text().splitlines()
            if name.endswith(".tsv"):
                picks = [(0, 0), (0, 2), (1, 0), (1, 2), (1, 4)]
            else:  # piece 0 names the record
                firsts = {}
                for i, line in enumerate(lines):
                    firsts.setdefault(line.split()[0], i)
                picks = [(i, j) for i in firsts.values()
                         for j in range(2, len(re.split(r"([\s:]+)", lines[i])), 2)]
            for i, j in picks:
                pieces = re.split(r"([\s:]+)", lines[i])
                for token in self.TOKENS:
                    case = tmp_path / f"c{len(cases)}"
                    case.mkdir()
                    edited = pieces[:j] + [token] + pieces[j + 1:]
                    (case / name).write_text("\n".join(
                        lines[:i] + ["".join(edited)] + lines[i + 1:]) + "\n")
                    files = {**clean, name: str(case / name)}
                    cases.append((lines[i], token, self.argv(
                        rng.choice(self.READERS[name]), files, str(case / "out"))))
        assert len(cases) == 288
        done = subprocess.run([sys.executable, "-c", _CAPPED_MAIN], capture_output=True,
                              text=True, env=package_env(), timeout=120,
                              input=json.dumps([argv for *_, argv in cases]))
        assert done.returncode == 0, done.stderr
        results = json.loads(done.stdout)
        bad = [(line, token, argv[0], code, err) for (line, token, argv), (code, err)
               in zip(cases, results) if code not in (0, 2, 3, 4)]
        assert not bad, bad

    def test_no_random_edit_exits_5(self, tmp_path, capsys):
        # 38 edits (helpers.token_edits) at random places of each artifact of
        # random_tree(3, 5) in float mode, and of the rational kernel and
        # known files, each read by one of its readers drawn with a fixed seed
        work, exact = tmp_path / "w", tmp_path / "r"
        for out, mode in ((work, "float"), (exact, "rational")):
            run(capsys, "gen", "--tree", "random", "--rout", "3", "--seed", "5",
                "--mode", mode, "--out", str(out))
            recovery_argv(capsys, out, "invert")  # writes in.tsv and out.tsv
            recovery_argv(capsys, out, "estimate")  # writes batch.txt
        rng = random.Random(17)
        cases = []
        sources = [(work, name) for name in self.READERS] + [(exact, "kernel.txt"),
                                                             (exact, "known.txt")]
        for root, name in sources:
            clean = {other: str(root / other) for other in self.READERS}
            for text in token_edits((root / name).read_text(), rng, 38, self.TOKENS):
                case = tmp_path / f"c{len(cases)}"
                case.mkdir()
                (case / name).write_text(text)
                files = {**clean, name: str(case / name)}
                cases.append(self.argv(rng.choice(self.READERS[name]), files, str(case / "out")))
        assert len(cases) == 304
        done = subprocess.run([sys.executable, "-c", _CAPPED_MAIN], capture_output=True,
                              text=True, env=package_env(), timeout=120,
                              input=json.dumps(cases))
        assert done.returncode == 0, done.stderr
        for argv, (code, err) in zip(cases, json.loads(done.stdout)):
            assert code in (0, 2, 3, 4), (argv, err)
            assert re.fullmatch(f"error {code} [A-Za-z]+: [^\n]+\n" if code else "", err), err


class TestNumeratorEdits:
    """Rational law files of ``random_tree(3, 5)`` with one numerator moved,
    read by ``invert`` in this process."""

    @staticmethod
    def invert_argv(capsys, work):
        run(capsys, "gen", "--tree", "random", "--rout", "3", "--seed", "5",
            "--mode", "rational", "--out", str(work))
        return recovery_argv(capsys, work, "invert")

    def test_multipliers_past_2_63_exit_4(self, tmp_path, capsys):
        # vertex 26's cell at t = 4 moved from 104550 to 104655: the root
        # shell's first multiplier then lies in [2**63, 2**64), where a list
        # of it and negative ints makes a float64 array, which exited 5
        argv = self.invert_argv(capsys, tmp_path)
        lines = (tmp_path / "in.tsv").read_text().splitlines()
        i = next(i for i, ln in enumerate(lines) if ln.startswith("4\t"))
        assert lines[0].endswith("\t26") and lines[i].endswith("\t104550")
        lines[i] = lines[i][:-len("104550")] + "104655"
        (tmp_path / "in.tsv").write_text("\n".join(lines) + "\n")
        assert run(capsys, *argv) == (
            4, "", "error 4 RowSumViolation: root row sums to 1.0009930640648455, expected 1\n")

    def test_no_numerator_edit_exits_5(self, tmp_path, capsys):
        # 150 edits per law file (helpers.numerator_edits); two of them exited
        # 5 before the fix above.  The runs that exit 0 answer edited laws, as
        # nothing replays an answer through forward yet
        argv = self.invert_argv(capsys, tmp_path)
        rng, codes = random.Random(32), []
        for name in ("in.tsv", "out.tsv"):
            clean = (tmp_path / name).read_text()
            for text in numerator_edits(clean, rng, 150):
                (tmp_path / name).write_text(text)
                code, _, err = run(capsys, *argv)
                assert code in (0, 2, 3, 4), err
                assert re.fullmatch(f"error {code} [A-Za-z]+: [^\n]+\n" if code else "", err), err
                codes.append(code)
            (tmp_path / name).write_text(clean)
        assert len(codes) == 300 and codes.count(4) > 250


RIGHT, WRONG = "right", "wrong"
CENSUS_TREES = {"comb8": lambda: comb(8), "comb12": lambda: comb(12),
                "binary8": lambda: binary(8), "binary10": lambda: binary(10)}
# (tree, scope, kernel seed) -> outcome: right (max_error <= 1e-9), wrong
# (exit 0 past 1e-9) or a refusal's exit code and error; floor 0.05.  A case
# an item mends turns from wrong to right or a refusal here, and CHANGES.md
# lists the flip
CENSUS = (
    [("comb8", "all", s, RIGHT if s == 18 else WRONG) for s in range(7, 23)]
    + [("comb12", "lambda", s, WRONG if s == 10 else (4, "RowSumViolation")) for s in range(7, 23)]
    + [("binary8", "all", s, WRONG if s == 10 else RIGHT) for s in range(7, 11)]
    + [("binary10", "all", s, WRONG) for s in range(7, 11)]
)


class SilentWrongAnswer(AssertionError):
    """An exit 0 whose answer is past 1e-9 of the reference."""


class TestCensus:
    """Float answers through the law files: right or a documented refusal.

    Each case runs ``gen -> forward -> invert --reference`` in this process.
    A ``wrong`` case exits 0 past 1e-9 today, a silent wrong answer; it
    asserts "within 1e-9 or a documented refusal" under a strict xfail that
    takes only :class:`SilentWrongAnswer`, so a crash still fails it."""

    @pytest.mark.parametrize("tree, scope, seed, outcome", [
        pytest.param(*case, marks=pytest.mark.xfail(raises=SilentWrongAnswer, strict=True))
        if case[3] == WRONG else case for case in CENSUS])
    def test_right_or_refused(self, tmp_path, capsys, tree, scope, seed, outcome):
        (tmp_path / "base.txt").write_text(dump_tree(CENSUS_TREES[tree]()))
        assert run(capsys, "gen", "--tree", str(tmp_path / "base.txt"), "--scope", scope,
                   "--seed", str(seed), "--out", str(tmp_path))[0] == 0
        argv = recovery_argv(capsys, tmp_path, "invert")
        code, out, err = run(capsys, *argv, "--reference", str(tmp_path / "kernel.txt"))
        if isinstance(outcome, tuple):
            assert (code, out) == (outcome[0], "")
            assert err.startswith(f"error {outcome[0]} {outcome[1]}: "), err
            return
        assert code == 0 if outcome == RIGHT else code in (0, 2, 3, 4), err
        if code == 0 and (error := float(out.split("max_error ")[1])) > 1e-9:
            raise SilentWrongAnswer(f"max_error {error}")


class TestReadme:
    def test_command_line_examples_run(self, tmp_path, capsys, monkeypatch):
        text = (Path(__file__).parents[1] / "README.md").read_text()
        block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        lines = [ln for ln in block.replace("\\\n", " ").splitlines()
                 if ln.startswith("treetomo ")]
        assert any("--mode rational" in ln for ln in lines)
        monkeypatch.chdir(tmp_path)
        for line in lines:
            code, out, err = run(capsys, *shlex.split(line)[1:])
            assert code == 0, (line, err)
            if "--mode rational" in line:
                assert "max_error 0\n" in out, line


    def test_library_example_runs(self, capsys):
        text = (Path(__file__).parents[1] / "README.md").read_text()
        block = text.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
        scope: dict = {}
        exec(block, scope)
        assert capsys.readouterr().out
        assert scope["report"].max_error < 1e-9


class TestSeedDefault:
    def test_gen_without_seed_is_seed_0(self, tmp_path, capsys, monkeypatch):
        # the seed comes from the flags alone, never from the environment
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        monkeypatch.setenv("TREETOMO_SEED", "77")
        run(capsys, "gen", "--tree", "random", "--rout", "2", "--out", a)
        run(capsys, "gen", "--tree", "random", "--rout", "2", "--seed", "0", "--out", b)
        for name in ("tree.txt", "kernel.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
