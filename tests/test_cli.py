"""End-to-end command-line runs: artifacts, determinism, exit codes."""

from fractions import Fraction
from pathlib import Path
import re
import shlex

import pytest

from treetomo import (
    INNER,
    KNOWN,
    OUTER,
    build_tree,
    first_hitting_joint,
    random_kernel,
    recover_all,
    segment,
    spherical_augmentation,
    star,
)
from treetomo import chain_model
from treetomo.cli import main
from treetomo.formats import (
    dump_distribution,
    dump_kernel,
    dump_tree,
    parse_kernel,
    parse_tree,
    read_text,
    write_text,
)

from helpers import INVALID_TREES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


class TestPipeline:
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

    def test_forward_validates_the_kernel_once(self, tmp_path, capsys, monkeypatch):
        work = str(tmp_path / "w")
        assert run(capsys, "gen", "--tree", "star", "--l", "1", "--n", "2", "--out", work)[0] == 0
        calls = []
        validate = chain_model.validate_kernel
        monkeypatch.setattr(chain_model, "validate_kernel",
                            lambda *args: calls.append(args) or validate(*args))
        code, _, err = run(capsys, "forward", "--tree-file", f"{work}/tree.txt",
                           "--kernel-file", f"{work}/kernel.txt", "--out", work)
        assert code == 0, err
        assert len(calls) == 1

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
        code, _, _ = run(
            capsys, "consistency", "--tree", "star", "--l", "1", "--n", "2",
            "--seed", "1", "--n-grid", "1000,5000", "--seeds", "1,2",
            "--out", work,
        )
        assert code == 0
        text = (tmp_path / "w" / "consistency.tsv").read_text()
        lines = text.strip().splitlines()
        assert lines[0] == "n\tseed\tmax_error"
        assert len(lines) == 5


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
        cut = {"tree 7 0": "tree 6 0", "layer outer 5 6": "layer outer 5",
               "edge 4 6": None, "origin 6 added": None}
        tree = [cut.get(ln, ln) for ln in (work / "tree.txt").read_text().splitlines()]
        (work / "tree.txt").write_text("\n".join(ln for ln in tree if ln) + "\n")
        for name in ("kernel.txt", "known.txt"):
            text = (work / name).read_text().splitlines()
            rows = [ln for ln in text if not ln.startswith("row 4 ")] + ["row 4 2:1"]
            (work / name).write_text("\n".join(rows) + "\n")
        laws = (work / "out.tsv").read_text().splitlines()
        (work / "out.tsv").write_text(
            "\n".join(ln for ln in laws if ln.split("\t")[2] != "6") + "\n"
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

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "forward", "--tree-file", str(tmp_path / "nope.txt"),
            "--kernel-file", str(tmp_path / "nope2.txt"),
        )
        assert code == 2

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
        ("out.tsv", 0, "nan"), ("known.txt", 1, "inf"), ("in.tsv", -1, "nan"),
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
        (["sample", "--n", "0"], "error 2 InvalidParameter"),
        (["sample", "--n", "10", "--workers", "0"], "error 2 InvalidParameter"),
        (["consistency", "--tree", "star", "--l", "1", "--n", "2", "--n-grid", "a,b"],
         "usage:"),
        (["invert"], "error 2 InvalidParameter"),  # recovery reads 2-long chains only
        (["gen", "--tree", "random", "--rout", "40"], "error 2 InvalidParameter"),
    ], ids=["star-no-l", "floor-2", "floor-sum", "segment-l-0", "sample-n-0",
            "sample-workers-0", "n-grid", "invert-3-long", "random-rout-40"])
    def test_bad_flag_value_exit_2(self, tmp_path, capsys, monkeypatch, argv, want):
        # sample and invert read a valid augmentation by chains of length 3
        monkeypatch.chdir(tmp_path)
        aug = spherical_augmentation(star(1, 2), 3)
        kernel = random_kernel(aug, 0)
        write_text("tree.txt", dump_tree(aug))
        write_text("kernel.txt", dump_kernel(kernel))
        write_text("known.txt", dump_kernel(kernel.restricted_to({KNOWN})))
        write_laws(".", 3 * aug.hull_radius + 4)
        files = {
            "sample": ["--tree-file", "tree.txt", "--kernel-file", "kernel.txt"],
            "invert": ["--tree-file", "tree.txt", "--known-file", "known.txt",
                       "--in-dist", "in.tsv", "--out-dist", "out.tsv"],
        }
        code, _, err = run(capsys, argv[0], *files.get(argv[0], []), *argv[1:])
        assert code == 2, err
        assert err.startswith(want), err

    @pytest.mark.parametrize("argv", [["--version"], ["--help"], ["gen", "--help"]])
    def test_help_and_version_exit_0(self, capsys, argv):
        # argparse answers these itself; main returns its code, it does not raise
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out

    @pytest.mark.parametrize("text", INVALID_TREES.values(), ids=INVALID_TREES)
    def test_invalid_tree_file_exit_2(self, tmp_path, capsys, text):
        bad = str(tmp_path / "tree.txt")
        write_text(bad, text)
        for argv in (
            ["gen", "--tree", bad],
            ["forward", "--tree-file", bad, "--kernel-file", bad],
            ["sample", "--tree-file", bad, "--kernel-file", bad, "--n", "100"],
            ["invert", "--tree-file", bad, "--known-file", bad,
             "--in-dist", bad, "--out-dist", bad],
        ):
            code, _, err = run(capsys, *argv, "--out", str(tmp_path))
            assert code == 2, (argv[0], err)
            assert err.startswith("error 2 FormatError"), (argv[0], err)

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
        # star(1, 2) recovers row 1 over {0, 3}; in segment(0, 1) vertex 3 is
        # no neighbor of vertex 1
        work, other = tmp_path / "w", tmp_path / "other"
        run(capsys, "gen", "--tree", "star", "--l", "1", "--n", "2",
            "--seed", "2", "--out", str(work))
        run(capsys, "gen", "--tree", "segment", "--k", "0", "--l", "1",
            "--seed", "2", "--out", str(other))
        code, _, err = run(capsys, *recovery_argv(capsys, work, command),
                           "--reference", str(other / "kernel.txt"))
        assert code == 2, err
        assert err.startswith("error 2 FormatError"), err
        assert "no entry t(1,3) of vertex 1" in err

    @pytest.mark.parametrize("command", ["invert", "estimate"])
    def test_known_file_missing_row_exit_2(self, tmp_path, capsys, command):
        # inner vertex 3 of star(1, 2) carries a known row the recovery reads
        work = tmp_path / "w"
        run(capsys, "gen", "--tree", "star", "--l", "1", "--n", "2",
            "--seed", "2", "--out", str(work))
        argv = recovery_argv(capsys, work, command)
        known = work / "known.txt"
        lines = known.read_text().splitlines()
        known.write_text("\n".join(ln for ln in lines if not ln.startswith("row 3 ")) + "\n")
        code, _, err = run(capsys, *argv)
        assert code == 2, err
        assert err.startswith("error 2 MissingKnownRow"), err

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
            cells = [ln.split("\t") for ln in path.read_text().splitlines()]
            path.write_text("".join(
                f"{layer}\t{t}\t{v}\t{float(Fraction(p))!r}\n" for layer, t, v, p in cells
            ))
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
        cells = [ln.split("\t") for ln in path.read_text().splitlines()]
        raise_shell_1 = {"8": Fraction(33, 32)}  # 3R+4-2k at R = 2, k = 1
        path.write_text("".join(
            f"{layer}\t{t}\t{v}\t{Fraction(p) * raise_shell_1.get(t, 1)}\n"
            for layer, t, v, p in cells
        ))
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
