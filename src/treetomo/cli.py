"""Command-line front end.

Subcommands wire generation, forward solving, inversion, sampling,
estimation, and round-trip verification into reproducible runs.  Every
command is a pure function of its flags and input files.  Exit codes:
0 ok, 2 bad input (a malformed or inconsistent file, such as a tree that is
not a valid augmentation, or a flag or flag value that argparse or the
library rejects), 3 insufficient data, 4 out-of-range recovery, 5 internal.

``main(argv)`` may be called any number of times in one process: it returns
the exit code, never raises ``SystemExit``, and builds its parser on the
first call only.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import __version__
from .chain_model import KNOWN, random_kernel
from .errors import (
    FormatError,
    InsufficientData,
    InvalidKernel,
    InvalidParameter,
    MissingRow,
    OutOfRange,
    RowSumViolation,
    TreetomoError,
    ZeroDenominator,
)
from .estimation import collect_batch, consistency_curve, estimate_kernel
from .formats import (
    dump_batch,
    dump_distribution,
    dump_kernel,
    dump_report,
    dump_tree,
    known_lines,
    parse_batch,
    parse_distribution,
    parse_kernel,
    parse_tree,
    read_text,
    write_text,
)
from .forward_solver import hitting_laws
from .tomography import recover_all
from .tree_model import (
    AugmentedTree,
    random_tree,
    segment,
    spherical_augmentation,
    star,
)

EXIT_OK = 0
EXIT_FORMAT = 2
EXIT_INSUFFICIENT = 3
EXIT_OUT_OF_RANGE = 4
EXIT_INTERNAL = 5

WORKERS_HELP = "must be >= 1; has no effect, the sampler draws counts, not walks"
KNOWN_HELP = "the mode and any given rows; every row it lacks off the outer layer is recovered"


def _tree_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tree", required=True, help="star, segment, random, or a tree file path")
    p.add_argument("--rout", type=int, help="outer radius for --tree random")
    p.add_argument("--l", type=int, help="arm length for star/segment builtins")
    p.add_argument("--n", type=int, help="branch count for the star builtin")
    p.add_argument("--k", type=int, default=0, help="second arm length for segment")


def _ints(text: str) -> list[int]:
    return [int(x) for x in text.split(",")]


def _kernel_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=["float", "rational"], default="float")
    p.add_argument("--floor", type=float, default=0.05)
    p.add_argument("--scope", choices=["lambda", "all"], default="lambda")


def _resolve_tree(args: argparse.Namespace) -> AugmentedTree:
    if args.tree == "random":
        if args.rout is None:
            raise InvalidParameter("--tree random requires --rout")
        tree = random_tree(args.rout, args.seed)
    elif args.tree == "star":
        if args.l is None or args.n is None:
            raise InvalidParameter("star builtin requires --l and --n")
        tree = star(args.l, args.n)
    elif args.tree == "segment":
        if args.l is None:
            raise InvalidParameter("segment builtin requires --l (and optionally --k)")
        tree = segment(args.k, args.l)
    else:
        tree = parse_tree(read_text(args.tree))
    return tree if isinstance(tree, AugmentedTree) else spherical_augmentation(tree, 2)


def _load_aug(path: str) -> AugmentedTree:
    tree = parse_tree(read_text(path))
    if not isinstance(tree, AugmentedTree):
        raise FormatError(f"{path} holds a plain tree, an augmented tree is required")
    return tree


def _outdir(args: argparse.Namespace) -> Path:
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _gen_objects(args: argparse.Namespace):
    aug = _resolve_tree(args)
    return aug, random_kernel(aug, args.seed, floor=args.floor, scope=args.scope, mode=args.mode)


def cmd_gen(args: argparse.Namespace) -> int:
    aug, kernel = _gen_objects(args)
    out = _outdir(args)
    write_text(out / "tree.txt", dump_tree(aug))
    write_text(out / "kernel.txt", text := dump_kernel(kernel))
    write_text(out / "known.txt", known_lines(kernel, text))
    print(f"tree {aug.full.vertex_count} vertices, hull radius {aug.hull_radius}")
    return EXIT_OK


def cmd_forward(args: argparse.Namespace) -> int:
    aug = _load_aug(args.tree_file)
    kernel = parse_kernel(read_text(args.kernel_file))
    out = _outdir(args)
    for dist, name in zip(hitting_laws(aug, kernel, aug.horizon), ("in.tsv", "out.tsv")):
        write_text(out / name, dump_distribution(dist, kernel.mode))
    print(f"forward horizon {aug.horizon}")
    return EXIT_OK


def cmd_invert(args: argparse.Namespace) -> int:
    aug = _load_aug(args.tree_file)
    known = parse_kernel(read_text(args.known_file))
    p_in = parse_distribution(read_text(args.in_dist), known.mode)
    p_out = parse_distribution(read_text(args.out_dist), known.mode)
    reference = (
        parse_kernel(read_text(args.reference)) if args.reference else None
    )
    report = recover_all(aug, known, p_in, p_out, reference=reference)
    out = _outdir(args)
    write_text(out / "report.txt", dump_report(report))
    print(f"max_time_read {max(report.times_accessed.values())}")
    if report.max_error is not None:
        print(f"max_error {float(report.max_error):.17g}")
    return EXIT_OK


def cmd_sample(args: argparse.Namespace) -> int:
    aug = _load_aug(args.tree_file)
    kernel = parse_kernel(read_text(args.kernel_file))
    batch = collect_batch(aug, kernel, args.n, args.seed, workers=args.workers)
    out = _outdir(args)
    write_text(out / "batch.txt", dump_batch(batch))
    print(f"sampled {batch.n} walks, overflow {batch.overflow}")
    return EXIT_OK


def cmd_estimate(args: argparse.Namespace) -> int:
    aug = _load_aug(args.tree_file)
    known = parse_kernel(read_text(args.known_file))
    batch = parse_batch(read_text(args.batch_file))
    reference = (
        parse_kernel(read_text(args.reference)) if args.reference else None
    )
    report = estimate_kernel(aug, known, batch, reference=reference)
    out = _outdir(args)
    write_text(out / "report.txt", dump_report(report))
    if report.max_error is not None:
        print(f"max_error {float(report.max_error):.17g}")
    print(f"flags {len(report.flags)}")
    return EXIT_OK


def cmd_roundtrip(args: argparse.Namespace) -> int:
    aug, kernel = _gen_objects(args)
    p_in, p_out = hitting_laws(aug, kernel, aug.horizon)
    known = kernel.restricted_to({KNOWN})
    report = recover_all(aug, known, p_in, p_out, reference=kernel)
    if args.out:
        out = _outdir(args)
        write_text(out / "tree.txt", dump_tree(aug))
        write_text(out / "kernel.txt", dump_kernel(kernel))
        write_text(out / "report.txt", dump_report(report))
    print(f"max_error {float(report.max_error):.17g}")
    print(f"max_time_read {max(report.times_accessed.values())}")
    return EXIT_OK


def cmd_consistency(args: argparse.Namespace) -> int:
    aug, kernel = _gen_objects(args)
    rows = consistency_curve(aug, kernel, args.n_grid, args.seeds)
    lines = ["n\tseed\tmax_error"]
    lines.extend(f"{n}\t{s}\t{e:.17g}" for n, s, e in rows)
    text = "\n".join(lines) + "\n"
    if args.out:
        out = _outdir(args)
        write_text(out / "consistency.tsv", text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treetomo",
        description="Forward solving and exact inversion of killed walks on trees.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an augmented tree and a kernel")
    p.set_defaults(run=cmd_gen)
    _tree_source(p)
    _kernel_flags(p)
    p.add_argument("--out")

    p = sub.add_parser("forward", help="compute both boundary hitting laws")
    p.set_defaults(run=cmd_forward)
    p.add_argument("--tree-file", required=True)
    p.add_argument("--kernel-file", required=True)
    p.add_argument("--out")

    p = sub.add_parser("invert", help="recover unknown rows from hitting laws")
    p.set_defaults(run=cmd_invert)
    p.add_argument("--tree-file", required=True)
    p.add_argument("--known-file", required=True, help=KNOWN_HELP)
    p.add_argument("--in-dist", required=True, help="inner-layer law file")
    p.add_argument("--out-dist", required=True, help="outer-layer law file")
    p.add_argument("--reference")
    p.add_argument("--out")

    p = sub.add_parser(
        "sample", help="draw probe-walk counts up to the read horizon 3(R+L-2)+4 into a batch file"
    )
    p.set_defaults(run=cmd_sample)
    p.add_argument("--tree-file", required=True)
    p.add_argument("--kernel-file", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1, help=WORKERS_HELP)
    p.add_argument("--out")

    p = sub.add_parser("estimate", help="plug-in estimation from a batch file")
    p.set_defaults(run=cmd_estimate)
    p.add_argument("--tree-file", required=True)
    p.add_argument("--known-file", required=True, help=KNOWN_HELP)
    p.add_argument("--batch-file", required=True)
    p.add_argument("--reference")
    p.add_argument("--out")

    p = sub.add_parser("roundtrip", help="generate, forward-solve, invert, compare")
    p.set_defaults(run=cmd_roundtrip)
    _tree_source(p)
    _kernel_flags(p)
    p.add_argument("--out")

    p = sub.add_parser("consistency", help="estimation error versus sample size")
    p.set_defaults(run=cmd_consistency)
    _tree_source(p)
    _kernel_flags(p)
    p.add_argument("--n-grid", type=_ints, default="10000,100000")
    p.add_argument("--seeds", type=_ints, default="1,2,3,4,5")
    p.add_argument("--out")

    return parser


def _exit_code(exc: Exception) -> int:
    if isinstance(exc, (InsufficientData, ZeroDenominator)):
        return EXIT_INSUFFICIENT
    if isinstance(exc, (OutOfRange, RowSumViolation)):
        return EXIT_OUT_OF_RANGE
    if isinstance(exc, (FormatError, InvalidParameter, MissingRow, InvalidKernel, OSError)):
        return EXIT_FORMAT
    return EXIT_INTERNAL


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # a flag argparse rejects (2), or --help / --version (0)
        return exc.code
    try:
        return args.run(args)
    except (TreetomoError, OSError) as exc:
        code = _exit_code(exc)
        print(f"error {code} {type(exc).__name__}: {exc}", file=sys.stderr)
        return code
    except Exception as exc:  # pragma: no cover - defensive
        print(f"error {EXIT_INTERNAL} {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
