"""Text artifact round trips and malformed-input handling."""

import random
import re
import sys
from fractions import Fraction

import pytest

from treetomo import INNER, OUTER, TransitionKernel, first_hitting_joint, random_kernel
from treetomo.errors import FormatError, InvalidParameter
from treetomo.estimation import SampleBatch, collect_batch
from treetomo.forward_solver import hitting_laws
from treetomo.formats import (
    _kernel_table,
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
)
from treetomo.tomography import recover_all
from treetomo.tree_model import (
    AugmentedTree,
    build_tree,
    random_tree,
    segment,
    spherical_augmentation,
    star,
)

from helpers import (
    INVALID_TREES,
    broom,
    comb,
    dump_kernel_by_cells,
    is_original,
    kernel_from_entries,
    known_part,
    labels_of,
    law_from_mass,
    parse_kernel_by_cells,
    rand_instance,
    same_tree,
    tree_edges,
    tree_file,
)

SEGMENT = tree_file(0, "0-1 1-2 2-3", 2)  # segment(0, 1) augmented by 2, no layer lines

MALFORMED_KERNELS = [
    "row 0 1:0.5\n",  # missing mode header
    "mode float\nrow 0 1:abc\n",
    "mode nonsense\n",
    "row 0 1:1/2 2:0.5\nmode rational\n",  # row before header
]
INCONSISTENT_KERNELS = [
    "mode float\nrow 0 1:0.5 2:0.5\nrow 0 1:0.25 2:0.75\n",  # row twice
    "mode rational\nrow 0 1:1/2 2:1/2\nrow 0 1:1/2 2:1/2\n",  # same row twice
    "mode float\nrow 1 0:0.5 2:0.25 2:0.25\n",  # cell twice in a row
    "mode float\nrow 0 1\n",  # cell without a colon
    "mode float\nweight 0 1:1\n",  # unknown record
    "\n",  # no mode header
    "mode float\nrow 0 1:0.5 2:0.5\nmode float\n",  # mode header twice
    "mode float\nrow 0 1:0.5 2:0.5\nmode rational\nrow 1 0:1/2 2:1/2\n",
]
# ids outside intp: a row vertex past the maximum, a cell's neighbor past it,
# and a neighbor below the minimum
OUTSIDE_INTP = [
    "mode float\nrow 100000000000000000000000 -1:0.5\n",
    "mode float\nrow 9223372036854775807 99999999999999999999:1\n",
    "mode float\nrow 0 -9223372036854775809:1\n",
]
# more faults, each named by the first bad row, cell or token in file order
KERNEL_FAULTS = [
    *(f"mode float\nrow 0 1:{t} 2:0.5\n" for t in ("nan", "inf", "-inf", "1e400", "", "1/0",
                                                    "1" + "0" * 400 + "/1", "1/2/3", "0x1")),
    *(f"mode rational\nrow 0 1:{t} 2:1/2\n" for t in ("0.5", "5e-1", "1.0", "inf", "nan", "",
                                                       "1/0", "1/2/3", "1/x")),
    "mode float\nrow 0 1:0.5 2:0.5 3\n",  # cell without a colon, last
    "mode float\nrow 0 1:2:3 2:0.5\n",  # cell with two colons
    "mode float\nrow 0 :0.5 2:0.5\n",  # no neighbor
    "mode float\nrow 0 1:0.5 x:0.5\n",  # neighbor not an integer
    "mode float\nrow x 1:0.5\n",  # row vertex not an integer
    "mode float\nrow 0 x:nan\n",  # a bad value is named before its bad neighbor
    "mode float\nrow 0 12 1:2:3\n",  # no colon in one cell, two in the next
    "mode float\nrow 0 1:0.5\nrow x 1:0.5\nrow 2 1:nan\n",  # bad vertex before bad value
    "mode float\nrow 0 1:nan\nrow x 1:0.5\n",  # bad value before bad vertex
    "mode float\nrow 1 0:0.5 2:0.5\nrow 1 0:0.5 2:nan\n",  # row twice, bad value in the second
    "mode float\nrow 1 0:0.5 0:0.5\nrow 2 1:x\n",  # cell twice before a later fault
    "mode float\nrow 1 01:0.5 1:0.5\n",  # the same neighbor written two ways
    "mode rational\nrow 0 1:1/2 2:0.5\nrow 0 1:1/2\n",
    "mode float\nrow 0 1:nan\nweight 0 1:1\n",  # a bad value before an unknown record
    *OUTSIDE_INTP,
]


class TestTreeFormat:
    def test_plain_round_trip(self):
        t = segment(2, 3)
        back = parse_tree(dump_tree(t))
        assert tree_edges(back) == tree_edges(t)
        assert back.root == t.root

    def test_augmented_round_trip(self):
        aug = spherical_augmentation(star(1, 3), 2)
        back = parse_tree(dump_tree(aug))
        assert isinstance(back, AugmentedTree)
        assert tree_edges(back.full) == tree_edges(aug.full)
        assert ([is_original(back, v) for v in range(10)]
                == [is_original(aug, v) for v in range(10)])
        assert back.inner_layer.tolist() == aug.inner_layer.tolist()
        assert back.outer_layer.tolist() == aug.outer_layer.tolist()
        assert back.hull_radius == aug.hull_radius
        assert back.aug_len == aug.aug_len
        assert tree_edges(back.base) == tree_edges(aug.base)

    def test_base_is_the_built_base(self):
        # the parsed base is the restriction of the full tree to ids 0..k-1
        for base in [random_tree(1 + seed % 5, seed) for seed in range(20)] + [broom(3, 4)]:
            back = parse_tree(dump_tree(spherical_augmentation(base, 2)))
            rebuilt = build_tree(list(tree_edges(base)), base.root)
            assert same_tree(back.base, rebuilt) and same_tree(rebuilt, base)
            assert same_tree(parse_tree(dump_tree(back)).base, back.base)

    def test_malformed(self):
        with pytest.raises(FormatError):
            parse_tree("edge 0 1\n")  # no header
        with pytest.raises(FormatError):
            parse_tree("tree 2 0\nedge 0 x\n")
        with pytest.raises(FormatError):
            parse_tree("tree 3 0\nedge 0 1\nedge 1 2\nwhatever 1\n")

    @pytest.mark.parametrize("text, message", [
        (SEGMENT.replace("1 original", "1 grafted"), "bad or repeated origin flag"),
        ("tree 3 0\nedge 0 1\n", "header says 3 vertices, edges give 2"),
        (SEGMENT.replace("origin 1 original", "origin 2 original"), "prefix 0..k-1"),
        (SEGMENT + "layer outer 2\n", "unknown record"),
        *INVALID_TREES.values(),
    ], ids=["bad-origin", "count", "origin-prefix", "outer-layer", *INVALID_TREES])
    def test_invalid_rejected(self, text, message):
        with pytest.raises(FormatError, match=re.escape(message)):
            parse_tree(text)

    @pytest.mark.parametrize("text", [
        "tree 2 0 junk\nedge 0 1\n",
        "tree 2 0\nedge 0 1 7\n",
        SEGMENT.replace("origin 1 original", "origin 1 original original"),
    ], ids=["header", "edge", "origin"])
    def test_trailing_tokens_rejected(self, text):
        with pytest.raises(FormatError, match="trailing tokens"):
            parse_tree(text)

    def test_layer_mismatch_rejected(self):
        # the layers are derived from the shells; a file that states one is refused
        aug = spherical_augmentation(segment(0, 1), 2)
        with pytest.raises(FormatError, match="unknown record"):
            parse_tree(dump_tree(aug) + "layer inner 2\n")


class TestKernelFormat:
    def test_float_round_trip_bit_exact(self):
        for seed in range(6):
            _, kernel = rand_instance(seed)
            back = parse_kernel(dump_kernel(kernel))
            assert back.mode == kernel.mode
            assert back.entries == kernel.entries

    def test_rational_round_trip_bit_exact(self):
        for seed in range(4):
            _, kernel = rand_instance(seed, mode="rational")
            back = parse_kernel(dump_kernel(kernel))
            assert back.entries == kernel.entries
            assert all(
                isinstance(p, Fraction)
                for row in back.entries.values()
                for p in row.values()
            )

    @pytest.mark.parametrize("mode", ["float", "rational"])
    def test_empty_row_read_in_one_pass(self, mode):
        # a row without cells is written "row u", in the layout the bulk reader takes
        one = 1.0 if mode == "float" else Fraction(1)
        kernel = kernel_from_entries({0: {1: one}, 5: {}}, mode=mode)
        text = dump_kernel(kernel)
        assert text.endswith("\nrow 5\n")
        back = _kernel_table(text)
        assert back.entries == kernel.entries
        assert dump_kernel(back) == text

    def test_malformed(self):
        for text in MALFORMED_KERNELS:
            with pytest.raises(FormatError):
                parse_kernel(text)

    def test_fraction_past_float_range_rejected(self):
        # in float mode num/den is rounded to a float, which overflows here
        with pytest.raises(FormatError):
            parse_kernel("mode float\nrow 0 1:1" + "0" * 400 + "/1\n")

    @pytest.mark.parametrize("text, token", zip(OUTSIDE_INTP, [
        "100000000000000000000000", "99999999999999999999", "-9223372036854775809"]))
    def test_id_outside_intp_rejected(self, text, token):
        line = text.splitlines()[1]
        with pytest.raises(FormatError) as got:
            parse_kernel(text)
        assert str(got.value) == f"bad kernel line {line!r}: vertex id {token} outside intp"

    @pytest.mark.parametrize("text", INCONSISTENT_KERNELS)
    def test_inconsistent_rejected(self, text):
        with pytest.raises(FormatError):
            parse_kernel(text)


def oracle_kernels() -> list[TransitionKernel]:
    """Kernels the writer is checked on: random instances in both modes,
    broom(5, 5) and comb(6), extreme floats with rows and cells out of order
    and an empty row, ids at the intp maximum, and a 5,071-digit rational."""
    out = []
    for mode in ("float", "rational"):
        out += [rand_instance(seed, mode=mode)[1] for seed in range(6)]
        for base in (broom(5, 5), comb(6)):
            aug = spherical_augmentation(base, 2)
            out += [random_kernel(aug, 7, scope=scope, mode=mode) for scope in ("lambda", "all")]
    p = Fraction(1, 7**6000)
    out.append(kernel_from_entries({0: {1: p, 2: 1 - p}}, {0: "known"}, "rational"))
    out.append(kernel_from_entries(
        {3: {1: 5e-324, 0: 1 - 2**-53}, 0: {2: 0.5, 1: 0.5}, 5: {}}, mode="float"))
    out.append(kernel_from_entries({2**63 - 1: {-1: 0.5, 2**63 - 2: 0.25, 7: 0.25}}))
    return out


# accepted files beyond what dump_kernel writes: num/den and integer tokens in a
# float file, empty rows, signs, underscores, tabs, ids at the intp maximum and
# minimum, and Unicode digits and white space
ACCEPTED_KERNELS = [
    "mode float\nrow 0 1:1/3 2:2/3\nrow 1 0:1 2:0\n",
    "mode float\nrow 5\nrow 0 2:+0.5 1:5e-1\n",
    "mode float\nrow 1_0 0_1:1_0.5 3:-0\n",
    "mode float\r\nrow\t0\t1:0.25  2:3/4\r\n",
    "mode rational\nrow 0 1:1 2:0/1 3:-1/2 4:6/4\nrow 5\n",
    "mode float\nrow 9223372036854775807 -9223372036854775808:1 9223372036854775806:0\n",
    "mode float\nrow\xa0\u0661 0:1\u2028row 2 \u0661:1\n",
    "mode float\n",
]


class TestKernelOracles:
    """The table reader and writer against the per-cell ones they replaced
    (``tests/helpers.py``)."""

    def test_writer_matches_oracle(self):
        for kernel in oracle_kernels():
            assert dump_kernel(kernel) == dump_kernel_by_cells(kernel)

    def test_reader_matches_oracle(self):
        texts = [dump_kernel_by_cells(kernel) for kernel in oracle_kernels()]
        for text in texts + ACCEPTED_KERNELS:
            got, want = parse_kernel(text), parse_kernel_by_cells(text)
            assert (got.mode, labels_of(got)) == (want.mode, labels_of(want)), text
            for name in ("vertices", "sizes", "neighbors", "values"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and a.tolist() == b.tolist(), (name, text)
                assert list(map(type, a.tolist())) == list(map(type, b.tolist())), (name, text)
            assert [list(row.items()) for row in got.entries.values()] == \
                [list(row.items()) for row in want.entries.values()], text

    def test_faults_match_oracle(self):
        for text in MALFORMED_KERNELS + INCONSISTENT_KERNELS + KERNEL_FAULTS:
            with pytest.raises(FormatError) as want:
                parse_kernel_by_cells(text)
            with pytest.raises(FormatError) as got:
                parse_kernel(text)
            assert str(got.value) == str(want.value), text

    def test_edited_texts_match_oracle(self):
        # 2,000 texts, each a written or accepted kernel file with one edit:
        # both readers give the same table, with the same dtypes and element
        # types, or refuse with the same message
        rng = random.Random(26)
        texts = [dump_kernel(kernel) for kernel in oracle_kernels()] + ACCEPTED_KERNELS
        # the 5,071-digit rational takes about 8 ms a read: a tenth of the others' share
        weights = [0.1 if len(text) > 10_000 else 1 for text in texts]
        seen = set()
        for text in rng.choices(texts, weights, k=2000):
            text = edited(text, rng)
            want = kernel_outcome(parse_kernel_by_cells, text)
            assert kernel_outcome(parse_kernel, text) == want, text
            seen.add(want[0])
        assert seen == {"kernel", "refused"}

    def test_known_lines_are_the_restricted_dump(self):
        # the known rows need not come first in vertex order or in the table
        mixed = kernel_from_entries(
            {5: {6: 0.5, 4: 0.5}, 0: {1: 1.0}, 3: {4: 0.75, 2: 0.25}, 1: {2: 0.5, 0: 0.5}},
            {5: "known", 0: "unknown", 3: "known", 1: "recovered"})
        for kernel in oracle_kernels() + [mixed]:
            text = dump_kernel(kernel)
            assert known_lines(kernel, text) == dump_kernel(kernel.restricted_to({"known"}))
        assert known_lines(mixed, dump_kernel(mixed)) == \
            "mode float\nrow 3 2:0.25 4:0.75\nrow 5 4:0.5 6:0.5\n"


def kernel_outcome(parse, text: str) -> tuple:
    """What ``parse`` makes of ``text``: its refusal message, or the kernel's
    mode, labels and arrays, each with its dtype and element types."""
    try:
        kernel = parse(text)
    except FormatError as exc:
        return "refused", str(exc)
    arrays = [(a.dtype, a.tolist(), list(map(type, a.tolist())))
              for a in (kernel.vertices, kernel.sizes, kernel.neighbors, kernel.values)]
    return "kernel", kernel.mode, labels_of(kernel), arrays


def edited(text: str, rng: random.Random) -> str:
    """``text`` with one edit drawn by ``rng``: a character or a token
    deleted, doubled or swapped with the next, a colon dropped or doubled,
    or ``nan``, ``1/0``, a tab or a CR inserted."""
    kind = rng.randrange(5)
    if kind == 0:  # a character
        i = rng.randrange(len(text) - 1)
        a, b = text[i], text[i + 1]
        return text[:i] + rng.choice([b, a + a + b, b + a]) + text[i + 2:]
    if kind == 1:  # a token, between whitespace or colons
        parts = re.split(r"([\s:]+)", text)
        j = rng.randrange(0, len(parts) - 2, 2)
        a, b = parts[j], parts[j + 2]
        parts[j], parts[j + 2] = rng.choice([("", b), (a + " " + a, b), (b, a)])
        return "".join(parts)
    if kind == 2 and ":" in text:  # the first colon from a random place on
        i = text.find(":", rng.randrange(len(text)))
        i = text.find(":") if i < 0 else i
        return text[:i] + rng.choice(["", "::"]) + text[i + 1:]
    i = rng.randrange(len(text) + 1)
    return text[:i] + rng.choice(["nan", "1/0", "\t", "\r"]) + text[i:]


class TestDistributionFormat:
    def test_layout(self):
        # a header naming the columns, then one line per time with mass
        law = law_from_mass(OUTER, 6, {(3, 7): 0.25, (5, 8): 0.5})
        assert dump_distribution(law) == "outer\t7\t8\n3\t0.25\t0\n5\t0\t0.5\n"
        law = law_from_mass(
            INNER, 4, {(2, 3): Fraction(1, 4), (2, 4): Fraction(1, 6), (4, 4): Fraction(1, 2)})
        assert dump_distribution(law, "rational") == "inner\t3\t4\n2\t12\t3\t2\n4\t2\t0\t1\n"

    def test_round_trip(self):
        # both ways: every cell comes back as the float64 image of the law's
        # cell, and no cell comes back that the law does not hold
        for base in (broom(5, 5), random_tree(3, 4)):
            aug = spherical_augmentation(base, 2)
            kernel = random_kernel(aug, 7, scope="all")
            for dist in hitting_laws(aug, kernel, aug.horizon):
                back = parse_distribution(dump_distribution(dist, kernel.mode))
                want = {key: float(val) for key, val in dist.mass.items()}
                assert (back.layer, back.vertices) == (dist.layer, dist.vertices)
                assert back.t_max == max(t for t, _ in want)
                assert dict(back.mass) == want
                assert all(type(p) is float and p for p in back.mass.values())

    def test_rational_round_trip(self):
        aug = spherical_augmentation(comb(6), 2)
        kernel = random_kernel(aug, 7, scope="all", mode="rational")
        for dist in hitting_laws(aug, kernel, aug.horizon):
            back = parse_distribution(dump_distribution(dist, "rational"), "rational")
            assert back.mass == dist.mass and back.t_max == max(t for t, _ in dist.mass)
            # a law is written only in its own mode: an exact law has no float image
            with pytest.raises(InvalidParameter,
                               match=f"an exact {dist.layer} law has no float file form"):
                dump_distribution(dist, "float")

    def test_float_law_has_no_rational_form(self):
        aug = spherical_augmentation(comb(2), 2)
        for dist in hitting_laws(aug, random_kernel(aug, 7), aug.horizon):
            with pytest.raises(InvalidParameter,
                               match=f"a float {dist.layer} law has no rational file form"):
                dump_distribution(dist, "rational")

    def test_header_alone_rejected(self):
        # a law with no mass, as forward gives one up to a time before any
        # contact, is written as its header alone, and a file that holds no
        # time line is refused, as an empty file is
        aug = spherical_augmentation(star(1, 2), 2)
        for mode in ("float", "rational"):
            kernel = random_kernel(aug, 3, mode=mode)
            for dist in hitting_laws(aug, kernel, 1):
                text = dump_distribution(dist, mode)
                assert text == "\t".join([dist.layer, *map(str, dist.vertices)]) + "\n"
                with pytest.raises(FormatError, match="no time line"):
                    parse_distribution(text, mode)

    def test_mixed_layers_rejected(self):
        with pytest.raises(FormatError):
            parse_distribution("inner\t3\t4\n2\t0.5\t0.25\nouter\t5\t6\n3\t0.1\t0.2\n")

    def test_empty_rejected(self):
        with pytest.raises(FormatError):
            parse_distribution("")

    @pytest.mark.parametrize(
        "text, mode",
        [
            # the old one-cell-per-line layout, whatever its cells
            ("outer 3 5 0.25\nouter 3 5 0.5\n", "float"),
            ("inner 2 3 1/4\ninner 2 3 1/4\n", "rational"),
            ("outer -2 5 0.1\n", "float"),
            ("outer 3 5 -0.1\n", "float"),
            ("outer -2 5 -0.1\n", "float"),
            ("inner 2 3 -1/4\n", "rational"),
            ("inner 2 3\n", "float"),
            ("middle 2 3 0.5\n", "float"),
            ("inner x 3 0.5\n", "float"),
            ("inner\t2\t3\t0.5\n", "float"),
            ("inner\t2\t3\t0.5\ninner\t4\t3\t0.25\n", "float"),
            ("inner\t2\t3\t1/4\ninner\t4\t3\t1/8\n", "rational"),
            # the grid layout
            ("outer 5\n3 0.25\n3 0.5\n", "float"),  # time twice
            ("inner 3\n2 4 1\n2 4 1\n", "rational"),  # same line twice
            ("outer 5\n-2 0.1\n", "float"),  # negative time
            ("outer 5\n0 0.1\n", "float"),  # time 0
            ("outer 5\n3 -0.1\n", "float"),  # negative mass
            ("outer 5\n-2 -0.1\n", "float"),
            ("inner 3\n2 4 -1\n", "rational"),
            ("inner 3\n2 0 1\n", "rational"),  # denominator 0
            ("inner 3\n2 -4 1\n", "rational"),  # negative denominator
            ("outer 5\n3 nan\n", "float"),
            ("outer 5\n3 inf\n", "float"),
            ("outer 5\n3 abc\n", "float"),  # a float cell that is not a number
            ("outer 5\n3 1/2\n", "float"),
            ("inner 3 4\n2 0.5\n", "float"),  # ragged: a cell missing
            ("inner 3 4\n2 0.5 0.25 0.25\n", "float"),  # ragged: a cell too many
            ("inner 3 4\n2 4 1\n", "rational"),  # ragged: no denominator
            ("inner 3 3\n2 0.25 0.25\n", "float"),  # header vertex twice
            ("inner 3 x\n2 0.25 0.25\n", "float"),  # non-integer vertex
            ("3 4\n2 0.5 0.5\n", "float"),  # no header
            ("middle 3\n2 0.5\n", "float"),  # no such layer
            ("inner 3\nx 0.5\n", "float"),  # non-integer time
        ],
    )
    def test_inconsistent_rejected(self, text, mode):
        with pytest.raises(FormatError):
            parse_distribution(text, mode)


class TestExactTokens:
    def test_rational_files_take_only_exact_tokens(self):
        # a decimal is a rounded value, so an exact file must not hold one
        for token in ("0.5", "5e-1", "1.0", "inf", "nan"):
            with pytest.raises(FormatError, match="rational"):
                parse_kernel(f"mode rational\nrow 0 1:{token} 2:1/2\n")
        # a law line holds integers only: its denominator is written once
        for token in ("0.5", "5e-1", "1.0", "inf", "nan", "1/2"):
            with pytest.raises(FormatError, match="rational"):
                parse_distribution(f"inner\t3\n2\t1\t{token}\n", "rational")
            with pytest.raises(FormatError, match="rational"):
                parse_distribution(f"inner\t3\n2\t{token}\t1\n", "rational")
        back = parse_distribution("inner\t3\n2\t1\t1\n4\t1\t0\n", "rational")
        assert back.mass == {(2, 3): 1} and back.t_max == 4
        assert all(isinstance(p, Fraction) for p in back.mass.values())
        assert parse_kernel("mode rational\nrow 0 1:1\n").entries == {0: {1: Fraction(1)}}

    def test_values_past_the_int_digit_limit(self):
        # 7**6000 has 5,071 digits, more than str(int) and int(str) take by default
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        p = Fraction(1, 7**6000)
        dist = law_from_mass(INNER, 2, {(2, 3): p, (2, 4): 1 - p})
        text = dump_distribution(dist, "rational")
        assert parse_distribution(text, "rational").mass == dist.mass
        kernel = kernel_from_entries({0: {1: p, 2: 1 - p}}, {0: "known"}, "rational")
        assert parse_kernel(dump_kernel(kernel)).entries == kernel.entries
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


class TestBatchFormat:
    def test_round_trip(self):
        aug, kernel = rand_instance(3, scope="lambda")
        batch = collect_batch(aug, kernel, 500, seed=5)
        back = parse_batch(dump_batch(batch))
        assert back.n == batch.n
        assert back.seed == batch.seed
        assert back.t_cap == batch.t_cap
        assert back.counts_in == batch.counts_in
        assert back.counts_out == batch.counts_out
        assert back.overflow == batch.overflow

    def test_balance_enforced(self):
        bad = SampleBatch(n=10, seed=0, t_cap=64)
        bad.counts_out[(4, 5)] = 3
        bad.overflow = 2
        with pytest.raises(FormatError):
            parse_batch(dump_batch(bad))

    @pytest.mark.parametrize(
        "text",
        [
            "batch 4 0 7\nin 8 3 1\nout 5 5 4\noverflow 0\n",  # in past t_cap
            "batch 4 0 7\nin 0 3 1\nout 5 5 4\noverflow 0\n",  # in before t=1
            "batch 4 0 7\nin 2 3 1\nout 9 5 4\noverflow 0\n",  # out past t_cap
            "batch 4 0 7\nin 2 3 5\nout 5 5 4\noverflow 0\n",  # in-mass > n
            "batch 4 0 7\nin 2 3 -1\nout 5 5 4\noverflow 0\n",  # negative
            "batch 4 0 7\nin 2 3 1\nout 5 5 5\noverflow -1\n",  # negative
            "batch 4 0 7\nin 2 3 1\nin 2 3 1\nout 5 5 4\noverflow 0\n",  # repeat
            "batch 4 0 0\noverflow 4\n",  # empty time range
            "batch 4 0 7\nout 3 5 4\noverflow 0\nbatch 2 0 7\noverflow 2\n",
            "in 2 3 1\nbatch 4 0 7\n",  # counts before the header
            "overflow 0\nbatch 4 0 7\n",  # overflow before the header
            "batch 4 0 7\ntotal 4\n",  # unknown record
            "batch 4 0 7\nout 5 5\n",  # count missing
            "batch 2 0 7\nout 3 5 x\noverflow 0\n",  # count not an integer
            "",  # no header
            "batch 2 0 7 junk\nout 3 5 2 99\noverflow 0 x\n",  # trailing tokens
            "batch 2 0 7 junk\nout 3 5 2\noverflow 0\n",
            "batch 2 0 7\nin 2 3 1 1\nout 3 5 2\noverflow 0\n",
            "batch 2 0 7\nout 3 5 2 99\noverflow 0\n",
            "batch 2 0 7\nout 3 5 2\noverflow 0 x\n",
            "batch 2 0 7\nout 3 5 2\noverflow 0\noverflow 0\n",  # overflow twice
        ],
    )
    def test_inconsistent_rejected(self, text):
        with pytest.raises(FormatError):
            parse_batch(text)

    def test_consistent_accepted(self):
        assert parse_batch("batch 2 0 7\nout 3 5 2\noverflow 0\n").counts_out == {(3, 5): 2}
        batch = parse_batch("batch 4 0 7\nin 2 3 4\nout 7 5 1\noverflow 3\n")
        assert batch.counts_in == {(2, 3): 4}
        assert batch.counts_out == {(7, 5): 1}


class TestReportFormat:
    def test_contains_diagnostics(self):
        aug, kernel = rand_instance(4)
        t_max = 3 * aug.hull_radius + 4
        p_in = first_hitting_joint(aug, kernel, INNER, t_max)
        p_out = first_hitting_joint(aug, kernel, OUTER, t_max)
        rep = recover_all(aug, known_part(kernel), p_in, p_out, reference=kernel)
        text = dump_report(rep)
        assert "mode float" in text
        assert f"max_time_read {max(rep.times_accessed.values())}" in text
        assert "max_error" in text
