"""Text artifact round trips and malformed-input handling."""

import sys
from fractions import Fraction

import pytest

from treetomo import INNER, OUTER, TransitionKernel, first_hitting_joint
from treetomo.errors import FormatError
from treetomo.estimation import SampleBatch, collect_batch
from treetomo.forward_solver import HittingDistribution
from treetomo.formats import (
    dump_batch,
    dump_distribution,
    dump_kernel,
    dump_report,
    dump_tree,
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

from helpers import INVALID_TREES, broom, known_part, rand_instance, tree_file

SEGMENT = tree_file(0, "0-1 1-2 2-3", 2)  # segment(0, 1) augmented by 2, no layer lines


class TestTreeFormat:
    def test_plain_round_trip(self):
        t = segment(2, 3)
        back = parse_tree(dump_tree(t))
        assert back.edges() == t.edges()
        assert back.root == t.root

    def test_augmented_round_trip(self):
        aug = spherical_augmentation(star(1, 3), 2)
        back = parse_tree(dump_tree(aug))
        assert isinstance(back, AugmentedTree)
        assert back.full.edges() == aug.full.edges()
        assert [back.is_original(v) for v in range(10)] == [aug.is_original(v) for v in range(10)]
        assert back.inner_layer == aug.inner_layer
        assert back.outer_layer == aug.outer_layer
        assert back.hull_radius == aug.hull_radius
        assert back.aug_len == aug.aug_len
        assert back.base.edges() == aug.base.edges()

    def test_base_is_the_built_base(self):
        # the parsed base is the restriction of the full tree to ids 0..k-1
        for base in [random_tree(1 + seed % 5, seed) for seed in range(20)] + [broom(3, 4)]:
            back = parse_tree(dump_tree(spherical_augmentation(base, 2)))
            assert back.base == build_tree(list(base.edges()), base.root) == base
            assert parse_tree(dump_tree(back)).base == back.base

    def test_malformed(self):
        with pytest.raises(FormatError):
            parse_tree("edge 0 1\n")  # no header
        with pytest.raises(FormatError):
            parse_tree("tree 2 0\nedge 0 x\n")
        with pytest.raises(FormatError):
            parse_tree("tree 3 0\nedge 0 1\nedge 1 2\nwhatever 1\n")

    @pytest.mark.parametrize("text", [
        SEGMENT.replace("3 added", "3 grafted"),  # bad origin flag
        "tree 3 0\nedge 0 1\n",  # header vertex count
        SEGMENT.replace("origin 3 added\n", ""),  # origins miss a vertex
        SEGMENT.replace("1 original", "1 added").replace("2 added", "2 original"),
        SEGMENT + "layer outer 2\n",
        *INVALID_TREES.values(),
    ], ids=["bad-origin", "count", "origin-cover", "origin-prefix", "outer-layer",
            *INVALID_TREES])
    def test_invalid_rejected(self, text):
        with pytest.raises(FormatError):
            parse_tree(text)

    @pytest.mark.parametrize("text", [
        "tree 2 0 junk\nedge 0 1\n",
        "tree 2 0\nedge 0 1 7\n",
        SEGMENT.replace("origin 3 added", "origin 3 added added"),
    ], ids=["header", "edge", "origin"])
    def test_trailing_tokens_rejected(self, text):
        with pytest.raises(FormatError, match="trailing tokens"):
            parse_tree(text)

    def test_layer_mismatch_rejected(self):
        aug = spherical_augmentation(segment(0, 1), 2)
        text = dump_tree(aug).replace("layer inner 2", "layer inner 1")
        with pytest.raises(FormatError):
            parse_tree(text)


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

    def test_malformed(self):
        with pytest.raises(FormatError):
            parse_kernel("row 0 1:0.5\n")  # missing mode header
        with pytest.raises(FormatError):
            parse_kernel("mode float\nrow 0 1:abc\n")
        with pytest.raises(FormatError):
            parse_kernel("mode nonsense\n")
        with pytest.raises(FormatError):
            parse_kernel("row 0 1:1/2 2:0.5\nmode rational\n")  # row before header

    def test_fraction_past_float_range_rejected(self):
        # in float mode num/den is rounded to a float, which overflows here
        with pytest.raises(FormatError):
            parse_kernel("mode float\nrow 0 1:1" + "0" * 400 + "/1\n")

    @pytest.mark.parametrize(
        "text",
        [
            "mode float\nrow 0 1:0.5 2:0.5\nrow 0 1:0.25 2:0.75\n",  # row twice
            "mode rational\nrow 0 1:1/2 2:1/2\nrow 0 1:1/2 2:1/2\n",  # same row twice
            "mode float\nrow 1 0:0.5 2:0.25 2:0.25\n",  # cell twice in a row
            "mode float\nrow 0 1\n",  # cell without a colon
            "mode float\nweight 0 1:1\n",  # unknown record
            "\n",  # no mode header
            "mode float\nrow 0 1:0.5 2:0.5\nmode float\n",  # mode header twice
            "mode float\nrow 0 1:0.5 2:0.5\nmode rational\nrow 1 0:1/2 2:1/2\n",
        ],
    )
    def test_inconsistent_rejected(self, text):
        with pytest.raises(FormatError):
            parse_kernel(text)


class TestDistributionFormat:
    def test_round_trip(self):
        aug, kernel = rand_instance(1)
        dist = first_hitting_joint(aug, kernel, OUTER, 3 * aug.hull_radius + 4)
        back = parse_distribution(dump_distribution(dist, kernel.mode))
        assert back.layer == OUTER
        assert back.t_max == max(t for t, _ in dist.mass)
        for key, val in dist.mass.items():
            assert back.mass[key] == float(val)

    def test_rational_round_trip(self):
        aug, kernel = rand_instance(2, mode="rational")
        dist = first_hitting_joint(aug, kernel, INNER, 6)
        back = parse_distribution(dump_distribution(dist, "rational"), "rational")
        assert back.mass == dist.mass

    def test_mixed_layers_rejected(self):
        with pytest.raises(FormatError):
            parse_distribution("inner\t2\t2\t0.5\nouter\t3\t3\t0.2\n")

    def test_empty_rejected(self):
        with pytest.raises(FormatError):
            parse_distribution("")

    @pytest.mark.parametrize(
        "text, mode",
        [
            ("outer 3 5 0.25\nouter 3 5 0.5\n", "float"),  # cell twice
            ("inner 2 3 1/4\ninner 2 3 1/4\n", "rational"),  # same cell twice
            ("outer -2 5 0.1\n", "float"),  # negative time
            ("outer 3 5 -0.1\n", "float"),  # negative mass
            ("outer -2 5 -0.1\n", "float"),
            ("inner 2 3 -1/4\n", "rational"),
            ("inner 2 3\n", "float"),  # three columns
            ("middle 2 3 0.5\n", "float"),  # no such layer
            ("inner x 3 0.5\n", "float"),  # non-integer time
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
            with pytest.raises(FormatError, match="rational"):
                parse_distribution(f"inner\t2\t3\t{token}\n", "rational")
        back = parse_distribution("inner\t2\t3\t1\ninner\t4\t3\t0\n", "rational")
        assert back.mass == {(2, 3): 1, (4, 3): 0}
        assert all(isinstance(p, Fraction) for p in back.mass.values())
        assert parse_kernel("mode rational\nrow 0 1:1\n").entries == {0: {1: Fraction(1)}}

    def test_values_past_the_int_digit_limit(self):
        # 7**6000 has 5,071 digits, more than str(int) and int(str) take by default
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        p = Fraction(1, 7**6000)
        dist = HittingDistribution(INNER, 2, {(2, 3): p, (2, 4): 1 - p})
        text = dump_distribution(dist, "rational")
        assert parse_distribution(text, "rational").mass == dist.mass
        kernel = TransitionKernel({0: {1: p, 2: 1 - p}}, {0: "known"}, "rational")
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
