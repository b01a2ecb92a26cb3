"""Kernel construction and validation."""

from fractions import Fraction

import pytest

from treetomo import (
    KNOWN,
    RATIONAL,
    UNKNOWN,
    TransitionKernel,
    random_kernel,
    validate_kernel,
)
from treetomo.errors import InvalidParameter, MissingRow
from treetomo.tree_model import random_tree, segment, spherical_augmentation, star

from helpers import broom, default_augmented_kernel, dirichlet_kernel, rand_instance


@pytest.fixture
def seg_aug():
    return spherical_augmentation(segment(0, 1), 2)


@pytest.fixture
def star_aug():
    return spherical_augmentation(star(1, 2), 2)


class TestDefaultKernel:
    def test_segment_rows(self, seg_aug):
        base = TransitionKernel({0: {1: 1.0}}, {0: UNKNOWN}, "float")
        k = default_augmented_kernel(seg_aug, base)
        assert k.entries[0] == {1: 1.0}
        assert k.provenance[0] == KNOWN  # degree-1 root is forced
        assert k.entries[1] == {0: 0.5, 2: 0.5}
        assert k.entries[2] == {1: 0.5, 3: 0.5}
        assert 3 not in k.entries
        assert validate_kernel(seg_aug, k) == []

    def test_star_added_rows(self, star_aug):
        base = TransitionKernel({0: {1: 0.4, 2: 0.6}}, {0: UNKNOWN}, "float")
        k = default_augmented_kernel(star_aug, base)
        assert k.entries[3] == {1: 0.5, 5: 0.5}
        assert k.entries[4] == {2: 0.5, 6: 0.5}
        assert k.provenance[0] == UNKNOWN
        assert k.provenance[1] == KNOWN  # terminal base vertex
        assert validate_kernel(star_aug, k) == []

    def test_missing_base_row(self, star_aug):
        base = TransitionKernel({}, {}, "float")
        with pytest.raises(MissingRow):
            default_augmented_kernel(star_aug, base)


class TestValidate:
    def test_symmetric_path_valid(self, seg_aug):
        k = TransitionKernel(
            {0: {1: 1.0}, 1: {0: 0.5, 2: 0.5}, 2: {1: 0.5, 3: 0.5}}
        )
        assert validate_kernel(seg_aug, k) == []

    def test_zero_entry_flagged(self, seg_aug):
        k = TransitionKernel(
            {0: {1: 1.0}, 1: {0: 0.0, 2: 1.0}, 2: {1: 0.5, 3: 0.5}}
        )
        bad = validate_kernel(seg_aug, k)
        assert [(v.vertex, v.kind) for v in bad] == [(1, "Nondegenerate")]

    def test_row_sum_flagged(self, seg_aug):
        k = TransitionKernel(
            {0: {1: 1.0}, 1: {0: 0.4, 2: 0.5}, 2: {1: 0.5, 3: 0.5}}
        )
        bad = validate_kernel(seg_aug, k)
        assert [(v.vertex, v.kind) for v in bad] == [(1, "RowSum")]

    def test_support_and_absorbing(self, seg_aug):
        k = TransitionKernel(
            {0: {1: 1.0}, 1: {0: 0.5, 3: 0.5}, 2: {1: 0.5, 3: 0.5}, 3: {2: 1.0}}
        )
        kinds = {(v.vertex, v.kind) for v in validate_kernel(seg_aug, k)}
        assert (1, "Support") in kinds
        assert (3, "AbsorbingRow") in kinds

    def test_row_off_the_tree_flagged(self, seg_aug):
        k = TransitionKernel(
            {0: {1: 1.0}, 1: {0: 0.5, 2: 0.5}, 2: {1: 0.5, 3: 0.5}, 42: {3: 1.0}}
        )
        bad = validate_kernel(seg_aug, k)
        assert [(v.vertex, v.kind) for v in bad] == [(42, "OffTree")]

    def test_default_always_valid_random(self):
        for seed in range(20):
            aug, kernel = rand_instance(seed, scope="lambda")
            assert validate_kernel(aug, kernel) == []


class TestRandomKernel:
    def test_deterministic(self, star_aug):
        a = random_kernel(star_aug, 5)
        b = random_kernel(star_aug, 5)
        assert a.entries == b.entries

    def test_floor_respected(self, star_aug):
        k = random_kernel(star_aug, 1, floor=0.05, scope="all")
        for u, row in k.entries.items():
            if len(row) > 1:
                assert min(row.values()) >= 0.05

    def test_infeasible_floor(self):
        aug = spherical_augmentation(star(1, 3), 2)
        with pytest.raises(InvalidParameter):
            random_kernel(aug, 0, floor=0.6)

    def test_scope_lambda_keeps_symmetric_added_rows(self, star_aug):
        k = random_kernel(star_aug, 2, scope="lambda")
        assert k.entries[3] == {1: 0.5, 5: 0.5}
        k_all = random_kernel(star_aug, 2, scope="all")
        assert k_all.entries[3] != {1: 0.5, 5: 0.5}
        assert k_all.provenance[3] == KNOWN

    def test_rational_rows_sum_to_one_exactly(self):
        for seed in range(10):
            aug, kernel = rand_instance(seed, mode=RATIONAL)
            for u, row in kernel.entries.items():
                assert sum(row.values()) == 1
                assert all(isinstance(p, Fraction) for p in row.values())
                if len(row) > 1:
                    assert min(row.values()) >= Fraction(1, 20)
            assert validate_kernel(aug, kernel) == []

    def test_unknown_scope_flags(self, star_aug):
        k = random_kernel(star_aug, 3, scope="all")
        for u in range(star_aug.base.vertex_count):
            assert k.provenance[u] == UNKNOWN
        for u in range(star_aug.base.vertex_count, star_aug.full.vertex_count):
            if u not in star_aug.outer_layer:
                assert k.provenance[u] == KNOWN

    @pytest.mark.parametrize("mode", ["float", RATIONAL])
    @pytest.mark.parametrize("scope", ["lambda", "all"])
    def test_equals_per_row_dirichlet(self, mode, scope):
        # the one gamma draw must reproduce numpy's per-row Dirichlet(1, ..., 1)
        # exactly; a numpy release that normalizes differently fails here
        trees = [(star(2, 3), 0.05), (segment(2, 3), 0.05), (random_tree(4, 9), 0.05),
                 (broom(2, 60), 0.005)]  # broom(2, 60) has two degree-61 vertices
        for base, floor in trees:
            aug = spherical_augmentation(base, 2)
            for seed in range(5):
                got = random_kernel(aug, seed, floor=floor, scope=scope, mode=mode)
                want = dirichlet_kernel(aug, seed, floor, scope, mode)
                assert list(got.entries) == list(want.entries)
                assert got.provenance == want.provenance
                for u, row in want.entries.items():
                    assert list(got.entries[u].items()) == list(row.items()), (seed, u)
