"""Kernel construction and validation."""

from fractions import Fraction

import numpy as np
import pytest

from treetomo import (
    KNOWN,
    RATIONAL,
    UNKNOWN,
    random_kernel,
    recover_all,
    validate_kernel,
)
from treetomo import chain_model
from treetomo.errors import InvalidParameter, MissingRow
from treetomo.forward_solver import hitting_laws
from treetomo.tree_model import random_tree, segment, spherical_augmentation, star

from helpers import (
    _grid_row,
    broom,
    default_augmented_kernel,
    dirichlet_kernel,
    kernel_from_entries,
    labels_of,
    rand_instance,
)


@pytest.fixture
def seg_aug():
    return spherical_augmentation(segment(0, 1), 2)


@pytest.fixture
def star_aug():
    return spherical_augmentation(star(1, 2), 2)


class TestDefaultKernel:
    def test_segment_rows(self, seg_aug):
        base = kernel_from_entries({0: {1: 1.0}}, {0: UNKNOWN}, "float")
        k = default_augmented_kernel(seg_aug, base)
        assert k.entries[0] == {1: 1.0}
        assert labels_of(k)[0] == KNOWN  # degree-1 root is forced
        assert k.entries[1] == {0: 0.5, 2: 0.5}
        assert k.entries[2] == {1: 0.5, 3: 0.5}
        assert 3 not in k.entries
        assert validate_kernel(seg_aug, k) == []

    def test_star_added_rows(self, star_aug):
        base = kernel_from_entries({0: {1: 0.4, 2: 0.6}}, {0: UNKNOWN}, "float")
        k = default_augmented_kernel(star_aug, base)
        assert k.entries[3] == {1: 0.5, 5: 0.5}
        assert k.entries[4] == {2: 0.5, 6: 0.5}
        assert labels_of(k)[0] == UNKNOWN
        assert labels_of(k)[1] == KNOWN  # terminal base vertex
        assert validate_kernel(star_aug, k) == []

    def test_missing_base_row(self, star_aug):
        base = kernel_from_entries({}, {}, "float")
        with pytest.raises(MissingRow):
            default_augmented_kernel(star_aug, base)


class TestValidate:
    def test_symmetric_path_valid(self, seg_aug):
        k = kernel_from_entries(
            {0: {1: 1.0}, 1: {0: 0.5, 2: 0.5}, 2: {1: 0.5, 3: 0.5}}
        )
        assert validate_kernel(seg_aug, k) == []

    def test_zero_entry_flagged(self, seg_aug):
        k = kernel_from_entries(
            {0: {1: 1.0}, 1: {0: 0.0, 2: 1.0}, 2: {1: 0.5, 3: 0.5}}
        )
        bad = validate_kernel(seg_aug, k)
        assert [(v.vertex, v.kind) for v in bad] == [(1, "Nondegenerate")]

    def test_row_sum_flagged(self, seg_aug):
        k = kernel_from_entries(
            {0: {1: 1.0}, 1: {0: 0.4, 2: 0.5}, 2: {1: 0.5, 3: 0.5}}
        )
        bad = validate_kernel(seg_aug, k)
        assert [(v.vertex, v.kind) for v in bad] == [(1, "RowSum")]

    def test_support_and_absorbing(self, seg_aug):
        k = kernel_from_entries(
            {0: {1: 1.0}, 1: {0: 0.5, 3: 0.5}, 2: {1: 0.5, 3: 0.5}, 3: {2: 1.0}}
        )
        kinds = {(v.vertex, v.kind) for v in validate_kernel(seg_aug, k)}
        assert (1, "Support") in kinds
        assert (3, "AbsorbingRow") in kinds

    def test_row_off_the_tree_flagged(self, seg_aug):
        k = kernel_from_entries(
            {0: {1: 1.0}, 1: {0: 0.5, 2: 0.5}, 2: {1: 0.5, 3: 0.5}, 42: {3: 1.0}}
        )
        bad = validate_kernel(seg_aug, k)
        assert [(v.vertex, v.kind) for v in bad] == [(42, "OffTree")]

    @staticmethod
    def pinned_kernel(case):
        """A kernel on segment(0, 1) (``seg``) or segment(1, 2) (``mixed``),
        outer layer {3} and {7, 8}, with one kind of fault."""
        half, tiny = Fraction(1, 2), Fraction(1, 2**200)
        rows = {
            "negative-key": {1: {-1: 0.5, 2: 0.5}},
            "key-at-intp-max": {1: {0: 0.5, 2**63 - 1: 0.5}},
            "empty-root-row": {0: {}},
            "missing-row": {2: None},
            "float-sum-2e-12": {1: {0: 0.5, 2: 0.5 + 2e-12}},
            "float-sum-5e-13": {1: {0: 0.5, 2: 0.5 + 5e-13}},
        }
        if case == "rational-sum-short":
            return kernel_from_entries({0: {1: Fraction(1)}, 1: {0: half, 2: half - tiny},
                                        2: {1: half, 3: half}}, mode=RATIONAL)
        if case == "mixed":
            aug = spherical_augmentation(segment(1, 2), 2)
            kernel = random_kernel(aug, 5)
            return kernel_from_entries(
                {**kernel.entries, 42: {5: 1.0}, 7: {5: 1.0}, 0: {1: 0.5, 3: 0.2},
                 1: {0: 0.0, 2: 1.0}}, labels_of(kernel), kernel.mode)
        entries = {0: {1: 1.0}, 1: {0: 0.5, 2: 0.5}, 2: {1: 0.5, 3: 0.5}}
        entries.update(rows[case])
        return kernel_from_entries({u: r for u, r in entries.items() if r is not None})

    @pytest.mark.parametrize("case, want", [
        ("negative-key", [(1, "Support")]),
        ("key-at-intp-max", [(1, "Support")]),
        ("empty-root-row", [(0, "Support")]),
        ("missing-row", [(2, "MissingRow")]),
        ("float-sum-2e-12", [(1, "RowSum")]),
        ("float-sum-5e-13", []),
        ("rational-sum-short", [(1, "RowSum")]),
        ("mixed", [(42, "OffTree"), (7, "AbsorbingRow"), (0, "RowSum"), (1, "Nondegenerate")]),
    ])
    def test_violations_pinned(self, seg_aug, case, want):
        aug = spherical_augmentation(segment(1, 2), 2) if case == "mixed" else seg_aug
        got = validate_kernel(aug, self.pinned_kernel(case))
        assert [(v.vertex, v.kind) for v in got] == want

    def test_given_target_row_is_checked(self):
        # a given row labelled unknown is refused, malformed or valid: the
        # inversion solves only the base rows it lacks
        aug = spherical_augmentation(segment(1, 2), 2)
        kernel = random_kernel(aug, 5)
        p_in, p_out = hitting_laws(aug, kernel, aug.horizon)
        known = kernel.restricted_to({KNOWN})

        def given(row):
            return kernel_from_entries({**known.entries, 1: row},
                                       {**labels_of(known), 1: UNKNOWN})
        for row in ({0: 0.5, 2: 0.4}, dict(kernel.entries[1])):
            with pytest.raises(InvalidParameter, match="^given row of vertex 1 is labelled unknown$"):
                recover_all(aug, given(row), p_in, p_out)

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

    def test_negative_seed(self, star_aug):
        with pytest.raises(InvalidParameter):
            random_kernel(star_aug, -1)

    def test_unknown_scope(self, star_aug):
        with pytest.raises(InvalidParameter, match="unknown scope 'nope'"):
            random_kernel(star_aug, 0, scope="nope")

    @pytest.mark.parametrize("mode", ["Rational", "exact", ""])
    def test_unknown_mode(self, star_aug, mode):
        # a float kernel labelled with an unknown mode would dump a header
        # that parse_kernel refuses
        with pytest.raises(InvalidParameter, match=f"^unknown mode '{mode}'$"):
            random_kernel(star_aug, 0, mode=mode)

    def test_rational_grid_widens_for_the_floor(self):
        # 19 entries of at least 1/20 do not fit on the 1/64 grid (4/64 each
        # would sum past 1), nor on 1/128: the root row is drawn on 1/256
        aug = spherical_augmentation(star(1, 19), 2)
        row = random_kernel(aug, 5, floor=0.05, mode=RATIONAL).entries[aug.full.root]
        assert len(row) == 19 and sum(row.values()) == 1
        assert all(256 % p.denominator == 0 and p >= Fraction(1, 20) for p in row.values())

    def test_grid_per_degree_equals_per_row_oracle(self):
        # random_kernel rounds the rows of one degree as one matrix; each row
        # must equal the per-row rounding, on grids that double for the
        # floor, on rows that take the rebalance, mixed in one matrix with
        # rows that do not, and on hand-made rows: p * 64 = 32.5 and 31.5
        # round half to even, and a tied maximum takes the remainder first
        rng = np.random.default_rng(3)
        doubled = rebalanced = 0
        for d in range(2, 11):
            for floor in np.linspace(0.005, 1 / d - 1e-9, 12).tolist():
                g = rng.standard_gamma(1.0, (250, d))
                probs = floor + (1 - d * floor) * g / g.sum(axis=1, keepdims=True)
                want = [_grid_row(row, floor) for row in probs.tolist()]
                assert chain_model._on_grid(probs, floor).tolist() == want
                den = chain_model.RATIONAL_GRID
                while np.ceil(floor * den) * d >= den:
                    den *= 2
                doubled += den > chain_model.RATIONAL_GRID
                lo = max(int(np.ceil(floor * den)), 1)
                counts = np.maximum(np.rint(probs * den), lo)
                rebalanced += (counts.max(axis=1) + den - counts.sum(axis=1) < lo).sum()
        assert doubled and rebalanced
        for row, counts in [([32.5 / 64, 31.5 / 64], [32, 32]), ([0.335, 0.335, 0.33], [22, 21, 21]),
                            ([0.3375, 0.3375, 0.325], [21, 22, 21])]:
            want = [Fraction(c, 64) for c in counts]
            assert _grid_row(row, 0.05) == want
            assert chain_model._on_grid(np.array([row]), 0.05).tolist() == [want]

    def test_scope_lambda_keeps_symmetric_added_rows(self, star_aug):
        k = random_kernel(star_aug, 2, scope="lambda")
        assert k.entries[3] == {1: 0.5, 5: 0.5}
        k_all = random_kernel(star_aug, 2, scope="all")
        assert k_all.entries[3] != {1: 0.5, 5: 0.5}
        assert labels_of(k_all)[3] == KNOWN

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
            assert labels_of(k)[u] == UNKNOWN
        for u in range(star_aug.base.vertex_count, star_aug.full.vertex_count):
            if u not in star_aug.outer_layer:
                assert labels_of(k)[u] == KNOWN

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
                assert labels_of(got) == labels_of(want)
                for u, row in want.entries.items():
                    assert list(got.entries[u].items()) == list(row.items()), (seed, u)


class TestKernelTable:
    """The kernel is one table; ``entries`` is a read-only view built once."""

    @pytest.mark.parametrize("mode", ["float", RATIONAL])
    def test_from_entries_round_trip(self, mode):
        for seed in range(6):
            _, kernel = rand_instance(seed, mode=mode)
            back = kernel_from_entries(kernel.entries, labels_of(kernel), mode)
            assert [list(row.items()) for row in back.entries.values()] == \
                [list(row.items()) for row in kernel.entries.values()]
            assert list(back.entries) == list(kernel.entries)
            for name in ("vertices", "sizes", "neighbors", "values"):
                a, b = getattr(back, name), getattr(kernel, name)
                assert a.dtype == b.dtype and a.tolist() == b.tolist()
                assert list(map(type, a.tolist())) == list(map(type, b.tolist()))

    def test_label_without_a_row_is_dropped(self):
        kernel = kernel_from_entries({0: {1: 1.0}, 1: {0: 1.0}}, {1: KNOWN, 7: UNKNOWN})
        assert kernel.labels.tolist() == [None, KNOWN]
        assert labels_of(kernel) == {1: KNOWN}
        assert kernel.restricted_to({UNKNOWN}).vertices.tolist() == []
        with pytest.raises(ValueError):
            kernel.labels[0] = KNOWN

    def test_entries_are_read_only(self, star_aug):
        kernel = random_kernel(star_aug, 3)
        with pytest.raises(TypeError):
            kernel.entries[0] = {1: 1.0}
        with pytest.raises(TypeError):
            kernel.entries[0][1] = 0.5
        with pytest.raises(TypeError):
            del kernel.entries[0]
        with pytest.raises(AttributeError):
            kernel.entries = {}
        with pytest.raises(ValueError):
            kernel.values[0] = 0.5
        assert 0 in kernel.entries and 5 not in kernel.entries  # 5 is an outer vertex
        assert kernel.entries[3] == {1: 0.5, 5: 0.5}

    def test_entries_built_once(self, monkeypatch):
        # broom(60, 60) has 3,661 base vertices; each lookup reads the same view
        aug = spherical_augmentation(broom(60, 60), 2)
        kernel = random_kernel(aug, 7, floor=0.005, scope="all")
        built = []
        proxy = chain_model.MappingProxyType
        monkeypatch.setattr(chain_model, "MappingProxyType", lambda m: built.append(1) or proxy(m))
        view = kernel.entries
        assert len(built) == len(kernel.vertices) + 1
        assert sum(u not in kernel.entries for u in range(aug.base.vertex_count)) == 0
        assert kernel.entries is view and len(built) == len(kernel.vertices) + 1

    @pytest.mark.parametrize("mode", ["float", RATIONAL])
    def test_row_prob_restricted(self, mode):
        for seed in range(4):
            _, kernel = rand_instance(seed, mode=mode, scope="lambda")
            rows = {u: dict(row) for u, row in kernel.entries.items()}
            for u, row in rows.items():
                assert kernel.row(u) == row
                assert all(kernel.prob(u, v) == p for v, p in row.items())
            with pytest.raises(MissingRow):
                kernel.row(-1)
            known = kernel.restricted_to({KNOWN})
            assert list(known.entries.items()) == [
                (u, row) for u, row in rows.items() if labels_of(kernel)[u] == KNOWN]
            assert labels_of(known) == {
                u: f for u, f in labels_of(kernel).items() if f == KNOWN}
            assert known.mode == mode
