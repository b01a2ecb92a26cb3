"""Hitting distributions: dynamic program, oracle, path classes."""

from fractions import Fraction

import pytest

from treetomo import (
    INNER,
    OUTER,
    first_hitting_joint,
)
from treetomo.errors import InvalidKernel, InvalidQuery
from treetomo.formats import dump_distribution, parse_distribution
from treetomo.forward_solver import hitting_laws
from treetomo.chain_model import AccRows, random_kernel
from treetomo.tree_model import random_tree, segment, spherical_augmentation, star

from helpers import (
    BRUTE_T_CAP,
    PathClassQuery,
    TooLarge,
    broom,
    brute_force_hitting,
    comb,
    default_augmented_kernel,
    kernel_from_entries,
    labels_of,
    law_total,
    mixed_denominator_instance,
    path_class_prob,
    path_to_root,
    rand_instance,
    small_bases,
)


def segment_fixture(p=0.7):
    """Path 0-1-2-3 with inner {2}, outer {3}, t(1,2) = p, symmetric above."""
    aug = spherical_augmentation(segment(0, 1), 2)
    kernel = kernel_from_entries(
        {0: {1: 1.0}, 1: {0: 1 - p, 2: p}, 2: {1: 0.5, 3: 0.5}},
        {0: "known", 1: "unknown", 2: "known"},
        "float",
    )
    return aug, kernel


def symmetric_star_fixture():
    """Augmented two-branch star, every transition 1/2, exact rationals."""
    aug = spherical_augmentation(star(1, 2), 2)
    h = Fraction(1, 2)
    base = kernel_from_entries({0: {1: h, 2: h}}, {0: "unknown"}, "rational")
    kernel = default_augmented_kernel(aug, base)
    return aug, kernel


class TestSegmentFixture:
    # P_in(2,2) = p, P_out(3,3) = p/2, P_in(4,2) = (1-p)p,
    # P_out(5,3) = (1-p)p/2 + p^2/4; all cross-checked by path enumeration.
    def test_derived_values(self):
        aug, kernel = segment_fixture()
        p_in = first_hitting_joint(aug, kernel, INNER, 8)
        p_out = first_hitting_joint(aug, kernel, OUTER, 8)
        oracle_in = brute_force_hitting(aug, kernel, INNER, 8)
        oracle_out = brute_force_hitting(aug, kernel, OUTER, 8)
        for (t, v), expected in [
            ((2, 2), 0.7),
            ((4, 2), 0.21),
        ]:
            assert abs(p_in.prob(t, v) - expected) < 1e-12
            assert abs(oracle_in.prob(t, v) - expected) < 1e-12
        for (t, v), expected in [
            ((3, 3), 0.35),
            ((5, 3), 0.2275),
        ]:
            assert abs(p_out.prob(t, v) - expected) < 1e-12
            assert abs(oracle_out.prob(t, v) - expected) < 1e-12

    def test_parity_cell_zero(self):
        aug, kernel = segment_fixture()
        p_in = first_hitting_joint(aug, kernel, INNER, 8)
        assert p_in.prob(3, 2) == 0

    def test_horizon_guard(self):
        aug, kernel = segment_fixture()
        p_in = first_hitting_joint(aug, kernel, INNER, 4)
        with pytest.raises(InvalidQuery):
            p_in.prob(6, 2)


class TestSymmetricStar:
    def test_exact_rational_values(self):
        aug, kernel = symmetric_star_fixture()
        p_in = first_hitting_joint(aug, kernel, INNER, 5)
        p_out = first_hitting_joint(aug, kernel, OUTER, 5)
        for v in (3, 4):
            assert p_in.prob(2, v) == Fraction(1, 4)
            assert p_in.prob(4, v) == Fraction(1, 8)
        for v in (5, 6):
            assert p_out.prob(3, v) == Fraction(1, 8)
            assert p_out.prob(5, v) == Fraction(3, 32)

    def test_oracle_agrees_exactly(self):
        aug, kernel = symmetric_star_fixture()
        for layer in (INNER, OUTER):
            dp = first_hitting_joint(aug, kernel, layer, 5)
            bf = brute_force_hitting(aug, kernel, layer, 5)
            assert dp.mass == bf.mass


class TestOracleEquivalence:
    def test_random_float(self):
        for seed in range(15):
            aug, kernel = rand_instance(seed, rout=1 + seed % 2, size=4)
            if aug.full.vertex_count > 12:
                continue
            for layer in (INNER, OUTER):
                dp = first_hitting_joint(aug, kernel, layer, 12)
                bf = brute_force_hitting(aug, kernel, layer, 12)
                keys = set(dp.mass) | set(bf.mass)
                for key in keys:
                    assert abs(dp.mass.get(key, 0) - bf.mass.get(key, 0)) < 1e-12

    def test_random_rational(self):
        # the last instance mixes rows over 3, 5 and 7, so the DP's scale is 105
        cases = [rand_instance(seed, rout=1, size=3, mode="rational") for seed in range(6)]
        for aug, kernel in cases + [mixed_denominator_instance()]:
            for layer in (INNER, OUTER):
                dp = first_hitting_joint(aug, kernel, layer, 10)
                bf = brute_force_hitting(aug, kernel, layer, 10)
                assert dp.mass == bf.mass

    def test_caps(self):
        aug, kernel = rand_instance(0, rout=4)
        with pytest.raises(TooLarge):
            brute_force_hitting(aug, kernel, OUTER, 40)
        with pytest.raises(TooLarge):
            brute_force_hitting(aug, kernel, OUTER, 10, vertex_cap=5)


class TestArraySweep:
    """``hitting_laws``: both laws from one validation and one edge table."""

    def test_rational_matches_oracle_on_small_bases(self):
        for idx, base in enumerate(small_bases()):
            aug = spherical_augmentation(base, 2)
            kernel = random_kernel(aug, 60 + idx, scope="all", mode="rational")
            t_max = min(3 * aug.hull_radius + 4, BRUTE_T_CAP)
            laws = hitting_laws(aug, kernel, t_max)
            for layer, dp in zip((INNER, OUTER), laws):
                assert (dp.layer, dp.t_max) == (layer, t_max)
                assert dp.mass == brute_force_hitting(aug, kernel, layer, t_max).mass

    @pytest.mark.parametrize("base", [
        *(random_tree(rout, 40 + rout) for rout in range(3, 7)), broom(5, 5),
    ], ids=["random3", "random4", "random5", "random6", "broom5x5"])
    def test_float_matches_exact_on_a_dyadic_kernel(self, base):
        # a dyadic rational kernel is exact in float, so only the sweep rounds
        aug = spherical_augmentation(base, 2)
        exact = random_kernel(aug, 11, scope="all", mode="rational")
        rows = {u: {v: float(p) for v, p in r.items()} for u, r in exact.entries.items()}
        approx = kernel_from_entries(rows, labels_of(exact), "float")
        t_max = 3 * aug.hull_radius + 4
        for e, f in zip(hitting_laws(aug, exact, t_max), hitting_laws(aug, approx, t_max)):
            assert e.mass.keys() == f.mass.keys() and e.mass
            for key, p in e.mass.items():
                assert abs(float(f.mass[key]) - float(p)) <= 1e-15 * float(p)

    @pytest.mark.parametrize("mode", ["float", "rational"])
    def test_one_layer_equals_its_law_of_the_pair(self, mode):
        for seed in range(4):
            aug, kernel = rand_instance(seed, mode=mode)
            t_max = 3 * aug.hull_radius + 4
            for layer, law in zip((INNER, OUTER), hitting_laws(aug, kernel, t_max)):
                one = first_hitting_joint(aug, kernel, layer, t_max)
                assert (one.layer, one.t_max, one.mass) == (law.layer, law.t_max, law.mass)

    @pytest.mark.parametrize("l", [2, 3])
    def test_every_vertex_heads_a_segment(self, l):
        # each step's sums over the table by dst are the whole next vector
        for base in [*small_bases(), comb(4), broom(5, 5)]:
            aug = spherical_augmentation(base, l)
            heads = AccRows(aug.full, random_kernel(aug, 5, scope="all")).heads
            assert heads.tolist() == list(range(aug.full.vertex_count))

    def test_short_horizons(self):
        aug, kernel = rand_instance(2, rout=3)
        r = aug.hull_radius
        assert [d.mass for d in hitting_laws(aug, kernel, 0)] == [{}, {}]
        p_in, p_out = hitting_laws(aug, kernel, r)
        assert p_in.mass == {} and p_out.mass == {} and p_in.t_max == r
        p_in, p_out = hitting_laws(aug, kernel, r + 1)
        assert p_in.mass and p_out.mass == {}

    def test_bad_queries(self):
        aug, kernel = segment_fixture()
        with pytest.raises(InvalidQuery):
            hitting_laws(aug, kernel, -1)
        with pytest.raises(InvalidQuery):
            first_hitting_joint(aug, kernel, "middle", 4)

    @pytest.mark.parametrize("mode, kind", [("float", float), ("rational", Fraction)])
    def test_cells_handed_out_as_public_numbers(self, mode, kind):
        # computed float laws keep np.longdouble cells and parsed ones
        # float64; both hand out plain floats, empty cells included
        aug = spherical_augmentation(star(1, 2), 2)
        for dist in hitting_laws(aug, random_kernel(aug, 3, mode=mode), 6):
            for law in (dist, parse_distribution(dump_distribution(dist, mode), mode)):
                assert {type(p) for p in law.mass.values()} == {kind}
                assert {type(law.prob(t, v)) for t in range(1, law.t_max + 1)
                        for v in (*law.vertices, -1)} == {kind}


class TestDistributionInvariants:
    def test_parity_minimal_time_monotone(self):
        for seed in range(12):
            aug, kernel = rand_instance(seed)
            t_max = 3 * aug.hull_radius + 4
            p_in = first_hitting_joint(aug, kernel, INNER, t_max)
            p_out = first_hitting_joint(aug, kernel, OUTER, t_max)
            for dist in (p_in, p_out):
                for (t, v), mass in dist.mass.items():
                    assert mass >= 0
                    assert t >= aug.full.norm[v]
                    assert (t - aug.full.norm[v]) % 2 == 0
            assert float(law_total(p_out)) <= 1 + 1e-12
            # outer mass is nondecreasing in the horizon
            prev = 0.0
            for t in range(t_max + 1):
                cur = float(law_total(p_out, t))
                assert cur >= prev - 1e-15
                prev = cur
            # the walk crosses inner before outer
            for t in range(t_max + 1):
                assert float(law_total(p_in, t)) >= float(law_total(p_out, t)) - 1e-12

    def test_ballistic_identity(self):
        for seed in range(12):
            aug, kernel = rand_instance(seed)
            r = aug.hull_radius
            p_out = first_hitting_joint(aug, kernel, OUTER, r + 2)
            for v in aug.outer_layer:
                path = path_to_root(aug.full, v)[::-1]
                prod = 1.0
                for a, b in zip(path, path[1:]):
                    prod *= float(kernel.prob(a, b))
                assert abs(float(p_out.prob(r + 2, v)) - prod) < 1e-12


class TestPathClassProb:
    def test_single_step(self):
        aug, kernel = segment_fixture()
        q = PathClassQuery(2, frozenset({3}), 1, min_shell=2)
        assert abs(path_class_prob(aug, kernel, q) - 0.5) < 1e-15

    def test_no_path_within_band(self):
        aug, kernel = segment_fixture()
        q = PathClassQuery(2, frozenset({3}), 3, min_shell=2)
        assert path_class_prob(aug, kernel, q) == 0

    def test_zero_time_rules(self):
        aug, kernel = segment_fixture()
        assert path_class_prob(aug, kernel, PathClassQuery(3, frozenset({3}), 0)) == 1
        assert path_class_prob(aug, kernel, PathClassQuery(2, frozenset({3}), 0)) == 0

    def test_bad_bounds(self):
        aug, kernel = segment_fixture()
        with pytest.raises(InvalidQuery):
            path_class_prob(
                aug, kernel,
                PathClassQuery(2, frozenset({3}), 1, min_shell=3, max_shell_strict=2),
            )
        with pytest.raises(InvalidQuery):
            path_class_prob(aug, kernel, PathClassQuery(2, frozenset(), 1))

    def test_unbounded_query_reproduces_hitting_law(self):
        for seed in range(6):
            aug, kernel = rand_instance(seed, rout=1 + seed % 2)
            t_max = 3 * aug.hull_radius + 4
            p_out = first_hitting_joint(aug, kernel, OUTER, t_max)
            for t in range(t_max + 1):
                q = PathClassQuery(aug.full.root, frozenset(aug.outer_layer), t)
                lhs = float(path_class_prob(aug, kernel, q))
                rhs = sum(float(p_out.prob(t, v)) for v in aug.outer_layer)
                assert abs(lhs - rhs) < 1e-12

    def test_subtree_restriction(self):
        aug, kernel = symmetric_star_fixture()
        # from vertex 1, reach outer vertex 5 in 3 steps: without leaving the
        # branch the only path is 1,3,1?... no: must stay in subtree(1)
        q = PathClassQuery(1, frozenset({5}), 3, restrict_to_subtree=1)
        val = path_class_prob(aug, kernel, q)
        # paths of length 3 from 1 to 5 inside branch one: 1,3,1,? no; only 1,3,5 has length 2
        assert val == 0
        q2 = PathClassQuery(1, frozenset({5}), 2, restrict_to_subtree=1)
        assert path_class_prob(aug, kernel, q2) == Fraction(1, 4)


class TestKernelValidationHook:
    def test_invalid_kernel_rejected(self):
        aug, _ = segment_fixture()
        bad = kernel_from_entries(
            {0: {1: 1.0}, 1: {0: 0.6, 2: 0.5}, 2: {1: 0.5, 3: 0.5}}
        )
        with pytest.raises(InvalidKernel):
            first_hitting_joint(aug, bad, INNER, 4)

    def test_float_entry_in_rational_kernel_rejected(self):
        aug, kernel = segment_fixture(p=0.5)
        kernel.mode = "rational"
        with pytest.raises(InvalidKernel):
            first_hitting_joint(aug, kernel, INNER, 4)
