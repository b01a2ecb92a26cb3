"""Edge recovery, the shell recursion, and the star closed form."""

from fractions import Fraction

import pytest

from treetomo import (
    INNER,
    KNOWN,
    OUTER,
    PathClassQuery,
    TransitionKernel,
    default_augmented_kernel,
    first_hitting_joint,
    kernel_max_error,
    make_plan,
    path_class_prob,
    random_kernel,
    recover_all,
    recover_edge,
    recover_star,
    tail_passage_probs,
    unknown_edge_coefficient,
)
from treetomo.errors import (
    FormatError,
    InvalidParameter,
    NotAChild,
    NotInLambda,
    OutOfRange,
    RowSumViolation,
    ZeroDenominator,
)
from treetomo.forward_solver import HittingDistribution
from treetomo.tree_model import build_tree, segment, spherical_augmentation, star

from helpers import broom, comb, explicit_edge_coefficient, known_part, rand_instance


def segment_fixture(p=0.7):
    aug = spherical_augmentation(segment(0, 1), 2)
    kernel = TransitionKernel(
        {0: {1: 1.0}, 1: {0: 1 - p, 2: p}, 2: {1: 0.5, 3: 0.5}},
        {0: "unknown", 1: "unknown", 2: "known"},
        "float",
    )
    return aug, kernel


def symmetric_star_fixture():
    aug = spherical_augmentation(star(1, 2), 2)
    h = Fraction(1, 2)
    base = TransitionKernel({0: {1: h, 2: h}}, {0: "unknown"}, "rational")
    kernel = default_augmented_kernel(aug, base)
    for u in (1, 2):
        kernel.provenance[u] = "unknown"
    return aug, kernel


def forward_pair(aug, kernel, t_max=None):
    if t_max is None:
        t_max = 3 * aug.hull_radius + 4
    return (
        first_hitting_joint(aug, kernel, INNER, t_max),
        first_hitting_joint(aug, kernel, OUTER, t_max),
    )


class TestMakePlan:
    def test_segment_terminal_shell(self):
        aug, _ = segment_fixture()
        plan = make_plan(aug, 1, 2)
        assert (plan.shell, plan.hull_radius) == (1, 1)
        assert plan.hit_time == 5
        assert plan.num_classes == 2
        assert plan.outer_targets == (3,)
        assert plan.inner_targets == (2,)

    def test_star_root(self):
        aug, _ = symmetric_star_fixture()
        plan = make_plan(aug, 0, 1)
        assert plan.hit_time == 7
        assert plan.num_classes == 3
        assert plan.outer_targets == (5,)
        assert plan.inner_targets == (3,)

    def test_terminal_shell_time(self):
        # at the outermost base shell the arrival time is R + 4
        for rout in (1, 2, 3):
            aug = spherical_augmentation(segment(0, rout), 2)
            plan = make_plan(aug, rout, rout + 1)
            assert plan.shell == aug.hull_radius
            assert plan.hit_time == aug.hull_radius + 4

    def test_errors(self):
        aug, _ = symmetric_star_fixture()
        with pytest.raises(NotInLambda):
            make_plan(aug, 3, 5)
        with pytest.raises(NotAChild):
            make_plan(aug, 0, 5)
        bad = spherical_augmentation(star(1, 2), 1)
        with pytest.raises(InvalidParameter):
            make_plan(bad, 0, 1)

    def test_class_times_stay_above_inner_arrival(self):
        for seed in range(8):
            aug, _ = rand_instance(seed)
            for u in range(aug.base.vertex_count):
                for w in aug.full.children[u]:
                    plan = make_plan(aug, u, w)
                    assert plan.num_classes >= 2
                    for l in range(1, plan.num_classes + 1):
                        s = plan.hit_time - (2 * l - 1)
                        assert s >= aug.hull_radius + 1
                        assert (s - (aug.hull_radius + 1)) % 2 == 0


class TestTailClasses:
    def test_segment_values(self):
        aug, kernel = segment_fixture()
        chis = tail_passage_probs(aug, kernel, make_plan(aug, 1, 2))
        assert abs(chis[(2, 1)] - 0.5) < 1e-15
        assert chis[(2, 2)] == 0

    def test_star_single_step(self):
        aug, kernel = symmetric_star_fixture()
        chis = tail_passage_probs(aug, kernel, make_plan(aug, 0, 1))
        assert chis[(3, 1)] == Fraction(1, 2)
        assert chis[(3, 2)] == Fraction(1, 8)
        assert chis[(3, 3)] == Fraction(1, 32)

    def test_matches_path_class_prob(self):
        for seed in range(8):
            aug, kernel = rand_instance(seed, rout=1 + seed % 3)
            for u in range(aug.base.vertex_count):
                for w in aug.full.children[u]:
                    plan = make_plan(aug, u, w)
                    chis = tail_passage_probs(aug, kernel, plan)
                    for (v, l), got in chis.items():
                        q = PathClassQuery(
                            start=v,
                            target=frozenset(plan.outer_targets),
                            exact_hit_time=2 * l - 1,
                            min_shell=plan.shell + 1,
                            max_shell_strict=plan.hull_radius + 2,
                        )
                        want = path_class_prob(aug, kernel, q)
                        assert abs(float(got) - float(want)) < 1e-13


class TestUnknownEdgeCoefficient:
    def test_segment(self):
        aug, kernel = segment_fixture()
        _, p_out = forward_pair(aug, kernel)
        d = unknown_edge_coefficient(aug, kernel, make_plan(aug, 1, 2), p_out)
        assert abs(float(d) - 0.175) < 1e-12

    def test_star_terminal_shell(self):
        aug, kernel = symmetric_star_fixture()
        _, p_out = forward_pair(aug, kernel)
        d = unknown_edge_coefficient(aug, kernel, make_plan(aug, 1, 3), p_out)
        assert d == Fraction(1, 16)

    def test_star_root_includes_sibling_branch(self):
        # the out-and-back family may descend through the sibling of the
        # solved child; dropping it would halve the symmetric coefficient
        aug, kernel = symmetric_star_fixture()
        _, p_out = forward_pair(aug, kernel)
        d = unknown_edge_coefficient(aug, kernel, make_plan(aug, 0, 1), p_out)
        assert d == Fraction(1, 32)

    def test_y_tree(self):
        base = build_tree([(0, 1), (1, 2), (1, 3)], 0)
        aug = spherical_augmentation(base, 2)
        h, t3 = Fraction(1, 2), Fraction(1, 3)
        kernel = TransitionKernel(
            {
                0: {1: Fraction(1)},
                1: {0: t3, 2: t3, 3: t3},
                2: {1: h, 4: h},
                3: {1: h, 5: h},
                4: {2: h, 6: h},
                5: {3: h, 7: h},
            },
            {0: "known", 1: "unknown", 2: "unknown", 3: "unknown",
             4: "known", 5: "known"},
            "rational",
        )
        p_in, p_out = forward_pair(aug, kernel)
        assert p_out.prob(8, 6) == Fraction(109, 1728)
        d = unknown_edge_coefficient(aug, kernel, make_plan(aug, 1, 2), p_out)
        assert d == Fraction(1, 48)
        rep = recover_all(aug, known_part(kernel), p_in, p_out, reference=kernel)
        assert rep.max_error == 0

    def test_matches_explicit_path_products(self):
        # the bottom-up head and tail sums equal the sum over (inner z below
        # u) x (outer v below w) of explicit path products, exactly
        cases = [rand_instance(s, rout=1 + s % 4, mode="rational") for s in range(6)]
        for base in (broom(4, 3), comb(6)):
            aug = spherical_augmentation(base, 2)
            cases.append((aug, random_kernel(aug, 5, scope="all", mode="rational")))
        for aug, kernel in cases:
            _, p_out = forward_pair(aug, kernel)
            for u in range(aug.base.vertex_count):
                for w in aug.full.children[u]:
                    plan = make_plan(aug, u, w)
                    got = unknown_edge_coefficient(aug, kernel, plan, p_out)
                    assert got == explicit_edge_coefficient(aug, kernel, plan, p_out)


class TestDecompositionIdentity:
    """Outer arrivals at the plan time split exactly into tail classes plus
    the out-and-back family, for every edge of random instances."""

    def check(self, aug, kernel, tol):
        p_in, p_out = forward_pair(aug, kernel)
        for u in range(aug.base.vertex_count):
            for w in aug.full.children[u]:
                plan = make_plan(aug, u, w)
                lhs = sum(p_out.prob(plan.hit_time, v) for v in plan.outer_targets)
                chis = tail_passage_probs(aug, kernel, plan)
                rhs = kernel.prob(u, w) * unknown_edge_coefficient(
                    aug, kernel, plan, p_out
                )
                for l in range(1, plan.num_classes + 1):
                    s = plan.hit_time - (2 * l - 1)
                    for vstar in plan.inner_targets:
                        rhs = rhs + p_in.prob(s, vstar) * chis[(vstar, l)]
                if tol == 0:
                    assert lhs == rhs
                else:
                    assert abs(float(lhs) - float(rhs)) < tol

    def test_float_instances(self):
        for seed in range(10):
            aug, kernel = rand_instance(seed, rout=1 + seed % 4)
            self.check(aug, kernel, 1e-12)

    def test_rational_instances(self):
        for seed in range(4):
            aug, kernel = rand_instance(seed, rout=1 + seed % 3, mode="rational")
            self.check(aug, kernel, 0)


class TestRecoverEdge:
    def test_segment_hand_computation(self):
        aug, kernel = segment_fixture()
        p_in, p_out = forward_pair(aug, kernel)
        plan = make_plan(aug, 1, 2)
        # numerator: P_out(5,3) - P_in(4,2)/2 = 0.2275 - 0.105 = 0.1225
        num = float(p_out.prob(5, 3)) - float(p_in.prob(4, 2)) * 0.5
        assert abs(num - 0.1225) < 1e-12
        val = recover_edge(aug, kernel, plan, p_in, p_out)
        assert abs(float(val) - 0.7) < 1e-12

    def test_star_symmetric(self):
        aug, kernel = symmetric_star_fixture()
        p_in, p_out = forward_pair(aug, kernel)
        val = recover_edge(aug, kernel, make_plan(aug, 1, 3), p_in, p_out)
        assert val == Fraction(1, 2)

    def test_locality_rows_below_shell_unused(self):
        # blank every row at shells <= k: the edge must still be solvable
        for seed in range(6):
            aug, kernel = rand_instance(seed, rout=1 + seed % 3)
            p_in, p_out = forward_pair(aug, kernel)
            for u in range(aug.base.vertex_count):
                k = aug.full.norm[u]
                for w in aug.full.children[u]:
                    plan = make_plan(aug, u, w)
                    full_val = recover_edge(aug, kernel, plan, p_in, p_out)
                    blanked = kernel.copy()
                    for z in range(aug.full.vertex_count):
                        if aug.full.norm[z] <= k and z in blanked.entries:
                            del blanked.entries[z]
                    part_val = recover_edge(aug, blanked, plan, p_in, p_out)
                    assert float(full_val) == float(part_val)

    def test_zero_denominator(self):
        aug, kernel = segment_fixture()
        p_in, _ = forward_pair(aug, kernel)
        empty = HittingDistribution(OUTER, 0, 8, {})
        with pytest.raises(ZeroDenominator):
            recover_edge(aug, kernel, make_plan(aug, 1, 2), p_in, empty)

    def test_out_of_range_strict_and_clamped(self):
        aug, kernel = segment_fixture()
        p_in, p_out = forward_pair(aug, kernel)
        plan = make_plan(aug, 1, 2)
        bumped = HittingDistribution(OUTER, 0, p_out.t_max, dict(p_out.mass))
        bumped.mass[(5, 3)] = float(bumped.mass[(5, 3)]) + 0.4
        with pytest.raises(OutOfRange):
            recover_edge(aug, kernel, plan, p_in, bumped)
        flags = []
        val = recover_edge(aug, kernel, plan, p_in, bumped, clamp=True, flags=flags)
        assert val == 1 - 1e-6
        assert flags == [("OutOfRange", 2)]


class TestRecoverAll:
    def test_segment_fixture_rows(self):
        aug, kernel = segment_fixture()
        p_in, p_out = forward_pair(aug, kernel)
        rep = recover_all(aug, known_part(kernel), p_in, p_out, reference=kernel)
        assert abs(rep.kernel.entries[1][2] - 0.7) < 1e-12
        assert abs(rep.kernel.entries[1][0] - 0.3) < 1e-12
        assert abs(rep.kernel.entries[0][1] - 1.0) < 1e-9
        assert rep.kernel.provenance[1] == "recovered"
        assert float(rep.max_error) < 1e-12

    def test_round_trip_float(self):
        for seed in range(25):
            aug, kernel = rand_instance(
                seed, rout=1 + seed % 5, scope="all" if seed % 2 else "lambda"
            )
            p_in, p_out = forward_pair(aug, kernel)
            rep = recover_all(aug, known_part(kernel), p_in, p_out, reference=kernel)
            assert float(rep.max_error) <= 1e-9
            assert not rep.flags

    def test_round_trip_rational_exact(self):
        for seed in range(8):
            aug, kernel = rand_instance(seed, rout=1 + seed % 3, mode="rational")
            p_in, p_out = forward_pair(aug, kernel)
            rep = recover_all(aug, known_part(kernel), p_in, p_out, reference=kernel)
            assert rep.max_error == 0
            for u, flag in kernel.provenance.items():
                if flag == "unknown":
                    assert rep.kernel.entries[u] == kernel.entries[u]

    def test_matches_per_edge_route_rational(self):
        # the per-shell tables give exactly the rows of make_plan + recover_edge
        # run edge by edge, outermost shell first; broom(12,12) is wider than
        # any random tree
        cases = [rand_instance(s, rout=1 + s % 3, mode="rational") for s in range(4)]
        for base in (broom(12, 12), comb(4)):
            aug = spherical_augmentation(base, 2)
            cases.append((aug, random_kernel(aug, 11, scope="all", mode="rational")))
        for aug, kernel in cases:
            full = aug.full
            p_in, p_out = forward_pair(aug, kernel)
            rep = recover_all(aug, known_part(kernel), p_in, p_out, reference=kernel)
            assert rep.max_error == 0
            work = known_part(kernel)
            for k in range(aug.hull_radius, -1, -1):
                for u in full.shell(k):
                    if not aug.is_original(u) or u in work.entries:
                        continue
                    row = {
                        w: recover_edge(aug, work, make_plan(aug, u, w), p_in, p_out)
                        for w in full.children[u]
                    }
                    if u != full.root:
                        row[full.parent[u]] = 1 - sum(row.values())
                    work.entries[u] = row
            for u, flag in rep.kernel.provenance.items():
                if flag == "recovered":
                    assert rep.kernel.entries[u] == work.entries[u]

    def test_access_bounds(self):
        for seed in range(10):
            aug, kernel = rand_instance(seed, rout=1 + seed % 4)
            r = aug.hull_radius
            p_in, p_out = forward_pair(aug, kernel)
            rep = recover_all(aug, known_part(kernel), p_in, p_out)
            assert max(rep.times_accessed.values()) <= 3 * r + 4
            for k, t_read in rep.shell_time_reads.items():
                assert t_read <= 3 * r + 4 - 2 * k

    def test_insufficient_horizon(self):
        aug, kernel = segment_fixture()
        p_in, p_out = forward_pair(aug, kernel, t_max=3 * aug.hull_radius + 3)
        with pytest.raises(FormatError):
            recover_all(aug, known_part(kernel), p_in, p_out)

    def test_distorted_input_strict_vs_clamped(self):
        aug, kernel = symmetric_star_fixture()
        flt = TransitionKernel(
            {u: {v: float(p) for v, p in r.items()} for u, r in kernel.entries.items()},
            dict(kernel.provenance),
            "float",
        )
        p_in, p_out = forward_pair(aug, flt)
        for (t, v) in list(p_out.mass):
            p_out.mass[(t, v)] = float(p_out.mass[(t, v)]) * 1.5
        with pytest.raises((OutOfRange, RowSumViolation)):
            recover_all(aug, known_part(flt), p_in, p_out)
        rep = recover_all(aug, known_part(flt), p_in, p_out, clamp=True)
        assert rep.flags
        assert rep.raw_kernel is not None
        for u, flag in rep.kernel.provenance.items():
            if flag == "recovered":
                assert abs(sum(rep.kernel.entries[u].values()) - 1) < 1e-9

    def test_residuals_root_only_nonzero(self):
        aug, kernel = segment_fixture()
        p_in, p_out = forward_pair(aug, kernel)
        rep = recover_all(aug, known_part(kernel), p_in, p_out)
        assert abs(rep.residuals[0]) < 1e-9
        assert rep.residuals[1] == 0


class TestRecoverStar:
    def test_symmetric_two_branches_exact(self):
        aug, kernel = symmetric_star_fixture()
        p_in, p_out = forward_pair(aug, kernel, t_max=5)
        # ratio values from the fixture: 3/4 - 1/2 = 1/4, divided by 1/2
        assert p_out.prob(5, 5) / p_out.prob(3, 5) == Fraction(3, 4)
        assert p_in.prob(4, 3) / p_in.prob(2, 3) == Fraction(1, 2)
        got = recover_star(2, known_part(kernel), p_in, p_out)
        assert got.entries[1] == {0: Fraction(1, 2), 3: Fraction(1, 2)}
        assert got.entries[0] == {1: Fraction(1, 2), 2: Fraction(1, 2)}

    def test_matches_recover_all(self):
        for m in (1, 2, 3, 4):
            aug = spherical_augmentation(star(1, m), 2)
            for seed in (3, 4):
                kernel = random_kernel_for_star(aug, seed)
                p_in, p_out = forward_pair(aug, kernel)
                closed = recover_star(m, known_part(kernel), p_in, p_out)
                rep = recover_all(aug, known_part(kernel), p_in, p_out)
                for u in range(aug.base.vertex_count):
                    for v, p in rep.kernel.entries[u].items():
                        assert abs(float(p) - float(closed.entries[u][v])) <= 1e-10

    def test_asymmetric_hand_kernel(self):
        aug = spherical_augmentation(star(1, 2), 2)
        kernel = TransitionKernel(
            {
                0: {1: 0.3, 2: 0.7},
                1: {0: 0.4, 3: 0.6},
                2: {0: 0.55, 4: 0.45},
                3: {1: 0.5, 5: 0.5},
                4: {2: 0.5, 6: 0.5},
            },
            {0: "unknown", 1: "unknown", 2: "unknown", 3: "known", 4: "known"},
            "float",
        )
        p_in, p_out = forward_pair(aug, kernel)
        closed = recover_star(2, known_part(kernel), p_in, p_out)
        rep = recover_all(aug, known_part(kernel), p_in, p_out, reference=kernel)
        assert abs(closed.entries[0][1] - 0.3) < 1e-10
        assert abs(closed.entries[1][3] - 0.6) < 1e-10
        assert float(rep.max_error) < 1e-10
        assert float(kernel_max_error(closed, kernel)) < 1e-10

    def test_coverage_guard(self):
        aug, kernel = symmetric_star_fixture()
        p_in, p_out = forward_pair(aug, kernel, t_max=4)
        with pytest.raises(FormatError):
            recover_star(2, known_part(kernel), p_in, p_out)


def random_kernel_for_star(aug, seed):
    from treetomo import random_kernel

    return random_kernel(aug, seed, floor=0.05, scope="all")
