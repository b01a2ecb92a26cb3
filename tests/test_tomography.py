"""Edge recovery, the shell recursion, and the star closed form."""

from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from treetomo import (
    INNER,
    KNOWN,
    OUTER,
    TransitionKernel,
    TreetomoError,
    first_hitting_joint,
    random_kernel,
    recover_all,
    validate_kernel,
)
from treetomo.errors import (
    FormatError,
    InvalidKernel,
    InvalidParameter,
    MissingRow,
    NotAChild,
    NotInLambda,
    OutOfRange,
    RowSumViolation,
    ZeroDenominator,
)
from treetomo import tomography
from treetomo.formats import dump_distribution, parse_distribution
from treetomo.forward_solver import HittingDistribution, hitting_laws
from treetomo.tomography import (
    ROOT_SUM_TOL,
    make_plan,
    tail_passage_probs,
    unknown_edge_coefficient,
)
from treetomo.tree_model import build_tree, random_tree, segment, spherical_augmentation, star

from helpers import (
    PathClassQuery,
    broom,
    comb,
    default_augmented_kernel,
    entry_max_error,
    explicit_edge_coefficient,
    kernel_from_entries,
    known_part,
    labels_of,
    law_from_mass,
    mixed_denominator_instance,
    outer_child,
    path_class_prob,
    prime_shell_instance,
    rand_instance,
    recover_by_edges,
    recover_edge,
    recover_star,
    small_bases,
)


def segment_fixture(p=0.7):
    aug = spherical_augmentation(segment(0, 1), 2)
    kernel = kernel_from_entries(
        {0: {1: 1.0}, 1: {0: 1 - p, 2: p}, 2: {1: 0.5, 3: 0.5}},
        {0: "unknown", 1: "unknown", 2: "known"},
        "float",
    )
    return aug, kernel


def symmetric_star_fixture():
    aug = spherical_augmentation(star(1, 2), 2)
    h = Fraction(1, 2)
    base = kernel_from_entries({0: {1: h, 2: h}}, {0: "unknown"}, "rational")
    kernel = default_augmented_kernel(aug, base)
    return aug, kernel_from_entries(
        kernel.entries, {**labels_of(kernel), 1: "unknown", 2: "unknown"}, "rational")


def forward_pair(aug, kernel, t_max=None):
    if t_max is None:
        t_max = 3 * aug.hull_radius + 4
    return (
        first_hitting_joint(aug, kernel, INNER, t_max),
        first_hitting_joint(aug, kernel, OUTER, t_max),
    )


def off_scale_laws(aug, kernel):
    """Exact laws with one inner cell per time moved by 1/(3*10**12)."""
    p_in, p_out = forward_pair(aug, kernel)
    mass = dict(p_in.mass)
    first = {}
    for t, v in sorted(mass):
        first.setdefault(t, v)
    for t, v in first.items():
        mass[(t, v)] += Fraction(1, 3 * 10**12)
    return law_from_mass(INNER, p_in.t_max, mass), p_out


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
        with pytest.raises(InvalidParameter):  # chains of length 1 are refused where built
            spherical_augmentation(star(1, 2), 1)

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

    @pytest.mark.parametrize("base", [comb(8), segment(0, 8)], ids=["comb8", "segment0-8"])
    def test_matches_path_class_prob_deep_exact(self, base):
        # radius 8: over the last steps the step bound of the recursion drops
        # many more shells of the band than on the shallow trees above
        aug = spherical_augmentation(base, 2)
        kernel = random_kernel(aug, 13, scope="all", mode="rational")
        for u in range(aug.base.vertex_count):
            for w in aug.full.children[u]:
                plan = make_plan(aug, u, w)
                for (v, l), got in tail_passage_probs(aug, kernel, plan).items():
                    q = PathClassQuery(
                        start=v,
                        target=frozenset(plan.outer_targets),
                        exact_hit_time=2 * l - 1,
                        min_shell=plan.shell + 1,
                        max_shell_strict=plan.hull_radius + 2,
                    )
                    assert got == path_class_prob(aug, kernel, q)

    def test_mixed_denominators_match_oracle_exactly(self):
        # rows over 3, 5 and 7 that vary across shells, and comb(8) with a new
        # prime on each shell; see the helpers
        for aug, kernel in (mixed_denominator_instance(), prime_shell_instance(comb(8))):
            for u in range(aug.base.vertex_count):
                for w in aug.full.children[u]:
                    plan = make_plan(aug, u, w)
                    for (v, l), got in tail_passage_probs(aug, kernel, plan).items():
                        q = PathClassQuery(
                            start=v,
                            target=frozenset(plan.outer_targets),
                            exact_hit_time=2 * l - 1,
                            min_shell=plan.shell + 1,
                            max_shell_strict=plan.hull_radius + 2,
                        )
                        assert got == path_class_prob(aug, kernel, q)


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
        kernel = kernel_from_entries(
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
        # u) x (outer v below w) of explicit path products, exactly; the
        # outer-law heads here against the inner-law heads there pin
        # p_out(R+2, z') = p_in(R+1, z) * t(z, z')
        cases = [rand_instance(s, rout=1 + s % 4, mode="rational") for s in range(6)]
        for base in (broom(4, 3), comb(6)):
            aug = spherical_augmentation(base, 2)
            cases.append((aug, random_kernel(aug, 5, scope="all", mode="rational")))
        for aug, kernel in cases:
            p_in, p_out = forward_pair(aug, kernel)
            for u in range(aug.base.vertex_count):
                for w in aug.full.children[u]:
                    plan = make_plan(aug, u, w)
                    got = unknown_edge_coefficient(aug, kernel, plan, p_out)
                    assert got == explicit_edge_coefficient(aug, kernel, plan, p_in)


class TestPerEdgeApi:
    """What the per-edge functions return and what they refuse."""

    @pytest.mark.parametrize("mode, kind", [("float", float), ("rational", Fraction)])
    def test_values_in_the_public_type(self, mode, kind):
        # the sweeps run in np.longdouble in float mode; no such value is returned
        aug = spherical_augmentation(comb(4), 2)
        kernel = random_kernel(aug, 7, scope="all", mode=mode)
        _, p_out = forward_pair(aug, kernel)
        for u in range(aug.base.vertex_count):
            for w in aug.full.children[u]:
                plan = make_plan(aug, u, w)
                assert {type(p) for p in tail_passage_probs(aug, kernel, plan).values()} == {kind}
                assert type(unknown_edge_coefficient(aug, kernel, plan, p_out)) is kind

    def test_missing_row_refused(self):
        # segment(1, 2): both sweeps for the edge (0, 1) read the row of vertex 2
        aug = spherical_augmentation(segment(1, 2), 2)
        kernel = random_kernel(aug, 5, scope="all")
        _, p_out = forward_pair(aug, kernel)
        lacking = kernel_from_entries(
            {u: row for u, row in kernel.entries.items() if u != 2})
        plan = make_plan(aug, 0, 1)
        message = "^row for vertex 2 required but absent$"
        with pytest.raises(MissingRow, match=message):
            tail_passage_probs(aug, lacking, plan)
        with pytest.raises(MissingRow, match=message):
            unknown_edge_coefficient(aug, lacking, plan, p_out)


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
                    blanked = kernel_from_entries(
                        {z: row for z, row in kernel.entries.items() if aug.full.norm[z] > k},
                        labels_of(kernel), kernel.mode)
                    part_val = recover_edge(aug, blanked, plan, p_in, p_out)
                    assert float(full_val) == float(part_val)

    def test_zero_denominator(self):
        # the heads are the inner arrivals at R+1; an empty inner law has none
        aug, kernel = segment_fixture()
        _, p_out = forward_pair(aug, kernel)
        empty = law_from_mass(INNER, 8, {})
        with pytest.raises(ZeroDenominator):
            recover_edge(aug, kernel, make_plan(aug, 1, 2), empty, p_out)

    def test_out_of_range_strict_and_clamped(self):
        aug, kernel = segment_fixture()
        p_in, p_out = forward_pair(aug, kernel)
        plan = make_plan(aug, 1, 2)
        mass = dict(p_out.mass)
        mass[(5, 3)] = float(mass[(5, 3)]) + 0.4
        bumped = law_from_mass(OUTER, p_out.t_max, mass)
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
        assert labels_of(rep.kernel)[1] == "recovered"
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
        # the last two instances mix rows over 3, 5 and 7 across shells, and
        # give comb(8) a new prime on each shell and no row, so the scale widens
        # on every shell while the carried tail-class front holds values
        cases = [rand_instance(s, rout=1 + s % 3, mode="rational") for s in range(8)]
        for aug, kernel in cases + [mixed_denominator_instance(), prime_shell_instance(comb(8))]:
            p_in, p_out = forward_pair(aug, kernel)
            rep = recover_all(aug, known_part(kernel), p_in, p_out, reference=kernel)
            assert rep.max_error == 0
            for u, flag in labels_of(kernel).items():
                if flag == "unknown":
                    assert rep.kernel.entries[u] == kernel.entries[u]
            assert all(type(r) is Fraction and r == 0 for r in rep.residuals.values())

    @pytest.mark.parametrize("mode", ["float", "rational"])
    def test_max_error_against_another_draw(self, mode):
        # a valid kernel of another seed on the same tree as the reference:
        # max_error is the largest entry difference over the recovered rows
        aug, kernel = rand_instance(5, rout=3, mode=mode)
        other = random_kernel(aug, 8, scope="all", mode=mode)
        rep = recover_all(aug, known_part(kernel), *forward_pair(aug, kernel), reference=other)
        assert rep.max_error == entry_max_error(rep.kernel, other) > 0
        assert type(rep.max_error) is (Fraction if mode == "rational" else float)

    @pytest.mark.parametrize("twice", ["cell", "row"])
    def test_reference_with_a_repeat_is_refused(self, twice):
        # a reference with a neighbor listed twice in a row, or a vertex with
        # two rows, is no chain: its cells do not line up with the answer's
        aug, kernel = rand_instance(5, rout=3)
        u, nbrs = int(kernel.vertices[0]), kernel.neighbors.copy()
        if twice == "cell":
            nbrs[1] = nbrs[0]
            bad = TransitionKernel(kernel.vertices, kernel.sizes, nbrs, kernel.values,
                                   kernel.labels)
        else:
            row = slice(0, kernel.sizes[0])
            bad = TransitionKernel(
                np.append(kernel.vertices, u), np.append(kernel.sizes, kernel.sizes[0]),
                np.append(nbrs, nbrs[row]), np.append(kernel.values, kernel.values[row]),
                np.append(kernel.labels, None))
        kind = "Support" if twice == "cell" else "RepeatedRow"
        with pytest.raises(InvalidKernel, match=f"^{kind} at vertex {u}: "):
            recover_all(aug, known_part(kernel), *forward_pair(aug, kernel), reference=bad)

    def test_sweep_count(self, monkeypatch):
        # the tail classes are carried inward: shell k sweeps the front onto
        # shells k+1 .. r+1 once each, (r+1)(r+2)/2 sweeps in all, and the
        # heads and tails take one sweep per shell
        aug = spherical_augmentation(comb(16), 2)
        kernel = random_kernel(aug, 7, scope="all", mode="rational")
        p_in, p_out = forward_pair(aug, kernel)
        counts, sweep = Counter(), tomography._Front.sweep

        def counted(front, x, shell, push=False):
            counts["head" if push else "front" if x is front.front else "tail"] += 1
            sweep(front, x, shell, push)

        monkeypatch.setattr(tomography._Front, "sweep", counted)
        rep = recover_all(aug, known_part(kernel), p_in, p_out, reference=kernel)
        assert rep.max_error == 0
        r = 16
        assert counts["front"] <= (r + 1) * (r + 2) // 2 == 153
        assert counts["head"] <= r + 1 and counts["tail"] <= r + 1

    def test_matches_per_edge_route_rational(self):
        # the per-shell tables give exactly the rows of make_plan + recover_edge
        # run edge by edge, outermost shell first; broom(12,12) is wider than
        # any random tree, and on comb(8) the step bound of the tail-class
        # recursion drops many shells
        cases = [rand_instance(s, rout=1 + s % 3, mode="rational") for s in range(4)]
        for base in (broom(12, 12), comb(4), comb(8)):
            aug = spherical_augmentation(base, 2)
            cases.append((aug, random_kernel(aug, 11, scope="all", mode="rational")))
        for aug, kernel in cases:
            p_in, p_out = forward_pair(aug, kernel)
            rep = recover_all(aug, known_part(kernel), p_in, p_out, reference=kernel)
            assert rep.max_error == 0
            work = recover_by_edges(aug, known_part(kernel), p_in, p_out)
            for u, flag in labels_of(rep.kernel).items():
                if flag == "recovered":
                    assert rep.kernel.entries[u] == work.entries[u]

    @pytest.mark.parametrize("clamp", [False, True])
    def test_off_scale_laws_match_per_edge_route(self, clamp):
        # the per-time law denominators are no powers of the kernel scale;
        # recover_all must give exactly the rows of the per-edge Fraction
        # route, or fail alike
        cases = [rand_instance(s, rout=1 + s % 3, mode="rational") for s in range(4)]
        for base in (broom(4, 3), comb(5)):
            aug = spherical_augmentation(base, 2)
            cases.append((aug, random_kernel(aug, 11, scope="all", mode="rational")))
        for aug, kernel in cases:
            p_in, p_out = off_scale_laws(aug, kernel)
            known = known_part(kernel)
            try:
                got = recover_all(aug, known, p_in, p_out, clamp=clamp).kernel
            except TreetomoError as exc:
                got = type(exc)
            try:
                want = recover_by_edges(aug, known, p_in, p_out, clamp=clamp)
            except TreetomoError as exc:
                want = type(exc)
            if isinstance(want, type):
                assert got is want
                continue
            assert not isinstance(got, type), got
            for u, flag in labels_of(got).items():
                if flag == "recovered":
                    assert got.entries[u] == want.entries[u]

    def test_long_exact_value_in_message(self):
        # on comb(6) the off-scale root row sum has more digits than str of
        # an int may print; the refusal must still be a RowSumViolation
        aug = spherical_augmentation(comb(6), 2)
        kernel = random_kernel(aug, 11, scope="all", mode="rational")
        p_in, p_out = off_scale_laws(aug, kernel)
        with pytest.raises(RowSumViolation, match=r"root row sums to \d\.\d+(e-\d+)?, expected 1"):
            recover_all(aug, known_part(kernel), p_in, p_out)

    def test_access_bounds(self):
        for seed in range(10):
            aug, kernel = rand_instance(seed, rout=1 + seed % 4)
            r = aug.hull_radius
            p_in, p_out = forward_pair(aug, kernel)
            rep = recover_all(aug, known_part(kernel), p_in, p_out)
            assert max(rep.times_accessed.values()) <= 3 * r + 4
            for k, t_read in rep.shell_time_reads.items():
                assert t_read <= 3 * r + 4 - 2 * k

    def test_shell_reads_nothing_past_its_bound(self):
        # criterion 5 observed, not restated: law cells past 3R+4-2k (outer)
        # and 3R+3-2k (inner) scaled by 3/2 leave every row at shells >= k as
        # it was, and scaling from those times on moves a row at shell k.
        # Clamping lets the inner shells, solved after shell k, flag their rows.
        bases = [random_tree(1 + s % 4, s) for s in range(6)] + [comb(5), broom(3, 3)]
        pairs = 0
        for aug in (spherical_augmentation(base, 2) for base in bases):
            kernel = random_kernel(aug, 11, scope="all", mode="rational")
            p_in, p_out = forward_pair(aug, kernel)
            known = known_part(kernel)

            def rows(last):  # outer cells after time last, inner after last - 1, scaled
                s_in = scaled_law(p_in, Fraction(3, 2), lambda key: key[0] >= last)
                s_out = scaled_law(p_out, Fraction(3, 2), lambda key: key[0] > last)
                return recover_all(aug, known, s_in, s_out, clamp=True).kernel.entries

            clean = recover_all(aug, known, p_in, p_out, clamp=True).kernel.entries
            norm, r = aug.full.norm, aug.hull_radius
            targets = [u for u, f in labels_of(kernel).items() if f == "unknown"]
            for k in sorted({norm[u] for u in targets}):
                upper = [u for u in targets if norm[u] >= k]
                got = rows(3 * r + 4 - 2 * k)
                assert {u: got[u] for u in upper} == {u: clean[u] for u in upper}, (r, k)
                got = rows(3 * r + 3 - 2 * k)
                assert any(got[u] != clean[u] for u in upper if norm[u] == k), (r, k)
                pairs += 1
        assert pairs == 28

    def test_input_laws_left_unmarked(self):
        # reads are recorded on the report; the caller's laws are not touched
        aug, kernel = rand_instance(3, rout=3)
        p_in, p_out = forward_pair(aug, kernel)
        before = (dict(p_in.mass), dict(p_out.mass))
        rep = recover_all(aug, known_part(kernel), p_in, p_out)
        assert (p_in.mass, p_out.mass) == before
        assert rep.times_accessed["outer"] == 3 * aug.hull_radius + 4

    def test_insufficient_horizon(self):
        aug, kernel = segment_fixture()
        p_in, p_out = forward_pair(aug, kernel, t_max=3 * aug.hull_radius + 3)
        with pytest.raises(FormatError):
            recover_all(aug, known_part(kernel), p_in, p_out)

    @pytest.mark.parametrize(
        "layer, cell",
        [(INNER, (2, 0)), (INNER, (0, 3)), (OUTER, (5, 3)), (OUTER, (0, 5))],
    )
    def test_cell_off_its_layer(self, layer, cell):
        # star(1, 2): root 0, inner layer {3, 4}, outer layer {5, 6}
        aug, kernel = symmetric_star_fixture()
        laws = dict(zip((INNER, OUTER), forward_pair(aug, kernel)))
        law = laws[layer]
        laws[layer] = law_from_mass(
            layer, law.t_max, {**law.mass, cell: Fraction(1, 64)})
        with pytest.raises(FormatError):
            recover_all(aug, known_part(kernel), laws[INNER], laws[OUTER])

    def test_float_laws_under_rational_kernel(self):
        # empirical laws are floats; exact known rows cannot absorb them
        aug, kernel = symmetric_star_fixture()
        p_in, p_out = forward_pair(aug, kernel)
        p_out = law_from_mass(
            OUTER, p_out.t_max, {key: float(p) for key, p in p_out.mass.items()})
        with pytest.raises(FormatError, match="outer law holds float cells under a rational"):
            recover_all(aug, known_part(kernel), p_in, p_out)

    def test_rational_laws_under_float_kernel(self):
        # a law is read only in its kernel's mode: float known rows refuse
        # exact laws, each one, rather than read them as their float images
        aug, kernel = rand_instance(3, mode="rational")
        flt = kernel_from_entries(
            {u: {v: float(p) for v, p in r.items()} for u, r in kernel.entries.items()},
            labels_of(kernel),
            "float",
        )
        exact = forward_pair(aug, kernel)
        floats = forward_pair(aug, flt)
        for name, laws in (("inner", (exact[0], floats[1])), ("outer", (floats[0], exact[1]))):
            with pytest.raises(FormatError, match=f"{name} law holds exact cells under a float "):
                recover_all(aug, known_part(flt), *laws)

    @pytest.mark.parametrize("mode", ["float", "rational"])
    def test_empty_law_of_either_mode_accepted(self, mode):
        # a law with no cells is in no mode: it is read as all zero, so an
        # empty outer law leaves nothing to arrive and the first edge is out
        # of range, not a format fault
        aug, kernel = symmetric_star_fixture()
        if mode == "float":
            kernel = kernel_from_entries(
                {u: {v: float(p) for v, p in r.items()} for u, r in kernel.entries.items()},
                labels_of(kernel), "float")
        p_in, p_out = forward_pair(aug, kernel)
        for dens in (None, ()):
            empty = HittingDistribution(OUTER, p_out.t_max, (), (), p_out.cells[:0, :0], dens)
            with pytest.raises(OutOfRange):
                recover_all(aug, known_part(kernel), p_in, empty)

    @pytest.mark.parametrize("mode", ["float", "rational"])
    def test_nothing_to_recover(self, mode):
        # every base row given: no row is recovered, and the error against a
        # reference is the mode's zero
        aug, kernel = rand_instance(3, mode=mode)
        given = TransitionKernel(kernel.vertices, kernel.sizes, kernel.neighbors, kernel.values,
                                 np.array([KNOWN] * len(kernel.vertices), object), mode)
        rep = recover_all(aug, given, *forward_pair(aug, kernel), reference=kernel)
        assert "recovered" not in labels_of(rep.kernel).values()
        assert type(rep.max_error) is (Fraction if mode == "rational" else float)
        assert rep.max_error == 0

    def test_extra_base_row_used_as_given(self):
        # a base row in known is no target: the answer keeps it as given,
        # labelled known, though it is not the row the laws were made with
        aug, kernel = rand_instance(3, mode="rational")
        root = dict.fromkeys(kernel.entries[0], Fraction(1, 4))
        assert root != kernel.entries[0]
        known = known_part(kernel)
        given = kernel_from_entries({**known.entries, 0: root},
                                    {**labels_of(known), 0: KNOWN}, "rational")
        rep = recover_all(aug, given, *forward_pair(aug, kernel))
        assert rep.kernel.entries == {**kernel.entries, 0: root}
        base = range(aug.base.vertex_count)
        assert [labels_of(rep.kernel)[u] for u in base] == ["known"] + ["recovered"] * (len(base) - 1)
        assert set(labels_of(rep.kernel).values()) == {"known", "recovered"}

    def test_row_labelled_unknown_refused(self):
        # the drawn kernel labels its base rows unknown: passed whole as the
        # given rows, it is refused, naming the first such row in the table
        aug, kernel = rand_instance(5, mode="rational")
        first = next(u for u, f in labels_of(kernel).items() if f == "unknown")
        with pytest.raises(InvalidParameter,
                           match=f"^given row of vertex {first} is labelled unknown$"):
            recover_all(aug, kernel, *forward_pair(aug, kernel))

    def test_rational_answer_needs_rational_reference(self):
        # an exact entry less a float one is a float: a rational answer is
        # measured only against exact entries; a float answer takes either
        aug, kernel = rand_instance(3, mode="rational")
        image = kernel_from_entries(
            {u: {v: float(p) for v, p in r.items()} for u, r in kernel.entries.items()},
            labels_of(kernel), "float")
        laws = forward_pair(aug, kernel)
        with pytest.raises(FormatError, match="^a rational answer needs a rational reference"):
            recover_all(aug, known_part(kernel), *laws, reference=image)
        # the mode is checked before the reference is validated: a float
        # kernel of another tree is refused for its mode
        _, other = rand_instance(4)
        assert validate_kernel(aug, other)
        with pytest.raises(FormatError, match="^a rational answer needs a rational reference"):
            recover_all(aug, known_part(kernel), *laws, reference=other)
        rep = recover_all(aug, known_part(image), *forward_pair(aug, image), reference=kernel)
        assert type(rep.max_error) is float and rep.max_error < 1e-9

    def test_clamped_rational_rows_stay_exact(self):
        aug, kernel = symmetric_star_fixture()
        p_in, p_out = forward_pair(aug, kernel)
        p_out = scaled_law(p_out, Fraction(3, 2))
        rep = recover_all(aug, known_part(kernel), p_in, p_out, clamp=True)
        assert rep.flags
        for u, flag in labels_of(rep.kernel).items():
            if flag == "recovered":
                row = rep.kernel.entries[u].values()
                assert all(isinstance(p, Fraction) for p in row)
                assert sum(row) == 1

    def test_distorted_input_strict_vs_clamped(self):
        aug, kernel = symmetric_star_fixture()
        flt = kernel_from_entries(
            {u: {v: float(p) for v, p in r.items()} for u, r in kernel.entries.items()},
            labels_of(kernel),
            "float",
        )
        p_in, p_out = forward_pair(aug, flt)
        p_out = law_from_mass(
            OUTER, p_out.t_max, {key: float(p) * 1.5 for key, p in p_out.mass.items()})
        with pytest.raises((OutOfRange, RowSumViolation)):
            recover_all(aug, known_part(flt), p_in, p_out)
        rep = recover_all(aug, known_part(flt), p_in, p_out, clamp=True)
        assert rep.flags
        for u, flag in labels_of(rep.kernel).items():
            if flag == "recovered":
                assert abs(sum(rep.kernel.entries[u].values()) - 1) < 1e-9

    def test_inward_entry_out_of_range_strict_vs_clamped(self):
        # broom(1, 2): shell-1 outer arrivals raised by 1/32 push the child
        # entries of vertex 1 past a sum of 1 while each stays in (0, 1]
        aug = spherical_augmentation(broom(1, 2), 2)
        kernel = random_kernel(aug, 3, scope="all", mode="rational")
        p_in, p_out = forward_pair(aug, kernel)
        shell_1 = 3 * aug.hull_radius + 2
        p_out = scaled_law(p_out, Fraction(33, 32), lambda key: key[0] == shell_1)
        with pytest.raises(RowSumViolation, match="inward entry of vertex 1"):
            recover_all(aug, known_part(kernel), p_in, p_out)
        rep = recover_all(aug, known_part(kernel), p_in, p_out, clamp=True)
        assert ("RowSumViolation", 1) in rep.flags
        assert rep.residuals[1] > 0  # a clamped row keeps its computed residual
        row = rep.kernel.entries[1]
        assert sum(row.values()) == 1
        assert all(p > 0 for p in row.values())
        assert row[0] < Fraction(1, 10**5)

    def test_residuals_root_only_nonzero(self):
        aug, kernel = segment_fixture()
        p_in, p_out = forward_pair(aug, kernel)
        rep = recover_all(aug, known_part(kernel), p_in, p_out)
        assert abs(rep.residuals[0]) < 1e-9
        assert rep.residuals[1] == 0

    def test_float_answer_passes_validation(self):
        # comb(8) float with the laws as forward writes them: the solved root
        # row misses 1 by 8.2e-9, within ROOT_SUM_TOL but far past
        # ROW_SUM_TOL; its last entry closes it, and its residual keeps the
        # deviation
        aug = spherical_augmentation(comb(8), 2)
        kernel = random_kernel(aug, 7, floor=0.05, scope="all")
        p_in, p_out = (parse_distribution(dump_distribution(d))
                       for d in hitting_laws(aug, kernel, aug.horizon))
        rep = recover_all(aug, known_part(kernel), p_in, p_out)
        assert validate_kernel(aug, rep.kernel) == []
        assert 1e-9 < abs(rep.residuals[0]) < ROOT_SUM_TOL


def oracle_trees():
    """Every small base tree, broom(5, 5) and comb(6), 2-spherically augmented."""
    return [spherical_augmentation(b, 2) for b in small_bases() + [broom(5, 5), comb(6)]]


def scaled_law(dist, factor, keep=lambda key: True):
    """``dist`` with the cells that ``keep`` selects multiplied by ``factor``."""
    mass = {key: p * factor if keep(key) else p for key, p in dist.mass.items()}
    return law_from_mass(dist.layer, dist.t_max, mass)


class TestArrayInversion:
    """The array sweeps give the rows, diagnostics and refusals of the
    per-edge route, in its order."""

    @pytest.mark.parametrize("clamp", [False, True])
    def test_rows_match_per_edge_oracle(self, clamp):
        for aug in oracle_trees():
            kernel = random_kernel(aug, 11, scope="all", mode="rational")
            p_in, p_out = forward_pair(aug, kernel)
            known = known_part(kernel)
            rep = recover_all(aug, known, p_in, p_out, clamp=clamp)
            want = recover_by_edges(aug, known, p_in, p_out, clamp=clamp)
            targets = [u for u, f in labels_of(kernel).items() if f == "unknown"]
            assert {u: rep.kernel.entries[u] for u in targets} == \
                {u: want.entries[u] for u in targets}
            assert rep.residuals == dict.fromkeys(sorted(targets, key=lambda u: -aug.full.norm[u]), 0)
            assert rep.flags == []
            # a shell with targets reads up to time 3R+4-2k; a degree-1 root is
            # known, and the outermost shell reads the inner heads at R+1
            r, solved = aug.hull_radius, {aug.full.norm[u] for u in targets}
            assert rep.shell_time_reads == {k: 3 * r + 4 - 2 * k if k in solved else
                                            r + 1 if k == r else -1 for k in range(r, -1, -1)}
            hit = 3 * r + 4 - 2 * min(solved)
            assert rep.times_accessed == {"inner": hit - 1, "outer": hit}

    @pytest.mark.parametrize("base, t, flags, residuals", [
        (comb(6), 12,
         [("RowSumViolation", 5), ("OutOfRange", 27), ("OutOfRange", 5), ("OutOfRange", 11),
          ("OutOfRange", 4), ("OutOfRange", 10), ("RowSumViolation", 3), ("OutOfRange", 3),
          ("OutOfRange", 2), ("OutOfRange", 1), ("RowSumViolation", 0)],
         {5: 0.5088318731650978, 3: 1e-06, 0: -0.31960220079908763}),
        (broom(5, 5), 8,
         [("RowSumViolation", 7), ("RowSumViolation", 13), ("RowSumViolation", 19),
          ("RowSumViolation", 25), ("OutOfRange", 1), ("OutOfRange", 7), ("OutOfRange", 13),
          ("OutOfRange", 19), ("RowSumViolation", 0)],
         {7: 0.15033638319892692, 13: 0.035917480616619805, 19: 0.03488128159888782,
          25: 0.5373695788203757, 0: -0.9900432637328568}),
    ], ids=["comb6", "broom5x5"])
    def test_clamped_diagnostics_pinned(self, base, t, flags, residuals):
        # outer arrivals at time t raised by 1/32: flags keep vertex order,
        # each row's clamped edges before its complement
        aug = spherical_augmentation(base, 2)
        kernel = random_kernel(aug, 11, scope="all", mode="rational")
        p_in, p_out = forward_pair(aug, kernel)
        p_out = scaled_law(p_out, Fraction(33, 32), lambda key: key[0] == t)
        rep = recover_all(aug, known_part(kernel), p_in, p_out, clamp=True)
        assert rep.flags == flags
        assert {u: float(x) for u, x in rep.residuals.items() if x} == residuals
        r = aug.hull_radius
        assert rep.times_accessed == {"inner": 3 * r + 3, "outer": 3 * r + 4}

    @pytest.mark.parametrize("base, t, u", [(comb(6), 12, 5), (broom(5, 5), 8, 7)],
                             ids=["comb6", "broom5x5"])
    def test_strict_refuses_at_first_pinned_flag(self, base, t, u):
        # the laws of test_clamped_diagnostics_pinned, not clamped: the row
        # of the first flag there is refused, by its inward entry
        aug = spherical_augmentation(base, 2)
        kernel = random_kernel(aug, 11, scope="all", mode="rational")
        p_in, p_out = forward_pair(aug, kernel)
        p_out = scaled_law(p_out, Fraction(33, 32), lambda key: key[0] == t)
        with pytest.raises(RowSumViolation, match=rf"^inward entry of vertex {u} is .*, outside \(0, 1\)$"):
            recover_all(aug, known_part(kernel), p_in, p_out)

    @pytest.mark.parametrize("mode", ["rational", "float"])
    def test_first_zero_coefficient_named(self, mode):
        # broom(5, 5): no ballistic arrival at the inner children 34 and 38 of
        # leaves 5 and 10, so both shell-2 edges have a zero coefficient; in
        # float mode no division by zero may run first (a RuntimeWarning
        # fails the suite)
        aug = spherical_augmentation(broom(5, 5), 2)
        assert aug.full.children[5] == (34,) and aug.full.children[10] == (38,)
        kernel = random_kernel(aug, 11, scope="all", mode=mode)
        p_in, p_out = forward_pair(aug, kernel)
        p_in = scaled_law(p_in, 0, lambda key: key in ((3, 34), (3, 38)))
        for clamp in (False, True):
            with pytest.raises(ZeroDenominator, match=r"^edge \(5, 34\):"):
                recover_all(aug, known_part(kernel), p_in, p_out, clamp=clamp)

    def test_first_out_of_range_edge_named(self):
        # outer arrivals at time 6 below leaves 4 and 9 tripled: both shell-2
        # edges exceed 1, and the first in vertex order is refused
        aug = spherical_augmentation(broom(5, 5), 2)
        kernel = random_kernel(aug, 11, scope="all", mode="rational")
        p_in, p_out = forward_pair(aug, kernel)
        outer = {outer_child(aug, aug.full.children[u][0]) for u in (4, 9)}
        p_out = scaled_law(p_out, 3, lambda key: key[0] == 6 and key[1] in outer)
        with pytest.raises(OutOfRange, match=r"^recovered t\(4,33\) = "):
            recover_all(aug, known_part(kernel), p_in, p_out)


class TestLongChains:
    """Chains of length L >= 3: the recursion runs to r = R + L - 2, just
    inside the inner layer, and reads the laws to the tree's horizon 3r + 4."""

    @pytest.mark.parametrize("l", [3, 4])
    def test_rational_round_trips_exact(self, l):
        for idx, base in enumerate(small_bases()):
            aug = spherical_augmentation(base, l)
            assert aug.horizon == 3 * (aug.hull_radius + l - 2) + 4
            kernel = random_kernel(aug, 50 + idx, scope="all", mode="rational")
            known = known_part(kernel)
            rep = recover_all(aug, known, *hitting_laws(aug, kernel, aug.horizon),
                              reference=kernel)
            assert rep.max_error == 0, (idx, l)
            assert max(rep.times_accessed.values()) <= aug.horizon
            if idx % 5 == 0:  # laws one step short of the horizon are refused
                with pytest.raises(FormatError, match="recovery needs t <= "):
                    recover_all(aug, known, *hitting_laws(aug, kernel, aug.horizon - 1))

    def test_float_round_trips(self):
        for idx, base in enumerate(small_bases()):
            aug = spherical_augmentation(base, 3)
            kernel = random_kernel(aug, 50 + idx, scope="all", mode="float")
            p_in, p_out = hitting_laws(aug, kernel, aug.horizon)
            rep = recover_all(aug, known_part(kernel), p_in, p_out, reference=kernel)
            assert float(rep.max_error) <= 1e-9, (idx, rep.max_error)

    def test_matches_per_edge_route(self):
        # recover_by_edges and the explicit path-pair coefficient, which reads
        # each head at the inner vertex's own shell, agree with the sweeps
        for idx, base in enumerate(small_bases()[::2] + [comb(3)]):
            aug = spherical_augmentation(base, 3)
            kernel = random_kernel(aug, 11 + idx, scope="all", mode="rational")
            p_in, p_out = hitting_laws(aug, kernel, aug.horizon)
            known = known_part(kernel)
            got = recover_all(aug, known, p_in, p_out).kernel
            want = recover_by_edges(aug, known, p_in, p_out)
            for u, flag in labels_of(got).items():
                if flag == "recovered":
                    assert got.entries[u] == want.entries[u]
                    for w in aug.full.children[u]:
                        plan = make_plan(aug, u, w)
                        assert plan.hull_radius == aug.hull_radius + 1
                        assert unknown_edge_coefficient(aug, kernel, plan, p_out) == \
                            explicit_edge_coefficient(aug, kernel, plan, p_in)


class TestEveryRowFromTheLaws:
    """A known kernel with no row: every row off the outer layer, base or
    added, comes out of the shell recursion, the inner rows at shell r + 1."""

    @pytest.mark.parametrize("mode", ["rational", "float"])
    @pytest.mark.parametrize("l", [2, 3])
    @pytest.mark.parametrize("scope", ["all", "lambda"])
    def test_round_trips(self, mode, l, scope):
        # exact in rational mode, within 1e-9 in float mode
        for idx, base in enumerate(small_bases()):
            aug = spherical_augmentation(base, l)
            kernel = random_kernel(aug, 7 + idx, scope=scope, mode=mode)
            rep = recover_all(aug, kernel.restricted_to(set()),
                              *hitting_laws(aug, kernel, aug.horizon), reference=kernel)
            assert rep.max_error <= (0 if mode == "rational" else 1e-9), (idx, rep.max_error)
            assert labels_of(rep.kernel) == dict.fromkeys(kernel.entries, "recovered")

    def test_inner_shell_reads_only_when_it_solves(self):
        # shell r + 1 reads inner time r + 1 and outer time r + 2 when an
        # inner row is missing; given every inner row, it reads nothing
        aug, kernel = rand_instance(3, rout=2, mode="rational")
        r = aug.hull_radius
        laws = forward_pair(aug, kernel)
        full = recover_all(aug, known_part(kernel), *laws).shell_time_reads
        assert list(full) == list(range(r, -1, -1))
        bare = recover_all(aug, kernel.restricted_to(set()), *laws).shell_time_reads
        assert list(bare) == list(range(r + 1, -1, -1))
        assert bare == {**full, r + 1: r + 2}


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
        kernel = kernel_from_entries(
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
        assert float(entry_max_error(closed, kernel)) < 1e-10

    def test_coverage_guard(self):
        aug, kernel = symmetric_star_fixture()
        p_in, p_out = forward_pair(aug, kernel, t_max=4)
        with pytest.raises(FormatError):
            recover_star(2, known_part(kernel), p_in, p_out)


def random_kernel_for_star(aug, seed):
    from treetomo import random_kernel

    return random_kernel(aug, seed, floor=0.05, scope="all")
