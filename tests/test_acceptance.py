"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and the
per-criterion runtimes.
"""

import statistics
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from treetomo import (
    INNER,
    OUTER,
    consistency_curve,
    first_hitting_joint,
    random_kernel,
    recover_all,
    validate_kernel,
)
from treetomo.tomography import make_plan, tail_passage_probs, unknown_edge_coefficient
from treetomo.tree_model import (
    random_tree,
    segment,
    spherical_augmentation,
    star,
)

from helpers import (
    brute_force_hitting,
    default_augmented_kernel,
    kernel_from_entries,
    known_part,
    law_total,
    path_to_root,
    rand_instance,
    recover_edge,
    recover_star,
    small_bases,
)


@contextmanager
def criterion(number: int, name: str):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] {name}: FAIL ({time.time() - start:.1f}s)")
        raise
    print(f"[criterion {number}] {name}: PASS ({time.time() - start:.1f}s)")


def forward_pair(aug, kernel, t_max=None):
    if t_max is None:
        t_max = 3 * aug.hull_radius + 4
    return (
        first_hitting_joint(aug, kernel, INNER, t_max),
        first_hitting_joint(aug, kernel, OUTER, t_max),
    )


def round_trip(aug, kernel):
    p_in, p_out = forward_pair(aug, kernel)
    return recover_all(aug, known_part(kernel), p_in, p_out, reference=kernel)


def test_criterion_1_round_trip_identity():
    with criterion(1, "round-trip identity on random trees"):
        reports = []
        for i in range(102):
            rout = 1 + i % 6
            size = min(40, 25 + rout) if i % 5 == 0 else None
            base = random_tree(rout, seed=i, size=size)
            aug = spherical_augmentation(base, 2)
            assert base.vertex_count <= 40
            scope = "all" if i % 2 else "lambda"
            for mode in ("float", "rational"):
                kernel = random_kernel(aug, 1000 + i, floor=0.05, scope=scope, mode=mode)
                rep = round_trip(aug, kernel)
                if mode == "float":
                    assert float(rep.max_error) <= 1e-9, (i, rep.max_error)
                else:
                    assert rep.max_error == 0, (i, rep.max_error)
                reports.append((aug.hull_radius, rep))
        assert len(reports) >= 200
        # reports reused by the data-bound criterion
        test_criterion_1_round_trip_identity.reports = reports


def test_criterion_2_oracle_equivalence():
    with criterion(2, "dynamic program matches brute-force enumeration"):
        bases = small_bases(max_aug_vertices=9)
        assert len(bases) == 11
        for idx, base in enumerate(bases):
            aug = spherical_augmentation(base, 2)
            assert aug.full.vertex_count <= 9
            for mode in ("float", "rational"):
                kernel = random_kernel(aug, 50 + idx, floor=0.05, scope="all", mode=mode)
                for layer in (INNER, OUTER):
                    dp = first_hitting_joint(aug, kernel, layer, 14)
                    bf = brute_force_hitting(aug, kernel, layer, 14)
                    keys = set(dp.mass) | set(bf.mass)
                    for key in keys:
                        a, b = dp.mass.get(key, 0), bf.mass.get(key, 0)
                        if mode == "rational":
                            assert a == b, (idx, layer, key)
                        else:
                            assert abs(float(a) - float(b)) <= 1e-12, (idx, layer, key)


def test_criterion_3_star_closed_form():
    with criterion(3, "star closed form agrees with the recursion"):
        for m in (1, 2, 3, 4):
            aug = spherical_augmentation(star(1, m), 2)
            for seed in (11, 12):
                kernel = random_kernel(aug, seed, floor=0.05, scope="all")
                p_in, p_out = forward_pair(aug, kernel)
                closed = recover_star(m, known_part(kernel), p_in, p_out)
                rep = recover_all(aug, known_part(kernel), p_in, p_out)
                for u in range(aug.base.vertex_count):
                    for v, p in rep.kernel.entries[u].items():
                        assert abs(float(p) - float(closed.entries[u][v])) <= 1e-10

        # symmetric two-branch fixture, exact rational boundary values
        aug = spherical_augmentation(star(1, 2), 2)
        h = Fraction(1, 2)
        kernel = default_augmented_kernel(
            aug, kernel_from_entries({0: {1: h, 2: h}}, {0: "unknown"}, "rational")
        )
        p_in, p_out = forward_pair(aug, kernel, t_max=5)
        for v in (3, 4):
            assert p_in.prob(2, v) == Fraction(1, 4)
            assert p_in.prob(4, v) == Fraction(1, 8)
        for v in (5, 6):
            assert p_out.prob(3, v) == Fraction(1, 8)
            assert p_out.prob(5, v) == Fraction(3, 32)


def test_criterion_4_segment_family():
    with criterion(4, "round trip on every small two-armed segment"):
        reports = []
        for k in range(5):
            for l in range(1, 5):
                base = segment(k, l)
                aug = spherical_augmentation(base, 2)
                for mode in ("float", "rational"):
                    kernel = random_kernel(
                        aug, 10 * k + l, floor=0.05, scope="all", mode=mode
                    )
                    rep = round_trip(aug, kernel)
                    if mode == "float":
                        assert float(rep.max_error) <= 1e-9, (k, l)
                    else:
                        assert rep.max_error == 0, (k, l)
                    reports.append((aug.hull_radius, rep))
        test_criterion_4_segment_family.reports = reports


def test_criterion_5_data_bound():
    with criterion(5, "recovery reads no data beyond its time bound"):
        reports = list(getattr(test_criterion_1_round_trip_identity, "reports", []))
        reports += list(getattr(test_criterion_4_segment_family, "reports", []))
        if not reports:  # criterion run standalone
            for i in range(40):
                aug, kernel = rand_instance(i, rout=1 + i % 6)
                reports.append((aug.hull_radius, round_trip(aug, kernel)))
        assert len(reports) >= 40
        for r, rep in reports:
            assert max(rep.times_accessed.values()) <= 3 * r + 4
            for k, t_read in rep.shell_time_reads.items():
                assert t_read <= 3 * r + 4 - 2 * k, (r, k, t_read)


def test_criterion_6_ballistic_identity():
    with criterion(6, "minimal-time outer mass is the branch product"):
        for i in range(30):
            mode = "rational" if i % 3 == 0 else "float"
            aug, kernel = rand_instance(i, rout=1 + i % 5, mode=mode)
            r = aug.hull_radius
            p_out = first_hitting_joint(aug, kernel, OUTER, r + 2)
            for v in aug.outer_layer:
                path = path_to_root(aug.full, v)[::-1]
                prod = Fraction(1) if mode == "rational" else 1.0
                for a, b in zip(path, path[1:]):
                    prod = prod * kernel.prob(a, b)
                got = p_out.prob(r + 2, v)
                if mode == "rational":
                    assert got == prod
                else:
                    assert abs(float(got) - float(prod)) <= 1e-12


def test_criterion_7_hand_derived_fixture():
    with criterion(7, "hand-derived segment fixture"):
        aug = spherical_augmentation(segment(0, 1), 2)
        kernel = kernel_from_entries(
            {0: {1: 1.0}, 1: {0: 0.3, 2: 0.7}, 2: {1: 0.5, 3: 0.5}},
            {0: "unknown", 1: "unknown", 2: "known"},
            "float",
        )
        p_in, p_out = forward_pair(aug, kernel, t_max=8)
        oracle_in = brute_force_hitting(aug, kernel, INNER, 8)
        oracle_out = brute_force_hitting(aug, kernel, OUTER, 8)
        for dist, oracle, cells in (
            (p_in, oracle_in, {(2, 2): 0.7, (4, 2): 0.21}),
            (p_out, oracle_out, {(3, 3): 0.35, (5, 3): 0.2275}),
        ):
            for (t, v), want in cells.items():
                assert abs(float(dist.prob(t, v)) - want) <= 1e-12
                assert abs(float(oracle.prob(t, v)) - want) <= 1e-12
        val = recover_edge(aug, kernel, make_plan(aug, 1, 2), p_in, p_out)
        assert abs(float(val) - 0.7) <= 1e-12


def test_criterion_8_estimation_consistency():
    with criterion(8, "plug-in estimator is consistent on the star fixture"):
        aug = spherical_augmentation(star(1, 2), 2)
        kernel = default_augmented_kernel(
            aug, kernel_from_entries({0: {1: 0.3, 2: 0.7}}, {0: "unknown"}, "float")
        )
        rows = consistency_curve(aug, kernel, [10**4, 10**5, 10**6], [1, 2, 3, 4, 5])
        medians = [
            statistics.median(e for n, _, e in rows if n == grid_n)
            for grid_n in (10**4, 10**5, 10**6)
        ]
        assert medians[0] >= medians[1] >= medians[2], medians
        assert medians[2] < 0.02, medians


def test_criterion_9_invariant_suite():
    with criterion(9, "distribution, kernel, and decomposition invariants"):
        import random

        rng = random.Random(2024)
        for i in range(1000):
            rout = 1 + i % 3
            base = random_tree(rout, seed=i, size=min(10, rout + 2 + i % 7))
            aug = spherical_augmentation(base, 2)
            kernel = random_kernel(aug, i, floor=0.05, scope="all" if i % 2 else "lambda")
            assert validate_kernel(aug, kernel) == []
            t_max = 3 * aug.hull_radius + 4
            p_in, p_out = forward_pair(aug, kernel, t_max)
            norm = aug.full.norm
            for dist in (p_in, p_out):
                for (t, v), mass in dist.mass.items():
                    assert mass >= 0
                    assert t >= norm[v] and (t - norm[v]) % 2 == 0
            totals = [float(law_total(p_out, t)) for t in range(t_max + 1)]
            assert all(b >= a - 1e-15 for a, b in zip(totals, totals[1:]))
            assert totals[-1] <= 1 + 1e-12
            assert float(law_total(p_in)) >= totals[-1] - 1e-12

            # arrival decomposition at one random edge, true kernel known
            u = rng.randrange(aug.base.vertex_count)
            w = rng.choice(aug.full.children[u])
            plan = make_plan(aug, u, w)
            lhs = sum(p_out.prob(plan.hit_time, v) for v in plan.outer_targets)
            chis = tail_passage_probs(aug, kernel, plan)
            rhs = kernel.prob(u, w) * unknown_edge_coefficient(aug, kernel, plan, p_out)
            for l in range(1, plan.num_classes + 1):
                s = plan.hit_time - (2 * l - 1)
                for vstar in plan.inner_targets:
                    rhs = rhs + p_in.prob(s, vstar) * chis[(vstar, l)]
            assert abs(float(lhs) - float(rhs)) <= 1e-12, (i, u, w)
