"""Probe sampling, empirical laws, and the plug-in estimator."""

import math

import pytest

from treetomo import (
    INNER,
    OUTER,
    SampleBatch,
    collect_batch,
    consistency_curve,
    empirical_joint,
    estimate_kernel,
    first_hitting_joint,
    random_kernel,
    recover_all,
)
from treetomo.errors import FormatError, InvalidParameter
from treetomo.forward_solver import hitting_laws
from treetomo.tree_model import random_tree, segment, spherical_augmentation, star

from helpers import (
    default_augmented_kernel,
    kernel_from_entries,
    known_part,
    labels_of,
    law_total,
    rand_instance,
)


def star_fixture(p01=0.3):
    aug = spherical_augmentation(star(1, 2), 2)
    base = kernel_from_entries({0: {1: p01, 2: 1 - p01}}, {0: "unknown"}, "float")
    return aug, default_augmented_kernel(aug, base)


def segment_fixture():
    aug = spherical_augmentation(segment(0, 1), 2)
    base = kernel_from_entries({0: {1: 1.0}}, {0: "unknown"}, "float")
    kernel = default_augmented_kernel(aug, base)
    return aug, kernel_from_entries({**kernel.entries, 1: {0: 0.3, 2: 0.7}},
                                    {**labels_of(kernel), 1: "unknown"}, "float")


def wide_fixture(mode="float"):
    # random_tree(2, 4) has rows of up to 10 neighbors; the star's have 2
    aug = spherical_augmentation(random_tree(2, 4), 2)
    return aug, random_kernel(aug, 5, scope="all", mode=mode)


def batch_fields(batch):
    return batch.counts_in, batch.counts_out, batch.overflow


def z_score(count, n, p):
    return (count - n * p) / math.sqrt(n * p * (1 - p))


class TestSampleWalk:
    def test_unique_boundary_pair(self):
        # the walk may bounce below the inner layer after tau_in, so the gap
        # to tau_out is any positive odd number, not always one
        aug, kernel = segment_fixture()
        batch = collect_batch(aug, kernel, 5000, seed=5)
        assert {v for _, v in batch.counts_in} == {2}
        assert {v for _, v in batch.counts_out} == {3}
        assert all(t >= 2 and t % 2 == 0 for t, _ in batch.counts_in)
        assert all(t % 2 == 1 for t, _ in batch.counts_out)
        assert min(batch.counts_out)[0] > min(batch.counts_in)[0]

    def test_parity(self):
        # on a tree whose rows mix up to 10 neighbors; the star is checked
        # cell by cell in TestEmpiricalJoint
        aug, kernel = wide_fixture()
        r = aug.hull_radius
        batch = collect_batch(aug, kernel, 20_000, seed=1)
        assert all((t - (r + 1)) % 2 == 0 for t, _ in batch.counts_in)
        assert all((t - (r + 2)) % 2 == 0 for t, _ in batch.counts_out)


class TestCollectBatch:
    def test_pinned_stream(self):
        # the bench's star: gen --tree star --l 1 --n 2 --seed 3, then 1e6 walks
        aug = spherical_augmentation(star(1, 2), 2)
        batch = collect_batch(aug, random_kernel(aug, 3), 10**6, seed=9)
        assert batch.overflow == 440_186
        assert (batch.counts_in[(2, 3)], batch.counts_in[(2, 4)]) == (148_667, 327_759)

    def test_wide_rows(self):
        # every cell of both laws against n times the exact law, in both modes
        n = 200_000
        for mode in ("float", "rational"):
            aug, kernel = wide_fixture(mode)
            for seed in range(1, 6):
                batch = collect_batch(aug, kernel, n, seed)
                laws = hitting_laws(aug, kernel, batch.t_cap)
                for law, counts in zip(laws, (batch.counts_in, batch.counts_out)):
                    assert set(counts) <= set(law.mass)
                    for cell, p in law.mass.items():
                        z = z_score(counts.get(cell, 0), n, float(p))
                        assert abs(z) < 5, (mode, seed, law.layer, cell, z)

    def test_overflow_matches_exact(self):
        # overflow estimates P(tau_out > 3R + 4)
        n = 200_000
        aug, kernel = wide_fixture()
        for seed in range(1, 6):
            batch = collect_batch(aug, kernel, n, seed)
            p_out = first_hitting_joint(aug, kernel, OUTER, batch.t_cap)
            z = z_score(batch.overflow, n, 1 - float(law_total(p_out)))
            assert abs(z) < 5, (seed, z)

    def test_row_order_irrelevant(self):
        aug, kernel = wide_fixture()
        flipped = kernel_from_entries(
            {u: dict(reversed(row.items())) for u, row in kernel.entries.items()},
            labels_of(kernel), kernel.mode)
        ref = batch_fields(collect_batch(aug, kernel, 3000, seed=13))
        assert batch_fields(collect_batch(aug, flipped, 3000, seed=13)) == ref

    def test_rational_is_float_image(self):
        aug, kernel = wide_fixture("rational")
        image = kernel_from_entries(
            {u: {v: float(p) for v, p in row.items()} for u, row in kernel.entries.items()},
            labels_of(kernel),
        )
        ref = batch_fields(collect_batch(aug, image, 3000, seed=13))
        assert batch_fields(collect_batch(aug, kernel, 3000, seed=13)) == ref

    def test_worker_invariance(self):
        # workers is accepted and has no effect
        aug, kernel = star_fixture()
        ref = batch_fields(collect_batch(aug, kernel, 2000, seed=7, workers=1))
        assert batch_fields(collect_batch(aug, kernel, 2000, seed=7, workers=3)) == ref

    def test_counts_balance(self):
        # the walks alive at the horizon are the overflow; every absorbed
        # walk met the inner layer first
        for (aug, kernel), n in ((star_fixture(), 1500), (wide_fixture(), 20_000)):
            batch = collect_batch(aug, kernel, n, seed=3)
            assert sum(batch.counts_out.values()) + batch.overflow == n
            assert sum(batch.counts_in.values()) >= sum(batch.counts_out.values())

    def test_bad_parameters(self):
        aug, kernel = star_fixture()
        with pytest.raises(InvalidParameter):
            collect_batch(aug, kernel, 0, seed=1)
        with pytest.raises(InvalidParameter):
            collect_batch(aug, kernel, 10, seed=1, workers=0)
        with pytest.raises(InvalidParameter):
            collect_batch(aug, kernel, 10, seed=-1)
        with pytest.raises(InvalidParameter):
            collect_batch(aug, kernel, 2**63, seed=1)

    @pytest.mark.parametrize("radius", [6, 8])
    def test_inner_law_unbiased_at_horizon(self, radius):
        # at the default cap most walks on a long path are not yet absorbed;
        # their inner contacts must still count, or P(tau_in <= 3R+4) reads low
        aug = spherical_augmentation(segment(0, radius), 2)
        kernel = random_kernel(aug, 7, scope="all")
        n = 200_000
        batch = collect_batch(aug, kernel, n, seed=1)
        horizon = 3 * aug.hull_radius + 4
        assert batch.t_cap == horizon
        exact = float(law_total(first_hitting_joint(aug, kernel, INNER, horizon)))
        empirical = sum(batch.counts_in.values()) / n
        z = (empirical - exact) / math.sqrt(exact * (1 - exact) / n)
        assert abs(z) < 5, (empirical, exact, z)

    def test_cap_follows_the_chains(self):
        # chains of length 3 move both layers one shell out, and the cap with
        # them: t_cap = 3(R+1)+4, and the overflow still estimates P(tau_out > t_cap)
        aug = spherical_augmentation(random_tree(2, 4), 3)
        kernel = random_kernel(aug, 5, scope="all")
        n, r = 20_000, aug.hull_radius + 1
        batch = collect_batch(aug, kernel, n, seed=1)
        assert batch.t_cap == aug.horizon == 3 * r + 4
        assert all(t >= r + 1 and (t - (r + 1)) % 2 == 0 for t, _ in batch.counts_in)
        p_out = first_hitting_joint(aug, kernel, OUTER, batch.t_cap)
        assert abs(z_score(batch.overflow, n, 1 - float(law_total(p_out)))) < 5

    def test_empirical_close_to_exact(self):
        # binomial error at n = 1e5 is about 0.0014; 0.01 is a 7 sigma bound
        aug, kernel = star_fixture(p01=0.5)
        batch = collect_batch(aug, kernel, 100_000, seed=11)
        p_in, _ = empirical_joint(batch)
        for v in (3, 4):
            assert abs(p_in.prob(2, v) - 0.25) < 0.01


class TestEmpiricalJoint:
    def test_counts_over_n(self):
        aug, kernel = star_fixture()
        batch = collect_batch(aug, kernel, 1000, seed=2)
        p_in, p_out = empirical_joint(batch)
        some_cell = next(iter(batch.counts_in))
        assert p_in.prob(*some_cell) == batch.counts_in[some_cell] / 1000
        assert float(law_total(p_out)) <= 1.0 + 1e-12

    def test_invariants(self):
        aug, kernel = star_fixture()
        norm = aug.full.norm
        batch = collect_batch(aug, kernel, 5000, seed=9)
        p_in, p_out = empirical_joint(batch)
        for dist, layer in ((p_in, aug.inner_layer), (p_out, aug.outer_layer)):
            for (t, v), mass in dist.mass.items():
                assert v in layer
                assert mass > 0
                assert t >= norm[v] and (t - norm[v]) % 2 == 0


class TestEstimateKernel:
    def test_population_limit_is_exact_recovery(self):
        # feeding analytic laws through the clamped path changes nothing
        for seed in range(6):
            aug, kernel = rand_instance(seed, rout=1 + seed % 3)
            t_max = 3 * aug.hull_radius + 4
            p_in = first_hitting_joint(aug, kernel, INNER, t_max)
            p_out = first_hitting_joint(aug, kernel, OUTER, t_max)
            strict = recover_all(aug, known_part(kernel), p_in, p_out)
            clamped = recover_all(aug, known_part(kernel), p_in, p_out, clamp=True)
            assert not clamped.flags
            for u, flag in labels_of(strict.kernel).items():
                if flag != "recovered":
                    continue
                for v, p in strict.kernel.entries[u].items():
                    assert abs(p - clamped.kernel.entries[u][v]) < 1e-12

    def test_star_estimate_converges(self):
        aug, kernel = star_fixture()
        batch = collect_batch(aug, kernel, 100_000, seed=1)
        rep = estimate_kernel(aug, known_part(kernel), batch, reference=kernel)
        assert float(rep.max_error) < 0.05

    def test_sparse_batch_flagged_or_insufficient(self):
        from treetomo.errors import InsufficientData

        aug, kernel = star_fixture()
        batch = collect_batch(aug, kernel, 10, seed=4)
        try:
            rep = estimate_kernel(aug, known_part(kernel), batch, reference=kernel)
            assert rep.flags or float(rep.max_error) > 0.05
        except InsufficientData:
            pass

    def test_horizon_precondition(self):
        # a batch that stops short of 3R+4 = 7 cannot feed the inversion
        aug, kernel = star_fixture()
        batch = SampleBatch(
            n=4, seed=0, t_cap=6, counts_in={(2, 3): 2, (2, 4): 2},
            counts_out={(3, 5): 2, (3, 6): 2},
        )
        with pytest.raises(FormatError):
            estimate_kernel(aug, known_part(kernel), batch)


class TestConsistencyCurve:
    def test_reproducible_rows(self):
        aug, kernel = star_fixture()
        a = consistency_curve(aug, kernel, [2000], [1, 2])
        b = consistency_curve(aug, kernel, [2000], [1, 2])
        assert a == b

    def test_error_shrinks(self):
        import statistics

        # two decades of n apart and ten seeds a side, so the medians separate
        aug, kernel = star_fixture()
        rows = consistency_curve(aug, kernel, [1000, 100_000], list(range(1, 11)))
        med_small = statistics.median(e for n, _, e in rows if n == 1000)
        med_big = statistics.median(e for n, _, e in rows if n == 100_000)
        assert med_big < med_small
