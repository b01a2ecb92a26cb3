"""Probe sampling, empirical laws, and the plug-in estimator."""

from collections import Counter
import math

import pytest

import treetomo.estimation as estimation
from treetomo import (
    INNER,
    OUTER,
    SampleBatch,
    TransitionKernel,
    collect_batch,
    consistency_curve,
    empirical_joint,
    estimate_kernel,
    first_hitting_joint,
    random_kernel,
    recover_all,
)
from treetomo.errors import FormatError, InvalidParameter
from treetomo.estimation import (
    _draw_vec,
    _simulate_block,
    _thresholds,
    _walk_base_vec,
    _walk_tables,
)
from treetomo.tree_model import random_tree, segment, spherical_augmentation, star

from helpers import (
    default_augmented_kernel,
    known_part,
    law_total,
    rand_instance,
    reference_walk,
    u01,
    walk_base,
)

import numpy as np


def star_fixture(p01=0.3):
    aug = spherical_augmentation(star(1, 2), 2)
    base = TransitionKernel({0: {1: p01, 2: 1 - p01}}, {0: "unknown"}, "float")
    return aug, default_augmented_kernel(aug, base)


def segment_fixture():
    aug = spherical_augmentation(segment(0, 1), 2)
    base = TransitionKernel({0: {1: 1.0}}, {0: "unknown"}, "float")
    kernel = default_augmented_kernel(aug, base)
    kernel.entries[1] = {0: 0.3, 2: 0.7}
    kernel.provenance[1] = "unknown"
    return aug, kernel


def simulate(aug, kernel, seed, walk_ids, t_cap):
    """Rows of ``_simulate_block`` for the given walk indices."""
    ids = np.asarray(walk_ids, dtype=np.int64)
    return _simulate_block(ids, seed, t_cap, *_walk_tables(aug, kernel), aug.full.root)


def scalar_counts(aug, kernel, seed, n, t_cap):
    """``counts_in``, ``counts_out`` and ``overflow`` of ``n`` reference walks."""
    cin, cout = Counter(), Counter()
    overflow = 0
    for i in range(n):
        s = reference_walk(aug, kernel, seed, i)
        if s.tau_in <= t_cap:
            cin[(s.tau_in, s.place_in)] += 1
        if s.tau_out <= t_cap:
            cout[(s.tau_out, s.place_out)] += 1
        else:
            overflow += 1
    return dict(cin), dict(cout), overflow


def batch_fields(batch):
    return batch.counts_in, batch.counts_out, batch.overflow


class TestCounterStream:
    def test_scalar_vector_agree(self):
        walks = np.arange(50, dtype=np.uint64)
        bases = _walk_base_vec(123, walks)
        for step in (0, 1, 7, 63):
            vec = _draw_vec(bases, step)
            for i in range(50):
                assert int(vec[i]) * 2.0**-53 == u01(walk_base(123, i), step)

    def test_uniform_range(self):
        vals = [u01(walk_base(9, i), t) for i in range(200) for t in range(4)]
        assert all(0 <= v < 1 for v in vals)
        assert 0.45 < sum(vals) / len(vals) < 0.55


class TestThresholds:
    @pytest.mark.parametrize("cum", [0.3, 0.5, 1 - 2.0**-53, 1.0, 1 + 1e-13, 2.0])
    def test_integer_compare_is_float_compare(self, cum):
        # k is a draw, below 2**53; the largest draw checks every cum
        thr = _thresholds(np.array([cum]))[0]
        t = math.ceil(cum * 2**53)
        assert int(thr) == t
        for k in (t - 1, t, t + 1, 2**53 - 1):
            if 0 <= k < 2**53:
                assert bool(thr <= np.uint64(k)) == (cum <= k * 2.0**-53), k


class TestSampleWalk:
    def test_unique_boundary_pair(self):
        # the walk may bounce below the inner layer after tau_in, so the gap
        # to tau_out is any positive odd number, not always one
        aug, kernel = segment_fixture()
        for i in range(50):
            s = reference_walk(aug, kernel, 5, i)
            assert (s.place_in, s.place_out) == (2, 3)
            assert s.tau_out > s.tau_in
            assert (s.tau_out - s.tau_in) % 2 == 1
            assert s.tau_in >= 2

    def test_parity(self):
        aug, kernel = star_fixture()
        r = aug.hull_radius
        for i in range(80):
            s = reference_walk(aug, kernel, 1, i)
            assert s.tau_in < s.tau_out
            assert (s.tau_in - (r + 1)) % 2 == 0
            assert (s.tau_out - (r + 2)) % 2 == 0

    def test_replay(self):
        # walk i alone replays row i of a wider block, which is the scalar walk
        aug, kernel = star_fixture()
        wide = simulate(aug, kernel, 7, range(12), t_cap=200)
        for i in range(12):
            alone = simulate(aug, kernel, 7, [i], t_cap=200)
            assert [int(col[0]) for col in alone] == [int(col[i]) for col in wide]
            s = reference_walk(aug, kernel, 7, i)
            assert (s.tau_in, s.place_in, s.tau_out, s.place_out) == tuple(
                int(col[i]) for col in wide
            )


class TestCollectBatch:
    def test_matches_scalar_walks(self):
        # every first inner contact within the cap counts, absorbed or not;
        # outer contacts and overflow come from absorption by the cap
        aug, kernel = star_fixture()
        batch = collect_batch(aug, kernel, 400, seed=42)
        assert batch_fields(batch) == scalar_counts(aug, kernel, 42, 400, batch.t_cap)

    def test_wide_rows(self, monkeypatch):
        # random_tree(2, 4) has rows of up to 10 neighbors, so a step counts
        # many thresholds; the star's rows have at most 2
        aug = spherical_augmentation(random_tree(2, 4), 2)
        kernel = random_kernel(aug, 5, scope="all")
        n = 300
        batch = collect_batch(aug, kernel, n, seed=13)
        assert batch_fields(batch) == scalar_counts(aug, kernel, 13, n, batch.t_cap)
        cols = simulate(aug, kernel, 13, range(n), batch.t_cap)
        for i in range(n):
            s = reference_walk(aug, kernel, 13, i)
            ins = (s.tau_in, s.place_in) if s.tau_in <= batch.t_cap else (-1, -1)
            outs = (s.tau_out, s.place_out) if s.tau_out <= batch.t_cap else (-1, -1)
            assert tuple(int(c[i]) for c in cols) == ins + outs, i
        ref = batch_fields(collect_batch(aug, kernel, 3000, seed=13, workers=1))
        assert batch_fields(collect_batch(aug, kernel, 3000, seed=13, workers=3)) == ref
        monkeypatch.setattr(estimation, "CHUNK", 257)
        assert batch_fields(collect_batch(aug, kernel, 3000, seed=13, workers=3)) == ref

    def test_worker_and_chunk_invariance(self, monkeypatch):
        aug, kernel = star_fixture()
        ref = collect_batch(aug, kernel, 2000, seed=7, workers=1)
        par = collect_batch(aug, kernel, 2000, seed=7, workers=8)
        monkeypatch.setattr(estimation, "CHUNK", 257)
        chunked = collect_batch(aug, kernel, 2000, seed=7, workers=3)
        for other in (par, chunked):
            assert other.counts_in == ref.counts_in
            assert other.counts_out == ref.counts_out
            assert other.overflow == ref.overflow

    def test_counts_balance(self):
        aug, kernel = star_fixture()
        batch = collect_batch(aug, kernel, 1500, seed=3)
        assert sum(batch.counts_out.values()) + batch.overflow == 1500
        assert sum(batch.counts_in.values()) >= sum(batch.counts_out.values())

    def test_bad_parameters(self):
        aug, kernel = star_fixture()
        with pytest.raises(InvalidParameter):
            collect_batch(aug, kernel, 0, seed=1)
        with pytest.raises(InvalidParameter):
            collect_batch(aug, kernel, 10, seed=1, workers=0)

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
            for u, flag in strict.kernel.provenance.items():
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

        aug, kernel = star_fixture()
        rows = consistency_curve(aug, kernel, [1000, 30000], [1, 2, 3])
        med_small = statistics.median(e for n, _, e in rows if n == 1000)
        med_big = statistics.median(e for n, _, e in rows if n == 30000)
        assert med_big < med_small
