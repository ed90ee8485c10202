import datetime
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from drsim import causality, clustering
from drsim.dataio import HIGH, LOW, NORMAL


def make_profiles(*levels):
    """ResponseProfiles with flat Low/Normal/High means, one entity per
    (entity, low, normal, high) tuple."""
    mu = np.array([[np.full(48, v) for v in lnh] for _, *lnh in levels], dtype=float)
    return causality.ResponseProfiles([entity for entity, *_ in levels], mu,
                                      np.full(mu.shape, 0.1))


def profile_matrix_loop(profiles):
    """build_profile_matrix one household at a time: the reference its whole-array
    form must match bit for bit. Returns (matrix, ids, base_mean, excluded, clipped)."""
    rows, ids, base, excluded, clipped = [], [], [], [], 0
    for entity, mu in zip(profiles.ids, profiles.mu):
        mu_bar = float(mu[NORMAL].mean())
        if mu_bar <= 0:
            excluded.append(entity)
            continue
        row = np.concatenate([mu[LOW], mu[NORMAL], mu[HIGH]]) / mu_bar
        clipped += int((row < 0).sum())
        rows.append(np.maximum(row, 0.0))
        ids.append(entity)
        base.append(mu_bar)
    return np.vstack(rows), ids, np.array(base), excluded, clipped


def classical_features_loop(kwh, dates):
    """classical_features one household at a time: the reference its
    whole-array form must match bit for bit."""
    hot_days = np.array([d.month in clustering.HOT_MONTHS for d in dates])
    features = np.empty((len(kwh), 8))
    for i in range(len(kwh)):
        cols = []
        for mask in (hot_days, ~hot_days):
            seg = kwh[i, mask] if mask.any() else kwh[i]
            cols.extend([seg.min(), seg.max(), seg.mean()])
        cols.extend([(kwh[i].argmax(axis=1) + 1).mean(), (kwh[i].argmin(axis=1) + 1).mean()])
        features[i] = cols
    return features


def classical_features_whole_array(kwh, dates):
    """classical_features over all households at once, as it was before it
    reduced household blocks: the reference the blocked form must match bit
    for bit."""
    kwh = np.asarray(kwh, dtype=float)
    hot_days = np.array([d.month in clustering.HOT_MONTHS for d in dates])
    columns = []
    for season, mask in (("hot", hot_days), ("cold", ~hot_days)):
        if not mask.any():
            warnings.warn(f"no {season}-season days; using the full record")
            mask = np.ones_like(mask)
        seg = kwh[:, mask].reshape(len(kwh), -1)
        columns += [seg.min(axis=1), seg.max(axis=1), seg.mean(axis=1)]
    columns += [(kwh.argmax(axis=2) + 1).mean(axis=1), (kwh.argmin(axis=2) + 1).mean(axis=1)]
    return np.stack(columns, axis=1)


class TestProfileMatrix:
    def test_rows_are_normalized_blocks(self):
        pm = clustering.build_profile_matrix(make_profiles(("a", 2.0, 1.0, 0.5)))
        assert pm.matrix.shape == (1, 144)
        np.testing.assert_array_equal(pm.matrix[0, :48], 2.0)
        np.testing.assert_array_equal(pm.matrix[0, 48:96], 1.0)
        np.testing.assert_array_equal(pm.matrix[0, 96:], 0.5)
        assert pm.base_mean[0] == 1.0
        np.testing.assert_array_equal(pm.kept, [0])

    def test_scale_invariance(self):
        a = make_profiles(("a", 1.2, 0.8, 0.6))
        both = causality.ResponseProfiles(["a", "b"], np.concatenate([a.mu, a.mu * 7.0]),
                                          np.concatenate([a.sigma, a.sigma]))
        pm = clustering.build_profile_matrix(both)
        np.testing.assert_allclose(pm.matrix[0], pm.matrix[1], rtol=1e-12)

    def test_zero_baseline_excluded_with_warning(self):
        profiles = make_profiles(("bad", 1.0, 0.0, 1.0), ("good", 1.0, 1.0, 1.0))
        with pytest.warns(UserWarning, match="non-positive"):
            pm = clustering.build_profile_matrix(profiles)
        assert pm.household_ids == ["good"]
        assert pm.excluded == ["bad"]
        np.testing.assert_array_equal(pm.kept, [1])

    def test_negative_entries_clipped_with_warning(self):
        with pytest.warns(UserWarning, match="clipped"):
            pm = clustering.build_profile_matrix(make_profiles(("a", -0.2, 1.0, 1.0)))
        assert pm.matrix.min() == 0.0

    def test_all_excluded_raises(self):
        with pytest.raises(clustering.ClusteringError):
            with pytest.warns(UserWarning):
                clustering.build_profile_matrix(make_profiles(("a", 1.0, -1.0, 1.0)))

    @pytest.mark.parametrize("n", [12, 50, 200])
    def test_matches_per_household_loop(self, n):
        rng = np.random.default_rng(n)
        mu = rng.lognormal(-0.5, 0.4, size=(n, 3, 48))
        mu[1, NORMAL] *= -1.0                 # excluded: negative baseline
        mu[n // 2, NORMAL] = 0.0              # excluded: zero baseline
        mu[2, LOW, :5] = -0.05                # clipped cells in a kept row
        mu[n - 1, HIGH, 40] = -1.0
        profiles = causality.ResponseProfiles([f"tou{i:03d}" for i in range(n)], mu,
                                              np.full(mu.shape, 0.1))
        matrix, ids, base, excluded, clipped = profile_matrix_loop(profiles)
        with pytest.warns(UserWarning) as caught:
            pm = clustering.build_profile_matrix(profiles)
        assert [str(w.message) for w in caught] == [
            "excluded 2 household(s) with non-positive baseline",
            f"clipped {clipped} negative fitted response(s) to zero",
        ]
        np.testing.assert_array_equal(pm.matrix, matrix)
        np.testing.assert_array_equal(pm.base_mean, base)
        assert pm.household_ids == ids and pm.excluded == excluded
        assert [profiles.ids[i] for i in pm.kept] == ids


class TestNmf:
    def test_errors_monotone_nonincreasing(self, rng):
        m = rng.uniform(0.0, 2.0, size=(30, 20))
        factors = clustering.nmf_factorize(m, r=5, seed=0)
        errors = np.asarray(factors.errors)
        assert (np.diff(errors) <= errors[:-1] * 1e-10 + 1e-12).all()

    def test_factors_nonnegative_and_shaped(self, rng):
        m = rng.uniform(0.0, 1.0, size=(12, 9))
        factors = clustering.nmf_factorize(m, r=3, seed=1)
        assert factors.w.shape == (12, 3) and factors.h.shape == (3, 9)
        assert factors.w.min() >= 0 and factors.h.min() >= 0

    def test_rank_one_recovery(self, rng):
        u = rng.uniform(0.5, 2.0, size=20)
        v = rng.uniform(0.5, 2.0, size=15)
        m = np.outer(u, v)
        factors = clustering.nmf_factorize(m, r=1, seed=3, max_iter=2000, tol=0.0)
        rel = factors.errors[-1] / np.linalg.norm(m)
        assert rel < 1e-3
        np.testing.assert_allclose(factors.w @ factors.h, m, rtol=0.02, atol=1e-3)

    def test_convergence_flag_and_initial_error(self, rng):
        m = rng.uniform(0.1, 1.0, size=(8, 6))
        factors = clustering.nmf_factorize(m, r=2, seed=5)
        assert factors.converged
        # first recorded error describes the seeded init, before any update
        short = clustering.nmf_factorize(m, r=2, seed=5, max_iter=1)
        assert factors.errors[0] == short.errors[0]
        assert factors.errors[0] >= factors.errors[-1]

    def test_seed_determinism(self, rng):
        m = rng.uniform(0.0, 1.0, size=(10, 7))
        a = clustering.nmf_factorize(m, r=3, seed=7)
        b = clustering.nmf_factorize(m, r=3, seed=7)
        c = clustering.nmf_factorize(m, r=3, seed=8)
        np.testing.assert_array_equal(a.w, b.w)
        assert not np.array_equal(a.w, c.w)

    def test_matches_the_updates_with_fresh_temporaries_bit_for_bit(self, rng):
        # the shape of the wide_cluster profile matrix, so m and w @ h exceed
        # glibc's smallest mmap threshold
        m = rng.uniform(0.0, 2.0, size=(200, 144))
        factors = clustering.nmf_factorize(m, r=5, seed=2, max_iter=60, tol=0.0)
        gen = np.random.default_rng(2)
        scale = np.sqrt(m.mean() / 5)
        w = np.abs(gen.standard_normal((200, 5))) * scale
        h = np.abs(gen.standard_normal((5, 144))) * scale
        errors = [float(np.sqrt(((m - w @ h) ** 2).sum()))]
        for _ in range(60):
            w = w * (m @ h.T) / np.maximum(w @ h @ h.T, clustering.NMF_EPS)
            h = h * (w.T @ m) / np.maximum(w.T @ w @ h, clustering.NMF_EPS)
            errors.append(float(np.sqrt(((m - w @ h) ** 2).sum())))
        assert factors.w.tobytes() == w.tobytes() and factors.h.tobytes() == h.tobytes()
        assert factors.errors.tolist() == errors

    def test_errors_are_the_same_on_one_and_two_blas_threads(self):
        # the wide_cluster profile matrix's shape, large enough for OpenBLAS
        # to split a dot product over two threads
        code = ("import numpy as np\n"
                "from drsim import clustering\n"
                "m = np.random.default_rng(5).uniform(0.0, 2.0, size=(200, 144))\n"
                "print(clustering.nmf_factorize(m, r=5, seed=3, max_iter=40).errors.tobytes().hex())\n")
        src = os.path.dirname(os.path.dirname(clustering.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        printed = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                    env=env, timeout=120)
            assert result.returncode == 0, result.stderr
            printed.append(result.stdout)
        assert printed[0] == printed[1]

    def test_negative_matrix_raises(self):
        with pytest.raises(clustering.ClusteringError, match="negative"):
            clustering.nmf_factorize(np.array([[1.0, -0.1]]), r=1)

    def test_non_finite_raises(self):
        with pytest.raises(clustering.ClusteringError):
            clustering.nmf_factorize(np.array([[1.0, np.nan]]), r=1)

    @pytest.mark.parametrize("r", [0, 3])
    def test_rank_bounds(self, r):
        with pytest.raises(clustering.ClusteringError):
            clustering.nmf_factorize(np.ones((2, 4)), r=r)


class TestKmedoids:
    def test_two_obvious_clusters(self):
        points = np.array([[0.0], [1.0], [2.0], [10.0], [11.0], [12.0]])
        result = clustering.kmedoids(points, 2)
        np.testing.assert_array_equal(result.medoids, [1, 4])
        np.testing.assert_array_equal(result.labels, [0, 0, 0, 1, 1, 1])
        assert result.cost == pytest.approx(4.0)

    def test_frozen_tie_case(self):
        # value 1 sits exactly between medoids 0 and 2: lowest medoid row wins
        points = np.array([[0.0], [0.0], [2.0], [2.0], [1.0]])
        result = clustering.kmedoids(points, 2)
        np.testing.assert_array_equal(result.medoids, [0, 2])
        np.testing.assert_array_equal(result.labels, [0, 0, 1, 1, 0])
        assert result.cost == pytest.approx(1.0)

    def test_swap_local_optimality(self, rng):
        points = rng.normal(size=(40, 3))
        result = clustering.kmedoids(points, 4)
        dist = cdist(points, points)
        cost = dist[:, result.medoids].min(axis=1).sum()
        assert cost == pytest.approx(result.cost)
        for out_pos in range(4):
            for cand in range(40):
                if cand in result.medoids:
                    continue
                trial = list(result.medoids)
                trial[out_pos] = cand
                trial_cost = dist[:, trial].min(axis=1).sum()
                assert trial_cost >= cost - 1e-9

    def test_assignment_is_nearest_medoid(self, rng):
        points = rng.uniform(size=(25, 4))
        result = clustering.kmedoids(points, 3)
        dist = cdist(points, points[result.medoids])
        np.testing.assert_array_equal(result.labels, dist.argmin(axis=1))
        for pos, m in enumerate(result.medoids):
            assert result.labels[m] == pos

    def test_medoids_sorted_and_deterministic(self, rng):
        points = rng.normal(size=(30, 2))
        a = clustering.kmedoids(points, 3)
        b = clustering.kmedoids(points, 3)
        np.testing.assert_array_equal(a.medoids, b.medoids)
        np.testing.assert_array_equal(a.labels, b.labels)
        assert a.cost == b.cost
        np.testing.assert_array_equal(a.medoids, np.sort(a.medoids))

    @pytest.mark.parametrize("d", range(1, 13))
    def test_distances_are_bit_equal_to_cdist(self, d, monkeypatch):
        # summed column by column like cdist; a pairwise .sum(axis=2) differs
        # in the last bits from 8 columns on
        points = np.random.default_rng(d).normal(size=(40, d)) * np.logspace(-3, 3, d)
        original = clustering.pairwise_distances
        built = []

        def spy(p):
            built.append(original(p))
            return built[-1]

        monkeypatch.setattr(clustering, "pairwise_distances", spy)
        clustering.kmedoids(points, 3)
        assert len(built) == 1
        assert np.array_equal(built[0], cdist(points, points))

    def test_too_few_distinct_rows_raises(self):
        points = np.array([[0.0], [0.0], [1.0]])
        with pytest.raises(clustering.ClusteringError, match="distinct"):
            clustering.kmedoids(points, 3)

    def test_members_partition_everything(self, rng):
        points = rng.normal(size=(20, 2))
        result = clustering.kmedoids(points, 4)
        members = [result.members(label) for label in range(4)]
        assert sorted(np.concatenate(members).tolist()) == list(range(20))


class TestRandomClustering:
    def test_deterministic_and_covering(self):
        a = clustering.random_clustering(30, 4, seed=2)
        b = clustering.random_clustering(30, 4, seed=2)
        np.testing.assert_array_equal(a.labels, b.labels)
        assert set(a.labels) == set(range(4))
        assert len(a.labels) == 30

    def test_labels_stay_in_range(self):
        result = clustering.random_clustering(500, 4, seed=0)
        assert result.labels.min() >= 0 and result.labels.max() < 4
        assert result.k == 4


class TestCalinskiHarabasz:
    POINTS = np.array([[0.0], [1.0], [2.0], [12.0], [13.0]])
    LABELS = np.array([0, 0, 0, 1, 1])

    def test_literal_variant_hand_oracle(self):
        # centers 1 and 12.5, overall 5.6; between 21.16 + 47.61; within 2/3 + 1/4
        score = clustering.calinski_harabasz(self.POINTS, self.LABELS)
        expected = (5 - 2) * (21.16 + 47.61) / ((2 - 1) * (2.0 / 3.0 + 0.25))
        assert score == pytest.approx(expected, rel=1e-12)

    def test_perfectly_tight_raises(self):
        points = np.array([[0.0], [0.0], [5.0], [5.0]])
        with pytest.raises(clustering.PerfectlyTightClusteringError, match="perfectly tight"):
            clustering.calinski_harabasz(points, np.array([0, 0, 1, 1]))

    def test_separation_increases_score(self, rng):
        base = rng.normal(size=(40, 3))
        labels = np.repeat([0, 1], 20)
        near = base.copy()
        near[20:] += 1.0
        far = base.copy()
        far[20:] += 10.0
        assert clustering.calinski_harabasz(far, labels) > clustering.calinski_harabasz(
            near, labels
        )

    def test_empty_cluster_raises(self):
        with pytest.raises(clustering.ClusteringError):
            clustering.calinski_harabasz(self.POINTS, self.LABELS, k=3)

    def test_more_clusters_than_points_raises(self):
        with pytest.raises(clustering.ClusteringError):
            clustering.calinski_harabasz(np.zeros((2, 1)), np.array([0, 1]))

    @pytest.mark.parametrize("order", ["C", "F"])   # F: the layout of the special records
    def test_in_place_spread_matches_the_copying_expression(self, rng, order):
        vectors = np.asarray(rng.lognormal(size=(90, 517)), order=order)
        labels = rng.integers(0, 4, size=90)
        overall = vectors.mean(axis=0)
        between = within = 0.0
        for l in range(4):
            members = vectors[labels == l]
            center = members.mean(axis=0)
            between += float(((center - overall) ** 2).sum())
            within += ((members - center) ** 2).sum() / len(members)
        expected = (90 - 4) * between / ((4 - 1) * within)
        assert clustering.calinski_harabasz(vectors, labels, 4) == expected

    def test_traced_peak_is_one_cluster_copy(self, rng):
        # each cluster's copy is centred and squared in place and dropped before
        # the next one is taken; two copies were alive at once before
        vectors = rng.normal(size=(200, 4000))
        labels = np.repeat(np.arange(4), 50)
        tracemalloc.start()
        try:
            clustering.calinski_harabasz(vectors, labels, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * vectors.nbytes / 4


def score_variants_per_call(kwh, tariff, labels, household_ids=None, k=None):
    """Calinski-Harabasz of the three record variants, each built inside the
    call that scores one labelling: the reference that record_variants and
    score_variants are pinned to. Returns (raw, normalized, special)."""
    kwh = np.asarray(kwh, dtype=float)
    tariff = np.asarray(tariff)
    n = kwh.shape[0]
    if household_ids is None:
        household_ids = [str(i) for i in range(n)]
    flat = kwh.reshape(n, -1)
    labels = np.asarray(labels)

    raw = clustering.calinski_harabasz(flat, labels, k=k)

    means = flat.mean(axis=1)
    pos = means > 0
    excluded_zero = [household_ids[i] for i in np.flatnonzero(~pos)]
    if excluded_zero:
        warnings.warn(f"excluded {len(excluded_zero)} zero-mean household(s)")
    if pos.sum() <= (k or labels.max() + 1):
        raise clustering.ClusteringError("too few households left after exclusions")
    norm = flat[pos] / means[pos, None]
    normalized = clustering.calinski_harabasz(norm, labels[pos], k=k)

    special_masks = ((tariff == LOW) | (tariff == HIGH)).reshape(n, -1)
    exposure = special_masks.sum(axis=1)
    has_special = exposure > 0
    if not has_special.any():
        return raw, normalized, None
    keep = pos & has_special
    excluded_no_special = [household_ids[i] for i in np.flatnonzero(pos & ~has_special)]
    if excluded_no_special:
        warnings.warn(
            f"excluded {len(excluded_no_special)} household(s) with no special-tariff exposure"
        )
    masks = special_masks[keep]
    if not (masks == masks[0]).all():
        raise clustering.ClusteringError("special-tariff masks differ across households")
    restricted = (flat[keep] / means[keep, None])[:, masks[0]]
    special = clustering.calinski_harabasz(restricted, labels[keep], k=k)
    return raw, normalized, special


def scored(kwh, tariff, labels, household_ids=None, k=None):
    variants = clustering.score_variants(
        clustering.record_variants(kwh, tariff, household_ids), labels, k)
    return variants.raw, variants.normalized, variants.special


class TestScoreVariants:
    def build_inputs(self, n_days=4):
        rng = np.random.default_rng(6)
        kwh = np.empty((6, n_days, 48))
        kwh[:3] = 0.5 + 0.05 * rng.standard_normal((3, n_days, 48))
        kwh[3:] = 1.5 + 0.05 * rng.standard_normal((3, n_days, 48))
        tariff = np.full((6, n_days, 48), NORMAL, dtype=np.int8)
        tariff[:, 0, 9:19] = LOW
        tariff[:, 2, 39:44] = HIGH
        labels = np.array([0, 0, 0, 1, 1, 1])
        return kwh, tariff, labels

    def test_all_three_variants_finite(self):
        kwh, tariff, labels = self.build_inputs()
        records = clustering.record_variants(kwh, tariff)
        variants = clustering.score_variants(records, labels)
        assert variants.raw > 0 and variants.normalized > 0 and variants.special > 0
        assert records.excluded_zero_mean == [] and records.excluded_no_special == []

    def test_raw_matches_direct_ch(self):
        kwh, tariff, labels = self.build_inputs()
        direct = clustering.calinski_harabasz(kwh.reshape(6, -1), labels)
        assert scored(kwh, tariff, labels)[0] == direct

    def test_raw_records_are_a_view(self):
        kwh, tariff, _ = self.build_inputs()
        assert np.shares_memory(clustering.record_variants(kwh, tariff).raw, kwh)

    def test_normalization_kills_pure_level_split(self):
        kwh, tariff, labels = self.build_inputs()
        raw, normalized, _ = scored(kwh, tariff, labels)
        # the two groups differ only in level, so normalizing must hurt
        assert normalized < raw

    def test_special_restricts_to_special_cells(self):
        kwh, tariff, labels = self.build_inputs()
        # plant a strong split only on the special cells
        kwh[3:, 0, 9:19] += 5.0
        restricted = (kwh.reshape(6, -1) / kwh.reshape(6, -1).mean(axis=1, keepdims=True))
        mask = ((tariff == LOW) | (tariff == HIGH)).reshape(6, -1)[0]
        direct = clustering.calinski_harabasz(restricted[:, mask], labels)
        assert scored(kwh, tariff, labels)[2] == pytest.approx(direct, rel=1e-12)

    def test_no_special_cells_gives_none(self):
        kwh, _, labels = self.build_inputs()
        tariff = np.full((6, 4, 48), NORMAL, dtype=np.int8)
        assert scored(kwh, tariff, labels)[2] is None

    def test_zero_mean_household_excluded(self):
        kwh, tariff, labels = self.build_inputs()
        kwh[1] = 0.0
        with pytest.warns(UserWarning, match="zero-mean"):
            records = clustering.record_variants(kwh, tariff)
        assert records.excluded_zero_mean == ["1"]

    def test_no_exposure_household_excluded(self):
        kwh, tariff, labels = self.build_inputs()
        tariff[2] = NORMAL
        with pytest.warns(UserWarning, match="exposure"):
            records = clustering.record_variants(kwh, tariff, household_ids=list("abcdef"))
        assert records.excluded_no_special == ["c"]

    def test_differing_masks_raise(self):
        kwh, tariff, labels = self.build_inputs()
        tariff[2, 0, 9:19] = NORMAL
        tariff[2, 1, 9:19] = LOW  # same exposure count, different cells
        with pytest.raises(clustering.ClusteringError, match="masks"):
            clustering.record_variants(kwh, tariff)

    def test_records_score_many_labellings_as_the_per_call_reference(self):
        # a zero-mean and a no-exposure household, 40 days so that the sums
        # run long enough for their order to matter, and several labellings
        kwh, tariff, _ = self.build_inputs(n_days=40)
        kwh[1] = 0.0
        tariff[4] = NORMAL
        ids = list("abcdef")
        with pytest.warns(UserWarning) as built:
            records = clustering.record_variants(kwh, tariff, ids)
        assert [str(w.message) for w in built] == [
            "excluded 1 zero-mean household(s)",
            "excluded 1 household(s) with no special-tariff exposure",
        ]
        assert records.excluded_zero_mean == ["b"] and records.excluded_no_special == ["e"]
        assert records.special.flags.f_contiguous
        for labels, k in (([0, 0, 0, 1, 1, 1], None), ([0, 1, 0, 1, 0, 1], 2),
                          ([0, 1, 2, 2, 0, 1], 3), ([0, 1, 0, 0, 1, 1], None)):
            with pytest.warns(UserWarning):
                expected = score_variants_per_call(kwh, tariff, labels, ids, k)
            got = clustering.score_variants(records, labels, k)
            assert (got.raw, got.normalized, got.special) == expected

    def test_no_special_cells_score_as_the_per_call_reference(self):
        kwh, _, labels = self.build_inputs(n_days=40)
        tariff = np.full(kwh.shape, NORMAL, dtype=np.int8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert scored(kwh, tariff, labels) == score_variants_per_call(kwh, tariff, labels)

    def test_an_empty_cluster_raises_as_the_per_call_reference(self):
        # uniform random labels leaving cluster 2 of k = 3 empty
        kwh, tariff, _ = self.build_inputs()
        kwh[1] = 0.0
        labels = clustering.random_clustering(6, 2, seed=3).labels
        with warnings.catch_warnings(record=True) as reference_warnings:
            warnings.simplefilter("always")
            with pytest.raises(clustering.ClusteringError) as reference_error:
                score_variants_per_call(kwh, tariff, labels, k=3)
        with pytest.warns(UserWarning) as built:
            records = clustering.record_variants(kwh, tariff)
        with pytest.raises(clustering.ClusteringError) as error:
            clustering.score_variants(records, labels, k=3)
        assert str(error.value) == str(reference_error.value) == (
            "need at least 2 non-empty clusters")
        # the reference raised before its exclusion warning; the records warned once
        assert [str(w.message) for w in reference_warnings] == []
        assert [str(w.message) for w in built] == ["excluded 1 zero-mean household(s)"]


def trial_like_inputs(n=120, n_days=100, seed=11):
    """Consumption (n, n_days, 48) and one tariff schedule shared by every
    household: LOW mornings on 30 days and HIGH evenings on 10."""
    rng = np.random.default_rng(seed)
    kwh = rng.lognormal(-0.7, 0.5, size=(n, n_days, 48))
    tariff = np.full(kwh.shape, NORMAL, dtype=np.int8)
    tariff[:, :30, 14:21] = LOW
    tariff[:, 50:60, 34:41] = HIGH
    return kwh, tariff


class TestRecordsWithoutANormalizedCopy:
    """The normalized records are the raw rows and their means: each
    cluster's copy is divided as it is taken, with the bits of a copy of the
    whole normalized array."""

    @pytest.mark.parametrize("n, m", [(1, 48), (2, 48), (37, 4800), (300, 1000)])
    def test_row_sum_mean_is_the_mean_of_the_normalized_array(self, rng, n, m):
        flat = rng.lognormal(size=(n + 3, m))
        rows = np.sort(rng.choice(n + 3, size=n, replace=False))
        means = flat[rows].mean(axis=1)
        expected = (flat[rows] / means[:, None]).mean(axis=0)
        assert clustering._mean_of_rows(flat, rows, means).tobytes() == expected.tobytes()

    def test_many_labellings_score_as_the_per_call_reference(self):
        # a zero-mean and a no-exposure household among 120, so that every
        # record set leaves rows out and sums run long
        kwh, tariff = trial_like_inputs()
        kwh[7] = 0.0
        tariff[90] = NORMAL
        ids = [f"h{i}" for i in range(len(kwh))]
        with pytest.warns(UserWarning):
            records = clustering.record_variants(kwh, tariff, ids)
        assert records.excluded_zero_mean == ["h7"] and records.excluded_no_special == ["h90"]
        rng = np.random.default_rng(4)
        for k in (2, 4, 7):
            labels = np.resize(np.arange(k), len(kwh))[rng.permutation(len(kwh))]
            with pytest.warns(UserWarning):
                expected = score_variants_per_call(kwh, tariff, labels, ids, k)
            got = clustering.score_variants(records, labels, k)
            assert (got.raw, got.normalized, got.special) == expected

    def test_traced_peak_is_below_six_tenths_of_the_consumption(self):
        # one record build and three scorings, as the cluster stage runs them;
        # with a normalized copy of the consumption the peak was 1.38 times it
        kwh, tariff = trial_like_inputs()
        labellings = [np.resize(np.arange(4), len(kwh))[np.random.default_rng(s).permutation(
            len(kwh))] for s in range(3)]
        tracemalloc.start()
        try:
            records = clustering.record_variants(kwh, tariff)
            for labels in labellings:
                clustering.score_variants(records, labels, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.6 * kwh.nbytes


class TestClassicalPipeline:
    def test_features_hot_cold_split(self):
        dates = [datetime.date(2024, 3, 30), datetime.date(2024, 4, 2)]
        kwh = np.stack([np.stack([np.full(48, 1.0), np.full(48, 3.0)])])
        feats = clustering.classical_features(kwh, dates)
        # hot season sees only the 3.0 day, cold only the 1.0 day
        np.testing.assert_allclose(feats[0, :3], [3.0, 3.0, 3.0])
        np.testing.assert_allclose(feats[0, 3:6], [1.0, 1.0, 1.0])

    def test_peak_trough_positions_are_one_based(self):
        dates = [datetime.date(2024, 1, 1)]
        day = np.full(48, 1.0)
        day[20] = 9.0
        day[5] = 0.1
        with pytest.warns(UserWarning, match="hot-season"):
            feats = clustering.classical_features(day[None, None, :], dates)
        assert feats[0, 6] == 21.0 and feats[0, 7] == 6.0

    def test_empty_season_falls_back_with_warning(self):
        dates = [datetime.date(2024, 1, 10), datetime.date(2024, 2, 10)]
        kwh = np.random.default_rng(0).uniform(0.2, 1.0, size=(2, 2, 48))
        with pytest.warns(UserWarning, match="hot-season"):
            feats = clustering.classical_features(kwh, dates)
        np.testing.assert_array_equal(feats[:, :3], feats[:, 3:6])

    @pytest.mark.parametrize("n, start, n_days", [
        (12, datetime.date(2024, 2, 20), 120),   # both seasons
        (50, datetime.date(2024, 3, 25), 30),    # both seasons, few days
        (200, datetime.date(2024, 10, 5), 60),   # no hot-season day
    ])
    def test_matches_per_household_loop(self, n, start, n_days):
        rng = np.random.default_rng(n)
        kwh = rng.lognormal(-0.7, 0.5, size=(n, n_days, 48))
        dates = [start + datetime.timedelta(days=t) for t in range(n_days)]
        expected = classical_features_loop(kwh, dates)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            feats = clustering.classical_features(kwh, dates)
        np.testing.assert_array_equal(feats, expected)

    def test_empty_cold_season_falls_back_with_warning(self):
        dates = [datetime.date(2024, 6, 1) + datetime.timedelta(days=t) for t in range(3)]
        kwh = np.random.default_rng(1).uniform(0.2, 1.0, size=(4, 3, 48))
        with pytest.warns(UserWarning, match="no cold-season days"):
            feats = clustering.classical_features(kwh, dates)
        np.testing.assert_array_equal(feats, classical_features_loop(kwh, dates))
        np.testing.assert_array_equal(feats[:, :3], feats[:, 3:6])

    @pytest.mark.parametrize("n, start, n_days, empty", [
        (5, datetime.date(2023, 1, 1), 365, None),   # below one block; 8,784-cell seasons
        (2 * clustering._FEATURE_ROWS + 5, datetime.date(2024, 2, 20), 120, None),
        (clustering._FEATURE_ROWS + 3, datetime.date(2024, 10, 5), 60, "hot"),
        (clustering._FEATURE_ROWS, datetime.date(2024, 6, 1), 30, "cold"),
    ])
    def test_blocks_match_the_whole_array_reduction(self, n, start, n_days, empty):
        rng = np.random.default_rng(n_days)
        kwh = rng.lognormal(-0.7, 0.5, size=(n, n_days, 48))
        dates = [start + datetime.timedelta(days=t) for t in range(n_days)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            expected = classical_features_whole_array(kwh, dates)
            feats = clustering.classical_features(kwh, dates)
        messages = [str(w.message) for w in caught]
        want = [] if empty is None else [f"no {empty}-season days; using the full record"]
        assert messages == want * 2
        np.testing.assert_array_equal(feats, expected)

    def test_traced_peak_is_below_the_consumption(self):
        # over all households at once, the two season copies and their
        # reshaped copies took 1.5 times the consumption
        n = 3 * clustering._FEATURE_ROWS + 7
        kwh = np.random.default_rng(4).lognormal(-0.7, 0.5, size=(n, 120, 48))
        dates = [datetime.date(2024, 2, 20) + datetime.timedelta(days=t) for t in range(120)]
        tracemalloc.start()
        try:
            clustering.classical_features(kwh, dates)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < kwh.nbytes

    def test_clustering_drops_constant_features(self, rng):
        feats = rng.normal(size=(12, 8))
        feats[:, 2] = 7.0
        with pytest.warns(UserWarning, match="zero-variance"):
            result = clustering.classical_feature_clustering(feats, 2)
        assert result.k == 2

    def test_assignments_csv_round_trip(self, tmp_path, rng):
        points = rng.normal(size=(10, 2))
        result = clustering.kmedoids(points, 2)
        ids = [f"hh{i:02d}" for i in range(10)]
        path = tmp_path / "assignments.csv"
        clustering.export_assignments_csv(ids, result, path)
        loaded_ids, loaded_labels = clustering.read_assignments_csv(path)
        assert loaded_ids == ids
        np.testing.assert_array_equal(loaded_labels, result.labels)

    @pytest.mark.parametrize("row", ["tou002,x", "tou002,-1", "tou002,1.5", "tou002,", "tou002",
                                     "tou002,1,0"],
                             ids=["text", "negative", "fraction", "empty", "short", "long"])
    def test_assignments_bad_cluster_names_the_file_and_line(self, tmp_path, row):
        path = tmp_path / "assignments.csv"
        path.write_text(f"household_id,cluster\ntou001,0\n{row}\ntou003,1\n")
        with pytest.raises(clustering.ClusteringError,
                           match=rf"assignments\.csv: line 3 \({row}\) needs a household id "
                                 r"and a non-negative integer cluster$"):
            clustering.read_assignments_csv(path)

    def test_assignments_household_listed_twice_names_the_file_and_lines(self, tmp_path):
        path = tmp_path / "assignments.csv"
        path.write_text("household_id,cluster\ntou001,0\ntou002,1\ntou001,1\n")
        with pytest.raises(clustering.ClusteringError,
                           match=r"assignments\.csv: line 4 lists household tou001 again, "
                                 r"first listed on line 2$"):
            clustering.read_assignments_csv(path)
