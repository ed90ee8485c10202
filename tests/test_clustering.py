import datetime

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from drsim import causality, clustering
from drsim.dataio import HIGH, LOW, NORMAL


def make_profile(entity, low, normal, high):
    mu = np.vstack([np.full(48, low), np.full(48, normal), np.full(48, high)])
    return causality.TariffResponseProfile(entity, mu, np.full((3, 48), 0.1))


class TestProfileMatrix:
    def test_rows_are_normalized_blocks(self):
        pm = clustering.build_profile_matrix([make_profile("a", 2.0, 1.0, 0.5)])
        assert pm.matrix.shape == (1, 144)
        np.testing.assert_array_equal(pm.matrix[0, :48], 2.0)
        np.testing.assert_array_equal(pm.matrix[0, 48:96], 1.0)
        np.testing.assert_array_equal(pm.matrix[0, 96:], 0.5)
        assert pm.base_mean[0] == 1.0

    def test_scale_invariance(self):
        a = make_profile("a", 1.2, 0.8, 0.6)
        b = causality.TariffResponseProfile("b", a.mu * 7.0, a.sigma)
        pm = clustering.build_profile_matrix([a, b])
        np.testing.assert_allclose(pm.matrix[0], pm.matrix[1], rtol=1e-12)

    def test_zero_baseline_excluded_with_warning(self):
        good = make_profile("good", 1.0, 1.0, 1.0)
        bad = make_profile("bad", 1.0, 0.0, 1.0)
        with pytest.warns(UserWarning, match="non-positive"):
            pm = clustering.build_profile_matrix([good, bad])
        assert pm.household_ids == ["good"]
        assert pm.excluded == ["bad"]

    def test_negative_entries_clipped_with_warning(self):
        prof = make_profile("a", -0.2, 1.0, 1.0)
        with pytest.warns(UserWarning, match="clipped"):
            pm = clustering.build_profile_matrix([prof])
        assert pm.matrix.min() == 0.0

    def test_all_excluded_raises(self):
        with pytest.raises(clustering.ClusteringError):
            with pytest.warns(UserWarning):
                clustering.build_profile_matrix([make_profile("a", 1.0, -1.0, 1.0)])


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


class TestScoreVariants:
    def build_inputs(self):
        rng = np.random.default_rng(6)
        kwh = np.empty((6, 4, 48))
        kwh[:3] = 0.5 + 0.05 * rng.standard_normal((3, 4, 48))
        kwh[3:] = 1.5 + 0.05 * rng.standard_normal((3, 4, 48))
        tariff = np.full((6, 4, 48), NORMAL, dtype=np.int8)
        tariff[:, 0, 9:19] = LOW
        tariff[:, 2, 39:44] = HIGH
        labels = np.array([0, 0, 0, 1, 1, 1])
        return kwh, tariff, labels

    def test_all_three_variants_finite(self):
        kwh, tariff, labels = self.build_inputs()
        variants = clustering.score_variants(kwh, tariff, labels)
        assert variants.raw > 0 and variants.normalized > 0 and variants.special > 0
        assert variants.excluded_zero_mean == [] and variants.excluded_no_special == []

    def test_raw_matches_direct_ch(self):
        kwh, tariff, labels = self.build_inputs()
        variants = clustering.score_variants(kwh, tariff, labels)
        direct = clustering.calinski_harabasz(kwh.reshape(6, -1), labels)
        assert variants.raw == direct

    def test_normalization_kills_pure_level_split(self):
        kwh, tariff, labels = self.build_inputs()
        variants = clustering.score_variants(kwh, tariff, labels)
        # the two groups differ only in level, so normalizing must hurt
        assert variants.normalized < variants.raw

    def test_special_restricts_to_special_cells(self):
        kwh, tariff, labels = self.build_inputs()
        # plant a strong split only on the special cells
        kwh[3:, 0, 9:19] += 5.0
        variants = clustering.score_variants(kwh, tariff, labels)
        restricted = (kwh.reshape(6, -1) / kwh.reshape(6, -1).mean(axis=1, keepdims=True))
        mask = ((tariff == LOW) | (tariff == HIGH)).reshape(6, -1)[0]
        direct = clustering.calinski_harabasz(restricted[:, mask], labels)
        assert variants.special == pytest.approx(direct, rel=1e-12)

    def test_no_special_cells_gives_none(self):
        kwh, _, labels = self.build_inputs()
        tariff = np.full((6, 4, 48), NORMAL, dtype=np.int8)
        variants = clustering.score_variants(kwh, tariff, labels)
        assert variants.special is None

    def test_zero_mean_household_excluded(self):
        kwh, tariff, labels = self.build_inputs()
        kwh[1] = 0.0
        with pytest.warns(UserWarning, match="zero-mean"):
            variants = clustering.score_variants(kwh, tariff, labels)
        assert variants.excluded_zero_mean == ["1"]

    def test_no_exposure_household_excluded(self):
        kwh, tariff, labels = self.build_inputs()
        tariff[2] = NORMAL
        with pytest.warns(UserWarning, match="exposure"):
            variants = clustering.score_variants(kwh, tariff, labels,
                                                 household_ids=list("abcdef"))
        assert variants.excluded_no_special == ["c"]

    def test_differing_masks_raise(self):
        kwh, tariff, labels = self.build_inputs()
        tariff[2, 0, 9:19] = NORMAL
        tariff[2, 1, 9:19] = LOW  # same exposure count, different cells
        with pytest.raises(clustering.ClusteringError, match="masks"):
            clustering.score_variants(kwh, tariff, labels)


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
