import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drsim import metrics


def variogram_oracle(ensemble, y, p):
    """Independent double-loop implementation used to pin the score bit for bit."""
    n = ensemble.shape[0]
    total = 0.0
    for i in range(len(y)):
        for j in range(len(y)):
            observed = abs(y[i] - y[j]) ** p
            expected = np.sum(np.abs(ensemble[:, i] - ensemble[:, j]) ** p) / n
            total += (observed - expected) ** 2
    return total


class TestRmse:
    def test_zero_when_mean_matches(self):
        ensemble = np.array([[0.0, 0.0], [2.0, 2.0]])
        assert metrics.rmse(ensemble, np.array([1.0, 1.0])) == 0.0

    def test_hand_oracle(self):
        ensemble = np.zeros((3, 2))
        assert metrics.rmse(ensemble, np.array([3.0, 4.0])) == pytest.approx(5.0)

    def test_shape_validation(self):
        with pytest.raises(metrics.ScoringError):
            metrics.rmse(np.zeros((2, 3)), np.zeros(4))
        with pytest.raises(metrics.ScoringError):
            metrics.rmse(np.zeros(3), np.zeros(3))

    def test_non_finite_rejected(self):
        with pytest.raises(metrics.ScoringError):
            metrics.rmse(np.array([[np.inf, 0.0]]), np.zeros(2))


class TestEnergyScore:
    def test_hand_oracle(self):
        ensemble = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]])
        y = np.array([1.0, 1.0])
        # term1 = (2/4)(sqrt2 + sqrt2), term2 = (1/4)(2 + 2)
        assert metrics.energy_score(ensemble, y) == pytest.approx(np.sqrt(2.0) - 1.0)

    def test_identical_members_reduce_to_distance(self):
        member = np.array([0.5, 1.5, 2.5])
        ensemble = np.tile(member, (6, 1))
        y = np.array([1.0, 1.0, 1.0])
        expected = float(np.linalg.norm(member - y))
        assert metrics.energy_score(ensemble, y) == pytest.approx(expected)

    @pytest.mark.parametrize("n", [1, 3, 7])
    def test_odd_ensemble_rejected(self, n):
        with pytest.raises(metrics.ScoringError, match="even"):
            metrics.energy_score(np.zeros((n, 2)), np.zeros(2))

    def test_allpairs_hand_oracle(self):
        ensemble = np.array([[0.0], [2.0]])
        assert metrics.energy_score_allpairs(ensemble, np.array([1.0])) == pytest.approx(0.0)

    def test_split_halves_agrees_with_allpairs_in_the_limit(self, rng):
        ensemble = rng.standard_normal((4000, 3))
        y = np.array([0.3, -0.2, 0.5])
        a = metrics.energy_score(ensemble, y)
        b = metrics.energy_score_allpairs(ensemble, y)
        assert a == pytest.approx(b, abs=0.05)

    def test_prefers_centered_ensemble(self, rng):
        y = rng.standard_normal(4)
        good = y + 0.3 * rng.standard_normal((400, 4))
        bad = y + 2.0 + 0.3 * rng.standard_normal((400, 4))
        assert metrics.energy_score(good, y) < metrics.energy_score(bad, y)


class TestVariogramScore:
    def test_hand_oracle(self):
        ensemble = np.array([[0.0, 1.0], [2.0, 3.0]])
        y = np.array([0.0, 2.0])
        assert metrics.variogram_score(ensemble, y, p=1.0) == pytest.approx(2.0)

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
    def test_bitwise_matches_independent_oracle(self, p, rng):
        ensemble = rng.uniform(0.0, 2.0, size=(24, 10))
        y = rng.uniform(0.0, 2.0, size=10)
        assert metrics.variogram_score(ensemble, y, p=p) == variogram_oracle(ensemble, y, p)

    @pytest.mark.parametrize("n", [2, 3, 200, 1000])
    @pytest.mark.parametrize("p", [0.5, 0.7, 1.0, 2.0])
    def test_bitwise_matches_oracle_at_pipeline_width(self, n, p, rng):
        # 48 half-hours as the pipeline scores them, small to large ensembles
        ensemble = rng.gamma(2.0, 0.3, size=(n, 48))
        y = rng.gamma(2.0, 0.3, size=48)
        assert metrics.variogram_score(ensemble, y, p=p) == variogram_oracle(ensemble, y, p)

    @pytest.mark.parametrize("p", [0.5, 1, 2, 0.3, 1.5, np.float64(0.5)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bitwise_matches_oracle_on_clamped_ensembles_with_ties(self, seed, p):
        # draws clamped at zero, as the pipeline's are: many exact zeros, and
        # values on a coarse grid, so equal pairs and equal pair differences abound
        r = np.random.default_rng(seed)
        ensemble = np.maximum(r.normal(0.05, 0.3, size=(200, 48)), 0.0).round(1)
        y = np.maximum(r.normal(0.05, 0.3, size=48), 0.0).round(1)
        assert (ensemble == 0.0).mean() > 0.3 and len(np.unique(y)) < 48
        assert metrics.variogram_score(ensemble, y, p=p) == variogram_oracle(ensemble, y, p)

    def test_zero_when_ensemble_replicates_observation(self, rng):
        y = rng.uniform(0.5, 1.5, size=6)
        ensemble = np.tile(y, (8, 1))
        assert metrics.variogram_score(ensemble, y) == 0.0

    @pytest.mark.parametrize("p", [0.0, -1.0])
    def test_invalid_order_rejected(self, p):
        with pytest.raises(metrics.ScoringError, match="p="):
            metrics.variogram_score(np.zeros((2, 3)), np.zeros(3), p=p)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_nonnegative(self, seed):
        r = np.random.default_rng(seed)
        score = metrics.variogram_score(r.normal(size=(6, 5)), r.normal(size=5))
        assert score >= 0.0


class TestEvaluateGenerators:
    @staticmethod
    def gaussian_ensembles(shift, n_samples, seed=0):
        """(3 days, n_samples, 4) ensembles around day pos + shift."""
        r = np.random.default_rng(seed)
        return shift + np.arange(3.0)[:, None, None] + 0.1 * r.standard_normal((3, n_samples, 4))

    def observations(self):
        return np.arange(12, dtype=float).reshape(3, 4) / 4.0

    def test_identical_generators_produce_identical_rows(self):
        ensembles = self.gaussian_ensembles(0.0, 40, seed=5)
        report = metrics.evaluate_generators(self.observations(), {"a": ensembles, "b": ensembles})
        assert [(r.day, r.generator) for r in report.rows] == [
            (day, name) for day in range(3) for name in "ab"
        ]
        for day in range(3):
            a_row = report.rows[2 * day]
            b_row = report.rows[2 * day + 1]
            assert (a_row.rmse, a_row.energy, a_row.variogram) == (
                b_row.rmse, b_row.energy, b_row.variogram
            )

    def test_rows_score_each_day_against_its_observation(self):
        obs = self.observations()
        ensembles = self.gaussian_ensembles(0.0, 10, seed=1)
        report = metrics.evaluate_generators(obs, {"g": ensembles}, variogram_p=1.0)
        for pos, row in enumerate(report.rows):
            assert row.rmse == metrics.rmse(ensembles[pos], obs[pos])
            assert row.energy == metrics.energy_score(ensembles[pos], obs[pos])
            assert row.variogram == metrics.variogram_score(ensembles[pos], obs[pos], 1.0)

    def test_day_labels_recorded(self):
        report = metrics.evaluate_generators(
            self.observations(), {"g": self.gaussian_ensembles(0.0, 10)}, day_labels=[7, 11, 13]
        )
        assert [r.day for r in report.rows] == [7, 11, 13]

    @pytest.mark.parametrize("labels", [[7, 11], [7, 11, 13, 17]], ids=["fewer", "more"])
    def test_day_labels_must_match_the_days_in_number(self, labels):
        with pytest.raises(metrics.ScoringError, match=f"^{len(labels)} day labels for 3 days$"):
            metrics.evaluate_generators(
                self.observations(), {"g": self.gaussian_ensembles(0.0, 10)}, day_labels=labels
            )

    def test_empty_generators_rejected(self):
        with pytest.raises(metrics.ScoringError):
            metrics.evaluate_generators(self.observations(), {})

    def test_ensemble_per_day_required(self):
        with pytest.raises(metrics.ScoringError, match="g: 2 ensembles for 3 days"):
            metrics.evaluate_generators(
                self.observations(), {"g": self.gaussian_ensembles(0.0, 10)[:2]}
            )

    def test_report_round_trip_is_exact(self, tmp_path):
        gens = {"cvae": self.gaussian_ensembles(0.0, 20, seed=3),
                "gam": self.gaussian_ensembles(0.5, 20, seed=4)}
        report = metrics.evaluate_generators(self.observations(), gens)
        path = tmp_path / "report.csv"
        metrics.write_report_csv(report, path)
        assert path.read_text().splitlines()[0] == "day,generator,rmse,energy,variogram_p05"
        loaded = metrics.read_report_csv(path)
        assert loaded.generator_names() == ["cvae", "gam"]
        for orig, back in zip(report.rows, loaded.rows):
            assert (back.day, back.generator) == (orig.day, orig.generator)
            assert back.rmse == orig.rmse
            assert back.energy == orig.energy
            assert back.variogram == orig.variogram

    def test_summary_quartiles_oracle(self):
        rows = [
            metrics.ScoreRow(day=i, generator="g", rmse=float(v), energy=0.0, variogram=0.0)
            for i, v in enumerate([4.0, 1.0, 3.0, 2.0])
        ]
        report = metrics.ScoreReport(rows=rows)
        stats = report.summary()["g"]["rmse"]
        values = np.array([4.0, 1.0, 3.0, 2.0])
        assert stats["mean"] == values.mean()
        for key, q in (("min", 0.0), ("q25", 0.25), ("median", 0.5), ("q75", 0.75), ("max", 1.0)):
            assert stats[key] == np.quantile(values, q)

    def test_summary_csv_layout(self, tmp_path):
        report = metrics.evaluate_generators(
            self.observations(), {"g": self.gaussian_ensembles(0.0, 10)}
        )
        path = tmp_path / "summary.csv"
        metrics.write_summary_csv(report, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "generator,score,mean,min,q25,median,q75,max"
        assert len(lines) == 1 + 3  # one row per score for the single generator
