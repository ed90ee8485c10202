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


def energy_score_allpairs(ensemble, y):
    """All-pairs U-statistic estimator of the energy score: the reference
    that the split-halves metrics.energy_score approaches for large ensembles."""
    ensemble, y = metrics._check(ensemble, y)
    n = ensemble.shape[0]
    if n < 2:
        raise metrics.ScoringError("need at least two ensemble members")
    term1 = np.linalg.norm(ensemble - y, axis=1).mean()
    diffs = ensemble[:, None, :] - ensemble[None, :, :]
    total = np.sqrt((diffs**2).sum(axis=2)).sum()
    return float(term1 - total / (2.0 * n * (n - 1)))


def row_based_summary(rows):
    """The summary as it was computed from one (day, generator, rmse, energy,
    variogram) row per day and generator: each generator's rows filtered
    again for each score. The reference that ScoreReport.summary is pinned to."""
    out = {}
    for name in dict.fromkeys(row[1] for row in rows):
        out[name] = {}
        for col, which in enumerate(("rmse", "energy", "variogram"), start=2):
            values = np.array([row[col] for row in rows if row[1] == name])
            qs = np.quantile(values, (0.0, 0.25, 0.5, 0.75, 1.0))
            out[name][which] = {
                "mean": float(values.mean()),
                "min": float(qs[0]),
                "q25": float(qs[1]),
                "median": float(qs[2]),
                "q75": float(qs[3]),
                "max": float(qs[4]),
            }
    return out


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
        assert energy_score_allpairs(ensemble, np.array([1.0])) == pytest.approx(0.0)

    def test_split_halves_agrees_with_allpairs_in_the_limit(self, rng):
        ensemble = rng.standard_normal((4000, 3))
        y = np.array([0.3, -0.2, 0.5])
        a = metrics.energy_score(ensemble, y)
        b = energy_score_allpairs(ensemble, y)
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

    def test_identical_generators_produce_identical_scores(self):
        ensembles = self.gaussian_ensembles(0.0, 40, seed=5)
        report = metrics.evaluate_generators(self.observations(), {"a": ensembles, "b": ensembles})
        assert report.days == [0, 1, 2] and report.generators == ["a", "b"]
        assert report.scores.shape == (3, 2, 3)
        assert np.array_equal(report.scores[:, 0], report.scores[:, 1])

    def test_scores_each_day_against_its_observation(self):
        obs = self.observations()
        ensembles = self.gaussian_ensembles(0.0, 10, seed=1)
        report = metrics.evaluate_generators(obs, {"g": ensembles}, variogram_p=1.0)
        for pos, (rmse, energy, variogram) in enumerate(report.scores[:, 0].tolist()):
            assert rmse == metrics.rmse(ensembles[pos], obs[pos])
            assert energy == metrics.energy_score(ensembles[pos], obs[pos])
            assert variogram == metrics.variogram_score(ensembles[pos], obs[pos], 1.0)

    def test_day_labels_recorded(self):
        report = metrics.evaluate_generators(
            self.observations(), {"g": self.gaussian_ensembles(0.0, 10)}, day_labels=[7, 11, 13]
        )
        assert report.days == [7, 11, 13]

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
        report = metrics.evaluate_generators(self.observations(), gens, day_labels=[4, 9, 2])
        path = tmp_path / "report.csv"
        metrics.write_report_csv(report, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "day,generator,rmse,energy,variogram_p05"
        assert [line.split(",")[:2] for line in lines[1:]] == [
            [day, name] for day in ("4", "9", "2") for name in ("cvae", "gam")]
        loaded = metrics.read_report_csv(path)
        assert loaded.days == [4, 9, 2] and loaded.generators == ["cvae", "gam"]
        assert np.array_equal(loaded.scores, report.scores)

    def test_summary_quartiles_oracle(self):
        values = np.array([4.0, 1.0, 3.0, 2.0])
        scores = np.zeros((4, 1, 3))
        scores[:, 0, 0] = values
        report = metrics.ScoreReport(days=[0, 1, 2, 3], generators=["g"], scores=scores)
        stats = report.summary()["g"]["rmse"]
        assert stats["mean"] == values.mean()
        for key, q in (("min", 0.0), ("q25", 0.25), ("median", 0.5), ("q75", 0.75), ("max", 1.0)):
            assert stats[key] == np.quantile(values, q)

    @given(st.integers(1, 300), st.integers(1, 4), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_summary_matches_the_row_based_summary_bit_for_bit(self, n_days, n_gens, seed):
        r = np.random.default_rng(seed)
        scores = r.lognormal(r.normal(), 2.0, size=(n_days, n_gens, 3))
        names = [f"g{g}" for g in range(n_gens)]
        report = metrics.ScoreReport(list(range(n_days)), names, scores)
        rows = [(day, name, *scores[day, g].tolist())
                for day in range(n_days) for g, name in enumerate(names)]
        # repr keeps every bit of each float and the order the summary CSV is written in
        assert repr(report.summary()) == repr(row_based_summary(rows))

    def test_summary_csv_layout(self, tmp_path):
        report = metrics.evaluate_generators(
            self.observations(), {"g": self.gaussian_ensembles(0.0, 10)}
        )
        path = tmp_path / "summary.csv"
        metrics.write_summary_csv(report, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "generator,score,mean,min,q25,median,q75,max"
        assert len(lines) == 1 + 3  # one row per score for the single generator


class TestReadReport:
    ROWS = ["3,gam,1.0,2.0,3.0", "3,cvae,1.5,2.5,3.5", "5,gam,1.0,2.0,3.0", "5,cvae,1.5,2.5,3.5"]

    def write(self, tmp_path, rows):
        path = tmp_path / "report_cluster0.csv"
        path.write_text("\r\n".join(["day,generator,rmse,energy,variogram_p05", *rows, ""]))
        return path

    def test_reads_the_grid(self, tmp_path):
        report = metrics.read_report_csv(self.write(tmp_path, self.ROWS))
        assert report.days == [3, 5] and report.generators == ["gam", "cvae"]
        np.testing.assert_array_equal(report.scores[1, 1], [1.5, 2.5, 3.5])

    @pytest.mark.parametrize("row", [
        "3,gam,x,2.0,3.0", "3,gam,1.0,2.0", "3,gam,1.0,2.0,3.0,4.0", "3.5,gam,1.0,2.0,3.0",
        "3,,1.0,2.0,3.0", "3,gam,nan,2.0,3.0", "3,gam,1.0,inf,3.0", "",
    ], ids=["text-score", "four-fields", "six-fields", "float-day", "no-name", "nan", "inf",
            "blank"])
    def test_a_malformed_row_names_the_file_and_line(self, tmp_path, row):
        path = self.write(tmp_path, [*self.ROWS[:2], row, *self.ROWS[3:]])
        with pytest.raises(metrics.ScoringError,
                           match=r"report_cluster0\.csv: line 4 \(.*\) needs an integer day, "
                                 "a generator name and three finite scores"):
            metrics.read_report_csv(path)

    @pytest.mark.parametrize("rows, where, expected", [
        (ROWS[:2] + ROWS[:1] + ROWS[2:], "line 4", "day 5, generator gam"),
        (ROWS[:1] + ROWS[:1] + ROWS[1:], "line 3", "day 3, generator cvae"),
        (ROWS[:2] + ROWS[3:1:-1], "line 4", "day 5, generator gam"),
        (ROWS[:3], "the end of the file", "day 5, generator cvae"),
        (ROWS[:1] + ROWS[2:3] + ROWS[1:2], "line 3", "day 3, generator cvae"),
        (ROWS + ROWS[:2], "line 6", "no row"),
    ], ids=["repeated-row", "repeated-first-row", "swapped-generators", "missing-last",
            "day-split", "day-again"])
    def test_rows_off_the_grid_name_the_file(self, tmp_path, rows, where, expected):
        with pytest.raises(metrics.ScoringError,
                           match=rf"report_cluster0\.csv: {where} breaks the days x generators "
                                 rf"grid \(expected {expected}\)"):
            metrics.read_report_csv(self.write(tmp_path, rows))
