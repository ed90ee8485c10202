"""Acceptance suite: ten end-to-end checks with pinned tolerances.

Each test prints exactly one [PASS]/[FAIL] line (bypassing capture) so a
plain pytest run leaves a readable acceptance record. Seeds are fixed;
every check is deterministic.
"""

import time
import warnings

import numpy as np
import pytest

from drsim import causality, cli, clustering, dataio, gamgen, metrics, neuralgen, synthdata
from drsim.dataio import HIGH, LOW, NORMAL
from drsim.splines import CenteredSplineBlock, CubicSplineBasis


def _line(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _quiet_population(*args, **kwargs):
    # synth populations may clamp a handful of negative draws; that warning
    # is expected here and irrelevant to the checks
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return synthdata.generate_population(*args, **kwargs)


def test_01_kl_closed_form_vs_monte_carlo(capsys):
    """Closed-form KL within 1% of a 1e6-draw Monte Carlo estimate, 20 pairs."""
    start = time.perf_counter()
    rng = np.random.default_rng(301)
    d = 4
    worst = 0.0
    min_kl = np.inf
    for _ in range(20):
        mu = rng.uniform(-2.0, 2.0, size=d)
        log_var = rng.uniform(2 * np.log(0.4), 2 * np.log(2.2), size=d)
        closed = float(neuralgen.kl_divergence(neuralgen.EncoderOutput(mu[None, :], log_var[None, :]))[0])
        min_kl = min(min_kl, closed)
        sigma = np.exp(0.5 * log_var)
        total = 0.0
        n_draws, chunk = 1_000_000, 250_000
        for _ in range(n_draws // chunk):
            z = mu + sigma * rng.standard_normal((chunk, d))
            log_q = -0.5 * np.sum(log_var + (z - mu) ** 2 / np.exp(log_var), axis=1)
            log_p = -0.5 * np.sum(z**2, axis=1)
            total += np.sum(log_q - log_p)
        worst = max(worst, abs(total / n_draws - closed) / closed)
    elapsed = time.perf_counter() - start
    # the (mu, sigma) ranges keep every closed-form KL well above zero so the
    # relative tolerance is meaningful
    ok = worst < 0.01 and min_kl > 0.5 and elapsed < 10.0
    _line(capsys, "01 KL closed form vs Monte Carlo",
          ok, f"worst rel err {worst:.4f} (tol 0.01), min KL {min_kl:.2f}, {elapsed:.1f}s (budget 10s)")


def test_02_backprop_vs_finite_differences(capsys):
    """Analytic gradients match central differences within 1e-4 rel, 5 seeds."""
    start = time.perf_counter()
    step = 1e-5
    worst = 0.0
    n_params = 0
    all_ok = True
    for seed in range(5):
        rng = np.random.default_rng(seed)
        config = neuralgen.CvaeConfig(latent_dim=2, hidden=(5,), eta=3.0)
        encoder, decoder = neuralgen._init_params(4, 3, config, rng)
        y = rng.uniform(0.2, 0.8, size=(7, 4))
        x = rng.uniform(size=(7, 3))
        eps = rng.standard_normal((7, 2))
        _, grads = neuralgen.cvae_loss_and_grads(encoder, decoder, config, y, x, eps)
        params = encoder + decoder
        for p, g in zip(params, grads):
            flat_p, flat_g = p.ravel(), g.ravel()
            for idx in range(flat_p.size):
                orig = flat_p[idx]
                flat_p[idx] = orig + step
                up, _, _ = neuralgen.cvae_loss(encoder, decoder, config, y, x, eps)
                flat_p[idx] = orig - step
                down, _, _ = neuralgen.cvae_loss(encoder, decoder, config, y, x, eps)
                flat_p[idx] = orig
                fd = (up - down) / (2.0 * step)
                err = abs(flat_g[idx] - fd)
                all_ok &= err <= max(1e-4 * abs(fd), 1e-7)
                if abs(fd) > 1e-3:
                    worst = max(worst, err / abs(fd))
                n_params += 1
    elapsed = time.perf_counter() - start
    ok = all_ok and elapsed < 30.0
    _line(capsys, "02 backprop vs finite differences",
          ok, f"{n_params} params over 5 seeds, worst rel err {worst:.2e} (tol 1e-4), {elapsed:.1f}s (budget 30s)")


def test_03_energy_score_analytic_and_propriety(capsys):
    """Scalar Gaussian ensemble hits the analytic value; shifted ensembles lose."""
    rng = np.random.default_rng(302)
    ens = rng.standard_normal((100_000, 1))
    got = metrics.energy_score(ens, np.zeros(1))
    analytic = np.sqrt(2.0 / np.pi) * (1.0 - np.sqrt(2.0) / 2.0)
    rel = abs(got - analytic) / analytic

    wins = 0
    n_trials, n_obs, n_ens = 200, 50, 100
    for _ in range(n_trials):
        s_true = s_shift = 0.0
        for _ in range(n_obs):
            y = rng.standard_normal(1)
            a = rng.standard_normal((n_ens, 1))
            s_true += metrics.energy_score(a, y)
            s_shift += metrics.energy_score(a + 1.0, y)
        wins += s_true < s_shift
    ok = rel < 0.02 and wins >= 190
    _line(capsys, "03 energy score analytic + propriety",
          ok, f"rel err {rel:.4f} vs {analytic:.4f} (tol 0.02), true beats 1-sigma shift {wins}/200 (need 190)")


def test_04_variogram_bitwise_vs_brute_force(capsys):
    """Bit-level equality with an independent double-loop oracle, 50 cases."""
    def oracle(ensemble, y, p):
        n, h = ensemble.shape
        total = 0.0
        for i in range(h):
            for j in range(h):
                obs = abs(y[i] - y[j]) ** p
                exp = np.sum(np.abs(ensemble[:, i] - ensemble[:, j]) ** p) / n
                total += (obs - exp) ** 2
        return total

    rng = np.random.default_rng(303)
    h = 48
    exact = 0
    for case in range(50):
        p = (0.5, 1.0, 2.0)[case % 3]
        n = (8, 16, 30)[case % 3]
        kind = case % 2
        ens = rng.lognormal(size=(n, h)) if kind else rng.normal(size=(n, h))
        y = rng.lognormal(size=h) if kind else rng.normal(size=h)
        exact += metrics.variogram_score(ens, y, p=p) == oracle(ens, y, p)
    ok = exact == 50
    _line(capsys, "04 variogram vs brute-force double loop",
          ok, f"bit-identical on {exact}/50 cases (H=48, p in {{0.5, 1, 2}})")


def test_05_nmf_monotone_and_rank1_recovery(capsys):
    """Objective never increases; exact rank-1 matrices recovered to 1e-3."""
    rng = np.random.default_rng(304)
    monotone = True
    for rows, cols, r in ((40, 24, 5), (60, 30, 4), (25, 18, 3)):
        m = rng.uniform(0.1, 2.0, size=(rows, cols))
        factors = clustering.nmf_factorize(m, r=r, seed=304)
        errors = np.asarray(factors.errors)
        monotone &= bool(np.all(np.diff(errors) <= errors[:-1] * 1e-10 + 1e-12))
    u = rng.uniform(0.5, 2.0, size=25)
    v = rng.uniform(0.5, 2.0, size=18)
    m1 = np.outer(u, v)
    rank1 = clustering.nmf_factorize(m1, r=1, seed=305)
    rel = rank1.errors[-1] / np.linalg.norm(m1)
    ok = monotone and rel < 1e-3
    _line(capsys, "05 NMF monotone + rank-1 recovery",
          ok, f"objective monotone on 3 matrices: {monotone}, rank-1 rel err {rel:.2e} (tol 1e-3)")


def _adjusted_rand(a, b):
    from collections import Counter

    n = len(a)
    cont = Counter(zip(a.tolist(), b.tolist()))
    s = sum(c * (c - 1) // 2 for c in cont.values())
    sa = sum(c * (c - 1) // 2 for c in Counter(a.tolist()).values())
    sb = sum(c * (c - 1) // 2 for c in Counter(b.tolist()).values())
    expected = sa * sb / (n * (n - 1) // 2)
    return (s - expected) / ((sa + sb) / 2 - expected)


def test_06_kmedoids_planted_labels_and_ch_margin(capsys):
    """Planted archetypes recovered (ARI >= 0.9); CH beats random by 2x."""
    archetypes = synthdata.default_archetypes()
    pop = _quiet_population(archetypes, [50, 50, 50, 50], n_days=180, seed=101)
    profiles = causality.fit_profiles(pop.household_ids, pop.kwh, pop.tau, pop.tariff)
    pm = clustering.build_profile_matrix(profiles)
    factors = clustering.nmf_factorize(pm.matrix, r=5, seed=102)
    result = clustering.kmedoids(factors.w, 4)
    truth = np.arange(200) // 50
    ari = _adjusted_rand(truth, result.labels)

    records = clustering.record_variants(pop.kwh, pop.tariff)
    nmf_scores = clustering.score_variants(records, result.labels)
    rand_scores = clustering.score_variants(
        records, clustering.random_clustering(200, 4, seed=103).labels
    )
    ratio = nmf_scores.special / rand_scores.special
    ok = ari >= 0.9 and ratio >= 2.0
    _line(capsys, "06 k-medoids label recovery + CH margin",
          ok, f"ARI {ari:.3f} (need 0.90), special-tariff CH ratio NMF/random {ratio:.0f}x (need 2x)")


def test_07_causality_recovers_planted_shifts(capsys):
    """Planted deltas within 3 SE and noise scales within 20% at T=365."""
    arch = synthdata.ArchetypeSpec(
        name="probe",
        base_shape=synthdata.smooth_shape(1.0, [(36, 6, 0.3)]),
        temp_coeff=-0.005,
        workday_offset=0.0,
        delta_low=0.3,
        delta_high=-0.4,
        rebound=0.0,
        side_width=0,
        noise_std=(0.1, 0.1, 0.1),
        ar_coeff=0.0,
    )
    policy = synthdata.SchedulePolicy(
        special_fraction=0.8, window_shapes=("morning_low", "evening_high")
    )
    pop = _quiet_population([arch], [1], n_days=365, seed=201, policy=policy)
    kwh, tau, tariff = pop.kwh[0], pop.tau, pop.tariff[0]
    tariff_coef, scale = [], []
    for h in range(48):
        basis = CubicSplineBasis.from_quantiles(tau[:, h])
        block, design = CenteredSplineBlock.fit(basis, tau[:, h])
        _, xi, sd, _ = causality.fit_slot(design, block.penalty(), kwh[None, :, h], tariff[:, h],
                                          "probe", h)
        tariff_coef.append(xi[:, 0])
        scale.append(sd[:, 0])

    # contrast SE for iid noise: sigma * sqrt(1/n_special + 1/n_normal)
    worst_z = 0.0
    for name, delta in (("morning_low", 0.3), ("evening_high", -0.4)):
        code = synthdata.WINDOWS[name][0]
        for h in np.flatnonzero(synthdata.window_tariffs([name]) == code):
            n_s = int((tariff[:, h] == code).sum())
            n_n = int((tariff[:, h] == NORMAL).sum())
            se = 0.1 * np.sqrt(1.0 / n_s + 1.0 / n_n)
            z = abs((tariff_coef[h][code] - tariff_coef[h][NORMAL]) - delta) / se
            worst_z = max(worst_z, z)
    worst_scale = max(
        abs(scale[h][code] - 0.1) / 0.1
        for h in range(48)
        for code in (LOW, NORMAL, HIGH)
        if np.isfinite(tariff_coef[h][code])
    )
    ok = worst_z < 3.0 and worst_scale < 0.2
    _line(capsys, "07 causality recovery",
          ok, f"worst |z| {worst_z:.2f} (need < 3), worst sigma rel err {worst_scale:.3f} (need < 0.20)")


def test_08_gamgen_covariance_and_window_exactness(capsys):
    """1e5 samples reproduce the repaired correlation; effect stays in-window."""
    arch = synthdata.ArchetypeSpec(
        name="probe",
        base_shape=synthdata.smooth_shape(1.2, [(17, 5, 0.3)]),
        temp_coeff=-0.004,
        workday_offset=0.05,
        delta_low=0.4,
        delta_high=0.0,
        rebound=0.0,
        side_width=0,
        noise_std=(0.05, 0.05, 0.05),
        ar_coeff=0.5,
    )
    # 45 training days for 48 channels: the raw correlation is singular, so
    # the eigenvalue repair must engage before Cholesky
    pop = _quiet_population([arch], [1], n_days=60, seed=202)
    cal = dataio.build_calendar(pop.dates)
    part = dataio.partition_days(60, 0.75, seed=203)
    taubar = pop.tau.mean(axis=1)
    kwh, tariff = pop.kwh[0], pop.tariff[0]
    gen = gamgen.fit_gam_generator("probe", kwh, pop.tau, taubar, cal, tariff, part)
    repaired_min = np.linalg.eigvalsh(gen.corr).min()

    t = int(part.test[3])
    samples = gen.sample(pop.tau[t], taubar[t], cal.kappa[t], cal.w[t], tariff[t],
                         100_000, seed=204, clamp=False)
    f = gen.mean_profile(pop.tau[t], taubar[t], cal.kappa[t], cal.w[t], tariff[t])
    s = gen.sigma_profile(tariff[t])
    emp = np.corrcoef((samples - f) / s, rowvar=False)
    max_err = np.abs(emp - gen.corr).max()

    tar_low = synthdata.window_tariffs(["morning_low"])
    window = tar_low == LOW
    f_low = gen.mean_profile(pop.tau[t], taubar[t], cal.kappa[t], cal.w[t], tar_low)
    f_norm = gen.mean_profile(pop.tau[t], taubar[t], cal.kappa[t], cal.w[t], np.full(48, NORMAL))
    diff = f_low - f_norm
    xi_low = gen.xi[:, LOW]
    outside_exact = bool(np.all(diff[~window] == 0.0))
    inside_matches = bool(np.allclose(diff[window], xi_low[window], rtol=1e-9))

    ok = repaired_min > 0 and max_err < 0.05 and outside_exact and inside_matches
    _line(capsys, "08 gamgen covariance + in-window-only effect",
          ok, f"max |corr err| {max_err:.4f} (tol 0.05) at N=1e5, repaired min eig {repaired_min:.1e}, "
              f"outside window exact zero: {outside_exact}")


def test_09_cvae_rebound_signs(capsys):
    """CVAE on a cluster mean with planted rebound: correct signs both ways."""
    start = time.perf_counter()
    arch = synthdata.ArchetypeSpec(
        name="storage",
        base_shape=synthdata.smooth_shape(1.2, [(17, 5, 0.3)]),
        temp_coeff=-0.004,
        workday_offset=0.05,
        delta_low=0.8,
        delta_high=0.0,
        rebound=0.5,
        side_width=0,
        noise_std=(0.05, 0.05, 0.05),
        ar_coeff=0.0,
    )
    pop = _quiet_population([arch], [12], n_days=365, seed=107)
    kwh = pop.kwh.mean(axis=0)      # cluster-mean daily profiles
    tariff = pop.tariff[0]          # shared time-of-use schedule
    cal = dataio.build_calendar(pop.dates)
    n = kwh.shape[0]
    x = np.array([
        dataio.build_conditional_vector(np.zeros(3), cal.kappa[d], cal.w[d], tariff[d])
        for d in range(n)
    ])
    part = dataio.partition_days(n, 0.75, seed=108)
    config = neuralgen.CvaeConfig(
        latent_dim=4, hidden=(15,), eta=10.0, learning_rate=1e-3,
        batch_size=32, max_epochs=600, patience=60, restarts=4, seed=109,
    )
    fit = neuralgen.train_cvae(kwh, x, part, config)

    tar_low = synthdata.window_tariffs(["morning_low"])
    window = tar_low == LOW
    x_low = dataio.build_conditional_vector(np.zeros(3), 0.5, 1.0, tar_low)
    x_norm = dataio.build_conditional_vector(np.zeros(3), 0.5, 1.0, np.full(48, NORMAL))
    m_low = neuralgen.generate(fit, x_low, 400, seed=110).mean(axis=0)
    m_norm = neuralgen.generate(fit, x_norm, 400, seed=110).mean(axis=0)
    d_in = m_low[window].mean() - m_norm[window].mean()
    d_out = m_low[~window].mean() - m_norm[~window].mean()
    elapsed = time.perf_counter() - start
    ok = d_in > 0.0 and d_out < 0.0 and config.restarts <= 10 and elapsed < 900.0
    _line(capsys, "09 CVAE rebound signs",
          ok, f"in-window shift {d_in:+.3f} (need > 0), out-of-window shift {d_out:+.3f} (need < 0), "
              f"{config.restarts} restarts, {elapsed:.0f}s (budget 900s)")


CONFIG_10 = """\
seed: 31
out: {out}
synth:
  n_days: 120
  households: {{morning_saver: 13, evening_cutter: 13, flatline: 12, storage_heavy: 12}}
  std_households: 5
cluster:
  k: 4
  nmf_rank: 5
train:
  generators: [gam]
evaluate:
  n_samples: 200
"""


def test_10_end_to_end_deterministic(capsys, tmp_path):
    """Full pipeline twice at 50 households / 120 days: bit-identical reports."""
    stages = ("synth", "ingest", "cluster", "train", "evaluate")
    elapsed = {}
    for run in ("a", "b"):
        out = tmp_path / run
        cfg = tmp_path / f"cfg_{run}.yaml"
        cfg.write_text(CONFIG_10.format(out=out))
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            codes = [cli.main([stage, "--config", str(cfg)]) for stage in stages]
        elapsed[run] = time.perf_counter() - start
        assert codes == [0] * len(stages), f"run {run} stage exit codes {codes}"
    reports_a = sorted((tmp_path / "a").glob("report_cluster*.csv"))
    reports_b = sorted((tmp_path / "b").glob("report_cluster*.csv"))
    identical = (
        len(reports_a) == 4
        and [p.name for p in reports_a] == [p.name for p in reports_b]
        and all(x.read_bytes() == y.read_bytes() for x, y in zip(reports_a, reports_b))
    )
    worst = max(elapsed.values())
    ok = identical and worst < 300.0
    _line(capsys, "10 end-to-end determinism",
          ok, f"2 runs x {len(stages)} stages, slowest run {worst:.0f}s (budget 300s), "
              f"{len(reports_a)} reports bit-identical: {identical}")
