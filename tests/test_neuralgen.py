import functools
import multiprocessing
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drsim import dataio, neuralgen
from drsim.neuralgen import CvaeConfig, EncoderOutput


def tiny_config(**kw):
    spec = dict(latent_dim=2, hidden=(8,), eta=2.0, learning_rate=3e-3,
                batch_size=16, max_epochs=60, patience=15, restarts=2, seed=0)
    spec.update(kw)
    return CvaeConfig(**spec)


def tiny_dataset(n=48, h=6, dx=2, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(n, dx))
    base = 0.3 + 0.4 * x[:, :1]
    y = base + 0.05 * rng.standard_normal((n, h)) + np.linspace(0, 0.2, h)
    partition = dataio.partition_days(n, 0.75, seed=1)
    return y, x, partition


class TestKlDivergence:
    def test_zero_at_standard_normal(self):
        out = EncoderOutput(np.zeros(4), np.zeros(4))
        assert neuralgen.kl_divergence(out) == 0.0

    def test_hand_oracle(self):
        out = EncoderOutput(np.array([1.0, 0.0]), np.array([0.0, 0.0]))
        assert neuralgen.kl_divergence(out) == pytest.approx(0.5)
        out = EncoderOutput(np.array([0.0]), np.array([np.log(4.0)]))
        # 0.5 * (4 - 1 - log 4)
        assert neuralgen.kl_divergence(out) == pytest.approx(0.5 * (3.0 - np.log(4.0)))

    def test_batch_shape(self):
        out = EncoderOutput(np.zeros((5, 3)), np.zeros((5, 3)))
        assert neuralgen.kl_divergence(out).shape == (5,)

    @given(
        st.lists(st.floats(-3, 3), min_size=1, max_size=6),
        st.lists(st.floats(-3, 3), min_size=1, max_size=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_nonnegative(self, mu, lv):
        size = min(len(mu), len(lv))
        out = EncoderOutput(np.array(mu[:size]), np.array(lv[:size]))
        assert neuralgen.kl_divergence(out) >= -1e-12  # rounding slack only

    def test_monte_carlo_cross_check(self, rng):
        mu = np.array([0.8, -0.5, 1.2])
        log_var = np.log(np.array([0.5, 2.0, 1.5]))
        closed = neuralgen.kl_divergence(EncoderOutput(mu, log_var))
        sigma = np.exp(log_var / 2.0)
        z = mu + sigma * rng.standard_normal((400_000, 3))
        log_q = -0.5 * (((z - mu) / sigma) ** 2).sum(axis=1) - np.log(sigma).sum()
        log_p = -0.5 * (z**2).sum(axis=1)
        assert closed == pytest.approx((log_q - log_p).mean(), rel=0.02)


class TestBuildingBlocks:
    def test_reparameterize_oracle(self):
        out = EncoderOutput(np.array([1.0, -1.0]), np.array([0.0, np.log(4.0)]))
        eps = np.array([0.5, 0.5])
        np.testing.assert_allclose(
            neuralgen.reparameterize(out, eps), [1.5, 0.0], atol=1e-12
        )

    def test_glorot_bounds(self, rng):
        w = neuralgen.glorot_uniform(20, 30, rng)
        limit = np.sqrt(6.0 / 50.0)
        assert w.shape == (20, 30)
        assert np.abs(w).max() <= limit
        assert w.std() > 0.1 * limit

    def test_dense_forward_oracle(self):
        layer = neuralgen.DenseLayer(np.array([[1.0, 2.0], [0.0, -1.0]]),
                                     np.array([0.5, 0.0]), "relu")
        net = neuralgen.DenseNet([layer])
        out = net.forward(np.array([[1.0, 1.0]]))
        np.testing.assert_allclose(out, [[3.5, 0.0]])

    def test_sigmoid_activation_range(self, rng):
        net = neuralgen.DenseNet.build([3, 4], ["sigmoid"], rng)
        out = net.forward(rng.normal(size=(10, 3)) * 50.0)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_unknown_activation_rejected(self):
        with pytest.raises(ValueError, match="activation"):
            neuralgen._activate("tanh", np.zeros(2))

    def test_adam_first_step_is_signed_learning_rate(self):
        params = [np.array([0.0, 0.0])]
        grads = [np.array([0.3, -2.0])]
        state = neuralgen.adam_init(params)
        neuralgen.adam_step(params, grads, state, lr=0.01)
        # bias corrections cancel on step one: p = -lr * g / (|g| + eps)
        expected = -0.01 * grads[0] / (np.abs(grads[0]) + 1e-8)
        np.testing.assert_allclose(params[0], expected, rtol=1e-12)

    def test_flat_adam_step_matches_per_array_steps(self, rng):
        encoder, decoder = neuralgen._build_nets(6, 2, tiny_config(), rng)
        arrays = [p.copy() for p in encoder.params() + decoder.params()]
        assert len(arrays) == 8
        flat = np.concatenate([a.ravel() for a in arrays])
        per_array = neuralgen.adam_init(arrays)
        one = neuralgen.adam_init([flat])
        for _ in range(50):
            grads = [rng.standard_normal(a.shape) for a in arrays]
            neuralgen.adam_step(arrays, grads, per_array, lr=3e-3)
            neuralgen.adam_step([flat], [np.concatenate([g.ravel() for g in grads])], one, lr=3e-3)
        assert one.t == per_array.t == 50
        np.testing.assert_array_equal(flat, np.concatenate([a.ravel() for a in arrays]))
        np.testing.assert_array_equal(one.m[0], np.concatenate([m.ravel() for m in per_array.m]))
        np.testing.assert_array_equal(one.v[0], np.concatenate([v.ravel() for v in per_array.v]))

    def test_encoder_width_validation(self, rng):
        enc = neuralgen.DenseNet.build([8, 5], ["linear"], rng)
        with pytest.raises(ValueError, match="width"):
            neuralgen.encode(enc, 4, np.zeros((1, 6)), np.zeros((1, 2)))

    def test_encode_accepts_single_rows(self, rng):
        enc = neuralgen.DenseNet.build([8, 4], ["linear"], rng)
        out = neuralgen.encode(enc, 2, np.zeros(6), np.zeros(2))
        assert out.mu.shape == (1, 2) and out.log_var.shape == (1, 2)


class TestGradients:
    def test_backprop_matches_finite_differences(self):
        rng = np.random.default_rng(123)
        config = tiny_config(latent_dim=2, hidden=(5,), eta=3.0)
        encoder, decoder = neuralgen._build_nets(4, 3, config, rng)
        y = rng.uniform(0.2, 0.8, size=(7, 4))
        x = rng.uniform(size=(7, 3))
        eps = rng.standard_normal((7, 2))
        loss, grads = neuralgen.cvae_loss_and_grads(encoder, decoder, config, y, x, eps)
        params = encoder.params() + decoder.params()
        step = 1e-5
        for p, g in zip(params, grads):
            flat_p = p.ravel()
            flat_g = g.ravel()
            for idx in range(flat_p.size):
                orig = flat_p[idx]
                flat_p[idx] = orig + step
                up, _, _ = neuralgen.cvae_loss(encoder, decoder, config, y, x, eps)
                flat_p[idx] = orig - step
                down, _, _ = neuralgen.cvae_loss(encoder, decoder, config, y, x, eps)
                flat_p[idx] = orig
                fd = (up - down) / (2.0 * step)
                assert flat_g[idx] == pytest.approx(fd, rel=1e-4, abs=1e-7)

    def test_loss_pieces_consistent(self):
        rng = np.random.default_rng(7)
        config = tiny_config()
        encoder, decoder = neuralgen._build_nets(6, 2, config, rng)
        y = rng.uniform(size=(9, 6))
        x = rng.uniform(size=(9, 2))
        eps = rng.standard_normal((9, 2))
        loss, recon, kl = neuralgen.cvae_loss(encoder, decoder, config, y, x, eps)
        assert loss == pytest.approx(recon + config.eta * kl, rel=1e-12)
        loss2, _ = neuralgen.cvae_loss_and_grads(encoder, decoder, config, y, x, eps)
        assert loss2 == loss


class TestTraining:
    def test_training_learns_and_reports(self):
        y, x, partition = tiny_dataset()
        model = neuralgen.train_cvae(y, x, partition, tiny_config())
        assert np.isfinite(model.test_mse)
        assert len(model.restart_mses) == 2
        assert model.restart_index == int(np.argmin(model.restart_mses))
        assert model.test_mse == min(model.restart_mses)
        assert 0 < len(model.epoch_losses) <= 60
        # the loss should actually come down over training
        assert model.epoch_losses[-1] < model.epoch_losses[0]

    def test_training_determinism(self):
        y, x, partition = tiny_dataset(seed=3)
        config = tiny_config(restarts=1, max_epochs=20)
        a = neuralgen.train_cvae(y, x, partition, config)
        b = neuralgen.train_cvae(y, x, partition, config)
        for pa, pb in zip(a.encoder.params() + a.decoder.params(),
                          b.encoder.params() + b.decoder.params()):
            np.testing.assert_array_equal(pa, pb)

    def test_scaling_bounds_from_train_split_only(self):
        y, x, partition = tiny_dataset()
        y = y.copy()
        test_day = int(partition.test[0])
        y[test_day] += 100.0  # extreme test day must not touch the bounds
        model = neuralgen.train_cvae(y, x, partition, tiny_config(restarts=1, max_epochs=5))
        assert model.y_max == y[partition.train].max()
        assert model.y_min == y[partition.train].min()

    def test_constant_training_data_raises(self):
        y, x, partition = tiny_dataset()
        with pytest.raises(neuralgen.TrainingError, match="degenerate"):
            neuralgen.train_cvae(np.ones_like(y), x, partition, tiny_config())

    def test_shape_mismatch_raises(self):
        y, x, partition = tiny_dataset()
        with pytest.raises(neuralgen.TrainingError):
            neuralgen.train_cvae(y, x[:-1], partition, tiny_config())

    def test_select_best_ties_to_lower_index(self):
        y, x, partition = tiny_dataset()
        config = tiny_config(restarts=1, max_epochs=3)
        model = neuralgen.train_cvae(y, x, partition, config)
        results = [
            (model.encoder, model.decoder, 0.5, [1.0], None),
            (model.encoder, model.decoder, 0.5, [1.0], None),
        ]
        picked = neuralgen.select_best(results, 0.0, 1.0, config)
        assert picked.restart_index == 0

    def test_select_best_all_failed_raises(self):
        with pytest.raises(neuralgen.TrainingError, match="every restart failed"):
            neuralgen.select_best(
                [(None, None, np.inf, [], "non-finite training loss")], 0.0, 1.0, tiny_config()
            )


def all_params(model):
    return model.encoder.params() + model.decoder.params()


def force_cpus(monkeypatch, tmp_path, cpus):
    """Pretend cpus CPUs are usable; returns a file logging each stack's pid."""
    monkeypatch.setattr(neuralgen, "_usable_cpus", lambda: cpus)
    log = tmp_path / f"pids{cpus}.txt"
    train_stack = neuralgen._train_stack

    @functools.wraps(train_stack)
    def logged(jobs):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return train_stack(jobs)

    monkeypatch.setattr(neuralgen, "_train_stack", logged)
    return log


def assert_ran_in(log, cpus):
    pids = {int(line) for line in log.read_text().split()}
    if cpus == 1 or "fork" not in multiprocessing.get_all_start_methods():
        assert pids == {os.getpid()}
    else:
        assert os.getpid() not in pids


class TestParallelRestarts:
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_pool_matches_in_process(self, monkeypatch, tmp_path, cpus):
        y, x, partition = tiny_dataset(seed=4)
        config = tiny_config(restarts=3, max_epochs=25, patience=5)
        y_min, y_max, split = neuralgen._scaled_split(y, x, partition)
        serial = neuralgen.select_best(
            [neuralgen._train_once(*split, config, config.seed + j) for j in range(3)],
            y_min, y_max, config,
        )
        log = force_cpus(monkeypatch, tmp_path, cpus)
        model = neuralgen.train_cvae(y, x, partition, config)
        assert_ran_in(log, cpus)
        for a, b in zip(all_params(model), all_params(serial), strict=True):
            np.testing.assert_array_equal(a, b)
        assert model.restart_mses == serial.restart_mses
        assert model.restart_index == serial.restart_index
        assert model.epoch_losses == serial.epoch_losses
        assert model.restart_epochs == serial.restart_epochs
        assert model.test_mse == serial.test_mse

    def test_restart_epochs_recorded(self):
        y, x, partition = tiny_dataset()
        model = neuralgen.train_cvae(y, x, partition, tiny_config(restarts=3, max_epochs=30))
        assert len(model.restart_epochs) == 3
        assert all(0 < e <= 30 for e in model.restart_epochs)
        assert model.restart_epochs[model.restart_index] == len(model.epoch_losses)


def masked_sigmoid(pre):
    """The sign-split sigmoid the CVAE used before the one-pass form."""
    out = np.empty_like(pre)
    pos = pre >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-pre[pos]))
    e = np.exp(pre[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def test_one_pass_sigmoid_matches_masked_formula(rng):
    edges = np.array([0.0, 1e-300, 36.7, 709.8, 745.2, 1e308, np.inf])
    pre = np.concatenate([edges, -edges, rng.normal(scale=30.0, size=5_000),
                          rng.uniform(-800.0, 800.0, size=5_000)])
    expected = masked_sigmoid(pre)
    for got in (neuralgen._sigmoid(pre), neuralgen._activate("sigmoid", pre)):
        assert np.array_equal(got, expected)
        assert np.array_equal(np.signbit(got), np.signbit(expected))


# The training loop as it was before restarts were stacked: per-layer
# forward caches, a backward pass per net and one concatenated gradient per
# step. train_cvaes must reproduce it bit for bit.
def oracle_forward(net, x):
    caches = []
    for layer in net.layers:
        pre = x @ layer.weights.T + layer.bias
        if layer.activation == "relu":
            out = np.maximum(pre, 0.0)
        elif layer.activation == "sigmoid":
            out = masked_sigmoid(pre)
        else:
            out = pre
        caches.append((x, pre, out))
        x = out
    return x, caches


def oracle_backward(net, caches, grad_out):
    grads = [None] * len(net.layers)
    for i in reversed(range(len(net.layers))):
        x_in, pre, out = caches[i]
        activation = net.layers[i].activation
        if activation == "relu":
            local = (pre > 0).astype(float)
        elif activation == "sigmoid":
            local = out * (1.0 - out)
        else:
            local = np.ones_like(pre)
        grad_pre = grad_out * local
        grads[i] = (grad_pre.T @ x_in, grad_pre.sum(axis=0))
        grad_out = grad_pre @ net.layers[i].weights
    return grad_out, grads


def oracle_loss_and_grad(encoder, decoder, config, y, x, eps):
    n, d = y.shape[0], config.latent_dim
    enc_raw, enc_caches = oracle_forward(encoder, np.hstack([y, x]))
    mu, log_var = enc_raw[:, :d], enc_raw[:, d:]
    std = np.exp(log_var / 2.0)
    z = mu + std * eps
    y_hat, dec_caches = oracle_forward(decoder, np.hstack([z, x]))
    recon = ((y - y_hat) ** 2).sum(axis=1)
    kl = 0.5 * (np.exp(log_var) + mu**2 - 1.0 - log_var).sum(axis=1)
    loss = float(np.mean(recon + config.eta * kl))
    d_dec_in, dec_grads = oracle_backward(decoder, dec_caches, -2.0 * (y - y_hat) / n)
    d_z = d_dec_in[:, :d]
    d_mu = d_z + (config.eta / n) * mu
    d_log_var = d_z * eps * 0.5 * std + (config.eta / n) * 0.5 * (np.exp(log_var) - 1.0)
    _, enc_grads = oracle_backward(encoder, enc_caches, np.hstack([d_mu, d_log_var]))
    return loss, np.concatenate([g.ravel() for pair in enc_grads + dec_grads for g in pair])


def oracle_train_once(y_train, x_train, y_test, x_test, config, seed):
    rng = np.random.default_rng(seed)
    encoder, decoder = neuralgen._build_nets(y_train.shape[1], x_train.shape[1], config, rng)
    params = encoder.params() + decoder.params()
    flat = np.concatenate([p.ravel() for p in params])
    state = neuralgen.adam_init([flat])
    n = y_train.shape[0]
    best, stale, losses = np.inf, 0, []
    for _ in range(config.max_epochs):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            eps = rng.standard_normal((len(idx), config.latent_dim))
            loss, grad = oracle_loss_and_grad(encoder, decoder, config, y_train[idx],
                                              x_train[idx], eps)
            neuralgen.adam_step([flat], [grad], state, config.learning_rate)
            offset = 0
            for p in params:
                p[...] = flat[offset : offset + p.size].reshape(p.shape)
                offset += p.size
            total += loss * len(idx)
        epoch_loss = total / n
        if not np.isfinite(epoch_loss):
            return None, None, np.inf, losses, "non-finite training loss"
        losses.append(epoch_loss)
        if epoch_loss < best:
            best, stale = epoch_loss, 0
        else:
            stale += 1
            if stale >= config.patience:
                break
    enc_raw, _ = oracle_forward(encoder, np.hstack([y_test, x_test]))
    d = config.latent_dim
    eps = rng.standard_normal(enc_raw[:, :d].shape)
    z = enc_raw[:, :d] + np.exp(enc_raw[:, d:] / 2.0) * eps
    y_hat, _ = oracle_forward(decoder, np.hstack([z, x_test]))
    mse = float(np.mean(((y_test - y_hat) ** 2).sum(axis=1)))
    return encoder, decoder, mse, losses, None


class TestStackedTraining:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_train_cvaes_matches_unstacked_oracle(self, monkeypatch, tmp_path, cpus):
        problems = []
        for data_seed, seed in ((4, 0), (5, 100), (6, 200)):
            y, x, partition = tiny_dataset(seed=data_seed)
            # eta / n is no power of two, and the last batch of an epoch is short
            config = tiny_config(restarts=3, max_epochs=40, patience=3, eta=3.0, batch_size=10,
                                 seed=seed)
            problems.append((y, x, config))
        # one huge conditional value: some restarts of this problem overflow in
        # their first epoch, the others train on
        x = problems[2][1].copy()
        x[partition.train[0], 0] = 1e5
        problems[2] = (problems[2][0], x, problems[2][2])

        expected = []
        for y, x, config in problems:
            y_min, y_max, split = neuralgen._scaled_split(y, x, partition)
            results = [oracle_train_once(*split, config, config.seed + j) for j in range(3)]
            expected.append(neuralgen.select_best(results, y_min, y_max, config))
        errors = [r[4] for r in results]
        assert "non-finite training loss" in errors and None in errors
        epochs = {e for model in expected for e in model.restart_epochs}
        assert len(epochs) > 2 and 40 in epochs

        log = force_cpus(monkeypatch, tmp_path, cpus)
        models = neuralgen.train_cvaes(problems, partition)
        assert_ran_in(log, cpus)
        stacks = cpus if "fork" in multiprocessing.get_all_start_methods() else 1
        assert len(log.read_text().split()) == stacks
        for model, oracle in zip(models, expected, strict=True):
            for a, b in zip(all_params(model), all_params(oracle), strict=True):
                assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))
            assert model.restart_mses == oracle.restart_mses
            assert model.restart_index == oracle.restart_index
            assert model.epoch_losses == oracle.epoch_losses
            assert model.restart_epochs == oracle.restart_epochs
            assert model.test_mse == oracle.test_mse

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failed_problem_is_returned_in_place(self):
        y, x, partition = tiny_dataset()
        config = tiny_config(restarts=2, max_epochs=5)
        huge = x.copy()
        huge[:, 0] = 1e100
        models = neuralgen.train_cvaes(
            [(y, x, config), (np.ones_like(y), x, config), (y, huge, config)], partition
        )
        alone = neuralgen.train_cvae(y, x, partition, config)
        for a, b in zip(all_params(models[0]), all_params(alone), strict=True):
            np.testing.assert_array_equal(a, b)
        assert isinstance(models[1], neuralgen.TrainingError)
        assert "degenerate" in str(models[1])
        assert isinstance(models[2], neuralgen.TrainingError)
        assert str(models[2]) == "every restart failed: non-finite training loss"

    def test_problems_must_share_config_and_shapes(self):
        y, x, partition = tiny_dataset()
        config = tiny_config(restarts=1, max_epochs=2)
        with pytest.raises(neuralgen.TrainingError, match="every config field but seed"):
            neuralgen.train_cvaes([(y, x, config), (y, x, tiny_config(eta=1.0))], partition)
        with pytest.raises(neuralgen.TrainingError, match="shapes"):
            neuralgen.train_cvaes([(y, x, config), (y, x[:, :1], config)], partition)
        assert neuralgen.train_cvaes([], partition) == []


@pytest.fixture(scope="module")
def model():
    y, x, partition = tiny_dataset()
    config = tiny_config(restarts=1, max_epochs=200, learning_rate=5e-3, patience=50)
    return neuralgen.train_cvae(y, x, partition, config)


class TestGenerate:
    def test_samples_within_training_bounds(self, model):
        draws = neuralgen.generate(model, np.array([0.5, 0.5]), 200, seed=0)
        assert draws.shape == (200, 6)
        assert draws.min() >= model.y_min and draws.max() <= model.y_max

    def test_seed_determinism(self, model):
        x = np.array([0.2, 0.8])
        a = neuralgen.generate(model, x, 16, seed=3)
        b = neuralgen.generate(model, x, 16, seed=3)
        c = neuralgen.generate(model, x, 16, seed=4)
        np.testing.assert_array_equal(a, b)
        assert (a != c).any()

    def test_zero_latent_scale_collapses(self, model):
        draws = neuralgen.generate(model, np.array([0.5, 0.5]), 8, seed=1, latent_scale=0.0)
        np.testing.assert_array_equal(draws, np.tile(draws[0], (8, 1)))

    def test_conditional_effect_learned(self, model):
        # training data had mean 0.3 + 0.4 * x[0]: the decoder must reflect it
        low = neuralgen.generate(model, np.array([0.05, 0.5]), 400, seed=5).mean()
        high = neuralgen.generate(model, np.array([0.95, 0.5]), 400, seed=5).mean()
        assert high - low > 0.15


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        y, x, partition = tiny_dataset()
        model = neuralgen.train_cvae(y, x, partition, tiny_config(restarts=1, max_epochs=10))
        path = tmp_path / "cvae.npz"
        neuralgen.save_model(model, path)
        loaded = neuralgen.load_model(path)
        assert loaded.config == model.config
        assert loaded.y_min == model.y_min and loaded.y_max == model.y_max
        assert loaded.test_mse == model.test_mse
        xq = np.array([0.3, 0.7])
        np.testing.assert_array_equal(
            neuralgen.generate(loaded, xq, 12, seed=2),
            neuralgen.generate(model, xq, 12, seed=2),
        )

    def test_round_trip_exact_with_view_weights(self, tmp_path, monkeypatch):
        monkeypatch.setattr(neuralgen, "_usable_cpus", lambda: 1)
        y, x, partition = tiny_dataset()
        model = neuralgen.train_cvae(y, x, partition, tiny_config(restarts=2, max_epochs=10))
        params = all_params(model)
        # in-process training leaves every weight a view of one flat buffer
        assert all(p.base is not None and p.base is params[0].base for p in params)
        path = tmp_path / "cvae.npz"
        neuralgen.save_model(model, path)
        loaded = all_params(neuralgen.load_model(path))
        for a, b in zip(params, loaded, strict=True):
            assert a.shape == b.shape and a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)

    def test_tampered_config_hash_rejected(self, tmp_path):
        import json

        y, x, partition = tiny_dataset()
        model = neuralgen.train_cvae(y, x, partition, tiny_config(restarts=1, max_epochs=4))
        path = tmp_path / "cvae.npz"
        neuralgen.save_model(model, path)
        with np.load(path, allow_pickle=False) as z:
            payload = {k: z[k] for k in z.files}
        meta = json.loads(str(payload["meta"]))
        meta["config"]["eta"] = 999.0
        payload["meta"] = np.array(json.dumps(meta))
        np.savez(path, **payload)
        with pytest.raises(neuralgen.TrainingError, match="hash"):
            neuralgen.load_model(path)
