"""Conditional variational autoencoder for daily consumption profiles.

Everything is plain numpy: dense layers with hand-written backprop, Adam with
bias correction, Glorot-uniform init. The encoder maps a (scaled profile,
conditional) pair to a diagonal Gaussian over the latent space; its final
linear layer has width 2d and is split into the mean and log-variance heads.
The decoder mirrors the encoder and ends in a sigmoid, so reconstructions
live in [0, 1] and generated profiles in the training min/max range exactly.

Training minimizes mean_batch(||y - yhat||^2 + eta * KL) with KL against the
standard Normal in closed form. Each restart reruns init, shuffling and
reparameterization draws under seed + restart_index; the restart with the
lowest test reconstruction MSE wins. Restarts depend only on their seed, so
they run in parallel over the usable CPUs where the platform can fork, with
results identical to a serial run.
"""

import hashlib
import itertools
import json
import multiprocessing
import os
from dataclasses import dataclass, field, asdict, replace

import numpy as np

from .dataio import replacing

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class TrainingError(RuntimeError):
    pass


@dataclass
class CvaeConfig:
    latent_dim: int = 4
    hidden: tuple = (15,)
    eta: float = 10.0
    learning_rate: float = 1e-3
    batch_size: int = 32
    max_epochs: int = 5000
    patience: int = 50
    restarts: int = 50
    seed: int = 0

    def digest(self):
        payload = json.dumps(asdict(self), sort_keys=True, default=list)
        return hashlib.sha256(payload.encode()).hexdigest()


@dataclass
class DenseLayer:
    weights: np.ndarray    # (n_out, n_in)
    bias: np.ndarray       # (n_out,)
    activation: str        # relu | linear | sigmoid


def _activate(name, pre):
    if name == "relu":
        return np.maximum(pre, 0.0)
    if name == "sigmoid":
        # split by sign so exp never overflows
        out = np.empty_like(pre)
        pos = pre >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-pre[pos]))
        e = np.exp(pre[~pos])
        out[~pos] = e / (1.0 + e)
        return out
    if name == "linear":
        return pre
    raise ValueError(f"unknown activation {name!r}")


def _activation_grad(name, pre, out):
    if name == "relu":
        return (pre > 0).astype(float)
    if name == "sigmoid":
        return out * (1.0 - out)
    return np.ones_like(pre)


def glorot_uniform(n_out, n_in, rng):
    limit = np.sqrt(6.0 / (n_in + n_out))
    return rng.uniform(-limit, limit, size=(n_out, n_in))


@dataclass
class DenseNet:
    layers: list

    @classmethod
    def build(cls, sizes, activations, rng):
        layers = [
            DenseLayer(glorot_uniform(n_out, n_in, rng), np.zeros(n_out), act)
            for n_in, n_out, act in zip(sizes[:-1], sizes[1:], activations)
        ]
        return cls(layers)

    def forward(self, x):
        for layer in self.layers:
            x = _activate(layer.activation, x @ layer.weights.T + layer.bias)
        return x

    def forward_trace(self, x):
        caches = []
        for layer in self.layers:
            pre = x @ layer.weights.T + layer.bias
            out = _activate(layer.activation, pre)
            caches.append((x, pre, out))
            x = out
        return x, caches

    def backward(self, caches, grad_out):
        """Gradients of a scalar loss; returns (grad_input, [(dW, db), ...])."""
        grads = [None] * len(self.layers)
        for i in reversed(range(len(self.layers))):
            x_in, pre, out = caches[i]
            grad_pre = grad_out * _activation_grad(self.layers[i].activation, pre, out)
            grads[i] = (grad_pre.T @ x_in, grad_pre.sum(axis=0))
            grad_out = grad_pre @ self.layers[i].weights
        return grad_out, grads

    def params(self):
        out = []
        for layer in self.layers:
            out.extend([layer.weights, layer.bias])
        return out


def _build_nets(n_features, n_cond, config, rng):
    d = config.latent_dim
    hidden = list(config.hidden)
    enc_sizes = [n_features + n_cond] + hidden + [2 * d]
    dec_sizes = [d + n_cond] + hidden + [n_features]
    acts = ["relu"] * len(hidden)
    encoder = DenseNet.build(enc_sizes, acts + ["linear"], rng)
    decoder = DenseNet.build(dec_sizes, acts + ["sigmoid"], rng)
    return encoder, decoder


@dataclass
class EncoderOutput:
    mu: np.ndarray
    log_var: np.ndarray


def encode(encoder, latent_dim, y_scaled, x):
    """Run the encoder on (profile, conditional) pairs; accepts single rows."""
    y_scaled = np.atleast_2d(y_scaled)
    x = np.atleast_2d(x)
    if y_scaled.shape[0] != x.shape[0]:
        raise ValueError("profile and conditional batches differ in length")
    out = encoder.forward(np.hstack([y_scaled, x]))
    if out.shape[1] != 2 * latent_dim:
        raise ValueError("encoder width does not match the latent dimension")
    return EncoderOutput(out[:, :latent_dim], out[:, latent_dim:])


def reparameterize(enc_out, eps):
    return enc_out.mu + np.exp(enc_out.log_var / 2.0) * eps


def kl_divergence(enc_out):
    """KL(N(mu, diag sigma^2) || N(0, I)) summed over latent dimensions.

    0.5 * sum_j (sigma_j^2 + mu_j^2 - 1 - log sigma_j^2); zero exactly at
    mu = 0, sigma = 1. Returns a scalar for one sample, a vector for a batch.
    """
    per = 0.5 * (np.exp(enc_out.log_var) + enc_out.mu**2 - 1.0 - enc_out.log_var)
    return per.sum(axis=-1)


def cvae_loss(encoder, decoder, config, y_scaled, x, eps):
    """Mean over the batch of ||y - yhat||^2 + eta * KL; returns the pieces."""
    enc_out = encode(encoder, config.latent_dim, y_scaled, x)
    z = reparameterize(enc_out, eps)
    y_hat = decoder.forward(np.hstack([z, np.atleast_2d(x)]))
    recon = ((np.atleast_2d(y_scaled) - y_hat) ** 2).sum(axis=1)
    kl = kl_divergence(enc_out)
    loss = float(np.mean(recon + config.eta * kl))
    return loss, float(np.mean(recon)), float(np.mean(kl))


def cvae_loss_and_grads(encoder, decoder, config, y_scaled, x, eps):
    """Loss plus backprop gradients for every encoder/decoder parameter."""
    y = np.atleast_2d(y_scaled)
    x = np.atleast_2d(x)
    n = y.shape[0]
    d = config.latent_dim

    enc_in = np.hstack([y, x])
    enc_raw, enc_caches = encoder.forward_trace(enc_in)
    mu, log_var = enc_raw[:, :d], enc_raw[:, d:]
    std = np.exp(log_var / 2.0)
    z = mu + std * eps

    dec_in = np.hstack([z, x])
    y_hat, dec_caches = decoder.forward_trace(dec_in)

    recon = ((y - y_hat) ** 2).sum(axis=1)
    kl = 0.5 * (np.exp(log_var) + mu**2 - 1.0 - log_var).sum(axis=1)
    loss = float(np.mean(recon + config.eta * kl))

    d_y_hat = -2.0 * (y - y_hat) / n
    d_dec_in, dec_grads = decoder.backward(dec_caches, d_y_hat)
    d_z = d_dec_in[:, :d]

    d_mu = d_z + (config.eta / n) * mu
    d_log_var = d_z * eps * 0.5 * std + (config.eta / n) * 0.5 * (np.exp(log_var) - 1.0)
    _, enc_grads = encoder.backward(enc_caches, np.hstack([d_mu, d_log_var]))

    grads = []
    for dw, db in enc_grads + dec_grads:
        grads.extend([dw, db])
    return loss, grads


@dataclass
class AdamState:
    m: list
    v: list
    t: int = 0


def adam_init(params):
    return AdamState([np.zeros_like(p) for p in params], [np.zeros_like(p) for p in params])


def adam_step(params, grads, state, lr):
    """One bias-corrected Adam update, in place."""
    state.t += 1
    c1 = 1.0 - ADAM_BETA1**state.t
    c2 = 1.0 - ADAM_BETA2**state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g**2
        p -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


@dataclass
class TrainedCvae:
    encoder: DenseNet
    decoder: DenseNet
    y_min: float
    y_max: float
    config: CvaeConfig
    test_mse: float
    restart_index: int = 0
    epoch_losses: list = field(default_factory=list)
    restart_mses: list = field(default_factory=list)
    restart_epochs: list = field(default_factory=list)

    def scale(self, y):
        return (y - self.y_min) / (self.y_max - self.y_min)

    def unscale(self, s):
        return self.y_min + s * (self.y_max - self.y_min)

    def encode(self, y, x):
        return encode(self.encoder, self.config.latent_dim, self.scale(y), x)


def _test_mse(encoder, decoder, d, y_scaled, x, rng):
    enc_out = encode(encoder, d, y_scaled, x)
    eps = rng.standard_normal(enc_out.mu.shape)
    z = reparameterize(enc_out, eps)
    y_hat = decoder.forward(np.hstack([z, x]))
    return float(np.mean(((y_scaled - y_hat) ** 2).sum(axis=1)))


def _flatten_params(nets):
    """Copy every weight and bias of nets into one contiguous buffer and
    rebind each layer's arrays as views of it, in params() order."""
    layers = [layer for net in nets for layer in net.layers]
    flat = np.concatenate([p.ravel() for net in nets for p in net.params()])
    offset = 0
    for layer in layers:
        for name in ("weights", "bias"):
            a = getattr(layer, name)
            setattr(layer, name, flat[offset : offset + a.size].reshape(a.shape))
            offset += a.size
    return flat


def _train_once(y_train, x_train, y_test, x_test, config, seed):
    """One restart; returns (encoder, decoder, test_mse, epoch_losses) or an
    error string when the loss degenerates.

    All parameters live in one flat buffer, so each step is a single Adam
    update on it; elementwise Adam gives the same bits as per-array updates.
    """
    rng = np.random.default_rng(seed)
    encoder, decoder = _build_nets(y_train.shape[1], x_train.shape[1], config, rng)
    flat = _flatten_params((encoder, decoder))
    state = adam_init([flat])

    n = y_train.shape[0]
    best = np.inf
    stale = 0
    losses = []
    for _ in range(config.max_epochs):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            eps = rng.standard_normal((len(idx), config.latent_dim))
            loss, grads = cvae_loss_and_grads(
                encoder, decoder, config, y_train[idx], x_train[idx], eps
            )
            grad = np.concatenate([g.ravel() for g in grads])
            adam_step([flat], [grad], state, config.learning_rate)
            total += loss * len(idx)
        epoch_loss = total / n
        if not np.isfinite(epoch_loss):
            return None, None, np.inf, losses, "non-finite training loss"
        losses.append(epoch_loss)
        if epoch_loss < best:
            best = epoch_loss
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break
    mse = _test_mse(encoder, decoder, config.latent_dim, y_test, x_test, rng)
    if not np.isfinite(mse):
        return None, None, np.inf, losses, "non-finite test MSE"
    return encoder, decoder, mse, losses, None


def _scaled_split(y, x, partition):
    """Scale y by its train-period min/max; returns (y_min, y_max,
    (y_train, x_train, y_test, x_test))."""
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    y_min = float(y[partition.train].min())
    y_max = float(y[partition.train].max())
    if y_max <= y_min:
        raise TrainingError("degenerate scaling bounds (constant training data)")
    y_scaled = (y - y_min) / (y_max - y_min)
    split = (y_scaled[partition.train], x[partition.train],
             y_scaled[partition.test], x[partition.test])
    return y_min, y_max, split


def train_cvae(y, x, partition, config=None):
    """Train with restarts on kWh profiles y (T, H) and conditionals x (T, dx).

    Scaling bounds are the train-period min/max of y. Restart j runs under
    seed config.seed + j; the restart with the lowest test MSE (ties to the
    lower index) is returned with all restart MSEs attached.
    """
    config = config or CvaeConfig()
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    if y.ndim != 2 or x.ndim != 2 or y.shape[0] != x.shape[0]:
        raise TrainingError("profiles and conditionals must be matching 2-d arrays")

    y_min, y_max, split = _scaled_split(y, x, partition)
    results = _run_jobs([(*split, config, config.seed + j) for j in range(config.restarts)])
    return select_best(results, y_min, y_max, config)


def _usable_cpus():
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _run_jobs(jobs):
    """_train_once(*args) for each args tuple in jobs; results in job order.

    Jobs run on a fork pool of min(len(jobs), usable CPUs) workers, and
    in-process when that is one worker or the platform cannot fork. A job
    depends only on its arguments, so both paths give the same bits. Fork,
    unlike spawn or forkserver, needs no __main__ guard in the calling script.
    """
    workers = min(len(jobs), _usable_cpus())
    if workers < 2 or "fork" not in multiprocessing.get_all_start_methods():
        return [_train_once(*args) for args in jobs]
    with multiprocessing.get_context("fork").Pool(workers) as pool:
        return pool.starmap(_train_once, jobs, chunksize=1)


def select_best(results, y_min, y_max, config):
    """Pick the restart with the lowest test MSE; ties go to the lower index."""
    mses = [r[2] for r in results]
    if not any(np.isfinite(m) for m in mses):
        errors = {r[4] for r in results if r[4]}
        raise TrainingError(f"every restart failed: {', '.join(sorted(errors))}")
    best = int(np.argmin(mses))
    enc, dec, mse, losses, _ = results[best]
    return TrainedCvae(
        encoder=enc,
        decoder=dec,
        y_min=y_min,
        y_max=y_max,
        config=config,
        test_mse=mse,
        restart_index=best,
        epoch_losses=losses,
        restart_mses=[float(m) for m in mses],
        restart_epochs=[len(r[3]) for r in results],
    )


def generate(model, x, n_samples, seed, latent_scale=1.0):
    """Sample n_samples profiles (kWh) for one conditional vector x.

    Latents are N(0, latent_scale^2 I); latent_scale=0 collapses the
    ensemble onto the decoder mean profile.
    """
    x = np.asarray(x, dtype=float).reshape(1, -1)
    rng = np.random.default_rng(seed)
    z = latent_scale * rng.standard_normal((n_samples, model.config.latent_dim))
    scaled = model.decoder.forward(np.hstack([z, np.repeat(x, n_samples, axis=0)]))
    return model.unscale(scaled)


def hyperparameter_grid_search(y, x, partition, base_config, grid):
    """Train one single-restart model per grid point and rank by test MSE.

    grid maps CvaeConfig field names to candidate value lists; the cartesian
    product is walked in the given order and ties keep the earlier point.
    Returns (best_config, records) with one (config, mse) record per point.
    """
    keys = list(grid)
    combos = list(itertools.product(*(grid[k] for k in keys)))
    if not combos:
        raise TrainingError("empty hyperparameter grid")

    _, _, split = _scaled_split(y, x, partition)
    configs = [replace(base_config, **dict(zip(keys, combo))) for combo in combos]
    results = _run_jobs([(*split, config, config.seed) for config in configs])
    records = [(config, result[2]) for config, result in zip(configs, results)]
    best = min(range(len(records)), key=lambda i: (records[i][1], i))
    return records[best][0], records


def save_model(model, path):
    """Serialize weights plus a header with config, bounds and a config hash."""
    arrays = {}
    meta = {
        "config": asdict(model.config),
        "digest": model.config.digest(),
        "y_min": model.y_min,
        "y_max": model.y_max,
        "test_mse": model.test_mse,
        "restart_index": model.restart_index,
        "enc_acts": [l.activation for l in model.encoder.layers],
        "dec_acts": [l.activation for l in model.decoder.layers],
    }
    for tag, net in (("enc", model.encoder), ("dec", model.decoder)):
        for i, layer in enumerate(net.layers):
            arrays[f"{tag}_w{i}"] = layer.weights
            arrays[f"{tag}_b{i}"] = layer.bias
    with replacing(path, "wb") as fh:
        np.savez(fh, meta=np.array(json.dumps(meta)), **arrays)


def load_model(path):
    """Inverse of save_model; validates the stored config hash and shapes."""
    with np.load(path, allow_pickle=False) as z:
        meta = json.loads(str(z["meta"]))
        raw = dict(meta["config"])
        raw["hidden"] = tuple(raw["hidden"])
        config = CvaeConfig(**raw)
        if config.digest() != meta["digest"]:
            raise TrainingError("model file config hash mismatch")
        nets = {}
        for tag, acts in (("enc", meta["enc_acts"]), ("dec", meta["dec_acts"])):
            layers = [
                DenseLayer(z[f"{tag}_w{i}"], z[f"{tag}_b{i}"], act)
                for i, act in enumerate(acts)
            ]
            nets[tag] = DenseNet(layers)
    if nets["enc"].layers[-1].weights.shape[0] != 2 * config.latent_dim:
        raise TrainingError("encoder width inconsistent with the stored config")
    if nets["dec"].layers[0].weights.shape[1] < config.latent_dim:
        raise TrainingError("decoder input inconsistent with the stored config")
    return TrainedCvae(
        encoder=nets["enc"],
        decoder=nets["dec"],
        y_min=meta["y_min"],
        y_max=meta["y_max"],
        config=config,
        test_mse=meta["test_mse"],
        restart_index=meta["restart_index"],
    )
