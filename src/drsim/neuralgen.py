"""Conditional variational autoencoder for daily consumption profiles.

Everything is plain numpy: dense layers with hand-written backprop, Adam with
bias correction, Glorot-uniform init. The encoder maps a (scaled profile,
conditional) pair to a diagonal Gaussian over the latent space; its final
linear layer has width 2d and is split into the mean and log-variance heads.
The decoder mirrors the encoder and ends in a sigmoid, so reconstructions
live in [0, 1] and generated profiles in the training min/max range exactly.
Hidden layers are ReLU, so the activations are fixed by the layer count: a
trained encoder or decoder is the list [w0, b0, w1, b1, ...] of the arrays
its model file holds, with no layer objects between training, the file and
a load, and one helper (_forward) runs either net.

Training minimizes mean_batch(||y - yhat||^2 + eta * KL) with KL against the
standard Normal in closed form. Each restart reruns init, shuffling and
reparameterization draws under seed + restart_index; the restart with the
lowest test reconstruction MSE wins. Restarts depend only on their seed and
data, so many of them train together: a stack of K restarts that share
shapes and config keeps every array with a leading K axis, and one numpy call
serves all K. Stacks run in parallel over the usable CPUs where the platform
can fork (parallel.map_forked). Each restart does the unstacked arithmetic
op for op, so its results are the same bits however the restarts are
stacked or split.
"""

import hashlib
import json
from dataclasses import dataclass, field, asdict, replace

import numpy as np

from . import parallel
from .dataio import check_shapes, replacing

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


def _sigmoid(pre):
    """1 / (1 + exp(-pre)) in one pass: exp only sees -|pre|, so it never
    overflows, and each sign gets its own textbook form."""
    e = np.exp(-np.abs(pre))
    return np.where(pre >= 0, 1.0, e) / (1.0 + e)


def _linear(pre):
    return pre


def _forward(params, x, head):
    """x through the dense layers params = [w0, b0, w1, b1, ...], weights
    (n_out, n_in): ReLU after every layer but the last, head after the last."""
    for w, b in zip(params[0:-2:2], params[1:-2:2]):
        x = np.maximum(x @ w.T + b, 0.0)
    return head(x @ params[-2].T + params[-1])


def glorot_uniform(n_out, n_in, rng):
    limit = np.sqrt(6.0 / (n_in + n_out))
    return rng.uniform(-limit, limit, size=(n_out, n_in))


def _layer_shapes(n_features, n_cond, config):
    """(n_out, n_in) of every encoder layer, then every decoder layer."""
    d = config.latent_dim
    hidden = list(config.hidden)
    enc_sizes = [n_features + n_cond] + hidden + [2 * d]
    dec_sizes = [d + n_cond] + hidden + [n_features]
    return [(n_out, n_in) for sizes in (enc_sizes, dec_sizes)
            for n_in, n_out in zip(sizes[:-1], sizes[1:])]


def _init_params(n_features, n_cond, config, rng):
    """Glorot-uniform weights and zero biases, drawn layer by layer; returns
    the (encoder, decoder) lists [w0, b0, w1, b1, ...]."""
    params = []
    for n_out, n_in in _layer_shapes(n_features, n_cond, config):
        params.extend([glorot_uniform(n_out, n_in, rng), np.zeros(n_out)])
    return _split(params, config)


def _split(params, config):
    """(encoder, decoder) lists of the encoder-then-decoder list params."""
    n_enc = 2 * (len(config.hidden) + 1)
    return params[:n_enc], params[n_enc:]


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
    out = _forward(encoder, np.hstack([y_scaled, x]), _linear)
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
    y_hat = _forward(decoder, np.hstack([z, np.atleast_2d(x)]), _sigmoid)
    recon = ((np.atleast_2d(y_scaled) - y_hat) ** 2).sum(axis=1)
    kl = kl_divergence(enc_out)
    loss = float(np.mean(recon + config.eta * kl))
    return loss, float(np.mean(recon)), float(np.mean(kl))


def _layer_views(flat, shapes):
    """(K, out, in) weight and (K, 1, out) bias views of a (K, P) buffer, for
    layers of the given (out, in) shapes, in [w0, b0, w1, b1, ...] order."""
    k = flat.shape[0]
    views = []
    offset = 0
    for n_out, n_in in shapes:
        views.append(flat[:, offset : offset + n_out * n_in].reshape(k, n_out, n_in))
        offset += n_out * n_in
        views.append(flat[:, offset : offset + n_out].reshape(k, 1, n_out))
        offset += n_out
    return views


def _dense(h, w, b):
    pre = np.matmul(h, w.transpose(0, 2, 1))
    pre += b
    return pre


def _relu_layers(layers, h):
    """Run h through ReLU layers; returns the input of every layer plus the
    last output, which feeds the next (output) layer."""
    inputs = [h]
    for w, b in layers:
        h = _dense(h, w, b)
        np.maximum(h, 0.0, out=h)
        inputs.append(h)
    return inputs


def _backprop(g, layers, inputs, grads):
    """Write each layer's (dW, db) into grads, starting from g, the gradient at
    the last layer's pre-activation; inputs[i] is layer i's input and, for
    i > 0, layer i - 1's ReLU output. Returns the gradient at the first
    layer's pre-activation."""
    for i in reversed(range(len(layers))):
        np.matmul(g.transpose(0, 2, 1), inputs[i], out=grads[2 * i])
        np.sum(g, axis=1, keepdims=True, out=grads[2 * i + 1])
        if i > 0:
            g = g @ layers[i][0]
            g *= inputs[i] > 0
    return g


def _stack_loss_and_grads(params, grads, n_enc, eta, enc_in, eps, dec_in):
    """Losses (K,) of K stacked CVAEs on one batch each; gradients go into grads.

    params and grads hold (K, out, in) weights and (K, 1, out) biases in
    [w0, b0, w1, b1, ...] order, the n_enc encoder layers first. Hidden
    layers are ReLU, the encoder ends linear and the decoder in a sigmoid.
    enc_in (K, n, F + C) holds the scaled profiles in its first F columns,
    eps is (K, n, d), and dec_in is a (K, n, d + C) buffer that arrives with
    the conditionals in its last C columns; z is written into the first d.
    Each job's numbers go through the unstacked formula's operations in the
    same order, so a job gets the same bits whatever shares its stack.
    """
    layers = list(zip(params[0::2], params[1::2]))
    enc, dec = layers[:n_enc], layers[n_enc:]
    n = enc_in.shape[1]
    d = eps.shape[2]

    enc_inputs = _relu_layers(enc[:-1], enc_in)
    raw = _dense(enc_inputs[-1], *enc[-1])
    mu, log_var = raw[..., :d], raw[..., d:]
    std = np.exp(log_var / 2.0)
    z = dec_in[..., :d]
    np.multiply(std, eps, out=z)
    z += mu  # mu + std * eps: IEEE addition commutes exactly
    dec_inputs = _relu_layers(dec[:-1], dec_in)
    y_hat = _sigmoid(_dense(dec_inputs[-1], *dec[-1]))

    diff = enc_in[..., : y_hat.shape[2]] - y_hat
    recon = (diff**2).sum(axis=2)
    var = np.exp(log_var)
    kl = 0.5 * (var + mu**2 - 1.0 - log_var).sum(axis=2)
    loss = np.mean(recon + eta * kl, axis=1)

    g = -2.0 * diff / n
    g *= y_hat * (1.0 - y_hat)
    g = _backprop(g, dec, dec_inputs, grads[2 * n_enc :])
    # the whole input gradient, then sliced: BLAS may sum a column subset in another order
    d_z = (g @ dec[0][0])[..., :d]

    # d_mu | d_log_var, with d_log_var = d_z * eps * 0.5 * std + (eta / n) * 0.5 * (var - 1)
    g = np.empty_like(raw)
    np.add(d_z, (eta / n) * mu, out=g[..., :d])
    t = d_z * eps
    t *= 0.5
    t *= std
    var -= 1.0
    var *= (eta / n) * 0.5
    np.add(t, var, out=g[..., d:])
    _backprop(g, enc, enc_inputs, grads[: 2 * n_enc])
    return loss


def cvae_loss_and_grads(encoder, decoder, config, y_scaled, x, eps):
    """Loss plus backprop gradients for every parameter of encoder + decoder,
    in that order: the one-job case of _stack_loss_and_grads."""
    y = np.atleast_2d(y_scaled)
    x = np.atleast_2d(x)
    d = config.latent_dim
    params = encoder + decoder
    grads = _layer_views(np.empty((1, sum(p.size for p in params))),
                         _layer_shapes(y.shape[1], x.shape[1], config))
    dec_in = np.empty((1, y.shape[0], d + x.shape[1]))
    dec_in[0, :, d:] = x
    loss = _stack_loss_and_grads(
        [p.reshape(1, -1, p.shape[-1]) for p in params], grads, len(encoder) // 2,
        config.eta, np.hstack([y, x])[None], np.atleast_2d(eps)[None], dec_in,
    )
    return float(loss[0]), [g[0].reshape(p.shape) for g, p in zip(grads, params)]


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
    encoder: list    # [w0, b0, w1, b1, ...], weights (n_out, n_in)
    decoder: list
    y_min: float
    y_max: float
    config: CvaeConfig
    test_mse: float
    restart_index: int = 0
    epoch_losses: list = field(default_factory=list)
    restart_mses: list = field(default_factory=list)
    restart_epochs: list = field(default_factory=list)

    def unscale(self, s):
        return self.y_min + s * (self.y_max - self.y_min)


def _train_once(y_train, x_train, y_test, x_test, config, seed):
    """One restart; returns (encoder, decoder, test_mse, epoch_losses, error),
    with error a string and no nets when the loss degenerates. It is the
    one-job case of _train_stack."""
    return _train_stack([(y_train, x_train, y_test, x_test, config, seed)])[0]


def _train_stack(jobs):
    """_train_once for each (y_train, x_train, y_test, x_test, config, seed)
    job, trained together; results in job order.

    The jobs share array shapes and every config field but seed. The K jobs'
    parameters are the rows of one (K, P) buffer, so each batch step is one
    _stack_loss_and_grads and one Adam update for all of them (elementwise
    Adam gives the same bits as per-array updates). Each job keeps its own
    Generator: one permutation per epoch, one standard_normal per batch, and
    its test-MSE draw right after its own last epoch. A job that stops, by
    patience or by a non-finite loss, leaves the stack at the end of that
    epoch.
    """
    if not jobs:
        return []
    config = jobs[0][4]
    n, n_features = jobs[0][0].shape
    n_cond = jobs[0][1].shape[1]
    d, n_enc = config.latent_dim, len(config.hidden) + 1
    shapes = _layer_shapes(n_features, n_cond, config)
    rngs = [np.random.default_rng(job[5]) for job in jobs]
    flat = np.stack([
        np.concatenate([p.ravel() for net in _init_params(n_features, n_cond, config, rng)
                        for p in net])
        for rng in rngs
    ])
    state = adam_init([flat])
    data = np.stack([np.hstack([job[0], job[1]]) for job in jobs])

    results = [None] * len(jobs)
    losses = [[] for _ in jobs]
    best = [np.inf] * len(jobs)
    stale = [0] * len(jobs)
    live = list(range(len(jobs)))  # job index of each stack row
    grad = np.empty_like(flat)
    params, grads = _layer_views(flat, shapes), _layer_views(grad, shapes)
    for _ in range(config.max_epochs):
        orders = np.stack([rngs[j].permutation(n) for j in live])
        totals = np.zeros(len(live))
        for start in range(0, n, config.batch_size):
            idx = orders[:, start : start + config.batch_size]
            enc_in = data[np.arange(len(live))[:, None], idx]
            eps = np.empty((len(live), idx.shape[1], d))
            for r, j in enumerate(live):
                rngs[j].standard_normal(out=eps[r])
            dec_in = np.empty((len(live), idx.shape[1], d + n_cond))
            dec_in[..., d:] = enc_in[..., n_features:]
            loss = _stack_loss_and_grads(params, grads, n_enc, config.eta, enc_in, eps, dec_in)
            adam_step([flat], [grad], state, config.learning_rate)
            totals += loss * idx.shape[1]
        keep = []
        for r, (j, epoch_loss) in enumerate(zip(live, (totals / n).tolist())):
            if not np.isfinite(epoch_loss):
                results[j] = (None, None, np.inf, losses[j], "non-finite training loss")
                continue
            losses[j].append(epoch_loss)
            if epoch_loss < best[j]:
                best[j], stale[j] = epoch_loss, 0
            else:
                stale[j] += 1
                if stale[j] >= config.patience:
                    results[j] = _finished(flat[r], shapes, jobs[j], rngs[j], losses[j])
                    continue
            keep.append(r)
        if len(keep) < len(live):
            if not keep:
                return results
            live = [live[r] for r in keep]
            flat, data = flat[keep], data[keep]
            state.m, state.v = [state.m[0][keep]], [state.v[0][keep]]
            grad = np.empty_like(flat)
            params, grads = _layer_views(flat, shapes), _layer_views(grad, shapes)
    for r, j in enumerate(live):
        results[j] = _finished(flat[r], shapes, jobs[j], rngs[j], losses[j])
    return results


def _finished(row, shapes, job, rng, losses):
    """Result tuple of a job that stopped with row, its row of the stack; the
    encoder and decoder are 2-d views of one copy of row."""
    _, _, y_test, x_test, config, _ = job
    views = _layer_views(row.copy()[None], shapes)
    params = [v[0, 0] if i % 2 else v[0] for i, v in enumerate(views)]
    encoder, decoder = _split(params, config)
    eps = rng.standard_normal((y_test.shape[0], config.latent_dim))
    _, mse, _ = cvae_loss(encoder, decoder, config, y_test, x_test, eps)
    if not np.isfinite(mse):
        return None, None, np.inf, losses, "non-finite test MSE"
    return encoder, decoder, mse, losses, None


def _scaled_split(y, x, partition):
    """Scale y by its train-period min/max; returns (y_min, y_max,
    (y_train, x_train, y_test, x_test))."""
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    if y.ndim != 2 or x.ndim != 2 or y.shape[0] != x.shape[0]:
        raise TrainingError("profiles and conditionals must be matching 2-d arrays")
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
    lower index) is returned with all restart MSEs attached. This is the
    one-problem case of train_cvaes.
    """
    (model,) = train_cvaes([(y, x, config or CvaeConfig())], partition)
    if isinstance(model, TrainingError):
        raise model
    return model


def train_cvaes(problems, partition):
    """train_cvae for each (y, x, config) problem, with one set of restarts.

    The restarts of all problems are jobs of one _run_jobs call, so restarts
    of different problems share stacks and CPUs. The problems must agree in
    array shapes and in every config field but seed. Returns one entry per
    problem, in order: its TrainedCvae, or the TrainingError that stopped it
    (mismatched arrays, constant training data, every restart failed).
    """
    splits, jobs = [], []
    for y, x, config in problems:
        try:
            y_min, y_max, split = _scaled_split(y, x, partition)
        except TrainingError as exc:
            splits.append(exc)
            continue
        splits.append((y_min, y_max, len(jobs)))
        jobs.extend((*split, config, config.seed + j) for j in range(config.restarts))
    keys = [(job[0].shape, job[1].shape, replace(job[4], seed=0)) for job in jobs]
    if any(key != keys[0] for key in keys):
        raise TrainingError(
            "problems trained together must share array shapes and every config field but seed"
        )
    results = _run_jobs(jobs)
    models = []
    for split, (_, _, config) in zip(splits, problems):
        if isinstance(split, TrainingError):
            models.append(split)
            continue
        y_min, y_max, start = split
        try:
            models.append(select_best(results[start : start + config.restarts],
                                      y_min, y_max, config))
        except TrainingError as exc:
            models.append(exc)
    return models


def _run_jobs(jobs):
    """_train_once(*job) for each job tuple; results in job order.

    The jobs split into one contiguous stack per parallel worker, each
    trained by one _train_stack call; in-process, they train as one stack.
    A job's bits depend only on its own arguments, so every split gives the
    same results.
    """
    stacks = max(parallel.worker_count(len(jobs)), 1)
    bounds = [len(jobs) * i // stacks for i in range(stacks + 1)]
    stacked = [jobs[a:b] for a, b in zip(bounds, bounds[1:])]
    return [r for stack in parallel.map_forked(_train_stack, stacked) for r in stack]


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


def generate(model, x, n_samples, seed):
    """Sample n_samples profiles (kWh) for one conditional vector x, with
    latents drawn from N(0, I)."""
    x = np.asarray(x, dtype=float).reshape(1, -1)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n_samples, model.config.latent_dim))
    scaled = _forward(model.decoder, np.hstack([z, np.repeat(x, n_samples, axis=0)]), _sigmoid)
    return model.unscale(scaled)


def _acts(n_layers, head):
    return ["relu"] * (n_layers - 1) + [head]


def save_model(model, path):
    """Serialize weights plus a header with config, bounds, a config hash and
    each layer's activation."""
    meta = {
        "config": asdict(model.config),
        "digest": model.config.digest(),
        "y_min": model.y_min,
        "y_max": model.y_max,
        "test_mse": model.test_mse,
        "restart_index": model.restart_index,
        "enc_acts": _acts(len(model.encoder) // 2, "linear"),
        "dec_acts": _acts(len(model.decoder) // 2, "sigmoid"),
    }
    arrays = {}
    for tag, params in (("enc", model.encoder), ("dec", model.decoder)):
        for i in range(len(params) // 2):
            arrays[f"{tag}_w{i}"], arrays[f"{tag}_b{i}"] = params[2 * i : 2 * i + 2]
    with replacing(path, "wb") as fh:
        np.savez(fh, meta=np.array(json.dumps(meta)), **arrays)


META_KEYS = ("config", "digest", "y_min", "y_max", "test_mse", "restart_index",
             "enc_acts", "dec_acts")


def load_model(path):
    """Inverse of save_model. TrainingError, naming path, for a meta that is
    not JSON holding META_KEYS, a config hash mismatch, activations other than
    the config's ReLU layers ending linear (encoder) and sigmoid (decoder), a
    missing layer array, or layer shapes that do not chain from features +
    conditionals through 2 * latent_dim back to features."""
    with np.load(path, allow_pickle=False) as z:
        files = {key: z[key] for key in z.files}
    rerun = "rerun `drsim train --force`"
    try:
        meta = json.loads(str(files["meta"]))
        _, digest, y_min, y_max, test_mse, restart_index, enc_acts, dec_acts = (
            meta[key] for key in META_KEYS)
        config = CvaeConfig(**dict(meta["config"], hidden=tuple(meta["config"]["hidden"])))
    except (ValueError, KeyError, TypeError):
        raise TrainingError(
            f"{path}: meta is not JSON holding {', '.join(META_KEYS)}; {rerun}") from None
    if config.digest() != digest:
        raise TrainingError(f"{path}: model file config hash mismatch; {rerun}")
    acts = [_acts(len(config.hidden) + 1, head) for head in ("linear", "sigmoid")]
    if [enc_acts, dec_acts] != acts:
        raise TrainingError(f"{path}: enc_acts/dec_acts are {enc_acts}/{dec_acts}, "
                            f"expected {acts[0]}/{acts[1]}; {rerun}")
    keys = [f"{tag}_{kind}{i}" for tag in ("enc", "dec")
            for i in range(len(config.hidden) + 1) for kind in "wb"]
    for key in keys:
        if key not in files:
            raise TrainingError(f"{path}: layer array {key} is missing; {rerun}")
    enc_in, dec_in = (files[key].shape[1] if files[key].ndim == 2 else 0
                      for key in ("enc_w0", "dec_w0"))
    n_cond = max(dec_in - config.latent_dim, 0)
    shapes = [shape for n_out, n_in in _layer_shapes(enc_in - n_cond, n_cond, config)
              for shape in ((n_out, n_in), (n_out,))]
    check_shapes(path, files, dict(zip(keys, shapes)), TrainingError, "train")
    encoder, decoder = _split([files[key] for key in keys], config)
    return TrainedCvae(
        encoder=encoder,
        decoder=decoder,
        y_min=y_min,
        y_max=y_max,
        config=config,
        test_mse=test_mse,
        restart_index=restart_index,
    )
