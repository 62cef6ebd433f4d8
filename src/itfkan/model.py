"""Full forecasting model: embed, decompose, three KAN branches, head.

All variates share every weight (channel independence): the model maps a
batch of univariate lookback windows (N, L) to forecasts (N, F). The trend
and seasonal branches run two-layer KANs along the time axis; the
time-frequency branch patches the seasonal component, learns per-patch
frequency mixes, and unpatches. The three (N, L, d) representations are
summed and projected d -> 1 then L -> F.
"""

from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .decomposition import Embedding, moving_average_decompose
from .optim import Adam
from .taylorkan import build_seasonal_kan, build_trend_kan
from .tensor import Tensor, abs_, backward, matmul, no_grad, permute, reshape
from .tfsynergy import (
    PatchCompressor,
    PatchConfig,
    PatchKans,
    Unpatcher,
    n_freq_bins,
    patch_count,
    spectrum_grid,
)

TASKS = ("long", "short")


@dataclass
class ModelConfig:
    lookback: int
    horizon: int
    embed_dim: int = 32
    kernel: int = 25
    trend_degree: int = 3
    top_k: int = 5
    patch_len: int = 6
    stride: int = 6
    reg_lambda: float = 0.01
    lr: float = 5e-4
    batch_size: int = 64
    epochs: int = 10
    patience: int = 3

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in ("reg_lambda", "patience"):
                if value < 0:
                    raise ValueError(f"{f.name} must be >= 0, got {value}")
            elif value <= 0:
                raise ValueError(f"{f.name} must be positive, got {value}")
        if self.kernel % 2 == 0:
            raise ValueError("kernel must be odd")


class LossBreakdown(NamedTuple):
    pred: float
    reg_trend: float
    reg_seasonal: float
    reg_tf: float
    total: float


class EpochStats(NamedTuple):
    epoch: int
    train_pred: float
    val_pred: float
    reg: float
    total: float


class NonFiniteError(FloatingPointError):
    """Training produced a non-finite loss or gradient."""


class ForecastModel:
    def __init__(self, config, frequencies, seed=0):
        if len(frequencies) != config.top_k:
            raise ValueError(
                f"expected {config.top_k} frequencies, got {len(frequencies)}"
            )
        self.config = config
        self.frequencies = np.asarray(frequencies, dtype=np.float64)
        rng = np.random.default_rng(seed)
        length, d = config.lookback, config.embed_dim

        self.embed = Embedding(d, rng)
        self.trend_kan = build_trend_kan(length, config.trend_degree, rng)
        self.seasonal_kan = build_seasonal_kan(length, self.frequencies, rng)
        patch_cfg = PatchConfig(config.patch_len, config.stride)
        self.n_patches = patch_count(length, patch_cfg)
        self.k_bins = n_freq_bins(self.n_patches)
        self.patcher = PatchCompressor(patch_cfg, d, rng)
        self.tf_kans = PatchKans(self.n_patches, self.k_bins, rng)
        self.unpatcher = Unpatcher(self.n_patches, length, rng)

        self.head_w1 = Tensor(
            rng.uniform(-1 / np.sqrt(d), 1 / np.sqrt(d), (d, 1)), requires_grad=True
        )
        self.head_b1 = Tensor(np.zeros(1), requires_grad=True)
        scale = 1.0 / np.sqrt(length)
        self.head_w2 = Tensor(
            rng.uniform(-scale, scale, (length, config.horizon)), requires_grad=True
        )
        self.head_b2 = Tensor(np.zeros(config.horizon), requires_grad=True)

    def forward(self, x):
        """(N, L) standardized windows -> (N, F) forecasts."""
        cfg = self.config
        n, length = x.shape
        if length != cfg.lookback:
            raise ValueError(f"expected lookback {cfg.lookback}, got {length}")
        trend, seasonal, _ = moving_average_decompose(self.embed(x), cfg.kernel)
        # the time-frequency branch runs first so that, without a tape, its
        # large grid is freed before the time-axis KANs allocate theirs
        grid = spectrum_grid(self.patcher(seasonal))
        h_tf = self.unpatcher(self.tf_kans(grid))
        del grid
        h_trend = self._along_time(self.trend_kan, trend, "trend")
        h_seasonal = self._along_time(self.seasonal_kan, seasonal, "seasonal")
        h = h_trend + h_seasonal + h_tf
        collapsed = reshape(matmul(h, self.head_w1) + self.head_b1, (n, length))
        return matmul(collapsed, self.head_w2) + self.head_b2

    @staticmethod
    def _along_time(net, x, tag):
        out = net.forward(permute(x, (0, 2, 1)), tag=tag)
        return permute(out, (0, 2, 1))

    def reg_losses(self):
        return (
            self.trend_kan.reg_loss(),
            self.seasonal_kan.reg_loss(),
            self.tf_kans.reg_loss(),
        )

    def kan_layers(self):
        """((tag, layer index), layer) for every KAN layer, in parameter
        order: the tags are "trend", "seasonal" and "tf.p{p}", whose one
        layer has index 0. Pruning, calibration and the report walk this
        list."""
        pairs = [(("trend", li), layer) for li, layer in enumerate(self.trend_kan.layers)]
        pairs += [(("seasonal", li), layer) for li, layer in enumerate(self.seasonal_kan.layers)]
        pairs += [((f"tf.p{p}", 0), layer) for p, layer in enumerate(self.tf_kans.layers)]
        return pairs

    def parameters(self):
        params = self.embed.parameters()
        params += self.trend_kan.parameters("trend")
        params += self.seasonal_kan.parameters("seasonal")
        params += self.patcher.parameters("patch")
        params += self.tf_kans.parameters("tf")
        params += self.unpatcher.parameters("unpatch")
        params += [
            ("head.w1", self.head_w1),
            ("head.b1", self.head_b1),
            ("head.w2", self.head_w2),
            ("head.b2", self.head_b2),
        ]
        return params

    # --- persistence ---------------------------------------------------------

    def config_items(self):
        return [(f.name, repr(getattr(self.config, f.name))) for f in fields(ModelConfig)]

    def save(self, path, extra_config=()):
        config = self.config_items() + list(extra_config)
        tensors = [("frequencies", self.frequencies)]
        tensors += [(name, t.data) for name, t in self.parameters()]
        save_checkpoint(path, config, tensors)

    @classmethod
    def load(cls, path):
        raw_config, tensors = load_checkpoint(path)
        kwargs = {}
        for f in fields(ModelConfig):
            if f.name not in raw_config:
                raise CheckpointError(f"{path}: checkpoint missing config key {f.name}")
            caster = float if f.type in (float, "float") else int
            kwargs[f.name] = caster(raw_config[f.name])
        config = ModelConfig(**kwargs)
        if "frequencies" not in tensors:
            raise CheckpointError(f"{path}: checkpoint missing tensor frequencies")
        model = cls(config, tensors["frequencies"], seed=0)
        for name, t in model.parameters():
            if name not in tensors:
                raise CheckpointError(f"{path}: checkpoint missing tensor {name}")
            if tensors[name].shape != t.data.shape:
                raise CheckpointError(
                    f"{path}: tensor {name}: checkpoint shape {tensors[name].shape} "
                    f"!= model shape {t.data.shape}"
                )
            t.data[...] = tensors[name]
        return model, raw_config


def prediction_loss(pred, target, task):
    """MSE for long-horizon training, sMAPE for short-horizon training."""
    if task == "long":
        diff = pred - target
        return (diff * diff).mean()
    if task == "short":
        num = abs_(pred - target)
        den = abs_(pred) + abs_(target)
        nonzero = (den.data > 0).astype(np.float64)
        # 0/0 terms contribute exactly 0; the +1 only guards masked slots
        safe_den = den + Tensor(1.0 - nonzero)
        return (num * Tensor(nonzero) / safe_den).mean() * 200.0
    raise ValueError(f"unknown task {task!r}; expected one of {TASKS}")


def total_loss(pred, target, model, reg_lambda, task):
    if pred.shape != target.shape:
        raise ValueError(f"prediction {pred.shape} vs target {target.shape}")
    pred_term = prediction_loss(pred, target, task)
    reg_trend, reg_seasonal, reg_tf = model.reg_losses()
    total = pred_term + (reg_trend + reg_seasonal + reg_tf) * reg_lambda
    breakdown = LossBreakdown(
        pred=pred_term.item(),
        reg_trend=reg_trend.item(),
        reg_seasonal=reg_seasonal.item(),
        reg_tf=reg_tf.item(),
        total=total.item(),
    )
    return total, breakdown


def _batched_pred_loss(model, inputs, targets, batch_size, task):
    total, count = 0.0, 0
    with no_grad():
        for lo in range(0, len(inputs), batch_size):
            xb = inputs[lo : lo + batch_size]
            yb = targets[lo : lo + batch_size]
            rows = xb.shape[0] * xb.shape[1]
            pred = model.forward(Tensor(xb.reshape(rows, xb.shape[2])))
            loss = prediction_loss(pred, Tensor(yb.reshape(rows, yb.shape[2])), task)
            total += loss.item() * rows
            count += rows
    return total / count


def _check_finite(params, loss, epoch, batch):
    """Raise NonFiniteError if the loss or any gradient is not finite.

    The error names the epoch, the batch and the first bad parameter: the
    first whose value is non-finite (the likely source), else the first
    whose gradient is.
    """
    bad_grad = next(
        (name for name, t in params
         if t.grad is not None and not np.isfinite(t.grad).all()),
        None,
    )
    if np.isfinite(loss) and bad_grad is None:
        return
    bad_value = next(
        (name for name, t in params if not np.isfinite(t.data).all()), None
    )
    if bad_value is not None:
        culprit = f"first non-finite parameter: {bad_value}"
    elif bad_grad is not None:
        culprit = f"first non-finite gradient: {bad_grad}"
    else:
        culprit = "all parameters and gradients finite"
    raise NonFiniteError(
        f"training diverged at epoch {epoch}, batch {batch}: loss {loss}; {culprit}"
    )


def train(model, train_inputs, train_targets, val_inputs, val_targets,
          task="long", seed=0, log=None):
    """Adam with early stopping on the validation prediction loss.

    Windows are (W, N, L) / (W, N, F); variates fold into the batch axis.
    The best-validation parameter snapshot is restored before returning.
    """
    if len(train_inputs) == 0:
        raise ValueError("empty training set")
    cfg = model.config
    params = model.parameters()
    opt = Adam([t for _, t in params], lr=cfg.lr)
    rng = np.random.default_rng([seed, 1])

    history = []
    best_val = np.inf
    best_state = None
    best_epoch = -1
    strikes = 0
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(train_inputs))
        pred_sum = reg_sum = total_sum = 0.0
        batches = 0
        for lo in range(0, len(order), cfg.batch_size):
            idx = order[lo : lo + cfg.batch_size]
            xb = train_inputs[idx]
            yb = train_targets[idx]
            rows = xb.shape[0] * xb.shape[1]
            pred = model.forward(Tensor(xb.reshape(rows, cfg.lookback)))
            loss, bd = total_loss(
                pred, Tensor(yb.reshape(rows, cfg.horizon)), model,
                cfg.reg_lambda, task,
            )
            backward(loss)
            _check_finite(params, bd.total, epoch, batches)
            opt.step()
            pred_sum += bd.pred
            reg_sum += bd.reg_trend + bd.reg_seasonal + bd.reg_tf
            total_sum += bd.total
            batches += 1
        val_pred = _batched_pred_loss(
            model, val_inputs, val_targets, cfg.batch_size, task
        )
        stats = EpochStats(
            epoch=epoch,
            train_pred=pred_sum / batches,
            val_pred=val_pred,
            reg=reg_sum / batches,
            total=total_sum / batches,
        )
        history.append(stats)
        if log is not None:
            log(stats)
        if val_pred < best_val:
            best_val = val_pred
            best_epoch = epoch
            best_state = [(name, t.data.copy()) for name, t in params]
            strikes = 0
        else:
            strikes += 1
            if strikes > cfg.patience:
                break
    if best_state is not None:
        by_name = dict(params)
        for name, data in best_state:
            by_name[name].data[...] = data
    return history, best_epoch


def evaluate_forecasts(model, inputs, targets, batch_size):
    """Forward the (W, N, L) windows; returns (W, N, F) predictions."""
    outputs = []
    with no_grad():
        for lo in range(0, len(inputs), batch_size):
            xb = inputs[lo : lo + batch_size]
            rows = xb.shape[0] * xb.shape[1]
            pred = model.forward(Tensor(xb.reshape(rows, xb.shape[2])))
            outputs.append(pred.data.reshape(xb.shape[0], xb.shape[1], -1))
    return np.concatenate(outputs, axis=0)
