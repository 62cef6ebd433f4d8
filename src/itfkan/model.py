"""Full forecasting model: decompose, lift each part, three KAN branches, head.

All variates share every weight (channel independence): the model maps a
batch of univariate lookback windows (N, L) to forecasts (N, F). The trend
and seasonal branches run two-layer KANs along the time axis; the
time-frequency branch patches the seasonal component, learns per-patch
frequency mixes, and unpatches. From the decomposition to the unpatch map
each series array is channel-first, row-major (N, d, L), so every
time-axis op reads its rows as they lie. The three branch outputs are
summed and mapped d -> 1 by the unpatch map's op, then L -> F.

Both forwards split the (N, L) windows into trend and seasonal parts
first and then lift each part on its own (see ``decomposition``), so the
(N, L, d) embedding never exists. An untaped forward (eval, validation,
report calibration) holds at most two (N, d, L) arrays at once: it lifts
the trend and the seasonal part one at a time, and each time-axis KAN
writes its output over its own input. The taped forward holds both lifted
parts, since the tape's rules read them in backward.
"""

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .decomposition import Embedding, moving_average_decompose, validate_kernel
from .optim import Adam
from .taylorkan import build_seasonal_kan, build_trend_kan, reg_loss
from .tensor import (
    Tensor,
    abs_,
    backward,
    harmonic_base,
    is_recording,
    matmul,
    no_grad,
    reshape,
    unpatch,
)
from .tfsynergy import (
    PatchCompressor,
    PatchKans,
    Unpatcher,
    n_freq_bins,
    patch_count,
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
        # fields(ModelConfig), not fields(self): a subclass checks its own.
        # The bounds read "not value > 0" so that NaN fails them too.
        for f in fields(ModelConfig):
            value = getattr(self, f.name)
            if f.type is float and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
            if f.name in ("reg_lambda", "patience"):
                if not value >= 0:
                    raise ValueError(f"{f.name} must be >= 0, got {value}")
            elif not value > 0:
                raise ValueError(f"{f.name} must be positive, got {value}")
        # the layers' own bounds, checked when the config is read
        validate_kernel(self.lookback, self.kernel)
        patch_count(self.lookback, self.patch_len, self.stride)
        for key, need in (("top_k", 2 * self.top_k), ("trend_degree", self.trend_degree + 1)):
            if need > self.lookback:
                raise ValueError(f"{key} {getattr(self, key)} needs lookback >= {need}")


def parse_fields(cls, raw, origin):
    """Dataclass ``cls`` from ``raw``'s key -> text: int and float fields
    parsed by type, other fields kept as text, other keys ignored. A value
    that does not parse or that ``cls`` rejects raises ValueError naming
    ``origin``."""
    kwargs = {}
    for f in fields(cls):
        if f.name not in raw:
            continue
        value = raw[f.name]
        try:
            kwargs[f.name] = f.type(value) if f.type in (int, float) else value
        except ValueError:
            raise ValueError(f"{origin}: key {f.name!r}: cannot parse {value!r}") from None
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ValueError(f"{origin}: {exc}") from None


def _check_frequencies(frequencies, top_k):
    """ValueError unless ``frequencies`` are ``top_k`` harmonics of one base."""
    if len(frequencies) != top_k:
        raise ValueError(f"expected {top_k} frequencies, got {len(frequencies)}")
    harmonic_base(frequencies)


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
        _check_frequencies(frequencies, config.top_k)
        self.config = config
        self.frequencies = np.asarray(frequencies, dtype=np.float64)
        rng = np.random.default_rng(seed)
        length, d = config.lookback, config.embed_dim

        self.embed = Embedding(d, rng)
        self.trend_kan = build_trend_kan(length, config.trend_degree, rng)
        self.seasonal_kan = build_seasonal_kan(length, self.frequencies, rng)
        self.n_patches = patch_count(length, config.patch_len, config.stride)
        self.k_bins = n_freq_bins(self.n_patches)
        self.patcher = PatchCompressor(config.patch_len, config.stride, d, rng)
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
        """(N, L) standardized windows -> (N, F) forecasts.

        The windows' split records no tape node. Each part's lift is one
        node, and so is each time-axis KAN with both its layers (its prior
        is another), which never holds its hidden layer's output whole. The
        branches run trend, then the time-frequency branch's patcher and
        per-patch KANs, then seasonal; the sum is (trend + seasonal) + tf.
        The unpatch map adds its bias and then the running sum into its own
        GEMM output, so the forward's tail allocates one (N, d, L) array,
        not one per op of its chain. The head maps that array d -> 1 with
        the same op (``tensor.unpatch``), then L -> F. The tape gets the
        same nodes and parents in any run order, and backward's rule order
        follows the parents alone.

        Untaped, no more than two (N, d, L) arrays are held at once: the
        trend KAN writes over the lifted trend; the seasonal part is then
        lifted, read by the patcher, and written over by its KAN, whose
        output is added into the trend branch's array; the unpatch map's
        output is the second array. Taped, both lifted parts stay held: the
        KANs' and priors' rules read them in backward.
        """
        cfg = self.config
        n, length = x.shape
        if length != cfg.lookback:
            raise ValueError(f"expected lookback {cfg.lookback}, got {length}")
        taped = is_recording()
        trend, seasonal = moving_average_decompose(x, cfg.kernel)  # (N, L) each
        h = self.trend_kan.forward(self.embed(trend), tag="trend", consume=not taped)
        seasonal = self.embed(seasonal, bias=False)
        tf = self.tf_kans(self.patcher(seasonal))  # (N, P, d)
        h_seasonal = self.seasonal_kan.forward(seasonal, tag="seasonal", consume=not taped)
        del seasonal
        if taped:
            h = h + h_seasonal
        else:
            h.data += h_seasonal.data  # add's bits, in the trend branch's own array
        del h_seasonal
        collapsed = reshape(unpatch(self.unpatcher(tf, h), self.head_w1, self.head_b1), (n, length))
        return matmul(collapsed, self.head_w2) + self.head_b2

    def reg_losses(self):
        """One regulariser node per network: trend, seasonal, tf."""
        return tuple(
            reg_loss([layer for _, layer in pairs]) for pairs in self._networks().values()
        )

    def kan_layers(self):
        """((tag, layer index), layer) for every KAN layer, in parameter
        order: the tags are "trend", "seasonal" and "tf.p{p}", whose one
        layer has index 0. The parameter names, the regularisers, pruning,
        calibration and the report all walk this list."""
        pairs = [(("trend", li), layer) for li, layer in enumerate(self.trend_kan.layers)]
        pairs += [(("seasonal", li), layer) for li, layer in enumerate(self.seasonal_kan.layers)]
        pairs += [((f"tf.p{p}", 0), layer) for p, layer in enumerate(self.tf_kans.layers)]
        return pairs

    def _networks(self):
        """``kan_layers`` grouped by network, in its order: "trend",
        "seasonal" and "tf" -> that network's (key, layer) pairs."""
        nets = {}
        for key, layer in self.kan_layers():
            nets.setdefault(key[0].split(".")[0], []).append((key, layer))
        return nets

    def parameters(self):
        """(name, tensor) pairs in checkpoint order: embed, trend, seasonal,
        patch, tf, unpatch, head. A KAN layer's tensors are named
        ``{tag}.l{layer index}.*`` after its ``kan_layers`` key."""
        kan = {
            net: [p for (tag, li), layer in pairs for p in layer.parameters(f"{tag}.l{li}")]
            for net, pairs in self._networks().items()
        }
        params = self.embed.parameters() + kan["trend"] + kan["seasonal"]
        params += self.patcher.parameters("patch")
        params += kan["tf"]
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
        # defaults never fill a key: a checkpoint carries every field
        for f in fields(ModelConfig):
            if f.name not in raw_config:
                raise CheckpointError(f"{path}: checkpoint missing config key {f.name}")
        try:
            config = parse_fields(ModelConfig, raw_config, path)
        except ValueError as exc:
            raise CheckpointError(str(exc)) from None
        if "frequencies" not in tensors:
            raise CheckpointError(f"{path}: checkpoint missing tensor frequencies")
        try:
            _check_frequencies(tensors["frequencies"], config.top_k)
        except ValueError as exc:
            raise CheckpointError(f"{path}: tensor frequencies: {exc}") from exc
        model = cls(config, tensors["frequencies"], seed=0)
        for name, t in model.parameters():
            if name not in tensors:
                raise CheckpointError(f"{path}: checkpoint missing tensor {name}")
            if tensors[name].shape != t.data.shape:
                raise CheckpointError(
                    f"{path}: tensor {name}: checkpoint shape {tensors[name].shape} "
                    f"!= model shape {t.data.shape}"
                )
            finite = np.isfinite(tensors[name])
            if not finite.all():
                index = tuple(int(i) for i in np.unravel_index(np.argmin(finite), finite.shape))
                value = tensors[name][index]
                raise CheckpointError(
                    f"{path}: tensor {name}: non-finite value {value} at index {index}"
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
    Each batch builds a fresh graph, and ``backward`` consumes it: each
    rule's arrays go as soon as the rule has run, and after the call only
    the parameters hold gradients, which ``Adam.step`` clears. What is left
    of the graph (its nodes, the forecast and the batch's input and target)
    is dropped before the next batch's forward. The best-validation
    parameter snapshot is restored before returning.
    """
    for name, inputs in (("training", train_inputs), ("validation", val_inputs)):
        if len(inputs) == 0:
            raise ValueError(f"empty {name} set")
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
            del pred, loss  # the consumed graph's nodes and the batch's leaves
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
