"""Operator surface: train, eval, prune, report.

Each command takes only the options it reads; any other exits 2.
Configs are line-oriented ``key = value`` files with ``#`` comments.
Unknown keys are rejected; the resolved configuration is echoed at train
time and re-parses to the same values. Exit codes: 0 success, 1 runtime
failure, 2 usage or configuration error.
"""

import argparse
import os
import shutil
import sys
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .data import (
    SEASON_PERIOD,
    SPLIT_MODES,
    destandardize,
    ingest_csv,
    make_windows,
    read_stats,
    split_standardize,
    write_stats,
)
from .decomposition import moving_average_np
from .interpret import (
    format_fit_summary,
    format_graph_description,
    format_machine_report,
    format_prune_report,
    format_report_timing,
    format_symbolic_report,
    generate_report,
    prune,
)
from .metrics import mae, metric_set, mse, naive2_rows
from .model import TASKS, ForecastModel, ModelConfig, evaluate_forecasts, parse_fields, train
from .taylorkan import top_k_frequencies

DEFAULT_TAU = 5e-4
DEFAULT_TOP_M = 3
MAX_CALIBRATION_WINDOWS = 1024


class ConfigError(ValueError):
    pass


@dataclass(kw_only=True)
class RunConfig(ModelConfig):
    """A run's settings: ModelConfig's, which a checkpoint stores, then these."""
    dataset: str
    task: str = "long"
    seed: int = 0
    out: str = "out"
    split: str = "auto"
    frequency: str = "hourly"

    def __post_init__(self):
        super().__post_init__()
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not self.out:
            raise ValueError("out must name a directory, got an empty value")
        choices = {"task": TASKS, "split": SPLIT_MODES, "frequency": tuple(SEASON_PERIOD)}
        for name, allowed in choices.items():
            value = getattr(self, name)
            if value not in allowed:
                raise ValueError(f"{name} must be one of {', '.join(allowed)}, got {value!r}")

    def model_config(self):
        return ModelConfig(**{f.name: getattr(self, f.name) for f in fields(ModelConfig)})

    def as_lines(self):
        out = []
        for f in fields(self):
            value = getattr(self, f.name)
            rendered = repr(value) if isinstance(value, float) else str(value)
            out.append(f"{f.name} = {rendered}")
        return "\n".join(out) + "\n"


def parse_config_text(text, origin="<config>"):
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{origin}:{lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key in raw:
            raise ConfigError(f"{origin}:{lineno}: duplicate key {key!r}")
        raw[key] = value
    return raw


def resolve_config(raw, origin="<config>", **overrides):
    for key, value in overrides.items():
        if value is not None:
            raw[key] = str(value)
    known = fields(RunConfig)
    unknown = sorted(set(raw) - {f.name for f in known})
    if unknown:
        raise ConfigError(f"{origin}: unknown keys: {', '.join(unknown)}")
    missing = [f.name for f in known if f.default is MISSING and f.name not in raw]
    if missing:
        raise ConfigError(f"{origin}: missing required keys: {', '.join(missing)}")
    try:
        return parse_fields(RunConfig, raw, origin)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def load_config(path, **overrides):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return resolve_config(parse_config_text(text, origin=path), origin=path, **overrides)


def load_run_config(path, **overrides):
    """A command's config: ``load_config``, and its dataset must be a file,
    checked before train creates its output directory."""
    cfg = load_config(path, **overrides)
    if not os.path.isfile(cfg.dataset):
        raise ConfigError(f"{path}: dataset {cfg.dataset!r} is not a file")
    return cfg


# --- shared pipeline pieces ------------------------------------------------------

def _load_splits(cfg, stats_path=None):
    """The dataset and its standardized splits. With ``stats_path``, a
    checkpoint's ``.stats`` sidecar, every split is z-scored with the
    statistics the checkpoint was trained on, not the CSV's own."""
    ds = ingest_csv(cfg.dataset, frequency=cfg.frequency)
    stats = None
    if stats_path is not None:
        try:
            names, mean, std = read_stats(stats_path)
        except FileNotFoundError:
            raise ConfigError(f"checkpoint stats not found: {stats_path}") from None
        if names != ds.variate_names:
            raise ConfigError(
                f"checkpoint stats {stats_path} list variates {names}, config "
                f"dataset has columns {ds.variate_names}"
            )
        stats = (mean, std)
    split = split_standardize(ds, mode=cfg.split, stats=stats)
    min_rows = cfg.lookback + cfg.horizon
    for name, part in (("train", split.train), ("val", split.val), ("test", split.test)):
        if len(part) < min_rows:
            raise ConfigError(
                f"{name} split has {len(part)} rows; lookback+horizon needs {min_rows}"
            )
    return ds, split


def _window_splits(cfg, split):
    return {
        name: make_windows(part, cfg.lookback, cfg.horizon)
        for name, part in (("train", split.train), ("val", split.val), ("test", split.test))
    }


def _extract_frequencies(cfg, train_inputs):
    seasonal = train_inputs - moving_average_np(train_inputs, cfg.kernel)
    return top_k_frequencies(seasonal, cfg.top_k)


def _test_metrics(model, cfg, ds, split, windows):
    test_x, test_y = windows["test"]
    preds = evaluate_forecasts(model, test_x, test_y, cfg.batch_size)
    rows = preds.reshape(-1, cfg.horizon)
    target_rows = test_y.reshape(-1, cfg.horizon)
    hist_rows = test_x.reshape(-1, cfg.lookback)
    # percentage/scaled metrics read better on the original scale
    std_rows = np.tile(split.std, len(test_x))[:, None]
    mean_rows = np.tile(split.mean, len(test_x))[:, None]
    rows_raw = destandardize(rows, mean_rows, std_rows)
    target_raw = destandardize(target_rows, mean_rows, std_rows)
    hist_raw = destandardize(hist_rows, mean_rows, std_rows)
    m = ds.season_period
    if cfg.lookback <= m:
        m = 1  # seasonal-naive scale needs history longer than the period
    naive_ref = naive2_rows(hist_raw, cfg.horizon, m)
    scaled = metric_set(rows_raw, target_raw, hist_raw, m, naive2_ref=naive_ref)
    return {
        "mse": mse(rows, target_rows),
        "mae": mae(rows, target_rows),
        "smape": scaled.smape,
        "mase": scaled.mase,
        "owa": scaled.owa,
    }


def _format_metrics(values):
    return "".join(f"{k}={v:.6f}\n" for k, v in values.items())


def _write(path, text, created=None):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    if created is not None:
        created.append(path)


# --- commands -----------------------------------------------------------------------

def cmd_train(args):
    cfg = load_run_config(args.config, seed=args.seed, out=args.out)
    os.makedirs(cfg.out, exist_ok=True)
    created = []
    try:
        resolved = cfg.as_lines()
        sys.stdout.write(resolved)
        _write(os.path.join(cfg.out, "resolved_config.txt"), resolved, created)

        ds, split = _load_splits(cfg)
        windows = _window_splits(cfg, split)
        train_x, train_y = windows["train"]
        val_x, val_y = windows["val"]
        freqs = _extract_frequencies(cfg, train_x)
        model = ForecastModel(cfg.model_config(), freqs, seed=cfg.seed)

        history, best_epoch = train(
            model, train_x, train_y, val_x, val_y,
            task=cfg.task, seed=cfg.seed,
            log=lambda s: print(
                f"epoch {s.epoch}: train_pred={s.train_pred:.6f} "
                f"val_pred={s.val_pred:.6f}"
            ),
        )

        history_lines = ["# epoch\ttrain_pred\tval_pred\treg\ttotal"]
        for s in history:
            history_lines.append(
                f"{s.epoch}\t{s.train_pred!r}\t{s.val_pred!r}\t{s.reg!r}\t{s.total!r}"
            )
        _write(os.path.join(cfg.out, "history.tsv"), "\n".join(history_lines) + "\n", created)

        ckpt_path = os.path.join(cfg.out, "checkpoint.itfk")
        model.save(
            ckpt_path,
            extra_config=[
                ("task", cfg.task),
                ("dataset_name", ds.name),
                ("frequency", cfg.frequency),
                ("n_variates", str(ds.values.shape[1])),
                ("best_epoch", str(best_epoch)),
            ],
        )
        created.append(ckpt_path)
        write_stats(ckpt_path + ".stats", ds.variate_names, split.mean, split.std)
        created.append(ckpt_path + ".stats")

        values = _test_metrics(model, cfg, ds, split, windows)
        text = _format_metrics(values)
        _write(os.path.join(cfg.out, "metrics.txt"), text, created)
        sys.stdout.write(text)
        return 0
    except Exception:
        for path in created:
            try:
                os.remove(path)
            except OSError:
                pass
        raise


def _load_checkpoint_model(path):
    try:
        return ForecastModel.load(path)
    except FileNotFoundError:
        raise ConfigError(f"checkpoint not found: {path}") from None


def _open_checkpoint(cfg, path):
    """(model, dataset, splits) for a command that runs a checkpoint on the
    config's dataset: the config's lookback and horizon must be the
    checkpoint's, and every split is z-scored with the checkpoint's
    ``.stats`` sidecar, the statistics it was trained on."""
    model, _ = _load_checkpoint_model(path)
    for field_name in ("lookback", "horizon"):
        expected = getattr(model.config, field_name)
        if getattr(cfg, field_name) != expected:
            raise ConfigError(
                f"config {field_name}={getattr(cfg, field_name)} does not match "
                f"checkpoint {field_name}={expected}"
            )
    ds, split = _load_splits(cfg, path + ".stats")
    return model, ds, split


def cmd_eval(args):
    cfg = load_run_config(args.config)
    model, ds, split = _open_checkpoint(cfg, args.checkpoint)
    windows = _window_splits(cfg, split)
    values = _test_metrics(model, cfg, ds, split, windows)
    sys.stdout.write(_format_metrics(values))
    return 0


def cmd_prune(args):
    if not args.tau >= 0:  # NaN fails too
        raise ConfigError("--tau must be >= 0")
    model, _ = _load_checkpoint_model(args.checkpoint)
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    rows = prune(model, args.tau)
    _write(os.path.join(out, "prune_report.txt"), format_prune_report(rows))
    pruned_path = os.path.join(out, "checkpoint_pruned.itfk")
    model.save(pruned_path, extra_config=[("pruned_tau", repr(args.tau))])
    # eval de-standardizes with the training statistics the source carries
    if os.path.exists(args.checkpoint + ".stats"):
        shutil.copyfile(args.checkpoint + ".stats", pruned_path + ".stats")
    sys.stdout.write(format_prune_report(rows))
    return 0


def _calibration_windows(cfg, split):
    inputs, _ = make_windows(split.train, cfg.lookback, cfg.horizon)
    if len(inputs) > MAX_CALIBRATION_WINDOWS:
        step = -(-len(inputs) // MAX_CALIBRATION_WINDOWS)
        inputs = inputs[::step]
    return inputs


def cmd_report(args):
    if not args.tau >= 0:  # NaN fails too
        raise ConfigError("--tau must be >= 0")
    if args.top_m < 0:
        raise ConfigError("--top-m must be >= 0")
    cfg = load_run_config(args.config)
    model, _, split = _open_checkpoint(cfg, args.checkpoint)
    calib = _calibration_windows(cfg, split)
    out = args.out or cfg.out
    os.makedirs(out, exist_ok=True)
    timing = {}
    prune_rows, records = generate_report(
        model, args.tau, args.top_m, calib, timing=timing
    )
    _write(os.path.join(out, "prune_report.txt"), format_prune_report(prune_rows))
    _write(
        os.path.join(out, "symbolic_report.txt"),
        format_symbolic_report(records, args.top_m),
    )
    _write(os.path.join(out, "symbolic_edges.tsv"), format_machine_report(records))
    _write(os.path.join(out, "graph.tsv"), format_graph_description(records))
    _write(os.path.join(out, "fit_summary.tsv"), format_fit_summary(records))
    _write(os.path.join(out, "report_timing.tsv"), format_report_timing(timing))
    preserved = sum(r.preserved for r in prune_rows)
    print(f"symbolified {preserved} surviving edges (tau={args.tau}, top_m={args.top_m})")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="itfkan",
        description="KAN-based interpretable time series forecasting",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model and write artifacts")
    p_train.add_argument("--config", required=True, help="run config file")
    p_train.add_argument("--seed", type=int, default=None, help="override config seed")
    p_train.add_argument("--out", default=None, help="override output directory")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on the test split")
    p_eval.add_argument("--config", required=True, help="run config file")
    p_eval.add_argument("--checkpoint", required=True, help="checkpoint path")
    p_eval.set_defaults(func=cmd_eval)

    p_prune = sub.add_parser("prune", help="prune a checkpoint by edge norm")
    p_prune.add_argument("--checkpoint", required=True, help="checkpoint path")
    p_prune.add_argument("--out", default=None, help="output directory")
    p_prune.add_argument("--tau", type=float, default=DEFAULT_TAU)
    p_prune.set_defaults(func=cmd_prune)

    p_rep = sub.add_parser("report", help="prune + symbolify + graph description")
    p_rep.add_argument("--config", required=True, help="run config file")
    p_rep.add_argument("--checkpoint", required=True, help="checkpoint path")
    p_rep.add_argument("--out", default=None, help="output directory (default: config out)")
    p_rep.add_argument("--tau", type=float, default=DEFAULT_TAU)
    p_rep.add_argument("--top-m", type=int, default=DEFAULT_TOP_M, dest="top_m")
    p_rep.set_defaults(func=cmd_report)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
