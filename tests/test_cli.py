import dataclasses
import os
import re
import shlex

import numpy as np
import pytest

import itfkan.interpret as interpret
from itfkan.checkpoint import load_checkpoint, save_checkpoint
from itfkan.cli import (
    ConfigError,
    RunConfig,
    build_parser,
    load_config,
    main,
    parse_config_text,
    resolve_config,
)
from itfkan.data import (
    ingest_csv,
    make_windows,
    split_standardize,
    synthetic_series,
    write_csv,
)
from itfkan.interpret import render_fit, symbolify_edge
from itfkan.model import ForecastModel
from itfkan.taylorkan import TaylorEdge


def write_config(path, **overrides):
    base = dict(
        dataset="", task="long", lookback=16, horizon=8, embed_dim=2, kernel=5,
        trend_degree=2, top_k=2, patch_len=4, stride=4, reg_lambda=0.01,
        lr=0.005, batch_size=8, epochs=2, patience=2, seed=3, out="",
        split="ratio", frequency="hourly",
    )
    base.update(overrides)
    text = "".join(f"{k} = {v}\n" for k, v in base.items())
    path.write_text(text)
    return base


@pytest.fixture()
def workspace(tmp_path):
    data_path = tmp_path / "panel.csv"
    write_csv(str(data_path), synthetic_series(420, 2, seed=11), ["a", "b"])
    cfg_path = tmp_path / "run.cfg"
    out_dir = tmp_path / "run-out"
    write_config(cfg_path, dataset=str(data_path), out=str(out_dir))
    return cfg_path, out_dir


# --- config parsing -------------------------------------------------------------

def test_config_round_trip():
    cfg = RunConfig(dataset="x.csv", lookback=96, horizon=96)
    reparsed = resolve_config(parse_config_text(cfg.as_lines()))
    assert reparsed == cfg


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown keys: lokback"):
        resolve_config(parse_config_text("dataset = a\nlokback = 96\nhorizon = 4\nlookback = 8\n"))


def test_checkpoint_key_rejected(workspace, capsys):
    """The checkpoint is given by ``--checkpoint`` alone."""
    cfg_path, out_dir = workspace
    write_config(
        cfg_path, dataset=str(cfg_path.parent / "panel.csv"), out=str(out_dir), checkpoint="x",
    )
    assert main(["train", "--config", str(cfg_path)]) == 2
    assert f"error: {cfg_path}: unknown keys: checkpoint" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("in_config", [True, False], ids=["config", "option"])
def test_negative_seed_exits_2_at_load_naming_seed(workspace, capsys, in_config):
    cfg_path, out_dir = workspace
    if in_config:
        write_config(
            cfg_path, dataset=str(cfg_path.parent / "panel.csv"), out=str(out_dir), seed=-1,
        )
    override = [] if in_config else ["--seed", "-1"]
    assert main(["train", "--config", str(cfg_path), *override]) == 2
    captured = capsys.readouterr()
    assert f"error: {cfg_path}: seed must be >= 0, got -1" in captured.err
    assert captured.out == ""
    assert not out_dir.exists()


def test_missing_required_key_names_it():
    with pytest.raises(ConfigError, match="dataset"):
        resolve_config(parse_config_text("lookback = 8\nhorizon = 4\n"))


def test_comments_and_blanks_ignored():
    raw = parse_config_text("# top\ndataset = a.csv  # inline\n\nlookback = 96\nhorizon = 4\n")
    cfg = resolve_config(raw)
    assert cfg.dataset == "a.csv"


def test_bad_value_type_rejected():
    with pytest.raises(ConfigError, match="lookback"):
        resolve_config(parse_config_text("dataset = a\nlookback = soon\nhorizon = 4\n"))


@pytest.mark.parametrize("key, value", [
    ("task", "medium"), ("split", "halves"), ("frequency", "fortnightly"),
])
def test_choice_outside_its_list_names_key_and_choices(key, value):
    text = f"dataset = a\nlookback = 96\nhorizon = 4\n{key} = {value}\n"
    with pytest.raises(ConfigError, match=rf"run\.cfg: {key} must be one of .*{value!r}"):
        resolve_config(parse_config_text(text), origin="run.cfg")


def _readme():
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md"), encoding="utf-8") as fh:
        return fh.read()


def test_readme_configuration_table_lists_every_field():
    section = _readme().split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    keys = [
        name
        for row in section.splitlines() if row.startswith("| `")
        for name in re.findall(r"`(\w+)`", row.split("|")[1])
    ]
    assert sorted(keys) == sorted(f.name for f in dataclasses.fields(RunConfig))


def test_readme_commands_parse_and_cover_the_parser():
    """Every ``itfkan`` line in the README's fenced blocks parses, and
    together they use every subcommand and each of its options."""
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", _readme(), flags=re.M | re.S)
    lines = [
        line.strip()
        for block in blocks
        for line in block.replace("\\\n", " ").splitlines()
        if line.strip().startswith("itfkan ")
    ]
    parser = build_parser()
    used = {}
    for line in lines:
        argv = shlex.split(line)[1:]
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README line does not parse: {line}")
        used.setdefault(argv[0], set()).update(a for a in argv if a.startswith("--"))
    subcommands = next(a for a in parser._actions if a.dest == "command").choices
    declared = {
        name: {o for a in sub._actions for o in a.option_strings if o.startswith("--")} - {"--help"}
        for name, sub in subcommands.items()
    }
    assert used == declared


def test_etth1_preset_matches_reference_settings():
    cfg = load_config(os.path.join(os.path.dirname(__file__), "..", "configs", "etth1.cfg"))
    assert cfg.embed_dim == 32
    assert cfg.batch_size == 64
    assert cfg.lr == 0.0005
    assert cfg.stride == 6
    assert cfg.patch_len == 6
    assert cfg.lookback == 96 and cfg.horizon == 96


# --- train ----------------------------------------------------------------------

def test_train_missing_dataset_key_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("lookback = 8\nhorizon = 4\n")
    code = main(["train", "--config", str(cfg_path)])
    assert code == 2
    assert "dataset" in capsys.readouterr().err


def test_train_missing_file_exits_2(tmp_path, capsys):
    code = main(["train", "--config", str(tmp_path / "absent.cfg")])
    assert code == 2


def test_empty_out_exits_2_at_load_naming_config_and_out(workspace, capsys):
    cfg_path, _ = workspace
    write_config(cfg_path, dataset=str(cfg_path.parent / "panel.csv"), out="")
    assert main(["train", "--config", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert f"error: {cfg_path}: out must name a directory" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["train", "eval", "report"])
def test_missing_dataset_exits_2_naming_it_and_creates_nothing(tmp_path, capsys, command):
    """A dataset path that names no file is a usage error at load, before
    train creates its output directory."""
    cfg_path, out_dir, missing = tmp_path / "run.cfg", tmp_path / "o2", tmp_path / "missing.csv"
    write_config(cfg_path, dataset=str(missing), out=str(out_dir))
    argv = [command, "--config", str(cfg_path)]
    if command != "train":
        argv += ["--checkpoint", str(tmp_path / "checkpoint.itfk")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert f"error: {cfg_path}: dataset {str(missing)!r} is not a file" in captured.err
    assert captured.out == ""
    assert sorted(os.listdir(tmp_path)) == ["run.cfg"]


def test_train_unknown_frequency_exits_2_before_training(workspace, capsys):
    cfg_path, out_dir = workspace
    write_config(
        cfg_path, dataset=str(cfg_path.parent / "panel.csv"), out=str(out_dir),
        frequency="fortnightly",
    )
    assert main(["train", "--config", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert f"{cfg_path}: frequency must be one of" in captured.err
    assert "hourly" in captured.err and "'fortnightly'" in captured.err
    assert "epoch 0" not in captured.out
    assert not (out_dir / "history.tsv").exists()


@pytest.mark.parametrize("overrides, message", [
    (dict(kernel=41), "kernel 41 exceeds 2L-1 = 31 (L = 16)"),
    (dict(patch_len=17), "patch_len 17 exceeds series length 16"),
    (dict(stride=5), "need 1 <= stride <= patch_len, got stride=5, patch_len=4"),
    (dict(top_k=9), "top_k 9 needs lookback >= 18"),
    (dict(trend_degree=16), "trend_degree 16 needs lookback >= 17"),
])
def test_train_config_the_layers_cannot_build_exits_2_at_load(
    workspace, capsys, overrides, message
):
    cfg_path, out_dir = workspace
    write_config(
        cfg_path, dataset=str(cfg_path.parent / "panel.csv"), out=str(out_dir), **overrides
    )
    assert main(["train", "--config", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert f"error: {cfg_path}: {message}" in captured.err
    assert captured.out == ""
    assert not out_dir.exists()


def test_short_training_forecasts_better_than_mean_and_seasonal_naive(tmp_path):
    """A forecaster, not just a trainer: three epochs on a two-variate
    synthetic panel must beat the test targets' mean (z-scored MSE below
    their variance) and the seasonal-naive scale (MASE below MASE_BOUND)."""
    MASE_BOUND = 1.0
    data_path = tmp_path / "panel.csv"
    write_csv(str(data_path), synthetic_series(600, 2, seed=5), ["a", "b"])
    cfg_path = tmp_path / "run.cfg"
    write_config(
        cfg_path, dataset=str(data_path), out=str(tmp_path / "out"), lookback=48,
        horizon=12, embed_dim=4, kernel=13, top_k=3, patch_len=8, stride=8,
        lr=0.005, batch_size=16, epochs=3, patience=3,
    )
    assert main(["train", "--config", str(cfg_path)]) == 0
    text = (tmp_path / "out" / "metrics.txt").read_text()
    metrics = {k: float(v) for k, v in (line.split("=") for line in text.split())}
    split = split_standardize(ingest_csv(str(data_path)), mode="ratio")
    _, test_y = make_windows(split.test, 48, 12)
    assert metrics["mse"] < test_y.var(), (metrics, test_y.var())
    assert metrics["mase"] < MASE_BOUND, metrics


def test_train_writes_artifacts(workspace, capsys):
    cfg_path, out_dir = workspace
    assert main(["train", "--config", str(cfg_path)]) == 0
    for artifact in (
        "resolved_config.txt", "history.tsv", "checkpoint.itfk",
        "checkpoint.itfk.stats", "metrics.txt",
    ):
        assert (out_dir / artifact).exists(), artifact
    stdout = capsys.readouterr().out
    assert "mse=" in stdout
    metrics_text = (out_dir / "metrics.txt").read_text()
    for line in metrics_text.strip().splitlines():
        key, value = line.split("=")
        assert len(value.split(".")[1]) == 6  # fixed 6-decimal rendering


def test_train_seed_and_out_options_take_effect(workspace, tmp_path):
    cfg_path, out_dir = workspace
    other = tmp_path / "seed-9"
    assert main(["train", "--config", str(cfg_path), "--seed", "9", "--out", str(other)]) == 0
    assert sorted(os.listdir(other)) == [
        "checkpoint.itfk", "checkpoint.itfk.stats", "history.tsv", "metrics.txt",
        "resolved_config.txt",
    ]
    assert not out_dir.exists()
    assert "seed = 9\n" in (other / "resolved_config.txt").read_text()
    assert main(["train", "--config", str(cfg_path)]) == 0
    assert "seed = 3\n" in (out_dir / "resolved_config.txt").read_text()
    assert (other / "history.tsv").read_text() != (out_dir / "history.tsv").read_text()


def test_resolved_config_reparses_equal(workspace):
    cfg_path, out_dir = workspace
    assert main(["train", "--config", str(cfg_path)]) == 0
    resolved = (out_dir / "resolved_config.txt").read_text()
    assert resolve_config(parse_config_text(resolved)) == load_config(str(cfg_path))


def test_train_deterministic_byte_identical(tmp_path):
    data_path = tmp_path / "panel.csv"
    write_csv(str(data_path), synthetic_series(420, 2, seed=21), ["a", "b"])
    outputs = []
    for run in ("one", "two"):
        cfg_path = tmp_path / f"{run}.cfg"
        out_dir = tmp_path / run
        write_config(cfg_path, dataset=str(data_path), out=str(out_dir))
        assert main(["train", "--config", str(cfg_path)]) == 0
        outputs.append(
            {
                name: (out_dir / name).read_bytes()
                for name in ("history.tsv", "checkpoint.itfk", "metrics.txt",
                              "checkpoint.itfk.stats")
            }
        )
    for name in outputs[0]:
        assert outputs[0][name] == outputs[1][name], f"{name} differs between runs"


def test_failed_train_removes_partial_artifacts(tmp_path, monkeypatch):
    data_path = tmp_path / "panel.csv"
    write_csv(str(data_path), synthetic_series(420, 2, seed=31), ["a", "b"])
    cfg_path = tmp_path / "run.cfg"
    out_dir = tmp_path / "broken-out"
    write_config(cfg_path, dataset=str(data_path), out=str(out_dir))

    def boom(*a, **k):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr("itfkan.cli.train", boom)
    assert main(["train", "--config", str(cfg_path)]) == 1
    assert not (out_dir / "resolved_config.txt").exists()
    assert not (out_dir / "checkpoint.itfk").exists()


def test_train_non_finite_cell_exits_1(tmp_path, capsys):
    data_path = tmp_path / "panel.csv"
    write_csv(str(data_path), synthetic_series(420, 2, seed=32), ["a", "b"])
    lines = data_path.read_text().splitlines()
    stamp, a, _ = lines[5].split(",")
    lines[5] = f"{stamp},{a},nan"
    data_path.write_text("\n".join(lines) + "\n")
    cfg_path = tmp_path / "run.cfg"
    write_config(cfg_path, dataset=str(data_path), out=str(tmp_path / "out"))
    assert main(["train", "--config", str(cfg_path)]) == 1
    assert "row 6, column 'b': non-finite" in capsys.readouterr().err


# --- eval -----------------------------------------------------------------------

def test_eval_truncated_checkpoint_exits_1(workspace, capsys):
    cfg_path, out_dir = workspace
    assert main(["train", "--config", str(cfg_path)]) == 0
    ckpt = out_dir / "checkpoint.itfk"
    ckpt.write_bytes(ckpt.read_bytes()[:-5])
    capsys.readouterr()
    assert main(["eval", "--config", str(cfg_path), "--checkpoint", str(ckpt)]) == 1
    err = capsys.readouterr().err
    assert "CheckpointError" in err and "'head.b2' data at byte" in err


def test_eval_checkpoint_frequencies_without_a_common_base_exits_1(workspace, capsys):
    cfg_path, out_dir = workspace
    assert main(["train", "--config", str(cfg_path)]) == 0
    ckpt = str(out_dir / "checkpoint.itfk")
    config, tensors = load_checkpoint(ckpt)
    tensors["frequencies"] = np.array([0.5, 1 / np.pi])
    save_checkpoint(ckpt, list(config.items()), list(tensors.items()))
    capsys.readouterr()
    assert main(["eval", "--config", str(cfg_path), "--checkpoint", ckpt]) == 1
    err = capsys.readouterr().err
    assert "CheckpointError" in err and "tensor frequencies: frequency 0.3183" in err


@pytest.mark.parametrize("key, value, message", [
    ("kernel", "five", "key 'kernel': cannot parse 'five'"),
    ("kernel", "4", "kernel must be odd"),
    ("frequencies", np.array([0.25]), "tensor frequencies: expected 2 frequencies, got 1"),
    ("trend_degree", "16", "trend_degree 16 needs lookback >= 17"),
])
def test_eval_bad_checkpoint_config_names_file_and_key_exits_1(
    workspace, capsys, key, value, message
):
    cfg_path, out_dir = workspace
    assert main(["train", "--config", str(cfg_path)]) == 0
    ckpt = str(out_dir / "checkpoint.itfk")
    config, tensors = load_checkpoint(ckpt)
    (tensors if key == "frequencies" else config)[key] = value
    save_checkpoint(ckpt, list(config.items()), list(tensors.items()))
    capsys.readouterr()
    assert main(["eval", "--config", str(cfg_path), "--checkpoint", ckpt]) == 1
    assert f"CheckpointError: {ckpt}: {message}" in capsys.readouterr().err


def test_non_finite_checkpoint_tensor_exits_1(workspace, tmp_path, capsys):
    """eval, prune and report each refuse a checkpoint with a NaN weight,
    naming the file, the tensor and the index."""
    cfg_path, out_dir = workspace
    assert main(["train", "--config", str(cfg_path)]) == 0
    ckpt = str(out_dir / "checkpoint.itfk")
    config, tensors = load_checkpoint(ckpt)
    w2 = tensors["head.w2"].copy()
    w2[2, 1] = np.nan
    tensors["head.w2"] = w2
    save_checkpoint(ckpt, list(config.items()), list(tensors.items()))
    out = str(tmp_path / "refused")
    for argv in (
        ["eval", "--config", str(cfg_path), "--checkpoint", ckpt],
        ["prune", "--checkpoint", ckpt, "--out", out, "--tau", "5e-4"],
        ["report", "--config", str(cfg_path), "--checkpoint", ckpt, "--out", out, "--tau", "5e-4"],
    ):
        capsys.readouterr()
        assert main(argv) == 1, argv[0]
        message = f"CheckpointError: {ckpt}: tensor head.w2: non-finite value nan at index (2, 1)"
        assert message in capsys.readouterr().err, argv[0]


def test_eval_invalid_model_field_in_config_exits_2(workspace, tmp_path, capsys):
    cfg_path, out_dir = workspace
    assert main(["train", "--config", str(cfg_path)]) == 0
    bad_cfg = tmp_path / "bad.cfg"
    write_config(
        bad_cfg, dataset=str(tmp_path / "panel.csv"), out=str(out_dir), kernel=4
    )
    capsys.readouterr()
    code = main([
        "eval", "--config", str(bad_cfg), "--checkpoint", str(out_dir / "checkpoint.itfk"),
    ])
    assert code == 2
    assert f"error: {bad_cfg}: kernel must be odd" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["lr", "reg_lambda"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_config_value_exits_2_naming_the_key(tmp_path, capsys, key, value):
    cfg_path = tmp_path / "bad.cfg"
    write_config(cfg_path, dataset=str(tmp_path / "panel.csv"), out=str(tmp_path / "out"),
                 **{key: value})
    with pytest.raises(ConfigError, match=f"{key} must be finite, got {value}"):
        load_config(str(cfg_path))
    assert main(["train", "--config", str(cfg_path)]) == 2
    assert f"error: {cfg_path}: {key} must be finite, got {value}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_eval_missing_stats_exits_2(workspace, capsys):
    cfg_path, out_dir = workspace
    assert main(["train", "--config", str(cfg_path)]) == 0
    ckpt = out_dir / "checkpoint.itfk"
    os.remove(str(ckpt) + ".stats")
    capsys.readouterr()
    assert main(["eval", "--config", str(cfg_path), "--checkpoint", str(ckpt)]) == 2
    assert f"checkpoint stats not found: {ckpt}.stats" in capsys.readouterr().err


def test_eval_malformed_stats_names_file_and_line(workspace, capsys):
    cfg_path, out_dir = workspace
    assert main(["train", "--config", str(cfg_path)]) == 0
    ckpt = out_dir / "checkpoint.itfk"
    stats = out_dir / "checkpoint.itfk.stats"
    first, second = stats.read_text().splitlines()
    no_std = second.rsplit("\t", 1)[0]
    stats.write_text(f"{first}\n{no_std}\n")
    capsys.readouterr()
    assert main(["eval", "--config", str(cfg_path), "--checkpoint", str(ckpt)]) == 1
    assert f"{stats}: line 2: expected name<TAB>mean<TAB>std" in capsys.readouterr().err


def test_eval_stats_in_another_column_order_exits_2(workspace, capsys):
    cfg_path, out_dir = workspace
    assert main(["train", "--config", str(cfg_path)]) == 0
    ckpt = out_dir / "checkpoint.itfk"
    stats = out_dir / "checkpoint.itfk.stats"
    first, second = stats.read_text().splitlines()
    stats.write_text(f"{second}\n{first}\n")  # rows b, a for columns a, b
    capsys.readouterr()
    assert main(["eval", "--config", str(cfg_path), "--checkpoint", str(ckpt)]) == 2
    err = capsys.readouterr().err
    assert f"{stats}" in err and "['b', 'a']" in err and "['a', 'b']" in err


def test_eval_matches_train_metrics(workspace, capsys):
    cfg_path, out_dir = workspace
    assert main(["train", "--config", str(cfg_path)]) == 0
    train_metrics = (out_dir / "metrics.txt").read_text()
    capsys.readouterr()
    assert main([
        "eval", "--config", str(cfg_path),
        "--checkpoint", str(out_dir / "checkpoint.itfk"),
    ]) == 0
    assert capsys.readouterr().out == train_metrics


def test_eval_standardizes_with_the_checkpoint_statistics(workspace, tmp_path, capsys):
    """eval z-scores every split with the ``.stats`` sidecar, as it
    de-standardizes: a CSV whose train rows moved, with the same test rows,
    gives the same metrics."""
    cfg_path, out_dir = workspace
    assert main(["train", "--config", str(cfg_path)]) == 0
    ckpt = str(out_dir / "checkpoint.itfk")
    capsys.readouterr()
    assert main(["eval", "--config", str(cfg_path), "--checkpoint", ckpt]) == 0
    metrics = capsys.readouterr().out
    values = synthetic_series(420, 2, seed=11)
    values[:100, 0] += 5.0  # train rows only: the ratio split's first 294
    shifted_csv = tmp_path / "shifted.csv"
    write_csv(str(shifted_csv), values, ["a", "b"])
    shifted_cfg = tmp_path / "shifted.cfg"
    write_config(shifted_cfg, dataset=str(shifted_csv), out=str(out_dir))
    assert main(["eval", "--config", str(shifted_cfg), "--checkpoint", ckpt]) == 0
    assert capsys.readouterr().out == metrics


def test_eval_horizon_mismatch_names_field(workspace, tmp_path, capsys):
    cfg_path, out_dir = workspace
    assert main(["train", "--config", str(cfg_path)]) == 0
    other_cfg = tmp_path / "other.cfg"
    base = write_config(
        other_cfg,
        dataset=parse_config_text(cfg_path.read_text())["dataset"],
        out=str(out_dir),
        horizon=16,
    )
    code = main([
        "eval", "--config", str(other_cfg),
        "--checkpoint", str(out_dir / "checkpoint.itfk"),
    ])
    assert code == 2
    assert "horizon" in capsys.readouterr().err


# --- prune / symbolify / report ------------------------------------------------------

def test_report_pipeline(workspace, tmp_path, capsys):
    cfg_path, out_dir = workspace
    assert main(["train", "--config", str(cfg_path)]) == 0
    report_dir = tmp_path / "report-out"
    assert main([
        "report", "--config", str(cfg_path),
        "--checkpoint", str(out_dir / "checkpoint.itfk"),
        "--tau", "0.02", "--top-m", "2",
        "--out", str(report_dir),
    ]) == 0
    for artifact in (
        "prune_report.txt", "symbolic_report.txt", "symbolic_edges.tsv", "graph.tsv",
        "fit_summary.tsv", "report_timing.tsv",
    ):
        assert (report_dir / artifact).exists(), artifact

    # cross-file consistency: symbolic rows for adjustable edges == preserved
    prune_lines = (report_dir / "prune_report.txt").read_text().strip().splitlines()[1:]
    preserved = sum(int(line.split("\t")[3]) for line in prune_lines)
    machine_lines = (report_dir / "symbolic_edges.tsv").read_text().strip().splitlines()[1:]
    taylor_rows = [l for l in machine_lines if l.split("\t")[3] not in ("trend-poly", "fourier")]
    assert len(taylor_rows) == preserved
    summary = (report_dir / "fit_summary.tsv").read_text().strip().splitlines()[1:]
    assert sum(int(line.split("\t")[1]) for line in summary) == preserved


def test_report_text_survives_ulp_perturbations(workspace, tmp_path, monkeypatch):
    """Each surviving edge's 2-decimal formula is unchanged when its Taylor
    coefficients (w, a0, a1, a2) move by a few ulp, as a retrained model's
    might: the fitted families have no redundant parameters to tie. The
    fitted (a, b, c, d) also move by under 1e-6 of max(|value|, 1), which
    leaves the text a wide margin (about 1e-5 without the line search's
    closing Newton steps or its cos(a x) - 1 column, 3e-8 with them)."""
    cfg_path, out_dir = workspace
    assert main(["train", "--config", str(cfg_path)]) == 0
    jobs = []
    fit_edges = interpret._fit_edges

    def capture(edge_jobs):
        jobs.extend(edge_jobs)
        return fit_edges(edge_jobs)

    monkeypatch.setattr(interpret, "_fit_edges", capture)
    assert main([
        "report", "--config", str(cfg_path),
        "--checkpoint", str(out_dir / "checkpoint.itfk"),
        "--tau", "0.02", "--out", str(tmp_path / "report-out"),
    ]) == 0
    assert jobs
    ulp = np.finfo(np.float64).eps
    for edge, lo, hi in jobs:
        fit = symbolify_edge(edge, lo, hi)
        params = np.array([fit.a, fit.b, fit.c, fit.d])
        for steps in ([3.0, -2.0, 4.0, -1.0], [-4.0, 1.0, -3.0, 2.0]):
            scale = 1.0 + ulp * np.array(steps)
            moved = symbolify_edge(TaylorEdge(edge.w * scale[0], edge.a * scale[1:]), lo, hi)
            assert render_fit(moved) == render_fit(fit), (lo, hi)
            shift = np.array([moved.a, moved.b, moved.c, moved.d]) - params
            assert np.all(np.abs(shift) < 1e-6 * np.maximum(np.abs(params), 1.0)), (fit, moved)


def test_report_standardizes_with_the_checkpoint_statistics(workspace, tmp_path):
    """report z-scores the calibration windows with the ``.stats`` sidecar,
    as eval does: a CSV whose column ``a`` doubled gives other ranges, and so
    other fits, where the CSV's own z-score would cancel the factor."""
    cfg_path, out_dir = workspace
    assert main(["train", "--config", str(cfg_path)]) == 0
    ckpt = str(out_dir / "checkpoint.itfk")
    values = synthetic_series(420, 2, seed=11)
    values[:, 0] *= 2.0
    doubled_csv = tmp_path / "doubled.csv"
    write_csv(str(doubled_csv), values, ["a", "b"])
    doubled_cfg = tmp_path / "doubled.cfg"
    write_config(doubled_cfg, dataset=str(doubled_csv), out=str(out_dir))
    # a threshold that keeps the 8 largest-norm adjustable edges to fit
    model, _ = ForecastModel.load(ckpt)
    norms = np.concatenate([layer.taylor_norms().ravel() for _, layer in model.kan_layers()])
    tau = float(np.sort(norms)[::-1][7])
    edges = []
    for cfg in (cfg_path, doubled_cfg):
        report_dir = tmp_path / f"report-{cfg.stem}"
        assert main([
            "report", "--config", str(cfg), "--checkpoint", ckpt,
            "--tau", repr(tau), "--out", str(report_dir),
        ]) == 0
        edges.append((report_dir / "symbolic_edges.tsv").read_text())
        rows = [line.split("\t") for line in edges[-1].splitlines()[1:]]
        assert sum(r[3] not in ("trend-poly", "fourier") for r in rows) == 8
    assert edges[0] != edges[1]


def test_report_horizon_mismatch_names_field(workspace, tmp_path, capsys):
    cfg_path, out_dir = workspace
    assert main(["train", "--config", str(cfg_path)]) == 0
    other_cfg = tmp_path / "other.cfg"
    write_config(
        other_cfg,
        dataset=parse_config_text(cfg_path.read_text())["dataset"],
        out=str(tmp_path / "report-out"),
        horizon=4,
    )
    capsys.readouterr()
    code = main([
        "report", "--config", str(other_cfg),
        "--checkpoint", str(out_dir / "checkpoint.itfk"), "--tau", "0.05",
    ])
    assert code == 2
    assert "config horizon=4 does not match checkpoint horizon=8" in capsys.readouterr().err


def test_report_missing_stats_exits_2(workspace, tmp_path, capsys):
    cfg_path, out_dir = workspace
    assert main(["train", "--config", str(cfg_path)]) == 0
    ckpt = out_dir / "checkpoint.itfk"
    os.remove(str(ckpt) + ".stats")
    capsys.readouterr()
    code = main([
        "report", "--config", str(cfg_path), "--checkpoint", str(ckpt),
        "--tau", "0.05", "--out", str(tmp_path / "report-out"),
    ])
    assert code == 2
    assert f"checkpoint stats not found: {ckpt}.stats" in capsys.readouterr().err


def test_prune_negative_tau_exits_2(workspace, capsys):
    cfg_path, out_dir = workspace
    assert main(["train", "--config", str(cfg_path)]) == 0
    code = main([
        "prune", "--checkpoint", str(out_dir / "checkpoint.itfk"), "--tau", "-1",
    ])
    assert code == 2


@pytest.mark.parametrize("command", ["prune", "report"])
def test_nan_tau_exits_2_and_writes_nothing(workspace, capsys, command):
    """No edge norm is >= NaN, so a NaN threshold would prune every edge."""
    cfg_path, out_dir = workspace
    assert main(["train", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    dest = out_dir.parent / f"{command}-out"
    args = [command, "--checkpoint", str(out_dir / "checkpoint.itfk"), "--tau", "nan"]
    if command != "prune":
        args += ["--config", str(cfg_path)]
    assert main(args + ["--out", str(dest)]) == 2
    assert "error: --tau must be >= 0" in capsys.readouterr().err
    assert not dest.exists()


@pytest.mark.parametrize("command", ["report"])
def test_negative_top_m_exits_2(workspace, capsys, command):
    cfg_path, out_dir = workspace
    assert main(["train", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    report_dir = out_dir.parent / "report-out"
    code = main([
        command, "--config", str(cfg_path), "--checkpoint", str(out_dir / "checkpoint.itfk"),
        "--top-m", "-2", "--out", str(report_dir),
    ])
    assert code == 2
    assert "error: --top-m must be >= 0" in capsys.readouterr().err
    assert not report_dir.exists()


UNREAD = "unrecognized arguments: "
REQUIRED = "the following arguments are required: --checkpoint"


@pytest.mark.parametrize("argv, message", [
    pytest.param(["train", "--config", "run.cfg", "--checkpoint", "x.itfk"],
                 UNREAD + "--checkpoint x.itfk", id="train-checkpoint"),
    pytest.param(["eval", "--config", "run.cfg", "--checkpoint", "x.itfk", "--seed", "9"],
                 UNREAD + "--seed 9", id="eval-seed"),
    pytest.param(["eval", "--config", "run.cfg", "--checkpoint", "x.itfk", "--out", "d"],
                 UNREAD + "--out d", id="eval-out"),
    pytest.param(["report", "--config", "run.cfg", "--checkpoint", "x.itfk", "--seed", "9"],
                 UNREAD + "--seed 9", id="report-seed"),
    pytest.param(["prune", "--checkpoint", "x.itfk", "--config", "run.cfg"],
                 UNREAD + "--config run.cfg", id="prune-config"),
    pytest.param(["prune", "--checkpoint", "x.itfk", "--seed", "9"],
                 UNREAD + "--seed 9", id="prune-seed"),
    pytest.param(["symbolify", "--config", "run.cfg", "--checkpoint", "x.itfk"],
                 "invalid choice: 'symbolify'", id="symbolify"),
    pytest.param(["eval", "--config", "run.cfg"], REQUIRED, id="eval-without-checkpoint"),
    pytest.param(["report", "--config", "run.cfg"], REQUIRED, id="report-without-checkpoint"),
])
def test_every_command_rejects_options_it_does_not_read(capsys, argv, message):
    """Each command declares only the options it reads, so an option it
    would ignore, a removed command or a missing checkpoint is a usage
    error before any file is read."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_prune_requires_checkpoint(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["prune", "--tau", "0.1"])
    assert exc.value.code == 2
    assert "--checkpoint" in capsys.readouterr().err


def test_prune_writes_report_and_checkpoint(workspace, tmp_path):
    cfg_path, out_dir = workspace
    assert main(["train", "--config", str(cfg_path)]) == 0
    prune_dir = tmp_path / "prune-out"
    assert main([
        "prune", "--checkpoint", str(out_dir / "checkpoint.itfk"),
        "--tau", "100", "--out", str(prune_dir),
    ]) == 0
    report = (prune_dir / "prune_report.txt").read_text()
    lines = report.strip().splitlines()[1:]
    for line in lines:
        fields = line.split("\t")
        assert fields[3] == "0"  # nothing survives tau=100
    # the pruned checkpoint carries its stats sidecar, so eval runs on it
    assert main([
        "eval", "--config", str(cfg_path),
        "--checkpoint", str(prune_dir / "checkpoint_pruned.itfk"),
    ]) == 0
