import os

import numpy as np
import pytest

import itfkan.interpret as interpret
from itfkan.cli import (
    ConfigError,
    RunConfig,
    load_config,
    main,
    parse_config_text,
    resolve_config,
)
from itfkan.data import synthetic_series, write_csv
from itfkan.interpret import render_fit, symbolify_edge
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


def test_missing_required_key_names_it():
    with pytest.raises(ConfigError, match="dataset"):
        resolve_config(parse_config_text("lookback = 8\nhorizon = 4\n"))


def test_comments_and_blanks_ignored():
    raw = parse_config_text("# top\ndataset = a.csv  # inline\n\nlookback = 8\nhorizon = 4\n")
    cfg = resolve_config(raw)
    assert cfg.dataset == "a.csv"


def test_bad_value_type_rejected():
    with pytest.raises(ConfigError, match="lookback"):
        resolve_config(parse_config_text("dataset = a\nlookback = soon\nhorizon = 4\n"))


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
    edges = []
    for cfg in (cfg_path, doubled_cfg):
        report_dir = tmp_path / f"report-{cfg.stem}"
        assert main([
            "report", "--config", str(cfg), "--checkpoint", ckpt,
            "--tau", "0.05", "--out", str(report_dir),
        ]) == 0
        edges.append((report_dir / "symbolic_edges.tsv").read_text())
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


@pytest.mark.parametrize("option", [["--config", "run.cfg"], ["--seed", "9"]])
def test_prune_rejects_options_it_would_ignore(workspace, capsys, option):
    cfg_path, out_dir = workspace
    with pytest.raises(SystemExit) as exc:
        main(["prune", "--checkpoint", str(out_dir / "checkpoint.itfk"), *option])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err


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
