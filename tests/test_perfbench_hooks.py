"""The benchmark's hooks must still read the package.

perfbench wraps each ``SPANS`` target by name and reports a target it
cannot find as 0 ms, so a rename in the package would zero a per-layer
metric without failing anything, and it counts the tape through the
attributes ``graph_counts`` reads. These tests fail instead.
"""

import importlib.util
import os

import numpy as np

from itfkan.model import ForecastModel, ModelConfig, total_loss
from itfkan.tensor import Graph, Tensor, no_grad

HOOKS = os.path.join(os.path.dirname(__file__), "..", "perfbench", "hooks.py")


def load_hooks():
    spec = importlib.util.spec_from_file_location("perfbench_hooks", HOOKS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves():
    hooks = load_hooks()
    missing = set()
    for target, _ in hooks.SPANS:
        try:
            hooks._resolve(target)
        except (AttributeError, ImportError):
            missing.add(target)
    # The amplitude/phase spectrum chain left the package; the model builds
    # its grid inside patch_kans, under the tfsynergy.patch_kans span, so
    # tfsynergy.dft_expand_ms reads 0 as it did before.
    assert missing == {
        "itfkan.tfsynergy:dft_patches",
        "itfkan.tfsynergy:tf_expand",
    }


def test_graph_counts_reads_the_tape():
    """``graph_counts`` walks the tape through ``t.op``, ``t.parents`` and
    the operands' ``shape``. The pinned values are this small model's tape
    counts, which a change to how the tape is stored must not move. The
    two matmuls, their FLOPs and the one permute are the head's: the
    windows' split records no node, and the unpatch map's and the KAN
    layers' GEMMs run inside fused ops, which ``graph_counts`` does not
    count."""
    cfg = ModelConfig(
        lookback=24, horizon=8, embed_dim=3, kernel=5, trend_degree=3,
        top_k=3, patch_len=4, stride=4,
    )
    model = ForecastModel(cfg, [1 / 12, 0.25, 0.5], seed=8)
    rng = np.random.default_rng(9)
    x, y = Tensor(rng.normal(size=(5, 24))), Tensor(rng.normal(size=(5, 8)))
    loss, _ = total_loss(model.forward(x), y, model, cfg.reg_lambda, "long")
    counts = load_hooks().graph_counts(loss)
    assert counts["tensor.tape_nodes"] == len(Graph.from_output(loss)) == 27
    assert counts["tensor.ops.matmul"] == 2
    assert counts["tensor.ops.permute"] == 1
    assert counts["tensor.matmul_gflop"] == 2.64e-06


def test_tracer_times_each_time_axis_kan_apart():
    """The model passes each branch's ``tag`` to ``KanNetwork.forward``, so
    the tracer's spans name the trend and the seasonal KAN apart; a forward
    that dropped the tag would fold both into ``taylorkan.tf``."""
    cfg = ModelConfig(
        lookback=24, horizon=8, embed_dim=3, kernel=5, trend_degree=3,
        top_k=3, patch_len=4, stride=4,
    )
    model = ForecastModel(cfg, [1 / 12, 0.25, 0.5], seed=8)
    x = Tensor(np.random.default_rng(9).normal(size=(5, 24)))
    tracer = load_hooks().Tracer()
    tracer.patches.on()
    try:
        model.forward(x)
    finally:
        tracer.patches.off()
    names = [span[0] for span in tracer.spans]
    assert names.count("taylorkan.trend") == 1
    assert names.count("taylorkan.seasonal") == 1
    assert "taylorkan.tf" not in names
    assert names[0] == "model.forward"


def test_nograd_forward_records_each_layers_span():
    """Both forwards, untaped and taped, split the windows once, through
    ``moving_average_decompose``, lift each part through
    ``Embedding.__call__`` and call each branch's layers once, so the
    tracer times each of them on both paths."""
    cfg = ModelConfig(
        lookback=24, horizon=8, embed_dim=3, kernel=5, trend_degree=3,
        top_k=3, patch_len=4, stride=4,
    )
    model = ForecastModel(cfg, [1 / 12, 0.25, 0.5], seed=8)
    x = Tensor(np.random.default_rng(9).normal(size=(5, 24)))
    tracer = load_hooks().Tracer()

    def nograd_forward():
        with no_grad():
            model.forward(x)

    for forward, name in ((nograd_forward, "model.forward_nograd"),
                          (lambda: model.forward(x), "model.forward")):
        tracer.spans.clear()
        tracer.patches.on()
        try:
            forward()
        finally:
            tracer.patches.off()
        names = [span[0] for span in tracer.spans]
        assert names[0] == name
        assert names.count("decomposition.decompose") == 1, names
        assert names.count("decomposition.embed") == 2, names
        for layer in ("taylorkan.trend", "taylorkan.seasonal", "tfsynergy.patch",
                      "tfsynergy.patch_kans", "tfsynergy.unpatch"):
            assert names.count(layer) == 1, (layer, names)
