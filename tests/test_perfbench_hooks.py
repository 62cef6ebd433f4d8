"""The benchmark's span table must name functions the package still has.

perfbench wraps each ``SPANS`` target by name and reports a target it
cannot find as 0 ms, so a rename in the package would zero a per-layer
metric without failing anything. This test fails instead.
"""

import importlib.util
import os

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
    # The amplitude/phase spectrum chain left the package; the model's grid
    # is spectrum_grid, which the span table does not wrap yet (ROADMAP
    # item 3), so tfsynergy.dft_expand_ms reads 0 as it did before.
    assert missing == {
        "itfkan.tfsynergy:dft_patches",
        "itfkan.tfsynergy:tf_expand",
    }
