"""Hooks around itfkan's public functions, installed from outside the program.

Three kinds of hook share one patching mechanism:

- ``Tracer`` records a span (name, start, end, parent span, workload-op id)
  around each call listed in ``SPANS``. Spans stay in memory until
  ``write`` dumps them.
- ``GraphCounter`` reads the tape of the first training step of each op
  through the public ``Graph.from_output`` and counts nodes, ops and
  matmul FLOPs.
- ``GradGate`` checks that every parameter has a finite gradient when
  ``Adam.step`` is called.

Modules bind functions by name (``model.py`` does ``from .tfsynergy import
dft_patches``), so a module-level function is replaced in every loaded
``itfkan`` module that binds it; a method is replaced on its class.
"""

import contextlib
import functools
import importlib
import inspect
import math
import sys
import time
from collections import Counter

import numpy as np

COUNTED_OPS = ("matmul", "mul", "add", "permute", "reshape", "slice", "concat", "sum")


def _resolve(target):
    """'pkg.mod:Class.attr' -> (owner, attr, original)."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr)


def patch(target, make_wrapper):
    """Replace ``target`` with ``make_wrapper(original)``; returns an undo
    function. Raises AttributeError/ImportError when the target is gone."""
    owner, attr, original = _resolve(target)
    wrapper = make_wrapper(original)
    if inspect.isclass(owner):
        sites = [(owner, attr)]
    else:
        sites = [
            (mod, name)
            for mod in list(sys.modules.values())
            if getattr(mod, "__name__", "").split(".")[0] == "itfkan"
            for name, value in list(vars(mod).items())
            if value is original
        ]
    for site, name in sites:
        setattr(site, name, wrapper)

    def undo():
        for site, name in sites:
            setattr(site, name, original)

    return undo


class Patches:
    """A set of patches that can be switched on and off as a group."""

    def __init__(self, table):
        self.table = table  # [(target, make_wrapper)]
        self.missing = []
        self._undo = []

    def on(self):
        for target, make_wrapper in self.table:
            try:
                self._undo.append(patch(target, make_wrapper))
            except (AttributeError, ImportError):
                if target not in self.missing:
                    self.missing.append(target)
                    print(f"perfbench: cannot hook {target}; its metrics read 0",
                          file=sys.stderr)

    def off(self):
        while self._undo:
            self._undo.pop()()

    @property
    def active(self):
        return bool(self._undo)


def _is_recording():
    return importlib.import_module("itfkan.tensor").is_recording()


def _forward_name(args, kwargs):
    return "model.forward" if _is_recording() else "model.forward_nograd"


def _kan_name(fn):
    sig = inspect.signature(fn)

    def name(args, kwargs):
        tag = sig.bind(*args, **kwargs).arguments.get("tag", "")
        return f"taylorkan.{tag}" if tag in ("trend", "seasonal") else "taylorkan.tf"

    return name


# (target, span name or a name function of (args, kwargs), or a factory of
# one taking the original function)
SPANS = [
    ("itfkan.cli:main", "cli.main"),
    ("itfkan.model:train", "model.train"),
    ("itfkan.model:evaluate_forecasts", "model.evaluate_forecasts"),
    ("itfkan.model:ForecastModel.forward", _forward_name),
    ("itfkan.model:total_loss", "model.loss"),
    ("itfkan.tensor:backward", "tensor.backward"),
    ("itfkan.optim:Adam.step", "optim.adam"),
    ("itfkan.decomposition:Embedding.__call__", "decomposition.embed"),
    ("itfkan.decomposition:moving_average_decompose", "decomposition.decompose"),
    ("itfkan.taylorkan:KanNetwork.forward", _kan_name),
    ("itfkan.tfsynergy:PatchCompressor.__call__", "tfsynergy.patch"),
    ("itfkan.tfsynergy:dft_patches", "tfsynergy.dft"),
    ("itfkan.tfsynergy:tf_expand", "tfsynergy.expand"),
    ("itfkan.tfsynergy:PatchKans.__call__", "tfsynergy.patch_kans"),
    ("itfkan.tfsynergy:Unpatcher.__call__", "tfsynergy.unpatch"),
    ("itfkan.interpret:calibrate_ranges", "interpret.calibrate"),
    ("itfkan.interpret:prune", "interpret.prune"),
    ("itfkan.interpret:symbolify_edge", "interpret.fit_edge"),
    ("itfkan.data:ingest_csv", "data.ingest"),
    ("itfkan.data:make_windows", "data.windows"),
    ("itfkan.checkpoint:save_checkpoint", "checkpoint.save"),
    ("itfkan.checkpoint:load_checkpoint", "checkpoint.load"),
    ("itfkan.metrics:metric_set", "metrics.metric_set"),
]


class Tracer:
    """In-memory spans: [name, start, end, parent index, op id, rows]."""

    def __init__(self):
        self.spans = []
        self.op = "setup"
        self._stack = []
        self.patches = Patches([(t, self._factory(n)) for t, n in SPANS])

    def _factory(self, naming):
        def make_wrapper(fn):
            name_of = naming
            if naming is _kan_name:
                name_of = _kan_name(fn)
            return self._wrap(fn, name_of)

        return make_wrapper

    def _wrap(self, fn, name_of):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = name_of if isinstance(name_of, str) else name_of(args, kwargs)
            rows = args[1].shape[0] if name.startswith("model.forward") else 0
            record = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1,
                      self.op, rows]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()

        return wrapper

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside the block."""
        active = self.patches.active
        self.patches.off()
        try:
            yield
        finally:
            if active:
                self.patches.on()

    def self_times(self):
        """Each span's duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op, rows in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def write(self, path):
        selfs = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\top\tname\tstart_s\tend_s\tself_s\trows\n")
            t0 = self.spans[0][1] if self.spans else 0.0
            for i, ((name, start, end, parent, op, rows), own) in enumerate(
                zip(self.spans, selfs)
            ):
                fh.write(f"{i}\t{parent}\t{op}\t{name}\t{start - t0:.9f}"
                         f"\t{end - t0:.9f}\t{own:.9f}\t{rows}\n")


def graph_counts(out):
    """Tape node count, per-op counts and forward matmul GFLOP behind ``out``."""
    graph = importlib.import_module("itfkan.tensor").Graph.from_output(out)
    ops = Counter(t.op for t in graph.nodes)
    flop = 0
    for t in graph.nodes:
        if t.op == "matmul":
            a, b = t.parents
            flop += 2 * math.prod(a.shape) * b.shape[1]
    counts = {"tensor.tape_nodes": len(graph.nodes)}
    counts.update({f"tensor.ops.{op}": ops.get(op, 0) for op in COUNTED_OPS})
    counts["tensor.matmul_gflop"] = flop / 1e9
    return counts


class GraphCounter:
    """Counts the tape behind the first ``backward`` call after each
    ``arm()``. Every tape counted in a run must give the same counts."""

    def __init__(self):
        self.counts = {}
        self.mismatches = 0
        self._armed = False
        self.patches = Patches([("itfkan.tensor:backward", self._backward_hook)])

    def record(self, out):
        counts = graph_counts(out)
        if not self.counts:
            self.counts = counts
        elif counts != self.counts:
            self.mismatches += 1

    def arm(self):
        self._armed = True

    def _backward_hook(self, fn):
        @functools.wraps(fn)
        def wrapper(loss, *args, **kwargs):
            if self._armed:
                self._armed = False
                self.record(loss)
            return fn(loss, *args, **kwargs)

        return wrapper


class GradGate:
    """Counts ``Adam.step`` calls that find a missing or non-finite gradient."""

    def __init__(self):
        self.failures = 0
        self.patches = Patches([("itfkan.optim:Adam.step", self._hook)])

    def _hook(self, fn):
        @functools.wraps(fn)
        def wrapper(opt, *args, **kwargs):
            if not all(p.grad is not None and np.isfinite(p.grad).all()
                       for p in opt.params):
                self.failures += 1
            return fn(opt, *args, **kwargs)

        return wrapper
