"""Dense float64 tensors with reverse-mode automatic differentiation.

A dynamic tape: each primitive records its parents and a backward rule on
the output tensor whenever recording is enabled and at least one input
requires gradients. ``backward`` walks the recorded graph once, in reverse
topological order, accumulating gradients additively across fan-out.

Only leaves keep a gradient. An op output's ``grad`` lives only until
``backward`` has passed it through the op's backward rule, and is then
None again; leaf tensors end with an owned, writable, row-major ``grad``.
The graph itself (parents and backward rules) is left intact, so a
non-leaf tensor can feed a later graph too.

Gradients are copy-on-write. A backward closure maps the output gradient
``g`` to one array per parent, and a parent's first gradient is held by
reference, so a closure must never write into ``g`` or into an array it
returned: another tensor (a parent, a sibling parent of the same op, or
the op's output) may hold that array as its ``grad``. Only ``backward``
writes into a ``grad``, and only into one it allocated itself.

Elementwise binary ops broadcast only over *leading* batch axes: the
shorter shape must equal the trailing dims of the longer one exactly.
Size-1 stretching inside the common suffix is rejected, which keeps shape
bugs loud in the 4-D time-frequency grid.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import threading
from fractions import Fraction

import numpy as np


class ShapeError(ValueError):
    """Operand shapes do not conform for an op."""

    def __init__(self, op, *shapes):
        self.op = op
        self.shapes = tuple(tuple(s) for s in shapes)
        super().__init__(
            f"{op}: incompatible shapes {' vs '.join(map(str, self.shapes))}"
        )


_state = threading.local()


def is_recording():
    return getattr(_state, "grad_enabled", True)


def _records(parents):
    """Whether an op over ``parents`` goes on the tape."""
    return is_recording() and any(p.requires_grad for p in parents)


class no_grad:
    """Context manager that disables tape recording."""

    def __enter__(self):
        self._prev = is_recording()
        _state.grad_enabled = False
        return self

    def __exit__(self, *exc):
        _state.grad_enabled = self._prev
        return False


class Tensor:
    """A dense float64 array, optionally tracked on the autodiff tape.

    Leaves carry ``op is None``; op outputs remember their parents and a
    closure mapping the output gradient to per-parent gradients.
    """

    __slots__ = ("data", "grad", "requires_grad", "op", "parents", "_backward")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.op = None
        self.parents = ()
        self._backward = None

    @classmethod
    def _from_op(cls, data, op, parents, backward):
        out = cls(data)
        if _records(parents):
            out.requires_grad = True
            out.op = op
            out.parents = tuple(parents)
            out._backward = backward
        return out

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data.reshape(()))

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={tuple(self.shape)}, op={self.op!r}{flag})"

    # operator sugar; scalars and arrays are lifted to constant tensors
    def __add__(self, other):
        return add(self, _lift(other))

    def __radd__(self, other):
        return add(_lift(other), self)

    def __sub__(self, other):
        return sub(self, _lift(other))

    def __rsub__(self, other):
        return sub(_lift(other), self)

    def __mul__(self, other):
        return mul(self, _lift(other))

    def __rmul__(self, other):
        return mul(_lift(other), self)

    def __truediv__(self, other):
        return div(self, _lift(other))

    def __rtruediv__(self, other):
        return div(_lift(other), self)

    def __matmul__(self, other):
        return matmul(self, _lift(other))

    def __neg__(self):
        return neg(self)

    def __pow__(self, n):
        return pow_int(self, n)

    def __getitem__(self, key):
        return slice_(self, key)

    def sum(self, axis=None):
        return sum_axis(self, axis)

    def mean(self, axis=None):
        return mean_axis(self, axis)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def permute(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return permute(self, axes)


def _lift(x):
    return x if isinstance(x, Tensor) else Tensor(x)


class Graph:
    """Topologically ordered record of the ops behind an output tensor.

    ``nodes`` lists every reachable op-output with parents before children,
    so one reverse sweep visits each op exactly once.
    """

    __slots__ = ("nodes",)

    def __init__(self, nodes):
        self.nodes = nodes

    @classmethod
    def from_output(cls, out):
        nodes = []
        seen = set()
        stack = [(out, False)]
        while stack:
            t, expanded = stack.pop()
            if expanded:
                nodes.append(t)
                continue
            if id(t) in seen:
                continue
            seen.add(id(t))
            stack.append((t, True))
            for p in t.parents:
                if p.op is not None and id(p) not in seen:
                    stack.append((p, False))
        return cls(nodes)

    def __len__(self):
        return len(self.nodes)


def backward(loss):
    """Populate ``grad`` on every requires_grad leaf reachable from loss.

    An op output's gradient is released (``grad`` set to None) as soon as
    its backward rule has used it, so the sweep holds only the gradients
    still waiting for their op; after the call every op output's ``grad``
    is None, loss's included. Copy-on-write (see the module docstring): a
    first gradient is held by reference, the first accumulation into it
    allocates and later ones add in place; leaves get an owned copy at the
    end if they need one.
    """
    if loss.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
    graph = Graph.from_output(loss)
    loss.grad = np.ones_like(loss.data)
    owned = set()  # ids of tensors whose grad this call allocated
    leaves = {}
    for t in reversed(graph.nodes):
        if t._backward is None or t.grad is None:
            continue
        grads = t._backward(t.grad)
        t.grad = None  # used: the parents hold what they still need of it
        for p, g in zip(t.parents, grads):
            if g is None or not p.requires_grad:
                continue
            if p.op is None:
                leaves[id(p)] = p
            if p.grad is None:
                p.grad = g
            elif id(p) in owned:
                p.grad += g
            else:
                p.grad = p.grad + g
                owned.add(id(p))
    for p in leaves.values():
        if id(p) not in owned or not p.grad.flags.c_contiguous:
            p.grad = np.array(p.grad, dtype=np.float64, order="C")


# --- broadcasting helpers -------------------------------------------------

def _check_suffix(op, a, b):
    sa, sb = a.shape, b.shape
    if sa == sb:
        return
    small, big = (sa, sb) if len(sa) < len(sb) else (sb, sa)
    if len(small) == len(big) or big[len(big) - len(small):] != small:
        raise ShapeError(op, sa, sb)


def _unbroadcast(g, shape):
    if g.shape == shape:
        return g
    return g.sum(axis=tuple(range(g.ndim - len(shape)))).reshape(shape)


# --- elementwise primitives -----------------------------------------------

def add(a, b):
    _check_suffix("add", a, b)

    def bw(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return Tensor._from_op(a.data + b.data, "add", (a, b), bw)


def sub(a, b):
    _check_suffix("sub", a, b)

    def bw(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return Tensor._from_op(a.data - b.data, "sub", (a, b), bw)


def mul(a, b):
    _check_suffix("mul", a, b)

    def bw(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return Tensor._from_op(a.data * b.data, "mul", (a, b), bw)


def div(a, b):
    _check_suffix("div", a, b)

    def bw(g):
        ga = _unbroadcast(g / b.data, a.shape)
        gb = _unbroadcast(-g * a.data / (b.data * b.data), b.shape)
        return ga, gb

    return Tensor._from_op(a.data / b.data, "div", (a, b), bw)


def neg(a):
    def bw(g):
        return (-g,)

    return Tensor._from_op(-a.data, "neg", (a,), bw)


def pow_int(a, n):
    """a**n for integer n; avoids fractional exponents on negative bases."""
    if not isinstance(n, (int, np.integer)):
        raise TypeError(f"pow_int exponent must be an integer, got {type(n).__name__}")
    n = int(n)
    out = a.data ** n

    def bw(g):
        if n == 0:
            return (np.zeros_like(a.data),)
        return (g * (n * a.data ** (n - 1)),)

    return Tensor._from_op(out, "pow_int", (a,), bw)


def exp(a):
    e = np.exp(a.data)

    def bw(g):
        return (g * e,)

    return Tensor._from_op(e, "exp", (a,), bw)


def sin(a):
    def bw(g):
        return (g * np.cos(a.data),)

    return Tensor._from_op(np.sin(a.data), "sin", (a,), bw)


def cos(a):
    def bw(g):
        return (-g * np.sin(a.data),)

    return Tensor._from_op(np.cos(a.data), "cos", (a,), bw)


def abs_(a):
    def bw(g):
        return (g * np.sign(a.data),)

    return Tensor._from_op(np.abs(a.data), "abs", (a,), bw)


def sigmoid(x, out=None):
    """Elementwise 1 / (1 + exp(-x)) of a float64 array, in one buffer.

    A plain-array helper, not a tape op. The result goes to ``out`` if
    given, else to a new row-major array, whatever x's layout.
    """
    s = np.negative(x, out=np.empty(np.shape(x)) if out is None else out)
    np.exp(s, out=s)
    s += 1.0
    return np.divide(1.0, s, out=s)


def silu(a):
    s = sigmoid(a.data)

    def bw(g):
        return (g * (s * (1.0 + a.data * (1.0 - s))),)

    return Tensor._from_op(a.data * s, "silu", (a,), bw)


# --- reductions and shape ops ----------------------------------------------

def l2_penalty(terms):
    """sum over (t, scale) pairs of scale * sum(t**2), as one tape node.

    Backward sends 2 * scale * t * g to each t. A regulariser over many
    coefficient tensors costs one node instead of a mul/sum/add chain per
    tensor.
    """
    terms = [(t, float(scale)) for t, scale in terms]
    total = 0.0
    for t, scale in terms:
        flat = t.data.reshape(-1)
        total += scale * float(flat @ flat)

    def bw(g):
        return tuple(t.data * (2.0 * scale * g) for t, scale in terms)

    return Tensor._from_op(np.array(total), "l2_penalty", [t for t, _ in terms], bw)


def sum_axis(a, axis=None):
    if axis is None:
        out = a.data.sum()

        def bw(g):
            return (np.broadcast_to(g, a.shape).copy(),)

        return Tensor._from_op(out, "sum", (a,), bw)
    ax = axis if axis >= 0 else a.ndim + axis
    out = a.data.sum(axis=ax)

    def bw(g):
        return (np.broadcast_to(np.expand_dims(g, ax), a.shape).copy(),)

    return Tensor._from_op(out, "sum", (a,), bw)


def mean_axis(a, axis=None):
    if axis is None:
        n = a.size
        out = a.data.mean()

        def bw(g):
            return (np.broadcast_to(g / n, a.shape).copy(),)

        return Tensor._from_op(out, "mean", (a,), bw)
    ax = axis if axis >= 0 else a.ndim + axis
    n = a.shape[ax]
    out = a.data.mean(axis=ax)

    def bw(g):
        return (np.broadcast_to(np.expand_dims(g / n, ax), a.shape).copy(),)

    return Tensor._from_op(out, "mean", (a,), bw)


def reshape(a, shape):
    out = a.data.reshape(shape)

    def bw(g):
        return (g.reshape(a.shape),)

    return Tensor._from_op(out, "reshape", (a,), bw)


def permute(a, axes):
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))

    def bw(g):
        return (g.transpose(inv),)

    return Tensor._from_op(a.data.transpose(axes), "permute", (a,), bw)


def concat(tensors, axis):
    tensors = list(tensors)
    if not tensors:
        raise ValueError("concat of an empty sequence")
    ax = axis if axis >= 0 else tensors[0].ndim + axis
    ref = list(tensors[0].shape)
    for t in tensors[1:]:
        s = list(t.shape)
        if len(s) != len(ref) or s[:ax] != ref[:ax] or s[ax + 1:] != ref[ax + 1:]:
            raise ShapeError("concat", tensors[0].shape, t.shape)
    out = np.concatenate([t.data for t in tensors], axis=ax)
    sizes = [t.shape[ax] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        idx = [slice(None)] * g.ndim
        grads = []
        for i in range(len(sizes)):
            idx[ax] = slice(offsets[i], offsets[i + 1])
            grads.append(g[tuple(idx)])
        return tuple(grads)

    return Tensor._from_op(out, "concat", tuple(tensors), bw)


def slice_(a, key):
    """Basic slicing only (slices and ellipsis; no integers or fancy indexing)."""
    if not isinstance(key, tuple):
        key = (key,)
    for k in key:
        if not isinstance(k, slice) and k is not Ellipsis:
            raise TypeError("slice supports slice objects and ... only")
    out = a.data[key]

    def bw(g):
        full = np.zeros_like(a.data)
        full[key] = g
        return (full,)

    return Tensor._from_op(out, "slice", (a,), bw)


def patch_windows(a, patch_len, stride):
    """Windows of an (N, L, d) series along its time axis, flattened.

    The tail is padded with ``stride`` copies of the last step, and window
    w covers padded steps [w*stride, w*stride + patch_len). Returns
    (N, W, patch_len*d) with each window flattened step-major, where
    W = (L - patch_len) // stride + 2. Backward overlap-adds the window
    gradients into one padded buffer, so overlapping windows
    (stride < patch_len) are summed, then folds the pad onto the last step.
    """
    if a.ndim != 3 or stride < 1 or not 1 <= patch_len <= a.shape[1]:
        raise ShapeError("patch_windows", a.shape, (patch_len, stride))
    n, length, d = a.shape
    count = (length - patch_len) // stride + 2
    tail = np.repeat(a.data[:, -1:], stride, axis=1)
    padded = np.concatenate([a.data, tail], axis=1)
    view = np.lib.stride_tricks.sliding_window_view(padded, patch_len, axis=1)
    # (N, W, d, patch_len) view -> row-major (N, W, patch_len, d) copy
    out = view[:, ::stride].transpose(0, 1, 3, 2).reshape(n, count, patch_len * d)

    def bw(g):
        windows = g.reshape(n, count, patch_len, d)
        buf = np.zeros((n, length + stride, d))
        span = (count - 1) * stride + 1
        for j in range(patch_len):
            buf[:, j : j + span : stride] += windows[:, :, j]
        gx = buf[:, :length]
        gx[:, -1] += buf[:, length:].sum(axis=1)
        return (gx,)

    return Tensor._from_op(out, "patch_windows", (a,), bw)


def matmul(a, b):
    """a @ b with 2-D b; a may carry leading batch axes. Backward computes
    only the gradients of operands that require one."""
    if a.ndim < 1 or b.ndim != 2 or a.shape[-1] != b.shape[0]:
        raise ShapeError("matmul", a.shape, b.shape)
    out = a.data @ b.data

    def bw(g):
        ga = g @ b.data.T if a.requires_grad else None
        gb = None
        if b.requires_grad:
            gb = a.data.reshape(-1, a.shape[-1]).T @ g.reshape(-1, b.shape[1])
        return ga, gb

    return Tensor._from_op(out, "matmul", (a, b), bw)


# --- fused KAN ops ----------------------------------------------------------
#
# Each op below does the work of a chain of the primitives above in one tape
# node with a hand-written backward. Outputs agree with the primitive chains
# to rounding (the test suite keeps those chains as oracles).
#
# The ops' elementwise passes are bound by memory traffic, so each op
# streams its input in slabs along the first leading axis, about SLAB values
# each, small enough to stay in L2 across the op's passes (cache blocking).
# Outputs and input gradients are allocated once, full size, and each slab
# writes its part. The slabs are independent, so ``_slab_loop`` runs them on
# one thread per CPU of the affinity mask, at most MAX_WORKERS (the caller
# plus helper threads started for that loop and joined before it returns),
# with numpy's OpenBLAS set to one thread, for the whole process, so that
# the workers' GEMMs do not contend for cores.
# A slab's weight-gradient partials go to one of a few slots and are added
# to the totals in slab order, so the sums, and every bit, are those of a
# serial loop whatever the thread count; a finished slab's partials wait in
# their slot while an earlier slab runs, so no worker idles for its turn.
# Each worker has one slab of scratch, reused; all workers' scratch and the
# slots are carved from one allocation per forward or backward pass that
# no backward closure keeps: scratch left alive among the full-size arrays
# fragments the heap, which then re-faults its pages every step. The slab
# functions touch only numpy arrays, never a Tensor or the thread-local
# recording state. A slab that is not row-major (the time-axis KANs see a
# permuted (N, d, L) view, patch_kans a permuted grid) is copied while it
# is in cache. The forward arithmetic does not depend on the tape, so a no-grad forward
# equals a taped one bit for bit; only what backward keeps (sigmoids,
# the Fourier prior's unit angle e^{i theta}) depends on whether the op
# is recorded, and that is written slab by slab into full-size arrays.
# What backward can rebuild cheaply from its slab copy of the input (the
# polynomial prior's powers) is not kept at all. Each forward GEMM also
# rounds as the whole batch's GEMM would (see ``_slabs``, ``_slab_rows``
# and ``poly_inject``), so slabbing left the forward's bits unchanged.

SLAB = 2 ** 15  # float64 values per slab of input; chosen by a measured sweep
# threads per slab loop: measured on 2 CPUs only (the elementwise passes
# hold the interpreter lock, and BLAS runs on one thread), so more CPUs
# are left unused until a benchmark on a larger machine shows they help
MAX_WORKERS = 2
MAX_MULTIPLE = 512  # largest harmonic of the common base fourier_inject builds


def _slabs(shape):
    """Slices of the first axis of an array of ``shape``, each holding about
    SLAB values, and the 2-D (rows, last axis) row count of the largest.

    The slices are balanced, so none holds under half a slab unless the
    whole array fits in one: BLAS rounds a GEMM of a few rows differently
    from a large one (OpenBLAS's small-matrix kernel), and at the KAN
    layers' widths a slab's GEMMs then round as the whole array's would.
    """
    n = shape[0]
    count = min(n, -(-n * max(math.prod(shape[1:]), 1) // SLAB))
    slices = [slice(n * i // count, n * (i + 1) // count) for i in range(count)]
    widest = max((sl.stop - sl.start for sl in slices), default=0)
    return slices, widest * math.prod(shape[1:-1])


def _buffers(*sizes):
    """Flat buffers of the given sizes (in float64 values), carved from one
    allocation that lives only as long as the caller uses them."""
    block = np.empty(sum(sizes))
    ends = np.cumsum(sizes, dtype=int)
    return [block[end - n : end] for n, end in zip(sizes, ends)]


# OpenBLAS's thread-count setters, by the symbol prefixes and suffixes of its
# builds: numpy's wheels bundle it as scipy_openblas with 64-bit integers.
_BLAS_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)


@functools.cache
def _blas_setters():
    """The thread-count setters of every OpenBLAS mapped into the process,
    found without calling any of them."""
    try:
        with open("/proc/self/maps") as maps:  # address perms offset dev inode path
            fields = [line.split(None, 5) for line in maps]
        paths = {f[5].strip() for f in fields if len(f) == 6 and "openblas" in f[5]}
    except OSError:
        return ()
    setters = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)  # the mapped library itself, not a new copy
        except OSError:
            continue
        setter = next((getattr(lib, s) for s in _BLAS_SETTERS if hasattr(lib, s)), None)
        if setter is not None:
            setter.argtypes = [ctypes.c_int]
            setter.restype = None
            setters.append(setter)
    return tuple(setters)


@functools.cache
def _blas_on_one_thread():
    """Set every OpenBLAS mapped into the process to one thread, once and for
    every BLAS call the process makes after; whether any was found.

    Concurrent GEMMs on a multi-threaded OpenBLAS are slower than serial
    ones: its threads contend with the slab workers for the cores, and spin
    between calls. OPENBLAS_NUM_THREADS cannot help once numpy is loaded,
    so this reaches the loaded library's own setter instead.
    """
    for setter in _blas_setters():
        setter(1)
    return bool(_blas_setters())


def _workers(count):
    """Threads for a loop over ``count`` slabs: one per CPU of the affinity
    mask, read at call time, at most MAX_WORKERS and at most one per slab.
    One, unless BLAS could be set to one thread."""
    workers = min(len(os.sched_getaffinity(0)), MAX_WORKERS, count)
    if workers > 1 and not _blas_on_one_thread():
        return 1
    return max(workers, 1)


# Finished slabs' partials that may wait per worker. On the reference
# training step (2 CPUs, values alternated step by step), a step's workers
# waited for a slot a median 19 ms with 1, 4-7 ms with 2, 3-4 ms with 4 and
# 4 ms with 8; 2 lost 31 of 50 steps to 4 (median +13 ms) on a loaded host,
# and 8 gained nothing over 4. A slot is at most 222 KB there.
_PARTIAL_SLOTS = 4


class _SlabLoop:
    """The state one ``_slab_loop`` shares between its workers.

    Slab i writes its partials into slot i % len(slots). Whichever worker
    finishes a slab adds every finished slab's partials that are next in
    slab order to the totals, and frees their slots; a worker waits only
    when the slot of the next slab still holds unsummed partials."""

    def __init__(self, slices, work, totals, scratch, slots):
        self.slices, self.work, self.totals = slices, work, totals
        self.scratch, self.slots = scratch, slots
        self.done = [False] * len(slots)  # a slot holds a finished slab's partials
        self.cond = threading.Condition()
        self.taken = 0  # slabs handed out, in order
        self.summed = 0  # slabs whose partials are in the totals
        self.error = None

    def _take(self):
        with self.cond:
            self.cond.wait_for(
                lambda: self.error is not None
                or self.taken == len(self.slices)
                or self.taken - self.summed < len(self.slots)
            )
            if self.error is not None or self.taken == len(self.slices):
                return None
            self.taken += 1
            return self.taken - 1

    def _finish(self, i):
        with self.cond:
            self.done[i % len(self.slots)] = True
            while self.summed < self.taken and self.done[self.summed % len(self.slots)]:
                slot = self.summed % len(self.slots)
                for total, part in zip(self.totals, self.slots[slot]):
                    total += part
                self.done[slot] = False
                self.summed += 1
            self.cond.notify_all()

    def fail(self, exc):
        with self.cond:
            if self.error is None:
                self.error = exc
            self.cond.notify_all()

    def run(self, worker):
        """Take slabs until none is left or a worker has failed."""
        bufs = self.scratch[worker]
        try:
            while (i := self._take()) is not None:
                self.work(self.slices[i], bufs, self.slots[i % len(self.slots)])
                self._finish(i)
        except BaseException as exc:
            self.fail(exc)


def _slab_loop(slices, sizes, work, totals=()):
    """Run ``work(sl, bufs, parts)`` for every slab slice in ``slices`` on
    ``_workers(len(slices))`` threads: the caller and helper threads started
    here, all joined before this returns.

    ``bufs`` is the worker's scratch, flat buffers of ``sizes`` values.
    ``parts`` holds one array per array in ``totals``, of its shape, into
    which ``work`` writes the slab's partials; they are added to the totals
    in slab order, so the sums are the serial loop's bit for bit. An
    exception raised by any worker stops the others and is raised here.
    """
    workers = _workers(len(slices))
    # without totals a slot is an empty list, and one per slab never waits
    n_slots = max(min(_PARTIAL_SLOTS * workers, len(slices)) if totals else len(slices), 1)
    flat = _buffers(*(tuple(sizes) * workers), *(tuple(t.size for t in totals) * n_slots))
    scratch = [flat[w * len(sizes) : (w + 1) * len(sizes)] for w in range(workers)]
    rest = flat[workers * len(sizes) :]
    slots = [
        [b.reshape(t.shape) for b, t in zip(rest[k * len(totals) :], totals)]
        for k in range(n_slots)
    ]
    loop = _SlabLoop(slices, work, totals, scratch, slots)
    threads = []
    try:
        for worker in range(1, workers):
            thread = threading.Thread(target=loop.run, args=(worker,), name="itfkan-slab")
            thread.start()
            threads.append(thread)
        loop.run(0)
    except BaseException as exc:  # a helper that could not start
        loop.fail(exc)
    finally:
        for thread in threads:
            thread.join()
    if loop.error is not None:
        raise loop.error


def _scratch(buf, shape):
    """The front of the flat scratch buffer ``buf`` viewed as ``shape``."""
    return buf[: math.prod(shape)].reshape(shape)


def _slab(a, sl, buf):
    """a[sl] in row-major order: a view if it already is, else a copy in the
    front of ``buf``."""
    part = a[sl]
    if part.flags.c_contiguous:
        return part
    dst = _scratch(buf, part.shape)
    np.copyto(dst, part)
    return dst


def _slab_rows(a, sl, buf):
    """a[sl] as a 2-D (rows, last axis) GEMM operand: a view if a[sl] is
    row-major, else a column-major copy in the front of ``buf``.

    For a permuted view whose last axis varies slowest, as the time-axis
    KANs' (N, d, L) input, numpy's batched matmul hands BLAS each (d, L)
    matrix transposed. Column-major, the slab enters its GEMM transposed
    too, and BLAS rounds it the same whatever its row count; a row-major
    copy of a few rows would take OpenBLAS's small-matrix kernel instead.
    """
    part = a[sl]
    width = a.shape[-1]
    if part.flags.c_contiguous:
        return part.reshape(-1, width)
    rows = part.size // width
    dst = _scratch(buf, (width, rows)).T
    np.copyto(dst.reshape(part.shape), part)
    return dst


def _rows(a):
    """A row-major array viewed as 2-D (rows, last axis)."""
    return a.reshape(-1, a.shape[-1])


def _mm(a, b):
    """a @ b over the last axis of a, for 2-D b: one GEMM when a is
    row-major, a batched matmul over a's strides otherwise (no copy)."""
    if a.flags.c_contiguous:
        return (_rows(a) @ b).reshape(a.shape[:-1] + (b.shape[1],))
    return a @ b


def _batched(a):
    """An op input with at least one leading axis: 1-D becomes one row."""
    return a if a.ndim > 1 else a[None]


def taylor_kan(x, w, a0, a1, a2, prior=None):
    """Adjustable Taylor-KAN block along the last axis of x.

    out[..., j] = sum_i w[j, i] * (silu(x_i) + a0[j, i] + a1[j, i] x_i
    + a2[j, i] x_i^2), with w and the a's of shape (out, in). Forward
    evaluates the sigmoid once; backward reuses it, summing the weight
    gradients' GEMMs over the basis [silu(x), x, x^2] across slabs and taking
    each slab's input gradient from GEMMs with [w, w*a1, 2*w*a2].

    ``prior``, if given, is a tensor of shape x.shape[:-1] + (r,): a first
    layer's injected edges. Its values then fill the output's first r
    columns and the block's fill the rest, so the layer's output is one
    array and one tape node with no concatenation.
    """
    if (
        w.ndim != 2
        or not w.shape == a0.shape == a1.shape == a2.shape
        or x.ndim < 1
        or x.shape[-1] != w.shape[1]
        or prior is not None and prior.shape[:-1] != x.shape[:-1]
    ):
        operands = (x, w, a0, a1, a2, prior)
        raise ShapeError("taylor_kan", *(t.shape for t in operands if t is not None))
    parents = (x, w, a0, a1, a2) + (() if prior is None else (prior,))
    keep = _records(parents)
    xd, wd = _batched(x.data), w.data
    n_out, n_in = wd.shape
    lead = 0 if prior is None else prior.shape[-1]
    wa1 = wd * a1.data
    wa2 = wd * a2.data
    const = (wd * a0.data).sum(axis=1)
    slices, rows = _slabs(xd.shape)
    full = np.empty(xd.shape[:-1] + (lead + n_out,))
    if prior is not None:
        full[..., :lead] = _batched(prior.data)
    sig = np.empty(xd.shape) if keep else None

    def forward(sl, bufs, _):
        xbuf, basis_buf, tbuf = bufs
        xs = _rows(_slab(xd, sl, xbuf))
        basis = _scratch(basis_buf, xs.shape)
        t = _scratch(tbuf, (xs.shape[0], n_out))
        # without a tape the sigmoid lives in the basis scratch it feeds
        s = sigmoid(xs, out=_rows(sig[sl]) if keep else basis)
        o = _rows(full[sl])[:, lead:]
        np.matmul(np.multiply(s, xs, out=basis), wd.T, out=o)
        o += np.matmul(_slab_rows(xd, sl, basis_buf), wa1.T, out=t)
        o += np.matmul(np.square(xs, out=basis), wa2.T, out=t)
        o += const

    _slab_loop(slices, (rows * n_in, rows * n_in, rows * n_out), forward)

    def bw(g):
        g = g.reshape(full.shape)
        g_prior = g[..., :lead]
        g = g[..., lead:]
        gx = np.empty(xd.shape)
        coeffs = np.zeros((3, n_out, n_in))  # summed over the basis silu(x), x, x^2
        g_sum = np.zeros(n_out)
        w_quad = 2.0 * wa2

        def slab(sl, bufs, parts):
            gbuf, xbuf, silu_buf, sq_buf, tb = bufs
            part, part_sum = parts
            gs = _rows(_slab(g, sl, gbuf))
            xs = _rows(_slab(xd, sl, xbuf))
            s = _rows(sig[sl])
            silu_x = np.multiply(s, xs, out=_scratch(silu_buf, xs.shape))
            sq = np.square(xs, out=_scratch(sq_buf, xs.shape))
            t = _scratch(tb, xs.shape)
            np.matmul(gs.T, silu_x, out=part[0])
            np.matmul(gs.T, xs, out=part[1])
            np.matmul(gs.T, sq, out=part[2])
            np.sum(gs, axis=0, out=part_sum)
            # silu'(x) = s + silu(x) * (1 - s)
            gxs = np.subtract(1.0, s, out=_rows(gx[sl]))
            gxs *= silu_x
            gxs += s
            gxs *= np.matmul(gs, wd, out=t)
            gxs += np.matmul(gs, wa1, out=t)
            gxs += np.multiply(np.matmul(gs, w_quad, out=t), xs, out=sq)

        sizes = (rows * n_out,) + (rows * n_in,) * 4
        _slab_loop(slices, sizes, slab, totals=(coeffs, g_sum))
        c_silu, c_lin, c_quad = coeffs
        g_sum = g_sum[:, None]
        gw = c_silu + c_lin * a1.data + c_quad * a2.data + g_sum * a0.data
        grads = (gx.reshape(x.shape), gw, g_sum * wd, c_lin * wd, c_quad * wd)
        return grads + (() if prior is None else (g_prior.reshape(prior.shape),))

    out_shape = x.shape[:-1] + (lead + n_out,)
    return Tensor._from_op(full.reshape(out_shape), "taylor_kan", parents, bw)


def poly_inject(x, coeffs):
    """Polynomial prior edges along the last axis of x.

    out = sum_{k>=1} x^k @ coeffs[k] + coeffs[0].sum(axis=0), with every
    coefficient tensor (in, r). Powers are built by repeated products,
    x^k = x^{k-1} * x. Backward keeps none of them: it rebuilds each slab's
    powers by the same products, which gives the forward's bits.
    """
    coeffs = tuple(coeffs)
    if (
        len(coeffs) < 2
        or any(c.ndim != 2 or c.shape != coeffs[0].shape for c in coeffs)
        or x.ndim < 1
        or x.shape[-1] != coeffs[0].shape[0]
    ):
        raise ShapeError("poly_inject", x.shape, *(c.shape for c in coeffs))
    parents = (x,) + coeffs
    xd = _batched(x.data)
    n_in, n_out = coeffs[0].shape
    # Only the backward runs in slabs. The forward keeps whole-batch GEMMs:
    # with r output columns they are narrow enough that OpenBLAS picks their
    # kernel, and so their rounding, by row count up to thousands of rows,
    # and slabs would change the forward's bits.
    out = _mm(xd, coeffs[1].data)
    power = xd
    for c in coeffs[2:]:
        power = np.multiply(power, xd, order="C")
        out += _mm(power, c.data)
    out += coeffs[0].data.sum(axis=0)

    def bw(g):
        g = g.reshape(out.shape)
        gx = np.empty(xd.shape)
        grads = [np.zeros(c.shape) for c in coeffs[1:]]
        g_sum = np.zeros(n_out)
        slices, rows = _slabs(xd.shape)

        def slab(sl, bufs, parts):
            xbuf, tb, gbuf, *pbufs = bufs
            part_sum, *part = parts
            gs = _rows(_slab(g, sl, gbuf))
            xs = _rows(_slab(xd, sl, xbuf))
            np.sum(gs, axis=0, out=part_sum)
            gxs = np.matmul(gs, coeffs[1].data.T, out=_rows(gx[sl]))
            np.matmul(xs.T, gs, out=part[0])
            prev = xs  # x^{k-1}
            for k, (grad, c) in enumerate(zip(part[1:], coeffs[2:]), start=2):
                pk = np.multiply(prev, xs, out=_scratch(pbufs[k % 2], xs.shape))
                np.matmul(pk.T, gs, out=grad)
                slope = np.matmul(gs, c.data.T, out=_scratch(tb, gxs.shape))
                slope *= prev
                slope *= k
                gxs += slope
                prev = pk

        sizes = (rows * n_in, rows * n_in, rows * n_out, rows * n_in, rows * n_in)
        _slab_loop(slices, sizes, slab, totals=(g_sum, *grads))
        g_const = np.broadcast_to(g_sum, coeffs[0].shape)
        return (gx.reshape(x.shape), g_const) + tuple(grads)

    out_shape = x.shape[:-1] + (n_out,)
    return Tensor._from_op(out.reshape(out_shape), "poly_inject", parents, bw)


def harmonic_base(freqs):
    """The largest base b of which every frequency is an integer multiple,
    and those multiples: ``(b, multiples)`` with f_k = multiples[k] * b.

    The prior's frequencies 2*bin/L always have one, b = 2*gcd(bins)/L;
    ``fourier_inject`` builds its harmonics from it. Each ratio
    f_k / f_0 must equal a fraction of denominator at most MAX_MULTIPLE to
    within a few ulp, and no multiple may exceed MAX_MULTIPLE; otherwise a
    ValueError names the frequency.
    """
    freqs = [float(f) for f in np.ravel(freqs)]
    if not freqs:
        raise ValueError("need at least one frequency")
    for f in freqs:
        if not (math.isfinite(f) and f > 0.0):
            raise ValueError(f"frequency {f!r} is not finite and positive")
    first = freqs[0]
    ratios = []
    for f in freqs:
        r = f / first
        q = Fraction(r).limit_denominator(MAX_MULTIPLE)
        if abs(r - q.numerator / q.denominator) > 8.0 * np.finfo(np.float64).eps * r:
            raise ValueError(
                f"frequency {f!r} is not a multiple of a base common to "
                f"{first!r}: their ratio {r!r} is no fraction with a "
                f"denominator up to {MAX_MULTIPLE}"
            )
        ratios.append(q)
    scale = math.lcm(*(q.denominator for q in ratios))
    base = first / scale
    multiples = [q.numerator * (scale // q.denominator) for q in ratios]
    for f, m in zip(freqs, multiples):
        if m > MAX_MULTIPLE:
            raise ValueError(
                f"frequency {f!r} is {m} times the common base {base!r}, "
                f"above the cap of {MAX_MULTIPLE}"
            )
    return base, np.array(multiples)


def _complex(buf, shape):
    """The front of the flat float64 scratch ``buf`` as a complex array."""
    return buf[: 2 * math.prod(shape)].view(np.complex128).reshape(shape)


def _harmonics(unit, multiples, order, double_buf, step_buf):
    """Yield (j, e^{i m_j theta}) for j in ``order``, which lists the
    multiples ascending, from unit = e^{i theta}.

    A complex product is angle addition: e^{2i theta} = unit^2 (cos 2theta
    = cos^2 - sin^2, sin 2theta = 2 sin cos) once, then each harmonic is the
    last one times e^{2i theta} until one step is left, and times e^{i
    theta} for that step. A yielded array is overwritten by the next one.
    """
    double = np.multiply(unit, unit, out=_complex(double_buf, unit.shape))
    step = _complex(step_buf, unit.shape)
    h, pos = unit, 1
    for j in order:
        while pos + 2 <= multiples[j]:
            h = np.multiply(h, double, out=step)
            pos += 2
        if pos < multiples[j]:
            h = np.multiply(h, unit, out=step)
            pos += 1
        yield j, h


def fourier_inject(x, freqs, cos_coeffs, sin_coeffs):
    """Fourier prior edges along the last axis of x.

    out = sum_k cos(f_k pi x) @ cos_coeffs[k+1] + sin(f_k pi x) @
    sin_coeffs[k] + cos_coeffs[0].sum(axis=0) / 2, with every coefficient
    tensor (in, r).

    The frequencies must be integer multiples m_k of one base b
    (``harmonic_base``; ValueError otherwise), as the prior's 2*bin/L are.
    Each slab then calls np.cos and np.sin once, on the unit angle
    theta = b pi x, whatever the number of frequencies, and builds every
    harmonic e^{i m_k theta} from e^{i theta} by angle addition
    (``_harmonics``). A harmonic's cos and sin sit interleaved in one
    complex array, so one GEMM against the interleaved coefficients gives
    both of its terms. Backward keeps only e^{i theta}, two values per
    input, and rebuilds the harmonics slab by slab.

    A harmonic's rounding error grows with the steps taken to reach it.
    Against np.cos/np.sin(f pi x) over |x| <= 20 it measured at most
    1.7e-14 for every multiple 1..48 at L = 96, and 4.2e-14 up to the cap
    MAX_MULTIPLE = 512 (at L = 1024).
    """
    freqs = np.asarray(freqs, dtype=np.float64)
    cos_coeffs, sin_coeffs = tuple(cos_coeffs), tuple(sin_coeffs)
    coeffs = cos_coeffs + sin_coeffs
    if (
        freqs.size < 1
        or len(cos_coeffs) != freqs.size + 1
        or len(sin_coeffs) != freqs.size
        or any(c.ndim != 2 or c.shape != coeffs[0].shape for c in coeffs)
        or x.ndim < 1
        or x.shape[-1] != coeffs[0].shape[0]
    ):
        raise ShapeError("fourier_inject", x.shape, *(c.shape for c in coeffs))
    base, multiples = harmonic_base(freqs)
    order = np.argsort(multiples, kind="stable")
    parents = (x,) + coeffs
    keep = _records(parents)
    xd = _batched(x.data)
    n_in, n_out = coeffs[0].shape
    # harmonic j's GEMM operand: rows 2i, 2i+1 weight cos, sin of input i,
    # the order of e^{i m_j theta}'s (real, imag) pairs viewed as float64
    mix = np.stack(
        [np.stack([c.data for c in cos_coeffs[1:]]), np.stack([c.data for c in sin_coeffs])],
        axis=2,
    ).reshape(freqs.size, 2 * n_in, n_out)
    slices, rows = _slabs(xd.shape)
    out = np.empty(xd.shape[:-1] + (n_out,))
    unit = np.empty(xd.shape, dtype=np.complex128) if keep else None
    const = cos_coeffs[0].data.sum(axis=0) * 0.5

    def forward(sl, bufs, _):
        zbuf, dbuf, hbuf, tbuf = bufs
        part = xd[sl]
        z = unit[sl] if keep else _complex(zbuf, part.shape)
        # e^{i theta} with theta = b pi x: the slab's one cos and one sin
        theta = np.multiply(part, base * np.pi, out=z.imag)
        np.cos(theta, out=z.real)
        np.sin(theta, out=theta)
        z = _rows(z)
        o = _rows(out[sl])
        for n, (j, h) in enumerate(_harmonics(z, multiples, order, dbuf, hbuf)):
            term = _scratch(tbuf, o.shape) if n else o
            np.matmul(h.view(np.float64), mix[j], out=term)
            if n:
                o += term
        o += const

    sizes = (rows * 2 * n_in,) * 3 + (rows * n_out,)
    _slab_loop(slices, sizes, forward)

    def bw(g):
        g = g.reshape(out.shape)
        gx = np.zeros(xd.shape)
        g_mix = np.zeros(mix.shape)
        g_sum = np.zeros(n_out)
        # d/dx (a cos + b sin)(f pi x) = f pi Im(e^{i f pi x} (-a + i b))
        flip = np.array([-1.0, 1.0])[:, None] * (freqs * np.pi)[:, None, None, None]
        slope = (mix.reshape(freqs.size, n_in, 2, n_out) * flip).reshape(mix.shape)

        def slab(sl, bufs, parts):
            dbuf, hbuf, wbuf, gbuf = bufs
            part_mix, part_sum = parts
            gs = _rows(_slab(g, sl, gbuf))
            gxs = _rows(gx[sl])
            np.sum(gs, axis=0, out=part_sum)
            for j, h in _harmonics(_rows(unit[sl]), multiples, order, dbuf, hbuf):
                np.matmul(h.view(np.float64).T, gs, out=part_mix[j])
                w = np.matmul(gs, slope[j].T, out=_scratch(wbuf, (gs.shape[0], 2 * n_in)))
                wz = w.view(np.complex128)
                wz *= h
                gxs += wz.imag

        _slab_loop(slices, sizes, slab, totals=(g_mix, g_sum))
        g_pairs = g_mix.reshape(freqs.size, n_in, 2, n_out)
        g_const = np.broadcast_to(g_sum * 0.5, cos_coeffs[0].shape)
        return (
            (gx.reshape(x.shape), g_const)
            + tuple(g_pairs[:, :, 0])
            + tuple(g_pairs[:, :, 1])
        )

    return Tensor._from_op(
        out.reshape(x.shape[:-1] + (n_out,)), "fourier_inject", parents, bw
    )


def patch_kans(grid, params):
    """Single-layer Taylor-KANs, one per patch, averaged over their outputs.

    grid is (N, K, P, d) and params holds P tuples (w, a0, a1, a2) of
    (K, K) tensors. Patch p maps grid[n, :, p, c] through its KAN and takes
    the mean of the K outputs, giving out[n, p, c] (shape (N, P, d)).
    The mean commutes with the edge sum, so each patch reduces to K-vector
    dot products with the column means of w, w*a1 and w*a2, plus a constant.
    The grid is read in slabs: no per-patch slices.
    """
    params = [tuple(ps) for ps in params]
    if grid.ndim != 4 or grid.shape[2] != len(params):
        raise ShapeError("patch_kans", grid.shape, (len(params),))
    k_bins = grid.shape[1]
    for ps in params:
        if len(ps) != 4 or any(t.shape != (k_bins, k_bins) for t in ps):
            raise ShapeError("patch_kans", grid.shape, *(t.shape for t in ps))
    parents = (grid,) + tuple(t for ps in params for t in ps)
    keep = _records(parents)
    w, a0, a1, a2 = (np.stack([ps[i].data for ps in params]) for i in range(4))
    # column means, laid out (K inputs, P patches)
    u = w.mean(axis=1).T
    v = (w * a1).mean(axis=1).T
    q = (w * a2).mean(axis=1).T
    const = (w * a0).sum(axis=2).mean(axis=1)[:, None]
    td = grid.data
    slices, rows = _slabs(td.shape)
    size = rows * td.shape[-1]
    out = np.empty((td.shape[0],) + td.shape[2:])
    sig = np.empty(td.shape) if keep else None

    def forward(sl, bufs, _):
        tbuf, basis_buf, obuf = bufs
        ts = _slab(td, sl, tbuf)
        basis = _scratch(basis_buf, ts.shape)
        # without a tape the sigmoid lives in the basis scratch it feeds
        s = sigmoid(ts, out=sig[sl] if keep else basis)
        o = out[sl]
        term = _scratch(obuf, o.shape)
        np.einsum("nipc,ip->npc", np.multiply(s, ts, out=basis), u, out=o)
        o += np.einsum("nipc,ip->npc", ts, v, out=term)
        o += np.einsum("nipc,ip->npc", np.square(ts, out=basis), q, out=term)
        o += const

    _slab_loop(slices, (size, size, size // k_bins), forward)

    def bw(g):
        gt = np.empty(td.shape)
        coeffs = np.zeros((3, len(params), k_bins))  # summed over silu(t), t, t^2
        g_c = np.zeros(len(params))
        q2 = 2.0 * q[:, :, None]

        def slab(sl, bufs, parts):
            tbuf, silu_buf, sq_buf = bufs
            part, part_c = parts
            ts = _slab(td, sl, tbuf)
            s = sig[sl]
            gs = g[sl]
            silu_t = np.multiply(ts, s, out=_scratch(silu_buf, ts.shape))
            sq = np.square(ts, out=_scratch(sq_buf, ts.shape))
            np.einsum("npc,nipc->pi", gs, silu_t, out=part[0])
            np.einsum("npc,nipc->pi", gs, ts, out=part[1])
            np.einsum("npc,nipc->pi", gs, sq, out=part[2])
            np.sum(gs, axis=(0, 2), out=part_c)
            # d out / d grid = silu'(t) u + v + 2 t q, with silu' = s + silu (1 - s)
            gts = np.subtract(1.0, s, out=gt[sl])
            gts *= silu_t
            gts += s
            gts *= u[:, :, None]
            gts += np.multiply(ts, q2, out=sq)
            gts += v[:, :, None]
            gts *= gs[:, None]

        _slab_loop(slices, (size, size, size), slab, totals=(coeffs, g_c))
        # broadcast the per-column means back over the K output rows
        scale = 1.0 / k_bins
        g_u, g_v, g_q = (t[:, None, :] * scale for t in coeffs)
        g_c = g_c[:, None, None] * scale
        gw = g_u + g_v * a1 + g_q * a2 + g_c * a0
        ga0, ga1, ga2 = g_c * w, g_v * w, g_q * w
        grads = [gt]
        for p in range(len(params)):
            grads += [gw[p], ga0[p], ga1[p], ga2[p]]
        return tuple(grads)

    return Tensor._from_op(out, "patch_kans", parents, bw)
