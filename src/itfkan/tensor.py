"""Dense float64 tensors with reverse-mode automatic differentiation.

A dynamic tape: each primitive records a ``Node`` for its output whenever
recording is enabled and at least one input requires gradients. A node
holds the op's name, its parents, its backward rule, the output's shape
and, during ``backward`` only, the output's gradient; it holds no tensor
data. A parent is held as its node if it is an op output and as the
tensor itself if it is a leaf, so an op output's data lives only as long
as the caller keeps its ``Tensor``, or a backward rule reads it. A
closure captures only the arrays its rule reads, and shapes for the
rest. ``backward`` walks the recorded nodes once, in reverse topological
order, accumulating gradients additively across fan-out.

Only leaves keep a gradient. A node's ``grad`` lives only until
``backward`` has passed it through the op's backward rule, and is then
None again; leaf tensors end with an owned, writable, row-major ``grad``.
``backward`` consumes the graph: it drops each rule, and the arrays the
rule's closure holds, as soon as the rule has run. A graph can therefore
be swept once. A second ``backward`` over it, or over a new graph that a
non-leaf tensor of it feeds, raises ``RuntimeError``; rebuild the graph
from its leaves instead.

Gradients are copy-on-write. A backward closure maps the output gradient
``g`` to one array per parent, and a parent's first gradient is held by
reference, so a closure must never write into ``g`` or into an array it
returned: another node or leaf (a parent, a sibling parent of the same
op, or the op's output) may hold that array as its ``grad``. Only
``backward`` writes into a ``grad``, and only into one it allocated itself.

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


class Node:
    """One recorded op: its name, parents, backward rule and output shape.

    ``parents`` holds each parent's node, or the parent tensor itself if
    it is a leaf; ``grad`` holds the output's gradient while ``backward``
    runs. A node holds no tensor data beyond what its rule's closure reads,
    and ``backward`` sets the rule to None once it has run.
    """

    __slots__ = ("op", "parents", "backward", "grad", "shape")
    requires_grad = True  # as a parent, an op output always takes a gradient

    def __init__(self, op, parents, backward, shape):
        self.op = op
        self.parents = parents
        self.backward = backward
        self.grad = None
        self.shape = shape


class Tensor:
    """A dense float64 array, optionally tracked on the autodiff tape.

    A recorded op output carries its ``Node``; ``op``, ``parents`` and
    ``_backward`` read it, and are None, () and None for a leaf.
    """

    __slots__ = ("data", "grad", "requires_grad", "_node")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._node = None

    @classmethod
    def _from_op(cls, data, op, parents, backward):
        out = cls(data)
        if _records(parents):
            out.requires_grad = True
            nodes = tuple(p if p._node is None else p._node for p in parents)
            out._node = Node(op, nodes, backward, out.data.shape)
        return out

    @property
    def op(self):
        return None if self._node is None else self._node.op

    @property
    def parents(self):
        return () if self._node is None else self._node.parents

    @property
    def _backward(self):
        return None if self._node is None else self._node.backward

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

    ``nodes`` lists the ``Node`` of every reachable op output with parents
    before children, so one reverse sweep visits each op exactly once. A
    leaf has no ops behind it: its graph is empty.
    """

    __slots__ = ("nodes",)

    def __init__(self, nodes):
        self.nodes = nodes

    @classmethod
    def from_output(cls, out):
        nodes = []
        seen = set()
        stack = [] if out._node is None else [(out._node, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                nodes.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node.parents:
                if isinstance(p, Node) and id(p) not in seen:
                    stack.append((p, False))
        return cls(nodes)

    def __len__(self):
        return len(self.nodes)


def backward(loss):
    """Populate ``grad`` on every requires_grad leaf reachable from loss.

    Consumes the graph: a node's gradient and its backward rule are
    released (set to None) as soon as the rule has run, so the sweep holds
    only the gradients still waiting for their op and the arrays of the
    rules not yet run. After the call every node's ``grad`` and
    ``backward`` are None, loss's included. A graph holding a node that an
    earlier call consumed raises ``RuntimeError`` before any gradient is
    touched. Copy-on-write (see the module docstring): a first gradient is
    held by reference, the first accumulation into it allocates and later
    ones add in place; leaves get an owned copy at the end if they need one.
    """
    if loss.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
    if loss._node is None:
        loss.grad = np.ones_like(loss.data)
        return
    graph = Graph.from_output(loss)
    for node in reversed(graph.nodes):  # the consumed node nearest loss
        if node.backward is None:
            raise RuntimeError(
                f"backward: the graph through {node.op!r} was consumed by an "
                "earlier backward; rebuild it from its leaves"
            )
    loss._node.grad = np.ones_like(loss.data)
    owned = set()  # ids of nodes and leaves whose grad this call allocated
    leaves = {}
    for node in reversed(graph.nodes):
        if node.grad is None:
            node.backward = None
            continue
        grads = node.backward(node.grad)
        # used: the parents hold what they still need of the gradient, and
        # the rule's arrays go with the rule
        node.grad = node.backward = None
        for p, g in zip(node.parents, grads):
            if g is None or not p.requires_grad:
                continue
            if not isinstance(p, Node):
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
    sa, sb = a.shape, b.shape

    def bw(g):
        return _unbroadcast(g, sa), _unbroadcast(g, sb)

    return Tensor._from_op(a.data + b.data, "add", (a, b), bw)


def sub(a, b):
    _check_suffix("sub", a, b)
    sa, sb = a.shape, b.shape

    def bw(g):
        return _unbroadcast(g, sa), _unbroadcast(-g, sb)

    return Tensor._from_op(a.data - b.data, "sub", (a, b), bw)


def mul(a, b):
    """a * b. As in ``matmul``, each operand's data is kept only for the
    other operand's gradient, and backward computes only the gradients of
    operands that required one at forward time."""
    _check_suffix("mul", a, b)
    sa, sb = a.shape, b.shape
    bd = b.data if a.requires_grad else None
    ad = a.data if b.requires_grad else None

    def bw(g):
        ga = None if bd is None else _unbroadcast(g * bd, sa)
        gb = None if ad is None else _unbroadcast(g * ad, sb)
        return ga, gb

    return Tensor._from_op(a.data * b.data, "mul", (a, b), bw)


def div(a, b):
    """a / b. Like ``mul``, keeps a's data only for b's gradient and
    computes only the gradients of operands that required one."""
    _check_suffix("div", a, b)
    sa, bd = a.shape, b.data
    grad_a = a.requires_grad
    ad = a.data if b.requires_grad else None

    def bw(g):
        ga = _unbroadcast(g / bd, sa) if grad_a else None
        gb = None if ad is None else _unbroadcast(-g * ad / (bd * bd), bd.shape)
        return ga, gb

    return Tensor._from_op(a.data / bd, "div", (a, b), bw)


def pow_int(a, n):
    """a**n for integer n; avoids fractional exponents on negative bases."""
    if not isinstance(n, (int, np.integer)):
        raise TypeError(f"pow_int exponent must be an integer, got {type(n).__name__}")
    n = int(n)
    ad = a.data
    out = ad ** n

    def bw(g):
        if n == 0:
            return (np.zeros_like(ad),)
        return (g * (n * ad ** (n - 1)),)

    return Tensor._from_op(out, "pow_int", (a,), bw)


def sin(a):
    ad = a.data

    def bw(g):
        return (g * np.cos(ad),)

    return Tensor._from_op(np.sin(ad), "sin", (a,), bw)


def cos(a):
    ad = a.data

    def bw(g):
        return (-g * np.sin(ad),)

    return Tensor._from_op(np.cos(ad), "cos", (a,), bw)


def abs_(a):
    ad = a.data

    def bw(g):
        return (g * np.sign(ad),)

    return Tensor._from_op(np.abs(ad), "abs", (a,), bw)


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
    ad = a.data
    s = sigmoid(ad)

    def bw(g):
        return (g * (s * (1.0 + ad * (1.0 - s))),)

    return Tensor._from_op(ad * s, "silu", (a,), bw)


# --- reductions and shape ops ----------------------------------------------

def l2_penalty(terms):
    """sum over (t, scale) pairs of scale * sum(t**2), as one tape node.

    Backward sends 2 * scale * t * g to each t. A regulariser over many
    coefficient tensors costs one node instead of a mul/sum/add chain per
    tensor.
    """
    terms = list(terms)
    arrays = [(t.data, float(scale)) for t, scale in terms]
    total = 0.0
    for td, scale in arrays:
        flat = td.reshape(-1)
        total += scale * float(flat @ flat)

    def bw(g):
        return tuple(td * (2.0 * scale * g) for td, scale in arrays)

    return Tensor._from_op(np.array(total), "l2_penalty", [t for t, _ in terms], bw)


def sum_axis(a, axis=None):
    shape = a.shape
    if axis is None:
        out = a.data.sum()

        def bw(g):
            return (np.broadcast_to(g, shape).copy(),)

        return Tensor._from_op(out, "sum", (a,), bw)
    ax = axis if axis >= 0 else a.ndim + axis
    out = a.data.sum(axis=ax)

    def bw(g):
        return (np.broadcast_to(np.expand_dims(g, ax), shape).copy(),)

    return Tensor._from_op(out, "sum", (a,), bw)


def mean_axis(a, axis=None):
    shape = a.shape
    if axis is None:
        n = a.size
        out = a.data.mean()

        def bw(g):
            return (np.broadcast_to(g / n, shape).copy(),)

        return Tensor._from_op(out, "mean", (a,), bw)
    ax = axis if axis >= 0 else a.ndim + axis
    n = a.shape[ax]
    out = a.data.mean(axis=ax)

    def bw(g):
        return (np.broadcast_to(np.expand_dims(g / n, ax), shape).copy(),)

    return Tensor._from_op(out, "mean", (a,), bw)


def reshape(a, shape):
    out = a.data.reshape(shape)
    in_shape = a.shape

    def bw(g):
        return (g.reshape(in_shape),)

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
    shape = a.shape

    def bw(g):
        full = np.zeros(shape)
        full[key] = g
        return (full,)

    return Tensor._from_op(out, "slice", (a,), bw)


def matmul(a, b):
    """a @ b with 2-D b; a may carry leading batch axes. Backward computes
    only the gradients of operands that required one at forward time."""
    if a.ndim < 1 or b.ndim != 2 or a.shape[-1] != b.shape[0]:
        raise ShapeError("matmul", a.shape, b.shape)
    out_cols = b.shape[1]
    out = a.data @ b.data
    # each operand's data is kept only for the other operand's gradient
    bd = b.data if a.requires_grad else None
    ad = a.data if b.requires_grad else None

    def bw(g):
        ga = None if bd is None else g @ bd.T
        gb = None if ad is None else ad.reshape(-1, ad.shape[-1]).T @ g.reshape(-1, out_cols)
        return ga, gb

    return Tensor._from_op(out, "matmul", (a, b), bw)


# --- fused affine ops -------------------------------------------------------
#
# Each op below is a chain of the primitives above in one tape node: its
# forward gives the chain's bits, and its backward evaluates the chain's
# gradient expressions, so gradients keep their bits too.

def lift(x, w, b):
    """x[..., None] * w[0] + b: each value of x lifted to len(b) values by
    the (1, d) row w and the bias b. The bits of the chain reshape, a K=1
    matmul and an add, whose GEMM rounds each product once."""
    if w.ndim != 2 or w.shape[0] != 1 or b.shape != (w.shape[1],):
        raise ShapeError("lift", x.shape, w.shape, b.shape)
    xd, wd = x.data, w.data
    width = wd.shape[1]
    out = np.multiply(xd[..., None], wd[0])
    out += b.data
    xk = xd if w.requires_grad else None
    wk = wd if x.requires_grad else None
    x_shape = x.shape

    def bw(g):
        gx = None if wk is None else (g @ wk.T).reshape(x_shape)
        gw = None if xk is None else xk.reshape(-1, 1).T @ g.reshape(-1, width)
        return gx, gw, _unbroadcast(g, (width,))

    return Tensor._from_op(out, "lift", (x, w, b), bw)


def unpatch(h, w, b, residual=None):
    """(N, P, d) h mapped over its middle axis to (N, L, d): out[n, l, c] =
    sum_p w[p, l] h[n, p, c] + b[l], plus ``residual`` (N, L, d) if given.

    The bits of the chain permute(permute(h) @ w + b) and then ``residual
    + that``. The sum is built in the GEMM's own (N, d, L) output, whose
    permuted view is the result, and backward evaluates the chain's
    gradients through the same views.
    """
    if (
        h.ndim != 3
        or w.ndim != 2
        or h.shape[1] != w.shape[0]
        or b.shape != (w.shape[1],)
        or residual is not None and residual.shape != (h.shape[0], w.shape[1], h.shape[2])
    ):
        shapes = [h.shape, w.shape, b.shape] + ([] if residual is None else [residual.shape])
        raise ShapeError("unpatch", *shapes)
    ht, wd = h.data.transpose(0, 2, 1), w.data  # (N, d, P)
    length = wd.shape[1]
    out = ht @ wd
    out += b.data
    if residual is not None:
        out += residual.data.transpose(0, 2, 1)
    hk = ht if w.requires_grad else None
    wk = wd if h.requires_grad else None
    # Graph.from_output expands a node's last parent first, and backward
    # runs what it expands first last. With the residual first, the rules
    # behind it (the time-axis KANs') run before h's, as they did behind
    # the chain's add(residual, unpatched); the other order peaked 7 MB
    # higher on the reference training step.
    parents = (() if residual is None else (residual,)) + (h, w, b)
    n_residual = len(parents) - 3

    def bw(g):
        gt = g.transpose(0, 2, 1)  # the GEMM output's gradient
        gh = None if wk is None else (gt @ wk.T).transpose(0, 2, 1)
        gw = None if hk is None else hk.reshape(-1, hk.shape[-1]).T @ gt.reshape(-1, length)
        return (g,) * n_residual + (gh, gw, _unbroadcast(gt, (length,)))

    return Tensor._from_op(out.transpose(0, 2, 1), "unpatch", parents, bw)


# --- fused KAN ops ----------------------------------------------------------
#
# Each op below does the work of a chain of the primitives above in one tape
# node with a hand-written backward. Outputs agree with the primitive chains
# to rounding (the test suite keeps those chains as oracles, and checks each
# op against them and against central finite differences, also with SLAB
# shrunk so that the op runs over several slabs).
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
# permuted (N, d, L) view) is copied while it is in cache. An array that is
# a cheap linear function of a smaller input is built slab by slab and
# never held whole: patch_compress gathers each slab's patch windows, and
# patch_kans each slab's rows of the time-frequency grid. Backward rebuilds
# from its slab of the input, by the forward's own code and so with its
# bits, everything it reads beyond the op's inputs: the sigmoid, the
# polynomial prior's powers, the Fourier prior's unit angle e^{i theta}
# (one cos and one sin per input) and harmonics, the grid, the windows,
# a KAN chain's hidden layers. So no op keeps a full-size array beyond its
# inputs for backward, and a taped forward runs the no-grad forward's code
# and gives its bits. Each forward GEMM also rounds as the whole batch's
# GEMM would (see ``_slabs``, ``_slab_rows``, ``poly_inject`` and the two
# patch ops), so slabbing left the forward's bits unchanged.
#
# A time-axis KAN runs both its layers as one ``taylor_kan`` node. Each
# slab passes its rows through both layers in its worker's scratch, so the
# hidden layer's (N, d, L) output, and in backward its gradient, never
# exist whole (11 MB each at the reference step). The node keeps its input
# and the first layer's prior output (r columns). Its backward rebuilds
# each slab's hidden rows from the input rows by the forward's code, keeps
# the sigmoid, silu and square of each layer's input from that rebuild for
# the layer's own backward, and runs the layers' backward from the last.
# The rebuild repeats the first layer's three forward GEMMs: on the
# reference step (two cores, three rounds of ten steps, each rule timed)
# the two chains' backward took 10-26 ms more than the four single
# layers', and their forward 2-18 ms less.
#
# Full-width rule: a first layer with a prior runs its forward GEMMs over
# whole output rows, with zero weights in the prior's r leading rows, and
# then writes the prior's columns over them. On one core, over the 42
# slabs of 352 rows of the reference step, a 93- or 91-column GEMM into
# the strided block of a 96-wide row took 5.5 ms against 4.7 ms at 96
# columns into whole rows, and each strided ``o += t`` 1.5-1.7 ms against
# 0.3-0.4 ms. Each output column is the same dot product at either width,
# and the bits were the narrow GEMMs' at every shape checked (the reference
# step's, pipeline-toy's and the tests'); OpenBLAS picks its kernel by
# shape, so the tests keep the strided block as an oracle. The backward
# keeps its 93- and 91-column GEMMs: padded to 96 they measured the same
# (4.4-4.5 against 4.6-4.7 ms, 5.0-5.4 against 5.2 ms).

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


class _TaylorLayer:
    """One Taylor-KAN layer's arrays, as ``taylor_kan``'s slab loops read
    them. The forward's weights, prefixed ``f``, carry ``lead`` zero rows
    for the prior's columns, so the layer's forward GEMMs write whole rows."""

    def __init__(self, w, a0, a1, a2, lead):
        self.w, self.a0, self.a1, self.a2 = w, a0, a1, a2
        self.n_out, self.n_in = w.shape
        self.width = lead + self.n_out
        self.wa1 = w * a1
        self.wa2 = w * a2
        self.w_quad = 2.0 * self.wa2
        const = (w * a0).sum(axis=1)

        def padded(m):
            return np.concatenate([np.zeros((lead,) + m.shape[1:]), m]) if lead else m

        self.fw, self.fwa1, self.fwa2 = padded(w), padded(self.wa1), padded(self.wa2)
        self.fconst = padded(const)


def _taylor_basis(xs, bufs):
    """sigmoid(x), silu(x) and x^2 of a slab's rows xs, in the front of the
    three scratch buffers ``bufs``."""
    s = sigmoid(xs, out=_scratch(bufs[0], xs.shape))
    silu_x = np.multiply(s, xs, out=_scratch(bufs[1], xs.shape))
    return s, silu_x, np.square(xs, out=_scratch(bufs[2], xs.shape))


def _taylor_forward(layer, basis, lin, t, out):
    """A layer's output over a slab, into ``out`` (rows, width), from the
    rows' ``_taylor_basis``; ``lin`` is the rows as the linear term's GEMM
    operand, and ``t`` is (rows, width) scratch."""
    _, silu_x, sq = basis
    np.matmul(silu_x, layer.fw.T, out=out)
    out += np.matmul(lin, layer.fwa1.T, out=t)
    out += np.matmul(sq, layer.fwa2.T, out=t)
    out += layer.fconst


def _taylor_backward(layer, gs, xs, basis, t, gx, parts):
    """A layer's backward over a slab: its weight-gradient partials into
    ``parts`` and its input gradient into ``gx``, from the gradient ``gs``
    of its adjustable columns, its input rows xs and their basis, which
    this overwrites. ``t`` is scratch of xs's shape."""
    s, silu_x, sq = basis
    part, part_sum = parts
    np.matmul(gs.T, silu_x, out=part[0])
    np.matmul(gs.T, xs, out=part[1])
    np.matmul(gs.T, sq, out=part[2])
    np.sum(gs, axis=0, out=part_sum)
    # silu'(x) = s + silu(x) * (1 - s)
    np.subtract(1.0, s, out=gx)
    gx *= silu_x
    gx += s
    gx *= np.matmul(gs, layer.w, out=t)
    gx += np.matmul(gs, layer.wa1, out=t)
    gx += np.multiply(np.matmul(gs, layer.w_quad, out=t), xs, out=sq)


def taylor_kan(x, layers, prior=None):
    """A chain of adjustable Taylor-KAN layers along the last axis of x, as
    one tape node.

    ``layers`` holds each layer's (w, a0, a1, a2), all of shape (out, in).
    A layer maps its input h to out[..., j] = sum_i w[j, i] * (silu(h_i) +
    a0[j, i] + a1[j, i] h_i + a2[j, i] h_i^2), and the next layer reads
    that output. ``prior``, if given, is a tensor of shape x.shape[:-1] +
    (r,): the first layer's injected edges. Its values fill that layer's
    first r output columns and the layer's own edges the rest, so the
    layer's output is one array with no concatenation.

    Each slab runs through every layer in its worker's scratch, so no layer
    output but the last is ever held whole. Backward keeps only the op's
    inputs: each slab rebuilds its hidden rows from its copy of x by the
    forward's code, keeps every layer's sigmoid, silu and square from that
    rebuild, and runs the layers' backward from the last one down. Weight
    gradients are GEMMs over the basis [silu(h), h, h^2] summed across
    slabs; input gradients are GEMMs with [w, w*a1, 2*w*a2].
    """
    layers = [tuple(ps) for ps in layers]
    lead = 0 if prior is None else prior.shape[-1]

    def conform():
        if not layers or x.ndim < 1 or prior is not None and prior.shape[:-1] != x.shape[:-1]:
            return False
        width = x.shape[-1]
        for k, ps in enumerate(layers):
            if len(ps) != 4 or ps[0].ndim != 2 or ps[0].shape[1] != width:
                return False
            if any(t.shape != ps[0].shape for t in ps):
                return False
            width = ps[0].shape[0] + (lead if k == 0 else 0)
        return True

    if not conform():
        shapes = [x.shape] + [t.shape for ps in layers for t in ps]
        raise ShapeError("taylor_kan", *shapes, *(() if prior is None else (prior.shape,)))
    parents = (x,) + tuple(t for ps in layers for t in ps) + (() if prior is None else (prior,))
    xd = _batched(x.data)
    arrays = [tuple(t.data for t in ps) for ps in layers]

    def build():
        """The layers' derived arrays; backward builds its own rather than
        keep these."""
        return [_TaylorLayer(*a, lead if k == 0 else 0) for k, a in enumerate(arrays)]

    kans = build()
    depth = len(kans)
    out_width = kans[-1].width
    x_shape, out_shape = x.shape, x.shape[:-1] + (out_width,)
    pd = None if prior is None else _batched(prior.data)
    # backward rebuilds a hidden layer's input, whose first columns are the
    # prior's, so a chain keeps the prior's output
    kept_prior = pd if depth > 1 else None
    prior_shape = None if prior is None else prior.shape
    slices, rows = _slabs(xd.shape)
    size = rows * max([xd.shape[-1]] + [layer.width for layer in kans])
    full = np.empty(xd.shape[:-1] + (out_width,))

    def chain(kans, sl, xs, lin, bufs, tbuf, prior_data, out=None):
        """The slab's rows xs through the layers; returns every layer's
        input rows and basis. Layer k's basis goes to the first three of
        ``bufs[k]`` and, but for the last layer's, its output to the fourth.
        The last layer's GEMMs run only if ``out`` is given, into it.
        ``lin`` is xs as the first layer's linear-term GEMM operand."""
        inputs, bases = [xs], []
        for k, layer in enumerate(kans):
            bases.append(_taylor_basis(inputs[k], bufs[k]))
            dst = out if k == depth - 1 else _scratch(bufs[k][3], (xs.shape[0], layer.width))
            if dst is None:
                break
            _taylor_forward(layer, bases[k], lin, _scratch(tbuf, dst.shape), dst)
            if k == 0 and lead:
                dst[:, :lead] = prior_data[sl].reshape(-1, lead)
            inputs.append(dst)
            lin = dst
        return inputs, bases

    def forward(sl, bufs, _):
        xbuf, lin_buf, tbuf, hbuf, silu_buf, sq_buf = bufs
        xs = _rows(_slab(xd, sl, xbuf))
        # silu(x) overwrites the sigmoid, which only backward reads, and a
        # hidden layer writes where the input of the one before it was
        layer_bufs = [(silu_buf, silu_buf, sq_buf, (hbuf, xbuf)[k % 2]) for k in range(depth)]
        chain(kans, sl, xs, _slab_rows(xd, sl, lin_buf), layer_bufs, tbuf, pd, out=_rows(full[sl]))

    _slab_loop(slices, (size,) * 6, forward)

    def bw(g):
        kans = build()
        g = g.reshape(xd.shape[:-1] + (out_width,))
        gx = np.empty(xd.shape)
        g_prior = None if prior_shape is None else np.empty(xd.shape[:-1] + (lead,))
        # per layer, summed over the basis silu(h), h, h^2, and the gradient's sum
        totals = [
            a for layer in kans for a in (np.zeros((3, layer.n_out, layer.n_in)), np.zeros(layer.n_out))
        ]

        def slab(sl, bufs, parts):
            gbuf, xbuf, lin_buf, tbuf, *rest = bufs
            layer_bufs = [rest[4 * k : 4 * k + 4] for k in range(depth)]
            # a hidden layer's input gradient goes where the first layer's
            # GEMM operand was, and every other one from a third layer on to
            # the last buffer
            g_in_bufs = (rest[-1], lin_buf)
            gs = _rows(_slab(g, sl, gbuf))
            xs = _rows(_slab(xd, sl, xbuf))
            # a single layer's GEMMs do not run again, so need no operand
            lin = _slab_rows(xd, sl, lin_buf) if depth > 1 else None
            inputs, bases = chain(kans, sl, xs, lin, layer_bufs, tbuf, kept_prior)
            g_out = gs  # the gradient of layer k's output
            for k in reversed(range(depth)):
                h = inputs[k]
                if k:
                    g_in = _scratch(g_in_bufs[k % 2], h.shape)
                else:
                    g_in = _rows(gx[sl])
                    if lead:
                        _rows(g_prior[sl])[...] = g_out[:, :lead]
                        g_out = g_out[:, lead:]
                layer_parts = parts[2 * k : 2 * k + 2]
                _taylor_backward(kans[k], g_out, h, bases[k], _scratch(tbuf, h.shape), g_in, layer_parts)
                g_out = g_in

        # g, x, lin and t; four per layer (its basis and its output) but the
        # last layer's output; a second input-gradient buffer from three on
        n_bufs = 4 + 4 * depth - 1 + (depth > 2)
        _slab_loop(slices, (size,) * n_bufs, slab, totals=totals)
        grads = [gx.reshape(x_shape)]
        for layer, coeffs, g_sum in zip(kans, totals[::2], totals[1::2]):
            c_silu, c_lin, c_quad = coeffs
            g_sum = g_sum[:, None]
            gw = c_silu + c_lin * layer.a1 + c_quad * layer.a2 + g_sum * layer.a0
            grads += [gw, g_sum * layer.w, c_lin * layer.w, c_quad * layer.w]
        if prior_shape is not None:
            grads.append(g_prior.reshape(prior_shape))
        return tuple(grads)

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
    cd = [c.data for c in coeffs]
    n_in, n_out = cd[0].shape
    x_shape, out_shape = x.shape, x.shape[:-1] + (n_out,)
    # Only the backward runs in slabs. The forward keeps whole-batch GEMMs:
    # with r output columns they are narrow enough that OpenBLAS picks their
    # kernel, and so their rounding, by row count up to thousands of rows,
    # and slabs would change the forward's bits.
    out = _mm(xd, cd[1])
    power = xd
    for c in cd[2:]:
        power = np.multiply(power, xd, order="C")
        out += _mm(power, c)
    out += cd[0].sum(axis=0)

    def bw(g):
        g = g.reshape(xd.shape[:-1] + (n_out,))
        gx = np.empty(xd.shape)
        grads = [np.zeros(c.shape) for c in cd[1:]]
        g_sum = np.zeros(n_out)
        slices, rows = _slabs(xd.shape)

        def slab(sl, bufs, parts):
            xbuf, tb, gbuf, *pbufs = bufs
            part_sum, *part = parts
            gs = _rows(_slab(g, sl, gbuf))
            xs = _rows(_slab(xd, sl, xbuf))
            np.sum(gs, axis=0, out=part_sum)
            gxs = np.matmul(gs, cd[1].T, out=_rows(gx[sl]))
            np.matmul(xs.T, gs, out=part[0])
            prev = xs  # x^{k-1}
            for k, (grad, c) in enumerate(zip(part[1:], cd[2:]), start=2):
                pk = np.multiply(prev, xs, out=_scratch(pbufs[k % 2], xs.shape))
                np.matmul(pk.T, gs, out=grad)
                slope = np.matmul(gs, c.T, out=_scratch(tb, gxs.shape))
                slope *= prev
                slope *= k
                gxs += slope
                prev = pk

        sizes = (rows * n_in, rows * n_in, rows * n_out, rows * n_in, rows * n_in)
        _slab_loop(slices, sizes, slab, totals=(g_sum, *grads))
        g_const = np.broadcast_to(g_sum, cd[0].shape)
        return (gx.reshape(x_shape), g_const) + tuple(grads)

    return Tensor._from_op(out.reshape(out_shape), "poly_inject", parents, bw)


def harmonic_base(freqs):
    """The largest base b of which every frequency is an integer multiple,
    and those multiples: ``(b, multiples)`` with f_k = multiples[k] * b.

    The prior's frequencies 2*bin/L always have one, b = 2*gcd(bins)/L
    (1/48 for bins 5, 6, 7, 13 and 14 at L = 96); ``fourier_inject``
    builds its harmonics from it, and a seasonal layer is checked against
    this rule when it is built and when a checkpoint is loaded. Each ratio
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
    both of its terms. Backward keeps none of them: each slab rebuilds
    e^{i theta} by the forward's one cos and one sin, and the harmonics
    from it, so it reads the forward's bits.

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
    xd = _batched(x.data)
    n_in, n_out = coeffs[0].shape
    x_shape, out_shape = x.shape, x.shape[:-1] + (n_out,)
    # harmonic j's GEMM operand: rows 2i, 2i+1 weight cos, sin of input i,
    # the order of e^{i m_j theta}'s (real, imag) pairs viewed as float64
    mix = np.stack(
        [np.stack([c.data for c in cos_coeffs[1:]]), np.stack([c.data for c in sin_coeffs])],
        axis=2,
    ).reshape(freqs.size, 2 * n_in, n_out)
    slices, rows = _slabs(xd.shape)
    out = np.empty(xd.shape[:-1] + (n_out,))
    const = cos_coeffs[0].data.sum(axis=0) * 0.5

    def unit(sl, zbuf):
        """e^{i theta} with theta = b pi x over the slab, as (rows, in), in
        the front of ``zbuf``: the slab's one cos and one sin."""
        part = xd[sl]
        z = _complex(zbuf, part.shape)
        theta = np.multiply(part, base * np.pi, out=z.imag)
        np.cos(theta, out=z.real)
        np.sin(theta, out=theta)
        return _rows(z)

    def forward(sl, bufs, _):
        zbuf, dbuf, hbuf, tbuf = bufs
        o = _rows(out[sl])
        for n, (j, h) in enumerate(_harmonics(unit(sl, zbuf), multiples, order, dbuf, hbuf)):
            term = _scratch(tbuf, o.shape) if n else o
            np.matmul(h.view(np.float64), mix[j], out=term)
            if n:
                o += term
        o += const

    sizes = (rows * 2 * n_in,) * 3 + (rows * n_out,)
    _slab_loop(slices, sizes, forward)

    def bw(g):
        g = g.reshape(xd.shape[:-1] + (n_out,))
        gx = np.zeros(xd.shape)
        g_mix = np.zeros(mix.shape)
        g_sum = np.zeros(n_out)
        # d/dx (a cos + b sin)(f pi x) = f pi Im(e^{i f pi x} (-a + i b))
        flip = np.array([-1.0, 1.0])[:, None] * (freqs * np.pi)[:, None, None, None]
        slope = (mix.reshape(freqs.size, n_in, 2, n_out) * flip).reshape(mix.shape)

        def slab(sl, bufs, parts):
            zbuf, dbuf, hbuf, wbuf, gbuf = bufs
            part_mix, part_sum = parts
            gs = _rows(_slab(g, sl, gbuf))
            gxs = _rows(gx[sl])
            np.sum(gs, axis=0, out=part_sum)
            for j, h in _harmonics(unit(sl, zbuf), multiples, order, dbuf, hbuf):
                np.matmul(h.view(np.float64).T, gs, out=part_mix[j])
                w = np.matmul(gs, slope[j].T, out=_scratch(wbuf, (gs.shape[0], 2 * n_in)))
                wz = w.view(np.complex128)
                wz *= h
                gxs += wz.imag

        _slab_loop(slices, (rows * 2 * n_in,) + sizes, slab, totals=(g_mix, g_sum))
        g_pairs = g_mix.reshape(freqs.size, n_in, 2, n_out)
        g_const = np.broadcast_to(g_sum * 0.5, (n_in, n_out))
        return (
            (gx.reshape(x_shape), g_const)
            + tuple(g_pairs[:, :, 0])
            + tuple(g_pairs[:, :, 1])
        )

    return Tensor._from_op(out.reshape(out_shape), "fourier_inject", parents, bw)


def patch_compress(a, w, patch_len, stride):
    """Windows of an (N, L, d) series along its time axis, each flattened
    and mapped through w: the (N, W, patch_len*d) windows @ w.

    The tail is padded with ``stride`` copies of the last step, and window
    v covers padded steps [v*stride, v*stride + patch_len), flattened
    step-major, where W = (L - patch_len) // stride + 2. The windows are
    gathered slab by slab and dropped; numpy's matmul runs one GEMM per
    leading index, so each slab's GEMMs round as the whole batch's would.
    Backward keeps only the data of a and w. Each slab's window gradients
    are overlap-added into one padded buffer, so overlapping windows
    (stride < patch_len) are summed, and the pad is folded onto the last
    step; w's gradient gathers the windows again for one whole-batch GEMM.
    """
    if (
        a.ndim != 3
        or w.ndim != 2
        or stride < 1
        or not 1 <= patch_len <= a.shape[1]
        or w.shape[0] != patch_len * a.shape[2]
    ):
        raise ShapeError("patch_compress", a.shape, w.shape, (patch_len, stride))
    ad, wd = a.data, w.data
    n, length, d = ad.shape
    count = (length - patch_len) // stride + 2
    n_out = wd.shape[1]
    # step i of window v: padded step v*stride + i, clipped to the last step
    steps = np.minimum(np.arange(count)[:, None] * stride + np.arange(patch_len), length - 1)
    slices, rows = _slabs(ad.shape)
    widest = rows // length
    window_size = widest * count * patch_len * d
    out = np.empty((n, count, n_out))

    def forward(sl, bufs, _):
        windows = _scratch(bufs[0], (sl.stop - sl.start, count, patch_len, d))
        np.take(ad[sl], steps, axis=1, out=windows, mode="clip")  # clip: unbuffered out
        np.matmul(windows.reshape(-1, count, patch_len * d), wd, out=out[sl])

    _slab_loop(slices, (window_size,), forward)

    def bw(g):
        gx = np.empty(ad.shape)
        span = (count - 1) * stride + 1

        def slab(sl, bufs, _):
            win_buf, pad_buf = bufs
            m = sl.stop - sl.start
            g_win = _scratch(win_buf, (m, count, patch_len * d))
            g_win = np.matmul(g[sl], wd.T, out=g_win).reshape(m, count, patch_len, d)
            pad = _scratch(pad_buf, (m, length + stride, d))
            pad.fill(0.0)
            for j in range(patch_len):
                pad[:, j : j + span : stride] += g_win[:, :, j]
            gxs = gx[sl]
            gxs[...] = pad[:, :length]
            gxs[:, -1] += pad[:, length:].sum(axis=1)

        _slab_loop(slices, (window_size, widest * (length + stride) * d), slab)
        windows = np.take(ad, steps, axis=1).reshape(-1, patch_len * d)
        return gx, windows.T @ g.reshape(-1, n_out)

    return Tensor._from_op(out, "patch_compress", (a, w), bw)


def patch_kans(patches, grid_map, params):
    """Single-layer Taylor-KANs, one per patch, over the time-frequency grid
    of the patches, averaged over their outputs.

    patches is (N, P, d), grid_map a (K*P, P) array and params holds P
    tuples (w, a0, a1, a2) of (K, K) tensors. The grid is the patch axis
    mapped through grid_map, t[n, k, p, c] = sum_q grid_map[k*P + p, q]
    patches[n, q, c] (see ``tfsynergy.spectrum_grid``). Patch p maps
    t[n, :, p, c] through its KAN and takes the mean of the K outputs,
    giving out[n, p, c] (shape (N, P, d)). The mean commutes with the edge
    sum, so each patch reduces to K-vector dot products with the column
    means of w, w*a1 and w*a2, plus a constant.

    The grid is never held whole. Forward and backward build it slab by
    slab, cut over the grid's shape, with one GEMM per slab that rounds as
    the whole batch's would, and copy it row-major into the slab's scratch;
    backward recomputes each slab's sigmoid and maps the slab's grid
    gradient back through grid_map.
    """
    params = [tuple(ps) for ps in params]
    n_patches = len(params)
    if (
        patches.ndim != 3
        or patches.shape[1] != n_patches
        or grid_map.ndim != 2
        or grid_map.shape[1] != n_patches
        or grid_map.shape[0] % n_patches
    ):
        raise ShapeError("patch_kans", patches.shape, grid_map.shape, (n_patches,))
    k_bins = grid_map.shape[0] // n_patches
    for ps in params:
        if len(ps) != 4 or any(t.shape != (k_bins, k_bins) for t in ps):
            raise ShapeError("patch_kans", grid_map.shape, *(t.shape for t in ps))
    parents = (patches,) + tuple(t for ps in params for t in ps)
    w, a0, a1, a2 = (np.stack([ps[i].data for ps in params]) for i in range(4))
    # column means, laid out (K inputs, P patches)
    u = w.mean(axis=1).T
    v = (w * a1).mean(axis=1).T
    q = (w * a2).mean(axis=1).T
    const = (w * a0).sum(axis=2).mean(axis=1)[:, None]
    pd = patches.data
    n, _, d = pd.shape
    slices, rows = _slabs((n, k_bins, n_patches, d))
    size = rows * d
    out = np.empty(pd.shape)

    def grid_slab(sl, flat_buf, buf):
        """The grid's rows sl, row-major (rows, K, P, d), in the front of
        buf; flat_buf takes the GEMM's (rows, d, K*P) output."""
        m = sl.stop - sl.start
        flat = _scratch(flat_buf, (m, d, k_bins * n_patches))
        np.matmul(pd[sl].transpose(0, 2, 1), grid_map.T, out=flat)
        ts = _scratch(buf, (m, k_bins, n_patches, d))
        np.copyto(ts, flat.reshape(m, d, k_bins, n_patches).transpose(0, 2, 3, 1))
        return ts

    def forward(sl, bufs, _):
        tbuf, basis_buf, obuf = bufs
        ts = grid_slab(sl, basis_buf, tbuf)
        basis = sigmoid(ts, out=_scratch(basis_buf, ts.shape))
        o = out[sl]
        term = _scratch(obuf, o.shape)
        np.einsum("nipc,ip->npc", np.multiply(basis, ts, out=basis), u, out=o)
        o += np.einsum("nipc,ip->npc", ts, v, out=term)
        o += np.einsum("nipc,ip->npc", np.square(ts, out=basis), q, out=term)
        o += const

    _slab_loop(slices, (size, size, size // k_bins), forward)

    def bw(g):
        gp = np.empty((n, d, n_patches))
        coeffs = np.zeros((3, n_patches, k_bins))  # summed over silu(t), t, t^2
        g_c = np.zeros(n_patches)
        q2 = 2.0 * q[:, :, None]

        def slab(sl, bufs, parts):
            tbuf, sig_buf, silu_buf, sq_buf = bufs
            part, part_c = parts
            ts = grid_slab(sl, sig_buf, tbuf)
            s = sigmoid(ts, out=_scratch(sig_buf, ts.shape))
            gs = g[sl]
            silu_t = np.multiply(ts, s, out=_scratch(silu_buf, ts.shape))
            sq = np.square(ts, out=_scratch(sq_buf, ts.shape))
            np.einsum("npc,nipc->pi", gs, silu_t, out=part[0])
            np.einsum("npc,nipc->pi", gs, ts, out=part[1])
            np.einsum("npc,nipc->pi", gs, sq, out=part[2])
            np.sum(gs, axis=(0, 2), out=part_c)
            # d out / d grid = silu'(t) u + v + 2 t q, with silu' = s + silu (1 - s),
            # in sq's buffer and then with s's as its scratch
            gts = np.subtract(1.0, s, out=sq)
            gts *= silu_t
            gts += s
            gts *= u[:, :, None]
            gts += np.multiply(ts, q2, out=s)
            gts += v[:, :, None]
            gts *= gs[:, None]
            # (rows, d, K*P) as a strided view, the layout of the whole batch's GEMM
            flat = gts.transpose(0, 3, 1, 2).reshape(ts.shape[0], d, k_bins * n_patches)
            np.matmul(flat, grid_map, out=gp[sl])

        _slab_loop(slices, (size,) * 4, slab, totals=(coeffs, g_c))
        # broadcast the per-column means back over the K output rows
        scale = 1.0 / k_bins
        g_u, g_v, g_q = (t[:, None, :] * scale for t in coeffs)
        g_c = g_c[:, None, None] * scale
        gw = g_u + g_v * a1 + g_q * a2 + g_c * a0
        ga0, ga1, ga2 = g_c * w, g_v * w, g_q * w
        grads = [gp.transpose(0, 2, 1)]
        for p in range(n_patches):
            grads += [gw[p], ga0[p], ga1[p], ga2[p]]
        return tuple(grads)

    return Tensor._from_op(out, "patch_kans", parents, bw)
