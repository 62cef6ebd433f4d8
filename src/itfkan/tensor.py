"""Dense float64 tensors with reverse-mode automatic differentiation.

A dynamic tape: each primitive records its parents and a backward rule on
the output tensor whenever recording is enabled and at least one input
requires gradients. ``backward`` walks the recorded graph once, in reverse
topological order, accumulating gradients additively across fan-out.

Gradients are copy-on-write. A backward closure maps the output gradient
``g`` to one array per parent, and a parent's first gradient is held by
reference, so a closure must never write into ``g`` or into an array it
returned: another tensor (a parent, a sibling parent of the same op, or
the op's output) may hold that array as its ``grad``. Only ``backward``
writes into a ``grad``, and only into one it allocated itself; leaf
tensors end with an owned, writable, row-major ``grad``.

Elementwise binary ops broadcast only over *leading* batch axes: the
shorter shape must equal the trailing dims of the longer one exactly.
Size-1 stretching inside the common suffix is rejected, which keeps shape
bugs loud in the 4-D time-frequency grid.
"""

from __future__ import annotations

import math
import threading

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
    """Populate ``grad`` on every requires_grad tensor reachable from loss.

    Copy-on-write (see the module docstring): a first gradient is held by
    reference, the first accumulation into it allocates and later ones add
    in place; leaves get an owned copy at the end if they need one.
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
        for p, g in zip(t.parents, t._backward(t.grad)):
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
# writes its part; weight gradients are summed over slabs. Scratch is one
# slab, reused, and carved from one allocation per forward or backward pass
# that no backward closure keeps: scratch left alive among the full-size
# arrays fragments the heap, which then re-faults its pages every step. A
# slab that is not row-major (the time-axis KANs see a permuted (N, d, L)
# view, patch_kans a permuted grid) is copied while it is in cache. The
# forward arithmetic does not depend on the tape, so a no-grad forward
# equals a taped one bit for bit; only what backward keeps (sigmoids,
# powers, sin/cos) depends on whether the op is recorded, and that is
# written slab by slab into full-size arrays. Each forward GEMM also rounds
# as the whole batch's GEMM would (see ``_slabs``, ``_slab_rows`` and
# ``poly_inject``), so slabbing left the forward's bits unchanged.

SLAB = 2 ** 15  # float64 values per slab of input; chosen by a measured sweep


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


def _buffers(rows, *widths):
    """Flat one-slab scratch buffers, rows x width values each, carved from
    one allocation that lives only as long as the caller uses it."""
    block = np.empty(rows * sum(widths))
    ends = np.cumsum(widths) * rows
    return [block[end - rows * w : end] for w, end in zip(widths, ends)]


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


def taylor_kan(x, w, a0, a1, a2):
    """Adjustable Taylor-KAN block along the last axis of x.

    out[..., j] = sum_i w[j, i] * (silu(x_i) + a0[j, i] + a1[j, i] x_i
    + a2[j, i] x_i^2), with w and the a's of shape (out, in). Forward
    evaluates the sigmoid once; backward reuses it, summing the weight
    gradients' GEMMs over the basis [silu(x), x, x^2] across slabs and taking
    each slab's input gradient from GEMMs with [w, w*a1, 2*w*a2].
    """
    if (
        w.ndim != 2
        or not w.shape == a0.shape == a1.shape == a2.shape
        or x.ndim < 1
        or x.shape[-1] != w.shape[1]
    ):
        raise ShapeError("taylor_kan", x.shape, w.shape, a0.shape, a1.shape, a2.shape)
    parents = (x, w, a0, a1, a2)
    keep = _records(parents)
    xd, wd = _batched(x.data), w.data
    n_out, n_in = wd.shape
    wa1 = wd * a1.data
    wa2 = wd * a2.data
    const = (wd * a0.data).sum(axis=1)
    slices, rows = _slabs(xd.shape)
    out = np.empty(xd.shape[:-1] + (n_out,))
    sig = np.empty(xd.shape) if keep else None
    xbuf, basis_buf, tbuf = _buffers(rows, n_in, n_in, n_out)
    for sl in slices:
        xs = _rows(_slab(xd, sl, xbuf))
        basis = _scratch(basis_buf, xs.shape)
        t = _scratch(tbuf, (xs.shape[0], n_out))
        # without a tape the sigmoid lives in the basis scratch it feeds
        s = sigmoid(xs, out=_rows(sig[sl]) if keep else basis)
        o = _rows(out[sl])
        np.matmul(np.multiply(s, xs, out=basis), wd.T, out=o)
        o += np.matmul(_slab_rows(xd, sl, basis_buf), wa1.T, out=t)
        o += np.matmul(np.square(xs, out=basis), wa2.T, out=t)
        o += const

    def bw(g):
        g = g.reshape(out.shape)
        gx = np.empty(xd.shape)
        c_silu, c_lin, c_quad = np.zeros((3, n_out, n_in))
        g_sum = np.zeros(n_out)
        w_quad = 2.0 * wa2
        gbuf, xbuf, silu_buf, sq_buf, tb = _buffers(rows, n_out, n_in, n_in, n_in, n_in)
        for sl in slices:
            gs = _rows(_slab(g, sl, gbuf))
            xs = _rows(_slab(xd, sl, xbuf))
            s = _rows(sig[sl])
            silu_x = np.multiply(s, xs, out=_scratch(silu_buf, xs.shape))
            sq = np.square(xs, out=_scratch(sq_buf, xs.shape))
            t = _scratch(tb, xs.shape)
            c_silu += gs.T @ silu_x
            c_lin += gs.T @ xs
            c_quad += gs.T @ sq
            g_sum += gs.sum(axis=0)
            # silu'(x) = s + silu(x) * (1 - s)
            gxs = np.subtract(1.0, s, out=_rows(gx[sl]))
            gxs *= silu_x
            gxs += s
            gxs *= np.matmul(gs, wd, out=t)
            gxs += np.matmul(gs, wa1, out=t)
            gxs += np.multiply(np.matmul(gs, w_quad, out=t), xs, out=sq)
        g_sum = g_sum[:, None]
        gw = c_silu + c_lin * a1.data + c_quad * a2.data + g_sum * a0.data
        return gx.reshape(x.shape), gw, g_sum * wd, c_lin * wd, c_quad * wd

    out_shape = x.shape[:-1] + (n_out,)
    return Tensor._from_op(out.reshape(out_shape), "taylor_kan", parents, bw)


def poly_inject(x, coeffs):
    """Polynomial prior edges along the last axis of x.

    out = sum_{k>=1} x^k @ coeffs[k] + coeffs[0].sum(axis=0), with every
    coefficient tensor (in, r). Powers are built by repeated products once;
    backward reuses them.
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
    keep = _records(parents)
    xd = _batched(x.data)
    n_in, n_out = coeffs[0].shape
    # Only the backward runs in slabs. The forward keeps whole-batch GEMMs:
    # with r output columns they are narrow enough that OpenBLAS picks their
    # kernel, and so their rounding, by row count up to thousands of rows,
    # and slabs would change the forward's bits.
    out = _mm(xd, coeffs[1].data)
    powers = []
    power = xd
    for c in coeffs[2:]:
        power = np.multiply(power, xd, order="C")
        out += _mm(power, c.data)
        if keep:
            powers.append(power)
    out += coeffs[0].data.sum(axis=0)

    def bw(g):
        g = g.reshape(out.shape)
        gx = np.empty(xd.shape)
        grads = [np.zeros(c.shape) for c in coeffs[1:]]
        g_sum = np.zeros(n_out)
        slices, rows = _slabs(xd.shape)
        xbuf, tb, gbuf = _buffers(rows, n_in, n_in, n_out)
        for sl in slices:
            gs = _rows(_slab(g, sl, gbuf))
            pows = [_rows(_slab(xd, sl, xbuf))] + [_rows(p[sl]) for p in powers]
            g_sum += gs.sum(axis=0)
            gxs = np.matmul(gs, coeffs[1].data.T, out=_rows(gx[sl]))
            for k, (grad, c, pk) in enumerate(zip(grads, coeffs[1:], pows), start=1):
                grad += pk.T @ gs
                if k > 1:
                    slope = np.matmul(gs, c.data.T, out=_scratch(tb, gxs.shape))
                    slope *= pows[k - 2]
                    slope *= k
                    gxs += slope
        g_const = np.broadcast_to(g_sum, coeffs[0].shape)
        return (gx.reshape(x.shape), g_const) + tuple(grads)

    out_shape = x.shape[:-1] + (n_out,)
    return Tensor._from_op(out.reshape(out_shape), "poly_inject", parents, bw)


def fourier_inject(x, freqs, cos_coeffs, sin_coeffs):
    """Fourier prior edges along the last axis of x.

    out = sum_k cos(f_k pi x) @ cos_coeffs[k+1] + sin(f_k pi x) @
    sin_coeffs[k] + cos_coeffs[0].sum(axis=0) / 2, with every coefficient
    tensor (in, r). Each cos/sin is evaluated once; backward reuses them.
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
    parents = (x,) + coeffs
    keep = _records(parents)
    xd = _batched(x.data)
    n_in, n_out = coeffs[0].shape
    slices, rows = _slabs(xd.shape)
    out = np.empty(xd.shape[:-1] + (n_out,))
    trig = [(np.empty(xd.shape), np.empty(xd.shape)) for _ in freqs] if keep else []
    xbuf, cbuf, sbuf, tbuf, ubuf = _buffers(rows, n_in, n_in, n_in, n_out, n_out)
    const = cos_coeffs[0].data.sum(axis=0) * 0.5
    for sl in slices:
        xs = _rows(_slab(xd, sl, xbuf))
        k = xs.shape[0]
        o = _rows(out[sl])
        for j, (f, ca, sb) in enumerate(zip(freqs, cos_coeffs[1:], sin_coeffs)):
            if keep:
                c_dst, s_dst = (_rows(t[sl]) for t in trig[j])
            else:
                c_dst, s_dst = _scratch(cbuf, xs.shape), _scratch(sbuf, xs.shape)
            ang = np.multiply(xs, f * np.pi, out=s_dst)
            c = np.cos(ang, out=c_dst)
            sn = np.sin(ang, out=ang)
            term = o if j == 0 else _scratch(tbuf, (k, n_out))
            np.matmul(c, ca.data, out=term)
            term += np.matmul(sn, sb.data, out=_scratch(ubuf, (k, n_out)))
            if j:
                o += term
        o += const

    def bw(g):
        g = g.reshape(out.shape)
        gx = np.zeros(xd.shape)
        g_cos = [np.zeros(c.shape) for c in cos_coeffs[1:]]
        g_sin = [np.zeros(c.shape) for c in sin_coeffs]
        g_sum = np.zeros(n_out)
        gbuf, cbuf, sbuf = _buffers(rows, n_out, n_in, n_in)
        for sl in slices:
            gs = _rows(_slab(g, sl, gbuf))
            gxs = _rows(gx[sl])
            g_sum += gs.sum(axis=0)
            for j, (f, ca, sb) in enumerate(zip(freqs, cos_coeffs[1:], sin_coeffs)):
                c, sn = (_rows(t[sl]) for t in trig[j])
                g_cos[j] += c.T @ gs
                g_sin[j] += sn.T @ gs
                slope = np.matmul(gs, sb.data.T, out=_scratch(cbuf, gxs.shape))
                slope *= c
                d_cos = np.matmul(gs, ca.data.T, out=_scratch(sbuf, gxs.shape))
                d_cos *= sn
                slope -= d_cos
                slope *= f * np.pi
                gxs += slope
        g_const = np.broadcast_to(g_sum * 0.5, cos_coeffs[0].shape)
        return (gx.reshape(x.shape), g_const) + tuple(g_cos) + tuple(g_sin)

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
    tbuf, basis_buf = _buffers(size, 1, 1)
    for sl in slices:
        ts = _slab(td, sl, tbuf)
        basis = _scratch(basis_buf, ts.shape)
        # without a tape the sigmoid lives in the basis scratch it feeds
        s = sigmoid(ts, out=sig[sl] if keep else basis)
        o = out[sl]
        np.einsum("nipc,ip->npc", np.multiply(s, ts, out=basis), u, out=o)
        o += np.einsum("nipc,ip->npc", ts, v)
        o += np.einsum("nipc,ip->npc", np.square(ts, out=basis), q)
        o += const

    def bw(g):
        gt = np.empty(td.shape)
        g_u, g_v, g_q = np.zeros((3, len(params), k_bins))
        g_c = np.zeros(len(params))
        q2 = 2.0 * q[:, :, None]
        tbuf, silu_buf, sq_buf = _buffers(size, 1, 1, 1)
        for sl in slices:
            ts = _slab(td, sl, tbuf)
            s = sig[sl]
            gs = g[sl]
            silu_t = np.multiply(ts, s, out=_scratch(silu_buf, ts.shape))
            sq = np.square(ts, out=_scratch(sq_buf, ts.shape))
            g_u += np.einsum("npc,nipc->pi", gs, silu_t)
            g_v += np.einsum("npc,nipc->pi", gs, ts)
            g_q += np.einsum("npc,nipc->pi", gs, sq)
            g_c += gs.sum(axis=(0, 2))
            # d out / d grid = silu'(t) u + v + 2 t q, with silu' = s + silu (1 - s)
            gts = np.subtract(1.0, s, out=gt[sl])
            gts *= silu_t
            gts += s
            gts *= u[:, :, None]
            gts += np.multiply(ts, q2, out=sq)
            gts += v[:, :, None]
            gts *= gs[:, None]
        # broadcast the per-column means back over the K output rows
        scale = 1.0 / k_bins
        g_u, g_v, g_q = (t[:, None, :] * scale for t in (g_u, g_v, g_q))
        g_c = g_c[:, None, None] * scale
        gw = g_u + g_v * a1 + g_q * a2 + g_c * a0
        ga0, ga1, ga2 = g_c * w, g_v * w, g_q * w
        grads = [gt]
        for p in range(len(params)):
            grads += [gw[p], ga0[p], ga1[p], ga2[p]]
        return tuple(grads)

    return Tensor._from_op(out, "patch_kans", parents, bw)
