"""Dense float64 tensors with reverse-mode automatic differentiation.

A dynamic tape: each primitive records its parents and a backward rule on
the output tensor whenever recording is enabled and at least one input
requires gradients. ``backward`` walks the recorded graph once, in reverse
topological order, accumulating gradients additively across fan-out.

Elementwise binary ops broadcast only over *leading* batch axes: the
shorter shape must equal the trailing dims of the longer one exactly.
Size-1 stretching inside the common suffix is rejected, which keeps shape
bugs loud in the 4-D time-frequency grid.
"""

from __future__ import annotations

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

    def zero_grad(self):
        self.grad = None

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
    """Populate ``grad`` on every requires_grad tensor reachable from loss."""
    if loss.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
    graph = Graph.from_output(loss)
    loss.grad = np.ones_like(loss.data)
    for t in reversed(graph.nodes):
        if t._backward is None or t.grad is None:
            continue
        for p, g in zip(t.parents, t._backward(t.grad)):
            if g is None or not p.requires_grad:
                continue
            if p.grad is None:
                p.grad = np.array(g, dtype=np.float64, copy=True)
            else:
                p.grad += g


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


def sqrt(a):
    s = np.sqrt(a.data)

    def bw(g):
        # derivative blows up at 0; exact zeros get a zero gradient
        d = np.where(s == 0.0, 0.0, 0.5 / np.where(s == 0.0, 1.0, s))
        return (g * d,)

    return Tensor._from_op(s, "sqrt", (a,), bw)


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


def sigmoid(x):
    """Elementwise 1 / (1 + exp(-x)) of a float64 array, in one buffer.

    A plain-array helper, not a tape op; the result is row-major whatever
    x's layout.
    """
    s = np.negative(x, out=np.empty(np.shape(x)))
    np.exp(s, out=s)
    s += 1.0
    return np.divide(1.0, s, out=s)


def silu(a):
    s = sigmoid(a.data)

    def bw(g):
        return (g * (s * (1.0 + a.data * (1.0 - s))),)

    return Tensor._from_op(a.data * s, "silu", (a,), bw)


def atan2(y, x):
    """Elementwise atan2 with phase 0 and zero gradient at (0, 0)."""
    if y.shape != x.shape:
        raise ShapeError("atan2", y.shape, x.shape)
    out = np.arctan2(y.data, x.data)

    def bw(g):
        denom = y.data * y.data + x.data * x.data
        safe = np.where(denom == 0.0, 1.0, denom)
        gy = np.where(denom == 0.0, 0.0, g * x.data / safe)
        gx = np.where(denom == 0.0, 0.0, -g * y.data / safe)
        return gy, gx

    return Tensor._from_op(out, "atan2", (y, x), bw)


# --- reductions and shape ops ----------------------------------------------

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


def transpose2d(a):
    if a.ndim != 2:
        raise ShapeError("transpose2d", a.shape)
    return permute(a, (1, 0))


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


def expand_last(a, n):
    """Append a trailing axis of length n by repetition; gradient sums it."""
    out = np.broadcast_to(a.data[..., None], a.shape + (n,)).copy()

    def bw(g):
        return (g.sum(axis=-1),)

    return Tensor._from_op(out, "expand_last", (a,), bw)


def matmul(a, b):
    """a @ b with 2-D b; a may carry leading batch axes."""
    if a.ndim < 1 or b.ndim != 2 or a.shape[-1] != b.shape[0]:
        raise ShapeError("matmul", a.shape, b.shape)
    out = a.data @ b.data

    def bw(g):
        ga = g @ b.data.T
        a2 = a.data.reshape(-1, a.shape[-1])
        g2 = g.reshape(-1, b.shape[1])
        gb = a2.T @ g2
        return ga, gb

    return Tensor._from_op(out, "matmul", (a, b), bw)


# --- fused KAN ops ----------------------------------------------------------
#
# Each op below does the work of a chain of the primitives above in one tape
# node with a hand-written backward. The forward arithmetic is the same with
# and without the tape; only what the backward closure keeps (sigmoids,
# powers, sin/cos) depends on whether the op is recorded, so a no-grad
# forward holds no extra buffers. Outputs agree with the primitive chains to
# rounding (the test suite keeps those chains as oracles).
#
# Inputs may be transposed views (the time-axis KANs see a permuted
# (N, d, L) grid). They are read in place; every intermediate is written
# row-major, so it enters its GEMM as one 2-D (rows, last axis) matrix.

def _rows(a):
    """a viewed as a 2-D (rows, last axis) array; copies only if it must."""
    return a.reshape(-1, a.shape[-1])


def _mm(a, b):
    """a @ b over the last axis of a, for 2-D b: one GEMM when a is
    row-major, a batched matmul over a's strides otherwise (no copy)."""
    if a.flags.c_contiguous:
        return (_rows(a) @ b).reshape(a.shape[:-1] + (b.shape[1],))
    return a @ b


def taylor_kan(x, w, a0, a1, a2):
    """Adjustable Taylor-KAN block along the last axis of x.

    out[..., j] = sum_i w[j, i] * (silu(x_i) + a0[j, i] + a1[j, i] x_i
    + a2[j, i] x_i^2), with w and the a's of shape (out, in). Forward
    evaluates the sigmoid once; backward reuses it and takes the weight
    gradients from one batched GEMM over the stacked basis [silu(x), x, x^2]
    and the input gradient from one batched GEMM with the stacked effective
    weights [w, w*a1, 2*w*a2].
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
    xd, wd = x.data, w.data
    lead, n_in = xd.shape[:-1], wd.shape[1]
    wa1 = wd * a1.data
    wa2 = wd * a2.data
    s = sigmoid(xd)
    # basis scratch; it may overwrite s when backward will not need it
    buf = np.empty_like(s) if keep else s
    out = _mm(np.multiply(s, xd, out=buf), wd.T)
    out += _mm(xd, wa1.T)
    out += _mm(np.square(xd, out=buf), wa2.T)
    out += (wd * a0.data).sum(axis=1)

    def bw(g):
        g2 = _rows(g)
        basis = np.empty((3,) + lead + (n_in,))
        silu_x, xc, sq = basis
        xc[...] = xd
        np.multiply(s, xc, out=silu_x)
        np.square(xc, out=sq)
        c_silu, c_lin, c_quad = g2.T @ basis.reshape(3, g2.shape[0], n_in)
        g_sum = g2.sum(axis=0)[:, None]
        gw = c_silu + c_lin * a1.data + c_quad * a2.data + g_sum * a0.data
        back = (g2 @ np.stack([wd, wa1, 2.0 * wa2])).reshape(basis.shape)
        # silu'(x) = s + silu(x) * (1 - s)
        gx = 1.0 - s
        gx *= silu_x
        gx += s
        gx *= back[0]
        gx += back[1]
        gx += np.multiply(back[2], xc, out=sq)
        return gx, gw, g_sum * wd, c_lin * wd, c_quad * wd

    return Tensor._from_op(out, "taylor_kan", parents, bw)


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
    xd = x.data
    out = _mm(xd, coeffs[1].data)
    powers = [xd]
    power = xd
    for c in coeffs[2:]:
        power = np.multiply(power, xd, order="C")
        out += _mm(power, c.data)
        if keep:
            powers.append(power)
    out += coeffs[0].data.sum(axis=0)

    def bw(g):
        g2 = _rows(g)
        grads = [np.broadcast_to(g2.sum(axis=0), coeffs[0].shape)]
        gx = g2 @ coeffs[1].data.T
        for k, (c, pk) in enumerate(zip(coeffs[1:], powers), start=1):
            grads.append(_rows(pk).T @ g2)
            if k > 1:
                slope = g2 @ c.data.T
                slope *= _rows(powers[k - 2])
                slope *= k
                gx += slope
        return (gx.reshape(xd.shape),) + tuple(grads)

    return Tensor._from_op(out, "poly_inject", parents, bw)


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
    xd = x.data
    out = None
    trig = []
    for f, ca, sb in zip(freqs, cos_coeffs[1:], sin_coeffs):
        ang = np.multiply(xd, f * np.pi, order="C")
        c = np.cos(ang)
        sn = np.sin(ang, out=ang)
        term = _mm(c, ca.data)
        term += _mm(sn, sb.data)
        if out is None:
            out = term
        else:
            out += term
        if keep:
            trig.append((c, sn))
        del ang, c, sn, term  # without a tape, free them before the next frequency
    out += cos_coeffs[0].data.sum(axis=0) * 0.5

    def bw(g):
        g2 = _rows(g)
        g_cos = [np.broadcast_to(g2.sum(axis=0) * 0.5, cos_coeffs[0].shape)]
        g_sin = []
        gx = np.zeros((g2.shape[0], xd.shape[-1]))
        for f, (c, sn), ca, sb in zip(freqs, trig, cos_coeffs[1:], sin_coeffs):
            c, sn = _rows(c), _rows(sn)
            g_cos.append(c.T @ g2)
            g_sin.append(sn.T @ g2)
            slope = g2 @ sb.data.T
            slope *= c
            d_cos = g2 @ ca.data.T
            d_cos *= sn
            slope -= d_cos
            slope *= f * np.pi
            gx += slope
        return (gx.reshape(xd.shape),) + tuple(g_cos) + tuple(g_sin)

    return Tensor._from_op(out, "fourier_inject", parents, bw)


def patch_kans(grid, params):
    """Single-layer Taylor-KANs, one per patch, averaged over their outputs.

    grid is (N, K, P, d) and params holds P tuples (w, a0, a1, a2) of
    (K, K) tensors. Patch p maps grid[n, :, p, c] through its KAN and takes
    the mean of the K outputs, giving out[n, p, c] (shape (N, P, d)).
    The mean commutes with the edge sum, so each patch reduces to K-vector
    dot products with the column means of w, w*a1 and w*a2, plus a constant.
    The grid is read in place: no per-patch slices.
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
    td = grid.data
    s = sigmoid(td)
    # basis scratch; it may overwrite s when backward will not need it
    buf = np.empty_like(s) if keep else s
    out = np.einsum("nipc,ip->npc", np.multiply(s, td, out=buf), u)
    out += np.einsum("nipc,ip->npc", td, v)
    out += np.einsum("nipc,ip->npc", np.square(td, out=buf), q)
    out += (w * a0).sum(axis=2).mean(axis=1)[:, None]

    def bw(g):
        silu_t = td * s
        sq = np.square(td)
        g_u = np.einsum("npc,nipc->pi", g, silu_t)
        g_v = np.einsum("npc,nipc->pi", g, td)
        g_q = np.einsum("npc,nipc->pi", g, sq)
        g_c = g.sum(axis=(0, 2))
        # d out / d grid = silu'(t) u + v + 2 t q, with silu' = s + silu (1 - s)
        gt = 1.0 - s
        gt *= silu_t
        gt += s
        gt *= u[:, :, None]
        gt += np.multiply(td, 2.0 * q[:, :, None], out=sq)
        gt += v[:, :, None]
        gt *= g[:, None]
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


def gradient_check(f, x, eps=1e-5):
    """Max relative error between analytic and central finite-difference
    gradients of a scalar-valued f at x, relative to max(1, |analytic|)."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    probe = Tensor(x.data.copy(), requires_grad=True)
    out = f(probe)
    val = out.item()
    if not np.isfinite(val):
        raise ValueError("f(x) is not finite")
    backward(out)
    analytic = (
        probe.grad.copy() if probe.grad is not None else np.zeros_like(probe.data)
    )

    flat = probe.data.reshape(-1)
    fd = np.zeros_like(flat)
    with no_grad():
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = f(probe).item()
            flat[i] = orig - eps
            lo = f(probe).item()
            flat[i] = orig
            fd[i] = (hi - lo) / (2.0 * eps)
    fd = fd.reshape(probe.shape)
    denom = np.maximum(1.0, np.abs(analytic))
    return float(np.max(np.abs(analytic - fd) / denom))
