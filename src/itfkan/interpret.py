"""Post-training interpretability: pruning, symbolification, reports.

Pruning zeroes every adjustable edge whose L2 norm falls below a
threshold; fixed-form injected edges are exempt and excluded from the
counts. The zeros are the prune state: an edge whose four coefficients
are all 0 is pruned (``TaylorKanLayer.active``). Pruning, calibration
and the report each walk ``ForecastModel.kan_layers``. Symbolification
fits each surviving edge activation with the best library formula
c * f(a*x + b) + d over the input range the edge actually received
(padded 10%), ranking candidates by coefficient of determination on
held-out sample points. The ranges come from calibration on the unpruned
model, which runs the model's no-grad ops only as far as the inputs of
the layers that keep an edge (``calibrate_ranges``): at a typical
threshold every survivor sits in a per-patch KAN, and calibration is
then the seasonal part and the time-frequency grid, no KAN layer at all.
Each family is fitted in a canonical form with no redundant parameters
(see ``_canonical_fit``): identity and square in closed form; cube, exp
and one joint sin/cos fit by a search over a single parameter; gaussian
(a > 0) and silu from the best cell of an (a, b) grid, polished by a
Levenberg-Marquardt search over (a, b) that converges instead of
sweeping. Without redundant parameters no two fits of a family tie, so
the rendered text follows the edge, not its rounding, and an edge takes
about 20 ms to fit on one core.
The surviving edges are independent fits, so a report spreads them over
every CPU the process may run on; each fit runs the same code on the same
inputs wherever it lands, so the report does not depend on the worker
count.
"""

import os
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .decomposition import PARTS, moving_average_decompose
from .tensor import Tensor, no_grad, sigmoid
from .tfsynergy import spectrum_grid

FIT_SAMPLES = 257  # odd: alternating points split into fit / held-out sets
A_GRID = np.logspace(-2, 1, 41)
B_POINTS = 41
REFINE_ROUNDS = 3
REFINE_POINTS = 21
GRID_BLOCK = 8  # a-values per scored block: 8 x 41 rows of 129 samples
CALIB_GRID_VALUES = 2 ** 18  # time-frequency grid values calibration builds at once
POLISH_STEPS = 100
POLISH_TOL = 1e-10
POLISH_DAMPING = 1e-3


FAMILIES = {
    "identity": lambda u: u,
    "square": lambda u: u * u,
    "cube": lambda u: u * u * u,
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "gaussian": lambda u: np.exp(-(u * u)),
    "silu": lambda u: u * sigmoid(u),
    "constant": None,  # handled separately
}
FAMILY_ORDER = [
    "identity", "square", "cube", "sin", "cos", "exp", "gaussian", "silu", "constant",
]
# The fits ``symbolify_edge`` ranks, in order: "trig" is one fit for sin and
# cos, named after the form with the smaller phase.
FIT_ORDER = ("identity", "square", "cube", "trig", "exp", "gaussian", "silu", "constant")
# report name of each network by the branch of its layers' tags ("tf.p3" -> "tf")
NETWORKS = {"trend": "TrendKAN", "seasonal": "SeasonalKAN", "tf": "TFKAN"}


@dataclass
class SymbolicFit:
    family: str
    a: float
    b: float
    c: float
    d: float
    r2: float


@dataclass
class PruneRow:
    network: str
    layer: str
    pruned: int
    preserved: int
    total: int

    @property
    def ratio(self):
        return self.pruned / self.total if self.total else 0.0


# --- pruning -------------------------------------------------------------------

def _kept(layer, tau):
    """Mask of the adjustable edges of ``layer`` that pruning at ``tau`` keeps."""
    return layer.active & (layer.taylor_norms() >= tau)


def _names(tag, li):
    """(network, report label, prune-report label) of the KAN layer (tag, li)
    of ``ForecastModel.kan_layers``: the per-patch layers share one network
    and one prune-report row."""
    branch = tag.split(".")[0]
    if branch == "tf":
        return NETWORKS[branch], tag, "-"
    return NETWORKS[branch], f"{tag}.{li}", str(li)


def prune(model, tau):
    """Zero low-norm adjustable edges in every KAN; returns report rows."""
    if not tau >= 0:  # NaN fails too: no norm is >= NaN, so it would prune every edge
        raise ValueError(f"prune threshold must be >= 0, got {tau}")
    rows = {}
    for (tag, li), layer in model.kan_layers():
        layer.apply_prune(_kept(layer, tau))
        network, _, label = _names(tag, li)
        row = rows.setdefault((network, label), PruneRow(network, label, 0, 0, 0))
        preserved = int(layer.active.sum())
        row.pruned += layer.n_adjustable - preserved
        row.preserved += preserved
        row.total += layer.n_adjustable
    return list(rows.values())


# --- calibration ------------------------------------------------------------------

def merge_range(ranges, key, lo, hi):
    """Widen ranges[key] (a (lo, hi) pair of arrays) to cover lo..hi."""
    if key in ranges:
        old_lo, old_hi = ranges[key]
        ranges[key] = (np.minimum(old_lo, lo), np.maximum(old_hi, hi))
    else:
        ranges[key] = (lo, hi)


def calibrate_ranges(model, inputs, batch_size=64, layers=None):
    """Per-node input ranges of the KAN layers over the (W, N, L) windows;
    returns {(tag, layer_idx): (lo, hi)} for the keys in ``layers`` (every
    KAN layer if None; see ``ForecastModel.kan_layers``).

    The windows go through the model's own no-grad ops in ``batch_size``
    batches, since a layer's output depends on its batch's row count in the
    last bits, but only as far as the wanted inputs: each part of the
    windows' split that is read, lifted as the forward lifts it; the
    patcher and the time-frequency grid if a "tf.p*" key is wanted; a
    time-axis KAN up to its last wanted layer, which does not run. No
    network's last layer, per-patch KAN, unpatcher or head ever runs. The
    lifted trend goes once its layers' ranges are read, before the seasonal
    part is lifted, so the two are never held together."""
    layer_of = dict(model.kan_layers())
    wanted = set(layer_of if layers is None else layers)
    unknown = wanted.difference(layer_of)
    if unknown:
        raise ValueError(f"no KAN layers {sorted(unknown)}")
    ranges = {}
    if not wanted:
        return ranges
    tf_keys = [(p, (f"tf.p{p}", 0)) for p in range(model.n_patches)]
    tf_keys = [(p, key) for p, key in tf_keys if key in wanted]
    # layers of each time-axis KAN up to the last wanted one
    depth = {tag: max((li + 1 for t, li in wanted if t == tag), default=0)
             for tag in PARTS}
    with no_grad():
        for start in range(0, len(inputs), batch_size):
            xb = inputs[start : start + batch_size]
            x = Tensor(xb.reshape(xb.shape[0] * xb.shape[1], xb.shape[2]))
            for tag, part in zip(PARTS, moving_average_decompose(x, model.config.kernel)):
                grid_read = tag == "seasonal" and bool(tf_keys)
                if not depth[tag] and not grid_read:
                    continue
                h = model.embed(part, bias=tag == "trend")
                if grid_read:
                    patches = model.patcher(h)
                    # a few rows of the grid at a time: each row's grid is
                    # its own GEMM, so the bits are the whole grid's
                    n, n_patches, width = patches.shape
                    step = max(1, CALIB_GRID_VALUES // (model.k_bins * n_patches * width))
                    for lo_row in range(0, n, step):
                        grid = spectrum_grid(patches[lo_row : lo_row + step]).data
                        lo, hi = grid.min(axis=(0, 3)), grid.max(axis=(0, 3))  # (K, P)
                        for p, key in tf_keys:
                            merge_range(ranges, key, lo[:, p], hi[:, p])
                    del patches, grid
                for li in range(depth[tag]):
                    if li:
                        h = layer_of[(tag, li - 1)].forward(h)
                    if (tag, li) in wanted:
                        lo, hi = h.data.min(axis=(0, 1)), h.data.max(axis=(0, 1))
                        merge_range(ranges, (tag, li), lo, hi)
                del h
    return ranges


def padded_range(lo, hi):
    """lo..hi widened by 10% of its span at each end."""
    span = hi - lo
    return lo - 0.1 * span, hi + 0.1 * span


# --- symbolic fitting ---------------------------------------------------------------

def _rows(func, x, a_rows, b_rows):
    """Candidate rows func(a*x + b), one per (a, b) pair."""
    with np.errstate(over="ignore", invalid="ignore"):
        rows = np.multiply.outer(a_rows, x)
        rows += np.asarray(b_rows)[:, None]
        return func(rows)


def _scores(u_rows, y):
    """Residuals and least-squares (c, d) of y ~ c*u + d for each candidate
    row of ``u_rows``. A non-finite row scores inf; a degenerate (constant)
    row gets c = 0."""
    n = len(y)
    sy = y.sum()
    finite_cells = np.isfinite(u_rows)
    finite = finite_cells.all(axis=1)
    if not finite.all():
        u_rows = np.where(finite_cells, u_rows, 0.0)
    su = u_rows.sum(axis=1)
    suu = np.einsum("ij,ij->i", u_rows, u_rows)
    suy = u_rows @ y
    # rows of huge values (exp of a wide argument) overflow here and score inf
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        det = n * suu - su * su
        c = np.where(
            det > 1e-12 * np.maximum(1.0, n * suu), (n * suy - su * sy) / det, 0.0
        )
    d = (sy - c * su) / n
    resid = y[None, :] - c[:, None] * u_rows - d[:, None]
    ss = np.einsum("ij,ij->i", resid, resid)
    ss[~(finite & np.isfinite(ss))] = np.inf
    return ss, c, d


def _trig_scores(a_rows, x, y):
    """Least squares of y ~ p*sin(a x) + q*cos(a x) + d for each a > 0:
    returns (residuals, p, q, d). For a fixed frequency the model is linear,
    so the phase needs no search. At small a x, cos(a x) is within a few
    ulp of 1 and a near-quadratic target makes q large, so q * cos(a x)
    would carry that rounding into the residual; the column used instead,
    cos(a x) - 1 = -2 sin(a x / 2)^2, keeps its relative precision. A
    singular system scores inf."""
    ax = np.outer(a_rows, x)
    s_rows, v_rows = np.sin(ax), np.sin(0.5 * ax)
    v_rows *= -2.0 * v_rows
    s_mean, v_mean = s_rows.mean(axis=1), v_rows.mean(axis=1)
    s_rows -= s_mean[:, None]
    v_rows -= v_mean[:, None]
    y_mean = y.mean()
    yc = y - y_mean
    sss = np.einsum("ij,ij->i", s_rows, s_rows)
    svv = np.einsum("ij,ij->i", v_rows, v_rows)
    ssv = np.einsum("ij,ij->i", s_rows, v_rows)
    ssy, svy = s_rows @ yc, v_rows @ yc
    det = sss * svv - ssv * ssv
    with np.errstate(invalid="ignore", divide="ignore"):
        p = (svv * ssy - ssv * svy) / det
        q = (sss * svy - ssv * ssy) / det
        resid = yc[None, :] - p[:, None] * s_rows - q[:, None] * v_rows
    ss = np.einsum("ij,ij->i", resid, resid)
    ss[~np.isfinite(ss)] = np.inf
    return ss, p, q, y_mean - p * s_mean - q * (v_mean + 1.0)


def _grid_search(func, x, y, x_absmax, a_values):
    """Best (ss, a, b) over ``a_values`` x a b grid as wide as a*x reaches.
    The rows are scored ``GRID_BLOCK`` a-values at a time: one call per
    block costs less than one per a-value, and a block stays small enough
    to stay in cache. Ties go to the first cell in (a, b) order."""
    best = (np.inf, 1.0, 0.0)  # (ss, a, b)
    for start in range(0, len(a_values), GRID_BLOCK):
        a_block = a_values[start : start + GRID_BLOCK]
        spans = np.maximum(np.pi, np.abs(a_block) * x_absmax)
        bs = np.linspace(-spans, spans, B_POINTS, axis=1).ravel()
        ss = _scores(_rows(func, x, np.repeat(a_block, B_POINTS), bs), y)[0]
        idx = int(np.argmin(ss))
        if ss[idx] < best[0]:
            best = (float(ss[idx]), float(a_block[idx // B_POINTS]), float(bs[idx]))
    return best


def _parabolic_step(ts, ss, idx):
    if idx == 0 or idx == len(ts) - 1:
        return None
    t0, t1, t2 = ts[idx - 1], ts[idx], ts[idx + 1]
    s0, s1, s2 = ss[idx - 1], ss[idx], ss[idx + 1]
    denom = (t1 - t0) * (s1 - s2) - (t1 - t2) * (s1 - s0)
    if denom == 0 or not np.isfinite(denom):
        return None
    return t1 - 0.5 * ((t1 - t0) ** 2 * (s1 - s2) - (t1 - t2) ** 2 * (s1 - s0)) / denom


def _sweep(score_rows, center, step):
    """Scan a window around ``center``, then try the parabolic vertex."""
    ts = center + np.linspace(-step, step, REFINE_POINTS)
    ss = score_rows(ts)
    idx = int(np.argmin(ss))
    best_t, best_ss = ts[idx], ss[idx]
    vertex = _parabolic_step(ts, ss, idx)
    if vertex is not None:
        cand = score_rows(np.array([vertex]))[0]
        if cand < best_ss:
            best_t, best_ss = vertex, cand
    return best_t, best_ss


def _stalled(previous, current):
    return not np.isfinite(current) or previous - current <= 1e-12 * max(previous, 1e-30)


def _line_search(score_rows, grid):
    """Minimise a residual of one parameter: score the sorted ``grid``, then
    sweep around the best point until the residual stalls, and shrink the
    window 8x per round. The first window is the grid spacing there. Two
    Newton steps from central differences finish: near the minimum, whether
    a sweep keeps a point or its parabolic vertex turns on rounding noise,
    while a Newton step moves continuously with the scores, so a target
    changed by a few ulp keeps its fit to many more digits."""
    ss = score_rows(grid)
    idx = int(np.argmin(ss))
    t, best = grid[idx], ss[idx]
    step = float(np.max(np.diff(grid[max(idx - 1, 0) : idx + 2])))
    for _ in range(REFINE_ROUNDS):
        for _ in range(16):
            previous = best
            t_new, ss_new = _sweep(score_rows, t, step)
            if ss_new < best:
                t, best = t_new, ss_new
            if _stalled(previous, best):
                break
        step /= 8.0
    for _ in range(2):
        low, mid, high = score_rows(t + np.array([-step, 0.0, step]))
        curvature = low - 2.0 * mid + high
        if not np.isfinite(curvature) or curvature <= 0.0:
            break
        shift = 0.5 * step * (low - high) / curvature
        if abs(shift) > step:
            break
        t += shift
    return float(t)


def _family_terms(name, v):
    """f(v), bitwise as ``FAMILIES[name]``, f'(v) and f''(v) of the gaussian
    or silu family."""
    with np.errstate(over="ignore", invalid="ignore"):
        if name == "gaussian":
            u = np.exp(-(v * v))
            return u, -2.0 * v * u, (4.0 * v * v - 2.0) * u
        s = sigmoid(v)
        u = v * s
        ds = s * (1.0 - s)
        return u, s + v * ds, ds * (2.0 + v * (1.0 - 2.0 * s))


class _Projected:
    """The fit of y ~ c*f(a x + b) + d at one (a, b), with (c, d) in closed
    form, computed centered: yc ~ c*uc, where yc and uc are y and u = f(a x
    + b) less their means. Unlike ``_scores``' sums, the centered form
    keeps its precision where u barely varies over x and c is large."""

    def __init__(self, name, x, yc, a, b):
        self.x, self.a, self.b = x, a, b
        self.u, self.slope, self.curve = _family_terms(name, a * x + b)
        self.uc = self.u - self.u.mean()
        uu = float(self.uc @ self.uc)
        self.c = float(self.uc @ yc) / uu if uu > 0.0 else 0.0
        self.resid = yc - self.c * self.uc
        self.ss = float(self.resid @ self.resid)

    def model(self):
        """Gradient and Hessian over (a, b) of half the residual sum of
        squares with c eliminated (the Schur complement of c in the full
        Hessian), and the diagonal of Kaufman's Gauss-Newton matrix, whose
        Jacobian is -c times f'(a x + b) (x, 1) with the constant and uc
        projected out. The Hessian adds the residual's second-order terms to
        Kaufman's matrix: without them a fit with a large residual crawls
        along its (a, b) valley for hundreds of steps."""
        x = self.x
        sx = self.slope * x
        cols = np.stack([sx - sx.mean(), self.slope - self.slope.mean(), self.uc])
        (gaa, gab, gau), (_, gbb, gbu), (_, _, uu) = (cols @ cols.T).tolist()
        ra, rb = (cols[:2] @ self.resid).tolist()  # resid is centered
        hx = self.curve * x
        qaa, qab, qbb = (np.stack([hx * x, hx, self.curve]) @ self.resid).tolist()
        c = self.c
        ta, tb = c * gau - ra, c * gbu - rb  # the (a, b), c cross terms
        grad = (-c * ra, -c * rb)
        hess = (
            c * c * gaa - c * qaa - ta * ta / uu,
            c * c * gab - c * qab - ta * tb / uu,
            c * c * gbb - c * qbb - tb * tb / uu,
        )
        kaufman = (c * c * (gaa - gau * gau / uu), c * c * (gbb - gbu * gbu / uu))
        return grad, hess, kaufman


def _polish(name, x, y, a, b):
    """(a, b, c, d) of a least-squares fit of c*f(a x + b) + d from the grid
    cell (a, b): Levenberg-Marquardt over (a, b) alone, with (c, d) in
    closed form at each (a, b), i.e. variable projection (Golub & Pereyra,
    1973). See ``_canonical_fit``."""
    y_mean = y.mean()
    yc = y - y_mean
    # |a| stays in the grid's range, and a keeps the cell's sign. Towards
    # a = 0 both families tend to polynomials: c runs into the thousands,
    # the residual flattens below its rounding noise, and the fit stops
    # following the edge to the digits its text shows.
    lo, hi = (A_GRID[0], A_GRID[-1]) if a > 0.0 else (-A_GRID[-1], -A_GRID[0])
    best = _Projected(name, x, yc, a, b)
    damping, growth = POLISH_DAMPING, 2.0
    model = None
    for _ in range(POLISH_STEPS):
        if model is None:
            if best.c == 0.0 or not np.isfinite(best.ss):
                break  # a flat or non-finite f(a x + b): nothing to follow
            model = best.model()
        (ga, gb), (haa, hab, hbb), (ka, kb) = model
        if not (ka > 0.0 and kb > 0.0):
            break
        p, s = haa + damping * ka, hbb + damping * kb
        det = p * s - hab * hab
        pinned = (best.a <= lo and ga > 0.0) or (best.a >= hi and ga < 0.0)
        if pinned and s > 0.0:
            step_a, step_b = 0.0, -gb / s
        elif not pinned and p > 0.0 and det > 0.0:
            step_a, step_b = -(s * ga - hab * gb) / det, -(p * gb - hab * ga) / det
        else:  # the damped model is not convex yet
            damping *= growth
            growth *= 2.0
            continue
        a_new = min(max(best.a + step_a, lo), hi)
        step_a = a_new - best.a
        trial = _Projected(name, x, yc, a_new, best.b + step_b)
        if trial.ss < best.ss:
            # Nielsen's update: the damping follows the ratio of the actual
            # to the predicted decrease of half the residual
            predicted = -(step_a * ga + step_b * gb) - 0.5 * (
                step_a * step_a * haa + 2.0 * step_a * step_b * hab + step_b * step_b * hbb
            )
            t = 2.0 * (0.5 * (best.ss - trial.ss) / predicted) - 1.0 if predicted > 0.0 else -1.0
            damping *= max(1.0 / 3.0, 1.0 - t * t * t)
            growth = 2.0
            best, model = trial, None
        else:
            damping *= growth
            growth *= 2.0
        small_a = abs(step_a) <= POLISH_TOL * (abs(best.a) + 1.0)
        if small_a and abs(step_b) <= POLISH_TOL * (abs(best.b) + 1.0):
            break
    return best.a, best.b, best.c, y_mean - best.c * best.u.mean()


def _cube_shifts(x_absmax):
    """Shift grid for (x + s)^3, covering every shift b/a of an (a, b) grid
    over ``A_GRID`` with |b| <= max(pi, |a| x_absmax): evenly spaced on
    [-x_absmax, x_absmax], where the inflection point lies among the
    samples, and geometric beyond, out to pi / min(A_GRID)."""
    near = np.linspace(-x_absmax, x_absmax, B_POINTS)
    reach = np.pi / A_GRID[0]
    if reach <= x_absmax:
        return near
    ratio = A_GRID[1] / A_GRID[0]
    count = int(np.ceil(np.log(reach / x_absmax) / np.log(ratio)))
    far = x_absmax * ratio ** np.arange(1, count + 1)
    far[-1] = reach
    return np.concatenate([-far[::-1], near, far])


def _trig_name(p, q):
    """Canonical (family, b, c) of p*sin(a x) + q*cos(a x): c >= 0, and the
    phase of whichever of sin and cos is smaller in magnitude, sin on a tie.
    So sin carries b in [-3pi/4, pi/4] and cos b in (-pi/4, 3pi/4)."""
    c = float(np.hypot(p, q))
    b_sin = float(np.arctan2(q, p))  # c*sin(a x + b) = p*sin(a x) + q*cos(a x)
    b_cos = b_sin - np.pi / 2  # c*cos(u - pi/2) = c*sin(u)
    if b_cos <= -np.pi:
        b_cos += 2.0 * np.pi
    if abs(b_cos) < abs(b_sin):
        return "cos", b_cos, c
    return "sin", b_sin, c


def _canonical_fit(name, x, y, x_absmax):
    """(family, a, b, c, d) of a least-squares fit of ``name``'s family in
    its canonical form, which has no redundant parameters:

    identity  a = 1, b = 0
    square    a = 1; b from the least-squares quadratic, |b| <= 1e5 x_absmax
    cube      a = 1; a line search over the shift b
    trig      a > 0 by line search over log a, phase in closed form; named
              sin or cos by ``_trig_name``
    exp       b = 0; a line search over log|a|, its sign from +-A_GRID
    gaussian  a in [0.01, 10]; the (a, b) grid, then ``_polish``
    silu      |a| in [0.01, 10]; the (a, b) grid over +-A_GRID, then
              ``_polish``

    (c, d) are closed-form for each candidate. The gaussian and silu grids
    are scored ``GRID_BLOCK`` a-values per call. ``_polish`` runs
    Levenberg-Marquardt over (a, b) from the best grid cell, with (c, d)
    eliminated (variable projection): its model is Kaufman's Gauss-Newton
    matrix plus the residual's second-order terms, it takes only steps
    that lower the residual, and it stops when a step falls below
    ``POLISH_TOL`` relative to (a, b), not when the residual stalls. Near
    the minimum, whether a residual counts as lower turns on rounding
    noise, while the step shrinks continuously with the edge, so an edge
    moved by a few ulp keeps its fit. |a| stays within the grid's range,
    with the grid cell's sign, so a gaussian's a stays positive.
    """
    if name == "trig":
        la = _line_search(lambda t: _trig_scores(np.exp(t), x, y)[0], np.log(A_GRID))
        a = float(np.exp(la))
        _, p, q, d = _trig_scores(np.array([a]), x, y)
        family, b, c = _trig_name(p[0], q[0])
        return family, a, b, c, float(d[0])
    func = FAMILIES[name]
    a, b = 1.0, 0.0
    if name == "square":
        p2, p1, _ = np.polyfit(x, y, 2)
        with np.errstate(divide="ignore", invalid="ignore"):
            b = p1 / (2.0 * p2)
        # A near-linear target puts the vertex far off; past this shift,
        # c*(x + b)^2 + d would round away the slope it is fitted for.
        limit = 1e5 * x_absmax
        b = 0.0 if np.isnan(b) else float(np.clip(b, -limit, limit))
    elif name == "cube":
        b = _line_search(
            lambda ts: _scores(_rows(func, x, np.ones(len(ts)), ts), y)[0],
            _cube_shifts(x_absmax),
        )
    elif name == "exp":
        signed = np.concatenate([A_GRID, -A_GRID])
        ss = _scores(_rows(func, x, signed, np.zeros(len(signed))), y)[0]
        sign = 1.0 if np.argmin(ss) < len(A_GRID) else -1.0
        la = _line_search(
            lambda ts: _scores(_rows(func, x, sign * np.exp(ts), np.zeros(len(ts))), y)[0],
            np.log(A_GRID),
        )
        a = sign * np.exp(la)
    elif name in ("gaussian", "silu"):
        a_values = A_GRID if name == "gaussian" else np.concatenate([A_GRID, -A_GRID])
        _, a, b = _grid_search(func, x, y, x_absmax, a_values)
        a, b, c, d = _polish(name, x, y, a, b)
        return name, float(a), float(b), float(c), float(d)
    _, c, d = _scores(_rows(func, x, [a], [b]), y)
    return name, float(a), float(b), float(c[0]), float(d[0])


def _fit_family(name, x_fit, y_fit, x_val, y_val, x_absmax):
    """Fit one ``FIT_ORDER`` entry on the fit samples; R2 on the held-out."""
    if name == "constant":
        family, a, b, c, d = name, 0.0, 0.0, 0.0, float(np.mean(y_fit))
        pred_val = np.full_like(y_val, d)
    else:
        family, a, b, c, d = _canonical_fit(name, x_fit, y_fit, x_absmax)
        with np.errstate(over="ignore", invalid="ignore"):
            pred_val = c * FAMILIES[family](a * x_val + b) + d
        if not np.all(np.isfinite(pred_val)):
            return SymbolicFit(family, a, b, c, d, 0.0)
    ss_res = float(np.sum((y_val - pred_val) ** 2))
    ss_tot = float(np.sum((y_val - y_val.mean()) ** 2))
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res <= 1e-24 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return SymbolicFit(family, a, b, c, d, max(0.0, r2))


def symbolify_edge(edge_fn, lo, hi, n_samples=FIT_SAMPLES, timing=None):
    """Best-matching library formula for a scalar function on [lo, hi].

    Fitting uses alternating sample points; the reported R2 comes from the
    held-out alternates. Degenerate (constant) samples return the constant
    family with R2 = 1. If ``timing`` is a dict, each ``FIT_ORDER`` entry's
    fit seconds are added to it.
    """
    if n_samples < 64:
        raise ValueError("need at least 64 sample points")
    if hi < lo:
        raise ValueError(f"empty domain [{lo}, {hi}]")
    if hi - lo < 1e-12:
        value = float(np.asarray(edge_fn(np.array([lo])))[0])
        return SymbolicFit("constant", 0.0, 0.0, 0.0, value, 1.0)
    xs = np.linspace(lo, hi, n_samples)
    ys = np.asarray(edge_fn(xs), dtype=np.float64)
    if np.ptp(ys) == 0.0:
        return SymbolicFit("constant", 0.0, 0.0, 0.0, float(ys[0]), 1.0)
    x_fit, y_fit = xs[::2], ys[::2]
    x_val, y_val = xs[1::2], ys[1::2]
    x_absmax = max(abs(lo), abs(hi))
    best = None
    for name in FIT_ORDER:
        start = time.perf_counter()
        fit = _fit_family(name, x_fit, y_fit, x_val, y_val, x_absmax)
        if timing is not None:
            timing[name] = timing.get(name, 0.0) + time.perf_counter() - start
        if best is None or fit.r2 > best.r2 + 1e-12:
            best = fit
    return best


def _fixed(value, decimals, sign=""):
    """``value`` at ``decimals`` places; one that rounds to zero prints as
    +0.00 (0.00 unsigned), never with the sign of its rounding noise."""
    if round(value, decimals) == 0.0:
        value = 0.0
    return f"{value:{sign}.{decimals}f}"


def render_fit(fit, decimals=2):
    """Text form c*f(a x + b) + d, matching the report's 2-decimal style."""
    if fit.family == "constant":
        return _fixed(fit.c + fit.d, decimals)
    inner = f"{_fixed(fit.a, decimals)}x"
    if round(fit.b, decimals) != 0.0:
        inner += _fixed(fit.b, decimals, "+")
    bodies = {
        "identity": f"({inner})",
        "square": f"({inner})^2",
        "cube": f"({inner})^3",
        "sin": f"sin({inner})",
        "cos": f"cos({inner})",
        "exp": f"exp({inner})",
        "gaussian": f"exp(-({inner})^2)",
        "silu": f"silu({inner})",
    }
    c, d = _fixed(fit.c, decimals), _fixed(fit.d, decimals, "+")
    return f"{c}{bodies[fit.family]}{d}"


# --- report generation ------------------------------------------------------------


@dataclass
class EdgeRecord:
    network: str
    layer: str          # qualified: "trend.0", "seasonal.1", "tf.p3"
    i: int
    j: int
    kind: str           # "taylor" | "trend-poly" | "fourier"
    l2: float
    fit: Optional[SymbolicFit]
    formula: str
    highlight: bool = False


def _layer_records(tag, li, layer, calibrated, pending):
    """Records for the injected and surviving adjustable edges of the KAN
    layer (tag, li). Adjustable records are returned unfitted; each is
    queued on ``pending`` as ``(record, (edge, lo, hi))`` for ``_fit_edges``.
    Pruned edges get no view: the final sort is a total order, so visiting
    only the kept pairs yields the same records. ``calibrated`` holds the
    input ranges of every layer with a surviving edge (``calibrate_ranges``)."""
    network, label, _ = _names(tag, li)
    records = []
    r = layer.inject_rows
    kind = "trend-poly" if layer.inject_kind == "trend" else "fourier"
    for i in range(layer.in_dim):
        for j in range(r):
            edge = layer.edge(i, j)
            records.append(
                EdgeRecord(network, label, i, j, kind, edge.l2_norm(), None, edge.formula())
            )
    for i, row in zip(*np.nonzero(layer.active.T)):
        i, j = int(i), int(row) + r
        node_lo, node_hi = calibrated[(tag, li)]
        lo, hi = padded_range(node_lo[i], node_hi[i])
        edge = layer.edge(i, j)
        record = EdgeRecord(network, label, i, j, "taylor", edge.l2_norm(), None, "")
        records.append(record)
        pending.append((record, (edge, lo, hi)))
    return records


def _fit_job(job):
    """Fit one ``(edge, lo, hi)`` job; returns (fit, wall seconds, seconds
    per ``FIT_ORDER`` entry)."""
    edge, lo, hi = job
    start = time.perf_counter()
    family_s = {}
    fit = symbolify_edge(edge, lo, hi, timing=family_s)
    return fit, time.perf_counter() - start, family_s


def _fit_edges(jobs):
    """Fit every job, in order, on one worker per CPU of the process's
    affinity mask; returns ``_fit_job``'s results and the worker count.

    With one worker (or at most one job) the fits run in-process. Otherwise
    a fork pool inherits the calibrated, pruned model copy-on-write, so only
    the edge views and the fits are pickled. The fork is safe here: the
    executor forks every worker before it starts its manager thread, the
    fused tensor ops join their slab threads before they return (a
    persistent thread pool there would break this), and OpenBLAS stops its
    own threads in an atfork handler. Python 3.12 and later warn when a
    process with live threads forks, which the test suite turns into an
    error; the suite has been run on Python 3.11 only, so that check is
    unverified. Jobs go out one at
    a time, because fit times vary by about 1.5x. A worker's exception is
    re-raised here with its own type, and a worker that dies raises
    ``BrokenProcessPool`` instead of hanging.
    """
    workers = min(len(os.sched_getaffinity(0)), len(jobs))
    if workers <= 1:
        return [_fit_job(job) for job in jobs], workers
    # imported here so that train, eval and forecasting never load them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        return list(pool.map(_fit_job, jobs, chunksize=1)), workers
    finally:
        pool.shutdown(cancel_futures=True)


def generate_report(model, tau, top_m, calib_inputs, timing=None):
    """Prune at tau, then symbolify surviving adjustable edges and render
    injected ones exactly. Returns (prune_rows, edge_records).

    If ``timing`` is a dict, it receives the wall seconds of calibration,
    pruning and the fit of the surviving edges, the worker count, each
    edge's fit seconds and each ``FIT_ORDER`` entry's seconds summed over
    the edges (see ``format_report_timing``).
    """
    start = time.perf_counter()
    # The layers to calibrate are read before pruning, and so are their
    # ranges: layer 1's inputs are the unpruned layer 0's outputs.
    kept = [key for key, layer in model.kan_layers() if _kept(layer, tau).any()]
    ranges = calibrate_ranges(model, calib_inputs, layers=kept)
    calibrated = time.perf_counter()
    prune_rows = prune(model, tau)
    pruned = time.perf_counter()
    records, pending = [], []
    for (tag, li), layer in model.kan_layers():
        records += _layer_records(tag, li, layer, ranges, pending)
    fit_start = time.perf_counter()
    results, workers = _fit_edges([job for _, job in pending])
    fitted = time.perf_counter()
    for (record, _), (fit, _, _) in zip(pending, results):
        record.fit, record.formula = fit, render_fit(fit)
    records.sort(key=lambda r: (r.network, r.layer, -r.l2, r.i, r.j))
    for net_name in NETWORKS.values():
        candidates = sorted(
            (r for r in records if r.network == net_name and r.kind == "taylor"),
            key=lambda r: -r.l2,
        )
        for r in candidates[:top_m]:
            r.highlight = True
    if timing is not None:
        timing.update(
            calibrate_s=calibrated - start, prune_s=pruned - calibrated,
            fit_s=fitted - fit_start, workers=workers,
            edge_s=[seconds for _, seconds, _ in results],
            family_s={
                name: sum(family_s.get(name, 0.0) for _, _, family_s in results)
                for name in FIT_ORDER
            },
        )
    return prune_rows, records


# --- file rendering ----------------------------------------------------------------

def format_prune_report(rows):
    lines = ["network\tlayer\tpruned\tpreserved\ttotal\tratio"]
    for r in rows:
        lines.append(
            f"{r.network}\t{r.layer}\t{r.pruned}\t{r.preserved}\t{r.total}"
            f"\t{100.0 * r.ratio:.2f}%"
        )
    return "\n".join(lines) + "\n"


def format_symbolic_report(records, top_m):
    lines = [
        "symbolic report: c*f(a x + b) + d per surviving edge, "
        "sorted by edge norm within each layer",
        f"highlights: top {top_m} edges per network by L2 norm (*)",
        "",
        "network\tlayer\ti\tj\tformula\tl2norm\tr2\thighlight",
    ]
    for r in records:
        r2 = f"{r.fit.r2:.4f}" if r.fit is not None else "exact"
        mark = "*" if r.highlight else ""
        lines.append(
            f"{r.network}\t{r.layer}\t{r.i}\t{r.j}\t{r.formula}\t{r.l2:.6e}\t{r2}\t{mark}"
        )
    return "\n".join(lines) + "\n"


def format_machine_report(records):
    lines = ["layer\ti\tj\tfamily\ta\tb\tc\td\tr2\tl2norm"]
    for r in records:
        if r.fit is not None:
            fam, a, b, c, d, r2 = (
                r.fit.family, r.fit.a, r.fit.b, r.fit.c, r.fit.d, r.fit.r2,
            )
        else:
            fam, a, b, c, d, r2 = r.kind, 0.0, 0.0, 1.0, 0.0, 1.0
        lines.append(
            f"{r.layer}\t{r.i}\t{r.j}\t{fam}\t{a!r}\t{b!r}\t{c!r}\t{d!r}\t{r2!r}\t{r.l2!r}"
        )
    return "\n".join(lines) + "\n"


def format_graph_description(records):
    """Node and surviving-edge listing consumable by external plotting."""
    lines = ["type\tnetwork\tlayer\ti\tj\tl2norm\thighlight"]
    seen_layers = {(r.network, r.layer) for r in records}
    for net_name, layer in sorted(seen_layers):
        lines.append(f"layer\t{net_name}\t{layer}\t\t\t\t")
    for r in records:
        lines.append(
            f"edge\t{r.network}\t{r.layer}\t{r.i}\t{r.j}\t{r.l2!r}"
            f"\t{1 if r.highlight else 0}"
        )
    return "\n".join(lines) + "\n"


def format_fit_summary(records):
    """Per network: fitted edges, the count per family and R2 min/p10/p50.
    Deterministic, like the other report files."""
    lines = ["network\tedges\t" + "\t".join(FAMILY_ORDER) + "\tr2_min\tr2_p10\tr2_p50"]
    for net_name in NETWORKS.values():
        fits = [r.fit for r in records if r.network == net_name and r.fit is not None]
        counts = [sum(f.family == name for f in fits) for name in FAMILY_ORDER]
        if fits:
            r2 = np.array([f.r2 for f in fits])
            quantiles = [r2.min(), np.percentile(r2, 10), np.percentile(r2, 50)]
            rendered = [f"{q:.6f}" for q in quantiles]
        else:
            rendered = ["-"] * 3
        fields = [net_name, str(len(fits))] + [str(c) for c in counts] + rendered
        lines.append("\t".join(fields))
    return "\n".join(lines) + "\n"


def format_report_timing(timing):
    """Wall times of a report run, from ``generate_report(timing=...)``.
    Kept apart from the deterministic files: these vary run to run. The
    ``fit_<name>_s`` rows sum one ``FIT_ORDER`` fit over every edge, in the
    worker that ran it; ``fit_trig_s`` covers sin and cos."""
    edge_s = timing["edge_s"]
    rows = [
        ("calibrate_s", f"{timing['calibrate_s']:.6f}"),
        ("prune_s", f"{timing['prune_s']:.6f}"),
        ("fit_s", f"{timing['fit_s']:.6f}"),
        ("workers", str(timing["workers"])),
        ("edges_fitted", str(len(edge_s))),
        ("edge_fit_sum_s", f"{sum(edge_s):.6f}"),
        ("edge_fit_p50_s", f"{float(np.median(edge_s)):.6f}" if edge_s else "-"),
    ]
    rows += [(f"fit_{name}_s", f"{timing['family_s'][name]:.6f}") for name in FIT_ORDER]
    return "metric\tvalue\n" + "".join(f"{k}\t{v}\n" for k, v in rows)
