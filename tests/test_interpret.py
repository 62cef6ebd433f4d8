import concurrent.futures
import copy
import os
import threading
import tracemalloc

import numpy as np
import pytest

import itfkan.interpret as interpret
import itfkan.taylorkan as taylorkan
import itfkan.tensor as tensor
import itfkan.tfsynergy as tfsynergy
from itfkan.interpret import (
    FAMILIES,
    FAMILY_ORDER,
    FIT_ORDER,
    SymbolicFit,
    calibrate_ranges,
    format_fit_summary,
    format_graph_description,
    format_machine_report,
    format_prune_report,
    format_report_timing,
    format_symbolic_report,
    generate_report,
    prune,
    render_fit,
    symbolify_edge,
)
from itfkan.model import ForecastModel, ModelConfig
from itfkan.taylorkan import TaylorEdge, TaylorKanLayer
from itfkan.tensor import Tensor, no_grad
from itfkan.tfsynergy import Unpatcher

ULP = np.finfo(np.float64).eps
# per-coefficient scalings by a few ulp, as a retrained model might move them
ULP_SCALES = (
    1.0 + ULP * np.array([3.0, -2.0, 4.0, -1.0]),
    1.0 + ULP * np.array([-4.0, 1.0, -3.0, 2.0]),
)


def micro_model(seed=0):
    cfg = ModelConfig(
        lookback=4, horizon=2, embed_dim=2, kernel=3, trend_degree=1,
        top_k=1, patch_len=2, stride=2, lr=1e-3, batch_size=2, epochs=1,
        patience=1,
    )
    return ForecastModel(cfg, [0.5], seed=seed)


def etth1_shaped_model():
    cfg = ModelConfig(lookback=96, horizon=96, embed_dim=32)
    freqs = [2.0 * b / 96 for b in (4, 8, 12, 24, 48)]
    return ForecastModel(cfg, freqs, seed=0)


# --- pruning ------------------------------------------------------------------

def test_prune_zero_threshold_preserves_all():
    rows = prune(micro_model(), 0.0)
    for r in rows:
        assert r.pruned == 0
        assert r.preserved == r.total
        assert r.ratio == 0.0


def test_prune_infinite_threshold_prunes_all_adjustable():
    rows = prune(micro_model(), np.inf)
    for r in rows:
        assert r.preserved == 0
        assert r.pruned == r.total
        assert r.ratio == 1.0


def test_prune_counts_sum_to_total():
    for tau in (0.0, 1e-6, 1e-4, 1e-2):
        rows = prune(micro_model(seed=3), tau)
        for r in rows:
            assert r.pruned + r.preserved == r.total


def test_prune_monotone_in_threshold():
    previous = None
    for tau in (0.0, 1e-6, 1e-4, 1e-2, np.inf):
        rows = prune(micro_model(seed=5), tau)
        preserved = sum(r.preserved for r in rows)
        if previous is not None:
            assert preserved <= previous
        previous = preserved


def test_prune_rejects_negative_threshold():
    with pytest.raises(ValueError):
        prune(micro_model(), -1.0)


def test_prune_rejects_nan_threshold_and_keeps_every_edge():
    model = micro_model()
    before = [layer.active.copy() for _, layer in model.kan_layers()]
    with pytest.raises(ValueError, match="got nan"):
        prune(model, np.nan)
    for mask, (_, layer) in zip(before, model.kan_layers()):
        np.testing.assert_array_equal(layer.active, mask)


def test_etth1_shaped_totals():
    rows = prune(etth1_shaped_model(), 5e-4)
    table = {(r.network, r.layer): r.total for r in rows}
    assert table[("TrendKAN", "0")] == 8928
    assert table[("TrendKAN", "1")] == 9216
    assert table[("SeasonalKAN", "0")] == 8736
    assert table[("SeasonalKAN", "1")] == 9216
    assert table[("TFKAN", "-")] == 1377


def test_pruned_forward_is_bitwise_explicit_zero():
    model = micro_model(seed=7)
    x = np.random.default_rng(8).normal(size=(3, 4))
    explicit = copy.deepcopy(model)
    # zero the same edges by hand in the copy
    tau = 1e-3
    for layer in (
        explicit.trend_kan.layers
        + explicit.seasonal_kan.layers
        + explicit.tf_kans.layers
    ):
        drop = layer.taylor_norms() < tau
        for t in (layer.w, layer.a0, layer.a1, layer.a2):
            t.data[drop] = 0.0
    prune(model, tau)
    got = model.forward(Tensor(x)).data
    expected = explicit.forward(Tensor(x)).data
    np.testing.assert_array_equal(got, expected)


def test_prune_exempts_injected_edges():
    model = micro_model(seed=9)
    trend_layer = model.trend_kan.layers[0]
    before = [c.data.copy() for c in trend_layer.poly_coeffs]
    prune(model, np.inf)
    for c, b in zip(trend_layer.poly_coeffs, before):
        np.testing.assert_array_equal(c.data, b)


def test_prune_masks_survive_reload(tmp_path):
    cfg = ModelConfig(
        lookback=24, horizon=8, embed_dim=4, kernel=5, top_k=2, patch_len=4,
        stride=4,
    )
    model = ForecastModel(cfg, [0.25, 0.5], seed=1)
    kept = sum(r.preserved for r in prune(model, tau_keeping(model, 4)))
    assert kept == 4
    path = str(tmp_path / "pruned.itfk")
    model.save(path)
    loaded, _ = ForecastModel.load(path)
    # tau = 0 prunes nothing new, so it counts the edges the reload kept
    assert sum(r.preserved for r in prune(loaded, 0.0)) == kept
    for before, after in zip(
        model.trend_kan.layers + model.tf_kans.layers,
        loaded.trend_kan.layers + loaded.tf_kans.layers,
    ):
        np.testing.assert_array_equal(after.active, before.active)


def test_hand_zeroed_edge_counts_as_pruned_in_memory(tmp_path):
    """An edge whose w, a0, a1 and a2 are all 0 is pruned, whether it was
    zeroed by hand in memory or read back from a checkpoint."""
    model = micro_model(seed=5)
    layer = model.trend_kan.layers[1]
    for t in (layer.w, layer.a0, layer.a1, layer.a2):
        t.data[0, 2] = 0.0
    assert not layer.active[0, 2] and layer.active.sum() == layer.n_adjustable - 1
    path = str(tmp_path / "zeroed.itfk")
    model.save(path)
    loaded, _ = ForecastModel.load(path)
    rows = prune(model, 0.0)
    assert (rows[1].network, rows[1].layer) == ("TrendKAN", "1")
    assert rows[1].preserved == layer.n_adjustable - 1
    assert [r.preserved for r in prune(loaded, 0.0)] == [r.preserved for r in rows]


# --- symbolification -------------------------------------------------------------

def test_sin_recovers_itself():
    fit = symbolify_edge(np.sin, -np.pi, np.pi)
    assert fit.family == "sin"
    assert fit.r2 > 0.999
    assert abs(fit.a - 1.0) < 1e-3
    assert abs(fit.b) < 1e-3
    assert abs(fit.c - 1.0) < 1e-3
    assert abs(fit.d) < 1e-3


def test_constant_function_exact():
    fit = symbolify_edge(lambda x: np.full_like(np.asarray(x, float), 5.0), -2.0, 2.0)
    assert fit.family == "constant"
    assert fit.r2 == 1.0
    assert fit.c + fit.d == 5.0


def test_degenerate_domain_returns_constant():
    fit = symbolify_edge(np.exp, 1.25, 1.25)
    assert fit.family == "constant"
    assert fit.r2 == 1.0
    np.testing.assert_allclose(fit.d, np.exp(1.25))


def test_reported_r2_matches_residual_oracle():
    # generic trained-edge shape: 2*silu(x) + 1 + x + x^2
    def edge(x):
        x = np.asarray(x, dtype=np.float64)
        return 2.0 * x / (1.0 + np.exp(-x)) + 1.0 + x + x * x

    lo, hi = -2.0, 2.0
    fit = symbolify_edge(edge, lo, hi)
    xs = np.linspace(lo, hi, 257)
    held_x, held_y = xs[1::2], edge(xs[1::2])
    pred = fit.c * FAMILIES[fit.family](fit.a * held_x + fit.b) + fit.d
    ss_res = np.sum((held_y - pred) ** 2)
    ss_tot = np.sum((held_y - held_y.mean()) ** 2)
    oracle = 1.0 - ss_res / ss_tot
    assert abs(fit.r2 - max(0.0, oracle)) < 1e-6


def test_disguised_family_recovery_sample():
    rng = np.random.default_rng(42)
    for fam in ("square", "cube", "exp", "gaussian", "silu", "identity"):
        a = rng.uniform(0.5, 2.0)
        b = rng.uniform(-1.0, 1.0)
        c = rng.uniform(0.5, 5.0)
        d = rng.uniform(-5.0, 5.0)
        f = FAMILIES[fam]
        fit = symbolify_edge(lambda x, f=f: c * f(a * np.asarray(x, float) + b) + d, -3.0, 3.0)
        assert fit.family == fam, (fam, fit)
        assert fit.r2 > 0.99


def samples(fn, lo, hi):
    """The fit and held-out samples ``symbolify_edge`` takes on [lo, hi]."""
    xs = np.linspace(lo, hi, interpret.FIT_SAMPLES)
    ys = fn(xs)
    return xs[::2], ys[::2], xs[1::2], ys[1::2], max(abs(lo), abs(hi))


def canonical_targets():
    """Trained-edge shapes and disguised members of every family."""
    rng = np.random.default_rng(61)
    for _ in range(4):
        edge = TaylorEdge(rng.uniform(-2.0, 2.0), rng.normal(size=3))
        lo = rng.uniform(-3.0, 0.5)
        yield edge, lo, lo + rng.uniform(0.5, 4.0)
    for fam in ("square", "cube", "sin", "cos", "exp", "gaussian", "silu"):
        a, b = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0]), rng.uniform(-1.0, 1.0)
        c, d = rng.uniform(0.5, 5.0) * rng.choice([-1.0, 1.0]), rng.uniform(-5.0, 5.0)
        yield (lambda x, f=FAMILIES[fam], a=a, b=b, c=c, d=d: c * f(a * x + b) + d), -3.0, 3.0


@pytest.mark.parametrize("name", [n for n in FIT_ORDER if n != "constant"])
def test_each_family_fits_its_canonical_form(name):
    for fn, lo, hi in canonical_targets():
        fit = interpret._fit_family(name, *samples(fn, lo, hi))
        if name == "trig":
            assert fit.family in ("sin", "cos")
        else:
            assert fit.family == name
        if name == "identity":
            assert (fit.a, fit.b) == (1.0, 0.0)
        elif name in ("square", "cube"):
            assert fit.a == 1.0
        elif name == "exp":
            assert fit.b == 0.0
        elif name == "gaussian":
            assert fit.a > 0.0
        elif name == "trig":
            assert fit.a > 0.0 and fit.c > 0.0
            if fit.family == "sin":
                assert -0.75 * np.pi <= fit.b <= 0.25 * np.pi, fit
            else:
                assert -0.25 * np.pi < fit.b < 0.75 * np.pi, fit


def test_trig_fit_names_the_smaller_phase():
    for phase, family, b in (
        (0.2, "sin", 0.2), (-2.0, "sin", -2.0), (1.2, "cos", 1.2 - np.pi / 2),
        (3.0, "cos", 3.0 - np.pi / 2), (-2.6, "cos", -2.6 + 1.5 * np.pi),
    ):
        target = lambda x, phase=phase: 2.0 * np.sin(0.8 * x + phase)
        fit = interpret._fit_family("trig", *samples(target, -3.0, 3.0))
        assert fit.family == family
        np.testing.assert_allclose([fit.a, fit.b, fit.c, fit.d], [0.8, b, 2.0, 0.0], atol=1e-6)


def test_exact_linear_and_quadratic_targets():
    linear = interpret._fit_family("identity", *samples(lambda x: 2.5 * x - 1.25, -3.0, 2.0))
    assert linear.r2 >= 1.0 - 1e-12
    np.testing.assert_allclose([linear.c, linear.d], [2.5, -1.25], rtol=1e-12)
    quadratic = lambda x: 0.7 * (x + 0.4) ** 2 - 2.0
    square = interpret._fit_family("square", *samples(quadratic, -3.0, 2.0))
    assert square.r2 >= 1.0 - 1e-12
    np.testing.assert_allclose([square.b, square.c, square.d], [0.4, 0.7, -2.0], rtol=1e-12)
    # a line is the square family's limit b -> inf: its fit keeps the slope
    near = interpret._fit_family("square", *samples(lambda x: 2.5 * x - 1.25, -3.0, 2.0))
    assert near.r2 >= 1.0 - 1e-9
    assert symbolify_edge(lambda x: 2.5 * x - 1.25, -3.0, 2.0).family == "identity"
    assert symbolify_edge(quadratic, -3.0, 2.0).family == "square"


@pytest.mark.parametrize(
    "w,a0,text",
    [
        (0.3, 0.0, "0.30silu(1.00x)+0.00"),
        (-0.9, 0.0, "-0.90silu(1.00x)+0.00"),
        (1.7, -0.4, "1.70silu(1.00x)-0.68"),
        (-0.05, 2.0, "-0.05silu(1.00x)-0.10"),
    ],
)
def test_linear_free_edge_is_exactly_silu(w, a0, text):
    # with a1 = a2 = 0 an edge is w*silu(x) + w*a0, a member of the silu family
    fit = symbolify_edge(TaylorEdge(w, [a0, 0.0, 0.0]), -2.5, 3.0)
    assert fit.family == "silu"
    assert fit.r2 >= 1.0 - 1e-9
    np.testing.assert_allclose([fit.a, fit.b], [1.0, 0.0], atol=1e-6)
    np.testing.assert_allclose([fit.c, fit.d], [w, w * a0], rtol=1e-6, atol=1e-6 * abs(w))
    assert render_fit(fit) == text


@pytest.mark.parametrize(
    "kind,params",
    [
        ("sin", (0.45, 0.0, 1.5, 0.0)),   # b = 0 against b = -pi with -c
        ("sin", (0.7, 0.0, 1.5, 0.0)),
        ("exp", (0.6, 0.5, 2.0, -1.0)),   # c*e^b is one constant
        ("exp", (-0.9, 0.2, -1.5, 3.0)),
        ("gaussian", (-0.8, 0.3, 2.0, -1.0)),  # (a, b) and (-a, -b) are one fit
        ("silu", (1.3, -0.45, 1.5, 0.5)),
    ],
)
def test_synthetic_text_survives_ulp_perturbations(kind, params):
    f = FAMILIES[kind]

    def target(p):
        a, b, c, d = p
        return lambda x: c * f(a * np.asarray(x, float) + b) + d

    params = np.array(params)
    text = render_fit(symbolify_edge(target(params), -2.0, 3.0))
    for scale in ULP_SCALES:
        assert render_fit(symbolify_edge(target(params * scale), -2.0, 3.0)) == text


def grid_a_values(name):
    """The a-values of ``name``'s (a, b) grid, as ``_canonical_fit`` has them."""
    a_grid = interpret.A_GRID
    return np.concatenate([a_grid, -a_grid]) if name == "silu" else a_grid


def grid_cell(name, x, y, x_absmax):
    """The best (ss, a, b) of ``name``'s (a, b) grid."""
    return interpret._grid_search(FAMILIES[name], x, y, x_absmax, grid_a_values(name))


@pytest.mark.parametrize(
    "name,params",
    [
        # a halfway (in log) between grid points, b off the b grid
        ("gaussian", (np.sqrt(interpret.A_GRID[20] * interpret.A_GRID[21]), 0.37, 1.7, -0.4)),
        ("gaussian", (np.sqrt(interpret.A_GRID[33] * interpret.A_GRID[34]), -1.3, -0.6, 2.0)),
        ("silu", (-np.sqrt(interpret.A_GRID[26] * interpret.A_GRID[27]), 0.53, -2.2, 0.9)),
        ("silu", (np.sqrt(interpret.A_GRID[24] * interpret.A_GRID[25]), -0.21, 3.1, -1.0)),
    ],
)
def test_polish_recovers_exact_targets_between_grid_points(name, params):
    a, b, c, d = params
    target = lambda x: c * FAMILIES[name](a * x + b) + d
    fit = interpret._fit_family(name, *samples(target, -3.0, 3.0))
    assert fit.family == name
    np.testing.assert_allclose([fit.a, fit.b, fit.c, fit.d], params, rtol=1e-8, atol=1e-8)


def random_taylor_edges(count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        lo = rng.uniform(-3.0, 0.5)
        yield TaylorEdge(rng.uniform(-2.0, 2.0), rng.normal(size=3)), lo, lo + rng.uniform(0.5, 4.0)


@pytest.mark.parametrize("name", ["gaussian", "silu"])
def test_polish_never_fits_worse_than_its_grid_cell(name):
    """The polish takes only steps that lower the fit-set residual, measured
    the way it measures it: centered, with c in closed form."""
    for edge, lo, hi in random_taylor_edges(12, seed=91):
        x, y, _, _, x_absmax = samples(edge, lo, hi)
        _, a0, b0 = grid_cell(name, x, y, x_absmax)
        a, b, _, _ = interpret._polish(name, x, y, a0, b0)
        yc = y - y.mean()
        polished = interpret._Projected(name, x, yc, a, b).ss
        assert polished <= interpret._Projected(name, x, yc, a0, b0).ss
        assert interpret.A_GRID[0] <= abs(a) <= interpret.A_GRID[-1]
        assert np.sign(a) == np.sign(a0)


def test_polish_keeps_a_flat_cell():
    """exp(-(10x + 40)^2) underflows to 0 on [-1, 1]: the fit is the mean."""
    x = np.linspace(-1.0, 1.0, 129)
    y = np.sin(x)
    assert interpret._polish("gaussian", x, y, 10.0, 40.0) == (10.0, 40.0, 0.0, y.mean())


@pytest.mark.parametrize("name", ["gaussian", "silu"])
def test_grid_blocks_pick_the_per_a_cell(name):
    """Scoring the grid a block of a-values at a time picks bitwise the cell
    that one ``_scores`` call per a-value picks."""
    func = FAMILIES[name]
    for edge, lo, hi in random_taylor_edges(6, seed=17):
        x, y, _, _, x_absmax = samples(edge, lo, hi)
        best = (np.inf, 1.0, 0.0)
        for a in grid_a_values(name):
            span = max(np.pi, abs(a) * x_absmax)
            bs = np.linspace(-span, span, interpret.B_POINTS)
            ss = interpret._scores(interpret._rows(func, x, np.full(len(bs), a), bs), y)[0]
            idx = int(np.argmin(ss))
            if ss[idx] < best[0]:
                best = (float(ss[idx]), float(a), float(bs[idx]))
        assert grid_cell(name, x, y, x_absmax) == best


def test_scores_of_non_finite_rows_are_inf():
    x = np.linspace(-1.0, 2.0, 65)
    y = np.sin(x)
    finite = np.stack([x, x * x, np.exp(x)])
    rows = np.concatenate([finite, [np.where(x > 0.5, np.inf, x)], [np.where(x < 0.0, np.nan, x)]])
    scores = interpret._scores(rows, y)
    assert scores[0][3] == np.inf and scores[0][4] == np.inf
    # the finite rows score as if the non-finite cells were zeros
    zeroed = interpret._scores(np.where(np.isfinite(rows), rows, 0.0), y)
    for got, want in zip(scores, zeroed):
        np.testing.assert_array_equal(got[:3], want[:3])
    assert np.all(np.isfinite(zeroed[0]))


def test_fit_seconds_per_family():
    timing = {}
    symbolify_edge(TaylorEdge(0.8, [0.1, 0.3, -0.2]), -1.0, 2.0, timing=timing)
    assert sorted(timing) == sorted(FIT_ORDER)
    assert all(seconds > 0.0 for seconds in timing.values())


@pytest.mark.filterwarnings("error")
def test_wide_range_fit_warns_nothing():
    """exp of a wide argument overflows in the candidate scores; those rows
    score inf without a RuntimeWarning."""
    fit = symbolify_edge(TaylorEdge(1.0, [0.0, 0.1, 0.01]), -40.0, 40.0)
    assert fit.family in FAMILIES and 0.99 < fit.r2 <= 1.0


def test_rejects_too_few_samples():
    with pytest.raises(ValueError):
        symbolify_edge(np.sin, -1.0, 1.0, n_samples=32)


def test_r2_clamped_to_zero():
    fit = SymbolicFit("sin", 1.0, 0.0, 1.0, 0.0, 0.0)
    assert fit.r2 >= 0.0


# --- rendering ----------------------------------------------------------------------

def test_render_reference_example():
    fit = SymbolicFit("sin", -0.02, -4.70, 114.33, -114.31, 0.999)
    assert render_fit(fit) == "114.33sin(-0.02x-4.70)-114.31"


def test_render_omits_zero_shift():
    fit = SymbolicFit("cos", -0.04, 0.001, 34.15, -34.14, 0.99)
    assert render_fit(fit) == "34.15cos(-0.04x)-34.14"


def test_render_gaussian():
    fit = SymbolicFit("gaussian", -1.34, -1.34, -0.79, 0.13, 0.9)
    assert render_fit(fit) == "-0.79exp(-(-1.34x-1.34)^2)+0.13"


def test_render_prints_values_rounding_to_zero_unsigned():
    # an exact 0.3*silu(x) edge fits d = -1.1e-8, a -0.9*silu(x) one d = +3.2e-8
    assert render_fit(SymbolicFit("silu", 1.0, 0.0, 0.3, -1.1e-8, 1.0)) == (
        "0.30silu(1.00x)+0.00"
    )
    assert render_fit(SymbolicFit("silu", 1.0, 0.0, -0.9, 3.2e-8, 1.0)) == (
        "-0.90silu(1.00x)+0.00"
    )
    assert render_fit(SymbolicFit("exp", -0.004, 0.0, -0.001, 0.5, 1.0)) == (
        "0.00exp(0.00x)+0.50"
    )
    assert render_fit(SymbolicFit("constant", 0.0, 0.0, 0.0, -0.004, 1.0)) == "0.00"
    assert render_fit(SymbolicFit("cube", 1.0, -0.006, 2.0, -0.005, 1.0)) == (
        "2.00(1.00x-0.01)^3-0.01"
    )


def test_render_constant_folds_to_value():
    fit = SymbolicFit("constant", 0.0, 0.0, 0.0, 4.5, 1.0)
    assert render_fit(fit) == "4.50"


# --- report generation -----------------------------------------------------------------

def calib_windows(model, count=4, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(count, 2, model.config.lookback))


def test_report_tau_infinite_only_injected():
    model = micro_model(seed=11)
    _, records = generate_report(model, np.inf, 3, calib_windows(model))
    assert records
    assert all(r.kind in ("trend-poly", "fourier") for r in records)


def test_report_tau_zero_covers_all_edges():
    model = micro_model(seed=12)
    prune_rows, records = generate_report(model, 0.0, 3, calib_windows(model))
    taylor_rows = [r for r in records if r.kind == "taylor"]
    assert len(taylor_rows) == sum(r.preserved for r in prune_rows)
    injected = [r for r in records if r.kind != "taylor"]
    trend_l0 = model.trend_kan.layers[0]
    seasonal_l0 = model.seasonal_kan.layers[0]
    assert len(injected) == trend_l0.n_injected + seasonal_l0.n_injected


def test_report_row_count_matches_preserved():
    model = micro_model(seed=13)
    prune_rows, records = generate_report(model, 1e-3, 3, calib_windows(model))
    preserved = sum(r.preserved for r in prune_rows)
    assert len([r for r in records if r.kind == "taylor"]) == preserved


def test_report_highlights_top_m_per_network():
    model = micro_model(seed=14)
    _, records = generate_report(model, 0.0, 3, calib_windows(model))
    for net in ("TrendKAN", "SeasonalKAN", "TFKAN"):
        highlighted = [r for r in records if r.network == net and r.highlight]
        available = [r for r in records if r.network == net and r.kind == "taylor"]
        assert len(highlighted) == min(3, len(available))
        floor = min(r.l2 for r in highlighted)
        for r in available:
            if not r.highlight:
                assert r.l2 <= floor + 1e-15


def test_report_sorted_by_norm_within_layer():
    model = micro_model(seed=15)
    _, records = generate_report(model, 0.0, 2, calib_windows(model))
    by_layer = {}
    for r in records:
        by_layer.setdefault((r.network, r.layer), []).append(r.l2)
    for norms in by_layer.values():
        assert norms == sorted(norms, reverse=True)


def test_report_formats_parse():
    model = micro_model(seed=16)
    prune_rows, records = generate_report(model, 1e-2, 2, calib_windows(model))
    prune_text = format_prune_report(prune_rows)
    assert prune_text.startswith("network\tlayer")
    sym_text = format_symbolic_report(records, 2)
    assert "formula" in sym_text.splitlines()[3]
    machine = format_machine_report(records)
    header = machine.splitlines()[0].split("\t")
    assert header == ["layer", "i", "j", "family", "a", "b", "c", "d", "r2", "l2norm"]
    for line in machine.splitlines()[1:]:
        fields = line.split("\t")
        assert len(fields) == 10
        float(fields[4]); float(fields[8]); float(fields[9])


def test_calibration_ranges_cover_inputs():
    model = micro_model(seed=17)
    windows = calib_windows(model, count=6, seed=18)
    ranges = calibrate_ranges(model, windows, batch_size=2)
    assert ("trend", 0) in ranges and ("seasonal", 0) in ranges
    lo, hi = ranges[("trend", 0)]
    assert lo.shape == (model.config.lookback,)
    assert np.all(lo <= hi)


def time_axis_inputs(model, windows, batch_size):
    """Per-node input ranges of each time-axis KAN layer, as the model's own
    no-grad forward feeds them, batch by batch: the rows from which each
    layer of a ``taylor_kan`` call builds its basis, slab by slab, the
    second layer's inside the op's scratch."""
    keys = {id(layer.w): key for key, layer in model.kan_layers()}
    seen = {}
    running = []  # the keys of the running taylor_kan call's layers
    calls = [0]  # its basis calls so far: one per layer per slab, in order
    real_op, real_basis = taylorkan.taylor_kan, tensor._taylor_basis

    def op(x, layers, prior=None, **kwargs):
        running[:] = [keys[id(ps[0])] for ps in layers]
        calls[0] = 0
        return real_op(x, layers, prior=prior, **kwargs)

    def basis(xs, bufs):
        key = running[calls[0] % len(running)]
        calls[0] += 1
        seen.setdefault(key, []).append((xs.min(axis=0), xs.max(axis=0)))
        return real_basis(xs, bufs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "sched_getaffinity", lambda pid: {0})  # slabs in order, on the caller
        mp.setattr(taylorkan, "taylor_kan", op)
        mp.setattr(tensor, "_taylor_basis", basis)
        with no_grad():
            for start in range(0, len(windows), batch_size):
                xb = windows[start : start + batch_size]
                model.forward(Tensor(xb.reshape(-1, xb.shape[2])))
    return {
        key: (np.min([lo for lo, _ in pairs], axis=0), np.max([hi for _, hi in pairs], axis=0))
        for key, pairs in seen.items()
    }


def test_calibration_matches_forward_inputs():
    model = micro_model(seed=30)
    windows = calib_windows(model, count=5, seed=31)  # the last batch is partial
    ranges = calibrate_ranges(model, windows, batch_size=2)
    assert sorted(ranges) == sorted(key for key, _ in model.kan_layers())
    expected = time_axis_inputs(model, windows, batch_size=2)
    assert sorted(expected) == [("seasonal", 0), ("seasonal", 1), ("trend", 0), ("trend", 1)]
    for key, (lo, hi) in expected.items():
        np.testing.assert_array_equal(ranges[key][0], lo)
        np.testing.assert_array_equal(ranges[key][1], hi)


def test_calibration_holds_at_most_two_series_arrays():
    """A 448-row calibration batch at the reference shape holds at most
    two (N, d, L) arrays beyond what it started with: a component of the
    decomposition and one layer's output. It builds the trend and the
    seasonal part from the windows one at a time, drops each once its
    layers' ranges are read, and builds the time-frequency grid (1.6
    arrays whole) a few rows at a time. It held 3.8 arrays while it split
    the embedding into both parts at once and built the whole grid.

    The slack counts one slab loop's scratch (at most MAX_WORKERS workers
    of seven slabs, each at most SLAB + d*L values), one (N, P, d) patch
    array, one (N, d, r) prior output, one chunk of the grid and 1 MB for
    the layers' (L, L) products and Python objects. It is under one
    (N, d, L) array, so a third one fails the bound."""
    n, length, d = 448, 96, 32
    cfg = ModelConfig(lookback=length, horizon=96, embed_dim=d)
    model = ForecastModel(cfg, [2.0 * b / length for b in (4, 8, 12, 16, 24)], seed=38)
    windows = np.random.default_rng(39).normal(size=(64, 7, length))
    series = n * length * d * 8
    scratch = tensor.MAX_WORKERS * 7 * (tensor.SLAB + d * length) * 8
    patches = n * model.n_patches * d * 8
    prior = n * d * max(cfg.top_k, cfg.trend_degree) * 8
    grid = interpret.CALIB_GRID_VALUES * 8
    slack = scratch + patches + prior + grid + 2**20
    assert slack < series
    calibrate_ranges(model, windows, batch_size=64)  # fills the per-process caches
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        calibrate_ranges(model, windows, batch_size=64)
        held = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert held <= 2 * series + slack, (held / series, slack / series)


TF_KEYS = [(f"tf.p{p}", 0) for p in range(3)]


@pytest.mark.parametrize(
    "layers", [TF_KEYS, [("trend", 1)], [("seasonal", 0)], [("seasonal", 1), ("tf.p2", 0)], []],
)
def test_calibration_subset_equals_full(layers):
    model = micro_model(seed=32)
    windows = calib_windows(model, count=5, seed=33)
    full = calibrate_ranges(model, windows, batch_size=2)
    part = calibrate_ranges(model, windows, batch_size=2, layers=layers)
    assert sorted(part) == sorted(layers)
    for key in layers:
        np.testing.assert_array_equal(part[key][0], full[key][0])
        np.testing.assert_array_equal(part[key][1], full[key][1])


def test_calibration_rejects_unknown_layer():
    model = micro_model(seed=34)
    with pytest.raises(ValueError, match="trend"):
        calibrate_ranges(model, calib_windows(model), layers=[("trend", 2)])


@pytest.mark.parametrize(
    "layers, layer_calls", [(TF_KEYS, 0), ([("trend", 1)], 3), ([], 0)],
)
def test_calibration_runs_only_what_it_reads(monkeypatch, layers, layer_calls):
    """tf keys need no KAN layer at all, and trend.1 needs trend.0 only (one
    call per batch); the per-patch KANs, the unpatcher and the head never run."""
    calls = {"layer": 0, "patch_kans": 0, "unpatch": 0, "forward": 0}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(TaylorKanLayer, "forward", counting("layer", TaylorKanLayer.forward))
    monkeypatch.setattr(tensor, "patch_kans", counting("patch_kans", tensor.patch_kans))
    monkeypatch.setattr(
        tfsynergy, "patch_kans", counting("patch_kans", tfsynergy.patch_kans)
    )
    monkeypatch.setattr(Unpatcher, "__call__", counting("unpatch", Unpatcher.__call__))
    monkeypatch.setattr(
        ForecastModel, "forward", counting("forward", ForecastModel.forward)
    )
    model = micro_model(seed=35)
    calibrate_ranges(model, calib_windows(model, count=5), batch_size=2, layers=layers)
    assert calls == {"layer": layer_calls, "patch_kans": 0, "unpatch": 0, "forward": 0}


def test_report_calibrates_the_unpruned_model(monkeypatch):
    """Layer 1's ranges come from the unpruned layer 0, as the trained model
    computes them: calibrating after pruning would move them."""
    model = micro_model(seed=36)
    windows = calib_windows(model, count=5, seed=37)
    trend = model.trend_kan.layers
    tau = float(np.median(np.concatenate([lay.taylor_norms().ravel() for lay in trend])))
    assert not interpret._kept(trend[0], tau).all() and interpret._kept(trend[1], tau).any()
    unpruned = calibrate_ranges(copy.deepcopy(model), windows)
    pruned_model = copy.deepcopy(model)
    prune(pruned_model, tau)
    after = calibrate_ranges(pruned_model, windows)[("trend", 1)]
    assert not np.array_equal(after[0], unpruned[("trend", 1)][0])

    def record_ranges(jobs):  # each edge's fitted range, kept in (b, c)
        fits = [SymbolicFit("constant", 0.0, lo, hi, 0.0, 1.0) for _, lo, hi in jobs]
        return [(fit, 0.0, {}) for fit in fits], 1

    monkeypatch.setattr(interpret, "_fit_edges", record_ranges)
    _, records = generate_report(model, tau, 2, windows)
    fitted = [r for r in records if r.kind == "taylor"]
    assert any(r.layer == "trend.1" for r in fitted)
    labels = {"trend.0": ("trend", 0), "trend.1": ("trend", 1),
              "seasonal.0": ("seasonal", 0), "seasonal.1": ("seasonal", 1)}
    for r in fitted:
        lo, hi = unpruned[labels.get(r.layer, (r.layer, 0))]
        assert (r.fit.b, r.fit.c) == interpret.padded_range(lo[r.i], hi[r.i]), r


# --- fitting the surviving edges on several workers ----------------------------------

def tau_keeping(model, edges):
    """A threshold that keeps the ``edges`` largest-norm adjustable edges."""
    layers = [layer for _, layer in model.kan_layers()]
    norms = np.concatenate([layer.taylor_norms().ravel() for layer in layers])
    return float(np.sort(norms)[::-1][edges - 1])


def cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def test_report_text_independent_of_worker_count(monkeypatch):
    texts = {}
    for workers in (1, 2):
        cpus(monkeypatch, workers)
        model = micro_model(seed=21)
        timing = {}
        _, records = generate_report(
            model, tau_keeping(model, 6), 2, calib_windows(model), timing=timing
        )
        assert timing["workers"] == workers
        assert len(timing["edge_s"]) == 6
        assert sorted(timing["family_s"]) == sorted(FIT_ORDER)
        texts[workers] = (
            format_symbolic_report(records, 2),
            format_machine_report(records),
            format_graph_description(records),
        )
    assert texts[1] == texts[2]


def test_worker_error_reaches_parent_with_its_type(monkeypatch):
    model = micro_model(seed=22)
    tau = tau_keeping(model, 4)
    real = interpret.symbolify_edge

    def failing(edge, lo, hi, **kwargs):
        if edge.l2_norm() == tau:  # the weakest surviving edge
            raise ValueError("no formula for this edge")
        return real(edge, lo, hi, **kwargs)

    monkeypatch.setattr(interpret, "symbolify_edge", failing)  # forked workers inherit it
    cpus(monkeypatch, 2)
    with pytest.raises(ValueError, match="no formula for this edge"):
        generate_report(model, tau, 2, calib_windows(model))


def test_fit_pool_forks_after_threaded_forward(monkeypatch):
    """The fused ops join their helper threads before returning, so the
    report's fork pool can follow a threaded forward: with two workers it
    returns the in-process fits."""
    if not tensor._blas_setters():
        pytest.skip("no OpenBLAS thread control: every slab loop runs on one worker")
    model = micro_model(seed=24)
    jobs, expected = [], []

    def in_process(js):
        jobs.extend(js)
        expected.extend(interpret._fit_job(job)[0] for job in js)
        return [(fit, 0.0, {}) for fit in expected], 1

    with monkeypatch.context() as patch:
        patch.setattr(interpret, "_fit_edges", in_process)
        generate_report(copy.deepcopy(model), tau_keeping(model, 4), 2, calib_windows(model))
    assert len(jobs) == 4
    cpus(monkeypatch, 2)
    workers = []
    real_workers = tensor._workers
    monkeypatch.setattr(
        tensor, "_workers", lambda count: workers.append(real_workers(count)) or workers[-1]
    )
    monkeypatch.setattr(tensor, "SLAB", 8)  # several slabs even at this size
    threads = threading.active_count()
    with no_grad():
        model.forward(Tensor(calib_windows(model, count=8).reshape(16, -1)))
    assert 2 in workers
    assert threading.active_count() == threads
    results, pool_workers = interpret._fit_edges(jobs)
    assert pool_workers == 2
    assert [fit for fit, _, _ in results] == expected


@pytest.mark.parametrize("edges", [0, 1])
def test_report_fits_zero_or_one_edge_in_process(monkeypatch, edges):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    cpus(monkeypatch, 2)
    model = micro_model(seed=23)
    tau = tau_keeping(model, edges) if edges else np.inf
    timing = {}
    _, records = generate_report(model, tau, 2, calib_windows(model), timing=timing)
    assert len([r for r in records if r.kind == "taylor"]) == edges
    assert timing["workers"] == edges
    summary = format_fit_summary(records).splitlines()
    assert summary[0].split("\t")[2:-3] == FAMILY_ORDER
    assert sum(int(line.split("\t")[1]) for line in summary[1:]) == edges
    rows = format_report_timing(timing)
    assert f"edges_fitted\t{edges}\n" in rows
    assert all(f"fit_{name}_s\t" in rows for name in FIT_ORDER)
