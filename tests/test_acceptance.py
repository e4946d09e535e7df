"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
The training-based criteria (8, 9, 10) run real optimization loops and
dominate the runtime; criterion 9's six trainings run side by side, one per
spawned worker process, up to the number of CPUs.
"""

import math
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from icessm import data, hsa, metrics, model, nd, sfc, ssm, wavelet
from icessm.nd import Tensor

from oracles import brute_force_errors, brute_force_extent, naive_selective_scan


def announce(num: int, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"\ncriterion {num:02d}: {status}" + (f" [{detail}]" if detail else ""))
    assert ok, f"criterion {num:02d} failed: {detail}"


def manhattan_steps(lin, dims):
    t, h, w = dims
    tt, hh, ww = lin // (h * w), (lin % (h * w)) // w, lin % w
    return np.abs(np.diff(tt)) + np.abs(np.diff(hh)) + np.abs(np.diff(ww))


def test_criterion_01_scan_bijectivity_and_adjacency():
    rng = np.random.default_rng(2024)
    t0 = time.monotonic()
    hilbert_kinds = ("hilbert_temporal_first", "hilbert_spatial_first")
    for _ in range(200):
        dims = tuple(int(d) for d in rng.integers(1, 17, size=3))
        for kind in sfc.KINDS:
            order = sfc.make_order(kind, dims)
            assert np.array_equal(np.sort(order),
                                  np.arange(np.prod(dims))), (kind, dims)
            if kind in hilbert_kinds and order.size > 1:
                steps = manhattan_steps(order, dims)
                assert (steps == 1).all(), (kind, dims)
    elapsed = time.monotonic() - t0
    announce(1, elapsed < 10.0,
             f"200 random dims, 5 kinds bijective, hilbert unit steps, {elapsed:.1f}s")


def test_criterion_02_locality_ordering():
    means = {kind: sfc.locality_score(sfc.make_order(kind, (8, 8, 8)), (8, 8, 8)).mean_gap
             for kind in sfc.KINDS}
    ordered = (means["hilbert_temporal_first"] <= means["peano"]
               <= means["zorder"] <= means["raster"])
    ordered_sf = (means["hilbert_spatial_first"] <= means["peano"])
    strict = means["hilbert_temporal_first"] < means["raster"]
    detail = ("mean gap " + " <= ".join(
        f"{k.split('_')[0]}={means[k]:.3f}"
        for k in ("hilbert_temporal_first", "peano", "zorder", "raster")))
    announce(2, ordered and ordered_sf and strict, detail)


def test_criterion_03_ssm_matches_naive_recurrence():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        length = int(rng.integers(1, 65))
        d = int(rng.integers(1, 9))
        s = int(rng.integers(1, 9))
        p = nd.make_params(rng, ssm.ssm_layout(d, s))
        x = rng.normal(size=(length, d)).astype(np.float32)
        got = ssm.selective_scan(Tensor(x), p).data
        want = naive_selective_scan(x, p)
        worst = max(worst, float(np.abs(got - want).max()))
    # reversal identity must be exact: the reversed route scans the reversed sequence
    p = nd.make_params(rng, ssm.ssm_layout(4, 8))
    x = rng.normal(size=(24, 4)).astype(np.float32)
    reverse = np.arange(len(x))[::-1, None]
    rev_ok = np.array_equal(
        ssm.selective_scan(Tensor(x[::-1].copy()), p).data,
        ssm.scan_routes(Tensor(x), reverse, p).data[::-1, 0])
    announce(3, worst < 1e-5 and rev_ok,
             f"100 cases, max abs err {worst:.2e}, reversal exact={rev_ok}")


def test_criterion_04_wavelet_reconstruction_and_energy():
    rng = np.random.default_rng(4)
    worst_rt = 0.0
    worst_energy = 0.0
    for _ in range(5):
        x = rng.normal(size=(64, 64)).astype(np.float32)
        coeffs = wavelet.dwt2(Tensor(x))
        back = wavelet.idwt2(coeffs)
        worst_rt = max(worst_rt, float(np.abs(back.data - x).max()))
        lhs = float((x.astype(np.float64) ** 2).sum())
        # band k (ll, lh, hl, hh) is coeffs[..., k]
        rhs = sum(float((coeffs.data[..., k].astype(np.float64) ** 2).sum())
                  for k in range(4))
        worst_energy = max(worst_energy, abs(lhs - rhs) / lhs)
    x = rng.normal(size=(2, 3, 64, 64)).astype(np.float32)
    ident = wavelet.freq_branch(Tensor(x), Tensor(np.ones((3, 3))))
    ident_err = float(np.abs(ident.data - x).max())
    announce(4, worst_rt < 1e-5 and worst_energy < 1e-4 and ident_err < 1e-5,
             f"round-trip {worst_rt:.2e}, energy {worst_energy:.2e}, "
             f"unit-gain identity {ident_err:.2e}")


def _fused(op, loss):
    """A probe of a primitive that ends in the leaky ReLU: loss(op(x)). ``op``
    stays reachable so the criterion can check how far from the kink it runs."""
    def fn(x):
        return loss(op(x))

    fn.op = op
    return fn


def _kink_margin(y: np.ndarray) -> tuple[float, bool]:
    """The smallest |pre-activation| behind the leaky ReLU output y, and whether
    the pre-activations fall on both sides of zero."""
    pre = np.where(y > 0, y, y / nd.LEAKY_SLOPE)
    return float(np.abs(pre).min()), bool((pre > 0).any() and (pre < 0).any())


def _away(x: Tensor, lo: float = 0.5) -> Tensor:
    """x in [-1, 1] mapped to +-[lo, 1], keeping its sign: away from zero."""
    return Tensor(np.sign(x.data) * (lo + (1.0 - lo) * np.abs(x.data)))


def _two_level(x: Tensor, signs) -> Tensor:
    """x in [-1, 1] mapped to signs * (1 + 0.1 x) along axis 1: every norm
    group or slice holds values near +1 and near -1, so its normalised values
    stay near +-1."""
    view = (1, -1) + (1,) * (x.ndim - 2)
    return Tensor(np.reshape(signs, view) * (1.0 + 0.1 * x.data))


def _op_probes():
    rng = np.random.default_rng(5)

    def t(*shape, lo=-1.0, hi=1.0):
        return Tensor(rng.uniform(lo, hi, size=shape).astype(np.float32))

    w_lin, b_lin = t(4, 3), t(3)
    k_conv, b_conv = t(3, 2, 3, 3), t(3)
    k_head = Tensor(k_conv.data[:, :, 1:2, 1:2])   # 1x1, like the model's head
    k_dw = t(2, 3, 3)
    k_c1 = t(3, 3)
    w_gc, b_gc = t(2, 3, 3), t(6)
    g_ln, b_ln = t(5), t(5)
    g_gn, b_gn = t(4), t(4)
    coeff_ln = t(2, 5)
    coeff_gn = t(1, 4, 2, 2)
    coeff_gather = t(6, 1, 2)
    coeff_pad = t(1, 1, 4, 5)
    other = t(3, lo=0.5, hi=2.0)
    other2 = t(2, 3)
    c_ssm = t(5, 2, 3)
    perm = np.random.default_rng(6).permutation(6)
    p_ssm = nd.make_params(rng, ssm.ssm_layout(3, 2))
    # x[L=5, R=2, D=2] is probed; dt > 0, A = -exp(.) < 0, B, C [5, 2, 3]
    scan_dt, scan_a, scan_b = t(5, 2, lo=0.1, hi=1.0), t(2, 3, lo=-1.0, hi=-0.1), t(5, 2, 3)
    # the fused probes keep every pre-activation at least 0.3 from the leaky
    # ReLU's kink, on both sides, from the draws the earlier probes made:
    # depthwise is near a delta (centre tap 1, the other 8 at most 0.02) on
    # inputs of magnitude 0.5-1; the norms see two-level inputs, gains of
    # magnitude 0.5-1 and shifts of at most 0.05
    k_dw_delta = Tensor(0.02 * k_dw.data)
    k_dw_delta.data[:, 1, 1] = 1.0
    g_gn_away, b_gn_small = _away(g_gn), Tensor(0.05 * b_gn.data)
    g_ln_away, b_ln_small = _away(g_ln), Tensor(0.05 * b_ln.data)

    return [
        ("add", lambda x: nd.mean(nd.add(x, other)), t(2, 3)),
        ("sub", lambda x: nd.mean(nd.mul(nd.sub(x, other), other)), t(2, 3)),
        ("mul", lambda x: nd.mean(nd.mul(x, other)), t(2, 3)),
        ("div", lambda x: nd.mean(nd.div(x, other)), t(2, 3)),
        ("exp", lambda x: nd.mean(nd.exp(x)), t(4)),
        ("log", lambda x: nd.mean(nd.log(x)), t(4, lo=0.5, hi=2.0)),
        ("neg", lambda x: nd.mean(nd.square(nd.neg(x))), t(4, lo=0.5, hi=2.0)),
        ("square", lambda x: nd.mean(nd.square(x)), t(4)),
        ("absolute", lambda x: nd.mean(nd.absolute(x)), t(4, lo=0.5, hi=1.5)),
        ("index", lambda x: nd.mean(nd.square(nd.index(x, np.s_[1:3]))),
         t(4, lo=0.2, hi=0.8)),
        ("linear", lambda x: nd.mean(nd.square(nd.linear(x, w_lin, b_lin))), t(2, 4)),
        ("conv2d", lambda x: nd.mean(nd.square(
            nd.conv2d(x, k_conv, b_conv, stride=2, padding=1))), t(1, 2, 6, 6)),
        ("conv2d_head", lambda x: nd.mean(nd.square(
            nd.conv2d(x, k_head, b_conv))), t(1, 2, 4, 4)),
        ("conv_transpose2d", lambda x: nd.mean(nd.square(
            nd.conv_transpose2d(x, k_conv, Tensor(np.zeros(2)), stride=2, padding=1))),
         t(1, 3, 3, 3)),
        ("depthwise_conv2d", _fused(
            lambda x: nd.depthwise_conv2d(x, k_dw_delta, Tensor(np.zeros(2))),
            lambda y: nd.mean(nd.square(y))), _away(t(1, 2, 4, 4))),
        ("conv1d_depthwise", lambda x: nd.mean(nd.square(
            nd.conv1d_depthwise(x, k_c1, Tensor(np.zeros(3))))), t(5, 3)),
        ("group_conv1d", lambda x: nd.mean(nd.square(
            nd.group_conv1d(x, w_gc, b_gc))), t(6)),
        ("layernorm", lambda x: nd.mean(nd.mul(
            nd.layernorm(x, g_ln, b_ln), coeff_ln)), t(2, 5)),
        ("groupnorm", _fused(
            lambda x: nd.groupnorm(x, 2, g_gn_away, b_gn_small),
            lambda y: nd.mean(nd.mul(y, coeff_gn))), _two_level(t(1, 4, 2, 2), [1, -1, 1, -1])),
        ("silu", lambda x: nd.mean(nd.square(nd.silu(x))), t(5)),
        ("sigmoid", lambda x: nd.mean(nd.square(nd.sigmoid(x))), t(5)),
        ("softplus", lambda x: nd.mean(nd.square(nd.softplus(x))), t(5)),
        ("layernorm_leaky", _fused(
            lambda x: nd.layernorm(x, g_ln_away, b_ln_small, axis=1, leaky=True),
            lambda y: nd.mean(nd.square(y))),
         _two_level(Tensor(t(5, lo=0.3, hi=1.0).data.reshape(1, 5, 1, 1)), [1, -1, 1, -1, 1])),
        ("mean_hw", lambda x: nd.mean(nd.square(
            nd.mean(x, axis=(-2, -1)))), t(2, 2, 3, 3)),
        ("gather", lambda x: nd.mean(nd.mul(nd.gather(x, perm[:, None]), coeff_gather)),
         t(6, 1, 2)),
        ("concat", lambda x: nd.mean(nd.square(nd.concat([x, other2]))), t(2, 3)),
        ("chunk", lambda x: nd.mean(nd.square(nd.chunk(x, 2, axis=0)[1])), t(4, 3)),
        ("pad2d", lambda x: nd.mean(nd.mul(
            nd.pad2d(x, (1, 0, 1, 1)), coeff_pad)), t(1, 1, 3, 3)),
        ("dwt_idwt", lambda x: nd.mean(nd.square(
            wavelet.idwt2(wavelet.dwt2(x)))), t(1, 1, 4, 4)),
        ("ssm_recurrence", lambda x: nd.mean(nd.square(
            nd.ssm_recurrence(x, scan_dt, scan_a, scan_b, c_ssm))), t(5, 2, 2)),
        ("selective_scan", lambda x: nd.mean(nd.square(
            ssm.selective_scan(x, p_ssm))), t(6, 3)),
    ]


def test_criterion_05_gradient_checks():
    failures = []
    worst = ("", 0.0)
    margin = math.inf
    for name, fn, x in _op_probes():
        if hasattr(fn, "op"):
            low, both_sides = _kink_margin(fn.op(x).data)
            margin = min(margin, low)
            if low < 0.3 or not both_sides:
                failures.append((name, f"pre-activation margin {low:.2f}, both sides "
                                       f"{both_sides}"))
        report = nd.grad_check(fn, x, tolerance=1e-3)
        if report.max_rel_err > worst[1]:
            worst = (name, report.max_rel_err)
        if not report.passed:
            failures.append((name, report.max_rel_err))

    # full FSSM block: routes + frequency branch + fusion + depthwise + residual
    rng = np.random.default_rng(7)
    d = 2
    mamba = nd.make_params(rng, ssm.mamba_layout(d, 2))
    gains = Tensor(np.ones((d, 3), dtype=np.float32))
    fuse = nd.make_params(rng, hsa.hsa_layout(d))
    dw_k = Tensor(rng.normal(size=(d, 3, 3)).astype(np.float32) / 3)
    dw_b = Tensor(np.zeros(d, dtype=np.float32))
    table = sfc.routes("hilbert_temporal_first", (2, 2, 2), 2)
    coeff = rng.normal(size=(2, d, 2, 2)).astype(np.float32)

    def fssm_block(z):
        routed = ssm.seq_to_volume(ssm.mamba_block(ssm.volume_to_seq(z), table, mamba),
                                   (2, 2, 2))
        xf = wavelet.freq_branch(z, gains)
        fused = hsa.hsa_fuse(nd.index(routed, np.s_[0]), nd.index(routed, np.s_[-1]), xf, fuse)
        out = nd.add(z, nd.depthwise_conv2d(fused, dw_k, dw_b))
        return nd.mean(nd.mul(out, Tensor(coeff)))

    z = Tensor(rng.normal(size=(2, d, 2, 2)).astype(np.float32))
    block_report = nd.grad_check(fssm_block, z, tolerance=1e-2)
    ok = not failures and block_report.passed
    announce(5, ok,
             f"{len(_op_probes())} ops at 1e-3 (worst {worst[0]} {worst[1]:.1e}, "
             f"fused pre-activations >= {margin:.2f} from the kink), "
             f"fssm block {block_report.max_rel_err:.1e} at 1e-2"
             + (f"; failures {failures}" if failures else ""))


def test_criterion_06_hsa_contract():
    rng = np.random.default_rng(8)
    v = Tensor(rng.normal(size=12).astype(np.float32))
    ident = np.array_equal(hsa.unshuffle(hsa.shuffle(v)).data, v.data)

    d = 4
    zero = {"weights": nd.param(np.zeros((d, 3, 3), dtype=np.float32)),
            "bias": nd.param(np.zeros(3 * d, dtype=np.float32))}
    xs = [Tensor(rng.normal(size=(2, d, 4, 4)).astype(np.float32)) for _ in range(3)]
    fused = hsa.hsa_fuse(*xs, zero)
    avg_err = float(np.abs(fused.data
                           - (xs[0].data + xs[1].data + xs[2].data) / 2).max())

    live = nd.make_params(rng, hsa.hsa_layout(d))
    weights = hsa.hsa_weights(*xs, live)
    in_unit = all(((a.data > 0) & (a.data < 1)).all() for a in weights)
    announce(6, ident and avg_err < 1e-6 and in_unit,
             f"shuffle identity={ident}, forced-average err {avg_err:.1e}, "
             f"weights in (0,1)={in_unit}")


def test_criterion_07_loss_identities():
    rng = np.random.default_rng(9)
    a = Tensor(rng.uniform(size=(2, 1, 6, 6)).astype(np.float32))
    b = Tensor(rng.uniform(size=(2, 1, 6, 6)).astype(np.float32))
    lam_zero = float(model.loss_total(a, b, 0.0).data) == float(model.loss_rec(a, b).data)
    shift = float(model.loss_grad(nd.add(b, 0.3), b).data)
    nll = float(model.loss_nll(b, Tensor(np.ones_like(b.data)), b).data)
    nll_ok = abs(nll - 0.5 * math.log(2 * math.pi)) < 1e-4
    announce(7, lam_zero and shift < 1e-6 and nll_ok,
             f"lambda0 exact={lam_zero}, translation grad-loss {shift:.1e}, "
             f"nll(mu=y,sigma=1)={nll:.5f}")


def test_criterion_08_overfit_and_determinism():
    t0 = time.monotonic()
    grid = data.synth_generate(11, 28, 16, 16, n_blobs=3, drift=0.3)
    sw = data.windows(grid, 14, 14)[0]
    cfg = model.ModelConfig()
    kw = dict(seed=1, max_epochs=200, max_steps=200, patience=10 ** 9, batch_size=1)
    a = model.train([sw], [sw], cfg, **kw)
    b = model.train([sw], [sw], cfg, **kw)
    first = a.history[0]["train_loss"]
    last = a.history[-1]["train_loss"]
    reduction = 1.0 - last / first
    identical = a.history == b.history
    elapsed = time.monotonic() - t0
    announce(8, reduction >= 0.90 and identical and elapsed < 300,
             f"loss {first:.4f} -> {last:.4f} ({reduction * 100:.1f}%), "
             f"bit-identical reruns={identical}, {elapsed:.0f}s")


def _ablation_data():
    """Pure-advection synthetic data (no seasonal cycle): the grid, and its
    train, validation and test windows."""
    grid = data.synth_generate(seed=42, t=120, h=16, w=16, n_blobs=4,
                               drift=0.7, season_period=1e9)
    wins = data.windows(grid, 14, 14)
    return grid, wins[:60], wins[60:72], wins[72:]


def _ablation_run(kind, routes, seed):
    """One training of the ablation, in a worker process: its config, its
    mean test MAE and its trained parameters."""
    grid, train_set, val_set, test_set = _ablation_data()
    cfg = model.ModelConfig(hidden=16, n_fssm=2, n_routes=routes, scan_kind=kind)
    res = model.train(train_set, val_set, cfg, seed=seed, max_epochs=30,
                      patience=10 ** 9, batch_size=4, lr=1e-3)
    per_window = [metrics.mae(model.forward(Tensor(s.input), res.params, cfg).mean,
                              s.target, ~grid.land_mask) for s in test_set]
    return cfg, float(np.mean(per_window)), res.params


@pytest.fixture(scope="module")
def ablation():
    """Six training runs: hilbert-t/2-routes vs raster/1-route, 3 seeds each,
    side by side on up to six spawned worker processes.

    A fixed epoch budget gives both configurations identical optimization;
    only the scan configuration differs. Each worker's BLAS runs one thread,
    so the workers do not contend for cores.
    """
    t0 = time.monotonic()
    jobs = [(kind, routes, seed) for kind, routes in (("hilbert_temporal_first", 2), ("raster", 1))
            for seed in (0, 1, 2)]
    with pytest.MonkeyPatch.context() as env:
        env.setenv("OPENBLAS_NUM_THREADS", "1")   # read as each worker imports numpy
        with ProcessPoolExecutor(min(len(jobs), os.cpu_count()),
                                 mp_context=multiprocessing.get_context("spawn")) as pool:
            runs = list(pool.map(_ablation_run, *zip(*jobs)))
    results = {}
    for (kind, _, _), (_, mae, _) in zip(jobs, runs):
        results.setdefault(kind, []).append(mae)
    grid = _ablation_data()[0]
    config, _, params = runs[0]                   # hilbert, seed 0
    return {
        "grid": grid,
        "ocean": ~grid.land_mask,
        "results": results,
        "elapsed": time.monotonic() - t0,
        "params": params,
        "config": config,
    }


def test_criterion_09_scan_ablation_direction(ablation):
    hil = float(np.mean(ablation["results"]["hilbert_temporal_first"]))
    ras = float(np.mean(ablation["results"]["raster"]))
    elapsed = ablation["elapsed"]
    announce(9, hil <= ras and elapsed < 3600,
             f"hilbert-t/2r mean MAE {hil:.4f}% vs raster/1r {ras:.4f}% "
             f"(3 seeds each, 60 train windows, {elapsed:.0f}s)")


def test_criterion_10_recursive_degradation(ablation):
    grid = ablation["grid"]
    params, cfg = ablation["params"], ablation["config"]
    ocean = ablation["ocean"]
    t = grid.shape[0]
    mae14, mae28 = [], []
    anchors = [a for a in range(72, t - 42 + 1)]
    for a in anchors:
        window = grid.frames[a:a + 14, None, :, :]
        truth28 = grid.frames[a + 14:a + 42, None, :, :]
        pred28 = model.recursive_forecast(window, params, cfg, steps=2)
        mae14.append(metrics.mae(pred28[:14], truth28[:14], ocean))
        mae28.append(metrics.mae(pred28, truth28, ocean))
    m14, m28 = float(np.mean(mae14)), float(np.mean(mae28))
    announce(10, m28 >= m14,
             f"aggregate MAE 14d {m14:.4f}% -> 28d {m28:.4f}% "
             f"({len(anchors)} windows)")


def test_criterion_11_metrics_match_brute_force():
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(100):
        shape = (int(rng.integers(1, 4)), int(rng.integers(3, 7)),
                 int(rng.integers(3, 7)))
        yhat = rng.uniform(size=shape).astype(np.float32)
        y = rng.uniform(size=shape).astype(np.float32)
        mask = rng.uniform(size=shape[1:]) > 0.3
        if not mask.any():
            mask[0, 0] = True
        want = brute_force_errors(yhat, y, mask)
        got = (metrics.rmse(yhat, y, mask), metrics.mae(yhat, y, mask),
               metrics.nse(yhat, y, mask))
        worst = max(worst, max(abs(g - w) for g, w in zip(got, want)))
        sie_w, iou_w = brute_force_extent(yhat[0], y[0], 0.15, 2.5)
        worst = max(worst, abs(metrics.sie(yhat[0], cell_area=2.5) - sie_w))
        worst = max(worst, abs(metrics.iou(yhat[0], y[0]) - iou_w))
    y = rng.uniform(size=(2, 5, 5)).astype(np.float32)
    iou_ident = metrics.iou(y, y) == 1.0
    mean_pred = np.full_like(y, np.asarray(y, np.float64).mean())
    nse_mean = abs(metrics.nse(mean_pred, y)) < 1e-6
    announce(11, worst < 1e-6 and iou_ident and nse_mean,
             f"100 masked grids, worst deviation {worst:.2e}, "
             f"iou(identical)=1={iou_ident}, nse(mean)=0={nse_mean}")


def test_criterion_12_preprocessing_oracles(tmp_path):
    # gap fill: multi-day gap gets the flat nearest-pair mean
    f0 = np.full((4, 4), 0.2, dtype=np.float32)
    f3 = np.full((4, 4), 0.6, dtype=np.float32)
    g = data.Grid3(np.stack([f0, f3]), np.array([10, 13]),
                   np.zeros((4, 4), dtype=bool))
    filled = data.fill_missing_dates(g)
    fill_ok = (filled.dates.tolist() == [10, 11, 12, 13]
               and np.allclose(filled.frames[1], 0.4)
               and np.allclose(filled.frames[2], 0.4))

    # land detection: strictly greater than 95% missing
    frames = np.zeros((100, 1, 3), dtype=np.float32)
    frames[:96, 0, 0] = np.nan
    frames[:95, 0, 1] = np.nan
    frames[:100, 0, 2] = np.nan
    mask = data.detect_land(data.Grid3(frames, np.arange(100),
                                       np.zeros((1, 3), dtype=bool)))
    land_ok = bool(mask[0, 0]) and not bool(mask[0, 1]) and bool(mask[0, 2])

    # window count formula
    series = data.Grid3(np.zeros((100, 4, 4), dtype=np.float32), np.arange(100),
                        np.zeros((4, 4), dtype=bool))
    count_ok = len(data.windows(series, 14, 14)) == 73

    # container round trip: bit-exact values, NaN map, land mask, dates
    rng = np.random.default_rng(13)
    frames = rng.uniform(size=(6, 5, 7)).astype(np.float32)
    frames[3, 2, 2] = np.nan
    orig = data.Grid3(frames, np.arange(40, 46),
                      rng.uniform(size=(5, 7)) > 0.7)
    path = tmp_path / "grid.sic"
    data.write_grid(orig, path)
    back = data.read_grid(path)
    keep = ~np.isnan(orig.frames)
    rt_ok = (np.array_equal(back.dates, orig.dates)
             and np.array_equal(back.land_mask, orig.land_mask)
             and np.array_equal(np.isnan(back.frames), np.isnan(orig.frames))
             and (back.frames[keep].view(np.uint32)
                  == orig.frames[keep].view(np.uint32)).all())

    announce(12, fill_ok and land_ok and count_ok and rt_ok,
             f"gap-fill={fill_ok}, strict-95% land={land_ok}, "
             f"count-formula={count_ok}, container-bit-exact={rt_ok}")
