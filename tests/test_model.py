import gc
import hashlib
import math
import os
import platform
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest

from icessm import data, model, nd
from icessm.nd import Tensor


def rng(seed=0):
    return np.random.default_rng(seed)


# minor page faults per default-config training step (batch 4, 14x1x16x16),
# over two steps after a warm-up step
FAULT_PROBE = """
import resource
import numpy as np
from icessm import data, model, nd

config = model.ModelConfig()
windows = data.windows(data.synth_generate(0, 40, 16, 16), 14, 14)[:4]
params = model.init_params(np.random.default_rng(0), config)
opt = model.AdamW(params)
x = nd.Tensor(np.stack([w.input for w in windows]))
y = nd.Tensor(np.stack([w.target for w in windows]))

def step():
    opt.zero_grad()
    with nd.Tape() as tape:
        tape.backward(model.sample_loss(model.forward_features(x, params, config), y, config))
    opt.step()

step()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
step()
step()
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 2)
"""


def held_arrays(root) -> dict[int, int]:
    """id -> bytes of the buffer of every array that ``root`` reaches through
    function closures and defaults, containers, tensors and gradient holders
    (a view counts as the array it views); a function's globals are not followed."""
    seen, found, stack = set(), {}, [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.CodeType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            found[id(obj)] = obj.nbytes
        elif isinstance(obj, types.FunctionType):
            stack += gc.get_referents(*(obj.__closure__ or ())) + list(obj.__defaults__ or ())
        else:
            stack += gc.get_referents(obj)
    return found


def tiny_config(**kw):
    base = dict(in_len=4, out_len=4, hidden=8, n_fssm=1, n_routes=2)
    base.update(kw)
    return model.ModelConfig(**base)


def make_sample(seed, l_in=4, l_out=4, hw=8):
    r = rng(seed)
    return data.SampleWindow(
        input=r.uniform(size=(l_in, 1, hw, hw)).astype(np.float32),
        target=r.uniform(size=(l_out, 1, hw, hw)).astype(np.float32),
    )


class TestConfig:
    def test_defaults_match_reference_setup(self):
        cfg = model.ModelConfig()
        assert cfg.in_len == 14 and cfg.out_len == 14
        assert cfg.n_fssm == 3 and cfg.n_routes == 2
        assert cfg.lambda_grad == 0.1

    @pytest.mark.parametrize("kw", [
        dict(n_fssm=0), dict(n_routes=3), dict(lambda_grad=-0.1),
        dict(in_len=0), dict(head="median"), dict(scan_kind="spiral"),
        dict(fusion="mlp"), dict(hidden=7),
        dict(hidden=8.0), dict(n_routes=True), dict(out_len=float("inf")),
        dict(lambda_grad=True),
    ])
    def test_invalid_configs_rejected(self, kw):
        with pytest.raises(ValueError):
            tiny_config(**kw)


class TestForward:
    def test_shape_contract(self):
        cfg = model.ModelConfig(in_len=14, out_len=14, hidden=16, n_fssm=1)
        params = model.init_params(rng(1), cfg)
        out = model.forward(rng(2).uniform(size=(14, 1, 16, 16)).astype(np.float32),
                            params, cfg)
        assert out.mean.shape == (14, 1, 16, 16)
        assert out.sigma is None

    def test_forward_memory_at_64_is_pinned(self):
        # traced peak of one default-config forward at 14x1x64x64: 19.1 MiB while
        # the decoder built its whole col2im product and full-size temporaries,
        # about 12.6 MiB with one tap, one block of rows and one slope block at a time,
        # about 9.7 MiB (at the scan's skip add) once the depthwise conv pads a block
        # of channels at a time and the norms take the variance a block at a time
        cfg = model.ModelConfig()
        params = model.init_params(rng(0), cfg)
        x = rng(1).uniform(size=(14, 1, 64, 64)).astype(np.float32)
        model.forward(x, params, cfg)                        # builds the routes
        tracemalloc.start()
        try:
            model.forward(x, params, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 11 << 20

    def test_shape_contract_across_sizes(self):
        cfg = tiny_config()
        params = model.init_params(rng(3), cfg)
        for h, w in ((8, 8), (12, 12), (16, 16), (8, 16), (20, 12), (64, 64)):
            out = model.forward(rng(4).uniform(size=(4, 1, h, w)).astype(np.float32),
                                params, cfg)
            assert out.mean.shape == (4, 1, h, w)

    def test_mean_clamped_to_unit_interval(self):
        cfg = tiny_config()
        params = model.init_params(rng(5), cfg)
        x = rng(6).uniform(size=(4, 1, 8, 8)).astype(np.float32) * 5
        out = model.forward(x, params, cfg)
        assert out.mean.min() >= 0.0 and out.mean.max() <= 1.0

    def test_gaussian_head_sigma_positive(self):
        cfg = tiny_config(head="gaussian")
        params = model.init_params(rng(7), cfg)
        out = model.forward(rng(8).uniform(size=(4, 1, 8, 8)).astype(np.float32),
                            params, cfg)
        assert out.sigma is not None
        assert out.sigma.shape == (4, 1, 8, 8)
        assert (out.sigma > 0).all()

    def test_different_output_length(self):
        cfg = tiny_config(out_len=2)
        params = model.init_params(rng(9), cfg)
        out = model.forward(rng(10).uniform(size=(4, 1, 8, 8)).astype(np.float32),
                            params, cfg)
        assert out.mean.shape == (2, 1, 8, 8)

    def test_indivisible_spatial_dims_rejected(self):
        cfg = tiny_config()
        params = model.init_params(rng(11), cfg)
        with pytest.raises(ValueError, match="divisible"):
            model.forward(np.zeros((4, 1, 10, 10), dtype=np.float32), params, cfg)

    @pytest.mark.parametrize("kw", [
        dict(n_routes=1, scan_kind="raster"),     # vanilla global scan baseline
        dict(n_routes=4),
        dict(fusion="sum"),
        dict(fusion="cagate"),
        dict(scan_kind="zorder"),
        dict(scan_kind="peano"),
        dict(scan_kind="hilbert_spatial_first"),
    ])
    def test_ablation_configs_share_code_path(self, kw):
        cfg = tiny_config(**kw)
        params = model.init_params(rng(12), cfg)
        out = model.forward(rng(13).uniform(size=(4, 1, 8, 8)).astype(np.float32),
                            params, cfg)
        assert out.mean.shape == (4, 1, 8, 8)

    @pytest.mark.parametrize("kind", ["peano", "zorder"])
    def test_thin_window_past_the_enclosing_cube(self, kind):
        # the 14x162x1 latent holds 2268 cells; Peano's enclosing cube holds 243**3
        cfg = tiny_config(in_len=14, out_len=1, scan_kind=kind)
        params = model.init_params(rng(14), cfg)
        out = model.forward(rng(15).uniform(size=(14, 1, 648, 4)).astype(np.float32),
                            params, cfg)
        assert out.mean.shape == (1, 1, 648, 4)

    @pytest.mark.parametrize("head", ["deterministic", "gaussian"])
    @pytest.mark.parametrize("out_len", [4, 3])
    def test_zero_head_forecasts_persistence(self, head, out_len):
        # every lead is a residual on the last observed frame
        cfg = tiny_config(head=head, out_len=out_len)
        params = model.init_params(rng(20), cfg)
        params["dec.head_k"].data[:] = 0.0
        params["dec.head_b"].data[:] = 0.0
        x = rng(21).uniform(-0.2, 1.2, size=(4, 1, 8, 8)).astype(np.float32)
        out = model.forward(x, params, cfg)
        want = np.repeat(np.clip(x[-1:], 0.0, 1.0), out_len, axis=0)
        np.testing.assert_array_equal(out.mean, want)
        if head == "gaussian":
            # the sigma channel gets no residual: softplus(0) + 1e-6 everywhere
            np.testing.assert_allclose(out.sigma, math.log(2.0) + 1e-6, rtol=1e-6)

    def test_input_gradient_matches_finite_differences(self):
        cfg = tiny_config(hidden=4, n_fssm=1)
        params = model.init_params(rng(14), cfg)
        x = Tensor(rng(15).uniform(size=(1, 4, 1, 8, 8)))
        y = Tensor(rng(16).uniform(size=(1, 4, 1, 8, 8)))

        def f(x_):
            return model.sample_loss(model.forward_features(x_, params, cfg), y, cfg)

        report = nd.grad_check(f, x, tolerance=1e-2)
        assert report.passed, report

    def test_selected_param_gradients_match_finite_differences(self):
        cfg = tiny_config(hidden=4, n_fssm=1)
        params = model.init_params(rng(17), cfg)
        x = Tensor(rng(18).uniform(size=(1, 4, 1, 8, 8)))
        y = Tensor(rng(19).uniform(size=(1, 4, 1, 8, 8)))
        for name in ("dec.head_b", "fssm0.gains", "fssm0.mamba.ssm.a_log", "dec.dec1_b"):
            def f(_p):
                return model.sample_loss(model.forward_features(x, params, cfg), y, cfg)

            report = nd.grad_check(f, params[name], tolerance=1e-2)
            assert report.passed, report


class TestBatchAxis:
    @pytest.mark.parametrize("kw", [
        dict(), dict(head="gaussian"), dict(out_len=3), dict(fusion="sum"),
        dict(fusion="cagate", n_routes=4)],
        ids=["hsa", "gaussian", "out3", "sum", "cagate-4routes"])
    def test_batch_equals_single_samples(self, kw):
        cfg = tiny_config(**kw)
        params = model.init_params(rng(60), cfg)
        x = rng(61).uniform(size=(3, 4, 1, 8, 8)).astype(np.float32)
        batched = model.forward_features(Tensor(x), params, cfg).data
        assert batched.shape == (3, cfg.out_len, cfg.head_channels, 8, 8)
        for k in range(3):
            single = model.forward_features(Tensor(x[k:k + 1]), params, cfg).data
            np.testing.assert_allclose(batched[k], single[0], rtol=0, atol=1e-6)

    @pytest.mark.parametrize("head", ["deterministic", "gaussian"])
    def test_batch_loss_and_grads_are_per_sample_means(self, head):
        cfg = tiny_config(head=head, out_len=3)
        params = model.init_params(rng(62), cfg)
        samples = [make_sample(s, l_out=3) for s in (63, 64, 65)]

        def loss_and_grads(batch):
            for p in params.values():
                p.zero_grad()
            with nd.Tape() as tape:
                raw = model.forward_features(Tensor(np.stack([s.input for s in batch])),
                                             params, cfg)
                loss = model.sample_loss(raw, Tensor(np.stack([s.target for s in batch])), cfg)
                tape.backward(loss)
            return float(loss.data), {k: p.grad.copy() for k, p in params.items()}

        loss, grads = loss_and_grads(samples)
        singles = [loss_and_grads([s]) for s in samples]
        assert loss == pytest.approx(np.mean([l for l, _ in singles]), abs=1e-6)
        for k, g in grads.items():
            want = np.mean([gs[k] for _, gs in singles], axis=0)
            np.testing.assert_allclose(g, want, rtol=1e-4, atol=1e-5, err_msg=k)

    def test_nonfinite_scan_names_block_route_and_sample(self):
        # a NaN last frame in sample 1 reaches the scan only in that sample's
        # sequences; the reversed raster route (route 1) visits it at step 0
        cfg = tiny_config(scan_kind="raster", n_fssm=2)
        params = model.init_params(rng(66), cfg)
        x = rng(67).uniform(size=(3, 4, 1, 8, 8)).astype(np.float32)
        x[1, -1] = np.nan
        with np.errstate(invalid="ignore"), pytest.raises(
                nd.NumericalError,
                match=r"^fssm0: non-finite SSM state at step 0 \(route 1, sample 1\)$"):
            model.forward_features(Tensor(x), params, cfg)

    def test_unbatched_input_rejected(self):
        cfg = tiny_config()
        params = model.init_params(rng(68), cfg)
        with pytest.raises(ValueError, match="does not match config"):
            model.forward_features(Tensor(np.zeros((4, 1, 8, 8))), params, cfg)


class TestLosses:
    def test_rec_identical_zero(self):
        y = Tensor(rng(20).uniform(size=(2, 1, 4, 4)))
        assert float(model.loss_rec(y, y).data) == 0.0

    def test_rec_constant_offset(self):
        y = Tensor(rng(21).uniform(size=(2, 1, 4, 4)))
        yhat = nd.add(y, 0.5)
        assert float(model.loss_rec(yhat, y).data) == pytest.approx(0.5, abs=1e-6)

    def test_rec_matches_brute_force(self):
        r = rng(22)
        a = r.uniform(size=(2, 1, 3, 3)).astype(np.float32)
        b = r.uniform(size=(2, 1, 3, 3)).astype(np.float32)
        want = float(np.abs(a.astype(np.float64) - b).mean())
        assert float(model.loss_rec(Tensor(a), Tensor(b)).data) == pytest.approx(want, abs=1e-6)

    def test_grad_identical_zero(self):
        y = Tensor(rng(23).uniform(size=(2, 1, 4, 4)))
        assert float(model.loss_grad(y, y).data) == 0.0

    def test_grad_translation_invariance(self):
        y = Tensor(rng(24).uniform(size=(2, 1, 4, 4)))
        yhat = nd.add(y, 0.3)
        assert float(model.loss_grad(yhat, y).data) == pytest.approx(0.0, abs=1e-6)

    def test_grad_2x2_hand_case(self):
        # prediction [[0,0],[0,0]], truth [[0,1],[0,0]]
        # dW diffs: truth row0 = [1, 0(replicate)], pred zeros -> |d| sums 1
        # dH diffs: truth col1 = [-1, 0], pred zeros -> |d| sums 1
        # mean over 4 pixels per direction = 0.25 each; loss = 0.25
        yhat = Tensor(np.zeros((1, 1, 2, 2), dtype=np.float32))
        y = Tensor(np.array([[[[0.0, 1.0], [0.0, 0.0]]]], dtype=np.float32))
        assert float(model.loss_grad(yhat, y).data) == pytest.approx(0.25, abs=1e-6)

    def test_total_lambda_zero_is_rec(self):
        r = rng(25)
        a = Tensor(r.uniform(size=(2, 1, 4, 4)))
        b = Tensor(r.uniform(size=(2, 1, 4, 4)))
        assert float(model.loss_total(a, b, 0.0).data) == float(model.loss_rec(a, b).data)

    def test_total_additive(self):
        r = rng(26)
        a = Tensor(r.uniform(size=(2, 1, 4, 4)))
        b = Tensor(r.uniform(size=(2, 1, 4, 4)))
        lam = 0.7
        want = float(model.loss_rec(a, b).data) + lam * float(model.loss_grad(a, b).data)
        assert float(model.loss_total(a, b, lam).data) == pytest.approx(want, abs=1e-6)

    def test_total_lambda_linearity(self):
        r = rng(27)
        a = Tensor(r.uniform(size=(2, 1, 4, 4)))
        b = Tensor(r.uniform(size=(2, 1, 4, 4)))
        lam = 0.4
        diff = (float(model.loss_total(a, b, 2 * lam).data)
                - float(model.loss_total(a, b, lam).data))
        assert diff == pytest.approx(lam * float(model.loss_grad(a, b).data), abs=1e-6)

    def test_total_negative_lambda_rejected(self):
        y = Tensor(np.zeros((1, 1, 2, 2)))
        with pytest.raises(ValueError):
            model.loss_total(y, y, -1.0)

    def test_nll_perfect_prediction_unit_sigma(self):
        y = Tensor(rng(28).uniform(size=(2, 1, 4, 4)))
        one = Tensor(np.ones_like(y.data))
        want = 0.5 * math.log(2 * math.pi)
        assert float(model.loss_nll(y, one, y).data) == pytest.approx(want, abs=1e-4)

    def test_nll_minimized_at_mu_equals_y(self):
        y = Tensor(rng(29).uniform(size=(1, 1, 2, 2)))
        sigma = Tensor(np.full_like(y.data, 0.5))
        mu = Tensor(y.data.copy(), requires_grad=True)
        with nd.Tape() as tape:
            tape.backward(model.loss_nll(mu, sigma, y))
        np.testing.assert_allclose(mu.grad, 0.0, atol=1e-6)
        # gradient sign flips across the minimum
        for shift, sign in ((0.1, 1.0), (-0.1, -1.0)):
            mu2 = Tensor(y.data + shift, requires_grad=True)
            with nd.Tape() as tape:
                tape.backward(model.loss_nll(mu2, sigma, y))
            assert (np.sign(mu2.grad) == sign).all()

    def test_nll_matches_closed_form(self):
        r = rng(30)
        y = r.uniform(size=(2, 1, 3, 3)).astype(np.float32)
        mu = r.uniform(size=(2, 1, 3, 3)).astype(np.float32)
        sigma = r.uniform(0.2, 2.0, size=(2, 1, 3, 3)).astype(np.float32)
        want = float(np.mean(0.5 * np.log(2 * np.pi * sigma.astype(np.float64) ** 2)
                             + (y - mu) ** 2 / (2.0 * sigma.astype(np.float64) ** 2)))
        got = float(model.loss_nll(Tensor(mu), Tensor(sigma), Tensor(y)).data)
        assert got == pytest.approx(want, abs=1e-5)

    def test_nll_nonpositive_sigma_rejected(self):
        y = Tensor(np.zeros((1, 1, 2, 2)))
        with pytest.raises(ValueError):
            model.loss_nll(y, Tensor(np.zeros((1, 1, 2, 2))), y)


class TestTraining:
    def test_zero_lr_keeps_params_bit_identical(self):
        cfg = tiny_config()
        train_set = [make_sample(31)]
        res = model.train(train_set, train_set, cfg, seed=0, max_epochs=3,
                          batch_size=1, lr=0.0)
        fresh = model.init_params(np.random.default_rng(0), cfg)
        for (k, p), (_, q) in zip(res.params.items(), fresh.items()):
            assert (p.data == q.data).all(), k

    def test_fixed_seed_bit_identical_history(self):
        cfg = tiny_config()
        train_set = [make_sample(s) for s in range(3)]
        kw = dict(seed=7, max_epochs=2, batch_size=2, lr=1e-3)
        a = model.train(train_set, train_set[:1], cfg, **kw)
        b = model.train(train_set, train_set[:1], cfg, **kw)
        assert a.history == b.history
        for (k, p), (_, q) in zip(a.params.items(), b.params.items()):
            assert (p.data == q.data).all(), k

    def test_loss_decreases_on_single_sample(self):
        cfg = tiny_config()
        g = data.synth_generate(9, 8, 8, 8, n_blobs=2, drift=0.3)
        sw = data.windows(g, 4, 4)[0]
        res = model.train([sw], [sw], cfg, seed=1, max_epochs=40, batch_size=1,
                          patience=40)
        assert res.history[-1]["train_loss"] < 0.5 * res.history[0]["train_loss"]

    def test_early_stopping_patience(self):
        cfg = tiny_config()
        sw = make_sample(33)
        res = model.train([sw], [sw], cfg, seed=2, max_epochs=50, batch_size=1,
                          patience=2, lr=0.0)
        # lr=0 means val MAE never improves after epoch 0; stop at patience
        assert len(res.history) == 3

    def test_empty_split_rejected(self):
        with pytest.raises(ValueError):
            model.train([], [make_sample(34)], tiny_config())

    @pytest.mark.parametrize("kw", [dict(batch_size=0), dict(max_epochs=0), dict(lr=-1e-3),
                                    dict(lr=math.nan), dict(lr=math.inf)])
    def test_bad_schedule_rejected(self, kw):
        with pytest.raises(ValueError):
            model.train([make_sample(35)], [make_sample(36)], tiny_config(), **kw)

    def test_tape_records_per_step_are_pinned(self, monkeypatch):
        # one step at the default config records 259 backward rules: 267 before
        # the leaky ReLU was fused into its 9 producers (-9) and loss_grad took
        # its differences by slicing (+1); a later unfused op changes the count
        records = []
        plain = nd.Tape.record
        monkeypatch.setattr(nd.Tape, "record",
                            lambda tape, rule: records.append(rule) or plain(tape, rule))
        windows = data.windows(data.synth_generate(0, 40, 16, 16), 14, 14)
        model.train(windows[:4], windows[-1:], model.ModelConfig(), seed=0,
                    max_epochs=1, max_steps=1)
        assert len(records) == 259

    def test_step_leaves_an_empty_tape_and_no_op_gradients(self, monkeypatch):
        tapes, outputs = [], []
        enter, make = nd.Tape.__enter__, nd._make
        monkeypatch.setattr(nd.Tape, "__enter__", lambda tape: tapes.append(tape) or enter(tape))
        monkeypatch.setattr(nd, "_make", lambda *args: outputs.append(make(*args)) or outputs[-1])
        res = model.train([make_sample(37)], [make_sample(38)], tiny_config(), seed=0,
                          max_epochs=1, batch_size=1)
        assert len(tapes) == 1 and tapes[0]._records == []
        taped = [t for t in outputs if t.requires_grad]
        assert taped and all(t.grad is None for t in taped)
        assert all(p.grad is not None for p in res.params.values())

    def test_step_memory_is_pinned(self):
        # traced peak of one default-config step with its validation pass:
        # about 88 MiB while every rule, op gradient and scan state history
        # lived until the tape was dropped, about 38 MiB once replay frees
        # them and the scan keeps only its chunk-entry states, about 35 MiB
        # once the depthwise conv keeps its input, not its padded rows, about
        # 33.5 MiB once the norms keep their mean and std, not x-hat, about
        # 22.8 MiB (at conv_transpose2d's kernel gradient) once each record
        # keeps gradient holders, not its output and input tensors
        windows = data.windows(data.synth_generate(0, 40, 16, 16), 14, 14)
        tracemalloc.start()
        try:
            model.train(windows[:4], windows[-1:], model.ModelConfig(), seed=0,
                        max_epochs=1, max_steps=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24 << 20

    def test_records_hold_only_what_their_rules_read(self, monkeypatch):
        # before the replay, no record of a default step reaches an array that
        # its backward rule does not close over, parameters aside; while each
        # record held its output and input tensors, 22.6 MiB of the 28.6 MiB on
        # the tape were such arrays, and no rule at all read 10.3 MiB of them
        params, extra = [], {}
        init, replay = model.init_params, nd.Tape.backward

        def made(*args):
            out = init(*args)
            params.extend(out.values())
            return out

        def walked(tape, loss):
            kept = set().union(*(held_arrays(p.data) for p in params))
            for run in tape._records:
                rule = dict(zip(run.__code__.co_freevars, run.__closure__))["backward"]
                ruled = held_arrays(rule.cell_contents)
                extra.update((k, n) for k, n in held_arrays(run).items()
                             if k not in ruled and k not in kept)
            replay(tape, loss)

        monkeypatch.setattr(model, "init_params", made)
        monkeypatch.setattr(nd.Tape, "backward", walked)
        windows = data.windows(data.synth_generate(0, 40, 16, 16), 14, 14)
        model.train(windows[:4], windows[-1:], model.ModelConfig(), seed=0,
                    max_epochs=1, max_steps=1)
        assert params and not extra, f"{sum(extra.values())} bytes held by records alone"

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's mallopt only")
    def test_steps_reuse_freed_pages(self):
        # a fresh process, so that no earlier 64x64 forward has raised glibc's
        # dynamic mmap threshold: with nd's fixed thresholds a default step
        # (batch 4, 14x1x16x16) after a warm-up faults in about 30 pages,
        # against about 7700 when the replay's frees went back to the kernel
        src = str(Path(model.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        out = subprocess.run([sys.executable, "-c", FAULT_PROBE], env=env, capture_output=True,
                             text=True, timeout=300, check=True)
        assert float(out.stdout) < 100

    def test_nonfinite_gradient_with_finite_loss_raises(self, monkeypatch):
        # 0 * (1 / (0 * raw + 1e-30)) adds 0 to the loss, but the reciprocal's
        # gradient -1 / 1e-60 underflows to -1 / 0, and 0 / 0 = NaN flows back
        # into every gradient; AdamW must refuse it before its first update
        plain = model.sample_loss
        monkeypatch.setattr(model, "sample_loss", lambda raw, target, config: nd.add(
            plain(raw, target, config),
            nd.mean(nd.mul(nd.div(1.0, nd.add(nd.mul(raw, 0.0), 1e-30)), 0.0))))
        with np.errstate(divide="ignore", invalid="ignore"), pytest.raises(
                nd.NumericalError, match=r"non-finite gradient of fssm0\.mamba\.ln_gamma at step 0"):
            model.train([make_sample(50)], [make_sample(51)], tiny_config(), seed=0,
                        max_epochs=1, batch_size=1)

    def test_adamw_touches_nothing_on_nonfinite_gradient(self):
        params = {"a": nd.param(np.ones(3)), "b": nd.param(np.ones(2))}
        params["a"].grad = np.ones(3, dtype=np.float32)
        params["b"].grad = np.array([0.0, np.nan], dtype=np.float32)
        opt = model.AdamW(params)
        with pytest.raises(nd.NumericalError, match="non-finite gradient of b at step 0"):
            opt.step()
        assert opt.t == 0
        for p in params.values():
            assert (p.data == 1.0).all()

    def test_history_csv_format(self):
        rows = [{"epoch": 0, "train_loss": 0.5, "val_mae": 3.25, "lr": 1e-3}]
        csv = model.history_csv(rows)
        assert csv.splitlines()[0] == "epoch,train_loss,val_mae,lr"
        assert csv.splitlines()[1].startswith("0,0.500000,3.250000,")


class TestRecursive:
    def test_one_step_equals_forward(self):
        cfg = tiny_config()
        params = model.init_params(rng(35), cfg)
        x = rng(36).uniform(size=(4, 1, 8, 8)).astype(np.float32)
        chained = model.recursive_forecast(x, params, cfg, steps=1)
        direct = model.forward(x, params, cfg).mean
        np.testing.assert_array_equal(chained, direct)

    def test_two_steps_doubles_length(self):
        cfg = tiny_config()
        params = model.init_params(rng(37), cfg)
        x = rng(38).uniform(size=(4, 1, 8, 8)).astype(np.float32)
        out = model.recursive_forecast(x, params, cfg, steps=2)
        assert out.shape == (8, 1, 8, 8)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_invalid_steps(self):
        cfg = tiny_config()
        params = model.init_params(rng(39), cfg)
        with pytest.raises(ValueError):
            model.recursive_forecast(np.zeros((4, 1, 8, 8), np.float32),
                                     params, cfg, steps=0)

    def test_each_step_sees_the_last_in_len_frames(self):
        # out_len 3 < in_len 4: each input mixes the previous input and forecast
        cfg = tiny_config(out_len=3)
        params = model.init_params(rng(40), cfg)
        x = rng(41).uniform(size=(4, 1, 8, 8)).astype(np.float32)
        stream = x
        for _ in range(3):
            stream = np.concatenate([stream, model.forward(stream[-4:], params, cfg).mean])
        np.testing.assert_array_equal(model.recursive_forecast(x, params, cfg, steps=3),
                                      stream[4:])

    def test_over_the_value_budget_refused_before_forward(self, monkeypatch):
        cfg = tiny_config()
        params = model.init_params(rng(42), cfg)
        monkeypatch.setattr(model, "forward", lambda *a: pytest.fail("forward ran"))
        steps = model.MAX_FORECAST_VALUES // (cfg.out_len * 8 * 8) + 1
        with pytest.raises(ValueError, match="over"):
            model.recursive_forecast(np.zeros((4, 1, 8, 8), np.float32), params, cfg,
                                     steps=steps)


class TestCheckpoint:
    @pytest.mark.parametrize("kw, digest", [
        (dict(), "49305b36d063ea8491b66d868a5a5343638b4f80bfe12d0918092891f7ed8229"),
        (dict(fusion="cagate", n_routes=4, out_len=7),
         "6a4b998dfbd7d66ce1dad19f160c8c50d742575148fefdb2bd6bbcef9f98de20"),
    ], ids=["default", "cagate-4routes-out7"])
    def test_layout_is_pinned(self, kw, digest):
        # names, shapes and order of the checkpoint; a changed name or shape
        # stops earlier checkpoints from loading, a changed order changes the
        # files written (they are read by name)
        params = model.init_params(rng(0), model.ModelConfig(**kw))
        layout = "".join(f"{k}:{tuple(t.shape)};" for k, t in params.items())
        assert hashlib.sha256(layout.encode()).hexdigest() == digest

    @pytest.mark.parametrize("kw", [
        dict(), dict(head="gaussian", out_len=3), dict(fusion="cagate", n_routes=4, out_len=7),
        dict(fusion="sum", n_fssm=1), dict(hidden=10, state_size=3, in_len=5)])
    def test_layout_matches_init_params(self, kw):
        cfg = model.ModelConfig(**kw)
        made = [(k, t.shape) for k, t in model.init_params(rng(0), cfg).items()]
        assert [(k, shape) for k, shape, _ in model.param_layout(cfg)] == made

    @pytest.mark.parametrize("kw, digest", [
        (dict(), "ace324bfdec4ee74d52322636bc5744ef3eff28bfcfab6ff4e956df0806cd552"),
        (dict(fusion="cagate", n_routes=4, out_len=7),
         "6d54ac8ee7a12864530ac311dc56fbf2b9f9e1278f10087aa15889c880f7110c"),
    ], ids=["default", "cagate-4routes-out7"])
    def test_initial_values_are_pinned(self, kw, digest):
        # the bytes of every initial tensor in key order, which is draw order;
        # a reordered draw or a changed init moves every trained model
        h = hashlib.sha256()
        for t in model.init_params(rng(0), model.ModelConfig(**kw)).values():
            h.update(t.data.tobytes())
        assert h.hexdigest() == digest

    @pytest.mark.parametrize("kw", [dict(), dict(hidden=16, n_fssm=2)],
                             ids=["default", "criterion-9"])
    def test_size_budget_edge(self, monkeypatch, kw):
        cfg = model.ModelConfig(**kw)
        count = sum(math.prod(shape) for _, shape, _ in model.param_layout(cfg))
        assert count <= model.MAX_PARAMS
        monkeypatch.setattr(model, "MAX_PARAMS", count)
        assert len(model.init_params(rng(0), cfg)) == len(list(model.param_layout(cfg)))
        monkeypatch.setattr(model, "MAX_PARAMS", count - 1)
        with pytest.raises(ValueError, match=f"asks for {count} parameters, over the "
                                             f"budget of {count - 1}"):
            model.init_params(rng(0), cfg)

    def test_round_trip_preserves_predictions(self, tmp_path):
        cfg = tiny_config()
        params = model.init_params(rng(40), cfg)
        x = rng(41).uniform(size=(4, 1, 8, 8)).astype(np.float32)
        want = model.forward(x, params, cfg).mean
        path = tmp_path / "m.ckpt"
        model.save_checkpoint(path, params)
        back = model.load_checkpoint(path, cfg)
        got = model.forward(x, back, cfg).mean
        np.testing.assert_array_equal(got, want)

    def test_enc_first_checkpoint_still_loads(self, tmp_path):
        # checkpoints were once written with enc.* first and each block's
        # mamba.ssm.* after its mamba.b_out; they are read by name and load
        cfg = model.ModelConfig()
        params = model.init_params(rng(43), cfg)

        def enc_first(name):
            head, _, rest = name.partition(".")
            block = int(head[4:]) if head.startswith("fssm") else math.inf
            part = (1 if rest.startswith("mamba.ssm.") else 0 if rest.startswith("mamba.")
                    else 2)
            return head != "enc", block, part

        old = {name: params[name] for name in sorted(params, key=enc_first)}
        layout = "".join(f"{k}:{tuple(t.shape)};" for k, t in old.items())
        # the layout digest those checkpoints were pinned to
        assert hashlib.sha256(layout.encode()).hexdigest() == \
            "e1bc36b0c04c1bcd57b6dc23f61b9617134b8e1d014d718f429d851a6ba19668"
        nd.save_params(tmp_path / "old.ckpt", old)
        model.save_checkpoint(tmp_path / "new.ckpt", params)
        from_old = model.load_checkpoint(tmp_path / "old.ckpt", cfg)
        from_new = model.load_checkpoint(tmp_path / "new.ckpt", cfg)
        assert list(from_old) == list(from_new) == list(params) != list(old)
        for name, t in from_new.items():
            np.testing.assert_array_equal(from_old[name].data, t.data)
        x = rng(44).uniform(size=(14, 1, 8, 8)).astype(np.float32)
        np.testing.assert_array_equal(model.forward(x, from_old, cfg).mean,
                                      model.forward(x, from_new, cfg).mean)

    def test_config_mismatch_rejected(self, tmp_path):
        cfg = tiny_config()
        path = tmp_path / "m.ckpt"
        model.save_checkpoint(path, model.init_params(rng(42), cfg))
        with pytest.raises(ValueError):
            model.load_checkpoint(path, tiny_config(n_fssm=2))
