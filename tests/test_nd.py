import errno
import hashlib
import math
import os
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from icessm import data, model, nd
from icessm.nd import Tape, Tensor

from oracles import (full_history_ssm_recurrence, naive_conv2d, naive_conv_transpose2d,
                     naive_depthwise_conv2d, naive_leaky_relu, naive_norm,
                     single_product_conv_cols_adjoint, where_leaky_relu, where_leaky_slope,
                     where_sigmoid)


def rng(seed=0):
    return np.random.default_rng(seed)


def sha256_of(*arrays):
    return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()


class TestLinear:
    def test_identity(self):
        x = Tensor([1.0, 0.0])
        w = Tensor(np.eye(2))
        b = Tensor(np.zeros(2))
        assert nd.linear(x, w, b).data.tolist() == [1.0, 0.0]

    def test_hand_sum(self):
        x = Tensor([1.0, 2.0])
        w = Tensor([[1.0], [1.0]])
        b = Tensor([0.5])
        assert nd.linear(x, w, b).data.tolist() == [3.5]

    def test_grads_match_finite_differences(self):
        r = rng(1)
        x = Tensor(r.normal(size=(3, 4)))
        w = Tensor(r.normal(size=(4, 2)))
        b = Tensor(r.normal(size=2))

        def f(x_, w_, b_):
            return nd.mean(nd.mul(nd.linear(x_, w_, b_), Tensor(r2)))

        r2 = rng(2).normal(size=(3, 2)).astype(np.float32)
        report = nd.grad_check(f, [x, w, b], tolerance=1e-4)
        assert report.passed, report

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            nd.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))


class TestConv2d:
    def test_1x1_kernel_is_pixelwise_linear(self):
        r = rng(3)
        x = Tensor(r.normal(size=(2, 3, 4, 4)))
        k = Tensor(r.normal(size=(5, 3, 1, 1)))
        out = nd.conv2d(x, k, Tensor(np.zeros(5)))
        expect = np.einsum("oc,tchw->tohw", k.data[:, :, 0, 0], x.data)
        np.testing.assert_allclose(out.data, expect, atol=1e-5)

    def test_adjoint_identity(self):
        # <conv(x), y> == <x, convT(y)> for identical geometry; every stride
        # consumes the whole padded 9x9 input, so convT maps back to 9x9
        r = rng(4)
        for stride, pad in [(1, 0), (1, 1), (2, 1), (2, 0)]:
            x = Tensor(r.normal(size=(2, 3, 9, 9)))
            k = Tensor(r.normal(size=(4, 3, 3, 3)))
            cx = nd.conv2d(x, k, Tensor(np.zeros(4)), stride=stride, padding=pad)
            y = Tensor(r.normal(size=cx.data.shape))
            cty = nd.conv_transpose2d(y, k, Tensor(np.zeros(3)), stride=stride, padding=pad)
            lhs = float((cx.data * y.data).sum())
            rhs = float((x.data * cty.data).sum())
            assert abs(lhs - rhs) < 1e-4 * max(1.0, abs(lhs))

    def test_averaging_kernel_preserves_constant(self):
        x = Tensor(np.full((1, 1, 5, 5), 0.7))
        k = Tensor(np.full((1, 1, 3, 3), 1.0 / 9.0))
        out = nd.conv2d(nd.pad2d(x, (1, 1, 1, 1)), k, Tensor(np.zeros(1)))
        np.testing.assert_allclose(out.data, 0.7, atol=1e-6)

    def test_depthwise_constant_replicate(self):
        x = Tensor(np.full((2, 3, 4, 4), 1.5))
        k = Tensor(np.full((3, 3, 3), 1.0 / 9.0))
        out = nd.depthwise_conv2d(x, k, Tensor(np.zeros(3)))
        np.testing.assert_allclose(out.data, 1.5, atol=1e-6)

    @pytest.mark.parametrize("frames", [1, 3])
    def test_conv_grads(self, frames):
        r = rng(5)
        x = Tensor(r.normal(size=(frames, 2, 5, 5)))
        k = Tensor(r.normal(size=(3, 2, 3, 3)) * 0.5)
        b = Tensor(r.normal(size=3))

        def f(x_, k_, b_):
            return nd.mean(nd.square(nd.conv2d(x_, k_, b_, stride=2, padding=1)))

        assert nd.grad_check(f, [x, k, b], tolerance=1e-3).passed

    def test_conv_tape_holds_no_padded_input(self, monkeypatch):
        # the backward needs only the padded shape; the tape keeps x anyway
        padded = []
        pad = nd._np_pad2d

        def tracked_pad(*args):
            xp = pad(*args)
            padded.append(weakref.ref(xp))
            return xp

        monkeypatch.setattr(nd, "_np_pad2d", tracked_pad)
        r = rng(5)
        x = Tensor(r.normal(size=(2, 2, 5, 5)), requires_grad=True)
        k = Tensor(r.normal(size=(3, 2, 3, 3)), requires_grad=True)
        with Tape() as tape:
            loss = nd.mean(nd.conv2d(x, k, Tensor(np.zeros(3)), stride=2, padding=1))
        assert len(padded) == 1 and padded[0]() is None
        tape.backward(loss)
        assert x.grad.shape == x.data.shape

    def test_1x1_conv_tape_keeps_only_its_output(self):
        # the head's 1x1 conv at train-s16, [56, 16, 16, 16]: its columns are a view
        # of x, so only the output (0.06 MiB) lives on; a copy of x was 0.88 MiB more
        r = rng(46)
        x = Tensor(r.normal(size=(56, 16, 16, 16)), requires_grad=True)
        k, b = Tensor(r.normal(size=(1, 16, 1, 1)), requires_grad=True), Tensor(np.zeros(1))
        with Tape():
            tracemalloc.start()
            try:
                y = nd.conv2d(x, k, b)
                held = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
        assert held <= y.data.nbytes + (16 << 10)

    @pytest.mark.parametrize("frames", [1, 3])
    def test_conv_transpose_grads(self, frames):
        # the decoder's geometry: 4x4 kernel, stride 2, padding 1, with bias
        r = rng(6)
        y = Tensor(r.normal(size=(frames, 3, 3, 3)))
        k = Tensor(r.normal(size=(3, 2, 4, 4)) * 0.5)
        b = Tensor(r.normal(size=2))

        def f(y_, k_, b_):
            return nd.mean(nd.square(nd.conv_transpose2d(y_, k_, b_, stride=2, padding=1)))

        assert nd.grad_check(f, [y, k, b], tolerance=1e-3).passed

    @pytest.mark.parametrize("frames", [1, 3])
    def test_depthwise_grads(self, frames):
        r = rng(7)
        x = Tensor(r.normal(size=(frames, 2, 4, 4)))
        k = Tensor(r.normal(size=(2, 3, 3)) * 0.5)
        b = Tensor(np.zeros(2))

        def f(x_, k_):
            return nd.mean(nd.square(nd.depthwise_conv2d(x_, k_, b)))

        assert nd.grad_check(f, [x, k], tolerance=1e-3).passed

    # the model's geometries: 3x3 stride-2 encoder convs, the 1x1 head;
    # conv2d zero-pads, so the replicate case pads with pad2d first
    @pytest.mark.parametrize("ksize,stride,padding,pad_mode,hw", [
        (3, 2, 1, "zero", (8, 8)),
        (3, 2, 1, "zero", (7, 9)),
        (3, 2, 1, "replicate", (8, 8)),
        (1, 1, 0, "zero", (5, 6)),
    ])
    def test_conv2d_matches_naive(self, ksize, stride, padding, pad_mode, hw):
        r = rng(30)
        x = r.normal(size=(3, 4) + hw).astype(np.float32)
        k = r.normal(size=(5, 4, ksize, ksize)).astype(np.float32)
        b = r.normal(size=5).astype(np.float32)
        expect = naive_conv2d(x, k, b, stride, padding, pad_mode)
        xt = Tensor(x)
        if pad_mode == "replicate":
            xt, padding = nd.pad2d(xt, (padding,) * 4), 0
        out = nd.conv2d(xt, Tensor(k), Tensor(b), stride=stride, padding=padding)
        np.testing.assert_allclose(out.data, expect, atol=1e-5)

    # the decoder's geometry: 4x4, stride 2, padding 1; odd inputs also pin
    # the output size (in - 1) * 2 - 2 + 4
    @pytest.mark.parametrize("in_hw,output_hw", [((4, 4), None), ((3, 4), (6, 8)),
                                                 ((3, 3), (6, 6))])
    def test_conv_transpose2d_matches_naive(self, in_hw, output_hw):
        r = rng(31)
        y = r.normal(size=(3, 5) + in_hw).astype(np.float32)
        k = r.normal(size=(5, 4, 4, 4)).astype(np.float32)
        b = r.normal(size=4).astype(np.float32)
        out = nd.conv_transpose2d(Tensor(y), Tensor(k), Tensor(b), stride=2, padding=1)
        expect = naive_conv_transpose2d(y, k, b, 2, 1)
        assert out.data.shape == expect.shape
        if output_hw is not None:
            assert out.data.shape[-2:] == output_hw
        np.testing.assert_allclose(out.data, expect, atol=1e-5)

    # g [T, Co, Ho, Wo], kernels [Co, Ci, k, k], padded input [Hp, Wp], stride: the
    # decoder's transposed convs (forecast-s64 and train-s16, dec1 and dec2) and the
    # input gradient of enc2's stride-2 3x3 conv at train-s16
    @pytest.mark.parametrize("t, co, ci, k, ho, hp, s", [
        (14, 32, 16, 4, 16, 34, 2), (14, 16, 16, 4, 32, 66, 2), (56, 32, 16, 4, 4, 10, 2),
        (56, 16, 16, 4, 8, 18, 2), (56, 32, 16, 3, 4, 10, 2)],
        ids=["forecast-dec1", "forecast-dec2", "train-dec1", "train-dec2", "train-enc2-dx"])
    def test_per_tap_adjoint_equals_single_product_bitwise(self, t, co, ci, k, ho, hp, s):
        r = rng(t + co + ho)
        g = r.normal(size=(t, co, ho, ho)).astype(np.float32)
        kernels = r.normal(size=(co, ci, k, k)).astype(np.float32)
        got = nd._conv_cols_adjoint(g, kernels, (t, ci, hp, hp), s, 0)
        assert got.tobytes() == single_product_conv_cols_adjoint(
            g, kernels, (t, ci, hp, hp), s).tobytes()

    def test_depthwise_blocks_of_rows_equal_one_block_bitwise(self, monkeypatch):
        # a 64x64 decoder's rows span more than one block; one row per block here
        r = rng(36)
        x = Tensor(r.normal(size=(2, 5, 7, 6)), requires_grad=True)
        k = Tensor(r.normal(size=(5, 3, 3)), requires_grad=True)
        b = Tensor(r.normal(size=5), requires_grad=True)
        runs = []
        for group in (lambda span: 5, lambda span: 1):
            monkeypatch.setattr(nd, "_tap_group", group)
            for t in (x, k, b):
                t.zero_grad()
            with Tape() as tape:
                y = nd.depthwise_conv2d(x, k, b)
                tape.backward(nd.mean(nd.square(y)))
            runs.append([a.tobytes() for a in (y.data, x.grad, k.grad, b.grad)])
        assert runs[0] == runs[1]

    # depthwise_conv2d pads by replicating the edge and ends in the leaky ReLU
    @pytest.mark.parametrize("pad_mode", ["replicate"])
    def test_depthwise_matches_naive(self, pad_mode):
        r = rng(32)
        x = r.normal(size=(3, 4, 6, 5)).astype(np.float32)
        k = r.normal(size=(4, 3, 3)).astype(np.float32)
        b = r.normal(size=4).astype(np.float32)
        out = nd.depthwise_conv2d(Tensor(x), Tensor(k), Tensor(b))
        pre = naive_depthwise_conv2d(x, k, b, pad_mode)
        assert (pre > 0.1).any() and (pre < -0.1).any()      # both sides of the kink
        np.testing.assert_allclose(out.data, naive_leaky_relu(pre), atol=1e-5)

    @pytest.mark.parametrize("shape", [(2, 1, 5, 7), (1, 3, 7, 3), (3, 1, 1, 1)],
                             ids=["one-channel-odd", "odd", "one-pixel"])
    @pytest.mark.parametrize("pad_mode", ["replicate"])
    def test_depthwise_odd_shapes_match_naive(self, shape, pad_mode):
        r = rng(33)
        x = r.normal(size=shape).astype(np.float32)
        k = r.normal(size=(shape[1], 3, 3)).astype(np.float32)
        b = r.normal(size=shape[1]).astype(np.float32)
        out = nd.depthwise_conv2d(Tensor(x), Tensor(k), Tensor(b))
        np.testing.assert_allclose(
            out.data, naive_leaky_relu(naive_depthwise_conv2d(x, k, b, pad_mode)), atol=1e-5)

    def test_depthwise_leading_axes_are_frames(self):
        r = rng(34)
        x = r.normal(size=(2, 3, 4, 5, 6)).astype(np.float32)
        k = r.normal(size=(4, 3, 3)).astype(np.float32)
        b = Tensor(np.zeros(4))
        out = nd.depthwise_conv2d(Tensor(x), Tensor(k), b)
        flat = nd.depthwise_conv2d(Tensor(x.reshape(6, 4, 5, 6)), Tensor(k), b)
        np.testing.assert_array_equal(out.data, flat.data.reshape(x.shape))

    @pytest.mark.parametrize("shape", [(2, 1, 5, 3), (1, 2, 3, 5)],
                             ids=["replicate-one-channel", "replicate-odd"])
    def test_depthwise_odd_shape_grads(self, shape):
        r = rng(35)
        x = Tensor(r.normal(size=shape))
        k = Tensor(r.normal(size=(shape[1], 3, 3)) * 0.5)
        b = Tensor(r.normal(size=shape[1]))

        def f(x_, k_, b_):
            return nd.mean(nd.square(nd.depthwise_conv2d(x_, k_, b_)))

        assert nd.grad_check(f, [x, k, b], tolerance=1e-3).passed

    def test_depthwise_at_64_pinned(self):
        # sha256 of the output and the three gradients of a decoder-sized input, whose
        # 16 channels span 8 blocks of 2; computed with the depthwise conv that padded
        # every channel at once
        r = rng(42)
        x = Tensor(r.normal(size=(14, 16, 64, 64)), requires_grad=True)
        k = Tensor(r.normal(size=(16, 3, 3)) * 0.5, requires_grad=True)
        b = Tensor(r.normal(size=16), requires_grad=True)
        with Tape() as tape:
            y = nd.depthwise_conv2d(x, k, b)
            tape.backward(nd.mean(nd.mul(y, Tensor(rng(43).normal(size=x.shape)))))
        assert sha256_of(y.data, x.grad, k.grad, b.grad) == \
            "68d77cc406a3786104825017af1f6aa03215820f61d39f02900eff1b2af03b7a"

    def test_depthwise_pads_one_block_at_a_time(self):
        # untaped at [14, 16, 64, 64]: the output (3.7 MB) and one block of 2 padded
        # channels, its tap rows and its tap product (0.5 MB each); a whole padded
        # copy of the input is another 3.9 MB
        r = rng(44)
        x = Tensor(r.normal(size=(14, 16, 64, 64)))
        k, b = Tensor(r.normal(size=(16, 3, 3))), Tensor(r.normal(size=16))
        tracemalloc.start()
        try:
            y = nd.depthwise_conv2d(x, k, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < y.data.nbytes + 4 * (1 << 19)

    def test_bad_geometry(self):
        x, b = Tensor(np.zeros((1, 1, 4, 4))), Tensor(np.zeros(1))
        with pytest.raises(ValueError):
            nd.conv2d(x, Tensor(np.zeros((1, 1, 3, 3))), b, stride=0)
        with pytest.raises(ValueError):
            nd.conv2d(x, Tensor(np.zeros((1, 1, 5, 5))), b)


class TestConv1d:
    def test_selector_weights(self):
        x = Tensor(np.arange(6, dtype=np.float32))  # two triples
        w = Tensor(np.tile(np.array([[1, 0, 0]] * 3, dtype=np.float32), (2, 1, 1)))
        out = nd.group_conv1d(x, w, Tensor(np.zeros(6)))
        assert out.data.tolist() == [0, 0, 0, 3, 3, 3]

    def test_mean_weights(self):
        x = Tensor(np.array([3.0, 6.0, 9.0, 1.0, 2.0, 3.0]))
        w = Tensor(np.full((2, 3, 3), 1.0 / 3.0))
        out = nd.group_conv1d(x, w, Tensor(np.zeros(6)))
        np.testing.assert_allclose(out.data, [6, 6, 6, 2, 2, 2], atol=1e-6)

    def test_group_conv_grads(self):
        r = rng(8)
        x = Tensor(r.normal(size=9))
        w = Tensor(r.normal(size=(3, 3, 3)))
        b = Tensor(r.normal(size=9))

        def f(x_, w_, b_):
            return nd.mean(nd.square(nd.group_conv1d(x_, w_, b_)))

        assert nd.grad_check(f, [x, w, b], tolerance=1e-3).passed

    def test_indivisible_channels(self):
        with pytest.raises(ValueError):
            nd.group_conv1d(Tensor(np.zeros(7)), Tensor(np.zeros((2, 3, 3))),
                            Tensor(np.zeros(7)))

    def test_causal_conv1d(self):
        # kernel [0, 0, 1] is the identity; [1, 0, 0] delays by 2
        x, b = Tensor(np.arange(5, dtype=np.float32)[:, None]), Tensor(np.zeros(1))
        ident = nd.conv1d_depthwise(x, Tensor(np.array([[0.0, 0.0, 1.0]])), b)
        np.testing.assert_array_equal(ident.data[:, 0], x.data[:, 0])
        delay = nd.conv1d_depthwise(x, Tensor(np.array([[1.0, 0.0, 0.0]])), b)
        np.testing.assert_array_equal(delay.data[:, 0], [0, 0, 0, 1, 2])

    def test_conv1d_grads(self):
        r = rng(9)
        x = Tensor(r.normal(size=(6, 3)))
        k = Tensor(r.normal(size=(3, 3)))
        b = Tensor(r.normal(size=3))

        def f(x_, k_, b_):
            return nd.mean(nd.square(nd.conv1d_depthwise(x_, k_, b_)))

        assert nd.grad_check(f, [x, k, b], tolerance=1e-3).passed


class TestNorms:
    def test_constant_input_collapses_to_zero(self):
        x = Tensor(np.full((3, 4), 2.5))
        out = nd.layernorm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-4)

    def test_already_normalized(self):
        x = Tensor(np.array([1.0, -1.0]))
        out = nd.layernorm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)))
        np.testing.assert_allclose(out.data, [1.0, -1.0], atol=1e-3)

    def test_random_statistics(self):
        r = rng(10)
        x = Tensor(r.normal(size=(5, 64)) * 3 + 1)
        out = nd.layernorm(x, Tensor(np.ones(64)), Tensor(np.zeros(64)))
        np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-5)
        np.testing.assert_allclose(out.data.var(axis=-1), 1.0, atol=1e-3)

    def test_groupnorm_statistics(self):
        r = rng(11)
        x = Tensor(r.normal(size=(2, 8, 4, 4)) * 2 + 0.5)
        out = nd.groupnorm(x, 4, Tensor(np.ones(8)), Tensor(np.zeros(8)))
        pre = np.where(out.data > 0, out.data, out.data / nd.LEAKY_SLOPE)   # undo the leaky ReLU
        grouped = pre.reshape(2, 4, 2 * 4 * 4)
        np.testing.assert_allclose(grouped.mean(axis=2), 0.0, atol=1e-5)
        np.testing.assert_allclose(grouped.var(axis=2), 1.0, atol=1e-3)

    def test_layernorm_grads(self):
        r = rng(12)
        x = Tensor(r.normal(size=(3, 5)))
        g = Tensor(r.normal(size=5))
        b = Tensor(r.normal(size=5))
        t = rng(13).normal(size=(3, 5)).astype(np.float32)

        def f(x_, g_, b_):
            return nd.mean(nd.mul(nd.layernorm(x_, g_, b_), Tensor(t)))

        assert nd.grad_check(f, [x, g, b], tolerance=2e-3).passed


    def test_layernorm_channel_axis_grads(self):
        r = rng(14)
        x = Tensor(r.normal(size=(2, 3, 2, 2)))
        g = Tensor(r.normal(size=3))
        b = Tensor(r.normal(size=3))
        t = rng(15).normal(size=(2, 3, 2, 2)).astype(np.float32)

        def f(x_, g_, b_):
            return nd.mean(nd.mul(nd.layernorm(x_, g_, b_, axis=1), Tensor(t)))

        assert nd.grad_check(f, [x, g, b], tolerance=2e-3).passed

    def test_groupnorm_grads(self):
        r = rng(16)
        x = Tensor(r.normal(size=(2, 4, 2, 3)))
        g = Tensor(r.normal(size=4))
        b = Tensor(r.normal(size=4))
        t = rng(17).normal(size=(2, 4, 2, 3)).astype(np.float32)

        def f(x_, g_, b_):
            return nd.mean(nd.mul(nd.groupnorm(x_, 2, g_, b_), Tensor(t)))

        assert nd.grad_check(f, [x, g, b], tolerance=2e-3).passed

    @pytest.mark.parametrize("norm", ["groupnorm", "layernorm-channel-leaky"])
    def test_leaky_norms_match_naive(self, norm):
        # scalar statistics, then a scalar leaky ReLU, with outputs on both sides of 0
        r = rng(20)
        x = (r.normal(size=(2, 4, 3, 5)) * 2 + 0.5).astype(np.float32)
        g = r.normal(size=4).astype(np.float32)
        b = r.normal(size=4).astype(np.float32)
        if norm == "groupnorm":
            out = nd.groupnorm(Tensor(x), 2, Tensor(g), Tensor(b))
            pre = naive_norm(x, g, b, groups=2)
        else:
            out = nd.layernorm(Tensor(x), Tensor(g), Tensor(b), axis=1, leaky=True)
            pre = naive_norm(x, g, b, axis=1)
        assert (pre > 0.1).any() and (pre < -0.1).any()
        np.testing.assert_allclose(out.data, naive_leaky_relu(pre), atol=1e-5)

    def test_layernorm_leaky_grads(self):
        r = rng(21)
        x = Tensor(r.normal(size=(2, 3, 2, 2)))
        g = Tensor(r.normal(size=3))
        b = Tensor(r.normal(size=3))
        t = rng(22).normal(size=(2, 3, 2, 2)).astype(np.float32)

        def f(x_, g_, b_):
            return nd.mean(nd.mul(nd.layernorm(x_, g_, b_, axis=1, leaky=True), Tensor(t)))

        assert nd.grad_check(f, [x, g, b], tolerance=2e-3).passed

    @pytest.mark.parametrize("norm", ["layernorm-last", "layernorm-channel", "groupnorm",
                                      "layernorm-channel-leaky"])
    def test_fused_norms_match_composite(self, norm):
        # the primitives against the same formula built from taped elementary ops,
        # and the masked-select leaky ReLU where the primitive ends in it
        r = rng(18)
        x = Tensor(r.normal(size=(3, 4, 5, 6)) * 2 + 0.5, requires_grad=True)
        c = 6 if norm == "layernorm-last" else 4
        g = Tensor(r.normal(size=c), requires_grad=True)
        b = Tensor(r.normal(size=c), requires_grad=True)
        t = Tensor(rng(19).normal(size=x.shape))
        if norm == "groupnorm":
            def fused():
                return nd.groupnorm(x, 2, g, b)

            def composite():
                xg = nd.reshape(x, (3, 2, -1))
                xhat = nd.reshape(composite_normalize(xg, 2), x.shape)
                return taped_leaky_relu(nd.add(nd.mul(xhat, nd.reshape(g, (1, c, 1, 1))),
                                               nd.reshape(b, (1, c, 1, 1))))
        else:
            axis = -1 if norm == "layernorm-last" else 1
            view = (c,) if axis == -1 else (1, c, 1, 1)
            leaky = norm.endswith("-leaky")

            def fused():
                return nd.layernorm(x, g, b, axis=axis, leaky=leaky)

            def composite():
                out = nd.add(nd.mul(composite_normalize(x, axis), nd.reshape(g, view)),
                             nd.reshape(b, view))
                return taped_leaky_relu(out) if leaky else out
        grads = []
        for build in (fused, composite):
            for p in (x, g, b):
                p.zero_grad()
            with Tape() as tape:
                out = build()
                tape.backward(nd.mean(nd.mul(out, t)))
            grads.append((out.data, [p.grad.copy() for p in (x, g, b)]))
        (y1, g1), (y2, g2) = grads
        np.testing.assert_array_equal(y1, y2)     # same float32 operations in the same order
        for a, e in zip(g1, g2):
            np.testing.assert_allclose(a, e, rtol=1e-4, atol=1e-6)

    # sha256 of the output and the three gradients, computed with the norms that
    # took the variance of the whole input at once and kept x-hat on the tape. The
    # rows span several variance blocks: 3 of 1024 rows, 4 of 4 frames and 7 of 2
    # frames; the 1-D input is longer than a block, and its reduced axis is never split
    @pytest.mark.parametrize("norm, shape, pin", [
        ("layernorm-last", (3000, 2, 64),
         "fcee8103328247e4ad7a9bb5bbd74de921d6de4bf35f5d229dc705fb99847ef7"),
        ("layernorm-channel-leaky", (14, 8, 64, 64),
         "9342c4db9b43b2cb6567b24257430fd9c539ec4f8c4525c2cb8de99d4d3e7379"),
        ("groupnorm", (14, 16, 64, 64),
         "28f1d10555c7eb5022aec07d0c4659d1c32cecb0026be560ceb0e3ae02c0ea84"),
        ("layernorm-1d", (300000,),
         "115881965938ec9dff84ba553976893696e1080484198551c049f42918f76d61"),
    ], ids=["layernorm-last", "layernorm-channel-leaky", "groupnorm", "layernorm-1d"])
    def test_blocked_norms_pinned(self, norm, shape, pin):
        r = rng(40)
        x = Tensor(r.normal(size=shape) * 2 + 0.5, requires_grad=True)
        c = shape[1] if norm in ("layernorm-channel-leaky", "groupnorm") else shape[-1]
        g = Tensor(r.normal(size=c), requires_grad=True)
        b = Tensor(r.normal(size=c), requires_grad=True)
        with Tape() as tape:
            if norm == "groupnorm":
                y = nd.groupnorm(x, 4, g, b)
            elif norm == "layernorm-channel-leaky":
                y = nd.layernorm(x, g, b, axis=1, leaky=True)
            else:
                y = nd.layernorm(x, g, b)
            tape.backward(nd.mean(nd.mul(y, Tensor(rng(41).normal(size=shape)))))
        assert sha256_of(y.data, x.grad, g.grad, b.grad) == pin

    def test_groupnorm_tape_keeps_no_normalised_input(self):
        # after a taped forward at [14, 16, 64, 64] only the output (3.7 MB) and the
        # per-group mean and std live on; x-hat beside the output was another 3.7 MB
        r = rng(45)
        x = Tensor(r.normal(size=(14, 16, 64, 64)), requires_grad=True)
        g, b = Tensor(r.normal(size=16), requires_grad=True), Tensor(r.normal(size=16))
        with Tape():
            tracemalloc.start()
            try:
                y = nd.groupnorm(x, 4, g, b)
                held = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
        assert held <= y.data.nbytes + (64 << 10)


def taped_leaky_relu(a):
    """The masked-select leaky ReLU as one taped op, for the composites above."""
    return nd._make(where_leaky_relu(a.data), (a,),
                    lambda g: (g * where_leaky_slope(a.data),))


def taped_sqrt(a):
    """Elementwise sqrt as one taped op, for the composite below."""
    out = np.sqrt(a.data)
    return nd._make(out, (a,), lambda g: (g / (2.0 * out),))


def composite_normalize(x, axis):
    """(x - mean) / sqrt(var + eps) over ``axis``, one taped op per step."""
    kept = tuple(1 if i == axis % x.ndim else n for i, n in enumerate(x.shape))
    xc = nd.sub(x, nd.reshape(nd.mean(x, axis=axis), kept))
    var = nd.reshape(nd.mean(nd.square(xc), axis=axis), kept)
    return nd.div(xc, taped_sqrt(nd.add(var, nd.NORM_EPS)))


class TestActivations:
    def test_silu_zero(self):
        assert float(nd.silu(Tensor(0.0)).data) == 0.0

    def test_softplus_zero_is_ln2(self):
        assert float(nd.softplus(Tensor(0.0)).data) == pytest.approx(math.log(2), abs=1e-6)

    def test_leaky_relu_negative(self):
        assert nd._np_leaky(np.array([-1.0], dtype=np.float32))[0] == pytest.approx(-0.01)

    def test_branch_free_forms_equal_masked_selects(self):
        # nd's sigmoid, leaky ReLU and leaky slope give the bits of the
        # np.where forms they replaced, on every kind of float32 input
        tiny = np.finfo(np.float32).smallest_subnormal
        x = np.array([0.0, -0.0, tiny, -tiny, 1e-40, -1e-40, 0.5, -0.5, 1.0, -1.0,
                      20.0, -20.0, 88.0, -88.0, 104.0, -104.0, 3e38, -3e38,
                      np.inf, -np.inf, np.nan, -np.nan], dtype=np.float32)
        x = np.concatenate([x, rng(23).normal(size=64).astype(np.float32) * 10])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pairs = [(nd._np_sigmoid(x), where_sigmoid(x)),
                     (nd._np_leaky(x.copy()), where_leaky_relu(x)),
                     (nd._np_leaky_slope(nd._np_leaky(x.copy())), where_leaky_slope(x))]
        for got, expect in pairs:
            assert got.dtype == expect.dtype == np.float32
            assert np.array_equal(got.view(np.uint32), expect.view(np.uint32))

    @pytest.mark.parametrize("size", [1, (1 << 16) - 1, 1 << 16, 2 * (1 << 16) + 3])
    def test_leaky_blocks_equal_one_product(self, size):
        y = rng(size).normal(size=size).astype(np.float32)
        assert nd._np_leaky(y.copy()).tobytes() == np.maximum(y, nd.LEAKY_SLOPE * y).tobytes()

    def test_sigmoid_bitwise_equals_two_branch_formula(self):
        tiny = np.finfo(np.float32).smallest_subnormal
        x = np.array([0.0, -0.0, tiny, -tiny, 3 * tiny, -3 * tiny, 1e-40, -1e-40,
                      0.5, -0.5, 20.0, -20.0, 88.0, -88.0, 104.0, -104.0,
                      3e38, -3e38, np.inf, -np.inf, np.nan, -np.nan], dtype=np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            e = np.exp(-np.abs(x))
            expect = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e)).astype(np.float32)
            got = nd.sigmoid(Tensor(x)).data
        assert got.dtype == np.float32
        assert np.array_equal(got.view(np.uint32), expect.view(np.uint32))

    def test_softplus_strictly_positive(self):
        x = Tensor(np.linspace(-30, 30, 41))
        assert (nd.softplus(x).data > 0).all()

    # the leaky ReLU is only reached through the primitives that end in it
    @pytest.mark.parametrize("op", [nd.silu, nd.sigmoid, nd.softplus,
                                    lambda t: nd.layernorm(t, Tensor(np.ones(8)),
                                                           Tensor(np.zeros(8)), leaky=True)])
    def test_activation_grads(self, op):
        x = Tensor(rng(14).normal(size=8))

        def f(x_):
            return nd.mean(nd.square(op(x_)))

        assert nd.grad_check(f, x, tolerance=1e-3).passed


class TestPoolAndShape:
    def test_gather_identity_and_inverse(self):
        x = Tensor(rng(16).normal(size=(6, 1, 3)))
        ident = nd.gather(x, np.arange(6)[:, None])
        np.testing.assert_array_equal(ident.data, x.data)
        perm = np.array([3, 1, 4, 0, 5, 2])
        inv = np.argsort(perm)
        round_trip = nd.gather(nd.gather(x, perm[:, None]), inv[:, None])
        np.testing.assert_array_equal(round_trip.data, x.data)

    def test_gather_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            nd.gather(Tensor(np.zeros((3, 1))), np.array([0, 0, 2])[:, None])

    @pytest.mark.parametrize("perm", [[[0], [-1], [2]], [[0], [3], [2]],
                                      [[0, 2], [1, -3], [2, 1]],
                                      [[0, 2], [1, 3], [2, 1]], [[0, 1], [1, 1], [2, 0]],
                                      [0, 1, 2]],
                             ids=["negative", "past-end", "negative-column", "past-end-column",
                                  "repeat-in-column", "one-dimensional"])
    def test_gather_rejects_bad_entries(self, perm):
        # a scatter into the inverse would wrap a negative entry or raise IndexError;
        # a permutation is a route table of one column, never a flat vector
        with pytest.raises(ValueError, match="bijective permutation"):
            nd.gather(Tensor(np.zeros((3, 1))), np.array(perm))

    def test_gather_grad_is_scatter(self):
        x = Tensor(rng(17).normal(size=(5, 1, 2)))
        perm = np.array([4, 2, 0, 1, 3])
        t = rng(18).normal(size=(5, 1, 2)).astype(np.float32)

        def f(x_):
            return nd.mean(nd.mul(nd.gather(x_, perm[:, None]), Tensor(t)))

        assert nd.grad_check(f, x, tolerance=1e-3).passed

    def test_pad2d_values(self):
        x = Tensor(np.arange(4, dtype=np.float32).reshape(1, 1, 2, 2))
        rep = nd.pad2d(x, (0, 1, 0, 1))
        np.testing.assert_array_equal(rep.data[0, 0],
                                      [[0, 1, 1], [2, 3, 3], [2, 3, 3]])

    def test_pad_crop_round_trip(self):
        x = Tensor(rng(40).normal(size=(2, 1, 3, 5)))
        back = nd.index(nd.pad2d(x, (0, 1, 0, 1)), np.s_[..., :3, :5])
        np.testing.assert_array_equal(back.data, x.data)

    @pytest.mark.parametrize("pads", [(1, 1, 2, 1)], ids=["replicate"])
    def test_pad2d_grads(self, pads):
        x = Tensor(rng(41).normal(size=(1, 1, 3, 3)))
        t = rng(42).normal(size=(1, 1, 5, 6)).astype(np.float32)

        def f(x_):
            return nd.mean(nd.mul(nd.pad2d(x_, pads), Tensor(t)))

        assert nd.grad_check(f, x, tolerance=1e-3).passed

    def test_concat_chunk_identity(self):
        x = Tensor(rng(19).normal(size=(6, 4)))
        parts = nd.chunk(x, 3, axis=0)
        back = nd.concat(parts, axis=0)
        np.testing.assert_array_equal(back.data, x.data)

    def test_chunk_indivisible(self):
        with pytest.raises(ValueError):
            nd.chunk(Tensor(np.zeros((5, 2))), 2, axis=0)


class TestTape:
    def test_squared_norm_gradient(self):
        x = Tensor(rng(21).normal(size=5), requires_grad=True)
        with Tape() as tape:
            out = nd.mean(nd.square(x))
            tape.backward(out)
        np.testing.assert_allclose(x.grad, 2 * x.data / 5, rtol=1e-5)

    def test_fanout_accumulates_additively(self):
        # y = mean(x*a) + mean(x*b) over 4 elements: dx must be (a + b) / 4 exactly
        x = Tensor(np.array([1.0, 2.0, 3.0, 4.0]), requires_grad=True)
        a = np.array([1.0, 10.0, 100.0, 1000.0], dtype=np.float32)
        b = np.array([5.0, 6.0, 7.0, 8.0], dtype=np.float32)
        with Tape() as tape:
            y = nd.add(nd.mean(nd.mul(x, Tensor(a))), nd.mean(nd.mul(x, Tensor(b))))
            tape.backward(y)
        np.testing.assert_array_equal(x.grad, (a + b) / 4)

    def test_shared_first_gradient_is_never_written(self):
        # add(a, b) hands one gradient array to both inputs, then mul(a, 2)
        # hands a another: the sum is a new array, so b's gradient stays 0.25
        a = Tensor(np.ones(4), requires_grad=True)
        b = Tensor(np.ones(4), requires_grad=True)
        with Tape() as tape:
            y = nd.mul(a, 2.0)
            tape.backward(nd.mean(nd.add(y, nd.add(a, b))))
        assert not np.shares_memory(a.grad, b.grad)
        np.testing.assert_array_equal(a.grad, 0.75)
        np.testing.assert_array_equal(b.grad, 0.25)

    def test_no_tape_means_no_tracking(self):
        x = Tensor(np.ones(3), requires_grad=True)
        out = nd.mean(nd.square(x))
        assert not out.requires_grad

    def test_tape_replays_once(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            out = nd.mean(nd.square(x))
            tape.backward(out)
            with pytest.raises(RuntimeError, match="replays once"):
                tape.backward(out)
        np.testing.assert_allclose(x.grad, 2 / 3, rtol=1e-6)  # seeded and replayed once

    def test_replay_frees_rules_and_op_gradients(self):
        # leaves keep their gradients; every op output, on the loss path
        # (y, z, out) or off it (w), holds none, and no rule is left
        x = Tensor(np.arange(4.0), requires_grad=True)
        c = Tensor(np.full(4, 2.0))
        with Tape() as tape:
            y = nd.mul(x, c)
            z = nd.add(y, y)
            w = nd.exp(x)
            out = nd.mean(z)
            tape.backward(out)
        assert tape._records == []
        assert all(t.grad is None and t._holder.grad is None for t in (y, z, w, out))
        np.testing.assert_array_equal(x.grad, 1.0)
        assert c.grad is None

    def test_an_output_no_rule_reads_is_freed_before_replay(self):
        # add's and reshape's rules read no array, and mean's keeps the shape
        # only: once the caller drops the sum, no record holds its array
        a = Tensor(rng(22).normal(size=(4, 6)), requires_grad=True)
        b = Tensor(rng(23).normal(size=(4, 6)), requires_grad=True)
        with Tape() as tape:
            total = nd.add(a, b)
            kept = weakref.ref(total.data)
            out = nd.mean(nd.reshape(total, (24,)))
            del total
            assert kept() is None
            tape.backward(out)
        np.testing.assert_array_equal(a.grad, np.float32(1 / 24))
        np.testing.assert_array_equal(b.grad, np.float32(1 / 24))

    def test_nested_tape_rejected(self):
        with Tape():
            with pytest.raises(RuntimeError):
                with Tape():
                    pass
            # outer tape restored by failed inner enter
        assert nd._TAPE is None


def scan_inputs(r, L, R, D, S):
    """x, dt > 0, A < 0, B, C for nd.ssm_recurrence."""
    return (r.normal(size=(L, R, D)).astype(np.float32),
            r.uniform(0.1, 1.0, size=(L, R)).astype(np.float32),
            -np.exp(r.uniform(-1.0, 1.0, size=(D, S))).astype(np.float32),
            r.normal(size=(L, R, S)).astype(np.float32),
            r.normal(size=(L, R, S)).astype(np.float32))


class TestSsmRecurrencePrimitive:
    def test_matches_naive_loop(self):
        L, R, D, S = 12, 2, 3, 4
        x, dt, a, b, c = scan_inputs(rng(22), L, R, D, S)
        y = nd.ssm_recurrence(*map(Tensor, (x, dt, a, b, c)))
        h = np.zeros((R, D, S), dtype=np.float32)
        expect = np.zeros((L, R, D), dtype=np.float32)
        for l in range(L):
            abar = np.exp(dt[l][:, None, None] * a)
            h = abar * h + (dt[l][:, None] * b[l])[:, None, :] * x[l][:, :, None]
            expect[l] = (h * c[l][:, None, :]).sum(axis=-1)
        np.testing.assert_allclose(y.data, expect, atol=1e-5)

    def test_grads(self):
        L, R, D, S = 5, 2, 2, 3
        inputs = [Tensor(v) for v in scan_inputs(rng(23), L, R, D, S)]
        t = rng(24).normal(size=(L, R, D)).astype(np.float32)

        def f(*args):
            return nd.mean(nd.mul(nd.ssm_recurrence(*args), Tensor(t)))

        assert nd.grad_check(f, inputs, tolerance=1e-3).passed

    @pytest.mark.parametrize("routes", [2, 4])
    def test_route_batch_equals_separate_calls(self, routes):
        x, dt, a, b, c = scan_inputs(rng(26), 70, routes, 5, 4)
        batched = nd.ssm_recurrence(*map(Tensor, (x, dt, a, b, c))).data
        for k in range(routes):
            one = np.s_[:, k:k + 1]
            single = nd.ssm_recurrence(Tensor(x[one]), Tensor(dt[one]), Tensor(a),
                                       Tensor(b[one]), Tensor(c[one])).data
            np.testing.assert_allclose(batched[one], single, atol=1e-6)

    @staticmethod
    def doubling_scan(L, R, D, kicks):
        """abar = exp(1 * ln 2) = 2 everywhere; x = 1e38 at each (step, route, channel) in kicks."""
        x = np.zeros((L, R, D), dtype=np.float32)
        for kick in kicks:
            x[kick] = 1e38
        return (Tensor(x), Tensor(np.ones((L, R))), Tensor(np.full((D, 1), math.log(2.0))),
                Tensor(np.ones((L, R, 1))), Tensor(np.ones((L, R, 1))))

    def test_nonfinite_state_diagnostic(self):
        # state doubles from 1e38: finite at steps 0-1, overflows at step 2
        args = self.doubling_scan(4, 1, 1, [(0, 0, 0)])
        with np.errstate(over="ignore"), pytest.raises(nd.NumericalError, match="step 2"):
            nd.ssm_recurrence(*args)

    def test_nonfinite_step_named_past_first_chunk(self):
        # one element of route 1 is kicked at step CHUNK + 3 and overflows two steps later
        k0 = nd.SCAN_CHUNK + 3
        args = self.doubling_scan(2 * nd.SCAN_CHUNK, 2, 3, [(k0, 1, 2)])
        with np.errstate(over="ignore"), \
                pytest.raises(nd.NumericalError, match=f"step {k0 + 2}$") as err:
            nd.ssm_recurrence(*args)
        assert err.value.column == 1

    @pytest.mark.parametrize("L, R", [(224, 8), (3584, 2), (100, 3), (64, 1), (65, 2), (1, 1)])
    def test_chunk_checkpoints_equal_full_history_bitwise(self, L, R):
        # the train-s16 and forecast-s64 scans, ragged and one-chunk lengths, one step
        vals = scan_inputs(rng(L + R), L, R, 64, 8)
        t = rng(L * R).normal(size=(L, R, 64)).astype(np.float32)
        inputs = [Tensor(v, requires_grad=True) for v in vals]
        with Tape() as tape:
            y = nd.ssm_recurrence(*inputs)
            tape.backward(nd.mean(nd.mul(y, Tensor(t))))
        g = (np.ones((L, R, 64), dtype=np.float32) / (L * R * 64)).astype(np.float32) * t
        want_y, want_grads = full_history_ssm_recurrence(*vals, g)
        assert y.data.tobytes() == want_y.tobytes()
        for got, want in zip(inputs, want_grads):
            assert got.grad.tobytes() == want.astype(np.float32).tobytes()

    def test_forward_only_keeps_no_state_history(self):
        L, R, D, S = 3584, 2, 64, 8
        inputs = [Tensor(v) for v in scan_inputs(rng(27), L, R, D, S)]
        tracemalloc.start()
        try:
            nd.ssm_recurrence(*inputs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < L * R * D * S * 4  # one float32 [L, R, D, S] array, 14.7 MB


# each multi-input op: (inputs made from a generator, the op on Tensors);
# the arithmetic cases broadcast their second input
MULTI_INPUT_OPS = {
    "add": (lambda r: (r.normal(size=(3, 4)), r.normal(size=(1, 4))), nd.add),
    "sub": (lambda r: (r.normal(size=(3, 4)), r.normal(size=4)), nd.sub),
    "mul": (lambda r: (r.normal(size=(3, 4)), r.normal(size=(3, 1))), nd.mul),
    "div": (lambda r: (r.normal(size=(3, 4)), r.uniform(1.0, 2.0, size=4)), nd.div),
    "matmul": (lambda r: (r.normal(size=(2, 3, 4)), r.normal(size=(4, 2))), nd.matmul),
    "concat": (lambda r: (r.normal(size=(2, 3)), r.normal(size=(2, 2)), r.normal(size=(2, 1))),
               lambda *ts: nd.concat(ts, axis=1)),
    "conv2d": (lambda r: (r.normal(size=(2, 2, 5, 5)), 0.5 * r.normal(size=(3, 2, 3, 3)),
                          r.normal(size=3)),
               lambda x, k, b: nd.conv2d(x, k, b, stride=2, padding=1)),
    "conv_transpose2d": (lambda r: (r.normal(size=(2, 3, 3, 3)),
                                    0.5 * r.normal(size=(3, 2, 4, 4)), r.normal(size=2)),
                         lambda y, k, b: nd.conv_transpose2d(y, k, b, stride=2, padding=1)),
    "depthwise_conv2d": (lambda r: (r.normal(size=(2, 2, 4, 4)), 0.5 * r.normal(size=(2, 3, 3)),
                                    r.normal(size=2)), nd.depthwise_conv2d),
    "conv1d_depthwise": (lambda r: (r.normal(size=(6, 2, 3)), r.normal(size=(3, 3)),
                                    r.normal(size=3)), nd.conv1d_depthwise),
    "group_conv1d": (lambda r: (r.normal(size=(2, 6)), r.normal(size=(2, 3, 3)),
                                r.normal(size=6)), nd.group_conv1d),
    "layernorm": (lambda r: (r.normal(size=(3, 4)) * 2 + 0.5, r.normal(size=4), r.normal(size=4)),
                  nd.layernorm),
    "groupnorm": (lambda r: (r.normal(size=(2, 4, 3, 3)), r.normal(size=4), r.normal(size=4)),
                  lambda x, g, b: nd.groupnorm(x, 2, g, b)),
    "ssm_recurrence": (lambda r: scan_inputs(r, 5, 2, 2, 3), nd.ssm_recurrence),
}


class TestGradientHandOff:
    @pytest.mark.parametrize("name", list(MULTI_INPUT_OPS))
    def test_constant_input_gets_no_gradient_and_changes_no_other(self, name):
        make, op = MULTI_INPUT_OPS[name]
        values = [np.asarray(v, dtype=np.float32) for v in make(rng(31))]
        t = Tensor(rng(32).normal(size=op(*map(Tensor, values)).shape))

        def f(*xs):
            return nd.mean(nd.mul(op(*xs), t))

        xs = [Tensor(v) for v in values]
        report = nd.grad_check(f, xs)
        assert report.passed, report
        full = [x.grad for x in xs]
        # every backward computes all its entries; nd._make drops the constant's alone
        for const in range(len(values)):
            xs = [Tensor(v, requires_grad=i != const) for i, v in enumerate(values)]
            with Tape() as tape:
                tape.backward(f(*xs))
            assert xs[const].grad is None
            for i, x in enumerate(xs):
                if i != const:
                    np.testing.assert_array_equal(x.grad, full[i])

    @pytest.mark.parametrize("size, overrides", [
        (16, {}),
        (16, {"head": "gaussian", "fusion": "sum", "n_routes": 1}),
        (16, {"fusion": "cagate", "n_routes": 4}),
        (16, {"out_len": 7}),
        (16, {"lambda_grad": 0.0}),
        (20, {}),                     # an odd latent side: freq_branch pads
    ])
    def test_no_rule_writes_into_a_gradient(self, monkeypatch, size, overrides):
        # gradients are handed over by reference, so every rule of a training
        # step must run on a read-only view of its output's gradient; leaves and
        # op outputs' holders all accumulate through _Holder._accum
        make, accum = nd._make, nd._Holder._accum
        delivered, shapes = [], {}

        def read_only(g):
            if isinstance(g, np.ndarray):  # a product of two 0-d arrays is a numpy scalar
                g = g.view()
                g.flags.writeable = False
            return g

        def make_checked(out_data, inputs, backward):
            out = make(out_data, inputs, lambda g: backward(read_only(g)))
            if out._holder is not None:
                shapes[out._holder] = out.data.shape
            return out

        def accum_checked(holder, g):
            shape = holder.data.shape if isinstance(holder, Tensor) else shapes[holder]
            delivered.append((np.shape(g) == shape, g.dtype == np.float32))
            accum(holder, g)

        monkeypatch.setattr(nd, "_make", make_checked)
        monkeypatch.setattr(nd._Holder, "_accum", accum_checked)
        config = model.ModelConfig(hidden=8, n_fssm=2, **overrides)
        wins = data.windows(data.synth_generate(0, 30, size, size), 14, config.out_len)
        res = model.train(wins[:2], wins[-1:], config, max_epochs=1, max_steps=1)
        assert all(p.grad is not None for p in res.params.values())
        assert len(delivered) > len(res.params)
        assert all(shape and dtype for shape, dtype in delivered)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        r = rng(25)
        params = {
            "enc.w": Tensor(r.normal(size=(4, 2, 3, 3))),
            "enc.b": Tensor(r.normal(size=4)),
            "scalar": Tensor(np.float32(1.25)),
        }
        path = tmp_path / "ckpt.bin"
        data.save_params(path, params)
        back = data.load_params(path)
        assert list(back) == list(params)
        for k in params:
            np.testing.assert_array_equal(back[k].data, params[k].data)
            assert back[k].data.dtype == np.float32

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        data.save_params(path, {"w": Tensor(np.ones((3, 3)))})
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])
        with pytest.raises(data.FormatError, match="truncated checkpoint"):
            data.load_params(path)

    def test_written_bytes_pinned(self, tmp_path):
        params = {"enc.w": Tensor(np.arange(24, dtype=np.float32).reshape(2, 3, 4) / 8),
                  "b": Tensor(np.full(3, -1.5)), "s": Tensor(np.float32(2.0))}
        path = tmp_path / "ckpt.bin"
        data.save_params(path, params)
        blob = path.read_bytes()
        assert len(blob) == 207
        assert hashlib.sha256(blob).hexdigest() == \
            "8fcf5ea7379ec5fcb08ab03abbcd583a486f91ea0c041e057294e192db38a245"

    def test_failed_save_keeps_the_old_checkpoint(self, tmp_path, monkeypatch):
        # the disk fills once the header is written, before the payloads
        path = tmp_path / "ckpt.bin"
        data.save_params(path, {"w": Tensor(rng(26).normal(size=(3, 3)))})
        old = path.read_bytes()

        def disk_full(*args, **kwargs):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(data.np, "ascontiguousarray", disk_full)
        with pytest.raises(OSError) as err:
            data.save_params(path, {"w": Tensor(np.zeros((4, 4))), "b": Tensor(np.ones(4))})
        monkeypatch.undo()
        assert err.value.errno == errno.ENOSPC
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.bin"]
        assert path.read_bytes() == old
        assert list(data.load_params(path)) == ["w"]
