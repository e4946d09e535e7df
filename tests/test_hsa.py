import numpy as np
import pytest

from icessm import hsa, nd
from icessm.nd import Tensor


def rng(seed=0):
    return np.random.default_rng(seed)


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


class TestShuffle:
    def test_layout_for_d2(self):
        # [x1_1, x1_2, x2_1, x2_2, xf_1, xf_2] -> [x1_1,x2_1,xf_1, x1_2,x2_2,xf_2]
        v = Tensor(np.array([11.0, 12.0, 21.0, 22.0, 31.0, 32.0]))
        assert hsa.shuffle(v).data.tolist() == [11.0, 21.0, 31.0, 12.0, 22.0, 32.0]

    def test_unshuffle_inverts_shuffle(self):
        v = Tensor(rng(1).normal(size=12))
        np.testing.assert_array_equal(hsa.unshuffle(hsa.shuffle(v)).data, v.data)
        np.testing.assert_array_equal(hsa.shuffle(hsa.unshuffle(v)).data, v.data)

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            hsa.shuffle(Tensor(np.zeros(7)))


class TestHsaFuse:
    def test_forced_zero_logits_average_fusion(self):
        r = rng(2)
        d = 4
        p = {"weights": nd.param(np.zeros((d, 3, 3), dtype=np.float32)),
             "bias": nd.param(np.zeros(3 * d, dtype=np.float32))}
        x1 = Tensor(r.normal(size=(2, d, 4, 4)))
        x2 = Tensor(r.normal(size=(2, d, 4, 4)))
        xf = Tensor(r.normal(size=(2, d, 4, 4)))
        y = hsa.hsa_fuse(x1, x2, xf, p)
        expect = (x1.data + x2.data + xf.data) / 2.0
        assert np.abs(y.data - expect).max() < 1e-6

    def test_weights_in_unit_interval(self):
        r = rng(3)
        d = 5
        p = nd.make_params(r, hsa.hsa_layout(d))
        xs = [Tensor(r.normal(size=(3, d, 4, 4)) * 5) for _ in range(3)]
        a1, a2, af = hsa.hsa_weights(*xs, p)
        for a in (a1, a2, af):
            assert ((a.data > 0) & (a.data < 1)).all()

    def test_weight_roundtrip_restores_channel_order(self):
        # the weight vector produced by unshuffle must line up channel-wise:
        # for constant inputs the closed form per channel is exact
        r = rng(4)
        d = 3
        p = nd.make_params(r, hsa.hsa_layout(d))
        c1 = r.normal(size=d).astype(np.float32)
        c2 = r.normal(size=d).astype(np.float32)
        cf = r.normal(size=d).astype(np.float32)
        x1 = Tensor(np.broadcast_to(c1[None, :, None, None], (2, d, 4, 4)).copy())
        x2 = Tensor(np.broadcast_to(c2[None, :, None, None], (2, d, 4, 4)).copy())
        xf = Tensor(np.broadcast_to(cf[None, :, None, None], (2, d, 4, 4)).copy())
        y = hsa.hsa_fuse(x1, x2, xf, p)
        a1, a2, af = hsa.hsa_weights(x1, x2, xf, p)
        for ch in range(d):
            triple = np.array([c1[ch], c2[ch], cf[ch]])
            logits = p["weights"].data[ch] @ triple + p["bias"].data[3 * ch: 3 * ch + 3]
            w1, w2, wf = sigmoid(logits)
            assert a1.data[ch] == pytest.approx(w1, abs=1e-5)
            assert a2.data[ch] == pytest.approx(w2, abs=1e-5)
            assert af.data[ch] == pytest.approx(wf, abs=1e-5)
            expect = w1 * c1[ch] + w2 * c2[ch] + wf * cf[ch]
            np.testing.assert_allclose(y.data[:, ch], expect, atol=1e-5)

    def test_shape_mismatch(self):
        a = Tensor(np.zeros((2, 3, 4, 4)))
        b = Tensor(np.zeros((2, 3, 4, 5)))
        with pytest.raises(ValueError):
            hsa.hsa_fuse(a, b, a, nd.make_params(rng(5), hsa.hsa_layout(3)))

    def test_gradients_match_finite_differences(self):
        r = rng(6)
        d = 2
        p = nd.make_params(r, hsa.hsa_layout(d))
        xs = [Tensor(r.normal(size=(1, d, 2, 2))) for _ in range(3)]
        t = r.normal(size=(1, d, 2, 2)).astype(np.float32)

        def f(x1_, x2_, xf_):
            return nd.mean(nd.mul(hsa.hsa_fuse(x1_, x2_, xf_, p), Tensor(t)))

        assert nd.grad_check(f, xs, tolerance=1e-3).passed

    def test_param_gradients_match_finite_differences(self):
        r = rng(7)
        d = 2
        p = nd.make_params(r, hsa.hsa_layout(d))
        xs = [Tensor(r.normal(size=(1, d, 2, 2))) for _ in range(3)]
        t = r.normal(size=(1, d, 2, 2)).astype(np.float32)

        def f(w_, b_):
            pp = {"weights": w_, "bias": b_}
            return nd.mean(nd.mul(hsa.hsa_fuse(*xs, pp), Tensor(t)))

        assert nd.grad_check(f, [p["weights"], p["bias"]], tolerance=1e-3).passed


class TestBaselineFusers:
    def test_sum_of_zeros(self):
        z = Tensor(np.zeros((1, 2, 2, 2)))
        np.testing.assert_array_equal(hsa.sum_fuse(z, z, z).data, 0.0)

    def test_sum_identity_on_single_input(self):
        x = Tensor(rng(8).normal(size=(1, 2, 2, 2)))
        z = Tensor(np.zeros((1, 2, 2, 2)))
        np.testing.assert_array_equal(hsa.sum_fuse(x, z, z).data, x.data)

    def test_ca_gate_with_unit_gates_equals_sum(self):
        r = rng(9)
        d = 3
        p = nd.make_params(r, hsa.ca_gate_layout(d))
        for i in range(3):
            p[f"w{i}"].data[:] = 0.0
            p[f"b{i}"].data[:] = 40.0  # sigmoid(40) == 1 in float32
        xs = [Tensor(r.normal(size=(2, d, 4, 4))) for _ in range(3)]
        got = hsa.ca_gate_fuse(*xs, p)
        want = hsa.sum_fuse(*xs)
        np.testing.assert_allclose(got.data, want.data, atol=1e-6)
