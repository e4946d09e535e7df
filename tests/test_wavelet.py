import numpy as np
import pytest

from icessm import nd, wavelet
from icessm.nd import Tensor


def rng(seed=0):
    return np.random.default_rng(seed)


BANDS = ("ll", "lh", "hl", "hh")     # band k of dwt2 is coeffs[..., k]


class TestDwt2:
    def test_constant_image(self):
        c = 0.6
        coeffs = wavelet.dwt2(Tensor(np.full((4, 4), c))).data
        assert coeffs.shape == (2, 2, 4)
        np.testing.assert_allclose(coeffs[..., 0], 2 * c, atol=1e-6)
        np.testing.assert_allclose(coeffs[..., 1:], 0.0, atol=1e-6)

    def test_2x2_haar_matrix_oracle(self):
        a, b, c, d = 1.0, 2.0, -3.0, 5.0
        ll, lh, hl, hh = wavelet.dwt2(Tensor(np.array([[a, b], [c, d]]))).data[0, 0]
        assert ll == pytest.approx((a + b + c + d) / 2, abs=1e-6)
        assert lh == pytest.approx((a - b + c - d) / 2, abs=1e-6)
        assert hl == pytest.approx((a + b - c - d) / 2, abs=1e-6)
        assert hh == pytest.approx((a - b - c + d) / 2, abs=1e-6)

    @pytest.mark.parametrize("shape", [(8, 8), (2, 3, 12, 16), (64, 64)])
    def test_round_trip(self, shape):
        x = rng(1).normal(size=shape).astype(np.float32)
        back = wavelet.idwt2(wavelet.dwt2(Tensor(x)))
        assert np.abs(back.data - x).max() < 1e-5

    def test_haar_energy_conservation(self):
        x = rng(2).normal(size=(64, 64)).astype(np.float32)
        coeffs = wavelet.dwt2(Tensor(x)).data
        lhs = float((x ** 2).sum())
        rhs = sum(float((coeffs[..., k] ** 2).sum()) for k in range(4))
        assert abs(lhs - rhs) / lhs < 1e-4

    def test_odd_dims_rejected(self):
        with pytest.raises(ValueError):
            wavelet.dwt2(Tensor(np.zeros((5, 4))))


class TestFreqBranch:
    def test_unit_gains_identity(self):
        x = rng(3).normal(size=(2, 3, 8, 8)).astype(np.float32)
        out = wavelet.freq_branch(Tensor(x), Tensor(np.ones((3, 3))))
        assert np.abs(out.data - x).max() < 1e-5

    def test_zero_gains_block_means(self):
        # killing all detail bands leaves per-2x2-block means
        x = rng(4).normal(size=(1, 1, 8, 8)).astype(np.float32)
        out = wavelet.freq_branch(Tensor(x), Tensor(np.zeros((1, 3))))
        blocks = x.reshape(1, 1, 4, 2, 4, 2).mean(axis=(3, 5))
        expect = np.repeat(np.repeat(blocks, 2, axis=2), 2, axis=3)
        np.testing.assert_allclose(out.data, expect, atol=1e-5)

    @pytest.mark.parametrize("column, band", [(0, "lh"), (1, "hl"), (2, "hh")],
                             ids=["lh", "hl", "hh"])
    def test_detail_gain_scales_its_subband(self, column, band):
        # gains[:, column] scales only `band`, each channel by its own gain
        x = rng(5).normal(size=(1, 2, 8, 8)).astype(np.float32)
        gains = np.ones((2, 3), dtype=np.float32)
        gains[:, column] = (2.0, -0.5)
        out = wavelet.freq_branch(Tensor(x), Tensor(gains))
        c_in = wavelet.dwt2(Tensor(x)).data
        c_out = wavelet.dwt2(out).data
        for k, name in enumerate(BANDS):
            scale = np.array([2.0, -0.5]).reshape(1, 2, 1, 1) if name == band else 1.0
            np.testing.assert_allclose(c_out[..., k], scale * c_in[..., k], atol=1e-5)

    def test_linear_in_input(self):
        r = rng(6)
        x1 = r.normal(size=(1, 2, 8, 8)).astype(np.float32)
        x2 = r.normal(size=(1, 2, 8, 8)).astype(np.float32)
        gains = Tensor(r.uniform(0.5, 2.0, size=(2, 3)))
        f = lambda x: wavelet.freq_branch(Tensor(x), gains).data
        np.testing.assert_allclose(f(x1 + x2), f(x1) + f(x2), atol=1e-4)

    def test_gains_shape_checked(self):
        with pytest.raises(ValueError):
            wavelet.freq_branch(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.ones((3, 3))))

    def test_odd_sizes_padded_and_cropped(self):
        x = rng(8).normal(size=(2, 2, 5, 7)).astype(np.float32)
        out = wavelet.freq_branch(Tensor(x), Tensor(np.ones((2, 3))))
        assert out.shape == (2, 2, 5, 7)
        assert np.abs(out.data - x).max() < 1e-5

    def test_grads_through_branch(self):
        r = rng(7)
        x = nd.Tensor(r.normal(size=(1, 2, 4, 4)))
        gains = nd.Tensor(r.uniform(0.5, 1.5, size=(2, 3)))
        t = r.normal(size=(1, 2, 4, 4)).astype(np.float32)

        def f(x_, g_):
            return nd.mean(nd.mul(wavelet.freq_branch(x_, g_), Tensor(t)))

        assert nd.grad_check(f, [x, gains], tolerance=1e-3).passed
