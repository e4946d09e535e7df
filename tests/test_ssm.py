import math

import numpy as np
import pytest

from icessm import nd, sfc, ssm
from icessm.nd import Tensor

from oracles import naive_selective_scan


def rng(seed=0):
    return np.random.default_rng(seed)


class TestSelectiveScan:
    def test_single_step_no_history(self):
        r = rng(1)
        p = nd.make_params(r, ssm.ssm_layout(3, 4))
        x = r.normal(size=(1, 3)).astype(np.float32)
        y = ssm.selective_scan(Tensor(x), p)
        # h_0 = 0, so y_1 = <C_1, dt*B_1*x_1> + d_skip*x_1 per channel
        raw = float(x[0] @ p["w_delta"].data[:, 0] + p["b_delta"].data[0])
        dt = math.log1p(math.exp(raw))
        b1 = x[0] @ p["w_b"].data
        c1 = x[0] @ p["w_c"].data
        expect = np.zeros(3, dtype=np.float64)
        for d in range(3):
            expect[d] = float(c1 @ (dt * b1 * x[0, d])) + p["d_skip"].data[d] * x[0, d]
        np.testing.assert_allclose(y.data[0], expect, atol=1e-5)

    def test_zero_input_zero_output(self):
        p = nd.make_params(rng(2), ssm.ssm_layout(4, 8))
        y = ssm.selective_scan(Tensor(np.zeros((6, 4))), p)
        np.testing.assert_array_equal(y.data, 0.0)

    def test_matches_naive_recurrence(self):
        r = rng(3)
        for case in range(12):
            length = int(r.integers(1, 65))
            d = int(r.integers(1, 9))
            s = int(r.integers(1, 9))
            p = nd.make_params(r, ssm.ssm_layout(d, s))
            x = r.normal(size=(length, d)).astype(np.float32)
            got = ssm.selective_scan(Tensor(x), p).data
            want = naive_selective_scan(x, p)
            assert np.abs(got - want).max() < 1e-5, f"case {case}"

    def test_reversal_identity_exact(self):
        r = rng(4)
        p = nd.make_params(r, ssm.ssm_layout(3, 8))
        x = r.normal(size=(10, 3)).astype(np.float32)
        lhs = ssm.selective_scan(Tensor(x[::-1].copy()), p).data
        rhs = ssm.scan_routes(Tensor(x), np.arange(10)[::-1, None], p).data[::-1, 0]
        np.testing.assert_array_equal(lhs, rhs)

    def test_stability_long_bounded_input(self):
        r = rng(5)
        p = nd.make_params(r, ssm.ssm_layout(2, 4))
        x = r.uniform(-1, 1, size=(10_000, 2)).astype(np.float32)
        y = ssm.selective_scan(Tensor(x), p)
        assert np.isfinite(y.data).all()

    @pytest.mark.parametrize("routes", [2, 4])
    def test_route_batch_equals_separate_scans(self, routes):
        r = rng(15)
        p = nd.make_params(r, ssm.ssm_layout(5, 4))
        x = r.normal(size=(30, routes, 5)).astype(np.float32)
        forward = np.arange(30)[:, None]
        for column in (forward, forward[::-1]):
            batched = ssm.scan_routes(Tensor(x), column, p).data[:, 0]
            for k in range(routes):
                single = ssm.scan_routes(Tensor(x[:, k]), column, p).data[:, 0]
                np.testing.assert_allclose(batched[:, k], single, atol=1e-6)

    def test_param_gradients_match_finite_differences(self):
        r = rng(16)
        p = nd.make_params(r, ssm.ssm_layout(3, 2))
        x = Tensor(r.normal(size=(6, 2, 3)))
        t = r.normal(size=(6, 2, 3)).astype(np.float32)
        names = ["a_log", "d_skip", "w_delta", "b_delta", "w_b", "w_c"]

        def f(*tensors):
            scan = ssm.selective_scan(x, dict(zip(names, tensors)))
            return nd.mean(nd.mul(scan, Tensor(t)))

        assert nd.grad_check(f, [p[n] for n in names], tolerance=1e-3).passed


class TestHilbertSsm:
    def test_raster_route_equals_plain_scan(self):
        r = rng(7)
        p = nd.make_params(r, ssm.ssm_layout(3, 8))
        v = r.normal(size=(2, 3, 4, 4)).astype(np.float32)
        out = ssm.scan_routes(ssm.volume_to_seq(Tensor(v)), sfc.raster((2, 4, 4))[:, None], p)
        flat = np.moveaxis(v, 1, -1).reshape(32, 3)
        plain = ssm.selective_scan(Tensor(flat), p).data
        assert out.shape == (32, 1, 3)
        np.testing.assert_allclose(out.data[:, 0], plain, atol=1e-6)

    def test_two_routes_zero_input(self):
        p = nd.make_params(rng(8), ssm.ssm_layout(2, 8))
        table = sfc.routes("hilbert_temporal_first", (2, 2, 2), 2)
        out = ssm.scan_routes(Tensor(np.zeros((8, 2))), table, p)
        assert out.shape == (8, 2, 2)
        np.testing.assert_array_equal(out.data, 0.0)

    def test_permutation_equivariance(self):
        # scanning the volume with order F == scanning the F-permuted sequence
        # directly, then unpermuting
        r = rng(9)
        p = nd.make_params(r, ssm.ssm_layout(2, 8))
        v = r.normal(size=(2, 2, 3, 4)).astype(np.float32)
        order = sfc.gilbert3d((2, 3, 4))
        out = ssm.scan_routes(ssm.volume_to_seq(Tensor(v)), order[:, None], p)
        flat = np.moveaxis(v, 1, -1).reshape(24, 2)
        manual = ssm.selective_scan(Tensor(flat[order]), p).data
        # voxel i's scanned value sits at its rank, the inverse permutation's entry i
        restored = manual[np.argsort(order)]
        np.testing.assert_allclose(out.data[:, 0], restored, atol=1e-6)

    def test_four_routes_equal_separate_routes(self):
        r = rng(17)
        p = nd.make_params(r, ssm.ssm_layout(3, 8))
        v = r.normal(size=(2, 3, 4, 4)).astype(np.float32)
        table = sfc.routes("hilbert_temporal_first", (2, 4, 4), 4)
        seq = ssm.volume_to_seq(Tensor(v))
        out = ssm.scan_routes(seq, table, p)
        for k in range(4):
            single = ssm.scan_routes(seq, table[:, k:k + 1], p)
            np.testing.assert_allclose(out.data[:, k], single.data[:, 0], atol=1e-6)

    def test_dim_mismatch(self):
        p = nd.make_params(rng(10), ssm.ssm_layout(1, 8))
        with pytest.raises(ValueError):
            ssm.scan_routes(Tensor(np.zeros((18, 1))), sfc.raster((2, 3, 4))[:, None], p)


class TestMambaBlock:
    def test_zero_input_zero_biases_zero_output(self):
        r = rng(11)
        p = nd.make_params(r, ssm.mamba_layout(4, 8))
        table = sfc.routes("hilbert_temporal_first", (2, 2, 2), 2)
        out = ssm.mamba_block(Tensor(np.zeros((8, 4))), table, p)
        assert out.shape == (8, 2, 4)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-7)

    def test_forced_unit_gate_reduces_to_linear_out(self):
        r = rng(12)
        p = nd.make_params(r, ssm.mamba_layout(3, 8))
        # force the gate path to exactly 1: silu(b) == 1 at b ~= 1.27846454
        p["w_gate"].data[:] = 0.0
        p["b_gate"].data[:] = 1.2784645
        table = sfc.raster((2, 2, 2))[:, None]
        x = r.normal(size=(8, 3)).astype(np.float32)
        out = ssm.mamba_block(Tensor(x), table, p)
        xn = nd.layernorm(Tensor(x), p["ln_gamma"], p["ln_beta"])
        inner = nd.silu(nd.conv1d_depthwise(nd.linear(xn, p["w_in"], p["b_in"]),
                                            p["conv_k"], p["conv_b"]))
        scanned = ssm.scan_routes(inner, table, nd.sub_params(p, "ssm"))
        expect = nd.linear(scanned, p["w_out"], p["b_out"])
        np.testing.assert_allclose(out.data, expect.data, atol=1e-5)

    def test_block_gradients_match_finite_differences(self):
        r = rng(13)
        p = nd.make_params(r, ssm.mamba_layout(2, 3))
        table = sfc.routes("hilbert_temporal_first", (2, 2, 2), 2)
        x = Tensor(r.normal(size=(8, 2)))
        t = r.normal(size=(8, 2)).astype(np.float32)

        def f(x_):
            return nd.mean(nd.mul(ssm.mamba_block(x_, table, p), Tensor(t[:, None])))

        assert nd.grad_check(f, x, tolerance=1e-3).passed

    def test_param_gradients_flow(self):
        r = rng(14)
        p = nd.make_params(r, ssm.mamba_layout(2, 2))
        table = sfc.gilbert3d((1, 2, 2))[:, None]
        x = Tensor(r.normal(size=(4, 2)))
        with nd.Tape() as tape:
            tape.backward(nd.mean(nd.square(ssm.mamba_block(x, table, p))))
        for name, tensor in p.items():
            assert tensor.grad is not None, name
            assert np.isfinite(tensor.grad).all(), name
