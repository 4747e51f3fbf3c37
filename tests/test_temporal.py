import numpy as np
import pytest

from rjcma import autodiff as ad
from rjcma import temporal as tp
from rjcma.autodiff import Tensor


def conv_params(rng, channels_in, channels_out, kernel_size=3):
    """Taps (channels_out x channels_in each, the last one the current frame)
    and a zero bias, drawn as `temporal.init_params` draws them."""
    bound = 1.0 / np.sqrt(channels_in * kernel_size)
    taps = [Tensor(rng.uniform(-bound, bound, size=(channels_out, channels_in)),
                   requires_grad=True) for _ in range(kernel_size)]
    return taps, Tensor(np.zeros((channels_out, 1)), requires_grad=True)


def scalar_conv(x, kernel, dilation=1):
    """1-channel conv with explicit tap values (kernel[-1] = current frame)."""
    taps = [Tensor([[value]]) for value in kernel]
    return tp.causal_dilated_conv(x, taps, Tensor([[0.0]]), dilation)


class TestCausalDilatedConv:
    def test_identity_tap(self):
        x = Tensor([[1.0, 2.0, 3.0, 4.0]])
        out = scalar_conv(x, [0.0, 1.0])
        np.testing.assert_array_equal(out.data, x.data)

    def test_delay_tap_shifts_right(self):
        x = Tensor([[1.0, 2.0, 3.0, 4.0]])
        out = scalar_conv(x, [1.0, 0.0])
        np.testing.assert_array_equal(out.data, [[0.0, 1.0, 2.0, 3.0]])

    @pytest.mark.parametrize("kernel, dilation",
                             [(k, d) for k in (2, 3) for d in (1, 2, 4)],
                             ids=[f"k{k}-d{d}" for k in (2, 3) for d in (1, 2, 4)])
    def test_future_perturbation_invisible(self, kernel, dilation):
        rng = np.random.default_rng(1)
        taps, bias = conv_params(rng, 3, 2, kernel)
        x = rng.normal(size=(3, 10))
        base = tp.causal_dilated_conv(Tensor(x), taps, bias, dilation).data
        bumped = x.copy()
        t = 5
        bumped[:, t + 1] += 10.0
        after = tp.causal_dilated_conv(Tensor(bumped), taps, bias, dilation).data
        assert np.array_equal(after[:, :t + 1], base[:, :t + 1])
        assert not np.array_equal(after[:, t + 1], base[:, t + 1])

    def test_gradient_matches_finite_differences(self):
        # channel change, dilation 3, and a tap whose lag (6) exceeds the
        # 5 frames, so its gradient is exactly zero
        rng = np.random.default_rng(8)
        taps, bias = conv_params(rng, 3, 2)
        bias.data[:] = rng.normal(size=(2, 1))
        x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        probe = Tensor(rng.normal(size=(2, 5)))
        params = {"x": x, "bias": bias}
        params.update({f"tap{j}": tap for j, tap in enumerate(taps)})
        report = ad.grad_check(
            lambda: ad.tensor_sum(ad.mul(tp.causal_dilated_conv(x, taps, bias, 3), probe)),
            params, h=1e-5, tol=1e-6)
        assert report.passed, report.errors

    def test_channel_mismatch(self):
        taps, bias = conv_params(np.random.default_rng(0), 3, 2)
        with pytest.raises(ad.DimensionError):
            tp.causal_dilated_conv(Tensor(np.ones((2, 5))), taps, bias, 1)


class TestTcnStack:
    def test_zero_weights_with_residual_is_identity(self):
        params = tp.init_params(3, np.random.default_rng(0))
        for p in params.values():
            p.data[:] = 0.0
        x = Tensor(np.random.default_rng(1).normal(size=(3, 7)))
        out = tp.tcn_forward(x, params, "")
        np.testing.assert_array_equal(out.data, x.data)

    def test_shape_preserved(self):
        params = tp.init_params(5, np.random.default_rng(2))
        x = Tensor(np.random.default_rng(3).normal(size=(5, 23)))
        assert tp.tcn_forward(x, params, "").shape == (5, 23)

    def test_receptive_field_bounds_sensitivity(self):
        # receptive field 7: frame 20 sees frames 14..20, not frame 13
        rng = np.random.default_rng(5)
        params = tp.init_params(2, rng)
        x = rng.normal(size=(2, 30))
        base = tp.tcn_forward(Tensor(x), params, "").data

        far = x.copy()
        far[:, 13] += 5.0
        out_far = tp.tcn_forward(Tensor(far), params, "").data
        assert np.array_equal(out_far[:, 20], base[:, 20])

        near = x.copy()
        near[:, 14] += 5.0
        out_near = tp.tcn_forward(Tensor(near), params, "").data
        assert not np.array_equal(out_near[:, 20], base[:, 20])

    def test_causality_property(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            params = tp.init_params(3, rng)
            x = rng.normal(size=(3, 12))
            t = int(rng.integers(0, 11))
            bumped = x.copy()
            bumped[:, t + 1:] += rng.normal(size=(3, 12 - t - 1))
            a = tp.tcn_forward(Tensor(x), params, "").data
            b = tp.tcn_forward(Tensor(bumped), params, "").data
            assert np.array_equal(a[:, :t + 1], b[:, :t + 1])

    def test_two_block_gradient_check(self):
        rng = np.random.default_rng(7)
        params = tp.init_params(3, rng)
        x = Tensor(rng.normal(size=(3, 9)), requires_grad=True)
        report = ad.grad_check(
            lambda: ad.tensor_sum(ad.mul(tp.tcn_forward(x, params, ""),
                                         tp.tcn_forward(x, params, ""))),
            {"x": x, **params}, h=1e-5, tol=1e-4)
        assert report.passed, report.errors
