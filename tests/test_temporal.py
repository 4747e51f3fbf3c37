import weakref
from contextlib import nullcontext

import numpy as np
import pytest

from rjcma import autodiff as ad
from rjcma import temporal as tp
from rjcma.autodiff import Tensor

from helpers import closure_arrays, dot


def block_params(rng, channels, kernel_size=3):
    """Taps (channels x channels each, the last one the current frame) and a
    zero bias, drawn as `temporal.init_params` draws them."""
    bound = 1.0 / np.sqrt(channels * kernel_size)
    taps = [Tensor(rng.uniform(-bound, bound, size=(channels, channels)))
            for _ in range(kernel_size)]
    return taps, Tensor(np.zeros((channels, 1)))


def scalar_block(x, kernel, dilation=1, bias=0.0):
    """1-channel block with explicit tap values (kernel[-1] = current frame)."""
    taps = [Tensor([[value]]) for value in kernel]
    return tp.tcn_block(x, taps, Tensor([[bias]]), dilation)


def pre_activation(x, taps, bias, dilation):
    """conv + b from explicit shifts: frame t takes taps[j] @ x[..., t - lag_j]
    with lag_j = (len(taps) - 1 - j) * dilation, and nothing before frame 0."""
    out = np.zeros_like(x) + bias
    for j, w in enumerate(taps):
        lag = (len(taps) - 1 - j) * dilation
        for t in range(lag, x.shape[-1]):
            out[..., t] += np.einsum("ij,...j->...i", w, x[..., t - lag])
    return out


KERNELS_AND_DILATIONS = pytest.mark.parametrize(
    "kernel, dilation", [(k, d) for k in (2, 3) for d in (1, 2, 4)],
    ids=[f"k{k}-d{d}" for k in (2, 3) for d in (1, 2, 4)])


class TestCausalDilatedConv:
    """`temporal.tcn_block`: the causal dilated conv with its ReLU and residual."""

    def test_identity_tap(self):
        x = Tensor([[1.0, -2.0, 3.0, -4.0]])
        out = scalar_block(x, [0.0, 1.0])
        np.testing.assert_array_equal(out.data, [[2.0, -2.0, 6.0, -4.0]])

    def test_delay_tap_shifts_right(self):
        x = Tensor([[1.0, -2.0, 3.0, -4.0]])
        out = scalar_block(x, [1.0, 0.0])
        # relu([0, 1, -2, 3]) + x
        np.testing.assert_array_equal(out.data, [[1.0, -1.0, 3.0, -1.0]])

    @KERNELS_AND_DILATIONS
    def test_matches_relu_of_explicit_shifts_plus_x(self, kernel, dilation):
        rng = np.random.default_rng(3)
        taps, bias = block_params(rng, 3, kernel)
        bias.data[:] = rng.normal(size=(3, 1))
        x = rng.normal(size=(2, 3, 11))
        out = tp.tcn_block(Tensor.stack(x), taps, bias, dilation).data
        pre = pre_activation(x, [t.data for t in taps], bias.data, dilation)
        np.testing.assert_allclose(out, np.maximum(pre, 0.0) + x, rtol=1e-13, atol=1e-14)

    @KERNELS_AND_DILATIONS
    def test_future_perturbation_invisible(self, kernel, dilation):
        rng = np.random.default_rng(1)
        taps, bias = block_params(rng, 3, kernel)
        x = rng.normal(size=(3, 10))
        base = tp.tcn_block(Tensor(x), taps, bias, dilation).data
        bumped = x.copy()
        t = 5
        bumped[:, t + 1] += 10.0
        after = tp.tcn_block(Tensor(bumped), taps, bias, dilation).data
        assert np.array_equal(after[:, :t + 1], base[:, :t + 1])
        assert not np.array_equal(after[:, t + 1], base[:, t + 1])

    def test_gradient_matches_finite_differences(self):
        # dilation 3, and a tap whose lag (6) exceeds the 5 frames, so its
        # gradient is exactly zero; every pre-activation lies 1e-3 or more
        # from the ReLU's kink, which no step of h = 1e-5 crosses
        rng = np.random.default_rng(8)
        taps, bias = block_params(rng, 3)
        bias.data[:] = rng.normal(size=(3, 1))
        x = Tensor(rng.normal(size=(3, 5)))
        pre = pre_activation(x.data, [t.data for t in taps], bias.data, 3)
        assert np.abs(pre).min() > 1e-3 and (pre > 0).any() and (pre < 0).any()
        probe = Tensor(rng.normal(size=(3, 5)))
        params = {"x": x, "bias": bias}
        params.update({f"tap{j}": tap for j, tap in enumerate(taps)})
        f = lambda: dot(tp.tcn_block(x, taps, bias, 3), probe)
        assert not ad.backward(f(), params)["tap0"].any()
        report = ad.grad_check(f, params, h=1e-5, tol=1e-6)
        assert report.passed, report.errors

    @pytest.mark.parametrize("recorded", [False, True])
    def test_nan_and_negative_zero_pre_activations_give_positive_zero(self, recorded):
        # frame 1 takes frame 0's NaN through the delay tap, and every term
        # of frame 2 (taps, bias) is -0.0: both activate to +0.0, so with a
        # -0.0 residual the output is +0.0 (a NaN or -0.0 activation would
        # give NaN or -0.0)
        x = ad._value(np.array([[np.nan, -0.0, -0.0]]))
        with nullcontext() if recorded else ad.no_grad():
            out = scalar_block(x, [1.0, 0.0], bias=-0.0).data
        np.testing.assert_array_equal(out[0, 1:], [0.0, 0.0])
        assert not np.signbit(out[0, 1:]).any()

    def test_recorded_node_saves_x_only(self):
        # x and the ReLU's bool mask: the zero-filled delayed copies of x
        # are rebuilt by the backward, and neither the conv's output nor
        # the block's is kept
        rng = np.random.default_rng(2)
        taps, bias = block_params(rng, 3)
        x = Tensor.stack([rng.normal(size=(3, 7)) for _ in range(2)])
        out = tp.tcn_block(x, taps, bias, 2)
        saved = closure_arrays(out._backward_fn)
        assert any(a is x.data for a in saved)
        same_shape = [a for a in saved if a.shape == x.shape and a is not x.data]
        assert [a.dtype for a in same_shape] == [np.bool_]

    def test_channel_mismatch(self):
        # the block keeps its channel count: every tap is square, of x's rows
        rng = np.random.default_rng(0)
        taps, bias = block_params(rng, 3)
        with pytest.raises(ad.DimensionError):
            tp.tcn_block(Tensor(np.ones((2, 5))), taps, bias, 1)
        wide = [Tensor(np.ones((3, 4)))] * 3
        with pytest.raises(ad.DimensionError):
            tp.tcn_block(Tensor(np.ones((4, 5))), wide, Tensor(np.zeros((3, 1))), 1)
        with pytest.raises(ad.DimensionError):
            tp.tcn_block(Tensor(np.ones((3, 5))), taps, Tensor(np.zeros((2, 1))), 1)


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

    def test_conv_outputs_die_in_a_live_graph_and_gradients_stay(self, monkeypatch):
        # a block's conv output becomes, in place, the block's output, which
        # its own node does not keep: the first block's lives on as the
        # second's saved input, and the last one's dies once the forward
        # drops it (the model feeds it to concat_rows, which copies it); the
        # gradients equal those of a run that kept both
        rng = np.random.default_rng(8)
        params = tp.init_params(3, rng)
        x = Tensor.stack([rng.normal(size=(3, 9)) for _ in range(2)])
        probe = Tensor.stack(rng.normal(size=(2, 3, 9)))
        block = tp.tcn_block

        def run(keep):
            held = []

            def block_and_hold(*args):
                out = block(*args)
                held.append(out if keep else weakref.ref(out.data))
                return out

            monkeypatch.setattr(tp, "tcn_block", block_and_hold)
            loss = dot(ad.concat_rows([tp.tcn_forward(x, params, "")]), probe)
            monkeypatch.setattr(tp, "tcn_block", block)
            if not keep:
                assert [ref() is None for ref in held] == [False, True]
            return ad.backward(loss, {"x": x, **params})

        kept, dropped = run(keep=True), run(keep=False)
        for name, g in kept.items():
            np.testing.assert_array_equal(dropped[name], g)

    def test_two_block_gradient_check(self):
        rng = np.random.default_rng(7)
        params = tp.init_params(3, rng)
        x = Tensor(rng.normal(size=(3, 9)))
        report = ad.grad_check(
            lambda: dot(tp.tcn_forward(x, params, ""), tp.tcn_forward(x, params, "")),
            {"x": x, **params}, h=1e-5, tol=1e-4)
        assert report.passed, report.errors
