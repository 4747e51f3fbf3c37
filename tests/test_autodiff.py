import threading
import weakref
from contextlib import nullcontext, suppress

import numpy as np
import pytest

from rjcma import autodiff as ad
from rjcma.autodiff import Tensor

from helpers import dot


def fd_grad(f, tensor, h=1e-5):
    """Central-difference gradient of scalar f() w.r.t. one tensor's data."""
    out = np.zeros_like(tensor.data)
    flat = tensor.data.ravel()
    gflat = out.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f().item()
        flat[i] = orig - h
        fm = f().item()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2 * h)
    return out


def max_rel_err(a, n):
    return np.max(np.abs(a - n) / np.maximum.reduce(
        [np.abs(a), np.abs(n), np.full_like(a, 1e-12)]))


def analytic_grad(f, tensor):
    return ad.backward(f(), {"t": tensor})["t"]


class TestConstruction:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Tensor([[1.0, np.nan]])

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            Tensor([[np.inf]])

    def test_scalar_and_vector_promoted_to_2d(self):
        assert Tensor(3.0).shape == (1, 1)
        assert Tensor([1.0, 2.0]).shape == (1, 2)

    def test_rejects_3d(self):
        with pytest.raises(ad.DimensionError):
            Tensor(np.zeros((2, 2, 2)))

    def test_stack_builds_a_validated_batch(self):
        assert Tensor.stack([np.ones((2, 3)), np.zeros((2, 3))]).shape == (2, 2, 3)
        with pytest.raises(ad.DimensionError):
            Tensor.stack([np.ones((2, 3)), np.ones((3, 2))])
        with pytest.raises(ValueError):
            Tensor.stack([np.ones((2, 3)), np.full((2, 3), np.nan)])


def leaf(arr):
    return Tensor.stack(arr) if arr.ndim == 3 else Tensor(arr)


class TestMatmul:
    def test_identity(self):
        m = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = ad.matmul(Tensor(np.eye(2)), m)
        np.testing.assert_array_equal(out.data, m.data)

    def test_hand_case(self):
        out = ad.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
        np.testing.assert_array_equal(out.data, [[3.0], [7.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ad.DimensionError):
            ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(3, 4)))
        b = Tensor(rng.normal(size=(4, 2)))
        for t in (a, b):
            f = lambda: dot(ad.matmul(a, b))
            assert max_rel_err(analytic_grad(f, t), fd_grad(f, t)) < 1e-6


    @pytest.mark.parametrize("shapes", [
        ((2, 3, 4), (4, 5)), ((3, 4), (2, 4, 5)), ((2, 3, 4), (2, 4, 5)),
    ], ids=["shared-right", "shared-left", "per-window"])
    def test_batched_gradients_match_finite_differences(self, shapes):
        rng = np.random.default_rng(3)
        a, b = (leaf(rng.normal(size=s)) for s in shapes)
        r = Tensor.stack(rng.normal(size=(2, 3, 5)))
        f = lambda: dot(ad.matmul(a, b), r)
        for t in (a, b):
            assert max_rel_err(analytic_grad(f, t), fd_grad(f, t)) < 1e-6

    def test_batch_size_mismatch(self):
        with pytest.raises(ad.DimensionError):
            ad.matmul(Tensor.stack(np.ones((2, 3, 4))), Tensor.stack(np.ones((3, 4, 5))))


class TestConcatRows:
    def test_shape(self):
        parts = [Tensor(np.ones((2, 4))), Tensor(np.ones((3, 4))),
                 Tensor(np.ones((1, 4)))]
        assert ad.concat_rows(parts).shape == (6, 4)

    def test_single_part_identity(self):
        m = Tensor([[1.0, 2.0]])
        np.testing.assert_array_equal(ad.concat_rows([m]).data, m.data)

    def test_column_mismatch(self):
        with pytest.raises(ad.DimensionError):
            ad.concat_rows([Tensor(np.ones((1, 2))), Tensor(np.ones((1, 3)))])

    def test_gradient_splits_by_block(self):
        a = Tensor(np.ones((2, 3)))
        b = Tensor(np.ones((1, 3)))
        grads = ad.backward(dot(ad.concat_rows([a, b])), {"a": a, "b": b})
        np.testing.assert_array_equal(grads["a"], np.ones((2, 3)))
        np.testing.assert_array_equal(grads["b"], np.ones((1, 3)))


class TestElementwise:
    def test_tanh_zero(self):
        np.testing.assert_array_equal(ad.tanh(Tensor(np.zeros((2, 2)))).data,
                                      np.zeros((2, 2)))

    def test_relu(self):
        np.testing.assert_array_equal(ad.relu(Tensor([[-1.0, 2.0]])).data,
                                      [[0.0, 2.0]])

    def test_relu_subgradient_at_zero_is_zero(self):
        x = Tensor([[0.0]])
        assert ad.backward(dot(ad.relu(x)), {"x": x})["x"][0, 0] == 0.0

    @pytest.mark.parametrize("recorded", [False, True])
    def test_relu_gives_positive_zero_for_nan_and_negative_zero(self, recorded):
        # a NaN can only arrive as an op's result; -0.0 also as an input
        x = ad._value(np.array([[-0.0, np.nan, 0.0, -1.0, 2.0]]))
        with nullcontext() if recorded else ad.no_grad():
            out = ad.relu(x).data
        np.testing.assert_array_equal(out, [[0.0, 0.0, 0.0, 0.0, 2.0]])
        assert not np.signbit(out).any()

    def test_tanh_derivative_at_zero(self):
        x = Tensor([[0.0]])
        f = lambda: dot(ad.tanh(x))
        ga = analytic_grad(f, x)
        assert ga[0, 0] == 1.0
        assert max_rel_err(ga, fd_grad(f, x)) < 1e-6

    @pytest.mark.parametrize("op", ["tanh", "add_col_bias"])
    def test_gradients_vs_finite_differences(self, op):
        rng = np.random.default_rng(42)
        a = Tensor(rng.normal(size=(3, 4)) + 2.0)
        bias = Tensor(rng.normal(size=(3, 1)))
        fns = {
            "tanh": lambda: dot(ad.tanh(a)),
            "add_col_bias": lambda: dot(ad.add_col_bias(a, bias), a),
        }
        f = fns[op]
        for t in (a, bias):
            ga = analytic_grad(f, t)
            assert max_rel_err(ga, fd_grad(f, t)) < 1e-6


class TestBackwardContract:
    def test_second_backward_errors(self):
        w = Tensor(np.ones((1, 2)))
        loss = dot(w)
        ad.backward(loss, {"w": w})
        with pytest.raises(ad.GraphError):
            ad.backward(loss, {"w": w})

    def test_backward_releases_the_graph_but_not_the_leaves(self):
        x = Tensor([[0.5, -1.0]])
        hidden = ad.tanh(x)
        first = ad.backward(dot(hidden), {"x": x})["x"]
        assert hidden._node.parents == () and hidden._node.backward_fn is None
        np.testing.assert_array_equal(ad.backward(dot(ad.tanh(x)), {"x": x})["x"], first)

    def test_the_sweep_frees_each_node_once_its_closure_ran(self):
        # a chain of three nodes, each saving an array only its closure
        # holds; while the closure nearest the input runs, the arrays saved
        # by the two nodes nearer the loss are already gone
        saved, alive = [], []

        def node(a, probe=None):
            s = np.cos(a.data)

            def bwd(g):
                if probe is not None:
                    probe()
                return (g * s,)

            saved.append(weakref.ref(s))
            return ad._make(np.sin(a.data), (a,), bwd)

        x = Tensor([[0.5, -1.0]])
        probe = lambda: alive.extend(ref() is not None for ref in saved)
        loss = dot(node(node(node(x, probe))))
        grads = ad.backward(loss, {"x": x})
        assert alive == [True, False, False]
        np.testing.assert_allclose(grads["x"], np.cos(np.sin(np.sin(x.data)))
                                   * np.cos(np.sin(x.data)) * np.cos(x.data), rtol=1e-15)

    def test_a_closure_that_raises_leaves_every_node_consumed(self):
        x = Tensor([[0.5, -1.0]])
        first = ad.tanh(x)

        def fail(g):
            raise FloatingPointError("closure failed")

        failing = ad._make(first.data * 2.0, (first,), fail)
        last = ad.tanh(failing)
        with pytest.raises(FloatingPointError):
            ad.backward(dot(last), {"x": x})
        # the node already run, the one that raised and the one not reached
        for node in (last, failing, first):
            assert node._node.backward_fn is None and node._node.parents == ()
            with pytest.raises(ad.GraphError, match="consumed"):
                ad.backward(dot(node), {"x": x})
        np.testing.assert_array_equal(
            ad.backward(dot(ad.tanh(x)), {"x": x})["x"], 1.0 - np.tanh(x.data) ** 2)

    def test_loss_on_a_consumed_intermediate_errors(self):
        # a second loss built on a node of a consumed graph cannot reach
        # the leaves through it: backward raises instead of treating the
        # node as a constant
        x = Tensor([[0.5, -1.0]])
        hidden = ad.tanh(x)
        ad.backward(dot(hidden), {"x": x})
        with pytest.raises(ad.GraphError, match="consumed"):
            ad.backward(dot(hidden, hidden), {"x": x})
        with pytest.raises(ad.GraphError, match="consumed"):
            ad.backward(dot(hidden, x), {"x": x})

    def test_non_scalar_loss_rejected(self):
        w = Tensor(np.ones((2, 2)))
        with pytest.raises(ad.GraphError):
            ad.backward(ad.tanh(w), {"w": w})

    def test_unreached_leaves_get_zero(self):
        used = Tensor(np.ones((1, 2)))
        unused = Tensor(np.ones((1, 2)))
        grads = ad.backward(dot(used), {"used": used, "unused": unused})
        np.testing.assert_array_equal(grads["unused"], np.zeros((1, 2)))

    def test_reused_operand_accumulates(self):
        x = Tensor([[2.0]])
        assert ad.backward(dot(x, x), {"x": x})["x"][0, 0] == pytest.approx(4.0)

    def test_an_interior_node_in_wrt_gets_its_gradient(self):
        x = Tensor([[0.5, -1.0]])
        hidden = ad.tanh(x)
        grads = ad.backward(dot(hidden, hidden), {"hidden": hidden, "x": x})
        np.testing.assert_array_equal(grads["hidden"], 2.0 * hidden.data)
        np.testing.assert_array_equal(grads["x"], grads["hidden"] * (1.0 - hidden.data ** 2))


class TestConcurrentRecording:
    def test_two_threads_recording_on_a_new_leaf_share_its_one_node(self, monkeypatch):
        # two threads record the first op on the same tensor at once. Each
        # new leaf node waits up to 0.2 s for the other thread to make one
        # too, which only a leaf creation that is not atomic lets happen:
        # then one graph would link to a leaf node that backward, looking
        # it up through the tensor, does not find, and its gradient is zero
        meet = threading.Barrier(2, timeout=0.2)

        class MeetingLeaf(ad._Node):
            __slots__ = ()

            def __init__(self, parents=(), backward_fn=None):
                if not parents:
                    with suppress(threading.BrokenBarrierError):
                        meet.wait()
                super().__init__(parents, backward_fn)

        monkeypatch.setattr(ad, "_Node", MeetingLeaf)
        x = Tensor([[0.5, -1.0]])
        outs = [None, None]

        def record(i):
            outs[i] = ad.tanh(x)

        threads = [threading.Thread(target=record, args=(i,)) for i in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
        monkeypatch.undo()
        for out in outs:
            np.testing.assert_array_equal(ad.backward(dot(out), {"x": x})["x"],
                                          1.0 - np.tanh(x.data) ** 2)


class TestProperties:
    def test_forward_bit_identical_across_runs(self):
        rng = np.random.default_rng(7)
        data_a = rng.normal(size=(4, 5))
        data_b = rng.normal(size=(5, 3))

        def run():
            return ad.tanh(ad.matmul(Tensor(data_a), Tensor(data_b))).data

        assert np.array_equal(run(), run())

    def test_chain_rule_composition(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            x = Tensor(rng.normal(size=(2, 3)))
            f = lambda: dot(ad.tanh(x), x)
            ga = analytic_grad(f, x)
            # product rule by hand: d/dx sum(x tanh(x)) = tanh + x (1-tanh^2)
            t = np.tanh(x.data)
            expected = t + x.data * (1.0 - t * t)
            assert max_rel_err(ga, expected) < 1e-12
            assert max_rel_err(ga, fd_grad(f, x)) < 1e-6


class TestNoGrad:
    def test_builds_no_graph_and_scope_ends(self):
        w = Tensor(np.ones((2, 2)))
        with ad.no_grad():
            out = ad.tanh(ad.matmul(w, w))
        assert out._node is None and out._backward_fn is None
        np.testing.assert_array_equal(out.data, ad.tanh(ad.matmul(w, w)).data)
        assert ad.tanh(ad.matmul(w, w))._node.parents


class TestGradCheck:
    def test_quadratic(self):
        x = Tensor([[3.0]])
        report = ad.grad_check(lambda: dot(x, x), {"x": x}, h=1e-5, tol=1e-8)
        assert report.passed
        assert report.max_error < 1e-8

    def test_constant_function(self):
        x = Tensor([[1.0]])
        c = Tensor([[5.0]])
        report = ad.grad_check(lambda: dot(c, c), {"x": x})
        assert report.passed

    def test_nan_gradient_entry_fails(self):
        # a node whose backward returns NaN for one entry: its relative error
        # is NaN, which must fail the check rather than drop out of the max
        x = Tensor([[1.0, 2.0, 3.0]])

        def f():
            return dot(ad._make(x.data * x.data, (x,), lambda g: (
                g * 2.0 * x.data * [[1.0, np.nan, 1.0]],)))

        report = ad.grad_check(f, {"x": x})
        assert np.isnan(report.errors["x"]) and np.isnan(report.max_error)
        assert not report.passed
        assert report.lines() == ["x  max rel err nan  FAIL"]
