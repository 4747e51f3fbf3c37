import math
import os
import signal
import threading
import time
import warnings
import weakref

import numpy as np
import pytest

from rjcma import autodiff as ad
from rjcma import fusion as fu
from rjcma.autodiff import Tensor
from rjcma.metrics import ccc_loss


def make_inputs(cfg, seed=0, mags=1.0):
    rng = np.random.default_rng(seed)
    return {
        m: Tensor(mags * rng.normal(size=(cfg.dim(m), cfg.K)))
        for m in fu.MODALITIES
    }


def jca_single_pass(xa, xv, xt, params):
    """Independent single-pass joint cross-attention oracle (plain numpy).

    Mirrors: J = FC([Xa;Xv;Xt]); C_m = tanh((Xm^T W_j J)/sqrt(d));
    H_m = ReLU(Xm W_c C_m); X_att,m = H_m W_h + Xm; concat; MLP head.
    """
    stacked = np.concatenate([xa, xv, xt], axis=0)
    joint = params["fc_joint/w"].data @ stacked + params["fc_joint/b"].data
    d = joint.shape[0]
    attended = []
    for m, x in zip(("a", "v", "t"), (xa, xv, xt)):
        corr = np.tanh(((x.T @ params[f"iter1/W_j{m}"].data) @ joint)
                       * (1.0 / math.sqrt(d)))
        pre = (x @ params[f"iter1/W_c{m}"].data) @ corr
        amap = np.where(pre > 0.0, pre, 0.0)
        attended.append(amap @ params[f"iter1/W_h{m}"].data + x)
    cat = np.concatenate(attended, axis=0)
    hidden = params["head/w1"].data @ cat + params["head/b1"].data
    hidden = np.where(hidden > 0.0, hidden, 0.0)
    out = params["head/w2"].data @ hidden + params["head/b2"].data
    return cat, np.tanh(out)


class TestConfigAndParams:
    def test_joint_dim_is_sum(self):
        cfg = fu.FusionConfig(3, 4, 5, K=7)
        assert cfg.d == 12

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fu.FusionConfig(0, 1, 1, K=4)
        with pytest.raises(ValueError):
            fu.FusionConfig(1, 1, 1, K=4, iterations=0)

    def test_param_count_is_pure_function_of_config(self):
        cfg = fu.FusionConfig(3, 4, 5, K=6, iterations=2)
        params = fu.init_params(cfg, np.random.default_rng(0))
        count = sum(p.data.size for p in params.values())
        d, K, h = 12, 6, 6
        by_hand = (d * d + d
                   + 2 * ((3 + 4 + 5) * d + 3 * 2 * K * K)
                   + h * d + h + h + 1)
        assert count == by_hand

    def test_all_params_require_grad(self):
        cfg = fu.FusionConfig(2, 2, 2, K=3)
        params = fu.init_params(cfg, np.random.default_rng(0))
        assert all(p.requires_grad for p in params.values())


class TestJointRepresentation:
    def test_shape(self):
        cfg = fu.FusionConfig(2, 2, 2, K=3)
        x = make_inputs(cfg)
        fc_w = Tensor(np.eye(6))
        fc_b = Tensor(np.zeros((6, 1)))
        joint = fu.joint_representation(stack(x), fc_w, fc_b)
        assert joint.shape == (6, 3)

    def test_identity_fc_gives_raw_concat(self):
        cfg = fu.FusionConfig(2, 2, 2, K=3)
        x = make_inputs(cfg)
        joint = fu.joint_representation(stack(x), Tensor(np.eye(6)),
                                        Tensor(np.zeros((6, 1))))
        expected = np.concatenate(
            [x[m].data for m in ("a", "v", "t")], axis=0)
        np.testing.assert_array_equal(joint.data, expected)

    def test_column_locality(self):
        # column j of J depends only on column j of each modality
        cfg = fu.FusionConfig(2, 3, 2, K=4)
        rng = np.random.default_rng(1)
        fc_w = Tensor(rng.normal(size=(7, 7)))
        fc_b = Tensor(rng.normal(size=(7, 1)))
        xs = [rng.normal(size=(d, 4)) for d in (2, 3, 2)]

        def run(arrs):
            return fu.joint_representation(ad.concat_rows([Tensor(a) for a in arrs]),
                                           fc_w, fc_b).data

        base = run(xs)
        bumped = [x.copy() for x in xs]
        bumped[1][:, 0] += 1.0
        after = run(bumped)
        assert not np.array_equal(after[:, 0], base[:, 0])
        np.testing.assert_array_equal(after[:, 1:], base[:, 1:])

    def test_frame_count_mismatch(self):
        # J is taken over the stack of the three streams, so rjcma_forward
        # rejects a stream whose frame count differs before stacking them
        cfg = fu.FusionConfig(2, 2, 2, K=3)
        params = fu.init_params(cfg, np.random.default_rng(0))
        x = make_inputs(cfg)
        with pytest.raises(ad.DimensionError, match="modality v shape"):
            fu.rjcma_forward(x["a"], Tensor(np.ones((2, 4))), x["t"], params, cfg)


def stack(x):
    """The (d, K) stack of make_inputs' three streams."""
    return ad.concat_rows([x[m] for m in fu.MODALITIES])


def attend_one(xm, joint, w_j, w_c, w_h, keep=None):
    """attention_step over a single modality, whose rows are all of Y; a
    given `keep` dict receives that modality's C, map and attended rows."""
    kept = None if keep is None else []
    out = fu.attention_step(xm, joint, [w_j], [w_c], [w_h], kept)
    if keep is not None:
        keep.update(*kept)
    return out


def branch(xm, joint, w_j, w_c, w_h):
    """A one-modality step on plain arrays: (output, C, H) as arrays."""
    keep = {}
    out = attend_one(Tensor(xm), Tensor(joint), Tensor(w_j),
                     Tensor(w_c), Tensor(w_h), keep)
    return out.data, keep["corr"].data, keep["map"].data


def random_branch_inputs(rng, dm=3, d=9, k=5):
    return (rng.normal(size=(dm, k)), rng.normal(size=(d, k)),
            rng.normal(size=(dm, d)), rng.normal(size=(k, k)),
            rng.normal(size=(k, k)))


class TestAttentionBranch:
    """attention_step over one modality: that modality's branch."""

    def test_matches_numpy_reference(self):
        # relu((X W_c) tanh(X^T W_j J / sqrt(d))) W_h + X, per window of a batch
        rng = np.random.default_rng(3)
        xs = rng.normal(size=(3, 4, 6))
        js = rng.normal(size=(3, 12, 6))
        w_j, w_c, w_h = (rng.normal(size=s) for s in ((4, 12), (6, 6), (6, 6)))
        keep = {}
        out = attend_one(Tensor.stack(xs), Tensor.stack(js), Tensor(w_j),
                         Tensor(w_c), Tensor(w_h), keep)
        assert out.shape == keep["map"].shape == (3, 4, 6)
        assert keep["corr"].shape == (3, 6, 6)
        for b in range(3):
            corr = np.tanh(xs[b].T @ (w_j @ js[b]) / math.sqrt(12))
            amap = np.maximum((xs[b] @ w_c) @ corr, 0.0)
            np.testing.assert_allclose(keep["corr"].data[b], corr, rtol=1e-13, atol=1e-15)
            np.testing.assert_allclose(keep["map"].data[b], amap, rtol=1e-13, atol=1e-14)
            np.testing.assert_allclose(out.data[b], amap @ w_h + xs[b],
                                       rtol=1e-13, atol=1e-14)

    def test_no_grad_matches_recorded_forward(self):
        rng = np.random.default_rng(5)
        args = [Tensor(a, requires_grad=True) for a in random_branch_inputs(rng)]
        recorded = attend_one(*args)
        with ad.no_grad():
            keep = {}
            plain = attend_one(*args, keep)
        assert recorded._backward_fn is not None and plain._backward_fn is None
        np.testing.assert_array_equal(plain.data, recorded.data)
        assert keep["corr"].shape == (5, 5)

    @pytest.mark.parametrize("windows_per_block", [1, 2])
    def test_blocking_leaves_value_and_gradients_unchanged(self, monkeypatch,
                                                          windows_per_block):
        # 3 windows in blocks of 1, or of 2 with a short last block, against
        # the whole batch in one block
        rng = np.random.default_rng(6)
        arrays = [rng.normal(size=(3, 3, 5)), rng.normal(size=(3, 9, 5)),
                  rng.normal(size=(3, 9)), rng.normal(size=(5, 5)), rng.normal(size=(5, 5))]

        def run():
            leaves = [Tensor.stack(a) if a.ndim == 3 else Tensor(a) for a in arrays]
            for t in leaves:
                t.requires_grad = True
            keep = {}
            out = attend_one(*leaves, keep)
            ad.backward(ad.tensor_sum(ad.mul(out, Tensor.stack(np.cos(arrays[0])))))
            return [out.data, keep["corr"].data] + [t.grad for t in leaves]

        whole = run()
        monkeypatch.setattr(fu, "_BLOCK_BYTES", windows_per_block * 8 * 5 * 5)
        for got, want in zip(run(), whole):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_workers_leave_value_and_gradients_unchanged(self, monkeypatch, interleaved,
                                                         workers):
        # 3 modalities of 3 one-window blocks on `workers` threads against
        # one thread, recorded and in no_grad
        monkeypatch.setattr(fu, "_BLOCK_BYTES", 8 * 5 * 5)
        arrays = step_batch(np.random.default_rng(10), 3)
        monkeypatch.setattr(fu, "_WORKERS", 1)
        serial = run_step(arrays)
        monkeypatch.setattr(fu, "_WORKERS", workers)
        interleaved.clear()
        for got, want in zip(run_step(arrays), serial, strict=True):
            np.testing.assert_array_equal(got, want)
        # the blocks of the forward, the backward and the no_grad forward,
        # and the backward's two sets of six GEMMs, on `workers` threads;
        # every thread ran items, with buffers of its own
        gemms = min(workers, 6)
        assert [len(b) for _, b in interleaved] == [workers, gemms, workers, gemms, workers]
        for threads, buffers in interleaved:
            assert len(threads) == len(buffers)
            arrs = [b for bufs in buffers for b in bufs]
            assert not any(np.shares_memory(u, v)
                           for i, u in enumerate(arrs) for v in arrs[i + 1:])

    def test_two_callers_at_once_get_the_serial_bits(self, monkeypatch, interleaved):
        # two threads run the step's forward and backward on the shared
        # pool at the same time
        monkeypatch.setattr(fu, "_BLOCK_BYTES", 8 * 5 * 5)
        batches = [step_batch(np.random.default_rng(seed), 3) for seed in (11, 12)]
        monkeypatch.setattr(fu, "_WORKERS", 1)
        serial = [run_step(arrays) for arrays in batches]
        monkeypatch.setattr(fu, "_WORKERS", 2)
        results = [None, None]

        def caller(i):
            for _ in range(3):
                results[i] = run_step(batches[i])

        threads = [threading.Thread(target=caller, args=(i,)) for i in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        for got, want in zip(results, serial, strict=True):
            for g, w in zip(got, want, strict=True):
                np.testing.assert_array_equal(g, w)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_recorded_node_keeps_one_block_of_correlation(self, monkeypatch, workers):
        # one window per block: the backward keeps one K x K block of C for
        # the step's 3 modalities of 3 windows (K=5 is no other dimension
        # here), not one per window, modality or thread
        monkeypatch.setattr(fu, "_BLOCK_BYTES", 8 * 5 * 5)
        monkeypatch.setattr(fu, "_WORKERS", workers)
        y, joint, w_j, w_c, w_h = step_batch(np.random.default_rng(8), 3)
        out = fu.attention_step(Tensor.stack(y), Tensor.stack(joint),
                                *([Tensor(a, requires_grad=True) for a in group]
                                  for group in (w_j, w_c, w_h)))
        seen, todo, windows = set(), [out._backward_fn], 0
        while todo:                                  # closures and lists, transitively
            obj = todo.pop()
            if id(obj) in seen:
                continue
            seen.add(id(obj))
            if getattr(obj, "__closure__", None):
                todo += [cell.cell_contents for cell in obj.__closure__]
            elif isinstance(obj, (list, tuple)):
                todo += obj
            elif isinstance(obj, np.ndarray) and obj.shape[-2:] == (5, 5):
                windows += obj.size // 25
        assert windows <= 1

    def test_nan_attention_input_gives_a_positive_zero_map(self):
        # a NaN in W_c (as an op's result could carry) makes every entry of
        # (X W_c) C NaN; the relu maps it to +0.0, so the branch passes X on
        x, joint, w_j, w_c, w_h = random_branch_inputs(np.random.default_rng(9))
        w_c[0, 0] = np.nan
        keep = {}
        out = attend_one(Tensor(x), Tensor(joint), Tensor(w_j),
                         ad._value(w_c), Tensor(w_h), keep)
        np.testing.assert_array_equal(keep["map"].data, np.zeros_like(x))
        assert not np.signbit(keep["map"].data).any()
        np.testing.assert_array_equal(out.data, x)

    def test_backward_frees_the_saved_correlation(self):
        # the K x K blocks C live in the node's backward closure; once
        # backward consumed the graph they are gone, although the caller
        # still holds the loss and the node's output
        rng = np.random.default_rng(7)
        arrays = [rng.normal(size=(2, 3, 5)), rng.normal(size=(2, 9, 5)),
                  rng.normal(size=(3, 9)), rng.normal(size=(5, 5)), rng.normal(size=(5, 5))]
        leaves = [Tensor.stack(a) if a.ndim == 3 else Tensor(a, requires_grad=True)
                  for a in arrays]
        out = attend_one(*leaves)
        saved = [weakref.ref(cell.cell_contents) for cell in out._backward_fn.__closure__
                 if isinstance(cell.cell_contents, np.ndarray)
                 and cell.cell_contents.shape[1:] == (5, 5)]
        assert saved
        loss = ad.tensor_sum(ad.mul(out, Tensor.stack(np.cos(arrays[0]))))
        ad.backward(loss)
        assert all(ref() is None for ref in saved)
        assert out._backward_fn is None and out._parents == ()
        assert loss.item() == pytest.approx(float((out.data * np.cos(arrays[0])).sum()))

    def test_shape_mismatch(self):
        x, joint, w_j, w_c, w_h = random_branch_inputs(np.random.default_rng(0))
        with pytest.raises(ad.DimensionError):
            branch(x, joint, w_j, w_c[:, :4], w_h)
        with pytest.raises(ad.DimensionError):
            branch(x, joint[:, :4], w_j, w_c, w_h)

    @pytest.mark.parametrize("batch", [(), (2,)], ids=["window", "batch"])
    def test_gradient_matches_finite_differences(self, batch):
        rng = np.random.default_rng(4)

        def leaf(*shape):
            arr = rng.normal(size=shape)
            t = Tensor.stack(arr) if arr.ndim == 3 else Tensor(arr)
            t.requires_grad = True
            return t

        x, joint = leaf(*batch, 3, 5), leaf(*batch, 9, 5)
        w_j, w_c, w_h = leaf(3, 9), leaf(5, 5), leaf(5, 5)
        probe = Tensor.stack(rng.normal(size=(2, 3, 5))) if batch else \
            Tensor(rng.normal(size=(3, 5)))
        report = ad.grad_check(
            lambda: ad.tensor_sum(ad.mul(attend_one(x, joint, w_j, w_c, w_h), probe)),
            {"x": x, "joint": joint, "w_j": w_j, "w_c": w_c, "w_h": w_h},
            h=1e-5, tol=1e-5)
        assert report.passed, report.errors


class TestAttentionStep:
    @pytest.mark.parametrize("windows_per_block", [1, 3])
    def test_three_modalities_match_three_one_modality_calls(self, monkeypatch,
                                                             windows_per_block):
        # unequal widths 3, 4, 2: each modality's rows of the output, its C
        # and map, its weight gradients and its rows of dL/dY are those of a
        # step over that modality alone; dL/dJ is the three steps' sum, in
        # modality order
        monkeypatch.setattr(fu, "_BLOCK_BYTES", windows_per_block * 8 * 5 * 5)
        arrays = step_batch(np.random.default_rng(13), 3)
        whole = run_step(arrays)
        rows = np.split(np.arange(9), np.cumsum(WIDTHS)[:-1])
        parts = [run_step([arrays[0][:, r], arrays[1]] + [[group[m]] for group in arrays[2:]])
                 for m, r in enumerate(rows)]
        # run_step lists out, corr(s), map(s), dY, dJ, dW_j(s), dW_c(s), dW_h(s), no_grad
        out, corr, amap = whole[0], whole[1:4], whole[4:7]
        g_y, g_j, g_w = whole[7], whole[8], whole[9:18]
        for m, (r, part) in enumerate(zip(rows, parts)):
            np.testing.assert_array_equal(out[:, r], part[0])
            np.testing.assert_array_equal(whole[-1][:, r], part[-1])
            np.testing.assert_array_equal(corr[m], part[1])
            np.testing.assert_array_equal(amap[m], part[2])
            np.testing.assert_array_equal(g_y[:, r], part[3])
            for kind in range(3):                    # W_j, W_c, W_h
                np.testing.assert_array_equal(g_w[3 * kind + m], part[5 + kind])
        np.testing.assert_array_equal(g_j, parts[0][4] + parts[1][4] + parts[2][4])

    def test_small_items_run_on_this_thread(self, monkeypatch, interleaved):
        # at the default block size a K=5 item holds far less than half a
        # block of C, which costs more to hand to the pool than it gains
        monkeypatch.setattr(fu, "_WORKERS", 2)
        run_step(step_batch(np.random.default_rng(16), 3))
        assert [len(b) for _, b in interleaved] == [1] * 5
        assert all(threads == {threading.current_thread()} for threads, _ in interleaved)

    def test_shape_mismatch(self):
        y, joint, w_j, w_c, w_h = step_batch(np.random.default_rng(14), 2)
        args = [Tensor.stack(y), Tensor.stack(joint)] + [[Tensor(a) for a in group]
                                                         for group in (w_j, w_c, w_h)]
        with pytest.raises(ad.DimensionError):           # widths sum to 8 rows, not 9
            fu.attention_step(*args[:2], args[2][:2] + [Tensor(np.ones((1, 9)))], *args[3:])
        with pytest.raises(ad.DimensionError):           # two W_h for three modalities
            fu.attention_step(*args[:4], args[4][:2])


@pytest.fixture
def interleaved(monkeypatch):
    """Make every thread of `fu._for_each` sleep before each item, so that
    the pool's threads take items even at this test's tiny K; list, per
    call, the threads that ran items and the buffers they were given."""
    calls = []
    for_each = fu._for_each

    def sleepy(fn, items, buffers):
        threads = set()

        def slow(item, *bufs):
            threads.add(threading.current_thread())
            time.sleep(0.01)
            fn(item, *bufs)

        calls.append((threads, buffers))
        return for_each(slow, items, buffers)

    monkeypatch.setattr(fu, "_for_each", sleepy)
    return calls


WIDTHS = (3, 4, 2)                                   # unequal d_a, d_v, d_t; d = 9


def step_batch(rng, n):
    """Y, J and the lists W_j, W_c, W_h for a batch of n windows of three
    modalities of widths WIDTHS at K=5."""
    return [rng.normal(size=(n, 9, 5)), rng.normal(size=(n, 9, 5)),
            [rng.normal(size=(dm, 9)) for dm in WIDTHS],
            [rng.normal(size=(5, 5)) for _ in WIDTHS],
            [rng.normal(size=(5, 5)) for _ in WIDTHS]]


def run_step(arrays):
    """The step's value, kept Cs and maps, the gradients of Y, J and every
    weight for a fixed loss, and the no_grad value."""
    y, joint = Tensor.stack(arrays[0]), Tensor.stack(arrays[1])
    w_j, w_c, w_h = ([Tensor(a) for a in group] for group in arrays[2:])
    leaves = [y, joint, *w_j, *w_c, *w_h]
    for t in leaves:
        t.requires_grad = True
    keep = []
    out = fu.attention_step(y, joint, w_j, w_c, w_h, keep)
    ad.backward(ad.tensor_sum(ad.mul(out, Tensor.stack(np.cos(arrays[0])))))
    with ad.no_grad():
        plain = fu.attention_step(y, joint, w_j, w_c, w_h)
    return ([out.data] + [kept[name].data for name in ("corr", "map") for kept in keep]
            + [t.grad for t in leaves] + [plain.data])


class TestBranchThreads:
    @pytest.mark.parametrize("cpus, env, workers", [
        (2, {}, 1),                                  # OpenBLAS: one thread per CPU
        (2, {"OPENBLAS_NUM_THREADS": "1"}, 2),
        (4, {"OPENBLAS_NUM_THREADS": "2"}, 2),
        (3, {"OPENBLAS_NUM_THREADS": "2"}, 1),
        (1, {"OPENBLAS_NUM_THREADS": "1"}, 1),
        (2, {"OPENBLAS_NUM_THREADS": "8"}, 1),
        (2, {"OMP_NUM_THREADS": "1"}, 2),
        (2, {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 1),
        (2, {"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 2),
        (2, {"OPENBLAS_NUM_THREADS": "two"}, 1),
        (8, {"OMP_NUM_THREADS": "4,2"}, 1),
    ])
    def test_worker_count(self, cpus, env, workers):
        assert fu._worker_count(cpus, env) == workers

    @pytest.mark.parametrize("failing", [0, 5])
    def test_a_failing_item_raises_after_every_thread_finished(self, failing):
        # item 0 is this thread's own first item; item 5 goes to whichever
        # of the three threads is free
        finished = []

        def fn(i):
            if i == failing:
                raise ValueError(f"item {i}")
            time.sleep(0.05)
            finished.append(i)

        with pytest.raises(ValueError, match=f"item {failing}"):
            fu._for_each(fn, list(range(6)), [(), (), ()])
        assert sorted(finished) == [i for i in range(6) if i != failing]

    def test_a_slow_thread_takes_fewer_items(self):
        # the pool's thread sleeps on its first item; this thread runs the rest
        me = threading.current_thread()

        def fn(i):
            time.sleep(0.01 if threading.current_thread() is me else 0.5)

        ran = fu._for_each(fn, list(range(10)), [(), ()])
        assert ran[0] == 0 and len(ran) == 9

    def test_one_thread_runs_every_item_in_order(self):
        seen = []
        ran = fu._for_each(lambda i: seen.append((i, threading.current_thread())),
                           [0, 1, 2], [()])
        assert ran == [0, 1, 2]
        assert seen == [(i, threading.current_thread()) for i in range(3)]

    def test_buffers_go_to_one_thread_each(self):
        # each thread passes its own tuple of buffers with every item
        used = {}

        def fn(i, buf):
            used.setdefault(buf, set()).add(threading.current_thread().name)
            time.sleep(0.01)

        fu._for_each(fn, list(range(8)), [("a",), ("b",), ("c",)])
        assert all(len(names) == 1 for names in used.values())
        assert len({name for names in used.values() for name in names}) == len(used)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_runs_on_its_own_pool(self):
        # the child inherits the parent's pool object but none of its threads
        fu._for_each(lambda i: None, [0, 1], [(), ()])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)   # fork with threads
            pid = os.fork()
        if pid == 0:
            code = 1
            try:
                fu._for_each(lambda i: time.sleep(0.01), [0, 1, 2], [(), ()])
                code = 0
            finally:
                os._exit(code)
        for _ in range(300):
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            time.sleep(0.01)
        else:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        assert done and os.waitstatus_to_exitcode(status) == 0


class TestJointCrossCorrelation:
    def test_zero_weight_gives_zero(self):
        # zero W_j: C = 0, so the map is 0 and the branch is the identity
        x, joint, _, w_c, w_h = random_branch_inputs(np.random.default_rng(0))
        out, corr, amap = branch(x, joint, np.zeros((3, 9)), w_c, w_h)
        np.testing.assert_array_equal(corr, np.zeros((5, 5)))
        np.testing.assert_array_equal(amap, np.zeros((3, 5)))
        np.testing.assert_array_equal(out, x)

    def test_all_ones_hand_case(self):
        # d_m=1, d=3, K=2, everything ones: each entry of C is
        # tanh(3/sqrt(3)) = tanh(sqrt(3)); X W_c = [2, 2], so H = 4 tanh(sqrt(3))
        # and the output is 1 + 8 tanh(sqrt(3))
        out, corr, amap = branch(np.ones((1, 2)), np.ones((3, 2)), np.ones((1, 3)),
                                 np.ones((2, 2)), np.ones((2, 2)))
        expected = math.tanh(math.sqrt(3.0))
        assert expected == pytest.approx(0.9393, abs=1e-4)
        np.testing.assert_allclose(corr, np.full((2, 2), expected))
        np.testing.assert_allclose(amap, np.full((1, 2), 4 * expected))
        np.testing.assert_allclose(out, np.full((1, 2), 1 + 8 * expected))

    def test_entries_strictly_inside_unit_interval(self):
        _, corr, _ = branch(*random_branch_inputs(np.random.default_rng(2)))
        assert np.all(np.abs(corr) < 1.0)
        assert corr.shape == (5, 5)


class TestAttentionMap:
    def test_zero_weight(self):
        x, joint, w_j, _, w_h = random_branch_inputs(np.random.default_rng(0))
        out, _, amap = branch(x, joint, w_j, np.zeros((5, 5)), w_h)
        np.testing.assert_array_equal(amap, np.zeros((3, 5)))
        np.testing.assert_array_equal(out, x)

    def test_nonnegative(self):
        _, _, amap = branch(*random_branch_inputs(np.random.default_rng(1)))
        assert np.all(amap >= 0.0)
        assert np.any(amap > 0.0)

    def test_identity_weights_give_relu(self):
        # W_c = I: the map is relu(X C)
        x, joint, w_j, _, w_h = random_branch_inputs(np.random.default_rng(2))
        _, corr, amap = branch(x, joint, w_j, np.eye(5), w_h)
        np.testing.assert_array_equal(amap, np.maximum(x @ corr, 0.0))


class TestAttend:
    def test_zero_map_residual_identity(self):
        # positive X, J and W_j make C positive, and W_c = -1 makes X W_c
        # negative, so X W_c C <= 0: the map is zero and X passes unchanged
        x, joint, w_j, _, w_h = map(np.abs, random_branch_inputs(np.random.default_rng(0)))
        out, _, amap = branch(x, joint, w_j, -np.ones((5, 5)), w_h)
        np.testing.assert_array_equal(amap, np.zeros((3, 5)))
        np.testing.assert_array_equal(out, x)

    def test_zero_weight_residual_identity(self):
        x, joint, w_j, w_c, _ = random_branch_inputs(np.random.default_rng(1))
        out, _, amap = branch(x, joint, w_j, w_c, np.zeros((5, 5)))
        assert np.any(amap > 0.0)
        np.testing.assert_array_equal(out, x)

    def test_hand_2x2(self):
        x = np.array([[0.5, 0.5], [1.0, -1.0]])
        w = np.array([[1.0, 0.0], [1.0, 1.0]])
        out, _, amap = branch(x, np.ones((4, 2)), np.ones((2, 4)), np.eye(2), w)
        np.testing.assert_array_equal(out, amap @ w + x)


class TestRjcmaForward:
    def test_l1_reduces_to_single_pass_oracle(self):
        cfg = fu.FusionConfig(3, 4, 2, K=5, iterations=1)
        params = fu.init_params(cfg, np.random.default_rng(0))
        x = make_inputs(cfg, seed=1)
        out = fu.rjcma_forward(x["a"], x["v"], x["t"], params, cfg)
        cat, preds = jca_single_pass(x["a"].data, x["v"].data,
                                     x["t"].data, params)
        np.testing.assert_array_equal(out.attended.data, cat)
        np.testing.assert_array_equal(out.predictions.data, preds)

    @pytest.mark.parametrize("l", [1, 2, 3, 4])
    def test_zero_attention_identity(self, l):
        cfg = fu.FusionConfig(3, 3, 3, K=4, iterations=l)
        params = fu.init_params(cfg, np.random.default_rng(0))
        for i in range(1, l + 1):
            for m in fu.MODALITIES:
                params[f"iter{i}/W_c{m}"].data[:] = 0.0
        x = make_inputs(cfg, seed=2)
        out = fu.rjcma_forward(x["a"], x["v"], x["t"], params, cfg)
        expected = np.concatenate(
            [x[m].data for m in fu.MODALITIES], axis=0)
        np.testing.assert_array_equal(out.attended.data, expected)

    def test_deterministic_across_runs(self):
        cfg = fu.FusionConfig(4, 4, 4, K=6, iterations=3)
        params = fu.init_params(cfg, np.random.default_rng(3))
        x = make_inputs(cfg, seed=4)
        a = fu.rjcma_forward(x["a"], x["v"], x["t"], params, cfg)
        b = fu.rjcma_forward(x["a"], x["v"], x["t"], params, cfg)
        assert np.array_equal(a.predictions.data, b.predictions.data)
        assert np.array_equal(a.attended.data, b.attended.data)

    def test_recursion_nesting(self):
        # step-1 intermediates of an l=3 run equal an independent l=1 run
        cfg3 = fu.FusionConfig(3, 3, 3, K=4, iterations=3)
        params3 = fu.init_params(cfg3, np.random.default_rng(5))
        x = make_inputs(cfg3, seed=6)
        deep = fu.rjcma_forward(x["a"], x["v"], x["t"], params3, cfg3,
                                collect_intermediates=True)

        cfg1 = fu.FusionConfig(3, 3, 3, K=4, iterations=1)
        params1 = fu.init_params(cfg1, np.random.default_rng(99))
        for name in ("fc_joint/w", "fc_joint/b"):
            params1[name].data = params3[name].data.copy()
        for m in fu.MODALITIES:
            for kind in ("W_j", "W_c", "W_h"):
                params1[f"iter1/{kind}{m}"].data = \
                    params3[f"iter1/{kind}{m}"].data.copy()
        shallow = fu.rjcma_forward(x["a"], x["v"], x["t"], params1, cfg1,
                                   collect_intermediates=True)
        for m in fu.MODALITIES:
            np.testing.assert_array_equal(
                deep.intermediates[0][m]["attended"].data,
                shallow.intermediates[0][m]["attended"].data)

    def test_intermediate_shapes(self):
        cfg = fu.FusionConfig(3, 4, 5, K=6, iterations=2)
        params = fu.init_params(cfg, np.random.default_rng(7))
        x = make_inputs(cfg, seed=8)
        out = fu.rjcma_forward(x["a"], x["v"], x["t"], params, cfg,
                               collect_intermediates=True)
        for step in out.intermediates:
            for m in fu.MODALITIES:
                assert step[m]["corr"].shape == (6, 6)
                assert step[m]["map"].shape == (cfg.dim(m), 6)
                assert step[m]["attended"].shape == (cfg.dim(m), 6)
        assert out.attended.shape == (12, 6)
        assert out.predictions.shape == (1, 6)

    def test_frame_permutation_conjugates_correlation(self):
        # with W_j fixed, permuting frames of X_m and J conjugates C_m by P
        rng = np.random.default_rng(9)
        x = rng.normal(size=(3, 5))
        joint = rng.normal(size=(9, 5))
        w = rng.normal(size=(3, 9))
        perm = rng.permutation(5)
        p = np.eye(5)[:, perm]
        w_c, w_h = rng.normal(size=(5, 5)), rng.normal(size=(5, 5))
        out, base, _ = branch(x, joint, w, w_c, w_h)
        # conjugating W_c and W_h too permutes the branch's output columns
        out_p, permuted, _ = branch(x @ p, joint @ p, w, p.T @ w_c @ p, p.T @ w_h @ p)
        np.testing.assert_allclose(permuted, p.T @ base @ p, atol=1e-12)
        np.testing.assert_allclose(out_p, out @ p, atol=1e-12)

    def test_each_recursion_step_waits_on_the_pool_four_times(self, monkeypatch):
        # K=300, l=3, one window: each step's forward, backward blocks and
        # two sets of backward GEMMs make one `_for_each` call each
        calls = []
        for_each = fu._for_each

        def counted(fn, items, buffers):
            calls.append(len(items))
            return for_each(fn, items, buffers)

        monkeypatch.setattr(fu, "_for_each", counted)
        cfg = fu.FusionConfig(2, 2, 2, K=300, iterations=3)
        params = fu.init_params(cfg, np.random.default_rng(15))
        x = make_inputs(cfg, seed=16)
        out = fu.rjcma_forward(x["a"], x["v"], x["t"], params, cfg)
        ad.backward(ad.tensor_sum(out.predictions))
        assert calls == [3, 3, 3] + [6, 3, 6] * 3

    def test_shape_mismatch_propagates(self):
        cfg = fu.FusionConfig(3, 3, 3, K=4)
        params = fu.init_params(cfg, np.random.default_rng(0))
        bad = Tensor(np.ones((3, 5)))
        good = make_inputs(cfg)
        with pytest.raises(ad.DimensionError):
            fu.rjcma_forward(bad, good["v"], good["t"], params, cfg)


class TestPredictHead:
    def test_zero_weights_give_zero(self):
        cfg = fu.FusionConfig(2, 2, 2, K=5)
        params = fu.init_params(cfg, np.random.default_rng(0))
        for name in ("head/w1", "head/b1", "head/w2", "head/b2"):
            params[name].data[:] = 0.0
        out = fu.predict_head(Tensor(np.random.default_rng(1).normal(size=(6, 5))),
                              params)
        np.testing.assert_array_equal(out.data, np.zeros((1, 5)))

    @pytest.mark.parametrize("k", [1, 4, 17])
    def test_output_shape(self, k):
        cfg = fu.FusionConfig(2, 2, 2, K=k)
        params = fu.init_params(cfg, np.random.default_rng(0))
        out = fu.predict_head(Tensor(np.ones((6, k))), params)
        assert out.shape == (1, k)
        assert np.all(np.abs(out.data) <= 1.0)

    def test_head_gradient_through_ccc_loss(self):
        cfg = fu.FusionConfig(2, 2, 2, K=8)
        params = fu.init_params(cfg, np.random.default_rng(10))
        rng = np.random.default_rng(11)
        x_att = rng.normal(size=(6, 8))
        gt = np.clip(rng.normal(scale=0.5, size=8), -1, 1)
        head = {n: params[n] for n in
                ("head/w1", "head/b1", "head/w2", "head/b2")}
        report = ad.grad_check(
            lambda: ccc_loss(fu.predict_head(Tensor(x_att), params), gt),
            head, h=1e-5, tol=1e-4)
        assert report.passed, report.errors


class TestFullBlockGradients:
    def test_rjcma_gradcheck_at_spec_size(self):
        # every fusion parameter at d_m=8, K=16, l=3 passes at 1e-4
        cfg = fu.FusionConfig(8, 8, 8, K=16, iterations=3)
        params = fu.init_params(cfg, np.random.default_rng(12))
        rng = np.random.default_rng(13)
        # O(1) attention weights keep ReLU pre-activations off the kink
        for name, p in params.items():
            if "/W_c" in name or "/W_h" in name:
                p.data = rng.uniform(-0.5, 0.5, size=p.data.shape)
        x = make_inputs(cfg, seed=14)
        gt = np.clip(rng.normal(scale=0.5, size=16), -1, 1)

        def f():
            out = fu.rjcma_forward(x["a"], x["v"], x["t"], params, cfg)
            return ccc_loss(out.predictions, gt)

        report = ad.grad_check(f, params, h=1e-5, tol=1e-4)
        assert report.passed, sorted(report.errors.items(), key=lambda kv: -kv[1])[:3]
