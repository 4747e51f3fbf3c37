import math
import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from rjcma import autodiff as ad
from rjcma import data as dat
from rjcma import parallel
from rjcma import train as tr
from rjcma.autodiff import Tensor
from rjcma.fusion import FusionConfig
from rjcma.metrics import evaluate
from rjcma.model import RjcmaModel


def small_setup(seed=0, n_seq=6, t=60, d=4, k=24, l=1, noise=0.01):
    syn = dat.SyntheticConfig(n_sequences=n_seq, t_min=t, t_max=t + 20,
                              d_a=d, d_v=d, d_t=d, noise_sigma=noise)
    recs = dat.generate_synthetic(syn, seed=seed)
    spec = dat.WindowSpec(K=k, stride=k * 3 // 4)
    fusion = FusionConfig(d, d, d, K=k, iterations=l)
    return recs, spec, fusion


class TestAdam:
    def test_zero_gradient_zero_decay_no_change(self):
        p = Tensor(np.ones((2, 2)))
        before = p.data.copy()
        tr.adam_step({"p": p}, {"p": np.zeros((2, 2))}, tr.OptimizerState(),
                     lr=0.1, weight_decay=0.0)
        np.testing.assert_array_equal(p.data, before)

    def test_first_step_magnitude_is_lr(self):
        # t=1 with g=1: m_hat = 1, v_hat = 1, update = lr / (1 + eps) ~ lr
        p = Tensor(np.zeros((3, 3)))
        tr.adam_step({"p": p}, {"p": np.ones((3, 3))}, tr.OptimizerState(),
                     lr=0.01, weight_decay=0.0)
        np.testing.assert_allclose(p.data, -0.01, rtol=1e-6)

    def test_deterministic_trajectories(self):
        def run():
            rng = np.random.default_rng(0)
            p = Tensor(np.ones((2, 2)))
            state = tr.OptimizerState()
            for _ in range(10):
                tr.adam_step({"p": p}, {"p": rng.normal(size=(2, 2))}, state,
                             lr=0.05, weight_decay=1e-3)
            return p.data

        assert np.array_equal(run(), run())

    def test_zero_decay_matches_vanilla_adam_oracle(self):
        # independent textbook Adam recurrence
        rng = np.random.default_rng(1)
        grads = [rng.normal(size=(2, 2)) for _ in range(8)]
        p = Tensor(np.ones((2, 2)))
        state = tr.OptimizerState()
        for g in grads:
            tr.adam_step({"p": p}, {"p": g.copy()}, state, lr=0.02, weight_decay=0.0)

        w = np.ones((2, 2))
        m = np.zeros((2, 2))
        v = np.zeros((2, 2))
        for t, g in enumerate(grads, start=1):
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            w = w - 0.02 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
        np.testing.assert_allclose(p.data, w, rtol=1e-12)

    def test_weight_decay_trajectory_matches_out_of_place_formula(self):
        # the update runs in place, with the operations of the allocating
        # form below in the same order, so every step is bit-identical
        rng = np.random.default_rng(2)
        p = Tensor(rng.normal(size=(3, 2)))
        data = p.data
        state = tr.OptimizerState()
        lr, wd = 0.05, 1e-2
        w = p.data.copy()
        m = np.zeros_like(w)
        v = np.zeros_like(w)
        for t in range(1, 13):
            g = rng.normal(size=(3, 2))
            tr.adam_step({"p": p}, {"p": g}, state, lr=lr, weight_decay=wd)
            m = 0.9 * m + (1.0 - 0.9) * g
            v = 0.999 * v + (1.0 - 0.999) * g * g
            m_hat = m / (1.0 - 0.9 ** t)
            v_hat = v / (1.0 - 0.999 ** t)
            w = w * (1.0 - lr * wd)
            w = w - lr * m_hat / (np.sqrt(v_hat) + 1e-8)
            assert np.array_equal(p.data, w)
            assert np.array_equal(state.m["p"], m)
            assert np.array_equal(state.v["p"], v)
        assert p.data is data

    def test_blocks_match_one_block_per_array(self, monkeypatch):
        # 4-element blocks: rows wider than a block, and several rows per
        # block with a short last block, against whole arrays in one block
        rng = np.random.default_rng(3)
        shapes = {"wide": (3, 10), "tall": (7, 2)}
        init = {n: rng.normal(size=s) for n, s in shapes.items()}
        grads = [{n: rng.normal(size=s) for n, s in shapes.items()} for _ in range(5)]

        def run():
            params = {n: Tensor(a.copy()) for n, a in init.items()}
            state = tr.OptimizerState()
            for g in grads:
                tr.adam_step(params, g, state, lr=0.05, weight_decay=1e-2)
            return {n: p.data for n, p in params.items()}

        whole = run()
        monkeypatch.setattr(tr, "_ADAM_BLOCK", 4)
        for n, got in run().items():
            assert np.array_equal(got, whole[n])

    def test_shape_mismatch(self):
        p = Tensor(np.ones((2, 2)))
        with pytest.raises(ValueError):
            tr.adam_step({"p": p}, {"p": np.ones((2, 3))}, tr.OptimizerState(), lr=0.1)


class TestScheduler:
    def cfg(self, **kw):
        defaults = dict(lr_init=1e-5, lr_min=1e-8, plateau_patience=5,
                        plateau_factor=0.1, warmup_epochs=0)
        defaults.update(kw)
        return tr.TrainConfig(**defaults)

    def test_plateau_drop_after_patience(self):
        sched = tr.Scheduler(self.cfg())
        sched.epoch_end(0, True)
        for e in range(1, 5):
            assert sched.epoch_end(e, False) == pytest.approx(1e-5)
        assert sched.epoch_end(5, False) == pytest.approx(1e-6)

    def test_improvement_prevents_drop(self):
        sched = tr.Scheduler(self.cfg())
        for e in range(30):
            lr = sched.epoch_end(e, True)
        assert lr == pytest.approx(1e-5)

    def test_floor_at_lr_min(self):
        sched = tr.Scheduler(self.cfg())
        for e in range(100):
            lr = sched.epoch_end(e, e == 0)
        assert lr == pytest.approx(1e-8)

    def test_scripted_trace_full_ladder(self):
        # constant val CCC: one drop per `patience` epochs, 1e-5 -> ... -> 1e-8
        sched = tr.Scheduler(self.cfg())
        trace = [sched.epoch_end(e, e == 0) for e in range(25)]
        expected = ([1e-5] * 5 + [1e-6] * 5 + [1e-7] * 5 + [1e-8] * 10)
        np.testing.assert_allclose(trace, expected, rtol=1e-12)

    def test_warmup_ramp_is_linear_per_batch(self):
        cfg = self.cfg(warmup_epochs=2)
        sched = tr.Scheduler(cfg)
        ramp = [sched.batch_lr(0, i, 4) for i in range(4)]
        assert ramp[-1] == pytest.approx(1e-5)
        diffs = np.diff(ramp)
        np.testing.assert_allclose(diffs, diffs[0])
        # repeated each warm-up epoch
        assert sched.batch_lr(1, 0, 4) == pytest.approx(ramp[0])
        # after warm-up, the plateau lr applies as-is
        assert sched.batch_lr(2, 0, 4) == pytest.approx(1e-5)

    def test_never_raises_after_warmup(self):
        sched = tr.Scheduler(self.cfg())
        rng = np.random.default_rng(0)
        prev = sched.lr
        for e in range(50):
            lr = sched.epoch_end(e, bool(rng.random() < 0.3))
            assert lr <= prev + 1e-18
            prev = lr

    def test_a_patience_of_0_cuts_on_every_epoch_that_does_not_improve_only(self):
        sched = tr.Scheduler(self.cfg(plateau_patience=0))
        assert sched.epoch_end(0, True) == pytest.approx(1e-5)
        assert sched.epoch_end(1, False) == pytest.approx(1e-6)
        assert sched.epoch_end(2, True) == pytest.approx(1e-6)
        assert sched.epoch_end(3, False) == pytest.approx(1e-7)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            tr.TrainConfig(lr_init=1e-8, lr_min=1e-5)
        with pytest.raises(ValueError):
            tr.TrainConfig(plateau_factor=1.5)


class TestFit:
    def fit_small(self, seed=0, max_epochs=6):
        recs, spec, fusion = small_setup(seed=seed)
        folds = dat.make_folds([r.id for r in recs], 3, seed)
        val_ids = {sid for sid, f in folds.items() if f == 0}
        train_w = [w for r in recs if r.id not in val_ids
                   for w in dat.window(r, spec)]
        val_w = [w for r in recs if r.id in val_ids
                 for w in dat.window(r, spec)]
        cfg = tr.TrainConfig(lr_init=3e-3, lr_min=1e-6, weight_decay=1e-4,
                             max_epochs=max_epochs, warmup_epochs=1,
                             early_stop_patience=20, seed=seed)
        model = RjcmaModel(fusion, target="valence", seed=seed)
        return tr.fit(model, train_w, val_w, cfg), val_w

    def test_an_early_stop_patience_of_0_stops_at_the_first_epoch_that_does_not_improve(
            self, monkeypatch):
        recs, spec, fusion = small_setup()
        wins = [w for r in recs for w in dat.window(r, spec)]
        # validation CCCs by epoch: epoch 2 is the first that does not improve
        scores = iter([0.1, 0.2, 0.2, 0.3])
        report = SimpleNamespace(target_ccc=lambda target: next(scores))
        monkeypatch.setattr(tr, "evaluate", lambda *args: report)
        cfg = tr.TrainConfig(max_epochs=4, early_stop_patience=0, seed=0)
        result = tr.fit(RjcmaModel(fusion, target="valence", seed=0), wins[:2], wins[2:4], cfg)
        assert [h.val_ccc for h in result.history] == [0.1, 0.2, 0.2]

    def test_history_bounded_by_max_epochs(self):
        result, _ = self.fit_small()
        assert len(result.history) <= 6

    def test_best_state_contract(self):
        result, val_w = self.fit_small()
        best_in_history = max(h.val_ccc for h in result.history)
        assert result.best_val_ccc == best_in_history
        # the returned model reproduces the historical best exactly
        report = evaluate(result.model.predict_windows, val_w, targets=("valence",))
        assert report.ccc_valence == best_in_history

    def test_deterministic(self):
        a, _ = self.fit_small(seed=3)
        b, _ = self.fit_small(seed=3)
        assert a.history_csv() == b.history_csv()
        sa, sb = a.model.state_arrays(), b.model.state_arrays()
        assert all(np.array_equal(sa[k], sb[k]) for k in sa)

    def test_loss_decreases_early(self):
        # median over 3 seeds: mean loss of epochs 3-4 below epochs 0-1
        drops = []
        for seed in (0, 1, 2):
            result, _ = self.fit_small(seed=seed)
            losses = [h.train_loss for h in result.history]
            drops.append(np.mean(losses[3:5]) - np.mean(losses[:2]))
        assert np.median(drops) < 0

    def test_nan_loss_aborts_with_diagnostic(self, monkeypatch):
        recs, spec, fusion = small_setup()
        wins = [w for r in recs for w in dat.window(r, spec)]
        model = RjcmaModel(fusion, target="valence", seed=0)
        nan = Tensor([[0.0]])
        nan.data[0, 0] = np.nan
        monkeypatch.setattr(model, "loss_on_batch", lambda ws: nan)
        cfg = tr.TrainConfig(max_epochs=2, seed=0)
        with pytest.raises(tr.NumericalError, match="epoch 0 batch 0"):
            tr.fit(model, wins[:4], wins[4:6], cfg)

    def test_a_step_releases_its_gradients_right_before_the_next_sweep(self, monkeypatch):
        # held through the next step's forward, dead when its backward
        # starts: released earlier, glibc trims the freed heap top and the
        # step faults it back in; released later, the sweep's peak RSS holds
        # two sets of gradients
        recs, spec, fusion = small_setup()
        wins = [w for r in recs for w in dat.window(r, spec)]
        model = RjcmaModel(fusion, target="valence", seed=0)
        last, at_forward, at_sweep = [], [], []
        loss_on_batch, backward = model.loss_on_batch, ad.backward

        def forward(windows):
            at_forward.append([ref() is not None for ref in last])
            return loss_on_batch(windows)

        def sweep(loss, wrt):
            at_sweep.append([ref() is not None for ref in last])
            grads = backward(loss, wrt)
            last[:] = [weakref.ref(g) for g in grads.values()]
            return grads

        monkeypatch.setattr(model, "loss_on_batch", forward)
        monkeypatch.setattr(ad, "backward", sweep)
        tr.fit(model, wins[:8], wins[8:], tr.TrainConfig(batch_size=4, max_epochs=1))
        assert len(at_sweep) == 2 and at_sweep[0] == []
        assert at_forward[1] == [True] * len(model.params)
        assert at_sweep[1] == [False] * len(model.params)

    def test_a_paper_geometry_step_stays_under_its_memory_bound(self, monkeypatch):
        # one steady step at K=300, 16+16+16 features, l=3 and 12 windows
        # on one worker, as `fit` runs it (the last gradients released right
        # before the sweep): its tracemalloc peak above the step's start read
        # 43 MB with the graph linked through nodes, so that an op output no
        # backward saved dies with its caller's reference; 52 MB when each
        # node held its operand tensors; 77 MB freeing the graph at the end
        # of the sweep. The bound leaves 4.6 MB of headroom
        monkeypatch.setattr(parallel, "WORKERS", 1)
        k, rng = 300, np.random.default_rng(0)
        wins = [dat.Window("s", i, {m: rng.normal(size=(16, k)) for m in "avt"},
                           *rng.uniform(-1.0, 1.0, size=(2, k))) for i in range(12)]
        model = RjcmaModel(FusionConfig(16, 16, 16, K=k, iterations=3), "valence", seed=0)
        opt, grads = tr.OptimizerState(), None

        def step():
            nonlocal grads
            loss = model.loss_on_batch(wins)
            grads = None
            grads = ad.backward(loss, model.params)
            tr.adam_step(model.params, grads, opt, lr=1e-3)

        step()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            step()
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 48e6, f"step peak {peak / 1e6:.1f} MB"

    def test_empty_partition_rejected(self):
        recs, spec, fusion = small_setup()
        wins = [w for r in recs for w in dat.window(r, spec)]
        model = RjcmaModel(fusion, target="valence", seed=0)
        with pytest.raises(ValueError):
            tr.fit(model, [], wins, tr.TrainConfig())

