import math

import numpy as np
import pytest

from rjcma import data as dat
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
        p = Tensor(np.ones((2, 2)), requires_grad=True)
        p.grad = np.zeros((2, 2))
        before = p.data.copy()
        tr.adam_step({"p": p}, tr.OptimizerState(), lr=0.1, weight_decay=0.0)
        np.testing.assert_array_equal(p.data, before)

    def test_first_step_magnitude_is_lr(self):
        # t=1 with g=1: m_hat = 1, v_hat = 1, update = lr / (1 + eps) ~ lr
        p = Tensor(np.zeros((3, 3)), requires_grad=True)
        p.grad = np.ones((3, 3))
        tr.adam_step({"p": p}, tr.OptimizerState(), lr=0.01, weight_decay=0.0)
        np.testing.assert_allclose(p.data, -0.01, rtol=1e-6)

    def test_deterministic_trajectories(self):
        def run():
            rng = np.random.default_rng(0)
            p = Tensor(np.ones((2, 2)), requires_grad=True)
            state = tr.OptimizerState()
            for _ in range(10):
                p.grad = rng.normal(size=(2, 2))
                tr.adam_step({"p": p}, state, lr=0.05, weight_decay=1e-3)
            return p.data

        assert np.array_equal(run(), run())

    def test_zero_decay_matches_vanilla_adam_oracle(self):
        # independent textbook Adam recurrence
        rng = np.random.default_rng(1)
        grads = [rng.normal(size=(2, 2)) for _ in range(8)]
        p = Tensor(np.ones((2, 2)), requires_grad=True)
        state = tr.OptimizerState()
        for g in grads:
            p.grad = g.copy()
            tr.adam_step({"p": p}, state, lr=0.02, weight_decay=0.0)

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
        p = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        data = p.data
        state = tr.OptimizerState()
        lr, wd = 0.05, 1e-2
        w = p.data.copy()
        m = np.zeros_like(w)
        v = np.zeros_like(w)
        for t in range(1, 13):
            g = rng.normal(size=(3, 2))
            p.grad = g
            tr.adam_step({"p": p}, state, lr=lr, weight_decay=wd)
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
            params = {n: Tensor(a.copy(), requires_grad=True) for n, a in init.items()}
            state = tr.OptimizerState()
            for g in grads:
                for n, p in params.items():
                    p.grad = g[n]
                tr.adam_step(params, state, lr=0.05, weight_decay=1e-2)
            return {n: p.data for n, p in params.items()}

        whole = run()
        monkeypatch.setattr(tr, "_ADAM_BLOCK", 4)
        for n, got in run().items():
            assert np.array_equal(got, whole[n])

    def test_shape_mismatch(self):
        p = Tensor(np.ones((2, 2)), requires_grad=True)
        p.grad = np.ones((2, 3))
        with pytest.raises(ValueError):
            tr.adam_step({"p": p}, tr.OptimizerState(), lr=0.1)


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

    def test_history_bounded_by_max_epochs(self):
        result, _ = self.fit_small()
        assert len(result.history) <= 6

    def test_best_state_contract(self):
        result, val_w = self.fit_small()
        best_in_history = max(h.val_ccc for h in result.history)
        assert result.best_val_ccc == best_in_history
        # the returned model reproduces the historical best exactly
        report = evaluate(result.model.predict, val_w, targets=("valence",))
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

    def test_empty_partition_rejected(self):
        recs, spec, fusion = small_setup()
        wins = [w for r in recs for w in dat.window(r, spec)]
        model = RjcmaModel(fusion, target="valence", seed=0)
        with pytest.raises(ValueError):
            tr.fit(model, [], wins, tr.TrainConfig())

